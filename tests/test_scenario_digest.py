"""`qonnect scenario all` writes byte-identical output for a fixed seed.

The digests pin the report, the verdict and the full event log of the four
scenarios. A change that alters any of them on purpose updates the digests
here and says why in CHANGES.md; any other change must leave them alone.
"""

from __future__ import annotations

import hashlib

import pytest

from qonnect.harness.cli import EVENTS_FILE, REPORT_FILE, VERDICT_FILE, main

DIGESTS = {
    7: {
        VERDICT_FILE: "7a344d551ccdd33eacf8a082e705292ba602b199f4012ce7b157e5efec547f4a",
        EVENTS_FILE: "a6a3debaa959d982923d489457c1d603dc125171fa3b58ab86dbfb520d7805eb",
        REPORT_FILE: "3c87bd7a25632006599f5f43fc09bbfd3a379f727e191bc756366455308643d1",
    },
    9001: {
        VERDICT_FILE: "f1cdd8a99aac73061f1163ff82913a055f44c90d04e57ba65a8edddac87e39dc",
        EVENTS_FILE: "1c4481a4392b7db5e3c047711094882f9f81defb34a87d4d1b6ab0e118c40717",
        REPORT_FILE: "d1e85c1caaa2cc592ab55e8bc346003881d7655d2dd7b18529fedc822548dd40",
    },
}


@pytest.mark.parametrize("seed", sorted(DIGESTS))
def test_scenario_all_output_is_byte_identical(seed, tmp_path, capsys):
    assert main(["scenario", "all", "--seed", str(seed), "--out", str(tmp_path)]) == 0
    capsys.readouterr()  # the printed summary is not pinned
    digests = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in DIGESTS[seed]
    }
    assert digests == DIGESTS[seed]
