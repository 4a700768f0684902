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
        VERDICT_FILE: "7b3ac8cc30161fd38b06b8d70bca0898f35bf36ce2632a0cad4a95bd1e75449c",
        EVENTS_FILE: "c8c8b3395f972207f0f376b34847a6295e8a9f847d90df95974d01fb1c27cd59",
        REPORT_FILE: "2c81e8b3a2d1a781d50ff220f13a40d81f3e312218987704395f83baba85aefb",
    },
    9001: {
        VERDICT_FILE: "b933c519da174572211162432287b2dc809f299a08c3603a139cf17f7de02f0a",
        EVENTS_FILE: "86463986c9ed0042495db4cc6eeda082311d6a355fa8b3304ef2520cd14f3d5e",
        REPORT_FILE: "2848d11b4894544e59e87df9acffaaed994c480181556db9c0a0bc343904df9b",
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
