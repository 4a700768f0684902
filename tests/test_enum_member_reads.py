"""No function under ``src/qonnect`` reads an enum member through its class.

``Role.LEADER`` goes through the enum metaclass's ``__getattr__`` and costs
about ten times a module global on CPython 3.11, and the engine's idle step
(the Raft heartbeat round, the member round, ``RlaService.pump``) reads such
members many times. So functions read members from module constants bound
once (``_LEADER = Role.LEADER``); module-level code may read them through the
class.
"""

from __future__ import annotations

import ast
import importlib
from enum import Enum
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def member_reads_in_functions(module: object, text: str) -> list[tuple[int, str]]:
    """(line, ``Class.MEMBER``) for each read, inside a function or lambda,
    of a member through a name that ``module`` binds to an ``Enum`` class."""
    found = set()
    for function in ast.walk(ast.parse(text)):
        if not isinstance(function, _FUNCTIONS):
            continue
        for node in ast.walk(function):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                cls = getattr(module, node.value.id, None)
                if isinstance(cls, type) and issubclass(cls, Enum) \
                        and node.attr in cls.__members__:
                    found.add((node.lineno, f"{node.value.id}.{node.attr}"))
    return sorted(found)


def test_the_rule_finds_reads_in_functions_and_lambdas_only():
    from qonnect.raft import node

    text = '''
X = Role.LEADER


def f(role):
    return role is Role.FOLLOWER or MAX_APPEND_ENTRIES.real


g = lambda role: role == Role.CANDIDATE
'''
    assert member_reads_in_functions(node, text) == [(6, "Role.FOLLOWER"), (9, "Role.CANDIDATE")]


def test_no_function_reads_an_enum_member_through_its_class():
    offenders = []
    for path in sorted((SRC / "qonnect").rglob("*.py")):
        parts = path.relative_to(SRC).with_suffix("").parts
        module = importlib.import_module(".".join(parts[:-1] if parts[-1] == "__init__" else parts))
        for line, read in member_reads_in_functions(module, path.read_text("utf-8")):
            offenders.append(f"{path.relative_to(SRC)}:{line} {read}")
    assert not offenders, f"bind these to module constants: {offenders}"
