"""The code lines of ``src/``, held under a ceiling.

A code line holds a token that is not a comment and is not part of a
docstring (the string that opens a module, class or function); blank lines
do not count either. A change that adds code to ``src/`` raises ``CEILING``
in the same diff and says why in CHANGES.md; one that deletes code may lower
it, so the next addition has to name what it costs.

A package's ``__init__.py`` holds its docstring and no code, so each name
has one import path: the submodule that defines it.
"""

from __future__ import annotations

import ast
import io
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

CEILING = 4360

_NOT_CODE = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE,
    tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER,
}
_DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(text: str) -> int:
    lines: set[int] = set()
    for token in tokenize.generate_tokens(io.StringIO(text).readline):
        if token.type not in _NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, _DOCUMENTED) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                lines.difference_update(range(first.lineno, first.end_lineno + 1))
    return len(lines)


def test_the_rule_counts_code_and_skips_blanks_comments_and_docstrings():
    text = '''"""Module
docstring."""

# a comment
X = (1,
     2)  # trailing comment


class A:
    """Class docstring."""

    def f(self):
        """Function
        docstring."""
        return """a string
        that is code"""
'''
    # X's two lines, the class line, the def line and the return's two lines.
    assert code_lines(text) == 6


def test_src_stays_at_or_below_its_code_line_ceiling():
    counts = {p.relative_to(SRC): code_lines(p.read_text("utf-8")) for p in SRC.rglob("*.py")}
    total = sum(counts.values())
    largest = sorted(counts.items(), key=lambda item: -item[1])[:5]
    assert total <= CEILING, (
        f"src/ has {total} code lines, above the ceiling of {CEILING}; "
        f"largest files: {largest}"
    )


def test_no_package_init_re_exports_a_name():
    inits = sorted(SRC.glob("qonnect/*/__init__.py"))
    assert inits
    with_code = [str(p.relative_to(SRC)) for p in inits if code_lines(p.read_text("utf-8"))]
    assert not with_code, f"import from the submodule instead: {with_code}"
