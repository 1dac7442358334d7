"""README's Quick tour runs as written and prints what its comments say."""

import ast
from fractions import Fraction
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _quick_tour() -> str:
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Quick tour"):]
    start = section.index("```python\n") + len("```python\n")
    return section[start:section.index("```", start)]


def test_quick_tour_runs_verbatim_and_matches_its_comments():
    source = _quick_tour()
    lines = source.splitlines()
    namespace: dict = {}
    results = []  # (value, comment) of each expression statement, in order
    for stmt in ast.parse(source).body:
        if isinstance(stmt, ast.Expr):
            value = eval(compile(ast.Expression(stmt.value), "README.md", "eval"), namespace)
            line = lines[stmt.end_lineno - 1]
            results.append((value, line.split("#", 1)[1].strip() if "#" in line else ""))
        else:
            exec(compile(ast.Module([stmt], []), "README.md", "exec"), namespace)
    # Every commented result starts with the repr of what the line evaluates to.
    for value, comment in results:
        assert comment.startswith(repr(value)), (value, comment)
    values = [value for value, _ in results]
    assert values[0] == "invertible"
    assert Fraction(2) ** -41 in values
    assert values[-1] == 0 and isinstance(values[-1], Fraction)
    assert namespace["g"].n_terms == 44
