"""README's Quick tour and command-line transcripts run as written and print
what the README shows."""

import ast
import json
import shlex
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

from galab.cli import main

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


def _transcripts() -> list:
    """(argv, expected stdout lines) of each ``$ galab ...`` block, in order.

    A command runs on while a line ends in a backslash or a quote is open.
    """
    blocks = []
    lines = README.read_text(encoding="utf-8").splitlines()
    i = 0
    while i < len(lines):
        if not lines[i].startswith("$ galab "):
            i += 1
            continue
        command = lines[i][2:]
        while True:
            try:
                argv = shlex.split(command.replace("\\\n", " "))
            except ValueError:  # a quote spans the line break
                argv = None
            if argv is not None and not command.endswith("\\"):
                break
            i += 1
            command += "\n" + lines[i]
        i += 1
        start = i
        while lines[i] != "```":
            i += 1
        blocks.append((argv[1:], lines[start:i]))
    return blocks


def _shows_in_order(expected: list, got: list) -> bool:
    """Whether every line of expected but the "..." ones appears in got, in order."""
    rest = iter(got)
    return all(line in rest for line in expected if line.strip() != "...")


def test_command_line_transcripts_print_what_the_readme_shows(tmp_path, monkeypatch, capsys):
    blocks = _transcripts()
    assert len(blocks) == 9
    monkeypatch.chdir(tmp_path)
    previous_input = None
    for argv, expected in blocks:
        if "difference_filter.json" in argv:
            # The probe block reads the filter of the block before it.
            (tmp_path / "difference_filter.json").write_text(previous_input, encoding="utf-8")
        main(argv)
        out = capsys.readouterr().out
        if any(line.strip() == "..." for line in expected):
            assert _shows_in_order(expected, out.splitlines()), (argv, out)
        else:
            assert out == "\n".join(expected) + "\n", argv
        if "--input" in argv:
            previous_input = argv[argv.index("--input") + 1]


COLD_START = """\
import json, sys
sys.path.insert(0, sys.argv[1])
def loaded():
    return sorted(m for m in ("numpy", "scipy") if m in sys.modules)
import galab, galab.cli
after_import = loaded()
for argv in json.loads(sys.argv[2]):
    galab.cli.main(argv)
print(json.dumps([after_import, loaded()]))
"""


def _cold_start(tmp_path, argvs):
    """The numerical modules loaded by a fresh interpreter after importing
    galab, and after running argvs through galab.cli.main."""
    src = Path(__file__).resolve().parents[1] / "src"
    run = subprocess.run([sys.executable, "-c", COLD_START, str(src), json.dumps(argvs)],
                         cwd=tmp_path, capture_output=True, text=True, check=True)
    return json.loads(run.stdout.splitlines()[-1])


def test_exact_commands_start_without_numpy(tmp_path):
    # numpy takes most of a command's cold start, and the exact Neumann
    # series, the exact finite solve, the direct-finiteness check and the
    # weight check never call it, so neither importing galab nor running
    # those lines loads it: nor does check-weight on the radius-6 ball of
    # Z^2, as the benchmark runs it.
    exact = [argv for argv, _ in _transcripts()
             if argv[0] in ("certify", "df-check", "check-weight") or "neumann" in argv]
    assert [argv[0] for argv in exact] == ["invert", "certify", "df-check", "check-weight"]
    exact.append(["check-weight", "--weight", '{"kind": "polynomial", "beta": 2}',
                  "--group", '{"kind": "Z", "rank": 2}', "--radius", "6"])
    assert _cold_start(tmp_path, exact) == [[], []]


def test_rank_two_dominate_loads_no_scipy(tmp_path):
    # Its linear program is galab's own simplex on numpy arrays.
    argv = ["dominate", "--weight", '{"kind": "polynomial", "beta": 2}',
            "--group", '{"kind": "Z", "rank": 2}', "--radius", "6"]
    assert _cold_start(tmp_path, [argv]) == [[], ["numpy"]]
