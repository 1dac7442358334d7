import json

import pytest

from galab.cli import _parse_moduli, main
from galab.errors import UsageError
from galab.groups import cyclic_group


def element_json(terms, rank=1, scalars="float"):
    return json.dumps(
        {
            "group": {"kind": "Z", "rank": rank},
            "scalars": scalars,
            "terms": terms,
        }
    )


INVERTIBLE = element_json(
    [{"x": [0], "re": 2.0, "im": 0.0}, {"x": [1], "re": 1.0, "im": 0.0}]
)
SINGULAR = element_json(
    [{"x": [0], "re": 1.0, "im": 0.0}, {"x": [1], "re": -1.0, "im": 0.0}]
)


def test_parse_moduli_forms():
    assert _parse_moduli("2..5") == [2, 3, 4, 5]
    assert _parse_moduli("2,4,8") == [2, 4, 8]
    assert _parse_moduli("3x5") == [(3, 5)]
    assert _parse_moduli("2..3,10,4x6") == [2, 3, 10, (4, 6)]
    with pytest.raises(UsageError):
        _parse_moduli(",")


def test_invert_writes_report_and_exits_zero(tmp_path, capsys):
    out = tmp_path / "cert.json"
    code = main(["invert", "--input", INVERTIBLE, "--report", str(out)])
    assert code == 0
    stdout = capsys.readouterr().out
    assert "verdict: invertible" in stdout
    payload = json.loads(out.read_text())
    assert payload["verdict"] == "invertible"
    assert payload["kind"] == "wiener-grid"
    assert payload["residual"] <= 1e-10


def test_invert_not_invertible_exit_code(capsys):
    assert main(["invert", "--input", SINGULAR]) == 2
    assert "not-invertible" in capsys.readouterr().out


def test_invert_inconclusive_exit_code(capsys):
    near = element_json(
        [{"x": [0], "re": 1.0, "im": 0.0}, {"x": [1], "re": -1.0101010101, "im": 0.0}]
    )
    assert main(["invert", "--input", near]) == 3


def test_invert_neumann_with_weight_and_pivot(capsys):
    f = element_json(
        [{"x": [0], "re": "1", "im": "0"}, {"x": [1], "re": "-1/4", "im": "0"}],
        scalars="exact",
    )
    code = main(
        [
            "invert", "--input", f,
            "--weight", '{"kind":"exp_symmetric","base":2}',
            "--method", "neumann", "--pivot", "[0]", "--K", "40",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "ratio = 0.5" in out


def test_invert_reads_input_from_file(tmp_path):
    path = tmp_path / "f.json"
    path.write_text(INVERTIBLE)
    assert main(["invert", "--input", str(path)]) == 0


def test_certify_dispatches_on_group_kind(tmp_path):
    c3 = cyclic_group(3).to_json()
    f = json.dumps(
        {
            "group": c3,
            "scalars": "exact",
            "terms": [{"x": 0, "re": "2", "im": "0"}, {"x": 1, "re": "1", "im": "0"}],
        }
    )
    out = tmp_path / "c.json"
    assert main(["certify", "--input", f, "--report", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["kind"] == "exact-finite"
    assert payload["residual"] == "0"
    assert main(["certify", "--input", INVERTIBLE]) == 0


def test_certify_refuses_free_group(capsys):
    word = json.dumps(
        {"group": {"kind": "free", "rank": 2}, "terms": [{"x": [1], "re": 2.0, "im": 0.0}]}
    )
    assert main(["certify", "--input", word]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error: ")


def test_df_check_pass_and_report(tmp_path, capsys):
    f = element_json(
        [{"x": [0], "re": "2", "im": "0"}], scalars="exact"
    )
    g = element_json(
        [{"x": [0], "re": "1/2", "im": "0"}], scalars="exact"
    )
    out = tmp_path / "df.json"
    assert main(["df-check", "--f", f, "--g", g, "--report", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["pass"] is True
    assert payload["left_residual"] == "0"
    assert "pass: True" in capsys.readouterr().out


def test_check_weight_ok_and_violation(capsys):
    code = main(
        [
            "check-weight",
            "--weight", '{"kind":"exp_symmetric","base":2}',
            "--group", '{"kind":"Z","rank":1}',
            "--radius", "4",
        ]
    )
    assert code == 0
    bad = json.dumps(
        {
            "kind": "table",
            "entries": [[[0], 1.0], [[1], 0.5], [[-1], 0.5]],
            "extension": "error",
        }
    )
    code = main(
        ["check-weight", "--weight", bad, "--group", '{"kind":"Z","rank":1}', "--radius", "1"]
    )
    assert code == 2
    assert "submultiplicative: False" in capsys.readouterr().out


def test_dominate_feasible_and_infeasible(capsys):
    grow = json.dumps(
        {
            "kind": "product",
            "factors": [
                {"kind": "exp_directional", "coefficients": [0.6931471805599453], "rectified": False},
                {"kind": "polynomial", "beta": 1},
            ],
        }
    )
    assert main(["dominate", "--weight", grow, "--radius", "50"]) == 0
    assert "character c = [0.69" in capsys.readouterr().out

    decay = json.dumps(
        {
            "kind": "table",
            "entries": [[[n], 2.0 ** -abs(n)] for n in range(-3, 4)],
            "extension": "error",
        }
    )
    assert main(["dominate", "--weight", decay, "--radius", "3"]) == 2


def test_probe_exit_codes(tmp_path):
    out = tmp_path / "probe.json"
    assert main(["probe", "--input", SINGULAR, "--moduli", "2..6", "--report", str(out)]) == 2
    payload = json.loads(out.read_text())
    assert payload["any_singular"] is True
    assert payload["certificate"]["kind"] == "quotient-witness"
    assert main(["probe", "--input", INVERTIBLE, "--moduli", "2..6"]) == 0


def test_scenario_commands(tmp_path, capsys):
    out = tmp_path / "lp.json"
    assert main(["scenario", "lp", "--N", "20", "--report", str(out)]) == 0
    assert json.loads(out.read_text())["verdict"] == "confirmed"
    assert main(["scenario", "torus", "--r", "0.5", "--N", "64"]) == 0
    text = capsys.readouterr().out
    assert "non-decay = True" in text


def test_scenario_report_bytes_are_stable(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    main(["scenario", "torus", "--r", "1/4", "--N", "32", "--report", str(a)])
    main(["scenario", "torus", "--r", "1/4", "--N", "32", "--report", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_usage_errors_exit_one(capsys):
    assert main(["no-such-command"]) == 1
    assert main(["invert"]) == 1  # missing --input
    assert main(["invert", "--input", "{not json"]) == 1
    assert main(["probe", "--input", INVERTIBLE, "--moduli", "2x2"]) == 1  # rank mismatch
    err = capsys.readouterr().err
    assert "error:" in err
