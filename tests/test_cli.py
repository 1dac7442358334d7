import json
import math
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import galab
from galab.algebra import (
    AlgebraElement,
    QComplex,
    canonical_json,
    delta,
    element_from_json,
    to_jsonable,
)
from galab.cli import _parse_moduli, main
from galab.errors import UsageError
from galab.groups import LatticeGroup, ball, cyclic_group
from galab.invertibility import (
    invert_finite,
    invert_via_fft,
    neumann_invert,
    probe_quotients,
    verify_direct_finiteness,
    wiener_certify,
)
from galab.scenarios import scenario_lp, scenario_torus
from galab.weights import TableWeight, check_weight, dominate_character

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import workloads  # noqa: E402


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
    assert list(_parse_moduli("2..5")) == [2, 3, 4, 5]
    assert list(_parse_moduli("2,4,8")) == [2, 4, 8]
    assert list(_parse_moduli("3x5")) == [(3, 5)]
    assert list(_parse_moduli("2..3,10,4x6")) == [2, 3, 10, (4, 6)]
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


def test_invert_inconclusive_exit_code(tmp_path, capsys):
    near = element_json(
        [{"x": [0], "re": 1.0, "im": 0.0}, {"x": [1], "re": -1.0101010101, "im": 0.0}]
    )
    assert main(["invert", "--input", near]) == 3
    # The rank-one zero search costs O(terms), so 2 + z^1000 ends in about a
    # millisecond; an eigensolve on its degree span takes seconds.
    far = element_json([{"x": [0], "re": 2.0}, {"x": [1000], "re": 1.0}])
    start = time.perf_counter()
    assert main(["invert", "--input", far]) == 3
    assert time.perf_counter() - start < 2
    # 1 - 0.95z at 512 fails the corner test, so its candidate has no residual.
    out = tmp_path / "cert.json"
    steep = element_json([{"x": [0], "re": 1.0}, {"x": [1], "re": -0.95}])
    argv = ["invert", "--method", "fft", "--N", "512", "--report", str(out), "--input", steep]
    assert main(argv) == 3
    assert '"residual":null' in out.read_text()


def test_invert_neumann_with_weight(capsys):
    f = element_json(
        [{"x": [0], "re": "1", "im": "0"}, {"x": [1], "re": "-1/4", "im": "0"}],
        scalars="exact",
    )
    code = main(
        [
            "invert", "--input", f,
            "--weight", '{"kind":"exp_symmetric","base":2}',
            "--method", "neumann", "--K", "40",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "pivot = [0]" in out and "ratio = 0.5" in out


def test_pivot_flag_is_gone(capsys):
    # The series always takes the least-ratio pivot.
    argv = ["invert", "--input", INVERTIBLE, "--method", "neumann", "--pivot", "[1]"]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["error: unrecognized arguments: --pivot [1]"]


def test_invert_reads_input_from_file(tmp_path):
    path = tmp_path / "f.json"
    path.write_text(INVERTIBLE)
    assert main(["invert", "--input", str(path)]) == 0


@pytest.mark.parametrize("data", [b"\xff\xfe\x00bad", b"\x80"], ids=["utf-16-bom", "bad-utf-8"])
def test_input_file_that_is_not_json_text_is_a_usage_error(tmp_path, capsys, data):
    path = tmp_path / "f.json"
    path.write_bytes(data)
    assert main(["invert", "--input", str(path)]) == 1
    assert _one_error_line(capsys)


def test_input_path_with_a_nul_is_a_usage_error(capsys):
    assert main(["invert", "--input", "f\0.json"]) == 1
    assert _one_error_line(capsys)


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


def test_float_reports_print_a_zero_residual_as_a_float(tmp_path, capsys):
    # An empty float residual is the float 0.0; only exact residuals print "0".
    cert = neumann_invert(delta(LatticeGroup(1), (0,), 2.0)).to_json()
    assert (cert["residual"], cert["left_residual"], cert["right_residual"]) == (0.0, 0.0, 0.0)
    assert '"residual":0.0' in canonical_json(cert)
    out = tmp_path / "df.json"
    f, g = element_json([{"x": [0], "re": 2.0}]), element_json([{"x": [0], "re": 0.5}])
    assert main(["df-check", "--f", f, "--g", g, "--report", str(out)]) == 0
    assert out.read_text() == (
        '{"left_residual":0.0,"pass":true,"right_residual":0.0,"slack":10.0,"tol":1e-10}\n'
    )
    assert "left residual  = 0.0" in capsys.readouterr().out


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
    # A character is feasible, its interval inverted by rounding within the tolerance.
    rate = '{"kind":"exp_directional","coefficients":[0.3],"rectified":false}'
    assert main(["dominate", "--weight", rate, "--radius", "10"]) == 0
    assert "admissible interval = [0.30000000000000004, 0.3]" in capsys.readouterr().out

    decay = json.dumps(
        {
            "kind": "table",
            "entries": [[[n], 2.0 ** -abs(n)] for n in range(-3, 4)],
            "extension": "error",
        }
    )
    assert main(["dominate", "--weight", decay, "--radius", "3"]) == 2
    # w(0) = 1/2 < 1 = phi(0) refutes every c; on Z the certificate names the identity.
    halved = ('{"kind":"product","factors":[{"kind":"exp_symmetric","base":2},'
              '{"kind":"constant","value":0.5}]}')
    capsys.readouterr()
    assert main(["dominate", "--weight", halved, "--radius", "5"]) == 2
    assert "conflicting constraints at ((0,), (0,))" in capsys.readouterr().out
    assert main(["dominate", "--weight", halved, "--radius", "5",
                 "--group", '{"kind":"Z","rank":2}']) == 2
    # log w = 4e-13 at +-e_1 and 0 elsewhere on Z^2: c = 0 passes, though the
    # simplex's first basis reads a margin of -4e-13 at -e_2.
    surplus = json.dumps({"kind": "table", "entries": [
        [[i, j], 1.0000000000004 if (i, j) in ((1, 0), (-1, 0)) else 1.0]
        for i in (-1, 0, 1) for j in (-1, 0, 1)]})
    capsys.readouterr()
    assert main(["dominate", "--weight", surplus, "--radius", "1",
                 "--group", '{"kind":"Z","rank":2}']) == 0
    assert "feasible: True" in capsys.readouterr().out


def test_probe_exit_codes(tmp_path):
    out = tmp_path / "probe.json"
    assert main(["probe", "--input", SINGULAR, "--moduli", "2..6", "--report", str(out)]) == 2
    payload = json.loads(out.read_text())
    assert payload["any_singular"] is True
    assert payload["certificate"]["kind"] == "quotient-witness"
    assert main(["probe", "--input", INVERTIBLE, "--moduli", "2..6"]) == 0
    # The benchmark's probe of 4 d0 - 4 d1 over 63 quotients.
    scaled = element_json([{"x": [0], "re": 4.0}, {"x": [1], "re": -4.0}])
    assert main(["probe", "--input", scaled, "--moduli", "2..64", "--report", str(out)]) == 2
    assert len(json.loads(out.read_text())["results"]) == 63


def test_scenario_commands(tmp_path, capsys):
    out = tmp_path / "lp.json"
    assert main(["scenario", "lp", "--N", "20", "--report", str(out)]) == 0
    assert json.loads(out.read_text())["verdict"] == "confirmed"
    assert main(["scenario", "torus", "--r", "0.5", "--N", "64"]) == 0
    text = capsys.readouterr().out
    assert "non-decay = True" in text
    # scenario lp's work does not grow with N.
    assert main(["scenario", "lp", "--N", str(10**12)]) == 0


def test_scenario_report_bytes_are_stable(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    main(["scenario", "torus", "--r", "1/4", "--N", "32", "--report", str(a)])
    main(["scenario", "torus", "--r", "1/4", "--N", "32", "--report", str(b)])
    assert a.read_bytes() == b.read_bytes()


# canonical_json bytes of one small payload of each report kind, pinned from the
# per-module encoders it replaced; any drift of the encoding fails here.  The
# inputs keep every float exact or computed in pure Python.
GOLDEN_REPORTS = {
    "exact-cert": (
        '{"inverse":{"group":{"identity":0,"kind":"cayley","name":"C3","order":3,"table":[[0,'
        '1,2],[1,2,0],[2,0,1]]},"scalars":"exact","terms":[{"im":"0","re":"32/65","x":0},'
        '{"im":"0","re":"-8/65","x":1},{"im":"0","re":"2/65","x":2}]},"kind":"exact-finite",'
        '"left_residual":"0","order":3,"residual":"0","right_residual":"0","scalars":"exact",'
        '"verdict":"invertible"}'
    ),
    "float-cert": (
        '{"inverse":{"group":{"kind":"Z","rank":1},"scalars":"float","terms":[{"im":0.0,'
        '"re":1.0,"x":[0]},{"im":-0.0,"re":-0.5,"x":[1]},{"im":0.0,"re":0.25,"x":[2]},'
        '{"im":-0.0,"re":-0.125,"x":[3]}]},"kind":"neumann-series","left_residual":0.0625,'
        '"pivot":[0],"ratio":0.5,'
        '"reason":"series converges but the truncation is above tolerance","residual":0.0625,'
        '"right_residual":0.0625,"scalars":"float","tail_bound":0.125,"terms":3,'
        '"verdict":"inconclusive"}'
    ),
    "df": (
        '{"left_residual":"1/3","pass":true,"right_residual":"1/3","slack":10.0,"tol":1e-10}'
    ),
    "probe": (
        '{"any_singular":true,"certificate":{"angle":[0.0],"frequency":[0],"inverse":null,'
        '"kind":"quotient-witness","moduli":[2],"residual":null,"value":0.0,'
        '"verdict":"not-invertible"},"results":[{"angle":[0.0],"frequency":[0],'
        '"min_modulus":0.0,"moduli":[2],"nonsingular":false},{"angle":[0.0],"frequency":[0],'
        '"min_modulus":0.0,"moduli":[4],"nonsingular":false}],"singular_tol":1e-12}'
    ),
    "check-weight": (
        '{"min_at":[-1],"min_value":1.0,"proof":null,"submultiplicative":false,'
        '"symmetric":true,"window_size":5,"worst_pair":[[-1],[-1]],"worst_ratio":5.0}'
    ),
    "dominate": (
        '{"certificate_pair":[[-1],[1]],"feasible":false,"lower":0.6931471805599453,'
        '"radius":1,"upper":-0.6931471805599453}'
    ),
    "scenario-lp": (
        '{"findings":[{"name":"constant-action-residual","value":0},'
        '{"name":"forced-endpoint-gap","value":1},{"name":"homogeneous-endpoint-gap",'
        '"value":0},{"name":"symbol-verdict","value":"not-invertible"},'
        '{"name":"witness-angle","value":0.0}],"parameters":{"radius":3},"scenario":"lp",'
        '"verdict":"confirmed"}'
    ),
    "scenario-torus": (
        '{"findings":[{"name":"target-degree","value":2},{"name":"solution-degree",'
        '"value":1},{"name":"solution-peak","value":1.2732395447351628},'
        '{"name":"reconstruction-residual","value":0.0},{"name":"forced-all-ones",'
        '"value":true},{"name":"tail-band-max","value":1},{"name":"forced-l1-mass",'
        '"value":17},{"name":"non-decay","value":true}],"parameters":{"degree":2,'
        '"max_freq":8,"ratio":"1/2"},"scenario":"torus","verdict":"confirmed"}'
    ),
    # One entry for each remaining certificate exit: the not-invertible and
    # inconclusive verdicts of every oracle.
    "exact-kernel": (
        '{"inverse":null,"kernel":{"group":{"identity":0,"kind":"cayley","name":"C3",'
        '"order":3,"table":[[0,1,2],[1,2,0],[2,0,1]]},"scalars":"exact","terms":[{"im":"0",'
        '"re":"1","x":0},{"im":"0","re":"1","x":1},{"im":"0","re":"1","x":2}]},'
        '"kernel_residual":"0","kind":"exact-finite","order":3,"residual":null,'
        '"scalars":"exact","verdict":"not-invertible"}'
    ),
    "fft-zero-sample": (
        '{"flagged_angle":[0.0],"flagged_frequency":[0],"flagged_value":0.0,"inverse":null,'
        '"kind":"fft-candidate",'
        '"reason":"symbol sample within zero tolerance; suspected non-invertible",'
        '"residual":null,"size":2,"verdict":"inconclusive"}'
    ),
    "wiener-zero": (
        '{"grid":64,"grid_min":0.0,"inverse":null,"kind":"wiener-grid","lipschitz":0.0,'
        '"margin":0.0,"residual":null,"verdict":"not-invertible","witness_angle":[0.0],'
        '"witness_value":0.0}'
    ),
    "wiener-root": (
        '{"grid":4,"grid_min":0.0,"inverse":null,"kind":"wiener-grid",'
        '"lipschitz":1.0,"margin":-0.7853981633974483,"residual":null,'
        '"root":{"im":0.0,"re":1.0},"spacing":1.5707963267948966,"verdict":"not-invertible",'
        '"witness_angle":0.0,"witness_value":0.0}'
    ),
    "wiener-no-witness": (
        '{"grid":4,"grid_min":0.0,"inverse":null,"kind":"wiener-grid","lipschitz":1.0,'
        '"margin":-0.7853981633974483,'
        '"reason":"margin not positive and no unit-circle root witness","residual":null,'
        '"spacing":1.5707963267948966,"verdict":"inconclusive"}'
    ),
    "neumann-ratio-one": (
        '{"inverse":null,"kind":"neumann-series","pivot":[0],"ratio":1.0,'
        '"reason":"series ratio is >= 1 at the chosen pivot","residual":null,'
        '"scalars":"float","terms":40,"verdict":"inconclusive"}'
    ),
    # The float finite solve: LAPACK's SVD and solve, pinned on one machine.
    "float-finite-cert": (
        '{"inverse":{"group":{"identity":0,"kind":"cayley","name":"C3","order":3,"table":[[0,'
        '1,2],[1,2,0],[2,0,1]]},"scalars":"float","terms":[{"im":0.0,"re":0.49230769230769234,'
        '"x":0},{"im":0.0,"re":-0.12307692307692308,"x":1},{"im":0.0,'
        '"re":0.03076923076923077,"x":2}]},"kind":"float-finite","left_residual":0.0,'
        '"order":3,"residual":0.0,"right_residual":0.0,"scalars":"float",'
        '"verdict":"invertible"}'
    ),
    "float-finite-kernel": (
        '{"inverse":null,"kernel":{"group":{"identity":0,"kind":"cayley","name":"C3",'
        '"order":3,"table":[[0,1,2],[1,2,0],[2,0,1]]},"scalars":"float","terms":[{"im":-0.0,'
        '"re":-0.5773502691896256,"x":0},{"im":-0.0,"re":-0.5773502691896261,"x":1},'
        '{"im":-0.0,"re":-0.577350269189626,"x":2}]},"kernel_residual":8.881784197001252e-16,'
        '"kind":"float-finite","order":3,"residual":null,"scalars":"float",'
        '"verdict":"not-invertible"}'
    ),
}


def _golden_payload(kind):
    c3, z = cyclic_group(3), LatticeGroup(1)
    z_diff = delta(z, (0,), 1.0) - delta(z, (1,), 1.0)
    if kind == "exact-cert":
        return invert_finite(
            delta(c3, 0, 2, exact=True) + delta(c3, 1, Fraction(1, 2), exact=True)
        ).to_json()
    if kind == "float-cert":
        return neumann_invert(delta(z, (0,), 1.0) + delta(z, (1,), 0.5), terms=3).to_json()
    if kind == "df":
        return verify_direct_finiteness(
            delta(c3, 0, 2, exact=True), delta(c3, 0, Fraction(1, 3), exact=True)
        ).to_json()
    if kind == "probe":  # as the probe command assembles it
        report = probe_quotients(z_diff, [2, (4,)])
        return {**report.to_json(), "certificate": report.to_certificate().to_json()}
    if kind == "check-weight":
        return check_weight(TableWeight.on_ball(z, 2, [5, 1, 1, 1, 5]), ball(z, 2)).to_json()
    if kind == "dominate":
        return dominate_character(TableWeight.on_ball(z, 1, [0.5, 1, 0.5]), z, 1).to_json()
    if kind == "scenario-lp":
        return scenario_lp(3).to_json()
    if kind == "float-finite-cert":
        return invert_finite(delta(c3, 0, 2.0) + delta(c3, 1, 0.5)).to_json()
    if kind == "float-finite-kernel":
        return invert_finite(delta(c3, 0, 1.0) - delta(c3, 1, 1.0)).to_json()
    if kind == "exact-kernel":
        return invert_finite(delta(c3, 0, 1, exact=True) - delta(c3, 1, 1, exact=True)).to_json()
    if kind == "fft-zero-sample":
        return invert_via_fft(z_diff, 2).to_json()
    if kind == "wiener-zero":
        return wiener_certify(AlgebraElement.zero(z)).to_json()
    if kind == "wiener-root":
        return wiener_certify(z_diff, 4).to_json()
    if kind == "wiener-no-witness":
        z2 = LatticeGroup(2)
        return wiener_certify(delta(z2, (0, 0), 1.0) - delta(z2, (1, 0), 1.0), 4).to_json()
    if kind == "neumann-ratio-one":
        return neumann_invert(delta(z, (0,), 1.0) + delta(z, (1,), 1.0)).to_json()
    return scenario_torus("1/2", 8, 2).to_json()


@pytest.mark.parametrize("kind", sorted(GOLDEN_REPORTS))
def test_report_bytes_match_the_pinned_encoding(kind):
    text = canonical_json(_golden_payload(kind))
    assert text == GOLDEN_REPORTS[kind] + "\n"
    # The bytes are the canonical text of the JSON they hold.
    assert canonical_json(json.loads(text)) == text


def _mapped_then_encoded(payload):
    # The encoding before canonical_json took one pass: map, then encode.
    text = json.dumps(to_jsonable(payload), sort_keys=True, separators=(",", ":"),
                      allow_nan=False)
    return text + "\n"


@pytest.mark.parametrize("kind", sorted(GOLDEN_REPORTS))
def test_one_pass_encoding_matches_the_mapped_payload(kind):
    payload = _golden_payload(kind)
    assert canonical_json(payload) == _mapped_then_encoded(payload)


def test_one_pass_encoding_converts_every_leaf_json_cannot_encode():
    z, c3 = LatticeGroup(1), cyclic_group(3)
    payloads = [
        {"fraction": Fraction(-1, 4), "whole": Fraction(3), "complex": 1.5 - 0.25j,
         "exact": QComplex.of(Fraction(1, 3), -2), "real": QComplex.of(5)},
        {"tuple": (1, (2.5, Fraction(1, 2)), [("a", None, True)]), "empty": ()},
        {"float": delta(z, (1,), 0.5 - 1j) + delta(z, (-2,), 2.0),
         "exact": delta(c3, 1, Fraction(2, 3), exact=True) + delta(c3, 0, QComplex.of(1, -1))},
        {"b": {"a": {"z": [Fraction(7, 2), {"y": 1j}], "x": (delta(z, (0,), 1.0),)}}, "a": -0.0},
        [Fraction(1, 3), (2j, {"k": QComplex.of(0)})],
        Fraction(-5, 7),
        "text",
    ]
    for payload in payloads:
        assert canonical_json(payload) == _mapped_then_encoded(payload), payload
    # json refuses any other object itself; a default that handed it back
    # would turn into a "Circular reference" ValueError, and then the
    # float-range message below.
    for bad in [object(), {"a": [1, {2, 3}]}, {"a": b"x"}]:
        with pytest.raises(TypeError, match="not JSON serializable"):
            canonical_json(bad)
    for bad in [{"a": math.nan}, [1.0, (math.inf,)], {"a": {"b": complex(math.nan, 0)}}]:
        with pytest.raises(UsageError, match="left the float range"):
            canonical_json(bad)
    # A fraction too long to write out keeps its own message.
    with pytest.raises(UsageError, match="too many digits"):
        canonical_json({"a": [Fraction(10**5000 + 1, 3)]})


@pytest.mark.filterwarnings("error")
def test_report_with_a_non_finite_value_is_refused(tmp_path, capsys):
    # |f|_1 = 1e308 is a float, but the Lipschitz constant of 1e308 z^2
    # overflows to inf, which JSON cannot hold, so the command writes
    # neither text nor report; no numpy warning escapes on the way.
    out = tmp_path / "cert.json"
    el = element_json([{"x": [2], "re": 1e308}])
    assert main(["invert", "--input", el, "--report", str(out)]) == 1
    assert _one_error_line(capsys)
    assert not out.exists()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("argv", [["invert"], ["invert", "--method", "fft"],
                                  ["probe", "--moduli", "3"]], ids=["wiener", "fft", "probe"])
def test_an_element_whose_l1_norm_overflows_is_refused(argv, capsys):
    # 1e308 + 1e308 z: each amplitude is a float, |f|_1 is not, and numpy's
    # FFT used to overflow on it with two RuntimeWarnings and exit 3.
    el = element_json([{"x": [k], "re": 1e308} for k in range(2)])
    assert main([argv[0], "--input", el, *argv[1:]]) == 1
    assert _one_error_line(capsys)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("scale, argv", [
    (1e-13, ["probe", "--moduli", "3"]),
    (1e-13, ["invert"]),
    (1e-13, ["invert", "--method", "fft"]),
    (1e-306, ["invert"]),
    (1e-306, ["invert", "--method", "fft"]),
], ids=["probe", "wiener", "fft", "wiener-1e-306", "fft-1e-306"])
def test_a_small_invertible_element_is_invertible(scale, argv, capsys):
    # scale (2 + z) has |symbol| >= scale: at 1e-13 an absolute zero test of
    # 1e-12 once gave probe a witness (exit 2) and invert an aborted FFT
    # (exit 3).  At 1e-306 the inverse is within the float range, and its
    # FFT stays there because it runs on f over a power of two near |f|_1.
    el = element_json([{"x": [0], "re": 2 * scale}, {"x": [1], "re": scale}])
    assert main([argv[0], "--input", el, *argv[1:]]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("argv", [["invert"], ["invert", "--method", "fft"]],
                         ids=["wiener", "fft"])
def test_an_element_whose_fft_inverse_overflows_is_refused(argv, capsys):
    # 5e-324 delta_0 is invertible, and its sample 5e-324 is not zero relative
    # to its norm, but 1 / 5e-324 is past the float range.
    el = element_json([{"x": [0], "re": 5e-324}])
    assert main([argv[0], "--input", el, *argv[1:]]) == 1
    assert _one_error_line(capsys)


# 1 - e^{0.001i} z, whose symbol vanishes at -0.001
NEAR_ROOT = element_json([{"x": [0], "re": 1.0},
                          {"x": [1], "re": -math.cos(0.001), "im": -math.sin(0.001)}])


@pytest.mark.parametrize("argv", [
    ["invert", "--method", "fft", "--input", NEAR_ROOT],
    ["invert", "--input", NEAR_ROOT],
    ["invert", "--method", "neumann", "--input", INVERTIBLE],
    ["certify", "--input", NEAR_ROOT],
    ["df-check", "--f", INVERTIBLE, "--g", INVERTIBLE],
], ids=["fft", "wiener", "neumann", "certify", "df-check"])
@pytest.mark.parametrize("tol", ["10", "1", "-0.5", "nan"])
def test_a_tol_outside_the_unit_interval_exits_one(argv, tol, capsys):
    # --tol 10 once made invert --method fft call NEAR_ROOT invertible.
    assert main([*argv, f"--tol={tol}"]) == 1
    assert _one_error_line(capsys)


def test_table_extension_other_than_error_is_refused(capsys):
    # series-weighted's table-envelope slot: tables are lookup-only, so the
    # weight that certified the non-invertible delta_0 - delta_1 is refused.
    name, weight, terms = workloads.SERIES_DEFECTS[1]
    assert name == "table-envelope"
    el = element_json([{"x": [x], "re": float(c)} for x, c in terms])
    assert main(["invert", "--input", el, "--weight", json.dumps(weight), "--K", "40"]) == 1
    assert _one_error_line(capsys)


@pytest.mark.parametrize("argv", [
    ["probe", "--input", SINGULAR, "--moduli", "2", "--singular-tol", "0.1"],
    ["df-check", "--f", SINGULAR, "--g", SINGULAR, "--slack", "5"],
    ["check-weight", "--weight", '{"kind": "constant", "value": 1}',
     "--group", '{"kind": "Z", "rank": 1}', "--radius", "1", "--rel-tol", "1e-6"],
], ids=["singular-tol", "slack", "rel-tol"])
def test_tolerance_flags_are_gone(argv, capsys):
    # The thresholds are the constants SINGULAR_TOL, DF_SLACK and REL_TOL.
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["error: unrecognized arguments: " + " ".join(argv[-2:])]


def test_usage_errors_exit_one(capsys):
    assert main(["no-such-command"]) == 1
    assert main(["invert"]) == 1  # missing --input
    assert main(["invert", "--input", "{not json"]) == 1
    assert main(["probe", "--input", INVERTIBLE, "--moduli", "2x2"]) == 1  # rank mismatch
    err = capsys.readouterr().err
    assert "error:" in err
    # An empty JSON argument is refused: it is neither the directory "." nor
    # dominate's default rank-one group.
    for argv in (["invert", "--input", ""],
                 ["dominate", "--weight", '{"kind": "constant"}', "--group", "", "--radius", "1"]):
        assert main(argv) == 1
        assert capsys.readouterr().err == (
            "error: a JSON argument is empty; give JSON text or a file path\n")


def test_amplitude_past_the_float_range_in_a_magnitude(capsys):
    # |10^400 + i| has no float; the Neumann pivot search meets it in a norm.
    el = {"group": {"kind": "free", "rank": 1}, "scalars": "exact",
          "terms": [{"x": [], "re": "1"}, {"x": [1], "re": "1" + "0" * 400, "im": "1"}]}
    assert main(["invert", "--input", json.dumps(el)]) == 1
    assert capsys.readouterr().err == "error: an exact amplitude lies beyond the float range\n"


def test_neumann_pivot_ratio_past_the_float_range(capsys):
    # Pivot a on 10^400 + a has ratio 10^400; the pivot search keys it as inf.
    el = {"group": {"kind": "free", "rank": 1}, "scalars": "exact",
          "terms": [{"x": [], "re": "1" + "0" * 400}, {"x": [1], "re": "1"}]}
    assert main(["invert", "--input", json.dumps(el), "--K", "2"]) == 0
    out = capsys.readouterr().out
    assert "pivot = []" in out and "ratio = 0.0" in out
    # At the default K the inverse has terms too long to write: one error line.
    assert main(["invert", "--input", json.dumps(el)]) == 1
    assert _one_error_line(capsys)


def test_neumann_tail_bound_past_the_float_range(tmp_path, capsys):
    # |u^-1| = 10^400 has no float and ratio = 10^-400 underflows to 0.0;
    # the tail bound is their exact product, 10^-1600 / (1 - 10^-400) -> 0.0, not nan.
    el = {"group": {"kind": "Z", "rank": 1}, "scalars": "exact",
          "terms": [{"x": [0], "re": "1/1" + "0" * 400}, {"x": [1], "re": "1/1" + "0" * 800}]}
    out = tmp_path / "cert.json"
    argv = ["invert", "--input", json.dumps(el), "--method", "neumann", "--K", "4"]
    assert main(argv + ["--report", str(out)]) == 0
    capsys.readouterr()
    payload = json.loads(out.read_text())
    assert payload["tail_bound"] == 0.0 and payload["ratio"] == 0.0
    assert payload["residual"] == "1/1" + "0" * 2000
    # ratio = 1 - 10^-20 rounds to the float 1.0; the tail bound, about
    # 10^20, once ended in a ZeroDivisionError traceback.
    el = {"group": {"kind": "Z", "rank": 1}, "scalars": "exact",
          "terms": [{"x": [0], "re": "1"}, {"x": [1], "re": "-99999999999999999999/1" + "0" * 20}]}
    argv = ["invert", "--input", json.dumps(el), "--method", "neumann", "--K", "2"]
    assert main(argv + ["--report", str(out)]) == 3
    capsys.readouterr()
    payload = json.loads(out.read_text())
    assert payload["tail_bound"] == 1e20 and payload["ratio"] == 1.0


@pytest.mark.parametrize("moduli", ["a", "4x", "2..x", "3.5", "x", "1..2..3", "-"])
def test_malformed_moduli_are_usage_errors(capsys, moduli):
    assert main(["probe", "--input", INVERTIBLE, f"--moduli={moduli}"]) == 1
    assert _one_error_line(capsys)


def test_huge_moduli_range_is_refused_at_the_cap(monkeypatch, capsys):
    # Each quotient is under the cap, their sum is not; no symbol may be computed,
    # and a range past the memory of the machine is never expanded.
    def no_symbol(*args):
        raise AssertionError("a quotient symbol was computed past the cap")

    monkeypatch.setattr(galab.invertibility, "symbol_grid", no_symbol)
    for moduli in ("2..1000000", "2..10" + "0" * 30, ",".join(["1000"] * 1100)):
        assert main(["probe", "--input", INVERTIBLE, "--moduli", moduli]) == 1
        assert "exceed cap" in capsys.readouterr().err


@pytest.mark.skipif(getattr(sys, "get_int_max_str_digits", lambda: 0)() == 0,
                    reason="the interpreter writes ints of any length")
def test_exact_value_past_the_digit_limit(tmp_path, capsys):
    # The inverse of 10^3000 + g on C3 has terms of about 9000 digits, more
    # than str() writes under the interpreter's default limit of 4300.
    c3 = {"kind": "cayley", "table": [[0, 1, 2], [1, 2, 0], [2, 0, 1]]}
    big = "1" + "0" * 3000
    out = tmp_path / "cert.json"
    el = {"group": c3, "scalars": "exact", "terms": [{"x": 0, "re": big}, {"x": 1, "re": "1"}]}
    assert main(["invert", "--input", json.dumps(el), "--report", str(out)]) == 1
    assert _one_error_line(capsys)
    assert not out.exists()
    f = {"group": {"kind": "Z", "rank": 1}, "scalars": "exact", "terms": [{"x": [0], "re": big}]}
    assert main(["df-check", "--f", json.dumps(f), "--g", json.dumps(f)]) == 1
    assert _one_error_line(capsys)


def test_one_process_runs_each_command_as_it_runs_alone(tmp_path, capsys):
    # The parser is built once per process; no call may see another's options.
    calls = [["invert", "--input", INVERTIBLE, "--N", "64"],
             ["scenario", "lp", "--N", "40"],
             ["invert", "--input", INVERTIBLE]]
    env = dict(os.environ, PYTHONPATH=str(Path(galab.__file__).parent.parent))
    alone = []
    for i, argv in enumerate(calls):
        report = tmp_path / f"alone{i}.json"
        proc = subprocess.run([sys.executable, "-m", "galab.cli", *argv, "--report", str(report)],
                              capture_output=True, text=True, env=env, timeout=60)
        alone.append((proc.returncode, proc.stdout, report.read_bytes()))
    assert alone[0][1] != alone[2][1]  # --N shows in the certificate
    for i, argv in enumerate(calls):
        report = tmp_path / f"together{i}.json"
        rc = main([*argv, "--report", str(report)])
        assert (rc, capsys.readouterr().out, report.read_bytes()) == alone[i]


def _one_error_line(capsys):
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    return captured.out == "" and len(lines) == 1 and lines[0].startswith("error: ")


# A Latin square with identity 0 that is not associative: a loop, not a group.
LOOP5 = [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3], [3, 2, 4, 0, 1], [4, 3, 1, 2, 0]]


def test_non_associative_table_is_refused(capsys):
    el = {"group": {"kind": "cayley", "table": LOOP5}, "scalars": "exact",
          "terms": [{"x": 0, "re": "2"}, {"x": 1, "re": "1"}]}
    with pytest.raises(UsageError, match="not associative"):
        element_from_json(el)
    assert main(["invert", "--input", json.dumps(el)]) == 1
    assert _one_error_line(capsys)


@pytest.mark.parametrize("name", [5, [1, 2], {"a": 1}, True])
def test_a_cayley_name_that_is_not_a_string_is_refused(name, tmp_path, capsys):
    # Such a name once exited 0 and was copied into the report's group JSON.
    el = {"group": {"kind": "cayley", "table": [[0, 1], [1, 0]], "name": name},
          "scalars": "exact", "terms": [{"x": 0, "re": "2"}, {"x": 1, "re": "1"}]}
    report = tmp_path / "r.json"
    assert main(["invert", "--input", json.dumps(el), "--report", str(report)]) == 1
    assert _one_error_line(capsys)
    assert not report.exists()


@pytest.mark.parametrize(
    "text",
    [
        '{"group": {"kind": "Z"}, "terms": [{"x": [0], "re": 1.0}]}',
        '{"group": {"kind": "free"}, "terms": [{"x": [], "re": 1.0}]}',
    ]
    + [
        '{"group": {"kind": "Z", "rank": 1}, "scalars": "%s", "terms": [{"x": [0], "re": %s}]}'
        % (scalars, amp)
        for scalars in ("exact", "float")
        for amp in ('"abc"', '"nan"', '"inf"', "1e400", "true")
    ]
    + [
        '{"group": {"kind": "Z", "rank": 1}, "terms": 5}',
        '{"group": {"kind": "cayley", "table": [[0, 1], [1, 0]], "identity": "a"},'
        ' "terms": [{"x": 0, "re": 1}]}',
        '{"group": {"kind": "cayley", "table": [[0, 1], [1, 0]], "order": "two"},'
        ' "terms": [{"x": 0, "re": 1}]}',
        # Integers only: a float or bool rank, identity or table entry is not truncated.
        '{"group": {"kind": "Z", "rank": 2.7}, "terms": [{"x": [0, 0], "re": 1.0}]}',
        '{"group": {"kind": "free", "rank": 1.5}, "terms": [{"x": [], "re": 1.0}]}',
        '{"group": {"kind": "Z", "rank": true}, "terms": [{"x": [0], "re": 1.0}]}',
        '{"group": {"kind": "cayley", "table": [[0, 1], [1, 0]], "identity": 0.9},'
        ' "terms": [{"x": 0, "re": 1}]}',
        '{"group": {"kind": "cayley", "table": [[0, 1.9], [1, 0]]}, "terms": [{"x": 0, "re": 1}]}',
        '{"group": {"kind": "cayley", "table": [[0, true], [1, 0]]}, "terms": [{"x": 0, "re": 1}]}',
        # The symbol oracle needs a float image of 10^400, which has none.
        element_json([{"x": [0], "re": "1" + "0" * 400}, {"x": [1], "re": "1"}], scalars="exact"),
        # "scalars" is "exact" or "float"; anything else is not read as either.
        element_json([{"x": [0], "re": 2}], scalars="Exact"),
    ],
)
def test_undecodable_element_is_a_usage_error(capsys, text):
    # 1e400 overflows to inf when the JSON is read
    assert main(["invert", "--input", text]) == 1
    assert _one_error_line(capsys)


# Random element JSON for the decode fuzz test: every field may be missing,
# of the wrong type, or out of range.  Lattice coordinates stay in [-3, 3] and
# the series length is fixed at 8, because wide supports and long series are
# costs of the oracles, not of decoding.
_junk = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(10**20), 10**20),
    st.floats(),
    st.text(max_size=3),
    st.lists(st.integers(-3, 3), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(-3, 3), max_size=2),
)
_small = st.one_of(st.integers(-3, 3), _junk)
_coordinate = st.one_of(
    st.integers(-3, 3), st.none(), st.booleans(), st.floats(), st.text(max_size=2)
)
_C2, _C3 = [[0, 1], [1, 0]], [[0, 1, 2], [1, 2, 0], [2, 0, 1]]
_tables = st.one_of(
    st.sampled_from([[[0]], _C2, _C3, [[0, 1], [0, 1]], LOOP5]),
    st.lists(st.lists(_small, max_size=3), max_size=3),
    _junk,
)
_groups = st.one_of(
    st.sampled_from(
        [{"kind": "Z", "rank": 1}, {"kind": "Z", "rank": 2}, {"kind": "free", "rank": 2}]
    ),
    st.fixed_dictionaries(
        {"kind": st.just("cayley"), "table": st.sampled_from([_C2, _C3])},
        optional={"identity": _small, "order": _small},
    ),
    st.fixed_dictionaries(
        {"kind": st.one_of(st.sampled_from(["Z", "free", "cayley", "torus"]), _junk)},
        optional={
            "rank": st.one_of(st.integers(-2, 3), st.sampled_from([1025, 10**30]), _junk),
            "table": _tables,
            "identity": _small,
            "order": _small,
            "name": _junk,
        },
    ),
    _junk,
)
_amplitudes = st.one_of(
    st.floats(-4, 4), st.integers(-4, 4), st.sampled_from(["1/2", "-3", "abc", "nan", "1/0"]), _junk
)
_terms = st.one_of(
    st.fixed_dictionaries(
        {"x": st.one_of(st.lists(st.integers(-3, 3), min_size=1, max_size=2), st.integers(0, 2)),
         "re": st.floats(-4, 4)}
    ),
    st.fixed_dictionaries(
        {},
        optional={
            "x": st.one_of(st.lists(_coordinate, max_size=3), _small),
            "re": _amplitudes,
            "im": _amplitudes,
        },
    ),
    _junk,
)
_element_fields = {
    "group": _groups,
    "terms": st.one_of(st.lists(_terms, max_size=3), _junk),
    "scalars": st.one_of(st.sampled_from(["exact", "float", "real"]), _junk),
}
_elements = st.one_of(
    st.fixed_dictionaries(
        {k: _element_fields[k] for k in ("group", "terms")},
        optional={"scalars": _element_fields["scalars"]},
    ),
    st.fixed_dictionaries({}, optional=_element_fields),
)


def _assert_verdict_or_one_error_line(capsys, rc, codes=(0, 1, 2, 3)):
    captured = capsys.readouterr()
    assert rc in codes
    assert "Traceback" not in captured.err
    if rc == 1:
        assert len(captured.err.splitlines()) == 1 and captured.err.startswith("error: ")


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_elements)
def test_invert_never_ends_in_a_traceback(capsys, el):
    rc = main(["invert", "--input", json.dumps(el), "--K", "8"])
    _assert_verdict_or_one_error_line(capsys, rc)


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_elements)
def test_certify_never_ends_in_a_traceback(capsys, el):
    rc = main(["certify", "--input", json.dumps(el)])
    _assert_verdict_or_one_error_line(capsys, rc)


@pytest.mark.parametrize("argv, message", [
    (["probe", "--input", INVERTIBLE, "--moduli=--"], "error: bad moduli token '--'\n"),
    (["invert", "--input", INVERTIBLE, "--K=--"],
     "error: argument --K: invalid int value: '--'\n"),
    (["check-weight", "--weight=--", "--group", "{}", "--radius", "1"], None),
])
def test_option_value_double_dash_is_the_value(capsys, argv, message):
    # argparse strips "--" from "--opt=--" and leaves the option an empty list.
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err and len(err.splitlines()) == 1
    assert err == message if message else err.startswith("error: ")


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.one_of(st.sampled_from([INVERTIBLE, SINGULAR]), _elements.map(json.dumps)),
       st.text(alphabet="0123456789.,x-", max_size=12))
def test_probe_never_ends_in_a_traceback(capsys, el, moduli):
    rc = main(["probe", "--input", el, f"--moduli={moduli}"])
    _assert_verdict_or_one_error_line(capsys, rc, codes=(0, 1, 2))


def test_z3_element_certifies_at_the_default_size(capsys):
    # The default inverse size on Z^3 is 32 (2^15 points); this inverse
    # misses the tolerance there and certifies after one doubling, at 64.
    el = element_json([{"x": [0, 0, 0], "re": 2.0}, {"x": [1, 0, 0], "re": 0.5}], rank=3)
    assert main(["invert", "--input", el]) == 0
    assert "inverse_size = 64" in capsys.readouterr().out
    assert main(["invert", "--input", el, "--N", "512"]) == 1  # an explicit size is kept
    assert "exceeds cap" in capsys.readouterr().err


@pytest.mark.parametrize(
    "weight",
    [
        '{"kind": "exp_symmetric", "base": "abc"}',
        '{"kind": "polynomial", "beta": null}',
        '{"kind": "constant", "value": NaN}',
        '{"kind": "exp_symmetric", "base": 1e400}',
        '{"kind": "polynomial", "beta": true}',
        '{"kind": "exp_directional", "coefficients": 5}',
        '{"kind": "exp_directional", "coefficients": [1, "x"]}',
        '{"kind": "exp_directional", "coefficients": [1], "rectified": "no"}',
        '{"kind": "table", "entries": 5}',
        '{"kind": "table", "entries": [[[0], 1.0, 2.0]]}',
        '{"kind": "table", "entries": [[{"a": 1}, 1.0]]}',
        '{"kind": "table", "entries": [[[0], "heavy"]]}',
        '{"kind": "table", "entries": [[[0], 1], [[0], 2]]}',  # a repeated element
        '{"kind": "table", "ball_radius": "one", "values": [1, 2, 3]}',
        '{"kind": "table", "ball_radius": 1, "values": 3}',
        '{"kind": "quotient", "weight": {"kind": "constant"}, "character": {"c": "x"}}',
        '{"kind": "quotient", "weight": {"kind": "constant"}, "character": [1]}',
        '{"kind": "product", "factors": 5}',
        '{"kind": "exp_directional", "coefficients": [1000.0]}',  # e^1000 is out of range
        '{"kind": "constant", "value": 1%s}' % ("0" * 400),  # an int past the float range
        '{"kind": "constant", "value": 1%s}' % ("0" * 5000),  # past the JSON digit limit
        '{"kind": "polynomial", "beta": 1000000000000}',  # 2 ** 10**12, refused uncomputed
        '{"kind": "quotient", "weight": {"kind": "constant"}, "character": {"c": [-746.0]}}',
        '{"kind": "product", "factors": [{"kind": "exp_symmetric", "base": 1e200},'
        ' {"kind": "exp_symmetric", "base": 1e200}]}',
    ],
)
def test_undecodable_weight_is_a_usage_error(capsys, weight):
    assert main(["invert", "--input", INVERTIBLE, "--weight", weight, "--K", "8"]) == 1
    assert _one_error_line(capsys)


@pytest.mark.parametrize("rank, radius", [(1, 10**20), (2, 10**6), (1, 10**6), (1, 10**5)])
def test_huge_free_ball_radius_is_refused(capsys, rank, radius):
    # The count stops at the cap; on rank one the long words count for
    # their letters, so a ball of 2 * 10**5 + 1 words is refused too.
    el = json.dumps({"group": {"kind": "free", "rank": rank}, "terms": [{"x": [], "re": 2.0}]})
    weight = json.dumps({"kind": "table", "ball_radius": radius, "values": [1]})
    assert main(["invert", "--input", el, "--weight", weight]) == 1
    assert _one_error_line(capsys)


# Random weight JSON for the decode fuzz test, applied to small valid elements.
# Junk is a single branch of each choice, so that some weights still reach the
# series oracle.  Large ints reach both sides of the float range, where an
# exact power must be refused before it is computed.
_bad = st.sampled_from(
    [None, True, "", "x", [], ["a", 1], {}, {"c": 1}, -7, 0.0, float("nan"), float("inf")]
)
_param = st.one_of(
    st.integers(1, 3), st.floats(1, 4), st.integers(-3, 3), st.floats(),
    st.integers(-(2**1100), 2**1100), st.sampled_from([10**9, 10**12, 2**1023, 2**1024]), _bad,
)
_kinds = ["constant", "exp_symmetric", "polynomial", "exp_directional", "table", "quotient",
          "product"]
_extension = {"extension": st.one_of(st.sampled_from(["error", "envelope"]), _bad)}
_table_point = st.one_of(st.lists(st.integers(-1, 1), min_size=1, max_size=2), _bad)
_weight_leaf = st.one_of(
    st.fixed_dictionaries({"kind": st.just("constant"), "value": _param}),
    st.fixed_dictionaries({"kind": st.just("exp_symmetric"), "base": _param}),
    st.fixed_dictionaries({"kind": st.just("polynomial"), "beta": _param}),
    st.fixed_dictionaries(
        {"kind": st.just("exp_directional"),
         "coefficients": st.one_of(st.lists(_param, min_size=1, max_size=2), _bad)},
        optional={"rectified": st.one_of(st.booleans(), _bad)},
    ),
    st.fixed_dictionaries(
        {"kind": st.just("table"),
         "entries": st.one_of(
             st.lists(st.one_of(st.tuples(_table_point, _param).map(list), _bad), max_size=3),
             _bad)},
        optional=_extension,
    ),
    st.fixed_dictionaries(
        {"kind": st.just("table"),
         "ball_radius": st.one_of(st.integers(-1, 2), st.just(10**20), _bad),
         "values": st.one_of(st.lists(_param, max_size=5), _bad)},
        optional=_extension,
    ),
    st.fixed_dictionaries({"kind": st.one_of(st.sampled_from(_kinds), _bad)}),
    _bad,
)
_weights = st.recursive(
    _weight_leaf,
    lambda inner: st.one_of(
        st.fixed_dictionaries(
            {"kind": st.just("quotient"), "weight": inner,
             "character": st.one_of(
                 st.fixed_dictionaries({"c": st.one_of(st.lists(_param, max_size=2), _bad)}),
                 _bad)},
        ),
        st.fixed_dictionaries(
            {"kind": st.just("product"),
             "factors": st.one_of(st.lists(inner, min_size=1, max_size=3), _bad)},
        ),
    ),
    max_leaves=4,
)
_weighted_inputs = st.sampled_from([
    INVERTIBLE,
    element_json([{"x": [0, 0], "re": 3.0}, {"x": [1, -1], "re": 0.5}], rank=2),
    json.dumps({"group": {"kind": "free", "rank": 2},
                "terms": [{"x": [], "re": 3.0}, {"x": [1, -2], "re": 0.5}]}),
    json.dumps({"group": {"kind": "cayley", "table": _C3}, "scalars": "exact",
                "terms": [{"x": 0, "re": "2"}, {"x": 1, "re": "1/3"}]}),
])


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_weighted_inputs, _weights)
def test_invert_with_random_weight_never_ends_in_a_traceback(capsys, el, weight):
    rc = main(["invert", "--input", el, "--weight", json.dumps(weight), "--K", "8"])
    _assert_verdict_or_one_error_line(capsys, rc)


# Fuzz of the remaining commands.  Radii stay <= 3 and --N <= 64, so no example
# starts heavy work; --r text includes ratios that name no rational or whose
# powers leave the float range.  Each input also has a valid branch, so that
# some examples get past decoding.
_ELEMENT_Z2 = element_json([{"x": [0, 0], "re": "3"}, {"x": [1, -1], "re": "1/2"}],
                           rank=2, scalars="exact")
_element_texts = st.one_of(st.sampled_from([INVERTIBLE, SINGULAR]), _elements.map(json.dumps))
_element_pairs = st.one_of(
    st.tuples(st.sampled_from([INVERTIBLE, SINGULAR]), st.sampled_from([INVERTIBLE, SINGULAR])),
    st.tuples(st.just(_ELEMENT_Z2), st.sampled_from([_ELEMENT_Z2, INVERTIBLE])),
    st.tuples(_element_texts, _element_texts),
)
_weight_texts = st.one_of(
    st.sampled_from([
        {"kind": "constant", "value": 1},
        {"kind": "exp_symmetric", "base": 2},
        {"kind": "exp_symmetric", "base": 0.5},
        {"kind": "polynomial", "beta": 1.5},
        {"kind": "exp_directional", "coefficients": [0.5, -1.0]},
        {"kind": "table", "entries": [[[0], 1.0], [[1], 0.1]], "extension": "envelope"},
    ]),
    _weights,
).map(json.dumps)
_group_texts = st.one_of(
    st.sampled_from([{"kind": "Z", "rank": 1}, {"kind": "Z", "rank": 2},
                     {"kind": "free", "rank": 2}, {"kind": "cayley", "table": _C3}]),
    _groups,
).map(json.dumps)
_radius_texts = st.one_of(st.integers(1, 3).map(str), st.sampled_from(["0", "-1", "", "x", "1e3"]))
_ratio_texts = st.one_of(
    st.sampled_from(["abc", "1/0", "nan", "inf", "1e-400", "1e-104", "0", "1"]),
    st.fractions(Fraction(1, 10**6), Fraction(10**6 - 1, 10**6), max_denominator=10**6).map(str),
    st.floats(1e-300, 0.999).map(repr),
    st.text(alphabet="0123456789./e-", max_size=8),
)
_scenario_argvs = st.one_of(
    st.builds(lambda n: ["scenario", "lp", f"--N={n}"], st.integers(-2, 64)),
    st.builds(lambda r, n, degree: ["scenario", "torus", f"--r={r}", f"--N={n}",
                                    f"--degree={degree}"],
              _ratio_texts, st.integers(-2, 64), st.integers(-2, 64)),
)


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_element_pairs, st.one_of(st.none(), _weight_texts))
def test_df_check_never_ends_in_a_traceback(capsys, pair, weight):
    argv = ["df-check", "--f", pair[0], "--g", pair[1]]
    rc = main(argv + ([] if weight is None else ["--weight", weight]))
    _assert_verdict_or_one_error_line(capsys, rc, codes=(0, 1, 2))


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_weight_texts, _group_texts, _radius_texts)
def test_check_weight_never_ends_in_a_traceback(capsys, weight, group, radius):
    rc = main(["check-weight", "--weight", weight, "--group", group, f"--radius={radius}"])
    _assert_verdict_or_one_error_line(capsys, rc, codes=(0, 1, 2))


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_weight_texts, st.one_of(st.none(), _group_texts), _radius_texts)
def test_dominate_never_ends_in_a_traceback(capsys, weight, group, radius):
    argv = ["dominate", "--weight", weight, f"--radius={radius}"]
    rc = main(argv + ([] if group is None else ["--group", group]))
    _assert_verdict_or_one_error_line(capsys, rc, codes=(0, 1, 2))


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_scenario_argvs)
def test_scenario_never_ends_in_a_traceback(capsys, argv):
    # A scenario exits 1 on a failed reproduction too; none of these inputs fails one.
    _assert_verdict_or_one_error_line(capsys, main(argv), codes=(0, 1))
