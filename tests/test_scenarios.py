import cmath
import math
import sys
import tracemalloc
from fractions import Fraction

import pytest

from galab.algebra import AlgebraElement, canonical_json, convolve, delta
from galab.cli import main
from galab.errors import ResourceLimitError, UsageError
from galab.groups import LatticeGroup
from galab.invertibility import VERDICT_NOT_INVERTIBLE, wiener_certify
from galab.scenarios import TORUS_BITS_CAP, ScenarioReport, scenario_lp, scenario_torus


def findings_of(report):
    return dict(report.findings)


def test_lp_confirms_at_small_and_medium_radius():
    for radius in (1, 10, 100):
        report = scenario_lp(radius)
        fx = findings_of(report)
        assert report.verdict == "confirmed"
        assert fx["constant-action-residual"] == 0
        assert fx["forced-endpoint-gap"] == 1
        assert isinstance(fx["forced-endpoint-gap"], Fraction)
        assert fx["homogeneous-endpoint-gap"] == 0
        assert fx["symbol-verdict"] == "not-invertible"


def test_lp_gap_is_exact_at_large_radius():
    fx = findings_of(scenario_lp(10**4))
    assert fx["forced-endpoint-gap"] == 1


def test_lp_rejects_degenerate_radius():
    with pytest.raises(UsageError):
        scenario_lp(0)


def test_lp_report_is_deterministic():
    a = canonical_json(scenario_lp(25).to_json())
    b = canonical_json(scenario_lp(25).to_json())
    assert a == b


def test_torus_default_reproduction():
    report = scenario_torus("1/2", 1024, 20)
    fx = findings_of(report)
    assert report.verdict == "confirmed"
    assert fx["reconstruction-residual"] <= 1e-12
    assert fx["forced-all-ones"] is True
    assert fx["tail-band-max"] == 1
    assert fx["non-decay"] is True
    assert fx["forced-l1-mass"] == 2 * 1024 + 1
    assert fx["solution-degree"] == 19  # square wave has odd harmonics only


def test_torus_solution_grows_like_inverse_coefficients():
    fx = findings_of(scenario_torus("1/2", 64, 20))
    # the degree-19 harmonic gets amplified by 2^19
    assert fx["solution-peak"] == pytest.approx((2 / (19 * 3.141592653589793)) * 2**19)


def test_torus_parameter_validation():
    with pytest.raises(UsageError):
        scenario_torus("1")
    with pytest.raises(UsageError):
        scenario_torus("-1/2")
    with pytest.raises(UsageError):
        scenario_torus("1/2", 3)


def test_torus_report_is_deterministic():
    a = canonical_json(scenario_torus("1/3", 128, 10).to_json())
    b = canonical_json(scenario_torus("1/3", 128, 10).to_json())
    assert a == b


def test_torus_non_decay_holds_across_ratios():
    for ratio in ("1/10", "9/10", "0.5"):
        fx = findings_of(scenario_torus(ratio, 32, 5))
        assert fx["tail-band-max"] == 1
        assert fx["non-decay"] is True


def test_report_text_mentions_verdict_and_findings():
    text = scenario_lp(5).text()
    assert "verdict: confirmed" in text
    assert "forced-endpoint-gap = 1" in text
    assert "radius = 5" in text


def _one_error_line(capsys):
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    return captured.out == "" and len(lines) == 1 and lines[0].startswith("error: ")


@pytest.mark.parametrize("ratio", ["abc", "1/0", "nan", "inf"])
def test_torus_ratio_that_names_no_rational_is_a_usage_error(capsys, ratio):
    with pytest.raises(UsageError):
        scenario_torus(ratio, 16)
    assert main(["scenario", "torus", f"--r={ratio}", "--N", "16"]) == 1
    assert _one_error_line(capsys)


@pytest.mark.parametrize(
    "ratio, max_freq, degree",
    [
        ("1e-400", 64, 20),     # r itself underflows to 0.0
        ("1/2", 2048, 1100),    # 2^-1099 underflows to 0.0
        ("1e-104", 64, 3),      # 10^-312 is subnormal: 0.2 / 10^-312 overflows
    ],
)
def test_torus_solution_past_the_float_range_is_refused(capsys, ratio, max_freq, degree):
    with pytest.raises(UsageError, match="leaves the float range"):
        scenario_torus(ratio, max_freq, degree)
    argv = ["scenario", "torus", "--r", ratio, "--N", str(max_freq), "--degree", str(degree)]
    assert main(argv) == 1
    assert _one_error_line(capsys)


@pytest.mark.parametrize("which", ["lp", "torus"])
def test_scenario_size_too_long_for_int_is_a_usage_error(capsys, which):
    digits = "9" * (sys.get_int_max_str_digits() + 1)
    assert main(["scenario", which, "--N", digits]) == 1
    assert _one_error_line(capsys)


def test_torus_bits_of_the_exact_powers_are_capped(capsys):
    # 64 * 65 * 70002 bits exceed the cap, though 64 is a small degree.
    assert 64 * 65 * 70002 > TORUS_BITS_CAP
    ratio = Fraction(1, 2**70000)
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimitError):
            scenario_torus(ratio, 64, 64)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # The powers up to r^64 would take about 18 MB; the refusal comes first.
    assert peak < 10**6
    # --r 1e-400 at the defaults needs only the powers up to r^20, and r
    # itself underflows to 0.0.
    assert main(["scenario", "torus", "--r", "1e-400"]) == 1
    assert _one_error_line(capsys)


def _peak(call):
    call()  # warm caches, so the traced call allocates only its own work
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_torus_memory_does_not_grow_with_max_freq():
    # The same degree-8 solve (degree is clipped to max_freq), out to 8192 and to 8.
    assert _peak(lambda: scenario_torus("1/2", 8192, 8)) <= _peak(
        lambda: scenario_torus("1/2", 8, 8))


def test_torus_at_a_trillion_frequencies_is_confirmed_in_constant_memory():
    report = scenario_torus("1/2", 10**12, 8)
    assert report.verdict == "confirmed"
    assert dict(report.findings)["forced-l1-mass"] == 2 * 10**12 + 1
    assert _peak(lambda: scenario_torus("1/2", 10**12, 8)) <= _peak(
        lambda: scenario_torus("1/2", 8, 8))


def test_lp_makes_no_convolution_at_any_radius(monkeypatch):
    calls = []

    def spy(h, f):
        calls.append((h, f))
        return convolve(h, f)

    # Every galab module that holds convolve, so a call from any of them is seen.
    for name, module in list(sys.modules.items()):
        if name.startswith("galab") and getattr(module, "convolve", None) is convolve:
            monkeypatch.setattr(module, "convolve", spy)
    report = scenario_lp(10**12)
    assert calls == []
    assert report.verdict == "confirmed"
    assert dict(report.findings) == dict(scenario_lp(100).findings)


def test_lp_memory_does_not_grow_with_radius():
    # Over a process's first calls the traced peak falls by a few bytes a
    # call, as the interpreter's free lists fill, so the reference comes first.
    one = _peak(lambda: scenario_lp(1))
    assert _peak(lambda: scenario_lp(10**12)) <= one


def lp_reference(radius):
    """scenario_lp computed on its window: the constant 1 on [-N, N+1]
    convolved with f~ = d0 - d-1 and read on |x| <= N, and both forward
    substitutions run over [-N, N]."""
    group = LatticeGroup(1)
    f = delta(group, (0,), 1, exact=True) - delta(group, (1,), 1, exact=True)
    ones = AlgebraElement(group, {(x,): 1 for x in range(-radius, radius + 2)}, True)
    reflected = AlgebraElement(group, {(0,): 1, (-1,): -1}, True)
    acted = convolve(ones, reflected)
    const_residual = max((abs(v) for (x,), v in acted.items() if abs(x) <= radius),
                         default=Fraction(0))
    a = {-radius: 0}
    for x in range(-radius, radius):
        a[x + 1] = a[x] - (1 if x == 0 else 0)
    forced_gap = Fraction(a[-radius] - a[radius])
    b = {-radius: 1}
    for x in range(-radius, radius):
        b[x + 1] = b[x]
    homogeneous_gap = Fraction(b[-radius] - b[radius])
    certificate = wiener_certify(f.to_float())
    findings = [
        ("constant-action-residual", const_residual),
        ("forced-endpoint-gap", forced_gap),
        ("homogeneous-endpoint-gap", homogeneous_gap),
        ("symbol-verdict", certificate.verdict),
        ("witness-angle", certificate.fields.get("witness_angle")),
    ]
    confirmed = (const_residual == 0 and forced_gap == 1 and homogeneous_gap == 0
                 and certificate.verdict == VERDICT_NOT_INVERTIBLE)
    return ScenarioReport(
        scenario="lp",
        parameters={"radius": radius},
        findings=findings,
        verdict="confirmed" if confirmed else "failed",
    )


@pytest.mark.parametrize("radius", [1, 2, 7, 100, 1000])
def test_lp_matches_the_window_reference(radius):
    got = scenario_lp(radius)
    want = lp_reference(radius)
    assert canonical_json(got.to_json()) == canonical_json(want.to_json())
    assert got.text() == want.text()


def torus_reference(ratio, max_freq, degree):
    """scenario_torus written on Fractions: r^|n| for every n, and each
    forced coefficient fhat[n] / fhat[n] a normalized Fraction."""
    r = Fraction(ratio)
    degree = min(degree, max_freq)
    fhat = {n: r ** abs(n) for n in range(-max_freq, max_freq + 1)}
    phat = {n: complex(0.0, -2.0 / (math.pi * n)) for n in range(-degree, degree + 1) if n % 2}
    hhat = {n: phat[n] / float(fhat[n]) for n in phat}
    assert all(map(cmath.isfinite, hhat.values()))
    reconstruction = sum(abs(float(fhat[n]) * hhat[n] - phat[n]) for n in phat)
    forced = {n: fhat[n] / fhat[n] for n in fhat}
    all_ones = all(v == 1 for v in forced.values())
    tail_band_max = max(abs(forced[n]) for n in forced if abs(n) >= max_freq // 2)
    findings = [
        ("target-degree", degree),
        ("solution-degree", max(abs(n) for n in hhat) if hhat else 0),
        ("solution-peak", max(abs(v) for v in hhat.values()) if hhat else 0.0),
        ("reconstruction-residual", reconstruction),
        ("forced-all-ones", all_ones),
        ("tail-band-max", tail_band_max),
        ("forced-l1-mass", sum(abs(v) for v in forced.values())),
        ("non-decay", tail_band_max >= 1),
    ]
    confirmed = all_ones and tail_band_max == 1 and reconstruction <= 1e-12
    return ScenarioReport(
        scenario="torus",
        parameters={"ratio": str(r), "max_freq": max_freq, "degree": degree},
        findings=findings,
        verdict="confirmed" if confirmed else "failed",
    )


@pytest.mark.parametrize("ratio", ["1/2", "2/3", "999/1000", "0.25"])
@pytest.mark.parametrize("max_freq", [4, 64, 1024])
@pytest.mark.parametrize("degree", [20, 1, 3, 5])
def test_torus_matches_the_fraction_reference(ratio, max_freq, degree):
    got = scenario_torus(ratio, max_freq, degree)
    want = torus_reference(ratio, max_freq, degree)
    assert canonical_json(got.to_json()) == canonical_json(want.to_json())
    assert got.text() == want.text()
