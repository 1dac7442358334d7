from fractions import Fraction

import pytest

from galab.algebra import canonical_json
from galab.errors import UsageError
from galab.scenarios import scenario_lp, scenario_torus


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


def test_torus_accepts_explicit_target():
    fx = findings_of(scenario_torus("1/2", 16, 4, target={3: 1.0}))
    assert fx["solution-peak"] == pytest.approx(8.0)
    assert fx["reconstruction-residual"] <= 1e-15


def test_torus_zero_target_has_zero_preimage():
    fx = findings_of(scenario_torus("1/2", 16, 4, target={}))
    assert fx["solution-peak"] == 0.0
    assert fx["solution-degree"] == 0
    assert fx["reconstruction-residual"] == 0


def test_torus_parameter_validation():
    with pytest.raises(UsageError):
        scenario_torus("1")
    with pytest.raises(UsageError):
        scenario_torus("-1/2")
    with pytest.raises(UsageError):
        scenario_torus("1/2", 3)
    with pytest.raises(UsageError):
        scenario_torus("1/2", 8, target={99: 1.0})


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
