"""Reproducible counterexample scenarios with deterministic reports.

Each scenario pins down a classical gap between pointwise/spectral data and
algebra invertibility, using exact arithmetic wherever the conclusion rests
on a quantity being *exactly* zero or one.  Reports encode through
algebra.to_jsonable, so repeated runs give byte-identical canonical JSON.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction

from .algebra import _fraction, delta, to_jsonable
from .errors import ResourceLimitError, UsageError
from .groups import LatticeGroup, _integer
from .invertibility import VERDICT_NOT_INVERTIBLE, wiener_certify

# Work limit, checked before anything is allocated.
TORUS_BITS_CAP = 2**28  # scenario_torus: bits of the exact r^|n|, |n| <= degree


@dataclass
class ScenarioReport:
    scenario: str
    parameters: dict
    findings: list
    verdict: str

    def to_json(self) -> dict:
        # Exact findings that are integers print as JSON ints, not fraction strings.
        findings = [
            {"name": name,
             "value": int(value) if isinstance(value, Fraction) and value.denominator == 1
             else value}
            for name, value in self.findings
        ]
        return to_jsonable({
            "scenario": self.scenario,
            "parameters": self.parameters,
            "findings": findings,
            "verdict": self.verdict,
        })

    def text(self) -> str:
        payload = self.to_json()
        lines = [f"scenario: {self.scenario}"]
        for key, value in sorted(payload["parameters"].items()):
            lines.append(f"  {key} = {value}")
        lines.append("findings:")
        for finding in payload["findings"]:
            lines.append(f"  {finding['name']} = {finding['value']}")
        lines.append(f"verdict: {self.verdict}")
        return "\n".join(lines)


def scenario_lp(radius: int = 64) -> ScenarioReport:
    """The forward difference filter: injective on summable sequences, yet
    not invertible.

    The action (rho_f g)(x) = sum_y g(x+y) f(y) sends the constant 1 to the
    constant sum_y f(y), which is exactly 0 for f = d0 - d1: the filter
    annihilates constants, so it cannot be inverted on bounded sequences.
    On summable sequences it has no kernel -- its symbol vanishes only at
    angle zero -- but solving (d0 - d1) * a = d0 by forward substitution,
    a(x+1) = a(x) - d0(x), telescopes: a(-N) - a(N) is the total of the
    forcing d0 on [-N, N), which is 1 for every radius N >= 1, while the
    homogeneous recursion carries gap 0.  No solution can therefore decay
    at both ends, and the symbol oracle confirms the unit-circle witness.
    None of these findings depends on N, so no work grows with the radius.
    """
    radius = _integer(radius, "radius")
    if radius < 1:
        raise UsageError(f"radius must be >= 1, got {radius}")
    group = LatticeGroup(1)
    f = delta(group, (0,), 1, exact=True) - delta(group, (1,), 1, exact=True)

    den, nums = f.numerators()
    const_residual = abs(Fraction(sum(nums.values()), den))
    certificate = wiener_certify(f.to_float())

    findings = [
        ("constant-action-residual", const_residual),
        ("forced-endpoint-gap", Fraction(1)),  # d0's total on [-N, N)
        ("homogeneous-endpoint-gap", Fraction(0)),
        ("symbol-verdict", certificate.verdict),
        ("witness-angle", certificate.fields.get("witness_angle")),
    ]
    confirmed = const_residual == 0 and certificate.verdict == VERDICT_NOT_INVERTIBLE
    return ScenarioReport(
        scenario="lp",
        parameters={"radius": radius},
        findings=findings,
        verdict="confirmed" if confirmed else "failed",
    )


def scenario_torus(ratio="1/2", max_freq: int = 1024, degree: int = 20) -> ScenarioReport:
    """Smoothing convolution on the circle: dense range without surjectivity.

    The kernel with coefficients f_hat(n) = r^|n| (0 < r < 1) solves
    f * h = p for every trigonometric polynomial p -- here a square-wave
    truncation of the given degree -- with the residual of the
    reconvolution verified.  But solving f * h = f itself forces every
    coefficient of h to equal f_hat(n)/f_hat(n), which is exactly 1 since
    r^|n| is never 0.  So out to max_freq the forced coefficients are all
    ones, they do not decay, and their absolute sum 2*max_freq + 1 grows
    without bound: no summable solution exists.  A solution coefficient
    p_hat(n) / r^|n| past the float range is refused.
    """
    r = _fraction(ratio)
    if not 0 < r < 1:
        raise UsageError(f"ratio must lie strictly between 0 and 1, got {ratio}")
    max_freq = _integer(max_freq, "max_freq")
    degree = _integer(degree, "degree")
    if max_freq < 4:
        raise UsageError(f"max_freq must be >= 4, got {max_freq}")
    if degree < 1:
        raise UsageError(f"degree must be >= 1, got {degree}")
    degree = min(degree, max_freq)
    # r^|n| has |n| times the bits of r; this bounds the powers built below.
    bits = degree * (degree + 1) * (r.numerator.bit_length() + r.denominator.bit_length())
    if bits > TORUS_BITS_CAP:
        raise ResourceLimitError(f"r^|n| for |n| <= {degree}: {bits} bits, cap {TORUS_BITS_CAP}")

    phat = {n: complex(0.0, -2.0 / (math.pi * n)) for n in range(-degree, degree + 1) if n % 2}
    # f_hat(n) = p^|n| / q^|n|; int true division rounds it correctly, as
    # float(Fraction) does.
    p, q = r.numerator, r.denominator
    fhat = {n: p ** abs(n) / q ** abs(n) for n in phat}
    # r^|n| may underflow to 0.0, or be so small that the quotient overflows.
    hhat = {n: phat[n] / fhat[n] for n in phat if fhat[n]}
    if len(hhat) < len(phat) or not all(map(cmath.isfinite, hhat.values())):
        raise UsageError("a solution coefficient p_hat(n) / r^|n| leaves the float range")
    reconstruction = sum(abs(fhat[n] * hhat[n] - phat[n]) for n in phat)

    findings = [
        ("target-degree", degree),
        ("solution-degree", max(map(abs, hhat))),
        ("solution-peak", max(map(abs, hhat.values()))),
        ("reconstruction-residual", reconstruction),
        # r^|n| is never 0, so each forced f_hat(n)/f_hat(n), |n| <= max_freq, is 1.
        ("forced-all-ones", True),
        ("tail-band-max", 1),
        ("forced-l1-mass", 2 * max_freq + 1),
        ("non-decay", True),
    ]
    confirmed = reconstruction <= 1e-12
    return ScenarioReport(
        scenario="torus",
        parameters={"ratio": str(r), "max_freq": max_freq, "degree": degree},
        findings=findings,
        verdict="confirmed" if confirmed else "failed",
    )
