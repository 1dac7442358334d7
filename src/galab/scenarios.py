"""Reproducible counterexample scenarios with deterministic reports.

Each scenario pins down a classical gap between pointwise/spectral data and
algebra invertibility, using exact arithmetic wherever the conclusion rests
on a quantity being *exactly* zero or one.  Reports encode through
algebra.to_jsonable, so repeated runs give byte-identical canonical JSON.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .algebra import delta, to_jsonable
from .errors import UsageError
from .groups import LatticeGroup
from .invertibility import wiener_certify
from .operators import apply_convolution_action


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

    The filter d0 - d1 annihilates constants (exactly, checked on a window
    of the given radius), so it cannot be inverted on bounded sequences.
    On summable sequences it has no kernel -- its symbol vanishes only at
    angle zero -- but solving (d0 - d1) * a = d0 by forward substitution
    forces the endpoint gap a(-N) - a(N) = 1 for every solution, since the
    homogeneous recursion carries gap 0.  No solution can therefore decay
    at both ends, and the symbol oracle confirms the unit-circle witness.
    """
    if radius < 1:
        raise UsageError(f"radius must be >= 1, got {radius}")
    group = LatticeGroup(1)
    f = delta(group, (0,), 1, exact=True) - delta(group, (1,), 1, exact=True)
    window = group.ball(radius)

    ones = {(x,): 1 for x in range(-radius, radius + 2)}
    acted = apply_convolution_action(f, ones, window)
    const_residual = max(abs(v) for v in acted.values())

    a = {-radius: Fraction(0)}
    for x in range(-radius, radius):
        a[x + 1] = a[x] - (1 if x == 0 else 0)
    forced_gap = a[-radius] - a[radius]

    b = {-radius: Fraction(1)}
    for x in range(-radius, radius):
        b[x + 1] = b[x]
    homogeneous_gap = b[-radius] - b[radius]

    certificate = wiener_certify(f.to_float())

    findings = [
        ("constant-action-residual", const_residual),
        ("forced-endpoint-gap", forced_gap),
        ("homogeneous-endpoint-gap", homogeneous_gap),
        ("symbol-verdict", certificate.verdict),
        ("witness-angle", certificate.fields.get("witness_angle")),
    ]
    confirmed = (
        const_residual == 0
        and forced_gap == 1
        and homogeneous_gap == 0
        and certificate.verdict == "not-invertible"
    )
    return ScenarioReport(
        scenario="lp",
        parameters={"radius": radius},
        findings=findings,
        verdict="confirmed" if confirmed else "failed",
    )


def scenario_torus(ratio="1/2", max_freq: int = 1024, degree: int = 20,
                   target=None) -> ScenarioReport:
    """Smoothing convolution on the circle: dense range without surjectivity.

    The kernel with coefficients r^|n| (0 < r < 1) solves f * h = p for
    every trigonometric polynomial p -- by default a square-wave truncation
    of the given degree, or any explicit coefficient table passed as
    target -- with the residual of the reconvolution verified.  But
    solving f * h = f itself forces every coefficient of h to equal
    f_hat(n)/f_hat(n) = 1 exactly (checked in rational arithmetic out to
    max_freq), so the forced coefficients do not decay and their absolute
    sum grows without bound: no summable solution exists.
    """
    r = Fraction(ratio)
    if not 0 < r < 1:
        raise UsageError(f"ratio must lie strictly between 0 and 1, got {ratio}")
    if max_freq < 4:
        raise UsageError(f"max_freq must be >= 4, got {max_freq}")
    if degree < 1:
        raise UsageError(f"degree must be >= 1, got {degree}")
    degree = min(degree, max_freq)

    fhat = {n: r ** abs(n) for n in range(-max_freq, max_freq + 1)}

    if target is None:
        phat = {
            n: complex(0.0, -2.0 / (math.pi * n))
            for n in range(-degree, degree + 1)
            if n % 2
        }
    else:
        phat = {int(n): complex(v) for n, v in target.items() if v != 0}
        if any(abs(n) > max_freq for n in phat):
            raise UsageError("target coefficients must have frequency <= max_freq")
    hhat = {n: phat[n] / float(fhat[n]) for n in phat}
    reconstruction = sum(abs(float(fhat[n]) * hhat[n] - phat[n]) for n in phat)
    solution_degree = max(abs(n) for n in hhat) if hhat else 0
    solution_peak = max(abs(v) for v in hhat.values()) if hhat else 0.0

    forced = {n: fhat[n] / fhat[n] for n in fhat}
    all_ones = all(v == 1 for v in forced.values())
    tail = [abs(forced[n]) for n in forced if abs(n) >= max_freq // 2]
    tail_band_max = max(tail)
    forced_mass = sum(abs(v) for v in forced.values())

    findings = [
        ("target-degree", degree),
        ("solution-degree", solution_degree),
        ("solution-peak", solution_peak),
        ("reconstruction-residual", reconstruction),
        ("forced-all-ones", all_ones),
        ("tail-band-max", tail_band_max),
        ("forced-l1-mass", forced_mass),
        ("non-decay", tail_band_max >= 1),
    ]
    confirmed = all_ones and tail_band_max == 1 and reconstruction <= 1e-12
    return ScenarioReport(
        scenario="torus",
        parameters={"ratio": str(r), "max_freq": max_freq, "degree": degree},
        findings=findings,
        verdict="confirmed" if confirmed else "failed",
    )
