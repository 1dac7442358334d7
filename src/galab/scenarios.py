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

from .algebra import AlgebraElement, _fraction, convolve, delta, to_jsonable
from .errors import ResourceLimitError, UsageError
from .groups import LatticeGroup, _integer
from .invertibility import VERDICT_NOT_INVERTIBLE, wiener_certify

# Work limits, checked before anything is allocated.
LP_RADIUS_CAP = 10**5   # scenario_lp: largest window radius
TORUS_FREQ_CAP = 2**13  # scenario_torus: largest max_freq
TORUS_BITS_CAP = 2**28  # scenario_torus: bits of all exact r^|n|, |n| <= max_freq


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
    radius = _integer(radius, "radius")
    if radius < 1:
        raise UsageError(f"radius must be >= 1, got {radius}")
    if radius > LP_RADIUS_CAP:
        raise ResourceLimitError(f"radius {radius} exceeds cap {LP_RADIUS_CAP}")
    group = LatticeGroup(1)
    f = delta(group, (0,), 1, exact=True) - delta(group, (1,), 1, exact=True)

    # The action (rho_f g)(x) = sum_y g(x+y) f(y) is (g * f~)(x) with
    # f~(y) = f(-y) = d0 - d-1; g = 1 on the input window [-N, N+1].
    ones = AlgebraElement.from_numerators(
        group, {(x,): 1 for x in range(-radius, radius + 2)}, 1, False)
    acted = convolve(ones, AlgebraElement.from_numerators(group, {(0,): 1, (-1,): -1}, 1, False))
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
    confirmed = (
        const_residual == 0
        and forced_gap == 1
        and homogeneous_gap == 0
        and certificate.verdict == VERDICT_NOT_INVERTIBLE
    )
    return ScenarioReport(
        scenario="lp",
        parameters={"radius": radius},
        findings=findings,
        verdict="confirmed" if confirmed else "failed",
    )


def _quotient(a: int, b: int, c: int, d: int):
    """(a/b) / (c/d) exactly, for fractions in lowest terms with b, d > 0.

    Fractions in lowest terms are equal exactly when their parts are, so an
    equal pair gives the int 1 with no gcd taken; any other gives a Fraction.
    """
    return 1 if a == c and b == d else Fraction(a * d, b * c)


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
    sum grows without bound: no summable solution exists.  A solution
    coefficient p_hat(n) / r^|n| past the float range is refused.
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
    if max_freq > TORUS_FREQ_CAP:
        raise ResourceLimitError(f"max_freq {max_freq} exceeds cap {TORUS_FREQ_CAP}")
    # r^|n| has |n| times the bits of r, so the table below holds about this many.
    bits = max_freq * (max_freq + 1) * (r.numerator.bit_length() + r.denominator.bit_length())
    if bits > TORUS_BITS_CAP:
        raise ResourceLimitError(f"r^|n| for |n| <= {max_freq}: {bits} bits, cap {TORUS_BITS_CAP}")
    degree = min(degree, max_freq)

    # f_hat(n) = r^|n| = p^|n| / q^|n|, in lowest terms since gcd(p, q) = 1.
    p, q = r.numerator, r.denominator
    p_pow, q_pow = [1], [1]
    for _ in range(max_freq):
        p_pow.append(p_pow[-1] * p)
        q_pow.append(q_pow[-1] * q)

    if target is None:
        phat = {
            n: complex(0.0, -2.0 / (math.pi * n))
            for n in range(-degree, degree + 1)
            if n % 2
        }
    else:
        phat = {_integer(n, "target frequency"): complex(v) for n, v in target.items() if v != 0}
        if any(abs(n) > max_freq for n in phat):
            raise UsageError("target coefficients must have frequency <= max_freq")
    # Int true division rounds p^k / q^k correctly, as float(Fraction) does.
    fhat = {n: p_pow[abs(n)] / q_pow[abs(n)] for n in phat}
    # r^|n| may underflow to 0.0, or be so small that the quotient overflows.
    hhat = {n: phat[n] / fhat[n] for n in phat if fhat[n]}
    if len(hhat) < len(phat) or not all(map(cmath.isfinite, hhat.values())):
        raise UsageError("a solution coefficient p_hat(n) / r^|n| leaves the float range")
    reconstruction = sum(abs(fhat[n] * hhat[n] - phat[n]) for n in phat)
    solution_degree = max(abs(n) for n in hhat) if hhat else 0
    solution_peak = max(abs(v) for v in hhat.values()) if hhat else 0.0

    # f_hat(n) / f_hat(n) at k = |n|; the l1 mass over n counts each k > 0 twice.
    forced = [_quotient(a, b, a, b) for a, b in zip(p_pow, q_pow)]
    all_ones = all(v == 1 for v in forced)
    tail_band_max = max(map(abs, forced[max_freq // 2:]))
    forced_mass = abs(forced[0]) + 2 * sum(map(abs, forced[1:]))

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
