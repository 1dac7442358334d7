"""Invertibility oracles and machine-checkable certificates.

Every oracle returns an InvertibilityCertificate with one of three verdicts:
"invertible", "not-invertible", "inconclusive".  A certificate claiming
invertibility always carries a concrete inverse candidate together with a
freshly computed convolution residual; no verdict is ever emitted on the
strength of intermediate numerics alone.

Oracles:
  invert_finite        exact (or float) solve on a finite Cayley group
  wiener_certify       grid-plus-Lipschitz lower bound for lattice symbols,
                       with companion-matrix root witnesses in rank one
  invert_via_fft       sampled-symbol division inverse candidate
  neumann_invert       geometric series around a dominant pivot, any group,
                       weighted norms supported
  probe_quotients      finite cyclic quotients as non-invertibility probes
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

import numpy as np

from .algebra import (
    AlgebraElement,
    QComplex,
    convolve,
    delta,
    element_to_json,
    identity_element,
)
from .errors import ContractViolationError, ResourceLimitError, UsageError
from .groups import CayleyGroup, LatticeGroup
from .operators import symbol_grid
from .weights import ConstantWeight, Weight

VERDICT_INVERTIBLE = "invertible"
VERDICT_NOT_INVERTIBLE = "not-invertible"
VERDICT_INCONCLUSIVE = "inconclusive"

# Work limits and numerical thresholds of the oracles.
FINITE_ORDER_CAP = 256      # largest group order invert_finite solves on
SINGULAR_REL = 1e-12        # float solve: relative singular-value rank threshold
GRID_CAP = 2**22            # symbol grid points in invert_via_fft and wiener_certify
ZERO_TOL = 1e-12            # invert_via_fft: a smaller |symbol| sample aborts
CHOP_REL = 1e-13            # invert_via_fft: coefficients below this share of the peak drop
CIRCLE_TOL = 1e-9           # wiener_certify: root distance to the unit circle for a witness
MAX_INVERSE_SIZE = 4096     # wiener_certify: largest FFT inverse grid tried
QUOTIENT_CAP = 2**20        # probe_quotients: points of one quotient


def _num(v):
    if isinstance(v, Fraction):
        return str(v)
    return v


@dataclass
class InvertibilityCertificate:
    verdict: str
    kind: str
    fields: dict = field(default_factory=dict)
    inverse: AlgebraElement | None = None
    residual: object = None

    @property
    def invertible(self) -> bool:
        return self.verdict == VERDICT_INVERTIBLE

    @property
    def exit_code(self) -> int:
        return {VERDICT_INVERTIBLE: 0, VERDICT_NOT_INVERTIBLE: 2}.get(self.verdict, 3)

    def to_json(self) -> dict:
        out = {"verdict": self.verdict, "kind": self.kind}
        for k, v in self.fields.items():
            out[k] = _num(v)
        out["inverse"] = element_to_json(self.inverse) if self.inverse is not None else None
        out["residual"] = _num(self.residual)
        return out


@dataclass
class DirectFinitenessReport:
    left_residual: object
    right_residual: object
    passed: bool
    tol: float
    slack: float

    def to_json(self):
        return {
            "left_residual": _num(self.left_residual),
            "right_residual": _num(self.right_residual),
            "pass": self.passed,
            "tol": self.tol,
            "slack": self.slack,
        }


def verify_direct_finiteness(f: AlgebraElement, g: AlgebraElement,
                             weight: Weight | None = None, *,
                             tol: float = 1e-10, slack: float = 10.0) -> DirectFinitenessReport:
    """Check that a left inverse is also a right inverse.

    Computes both residuals |g*f - e| and |f*g - e| in the (weighted) l1
    norm.  The report passes when the left residual being below tol forces
    the right residual below slack*tol; a pair that is not even a left
    inverse passes vacuously.
    """
    e = identity_element(f.group, exact=f.exact and g.exact)
    left = (convolve(g, f) - e).norm(weight)
    right = (convolve(f, g) - e).norm(weight)
    passed = (left > tol) or (right <= slack * tol)
    return DirectFinitenessReport(
        left_residual=left, right_residual=right, passed=passed, tol=tol, slack=slack
    )


# ---------------------------------------------------------------------------
# exact linear algebra over QComplex


def _qc(v=0) -> QComplex:
    return QComplex(Fraction(v))


def _solve_exact(rows: list, rhs: list):
    """Gauss-Jordan elimination over exact rational complex scalars.

    rows is a square matrix as a list of lists.  Returns ("solution", x)
    with rows @ x = rhs, or ("singular", v) with a nonzero kernel vector v.
    """
    n = len(rows)
    aug = [list(rows[i]) + [rhs[i]] for i in range(n)]
    piv_cols: list[int] = []
    r = 0
    for c in range(n):
        pr = next((i for i in range(r, n) if not aug[i][c].is_zero), None)
        if pr is None:
            continue
        aug[r], aug[pr] = aug[pr], aug[r]
        inv_pv = _qc(1) / aug[r][c]
        aug[r] = [v * inv_pv for v in aug[r]]
        for i in range(n):
            if i != r and not aug[i][c].is_zero:
                factor = aug[i][c]
                row_r = aug[r]
                aug[i] = [vi - factor * vr for vi, vr in zip(aug[i], row_r)]
        piv_cols.append(c)
        r += 1
        if r == n:
            break
    if r < n:
        pivots = set(piv_cols)
        free_c = next(c for c in range(n) if c not in pivots)
        v = [_qc(0)] * n
        v[free_c] = _qc(1)
        for row_i, pc in enumerate(piv_cols):
            v[pc] = -aug[row_i][free_c]
        return "singular", v
    x = [_qc(0)] * n
    for row_i, pc in enumerate(piv_cols):
        x[pc] = aug[row_i][n]
    return "solution", x


# ---------------------------------------------------------------------------
# finite groups


def _solve_float(rows: list, rhs: list):
    """Float counterpart of _solve_exact with the same return contract.

    One SVD gives both the rank test (smallest singular value at most
    SINGULAR_REL of the largest) and, when it fails, the kernel vector.
    """
    mat = np.array(rows, dtype=complex)
    _, svals, vh = np.linalg.svd(mat)
    if svals[-1] <= SINGULAR_REL * svals[0]:
        return "singular", vh[-1].conj()
    return "solution", np.linalg.solve(mat, np.array(rhs, dtype=complex))


def invert_finite(f: AlgebraElement, *, tol: float = 1e-10) -> InvertibilityCertificate:
    """Solve g*f = e on a finite Cayley group and verify both residuals.

    Exact elements go through fraction elimination, so success means both
    residuals are exactly zero; a singular system yields a not-invertible
    certificate carrying an exact kernel witness with witness*f = 0.  Float
    elements are solved by numpy and called invertible when both residuals
    are at most tol.
    """
    group = f.group
    if not isinstance(group, CayleyGroup):
        raise UsageError("invert_finite needs an element of a finite Cayley group")
    n = group.order
    if n > FINITE_ORDER_CAP:
        raise ResourceLimitError(f"group order {n} exceeds cap {FINITE_ORDER_CAP}")
    exact = f.exact
    zero, one = (_qc(0), _qc(1)) if exact else (0j, 1 + 0j)
    # Residual norms stay exact Fractions in exact mode.
    real = Fraction if exact else float

    rows = [[zero] * n for _ in range(n)]
    for u in range(n):
        for y, amp in f.items():
            rows[group.mul(u, y)][u] += amp
    rhs = [one if z == group.identity else zero for z in range(n)]
    status, vec = (_solve_exact if exact else _solve_float)(rows, rhs)
    fields = {"order": n, "scalars": "exact" if exact else "float"}

    if status == "singular":
        witness = AlgebraElement(group, dict(enumerate(vec)), exact)
        kernel_residual = real(convolve(witness, f).norm())
        if exact and kernel_residual != 0:
            raise ContractViolationError("exact kernel witness failed to annihilate")
        fields.update(kernel=element_to_json(witness), kernel_residual=kernel_residual)
        return InvertibilityCertificate(
            verdict=VERDICT_NOT_INVERTIBLE, kind="exact-finite", fields=fields
        )

    g = AlgebraElement(group, dict(enumerate(vec)), exact)
    e = identity_element(group, exact=exact)
    left = real((convolve(g, f) - e).norm())
    right = real((convolve(f, g) - e).norm())
    fields.update(left_residual=left, right_residual=right)
    residual = max(left, right)
    return InvertibilityCertificate(
        verdict=VERDICT_INVERTIBLE if residual <= tol else VERDICT_INCONCLUSIVE,
        kind="exact-finite",
        fields=fields,
        inverse=g,
        residual=residual,
    )


# ---------------------------------------------------------------------------
# lattice symbols


def _lattice_only(f: AlgebraElement, who: str) -> LatticeGroup:
    if not isinstance(f.group, LatticeGroup):
        raise UsageError(f"{who} needs a lattice element")
    return f.group


def _signed_index(m: int, size: int) -> int:
    return m - size if m >= (size + 1) // 2 else m


def invert_via_fft(f: AlgebraElement, size: int = 512, *,
                   tol: float = 1e-10) -> InvertibilityCertificate:
    """Inverse candidate from sampled-symbol division on a 2^k grid.

    Samples the symbol on the uniform grid, divides 1 by it, transforms
    back, and keeps the coefficients on the centered fundamental domain
    (amplitudes below CHOP_REL of the peak are dropped as FFT dust).  The
    candidate is only as good as its verified residual: aliasing from slow
    coefficient decay shows up there, and a near-vanishing sample aborts
    with the offending frequency instead of an inverse.
    """
    group = _lattice_only(f, "invert_via_fft")
    d = group.rank
    if size < 2 or size & (size - 1):
        raise UsageError(f"grid size must be a power of two >= 2, got {size}")
    if size**d > GRID_CAP:
        raise ResourceLimitError(f"grid of {size**d} points exceeds cap {GRID_CAP}")
    ff = f.to_float()
    vals = symbol_grid(ff, (size,) * d)
    mods = np.abs(vals)
    flat_arg = int(np.argmin(mods))
    kmin = np.unravel_index(flat_arg, mods.shape)
    vmin = float(mods[kmin])
    if vmin < ZERO_TOL:
        return InvertibilityCertificate(
            verdict=VERDICT_INCONCLUSIVE,
            kind="fft-candidate",
            fields={
                "size": size,
                "flagged_frequency": [int(k) for k in kmin],
                "flagged_angle": [2 * math.pi * int(k) / size for k in kmin],
                "flagged_value": vmin,
                "reason": "symbol sample within zero tolerance; suspected non-invertible",
            },
        )
    coeff = np.fft.fftn(1.0 / vals) / size**d
    peak = float(np.max(np.abs(coeff)))
    chop = CHOP_REL * peak
    terms = {}
    for m in np.ndindex(coeff.shape):
        v = coeff[m]
        if abs(v) > chop:
            terms[tuple(_signed_index(int(mi), size) for mi in m)] = complex(v)
    g = AlgebraElement(group, terms, False)
    e = identity_element(group)
    residual = float((convolve(g, ff) - e).norm())
    verdict = VERDICT_INVERTIBLE if residual <= tol else VERDICT_INCONCLUSIVE
    fields = {"size": size, "chop": CHOP_REL, "grid_min": vmin}
    if verdict == VERDICT_INCONCLUSIVE:
        fields["reason"] = "candidate residual above tolerance; increase the grid"
    return InvertibilityCertificate(
        verdict=verdict, kind="fft-candidate", fields=fields,
        inverse=g, residual=residual,
    )


def _laurent_roots(f: AlgebraElement) -> np.ndarray:
    """Roots of the rank-one symbol polynomial via the companion matrix."""
    degs = sorted(n[0] for n, _ in f.items())
    lo, hi = degs[0], degs[-1]
    if hi == lo:
        return np.array([], dtype=complex)
    coeff = np.zeros(hi - lo + 1, dtype=complex)
    for n, amp in f.items():
        coeff[n[0] - lo] = complex(amp)
    return np.roots(coeff[::-1])


def wiener_certify(f: AlgebraElement, grid: int = 64, *, tol: float = 1e-10,
                   inverse_size: int = 512) -> InvertibilityCertificate:
    """Certify a lattice element through its symbol.

    A uniform grid scan of |symbol| combined with the Lipschitz bound
    L = sum |n|_1 |f(n)| proves a positive lower bound on the whole torus
    whenever margin = grid_min - L * spacing / 2 is positive; the verdict
    then comes with an FFT inverse and its verified residual.  In rank one
    a companion-matrix root within CIRCLE_TOL of the unit circle certifies
    non-invertibility with the offending angle as witness.  Anything else
    is inconclusive and the diagnostics say how close the call was.
    """
    group = _lattice_only(f, "wiener_certify")
    d = group.rank
    if grid < 2:
        raise UsageError(f"grid must have at least 2 points per axis, got {grid}")
    if grid**d > GRID_CAP:
        raise ResourceLimitError(f"grid of {grid**d} points exceeds cap {GRID_CAP}")
    if f.is_zero:
        return InvertibilityCertificate(
            verdict=VERDICT_NOT_INVERTIBLE,
            kind="wiener-grid",
            fields={"grid": grid, "grid_min": 0.0, "lipschitz": 0.0, "margin": 0.0,
                    "witness_angle": [0.0] * d, "witness_value": 0.0},
        )
    ff = f.to_float()
    vals = symbol_grid(ff, (grid,) * d)
    mods = np.abs(vals)
    kmin = np.unravel_index(int(np.argmin(mods)), mods.shape)
    grid_min = float(mods[kmin])
    lipschitz = float(sum(group.word_length(n) * abs(amp) for n, amp in ff.items()))
    spacing = 2 * math.pi / grid
    margin = grid_min - lipschitz * (spacing / 2)
    base_fields = {
        "grid": grid,
        "grid_min": grid_min,
        "lipschitz": lipschitz,
        "spacing": spacing,
        "margin": margin,
    }

    roots = _laurent_roots(ff) if d == 1 else np.array([], dtype=complex)
    dists = np.abs(np.abs(roots) - 1.0) if roots.size else np.array([])

    if margin > 0:
        size = inverse_size
        while size <= MAX_INVERSE_SIZE:
            candidate = invert_via_fft(ff, size, tol=tol)
            if candidate.invertible:
                fields = dict(base_fields)
                fields["inverse_size"] = size
                return InvertibilityCertificate(
                    verdict=VERDICT_INVERTIBLE,
                    kind="wiener-grid",
                    fields=fields,
                    inverse=candidate.inverse,
                    residual=candidate.residual,
                )
            size *= 2
        fields = dict(base_fields)
        fields["reason"] = (
            "margin is positive but no inverse met the tolerance up to the size cap"
        )
        return InvertibilityCertificate(
            verdict=VERDICT_INCONCLUSIVE, kind="wiener-grid", fields=fields
        )

    if d == 1 and roots.size and float(np.min(dists)) <= CIRCLE_TOL:
        z = complex(roots[int(np.argmin(dists))])
        angle = cmath.phase(z)
        witness_value = abs(
            sum(complex(amp) * cmath.exp(1j * angle * n[0]) for n, amp in ff.items())
        )
        fields = dict(base_fields)
        fields.update(
            {
                "witness_angle": angle,
                "witness_value": witness_value,
                "root": {"re": z.real, "im": z.imag},
                "circle_tol": CIRCLE_TOL,
            }
        )
        return InvertibilityCertificate(
            verdict=VERDICT_NOT_INVERTIBLE, kind="wiener-grid", fields=fields
        )

    fields = dict(base_fields)
    if dists.size:
        fields["closest_root_distance"] = float(np.min(dists))
    fields["reason"] = "margin not positive and no unit-circle root witness"
    return InvertibilityCertificate(
        verdict=VERDICT_INCONCLUSIVE, kind="wiener-grid", fields=fields
    )


# ---------------------------------------------------------------------------
# Neumann series (any group, weighted)


def neumann_invert(f: AlgebraElement, weight: Weight | None = None, *,
                   pivot=None, terms: int = 40,
                   tol: float = 1e-10) -> InvertibilityCertificate:
    """Geometric-series inverse around a dominant support point.

    Write f = u + rest with u the pivot term.  When the weighted norm of
    r = e - u^-1 * f is below one, the truncated series
    (e + r + ... + r^terms) * u^-1 approximates the inverse with tail bound
    |u^-1| * ratio^(terms+1) / (1 - ratio); both residuals are verified.
    The default pivot minimizes the ratio over the support.
    """
    if f.is_zero:
        raise UsageError("cannot invert the zero element")
    if terms < 0:
        raise UsageError(f"terms must be >= 0, got {terms}")
    w = weight if weight is not None else ConstantWeight(1)
    group = f.group
    e = identity_element(group, exact=f.exact)

    def series_data(a):
        amp = f.amplitude(a)
        one = QComplex(Fraction(1)) if f.exact else 1.0
        u_inv = delta(group, group.inv(a), one / amp, exact=f.exact)
        r = e - convolve(u_inv, f)
        return u_inv, r, r.norm(w)

    if pivot is None:
        best = None
        for a in f.support:
            u_inv, r, ratio = series_data(a)
            key = (float(ratio), group.sort_key(a))
            if best is None or key < best[0]:
                best = (key, a, u_inv, r, ratio)
        _, pivot, u_inv, r, ratio = best
    else:
        group.validate(pivot)
        if f.amplitude(pivot) == (QComplex(Fraction(0)) if f.exact else 0):
            raise UsageError(f"pivot {pivot!r} is not in the support")
        u_inv, r, ratio = series_data(pivot)

    fields = {
        "pivot": group.element_to_json(pivot),
        "ratio": float(ratio),
        "terms": terms,
        "scalars": "exact" if f.exact else "float",
    }
    if ratio >= 1:
        fields["reason"] = "series ratio is >= 1 at the chosen pivot"
        return InvertibilityCertificate(
            verdict=VERDICT_INCONCLUSIVE, kind="neumann-series", fields=fields
        )

    partial = e
    for _ in range(terms):
        partial = e + convolve(r, partial)
    g = convolve(partial, u_inv)
    ratio_f = float(ratio)
    tail = float(u_inv.norm(w)) * ratio_f ** (terms + 1) / (1 - ratio_f)
    left = (convolve(g, f) - e).norm(w)
    right = (convolve(f, g) - e).norm(w)
    fields["tail_bound"] = tail
    fields["left_residual"] = float(left)
    fields["right_residual"] = float(right)
    residual = max(left, right)
    if float(residual) <= tol:
        verdict = VERDICT_INVERTIBLE
    else:
        verdict = VERDICT_INCONCLUSIVE
        fields["reason"] = "series converges but the truncation is above tolerance"
    return InvertibilityCertificate(
        verdict=verdict, kind="neumann-series", fields=fields,
        inverse=g, residual=residual,
    )


# ---------------------------------------------------------------------------
# finite quotients as probes


@dataclass
class QuotientProbe:
    moduli: tuple
    nonsingular: bool
    min_modulus: float
    frequency: tuple
    angles: tuple

    def to_json(self):
        return {
            "moduli": list(self.moduli),
            "nonsingular": self.nonsingular,
            "min_modulus": self.min_modulus,
            "frequency": list(self.frequency),
            "angle": list(self.angles),
        }


@dataclass
class ProbeReport:
    probes: list
    singular_tol: float

    @property
    def any_singular(self) -> bool:
        return any(not p.nonsingular for p in self.probes)

    def to_json(self):
        return {
            "singular_tol": self.singular_tol,
            "any_singular": self.any_singular,
            "results": [p.to_json() for p in self.probes],
        }

    def to_certificate(self) -> InvertibilityCertificate | None:
        """A not-invertible certificate from the first singular quotient."""
        for p in self.probes:
            if not p.nonsingular:
                return InvertibilityCertificate(
                    verdict=VERDICT_NOT_INVERTIBLE,
                    kind="quotient-witness",
                    fields={
                        "moduli": list(p.moduli),
                        "frequency": list(p.frequency),
                        "angle": list(p.angles),
                        "value": p.min_modulus,
                    },
                )
        return None


def probe_quotients(f: AlgebraElement, moduli_list: Sequence, *,
                    singular_tol: float = 1e-12) -> ProbeReport:
    """Test the pushforward of f for singularity on cyclic quotients.

    A singular quotient certifies non-invertibility (the quotient symbol
    vanishes at an exact rational frequency); nonsingular quotients are
    evidence only.  Scalars broadcast across the rank, so 4 on a rank-2
    lattice means the quotient by (4Z)^2.
    """
    group = _lattice_only(f, "probe_quotients")
    d = group.rank
    probes = []
    for entry in moduli_list:
        if isinstance(entry, int):
            mods = (entry,) * d
        else:
            mods = tuple(int(m) for m in entry)
        if len(mods) != d or any(m < 1 for m in mods):
            raise UsageError(f"bad moduli entry {entry!r} for rank {d}")
        count = 1
        for m in mods:
            count *= m
        if count > QUOTIENT_CAP:
            raise ResourceLimitError(f"quotient of {count} points exceeds cap {QUOTIENT_CAP}")
        vals = symbol_grid(f.to_float(), mods)
        mags = np.abs(vals)
        kmin = np.unravel_index(int(np.argmin(mags)), mags.shape)
        vmin = float(mags[kmin])
        probes.append(
            QuotientProbe(
                moduli=mods,
                nonsingular=vmin > singular_tol,
                min_modulus=vmin,
                frequency=tuple(int(k) for k in kmin),
                angles=tuple(2 * math.pi * int(k) / m for k, m in zip(kmin, mods)),
            )
        )
    return ProbeReport(probes=probes, singular_tol=singular_tol)


# ---------------------------------------------------------------------------
# method dispatch


def auto_invert(f: AlgebraElement, weight: Weight | None = None, *,
                method: str = "auto", grid: int = 64, size: int = 512,
                terms: int = 40, pivot=None,
                tol: float = 1e-10) -> InvertibilityCertificate:
    """Pick an oracle by group kind (or run the requested one)."""
    if method == "auto":
        if weight is not None:
            method = "neumann"
        elif isinstance(f.group, CayleyGroup):
            method = "finite"
        elif isinstance(f.group, LatticeGroup):
            method = "wiener"
        else:
            method = "neumann"
    if method == "finite":
        if weight is not None:
            raise UsageError("the exact finite solve is unweighted; use the series method")
        return invert_finite(f, tol=tol)
    if method == "wiener":
        if weight is not None:
            raise UsageError("the symbol oracle certifies the unweighted algebra only")
        return wiener_certify(f, grid, tol=tol, inverse_size=size)
    if method == "fft":
        if weight is not None:
            raise UsageError("the symbol oracle certifies the unweighted algebra only")
        return invert_via_fft(f, size, tol=tol)
    if method == "neumann":
        return neumann_invert(f, weight, pivot=pivot, terms=terms, tol=tol)
    raise UsageError(f"unknown method {method!r}")
