"""Invertibility oracles and machine-checkable certificates.

Every oracle returns an InvertibilityCertificate with one of three verdicts:
"invertible", "not-invertible", "inconclusive".  A certificate claiming
invertibility always carries a concrete inverse candidate together with a
freshly computed convolution residual; no verdict is ever emitted on the
strength of intermediate numerics alone.

Oracles:
  invert_finite        exact solve on a finite Cayley group, by fraction-free
                       elimination over Z or Z[i] (float elements: numpy)
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
from typing import Iterable

import numpy as np

from .algebra import (
    AlgebraElement,
    QComplex,
    clear_denominators,
    convolve,
    delta,
    element_to_json,
    identity_element,
    to_jsonable,
)
from .errors import ContractViolationError, ResourceLimitError, UsageError
from .groups import CayleyGroup, LatticeGroup
from .operators import fourier_eval, symbol_grid
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
DEFAULT_INVERSE_SIZE = 512  # FFT inverse grid per axis when none is given, within GRID_CAP
QUOTIENT_CAP = 2**20        # probe_quotients: points of all quotients of one call


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
        return to_jsonable({"verdict": self.verdict, "kind": self.kind, **self.fields,
                            "inverse": self.inverse, "residual": self.residual})


@dataclass
class DirectFinitenessReport:
    left_residual: object
    right_residual: object
    passed: bool
    tol: float
    slack: float

    def to_json(self):
        return to_jsonable({
            "left_residual": self.left_residual,
            "right_residual": self.right_residual,
            "pass": self.passed,
            "tol": self.tol,
            "slack": self.slack,
        })


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
# exact linear algebra: fraction-free elimination over Z or Z[i]
#
# A Gaussian integer is an (re, im) pair of ints.  Rows are cleared of
# denominators by algebra.clear_denominators; each ring then supplies two
# steps: combine two rows, and divide one entry by a pivot back into a
# QComplex.


def _qc(v=0) -> QComplex:
    return QComplex(Fraction(v))


def _integer_combine(p, f, d, xs, ys) -> list:
    """(p*x - f*y) / d entrywise over Z; every division is exact."""
    if not f:
        return [p * x // d for x in xs]
    return [(p * x - f * y) // d for x, y in zip(xs, ys)]


def _gaussian_combine(p, f, d, xs, ys) -> list:
    """(p*x - f*y) / d entrywise over Z[i]; every division is exact.

    Dividing by d is multiplying by its conjugate and dividing by its
    norm, so p and f are multiplied by the conjugate once, up front.
    """
    (pr, pi), (fr, fi), (qr, qi) = p, f, d
    norm = qr * qr + qi * qi
    ar, ai = pr * qr + pi * qi, pi * qr - pr * qi
    if not (fr or fi):
        return [((ar * xr - ai * xi) // norm, (ar * xi + ai * xr) // norm) for xr, xi in xs]
    br, bi = fr * qr + fi * qi, fi * qr - fr * qi
    return [((ar * xr - ai * xi - br * yr + bi * yi) // norm,
             (ar * xi + ai * xr - br * yi - bi * yr) // norm)
            for (xr, xi), (yr, yi) in zip(xs, ys)]


def _integer_quotient(a, d) -> QComplex:
    return QComplex(Fraction(a, d))


def _gaussian_quotient(a, d) -> QComplex:
    (ar, ai), (dr, di) = a, d
    norm = dr * dr + di * di
    return QComplex(Fraction(ar * dr + ai * di, norm), Fraction(ai * dr - ar * di, norm))


def _solve_exact(rows: list, rhs: list):
    """Fraction-free Gauss-Jordan (Bareiss) elimination over Z or Z[i].

    rows is a square matrix of QComplex as a list of lists.  Each augmented
    row is scaled by the LCM of its denominators; the elimination then runs
    on ints, or on Gaussian integers when any imaginary part is nonzero.
    The step with pivot p replaces every other row r by (p*r - r[c]*pivot
    row) / previous pivot, an exact division (Bareiss 1968), so after the
    last step each pivot row reads final pivot times its reduced-row-echelon
    row.  A row with r[c] == 0 would only be multiplied by p / previous
    pivot, so it is left as it is: each row keeps the pivot it was last
    brought to (its scale), and its next combination divides by that scale
    instead, which is still exact.  The group-algebra matrices are sparse,
    so most rows skip most steps.  Returns ("solution", x) with rows @ x =
    rhs, or ("singular", v) with v the reduced-row-echelon kernel vector of
    the first free column.
    """
    n = len(rows)
    aug = [list(row) + [b] for row, b in zip(rows, rhs)]
    # Each row times the LCM of its denominators, as Gaussian-int pairs.
    mat = [clear_denominators(row)[1] for row in aug]
    if any(im for row in mat for _, im in row):
        zero, prev, combine, quotient = (0, 0), (1, 0), _gaussian_combine, _gaussian_quotient
    else:
        mat = [[re for re, _ in row] for row in mat]
        zero, prev, combine, quotient = 0, 1, _integer_combine, _integer_quotient
    # Row i of the eliminated matrix is mat[i] * prev / scale[i].
    scale = [prev] * n
    for c in range(n):
        # Columns 0..c-1 all have pivots, so the pivot of column c goes to row c.
        pr = next((i for i in range(c, n) if mat[i][c] != zero), None)
        if pr is None:
            # Later steps would only scale column c of rows 0..c-1, so it
            # already holds the first free column of the echelon form.
            kernel = [-quotient(mat[i][c], scale[i]) for i in range(c)]
            return "singular", kernel + [_qc(1)] + [_qc(0)] * (n - c - 1)
        mat[c], mat[pr] = mat[pr], mat[c]
        scale[c], scale[pr] = scale[pr], scale[c]
        pivot_row = mat[c]
        if scale[c] != prev:
            pivot_row[c:] = combine(prev, zero, scale[c], pivot_row[c:], ())
        p = pivot_row[c]
        tail = pivot_row[c + 1:]
        for i in range(n):
            row = mat[i]
            if i != c and row[c] != zero:
                # Columns before c+1 are not read again; only the tail is kept current.
                row[c + 1:] = combine(p, row[c], scale[i], row[c + 1:], tail)
                scale[i] = p
        scale[c] = prev = p
    return "solution", [quotient(row[n], s) for row, s in zip(mat, scale)]


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

    Exact elements go through fraction-free elimination over Z or Z[i]
    (_solve_exact), so success means both residuals are exactly zero; a
    singular system yields a not-invertible certificate carrying an exact
    kernel witness with witness*f = 0.  Both outcomes are checked again by
    exact convolution, whatever the solver did.  These certificates have
    kind "exact-finite".  Float elements are solved by numpy, called
    invertible when both residuals are at most tol, and have kind
    "float-finite".
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
            # Row u of the table is a permutation, so each entry is set once.
            rows[group.mul(u, y)][u] = amp
    rhs = [one if z == group.identity else zero for z in range(n)]
    status, vec = (_solve_exact if exact else _solve_float)(rows, rhs)
    kind = "exact-finite" if exact else "float-finite"
    fields = {"order": n, "scalars": "exact" if exact else "float"}

    if status == "singular":
        witness = AlgebraElement(group, dict(enumerate(vec)), exact)
        kernel_residual = real(convolve(witness, f).norm())
        if exact and kernel_residual != 0:
            raise ContractViolationError("exact kernel witness failed to annihilate")
        fields.update(kernel=element_to_json(witness), kernel_residual=kernel_residual)
        return InvertibilityCertificate(
            verdict=VERDICT_NOT_INVERTIBLE, kind=kind, fields=fields
        )

    g = AlgebraElement(group, dict(enumerate(vec)), exact)
    e = identity_element(group, exact=exact)
    left = real((convolve(g, f) - e).norm())
    right = real((convolve(f, g) - e).norm())
    fields.update(left_residual=left, right_residual=right)
    residual = max(left, right)
    return InvertibilityCertificate(
        verdict=VERDICT_INVERTIBLE if residual <= tol else VERDICT_INCONCLUSIVE,
        kind=kind,
        fields=fields,
        inverse=g,
        residual=residual,
    )


# ---------------------------------------------------------------------------
# lattice symbols


def _grid_min(vals: np.ndarray) -> tuple:
    """(k, |vals[k]|) at the first minimum of |vals| in C order; k is a tuple of ints."""
    mags = np.abs(vals)
    k = np.unravel_index(int(np.argmin(mags)), mags.shape)
    return tuple(int(i) for i in k), float(mags[k])


def _lattice_only(f: AlgebraElement, who: str) -> LatticeGroup:
    if not isinstance(f.group, LatticeGroup):
        raise UsageError(f"{who} needs a lattice element")
    return f.group


def _default_inverse_size(d: int) -> int:
    """Largest power of two <= DEFAULT_INVERSE_SIZE whose d-th power is within GRID_CAP."""
    size = DEFAULT_INVERSE_SIZE
    while size > 2 and size**d > GRID_CAP:
        size //= 2
    return size


def invert_via_fft(f: AlgebraElement, size: int | None = None, *,
                   tol: float = 1e-10) -> InvertibilityCertificate:
    """Inverse candidate from sampled-symbol division on a 2^k grid.

    Samples the symbol on the uniform grid, divides 1 by it, transforms
    back, and keeps the coefficients on the centered fundamental domain
    (amplitudes below CHOP_REL of the peak are dropped as FFT dust).  The
    candidate is only as good as its verified residual: aliasing from slow
    coefficient decay shows up there, and a near-vanishing sample aborts
    with the offending frequency instead of an inverse.  Without a size,
    the grid is the largest power of two <= DEFAULT_INVERSE_SIZE per axis
    that keeps it within GRID_CAP points; a given size over the cap raises.
    """
    group = _lattice_only(f, "invert_via_fft")
    d = group.rank
    if size is None:
        size = _default_inverse_size(d)
    if size < 2 or size & (size - 1):
        raise UsageError(f"grid size must be a power of two >= 2, got {size}")
    if size**d > GRID_CAP:
        raise ResourceLimitError(f"grid of {size**d} points exceeds cap {GRID_CAP}")
    ff = f.to_float()
    vals = symbol_grid(ff, (size,) * d)
    kmin, vmin = _grid_min(vals)
    if vmin < ZERO_TOL:
        return InvertibilityCertificate(
            verdict=VERDICT_INCONCLUSIVE,
            kind="fft-candidate",
            fields={
                "size": size,
                "flagged_frequency": list(kmin),
                "flagged_angle": [2 * math.pi * k / size for k in kmin],
                "flagged_value": vmin,
                "reason": "symbol sample within zero tolerance; suspected non-invertible",
            },
        )
    # The samples turn into the coefficients in place, so a single complex
    # grid is live through the division and the transform.
    coeff = np.divide(1.0, vals, out=vals)
    np.fft.fftn(coeff, out=coeff)
    coeff /= size**d
    mags = np.abs(coeff)
    # np.nonzero walks the grid in C (row-major) order, which fixes the order
    # of the kept terms and so the summation order of the verifying
    # convolution.  Indices past the middle wrap to negative exponents.
    idx = np.nonzero(mags > CHOP_REL * float(np.max(mags)))
    keys = zip(*(np.where(i >= (size + 1) // 2, i - size, i).tolist() for i in idx))
    g = AlgebraElement(group, dict(zip(keys, coeff[idx].tolist())), False)
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
                   inverse_size: int | None = None) -> InvertibilityCertificate:
    """Certify a lattice element through its symbol.

    A uniform grid scan of |symbol| combined with the Lipschitz bound
    L = sum |n|_1 |f(n)| proves a positive lower bound on the whole torus
    whenever margin = grid_min - L * spacing / 2 is positive; the verdict
    then comes with an FFT inverse and its verified residual, tried from
    inverse_size (default as in invert_via_fft) and doubled while the grid
    stays within GRID_CAP.  In rank one
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
    _, grid_min = _grid_min(symbol_grid(ff, (grid,) * d))
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

    if margin > 0:
        size = _default_inverse_size(d) if inverse_size is None else inverse_size
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
            if size**d > GRID_CAP:
                break  # the requested size is always tried; doublings stay within the cap
        fields = dict(base_fields)
        fields["reason"] = (
            "margin is positive but no inverse met the tolerance up to the size cap"
        )
        return InvertibilityCertificate(
            verdict=VERDICT_INCONCLUSIVE, kind="wiener-grid", fields=fields
        )

    # The companion-matrix eigensolve is O(span^3), so it runs only here,
    # where a root is the sole remaining way to a verdict.
    roots = _laurent_roots(ff) if d == 1 else np.array([], dtype=complex)
    dists = np.abs(np.abs(roots) - 1.0) if roots.size else np.array([])
    if d == 1 and roots.size and float(np.min(dists)) <= CIRCLE_TOL:
        z = complex(roots[int(np.argmin(dists))])
        angle = cmath.phase(z)
        witness_value = abs(fourier_eval(ff, (angle,)))
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


def _to_float(x) -> float:
    """float(x), saturating to +-inf where an exact x lies past the float range."""
    try:
        return float(x)
    except OverflowError:
        return math.inf if x > 0 else -math.inf


def _tail_bound(norm, ratio, terms: int) -> float:
    """norm * ratio^(terms+1) / (1 - ratio) as a float, for 0 <= ratio < 1."""
    ratio_f = _to_float(ratio)
    tail = _to_float(norm) * ratio_f ** (terms + 1) / (1 - ratio_f)
    if math.isnan(tail):
        # inf * 0: an overflowing norm met an underflowing power; an exact
        # norm has an exact product, a float one only the bound inf.
        if isinstance(norm, float):
            return math.inf
        ratio = Fraction(ratio)
        tail = _to_float(norm * ratio ** (terms + 1) / (1 - ratio))
    return tail


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
            key = (_to_float(ratio), group.sort_key(a))
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
        "ratio": _to_float(ratio),
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
    left = (convolve(g, f) - e).norm(w)
    right = (convolve(f, g) - e).norm(w)
    fields["tail_bound"] = _tail_bound(u_inv.norm(w), ratio, terms)
    fields["left_residual"] = _to_float(left)
    fields["right_residual"] = _to_float(right)
    residual = max(left, right)
    if _to_float(residual) <= tol:
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
        return to_jsonable({
            "moduli": self.moduli,
            "nonsingular": self.nonsingular,
            "min_modulus": self.min_modulus,
            "frequency": self.frequency,
            "angle": self.angles,
        })


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
                        "moduli": p.moduli,
                        "frequency": p.frequency,
                        "angle": p.angles,
                        "value": p.min_modulus,
                    },
                )
        return None


def probe_quotients(f: AlgebraElement, moduli_list: Iterable, *,
                    singular_tol: float = 1e-12) -> ProbeReport:
    """Test the pushforward of f for singularity on cyclic quotients.

    A singular quotient certifies non-invertibility (the quotient symbol
    vanishes at an exact rational frequency); nonsingular quotients are
    evidence only.  Scalars broadcast across the rank, so 4 on a rank-2
    lattice means the quotient by (4Z)^2.  moduli_list is read only until
    its quotients pass QUOTIENT_CAP points in all, before any symbol is computed.
    """
    group = _lattice_only(f, "probe_quotients")
    d = group.rank
    quotients, points = [], 0
    for entry in moduli_list:
        mods = (entry,) * d if isinstance(entry, int) else tuple(int(m) for m in entry)
        if len(mods) != d or any(m < 1 for m in mods):
            raise UsageError(f"bad moduli entry {entry!r} for rank {d}")
        points += math.prod(mods)
        if points > QUOTIENT_CAP:
            raise ResourceLimitError(f"quotients of {points}+ points exceed cap {QUOTIENT_CAP}")
        quotients.append(mods)
    ff = f.to_float()
    probes = []
    for mods in quotients:
        kmin, vmin = _grid_min(symbol_grid(ff, mods))
        probes.append(
            QuotientProbe(
                moduli=mods,
                nonsingular=vmin > singular_tol,
                min_modulus=vmin,
                frequency=kmin,
                angles=tuple(2 * math.pi * k / m for k, m in zip(kmin, mods)),
            )
        )
    return ProbeReport(probes=probes, singular_tol=singular_tol)


# ---------------------------------------------------------------------------
# method dispatch


def auto_invert(f: AlgebraElement, weight: Weight | None = None, *,
                method: str = "auto", grid: int = 64, size: int | None = None,
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
