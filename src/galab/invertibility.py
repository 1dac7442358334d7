"""Invertibility oracles and machine-checkable certificates.

Every oracle returns an InvertibilityCertificate with one of three verdicts:
"invertible", "not-invertible", "inconclusive".  A certificate claiming
invertibility always carries a concrete inverse candidate together with a
freshly computed convolution residual; no verdict is ever emitted on the
strength of intermediate numerics alone.

Oracles:
  invert_finite        one coset-block solve on a finite Cayley group, by
                       forward fraction-free (Bareiss) elimination, then
                       fraction-free back substitution, over Z or Z[i]
                       (float elements: one numpy SVD of the same block)
  wiener_certify       grid-plus-Lipschitz lower bound for lattice symbols,
                       with symbol-zero witnesses refined from the grid
                       minimum in rank one
  invert_via_fft       sampled-symbol division inverse candidate
  neumann_invert       geometric series around a dominant pivot, any group,
                       weighted norms supported
  probe_quotients      finite cyclic quotients as non-invertibility probes
The float oracles share one zero test: |symbol|, or the least singular value
of a float finite block, <= SINGULAR_TOL * |f|_1 (_vanishes).
Every tol, verify_direct_finiteness's too, is refused outside [0, 1) (_tolerance).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import TYPE_CHECKING, Iterable

from .algebra import (
    AlgebraElement,
    _float_products,
    _gaussian_products,
    _int_products,
    _make,
    _minus_identity,
    convolve,
    delta,
    element_to_json,
    identity_element,
    to_jsonable,
)
from .errors import ContractViolationError, ResourceLimitError, UsageError
from .groups import CayleyGroup, LatticeGroup, _integer
from .operators import symbol_grid
from .weights import Weight, _length_only

if TYPE_CHECKING:
    import numpy as np

VERDICT_INVERTIBLE = "invertible"
VERDICT_NOT_INVERTIBLE = "not-invertible"
VERDICT_INCONCLUSIVE = "inconclusive"

# Work limits and numerical thresholds of the oracles.
FINITE_ORDER_CAP = 256      # largest group order invert_finite solves on
GRID_CAP = 2**22            # symbol grid points in invert_via_fft and wiener_certify
CHOP_REL = 1e-13            # invert_via_fft: coefficients below this share of the peak drop
MAX_INVERSE_SIZE = 4096     # wiener_certify: doublings of the FFT inverse grid stop here
DEFAULT_INVERSE_SIZE = 512  # FFT inverse grid per axis when none is given, at most:
DEFAULT_INVERSE_POINTS = 2**16  # points of that default grid, so 512, 256, 32 on Z, Z^2, Z^3
QUOTIENT_CAP = 2**20        # probe_quotients: points of all quotients of one call
SINGULAR_TOL = 1e-12        # |symbol| or sigma_min <= this times |f|_1 is zero (_vanishes)
DF_SLACK = 10.0             # verify_direct_finiteness: right residual allowed per unit of tol
SERIES_STEP_CAP = 2**16     # neumann_invert: most products of one series term


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

    def to_json(self):
        return to_jsonable({
            "left_residual": self.left_residual,
            "right_residual": self.right_residual,
            "pass": self.passed,
            "tol": self.tol,
            "slack": DF_SLACK,
        })


def _to_float(x) -> float:
    """float(x), saturating to +-inf where an exact x lies past the float range."""
    try:
        return float(x)
    except OverflowError:
        return math.inf if x > 0 else -math.inf


class _Memo(Weight):
    """A weight's values by point, kept for one oracle call on one group only
    (never on the weight); a length-only weight (_length_only) is evaluated
    once per word length, at its first point.  A value the weight refuses
    raises from the weight and is never kept."""

    def __init__(self, weight: Weight):
        self.weight, self.values = weight, {}
        self.lengths = {} if _length_only(weight) else None

    def value(self, group, x):
        v = self.values.get(x)
        if v is None:
            lengths = self.lengths
            if lengths is None:
                v = self.weight.value(group, x)
            else:
                n = group.word_length(x)
                v = lengths.get(n)
                if v is None:
                    v = lengths[n] = self.weight.value(group, x)
            self.values[x] = v
        return v


_last_pair = (None,) * 5  # _residuals' last (f, g, g*f - e, f*g - e, (weight, norms) or ())


def _residuals(f: AlgebraElement, g: AlgebraElement, weight: Weight | None = None) -> tuple:
    """(|g*f - e|, |f*g - e|) in the (weighted) l1 norm; exact when f and g are.

    The last pair's products are reused for the same f and g objects, and
    its two norms too for the same weight object (a _Memo counts as the
    weight it wraps), so the direct-finiteness check of an oracle's own
    inverse runs no convolution and evaluates no weight.  Elements are
    immutable: only their constructors and _make, which always gets a fresh
    dict, set the terms.  So are weights: Weight freezes its attributes once
    constructed and TableWeight's values are read-only, so the same weight
    object gives the same norms.  New norms share one _Memo, the caller's
    when it passes one, so a length-only weight is evaluated once per word
    length.  Each difference is read off its product in one pass
    (_minus_identity), with the bits convolve(g, f) - e would have.
    """
    global _last_pair
    base = weight.weight if isinstance(weight, _Memo) else weight
    last = _last_pair
    if last[0] is not f or last[1] is not g:
        # The old norms go with the old products, before a new norm can raise.
        last = _last_pair = (f, g, _minus_identity(convolve(g, f)),
                             _minus_identity(convolve(f, g)), ())
    elif last[4] and last[4][0] is base:
        return last[4][1]
    if weight is base and base is not None:
        weight = _Memo(base)
    norms = last[2].norm(weight), last[3].norm(weight)
    _last_pair = (*last[:4], (base, norms))
    return norms


def _verified(kind: str, fields: dict, g: AlgebraElement, residual, tol: float,
              reason: str | None = None) -> InvertibilityCertificate:
    """The verdict on an inverse candidate g: invertible when its verified
    residual is at most tol, else inconclusive, with reason when one is given."""
    if _to_float(residual) <= tol:
        verdict = VERDICT_INVERTIBLE
    else:
        verdict = VERDICT_INCONCLUSIVE
        if reason is not None:
            fields["reason"] = reason
    return InvertibilityCertificate(verdict=verdict, kind=kind, fields=fields,
                                    inverse=g, residual=residual)


def _refuted(kind: str, fields: dict) -> InvertibilityCertificate:
    """The not-invertible verdict; fields carry its witness."""
    return InvertibilityCertificate(verdict=VERDICT_NOT_INVERTIBLE, kind=kind, fields=fields)


def _inconclusive(kind: str, fields: dict, reason: str) -> InvertibilityCertificate:
    """The inconclusive verdict of an oracle that has no inverse candidate."""
    return InvertibilityCertificate(verdict=VERDICT_INCONCLUSIVE, kind=kind,
                                    fields={**fields, "reason": reason})


def _proven(weight: Weight | None, group) -> None:
    """Refuse a weight not proven submultiplicative: only then is the weighted
    l1 space a Banach algebra, whose norms bound products and series."""
    if weight is not None and weight.submultiplicative_proof(group) is None:
        raise UsageError(f"{type(weight).__name__} is not proven submultiplicative "
                         "(w(xy) <= w(x) w(y)), so its norms prove nothing")


def _tolerance(tol) -> None:
    """Refuse a tol that is not a number in [0, 1): only |g*f - e| < 1 makes
    g*f invertible by its Neumann series, and so proves anything of f."""
    if isinstance(tol, bool) or not isinstance(tol, (int, float, Fraction)) or not 0 <= tol < 1:
        raise UsageError(f"tol must be a number in [0, 1), got {tol!r}")


def verify_direct_finiteness(f: AlgebraElement, g: AlgebraElement,
                             weight: Weight | None = None, *,
                             tol: float = 1e-10) -> DirectFinitenessReport:
    """Check that a left inverse is also a right inverse.

    Computes both residuals |g*f - e| and |f*g - e| in the (weighted) l1
    norm.  The report passes when the left residual being below tol forces
    the right residual below DF_SLACK*tol; a pair that is not even a left
    inverse passes vacuously.  On the f and inverse that an oracle just
    verified, its products are reused, and with the same weight object its
    norms too; otherwise each point's weight is evaluated once.  A weight
    without a submultiplicative_proof is refused with UsageError.
    """
    _tolerance(tol)
    _proven(weight, f.group)
    left, right = _residuals(f, g, weight)
    passed = (left > tol) or (right <= DF_SLACK * tol)
    return DirectFinitenessReport(left_residual=left, right_residual=right, passed=passed, tol=tol)


# ---------------------------------------------------------------------------
# exact linear algebra: forward fraction-free (Bareiss) elimination, then
# fraction-free back substitution, over Z or Z[i]
#
# A Gaussian integer is an (re, im) pair of ints.  The caller hands over an
# integral matrix (an exact element's numerators); each ring supplies the
# step that combines two rows and the step that back-substitutes one row,
# and the result comes back over one positive int denominator.


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


def _integer_substitute(row, i, w) -> None:
    """w[i] = -(row[k] * w[k] summed over i < k < len(w)) / row[i] over Z; an exact division."""
    w[i] = -sum(u * x for u, x in zip(row[i + 1:], w[i + 1:]) if u) // row[i]


def _gaussian_substitute(row, i, w) -> None:
    """w[i] = -(row[k] * w[k] summed over i < k < len(w)) / row[i] over Z[i]; an exact division."""
    sr = si = 0
    for (ur, ui), (xr, xi) in zip(row[i + 1:], w[i + 1:]):
        if ur or ui:
            sr += ur * xr - ui * xi
            si += ur * xi + ui * xr
    qr, qi = row[i]
    norm = qr * qr + qi * qi
    w[i] = ((-sr * qr - si * qi) // norm, (sr * qi - si * qr) // norm)


def _solve_exact(mat: list, gaussian: bool):
    """Forward fraction-free (Bareiss) elimination, then fraction-free back
    substitution, over Z or Z[i].

    mat is an augmented n x (n+1) matrix [A | b] as a list of rows, of ints,
    or of Gaussian-int (re, im) pairs when gaussian is true; it is
    eliminated in place.  The step with pivot p replaces every row r below
    the pivot row by (p*r - r[c]*pivot row) / previous pivot, an exact
    division (Bareiss 1968), so pivot row i ends as row i of an upper
    triangular U with the i-th leading minor of the row-permuted A at
    U[i][i], and the last pivot D is +-det A.  A row with r[c] == 0 would
    only be multiplied by p / previous pivot, so it is left as it is and
    keeps the pivot it was last brought to (its scale): its next combination
    divides by that scale instead, and a stale pivot row is first brought
    to the previous pivot.  The group-algebra matrices are sparse, so most
    rows skip most steps.  Back substitution (Nakos, Turner & Williams 1997)
    then solves upward for D*x, D*x_i = (D*b_i - sum over k > i of
    U[i][k]*D*x_k) / U[i][i], exact because D*x is integral by Cramer's
    rule.  Returns ("solution", L, x) with A @ (x / L) = b, or ("singular",
    L, v) with v / L the kernel vector of the first free column c of A (1 at
    c, 0 past it, found the same way with D the c-th pivot); L is a positive
    int and the entries are in the matrix's ring.  The work is O(n^3) ring
    operations on growing entries; invert_finite calls it on one |K| x |K|
    coset block, never on the whole group matrix.
    """
    n = len(mat)
    if gaussian:
        zero, prev, combine, substitute = (0, 0), (1, 0), _gaussian_combine, _gaussian_substitute
    else:
        zero, prev, combine, substitute = 0, 1, _integer_combine, _integer_substitute
    # Row i below the pivot rows is mat[i] * prev / scale[i].
    scale = [prev] * n
    free = n  # the first column without a pivot; column n holds b
    for c in range(n):
        # Columns 0..c-1 all have pivots, so the pivot of column c goes to row c.
        pr = next((i for i in range(c, n) if mat[i][c] != zero), None)
        if pr is None:
            free = c
            break
        mat[c], mat[pr] = mat[pr], mat[c]
        scale[c], scale[pr] = scale[pr], scale[c]
        pivot_row = mat[c]
        if scale[c] != prev:
            pivot_row[c:] = combine(prev, zero, scale[c], pivot_row[c:], ())
        p = pivot_row[c]
        tail = pivot_row[c + 1:]
        for i in range(c + 1, n):
            row = mat[i]
            if row[c] != zero:
                # Columns before c+1 are not read again; only the tail is kept current.
                row[c + 1:] = combine(p, row[c], scale[i], row[c + 1:], tail)
                scale[i] = p
        prev = p
    # U's rows 0..free-1 annihilate w over columns 0..free, where w[free] is
    # D for a free column and -D for b; U is current in those columns.  Over
    # Z, |D| serves as D, since -D*x is as integral as D*x.
    if gaussian:
        dr, di = prev
        den, last = dr * dr + di * di, prev if free < n else (-dr, -di)
    else:
        den = abs(prev)
        last = den if free < n else -den
    w = [zero] * free + [last]
    for i in range(free - 1, -1, -1):
        substitute(mat[i], i, w)
    if gaussian:
        # x = w / D = w * conj(D) / |D|^2
        w = [(wr * dr + wi * di, wi * dr - wr * di) for wr, wi in w]
    if free == n:
        return "solution", den, w[:n]
    return "singular", den, w + [zero] * (n - free - 1)


# ---------------------------------------------------------------------------
# finite groups


def _solve_float(mat: np.ndarray, f: AlgebraElement):
    """Float counterpart of _solve_exact on an augmented complex array [A | b].

    One SVD of A gives both the zero test of its smallest singular value
    (_vanishes, relative to |f|_1 as in probe_quotients) and, when it
    passes, the kernel vector.
    Returns ("solution", x) with A x = b, or ("singular", v) with v the
    unit right singular vector of the smallest singular value.
    """
    import numpy as np
    a = mat[:, :-1]
    _, svals, vh = np.linalg.svd(a)
    if _vanishes(svals[-1], f.norm()):
        return "singular", vh[-1].conj()
    return "solution", np.linalg.solve(a, mat[:, -1])


def _invert_block(f: AlgebraElement) -> tuple:
    """(status, g) for g*f = e on a Cayley group, from the block of y0^-1 K; see invert_finite.

    Row z of the group matrix holds f(y) at column z y^-1, so column c of
    the block meets row c*y = (c*s)*y0 with s = y*y0^-1 in K, and that row
    is labelled c*s; the columns are in increasing index order.  Exact f
    enters as its numerators over its one denominator L, so the block is
    integral; float f enters as its amplitudes.
    """
    group, exact = f.group, f.exact
    table, e = group.table, group.identity
    if exact:
        den, terms = f.numerators()
        zero, one = ((0, 0), (den, 0)) if f.gaussian else (0, den)
    else:
        terms, zero, one = dict(f.items()), 0j, 1
    y0_inv = group.inv(min(terms, default=e))
    shifted = {table[y][y0_inv]: amp for y, amp in terms.items()}
    sub, todo = {e}, [e]  # K, the subgroup generated by the shifts
    while todo:
        row = table[todo.pop()]
        for s in shifted:
            if row[s] not in sub:
                sub.add(row[s])
                todo.append(row[s])
    cols = sorted(table[y0_inv][k] for k in sub)
    pos = {c: i for i, c in enumerate(cols)}
    mat = [[zero] * (len(cols) + 1) for _ in cols]
    for j, c in enumerate(cols):
        row = table[c]
        for s, amp in shifted.items():
            mat[pos[row[s]]][j] = amp
    mat[pos[y0_inv]][-1] = one  # the row labelled y0^-1 is row e
    if exact:
        status, den, vec = _solve_exact(mat, f.gaussian)
        return status, AlgebraElement.from_numerators(group, dict(zip(cols, vec)), den, f.gaussian)
    import numpy as np
    status, vec = _solve_float(np.array(mat, dtype=complex), f)
    return status, AlgebraElement(group, dict(zip(cols, vec)), False)


def invert_finite(f: AlgebraElement, *, tol: float = 1e-10) -> InvertibilityCertificate:
    """Solve g*f = e on a finite Cayley group and verify both residuals.

    Exact elements go through forward fraction-free (Bareiss) elimination,
    then fraction-free back substitution, over Z or Z[i] (_solve_exact), so
    success means both residuals are exactly zero; a
    singular system yields a not-invertible certificate carrying an exact
    kernel witness with witness*f = 0.  Both outcomes are checked again by
    exact convolution, whatever the solver did.  These certificates have
    kind "exact-finite".  Float elements are solved by one numpy SVD
    (_solve_float), called not-invertible when the block's least singular
    value vanishes (_vanishes, as in probe_quotients) and invertible when
    both residuals are at most tol, and have kind "float-finite".

    Neither solve builds the whole n x n group matrix.  With y0 the least
    support point and K the subgroup generated by the y*y0^-1, y in the
    support, the matrix splits into one block per left coset uK, each the
    same |K| x |K| matrix relabelled, and only the block of y0^-1 K holds
    row e.  So f is invertible in l1(G) exactly when f*delta(y0^-1), which
    lives on K, is invertible in l1(K): the whole matrix is singular
    exactly when that block is, and has its singular values, repeated.  The
    inverse lives on y0^-1 K, and so does the witness of a singular f, the
    block's own kernel vector; the cost is |K|^3 instead of n^3.
    """
    _tolerance(tol)
    group = f.group
    if not isinstance(group, CayleyGroup):
        raise UsageError("invert_finite needs an element of a finite Cayley group")
    n = group.order
    if n > FINITE_ORDER_CAP:
        raise ResourceLimitError(f"group order {n} exceeds cap {FINITE_ORDER_CAP}")
    exact = f.exact
    status, g = _invert_block(f)
    kind = "exact-finite" if exact else "float-finite"
    fields = {"order": n, "scalars": "exact" if exact else "float"}

    if status == "singular":
        # Here g is the kernel witness, not an inverse.
        kernel_residual = convolve(g, f).norm()
        if exact and kernel_residual != 0:
            raise ContractViolationError("exact kernel witness failed to annihilate")
        fields.update(kernel=element_to_json(g), kernel_residual=kernel_residual)
        return _refuted(kind, fields)

    left, right = _residuals(f, g)
    fields.update(left_residual=left, right_residual=right)
    return _verified(kind, fields, g, max(left, right), tol)


# ---------------------------------------------------------------------------
# lattice symbols


def _grid_min(vals: np.ndarray) -> tuple:
    """(k, |vals[k]|) at the first minimum of |vals| in C order; k is a tuple of ints.

    A NaN counts as the minimum, as in np.argmin.  The moduli are taken of
    the transposed grid, which is contiguous for a column-major grid (as
    symbol_grid returns), so nothing is copied into C order (_first_min).
    """
    import numpy as np
    mags = np.abs(vals.T)
    k = _first_min(mags)
    return k, float(mags[k[::-1]])


def _first_min(t: np.ndarray) -> tuple:
    """The first minimum (or NaN) of t.T in C order, as a tuple of ints.

    One argmin runs along the contiguous last axis of t, the first axis of
    t.T; the least index on that axis is then sought, by the same rule, among
    the lines whose minimum is the least (or NaN), so ties are broken on one
    value per line and the grid is read once.
    """
    import numpy as np
    if t.ndim == 1:
        return (int(t.argmin()),)
    lines = t.reshape(-1, t.shape[-1])
    ks = lines.argmin(axis=1)
    lows = lines.reshape(-1)[ks + np.arange(0, lines.size, lines.shape[1])]
    low = lows[lows.argmin()]
    hit = np.isnan(lows) if low != low else lows == low
    # A line without the minimum gets an index past every real one.
    firsts = np.where(hit, ks, t.shape[-1]).reshape(t.shape[:-1])
    rest = _first_min(firsts)
    return (int(firsts[rest[::-1]]),) + rest


def _lattice_only(f: AlgebraElement, who: str) -> LatticeGroup:
    if not isinstance(f.group, LatticeGroup):
        raise UsageError(f"{who} needs a lattice element")
    return f.group


def _inverse_size(size, d: int) -> int:
    """A checked FFT grid size per axis on Z^d, a power of two >= 2 within
    GRID_CAP.  None gives the largest power of two <= DEFAULT_INVERSE_SIZE
    whose grid has at most DEFAULT_INVERSE_POINTS points (512 on Z, 256 on
    Z^2, 32 on Z^3): the verified residual, not the size, makes a
    certificate sound, so the first try is kept small and wiener_certify
    doubles it when the residual misses.  Past rank 22 even 2 per axis
    exceeds GRID_CAP, and the default raises as a given size does."""
    if size is None:
        size = DEFAULT_INVERSE_SIZE
        while size > 2 and size**d > DEFAULT_INVERSE_POINTS:
            size //= 2
    else:
        size = _integer(size, "grid size")
        if size < 2 or size & (size - 1):
            raise UsageError(f"grid size must be a power of two >= 2, got {size}")
    if size**d > GRID_CAP:
        raise ResourceLimitError(f"grid of {size**d} points exceeds cap {GRID_CAP}")
    return size


def _vanishes(value: float, norm: float) -> bool:
    """Whether value is zero: at most SINGULAR_TOL * norm, where norm is
    |ff|_1, which the caller computes once, so scaling ff moves no verdict.
    value is |symbol(t)| of a float lattice ff, the l1 distance from ff to
    the singular ff - symbol(t) delta_0, or the least singular value of a
    float finite ff's block (_solve_float), which on an abelian group is the
    least |ff^(chi)|: one test for both."""
    return value <= SINGULAR_TOL * norm


def _over_norm(ff: AlgebraElement, norm: float) -> tuple:
    """(e, terms): the float element ff's terms divided by 2^e ~ norm = |ff|_1.

    Their l1 norm is in [1/2, 1), or in [2^-52, 4) where e stops at -1022
    or 1022, the bounds within which 2^e and 2^-e are normal floats.  A
    power of two scales floats exactly away from subnormals (the sign of a
    zero part aside, which no sum of the terms keeps)."""
    e = min(max(math.frexp(norm)[1], -1022), 1022)
    scale = 2.0**-e
    return e, {n: a * scale for n, a in ff.items()}


def _fft_candidate(ff: AlgebraElement, size: int) -> tuple:
    """(g, k, vmin): the sampled-symbol division candidate g of the float
    lattice element ff on the size^d grid, and the first least |sample|
    vmin, at index k; g is None when vmin vanishes (_vanishes).  The grid
    samples ff / 2^e (_over_norm), and the kept terms are scaled back by
    2^-e, so they are those of ff's own transform bit for bit away from
    subnormals.  Those samples are at most 4, and above SINGULAR_TOL * 2^-52
    unless they vanish, so no reciprocal of one, or sum of them, leaves
    the float range.  An element whose largest inverse coefficient is past
    the float range is refused with UsageError before numpy could warn:
    every finer grid holds these samples, so no doubling of the size
    helps, and no verdict is implied.
    """
    import numpy as np
    d = ff.group.rank
    norm = ff.norm()
    e, scaled = _over_norm(ff, norm)
    vals = symbol_grid(_make(ff.group, False, scaled), (size,) * d)
    kmin, vmin = _grid_min(vals)
    vmin *= 2.0**e
    if _vanishes(vmin, norm):
        return None, kmin, vmin
    # The samples turn into the coefficients in place, so a single complex
    # grid is live through the division and the transform.
    coeff = np.divide(1.0, vals, out=vals)
    np.fft.fftn(coeff, out=coeff)
    # The chop runs on the unscaled transform: size**d is a power of two, so
    # dividing by it changes neither the order of the moduli nor their
    # comparison with the threshold, and only the kept terms are divided.
    # The grid is column-major, so its transpose is scanned contiguously;
    # the kept indices are then sorted into C (row-major) order, which fixes
    # the order of the terms and so the summation order of the verifying
    # convolution.  Indices past the middle wrap to negative exponents.
    # Keys are int tuples from .tolist(); kept amplitudes are finite and nonzero.
    mags = np.abs(coeff.T)
    peak, back = float(mags.max()), 2.0**-e
    if peak / size**d * back == math.inf:
        raise UsageError("the element's FFT inverse would overflow the float range")
    flat = np.flatnonzero(mags > CHOP_REL * peak)
    rev = np.unravel_index(flat, mags.shape)  # the axes of coeff, last first
    order = np.lexsort(rev)
    idx = tuple(i[order] for i in reversed(rev))
    keys = zip(*(np.where(i >= (size + 1) // 2, i - size, i).tolist() for i in idx))
    kept = coeff[idx] / size**d
    parts = kept.view(np.float64)  # scaled part by part, so a zero keeps its sign
    parts *= back
    terms = dict(zip(keys, kept.tolist()))
    return _make(ff.group, False, terms), kmin, vmin


def _corner_exceeds(g: AlgebraElement, ff: AlgebraElement, tol: float) -> bool:
    """True when one product of g*ff - e already exceeds tol, with no
    convolution: g's term at its lexicographically largest (then smallest)
    key times ff's term at its largest (then smallest) key.

    Lexicographic order on Z^d is translation-invariant, so exactly one
    pair of support points reaches such a corner x + y, and convolve(g, ff)
    stores that one product g(x) ff(y) at x + y as it is.  Subtracting e
    leaves every key but the identity alone, so a corner whose sum is the
    identity is skipped; the test is on ints, so no group.mul runs.  norm
    adds the moduli into a left-to-right float sum of non-negative terms,
    and rounded addition of non-negative floats never lowers the sum, so
    the verified residual is at least |g(x) ff(y)| (or NaN).  A product
    above tol therefore fails the residual <= tol test of this same
    candidate: invert_via_fft then skips the convolution and loses no
    invertible verdict, so wiener_certify chooses the same size and bytes.
    A NaN product compares false, so it rejects nothing; an empty g has no corners.
    """
    # Keys alone, from the float storage's dict view: (key, value) pairs compare at half speed.
    gt, ft = g.items().mapping, ff.items().mapping
    for x, y in zip((max(gt), min(gt)), (max(ft), min(ft))) if gt else ():
        if any(a + b for a, b in zip(x, y)) and abs(gt[x] * ft[y]) > tol:
            return True
    return False


def invert_via_fft(f: AlgebraElement, size: int | None = None, *,
                   tol: float = 1e-10) -> InvertibilityCertificate:
    """Inverse candidate from sampled-symbol division on a 2^k grid.

    Samples the symbol on the uniform grid, divides 1 by it, transforms
    back, and keeps the coefficients on the centered fundamental domain
    whose amplitudes are at least CHOP_REL of the peak (_fft_candidate).
    The candidate is only as good as its verified residual: aliasing from
    slow coefficient decay shows up there.  One with a corner product
    above tol (_corner_exceeds) cannot meet tol: it is inconclusive, kept
    with residual None, and no convolution runs; otherwise the residual is
    read off the one product in one pass (_minus_identity).  A vanishing sample
    (_vanishes) aborts with the offending frequency; an element whose
    inverse has a coefficient past the float range is refused with
    UsageError.  The size, and its default of 512 per axis on Z, 256 on
    Z^2 and 32 on Z^3, are checked by _inverse_size.
    """
    _tolerance(tol)
    group = _lattice_only(f, "invert_via_fft")
    size = _inverse_size(size, group.rank)
    ff = f.to_float()
    g, kmin, vmin = _fft_candidate(ff, size)
    if g is None:
        return _inconclusive("fft-candidate", {
            "size": size,
            "flagged_frequency": list(kmin),
            "flagged_angle": [2 * math.pi * k / size for k in kmin],
            "flagged_value": vmin,
        }, "symbol sample within zero tolerance; suspected non-invertible")
    fields = {"size": size, "chop": CHOP_REL, "grid_min": vmin}
    if _corner_exceeds(g, ff, tol):
        return replace(_inconclusive("fft-candidate", fields, "a corner product of the "
                                     "residual is above tolerance; increase the grid"), inverse=g)
    residual = float(_minus_identity(convolve(g, ff)).norm())
    return _verified("fft-candidate", fields, g, residual, tol,
                     "candidate residual above tolerance; increase the grid")


def _refine_min(f: AlgebraElement, theta: float, norm: float) -> tuple:
    """(angle, |s|) at the least |s| that Gauss-Newton steps on the rank-one
    symbol s reach from theta.

    A step is theta - Re(conj(s') s) / |s'|^2, with s and s' from one pass
    over the terms: O(terms) whatever the degree span.  The steps stop at
    the first that does not lower |s|, or after 32: near a simple zero they
    converge quadratically, and near a zero of multiplicity m each keeps
    (m-1)/m of the distance, so 32 cut a double zero's |s| by 4^-32.  Terms
    over 2^k ~ norm = |f|_1 (_over_norm) change no bit of a step but keep
    |s'|^2 in float range.
    """
    k, scaled = _over_norm(f, norm)
    terms = [(n, amp) for (n,), amp in scaled.items()]
    best = theta, math.inf
    for _ in range(33):
        val = der = 0j  # s(theta) and s'(theta) / i
        for n, amp in terms:
            v = amp * cmath.exp(1j * (n * theta))
            val += v
            der += n * v
        if not abs(val) < best[1]:
            break
        best = theta, abs(val)
        norm = der.real * der.real + der.imag * der.imag
        if not norm:
            break
        theta -= (der.conjugate() * val).imag / norm
    return best[0], best[1] * 2.0**k


def wiener_certify(f: AlgebraElement, grid: int = 64, *, tol: float = 1e-10,
                   inverse_size: int | None = None) -> InvertibilityCertificate:
    """Certify a lattice element through its symbol.

    A uniform grid scan of |symbol| combined with the Lipschitz bound
    L = sum |n|_1 |f(n)| proves a positive lower bound on the whole torus
    whenever margin = grid_min - L * spacing / 2 is positive; the verdict
    then comes from the first invertible invert_via_fft, called at
    inverse_size (default and checks as there) and at its doublings up to
    MAX_INVERSE_SIZE within GRID_CAP.  In rank one a non-positive margin
    sends the grid minimum to _refine_min, and a |symbol| that vanishes
    there (_vanishes) refutes with the angle t as witness: x(n) =
    exp(i n t) is bounded with rho_f x = 0.  Anything else is inconclusive
    and the diagnostics say how close the call was.
    """
    _tolerance(tol)
    group = _lattice_only(f, "wiener_certify")
    d = group.rank
    grid = _integer(grid, "grid")
    size = _inverse_size(inverse_size, d)
    if grid < 2:
        raise UsageError(f"grid must have at least 2 points per axis, got {grid}")
    if grid**d > GRID_CAP:
        raise ResourceLimitError(f"grid of {grid**d} points exceeds cap {GRID_CAP}")
    if f.is_zero:
        return _refuted("wiener-grid", {"grid": grid, "grid_min": 0.0, "lipschitz": 0.0,
                                        "margin": 0.0, "witness_angle": [0.0] * d,
                                        "witness_value": 0.0})
    ff = f.to_float()
    kmin, grid_min = _grid_min(symbol_grid(ff, (grid,) * d))
    lipschitz = float(sum(group.word_length(n) * abs(amp) for n, amp in ff.items()))
    spacing = 2 * math.pi / grid
    margin = grid_min - lipschitz * (spacing / 2)
    fields = {
        "grid": grid,
        "grid_min": grid_min,
        "lipschitz": lipschitz,
        "spacing": spacing,
        "margin": margin,
    }

    if margin > 0:
        while True:
            candidate = invert_via_fft(ff, size, tol=tol)
            if candidate.invertible:
                fields["inverse_size"] = size
                return replace(candidate, kind="wiener-grid", fields=fields)
            size *= 2
            if size > MAX_INVERSE_SIZE or size**d > GRID_CAP:
                break  # the requested size is always tried; doublings stay within both caps
        return _inconclusive("wiener-grid", fields, "margin is positive but no inverse met "
                             "the tolerance up to the size cap")

    if d == 1:
        norm = ff.norm()
        angle, value = _refine_min(ff, 2 * math.pi * kmin[0] / grid, norm)
        if _vanishes(value, norm):
            fields.update(witness_angle=angle, witness_value=value,
                          root={"re": math.cos(angle), "im": math.sin(angle)})
            return _refuted("wiener-grid", fields)
        fields["refined_min"] = value
    return _inconclusive("wiener-grid", fields,
                         "margin not positive and no unit-circle root witness")


# ---------------------------------------------------------------------------
# Neumann series (any group, weighted)


def _tail_bound(norm, ratio, terms: int) -> float:
    """norm * ratio^(terms+1) / (1 - ratio) as a float, for 0 <= ratio < 1."""
    ratio_f = _to_float(ratio)
    tail = math.nan if ratio_f == 1 else _to_float(norm) * ratio_f ** (terms + 1) / (1 - ratio_f)
    if math.isnan(tail):
        # inf * 0: an overflowing norm met an underflowing power; or an exact
        # ratio just below 1 rounded to 1.0.  An exact norm has an exact
        # product, a float one only the bound inf.
        if isinstance(norm, float):
            return math.inf
        ratio = Fraction(ratio)
        tail = _to_float(norm * ratio ** (terms + 1) / (1 - ratio))
    return tail


def neumann_invert(f: AlgebraElement, weight: Weight | None = None, *,
                   terms: int = 40, tol: float = 1e-10) -> InvertibilityCertificate:
    """Geometric-series inverse around a dominant support point.

    Write f = u + rest with u the pivot term.  When the weighted norm of
    r = e - u^-1 * f is below one, the truncated series
    (e + r + ... + r^terms) * u^-1 approximates the inverse with tail bound
    |u^-1| * ratio^(terms+1) / (1 - ratio); both residuals are verified.
    The pivot is the support point of least ratio (ties to the first in
    sort_key order), since the ratio sets both convergence and tail bound.
    Exact candidates u^-1 come from f's numerators.  The pivot search
    takes n^2 products for an n-term f, so more than SERIES_STEP_CAP of
    them raise ResourceLimitError before any runs.  The series is summed
    by _series, which refuses a term of more than SERIES_STEP_CAP products
    with ResourceLimitError.  A weight without a submultiplicative_proof is
    refused with UsageError.  With a weight, all the call's norms share one
    _Memo, so the weight is evaluated once per point, and a length-only one
    (exp_symmetric, polynomial, constant, and products of these) once per
    word length; a direct-finiteness check with the same weight object (or
    with none, when the call had none) reuses the residual norms.
    """
    _tolerance(tol)
    if f.is_zero:
        raise UsageError("cannot invert the zero element")
    terms = _integer(terms, "terms")
    if terms < 0:
        raise UsageError(f"terms must be >= 0, got {terms}")
    _proven(weight, f.group)
    w = _Memo(weight) if weight is not None else None
    group = f.group
    e = identity_element(group, exact=f.exact)

    work = f.n_terms ** 2
    if work > SERIES_STEP_CAP:
        raise ResourceLimitError(f"a pivot search of {work} products exceeds cap {SERIES_STEP_CAP}")
    best = None
    for a in f.support:
        u_inv = _point_inverse(f, a)
        r = e - convolve(u_inv, f)
        ratio = r.norm(w)
        key = (_to_float(ratio), group.sort_key(a))
        if best is None or key < best[0]:
            best = (key, a, u_inv, r, ratio)
    _, pivot, u_inv, r, ratio = best

    fields = {
        "pivot": group.element_to_json(pivot),
        "ratio": _to_float(ratio),
        "terms": terms,
        "scalars": "exact" if f.exact else "float",
    }
    if ratio >= 1:
        return _inconclusive("neumann-series", fields, "series ratio is >= 1 at the chosen pivot")

    g = convolve(_series(r, terms), u_inv)
    left, right = _residuals(f, g, w)
    fields.update(tail_bound=_tail_bound(u_inv.norm(w), ratio, terms),
                  left_residual=_to_float(left), right_residual=_to_float(right))
    return _verified("neumann-series", fields, g, max(left, right), tol,
                     "series converges but the truncation is above tolerance")


def _point_inverse(f: AlgebraElement, a) -> AlgebraElement:
    """The inverse (f(a) delta_a)^-1 = f(a)^-1 delta_{a^-1} of f's term at a.

    An exact amplitude n / L inverts to L / n on the numerators, and
    (p + qi) / L to L (p - qi) / (p^2 + q^2).
    """
    group = f.group
    if not f.exact:
        return delta(group, group.inv(a), 1 / f.amplitude(a))
    den, nums = f.numerators()
    n = nums[a]
    if f.gaussian:
        p, q = n
        return AlgebraElement.from_numerators(group, {group.inv(a): (den * p, -den * q)},
                                              p * p + q * q, True)
    return AlgebraElement.from_numerators(group, {group.inv(a): den if n > 0 else -den},
                                          abs(n), False)


def _series(r: AlgebraElement, terms: int) -> AlgebraElement:
    """e + r + ... + r^terms by Horner's rule, partial = e + r*partial, with
    the storage, key order and float bits that loop gets from convolve and +.

    Each step adds r's products into an accumulator that holds the identity
    first, then drops zero sums.  A float step makes the identity 1 plus its
    sum, or 1 where no product reached it.  An exact step keeps int
    numerators over den(r)^k; one gcd at the end brings them to lowest
    terms.  A step of more than SERIES_STEP_CAP products is refused before
    it runs.
    """
    group = r.group
    mul, one = group.mul, group.identity
    if not r.exact:
        rterms, partial = list(r.items()), {one: 1 + 0j}
        for _ in range(terms):
            _series_budget(rterms, partial)
            acc = {one: None}
            _float_products(mul, acc, rterms, partial.items())
            s = acc[one]
            acc[one] = 1 + 0j if s is None else (1 + 0j) + s
            partial = {x: v for x, v in acc.items() if v != 0}
        return _make(group, False, partial)
    den, rnums = r.numerators()
    gaussian = r.gaussian
    products, zero = (_gaussian_products, (0, 0)) if gaussian else (_int_products, 0)
    rterms, partial, scale = list(rnums.items()), {one: (1, 0) if gaussian else 1}, 1
    for _ in range(terms):
        _series_budget(rterms, partial)
        scale *= den
        acc = {one: (scale, 0) if gaussian else scale}
        products(mul, acc, rterms, partial.items())
        partial = {x: v for x, v in acc.items() if v != zero}
    return AlgebraElement.from_numerators(group, partial, scale, gaussian)


def _series_budget(rterms: list, partial: dict) -> None:
    work = len(rterms) * len(partial)
    if work > SERIES_STEP_CAP:
        raise ResourceLimitError(f"a series term of {work} products exceeds cap {SERIES_STEP_CAP}")


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

    @property
    def any_singular(self) -> bool:
        return any(not p.nonsingular for p in self.probes)

    def to_json(self):
        return {
            "singular_tol": SINGULAR_TOL,
            "any_singular": self.any_singular,
            "results": [p.to_json() for p in self.probes],
        }

    def to_certificate(self) -> InvertibilityCertificate | None:
        """A not-invertible certificate from the first singular quotient."""
        for p in self.probes:
            if not p.nonsingular:
                return _refuted("quotient-witness", {
                    "moduli": p.moduli, "frequency": p.frequency, "angle": p.angles,
                    "value": p.min_modulus})
        return None


def probe_quotients(f: AlgebraElement, moduli_list: Iterable) -> ProbeReport:
    """Test the pushforward of f for singularity on cyclic quotients.

    A quotient is singular when its least |symbol| vanishes (_vanishes), a
    float test decided by a tolerance, not a proof; it is then a witness at
    an exact rational frequency.  Nonsingular ones are evidence only.  Moduli
    are ints; scalars broadcast across the rank, so 4 on a rank-2 lattice
    means the quotient by (4Z)^2.  moduli_list is read only until its
    quotients pass QUOTIENT_CAP points in all, before any symbol is
    computed.
    """
    group = _lattice_only(f, "probe_quotients")
    d = group.rank
    quotients, points = [], 0
    for entry in moduli_list:
        entry_mods = entry if isinstance(entry, (tuple, list)) else (entry,) * d
        mods = tuple([_integer(m, "modulus") for m in entry_mods])
        if len(mods) != d or min(mods) < 1:
            raise UsageError(f"bad moduli entry {entry!r} for rank {d}")
        points += math.prod(mods)
        if points > QUOTIENT_CAP:
            raise ResourceLimitError(f"quotients of {points}+ points exceed cap {QUOTIENT_CAP}")
        quotients.append(mods)
    ff = f.to_float()
    norm, probes = ff.norm(), []
    for mods in quotients:
        kmin, vmin = _grid_min(symbol_grid(ff, mods))
        angles = tuple([2 * math.pi * k / m for k, m in zip(kmin, mods)])
        probes.append(QuotientProbe(mods, not _vanishes(vmin, norm), vmin, kmin, angles))
    return ProbeReport(probes=probes)


# ---------------------------------------------------------------------------
# method dispatch


def auto_invert(f: AlgebraElement, weight: Weight | None = None, *,
                method: str = "auto", grid: int = 64, size: int | None = None,
                terms: int = 40, tol: float = 1e-10) -> InvertibilityCertificate:
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
    if method in ("wiener", "fft") and weight is not None:
        raise UsageError("the symbol oracle certifies the unweighted algebra only")
    if method == "wiener":
        return wiener_certify(f, grid, tol=tol, inverse_size=size)
    if method == "fft":
        return invert_via_fft(f, size, tol=tol)
    if method == "neumann":
        return neumann_invert(f, weight, terms=terms, tol=tol)
    raise UsageError(f"unknown method {method!r}")
