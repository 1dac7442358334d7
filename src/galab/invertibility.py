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
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import TYPE_CHECKING, Iterable

from .algebra import (
    AlgebraElement,
    _make,
    convolve,
    delta,
    element_to_json,
    identity_element,
    to_jsonable,
)
from .errors import ContractViolationError, ResourceLimitError, UsageError
from .groups import CayleyGroup, LatticeGroup, _integer
from .operators import fourier_eval, symbol_grid
from .weights import ConstantWeight, Weight

if TYPE_CHECKING:
    import numpy as np

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
ROOT_SPAN_CAP = 1024        # wiener_certify: widest rank-one degree span given to the root finder
QUOTIENT_CAP = 2**20        # probe_quotients: points of all quotients of one call
SINGULAR_TOL = 1e-12        # probe_quotients: a quotient |symbol| minimum this small is singular
DF_SLACK = 10.0             # verify_direct_finiteness: right residual allowed per unit of tol


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


_last_products = (None,) * 4  # _residuals' last (f, g, g*f - e, f*g - e)


def _residuals(f: AlgebraElement, g: AlgebraElement, weight: Weight | None = None) -> tuple:
    """(|g*f - e|, |f*g - e|) in the (weighted) l1 norm; exact when f and g are.

    The last pair's products are reused for the same f and g objects, so the
    direct-finiteness check of an oracle's own inverse runs no convolution.
    Elements are immutable: only their constructors and _make, which always
    gets a fresh dict, set the terms.  The norms are taken with each weight.
    """
    global _last_products
    last = _last_products
    if last[0] is not f or last[1] is not g:
        e = identity_element(f.group, exact=f.exact and g.exact)
        last = _last_products = (f, g, convolve(g, f) - e, convolve(f, g) - e)
    return last[2].norm(weight), last[3].norm(weight)


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


def verify_direct_finiteness(f: AlgebraElement, g: AlgebraElement,
                             weight: Weight | None = None, *,
                             tol: float = 1e-10) -> DirectFinitenessReport:
    """Check that a left inverse is also a right inverse.

    Computes both residuals |g*f - e| and |f*g - e| in the (weighted) l1
    norm.  The report passes when the left residual being below tol forces
    the right residual below DF_SLACK*tol; a pair that is not even a left
    inverse passes vacuously.  On the f and inverse that an oracle just
    verified, its products are reused and only the two norms are taken.
    """
    left, right = _residuals(f, g, weight)
    passed = (left > tol) or (right <= DF_SLACK * tol)
    return DirectFinitenessReport(left_residual=left, right_residual=right, passed=passed, tol=tol)


# ---------------------------------------------------------------------------
# exact linear algebra: fraction-free elimination over Z or Z[i]
#
# A Gaussian integer is an (re, im) pair of ints.  The caller hands over an
# integral matrix (an exact element's numerators); each ring supplies the
# step that combines two rows, and the result comes back over one positive
# int denominator.


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


def _over_one_denominator(values: list, scales: list, gaussian: bool) -> tuple:
    """(L, nums) with values[i] / scales[i] == nums[i] / L for one positive int L.

    Over Z[i], v / s is v * conj(s) / |s|^2, so L is the lcm of the norms.
    """
    if gaussian:
        norms = [sr * sr + si * si for sr, si in scales]
        den = math.lcm(*norms)
        return den, [((vr * sr + vi * si) * (den // q), (vi * sr - vr * si) * (den // q))
                     for (vr, vi), (sr, si), q in zip(values, scales, norms)]
    den = math.lcm(*scales)
    return den, [v * (den // s) for v, s in zip(values, scales)]


def _solve_exact(mat: list, gaussian: bool):
    """Fraction-free Gauss-Jordan (Bareiss) elimination over Z or Z[i].

    mat is an augmented n x (n+1) matrix [A | b] as a list of rows, of ints,
    or of Gaussian-int (re, im) pairs when gaussian is true; it is
    eliminated in place.  The step with pivot p replaces every other row r
    by (p*r - r[c]*pivot row) / previous pivot, an exact division (Bareiss
    1968), so after the last step each pivot row reads final pivot times
    its reduced-row-echelon row.  A row with r[c] == 0 would only be
    multiplied by p / previous pivot, so it is left as it is: each row keeps
    the pivot it was last brought to (its scale), and its next combination
    divides by that scale instead, which is still exact.  The group-algebra
    matrices are sparse, so most rows skip most steps.  Returns
    ("solution", L, x) with A @ (x / L) = b, or ("singular", L, v) with v / L
    the reduced-row-echelon kernel vector of the first free column of A; L
    is a positive int and the entries are in the matrix's ring.  The work is
    O(n^3) ring operations on growing entries; invert_finite calls it on one
    |K| x |K| coset block at a time, never on the whole group matrix.
    """
    n = len(mat)
    if gaussian:
        zero, prev, combine = (0, 0), (1, 0), _gaussian_combine
    else:
        zero, prev, combine = 0, 1, _integer_combine
    # Row i of the eliminated matrix is mat[i] * prev / scale[i].
    scale = [prev] * n
    for c in range(n):
        # Columns 0..c-1 all have pivots, so the pivot of column c goes to row c.
        pr = next((i for i in range(c, n) if mat[i][c] != zero), None)
        if pr is None:
            # Later steps would only scale column c of rows 0..c-1, so it
            # already holds the first free column of the echelon form.
            den, kernel = _over_one_denominator([mat[i][c] for i in range(c)], scale[:c],
                                                gaussian)
            if gaussian:
                kernel, one = [(-re, -im) for re, im in kernel], (den, 0)
            else:
                kernel, one = [-v for v in kernel], den
            return "singular", den, kernel + [one] + [zero] * (n - c - 1)
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
    return ("solution", *_over_one_denominator([row[n] for row in mat], scale, gaussian))


# ---------------------------------------------------------------------------
# finite groups


def _solve_float(a: np.ndarray, row: int):
    """Float counterpart of _solve_exact: A x = delta_row for a complex array A.

    One SVD of A gives both the rank test (smallest singular value at most
    SINGULAR_REL of the largest) and, when it fails, the kernel vector.
    """
    import numpy as np
    _, svals, vh = np.linalg.svd(a)
    if svals[-1] <= SINGULAR_REL * svals[0]:
        return "singular", vh[-1].conj()
    b = np.zeros(len(a), dtype=complex)
    b[row] = 1
    return "solution", np.linalg.solve(a, b)


def _invert_exact(f: AlgebraElement) -> tuple:
    """(status, g) for g*f = e over an exact f on a Cayley group; see invert_finite."""
    group = f.group
    table, e = group.table, group.identity
    # Row z of the group matrix holds f(y) at column z y^-1, so f's
    # numerators over its one denominator L make every block integral.
    den, terms = f.numerators()
    gaussian = f.gaussian
    zero, one = ((0, 0), (den, 0)) if gaussian else (0, den)
    y0_inv = group.inv(min(terms, default=e))
    shifted = {table[y][y0_inv]: amp for y, amp in terms.items()}
    sub, todo = {e}, [e]  # K, the subgroup generated by the shifts
    while todo:
        row = table[todo.pop()]
        for s in shifted:
            if row[s] not in sub:
                sub.add(row[s])
                todo.append(row[s])

    def solve(coset, rhs: bool):
        """(status, den, {column: entry}) on the block [A | b] of one left coset of K.

        Column c meets row c*y = (c*s)*y0 with s = y*y0^-1 in K, so that row
        is labelled c*s; the columns are in increasing index order.
        """
        cols = sorted(coset)
        pos = {c: i for i, c in enumerate(cols)}
        mat = [[zero] * (len(cols) + 1) for _ in cols]
        for j, c in enumerate(cols):
            row = table[c]
            for s, amp in shifted.items():
                mat[pos[row[s]]][j] = amp
        if rhs:
            mat[pos[y0_inv]][-1] = one  # the row labelled y0^-1 is row e
        status, den, vec = _solve_exact(mat, gaussian)
        return status, den, dict(zip(cols, vec))

    status, den, vec = solve([table[y0_inv][k] for k in sub], True)
    if status == "singular":
        # Every block is the same matrix relabelled, so all are singular.  The
        # whole matrix's first free column is the first free column of some
        # block, and its kernel vector lives on that block: search the cosets
        # by their least element until none can hold an earlier free column.
        # A nonzero f puts a pivot on a block's least column, so only a block
        # whose second column comes first can win; zero f has 1 x 1 blocks.
        home = min(vec)
        best = max(c for c, v in vec.items() if v != zero), den, vec
        covered = set()
        for u in range(group.order):
            if u >= best[0]:
                break
            if u in covered:
                continue
            coset = sorted(table[u][k] for k in sub)
            covered.update(coset)
            if u != home and (len(coset) == 1 or coset[1] < best[0]):
                _, den, vec = solve(coset, False)
                free = max(c for c, v in vec.items() if v != zero)
                if free < best[0]:
                    best = free, den, vec
        _, den, vec = best
    return status, AlgebraElement.from_numerators(group, vec, den, gaussian)


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

    The exact solve never builds the whole n x n group matrix.  With y0 a
    support point and K the subgroup generated by the y*y0^-1, y in the
    support, the matrix splits into one block per left coset uK, each the
    same |K| x |K| matrix relabelled, and only the block of y0^-1 K holds
    row e.  So f is invertible in l1(G) exactly when f*delta(y0^-1), which
    lives on K, is invertible in l1(K); the inverse lives on y0^-1 K, and
    the cost is |K|^3 per eliminated block instead of n^3.  A singular
    block has singular twins; the kernel witness is then taken from the
    block holding the first free column of the whole matrix, so it is the
    vector whole-matrix elimination gives.  Float elements keep the
    whole-matrix SVD.
    """
    group = f.group
    if not isinstance(group, CayleyGroup):
        raise UsageError("invert_finite needs an element of a finite Cayley group")
    n = group.order
    if n > FINITE_ORDER_CAP:
        raise ResourceLimitError(f"group order {n} exceeds cap {FINITE_ORDER_CAP}")
    exact = f.exact
    if exact:
        status, g = _invert_exact(f)
    else:
        import numpy as np
        # g*f = e as A g = delta_e with A[u y][u] = f(y).  Column y of the
        # table is a permutation, so each entry is set once.
        table = np.array(group.table)
        cols = np.arange(n)
        a = np.zeros((n, n), dtype=complex)
        for y, amp in f.items():
            a[table[:, y], cols] = amp
        status, vec = _solve_float(a, group.identity)
        g = AlgebraElement(group, dict(enumerate(vec)), False)
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

    The first index is the first whose slice holds the minimum, and so on
    down the axes: each step is a reduction, so a column-major grid (as
    symbol_grid returns) is read in place, never copied into C order.  A
    NaN counts as the minimum, as in np.argmin.
    """
    import numpy as np
    mags = np.abs(vals)
    k, sub = [], mags
    while sub.ndim:
        k.append(int(np.argmin(sub.min(axis=tuple(range(1, sub.ndim))))))
        sub = sub[k[-1]]
    return tuple(k), float(sub)


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
    chop reads the unscaled transform and only the kept coefficients are
    divided by the number of grid points, a power of two, so the terms are
    those of scaling first and chopping after, bit for bit.  The
    candidate is only as good as its verified residual: aliasing from slow
    coefficient decay shows up there, and a near-vanishing sample aborts
    with the offending frequency instead of an inverse.  Without a size,
    the grid is the largest power of two <= DEFAULT_INVERSE_SIZE per axis
    that keeps it within GRID_CAP points; a given size over the cap raises.
    """
    import numpy as np
    group = _lattice_only(f, "invert_via_fft")
    d = group.rank
    size = _default_inverse_size(d) if size is None else _integer(size, "grid size")
    if size < 2 or size & (size - 1):
        raise UsageError(f"grid size must be a power of two >= 2, got {size}")
    if size**d > GRID_CAP:
        raise ResourceLimitError(f"grid of {size**d} points exceeds cap {GRID_CAP}")
    ff = f.to_float()
    vals = symbol_grid(ff, (size,) * d)
    vmin = float(np.abs(vals).min())
    if vmin < ZERO_TOL:
        kmin, vmin = _grid_min(vals)
        return _inconclusive("fft-candidate", {
            "size": size,
            "flagged_frequency": list(kmin),
            "flagged_angle": [2 * math.pi * k / size for k in kmin],
            "flagged_value": vmin,
        }, "symbol sample within zero tolerance; suspected non-invertible")
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
    flat = np.flatnonzero(mags > CHOP_REL * float(mags.max()))
    rev = np.unravel_index(flat, mags.shape)  # the axes of coeff, last first
    order = np.lexsort(rev)
    idx = tuple(i[order] for i in reversed(rev))
    keys = zip(*(np.where(i >= (size + 1) // 2, i - size, i).tolist() for i in idx))
    g = _make(group, False, dict(zip(keys, (coeff[idx] / size**d).tolist())))
    residual = float((convolve(g, ff) - identity_element(group)).norm())
    return _verified("fft-candidate", {"size": size, "chop": CHOP_REL, "grid_min": vmin},
                     g, residual, tol, "candidate residual above tolerance; increase the grid")


def _laurent_roots(f: AlgebraElement) -> np.ndarray:
    """Roots of the rank-one symbol polynomial via the companion matrix."""
    import numpy as np
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
    non-invertibility with the offending angle as witness; a degree span
    over ROOT_SPAN_CAP is not searched for roots.  Anything else is
    inconclusive and the diagnostics say how close the call was.
    """
    group = _lattice_only(f, "wiener_certify")
    d = group.rank
    grid = _integer(grid, "grid")
    if inverse_size is not None:
        inverse_size = _integer(inverse_size, "inverse size")
    if grid < 2:
        raise UsageError(f"grid must have at least 2 points per axis, got {grid}")
    if grid**d > GRID_CAP:
        raise ResourceLimitError(f"grid of {grid**d} points exceeds cap {GRID_CAP}")
    if f.is_zero:
        return _refuted("wiener-grid", {"grid": grid, "grid_min": 0.0, "lipschitz": 0.0,
                                        "margin": 0.0, "witness_angle": [0.0] * d,
                                        "witness_value": 0.0})
    ff = f.to_float()
    _, grid_min = _grid_min(symbol_grid(ff, (grid,) * d))
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
        size = _default_inverse_size(d) if inverse_size is None else inverse_size
        while size <= MAX_INVERSE_SIZE:
            candidate = invert_via_fft(ff, size, tol=tol)
            if candidate.invertible:
                fields["inverse_size"] = size
                return replace(candidate, kind="wiener-grid", fields=fields)
            size *= 2
            if size**d > GRID_CAP:
                break  # the requested size is always tried; doublings stay within the cap
        return _inconclusive("wiener-grid", fields, "margin is positive but no inverse met "
                             "the tolerance up to the size cap")

    # The companion-matrix eigensolve is O(span^3) in time and O(span^2) in
    # memory, so it runs only here, where a root is the sole remaining way to
    # a verdict, and only up to ROOT_SPAN_CAP.
    if d == 1:
        support = ff.support  # in increasing degree
        span = support[-1][0] - support[0][0]
        if span > ROOT_SPAN_CAP:
            return _inconclusive("wiener-grid", fields, f"margin not positive and the degree "
                                 f"span {span} exceeds ROOT_SPAN_CAP = {ROOT_SPAN_CAP}, "
                                 "so no root witness was sought")
    import numpy as np
    roots = _laurent_roots(ff) if d == 1 else np.array([], dtype=complex)
    if roots.size:
        dists = np.abs(np.abs(roots) - 1.0)
        k = int(np.argmin(dists))
        if dists[k] <= CIRCLE_TOL:
            z = complex(roots[k])
            angle = cmath.phase(z)
            fields.update(witness_angle=angle, witness_value=abs(fourier_eval(ff, (angle,))),
                          root={"re": z.real, "im": z.imag}, circle_tol=CIRCLE_TOL)
            return _refuted("wiener-grid", fields)
        fields["closest_root_distance"] = float(dists[k])
    return _inconclusive("wiener-grid", fields,
                         "margin not positive and no unit-circle root witness")


# ---------------------------------------------------------------------------
# Neumann series (any group, weighted)


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
                   terms: int = 40, tol: float = 1e-10) -> InvertibilityCertificate:
    """Geometric-series inverse around a dominant support point.

    Write f = u + rest with u the pivot term.  When the weighted norm of
    r = e - u^-1 * f is below one, the truncated series
    (e + r + ... + r^terms) * u^-1 approximates the inverse with tail bound
    |u^-1| * ratio^(terms+1) / (1 - ratio); both residuals are verified.
    The pivot is the support point of least ratio (ties to the first in
    sort_key order), since the ratio sets both convergence and tail bound.
    """
    if f.is_zero:
        raise UsageError("cannot invert the zero element")
    terms = _integer(terms, "terms")
    if terms < 0:
        raise UsageError(f"terms must be >= 0, got {terms}")
    w = weight if weight is not None else ConstantWeight(1)
    group = f.group
    e = identity_element(group, exact=f.exact)

    best = None
    for a in f.support:
        u_inv = delta(group, group.inv(a), 1 / f.amplitude(a), exact=f.exact)
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

    partial = e
    for _ in range(terms):
        partial = e + convolve(r, partial)
    g = convolve(partial, u_inv)
    left, right = _residuals(f, g, w)
    fields.update(tail_bound=_tail_bound(u_inv.norm(w), ratio, terms),
                  left_residual=_to_float(left), right_residual=_to_float(right))
    return _verified("neumann-series", fields, g, max(left, right), tol,
                     "series converges but the truncation is above tolerance")


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

    A singular quotient, one whose |symbol| minimum is at most SINGULAR_TOL,
    certifies non-invertibility (the quotient symbol vanishes at an exact
    rational frequency); nonsingular quotients are evidence only.  Moduli
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
        mods = tuple(_integer(m, "modulus") for m in entry_mods)
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
                nonsingular=vmin > SINGULAR_TOL,
                min_modulus=vmin,
                frequency=kmin,
                angles=tuple(2 * math.pi * k / m for k, m in zip(kmin, mods)),
            )
        )
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
