import json
import math
import random
import sys
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from galab import invertibility
from galab.cli import main
from galab.algebra import (
    AlgebraElement,
    QComplex,
    canonical_json,
    convolve,
    delta,
    element_from_json,
    element_to_json,
    identity_element,
    _minus_identity,
)
from galab.errors import ResourceLimitError, UsageError
from galab.groups import (
    CayleyGroup,
    FreeGroup,
    LatticeGroup,
    cyclic_group,
    dihedral_group,
    quaternion_group,
    symmetric_group,
)
from galab.invertibility import (
    CHOP_REL,
    MAX_INVERSE_SIZE,
    _corner_exceeds,
    _fft_candidate,
    _grid_min,
    _solve_exact,
    auto_invert,
    invert_finite,
    invert_via_fft,
    neumann_invert,
    probe_quotients,
    verify_direct_finiteness,
    wiener_certify,
)
from galab.operators import fourier_eval, symbol_grid
from galab.weights import (
    ConstantWeight,
    ExpDirectionalWeight,
    ExpSymmetricWeight,
    PolynomialWeight,
    ProductWeight,
    TableWeight,
)

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import workloads  # noqa: E402

Z = LatticeGroup(1)


# ---------------------------------------------------------------------------
# finite groups, exact arithmetic


def test_all_ones_on_z2_is_singular_with_exact_kernel():
    c2 = cyclic_group(2)
    f = delta(c2, 0, 1, exact=True) + delta(c2, 1, 1, exact=True)
    cert = invert_finite(f)
    assert cert.verdict == "not-invertible"
    assert cert.exit_code == 2
    kernel = cert.fields["kernel"]
    amps = {t["x"]: Fraction(t["re"]) for t in kernel["terms"]}
    assert amps[0] == -amps[1] != 0
    assert cert.fields["kernel_residual"] == 0


def test_invert_on_z3_exact_residual_zero():
    c3 = cyclic_group(3)
    f = delta(c3, 0, 2, exact=True) + delta(c3, 1, 1, exact=True)
    cert = invert_finite(f)
    assert cert.verdict == "invertible"
    assert cert.residual == 0
    assert isinstance(cert.residual, Fraction)
    # 9 * g = (4 d0 - 2 d1 + d2) solves (2 d0 + d1) * g = d0 on Z/3
    g = cert.inverse
    assert g.amplitude(0) == QComplex.of(Fraction(4, 9))
    assert g.amplitude(1) == QComplex.of(Fraction(-2, 9))
    assert g.amplitude(2) == QComplex.of(Fraction(1, 9))


def test_exact_solve_takes_amplitudes_past_the_float_range():
    big = 10**400
    f = delta(cyclic_group(3), 0, big, exact=True) + delta(cyclic_group(3), 1, 1, exact=True)
    cert = invert_finite(f)
    assert cert.verdict == "invertible" and cert.residual == 0
    assert cert.inverse.amplitude(0) == QComplex.of(Fraction(big**2, big**3 + 1))
    with pytest.raises(UsageError, match="beyond the float range"):
        f.to_float()


def test_random_exact_inverts_on_s3_have_zero_residual():
    s3 = symmetric_group(3)
    rng = random.Random(71)
    seen_invertible = 0
    for _ in range(30):
        terms = {
            rng.randrange(6): QComplex.of(Fraction(rng.randrange(-4, 5), rng.randrange(1, 5)))
            for _ in range(3)
        }
        f = AlgebraElement(s3, terms, True)
        if f.is_zero:
            continue
        cert = invert_finite(f)
        if cert.verdict == "invertible":
            seen_invertible += 1
            assert cert.residual == 0
            e = identity_element(s3, exact=True)
            assert convolve(cert.inverse, f) == e
            assert convolve(f, cert.inverse) == e
        else:
            witness = cert.fields["kernel"]
            assert witness["terms"]  # nonzero annihilator recorded
    assert seen_invertible >= 10


def test_invert_finite_float_mode():
    c4 = cyclic_group(4)
    f = delta(c4, 0, 2.0) + delta(c4, 1, 0.5)
    cert = invert_finite(f)
    assert cert.verdict == "invertible"
    assert cert.kind == "float-finite"
    assert cert.fields["scalars"] == "float"
    assert cert.residual <= 1e-10

    ones = AlgebraElement(c4, {i: 1.0 for i in range(4)}, False)
    sing = invert_finite(ones)
    assert sing.verdict == "not-invertible"
    assert sing.kind == "float-finite"
    assert sing.fields["kernel_residual"] <= 1e-10


# C8 x C8 with element 8a + b standing for (a, b).
C8xC8 = CayleyGroup([[8 * ((i // 8 + j // 8) % 8) + (i + j) % 8 for j in range(64)]
                     for i in range(64)], identity=0, name="C8xC8")


@pytest.mark.parametrize(
    "group", [symmetric_group(3), dihedral_group(4), quaternion_group(), cyclic_group(48), C8xC8],
    ids=lambda g: g.name
)
def test_exact_and_float_finite_solves_agree(group):
    rng = random.Random(group.order)
    verdicts = set()
    for i in range(24):
        terms = {
            rng.randrange(group.order): QComplex.of(
                Fraction(rng.randrange(-4, 5), rng.randrange(1, 5))
            )
            for _ in range(3)
        }
        f = AlgebraElement(group, terms, True)
        if i % 3 == 0:
            # zero coefficient sum: the trivial representation kills f, so f is singular
            total = sum((amp for _, amp in f.items()), QComplex.of(0))
            f = f - delta(group, group.identity, total, exact=True)
        if f.is_zero:
            continue
        exact = invert_finite(f)
        approx = invert_finite(f.to_float())
        assert approx.verdict == exact.verdict
        verdicts.add(exact.verdict)
        if exact.invertible:
            gap = exact.inverse.to_float() - approx.inverse
            assert max((abs(v) for _, v in gap.items()), default=0.0) <= 1e-9
    assert verdicts == {"invertible", "not-invertible"}


def test_float_finite_solve_runs_one_svd(monkeypatch):
    calls = []
    svd = np.linalg.svd

    def counting_svd(*args, **kwargs):
        calls.append(args[0].shape)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    c4 = cyclic_group(4)
    assert invert_finite(AlgebraElement(c4, {i: 1.0 for i in range(4)}, False)).verdict == (
        "not-invertible"
    )
    assert len(calls) == 1
    assert invert_finite(delta(c4, 0, 2.0) + delta(c4, 1, 0.5)).verdict == "invertible"
    assert len(calls) == 2


def test_float_finite_solve_runs_on_the_identity_block(monkeypatch):
    # Support {5, 17, 29} in C48: K = <12> has order 4, so the SVD sees one
    # 4 x 4 block, not the 48 x 48 group matrix.
    shapes = []
    svd = np.linalg.svd

    def spy(*args, **kwargs):
        shapes.append(args[0].shape)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", spy)
    c48 = cyclic_group(48)
    f = AlgebraElement(c48, {5: 3.0, 17: -0.5, 29: 1j}, False)
    cert = invert_finite(f)
    assert cert.verdict == "invertible" and cert.residual <= 1e-10
    assert shapes == [(4, 4)]
    assert set(cert.inverse.support) <= {7, 19, 31, 43}
    # d5 - d29 has K = {0, 24}: the witness is the 2 x 2 block's kernel
    # vector, with no SVD noise on the other 46 points.
    sing = invert_finite(delta(c48, 5, 1.0) - delta(c48, 29, 1.0))
    assert sing.verdict == "not-invertible" and sing.fields["kernel_residual"] <= 1e-10
    assert len(sing.fields["kernel"]["terms"]) == 2
    c8 = cyclic_group(8)
    sing = invert_finite(delta(c8, 2, 1.0) - delta(c8, 6, 1.0))
    assert sing.verdict == "not-invertible" and sing.fields["kernel_residual"] <= 1e-10
    assert {t["x"] for t in sing.fields["kernel"]["terms"]} == {2, 6}


# Reference for the fraction-free solver: textbook Gauss-Jordan over
# Gaussian rationals written as (re, im) pairs of Fractions.

F0, F1 = Fraction(0), Fraction(1)


def _cadd(a, b):
    return (a[0] + b[0], a[1] + b[1])


def _cmul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def _cinv(a):
    d = a[0] * a[0] + a[1] * a[1]
    return (a[0] / d, -a[1] / d)


def reference_solve(rows, rhs):
    n = len(rows)
    aug = [list(row) + [b] for row, b in zip(rows, rhs)]
    pivots = []
    for c in range(n):
        r = len(pivots)
        pr = next((i for i in range(r, n) if aug[i][c] != (F0, F0)), None)
        if pr is None:
            continue
        aug[r], aug[pr] = aug[pr], aug[r]
        inv = _cinv(aug[r][c])
        aug[r] = [_cmul(v, inv) for v in aug[r]]
        for i in range(n):
            f = aug[i][c]
            if i != r and f != (F0, F0):
                minus_f = (-f[0], -f[1])
                aug[i] = [_cadd(v, _cmul(minus_f, w)) for v, w in zip(aug[i], aug[r])]
        pivots.append(c)
    if len(pivots) == n:
        return "solution", [aug[i][n] for i in range(n)]
    free = min(set(range(n)) - set(pivots))
    vec = [(F0, F0)] * n
    vec[free] = (F1, F0)
    for i, pc in enumerate(pivots):
        vec[pc] = (-aug[i][free][0], -aug[i][free][1])
    return "singular", vec


_rationals = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 9))


@st.composite
def square_systems(draw):
    """(rows, rhs, singular): real or Gaussian, about half the entries zero."""
    n = draw(st.integers(1, 9))
    gaussian = draw(st.booleans())
    entry = st.one_of(st.just(F0), _rationals)

    def number():
        return (draw(entry), draw(entry) if gaussian else F0)

    rows = [[number() for _ in range(n)] for _ in range(n)]
    rhs = [number() for _ in range(n)]
    singular = draw(st.booleans())
    if singular and n == 1:
        rows[0][0] = (F0, F0)
    elif singular:
        # column j becomes a combination of two other columns
        j = draw(st.integers(0, n - 1))
        others = st.sampled_from([k for k in range(n) if k != j])
        k, m, a, b = draw(others), draw(others), number(), number()
        for row in rows:
            row[j] = _cadd(_cmul(a, row[k]), _cmul(b, row[m]))
    return rows, rhs, singular


def _block_system(f):
    """(rows, rhs, False): the one block invert_finite eliminates for an f whose
    support spans its group, as Fraction pairs.  With y0 = f's first support
    point, column c holds f(y) in the row labelled c*y*y0^-1, and b is 1 in
    the row labelled y0^-1."""
    group = f.group
    y0_inv = group.inv(f.support[0])
    rows = [[(F0, F0)] * group.order for _ in range(group.order)]
    for y, amp in f.items():
        s = group.mul(y, y0_inv)
        for c in range(group.order):
            rows[group.mul(c, s)][c] = (amp.re, amp.im)
    return rows, [(F1 if r == y0_inv else F0, F0) for r in range(group.order)], False


def _two_term(group, y, a, z, b):
    return AlgebraElement(group, {y: QComplex.of(*a), z: QComplex.of(*b)}, True)


C4xC4 = CayleyGroup([[4 * ((i // 4 + j // 4) % 4) + (i + j) % 4 for j in range(16)]
                     for i in range(16)], identity=0, name="C4xC4")

# Row 2 skips steps 0 and 1, so it becomes the pivot of column 2 at a stale
# scale and is rescaled; column 3 = column 0 - column 2 is then the first free one.
_STALE_THEN_FREE = [[2, 1, 1, 1], [1, 3, 0, 1], [0, 0, 5, -5], [4, 2, 2, 2]]


# The blocks the benchmark eliminates, at their full sizes, and a singular one.
@example(_block_system(AlgebraElement(C4xC4, {y: QComplex.of(Fraction(y - 7, y % 5 + 1),
                                                             Fraction(3 - y, y % 3 + 2))
                                              for y in range(16)}, True)))
@example(_block_system(_two_term(cyclic_group(48), 5, (Fraction(1, 2), Fraction(1, 3)),
                                 6, (Fraction(-2, 7), Fraction(3, 4)))))
@example(_block_system(_two_term(cyclic_group(64), 3, (Fraction(5, 3), 0),
                                 8, (Fraction(-4, 9), 0))))
@example(([[(Fraction(v), F0) for v in row] for row in _STALE_THEN_FREE],
          [(F1, F0), (F0, F0), (F0, F0), (F0, F0)], True))
@given(square_systems())
@settings(max_examples=150, deadline=None)
def test_fraction_free_solve_matches_reference_gauss_jordan(system):
    rows, rhs, singular = system
    # Each augmented row times the LCM of its denominators: the same solutions.
    mat = []
    for row in (row + [b] for row, b in zip(rows, rhs)):
        lcm = math.lcm(*(part.denominator for v in row for part in v))
        mat.append([(re.numerator * (lcm // re.denominator), im.numerator * (lcm // im.denominator))
                    for re, im in row])
    gaussian = any(im for row in mat for _, im in row)
    if not gaussian:
        mat = [[re for re, _ in row] for row in mat]
    status, den, vec = _solve_exact(mat, gaussian)
    assert isinstance(den, int) and den > 0
    want_status, want_vec = reference_solve(rows, rhs)
    assert status == want_status
    if not gaussian:
        vec = [(v, 0) for v in vec]
    assert [(Fraction(re, den), Fraction(im, den)) for re, im in vec] == want_vec
    if singular:
        assert status == "singular"


@pytest.mark.parametrize(
    "group, gaussian",
    [(dihedral_group(32), False), (cyclic_group(64), False), (C8xC8, True)],
    ids=["D32", "C64", "C8xC8"],
)
def test_exact_inverse_at_order_64_has_zero_residuals(group, gaussian):
    rng = random.Random(group.name)
    terms = {
        rng.randrange(group.order): QComplex.of(
            Fraction(rng.randrange(-9, 10), rng.randrange(1, 9)),
            Fraction(rng.randrange(-9, 10), rng.randrange(1, 9)) if gaussian else 0,
        )
        for _ in range(4)
    }
    f = AlgebraElement(group, terms, True)
    assert f.n_terms >= 3
    cert = invert_finite(f)
    assert cert.verdict == "invertible"
    assert cert.fields["left_residual"] == 0 and isinstance(cert.fields["left_residual"], Fraction)
    assert cert.fields["right_residual"] == 0
    assert cert.residual == 0


def test_forward_elimination_combines_each_pair_of_rows_once(monkeypatch):
    # Every entry of the 8 x 8 block of a full-support element on C8 is
    # nonzero and stays so, so no row skips a step: each step combines the
    # rows below its pivot, n(n-1)/2 = 28 in all, and no pivot row is rescaled.
    c8 = cyclic_group(8)
    f = AlgebraElement(c8, {y: QComplex.of(Fraction(y * y + 3, y + 2)) for y in range(8)}, True)
    factors = []
    combine = invertibility._integer_combine

    def spy(p, factor, d, xs, ys):
        factors.append(factor)
        return combine(p, factor, d, xs, ys)

    monkeypatch.setattr(invertibility, "_integer_combine", spy)
    cert = invert_finite(f)
    assert cert.verdict == "invertible" and cert.residual == 0
    assert len(factors) == 28 and all(factors)


def test_singular_gaussian_element_has_exact_kernel_witness():
    # On C4, (1 + i x)/2 vanishes at the character x -> i.
    c4 = cyclic_group(4)
    half, half_i = QComplex.of(Fraction(1, 2)), QComplex.of(0, Fraction(1, 2))
    on_c4 = AlgebraElement(c4, {0: half, 1: half_i}, True)
    # On S3, h * (d_e - d_s) is a zero divisor for any h.
    s3 = symmetric_group(3)
    h = AlgebraElement(s3, {1: QComplex.of(Fraction(2, 3), Fraction(-1, 5)), 4: half_i}, True)
    on_s3 = convolve(h, delta(s3, 0, exact=True) - delta(s3, 3, exact=True))
    for f in (on_c4, on_s3):
        cert = invert_finite(f)
        assert cert.verdict == "not-invertible"
        assert cert.kind == "exact-finite"
        assert cert.fields["kernel"]["terms"]
        assert cert.fields["kernel_residual"] == 0
        assert isinstance(cert.fields["kernel_residual"], Fraction)


def whole_matrix_solve(f):
    """(verdict, g) from one elimination of the whole n x n group matrix."""
    group, n = f.group, f.group.order
    den, terms = f.numerators()
    zero, one = ((0, 0), (den, 0)) if f.gaussian else (0, den)
    mat = [[zero] * (n + 1) for _ in range(n)]
    for y, amp in terms.items():
        for u in range(n):
            mat[group.mul(u, y)][u] = amp
    mat[group.identity][n] = one
    status, den, vec = _solve_exact(mat, f.gaussian)
    g = AlgebraElement.from_numerators(group, dict(enumerate(vec)), den, f.gaussian)
    return ("invertible" if status == "solution" else "not-invertible"), g


def _seeded_element(group, rng, k, gaussian, zero_divisor):
    def amp():
        return QComplex.of(Fraction(rng.randrange(-9, 10), rng.randrange(1, 9)),
                           Fraction(rng.randrange(-9, 10), rng.randrange(1, 9)) if gaussian else 0)

    f = AlgebraElement(group, {y: amp() for y in rng.sample(range(group.order), k)}, True)
    if zero_divisor:
        # h * (d_e - d_s) is a zero divisor for any h and any s != e
        s = rng.randrange(1, group.order)
        f = convolve(f, delta(group, group.identity, exact=True) - delta(group, s, exact=True))
    return f


def _spy_block_sizes(monkeypatch):
    sizes = []

    def spy(mat, gaussian):
        sizes.append(len(mat))
        return _solve_exact(mat, gaussian)

    monkeypatch.setattr(invertibility, "_solve_exact", spy)
    return sizes


def _support_subgroup(f):
    """K, generated by y * y0^-1 for y in the support of f."""
    group = f.group
    y0_inv = group.inv(f.support[0])
    gens = [group.mul(y, y0_inv) for y in f.support]
    sub = {group.identity}
    while True:
        grown = sub | {group.mul(x, s) for x in sub for s in gens}
        if grown == sub:
            return sub
        sub = grown


def _identity_block(f):
    """y0^-1 K, the coset whose block invert_finite solves; {e} for the zero element."""
    group = f.group
    if f.is_zero:
        return {group.identity}
    y0_inv = group.inv(f.support[0])
    return {group.mul(y0_inv, k) for k in _support_subgroup(f)}


def _block_witness(cert, f):
    """The kernel witness of a not-invertible cert, checked against the block contract:
    exact, nonzero, witness*f = 0, and on y0^-1 K."""
    assert cert.verdict == "not-invertible" and cert.kind == "exact-finite"
    g = element_from_json(cert.fields["kernel"])
    assert g.exact and not g.is_zero
    assert convolve(g, f).is_zero and cert.fields["kernel_residual"] == 0
    assert set(g.support) <= _identity_block(f)


@pytest.mark.parametrize("group", [C8xC8, dihedral_group(16), cyclic_group(48),
                                   symmetric_group(4)], ids=["C8xC8", "D16", "C48", "S4"])
@pytest.mark.parametrize("gaussian", [False, True], ids=["real", "gaussian"])
@pytest.mark.parametrize("zero_divisor", [False, True], ids=["unit", "zero-divisor"])
def test_block_solve_matches_whole_matrix_elimination(group, gaussian, zero_divisor,
                                                      monkeypatch):
    rng = random.Random(f"{group.name}-{gaussian}-{zero_divisor}")
    elements = [_seeded_element(group, rng, k, gaussian, zero_divisor)
                for k in (1, 2, 2, 3, 3, 4)]
    if not zero_divisor:
        elements.append(identity_element(group, exact=True) * 0)  # the zero element
    sizes = _spy_block_sizes(monkeypatch)
    for f in elements:
        verdict, g = whole_matrix_solve(f)
        sizes.clear()
        cert = invert_finite(f)
        assert cert.verdict == verdict
        if verdict == "invertible":
            assert element_to_json(cert.inverse) == element_to_json(g)
        else:
            _block_witness(cert, f)
        # One block is eliminated, |K| x |K|; K is {e} for the zero element.
        assert sizes == [len(_identity_block(f))]


def test_kernel_witness_is_the_identity_blocks_own_kernel_vector(monkeypatch):
    # On C8, d2 - d6 has K = {0, 4} and y0^-1 K = {2, 6}; that block is
    # [[1, -1], [-1, 1]], whose first free column gives d2 + d6.  Whole-matrix
    # elimination would give a vector on {0, 4}, another coset's block.
    c8 = cyclic_group(8)
    f = delta(c8, 2, exact=True) - delta(c8, 6, exact=True)
    sizes = _spy_block_sizes(monkeypatch)
    cert = invert_finite(f)
    _block_witness(cert, f)
    assert cert.fields["kernel"] == element_to_json(delta(c8, 2, exact=True)
                                                    + delta(c8, 6, exact=True))
    assert sizes == [2]


def test_zero_element_kernel_is_the_identity_delta(monkeypatch):
    # C3 with identity 1: the zero element's only block is the 1 x 1 block
    # of the identity, so its witness is delta(1), not the first column.
    c3 = CayleyGroup([[2, 0, 1], [0, 1, 2], [1, 2, 0]], identity=1)
    f = AlgebraElement.zero(c3, exact=True)
    sizes = _spy_block_sizes(monkeypatch)
    cert = invert_finite(f)
    _block_witness(cert, f)
    assert cert.fields["kernel"] == element_to_json(delta(c3, 1, exact=True))
    assert sizes == [1]


def test_inverse_of_an_element_on_a_proper_subgroup_coset_lives_on_its_block():
    # Support {5, 17, 29} in C48: K = <12> has order 4 and y0^-1 K = {7, 19, 31, 43}.
    c48 = cyclic_group(48)
    f = AlgebraElement(c48, {5: QComplex.of(3), 17: QComplex.of(Fraction(-1, 2)),
                             29: QComplex.of(0, 1)}, True)
    assert sorted(_support_subgroup(f)) == [0, 12, 24, 36]
    cert = invert_finite(f)
    assert cert.verdict == "invertible" and cert.residual == 0
    assert set(cert.inverse.support) <= {7, 19, 31, 43}
    assert cert.inverse == whole_matrix_solve(f)[1]


def test_invert_finite_rejects_lattice_input():
    with pytest.raises(UsageError):
        invert_finite(delta(Z, (0,)))


_GEOMETRIC = delta(Z, (0,), 2.0) + delta(Z, (1,))


@pytest.mark.parametrize("call, error, match", [
    (lambda: invert_finite(delta(cyclic_group(257), 0, 2.0)), ResourceLimitError,
     "group order 257 exceeds cap 256"),
    (lambda: wiener_certify(_GEOMETRIC, grid=1), UsageError, "at least 2 points per axis"),
    # 2049^2 = 4,198,401 points, just past GRID_CAP = 2^22.
    (lambda: wiener_certify(delta(LatticeGroup(2), (0, 0), 2.0), grid=2049), ResourceLimitError,
     "grid of 4198401 points exceeds cap"),
    (lambda: neumann_invert(_GEOMETRIC, terms=-1), UsageError, "terms must be >= 0"),
    (lambda: invert_via_fft(delta(FreeGroup(1), (), 2.0)), UsageError,
     "invert_via_fft needs a lattice element"),
], ids=["finite-order-cap", "grid-below-2", "grid-cap", "negative-terms", "fft-free-group"])
def test_oracles_refuse_arguments_out_of_range(call, error, match):
    with pytest.raises(error, match=match):
        call()


# ---------------------------------------------------------------------------
# symbol certification on Z.  Oracle for the flagship example: the geometric
# series (2 d0 + d1)^-1 has coefficients g(n) = (-1)^n 2^-(n+1), n >= 0.


def geometric_inverse_coefficient(n):
    return (-1) ** n * 2.0 ** -(n + 1)


def test_wiener_certificate_for_two_delta():
    f = delta(Z, (0,), 2) + delta(Z, (1,))
    cert = wiener_certify(f, grid=64)
    assert cert.verdict == "invertible"
    assert cert.fields["grid_min"] == 1.0
    assert cert.fields["lipschitz"] == 1.0
    assert cert.fields["margin"] == 1 - math.pi / 64
    assert cert.residual <= 1e-12
    g = cert.inverse
    for n in range(41):
        assert abs(g.amplitude((n,)) - geometric_inverse_coefficient(n)) <= 1e-12


def test_fft_inverse_matches_geometric_series():
    f = delta(Z, (0,), 2) + delta(Z, (1,))
    cert = invert_via_fft(f, 512)
    assert cert.verdict == "invertible"
    g = cert.inverse
    for n in range(41):
        assert abs(g.amplitude((n,)) - geometric_inverse_coefficient(n)) <= 1e-12
    assert float((convolve(g, f.to_float()) - identity_element(Z)).norm()) <= 1e-12


def test_fft_single_delta_inverts_to_opposite_delta():
    cert = invert_via_fft(delta(Z, (1,)), 64)
    assert cert.verdict == "invertible"
    assert cert.inverse.support == ((-1,),)
    assert abs(cert.inverse.amplitude((-1,)) - 1) <= 1e-12


def test_fft_requires_power_of_two():
    with pytest.raises(UsageError):
        invert_via_fft(delta(Z, (0,)), 100)


def test_fft_flags_vanishing_symbol():
    f = delta(Z, (0,)) - delta(Z, (1,))
    cert = invert_via_fft(f, 64)
    assert cert.verdict == "inconclusive"
    assert cert.fields["flagged_frequency"] == [0]
    assert cert.fields["flagged_value"] <= 1e-12


def test_difference_filter_root_witness():
    f = delta(Z, (0,)) - delta(Z, (1,))
    cert = wiener_certify(f)
    assert cert.verdict == "not-invertible"
    root = cert.fields["root"]
    assert abs(abs(complex(root["re"], root["im"])) - 1) <= 1e-12
    assert abs(cert.fields["witness_angle"]) <= 1e-12
    assert cert.fields["witness_value"] <= 1e-12
    assert cert.exit_code == 2


def test_wiener_inconclusive_without_witness():
    # 1 - z/0.99 has its root at radius 0.99: the margin is not positive, but
    # the least |symbol| on the circle is 1/0.99 - 1, at angle 0.
    f = delta(Z, (0,), 1.0) - delta(Z, (1,), 1 / 0.99)
    cert = wiener_certify(f)
    assert cert.verdict == "inconclusive"
    assert cert.exit_code == 3
    assert cert.fields["refined_min"] == pytest.approx(1 / 0.99 - 1, rel=1e-9)


class _NoLinalg:
    def __getattr__(self, name):
        raise AssertionError(f"numpy.linalg.{name} called")


def test_wiener_rank_one_runs_no_eigensolve(monkeypatch):
    def no_roots(*args):
        raise AssertionError("numpy.roots called")

    monkeypatch.setattr(np, "roots", no_roots)
    monkeypatch.setattr(np, "linalg", _NoLinalg())
    # 1 + z^(10^12) and 2 + z^1000 cost the refinement O(terms), not the span.
    for f in (delta(Z, (0,)) + delta(Z, (10**12,)), delta(Z, (0,), 2) + delta(Z, (1000,))):
        cert = wiener_certify(f)
        assert cert.fields["margin"] <= 0
        assert cert.verdict == "inconclusive" and cert.fields["refined_min"] >= 1
    # 2 cos(t) - 3 is least at the grid point t = 0, where its derivative is 0.
    cert = wiener_certify(delta(Z, (-1,)) + delta(Z, (1,)) - delta(Z, (0,), 3), grid=4)
    assert cert.verdict == "inconclusive" and cert.fields["refined_min"] == 1
    # No span cap is left: 1 - z^8 and z^-4 - z^5 (span 9) have their witnesses.
    for f in (delta(Z, (0,)) - delta(Z, (8,)), delta(Z, (-4,)) - delta(Z, (5,))):
        cert = wiener_certify(f)
        assert cert.verdict == "not-invertible"
        assert abs(fourier_eval(f, (cert.fields["witness_angle"],))) <= invertibility.SINGULAR_TOL


@pytest.mark.parametrize("power", [1, 2], ids=["simple", "double"])
def test_wiener_refines_a_zero_between_grid_points(power):
    # 1 - 2 cos(0.3) z + z^2 vanishes at t = +-0.3, between the 64 grid
    # points; its square has double zeros there, which each step nears only
    # by half the distance.
    g = delta(Z, (0,), 1.0) - delta(Z, (1,), 2 * math.cos(0.3)) + delta(Z, (2,), 1.0)
    f = g if power == 1 else convolve(g, g)
    cert = wiener_certify(f)
    assert cert.verdict == "not-invertible"
    assert abs(abs(math.remainder(cert.fields["witness_angle"], 2 * math.pi)) - 0.3) <= 1e-5
    assert cert.fields["witness_value"] <= invertibility.SINGULAR_TOL


def test_wiener_near_root_off_the_circle_is_not_refuted():
    # Exact 1 - z + 10^-9 z^2 is invertible: its roots lie about 10^-9 off the
    # unit circle, and |symbol| >= 10^-9 - 10^-18 on it.  A root-distance
    # threshold of 1e-9 once called it not-invertible.
    f = (delta(Z, (0,), 1, exact=True) - delta(Z, (1,), 1, exact=True)
         + delta(Z, (2,), Fraction(1, 10**9), exact=True))
    cert = wiener_certify(f)
    assert cert.verdict == "inconclusive"
    assert cert.fields["refined_min"] == pytest.approx(1e-9, rel=1e-6)


@pytest.mark.parametrize("f, value", [
    (delta(Z, (0,), 2e-13) + delta(Z, (100,), 1e-13), 1e-13),
], ids=["small-scale"])
def test_wiener_refutation_is_relative_to_the_norm(f, value):
    # |symbol| >= value > 0 on the whole circle, so f is invertible, only
    # small: |symbol| is compared with SINGULAR_TOL * |f|_1, not SINGULAR_TOL.
    cert = wiener_certify(f)
    assert cert.fields["margin"] <= 0
    assert cert.verdict == "inconclusive" and cert.fields["refined_min"] == value
    # A singular element scaled as small keeps its witness.
    small = delta(Z, (0,), 1e-20) - delta(Z, (1,), 1e-20)
    assert wiener_certify(small).verdict == "not-invertible"


@pytest.mark.filterwarnings("error")
def test_probe_and_fft_zero_tests_are_relative_to_the_norm():
    # 1e-13 (2 + z): |symbol| >= 1e-13 on the whole circle, so f is
    # invertible.  An absolute 1e-12 once made its quotient by 3Z a singular
    # witness, and aborted its FFT candidate at every size from 512 to 4096.
    f = delta(Z, (0,), 2e-13) + delta(Z, (1,), 1e-13)
    report = probe_quotients(f, [3])
    assert not report.any_singular and report.to_certificate() is None
    assert report.to_json()["singular_tol"] == 1e-12
    assert invert_via_fft(f).verdict == "invertible"
    cert = wiener_certify(f)
    assert cert.verdict == "invertible" and cert.fields["inverse_size"] == 512
    assert cert.residual <= 1e-10
    # A singular element scaled as small is still caught by both.
    small = delta(Z, (0,), 1e-13) - delta(Z, (1,), 1e-13)
    assert probe_quotients(small, [3]).any_singular
    cert = invert_via_fft(small)
    assert cert.verdict == "inconclusive" and cert.fields["flagged_frequency"] == [0]


@pytest.mark.filterwarnings("error")  # numpy's overflow warnings would escape too
def test_an_fft_inverse_past_the_float_range_is_refused():
    # 5e-324 delta_0 is invertible, and its sample does not vanish relative
    # to |f|_1; but its inverse 2^1074 delta_0 is past the float range, at
    # every size.  The subnormal sample survives the grid.
    f = delta(Z, (0,), 5e-324)
    value = _grid_min(symbol_grid(f, (64,)))[1]
    assert value == 5e-324 and not invertibility._vanishes(value, f.norm())
    assert _margin_fields(f, 64)["margin"] > 0
    for oracle in (wiener_certify, invert_via_fft):
        with pytest.raises(UsageError, match="FFT inverse would overflow the float range"):
            oracle(f)
    assert not probe_quotients(f, [2, 3]).any_singular


@pytest.mark.filterwarnings("error")  # numpy's overflow warnings would escape too
def test_a_tiny_element_with_an_inverse_in_float_range_is_inverted():
    # The FFT runs on f over a power of two near |f|_1, so 1e-306 (2 + z),
    # whose inverse's coefficients are at most 1e306 / 2, is inverted.  A
    # bound of size^d / min |f^| on the unscaled transform refused it.
    f = delta(Z, (0,), 2e-306) + delta(Z, (1,), 1e-306)
    unit = delta(Z, (0,), 2.0) + delta(Z, (1,), 1.0)
    for oracle in (wiener_certify, invert_via_fft):
        cert = oracle(f)
        assert cert.verdict == "invertible" and cert.residual <= 1e-10
        assert max(abs(a) for _, a in cert.inverse.items()) <= 0.5e306 * (1 + 1e-12)
    # The terms are those of the unit element's inverse, scaled by 1e306.
    g, one = invert_via_fft(f).inverse, invert_via_fft(unit).inverse
    assert sorted(g.support) == sorted(one.support)
    for x, a in one.items():
        assert g.amplitude(x) == pytest.approx(a * 1e306, rel=1e-12, abs=1e-12 * 1e306)


@pytest.mark.filterwarnings("error")  # numpy's overflow warnings would escape too
def test_symbol_oracle_verdicts_do_not_depend_on_the_scale():
    # Each zero test is relative to |f|_1, and the rank-one refinement runs
    # on f over a power of two, so c f gets f's verdicts for every c here,
    # near both ends of the float range too.
    slots = {"r1-fast", "r1-zero", "r2-inv", "r2-vanish"}

    def verdicts(h, q):
        report = probe_quotients(h, [2, 3, 4, 6, 8, 12])
        return (wiener_certify(h, q["grid"]).verdict, invert_via_fft(h).verdict,
                report.any_singular, [p.nonsingular for p in report.probes])

    seen = set()
    for q, f in _lattice_queries(1, 1):
        if q["cat"] not in slots:
            continue
        expected = verdicts(f, q)
        seen.add((q["cat"],) + expected[:3])
        for k in (-290, -200, -100, -13, 0, 100, 200, 290):
            c = 10.0**k
            h = AlgebraElement(f.group, {x: c * v for x, v in f.items()}, False)
            assert verdicts(h, q) == expected, (q["id"], q["cat"], k)
    assert {cat for cat, *_ in seen} == slots
    assert {w for _, w, *_ in seen} == {"invertible", "not-invertible", "inconclusive"}
    assert {singular for *_, singular in seen} == {True, False}


@pytest.mark.filterwarnings("error")  # numpy's overflow warnings would escape too
@pytest.mark.parametrize("oracle", [
    lambda f: wiener_certify(f), lambda f: invert_via_fft(f), lambda f: probe_quotients(f, [3]),
], ids=["wiener", "fft", "probe"])
def test_an_l1_norm_past_the_float_range_is_refused(oracle):
    f = delta(Z, (0,), 1e308) + delta(Z, (1,), 1e308)
    with pytest.raises(UsageError, match="l1 norm overflows"):
        oracle(f)


def test_wiener_rank2():
    z2 = LatticeGroup(2)
    f = delta(z2, (0, 0), 4) + delta(z2, (1, 0)) + delta(z2, (0, 1))
    cert = wiener_certify(f, grid=32)
    assert cert.verdict == "invertible"
    assert cert.fields["grid_min"] == pytest.approx(2.0)
    assert cert.residual <= 1e-10


def test_zero_element_not_invertible():
    cert = wiener_certify(AlgebraElement.zero(Z))
    assert cert.verdict == "not-invertible"


def test_wiener_doubling_stops_at_grid_cap():
    # The inverse of 1 - 0.99 x decays too slowly for 512^2 .. 2048^2, and
    # 4096^2 points exceed GRID_CAP: the answer is inconclusive, not an error.
    z2 = LatticeGroup(2)
    f = delta(z2, (0, 0)) - delta(z2, (1, 0), 0.99)
    cert = wiener_certify(f, grid=512)
    assert cert.fields["margin"] > 0
    assert cert.verdict == "inconclusive"
    assert cert.exit_code == 3
    assert "up to the size cap" in cert.fields["reason"]


@pytest.mark.parametrize("f", [delta(Z, (0,)) - delta(Z, (1,)), delta(Z, (0,), 2) + delta(Z, (1,)),
                               AlgebraElement.zero(Z)], ids=["no-margin", "margin", "zero"])
def test_wiener_inverse_size_is_checked_whatever_the_element(f):
    # The size used to be checked only once the margin was positive, so a
    # vanishing symbol returned not-invertible on a size the others refuse.
    with pytest.raises(UsageError, match="power of two"):
        wiener_certify(f, inverse_size=100)
    f3 = AlgebraElement(LatticeGroup(3), {x + (0, 0): amp for x, amp in f.items()}, False)
    with pytest.raises(ResourceLimitError):
        wiener_certify(f3, inverse_size=512)  # 512^3 points exceed GRID_CAP


def test_wiener_tries_a_requested_size_past_the_doubling_limit():
    # 8192 is past MAX_INVERSE_SIZE but within GRID_CAP on Z: it is tried
    # once, and only its doublings stop at the limit.
    f = delta(Z, (0,), 2) + delta(Z, (1,))
    cert = wiener_certify(f, inverse_size=8192)
    assert cert.verdict == "invertible" and cert.fields["inverse_size"] == 8192
    assert cert.to_json()["inverse"] == invert_via_fft(f, 8192).to_json()["inverse"]


def test_wiener_positive_margin_skips_the_root_solve(monkeypatch):
    def no_refinement(f, theta, norm):
        raise AssertionError("zero refinement run on a positive margin")

    monkeypatch.setattr("galab.invertibility._refine_min", no_refinement)
    f = delta(Z, (0,), 2) + delta(Z, (3,), 0.5)
    cert = wiener_certify(f)
    assert cert.fields["margin"] > 0
    assert cert.verdict == "invertible"
    # A non-positive margin still needs the refinement.
    with pytest.raises(AssertionError, match="zero refinement"):
        wiener_certify(delta(Z, (0,)) - delta(Z, (1,)))


def test_default_inverse_size_fits_the_grid_cap():
    # The default grid has at most DEFAULT_INVERSE_POINTS = 2^16 points: Z
    # keeps 512, Z^2 starts from 256 and Z^3 from 32, where this inverse's
    # residual misses the tolerance and wiener_certify doubles once to 64.
    for d, first, certified in [(1, 512, 512), (2, 256, 256), (3, 32, 64)]:
        group = LatticeGroup(d)
        f = delta(group, (0,) * d, 2) + delta(group, (1,) + (0,) * (d - 1), 0.5)
        assert invert_via_fft(f).fields["size"] == first
        cert = wiener_certify(f)
        assert cert.verdict == "invertible" and cert.fields["inverse_size"] == certified
    with pytest.raises(ResourceLimitError):
        invert_via_fft(f, 512)
    with pytest.raises(ResourceLimitError):
        wiener_certify(f, inverse_size=512)
    # Rank one keeps 512, so its default certificate is the one asked for at 512.
    f = delta(Z, (0,), 2) + delta(Z, (1,), 0.5)
    assert wiener_certify(f).to_json() == wiener_certify(f, inverse_size=512).to_json()
    assert invert_via_fft(f).to_json() == invert_via_fft(f, 512).to_json()
    # Past rank 22 even 2 per axis exceeds GRID_CAP: the default size is
    # refused before any grid is built, as a given one is.
    f23 = delta(LatticeGroup(23), (0,) * 23, 2)
    with pytest.raises(ResourceLimitError, match="grid of 8388608 points exceeds cap"):
        invert_via_fft(f23)


def test_wiener_doubles_a_rank_two_default_size_that_misses():
    # Slot 14 of lattice-fft seed 5 (an r2-inv query) misses the tolerance
    # at the default 256 per axis and passes after one doubling, at 512.
    query = workloads.generate("lattice-fft", 5, n_cycles=1)[14]
    assert query["cat"] == "r2-inv"
    f = element_from_json(json.loads(query["element"]))
    tol = 1e-10
    assert not invert_via_fft(f, tol=tol).invertible
    cert = wiener_certify(f, query["grid"], tol=tol)
    assert cert.verdict == "invertible" and cert.fields["inverse_size"] == 512
    assert cert.residual <= tol


def _corner_products(g, f):
    """|g(x) f(y)| at the largest x, y, then at the smallest, in lexicographic
    order; a pair whose sum is the identity gives 0."""
    out = []
    for pick in (max, min):
        x, y = pick(g.support), pick(f.support)
        keep = any(a + b for a, b in zip(x, y))
        out.append(abs(g.amplitude(x) * f.amplitude(y)) if keep else 0.0)
    return out


def _margin_fields(f, grid):
    """wiener_certify's grid-scan fields, computed as its docstring states."""
    d = f.group.rank
    grid_min = _grid_min(symbol_grid(f, (grid,) * d))[1]
    lipschitz = float(sum(sum(map(abs, n)) * abs(amp) for n, amp in f.items()))
    spacing = 2 * math.pi / grid
    return {"grid": grid, "grid_min": grid_min, "lipschitz": lipschitz, "spacing": spacing,
            "margin": grid_min - lipschitz * (spacing / 2)}


def _sizes(d):
    """The doubling sizes of wiener_certify from the default, within both caps."""
    size = invert_via_fft(delta(LatticeGroup(d), (0,) * d)).fields["size"]
    while size <= MAX_INVERSE_SIZE and size**d <= invertibility.GRID_CAP:
        yield size
        size *= 2


def _lattice_queries(seed, n_cycles):
    for q in workloads.generate("lattice-fft", seed, n_cycles=n_cycles):
        yield q, element_from_json(json.loads(q["element"])).to_float()


def test_corner_rejection_is_sound_on_lattice_fft_elements():
    # Every candidate the corner test rejects, up to the size that passes,
    # has a full residual |g*f - e| of at least its corner product, above tol;
    # invert_via_fft keeps such a candidate unverified.
    tol, rejected = 1e-10, 0
    for seed in (1, 2):
        for q, f in _lattice_queries(seed, 1):
            if _margin_fields(f, q["grid"])["margin"] <= 0:
                continue
            for size in _sizes(f.group.rank):
                cert = invert_via_fft(f, size, tol=tol)
                g, _, _ = _fft_candidate(f, size)
                if _corner_exceeds(g, f, tol):
                    rejected += 1
                    assert cert.verdict == "inconclusive", (q["id"], size)
                    assert cert.residual is None and _bits(cert.inverse.items()) == _bits(g.items())
                    residual = float((convolve(g, f) - identity_element(f.group)).norm())
                    assert residual >= max(_corner_products(g, f)) > tol
                if cert.invertible:
                    break
    assert rejected >= 10  # the r1-slow slots start well below their passing sizes


def test_wiener_certify_matches_a_doubling_loop_that_verifies_every_size():
    # The reference verifies every candidate by its full residual; skipping
    # the convolution of a rejected candidate changes no output byte.
    compared = 0
    for q, f in _lattice_queries(7, 1):
        cert = wiener_certify(f, q["grid"])
        fields = _margin_fields(f, q["grid"])
        if fields["margin"] <= 0:
            assert "inverse_size" not in cert.fields  # the doubling loop never ran
            continue
        expected = _inconclusive_json(fields)
        for size in _sizes(f.group.rank):
            candidate = invert_via_fft(f, size)
            if candidate.invertible:
                found = candidate.to_json()
                expected = {"verdict": "invertible", "kind": "wiener-grid", **fields,
                            "inverse_size": size, "inverse": found["inverse"],
                            "residual": found["residual"]}
                break
        assert canonical_json(cert.to_json()) == canonical_json(expected), q["id"]
        compared += 1
    assert compared >= 10


def _inconclusive_json(fields):
    return {"verdict": "inconclusive", "kind": "wiener-grid", **fields,
            "reason": "margin is positive but no inverse met the tolerance up to the size cap",
            "inverse": None, "residual": None}


def _counting(monkeypatch):
    """Count invertibility.convolve's calls (with their g's size) and LatticeGroup.mul's."""
    seen, muls = [], [0]
    convolve_ = invertibility.convolve
    mul = LatticeGroup.mul

    def counted_convolve(h, f):
        seen.append(h.n_terms * f.n_terms)
        return convolve_(h, f)

    def counted_mul(self, a, b):
        muls[0] += 1
        return mul(self, a, b)

    monkeypatch.setattr(invertibility, "convolve", counted_convolve)
    monkeypatch.setattr(LatticeGroup, "mul", counted_mul)
    return seen, muls


def test_invert_via_fft_keeps_a_corner_rejected_candidate_unverified(monkeypatch):
    # 1 - 0.95z at 512: the corner product alone is above tol, so the
    # candidate is kept with no residual, and no convolution runs.
    f = delta(Z, (0,), 1.0) - delta(Z, (1,), 0.95)
    seen, muls = _counting(monkeypatch)
    cert = invert_via_fft(f, 512)
    assert (seen, muls) == ([], [0])
    assert cert.verdict == "inconclusive" and cert.residual is None
    assert cert.fields["reason"] == ("a corner product of the residual is above tolerance; "
                                     "increase the grid")
    assert _bits(cert.inverse.items()) == _bits(_fft_candidate(f, 512)[0].items())
    assert cert.to_json()["residual"] is None


def test_a_rejected_candidate_runs_no_convolution(monkeypatch):
    # 1 - 0.95z: the candidate at 512 misses by its corner product alone, so
    # the only convolution verifies the candidate at 1024.
    f = delta(Z, (0,), 1.0) - delta(Z, (1,), 0.95)
    assert _corner_exceeds(_fft_candidate(f, 512)[0], f, 1e-10)
    assert not invert_via_fft(f, 512).invertible
    seen, muls = _counting(monkeypatch)
    grids = []
    symbol_grid_ = invertibility.symbol_grid

    def counted_symbol_grid(f, sizes):
        grids.append(sizes)
        return symbol_grid_(f, sizes)

    def counted_candidate(ff, size):
        grids.append((size,))
        return _fft_candidate(ff, size)

    monkeypatch.setattr(invertibility, "symbol_grid", counted_symbol_grid)
    monkeypatch.setattr(invertibility, "_fft_candidate", counted_candidate)
    cert = wiener_certify(f)
    assert cert.verdict == "invertible" and cert.fields["inverse_size"] == 1024
    assert seen == [cert.inverse.n_terms * 2] and muls == [seen[0]]
    # The grid scan, then one candidate per size: each size's candidate is
    # built once, by the invert_via_fft call that judges it.  f is real, so
    # its candidates come from the half spectrum, not from symbol_grid.
    assert grids == [(64,), (512,), (1024,)]


def test_a_failing_candidate_the_corners_miss_is_verified(monkeypatch):
    # Slot 14 of lattice-fft seed 5 (r2-inv): its candidate at 256 per axis
    # has small corners but misses the tolerance, which only its full
    # residual shows; 512 then passes.
    query = workloads.generate("lattice-fft", 5, n_cycles=1)[14]
    f = element_from_json(json.loads(query["element"]))
    assert not _corner_exceeds(_fft_candidate(f, 256)[0], f, 1e-10)
    seen, _ = _counting(monkeypatch)
    cert = wiener_certify(f, query["grid"])
    assert cert.verdict == "invertible" and cert.fields["inverse_size"] == 512
    assert len(seen) == 2


def test_corner_test_skips_identity_corners_and_nan():
    f = delta(Z, (0,), 1.0) + delta(Z, (-1,), 1.0)
    # A product at the identity, where e cancels it, is not tested.
    assert not _corner_exceeds(delta(Z, (1,), 1.0), delta(Z, (-1,), 1.0), 1e-10)
    assert _corner_exceeds(delta(Z, (1,), 1e-9), f, 1e-10)
    assert not _corner_exceeds(delta(Z, (1,), 1e-11), f, 1e-10)
    # The largest corner, 1e-11 z, passes; the smallest, 1e-9 z^-3, does not.
    assert _corner_exceeds(delta(Z, (1,), 1e-11) + delta(Z, (-2,), 1e-9), f, 1e-10)
    assert not _corner_exceeds(delta(Z, (1,), math.nan), f, 1e-10)
    assert not _corner_exceeds(AlgebraElement.zero(Z), f, 1e-10)  # an empty candidate


def test_symbol_grid_matches_out_of_place_transform():
    # symbol_grid runs its last-axis pass on occupied lines only and returns
    # a column-major grid; the dense row-major transform is the reference,
    # on odd, even and mixed per-axis sizes.
    rng = random.Random("symbol-grid")
    z1 = LatticeGroup(1)
    z2 = LatticeGroup(2)
    square = [(1, 64), (2, 32), (3, 8), (2, 3), (2, 6), (2, 12)]  # then the probe moduli
    cases = [(_dominant_element(rng, LatticeGroup(d), 3), (size,) * d) for d, size in square]
    cases += [(_dominant_element(rng, LatticeGroup(len(s)), 3), s) for s in [(6, 4), (3, 5, 2)]]
    # On Z the grid is the one folded line, transformed in place: every probe modulus.
    cases += [(_dominant_element(rng, z1, 3 * m), (m,)) for m in range(2, 65)]
    cases += [
        (delta(z2, (1, 2), 0.5) + delta(z2, (1, -3), -1j), (4, 8)),  # two terms on one line
        (AlgebraElement(z2, {(i, i * i): 1 + i / 4 for i in range(5)}, False), (5, 7)),  # every line
        (AlgebraElement.zero(z2), (4, 4)),
        # exponents that fold onto one cell of the grid
        (AlgebraElement(z1, {(1,): 0.5, (9,): -0.25, (-7,): 1j}, False), (8,)),
        (AlgebraElement(z2, {(1, 2): 0.5, (5, 2): -0.25, (1, -2): 1j, (0, 0): 2.0}, False),
         (4, 4)),
        (AlgebraElement(z2, {(3, 0): 1.5, (0, 3): -1j, (0, 0): 0.25}, False), (3, 3)),
    ]
    for f, sizes in cases:
        arr = np.zeros(sizes, dtype=complex)
        for n, amp in f.items():
            arr[tuple(i % s for i, s in zip(n, sizes))] += amp
        expected = np.fft.ifftn(arr, norm="forward")
        grid = symbol_grid(f, sizes)
        assert grid.tobytes() == expected.tobytes(), (f, sizes)
        assert grid.flags.f_contiguous or len(sizes) == 1, (f, sizes)


def test_grid_min_is_the_first_minimum_in_c_order():
    # The grid is column-major, so its memory order is not C order: the
    # first minimum and the first NaN in C order come later in memory.
    grid = np.asfortranarray(np.full((3, 4), 2.0 + 1j))
    grid[1, 0] = grid[0, 3] = grid[2, 2] = 1.0  # tied minima
    assert _grid_min(grid) == ((0, 3), 1.0)
    grid[2, 1] = grid[1, 2] = np.nan
    k, value = _grid_min(grid)
    assert k == (1, 2) and math.isnan(value)
    # Seeded grids of rank 1 to 3, column- and row-major: ties are forced by
    # few distinct moduli or by copying the least value around, NaNs by
    # writing one or more; the reference reads the row-major moduli.
    rng = np.random.default_rng(7)
    for trial in range(600):
        shape = tuple(int(s) for s in rng.integers(1, 9, size=rng.integers(1, 4)))
        vals = rng.integers(0, 3, size=shape) + 1j * rng.integers(0, 2, size=shape)
        if trial % 3 == 0:
            vals = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            low = vals.flat[rng.integers(vals.size)] * 1e-3
            for _ in range(rng.integers(1, 4)):
                vals.flat[rng.integers(vals.size)] = low
        if trial % 4 == 1:
            for _ in range(rng.integers(1, 4)):
                vals.flat[rng.integers(vals.size)] = complex(np.nan, rng.integers(2))
        mags = np.abs(vals)
        first = np.unravel_index(int(np.argmin(mags)), shape)  # argmin: the first NaN, if any
        for grid in (np.asfortranarray(vals), np.ascontiguousarray(vals)):
            k, value = _grid_min(grid)
            assert type(value) is float and all(type(i) is int for i in k)
            assert k == first and mags[first].tobytes() == np.float64(value).tobytes()


def test_grid_min_does_not_copy_a_column_major_grid():
    # One real modulus grid is allocated; a copy into C order would be a second.
    f = delta(LatticeGroup(2), (0, 0), 2.0) + delta(LatticeGroup(2), (1, 3), 0.5)
    grid = symbol_grid(f, (512, 512))
    assert grid.flags.f_contiguous
    tracemalloc.start()
    try:
        k, value = _grid_min(grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * grid.size * np.dtype(float).itemsize
    first = np.unravel_index(int(np.argmin(np.abs(np.ascontiguousarray(grid)))), grid.shape)
    assert k == first and value == abs(grid[first])


def test_fft_candidate_is_a_valid_element_with_no_zero_amplitude():
    # invert_via_fft builds its candidate without the constructor's checks.
    rng = random.Random("fft-candidate")
    z1 = LatticeGroup(1)
    certs = [invert_via_fft(_dominant_element(rng, LatticeGroup(d), 3)) for d in (1, 2)]
    slow = wiener_certify(AlgebraElement(z1, {(0,): 1.5, (1,): -1.5 * 0.94}, False), 1024)
    assert slow.fields["inverse_size"] > 512  # a failed doubling built a candidate too
    for cert in certs + [slow]:
        assert cert.verdict == "invertible"
        g = cert.inverse
        assert g == AlgebraElement(g.group, dict(g.items()), False)
        assert all(amp != 0 for _, amp in g.items())


def _fft_inverse_peak(f, size):
    """The verdict of invert_via_fft(f, size) and the peak of traced memory during it."""
    tracemalloc.start()
    try:
        cert = invert_via_fft(f, size)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return cert.verdict, peak


def test_fft_inverse_peak_memory_below_three_grids():
    # The samples, their moduli, the reciprocals and the transform used to be
    # live together; now the division and the transform run in place.
    f = delta(LatticeGroup(2), (0, 0), 2) + delta(LatticeGroup(2), (1, 0), 0.5)
    grid_bytes = 1024 * 1024 * np.dtype(complex).itemsize
    verdict, peak = _fft_inverse_peak(f, 1024)
    assert verdict == "invertible"
    assert peak < 3 * grid_bytes


def test_complex_fft_inverse_peak_memory_below_three_grids():
    # The complex twin of the test above: a complex element keeps the full
    # complex grid, and its division and transform still run in place.
    f = delta(LatticeGroup(2), (0, 0), 2) + delta(LatticeGroup(2), (1, 0), 0.5j)
    grid_bytes = 1024 * 1024 * np.dtype(complex).itemsize
    verdict, peak = _fft_inverse_peak(f, 1024)
    assert verdict == "invertible"
    assert peak < 3 * grid_bytes


def _reference_chop(f, size):
    """The kept FFT-inverse terms, by a scan of every grid index in C order."""
    d = f.group.rank
    coeff = np.fft.fftn(1.0 / symbol_grid(f, (size,) * d)) / size**d
    chop = CHOP_REL * float(np.max(np.abs(coeff)))
    terms = {}
    for m in np.ndindex(coeff.shape):
        if abs(coeff[m]) > chop:
            key = tuple(int(i) - size if i >= (size + 1) // 2 else int(i) for i in m)
            terms[key] = complex(coeff[m])
    return terms


def _folded(f, size):
    """The real parts of f's terms summed into a C-order real grid modulo size."""
    x = np.zeros((size,) * f.group.rank)
    for n, amp in f.items():
        x[tuple(i % size for i in n)] += amp.real
    return x


def _reference_real_chop(f, size):
    """The kept half-spectrum inverse terms of a real f, by a scan of every
    grid index of irfftn(1 / rfftn(folded f)) in C order; each value is a
    complex with imaginary part +0.0."""
    d = f.group.rank
    x = _folded(f, size)
    axes = tuple(range(d))
    coeff = np.fft.irfftn(1.0 / np.fft.rfftn(x), s=x.shape, axes=axes, norm="forward") / size**d
    chop = CHOP_REL * float(np.max(np.abs(coeff)))
    terms = {}
    for m in np.ndindex(coeff.shape):
        if abs(coeff[m]) > chop:
            key = tuple(int(i) - size if i >= (size + 1) // 2 else int(i) for i in m)
            terms[key] = complex(coeff[m])
    return terms


def _dominant_element(rng, group, reach):
    """Seeded element whose constant term outweighs the rest, so no sample vanishes."""
    d = group.rank
    terms = {}
    for _ in range(rng.randint(1, 4)):
        x = tuple(rng.randint(-reach, reach) for _ in range(d))
        terms[x] = complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5))
    terms[(0,) * d] = 0.5 + sum(abs(v) for v in terms.values())
    return AlgebraElement(group, terms, False)


def _bits(terms):
    """Keys with the exact bits of both parts of each value."""
    return [(k, v.real.hex(), v.imag.hex()) for k, v in terms]


def _real_even_element(group):
    """-(2d + 1) d0 + the unit neighbours: a real, even symbol, so the
    inverse's coefficients are real, with an exactly zero imaginary part
    (and, before the scaling, some negative zeros) on small grids."""
    d = group.rank
    terms = {(0,) * d: -(2.0 * d + 1)}
    for axis in range(d):
        for step in (1, -1):
            terms[tuple(step if i == axis else 0 for i in range(d))] = 1.0
    return AlgebraElement(group, terms, False)


@pytest.mark.parametrize("rank, size", [(1, 2), (1, 64), (1, 512), (2, 2), (2, 64), (2, 512),
                                        (3, 2), (3, 8), (3, 32)])
def test_fft_chop_matches_index_scan(rank, size):
    rng = random.Random(f"chop:{rank}:{size}")
    group = LatticeGroup(rank)
    # delta at size/2 inverts to the grid index size/2, which maps to -size/2
    half = delta(group, (size // 2,) * rank)
    assert invert_via_fft(half, size).inverse.support == ((-(size // 2),) * rank,)
    even = _real_even_element(group)
    for f in [half, even] + [_dominant_element(rng, group, 3) for _ in range(4)]:
        real = f is half or f is even  # the _dominant_element draws are complex
        ff = f.to_float()
        kept = list(invert_via_fft(f, size).inverse.items())
        reference = _reference_real_chop if real else _reference_chop
        assert _bits(kept) == _bits(reference(ff, size).items())
        # One return shape: the candidate, and the first least sample, of the
        # half spectrum for a real f.
        g, kmin, vmin = _fft_candidate(ff, size)
        samples = np.fft.rfftn(_folded(ff, size)) if real else symbol_grid(ff, (size,) * rank)
        assert (kmin, vmin) == _grid_min(samples)
        # That is the full grid's least |sample|, up to rounding, attained at
        # kmin or at its mirror -kmin.
        full = np.abs(symbol_grid(ff, (size,) * rank))
        rounding = 64 * np.finfo(float).eps * ff.norm()
        assert abs(vmin - full.min()) <= rounding
        mirror = tuple(-k % size for k in kmin)
        assert min(abs(full[kmin] - full.min()), abs(full[mirror] - full.min())) <= rounding
        assert _bits(g.items()) == _bits(kept)
        for key, value in kept:
            assert type(key) is tuple and all(type(i) is int for i in key)
            assert type(value) is complex
        if f is even and size <= 8:
            assert all(value.imag == 0 for _, value in kept)
        if real:
            assert all(math.copysign(1.0, value.imag) == 1.0 for _, value in kept)


def _real_elements(rng, group):
    """Seeded real elements on group: three whose constant term outweighs the
    rest by a margin (wider on Z^3, whose default grid is 32 per axis), and
    1 - rho x^j on the first axis, whose inverse decays more slowly."""
    d = group.rank
    out = []
    for _ in range(3):
        terms = {}
        for _ in range(rng.randint(1, 5)):
            terms[tuple(rng.randint(-3, 3) for _ in range(d))] = rng.uniform(-0.5, 0.5)
        lead = (1.0 if d < 3 else 4.0) + sum(abs(v) for v in terms.values())
        terms[(0,) * d] = rng.choice((-1, 1)) * lead
        out.append(AlgebraElement(group, terms, False))
    step = (rng.choice((1, -1, 2)),) + (0,) * (d - 1)
    rho = rng.uniform(0.9, 0.95) if d < 3 else rng.uniform(0.5, 0.7)
    out.append(AlgebraElement(group, {(0,) * d: 1.0, step: -rho}, False))
    return out


@pytest.mark.parametrize("rank, sizes", [(1, (8, 64, 512, 4096)), (2, (8, 64, 256)),
                                         (3, (4, 16, 32))])
def test_real_elements_keep_the_complex_candidates_terms(rank, sizes):
    # The half-spectrum candidate of a real f keeps the keys of the full
    # complex transform's candidate (_reference_chop, today's path for complex
    # input), apart from terms within rounding of the chop threshold; the
    # values agree to rounding, and every imaginary part is +0.0.  i f takes
    # the complex path, and wiener_certify gives it the same verdict and size.
    group = LatticeGroup(rank)
    rng = random.Random(f"half-spectrum:{rank}")
    eps = np.finfo(float).eps
    for f in _real_elements(rng, group):
        for size in sizes:
            g = _fft_candidate(f, size)[0]
            reference = _reference_chop(f, size)
            peak = max(map(abs, reference.values()))
            slack = 64 * eps * peak
            for key in set(g.support) ^ set(reference):
                amp = reference[key] if key in reference else g.amplitude(key)
                assert abs(abs(amp) - CHOP_REL * peak) <= slack, (f, size, key)
            for key, amp in g.items():
                assert amp.imag == 0 and math.copysign(1.0, amp.imag) == 1.0
                assert abs(amp - reference.get(key, 0)) <= slack
        for tol in (1e-10, 1e-12):
            real, rotated = wiener_certify(f, tol=tol), wiener_certify(1j * f, tol=tol)
            assert real.verdict == rotated.verdict
            assert real.fields.get("inverse_size") == rotated.fields.get("inverse_size")
            if real.invertible:
                assert real.residual <= tol
                assert all(amp.imag == 0 for _, amp in real.inverse.items())


def test_a_real_vanishing_symbol_is_flagged_on_the_half_grid():
    # 1 + z^2 vanishes at the frequencies 2 and 6 of the size-8 grid; its half
    # grid holds 0..4, so 2 is flagged, and the symbol vanishes at its angle.
    f = delta(Z, (0,), 1.0) + delta(Z, (2,), 1.0)
    cert = invert_via_fft(f, 8)
    assert cert.verdict == "inconclusive" and cert.inverse is None
    assert cert.fields["flagged_frequency"] == [2]
    assert all(0 <= k <= 8 // 2 for k in cert.fields["flagged_frequency"])
    value = abs(fourier_eval(f, cert.fields["flagged_angle"]))
    assert invertibility._vanishes(value, f.norm())
    assert invertibility._vanishes(cert.fields["flagged_value"], f.norm())


@pytest.mark.filterwarnings("error")  # numpy's overflow warnings would escape too
def test_complex_elements_keep_the_fft_refusals():
    # The complex twins of the real elements refused above: the l1 norm of
    # 1e308 (1 + i z) overflows, and 5e-324 i delta_0 has an inverse past
    # the float range; 1e-306 (2 + i z) is inverted.
    huge = delta(Z, (0,), 1e308) + delta(Z, (1,), 1e308j)
    tiny = delta(Z, (0,), 5e-324j)
    for oracle in (wiener_certify, invert_via_fft):
        with pytest.raises(UsageError, match="l1 norm overflows"):
            oracle(huge)
        with pytest.raises(UsageError, match="FFT inverse would overflow the float range"):
            oracle(tiny)
        cert = oracle(delta(Z, (0,), 2e-306) + delta(Z, (1,), 1e-306j))
        assert cert.verdict == "invertible" and cert.residual <= 1e-10


# ---------------------------------------------------------------------------
# the verdict rule: invertible exactly when the verified residual is at most tol


@pytest.mark.parametrize(
    "run, reason",
    [
        (lambda tol: invert_finite(
            AlgebraElement(symmetric_group(3), {0: 0.7, 1: 0.3, 4: -0.2}, False), tol=tol),
         None),
        (lambda tol: invert_via_fft(delta(Z, (0,), 2.0) + delta(Z, (1,), 0.7), 64, tol=tol),
         "candidate residual above tolerance; increase the grid"),
        # The exact flagship series: residual 2^-41 under w = 2^|n|.
        (lambda tol: neumann_invert(
            delta(Z, (0,), 1, exact=True) - delta(Z, (1,), Fraction(1, 4), exact=True),
            ExpSymmetricWeight(2), terms=40, tol=tol),
         "series converges but the truncation is above tolerance"),
    ],
    ids=["float-finite", "fft-candidate", "neumann-series"],
)
def test_verdict_boundary_is_residual_at_most_tol(run, reason):
    residual = float(run(1e-10).residual)
    assert residual > 0
    at = run(residual)
    assert at.verdict == "invertible" and "reason" not in at.fields
    below = run(math.nextafter(residual, 0.0))
    assert below.verdict == "inconclusive"
    assert below.fields.get("reason") == reason
    assert below.inverse is not None and float(below.residual) == residual


_TOL_ORACLES = [
    lambda tol: invert_finite(delta(cyclic_group(3), 0, 2.0), tol=tol),
    lambda tol: invert_via_fft(delta(Z, (0,), 2.0), 64, tol=tol),
    lambda tol: wiener_certify(delta(Z, (0,), 2.0), tol=tol),
    lambda tol: neumann_invert(delta(Z, (0,), 2.0), tol=tol),
    lambda tol: verify_direct_finiteness(delta(Z, (0,), 2.0), delta(Z, (0,), 0.5), tol=tol),
]
_TOL_IDS = ["finite", "fft", "wiener", "neumann", "df-check"]


@pytest.mark.parametrize("tol", [1, 1.0, 10.0, -1e-10, math.nan, math.inf, True, "1e-10", None])
@pytest.mark.parametrize("run", _TOL_ORACLES, ids=_TOL_IDS)
def test_a_tol_outside_the_unit_interval_is_refused_before_any_work(run, tol, monkeypatch):
    # Only a residual below 1 proves invertibility: at tol = 10, invert_via_fft
    # once called 1 - e^{0.001i} z, whose symbol vanishes, invertible.
    def no_work(*args):
        raise AssertionError("an oracle worked on a refused tol")

    for name in ("convolve", "symbol_grid", "identity_element", "_solve_float"):
        monkeypatch.setattr(invertibility, name, no_work)
    with pytest.raises(UsageError, match=r"tol must be a number in \[0, 1\)"):
        run(tol)


@pytest.mark.parametrize("tol", [0, 0.0, Fraction(1, 2), math.nextafter(1.0, 0.0)])
@pytest.mark.parametrize("run", _TOL_ORACLES, ids=_TOL_IDS)
def test_a_tol_in_the_unit_interval_is_taken(run, tol):
    run(tol)


# ---------------------------------------------------------------------------
# Neumann series


def test_neumann_weighted_flagship_values():
    """f = d0 - (1/4) d1 under w = 2^|n|: ratio exactly 1/2, residual 2^-41."""
    f = delta(Z, (0,), 1, exact=True) - delta(Z, (1,), Fraction(1, 4), exact=True)
    w = ExpSymmetricWeight(2)
    cert = neumann_invert(f, w, terms=40)
    assert cert.verdict == "invertible"
    assert cert.fields["ratio"] == 0.5
    assert cert.fields["pivot"] == [0]
    assert cert.residual == Fraction(1, 2**41)
    assert cert.residual <= 2.0**-39
    assert cert.fields["left_residual"] == cert.fields["right_residual"]
    report = verify_direct_finiteness(f, cert.inverse, w)
    assert report.passed
    assert report.left_residual <= 2.0**-39


def test_neumann_truncation_tightens_with_more_terms():
    f = delta(Z, (0,), 1, exact=True) - delta(Z, (1,), Fraction(1, 4), exact=True)
    w = ExpSymmetricWeight(2)
    residuals = [neumann_invert(f, w, terms=k, tol=0.5).residual for k in (5, 10, 20)]
    assert residuals == [Fraction(1, 2**6), Fraction(1, 2**11), Fraction(1, 2**21)]
    tails = [neumann_invert(f, w, terms=k, tol=0.5).fields["tail_bound"] for k in (5, 10, 20)]
    assert all(float(r) <= t for r, t in zip(residuals, tails))


def test_neumann_inconclusive_when_no_dominant_term():
    f = delta(Z, (0,)) - delta(Z, (1,))
    cert = neumann_invert(f)
    assert cert.verdict == "inconclusive"
    assert cert.fields["ratio"] >= 1


def test_neumann_single_term_exact():
    f = delta(Z, (3,), 2, exact=True)
    cert = neumann_invert(f)
    assert cert.verdict == "invertible"
    assert cert.fields["ratio"] == 0.0
    assert cert.inverse == delta(Z, (-3,), Fraction(1, 2), exact=True)
    assert cert.residual == 0


def test_neumann_on_free_group():
    f2 = FreeGroup(2)
    f = delta(f2, ()) - delta(f2, (1,)).scale(0.25)
    cert = neumann_invert(f, terms=40)
    assert cert.verdict == "invertible"
    assert cert.fields["ratio"] == pytest.approx(0.25)
    assert float(cert.residual) <= 1e-10
    # inverse supported on powers of the generator only
    assert all(set(x) <= {1} for x in cert.inverse.support)


def test_neumann_free_group_branching_remainder():
    # two remainder directions double the support each round; keep the
    # truncation budget matched to that growth
    f2 = FreeGroup(2)
    f = delta(f2, ()) - delta(f2, (1,)).scale(0.25) - delta(f2, (2, 1)).scale(0.25)
    cert = neumann_invert(f, terms=12, tol=1e-3)
    assert cert.verdict == "invertible"
    assert cert.fields["ratio"] == pytest.approx(0.5)
    assert float(cert.residual) <= 2.0**-12


def test_neumann_refuses_the_zero_element():
    with pytest.raises(UsageError):
        neumann_invert(AlgebraElement.zero(Z))


def test_neumann_picks_the_least_ratio_pivot():
    # Pivot d0 would give ratio 4; the dominant d1 gives 1/4.
    best = neumann_invert(delta(Z, (0,), 0.25) + delta(Z, (1,)))
    assert best.fields["pivot"] == [1]
    assert best.fields["ratio"] == pytest.approx(0.25)


def _reference_series(r, terms):
    """e + r + ... + r^terms by the plain Horner loop on convolve and +."""
    e = identity_element(r.group, exact=r.exact)
    partial = e
    for _ in range(terms):
        partial = e + convolve(r, partial)
    return partial


def _storage(el):
    """An element's storage: denominator, mode and terms in order, float bits as hex."""
    terms = list(el._terms.items())
    if not el.exact:
        terms = [(x, v.real.hex(), v.imag.hex()) for x, v in terms]
    return el._den, el.gaussian, terms


_SERIES_POINTS = {
    "Z": (Z, [(1,), (-2,), (0,)]),
    "Z2": (LatticeGroup(2), [(1, 0), (0, -1), (1, 1)]),
    "F2": (FreeGroup(2), [(1,), (-2,)]),
    "F3": (FreeGroup(3), [(3,), (1, -2)]),
    "S3": (symmetric_group(3), [1, 3, 4]),
}
_SERIES_SCALARS = {
    "exact": (True, [Fraction(1, 3), Fraction(-1, 4), Fraction(2, 7)]),
    "gaussian": (True, [QComplex.of(Fraction(1, 3), Fraction(-1, 5)), QComplex.of(Fraction(-1, 4)),
                        QComplex.of(0, Fraction(2, 7))]),
    "float": (False, [complex(0.3, -0.0), complex(-0.25, 0.1), 0.125]),
}


@pytest.mark.parametrize("terms", [0, 1, 8])
@pytest.mark.parametrize("scalars", sorted(_SERIES_SCALARS))
@pytest.mark.parametrize("name", sorted(_SERIES_POINTS))
def test_series_matches_the_plain_horner_loop_bit_for_bit(name, scalars, terms):
    group, points = _SERIES_POINTS[name]
    exact, coefs = _SERIES_SCALARS[scalars]
    r = AlgebraElement(group, dict(zip(points, coefs)), exact)
    assert r.gaussian == (scalars == "gaussian")
    got = invertibility._series(r, terms)
    assert _storage(got) == _storage(_reference_series(r, terms))


@pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
def test_series_matches_the_plain_loop_when_the_identity_sum_cancels(exact):
    # r = d0 + d1 - d-1: the identity sum of r * (e + r) is 2 - 1 - 1 = 0.
    r = AlgebraElement(Z, {(0,): 1, (1,): 1, (-1,): -1}, exact)
    e = identity_element(Z, exact=exact)
    assert (0,) not in convolve(r, e + r)._terms
    assert _storage(invertibility._series(r, 8)) == _storage(_reference_series(r, 8))


def test_series_matches_the_plain_loop_on_a_negative_zero_sum():
    # Each identity product of r * (e + r) underflows to -0.0, and the
    # product at (2,) to 0.0; both sums are dropped, as convolve drops them.
    r = AlgebraElement(Z, {(1,): 1e-200, (-1,): -1e-200}, False)
    acc = {Z.identity: None}
    invertibility._float_products(Z.mul, acc, r.items(), (identity_element(Z) + r).items())
    assert math.copysign(1.0, acc[Z.identity].real) == -1.0 and acc[Z.identity] == 0
    assert _storage(invertibility._series(r, 3)) == _storage(_reference_series(r, 3))


@pytest.mark.parametrize("amp", [Fraction(-3, 4), Fraction(5), QComplex.of(Fraction(2, 3), -1),
                                 QComplex.of(0, Fraction(-1, 6))], ids=repr)
def test_exact_pivot_candidates_from_numerators(amp):
    # A Gaussian f whose term at a is real still gives a real candidate.
    f2 = FreeGroup(2)
    f = AlgebraElement(f2, {(1, 2): amp, (): QComplex.of(Fraction(1, 7), Fraction(1, 9))}, True)
    for a in f.support:
        expected = delta(f2, f2.inv(a), 1 / f.amplitude(a), exact=True)
        assert _storage(invertibility._point_inverse(f, a)) == _storage(expected)


def _exploding_f2():
    """1 + a/2 + 3b/10 over F2: its series support doubles with each term."""
    f2 = FreeGroup(2)
    return (delta(f2, (), 1, exact=True) + delta(f2, (1,), Fraction(1, 2), exact=True)
            + delta(f2, (2,), Fraction(3, 10), exact=True))


def test_neumann_series_work_is_capped(capsys):
    f = _exploding_f2()
    start = time.perf_counter()
    with pytest.raises(ResourceLimitError, match="131070 products exceeds cap 65536"):
        neumann_invert(f, terms=40)
    assert time.perf_counter() - start < 1.0
    assert neumann_invert(f, terms=8).verdict == "inconclusive"
    argv = ["invert", "--input", json.dumps(element_to_json(f)), "--method", "neumann"]
    start = time.perf_counter()
    assert main(argv) == 1
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and len(captured.err.splitlines()) == 1


def test_series_cap_is_inclusive_and_refuses_before_any_product(monkeypatch):
    # r has 2 terms and the partial sums 1, 3, 7, 15, 31 terms: the steps
    # take 2, 6, 14, 30 products, and the fifth would take 62.
    f = _exploding_f2()
    r = identity_element(f.group, exact=True) - f
    products = []
    real = FreeGroup.mul

    def counted(self, x, y):
        products.append((x, y))
        return real(self, x, y)

    monkeypatch.setattr(invertibility, "SERIES_STEP_CAP", 30)
    monkeypatch.setattr(FreeGroup, "mul", counted)
    assert invertibility._series(r, 4).n_terms == 31
    products.clear()
    with pytest.raises(ResourceLimitError, match="62 products exceeds cap 30"):
        invertibility._series(r, 5)
    assert len(products) == 2 + 6 + 14 + 30


def _wide_z(n):
    """2n at 0 and 1 at 1 .. n-1 on Z, float: n terms, dominated by the first."""
    return AlgebraElement(Z, {(k,): (2.0 * n if k == 0 else 1.0) for k in range(n)}, False)


def test_neumann_pivot_search_work_is_capped(capsys):
    # The pivot search takes n^2 products: 2000^2 are refused before any runs.
    f = _wide_z(2000)
    start = time.perf_counter()
    with pytest.raises(ResourceLimitError, match="pivot search of 4000000 products exceeds"):
        neumann_invert(f, terms=1)
    assert time.perf_counter() - start < 1.0
    argv = ["invert", "--input", json.dumps(element_to_json(f)), "--method", "neumann", "--K", "1"]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and len(captured.err.splitlines()) == 1


def test_pivot_search_cap_is_inclusive(monkeypatch):
    monkeypatch.setattr(invertibility, "SERIES_STEP_CAP", 16)
    assert neumann_invert(_wide_z(4), terms=0).verdict == "inconclusive"  # 16 products
    with pytest.raises(ResourceLimitError, match="25 products exceeds cap 16"):
        neumann_invert(_wide_z(5), terms=0)


@pytest.mark.parametrize("scalars", ["exact", "gaussian", "float"])
def test_unweighted_df_check_reuses_the_oracles_norms(scalars, monkeypatch):
    exact, coefs = _SERIES_SCALARS[scalars]
    f = AlgebraElement(Z, {(0,): 1, (1,): coefs[1], (-2,): coefs[0] / 8}, exact)
    # Norms with no weight are the norms with the weight 1.
    plain = neumann_invert(f, ConstantWeight(1), terms=6)
    cert = neumann_invert(f, terms=6)
    assert cert.to_json() == plain.to_json()
    g = cert.inverse
    e = identity_element(Z, exact=exact)
    direct = [repr((convolve(g, f) - e).norm()), repr((convolve(f, g) - e).norm())]
    calls = []
    real = AlgebraElement.norm

    def counted(self, weight=None):
        calls.append(weight)
        return real(self, weight)

    monkeypatch.setattr(AlgebraElement, "norm", counted)
    report = verify_direct_finiteness(f, g)
    assert calls == [] and _residual_bits(report) == direct


# ---------------------------------------------------------------------------
# quotient probes


def test_probes_catch_difference_filter_at_zero_frequency():
    f = delta(Z, (0,)) - delta(Z, (1,))
    report = probe_quotients(f, range(2, 65))
    assert report.any_singular
    for p in report.probes:
        assert not p.nonsingular
        assert p.frequency == (0,)
        assert p.min_modulus <= 1e-12
    cert = report.to_certificate()
    assert cert.verdict == "not-invertible"
    assert cert.kind == "quotient-witness"


def test_probes_pass_on_invertible_element():
    f = delta(Z, (0,), 2) + delta(Z, (1,))
    report = probe_quotients(f, range(2, 33))
    assert not report.any_singular
    assert report.to_certificate() is None
    assert min(p.min_modulus for p in report.probes) >= 1.0


def test_probe_rank2_moduli():
    z2 = LatticeGroup(2)
    f = delta(z2, (0, 0)) - delta(z2, (1, 1))
    report = probe_quotients(f, [(4, 4), 3])
    assert report.any_singular
    assert report.probes[0].frequency == (0, 0)


def test_probe_rejects_bad_moduli():
    f = delta(Z, (0,))
    with pytest.raises(UsageError):
        probe_quotients(f, [(2, 2)])  # rank mismatch


@pytest.mark.parametrize("moduli", [[(3.9,)], [2.7], [True], ["4"], [(4.0,)], [("4",)]])
def test_probe_moduli_must_be_integers(moduli):
    with pytest.raises(UsageError, match="modulus must be an integer"):
        probe_quotients(delta(Z, (0,)), moduli)


@pytest.mark.parametrize("kwargs", [{"grid": "64"}, {"grid": True}, {"inverse_size": "512"}],
                         ids=["grid-str", "grid-bool", "inverse-size-str"])
def test_wiener_grid_and_inverse_size_must_be_integers(kwargs):
    with pytest.raises(UsageError, match="must be an integer"):
        wiener_certify(delta(Z, (0,), 2.0) + delta(Z, (1,)), **kwargs)


def test_probe_cap_bounds_all_quotients_before_any_symbol(monkeypatch):
    import galab.invertibility as inv

    calls = []

    def counting_grid(f, sizes):
        calls.append(sizes)
        return symbol_grid(f, sizes)

    monkeypatch.setattr(inv, "symbol_grid", counting_grid)
    f = delta(Z, (0,), 2.0) + delta(Z, (1,))
    # Each quotient is under the cap; together they pass it after about 1,450 entries.
    with pytest.raises(ResourceLimitError):
        probe_quotients(f, range(2, 2000))
    # An iterator is read only up to the entry that passes the cap: 1049 * 1000 > 2^20.
    moduli = iter([1000] * 2000)
    with pytest.raises(ResourceLimitError):
        probe_quotients(f, moduli)
    assert len(list(moduli)) == 2000 - 1049
    assert calls == []
    assert len(probe_quotients(f, range(2, 65)).probes) == 63
    assert len(calls) == 63


# ---------------------------------------------------------------------------
# direct finiteness reports


def test_df_check_vacuous_when_not_a_left_inverse():
    f = delta(Z, (0,), 2)
    g = delta(Z, (0,), 7)
    report = verify_direct_finiteness(f, g)
    assert report.passed
    assert report.left_residual > report.tol


def test_df_check_json_shape():
    f = delta(Z, (0,), 2, exact=True)
    g = delta(Z, (0,), Fraction(1, 2), exact=True)
    report = verify_direct_finiteness(f, g)
    obj = report.to_json()
    assert obj["pass"] is True
    assert obj["left_residual"] == "0"
    assert obj["right_residual"] == "0"


def _certified_pair(case):
    """(f, certificate, weight) of an oracle run that verified an inverse."""
    if case == "exact-Z":  # README's weighted series
        w = ExpSymmetricWeight(2)
        f = delta(Z, (0,), 1, exact=True) - delta(Z, (1,), Fraction(1, 4), exact=True)
        return f, neumann_invert(f, w, terms=40), w
    if case in ("exact-F2", "float-F2"):
        f2, exact = FreeGroup(2), case == "exact-F2"
        w = ExpSymmetricWeight(Fraction(3, 2))
        f = (delta(f2, (), 1, exact=exact) - delta(f2, (1,), Fraction(1, 4), exact=exact)
             + delta(f2, (-2,), Fraction(1, 8), exact=exact))
        return f, neumann_invert(f, w, terms=6), w
    s3 = symmetric_group(3)
    f = delta(s3, 0, 3, exact=True) + delta(s3, 4, Fraction(1, 2), exact=True)
    return f, invert_finite(f), None


@pytest.mark.parametrize("case", ["exact-Z", "exact-F2", "float-F2", "exact-S3"])
def test_df_check_reuses_the_products_its_oracle_verified(case, monkeypatch):
    calls = []
    real = invertibility.convolve

    def counted(a, b):
        calls.append((a, b))
        return real(a, b)

    monkeypatch.setattr(invertibility, "convolve", counted)
    f, cert, w = _certified_pair(case)
    g = cert.inverse
    assert g is not None and f.exact == (case != "float-F2")
    calls.clear()
    report = verify_direct_finiteness(f, g, w)
    # The norms are taken with the weight given, from the kept products.
    other = verify_direct_finiteness(f, g, ConstantWeight(3))
    assert calls == []
    copy = AlgebraElement(g.group, dict(g.items()), g.exact)
    assert copy is not g and copy == g
    assert report.to_json() == verify_direct_finiteness(f, copy, w).to_json()
    assert other.to_json() == verify_direct_finiteness(f, copy, ConstantWeight(3)).to_json()
    assert len(calls) == 2
    assert (other.to_json() == report.to_json()) == (case == "exact-S3")
    # One entry: another f or g in between makes the pair convolve again.
    f_copy = AlgebraElement(f.group, dict(f.items()), f.exact)
    for between in ((f, copy), (f_copy, g)):
        verify_direct_finiteness(f, g, w)
        calls.clear()
        verify_direct_finiteness(*between, w)
        assert verify_direct_finiteness(f, g, w).to_json() == report.to_json()
        assert len(calls) == 4


class CountingWeight(ExpSymmetricWeight):
    """An exp_symmetric weight that records each point it is evaluated at."""

    def __init__(self, base):
        super().__init__(base)
        self.points = []

    def value(self, group, x):
        self.points.append(x)
        return super().value(group, x)


def _residual_bits(report):
    return [repr(report.left_residual), repr(report.right_residual)]


@pytest.mark.parametrize("case", ["exact-Z", "exact-F2", "float-F2"])
def test_weighted_norms_evaluate_each_point_once_and_are_reused(case):
    f, plain, w0 = _certified_pair(case)
    w = CountingWeight(w0.base)
    cert = neumann_invert(f, w, terms=plain.fields["terms"])
    assert cert.to_json() == plain.to_json()
    assert w.points and len(w.points) == len(set(w.points))
    assert vars(w).keys() == {"base", "points"}  # no memo is left on the weight
    g = cert.inverse
    e = identity_element(f.group, exact=f.exact)
    direct = [repr((convolve(g, f) - e).norm(w0)), repr((convolve(f, g) - e).norm(w0))]
    # The check of the oracle's own inverse with its weight evaluates nothing.
    w.points.clear()
    report = verify_direct_finiteness(f, g, w)
    assert w.points == [] and _residual_bits(report) == direct
    assert [float(report.left_residual), float(report.right_residual)] == [
        cert.fields["left_residual"], cert.fields["right_residual"]]
    # An equal weight object is evaluated afresh, once per point, to the same bits.
    other = CountingWeight(w0.base)
    assert _residual_bits(verify_direct_finiteness(f, g, other)) == direct
    assert other.points and len(other.points) == len(set(other.points))
    # So are fresh copies of f and g, whose products are computed again.
    copies = [AlgebraElement(x.group, dict(x.items()), x.exact) for x in (f, g)]
    assert _residual_bits(verify_direct_finiteness(*copies, w)) == direct
    assert w.points and len(w.points) == len(set(w.points))


def test_df_check_never_returns_an_earlier_pairs_norms():
    # The kept norms belong to the kept products: when the products are
    # computed again, the old norms are dropped before a new norm can raise.
    table = TableWeight({(-1,): 1.5, (0,): 1, (1,): 1.5})
    f2 = delta(Z, (0,), 4, exact=True) + delta(Z, (1,), 1, exact=True)
    g2 = neumann_invert(f2).inverse  # its residuals sit at (41,), outside the table
    f = delta(Z, (0,), 2, exact=True) + delta(Z, (1,), 1, exact=True)
    cert = neumann_invert(f, table, terms=0)  # every norm lies inside the table
    assert cert.fields["left_residual"] == cert.fields["right_residual"] == 0.75
    for _ in range(2):
        with pytest.raises(UsageError, match=r"element \(41,\) is outside the weight table"):
            verify_direct_finiteness(f2, g2, table)


def test_df_check_norms_cannot_go_stale():
    # Weights are immutable, so the kept norms of a weight object stay its norms.
    table = TableWeight({(-1,): 1.5, (0,): 1, (1,): 1.5})
    f = delta(Z, (0,), 2, exact=True) + delta(Z, (1,), 1, exact=True)
    cert = neumann_invert(f, table, terms=0)
    with pytest.raises(TypeError):
        table.values[(1,)] = 1.9
    with pytest.raises(AttributeError):
        table.values = {(-1,): 1.5, (0,): 1, (1,): 1.9}
    report = verify_direct_finiteness(f, cert.inverse, table)
    assert report.left_residual == report.right_residual == 0.75
    fresh = TableWeight({(-1,): 1.5, (0,): 1, (1,): 1.9})
    report = verify_direct_finiteness(f, cert.inverse, fresh)
    assert report.left_residual == report.right_residual == 0.95


RESIDUAL_GROUPS = {"Z": LatticeGroup(1), "Z2": LatticeGroup(2), "F2": FreeGroup(2),
                   "C5": cyclic_group(5)}


def _residual_pair(group, case):
    """(h, f) whose product h*f has the identity term the case names."""
    if isinstance(group, CayleyGroup):
        a, b = 1, 2
    elif group == LatticeGroup(2):
        a, b = (1, 0), (0, 1)
    else:  # Z and F2; on Z, a^-1, b = a^2, a and ab are still distinct
        a, b = (1,), (2,)
    e, ai, q = group.identity, group.inv(a), Fraction

    def el(terms, exact=True):
        out = AlgebraElement.zero(group, exact=exact)
        for x, v in terms:
            out = out + delta(group, x, v, exact=exact)
        return out

    if case == "exact-present":  # the identity term is 1 + 1/15
        return el([(e, q(1, 2)), (a, q(1, 3))]), el([(e, 2), (ai, q(1, 5)), (b, q(-3, 7))])
    if case == "exact-cancels":  # the products at e sum to 0, so the product lacks e
        return el([(e, 1), (a, 1)]), el([(e, q(1, 2)), (ai, q(-1, 2)), (b, q(1, 3))])
    if case == "exact-absent":
        return el([(a, 1)]), el([(a, q(2, 3)), (b, q(1, 4))])
    if case == "exact-zero":  # h is f's inverse: the residual is exactly 0
        return el([(ai, q(1, 3))]), el([(a, 3)])
    if case == "gaussian-real":  # (1+i)(1-i)/2 = 1: no imaginary part is left, and e drops
        return (el([(e, QComplex.of(1, 1)), (a, QComplex.of(1, 1))]),
                el([(e, QComplex.of(q(1, 2), q(-1, 2))), (b, QComplex.of(q(1, 3), q(-1, 3)))]))
    if case == "gaussian":
        return (el([(e, QComplex.of(1, 1)), (a, q(1, 2))]),
                el([(e, 1), (b, QComplex.of(0, q(-1, 3)))]))
    if case == "float-cancels":
        # Four products of modulus 1e-16 and the appended -1: summed in that
        # order |h*f - e| is 1 + 4e-16, with -1 first it would round to 1.
        return (el([(e, 1.0), (a, 1.0)], False),
                el([(ai, 1e-16), (e, -1e-16), (b, 1e-16)], False))
    if case == "float-present":
        return el([(e, 0.3), (a, 0.25)], False), el([(e, 2.0), (b, 0.1 + 0.2j)], False)
    return el([(a, 0.7)], False), el([(a, 0.2), (b, 0.3)], False)  # float-absent


def _residual_weights(group):
    if isinstance(group, LatticeGroup):
        directional = ExpDirectionalWeight([0.3] * group.rank)
        return [None, ExpSymmetricWeight(2), directional,
                ProductWeight([directional, PolynomialWeight(Fraction(1, 2))])]
    return [None, ExpSymmetricWeight(2), ExpSymmetricWeight(1.5),
            ProductWeight([ExpSymmetricWeight(2), PolynomialWeight(0.5)])]


RESIDUAL_CASES = ["exact-present", "exact-cancels", "exact-absent", "exact-zero",
                  "gaussian-real", "gaussian", "float-cancels", "float-present", "float-absent"]


@pytest.mark.parametrize("case", RESIDUAL_CASES)
@pytest.mark.parametrize("name", RESIDUAL_GROUPS)
def test_a_residual_is_read_off_its_product_bit_for_bit(name, case):
    group = RESIDUAL_GROUPS[name]
    h, f = _residual_pair(group, case)
    e = identity_element(group, exact=h.exact)
    reference = convolve(h, f) - e
    diff = _minus_identity(convolve(h, f))
    # The same storage (denominator, numerators or pairs) in the same key order.
    assert diff == reference and diff.gaussian == reference.gaussian
    assert [x for x, _ in diff.items()] == [x for x, _ in reference.items()]
    if case == "exact-zero":
        assert diff.is_zero
    if case.endswith(("cancels", "absent")):
        assert e.support[0] not in convolve(h, f).support
    if case == "gaussian-real":
        assert not convolve(h, f).gaussian and e.support[0] not in diff.support
    for w in _residual_weights(group):
        expected = [(convolve(h, f) - e).norm(w), (convolve(f, h) - e).norm(w)]
        got = [diff.norm(w), *invertibility._residuals(f, h, w)]
        assert [(x, repr(x)) for x in got] == [(x, repr(x)) for x in expected[:1] + expected]
    if case == "float-cancels":
        assert diff.norm() == 1 + 4e-16


def test_the_fft_residual_is_read_off_its_product():
    f = delta(Z, (0,), 1.0) - delta(Z, (1,), 0.5)
    cert = invert_via_fft(f)
    expected = (convolve(cert.inverse, f) - identity_element(Z)).norm()
    assert cert.invertible and repr(cert.residual) == repr(expected)


def _counted_values(monkeypatch, kind):
    """The points at which kind.value is called, in call order."""
    calls, value = [], kind.value

    def counted(self, group, x):
        calls.append(x)
        return value(self, group, x)

    monkeypatch.setattr(kind, "value", counted)
    return calls


F2 = FreeGroup(2)


def _f2_element(exact):
    return (delta(F2, (), 1, exact=exact) - delta(F2, (1,), Fraction(1, 8), exact=exact)
            + delta(F2, (-2,), Fraction(1, 16), exact=exact))


@pytest.mark.parametrize("exact", [True, False])
@pytest.mark.parametrize("weight", [
    ConstantWeight(2), ExpSymmetricWeight(2), ExpSymmetricWeight(1.5), PolynomialWeight(1.5),
    ProductWeight([ExpSymmetricWeight(Fraction(3, 2)), PolynomialWeight(1)])],
    ids=["constant", "exp-int", "exp-float", "polynomial", "product"])
def test_a_length_only_weight_is_evaluated_once_per_word_length(monkeypatch, weight, exact):
    f = _f2_element(exact)
    calls = _counted_values(monkeypatch, type(weight))
    with monkeypatch.context() as m:  # the same call with the weight kept by point
        m.setattr(invertibility, "_length_only", lambda weight: False)
        plain = neumann_invert(f, weight, terms=6)
    lengths = {len(x) for x in calls}
    assert len(calls) == len(set(calls)) > len(lengths)
    calls.clear()
    cert = neumann_invert(f, weight, terms=6)
    assert cert.to_json() == plain.to_json()
    assert sorted(map(len, calls)) == sorted(lengths)
    # A fresh decode of the pair computes its products and norms again.
    calls.clear()
    g = AlgebraElement(F2, dict(cert.inverse.items()), exact)
    report = verify_direct_finiteness(AlgebraElement(F2, dict(f.items()), exact), g, weight)
    assert len(calls) == len({len(x) for x in calls})
    assert [repr(report.left_residual), repr(report.right_residual)] == [
        repr((convolve(g, f) - identity_element(F2, exact=exact)).norm(weight)),
        repr((convolve(f, g) - identity_element(F2, exact=exact)).norm(weight))]


def test_other_weights_are_evaluated_once_per_point(monkeypatch):
    z2 = LatticeGroup(2)
    f = (delta(z2, (0, 0), 1.0) - delta(z2, (1, 0), 0.2) + delta(z2, (0, 1), 0.1)
         + delta(z2, (-1, 0), 0.1))
    directional = ExpDirectionalWeight([0.2, 0.1])
    for weight in (directional, ProductWeight([ExpSymmetricWeight(2), directional])):
        calls = _counted_values(monkeypatch, type(weight))
        neumann_invert(f, weight, terms=4)
        assert len(calls) == len(set(calls)) > len({sum(map(abs, x)) for x in calls})
        monkeypatch.undo()
    # A subclass of a length-only weight may depend on more than the length.
    per_point = CountingWeight(2)
    neumann_invert(_f2_element(True), per_point, terms=6)
    assert len(per_point.points) == len(set(per_point.points)) > len(
        {len(x) for x in per_point.points})


def test_a_refused_length_raises_at_its_first_point_and_is_not_kept():
    w = ExpSymmetricWeight(2**600)  # 2^1200 at length 2 is past the float range
    memo = invertibility._Memo(w)
    assert memo.value(F2, (1,)) == 2**600
    for x in ((1, 2), (2, 1), (1, 2)):
        with pytest.raises(UsageError, match="exp_symmetric weight value is not a positive"):
            memo.value(F2, x)
    assert memo.value(F2, (-2,)) == 2**600
    assert memo.values == {(1,): 2**600, (-2,): 2**600} and memo.lengths == {1: 2**600}


# ---------------------------------------------------------------------------
# cross-oracle agreement on seeded integer filters


def random_integer_filter(rng):
    n_terms = rng.randrange(1, 5)
    terms = {}
    for _ in range(n_terms):
        terms[(rng.randrange(-3, 4),)] = float(rng.randrange(-3, 4))
    return AlgebraElement(Z, terms, False)


def test_oracles_agree_on_random_integer_filters():
    rng = random.Random(20240816)
    verdicts = {"invertible": 0, "not-invertible": 0, "inconclusive": 0}
    for _ in range(100):
        f = random_integer_filter(rng)
        if f.is_zero:
            continue
        cert = wiener_certify(f)
        verdicts[cert.verdict] += 1
        fft = invert_via_fft(f, 512)
        if cert.verdict == "invertible":
            # the certificate carries its own verified inverse ...
            assert cert.residual <= 1e-10
            report = probe_quotients(f, range(2, 17))
            assert not report.any_singular
            # ... and when the fixed 512 grid is fine too, the candidates agree
            if fft.verdict == "invertible":
                gap = (fft.inverse - cert.inverse).norm()
                assert float(gap) <= 1e-8
        elif cert.verdict == "not-invertible":
            # a unit-circle zero keeps every candidate residual >= 1 in l1,
            # so no grid size can verify an inverse
            assert fft.verdict != "invertible"
    assert verdicts["invertible"] >= 20
    assert verdicts["not-invertible"] >= 5


# ---------------------------------------------------------------------------
# dispatch and certificate plumbing


def test_auto_invert_dispatch_kinds():
    c6 = cyclic_group(6)
    assert auto_invert(delta(c6, 1, 2, exact=True)).kind == "exact-finite"
    assert auto_invert(delta(Z, (0,), 2)).kind == "wiener-grid"
    f2 = FreeGroup(2)
    assert auto_invert(delta(f2, (), 2.0)).kind == "neumann-series"
    weighted = auto_invert(
        delta(Z, (0,), 1, exact=True), ExpSymmetricWeight(2)
    )
    assert weighted.kind == "neumann-series"


def test_auto_invert_method_validation():
    with pytest.raises(UsageError):
        auto_invert(delta(Z, (0,)), method="finite")
    with pytest.raises(UsageError, match="the exact finite solve is unweighted"):
        auto_invert(delta(cyclic_group(3), 0), ExpSymmetricWeight(2), method="finite")
    with pytest.raises(UsageError):
        auto_invert(delta(Z, (0,)), ExpSymmetricWeight(2), method="wiener")
    with pytest.raises(UsageError):
        auto_invert(delta(Z, (0,)), method="sorcery")


def test_certificate_json_shape():
    cert = wiener_certify(delta(Z, (0,), 2) + delta(Z, (1,)))
    obj = cert.to_json()
    assert obj["verdict"] == "invertible"
    assert obj["kind"] == "wiener-grid"
    assert isinstance(obj["margin"], float)
    assert obj["inverse"]["terms"]
    assert obj["residual"] <= 1e-10

    exact = invert_finite(delta(cyclic_group(3), 0, 2, exact=True))
    obj = exact.to_json()
    assert obj["residual"] == "0"
