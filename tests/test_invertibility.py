import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from galab import invertibility
from galab.algebra import (
    AlgebraElement,
    QComplex,
    convolve,
    delta,
    element_to_json,
    identity_element,
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
from galab.operators import symbol_grid
from galab.weights import ConstantWeight, ExpSymmetricWeight

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


@pytest.mark.parametrize(
    "group", [symmetric_group(3), dihedral_group(4), quaternion_group()], ids=lambda g: g.name
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


# C8 x C8 with element 8a + b standing for (a, b).
C8xC8 = CayleyGroup([[8 * ((i // 8 + j // 8) % 8) + (i + j) % 8 for j in range(64)]
                     for i in range(64)], identity=0, name="C8xC8")


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
            assert cert.fields["kernel"] == element_to_json(g)
        # Each eliminated block is |K| x |K|; K is {e} for the zero element.
        assert set(sizes) == {len(_support_subgroup(f)) if f.n_terms else 1}


def test_kernel_witness_outside_the_identity_block_is_the_whole_matrix_one(monkeypatch):
    # On C8, d2 - d6 has K = {0, 4}; the inverse's block y0^-1 K is {2, 6},
    # but the whole matrix's first free column is 4, in the block {0, 4}.
    c8 = cyclic_group(8)
    f = delta(c8, 2, exact=True) - delta(c8, 6, exact=True)
    sizes = _spy_block_sizes(monkeypatch)
    cert = invert_finite(f)
    assert cert.verdict == "not-invertible"
    _, g = whole_matrix_solve(f)
    assert cert.fields["kernel"] == element_to_json(g)
    assert set(g.support) == {0, 4}
    # The block of {2, 6}, then that of {0, 4}, whose second element lies
    # below 6.  {1, 5} and {3, 7} are skipped: a block's least column always
    # holds a pivot, and their second elements do not lie below 4.
    assert sizes == [2, 2]


def test_zero_element_kernel_is_the_first_column_whatever_the_identity():
    # C3 with identity 1: the zero element's blocks are 1 x 1 and all free,
    # so the search must still reach the block of column 0.
    c3 = CayleyGroup([[2, 0, 1], [0, 1, 2], [1, 2, 0]], identity=1)
    f = AlgebraElement.zero(c3, exact=True)
    cert = invert_finite(f)
    assert cert.verdict == "not-invertible"
    _, g = whole_matrix_solve(f)
    assert cert.fields["kernel"] == element_to_json(g)
    assert g.support == (0,)


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
    # symbol vanishes at two conjugate interior angles? pick near-circle root
    # at radius 0.99: margin goes negative but no unit-circle root exists.
    f = delta(Z, (0,), 1.0) - delta(Z, (1,), 1 / 0.99)
    cert = wiener_certify(f)
    assert cert.verdict == "inconclusive"
    assert cert.exit_code == 3
    assert cert.fields["closest_root_distance"] == pytest.approx(0.01, rel=1e-6)


def test_wiener_root_search_stops_at_the_span_cap(monkeypatch):
    # 1 + z^(10^12) would ask the root finder for a 10^12 x 10^12 companion matrix.
    cert = wiener_certify(delta(Z, (0,)) + delta(Z, (10**12,)))
    assert cert.verdict == "inconclusive"
    assert "ROOT_SPAN_CAP = 1024" in cert.fields["reason"]
    # Span 8 is searched and 1 - z^8 has its root witness; span 9 is not searched.
    monkeypatch.setattr(invertibility, "ROOT_SPAN_CAP", 8)
    assert wiener_certify(delta(Z, (0,)) - delta(Z, (8,))).verdict == "not-invertible"
    cert = wiener_certify(delta(Z, (-4,)) - delta(Z, (5,)))
    assert cert.verdict == "inconclusive"
    assert "span 9 exceeds ROOT_SPAN_CAP = 8" in cert.fields["reason"]
    assert "closest_root_distance" not in cert.fields


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


def test_wiener_positive_margin_skips_the_root_solve(monkeypatch):
    def no_roots(f):
        raise AssertionError("companion-matrix roots computed on a positive margin")

    monkeypatch.setattr("galab.invertibility._laurent_roots", no_roots)
    f = delta(Z, (0,), 2) + delta(Z, (3,), 0.5)
    cert = wiener_certify(f)
    assert cert.fields["margin"] > 0
    assert cert.verdict == "invertible"
    # A non-positive margin still needs the roots.
    with pytest.raises(AssertionError, match="companion-matrix"):
        wiener_certify(delta(Z, (0,)) - delta(Z, (1,)))


def test_default_inverse_size_fits_the_grid_cap():
    # 512^3 points exceed GRID_CAP, so Z^3 starts from 128; Z and Z^2 keep 512.
    for d, size in [(1, 512), (2, 512), (3, 128)]:
        group = LatticeGroup(d)
        f = delta(group, (0,) * d, 2) + delta(group, (1,) + (0,) * (d - 1), 0.5)
        assert invert_via_fft(f).fields["size"] == size
        cert = wiener_certify(f)
        assert cert.verdict == "invertible" and cert.fields["inverse_size"] == size
    with pytest.raises(ResourceLimitError):
        invert_via_fft(f, 512)
    with pytest.raises(ResourceLimitError):
        wiener_certify(f, inverse_size=512)


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
        expected = np.fft.ifftn(arr) * math.prod(sizes)
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
    rng = np.random.default_rng(7)
    for shape in [(9,), (5, 6), (3, 4, 5)]:
        for _ in range(20):
            vals = rng.integers(0, 3, size=shape) + 1j * rng.integers(0, 2, size=shape)
            if rng.random() < 0.5:
                vals.flat[rng.integers(vals.size)] = np.nan
            mags = np.abs(vals)
            first = np.unravel_index(int(np.argmin(mags)), shape)
            k, value = _grid_min(np.asfortranarray(vals))
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


def test_fft_inverse_peak_memory_below_three_grids():
    # The samples, their moduli, the reciprocals and the transform used to be
    # live together; now the division and the transform run in place.
    f = delta(LatticeGroup(2), (0, 0), 2) + delta(LatticeGroup(2), (1, 0), 0.5)
    grid_bytes = 1024 * 1024 * np.dtype(complex).itemsize
    tracemalloc.start()
    try:
        cert = invert_via_fft(f, 1024)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cert.verdict == "invertible"
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
        kept = list(invert_via_fft(f, size).inverse.items())
        assert _bits(kept) == _bits(_reference_chop(f.to_float(), size).items())
        for key, value in kept:
            assert type(key) is tuple and all(type(i) is int for i in key)
            assert type(value) is complex
        if f is even and size <= 8:
            assert all(value.imag == 0 for _, value in kept)


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
    residuals = [neumann_invert(f, w, terms=k, tol=1.0).residual for k in (5, 10, 20)]
    assert residuals == [Fraction(1, 2**6), Fraction(1, 2**11), Fraction(1, 2**21)]
    tails = [neumann_invert(f, w, terms=k, tol=1.0).fields["tail_bound"] for k in (5, 10, 20)]
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
