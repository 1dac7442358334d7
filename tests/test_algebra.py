import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from galab.algebra import (
    AlgebraElement,
    QComplex,
    convolve,
    delta,
    element_from_json,
    element_to_json,
    identity_element,
)
from galab.errors import UsageError
from galab.groups import FreeGroup, LatticeGroup, cyclic_group, symmetric_group
from galab.weights import ExpSymmetricWeight, Weight

Z = LatticeGroup(1)


@pytest.mark.parametrize("group", [Z, LatticeGroup(2), FreeGroup(2), symmetric_group(3)], ids=repr)
@pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
def test_identity_element_has_the_storage_of_its_delta(group, exact):
    e, d = identity_element(group, exact=exact), delta(group, group.identity, 1, exact=exact)
    assert (e.exact, e._den, e.gaussian) == (d.exact, d._den, d.gaussian)
    assert [(x, repr(v)) for x, v in e._terms.items()] == [(x, repr(v)) for x, v in d._terms.items()]


# ---------------------------------------------------------------------------
# oracle: plain dict-of-exponents Laurent multiplication, written separately
# from the convolution code.


def laurent_mul(p, q):
    out = {}
    for i, a in p.items():
        for j, b in q.items():
            out[i + j] = out.get(i + j, 0) + a * b
    return {k: v for k, v in out.items() if v != 0}


def from_poly(p, exact=True):
    return AlgebraElement(
        Z, {(k,): QComplex.of(v) if exact else complex(v) for k, v in p.items()}, exact
    )


def test_convolution_matches_laurent_oracle():
    p = {0: 1, 1: -1}            # 1 - x
    q = {0: 1, 1: 1, 2: 1}       # 1 + x + x^2
    expect = laurent_mul(p, q)   # 1 - x^3
    assert expect == {0: 1, 3: -1}
    got = convolve(from_poly(p), from_poly(q))
    assert {x[0]: v.re for x, v in got.items()} == expect


def test_convolution_matches_oracle_with_gaps_and_negatives():
    p = {-2: Fraction(1, 3), 5: 2}
    q = {-1: 4, 0: Fraction(-2, 7), 3: 1}
    expect = laurent_mul(p, q)
    got = convolve(from_poly(p), from_poly(q))
    assert {x[0]: v.re for x, v in got.items()} == expect


small_elements = st.dictionaries(
    st.integers(-4, 4), st.fractions(min_value=-4, max_value=4), max_size=4
).map(lambda d: from_poly(d))


@given(small_elements, small_elements, small_elements)
@settings(max_examples=50)
def test_convolution_ring_axioms_exact(f, g, h):
    e = identity_element(Z, exact=True)
    assert convolve(convolve(f, g), h) == convolve(f, convolve(g, h))
    assert convolve(f, g + h) == convolve(f, g) + convolve(f, h)
    assert convolve(e, f) == f
    assert convolve(f, e) == f


def test_convolution_on_nonabelian_group_respects_order():
    f2 = FreeGroup(2)
    a = delta(f2, (1,))
    b = delta(f2, (2,))
    assert list(convolve(a, b).support) == [(1, 2)]
    assert list(convolve(b, a).support) == [(2, 1)]


# ---------------------------------------------------------------------------
# exact convolution against a plain QComplex double loop


def reference_convolve(h, f):
    """Exact h*f by QComplex products and sums, in x-then-y key order."""
    acc = {}
    for x, a in h.items():
        for y, b in f.items():
            z = h.group.mul(x, y)
            acc[z] = acc[z] + a * b if z in acc else a * b
    return [(z, v) for z, v in acc.items() if not v.is_zero]


F2 = FreeGroup(2)
S3 = symmetric_group(3)


def _word(letters):
    w = ()
    for a in letters:
        w = F2.mul(w, (a,))
    return w


# Few support points per group, so products collide and partial sums cancel.
_points = {
    "Z": st.integers(-2, 2).map(lambda k: (k,)),
    "Z2": st.tuples(st.integers(-1, 1), st.integers(-1, 1)),
    "F2": st.lists(st.sampled_from([1, -1, 2, -2]), max_size=3).map(_word),
    "S3": st.integers(0, 5),
}
_groups = {"Z": Z, "Z2": LatticeGroup(2), "F2": F2, "S3": S3}
_parts = st.builds(Fraction, st.integers(-3, 3), st.sampled_from([1, 2, 3, 4, 6, 35, 77]))


def _elements(kind, gaussian):
    amp = st.builds(QComplex, _parts, _parts if gaussian else st.just(Fraction(0)))
    return st.dictionaries(_points[kind], amp, max_size=5).map(
        lambda d: AlgebraElement(_groups[kind], d, True)
    )


@st.composite
def _exact_pairs(draw):
    kind = draw(st.sampled_from(sorted(_groups)))
    h = draw(_elements(kind, draw(st.booleans())))
    f = draw(_elements(kind, draw(st.booleans())))
    return h, f


def _assert_exact_and_same(got, want):
    assert got.exact
    assert list(got.items()) == want  # keys, key order and values
    for _, v in got.items():
        assert type(v.re) is Fraction and type(v.im) is Fraction


@given(_exact_pairs())
@settings(max_examples=300)
def test_exact_convolution_matches_qcomplex_reference(pair):
    h, f = pair
    _assert_exact_and_same(convolve(h, f), reference_convolve(h, f))
    mixed = convolve(h, f.to_float())
    assert not mixed.exact
    assert mixed == convolve(h.to_float(), f.to_float())


@given(st.sampled_from(sorted(_groups)).flatmap(
    lambda kind: st.tuples(st.just(kind), *[_points[kind]] * 3)),
    st.builds(QComplex, _parts, _parts), st.builds(QComplex, _parts, _parts))
@settings(max_examples=100)
def test_exact_convolution_cancels_to_exact_zero(points, q, r):
    # (q a + q b) * (r c - r d) with d = b^-1 a c: the terms at ac and bd cancel.
    kind, a, b, c = points
    group = _groups[kind]
    if a == b or q.is_zero or r.is_zero:
        return
    d = group.mul(group.mul(group.inv(b), a), c)
    h = AlgebraElement(group, {a: q, b: q}, True)
    f = AlgebraElement(group, {c: r, d: -r}, True)
    got = convolve(h, f)
    _assert_exact_and_same(got, reference_convolve(h, f))
    assert group.mul(a, c) not in dict(got.items())


@pytest.mark.parametrize("kind", sorted(_groups))
def test_exact_convolution_with_empty_operand(kind):
    group = _groups[kind]
    zero = AlgebraElement.zero(group, exact=True)
    f = AlgebraElement(group, {group.identity: QComplex.of("1/3", "2/5")}, True)
    for got in (convolve(zero, f), convolve(f, zero), convolve(zero, zero)):
        assert got.exact and got.is_zero


def test_exact_convolution_with_coprime_large_denominators():
    # Pairwise-coprime denominators: the LCMs are their full products.
    p, q, r, s = 2**61 - 1, 10**9 + 7, 998244353, 1000003
    h = AlgebraElement(Z, {(0,): QComplex(Fraction(1, p), Fraction(-2, q)),
                           (1,): QComplex(Fraction(3, r))}, True)
    f = AlgebraElement(Z, {(-1,): QComplex(Fraction(5, s), Fraction(7, p * q)),
                           (0,): QComplex(Fraction(-11, r * s))}, True)
    got = convolve(h, f)
    _assert_exact_and_same(got, reference_convolve(h, f))
    assert got.amplitude((0,)) == QComplex(Fraction(-11, p * r * s) + Fraction(15, r * s),
                                           Fraction(22, q * r * s) + Fraction(21, p * q * r))


# ---------------------------------------------------------------------------
# one-denominator storage against Fraction-by-Fraction references


def _parts_of(f):
    """[(x, (re, im))] of an exact element, as Fractions in storage order."""
    return [(x, (v.re, v.im)) for x, v in f.items()]


def reference_add(h, f, sign=1):
    """h + sign*f on (re, im) Fraction pairs, zero sums dropped in place."""
    acc = dict(_parts_of(h))
    for x, (re, im) in _parts_of(f):
        s = acc.get(x, (Fraction(0), Fraction(0)))
        acc[x] = (s[0] + sign * re, s[1] + sign * im)
    return [(x, v) for x, v in acc.items() if v != (0, 0)]


def reference_scale(f, c):
    return [(x, (re * c.re - im * c.im, re * c.im + im * c.re)) for x, (re, im) in _parts_of(f)
            if not c.is_zero]


def reference_norm(f, weight=None):
    """The weighted l1 norm as a running sum of Fraction magnitudes."""
    total = Fraction(0)
    for x, (re, im) in _parts_of(f):
        mag = abs(re) if im == 0 else abs(im) if re == 0 else math.hypot(float(re), float(im))
        total = total + (mag if weight is None else mag * weight.value(f.group, x))
    return total


class _LengthWeight(Weight):
    """A weight valued by a function of the word length, of any number type."""

    def __init__(self, fn):
        self.fn = fn

    def value(self, group, x):
        return self.fn(group.word_length(x))


_WEIGHTS = {
    "none": None,
    "int": _LengthWeight(lambda n: 3**n),
    "fraction": _LengthWeight(lambda n: Fraction(3 + n, 2)),
    "float": _LengthWeight(lambda n: 1.1**n),
    "int-and-float": _LengthWeight(lambda n: 2**n if n % 2 == 0 else 0.7 + n),
}


@st.composite
def _exact_triples(draw):
    kind = draw(st.sampled_from(sorted(_groups)))
    return tuple(draw(_elements(kind, draw(st.booleans()))) for _ in range(3))


def _same(got, want):
    assert got.exact
    assert _parts_of(got) == want  # keys, key order and values
    den, nums = got.numerators()
    parts = [p for v in nums.values() for p in (v if got.gaussian else (v,))]
    assert den > 0 and math.gcd(den, *parts) == 1
    assert got.gaussian == any(im for _, (_, im) in want)


@given(_exact_triples(), st.builds(QComplex, _parts, _parts))
@settings(max_examples=150)
def test_ring_operations_match_fraction_references(triple, c):
    h, f, g = triple
    _same(h + f, reference_add(h, f))
    _same(h - f, reference_add(h, f, -1))
    _same(f - f, [])
    _same(-f, reference_scale(f, QComplex(Fraction(-1))))
    _same(f.scale(c), reference_scale(f, c))
    _same(f.scale(c.re), reference_scale(f, QComplex(c.re)))
    _same(convolve(h, f), [(x, (v.re, v.im)) for x, v in reference_convolve(h, f)])
    assert (h + f) - f == h
    assert convolve(h, f + g) == convolve(h, f) + convolve(h, g)


@given(_exact_pairs(), st.sampled_from(sorted(_WEIGHTS)))
@settings(max_examples=150)
def test_weighted_norm_matches_a_running_fraction_sum(pair, weight_kind):
    h, f = pair
    weight = _WEIGHTS[weight_kind]
    for el in (h, f, convolve(h, f), h - h):
        got, want = el.norm(weight), reference_norm(el, weight)
        assert type(got) is type(want)
        assert repr(got) == repr(want)  # float sums keep their bits


@given(_exact_pairs(), st.integers(1, 60))
@settings(max_examples=100)
def test_equal_elements_have_equal_storage(pair, k):
    h, f = pair
    den, nums = f.numerators()
    if f.gaussian:
        scaled = {x: (re * k, im * k) for x, (re, im) in nums.items()}
    else:
        scaled = {x: v * k for x, v in nums.items()}
    g = AlgebraElement.from_numerators(f.group, scaled, den * k, f.gaussian)
    assert g == f and g.numerators() == f.numerators()
    # Pairs whose imaginary parts vanish are stored as ints.
    paired = {x: (v, 0) for x, v in scaled.items()} if not f.gaussian else scaled
    assert AlgebraElement.from_numerators(f.group, paired, den * k, True) == f
    if not h.is_zero:
        c = next(v for _, v in h.items())
        assert f.scale(c).scale(1 / c) == f


@given(_exact_pairs())
@settings(max_examples=100)
def test_exact_json_round_trip_and_text(pair):
    for f in pair:
        obj = element_to_json(f)
        assert element_from_json(obj) == f
        want = [(f.group.element_to_json(x), str(f.amplitude(x).re), str(f.amplitude(x).im))
                for x in f.support]
        assert [(t["x"], t["re"], t["im"]) for t in obj["terms"]] == want


def test_gaussian_product_that_turns_real_is_stored_real():
    # (1 + i)(1 - i) = 2 on Z, over denominators 2 and 3.
    h = AlgebraElement(Z, {(0,): QComplex.of("1/2", "1/2")}, True)
    f = AlgebraElement(Z, {(1,): QComplex.of("1/3", "-1/3")}, True)
    got = convolve(h, f)
    assert not got.gaussian
    assert got.numerators() == (3, {(1,): 1})
    assert got == delta(Z, (1,), Fraction(1, 3), exact=True)


def test_scalar_and_arithmetic_basics():
    f = delta(Z, (0,), 2) + delta(Z, (1,))
    assert f.amplitude((0,)) == 2
    assert (f - f).is_zero
    assert (-f).amplitude((1,)) == -1
    g = f.scale(0.5)
    assert g.amplitude((0,)) == 1.0
    assert (2 * f).amplitude((1,)) == 2


def test_zero_terms_are_dropped():
    f = AlgebraElement(Z, {(0,): 1, (1,): 0}, False)
    assert f.n_terms == 1
    assert f.support == ((0,),)


def test_mixed_mode_addition_demotes_to_float():
    exact = delta(Z, (0,), Fraction(1, 3), exact=True)
    approx = delta(Z, (0,), 0.25)
    total = exact + approx
    assert not total.exact
    assert abs(total.amplitude((0,)) - (1 / 3 + 0.25)) < 1e-15


def test_norm_weighted_exact():
    f = delta(Z, (0,), 1, exact=True) - delta(Z, (1,), Fraction(1, 4), exact=True)
    w = ExpSymmetricWeight(2)
    value = f.norm(w)
    assert value == Fraction(3, 2)
    assert isinstance(value, Fraction)
    assert f.norm() == Fraction(5, 4)


def test_group_mismatch_raises():
    f = delta(Z, (0,))
    g = delta(LatticeGroup(2), (0, 0))
    with pytest.raises(UsageError):
        f + g
    with pytest.raises(UsageError):
        convolve(f, g)


def test_element_rejects_invalid_support():
    with pytest.raises(UsageError):
        delta(Z, (0, 0))
    c4 = cyclic_group(4)
    with pytest.raises(UsageError):
        delta(c4, 9)


# ---------------------------------------------------------------------------
# QComplex scalars


def test_qcomplex_exact_arithmetic():
    a = QComplex.of(Fraction(1, 3), 1)
    b = QComplex.of(Fraction(2, 3), -1)
    assert a + b == QComplex.of(1, 0)
    assert a * b == QComplex.of(Fraction(2, 9) + 1, Fraction(1, 3))
    quotient = a / b
    assert quotient * b == a
    assert a - b == QComplex.of(Fraction(-1, 3), 2)
    assert 1 - a == QComplex.of(Fraction(2, 3), -1) and a - Fraction(1, 3) == QComplex.of(0, 1)
    assert 1 / b == QComplex.of(Fraction(6, 13), Fraction(9, 13))
    # A float or a complex demotes the exact scalar to a complex.
    assert a - 0.5 == complex(1 / 3 - 0.5, 1) and 0.5 - a == complex(0.5 - 1 / 3, -1)
    assert a / 2.0 == complex(1 / 6, 0.5) and 1j / QComplex.of(0, 2) == 0.5
    assert QComplex.of(Fraction(1, 2), -1) == 0.5 - 1j != QComplex.of(Fraction(1, 2))


def test_qcomplex_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        QComplex.of(1) / QComplex.of(0)


def test_qcomplex_demotes_on_float_contact():
    a = QComplex.of(Fraction(1, 2))
    assert isinstance(a + 0.25, complex)
    assert isinstance(a * 1j, complex)
    assert isinstance(a * Fraction(1, 2), QComplex)


def test_qcomplex_magnitude_exact_on_axes():
    assert QComplex.of(Fraction(-3, 4)).magnitude() == Fraction(3, 4)
    assert QComplex.of(0, Fraction(2, 5)).magnitude() == Fraction(2, 5)
    assert QComplex.of(3, 4).magnitude() == pytest.approx(5.0)


def test_qcomplex_equality_and_hash_follow_numbers():
    half = QComplex.of(Fraction(1, 2))
    assert half == Fraction(1, 2)
    assert half == 0.5
    assert hash(half) == hash(Fraction(1, 2))
    assert QComplex.of(2) == 2


# ---------------------------------------------------------------------------
# JSON


def test_element_json_round_trip_exact():
    f = delta(Z, (0,), Fraction(2, 3), exact=True) + delta(
        Z, (5,), QComplex.of(0, Fraction(-1, 7)), exact=True
    )
    obj = element_to_json(f)
    assert obj["scalars"] == "exact"
    assert obj["terms"][0]["re"] == "2/3"
    again = element_from_json(obj)
    assert again == f
    assert again.exact


def test_element_json_round_trip_float():
    f = delta(Z, (0,), 1.5 + 0.25j) + delta(Z, (-2,), -0.75)
    again = element_from_json(element_to_json(f))
    assert again == f
    assert not again.exact


def test_element_json_merges_duplicate_points():
    obj = {
        "group": {"kind": "Z", "rank": 1},
        "scalars": "float",
        "terms": [
            {"x": [0], "re": 1.0, "im": 0.0},
            {"x": [0], "re": 2.0, "im": 0.0},
        ],
    }
    assert element_from_json(obj).amplitude((0,)) == 3.0


@pytest.mark.parametrize("scalars", ["Exact", "real", 5, None])
def test_element_json_refuses_unknown_scalars(scalars):
    obj = {"group": {"kind": "Z", "rank": 1}, "scalars": scalars, "terms": [{"x": [0], "re": 2}]}
    with pytest.raises(UsageError, match="'scalars' must be"):
        element_from_json(obj)


def test_element_json_infers_undeclared_scalars():
    base = {"group": {"kind": "Z", "rank": 1}}
    assert element_from_json({**base, "terms": [{"x": [0], "re": "1/2"}]}).exact
    assert not element_from_json({**base, "terms": [{"x": [0], "re": 0.5}]}).exact


def test_element_json_rejects_malformed_terms():
    base = {"group": {"kind": "Z", "rank": 1}, "scalars": "float"}
    with pytest.raises(UsageError, match="malformed term"):
        element_from_json({**base, "terms": [{"re": 1.0}]})
    with pytest.raises(UsageError, match="malformed term"):
        element_from_json({**base, "terms": [[0, 1.0]]})
