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
from galab.groups import FreeGroup, LatticeGroup, cyclic_group
from galab.weights import ExpSymmetricWeight

Z = LatticeGroup(1)


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


def test_element_json_rejects_malformed_terms():
    base = {"group": {"kind": "Z", "rank": 1}, "scalars": "float"}
    with pytest.raises(UsageError, match="malformed term"):
        element_from_json({**base, "terms": [{"re": 1.0}]})
    with pytest.raises(UsageError, match="malformed term"):
        element_from_json({**base, "terms": [[0, 1.0]]})
