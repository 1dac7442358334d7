import json
import math
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from galab.algebra import AlgebraElement, canonical_json, delta
from galab.cli import main
from galab.errors import ContractViolationError, ResourceLimitError, UsageError
from galab.groups import (
    FreeGroup,
    LatticeGroup,
    Window,
    ball,
    dihedral_group,
    quaternion_group,
    symmetric_group,
)
from galab.invertibility import neumann_invert, verify_direct_finiteness
from galab import weights
from galab.weights import (
    CHECK_PAIR_CAP,
    Character,
    ConstantWeight,
    ExpDirectionalWeight,
    ExpSymmetricWeight,
    PolynomialWeight,
    ProductWeight,
    QuotientWeight,
    TableWeight,
    character_twist,
    check_pair_cap,
    check_weight,
    dominate_character,
    rescale_by_character,
    weight_from_json,
)

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import workloads  # noqa: E402

Z = LatticeGroup(1)
Z2 = LatticeGroup(2)


def test_basic_weight_values():
    assert ExpSymmetricWeight(2).value(Z, (-3,)) == 8
    assert PolynomialWeight(1).value(Z2, (1, -2)) == 4
    assert ConstantWeight(5).value(Z, (7,)) == 5
    w = ExpDirectionalWeight([math.log(2)])
    assert w.value(Z, (3,)) == pytest.approx(8.0)
    assert w.value(Z, (-3,)) == pytest.approx(1.0)  # rectified: flat below 0


def test_weight_values_stay_within_the_float_range():
    # Exact powers are kept up to the float range and refused past it,
    # before a huge exponent is ever computed.
    assert ExpSymmetricWeight(2).value(Z, (1022,)) == 2**1022
    assert PolynomialWeight(10**12).value(Z, (0,)) == 1
    outside = [
        (ExpSymmetricWeight(2), (1023,)),
        (ExpSymmetricWeight(2.0), (1024,)),
        (PolynomialWeight(10**12), (1,)),
        (PolynomialWeight(2.5), (10**400,)),
        (ExpDirectionalWeight([1000.0]), (1,)),
        (ExpDirectionalWeight([-1000.0], rectified=False), (1,)),  # underflows to 0
        (QuotientWeight(ConstantWeight(), Character((-746.0,))), (1,)),
        (ProductWeight([ExpSymmetricWeight(1e200), ExpSymmetricWeight(1e200)]), (1,)),
    ]
    for weight, x in outside:
        with pytest.raises(UsageError, match="float range"):
            weight.value(Z, x)
    with pytest.raises(UsageError, match="float range"):
        character_twist(Character((-746.0,)), delta(Z, (1,)))


def test_constant_below_one_rejected():
    with pytest.raises(UsageError):
        ConstantWeight(0.5)


def test_check_weight_on_symmetric_exponential():
    rep = check_weight(ExpSymmetricWeight(2), Z.ball(5))
    assert rep.submultiplicative
    assert rep.symmetric
    assert rep.min_value == 1.0
    assert rep.min_at == (0,)
    assert rep.worst_pair is None


def test_check_weight_flags_directional_asymmetry():
    rep = check_weight(ExpDirectionalWeight([1.0]), Z.ball(4))
    assert rep.submultiplicative
    assert not rep.symmetric


def test_check_weight_catches_violation():
    # values dip below 1 at +/-1 while 1 at 0: w(1)*w(-1) < w(0) fails
    tw = TableWeight({(0,): 1.0, (1,): 0.5, (-1,): 0.5})
    rep = check_weight(tw, Z.ball(1))
    assert not rep.submultiplicative
    assert rep.worst_ratio > 1
    assert rep.worst_pair is not None


@pytest.mark.parametrize("group", [Z, FreeGroup(2), dihedral_group(3)], ids=["Z", "F2", "cayley"])
def test_check_weight_refuses_an_empty_window(group):
    # Weight's own value() raises NotImplementedError: the refusal takes no value.
    with pytest.raises(UsageError, match="nonempty window"):
        check_weight(weights.Weight(), Window(group, []))


def test_table_weight_is_lookup_only():
    # An extension of a table to products of its entries need not be
    # submultiplicative: {0: 1, +-1: 0.1} would certify the non-invertible
    # delta_0 - delta_1.  So only "extension": "error" decodes.
    name, weight, _ = workloads.SERIES_DEFECTS[1]
    assert name == "table-envelope"
    with pytest.raises(UsageError, match="lookup-only"):
        weight_from_json(weight, Z)
    assert weight_from_json({**weight, "extension": "error"}, Z).value(Z, (1,)) == 0.1
    strict = TableWeight({(0,): 1.0, (1,): 2.0})
    with pytest.raises(UsageError, match="outside the weight table"):
        strict.value(Z, (2,))


@pytest.mark.parametrize("weight", [
    ConstantWeight(2), ExpSymmetricWeight(2), PolynomialWeight(1), ExpDirectionalWeight([0.5]),
    TableWeight({(0,): 1, (1,): 2}), QuotientWeight(ExpSymmetricWeight(2), Character((0.5,))),
    ProductWeight([ConstantWeight(2), PolynomialWeight(1)])], ids=lambda w: w.to_json()["kind"])
def test_weights_are_immutable_once_built(weight):
    # Callers keep the values of a weight object, so no value may change.
    name = next(iter(vars(weight)))
    with pytest.raises(AttributeError, match="immutable"):
        setattr(weight, name, getattr(weight, name))
    with pytest.raises(AttributeError, match="immutable"):
        delattr(weight, name)
    with pytest.raises(AttributeError, match="immutable"):
        weight.extra = 1


def test_table_values_are_a_read_only_private_copy():
    given = {(0,): 1, (1,): 1.5}
    table = TableWeight(given)
    given[(1,)] = 1.9
    with pytest.raises(TypeError):
        table.values[(1,)] = 1.9
    assert table.value(Z, (1,)) == 1.5
    assert table.to_json() == {"kind": "table", "entries": [[(0,), 1], [(1,), 1.5]]}


def test_weight_subclasses_set_attributes_in_their_own_constructor():
    class Scaled(ExpSymmetricWeight):
        def __init__(self, base, factor):
            super().__init__(base)
            self.factor = factor

        def value(self, group, x):
            return self.factor * super().value(group, x)

    w = Scaled(2, 3)
    assert (w.base, w.factor, w.value(Z, (2,))) == (2, 3, 12)
    with pytest.raises(AttributeError, match="immutable"):
        w.factor = 4


@pytest.mark.parametrize("value", [math.nan, math.inf, 2**2000, 0, -1.0])
def test_table_and_constant_weight_values_are_checked(value):
    # The constructors refuse what JSON decoding refuses, so a weight built in
    # Python cannot carry a NaN or overflow a float norm later.  A NaN constant
    # passed the "< 1" test and gave the Neumann series a NaN ratio.
    with pytest.raises(UsageError, match="float range"):
        TableWeight({(0,): 1.0, (1,): value, (-1,): 1.0})
    with pytest.raises(UsageError, match="float range"):
        ConstantWeight(value)


@pytest.mark.parametrize("build", [
    lambda: ConstantWeight(True),
    lambda: ConstantWeight("2"),
    lambda: TableWeight({(0,): "2", (1,): 3, (-1,): 3}),
    lambda: TableWeight({(0,): 1, (1,): True, (-1,): 1}),
    lambda: TableWeight({(0,): 1, (1,): 2j, (-1,): 1}),
    lambda: ExpSymmetricWeight("2"),
    lambda: ExpSymmetricWeight(True),
    lambda: PolynomialWeight("1"),
    lambda: PolynomialWeight(False),
    lambda: dominate_character(ExpSymmetricWeight(2), Z, "3"),
    lambda: ExpDirectionalWeight(["x"]),
    lambda: ExpDirectionalWeight([True]),
    lambda: ExpDirectionalWeight([math.nan]),
    lambda: ExpDirectionalWeight([0.5, -math.inf]),
    lambda: ExpDirectionalWeight([10**400]),
    lambda: Character(("x",)),
    lambda: Character((math.inf,)),
    lambda: Character((1, False)),
    lambda: ExpDirectionalWeight(5),
    lambda: Character(0.5),
    lambda: ExpDirectionalWeight([1.0], rectified="no"),
    lambda: ExpDirectionalWeight([1.0], rectified=1),
], ids=["constant-bool", "constant-str", "table-str", "table-bool", "table-complex",
        "exp-str", "exp-bool", "poly-str", "poly-bool", "dominate-str",
        "exp-dir-str", "exp-dir-bool", "exp-dir-nan", "exp-dir-inf", "exp-dir-huge",
        "character-str", "character-inf", "character-bool",
        "exp-dir-int", "character-float", "rectified-str", "rectified-int"])
def test_weights_refuse_what_is_not_a_number(build):
    # A bool or a numeric string was kept as a weight value, and its JSON
    # ("value": true, "2") was refused by weight_from_json; a string base,
    # beta or radius ended in a bare TypeError from a comparison.  float()
    # took each directional or character coefficient: a string ended in a
    # ValueError, True became 1.0, and NaN or inf was kept until a value was read.
    # A coefficient "sequence" that is a number ended in TypeError: 'int' object
    # is not iterable, and a rectified flag that is not a bool was kept and
    # written to JSON, which weight_from_json then refused.
    with pytest.raises(UsageError, match="must be a"):
        build()


def test_fraction_weight_values_past_the_float_range_are_refused():
    # 0 < value < inf held for a Fraction past the float range, so the float
    # norm ended in an OverflowError, or the 401-digit value came back.
    huge = Fraction(10**400)
    f = delta(Z, (0,), 3.0) + delta(Z, (1,), 1.0)
    with pytest.raises(UsageError, match="float range"):
        neumann_invert(f, ConstantWeight(huge), terms=2)
    with pytest.raises(UsageError, match="float range"):
        neumann_invert(f, TableWeight({(0,): 1, (1,): huge, (-1,): 1}), terms=2)
    with pytest.raises(UsageError, match="float range"):
        ExpSymmetricWeight(huge).value(Z, (1,))
    w = ConstantWeight(Fraction(3, 2))
    assert w.constant == Fraction(3, 2)
    g = delta(Z, (0,), 3, exact=True) - delta(Z, (1,), Fraction(1, 2), exact=True)
    assert g.norm(w) == Fraction(21, 4)


@pytest.mark.parametrize("weight", [ExpSymmetricWeight(0.5),
                                    ExpDirectionalWeight([-1.0])], ids=["exp-half", "rectified"])
def test_weighted_oracles_refuse_a_weight_not_proven_submultiplicative(weight):
    # Both weights fail w(xy) <= w(x) w(y) (check_weight finds a pair), and
    # the series used to call d0 - d1, whose symbol vanishes at 0, invertible.
    f = delta(Z, (0,), 1.0) - delta(Z, (1,), 1.0)
    assert not check_weight(weight, ball(Z, 2)).submultiplicative
    assert weight.submultiplicative_proof(Z) is None
    with pytest.raises(UsageError, match="not proven submultiplicative"):
        neumann_invert(f, weight)
    with pytest.raises(UsageError, match="not proven submultiplicative"):
        verify_direct_finiteness(f, f, weight)
    el = {"group": {"kind": "Z", "rank": 1},
          "terms": [{"x": [0], "re": 1.0}, {"x": [1], "re": -1.0}]}
    argv = ["invert", "--input", json.dumps(el), "--weight", json.dumps(weight.to_json())]
    assert main(argv) == 1


PROVEN = [ConstantWeight(1), ConstantWeight(Fraction(3, 2)), ExpSymmetricWeight(1),
          ExpSymmetricWeight(2.5), PolynomialWeight(0), PolynomialWeight(1.5),
          ExpDirectionalWeight([0.0, 0.7]), ExpDirectionalWeight([-1.0, 0.5], rectified=False),
          QuotientWeight(ExpSymmetricWeight(2), Character((0.5, -0.25))),
          ProductWeight([ExpSymmetricWeight(2), PolynomialWeight(1)])]
UNPROVEN = [ExpSymmetricWeight(0.999), ExpDirectionalWeight([0.5, -0.1]),
            QuotientWeight(ExpSymmetricWeight(0.5), Character((0.1, 0.1))),
            ProductWeight([PolynomialWeight(1), ExpSymmetricWeight(0.5)])]


def exact_worst(weight, window):
    """(ratio, pair): the first maximum of w(xy) / (w(x) w(y)) in x-then-y
    order over the window's pairs whose product is in it, in Fractions,
    or (0, None) when no product is."""
    group = window.group
    vals = {x: Fraction(weight.value(group, x)) for x in window}
    worst, pair = Fraction(0), None
    for x in window:
        for y in window:
            z = group.mul(x, y)
            if z in vals and vals[z] / (vals[x] * vals[y]) > worst:
                worst, pair = vals[z] / (vals[x] * vals[y]), (x, y)
    return worst, pair


# Every value of these is an int or a Fraction, so the exact scan is exact
# about the weight itself; float values (characters, real powers) are not.
EXACT_PROVEN = [ConstantWeight(1), ConstantWeight(Fraction(3, 2)), ExpSymmetricWeight(1),
                ExpSymmetricWeight(2), ExpSymmetricWeight(Fraction(5, 2)), PolynomialWeight(0),
                PolynomialWeight(1), PolynomialWeight(3),
                ProductWeight([ExpSymmetricWeight(2), PolynomialWeight(1)]),
                ProductWeight([ConstantWeight(Fraction(7, 6)), ExpSymmetricWeight(Fraction(4, 3))])]


@pytest.mark.parametrize("weight", EXACT_PROVEN, ids=lambda w: canonical_json(w.to_json()).strip())
@pytest.mark.parametrize("group", [Z2, FreeGroup(2), symmetric_group(3)], ids=repr)
def test_a_proven_weight_passes_the_exhaustive_check(weight, group):
    # Every closed-form proof is one the exact scan of a ball's pairs agrees with.
    window = ball(group, 2)
    assert weight.submultiplicative_proof(group)
    assert exact_worst(weight, window)[0] <= 1
    rep = check_weight(weight, window)
    assert rep.submultiplicative and rep.proof == weight.submultiplicative_proof(group)
    assert (rep.worst_ratio, rep.worst_pair) == (1.0, None)


@pytest.mark.parametrize("weight", PROVEN, ids=lambda w: w.to_json()["kind"])
def test_a_weight_is_proven_when_every_part_is(weight):
    assert weight.submultiplicative_proof(Z2)
    assert check_weight(weight, ball(Z2, 2)).submultiplicative


@pytest.mark.parametrize("weight", UNPROVEN, ids=lambda w: w.to_json()["kind"])
def test_a_weight_is_unproven_when_a_part_of_it_is(weight):
    assert weight.submultiplicative_proof(Z2) is None


def test_a_table_weight_is_proven_by_an_exact_scan():
    assert TableWeight({(-1,): 1.5, (0,): 1, (1,): 1.5}).submultiplicative_proof(Z)
    # 1 > 0.5 * 0.5 at the pair ((1,), (-1,)).
    assert TableWeight({(0,): 1.0, (1,): 0.5, (-1,): 0.5}).submultiplicative_proof(Z) is None
    # The float 0.1 * 0.1 rounds up past the exact product of the two values,
    # so w(2) > w(1) w(1), which a float comparison calls equal.
    assert Fraction(0.1 * 0.1) > Fraction(0.1) ** 2
    tight = TableWeight({(0,): 1, (1,): 0.1, (2,): 0.1 * 0.1})
    assert tight.submultiplicative_proof(Z) is None
    f = delta(Z, (0,), 1.0) + delta(Z, (1,), 0.5)
    with pytest.raises(UsageError, match="not proven submultiplicative"):
        neumann_invert(f, tight)
    # The scan's pairs are capped as check_weight's loop is.
    wide = TableWeight.on_ball(Z, 256, [1] * 513)
    with pytest.raises(ResourceLimitError, match="cap is"):
        neumann_invert(f, wide)


def test_table_weight_on_ball_checks_length():
    with pytest.raises(UsageError):
        TableWeight.on_ball(Z, 1, [1.0, 1.0])


def test_weight_json_round_trip():
    weights = [
        ExpSymmetricWeight(2.0),
        PolynomialWeight(1.5),
        ConstantWeight(3),
        ExpDirectionalWeight([0.5, -0.25], rectified=False),
        ProductWeight((ExpSymmetricWeight(2), PolynomialWeight(1))),
        QuotientWeight(ExpSymmetricWeight(2), Character((0.1,))),
        TableWeight({(2,): 3, (0,): 1.0}),
        TableWeight.on_ball(Z, 2, [4, 2, 1, 2, 4.5]),
    ]
    for w in weights:
        group = Z2 if isinstance(w, ExpDirectionalWeight) else Z
        probe = (1, -2) if group is Z2 else (2,)
        again = weight_from_json(w.to_json(), group)
        assert type(again) is type(w)
        assert again.value(group, probe) == pytest.approx(w.value(group, probe))


def test_table_weight_ball_json_round_trip():
    win = Z.ball(2)
    tw = TableWeight.on_ball(Z, 2, [float(2 ** abs(x[0])) for x in win])
    again = weight_from_json(tw.to_json(), Z)
    for x in win:
        assert again.value(Z, x) == tw.value(Z, x)


def test_weight_from_json_reports_missing_fields():
    with pytest.raises(UsageError, match="missing field"):
        weight_from_json({"kind": "exp_symmetric"})
    with pytest.raises(UsageError, match="missing field"):
        weight_from_json({"kind": "table", "extension": "error"})
    with pytest.raises(UsageError, match="unknown weight kind"):
        weight_from_json({"kind": "gaussian"})


# ---------------------------------------------------------------------------
# character domination.  For w(n) = 2^n (1+|n|) on [-50, 50] the constraint
# <c, n> <= log w(n) pins c into [ln2 - ln(51)/50, ln2 + ln(51)/50]; the
# midpoint is ln 2.


def growth_weight():
    return ProductWeight(
        (ExpDirectionalWeight([math.log(2)], rectified=False), PolynomialWeight(1))
    )


def test_dominate_rank1_interval_and_midpoint():
    result = dominate_character(growth_weight(), Z, 50)
    assert result.feasible
    slack = math.log(51) / 50
    assert result.lower == pytest.approx(math.log(2) - slack)
    assert result.upper == pytest.approx(math.log(2) + slack)
    assert abs(result.character.c[0] - math.log(2)) <= slack


def _table_over_character(seed):
    """A seeded table on a ball of Z^2 or Z^3 with log w(x) = <a, x> + u_x
    for u_x in [0, 1], so exp(<a, x>) lies below it."""
    rng = random.Random(seed)
    group, radius = LatticeGroup(2 + seed % 2), 2 + seed // 2
    a = [rng.uniform(-1, 1) for _ in range(group.rank)]
    w = TableWeight({x: math.exp(sum(ai * xi for ai, xi in zip(a, x)) + rng.uniform(0, 1))
                     for x in ball(group, radius)})
    return pytest.param(w, group, radius, id=f"table-Z{group.rank}-r{radius}")


@pytest.mark.parametrize("weight, group, radius", [
    pytest.param(growth_weight(), Z, 50, id="growth-Z"), *map(_table_over_character, range(6)),
])
def test_dominate_character_lies_below_weight(weight, group, radius):
    result = dominate_character(weight, group, radius)
    assert result.feasible
    phi = result.character
    for x in ball(group, radius):
        assert phi.value(x) <= weight.value(group, x) * (1 + 1e-9)


def test_dominate_infeasible_has_certificate():
    # w(n) = 2^-|n| decays both ways; no exp(cn) fits under it on both sides
    decay = TableWeight({(n,): 2.0 ** -abs(n) for n in range(-3, 4)})
    result = dominate_character(decay, Z, 3)
    assert not result.feasible
    assert result.character is None
    a, b = result.certificate_pair
    assert a[0] * b[0] < 0  # one constraint from each side


def _seeded_coefficients(seed):
    """Coefficients in [-2, 2]^d and a radius: d = 2, 3 and radii 1-6 in turn."""
    rng = random.Random(seed)
    coefficients = tuple(rng.uniform(-2, 2) for _ in range(2 + seed % 2))
    return pytest.param(coefficients, 1 + seed // 2 % 6, id=f"seed{seed}")


@pytest.mark.parametrize("coefficients, radius", [
    pytest.param((math.log(2), math.log(3)), 6, id="ln2-ln3-r6"),
    *map(_seeded_coefficients, range(24)),
])
def test_dominate_rank2(coefficients, radius):
    # An unrectified exp_directional weight is a character: feasible, with
    # t = 0 and c its coefficients.  Its rounded logs put the LP's t at about
    # -3e-17 on seeds 9, 10 and 16, so t >= 0 alone would call them infeasible.
    w = ExpDirectionalWeight(coefficients, rectified=False)
    result = dominate_character(w, LatticeGroup(len(coefficients)), radius)
    assert result.feasible
    assert result.character.c == pytest.approx(coefficients, abs=1e-9)


@pytest.mark.parametrize("weight, radius", [
    # w = e^-1 on (1, 0), (0, 1), (-1, -1), which sum to 0, and e^10 elsewhere.
    (TableWeight({x: math.exp(-1 if x in {(1, 0), (0, 1), (-1, -1)} else 10)
                  for x in ball(Z2, 2)}), 2),
    (ExpSymmetricWeight(0.5), 3),
], ids=["three-points", "exp-symmetric-decay"])
def test_dominate_rank2_infeasible_reports_no_pair(weight, radius):
    # The pair of constraints most violated at the LP's centre was reported as
    # a certificate: ((-1, -1), (1, 0)) and ((-3, -3), (-3, 3)) here, each
    # jointly feasible.  In rank 2 infeasibility can need three constraints.
    result = dominate_character(weight, Z2, radius)
    assert not result.feasible and result.character is None
    assert result.certificate_pair is None
    assert result.to_json() == {"feasible": False, "radius": radius}


def test_character_twist_is_multiplicative():
    rng = random.Random(2)
    phi = Character((0.3,))
    for _ in range(20):
        a = AlgebraElement(
            Z, {(rng.randrange(-4, 5),): rng.uniform(-2, 2) for _ in range(3)}, False
        )
        b = AlgebraElement(
            Z, {(rng.randrange(-4, 5),): rng.uniform(-2, 2) for _ in range(3)}, False
        )
        lhs = character_twist(phi, a * b)
        rhs = character_twist(phi, a) * character_twist(phi, b)
        assert float((lhs - rhs).norm()) <= 1e-12 * max(1.0, float(lhs.norm()))


def test_character_twist_round_trip():
    f = delta(Z, (3,), 2.0) + delta(Z, (-1,), 1.5)
    back = character_twist(Character((-0.7,)), character_twist(Character((0.7,)), f))
    assert float((back - f).norm()) <= 1e-12


def test_rescale_by_character():
    w = growth_weight()
    result = dominate_character(w, Z, 50)
    f = delta(Z, (1,), 1.0)
    out = rescale_by_character(w, result.character, f, Z.ball(50))
    assert out.min_rescaled >= 1 - 1e-12
    nu = out.rescaled
    rep = check_weight(nu, Z.ball(10))
    assert rep.submultiplicative
    assert rep.min_value >= 1 - 1e-12


def test_rescale_rejects_character_above_weight():
    w = ConstantWeight(1)
    too_big = Character((1.0,))
    with pytest.raises(ContractViolationError):
        rescale_by_character(w, too_big, delta(Z, (0,)), Z.ball(3))


# ---------------------------------------------------------------------------
# random symmetric submultiplicative table weights on the free group.
# Letter-multiplicative costs gamma >= 1 with a polynomial factor stay
# symmetric and submultiplicative, so check_weight must agree.


def random_symmetric_table(rng, radius=3):
    f2 = FreeGroup(2)
    win = ball(f2, radius)
    gamma = {1: rng.uniform(1.0, 2.5), 2: rng.uniform(1.0, 2.5)}
    beta = rng.choice([0, 1, 2])
    c = rng.uniform(1.0, 1.5)

    def value(word):
        v = c if word else 1.0
        for letter in word:
            v *= gamma[abs(letter)]
        return v * (1 + len(word)) ** beta

    return TableWeight.on_ball(f2, radius, [value(x) for x in win]), win


def test_random_symmetric_tables_are_valid_weights():
    rng = random.Random(20240817)
    for _ in range(25):
        tw, win = random_symmetric_table(rng)
        rep = check_weight(tw, win)
        assert rep.submultiplicative
        assert rep.symmetric
        assert rep.min_value >= 1


# ---------------------------------------------------------------------------
# check_weight takes its verdict from the proof the weighted oracles take.


@pytest.mark.parametrize("values, ratio", [
    ({(0,): 1, (1,): 0.1, (2,): 0.1 * 0.1}, 1.0),
    ({(0,): 1, (1,): 2, (2,): 4 * (1 + 1e-13)}, 1.0000000000001),
], ids=["tenth-squared", "four-plus"])
def test_a_table_violating_by_a_float_rounding_is_not_submultiplicative(values, ratio, capsys):
    # w(2) exceeds w(1) w(1) exactly, by less than a float ratio test's slack
    # of 1e-12: the float scan called both tables submultiplicative, while
    # their proofs are None and neumann_invert refuses them.
    weight = TableWeight(values)
    window = Window(Z, list(values))
    assert weight.submultiplicative_proof(Z) is None
    rep = check_weight(weight, window)
    assert not rep.submultiplicative and rep.proof is None
    assert rep.worst_ratio == ratio and rep.worst_pair == ((1,), (1,))
    assert Fraction(values[(2,)]) > Fraction(values[(1,)]) ** 2
    ball_values = [values[(abs(n),)] for n in range(-2, 3)]
    argv = ["check-weight", "--weight", json.dumps({"kind": "table", "ball_radius": 2,
                                                   "values": ball_values}),
            "--group", '{"kind": "Z", "rank": 1}', "--radius", "2"]
    assert main(argv) == 2
    assert "proof: None" in capsys.readouterr().out


def test_a_proven_weight_scans_no_pairs(monkeypatch, capsys):
    # A proof bounds every ratio by 1, so no pair is taken and no pair cap
    # applies: 10201 points on Z^2 are 104060401 pairs.
    def no_pairs(*args):
        raise AssertionError("a pair was scanned")

    monkeypatch.setattr(LatticeGroup, "mul", no_pairs)
    rep = check_weight(PolynomialWeight(1), Z2.ball(50))
    assert rep.submultiplicative and rep.window_size == 10201
    assert (rep.worst_ratio, rep.worst_pair) == (1.0, None)
    rep = check_weight(ConstantWeight(3), Z.ball(2))
    assert (rep.worst_ratio, rep.min_value) == (1.0, 3.0)
    argv = ["check-weight", "--weight", '{"kind": "polynomial", "beta": 1}',
            "--group", '{"kind": "Z", "rank": 2}', "--radius", "50"]
    assert main(argv) == 0
    assert capsys.readouterr().out.splitlines()[:2] == [
        "submultiplicative: True",
        "proof: 1 + |xy| <= (1 + |x|) (1 + |y|) by subadditive word length, and beta >= 0"]


def test_a_ratio_past_the_float_range_reads_as_the_largest_float(capsys):
    # 1 / (1e-200 * 1e-200) is 1e400: the float scan divided by the product,
    # which underflows to 0, and ended in a ZeroDivisionError traceback.
    weight = {"kind": "table", "entries": [[[0], 1.0], [[1], 1e-200], [[-1], 1e-200]]}
    rep = check_weight(weight_from_json(weight, Z), Z.ball(1))
    assert (rep.worst_ratio, rep.worst_pair) == (sys.float_info.max, ((-1,), (1,)))
    argv = ["check-weight", "--weight", json.dumps(weight), "--group", '{"kind": "Z", "rank": 1}',
            "--radius", "1"]
    assert main(argv) == 2
    assert "violating pair: ((-1,), (1,))" in capsys.readouterr().out


_AGREEMENT_WINDOWS = [Z.ball(3), Z2.ball(1), Z2.ball(2), ball(FreeGroup(2), 1),
                      ball(FreeGroup(2), 2), ball(symmetric_group(3), 1),
                      ball(symmetric_group(3), 3)]
# Small rationals and floats on both sides of 1, so that tables are both
# proven and unproven, by wide and by last-bit margins.
_SCALARS = st.one_of(st.sampled_from([1, 2, 3, 0.5, 0.25, 0.1, 1.5, 0.1 * 0.1]),
                     st.fractions(Fraction(1, 4), 4).filter(lambda v: v > 0),
                     st.integers(1, 6))


def _weights(group, window):
    """Weights of every JSON kind on group, tables covering window."""
    lattice = isinstance(group, LatticeGroup)
    coefficients = st.lists(st.sampled_from([-0.5, -0.1, 0.0, 0.3, 0.7]),
                            min_size=group.rank, max_size=group.rank) if lattice else None
    leaves = [
        st.builds(ConstantWeight, st.sampled_from([1, 2, Fraction(3, 2), 1.25])),
        st.builds(ExpSymmetricWeight, st.sampled_from([0.5, 0.9, 1, 1.5, 2, Fraction(3, 4)])),
        st.builds(PolynomialWeight, st.sampled_from([0, 0.5, 1, 2])),
        st.builds(lambda vs: TableWeight(dict(zip(window, vs))),
                  st.lists(_SCALARS, min_size=len(window), max_size=len(window))),
    ]
    if lattice:
        leaves.append(st.builds(ExpDirectionalWeight, coefficients, rectified=st.booleans()))
    leaf = st.one_of(leaves)

    def compound(inner):
        parts = [st.builds(ProductWeight, st.lists(inner, min_size=1, max_size=3))]
        if lattice:
            parts.append(st.builds(QuotientWeight, inner, st.builds(Character, coefficients)))
        return st.one_of(parts)

    return st.recursive(leaf, compound, max_leaves=4)


@st.composite
def weighted_windows(draw):
    window = draw(st.sampled_from(_AGREEMENT_WINDOWS))
    return draw(_weights(window.group, window)), window


@seed(31)
@settings(max_examples=200, deadline=None)
@given(weighted_windows())
def test_check_weight_agrees_with_the_proof_the_oracles_take(weighted):
    weight, window = weighted
    group = window.group
    proof = weight.submultiplicative_proof(group)
    rep = check_weight(weight, window)
    assert rep.submultiplicative == (proof is not None) and rep.proof == proof
    f = delta(group, group.identity, 2.0)
    if rep.submultiplicative:
        assert neumann_invert(f, weight).invertible
        assert (rep.worst_ratio, rep.worst_pair) == (1.0, None)
    else:
        with pytest.raises(UsageError, match="not proven submultiplicative"):
            neumann_invert(f, weight)
        worst, pair = exact_worst(weight, window)
        assert rep.worst_ratio == float(worst)
        assert rep.worst_pair == (pair if worst > 1 else None)
    if rep.worst_pair is not None:
        x, y = rep.worst_pair
        values = [Fraction(weight.value(group, p)) for p in (group.mul(x, y), x, y)]
        assert values[0] > values[1] * values[2]


def test_worst_pair_is_the_first_maximum_in_x_then_y_order():
    # Every value is 0.5, so every pair with its sum in the window has ratio 2;
    # the first in x-then-y order is x = -60, y = 0, and the ball spans chunks.
    window = Z.ball(60)
    halves = TableWeight(dict.fromkeys(window, 0.5))
    rep = check_weight(halves, window)
    assert (rep.worst_ratio, rep.worst_pair) == (2.0, ((-60,), (0,)))
    assert check_weight(halves, Window(Z, window.elements[::-1])).worst_pair == (
        (60,), (0,))
    # Ratio 3 only for x, y > 6 with x + y = 50; x = 7 opens the second chunk.
    values = {x: 4 if x[0] <= 6 else 1 for x in window}
    values[(50,)] = 3
    rep = check_weight(TableWeight(values), window)
    assert (rep.worst_ratio, rep.worst_pair) == (3.0, ((7,), (43,)))


@pytest.mark.parametrize("group", [FreeGroup(2), symmetric_group(3), dihedral_group(4),
                                   quaternion_group()], ids=repr)
def test_unproven_tables_on_free_and_cayley_groups_match_a_fraction_loop(group):
    rng = random.Random(f"{group!r}")
    window = ball(group, 3)
    for _ in range(10):
        values = [rng.choice([0.5, 1, 2, rng.uniform(0.5, 3)]) for _ in window]
        weight = TableWeight(dict(zip(window, values)))
        rep = check_weight(weight, window)
        assert weight.submultiplicative_proof(group) is None
        worst, pair = exact_worst(weight, window)
        assert (rep.worst_ratio, rep.worst_pair) == (float(worst), pair)


class Unproven(weights.Weight):
    """The weight 1 with no proof, counting the points it is read at."""

    def __init__(self):
        self.calls = []

    def value(self, group, x):
        self.calls.append(x)
        return 1


def test_check_weight_caps_the_pairs_before_any_value(capsys):
    # An unproven weight's pairs are scanned, at most CHECK_PAIR_CAP of them.
    weight = Unproven()
    window = Z2.ball(11)  # 529 elements, 279841 pairs
    assert len(window) ** 2 > CHECK_PAIR_CAP
    with pytest.raises(ResourceLimitError, match="279841 pairs"):
        check_weight(weight, window)
    assert weight.calls == []
    rep = check_weight(weight, Z2.ball(10))  # 194481 pairs
    assert (rep.submultiplicative, rep.worst_ratio, rep.worst_pair) == (False, 1.0, None)
    argv = ["check-weight", "--weight", '{"kind":"exp_symmetric","base":0.5}',
            "--group", '{"kind":"Z","rank":2}', "--radius", "100"]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and len(captured.err.splitlines()) == 1


def test_a_table_scans_its_pairs_once_per_group(monkeypatch, capsys):
    # A table's values never change, so its proof is kept: README's
    # check-weight scans the table's 9 pairs once, for the CLI's pair cap and
    # check_weight's verdict, then the window's 9.
    mul, muls = LatticeGroup.mul, [0]

    def counted_mul(self, a, b):
        muls[0] += 1
        return mul(self, a, b)

    monkeypatch.setattr(LatticeGroup, "mul", counted_mul)
    argv = ["check-weight", "--weight",
            '{"kind": "table", "entries": [[[0], 1.0], [[1], 0.5], [[-1], 0.5]]}',
            "--group", '{"kind": "Z", "rank": 1}', "--radius", "1"]
    assert main(argv) == 2
    assert muls == [18]
    # neumann_invert and the direct-finiteness check of its inverse share one scan.
    scans, scan = [], weights._pair_scan
    monkeypatch.setattr(weights, "_pair_scan", lambda *args: scans.append(args) or scan(*args))
    table = TableWeight({(-1,): 1.5, (0,): 1, (1,): 1.5})
    f = delta(Z, (0,), 2, exact=True) + delta(Z, (1,), 1, exact=True)
    cert = neumann_invert(f, table, terms=0)
    assert verify_direct_finiteness(f, cert.inverse, table).passed
    assert len(scans) == 1


def test_check_weight_cli_refuses_from_the_ball_size_before_building_it(capsys, monkeypatch):
    def no_window(*args, **kwargs):
        raise AssertionError("a window was built")

    monkeypatch.setattr(Window, "__init__", no_window)
    argv = ["check-weight", "--weight", '{"kind":"exp_symmetric","base":0.5}',
            "--group", '{"kind":"Z","rank":2}', "--radius", "499"]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: window of 998001 elements has {998001**2} pairs, "
                            f"cap is {CHECK_PAIR_CAP}\n")
    # Past the ball cap the ball's own refusal still comes first, and it is
    # the only cap on a proven weight.
    for weight in ('{"kind":"exp_symmetric","base":0.5}', '{"kind":"constant","value":1}'):
        argv[2], argv[-1] = weight, "1000"
        assert main(argv) == 1
        assert capsys.readouterr().err == (
            "error: ball would hold 4004001 elements, cap is 1000000\n")


@pytest.mark.parametrize("group, radius, n", [(FreeGroup(2), 6, 1457),
                                              (symmetric_group(3), 1, 6)], ids=repr)
def test_ball_size_counts_the_ball(group, radius, n):
    assert group.ball_size(radius) == len(ball(group, radius)) == n
    assert Z2.ball_size(22) == len(Z2.ball(22)) == 2025


@pytest.mark.parametrize("weight", [ExpSymmetricWeight(0.5),
                                    ProductWeight([PolynomialWeight(1), Unproven()])],
                         ids=["exp_symmetric-half", "product"])
def test_an_unproven_window_past_the_cap_is_refused_before_any_pair(weight, monkeypatch):
    def no_pairs(*args):
        raise AssertionError("a pair was scanned")

    monkeypatch.setattr(LatticeGroup, "mul", no_pairs)
    with pytest.raises(ResourceLimitError, match=f"4100625 pairs, cap is {CHECK_PAIR_CAP}"):
        check_weight(weight, Z2.ball(22))


def test_a_table_past_the_cap_is_refused_by_its_proof():
    # The proof scans the table's own pairs, under the same cap.
    table = TableWeight({x: Fraction(1 + sum(map(abs, x)), 3) for x in Z2.ball(11)})
    with pytest.raises(ResourceLimitError, match=f"279841 pairs, cap is {CHECK_PAIR_CAP}"):
        check_weight(table, Z2.ball(1))


def test_the_cap_refuses_other_groups_before_any_value():
    weight = Unproven()
    f2 = FreeGroup(2)
    with pytest.raises(ResourceLimitError, match="2122849 pairs"):
        check_weight(weight, ball(f2, 6))
    assert weight.calls == []
    assert not check_weight(weight, ball(f2, 5)).submultiplicative  # 235225 pairs


def test_the_pair_cap_is_inclusive():
    side = math.isqrt(CHECK_PAIR_CAP)
    assert side == 512
    check_pair_cap(side)
    with pytest.raises(ResourceLimitError):
        check_pair_cap(side + 1)
