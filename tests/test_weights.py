import math
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
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
from galab.invertibility import neumann_invert
from galab import weights
from galab.weights import (
    CHECK_ARRAY_MIN_PAIRS,
    CHECK_LOOP_PAIR_CAP,
    CHECK_PAIR_CAP,
    Character,
    ConstantWeight,
    ExpDirectionalWeight,
    ExpSymmetricWeight,
    PolynomialWeight,
    ProductWeight,
    QuotientWeight,
    TableWeight,
    WeightCheckReport,
    character_twist,
    check_pair_cap,
    check_weight,
    dominate_character,
    rescale_by_character,
    weight_from_json,
    _lattice_pair_scan,
    _pair_scan,
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


@pytest.mark.parametrize("value", [math.nan, math.inf, 2**2000, 0, -1.0])
def test_table_and_constant_weight_values_are_checked(value):
    # The constructors refuse what JSON decoding refuses, so a weight built in
    # Python cannot carry a NaN or overflow a float norm later.  A NaN constant
    # passed the "< 1" test and gave the Neumann series a NaN ratio.
    with pytest.raises(UsageError, match="float range"):
        TableWeight({(0,): 1.0, (1,): value, (-1,): 1.0})
    with pytest.raises(UsageError, match="float range"):
        ConstantWeight(value)


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


def test_dominate_character_lies_below_weight():
    w = growth_weight()
    result = dominate_character(w, Z, 50)
    phi = result.character
    for x in Z.ball(50):
        assert phi.value(x) <= w.value(Z, x) * (1 + 1e-9)


def test_dominate_infeasible_has_certificate():
    # w(n) = 2^-|n| decays both ways; no exp(cn) fits under it on both sides
    decay = TableWeight({(n,): 2.0 ** -abs(n) for n in range(-3, 4)})
    result = dominate_character(decay, Z, 3)
    assert not result.feasible
    assert result.character is None
    a, b = result.certificate_pair
    assert a[0] * b[0] < 0  # one constraint from each side


def test_dominate_rank2():
    w = ExpDirectionalWeight([math.log(2), math.log(3)], rectified=False)
    result = dominate_character(w, Z2, 6)
    assert result.feasible
    c = result.character.c
    assert c[0] == pytest.approx(math.log(2), abs=1e-6)
    assert c[1] == pytest.approx(math.log(3), abs=1e-6)


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
# check_weight's lattice array scan against a plain per-pair loop.


def loop_check_weight(weight, window, rel_tol=1e-12):
    """check_weight written as a plain loop over every pair of the window."""
    group = window.group
    vals = {x: weight.value(group, x) for x in window}
    min_at = min(vals, key=lambda x: (vals[x], group.sort_key(x)))
    worst_ratio, worst_pair = 0.0, None
    for x in window:
        for y in window:
            z = group.mul(x, y)
            if z in vals:
                ratio = float(vals[z] / (vals[x] * vals[y]))
                if ratio > worst_ratio:
                    worst_ratio, worst_pair = ratio, (x, y)
    symmetric = True
    for x in window:
        xi = group.inv(x)
        if xi in window:
            a, b = float(vals[x]), float(vals[xi])
            if abs(a - b) > rel_tol * max(abs(a), abs(b)):
                symmetric = False
                break
    return WeightCheckReport(
        submultiplicative=worst_ratio <= 1 + rel_tol,
        symmetric=symmetric,
        min_value=float(vals[min_at]),
        min_at=min_at,
        worst_ratio=worst_ratio,
        worst_pair=worst_pair if worst_ratio > 1 + rel_tol else None,
        window_size=len(window),
    )


def assert_same_report(weight, window):
    got = canonical_json(check_weight(weight, window).to_json())
    assert got == canonical_json(loop_check_weight(weight, window).to_json())


# Few distinct values, so that tied worst pairs are common.  Ints of 2^26 and
# more, and Fractions, take check_weight's loop; floats and smaller ints its
# array scan.
_VALUES = {
    "float": st.one_of(st.sampled_from([0.25, 0.5, 1.0, 2.0, 3.0]), st.floats(0.1, 10.0)),
    "small-int": st.integers(1, 2**26 - 1) | st.sampled_from([1, 2, 4]),
    "large-int": st.integers(2**26, 2**36),
    "fraction": st.fractions(Fraction(1, 9), 9).filter(lambda v: v > 0),
}


@st.composite
def lattice_windows(draw):
    rank = draw(st.integers(1, 3))
    group = LatticeGroup(rank)
    if draw(st.booleans()):
        # Rank-1 balls past 90 elements span two chunks of the array scan.
        radius = draw(st.integers(0, {1: 60, 2: 4, 3: 2}[rank]))
        return ball(group, radius)
    offset = draw(st.sampled_from([0, 0, 5, -7, 2**40]))
    points = draw(st.lists(st.tuples(*[st.integers(-4, 4)] * rank), min_size=1, max_size=40,
                           unique=True))
    points = [tuple(c + offset for c in x) for x in points]
    return Window(group, draw(st.permutations(points)))


@settings(max_examples=150, deadline=None)
@given(lattice_windows(), st.data())
def test_pair_scan_matches_the_loop(window, data):
    kind = data.draw(st.sampled_from(sorted(_VALUES)))
    values = data.draw(st.lists(_VALUES[kind], min_size=len(window), max_size=len(window)))
    weight = TableWeight(dict(zip(window, values)))
    assert_same_report(weight, window)
    # Windows under CHECK_ARRAY_MIN_PAIRS pairs take the loop; the array scan
    # agrees on them too.
    vals = {x: weight.value(window.group, x) for x in window}
    scan = _lattice_pair_scan(window, vals)
    assert scan is None or scan == _pair_scan(window, vals)


def test_small_lattice_windows_take_the_per_pair_loop(monkeypatch):
    scans = []

    def counting_scan(window, vals):
        scans.append(len(window))
        return _lattice_pair_scan(window, vals)

    monkeypatch.setattr(weights, "_lattice_pair_scan", counting_scan)
    assert 11**2 < CHECK_ARRAY_MIN_PAIRS <= 13**2
    for radius in (5, 6):  # 11 and 13 elements
        assert_same_report(ExpSymmetricWeight(2), Z.ball(radius))
    assert scans == [13]


@pytest.mark.parametrize("weight", [PolynomialWeight(2), PolynomialWeight(0.5),
                                    ExpSymmetricWeight(2), ExpSymmetricWeight(0.5),
                                    ExpDirectionalWeight([1.0, -0.5])])
def test_pair_scan_matches_the_loop_on_formula_weights(weight):
    assert_same_report(weight, Z2.ball(6))


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
def test_pair_scan_on_free_and_cayley_groups_is_unchanged(group):
    rng = random.Random(f"{group!r}")
    window = ball(group, 3)
    for _ in range(10):
        values = [rng.choice([0.5, 1, 2, rng.uniform(0.5, 3)]) for _ in window]
        assert_same_report(TableWeight(dict(zip(window, values))), window)


def test_check_weight_caps_the_pairs_before_any_value(capsys):
    calls = []

    class Counting(ConstantWeight):
        def value(self, group, x):
            calls.append(x)
            return 1

    window = Z2.ball(23)  # 2209 elements, 4879681 pairs
    assert len(window) ** 2 > CHECK_PAIR_CAP
    with pytest.raises(ResourceLimitError, match="pairs"):
        check_weight(Counting(), window)
    assert calls == []
    assert check_weight(Counting(), Z2.ball(22)).submultiplicative  # 4100625 pairs
    argv = ["check-weight", "--weight", '{"kind":"constant","value":1}',
            "--group", '{"kind":"Z","rank":2}', "--radius", "100"]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and len(captured.err.splitlines()) == 1


def test_check_weight_cli_refuses_from_the_ball_size_before_building_it(capsys, monkeypatch):
    def no_window(*args, **kwargs):
        raise AssertionError("a window was built")

    monkeypatch.setattr(Window, "__init__", no_window)
    argv = ["check-weight", "--weight", '{"kind":"constant","value":1}',
            "--group", '{"kind":"Z","rank":2}', "--radius", "499"]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: window of 998001 elements has {998001**2} pairs, "
                            f"cap is {CHECK_PAIR_CAP}\n")
    # Past the ball cap the ball's own refusal still comes first.
    argv[-1] = "1000"
    assert main(argv) == 1
    assert capsys.readouterr().err == (
        "error: ball would hold 4004001 elements, cap is 1000000\n")


@pytest.mark.parametrize("group, radius, n", [(FreeGroup(2), 6, 1457),
                                              (symmetric_group(3), 1, 6)], ids=repr)
def test_ball_size_counts_the_ball(group, radius, n):
    assert group.ball_size(radius) == len(ball(group, radius)) == n
    assert Z2.ball_size(22) == len(Z2.ball(22)) == 2025


@pytest.mark.parametrize("weight", [ExpSymmetricWeight(2),
                                    TableWeight({x: Fraction(1 + sum(map(abs, x)), 3)
                                                 for x in Z2.ball(22)})],
                         ids=["exp_symmetric-2", "fraction-table"])
def test_per_pair_loop_has_its_own_lower_cap(weight, monkeypatch):
    # On the Z^2 ball of radius 22 (2025 elements, 4100625 pairs) the values
    # reach 2^44, or are Fractions, so the array scan cannot take them; the
    # loop is refused before it takes a pair.
    def no_pairs(*args):
        raise AssertionError("a pair was scanned")

    window = Z2.ball(22)
    monkeypatch.setattr(LatticeGroup, "mul", no_pairs)
    with pytest.raises(ResourceLimitError, match=f"4100625 pairs, cap is {CHECK_LOOP_PAIR_CAP}"):
        check_weight(weight, window)


def test_loop_cap_refuses_other_groups_before_any_value():
    calls = []

    class Counting(ConstantWeight):
        def value(self, group, x):
            calls.append(x)
            return 1

    f2 = FreeGroup(2)
    with pytest.raises(ResourceLimitError, match="2122849 pairs"):
        check_weight(Counting(), ball(f2, 6))
    assert calls == []
    assert check_weight(Counting(), ball(f2, 5)).submultiplicative  # 235225 pairs


def test_pair_caps_are_inclusive():
    side = math.isqrt(CHECK_LOOP_PAIR_CAP)
    check_pair_cap(Z2, side, loop=True)
    check_pair_cap(FreeGroup(2), side)
    with pytest.raises(ResourceLimitError):
        check_pair_cap(FreeGroup(2), side + 1)
    check_pair_cap(Z2, side + 1)
    check_pair_cap(Z2, math.isqrt(CHECK_PAIR_CAP))
    with pytest.raises(ResourceLimitError):
        check_pair_cap(Z2, math.isqrt(CHECK_PAIR_CAP) + 1)
