import itertools
import random
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from galab import groups
from galab.algebra import delta
from galab.errors import ResourceLimitError, UsageError
from galab.groups import (
    LATTICE_RANK_CAP,
    CayleyGroup,
    FreeGroup,
    LatticeGroup,
    Window,
    ball,
    cyclic_group,
    dihedral_group,
    quaternion_group,
    spec_from_json,
    symmetric_group,
)
from galab.invertibility import invert_via_fft, neumann_invert
from galab.operators import symbol_grid
from galab.scenarios import scenario_lp, scenario_torus

# ---------------------------------------------------------------------------
# oracle: permutations of (0,1,2) in lexicographic order, composed by hand.
# symmetric_group(3) must reproduce this table entry for entry.

PERMS3 = list(itertools.permutations(range(3)))


def compose(p, q):
    # (p o q)(x) = p(q(x))
    return tuple(p[q[x]] for x in range(len(q)))


def test_s3_table_matches_composition_oracle():
    s3 = symmetric_group(3)
    idx = {p: i for i, p in enumerate(PERMS3)}
    for i, p in enumerate(PERMS3):
        for j, q in enumerate(PERMS3):
            assert s3.mul(i, j) == idx[compose(p, q)]


def test_s3_element_orders():
    # 1 identity, 3 transpositions (order 2), 2 three-cycles (order 3)
    s3 = symmetric_group(3)
    orders = []
    for g in range(6):
        k, acc = 1, g
        while acc != s3.identity:
            acc = s3.mul(acc, g)
            k += 1
        orders.append(k)
    assert sorted(orders) == [1, 2, 2, 2, 3, 3]


def test_s3_transpositions_compose_to_three_cycle():
    s3 = symmetric_group(3)
    idx = {p: i for i, p in enumerate(PERMS3)}
    swap01 = idx[(1, 0, 2)]
    swap12 = idx[(0, 2, 1)]
    # applying swap12 first, then swap01: 0->1, 1->0->2... i.e. the 3-cycle (0 1 2)
    assert s3.mul(swap01, swap12) == idx[(1, 2, 0)]
    # opposite order gives the other 3-cycle: not abelian
    assert s3.mul(swap12, swap01) == idx[(2, 0, 1)]


def test_dihedral_relations():
    d4 = dihedral_group(4)
    r, s = 1, 4  # index j*n + i encodes r^i s^j
    assert d4.mul(s, s) == d4.identity
    acc = r
    for _ in range(3):
        acc = d4.mul(acc, r)
    assert acc == d4.identity
    # s r s = r^-1
    assert d4.mul(s, d4.mul(r, s)) == d4.inv(r)
    orders = sorted(_order(d4, g) for g in range(8))
    assert orders == [1, 2, 2, 2, 2, 2, 4, 4]


def test_quaternion_structure():
    q8 = quaternion_group()
    one, minus, i, j, k = 0, 1, 2, 4, 6
    assert q8.mul(i, i) == minus
    assert q8.mul(j, j) == minus
    assert q8.mul(k, k) == minus
    assert q8.mul(i, j) == k
    assert q8.mul(j, i) == q8.inv(k)
    assert q8.mul(minus, minus) == one
    assert q8.is_associative()
    assert sorted(_order(q8, g) for g in range(8)) == [1, 2, 4, 4, 4, 4, 4, 4]


def _order(group, g):
    k, acc = 1, g
    while acc != group.identity:
        acc = group.mul(acc, g)
        k += 1
    return k


# ---------------------------------------------------------------------------
# Cayley table validation


def test_rejects_non_latin_table():
    with pytest.raises(UsageError):
        CayleyGroup([[0, 0], [1, 1]])


def test_rejects_bad_identity():
    with pytest.raises(UsageError):
        CayleyGroup([[1, 0], [0, 1]], identity=0)


@pytest.mark.parametrize("call, match", [
    (lambda: CayleyGroup([]), "must be nonempty"),
    # Row 1 holds every index, so only its length shows it is not a table row.
    (lambda: CayleyGroup([[0, 1, 2], [1, 2, 0, 0], [2, 0, 1]]), "row 1 has length 4, expected 3"),
    (lambda: CayleyGroup([[0, 1, 2], [1, 2, 0], [2, 0, 1]], identity=3),
     "identity index 3 out of range"),
    (lambda: cyclic_group(3).mul(0, 3), "do not index"),
    (lambda: cyclic_group(3).inv(3), "does not index"),
    (lambda: Window(LatticeGroup(1), [(0,), (1,), (0,)]), r"duplicate window element \(0,\)"),
    (lambda: cyclic_group(0), "order must be >= 1"),
    (lambda: symmetric_group(7), "1 <= n <= 6"),
    (lambda: dihedral_group(0), "needs n >= 1"),
], ids=["empty", "ragged", "identity-out-of-range", "mul-operand", "inv-operand",
        "duplicate-window-element", "cyclic-0", "symmetric-7", "dihedral-0"])
def test_malformed_groups_and_operands_are_refused_by_name(call, match):
    with pytest.raises(UsageError, match=match):
        call()


def test_rejects_missing_inverse():
    # Latin square with a left-identity only; row 0 works but no two-sided setup
    with pytest.raises(UsageError):
        CayleyGroup([[0, 1, 2], [1, 2, 0], [2, 1, 0]])


def _reduced_latin_squares(n):
    """Every Latin square of order n whose first row and column are 0..n-1."""
    perms = list(itertools.permutations(range(n)))

    def extend(rows):
        if len(rows) == n:
            yield [list(row) for row in rows]
            return
        for p in perms:
            if p[0] == len(rows) and all(p[j] != row[j] for row in rows for j in range(n)):
                yield from extend(rows + [p])

    yield from extend([tuple(range(n))])


@pytest.mark.parametrize("n, groups", [(4, 4), (5, 6)])
def test_constructor_accepts_exactly_the_associative_loops(n, groups):
    # Every loop of order 4 is a group; of the 56 reduced loops of order 5
    # only the 6 labelings of C5 are.  The triple loop is the reference.
    accepted = 0
    for table in _reduced_latin_squares(n):
        if _associative_by_triples(table):
            assert CayleyGroup(table).is_associative()
            accepted += 1
        else:
            with pytest.raises(UsageError):
                CayleyGroup(table)
    assert accepted == groups


def _associative_by_triples(table) -> bool:
    """The O(n^3) reference: (a*b)*c == a*(b*c) for every triple."""
    rng = range(len(table))
    return all(table[table[a][b]][c] == table[a][table[b][c]]
               for a in rng for b in rng for c in rng)


def _is_associative(table) -> bool:
    """CayleyGroup.is_associative on a table the constructor has not vetted.

    Only associativity is asked, so a loop without two-sided inverses, which
    the constructor refuses first, is judged too.
    """
    rows = tuple(map(tuple, table))
    return CayleyGroup.is_associative(SimpleNamespace(table=rows, order=len(rows)))


def _c4_by_c4():
    return [[4 * ((a // 4 + b // 4) % 4) + (a + b) % 4 for b in range(16)] for a in range(16)]


def _switched_loops(table, rng, count):
    """count loops with identity 0 near table, a group table with identity 0.

    Loop i relabels table by a random permutation that fixes 0, then
    switches i % 4 intercalates away from row and column 0: cells (r, c),
    (r, d), (s, c), (s, d) holding x, y, y, x become y, x, x, y, which keeps
    the square Latin and 0 its identity.  Without a switch the loop is the
    group itself, relabelled; a loop isotopic to a group is isomorphic to it
    (Albert), so relabellings stand in for its isotopes.
    """
    n = len(table)
    for i in range(count):
        perm = [0] + rng.sample(range(1, n), n - 1)
        inv = sorted(range(n), key=perm.__getitem__)
        loop = [[perm[table[inv[a]][inv[b]]] for b in range(n)] for a in range(n)]
        for _ in range(i % 4):
            col = [{x: c for c, x in enumerate(row)} for row in loop]  # col[r][x]: x's column
            quads = [(r, c, s, d) for r in range(1, n) for s in range(r + 1, n)
                     for c in range(1, n) for d in [col[r][loop[s][c]]]
                     if d > 0 and loop[s][d] == loop[r][c]]
            r, c, s, d = rng.choice(quads)
            loop[r][c], loop[r][d], loop[s][c], loop[s][d] = (
                loop[r][d], loop[r][c], loop[s][d], loop[s][c])
        yield loop


@pytest.mark.parametrize("name, table", [
    ("C8", cyclic_group(8).table), ("Q8", quaternion_group().table),
    ("D4", dihedral_group(4).table), ("C4xC4", _c4_by_c4()), ("S4", symmetric_group(4).table),
])
def test_associativity_agrees_with_the_triple_loop_on_loops_near_groups(name, table):
    # Light's test checks only a generating set of rows, so a table that fails
    # in a few cells of one row must still be caught.
    rng = random.Random(f"switched {name}")
    verdicts = []
    for loop in _switched_loops(table, rng, 12):
        assert all(sorted(row) == list(range(len(loop))) for row in loop)
        assert loop[0] == list(range(len(loop))) and [row[0] for row in loop] == loop[0]
        verdicts.append(_associative_by_triples(loop))
        assert _is_associative(loop) == verdicts[-1]
    assert 0 < verdicts.count(True) < verdicts.count(False)


def test_associativity_of_every_built_in_group_up_to_order_64():
    built = ([cyclic_group(n) for n in range(1, 65)] + [dihedral_group(n) for n in range(1, 33)]
             + [symmetric_group(n) for n in range(1, 5)] + [quaternion_group()])
    for group in built:
        assert group.is_associative() and _associative_by_triples(group.table), group


def test_cyclic_group_is_addition_mod_n():
    c6 = cyclic_group(6)
    for i in range(6):
        for j in range(6):
            assert c6.mul(i, j) == (i + j) % 6
        assert c6.inv(i) == (-i) % 6


# ---------------------------------------------------------------------------
# free groups


def test_free_ball_sizes_match_closed_form():
    f2 = FreeGroup(2)
    # spheres have 2k(2k-1)^(r-1) words: 1, 1+4, 1+4+12, 1+4+12+36
    assert [len(f2.ball(r)) for r in range(4)] == [1, 5, 17, 53]
    assert [f2.ball_size(r) for r in range(4)] == [1, 5, 17, 53]


def test_free_reduction():
    f2 = FreeGroup(2)
    a, b = (1,), (2,)
    ab = f2.mul(a, b)
    assert ab == (1, 2)
    assert f2.mul(ab, f2.inv(ab)) == ()
    assert f2.mul((1, 2), (-2, 1)) == (1, 1)
    assert f2.word_length(f2.mul((1, 2), (-2, -1))) == 0


def test_free_validate_rejects_unreduced():
    f2 = FreeGroup(2)
    with pytest.raises(UsageError):
        f2.validate((1, -1))
    with pytest.raises(UsageError):
        f2.validate((3,))


words = st.lists(st.sampled_from([1, -1, 2, -2]), max_size=6)


def _reduce(letters):
    """Free reduction by a stack: the reference for FreeGroup.mul."""
    out = []
    for s in letters:
        if out and out[-1] == -s:
            out.pop()
        else:
            out.append(s)
    return tuple(out)


@given(words, words, words)
@settings(max_examples=60)
def test_free_group_axioms(u, v, w):
    f2 = FreeGroup(2)
    x, y, z = _reduce(u), _reduce(v), _reduce(w)
    assert f2.mul(f2.mul(x, y), z) == f2.mul(x, f2.mul(y, z))
    assert f2.mul(x, f2.inv(x)) == ()
    assert f2.mul((), x) == x


def test_free_mul_matches_stack_reduction():
    # mul concatenates at once when the boundary letters do not cancel.
    f3 = FreeGroup(3)
    rng = random.Random("free-mul")

    def word():
        return _reduce(rng.choice([1, -1, 2, -2, 3, -3]) for _ in range(rng.randint(0, 8)))

    for _ in range(600):
        a = word()
        k = rng.randint(0, len(a))
        b = rng.choice([
            f3.inv(a),  # cancels fully
            _reduce(f3.inv(a[len(a) - k:]) + word()),  # cancels at least k letters
            word(),
        ])
        assert f3.mul(a, b) == _reduce(a + b)


# ---------------------------------------------------------------------------
# lattices and windows

vectors = st.tuples(st.integers(-50, 50), st.integers(-50, 50))


@given(vectors, vectors)
def test_lattice_group_laws(a, b):
    z2 = LatticeGroup(2)
    assert z2.mul(a, b) == z2.mul(b, a)
    assert z2.mul(a, z2.inv(a)) == (0, 0)
    assert z2.word_length(a) == abs(a[0]) + abs(a[1])


@pytest.mark.parametrize("rank", [1, 2, 3])
def test_lattice_mul_is_the_sum_of_operands_of_the_rank(rank):
    # Ranks one and two have unrolled branches; each keeps the length check.
    group = LatticeGroup(rank)
    rng = random.Random(f"lattice-mul:{rank}")
    for _ in range(50):
        a, b = (tuple(rng.randint(-99, 99) for _ in range(rank)) for _ in range(2))
        assert group.mul(a, b) == tuple(x + y for x, y in zip(a, b))
    good = (0,) * rank
    for bad in [(0,) * (rank - 1), (0,) * (rank + 1)]:
        with pytest.raises(UsageError):
            group.mul(good, bad)
        with pytest.raises(UsageError):
            group.mul(bad, good)


def test_lattice_rank_cap():
    assert LatticeGroup(LATTICE_RANK_CAP).identity == (0,) * LATTICE_RANK_CAP
    for rank in (LATTICE_RANK_CAP + 1, 10**6):
        with pytest.raises(ResourceLimitError):
            spec_from_json({"kind": "Z", "rank": rank})


def test_lattice_ball_is_sorted_box():
    z2 = LatticeGroup(2)
    win = z2.ball(1)
    assert len(win) == 9
    assert list(win)[:3] == [(-1, -1), (-1, 0), (-1, 1)]
    assert win.position((0, 0)) == 4


def test_ball_cap():
    with pytest.raises(ResourceLimitError):
        LatticeGroup(3).ball(100, cap=10**5)


def test_window_position_reports_missing_element():
    z = LatticeGroup(1)
    win = z.ball(2)
    with pytest.raises(UsageError):
        win.position((5,))


@pytest.mark.parametrize("group, radius", [
    (LatticeGroup(1), 3), (LatticeGroup(2), 2), (LatticeGroup(3), 1),
    (FreeGroup(1), 4), (FreeGroup(2), 3), (FreeGroup(3), 2),
    (dihedral_group(4), 0), (dihedral_group(4), 1),
])
def test_balls_come_out_in_sort_key_order(group, radius):
    # Window keeps the order it is given, so each ball must build its own in order.
    elements = list(ball(group, radius))
    assert elements == sorted(elements, key=group.sort_key)


def test_window_keeps_the_order_it_is_given():
    z = LatticeGroup(1)
    assert list(Window(z, [(4,), (-1,), (0,)])) == [(4,), (-1,), (0,)]


# ---------------------------------------------------------------------------
# JSON round trips


def test_group_json_round_trip():
    for spec in (LatticeGroup(2), FreeGroup(3), dihedral_group(3)):
        again = spec_from_json(spec.to_json())
        assert again == spec


def test_cayley_json_declared_order_checked():
    obj = cyclic_group(4).to_json()
    obj["order"] = 5
    with pytest.raises(UsageError):
        spec_from_json(obj)


@pytest.mark.parametrize("call", [
    lambda: cyclic_group(3.5),
    lambda: dihedral_group(2.9),
    lambda: symmetric_group(3.2),
    lambda: symbol_grid(delta(LatticeGroup(1), (1,), 1.0), (4.9,)),
    lambda: scenario_torus("1/2", 8.5),
    lambda: scenario_torus("1/2", 8, 2.5),
    lambda: scenario_lp(3.5),
    lambda: invert_via_fft(delta(LatticeGroup(1), (0,), 2.0) + delta(LatticeGroup(1), (1,), 1.0),
                           8.0),
    lambda: neumann_invert(delta(LatticeGroup(1), (0,), 2.0) + delta(LatticeGroup(1), (1,), 1.0),
                           terms=2.5),
    lambda: LatticeGroup(1).ball(2.5),
    lambda: LatticeGroup(2).ball_size(2.5),
    lambda: FreeGroup(2).ball(2.5),
    lambda: FreeGroup(2).ball_size(2.5),
    lambda: cyclic_group(4).ball(2.5),
    lambda: cyclic_group(4).ball_size(2.5),
    lambda: LatticeGroup(1).ball(True),
    lambda: FreeGroup(1).ball_size(True),
    lambda: cyclic_group(4).ball(True),
    lambda: ball(cyclic_group(4), True),
], ids=["cyclic", "dihedral", "symmetric", "symbol-grid", "torus-max-freq",
        "torus-degree", "lp-radius", "fft-size", "neumann-terms", "lattice-ball",
        "lattice-ball-size", "free-ball", "free-ball-size", "cayley-ball", "cayley-ball-size",
        "lattice-ball-bool", "free-ball-size-bool", "cayley-ball-bool", "ball-function-bool"])
def test_non_integer_arguments_are_refused_not_truncated(call):
    with pytest.raises(UsageError, match="must be an integer"):
        call()


# ---------------------------------------------------------------------------
# interned Cayley groups

LOOP5 = [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3], [3, 2, 4, 0, 1], [4, 3, 1, 2, 0]]
C3_ARRAY = np.array([[0, 1, 2], [1, 2, 0], [2, 0, 1]], dtype=np.int64)


def _c3_json(**changes):
    return {"kind": "cayley", "table": [[0, 1, 2], [1, 2, 0], [2, 0, 1]], **changes}


@pytest.mark.parametrize("obj", [
    _c3_json(table=[[0, 1, 2], [1, 2, 0], [2, 0, True]]),
    _c3_json(table=[[0, 1, 2], [1, 2, 0], [2, 0, 1.0]]),
    _c3_json(identity=1),
    _c3_json(identity=True),
    {"kind": "cayley", "table": LOOP5},
    # marshal writes a buffer as its raw bytes, so once a numpy table was
    # cached, its int32 view (2 x 4, refused by CayleyGroup) and its bytes
    # returned that group; a table or row that is not a list is refused first.
    _c3_json(table=C3_ARRAY),
    _c3_json(table=C3_ARRAY.view(np.int32)),
    _c3_json(table=C3_ARRAY.tobytes()),
    _c3_json(table=list(C3_ARRAY)),
], ids=["bool-cell", "float-cell", "wrong-identity", "bool-identity", "loop5",
        "array", "array-view", "array-bytes", "array-rows"])
def test_cached_group_never_stands_in_for_a_refused_table(obj):
    spec_from_json(_c3_json())  # the valid table these resemble is cached
    for _ in range(3):
        with pytest.raises(UsageError):
            spec_from_json(obj)


def test_declared_order_is_checked_on_a_cache_hit():
    assert spec_from_json(_c3_json(order=3)).order == 3
    for _ in range(2):
        with pytest.raises(UsageError, match="declared order"):
            spec_from_json(_c3_json(order=4))


def test_equal_json_gives_the_same_group_and_names_stay_apart():
    first = spec_from_json(_c3_json(name="C3"))
    assert spec_from_json(_c3_json(name="C3")) is first
    other = spec_from_json(_c3_json(name="Z3"))
    unnamed = spec_from_json(_c3_json())
    assert other is not first and unnamed is not first
    assert other == first  # the same group, under another name
    assert other.to_json()["name"] == "Z3" and first.to_json()["name"] == "C3"
    assert "name" not in unnamed.to_json()
    # A name that is not a string is refused, not copied into the group.
    with pytest.raises(UsageError, match="name must be a string"):
        spec_from_json(_c3_json(name=["C", 3]))


@pytest.mark.parametrize("name", [[1], 5, True, 3.0, {"a": 1}, 0, False])
def test_a_cayley_name_that_is_not_a_string_is_refused_from_python_too(name):
    # Only spec_from_json checked the name: cyclic_group(3, name=[1]) wrote
    # "name": [1] into its JSON, which spec_from_json then refused; a falsy
    # name (0, False) was replaced by "C3" instead of refused.
    with pytest.raises(UsageError, match="name must be a string"):
        cyclic_group(3, name=name)
    with pytest.raises(UsageError, match="name must be a string"):
        CayleyGroup([[0, 1], [1, 0]], name=name)
    spec_from_json(_c3_json())  # cached; a bad name never meets its entry
    for _ in range(2):
        with pytest.raises(UsageError, match="name must be a string"):
            spec_from_json(_c3_json(name=name))


def test_cyclic_group_takes_its_default_name_only_for_none():
    # name or f"C{n}" replaced every falsy name: "" became "C3".
    assert cyclic_group(3, name="").name == ""
    assert cyclic_group(3).name == "C3"


def test_an_empty_cayley_name_survives_the_json_round_trip():
    # to_json wrote the name only when it was truthy, so "" came back as None.
    payload = cyclic_group(3, name="").to_json()
    assert payload["name"] == ""
    assert spec_from_json(payload).name == ""
    assert "name" not in CayleyGroup(payload["table"]).to_json()


@pytest.mark.parametrize("numpy_first", [True, False])
@pytest.mark.parametrize("part", ["table", "identity"])
def test_a_numpy_int_never_lets_its_bytes_meet_a_cached_group(part, numpy_first):
    # marshal writes np.int64(k) as the 8 bytes of k, which CayleyGroup
    # refuses; once a group built from np.int64 cells (or identity) was
    # cached, those bytes in their place returned it.
    if part == "table":
        as_numpy = _c3_json(table=[list(row) for row in C3_ARRAY])
        as_bytes = _c3_json(table=[[cell.tobytes() for cell in row] for row in C3_ARRAY])
    else:
        as_numpy, as_bytes = _c3_json(identity=np.int64(0)), _c3_json(identity=bytes(8))
    for obj in [as_numpy, as_bytes] * 2 if numpy_first else [as_bytes, as_numpy] * 2:
        if obj is as_numpy:
            assert spec_from_json(obj) == spec_from_json(_c3_json())
        else:
            with pytest.raises(UsageError):
                spec_from_json(obj)


def test_group_cache_stays_within_its_bounds():
    for k in range(groups.CAYLEY_CACHE_GROUPS + 5):
        spec_from_json(cyclic_group(3, name=f"C3-{k}").to_json())
        assert len(groups._cayley_cache) <= groups.CAYLEY_CACHE_GROUPS
    newest = cyclic_group(3, name=f"C3-{groups.CAYLEY_CACHE_GROUPS + 4}").to_json()
    assert spec_from_json(newest) is spec_from_json(newest)
    # 2 * 400^2 cells pass the cell bound, so the first of two such tables is dropped.
    assert 2 * 400**2 > groups.CAYLEY_CACHE_CELLS >= 400**2
    big = [cyclic_group(400, name=f"C400-{k}").to_json() for k in range(2)]
    kept = [spec_from_json(obj) for obj in big]
    cells = sum(g.order**2 for g in groups._cayley_cache.values())
    assert cells <= groups.CAYLEY_CACHE_CELLS
    assert spec_from_json(big[1]) is kept[1]
    assert spec_from_json(big[0]) is not kept[0]
