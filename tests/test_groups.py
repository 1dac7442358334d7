import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    rng = range(n)
    accepted = 0
    for table in _reduced_latin_squares(n):
        if all(table[table[a][b]][c] == table[a][table[b][c]] for a in rng for b in rng for c in rng):
            assert CayleyGroup(table).is_associative()
            accepted += 1
        else:
            with pytest.raises(UsageError):
                CayleyGroup(table)
    assert accepted == groups


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


@given(words, words, words)
@settings(max_examples=60)
def test_free_group_axioms(u, v, w):
    f2 = FreeGroup(2)

    def reduce(letters):
        out = []
        for s in letters:
            if out and out[-1] == -s:
                out.pop()
            else:
                out.append(s)
        return tuple(out)

    x, y, z = reduce(u), reduce(v), reduce(w)
    assert f2.mul(f2.mul(x, y), z) == f2.mul(x, f2.mul(y, z))
    assert f2.mul(x, f2.inv(x)) == ()
    assert f2.mul((), x) == x


# ---------------------------------------------------------------------------
# lattices and windows

vectors = st.tuples(st.integers(-50, 50), st.integers(-50, 50))


@given(vectors, vectors)
def test_lattice_group_laws(a, b):
    z2 = LatticeGroup(2)
    assert z2.mul(a, b) == z2.mul(b, a)
    assert z2.mul(a, z2.inv(a)) == (0, 0)
    assert z2.word_length(a) == abs(a[0]) + abs(a[1])


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


def test_window_union():
    z = LatticeGroup(1)
    win = ball(z, 1).union([(4,)])
    assert list(win) == [(-1,), (0,), (1,), (4,)]


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
