"""Discrete group carriers and finite windows.

Three kinds of group cover everything downstream: integer lattices Z^d,
finite groups given by Cayley tables, and free groups on k generators.
Elements are plain hashable encodings (int tuples for lattice points, int
indices for Cayley groups, reduced words as tuples of signed generator
numbers for free groups).  All structure lives on the GroupSpec object, so
operations read as ``spec.mul(a, b)``.
"""

from __future__ import annotations

import itertools
import marshal
import operator
from abc import ABC, abstractmethod
from typing import Iterable, Sequence

from .errors import ResourceLimitError, UsageError

DEFAULT_BALL_CAP = 10**6
# Largest lattice rank: Z^d stores its identity, and every element, as a d-tuple.
LATTICE_RANK_CAP = 1024


def _integer(value, what: str) -> int:
    """value as an int; a float, string or bool is refused, not truncated."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise UsageError(f"{what} must be an integer, got {value!r}")


def _radius(value) -> int:
    radius = _integer(value, "ball radius")
    if radius < 0:
        raise UsageError(f"ball radius must be >= 0, got {radius}")
    return radius


def _rank(value, what: str) -> int:
    rank = _integer(value, f"{what} rank")
    if rank < 1:
        raise UsageError(f"{what} rank must be >= 1, got {rank}")
    return rank


class GroupSpec(ABC):
    """Shared interface of the concrete group carriers."""

    @property
    @abstractmethod
    def identity(self):
        """Encoding of the identity element."""

    @abstractmethod
    def mul(self, a, b):
        """Group product a*b.  Raises UsageError on foreign operands."""

    @abstractmethod
    def inv(self, a):
        """Two-sided inverse of a."""

    @abstractmethod
    def validate(self, a):
        """Raise UsageError unless a is a valid element encoding."""

    @abstractmethod
    def word_length(self, a):
        """Canonical length of a: L1 norm, word length, or 0/1 on Cayley groups."""

    @abstractmethod
    def sort_key(self, a):
        """Key for the deterministic element order; each ball lists its elements in it."""

    @abstractmethod
    def ball_size(self, radius: int, cap: int | None = None) -> int:
        """Number of elements ball(radius) holds, counted without building it;
        ResourceLimitError where ball(radius, cap=cap) would refuse."""

    @abstractmethod
    def ball(self, radius, *, cap=DEFAULT_BALL_CAP):
        """Window of all elements of length <= radius (box on lattices), in sort_key order."""

    @abstractmethod
    def to_json(self):
        """JSON-ready dict describing this group."""

    def element_to_json(self, a):
        return list(a) if isinstance(a, tuple) else a

    def element_from_json(self, obj):
        a = tuple(obj) if isinstance(obj, (list, tuple)) else obj
        self.validate(a)
        return a


class LatticeGroup(GroupSpec):
    """The lattice Z^d written additively; elements are length-d int tuples."""

    __slots__ = ("rank", "_identity")

    def __init__(self, rank: int):
        self.rank = _rank(rank, "lattice")
        if self.rank > LATTICE_RANK_CAP:
            raise ResourceLimitError(f"lattice rank {self.rank} exceeds cap {LATTICE_RANK_CAP}")
        self._identity = (0,) * self.rank

    @property
    def identity(self):
        return self._identity

    def mul(self, a, b):
        if len(a) != self.rank or len(b) != self.rank:
            raise UsageError(f"operands {a!r}, {b!r} do not belong to Z^{self.rank}")
        # Ranks one and two are unrolled: the kernels call mul once per product.
        if self.rank == 1:
            return (a[0] + b[0],)
        if self.rank == 2:
            return (a[0] + b[0], a[1] + b[1])
        return tuple(map(operator.add, a, b))

    def inv(self, a):
        if len(a) != self.rank:
            raise UsageError(f"element {a!r} does not belong to Z^{self.rank}")
        return tuple(-x for x in a)

    def validate(self, a):
        if (
            not isinstance(a, tuple)
            or len(a) != self.rank
            or not all(isinstance(x, int) and not isinstance(x, bool) for x in a)
        ):
            raise UsageError(f"{a!r} is not a valid Z^{self.rank} element")

    def word_length(self, a):
        return sum(abs(x) for x in a)

    def sort_key(self, a):
        return a

    def ball_size(self, radius, cap=None):
        radius = _radius(radius)
        size = (2 * radius + 1) ** self.rank
        if cap is not None and size > cap:
            raise ResourceLimitError(f"ball would hold {size} elements, cap is {cap}")
        return size

    def ball(self, radius, *, cap=DEFAULT_BALL_CAP):
        radius = _radius(radius)
        self.ball_size(radius, cap)
        span = range(-radius, radius + 1)
        elements = itertools.product(span, repeat=self.rank)
        return Window(self, elements)

    def to_json(self):
        return {"kind": "Z", "rank": self.rank}

    def __eq__(self, other):
        return self is other or (isinstance(other, LatticeGroup) and other.rank == self.rank)

    def __hash__(self):
        return hash(("Z", self.rank))

    def __repr__(self):
        return f"LatticeGroup(rank={self.rank})"


class FreeGroup(GroupSpec):
    """Free group on k generators; elements are reduced words.

    A word is a tuple of nonzero ints, +i for the i-th generator and -i for
    its inverse, with no adjacent cancelling pair.  Multiplication reduces
    eagerly, so every stored word stays reduced.
    """

    __slots__ = ("rank",)

    def __init__(self, rank: int):
        self.rank = _rank(rank, "free group")

    @property
    def identity(self):
        return ()

    def mul(self, a, b):
        if not a or not b or a[-1] != -b[0]:
            return a + b
        i = len(a)
        j = 0
        nb = len(b)
        while i > 0 and j < nb and a[i - 1] == -b[j]:
            i -= 1
            j += 1
        return a[:i] + b[j:]

    def inv(self, a):
        return tuple(-x for x in reversed(a))

    def validate(self, a):
        if not isinstance(a, tuple):
            raise UsageError(f"{a!r} is not a valid free group word")
        for x in a:
            if not isinstance(x, int) or isinstance(x, bool) or x == 0 or abs(x) > self.rank:
                raise UsageError(f"letter {x!r} out of range for rank {self.rank}")
        for u, v in zip(a, a[1:]):
            if u == -v:
                raise UsageError(f"word {a!r} is not reduced")

    def word_length(self, a):
        return len(a)

    def sort_key(self, a):
        return (len(a), a)

    def _letters(self):
        k = self.rank
        return list(range(-k, 0)) + list(range(1, k + 1))

    def ball_size(self, radius: int, cap: int | None = None) -> int:
        """Number of reduced words of length <= radius.

        With a cap, the count stops with ResourceLimitError as soon as the
        words plus their letters, what the ball stores, pass the cap; long
        words on rank one count for their length.
        """
        radius = _radius(radius)
        total = 1
        stored = 1
        sphere = 2 * self.rank
        for length in range(1, radius + 1):
            total += sphere
            stored += sphere * (1 + length)
            if cap is not None and stored > cap:
                raise ResourceLimitError(
                    f"ball of radius {radius} stores over {cap} words and letters"
                )
            sphere *= 2 * self.rank - 1
        return total

    def ball(self, radius, *, cap=DEFAULT_BALL_CAP):
        radius = _radius(radius)
        self.ball_size(radius, cap)
        letters = self._letters()
        # Each level extends the sorted level before it by letters in increasing
        # order, so the words come out in sort_key order.
        words = [()]
        level = [()]
        for _ in range(radius):
            nxt = []
            for w in level:
                last = w[-1] if w else 0
                for letter in letters:
                    if letter == -last:
                        continue
                    nxt.append(w + (letter,))
            level = nxt
            words.extend(nxt)
        return Window(self, words)

    def to_json(self):
        return {"kind": "free", "rank": self.rank}

    def __eq__(self, other):
        return self is other or (isinstance(other, FreeGroup) and other.rank == self.rank)

    def __hash__(self):
        return hash(("free", self.rank))

    def __repr__(self):
        return f"FreeGroup(rank={self.rank})"


class CayleyGroup(GroupSpec):
    """Finite group presented by a full multiplication table.

    The table must be an associative Latin square whose identity row and
    column act trivially, that is, a group; the constructor verifies this
    and precomputes the two-sided inverse of every element.  Elements are
    row/column indices.
    """

    __slots__ = ("table", "order", "_identity", "_inverse", "name", "_hash")

    def __init__(self, table: Sequence[Sequence[int]], identity: int = 0, name: str | None = None):
        if not (name is None or type(name) is str):
            raise UsageError(f"Cayley group name must be a string, not {name!r}")
        try:
            rows = tuple(tuple(map(operator.index, row)) for row in table)
        except TypeError:
            rows = None
        # operator.index turns True into 1, so bools are looked for in the table itself.
        if rows is None or any(bool in map(type, row) for row in table):
            raise UsageError("Cayley table must be a list of rows of integers")
        n = len(rows)
        if n == 0:
            raise UsageError("Cayley table must be nonempty")
        full = frozenset(range(n))
        for i, row in enumerate(rows):
            if len(row) != n:
                raise UsageError(f"row {i} has length {len(row)}, expected {n}")
            if frozenset(row) != full:
                raise UsageError(f"row {i} is not a permutation of 0..{n - 1}")
        for j in range(n):
            if frozenset(row[j] for row in rows) != full:
                raise UsageError(f"column {j} is not a permutation of 0..{n - 1}")
        identity = _integer(identity, "Cayley identity index")
        if not 0 <= identity < n:
            raise UsageError(f"identity index {identity} out of range")
        for j in range(n):
            if rows[identity][j] != j or rows[j][identity] != j:
                raise UsageError(f"index {identity} does not act as an identity")
        inverse = [0] * n
        for i in range(n):
            j = rows[i].index(identity)
            if rows[j][i] != identity:
                raise UsageError(f"element {i} has no two-sided inverse")
            inverse[i] = j
        self.table = rows
        self.order = n
        if not self.is_associative():
            raise UsageError("Cayley table is not associative, so it is not a group")
        self._identity = identity
        self._inverse = tuple(inverse)
        self.name = name
        self._hash = hash(("cayley", rows, identity))

    @property
    def identity(self):
        return self._identity

    def mul(self, a, b):
        try:
            return self.table[a][b]
        except (IndexError, TypeError):
            raise UsageError(f"operands {a!r}, {b!r} do not index this Cayley group") from None

    def inv(self, a):
        try:
            return self._inverse[a]
        except (IndexError, TypeError):
            raise UsageError(f"element {a!r} does not index this Cayley group") from None

    def validate(self, a):
        if not isinstance(a, int) or isinstance(a, bool) or not 0 <= a < self.order:
            raise UsageError(f"{a!r} is not a valid index into a group of order {self.order}")

    def word_length(self, a):
        return 0 if a == self._identity else 1

    def sort_key(self, a):
        return a

    def ball_size(self, radius, cap=None):
        radius = _radius(radius)
        if cap is not None and self.order > cap:
            raise ResourceLimitError(f"group order {self.order} exceeds cap {cap}")
        return 1 if radius == 0 else self.order

    def ball(self, radius, *, cap=DEFAULT_BALL_CAP):
        radius = _radius(radius)
        self.ball_size(radius, cap)
        if radius == 0:
            return Window(self, [self._identity])
        return Window(self, range(self.order))

    def is_associative(self) -> bool:
        """Whether (a*b)*c == a*(b*c) for all a, b, c; the constructor requires it.

        Row a passes when, for every b, row b of (a*b)*c, which is the table
        row T[T[a][b]], equals row b of a*(b*c), which is T[a] read at the
        indices T[b] (one itemgetter per table row, built once).  The rows
        that pass are closed under the product (Light's test): if a and a'
        pass, ((a a') b) c = (a (a' b)) c = a ((a' b) c) = a (a' (b c)) =
        (a a') (b c).  So only the rows of a generating set are compared,
        chosen greedily; a group of order n needs at most log2(n) + 1 of
        them, and memory stays O(n^2).
        """
        table = self.table
        if self.order == 1:
            return True  # an itemgetter of one index returns an int, not a row
        getters = [operator.itemgetter(*row) for row in table]
        gens: list[int] = []
        span: set[int] = set()  # right products of generators: all pass
        for a in range(self.order):
            if a in span:
                continue
            row = table[a]
            if list(map(table.__getitem__, row)) != [get(row) for get in getters]:
                return False
            gens.append(a)
            todo = [a] + [table[x][a] for x in span]
            while todo:
                y = todo.pop()
                if y not in span:
                    span.add(y)
                    todo.extend(table[y][g] for g in gens)
        return True

    def to_json(self):
        payload = {
            "kind": "cayley",
            "order": self.order,
            "table": [list(row) for row in self.table],
            "identity": self._identity,
        }
        if self.name is not None:
            payload["name"] = self.name
        return payload

    def __eq__(self, other):
        return self is other or (
            isinstance(other, CayleyGroup)
            and other.table == self.table
            and other._identity == self._identity
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        label = self.name or f"order {self.order}"
        return f"CayleyGroup({label})"


class Window:
    """Finite set of distinct group elements, in the order given, with positional lookup."""

    __slots__ = ("group", "elements", "_pos")

    def __init__(self, group: GroupSpec, elements: Iterable):
        elems = list(elements)
        for x in elems:
            group.validate(x)
        pos = {}
        for i, x in enumerate(elems):
            if x in pos:
                raise UsageError(f"duplicate window element {x!r}")
            pos[x] = i
        self.group = group
        self.elements = tuple(elems)
        self._pos = pos

    def __len__(self):
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __contains__(self, x):
        return x in self._pos

    def position(self, x) -> int:
        try:
            return self._pos[x]
        except KeyError:
            raise UsageError(f"element {x!r} is not in the window") from None

    def __eq__(self, other):
        return (
            isinstance(other, Window)
            and other.group == self.group
            and other.elements == self.elements
        )

    def __repr__(self):
        return f"Window({len(self.elements)} elements of {self.group!r})"


def ball(spec: GroupSpec, radius: int, *, cap: int = DEFAULT_BALL_CAP) -> Window:
    """Ball window of the given radius; see GroupSpec.ball for conventions."""
    return spec.ball(radius, cap=cap)


# ---------------------------------------------------------------------------
# standard finite groups


def cyclic_group(n: int, name: str | None = None) -> CayleyGroup:
    """Z/nZ with addition mod n."""
    n = _integer(n, "cyclic group order")
    if n < 1:
        raise UsageError(f"cyclic group order must be >= 1, got {n}")
    table = [[(i + j) % n for j in range(n)] for i in range(n)]
    return CayleyGroup(table, identity=0, name=f"C{n}" if name is None else name)


def symmetric_group(n: int) -> CayleyGroup:
    """S_n on {0..n-1}; element i is the i-th permutation in lexicographic order.

    The product p*q composes right-to-left: (p*q)(x) = p(q(x)).
    """
    n = _integer(n, "symmetric_group n")
    if not 1 <= n <= 6:
        raise UsageError(f"symmetric_group supports 1 <= n <= 6, got {n}")
    perms = list(itertools.permutations(range(n)))
    index = {p: i for i, p in enumerate(perms)}
    table = [
        [index[tuple(p[q[x]] for x in range(n))] for q in perms]
        for p in perms
    ]
    return CayleyGroup(table, identity=0, name=f"S{n}")


def dihedral_group(n: int) -> CayleyGroup:
    """Symmetries of the regular n-gon, order 2n.

    Index j*n + i encodes r^i s^j with r the rotation and s a reflection,
    so s r s = r^-1.
    """
    n = _integer(n, "dihedral_group n")
    if n < 1:
        raise UsageError(f"dihedral_group needs n >= 1, got {n}")

    def mul(e1, e2):
        i1, j1 = e1 % n, e1 // n
        i2, j2 = e2 % n, e2 // n
        i = (i1 + (i2 if j1 == 0 else -i2)) % n
        return ((j1 + j2) % 2) * n + i

    order = 2 * n
    table = [[mul(a, b) for b in range(order)] for a in range(order)]
    return CayleyGroup(table, identity=0, name=f"D{n}")


def quaternion_group() -> CayleyGroup:
    """The quaternion group {1,-1,i,-i,j,-j,k,-k} of order 8."""
    units = [
        (1, 0, 0, 0),
        (-1, 0, 0, 0),
        (0, 1, 0, 0),
        (0, -1, 0, 0),
        (0, 0, 1, 0),
        (0, 0, -1, 0),
        (0, 0, 0, 1),
        (0, 0, 0, -1),
    ]
    index = {q: i for i, q in enumerate(units)}

    def hamilton(p, q):
        a1, b1, c1, d1 = p
        a2, b2, c2, d2 = q
        return (
            a1 * a2 - b1 * b2 - c1 * c2 - d1 * d2,
            a1 * b2 + b1 * a2 + c1 * d2 - d1 * c2,
            a1 * c2 - b1 * d2 + c1 * a2 + d1 * b2,
            a1 * d2 + b1 * c2 - c1 * b2 + d1 * a2,
        )

    table = [[index[hamilton(p, q)] for q in units] for p in units]
    return CayleyGroup(table, identity=0, name="Q8")


# ---------------------------------------------------------------------------
# JSON

# Decoded Cayley groups, oldest first.  Checking a table costs far more than
# looking it up, and a process often decodes many elements over one group.
CAYLEY_CACHE_GROUPS = 32
CAYLEY_CACHE_CELLS = 2**18  # table cells of all cached groups
_cayley_cache: dict = {}


def _cayley_from_json(table, identity, name) -> CayleyGroup:
    """CayleyGroup(table, identity, name), interned by the version-2 marshal
    bytes of (table, identity, name); every JSON value marshals.

    Marshal writes int, bool, float and str with different type codes and no
    back-references, so equal keys mean equal values of equal types: a bool
    or float cell or identity, or a name that is not a string, never meets a
    valid entry, and the constructor refuses it and stores nothing.  Marshal
    writes any buffer (a numpy array, bytes) as plain bytes, so a table or row
    that is not a list or tuple is refused before it is keyed, and a group is
    stored only when every cell and the identity are exact ints: an np.int64
    cell, which the constructor takes, marshals as the bytes(8) it would
    otherwise stand in for.
    """
    if not isinstance(table, (list, tuple)) or not all(isinstance(row, (list, tuple))
                                                       for row in table):
        raise UsageError("Cayley table must be a list of rows of integers")
    key = marshal.dumps((table, identity, name), 2)
    group = _cayley_cache.get(key)
    if group is None:
        group = CayleyGroup(table, identity=identity, name=name)
        if (group.order**2 <= CAYLEY_CACHE_CELLS and type(identity) is int
                and all(type(cell) is int for row in table for cell in row)):
            _cayley_cache[key] = group
            while (len(_cayley_cache) > CAYLEY_CACHE_GROUPS
                   or sum(g.order**2 for g in _cayley_cache.values()) > CAYLEY_CACHE_CELLS):
                del _cayley_cache[next(iter(_cayley_cache))]
    return group


def spec_from_json(obj: dict) -> GroupSpec:
    """Rebuild a group from its JSON description; equal Cayley descriptions
    give one interned CayleyGroup while it stays in the bounded cache."""
    if not isinstance(obj, dict) or "kind" not in obj:
        raise UsageError(f"not a group description: {obj!r}")
    kind = obj["kind"]
    if kind in ("Z", "free") and "rank" not in obj:
        raise UsageError(f"group of kind {kind!r} needs a 'rank'")
    if kind == "Z":
        return LatticeGroup(obj["rank"])
    if kind == "free":
        return FreeGroup(obj["rank"])
    if kind == "cayley":
        if "table" not in obj:
            raise UsageError("group of kind 'cayley' needs a 'table'")
        group = _cayley_from_json(obj["table"], obj.get("identity", 0), obj.get("name"))
        if "order" in obj and _integer(obj["order"], "declared order") != group.order:
            raise UsageError(f"declared order {obj['order']} != table size {group.order}")
        return group
    raise UsageError(f"unknown group kind {kind!r}")
