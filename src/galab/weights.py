"""Submultiplicative weights, characters, and character domination.

A weight is a strictly positive function on a group with
w(x*y) <= w(x) * w(y).  The weighted algebra carries the norm
sum |f(x)| w(x).  Characters are the multiplicative weights
exp(<c, x>) on a lattice; dominate_character finds a character lying
below a given weight on a ball, which in turn yields a rescaling of the
weight with values >= 1 and a multiplicative change of variables
(character_twist) between the two weighted algebras.  In rank 1 that is an
interval of c; in higher rank a linear program, which a short simplex on
numpy arrays solves.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass
from fractions import Fraction
from types import MappingProxyType
from typing import Mapping, Sequence

from .algebra import AlgebraElement, to_jsonable
from .errors import ContractViolationError, ResourceLimitError, UsageError
from .groups import GroupSpec, LatticeGroup, Window, _integer, ball

# Relative gap within which two floats count as equal: w(x) and w(x^-1) in
# check_weight; in dominate_character's simplex, 0 and a reduced cost or t
# (against max(1, max |log w|)), or a ratio-test step (against the largest).
REL_TOL = 1e-12
DOMINATE_BALL_CAP = 200000  # largest ball dominate_character scans
_FLOAT_BITS = 1023  # an int of at most this many bits converts to a finite float
CHECK_PAIR_CAP = 2**18  # most (x, y) pairs an exact pair scan takes (512 points)


def _out_of_range(what: str) -> UsageError:
    return UsageError(f"{what} is not a positive number within the float range")


def _real(value, what: str):
    """value, refused unless it is a real number; a bool or a string is not."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise UsageError(f"{what} must be a real number, got {value!r}")
    return value


def _finite(value, what: str) -> float:
    """float(value), refused unless value is a real number (_real) within the float range."""
    try:
        if math.isfinite(x := float(_real(value, what))):
            return x
    except OverflowError:
        pass
    raise UsageError(f"{what} must be a finite real number, got {value!r}")


def _finites(values, what: str) -> tuple:
    """The values of a sequence as finite reals (_finite); a value that is
    not a sequence is refused."""
    try:
        items = iter(values)
    except TypeError:
        raise UsageError(f"{what}s must be a sequence of real numbers, got {values!r}") from None
    return tuple(_finite(v, what) for v in items)


def _checked(value, what: str):
    """A weight value, refused unless it is positive and within the float range.

    Weight values feed float norms and reports, so an int or a Fraction past
    the float range, an infinity, a NaN or an underflow to 0 is refused where
    it arises, as is anything that is not a real number.  A value that passes
    is kept as given.
    """
    kind = type(value)  # exact types first: a bool is an int, but no weight value
    if kind is int:
        ok = 0 < value and value.bit_length() <= _FLOAT_BITS
    elif kind is float:
        ok = 0 < value < math.inf
    else:
        try:
            ok = 0 < float(_real(value, what)) < math.inf
        except OverflowError:
            ok = False
    if not ok:
        raise _out_of_range(what)
    return value


def _power(base, exponent, what: str):
    """base ** exponent as a checked weight value.

    An exact int power that must leave the float range is refused before it
    is computed, so a large int exponent costs nothing.
    """
    if isinstance(base, int) and isinstance(exponent, int):
        if (base.bit_length() - 1) * exponent > _FLOAT_BITS:
            raise _out_of_range(what)
        return _checked(base**exponent, what)
    try:
        return _checked(base**exponent, what)
    except OverflowError:
        raise _out_of_range(what) from None


def _exp(exponents, what: str) -> float:
    """exp(sum(exponents)) as a checked weight value."""
    try:
        return _checked(math.exp(sum(exponents)), what)
    except OverflowError:
        raise _out_of_range(what) from None


class _Immutable(type):
    """Weights are immutable: their attributes are set while the outermost
    constructor runs (a subclass's __init__ included) and frozen after."""

    def __call__(cls, *args, **kwargs):
        obj = super().__call__(*args, **kwargs)
        object.__setattr__(obj, "_frozen", True)
        return obj


class Weight(metaclass=_Immutable):
    """Base class; subclasses implement value(group, x) > 0.

    A weight's value at a point never changes, so a caller may keep the
    values it has read for as long as it holds the same weight object.
    """

    __slots__ = ("_frozen",)  # a slot, so vars() shows only a weight's own attributes

    def __setattr__(self, name, value):
        if getattr(self, "_frozen", False):
            raise AttributeError(f"{type(self).__name__} objects are immutable")
        object.__setattr__(self, name, value)

    def __delattr__(self, name):
        if getattr(self, "_frozen", False):
            raise AttributeError(f"{type(self).__name__} objects are immutable")
        object.__delattr__(self, name)

    def value(self, group: GroupSpec, x):
        raise NotImplementedError

    def to_json(self) -> dict:
        raise NotImplementedError

    def submultiplicative_proof(self, group: GroupSpec) -> str | None:
        """Why w(x*y) <= w(x) * w(y) holds on group, or None when it is not proven."""
        return None


class ConstantWeight(Weight):
    """w(x) = value, a constant >= 1 (1 gives the plain l1 algebra)."""

    def __init__(self, value=1):
        value = _checked(value, "constant weight value")
        if value < 1:
            raise UsageError(f"a constant weight below 1 is not submultiplicative: {value}")
        self.constant = value

    def value(self, group, x):
        return self.constant

    def submultiplicative_proof(self, group):
        return "a constant c >= 1 has c <= c * c"

    def to_json(self):
        return {"kind": "constant", "value": self.constant}


class ExpSymmetricWeight(Weight):
    """w(x) = base ** length(x); symmetric since length(x) = length(x^-1)."""

    def __init__(self, base):
        if _real(base, "exp_symmetric base") <= 0:
            raise UsageError(f"exp_symmetric base must be positive, got {base}")
        self.base = base

    def value(self, group, x):
        return _power(self.base, group.word_length(x), "exp_symmetric weight value")

    def submultiplicative_proof(self, group):
        return "word length is subadditive and the base is >= 1" if self.base >= 1 else None

    def to_json(self):
        return {"kind": "exp_symmetric", "base": self.base}


class PolynomialWeight(Weight):
    """w(x) = (1 + length(x)) ** beta with beta >= 0."""

    def __init__(self, beta):
        if _real(beta, "polynomial beta") < 0:
            raise UsageError(f"polynomial weight needs beta >= 0, got {beta}")
        self.beta = beta

    def value(self, group, x):
        return _power(1 + group.word_length(x), self.beta, "polynomial weight value")

    def submultiplicative_proof(self, group):
        return "1 + |xy| <= (1 + |x|) (1 + |y|) by subadditive word length, and beta >= 0"

    def to_json(self):
        return {"kind": "polynomial", "beta": self.beta}


class ExpDirectionalWeight(Weight):
    """Lattice-only w(x) = exp(sum_i a_i * x_i^+), or exp(<a, x>) if rectified=False.

    The rectified form grows in the positive directions and is flat in the
    negative ones, so it is genuinely one-sided (and not symmetric).
    """

    def __init__(self, coefficients: Sequence[float], *, rectified: bool = True):
        if not isinstance(rectified, bool):
            raise UsageError(f"'rectified' must be a boolean, got {rectified!r}")
        self.coefficients = _finites(coefficients, "exp_directional coefficient")
        self.rectified = rectified

    def value(self, group, x):
        if not isinstance(group, LatticeGroup) or len(x) != len(self.coefficients):
            raise UsageError("exp_directional weights are defined on matching lattices only")
        if self.rectified:
            s = (c * max(v, 0) for c, v in zip(self.coefficients, x))
        else:
            s = (c * v for c, v in zip(self.coefficients, x))
        return _exp(s, "exp_directional weight value")

    def submultiplicative_proof(self, group):
        if not self.rectified:
            return "exp(<a, x>) is a character: w(xy) = w(x) w(y)"
        if min(self.coefficients, default=0) >= 0:
            return "(x + y)^+ <= x^+ + y^+ in each coordinate, and every coefficient is >= 0"
        return None

    def to_json(self):
        return {
            "kind": "exp_directional",
            "coefficients": list(self.coefficients),
            "rectified": self.rectified,
        }


class TableWeight(Weight):
    """Weight given by explicit values on a finite table of elements.

    A table is a read-only lookup over a private copy of the values given:
    evaluation outside it is refused.  Each value must be positive and
    within the float range, as every other weight value is.  The values
    never change, so each group's proof is kept once found.
    """

    def __init__(self, values: Mapping):
        if not values:
            raise UsageError("table weight needs at least one entry")
        self.values = MappingProxyType({x: _checked(v, "table weight")
                                        for x, v in values.items()})
        self._proofs = {}

    def value(self, group, x):
        if x not in self.values:
            raise UsageError(f"element {x!r} is outside the weight table")
        return self.values[x]

    def submultiplicative_proof(self, group):
        """An exact scan of the table's pairs whose product is in the table (a
        product outside it has no value), within CHECK_PAIR_CAP."""
        if group not in self._proofs:
            check_pair_cap(len(self.values))
            self._proofs[group] = None if _pair_scan(group, self.values)[0] > 1 else (
                f"checked exactly on the {len(self.values) ** 2} pairs of table points")
        return self._proofs[group]

    def to_json(self):
        return {"kind": "table", "entries": [[x, v] for x, v in self.values.items()]}

    @staticmethod
    def on_ball(group: GroupSpec, radius: int, values: Sequence[float]) -> "TableWeight":
        window = ball(group, radius)
        if len(values) != len(window):
            raise UsageError(
                f"expected {len(window)} values for ball({radius}), got {len(values)}"
            )
        return TableWeight(dict(zip(window.elements, values)))


@dataclass(frozen=True)
class Character:
    """Multiplicative lattice weight exp(<c, x>)."""

    c: tuple

    def __post_init__(self):
        object.__setattr__(self, "c", _finites(self.c, "character coefficient"))

    def value(self, x) -> float:
        if len(x) != len(self.c):
            raise UsageError(f"character of rank {len(self.c)} applied to {x!r}")
        return _exp((ci * xi for ci, xi in zip(self.c, x)), "character value")

    def to_json(self):
        return {"c": list(self.c)}


class QuotientWeight(Weight):
    """w(x) / phi(x) for a weight w and character phi; the rescaled weight."""

    def __init__(self, numerator: Weight, character: Character):
        self.numerator = numerator
        self.character = character

    def value(self, group, x):
        if not isinstance(group, LatticeGroup):
            raise UsageError("quotient weights are defined on lattices only")
        return _checked(
            self.numerator.value(group, x) / self.character.value(x), "quotient weight value"
        )

    def submultiplicative_proof(self, group):
        if self.numerator.submultiplicative_proof(group) is None:
            return None
        return "a proven weight divided by a character, which is multiplicative"

    def to_json(self):
        return {
            "kind": "quotient",
            "weight": self.numerator.to_json(),
            "character": self.character.to_json(),
        }


class ProductWeight(Weight):
    """Pointwise product of weights (submultiplicative whenever the factors are)."""

    def __init__(self, factors: Sequence[Weight]):
        flat = []
        for f in factors:
            if isinstance(f, ProductWeight):
                flat.extend(f.factors)
            else:
                flat.append(f)
        if not flat:
            raise UsageError("product weight needs at least one factor")
        self.factors = tuple(flat)

    def value(self, group, x):
        out = 1
        for f in self.factors:
            out = out * f.value(group, x)
        return _checked(out, "product weight value")

    def submultiplicative_proof(self, group):
        if any(f.submultiplicative_proof(group) is None for f in self.factors):
            return None
        return "a product of proven weights"

    def to_json(self):
        return {"kind": "product", "factors": [f.to_json() for f in self.factors]}


def _length_only(weight: Weight) -> bool:
    """Whether weight's value at x depends on x only through word_length(x).

    Only the exact types count, so a subclass that overrides value does not,
    and a ProductWeight counts when each of its factors does.
    """
    kind = type(weight)
    if kind is ProductWeight:
        return all(map(_length_only, weight.factors))
    return kind in (ConstantWeight, ExpSymmetricWeight, PolynomialWeight)


def _fraction(v) -> Fraction:
    """A weight value as an exact Fraction; numpy floats go by as_integer_ratio."""
    return Fraction(v) if isinstance(v, numbers.Rational) else Fraction(*v.as_integer_ratio())


def _number(v, what: str):
    """A finite real from JSON, kept as given: int weights keep norms exact.

    An int past the float range is refused like the float 1e400.
    """
    if isinstance(v, float) and math.isfinite(v):
        return v
    if isinstance(v, int) and not isinstance(v, bool) and v.bit_length() <= _FLOAT_BITS:
        return v
    raise UsageError(f"{what} must be a finite number, got {v!r}")


def _list(v, what: str) -> list:
    if not isinstance(v, list):
        raise UsageError(f"{what} must be a list, got {v!r}")
    return v


def _numbers(v, what: str) -> list:
    return [_number(x, what) for x in _list(v, what)]


def _table_entry(entry, group: GroupSpec):
    if not isinstance(entry, list) or len(entry) != 2:
        raise UsageError(f"table entry must be an [element, value] pair, got {entry!r}")
    return group.element_from_json(entry[0]), _number(entry[1], "table weight")


def weight_from_json(obj: dict, group: GroupSpec | None = None) -> Weight:
    """Decode a weight; every malformed description raises UsageError."""
    if not isinstance(obj, dict) or "kind" not in obj:
        raise UsageError(f"not a weight description: {obj!r}")
    kind = obj["kind"]
    try:
        if kind == "constant":
            return ConstantWeight(_number(obj.get("value", 1), "constant weight value"))
        if kind == "exp_symmetric":
            return ExpSymmetricWeight(_number(obj["base"], "exp_symmetric base"))
        if kind == "polynomial":
            return PolynomialWeight(_number(obj["beta"], "polynomial beta"))
        if kind == "exp_directional":
            return ExpDirectionalWeight(
                _numbers(obj["coefficients"], "exp_directional coefficients"),
                rectified=obj.get("rectified", True),
            )
        if kind == "table":
            if obj.get("extension", "error") != "error":
                raise UsageError('weight tables are lookup-only; "extension" must be "error"')
            if "ball_radius" in obj:
                if group is None:
                    raise UsageError("ball-aligned weight tables need the group to decode")
                radius = _integer(obj["ball_radius"], "table ball_radius")
                return TableWeight.on_ball(group, radius, _numbers(obj["values"], "table values"))
            entries = _list(obj["entries"], "table entries")
            if group is None:
                raise UsageError("weight tables need the group to decode their elements")
            return TableWeight(dict(_table_entry(e, group) for e in entries))
        if kind == "quotient":
            character = obj["character"]
            if not isinstance(character, dict):
                raise UsageError(f"quotient character must be an object, got {character!r}")
            return QuotientWeight(
                weight_from_json(obj["weight"], group),
                Character(tuple(_numbers(character["c"], "character coefficients"))),
            )
        if kind == "product":
            return ProductWeight(
                [weight_from_json(f, group) for f in _list(obj["factors"], "product factors")]
            )
    except KeyError as exc:
        raise UsageError(f"weight description of kind {kind!r} is missing field {exc}") from None
    raise UsageError(f"unknown weight kind {kind!r}")


# ---------------------------------------------------------------------------
# checks


@dataclass
class WeightCheckReport:
    """check_weight's findings on a window.

    proof is the weight's submultiplicative_proof, or None; submultiplicative
    holds exactly when there is one.  worst_ratio is the bound shown for
    w(xy) / (w(x) w(y)) over the window's pairs whose product is in the
    window: 1.0 under a proof, else the exact maximum, rounded to a float
    (0.0 when no product is in the window).  worst_pair is a pair whose
    ratio is that maximum and above 1, or None.
    """

    submultiplicative: bool
    proof: str | None
    symmetric: bool
    min_value: float
    min_at: object
    worst_ratio: float
    worst_pair: tuple | None
    window_size: int

    def to_json(self):
        return to_jsonable({
            "submultiplicative": self.submultiplicative,
            "proof": self.proof,
            "symmetric": self.symmetric,
            "min_value": self.min_value,
            "min_at": self.min_at,
            "worst_ratio": self.worst_ratio,
            "worst_pair": self.worst_pair,
            "window_size": self.window_size,
        })


def check_weight(weight: Weight, window: Window) -> WeightCheckReport:
    """Submultiplicativity, symmetry and the least value of a weight on a window.

    The verdict is weight.submultiplicative_proof(group), the judgement the
    weighted oracles take.  A proven weight has each value read once and no
    pair scanned.  An unproven one has the window's pairs scanned exactly
    (_pair_scan) for the worst ratio; a window of more than CHECK_PAIR_CAP
    pairs is refused before any value is read.  symmetric holds when w(x)
    and w(x^-1) agree within REL_TOL wherever both are in the window.
    """
    if not len(window):
        raise UsageError("check_weight needs a nonempty window")
    group = window.group
    proof = weight.submultiplicative_proof(group)
    if proof is None:
        check_pair_cap(len(window))
    vals = {x: weight.value(group, x) for x in window}
    for x, v in vals.items():
        if v <= 0:
            raise UsageError(f"weight is not strictly positive at {x!r}: {v}")
    min_at = min(vals, key=lambda x: (vals[x], group.sort_key(x)))

    worst_ratio, worst_pair = 1.0, None
    if proof is None:
        ratio, pair = _pair_scan(group, vals)
        try:
            worst_ratio = float(ratio)
        except OverflowError:  # a ratio past the float range reads as the largest float
            worst_ratio = sys.float_info.max
        if ratio > 1:
            worst_pair = pair

    symmetric = True
    for x in window:
        xi = group.inv(x)
        if xi not in window:
            continue
        a, b = float(vals[x]), float(vals[xi])
        if abs(a - b) > REL_TOL * max(abs(a), abs(b)):
            symmetric = False
            break

    return WeightCheckReport(
        submultiplicative=proof is not None,
        proof=proof,
        symmetric=symmetric,
        min_value=float(vals[min_at]),
        min_at=min_at,
        worst_ratio=worst_ratio,
        worst_pair=worst_pair,
        window_size=len(window),
    )


def check_pair_cap(n: int) -> None:
    """Refuse n points whose n^2 pairs pass CHECK_PAIR_CAP."""
    if n * n > CHECK_PAIR_CAP:
        raise ResourceLimitError(
            f"window of {n} elements has {n * n} pairs, cap is {CHECK_PAIR_CAP}")


def _pair_scan(group: GroupSpec, vals: Mapping) -> tuple:
    """(ratio, pair): the first exact maximum of w(xy) / (w(x) w(y)) in
    x-then-y order over the pairs of vals's points whose product is one of
    them, as a Fraction, or (0, None) when no product is.

    Each value is an int ratio n / d, so a pair's ratio is
    n_xy d_x d_y / (d_xy n_x n_y), compared with the best by cross
    multiplication: no gcd runs per pair.
    """
    exact = {x: _fraction(v).as_integer_ratio() for x, v in vals.items()}
    best_p, best_q, best_pair = 0, 1, None
    for x, (nx, dx) in exact.items():
        for y, (ny, dy) in exact.items():
            z = exact.get(group.mul(x, y))
            if z is None:
                continue
            p, q = z[0] * dx * dy, z[1] * nx * ny
            if p * best_q > best_p * q:
                best_p, best_q, best_pair = p, q, (x, y)
    return Fraction(best_p, best_q), best_pair


@dataclass
class DominationResult:
    feasible: bool
    character: Character | None
    radius: int
    lower: float | None = None
    upper: float | None = None
    certificate_pair: tuple | None = None

    def to_json(self):
        out = {"feasible": self.feasible, "radius": self.radius,
               "character": self.character.to_json() if self.character is not None else None,
               "lower": self.lower, "upper": self.upper,
               "certificate_pair": self.certificate_pair}
        return to_jsonable({k: v for k, v in out.items() if v is not None})


def dominate_character(weight: Weight, group: LatticeGroup,
                       radius: int) -> DominationResult:
    """Find a character phi = exp(<c, x>) with phi <= weight on ball(radius).

    Solves the linear constraints <c, x> <= log w(x) over the punctured
    ball.  Rank 1 intersects intervals, whose ends are finite as the ball holds
    1 and -1, and returns the midpoint, or the crossing pair as a certificate
    of infeasibility.  Higher rank finds the Chebyshev centre, the c that
    maximizes t with <c, x> + t |x|_2 <= log w(x), by a simplex on its dual
    (_chebyshev_centre), so the choice stays deterministic.  It is feasible
    when t >= -REL_TOL max(1, max |log w|), which lets a character weight's
    rounded logs (t near -1e-16) pass.  Infeasibility is reported
    uncertified: there two constraints need not certify it, since d + 1 can
    be needed.
    """
    if not isinstance(group, LatticeGroup):
        raise UsageError("character domination is available on lattices only")
    radius = _integer(radius, "radius")
    if radius < 1:
        raise UsageError(f"radius must be >= 1, got {radius}")
    window = ball(group, radius, cap=DOMINATE_BALL_CAP)
    points = [x for x in window if x != group.identity]
    logs = {x: math.log(weight.value(group, x)) for x in points}

    if group.rank == 1:
        lower, lower_at = -math.inf, None
        upper, upper_at = math.inf, None
        for x in points:
            bound = logs[x] / x[0]
            if x[0] > 0:
                if bound < upper:
                    upper, upper_at = bound, x
            elif bound > lower:
                lower, lower_at = bound, x
        if lower > upper:
            return DominationResult(
                feasible=False, character=None, radius=radius,
                lower=lower, upper=upper, certificate_pair=(lower_at, upper_at),
            )
        return DominationResult(
            feasible=True, character=Character(((lower + upper) / 2,)), radius=radius,
            lower=lower, upper=upper,
        )

    tol = REL_TOL * max(1.0, *map(abs, logs.values()))
    c, t = _chebyshev_centre(points, [logs[x] for x in points], tol)
    if t < -tol:
        return DominationResult(feasible=False, character=None, radius=radius)
    return DominationResult(feasible=True, character=Character(c), radius=radius)


def _chebyshev_centre(points: list, logs: list, tol: float) -> tuple:
    """(c, t) maximizing t subject to <c, x> + t |x|_2 <= logs[i] at each
    x = points[i], by a primal simplex on the dual LP

        min sum y_x logs[x]  subject to  sum y_x (x, |x|_2) = (0, 1), y >= 0,

    whose optimal basis B gives (c, t) as the solution of B^T (c, t) = logs_B.

    points is a punctured box, so it holds -e_1, e_1, e_2, ..., e_d, whose
    columns are a feasible basis (y = 1/2, 1/2, 0, ...): no phase 1 runs, and
    as sum y_x |x|_2 = 1 bounds y, the optimum is finite.  A point enters while
    its reduced cost is below -tol: the most negative one (Dantzig), or right
    after a degenerate pivot the first in points, with ties in the ratio test
    left by the first basic point (Bland, Math. Oper. Res. 1977).  So a run of
    degenerate pivots repeats no basis, and every other pivot lowers the cost.
    """
    import numpy as np

    d = len(points[0])
    cols = np.array(points, dtype=float)
    cols = np.column_stack((cols, np.sqrt((cols * cols).sum(axis=1))))
    logs = np.array(logs)
    at = {points[i]: i for i in np.flatnonzero(cols[:, d] == 1)}  # the points +-e_k
    units = [tuple(int(i == k) for i in range(d)) for k in range(d)]
    basis = [at[tuple(-v for v in units[0])], *(at[u] for u in units)]
    y = np.zeros(d + 1)
    y[:2] = 0.5
    bland = False
    while True:
        rows = cols[basis]  # B^T
        ct = np.linalg.solve(rows, logs[basis])
        reduced = logs - cols @ ct
        j = int(np.argmax(reduced < -tol) if bland else reduced.argmin())
        if reduced[j] >= -tol:
            return tuple(float(v) for v in ct[:d]), float(ct[d])
        step = np.linalg.solve(rows.T, cols[j])
        up = np.flatnonzero(step > REL_TOL * step.max())
        ratios = y[up] / step[up]
        theta = ratios.min()
        leave = min(up[ratios == theta], key=basis.__getitem__)
        y -= theta * step
        np.maximum(y, 0, out=y)
        y[leave] = theta
        basis[leave] = j
        bland = theta == 0


def character_twist(character: Character, element: AlgebraElement) -> AlgebraElement:
    """Multiply each amplitude by phi(x); an isomorphism of the two algebras.

    The twist intertwines convolution because phi is multiplicative:
    twist(a*b) = twist(a) * twist(b).  Twisting by the character of -c
    undoes it.
    """
    out = {x: complex(v) * character.value(x) for x, v in element.items()}
    return AlgebraElement(element.group, out, False)


@dataclass
class RescaleResult:
    rescaled: QuotientWeight
    twisted: AlgebraElement
    min_rescaled: float
    twist_residuals: list


def rescale_by_character(weight: Weight, character: Character, element: AlgebraElement,
                         window: Window, pairs: Sequence = ()) -> RescaleResult:
    """Build the rescaled weight w/phi and the twisted element, with checks.

    Verifies phi <= w on the window (raising ContractViolationError
    otherwise), reports min w/phi over the window, and measures
    twist(a*b) - twist(a)*twist(b) for each supplied pair (a, b).
    """
    group = window.group
    if not isinstance(group, LatticeGroup):
        raise UsageError("character rescaling is available on lattices only")
    rescaled = QuotientWeight(weight, character)
    min_val = math.inf
    for x in window:
        ratio = float(rescaled.value(group, x))
        if ratio < 1 - 1e-9:
            raise ContractViolationError(
                f"character exceeds the weight at {x!r}: w/phi = {ratio}"
            )
        min_val = min(min_val, ratio)
    residuals = []
    for a, b in pairs:
        direct = character_twist(character, a * b)
        split = character_twist(character, a) * character_twist(character, b)
        scale = max(1.0, float((a * b).to_float().norm()))
        residuals.append(float((direct - split).norm()) / scale)
    return RescaleResult(
        rescaled=rescaled,
        twisted=character_twist(character, element),
        min_rescaled=min_val,
        twist_residuals=residuals,
    )
