"""Submultiplicative weights, characters, and character domination.

A weight is a strictly positive function on a group with
w(x*y) <= w(x) * w(y).  The weighted algebra carries the norm
sum |f(x)| w(x).  Characters are the multiplicative weights
exp(<c, x>) on a lattice; dominate_character finds a character lying
below a given weight on a ball, which in turn yields a rescaling of the
weight with values >= 1 and a multiplicative change of variables
(character_twist) between the two weighted algebras.  In rank 1 the
admissible c form an interval; in higher rank a linear program, which a
short simplex on numpy arrays solves.  Either way, and in
rescale_by_character, one rule judges phi <= w: a margin test whose
tolerance is counted from its rounding.
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
# check_weight; in _chebyshev_centre's ratio test, a step and 0 (against the
# largest step).
REL_TOL = 1e-12
UNIT_ROUNDOFF = 2.0**-53  # u: a rounded float operation errs by a factor within 1 +- u
DOMINATE_BALL_CAP = 200000  # largest ball dominate_character scans
_FLOAT_BITS = 1023  # an int of at most this many bits converts to a finite float
CHECK_PAIR_CAP = 2**18  # most (x, y) pairs an exact pair scan takes (512 points)


def _out_of_range(what: str) -> UsageError:
    return UsageError(f"{what} is not a positive number within the float range")


def _finite(value, what: str):
    """value, kept as given, refused unless it is a real number (a bool or a
    string is not) within the float range: an int of at most _FLOAT_BITS
    bits, or a real whose float is finite (not a NaN or an infinity)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise UsageError(f"{what} must be a real number, got {value!r}")
    try:
        ok = (value.bit_length() <= _FLOAT_BITS if isinstance(value, int)
              else math.isfinite(float(value)))
    except OverflowError:
        ok = False
    if not ok:  # no repr: an int of more than 4300 digits has none
        raise UsageError(f"{what} must be a finite real number within the float range")
    return value


def _items(values, what: str) -> tuple:
    """The items of a sequence, as a tuple; a string, a mapping or a value
    that is not iterable is refused."""
    if not isinstance(values, (str, bytes, Mapping)):
        try:
            return tuple(values)
        except TypeError:
            pass
    raise UsageError(f"{what} must be a sequence, got {type(values).__name__}")


def _finites(values, what: str) -> tuple:
    """The values of a sequence (_items) as floats, each refused unless it is
    a finite real (_finite)."""
    return tuple(float(_finite(v, what)) for v in _items(values, f"{what}s"))


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
        ok = float(_finite(value, what)) > 0
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

    def exponent_size(self, points) -> float:
        """A bound, over the rows x of points (a float numpy array), on the sum
        of |a_i x_i| over each sum <a, x> that evaluating w(x) exponentiates.
        Each such sum is rounded before exp, so it errs in log w(x) by about
        d u times its size, whatever log w(x) is.  A value read or raised
        from one number (a table, a constant, base ** n) exponentiates none,
        and errs by a rounding or two."""
        return 0.0


class ConstantWeight(Weight):
    """w(x) = value, a positive constant (1 gives the plain l1 algebra); it is
    submultiplicative exactly when it is >= 1."""

    def __init__(self, value=1):
        self.constant = _checked(value, "constant weight value")

    def value(self, group, x):
        return self.constant

    def submultiplicative_proof(self, group):
        return "a constant c >= 1 has c <= c * c" if self.constant >= 1 else None

    def to_json(self):
        return {"kind": "constant", "value": self.constant}


class ExpSymmetricWeight(Weight):
    """w(x) = base ** length(x); symmetric since length(x) = length(x^-1)."""

    def __init__(self, base):
        if _finite(base, "exp_symmetric base") <= 0:
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
        if _finite(beta, "polynomial beta") < 0:
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

    def exponent_size(self, points):
        return _exponent_size(self.coefficients, points.clip(min=0) if self.rectified else points)

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
        if not isinstance(values, Mapping):
            raise UsageError(f"table weight values must be a mapping, got {type(values).__name__}")
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
        values = _items(values, "table values")
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
        if not isinstance(numerator, Weight):
            raise UsageError(f"quotient numerator must be a weight, got {type(numerator).__name__}")
        if not isinstance(character, Character):
            raise UsageError(
                f"quotient character must be a Character, got {type(character).__name__}")
        self.numerator = numerator
        self.character = character

    def value(self, group, x):
        if not isinstance(group, LatticeGroup):
            raise UsageError("quotient weights are defined on lattices only")
        return _checked(
            self.numerator.value(group, x) / self.character.value(x), "quotient weight value"
        )

    def exponent_size(self, points):
        return self.numerator.exponent_size(points) + _exponent_size(self.character.c, points)

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
        for f in _items(factors, "product factors"):
            if not isinstance(f, Weight):
                raise UsageError(f"a product factor must be a weight, got {type(f).__name__}")
            flat.extend(f.factors if isinstance(f, ProductWeight) else (f,))
        if not flat:
            raise UsageError("product weight needs at least one factor")
        self.factors = tuple(flat)

    def value(self, group, x):
        out = 1
        for f in self.factors:
            out = out * f.value(group, x)
        return _checked(out, "product weight value")

    def exponent_size(self, points):
        return sum(f.exponent_size(points) for f in self.factors)

    def submultiplicative_proof(self, group):
        if any(f.submultiplicative_proof(group) is None for f in self.factors):
            return None
        return "a product of proven weights"

    def to_json(self):
        return {"kind": "product", "factors": [f.to_json() for f in self.factors]}


def _exponent_size(coefficients, points) -> float:
    """The largest sum of |a_i x_i| over the rows x of points."""
    return float(abs(points * coefficients).sum(axis=1).max(initial=0.0))


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


def _list(v, what: str) -> list:
    if not isinstance(v, list):
        raise UsageError(f"{what} must be a list, got {v!r}")
    return v


def _table_entries(entries: list, group: GroupSpec) -> dict:
    """The values of JSON table entries by element; an entry that is not an
    [element, value] pair, or repeats an element, is refused."""
    values = {}
    for entry in entries:
        if not isinstance(entry, list) or len(entry) != 2:
            raise UsageError(f"table entry must be an [element, value] pair, got {entry!r}")
        x = group.element_from_json(entry[0])
        if x in values:
            raise UsageError(f"table element {x!r} is repeated")
        values[x] = entry[1]
    return values


def weight_from_json(obj: dict, group: GroupSpec | None = None) -> Weight:
    """Decode a weight; every malformed description raises UsageError.

    Only the JSON structure is checked here: each constructor checks its own
    parameters, as it does when called from Python.
    """
    if not isinstance(obj, dict) or "kind" not in obj:
        raise UsageError(f"not a weight description: {obj!r}")
    kind = obj["kind"]
    try:
        if kind == "constant":
            return ConstantWeight(obj.get("value", 1))
        if kind == "exp_symmetric":
            return ExpSymmetricWeight(obj["base"])
        if kind == "polynomial":
            return PolynomialWeight(obj["beta"])
        if kind == "exp_directional":
            return ExpDirectionalWeight(obj["coefficients"], rectified=obj.get("rectified", True))
        if kind == "table":
            if obj.get("extension", "error") != "error":
                raise UsageError('weight tables are lookup-only; "extension" must be "error"')
            if "ball_radius" in obj:
                if group is None:
                    raise UsageError("ball-aligned weight tables need the group to decode")
                radius = _integer(obj["ball_radius"], "table ball_radius")
                return TableWeight.on_ball(group, radius, obj["values"])
            entries = _list(obj["entries"], "table entries")
            if group is None:
                raise UsageError("weight tables need the group to decode their elements")
            return TableWeight(_table_entries(entries, group))
        if kind == "quotient":
            character = obj["character"]
            if not isinstance(character, dict):
                raise UsageError(f"quotient character must be an object, got {character!r}")
            return QuotientWeight(weight_from_json(obj["weight"], group), Character(character["c"]))
        if kind == "product":
            return ProductWeight([weight_from_json(f, group)
                                  for f in _list(obj["factors"], "product factors")])
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

    The verdict is the one rule of _Domination, read at the c found: rank 1
    takes the midpoint of the interval of admissible c, whose ends are finite
    as the ball holds 1 and -1, so the interval of a feasible character may
    read inverted within the tolerance.  An infeasible ball reports, as its
    certificate, (e, e) when w(e) < 1, else the crossing pair.  Higher rank
    takes the c that maximizes the least margin, by a simplex on the LP's
    dual (_Domination.centre), so the choice stays deterministic.  Its
    infeasibility is reported uncertified: there two constraints need not
    certify it, since d + 1 can be needed.
    """
    if not isinstance(group, LatticeGroup):
        raise UsageError("character domination is available on lattices only")
    radius = _integer(radius, "radius")
    if radius < 1:
        raise UsageError(f"radius must be >= 1, got {radius}")
    rule = _Domination(weight, group, ball(group, radius, cap=DOMINATE_BALL_CAP))
    found = {}
    if group.rank == 1:
        lower, lower_at, upper, upper_at = rule.interval()
        c = ((lower + upper) / 2,)
        found = {"lower": lower, "upper": upper}
    else:
        c = rule.centre()
    violation = rule.violation(c)
    if violation is None:
        return DominationResult(feasible=True, character=Character(c), radius=radius, **found)
    if group.rank == 1:
        e = group.identity
        found["certificate_pair"] = (e, e) if violation[0] == e else (lower_at, upper_at)
    return DominationResult(feasible=False, character=None, radius=radius, **found)


class _Domination:
    """The one rule that judges phi = exp(<c, .>) <= w on a lattice window.

    phi <= w reads <c, x> <= log w(x) at each point x of the window, the
    identity included.  A c passes when the least margin
    t = min (log w(x) - <c, x>) / max(1, |x|_2) over the window is >= -tol:
    at x != e the divisor is |x|_2 >= 1, and at e the margin is log w(e).
    tol = kappa u max(1, L) bounds the rounding of one margin, with
    u = UNIT_ROUNDOFF.  kappa = 2d + 2 counts its roundings on Z^d: the log,
    the d products and d - 1 sums of <c, x>, the subtraction and the
    division.  L = max |log w| + w.exponent_size(window) is their scale:
    the second term bounds the rounding inside w itself, which a quotient
    of two large characters that nearly cancel makes far larger than
    u |log w|.  The window is held as numpy arrays: its points' columns
    (x, |x|_2) and their log w.
    """

    def __init__(self, weight: Weight, group: LatticeGroup, window: Window):
        import numpy as np

        self.points = list(window)
        self.logs = np.array([math.log(weight.value(group, x)) for x in self.points])
        cols = np.array(self.points, dtype=float).reshape(len(self.points), group.rank)
        self.cols = np.column_stack((cols, np.sqrt((cols * cols).sum(axis=1))))
        size = abs(self.logs).max(initial=0.0) + weight.exponent_size(cols)
        self.tol = (2 * group.rank + 2) * UNIT_ROUNDOFF * max(1.0, size)

    def interval(self) -> tuple:
        """Rank 1: (lower, lower_at, upper, upper_at), the interval of the c
        that meet every constraint at x != e, and the points that bound it."""
        lower, lower_at = -math.inf, None
        upper, upper_at = math.inf, None
        for x, log in zip(self.points, self.logs.tolist()):
            bound = log / x[0] if x[0] else None
            if x[0] > 0 and bound < upper:
                upper, upper_at = bound, x
            elif x[0] < 0 and bound > lower:
                lower, lower_at = bound, x
        return lower, lower_at, upper, upper_at

    def centre(self) -> tuple:
        """The c maximizing the least margin over x != e, found by a simplex on
        the LP's dual (_chebyshev_centre); the window must hold a box."""
        lattice = self.cols[:, -1] > 0
        points = [x for x, keep in zip(self.points, lattice.tolist()) if keep]
        return _chebyshev_centre(points, self.cols[lattice], self.logs[lattice], self.tol)

    def gaps(self, c):
        """log w(x) - <c, x> at each point of the window."""
        import numpy as np

        return self.logs - self.cols[:, :-1] @ np.array(c, dtype=float)

    def violation(self, c) -> tuple | None:
        """None when exp(<c, .>) passes the rule, else (x, t): a point x of
        least margin t."""
        if not self.points:
            return None
        margins = self.gaps(c) / self.cols[:, -1].clip(min=1)
        i = int(margins.argmin())
        return None if margins[i] >= -self.tol else (self.points[i], float(margins[i]))


def _chebyshev_centre(points: list, cols, logs, tol: float) -> tuple:
    """The c maximizing t subject to <c, x> + t |x|_2 <= logs[i] at each
    x = points[i], whose row of cols is (x, |x|_2), by a primal simplex on
    the dual LP

        min sum y_x logs[x]  subject to  sum y_x (x, |x|_2) = (0, 1), y >= 0,

    whose optimal basis B gives c by the solve B^T (c, t_B) = logs_B.

    points is a punctured box, so it holds -e_1, e_1, e_2, ..., e_d, whose
    columns are a feasible basis (y = 1/2, 1/2, 0, ...): no phase 1 runs, and
    as sum y_x |x|_2 = 1 bounds y, the optimum is finite.  A point enters while
    its reduced cost is below -tol, the verdict's own tolerance: the most
    negative one (Dantzig), or right after a degenerate pivot the first in
    points, with ties in the ratio test left by the first basic point (Bland,
    Math. Oper. Res. 1977).  So a run of degenerate pivots repeats no basis,
    and every other pivot lowers the cost.  At the end each margin at c is
    >= t_B - tol, and t_B bounds the optimum t* from above (weak duality), so
    a ball with t* >= 0 is never judged infeasible.
    """
    import numpy as np

    d = cols.shape[1] - 1
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
            return tuple(map(float, ct[:d]))
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

    Judges phi <= w on the window by dominate_character's rule (_Domination),
    raising ContractViolationError exactly when it fails; reports min w/phi
    over the window, read off the rule's logs, and measures
    twist(a*b) - twist(a)*twist(b) for each supplied pair (a, b).
    """
    group = window.group
    if not isinstance(group, LatticeGroup):
        raise UsageError("character rescaling is available on lattices only")
    rescaled = QuotientWeight(weight, character)
    if len(character.c) != group.rank:
        raise UsageError(f"character of rank {len(character.c)} on a lattice of rank {group.rank}")
    rule = _Domination(weight, group, window)
    violation = rule.violation(character.c)
    if violation is not None:
        x, m = violation
        raise ContractViolationError(f"character exceeds the weight at {x!r}: margin {m}")
    gaps = rule.gaps(character.c)
    min_val = _exp((float(gaps.min()),), "rescaled weight value") if len(gaps) else math.inf
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
