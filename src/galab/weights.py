"""Submultiplicative weights, characters, and character domination.

A weight is a strictly positive function on a group with
w(x*y) <= w(x) * w(y).  The weighted algebra carries the norm
sum |f(x)| w(x).  Characters are the multiplicative weights
exp(<c, x>) on a lattice; dominate_character finds a character lying
below a given weight on a ball, which in turn yields a rescaling of the
weight with values >= 1 and a multiplicative change of variables
(character_twist) between the two weighted algebras.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

from .algebra import AlgebraElement, to_jsonable
from .errors import ContractViolationError, ResourceLimitError, UsageError
from .groups import GroupSpec, LatticeGroup, Window, _integer, ball

REL_TOL = 1e-12  # check_weight: relative slack of the submultiplicativity and symmetry tests
DOMINATE_BALL_CAP = 200000  # largest ball dominate_character scans
_FLOAT_BITS = 1023  # an int of at most this many bits converts to a finite float
CHECK_PAIR_CAP = 2**22  # most (x, y) pairs check_weight scans on lattice arrays
CHECK_LOOP_PAIR_CAP = 2**18  # most pairs its per-pair loop scans
CHECK_ARRAY_MIN_PAIRS = 150  # fewest pairs it scans on lattice arrays; the loop is faster below
# _lattice_pair_scan: values whose float64 products are exact (ints) or finite
# and normal (floats), coordinates and keys that fit int64, pairs per chunk.
_SCAN_INT_BOUND = 2**26
_SCAN_FLOAT_MIN, _SCAN_FLOAT_MAX = 2.0**-511, 2.0**511
_SCAN_COORD_BOUND = 2**31
_SCAN_KEY_BOUND = 2**62
_SCAN_CHUNK = 2**13


def _out_of_range(what: str) -> UsageError:
    return UsageError(f"{what} is not a positive number within the float range")


def _checked(value, what: str):
    """A weight value, refused unless it is positive and within the float range.

    Weight values feed float norms and reports, so an int or a Fraction past
    the float range, an infinity, a NaN or an underflow to 0 is refused where
    it arises.  A value that passes is kept as given.
    """
    if isinstance(value, int):
        ok = 0 < value and value.bit_length() <= _FLOAT_BITS
    elif isinstance(value, float):
        ok = 0 < value < math.inf
    else:
        try:
            ok = 0 < float(value) < math.inf
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


class Weight:
    """Base class; subclasses implement value(group, x) > 0."""

    def value(self, group: GroupSpec, x):
        raise NotImplementedError

    def to_json(self) -> dict:
        raise NotImplementedError


class ConstantWeight(Weight):
    """w(x) = value, a constant >= 1 (1 gives the plain l1 algebra)."""

    def __init__(self, value=1):
        value = _checked(value, "constant weight value")
        if value < 1:
            raise UsageError(f"a constant weight below 1 is not submultiplicative: {value}")
        self.constant = value

    def value(self, group, x):
        return self.constant

    def to_json(self):
        return {"kind": "constant", "value": self.constant}


class ExpSymmetricWeight(Weight):
    """w(x) = base ** length(x); symmetric since length(x) = length(x^-1)."""

    def __init__(self, base):
        if base <= 0:
            raise UsageError(f"exp_symmetric base must be positive, got {base}")
        self.base = base

    def value(self, group, x):
        return _power(self.base, group.word_length(x), "exp_symmetric weight value")

    def to_json(self):
        return {"kind": "exp_symmetric", "base": self.base}


class PolynomialWeight(Weight):
    """w(x) = (1 + length(x)) ** beta with beta >= 0."""

    def __init__(self, beta):
        if beta < 0:
            raise UsageError(f"polynomial weight needs beta >= 0, got {beta}")
        self.beta = beta

    def value(self, group, x):
        return _power(1 + group.word_length(x), self.beta, "polynomial weight value")

    def to_json(self):
        return {"kind": "polynomial", "beta": self.beta}


class ExpDirectionalWeight(Weight):
    """Lattice-only w(x) = exp(sum_i a_i * x_i^+), or exp(<a, x>) if rectified=False.

    The rectified form grows in the positive directions and is flat in the
    negative ones, so it is genuinely one-sided (and not symmetric).
    """

    def __init__(self, coefficients: Sequence[float], *, rectified: bool = True):
        self.coefficients = tuple(float(c) for c in coefficients)
        self.rectified = rectified

    def value(self, group, x):
        if not isinstance(group, LatticeGroup) or len(x) != len(self.coefficients):
            raise UsageError("exp_directional weights are defined on matching lattices only")
        if self.rectified:
            s = (c * max(v, 0) for c, v in zip(self.coefficients, x))
        else:
            s = (c * v for c, v in zip(self.coefficients, x))
        return _exp(s, "exp_directional weight value")

    def to_json(self):
        return {
            "kind": "exp_directional",
            "coefficients": list(self.coefficients),
            "rectified": self.rectified,
        }


class TableWeight(Weight):
    """Weight given by explicit values on a finite table of elements.

    A table is a lookup: evaluation outside it is refused.  Each value must
    be positive and within the float range, as every other weight value is.
    """

    def __init__(self, values: Mapping):
        if not values:
            raise UsageError("table weight needs at least one entry")
        self.values = {x: _checked(v, "table weight") for x, v in values.items()}

    def value(self, group, x):
        if x not in self.values:
            raise UsageError(f"element {x!r} is outside the weight table")
        return self.values[x]

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
        object.__setattr__(self, "c", tuple(float(v) for v in self.c))

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

    def to_json(self):
        return {"kind": "product", "factors": [f.to_json() for f in self.factors]}


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
            rectified = obj.get("rectified", True)
            if not isinstance(rectified, bool):
                raise UsageError(f"'rectified' must be a boolean, got {rectified!r}")
            return ExpDirectionalWeight(
                _numbers(obj["coefficients"], "exp_directional coefficients"), rectified=rectified
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
    submultiplicative: bool
    symmetric: bool
    min_value: float
    min_at: object
    worst_ratio: float
    worst_pair: tuple | None
    window_size: int

    def to_json(self):
        return to_jsonable({
            "submultiplicative": self.submultiplicative,
            "symmetric": self.symmetric,
            "min_value": self.min_value,
            "min_at": self.min_at,
            "worst_ratio": self.worst_ratio,
            "worst_pair": self.worst_pair,
            "window_size": self.window_size,
        })


def check_weight(weight: Weight, window: Window) -> WeightCheckReport:
    """Exhaustive submultiplicativity and symmetry scan over a window.

    Pairs whose product leaves the window are skipped; the report carries
    the minimum value and, if some ratio w(xy) / (w(x) w(y)) passes
    1 + REL_TOL, the worst offending pair.  A lattice window of at least
    CHECK_ARRAY_MIN_PAIRS pairs is scanned on numpy arrays where the bits
    agree (_lattice_pair_scan); smaller ones, where the loop is faster, and
    other groups go through the per-pair loop.  Pairs are capped as
    check_pair_cap says: a window past the cap of its group is refused
    before any value is taken, and a lattice window whose values leave the
    array scan is refused before any pair is scanned.
    """
    group = window.group
    check_pair_cap(group, len(window))
    vals = {x: weight.value(group, x) for x in window}
    for x, v in vals.items():
        if v <= 0:
            raise UsageError(f"weight is not strictly positive at {x!r}: {v}")
    min_at = min(vals, key=lambda x: (vals[x], group.sort_key(x)))
    min_value = vals[min_at]

    arrays = isinstance(group, LatticeGroup) and len(window) ** 2 >= CHECK_ARRAY_MIN_PAIRS
    worst = _lattice_pair_scan(window, vals) if arrays else None
    if worst is None:
        check_pair_cap(group, len(window), loop=True)
        worst = _pair_scan(window, vals)
    worst_ratio, worst_pair = worst
    submultiplicative = worst_ratio <= 1 + REL_TOL

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
        submultiplicative=submultiplicative,
        symmetric=symmetric,
        min_value=float(min_value),
        min_at=min_at,
        worst_ratio=worst_ratio,
        worst_pair=None if submultiplicative else worst_pair,
        window_size=len(window),
    )


def check_pair_cap(group: GroupSpec, n: int, *, loop: bool = False) -> None:
    """Refuse a window of n elements whose n^2 pairs pass the cap of the scan
    that takes them: CHECK_PAIR_CAP for a lattice's array scan, and the
    lower CHECK_LOOP_PAIR_CAP for the per-pair loop (other groups, or loop)."""
    lattice = isinstance(group, LatticeGroup) and not loop
    cap = CHECK_PAIR_CAP if lattice else CHECK_LOOP_PAIR_CAP
    if n * n > cap:
        raise ResourceLimitError(f"window of {n} elements has {n * n} pairs, cap is {cap}")


def _pair_scan(window: Window, vals: dict):
    """(worst ratio, its pair) of w(xy) / (w(x) w(y)) over the pairs whose
    product lies in the window: the first maximum in x-then-y order, or
    (0.0, None) when no product does."""
    group = window.group
    worst_ratio = 0.0
    worst_pair = None
    for x in window:
        wx = vals[x]
        for y in window:
            z = group.mul(x, y)
            if z not in vals:
                continue
            ratio = float(vals[z] / (wx * vals[y]))
            if ratio > worst_ratio:
                worst_ratio = ratio
                worst_pair = (x, y)
    return worst_ratio, worst_pair


def _float_exact(v) -> bool:
    """Whether v as a float64 gives _pair_scan's bits: a float whose products
    stay finite and normal, or an int small enough that each product of two
    is exact, so each ratio is one correctly rounded division either way."""
    if type(v) is float:
        return _SCAN_FLOAT_MIN < v < _SCAN_FLOAT_MAX
    return type(v) is int and v < _SCAN_INT_BOUND


def _lattice_pair_scan(window: Window, vals: dict):
    """_pair_scan's result on int64/float64 arrays for a lattice window, or
    None where the bits could differ (a value _float_exact refuses, or
    coordinates whose keys would not fit in int64).

    A point x is keyed by a(x) = sum_i (x_i - lo_i) S_i with the strides S
    of the box [2 lo, 2 hi] that holds every sum, so x + y has key
    a(x) + a(y), looked up among the window's keys with searchsorted.  Rows
    of x go in chunks of about _SCAN_CHUNK pairs; argmax takes the first
    maximum in each chunk and a strict > keeps the earliest across chunks.
    """
    group, elements = window.group, window.elements
    values = list(vals.values())  # in window order
    if not all(map(_float_exact, values)):
        return None
    lo = [min(axis) for axis in zip(*elements)]
    hi = [max(axis) for axis in zip(*elements)]
    if max(map(abs, lo + hi)) > _SCAN_COORD_BOUND:
        return None
    spans = [2 * (h - low) + 1 for low, h in zip(lo, hi)]
    if math.prod(spans) > _SCAN_KEY_BOUND:
        return None
    import numpy as np
    strides = np.cumprod([1] + spans[:0:-1])[::-1]
    offsets = np.array(elements, dtype=np.int64) - np.array(lo, dtype=np.int64)
    keys = offsets @ strides
    # x - 2 lo keys a window point as a sum; points outside the box are no sum.
    shifted = offsets - np.array(lo, dtype=np.int64)
    inside = np.all((shifted >= 0) & (shifted < spans), axis=1)
    targets = shifted[inside] @ strides
    if not len(targets):
        return 0.0, None
    order = np.argsort(targets)
    sorted_targets = targets[order]
    target_index = np.flatnonzero(inside)[order]
    v = np.array(values, dtype=np.float64)
    n = len(elements)
    rows = max(1, _SCAN_CHUNK // n)
    worst_ratio, worst_pair = 0.0, None
    for start in range(0, n, rows):
        sums = keys[start:start + rows, None] + keys
        at = np.minimum(np.searchsorted(sorted_targets, sums), len(sorted_targets) - 1)
        hit = sorted_targets[at] == sums
        ratio = v[target_index[at]] / (v[start:start + rows, None] * v)
        ratio[~hit] = 0.0
        k = int(ratio.argmax())
        if ratio.flat[k] > worst_ratio:
            worst_ratio = float(ratio.flat[k])
            worst_pair = (elements[start + k // n], elements[k % n])
    return worst_ratio, worst_pair


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
    ball.  Rank 1 intersects intervals and returns the midpoint; higher
    rank solves a Chebyshev-center linear program so the choice stays
    deterministic.  Infeasibility comes back with a certifying pair of
    constraints rather than an exception.
    """
    if not isinstance(group, LatticeGroup):
        raise UsageError("character domination is available on lattices only")
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
            else:
                if bound > lower:
                    lower, lower_at = bound, x
        if lower > upper:
            return DominationResult(
                feasible=False, character=None, radius=radius,
                lower=lower, upper=upper, certificate_pair=(lower_at, upper_at),
            )
        if math.isinf(lower) and math.isinf(upper):
            c = 0.0
        elif math.isinf(lower):
            c = upper
        elif math.isinf(upper):
            c = lower
        else:
            c = (lower + upper) / 2
        return DominationResult(
            feasible=True, character=Character((c,)), radius=radius,
            lower=None if math.isinf(lower) else lower,
            upper=None if math.isinf(upper) else upper,
        )

    import numpy as np
    from scipy.optimize import linprog

    d = group.rank
    # Chebyshev center: maximize t with <c, x> + t * |x|_2 <= log w(x).
    a_ub = []
    b_ub = []
    for x in points:
        row = [float(v) for v in x] + [math.hypot(*[float(v) for v in x])]
        a_ub.append(row)
        b_ub.append(logs[x])
    cost = [0.0] * d + [-1.0]
    res = linprog(
        cost, A_ub=np.array(a_ub), b_ub=np.array(b_ub),
        bounds=[(None, None)] * d + [(None, None)], method="highs",
    )
    if not res.success:
        raise ResourceLimitError(f"character domination LP failed: {res.message}")
    c = tuple(float(v) for v in res.x[:d])
    t = float(res.x[d])
    if t < 0:
        # Infeasible: report the two constraints most violated at the center.
        viol = sorted(points, key=lambda x: logs[x] - sum(ci * xi for ci, xi in zip(c, x)))
        return DominationResult(
            feasible=False, character=None, radius=radius,
            certificate_pair=(viol[0], viol[1] if len(viol) > 1 else viol[0]),
        )
    return DominationResult(feasible=True, character=Character(c), radius=radius)


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
