"""Finitely supported group-algebra elements.

An AlgebraElement is a finite formal sum of group elements with scalar
amplitudes.  Two scalar modes exist: ordinary complex floats, and exact
Gaussian rationals.  An exact element is stored over one positive int
denominator L, as int numerators (or (re, im) Gaussian-int pairs) in lowest
terms, so its kernels add and multiply plain ints and reduce once per
result; amplitudes cross the API as QComplex, a pair of fractions.  Mixing
modes in an operation silently demotes to floats, like Python's own numeric
tower; exact-mode arithmetic never rounds.

Convolution follows (h*f)(z) = sum_y h(z y^-1) f(y), so supp(h*f) is
contained in supp(h)*supp(f).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from numbers import Number
from typing import TYPE_CHECKING, Mapping

from .errors import UsageError
from .groups import GroupSpec

if TYPE_CHECKING:
    from .weights import Weight


def _fraction(v) -> Fraction:
    if isinstance(v, Fraction):
        return v
    if isinstance(v, (int, str, float)) and not isinstance(v, bool):
        try:
            return Fraction(v)
        except (ValueError, OverflowError, ZeroDivisionError):
            pass  # "abc", "1/0", nan and inf name no rational
    raise UsageError(f"cannot interpret {v!r} as an exact rational")


def _finite_float(v) -> float:
    """A float amplitude part from JSON: a number (not a bool), or a rational string like "1/4"."""
    if not isinstance(v, bool):
        try:
            x = float(_fraction(v)) if isinstance(v, str) else float(v)
            if math.isfinite(x):
                return x
        except (TypeError, ValueError, OverflowError):
            pass  # UsageError from _fraction is a ValueError too
    raise UsageError(f"cannot interpret {v!r} as a finite float")


_BEYOND_FLOATS = "an exact amplitude lies beyond the float range"


@dataclass(frozen=True, eq=False)
class QComplex:
    """Exact complex number with rational real and imaginary parts."""

    re: Fraction
    im: Fraction = Fraction(0)

    @staticmethod
    def of(re, im=0) -> "QComplex":
        return QComplex(_fraction(re), _fraction(im))

    @property
    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def magnitude(self):
        """|z|: exact when z is purely real or purely imaginary."""
        if self.im == 0:
            return abs(self.re)
        if self.re == 0:
            return abs(self.im)
        try:
            return math.hypot(float(self.re), float(self.im))
        except OverflowError:
            raise UsageError(_BEYOND_FLOATS) from None

    def __complex__(self):
        return complex(float(self.re), float(self.im))

    def __abs__(self):
        return self.magnitude()

    def __neg__(self):
        return QComplex(-self.re, -self.im)

    def _lift(self, other):
        if isinstance(other, QComplex):
            return other
        if isinstance(other, (int, Fraction)) and not isinstance(other, bool):
            return QComplex(Fraction(other))
        return None

    def __add__(self, other):
        o = self._lift(other)
        if o is not None:
            return QComplex(self.re + o.re, self.im + o.im)
        if isinstance(other, Number):
            return complex(self) + other
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        o = self._lift(other)
        if o is not None:
            return QComplex(self.re - o.re, self.im - o.im)
        if isinstance(other, Number):
            return complex(self) - other
        return NotImplemented

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        o = self._lift(other)
        if o is not None:
            return QComplex(
                self.re * o.re - self.im * o.im,
                self.re * o.im + self.im * o.re,
            )
        if isinstance(other, Number):
            return complex(self) * other
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._lift(other)
        if o is not None:
            den = o.re * o.re + o.im * o.im
            if den == 0:
                raise ZeroDivisionError("division by exact zero")
            return QComplex(
                (self.re * o.re + self.im * o.im) / den,
                (self.im * o.re - self.re * o.im) / den,
            )
        if isinstance(other, Number):
            return complex(self) / other
        return NotImplemented

    def __rtruediv__(self, other):
        o = self._lift(other)
        if o is not None:
            return o.__truediv__(self)
        if isinstance(other, Number):
            return other / complex(self)
        return NotImplemented

    def __eq__(self, other):
        if isinstance(other, QComplex):
            return self.re == other.re and self.im == other.im
        if isinstance(other, (int, Fraction)) and not isinstance(other, bool):
            return self.im == 0 and self.re == other
        if isinstance(other, float):
            return self.im == 0 and self.re == Fraction(other)
        if isinstance(other, complex):
            return self.re == Fraction(other.real) and self.im == Fraction(other.imag)
        return NotImplemented

    def __hash__(self):
        if self.im == 0:
            return hash(self.re)
        return hash((self.re, self.im))

    def __repr__(self):
        if self.im == 0:
            return f"QComplex({self.re})"
        return f"QComplex({self.re}, {self.im})"


_QZERO = QComplex(Fraction(0))


def _coerce_exact(v) -> QComplex:
    if isinstance(v, QComplex):
        return v
    if isinstance(v, complex):
        raise UsageError("complex floats cannot enter an exact element; use pairs of rationals")
    return QComplex(_fraction(v))


def _make(group, exact: bool, terms: dict, den: int = 1, gaussian: bool = False):
    """An element from storage that already meets AlgebraElement's invariants."""
    el = object.__new__(AlgebraElement)
    el.group, el.exact, el._terms, el._den, el.gaussian = group, exact, terms, den, gaussian
    return el


class AlgebraElement:
    """Finite formal sum over a group, with float or exact rational amplitudes.

    A float element maps each support point to a complex.  An exact element
    is stored over one positive int denominator: it maps each support point
    to an int numerator, or to an (re, im) pair of ints when some imaginary
    part is nonzero (gaussian), kept in lowest terms, so equal elements have
    equal storage.  items() and amplitude() give QComplex.
    """

    __slots__ = ("group", "exact", "_terms", "_den", "gaussian")

    def __init__(self, group: GroupSpec, terms: Mapping, exact: bool):
        self.group, self.exact, self._den, self.gaussian = group, exact, 1, False
        cleaned, coerce = {}, _coerce_exact if exact else complex
        for x, v in terms.items():
            group.validate(x)
            amp = coerce(v)
            if amp != 0:
                cleaned[x] = amp
        self._terms = cleaned
        if exact:
            den = math.lcm(*(q.denominator for v in cleaned.values() for q in (v.re, v.im)))
            nums = {x: (v.re.numerator * (den // v.re.denominator),
                        v.im.numerator * (den // v.im.denominator)) for x, v in cleaned.items()}
            built = AlgebraElement.from_numerators(group, nums, den, True)
            self._terms, self._den, self.gaussian = built._terms, built._den, built.gaussian

    # -- constructors --------------------------------------------------

    @staticmethod
    def zero(group: GroupSpec, *, exact: bool = False) -> "AlgebraElement":
        return _make(group, exact, {})

    @staticmethod
    def from_numerators(group: GroupSpec, nums: Mapping, den: int,
                        gaussian: bool) -> "AlgebraElement":
        """The exact element nums / den over a positive int den, with int
        numerators, or (re, im) int pairs when gaussian; keys are trusted.
        Zero numerators are dropped, one gcd brings the rest to lowest
        terms, and pairs become ints when no imaginary part is left."""
        if gaussian:
            nums = {x: v for x, v in nums.items() if v[0] or v[1]}
            if not any(im for _, im in nums.values()):
                nums, gaussian = {x: re for x, (re, _) in nums.items()}, False
        else:
            nums = {x: v for x, v in nums.items() if v}
        parts = (p for v in nums.values() for p in v) if gaussian else nums.values()
        g = math.gcd(den, *parts) if den != 1 else 1
        if g != 1:
            den //= g
            if gaussian:
                nums = {x: (re // g, im // g) for x, (re, im) in nums.items()}
            else:
                nums = {x: v // g for x, v in nums.items()}
        return _make(group, True, nums, den, gaussian)

    # -- access ---------------------------------------------------------

    def items(self):
        """(x, amplitude) pairs in storage order: complex, or QComplex when exact."""
        if not self.exact:
            return self._terms.items()
        den = self._den
        return [(x, QComplex(Fraction(re, den), Fraction(im, den)))
                for x, (re, im) in self._pairs(1).items()]

    def amplitude(self, x):
        """Amplitude at x (zero of the right mode when absent)."""
        if not self.exact:
            return self._terms.get(x, 0j)
        if x not in self._terms:
            return _QZERO
        re, im = self._terms[x] if self.gaussian else (self._terms[x], 0)
        return QComplex(Fraction(re, self._den), Fraction(im, self._den))

    def numerators(self) -> tuple:
        """(den, {x: numerator}) of an exact element, for reading only; the
        numerators are (re, im) pairs when self.gaussian."""
        return self._den, self._terms

    @property
    def support(self) -> tuple:
        return tuple(sorted(self._terms, key=self.group.sort_key))

    @property
    def n_terms(self) -> int:
        return len(self._terms)

    @property
    def is_zero(self) -> bool:
        return not self._terms

    # -- mode conversion --------------------------------------------------

    def to_float(self) -> "AlgebraElement":
        if not self.exact:
            return self
        den = self._den
        try:  # int true division rounds correctly, as float(Fraction) does
            terms = {x: complex(re / den, im / den) for x, (re, im) in self._pairs(1).items()}
        except OverflowError:
            raise UsageError(_BEYOND_FLOATS) from None
        return _make(self.group, False, terms)

    # -- ring operations --------------------------------------------------

    def _align(self, other: "AlgebraElement"):
        if self.group != other.group:
            raise UsageError("operands live over different groups")
        if self.exact == other.exact:
            return self, other, self.exact
        return self.to_float(), other.to_float(), False

    def _pairs(self, k: int) -> dict:
        """The numerators times k as (re, im) pairs, whether or not gaussian."""
        if self.gaussian:
            return {x: (re * k, im * k) for x, (re, im) in self._terms.items()}
        return {x: (n * k, 0) for x, n in self._terms.items()}

    def __add__(self, other):
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        a, b, exact = self._align(other)
        if not exact:
            terms = dict(a._terms)
            for x, v in b._terms.items():
                terms[x] = terms[x] + v if x in terms else v
            return _make(a.group, False, {x: v for x, v in terms.items() if v != 0})
        # Numerators over lcm(L_a, L_b); zero sums drop out in from_numerators.
        den = math.lcm(a._den, b._den)
        ka, kb = den // a._den, den // b._den
        if a.gaussian or b.gaussian:
            terms = a._pairs(ka)
            for x, (re, im) in b._pairs(kb).items():
                s = terms.get(x, (0, 0))
                terms[x] = (s[0] + re, s[1] + im)
            return AlgebraElement.from_numerators(a.group, terms, den, True)
        terms = {x: n * ka for x, n in a._terms.items()}
        for x, n in b._terms.items():
            terms[x] = terms.get(x, 0) + n * kb
        return AlgebraElement.from_numerators(a.group, terms, den, False)

    def __sub__(self, other):
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        return self.__add__(-other)

    def __neg__(self):
        if not self.exact:
            return _make(self.group, False, {x: -v for x, v in self._terms.items()})
        terms = self._pairs(-1) if self.gaussian else {x: -n for x, n in self._terms.items()}
        return _make(self.group, True, terms, self._den, self.gaussian)

    def scale(self, c) -> "AlgebraElement":
        if self.exact:
            try:
                cc = _coerce_exact(c)
            except UsageError:
                return self.to_float().scale(complex(c))
            # c * f is the product delta_e(c) * f, in f's key order.
            return convolve(AlgebraElement(self.group, {self.group.identity: cc}, True), self)
        cc = complex(c)
        if cc == 0:
            return AlgebraElement.zero(self.group, exact=False)
        return _make(self.group, False, {x: v * cc for x, v in self._terms.items()})

    def __mul__(self, other):
        if isinstance(other, AlgebraElement):
            return convolve(self, other)
        if isinstance(other, (QComplex, Number)):
            return self.scale(other)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (QComplex, Number)):
            return self.scale(other)
        return NotImplemented

    def __eq__(self, other):
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        return (
            self.group == other.group
            and self.exact == other.exact
            and self._den == other._den
            and self._terms == other._terms
        )

    __hash__ = None

    def norm(self, weight: "Weight | None" = None):
        """Weighted l1 norm; exact (a Fraction) when every part is exact.

        A real exact element sums |n| * w(x) on ints while the weights are
        ints and divides by the denominator once.  From the first float
        weight on, the sum is a float built term by term in storage order,
        with the bits a running sum of Fraction magnitudes would give.
        Other elements and weights take that running sum itself.
        """
        group, den = self.group, self._den
        if self.exact and not self.gaussian:
            if weight is None:
                return Fraction(sum(map(abs, self._terms.values())), den)
            total, exact = 0, True  # while exact, total is the numerator over den
            for x, n in self._terms.items():
                w = weight.value(group, x)
                if type(w) is int:
                    total = total + abs(n) * w if exact else total + abs(n) * w / den
                elif type(w) is float:
                    total = (total / den if exact else total) + abs(n) / den * w
                    exact = False
                else:
                    break
            else:
                return Fraction(total, den) if exact else total
        total = Fraction(0) if self.exact else 0.0
        for x, v in self.items():
            mag = abs(v)
            total = total + (mag if weight is None else mag * weight.value(group, x))
        return total

    def __repr__(self):
        mode = "exact" if self.exact else "float"
        return f"AlgebraElement({self.group!r}, {self.n_terms} terms, {mode})"


def delta(group: GroupSpec, x, amplitude=1, *, exact: bool = False) -> AlgebraElement:
    """The point mass amplitude * delta_x."""
    group.validate(x)
    return AlgebraElement(group, {x: amplitude}, exact)


def identity_element(group: GroupSpec, *, exact: bool = False) -> AlgebraElement:
    """delta(group, group.identity, 1, exact=exact), built from its storage."""
    return _make(group, exact, {group.identity: 1 if exact else 1 + 0j})


# The product loops of convolve and of the Neumann series: each adds every
# product h(x) f(y) into acc at mul(x, y), in x-then-y order, from (x, value)
# pairs of h and f.


def _float_products(mul, acc: dict, hitems, fitems) -> None:
    """Complex products; an unset slot, or one holding None, takes the product as it is."""
    get = acc.get
    fitems = list(fitems)
    for x, hv in hitems:
        for y, fv in fitems:
            z = mul(x, y)
            prod = hv * fv
            cur = get(z)
            acc[z] = prod if cur is None else cur + prod


def _int_products(mul, acc: dict, hitems, fitems) -> None:
    """Int numerator products."""
    get = acc.get
    fitems = list(fitems)
    for x, hn in hitems:
        for y, fn in fitems:
            z = mul(x, y)
            acc[z] = get(z, 0) + hn * fn


def _gaussian_products(mul, acc: dict, hitems, fitems) -> None:
    """Gaussian-int numerator products, as (re, im) pairs."""
    get = acc.get
    fterms = [(y, fr, fi) for y, (fr, fi) in fitems]
    for x, (hr, hi) in hitems:
        for y, fr, fi in fterms:
            z = mul(x, y)
            re, im = get(z, (0, 0))
            acc[z] = (re + hr * fr - hi * fi, im + hr * fi + hi * fr)


def convolve(h: AlgebraElement, f: AlgebraElement) -> AlgebraElement:
    """(h*f)(z) = sum_y h(z y^-1) f(y); exact in exact mode, keyed in x-then-y order.

    The exact product adds plain int numerators (Gaussian-int pairs when
    some imaginary part is nonzero) over L_h * L_f, and one gcd over the
    result brings it to lowest terms.
    """
    a, b, exact = h._align(f)
    group, acc = a.group, {}
    if not exact:
        _float_products(group.mul, acc, a._terms.items(), b._terms.items())
        return _make(group, False, {z: v for z, v in acc.items() if v != 0})
    gaussian = a.gaussian or b.gaussian
    if gaussian:
        _gaussian_products(group.mul, acc, a._pairs(1).items(), b._pairs(1).items())
    else:
        _int_products(group.mul, acc, a._terms.items(), b._terms.items())
    return AlgebraElement.from_numerators(group, acc, a._den * b._den, gaussian)


def _minus_identity(prod: AlgebraElement) -> AlgebraElement:
    """prod - identity_element(prod.group, exact=prod.exact), with the same
    storage, key order and float bits, made in prod's own storage: prod must
    be a fresh product (convolve's) that nothing else holds.

    As in __add__, the identity's term adds -(1+0j) (float) or loses the
    denominator L from its numerator (exact) where it stands, is appended
    last when prod has none, and is dropped when it becomes 0.  No gcd is
    needed: prod is in lowest terms, and a prime dividing L and n - L (or,
    the term gone, n = L) divides n.  No imaginary part changes, and a
    product with none left is already stored as ints (from_numerators).
    """
    terms, one, den = prod._terms, prod.group.identity, prod._den
    if not prod.exact:
        v, zero = (terms[one] + -(1 + 0j) if one in terms else -(1 + 0j)), 0
    elif prod.gaussian:
        re, im = terms.get(one, (0, 0))
        v, zero = (re - den, im), (0, 0)
    else:
        v, zero = terms.get(one, 0) - den, 0
    if v != zero:
        terms[one] = v
    else:
        del terms[one]
    return prod


# ---------------------------------------------------------------------------
# JSON


def _ratio_text(n: int, d: int) -> str:
    """str(Fraction(n, d)) for a positive d, without building the Fraction."""
    g = math.gcd(n, d)
    try:
        return str(n // g) if g == d else f"{n // g}/{d // g}"
    except ValueError:  # an int past the interpreter's digit limit for str()
        raise UsageError("an exact value has too many digits to write out") from None


def _amp_to_json(v, exact: bool):
    if exact:
        return {"re": _ratio_text(*v.re.as_integer_ratio()),
                "im": _ratio_text(*v.im.as_integer_ratio())}
    return {"re": v.real, "im": v.imag}


def element_to_json(f: AlgebraElement) -> dict:
    group, den, amps = f.group, f._den, f._terms
    terms = []
    for x in f.support:
        v = amps[x]
        if not f.exact:
            re, im = v.real, v.imag
        elif f.gaussian:
            re, im = _ratio_text(v[0], den), _ratio_text(v[1], den)
        else:
            re, im = _ratio_text(v, den), "0"
        terms.append({"x": group.element_to_json(x), "re": re, "im": im})
    return {
        "group": group.to_json(),
        "scalars": "exact" if f.exact else "float",
        "terms": terms,
    }


# JSON leaves, kept without a call: to_jsonable maps each to_json payload.
_JSON_SCALARS = frozenset((str, int, float, bool, type(None)))


def _leaf_to_json(v):
    """The JSON value of a leaf json cannot encode: the one encoding of every
    galab payload.  Fractions become strings like "-1/4", complex and
    QComplex amplitudes {re, im} objects, and elements element_to_json
    objects; any other object is refused with TypeError, as json refuses it.
    """
    if isinstance(v, Fraction):
        return _ratio_text(*v.as_integer_ratio())
    if isinstance(v, (complex, QComplex)):
        return _amp_to_json(v, isinstance(v, QComplex))
    if isinstance(v, AlgebraElement):
        return element_to_json(v)
    raise TypeError(f"Object of type {type(v).__name__} is not JSON serializable")


def to_jsonable(v):
    """v as JSON values: dicts and lists are mapped, tuples become lists,
    leaves json cannot encode go through _leaf_to_json, and anything else is
    kept as it is."""
    if isinstance(v, dict):
        return {k: x if type(x) in _JSON_SCALARS else to_jsonable(x) for k, x in v.items()}
    if isinstance(v, (tuple, list)):
        return [x if type(x) in _JSON_SCALARS else to_jsonable(x) for x in v]
    if isinstance(v, (Fraction, complex, QComplex, AlgebraElement)):
        return _leaf_to_json(v)
    return v


# Sorted keys, no whitespace, no NaN; json writes dicts, lists and tuples
# itself and calls _leaf_to_json only for the leaves it cannot encode.
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"), allow_nan=False,
                            default=_leaf_to_json)


def canonical_json(payload) -> str:
    """The canonical text of a payload: sorted keys, no whitespace, a final newline.

    It is encoded in one pass.  NaN and infinities are not JSON, so a
    payload holding one is refused.
    """
    try:
        text = _ENCODER.encode(payload)
    except UsageError:  # an exact value too long to write out (_ratio_text)
        raise
    except ValueError:
        raise UsageError("a report value left the float range, so the report is not JSON") from None
    return text + "\n"


def element_from_json(obj: dict) -> AlgebraElement:
    """Parse an element and the group it embeds; rationals may arrive as strings like "1/4"."""
    from .groups import spec_from_json

    if not isinstance(obj, dict) or "terms" not in obj:
        raise UsageError(f"not an algebra element description: {obj!r}")
    if "group" not in obj:
        raise UsageError("element description lacks a group")
    group = spec_from_json(obj["group"])
    raw = obj["terms"]
    if not isinstance(raw, list):
        raise UsageError(f"'terms' must be a list of term objects, got {raw!r}")
    for t in raw:
        if not isinstance(t, dict) or "x" not in t:
            raise UsageError(f"malformed term {t!r}: expected an object with an 'x' field")
    if "scalars" in obj:
        exact = obj["scalars"] == "exact"
        if not exact and obj["scalars"] != "float":
            raise UsageError(f"'scalars' must be \"exact\" or \"float\", got {obj['scalars']!r}")
    else:
        # Undeclared: exact when some amplitude is written as a string.
        exact = any(isinstance(t.get("re"), str) or isinstance(t.get("im"), str) for t in raw)
    terms = {}
    for t in raw:
        x = group.element_from_json(t["x"])
        re = t.get("re", 0)
        im = t.get("im", 0)
        if exact:
            amp = QComplex(_fraction(re), _fraction(im))
        else:
            amp = complex(_finite_float(re), _finite_float(im))
        if x in terms:
            terms[x] = terms[x] + amp
        else:
            terms[x] = amp
    return AlgebraElement(group, terms, exact)
