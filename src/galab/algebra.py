"""Finitely supported group-algebra elements.

An AlgebraElement is a finite formal sum of group elements with scalar
amplitudes.  Two scalar modes exist: ordinary complex floats, and exact
Gaussian rationals (QComplex, a pair of fractions).  Mixing modes in an
operation silently demotes to floats, like Python's own numeric tower;
exact-mode arithmetic never rounds.

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
    if isinstance(v, (int, str, float)):
        try:
            return Fraction(v)
        except (ValueError, OverflowError, ZeroDivisionError):
            pass  # "abc", "1/0", nan and inf name no rational
    raise UsageError(f"cannot interpret {v!r} as an exact rational")


def _finite_float(v) -> float:
    """A float amplitude part from JSON: a number, or a rational string like "1/4"."""
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


class AlgebraElement:
    """Finite formal sum over a group, with float or exact rational amplitudes."""

    __slots__ = ("group", "exact", "_terms")

    def __init__(self, group: GroupSpec, terms: Mapping, exact: bool, *, _clean: bool = False):
        if _clean:
            self.group = group
            self.exact = exact
            self._terms = dict(terms)
            return
        cleaned = {}
        for x, v in terms.items():
            group.validate(x)
            if exact:
                amp = _coerce_exact(v)
                if not amp.is_zero:
                    cleaned[x] = amp
            else:
                amp = complex(v)
                if amp != 0:
                    cleaned[x] = amp
        self.group = group
        self.exact = exact
        self._terms = cleaned

    # -- constructors --------------------------------------------------

    @staticmethod
    def zero(group: GroupSpec, *, exact: bool = False) -> "AlgebraElement":
        return AlgebraElement(group, {}, exact, _clean=True)

    # -- access ---------------------------------------------------------

    def items(self):
        return self._terms.items()

    def amplitude(self, x):
        """Amplitude at x (zero of the right mode when absent)."""
        if x in self._terms:
            return self._terms[x]
        return _QZERO if self.exact else 0j

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
        try:
            terms = {x: complex(v) for x, v in self._terms.items()}
        except OverflowError:
            raise UsageError(_BEYOND_FLOATS) from None
        return AlgebraElement(self.group, terms, False, _clean=True)

    # -- ring operations --------------------------------------------------

    def _align(self, other: "AlgebraElement"):
        if self.group != other.group:
            raise UsageError("operands live over different groups")
        if self.exact == other.exact:
            return self, other, self.exact
        return self.to_float(), other.to_float(), False

    def __add__(self, other):
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        a, b, exact = self._align(other)
        terms = dict(a._terms)
        for x, v in b._terms.items():
            s = terms.get(x)
            s = v if s is None else s + v
            if (s.is_zero if exact else s == 0):
                terms.pop(x, None)
            else:
                terms[x] = s
        return AlgebraElement(a.group, terms, exact, _clean=True)

    def __sub__(self, other):
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        return self.__add__(-other)

    def __neg__(self):
        return AlgebraElement(
            self.group, {x: -v for x, v in self._terms.items()}, self.exact, _clean=True
        )

    def scale(self, c) -> "AlgebraElement":
        if self.exact:
            try:
                cc = _coerce_exact(c)
            except UsageError:
                return self.to_float().scale(complex(c))
            if cc.is_zero:
                return AlgebraElement.zero(self.group, exact=True)
            terms = {x: v * cc for x, v in self._terms.items()}
            return AlgebraElement(self.group, terms, True, _clean=True)
        cc = complex(c)
        if cc == 0:
            return AlgebraElement.zero(self.group, exact=False)
        return AlgebraElement(
            self.group, {x: v * cc for x, v in self._terms.items()}, False, _clean=True
        )

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
            and self._terms == other._terms
        )

    __hash__ = None

    def norm(self, weight: "Weight | None" = None):
        """Weighted l1 norm; exact (a Fraction) when every part is exact."""
        total = Fraction(0) if self.exact else 0.0
        for x, v in self._terms.items():
            mag = v.magnitude() if self.exact else abs(v)
            if weight is not None:
                mag = mag * weight.value(self.group, x)
            total = total + mag
        return total

    def __repr__(self):
        mode = "exact" if self.exact else "float"
        return f"AlgebraElement({self.group!r}, {self.n_terms} terms, {mode})"


def delta(group: GroupSpec, x, amplitude=1, *, exact: bool = False) -> AlgebraElement:
    """The point mass amplitude * delta_x."""
    group.validate(x)
    return AlgebraElement(group, {x: amplitude}, exact)


def identity_element(group: GroupSpec, *, exact: bool = False) -> AlgebraElement:
    return delta(group, group.identity, 1, exact=exact)


def clear_denominators(values) -> tuple:
    """(L, parts): L is the LCM of the QComplex values' denominators and
    parts[i] = (re, im) is values[i] times L, as a pair of ints."""
    ratios = [(v.re.as_integer_ratio(), v.im.as_integer_ratio()) for v in values]
    lcm = math.lcm(*(d for pair in ratios for _, d in pair))
    return lcm, [(rn * (lcm // rd), jn * (lcm // jd)) for (rn, rd), (jn, jd) in ratios]


def _convolve_exact(mul, h: dict, f: dict) -> dict:
    """Nonzero terms of the exact product h*f, keyed in x-then-y order.

    Each operand is scaled once by the LCM of its denominators, so the
    double loop adds plain int products (Gaussian-int pairs when some
    imaginary part is nonzero), and each output term becomes a Fraction
    over L_h * L_f once, at the end.
    """
    lh, hparts = clear_denominators(h.values())
    lf, fparts = clear_denominators(f.values())
    den = lh * lf
    acc: dict = {}
    if any(im for _, im in hparts) or any(im for _, im in fparts):
        fterms = [(y, fr, fi) for y, (fr, fi) in zip(f, fparts)]
        for x, (hr, hi) in zip(h, hparts):
            for y, fr, fi in fterms:
                z = mul(x, y)
                re, im = acc.get(z, (0, 0))
                acc[z] = (re + hr * fr - hi * fi, im + hr * fi + hi * fr)
        return {z: QComplex(Fraction(re, den), Fraction(im, den))
                for z, (re, im) in acc.items() if re or im}
    fterms = [(y, fr) for y, (fr, _) in zip(f, fparts)]
    for x, (hr, _) in zip(h, hparts):
        for y, fr in fterms:
            z = mul(x, y)
            acc[z] = acc.get(z, 0) + hr * fr
    return {z: QComplex(Fraction(n, den)) for z, n in acc.items() if n}


def convolve(h: AlgebraElement, f: AlgebraElement) -> AlgebraElement:
    """(h*f)(z) = sum_y h(z y^-1) f(y); exact in exact mode."""
    a, b, exact = h._align(f)
    group = a.group
    mul = group.mul
    if exact:
        return AlgebraElement(group, _convolve_exact(mul, a._terms, b._terms), True, _clean=True)
    acc: dict = {}
    for x, av in a._terms.items():
        for y, bv in b._terms.items():
            z = mul(x, y)
            prod = av * bv
            cur = acc.get(z)
            acc[z] = prod if cur is None else cur + prod
    acc = {z: v for z, v in acc.items() if v != 0}
    return AlgebraElement(group, acc, False, _clean=True)


# ---------------------------------------------------------------------------
# JSON


def _rational_text(q: Fraction) -> str:
    try:
        return str(q)
    except ValueError:  # an int past the interpreter's digit limit for str()
        raise UsageError("an exact value has too many digits to write out") from None


def _amp_to_json(v, exact: bool):
    if exact:
        return {"re": _rational_text(v.re), "im": _rational_text(v.im)}
    return {"re": v.real, "im": v.imag}


def element_to_json(f: AlgebraElement) -> dict:
    group = f.group
    terms = []
    for x in f.support:
        entry = {"x": group.element_to_json(x)}
        entry.update(_amp_to_json(f._terms[x], f.exact))
        terms.append(entry)
    return {
        "group": group.to_json(),
        "scalars": "exact" if f.exact else "float",
        "terms": terms,
    }


# JSON leaves, kept without a call: canonical_json walks each to_json result again.
_JSON_SCALARS = frozenset((str, int, float, bool, type(None)))


def to_jsonable(v):
    """v as JSON values: the one encoding of every galab payload.

    Fractions become strings like "-1/4", complex and QComplex amplitudes
    {re, im} objects, tuples lists, and elements element_to_json objects;
    dicts and lists are mapped, and anything else is kept as it is.
    """
    if isinstance(v, dict):
        return {k: x if type(x) in _JSON_SCALARS else to_jsonable(x) for k, x in v.items()}
    if isinstance(v, (tuple, list)):
        return [x if type(x) in _JSON_SCALARS else to_jsonable(x) for x in v]
    if isinstance(v, Fraction):
        return _rational_text(v)
    if isinstance(v, (complex, QComplex)):
        return _amp_to_json(v, isinstance(v, QComplex))
    if isinstance(v, AlgebraElement):
        return element_to_json(v)
    return v


def canonical_json(payload) -> str:
    """The canonical text of a payload: sorted keys, no whitespace, a final newline.

    NaN and infinities are not JSON, so a payload holding one is refused.
    """
    payload = to_jsonable(payload)
    try:
        text = json.dumps(payload, sort_keys=True, separators=(",", ":"), allow_nan=False)
    except ValueError:
        raise UsageError("a report value left the float range, so the report is not JSON") from None
    return text + "\n"


def element_from_json(obj: dict, group: GroupSpec | None = None) -> AlgebraElement:
    """Parse an element; rationals may arrive as strings like "1/4"."""
    from .groups import spec_from_json

    if not isinstance(obj, dict) or "terms" not in obj:
        raise UsageError(f"not an algebra element description: {obj!r}")
    if group is None:
        if "group" not in obj:
            raise UsageError("element description lacks a group and none was supplied")
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
