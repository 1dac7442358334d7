"""Windowed realizations of convolution operators.

The right-convolution action of f on a bounded function g is
(act g)(x) = sum_y g(x*y) f(y); with a weight w the summand picks up the
ratio w(x*y)/w(x).  A window W of output points needs input values on
W_in = W*supp(f) union W; the input window is always enlarged to that set,
boundary values are never invented.  The same action can be materialized
as a dense |W| x |W_in| matrix for inspection and linear algebra.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping, Sequence

from .algebra import AlgebraElement, convolve, delta
from .errors import ResourceLimitError, UsageError
from .groups import LatticeGroup, Window, _integer
from .weights import Weight

if TYPE_CHECKING:
    import numpy as np

ENTRY_CAP = 10**7  # largest dense action matrix, in entries


def _reader(g):
    """The point -> value function of a window function given as a mapping
    or a callable; a mapping that misses a point raises UsageError naming it."""
    if isinstance(g, Mapping):
        getitem = g.__getitem__

        def read(x):
            try:
                return getitem(x)
            except KeyError:
                raise UsageError(f"function is missing the required point {x!r}") from None
        return read
    if callable(g):
        return g
    raise UsageError(f"cannot read values from {type(g).__name__}")


def input_window(f: AlgebraElement, window: Window) -> Window:
    """W * supp(f) union W: every point the action reads when writing on W."""
    if f.group != window.group:
        raise UsageError("element and window live over different groups")
    mul = window.group.mul
    pts = set(window.elements)
    support = f.support
    for x in window:
        for y in support:
            pts.add(mul(x, y))
    return Window(window.group, sorted(pts, key=window.group.sort_key))


def apply_convolution_action(f: AlgebraElement, g, window: Window,
                             weight: Weight | None = None) -> dict:
    """Apply the (weighted) action of f to g on the window; returns {x: value}.

    g must cover input_window(f, window); a mapping that misses a point
    raises UsageError naming it.  Each output is summed product by product
    in the scalars' own arithmetic: exact f and g keep it exact when no
    weight is involved, at one rational product per term and point.
    Unweighted, this is g * f~ with f~(y) = f(y^-1) (see algebra.convolve).
    """
    if f.group != window.group:
        raise UsageError("element and window live over different groups")
    group = window.group
    mul = group.mul
    read = _reader(g)
    terms = f.items()
    out = {}
    for x in window:
        total = 0
        for y, amp in terms:
            xy = mul(x, y)
            val = read(xy) * amp
            if weight is not None:
                val = complex(val) * (weight.value(group, xy) / weight.value(group, x))
            total = total + val
        out[x] = total
    return out


def pairing(h: AlgebraElement, g) -> complex:
    """Bilinear pairing sum_x h(x) g(x); no conjugation."""
    read = _reader(g)
    total = 0
    for x, amp in h.items():
        total = total + amp * read(x)
    return total


@dataclass
class WindowedOperator:
    """Dense matrix realization of the action on a window.

    matrix[i, j] holds the coefficient with which input point
    input_window[j] contributes to output point window[i]:
    (w(z)/w(x)) * f(x^-1 z) at x = window[i], z = input_window[j].
    """

    element: AlgebraElement
    window: Window
    input_window: Window
    matrix: np.ndarray
    weight: Weight | None = None

    def apply(self, g) -> np.ndarray:
        import numpy as np
        read = _reader(g)
        vec = np.array([complex(read(z)) for z in self.input_window])
        return self.matrix @ vec


def action_matrix(f: AlgebraElement, window: Window,
                  weight: Weight | None = None) -> WindowedOperator:
    """Materialize the windowed action as a dense complex matrix."""
    win_in = input_window(f, window)
    if len(window) * len(win_in) > ENTRY_CAP:
        raise ResourceLimitError(
            f"matrix would hold {len(window) * len(win_in)} entries, cap is {ENTRY_CAP}"
        )
    import numpy as np
    group = window.group
    mul = group.mul
    mat = np.zeros((len(window), len(win_in)), dtype=complex)
    for i, x in enumerate(window):
        wx = None if weight is None else weight.value(group, x)
        for y, amp in f.items():
            z = mul(x, y)
            c = complex(amp)
            if weight is not None:
                c *= weight.value(group, z) / wx
            mat[i, win_in.position(z)] += c
    return WindowedOperator(element=f, window=window, input_window=win_in,
                            matrix=mat, weight=weight)


def conjugation_deviation(f: AlgebraElement, weight: Weight | None, window: Window) -> float:
    """Max entry gap between the two constructions of the weighted action.

    Construction one: the direct weighted matrix (w-ratio formula).
    Construction two: transpose the right-convolution matrix built column
    by column from actual convolutions delta_x * f, then conjugate by the
    diagonal weight matrices.  The two agree exactly in exact arithmetic;
    the return value is the float deviation.
    """
    direct = action_matrix(f, window, weight)
    win_in = direct.input_window
    group = window.group
    import numpy as np
    # Right-convolution matrix on coefficients: column x holds delta_x * f.
    conv = np.zeros((len(win_in), len(window)), dtype=complex)
    for j, x in enumerate(window):
        col = convolve(delta(group, x, 1, exact=f.exact), f)
        for z, amp in col.items():
            conv[win_in.position(z), j] = complex(amp)
    if weight is None:
        w_out = np.ones(len(window))
        w_in = np.ones(len(win_in))
    else:
        w_out = np.array([float(weight.value(group, x)) for x in window])
        w_in = np.array([float(weight.value(group, z)) for z in win_in])
    conjugated = (conv.T * w_in[None, :]) / w_out[:, None]
    return float(np.max(np.abs(conjugated - direct.matrix)))


# ---------------------------------------------------------------------------
# Fourier side (lattices)


def fourier_eval(f: AlgebraElement, angles: Sequence[float]) -> complex:
    """Symbol value sum_n f(n) exp(i <n, angles>)."""
    if not isinstance(f.group, LatticeGroup):
        raise UsageError("fourier_eval needs a lattice element")
    if len(angles) != f.group.rank:
        raise UsageError(f"expected {f.group.rank} angles, got {len(angles)}")
    total = 0j
    for n, amp in f.items():
        phase = sum(ni * ti for ni, ti in zip(n, angles))
        total += complex(amp) * cmath.exp(1j * phase)
    return total


def symbol_grid(f: AlgebraElement, sizes: Sequence[int]) -> np.ndarray:
    """Symbol sampled on the uniform grid theta_j = 2 pi k_j / sizes_j.

    Returns an array of shape sizes; entry k equals the symbol at the
    frequencies 2 pi k / sizes, computed by an unscaled inverse FFT
    (norm="forward", so subnormal amplitudes survive) of the coefficient
    array folded modulo the grid.  The array is column-major (Fortran
    order), so the pass along axis 0 reads contiguous lines; its values,
    and its C-order .tobytes(), are those of the row-major transform.
    An element whose l1 norm overflows the float range is refused with
    UsageError: its samples, bounded only by that norm, would overflow too.
    """
    if not isinstance(f.group, LatticeGroup):
        raise UsageError("symbol_grid needs a lattice element")
    sizes = tuple(_integer(s, "grid size") for s in sizes)
    if len(sizes) != f.group.rank or any(s < 1 for s in sizes):
        raise UsageError(f"bad grid sizes {sizes!r} for rank {f.group.rank}")
    import numpy as np
    # The last axis is transformed first, and only the lines holding a term
    # are nonzero there: their terms are summed into one row-major block, one
    # row per line, which is transformed once and scattered into the grid.
    rows, cells, l1 = {}, [], 0.0
    for n, amp in f.items():
        idx = tuple(ni % s for ni, s in zip(n, sizes))
        amp = complex(amp)
        l1 += abs(amp)
        cells.append((rows.setdefault(idx[:-1], len(rows)), idx[-1], amp))
    if l1 == math.inf:
        raise UsageError("the element's l1 norm overflows the float range")
    block = np.zeros((len(rows), sizes[-1]), dtype=complex)
    for row, k, amp in cells:
        block[row, k] += amp
    np.fft.ifft(block, axis=-1, norm="forward", out=block)
    arr = np.zeros(sizes, dtype=complex, order="F")
    if rows:
        arr[tuple(zip(*rows))] = block
    # In place (numpy >= 2.0 FFTs take out=): no second grid is allocated.
    if len(sizes) > 1:
        np.fft.ifftn(arr, axes=tuple(range(len(sizes) - 1)), norm="forward", out=arr)
    return arr
