import cmath
import math
import random
from collections.abc import Mapping
from fractions import Fraction

import numpy as np
import pytest

from galab.algebra import AlgebraElement, QComplex, convolve, delta
from galab.errors import UsageError
from galab.groups import LatticeGroup, dihedral_group
from galab.operators import (
    action_matrix,
    apply_convolution_action,
    conjugation_deviation,
    fourier_eval,
    input_window,
    pairing,
    symbol_grid,
)
from galab.weights import ConstantWeight, ExpSymmetricWeight, PolynomialWeight

Z = LatticeGroup(1)
Z2 = LatticeGroup(2)


def rand_elt(rng, group, radius, n):
    pts = list(group.ball(radius))
    return AlgebraElement(
        group,
        {rng.choice(pts): complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(n)},
        False,
    )


def test_input_window_covers_reads():
    f = delta(Z, (2,)) + delta(Z, (-1,))
    win = Z.ball(1)
    full = input_window(f, win)
    assert full.elements == ((-2,), (-1,), (0,), (1,), (2,), (3,))


def test_action_on_window_shift():
    # f = d_1 acts as a shift: (rho_f g)(x) = g(x+1)
    f = delta(Z, (1,))
    g = {(x,): float(x * x) for x in range(-4, 5)}
    out = apply_convolution_action(f, g, Z.ball(3))
    for x in range(-3, 4):
        assert out[(x,)] == (x + 1) ** 2


def test_action_missing_point_is_reported():
    f = delta(Z, (1,))
    with pytest.raises(UsageError, match=r"\(4,\)"):
        apply_convolution_action(f, {(x,): 1.0 for x in range(-3, 4)}, Z.ball(3))


def test_exact_action_missing_point_is_reported():
    f = delta(Z, (0,), 1, exact=True) - delta(Z, (1,), 1, exact=True)
    with pytest.raises(UsageError, match=r"\(4,\)"):
        apply_convolution_action(f, {(x,): 1 for x in range(-3, 4)}, Z.ball(3))


def _reference_action(f, g, window, weight=None):
    """The per-product loop apply_convolution_action ran before its integer kernel."""
    group = window.group
    mul = group.mul
    out = {}
    for x in window:
        total = 0
        for y, amp in f.items():
            xy = mul(x, y)
            val = (g[xy] if isinstance(g, Mapping) else g(xy)) * amp
            if weight is not None:
                val = complex(val) * (weight.value(group, xy) / weight.value(group, x))
            total = total + val
        out[x] = total
    return out


def _assert_same_action(got, want):
    assert list(got) == list(want)
    for x, w in want.items():
        v = got[x]
        assert type(v) is type(w), x
        if isinstance(w, QComplex):
            assert (type(v.re), type(v.im)) == (type(w.re), type(w.im)), x
            assert (v.re, v.im) == (w.re, w.im), x
        elif isinstance(w, complex):
            assert (v.real.hex(), v.imag.hex()) == (w.real.hex(), w.imag.hex()), x
        else:
            assert v == w, x


def _rational(rng):
    return Fraction(rng.randint(-9, 9), rng.randint(1, 6))


_G_VALUES = {
    "int": lambda rng: rng.randint(-5, 5),
    "fraction": _rational,
    "qcomplex": lambda rng: QComplex(_rational(rng), _rational(rng)),
    "float": lambda rng: rng.uniform(-2, 2),
    "complex": lambda rng: complex(rng.uniform(-2, 2), rng.uniform(-2, 2)),
}
_G_VALUES["mixed"] = lambda rng: rng.choice(list(_G_VALUES.values()))(rng)


def _action_case(group_name, f_kind, rng):
    if group_name == "Z":
        group, window = Z, Z.ball(4)
    elif group_name == "Z2":
        group, window = Z2, Z2.ball(2)
    else:
        group = dihedral_group(4)
        window = group.ball(1)
    pts = list(group.ball(2)) if isinstance(group, LatticeGroup) else list(range(group.order))
    support = rng.sample(pts, 4)
    if f_kind == "real":
        f = AlgebraElement(group, {y: _rational(rng) for y in support}, True)
    elif f_kind == "gaussian":
        f = AlgebraElement(group, {y: QComplex(_rational(rng), _rational(rng))
                                   for y in support}, True)
    else:
        f = AlgebraElement(group, {y: complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
                                   for y in support}, False)
    return f, window


@pytest.mark.parametrize("weighted", [False, True])
@pytest.mark.parametrize("as_mapping", [True, False])
@pytest.mark.parametrize("g_kind", sorted(_G_VALUES))
@pytest.mark.parametrize("f_kind", ["real", "gaussian", "float"])
@pytest.mark.parametrize("group_name", ["Z", "Z2", "D4"])
def test_action_matches_the_per_product_loop(group_name, f_kind, g_kind, as_mapping, weighted):
    rng = random.Random(f"{group_name}:{f_kind}:{g_kind}")
    f, window = _action_case(group_name, f_kind, rng)
    values = {z: _G_VALUES[g_kind](rng) for z in input_window(f, window)}
    g = values if as_mapping else values.__getitem__
    weight = PolynomialWeight(1) if weighted else None
    _assert_same_action(apply_convolution_action(f, g, window, weight),
                        _reference_action(f, g, window, weight))


def test_exact_action_of_zero_matches_the_per_product_loop():
    f = AlgebraElement.zero(Z, exact=True)
    g = {x: 1 for x in Z.ball(2)}
    _assert_same_action(apply_convolution_action(f, g, Z.ball(2)),
                        _reference_action(f, g, Z.ball(2)))


def test_weighted_action_frozen_values():
    """Shift under w(n) = 2^|n| picks up the ratio w(x+1)/w(x)."""
    f = delta(Z, (1,))
    w = ExpSymmetricWeight(2)
    g = {(x,): 1.0 for x in range(-4, 5)}
    out = apply_convolution_action(f, g, Z.ball(3), w)
    for x in range(-3, 4):
        expected = 2.0 if x >= 0 else 0.5
        assert out[(x,)] == pytest.approx(expected)


def test_weighted_action_matrix_entries():
    f = delta(Z, (1,))
    w = ExpSymmetricWeight(2)
    op = action_matrix(f, Z.ball(2), w)
    i = op.window.position((-1,))
    j = op.input_window.position((0,))
    assert op.matrix[i, j] == pytest.approx(0.5)
    i = op.window.position((0,))
    j = op.input_window.position((1,))
    assert op.matrix[i, j] == pytest.approx(2.0)


def test_unweighted_matrix_is_bidiagonal_for_two_term_filter():
    f = delta(Z, (0,)) + delta(Z, (1,))
    op = action_matrix(f, Z.ball(2))
    for i, x in enumerate(op.window):
        row = op.matrix[i]
        nz = {op.input_window.elements[j] for j in np.flatnonzero(np.abs(row) > 0)}
        assert nz == {x, (x[0] + 1,)}
        assert np.count_nonzero(np.abs(row)) == 2


def test_matrix_and_functional_routes_agree():
    rng = random.Random(4)
    for group, rad in ((Z, 4), (Z2, 2)):
        f = rand_elt(rng, group, 2, 4)
        win = group.ball(rad)
        op = action_matrix(f, win, PolynomialWeight(1))
        g = {x: complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for x in op.input_window}
        via_matrix = op.apply(g)
        direct = apply_convolution_action(f, g, win, PolynomialWeight(1))
        gap = max(
            abs(via_matrix[i] - complex(direct[x])) for i, x in enumerate(win)
        )
        assert gap <= 1e-14


def test_pairing_duality_small_case():
    # <h*f, g> == <h, rho_f g> with everything written out
    f = delta(Z, (1,), 2.0)
    h = delta(Z, (0,), 1.0) + delta(Z, (1,), 3.0)
    g = {(x,): float(2 * x + 1) for x in range(-3, 4)}
    lhs = pairing(convolve(h, f), g)
    acted = apply_convolution_action(f, g, Z.ball(2))
    rhs = pairing(h, acted)
    assert lhs == pytest.approx(rhs)
    assert lhs == pytest.approx(2 * 3 + 6 * 5)


def test_pairing_duality_random():
    rng = random.Random(9)
    for group in (Z, Z2):
        for _ in range(25):
            f = rand_elt(rng, group, 3, 4)
            h = rand_elt(rng, group, 3, 4)
            g = {x: complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for x in group.ball(6)}
            lhs = pairing(convolve(h, f), g)
            rhs = pairing(h, apply_convolution_action(f, g, group.ball(3)))
            scale = float(f.norm()) * float(h.norm()) * max(abs(v) for v in g.values())
            assert abs(lhs - rhs) <= 1e-10 * max(scale, 1.0)


def test_conjugation_deviation_small_for_real_weights():
    rng = random.Random(12)
    for group, w, rad in ((Z, ExpSymmetricWeight(2), 5), (Z2, PolynomialWeight(1), 3)):
        for _ in range(5):
            f = rand_elt(rng, group, 2, 3)
            assert conjugation_deviation(f, w, group.ball(rad)) <= 1e-12


def test_conjugation_deviation_exactly_zero_unweighted():
    rng = random.Random(13)
    f = rand_elt(rng, Z, 2, 3)
    assert conjugation_deviation(f, ConstantWeight(1), Z.ball(4)) == 0.0
    assert conjugation_deviation(f, None, Z.ball(4)) == 0.0


# ---------------------------------------------------------------------------
# Fourier side


def test_fourier_eval_against_direct_sum():
    f = delta(Z2, (1, 0), 2.0) + delta(Z2, (0, -1), 1j)
    theta = (0.3, -1.1)
    direct = 2.0 * cmath.exp(1j * 0.3) + 1j * cmath.exp(-1j * -1.1)
    assert fourier_eval(f, theta) == pytest.approx(direct)


def test_symbol_grid_matches_pointwise_evaluation():
    rng = random.Random(6)
    f = rand_elt(rng, Z, 5, 5)
    size = 16
    grid = symbol_grid(f, (size,))
    for k in range(size):
        direct = fourier_eval(f, (2 * math.pi * k / size,))
        assert abs(grid[k] - direct) <= 1e-12


def test_symbol_grid_rank2():
    rng = random.Random(8)
    f = rand_elt(rng, Z2, 2, 4)
    grid = symbol_grid(f, (8, 4))
    for k1 in range(8):
        for k2 in range(4):
            direct = fourier_eval(f, (2 * math.pi * k1 / 8, 2 * math.pi * k2 / 4))
            assert abs(grid[k1, k2] - direct) <= 1e-12
