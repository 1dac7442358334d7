"""Implications that hold for every element, checked across oracles on seeded draws.

Each test pairs two oracles that decide the same question by different
arithmetic, and asserts that they never disagree.

    PYTHONPATH=src python -m pytest -q tests/test_consistency.py
"""

import cmath
import math
import random
from fractions import Fraction

from galab import invertibility
from galab.algebra import AlgebraElement, QComplex, convolve, delta
from galab.errors import ContractViolationError
from galab.groups import LatticeGroup, ball, cyclic_group
from galab.invertibility import invert_finite, probe_quotients
from galab.weights import (Character, ConstantWeight, ExpDirectionalWeight, ExpSymmetricWeight,
                           ProductWeight, QuotientWeight, TableWeight, dominate_character,
                           rescale_by_character)

Z = LatticeGroup(1)
MODULI = range(2, 13)


def _small_integer_element(rng):
    """A few small integer amplitudes on [-6, 6], half the time times 1 - z^j or
    1 + z^j, so that many pushforwards vanish at a character of C_m."""
    f = AlgebraElement(Z, {(rng.randrange(-6, 7),): QComplex.of(rng.randrange(-3, 4))
                           for _ in range(rng.randrange(1, 5))}, True)
    if rng.random() < 0.5:
        j = rng.randrange(1, 7)
        f = convolve(f, delta(Z, (0,), exact=True)
                     + delta(Z, (j,), rng.choice((-1, 1)), exact=True))
    return f


def _pushforward(f, m):
    """f pushed to Z / mZ = cyclic_group(m): the amplitudes summed by x mod m."""
    terms = {}
    for (x,), amp in f.items():
        terms[x % m] = terms.get(x % m, Fraction(0)) + amp.re
    return AlgebraElement(cyclic_group(m), terms, True)


def test_a_quotient_is_singular_in_probe_quotients_exactly_when_invert_finite_says_so(
        monkeypatch):
    # probe_quotients decides singularity by a float symbol test; invert_finite
    # decides it by exact elimination of one coset block, smaller than C_m
    # when the pushforward's support generates a proper subgroup.
    blocks = []
    solve = invertibility._solve_exact

    def spy(mat, gaussian):
        blocks.append(len(mat))
        return solve(mat, gaussian)

    monkeypatch.setattr(invertibility, "_solve_exact", spy)
    rng = random.Random(8)
    singular = agreed = proper = 0
    for _ in range(400):
        f = _small_integer_element(rng)
        if f.is_zero:
            continue
        for probe, m in zip(probe_quotients(f, MODULI).probes, MODULI):
            blocks.clear()
            exact = invert_finite(_pushforward(f, m))
            assert (not probe.nonsingular) == (exact.verdict == "not-invertible"), (f, m)
            singular += not probe.nonsingular
            proper += blocks[0] < m
            agreed += 1
    assert agreed >= 4000 and 1000 <= singular <= agreed - 1000 and proper >= 1000


def _float_element(rng, m):
    """A float element of Z supported on [0, m), so its pushforward to C_m has
    the same l1 norm.  Half are small integer amplitudes (many with a zero
    symbol value); half have quotient symbol (t, 1, ..., 1) times a random
    character, with t midway between SINGULAR_TOL times the block's largest
    singular value, 1, and SINGULAR_TOL * |f|_1, where only a zero test
    relative to |f|_1 calls the quotient singular."""
    if m == 2 or rng.random() < 0.5:  # on C2, |f|_1 is the largest singular value
        support = rng.sample(range(m), rng.randrange(1, m + 1))
        return {x: float(rng.randrange(-3, 4)) for x in support}
    norm = 2 * (m - 1) / m  # |f|_1 as t tends to 0
    t = invertibility.SINGULAR_TOL * (1 + norm) / 2
    j = rng.randrange(m)
    return {x: ((t - 1) / m + (x == 0)) * cmath.exp(2j * cmath.pi * j * x / m) for x in range(m)}


def test_a_float_quotient_is_singular_in_probe_quotients_exactly_when_float_invert_finite_says_so():
    # probe_quotients tests the least |symbol| of C_m, float invert_finite the
    # least singular value of one block; on C_m these are the same number, and
    # both are zero by one test.
    rng = random.Random(34)
    singular = gap = total = 0
    for m in MODULI:
        for _ in range(40):
            terms = {x: amp for x, amp in _float_element(rng, m).items() if amp}
            if not terms:
                continue
            f = AlgebraElement(Z, {(x,): amp for x, amp in terms.items()}, False)
            probe = probe_quotients(f, [m]).probes[0]
            finite = invert_finite(AlgebraElement(cyclic_group(m), terms, False))
            assert (not probe.nonsingular) == (finite.verdict == "not-invertible"), (m, terms)
            singular += not probe.nonsingular
            gap += not probe.nonsingular and probe.min_modulus > invertibility.SINGULAR_TOL
            total += 1
    assert gap >= 150 and 200 <= singular <= total - 100


def test_the_near_threshold_c4_element_is_refuted_by_both_float_oracles():
    # f^ = (1.2e-12, 1, 1, 1): below SINGULAR_TOL * |f|_1 = 1.5e-12, above
    # SINGULAR_TOL times the largest singular value, 1.
    a, b = 0.7500000000003, -0.2499999999997
    f = AlgebraElement(Z, {(0,): a, (1,): b, (2,): b, (3,): b}, False)
    assert probe_quotients(f, [4]).any_singular
    finite = invert_finite(AlgebraElement(cyclic_group(4), {0: a, 1: b, 2: b, 3: b}, False))
    assert finite.verdict == "not-invertible"
    assert finite.fields["kernel_residual"] < 1e-11


def _near_character(rng):
    """(weight, group, radius, a) on Z, Z^2 or Z^3: the character exp(<a, x>)
    as a weight; a table of it with log surpluses or deficits drawn up to
    eps |x|_2, eps in {0, 1e-13, ..., 1e-10}; it, or 8^|x|, times a constant
    below 1, which puts w(e) below 1 (by less than the rounding for
    1 - 1e-15); or it as a quotient or a product of characters whose
    coefficients, of size 10-50, cancel down to a."""
    d = rng.randint(1, 3)
    group, radius = LatticeGroup(d), rng.randint(1, (40, 8, 3)[d - 1])
    a = tuple(rng.uniform(-2, 2) for _ in range(d))
    character = ExpDirectionalWeight(a, rectified=False)
    kind = rng.randrange(4)
    if kind == 0:
        return character, group, radius, a
    if kind == 1:
        eps = rng.choice((0, 1e-13, 1e-12, 1e-11, 1e-10)) * rng.choice((-1, 1))
        return TableWeight({x: math.exp(sum(ai * xi for ai, xi in zip(a, x))
                                        + rng.uniform(0, eps) * math.hypot(*x))
                            for x in ball(group, radius)}), group, radius, a
    if kind == 2:
        below = ConstantWeight(rng.choice((0.5, 1 - 1e-6, 1 - 1e-15)))
        return (ProductWeight([rng.choice((character, ExpSymmetricWeight(8))), below]),
                group, radius, a)
    b = tuple(rng.choice((-1, 1)) * rng.uniform(10, 50) for _ in range(d))
    top = ExpDirectionalWeight([ai + bi for ai, bi in zip(a, b)], rectified=False)
    weight = rng.choice((QuotientWeight(top, Character(b)), ProductWeight(
        [top, ExpDirectionalWeight([-bi for bi in b], rectified=False)])))
    return weight, group, min(radius, int(600 / sum(map(abs, b)))), a


def test_dominate_character_is_feasible_exactly_when_rescale_by_character_accepts_it():
    # phi <= w is one rule in both: dominate_character reads it at the c it
    # finds, rescale_by_character at the c it is given, the identity included.
    # An infeasible ball has no character, so rescale_by_character gets the
    # one the weight was drawn around; none can pass when the best c fails.
    rng = random.Random(5)
    feasible = infeasible = 0
    for _ in range(400):
        weight, group, radius, a = _near_character(rng)
        result = dominate_character(weight, group, radius)
        character = result.character if result.feasible else Character(a)
        window = ball(group, radius)
        try:
            rescale_by_character(weight, character, delta(group, group.identity), window)
        except ContractViolationError:
            assert not result.feasible, (weight.to_json(), radius)
            infeasible += 1
        else:
            assert result.feasible, (weight.to_json(), radius)
            feasible += 1
    assert feasible >= 100 and infeasible >= 100
