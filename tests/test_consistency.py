"""Implications that hold for every element, checked across oracles on seeded draws.

Each test pairs two oracles that decide the same question by different
arithmetic, and asserts that they never disagree.

    PYTHONPATH=src python -m pytest -q tests/test_consistency.py
"""

import random
from fractions import Fraction

from galab import invertibility
from galab.algebra import AlgebraElement, QComplex, convolve, delta
from galab.groups import LatticeGroup, cyclic_group
from galab.invertibility import invert_finite, probe_quotients

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
