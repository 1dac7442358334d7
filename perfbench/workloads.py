"""Seeded query generators for the four benchmark workloads.

A query is a plain JSON-ready dict: an ``id``, a ``cat`` (category within
the workload), an ``op`` naming the public call path run.py times, the
JSON texts it decodes, the set of verdicts (or exit codes) that count as
correct, and ``defect`` -- the name of a known defect the query reproduces,
or None.  Nothing here imports galab: the inputs, and the finite group
tables inside them, are built by this module alone.

Each workload is a fixed design of query slots repeated in cycles and
shuffled within each cycle; a run measures whole cycles, so every run sees
the design's cost mix.  The same seed gives byte-identical query lists.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from fractions import Fraction

WORKLOADS = ("finite-exact", "lattice-fft", "series-weighted", "cli-readme")

INV, NOT, INC = "invertible", "not-invertible", "inconclusive"
REFUSED = "refused"


# ---------------------------------------------------------------------------
# finite group tables (independent of galab's constructors)


def cyclic_table(n):
    return [[(i + j) % n for j in range(n)] for i in range(n)]


def product_table(mods):
    order = math.prod(mods)

    def digits(i):
        out = []
        for m in reversed(mods):
            out.append(i % m)
            i //= m
        return out[::-1]

    def encode(ds):
        i = 0
        for d, m in zip(ds, mods):
            i = i * m + d % m
        return i

    dig = [digits(i) for i in range(order)]
    return [[encode([a + b for a, b in zip(dig[i], dig[j])]) for j in range(order)]
            for i in range(order)]


def dihedral_table(n):
    # index j*n + i is r^i s^j, with s r s = r^-1
    def mul(a, b):
        i1, j1, i2, j2 = a % n, a // n, b % n, b // n
        return ((j1 + j2) % 2) * n + (i1 + (i2 if j1 == 0 else -i2)) % n

    return [[mul(a, b) for b in range(2 * n)] for a in range(2 * n)]


def symmetric_table(n):
    perms = list(itertools.permutations(range(n)))
    index = {p: i for i, p in enumerate(perms)}
    return [[index[tuple(p[q[x]] for x in range(n))] for q in perms] for p in perms]


def quaternion_table():
    units = [(1, 0, 0, 0), (-1, 0, 0, 0), (0, 1, 0, 0), (0, -1, 0, 0),
             (0, 0, 1, 0), (0, 0, -1, 0), (0, 0, 0, 1), (0, 0, 0, -1)]
    index = {q: i for i, q in enumerate(units)}

    def ham(p, q):
        a1, b1, c1, d1 = p
        a2, b2, c2, d2 = q
        return (a1 * a2 - b1 * b2 - c1 * c2 - d1 * d2,
                a1 * b2 + b1 * a2 + c1 * d2 - d1 * c2,
                a1 * c2 - b1 * d2 + c1 * a2 + d1 * b2,
                a1 * d2 + b1 * c2 - c1 * b2 + d1 * a2)

    return [[index[ham(p, q)] for q in units] for p in units]


# A Latin square with identity 0 that is not associative: a loop, not a group.
LOOP5 = [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3], [3, 2, 4, 0, 1], [4, 3, 1, 2, 0]]

GROUP_TABLES = {
    "S3": lambda: symmetric_table(3),
    "Q8": quaternion_table,
    "C12": lambda: cyclic_table(12),
    "D8": lambda: dihedral_table(8),
    "C4xC4": lambda: product_table((4, 4)),
    "S4": lambda: symmetric_table(4),
    "C4xC6": lambda: product_table((4, 6)),
    "D12": lambda: dihedral_table(12),
    "D16": lambda: dihedral_table(16),
    "C48": lambda: cyclic_table(48),
    "D24": lambda: dihedral_table(24),
    "C64": lambda: cyclic_table(64),
    "D32": lambda: dihedral_table(32),
    "C8xC8": lambda: product_table((8, 8)),
}


# ---------------------------------------------------------------------------
# helpers


def _rat(rng, lo=-9, hi=9, den=6):
    num = 0
    while num == 0:
        num = rng.randint(lo, hi)
    return Fraction(num, rng.randint(1, den))


def _dumps(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _cycles(rng, design, n_cycles):
    """Repeat the design's slots, shuffled within each cycle."""
    out = []
    for _ in range(n_cycles):
        cyc = list(design)
        rng.shuffle(cyc)
        out.extend(cyc)
    return out


def exact_convolve(mul, h, f):
    """(h*f)(z) = sum over z = mul(x, y) of h(x) f(y), amplitudes as (re, im) Fractions."""
    acc = {}
    zero = (Fraction(0), Fraction(0))
    for x, (hr, hi) in h.items():
        for y, (fr, fi) in f.items():
            z = mul(x, y)
            r, i = acc.get(z, zero)
            acc[z] = (r + hr * fr - hi * fi, i + hr * fi + hi * fr)
    return {z: v for z, v in acc.items() if v != zero}


def _finite_element(name, table, terms, scalars):
    out = []
    for x in sorted(terms):
        re, im = terms[x]
        if scalars == "exact":
            entry = {"x": x, "re": str(re)}
            if im:
                entry["im"] = str(im)
        else:
            entry = {"x": x, "re": float(re)}
            if im:
                entry["im"] = float(im)
        out.append(entry)
    return _dumps({"group": {"kind": "cayley", "name": name, "table": table},
                   "scalars": scalars, "terms": out})


# ---------------------------------------------------------------------------
# finite-exact


# One cycle: every (category, group, support size, scalars) slot once.  The
# exact solve's cost depends far more on where the support lies (which
# subgroups it generates) than on the coefficient values, so each slot's
# support is fixed by a seed-independent draw and the seed draws the
# coefficients; every seed then runs the same cost mix.
FINITE_DESIGN = (
    [("small", g, k, "exact") for g in ("S3", "Q8", "C12", "D8", "C4xC4") for k in (2, 5, 8)]
    + [("mid", g, k, "exact") for g in ("S4", "C4xC6", "D12", "D16") for k in (2, 3)]
    # three more copies of one slot of steady cost, where the median falls
    + [("mid", "S4", 2, "exact")] * 3
    + [("zero", g, k, "exact") for g, k in (("S3", 1), ("Q8", 2), ("C12", 3), ("D8", 2),
                                             ("S4", 1), ("C4xC6", 2), ("S3", 3), ("Q8", 1),
                                             ("D8", 3), ("S4", 2))]
    + [("large", g, 2, "exact") for g in ("C48", "D24", "C64", "D32", "C8xC8")]
    + [("mid", "D12", 3, "float"), ("zero", "C4xC6", 2, "float"), ("defect", "loop5", 2, "exact")]
)


def _finite_structure(slot, order):
    """Seed-independent support (with imaginary-part flags) of a design slot."""
    rng = random.Random(repr(slot))
    cat, _, k, _ = slot
    h_size = k if cat == "zero" else min(k, order)
    support = [(p, rng.random() < 0.15) for p in rng.sample(range(order), h_size)]
    return support, (rng.randrange(1, order) if cat == "zero" else None)


def _finite_query(rng, slot, tables, index):
    cat, name, _, scalars = slot
    label = "float" if scalars == "float" else cat
    if cat == "defect":
        terms = {0: (Fraction(2), Fraction(0)), 1: (Fraction(1), Fraction(0))}
        return {"cat": label, "op": "finite",
                "element": _finite_element("loop5", LOOP5, terms, "exact"),
                "expect": [REFUSED], "defect": "non-associative-loop5"}
    table = tables[name]
    support, s = index[slot]
    terms = {p: (_rat(rng), _rat(rng) if has_im else Fraction(0)) for p, has_im in support}
    if cat == "zero":
        # h * (d_e - d_s) is a zero divisor for any h and any s != e
        one = (Fraction(1), Fraction(0))
        terms = exact_convolve(lambda x, y: table[x][y], terms,
                               {0: one, s: (-one[0], one[1])})
        expect = [NOT]
    else:
        expect = [INV, NOT]
    return {"cat": label, "op": "finite",
            "element": _finite_element(name, table, terms, scalars),
            "expect": expect, "defect": None}


def finite_exact(rng, n_cycles):
    tables = {name: build() for name, build in GROUP_TABLES.items()}
    index = {slot: _finite_structure(slot, len(tables[slot[1]]))
             for slot in FINITE_DESIGN if slot[0] != "defect"}
    return [_finite_query(rng, slot, tables, index)
            for slot in _cycles(rng, FINITE_DESIGN, n_cycles)]


# ---------------------------------------------------------------------------
# lattice-fft


# Shares place the median inside r1-fast and p95 inside r2-inv, away from
# the boundaries between cost modes.  As on finite-exact, each slot's support
# is fixed by a seed-independent draw (its third field tells copies apart)
# and the seed draws the coefficients.
LATTICE_DESIGN = (
    [("r1-zero", q, 0) for q in (6, 8, 12)]
    + [("r2-vanish", k, 0) for k in (2, 3, 4)]
    + [("r1-fast", k, i) for k in (1, 2, 3, 4) for i in (0, 1)]
    + [("r1-slow", j, 0) for j in (1, -1, 2)]
    + [("r2-inv", k, 0) for k in (2, 3, 4)]
)


def _lattice_element(rank, terms):
    out = []
    for x in sorted(terms):
        v = terms[x]
        out.append({"x": list(x), "re": v.real, "im": v.imag} if isinstance(v, complex)
                   else {"x": list(x), "re": v})
    return _dumps({"group": {"kind": "Z", "rank": rank}, "scalars": "float", "terms": out})


def _signed(rng, lo, hi):
    return rng.choice((-1, 1)) * rng.uniform(lo, hi)


def _lattice_query(rng, slot):
    cat, param, _ = slot
    shape = random.Random(repr(slot))  # seed-independent structure of the slot
    if cat == "r1-fast":
        # dominant constant term: the FFT inverse passes at the first grid size
        pts = shape.sample([n for n in range(-4, 5) if n], param)
        terms = {(n,): _signed(rng, 0.2, 0.5) for n in pts}
        terms[(0,)] = rng.choice((-1, 1)) * (rng.uniform(1.0, 1.5) + sum(map(abs, terms.values())))
        return {"cat": cat, "op": "wiener", "grid": 64,
                "element": _lattice_element(1, terms), "expect": [INV], "defect": None}
    if cat == "r1-slow":
        # the inverse of 1 - rho z^j decays like rho^(n/j), so the FFT grid
        # doubles past 512, up to 4096 (whose centred domain reaches 2048)
        rho = {1: rng.uniform(0.93, 0.95), -1: rng.uniform(0.97, 0.985), 2: rng.uniform(0.94, 0.97)}
        c = rng.uniform(0.5, 3.0)
        terms = {(0,): c, (param,): -c * rho[param]}
        return {"cat": cat, "op": "wiener", "grid": 1024,
                "element": _lattice_element(1, terms), "expect": [INV], "defect": None}
    if cat == "r1-zero":
        # (1 - 2 cos(t) z + z^2) * h vanishes at angle t on the unit circle
        p = rng.choice([p for p in range(1, param) if 2 * p != param])
        t = 2 * math.pi * p / param
        base = {0: 1.0, 1: -2.0 * math.cos(t), 2: 1.0}
        h = {0: rng.uniform(1.0, 2.0), shape.choice((1, 3)): _signed(rng, 0.1, 0.5)}
        terms = {}
        for a, va in base.items():
            for b, vb in h.items():
                terms[(a + b,)] = terms.get((a + b,), 0.0) + va * vb
        terms = {x: v for x, v in terms.items() if abs(v) > 1e-15}
        return {"cat": cat, "op": "wiener", "grid": 64,
                "element": _lattice_element(1, terms), "expect": [NOT], "defect": None}
    if cat == "r2-inv":
        nbrs = [(1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (-1, 1), (1, -1), (2, 0), (0, 2)]
        terms = {x: _signed(rng, 0.1, 0.7) for x in shape.sample(nbrs, param)}
        terms[(0, 0)] = rng.choice((-1, 1)) * (rng.uniform(0.3, 1.0) + sum(map(abs, terms.values())))
        return {"cat": cat, "op": "wiener", "grid": 64,
                "element": _lattice_element(2, terms), "expect": [INV], "defect": None}
    if cat == "r2-vanish":
        # the symbol vanishes at a point of {0, pi}^2, seen by every even quotient
        chi = (shape.choice((1, -1)), shape.choice((1, -1)))
        nbrs = [(1, 0), (0, 1), (-1, 0), (0, -1), (1, 1), (1, -1)]
        terms = {x: _signed(rng, 0.2, 1.0) for x in shape.sample(nbrs, param)}
        terms[(0, 0)] = -sum(v * chi[0] ** x[0] * chi[1] ** x[1] for x, v in terms.items())
        return {"cat": cat, "op": "wiener+probe", "grid": 64, "moduli": [2, 3, 4, 6, 8, 12],
                "element": _lattice_element(2, terms), "expect": [INC], "defect": None}
    raise ValueError(cat)


def lattice_fft(rng, n_cycles):
    return [_lattice_query(rng, slot) for slot in _cycles(rng, LATTICE_DESIGN, n_cycles)]


# ---------------------------------------------------------------------------
# series-weighted


# (category, exact scalars, series order K); exact free-group series cost
# the most, since their support doubles with every term.
# The float slots and the defects are cheap; six exact Z slots hold the median.
# The support and weight of a slot are a seed-independent draw (the last
# field tells copies apart); the seed draws the coefficients.  Each known
# defect has a slot of its own (the last field indexes SERIES_DEFECTS).
SERIES_DESIGN = ([("z1", False, 8, 0), ("z2", False, 8, 0), ("f2", False, 6, 0),
                  ("f3", False, 6, 0)]
                 + [("z1", True, 8, i) for i in range(6)] + [("z2", True, 8, i) for i in range(3)]
                 + [("f2", True, 6, i) for i in range(2)] + [("f3", True, 6, i) for i in range(2)]
                 + [("defect", False, 40, i) for i in range(3)])

SERIES_DEFECTS = (
    ("exp-symmetric-half", {"kind": "exp_symmetric", "base": 0.5}, [(0, 1), (1, -1)]),
    ("table-envelope", {"kind": "table", "entries": [[[0], 1.0], [[1], 0.1], [[-1], 0.1]],
                        "extension": "envelope"}, [(0, 1), (1, -1)]),
    ("exp-directional-rectified", {"kind": "exp_directional", "coefficients": [-1.0],
                                   "rectified": True}, [(0, 1), (-1, -1)]),
)


def weight_value(w, kind, x):
    """Independent evaluation of the weights used here (kind: 'Z' or 'free')."""
    length = sum(abs(v) for v in x) if kind == "Z" else len(x)
    k = w["kind"]
    if k == "exp_symmetric":
        return w["base"] ** length
    if k == "polynomial":
        return (1 + length) ** w["beta"]
    if k == "exp_directional":
        s = sum(c * (max(v, 0) if w["rectified"] else v) for c, v in zip(w["coefficients"], x))
        return math.exp(s)
    if k == "product":
        out = 1
        for f in w["factors"]:
            out = out * weight_value(f, kind, x)
        return out
    raise ValueError(k)


def _series_weight(rng, kind, rank):
    choices = [{"kind": "exp_symmetric", "base": rng.choice((2, 3))},
               {"kind": "polynomial", "beta": rng.choice((1, 2))},
               {"kind": "product", "factors": [{"kind": "exp_symmetric", "base": 2},
                                               {"kind": "polynomial", "beta": 1}]}]
    if kind == "Z":
        choices.append({"kind": "exp_directional", "rectified": False,
                        "coefficients": [round(rng.uniform(-0.5, 0.5), 3) for _ in range(rank)]})
    return rng.choice(choices)


def _series_query(rng, slot):
    cat, exact, order, _ = slot
    shape = random.Random(repr(slot))
    if cat == "defect":
        name, w, pts = SERIES_DEFECTS[slot[3]]
        el = _dumps({"group": {"kind": "Z", "rank": 1}, "scalars": "float",
                     "terms": [{"x": [x], "re": float(v)} for x, v in pts]})
        return {"cat": cat, "op": "neumann", "K": order, "element": el, "weight": _dumps(w),
                "expect": [NOT, INC, REFUSED], "defect": name}
    kind, rank = {"z1": ("Z", 1), "z2": ("Z", 2), "f2": ("free", 2), "f3": ("free", 3)}[cat]
    w = _series_weight(shape, kind, rank)
    if kind == "Z":
        pool = [p for p in itertools.product(range(-2, 3), repeat=rank) if any(p)]
    else:
        letters = [i for i in range(-rank, rank + 1) if i]
        pool = [(a,) for a in letters] + [(a, b) for a in letters for b in letters if a != -b]
    pts = shape.sample(pool, 2)
    c0 = Fraction(rng.choice((-4, -3, -2, -1, 1, 2, 3, 4)))
    # each of the two perturbations costs at most 1/100 of the pivot in the
    # weighted norm, so the series ratio is <= 0.02 and meets tol=1e-10 by K=6
    terms = {}
    for p in pts:
        cap = abs(c0) / (100 * weight_value(w, kind, p))
        num = rng.randint(1, 3)
        terms[p] = rng.choice((-1, 1)) * Fraction(num, math.ceil(num / cap))
    terms[(0,) * rank if kind == "Z" else ()] = c0
    scalars = "exact" if exact else "float"
    el_terms = [{"x": list(x), "re": str(v) if exact else float(v)} for x, v in sorted(terms.items())]
    el = _dumps({"group": {"kind": kind, "rank": rank}, "scalars": scalars, "terms": el_terms})
    return {"cat": f"{cat}-{scalars}", "op": "neumann", "K": order, "element": el,
            "weight": _dumps(w), "expect": [INV], "defect": None}


def series_weighted(rng, n_cycles):
    return [_series_query(rng, slot) for slot in _cycles(rng, SERIES_DESIGN, n_cycles)]


# ---------------------------------------------------------------------------
# cli-readme


CLI_DESIGN = ("invert-wiener", "invert-zero", "invert-neumann", "invert-finite", "certify",
               "probe", "df-check", "check-weight-table", "check-weight-ball", "dominate",
               "scenario-lp", "scenario-torus", "bad-group", "bad-amplitude")


def _cli_query(rng, cat):
    z1 = {"kind": "Z", "rank": 1}
    q = {"cat": cat, "op": "cli", "defect": None}
    if cat == "invert-wiener":
        a = round(rng.uniform(1.5, 3.0), 3)
        el = {"group": z1, "scalars": "float",
              "terms": [{"x": [0], "re": a}, {"x": [1], "re": round(rng.uniform(0.2, 1.0), 3)}]}
        q.update(argv=["invert", "--input", _dumps(el)], expect=[0])
    elif cat == "invert-zero":
        c = rng.randint(1, 5)
        el = {"group": z1, "terms": [{"x": [0], "re": float(c)}, {"x": [1], "re": float(-c)}]}
        q.update(argv=["invert", "--input", _dumps(el)], expect=[2])
    elif cat == "invert-neumann":
        c = Fraction(rng.randint(1, 7), 32)
        el = {"group": z1, "scalars": "exact",
              "terms": [{"x": [0], "re": "1"}, {"x": [1], "re": str(-c)}]}
        q.update(argv=["invert", "--input", _dumps(el), "--weight",
                       _dumps({"kind": "exp_symmetric", "base": 2}),
                       "--method", "neumann", "--K", "40"], expect=[0])
    elif cat in ("invert-finite", "certify"):
        if cat == "invert-finite":
            name, table = "S3", symmetric_table(3)
        else:
            name, table = "C3", cyclic_table(3)
        terms = {0: (Fraction(rng.randint(5, 9)), Fraction(0)),
                 rng.randrange(1, len(table)): (_rat(rng, -2, 2, 2), Fraction(0))}
        el = _finite_element(name, table, terms, "exact")
        q.update(argv=["invert" if cat == "invert-finite" else "certify", "--input", el],
                 expect=[0])
    elif cat == "probe":
        c = rng.randint(1, 4)
        el = {"group": z1, "terms": [{"x": [0], "re": float(c)}, {"x": [rng.randint(1, 3)],
                                                                 "re": float(-c)}]}
        q.update(argv=["probe", "--input", _dumps(el), "--moduli", "2..64"], expect=[2])
    elif cat == "df-check":
        a = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        x = rng.randint(-3, 3)
        f = {"group": z1, "scalars": "exact", "terms": [{"x": [x], "re": str(a)}]}
        g = {"group": z1, "scalars": "exact", "terms": [{"x": [-x], "re": str(1 / a)}]}
        q.update(argv=["df-check", "--f", _dumps(f), "--g", _dumps(g)], expect=[0])
    elif cat == "check-weight-table":
        v = round(rng.uniform(0.3, 0.9), 3)
        w = {"kind": "table", "entries": [[[0], 1.0], [[1], v], [[-1], v]]}
        q.update(argv=["check-weight", "--weight", _dumps(w), "--group", _dumps(z1),
                       "--radius", "1"], expect=[2])
    elif cat == "check-weight-ball":
        w = {"kind": "polynomial", "beta": rng.choice((1, 2))}
        q.update(argv=["check-weight", "--weight", _dumps(w), "--group",
                       _dumps({"kind": "Z", "rank": 2}), "--radius", "6"], expect=[0])
    elif cat == "dominate":
        w = {"kind": "product", "factors": [
            {"kind": "exp_directional", "coefficients": [round(rng.uniform(0.2, 1.0), 4)],
             "rectified": False},
            {"kind": "polynomial", "beta": 1}]}
        q.update(argv=["dominate", "--weight", _dumps(w), "--radius", "50"], expect=[0])
    elif cat == "scenario-lp":
        q.update(argv=["scenario", "lp", "--N", "1000"], expect=[0])
    elif cat == "scenario-torus":
        q.update(argv=["scenario", "torus"], expect=[0])
    elif cat == "bad-group":
        el = {"group": {"kind": "Z"}, "terms": [{"x": [0], "re": 1.0}]}
        q.update(argv=["invert", "--input", _dumps(el)], expect=[1], defect="group-missing-rank")
    elif cat == "bad-amplitude":
        el = {"group": z1, "terms": [{"x": [0], "re": "abc"}]}
        q.update(argv=["invert", "--input", _dumps(el)], expect=[1], defect="amplitude-not-a-number")
    else:
        raise ValueError(cat)
    return q


def cli_readme(rng, n_cycles):
    # One fixed invocation per category, repeated every cycle, so that each
    # report can be compared byte for byte with its earlier runs.
    base = [_cli_query(rng, cat) for cat in CLI_DESIGN]
    return [dict(q) for q in _cycles(rng, base, n_cycles)]


GENERATORS = {
    "finite-exact": (finite_exact, 12),
    "lattice-fft": (lattice_fft, 40),
    "series-weighted": (series_weighted, 40),
    "cli-readme": (cli_readme, 60),
}


def generate(workload, seed, n_cycles=None):
    """The seeded query list of a workload; ids are positions in the list."""
    gen, default_cycles = GENERATORS[workload]
    rng = random.Random(f"{workload}:{seed}")
    queries = gen(rng, n_cycles or default_cycles)
    for i, q in enumerate(queries):
        q["id"] = i
    return queries


def cycle_length(workload):
    """Queries per cycle; a run measures whole cycles."""
    return len({"finite-exact": FINITE_DESIGN, "lattice-fft": LATTICE_DESIGN,
                "series-weighted": SERIES_DESIGN, "cli-readme": CLI_DESIGN}[workload])
