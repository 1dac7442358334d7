"""Independent verification of galab's outputs.

The checker never calls galab.  It reads the canonical JSON a query
produced and re-verifies it with its own arithmetic: exact Fraction
products over the Cayley table, its own free-group word reduction, numpy
direct convolution on lattices, and the symbol recomputed at every
reported witness angle or quotient frequency.

``check(query, outcome, seen)`` returns None when the output is correct,
or a one-line reason.  ``seen`` maps a CLI category to the report bytes of
its first run, so repeats must be byte-identical.
"""

from __future__ import annotations

import cmath
import json
import math
from fractions import Fraction

import numpy as np

from workloads import INV, NOT, REFUSED, exact_convolve, weight_value

TOL = 1e-10
SLACK = 1 + 1e-6  # own float sums round differently from galab's


# ---------------------------------------------------------------------------
# elements


def parse_element(obj):
    """(group, exact, terms): terms maps element keys to (re, im) Fractions or complex."""
    if isinstance(obj, str):
        obj = json.loads(obj)
    group = obj["group"]
    exact = obj.get("scalars") == "exact"
    terms = {}
    for t in obj["terms"]:
        x = tuple(t["x"]) if isinstance(t["x"], list) else t["x"]
        re, im = t.get("re", 0), t.get("im", 0)
        if exact:
            amp = (Fraction(re), Fraction(im))
            prev = terms.get(x, (Fraction(0), Fraction(0)))
            terms[x] = (prev[0] + amp[0], prev[1] + amp[1])
        else:
            terms[x] = terms.get(x, 0j) + complex(_real(re), _real(im))
    return group, exact, terms


def _real(v):
    return float(Fraction(v)) if isinstance(v, str) else v


def group_mul(group):
    kind = group["kind"]
    if kind == "cayley":
        table = group["table"]
        return lambda a, b: table[a][b]
    if kind == "Z":
        return lambda a, b: tuple(x + y for x, y in zip(a, b))
    if kind == "free":
        return reduce_words
    raise ValueError(kind)


def identity(group):
    kind = group["kind"]
    if kind == "cayley":
        return group.get("identity", 0)
    if kind == "Z":
        return (0,) * group["rank"]
    return ()


def reduce_words(a, b):
    """Free reduction of the concatenation a.b of two reduced words."""
    out = list(a)
    for letter in b:
        if out and out[-1] == -letter:
            out.pop()
        else:
            out.append(letter)
    return tuple(out)


def convolve(mul, h, f, exact):
    if exact:
        return exact_convolve(mul, h, f)
    acc = {}
    for x, hv in h.items():
        for y, fv in f.items():
            z = mul(x, y)
            acc[z] = acc.get(z, 0j) + hv * fv
    return acc


def minus_identity(e, g, exact):
    out = dict(g)
    if exact:
        r, i = out.get(e, (Fraction(0), Fraction(0)))
        out[e] = (r - 1, i)
        if out[e] == (0, 0):
            del out[e]
    else:
        out[e] = out.get(e, 0j) - 1
    return out


def magnitude(v, exact):
    if not exact:
        return abs(v)
    re, im = v
    if im == 0:
        return abs(re)
    if re == 0:
        return abs(im)
    return math.hypot(float(re), float(im))


def wnorm(terms, exact, weight=None, kind=None):
    total = 0
    for x, v in terms.items():
        m = magnitude(v, exact)
        total += m if weight is None else m * weight_value(weight, kind, x)
    return total


def _num(v):
    return Fraction(v) if isinstance(v, str) else v


def _verdict(out, expect):
    """Reason string when the outcome's verdict (or refusal) is outside expect."""
    if out["status"] == "error":
        return f"unexpected exception: {out['error']}"
    if out["status"] == "refused":
        return None if REFUSED in expect else f"refused: {out['error']}"
    verdict = json.loads(out["texts"][0])["verdict"]
    return None if verdict in expect else f"verdict {verdict} not in {expect}"


# ---------------------------------------------------------------------------
# finite groups


def check_finite_cert(element, cert):
    group, exact, f = parse_element(element)
    mul = group_mul(group)
    e = identity(group)
    verdict = cert["verdict"]
    if verdict == INV:
        _, g_exact, g = parse_element(cert["inverse"])
        if g_exact != exact:
            return "inverse arithmetic differs from the input's"
        left = minus_identity(e, convolve(mul, g, f, exact), exact)
        right = minus_identity(e, convolve(mul, f, g, exact), exact)
        if exact:
            if left or right:
                return "exact inverse does not give g*f = f*g = e"
            if cert["residual"] not in ("0", 0):
                return f"exact residual reported as {cert['residual']!r}"
            return None
        worst = max(wnorm(left, False), wnorm(right, False))
        return None if worst <= TOL * SLACK else f"float inverse residual {worst:.3g}"
    if verdict == NOT:
        _, _, w = parse_element(cert["kernel"])
        scale = wnorm(w, exact)
        if scale == 0:
            return "kernel witness is zero"
        prod = convolve(mul, w, f, exact)
        if exact:
            return "exact witness does not annihilate f" if prod else None
        res = wnorm(prod, False)
        bound = 1e-9 * max(1.0, wnorm(f, False)) * scale
        return None if res <= bound else f"float witness residual {res:.3g}"
    return None


def check_finite(q, out):
    reason = _verdict(out, q["expect"])
    if reason or out["status"] != "ok":
        return reason
    return check_finite_cert(q["element"], json.loads(out["texts"][0]))


# ---------------------------------------------------------------------------
# lattices


def _dense(terms, rank):
    pts = np.array(list(terms), dtype=np.int64).reshape(len(terms), rank)
    lo = pts.min(axis=0)
    arr = np.zeros(tuple(pts.max(axis=0) - lo + 1), dtype=complex)
    for x, v in terms.items():
        arr[tuple(np.array(x) - lo)] += v
    return arr, lo


def lattice_residual(f, g, rank):
    """l1 norm of g*f - e by numpy direct (shift-and-add) convolution."""
    garr, glo = _dense(g, rank)
    farr, flo = _dense(f, rank)
    out = np.zeros(tuple(np.array(garr.shape) + np.array(farr.shape) - 1), dtype=complex)
    for idx in zip(*np.nonzero(farr)):
        sl = tuple(slice(i, i + s) for i, s in zip(idx, garr.shape))
        out[sl] += farr[idx] * garr
    origin = tuple(-(glo + flo))
    if all(0 <= o < s for o, s in zip(origin, out.shape)):
        out[origin] -= 1
        return float(np.abs(out).sum())
    return float(np.abs(out).sum()) + 1.0


def symbol_at(f, angles):
    return sum(v * cmath.exp(1j * sum(n * t for n, t in zip(x, angles))) for x, v in f.items())


def float_terms(element):
    group, exact, f = parse_element(element)
    if exact:
        f = {x: complex(float(r), float(i)) for x, (r, i) in f.items()}
    return group, f


def check_lattice_cert(element, cert):
    group, f = float_terms(element)
    rank = group["rank"]
    l1 = sum(abs(v) for v in f.values())
    verdict = cert["verdict"]
    if verdict == INV:
        _, _, g = parse_element(cert["inverse"])
        res = lattice_residual(f, g, rank)
        return None if res <= TOL * SLACK else f"lattice inverse residual {res:.3g}"
    if verdict == NOT and "witness_angle" in cert:
        angle = cert["witness_angle"]
        angles = angle if isinstance(angle, list) else [angle]
        val = abs(symbol_at(f, angles))
        return None if val <= 1e-7 * l1 else f"symbol {val:.3g} at the witness angle"
    return None


def check_probe(element, report):
    _, f = float_terms(element)
    l1 = sum(abs(v) for v in f.values())
    any_singular = False
    for p in report["results"]:
        freq, mods = p["frequency"], p["moduli"]
        angles = [2 * math.pi * k / m for k, m in zip(freq, mods)]
        if any(abs(a - b) > 1e-12 for a, b in zip(angles, p["angle"])):
            return f"quotient angle {p['angle']} is not 2 pi k/m for k={freq}"
        val = abs(symbol_at(f, angles))
        if abs(val - p["min_modulus"]) > 1e-9 * max(1.0, l1):
            return f"quotient symbol {val:.3g} != reported {p['min_modulus']:.3g}"
        if not p["nonsingular"]:
            any_singular = True
            if val > 1e-9 * max(1.0, l1):
                return f"singular quotient symbol recomputes to {val:.3g}"
    if any_singular != report["any_singular"]:
        return "any_singular disagrees with the results"
    return None


def check_wiener(q, out):
    reason = _verdict(out, q["expect"])
    if reason or out["status"] != "ok":
        return reason
    reason = check_lattice_cert(q["element"], json.loads(out["texts"][0]))
    if reason or q["op"] != "wiener+probe":
        return reason
    report = json.loads(out["texts"][1])
    if not report["any_singular"]:
        return "probe found no singular quotient of a vanishing symbol"
    return check_probe(q["element"], report)


# ---------------------------------------------------------------------------
# weighted series


def series_residuals(element, inverse, weight):
    group, exact, f = parse_element(element)
    _, g_exact, g = parse_element(inverse)
    if g_exact != exact:
        raise ValueError("inverse arithmetic differs from the input's")
    mul, e, kind = group_mul(group), identity(group), group["kind"]
    left = minus_identity(e, convolve(mul, g, f, exact), exact)
    right = minus_identity(e, convolve(mul, f, g, exact), exact)
    return wnorm(left, exact, weight, kind), wnorm(right, exact, weight, kind)


def _close(a, b):
    a, b = float(a), float(b)
    return abs(a - b) <= 1e-6 * max(abs(a), abs(b)) + 1e-15


def check_neumann(q, out):
    reason = _verdict(out, q["expect"])
    if reason or out["status"] != "ok":
        return reason
    cert = json.loads(out["texts"][0])
    if cert["verdict"] != INV:
        return None
    weight = json.loads(q["weight"])
    try:
        left, right = series_residuals(q["element"], cert["inverse"], weight)
    except ValueError as exc:
        return str(exc)
    if max(left, right) > TOL * SLACK:
        return f"series inverse residual {float(max(left, right)):.3g}"
    df = json.loads(out["texts"][1])
    if not (_close(_num(df["left_residual"]), left) and _close(_num(df["right_residual"]), right)):
        return "direct-finiteness residuals disagree with the recomputed ones"
    if df["pass"] != ((left > df["tol"]) or (right <= df["slack"] * df["tol"])):
        return "direct-finiteness pass flag contradicts its residuals"
    return None


# ---------------------------------------------------------------------------
# command line


def _arg(argv, name):
    return argv[argv.index(name) + 1]


def _check_cli_payload(q, payload):
    cat, argv = q["cat"], q["argv"]
    if cat in ("invert-wiener", "invert-zero"):
        return check_lattice_cert(_arg(argv, "--input"), payload)
    if cat in ("invert-finite", "certify"):
        return check_finite_cert(_arg(argv, "--input"), payload)
    if cat == "invert-neumann":
        left, right = series_residuals(_arg(argv, "--input"), payload["inverse"],
                                       json.loads(_arg(argv, "--weight")))
        return None if max(left, right) <= TOL else f"series residual {float(max(left, right)):.3g}"
    if cat == "probe":
        return check_probe(_arg(argv, "--input"), payload)
    if cat == "df-check":
        group, exact, f = parse_element(_arg(argv, "--f"))
        _, _, g = parse_element(_arg(argv, "--g"))
        mul, e = group_mul(group), identity(group)
        left = wnorm(minus_identity(e, convolve(mul, g, f, exact), exact), exact)
        right = wnorm(minus_identity(e, convolve(mul, f, g, exact), exact), exact)
        if _num(payload["left_residual"]) != left or _num(payload["right_residual"]) != right:
            return "df-check residuals disagree with exact recomputation"
        return None if payload["pass"] else "df-check of an exact inverse pair failed"
    if cat == "check-weight-table":
        entries = {tuple(x): v for x, v in json.loads(_arg(argv, "--weight"))["entries"]}
        x, y = (tuple(p) for p in payload["worst_pair"])
        z = tuple(a + b for a, b in zip(x, y))
        ratio = entries[z] / (entries[x] * entries[y])
        if payload["submultiplicative"] or ratio <= 1:
            return "violating pair does not violate submultiplicativity"
        return None if _close(ratio, payload["worst_ratio"]) else "worst ratio misreported"
    if cat == "check-weight-ball":
        ok = payload["submultiplicative"] and payload["worst_ratio"] <= 1 + 1e-12
        return None if ok and payload["window_size"] == 169 else "polynomial weight misjudged"
    if cat == "dominate":
        c = payload["character"]["c"][0]
        a = json.loads(_arg(argv, "--weight"))["factors"][0]["coefficients"][0]
        radius = int(_arg(argv, "--radius"))
        worst = max(c * x - (a * x + math.log(1 + abs(x)))
                    for x in range(-radius, radius + 1) if x)
        inside = payload["lower"] <= c <= payload["upper"]
        return None if inside and worst <= 1e-12 else "character is not dominated by the weight"
    if cat == "scenario-lp":
        found = {d["name"]: d["value"] for d in payload["findings"]}
        ok = (payload["verdict"] == "confirmed" and found["constant-action-residual"] == 0
              and found["forced-endpoint-gap"] == 1 and found["homogeneous-endpoint-gap"] == 0
              and found["symbol-verdict"] == NOT and abs(found["witness-angle"]) <= 1e-6)
        return None if ok else "lp scenario findings are wrong"
    if cat == "scenario-torus":
        found = {d["name"]: d["value"] for d in payload["findings"]}
        ok = (payload["verdict"] == "confirmed" and found["forced-all-ones"] is True
              and found["tail-band-max"] == 1 and found["reconstruction-residual"] <= 1e-12)
        return None if ok else "torus scenario findings are wrong"
    return None


def check_cli(q, out, seen):
    if out["status"] == "error":
        return f"unexpected exception: {out['error']}"
    if out["rc"] not in q["expect"]:
        return f"exit code {out['rc']} not in {q['expect']}"
    if out["rc"] == 1:
        lines = out["stderr"].strip().splitlines()
        ok = len(lines) == 1 and lines[0].startswith("error:")
        return None if ok else f"usage error printed {len(lines)} lines"
    raw = out["report"]
    payload = json.loads(raw)
    if raw != (json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n").encode():
        return "report is not canonical JSON"
    first = seen.setdefault(q["cat"], raw)
    if raw != first:
        return "report differs from an earlier run of the same command"
    return _check_cli_payload(q, payload)


CHECKS = {"finite": check_finite, "wiener": check_wiener, "wiener+probe": check_wiener,
          "neumann": check_neumann}


def check(q, out, seen):
    try:
        if q["op"] == "cli":
            return check_cli(q, out, seen)
        return CHECKS[q["op"]](q, out)
    except (KeyError, IndexError, TypeError, ValueError, ZeroDivisionError) as exc:
        # a malformed output is a failed query, not a crash of the benchmark
        return f"output could not be checked: {type(exc).__name__}: {exc}"
