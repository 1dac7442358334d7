"""galab command line: invertibility oracles and scenario reports.

Every command prints a human-readable report to stdout and, with
--report PATH, writes its payload as algebra.canonical_json (sorted keys,
compact separators, no NaN or infinities) to the given file.  Exit codes
are script-friendly: 0 success / invertible, 2 not-invertible (or a failed
check), 3 inconclusive, 1 usage or internal error.

Elements and weights are passed either as inline JSON or as paths to
JSON files; an element description embeds its group.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import sys
from pathlib import Path

from .algebra import canonical_json, element_from_json
from .errors import ContractViolationError, ResourceLimitError, UsageError
from .groups import DEFAULT_BALL_CAP, CayleyGroup, LatticeGroup, ball, spec_from_json
from .invertibility import auto_invert, probe_quotients, verify_direct_finiteness
from .scenarios import scenario_lp, scenario_torus
from .weights import (CHECK_PAIR_CAP, check_pair_cap, check_weight, dominate_character,
                      weight_from_json)


def _parse_json(text: str | bytes):
    try:
        return json.loads(text)
    except ValueError as exc:  # malformed, not UTF-8/16/32, or an int past the digit limit
        raise UsageError(f"invalid JSON: {exc}") from None


def _load_json(arg: str):
    text = arg.strip()
    if text.startswith("{") or text.startswith("["):
        return _parse_json(text)
    # Bytes, so json.loads detects UTF-8/16/32 instead of the locale decoding them.
    try:
        data = Path(arg).read_bytes()
    except ValueError as exc:  # an embedded NUL
        raise UsageError(f"bad input path {arg!r}: {exc}") from None
    return _parse_json(data)


def _emit(payload, text: str, report_path) -> None:
    # Encoded first, so a payload that is not JSON leaves only the error line.
    report = canonical_json(payload) if report_path else None
    print(text)
    if report_path:
        Path(report_path).write_text(report)


def _fmt(v) -> str:
    if isinstance(v, (dict, list)):
        return json.dumps(v, sort_keys=True)
    return str(v)


def _element_arg(arg: str):
    return element_from_json(_load_json(arg))


def _weight_arg(arg, group):
    if arg is None:
        return None
    return weight_from_json(_load_json(arg), group)


def _cert_text(payload) -> str:
    lines = [f"verdict: {payload['verdict']}", f"kind: {payload['kind']}"]
    for k in sorted(payload):
        if k in ("verdict", "kind", "inverse", "residual"):
            continue
        lines.append(f"  {k} = {_fmt(payload[k])}")
    if payload["residual"] is not None:
        lines.append(f"residual: {_fmt(payload['residual'])}")
    if payload["inverse"] is not None:
        lines.append(f"inverse: {len(payload['inverse']['terms'])} terms (see JSON report)")
    return "\n".join(lines)


def _parse_moduli(text: str):
    """Moduli lists: "2..64" (range), "2,4,8", "4x6" (one rank-2 entry), as an
    iterator: probe_quotients reads a range only up to its point cap."""
    parts = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        try:
            if ".." in token:
                lo, hi = (int(t) for t in token.split("..", 1))
                if lo <= hi:
                    parts.append(range(lo, hi + 1))
            elif "x" in token:
                parts.append([tuple(int(p) for p in token.split("x"))])
            else:
                parts.append([int(token)])
        except ValueError:
            raise UsageError(f"bad moduli token {token!r}") from None
    if not parts:
        raise UsageError(f"no moduli found in {text!r}")
    return itertools.chain.from_iterable(parts)


# ---------------------------------------------------------------------------
# command handlers


def _cmd_invert(args) -> int:
    f = _element_arg(args.input)
    weight = _weight_arg(args.weight, f.group)
    cert = auto_invert(
        f, weight, method=args.method, grid=args.grid,
        size=args.N, terms=args.K, tol=args.tol,
    )
    payload = cert.to_json()
    _emit(payload, _cert_text(payload), args.report)
    return cert.exit_code


def _cmd_certify(args) -> int:
    f = _element_arg(args.input)
    if not isinstance(f.group, (CayleyGroup, LatticeGroup)):
        raise UsageError(
            "no certification oracle for this group kind; try invert --method neumann"
        )
    cert = auto_invert(f, grid=args.grid, tol=args.tol)
    payload = cert.to_json()
    _emit(payload, _cert_text(payload), args.report)
    return cert.exit_code


def _cmd_df_check(args) -> int:
    f = _element_arg(args.f)
    g = _element_arg(args.g)
    if f.group != g.group:
        raise UsageError("the two elements live over different groups")
    weight = _weight_arg(args.weight, f.group)
    report = verify_direct_finiteness(f, g, weight, tol=args.tol)
    payload = report.to_json()
    text = "\n".join(
        [
            f"left residual  = {payload['left_residual']}",
            f"right residual = {payload['right_residual']}",
            f"pass: {report.passed}",
        ]
    )
    _emit(payload, text, args.report)
    return 0 if report.passed else 2


def _cmd_check_weight(args) -> int:
    group = spec_from_json(_load_json(args.group))
    weight = weight_from_json(_load_json(args.weight), group)
    # An unproven weight's pairs are capped from the ball's size, before the
    # ball is built; a proven one scans no pairs.
    if weight.submultiplicative_proof(group) is None:
        check_pair_cap(group.ball_size(args.radius, DEFAULT_BALL_CAP))
    window = ball(group, args.radius)
    report = check_weight(weight, window)
    lines = [
        f"submultiplicative: {report.submultiplicative}",
        f"proof: {report.proof}",
        f"symmetric: {report.symmetric}",
        f"min value = {report.min_value} at {report.min_at}",
        f"worst ratio = {report.worst_ratio}",
        f"window = {report.window_size} elements",
    ]
    if report.worst_pair is not None:
        lines.append(f"violating pair: {report.worst_pair}")
    _emit(report.to_json(), "\n".join(lines), args.report)
    return 0 if report.submultiplicative else 2


def _cmd_dominate(args) -> int:
    group = spec_from_json(_load_json(args.group)) if args.group else LatticeGroup(1)
    weight = weight_from_json(_load_json(args.weight), group)
    result = dominate_character(weight, group, args.radius)
    lines = [f"feasible: {result.feasible}", f"radius: {result.radius}"]
    if result.character is not None:
        lines.append(f"character c = {list(result.character.c)}")
    if result.lower is not None:  # rank one: both ends are finite
        lines.append(f"admissible interval = [{result.lower}, {result.upper}]")
    if result.certificate_pair is not None:
        lines.append(f"conflicting constraints at {result.certificate_pair}")
    _emit(result.to_json(), "\n".join(lines), args.report)
    return 0 if result.feasible else 2


def _cmd_probe(args) -> int:
    f = _element_arg(args.input)
    moduli = _parse_moduli(args.moduli)
    report = probe_quotients(f, moduli)
    lines = []
    for p in report.probes:
        status = "SINGULAR" if not p.nonsingular else "nonsingular"
        lines.append(
            f"moduli {list(p.moduli)}  min |symbol| = {p.min_modulus:.6g}"
            f" at frequency {list(p.frequency)}  -> {status}"
        )
    cert = report.to_certificate()
    payload = report.to_json()
    payload["certificate"] = cert.to_json() if cert is not None else None
    if cert is not None:
        lines.append("witness found: not invertible")
    else:
        lines.append("no singular quotient found (probes cannot certify invertibility)")
    _emit(payload, "\n".join(lines), args.report)
    return 2 if report.any_singular else 0


def _cmd_scenario_lp(args) -> int:
    report = scenario_lp(args.N)
    _emit(report.to_json(), report.text(), args.report)
    return 0 if report.verdict == "confirmed" else 1


def _cmd_scenario_torus(args) -> int:
    report = scenario_torus(args.r, args.N, args.degree)
    _emit(report.to_json(), report.text(), args.report)
    return 0 if report.verdict == "confirmed" else 1


# ---------------------------------------------------------------------------
# parser


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)

    def _get_values(self, action, arg_strings):
        # argparse strips a "--" given as an option's value ("--moduli=--") and
        # would leave the option an empty list; the value is "--" itself.
        if action.option_strings and arg_strings == ["--"]:
            return self._get_value(action, "--")
        return super()._get_values(action, arg_strings)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The galab argument parser, built on first use and kept for the process."""
    parser = _Parser(
        prog="galab",
        description="Convolution operators on discrete groups: "
        "invertibility oracles, weights, and counterexample scenarios.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("invert", help="find and certify an inverse")
    p.add_argument("--input", required=True, help="element JSON (inline or file)")
    p.add_argument("--weight", help="weight JSON (inline or file)")
    p.add_argument(
        "--method",
        choices=["auto", "finite", "wiener", "fft", "neumann"],
        default="auto",
    )
    p.add_argument("--grid", type=int, default=64, help="symbol scan points per axis")
    p.add_argument("--N", type=int,
                   help="FFT grid size (power of two); default the largest <= 512 "
                   "whose grid has at most 2^16 points (512, 256, 32 on Z, Z^2, Z^3)")
    p.add_argument("--K", type=int, default=40, help="series truncation order")
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--report", help="write canonical JSON here")
    p.set_defaults(handler=_cmd_invert)

    p = sub.add_parser("certify", help="certify invertibility for the group kind")
    p.add_argument("--input", required=True)
    p.add_argument("--grid", type=int, default=64)
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--report")
    p.set_defaults(handler=_cmd_certify)

    p = sub.add_parser("df-check", help="left inverse implies right inverse check")
    p.add_argument("--f", required=True, help="the element")
    p.add_argument("--g", required=True, help="its candidate left inverse")
    p.add_argument("--weight")
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--report")
    p.set_defaults(handler=_cmd_df_check)

    p = sub.add_parser("check-weight", help="submultiplicativity scan on a ball")
    p.add_argument("--weight", required=True)
    p.add_argument("--group", required=True)
    p.add_argument("--radius", type=int, required=True,
                   help=f"ball radius; a weight with no submultiplicativity proof has the "
                   f"n^2 pairs of the ball's n elements scanned, at most {CHECK_PAIR_CAP}")
    p.add_argument("--report")
    p.set_defaults(handler=_cmd_check_weight)

    p = sub.add_parser("dominate", help="find a character below a lattice weight")
    p.add_argument("--weight", required=True)
    p.add_argument("--group", help="lattice JSON; default rank 1")
    p.add_argument("--radius", type=int, required=True)
    p.add_argument("--report")
    p.set_defaults(handler=_cmd_dominate)

    p = sub.add_parser("probe", help="finite-quotient singularity probes")
    p.add_argument("--input", required=True)
    p.add_argument("--moduli", required=True, help='e.g. "2..64", "2,4,8", "4x6"')
    p.add_argument("--report")
    p.set_defaults(handler=_cmd_probe)

    p = sub.add_parser("scenario", help="reproduce a counterexample")
    scen = p.add_subparsers(dest="which", required=True)

    q = scen.add_parser("lp", help="difference filter: injective, not invertible")
    q.add_argument("--N", type=int, default=100, help="window radius")
    q.add_argument("--report")
    q.set_defaults(handler=_cmd_scenario_lp)

    q = scen.add_parser("torus", help="smoothing kernel: dense range, not surjective")
    q.add_argument("--r", default="0.5", help="decay ratio in (0,1)")
    q.add_argument("--N", type=int, default=1024, help="max frequency")
    q.add_argument("--degree", type=int, default=20, help="target polynomial degree")
    q.add_argument("--report")
    q.set_defaults(handler=_cmd_scenario_torus)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.handler(args)
    except (UsageError, ResourceLimitError, ContractViolationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
