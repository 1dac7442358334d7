"""galab certificate benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload finite-exact --seed 1 --seconds 20 --trace 0

A single-process, single-threaded closed loop with one client: the next
query is sent only after the previous certificate returns.  Each query is
timed over galab's public call path -- decode the JSON texts, run the
oracle, encode the certificate as canonical JSON (or, on cli-readme, one
in-process ``galab.cli.main(argv)`` call with ``--report``).  Every output
is then re-verified by checker.py, outside the timed region.  The reported
times are wall times scaled to a reference machine speed, read by a probe
run before every query (probe.py); the plain wall-time figures are printed
next to them.

--trace 0 prints the end-to-end metrics; --trace 1 runs the same queries
untraced and then traced, and prints the per-layer metrics.  The last line
of stdout is the JSON result; the lines before it are for people.
Run from the root of a galab checkout; the program is imported from src/.
"""

from __future__ import annotations

import os

# BLAS/OpenMP pools would add threads this single-threaded benchmark does not
# want; pin them before numpy is imported, here and in child interpreters
# (which inherit the environment).
os.environ.update({k: "1" for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                                     "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")})

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

import checker  # noqa: E402
import workloads  # noqa: E402
from probe import PROBE_REFERENCE_S, speed_probe  # noqa: E402

# Fixed tail percentile per workload, so parent and change compare the same
# statistic; each leaves well over 10 samples beyond it in a 20 s run.
TAIL_PERCENTILE = {"finite-exact": 90, "lattice-fft": 95, "series-weighted": 95,
                   "cli-readme": 95}
SETUP_REPEATS = 8    # fresh imports before the timed pass, and again after it
PROBE_WINDOW = 2     # probes on each side of a query in its speed estimate
IMPORT_SNIPPET = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import galab, galab.cli; print(time.perf_counter() - t)"
)


# ---------------------------------------------------------------------------
# set-up


def import_seconds():
    """Wall time to import galab and galab.cli in one fresh interpreter.

    Not scaled by the speed probe: run in the same fresh interpreter, the
    probe tracked the import's time so poorly that scaling raised the
    variation between imports from 12-13% to 17%.
    """
    proc = subprocess.run([sys.executable, "-c", IMPORT_SNIPPET, str(SRC)],
                          capture_output=True, text=True, timeout=60, check=True)
    return float(proc.stdout.strip())


# ---------------------------------------------------------------------------
# machine speed (see probe.py)


def scaled_times(res):
    """Each query's wall time scaled to the reference speed (seconds).

    A query's speed estimate is the median probe time of queries i-2 .. i+2.
    """
    probes, w = res.probes, PROBE_WINDOW
    return [t * PROBE_REFERENCE_S / statistics.median(probes[max(0, i - w):i + w + 1])
            for i, t in enumerate(res.times)]


# ---------------------------------------------------------------------------
# the timed call path


class Executor:
    """Runs one query through galab and returns its outcome for the checker."""

    def __init__(self):
        import galab
        import galab.cli
        from galab.errors import ContractViolationError, ResourceLimitError, UsageError

        self.galab = galab
        self.cli = galab.cli
        self.refusals = (UsageError, ResourceLimitError, ContractViolationError)
        (OUT / "reports").mkdir(parents=True, exist_ok=True)

    @staticmethod
    def _canonical(payload):
        return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"

    def _call(self, q):
        g = self.galab
        if q["op"] == "cli":
            return self._cli(q)
        f = g.element_from_json(json.loads(q["element"]))
        if q["op"] == "finite":
            return [self._canonical(g.invert_finite(f).to_json())]
        if q["op"] in ("wiener", "wiener+probe"):
            texts = [self._canonical(g.wiener_certify(f, q["grid"]).to_json())]
            if q["op"] == "wiener+probe":
                report = g.probe_quotients(f, q["moduli"])
                texts.append(self._canonical(report.to_json()))
            return texts
        if q["op"] == "neumann":
            w = g.weight_from_json(json.loads(q["weight"]), f.group)
            cert = g.neumann_invert(f, w, terms=q["K"])
            texts = [self._canonical(cert.to_json())]
            if cert.inverse is not None:
                df = g.verify_direct_finiteness(f, cert.inverse, w)
                texts.append(self._canonical(df.to_json()))
            return texts
        raise ValueError(q["op"])

    def _cli(self, q):
        path = OUT / "reports" / f"{q['cat']}.json"
        if path.exists():
            path.unlink()
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = self.cli.main(q["argv"] + ["--report", str(path)])
        return {"rc": rc, "stdout": out.getvalue(), "stderr": err.getvalue(), "path": path}

    def run(self, q):
        """(seconds, outcome); only decode, oracle and encode are timed."""
        t0 = perf_counter()
        try:
            res = self._call(q)
            status, error = "ok", None
        except self.refusals as exc:
            res, status, error = None, "refused", f"{type(exc).__name__}: {exc}"
        except Exception as exc:  # the checker reports it as a failed query
            res, status = None, "error"
            error = f"{type(exc).__name__}: {exc} | " + traceback.format_exc(limit=1).strip()[-160:]
        dt = perf_counter() - t0
        outcome = {"status": status, "error": error}
        if isinstance(res, dict):
            path = res.pop("path")
            res["report"] = path.read_bytes() if path.exists() else b""
            outcome.update(res)
        else:
            outcome["texts"] = res
        return dt, outcome


# ---------------------------------------------------------------------------
# the closed loop


class Pass:
    """Outcome of one pass over the query list."""

    def __init__(self):
        self.times = []            # wall seconds per query
        self.probes = []           # speed_probe() seconds just before each query
        self.failures = []         # (query id, category, reason) for unexpected failures
        self.defects = {}          # defect name -> [failed, attempted]
        self.report_bytes = 0
        self.wall = 0.0

    @property
    def attempted(self):
        return len(self.times)

    @property
    def defect_failures(self):
        return sum(f for f, _ in self.defects.values())


def run_pass(executor, queries, *, seconds=None, cycle=1, count=None, tracer=None, seen=None):
    """Run queries in order, either `count` of them or whole cycles for `seconds`.

    A timed pass ends at the first cycle boundary after `seconds` of wall
    time, so every run measures the same mix; it stops mid-cycle only past
    three times `seconds`.
    """
    result = Pass()
    seen = {} if seen is None else seen
    start = perf_counter()
    i = 0
    while True:
        if count is not None and i >= count:
            break
        if seconds is not None:
            elapsed = perf_counter() - start
            if (elapsed >= seconds and i % cycle == 0) or elapsed >= 3 * seconds:
                break
        q = queries[i % len(queries)]
        if tracer is not None:
            tracer.query_id = q["id"]
        # Start every query from the same collector state, so one query's
        # garbage does not land in the next one's time.
        gc.collect()
        result.probes.append(speed_probe())
        dt, outcome = executor.run(q)
        result.times.append(dt)
        if "report" in outcome:
            result.report_bytes += len(outcome["report"])
        reason = checker.check(q, outcome, seen)
        if q["defect"]:
            tally = result.defects.setdefault(q["defect"], [0, 0])
            tally[1] += 1
            tally[0] += reason is not None
        elif reason is not None:
            result.failures.append((q["id"], q["cat"], reason))
        i += 1
    result.wall = perf_counter() - start
    return result


def warm_up(executor, queries):
    """One untimed query per category: lazy imports and first-call costs."""
    seen_cats = set()
    for q in queries:
        if q["cat"] not in seen_cats and not q["defect"]:
            seen_cats.add(q["cat"])
            executor.run(q)


def percentile(values, p):
    """Nearest-rank percentile, and the number of samples above it."""
    ordered = sorted(values)
    k = max(0, min(len(ordered) - 1, int(round(p / 100 * len(ordered))) - 1))
    return ordered[k], len(ordered) - 1 - k


# ---------------------------------------------------------------------------
# main


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny run for tests: one set-up import, one cycle of queries")
    return ap.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "galab" / "__init__.py").is_file():
        print(f"error: no galab sources under {SRC}; run from a galab checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)

    # Set-up is sampled before and after the timed pass, so that one slow
    # stretch of a shared machine does not decide it; the median is reported.
    # The first import may compile bytecode (users pay that once) and is
    # not counted.
    setup = []
    if args.trace == 0:
        import_seconds()
        setup.extend(import_seconds() for _ in range(1 if args.smoke else SETUP_REPEATS))

    queries = workloads.generate(args.workload, args.seed, n_cycles=1 if args.smoke else None)
    executor = Executor()
    if not args.smoke:
        warm_up(executor, queries)
    gc.collect()
    gc.freeze()

    if args.trace == 0:
        res = timed_pass(args, executor, queries, args.seconds)
        setup.extend(import_seconds() for _ in range(0 if args.smoke else SETUP_REPEATS))
        return report_end_to_end(args, res, statistics.median(setup))
    return report_layers(args, executor, queries)


def timed_pass(args, executor, queries, seconds, seen=None):
    """Whole cycles for `seconds`; a smoke run makes one pass over its one cycle."""
    if args.smoke:
        return run_pass(executor, queries, count=len(queries), seen=seen)
    return run_pass(executor, queries, seconds=seconds,
                    cycle=workloads.cycle_length(args.workload), seen=seen)


def _print_failures(res):
    for qid, cat, reason in res.failures[:20]:
        print(f"FAILED query {qid} ({cat}): {reason}")
    for name, (failed, attempted) in sorted(res.defects.items()):
        state = "reproduced" if failed else "fixed"
        print(f"known defect {name}: {failed}/{attempted} queries failed ({state})")


def latency_metrics(times, p):
    """throughput_qps, latency_p50_ms, latency_tail_ms (at percentile p) of per-query seconds."""
    times_ms = [t * 1e3 for t in times]
    tail, beyond = percentile(times_ms, p)
    return {"throughput_qps": len(times) / sum(times),
            "latency_p50_ms": statistics.median(times_ms),
            "latency_tail_ms": tail}, beyond


def report_end_to_end(args, res, setup_s):
    p = TAIL_PERCENTILE[args.workload]
    scaled, beyond = latency_metrics(scaled_times(res), p)
    wall, _ = latency_metrics(res.times, p)
    failed = len(res.failures)
    fail_ratio = (failed + res.defect_failures) / res.attempted
    units = {"throughput_qps": "1/s", "latency_p50_ms": "ms", "latency_tail_ms": "ms"}
    metrics = {name: (v, units[name]) for name, v in scaled.items()}
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    metrics["setup_s"] = (setup_s, "s")
    _print_failures(res)
    summary = {"workload": args.workload, "seed": args.seed, "attempted": res.attempted,
               "failed": failed, "fail_ratio": fail_ratio, "tail_percentile": p,
               "tail_beyond": beyond, "defects": res.defects, "wall": wall,
               "probe_median_ms": statistics.median(res.probes) * 1e3,
               "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    (OUT / f"run-{args.workload}-seed{args.seed}.json").write_text(json.dumps(summary, indent=1))
    print(f"workload {args.workload} seed {args.seed}: {res.attempted} queries "
          f"in {res.wall:.2f} s wall; speed probe median "
          f"{summary['probe_median_ms']:.3f} ms (reference {PROBE_REFERENCE_S * 1e3:g} ms)")
    for name, (value, unit) in metrics.items():
        raw = f"   (wall {wall[name]:.4f})" if name in wall else ""
        print(f"  {name:16s} {value:12.4f} {unit}{raw}")
    print(f"  latency_tail_ms is p{p}: {beyond} of {res.attempted} samples lie beyond it")
    print(f"  fail_ratio       {fail_ratio:12.4f} ({failed} unexpected + "
          f"{res.defect_failures} known-defect failures of {res.attempted})")
    print(json.dumps({"correct": failed == 0, "attempted": res.attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0


def report_layers(args, executor, queries):
    from spans import Tracer, layer_metrics, unit_of

    seen = {}
    plain = timed_pass(args, executor, queries, args.seconds / 2, seen)
    tracer = Tracer()
    tracer.install()
    try:
        traced = run_pass(executor, queries, count=plain.attempted, tracer=tracer, seen=seen)
    finally:
        tracer.uninstall()
    n = traced.attempted
    layers, self_ms = layer_metrics(tracer, n, traced.report_bytes)
    layers["trace.overhead_ratio"] = sum(scaled_times(plain)) / sum(scaled_times(traced))
    failed = len(plain.failures) + len(traced.failures)
    attempted = plain.attempted + traced.attempted
    layers["check.fail_ratio"] = (failed + plain.defect_failures + traced.defect_failures) \
        / attempted
    tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.json")
    (OUT / f"layers-{args.workload}-seed{args.seed}.json").write_text(json.dumps(layers, indent=1))

    _print_failures(plain)
    for qid, cat, reason in traced.failures[:20]:
        print(f"FAILED traced query {qid} ({cat}): {reason}")
    print(f"workload {args.workload} seed {args.seed}: {n} queries traced "
          f"(spans in {OUT.relative_to(ROOT)})")
    print("largest self times (ms per query):")
    ranked = sorted(self_ms.items(), key=lambda kv: -kv[1])
    for name, v in ranked[:6]:
        print(f"  {name:44s} {v:10.3f}")
    print(dominance(args.workload, layers, ranked))
    for name in sorted(layers):
        print(f"  {name:46s} {layers[name]:14.4f} {unit_of(name)}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in layers.items()}}))
    return 0


def dominance(workload, layers, ranked):
    """State whether the predicted dominant layer really dominates."""
    if workload == "finite-exact":
        top = ranked[0][0] if ranked else None
        ok = top == "invertibility.invert_finite"
        return (f"prediction (exact solve is the largest self time): "
                f"{'holds' if ok else 'DOES NOT HOLD'} -- largest is {top}")
    if workload == "lattice-fft":
        fft = (layers["invertibility.invert_via_fft.self_ms"]
               + layers["algebra.convolve.float_ms"])
        others = [(n, v) for n, v in ranked if n not in
                  ("invertibility.invert_via_fft", "algebra.convolve")]
        rival = others[0] if others else ("none", 0.0)
        ok = fft > rival[1]
        return (f"prediction (FFT + chop + float convolve is the largest): "
                f"{'holds' if ok else 'DOES NOT HOLD'} -- {fft:.3f} ms vs "
                f"{rival[0]} {rival[1]:.3f} ms")
    return f"no dominance prediction for {workload}"


if __name__ == "__main__":
    sys.exit(main())
