"""Run the benchmark over every workload: a metric table, or a steadiness check.

    python3 perfbench/suite.py table [--layers]
    python3 perfbench/suite.py steady

Every run lasts BENCHMARK.json's ``run_seconds``.

``table`` runs each workload once (seed 1) and prints every end-to-end
metric with its unit, plus the verified fail_ratio; ``--layers`` adds a
traced run per workload and prints its per-layer metrics.

``steady`` runs two sets of ten seeds per workload (set k uses seeds
k*100+1 ...), all on the same code.  For each end-to-end metric it reports
each set's median and spread (quartile distance over median), and how far
the second set's median lies from the first's, in either direction, as a
share of the first.  A metric whose spread or set-to-set distance exceeds
its bound in BENCHMARK.json is listed as unresolved.  The summary is also
written to perfbench/out/steady.json.  Runs are sequential: two at once on
a small machine would measure each other.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

sys.path.insert(0, str(HERE))
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SECONDS = SPEC["run_seconds"]
SEED = 1
RUNS = 10
SETS = 2


def run_once(workload, seed, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(SECONDS), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} failed:\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    name = "run" if trace == 0 else "layers"
    detail = json.loads((OUT / f"{name}-{workload}-seed{seed}.json").read_text())
    return result, detail, proc.stdout


def spread(values):
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)


def distance(base, other):
    """How far `other` lies from `base`, either way, as a share of `base`."""
    return abs(other - base) / base


def cmd_table(layers):
    rows = []
    for w in workloads.WORKLOADS:
        result, detail, _ = run_once(w, SEED, 0)
        rows.append((w, result, detail))
        print(f"{w}: {result['attempted']} queries, correct={result['correct']}", flush=True)
    print()
    print(f"{'workload':16s} {'metric':16s} {'value':>12s} unit")
    for w, result, detail in rows:
        for name, m in result["metrics"].items():
            print(f"{w:16s} {name:16s} {m['value']:12.4f} {m['unit']}")
        defects = ", ".join(f"{k} {f}/{a}" for k, (f, a) in sorted(detail["defects"].items()))
        print(f"{w:16s} {'fail_ratio':16s} {detail['fail_ratio']:12.4f} ratio "
              f"({detail['failed']} unexpected; known defects: {defects or 'none'})")
        print(f"{'':16s} latency_tail_ms is p{detail['tail_percentile']}, "
              f"{detail['tail_beyond']} samples beyond it")
    if layers:
        for w in workloads.WORKLOADS:
            _, _, stdout = run_once(w, SEED, 1)
            print()
            print("\n".join(stdout.strip().splitlines()[:-1]))


def cmd_steady():
    metrics = {m["name"]: m for m in SPEC["end_to_end"]}
    summary = {}
    unresolved = []
    for w in workloads.WORKLOADS:
        sets = []
        for k in range(SETS):
            values = {name: [] for name in metrics}
            for i in range(RUNS):
                seed = 100 * k + i + 1
                result, _, _ = run_once(w, seed, 0)
                if not result["correct"]:
                    unresolved.append(f"{w} seed {seed}: outputs not correct")
                for name in metrics:
                    values[name].append(result["metrics"][name]["value"])
                print(f"{w} set {k} seed {seed}: " + ", ".join(
                    f"{n}={v[-1]:.4g}" for n, v in values.items()), flush=True)
            sets.append(values)
        summary[w] = {}
        for name, m in metrics.items():
            meds = [statistics.median(s[name]) for s in sets]
            spreads = [spread(s[name]) for s in sets]
            apart = [distance(meds[0], med) for med in meds[1:]]
            summary[w][name] = {"medians": meds, "spreads": spreads, "distance": apart,
                                "bound": m["bound"], "values": [s[name] for s in sets]}
            if max(spreads) > m["bound"]:
                unresolved.append(f"{w} {name}: spread {max(spreads):.3f} > bound {m['bound']}")
            if max(apart) > m["bound"]:
                unresolved.append(f"{w} {name}: set medians {max(apart):.3f} apart "
                                  f"> bound {m['bound']}")
    print()
    print(f"{'workload':16s} {'metric':16s} {'bound':>6s} {'medians':>24s} "
          f"{'spreads':>14s} {'apart':>8s}")
    for w, rows in summary.items():
        for name, r in rows.items():
            meds = " ".join(f"{v:.4g}" for v in r["medians"])
            sp = " ".join(f"{v:.3f}" for v in r["spreads"])
            apart = " ".join(f"{v:.3f}" for v in r["distance"])
            print(f"{w:16s} {name:16s} {r['bound']:6.2f} {meds:>24s} {sp:>14s} {apart:>8s}")
    print()
    print("unresolved:" if unresolved else "unresolved: none")
    for line in unresolved:
        print(f"  {line}")
    OUT.mkdir(exist_ok=True)
    (OUT / "steady.json").write_text(json.dumps({"summary": summary, "unresolved": unresolved},
                                                indent=1))
    return 1 if unresolved else 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = ap.add_subparsers(dest="command", required=True)
    sub.add_parser("table").add_argument("--layers", action="store_true")
    sub.add_parser("steady")
    args = ap.parse_args(argv)
    return cmd_table(args.layers) if args.command == "table" else cmd_steady()


if __name__ == "__main__":
    sys.exit(main())
