"""Tests of the benchmark itself: determinism, the checker, span arithmetic, smoke runs.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import checker  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


# ---------------------------------------------------------------------------
# query generation


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_bytes_other_seed_differs(workload):
    def text(seed):
        return json.dumps(workloads.generate(workload, seed, n_cycles=2), sort_keys=True)

    a, b, c = text(7), text(7), text(8)
    assert a == b
    assert a != c


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_cycle_holds_the_design(workload):
    n = workloads.cycle_length(workload)
    cycles = []
    for seed in (3, 4):
        qs = workloads.generate(workload, seed, n_cycles=2)
        assert len(qs) == 2 * n
        cycles += [sorted((q["cat"], q["defect"] or "") for q in qs[i * n:(i + 1) * n])
                   for i in range(2)]
    assert all(c == cycles[0] for c in cycles)


def test_group_tables_are_groups():
    for name, build in workloads.GROUP_TABLES.items():
        t = build()
        n = len(t)
        assert all(sorted(row) == list(range(n)) for row in t), name
        assert all(t[t[a][b]][c] == t[a][t[b][c]]
                   for a in range(n) for b in range(n) for c in range(n)), name
    loop = workloads.LOOP5
    assert any(loop[loop[a][b]][c] != loop[a][loop[b][c]]
               for a in range(5) for b in range(5) for c in range(5))


# ---------------------------------------------------------------------------
# the checker flags tampered certificates


def _outcome(texts):
    return {"status": "ok", "error": None, "texts": texts}


def _canonical(payload):
    return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"


def _first(workload, cat):
    return next(q for q in workloads.generate(workload, 5, n_cycles=1) if q["cat"] == cat)


def test_checker_accepts_and_rejects_finite_certificates():
    import galab

    q = next(q for q in workloads.generate("finite-exact", 5, n_cycles=1)
             if q["cat"] == "small" and '"S3"' in q["element"])
    cert = galab.invert_finite(galab.element_from_json(json.loads(q["element"]))).to_json()
    assert cert["verdict"] == "invertible"
    assert checker.check(q, _outcome([_canonical(cert)]), {}) is None

    bad = json.loads(_canonical(cert))
    term = bad["inverse"]["terms"][0]
    term["re"] = str(checker.Fraction(term["re"]) + checker.Fraction(1, 10**9))
    assert "does not give" in checker.check(q, _outcome([_canonical(bad)]), {})

    flipped = dict(cert, verdict="not-invertible")
    assert checker.check(q, _outcome([_canonical(flipped)]), {}) is not None

    zero = _first("finite-exact", "zero")
    zcert = galab.invert_finite(galab.element_from_json(json.loads(zero["element"]))).to_json()
    assert checker.check(zero, _outcome([_canonical(zcert)]), {}) is None
    zcert["kernel"]["terms"][0]["re"] = "12345"
    assert "annihilate" in checker.check(zero, _outcome([_canonical(zcert)]), {})


def test_checker_rejects_perturbed_lattice_and_series_inverses():
    import galab

    q = _first("lattice-fft", "r1-fast")
    f = galab.element_from_json(json.loads(q["element"]))
    cert = galab.wiener_certify(f, q["grid"]).to_json()
    assert checker.check(q, _outcome([_canonical(cert)]), {}) is None
    cert["inverse"]["terms"][0]["re"] += 1e-6
    assert "residual" in checker.check(q, _outcome([_canonical(cert)]), {})

    q = _first("series-weighted", "f2-exact")
    f = galab.element_from_json(json.loads(q["element"]))
    w = galab.weight_from_json(json.loads(q["weight"]), f.group)
    cert = galab.neumann_invert(f, w, terms=q["K"])
    df = galab.verify_direct_finiteness(f, cert.inverse, w).to_json()
    good = cert.to_json()
    assert checker.check(q, _outcome([_canonical(good), _canonical(df)]), {}) is None
    good["inverse"]["terms"][-1]["re"] = "1/3"
    assert checker.check(q, _outcome([_canonical(good), _canonical(df)]), {}) is not None


def test_checker_counts_known_defect_and_refusal_rules():
    q = _first("series-weighted", "defect")
    wrong = {"verdict": "invertible", "kind": "neumann-series", "inverse": None, "residual": 0}
    assert checker.check(q, _outcome([_canonical(wrong)]), {}) is not None
    refused = {"status": "refused", "error": "UsageError: weight not provably submultiplicative"}
    assert checker.check(q, refused, {}) is None
    plain = _first("series-weighted", "z1-exact")
    assert checker.check(plain, refused, {}) is not None
    crash = {"status": "error", "error": "KeyError: 'rank'"}
    assert "unexpected exception" in checker.check(plain, crash, {})


def test_cli_reports_must_repeat_byte_for_byte():
    q = next(q for q in workloads.generate("cli-readme", 5, n_cycles=1)
             if q["cat"] == "scenario-torus")
    report = b'{"a":1}\n'
    seen = {q["cat"]: report}
    outcome = {"status": "ok", "error": None, "rc": 0, "stdout": "", "stderr": "",
               "report": b'{"a":2}\n'}
    assert "differs" in checker.check(q, outcome, seen)


# ---------------------------------------------------------------------------
# span arithmetic


def test_self_time_subtracts_the_union_of_children():
    s = [
        ["root", 0.0, 10.0, -1, 0, None],
        ["a", 1.0, 3.0, 0, 0, None],
        ["b", 2.0, 5.0, 0, 0, None],     # overlaps a: union [1, 5]
        ["c", 8.0, 12.0, 0, 0, None],    # clipped to the parent: [8, 10]
        ["d", 2.5, 3.5, 2, 0, None],     # grandchild: counts against b only
    ]
    assert spans.self_times(s) == pytest.approx([4.0, 2.0, 2.0, 4.0, 1.0])
    assert spans.outermost(s, 4)
    nested = [["x", 0.0, 4.0, -1, 0, None], ["x", 1.0, 2.0, 0, 0, None]]
    assert not spans.outermost(nested, 1)


def test_tracer_wraps_imported_names_and_restores_them():
    import galab.algebra
    import galab.invertibility

    orig = galab.algebra.convolve
    assert galab.invertibility.convolve is orig
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert galab.invertibility.convolve is galab.algebra.convolve is not orig
        q = _first("lattice-fft", "r1-fast")
        f = galab.element_from_json(json.loads(q["element"]))
        galab.wiener_certify(f, 64)
    finally:
        tracer.uninstall()
    assert galab.invertibility.convolve is galab.algebra.convolve is orig
    names = {s[0] for s in tracer.spans}
    assert {"invertibility.wiener_certify", "invertibility.invert_via_fft",
            "algebra.convolve", "operators.symbol_grid"} <= names
    layers, _ = spans.layer_metrics(tracer, 1)
    assert layers["invertibility.invert_via_fft.useful_ratio"] == 1.0
    assert layers["groups.mul.calls"] == layers["algebra.convolve.products"] > 0


def test_scaled_times_use_the_probe_median_around_each_query():
    import run

    r = run.PROBE_REFERENCE_S
    res = run.Pass()
    res.times = [1.0] * 7
    res.probes = [r, r, r, 2 * r, 2 * r, 2 * r, 2 * r]
    assert run.scaled_times(res) == pytest.approx([1, 1, 1, 0.5, 0.5, 0.5, 0.5])
    res.probes = [r, r, 10 * r, r, r, r, r]  # one disturbed probe changes nothing
    assert run.scaled_times(res) == pytest.approx([1] * 7)


# ---------------------------------------------------------------------------
# the command-line contract


def _run(cwd, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


def test_benchmark_json_names_every_reported_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    layer_names = set(spans.layer_metrics(spans.Tracer(), 1)[0])
    layer_names |= {"trace.overhead_ratio", "check.fail_ratio"}
    assert {m["name"] for m in spec["per_layer"]} == layer_names
    assert all(m["unit"] == spans.unit_of(m["name"]) for m in spec["per_layer"])
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run_prints_every_end_to_end_metric(workload):
    proc = _run(ROOT, "--workload", workload, "--seed", "1", "--seconds", "1",
                "--trace", "0", "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert set(result["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    assert result["correct"] and result["attempted"] == workloads.cycle_length(workload)
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_smoke_traced_run_prints_every_layer_metric():
    proc = _run(ROOT, "--workload", "cli-readme", "--seed", "1", "--seconds", "1",
                "--trace", "1", "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(result["metrics"]) == {m["name"] for m in spec["per_layer"]}
    assert result["metrics"]["cli.main.calls"]["value"] == 1.0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run(tmp_path, "--workload", "lattice-fft", "--seed", "1", "--seconds", "1",
                "--trace", "0")
    assert proc.returncode != 0
    assert not proc.stdout.strip()
