"""Golden replay of exact outputs: one fixed-seed cycle of the benchmark queries.

The digests below are sha256 sums of the canonical output texts of every
query in the cycle, joined in query order.  They were recorded before exact
elements moved to one-denominator storage, so any change to a verdict, a
certificate field or a printed amplitude on these paths shows up here.
The series-weighted digest was re-recorded when weight tables became
lookup-only: query 6, the table-envelope slot, changed from an
`invertible` certificate to a refusal, and no other query changed.  It
was re-recorded again when the weighted oracles began to refuse weights
not proven submultiplicative: queries 8 (exp-directional-rectified) and
14 (exp-symmetric-half) changed from `invertible` certificates to
refusals, and no other query changed.  The finite-exact digest was
re-recorded when `invert_finite` began to take a singular element's kernel
witness from the one coset block it solves: only `not-invertible` kernels
changed, those of queries 3, 7, 8, 13, 21, 36 and 40, and no verdict moved.

    PYTHONPATH=src python -m pytest -q tests/test_exact_replay.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

import pytest

import galab
import galab.cli
from galab.errors import ContractViolationError, ResourceLimitError, UsageError

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import workloads  # noqa: E402

SEED = 11
REFUSALS = (UsageError, ResourceLimitError, ContractViolationError)
# cli-readme commands that run exact arithmetic: exact inputs or exact kernels.
CLI_EXACT = ("invert-neumann", "invert-finite", "certify", "df-check", "scenario-lp",
             "scenario-torus")

GOLDEN = {
    "finite-exact": "c1ca56f3fb87bdd569a62f9d383085f6eae2f1ab9db5e8469d33384fdb5c7156",
    "series-weighted": "9e0177ac8a265443f665caff3ace320ef08a6f01a279564e7a5ebf08dfe75aa2",
    "cli-readme": "b7a5f0d01af2c13bdde4c895fbd67a2604991e7f1b2b0c2665ba3849a2d8d9c7",
}


def _canonical(payload) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"


def _texts(q, tmp_path) -> list:
    if q["op"] == "cli":
        path = tmp_path / f"{q['cat']}.json"
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = galab.cli.main(q["argv"] + ["--report", str(path)])
        report = path.read_text() if path.exists() else ""
        return [str(rc), out.getvalue(), err.getvalue(), report]
    f = galab.element_from_json(json.loads(q["element"]))
    if q["op"] == "finite":
        return [_canonical(galab.invert_finite(f).to_json())]
    w = galab.weight_from_json(json.loads(q["weight"]), f.group)
    cert = galab.neumann_invert(f, w, terms=q["K"])
    texts = [_canonical(cert.to_json())]
    if cert.inverse is not None:
        texts.append(_canonical(galab.verify_direct_finiteness(f, cert.inverse, w).to_json()))
    return texts


def _selected(workload) -> list:
    queries = workloads.generate(workload, SEED, n_cycles=1)
    if workload == "finite-exact":
        return [q for q in queries if json.loads(q["element"])["scalars"] == "exact"]
    if workload == "cli-readme":
        return [q for q in queries if q["cat"] in CLI_EXACT]
    return queries


def _digest(workload, tmp_path) -> str:
    sha = hashlib.sha256()
    for q in sorted(_selected(workload), key=lambda q: q["id"]):
        try:
            texts = _texts(q, tmp_path)
        except REFUSALS as exc:
            texts = [f"refused: {type(exc).__name__}: {exc}"]
        sha.update(f"{q['id']} {q['cat']}\n".encode())
        for text in texts:
            sha.update(text.encode())
    return sha.hexdigest()


@pytest.mark.parametrize("workload", sorted(GOLDEN))
def test_exact_outputs_replay_byte_for_byte(workload, tmp_path):
    assert _digest(workload, tmp_path) == GOLDEN[workload]
