"""Run records: one JSON file per run, and their printout.

    python3 benchmark/record.py [RECORD.json ...]

prints every metric of the given records (default: all of
benchmark/records/) by name, with unit and sample count, grouped by
workload, followed by each op's status and gate verdict.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import scipy


def _git_commit(root: Path) -> str | None:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, timeout=10,
                             capture_output=True, text=True)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _source_hash(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((root / "src" / "rampsched").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _metric(value, unit, samples) -> dict:
    return dict(value=value, unit=unit, samples=samples)


def build(w, seed: int, seconds: float, trace: bool, body: dict, root: Path,
          threads: int) -> dict:
    ops = body["ops"]
    failed = sum(not o["passed"] for o in ops)
    # an op may fail (time-out, no incumbent); it must never claim a
    # solution and then fail the gate
    wrong = [o["op"] for o in ops if o["claimed"] and not o["passed"]]
    rec = dict(
        workload=w.name, seed=seed, seconds=seconds,
        trace=trace, rounds=body["rounds"],
        budget_s=w.budget_s, gap_tol=w.gap_tol,
        correct=not wrong, wrong_ops=wrong, attempted=len(ops), failed=failed,
        metrics={k: _metric(*v) for k, v in body["end_to_end"].items()},
        setup_runs_s=body["setup_s"], setup_cpu_runs_s=body["setup_cpu_s"],
        sbm_tau_h=body["sbm_tau_h"], artifacts=body["artifacts"],
        ops=ops,
        env=dict(git_commit=_git_commit(root), source_sha256=_source_hash(root),
                 python=platform.python_version(), numpy=np.__version__,
                 scipy=scipy.__version__, nproc=len(os.sched_getaffinity(0)),
                 threads=threads, platform=platform.platform()),
    )
    if "per_layer" in body:
        rec["per_layer"] = {k: _metric(*v) for k, v in body["per_layer"].items()}
    return rec


def write(rec: dict, path: Path) -> None:
    with open(path, "w") as fh:
        json.dump(rec, fh, indent=1, sort_keys=True)
        fh.write("\n")


def result_line(rec: dict, names) -> str:
    """The last stdout line: verdict, op counts and the selected metrics."""
    pool = rec.get("per_layer", {}) if rec["trace"] else rec["metrics"]
    metrics = {n: dict(value=pool[n]["value"], unit=pool[n]["unit"]) for n in names}
    return json.dumps(dict(correct=rec["correct"], attempted=rec["attempted"],
                           failed=rec["failed"], metrics=metrics))


def _fmt(v) -> str:
    if v is None:
        return "n/a"
    if isinstance(v, float):
        return f"{v:.6g}"
    return str(v)


def table(rec: dict) -> str:
    lines = [f"# {rec['workload']} seed={rec['seed']} trace={int(rec['trace'])} "
             f"rounds={rec['rounds']} ops={rec['attempted']} failed={rec['failed']} "
             f"correct={rec['correct']}"]
    for section in ("metrics", "per_layer"):
        for name, m in sorted(rec.get(section, {}).items()):
            lines.append(f"{name:40s} {_fmt(m['value']):>12s} {m['unit']:6s} n={m['samples']}")
    for o in rec["ops"]:
        verdict = "pass" if o["passed"] else "FAIL: " + "; ".join(o["reasons"])[:160]
        lines.append(f"  op {o['op']:18s} {o['seconds']:8.3f} s  {o['status']:17s} {verdict}")
    return "\n".join(lines)


def main(argv) -> int:
    paths = [Path(a) for a in argv] or sorted(
        (Path(__file__).resolve().parent / "records").glob("*.json"))
    if not paths:
        print("no run records", file=sys.stderr)
        return 1
    for path in sorted(paths, key=lambda p: p.name):
        with open(path) as fh:
            print(table(json.load(fh)))
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
