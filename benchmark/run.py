"""Benchmark: from plant bounds to a validated schedule.

    python3 benchmark/run.py --workload ramp --seed 1 --seconds 20 --trace 0

Runs from the root of a source checkout and imports `rampsched` from its
`src` directory.  Prints one line per metric (name, value, unit, sample
count), then, as the last line, one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics with
`--trace 0`, the per-layer metrics with `--trace 1`.  The full run record
(every op, its status and gate verdict, versions, thread pinning) is
written to benchmark/records/.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

THREADS = 1                 # one client, one BLAS/OpenMP thread
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RECORDS = BENCH_DIR / "records"

# the end-to-end metrics every workload reports; the run's other figures
# (fail_frac, cost_ratio, ramp_up_h, ramp_down_h) go to the table and the
# record
END_TO_END = ("setup_s", "op_s_p50", "op_s_max", "quality_ratio", "peak_rss_mb")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="measuring time; pairs of rounds of ops start until it is spent")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in THREAD_VARS:
        os.environ[var] = str(THREADS)
    src = ROOT / "src"
    if not (src / "rampsched" / "__init__.py").is_file():
        print(f"no rampsched sources under {src}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(src), str(BENCH_DIR)]
    import record
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    rec, line = measure(workloads.WORKLOADS[args.workload], args.seed, args.seconds,
                        bool(args.trace))
    print(record.table(rec))
    print(line)
    return 0


def measure(w, seed: int, seconds: float, trace: bool):
    """Run one workload; write its record and return it with the result line."""
    import record
    import workloads

    body = workloads.run(w, seed, seconds, trace)
    rec = record.build(w, seed, seconds, trace, body, ROOT, THREADS)
    RECORDS.mkdir(exist_ok=True)
    stem = RECORDS / f"{w.name}-seed{seed}-trace{int(trace)}"
    record.write(rec, stem.with_suffix(".json"))
    if trace:
        body["tracer"].dump(stem.with_suffix(".spans.jsonl"))
    names = sorted(rec["per_layer"]) if trace else END_TO_END
    return rec, record.result_line(rec, names)


if __name__ == "__main__":
    sys.exit(main())
