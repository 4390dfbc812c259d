"""Strategy benchmark for the Spark engine (``repro.engine.run_strategy``).

Run from the repository root:

    python3 perfbench/run.py --workload star-wide --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --write-spec    # rewrite BENCHMARK.json from SPEC

One process owns one local SparkSession and sends one query at a time
(closed loop). It builds the workload's inputs from ``--seed``
(``workloads.py``) and loads them into Spark, warms the JVM with one
BVP+STD and one SJ+COM run, loads the inputs again several times
(``setup_s`` is the median), and then, for at least ``--seconds``, times
``run_strategy`` from outside for the six strategies with flat output
plus COM with factorized output (``harness.py``). Every run is made at
least once; each end-to-end metric is the median of its samples. Every
run is checked: flat row counts against ``ce_lite.queries.output_count``
(pandas), factorized rows against the simulator. A mismatch or exception
counts as a failed operation, and the benchmark carries on.

Sizing: on a 4-CPU machine one pass of the seven runs takes about 25-30 s
on either workload, and the COM variants, at 80-116 Spark jobs each,
take 5-7 s whatever the data size, so a run of about a minute holds one
pass. ``path-selective`` (path11, where COM needs 235-333 jobs per run)
takes about 60 s per pass even at driver 2 000, so it is left out of
``BENCHMARK.json`` and is run by hand with ``--workload path-selective``.

``--trace 1`` makes the traced run of ``traced.py`` instead, which
reports the per-layer metrics.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""
from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
if __name__ == "__main__":
    if not (SRC / "repro" / "engine").is_dir():
        print(f"perfbench: no engine sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))

from harness import (  # noqa: E402
    ROOT, RUNS, SCRATCH, Tally, end_to_end, recorded_settings, reload, setup, start_spark,
    stop_spark, timed_loop, warm_up,
)
from workloads import WORKLOADS  # noqa: E402

SPEC = {
    "command": ["python3", "perfbench/run.py"],
    "paths": ["perfbench"],
    "run_seconds": 20,
    "workloads": [
        {
            "name": "star-wide",
            "why": "star7 over unique ids, depth 1: per-row join and shuffle work, driver-side "
            "pruning by bitvectors and semi-joins; where factorized COM should overtake flat STD",
        },
        {
            "name": "imdb-mn",
            "why": "5-way pattern over zipfian many-to-many edges, depth 2: skewed duplicate keys, "
            "composite spine keys, ~40x output expansion, almost nothing pruned",
        },
    ],
    "end_to_end": [
        {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
        *({"name": f"{k}_s", "unit": "s", "better": "lower", "bound": 0.25} for k, _, _ in RUNS),
    ],
}


def write_spec() -> None:
    from traced import PER_LAYER

    spec = dict(SPEC, per_layer=[{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER])
    (ROOT / "BENCHMARK.json").write_text(json.dumps(spec, indent=2) + "\n")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-spec", action="store_true", help="rewrite BENCHMARK.json and exit")
    args = ap.parse_args(argv)
    if args.write_spec:
        write_spec()
        return 0
    if args.workload is None:
        ap.error("--workload is required")

    tally = Tally()
    spark = start_spark()
    try:
        t0 = time.perf_counter()
        spark.range(1000).selectExpr("sum(id)").collect()
        first_job_s = time.perf_counter() - t0
        settings = recorded_settings(spark)
        print("settings " + json.dumps(settings, sort_keys=True))
        w = setup(spark, args.workload, args.seed)
        print(
            f"workload {w.name} seed {w.seed}: {sum(map(len, w.pdata.values()))} input rows, "
            f"{w.expected_out} output rows, {w.expected_fact} factorized rows; "
            f"order {w.orders['STD']} (SJ: the engine's phase-2 order)"
        )
        warm_s = first_job_s + w.first_load_s + warm_up(spark, w, tally)
        reload(spark, w)
        if args.trace:
            from traced import traced_run

            metrics = traced_run(spark, w, tally, settings=settings, warm_up_s=warm_s, out_dir=SCRATCH)
        else:
            metrics = end_to_end(w, timed_loop(spark, w, args.seconds, tally))
    finally:
        stop_spark(spark)
    for name, m in metrics.items():
        print(f"  {name:<36} {m['value']:>14.6g} {m['unit']}")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
