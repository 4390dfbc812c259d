"""Traced run: per-layer metrics, measured from the benchmark's own code.

Each call into a layer's public function is wrapped in a span that sets
``sparkContext.setJobGroup`` and reads the group's job IDs back from
``statusTracker()``, so a span has a name, a start, an end, its parent
run and its Spark jobs; the program itself is not changed. Spans are kept
in memory and written to ``.perfbench/trace-<workload>-seed<n>.json`` at
the end, with the recorded settings and the input fingerprint.

The run makes, in order:

- each of the seven ``run_strategy`` calls in a span; each flat result
  is then compared to DuckDB (``oracle.assert_equivalent``) and the joins
  in its executed plan are counted;
- one call into each layer: ``Gater`` (bitvector build), ``run_sj_phase1``,
  ``run_com`` with factorized output, the count of ``run_com``'s lazy flat
  result (the expansion), ``run_std`` on the base relations and on the
  phase-1-reduced ones;
- the section 3 cost model and the simulator's exact probe counts for
  each strategy, next to the measured times.

Tracing overhead is the time a span spends in its own bookkeeping (setting
the job group, draining the listener bus, reading the job IDs), median
over the seven ``run_strategy`` spans. It is measured directly because
the difference between a traced and an untraced run is well below their
run-to-run spread.
"""
from __future__ import annotations

import json
import math
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from pathlib import Path

from harness import FLAT_RUNS, RUNS, Mismatch, Tally, Workload, lean_kwargs, run_one
from workloads import fingerprint, fingerprint_digest

STRATEGY_KEYS = tuple(k for k, _, _ in FLAT_RUNS)

# (name, unit, better)
PER_LAYER = [
    ("bloom.build_s", "s", "lower"),
    ("bloom.build_jobs", "count", "lower"),
    ("sj.phase1_s", "s", "lower"),
    ("sj.phase1_jobs", "count", "lower"),
    ("sj.keep_ratio", "ratio", "lower"),
    ("com.factorize_s", "s", "lower"),
    ("com.factorize_jobs", "count", "lower"),
    ("com.fact_rows", "count", "lower"),
    ("com.expand_s", "s", "lower"),
    ("com.expand_jobs", "count", "lower"),
    ("std.pipeline_s", "s", "lower"),
    ("std.phase2_s", "s", "lower"),
    ("std.out_rows", "count", "lower"),
    *((f"runner.jobs.{k}", "count", "lower") for k, _, _ in RUNS),
    *(
        (f"plan.{op}.{k}", "count", "lower")
        for k in STRATEGY_KEYS
        for op in ("smj", "shj", "bhj", "runtime_bloom")
    ),
    *((f"model.cost.{k}", "probes", "lower") for k in STRATEGY_KEYS),
    *((f"probes.cost.{k}", "probes", "lower") for k in STRATEGY_KEYS),
    *((f"model.qerror.{k}", "ratio", "lower") for k in STRATEGY_KEYS),
    ("model.rank_rho", "rho", "higher"),
    ("data.gen_s", "s", "lower"),
    ("data.load_s", "s", "lower"),
    ("data.rows_in", "count", "lower"),
    ("data.rows_out", "count", "lower"),
    ("spark.warmup_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
]
UNITS = {n: u for n, u, _ in PER_LAYER}


@dataclass
class Span:
    name: str
    run: str
    parent: str
    start: float
    end: float
    jobs: list[int] = field(default_factory=list)
    overhead_s: float = 0.0

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Spans around calls into the engine, with the Spark jobs of each."""

    def __init__(self, spark, root: str):
        self.sc = spark.sparkContext
        self.root = root
        self.t0 = time.perf_counter()
        self.spans: list[Span] = []

    @contextmanager
    def span(self, name: str, run: str):
        t_enter = time.perf_counter()
        group = f"perfbench-{len(self.spans)}-{name}"
        self.sc.setJobGroup(group, f"{run}: {name}")
        s = Span(name, run, self.root, time.perf_counter() - self.t0, 0.0)
        try:
            yield s
        finally:
            t_body = time.perf_counter()
            s.end = t_body - self.t0
            # A job is listed once the listener bus has delivered its start.
            self.sc._jsc.sc().listenerBus().waitUntilEmpty()
            s.jobs = sorted(self.sc.statusTracker().getJobIdsForGroup(group))
            self.sc._jsc.clearJobGroup()
            s.overhead_s = (s.start + self.t0 - t_enter) + (time.perf_counter() - t_body)
            self.spans.append(s)


def oracle_sql(tree) -> str:
    parts = [f"SELECT * FROM {tree.root}"]
    for c in tree.bfs_order()[1:]:
        pcol, ccol = tree.join_cols[c]
        parts.append(f"JOIN {c} ON {pcol} = {ccol}")
    return " ".join(parts)


def plan_census(df) -> dict[str, int]:
    """Join operators in the plan a result was executed with, and whether
    Spark injected its own runtime bloom filter."""
    plan = df._jdf.queryExecution().executedPlan()
    if plan.nodeName() == "AdaptiveSparkPlan":
        plan = plan.executedPlan()  # the final plan, without the initial one
    text = plan.toString()
    return {
        "smj": text.count("SortMergeJoin"),
        "shj": text.count("ShuffledHashJoin"),
        "bhj": text.count("BroadcastHashJoin"),
        "runtime_bloom": int("might_contain" in text or "BloomFilterAggregate" in text),
    }


def spearman(xs: list[float], ys: list[float]) -> float:
    def ranks(v):
        order = sorted(range(len(v)), key=v.__getitem__)
        r = [0.0] * len(v)
        i = 0
        while i < len(order):
            j = i
            while j + 1 < len(order) and v[order[j + 1]] == v[order[i]]:
                j += 1
            for k in order[i : j + 1]:
                r[k] = (i + j) / 2
            i = j + 1
        return r

    rx, ry = ranks(xs), ranks(ys)
    mx, my = statistics.fmean(rx), statistics.fmean(ry)
    cov = sum((a - mx) * (b - my) for a, b in zip(rx, ry))
    var = math.sqrt(sum((a - mx) ** 2 for a in rx) * sum((b - my) ** 2 for b in ry))
    return cov / var if var else 0.0


def check_fingerprint(w: Workload) -> int:
    """Rebuild the inputs in a second process; its fingerprint must match."""
    mine = fingerprint(w.pdata)
    script = Path(__file__).resolve().parent / "workloads.py"
    out = subprocess.run(
        [sys.executable, str(script), w.name, str(w.seed)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    theirs = json.loads(out.stdout.strip().splitlines()[-1])
    if theirs != mine:
        raise Mismatch(f"input fingerprint differs between processes: {theirs} vs {mine}")
    return fingerprint_digest(mine)


def traced_run(spark, w: Workload, tally: Tally, *, settings: dict, warm_up_s: float, out_dir: Path) -> dict:
    from repro.core.costmodel import CostBreakdown, plan_costs, sj_optimal_phase2_order
    from repro.core.simulator import simulate
    from repro.engine.com import run_com
    from repro.engine.common import Gater
    from repro.engine.sj import run_sj_phase1
    from repro.engine.std import run_std
    from repro.estimation.qerror import qerror
    from repro.oracle import assert_equivalent

    tracer = Tracer(spark, root=f"{w.name}/seed{w.seed}")
    m: dict[str, float] = {
        "data.gen_s": statistics.median(w.gen_s),
        "data.load_s": statistics.median(w.load_s),
        "data.rows_in": sum(len(df) for df in w.pdata.values()),
        "data.rows_out": w.expected_out,
        "spark.warmup_s": warm_up_s,
    }
    digest = tally.attempt("input fingerprint", lambda: check_fingerprint(w))

    traced: dict[str, float] = {}
    overhead: list[float] = []
    sql = oracle_sql(w.tree)
    for key, strategy, flat in RUNS:
        def call():
            with tracer.span("runner", key) as s:
                wall, res = run_one(spark, w, strategy, flat, keep_result=flat)
            m[f"runner.jobs.{key}"] = len(s.jobs)
            overhead.append(s.overhead_s)
            return wall, res

        got = tally.attempt(f"traced {key}", call)
        if not got:
            continue
        traced[key], res = got
        if flat:
            def oracle():
                with tracer.span("oracle", key):
                    assert_equivalent(res.result, sql, **w.pdata)
                return plan_census(res.result)

            census = tally.attempt(f"oracle {key}", oracle)
            for op, n in (census or {}).items():
                m[f"plan.{op}.{key}"] = n

    def layers():
        order = w.orders["STD"]
        with tracer.span("bloom.build", "layers") as s:
            Gater(w.tree, w.sdata)
        m["bloom.build_s"], m["bloom.build_jobs"] = s.seconds, len(s.jobs)

        with tracer.span("sj.phase1", "layers") as s:
            reduced = run_sj_phase1(w.tree, w.sdata, CostBreakdown(), **lean_kwargs(run_sj_phase1))
        m["sj.phase1_s"], m["sj.phase1_jobs"] = s.seconds, len(s.jobs)
        inner = [n for n in w.tree.nodes if w.tree.children(n)]
        entering = sum(len(w.pdata[n]) for n in inner)
        m["sj.keep_ratio"] = sum(reduced[n].count() for n in inner) / entering

        lean = lean_kwargs(run_com)
        with tracer.span("com.factorize", "layers") as fs:
            _, fact_rows = run_com(w.tree, w.sdata, order, None, CostBreakdown(), flat_output=False, **lean)
        m["com.factorize_s"], m["com.factorize_jobs"] = fs.seconds, len(fs.jobs)
        m["com.fact_rows"] = fact_rows
        # In flat mode run_com builds the spines and alive sets eagerly and
        # returns the expansion lazily, so its terminal count is the expansion.
        with tracer.span("com.spines", "layers"):
            flat, _ = run_com(w.tree, w.sdata, order, None, CostBreakdown(), flat_output=True, **lean)
        with tracer.span("com.expand", "layers") as s:
            n_flat = flat.count()
        m["com.expand_s"], m["com.expand_jobs"] = s.seconds, len(s.jobs)

        lean = lean_kwargs(run_std)
        with tracer.span("std.pipeline", "layers") as s:
            n_std = run_std(w.tree, w.sdata, order, None, CostBreakdown(), **lean).count()
        m["std.pipeline_s"], m["std.out_rows"] = s.seconds, n_std
        sj_order = sj_optimal_phase2_order(w.tree, com=False)
        with tracer.span("std.phase2", "layers") as s:
            n_phase2 = run_std(w.tree, reduced, sj_order, None, CostBreakdown(), **lean).count()
        m["std.phase2_s"] = s.seconds

        if fact_rows != w.expected_fact:
            raise Mismatch(f"run_com factorized: {fact_rows} rows, expected {w.expected_fact}")
        for what, n in (("run_com", n_flat), ("run_std", n_std), ("run_std phase 2", n_phase2)):
            if n != w.expected_out:
                raise Mismatch(f"{what}: {n} rows, expected {w.expected_out}")

    tally.attempt("layer calls", layers)

    def model():
        for key, strategy, _ in FLAT_RUNS:
            order = w.orders[strategy]
            cost = plan_costs(w.tree, strategy, order).total()
            probes = simulate(w.tree, w.pdata, strategy, order).total()
            m[f"model.cost.{key}"] = cost
            m[f"probes.cost.{key}"] = probes
            m[f"model.qerror.{key}"] = qerror(cost, probes)
        keys = [k for k in STRATEGY_KEYS if k in traced]
        m["model.rank_rho"] = spearman([m[f"model.cost.{k}"] for k in keys], [traced[k] for k in keys])

    tally.attempt("cost model and simulator", model)
    if overhead:
        m["trace.overhead_s"] = statistics.median(overhead)

    record = {
        "workload": w.name,
        "seed": w.seed,
        "settings": settings,
        "orders": w.orders,
        "fingerprint": fingerprint(w.pdata),
        "fingerprint_crc32": digest,
        "run_strategy_s": traced,
        "spans": [asdict(s) for s in tracer.spans],
        "metrics": m,
    }
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / f"trace-{w.name}-seed{w.seed}.json").write_text(json.dumps(record, indent=1))
    return {name: {"value": value, "unit": UNITS[name]} for name, value in m.items()}
