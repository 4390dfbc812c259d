"""Shared benchmark plumbing: the Spark session, set-up, and checked
``run_strategy`` calls timed from outside the engine."""
from __future__ import annotations

import inspect
import os
import shlex
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import pandas as pd

ROOT = Path(__file__).resolve().parent.parent
SCRATCH = ROOT / ".perfbench"  # Spark's local and temp dirs, trace files

# (metric key, engine strategy, flat output)
RUNS = (
    ("std", "STD", True),
    ("com", "COM", True),
    ("bvp_std", "BVP+STD", True),
    ("bvp_com", "BVP+COM", True),
    ("sj_std", "SJ+STD", True),
    ("sj_com", "SJ+COM", True),
    ("com_fact", "COM", False),
)
FLAT_RUNS = tuple(r for r in RUNS if r[2])

# Fixed here rather than inherited: shuffle partitions is the value
# run_strategy forces today; broadcast joins are off as in the tests.
SQL_CONF = {
    "spark.sql.shuffle.partitions": "8",
    "spark.sql.autoBroadcastJoinThreshold": "-1",
    "spark.sql.execution.arrow.pyspark.enabled": "true",
}
# Recorded with every run, so a shifted default shows.
RECORDED_CONF = (
    "spark.master",
    *SQL_CONF,
    "spark.sql.adaptive.enabled",
    "spark.sql.adaptive.coalescePartitions.enabled",
    "spark.sql.adaptive.skewJoin.enabled",
    "spark.sql.adaptive.autoBroadcastJoinThreshold",
    "spark.sql.adaptive.maxShuffledHashJoinLocalMapThreshold",
    "spark.sql.optimizer.runtime.bloomFilter.enabled",
    "spark.sql.join.preferSortMergeJoin",
    "spark.sql.codegen.wholeStage",
)
SETUP_REPEATS = 3
# Two task threads on the four-CPU machine the benchmark was sized on, so
# that tasks do not compete with the driver's Python process and the
# JVM's JIT and GC threads.
CORES = min(2, os.cpu_count() or 1)


class Mismatch(Exception):
    """A strategy returned a different result size than the reference."""


@dataclass
class Workload:
    """One workload loaded into Spark, with its reference answers."""

    name: str
    seed: int
    draw: int
    tree: object  # repro.core.jointree.JoinTree
    pdata: dict[str, pd.DataFrame]
    sdata: dict  # node -> persisted Spark DataFrame
    orders: dict[str, list[str] | None]  # engine strategy -> join order
    expected_out: int
    expected_fact: int
    first_load_s: float
    gen_s: list[float] = field(default_factory=list)
    load_s: list[float] = field(default_factory=list)

    @property
    def setup_s(self) -> list[float]:
        return [g + l for g, l in zip(self.gen_s, self.load_s)]


@dataclass
class Tally:
    """Checked operations attempted and failed."""

    attempted: int = 0
    failed: int = 0

    def attempt(self, what: str, fn):
        """Run ``fn``; an exception is a failed operation, logged, and the
        benchmark carries on (returns None)."""
        self.attempted += 1
        try:
            return fn()
        except Exception:
            self.failed += 1
            print(f"FAILED {what}", file=sys.stderr)
            traceback.print_exc(file=sys.stderr)
            return None


def lean_kwargs(fn) -> dict:
    """``measure=False`` for as long as the engine still has that switch."""
    return {"measure": False} if "measure" in inspect.signature(fn).parameters else {}


def start_spark():
    """A local SparkSession whose scratch files stay under ``SCRATCH``."""
    tmp = SCRATCH / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    java_opts = f"-Djava.io.tmpdir={tmp} -XX:-UsePerfData"
    os.environ["SPARK_LAUNCHER_OPTS"] = java_opts  # spark-submit's launcher JVM
    os.environ["PYSPARK_SUBMIT_ARGS"] = " ".join(
        [
            f"--master local[{CORES}]",
            "--driver-memory 2g",
            f"--driver-java-options {shlex.quote(java_opts)}",
            "--conf spark.driver.host=127.0.0.1",
            "--conf spark.ui.enabled=false",
            "--conf spark.ui.showConsoleProgress=false",
            f"--conf spark.local.dir={shlex.quote(str(tmp))}",
            "pyspark-shell",
        ]
    )
    from pyspark.sql import SparkSession

    builder = SparkSession.builder.appName("perfbench")
    for k, v in SQL_CONF.items():
        builder = builder.config(k, v)
    spark = builder.getOrCreate()
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def stop_spark(spark) -> None:
    """Stop the session and wait until the gateway JVM has exited."""
    from pyspark import SparkContext

    gateway = SparkContext._gateway
    spark.stop()
    if gateway is None:
        return
    proc = gateway.proc
    gateway.shutdown()
    if proc is not None:
        proc.stdin.close()  # the JVM exits when its stdin closes
        try:
            proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


def recorded_settings(spark) -> dict[str, str | None]:
    from pyspark.errors import SparkNoSuchElementException

    out = {}
    for k in RECORDED_CONF:
        try:
            out[k] = spark.conf.get(k)
        except SparkNoSuchElementException:  # not a setting of this Spark version
            out[k] = "<unknown>"
    return out


def _load(spark, name: str, seed: int, draw: int):
    from workloads import make_inputs

    t0 = time.perf_counter()
    tree, pdata = make_inputs(name, seed, draw)
    t1 = time.perf_counter()
    sdata = {n: spark.createDataFrame(pdf).persist() for n, pdf in pdata.items()}
    for df in sdata.values():
        df.count()
    return tree, pdata, sdata, t1 - t0, time.perf_counter() - t1


def setup(spark, name: str, seed: int) -> Workload:
    """Build and load the inputs once, untimed (this also warms the load
    path), and compute the reference answers."""
    from repro.ce_lite.queries import output_count
    from repro.core.costmodel import STRATEGIES
    from repro.core.optimizer import greedy_order
    from repro.core.simulator import simulate

    from workloads import find_draw

    draw = find_draw(name, seed)
    tree, pdata, sdata, gen, load = _load(spark, name, seed, draw)
    # The paper's default order; SJ keeps the engine's own phase-2 order
    # (the section 3.6 optimum).
    order = greedy_order(tree, "survival", float(tree.size[tree.root]))
    orders = {s: None if s.startswith("SJ") else order for s in STRATEGIES}
    fact = simulate(tree, pdata, "COM", order, flat_output=False).factorized_rows
    return Workload(
        name=name,
        seed=seed,
        draw=draw,
        tree=tree,
        pdata=pdata,
        sdata=sdata,
        orders=orders,
        expected_out=output_count(tree, pdata),
        expected_fact=int(fact),
        first_load_s=gen + load,
    )


def reload(spark, w: Workload) -> None:
    """Set up again ``SETUP_REPEATS`` times, timed, keeping the last copy."""
    for _ in range(SETUP_REPEATS):
        for df in w.sdata.values():
            df.unpersist()
        _, _, w.sdata, gen, load = _load(spark, w.name, w.seed, w.draw)
        w.gen_s.append(gen)
        w.load_s.append(load)


def run_one(spark, w: Workload, strategy: str, flat: bool, **kw):
    """One ``run_strategy`` call, timed around the call (which includes its
    terminal count). Returns (seconds, result); raises :class:`Mismatch`
    when the row count differs from the reference."""
    from repro.engine import run_strategy

    t0 = time.perf_counter()
    res = run_strategy(
        spark, w.tree, w.sdata, strategy, w.orders[strategy],
        flat_output=flat, **lean_kwargs(run_strategy), **kw,
    )
    wall = time.perf_counter() - t0
    if flat and res.out_rows != w.expected_out:
        raise Mismatch(f"{strategy}: {res.out_rows} rows, expected {w.expected_out}")
    if not flat and res.factorized_rows != w.expected_fact:
        raise Mismatch(f"{strategy} factorized: {res.factorized_rows} rows, expected {w.expected_fact}")
    return wall, res


def warm_up(spark, w: Workload, tally: Tally) -> float:
    """One untimed BVP+STD and SJ+COM run, which between them use every
    operator of the seven runs: the first pass in a fresh JVM is up to
    twice as slow while classes load and the JIT compiles."""
    t0 = time.perf_counter()
    for strategy in ("BVP+STD", "SJ+COM"):
        tally.attempt(f"{w.name} warm-up {strategy}", lambda: run_one(spark, w, strategy, True))
    return time.perf_counter() - t0


def timed_loop(spark, w: Workload, seconds: float, tally: Tally) -> dict[str, list[float]]:
    """Closed loop over the seven runs for ``seconds``. Every run is made at
    least once; the next is always the one with the least time spent on it
    so far, so cheap runs collect more samples."""
    samples: dict[str, list[float]] = {k: [] for k, _, _ in RUNS}
    spent = {k: 0.0 for k, _, _ in RUNS}
    deadline = time.perf_counter() + seconds
    while min(spent.values()) == 0.0 or time.perf_counter() < deadline:
        key, strategy, flat = min(RUNS, key=lambda r: spent[r[0]])
        t0 = time.perf_counter()
        got = tally.attempt(f"{w.name} {key}", lambda: run_one(spark, w, strategy, flat))
        spent[key] += time.perf_counter() - t0
        if got is not None:
            samples[key].append(got[0])
    return samples


def end_to_end(w: Workload, samples: dict[str, list[float]]) -> dict:
    metrics = {"setup_s": {"value": statistics.median(w.setup_s), "unit": "s"}}
    for key, times in samples.items():
        if times:
            metrics[f"{key}_s"] = {"value": statistics.median(times), "unit": "s"}
    return metrics
