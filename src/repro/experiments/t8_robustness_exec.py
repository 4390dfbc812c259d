"""T8 (Fig 15): robustness of the six strategies to the join order.

For each query, random join orders (driver fixed) run under every
strategy; per strategy we normalize each order's cost by the worst order
for that strategy (the paper's relative-robustness box plots) and report
the spread: min normalized cost (1.0 = no variation at all) and the
coefficient of variation. Wall-clock spreads come from Spark on a subset
of queries; probe-count spreads from the reference simulator on all.
The headline expectations: COM variants are flatter than STD variants,
and SJ+COM shows almost no variation (Thm 3.5).
"""
from __future__ import annotations

import random
import statistics

from pyspark.sql import SparkSession

from repro.ce_lite import load_dataset, random_query
from repro.core.costmodel import STRATEGIES, Weights
from repro.core.simulator import simulate
from repro.engine import run_strategy
from repro.synth_data import tree_dataset

from .common import env_int, md_table, random_valid_order, seeded_rng
from .shapes import sample_shaped_tree


def _queries(seed: int, n_driver: int):
    out = []
    rng = random.Random(seed)
    for shape in ("star7", "snow32"):
        t = sample_shaped_tree(
            shape, rng, m_range=(0.3, 0.6), fo_range=(2.0, 5.0), n_driver=n_driver, max_out=5e5
        )
        out.append((f"syn:{shape}", t, None))
    for ds in ("dblp_lite", "watdiv_lite"):
        tables = load_dataset(ds, sf=0.7, seed=seed)
        t, pdata = random_query(rng, tables, n_rels=4, max_out=5e5)
        out.append((f"ce:{ds}", t, pdata))
    return out


def _spread(xs: list[float]) -> tuple[float, float]:
    mx = max(xs)
    norm = [x / mx for x in xs] if mx > 0 else [1.0 for _ in xs]
    cv = statistics.pstdev(xs) / statistics.mean(xs) if statistics.mean(xs) > 0 else 0.0
    return min(norm), cv


def run(spark: SparkSession | None, *, n_driver: int | None = None, seed: int = 0):
    n_driver = n_driver or env_int("REPRO_T8_DRIVER", 10_000)
    k_sim = env_int("REPRO_T8_SIM_ORDERS", 10)
    k_wall = env_int("REPRO_T8_WALL_ORDERS", 5)
    wall_queries = {"syn:star7", "ce:dblp_lite"}
    w = Weights()
    rows = []
    for qname, tree, pdata in _queries(seed, n_driver):
        rng = seeded_rng(seed, qname)
        if pdata is None:
            from repro.core.datagen import gen_tree_data

            pdata = gen_tree_data(tree, n_driver, seed=rng.randrange(1 << 30))
        orders = [random_valid_order(tree, rng) for _ in range(k_sim)]
        sdata = None
        if spark is not None and qname in wall_queries:
            sdata = {n: spark.createDataFrame(df) for n, df in pdata.items()}
        for strat in STRATEGIES:
            probes = [
                simulate(tree, pdata, strat, order=o, flat_output=False).counts.total(w)
                for o in orders
            ]
            min_norm, cv = _spread(probes)
            row = {
                "query": qname,
                "strategy": strat,
                "k": k_sim,
                "probes_min_norm": min_norm,
                "probes_cv": cv,
            }
            if sdata is not None:
                walls = [
                    run_strategy(
                        spark, tree, sdata, strat, order=o, measure=False, flat_output=False
                        if strat.endswith("COM") else True,
                    ).wall_time_s
                    for o in orders[:k_wall]
                ]
                wmin, wcv = _spread(walls)
                row.update(wall_min_norm=wmin, wall_cv=wcv)
            rows.append(row)
    return rows, md_table(rows)
