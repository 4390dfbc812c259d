"""T4 (Fig 11): engine comparison on the synthetic benchmark.

Four query shapes × four match-probability ranges; fanouts U[1,10];
driver 10⁴ (paper: 10⁴–10⁶). All six strategies execute with the
survival-heuristic join order (the paper's default); wall-clock runtimes
are reported relative to COM, for flat output and (COM variants) for
factorized output. Strategies whose *estimated* peak intermediate
exceeds the cap are skipped and reported "TO" — the analogue of the
paper's timed-out red data points (all STD variants there too).
"""
from __future__ import annotations

from pyspark.sql import SparkSession

from repro.core.costmodel import STRATEGIES, plan_costs
from repro.core.optimizer import greedy_order
from repro.core.robustness import M_RANGES
from repro.engine import run_strategy
from repro.synth_data import tree_dataset

from .common import env_float, env_int, md_table, seeded_rng
from .shapes import SHAPES, sample_shaped_tree

COM_VARIANTS = ("COM", "BVP+COM", "SJ+COM")


def run(spark: SparkSession, *, n_driver: int | None = None, seed: int = 0, shapes=None, m_ranges=None):
    n_driver = n_driver or env_int("REPRO_T4_DRIVER", 10_000)
    max_interm = env_float("REPRO_T4_MAX_INTERM", 2.5e7)
    max_out = env_float("REPRO_T4_MAX_OUT", 2e6)
    shapes = shapes or sorted(SHAPES)
    m_ranges = m_ranges or M_RANGES
    rows = []
    for shape in shapes:
        for mr in m_ranges:
            rng = seeded_rng(seed, shape, mr)
            tree = sample_shaped_tree(shape, rng, m_range=mr, n_driver=n_driver, max_out=max_out)
            sdata, _ = tree_dataset(spark, tree, n_driver, seed=rng.randrange(1 << 30))
            order = greedy_order(tree, "survival", n_driver)

            walls: dict[str, float | None] = {}
            outs = {}
            for strat in STRATEGIES:
                est = plan_costs(tree, strat, None if strat.startswith("SJ") else order, n_driver)
                if est.hash_probes and max(est.hash_probes.values()) > max_interm:
                    walls[strat] = None  # "timeout": estimated blow-up
                    continue
                res = run_strategy(
                    spark, tree, sdata, strat,
                    None if strat.startswith("SJ") else order,
                    measure=False, flat_output=True,
                )
                walls[strat] = res.wall_time_s
                outs[strat] = res.out_rows
            fact_walls = {}
            for strat in COM_VARIANTS:
                res = run_strategy(
                    spark, tree, sdata, strat,
                    None if strat.startswith("SJ") else order,
                    measure=False, flat_output=False,
                )
                fact_walls[strat] = res.wall_time_s

            base = walls["COM"]
            fbase = fact_walls["COM"]
            row = {"shape": shape, "m_range": str(mr), "out_rows": outs.get("COM", "")}
            for strat in STRATEGIES:
                w = walls[strat]
                row[f"rel_{strat}"] = "TO" if w is None else round(w / base, 2)
            for strat in COM_VARIANTS:
                row[f"fact_rel_{strat}"] = round(fact_walls[strat] / fbase, 2)
            # Modeled probe totals (weighted) relative to COM — the
            # abstract metric the paper emphasizes alongside wall time.
            mcosts = {
                s: plan_costs(tree, s, None if s.startswith("SJ") else order, n_driver).total()
                for s in STRATEGIES
            }
            for strat in STRATEGIES:
                row[f"model_rel_{strat}"] = round(mcosts[strat] / mcosts["COM"], 2)
            rows.append(row)
    cols = (
        ["shape", "m_range", "out_rows"]
        + [f"rel_{s}" for s in STRATEGIES]
        + [f"fact_rel_{s}" for s in COM_VARIANTS]
        + [f"model_rel_{s}" for s in STRATEGIES]
    )
    return rows, md_table(rows, cols)
