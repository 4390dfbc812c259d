"""T5 (Fig 12): engine comparison on the CE-benchmark substitute.

Random pattern queries per lite dataset (the paper used 10 random queries
from each of 5 CE datasets with result sizes bounded); all six strategies
run with the survival-order default; wall times relative to COM, plus the
modeled weighted-cost ratios.
"""
from __future__ import annotations

from pyspark.sql import SparkSession

from repro.ce_lite import load_dataset, random_query
from repro.core.costmodel import STRATEGIES, plan_costs
from repro.core.optimizer import greedy_order
from repro.engine import run_strategy

from .common import env_float, env_int, md_table, seeded_rng

DATASET_NAMES = ["epinions_lite", "imdb_lite", "watdiv_lite", "dblp_lite", "yago_lite"]


def run(spark: SparkSession, *, n_queries: int | None = None, seed: int = 0, datasets=None):
    n_queries = n_queries or env_int("REPRO_T5_QUERIES", 2)
    max_out = env_float("REPRO_T5_MAX_OUT", 5e5)
    max_interm = env_float("REPRO_T5_MAX_INTERM", 2.5e7)
    datasets = datasets or DATASET_NAMES
    rows = []
    for ds in datasets:
        tables = load_dataset(ds, sf=1.0, seed=seed)
        for qi in range(n_queries):
            rng = seeded_rng(seed, ds, qi)
            # Heavily-skewed datasets may admit no 5-way query under the
            # cap — fall back to 4 relations, then to a looser cap.
            tree = pdata = None
            for n_rels, cap in ((rng.choice([4, 5]), max_out), (4, max_out), (4, 4 * max_out)):
                try:
                    tree, pdata = random_query(rng, tables, n_rels=n_rels, max_out=cap, max_tries=60)
                    break
                except RuntimeError:
                    continue
            if tree is None:
                rows.append({"dataset": ds, "query": f"q{qi}", "n_rels": "unsat"})
                continue
            sdata = {n: spark.createDataFrame(df) for n, df in pdata.items()}
            n_driver = len(pdata[tree.root])
            order = greedy_order(tree, "survival", n_driver)
            walls: dict[str, float | None] = {}
            for strat in STRATEGIES:
                est = plan_costs(tree, strat, None if strat.startswith("SJ") else order, n_driver)
                if est.hash_probes and max(est.hash_probes.values()) > max_interm:
                    walls[strat] = None
                    continue
                res = run_strategy(
                    spark, tree, sdata, strat,
                    None if strat.startswith("SJ") else order,
                    measure=False, flat_output=True,
                )
                walls[strat] = res.wall_time_s
            base = walls["COM"]
            mcosts = {
                s: plan_costs(tree, s, None if s.startswith("SJ") else order, n_driver).total()
                for s in STRATEGIES
            }
            row = {"dataset": ds, "query": f"q{qi}", "n_rels": len(tree.nodes)}
            for strat in STRATEGIES:
                w = walls[strat]
                row[f"rel_{strat}"] = "TO" if w is None else round(w / base, 2)
                row[f"model_rel_{strat}"] = round(mcosts[strat] / mcosts["COM"], 2)
            rows.append(row)
    cols = (
        ["dataset", "query", "n_rels"]
        + [f"rel_{s}" for s in STRATEGIES]
        + [f"model_rel_{s}" for s in STRATEGIES]
    )
    return rows, md_table(rows, cols)
