"""T7 (Fig 14): does the cost model track actual execution cost?

For each query shape, K random valid join orders execute under COM
(factorized output, so the order-independent expansion doesn't flatten
the signal); the model's predicted weighted probes-per-driver-tuple are
correlated against (a) the measured wall time on Spark, and (b) the
exact probe counts observed by the reference simulator. The paper's
Fig 14 shows prediction ≈ execution over 300 orders; we report Pearson
and Spearman correlations over K orders per shape.
"""
from __future__ import annotations

import numpy as np
from pyspark.sql import SparkSession

from repro.core.costmodel import Weights, com_costs
from repro.core.simulator import simulate
from repro.engine import run_strategy
from repro.synth_data import tree_dataset

from .common import env_int, md_table, random_valid_order, seeded_rng
from .shapes import SHAPES, sample_shaped_tree


def _pearson(a, b) -> float:
    return float(np.corrcoef(a, b)[0, 1])


def _spearman(a, b) -> float:
    ra = np.argsort(np.argsort(a)).astype(float)
    rb = np.argsort(np.argsort(b)).astype(float)
    return _pearson(ra, rb)


def run(spark: SparkSession | None, *, n_driver: int | None = None, seed: int = 0, shapes=None):
    n_driver = n_driver or env_int("REPRO_T7_DRIVER", 20_000)
    k_wall = env_int("REPRO_T7_ORDERS", 10)
    k_sim = env_int("REPRO_T7_SIM_ORDERS", 20)
    shapes = shapes or sorted(SHAPES)
    w = Weights()
    rows = []
    for shape in shapes:
        rng = seeded_rng(seed, shape)
        tree = sample_shaped_tree(
            shape, rng, m_range=(0.2, 0.6), fo_range=(1.0, 6.0), n_driver=n_driver, max_out=1e6
        )
        sdata, pdata = tree_dataset(spark, tree, n_driver, seed=rng.randrange(1 << 30)) if spark else (None, None)
        if pdata is None:
            from repro.core.datagen import gen_tree_data

            pdata = gen_tree_data(tree, n_driver, seed=rng.randrange(1 << 30))

        # (b) model vs simulator probes — cheap, k_sim orders.
        orders = [random_valid_order(tree, rng) for _ in range(k_sim)]
        pred = [com_costs(tree, o, n_driver, flat_output=False).total(w) for o in orders]
        obs = [
            simulate(tree, pdata, "COM", order=o, flat_output=False).counts.total(w)
            for o in orders
        ]
        row = {
            "shape": shape,
            "k_sim": k_sim,
            "pearson_model_vs_probes": _pearson(pred, obs),
            "spearman_model_vs_probes": _spearman(pred, obs),
        }

        # (a) model vs Spark wall time — k_wall orders.
        if spark is not None:
            orders_w = orders[:k_wall]
            pred_w = [com_costs(tree, o, n_driver, flat_output=False).total(w) for o in orders_w]
            walls = [
                run_strategy(spark, tree, sdata, "COM", order=o, measure=False, flat_output=False).wall_time_s
                for o in orders_w
            ]
            row.update(
                k_wall=len(orders_w),
                pearson_model_vs_wall=_pearson(pred_w, walls),
                spearman_model_vs_wall=_spearman(pred_w, walls),
            )
        rows.append(row)
    return rows, md_table(rows)
