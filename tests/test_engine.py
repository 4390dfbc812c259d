"""Spark engine: result correctness (DuckDB oracle), probe-count equality
with the reference simulator, and strategy semantics."""
import numpy as np
import pandas as pd
import pytest

from repro.ce_lite import bind_query
from repro.core import costmodel as cm
from repro.core import jointree as jt
from repro.core.datagen import gen_tree_data
from repro.core.jointree import EdgeStats
from repro.core.simulator import simulate
from repro.engine import run_strategy
from repro.oracle import assert_equivalent

STRATS = list(cm.STRATEGIES)
N_DRIVER = 300


def example_tree():
    stats = {
        "R2": EdgeStats(0.8, 3.0),
        "R3": EdgeStats(0.6, 2.0),
        "R4": EdgeStats(0.5, 2.0),
        "R5": EdgeStats(0.7, 2.0),
        "R6": EdgeStats(0.4, 3.0),
    }
    return jt.running_example(stats)


def oracle_sql(tree) -> str:
    parts = [f"SELECT * FROM {tree.root}"]
    for c in tree.bfs_order()[1:]:
        pcol, ccol = tree.join_cols[c]
        parts.append(f"JOIN {c} ON {pcol} = {ccol}")
    return " ".join(parts)


@pytest.fixture(scope="module")
def ex(spark):
    tree = example_tree()
    pdata = gen_tree_data(tree, N_DRIVER, seed=42)
    sdata = {n: spark.createDataFrame(pdf) for n, pdf in pdata.items()}
    return tree, sdata, pdata


class TestOracleCorrectness:
    @pytest.mark.parametrize("strategy", STRATS)
    def test_flat_result_matches_duckdb(self, spark, ex, strategy):
        tree, sdata, pdata = ex
        res = run_strategy(spark, tree, sdata, strategy, keep_result=True)
        assert_equivalent(res.result, oracle_sql(tree), **pdata)

    @pytest.mark.parametrize("strategy", ["COM", "BVP+STD", "SJ+COM"])
    def test_nondefault_order_still_correct(self, spark, ex, strategy):
        tree, sdata, pdata = ex
        order = ["R5", "R6", "R2", "R4", "R3"]
        res = run_strategy(spark, tree, sdata, strategy, order=order, keep_result=True)
        assert_equivalent(res.result, oracle_sql(tree), **pdata)

    def test_bloom_mode_still_correct(self, spark, ex):
        # Bloom false positives must not change the result (§2.2).
        tree, sdata, pdata = ex
        res = run_strategy(
            spark, tree, sdata, "BVP+STD", bv_mode="bloom", bloom_bits=1 << 8, bloom_k=1,
            keep_result=True,
        )
        assert_equivalent(res.result, oracle_sql(tree), **pdata)

    def test_timing_mode_same_output_count(self, spark, ex):
        tree, sdata, pdata = ex
        a = run_strategy(spark, tree, sdata, "COM", measure=True)
        b = run_strategy(spark, tree, sdata, "COM", measure=False)
        assert a.out_rows == b.out_rows


class TestSimulatorEquivalence:
    """On identical data with exact bitvectors, the engine's counters must
    equal the pandas reference simulator's exactly."""

    @pytest.mark.parametrize("strategy", STRATS)
    def test_counts_match_simulator(self, spark, ex, strategy):
        tree, sdata, pdata = ex
        eng = run_strategy(spark, tree, sdata, strategy)
        sim = simulate(tree, pdata, strategy)
        assert eng.order == sim.order
        assert eng.counts.hash_probes == sim.counts.hash_probes
        assert eng.counts.bv_probes == sim.counts.bv_probes
        assert eng.counts.sj_probes == sim.counts.sj_probes
        assert eng.out_rows == sim.out_rows

    def test_factorized_rows_match(self, spark, ex):
        tree, sdata, pdata = ex
        eng = run_strategy(spark, tree, sdata, "COM", flat_output=False)
        sim = simulate(tree, pdata, "COM", flat_output=False)
        assert eng.factorized_rows == sim.factorized_rows
        assert eng.out_rows is None

    @pytest.mark.parametrize("shape,mk", [
        ("star", lambda: jt.star(4, {f"R{i}": EdgeStats(0.6, 2.0) for i in range(2, 6)})),
        ("path", lambda: jt.path(5, {f"R{i}": EdgeStats(0.7, 2.0) for i in range(2, 6)})),
        ("snow", lambda: jt.snowflake(2, 1, {c: EdgeStats(0.6, 2.0) for c in ["R2", "R3", "R4", "R5"]})),
    ])
    @pytest.mark.parametrize("strategy", ["COM", "SJ+STD"])
    def test_shapes_match_simulator(self, spark, shape, mk, strategy):
        tree = mk()
        pdata = gen_tree_data(tree, 200, seed=5)
        sdata = {n: spark.createDataFrame(pdf) for n, pdf in pdata.items()}
        eng = run_strategy(spark, tree, sdata, strategy)
        sim = simulate(tree, pdata, strategy)
        assert eng.counts.hash_probes == sim.counts.hash_probes
        assert eng.out_rows == sim.out_rows


def mn_tables() -> dict[str, pd.DataFrame]:
    """Small edge tables with duplicate, zipf-skewed keys; ``z`` shares no
    ``src`` value with any ``dst`` (an m = 0 edge)."""
    rng = np.random.default_rng(11)

    def skewed(n, dom, alpha):
        w = np.arange(1, dom + 1, dtype=float) ** -alpha
        return rng.choice(dom, size=n, p=w / w.sum())

    t = {
        lab: pd.DataFrame({"src": skewed(n, ds, 1.0), "dst": skewed(n, dd, 0.8)})
        for lab, n, ds, dd in (("a", 30, 8, 12), ("b", 25, 14, 8), ("c", 20, 10, 6))
    }
    t["z"] = pd.DataFrame({"src": np.arange(100, 110), "dst": np.arange(10)})
    return t


# Depth 3 with a side branch, so the probe from Q2 into Q4 must see the
# deaths that joining Q3 caused at the root; "empty" adds an m = 0 leaf
# under Q3, which kills every row.
MN_OCC = {"Q1": "a", "Q2": "b", "Q3": "c", "Q4": "a", "Q5": "b"}
MN_EDGES = {
    "Q2": ("Q1", "dst", "src"),
    "Q3": ("Q1", "src", "src"),
    "Q4": ("Q2", "dst", "src"),
    "Q5": ("Q4", "dst", "dst"),
}
MN_QUERIES = {
    "mn": (MN_OCC, MN_EDGES),
    "empty": ({**MN_OCC, "Q6": "z"}, {**MN_EDGES, "Q6": ("Q3", "dst", "src")}),
}


@pytest.fixture(scope="module", params=sorted(MN_QUERIES))
def mn(request, spark):
    occ, edges = MN_QUERIES[request.param]
    tree, pdata = bind_query(mn_tables(), occ, edges, "Q1")
    sdata = {n: spark.createDataFrame(pdf) for n, pdf in pdata.items()}
    return tree, sdata, pdata


class TestManyToMany:
    """Composite spine keys only matter when keys repeat: counts, factorized
    sizes and results on many-to-many data, with and without an m = 0 edge."""

    @pytest.mark.parametrize("strategy", STRATS)
    def test_matches_simulator_and_duckdb(self, spark, mn, strategy):
        tree, sdata, pdata = mn
        for flat in (True, False):
            eng = run_strategy(spark, tree, sdata, strategy, flat_output=flat, keep_result=flat)
            sim = simulate(tree, pdata, strategy, flat_output=flat)
            assert eng.order == sim.order
            assert eng.counts == sim.counts
            assert eng.factorized_rows == sim.factorized_rows
            assert eng.out_rows == sim.out_rows
            if flat:
                assert_equivalent(eng.result, oracle_sql(tree), **pdata)


class TestJobCount:
    """COM's Spark jobs grow with the number of joins, not with depth."""

    @pytest.mark.parametrize("mk", [lambda: jt.star(6), lambda: jt.centered_path(11)], ids=["star7", "path11"])
    def test_com_jobs_linear_in_joins(self, spark, mk):
        tree = mk()
        pdata = gen_tree_data(tree, 200, seed=3)
        sdata = {n: spark.createDataFrame(pdf) for n, pdf in pdata.items()}
        sc = spark.sparkContext
        group = f"com-jobs-{len(tree.nodes)}"
        sc.setJobGroup(group, "COM job count")
        try:
            res = run_strategy(spark, tree, sdata, "COM", measure=False)
            jobs = sc.statusTracker().getJobIdsForGroup(group)
        finally:
            sc._jsc.clearJobGroup()
        assert res.out_rows == simulate(tree, pdata, "COM").out_rows
        assert len(jobs) <= 10 * len(tree.nonroot), f"{len(jobs)} jobs"


class TestStrategySemantics:
    def test_com_fewer_probes_than_std(self, spark, ex):
        tree, sdata, _ = ex
        order = ["R2", "R3", "R4", "R5", "R6"]
        com = run_strategy(spark, tree, sdata, "COM", order=order)
        std = run_strategy(spark, tree, sdata, "STD", order=order)
        assert com.counts.total_hash_probes < std.counts.total_hash_probes

    def test_bvp_reduces_hash_probes(self, spark, ex):
        tree, sdata, _ = ex
        std = run_strategy(spark, tree, sdata, "STD")
        bvp = run_strategy(spark, tree, sdata, "BVP+STD")
        assert bvp.counts.total_hash_probes <= std.counts.total_hash_probes
        assert bvp.counts.total_bv_probes > 0

    def test_sj_probes_counted(self, spark, ex):
        tree, sdata, _ = ex
        res = run_strategy(spark, tree, sdata, "SJ+STD")
        assert res.counts.total_sj_probes > 0

    def test_wall_time_recorded(self, spark, ex):
        tree, sdata, _ = ex
        res = run_strategy(spark, tree, sdata, "COM", measure=False)
        assert res.wall_time_s > 0

    def test_unknown_strategy_rejected(self, spark, ex):
        tree, sdata, _ = ex
        with pytest.raises(ValueError):
            run_strategy(spark, tree, sdata, "NOPE")

    def test_cost_model_predicts_engine_probes(self, spark, ex):
        # End-to-end: §3 estimates ≈ engine observations on model-friendly data.
        tree, sdata, _ = ex
        order = ["R2", "R3", "R5", "R4", "R6"]
        eng = run_strategy(spark, tree, sdata, "COM", order=order)
        est = cm.com_costs(tree, order, N_DRIVER)
        for op in order:
            assert eng.counts.hash_probes[op] == pytest.approx(est.hash_probes[op], rel=0.2, abs=15)


class TestBloomSubstrate:
    def test_exact_vs_bloom_filter_superset(self, spark, ex):
        # A bloom filter may pass extra (false-positive) rows but never
        # drop a true match: bloom-filtered driver ⊇ exact-filtered driver.
        from repro.bloom import build_bitvector

        tree, sdata, _ = ex
        col_p, col_c = tree.join_cols["R2"]
        exact = build_bitvector(sdata["R2"], col_c, "exact")
        bloom = build_bitvector(sdata["R2"], col_c, "bloom", n_bits=1 << 7, k=1)
        n_exact = exact.filter(sdata["R1"], col_p).count()
        n_bloom = bloom.filter(sdata["R1"], col_p).count()
        assert n_bloom >= n_exact

    def test_bloom_fpr_decreases_with_bits(self, spark, ex):
        from repro.bloom import SparkBloomFilter

        tree, sdata, _ = ex
        col_c = tree.join_cols["R2"][1]
        small = SparkBloomFilter(sdata["R2"], col_c, n_bits=1 << 7, k=1)
        big = SparkBloomFilter(sdata["R2"], col_c, n_bits=1 << 14, k=1)
        assert big.fpr < small.fpr

    def test_bad_bloom_params(self, spark, ex):
        from repro.bloom import SparkBloomFilter

        tree, sdata, _ = ex
        with pytest.raises(ValueError):
            SparkBloomFilter(sdata["R2"], tree.join_cols["R2"][1], n_bits=0)

    def test_unknown_mode(self, spark, ex):
        from repro.bloom import build_bitvector

        tree, sdata, _ = ex
        with pytest.raises(ValueError):
            build_bitvector(sdata["R2"], tree.join_cols["R2"][1], "vibes")
