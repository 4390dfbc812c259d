"""CE-lite datasets and query sampling (pure pandas — fast)."""
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from repro.ce_lite import DATASETS, bind_query, load_dataset, random_query
from repro.ce_lite.queries import edge_true_stats, output_count
from repro.core.datagen import flat_join_pandas, id_col
from repro.core.simulator import simulate


@pytest.fixture(scope="module")
def dblp():
    return load_dataset("dblp_lite", sf=0.3, seed=1)


class TestDatasets:
    @pytest.mark.parametrize("name", sorted(DATASETS))
    def test_loads_and_has_labels(self, name):
        t = load_dataset(name, sf=0.1, seed=0)
        assert set(t) == {lab.name for lab in DATASETS[name]}
        for df in t.values():
            assert list(df.columns) == ["src", "dst"]
            assert len(df) > 0

    def test_unknown_dataset(self):
        with pytest.raises(ValueError):
            load_dataset("tpch")

    def test_deterministic(self):
        a = load_dataset("yago_lite", sf=0.1, seed=3)
        b = load_dataset("yago_lite", sf=0.1, seed=3)
        for k in a:
            assert a[k].equals(b[k])

    def test_same_in_every_process(self):
        # ``hash`` of a string changes with PYTHONHASHSEED; dataset seeds and
        # the experiments' per-query RNGs must not.
        import repro

        code = (
            "import zlib\n"
            "from repro.ce_lite import load_dataset\n"
            "from repro.experiments.common import seeded_rng\n"
            "t = load_dataset('yago_lite', sf=0.1, seed=3)\n"
            "print([zlib.crc32(t[k].to_numpy().tobytes()) for k in sorted(t)], seeded_rng(3, 'star').random())\n"
        )
        src = str(Path(repro.__file__).resolve().parents[1])
        outs = [
            subprocess.run(
                [sys.executable, "-c", code],
                env={**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": str(h)},
                capture_output=True, text=True, check=True, timeout=120,
            ).stdout
            for h in (1, 2)
        ]
        assert outs[0] == outs[1]

    def test_edges_deduplicated(self, dblp):
        for df in dblp.values():
            assert not df.duplicated().any()

    def test_skewed_degrees(self, dblp):
        # Zipf sources: the top source id should have far more edges than
        # the median — the many-to-many explosion driver.
        deg = dblp["cites"].groupby("src").size()
        assert deg.max() >= 5 * max(deg.median(), 1)

    def test_sf_scales_edges(self):
        small = load_dataset("imdb_lite", sf=0.05, seed=0)
        big = load_dataset("imdb_lite", sf=0.5, seed=0)
        assert len(big["acts_in"]) > 3 * len(small["acts_in"])


class TestTrueStats:
    def test_edge_true_stats_exact(self, dblp):
        import pandas as pd

        r = pd.DataFrame({"k": [1, 2, 3, 4]})
        s = pd.DataFrame({"j": [1, 1, 1, 3]})
        st = edge_true_stats(r, "k", s, "j")
        assert st.m == pytest.approx(0.5)  # keys 1 and 3 match
        assert st.fo == pytest.approx(2.0)  # (3 + 1)/2

    def test_zero_match(self):
        import pandas as pd

        st = edge_true_stats(pd.DataFrame({"k": [9]}), "k", pd.DataFrame({"j": [1]}), "j")
        assert st.m == 0.0 and st.fo == 0.0


class TestBindQuery:
    def test_bind_two_hop(self, dblp):
        tree, data = bind_query(
            dblp,
            {"Q1": "writes", "Q2": "cites", "Q3": "published_in"},
            {"Q2": ("Q1", "dst", "src"), "Q3": ("Q2", "dst", "src")},
            "Q1",
        )
        assert tree.root == "Q1"
        assert tree.join_cols["Q2"] == ("Q1__dst", "Q2__src")
        for n in tree.nodes:
            assert id_col(n) in data[n].columns
        # Stats are exact: verify one edge by hand.
        st = edge_true_stats(data["Q1"], "Q1__dst", data["Q2"], "Q2__src")
        assert tree.stats["Q2"].m == st.m and tree.stats["Q2"].fo == st.fo

    def test_output_count_matches_pandas_flat_join(self, dblp):
        tree, data = bind_query(
            dblp,
            {"Q1": "writes", "Q2": "cites"},
            {"Q2": ("Q1", "dst", "src")},
            "Q1",
        )
        assert output_count(tree, data) == len(flat_join_pandas(tree, data))

    def test_output_count_matches_duckdb(self, dblp):
        from repro.ce_lite.queries import output_count_duckdb

        tree, data = bind_query(
            dblp,
            {"Q1": "writes", "Q2": "cites", "Q3": "published_in"},
            {"Q2": ("Q1", "dst", "src"), "Q3": ("Q2", "dst", "src")},
            "Q1",
        )
        assert output_count(tree, data) == output_count_duckdb(tree, data)


class TestRandomQuery:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_sampled_query_well_formed(self, dblp, seed):
        tree, data = random_query(random.Random(seed), dblp, n_rels=4)
        assert len(tree.nodes) == 4
        for c in tree.nonroot:
            assert tree.stats[c].m >= 0.05
        n_out = output_count(tree, data)
        assert 1 <= n_out <= 2e6

    def test_simulator_runs_on_ce_queries(self, dblp):
        # The whole engine stack must accept CE-style m:n data (keys are
        # genuinely many-to-many, unlike the controlled generator).
        tree, data = random_query(random.Random(5), dblp, n_rels=4)
        flat = len(flat_join_pandas(tree, data))
        for strat in ["STD", "COM", "BVP+COM", "SJ+STD", "SJ+COM"]:
            st = simulate(tree, data, strat)
            assert st.out_rows == flat, strat

    def test_impossible_constraints_raise(self, dblp):
        with pytest.raises(RuntimeError):
            random_query(random.Random(0), dblp, n_rels=4, min_out=10**12, max_tries=3)
