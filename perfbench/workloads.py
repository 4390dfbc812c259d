"""Benchmark inputs: join-tree workloads generated from the ``--seed`` argument.

Every seed used here is derived from the benchmark's seed with
``zlib.crc32`` — never with ``hash()``, which Python randomizes per
process — so two processes given the same seed build identical
relations. :func:`fingerprint` records that; running this file prints the
fingerprint, which the traced run compares against its own.

    python3 perfbench/workloads.py star-wide 1

Workloads keep the amount of work steady from seed to seed: synthetic
edge statistics are stratified draws (so the expected output size is the
same for every seed), and the many-to-many workload is rejection-sampled
into a narrow output-size window, as the paper filters CE queries by
result size.
"""
from __future__ import annotations

import json
import random
import sys
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pandas as pd

if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.ce_lite.datasets import DATASETS  # noqa: E402
from repro.ce_lite.queries import bind_query, output_count  # noqa: E402
from repro.core import jointree as jt  # noqa: E402
from repro.core.datagen import gen_tree_data  # noqa: E402
from repro.core.jointree import EdgeStats, JoinTree  # noqa: E402


@dataclass(frozen=True)
class Synthetic:
    """A paper query shape over unique-id data with per-edge (m, fo)."""

    shape: str  # "star" (star(6), star7) or "path" (centered_path(11), path11)
    n_driver: int
    m: tuple[float, float]
    fo: tuple[float, float]

    def tree(self) -> JoinTree:
        return jt.star(6) if self.shape == "star" else jt.centered_path(11)


@dataclass(frozen=True)
class ManyToMany:
    """A fixed pattern query bound to zipfian ``imdb_lite`` edge tables."""

    occurrences: dict[str, str]
    edges: dict[str, tuple[str, str, str]]
    out_window: tuple[int, int]


WORKLOADS: dict[str, Synthetic | ManyToMany] = {
    "star-wide": Synthetic("star", 20_000, (0.5, 0.9), (1.0, 4.0)),
    "path-selective": Synthetic("path", 5_000, (0.2, 0.6), (1.0, 5.0)),
    "imdb-mn": ManyToMany(
        occurrences={"Q1": "directs", "Q2": "acts_in", "Q3": "has_genre", "Q4": "directs", "Q5": "acts_in"},
        edges={
            "Q2": ("Q1", "dst", "dst"),
            "Q3": ("Q1", "dst", "src"),
            "Q4": ("Q1", "src", "src"),
            "Q5": ("Q4", "dst", "dst"),
        },
        out_window=(1_100_000, 1_300_000),
    ),
}

MAX_ATTEMPTS = 200


def derive_seed(workload: str, seed: int, attempt: int = 0) -> int:
    return zlib.crc32(f"{workload}/{seed}/{attempt}".encode())


def _stratified(rng: random.Random, lo: float, hi: float, k: int) -> list[float]:
    """The midpoints of k equal strata of [lo, hi], in random order: a
    uniform draw whose product does not depend on the seed."""
    vals = [lo + (hi - lo) * (i + 0.5) / k for i in range(k)]
    rng.shuffle(vals)
    return vals


def _zipf(rng: np.random.Generator, n_domain: int, n: int, alpha: float) -> np.ndarray:
    if alpha <= 0:
        return rng.integers(0, n_domain, n)
    w = np.arange(1, n_domain + 1, dtype=np.float64) ** -alpha
    return rng.choice(n_domain, size=n, p=w / w.sum())


def _imdb_tables(rng: np.random.Generator) -> dict[str, pd.DataFrame]:
    """``imdb_lite`` edge tables (sf=1) drawn from the benchmark's own
    generator; ``ce_lite.load_dataset`` seeds from ``hash(name)``."""
    return {
        lab.name: pd.DataFrame(
            {
                "src": _zipf(rng, lab.n_src, lab.n_edges, lab.alpha_src),
                "dst": _zipf(rng, lab.n_dst, lab.n_edges, lab.alpha_dst),
            }
        ).drop_duplicates(ignore_index=True)
        for lab in DATASETS["imdb_lite"]
    }


def find_draw(name: str, seed: int) -> int:
    """The draw ``make_inputs`` builds: for the many-to-many workload, the
    first attempt whose flat output lies in the window; otherwise 0.
    Kept apart so that timed set-up builds one draw, not the rejected ones."""
    spec = WORKLOADS[name]
    if isinstance(spec, Synthetic):
        return 0
    lo, hi = spec.out_window
    for attempt in range(MAX_ATTEMPTS):
        tree, pdata = make_inputs(name, seed, attempt)
        if lo <= output_count(tree, pdata) <= hi:
            return attempt
    raise RuntimeError(f"{name}: no draw with output in {spec.out_window} in {MAX_ATTEMPTS} attempts")


def make_inputs(name: str, seed: int, draw: int) -> tuple[JoinTree, dict[str, pd.DataFrame]]:
    """The workload's join tree (stats, sizes and join columns bound) and
    one pandas frame per node."""
    spec = WORKLOADS[name]
    if isinstance(spec, Synthetic):
        tree = spec.tree()
        rng = random.Random(derive_seed(name, seed))
        kids = tree.nonroot
        ms = _stratified(rng, *spec.m, len(kids))
        fos = _stratified(rng, *spec.fo, len(kids))
        for c, m, fo in zip(kids, ms, fos):
            tree.stats[c] = EdgeStats(m, fo)
        return tree, gen_tree_data(tree, spec.n_driver, seed=derive_seed(name, seed, 1))
    tables = _imdb_tables(np.random.default_rng(derive_seed(name, seed, draw)))
    return bind_query(tables, spec.occurrences, spec.edges, "Q1")


def fingerprint(pdata: dict[str, pd.DataFrame]) -> dict[str, list[int]]:
    """Row count and CRC-32 (over column names and values) per relation."""
    out = {}
    for n in sorted(pdata):
        df = pdata[n]
        crc = zlib.crc32(",".join(df.columns).encode())
        crc = zlib.crc32(np.ascontiguousarray(df.to_numpy(dtype=np.int64)).tobytes(), crc)
        out[n] = [len(df), crc]
    return out


def fingerprint_digest(fp: dict[str, list[int]]) -> int:
    return zlib.crc32(json.dumps(fp, sort_keys=True).encode())


if __name__ == "__main__":
    name, seed = sys.argv[1], int(sys.argv[2])
    _, pdata = make_inputs(name, seed, find_draw(name, seed))
    print(json.dumps(fingerprint(pdata), sort_keys=True))
