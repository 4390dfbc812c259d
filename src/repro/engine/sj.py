"""SJ+STD / SJ+COM: two-phase semi-join full reduction (§3.6, §4.5).

Phase 1 cascades bottom-up ``left_semi`` joins: each internal node is
reduced against its already-reduced children (children visited in
increasing adjusted match probability m', the §3.6 optimal order),
finishing with the fully reduced driver. Phase 2 is a plain STD or COM
pipeline over the reduced relations — every phase-2 probe finds a match.
"""
from __future__ import annotations

from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.core.costmodel import CostBreakdown, sj_adjusted
from repro.core.jointree import JoinTree

from .common import ckpt


def run_sj_phase1(
    tree: JoinTree,
    data: dict[str, DataFrame],
    counts: CostBreakdown,
    measure: bool,
    semi_orders: dict[str, list[str]] | None = None,
) -> dict[str, DataFrame]:
    """Returns the reduced relation per node (leaves unreduced)."""
    _, adj = sj_adjusted(tree)
    reduced: dict[str, DataFrame] = dict(data)
    for p in tree.bottom_up():
        kids = tree.children(p)
        if not kids:
            continue
        if semi_orders and p in semi_orders:
            kids = semi_orders[p]
        else:
            kids = sorted(kids, key=lambda c: (adj[c].m, c))
        df = data[p]
        for c in kids:
            if measure:
                counts.sj_probes[c] = counts.sj_probes.get(c, 0.0) + df.count()
            pcol, ccol = tree.join_cols[c]
            keys = reduced[c].select(F.col(ccol).alias("__sj_key")).distinct()
            df = df.join(keys, on=F.col(pcol) == F.col("__sj_key"), how="left_semi")
            if measure:
                df = ckpt(df)
        reduced[p] = ckpt(df)
    return reduced


def run_sj(
    tree: JoinTree,
    data: dict[str, DataFrame],
    order: list[str],
    counts: CostBreakdown,
    measure: bool,
    *,
    com: bool,
    flat_output: bool,
    semi_orders: dict[str, list[str]] | None = None,
) -> tuple[DataFrame | None, int | None]:
    from .com import run_com
    from .std import run_std

    reduced = run_sj_phase1(tree, data, counts, measure, semi_orders)
    if com:
        return run_com(tree, reduced, order, None, counts, measure, flat_output)
    return run_std(tree, reduced, order, None, counts, measure), None
