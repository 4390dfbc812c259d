"""COM / BVP+COM: factorized execution avoiding redundant probes (§4.2–4.3).

The factorized intermediate representation is realized relationally, as
one *spine* frame per joined node:

- ``spine[n]`` — the flat expansion of the *path* driver→n only (the
  analogue of the paper's per-node VectorColumns grouped under their
  ancestors' count columns); built when n is joined, from its parent's
  spine — this is where redundant probes are avoided, since side branches
  never multiply into the probe stream;
- survival is the spine itself, pruned in place (the analogue of the
  selection vectors). Every relation carries a unique ``<R>__id``, so a
  spine row is unique on its composite key (the id columns along the
  path) and the spine's key set *is* n's alive set. After ``l`` joins,
  each path ancestor's spine is re-derived as the distinct projection of
  ``l``'s new spine — the upward death propagation, with no join. Deaths
  flow downward lazily: a probe from ``p`` semi-joins ``p``'s spine
  against only those path ancestors rebuilt after ``p``'s spine was;
- the final *expansion* (§4.3 "Result Expansion") inner-joins the pruned
  spines back along the tree in BFS order, which drops rows whose
  ancestors died; factorized sizes are counted top-down, each spine
  semi-joined to its parent's final spine.

Every operation below is a Catalyst plan (joins, left-semi joins,
distinct); one ``localCheckpoint`` per joined relation pins the
factorized state where the paper's engine materializes its vectors.
"""
from __future__ import annotations

from pyspark.sql import DataFrame

from repro.core.costmodel import CostBreakdown
from repro.core.jointree import JoinTree

from .common import Gater, ckpt, keycols


def run_com(
    tree: JoinTree,
    data: dict[str, DataFrame],
    order: list[str],
    gater: Gater | None,
    counts: CostBreakdown,
    measure: bool,
    flat_output: bool,
) -> tuple[DataFrame | None, int | None]:
    """Execute the factorized plan; returns (flat result | None, factorized
    row count). The flat result is lazy; factorized sizes are counted
    eagerly (they are the terminal action in factorized-output mode)."""
    order_pos = {c: i for i, c in enumerate(order)}
    root = tree.root
    driver = data[root]
    if gater:
        driver = gater.gate_children(driver, root, order_pos, counts, measure)
    spine: dict[str, DataFrame] = {root: ckpt(driver)}
    # The step at which each spine was last rebuilt. A rebuild leaves the
    # spine consistent with all its path ancestors' spines of that step.
    built: dict[str, int] = {root: 0}

    for step, l in enumerate(order, 1):
        p = tree.parent[l]
        asp = spine[p]
        for a in tree.path_to_root(p)[1:]:
            if built[a] > built[p]:
                asp = asp.join(spine[a].select(keycols(tree, a)), on=keycols(tree, a), how="left_semi")
        if measure:
            # The probe-side frame is consumed once; pin it only when the
            # count action would otherwise recompute it.
            asp = ckpt(asp)
            counts.hash_probes[l] = float(asp.count())
        pcol, ccol = tree.join_cols[l]
        sp = asp.join(data[l], on=asp[pcol] == data[l][ccol], how="inner")
        if measure:
            sp = ckpt(sp)
            counts.tuples_generated += sp.count()
        if gater and tree.children(l):
            sp = gater.gate_children(sp, l, order_pos, counts, measure)
        spine[l] = sp = ckpt(sp)
        built[l] = step
        # Upward death propagation: ``asp`` carried every ancestor's deaths,
        # so an ancestor survives iff it still has a row in ``sp``.
        for a in tree.path_to_root(l)[1:]:
            spine[a] = sp.select(spine[a].columns).distinct()
            built[a] = step

    fact_rows = None
    if measure or not flat_output:
        final: dict[str, DataFrame] = {}
        for n in [root, *order]:
            sp = spine[n]
            if n != root:
                p = tree.parent[n]
                sp = sp.join(final[p].select(keycols(tree, p)), on=keycols(tree, p), how="left_semi")
            final[n] = ckpt(sp) if tree.children(n) else sp
        fact_rows = sum(sp.count() for sp in final.values())

    if not flat_output:
        return None, fact_rows

    flat = spine[root]
    for c in tree.bfs_order()[1:]:
        p = tree.parent[c]
        piece = spine[c].select(keycols(tree, p) + data[c].columns)
        flat = flat.join(piece, on=keycols(tree, p), how="inner")
        if measure:
            flat = ckpt(flat)
            counts.expansion_tuples += flat.count()
    return flat, fact_rows
