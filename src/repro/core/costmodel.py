"""Probe-count cost model for left-deep plans over many-to-many joins (§3).

Implements the paper's estimators for the six execution strategies:

- ``std_costs``  — standard pipelined execution (STD), optionally with
  bitvector early pruning (BVP+STD, §3.5);
- ``com_costs``  — factorized execution avoiding redundant probes (COM,
  Eq. 1 / §3.3), optionally with bitvectors (BVP+COM, §3.5);
- ``sj_costs``   — two-phase semi-join full reduction (SJ+STD / SJ+COM,
  §3.6, Thm 3.4).

Probe semantics
---------------

A *hash probe* is one lookup of a key into a join operator's hash table; a
*bitvector probe* is one membership check against a pushed-down bitvector
(false-positive rate ``eps``); a *semi-join probe* is one phase-1 existence
check. Bitvector and semi-join probes are cheaper (weight ½ by the paper's
micro-benchmarks); generating one intermediate/output tuple costs 1/14 of a
hash probe (§5.4). :class:`Weights` captures these.

BVP model (one-step lookahead, matching §3.5's formulas): every non-root
node ``c`` owns a bitvector built from the *unfiltered base* relation
``R_c``. When a node ``a`` materializes (the driver at pipeline start, any
other node right after its join), the stream/spine is immediately checked
against the bitvectors of all of ``a``'s children, in join-order sequence.
A check passes with probability ``m_c + eps``; true matches always pass.
At the hash join with ``c`` the pending gate ``(m_c + eps)`` is *consumed*
and replaced by the true factors ``m_c · fo_c`` (COM: by branch survival).
"""
from __future__ import annotations

from dataclasses import dataclass, field

from .jointree import EdgeStats, JoinTree

STRATEGIES = ("STD", "COM", "BVP+STD", "BVP+COM", "SJ+STD", "SJ+COM")


@dataclass(frozen=True)
class Weights:
    """Relative cost of the probe/generation primitives (§5.4)."""

    hash_probe: float = 1.0
    bv_probe: float = 0.5
    sj_probe: float = 0.5
    tuple_gen: float = 1.0 / 14.0


@dataclass
class CostBreakdown:
    """Expected operation counts of one plan; ``total`` applies Weights."""

    hash_probes: dict[str, float] = field(default_factory=dict)
    bv_probes: dict[str, float] = field(default_factory=dict)
    sj_probes: dict[str, float] = field(default_factory=dict)
    tuples_generated: float = 0.0
    expansion_tuples: float = 0.0

    @property
    def total_hash_probes(self) -> float:
        return sum(self.hash_probes.values())

    @property
    def total_bv_probes(self) -> float:
        return sum(self.bv_probes.values())

    @property
    def total_sj_probes(self) -> float:
        return sum(self.sj_probes.values())

    def total(self, w: Weights = Weights()) -> float:
        return (
            w.hash_probe * self.total_hash_probes
            + w.bv_probe * self.total_bv_probes
            + w.sj_probe * self.total_sj_probes
            + w.tuple_gen * (self.tuples_generated + self.expansion_tuples)
        )


# --------------------------------------------------------------------------
# Survival probabilities (m_T) and spine sizes — the COM core (§3.3, §3.5)
# --------------------------------------------------------------------------


def branch_factor(
    tree: JoinTree,
    c: str,
    processed: frozenset | set,
    gated: frozenset | set = frozenset(),
    eps: float = 0.0,
) -> float:
    """Effective survival factor of the branch rooted at ``c``.

    - ``c`` fully joined (in ``processed``): the recursive branch-survival
      probability m_T of §3.3, where *gated-but-unjoined* descendants
      contribute their bitvector pass probability ``m + eps`` (§3.5 — cf.
      the paper's ``m_3 (m_4 + eps)`` term inside the survival bracket);
    - ``c`` only gated: ``m_c + eps``;
    - ``c`` untouched: 1 (no information yet).
    """
    if c in processed:
        st = tree.stats[c]
        prod = 1.0
        for d in tree.children(c):
            prod *= branch_factor(tree, d, processed, gated, eps)
        if prod >= 1.0:
            return st.m
        return st.m * (1.0 - (1.0 - prod) ** st.fo)
    if c in gated:
        return min(1.0, tree.stats[c].m + eps)
    return 1.0


def _gated_set(tree: JoinTree, processed: set[str], bvp: bool) -> set[str]:
    """Nodes whose bitvector gate is pending: parent materialized, self not
    joined. Materialized = {root} ∪ processed."""
    if not bvp:
        return set()
    mat = processed | {tree.root}
    return {c for c in tree.nonroot if c not in processed and tree.parent[c] in mat}


def com_spine_size(
    tree: JoinTree,
    a: str,
    processed: set[str],
    gated: set[str],
    n_driver: float,
    eps: float = 0.0,
) -> float:
    """Expected number of *alive* spine rows at node ``a`` (Eq. 1).

    The spine of ``a`` is the flat expansion of the path driver→a only;
    a spine row is alive if, for every path ancestor, all of its processed
    side branches found a match (and all pending gates passed, under BVP).
    """
    path = tree.path_from_root(a)
    pathset = set(path)
    val = n_driver
    for b in path:
        if b != tree.root:
            st = tree.stats[b]
            val *= st.m * st.fo
        for c in tree.children(b):
            if c in pathset:
                continue
            val *= branch_factor(tree, c, processed, gated, eps)
    return val


def com_hash_probes_into(
    tree: JoinTree,
    l: str,
    processed: set[str],
    n_driver: float,
    *,
    bvp: bool = False,
    eps: float = 0.0,
) -> float:
    """Expected hash probes into operator ``⋈ R_l`` under COM (Eq. 1),
    given the set of previously joined operators. Under BVP the stream has
    additionally passed BV(l) and every other pending gate."""
    p = tree.parent[l]
    gated = _gated_set(tree, processed, bvp)
    gated.discard(l)
    base = com_spine_size(tree, p, processed, gated, n_driver, eps)
    if bvp:
        base *= min(1.0, tree.stats[l].m + eps)
    return base


# --------------------------------------------------------------------------
# Full-plan estimators
# --------------------------------------------------------------------------


def _check_order(tree: JoinTree, order: list[str]) -> None:
    if not tree.is_valid_order(order):
        raise ValueError(f"invalid left-deep order {order} for tree rooted at {tree.root}")


def _bv_probes_at(
    tree: JoinTree,
    a: str,
    stream: float,
    order_pos: dict[str, int],
    out: dict[str, float],
    eps: float,
) -> None:
    """Sequential bitvector checks of ``a``'s children against ``stream``
    rows, in join-order sequence; accumulates per-BV probe counts."""
    kids = sorted(tree.children(a), key=lambda c: order_pos[c])
    for c in kids:
        out[c] = out.get(c, 0.0) + stream
        stream *= min(1.0, tree.stats[c].m + eps)


def expected_output(tree: JoinTree, n_driver: float | None = None) -> float:
    """E[|OUT|] = N · Π_e m_e·fo_e under independence."""
    n = tree.size.get(tree.root, 0.0) if n_driver is None else n_driver
    for c in tree.nonroot:
        n *= tree.stats[c].s
    return n


def com_costs(
    tree: JoinTree,
    order: list[str],
    n_driver: float,
    *,
    bvp: bool = False,
    eps: float = 0.0,
    flat_output: bool = True,
) -> CostBreakdown:
    """Cost of a COM (factorized) plan, optionally with bitvectors."""
    _check_order(tree, order)
    cb = CostBreakdown()
    order_pos = {c: i for i, c in enumerate(order)}
    processed: set[str] = set()
    if bvp:
        # Driver materializes first: gate all its children on the raw scan.
        _bv_probes_at(tree, tree.root, n_driver, order_pos, cb.bv_probes, eps)
    for l in order:
        st = tree.stats[l]
        hp = com_hash_probes_into(tree, l, processed, n_driver, bvp=bvp, eps=eps)
        cb.hash_probes[l] = hp
        # Fresh spine rows produced by this join (match tuples generated).
        pre_gate = hp / min(1.0, st.m + eps) if bvp else hp
        fresh = pre_gate * st.m * st.fo
        cb.tuples_generated += fresh
        processed.add(l)
        if bvp and tree.children(l):
            # l materialized: gate its children on the fresh spine.
            _bv_probes_at(tree, l, fresh, order_pos, cb.bv_probes, eps)
    if flat_output:
        cb.expansion_tuples = expected_output(tree, n_driver)
    return cb


def std_costs(
    tree: JoinTree,
    order: list[str],
    n_driver: float,
    *,
    bvp: bool = False,
    eps: float = 0.0,
) -> CostBreakdown:
    """Cost of a standard (flat-intermediate) plan, optionally with BVP.

    Stream size before operator l = N · Π_{joined j} m_j·fo_j · Π_{pending
    gates} (m+eps); the classical §2.1 formula when ``bvp`` is off.
    """
    _check_order(tree, order)
    cb = CostBreakdown()
    order_pos = {c: i for i, c in enumerate(order)}
    processed: set[str] = set()
    stream = n_driver
    if bvp:
        _bv_probes_at(tree, tree.root, stream, order_pos, cb.bv_probes, eps)
        for c in tree.children(tree.root):
            stream *= min(1.0, tree.stats[c].m + eps)
    for l in order:
        st = tree.stats[l]
        cb.hash_probes[l] = stream
        if bvp:
            # Consume l's gate: of the (m+eps) passers, the m fraction are
            # true matches producing fo each.
            stream = stream / min(1.0, st.m + eps) * st.m * st.fo
        else:
            stream *= st.m * st.fo
        cb.tuples_generated += stream
        processed.add(l)
        if bvp and tree.children(l):
            _bv_probes_at(tree, l, stream, order_pos, cb.bv_probes, eps)
            for c in tree.children(l):
                stream *= min(1.0, tree.stats[c].m + eps)
    return cb


# --------------------------------------------------------------------------
# Semi-join full reduction (§3.6)
# --------------------------------------------------------------------------


def sj_adjusted(tree: JoinTree) -> tuple[dict[str, float], dict[str, EdgeStats]]:
    """Bottom-up reduction ratios and adjusted per-edge stats (Thm 3.4).

    Returns ``(ratio, adj)`` where ``ratio[n]`` is the fraction of R_n
    surviving reduction by its own subtree's children, and ``adj[c]`` are
    the (m', fo') for probing from parent into the reduced child c.
    """
    ratio: dict[str, float] = {}
    adj: dict[str, EdgeStats] = {}
    for n in tree.bottom_up():
        r = 1.0
        for c in tree.children(n):
            st = tree.stats[c]
            rc = ratio[c]
            if rc <= 0.0 or st.m <= 0.0:
                m_adj, fo_adj = 0.0, 0.0
            else:
                surv = 1.0 - (1.0 - rc) ** st.fo
                m_adj = st.m * surv
                fo_adj = st.fo * rc / surv
            adj[c] = EdgeStats(min(1.0, m_adj), fo_adj)
            r *= adj[c].m
        ratio[n] = r
    return ratio, adj


def sj_phase1_probes(
    tree: JoinTree,
    semi_orders: dict[str, list[str]] | None = None,
) -> dict[str, float]:
    """Expected phase-1 semi-join probes, keyed by the probed child.

    Each internal node p checks its (raw-size) tuples against its reduced
    children in ``semi_orders[p]`` (default: increasing adjusted m', the
    §3.6 optimal order), short-circuiting on the first miss.
    """
    _, adj = sj_adjusted(tree)
    probes: dict[str, float] = {}
    for p in tree.bottom_up():
        kids = tree.children(p)
        if not kids:
            continue
        if semi_orders and p in semi_orders:
            kids = semi_orders[p]
        else:
            kids = sorted(kids, key=lambda c: (adj[c].m, c))
        np_ = tree.size.get(p)
        if np_ is None:
            raise ValueError(f"relation size for {p!r} required for SJ phase-1 cost")
        alive = float(np_)
        for c in kids:
            probes[c] = probes.get(c, 0.0) + alive
            alive *= adj[c].m
    return probes


def sj_costs(
    tree: JoinTree,
    order: list[str] | None,
    n_driver: float,
    *,
    com: bool,
    flat_output: bool = True,
    semi_orders: dict[str, list[str]] | None = None,
) -> CostBreakdown:
    """Cost of the two-phase full-reduction plan (SJ+STD or SJ+COM).

    Phase 2 runs a left-deep plan from the fully reduced driver: all match
    probabilities are 1 and fanouts are the adjusted fo' (Thm 3.4). For
    SJ+COM the probe total is order-independent (Thm 3.5). ``order=None``
    uses the §3.6 optimal phase-2 order.
    """
    ratio, adj = sj_adjusted(tree)
    cb = CostBreakdown()
    cb.sj_probes = sj_phase1_probes(tree, semi_orders)
    n_red = n_driver * ratio[tree.root]
    if order is None:
        order = sj_optimal_phase2_order(tree, com=com)
    _check_order(tree, order)
    if com:
        pathprod: dict[str, float] = {tree.root: 1.0}
        for n in tree.bfs_order()[1:]:
            pathprod[n] = pathprod[tree.parent[n]] * adj[n].fo
        for l in order:
            cb.hash_probes[l] = n_red * pathprod[tree.parent[l]]
            cb.tuples_generated += n_red * pathprod[l]
        if flat_output:
            cb.expansion_tuples = expected_output(tree, n_driver)
    else:
        stream = n_red
        for l in order:
            cb.hash_probes[l] = stream
            stream *= adj[l].fo
            cb.tuples_generated += stream
    return cb


def sj_optimal_phase2_order(tree: JoinTree, *, com: bool) -> list[str]:
    """§3.6 phase-2 orders: STD → greedy increasing adjusted fanout
    (rank ordering, all selectivities 1); COM → increasing product of
    adjusted fanouts from the root. Both pick greedily among the eligible
    relations, so an m' = 0 edge (fo' = 0) cannot precede its parent."""
    _, adj = sj_adjusted(tree)
    pathprod: dict[str, float] = {tree.root: 1.0}
    for n in tree.bfs_order()[1:]:
        pathprod[n] = pathprod[tree.parent[n]] * max(adj[n].fo, 1e-300)

    def key(c: str) -> tuple:
        return (pathprod[c], tree.depth(c), c) if com else (adj[c].fo, c)

    order: list[str] = []
    processed: set[str] = set()
    while len(order) < len(tree.nonroot):
        nxt = min(tree.eligible(processed), key=key)
        order.append(nxt)
        processed.add(nxt)
    return order


# --------------------------------------------------------------------------
# Unified entry point
# --------------------------------------------------------------------------


def plan_costs(
    tree: JoinTree,
    strategy: str,
    order: list[str] | None = None,
    n_driver: float | None = None,
    *,
    eps: float = 0.0,
    flat_output: bool = True,
) -> CostBreakdown:
    """Estimate the cost breakdown of (strategy, order).

    ``strategy`` is one of :data:`STRATEGIES`; ``n_driver`` defaults to
    ``tree.size[root]``; ``order=None`` uses the BFS default (SJ: the
    optimal phase-2 order).
    """
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}; expected one of {STRATEGIES}")
    n = float(tree.size[tree.root]) if n_driver is None else float(n_driver)
    if strategy.startswith("SJ"):
        return sj_costs(tree, order, n, com=strategy.endswith("COM"), flat_output=flat_output)
    if order is None:
        order = tree.default_order()
    bvp = strategy.startswith("BVP")
    if strategy.endswith("COM"):
        return com_costs(tree, order, n, bvp=bvp, eps=eps, flat_output=flat_output)
    return std_costs(tree, order, n, bvp=bvp, eps=eps)


def survival_probability(tree: JoinTree, processed: set[str]) -> float:
    """P[a driver tuple survives all processed join operators] — the
    product of branch survivals at the root (§3.4 heuristic 3)."""
    prod = 1.0
    for c in tree.children(tree.root):
        prod *= branch_factor(tree, c, processed)
    return prod
