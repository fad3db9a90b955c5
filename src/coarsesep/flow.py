"""Concurrent flows with unit vertex capacities versus sparse separations.

The central routine `flow_or_sparse_cut` decides, for a congestion budget
gamma, between

* a product-demand concurrent flow (demand w(u) * w(v) for every ordered
  pair of positive-weight vertices) whose vertex congestion stays at or
  below gamma, and
* a separation (A, B) whose sparsity |A n B| / (w(A) w(B)) is at most
  CUT_CONSTANT * ln(n) / gamma.

Cuts come from prefix sweeps of several vertex orders (BFS region growing,
LP dual lengths, spectral, weight orders).  A call tries, in order:

1. the window: below the endpoint bound max_v 2 w(v) (W - w(v)) no flow
   exists and only the final sweep runs; at or above the flow ceiling W^2
   every routing fits, so the plain BFS trees are returned without
   computing their congestion;
2. inside the window, congestion-aware shortest-path-tree routing;
3. on small graphs, an exact linear program on the standard
   vertex-splitting digraph: every vertex becomes an arc of capacity one,
   so multicommodity edge flows there are exactly vertex-capacitated flows
   here;
4. one sweep for the returned cut, which also walks the LP's dual lengths
   when there are any.

Each cut candidate is recomputed from scratch before it is used, so a
returned object always satisfies its side of the dichotomy.

A tree-routed flow is stored as one parent array per positive source: its
p(p-1) paths (p positive vertices) are walked on demand, never written
out.  At the flow ceiling each parent array is built on first access too.
Only the LP's flows, on small graphs, hold explicit paths.

One peel loop, `_peel`, applies a step to the still-active induced
subgraph and peels the lighter side of each separation until the rest
weighs less than W/2.  `balanced_separator_or_flow` steps with the
dichotomy and ends with either a balanced separator of the whole graph or
a flow on a still-heavy induced subgraph.  `balanced_separator_by_sweeps`
steps with the component split or the plain sweep alone; it needs no
congestion budget, never routes and never solves the LP.
"""

from __future__ import annotations

import heapq
import itertools
import math
from collections.abc import Mapping
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

from .graph import (GraphError, Separation, WeightedGraph,
                    connected_components, induced_subgraph, make_separation)

# c in the sparsity bound c * ln(n) / gamma, fixed by the O(log n) flow-cut
# gap (Leighton and Rao, JACM 1999)
CUT_CONSTANT = 64.0
_LP_MAX_N = 36  # the exact LP runs on hosts up to this many vertices
_TREE_ROUNDS = 3  # routing rounds, each against the last one's congestion
_REL_TOL = 1e-9


class FlowCutError(RuntimeError):
    """Solver failed to produce either side of the flow/cut dichotomy."""

    def __init__(self, message: str, diagnostics: dict | None = None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}


class FlowError(GraphError):
    """A concurrent flow object violates its invariants."""


# ---------------------------------------------------------------------------
# Concurrent flow


class ConcurrentFlow:
    """Path flow routing demand w(u) * w(v) for each ordered positive pair.

    A flow is stored in one of two ways.  An explicit flow (the LP's, or
    the empty one) has `trees` None, and `index` maps each ordered pair
    (u, v) to the (vertex tuple, amount) paths serving it.  A tree flow
    leaves `index` empty, and `trees` maps each positive source s to the
    parent array of its routing tree: pair (s, t) is served by the single
    tree path from s to t at amount w(s) * w(t).  Its paths are walked only
    when asked for, so it takes O(p * n) memory for p positive vertices
    instead of one stored path per ordered pair.  `trees` may build each
    parent array on first access (see `_LazyBfsTrees`), so a flow whose
    paths are looked up for a few sources builds only their trees.
    Congestion at a vertex is the total amount over all paths containing
    it, endpoints included; it is computed on first use, from the paths in
    `routed()` order.
    """

    def __init__(self, host: WeightedGraph,
                 index: dict[tuple[int, int],
                             list[tuple[tuple[int, ...], float]]],
                 trees: Mapping[int, list[int]] | None = None):
        self.host = host
        self.index = index
        self.trees = trees
        self._congestion: list[float] | None = None

    def routed(self) -> Iterator[tuple[int, int, tuple[int, ...], float]]:
        """Every path as (source, target, vertices, amount), in fixed order.

        A tree flow walks its paths source by source, targets in the same
        order; nothing is kept between calls.
        """
        if self.trees is None:
            for (u, v), entries in self.index.items():
                for verts, amount in entries:
                    yield u, v, verts, amount
            return
        w = self.host.weights
        for s in self.trees:
            for t in self.trees:
                if t != s:
                    yield s, t, self._tree_path(s, t), w[s] * w[t]

    def _tree_path(self, s: int, t: int) -> tuple[int, ...]:
        parent = self.trees[s]
        rev = [t]
        while rev[-1] != s:
            x = parent[rev[-1]]
            if x < 0 or len(rev) >= self.host.n:
                raise FlowError(f"tree of source {s} does not lead to {t}")
            rev.append(x)
        rev.reverse()
        return tuple(rev)

    @property
    def paths(self) -> list[tuple[tuple[int, ...], float]]:
        """All (vertex tuple, amount) paths; a tree flow walks every one."""
        return [(verts, amount) for _, _, verts, amount in self.routed()]

    @property
    def path_count(self) -> int:
        if self.trees is None:
            return sum(len(entries) for entries in self.index.values())
        p = len(self.trees)
        return p * (p - 1)

    def congestion_vector(self) -> list[float]:
        if self._congestion is None:
            cong = [0.0] * self.host.n
            for _, _, verts, amount in self.routed():
                for v in verts:
                    cong[v] += amount
            self._congestion = cong
        return self._congestion

    def max_congestion(self) -> float:
        return max(self.congestion_vector(), default=0.0)

    def paths_between(self, u: int, v: int) -> list[tuple[tuple[int, ...], float]]:
        if self.trees is None:
            return list(self.index.get((u, v), []))
        if u == v or u not in self.trees or v not in self.trees:
            return []
        w = self.host.weights
        return [(self._tree_path(u, v), w[u] * w[v])]

    def check(self, tol: float = 1e-6) -> None:
        """Raise FlowError unless paths are valid and all demands are met.

        Every path is checked, a tree flow's included: it is walked here.
        """
        g = self.host
        amounts: dict[tuple[int, int], list[float]] = {}
        for u, v, verts, amount in self.routed():
            if amount < 0:
                raise FlowError("negative path amount")
            if len(verts) < 2:
                raise FlowError("flow path needs at least two vertices")
            if len(set(verts)) != len(verts):
                raise FlowError(f"path {verts} repeats a vertex")
            for a, b in zip(verts, verts[1:]):
                if not g.has_edge(a, b):
                    raise FlowError(f"path step ({a}, {b}) is not an edge")
            if verts[0] != u or verts[-1] != v:
                raise FlowError(f"path {verts} indexed under ({u}, {v})")
            amounts.setdefault((u, v), []).append(amount)
        w = g.weights
        positives = [v for v in range(g.n) if w[v] > 0]
        for u in positives:
            for v in positives:
                if u == v:
                    continue
                want = w[u] * w[v]
                got = math.fsum(amounts.get((u, v), []))
                if abs(got - want) > tol * max(1.0, want):
                    raise FlowError(
                        f"demand ({u}, {v}): routed {got}, want {want}")


# ---------------------------------------------------------------------------
# Flow search: shortest-path-tree routing


def _tree_from(g: WeightedGraph, src: int,
               cost: Sequence[float] | None) -> tuple[list[int], list[int]]:
    """Shortest-path tree (parent array, visit order) from src.

    With `cost` given, path length is the sum of vertex costs including
    both endpoints; otherwise plain hop count.  Deterministic tie-breaks.
    """
    n = g.n
    parent = [-1] * n
    order: list[int] = []
    if cost is None:
        seen = [False] * n
        seen[src] = True
        order.append(src)
        for u in order:  # the visit order is the FIFO queue itself
            for v in g.adj[u]:
                if not seen[v]:
                    seen[v] = True
                    parent[v] = u
                    order.append(v)
        return parent, order
    dist = [math.inf] * n
    dist[src] = cost[src]
    done = [False] * n
    heap: list[tuple[float, int]] = [(dist[src], src)]
    while heap:
        d, u = heapq.heappop(heap)
        if done[u]:
            continue
        done[u] = True
        order.append(u)
        for v in g.adj[u]:
            nd = d + cost[v]
            if nd < dist[v]:
                dist[v] = nd
                parent[v] = u
                heapq.heappush(heap, (nd, v))
    return parent, order


def _tree_congestion(g: WeightedGraph, positives: list[int],
                     trees: dict[int, tuple[list[int], list[int]]],
                     pos_weight_total: float) -> list[float]:
    """Congestion of routing every ordered demand in its source's tree."""
    w = g.weights
    cong = [0.0] * g.n
    for s in positives:
        parent, order = trees[s]
        ws = w[s]
        acc = [0.0] * g.n
        # order[0] is s and children come after their parents, so a
        # reverse pass sees each subtree's weight complete
        for v in reversed(order[1:]):
            a = acc[v] + w[v]
            cong[v] += ws * a
            acc[parent[v]] += a
        cong[s] += ws * (pos_weight_total - ws)
    return cong


class _LazyBfsTrees(Mapping):
    """Parent arrays of the BFS trees from `sources`, built on first access.

    Keys are the sources in their given order.  A built array is cached,
    so every later access returns the same list.
    """

    def __init__(self, g: WeightedGraph, sources: list[int]):
        self._g = g
        self._parents: dict[int, list[int] | None] = dict.fromkeys(sources)

    def __getitem__(self, s: int) -> list[int]:
        parent = self._parents[s]
        if parent is None:
            parent = self._parents[s] = _tree_from(self._g, s, None)[0]
        return parent

    def __contains__(self, s: object) -> bool:
        # Mapping's default would look the key up, building its tree
        return s in self._parents

    def __iter__(self) -> Iterator[int]:
        return iter(self._parents)

    def __len__(self) -> int:
        return len(self._parents)


def _attempt_tree_flow(g: WeightedGraph, gamma: float,
                       positives: list[int]) -> ConcurrentFlow | None:
    """Try to route all demands at congestion <= gamma on source trees."""
    pw = g.weight_of(positives)
    if gamma >= pw * pw:
        # The flow ceiling: a simple path carries each ordered demand at
        # most once, so no vertex carries more than the sum over s != t of
        # w(s) w(t) = W^2 - sum w^2 < W^2.  Round 1's plain BFS trees would
        # pass its test below; the float error of its sums (about n 2^-53
        # relative) lies far inside the slack sum w^2 / W^2 >= 1/p.  The
        # same trees are returned, each built when first walked.
        return ConcurrentFlow(g, {}, _LazyBfsTrees(g, positives))
    cost: list[float] | None = None
    for _ in range(_TREE_ROUNDS):
        trees = {s: _tree_from(g, s, cost) for s in positives}
        cong = _tree_congestion(g, positives, trees, pw)
        top = max(cong)
        if top <= gamma * (1 + _REL_TOL):
            return ConcurrentFlow(
                g, {}, {s: parent for s, (parent, _) in trees.items()})
        # reroute against the congested vertices next round
        scale = max(top, 1e-300)
        cost = [1.0 + (g.n * c) / scale for c in cong]
    return None


# ---------------------------------------------------------------------------
# Exact throughput LP on the split digraph
#
# Vertex u becomes the nodes in_u = 2u and out_u = 2u + 1, joined by the
# splitting arc in_u -> out_u and the back arc out_u -> in_u; every edge
# {u, v} becomes the arcs out_u -> in_v and out_v -> in_u.  Each demand
# leaves its source's in-node and ends at its target's out-node, so both
# endpoints pay their own unit capacity.


@dataclass
class _LpOutcome:
    throughput: float
    arcs: list[tuple[int, int]]  # (tail, head); arc u is u's splitting arc
    source_arc_flow: dict[int, list[float]]
    dual_lengths: list[float] | None


def _solve_throughput_lp(g: WeightedGraph, positives: list[int]) -> _LpOutcome:
    """Maximize q so that q-scaled product demands fit unit vertex caps.

    Flow variables are aggregated per source vertex; only the splitting
    arcs carry capacity rows (every path through the digraph must use the
    splitting arcs of both endpoints, so no other arc can bind).
    """
    import numpy as np
    from scipy import sparse
    from scipy.optimize import linprog

    arcs = [(2 * u, 2 * u + 1) for u in range(g.n)]  # splitting arcs first
    arcs += [(2 * u + 1, 2 * u) for u in range(g.n)]
    for u, v in g.edges():
        arcs += [(2 * u + 1, 2 * v), (2 * v + 1, 2 * u)]
    n_arcs = len(arcs)
    p = len(positives)
    pw = g.weight_of(positives)
    w = g.weights
    n_nodes = 2 * g.n
    nvar = p * n_arcs + 1
    q_col = nvar - 1

    rows: list[int] = []
    cols: list[int] = []
    vals: list[float] = []
    for si, s in enumerate(positives):
        base_row = si * n_nodes
        base_col = si * n_arcs
        for ai, (tail, head) in enumerate(arcs):
            rows.append(base_row + tail)
            cols.append(base_col + ai)
            vals.append(1.0)
            rows.append(base_row + head)
            cols.append(base_col + ai)
            vals.append(-1.0)
        # net supply q * w(s) * w(t) from s_in to every t_out
        rows.append(base_row + 2 * s)
        cols.append(q_col)
        vals.append(-(w[s] * (pw - w[s])))
        for t in positives:
            if t != s:
                rows.append(base_row + 2 * t + 1)
                cols.append(q_col)
                vals.append(w[s] * w[t])
    a_eq = sparse.coo_matrix((vals, (rows, cols)),
                             shape=(p * n_nodes, nvar)).tocsr()
    b_eq = np.zeros(p * n_nodes)

    crows: list[int] = []
    ccols: list[int] = []
    cvals: list[float] = []
    for u in range(g.n):  # unit arc u has arc index u
        for si in range(p):
            crows.append(u)
            ccols.append(si * n_arcs + u)
            cvals.append(1.0)
    a_ub = sparse.coo_matrix((cvals, (crows, ccols)),
                             shape=(g.n, nvar)).tocsr()
    b_ub = np.ones(g.n)

    c = np.zeros(nvar)
    c[q_col] = -1.0
    res = linprog(c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq,
                  bounds=(0, None), method="highs")
    if not res.success:
        raise FlowCutError(f"throughput LP failed: {res.message}")
    duals = None
    if res.ineqlin is not None and res.ineqlin.marginals is not None:
        duals = [abs(float(x)) for x in res.ineqlin.marginals]
    per_source = {}
    for si, s in enumerate(positives):
        per_source[s] = [float(x) for x in
                         res.x[si * n_arcs:(si + 1) * n_arcs]]
    return _LpOutcome(float(res.x[q_col]), arcs, per_source, duals)


def _decompose_arc_flow(arcs: list[tuple[int, int]], flow: list[float],
                        source: int, eps: float
                        ) -> list[tuple[list[int], float]]:
    """Peel source->sink paths out of a nonnegative arc flow.

    Cycles met during the walk are cancelled on the spot; every walk ends
    at a node with no remaining outflow, which conservation makes a sink.
    """
    out_arcs: dict[int, list[int]] = {}
    for ai, (tail, _) in enumerate(arcs):
        if flow[ai] > eps:
            out_arcs.setdefault(tail, []).append(ai)

    def pick(node: int) -> int | None:
        lst = out_arcs.get(node)
        while lst:
            ai = lst[-1]
            if flow[ai] > eps:
                return ai
            lst.pop()
        return None

    paths: list[tuple[list[int], float]] = []
    while pick(source) is not None:
        walk_nodes = [source]
        walk_arcs: list[int] = []
        pos = {source: 0}
        while True:
            ai = pick(walk_nodes[-1])
            if ai is None:
                break
            head = arcs[ai][1]
            if head in pos:  # cancel the cycle and keep walking
                i = pos[head]
                cyc = walk_arcs[i:] + [ai]
                low = min(flow[a] for a in cyc)
                for a in cyc:
                    flow[a] -= low
                for node in walk_nodes[i + 1:]:
                    del pos[node]
                del walk_nodes[i + 1:]
                del walk_arcs[i:]
                continue
            walk_arcs.append(ai)
            walk_nodes.append(head)
            pos[head] = len(walk_nodes) - 1
        if not walk_arcs:
            break
        low = min(flow[a] for a in walk_arcs)
        for a in walk_arcs:
            flow[a] -= low
        paths.append((walk_nodes, low))
    return paths


def _flow_from_lp(g: WeightedGraph, positives: list[int],
                  outcome: _LpOutcome) -> ConcurrentFlow:
    """Turn the LP solution at throughput q* into a unit-throughput flow."""
    q = outcome.throughput
    w = g.weights
    index: dict[tuple[int, int], list[tuple[tuple[int, ...], float]]] = {}
    grouped: dict[tuple[int, int], list[tuple[tuple[int, ...], float]]] = {}
    for s in positives:
        arc_flow = [x / q for x in outcome.source_arc_flow[s]]
        scale = max(arc_flow) if arc_flow else 0.0
        eps = max(scale, 1.0) * 1e-11
        for nodes, amount in _decompose_arc_flow(
                outcome.arcs, arc_flow, 2 * s, eps):
            verts: list[int] = []
            for node in nodes:
                u = node // 2
                if not verts or verts[-1] != u:
                    verts.append(u)
            if len(verts) < 2:
                continue
            t = verts[-1]
            if nodes[-1] != 2 * t + 1 or w[t] <= 0:
                continue
            grouped.setdefault((s, t), []).append((tuple(verts), amount))
    for u in positives:
        for v in positives:
            if u == v:
                continue
            want = w[u] * w[v]
            entries = grouped.get((u, v), [])
            got = math.fsum(a for _, a in entries)
            if got <= want * 1e-6:
                raise FlowCutError(
                    f"LP decomposition lost demand ({u}, {v})",
                    {"routed": got, "want": want})
            factor = want / got
            index[(u, v)] = [(verts, amount * factor)
                             for verts, amount in entries]
    return ConcurrentFlow(g, index)


# ---------------------------------------------------------------------------
# Cut search: prefix sweeps over vertex orders


def _sweep_order(g: WeightedGraph, order: list[int], total: float
                 ) -> tuple[float, int] | None:
    """Sparsest prefix cut of the order, as (sparsity, prefix length).

    None when no prefix leaves positive weight on both sides.  The running
    sums drift with float error, so the cut is recomputed before it is used.
    """
    w = g.weights
    adj = g.adj
    state = [0] * g.n  # 0 outside, 1 in the boundary S, 2 in the prefix U
    w_u = 0.0
    w_s = 0.0
    s_count = 0
    best_alpha = math.inf
    best_len = 0
    for length, v in enumerate(order[:-1], 1):
        if state[v] == 1:
            w_s -= w[v]
            s_count -= 1
        state[v] = 2
        w_u += w[v]
        for y in adj[v]:
            if not state[y]:
                state[y] = 1
                w_s += w[y]
                s_count += 1
        wa = w_u + w_s
        wb = total - w_u
        if wa > 0 and wb > 0:
            alpha = s_count / (wa * wb)
            if alpha < best_alpha:
                best_alpha, best_len = alpha, length
    return (best_alpha, best_len) if best_len else None


def _prefix_separation(g: WeightedGraph, order: list[int],
                       length: int) -> Separation:
    """A = the prefix U = order[:length] with its neighbours, B = V - U."""
    u_set = set(order[:length])
    side_a = set(u_set)
    for v in u_set:
        side_a.update(g.adj[v])
    return make_separation(g, side_a, set(range(g.n)) - u_set)


def _fiedler_order(g: WeightedGraph) -> list[int] | None:
    if g.n < 3 or g.n > 800 or g.m == 0:
        return None
    import numpy as np
    # the same matrix as one summed edge by edge, so the same eigenvectors
    adj = g.adj
    lap = np.zeros((g.n, g.n))
    degrees = [len(row) for row in adj]
    rows = np.repeat(np.arange(g.n), degrees)
    cols = np.fromiter(itertools.chain.from_iterable(adj), dtype=np.intp,
                       count=len(rows))
    lap[rows, cols] = -1.0
    diagonal = np.arange(g.n)
    lap[diagonal, diagonal] = degrees
    try:
        _, vecs = np.linalg.eigh(lap)
    except np.linalg.LinAlgError:  # pragma: no cover - numeric guard
        return None
    vec = vecs[:, 1].tolist()
    for x in vec:
        if abs(x) > 1e-12:
            if x < 0:
                vec = [-y for y in vec]
            break
    # a stable sort of the ascending ids breaks ties by id
    return sorted(range(g.n), key=vec.__getitem__)


def _bfs_sources(g: WeightedGraph, positives: list[int]) -> list[int]:
    sources = [max(positives, key=lambda v: (g.weights[v], -v)), 0]
    # farthest-point picks spread the region-growing starts out
    from .graph import bfs_distances
    for _ in range(2):
        dist = bfs_distances(g, sources)
        finite = [(d, v) for v, d in enumerate(dist) if d < math.inf]
        far = max(finite)[1]
        if far in sources:
            break
        sources.append(far)
    out: list[int] = []
    for s in sources:
        if s not in out:
            out.append(s)
    return out


def _completed(g: WeightedGraph, order: list[int]) -> list[int]:
    """`order` followed by the vertices it misses (disconnected host)."""
    if len(order) == g.n:
        return order
    seen = set(order)
    return order + [v for v in range(g.n) if v not in seen]


def _cut_orders(g: WeightedGraph, positives: list[int],
                dual_lengths: list[float] | None) -> list[list[int]]:
    sources = _bfs_sources(g, positives)
    orders: list[list[int]] = []
    for s in sources:
        _, order = _tree_from(g, s, None)
        orders.append(_completed(g, order))
    w = g.weights
    ids = list(range(g.n))
    orders.append(sorted(ids, key=lambda v: (w[v], v)))
    orders.append(sorted(ids, key=lambda v: (-w[v], v)))
    fiedler = _fiedler_order(g)
    if fiedler is not None:
        orders.append(fiedler)
        orders.append(fiedler[::-1])
    if dual_lengths is not None:
        cost = [x + 1e-9 for x in dual_lengths]
        for s in sources:
            _, order = _tree_from(g, s, cost)
            orders.append(_completed(g, order))
    return orders


def _best_sweep_separation(g: WeightedGraph, positives: list[int],
                           dual_lengths: list[float] | None
                           ) -> Separation | None:
    """Sparsest prefix cut over all orders; None when no order has one."""
    total = g.total_weight
    best: tuple[float, list[int], int] | None = None
    for order in _cut_orders(g, positives, dual_lengths):
        hit = _sweep_order(g, order, total)
        if hit is not None and (best is None or hit[0] < best[0]):
            best = (hit[0], order, hit[1])
    return None if best is None else _prefix_separation(g, best[1], best[2])


def _component_split(g: WeightedGraph) -> Separation | None:
    """The first positive-weight component against the rest (sparsity 0).

    None unless the positive-weight vertices lie in several components.
    """
    w = g.weights
    pos_comp = [c for c in connected_components(g)
                if any(w[v] > 0 for v in c)]
    if len(pos_comp) < 2:
        return None
    side_a = set(pos_comp[0])
    return make_separation(g, side_a, set(range(g.n)) - side_a)


# ---------------------------------------------------------------------------
# The dichotomy


def flow_or_sparse_cut(g: WeightedGraph, gamma: float
                       ) -> ConcurrentFlow | Separation:
    """Concurrent flow at congestion <= gamma, or a sparse separation.

    A returned separation has sparsity at most CUT_CONSTANT * ln(n) / gamma.
    The steps are those of the module docstring: the window, tree routing,
    the LP, then the sweep for the cut.
    Raises FlowCutError when neither side can be certified, which on sound
    inputs only signals solver non-convergence.
    """
    if not math.isfinite(gamma) or gamma <= 0:
        raise GraphError(f"gamma must be positive and finite, got {gamma}")
    w = g.weights
    positives = [v for v in range(g.n) if w[v] > 0]
    if len(positives) < 2:
        return ConcurrentFlow(g, {})
    bound = CUT_CONSTANT * math.log(max(g.n, 2)) / gamma

    split = _component_split(g)
    if split is not None:
        # demands across components make any flow infeasible
        return split

    pw = g.weight_of(positives)
    endpoint_lb = max(2.0 * w[v] * (pw - w[v]) for v in positives)
    dual_lengths: list[float] | None = None
    if gamma * (1 + _REL_TOL) >= endpoint_lb:
        flow = _attempt_tree_flow(g, gamma, positives)
        if flow is not None:
            return flow
        if g.n <= _LP_MAX_N:
            outcome = _solve_throughput_lp(g, positives)
            if any(x > 1e-12 for x in outcome.dual_lengths or ()):
                dual_lengths = outcome.dual_lengths
            if outcome.throughput * gamma >= 1.0 - 1e-9:
                lp_flow = _flow_from_lp(g, positives, outcome)
                if lp_flow.max_congestion() <= gamma * (1 + 1e-7):
                    return lp_flow

    # Below the endpoint bound no flow exists and the LP is not needed: the
    # weight-ascending order's last prefix cuts off a heaviest vertex t at
    # sparsity 1 / (W w(t)), while gamma < endpoint_lb <= 2 w(t) W makes the
    # bound exceed 32 ln(n) / (W w(t)).  So this one sweep always succeeds
    # there, and no second LP pass could ever run after it.  Inside the
    # window this is the only sweep, and the LP's dual lengths add orders.
    sep = _best_sweep_separation(g, positives, dual_lengths)
    if sep is not None and sep.sparsity <= bound * (1 + _REL_TOL):
        return sep

    raise FlowCutError(
        "no flow within the congestion budget and no sufficiently sparse "
        "separation found",
        {"gamma": gamma, "sparsity_bound": bound,
         "best_sparsity": None if sep is None else sep.sparsity})


# ---------------------------------------------------------------------------
# Balanced separator or heavy flow


@dataclass(frozen=True)
class BalancedSeparatorResult:
    """Union of peeled separators; every component of G - S weighs <= W/2."""

    separator: frozenset[int]
    pieces: tuple[tuple[int, ...], ...]
    steps: tuple[Separation, ...]


@dataclass(frozen=True)
class HeavyFlowResult:
    """A concurrent flow on an induced subgraph of weight >= W/2.

    `vertices` lists the subgraph's original vertex ids; the flow's host is
    the induced subgraph with local ids `0..len(vertices)-1`.  `separator`
    collects the peeled separators and is disjoint from `vertices`.
    """

    vertices: tuple[int, ...]
    flow: ConcurrentFlow
    separator: frozenset[int]
    steps: tuple[Separation, ...]


def _peel(g: WeightedGraph,
          step: Callable[[WeightedGraph], ConcurrentFlow | Separation]
          ) -> BalancedSeparatorResult | HeavyFlowResult:
    """Peel the lighter side of step's separations until the rest is light.

    Every iteration applies `step` to the still-active induced subgraph.  A
    flow ends the loop with the active subgraph (its weight is still at
    least W/2); otherwise the lighter side of the separation is peeled off
    and its separator accumulated.  The pieces and the separator partition
    V with no edge between two pieces by construction: each step's sides
    come from `make_separation`, which rejects sides that miss a vertex or
    that an edge crosses, and the active set splits into A - B, A & B and
    B - A.  Only the balance is checked before the result is returned.
    """
    total = g.total_weight
    active = list(range(g.n))
    sep_acc: set[int] = set()
    pieces: list[list[int]] = []
    steps: list[Separation] = []
    while g.weight_of(active) >= total / 2.0:
        sub, ids = induced_subgraph(g, active)
        res = step(sub)
        if isinstance(res, ConcurrentFlow):
            return HeavyFlowResult(tuple(active), res, frozenset(sep_acc),
                                   tuple(steps))
        side_a = sorted(ids[v] for v in res.side_a)
        side_b = sorted(ids[v] for v in res.side_b)
        wa = g.weight_of(side_a)
        wb = g.weight_of(side_b)
        if wa < wb or (wa == wb and side_b < side_a):
            side_a, side_b = side_b, side_a
        a_set = set(side_a)
        b_set = set(side_b)
        steps.append(Separation(frozenset(a_set), frozenset(b_set),
                                res.sparsity))
        sep_acc.update(a_set & b_set)
        pieces.append(sorted(b_set - a_set))
        # make_separation gave both sides positive weight, so B is nonempty
        # and the active set shrinks on every step
        active = sorted(a_set - b_set)
    pieces.append(sorted(active))
    pieces = [p for p in pieces if p]
    half = total / 2.0
    for comp in connected_components(g, set(range(g.n)) - sep_acc):
        if g.weight_of(comp) > half:
            raise GraphError("peeled separator failed the balance check")
    return BalancedSeparatorResult(frozenset(sep_acc),
                                   tuple(tuple(p) for p in pieces),
                                   tuple(steps))


def balanced_separator_or_flow(g: WeightedGraph, gamma: float
                               ) -> BalancedSeparatorResult | HeavyFlowResult:
    """Peel sparse separations until the rest is light, or surface a flow.

    The peel's step is `flow_or_sparse_cut(sub, gamma)`.  The accumulated
    separator has size at most CUT_CONSTANT * W^2 * ln(n) / gamma.
    """
    res = _peel(g, lambda sub: flow_or_sparse_cut(sub, gamma))
    if isinstance(res, HeavyFlowResult):
        return res
    total = g.total_weight
    # a peel needs two positive vertices, so n >= 2 and log(n) > 0 here
    cap = CUT_CONSTANT * total * total * math.log(g.n) / gamma
    if len(res.separator) > cap * (1 + _REL_TOL) + 1e-9:
        raise GraphError(
            f"separator size {len(res.separator)} exceeds the bound "
            f"{cap:.3f}")
    return res


def _sweep_cut(g: WeightedGraph) -> Separation:
    """The component split, or else the sparsest plain sweep cut."""
    split = _component_split(g)
    if split is not None:
        return split
    w = g.weights
    positives = [v for v in range(g.n) if w[v] > 0]
    if len(positives) < 2:
        # one vertex carries all the active weight: it is the separator
        return make_separation(g, positives, range(g.n))
    # the positives share a component, so a heaviest vertex t has a
    # neighbour, and the weight-ascending order's last prefix V - t is a
    # valid cut: the sweep never comes back empty here
    return _best_sweep_separation(g, positives, None)


def balanced_separator_by_sweeps(g: WeightedGraph) -> BalancedSeparatorResult:
    """A balanced separator from sweep cuts alone: no routing, no LP.

    The peel's step is the component split, or else the plain sweep's
    sparsest cut, so no congestion budget is involved.  Weights must keep
    products of two sums within range (see `_default_quotient_oracle`).

    Against `balanced_separator_or_flow` at the budget gamma where it first
    returns a separator: there no step returned a flow, and each step's cut
    was the component split or the plain sweep.  The one exception is a step where the
    LP ran (at most _LP_MAX_N active vertices, gamma inside the window) and
    gave nonzero dual lengths, whose orders join the sweep.  Since the
    sweep does not depend on gamma, the two peels agree on every host that
    never takes that exception.  Where the active weight ends on one
    positive vertex, the dichotomy returns the empty flow at every gamma;
    this peel puts that vertex into the separator instead.
    """
    return _peel(g, _sweep_cut)  # a sweep step never returns a flow
