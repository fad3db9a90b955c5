"""Concurrent flows with unit vertex capacities versus sparse separations.

The central routine `flow_or_sparse_cut` decides, for a congestion budget
gamma, between

* a product-demand concurrent flow (demand w(u) * w(v) for every ordered
  pair of positive-weight vertices) whose vertex congestion stays at or
  below gamma, and
* a separation (A, B) whose sparsity |A n B| / (w(A) w(B)) is at most
  cut_constant * ln(n) / gamma.

Flows are searched first with congestion-aware shortest-path-tree routing,
then (on small graphs) with an exact linear program on the standard
vertex-splitting digraph: every vertex becomes an arc of capacity one, so
multicommodity edge flows there are exactly vertex-capacitated flows here.
Cuts come from prefix sweeps of several vertex orders (BFS region growing,
LP dual lengths, spectral, weight orders); each candidate is recomputed
from scratch before it is returned, so a returned object always satisfies
its side of the dichotomy.

A tree-routed flow is stored as one parent array per positive source: its
p(p-1) paths (p positive vertices) are walked on demand, never written
out.  Only the LP's flows, on small graphs, hold explicit paths.

`balanced_separator_or_flow` iterates the dichotomy, peeling the lighter
side of each separation, and ends with either a balanced separator of the
whole graph or a flow on a still-heavy induced subgraph.
"""

from __future__ import annotations

import heapq
import math
from collections import deque
from dataclasses import dataclass, field
from typing import Iterator, Sequence

from .graph import (GraphError, Separation, WeightedGraph,
                    connected_components, induced_subgraph, make_separation)

DEFAULT_CUT_CONSTANT = 64.0
_LP_MAX_N = 36
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
    instead of one stored path per ordered pair.  Congestion at a vertex is
    the total amount over all paths containing it, endpoints included; it
    is computed on first use, from the paths in `routed()` order.
    """

    def __init__(self, host: WeightedGraph,
                 index: dict[tuple[int, int],
                             list[tuple[tuple[int, ...], float]]],
                 trees: dict[int, list[int]] | None = None):
        self.host = host
        self.index = index
        self.trees = trees
        self._congestion: list[float] | None = None

    @classmethod
    def empty(cls, host: WeightedGraph) -> "ConcurrentFlow":
        return cls(host, {})

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

    def congestion(self, v: int) -> float:
        return self.congestion_vector()[v]

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


def congestion(flow: ConcurrentFlow, v: int) -> float:
    return flow.congestion(v)


# ---------------------------------------------------------------------------
# Vertex-splitting digraph


@dataclass(frozen=True)
class SplitInstance:
    """Directed graph splitting each vertex u into (in_u -> out_u).

    The splitting arc carries capacity one; every other arc gets the same
    harmless large capacity.  Demand weight sits on in-nodes only, and each
    demand is routed in-node to out-node, so both endpoints of a routed
    pair pay their own unit capacity.
    """

    base_n: int
    arcs: tuple[tuple[int, int, float], ...]
    demand_weight: tuple[float, ...]

    @staticmethod
    def in_node(u: int) -> int:
        return 2 * u

    @staticmethod
    def out_node(u: int) -> int:
        return 2 * u + 1

    @property
    def n_nodes(self) -> int:
        return 2 * self.base_n


def build_split_instance(g: WeightedGraph) -> SplitInstance:
    big = g.n * g.n * g.total_weight + 1.0
    arcs: list[tuple[int, int, float]] = []
    for u in range(g.n):  # unit arcs first: arc index u is vertex u
        arcs.append((SplitInstance.in_node(u), SplitInstance.out_node(u), 1.0))
    for u in range(g.n):
        arcs.append((SplitInstance.out_node(u), SplitInstance.in_node(u), big))
    for u, v in g.edges():
        arcs.append((SplitInstance.out_node(u), SplitInstance.in_node(v), big))
        arcs.append((SplitInstance.out_node(v), SplitInstance.in_node(u), big))
    demand = [0.0] * (2 * g.n)
    for u in range(g.n):
        demand[SplitInstance.in_node(u)] = g.weights[u]
    return SplitInstance(g.n, tuple(arcs), tuple(demand))


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
        q = deque([src])
        while q:
            u = q.popleft()
            order.append(u)
            for v in g.adj[u]:
                if not seen[v]:
                    seen[v] = True
                    parent[v] = u
                    q.append(v)
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
        for v in reversed(order):
            if v != s and w[v] > 0:
                acc[v] += w[v]
            p = parent[v]
            if p != -1:
                acc[p] += acc[v]
        for v in order:
            if v != s:
                cong[v] += ws * acc[v]
        cong[s] += ws * (pos_weight_total - ws)
    return cong


def _attempt_tree_flow(g: WeightedGraph, gamma: float, positives: list[int],
                       rounds: int = 3) -> ConcurrentFlow | None:
    """Try to route all demands at congestion <= gamma on source trees."""
    pw = g.weight_of(positives)
    best: dict[int, tuple[list[int], list[int]]] | None = None
    best_cong = math.inf
    cost: list[float] | None = None
    for _ in range(rounds):
        trees = {s: _tree_from(g, s, cost) for s in positives}
        cong = _tree_congestion(g, positives, trees, pw)
        top = max(cong)
        if top < best_cong:
            best_cong = top
            best = trees
        if top <= gamma * (1 + _REL_TOL):
            break
        # reroute against the congested vertices next round
        scale = max(top, 1e-300)
        cost = [1.0 + (g.n * c) / scale for c in cong]
    if best is None or best_cong > gamma * (1 + _REL_TOL):
        return None
    return ConcurrentFlow(g, {},
                          {s: parent for s, (parent, _) in best.items()})


# ---------------------------------------------------------------------------
# Exact throughput LP on the split digraph


@dataclass
class _LpOutcome:
    throughput: float
    source_arc_flow: dict[int, list[float]]
    dual_lengths: list[float] | None


def _solve_throughput_lp(g: WeightedGraph, positives: list[int]) -> _LpOutcome:
    """Maximize q so that q-scaled product demands fit unit vertex caps.

    Flow variables are aggregated per source vertex; only the splitting
    arcs carry capacity rows (every path through the digraph must use the
    splitting arcs of both endpoints, so the large arcs never bind).
    """
    import numpy as np
    from scipy import sparse
    from scipy.optimize import linprog

    inst = build_split_instance(g)
    arcs = [(t, h) for t, h, _ in inst.arcs]
    n_arcs = len(arcs)
    p = len(positives)
    pw = g.weight_of(positives)
    w = g.weights
    n_nodes = inst.n_nodes
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
        rows.append(base_row + SplitInstance.in_node(s))
        cols.append(q_col)
        vals.append(-(w[s] * (pw - w[s])))
        for t in positives:
            if t != s:
                rows.append(base_row + SplitInstance.out_node(t))
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
    return _LpOutcome(float(res.x[q_col]), per_source, duals)


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
    inst_arcs = [(t, h) for t, h, _ in build_split_instance(g).arcs]
    index: dict[tuple[int, int], list[tuple[tuple[int, ...], float]]] = {}
    grouped: dict[tuple[int, int], list[tuple[tuple[int, ...], float]]] = {}
    for s in positives:
        arc_flow = [x / q for x in outcome.source_arc_flow[s]]
        scale = max(arc_flow) if arc_flow else 0.0
        eps = max(scale, 1.0) * 1e-11
        for nodes, amount in _decompose_arc_flow(
                inst_arcs, arc_flow, SplitInstance.in_node(s), eps):
            verts: list[int] = []
            for node in nodes:
                u = node // 2
                if not verts or verts[-1] != u:
                    verts.append(u)
            if len(verts) < 2:
                continue
            t = verts[-1]
            if nodes[-1] != SplitInstance.out_node(t) or w[t] <= 0:
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


def _sweep_order(g: WeightedGraph, order: list[int],
                 total: float) -> tuple[float, int] | None:
    """Best (sparsity, prefix length) over all prefix cuts of the order."""
    w = g.weights
    in_u = [False] * g.n
    in_s = [False] * g.n
    w_u = 0.0
    w_s = 0.0
    s_count = 0
    best: tuple[float, int] | None = None
    for i, v in enumerate(order[:-1]):
        if in_s[v]:
            in_s[v] = False
            w_s -= w[v]
            s_count -= 1
        in_u[v] = True
        w_u += w[v]
        for y in g.adj[v]:
            if not in_u[y] and not in_s[y]:
                in_s[y] = True
                w_s += w[y]
                s_count += 1
        wa = w_u + w_s
        wb = total - w_u
        if wa > 0 and wb > 0:
            alpha = s_count / (wa * wb)
            if best is None or alpha < best[0]:
                best = (alpha, i + 1)
    return best


def _prefix_separation(g: WeightedGraph, order: list[int], length: int,
                       cut_constant: float) -> Separation:
    u_set = set(order[:length])
    boundary = set()
    for v in u_set:
        for y in g.adj[v]:
            if y not in u_set:
                boundary.add(y)
    side_a = u_set | boundary
    side_b = set(range(g.n)) - u_set
    return make_separation(g, side_a, side_b, cut_constant)


def _fiedler_order(g: WeightedGraph) -> list[int] | None:
    if g.n < 3 or g.n > 800 or g.m == 0:
        return None
    import numpy as np
    lap = np.zeros((g.n, g.n))
    for u, v in g.edges():
        lap[u, u] += 1.0
        lap[v, v] += 1.0
        lap[u, v] -= 1.0
        lap[v, u] -= 1.0
    try:
        _, vecs = np.linalg.eigh(lap)
    except np.linalg.LinAlgError:  # pragma: no cover - numeric guard
        return None
    vec = vecs[:, 1]
    for x in vec:
        if abs(x) > 1e-12:
            if x < 0:
                vec = -vec
            break
    return sorted(range(g.n), key=lambda v: (vec[v], v))


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


def _cut_orders(g: WeightedGraph, positives: list[int],
                dual_lengths: list[float] | None) -> list[list[int]]:
    orders: list[list[int]] = []
    for s in _bfs_sources(g, positives):
        _, order = _tree_from(g, s, None)
        if len(order) == g.n:
            orders.append(order)
        else:  # disconnected host: append the rest in id order
            rest = [v for v in range(g.n) if v not in set(order)]
            orders.append(order + rest)
    w = g.weights
    ids = list(range(g.n))
    orders.append(sorted(ids, key=lambda v: (w[v], v)))
    orders.append(sorted(ids, key=lambda v: (-w[v], v)))
    fiedler = _fiedler_order(g)
    if fiedler is not None:
        orders.append(fiedler)
        orders.append(fiedler[::-1])
    if dual_lengths is not None and any(x > 1e-12 for x in dual_lengths):
        cost = [x + 1e-9 for x in dual_lengths]
        for s in _bfs_sources(g, positives):
            _, order = _tree_from(g, s, cost)
            if len(order) < g.n:
                order = order + [v for v in range(g.n) if v not in set(order)]
            orders.append(order)
    return orders


def _best_sweep_separation(g: WeightedGraph, positives: list[int],
                           cut_constant: float,
                           dual_lengths: list[float] | None
                           ) -> Separation | None:
    total = g.total_weight
    best: tuple[float, list[int], int] | None = None
    for order in _cut_orders(g, positives, dual_lengths):
        hit = _sweep_order(g, order, total)
        if hit is not None and (best is None or hit[0] < best[0]):
            best = (hit[0], order, hit[1])
    if best is None:
        return None
    return _prefix_separation(g, best[1], best[2], cut_constant)


# ---------------------------------------------------------------------------
# The dichotomy


def flow_or_sparse_cut(g: WeightedGraph, gamma: float,
                       cut_constant: float = DEFAULT_CUT_CONSTANT,
                       lp_max_n: int = _LP_MAX_N
                       ) -> ConcurrentFlow | Separation:
    """Concurrent flow at congestion <= gamma, or a sparse separation.

    A returned separation has sparsity at most cut_constant * ln(n) / gamma
    (recorded on the object).  Raises FlowCutError when neither side can be
    certified, which on sound inputs only signals solver non-convergence.
    """
    if not math.isfinite(gamma) or gamma <= 0:
        raise GraphError(f"gamma must be positive and finite, got {gamma}")
    w = g.weights
    positives = [v for v in range(g.n) if w[v] > 0]
    if len(positives) < 2:
        return ConcurrentFlow.empty(g)
    bound = cut_constant * math.log(max(g.n, 2)) / gamma

    comps = connected_components(g)
    pos_comp = [c for c in comps if any(w[v] > 0 for v in c)]
    if len(pos_comp) > 1:
        # demands across components make any flow infeasible; the component
        # split is a separation of sparsity 0
        side_a = set(pos_comp[0])
        side_b = set(range(g.n)) - side_a
        return make_separation(g, side_a, side_b, cut_constant)

    pw = g.weight_of(positives)
    endpoint_lb = max(2.0 * w[v] * (pw - w[v]) for v in positives)
    dual_lengths: list[float] | None = None
    lp_done = False
    if gamma * (1 + _REL_TOL) >= endpoint_lb:
        flow = _attempt_tree_flow(g, gamma, positives)
        if flow is not None:
            return flow
        if g.n <= lp_max_n:
            outcome = _solve_throughput_lp(g, positives)
            lp_done = True
            dual_lengths = outcome.dual_lengths
            if outcome.throughput * gamma >= 1.0 - 1e-9:
                lp_flow = _flow_from_lp(g, positives, outcome)
                if lp_flow.max_congestion() <= gamma * (1 + 1e-7):
                    return lp_flow

    sep = _best_sweep_separation(g, positives, cut_constant, dual_lengths)
    if sep is not None and sep.sparsity <= bound * (1 + _REL_TOL):
        return sep

    if not lp_done and g.n <= lp_max_n:
        outcome = _solve_throughput_lp(g, positives)
        if outcome.throughput * gamma >= 1.0 - 1e-9:
            lp_flow = _flow_from_lp(g, positives, outcome)
            if lp_flow.max_congestion() <= gamma * (1 + 1e-7):
                return lp_flow
        sep = _best_sweep_separation(g, positives, cut_constant,
                                     outcome.dual_lengths)
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
    steps: tuple[Separation, ...] = field(default=())


def _check_loop_structure(g: WeightedGraph, separator: set[int],
                          pieces: list[list[int]]) -> None:
    seen: set[int] = set(separator)
    for piece in pieces:
        for v in piece:
            if v in seen:
                raise GraphError("peeling produced overlapping pieces")
            seen.add(v)
    if len(seen) != g.n:
        raise GraphError("peeling lost vertices")
    piece_of = {}
    for i, piece in enumerate(pieces):
        for v in piece:
            piece_of[v] = i
    for u, v in g.edges():
        if u in separator or v in separator:
            continue
        if piece_of[u] != piece_of[v]:
            raise GraphError(f"edge ({u}, {v}) crosses distinct pieces")


def balanced_separator_or_flow(g: WeightedGraph, gamma: float,
                               cut_constant: float = DEFAULT_CUT_CONSTANT
                               ) -> BalancedSeparatorResult | HeavyFlowResult:
    """Peel sparse separations until the rest is light, or surface a flow.

    Every iteration applies `flow_or_sparse_cut` to the still-active induced
    subgraph.  A flow ends the loop with the active subgraph (its weight is
    still at least W/2); otherwise the lighter side of the separation is
    peeled off and its separator accumulated.  The accumulated separator
    has size at most cut_constant * W^2 * ln(n) / gamma.
    """
    total = g.total_weight
    active = list(range(g.n))
    sep_acc: set[int] = set()
    pieces: list[list[int]] = []
    steps: list[Separation] = []
    while g.weight_of(active) >= total / 2.0:
        sub, ids = induced_subgraph(g, active)
        res = flow_or_sparse_cut(sub, gamma, cut_constant)
        if isinstance(res, ConcurrentFlow):
            result = HeavyFlowResult(tuple(active), res,
                                     frozenset(sep_acc), tuple(steps))
            for v in result.separator:
                if v in result.vertices:
                    raise GraphError("separator leaked into the heavy part")
            return result
        side_a = sorted(ids[v] for v in res.side_a)
        side_b = sorted(ids[v] for v in res.side_b)
        wa = g.weight_of(side_a)
        wb = g.weight_of(side_b)
        if wa < wb or (wa == wb and side_b < side_a):
            side_a, side_b = side_b, side_a
        a_set = set(side_a)
        b_set = set(side_b)
        steps.append(Separation(frozenset(a_set), frozenset(b_set),
                                res.sparsity, res.cut_constant))
        sep_acc.update(a_set & b_set)
        pieces.append(sorted(b_set - a_set))
        nxt = sorted(a_set - b_set)
        if len(nxt) == len(active):  # pragma: no cover - progress guard
            raise FlowCutError("separation made no progress")
        active = nxt
    pieces.append(sorted(active))
    pieces = [p for p in pieces if p]
    _check_loop_structure(g, sep_acc, pieces)
    half = total / 2.0
    for comp in connected_components(g, set(range(g.n)) - sep_acc):
        if g.weight_of(comp) > half:
            raise GraphError("peeled separator failed the balance check")
    if gamma > 0 and g.n >= 2:
        cap = cut_constant * total * total * math.log(g.n) / gamma
        if len(sep_acc) > cap * (1 + _REL_TOL) + 1e-9:
            raise GraphError(
                f"separator size {len(sep_acc)} exceeds the bound {cap:.3f}")
    return BalancedSeparatorResult(frozenset(sep_acc),
                                   tuple(tuple(p) for p in pieces),
                                   tuple(steps))
