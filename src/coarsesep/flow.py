"""Concurrent flows with unit vertex capacities versus sparse separations.

The central routine `flow_or_sparse_cut` decides, for a congestion budget
gamma, between

* a product-demand concurrent flow (demand w(u) * w(v) for every ordered
  pair of positive-weight vertices) whose vertex congestion stays at or
  below gamma, and
* a separation (A, B) whose sparsity |A n B| / (w(A) w(B)) is at most
  CUT_CONSTANT * ln(n) / gamma (a nonempty A n B whose w(A) w(B)
  underflows to 0 has sparsity inf).

Cuts come from prefix sweeps of several vertex orders (BFS region growing,
spectral, weight-ascending).  Either side is a valid answer, so a call does
not look for the better one.  It tries, in order:

1. the window: below the endpoint bound max_v 2 w(v) (W - w(v)) no flow
   exists and only the sweep runs; at or above the flow ceiling W^2 every
   routing fits, so the BFS-tree flow is returned without computing its
   congestion;
2. inside the window, the same BFS-tree flow, returned only if its
   congestion stays within gamma;
3. one sweep for the returned cut.

Each cut candidate is recomputed from scratch before it is used, so a
returned object always satisfies its side of the dichotomy.

A flow is fixed by its host: `ConcurrentFlow(host)` routes each ordered
pair of positive vertices along the source's BFS tree.  Its p(p-1) paths
(p positive vertices) are walked on demand, never written out, and each
tree is built on first use.  The sweep and the flow read everything else
they need, the total weight W and the heaviest vertex, from the host too.

One peel loop, `_peel`, applies a step to the still-active induced
subgraph and peels the lighter side of each separation until the rest
weighs less than W/2; the components of G - S that its balance check
finds are the result's pieces.  It decides balance exactly on `units`,
the `graph.weight_units` of g's weights, or per cluster where g is a
quotient (`pipeline._weighed_quotient`); a part light in units passes the
verifier's `math.fsum` test, since rounding is monotone.
`balanced_separator_or_flow` steps with the dichotomy and ends with either
a balanced separator of the whole graph or a flow on a still-heavy induced
subgraph; each of its cuts must meet the sparsity bound, so each is the
sparsest the sweep finds.  `balanced_separator_by_sweeps` steps with the
component split or the sweep alone; it needs no congestion budget and
never routes.  Since only its final balance counts, each step takes a
minimum bite (both sides hold at least _MIN_BITE of the active weight),
and the separator is pruned afterwards, starting from the peel's pieces:
vertices go back while every component stays at most W/2.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from typing import Callable, Iterator

from .graph import (GraphError, Separation, WeightedGraph, bfs_distances,
                    bfs_tree, connected_components, induced_subgraph,
                    make_separation, weight_units)

# c in the sparsity bound c * ln(n) / gamma, fixed by the O(log n) flow-cut
# gap (Leighton and Rao, JACM 1999)
CUT_CONSTANT = 64.0
# share of the active weight each side of a sweep-only peel step must hold,
# unless no prefix cut has two such sides
_MIN_BITE = 0.05
_REL_TOL = 1e-9


class FlowCutError(RuntimeError):
    """The tree flow missed gamma and no sweep cut met the bound."""


class FlowError(GraphError):
    """A concurrent flow object violates its invariants."""


# ---------------------------------------------------------------------------
# Concurrent flow


class ConcurrentFlow:
    """The BFS-tree flow of `host`: demand w(u) * w(v) per ordered pair.

    The sources are the positive-weight vertices of `host` in id order, and
    they must share one component.  Pair (s, t) is served by the single
    path `path(s, t)` in the BFS tree of s at amount w(s) * w(t).  Each
    tree, the (parent array, visit order) pair of `bfs_tree`, is built by
    `tree(s)` on first use and then cached, so a flow whose paths are
    looked up for a few sources builds only their trees, and a flow takes
    O(p * n) memory for p sources instead of one stored path per ordered
    pair.  A host with fewer than two positive vertices gives the empty
    flow.  Congestion at a vertex is the total amount over all paths
    containing it, endpoints included; it is computed on first use, in one
    pass over the trees.
    """

    def __init__(self, host: WeightedGraph):
        self.host = host
        w = host.weights
        self._trees: dict[int, tuple[list[int], list[int]] | None] = (
            dict.fromkeys(v for v in range(host.n) if w[v] > 0))
        self._congestion: list[float] | None = None

    def tree(self, s: int) -> tuple[list[int], list[int]]:
        """The BFS tree (parent array, visit order) of source s."""
        tree = self._trees[s]
        if tree is None:
            seen = [False] * self.host.n
            seen[s] = True
            tree = self._trees[s] = bfs_tree(self.host, s, seen)
        return tree

    def routed(self) -> Iterator[tuple[int, int, tuple[int, ...], float]]:
        """Every path as (source, target, vertices, amount), in fixed order.

        Paths are walked source by source, targets in the same order;
        nothing is kept between calls.
        """
        w = self.host.weights
        for s in self._trees:
            for t in self._trees:
                if t != s:
                    yield s, t, self.path(s, t), w[s] * w[t]

    def path(self, s: int, t: int) -> tuple[int, ...]:
        """The tree path from source s to t, which carries w(s) * w(t)."""
        parent = self.tree(s)[0]
        rev = [t]
        while rev[-1] != s:
            x = parent[rev[-1]]
            if x < 0 or len(rev) >= self.host.n:
                raise FlowError(f"tree of source {s} does not lead to {t}")
            rev.append(x)
        rev.reverse()
        return tuple(rev)

    @property
    def path_count(self) -> int:
        p = len(self._trees)
        return p * (p - 1)

    def congestion_vector(self) -> list[float]:
        if self._congestion is None:
            self._congestion = _tree_congestion(
                self.host, {s: self.tree(s) for s in self._trees})
        return self._congestion

    def max_congestion(self) -> float:
        return max(self.congestion_vector(), default=0.0)

    def check(self) -> None:
        """Raise FlowError unless every path is a walk along edges.

        Every tree path is walked here.  A walk that reaches its source
        cannot repeat a vertex, each path carries its full demand, and every
        positive vertex is a source, so what is left to check is that each
        step is an edge.
        """
        g = self.host
        for _, _, verts, _ in self.routed():
            for a, b in zip(verts, verts[1:]):
                if not g.has_edge(a, b):
                    raise FlowError(f"path step ({a}, {b}) is not an edge")


# ---------------------------------------------------------------------------
# Flow search: the BFS-tree flow


def _tree_congestion(g: WeightedGraph,
                     trees: Mapping[int, tuple[list[int], list[int]]]
                     ) -> list[float]:
    """Congestion of routing every ordered demand in its source's tree.

    Each tree spans the component that holds every positive vertex.
    """
    w = g.weights
    cong = [0.0] * g.n
    for s, (parent, order) in trees.items():
        ws = w[s]
        acc = [0.0] * g.n
        # order[0] is s and children come after their parents, so a
        # reverse pass sees each subtree's weight complete; acc[s] ends as
        # W - w(s), summed without the cancellation of that difference
        for v in reversed(order[1:]):
            a = acc[v] + w[v]
            cong[v] += ws * a
            acc[parent[v]] += a
        cong[s] += ws * acc[s]
    return cong


def _attempt_tree_flow(g: WeightedGraph, gamma: float
                       ) -> ConcurrentFlow | None:
    """The BFS-tree flow if its congestion is at most gamma, else None.

    A None leaves the answer to the sweep: any cut within the bound is
    valid, so no other routing is tried.  The congestion, once computed,
    stays cached on the returned flow.
    """
    flow = ConcurrentFlow(g)
    total = g.total_weight
    # At the flow ceiling W^2 the congestion test is skipped, so each tree
    # is built only when first walked: a simple path carries each ordered
    # demand at most once, so no vertex carries more than the sum over
    # s != t of w(s) w(t) = W^2 - sum w^2 < W^2.  The test would pass; the
    # float error of its sums (about n 2^-53 relative) lies far inside the
    # slack sum w^2 / W^2 >= 1/p.
    if gamma >= total * total or (
            flow.max_congestion() <= gamma * (1 + _REL_TOL)):
        return flow
    return None


# ---------------------------------------------------------------------------
# Cut search: prefix sweeps over vertex orders


def _sweep_order(g: WeightedGraph, order: list[int], total: float,
                 least: float = 0.0) -> tuple[float, int] | None:
    """Sparsest prefix cut of the order, as (sparsity, prefix length).

    Only cuts whose sides A = U + N(U) and B = V - U each weigh at least
    `least` count; the sides are weighed only when a prefix beats the best
    so far.  None when no prefix leaves positive weight (and `least`) on
    both sides; a cut whose sparsity overflows, or whose w(A) w(B)
    underflows to 0, counts at sparsity inf.  The running sums drift with
    float error, so the cut is recomputed before it is used.
    """
    w = g.weights
    adj = g.adj
    # A prefix through the order's last positive vertex leaves B no weight,
    # though the drifting sum w_u may fall short of total and read it as
    # positive: the sweep stops before that vertex.
    last = len(order) - 1
    while last >= 0 and not w[order[last]] > 0:
        last -= 1
    state = [0] * g.n  # 0 outside, 1 in the boundary S, 2 in the prefix U
    w_u = 0.0
    w_s = 0.0
    s_count = 0
    best_alpha = math.inf
    best_len = 0
    for length, v in enumerate(order[:max(last, 0)], 1):
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
            prod = wa * wb
            alpha = s_count / prod if prod else math.inf if s_count else 0.0
            if ((alpha < best_alpha or not best_len)
                    and min(wa, wb) >= least):
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


def _fiedler_vector(g: WeightedGraph):
    """A unit eigenvector of the Laplacian for its second-smallest eigenvalue.

    A numpy array, or None where no spectral order is computed: fewer than
    3 or more than 800 vertices, no edge, or a failed LAPACK call.
    """
    if g.n < 3 or g.n > 800 or g.m == 0:
        return None
    import numpy as np
    # the same matrix as one summed edge by edge
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
        # eigvalsh skips eigh's back-transform of all n vectors; two steps of
        # inverse iteration just below lambda_2 then give its vector.  The
        # shift 1e-10 lambda_max keeps the matrix nonsingular where lambda_2
        # is a multiple 0 (a disconnected host).  Each solve shrinks every
        # other eigencomponent of the fixed start cos(k^2) against lambda_2's
        # by about 1e-10, and the mean goes after each one, since on a
        # disconnected host the constant vector shares lambda_2 = 0.
        vals = np.linalg.eigvalsh(lap)
        lap[diagonal, diagonal] -= vals[1] - 1e-10 * vals[-1]
        vec = np.cos(diagonal.astype(float) ** 2)
        vec -= vec.mean()
        for _ in range(2):
            vec = np.linalg.solve(lap, vec)
            vec -= vec.mean()
            vec /= np.linalg.norm(vec)
    except np.linalg.LinAlgError:  # pragma: no cover - numeric guard
        return None
    return vec


def _fiedler_order(g: WeightedGraph) -> list[int] | None:
    """Vertices sorted by their Fiedler vector entry, equal entries by id."""
    fiedler = _fiedler_vector(g)
    if fiedler is None:
        return None
    vec = fiedler.tolist()
    for x in vec:
        if abs(x) > 1e-12:
            if x < 0:
                vec = [-y for y in vec]
            break
    # Entries equal in exact arithmetic (leaves that an automorphism swaps)
    # differ by rounding noise.  A sorted entry within 1e-9 max|x| of the
    # one before it shares its key, so a stable sort of the ascending ids
    # puts each such run in id order.
    tol = 1e-9 * max(map(abs, vec))
    by_value = sorted(range(g.n), key=vec.__getitem__)
    key = [0] * g.n
    for prev, v in zip(by_value, by_value[1:]):
        key[v] = key[prev] + (vec[v] - vec[prev] > tol)
    return sorted(range(g.n), key=key.__getitem__)


def _bfs_sources(g: WeightedGraph) -> list[int]:
    w = g.weights
    # a heaviest vertex is positive, so it lies with the other positives
    top = max(range(g.n), key=lambda v: (w[v], -v))
    # vertex 0 may lie in a weightless component, whose BFS order gives no
    # cut: start at the lowest id of the positives' component instead
    dist = bfs_distances(g, [top])
    start = next(v for v, d in enumerate(dist) if d < math.inf)
    sources = [top, start]
    # farthest-point picks spread the region-growing starts out
    for _ in range(2):
        dist = bfs_distances(g, sources)
        finite = [(d, v) for v, d in enumerate(dist) if d < math.inf]
        far = max(finite)[1]
        if far in sources:
            break
        sources.append(far)
    return list(dict.fromkeys(sources))


def _cut_orders(g: WeightedGraph) -> list[list[int]]:
    # A BFS order covers its source's component only, and every source lies
    # in the positives' component: the sweep would stop before any vertex
    # appended to the order.
    orders = []
    for s in _bfs_sources(g):
        seen = [False] * g.n
        seen[s] = True
        orders.append(bfs_tree(g, s, seen)[1])
    w = g.weights
    orders.append(sorted(range(g.n), key=lambda v: (w[v], v)))
    fiedler = _fiedler_order(g)
    if fiedler is not None:
        orders.append(fiedler)
        orders.append(fiedler[::-1])
    return orders


def _best_sweep_separation(g: WeightedGraph, bite: float = 0.0
                           ) -> Separation:
    """Sparsest prefix cut over all orders.

    Both callers pass hosts whose two or more positive vertices share a
    component, so a heaviest vertex t has a neighbour and the
    weight-ascending order's last prefix V - t is a cut, with sides W and
    w(t).  With a `bite`, only cuts whose sides each hold at least that
    share of the weight count, and the orders are swept again without it
    only when none has such a cut.  For a bite of at most 1/3 some prefix
    has such sides in exact arithmetic, so the second sweep runs only where
    float drift hides it: where w(t) > W - 2 bite W the last prefix has
    them, and otherwise the first prefix of any order whose side A reaches
    the bite leaves its side B more than the bite.
    """
    total = g.total_weight
    orders = _cut_orders(g)
    best: tuple[float, list[int], int] | None = None
    for least in (bite * total, 0.0) if bite else (0.0,):
        for order in orders:
            hit = _sweep_order(g, order, total, least)
            if hit is not None and (best is None or hit[0] < best[0]):
                best = (hit[0], order, hit[1])
        if best is not None:
            break
    return _prefix_separation(g, best[1], best[2])


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
    The steps are those of the module docstring: the window, the BFS-tree
    flow, then the sweep for the cut.  Raises FlowCutError when the tree
    flow misses gamma and no sweep cut meets the bound.  Below the endpoint
    bound that cannot happen (see the comment before the sweep); inside the
    window both searches are heuristics, so it can.
    """
    if not math.isfinite(gamma) or gamma <= 0:
        raise GraphError(f"gamma must be positive and finite, got {gamma}")
    w = g.weights
    if sum(x > 0 for x in w) < 2:
        return ConcurrentFlow(g)
    bound = CUT_CONSTANT * math.log(max(g.n, 2)) / gamma

    split = _component_split(g)
    if split is not None:
        # demands across components make any flow infeasible
        return split

    total = g.total_weight
    # a zero weight's term is 0.0, so this is the maximum over the positives
    endpoint_lb = max(2.0 * x * (total - x) for x in w)
    if gamma * (1 + _REL_TOL) >= endpoint_lb:
        flow = _attempt_tree_flow(g, gamma)
        if flow is not None:
            return flow

    # Below the endpoint bound no flow exists, and this one sweep always
    # succeeds: the weight-ascending order's last prefix cuts off a heaviest
    # vertex t at sparsity 1 / (W w(t)), while gamma < endpoint_lb <=
    # 2 w(t) W makes the bound exceed 32 ln(n) / (W w(t)).  Inside the
    # window it runs only after the tree flow missed gamma.
    sep = _best_sweep_separation(g)
    if sep.sparsity <= bound * (1 + _REL_TOL):
        return sep

    raise FlowCutError(
        "no flow within the congestion budget and no sufficiently sparse "
        "separation found")


# ---------------------------------------------------------------------------
# Balanced separator or heavy flow


@dataclass(frozen=True)
class BalancedSeparatorResult:
    """A separator S such that every component of G - S weighs <= W/2.

    `separator` is the union of the peeled separators, pruned after the
    sweep-only peel.  `pieces` are the components of G - S, each sorted,
    by least vertex.  `steps` holds the sparsity of each peeled
    separation, in peel order.
    """

    separator: frozenset[int]
    pieces: tuple[tuple[int, ...], ...]
    steps: tuple[float, ...]


@dataclass(frozen=True)
class HeavyFlowResult:
    """A concurrent flow on an induced subgraph of weight >= W/2.

    `vertices` lists the subgraph's original vertex ids; the flow's host is
    the induced subgraph with local ids `0..len(vertices)-1`.  `separator`
    collects the peeled separators and is disjoint from `vertices`, and
    `steps` the sparsity of each peeled separation.
    """

    vertices: tuple[int, ...]
    flow: ConcurrentFlow
    separator: frozenset[int]
    steps: tuple[float, ...]


def _peel(g: WeightedGraph,
          step: Callable[[WeightedGraph], ConcurrentFlow | Separation],
          units: Sequence[int]
          ) -> BalancedSeparatorResult | HeavyFlowResult:
    """Peel the lighter side of step's separations until the rest is light.

    Every iteration applies `step` to the still-active induced subgraph.  A
    flow ends the loop with the active subgraph (its weight is still at
    least W/2); otherwise the lighter side of the separation is peeled off
    and its separator accumulated.  Each step's sides come from
    `make_separation`, which rejects sides that miss a vertex or that an
    edge crosses, and the active set splits into A - B, A & B and B - A.
    So each component of G - S lies in one peeled B - A or in the last
    active set, and these components are the pieces.  Each is light, which
    both entry points check on their own graph: a peeled B - A weighs at
    most w(B) <= w(A), and A is disjoint from it; the last active set
    weighs less than W/2.  The stop rule and the lighter side compare
    `units`, so these bounds hold exactly.
    """
    total = sum(units)
    active = list(range(g.n))
    sep_acc: set[int] = set()
    steps: list[float] = []
    while 2 * sum(units[v] for v in active) >= total:
        sub, ids = induced_subgraph(g, active)
        res = step(sub)
        if isinstance(res, ConcurrentFlow):
            return HeavyFlowResult(tuple(active), res, frozenset(sep_acc),
                                   tuple(steps))
        side_a = sorted(ids[v] for v in res.side_a)
        side_b = sorted(ids[v] for v in res.side_b)
        wa = sum(units[v] for v in side_a)
        wb = sum(units[v] for v in side_b)
        if wa < wb or (wa == wb and side_b < side_a):
            side_a, side_b = side_b, side_a
        a_set = set(side_a)
        b_set = set(side_b)
        steps.append(res.sparsity)
        sep_acc.update(a_set & b_set)
        # make_separation gave both sides positive weight, so B is nonempty
        # and the active set shrinks on every step
        active = sorted(a_set - b_set)
    pieces = connected_components(g, set(range(g.n)) - sep_acc)
    return BalancedSeparatorResult(frozenset(sep_acc),
                                   tuple(map(tuple, pieces)), tuple(steps))


def balanced_separator_or_flow(g: WeightedGraph, gamma: float, *,
                               units: Sequence[int] | None = None
                               ) -> BalancedSeparatorResult | HeavyFlowResult:
    """Peel sparse separations until the rest is light, or surface a flow.

    The peel's step is `flow_or_sparse_cut(sub, gamma)`, and its balance
    is decided on `units` (see the module docstring).  The accumulated
    separator has size at most CUT_CONSTANT * W^2 * ln(n) / gamma, up to
    the factor 1 + _REL_TOL.  Step i cuts the active subgraph at (A_i, B_i)
    with B_i the lighter side, and its separator S_i = A_i & B_i has

        |S_i| = sparsity_i * w(A_i) * w(B_i),
        sparsity_i <= CUT_CONSTANT * ln(n) / gamma * (1 + _REL_TOL),

    since the subgraph has at most n vertices.  B_i - A_i and S_i both
    leave the active set, so the B_i are disjoint across steps: their
    weights sum to at most W, each w(A_i) is at most W, and the sum of
    w(A_i) * w(B_i) is at most W^2.  A component split has an empty
    separator and adds nothing.
    """
    units = weight_units(g.weights) if units is None else units
    return _peel(g, lambda sub: flow_or_sparse_cut(sub, gamma), units)


def _sweep_cut(g: WeightedGraph) -> Separation:
    """The component split, or else the sparsest sweep cut of a fair bite.

    The sweep takes the sparsest prefix cut whose sides each hold at least
    _MIN_BITE of the weight, or the sparsest cut overall where no order
    has one.
    """
    split = _component_split(g)
    if split is not None:
        return split
    w = g.weights
    positives = [v for v in range(g.n) if w[v] > 0]
    if len(positives) < 2:
        # one vertex carries all the active weight: it is the separator
        return make_separation(g, positives, range(g.n))
    return _best_sweep_separation(g, _MIN_BITE)


def _pruned(g: WeightedGraph, separator: frozenset[int],
            pieces: Sequence[Sequence[int]], units: Sequence[int]
            ) -> tuple[set[int], list[list[int]]]:
    """Give separator vertices back while every component stays light.

    `pieces` are the components of G - S, as the peel found them.  Heaviest
    first in `units`, equal weights by id, a vertex leaves the separator
    when the component of G - S it joins stays light (2 * joined <= W in
    units).  Components only grow, so one pass leaves no vertex that could
    still go back.  A union-find over the components keeps their weights,
    so the pass takes O(sum of degrees) besides the near-constant finds.
    Returns the pruned separator and the components of G - S, each sorted,
    by least vertex.
    """
    total = sum(units)
    sep = set(separator)
    comp = [-1] * g.n  # the component of each vertex outside sep
    weight = []  # by component, read at the roots
    for i, members in enumerate(pieces):
        for u in members:
            comp[u] = i
        weight.append(sum(units[u] for u in members))
    parent = list(range(len(weight)))

    def find(c: int) -> int:
        while parent[c] != c:
            parent[c] = c = parent[parent[c]]
        return c

    for v in sorted(sep, key=lambda x: (-units[x], x)):
        roots = {find(comp[u]) for u in g.adj[v] if comp[u] >= 0}
        joined = units[v] + sum(weight[r] for r in roots)
        if 2 * joined > total:
            continue
        sep.remove(v)
        root = len(parent)
        parent.append(root)
        weight.append(joined)
        for r in roots:
            parent[r] = root
        comp[v] = root
    parts: dict[int, list[int]] = {}
    for v in range(g.n):
        if v not in sep:
            parts.setdefault(find(comp[v]), []).append(v)
    return sep, list(parts.values())


def balanced_separator_by_sweeps(g: WeightedGraph, *,
                                 units: Sequence[int] | None = None
                                 ) -> BalancedSeparatorResult:
    """A balanced separator from sweep cuts alone, with no routing.

    The peel's step is the component split, or else a sweep cut: the
    sparsest prefix cut whose sides each hold at least _MIN_BITE of the
    active weight, or the sparsest cut overall where no order has one.  No
    congestion budget is involved, and no step has a sparsity bound to
    meet; only the balance at the end counts.  A fair bite peels far fewer
    crumbs (a leaf and its neighbour) and so runs fewer sweeps.  Weights
    must keep products of two sums within range (see
    `pipeline._weighed_quotient`).

    The peel's separator is then pruned (`_pruned`): vertices go back,
    heaviest first, while the component each one joins stays light, which
    wins back what the coarser steps cost.  Both decide balance on `units`
    (see the module docstring).  The pruned set is a subset of the peeled
    one, and every component of G - S still weighs at most W/2.  `pieces`
    are the components of G - S and `steps` the sparsity of each peel step.
    """
    units = weight_units(g.weights) if units is None else units
    peeled = _peel(g, _sweep_cut, units)  # a sweep step never returns a flow
    sep, pieces = _pruned(g, peeled.separator, peeled.pieces, units)
    return BalancedSeparatorResult(frozenset(sep), tuple(map(tuple, pieces)),
                                   peeled.steps)
