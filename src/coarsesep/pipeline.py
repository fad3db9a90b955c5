"""End-to-end search for a balanced separator or a fat pattern minor.

`coarse_separator_or_model` is the package's main entry point: given a
host graph, a pattern and a fatness d, it produces one of

* a `SeparatorFound` carrying a verified certificate — a balanced
  separator covered by few balls of bounded radius, or
* a `ModelFound` carrying a verified d-fat model of the pattern, or
* a `PipelineFailure` when the randomized rounding exhausts its trials
  (the failure records why each trial died).

The 3-fat core works on a cluster quotient: a sparse partition collapses
the host into a small weighted quotient, a flow/cut loop either peels off
a balanced separator (whose clusters become the certificate) or surfaces
a concurrent flow on a heavy part, and the flow is rounded into branch
sets by independent sampling.  Fatness above 3 is reduced to the core on
the d-th graph power.  Each entry point verifies its answer (certificate
or model) once, on the caller's graph, where it returns it.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, replace
from typing import Iterable

from .fatminor import (CrudeFatModel, FatModel, PatternGraph,
                       SubdividedPattern, crude_to_fat, ensure_fat_model,
                       ensure_no_isolated, lift_model, power_model_to_base,
                       restrict_model, sample_crude_model, two_subdivision)
from .flow import (BalancedSeparatorResult, HeavyFlowResult,
                   balanced_separator_by_sweeps, balanced_separator_or_flow)
from .graph import (GraphError, QuotientGraph, SeparatorCertificate,
                    WeightedGraph, coverage_radius, greedy_cover, power,
                    quotient, verify_separator, weight_units)
from .partition import (ClusterClosePairs, ConnectedPartition,
                        close_cluster_pairs, sparse_partition, star_partition)

_CENTER_SPACING = 32  # greedy cover radius; centers may lie closer


@dataclass
class PipelineConfig:
    """Tuning knobs shared by every pipeline entry point.

    `congestion_override` replaces the computed congestion budget of the
    flow/cut loop; it exists so the rounding machinery can be exercised on
    graphs far below the scale where the default budget ever admits a
    flow.
    """

    eps: float = 1.0
    trials: int = 64
    seed: int = 0
    congestion_override: float | None = None


@dataclass(frozen=True)
class SeparatorFound:
    certificate: SeparatorCertificate
    branch: str = "peeling"
    gamma: float | None = None


@dataclass(frozen=True)
class ModelFound:
    model: FatModel
    branch: str = "rounding"
    gamma: float | None = None


@dataclass(frozen=True)
class PipelineFailure:
    """All rounding trials failed; counters say how."""

    stage: str
    trials: int
    collision_failures: int
    spread_failures: int


PipelineResult = SeparatorFound | ModelFound | PipelineFailure


# ---------------------------------------------------------------------------
# Certificates from cluster sets


def _certificate_from_clusters(g: WeightedGraph, part: ConnectedPartition,
                               cluster_ids: Iterable[int]
                               ) -> SeparatorCertificate:
    """Build a certificate for the union of the given clusters.

    Two center candidates compete: the clusters' own centers (coverage
    within the partition's strong diameter) and a greedy radius-32 cover
    of the separator (coverage within the spacing; its centers may lie
    closer than 32 to each other).  The smaller set wins.
    """
    ids = sorted(set(cluster_ids))
    sep: set[int] = set()
    for i in ids:
        sep.update(part.clusters[i])
    own = tuple(sorted({part.centers[i] for i in ids}))
    r_own = coverage_radius(g, sep, own)
    greedy = tuple(greedy_cover(g, sep, _CENTER_SPACING))
    r_greedy = coverage_radius(g, sep, greedy)
    if (len(greedy), r_greedy) <= (len(own), r_own):
        centers, radius = greedy, r_greedy
    else:
        centers, radius = own, r_own
    return SeparatorCertificate(frozenset(sep), centers, int(radius))


def _checked(g: WeightedGraph, res: SeparatorFound | ModelFound,
             pattern: PatternGraph | None = None
             ) -> SeparatorFound | ModelFound:
    """`res`, once its certificate or its model of `pattern` verifies on g."""
    # a failure is an internal fault: every branch builds an answer that passes
    if isinstance(res, ModelFound):
        ensure_fat_model(g, pattern, res.model, res.model.fatness)
        return res
    cert = res.certificate
    report = verify_separator(g, cert.separator, cert.centers, cert.radius)
    if not report.ok:
        raise GraphError(
            f"{res.branch} certificate failed verification "
            f"(balanced={report.balanced}, heaviest="
            f"{report.heaviest_component}, uncovered={report.uncovered[:5]})")
    return res


# ---------------------------------------------------------------------------
# Randomized rounding of a heavy flow


def _spread_ok(sub: SubdividedPattern, crude: CrudeFatModel,
               ids: tuple[int, ...], close: ClusterClosePairs) -> bool:
    """No two paths of separated subdivision edges touch close clusters."""
    footprints = {e: frozenset(ids[x] for x in p)
                  for e, p in crude.edge_paths.items()}
    for e, f in sub.separated_edge_pairs():
        fa, fb = footprints[e], footprints[f]
        for a in fa:
            for b in fb:
                if close.close(a, b):
                    return False
    return True


def _round_flow_to_model(pattern: PatternGraph, sub: SubdividedPattern,
                         q: QuotientGraph, close: ClusterClosePairs,
                         heavy: HeavyFlowResult, population: list[int],
                         config: PipelineConfig, rng: random.Random,
                         gamma: float) -> ModelFound | PipelineFailure:
    """Sample crude models from the flow until one survives, then lift it.

    A trial fails by collision (two subdivision vertices on one cluster)
    or by spread; one that passes both lifts to a 3-fat model.  `sub`
    subdivides a pattern with no isolated vertex, so each pair of branch
    sets that must stay 3 apart comes from two subdivision edges with four
    distinct ends, whose footprints `_spread_ok` found at quotient distance
    >= 3.  Lifting keeps connectivity and only grows distances.
    """
    collisions = 0
    spread = 0
    # the clusters under the flow host's local ids, so lifting relabels once
    clusters = [q.clusters[v] for v in heavy.vertices]
    for _ in range(config.trials):
        crude = sample_crude_model(sub, heavy.flow, 3, rng,
                                   population=population)
        images = list(crude.vertex_map.values())
        if len(set(images)) != len(images):
            collisions += 1
            continue
        if not _spread_ok(sub, crude, heavy.vertices, close):
            spread += 1
            continue
        lifted = lift_model(clusters, crude_to_fat(sub, crude), 3)
        return ModelFound(restrict_model(lifted, pattern), "rounding", gamma)
    return PipelineFailure("rounding", config.trials, collisions, spread)


# ---------------------------------------------------------------------------
# The 3-fat core


def _heaviest_weight_one(g: WeightedGraph) -> tuple[WeightedGraph, float]:
    """`g` with its weights divided by the heaviest one, and that weight.

    Uniform weights become exactly 1.  When no weight needs dividing (the
    heaviest is 1, or none is positive) the result is `g` itself and 1.
    """
    top = max(g.weights, default=0.0)
    if top > 0 and top != 1.0:
        return g.with_weights([w / top for w in g.weights]), top
    return g, 1.0


def _cluster_units(g: WeightedGraph, q: QuotientGraph) -> list[int]:
    """Each cluster of `q` as its exact sum of `weight_units` of `g`."""
    units = weight_units(g.weights)
    return [sum(units[v] for v in cl) for cl in q.clusters]


def _core_3fat(g: WeightedGraph, pattern: PatternGraph,
               config: PipelineConfig | None = None
               ) -> SeparatorFound | ModelFound | PipelineFailure:
    """Balanced separator certificate or 3-fat model of the pattern.

    Certificates use balls of radius at most ceil(32 / eps).  The pattern
    must have at least two vertices unless it is trivial (a one-vertex
    pattern embeds anywhere, an empty pattern everywhere).

    The flow and the sweep work on the weights divided by the heaviest
    one; uniform weights become exactly 1, so at any scale from 1e-300 to
    1e300 they give the unit-weight answer.  `congestion_override` and the
    reported `gamma` scale as W^2 and are in the caller's scale.  The peel
    and the heavy-clusters test decide balance exactly, on `_cluster_units`
    of g (a graph power keeps g's vertices).  Answers come back unverified:
    `coarse_separator_or_model` checks them on its own graph.

    At the paper's gamma the rounding branch needs quotients far larger
    than this pure-Python code reaches.  A flow needs gamma at least the
    endpoint bound of the active quotient, which on N clusters of equal
    weight is about W^2 / N, and |close| >= N; so it needs N >= 1024 h^2
    clusters, about 50,000 for K2 (h = 7) and 330,000 for a triangle
    (h = 18), and its routing keeps N trees of N entries each.  Only
    `congestion_override` reaches that branch.
    """
    config = config or PipelineConfig()
    if config.trials < 0:
        raise GraphError(f"trials must be nonnegative, got {config.trials}")
    if pattern.n == 0:
        return ModelFound(FatModel(3, {}, {}), "degenerate")
    if g.total_weight <= 0:
        # nothing carries weight, so the empty separator is balanced
        return SeparatorFound(SeparatorCertificate(frozenset(), (), 0),
                              "degenerate")
    if pattern.n == 1:
        return ModelFound(FatModel(3, {0: frozenset({0})}, {}), "degenerate")

    sub = two_subdivision(ensure_no_isolated(pattern))
    h = sub.size
    rng = random.Random(config.seed)
    host, top = _heaviest_weight_one(g)

    part = sparse_partition(host, config.eps, rng)
    q = quotient(host, part.clusters)
    units = _cluster_units(g, q)
    close = close_cluster_pairs(q)
    total = host.total_weight
    override = config.congestion_override
    if override is not None:
        gamma = override / top / top
    else:
        gamma = total * total / (32.0 * h * math.sqrt(len(close)))
    # gamma in the caller's scale: 0 or inf beyond the float range
    reported = override if override is not None else gamma * top * top

    outcome = balanced_separator_or_flow(q.graph, gamma, units=units)
    if isinstance(outcome, BalancedSeparatorResult):
        cert = _certificate_from_clusters(host, part, outcome.separator)
        return SeparatorFound(cert, "peeling", reported)

    # a flow survived on a heavy set of clusters
    heavy: HeavyFlowResult = outcome
    qw = q.graph.weights
    threshold = total / (4.0 * h * h)
    light_local = [x for x, c in enumerate(heavy.vertices)
                   if qw[c] < threshold]
    w_light = sum(units[heavy.vertices[x]] for x in light_local)
    if 2 * w_light <= sum(units[c] for c in heavy.vertices):
        # the light clusters weigh at most half the active weight: adding
        # the heavy ones to the peeled separator leaves only light parts
        ids = set(heavy.separator)
        ids.update(c for c in heavy.vertices if qw[c] >= threshold)
        cert = _certificate_from_clusters(host, part, ids)
        return SeparatorFound(cert, "heavy-clusters", reported)
    return _round_flow_to_model(pattern, sub, q, close, heavy, light_local,
                                config, rng, reported)


# ---------------------------------------------------------------------------
# General fatness via graph powers


def coarse_separator_or_model(g: WeightedGraph, pattern: PatternGraph,
                              fatness: int,
                              config: PipelineConfig | None = None
                              ) -> SeparatorFound | ModelFound | PipelineFailure:
    """Balanced separator certificate or d-fat model, for any d >= 1.

    Fatness up to 3 runs the core directly (a 3-fat model is d-fat for
    every d <= 3).  Larger d runs the core on the d-th power: a model
    there converts to a d-fat model here, and a certificate keeps its
    separator while its radius is re-measured in this graph (one power
    hop is at most d hops, so the radius stays within d * ceil(32/eps)).
    The core decides the weight scale (see `_core_3fat`); a certificate or
    model is verified once, on `g`.
    """
    if fatness < 1:
        raise GraphError("fatness must be at least 1")
    g_core = g if fatness <= 3 else power(g, fatness)
    res = _core_3fat(g_core, pattern, config)
    if isinstance(res, PipelineFailure):
        return res
    if g_core is not g and isinstance(res, ModelFound):
        res = replace(res, model=power_model_to_base(g, g_core, pattern,
                                                     res.model, fatness))
    elif g_core is not g:
        cert = res.certificate
        radius = coverage_radius(g, cert.separator, cert.centers)
        res = replace(res, certificate=replace(cert, radius=int(radius)))
    return _checked(g, res, pattern)


# ---------------------------------------------------------------------------
# Separators through star quotients


def induced_minor_separator(g: WeightedGraph) -> SeparatorCertificate:
    """Balanced separator covered by radius-1 balls, via a star quotient.

    The star partition keeps the quotient small; any balanced separator of
    the quotient blows up to a balanced separator of the graph made of
    whole stars, so single-ball coverage is automatic.  The quotient
    separator comes from peeling sweep cuts of the quotient, each with
    both sides at least 5 % of the active weight, and then pruning it
    (`balanced_separator_by_sweeps`, with no congestion budget or
    routing): stars go back while every component stays light.  The
    quotient carries the weights divided by the heaviest one, so its
    heaviest weight lies in [1, n]: the sweep's products of side weights
    stay in the float range, and uniform weights at any scale give the
    unit-weight answer.  Balance is decided exactly, on each star's sum of
    `weight_units` of g, and checked once, when the certificate is
    verified on `g`, since the components of G - S are unions of stars.
    """
    if g.total_weight <= 0:
        # nothing carries weight, so the empty separator is balanced
        return SeparatorCertificate(frozenset(), (), 0)
    host = _heaviest_weight_one(g)[0]
    part, q = star_partition(host)
    res = balanced_separator_by_sweeps(q.graph, units=_cluster_units(g, q))
    sep: set[int] = set()
    centers = []
    # in id order: a set's repr follows the order its members went in
    for i in sorted(res.separator):
        sep.update(part.clusters[i])
        centers.append(part.centers[i])
    radius = coverage_radius(g, sep, centers)
    cert = SeparatorCertificate(frozenset(sep), tuple(sorted(centers)),
                                int(radius))
    return _checked(g, SeparatorFound(cert, "star-quotient")).certificate
