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
the d-th graph power.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable, Iterable

from .fatminor import (CrudeFatModel, FatModel, LiftError, PatternGraph,
                       SubdividedPattern, crude_to_fat, ensure_fat_model,
                       ensure_no_isolated, lift_model, power_model_to_base,
                       restrict_model, sample_crude_model, two_subdivision)
from .flow import (BalancedSeparatorResult, HeavyFlowResult,
                   balanced_separator_by_sweeps, balanced_separator_or_flow)
from .graph import (GraphError, QuotientGraph, SeparatorCertificate,
                    WeightedGraph, coverage_radius, greedy_cover, power,
                    quotient, verify_separator)
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
    lift_failures: int


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
    if not sep:
        return SeparatorCertificate(frozenset(), (), 0)
    own = tuple(sorted({part.centers[i] for i in ids}))
    r_own = coverage_radius(g, sep, own)
    greedy = tuple(greedy_cover(g, sep, _CENTER_SPACING))
    r_greedy = coverage_radius(g, sep, greedy)
    if (len(greedy), r_greedy) <= (len(own), r_own):
        centers, radius = greedy, r_greedy
    else:
        centers, radius = own, r_own
    return SeparatorCertificate(frozenset(sep), centers, int(radius))


def _checked(g: WeightedGraph, cert: SeparatorCertificate,
             branch: str, gamma: float | None) -> SeparatorFound:
    report = verify_separator(g, cert.separator, cert.centers, cert.radius)
    if not report.ok:
        raise GraphError(
            f"internal error: {branch} certificate failed verification "
            f"(balanced={report.balanced}, heaviest="
            f"{report.heaviest_component}, uncovered={report.uncovered[:5]})")
    return SeparatorFound(cert, branch, gamma)


# ---------------------------------------------------------------------------
# Randomized rounding of a heavy flow


def _translate_model(model: FatModel, ids: tuple[int, ...]) -> FatModel:
    return FatModel(
        model.fatness,
        {u: frozenset(ids[x] for x in s)
         for u, s in model.vertex_sets.items()},
        {e: frozenset(ids[x] for x in s)
         for e, s in model.edge_sets.items()})


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


def _round_flow_to_model(g: WeightedGraph, pattern: PatternGraph,
                         aug: PatternGraph, sub: SubdividedPattern,
                         q: QuotientGraph, close: ClusterClosePairs,
                         heavy: HeavyFlowResult, population: list[int],
                         config: PipelineConfig, rng: random.Random,
                         gamma: float) -> ModelFound | PipelineFailure:
    collisions = 0
    spread = 0
    lifts = 0
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
        local = crude_to_fat(heavy.flow.host, sub, crude, check=False)
        quotient_model = _translate_model(local, heavy.vertices)
        try:
            lifted = lift_model(g, q.clusters, aug, quotient_model, 3)
        except LiftError:
            lifts += 1
            continue
        return ModelFound(restrict_model(lifted, pattern), "rounding", gamma)
    return PipelineFailure("rounding", config.trials, collisions, spread,
                           lifts)


# ---------------------------------------------------------------------------
# The 3-fat core


def core_3fat(g: WeightedGraph, pattern: PatternGraph,
              config: PipelineConfig | None = None
              ) -> SeparatorFound | ModelFound | PipelineFailure:
    """Balanced separator certificate or 3-fat model of the pattern.

    Certificates use balls of radius at most ceil(32 / eps).  The pattern
    must have at least two vertices unless it is trivial (a one-vertex
    pattern embeds anywhere, an empty pattern everywhere).
    """
    config = config or PipelineConfig()
    if pattern.n == 0:
        return ModelFound(FatModel(3, {}, {}), "degenerate")
    if g.n == 0 or g.total_weight <= 0:
        # nothing carries weight, so the empty separator is balanced
        return _checked(g, SeparatorCertificate(frozenset(), (), 0),
                        "degenerate", None)
    if pattern.n == 1:
        return ModelFound(FatModel(3, {0: frozenset({0})}, {}), "degenerate")

    aug = ensure_no_isolated(pattern)
    sub = two_subdivision(aug)
    h = sub.size
    rng = random.Random(config.seed)

    part = sparse_partition(g, config.eps, rng)
    q = quotient(g, part.clusters)
    close = close_cluster_pairs(q)
    total = g.total_weight
    if config.congestion_override is not None:
        gamma = config.congestion_override
    else:
        gamma = total * total / (32.0 * h * math.sqrt(len(close)))

    outcome = balanced_separator_or_flow(q.graph, gamma)
    if isinstance(outcome, BalancedSeparatorResult):
        cert = _certificate_from_clusters(g, part, outcome.separator)
        return _checked(g, cert, "peeling", gamma)

    # a flow survived on a heavy set of clusters
    heavy: HeavyFlowResult = outcome
    qw = q.graph.weights
    threshold = total / (4.0 * h * h)
    local_ids = range(len(heavy.vertices))
    heavy_local = [x for x in local_ids
                   if qw[heavy.vertices[x]] >= threshold]
    light_local = [x for x in local_ids
                   if qw[heavy.vertices[x]] < threshold]
    w_heavy = math.fsum(qw[heavy.vertices[x]] for x in heavy_local)
    w_light = math.fsum(qw[heavy.vertices[x]] for x in light_local)
    if w_heavy >= w_light:
        # few heavy clusters carry half the active weight: adding them to
        # the peeled separator leaves only light components behind
        ids = set(heavy.separator)
        ids.update(heavy.vertices[x] for x in heavy_local)
        cert = _certificate_from_clusters(g, part, ids)
        return _checked(g, cert, "heavy-clusters", gamma)
    return _round_flow_to_model(g, pattern, aug, sub, q, close, heavy,
                                light_local, config, rng, gamma)


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
    """
    if fatness < 1:
        raise GraphError("fatness must be at least 1")
    config = config or PipelineConfig()
    if fatness <= 3:
        return core_3fat(g, pattern, config)
    gp = power(g, fatness)
    res = core_3fat(gp, pattern, config)
    if isinstance(res, ModelFound):
        base_model = power_model_to_base(g, gp, pattern, res.model, fatness)
        return ModelFound(base_model, res.branch, res.gamma)
    if isinstance(res, SeparatorFound):
        cert = res.certificate
        if not cert.separator:
            return _checked(g, cert, res.branch, res.gamma)
        radius = coverage_radius(g, cert.separator, cert.centers)
        new_cert = SeparatorCertificate(cert.separator, cert.centers,
                                        int(radius))
        return _checked(g, new_cert, res.branch, res.gamma)
    return res


# ---------------------------------------------------------------------------
# Separators through star quotients


QuotientSeparatorOracle = Callable[[WeightedGraph], Iterable[int]]


def _default_quotient_oracle(qg: WeightedGraph) -> Iterable[int]:
    if sum(1 for w in qg.weights if w > 0) < 2:
        return range(qg.n)
    # an exact power-of-two rescale brings the heaviest weight into [1, 2),
    # so the sweep's products of side weights neither underflow nor overflow
    shift = 1 - math.frexp(max(qg.weights))[1]
    scaled = qg.with_weights([math.ldexp(w, shift) for w in qg.weights])
    return sorted(balanced_separator_by_sweeps(scaled).separator)


def induced_minor_separator(g: WeightedGraph,
                            quotient_oracle: QuotientSeparatorOracle | None
                            = None) -> SeparatorCertificate:
    """Balanced separator covered by radius-1 balls, via a star quotient.

    The star partition keeps the quotient small; any balanced separator of
    the quotient blows up to a balanced separator of the graph made of
    whole stars, so single-ball coverage is automatic.  The quotient
    separator comes from `quotient_oracle` (default: peel sweep cuts of the
    quotient, `balanced_separator_by_sweeps`, with no congestion budget,
    routing or LP).
    """
    if g.n == 0:
        return SeparatorCertificate(frozenset(), (), 0)
    part, q = star_partition(g)
    oracle = quotient_oracle or _default_quotient_oracle
    chosen = sorted(set(oracle(q.graph)))
    for i in chosen:
        if not (0 <= i < q.graph.n):
            raise GraphError(f"quotient oracle returned bad cluster id {i}")
    report = verify_separator(q.graph, chosen, chosen, 0)
    if not report.balanced:
        raise GraphError("quotient oracle returned an unbalanced separator")
    sep: set[int] = set()
    centers = []
    for i in chosen:
        sep.update(part.clusters[i])
        centers.append(part.centers[i])
    radius = coverage_radius(g, sep, centers) if sep else 0
    cert = SeparatorCertificate(frozenset(sep), tuple(sorted(centers)),
                                int(radius))
    found = _checked(g, cert, "star-quotient", None)
    return found.certificate
