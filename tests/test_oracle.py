import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coarsesep import (
    FatModel,
    GraphError,
    PatternGraph,
    WeightedGraph,
    brute_force_fat_minor,
    exact_min_balanced_separator,
    exact_sparsest_separation,
    verify_fat_model,
    verify_separator,
)
from coarsesep.generators import (
    complete_graph,
    cycle_graph,
    path_graph,
)

K2 = PatternGraph(2, [(0, 1)])
P3 = PatternGraph(3, [(0, 1), (1, 2)])
K3 = PatternGraph(3, [(0, 1), (1, 2), (0, 2)])

PETERSEN = WeightedGraph(10, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0),
                              (5, 7), (7, 9), (9, 6), (6, 8), (8, 5),
                              (0, 5), (1, 6), (2, 7), (3, 8), (4, 9)])

# which (host, pattern, fatness) triples admit a model, checked exhaustively
EXISTENCE = {
    "P4": {"K2": {1, 2, 3}, "P3": {1}, "K3": set()},
    "C6": {"K2": {1, 2, 3}, "P3": {1}, "K3": {1}},
    "C12": {"K2": {1, 2, 3}, "P3": {1, 2, 3}, "K3": {1, 2}},
    "petersen": {"K2": {1, 2}, "P3": {1}, "K3": {1}},
}

HOSTS = {"P4": path_graph(4), "C6": cycle_graph(6),
         "C12": cycle_graph(12), "petersen": PETERSEN}
PATTERNS = {"K2": K2, "P3": P3, "K3": K3}


@pytest.mark.parametrize("host_name", sorted(HOSTS))
@pytest.mark.parametrize("pat_name", sorted(PATTERNS))
def test_brute_force_existence_table(host_name, pat_name):
    g = HOSTS[host_name]
    pat = PATTERNS[pat_name]
    for d in (1, 2, 3):
        model = brute_force_fat_minor(g, pat, d)
        expect = d in EXISTENCE[host_name][pat_name]
        assert (model is not None) == expect, (host_name, pat_name, d)
        if model is not None:
            assert verify_fat_model(g, pat, model, d).ok


@st.composite
def _host_pattern_candidate(draw):
    """A host of up to 8 vertices, a pattern, a fatness and a candidate.

    Each branch set of the candidate grows from one vertex by up to two
    more, each a neighbour of the set or, now and then, any vertex: most
    sets are connected, so candidates come close to a model, and some are
    not.
    """
    n = draw(st.integers(1, 8))
    pairs = list(itertools.combinations(range(n), 2))
    g = WeightedGraph(n, [e for e in pairs if draw(st.booleans())])
    pattern = draw(st.sampled_from([K2, P3, K3]))
    d = draw(st.integers(1, 3))

    def branch_set():
        grown = [draw(st.integers(0, n - 1))]
        for _ in range(draw(st.integers(0, 2))):
            rim = {v for u in grown for v in g.adj[u]} - set(grown)
            if not rim or draw(st.integers(0, 3)) == 0:
                rim = set(range(n)) - set(grown)
            if rim:
                grown.append(draw(st.sampled_from(sorted(rim))))
        return frozenset(grown)

    candidate = FatModel(d, {u: branch_set() for u in range(pattern.n)},
                         {e: branch_set() for e in pattern.edges})
    return g, pattern, d, candidate


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(_host_pattern_candidate())
def test_verifier_agrees_with_the_brute_force_oracle(case):
    # the oracle's model verifies; where it finds none, neither the drawn
    # candidate nor the oracle's model at a lower fatness verifies
    g, pattern, d, candidate = case
    model = brute_force_fat_minor(g, pattern, d)
    if model is not None:
        assert verify_fat_model(g, pattern, model, d).ok
        return
    assert not verify_fat_model(g, pattern, candidate, d).ok
    for lower in range(1, d):
        near = brute_force_fat_minor(g, pattern, lower)
        if near is not None:
            assert not verify_fat_model(g, pattern, near, d).ok


def test_brute_force_monotone_in_fatness():
    # a d-fat model is also (d-1)-fat, so existence can only shrink with d
    for host in HOSTS.values():
        for pat in PATTERNS.values():
            exists = [brute_force_fat_minor(host, pat, d) is not None
                      for d in (1, 2, 3)]
            assert exists == sorted(exists, reverse=True)


def test_brute_force_respects_caps():
    with pytest.raises(GraphError):
        brute_force_fat_minor(path_graph(13), K2, 1)
    with pytest.raises(GraphError):
        brute_force_fat_minor(path_graph(4), PatternGraph(4, [(0, 1), (1, 2),
                                                              (2, 3)]), 1)
    with pytest.raises(GraphError):
        brute_force_fat_minor(path_graph(4), K2, 0)


def test_brute_force_single_vertex_pattern():
    model = brute_force_fat_minor(path_graph(3), PatternGraph(1, []), 2)
    assert model is not None
    assert verify_fat_model(path_graph(3), PatternGraph(1, []), model, 2).ok


def test_exact_sparsest_on_path():
    sep = exact_sparsest_separation(path_graph(3))
    assert sep.sparsity == pytest.approx(0.25)
    assert sorted(sep.separator) == [1]


def test_exact_sparsest_on_clique():
    sep = exact_sparsest_separation(complete_graph(4))
    assert sep.sparsity == pytest.approx(0.25)
    assert len(sep.separator) == 1


def test_exact_sparsest_prefers_disconnection():
    g = WeightedGraph(6, [(0, 1), (1, 2), (3, 4), (4, 5)])
    sep = exact_sparsest_separation(g)
    assert sep.sparsity == 0.0
    assert not sep.separator


def test_exact_sparsest_weighted():
    # heavy endpoints reward the central cut
    g = path_graph(4).with_weights([10, 1, 1, 10])
    sep = exact_sparsest_separation(g)
    assert sep.sparsity <= 1 / (11 * 11)


def test_exact_min_balanced_separator_values():
    assert sorted(exact_min_balanced_separator(path_graph(5))) == [2]
    assert len(exact_min_balanced_separator(cycle_graph(6))) == 2
    assert len(exact_min_balanced_separator(complete_graph(4))) == 2
    star = WeightedGraph(6, [(0, i) for i in range(1, 6)])
    assert sorted(exact_min_balanced_separator(star)) == [0]


def test_exact_min_balanced_separator_is_balanced():
    for g in (path_graph(9), cycle_graph(8), complete_graph(5)):
        s = exact_min_balanced_separator(g)
        report = verify_separator(g, s, sorted(s), 0)
        assert report.balanced


def test_exact_searches_respect_cap():
    with pytest.raises(GraphError):
        exact_sparsest_separation(path_graph(17))
    with pytest.raises(GraphError):
        exact_min_balanced_separator(path_graph(17))


@pytest.mark.parametrize("call, expected", [
    # an empty pattern embeds vacuously, even in an empty host
    (lambda: brute_force_fat_minor(WeightedGraph(0), PatternGraph(0, []), 2),
     FatModel(2, {}, {})),
    (lambda: brute_force_fat_minor(WeightedGraph(0), K2, 1), None),
    (lambda: exact_sparsest_separation(WeightedGraph(0)), None),
    # no weight to put on either side
    (lambda: exact_sparsest_separation(
        WeightedGraph(3, [(0, 1)], [0.0, 0.0, 0.0])), None),
], ids=["empty-pattern", "empty-host", "empty-graph", "weightless"])
def test_empty_inputs_give_the_empty_answer(call, expected):
    assert call() == expected
