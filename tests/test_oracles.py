"""Exhaustive oracles: frozen examples, limits, and mutual consistency."""

import random

import pytest

from targetset import (
    DIRECTED,
    GenSpec,
    Instance,
    OracleLimitError,
    OracleResult,
    UNDIRECTED,
    VerificationError,
    brute_degeneracy_check,
    build_instance,
    exact_min_target_set,
    exact_min_target_vector,
    exact_min_vertex_cover,
    generate,
    grid_min_target_vector,
    is_target_set,
    is_target_vector,
    min_edge_weight,
    target_vector_lower_bound,
)
from targetset import oracles
from targetset.instance import _subset_weights
from targetset.oracles import _subset_dp


def path3(tau=1):
    return build_instance(UNDIRECTED, 3, [(1, 2), (2, 3)], tau)


def test_min_target_set_path():
    result = exact_min_target_set(path3())
    assert result.optimum == 1
    assert result.witness == {1}  # lexicographically first optimal seed


def test_min_target_set_zero_thresholds():
    result = exact_min_target_set(build_instance(UNDIRECTED, 3, [(1, 2)], 0))
    assert result.optimum == 0 and result.witness == frozenset()


def test_min_target_set_directed_arc():
    arc = build_instance(DIRECTED, 2, [(1, 2)], 1)
    result = exact_min_target_set(arc)
    assert result.optimum == 1 and result.witness == {1}
    assert not is_target_set(arc, {2})


def test_target_set_search_takes_one_branch_when_nothing_spreads():
    # Leaving a vertex out can never succeed, so the search is one chain of
    # takes: the root and 18 nodes. Enumeration by size tries all 2^18 seeds.
    result = exact_min_target_set(build_instance(UNDIRECTED, 18, [], 1))
    assert result.optimum == 18 and result.explored <= 19


def test_target_set_search_on_a_saturated_path():
    # tau = incident weight: a vertex activates once all its neighbours are
    # active, so the minimum seeds are the minimum vertex covers.
    n = 16
    path = build_instance(UNDIRECTED, n, [(i, i + 1) for i in range(1, n)],
                          [1] + [2] * (n - 2) + [1])
    result = exact_min_target_set(path)
    assert result.optimum == 8 and result.witness == set(range(1, n, 2))
    assert result.explored < 2000  # enumeration by size tries 30,415 seeds


def test_oracle_limits():
    big = build_instance(UNDIRECTED, 6, [], 0)
    with pytest.raises(OracleLimitError):
        exact_min_target_set(big, limit=5)
    with pytest.raises(OracleLimitError):
        exact_min_target_vector(big, limit=5)
    with pytest.raises(OracleLimitError):
        exact_min_vertex_cover(big, limit=5)


def test_min_target_vector_examples():
    single = build_instance(UNDIRECTED, 1, [], 5)
    assert exact_min_target_vector(single).optimum == 5
    tri = build_instance(UNDIRECTED, 3, [(1, 2), (1, 3), (2, 3)], 1)
    assert exact_min_target_vector(tri).optimum == 1
    skewed = build_instance(UNDIRECTED, 3, [(1, 2), (1, 3), (2, 3)], [1, 2, 2])
    assert exact_min_target_vector(skewed).optimum == 2


def test_oracles_on_one_vertex():
    # n = 1 leaves the low half of the subset tables empty (h = 0). A lone vertex peels, so the
    # target-vector oracle needs no tables; its dynamic program, called directly, reads both splits.
    single = build_instance(UNDIRECTED, [4], [], 3)
    assert exact_min_target_vector(single) == OracleResult(3, {4: 3}, 0)
    view = single.compiled
    for h in (0, oracles._dp_split(1)):
        assert _subset_dp(view, *_subset_weights(view, h)) == ([(0, 3)], 3)
    assert exact_min_target_set(single) == OracleResult(1, {4}, 2)
    assert brute_degeneracy_check(single)
    free = build_instance(UNDIRECTED, [4], [], 0)
    assert exact_min_target_vector(free) == OracleResult(0, {4: 0}, 0)
    assert exact_min_target_set(free) == OracleResult(0, frozenset(), 1)
    assert brute_degeneracy_check(free)


def test_oracles_on_directed_two_cycle():
    # n = 2 puts one position in each half; the arcs differ in weight.
    cycle = build_instance(DIRECTED, 2, [(1, 2, 2), (2, 1, 1)], [1, 3])
    vec = exact_min_target_vector(cycle)
    assert vec == OracleResult(2, {1: 1, 2: 1}, 4)
    assert list(vec.witness) == [1, 2]
    # The target-set search pops five nodes: the root (closure empty); the
    # seed {1} (closure {1}; leaving 2 out cannot succeed); the seed {1, 2},
    # which succeeds with size 2; the root's leave-out branch (the closure of
    # {2} is everything); and the seed {2}, which succeeds with size 1.
    assert exact_min_target_set(cycle) == OracleResult(1, {2}, 5)


def test_target_vector_tie_ends_at_largest_position():
    # Both orders cost 1; the witness ends at the last position (vertex 5).
    pair = build_instance(UNDIRECTED, [5, 3], [(5, 3)], 1)
    assert list(exact_min_target_vector(pair).witness.items()) == [(3, 1), (5, 0)]


def test_oracles_on_zero_thresholds():
    path = build_instance(UNDIRECTED, [7, 2, 9], [(7, 2), (2, 9)], 0)
    assert exact_min_target_vector(path) == OracleResult(0, {7: 0, 2: 0, 9: 0}, 12)
    assert exact_min_target_set(path) == OracleResult(0, frozenset(), 1)
    # In the subgraph {7, 2} each member receives weight 1 > 0 from the other.
    assert not brute_degeneracy_check(path)


def test_target_vector_explores_every_transition():
    # An instance that does not peel completely goes whole to the dynamic program, which examines
    # every (set, last vertex) pair. All-low thresholds (incident weight minus the least weight) on
    # a connected graph peel no vertex, and a tournament is not symmetric, so it is never peeled.
    rng = random.Random(21)
    for n in range(2, 9):
        base = generate(GenSpec(n=n, seed=rng.randrange(2**32), weights="halves", connected=True))
        mu = min_edge_weight(base)
        all_low = Instance(base.mode, base.vertices, base.edges,
                           {v: t - mu for v, t in base.incident_totals.items()})
        assert exact_min_target_vector(all_low).explored == n * 2 ** (n - 1)
        tournament = generate(GenSpec(family="tournament", n=n, seed=rng.randrange(2**32)))
        assert exact_min_target_vector(tournament).explored == n * 2 ** (n - 1)


def test_min_vertex_cover_examples():
    assert exact_min_vertex_cover(path3()).optimum == 1
    assert exact_min_vertex_cover(path3()).witness == {2}
    tri = build_instance(UNDIRECTED, 3, [(1, 2), (1, 3), (2, 3)], 1)
    assert exact_min_vertex_cover(tri).optimum == 2
    assert exact_min_vertex_cover(build_instance(UNDIRECTED, 3, [], 1)).optimum == 0


def test_grid_search_requires_integer_data():
    halves = build_instance(UNDIRECTED, 3, [(1, 2), (3, 2, "1/2"), (1, 3, "3/2")], 1)
    with pytest.raises(ValueError, match=r"^integer weights required, edge \(3, 2\) has 1/2$"):
        grid_min_target_vector(halves)
    frac_tau = build_instance(UNDIRECTED, 2, [(1, 2, "1/2")], [1, "1/2"])
    with pytest.raises(ValueError, match="^integer thresholds required, vertex 2 has 1/2$"):
        grid_min_target_vector(frac_tau)


def test_vertex_cover_oracle_rejects_a_witness_that_misses_an_edge(monkeypatch):
    # A search that wrongly reports the empty set as a minimum cover.
    monkeypatch.setattr("targetset.oracles._min_cover", lambda *args: (0, 0))
    with pytest.raises(VerificationError, match="oracle witness is not a vertex cover"):
        exact_min_vertex_cover(path3())


def test_grid_search_matches_order_oracle():
    rng = random.Random(9)
    for _ in range(40):
        n = rng.randint(1, 4)
        edges = [
            (u, v, rng.randint(0, 3))
            for u in range(1, n + 1)
            for v in range(u + 1, n + 1)
            if rng.random() < 0.6
        ]
        inst = build_instance(UNDIRECTED, n, edges, [rng.randint(0, 3) for _ in range(n)])
        assert grid_min_target_vector(inst).optimum == exact_min_target_vector(inst).optimum


def test_oracles_handle_tournaments():
    rng = random.Random(13)
    for _ in range(8):
        inst = generate(GenSpec(family="tournament", n=rng.randint(2, 7),
                                seed=rng.randrange(2**32)))
        seed_result = exact_min_target_set(inst)
        assert is_target_set(inst, seed_result.witness)
        vec_result = exact_min_target_vector(inst, limit=7)
        assert is_target_vector(inst, vec_result.witness)
        assert vec_result.optimum <= inst.tau_total


def test_witnesses_verify_and_bounds_hold():
    rng = random.Random(17)
    for _ in range(40):
        inst = generate(GenSpec(n=rng.randint(1, 7), seed=rng.randrange(2**32),
                                tau_policy=rng.choice(("uniform", "capped"))))
        seed_result = exact_min_target_set(inst)
        assert is_target_set(inst, seed_result.witness)
        assert len(seed_result.witness) == seed_result.optimum
        vec_result = exact_min_target_vector(inst, limit=7)
        assert is_target_vector(inst, vec_result.witness)
        assert target_vector_lower_bound(inst) <= vec_result.optimum <= inst.tau_total
        totals = inst.incident_totals
        if all(inst.tau[v] <= totals[v] for v in inst.vertices):
            assert seed_result.optimum <= exact_min_vertex_cover(inst).optimum
