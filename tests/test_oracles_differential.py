"""The exhaustive oracles against the model's, and the target-vector search against its DP.

The model enumerates vertex sets in the order its witness rules name:
seed sets and vertex covers by size and then lexicographically, and every
set's cheapest activation order, by a plain dynamic program, walking back
through the largest last id. The library's subset tables, branch and bound,
closure worklists and bounded search tree must give the same optimum and
witness; the target-vector DP also the same witness order and `explored`
count, and the degeneracy check the same verdict as the definition over
every vertex set.

Above the target-vector oracle's default limit, its closed-set search is
checked against the subset dynamic program it runs in front of: the same
optimum, and a witness that pays every vertex, sums to the optimum and
passes the engine. When the search gives up, the program's answer comes
back unchanged. A digraph whose arcs pair up with equal opposite arcs, as
the bidirected image of an undirected instance does, takes the search's
undirected estimate, and must give the undirected instance's answer; one
with a single unequal pair must still reach the program's optimum. The
search's undirected estimate is checked on every vertex set of small
instances: its waste against the model's, and the estimate against the
model's cheapest cost still to come.
"""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from targetset import (
    DIRECTED,
    UNDIRECTED,
    GenSpec,
    Instance,
    OracleResult,
    brute_degeneracy_check,
    exact_min_target_set,
    exact_min_target_vector,
    exact_min_vertex_cover,
    generate,
    grid_min_target_vector,
    min_edge_weight,
    target_vector_lower_bound,
    to_bidirected,
)
from targetset import oracles
from targetset.engine import is_target_vector
from targetset.errors import VerificationError
from targetset.instance import _subset_weights
from targetset.oracles import _closed_set_search, _subset_dp

import model


@given(model.instances())
@settings(max_examples=300, deadline=None)
def test_target_vector_matches_the_model(inst):
    got = exact_min_target_vector(inst, limit=9)
    expected = model.min_target_vector(inst)
    assert got == expected
    assert list(got.witness.items()) == list(expected.witness.items())


# Some thresholds at 0, at the incoming total or above it, where the
# target-set search's skip and feasibility cuts apply.
@given(model.patterned(("cuts",), modes=(UNDIRECTED, DIRECTED), min_n=0, max_n=9, free=model.THRESHOLDS))
@settings(max_examples=300, deadline=None)
def test_target_set_matches_the_model(inst):
    # The branch and bound counts its nodes, at most the 2^(n+1) - 1 of the
    # full binary tree over the n positions, where the model counts seeds.
    got, expected = exact_min_target_set(inst), model.min_target_set(inst)
    assert (got.optimum, got.witness) == (expected.optimum, expected.witness)
    assert got.explored <= 2 ** (inst.n + 1) - 1


@given(model.instances(modes=(UNDIRECTED,)))
@settings(max_examples=300, deadline=None)
def test_degeneracy_check_matches_the_model(inst):
    assert brute_degeneracy_check(inst) == model.is_degenerate(inst)


# Unit weights, from the empty instance up to n = 14, at every density, with
# isolated vertices and directed 2-cycles, which cover as one edge.
@given(model.instances(max_n=14, weights=st.just(Fraction(1)), thresholds=st.just(Fraction(1)),
                       density=st.integers(0, 10), isolated=True))
@settings(max_examples=300, deadline=None)
def test_vertex_cover_matches_the_model(inst):
    got, expected = exact_min_vertex_cover(inst, limit=14), model.min_vertex_cover(inst)
    assert (got.optimum, got.witness) == (expected.optimum, expected.witness)


def _dp_result(instance: Instance) -> OracleResult:
    """What the subset dynamic program alone answers, called directly."""
    view = instance.compiled
    order, cost = _subset_dp(view, *_subset_weights(view))
    witness = {instance.vertices[i]: Fraction(d, view.scale) for i, d in order}
    return OracleResult(Fraction(cost, view.scale), witness, instance.n << (instance.n - 1))


def _check_closed_set_path(instance: Instance) -> None:
    n = instance.n
    with pytest.MonkeyPatch.context() as patch:
        # A budget of every set never runs out, so no fallback can hide a wrong answer.
        patch.setattr(oracles, "_SEARCH_BUDGET", 1)
        got = exact_min_target_vector(instance, limit=n)
    # Closed sets expanded, fewer than the program's n * 2^(n-1) pairs.
    assert got.explored < n << (n - 1)
    assert got.optimum == _dp_result(instance).optimum
    assert sorted(got.witness) == sorted(instance.vertices)
    assert sum(got.witness.values()) == got.optimum
    assert is_target_vector(instance, got.witness)


def _saturated(spec: GenSpec) -> Instance:
    base = generate(spec)
    return Instance(base.mode, base.vertices, base.edges, base.incident_totals)


def _kind_instance(kind: str, n: int, seed: int) -> Instance:
    weights = "halves" if seed % 2 else "int"
    if kind in ("degenerate", "tournament"):
        return generate(GenSpec(family=kind, n=n, seed=seed, edge_prob=0.3, weights=weights))
    if kind == "saturated":
        return _saturated(GenSpec(n=n, seed=seed, edge_prob=0.4, weights=weights))
    # Connected, so that no two-level threshold drops below zero.
    return generate(GenSpec(n=n, seed=seed, edge_prob=0.3, weights=weights,
                            tau_policy=kind, connected=True))


_KINDS = ("uniform", "capped", "min-or-full", "two-level", "saturated", "degenerate", "tournament")


@pytest.mark.parametrize("kind", _KINDS)
@pytest.mark.parametrize("n", [10, 13, 16])
@pytest.mark.parametrize("seed", [1, 2])
def test_closed_set_search_matches_dp(kind, n, seed):
    _check_closed_set_path(_kind_instance(kind, n, seed))


# The closed-set search's work on a fixed corpus: G(14, 0.3) with halves weights, seeds 1-10, each
# with its generated thresholds, saturated ones (tau = incident weight), and its generated ones with
# every third id raised above its incident weight. name -> `explored`. An estimate that stays too
# high still finds the optimum, but only through the fallback to the DP, whose `explored` is at
# least n * 2^(n-1) = 57,344; so only this table sees it. Change an entry only with the reason for
# its change.
_SEARCH_WORK = {
    "generated-1": 6, "saturated-1": 8, "over-1": 10,
    "generated-2": 2, "saturated-2": 6, "over-2": 6,
    "generated-3": 9, "saturated-3": 7, "over-3": 10,
    "generated-4": 10, "saturated-4": 9, "over-4": 14,
    "generated-5": 8, "saturated-5": 9, "over-5": 67,
    "generated-6": 14, "saturated-6": 8, "over-6": 14,
    "generated-7": 11, "saturated-7": 9, "over-7": 14,
    "generated-8": 57, "saturated-8": 8, "over-8": 51,
    "generated-9": 2, "saturated-9": 9, "over-9": 7,
    "generated-10": 12, "saturated-10": 9, "over-10": 12,
}


def _search_corpus():
    for seed in range(1, 11):
        base = generate(GenSpec(n=14, seed=seed, edge_prob=0.3, weights="halves"))
        totals = base.incident_totals
        yield f"generated-{seed}", base
        yield f"saturated-{seed}", Instance(base.mode, base.vertices, base.edges, totals)
        yield f"over-{seed}", Instance(base.mode, base.vertices, base.edges,
                                       {v: totals[v] + 1 if v % 3 == 0 else base.tau[v] for v in base.vertices})


def test_closed_set_search_work_is_pinned():
    work = {name: exact_min_target_vector(inst, limit=14).explored for name, inst in _search_corpus()}
    assert work == _SEARCH_WORK


@pytest.mark.parametrize("kind", ["two-level", "saturated"])
@pytest.mark.parametrize("seed", [1, 2])
def test_two_level_and_saturated_searches_answer_within_the_budget(kind, seed):
    # Nearly every set is closed here, but the telescoping estimate T(S) is
    # exact on saturated thresholds and close on two-level ones: the search
    # reaches the full set after a few dozen expansions, without the program.
    n = 16
    got = exact_min_target_vector(_kind_instance(kind, n, seed), limit=n)
    assert got.explored < n << (n - 1)
    assert got.explored <= 4 * n


@pytest.mark.parametrize("kind", [k for k in _KINDS if k != "tournament"])
@pytest.mark.parametrize("n", [10, 11, 12, 13])
def test_bidirected_search_is_the_undirected_search(kind, n):
    # Each vertex receives from every set what it receives in the source, so
    # the image takes the undirected estimate and the search runs as on the
    # source: the same optimum, witness and expansions, and the program's optimum.
    instance = _kind_instance(kind, n, n)
    image = to_bidirected(instance).image
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(oracles, "_SEARCH_BUDGET", 1)
        directed = exact_min_target_vector(image, limit=n)
        undirected = exact_min_target_vector(instance, limit=n)
    assert directed == undirected
    assert directed.optimum == _dp_result(image).optimum


@pytest.mark.parametrize("n", [12, 16])
def test_bidirected_all_low_image_answers_without_the_program(n):
    # The all-low image below fell back to the program at n = 16 (525,059
    # explored) while its undirected source needs 35 expansions.
    base = generate(GenSpec(n=n, seed=1, edge_prob=0.4, weights="halves", connected=True))
    mu = min_edge_weight(base)
    source = Instance(base.mode, base.vertices, base.edges,
                      {v: t - mu for v, t in base.incident_totals.items()})
    image = to_bidirected(source).image
    got = exact_min_target_vector(image, limit=n)
    assert got.explored <= 8 * n
    assert got.optimum == source.tau_total - source.total_weight + mu
    assert got == exact_min_target_vector(source, limit=n)


@st.composite
def _paired_arcs(draw):
    # Every arc has an opposite arc, mostly of equal weight: an unequal pair
    # must keep the directed estimate, whose excess bound alone is admissible.
    n = draw(st.integers(2, 7))
    edges = []
    for u, v in itertools.combinations(range(1, n + 1), 2):
        if draw(st.booleans()):
            a = draw(st.integers(0, 4))
            edges += [(u, v, a), (v, u, draw(st.sampled_from((a, a, draw(st.integers(0, 4))))))]
    return Instance(DIRECTED, tuple(range(1, n + 1)), edges,
                    {v: draw(st.integers(0, 6)) for v in range(1, n + 1)})


@given(_paired_arcs())
@settings(max_examples=300, deadline=None)
def test_search_on_paired_arcs_matches_dp(inst):
    view = inst.compiled
    tables = _subset_weights(view)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(oracles, "_SEARCH_BUDGET", 1)
        (order, cost), _ = _closed_set_search(view, *tables)
    assert cost == _subset_dp(view, *tables)[1]
    assert sorted(i for i, _ in order) == list(range(inst.n))
    assert sum(d for _, d in order) == cost


# The weights and thresholds of `model.instances`, at n = 10-12, each pair an edge with chance 3/10.
@given(model.instances(min_n=10, max_n=12, density=st.just(3)))
@settings(max_examples=40, deadline=None)
def test_closed_set_search_matches_dp_on_rationals(inst):
    _check_closed_set_path(inst)


def test_exhausted_budget_returns_the_dp_answer(monkeypatch):
    inst = generate(GenSpec(family="degenerate", n=12, seed=3, edge_prob=0.3, weights="halves"))
    monkeypatch.setattr(oracles, "_SEARCH_BUDGET", 0)
    got = exact_min_target_vector(inst, limit=12)
    expected = _dp_result(inst)
    # The search stores the closure of the empty set and gives up before
    # expanding it, so `explored` is the program's count alone.
    assert got == expected and got.explored == 12 * 2**11
    assert list(got.witness.items()) == list(expected.witness.items())


def test_search_past_its_budget_falls_back_to_the_dp(monkeypatch):
    # The search reaches the full set after 11 expansions here, so a budget
    # of 2^(n-7) sets runs out after it has expanded a few.
    inst = generate(GenSpec(n=12, seed=7, edge_prob=0.2, weights="halves", tau_policy="uniform",
                            connected=True))
    monkeypatch.setattr(oracles, "_SEARCH_BUDGET", 1 / 128)
    view = inst.compiled
    found, expanded = _closed_set_search(view, *_subset_weights(view))
    assert found is None and expanded > 0
    got = exact_min_target_vector(inst, limit=12)
    expected = _dp_result(inst)
    assert got.optimum == expected.optimum
    assert list(got.witness.items()) == list(expected.witness.items())
    assert got.explored == expanded + 12 * 2**11


@given(model.instances(modes=(UNDIRECTED,)))
@settings(max_examples=150, deadline=None)
def test_search_estimate_is_admissible_and_exact_where_the_rest_peels(inst):
    # The estimate of a set S is max(excess outside S, T(S) + waste(S)),
    # with T(S) = tau(V - S) - W + W(S). For every S, closed or not, it is
    # at most the optimal cost still to come, and equal to it when
    # everything outside S peels (waste 0). At S empty it is the public
    # lower bound.
    n, verts = inst.n, inst.vertices
    view = inst.compiled
    h, lo, hi = _subset_weights(view)
    raises = oracles._raises(view)
    everyone = (1 << n) - 1
    wastes, to_go, total = model.wastes(inst), model.costs_to_go(inst), model.totals(inst)
    weight = sum(w for _, _, w in inst.edges)
    for mask in range(1 << n):
        inside = frozenset(v for i, v in enumerate(verts) if mask >> i & 1)
        outside = set(verts) - inside
        waste = wastes[inside]
        assert Fraction(oracles._waste(lo, hi, view.tau, raises, h, mask, everyone ^ mask), view.scale) == waste
        within = sum(w for u, v, w in inst.edges if u in inside and v in inside)
        t = sum(inst.tau[v] for v in outside) - weight + within
        estimate = max(sum(max(0, inst.tau[v] - total[v]) for v in outside), t + waste)
        assert estimate <= to_go[inside]
        if not waste:
            assert estimate == to_go[inside]
        if not mask:
            assert target_vector_lower_bound(inst) == estimate


@given(model.instances(modes=(DIRECTED,)))
@settings(max_examples=50, deadline=None)
def test_directed_lower_bound_is_the_excess_alone(inst):
    # In directed mode nothing telescopes, so the peel's waste is no bound
    # on the cost: a 2-cycle of weight 10 and thresholds 1 costs 1, yet
    # wastes 9.
    total = model.totals(inst)
    assert target_vector_lower_bound(inst) == sum(max(0, inst.tau[v] - total[v]) for v in inst.vertices)


@pytest.mark.parametrize("n", [16, 20])
def test_all_low_two_level_answers_without_the_program(n):
    # Every threshold is the incident sum minus the least weight mu, so no
    # vertex peels and the last to activate wastes at least mu: the root
    # estimate is the optimum, sum tau - sum w + mu, and the search needs no
    # fallback.
    base = generate(GenSpec(n=n, seed=1, edge_prob=0.4, weights="halves", connected=True))
    mu = min(w for _, _, w in base.edges)
    inst = Instance(base.mode, base.vertices, base.edges,
                    {v: t - mu for v, t in base.incident_totals.items()})
    got = exact_min_target_vector(inst, limit=n)
    assert got.explored <= 8 * n
    assert got.optimum == inst.tau_total - inst.total_weight + mu
    assert got.optimum == target_vector_lower_bound(inst)
    assert is_target_vector(inst, got.witness)


@pytest.mark.parametrize("n", [9, 10])  # the program's path, then the search's
def test_failed_engine_check_raises_on_both_paths(monkeypatch, n):
    inst = generate(GenSpec(family="degenerate", n=n, seed=4, edge_prob=0.3))
    monkeypatch.setattr(oracles, "_activates_all", lambda view, seed, need: False)
    with pytest.raises(VerificationError):
        exact_min_target_vector(inst, limit=n)


def test_failed_engine_check_raises_in_the_other_oracles(monkeypatch):
    inst = Instance(UNDIRECTED, (1, 2, 3), ((1, 2, Fraction(1)), (2, 3, Fraction(2))),
                    {1: Fraction(1), 2: Fraction(2), 3: Fraction(2)})
    assert exact_min_target_set(inst).optimum == 1 and grid_min_target_vector(inst).optimum == 2
    monkeypatch.setattr(oracles, "_activates_all", lambda view, seed, need: False)
    with pytest.raises(VerificationError, match="oracle witness failed engine verification"):
        exact_min_target_set(inst)
    with pytest.raises(VerificationError, match="grid witness failed engine verification"):
        grid_min_target_vector(inst)


@pytest.mark.parametrize("n, path", [(9, "_subset_dp"), (10, "_closed_set_search")])
def test_cost_off_by_one_unit_raises(monkeypatch, n, path):
    # The payments still activate everything; only the claimed scaled cost is wrong.
    inst = generate(GenSpec(family="degenerate", n=n, seed=4, edge_prob=0.3, weights="halves"))
    exact_min_target_vector(inst, limit=n)
    search = getattr(oracles, path)

    def off_by_one(view, *tables):
        found = search(view, *tables)
        if path == "_subset_dp":
            order, cost = found
            return order, cost + 1
        (order, cost), expanded = found
        return (order, cost + 1), expanded

    monkeypatch.setattr(oracles, path, off_by_one)
    with pytest.raises(VerificationError, match="oracle witness failed engine verification"):
        exact_min_target_vector(inst, limit=n)
