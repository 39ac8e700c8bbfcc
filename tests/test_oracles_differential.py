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
back unchanged. The oracle peels symmetric instances first and searches
only the core left stuck: the optimum must still be the program's on the
whole instance. A degenerate instance, which leaves no core, gets the
program's witness without tables, at every size, and a peel that pays a
negative incentive or misses the lower bound is refused. Other digraphs
are searched whole, as before. A digraph whose arcs pair up with equal opposite arcs, as
the bidirected image of an undirected instance does, takes the search's
undirected estimate, and must give the undirected instance's answer; one
with a single unequal pair must still reach the program's optimum. The
test for paired arcs must agree with comparing both sorted adjacency
lists. The search's undirected estimate is checked on every vertex set of small
instances: its waste against the model's, and the estimate against the
model's cheapest cost still to come.

The target-set search's forced-pair rows are checked against their
definition, and the search against the model at sizes where it builds
them. On saturated thresholds its seeds are the vertex covers, so its
answer must be the vertex-cover oracle's.
"""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from targetset import (
    DIRECTED,
    UNDIRECTED,
    DegeneracyOrdering,
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
    peel_ordering,
    target_vector_lower_bound,
    to_bidirected,
)
from targetset import oracles
from targetset.engine import is_target_vector
from targetset.errors import VerificationError
from targetset.degeneracy import _peel
from targetset.instance import _subset_weights
from targetset.oracles import _closed_set_search, _subset_dp

import model


def _peels_completely(inst: Instance) -> bool:
    """Whether influence is symmetric (undirected, or each arc has an equal opposite arc) and the
    model's peel deletes every vertex: where the target-vector oracle answers without a program."""
    arcs = {(u, v): w for u, v, w in inst.edges}
    symmetric = inst.mode == UNDIRECTED or all(arcs.get((v, u)) == w for (u, v), w in arcs.items())
    return symmetric and not model.peel(inst)[1]


def _check_against_the_model(inst: Instance) -> None:
    # The optimum and the witness, in order, are the model's program's; `explored` counts its
    # (set, last vertex) pairs unless a complete peel answered.
    got, expected = exact_min_target_vector(inst, limit=9), model.min_target_vector(inst)
    assert (got.optimum, got.witness) == (expected.optimum, expected.witness)
    assert list(got.witness.items()) == list(expected.witness.items())
    assert got.explored == (0 if _peels_completely(inst) else expected.explored)


@given(model.instances())
@settings(max_examples=300, deadline=None)
def test_target_vector_matches_the_model(inst):
    _check_against_the_model(inst)


# Half the weights 0, the rest rational; thresholds drawn freely or, in the
# second strategy, at 0, at the incoming total or above it.
_ZERO_OR_RATIONAL = st.one_of(st.just(Fraction(0)), model.WEIGHTS)


@given(st.one_of(model.instances(weights=_ZERO_OR_RATIONAL),
                 model.patterned(("cuts",), modes=(UNDIRECTED, DIRECTED), min_n=0, max_n=9,
                                 weights=_ZERO_OR_RATIONAL, free=model.THRESHOLDS)))
@settings(max_examples=300, deadline=None)
def test_the_dp_split_changes_no_result(inst):
    # The program alone reads tables split at `_dp_split(n)`; the search's fallback at n // 2.
    view = inst.compiled
    assert (_subset_dp(view, *_subset_weights(view, oracles._dp_split(inst.n)))
            == _subset_dp(view, *_subset_weights(view)))
    _check_against_the_model(inst)


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


def _all_low(n: int, seed: int) -> Instance:
    """Connected G(n, 0.3), halves weights, every threshold its incident sum minus the least weight:
    no vertex peels, so the target-vector oracle's core is every vertex."""
    base = generate(GenSpec(n=n, seed=seed, edge_prob=0.3, weights="halves", connected=True))
    mu = min_edge_weight(base)
    return Instance(base.mode, base.vertices, base.edges, {v: t - mu for v, t in base.incident_totals.items()})


# The target-vector oracle's work on a fixed corpus: G(14, 0.3) with halves weights, seeds 1-10, each
# with its generated thresholds, saturated ones (tau = incident weight), its generated ones with every
# third id raised above its incident weight, and those read as a digraph, each edge an arc; and
# `_all_low(14, seed)`. name -> `explored`. Rows whose vertices all peel, the saturated ones among
# them, read 0, and so do rows whose core activates for free from the empty set. The other undirected
# rows count the search on the core left after peeling, and the DP on it where the search gives up
# (on a core of at most 4 vertices its budget is at most one set). An estimate that stays too high
# still finds the optimum, but only through the fallback to the DP, whose `explored` is at least
# k * 2^(k-1) on a core of k vertices; so only this table sees it. No vertex of a symmetric core
# receives less than its threshold, so the excess bound is 0 there and only the digraph rows see it.
# Change an entry only with the reason for its change.
_SEARCH_WORK = {
    "generated-1": 0, "saturated-1": 0, "over-1": 4, "directed-1": 10, "all-low-1": 11,
    "generated-2": 1, "saturated-2": 0, "over-2": 0, "directed-2": 7, "all-low-2": 11,
    "generated-3": 0, "saturated-3": 0, "over-3": 12, "directed-3": 9, "all-low-3": 23,
    "generated-4": 33, "saturated-4": 0, "over-4": 0, "directed-4": 9, "all-low-4": 11,
    "generated-5": 0, "saturated-5": 0, "over-5": 33, "directed-5": 10, "all-low-5": 19,
    "generated-6": 0, "saturated-6": 0, "over-6": 0, "directed-6": 10, "all-low-6": 24,
    "generated-7": 4, "saturated-7": 0, "over-7": 0, "directed-7": 11, "all-low-7": 15,
    "generated-8": 81, "saturated-8": 0, "over-8": 81, "directed-8": 10, "all-low-8": 106,
    "generated-9": 0, "saturated-9": 0, "over-9": 0, "directed-9": 9, "all-low-9": 13,
    "generated-10": 0, "saturated-10": 0, "over-10": 0, "directed-10": 11, "all-low-10": 12,
}


def _search_corpus():
    for seed in range(1, 11):
        base = generate(GenSpec(n=14, seed=seed, edge_prob=0.3, weights="halves"))
        totals = base.incident_totals
        over = {v: totals[v] + 1 if v % 3 == 0 else base.tau[v] for v in base.vertices}
        yield f"generated-{seed}", base
        yield f"saturated-{seed}", Instance(base.mode, base.vertices, base.edges, totals)
        yield f"over-{seed}", Instance(base.mode, base.vertices, base.edges, over)
        yield f"directed-{seed}", Instance(DIRECTED, base.vertices, base.edges, over)
        yield f"all-low-{seed}", _all_low(14, seed)


def test_closed_set_search_work_is_pinned():
    work = {name: exact_min_target_vector(inst, limit=14).explored for name, inst in _search_corpus()}
    assert work == _SEARCH_WORK


# The target-set and vertex-cover searches' work at the sizes the `oracle-small` benchmark runs,
# built as it builds them: target-set on G(13, 0.5) with integer weights and every threshold at
# its incident weight, vertex cover on G(22, 0.3) with integer weights; seeds 1-10.
# Change an entry only with the reason for its change.
#
# Target-set, name -> `explored`. The forced-pair bound (a pair of positions that each need the
# other holds a seed) cut the saturated rows, where it is the vertex-cover matching bound: old -> new
# 214 -> 99, 204 -> 74, 281 -> 99, 219 -> 71, 234 -> 85, 237 -> 91, 145 -> 72, 186 -> 81,
# 178 -> 64, 250 -> 87 (2,148 -> 823 in sum). The all-low rows (`_all_low(14, seed)`: every
# threshold its incident sum minus the least weight, so an edge of that weight is a tie, no need)
# read 403, 487, 456, 533, 468, 419, 386, 519, 484 and 442 without the bound. The tournament rows
# (G(12) oriented, every threshold its incoming weight) pop more than 4n nodes, so the rows are
# built, but no arc has an opposite, so there is no forced pair: each equals its count without the
# bound.
_TARGET_SET_WORK = {
    "saturated-1": 99, "saturated-2": 74, "saturated-3": 99, "saturated-4": 71, "saturated-5": 85,
    "saturated-6": 91, "saturated-7": 72, "saturated-8": 81, "saturated-9": 64, "saturated-10": 87,
    "all-low-1": 66, "all-low-2": 116, "all-low-3": 101, "all-low-4": 134, "all-low-5": 84,
    "all-low-6": 84, "all-low-7": 95, "all-low-8": 123, "all-low-9": 94, "all-low-10": 99,
    "tournament-1": 182, "tournament-2": 253, "tournament-3": 398, "tournament-4": 279, "tournament-5": 354,
    "tournament-6": 255, "tournament-7": 396, "tournament-8": 315, "tournament-9": 195, "tournament-10": 251,
}
_VERTEX_COVER_WORK = {1: 31, 2: 60, 3: 36, 4: 45, 5: 22, 6: 41, 7: 43, 8: 37, 9: 38, 10: 26}


def _target_set_corpus():
    for seed in range(1, 11):
        # The policy only draws thresholds that are then replaced, but it fixes the random stream.
        yield f"saturated-{seed}", _saturated(GenSpec(n=13, seed=seed, edge_prob=0.5, weights="int",
                                                      tau_policy="capped"))
        yield f"all-low-{seed}", _all_low(14, seed)
        yield f"tournament-{seed}", _saturated(GenSpec(family="tournament", n=12, seed=seed, weights="halves"))


def test_target_set_search_work_is_pinned():
    work = {name: exact_min_target_set(inst).explored for name, inst in _target_set_corpus()}
    assert work == _TARGET_SET_WORK


def test_vertex_cover_search_work_is_pinned():
    work = {seed: exact_min_vertex_cover(generate(GenSpec(n=22, seed=seed, edge_prob=0.3, weights="int")),
                                         limit=22).explored
            for seed in _VERTEX_COVER_WORK}
    assert work == _VERTEX_COVER_WORK


# Weights from a few values, so that many edges weigh the least weight, mu: with thresholds at the
# incident sum minus mu such an edge is a tie, which the forced-pair bound must not count as a need.
_FEW_WEIGHTS = model.rationals(3, (1, 2), low=1)


# n = 10-12 and at least four pairs in ten joined, so that most searches pop more than 4n nodes and
# build their forced-pair rows.
@given(model.patterned(("two-level", "all-low", "cuts"), modes=(UNDIRECTED, DIRECTED), min_n=10, max_n=12,
                       weights=_FEW_WEIGHTS, free=model.THRESHOLDS, density=st.integers(4, 10)))
@settings(max_examples=100, deadline=None)
def test_target_set_matches_the_model_where_the_forced_pair_bound_runs(inst):
    got, expected = exact_min_target_set(inst), model.min_target_set(inst)
    assert (got.optimum, got.witness) == (expected.optimum, expected.witness)


@given(st.one_of(model.instances(),
                 model.patterned(("two-level", "all-low", "cuts"), modes=(UNDIRECTED, DIRECTED),
                                 weights=_FEW_WEIGHTS, free=model.THRESHOLDS)))
@settings(max_examples=300, deadline=None)
def test_forced_pair_rows_follow_the_definition(inst):
    # u needs j when u cannot reach its threshold without the arc from j: its total minus that
    # weight falls short. A tie, where it reaches the threshold exactly, is no need.
    total = model.totals(inst)
    into = {(v, u): w for u, v, w in inst.edges}
    if inst.mode == UNDIRECTED:
        into |= {(u, v): w for u, v, w in inst.edges}

    def needs(u, j):
        return (u, j) in into and total[u] - into[u, j] < inst.tau[u]

    ids = sorted(inst.vertices)
    expected = [sum(1 << k for k, j in enumerate(ids) if needs(u, j) and needs(j, u)) for u in ids]
    assert oracles._forced_pairs(inst.compiled) == expected


@st.composite
def _saturated_graphs(draw):
    # Positive weights and every threshold the vertex's incident weight, n up to 20.
    mode, ids, edges = draw(model.graphs((UNDIRECTED,), max_n=20, weights=model.rationals(12, low=1),
                                         density=st.integers(0, 6)))
    base = Instance(mode, ids, edges, dict.fromkeys(ids, 0))
    return Instance(mode, ids, edges, base.incident_totals)


@given(_saturated_graphs())
@settings(max_examples=60, deadline=None)
def test_saturated_target_sets_are_vertex_covers(inst):
    # A vertex at its incident sum activates once all its neighbours are active and never before,
    # so the seed sets are the vertex covers, and both oracles take the lexicographically smallest
    # minimum one; so does the target-set oracle on the bi-directed image.
    cover = exact_min_vertex_cover(inst, limit=inst.n)
    for subject in (inst, to_bidirected(inst).image):
        got = exact_min_target_set(subject, limit=inst.n)
        assert (got.optimum, got.witness) == (cover.optimum, cover.witness)


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
    inst = _all_low(12, 3)
    monkeypatch.setattr(oracles, "_SEARCH_BUDGET", 0)
    got = exact_min_target_vector(inst, limit=12)
    expected = _dp_result(inst)
    # The search stores the closure of the empty set and gives up before
    # expanding it, so `explored` is the program's count alone.
    assert got == expected and got.explored == 12 * 2**11
    assert list(got.witness.items()) == list(expected.witness.items())


def test_search_past_its_budget_falls_back_to_the_dp(monkeypatch):
    # The search reaches the full set after 28 expansions here, so a budget
    # of 2^(n-7) sets runs out after it has expanded a few.
    inst = _all_low(12, 7)
    monkeypatch.setattr(oracles, "_SEARCH_BUDGET", 1 / 128)
    view = inst.compiled
    found, expanded = _closed_set_search(view, *_subset_weights(view))
    assert found is None and expanded > 0
    got = exact_min_target_vector(inst, limit=12)
    expected = _dp_result(inst)
    assert got.optimum == expected.optimum
    assert list(got.witness.items()) == list(expected.witness.items())
    assert got.explored == expanded + 12 * 2**11


@st.composite
def _peeling(draw, min_n=10, max_n=14, stuck=("some", "all", "none")):
    """Connected undirected instances of 10-14 vertices that peel completely, partly or not at all.

    Along a random order each vertex joins an earlier one, and every other
    pair is an edge with a drawn number of tenths of a chance; weights are
    positive. A vertex that peels takes its weight to earlier vertices plus a
    drawn slack, so a vertex set of only those peels completely; one that
    sticks takes none to three quarters of its incident sum, so a vertex set
    of only those does not peel at all. `min_n`, `max_n` and the `stuck`
    choices narrow or widen the draw.
    """
    n = draw(st.integers(min_n, max_n))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    order = rng.sample(range(1, 61), n)
    tenths = draw(st.integers(0, 4))
    pairs = [(order[rng.randrange(i)], order[i]) for i in range(1, n)]
    pairs += [(u, v) for i, v in enumerate(order) for u in order[:i]
              if (u, v) not in pairs and rng.randrange(10) < tenths]
    edges = [(u, v, draw(model.rationals(12, low=1))) for u, v in pairs]
    stuck = draw(st.sampled_from(stuck))
    back = dict.fromkeys(order, Fraction(0))
    total = dict.fromkeys(order, Fraction(0))
    for u, v, w in edges:  # u comes before v in `order`
        back[v] += w
        total[u] += w
        total[v] += w
    tau = {}
    for v in order:
        if stuck == "all" or stuck == "some" and draw(st.booleans()):
            tau[v] = total[v] * draw(st.sampled_from((0, 1, 2, 3))) / 4
        else:
            tau[v] = back[v] + draw(model.rationals(6))
    return Instance(UNDIRECTED, order, edges, tau)


@given(_peeling())
@settings(max_examples=60, deadline=None)
def test_peeled_search_matches_the_dp_on_the_whole_instance(inst):
    # Peeling leaves the optimum unchanged, and the witness pays every vertex and passes the engine.
    # Without a core there is no search: the witness, in order, is the program's on the whole
    # instance. The bi-directed image peels and searches alike.
    n = inst.n
    got, expected = exact_min_target_vector(inst, limit=n), _dp_result(inst)
    assert got.optimum == expected.optimum
    assert sorted(got.witness) == sorted(inst.vertices)
    assert sum(got.witness.values()) == got.optimum
    assert is_target_vector(inst, got.witness)
    if isinstance(peel_ordering(inst), DegeneracyOrdering):
        assert got.explored == 0
        assert list(got.witness.items()) == list(expected.witness.items())
    image = to_bidirected(inst).image
    assert exact_min_target_vector(image, limit=n) == got
    assert is_target_vector(image, got.witness)


@given(_peeling(min_n=1, max_n=12, stuck=("none",)))
@settings(max_examples=100, deadline=None)
def test_a_complete_peel_is_the_programs_answer(inst):
    # At every size, on the instance and on its bi-directed image, a complete peel answers with the
    # program's optimum and witness, in order, and without examining a set.
    for subject in (inst, to_bidirected(inst).image):
        got, expected = exact_min_target_vector(subject, limit=inst.n), _dp_result(subject)
        assert (got.optimum, got.explored) == (expected.optimum, 0)
        assert list(got.witness.items()) == list(expected.witness.items())


def _loosened(view, tau, residual, alive, largest_first=False):
    """A peel that deems a position eligible once its threshold plus every incoming weight covers what
    it receives, so every position goes, and reports its true slack, negative where it stuck."""
    loose = [t + sum(w for _, w in pairs) for t, pairs in zip(tau, view.incoming)]
    slacks = _peel(view, loose, residual, alive, largest_first)
    return {i: s - loose[i] + tau[i] for i, s in slacks.items()}


def _shifted(view, tau, residual, alive, largest_first=False):
    """The peel, with one slack unit moved from the first position deleted that has a neighbour to
    that neighbour."""
    slacks = _peel(view, tau, residual, alive, largest_first)
    first = next(i for i in slacks if view.incoming[i])
    slacks[first] -= 1
    slacks[view.incoming[first][0][0]] += 1
    return slacks


def _overpaid(view, tau, residual, alive, largest_first=False):
    """The peel, with one unit more for the first position deleted."""
    slacks = _peel(view, tau, residual, alive, largest_first)
    slacks[next(iter(slacks))] += 1
    return slacks


# A wrong peel the certificate must refuse, the instance it runs on, and the check that refuses it.
# The loosened peel's vector costs the lower bound and the engine accepts it: each vertex, paid its
# threshold minus what it received at its deletion, activates in reverse deletion order. The shifted
# one keeps the cost; the first vertex a saturated peel deletes has slack 0. The overpaid one only
# misses the bound.
@pytest.mark.parametrize("peel, kind, message", [
    (_loosened, "all-low", "pays a negative incentive"),
    (_shifted, "saturated", "pays a negative incentive"),
    (_overpaid, "degenerate", "misses the edge-counting lower bound"),
])
@pytest.mark.parametrize("n", [9, 12])
def test_the_certificate_does_not_trust_the_peel(monkeypatch, peel, kind, message, n):
    inst = _all_low(n, 5) if kind == "all-low" else _kind_instance(kind, n, 5)
    exact_min_target_vector(inst, limit=n)
    monkeypatch.setattr(oracles, "_peel", peel)
    with pytest.raises(VerificationError, match=message):
        exact_min_target_vector(inst, limit=n)


def _lopsided(n: int, seed: int) -> Instance:
    """The bi-directed image of a degenerate instance with one arc 1 heavier than its opposite arc."""
    image = to_bidirected(generate(GenSpec(family="degenerate", n=n, seed=seed, edge_prob=0.3,
                                           weights="halves"))).image
    (u, v, w), *rest = image.edges
    return Instance(image.mode, image.vertices, [(u, v, w + 1), *rest], image.tau)


# Digraphs without equal opposite arcs are not peeled: the search runs on every vertex, as it did
# before the oracle peeled. (optimum, explored, the paid vertices and payments in witness order).
@pytest.mark.parametrize("inst, optimum, explored, paid", [
    (generate(GenSpec(family="tournament", n=10, seed=1, weights="halves")), "53/16", 3,
     [(5, "5/16"), (8, "3")]),
    (generate(GenSpec(family="tournament", n=12, seed=2, weights="halves")), "33/4", 5,
     [(8, "7"), (3, "5/4")]),
    (generate(GenSpec(family="tournament", n=14, seed=3, weights="halves")), "43/4", 8,
     [(1, "93/16"), (8, "17/4"), (13, "11/16")]),
    (_lopsided(10, 1), "14", 12,
     [(8, "3/2"), (9, "2"), (3, "1"), (7, "5/2"), (6, "4"), (5, "1/2"), (2, "3/2"), (4, "1")]),
    (_lopsided(12, 2), "16", 104,
     [(5, "2"), (8, "2"), (9, "1"), (2, "3"), (11, "5/2"), (12, "5/2"), (7, "1/2"), (10, "5/2")]),
    (_lopsided(14, 3), "20", 120,
     [(2, "1"), (10, "1"), (13, "2"), (8, "5/2"), (14, "5/2"), (11, "5/2"), (12, "3/2"), (3, "3/2"),
      (4, "1"), (9, "5/2"), (1, "2")]),
], ids=[f"tournament-{n}" for n in (10, 12, 14)] + [f"lopsided-{n}" for n in (10, 12, 14)])
def test_non_symmetric_digraphs_are_searched_whole(inst, optimum, explored, paid):
    got = exact_min_target_vector(inst, limit=inst.n)
    assert (got.optimum, got.explored) == (Fraction(optimum), explored)
    assert [(v, str(p)) for v, p in got.witness.items() if p] == paid


# The degree test in front of the sorted comparison may only reject earlier, never change the answer.
@given(st.one_of(
    st.builds(lambda n, seed: generate(GenSpec(family="tournament", n=n, seed=seed, weights="halves")),
              st.integers(2, 12), st.integers(0, 2**32 - 1)),
    model.instances(modes=(DIRECTED,)),
    model.instances(modes=(UNDIRECTED,)).map(lambda inst: to_bidirected(inst).image),
    st.builds(_lopsided, st.integers(7, 12), st.integers(0, 1999)),  # every one of these has an edge
))
@settings(max_examples=300, deadline=None)
def test_symmetric_is_the_sorted_adjacency_comparison(inst):
    view = inst.compiled
    assert oracles._symmetric(view) == (list(map(sorted, view.out)) == list(map(sorted, view.incoming)))


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


@pytest.mark.parametrize("n", [9, 10])  # at the program's limit, then above it
def test_failed_engine_check_raises_on_both_paths(monkeypatch, n):
    # A degenerate instance peels completely; an all-low one peels no vertex, so it goes to the
    # program at n = 9 and to the search at n = 10.
    monkeypatch.setattr(oracles, "_activates_all", lambda view, seed, need: False)
    for inst in generate(GenSpec(family="degenerate", n=n, seed=4, edge_prob=0.3)), _all_low(n, 4):
        with pytest.raises(VerificationError, match="oracle witness failed engine verification"):
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
    # The payments still activate everything; only the claimed scaled cost is wrong. No vertex
    # peels, so the search runs on every vertex.
    inst = _all_low(n, 4)
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
