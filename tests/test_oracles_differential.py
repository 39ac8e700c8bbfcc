"""Exhaustive oracles against the implementations they replaced.

`_exact_min_target_set`, `_exact_min_target_vector`,
`_brute_degeneracy_check` and `_exact_min_vertex_cover` below are the former
implementations, kept as the reference: a `_spread` closure per candidate
seed, a forward dynamic program that sums each vertex's in-neighbour weights
per transition, a scan of every member pair per induced subgraph, and a
recursive branch and bound over the uncovered edges. Only their size-limit
checks are left out. The subset-table oracles must return the same optimum,
the same witness in the same order, the same `explored` count and the same
verdict. The vertex-cover search and the target-set branch and bound count
their nodes differently, so there only the optimum and the witness must
agree.

Above the target-vector oracle's default limit, its closed-set search is
checked against the subset dynamic program it runs in front of: the same
optimum, and a witness that pays every vertex, sums to the optimum and
passes the engine. When the search gives up, the program's answer comes
back unchanged. A digraph whose arcs pair up with equal opposite arcs, as
the bidirected image of an undirected instance does, takes the search's
undirected estimate, and must give the undirected instance's answer; one
with a single unequal pair must still reach the program's optimum. The search's undirected estimate is checked on every vertex set of
small instances: its peel against a Fraction reference, and the estimate
against the cheapest cost still to come, by a plain dynamic program.
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
    VertexSet,
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
from targetset.engine import _activates_all, incentive_cost, is_target_set, is_target_vector
from targetset.errors import VerificationError
from targetset.instance import _subset_weights
from targetset.oracles import _closed_set_search, _subset_dp


def _exact_min_target_set(instance: Instance) -> OracleResult:
    n = instance.n
    view = instance.compiled
    verts = instance.vertices
    explored = 0
    for k in range(n + 1):
        for combo in itertools.combinations(range(n), k):
            explored += 1
            if _activates_all(view, combo, view.tau):
                witness = frozenset(verts[i] for i in combo)
                if not is_target_set(instance, witness):
                    raise VerificationError("oracle witness failed engine verification")
                return OracleResult(k, witness, explored)
    raise RuntimeError("unreachable: the full vertex set always activates everything")


def _exact_min_target_vector(instance: Instance) -> OracleResult:
    n = instance.n
    if n == 0:
        return OracleResult(Fraction(0), {}, 0)
    view = instance.compiled
    thresholds, incoming, scale = view.tau, view.incoming, view.scale
    verts = instance.vertices
    size = 1 << n
    best: list[int | None] = [None] * size
    best[0] = 0
    added = [-1] * size
    explored = 0
    for mask in range(size):
        base = best[mask]
        if base is None:
            continue
        for i in range(n):
            bit = 1 << i
            if mask & bit:
                continue
            explored += 1
            got = 0
            for j, w in incoming[i]:
                if mask >> j & 1:
                    got += w
            deficit = thresholds[i] - got
            if deficit < 0:
                deficit = 0
            candidate = base + deficit
            nxt = mask | bit
            if best[nxt] is None or candidate < best[nxt]:
                best[nxt] = candidate
                added[nxt] = i
    order: list[int] = []
    mask = size - 1
    while mask:
        i = added[mask]
        order.append(i)
        mask ^= 1 << i
    order.reverse()
    witness: dict[int, Fraction] = {}
    placed = 0
    for i in order:
        got = sum(w for j, w in incoming[i] if placed >> j & 1)
        deficit = max(0, thresholds[i] - got)
        witness[verts[i]] = Fraction(deficit, scale)
        placed |= 1 << i
    optimum = Fraction(best[size - 1], scale)
    if incentive_cost(witness) != optimum or not is_target_vector(instance, witness):
        raise VerificationError("oracle witness failed engine verification")
    return OracleResult(optimum, witness, explored)


def _brute_degeneracy_check(instance: Instance) -> bool:
    n = instance.n
    view = instance.compiled
    thresholds = view.tau
    weights = [[0] * n for _ in range(n)]
    for i, pairs in enumerate(view.incoming):
        for j, w in pairs:
            weights[i][j] = w
    for mask in range(1, 1 << n):
        members = [i for i in range(n) if mask >> i & 1]
        found = False
        for i in members:
            row = weights[i]
            cap = thresholds[i]
            total = 0
            ok = True
            for j in members:
                total += row[j]
                if total > cap:
                    ok = False
                    break
            if ok:
                found = True
                break
        if not found:
            return False
    return True


def _exact_min_vertex_cover(instance: Instance) -> OracleResult:
    n = instance.n
    pairs = sorted({(min(u, v), max(u, v)) for u, v, _ in instance.edges})
    best_size = n
    best_set: VertexSet = frozenset(instance.vertices)
    explored = 0

    def visit(i: int, chosen: set[int]) -> None:
        nonlocal best_size, best_set, explored
        explored += 1
        while i < len(pairs) and (pairs[i][0] in chosen or pairs[i][1] in chosen):
            i += 1
        if i == len(pairs):
            if len(chosen) < best_size:
                best_size = len(chosen)
                best_set = frozenset(chosen)
            return
        if len(chosen) + 1 >= best_size:
            return
        u, v = pairs[i]
        for pick in (u, v):
            chosen.add(pick)
            visit(i + 1, chosen)
            chosen.remove(pick)

    visit(0, set())
    for u, v in pairs:
        if u not in best_set and v not in best_set:
            raise VerificationError("oracle witness is not a vertex cover")
    return OracleResult(best_size, best_set, explored)


# Denominators 7, 9 and 11 make the scale a product of coprime factors.
# Weights and thresholds include 0; thresholds reach past a typical incident
# sum, so seeds of every size, zero deficits and both verdicts occur.
_weights = st.builds(Fraction, st.integers(0, 12), st.sampled_from([1, 7, 9, 11]))
_thresholds = st.builds(Fraction, st.integers(0, 30), st.sampled_from([1, 7, 9, 11]))


@st.composite
def _instances(draw, modes=(UNDIRECTED, DIRECTED)):
    mode = draw(st.sampled_from(modes))
    # Unsorted, non-contiguous ids, from the empty instance up to n = 9.
    ids = draw(st.lists(st.integers(1, 60), max_size=9, unique=True))
    pairs = [(u, v) for u in ids for v in ids if u != v]
    key = tuple if mode == DIRECTED else frozenset
    chosen = draw(st.lists(st.sampled_from(pairs), unique_by=key)) if pairs else []
    edges = tuple((u, v, draw(_weights)) for u, v in chosen)
    tau = {v: draw(_thresholds) for v in ids}
    return Instance(mode, tuple(ids), edges, tau)


@given(_instances())
@settings(max_examples=300, deadline=None)
def test_target_vector_matches_reference(inst):
    got = exact_min_target_vector(inst, limit=9)
    reference = _exact_min_target_vector(inst)
    assert got == reference
    assert list(got.witness.items()) == list(reference.witness.items())


@st.composite
def _seed_instances(draw):
    # Moves some thresholds to 0, to the incoming total or above it, where
    # the target-set search's skip and feasibility cuts apply.
    inst = draw(_instances())
    totals = dict.fromkeys(inst.vertices, Fraction(0))
    for u, v, w in inst.edges:
        totals[v] += w
        if inst.mode == UNDIRECTED:
            totals[u] += w
    tau = {v: draw(st.sampled_from((t, Fraction(0), totals[v], totals[v] + Fraction(1, 7))))
           for v, t in inst.tau.items()}
    return Instance(inst.mode, inst.vertices, inst.edges, tau)


@given(_seed_instances())
@settings(max_examples=300, deadline=None)
def test_target_set_matches_reference(inst):
    # The branch and bound counts its nodes, at most the 2^(n+1) - 1 of the
    # full binary tree over the n positions, where the reference counts seeds.
    got, reference = exact_min_target_set(inst), _exact_min_target_set(inst)
    assert (got.optimum, got.witness) == (reference.optimum, reference.witness)
    assert got.explored <= 2 ** (inst.n + 1) - 1


@given(_instances(modes=(UNDIRECTED,)))
@settings(max_examples=300, deadline=None)
def test_degeneracy_check_matches_reference(inst):
    assert brute_degeneracy_check(inst) == _brute_degeneracy_check(inst)


@st.composite
def _cover_instances(draw):
    mode = draw(st.sampled_from((UNDIRECTED, DIRECTED)))
    # Unsorted, non-contiguous ids, from the empty instance up to n = 14.
    ids = draw(st.lists(st.integers(1, 60), max_size=14, unique=True))
    # The last `isolated` ids get no edge at all.
    isolated = draw(st.integers(0, len(ids)))
    linked = ids[:len(ids) - isolated]
    tenths = draw(st.integers(0, 10))
    edges = []
    for a, u in enumerate(linked):
        for v in linked[a + 1:]:
            if draw(st.integers(0, 9)) < tenths:
                tail, head = (v, u) if draw(st.booleans()) else (u, v)
                edges.append((tail, head, Fraction(1)))
                # Both arcs of a directed 2-cycle cover as one edge.
                if mode == DIRECTED and draw(st.booleans()):
                    edges.append((head, tail, Fraction(1)))
    return Instance(mode, tuple(ids), tuple(edges), {v: Fraction(1) for v in ids})


def _lexicographically_smallest_cover(instance: Instance) -> VertexSet:
    ids = sorted(instance.vertices)
    for k in range(len(ids) + 1):
        for combo in itertools.combinations(ids, k):
            if all(u in combo or v in combo for u, v, _ in instance.edges):
                return frozenset(combo)
    raise RuntimeError("unreachable: every vertex together covers every edge")


@given(_cover_instances())
@settings(max_examples=300, deadline=None)
def test_vertex_cover_matches_reference(inst):
    got = exact_min_vertex_cover(inst, limit=14)
    reference = _exact_min_vertex_cover(inst)
    assert (got.optimum, got.witness) == (reference.optimum, reference.witness)
    if inst.n <= 10:
        assert got.witness == _lexicographically_smallest_cover(inst)


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


@st.composite
def _larger_instances(draw):
    # The weights and thresholds of `_instances`: zero weights, zero
    # thresholds, thresholds past the incident sum, denominators 7/9/11.
    mode = draw(st.sampled_from((UNDIRECTED, DIRECTED)))
    ids = draw(st.lists(st.integers(1, 60), min_size=10, max_size=12, unique=True))
    pairs = [(u, v) for u in ids for v in ids if u != v and (mode == DIRECTED or u < v)]
    edges = tuple((u, v, draw(_weights)) for u, v in pairs if draw(st.integers(0, 9)) < 3)
    return Instance(mode, tuple(ids), edges, {v: draw(_thresholds) for v in ids})


@given(_larger_instances())
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


def _reference_waste(instance: Instance, inside: VertexSet) -> Fraction:
    """`_waste` on Fractions: peel the vertices outside `inside`, then the least excess left."""
    into: dict[int, list[tuple[int, Fraction]]] = {v: [] for v in instance.vertices}
    for u, v, w in instance.edges:
        into[u].append((v, w))
        into[v].append((u, w))
    left = set(instance.vertices) - inside

    def received(v: int) -> Fraction:
        return sum((w for u, w in into[v] if u in inside or u in left), Fraction(0))

    while True:
        dropped = next((v for v in sorted(left) if instance.tau[v] >= received(v)), None)
        if dropped is None:
            return min((received(v) - instance.tau[v] for v in left), default=Fraction(0))
        left.remove(dropped)


def _cost_to_go(view) -> list[int]:
    """Per bitmask S, the least scaled cost of activating everything outside S, by a plain DP."""
    n = len(view.tau)
    to_go = [0] * (1 << n)
    for mask in reversed(range((1 << n) - 1)):
        to_go[mask] = min(
            max(0, view.tau[i] - sum(w for j, w in view.incoming[i] if mask >> j & 1))
            + to_go[mask | 1 << i]
            for i in range(n) if not mask >> i & 1)
    return to_go


@given(_instances(modes=(UNDIRECTED,)))
@settings(max_examples=150, deadline=None)
def test_search_estimate_is_admissible_and_exact_where_the_rest_peels(inst):
    # The estimate of a set S is max(excess outside S, T(S) + waste(S)).
    # For every S, closed or not, it is at most the optimal cost still to
    # come, and equal to it when everything outside S peels (waste 0). At S
    # empty it is the public lower bound.
    n, verts = inst.n, inst.vertices
    view = inst.compiled
    h, lo, hi = _subset_weights(view)
    raises = oracles._raises(view)
    everyone = (1 << n) - 1
    excess = [max(0, t - s) for t, s in zip(view.tau, view.totals)]
    to_go = _cost_to_go(view)
    for mask in range(1 << n):
        outside = everyone ^ mask
        waste = oracles._waste(lo, hi, view.tau, raises, h, mask, outside)
        inside = frozenset(v for i, v in enumerate(verts) if mask >> i & 1)
        assert Fraction(waste, view.scale) == _reference_waste(inst, inside)
        low, high = mask & (1 << h) - 1, mask >> h
        within = sum(lo[i][low] + hi[i][high] for i in range(n) if mask >> i & 1)
        t = sum(view.tau[i] for i in range(n) if outside >> i & 1) - (sum(view.totals) - within) // 2
        estimate = max(sum(excess[i] for i in range(n) if outside >> i & 1), t + waste)
        assert estimate <= to_go[mask]
        if not waste:
            assert estimate == to_go[mask]
        if not mask:
            assert target_vector_lower_bound(inst) == Fraction(estimate, view.scale)


@given(_instances(modes=(DIRECTED,)))
@settings(max_examples=50, deadline=None)
def test_directed_lower_bound_is_the_excess_alone(inst):
    # In directed mode nothing telescopes, so the peel's waste is no bound
    # on the cost: a 2-cycle of weight 10 and thresholds 1 costs 1, yet
    # wastes 9.
    view = inst.compiled
    excess = sum(max(0, t - s) for t, s in zip(view.tau, view.totals))
    assert target_vector_lower_bound(inst) == Fraction(excess, view.scale)


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
