"""Integer solver core against the Fraction solvers it replaced.

`solve_degenerate`, `solve_two_level` (with `_without_edge`),
`solve_min_or_full` and `classify_and_solve` below, with the helpers they
call, are the former implementations, kept verbatim as the reference: they
rebuild `Instance`s and add Fractions. So are `connected_components`, the
former dict-of-sets search, and `kappa_complement_check`, which peeled an
induced copy of the complement. `induced_subinstance` and `slacks_along`
are the former public helpers those call.
"""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from targetset import (
    DIRECTED,
    UNDIRECTED,
    DegeneracyOrdering,
    Instance,
    NotDegenerate,
    PreconditionError,
    VerificationError,
    canonical_edges,
    degeneracy,
    incentive_cost,
    is_target_vector,
    min_edge_weight,
    peel_ordering,
    solvers,
)
from targetset.instance import is_connected as library_is_connected
from targetset.instance import connected_components as library_connected_components
from targetset.solvers import SolveReport


# ------------------------------------------------------------ the reference

def induced_subinstance(instance: Instance, keep) -> Instance:
    """Restrict to the vertices in `keep`; thresholds carry over unchanged."""
    kept = frozenset(keep)
    verts = tuple(v for v in instance.vertices if v in kept)
    edges = tuple((u, v, w) for u, v, w in instance.edges if u in kept and v in kept)
    return Instance(instance.mode, verts, edges, {v: instance.tau[v] for v in verts})


def slacks_along(instance: Instance, order) -> dict[int, Fraction]:
    """Slack of each vertex along an ordering of an undirected instance."""
    earlier: set[int] = set()
    slacks: dict[int, Fraction] = {}
    for v in order:
        back = sum((w for a, b, w in instance.edges
                    if v in (a, b) and (b if a == v else a) in earlier), start=Fraction(0))
        slack = instance.tau[v] - back
        if slack < 0:
            raise ValueError(f"not a degeneracy ordering: vertex {v} has slack {slack}")
        slacks[v] = slack
        earlier.add(v)
    return slacks


def connected_components(instance: Instance):
    """Components of the underlying undirected graph, sorted by smallest member."""
    neighbors: dict[int, set[int]] = {v: set() for v in instance.vertices}
    for u, v, _ in instance.edges:
        neighbors[u].add(v)
        neighbors[v].add(u)
    seen: set[int] = set()
    comps = []
    for start in instance.vertices:
        if start in seen:
            continue
        stack = [start]
        comp = {start}
        seen.add(start)
        while stack:
            x = stack.pop()
            for y in neighbors[x]:
                if y not in comp:
                    comp.add(y)
                    seen.add(y)
                    stack.append(y)
        comps.append(frozenset(comp))
    return sorted(comps, key=min)


def is_connected(instance: Instance) -> bool:
    return len(connected_components(instance)) <= 1


def _ordering_or_fail(instance: Instance, ordering) -> DegeneracyOrdering:
    if ordering is None:
        ordering = peel_ordering(instance)
    if isinstance(ordering, NotDegenerate):
        raise PreconditionError(
            f"thresholds are not degenerate; peeling sticks on {sorted(ordering.stuck)}"
        )
    return ordering


def solve_degenerate(instance: Instance, ordering: DegeneracyOrdering | None = None) -> SolveReport:
    ordering = _ordering_or_fail(instance, ordering)
    p = {v: ordering.slacks[v] for v in instance.vertices}
    cost = incentive_cost(p)
    if not is_target_vector(instance, p):
        raise VerificationError("degenerate incentive vector failed engine verification")
    return SolveReport(p, cost, "degenerate", {"ordering": " ".join(map(str, ordering.order))})


def _two_level_split(instance: Instance) -> tuple[list[int], Fraction]:
    view = instance.compiled
    mu = view.min_weight
    saturated = []
    for v, t, total in zip(instance.vertices, view.tau, view.totals):
        if t == total:
            saturated.append(v)
        elif t != total - mu:
            raise PreconditionError(
                f"vertex {v} has threshold {instance.tau[v]}, expected its incident sum "
                f"{Fraction(total, view.scale)} or that sum minus {Fraction(mu, view.scale)}"
            )
    return saturated, Fraction(mu, view.scale)


def _without_edge(instance: Instance, pair: tuple[int, int]) -> Instance:
    u, v = pair
    kept = []
    removed = False
    for a, b, w in instance.edges:
        if not removed and {a, b} == {u, v}:
            removed = True
            continue
        kept.append((a, b, w))
    if not removed:
        raise ValueError(f"no edge between {u} and {v}")
    return Instance(instance.mode, instance.vertices, tuple(kept), instance.tau)


def solve_two_level(instance: Instance, removed_edge: tuple[int, int] | None = None) -> SolveReport:
    if instance.mode != UNDIRECTED:
        raise PreconditionError("the two-level solver handles undirected instances only")
    if not instance.edges:
        raise PreconditionError("the two-level solver needs at least one edge")
    if not is_connected(instance):
        raise PreconditionError("the two-level solver requires a connected instance")
    saturated, mu = _two_level_split(instance)
    return _solve_two_level(instance, saturated, mu, removed_edge)


def _solve_two_level(instance: Instance, saturated: list[int], mu: Fraction,
                     removed_edge: tuple[int, int] | None = None) -> SolveReport:
    if saturated:
        base = solve_degenerate(instance)
        cert = {"branch": "degenerate", **base.certificate}
        return SolveReport(base.incentives, base.cost, "two-level", cert)
    candidates = [(u, v) for u, v, w in canonical_edges(instance) if w == mu]
    if removed_edge is None:
        chosen = candidates[0]
    else:
        chosen = (min(removed_edge), max(removed_edge))
        if chosen not in candidates:
            raise ValueError(f"edge {chosen} is not a minimum-weight edge")
    base = solve_degenerate(_without_edge(instance, chosen))
    if not is_target_vector(instance, base.incentives):
        raise VerificationError("two-level incentive vector failed engine verification")
    cert = {
        "branch": "split",
        "removed_edge": f"{chosen[0]} {chosen[1]}",
        "ordering": base.certificate["ordering"],
    }
    return SolveReport(base.incentives, base.cost, "two-level", cert)


def solve_min_or_full(instance: Instance) -> SolveReport:
    if instance.mode != UNDIRECTED:
        raise PreconditionError("the min-or-full solver handles undirected instances only")
    if not instance.edges:
        raise PreconditionError("the min-or-full solver needs at least one edge")
    mu = min_edge_weight(instance)
    totals = instance.incident_totals
    low = [v for v in instance.vertices if instance.tau[v] == mu]
    low_set = set(low)
    high = []
    for v in instance.vertices:
        if v in low_set:
            continue
        if instance.tau[v] != totals[v]:
            raise PreconditionError(
                f"vertex {v} has threshold {instance.tau[v]}, expected the minimum "
                f"edge weight {mu} or its incident sum {totals[v]}"
            )
        high.append(v)

    comps = connected_components(induced_subinstance(instance, low)) if low else []
    comp_of = {v: ci for ci, comp in enumerate(comps) for v in comp}

    # Crossing and high-high edges survive into the contracted multigraph;
    # low-low edges are internal to a component and disappear.
    crossing: list[tuple[int, int, Fraction, int | None]] = []  # (fx, fy, w, payback)
    k = len(comps)
    raw = []
    for u, v, w in canonical_edges(instance):
        cu = comp_of.get(u)
        cv = comp_of.get(v)
        if cu is not None and cv is not None:
            continue
        raw.append((u, v, w, cu, cv))
    s_count = len(raw)
    high_ids = {v: k + s_count + 1 + j for j, v in enumerate(sorted(high))}
    for u, v, w, cu, cv in raw:
        if cu is not None:
            crossing.append((cu + 1, high_ids[v], w, None))
        elif cv is not None:
            crossing.append((cv + 1, high_ids[u], w, None))
        else:
            crossing.append((high_ids[u], high_ids[v], w, min(u, v)))

    f_vertices = tuple(range(1, k + s_count + len(high) + 1))
    f_edges = []
    f_tau: dict[int, Fraction] = {ci + 1: mu for ci in range(k)}
    for i, (fx, fy, w, _) in enumerate(crossing):
        s = k + 1 + i
        f_tau[s] = w
        f_edges.append((fx, s, w))
        f_edges.append((s, fy, w))
    for v in high:
        f_tau[high_ids[v]] = instance.tau[v]
    contracted = Instance(UNDIRECTED, f_vertices, tuple(f_edges), f_tau)
    slacks = slacks_along(contracted, f_vertices)

    p = {v: Fraction(0) for v in instance.vertices}
    for ci, comp in enumerate(comps):
        p[min(comp)] += slacks[ci + 1]
    for i, (_, _, w, payback) in enumerate(crossing):
        slack = slacks[k + 1 + i]
        if slack:
            if payback is None:
                raise VerificationError("unexpected incentive on a contracted-edge subdivision")
            p[payback] += slack
    for v in high:
        p[v] += slacks[high_ids[v]]

    cost = incentive_cost(p)
    if cost != sum(slacks.values(), start=Fraction(0)):
        raise VerificationError("mapped-back cost does not match the contracted optimum")
    if not is_target_vector(instance, p):
        raise VerificationError("min-or-full incentive vector failed engine verification")
    certificate = {
        "low_components": str(k),
        "subdivisions": str(s_count),
        "high_vertices": str(len(high)),
    }
    return SolveReport(p, cost, "min-or-full", certificate)


def _match_two_level(instance: Instance) -> tuple[list[int], Fraction] | None:
    try:
        return _two_level_split(instance)
    except PreconditionError:
        return None


def _matches_min_or_full(instance: Instance) -> bool:
    view = instance.compiled
    mu = view.min_weight
    return all(t == mu or t == total for t, total in zip(view.tau, view.totals))


def classify_and_solve(instance: Instance) -> SolveReport | None:
    if instance.mode != UNDIRECTED:
        return None
    ordering = peel_ordering(instance)
    if isinstance(ordering, DegeneracyOrdering):
        return solve_degenerate(instance, ordering)
    if instance.edges and is_connected(instance):
        split = _match_two_level(instance)
        if split is not None:
            return _solve_two_level(instance, *split)
    if instance.edges and _matches_min_or_full(instance):
        return solve_min_or_full(instance)
    return None


def kappa_complement_check(instance: Instance, target) -> bool:
    degrees = {v: len(pairs) for v, pairs in zip(instance.vertices, instance.compiled.incoming)}
    for _, _, w in instance.edges:
        if w != 1:
            raise PreconditionError(f"unit edge weights required, found {w}")
    for v in instance.vertices:
        t = instance.tau[v]
        if t.denominator != 1 or not 1 <= t <= degrees[v]:
            raise PreconditionError(
                f"vertex {v} needs an integer threshold between 1 and its degree, got {t}"
            )
    target = frozenset(target)
    stray = target - instance.vertex_set
    if stray:
        raise ValueError(f"unknown vertices in target set: {sorted(stray)}")
    complement = instance.vertex_set - target
    if not complement:
        return True
    sub = induced_subinstance(instance, complement)
    kappa = {v: Fraction(degrees[v]) - instance.tau[v] for v in sub.vertices}
    relaxed = Instance(sub.mode, sub.vertices, sub.edges, kappa)
    return isinstance(peel_ordering(relaxed), DegeneracyOrdering)


# ------------------------------------------------------------ the draws

# Zero weights, and denominators whose LCM mixes coprime factors.
_weights = st.builds(Fraction, st.integers(0, 9), st.sampled_from([1, 2, 7, 9, 11]))


def _totals(ids, edges):
    totals = {v: Fraction(0) for v in ids}
    for u, v, w in edges:
        totals[u] += w
        totals[v] += w
    return totals


@st.composite
def _graphs(draw, mode=UNDIRECTED, weights=_weights):
    """Ids unsorted and non-contiguous; edges listed with either endpoint first."""
    ids = draw(st.lists(st.integers(1, 99), min_size=1, max_size=10, unique=True))
    pairs = [(u, v) for i, u in enumerate(ids) for v in ids[i + 1:]]
    if mode == UNDIRECTED:
        chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
        chosen = [(v, u) if draw(st.booleans()) else (u, v) for u, v in chosen]
    else:
        arcs = pairs + [(v, u) for u, v in pairs]
        chosen = draw(st.lists(st.sampled_from(arcs), unique=True)) if arcs else []
    return ids, [(u, v, draw(weights)) for u, v in chosen]


@st.composite
def _instances(draw):
    """Undirected instances, most of them on a tractable class pattern or near one."""
    ids, edges = draw(_graphs())
    totals = _totals(ids, edges)
    mu = min((w for _, _, w in edges), default=Fraction(0))
    pattern = draw(st.sampled_from(["two-level", "all-low", "min-or-full", "mixed"]))
    tau = {}
    for v in ids:
        if pattern == "all-low":
            options = [totals[v] - mu]
        elif pattern == "two-level":
            options = [totals[v], totals[v] - mu]
        elif pattern == "min-or-full":
            options = [mu, totals[v]]
        else:
            options = [mu, totals[v], totals[v] - mu, Fraction(0), draw(_weights)]
        tau[v] = max(draw(st.sampled_from(options)), Fraction(0))
    return Instance(UNDIRECTED, tuple(ids), tuple(edges), tau)


def _outcome(call, *args):
    try:
        result = call(*args)
    except (PreconditionError, ValueError) as exc:
        return type(exc).__name__, str(exc)
    if isinstance(result, SolveReport):
        assert type(result.cost) is Fraction
        assert all(type(x) is Fraction for x in result.incentives.values())
        # Same vertex order as well as the same values.
        return result, list(result.incentives)
    return result


# ------------------------------------------------------------ the tests

@given(_instances())
@settings(max_examples=600, deadline=None)
def test_solvers_match_reference(instance):
    assert _outcome(solvers.classify_and_solve, instance) == _outcome(classify_and_solve, instance)
    assert _outcome(solvers.solve_degenerate, instance) == _outcome(solve_degenerate, instance)
    assert _outcome(solvers.solve_two_level, instance) == _outcome(solve_two_level, instance)
    assert _outcome(solvers.solve_min_or_full, instance) == _outcome(solve_min_or_full, instance)


@given(_instances(), st.data())
@settings(max_examples=300, deadline=None)
def test_every_removed_edge_matches_reference(instance, data):
    # Every edge in both orientations, plus a pair that is no edge at all.
    pairs = [(u, v) for u, v, _ in instance.edges] + [(v, u) for u, v, _ in instance.edges]
    pairs.append((instance.vertices[0], data.draw(st.integers(1, 120))))
    for pair in pairs:
        assert (_outcome(solvers.solve_two_level, instance, pair)
                == _outcome(solve_two_level, instance, pair))


@given(st.sampled_from([UNDIRECTED, DIRECTED]).flatmap(_graphs))
@settings(max_examples=200, deadline=None)
def test_components_match_reference(graph):
    ids, edges = graph
    for mode in (UNDIRECTED, DIRECTED):
        if mode == UNDIRECTED and len({frozenset(e[:2]) for e in edges}) < len(edges):
            continue
        instance = Instance(mode, tuple(ids), tuple(edges), {v: 0 for v in ids})
        assert library_connected_components(instance) == connected_components(instance)
        assert library_is_connected(instance) == is_connected(instance)


@st.composite
def _kappa_cases(draw):
    ids, edges = draw(_graphs(weights=st.just(Fraction(1))))
    degree = {v: 0 for v in ids}
    for u, v, _ in edges:
        degree[u] += 1
        degree[v] += 1
    tau = {v: draw(st.integers(1, max(degree[v], 1))) for v in ids}
    target = draw(st.lists(st.sampled_from(ids), unique=True))
    return Instance(UNDIRECTED, tuple(ids), tuple(edges), tau), target


@given(_kappa_cases())
@settings(max_examples=200, deadline=None)
def test_kappa_check_matches_reference(case):
    instance, target = case
    assert (_outcome(degeneracy.kappa_complement_check, instance, target)
            == _outcome(kappa_complement_check, instance, target))
