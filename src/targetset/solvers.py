"""Constructive solvers for the tractable threshold classes.

The incentive solvers work on the integer view (`Instance.compiled`) and
make Fractions only for the report they return. Every solver verifies its
own output through the activation engine before returning, so a report in
hand is always a certified solution.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import sub

from .degeneracy import _peel, _require_undirected
from .engine import _activates_all, is_target_set
from .errors import PreconditionError, VerificationError
from .instance import (
    UNDIRECTED,
    CompiledInstance,
    Instance,
    VertexSet,
    _fraction,
    _label_components,
    _positions,
    _view_edges,
    is_connected,
)


@dataclass(frozen=True)
class ApproxTargetSetResult:
    """Approximation output: the seed set and the quantities behind its ratio.

    min_positive_slack is the smallest positive slack among selected vertices
    (None when the set is empty); claimed_ratio = tau_max / min_positive_slack.
    """

    seed: VertexSet
    tau_max: Fraction
    min_positive_slack: Fraction | None
    claimed_ratio: Fraction | None


@dataclass(frozen=True)
class SolveReport:
    """A certified incentive vector: engine-verified, with its certificate."""

    incentives: dict[int, Fraction]
    cost: Fraction
    method: str
    certificate: dict[str, str]


def approx_target_set(instance: Instance) -> ApproxTargetSetResult:
    """Target set for degenerate thresholds: the positive-slack vertices.

    Vertices with zero slack activate for free along the peeling ordering, so
    seeding the rest always works; the seed size is within tau_max / c of
    optimal, where c is the smallest positive slack.
    """
    view = instance.compiled
    slacks = _peel_or_fail(instance, view, list(view.totals))
    seed = frozenset(instance.vertices[i] for i, slack in slacks.items() if slack > 0)
    if not is_target_set(instance, seed):
        raise VerificationError("degenerate seed selection failed engine verification")
    scale = view.scale
    tau_max = Fraction(max(view.tau, default=0), scale)
    if seed:
        c = Fraction(min(slack for slack in slacks.values() if slack > 0), scale)
        ratio = tau_max / c
    else:
        c = None
        ratio = None
    return ApproxTargetSetResult(seed, tau_max, c, ratio)


def _certified_report(instance: Instance, paid: list[int], method: str, cert: dict[str, str],
                      view: CompiledInstance | None = None) -> SolveReport:
    """Certify the scaled incentives `paid` with the engine, then make the report's Fractions.

    The engine runs on `view`, by default the instance's; a spanning subgraph's view will do, as
    the instance only adds influence to it.
    """
    view = instance.compiled if view is None else view
    if min(paid, default=0) < 0:
        v, x = next((v, x) for v, x in zip(instance.vertices, paid) if x < 0)
        raise ValueError(f"negative incentive {Fraction(x, view.scale)} at vertex {v}")
    # Each payment is a whole number of 1/scale units, so the need is exact.
    if not _activates_all(view, (), list(map(sub, view.tau, paid))):
        raise VerificationError(f"{method} incentive vector failed engine verification")
    value = {x: _fraction(x, view.scale) for x in set(paid)}  # one Fraction per distinct payment
    p = dict(zip(instance.vertices, map(value.__getitem__, paid)))
    return SolveReport(p, Fraction(sum(paid), view.scale), method, cert)


def _peel_or_fail(instance: Instance, view: CompiledInstance, residual: list[int]) -> dict[int, int]:
    """Peel all of `view`, the instance's or a spanning subgraph's, from the weights `residual` each
    position receives in it; return the slacks by position, in deletion order."""
    _require_undirected(instance, "degeneracy")
    alive = [True] * instance.n
    slacks = _peel(view, view.tau, residual, alive)
    if len(slacks) < instance.n:
        stuck = [v for v, live in zip(instance.vertices, alive) if live]
        raise PreconditionError(f"thresholds are not degenerate; peeling sticks on {stuck}")
    return slacks


def _ordering(instance: Instance, slacks: dict[int, int]) -> str:
    """The certifying ordering of a complete peel: its deletion order reversed, as ids."""
    return " ".join(map(str, map(instance.vertices.__getitem__, reversed(slacks))))


def _degenerate_report(instance: Instance, slacks: dict[int, int]) -> SolveReport:
    """Each vertex paid its slack from a complete peel of the instance."""
    paid = list(map(slacks.__getitem__, range(instance.n)))
    return _certified_report(instance, paid, "degenerate", {"ordering": _ordering(instance, slacks)})


def solve_degenerate(instance: Instance) -> SolveReport:
    """Optimal incentives for degenerate thresholds: pay each vertex its slack.

    The cost telescopes to (sum of thresholds) - (sum of edge weights), which
    matches the universal lower bound, so the vector is optimal.
    """
    view = instance.compiled
    return _degenerate_report(instance, _peel_or_fail(instance, view, list(view.totals)))


def target_vector_lower_bound(instance: Instance) -> Fraction:
    """Universal lower bound on incentive cost, in both modes.

    Each vertex is paid at least its threshold minus its whole incident
    (incoming) weight. In undirected mode each edge gives its weight to its
    later endpoint, so the payments sum to the thresholds minus the edge
    weights plus the weight the vertices receive past their thresholds. If
    peeling sticks, the last stuck vertex to activate receives at least its
    weight from the other stuck vertices, so at least the least such excess
    is wasted. The bound is the larger of the two, the target-vector
    oracle's closed-set estimate at the empty set. In directed mode the
    thresholds minus the arc weights never exceed the first bound.
    """
    view = instance.compiled
    excess = sum(t - s for t, s in zip(view.tau, view.totals) if t > s)
    if instance.mode != UNDIRECTED:
        return Fraction(excess, view.scale)
    residual, alive = list(view.totals), [True] * instance.n
    _peel(view, view.tau, residual, alive)
    waste = min((r - t for r, t, live in zip(residual, view.tau, alive) if live), default=0)
    return Fraction(max(excess, sum(view.tau) - sum(view.totals) // 2 + waste), view.scale)


def _two_level_split(instance: Instance) -> list[int]:
    """Vertices at their full incident sum, for the two-level pattern."""
    view = instance.compiled
    mu = view.min_weight
    saturated = []
    for v, t, total in zip(instance.vertices, view.tau, view.totals):
        if t == total:
            saturated.append(v)
        elif t != total - mu:
            raise PreconditionError(
                f"vertex {v} has threshold {Fraction(t, view.scale)}, expected its incident sum "
                f"{Fraction(total, view.scale)} or that sum minus {Fraction(mu, view.scale)}"
            )
    return saturated


def solve_two_level(instance: Instance, removed_edge: tuple[int, int] | None = None) -> SolveReport:
    """Optimal incentives when every threshold is the vertex's incident sum or that sum minus the minimum edge weight.

    If some vertex sits at its full sum the instance is already degenerate.
    Otherwise deleting any minimum-weight edge saturates both endpoints and
    leaves a degenerate instance; a vector for the reduced graph is a vector
    for the original, since extra edges only add influence. The cost is the
    same for every choice of removed edge. `removed_edge` overrides the
    default (smallest endpoint pair), mainly so tests can sweep all choices.
    """
    if instance.mode != UNDIRECTED:
        raise PreconditionError("the two-level solver handles undirected instances only")
    if not any(instance.compiled.out):
        raise PreconditionError("the two-level solver needs at least one edge")
    if not is_connected(instance):
        raise PreconditionError("the two-level solver requires a connected instance")
    if _two_level_split(instance):
        base = solve_degenerate(instance)
        cert = {"branch": "degenerate", **base.certificate}
        return SolveReport(base.incentives, base.cost, "two-level", cert)
    view = instance.compiled
    if removed_edge is None:
        return _split_report(instance, *_first_min_edge(view))
    chosen = (min(removed_edge), max(removed_edge))
    not_edge = f"edge {chosen} is not a minimum-weight edge"
    a, b = _positions(instance, chosen, not_edge)
    if (b, view.min_weight) not in view.out[a]:
        raise ValueError(not_edge)
    return _split_report(instance, a, b)


def _first_min_edge(view: CompiledInstance) -> tuple[int, int]:
    """The smallest position pair (a, b), a < b, joined by a minimum-weight edge."""
    m, out = view.min_weight, view.out
    a = next(i for i, pairs in enumerate(out) if any(w == m and i < j for j, w in pairs))
    return a, min(j for j, w in out[a] if w == m and a < j)


def _split_report(instance: Instance, a: int, b: int) -> SolveReport:
    """Two-level's split branch for an all-low instance: each vertex paid its slack once the
    minimum-weight edge between positions a and b is gone.

    The reduced graph is an integer view without the edge, peeled like any
    other. The engine verifies the vector on it alone: the instance only
    adds the edge's influence, so the vector activates it too.
    """
    view, out = instance.compiled, instance.compiled.out
    adjacency = list(out)
    adjacency[a] = [(j, w) for j, w in out[a] if j != b]
    adjacency[b] = [(j, w) for j, w in out[b] if j != a]
    reduced = CompiledInstance(view.scale, view.position, view.tau, adjacency, adjacency)
    # Only the two endpoints lose weight: the edge's, the minimum.
    residual = list(view.totals)
    residual[a] -= view.min_weight
    residual[b] -= view.min_weight
    slacks = _peel_or_fail(instance, reduced, residual)
    paid = list(map(slacks.__getitem__, range(instance.n)))
    verts = instance.vertices
    cert = {"branch": "split", "removed_edge": f"{verts[a]} {verts[b]}", "ordering": _ordering(instance, slacks)}
    return _certified_report(instance, paid, "two-level", cert, reduced)


def solve_min_or_full(instance: Instance) -> SolveReport:
    """Optimal incentives when every threshold is the minimum edge weight or the vertex's full incident sum.

    The optimum is the minimum weight mu per connected component of the
    low-threshold part, paid at its smallest member, plus w per edge of
    weight w between two full-threshold vertices, paid at its smaller
    endpoint. Why: contract each low component to one vertex and subdivide
    every other edge. Along (component vertices, subdivision vertices,
    full-threshold vertices) the result is degenerate, with slacks mu, then
    w, or 0 for an edge with a component endpoint, then tau(h) - total(h) = 0,
    so those slacks are its optimum, and they map back to the payments above.
    The certificate counts the components, the subdivided edges (those not
    inside the low part) and the full-threshold vertices.
    """
    if instance.mode != UNDIRECTED:
        raise PreconditionError("the min-or-full solver handles undirected instances only")
    if not any(instance.compiled.out):
        raise PreconditionError("the min-or-full solver needs at least one edge")
    view = instance.compiled
    scale, mu = view.scale, view.min_weight
    for v, t, total in zip(instance.vertices, view.tau, view.totals):
        if t != mu and t != total:
            raise PreconditionError(
                f"vertex {v} has threshold {Fraction(t, scale)}, expected the minimum "
                f"edge weight {Fraction(mu, scale)} or its incident sum {Fraction(total, scale)}"
            )
    return _min_or_full_report(instance)


def _min_or_full_report(instance: Instance) -> SolveReport:
    """Min-or-full's closed-form payments, for an instance with an edge whose thresholds fit the pattern."""
    view, n = instance.compiled, instance.n
    mu, out = view.min_weight, view.out
    low = [t == mu for t in view.tau]
    # Components are found in ascending id order, so each starts at its smallest member.
    label = _label_components(view, [i for i in range(n) if low[i]], low)
    paid = [mu if label[i] == i else 0 for i in range(n)]
    inside = 0  # twice the edges inside the low part; every other edge is subdivided
    for u, pairs in enumerate(out):
        if low[u]:
            inside += sum([low[v] for v, _ in pairs])
        else:
            paid[u] += sum([w for v, w in pairs if u < v and not low[v]])  # u is the smaller endpoint
    subdivisions = (sum(map(len, out)) - inside) // 2
    k = sum(label[i] == i for i in range(n))
    cert = {"low_components": str(k), "subdivisions": str(subdivisions), "high_vertices": str(low.count(False))}
    return _certified_report(instance, paid, "min-or-full", cert)


def vertex_cover_target_set(instance: Instance) -> VertexSet:
    """Cheap target-set upper bound: a greedy 2-approximate vertex cover.

    Needs every threshold to stay within the vertex's incident sum; an
    uncovered vertex then sees all of its incident weight once the cover is
    active, so the cover is a target set of size at most twice the minimum
    cover.
    """
    view = instance.compiled
    for v, t, total in zip(instance.vertices, view.tau, view.totals):
        if t > total:
            raise PreconditionError(
                f"vertex {v} has threshold {Fraction(t, view.scale)} above its incident "
                f"sum {Fraction(total, view.scale)}; a vertex cover cannot be guaranteed to activate it"
            )
    cover: set[int] = set()
    for u, v, _ in zip(*_view_edges(instance)):
        if u not in cover and v not in cover:
            cover.add(u)
            cover.add(v)
    seed = frozenset(cover)
    if not is_target_set(instance, seed):
        raise VerificationError("greedy cover failed target-set verification")
    return seed


def classify_and_solve(instance: Instance) -> SolveReport | None:
    """The report of the first class solver whose class holds: degenerate, two-level, min-or-full.

    Gives what trying `solve_degenerate`, `solve_two_level` and
    `solve_min_or_full` in that order gives, with the work done once. The
    instance is peeled once; a complete peel is the degenerate report.
    Otherwise two-level's degenerate branch would fail on the same peel, so
    only its split remains: every threshold its incident sum minus the
    minimum weight, on a connected instance. Failing that, the min-or-full
    pattern is tested. Directed instances fit no class. Returns None when no
    class applies (callers may fall back to the exhaustive oracle);
    ValueError and VerificationError propagate.
    """
    if instance.mode != UNDIRECTED:
        return None
    view, n = instance.compiled, instance.n
    slacks = _peel(view, view.tau, list(view.totals), [True] * n)
    if len(slacks) == n:
        return _degenerate_report(instance, slacks)
    # An edgeless instance always peels, so there is an edge. So does one with every vertex at its
    # incident sum, so a two-level instance here has mu > 0 and no vertex at its sum.
    mu, tau, totals = view.min_weight, view.tau, view.totals
    if tau == tuple([total - mu for total in totals]) and is_connected(instance):
        return _split_report(instance, *_first_min_edge(view))
    if {t for t, total in zip(tau, totals) if t != total} <= {mu}:
        return _min_or_full_report(instance)
    return None
