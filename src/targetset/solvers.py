"""Constructive solvers for the tractable threshold classes.

Every solver verifies its own output through the activation engine before
returning, so a report in hand is always a certified solution.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .degeneracy import DegeneracyOrdering, NotDegenerate, peel_ordering, slacks_along
from .engine import incentive_cost, is_target_set, is_target_vector
from .errors import PreconditionError, VerificationError
from .instance import (
    UNDIRECTED,
    Instance,
    VertexSet,
    canonical_edges,
    connected_components,
    induced_subinstance,
    is_connected,
    min_edge_weight,
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


def _ordering_or_fail(instance: Instance, ordering) -> DegeneracyOrdering:
    if ordering is None:
        ordering = peel_ordering(instance)
    if isinstance(ordering, NotDegenerate):
        raise PreconditionError(
            f"thresholds are not degenerate; peeling sticks on {sorted(ordering.stuck)}"
        )
    return ordering


def approx_target_set(instance: Instance, ordering: DegeneracyOrdering | None = None) -> ApproxTargetSetResult:
    """Target set for degenerate thresholds: the positive-slack vertices.

    Vertices with zero slack activate for free along the ordering, so seeding
    the rest always works; the seed size is within tau_max / c of optimal,
    where c is the smallest positive slack.
    """
    ordering = _ordering_or_fail(instance, ordering)
    selected = [u for u in ordering.order if ordering.slacks[u] > 0]
    seed = frozenset(selected)
    if not is_target_set(instance, seed):
        raise VerificationError("degenerate seed selection failed engine verification")
    tau_max = max(instance.tau.values()) if instance.n else Fraction(0)
    if selected:
        c = min(ordering.slacks[u] for u in selected)
        ratio = tau_max / c
    else:
        c = None
        ratio = None
    return ApproxTargetSetResult(seed, tau_max, c, ratio)


def solve_degenerate(instance: Instance, ordering: DegeneracyOrdering | None = None) -> SolveReport:
    """Optimal incentives for degenerate thresholds: pay each vertex its slack.

    The cost telescopes to (sum of thresholds) - (sum of edge weights), which
    matches the universal lower bound, so the vector is optimal.
    """
    ordering = _ordering_or_fail(instance, ordering)
    p = {v: ordering.slacks[v] for v in instance.vertices}
    cost = incentive_cost(p)
    if not is_target_vector(instance, p):
        raise VerificationError("degenerate incentive vector failed engine verification")
    return SolveReport(p, cost, "degenerate", {"ordering": " ".join(map(str, ordering.order))})


def target_vector_lower_bound(instance: Instance) -> Fraction:
    """Universal lower bound on incentive cost: thresholds minus edge weights, at worst 0."""
    gap = instance.tau_total - instance.total_weight
    return gap if gap > 0 else Fraction(0)


def _two_level_split(instance: Instance) -> tuple[list[int], Fraction]:
    """Vertices at their full incident sum, for the two-level pattern."""
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
    if not instance.edges:
        raise PreconditionError("the two-level solver needs at least one edge")
    if not is_connected(instance):
        raise PreconditionError("the two-level solver requires a connected instance")
    saturated, mu = _two_level_split(instance)
    return _solve_two_level(instance, saturated, mu, removed_edge)


def _solve_two_level(instance: Instance, saturated: list[int], mu: Fraction,
                     removed_edge: tuple[int, int] | None = None) -> SolveReport:
    """`solve_two_level` on a connected instance whose `_two_level_split` is given."""
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
    """Optimal incentives when every threshold is the minimum edge weight or the vertex's full incident sum.

    Contracts each connected component of the low-threshold part to a single
    vertex, subdivides every remaining edge, and solves the resulting
    instance along the ordering (component vertices, subdivision vertices,
    full-threshold vertices), which is degenerate by construction. Incentives
    map back to one representative per low component and, for edges between
    two full-threshold vertices, to the smaller-id endpoint.
    """
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


def vertex_cover_target_set(instance: Instance) -> VertexSet:
    """Cheap target-set upper bound: a greedy 2-approximate vertex cover.

    Needs every threshold to stay within the vertex's incident sum; an
    uncovered vertex then sees all of its incident weight once the cover is
    active, so the cover is a target set of size at most twice the minimum
    cover.
    """
    totals = instance.incident_totals
    for v in instance.vertices:
        if instance.tau[v] > totals[v]:
            raise PreconditionError(
                f"vertex {v} has threshold {instance.tau[v]} above its incident "
                f"sum {totals[v]}; a vertex cover cannot be guaranteed to activate it"
            )
    cover: set[int] = set()
    for u, v, _ in canonical_edges(instance):
        if u not in cover and v not in cover:
            cover.add(u)
            cover.add(v)
    seed = frozenset(cover)
    if not is_target_set(instance, seed):
        raise VerificationError("greedy cover failed target-set verification")
    return seed


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
    """Dispatch to the known tractable classes, cheapest certificate first.

    Returns None when no supported pattern applies (callers may fall back to
    the exhaustive oracle).
    """
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
