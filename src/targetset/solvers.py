"""Constructive solvers for the tractable threshold classes.

The incentive solvers work on the integer view (`Instance.compiled`) and
make Fractions only for the report they return. Every solver verifies its
own output through the activation engine before returning, so a report in
hand is always a certified solution.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .degeneracy import DegeneracyOrdering, NotDegenerate, peel_ordering, slacks_along
from .degeneracy import _peel, _require_undirected
from .engine import _activates_all, is_target_set
from .errors import PreconditionError, VerificationError
from .instance import (
    UNDIRECTED,
    CompiledInstance,
    Instance,
    VertexSet,
    _label_components,
    canonical_edges,
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


def _certified_report(instance: Instance, paid: list[int], method: str, cert: dict[str, str]) -> SolveReport:
    """Certify the scaled incentives `paid` with the engine, then make the report's Fractions."""
    view = instance.compiled
    for v, x in zip(instance.vertices, paid):
        if x < 0:
            raise ValueError(f"negative incentive {Fraction(x, view.scale)} at vertex {v}")
    # Each payment is a whole number of 1/scale units, so the need is exact.
    if not _activates_all(view, (), [t - x for t, x in zip(view.tau, paid)]):
        raise VerificationError(f"{method} incentive vector failed engine verification")
    value = {x: Fraction(x, view.scale) for x in set(paid)}  # one Fraction per distinct payment
    p = {v: value[x] for v, x in zip(instance.vertices, paid)}
    return SolveReport(p, Fraction(sum(paid), view.scale), method, cert)


def _peel_or_fail(instance: Instance, residual: list[int], masked=(-1, -1)) -> tuple[list[int], str]:
    """Peel the whole instance; return the slacks by position and the ordering certificate."""
    view, verts = instance.compiled, instance.vertices
    alive = [True] * instance.n
    slacks = _peel(view, verts, view.tau, residual, alive, masked)
    if len(slacks) < instance.n:
        stuck = sorted(v for v, live in zip(verts, alive) if live)
        raise PreconditionError(f"thresholds are not degenerate; peeling sticks on {stuck}")
    return [slacks[i] for i in range(instance.n)], " ".join(str(verts[i]) for i in reversed(slacks))


def solve_degenerate(instance: Instance, ordering: DegeneracyOrdering | None = None) -> SolveReport:
    """Optimal incentives for degenerate thresholds: pay each vertex its slack.

    The cost telescopes to (sum of thresholds) - (sum of edge weights), which
    matches the universal lower bound, so the vector is optimal. The slacks
    paid along a given `ordering` are taken on this instance.
    """
    if ordering is None:
        _require_undirected(instance, "degeneracy")
        paid, order = _peel_or_fail(instance, list(instance.compiled.totals))
    else:
        order = " ".join(map(str, _ordering_or_fail(instance, ordering).order))
        slacks, scale = slacks_along(instance, ordering.order), instance.compiled.scale
        paid = [int(slacks[v] * scale) for v in instance.vertices]
    return _certified_report(instance, paid, "degenerate", {"ordering": order})


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


def solve_two_level(instance: Instance, removed_edge: tuple[int, int] | None = None) -> SolveReport:
    """Optimal incentives when every threshold is the vertex's incident sum or that sum minus the minimum edge weight.

    If some vertex sits at its full sum the instance is already degenerate.
    Otherwise deleting any minimum-weight edge saturates both endpoints and
    leaves a degenerate instance; a vector for the reduced graph is a vector
    for the original, since extra edges only add influence. The cost is the
    same for every choice of removed edge. `removed_edge` overrides the
    default (smallest endpoint pair), mainly so tests can sweep all choices.

    The deletion is a mask on the integer view: both endpoints start peeling
    from their incident sums minus the minimum weight, and skip each other.
    """
    if instance.mode != UNDIRECTED:
        raise PreconditionError("the two-level solver handles undirected instances only")
    if not instance.edges:
        raise PreconditionError("the two-level solver needs at least one edge")
    if not is_connected(instance):
        raise PreconditionError("the two-level solver requires a connected instance")
    return _solve_two_level(instance, _two_level_split(instance)[0], removed_edge)


def _solve_two_level(instance: Instance, saturated: list[int],
                     removed_edge: tuple[int, int] | None = None) -> SolveReport:
    """`solve_two_level` on a connected instance with the given saturated vertices."""
    if saturated:
        base = solve_degenerate(instance)
        cert = {"branch": "degenerate", **base.certificate}
        return SolveReport(base.incentives, base.cost, "two-level", cert)
    view, verts = instance.compiled, instance.vertices
    m, out, position = view.min_weight, view.out, view.position
    if removed_edge is None:
        chosen = min((u, verts[j]) for u, pairs in zip(verts, out)
                     for j, w in pairs if w == m and u < verts[j])
    else:
        chosen = (min(removed_edge), max(removed_edge))
        if chosen[0] not in position or (position.get(chosen[1]), m) not in out[position[chosen[0]]]:
            raise ValueError(f"edge {chosen} is not a minimum-weight edge")
    a, b = position[chosen[0]], position[chosen[1]]
    residual = [r - m if i in (a, b) else r for i, r in enumerate(view.totals)]
    paid, ordering = _peel_or_fail(instance, residual, (a, b))
    reduced = list(out)
    reduced[a] = [(j, w) for j, w in out[a] if j != b]
    reduced[b] = [(j, w) for j, w in out[b] if j != a]
    need = [t - x for t, x in zip(view.tau, paid)]
    if not _activates_all(CompiledInstance(view.scale, position, view.tau, reduced, reduced), (), need):
        raise VerificationError("degenerate incentive vector failed engine verification")
    cert = {"branch": "split", "removed_edge": f"{chosen[0]} {chosen[1]}", "ordering": ordering}
    return _certified_report(instance, paid, "two-level", cert)


def solve_min_or_full(instance: Instance) -> SolveReport:
    """Optimal incentives when every threshold is the minimum edge weight or the vertex's full incident sum.

    Contracts each connected component of the low-threshold part to a single
    vertex, subdivides every remaining edge, and solves the resulting
    instance along the ordering (component vertices, subdivision vertices,
    full-threshold vertices), which is degenerate by construction. Incentives
    map back to one representative per low component and, for edges between
    two full-threshold vertices, to the smaller-id endpoint.

    The contracted graph is never built; its slacks come off the integer view.
    A component's is the minimum weight, a subdivision's its weight less that
    from a component endpoint, a full-threshold vertex's its threshold less
    the weights from its subdivisions. Components are found in ascending id
    order, so each starts at its smallest member.
    """
    if instance.mode != UNDIRECTED:
        raise PreconditionError("the min-or-full solver handles undirected instances only")
    if not instance.edges:
        raise PreconditionError("the min-or-full solver needs at least one edge")
    view, verts, n = instance.compiled, instance.vertices, instance.n
    scale, mu, tau, totals, out = view.scale, view.min_weight, view.tau, view.totals, view.out
    low = [t == mu for t in tau]
    for v, t, total, is_low in zip(verts, tau, totals, low):
        if not is_low and t != total:
            raise PreconditionError(
                f"vertex {v} has threshold {instance.tau[v]}, expected the minimum "
                f"edge weight {Fraction(mu, scale)} or its incident sum {Fraction(total, scale)}"
            )
    by_id = sorted(range(n), key=verts.__getitem__)
    label = _label_components(view, [i for i in by_id if low[i]], low)
    # Low-low edges lie inside a component; every other edge is subdivided.
    crossing = [(u, v, w) for u, pairs in enumerate(out) for v, w in pairs
                if u < v and not (low[u] and low[v])]
    high = [h for h in by_id if not low[h]]
    k, s = sum(label[i] == i for i in range(n)), len(crossing)
    slacks = [mu] * k
    slacks += [w - (w if low[u] or low[v] else 0) for u, v, w in crossing]
    slacks += [tau[h] - totals[h] for h in high]
    for f, slack in enumerate(slacks, 1):
        if slack < 0:
            raise ValueError(f"not a degeneracy ordering: vertex {f} has slack {Fraction(slack, scale)}")

    paid = [mu if label[i] == i else 0 for i in range(n)]  # a component's slack, at its smallest member
    for (u, v, _), slack in zip(crossing, slacks[k:k + s]):
        if slack:
            if low[u] or low[v]:
                raise VerificationError("unexpected incentive on a contracted-edge subdivision")
            paid[u if verts[u] < verts[v] else v] += slack
    for h, slack in zip(high, slacks[k + s:]):
        paid[h] += slack
    if sum(paid) != sum(slacks):
        raise VerificationError("mapped-back cost does not match the contracted optimum")
    cert = {"low_components": str(k), "subdivisions": str(s), "high_vertices": str(len(high))}
    return _certified_report(instance, paid, "min-or-full", cert)


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
    try:
        paid, ordering = _peel_or_fail(instance, list(instance.compiled.totals))
    except PreconditionError:
        pass  # not degenerate
    else:
        return _certified_report(instance, paid, "degenerate", {"ordering": ordering})
    if instance.edges and is_connected(instance):
        try:
            saturated = _two_level_split(instance)[0]
        except PreconditionError:
            pass  # not two-level
        else:
            return _solve_two_level(instance, saturated)
    if instance.edges and _matches_min_or_full(instance):
        return solve_min_or_full(instance)
    return None
