"""Degenerate threshold assignments and their certifying orderings.

A threshold assignment is degenerate when every nonempty induced subgraph
contains a vertex whose threshold is at least its incident weight sum inside
that subgraph. Equivalently, there is a vertex ordering in which each
vertex's threshold covers the weight on edges to its predecessors; the
nonnegative difference is the vertex's slack.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import OracleLimitError, PreconditionError
from .instance import (
    UNDIRECTED,
    Instance,
    VertexSet,
    incident_weight_sum,
    induced_subinstance,
    min_edge_weight,
    is_connected,
)

BRUTE_LIMIT = 16


@dataclass(frozen=True)
class DegeneracyOrdering:
    """Vertex order plus per-vertex slack certifying degeneracy.

    slack(u) = tau(u) minus the weight on edges from u to vertices earlier
    in `order`; every slack is nonnegative by construction.
    """

    order: tuple[int, ...]
    slacks: dict[int, Fraction]


@dataclass(frozen=True)
class NotDegenerate:
    """A stuck vertex set: an induced subgraph violating the defining condition."""

    stuck: VertexSet


def _require_undirected(instance: Instance, what: str) -> None:
    if instance.mode != UNDIRECTED:
        raise PreconditionError(f"{what} is defined for undirected instances only")


def peel_ordering(instance: Instance) -> DegeneracyOrdering | NotDegenerate:
    """Greedy reverse peeling; returns an ordering or the stuck subgraph.

    Repeatedly deletes a vertex whose threshold covers its remaining incident
    weight (smallest id first, for determinism); the reversed deletion order
    is the certifying ordering. Deleting a qualifying vertex only lowers the
    other residual sums, so the greedy choice never loses: if peeling sticks,
    the remaining set itself violates the degeneracy condition. Runs in
    O(n^2 + m) including ordering construction.
    """
    _require_undirected(instance, "degeneracy")
    residual = dict(instance.incident_totals)
    alive = set(instance.vertices)
    scan_order = sorted(instance.vertices)
    deletion: list[int] = []
    slacks: dict[int, Fraction] = {}
    for _ in range(instance.n):
        pick = None
        for v in scan_order:
            if v in alive and instance.tau[v] >= residual[v]:
                pick = v
                break
        if pick is None:
            return NotDegenerate(frozenset(alive))
        slacks[pick] = instance.tau[pick] - residual[pick]
        deletion.append(pick)
        alive.remove(pick)
        for u, w in instance.in_adjacency[pick]:
            if u in alive:
                residual[u] -= w
    return DegeneracyOrdering(tuple(reversed(deletion)), slacks)


def slacks_along(instance: Instance, order) -> dict[int, Fraction]:
    """Slack of each vertex along an explicit ordering.

    Raises ValueError if the order is not a permutation of the vertices or
    some slack comes out negative (i.e. it is not a degeneracy ordering).
    """
    order = tuple(order)
    if len(order) != instance.n or set(order) != instance.vertex_set:
        raise ValueError("order is not a permutation of the instance's vertices")
    earlier: set[int] = set()
    slacks: dict[int, Fraction] = {}
    for v in order:
        slack = instance.tau[v] - incident_weight_sum(instance, v, earlier)
        if slack < 0:
            raise ValueError(f"not a degeneracy ordering: vertex {v} has slack {slack}")
        slacks[v] = slack
        earlier.add(v)
    return slacks


def brute_degeneracy_check(instance: Instance, limit: int = BRUTE_LIMIT) -> bool:
    """Decide degeneracy by checking all 2^n - 1 induced subgraphs."""
    _require_undirected(instance, "degeneracy")
    n = instance.n
    if n > limit:
        raise OracleLimitError(f"{n} vertices exceeds the exhaustive check limit of {limit}")
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


def near_saturation_check(instance: Instance) -> bool:
    """Fast sufficient condition for degeneracy on connected instances.

    Holds when every threshold is within the minimum edge weight of the
    vertex's full incident sum and at least one vertex reaches the full sum.
    When it holds, peel_ordering is guaranteed to succeed.
    """
    _require_undirected(instance, "the near-saturation check")
    if not instance.edges:
        raise PreconditionError("the near-saturation check needs at least one edge")
    if not is_connected(instance):
        raise PreconditionError("the near-saturation check requires a connected instance")
    mu = min_edge_weight(instance)
    totals = instance.incident_totals
    if any(instance.tau[v] < totals[v] - mu for v in instance.vertices):
        return False
    return any(instance.tau[v] >= totals[v] for v in instance.vertices)


def kappa_complement_check(instance: Instance, target) -> bool:
    """Check a seed set's complement for per-vertex bounded-back-degree ordering.

    For unit weights and integer thresholds 1 <= tau(v) <= d(v), a set D is a
    target set exactly when the complement can be ordered so each vertex has
    at most d(v) - tau(v) neighbors among its predecessors. That is the same
    peeling problem with thresholds d(v) - tau(v), so peel_ordering decides it.
    """
    _require_undirected(instance, "the complement-ordering check")
    degrees = {v: len(instance.in_adjacency[v]) for v in instance.vertices}
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
