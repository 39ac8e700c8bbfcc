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
from heapq import heapify, heappop, heappush

from .errors import OracleLimitError, PreconditionError
from .instance import (
    UNDIRECTED,
    Instance,
    VertexSet,
    _subset_weights,
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
    the remaining set itself violates the degeneracy condition. For the same
    reason a vertex stays eligible once it is, so a min-heap of eligible
    vertices enters each one once. Runs on the integer view in
    O((n + m) log n), including ordering construction.
    """
    _require_undirected(instance, "degeneracy")
    view = instance.compiled
    verts, tau, incoming, position = instance.vertices, view.tau, view.incoming, view.position
    residual = list(view.totals)
    queued = [t >= r for t, r in zip(tau, residual)]
    alive = [True] * instance.n
    eligible = [v for v, q in zip(verts, queued) if q]
    heapify(eligible)
    slacks: dict[int, int] = {}
    while eligible:
        v = heappop(eligible)
        pick = position[v]
        slacks[v] = tau[pick] - residual[pick]
        alive[pick] = False
        for j, w in incoming[pick]:
            if alive[j]:
                residual[j] -= w
                if not queued[j] and tau[j] >= residual[j]:
                    queued[j] = True
                    heappush(eligible, verts[j])
    if len(slacks) < instance.n:
        return NotDegenerate(frozenset(v for v, live in zip(verts, alive) if live))
    # Slacks are keyed in deletion order; the ordering is that order reversed.
    scaled = {v: Fraction(s, view.scale) for v, s in slacks.items()}
    return DegeneracyOrdering(tuple(reversed(slacks)), scaled)


def slacks_along(instance: Instance, order) -> dict[int, Fraction]:
    """Slack of each vertex along an explicit ordering.

    Raises ValueError if the order is not a permutation of the vertices or
    some slack comes out negative (i.e. it is not a degeneracy ordering).
    """
    order = tuple(order)
    if len(order) != instance.n or set(order) != instance.vertex_set:
        raise ValueError("order is not a permutation of the instance's vertices")
    view = instance.compiled
    earlier = [False] * instance.n
    slacks: dict[int, int] = {}
    for v in order:
        i = view.position[v]
        slack = view.tau[i] - sum(w for j, w in view.incoming[i] if earlier[j])
        if slack < 0:
            raise ValueError(f"not a degeneracy ordering: vertex {v} has slack {Fraction(slack, view.scale)}")
        slacks[v] = slack
        earlier[i] = True
    return {v: Fraction(s, view.scale) for v, s in slacks.items()}


def brute_degeneracy_check(instance: Instance, limit: int = BRUTE_LIMIT) -> bool:
    """Decide degeneracy by checking all 2^n - 1 induced subgraphs.

    A subgraph passes when some member's weight from the other members, two
    table lookups, stays within its threshold: at most n lookups for each of
    the 2^n - 1 subgraphs.
    """
    _require_undirected(instance, "degeneracy")
    n = instance.n
    if n > limit:
        raise OracleLimitError(f"{n} vertices exceeds the exhaustive check limit of {limit}")
    view = instance.compiled
    h, lo, hi = _subset_weights(view)
    low_mask = (1 << h) - 1
    positions = [(1 << i, lo[i], hi[i], view.tau[i]) for i in range(n)]
    for mask in range(1, 1 << n):
        s, t = mask & low_mask, mask >> h
        for bit, lo_i, hi_i, tau_i in positions:
            if mask & bit and lo_i[s] + hi_i[t] <= tau_i:
                break
        else:
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
