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
from heapq import heappop, heappush
from itertools import chain
from operator import itemgetter

from .errors import OracleLimitError, PreconditionError
from .instance import (
    UNDIRECTED,
    CompiledInstance,
    Edge,
    Instance,
    VertexSet,
    _positions,
    _subset_weights,
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


def _non_unit_edge(instance: Instance) -> Edge | None:
    """The first edge, in listing order, whose weight is not 1; None when every weight is 1."""
    view = instance.compiled
    if set(map(itemgetter(1), chain.from_iterable(view.out))) <= {view.scale}:
        return None
    return next(e for e in instance.edges if e[2] != 1)


def _require_degree_thresholds(instance: Instance) -> None:
    """Raise unless every threshold is an integer between 1 and its vertex's degree.

    Assumes unit weights, so a degree is the length of an incoming list.
    """
    view = instance.compiled
    scale = view.scale
    for v, pairs, t in zip(instance.vertices, view.incoming, view.tau):
        if t % scale or not scale <= t <= len(pairs) * scale:
            raise PreconditionError(
                f"vertex {v} needs an integer threshold between 1 and its degree, got {Fraction(t, scale)}"
            )


def _pop_largest(heap: list[int]) -> int:
    return ~heappop(heap)


def _push_largest(heap: list[int], i: int) -> None:
    heappush(heap, ~i)


def _peel(view: CompiledInstance, tau, residual, alive, largest_first: bool = False) -> dict[int, int]:
    """Greedy reverse peeling of the `alive` positions, by default smallest position (so id) first.

    `residual[i]` is the weight position i receives from live positions. Both
    lists are updated in place, so the positions left alive are the stuck
    set. Returns each peeled position's slack, keyed in deletion order.
    A deletion only lowers other residuals, so the greedy choice never loses
    and a position stays eligible once it is: a min-heap enters each one
    once, O((n + m) log n). The heap always holds every eligible position,
    so the pop order fixes the deletion order and nothing else; the stuck
    set is the same in any order. With `largest_first` the largest eligible
    position goes first, as the target-vector oracle's dynamic program walks
    back, and the heap holds ~i; the solvers keep the default, which pays
    nothing for the choice.
    """
    incoming = view.incoming
    queued = [live and t >= r for live, t, r in zip(alive, tau, residual)]
    eligible = [i for i, q in enumerate(queued) if q]  # ascending, so already a heap
    pop, push = heappop, heappush
    if largest_first:
        eligible = [~i for i in reversed(eligible)]
        pop, push = _pop_largest, _push_largest
    slacks: dict[int, int] = {}
    while eligible:
        pick = pop(eligible)
        slacks[pick] = tau[pick] - residual[pick]
        alive[pick] = False
        for j, w in incoming[pick]:
            if alive[j]:
                residual[j] -= w
                if not queued[j] and tau[j] >= residual[j]:
                    queued[j] = True
                    push(eligible, j)
    return slacks


def peel_ordering(instance: Instance) -> DegeneracyOrdering | NotDegenerate:
    """Greedy reverse peeling; returns an ordering or the stuck subgraph.

    Repeatedly deletes a vertex whose threshold covers its remaining incident
    weight (smallest id first); the reversed deletion order is the certifying
    ordering. If peeling sticks, the remaining set violates the condition.
    """
    _require_undirected(instance, "degeneracy")
    view, verts = instance.compiled, instance.vertices
    alive = [True] * instance.n
    slacks = _peel(view, view.tau, list(view.totals), alive)
    if len(slacks) < instance.n:
        return NotDegenerate(frozenset(v for v, live in zip(verts, alive) if live))
    scaled = {verts[i]: Fraction(s, view.scale) for i, s in slacks.items()}
    return DegeneracyOrdering(tuple(verts[i] for i in reversed(slacks)), scaled)


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


def kappa_complement_check(instance: Instance, target) -> bool:
    """Check a seed set's complement for per-vertex bounded-back-degree ordering.

    For unit weights and integer thresholds 1 <= tau(v) <= d(v), a set D is a
    target set exactly when the complement can be ordered so each vertex has
    at most d(v) - tau(v) neighbors among its predecessors. That is the same
    peeling problem with thresholds d(v) - tau(v), so peeling decides it.
    """
    _require_undirected(instance, "the complement-ordering check")
    edge = _non_unit_edge(instance)
    if edge is not None:
        raise PreconditionError(f"unit edge weights required, found {edge[2]}")
    _require_degree_thresholds(instance)
    view = instance.compiled
    # Peel the complement on the instance's own view, thresholds d(v) - tau(v).
    alive = [True] * instance.n
    for i in _positions(instance, frozenset(target), "unknown vertices in target set: {}"):
        alive[i] = False
    kappa = [len(pairs) * view.scale - t for pairs, t in zip(view.incoming, view.tau)]
    residual = [sum(w for j, w in pairs if alive[j]) for pairs in view.incoming]
    _peel(view, kappa, residual, alive)
    return not any(alive)
