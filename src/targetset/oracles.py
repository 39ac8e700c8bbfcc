"""Exhaustive ground-truth solvers for small instances.

These are the reference answers the polynomial-time algorithms are tested
against. Hot loops run on the instance's integer view (`Instance.compiled`),
where every rational is scaled by the common denominator, so they stay exact.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .errors import OracleLimitError
from .engine import _activates_all, incentive_cost, is_target_set, is_target_vector
from .instance import Instance, VertexSet

TARGET_SET_LIMIT = 20
TARGET_VECTOR_LIMIT = 9
VERTEX_COVER_LIMIT = 20


@dataclass(frozen=True)
class OracleResult:
    """Exact optimum, a witness achieving it, and how much work was done."""

    optimum: Fraction | int
    witness: VertexSet | dict[int, Fraction]
    explored: int


def exact_min_target_set(instance: Instance, limit: int = TARGET_SET_LIMIT) -> OracleResult:
    """Smallest seed set that activates everything, by ascending subset size.

    Seeds of each size are tried in lexicographic order, so the witness is
    the lexicographically smallest optimal seed. Works in both modes.
    """
    n = instance.n
    if n > limit:
        raise OracleLimitError(f"{n} vertices exceeds the target-set oracle limit of {limit}")
    view = instance.compiled
    verts = instance.vertices
    explored = 0
    for k in range(n + 1):
        for combo in itertools.combinations(range(n), k):
            explored += 1
            if _activates_all(view, combo, view.tau):
                witness = frozenset(verts[i] for i in combo)
                if not is_target_set(instance, witness):
                    raise RuntimeError("oracle witness failed engine verification")
                return OracleResult(k, witness, explored)
    raise RuntimeError("unreachable: the full vertex set always activates everything")


def exact_min_target_vector(instance: Instance, limit: int = TARGET_VECTOR_LIMIT) -> OracleResult:
    """Exact minimum-cost incentive vector.

    Minimizes, over all activation orders, the summed per-vertex deficit
    (threshold minus weight from earlier neighbors, clamped at zero). The
    deficit depends only on the set of earlier vertices, so the minimum over
    orders is computed as a dynamic program over vertex subsets; any order
    realizes its cost as a valid vector, and any target vector linearized by
    activation rounds costs at least some order, so this is the optimum.
    """
    n = instance.n
    if n > limit:
        raise OracleLimitError(f"{n} vertices exceeds the target-vector oracle limit of {limit}")
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
        raise RuntimeError("oracle witness failed engine verification")
    return OracleResult(optimum, witness, explored)


def grid_min_target_vector(instance: Instance) -> OracleResult:
    """Brute-force optimum over integer incentive vectors with 0 <= p(v) <= tau(v).

    Sound only for integer weights and thresholds: some optimal vector is then
    integral, and paying more than a vertex's own threshold never helps. Kept
    deliberately independent of the order-based oracle so the two can
    cross-check each other.
    """
    for v in instance.vertices:
        if instance.tau[v].denominator != 1:
            raise ValueError(f"integer thresholds required, vertex {v} has {instance.tau[v]}")
    for u, v, w in instance.edges:
        if w.denominator != 1:
            raise ValueError(f"integer weights required, edge ({u}, {v}) has {w}")
    n = instance.n
    view = instance.compiled
    verts = instance.vertices
    best_cost = None
    best_vec = None
    explored = 0
    for combo in itertools.product(*(range(t + 1) for t in view.tau)):
        explored += 1
        cost = sum(combo)
        if best_cost is not None and cost >= best_cost:
            continue
        if _activates_all(view, (), [t - b for t, b in zip(view.tau, combo)]):
            best_cost = cost
            best_vec = combo
    assert best_cost is not None and best_vec is not None  # p = tau always works
    witness = {verts[i]: Fraction(best_vec[i]) for i in range(n)}
    if not is_target_vector(instance, witness):
        raise RuntimeError("grid witness failed engine verification")
    return OracleResult(Fraction(best_cost), witness, explored)


def exact_min_vertex_cover(instance: Instance, limit: int = VERTEX_COVER_LIMIT) -> OracleResult:
    """Exact minimum vertex cover by branch and bound on uncovered edges.

    Directed instances are covered on the underlying undirected graph.
    """
    n = instance.n
    if n > limit:
        raise OracleLimitError(f"{n} vertices exceeds the vertex-cover oracle limit of {limit}")
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
            raise RuntimeError("oracle witness is not a vertex cover")
    return OracleResult(best_size, best_set, explored)
