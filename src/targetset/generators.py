"""Seeded instance generators for tests and benchmarks.

The same GenSpec always produces the same instance: every random draw comes
from a `random.Random(spec.seed)` consumed in a fixed order.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .instance import DIRECTED, UNDIRECTED, Instance, parse_rational


@dataclass(frozen=True)
class GenSpec:
    """Recipe for one generated instance.

    family: random | degenerate | cubic | tournament
    weights: int (1..10) | halves (k/2, k in 1..20) | unit
    tau_policy (random family): uniform | capped | fixed | two-level |
        min-or-full | degree-range
    """

    family: str = "random"
    n: int = 8
    seed: int = 0
    edge_prob: float = 0.5
    weights: str = "int"
    tau_policy: str = "uniform"
    fixed_tau: str = "1"
    connected: bool = False
    max_slack: int = 3


def _draw_weight(rng: random.Random, grid: str) -> Fraction:
    if grid == "int":
        return Fraction(rng.randint(1, 10))
    if grid == "halves":
        return Fraction(rng.randint(1, 20), 2)
    if grid == "unit":
        return Fraction(1)
    raise ValueError(f"unknown weight grid {grid!r}")


def _random_edges(rng: random.Random, spec: GenSpec) -> list[tuple[int, int, Fraction]]:
    if not 0 <= spec.edge_prob <= 1:
        raise ValueError(f"edge probability {spec.edge_prob} outside [0, 1]")
    n = spec.n
    ids = list(range(1, n + 1))
    chosen: set[tuple[int, int]] = set()
    if spec.connected and n >= 2:
        order = ids[:]
        rng.shuffle(order)
        for i in range(1, n):
            a, b = order[rng.randrange(i)], order[i]
            chosen.add((min(a, b), max(a, b)))
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            if (i, j) not in chosen and rng.random() < spec.edge_prob:
                chosen.add((i, j))
    return [(u, v, _draw_weight(rng, spec.weights)) for u, v in sorted(chosen)]


def _thresholds(rng: random.Random, spec: GenSpec, instance_edges, n) -> dict[int, Fraction]:
    totals = {v: Fraction(0) for v in range(1, n + 1)}
    degrees = {v: 0 for v in range(1, n + 1)}
    mu = None
    for u, v, w in instance_edges:
        totals[u] += w
        totals[v] += w
        degrees[u] += 1
        degrees[v] += 1
        mu = w if mu is None or w < mu else mu
    policy = spec.tau_policy
    fixed = parse_rational(spec.fixed_tau) if policy == "fixed" else 0
    if fixed < 0:
        raise ValueError(f"fixed threshold {fixed} is negative")
    tau: dict[int, Fraction] = {}
    for v in range(1, n + 1):
        if policy == "uniform":
            tau[v] = totals[v] * Fraction(rng.randint(0, 10), 8)
        elif policy == "capped":
            tau[v] = totals[v] * Fraction(rng.randint(0, 8), 8)
        elif policy == "fixed":
            tau[v] = fixed
        elif policy == "two-level":
            if mu is None:
                raise ValueError("two-level thresholds need at least one edge")
            tau[v] = totals[v] if rng.random() < 0.5 else totals[v] - mu
            if tau[v] < 0:  # checked after the draw, so the stream stays the same
                raise ValueError(f"two-level threshold of isolated vertex {v} would be negative")
        elif policy == "min-or-full":
            if mu is None:
                raise ValueError("min-or-full thresholds need at least one edge")
            tau[v] = mu if rng.random() < 0.5 else totals[v]
        elif policy == "degree-range":
            tau[v] = Fraction(rng.randint(1, max(1, degrees[v])))
        else:
            raise ValueError(f"unknown threshold policy {policy!r}")
    return tau


def gen_random_weighted(spec: GenSpec) -> Instance:
    """Edge-probability random graph with weights and thresholds per spec."""
    if spec.n < 1:
        raise ValueError("need at least one vertex")
    rng = random.Random(spec.seed)
    edges = _random_edges(rng, spec)
    tau = _thresholds(rng, spec, edges, spec.n)
    return Instance(UNDIRECTED, tuple(range(1, spec.n + 1)), tuple(edges), tau)


def gen_degenerate(spec: GenSpec) -> Instance:
    """Instance that is degenerate by construction.

    Draws a random vertex order and sets each threshold to the weight toward
    its predecessors plus a nonnegative random slack, so peeling always
    succeeds.
    """
    if spec.n < 1:
        raise ValueError("need at least one vertex")
    rng = random.Random(spec.seed)
    edges = _random_edges(rng, spec)
    order = list(range(1, spec.n + 1))
    rng.shuffle(order)
    rank = {v: i for i, v in enumerate(order)}
    back = {v: Fraction(0) for v in order}
    for u, v, w in edges:
        later = u if rank[u] > rank[v] else v
        back[later] += w
    tau = {}
    for v in order:
        slack = Fraction(rng.randint(0, 2 * spec.max_slack), 2)
        tau[v] = back[v] + slack
    return Instance(UNDIRECTED, tuple(range(1, spec.n + 1)), tuple(edges), tau)


def gen_cubic_t12(spec: GenSpec) -> Instance:
    """Random 3-regular simple graph, unit weights, thresholds in {1, 2}.

    Uses the pairing model with rejection until the pairing is simple.
    """
    n = spec.n
    if n < 4 or n % 2:
        raise ValueError(f"no 3-regular simple graph on {n} vertices")
    rng = random.Random(spec.seed)
    stubs = [v for v in range(1, n + 1) for _ in range(3)]
    for _ in range(10000):
        rng.shuffle(stubs)
        pairs = {(min(a, b), max(a, b)) for a, b in zip(stubs[::2], stubs[1::2])}
        if len(pairs) == 3 * n // 2 and all(a != b for a, b in pairs):
            edges = tuple((u, v, Fraction(1)) for u, v in sorted(pairs))
            tau = {v: Fraction(rng.choice((1, 2))) for v in range(1, n + 1)}
            return Instance(UNDIRECTED, tuple(range(1, n + 1)), edges, tau)
    raise RuntimeError(f"could not pair a simple cubic graph on {n} vertices")


def gen_tournament(spec: GenSpec) -> Instance:
    """Random orientation of a complete graph with positive weights.

    Thresholds are drawn at or below each vertex's incoming weight sum.
    """
    n = spec.n
    if n < 2:
        raise ValueError("a tournament needs at least two vertices")
    rng = random.Random(spec.seed)
    arcs = []
    for u in range(1, n + 1):
        for v in range(u + 1, n + 1):
            w = _draw_weight(rng, spec.weights)
            arcs.append((u, v, w) if rng.random() < 0.5 else (v, u, w))
    insum = {v: Fraction(0) for v in range(1, n + 1)}
    for _, v, w in arcs:
        insum[v] += w
    tau = {v: insum[v] * Fraction(rng.randint(0, 8), 8) for v in range(1, n + 1)}
    return Instance(DIRECTED, tuple(range(1, n + 1)), tuple(arcs), tau)


_FAMILIES = {
    "random": gen_random_weighted,
    "degenerate": gen_degenerate,
    "cubic": gen_cubic_t12,
    "tournament": gen_tournament,
}


def generate(spec: GenSpec) -> Instance:
    """Build the instance described by `spec`."""
    try:
        family = _FAMILIES[spec.family]
    except KeyError:
        raise ValueError(f"unknown family {spec.family!r}") from None
    return family(spec)
