"""Seeded instance generators for tests and benchmarks.

Stream contract: the same GenSpec makes the same random draws, from one
`random.Random(spec.seed)` consumed in a fixed order, and so builds the
same instance, down to the bytes `serialize_wtg` writes. The random and
degenerate families draw, in this order:

- the spanning tree, if `connected` and n >= 2: one shuffle of the
  vertices, then one `randrange` for each vertex after the first;
- the pairs (i, j), i < j, row by row: (1, 2), (1, 3) … (1, n), (2, 3) ….
  A tree pair takes no draw and is kept. Every other pair takes exactly one
  `random()` and is kept when that is below `edge_prob`;
- one weight per kept pair, in the same order;
- the thresholds' draws, vertex by vertex (degenerate: a shuffled order
  first, then one slack per vertex along it).

A tournament draws each pair's weight (none on the unit grid) and then its
orientation, row by row, and then its thresholds.

A spec the family cannot honour raises ValueError. An unknown family, an
edge probability outside [0, 1], for any family but random a threshold
policy other than uniform, and a spec over a size limit are refused before
the first draw; other options a family does not read (see `GenSpec`) are
ignored. The limits are `MAX_PAIRS` vertex pairs visited (n <= 17,321 for
the random, degenerate and tournament families) and `MAX_EDGES` expected
edges.

Weights are drawn as numerators on their grid, and incident sums and
thresholds are computed on those integers. Each family hands the instance
its endpoint lists and the numerators of its weights and thresholds, each
list over one denominator; the instance derives its scale and its Fractions,
so it is neither validated nor compiled a second time.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .instance import DIRECTED, UNDIRECTED, Instance, parse_rational


@dataclass(frozen=True)
class GenSpec:
    """Recipe for one generated instance.

    family: random | degenerate | cubic | tournament
    weights: int (1..10) | halves (k/2, k in 1..20) | unit
    tau_policy (random family): uniform | capped | fixed | two-level |
        min-or-full | degree-range

    Every family reads n and seed. random reads edge_prob, weights,
    tau_policy, fixed_tau (fixed policy only) and connected; degenerate reads
    edge_prob, weights, connected and max_slack; tournament reads weights;
    cubic reads nothing more. Every family refuses an edge_prob outside
    [0, 1], and all but random refuse a tau_policy other than uniform.
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


# Size limits, checked by `generate` before the first draw. The random,
# degenerate and tournament families visit every vertex pair: the first two
# at about 65 ns a pair (Python 3.11, 2 shared cores: 1.15 s for n = 6000),
# so MAX_PAIRS (n <= 17,321) is about 10 s. An edge costs about 270 bytes of
# peak RSS in `generate` and 370 in `targetset gen` (146 and 204 MB at
# n = 1000, p = 1: 499,500 edges), so MAX_EDGES expected edges (the tree's
# plus edge_prob per other pair; every pair for a tournament, 3n/2 for a
# cubic graph) is about 0.75 GB.
MAX_PAIRS = 150_000_000
MAX_EDGES = 2_000_000


# Each weight grid: its denominator and the largest numerator drawn (0: every
# numerator is 1 and none is drawn).
_GRIDS = {"int": (1, 10), "halves": (2, 20), "unit": (1, 0)}


def _grid(name: str) -> tuple[int, int]:
    try:
        return _GRIDS[name]
    except KeyError:
        raise ValueError(f"unknown weight grid {name!r}") from None


def _random_edges(rng: random.Random, spec: GenSpec) -> tuple[list[int], list[int], list[int], int]:
    """Sorted edges as endpoint lists, their weight numerators and the grid's denominator.

    A pair on the spanning tree (if `connected`) is taken without a draw;
    every other pair takes one draw and is kept with probability
    `edge_prob`. Pairs are visited row by row, (1, 2) … (1, n), (2, 3) …,
    and the weights are drawn afterwards, in edge order.
    """
    n = spec.n
    tree: dict[int, set[int]] = {}  # each tree edge's larger end, keyed by its smaller end
    if spec.connected and n >= 2:
        order = list(range(1, n + 1))
        rng.shuffle(order)
        for i in range(1, n):
            a, b = order[rng.randrange(i)], order[i]
            if a > b:
                a, b = b, a
            tree.setdefault(a, set()).add(b)
    draw, p = rng.random, spec.edge_prob
    tails, heads = [], []
    for i in range(1, n):
        row = tree.get(i, ())
        js = [j for j in range(i + 1, n + 1) if j in row or draw() < p]
        tails += [i] * len(js)
        heads += js
    if not tails:  # no weight is drawn, so the grid is never read
        return tails, heads, [], 1
    den, top = _grid(spec.weights)
    nums = [rng.randint(1, top) for _ in tails] if top else [1] * len(tails)
    return tails, heads, nums, den


def _thresholds(rng: random.Random, spec: GenSpec, tails, heads, nums: list[int], den: int) -> tuple[list[int], int]:
    """Threshold numerators in vertex order and their common denominator.

    Weights are `nums` over `den`; thresholds are drawn vertex by vertex.
    """
    n, policy = spec.n, spec.tau_policy
    if policy == "fixed":
        fixed = parse_rational(spec.fixed_tau)
        if fixed < 0:
            raise ValueError(f"fixed threshold {fixed} is negative")
        return [fixed.numerator] * n, fixed.denominator
    if policy == "degree-range":
        degrees = [0] * (n + 1)
        for u, v in zip(tails, heads):
            degrees[u] += 1
            degrees[v] += 1
        return [rng.randint(1, max(1, d)) for d in degrees[1:]], 1
    totals = [0] * (n + 1)
    for u, v, k in zip(tails, heads, nums):
        totals[u] += k
        totals[v] += k
    del totals[0]
    if policy in ("uniform", "capped"):
        top = 10 if policy == "uniform" else 8
        return [t * rng.randint(0, top) for t in totals], 8 * den
    if policy not in ("two-level", "min-or-full"):
        raise ValueError(f"unknown threshold policy {policy!r}")
    if not nums:
        raise ValueError(f"{policy} thresholds need at least one edge")
    mu, draw = min(nums), rng.random
    if policy == "min-or-full":
        return [mu if draw() < 0.5 else t for t in totals], den
    tau = [t if draw() < 0.5 else t - mu for t in totals]
    if min(tau) < 0:  # checked after the draws, so the stream stays the same
        v = 1 + next(i for i, t in enumerate(tau) if t < 0)
        raise ValueError(f"two-level threshold of isolated vertex {v} would be negative")
    return tau, den


def gen_random_weighted(spec: GenSpec) -> Instance:
    """Edge-probability random graph with weights and thresholds per spec."""
    if spec.n < 1:
        raise ValueError("need at least one vertex")
    rng = random.Random(spec.seed)
    tails, heads, nums, den = _random_edges(rng, spec)
    tau, tau_den = _thresholds(rng, spec, tails, heads, nums, den)
    return Instance._from_ints(UNDIRECTED, tuple(range(1, spec.n + 1)), tails, heads, nums, den, tau, tau_den)


def gen_degenerate(spec: GenSpec) -> Instance:
    """Instance that is degenerate by construction.

    Draws a random vertex order and sets each threshold to the weight toward
    its predecessors plus a nonnegative random slack, so peeling always
    succeeds.
    """
    n = spec.n
    if n < 1:
        raise ValueError("need at least one vertex")
    rng = random.Random(spec.seed)
    tails, heads, nums, den = _random_edges(rng, spec)
    order = list(range(1, n + 1))
    rng.shuffle(order)
    rank = [0] * (n + 1)
    for i, v in enumerate(order):
        rank[v] = i
    back = [0] * (n + 1)
    for u, v, k in zip(tails, heads, nums):
        back[u if rank[u] > rank[v] else v] += k
    # Thresholds are halves: the back sum over 2 plus a slack drawn in `order`.
    for v in order:
        back[v] = back[v] * (2 // den) + rng.randint(0, 2 * spec.max_slack)
    return Instance._from_ints(UNDIRECTED, tuple(range(1, n + 1)), tails, heads, nums, den, back[1:], 2)


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
            ordered = sorted(pairs)
            tau = [rng.choice((1, 2)) for _ in range(n)]
            return Instance._from_ints(UNDIRECTED, tuple(range(1, n + 1)), [u for u, _ in ordered],
                                       [v for _, v in ordered], [1] * len(ordered), 1, tau, 1)
    raise RuntimeError(f"could not pair a simple cubic graph on {n} vertices")


def gen_tournament(spec: GenSpec) -> Instance:
    """Random orientation of a complete graph with positive weights.

    Thresholds are drawn at or below each vertex's incoming weight sum.
    """
    n = spec.n
    if n < 2:
        raise ValueError("a tournament needs at least two vertices")
    rng = random.Random(spec.seed)
    den, top = _grid(spec.weights)
    randint, draw = rng.randint, rng.random
    tails, heads, nums = [], [], []
    insum = [0] * (n + 1)
    for a in range(1, n + 1):
        for b in range(a + 1, n + 1):
            k = randint(1, top) if top else 1
            u, v = (a, b) if draw() < 0.5 else (b, a)
            tails.append(u)
            heads.append(v)
            nums.append(k)
            insum[v] += k
    tau = [t * randint(0, 8) for t in insum[1:]]
    return Instance._from_ints(DIRECTED, tuple(range(1, n + 1)), tails, heads, nums, den, tau, 8 * den)


_FAMILIES = {
    "random": gen_random_weighted,
    "degenerate": gen_degenerate,
    "cubic": gen_cubic_t12,
    "tournament": gen_tournament,
}


def _check_size(spec: GenSpec) -> None:
    """Refuse a spec over `MAX_PAIRS` visited pairs or `MAX_EDGES` expected edges."""
    n = max(spec.n, 0)
    if spec.family == "cubic":
        pairs, edges = 0, 1.5 * n
    else:
        pairs = n * (n - 1) // 2
        if spec.family == "tournament":
            edges = pairs
        else:
            tree = n - 1 if spec.connected and n >= 2 else 0
            edges = tree + (pairs - tree) * spec.edge_prob
    if pairs > MAX_PAIRS:
        raise ValueError(f"{n} vertices make {pairs:,} vertex pairs, over the limit of {MAX_PAIRS:,}")
    if edges > MAX_EDGES:
        raise ValueError(f"{n} vertices expect {edges:,.0f} edges, over the limit of {MAX_EDGES:,}")


def generate(spec: GenSpec) -> Instance:
    """Build the instance described by `spec`."""
    try:
        family = _FAMILIES[spec.family]
    except KeyError:
        raise ValueError(f"unknown family {spec.family!r}") from None
    if not 0 <= spec.edge_prob <= 1:
        raise ValueError(f"edge probability {spec.edge_prob} outside [0, 1]")
    if spec.family != "random" and spec.tau_policy != GenSpec.tau_policy:
        raise ValueError(f"threshold policy {spec.tau_policy!r} is for the random family;"
                         f" the {spec.family} family sets its own thresholds")
    _check_size(spec)
    return family(spec)
