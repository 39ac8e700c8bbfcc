"""A deliberately naive model of the paper's definitions, for the differential tests.

The library runs on a scaled integer view with frontier loops, heaps and
bitmask tables. This model restates each definition as plainly as it can
and shares none of that code: it reads an `Instance` only through `mode`,
`vertices`, `edges` and `tau`, and imports from `targetset` only the types
it hands back (`test_model_guard.py` holds it to both). Where a loop over
vertex sets would otherwise add Fractions, an instance is put once on its
own common denominator (`_scaled`); sets are then bitmasks over the ids in
ascending order. It holds:

- activation in rounds, from a seed set or from an incentive map;
- reverse peeling, smallest id first, with slacks, and what it implies:
  degeneracy orderings, the least waste of a stuck rest and the
  complement-ordering check;
- the degenerate, two-level and min-or-full class tests;
- oracles that enumerate vertex sets, with the library's documented
  witness rules: the lexicographically smallest minimum seed set and vertex
  cover, and the cheapest activation order whose every last vertex has the
  largest id, with `explored` = n * 2^(n-1);
- the solvers' documented vectors: each vertex paid its slack, the
  smallest minimum-weight edge removed, and min-or-full's closed form;
- the images of the three reductions;
- the Hypothesis instance strategies the differential tests share.

An input outside a definition's domain raises `Refused`, which names the
library's exception class and states its message.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from itertools import combinations
from types import SimpleNamespace

from hypothesis import strategies as st

from targetset import (
    ActivationTrace,
    DegeneracyOrdering,
    Instance,
    NotDegenerate,
    OracleResult,
    ReductionReceipt,
    SolveReport,
)

UNDIRECTED, DIRECTED = "undirected", "directed"


class Refused(Exception):
    """The library's refusal of an input: its exception class name and its message."""

    def __init__(self, kind: str, message: str):
        super().__init__(kind, message)
        self.kind, self.message = kind, message


REFUSALS = ("PreconditionError", "ValueError", "VerificationError")


def outcome(call, *args):
    """`call(*args)`, or the class name and message of the refusal it raises, the library's or the model's."""
    try:
        return call(*args)
    except Refused as refused:
        return refused.kind, refused.message
    except Exception as exc:
        if type(exc).__name__ not in REFUSALS:
            raise
        return type(exc).__name__, str(exc)


# ------------------------------------------------------------ reading an instance

def _arcs(instance):
    """Every (tail, head, weight) that carries influence: an undirected edge both ways."""
    arcs = list(instance.edges)
    if instance.mode == UNDIRECTED:
        arcs += [(v, u, w) for u, v, w in instance.edges]
    return arcs


def totals(instance) -> dict[int, Fraction]:
    """The weight each vertex receives from all its (in-)neighbours."""
    ids, scale, _, into = _scaled(instance)
    return {v: Fraction(sum(w for _, w in pairs), scale) for v, pairs in zip(ids, into)}


def min_weight(instance) -> Fraction:
    return Fraction(min(w for _, _, w in instance.edges))


def _scaled(instance, *extra):
    """The instance on its own common denominator: (ids ascending, scale, thresholds, `into`).

    `scale` is the LCM of the denominators of every weight, threshold and
    value in `extra`; thresholds are integers in ascending id order, and
    `into[i]` lists the (j, weight) pairs of the arcs into the i-th id.
    """
    ids = sorted(instance.vertices)
    values = [w for _, _, w in instance.edges] + [instance.tau[v] for v in ids] + list(extra)
    scale = math.lcm(*[x.denominator for x in values])

    def scaled(x):
        return x.numerator * (scale // x.denominator)

    at = {v: i for i, v in enumerate(ids)}
    into = [[] for _ in ids]
    for u, v, w in _arcs(instance):
        into[at[v]].append((at[u], scaled(w)))
    return ids, scale, [scaled(instance.tau[v]) for v in ids], into


def _received(into) -> list[list[int]]:
    """`got[i][mask]`: the weight the i-th id receives from the set `mask`, one lowest member at a time."""
    n = len(into)
    got = []
    for pairs in into:
        weight = [0] * n
        for j, w in pairs:
            weight[j] = w
        row = [0] * (1 << n)
        for mask in range(1, 1 << n):
            low = mask & -mask
            row[mask] = row[mask ^ low] + weight[low.bit_length() - 1]
        got.append(row)
    return got


def _members(mask: int, n: int):
    return [i for i in range(n) if mask >> i & 1]


# ------------------------------------------------------------ activation

def activation(instance, seed=(), incentives=None) -> ActivationTrace:
    """The process in rounds, from a seed set or driven by an incentive map.

    Round 0 is the seed plus every vertex whose incentive (0 without an
    incentive map) reaches its threshold. In each later round, every
    inactive vertex whose weight from active (in-)neighbours plus its
    incentive reaches its threshold activates, all at once. The run ends
    with the first round that activates nobody.
    """
    incentives = incentives or {}
    ids, scale, tau, into = _scaled(instance, *incentives.values())
    pay = [incentives.get(v, 0) * scale for v in ids]
    seed = set(seed)
    active = {i for i, v in enumerate(ids) if v in seed or pay[i] >= tau[i]}
    rounds = [active]
    while True:
        new = {i for i in range(len(ids)) if i not in active
               and sum(w for j, w in into[i] if j in active) + pay[i] >= tau[i]}
        if not new:
            break
        rounds.append(new)
        active = active | new
    sets = tuple(frozenset(ids[i] for i in r) for r in rounds)
    return ActivationTrace(sets, frozenset(ids[i] for i in active), len(sets) - 1)


# ------------------------------------------------------------ peeling

def _peel(need, receive, n: int, left: int, present: int):
    """Delete, smallest index first, a member i of the set `left` with need[i] >= receive(i, live), where
    `live` is `present` less what is deleted; returns [(i, slack)] in deletion order and the stuck rest."""
    deleted = []
    while True:
        pick = next((i for i in _members(left, n) if need[i] >= receive(i, present)), None)
        if pick is None:
            return deleted, left
        deleted.append((pick, need[pick] - receive(pick, present)))
        left ^= 1 << pick
        present ^= 1 << pick


def peel(instance, tau=None, among=None, without=None):
    """Reverse peeling of the vertices `among` (every vertex by default).

    Repeatedly deletes the smallest id in `among` whose threshold (`tau`
    overrides the instance's) covers the weight it receives from the
    vertices of `among` not yet deleted. `without` is a pair of ids whose
    edge counts as absent. Returns the deleted vertices mapped to their
    slacks (threshold minus that weight), in deletion order, and the stuck
    rest.
    """
    tau = instance.tau if tau is None else tau
    ids, scale, _, into = _scaled(instance, *tau.values())
    n = len(ids)
    cut = {ids.index(v) for v in without or ()}
    if cut:
        into = [[(j, w) for j, w in pairs if {i, j} != cut] for i, pairs in enumerate(into)]
    left = sum(1 << i for i, v in enumerate(ids) if among is None or v in among)
    deleted, stuck = _peel([tau[v] * scale for v in ids],
                           lambda i, live: sum(w for j, w in into[i] if live >> j & 1), n, left, left)
    return {ids[i]: Fraction(s, scale) for i, s in deleted}, frozenset(ids[i] for i in _members(stuck, n))


def peel_ordering(instance) -> DegeneracyOrdering | NotDegenerate:
    """The reversed deletion order with its slacks, or the stuck set."""
    deleted, stuck = peel(instance)
    if stuck:
        return NotDegenerate(stuck)
    return DegeneracyOrdering(tuple(reversed(deleted)), deleted)


def wastes(instance) -> dict[frozenset[int], Fraction]:
    """For every vertex set S, the least weight a vertex outside S must receive past its threshold.

    Peels the vertices outside S while S stays. If they all go, 0;
    otherwise the least excess, over the stuck rest R, of the weight from S
    and R over the threshold.
    """
    ids, scale, tau, into = _scaled(instance)
    n, got = len(ids), _received(into)
    full = (1 << n) - 1
    least = {}
    for inside in range(1 << n):
        _, stuck = _peel(tau, lambda i, live: got[i][live], n, full ^ inside, full)
        excess = [got[i][inside | stuck] - tau[i] for i in _members(stuck, n)]
        least[frozenset(ids[i] for i in _members(inside, n))] = Fraction(min(excess, default=0), scale)
    return least


def complement_orders(instance, target) -> bool:
    """The complement-ordering check: the vertices outside `target` peel with thresholds d(v) - tau(v)."""
    _unit_degree_preconditions(instance, "the complement-ordering check is defined for undirected instances only")
    stray = set(target) - set(instance.vertices)
    if stray:
        raise Refused("ValueError", f"unknown vertices in target set: {sorted(stray)}")
    degree = _degrees(instance)
    kappa = {v: degree[v] - instance.tau[v] for v in instance.vertices}
    _, stuck = peel(instance, tau=kappa, among=set(instance.vertices) - set(target))
    return not stuck


def _degrees(instance) -> dict[int, int]:
    degree = dict.fromkeys(instance.vertices, 0)
    for _, v, _ in _arcs(instance):
        degree[v] += 1
    return degree


def _unit_degree_preconditions(instance, undirected_only: str) -> None:
    if instance.mode != UNDIRECTED:
        raise Refused("PreconditionError", undirected_only)
    weight = next((w for _, _, w in instance.edges if w != 1), None)
    if weight is not None:
        raise Refused("PreconditionError", f"unit edge weights required, found {weight}")
    _degree_thresholds(instance)


def _degree_thresholds(instance) -> None:
    degree = _degrees(instance)
    for v in sorted(instance.vertices):
        t = instance.tau[v]
        if t.denominator != 1 or not 1 <= t <= degree[v]:
            raise Refused("PreconditionError",
                          f"vertex {v} needs an integer threshold between 1 and its degree, got {t}")


# ------------------------------------------------------------ classes

def is_degenerate(instance) -> bool:
    """Every nonempty vertex set has a member whose threshold covers its weight from the set."""
    ids, _, tau, into = _scaled(instance)
    got = _received(into)
    return all(any(got[i][mask] <= tau[i] for i in _members(mask, len(ids)))
               for mask in range(1, 1 << len(ids)))


def two_level_split(instance) -> list[int]:
    """The vertices at their incident sum, when every other one sits at that sum minus the least weight."""
    mu, total = min_weight(instance), totals(instance)
    for v in sorted(instance.vertices):
        t = instance.tau[v]
        if t != total[v] and t != total[v] - mu:
            raise Refused("PreconditionError", f"vertex {v} has threshold {t}, expected its incident sum "
                                               f"{total[v]} or that sum minus {mu}")
    return [v for v in sorted(instance.vertices) if instance.tau[v] == total[v]]


def is_min_or_full(instance) -> bool:
    mu, total = min_weight(instance), totals(instance)
    return all(instance.tau[v] in (mu, total[v]) for v in instance.vertices)


def components(instance, among=None) -> list[frozenset[int]]:
    """The components of the underlying undirected graph on `among` (every vertex by default), by smallest member."""
    keep = set(instance.vertices if among is None else among)
    comps = [{v} for v in keep]
    for u, v, _ in instance.edges:
        if u in keep and v in keep:
            a = next(c for c in comps if u in c)
            b = next(c for c in comps if v in c)
            if a is not b:
                comps.remove(b)
                a |= b
    return sorted(map(frozenset, comps), key=min)


# ------------------------------------------------------------ oracles

def min_target_set(instance) -> OracleResult:
    """The first seed set, by size and then lexicographically, that activates everything.

    `explored` counts the seed sets tried.
    """
    ids, _, tau, into = _scaled(instance)
    n = len(ids)
    got = _received(into)
    tried = 0
    for k in range(n + 1):
        for combo in combinations(range(n), k):
            tried += 1
            active = sum(1 << i for i in combo)
            while True:
                grown = active | sum(1 << i for i in range(n) if got[i][active] >= tau[i])
                if grown == active:
                    break
                active = grown
            if active == (1 << n) - 1:
                return OracleResult(k, frozenset(ids[i] for i in combo), tried)
    raise AssertionError("the whole vertex set always activates everything")


def _order_costs(instance):
    """(ids, scale, deficit, best): `best[mask]` is the least cost of activating the set `mask` first.

    `deficit(i, before)` is the i-th id's threshold minus its weight from
    the set `before`, clamped at 0: along an order, what it must be paid.
    """
    ids, scale, tau, into = _scaled(instance)
    got = _received(into)

    def deficit(i, before):
        return max(0, tau[i] - got[i][before])

    best = [0] * (1 << len(ids))
    for mask in range(1, 1 << len(ids)):
        best[mask] = min(best[mask ^ 1 << i] + deficit(i, mask ^ 1 << i) for i in _members(mask, len(ids)))
    return ids, scale, deficit, best


def min_target_vector(instance) -> OracleResult:
    """The cheapest activation order, each vertex paid its deficit; of the cheapest, the one whose every
    last vertex has the largest id. The witness lists the payments in activation order."""
    if not instance.vertices:
        return OracleResult(Fraction(0), {}, 0)
    ids, scale, deficit, best = _order_costs(instance)
    n = len(ids)
    steps, mask = [], (1 << n) - 1
    while mask:
        i = max(i for i in _members(mask, n) if best[mask ^ 1 << i] + deficit(i, mask ^ 1 << i) == best[mask])
        mask ^= 1 << i
        steps.append((ids[i], Fraction(deficit(i, mask), scale)))
    return OracleResult(Fraction(best[-1], scale), dict(reversed(steps)), n << (n - 1))


def costs_to_go(instance) -> dict[frozenset[int], Fraction]:
    """For every vertex set S, the least cost of activating the rest once S is active."""
    ids, scale, deficit, _ = _order_costs(instance)
    n = len(ids)
    full = (1 << n) - 1
    rest = [0] * (1 << n)
    for mask in reversed(range(full)):
        rest[mask] = min(deficit(i, mask) + rest[mask | 1 << i] for i in _members(full ^ mask, n))
    return {frozenset(ids[i] for i in _members(mask, n)): Fraction(c, scale) for mask, c in enumerate(rest)}


def min_vertex_cover(instance) -> OracleResult:
    """The first vertex cover of the underlying graph, by size and then lexicographically.

    A set covers every edge when no edge joins two vertices outside it, so
    the least size is n minus the largest number of pairwise non-adjacent
    vertices. That number is grown one at a time until no such set exists;
    then the covers of the least size are tried in lexicographic order.
    `explored` counts the sets tried.
    """
    ids = sorted(instance.vertices)
    n = len(ids)
    at = {v: i for i, v in enumerate(ids)}
    adjacent = [0] * n
    for u, v, _ in instance.edges:
        adjacent[at[u]] |= 1 << at[v]
        adjacent[at[v]] |= 1 << at[u]

    def independent(mask):
        return not any(adjacent[i] & mask for i in _members(mask, n))

    tried = apart = 0
    while apart < n:
        for combo in combinations(range(n), apart + 1):
            tried += 1
            if independent(sum(1 << i for i in combo)):
                apart += 1
                break
        else:
            break
    for combo in combinations(range(n), n - apart):
        tried += 1
        if independent((1 << n) - 1 - sum(1 << i for i in combo)):
            return OracleResult(n - apart, frozenset(ids[i] for i in combo), tried)
    raise AssertionError("some set of the least size covers every edge")


# ------------------------------------------------------------ solvers

def _report(payments, method, certificate) -> SolveReport:
    paid = {v: Fraction(payments[v]) for v in sorted(payments)}
    return SolveReport(paid, sum(paid.values(), Fraction(0)), method, certificate)


def _ordering(deleted) -> str:
    return " ".join(map(str, reversed(deleted)))


def _peeled(instance, **kwargs):
    deleted, stuck = peel(instance, **kwargs)
    if stuck:
        raise Refused("PreconditionError", f"thresholds are not degenerate; peeling sticks on {sorted(stuck)}")
    return deleted


def solve_degenerate(instance) -> SolveReport:
    """Each vertex paid its slack along the peeling order."""
    if instance.mode != UNDIRECTED:
        raise Refused("PreconditionError", "degeneracy is defined for undirected instances only")
    deleted = _peeled(instance)
    return _report(deleted, "degenerate", {"ordering": _ordering(deleted)})


def solve_two_level(instance, removed_edge=None) -> SolveReport:
    """Degenerate when some vertex is at its incident sum; otherwise each vertex paid its slack once the
    minimum-weight edge `removed_edge` (by default the smallest pair of ids) is gone."""
    if instance.mode != UNDIRECTED:
        raise Refused("PreconditionError", "the two-level solver handles undirected instances only")
    if not instance.edges:
        raise Refused("PreconditionError", "the two-level solver needs at least one edge")
    if len(components(instance)) > 1:
        raise Refused("PreconditionError", "the two-level solver requires a connected instance")
    if two_level_split(instance):
        base = solve_degenerate(instance)
        return SolveReport(base.incentives, base.cost, "two-level", {"branch": "degenerate", **base.certificate})
    mu = min_weight(instance)
    candidates = sorted((min(u, v), max(u, v)) for u, v, w in instance.edges if w == mu)
    chosen = candidates[0] if removed_edge is None else (min(removed_edge), max(removed_edge))
    if chosen not in candidates:
        raise Refused("ValueError", f"edge {chosen} is not a minimum-weight edge")
    deleted = _peeled(instance, without=chosen)
    return _report(deleted, "two-level", {"branch": "split", "removed_edge": f"{chosen[0]} {chosen[1]}",
                                          "ordering": _ordering(deleted)})


def solve_min_or_full(instance) -> SolveReport:
    """The least weight mu paid at the smallest member of each component of the vertices at mu, plus w for
    each edge of weight w between two vertices at their incident sums, paid at its smaller end."""
    if instance.mode != UNDIRECTED:
        raise Refused("PreconditionError", "the min-or-full solver handles undirected instances only")
    if not instance.edges:
        raise Refused("PreconditionError", "the min-or-full solver needs at least one edge")
    mu, total = min_weight(instance), totals(instance)
    for v in sorted(instance.vertices):
        if instance.tau[v] not in (mu, total[v]):
            raise Refused("PreconditionError", f"vertex {v} has threshold {instance.tau[v]}, expected the minimum "
                                               f"edge weight {mu} or its incident sum {total[v]}")
    low = {v for v in instance.vertices if instance.tau[v] == mu}
    paid = dict.fromkeys(instance.vertices, Fraction(0))
    low_parts = components(instance, low)
    for part in low_parts:
        paid[min(part)] += mu
    crossing = [(u, v, w) for u, v, w in instance.edges if not (u in low and v in low)]
    for u, v, w in crossing:
        if u not in low and v not in low:
            paid[min(u, v)] += w
    return _report(paid, "min-or-full", {"low_components": str(len(low_parts)), "subdivisions": str(len(crossing)),
                                         "high_vertices": str(len(instance.vertices) - len(low))})


def classify_and_solve(instance) -> SolveReport | None:
    """The first of the degenerate, two-level and min-or-full solvers whose class holds."""
    for solve in (solve_degenerate, solve_two_level, solve_min_or_full):
        try:
            return solve(instance)
        except Refused as refused:
            if refused.kind != "PreconditionError":
                raise
    return None


# ------------------------------------------------------------ reductions

def _complete(source, what: str) -> list:
    """The complete graph on the source's ids: weight n on its edges, 1 on the other pairs."""
    if source.mode != UNDIRECTED:
        raise Refused("PreconditionError", f"{what} takes undirected instances")
    n = len(source.vertices)
    if n < 2:
        raise Refused("PreconditionError", f"{what} needs at least two vertices")
    edge = next((e for e in source.edges if e[2] != 1), None)
    if edge is not None:
        raise Refused("PreconditionError", f"{what} needs unit edge weights, edge ({edge[0]}, {edge[1]}) has {edge[2]}")
    present = {frozenset((u, v)) for u, v, _ in source.edges}
    return [(u, v, Fraction(n if {u, v} in present else 1)) for u, v in combinations(sorted(source.vertices), 2)]


def tss_to_complete(source) -> ReductionReceipt:
    """The complete graph with thresholds times n."""
    edges = _complete(source, "the complete-graph embedding")
    n = len(source.vertices)
    _degree_thresholds(source)
    image = Instance(UNDIRECTED, sorted(source.vertices), edges, {v: n * source.tau[v] for v in source.vertices})
    return ReductionReceipt(image, {"kind": "complete-embedding", "n": str(n), "edge_weight": str(n),
                                    "non_edge_weight": "1", "threshold_factor": str(n)})


def degenerate_to_complete(source) -> ReductionReceipt:
    """The complete graph plus a hub joined to every vertex by weight n, with threshold
    n^2; the other thresholds become n * tau + n."""
    edges = _complete(source, "the hub embedding")
    ids, n = sorted(source.vertices), len(source.vertices)
    for v in ids:
        if source.tau[v].denominator != 1:
            raise Refused("PreconditionError", f"vertex {v} needs a nonnegative integer threshold, got {source.tau[v]}")
    if not is_degenerate(source):
        raise Refused("PreconditionError", "the hub embedding requires degenerate thresholds")
    hub = ids[-1] + 1
    tau = {v: n * source.tau[v] + n for v in ids}
    tau[hub] = Fraction(n * n)
    image = Instance(UNDIRECTED, ids + [hub], edges + [(v, hub, Fraction(n)) for v in ids], tau)
    if not is_degenerate(image):
        raise Refused("VerificationError", "hub embedding lost degeneracy")
    return ReductionReceipt(image, {"kind": "hub-embedding", "n": str(n), "added_vertex": str(hub),
                                    "hub_threshold": str(n * n), "image_degenerate": "true"})


def to_bidirected(source) -> ReductionReceipt:
    """Each edge, smallest pair of ids first, as the arc from its smaller end and then back."""
    if source.mode != UNDIRECTED:
        raise Refused("PreconditionError", "already directed; the bi-directed conversion takes undirected input")
    arcs = []
    for u, v, w in sorted((min(u, v), max(u, v), w) for u, v, w in source.edges):
        arcs += [(u, v, w), (v, u, w)]
    image = Instance(DIRECTED, sorted(source.vertices), arcs, dict(source.tau))
    return ReductionReceipt(image, {"kind": "bidirected", "arc_count": str(len(arcs))})


# ------------------------------------------------------------ strategies

def rationals(top: int, denominators=(1, 2, 7, 9, 11), low: int = 0):
    """Fractions k/d with low <= k <= top: 0 by default included, and denominators whose LCM mixes coprime
    factors."""
    # One draw from the listed pairs: a third cheaper than drawing k and d apart, with the same odds.
    return st.sampled_from([Fraction(k, d) for d in denominators for k in range(low, top + 1)])


WEIGHTS = rationals(12)
THRESHOLDS = rationals(30)  # past a typical incident sum, so both verdicts of most tests occur
# Denominators 5 and 13 never divide an instance's scale.
INCENTIVES = rationals(40, (1, 2, 3, 5, 7, 13, 14))


@st.composite
def graphs(draw, modes=(UNDIRECTED, DIRECTED), min_n=0, max_n=9, weights=WEIGHTS, min_edges=0,
           density=st.integers(0, 10), isolated=False):
    """(mode, ids, edges): unsorted ids with gaps, and edges in any listing order, an undirected one
    with either end first. `modes` may repeat a mode to draw it more often.

    Each pair of ids (ordered, in directed mode) is an edge with a chance
    of a drawn number of tenths (`density`); with `isolated`, a drawn
    number of the last ids get no edge. Only the size, the density, the
    weights and one seed are Hypothesis draws: a `random.Random` on that
    seed picks the ids and the edges, so an example costs a few draws.
    """
    mode = draw(st.sampled_from(modes))
    rng = random.Random(draw(_SEEDS))
    ids = rng.sample(range(1, 61), max_n - draw(st.integers(0, max_n - min_n)))
    linked = ids[:len(ids) - draw(st.integers(0, len(ids)))] if isolated else ids
    pairs = [(u, v) for u in linked for v in linked if u < v or (mode == DIRECTED and u > v)]
    tenths = draw(density)
    chosen = [pair for pair in pairs if rng.randrange(10) < tenths]
    if len(chosen) < min_edges:
        chosen += rng.sample([pair for pair in pairs if pair not in chosen], min_edges - len(chosen))
    rng.shuffle(chosen)
    if mode == UNDIRECTED:
        chosen = [pair[::-1] if rng.random() < 0.5 else pair for pair in chosen]
    return mode, ids, [(u, v, draw(weights)) for u, v in chosen]


_SEEDS = st.integers(0, 2**32 - 1)


@st.composite
def instances(draw, modes=(UNDIRECTED, DIRECTED), min_n=0, max_n=9, weights=WEIGHTS, thresholds=THRESHOLDS,
              **graph):
    """Instances on `graphs` (which takes the keywords in `graph`), each threshold drawn from `thresholds`."""
    mode, ids, edges = draw(graphs(modes, min_n, max_n, weights, **graph))
    return Instance(mode, ids, edges, {v: draw(thresholds) for v in ids})


# Per class pattern, the thresholds a vertex may take, from its incident sum and the least weight;
# None stands for a free draw.
PATTERNS = {
    "two-level": lambda total, mu: [total, total - mu],
    "all-low": lambda total, mu: [total - mu],
    "min-or-full": lambda total, mu: [mu, total],
    "mixed": lambda total, mu: [mu, total, total - mu, Fraction(0), None],
    # Where the target-set search's skip and feasibility cuts apply.
    "cuts": lambda total, mu: [None, Fraction(0), total, total + Fraction(1, 7)],
}


@st.composite
def patterned(draw, patterns=tuple(PATTERNS), modes=(UNDIRECTED,), min_n=1, max_n=10, weights=WEIGHTS,
              free=WEIGHTS, min_edges=0, **graph):
    """Instances whose thresholds sit on a drawn class pattern: each vertex takes one of the pattern's
    values, clamped at 0, where a free one is drawn from `free`. `graphs` takes the keywords in
    `graph`."""
    mode, ids, edges = draw(graphs(modes, min_n, max_n, weights, min_edges, **graph))
    graph = SimpleNamespace(mode=mode, vertices=ids, edges=edges, tau=dict.fromkeys(ids, 0))
    mu = min_weight(graph) if edges else Fraction(0)
    total = totals(graph)
    options = PATTERNS[draw(st.sampled_from(patterns))]
    tau = {}
    for v in ids:
        t = draw(st.sampled_from(options(total[v], mu)))
        tau[v] = max(draw(free) if t is None else t, Fraction(0))
    return Instance(mode, ids, edges, tau)
