"""Exhaustive ground-truth solvers for small instances.

These are the reference answers the polynomial-time algorithms are tested
against. Hot loops run on the instance's integer view (`Instance.compiled`),
where every rational is scaled by the common denominator, so they stay exact.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from operator import or_

from .degeneracy import _peel
from .engine import _activates_all
from .errors import OracleLimitError, VerificationError
from .instance import CompiledInstance, Instance, VertexSet, _fraction, _subset_weights

TARGET_SET_LIMIT = 20
TARGET_VECTOR_LIMIT = 9
# The target-vector DP allocates one 2^n-entry table of subset costs before
# any work, at 8-40 bytes per entry: 34-170 MB for n = 22. Its subset weight
# tables add n * (2^(n//2) + 2^(n - n//2)) entries, about 90k at n = 22.
# No `limit` argument lifts it.
TARGET_VECTOR_CEILING = 22
# The closed-set search gives up for the DP once it stores more than this
# share of the 2^k sets of the k-vertex core it searches (see
# `exact_min_target_vector`). The shares below were measured on whole
# instances, before the oracle peeled first. Of 200 instances at n = 14
# (seeds 1-100 each of the degenerate family and of uniform thresholds on
# connected graphs, edge probability 0.3, halves weights), none falls back,
# nor at half this share; at a quarter, 5 would. On sparse connected graphs
# (edge probability 0.2, halves weights) with uniform or capped thresholds,
# seeds 1-40 at n = 10-14, 1-20 at 16 and 1-10 at 18, none of the 220 at
# n = 12-18 falls back, expanding at most 350 sets; at n = 10, where the
# share is 64 sets, 10 of 80 do, and the DP there is 5,120 pairs.
# Saturated (tau = incident weight), two-level and all-low thresholds,
# where nearly every set is closed, stay far below it: at n = 22 (seeds
# 1-3) the search expands 16, 15-19 and 22-96 sets. Peeled first, the 200
# instances at n = 14 leave 120 empty cores and 80 of 2-14 vertices; 25
# fall back, all on cores of at most 7 vertices, where the share is at
# most 8 sets and the DP at most 448 pairs.
_SEARCH_BUDGET = 1 / 16
# The largest multiple of 10 at which the slowest of five seeds each of
# G(n, p), p in {0.1, 0.2, 0.3, 0.5, 0.8}, and the cubic family stays under
# 50 ms (Python 3.11, one Xeon core): 30-41 ms at n = 60, 61-78 ms at n = 70.
VERTEX_COVER_LIMIT = 60


@dataclass(frozen=True)
class OracleResult:
    """Exact optimum, a witness achieving it, and how much work was done."""

    optimum: Fraction | int
    witness: VertexSet | dict[int, Fraction]
    explored: int


def exact_min_target_set(instance: Instance, limit: int = TARGET_SET_LIMIT) -> OracleResult:
    """Lexicographically smallest minimum seed set, by a depth-first branch and bound.

    Works in both modes. The search runs on an explicit stack over bitmasks
    of the positions 0..n-1, which ascend with the ids. A node holds the
    next position to decide, the seed taken so far, the seed's closure and
    its size; it takes the position before it leaves it out. Closure is
    monotone, which makes five cuts sound:

    - success: a seed whose closure is everything ends its branch;
    - size bound: a branch stops once its size plus one reaches the best
      seed found, since it can only find seeds at least that large;
    - skip: a position inside the current closure is never taken, since
      taking it leaves the closure as it is, so a seed holding it is not
      minimum (this covers tau = 0);
    - feasibility: leaving a position out is tried only if the closure of
      the current closure plus every later position outside it is
      everything (a threshold above the vertex's incoming total puts it in
      every seed);
    - forced pairs: u needs j when w(j -> u) exceeds u's incoming total
      minus tau(u), and u and j form a forced pair when each needs the
      other. Outside a seed, neither can activate first, so every seed
      holds one of them. A position the node left out that is not yet
      active must still activate, so each undecided position outside the
      closure that forms a pair with it must be taken; a greedy matching of
      pairs among the other undecided positions outside the closure needs
      one more seed per pair (`_forced_bound`). A branch stops once its
      size plus these seeds reaches the best seed found.

    A minimum seed meets none of the skip, feasibility and success cuts on
    its own path, and the bounds stop only branches that hold no seed
    smaller than the best. Taking before leaving out visits the seeds of one
    size in lexicographic order, and the bounds keep only strictly smaller
    seeds once one is found, so the witness is the lexicographically
    smallest minimum seed. On saturated thresholds (tau = incident weight,
    positive weights) the seeds are the vertex covers, and the forced-pair
    bound is the vertex-cover oracle's matching bound.

    Short searches do not pay for the pair rows: they are built, in one
    pass over the lists, once the search has popped more than 4n nodes, a
    few root-to-leaf descents, and the bound is skipped when there is no
    pair or when the node's undecided paired positions are too few to
    reach the best. `explored` counts the nodes popped from the stack. The
    engine checks the witness's positions on the integer view.
    """
    n = instance.n
    if n > limit:
        raise OracleLimitError(f"{n} vertices exceeds the target-set oracle limit of {limit}")
    view = instance.compiled
    thresholds = view.tau
    h, lo, hi = _subset_weights(view)
    raises = _raises(view)
    everyone = (1 << n) - 1
    best, found = n + 1, 0
    stack = [(0, 0, _close(lo, hi, thresholds, raises, h, 0, everyone), 0)]
    explored = 0
    # Forced-pair rows, built once the search has popped more than `ready` nodes.
    forced, paired, ready = None, 0, 4 * n
    while stack:
        i, seed, closed, size = stack.pop()
        explored += 1
        if closed == everyone:
            # Only a take can succeed, as a leave-out keeps its parent's
            # closure. It is popped right after its parent pushed it below
            # the bound, so it is smaller than the best.
            best, found = size, seed
            continue
        if size + 1 >= best:
            continue
        if explored > ready:
            if forced is None:
                forced = _forced_pairs(view)
                paired = reduce(or_, forced, 0)
                if not paired:
                    ready = 2 << n  # never: a search pops fewer than 2^(n+1) nodes
            # Each seed the bound counts is a distinct undecided position of some pair.
            free = everyone >> i << i & ~closed
            if (size + (free & paired).bit_count() >= best
                    and size + _forced_bound(forced, (1 << i) - 1 & ~closed & paired, free) >= best):
                continue
        # The closure of the closure plus every later position outside it is
        # everything at every node, so a position outside remains.
        while closed >> i & 1:
            i += 1
        bit = 1 << i
        later = everyone >> (i + 1) << (i + 1) & ~closed
        if _close(lo, hi, thresholds, raises, h, closed | later,
                  everyone & ~(closed | later)) == everyone:
            stack.append((i + 1, seed, closed, size))
        stack.append((i + 1, seed | bit, _close(lo, hi, thresholds, raises, h, closed | bit,
                                                raises[i] & ~closed), size + 1))
    if not _activates_all(view, [i for i in range(n) if found >> i & 1], thresholds):
        raise VerificationError("oracle witness failed engine verification")
    witness = frozenset(v for i, v in enumerate(instance.vertices) if found >> i & 1)
    return OracleResult(best, witness, explored)


def _forced_pairs(view: CompiledInstance) -> list[int]:
    """Per position u, the bitmask of positions j such that u and j each need the other.

    u needs j when w(j -> u) exceeds u's gap, its incoming total minus its
    threshold: without j, u cannot reach its threshold. The rows are
    symmetric, and an undirected view needs one pass over its lists.
    """
    gap = [s - t for t, s in zip(view.tau, view.totals)]
    if view.incoming is view.out:
        return [sum(1 << j for j, w in pairs if w > g and w > gap[j]) for pairs, g in zip(view.out, gap)]
    # u needs the j of `incoming[u]`; the j of `out[u]` need u.
    return [sum(1 << j for j, w in into if w > g) & sum(1 << j for j, w in out if w > gap[j])
            for into, out, g in zip(view.incoming, view.out, gap)]


def _forced_bound(forced: list[int], left_out: int, free: int) -> int:
    """A lower bound on the seeds a search node still takes, from its forced pairs.

    `left_out` holds positions the node left out that are not yet active,
    and `free` its undecided positions outside the closure. A forced pair
    with no seed cannot activate, since neither can be active first. So a
    free partner of a left-out position must be taken, and a greedy matching
    of forced pairs among the other free positions needs one seed per pair.
    """
    must = 0
    while left_out:
        bit = left_out & -left_out
        left_out ^= bit
        must |= forced[bit.bit_length() - 1]
    must &= free
    return must.bit_count() + _matching(forced, free & ~must)


def _raises(view: CompiledInstance) -> list[int]:
    """Per position, the bitmask of positions whose received weight its activation raises."""
    return [sum(1 << j for j, w in pairs if w) for pairs in view.out]


def _close(lo: list[list[int]], hi: list[list[int]], thresholds: tuple[int, ...],
           raises: list[int], h: int, active: int, todo: int) -> int:
    """The closure of the bitmask `active`, given every inactive position that may activate.

    `todo` holds the positions outside `active` whose received weight may
    now reach their threshold; lo and hi are `_subset_weights` tables and
    `raises` comes from `_raises`. Activation only raises weights, so one
    pass over a worklist of positions whose weight went up reaches the
    closure in any order.
    """
    low_mask = (1 << h) - 1
    while todo:
        bit = todo & -todo
        todo ^= bit
        j = bit.bit_length() - 1
        if lo[j][active & low_mask] + hi[j][active >> h] >= thresholds[j]:
            active |= bit
            todo |= raises[j] & ~active
    return active


def _waste(lo: list[list[int]], hi: list[list[int]], thresholds: tuple[int, ...],
           raises: list[int], h: int, inside: int, outside: int) -> int:
    """A lower bound on the weight `outside` receives past its thresholds once `inside` is active.

    Peels `outside`, the positions not in the bitmask `inside`: a position
    is dropped while its threshold covers the weight it receives from
    every position not yet dropped, `inside` included, with `_close`'s
    worklist. If all of `outside` drops, 0. Otherwise the positions left,
    R, each receive more than their threshold from `inside` and the rest
    of R, and the result is the least such excess over R. In any order the
    last member of R to activate receives at least that weight, so at
    least this much is wasted.
    """
    low_mask = (1 << h) - 1
    alive = inside | outside
    todo = outside
    while todo:
        bit = todo & -todo
        todo ^= bit
        j = bit.bit_length() - 1
        if lo[j][alive & low_mask] + hi[j][alive >> h] <= thresholds[j]:
            alive ^= bit
            todo |= raises[j] & alive & outside
    stuck = alive & outside
    s, t = alive & low_mask, alive >> h
    least = 0  # every stuck excess is positive, so 0 means none yet
    while stuck:
        bit = stuck & -stuck
        stuck ^= bit
        j = bit.bit_length() - 1
        excess = lo[j][s] + hi[j][t] - thresholds[j]
        if not least or excess < least:
            least = excess
    return least


def exact_min_target_vector(instance: Instance, limit: int = TARGET_VECTOR_LIMIT) -> OracleResult:
    """Exact minimum-cost incentive vector.

    Minimizes, over all activation orders, the summed per-vertex deficit
    (threshold minus weight from earlier neighbors, clamped at zero). The
    deficit depends only on the set of earlier vertices, so any order
    realizes its cost as a valid vector, and any target vector linearized by
    activation rounds costs at least some order: the cheapest order is the
    optimum.

    At every size the instance is peeled first where influence is
    symmetric: in undirected mode, and on a digraph whose arcs pair up with
    equal opposite arcs. Suppose tau(v) is at least the weight v receives
    from the vertices still present. Then v's deficit is never clamped,
    wherever v stands, and moving v past a later neighbour u lowers v's
    payment by w(uv) and raises u's by at most w(uv). So some optimal order
    puts v last, and the optimum is v's slack plus the optimum without v.
    Repeating this is the degeneracy test's peeling (`degeneracy._peel`),
    here largest id first: the optimum is the sum of the slacks plus the
    optimum of the core, the positions left stuck, whatever the order.

    A degenerate instance leaves no core and needs no tables: the witness is
    the reverse deletion order, each vertex paid its slack, and `explored`
    is 0. It is also the dynamic program's witness below. On a degenerate
    instance the optimum of every vertex set S is tau(S) - W(S), W(S) the
    weight inside S, so the program's walk-back takes, of the vertices left,
    the largest whose threshold covers the weight it receives from the
    others: the one the peel deletes next. The answer is certified without
    trusting the peel. Every payment is nonnegative, the engine accepts the
    vector, and its cost is tau(V) - W(V). No vector costs less on a
    symmetric view: along an activation order each vertex is paid at least
    its threshold minus the weight it receives from earlier vertices, and
    each edge gives its weight to one endpoint only. A failed check raises
    `VerificationError`.

    Up to `TARGET_VECTOR_LIMIT` vertices any other instance goes whole to a
    dynamic program over all vertex subsets (`_subset_dp`). Of the optimal
    orders, the witness follows the one whose every last vertex has the
    largest id, and `explored` is n * 2^(n-1), the number of (set, last
    vertex) pairs. Above that limit only the core is searched. The witness
    is the core's order, then the peeled vertices in reverse deletion order,
    each paid its slack. Other digraphs keep the whole instance as their
    core.

    On the core a best-first search over the sets closed under free
    activation runs first (`_closed_set_search`). Where influence is
    symmetric, its estimate counts the weight some vertex outside a set must
    receive past its threshold when the rest does not peel. Its witness is
    some optimal vector, in general not the dynamic program's: it pays each
    vertex on the cheapest path its deficit and gives 0 to every vertex that
    then activates for free, and `explored` counts the closed sets expanded,
    not the sets pushed again when their estimate rose. If the search stores
    more than `_SEARCH_BUDGET` of the 2^k sets of a k-vertex core, it gives
    up and the dynamic program answers on the core with its own order;
    `explored` is then the sets the search expanded plus k * 2^(k-1).
    Every witness lists every vertex, in activation order; its scaled
    payments are checked for sign, against the optimum and by the engine.
    """
    n = instance.n
    limit = min(limit, TARGET_VECTOR_CEILING)
    if n > limit:
        raise OracleLimitError(f"{n} vertices exceeds the target-vector oracle limit of {limit}")
    if n == 0:
        return OracleResult(Fraction(0), {}, 0)
    view = instance.compiled
    order, cost, explored = _peel_and_search(view)
    paid = dict(order)
    if min(paid.values()) < 0:
        raise VerificationError("oracle witness pays a negative incentive")
    if sum(paid.values()) != cost or not _activates_all(view, (), [t - paid.get(i, 0) for i, t in enumerate(view.tau)]):
        raise VerificationError("oracle witness failed engine verification")
    verts = instance.vertices
    witness = {verts[i]: _fraction(d, view.scale) for i, d in order}
    return OracleResult(Fraction(cost, view.scale), witness, explored)


def _symmetric(view: CompiledInstance) -> bool:
    """Whether each position receives from every other the weight it gives it, as in undirected mode."""
    # An undirected view shares one list for in and out neighbours (`_integer_view`); a symmetric
    # digraph has equal lists, which takes longer to see.
    return view.incoming is view.out or list(map(sorted, view.out)) == list(map(sorted, view.incoming))


def _peel_and_search(view: CompiledInstance) -> tuple[list[tuple[int, int]], int, int]:
    """The cheapest order: (order, scaled cost, explored); see `exact_min_target_vector`.

    Peels a symmetric view, largest position first, and returns a complete
    peel once its cost meets the edge-counting lower bound. Otherwise the
    program runs on the whole view up to `TARGET_VECTOR_LIMIT` positions;
    above it, only the core, the positions left stuck, is searched, as an
    undirected view of its own, and the peeled positions follow in reverse
    deletion order, each paid its slack.
    """
    n = len(view.tau)
    core, keep, peeled = view, range(n), []
    if _symmetric(view):
        alive = [True] * n
        slacks = _peel(view, view.tau, list(view.totals), alive, largest_first=True)
        peeled = [(i, slacks[i]) for i in reversed(slacks)]
        if len(peeled) == n:
            cost = sum(slacks.values())
            # No vector on a symmetric view costs less: each edge gives its weight to one endpoint.
            if cost != sum(view.tau) - sum(view.totals) // 2:
                raise VerificationError("peeled witness misses the edge-counting lower bound")
            return peeled, cost, 0
    if n <= TARGET_VECTOR_LIMIT:
        return *_subset_dp(view, *_subset_weights(view, _dp_split(n))), n << (n - 1)
    if peeled:
        keep = [i for i in range(n) if alive[i]]
        core = _induced(view, keep)
    # The search and its fallback share the smallest tables.
    tables = _subset_weights(core)
    found, explored = _closed_set_search(core, *tables)
    if found is None:
        k = len(keep)
        found = _subset_dp(core, *tables)
        explored += k << (k - 1)
    order, cost = found
    return [(keep[i], d) for i, d in order] + peeled, cost + sum(d for _, d in peeled), explored


def _induced(view: CompiledInstance, keep: list[int]) -> CompiledInstance:
    """The symmetric `view` restricted to the ascending positions `keep`, renumbered from 0.

    One list per position serves as both its in and out neighbours, as in an
    undirected view.
    """
    at = dict(zip(keep, range(len(keep))))
    ids = list(view.position)
    lists = [[(at[j], w) for j, w in view.incoming[i] if j in at] for i in keep]
    return CompiledInstance(view.scale, {ids[i]: c for i, c in at.items()},
                            tuple(map(view.tau.__getitem__, keep)), lists, lists)


def _dp_split(n: int) -> int:
    """The low half's size when `_subset_dp` runs alone: n - n // 3 positions, so 2^(n // 3) rows."""
    return n - n // 3


def _subset_dp(view: CompiledInstance, h: int, lo: list[list[int]],
               hi: list[list[int]]) -> tuple[list[tuple[int, int]], int]:
    """The cheapest order by a dynamic program over every vertex subset.

    Returns the (position, scaled payment) pairs in activation order and
    their scaled sum. The program examines each of the n * 2^(n-1) pairs of
    a set and its last vertex once, at two table lookups each: O(n * 2^n)
    time and 2^n costs of memory. It fills the sets row by row, a row being
    the 2^h sets that share their high positions. Candidates whose last
    vertex is high come from earlier rows, a whole row at a time; those
    whose last vertex is low come from earlier sets of the same row.

    The split h trades a fixed cost per row against dearer pairs. Fitted
    over the two-level sweep's instances at n = 6-9 (every h, Python
    3.11): about 5.4 us per row, 0.04 us per pair read in a row at a time
    and 0.18 us per pair in the per-set loop. So `exact_min_target_vector`
    passes `_dp_split(n)` where this program runs alone, 2^(n//3) rows:
    at n = 9, 8 rows of 64 sets instead of 32 of 16. The search's fallback
    keeps the search's n // 2 tables. Any split gives the same costs, and
    the walk-back the same order.
    """
    thresholds = view.tau
    n = len(thresholds)
    width = 1 << h
    earlier = [[(s ^ 1 << j, j) for j in range(h) if s >> j & 1] for s in range(width)]
    best = [0] * (1 << n)
    for t in range(1 << (n - h)):
        row = None
        for k in range(n - h):
            if t >> k & 1:
                i, prev = h + k, t ^ 1 << k
                need = thresholds[i] - hi[i][prev]
                start = prev << h
                cand = [b + d if (d := need - w) > 0 else b
                        for b, w in zip(best[start:start + width], lo[i])]
                row = cand if row is None else list(map(min, row, cand))
        if row is None:
            # The first row. Only the empty set has a cost yet; the others
            # start above any cost, which sums at most every threshold.
            row = [0] + [sum(thresholds) + 1] * (width - 1)
        needs = [thresholds[j] - hi[j][t] for j in range(h)]
        for s in range(1, width):
            got = row[s]
            for prev, j in earlier[s]:
                d = needs[j] - lo[j][prev]
                c = row[prev] + d if d > 0 else row[prev]
                if c < got:
                    got = c
            row[s] = got
        best[t << h:(t + 1) << h] = row

    def deficit(i: int, before: int) -> int:
        d = thresholds[i] - lo[i][before & (width - 1)] - hi[i][before >> h]
        return d if d > 0 else 0

    # Walk back from the full set. Of the last vertices that reach a set's
    # optimum, take the largest position, so the largest id: that rule fixes
    # which optimal order, and so which witness, the reports print.
    steps: list[tuple[int, int]] = []
    mask = (1 << n) - 1
    while mask:
        for i in reversed(range(n)):
            before = mask ^ 1 << i
            if mask >> i & 1 and best[before] + deficit(i, before) == best[mask]:
                break
        else:
            raise VerificationError("no last vertex reaches the subset optimum")
        steps.append((i, deficit(i, before)))
        mask = before
    return steps[::-1], best[-1]


def _closed_set_search(view: CompiledInstance, h: int, lo: list[list[int]],
                       hi: list[list[int]]) -> tuple[tuple[list[tuple[int, int]], int] | None, int]:
    """The cheapest order by best-first search over sets closed under free activation.

    A deficit never grows as the set of earlier vertices grows, so moving a
    vertex of deficit 0 earlier never raises an order's cost: some optimal
    order passes only through closed sets, those with no vertex outside
    that the set alone activates. The search starts from the closure of the
    empty set; from a closed set S, paying a vertex i outside S its deficit
    leads to the closure S' of S + {i}. A stored set keeps only its cost,
    its parent and the vertex paid; when it is expanded, the weight each
    vertex receives from it is two lookups in the subset weight tables.

    The cost still to come is estimated (A*) by the larger of two bounds:

    - the sum of max(0, tau(i) - total(i)) over the vertices outside S,
      which nothing but payment covers;
    - in undirected mode, T(S) + waste(S). Here T(S) = tau(V - S) - W +
      W(S), where W is the total edge weight and W(S) the weight of the
      edges inside S. Each edge not inside S gives its weight to the later
      of its endpoints, so along any order of the vertices outside S the
      deficits sum to T(S), and the cost, their sum clamped at 0, is T(S)
      plus the weight the vertices receive past their thresholds.
      waste(S) (`_waste`) is a least such weight: if the vertices outside
      S peel, it is 0, and the reverse peeling order wastes nothing, so
      the estimate is exact; otherwise the last stuck vertex to activate
      receives at least its weight from S and the other stuck vertices.

    Both bounds are admissible, never above the cheapest cost still to
    come, so the first time the full set is popped its cost is optimal. The
    waste term need not be consistent, so a set may be reached again, more
    cheaply, after it was expanded: it is then stored and pushed again, and
    a popped set costlier than its stored cost is stale. Successors are
    pushed with the first bound and T alone. The first time an entry is
    popped, its waste is computed; if that raises the estimate, the entry
    is pushed again with it instead of being expanded, so only sets about
    to be expanded pay for a peel, and `expanded` counts expansions only.

    T is kept incrementally. Summed over the vertices that S' adds in the
    order the closure activates them, the deficits of that order telescope
    to T(S) - T(S'). W(S') - W(S) is half the sum, over the vertices S'
    adds, of the weight each receives from S and from S'. In directed mode
    T(S) would be the sum of tau(i) - total(i) outside S, never above the
    first bound, and nothing telescopes, so weight received past a
    threshold bounds no cost: only the first bound is used. A digraph in
    which every arc u -> v of weight w has an arc v -> u of weight w, such
    as the bidirected image of an undirected instance, counts as undirected:
    each vertex receives from every set exactly the weight it receives in
    the undirected graph with one edge per such pair, so the two activate
    alike, their deficits, orders and costs coincide, and the total arc
    weight is twice that graph's W, which is what the totals sum to in
    undirected mode too.

    Returns ((order, cost), expanded) like `_subset_dp`, with every free
    vertex paid 0 right after the payment that activates it. Once it stores
    more than `_SEARCH_BUDGET` of the 2^n sets it returns (None, expanded),
    and its sets are freed before the caller runs the program.
    """
    thresholds = view.tau
    n = len(thresholds)
    low_mask = (1 << h) - 1
    everyone = (1 << n) - 1
    budget = int((1 << n) * _SEARCH_BUDGET)
    excess = [t - s if t > s else 0 for t, s in zip(thresholds, view.totals)]
    raises = _raises(view)
    undirected = _symmetric(view)

    def drop(before: int, after: int) -> int:
        """T(before) - T(after), for a set `after` that holds `before`."""
        s, t, s2, t2 = before & low_mask, before >> h, after & low_mask, after >> h
        # Even: the weight between two added vertices is counted at both.
        twice = 0
        added = after ^ before
        while added:
            bit = added & -added
            added ^= bit
            j = bit.bit_length() - 1
            twice += 2 * thresholds[j] - lo[j][s] - hi[j][t] - lo[j][s2] - hi[j][t2]
        return twice >> 1

    start = _close(lo, hi, thresholds, raises, h, 0, everyone)
    rest = sum(excess)
    gap = sum(thresholds) - sum(view.totals) // 2 - drop(0, start) if undirected else 0
    est = max(rest, gap)
    stored = {start: (0, None, -1)}
    # (cost + estimate, estimate, set, excess bound, T, waste counted): of
    # equal totals, the set with the smaller estimate, so the one nearer the
    # full set, comes first.
    heap = [(est, est, start, rest, gap, False)]
    expanded = 0
    while heap:
        if len(stored) > budget:
            return None, expanded
        f, est, mask, rest, gap, counted = heapq.heappop(heap)
        cost = f - est
        if mask == everyone:
            break
        if cost > stored[mask][0]:
            continue
        if undirected and not counted:
            raised = gap + _waste(lo, hi, thresholds, raises, h, mask, everyone ^ mask)
            if raised > est:
                heapq.heappush(heap, (cost + raised, raised, mask, rest, gap, True))
                continue
        expanded += 1
        s, t = mask & low_mask, mask >> h
        outside = everyone ^ mask
        while outside:
            bit = outside & -outside
            outside ^= bit
            i = bit.bit_length() - 1
            # i's deficit, positive because S is closed and i is outside it.
            d = thresholds[i] - lo[i][s] - hi[i][t]
            step = cost + d
            nxt = _close(lo, hi, thresholds, raises, h, mask | bit, raises[i] & ~mask)
            old = stored.get(nxt)
            if old is not None and step >= old[0]:
                continue
            stored[nxt] = (step, mask, i)
            left = rest - excess[i]
            after = gap
            if undirected:
                after -= d if nxt == mask | bit else d + drop(mask | bit, nxt)
            est = left if left > after else after
            heapq.heappush(heap, (step + est, est, nxt, left, after, False))
    path = [mask]
    while mask != start:
        mask = stored[mask][1]
        path.append(mask)
    order: list[tuple[int, int]] = []
    done = 0
    for mask in reversed(path):
        cost, parent, i = stored[mask]
        if parent is not None:
            order.append((i, cost - stored[parent][0]))
            done |= 1 << i
        order.extend((j, 0) for j in range(n) if (mask ^ done) >> j & 1)
        done = mask
    return (order, cost), expanded


def grid_min_target_vector(instance: Instance) -> OracleResult:
    """Brute-force optimum over integer incentive vectors with 0 <= p(v) <= tau(v).

    Sound only for integer weights and thresholds: some optimal vector is then
    integral, and paying more than a vertex's own threshold never helps. Kept
    deliberately independent of the order-based oracle so the two can
    cross-check each other.
    """
    view = instance.compiled
    # The scale is the LCM of the reduced denominators, so 1 only when every value is an integer.
    if view.scale != 1:
        for v in instance.vertices:
            if instance.tau[v].denominator != 1:
                raise ValueError(f"integer thresholds required, vertex {v} has {instance.tau[v]}")
        u, v, w = next(e for e in instance.edges if e[2].denominator != 1)
        raise ValueError(f"integer weights required, edge ({u}, {v}) has {w}")
    n = instance.n
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
    # Each kept combination passed the engine, and p = tau always does: none means a faulty engine.
    if best_vec is None:
        raise VerificationError("grid witness failed engine verification")
    witness = {verts[i]: Fraction(best_vec[i]) for i in range(n)}
    return OracleResult(Fraction(best_cost), witness, explored)


def _matching(adj: list[int], alive: int) -> int:
    """Size of a greedy maximal matching in the graph induced on `alive`.

    Every edge of a matching needs its own cover vertex, so this is a lower
    bound on the size of any vertex cover.
    """
    matched = 0
    free = alive
    while free:
        low = free & -free
        free ^= low
        nbrs = adj[low.bit_length() - 1] & free
        if nbrs:
            free ^= nbrs & -nbrs
            matched += 1
    return matched


def _min_cover(adj: list[int], alive: int, best: int, enough: int) -> tuple[int | None, int]:
    """A minimum vertex cover of the graph induced on `alive`, if it has fewer than `best` vertices.

    `adj[i]` is the neighbour bitmask of position i. Returns (cover, nodes):
    cover is the bitmask of the smallest cover found with fewer than `best`
    vertices, or None if there is none, and nodes counts the search nodes
    visited. The search stops as soon as it finds a cover of at most
    `enough` vertices.
    """
    found = None
    stack = [(alive, 0, 0)]
    nodes = 0
    while stack:
        alive, cover, size = stack.pop()
        nodes += 1
        # Delete isolated vertices and take the neighbour of each degree-1
        # vertex until neither applies; note a vertex of maximum degree.
        while True:
            reduced = False
            top = top_degree = 0
            rest = alive
            while rest:
                low = rest & -rest
                rest ^= low
                if not alive & low:
                    continue
                nbrs = adj[low.bit_length() - 1] & alive
                degree = nbrs.bit_count()
                if degree == 0:
                    alive ^= low
                elif degree == 1:
                    alive &= ~(low | nbrs)
                    cover |= nbrs
                    size += 1
                    reduced = True
                elif degree > top_degree:
                    top, top_degree = low, degree
            if not reduced:
                break
        if size >= best:
            continue
        if not alive:
            best, found = size, cover
            if best <= enough:
                break
            continue
        if size + _matching(adj, alive) >= best:
            continue
        nbrs = adj[top.bit_length() - 1] & alive
        stack.append((alive & ~(top | nbrs), cover | nbrs, size + top_degree))
        stack.append((alive ^ top, cover | top, size + 1))
    return found, nodes


def exact_min_vertex_cover(instance: Instance, limit: int = VERTEX_COVER_LIMIT) -> OracleResult:
    """Lexicographically smallest minimum vertex cover, by a bounded search tree.

    Directed instances are covered on the underlying undirected graph. The
    search runs on an explicit stack over bitmasks of the vertices. Each
    node first deletes isolated vertices and takes the neighbour of every
    degree-1 vertex, until neither applies. It prunes when the vertices
    taken plus a greedy maximal matching on the remaining edges reach the
    best cover found so far. Otherwise it branches on a vertex v of maximum
    degree: take v, or take all of N(v).

    Once the optimum is known, the witness is built over ascending vertex
    ids. A vertex with edges left is taken if the rest of the graph has a
    cover one smaller than what is left to spend, and otherwise left out,
    which puts all its remaining neighbours in the cover. That gives the
    lexicographically smallest minimum cover. Two cases need no search:
    the last minimum cover found holds the vertex, or a matching in the
    rest already has as many edges as there is left to spend. `explored` is
    the number of search nodes, summed over the search for the optimum and
    every search of the witness construction.
    """
    n = instance.n
    if n > limit:
        raise OracleLimitError(f"{n} vertices exceeds the vertex-cover oracle limit of {limit}")
    view = instance.compiled
    adj = [sum(1 << j for j, _ in pairs) for pairs in view.out]
    if view.incoming is not view.out:  # an undirected view shares one list for both
        adj = [mask | sum(1 << j for j, _ in inc) for mask, inc in zip(adj, view.incoming)]
    alive = (1 << n) - 1
    # All n vertices always cover, so a cover below n + 1 is always found;
    # one as small as the matching bound is a minimum one.
    cover, explored = _min_cover(adj, alive, n + 1, _matching(adj, alive))
    optimum = left = cover.bit_count()
    chosen = 0
    for i in range(n):
        if not left:
            break
        bit = 1 << i
        nbrs = adj[i] & alive
        if not alive & bit or not nbrs:
            continue
        # `cover` restricted to `alive` is a minimum cover of what is left.
        alive ^= bit
        if not cover & bit and _matching(adj, alive) < left:
            found, nodes = _min_cover(adj, alive, left, left - 1)
            explored += nodes
            if found is not None:
                cover = found | bit
        if cover & bit:
            chosen |= bit
            left -= 1
        else:
            chosen |= nbrs
            left -= nbrs.bit_count()
            alive &= ~nbrs
    witness: VertexSet = frozenset(v for i, v in enumerate(instance.vertices) if chosen >> i & 1)
    # Every position outside the cover has all its neighbours in it.
    if len(witness) != optimum or any(adj[i] & ~chosen for i in range(n) if not chosen >> i & 1):
        raise VerificationError("oracle witness is not a vertex cover")
    return OracleResult(optimum, witness, explored)
