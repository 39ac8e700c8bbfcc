"""Exact-arithmetic model of weighted threshold instances.

An instance is a simple graph (undirected or directed), a non-negative
rational weight per edge, and a non-negative rational threshold per vertex.
The work runs on one integer view per instance (`Instance.compiled`: every
value times the LCM of the denominators); Fractions appear only at the
boundary, in what callers pass in and get back. Nothing in the package
touches floating point, so threshold comparisons are exact and reproducible.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import chain
from operator import gt, itemgetter
from types import MappingProxyType
from typing import Mapping

from .errors import OracleLimitError, ValidationError

UNDIRECTED = "undirected"
DIRECTED = "directed"

Edge = tuple[int, int, Fraction]
VertexSet = frozenset[int]

_RATIONAL = re.compile(r"([+-]?\d+)(?:/(\d+))?")
_EXACT = (Fraction, int)
# Instances built, and files parsed, in a row mostly share their few values; Fraction's own
# constructor is slow.
_fraction = lru_cache(maxsize=256)(Fraction)


def parse_rational(text: str) -> Fraction:
    """Parse `int` or `int/int` into an exact Fraction.

    Decimal notation is rejected on purpose: values written as "3/2" must
    survive a round trip without ever becoming "1.5".
    """
    return _fraction(*_rational_pair(text))


def _rational_pair(text: str) -> tuple[int, int]:
    """`parse_rational(text)` as its numerator and denominator, with the same ValueErrors."""
    match = _RATIONAL.fullmatch(text)
    if match is None:
        raise ValueError(f"not an integer or integer/integer rational: {text!r}")
    num, den = match.groups()
    try:
        num, den = int(num), int(den or 1)
    except ValueError:  # more digits than the interpreter converts
        digits = max(len(num.lstrip("+-")), len(den or ""))
        raise ValueError(f"integer of {digits} digits is too long") from None
    if den == 0:
        raise ValueError(f"zero denominator: {text!r}")
    return _reduced(num, den)


def _reduced(num: int, den: int) -> tuple[int, int]:
    g = math.gcd(num, den)
    return num // g, den // g


def format_rational(value: Fraction) -> str:
    return str(value)


def _coerce(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str):
        return parse_rational(value)
    raise TypeError(f"expected int, str or Fraction, got {type(value).__name__}")


@dataclass(frozen=True, eq=False)
class Instance:
    """An edge-weighted graph with per-vertex activation thresholds.

    `mode` is "undirected" or "directed". In directed mode an edge (u, v, w)
    is an arc from u to v: its weight counts toward activating v only.
    Construction checks every invariant (see `validate`) and raises
    ValidationError on the first violation, so every Instance is valid.
    `vertices` is stored ascending, so position i is the i-th smallest id.
    `vertices` and `edges` are tuples and `tau` is a read-only mapping
    (copied from the caller's), so instances are immutable and hashable, and
    can be shared freely across workers. Instances built from integers
    (parsed, generated, reduced, and the sweeps' own) make `edges` and `tau`
    on the first read of either (see `_from_values`). Equality and hashing
    ignore the order the edges are listed in, and which endpoint of an
    undirected edge comes first.
    """

    mode: str
    vertices: tuple[int, ...]
    edges: tuple[Edge, ...]
    tau: Mapping[int, Fraction]

    def __post_init__(self) -> None:
        # Tuples pass through untouched: copying them too measurably raised
        # time and peak memory in sweeps over many small instances.
        if type(self.vertices) is not tuple:
            object.__setattr__(self, "vertices", tuple(self.vertices))
        if type(self.edges) is not tuple:
            object.__setattr__(self, "edges", tuple(map(tuple, self.edges)))
        object.__setattr__(self, "tau", MappingProxyType(dict(self.tau)))
        violation = validate(self)
        if violation is not None:
            raise ValidationError(violation)
        # After `validate`, so a non-int id is a bad-vertex-id; copied only when out of order.
        if any(map(gt, self.vertices, self.vertices[1:])):
            object.__setattr__(self, "vertices", tuple(sorted(self.vertices)))

    @classmethod
    def _from_ints(cls, mode, vertices, tails, heads, weights, weight_den, tau, tau_den) -> Instance:
        """`_from_values` for arcs between ids, weights `weights[i] / weight_den` and thresholds
        `tau[i] / tau_den`. The generators', the reductions' and the checks' constructor: the ids
        become positions, and both lists go onto one denominator."""
        den = math.lcm(weight_den, tau_den)
        weights = weights if den == weight_den else [k * (den // weight_den) for k in weights]
        tau = tau if den == tau_den else [t * (den // tau_den) for t in tau]
        at = dict(zip(vertices, range(len(vertices)))).__getitem__
        return cls._from_values(mode, vertices, list(map(at, tails)), list(map(at, heads)), weights, tau,
                                {k: _reduced(k, den) for k in {*weights, *tau}}, den)

    @classmethod
    def _from_values(cls, mode, vertices, tails, heads, weights, tau, value, den=0) -> Instance:
        """The instance with arcs from position `tails[i]` to position `heads[i]` of weight
        `value[weights[i]]` and thresholds `value[tau[i]]` (in vertex order).

        `value` maps each key to a reduced (numerator, denominator) pair; `vertices` ascend and
        every rule but the three `_integer_view` checks holds. Only the integer view is built
        here. The lists are kept, not copied, and `edges` and `tau`, in ids and Fractions, are
        made from them on the first read of either (`__getattr__`); then the lists are dropped.
        """
        self = object.__new__(cls)
        self.__dict__.update(mode=mode, vertices=vertices, _values=(tails, heads, weights, tau, value),
                             compiled=_integer_view(mode, vertices, tails, heads, weights, tau, value, den))
        return self

    def __getattr__(self, name):
        # Reached only when normal lookup fails: for `edges` and `tau` of an instance from
        # `_from_values` before their first read, and for names an Instance does not have.
        state = vars(self)
        values = state.get("_values")
        if values is not None and name in ("edges", "tau"):
            tails, heads, weights, tau, value = values
            ids, value = self.vertices, {k: _fraction(*pair) for k, pair in value.items()}
            state.update(edges=tuple([(ids[u], ids[v], value[k]) for u, v, k in zip(tails, heads, weights)]),
                         tau=MappingProxyType(dict(zip(ids, map(value.__getitem__, tau)))))
            state.pop("_values", None)
        try:
            return state[name]
        except KeyError:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}") from None

    @cached_property
    def _key(self) -> tuple:
        return (self.mode, self.vertices, tuple(canonical_edges(self)),
                tuple(map(self.tau.__getitem__, self.vertices)))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Instance):
            return NotImplemented
        return self._key == other._key

    def __hash__(self) -> int:
        return hash(self._key)

    def __reduce__(self):
        # A mappingproxy cannot be pickled; rebuild through the constructor.
        return Instance, (self.mode, self.vertices, self.edges, dict(self.tau))

    @property
    def n(self) -> int:
        return len(self.vertices)

    @cached_property
    def vertex_set(self) -> VertexSet:
        return frozenset(self.vertices)

    @cached_property
    def incident_totals(self) -> dict[int, Fraction]:
        """Full incident weight sum of each vertex (incoming sum in directed mode)."""
        view = self.compiled
        return {v: Fraction(t, view.scale) for v, t in zip(self.vertices, view.totals)}

    @cached_property
    def total_weight(self) -> Fraction:
        view = self.compiled
        # Undirected totals count each edge at both ends.
        return Fraction(sum(view.totals), view.scale * (2 if self.mode == UNDIRECTED else 1))

    @cached_property
    def tau_total(self) -> Fraction:
        view = self.compiled
        return Fraction(sum(view.tau), view.scale)

    @cached_property
    def compiled(self) -> CompiledInstance:
        """The integer view every activation run and oracle works on, built on first read."""
        # Keyed by object, not value: a Fraction's hash is worked out in Python on every call.
        edges, at = self.edges, dict(zip(self.vertices, range(self.n))).__getitem__
        values = [w for _, _, w in edges] + list(map(self.tau.__getitem__, self.vertices))
        keys, m = list(map(id, values)), len(edges)
        return _integer_view(self.mode, self.vertices, [at(u) for u, _, _ in edges], [at(v) for _, v, _ in edges],
                             keys[:m], keys[m:], {k: (x.numerator, x.denominator) for k, x in zip(keys, values)})


@dataclass(frozen=True)
class CompiledInstance:
    """Integer view of an instance on dense vertex positions.

    Every weight and threshold is multiplied by `scale`, the LCM of all their
    denominators, so the values here are exact integers. Position i stands
    for `instance.vertices[i]`, the i-th smallest id; `incoming[i]` lists
    the (position, weight) pairs that can influence it and `out[i]` those
    it can influence. The lists are shared and must be treated as read-only.
    """

    scale: int
    position: dict[int, int]
    tau: tuple[int, ...]
    incoming: list[list[tuple[int, int]]]
    out: list[list[tuple[int, int]]]

    @cached_property
    def totals(self) -> tuple[int, ...]:
        """Scaled incident weight sum of each position (incoming in directed mode)."""
        return tuple([sum(map(itemgetter(1), pairs)) for pairs in self.incoming])

    @cached_property
    def min_weight(self) -> int:
        """Smallest scaled edge weight; raises ValueError when there are no edges."""
        return min(map(itemgetter(1), chain.from_iterable(self.out)))


def _integer_view(mode, vertices, tails, heads, weights, tau, value, den=0) -> CompiledInstance:
    """The integer view of arcs from position `tails[i]` to position `heads[i]` of weight
    `value[weights[i]]` and thresholds `value[tau[i]]` (in vertex order); every constructor builds
    its view here.

    `value` maps each distinct key to a reduced (numerator, denominator) pair. The scale is the LCM
    of the denominators, and no gcd runs over scaled integers. Keys that are integers over the
    scale already, as the caller says by passing it as `den`, are kept as they are. (A list:
    unpacking an iterator into `math.lcm` resizes the argument tuple, and peak RSS crept up.) Then
    the three rules the integers can show fail as in `validate`: vertex ids at least 1, no
    negative weight, no negative threshold.
    """
    scale = math.lcm(*[d for _, d in value.values()])
    scaled_weights, scaled_tau = weights, tau
    if scale != den:
        ints = {k: num * (scale // d) for k, (num, d) in value.items()}
        scaled_weights, scaled_tau = list(map(ints.__getitem__, weights)), list(map(ints.__getitem__, tau))
    if vertices and vertices[0] < 1:
        raise ValidationError(Violation("bad-vertex-id", f"vertex id {vertices[0]!r} is not a positive integer"))
    if scaled_weights and min(scaled_weights) < 0:
        i = next(i for i, w in enumerate(scaled_weights) if w < 0)
        raise ValidationError(Violation("negative-weight", f"edge ({vertices[tails[i]]}, {vertices[heads[i]]}) "
                                                           f"has negative weight {Fraction(*value[weights[i]])}"))
    if scaled_tau and min(scaled_tau) < 0:
        i = next(i for i, t in enumerate(scaled_tau) if t < 0)
        raise ValidationError(Violation(
            "negative-threshold", f"vertex {vertices[i]} has negative threshold {Fraction(*value[tau[i]])}"))
    out: list[list[tuple[int, int]]] = [[] for _ in vertices]
    # An undirected edge influences both ways, so in and out lists coincide.
    incoming = out if mode == UNDIRECTED else [[] for _ in vertices]
    for iu, iv, wi in zip(tails, heads, scaled_weights):
        out[iu].append((iv, wi))
        incoming[iv].append((iu, wi))
    return CompiledInstance(scale, dict(zip(vertices, range(len(vertices)))), tuple(scaled_tau), incoming, out)


def _check_id(v) -> None:
    # The slow half of the id test on what callers hand in; `type(v) is int` passes first. True or 1.0 would match 1.
    if not isinstance(v, int) or isinstance(v, bool):
        raise TypeError(f"vertex id {v!r} is a {type(v).__name__}, expected an int")


def _positions(instance: Instance, ids, unknown: str) -> list[int]:
    """The positions of the collection `ids`, in its order. A non-int id raises TypeError; unknown
    ids raise ValueError(`unknown`, its `{}` replaced by those ids, sorted)."""
    for v in ids:
        if type(v) is not int:
            _check_id(v)
    positions = list(map(instance.compiled.position.get, ids))
    if None in positions:
        raise ValueError(unknown.format(sorted({v for v, i in zip(ids, positions) if i is None})))
    return positions


def _check_incentives(instance: Instance, incentives: Mapping[int, Fraction]) -> None:
    """Raise unless every key is an id of `instance` and every value a non-negative int or Fraction:
    TypeError for a wrong type, ValueError for the rest. Builds no integer view."""
    ids = instance.vertex_set
    for v, x in incentives.items():
        if type(v) is not int:
            _check_id(v)
        if v not in ids:
            raise ValueError(f"incentive given for unknown vertex {v}")
        if type(x) is not Fraction and type(x) is not int and (not isinstance(x, _EXACT) or isinstance(x, bool)):
            raise TypeError(f"incentive {x!r} at vertex {v} is a {type(x).__name__}, expected an int or Fraction")
        if x.numerator < 0:
            raise ValueError(f"negative incentive {x} at vertex {v}")


# `_subset_weights` refuses instances above this many vertices, so that no
# `--limit-n` can make an exhaustive oracle exhaust memory. Its tables hold
# 4.2 M entries at n = 32: +32 MB peak RSS on an edgeless graph and +154 MB
# on the complete graph with halves weights (+15 and +71 MB at n = 30;
# Python 3.11). Enumerating 2^32 subsets takes far longer than any run.
SUBSET_TABLE_CEILING = 32


def _subset_weights(view: CompiledInstance) -> tuple[int, list[list[int]], list[list[int]]]:
    """The weight each position receives from every set of positions, in two halves.

    Returns (h, lo, hi) with h = n // 2. Bit j of a low mask s stands for
    position j < h, and bit k of a high mask t for position h + k; `lo[i][s]`
    and `hi[i][t]` are the weights position i receives from those sets. So i
    receives lo[i][mask & (2**h - 1)] + hi[i][mask >> h] from the positions
    in a full bitmask `mask`. Each half table doubles once per position of
    its half, the new entries adding that position's weight to the old ones:
    n * (2**h + 2**(n - h)) entries in all. Not cached on the view, which
    would keep them alive after the oracle that built them returns. Raises
    OracleLimitError above `SUBSET_TABLE_CEILING` positions, before any table
    is built.
    """
    n = len(view.tau)
    if n > SUBSET_TABLE_CEILING:
        raise OracleLimitError(
            f"{n} vertices exceeds the subset-table ceiling of {SUBSET_TABLE_CEILING}"
        )
    h = n // 2
    lo, hi = [], []
    for pairs in view.incoming:
        weights = [0] * n
        for j, w in pairs:
            weights[j] = w
        low, high = [0], [0]
        for w in weights[:h]:
            low = low + [x + w for x in low] if w else low * 2
        for w in weights[h:]:
            high = high + [x + w for x in high] if w else high * 2
        lo.append(low)
        hi.append(high)
    return h, lo, hi


def build_instance(mode: str, vertices, edges=(), tau=0) -> Instance:
    """Assemble an Instance, coercing weights and thresholds to Fraction.

    vertices: an int n (meaning ids 1..n; a bool raises TypeError) or an
        iterable of ids.
    edges: (u, v) pairs (weight 1) or (u, v, weight) triples.
    tau: one value for every vertex, a sequence in listing order, or a map.
    """
    if isinstance(vertices, int) and not isinstance(vertices, bool):
        ids = tuple(range(1, vertices + 1))
    else:
        ids = tuple(vertices)
    built = []
    for e in edges:
        if len(e) == 2:
            u, v = e
            built.append((u, v, Fraction(1)))
        else:
            u, v, w = e
            built.append((u, v, _coerce(w)))
    if isinstance(tau, Mapping):
        tmap = {v: _coerce(t) for v, t in tau.items()}
    elif isinstance(tau, (list, tuple)):
        if len(tau) != len(ids):
            raise ValueError(f"{len(tau)} thresholds for {len(ids)} vertices")
        tmap = {v: _coerce(t) for v, t in zip(ids, tau)}
    else:
        tmap = {v: _coerce(tau) for v in ids}
    return Instance(mode, ids, tuple(built), tmap)


@dataclass(frozen=True)
class Violation:
    """First failed invariant, with the offending element spelled out."""

    rule: str
    detail: str


def validate(instance: Instance) -> Violation | None:
    """Check every instance invariant in one pass; return the first violation or None."""
    if instance.mode not in (UNDIRECTED, DIRECTED):
        return Violation("bad-mode", f"unknown mode {instance.mode!r}")
    directed = instance.mode == DIRECTED
    tau = instance.tau
    seen_ids = set()
    for v in instance.vertices:
        if not isinstance(v, int) or isinstance(v, bool) or v < 1:
            return Violation("bad-vertex-id", f"vertex id {v!r} is not a positive integer")
        if v in seen_ids:
            return Violation("duplicate-vertex", f"vertex {v} listed twice")
        seen_ids.add(v)
    for v in tau:
        if v not in seen_ids:
            return Violation("unknown-vertex", f"threshold given for unknown vertex {v}")
    for v in instance.vertices:
        if v not in tau:
            return Violation("missing-threshold", f"vertex {v} has no threshold")
    pairs = set()
    for u, v, w in instance.edges:
        if u not in seen_ids or v not in seen_ids:
            missing = u if u not in seen_ids else v
            return Violation("unknown-vertex", f"edge ({u}, {v}) references unknown vertex {missing}")
        if u == v:
            return Violation("self-loop", f"edge ({u}, {v}) is a self-loop")
        key = (u, v) if directed or u < v else (v, u)
        if key in pairs:
            return Violation("duplicate-edge", f"edge ({u}, {v}) appears more than once")
        pairs.add(key)
        if not isinstance(w, _EXACT) or isinstance(w, bool):
            return Violation("bad-weight", f"edge ({u}, {v}) has weight {w!r}, expected an int or Fraction")
        if w.numerator < 0:
            return Violation("negative-weight", f"edge ({u}, {v}) has negative weight {w}")
    for v in instance.vertices:
        if not isinstance(tau[v], _EXACT) or isinstance(tau[v], bool):
            return Violation("bad-threshold", f"vertex {v} has threshold {tau[v]!r}, expected an int or Fraction")
        if tau[v].numerator < 0:
            return Violation("negative-threshold", f"vertex {v} has negative threshold {tau[v]}")
    return None


def min_edge_weight(instance: Instance) -> Fraction:
    """Exact minimum edge weight; undefined (raises) on edgeless instances."""
    view = instance.compiled
    if not any(view.out):
        raise ValueError("edgeless instance has no minimum edge weight")
    return Fraction(view.min_weight, view.scale)


def canonical_edges(instance: Instance) -> list[Edge]:
    """Edges sorted, undirected endpoints normalized low id first."""
    if instance.mode == UNDIRECTED:
        normalized = [(min(u, v), max(u, v), w) for u, v, w in instance.edges]
    else:
        normalized = list(instance.edges)
    return sorted(normalized)


def _view_edges(instance: Instance) -> tuple[list[int], list[int], list[int]]:
    """The edges in `canonical_edges` order, read off the integer view as tail ids, head ids and
    scaled weights."""
    view, ids = instance.compiled, instance.vertices
    # Positions ascend with ids, so i < j puts the smaller id first; a digraph keeps every arc.
    edges = [(ids[i], ids[j], w) for i, pairs in enumerate(view.out) for j, w in sorted(pairs)
             if i < j or view.incoming is not view.out]
    return [u for u, _, _ in edges], [v for _, v, _ in edges], [w for _, _, w in edges]


def _label_components(view: CompiledInstance, starts, inside) -> list[int]:
    """The first of `starts` to reach each position through `inside` positions, or -1.

    Arcs count both ways, so the labels are components of the underlying graph.
    """
    lists = (view.out,) if view.incoming is view.out else (view.out, view.incoming)
    label = [-1] * len(inside)
    for s in starts:
        if label[s] >= 0:
            continue
        label[s], stack = s, [s]
        while stack:
            x = stack.pop()
            for adjacency in lists:
                for y, _ in adjacency[x]:
                    if label[y] < 0 and inside[y]:
                        label[y] = s
                        stack.append(y)
    return label


def connected_components(instance: Instance) -> list[VertexSet]:
    """Components of the underlying undirected graph, sorted by smallest member."""
    label = _label_components(instance.compiled, range(instance.n), [True] * instance.n)
    members: dict[int, list[int]] = {}
    for v, s in zip(instance.vertices, label):
        members.setdefault(s, []).append(v)
    # Each label is its component's smallest position, met in ascending order.
    return list(map(frozenset, members.values()))


def is_connected(instance: Instance) -> bool:
    return -1 not in _label_components(instance.compiled, range(min(instance.n, 1)), [True] * instance.n)
