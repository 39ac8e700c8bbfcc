"""Exact-arithmetic model of weighted threshold instances.

An instance is a simple graph (undirected or directed), a non-negative
rational weight per edge, and a non-negative rational threshold per vertex.
All arithmetic uses `fractions.Fraction`; nothing in the package touches
floating point, so threshold comparisons are exact and reproducible.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from operator import gt
from types import MappingProxyType
from typing import Mapping

from .errors import OracleLimitError, ValidationError

UNDIRECTED = "undirected"
DIRECTED = "directed"

Edge = tuple[int, int, Fraction]
VertexSet = frozenset[int]

_RATIONAL = re.compile(r"([+-]?\d+)(?:/(\d+))?")
_EXACT = (Fraction, int)
# Instances built in a row mostly share their few values; Fraction's own constructor is slow.
_fraction = lru_cache(maxsize=256)(Fraction)


def _ratio(text: str) -> tuple[int, int]:
    """Parse `int` or `int/int` into its numerator and denominator as written, unreduced."""
    match = _RATIONAL.fullmatch(text)
    if match is None:
        raise ValueError(f"not an integer or integer/integer rational: {text!r}")
    num, den = match.groups()
    den = int(den or 1)
    if den == 0:
        raise ValueError(f"zero denominator: {text!r}")
    return int(num), den


def parse_rational(text: str) -> Fraction:
    """Parse `int` or `int/int` into an exact Fraction.

    Decimal notation is rejected on purpose: values written as "3/2" must
    survive a round trip without ever becoming "1.5".
    """
    return Fraction(*_ratio(text))


def format_rational(value: Fraction) -> str:
    return str(value)


def _coerce(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
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
    `vertices` and `edges` are stored as tuples and `tau` is copied into a
    read-only mapping, so instances are immutable and hashable, and can be
    shared freely across workers. Equality and hashing ignore the order the
    edges are listed in, and which endpoint of an undirected edge comes first.
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
        """The instance with arcs `tails[i]` -> `heads[i]` of weight `weights[i] / weight_den` and
        thresholds `tau[i] / tau_den` (in vertex order), handed its integer view.

        The parser's, the generators' and the reductions' constructor: `vertices` ascend and every
        rule but three holds, and those three fail as in `validate`. Only here are the scale and the
        Fractions derived. Both lists go onto one denominator, and one gcd with every numerator
        reduces it to the LCM of the reduced denominators, the scale `compiled` would find. Each
        distinct value becomes one Fraction. Endpoints come as flat lists, which callers fill straight
        from their loops, so the edge triples are built in one pass.
        """
        scale = math.lcm(weight_den, tau_den)
        if scale != weight_den:
            weights = [k * (scale // weight_den) for k in weights]
        if scale != tau_den:
            tau = [t * (scale // tau_den) for t in tau]
        if scale > 1 and (g := math.gcd(scale, *weights, *tau)) > 1:
            scale //= g
            weights = [k // g for k in weights]
            tau = [t // g for t in tau]
        value = {k: _fraction(k, scale) for k in {*weights, *tau}}
        edges = tuple([(u, v, value[k]) for u, v, k in zip(tails, heads, weights)])
        tau_map = dict(zip(vertices, map(value.__getitem__, tau)))
        if vertices and vertices[0] < 1:
            raise ValidationError(Violation("bad-vertex-id", f"vertex id {vertices[0]!r} is not a positive integer"))
        if weights and min(weights) < 0:
            u, v, w = next(e for e in edges if e[2] < 0)
            raise ValidationError(Violation("negative-weight", f"edge ({u}, {v}) has negative weight {w}"))
        if tau and min(tau) < 0:
            v = next(v for v, t in zip(vertices, tau) if t < 0)
            raise ValidationError(Violation("negative-threshold", f"vertex {v} has negative threshold {tau_map[v]}"))
        self = object.__new__(cls)
        self.__dict__.update(mode=mode, vertices=vertices, edges=edges, tau=MappingProxyType(tau_map),
                             compiled=_compile(mode, vertices, edges, weights, tau, scale))
        return self

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
        """The integer view every activation run and oracle works on."""
        scale = math.lcm(*(t.denominator for t in self.tau.values()),
                         *(w.denominator for _, _, w in self.edges))
        weights = [w.numerator * (scale // w.denominator) for _, _, w in self.edges]
        tau = [t.numerator * (scale // t.denominator) for t in map(self.tau.__getitem__, self.vertices)]
        return _compile(self.mode, self.vertices, self.edges, weights, tau, scale)


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
        return tuple([sum(w for _, w in pairs) for pairs in self.incoming])

    @cached_property
    def min_weight(self) -> int:
        """Smallest scaled edge weight; raises ValueError when there are no edges."""
        return min(w for pairs in self.out for _, w in pairs)


def _compile(mode, vertices, edges, weights, tau, scale) -> CompiledInstance:
    """The integer view from scaled edge weights (in edge order) and thresholds (in vertex order)."""
    position = {v: i for i, v in enumerate(vertices)}
    out: list[list[tuple[int, int]]] = [[] for _ in vertices]
    # An undirected edge influences both ways, so in and out lists coincide.
    incoming = out if mode == UNDIRECTED else [[] for _ in vertices]
    for (u, v, _), wi in zip(edges, weights):
        iu, iv = position[u], position[v]
        out[iu].append((iv, wi))
        incoming[iv].append((iu, wi))
    return CompiledInstance(scale, position, tuple(tau), incoming, out)


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

    vertices: an int n (meaning ids 1..n) or an iterable of ids.
    edges: (u, v) pairs (weight 1) or (u, v, weight) triples.
    tau: one value for every vertex, a sequence in listing order, or a map.
    """
    if isinstance(vertices, int):
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
        if not isinstance(v, int) or v < 1:
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
        if not isinstance(w, _EXACT):
            return Violation("bad-weight", f"edge ({u}, {v}) has weight {w!r}, expected an int or Fraction")
        if w.numerator < 0:
            return Violation("negative-weight", f"edge ({u}, {v}) has negative weight {w}")
    for v in instance.vertices:
        if not isinstance(tau[v], _EXACT):
            return Violation("bad-threshold", f"vertex {v} has threshold {tau[v]!r}, expected an int or Fraction")
        if tau[v].numerator < 0:
            return Violation("negative-threshold", f"vertex {v} has negative threshold {tau[v]}")
    return None


def min_edge_weight(instance: Instance) -> Fraction:
    """Exact minimum edge weight; undefined (raises) on edgeless instances."""
    if not instance.edges:
        raise ValueError("edgeless instance has no minimum edge weight")
    view = instance.compiled
    return Fraction(view.min_weight, view.scale)


def canonical_edges(instance: Instance) -> list[Edge]:
    """Edges sorted, undirected endpoints normalized low id first."""
    if instance.mode == UNDIRECTED:
        normalized = [(min(u, v), max(u, v), w) for u, v, w in instance.edges]
    else:
        normalized = list(instance.edges)
    return sorted(normalized)


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
    return len(connected_components(instance)) <= 1
