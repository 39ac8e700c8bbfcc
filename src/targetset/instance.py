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
from functools import cached_property
from typing import Iterable, Mapping, Sequence

UNDIRECTED = "undirected"
DIRECTED = "directed"

Rational = Fraction
Edge = tuple[int, int, Fraction]
VertexSet = frozenset[int]

_RATIONAL = re.compile(r"[+-]?\d+(?:/\d+)?")


def parse_rational(text: str) -> Fraction:
    """Parse `int` or `int/int` into an exact Fraction.

    Decimal notation is rejected on purpose: values written as "3/2" must
    survive a round trip without ever becoming "1.5".
    """
    if not _RATIONAL.fullmatch(text):
        raise ValueError(f"not an integer or integer/integer rational: {text!r}")
    if "/" in text and int(text.split("/", 1)[1]) == 0:
        raise ValueError(f"zero denominator: {text!r}")
    return Fraction(text)


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


@dataclass(frozen=True)
class Instance:
    """An edge-weighted graph with per-vertex activation thresholds.

    `mode` is "undirected" or "directed". In directed mode an edge (u, v, w)
    is an arc from u to v: its weight counts toward activating v only.
    Every operation below is a pure function, so instances can be shared
    freely across workers as long as nobody mutates them. `tau` is a plain
    dict and must not be mutated after construction: incident sums and the
    integer view `compiled` are cached on first use and would go stale.
    """

    mode: str
    vertices: tuple[int, ...]
    edges: tuple[Edge, ...]
    tau: Mapping[int, Fraction]

    @property
    def n(self) -> int:
        return len(self.vertices)

    @cached_property
    def vertex_set(self) -> VertexSet:
        return frozenset(self.vertices)

    @cached_property
    def in_adjacency(self) -> dict[int, tuple[tuple[int, Fraction], ...]]:
        """Per vertex, the (neighbor, weight) pairs that can influence it."""
        adj: dict[int, list[tuple[int, Fraction]]] = {v: [] for v in self.vertices}
        for u, v, w in self.edges:
            adj[v].append((u, w))
            if self.mode == UNDIRECTED:
                adj[u].append((v, w))
        return {v: tuple(pairs) for v, pairs in adj.items()}

    @cached_property
    def incident_totals(self) -> dict[int, Fraction]:
        """Full incident weight sum of each vertex (incoming sum in directed mode)."""
        return {
            v: sum((w for _, w in self.in_adjacency[v]), start=Fraction(0))
            for v in self.vertices
        }

    @cached_property
    def total_weight(self) -> Fraction:
        return sum((w for _, _, w in self.edges), start=Fraction(0))

    @cached_property
    def tau_total(self) -> Fraction:
        return sum(self.tau.values(), start=Fraction(0))

    @cached_property
    def compiled(self) -> CompiledInstance:
        """The integer view every activation run and oracle works on."""
        scale = math.lcm(*(t.denominator for t in self.tau.values()),
                         *(w.denominator for _, _, w in self.edges))
        position = {v: i for i, v in enumerate(self.vertices)}
        out: list[list[tuple[int, int]]] = [[] for _ in self.vertices]
        # An undirected edge influences both ways, so in and out lists coincide.
        incoming = out if self.mode == UNDIRECTED else [[] for _ in self.vertices]
        for u, v, w in self.edges:
            iu, iv = position[u], position[v]
            wi = w.numerator * (scale // w.denominator)
            out[iu].append((iv, wi))
            incoming[iv].append((iu, wi))
        tau = tuple(
            t.numerator * (scale // t.denominator)
            for t in (self.tau[v] for v in self.vertices)
        )
        return CompiledInstance(scale, position, tau, incoming, out)


@dataclass(frozen=True)
class CompiledInstance:
    """Integer view of an instance on dense vertex positions.

    Every weight and threshold is multiplied by `scale`, the LCM of all their
    denominators, so the values here are exact integers. Position i stands
    for `instance.vertices[i]`; `incoming[i]` lists the (position, weight)
    pairs that can influence it and `out[i]` those it can influence. The
    lists are shared by every caller and must be treated as read-only.
    """

    scale: int
    position: dict[int, int]
    tau: tuple[int, ...]
    incoming: list[list[tuple[int, int]]]
    out: list[list[tuple[int, int]]]


def build_instance(mode: str, vertices, edges=(), tau=0) -> Instance:
    """Assemble an Instance, coercing weights and thresholds to Fraction.

    vertices: an int n (meaning ids 1..n) or an iterable of ids.
    edges: (u, v) pairs (weight 1) or (u, v, weight) triples.
    tau: one value for every vertex, a sequence in vertex order, or a map.
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
    """Check every instance invariant; return the first violation or None."""
    if instance.mode not in (UNDIRECTED, DIRECTED):
        return Violation("bad-mode", f"unknown mode {instance.mode!r}")
    seen_ids = set()
    for v in instance.vertices:
        if not isinstance(v, int) or v < 1:
            return Violation("bad-vertex-id", f"vertex id {v!r} is not a positive integer")
        if v in seen_ids:
            return Violation("duplicate-vertex", f"vertex {v} listed twice")
        seen_ids.add(v)
    for v in instance.tau:
        if v not in seen_ids:
            return Violation("unknown-vertex", f"threshold given for unknown vertex {v}")
    for v in instance.vertices:
        if v not in instance.tau:
            return Violation("missing-threshold", f"vertex {v} has no threshold")
    pairs = set()
    for u, v, w in instance.edges:
        if u not in seen_ids or v not in seen_ids:
            missing = u if u not in seen_ids else v
            return Violation("unknown-vertex", f"edge ({u}, {v}) references unknown vertex {missing}")
        if u == v:
            return Violation("self-loop", f"edge ({u}, {v}) is a self-loop")
        key = (u, v) if instance.mode == DIRECTED else (min(u, v), max(u, v))
        if key in pairs:
            return Violation("duplicate-edge", f"edge ({u}, {v}) appears more than once")
        pairs.add(key)
        if w < 0:
            return Violation("negative-weight", f"edge ({u}, {v}) has negative weight {w}")
    for v in instance.vertices:
        if instance.tau[v] < 0:
            return Violation("negative-threshold", f"vertex {v} has negative threshold {instance.tau[v]}")
    return None


def incident_weight_sum(instance: Instance, v: int, within) -> Fraction:
    """Total weight on edges joining v to members of `within`.

    Directed mode counts arcs into v coming from `within`.
    """
    if v not in instance.vertex_set:
        raise ValueError(f"unknown vertex {v}")
    total = Fraction(0)
    for u, w in instance.in_adjacency[v]:
        if u in within:
            total += w
    return total


def induced_subinstance(instance: Instance, keep) -> Instance:
    """Restrict to the vertices in `keep`; thresholds carry over unchanged."""
    kept = frozenset(keep)
    if not kept:
        raise ValueError("cannot induce on an empty vertex set")
    stray = kept - instance.vertex_set
    if stray:
        raise ValueError(f"unknown vertices in keep set: {sorted(stray)}")
    verts = tuple(v for v in instance.vertices if v in kept)
    edges = tuple((u, v, w) for u, v, w in instance.edges if u in kept and v in kept)
    tau = {v: instance.tau[v] for v in verts}
    return Instance(instance.mode, verts, edges, tau)


def min_edge_weight(instance: Instance) -> Fraction:
    """Exact minimum edge weight; undefined (raises) on edgeless instances."""
    if not instance.edges:
        raise ValueError("edgeless instance has no minimum edge weight")
    return min(w for _, _, w in instance.edges)


def canonical_edges(instance: Instance) -> list[Edge]:
    """Edges sorted, undirected endpoints normalized low id first."""
    if instance.mode == UNDIRECTED:
        normalized = [(min(u, v), max(u, v), w) for u, v, w in instance.edges]
    else:
        normalized = list(instance.edges)
    return sorted(normalized)


def connected_components(instance: Instance) -> list[VertexSet]:
    """Components of the underlying undirected graph, sorted by smallest member."""
    neighbors: dict[int, set[int]] = {v: set() for v in instance.vertices}
    for u, v, _ in instance.edges:
        neighbors[u].add(v)
        neighbors[v].add(u)
    seen: set[int] = set()
    comps = []
    for start in instance.vertices:
        if start in seen:
            continue
        stack = [start]
        comp = {start}
        seen.add(start)
        while stack:
            x = stack.pop()
            for y in neighbors[x]:
                if y not in comp:
                    comp.add(y)
                    seen.add(y)
                    stack.append(y)
        comps.append(frozenset(comp))
    return sorted(comps, key=min)


def is_connected(instance: Instance) -> bool:
    return len(connected_components(instance)) <= 1
