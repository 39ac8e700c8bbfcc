"""Instance transformations that preserve solutions.

Each reduction returns a receipt holding the source, the image, the vertex
correspondence, and the construction parameters, so property tests never
have to re-derive which vertex went where.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .degeneracy import DegeneracyOrdering, peel_ordering
from .errors import PreconditionError, VerificationError
from .instance import DIRECTED, UNDIRECTED, Instance, canonical_edges


@dataclass(frozen=True)
class ReductionReceipt:
    source: Instance
    image: Instance
    correspondence: dict[int, int]
    notes: dict[str, str]


def _require_unit_weights(instance: Instance, what: str) -> None:
    for u, v, w in instance.edges:
        if w != 1:
            raise PreconditionError(f"{what} needs unit edge weights, edge ({u}, {v}) has {w}")


def tss_to_complete(source: Instance) -> ReductionReceipt:
    """Embed a unit-weight instance into a weighted complete graph.

    Original edges get weight n, absent pairs weight 1, and thresholds are
    multiplied by n. A seed activates the image exactly when it activates the
    source, so minimum target sets coincide.
    """
    if source.mode != UNDIRECTED:
        raise PreconditionError("the complete-graph embedding takes undirected instances")
    n = source.n
    if n < 2:
        raise PreconditionError("the complete-graph embedding needs at least two vertices")
    _require_unit_weights(source, "the complete-graph embedding")
    degrees = {v: len(pairs) for v, pairs in zip(source.vertices, source.compiled.incoming)}
    for v in source.vertices:
        t = source.tau[v]
        if t.denominator != 1 or not 1 <= t <= degrees[v]:
            raise PreconditionError(
                f"vertex {v} needs an integer threshold between 1 and its degree, got {t}"
            )
    present = {(min(u, v), max(u, v)) for u, v, _ in source.edges}
    big = Fraction(n)
    edges = tuple(
        (u, v, big if (u, v) in present else Fraction(1))
        for u, v in combinations(source.vertices, 2)
    )
    tau = {v: big * source.tau[v] for v in source.vertices}
    image = Instance(UNDIRECTED, source.vertices, edges, tau)
    notes = {
        "kind": "complete-embedding",
        "n": str(n),
        "edge_weight": str(n),
        "non_edge_weight": "1",
        "threshold_factor": str(n),
    }
    return ReductionReceipt(source, image, {v: v for v in source.vertices}, notes)


def degenerate_to_complete(source: Instance) -> ReductionReceipt:
    """Embed a degenerate unit-weight instance into a complete graph with one extra hub.

    The hub connects to everything with weight n and threshold n^2; original
    thresholds become n*tau + n. The image stays degenerate, and its minimum
    target set is exactly one larger than the source's.
    """
    if source.mode != UNDIRECTED:
        raise PreconditionError("the hub embedding takes undirected instances")
    n = source.n
    if n < 2:
        raise PreconditionError("the hub embedding needs at least two vertices")
    _require_unit_weights(source, "the hub embedding")
    for v in source.vertices:
        t = source.tau[v]
        if t.denominator != 1 or t < 0:
            raise PreconditionError(f"vertex {v} needs a nonnegative integer threshold, got {t}")
    if not isinstance(peel_ordering(source), DegeneracyOrdering):
        raise PreconditionError("the hub embedding requires degenerate thresholds")
    hub = max(source.vertices) + 1
    present = {(min(u, v), max(u, v)) for u, v, _ in source.edges}
    big = Fraction(n)
    edges = [
        (u, v, big if (u, v) in present else Fraction(1))
        for u, v in combinations(source.vertices, 2)
    ]
    edges.extend((v, hub, big) for v in source.vertices)
    tau = {v: big * source.tau[v] + big for v in source.vertices}
    tau[hub] = big * big
    image = Instance(UNDIRECTED, source.vertices + (hub,), tuple(edges), tau)
    if not isinstance(peel_ordering(image), DegeneracyOrdering):
        raise VerificationError("hub embedding lost degeneracy")
    notes = {
        "kind": "hub-embedding",
        "n": str(n),
        "added_vertex": str(hub),
        "hub_threshold": str(n * n),
        "image_degenerate": "true",
    }
    return ReductionReceipt(source, image, {v: v for v in source.vertices}, notes)


def to_bidirected(source: Instance) -> ReductionReceipt:
    """Replace each undirected edge by two opposite arcs of the same weight.

    Activation traces on the image match the source for every seed.
    """
    if source.mode != UNDIRECTED:
        raise PreconditionError("already directed; the bi-directed conversion takes undirected input")
    arcs = []
    for u, v, w in canonical_edges(source):
        arcs.append((u, v, w))
        arcs.append((v, u, w))
    image = Instance(DIRECTED, source.vertices, tuple(arcs), source.tau)
    notes = {"kind": "bidirected", "arc_count": str(len(arcs))}
    return ReductionReceipt(source, image, {v: v for v in source.vertices}, notes)
