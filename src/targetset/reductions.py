"""Instance transformations that preserve solutions.

Each reduction keeps the source's vertex ids, so a vertex of the source is
the same vertex of the image. It returns a receipt holding the image and
the construction parameters.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .degeneracy import DegeneracyOrdering, peel_ordering
from .errors import PreconditionError, VerificationError
from .instance import DIRECTED, UNDIRECTED, Edge, Instance, canonical_edges


@dataclass(frozen=True)
class ReductionReceipt:
    image: Instance
    notes: dict[str, str]


def _complete_edges(source: Instance, what: str) -> list[Edge]:
    """The complete graph on an undirected unit-weight source with at least two vertices.

    Source edges get weight n and absent pairs weight 1; `what` names the
    embedding in the precondition errors.
    """
    if source.mode != UNDIRECTED:
        raise PreconditionError(f"{what} takes undirected instances")
    n = source.n
    if n < 2:
        raise PreconditionError(f"{what} needs at least two vertices")
    for u, v, w in source.edges:
        if w != 1:
            raise PreconditionError(f"{what} needs unit edge weights, edge ({u}, {v}) has {w}")
    present = {(min(u, v), max(u, v)) for u, v, _ in source.edges}
    big, one = Fraction(n), Fraction(1)
    return [(u, v, big if (u, v) in present else one) for u, v in combinations(source.vertices, 2)]


def tss_to_complete(source: Instance) -> ReductionReceipt:
    """Embed a unit-weight instance into a weighted complete graph.

    Original edges get weight n, absent pairs weight 1, and thresholds are
    multiplied by n. A seed activates the image exactly when it activates the
    source, so minimum target sets coincide.
    """
    edges = _complete_edges(source, "the complete-graph embedding")
    n = source.n
    for v, pairs in zip(source.vertices, source.compiled.incoming):
        t = source.tau[v]
        if t.denominator != 1 or not 1 <= t <= len(pairs):
            raise PreconditionError(
                f"vertex {v} needs an integer threshold between 1 and its degree, got {t}"
            )
    tau = {v: n * source.tau[v] for v in source.vertices}
    image = Instance(UNDIRECTED, source.vertices, tuple(edges), tau)
    notes = {
        "kind": "complete-embedding",
        "n": str(n),
        "edge_weight": str(n),
        "non_edge_weight": "1",
        "threshold_factor": str(n),
    }
    return ReductionReceipt(image, notes)


def degenerate_to_complete(source: Instance) -> ReductionReceipt:
    """Embed a degenerate unit-weight instance into a complete graph with one extra hub.

    The hub connects to everything with weight n and threshold n^2; original
    thresholds become n*tau + n. The image stays degenerate, and its minimum
    target set is exactly one larger than the source's.
    """
    edges = _complete_edges(source, "the hub embedding")
    n = source.n
    for v in source.vertices:
        t = source.tau[v]
        if t.denominator != 1 or t < 0:
            raise PreconditionError(f"vertex {v} needs a nonnegative integer threshold, got {t}")
    if not isinstance(peel_ordering(source), DegeneracyOrdering):
        raise PreconditionError("the hub embedding requires degenerate thresholds")
    hub = max(source.vertices) + 1
    big = Fraction(n)
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
    return ReductionReceipt(image, notes)


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
    return ReductionReceipt(image, notes)
