"""Instance transformations that preserve solutions.

Each reduction keeps the source's vertex ids, so a vertex of the source is
the same vertex of the image. It returns a receipt holding the image and
the construction parameters.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .degeneracy import DegeneracyOrdering, _non_unit_edge, _require_degree_thresholds, peel_ordering
from .errors import PreconditionError, VerificationError
from .instance import DIRECTED, UNDIRECTED, Edge, Instance, canonical_edges


@dataclass(frozen=True)
class ReductionReceipt:
    image: Instance
    notes: dict[str, str]


def _complete_edges(source: Instance, what: str) -> tuple[list[Edge], list[int]]:
    """The complete graph on an undirected unit-weight source with at least two vertices.

    Source edges get weight n and absent pairs weight 1; returns the edges
    and their integer weights in the same order. `what` names the embedding
    in the precondition errors.
    """
    if source.mode != UNDIRECTED:
        raise PreconditionError(f"{what} takes undirected instances")
    n = source.n
    if n < 2:
        raise PreconditionError(f"{what} needs at least two vertices")
    edge = _non_unit_edge(source)
    if edge is not None:
        u, v, w = edge
        raise PreconditionError(f"{what} needs unit edge weights, edge ({u}, {v}) has {w}")
    present = {(min(u, v), max(u, v)) for u, v, _ in source.edges}
    pairs = list(combinations(source.vertices, 2))
    weights = [n if pair in present else 1 for pair in pairs]
    fraction = {n: Fraction(n), 1: Fraction(1)}
    return [(u, v, fraction[k]) for (u, v), k in zip(pairs, weights)], weights


def _integer_tau(vertices, tau_ints: list[int]) -> dict[int, Fraction]:
    return {v: Fraction(t) for v, t in zip(vertices, tau_ints)}


def tss_to_complete(source: Instance) -> ReductionReceipt:
    """Embed a unit-weight instance into a weighted complete graph.

    Original edges get weight n, absent pairs weight 1, and thresholds are
    multiplied by n. A seed activates the image exactly when it activates the
    source, so minimum target sets coincide.
    """
    edges, weights = _complete_edges(source, "the complete-graph embedding")
    n = source.n
    _require_degree_thresholds(source)
    # Unit weights and integer thresholds: every value of the image is an integer.
    scale = source.compiled.scale
    tau_ints = [n * (t // scale) for t in source.compiled.tau]
    image = Instance._from_checked(UNDIRECTED, source.vertices, tuple(edges),
                                   _integer_tau(source.vertices, tau_ints), weights, tau_ints, 1)
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
    edges, weights = _complete_edges(source, "the hub embedding")
    n = source.n
    scale = source.compiled.scale
    for v, t in zip(source.vertices, source.compiled.tau):
        if t % scale:
            raise PreconditionError(f"vertex {v} needs a nonnegative integer threshold, got {source.tau[v]}")
    if not isinstance(peel_ordering(source), DegeneracyOrdering):
        raise PreconditionError("the hub embedding requires degenerate thresholds")
    hub = max(source.vertices) + 1
    big = Fraction(n)
    edges.extend((v, hub, big) for v in source.vertices)
    weights.extend([n] * n)
    vertices = source.vertices + (hub,)
    tau_ints = [n * (t // scale) + n for t in source.compiled.tau]
    tau_ints.append(n * n)
    image = Instance._from_checked(UNDIRECTED, vertices, tuple(edges),
                                   _integer_tau(vertices, tau_ints), weights, tau_ints, 1)
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
    view = source.compiled
    scale = view.scale
    arcs, weights = [], []
    for u, v, w in canonical_edges(source):
        k = w.numerator * (scale // w.denominator)
        arcs += (u, v, w), (v, u, w)
        weights += k, k
    # Same weights and thresholds, so the same scale and scaled thresholds.
    image = Instance._from_checked(DIRECTED, source.vertices, tuple(arcs), dict(source.tau),
                                   weights, view.tau, scale)
    notes = {"kind": "bidirected", "arc_count": str(len(arcs))}
    return ReductionReceipt(image, notes)
