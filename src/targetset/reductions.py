"""Instance transformations that preserve solutions.

Each reduction keeps the source's vertex ids, so a vertex of the source is
the same vertex of the image. It returns a receipt holding the image and
the construction parameters.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .degeneracy import DegeneracyOrdering, _non_unit_edge, _require_degree_thresholds, peel_ordering
from .errors import PreconditionError, VerificationError
from .instance import DIRECTED, UNDIRECTED, Instance


@dataclass(frozen=True)
class ReductionReceipt:
    image: Instance
    notes: dict[str, str]


def _complete_edges(source: Instance, what: str) -> tuple[list[int], list[int], list[int]]:
    """The complete graph on an undirected unit-weight source with at least two vertices.

    Source edges get weight n and absent pairs weight 1; returns the edges as
    tail and head lists and their integer weights, in the same order. `what`
    names the embedding in the precondition errors.
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
    return [u for u, _ in pairs], [v for _, v in pairs], weights


def tss_to_complete(source: Instance) -> ReductionReceipt:
    """Embed a unit-weight instance into a weighted complete graph.

    Original edges get weight n, absent pairs weight 1, and thresholds are
    multiplied by n. A seed activates the image exactly when it activates the
    source, so minimum target sets coincide.
    """
    tails, heads, weights = _complete_edges(source, "the complete-graph embedding")
    n = source.n
    _require_degree_thresholds(source)
    # Unit weights and integer thresholds: every value of the image is an integer.
    scale = source.compiled.scale
    tau = [n * (t // scale) for t in source.compiled.tau]
    image = Instance._from_ints(UNDIRECTED, source.vertices, tails, heads, weights, 1, tau, 1)
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
    tails, heads, weights = _complete_edges(source, "the hub embedding")
    n = source.n
    scale = source.compiled.scale
    for v, t in zip(source.vertices, source.compiled.tau):
        if t % scale:
            raise PreconditionError(f"vertex {v} needs a nonnegative integer threshold, got {source.tau[v]}")
    if not isinstance(peel_ordering(source), DegeneracyOrdering):
        raise PreconditionError("the hub embedding requires degenerate thresholds")
    hub = max(source.vertices) + 1
    tails += source.vertices
    heads += [hub] * n
    weights += [n] * n
    tau = [n * (t // scale) + n for t in source.compiled.tau]
    tau.append(n * n)
    image = Instance._from_ints(UNDIRECTED, source.vertices + (hub,), tails, heads, weights, 1, tau, 1)
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
    ids = source.vertices
    tails, heads, weights = [], [], []
    # Positions ascend with ids, so this is the canonical edge order.
    for i, pairs in enumerate(view.out):
        u = ids[i]
        for j, k in sorted(pairs):
            if j > i:
                v = ids[j]
                tails += u, v
                heads += v, u
                weights += k, k
    image = Instance._from_ints(DIRECTED, ids, tails, heads, weights, view.scale, view.tau, view.scale)
    notes = {"kind": "bidirected", "arc_count": str(len(tails))}
    return ReductionReceipt(image, notes)
