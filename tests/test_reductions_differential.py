"""The reductions' integer-view images against the constructor images they replaced.

`_complete_edges`, `_tss_to_complete`, `_degenerate_to_complete` and
`_to_bidirected` below are the former implementations, kept verbatim (the
embeddings renamed with a leading underscore) as the reference: each builds
its image through the validating Fraction constructor, which compiles the
integer view afresh. Hypothesis draws sources, and every source must give
the same receipt, with an image equal down to its edge order and integer
view, or the same exception with the same message.
"""

import random
from fractions import Fraction
from itertools import combinations

from hypothesis import given, settings, strategies as st

from targetset import (
    DIRECTED,
    UNDIRECTED,
    GenSpec,
    Instance,
    degenerate_to_complete,
    generate,
    serialize_wtg,
    to_bidirected,
    tss_to_complete,
)
from targetset.checks import random_degenerate_tss_instance, random_tss_instance
from targetset.degeneracy import DegeneracyOrdering, _non_unit_edge, _require_degree_thresholds, peel_ordering
from targetset.errors import PreconditionError, VerificationError
from targetset.instance import Edge, canonical_edges
from targetset.reductions import ReductionReceipt


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
    edge = _non_unit_edge(source)
    if edge is not None:
        u, v, w = edge
        raise PreconditionError(f"{what} needs unit edge weights, edge ({u}, {v}) has {w}")
    present = {(min(u, v), max(u, v)) for u, v, _ in source.edges}
    big, one = Fraction(n), Fraction(1)
    return [(u, v, big if (u, v) in present else one) for u, v in combinations(source.vertices, 2)]


def _tss_to_complete(source: Instance) -> ReductionReceipt:
    """Embed a unit-weight instance into a weighted complete graph.

    Original edges get weight n, absent pairs weight 1, and thresholds are
    multiplied by n. A seed activates the image exactly when it activates the
    source, so minimum target sets coincide.
    """
    edges = _complete_edges(source, "the complete-graph embedding")
    n = source.n
    _require_degree_thresholds(source)
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


def _degenerate_to_complete(source: Instance) -> ReductionReceipt:
    """Embed a degenerate unit-weight instance into a complete graph with one extra hub.

    The hub connects to everything with weight n and threshold n^2; original
    thresholds become n*tau + n. The image stays degenerate, and its minimum
    target set is exactly one larger than the source's.
    """
    edges = _complete_edges(source, "the hub embedding")
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


def _to_bidirected(source: Instance) -> ReductionReceipt:
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


REDUCTIONS = (
    (tss_to_complete, _tss_to_complete),
    (degenerate_to_complete, _degenerate_to_complete),
    (to_bidirected, _to_bidirected),
)

_WEIGHTS = [Fraction(1)] * 6 + [Fraction(0), Fraction(3), Fraction(1, 2), Fraction(5, 7)]


@st.composite
def _drawn(draw) -> Instance:
    """Any small instance: ids with gaps, listed in any order, edges listed in any order and
    either endpoint first, mostly unit weights, and thresholds that are mostly integers."""
    ids = draw(st.lists(st.integers(1, 40), max_size=9, unique=True))
    mode = draw(st.sampled_from([UNDIRECTED] * 3 + [DIRECTED]))
    pairs = list(combinations(sorted(ids), 2))
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    edges = []
    for u, v in chosen:
        if mode == DIRECTED or draw(st.booleans()):
            u, v = v, u
        edges.append((u, v, draw(st.sampled_from(_WEIGHTS))))
    tau = {v: draw(st.sampled_from([Fraction(k) for k in range(5)] + [Fraction(3, 2)])) for v in ids}
    return Instance(mode, tuple(ids), tuple(edges), tau)


@st.composite
def _swept(draw) -> Instance:
    """The sources the check sweeps hand to the reductions."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["tss", "degenerate", "cubic", "random"]))
    if kind == "tss":
        return random_tss_instance(rng, draw(st.integers(2, 9)))
    if kind == "degenerate":
        return random_degenerate_tss_instance(rng, draw(st.integers(2, 9)))
    if kind == "cubic":
        return generate(GenSpec(family="cubic", n=draw(st.sampled_from([4, 6, 8])), seed=rng.randrange(2**32)))
    return generate(GenSpec(n=draw(st.integers(1, 9)), seed=rng.randrange(2**32),
                            edge_prob=draw(st.sampled_from([0.0, 0.3, 0.7, 1.0])),
                            weights=draw(st.sampled_from(["int", "halves", "unit"]))))


def _outcome(reduce, source):
    try:
        return reduce(source)
    except (PreconditionError, VerificationError) as error:
        return type(error), str(error)


@given(st.one_of(_drawn(), _swept()))
@settings(max_examples=500, deadline=None)
def test_images_match_the_constructor_images(source):
    for reduce, reference in REDUCTIONS:
        got, expected = _outcome(reduce, source), _outcome(reference, source)
        if isinstance(expected, tuple):
            assert got == expected
            continue
        assert got.notes == expected.notes
        image, want = got.image, expected.image
        assert image.mode == want.mode and image.vertices == want.vertices
        assert image.edges == want.edges
        assert all(type(w) is Fraction for _, _, w in image.edges)
        assert dict(image.tau) == dict(want.tau)
        assert all(type(t) is Fraction for t in image.tau.values())
        assert image == want and hash(image) == hash(want)
        assert image.compiled == want.compiled
        assert serialize_wtg(image) == serialize_wtg(want)


def test_degenerate_sources_match_the_constructor():
    rng = random.Random(5)
    for n in range(2, 12):
        inst = random_degenerate_tss_instance(rng, n)
        fresh = Instance(inst.mode, inst.vertices, inst.edges, dict(inst.tau))
        assert inst == fresh and inst.compiled == fresh.compiled
        assert all(type(t) is Fraction for t in inst.tau.values())
