"""The reductions' images against the model's images.

The library builds each image straight onto an integer view
(`Instance._from_ints`); the model lists the image's edges and thresholds
over Fractions, as each reduction's docstring states them, and builds it
through the validating public constructor. Every source must give the same
notes and an image equal down to its edge order, its Fraction types, its
hash, its integer view and its WTG bytes, or the same refusal with the same
message.
"""

import random
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from targetset import (
    GenSpec,
    Instance,
    degenerate_to_complete,
    generate,
    serialize_wtg,
    to_bidirected,
    tss_to_complete,
)
from targetset.checks import random_degenerate_tss_instance, random_tss_instance

import model

REDUCTIONS = (
    (tss_to_complete, model.tss_to_complete),
    (degenerate_to_complete, model.degenerate_to_complete),
    (to_bidirected, model.to_bidirected),
)

# Mostly unit weights, and thresholds that are mostly integers.
_drawn = model.instances(modes=(model.UNDIRECTED,) * 3 + (model.DIRECTED,),
                         weights=st.sampled_from([Fraction(1)] * 6 + [Fraction(0), Fraction(3), Fraction(1, 2),
                                                                       Fraction(5, 7)]),
                         thresholds=st.sampled_from([Fraction(k) for k in range(5)] + [Fraction(3, 2)]))


@st.composite
def _swept(draw) -> Instance:
    """The sources the check sweeps hand to the reductions, from the library's own generators."""
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


@given(st.one_of(_drawn, _swept()))
@settings(max_examples=500, deadline=None)
def test_images_match_the_model_images(source):
    for reduce, reference in REDUCTIONS:
        got, expected = model.outcome(reduce, source), model.outcome(reference, source)
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
