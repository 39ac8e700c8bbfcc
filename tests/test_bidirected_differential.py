"""The bidirected sweep's round comparison against the trace comparison it replaced.

`checks._bidirected` compares the two runs from each seed as rounds of
positions, each round sorted, where it formerly compared the two
`run_activation` traces. `_reference` below is the former sweep, kept
verbatim: a model of the definitions cannot state the sweep's random
stream, which seeds it draws from which rng calls, nor its failure lines.
The image keeps the source's vertex ids, so both comparisons must
agree on the true bi-directed image and on images broken on purpose: one
arc dropped, or one threshold raised by one unit of the image's integer
view, with the same vertices. This sweep and prop1-preservation, which also
compares positions across a source and its image, refuse an image whose
vertex ids differ from the source's.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from targetset import UNDIRECTED, Instance, checks, reductions, run_activation
from targetset.checks import exact_min_target_set, generate
from targetset.engine import _rounds
from targetset.reductions import ReductionReceipt

import model

NAME = "bidirected"
_VALUES = model.rationals(8, (1, 2, 3))


def _reference(rng, i, max_n):
    """Doubling each edge into opposite arcs changes nothing observable."""
    spec = checks._mixed_spec(rng, rng.randint(1, max_n))
    inst = generate(spec)
    image = checks.to_bidirected(inst).image
    seeds = [frozenset((v,)) for v in inst.vertices]
    for _ in range(3):
        seeds.append(frozenset(v for v in inst.vertices if rng.random() < 0.4))
    for seed_set in seeds:
        if run_activation(inst, seed_set) != run_activation(image, seed_set):
            yield f"seed {spec.seed}: trace differs for {sorted(seed_set)}"
            break
    if exact_min_target_set(inst, limit=inst.n).optimum != exact_min_target_set(image, limit=image.n).optimum:
        yield f"seed {spec.seed}: minimum seed size differs across modes"


def _broken(image: Instance, fault: str, pick: int) -> Instance:
    """`image` with arc number `pick` dropped, or the threshold of vertex number `pick` raised by one
    unit of its integer view; an image with no arcs to drop comes back as it is."""
    edges, tau = list(image.edges), dict(image.tau)
    if fault == "drop":
        if not edges:
            return image
        del edges[pick % len(edges)]
    else:
        v = image.vertices[pick % image.n]
        tau[v] += Fraction(1, image.compiled.scale)
    return Instance(image.mode, image.vertices, tuple(edges), tau)


def _sorted_rounds(instance, seed):
    return list(map(sorted, _rounds(instance, seed)))


@given(model.instances(modes=(UNDIRECTED,), min_n=1, max_n=8, weights=_VALUES, thresholds=_VALUES),
       st.sampled_from([None, "drop", "raise"]), st.integers(0, 99), st.data())
@settings(max_examples=200, deadline=None)
def test_sorted_rounds_agree_exactly_when_traces_agree(inst, fault, pick, data):
    image = reductions.to_bidirected(inst).image
    if fault is not None:
        image = _broken(image, fault, pick)
    seeds = [frozenset((v,)) for v in inst.vertices]
    seeds += data.draw(st.lists(st.frozensets(st.sampled_from(inst.vertices)), max_size=4))
    for seed in seeds:
        same_trace = run_activation(inst, seed) == run_activation(image, seed)
        assert (_sorted_rounds(inst, seed) == _sorted_rounds(image, seed)) == same_trace
        if fault is None:
            assert same_trace


@pytest.mark.parametrize("fault", [None, "drop", "raise"])
@pytest.mark.parametrize("seed", range(3))
def test_run_check_matches_the_trace_comparison(seed, fault):
    with pytest.MonkeyPatch.context() as mp:
        if fault is not None:
            picks = random.Random(seed)
            mp.setattr(checks, "to_bidirected", lambda source: ReductionReceipt(
                _broken(reductions.to_bidirected(source).image, fault, picks.randrange(100)), {}))
        got = checks.run_check(NAME, 25, 9, seed)
        if fault is not None:
            picks.seed(seed)
        mp.setitem(checks.CHECKS, NAME, (_reference, *checks.CHECKS[NAME][1:]))
        want = checks.run_check(NAME, 25, 9, seed)
    assert got == want
    assert (fault is None) == (not got.failures)
    assert any("trace differs" in f for f in got.failures) == (fault is not None)


@pytest.mark.parametrize("name, reduction", [(NAME, "to_bidirected"), ("prop1-preservation", "tss_to_complete")])
def test_an_image_with_other_vertex_ids_raises(monkeypatch, name, reduction):
    def shifted(source):
        image = getattr(reductions, reduction)(source).image
        edges = tuple((u + 1, v + 1, w) for u, v, w in image.edges)
        return ReductionReceipt(Instance(image.mode, tuple(v + 1 for v in image.vertices), edges,
                                         {v + 1: t for v, t in image.tau.items()}), {})

    monkeypatch.setattr(checks, reduction, shifted)
    with pytest.raises(RuntimeError, match="reduction image changed the vertex ids"):
        checks.run_check(name, 1, 4, 0)
