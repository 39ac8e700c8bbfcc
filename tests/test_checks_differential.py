"""The prop1-preservation sweep against the exhaustive loop it replaced.

`_reference` below is the former `checks._tss_preservation`, kept verbatim:
it puts every subset of the source's vertices to the engine, on the source
and on its complete-graph image. A model of the definitions cannot state
what it pins: the sweep's random stream, its failure lines and the order
of its engine calls. The sweep now skips each superset of a seed
that activates both, so the tests require the same failures and the same
random stream from both, also under embeddings broken on purpose, and that
the engine is asked about exactly the subsets that contain no such seed.
"""

import itertools
import random
import sys
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from targetset import Instance, checks, reductions
from targetset.engine import _activates_all as engine_activates_all, is_target_set as engine_is_target_set
from targetset.checks import (
    GenSpec,
    _child_seed,
    exact_min_target_set,
    generate,
    is_target_set,
    random_tss_instance,
    tss_to_complete,
)
from targetset.reductions import ReductionReceipt

NAME = "prop1-preservation"


def _reference(rng, i, max_n):
    """Complete-graph embedding preserves target sets subset by subset."""
    if i % 5 == 0:
        spec = GenSpec(family="cubic", n=rng.choice((4, 6)), seed=_child_seed(rng))
        inst = generate(spec)
        label = f"cubic seed {spec.seed}"
    else:
        inst = random_tss_instance(rng, rng.randint(2, max_n))
        label = f"instance {i}"
    image = tss_to_complete(inst).image
    for size in range(inst.n + 1):
        for combo in itertools.combinations(inst.vertices, size):
            seed_set = frozenset(combo)
            if is_target_set(inst, seed_set) != is_target_set(image, seed_set):
                yield f"{label}: subset {sorted(seed_set)} disagrees"
                return
    if exact_min_target_set(inst, limit=inst.n).optimum != exact_min_target_set(image, limit=image.n).optimum:
        yield f"{label}: minimum sizes differ"


def _broken(shift: int, pick: int):
    """`tss_to_complete` with the image threshold of one vertex moved by `shift` * n (by +1 when
    `shift` is 0), and kept at least 0.

    The image stays a valid instance with non-negative weights, so activation on it stays
    monotone; only the embedding is wrong.
    """
    def embed(source: Instance) -> ReductionReceipt:
        receipt = reductions.tss_to_complete(source)
        image = receipt.image
        v = image.vertices[pick % image.n]
        tau = dict(image.tau)
        tau[v] = max(0, tau[v] + (shift * image.n if shift else 1))
        return ReductionReceipt(Instance(image.mode, image.vertices, image.edges, tau), receipt.notes)

    return embed


# None keeps the real embedding.
EMBEDDINGS = (None, (0, 0), (0, 3), (1, 1), (-1, 0), (-1, 2), (-2, 5))


def _patched(mp: pytest.MonkeyPatch, embedding) -> None:
    if embedding is not None:
        embed = _broken(*embedding)
        mp.setattr(checks, "tss_to_complete", embed)
        mp.setattr(sys.modules[__name__], "tss_to_complete", embed)


def _counted(mp: pytest.MonkeyPatch) -> list:
    """Route both sweeps' engine calls through one recorder of (instance, seed, result).

    The reference asks `is_target_set` on ids. The sweep asks `_activates_all` on an integer view
    and positions; such a call is recorded with one stand-in per view that lists the view's ids as
    its `vertices`, and with the seed's positions mapped to those ids.
    """
    calls = []
    # id of a view -> (the view, kept so that its id is not reused; its stand-in)
    stand_ins = {}

    def recorded(instance, seed):
        result = engine_is_target_set(instance, seed)
        calls.append((instance, seed, result))
        return result

    def recorded_view(view, seed, need):
        result = engine_activates_all(view, seed, need)
        _, source = stand_ins.setdefault(id(view), (view, SimpleNamespace(vertices=tuple(view.position))))
        calls.append((source, frozenset(map(source.vertices.__getitem__, seed)), result))
        return result

    mp.setattr(checks, "is_target_set", recorded)
    mp.setattr(checks, "_activates_all", recorded_view)
    mp.setattr(sys.modules[__name__], "is_target_set", recorded)
    return calls


@given(st.integers(0, 2**32 - 1), st.integers(0, 9), st.integers(2, 9), st.sampled_from(EMBEDDINGS))
@settings(max_examples=300, deadline=None)
def test_sweep_matches_the_exhaustive_loop(seed, i, max_n, embedding):
    with pytest.MonkeyPatch.context() as mp:
        _patched(mp, embedding)
        calls = _counted(mp)
        rng = random.Random(seed)
        got = list(checks._tss_preservation(rng, i, max_n))
        got_state, got_calls = rng.getstate(), len(calls)
        rng = random.Random(seed)
        want = list(_reference(rng, i, max_n))
        assert got == want
        assert got_state == rng.getstate()
        assert got_calls <= len(calls) - got_calls


def test_broken_embeddings_disagree_after_skipped_seeds():
    """Guards the test above: some faults show only at a seed reached after skipped ones."""
    found = set()
    for embedding in EMBEDDINGS[1:]:
        for seed in range(40):
            with pytest.MonkeyPatch.context() as mp:
                _patched(mp, embedding)
                calls = _counted(mp)
                got = list(checks._tss_preservation(random.Random(seed), 1, 9))
                new = len(calls)
                want = list(_reference(random.Random(seed), 1, 9))
            assert got == want
            if got and new < len(calls) - new:
                found.add(embedding)
    assert len(found) >= 3, found


@pytest.mark.parametrize("embedding", [None, (0, 0), (-1, 2)])
@pytest.mark.parametrize("seed", range(3))
def test_run_check_matches_the_exhaustive_loop(seed, embedding):
    with pytest.MonkeyPatch.context() as mp:
        _patched(mp, embedding)
        got = checks.run_check(NAME, 25, 9, seed)
        mp.setitem(checks.CHECKS, NAME, (_reference, *checks.CHECKS[NAME][1:]))
        want = checks.run_check(NAME, 25, 9, seed)
    assert got == want
    assert embedding is None or got.failures


def _subsets_in_sweep_order(vertices):
    for size in range(len(vertices) + 1):
        yield from map(frozenset, itertools.combinations(vertices, size))


@pytest.mark.parametrize("embedding", [None, (-1, 2)])
@pytest.mark.parametrize("seed", range(4))
def test_engine_sees_exactly_the_seeds_without_a_common_target_set(seed, embedding):
    with pytest.MonkeyPatch.context() as mp:
        _patched(mp, embedding)
        calls = _counted(mp)
        result = checks.run_check(NAME, 20, 8, seed)
    sent = {}  # id of the source -> (source, [(seed, activates both)] in call order)
    for (source, seed_set, first), (image, again, second) in zip(calls[::2], calls[1::2]):
        assert again == seed_set and image is not source
        sent.setdefault(id(source), (source, []))[1].append((seed_set, first and second))
    assert len(calls) % 2 == 0 and len(sent) == result.checked
    skipped = 0
    for source, seeds in sent.values():
        both = []
        expected = []
        for seed_set in _subsets_in_sweep_order(source.vertices):
            if any(seed_set >= b for b in both):
                skipped += 1
                continue
            expected.append(seed_set)
            if len(expected) > len(seeds):
                break
            if seeds[len(expected) - 1][1]:
                both.append(seed_set)
        # The engine got exactly the seeds that contain no seed activating both, in sweep order,
        # up to the first disagreement.
        assert [s for s, _ in seeds] == expected[:len(seeds)]
        assert not any(s >= b for s, _ in seeds for b in both if s != b)
    assert skipped > 0
