"""Generators: reproducibility, validity, and family shapes."""

import itertools
import random

import pytest

from targetset import (
    DegeneracyOrdering,
    GenSpec,
    Instance,
    approx_target_set,
    generate,
    peel_ordering,
    validate,
)


@pytest.mark.parametrize("family", ["random", "degenerate", "cubic", "tournament"])
def test_same_spec_same_instance(family):
    n = 6 if family != "cubic" else 6
    spec = GenSpec(family=family, n=n, seed=12345)
    assert generate(spec) == generate(spec)


def test_every_generated_instance_validates():
    rng = random.Random(1)
    for _ in range(40):
        family = rng.choice(("random", "degenerate", "tournament"))
        n = rng.randint(1, 9) if family != "tournament" else rng.randint(2, 9)
        spec = GenSpec(family=family, n=n, seed=rng.randrange(2**32),
                       weights=rng.choice(("int", "halves", "unit")))
        assert validate(generate(spec)) is None


def test_random_extremes():
    single = generate(GenSpec(n=1, seed=3))
    assert single.n == 1 and single.edges == ()
    complete = generate(GenSpec(n=5, seed=3, edge_prob=1.0))
    assert len(complete.edges) == 10
    sparse = generate(GenSpec(n=5, seed=3, edge_prob=0.0, connected=True))
    assert len(sparse.edges) == 4  # spanning tree only


def test_cubic_family_shape():
    inst = generate(GenSpec(family="cubic", n=6, seed=9))
    degrees = {v: 0 for v in inst.vertices}
    for u, v, w in inst.edges:
        assert w == 1
        degrees[u] += 1
        degrees[v] += 1
    assert all(d == 3 for d in degrees.values())
    assert all(inst.tau[v] in (1, 2) for v in inst.vertices)


def test_cubic_on_four_vertices_is_complete():
    inst = generate(GenSpec(family="cubic", n=4, seed=0))
    assert len(inst.edges) == 6


@pytest.mark.parametrize("n", [2, 3, 5])
def test_cubic_rejects_infeasible_sizes(n):
    with pytest.raises(ValueError):
        generate(GenSpec(family="cubic", n=n, seed=0))


def test_tournament_shape():
    inst = generate(GenSpec(family="tournament", n=6, seed=4))
    assert inst.mode == "directed"
    pairs = {(min(u, v), max(u, v)) for u, v, _ in inst.edges}
    assert len(pairs) == len(inst.edges) == 15  # one arc per unordered pair
    assert all(w > 0 for _, _, w in inst.edges)
    for v in inst.vertices:
        assert inst.tau[v] <= inst.incident_totals[v]
    with pytest.raises(ValueError):
        generate(GenSpec(family="tournament", n=1, seed=4))


def test_degenerate_family_always_peels():
    rng = random.Random(2)
    for _ in range(30):
        spec = GenSpec(family="degenerate", n=rng.randint(1, 10),
                       seed=rng.randrange(2**32), max_slack=rng.randint(0, 3))
        assert isinstance(peel_ordering(generate(spec)), DegeneracyOrdering)


def test_zero_slack_degenerate_needs_no_seed():
    inst = generate(GenSpec(family="degenerate", n=7, seed=77, max_slack=0))
    assert approx_target_set(inst).seed == frozenset()


def test_bad_specs_rejected():
    with pytest.raises(ValueError):
        generate(GenSpec(family="nope", n=3))
    with pytest.raises(ValueError):
        generate(GenSpec(n=0))
    with pytest.raises(ValueError):
        generate(GenSpec(n=3, edge_prob=1.5))
    with pytest.raises(ValueError):
        generate(GenSpec(family="degenerate", n=3, edge_prob=1.5))
    with pytest.raises(ValueError):
        generate(GenSpec(n=3, tau_policy="nope"))


def test_every_draw_builds_or_is_a_bad_spec():
    # A spec the generator cannot honour raises ValueError (a usage error on
    # the CLI); an invalid instance would raise ValidationError out of here.
    families = ("random", "degenerate", "cubic", "tournament")
    policies = ("uniform", "capped", "fixed", "two-level", "min-or-full", "degree-range")
    for family, policy, seed, p in itertools.product(families, policies, range(20), (0.1, 0.5)):
        spec = GenSpec(family=family, n=6, seed=seed, edge_prob=p, tau_policy=policy)
        try:
            instance = generate(spec)
        except ValueError:
            continue
        assert isinstance(instance, Instance)
