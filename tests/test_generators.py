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
from targetset import generators


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


@pytest.mark.parametrize("family,n", [("random", 4), ("degenerate", 4), ("cubic", 4), ("tournament", 4)])
def test_every_family_refuses_options_it_does_not_read(family, n):
    for p in (-0.5, 1.5, float("nan")):
        with pytest.raises(ValueError, match="outside \\[0, 1\\]"):
            generate(GenSpec(family=family, n=n, edge_prob=p))
    policies = ("capped", "fixed", "two-level", "min-or-full", "degree-range")
    for policy in policies if family != "random" else ():
        with pytest.raises(ValueError, match=f"threshold policy '{policy}' is for the random family"):
            generate(GenSpec(family=family, n=n, tau_policy=policy, fixed_tau="-1"))


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


def test_size_limits_admit_the_limit_and_refuse_one_more(monkeypatch):
    # Lowered, so that a run at each limit is cheap; the refusal comes before any draw.
    monkeypatch.setattr(generators, "MAX_PAIRS", 45)
    assert generate(GenSpec(n=10, seed=1, edge_prob=0.0)).n == 10
    for family in ("random", "degenerate", "tournament"):
        with pytest.raises(ValueError, match="11 vertices make 55 vertex pairs, over the limit of 45"):
            generate(GenSpec(family=family, n=11, seed=1, edge_prob=0.0))
    monkeypatch.setattr(generators, "MAX_PAIRS", 10**6)
    monkeypatch.setattr(generators, "MAX_EDGES", 10)
    at_limit = [GenSpec(n=11, seed=1, edge_prob=0.0, connected=True),  # the tree's 10 edges
                GenSpec(family="degenerate", n=5, seed=1, edge_prob=1.0),
                GenSpec(family="tournament", n=5, seed=1)]
    for spec in at_limit:
        assert len(generate(spec).edges) == 10
    assert len(generate(GenSpec(family="cubic", n=6, seed=1)).edges) == 9
    over = [GenSpec(n=12, seed=1, edge_prob=0.0, connected=True),
            GenSpec(family="degenerate", n=6, seed=1, edge_prob=1.0),
            GenSpec(family="tournament", n=6, seed=1),
            GenSpec(family="cubic", n=8, seed=1)]
    for spec in over:
        with pytest.raises(ValueError, match="edges, over the limit of 10$"):
            generate(spec)


def test_size_limits_as_stated():
    generators._check_size(GenSpec(n=17321, edge_prob=0.0))  # 149,999,860 pairs
    with pytest.raises(ValueError, match="150,017,181 vertex pairs"):
        generators._check_size(GenSpec(n=17322, edge_prob=0.0))
    generators._check_size(GenSpec(n=2000, edge_prob=1.0))  # 1,999,000 edges
    with pytest.raises(ValueError, match="expect 2,001,000 edges"):
        generators._check_size(GenSpec(n=2001, edge_prob=1.0))
    # The largest instances measured so far stay admitted.
    generators._check_size(GenSpec(n=1000, edge_prob=1.0))
    generators._check_size(GenSpec(family="degenerate", n=8000, edge_prob=8 / 8000, connected=True))
