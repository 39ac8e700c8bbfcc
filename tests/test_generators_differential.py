"""The integer generators against the Fraction generators they replaced.

`_gen_random_weighted`, `_gen_degenerate`, `_gen_cubic_t12`, `_gen_tournament`
and their helpers below are the former Fraction implementations of the
families, kept verbatim (the families renamed with a leading underscore) as
the reference. Hypothesis draws whole specs, and every spec must give the
same instance, down to its WTG bytes, its edge order and its integer view,
or the same exception with the same message.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from targetset import (
    DIRECTED,
    UNDIRECTED,
    GenSpec,
    Instance,
    build_instance,
    generate,
    parse_rational,
    serialize_wtg,
)


def _draw_weight(rng: random.Random, grid: str) -> Fraction:
    if grid == "int":
        return Fraction(rng.randint(1, 10))
    if grid == "halves":
        return Fraction(rng.randint(1, 20), 2)
    if grid == "unit":
        return Fraction(1)
    raise ValueError(f"unknown weight grid {grid!r}")


def _random_edges(rng: random.Random, spec: GenSpec) -> list[tuple[int, int, Fraction]]:
    if not 0 <= spec.edge_prob <= 1:
        raise ValueError(f"edge probability {spec.edge_prob} outside [0, 1]")
    n = spec.n
    ids = list(range(1, n + 1))
    chosen: set[tuple[int, int]] = set()
    if spec.connected and n >= 2:
        order = ids[:]
        rng.shuffle(order)
        for i in range(1, n):
            a, b = order[rng.randrange(i)], order[i]
            chosen.add((min(a, b), max(a, b)))
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            if (i, j) not in chosen and rng.random() < spec.edge_prob:
                chosen.add((i, j))
    return [(u, v, _draw_weight(rng, spec.weights)) for u, v in sorted(chosen)]


def _thresholds(rng: random.Random, spec: GenSpec, instance_edges, n) -> dict[int, Fraction]:
    totals = {v: Fraction(0) for v in range(1, n + 1)}
    degrees = {v: 0 for v in range(1, n + 1)}
    mu = None
    for u, v, w in instance_edges:
        totals[u] += w
        totals[v] += w
        degrees[u] += 1
        degrees[v] += 1
        mu = w if mu is None or w < mu else mu
    policy = spec.tau_policy
    fixed = parse_rational(spec.fixed_tau) if policy == "fixed" else 0
    if fixed < 0:
        raise ValueError(f"fixed threshold {fixed} is negative")
    tau: dict[int, Fraction] = {}
    for v in range(1, n + 1):
        if policy == "uniform":
            tau[v] = totals[v] * Fraction(rng.randint(0, 10), 8)
        elif policy == "capped":
            tau[v] = totals[v] * Fraction(rng.randint(0, 8), 8)
        elif policy == "fixed":
            tau[v] = fixed
        elif policy == "two-level":
            if mu is None:
                raise ValueError("two-level thresholds need at least one edge")
            tau[v] = totals[v] if rng.random() < 0.5 else totals[v] - mu
            if tau[v] < 0:  # checked after the draw, so the stream stays the same
                raise ValueError(f"two-level threshold of isolated vertex {v} would be negative")
        elif policy == "min-or-full":
            if mu is None:
                raise ValueError("min-or-full thresholds need at least one edge")
            tau[v] = mu if rng.random() < 0.5 else totals[v]
        elif policy == "degree-range":
            tau[v] = Fraction(rng.randint(1, max(1, degrees[v])))
        else:
            raise ValueError(f"unknown threshold policy {policy!r}")
    return tau


def _gen_random_weighted(spec: GenSpec) -> Instance:
    """Edge-probability random graph with weights and thresholds per spec."""
    if spec.n < 1:
        raise ValueError("need at least one vertex")
    rng = random.Random(spec.seed)
    edges = _random_edges(rng, spec)
    tau = _thresholds(rng, spec, edges, spec.n)
    return Instance(UNDIRECTED, tuple(range(1, spec.n + 1)), tuple(edges), tau)


def _gen_degenerate(spec: GenSpec) -> Instance:
    """Instance that is degenerate by construction.

    Draws a random vertex order and sets each threshold to the weight toward
    its predecessors plus a nonnegative random slack, so peeling always
    succeeds.
    """
    if spec.n < 1:
        raise ValueError("need at least one vertex")
    rng = random.Random(spec.seed)
    edges = _random_edges(rng, spec)
    order = list(range(1, spec.n + 1))
    rng.shuffle(order)
    rank = {v: i for i, v in enumerate(order)}
    back = {v: Fraction(0) for v in order}
    for u, v, w in edges:
        later = u if rank[u] > rank[v] else v
        back[later] += w
    tau = {}
    for v in order:
        slack = Fraction(rng.randint(0, 2 * spec.max_slack), 2)
        tau[v] = back[v] + slack
    return Instance(UNDIRECTED, tuple(range(1, spec.n + 1)), tuple(edges), tau)


def _gen_cubic_t12(spec: GenSpec) -> Instance:
    """Random 3-regular simple graph, unit weights, thresholds in {1, 2}.

    Uses the pairing model with rejection until the pairing is simple.
    """
    n = spec.n
    if n < 4 or n % 2:
        raise ValueError(f"no 3-regular simple graph on {n} vertices")
    rng = random.Random(spec.seed)
    stubs = [v for v in range(1, n + 1) for _ in range(3)]
    for _ in range(10000):
        rng.shuffle(stubs)
        pairs = {(min(a, b), max(a, b)) for a, b in zip(stubs[::2], stubs[1::2])}
        if len(pairs) == 3 * n // 2 and all(a != b for a, b in pairs):
            edges = tuple((u, v, Fraction(1)) for u, v in sorted(pairs))
            tau = {v: Fraction(rng.choice((1, 2))) for v in range(1, n + 1)}
            return Instance(UNDIRECTED, tuple(range(1, n + 1)), edges, tau)
    raise RuntimeError(f"could not pair a simple cubic graph on {n} vertices")


def _gen_tournament(spec: GenSpec) -> Instance:
    """Random orientation of a complete graph with positive weights.

    Thresholds are drawn at or below each vertex's incoming weight sum.
    """
    n = spec.n
    if n < 2:
        raise ValueError("a tournament needs at least two vertices")
    rng = random.Random(spec.seed)
    arcs = []
    for u in range(1, n + 1):
        for v in range(u + 1, n + 1):
            w = _draw_weight(rng, spec.weights)
            arcs.append((u, v, w) if rng.random() < 0.5 else (v, u, w))
    insum = {v: Fraction(0) for v in range(1, n + 1)}
    for _, v, w in arcs:
        insum[v] += w
    tau = {v: insum[v] * Fraction(rng.randint(0, 8), 8) for v in range(1, n + 1)}
    return Instance(DIRECTED, tuple(range(1, n + 1)), tuple(arcs), tau)



_REFERENCE = {
    "random": _gen_random_weighted,
    "degenerate": _gen_degenerate,
    "cubic": _gen_cubic_t12,
    "tournament": _gen_tournament,
}
_POLICIES = ("uniform", "capped", "fixed", "two-level", "min-or-full", "degree-range")


def _outcome(family, spec):
    try:
        return family(spec)
    except (ValueError, RuntimeError) as exc:
        return type(exc), str(exc)


@st.composite
def _specs(draw):
    family = draw(st.sampled_from(sorted(_REFERENCE)))
    # Other families take only the default policy; now and then they get another one.
    if family == "random" or draw(st.integers(0, 5)) == 0:
        policy = draw(st.sampled_from(_POLICIES))
    else:
        policy = "uniform"
    return GenSpec(
        family=family,
        n=draw(st.integers(1, 30)),
        seed=draw(st.integers(0, 2**32 - 1)),
        edge_prob=draw(st.one_of(
            st.sampled_from([0.0, 1.0, 0.5]),
            st.floats(0, 1),
            st.sampled_from([-0.25, 1.5]),
        )),
        weights=draw(st.sampled_from(["int", "halves", "unit"])),
        tau_policy=policy,
        fixed_tau=draw(st.one_of(
            st.builds(lambda a, b: f"{a}/{b}", st.integers(-3, 30), st.sampled_from([1, 2, 3, 7, 8])),
            st.builds(str, st.integers(-2, 12)),
            st.just("1.5"),
        )),
        connected=draw(st.booleans()),
        max_slack=draw(st.integers(-1, 4)),
    )


@given(_specs())
@settings(max_examples=400, deadline=None)
def test_generators_match_reference(spec):
    if not 0 <= spec.edge_prob <= 1 or (spec.family != "random" and spec.tau_policy != "uniform"):
        # Refused before any draw; the random and degenerate families refused a bad
        # edge probability before too, with the same message.
        with pytest.raises(ValueError) as info:
            generate(spec)
        if spec.family in ("random", "degenerate") and not 0 <= spec.edge_prob <= 1:
            assert _outcome(_REFERENCE[spec.family], spec) == (ValueError, str(info.value))
        return
    got = _outcome(generate, spec)
    expected = _outcome(_REFERENCE[spec.family], spec)
    if isinstance(expected, tuple):
        assert got == expected
        return
    assert isinstance(got, Instance)
    assert serialize_wtg(got) == serialize_wtg(expected)
    assert got.edges == expected.edges
    assert dict(got.tau) == dict(expected.tau)
    assert got == expected and hash(got) == hash(expected)
    assert got.compiled == Instance(got.mode, got.vertices, got.edges, dict(got.tau)).compiled
    assert got.total_weight == sum((w for _, _, w in expected.edges), start=Fraction(0))
    assert got.tau_total == sum(expected.tau.values(), start=Fraction(0))


@pytest.mark.parametrize("mode", [UNDIRECTED, DIRECTED])
def test_sums_match_fraction_sums(mode):
    edges = [(1, 2, "0"), (2, 3, "3/7"), (3, 1, "5/9"), (3, 4, "0"), (4, 5, "2/11"), (5, 1, "7")]
    tau = ["1/7", "0", "4/9", "10/11", "2"]
    inst = build_instance(mode, 5, edges, tau)
    assert inst.compiled.scale == 7 * 9 * 11
    assert inst.total_weight == sum((parse_rational(w) for _, _, w in edges), start=Fraction(0))
    assert inst.tau_total == sum(map(parse_rational, tau), start=Fraction(0))
    zero = build_instance(mode, 3, [(1, 2, 0), (2, 3, 0)], 0)
    assert zero.total_weight == zero.tau_total == 0
