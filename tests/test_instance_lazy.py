"""`Instance.edges` and `tau` of instances built from integers, made on first read.

Parsed, generated and reduced instances come from `Instance._from_values`,
which builds only the integer view and keeps the lists it was given. The
Fraction triples and the threshold map appear on the first read of either
field. These tests pin what that read returns against an eager reference
made from the same lists, show that the activation engine, the peel, the
solvers and the oracles never cause it, and check that the fields stay
frozen and that the constructor's errors name the same offender as
`validate`.
"""

import dataclasses
import pickle
import random
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from types import MappingProxyType

import pytest

from targetset import (
    DIRECTED,
    UNDIRECTED,
    GenSpec,
    Instance,
    ValidationError,
    classify_and_solve,
    degenerate_to_complete,
    exact_min_target_set,
    exact_min_target_vector,
    exact_min_vertex_cover,
    generate,
    grid_min_target_vector,
    min_edge_weight,
    parse_wtg,
    peel_ordering,
    run_activation,
    run_with_incentives,
    serialize_wtg,
    to_bidirected,
    tss_to_complete,
    vertex_cover_target_set,
)
from targetset.checks import _mixed_spec, _with_tau, random_degenerate_tss_instance

_SPECS = [
    GenSpec(family="random", n=12, seed=1, edge_prob=0.4, weights="halves", tau_policy="two-level",
            connected=True),
    GenSpec(family="random", n=9, seed=2, edge_prob=0.5, weights="int", tau_policy="capped"),
    GenSpec(family="random", n=10, seed=3, edge_prob=0.3, weights="unit", tau_policy="fixed",
            fixed_tau="3/7"),
    GenSpec(family="random", n=8, seed=4, edge_prob=0.5, weights="halves", tau_policy="min-or-full"),
    GenSpec(family="random", n=11, seed=12, edge_prob=0.3, weights="halves", tau_policy="degree-range"),
    GenSpec(family="random", n=6, seed=13, edge_prob=0.0),
    GenSpec(family="degenerate", n=15, seed=5, edge_prob=0.3, weights="halves", max_slack=2),
    GenSpec(family="cubic", n=12, seed=6),
    GenSpec(family="tournament", n=7, seed=7),
    GenSpec(family="random", n=1, seed=8),
]


def _generated():
    return [generate(spec) for spec in _SPECS]


def _parsed():
    """Both parser paths: the bulk reader on `serialize_wtg`'s layout, the line parser on a comment."""
    texts = [serialize_wtg(inst) for inst in _generated()]
    texts.append("wtg 1\nmode directed\nn 3\nv 1 2/4\nv 3 0/7\nv 2 5\ne 3 1 6/4\ne 1 2 1/3\ne 2 1 1\n")
    texts.append("wtg 1\nmode undirected\nn 2\nv 2 1\nv 1 3\n")
    return [parse_wtg(t)[0] for t in texts] + [parse_wtg(t + "# end\n")[0] for t in texts]


def _reduced():
    unit = generate(GenSpec(family="random", n=6, seed=11, edge_prob=0.5, weights="unit",
                            tau_policy="fixed", connected=True))
    degenerate = random_degenerate_tss_instance(random.Random(3), 7)
    return [
        to_bidirected(generate(_SPECS[0])).image,
        to_bidirected(parse_wtg("wtg 1\nmode undirected\nn 3\nv 1 1/2\nv 2 1\nv 3 0\ne 3 1 5/6\n")[0]).image,
        tss_to_complete(unit).image,
        degenerate_to_complete(degenerate).image,
        degenerate,
    ]


def _cases():
    return ([("generated", inst) for inst in _generated()] + [("parsed", inst) for inst in _parsed()]
            + [("reduced", inst) for inst in _reduced()])


@pytest.mark.parametrize("case", range(len(_cases())))
def test_lazy_fields_match_an_eager_reference(case):
    _, inst = _cases()[case]
    assert "edges" not in vars(inst) and "tau" not in vars(inst)
    # The lists `_from_values` was handed, made eagerly as the constructor did before: endpoint
    # positions map through `inst.vertices`, and each (numerator, denominator) pair is a Fraction.
    tails, heads, weights, tau, value = vars(inst)["_values"]
    ids, value = inst.vertices, {k: Fraction(*pair) for k, pair in value.items()}
    edges = tuple([(ids[u], ids[v], value[k]) for u, v, k in zip(tails, heads, weights)])
    thresholds = dict(zip(ids, map(value.__getitem__, tau)))
    eager = Instance(inst.mode, inst.vertices, edges, thresholds)
    assert inst.edges == edges
    assert all(type(w) is Fraction for _, _, w in inst.edges)
    assert type(inst.tau) is MappingProxyType
    assert list(inst.tau.items()) == list(thresholds.items())
    assert all(type(t) is Fraction for t in inst.tau.values())
    # Built once, then plain attributes; the lists are released.
    assert vars(inst)["edges"] is inst.edges and vars(inst)["tau"] is inst.tau
    assert "_values" not in vars(inst)
    assert inst == eager and hash(inst) == hash(eager)
    assert repr(inst) == repr(eager)
    assert inst.compiled == eager.compiled
    back = pickle.loads(pickle.dumps(inst))
    assert back == inst and back.edges == inst.edges and dict(back.tau) == dict(inst.tau)


@pytest.mark.parametrize("read", [
    lambda inst: hash(inst),
    lambda inst: inst == inst,
    lambda inst: repr(inst),
    lambda inst: pickle.dumps(inst),
    lambda inst: dataclasses.replace(inst),
    lambda inst: inst.tau,
])
def test_every_reader_of_the_fields_sees_the_eager_values(read):
    text = serialize_wtg(generate(_SPECS[0]))
    lazy, eager = parse_wtg(text)[0], parse_wtg(text)[0]
    expected = (eager.edges, dict(eager.tau))
    read(lazy)
    assert (lazy.edges, dict(lazy.tau)) == expected
    assert "_values" not in vars(lazy)


def _parsed_from(spec):
    return parse_wtg(serialize_wtg(generate(spec)))[0]


def test_engine_peel_and_solvers_never_build_the_fields():
    for policy in ("uniform", "two-level", "min-or-full"):
        inst = _parsed_from(GenSpec(n=20, seed=9, edge_prob=0.3, weights="halves", tau_policy=policy,
                                    connected=True))
        report = classify_and_solve(inst)
        run_activation(inst, {1})
        run_with_incentives(inst, report.incentives if report else {})
        peel_ordering(inst)
        # Thresholds at the incident sums, which the cover bound needs.
        saturated = _with_tau(inst, inst.compiled.totals)
        vertex_cover_target_set(saturated)
        for built in (inst, saturated):
            assert "edges" not in vars(built) and "tau" not in vars(built), policy
    small = _parsed_from(GenSpec(n=9, seed=9, edge_prob=0.4, weights="halves", tau_policy="capped"))
    exact_min_target_set(small)
    exact_min_target_vector(small)
    exact_min_vertex_cover(small)
    integer = _parsed_from(GenSpec(n=5, seed=9, edge_prob=0.5, weights="unit", tau_policy="degree-range"))
    grid_min_target_vector(integer)
    for built in (small, integer):
        assert "edges" not in vars(built) and "tau" not in vars(built)


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("policy, rule", [("two-level", "all-low"), ("min-or-full", "mu"),
                                          ("min-or-full", "full")])
def test_with_tau_equals_the_public_rebuild(policy, rule, seed):
    """The three re-thresholdings of the two-level and min-or-full sweeps, on their draws."""
    rng = random.Random(seed)
    inst = generate(_mixed_spec(rng, rng.randint(2, 9), tau_policy=policy, connected=True))
    view, mu, totals = inst.compiled, min_edge_weight(inst), inst.incident_totals
    scaled, public = {
        "all-low": ([t - view.min_weight for t in view.totals], {v: totals[v] - mu for v in inst.vertices}),
        "mu": ([view.min_weight] * inst.n, dict.fromkeys(inst.vertices, mu)),
        "full": (view.totals, totals),
    }[rule]
    got = _with_tau(inst, scaled)
    expected = Instance(inst.mode, inst.vertices, inst.edges, public)
    assert got == expected and got.compiled == expected.compiled
    assert got.edges == expected.edges and dict(got.tau) == dict(expected.tau)


def test_threads_reading_one_instance_see_the_same_fields():
    text = serialize_wtg(generate(_SPECS[6]))
    eager = parse_wtg(text)[0]
    expected = (eager.edges, dict(eager.tau))
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            inst = parse_wtg(text)[0]
            start = threading.Barrier(8)

            def read(field, inst=inst, start=start):
                start.wait(timeout=10)
                return getattr(inst, field)

            with ThreadPoolExecutor(8) as pool:
                futures = [pool.submit(read, field) for field in ("edges", "tau") * 4]
                got = [f.result(timeout=10) for f in futures]
            assert all((g, dict(t)) == expected for g, t in zip(got[::2], got[1::2]))
            assert (inst.edges, dict(inst.tau)) == expected and "_values" not in vars(inst)
    finally:
        sys.setswitchinterval(switch)


@pytest.mark.parametrize("first_read", [False, True])
@pytest.mark.parametrize("field", ["edges", "tau"])
def test_lazy_fields_are_frozen(first_read, field):
    inst = parse_wtg(serialize_wtg(generate(_SPECS[1])))[0]
    if first_read:
        before = getattr(inst, field)
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(inst, field, ())
    with pytest.raises(dataclasses.FrozenInstanceError):
        delattr(inst, field)
    if first_read:
        assert getattr(inst, field) is before
    assert inst == generate(_SPECS[1])


def test_unknown_attribute_is_still_an_attribute_error():
    inst = generate(_SPECS[0])
    with pytest.raises(AttributeError, match="'Instance' object has no attribute 'weights'"):
        inst.weights
    assert not hasattr(inst, "_values_of_nothing")
    assert "edges" not in vars(inst)


def _violation(build):
    with pytest.raises(ValidationError) as info:
        build()
    return info.value.violation


@pytest.mark.parametrize("mode", [UNDIRECTED, DIRECTED])
def test_negative_values_name_the_offender_validate_names(mode):
    vertices = (2, 5, 7, 9)
    tails, heads = [2, 7, 9, 5, 2], [5, 2, 7, 9, 9]
    weights = [1, 3, -1, -4, -1]
    tau = [0, -2, 4, -1]
    cases = [(weights, [0, 2, 4, 1]), ([1, 3, 0, 4, 1], tau), (weights, tau)]
    for ws, ts in cases:
        def public():
            return Instance(mode, vertices, [(u, v, Fraction(w, 6)) for u, v, w in zip(tails, heads, ws)],
                            {v: Fraction(t, 4) for v, t in zip(vertices, ts)})

        def lazy():
            return Instance._from_ints(mode, vertices, tails, heads, ws, 6, ts, 4)

        assert _violation(lazy) == _violation(public)
    text = "wtg 1\nmode %s\nn 3\nv 1 1\nv 2 -1/3\nv 3 -2\ne 1 2 1/2\ne 2 3 -3/9\ne 1 3 -1\n" % mode
    for doc in (text, text + "# end\n"):
        got = _violation(lambda: parse_wtg(doc))
        assert (got.rule, got.detail) == ("negative-weight", "edge (2, 3) has negative weight -1/3")
    text = text.replace("-3/9", "3/9").replace("-1\n", "1\n")
    for doc in (text, text + "# end\n"):
        got = _violation(lambda: parse_wtg(doc))
        assert (got.rule, got.detail) == ("negative-threshold", "vertex 2 has negative threshold -1/3")
