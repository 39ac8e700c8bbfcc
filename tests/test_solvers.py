"""Polynomial solvers against frozen examples and the exhaustive oracles."""

import random
from collections import Counter
from fractions import Fraction

import pytest

import model
import targetset.instance as instance_module
from targetset import solvers
from targetset import (
    DIRECTED,
    GenSpec,
    PreconditionError,
    UNDIRECTED,
    approx_target_set,
    build_instance,
    classify_and_solve,
    exact_min_target_set,
    exact_min_target_vector,
    exact_min_vertex_cover,
    generate,
    is_target_set,
    is_target_vector,
    solve_degenerate,
    solve_min_or_full,
    solve_two_level,
    target_vector_lower_bound,
    vertex_cover_target_set,
)


def path3(tau=1):
    return build_instance(UNDIRECTED, 3, [(1, 2), (2, 3)], tau)


def triangle(tau=1):
    return build_instance(UNDIRECTED, 3, [(1, 2), (1, 3), (2, 3)], tau)


# ---------------------------------------------------------------- approx set

def test_approx_on_path_is_optimal():
    result = approx_target_set(path3())
    assert result.seed == {3}
    assert result.tau_max == 1 and result.min_positive_slack == 1
    assert result.claimed_ratio == 1
    assert exact_min_target_set(path3()).optimum == 1


def test_approx_on_saturated_triangle():
    inst = triangle(2)
    result = approx_target_set(inst)
    assert result.seed == {2, 3}
    assert is_target_set(inst, result.seed)
    opt = exact_min_target_set(inst).optimum
    assert opt == 2
    assert Fraction(len(result.seed)) <= result.claimed_ratio * opt


def test_approx_zero_thresholds_selects_nothing():
    # with zero thresholds the peel precondition needs zero incident sums,
    # so these are the shapes on which the empty selection is reachable
    edgeless = build_instance(UNDIRECTED, 3, [], 0)
    weightless = build_instance(UNDIRECTED, 3, [(1, 2, 0), (1, 3, 0), (2, 3, 0)], 0)
    for inst in (edgeless, weightless):
        result = approx_target_set(inst)
        assert result.seed == frozenset()
        assert result.min_positive_slack is None and result.claimed_ratio is None
        assert is_target_set(inst, frozenset())
    # zero thresholds over positive weights violate the degeneracy condition
    with pytest.raises(PreconditionError):
        approx_target_set(triangle(0))


def test_approx_rejects_non_degenerate_input():
    with pytest.raises(PreconditionError):
        approx_target_set(triangle(1))


# ----------------------------------------------------------- degenerate OTV

def test_degenerate_solver_on_path():
    report = solve_degenerate(path3())
    assert report.cost == 1
    assert report.cost == exact_min_target_vector(path3()).optimum
    assert is_target_vector(path3(), report.incentives)


def test_degenerate_solver_on_saturated_triangle():
    inst = triangle(2)
    report = solve_degenerate(inst)
    assert report.cost == 3  # 6 - 3
    assert report.cost == exact_min_target_vector(inst).optimum


def test_degenerate_solver_edgeless_pays_thresholds():
    inst = build_instance(UNDIRECTED, 2, [], [2, 3])
    report = solve_degenerate(inst)
    assert report.incentives == dict(inst.tau)
    assert report.cost == 5


# ------------------------------------------------------------- lower bound

def test_lower_bound_examples():
    assert target_vector_lower_bound(path3()) == 1
    # Each vertex receives 2 against a threshold of 1, so none peels and the
    # last to activate wastes at least 1: the bound meets the optimum.
    assert target_vector_lower_bound(triangle(1)) == 1
    assert exact_min_target_vector(triangle(1)).optimum == 1
    assert target_vector_lower_bound(build_instance(UNDIRECTED, 2, [], [2, 3])) == 5


def test_lower_bound_counts_each_vertex_excess():
    # Vertex 1 needs 5 and receives at most 3, so it is paid 2; vertex 2 is
    # free and activates it for the rest. The sum of thresholds minus
    # weights is negative.
    inst = build_instance(UNDIRECTED, 3, [(3, 2, 10), (2, 1, 3)], {1: 5, 2: 0, 3: 0})
    assert target_vector_lower_bound(inst) == 2 == exact_min_target_vector(inst).optimum


# ---------------------------------------------------------------- two-level

def test_two_level_unit_triangle_all_low():
    inst = triangle(1)  # every tau equals incident sum minus the minimum weight
    report = solve_two_level(inst)
    assert report.cost == 1
    assert report.certificate["branch"] == "split"
    assert exact_min_target_vector(inst).optimum == 1
    for pair in [(1, 2), (1, 3), (2, 3)]:
        other = solve_two_level(inst, removed_edge=pair)
        assert other.cost == 1
        assert is_target_vector(inst, other.incentives)


def test_two_level_with_a_saturated_vertex_goes_degenerate():
    inst = triangle([2, 1, 1])
    report = solve_two_level(inst)
    assert report.certificate["branch"] == "degenerate"
    assert report.cost == 1
    assert exact_min_target_vector(inst).optimum == 1


def test_two_level_zero_threshold_edge():
    inst = build_instance(UNDIRECTED, 2, [(1, 2)], [0, 0])
    assert solve_two_level(inst).cost == 0


def test_two_level_preconditions():
    with pytest.raises(PreconditionError):
        solve_two_level(triangle("3/2"))
    disconnected = build_instance(UNDIRECTED, 4, [(1, 2), (3, 4)], 1)
    with pytest.raises(PreconditionError):
        solve_two_level(disconnected)
    with pytest.raises(PreconditionError):
        solve_two_level(build_instance(DIRECTED, 2, [(1, 2)], 1))
    with pytest.raises(ValueError):
        solve_two_level(triangle(1), removed_edge=(1, 4))


# -------------------------------------------------------------- min-or-full

def test_min_or_full_triangle():
    inst = triangle([1, 2, 2])
    report = solve_min_or_full(inst)
    assert report.incentives == {1: Fraction(1), 2: Fraction(1), 3: Fraction(0)}
    assert report.cost == 2
    assert exact_min_target_vector(inst).optimum == 2


def test_min_or_full_star():
    inst = build_instance(UNDIRECTED, 3, [(1, 2), (1, 3)], [2, 1, 1])
    report = solve_min_or_full(inst)
    assert report.incentives == {1: Fraction(0), 2: Fraction(1), 3: Fraction(1)}
    assert report.cost == 2
    assert exact_min_target_vector(inst).optimum == 2


def test_min_or_full_single_edge_ambiguous_levels():
    inst = build_instance(UNDIRECTED, 2, [(1, 2)], [1, 1])
    report = solve_min_or_full(inst)
    assert report.cost == 1
    assert exact_min_target_vector(inst).optimum == 1


def test_min_or_full_with_zero_weight_edge():
    # mu = 0, so the low class is exactly the zero-threshold vertices
    inst = build_instance(UNDIRECTED, 3, [(1, 2, 0), (1, 3, 2), (2, 3, 2)], [0, 2, 4])
    report = solve_min_or_full(inst)
    assert report.cost == 2
    assert report.cost == exact_min_target_vector(inst).optimum
    assert is_target_vector(inst, report.incentives)


def test_min_or_full_preconditions():
    with pytest.raises(PreconditionError):
        solve_min_or_full(triangle("3/2"))
    with pytest.raises(PreconditionError):
        solve_min_or_full(build_instance(UNDIRECTED, 2, [], 1))


# ------------------------------------------------------------- vertex cover

def test_cover_bound_on_path():
    cover = vertex_cover_target_set(path3())
    assert cover == {1, 2}
    assert is_target_set(path3(), cover)
    assert exact_min_vertex_cover(path3()).optimum == 1
    assert is_target_set(path3(), {2})


def test_cover_bound_trivial_cases():
    empty = build_instance(UNDIRECTED, 3, [], 0)
    assert vertex_cover_target_set(empty) == frozenset()
    inst = triangle(2)
    assert vertex_cover_target_set(inst) == {1, 2}


def test_cover_bound_precondition_names_the_vertex():
    inst = build_instance(UNDIRECTED, 2, [(1, 2)], [1, 9])
    with pytest.raises(PreconditionError, match="vertex 2"):
        vertex_cover_target_set(inst)
    inst = build_instance(UNDIRECTED, 3, [(1, 2, "1/2"), (2, 3, 2)], ["1/2", 3, "5/2"])
    with pytest.raises(PreconditionError, match="^vertex 2 has threshold 3 above its incident sum 5/2; "
                                                "a vertex cover cannot be guaranteed to activate it$"):
        vertex_cover_target_set(inst)


# ----------------------------------------------------------------- classify

def test_classify_dispatches_degenerate_first():
    report = classify_and_solve(path3())
    assert report is not None and report.method == "degenerate"
    assert report.cost == 1


def test_classify_reaches_two_level():
    report = classify_and_solve(triangle(1))
    assert report is not None and report.method == "two-level"
    assert report.cost == 1


def test_classify_reaches_min_or_full():
    # unequal weights keep tau = mu away from the two-level pattern, and the
    # whole triangle is stuck (no vertex reaches its incident sum)
    inst = build_instance(UNDIRECTED, 3, [(1, 2, 1), (1, 3, 2), (2, 3, 2)], 1)
    report = classify_and_solve(inst)
    assert report is not None and report.method == "min-or-full"
    assert report.cost == 1
    assert report.cost == exact_min_target_vector(inst).optimum


def test_classify_unsupported_patterns():
    k4 = build_instance(
        UNDIRECTED, 4,
        [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)],
        "5/2",
    )
    assert classify_and_solve(k4) is None
    assert classify_and_solve(build_instance(DIRECTED, 2, [(1, 2)], 1)) is None


def _unit_triangle_and(extra_edges, extra_tau):
    """The stuck all-low unit triangle on 1, 2, 3 plus further edges and thresholds."""
    tau = {1: 1, 2: 1, 3: 1, **extra_tau}
    return build_instance(UNDIRECTED, len(tau), [(1, 2), (1, 3), (2, 3), *extra_edges], tau)


@pytest.mark.parametrize("inst, method", [
    # A saturated vertex peels at once and frees its neighbours on the all-low side, so a two-level
    # instance that does not peel is disconnected, and two-level refuses it: min-or-full or nothing.
    (_unit_triangle_and([(4, 5)], {4: 1, 5: 1}), "min-or-full"),
    (_unit_triangle_and([(4, 5)], {4: 1, 5: 0}), None),
    # All-low but disconnected: min-or-full when every threshold is also mu, else nothing.
    (_unit_triangle_and([(4, 5), (4, 6), (5, 6)], {4: 1, 5: 1, 6: 1}), "min-or-full"),
    (_unit_triangle_and([(4, 5, 2), (4, 6, 2), (5, 6, 2)], {4: 3, 5: 3, 6: 3}), None),
    # mu = 0: all-low would be saturated, so only min-or-full can hold.
    (build_instance(UNDIRECTED, 3, [(1, 2, 1), (2, 3, 0)], 0), "min-or-full"),
    (_unit_triangle_and([(3, 4, 0)], {4: 0}), None),
], ids=["saturated-min-or-full", "saturated-none", "disconnected-min-or-full", "disconnected-none",
        "zero-weight-min-or-full", "zero-weight-none"])
def test_classify_falls_through_as_trying_each_solver_does(inst, method):
    report = classify_and_solve(inst)
    assert report == model.outcome(model.classify_and_solve, inst)
    assert (report and report.method) == method


@pytest.mark.parametrize("inst, peels, passes", [
    (path3(), 1, 0),
    (triangle(1), 2, 1),  # the instance's peel, then the split's peel without the removed edge
    (build_instance(UNDIRECTED, 3, [(1, 2, 1), (1, 3, 2), (2, 3, 2)], 1), 1, 1),
    (build_instance(UNDIRECTED, 4, [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)], "5/2"), 1, 0),
], ids=["degenerate", "all-low-two-level", "min-or-full", "no-class"])
def test_classify_peels_once_and_labels_components_only_when_needed(monkeypatch, inst, peels, passes):
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(solvers, "_peel", counted("peel", solvers._peel))
    label = counted("components", instance_module._label_components)
    monkeypatch.setattr(instance_module, "_label_components", label)
    monkeypatch.setattr(solvers, "_label_components", label)
    classify_and_solve(inst)
    assert (calls["peel"], calls["components"]) == (peels, passes)


def test_two_level_labels_components_once_per_view(monkeypatch):
    # All-low K4 with unit weights: every one of its six edges is a minimum-weight edge.
    inst = build_instance(UNDIRECTED, 4, [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)], 2)
    passes, label = [], instance_module._label_components

    def counted(*args):
        passes.append(args)
        return label(*args)

    monkeypatch.setattr(instance_module, "_label_components", counted)
    monkeypatch.setattr(solvers, "_label_components", counted)
    reports = [solve_two_level(inst)]
    reports += [solve_two_level(inst, removed_edge=(u, v)) for u, v, _ in inst.edges]
    reports.append(classify_and_solve(inst))
    assert {r.certificate["branch"] for r in reports} == {"split"} and len({r.cost for r in reports}) == 1
    assert len(passes) == 1


# ------------------------------------------------- random oracle spot sweep

def test_solver_costs_match_oracle_on_small_random_instances():
    rng = random.Random(42)
    for _ in range(30):
        inst = generate(GenSpec(family="degenerate", n=rng.randint(1, 7),
                                seed=rng.randrange(2**32)))
        assert solve_degenerate(inst).cost == exact_min_target_vector(inst, limit=7).optimum
