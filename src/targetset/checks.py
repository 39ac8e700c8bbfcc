"""Named property sweeps: seeded random instances checked against oracles.

A sweep is a generator `(rng, i, max_n)`: it draws instance `i` from the
shared seeded `rng`, at most `max_n` vertices, and yields one message per
way that instance breaks the property. `run_check` owns the rng, the loop
and the `CheckResult`. Each oracle call passes the size of the instance
it checks as the limit, since some draws and reduction images exceed
`max_n`; only the oracles' memory ceilings refuse a size. `CHECKS` holds
each sweep's default instance count and size, which the acceptance suite
uses, so `targetset check <name>` and the tests run the same code.
"""

from __future__ import annotations

import itertools
import random
from collections.abc import Callable, Iterator, Sequence
from dataclasses import dataclass, replace as dc_replace
from fractions import Fraction
from operator import le, ne

from .degeneracy import (
    DegeneracyOrdering,
    brute_degeneracy_check,
    kappa_complement_check,
    peel_ordering,
)
from .engine import _activates_all, _rounds, is_target_set, is_target_vector
from .errors import OracleLimitError
from .generators import GenSpec, _check_size, generate
from .instance import UNDIRECTED, Instance, _view_edges, min_edge_weight
from .oracles import (
    exact_min_target_set,
    exact_min_target_vector,
    exact_min_vertex_cover,
    grid_min_target_vector,
)
from .reductions import degenerate_to_complete, to_bidirected, tss_to_complete
from .solvers import (
    approx_target_set,
    solve_degenerate,
    solve_min_or_full,
    solve_two_level,
    target_vector_lower_bound,
    vertex_cover_target_set,
)


@dataclass
class CheckResult:
    name: str
    checked: int
    failures: list[str]

    @property
    def passed(self) -> bool:
        return not self.failures


def _child_seed(rng: random.Random) -> int:
    return rng.randrange(2**32)


# The edge probabilities a sweep draws from.
_EDGE_PROBS = (0.2, 0.4, 0.6, 0.8)


def _mixed_spec(rng: random.Random, n: int, draw_slack: bool = False, **overrides) -> GenSpec:
    drawn = {  # drawn in this order even where `overrides` replaces them
        "seed": _child_seed(rng),
        "edge_prob": rng.choice(_EDGE_PROBS),
        "weights": rng.choice(("int", "halves", "unit")),
    }
    if draw_slack:
        drawn["max_slack"] = rng.randint(0, 3)
    return GenSpec(n=n, **{**drawn, **overrides})


def random_tss_instance(rng: random.Random, n: int) -> Instance:
    """Connected unit-weight instance with integer thresholds in [1, degree]."""
    return generate(
        _mixed_spec(rng, n, weights="unit", tau_policy="degree-range", connected=True)
    )


def random_degenerate_tss_instance(rng: random.Random, n: int) -> Instance:
    """Degenerate unit-weight instance with integer thresholds in [1, degree].

    Built order-first: along a random order, each threshold is at least the
    vertex's back-degree, clamped into [1, degree].
    """
    base = generate(_mixed_spec(rng, n, weights="unit", tau_policy="fixed", connected=True))
    order = list(base.vertices)
    rng.shuffle(order)
    rank = {v: i for i, v in enumerate(order)}
    degree = {v: len(pairs) for v, pairs in zip(base.vertices, base.compiled.incoming)}
    # The random family lists its edges row by row, which is the view's canonical order.
    tails, heads, _ = _view_edges(base)
    back = {v: 0 for v in base.vertices}
    for u, v in zip(tails, heads):
        back[u if rank[u] > rank[v] else v] += 1
    tau = [rng.randint(max(1, back[v]), max(1, back[v], degree[v])) for v in base.vertices]
    inst = Instance._from_ints(base.mode, base.vertices, tails, heads, [1] * len(tails), 1, tau, 1)
    if not isinstance(peel_ordering(inst), DegeneracyOrdering):
        raise RuntimeError("degenerate construction failed to peel")
    return inst


def _with_tau(inst: Instance, scaled_tau: Sequence[int]) -> Instance:
    """`inst` with thresholds `scaled_tau` (in vertex order) on the scale of its integer view."""
    scale = inst.compiled.scale
    tails, heads, weights = _view_edges(inst)
    return Instance._from_ints(inst.mode, inst.vertices, tails, heads, weights, scale, scaled_tau, scale)


def _degeneracy_oracle(rng: random.Random, i: int, max_n: int) -> Iterator[str]:
    """Peeling agrees with the exhaustive subgraph check; slacks stay nonnegative."""
    spec = _mixed_spec(rng, rng.randint(1, max_n))
    inst = generate(spec)
    verdict = brute_degeneracy_check(inst, limit=inst.n)
    got = peel_ordering(inst)
    if isinstance(got, DegeneracyOrdering):
        if not verdict:
            yield f"seed {spec.seed}: peel succeeded on a non-degenerate instance"
        if any(s < 0 for s in got.slacks.values()):
            yield f"seed {spec.seed}: negative slack in returned ordering"
        slack = sum(map(got.slacks.__getitem__, inst.vertices), start=Fraction(0))
        if inst.tau_total - slack != inst.total_weight:
            yield f"seed {spec.seed}: slack identity broken"
    elif verdict:
        yield f"seed {spec.seed}: peel stuck on a degenerate instance"


def _algorithm_one(rng: random.Random, i: int, max_n: int) -> Iterator[str]:
    """The positive-slack seed is a target set within tau_max/c of optimal."""
    spec = _mixed_spec(rng, rng.randint(1, max_n), draw_slack=True, family="degenerate")
    inst = generate(spec)
    result = approx_target_set(inst)
    if not is_target_set(inst, result.seed):
        yield f"seed {spec.seed}: selection is not a target set"
        return
    opt = exact_min_target_set(inst, limit=inst.n).optimum
    if not result.seed:
        if not is_target_set(inst, frozenset()):
            yield f"seed {spec.seed}: empty selection but empty seed does not activate"
    elif Fraction(len(result.seed)) > result.claimed_ratio * opt:
        yield (f"seed {spec.seed}: size {len(result.seed)} exceeds ratio bound "
               f"{result.claimed_ratio} * {opt}")


def _otvw_degenerate(rng: random.Random, i: int, max_n: int) -> Iterator[str]:
    """Slack incentives are optimal and cost exactly tau total minus weight total."""
    spec = _mixed_spec(rng, rng.randint(1, max_n), draw_slack=True, family="degenerate")
    inst = generate(spec)
    report = solve_degenerate(inst)
    formula = inst.tau_total - inst.total_weight
    oracle = exact_min_target_vector(inst, limit=inst.n).optimum
    if report.cost != formula:
        yield f"seed {spec.seed}: cost {report.cost} != formula {formula}"
    if report.cost != oracle:
        yield f"seed {spec.seed}: cost {report.cost} != oracle {oracle}"


def _two_level(rng: random.Random, i: int, max_n: int) -> Iterator[str]:
    """Two-level solver is exact and indifferent to the removed minimum edge."""
    spec = _mixed_spec(rng, rng.randint(2, max_n), tau_policy="two-level", connected=True)
    inst = generate(spec)
    mu = min_edge_weight(inst)
    if i % 3 == 0:
        # force the all-low branch
        view = inst.compiled
        inst = _with_tau(inst, [t - view.min_weight for t in view.totals])
    report = solve_two_level(inst)
    view = inst.compiled
    all_low = all(map(ne, view.tau, view.totals))
    expected = inst.tau_total - inst.total_weight + (mu if all_low else 0)
    oracle = exact_min_target_vector(inst, limit=inst.n).optimum
    if report.cost != expected:
        yield f"seed {spec.seed}: cost {report.cost} != formula {expected}"
    if report.cost != oracle:
        yield f"seed {spec.seed}: cost {report.cost} != oracle {oracle}"
    if all_low:
        for u, v, w in zip(*_view_edges(inst)):
            if w == view.min_weight and solve_two_level(inst, removed_edge=(u, v)).cost != expected:
                yield f"seed {spec.seed}: removing {(u, v)} changed the cost"


def _min_or_full(rng: random.Random, i: int, max_n: int) -> Iterator[str]:
    """Min-or-full solver returns engine-valid vectors matching the oracle."""
    spec = _mixed_spec(rng, rng.randint(2, max_n), tau_policy="min-or-full",
                       connected=i % 2 == 0)
    while True:
        try:
            inst = generate(spec)
            break
        except ValueError:  # edgeless draw cannot carry this threshold pattern
            spec = dc_replace(spec, seed=_child_seed(rng))
    view = inst.compiled
    if i % 4 == 0:
        inst = _with_tau(inst, [view.min_weight] * inst.n)
    elif i % 4 == 1:
        inst = _with_tau(inst, view.totals)
    report = solve_min_or_full(inst)
    if not is_target_vector(inst, report.incentives):
        yield f"seed {spec.seed}: vector failed engine verification"
    oracle = exact_min_target_vector(inst, limit=inst.n).optimum
    if report.cost != oracle:
        yield f"seed {spec.seed}: cost {report.cost} != oracle {oracle}"


def _tss_preservation(rng: random.Random, i: int, max_n: int) -> Iterator[str]:
    """Complete-graph embedding preserves target sets subset by subset.

    Seeds go by size, then in lexicographic order, as tuples of positions:
    the embedding keeps the ids, so a position names one vertex in both
    integer views, and ids are made only for a failure message. Activation
    is monotone in the seed on both instances, whose weights are
    non-negative even when the embedding is wrong, so a superset of a seed
    that activates both activates both again: it cannot disagree and is
    skipped. Every other seed is put to the engine, source first, which
    leaves the first disagreeing subset as in a full sweep. Once every
    subset agrees, the first seed that activates both is a smallest target
    set of each, and the oracle must find its size on the source.
    """
    if i % 5 == 0:
        spec = GenSpec(family="cubic", n=rng.choice((4, 6)), seed=_child_seed(rng))
        inst = generate(spec)
        label = f"cubic seed {spec.seed}"
    else:
        inst = random_tss_instance(rng, rng.randint(2, max_n))
        label = f"instance {i}"
    image = tss_to_complete(inst).image
    if image.vertices != inst.vertices:
        raise RuntimeError("reduction image changed the vertex ids")
    source_view, image_view = inst.compiled, image.compiled
    both: list[int] = []  # position masks of the seeds that activate both
    for size in range(inst.n + 1):
        for combo in itertools.combinations(range(inst.n), size):
            mask = 0
            for p in combo:
                mask |= 1 << p
            if any(mask & m == m for m in both):
                continue
            activates = _activates_all(source_view, combo, source_view.tau)
            if activates != _activates_all(image_view, combo, image_view.tau):
                yield f"{label}: subset {sorted(map(inst.vertices.__getitem__, combo))} disagrees"
                return
            if activates:
                both.append(mask)
    optimum, smallest = exact_min_target_set(inst, limit=inst.n).optimum, both[0].bit_count()
    if optimum != smallest:
        yield f"{label}: oracle minimum {optimum} != smallest common target set size {smallest}"


def _degenerate_preservation(rng: random.Random, i: int, max_n: int) -> Iterator[str]:
    """Hub embedding raises the minimum target set size by exactly one."""
    inst = random_degenerate_tss_instance(rng, rng.randint(2, max_n))
    image = degenerate_to_complete(inst).image
    dyn_source = exact_min_target_set(inst, limit=inst.n).optimum
    dyn_image = exact_min_target_set(image, limit=image.n).optimum
    if dyn_image != dyn_source + 1:
        yield f"instance {i}: {dyn_source} maps to {dyn_image}"


def _bounds(rng: random.Random, i: int, max_n: int) -> Iterator[str]:
    """Lower bound <= vector optimum <= tau total; minimum seed <= cover size."""
    policy = "capped" if i % 2 == 0 else "uniform"
    spec = _mixed_spec(rng, rng.randint(1, max_n), tau_policy=policy)
    inst = generate(spec)
    lb = target_vector_lower_bound(inst)
    opt = exact_min_target_vector(inst, limit=inst.n).optimum
    if not lb <= opt <= inst.tau_total:
        yield f"seed {spec.seed}: {lb} <= {opt} <= {inst.tau_total} fails"
    view = inst.compiled
    if all(map(le, view.tau, view.totals)):
        cover = vertex_cover_target_set(inst)
        if not is_target_set(inst, cover):
            yield f"seed {spec.seed}: cover is not a target set"
        dyn = exact_min_target_set(inst, limit=inst.n).optimum
        beta = exact_min_vertex_cover(inst, limit=inst.n).optimum
        if dyn > beta:
            yield f"seed {spec.seed}: minimum seed {dyn} exceeds cover bound {beta}"


def _bidirected(rng: random.Random, i: int, max_n: int) -> Iterator[str]:
    """Doubling each edge into opposite arcs changes nothing observable.

    The image keeps the ids, so two runs agree when their rounds, as sorted
    positions, do: exactly when their `run_activation` traces would.
    """
    spec = _mixed_spec(rng, rng.randint(1, max_n))
    inst = generate(spec)
    image = to_bidirected(inst).image
    if image.vertices != inst.vertices:
        raise RuntimeError("reduction image changed the vertex ids")
    seeds = [frozenset((v,)) for v in inst.vertices]
    for _ in range(3):
        seeds.append(frozenset(v for v in inst.vertices if rng.random() < 0.4))
    for seed_set in seeds:
        if list(map(sorted, _rounds(inst, seed_set))) != list(map(sorted, _rounds(image, seed_set))):
            yield f"seed {spec.seed}: trace differs for {sorted(seed_set)}"
            break
    if exact_min_target_set(inst, limit=inst.n).optimum != exact_min_target_set(image, limit=image.n).optimum:
        yield f"seed {spec.seed}: minimum seed size differs across modes"


def _kappa(rng: random.Random, i: int, max_n: int) -> Iterator[str]:
    """Complement-ordering test agrees with the engine on target sets."""
    inst = random_tss_instance(rng, rng.randint(2, max_n))
    candidates = [frozenset(), inst.vertex_set]
    for _ in range(4):
        candidates.append(frozenset(v for v in inst.vertices if rng.random() < 0.5))
    for target in candidates:
        if kappa_complement_check(inst, target) != is_target_set(inst, target):
            yield f"instance {i}: disagreement on {sorted(target)}"
            return


def _otv_grid(rng: random.Random, i: int, max_n: int) -> Iterator[str]:
    """Order-based vector oracle equals direct incentive-grid search.

    Random small cases with integer weights and thresholds in 0..3; ahead of
    them `run_check` compares every shape from `_grid_shapes`.
    """
    n = rng.randint(1, max_n)
    ids = tuple(range(1, n + 1))
    edges = [(u, v, rng.randint(0, 3)) for u, v in itertools.combinations(ids, 2) if rng.random() < 0.6]
    tails, heads, weights = [u for u, _, _ in edges], [v for _, v, _ in edges], [w for _, _, w in edges]
    tau = [rng.randint(0, 3) for _ in ids]
    inst = Instance._from_ints(UNDIRECTED, ids, tails, heads, weights, 1, tau, 1)
    yield from _grid_agrees(inst, f"random {i}")


def _grid_shapes(max_n: int) -> Iterator[tuple[Instance, str]]:
    """Every graph up to max_n vertices, unit weights, all integer thresholds in 0..3."""
    for n in range(1, max_n + 1):
        ids = tuple(range(1, n + 1))
        pairs = list(itertools.combinations(ids, 2))
        for edge_mask in range(1 << len(pairs)):
            edges = [(u, v) for b, (u, v) in enumerate(pairs) if edge_mask >> b & 1]
            tails, heads, weights = [u for u, _ in edges], [v for _, v in edges], [1] * len(edges)
            for tau_combo in itertools.product(range(4), repeat=n):
                inst = Instance._from_ints(UNDIRECTED, ids, tails, heads, weights, 1, tau_combo, 1)
                yield inst, f"n={n} edges={edge_mask} tau={tau_combo}"


def _grid_agrees(inst: Instance, label: str) -> Iterator[str]:
    dp = exact_min_target_vector(inst, limit=inst.n)
    grid = grid_min_target_vector(inst)
    if dp.optimum != grid.optimum:
        yield f"{label}: order oracle {dp.optimum} != grid {grid.optimum}"


_Sweep = Callable[[random.Random, int, int], Iterator[str]]

# name -> (property, default instances, default max_n)
CHECKS: dict[str, tuple[_Sweep, int, int]] = {
    "degeneracy-oracle": (_degeneracy_oracle, 500, 12),
    "algorithm-one": (_algorithm_one, 300, 10),
    "otvw-degenerate": (_otvw_degenerate, 300, 9),
    "two-level": (_two_level, 200, 9),
    "min-or-full": (_min_or_full, 200, 9),
    "prop1-preservation": (_tss_preservation, 100, 7),
    "prop3-preservation": (_degenerate_preservation, 100, 6),
    "bounds": (_bounds, 150, 8),
    "bidirected": (_bidirected, 100, 8),
    "kappa": (_kappa, 200, 10),
    "otv-grid": (_otv_grid, 300, 4),
}


# Worst-case work of the sweeps whose work grows without bound in max_n, as a function of
# (instances, max_n), with its unit and the time per unit in microseconds. Measured on one core of
# a shared 2-core host, Python 3.11, every drawn instance at the top size:
# - prop1-preservation visits up to 2^n seed subsets of each instance, where n is at most max_n,
#   or 6 for its cubic draws: 4.2, 4.6 and 5.9 us a seed at n = 10, 12 and 14.
# - otv-grid compares every labelled shape, 2^(k(k-1)/2) * 4^k of each size k up to max_n, then
#   each drawn instance: 0.10 ms a shape at 4 vertices, 0.22 ms at 5, and 0.12-0.25 ms a drawn
#   instance at 4-6.
_WORK: dict[str, tuple[Callable[[int, int], int], str, int]] = {
    "prop1-preservation": (lambda instances, n: instances << max(n, 6), "seeds", 6),
    "otv-grid": (lambda instances, n: instances + sum(2 ** (k * (k - 1) // 2) * 4 ** k for k in range(1, n + 1)),
                 "shapes and instances", 200),
}
# `run_check` refuses a sweep of `_WORK` whose worst case takes longer than this many seconds.
WORK_BUDGET_S = 60
# Every max_n past this is over the budget for both sweeps, so the estimate stops here.
_WORK_MAX_N = 64


def _check_work(name: str, instances: int, max_n: int) -> None:
    """Raise OracleLimitError, naming the estimate, if sweep `name` may take longer than the budget."""
    if name not in _WORK:
        return
    estimate, unit, us = _WORK[name]
    n = min(max_n, _WORK_MAX_N)
    work = estimate(instances, n)
    if work * us > WORK_BUDGET_S * 10**6:
        # Decimal formats integers of any size; imported here, as every other run needs none of it.
        from decimal import Decimal
        at_least = "at least " if n < max_n else ""
        raise OracleLimitError(
            f"check {name} (instances {instances}, max_n {max_n}) may visit {at_least}"
            f"{Decimal(work):.3g} {unit}, about {Decimal(work * us) / 10**6:.3g} s at {us} us each, "
            f"over the budget of {WORK_BUDGET_S} s")


# Past this many vertices every draw is over the generators' pair limit; the size check stops here,
# so that its figures stay within what a float and an int's decimal string hold.
_DRAW_MAX_N = 10**9


def _check_draws(name: str, max_n: int) -> None:
    """Raise OracleLimitError if sweep `name` may draw an instance that the generators refuse.

    Every sweep but `otv-grid` may draw a random or degenerate spec of max_n
    vertices at the largest edge probability, connected, which has the most
    vertex pairs and expected edges of any of its draws.
    """
    if name == "otv-grid":
        return
    try:
        _check_size(GenSpec(n=min(max_n, _DRAW_MAX_N), edge_prob=max(_EDGE_PROBS), connected=True))
    except ValueError as error:
        raise OracleLimitError(f"check {name} (max_n {max_n}) may draw instances the generators refuse: "
                               f"{error}") from None


def run_check(name: str, instances: int | None = None, max_n: int | None = None,
              seed: int | None = None) -> CheckResult:
    """Run a named sweep; omitted parameters use the sweep's own defaults.

    A sweep of `_WORK` whose worst-case work exceeds `WORK_BUDGET_S`, and a
    sweep that may draw an instance over the generators' size limits, raise
    OracleLimitError before the first instance.
    """
    try:
        sweep, default_instances, default_max_n = CHECKS[name]
    except KeyError:
        raise ValueError(f"unknown check {name!r}; known: {', '.join(sorted(CHECKS))}") from None
    instances = default_instances if instances is None else instances
    max_n = default_max_n if max_n is None else max_n
    _check_work(name, instances, max_n)
    _check_draws(name, max_n)
    failures: list[str] = []
    checked = instances
    if sweep is _otv_grid:
        for inst, label in _grid_shapes(max_n):
            checked += 1
            failures.extend(_grid_agrees(inst, label))
    rng = random.Random(0 if seed is None else seed)
    for i in range(instances):
        failures.extend(sweep(rng, i, max_n))
    return CheckResult(name, checked, failures)
