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
from collections.abc import Callable, Iterator
from dataclasses import dataclass, replace as dc_replace
from fractions import Fraction

from .degeneracy import (
    DegeneracyOrdering,
    brute_degeneracy_check,
    kappa_complement_check,
    peel_ordering,
)
from .engine import is_target_set, is_target_vector, run_activation
from .generators import GenSpec, generate
from .instance import UNDIRECTED, Instance, min_edge_weight
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


def _mixed_spec(rng: random.Random, n: int, **overrides) -> GenSpec:
    base = GenSpec(
        family="random",
        n=n,
        seed=_child_seed(rng),
        edge_prob=rng.choice((0.2, 0.4, 0.6, 0.8)),
        weights=rng.choice(("int", "halves", "unit")),
    )
    return dc_replace(base, **overrides)


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
    tails = [u for u, _, _ in base.edges]
    heads = [v for _, v, _ in base.edges]
    back = {v: 0 for v in base.vertices}
    for u, v in zip(tails, heads):
        back[u if rank[u] > rank[v] else v] += 1
    tau = [rng.randint(max(1, back[v]), max(1, back[v], degree[v])) for v in base.vertices]
    inst = Instance._from_ints(base.mode, base.vertices, tails, heads, [1] * len(tails), 1, tau, 1)
    if not isinstance(peel_ordering(inst), DegeneracyOrdering):
        raise RuntimeError("degenerate construction failed to peel")
    return inst


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
        covered = sum((inst.tau[v] - got.slacks[v] for v in inst.vertices), start=Fraction(0))
        if covered != inst.total_weight:
            yield f"seed {spec.seed}: slack identity broken"
    elif verdict:
        yield f"seed {spec.seed}: peel stuck on a degenerate instance"


def _algorithm_one(rng: random.Random, i: int, max_n: int) -> Iterator[str]:
    """The positive-slack seed is a target set within tau_max/c of optimal."""
    spec = _mixed_spec(rng, rng.randint(1, max_n), family="degenerate")
    spec = dc_replace(spec, max_slack=rng.randint(0, 3))
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
    spec = _mixed_spec(rng, rng.randint(1, max_n), family="degenerate")
    spec = dc_replace(spec, max_slack=rng.randint(0, 3))
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
        totals = inst.incident_totals
        inst = Instance(inst.mode, inst.vertices, inst.edges,
                        {v: totals[v] - mu for v in inst.vertices})
    report = solve_two_level(inst)
    all_low = all(inst.tau[v] != inst.incident_totals[v] for v in inst.vertices)
    expected = inst.tau_total - inst.total_weight + (mu if all_low else 0)
    oracle = exact_min_target_vector(inst, limit=inst.n).optimum
    if report.cost != expected:
        yield f"seed {spec.seed}: cost {report.cost} != formula {expected}"
    if report.cost != oracle:
        yield f"seed {spec.seed}: cost {report.cost} != oracle {oracle}"
    if all_low:
        pairs = {(min(u, v), max(u, v)) for u, v, w in inst.edges if w == mu}
        for pair in sorted(pairs):
            other = solve_two_level(inst, removed_edge=pair)
            if other.cost != expected:
                yield f"seed {spec.seed}: removing {pair} changed the cost"


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
    if i % 4 == 0:
        mu = min_edge_weight(inst)
        inst = Instance(inst.mode, inst.vertices, inst.edges,
                        {v: mu for v in inst.vertices})
    elif i % 4 == 1:
        inst = Instance(inst.mode, inst.vertices, inst.edges, inst.incident_totals)
    report = solve_min_or_full(inst)
    if not is_target_vector(inst, report.incentives):
        yield f"seed {spec.seed}: vector failed engine verification"
    oracle = exact_min_target_vector(inst, limit=inst.n).optimum
    if report.cost != oracle:
        yield f"seed {spec.seed}: cost {report.cost} != oracle {oracle}"


def _tss_preservation(rng: random.Random, i: int, max_n: int) -> Iterator[str]:
    """Complete-graph embedding preserves target sets subset by subset.

    Seeds go by size, then in lexicographic order. Activation is monotone in
    the seed on any instance with non-negative weights, and the source and
    its image are both such instances, even when the embedding is wrong. So
    a superset of a seed that activates both activates both again: it cannot
    disagree and is skipped. Every other seed is put to the engine, source
    first, which leaves the first disagreeing subset as in a full sweep. Once
    every subset agrees, the first seed that activates both is a smallest
    target set of each, and the oracle must find its size on the source.
    """
    if i % 5 == 0:
        spec = GenSpec(family="cubic", n=rng.choice((4, 6)), seed=_child_seed(rng))
        inst = generate(spec)
        label = f"cubic seed {spec.seed}"
    else:
        inst = random_tss_instance(rng, rng.randint(2, max_n))
        label = f"instance {i}"
    image = tss_to_complete(inst).image
    verts = inst.vertices
    both: list[int] = []  # position masks of the seeds that activate both
    for size in range(inst.n + 1):
        for combo in itertools.combinations(range(inst.n), size):
            mask = 0
            for p in combo:
                mask |= 1 << p
            if any(mask & m == m for m in both):
                continue
            seed_set = frozenset(map(verts.__getitem__, combo))
            activates = is_target_set(inst, seed_set)
            if activates != is_target_set(image, seed_set):
                yield f"{label}: subset {sorted(seed_set)} disagrees"
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
    totals = inst.incident_totals
    if all(inst.tau[v] <= totals[v] for v in inst.vertices):
        cover = vertex_cover_target_set(inst)
        if not is_target_set(inst, cover):
            yield f"seed {spec.seed}: cover is not a target set"
        dyn = exact_min_target_set(inst, limit=inst.n).optimum
        beta = exact_min_vertex_cover(inst, limit=inst.n).optimum
        if dyn > beta:
            yield f"seed {spec.seed}: minimum seed {dyn} exceeds cover bound {beta}"


def _bidirected(rng: random.Random, i: int, max_n: int) -> Iterator[str]:
    """Doubling each edge into opposite arcs changes nothing observable."""
    spec = _mixed_spec(rng, rng.randint(1, max_n))
    inst = generate(spec)
    image = to_bidirected(inst).image
    seeds = [frozenset((v,)) for v in inst.vertices]
    for _ in range(3):
        seeds.append(frozenset(v for v in inst.vertices if rng.random() < 0.4))
    for seed_set in seeds:
        if run_activation(inst, seed_set) != run_activation(image, seed_set):
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
    edges = tuple(
        (u, v, Fraction(rng.randint(0, 3)))
        for u, v in itertools.combinations(ids, 2)
        if rng.random() < 0.6
    )
    tau = {v: Fraction(rng.randint(0, 3)) for v in ids}
    yield from _grid_agrees(Instance(UNDIRECTED, ids, edges, tau), f"random {i}")


def _grid_shapes(max_n: int) -> Iterator[tuple[Instance, str]]:
    """Every graph up to max_n vertices, unit weights, all integer thresholds in 0..3."""
    for n in range(1, max_n + 1):
        ids = tuple(range(1, n + 1))
        pairs = list(itertools.combinations(ids, 2))
        for edge_mask in range(1 << len(pairs)):
            edges = tuple(
                (u, v, Fraction(1))
                for b, (u, v) in enumerate(pairs)
                if edge_mask >> b & 1
            )
            for tau_combo in itertools.product(range(4), repeat=n):
                inst = Instance(UNDIRECTED, ids, edges,
                                {v: Fraction(t) for v, t in zip(ids, tau_combo)})
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


def run_check(name: str, instances: int | None = None, max_n: int | None = None,
              seed: int | None = None) -> CheckResult:
    """Run a named sweep; omitted parameters use the sweep's own defaults."""
    try:
        sweep, default_instances, default_max_n = CHECKS[name]
    except KeyError:
        raise ValueError(f"unknown check {name!r}; known: {', '.join(sorted(CHECKS))}") from None
    instances = default_instances if instances is None else instances
    max_n = default_max_n if max_n is None else max_n
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
