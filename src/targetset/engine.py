"""Round-based activation dynamics, with and without incentives.

A vertex activates once the weight arriving from already-active neighbors
(in-neighbors in directed mode), plus its own incentive if any, reaches its
threshold. Activation within a round is simultaneous and irreversible.

Every run, trace or predicate, goes through one round loop on the
instance's integer view (`Instance.compiled`). Each round examines only the
out-neighbours of the vertices activated in the round before, so a run
costs O(n + m). The public functions take seed ids as ints and incentives
as ints or Fractions; a bool, float or str raises TypeError.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from .instance import _EXACT, CompiledInstance, Instance, VertexSet, _coerce


@dataclass(frozen=True)
class ActivationTrace:
    """Per-round record of one activation run.

    rounds[0] holds the initially active vertices; rounds[t] holds the
    vertices newly activated in round t. The rounds are pairwise disjoint,
    their union is final_active, and num_rounds is the index of the last
    round (0 when nothing spreads).
    """

    rounds: tuple[VertexSet, ...]
    final_active: VertexSet
    num_rounds: int


def build_incentives(instance: Instance, values) -> dict[int, Fraction]:
    """Coerce `values` into a full per-vertex incentive map.

    Accepts a map (missing vertices get 0), a sequence in ascending id order,
    or a single value broadcast to every vertex.
    """
    if isinstance(values, Mapping):
        p = {v: Fraction(0) for v in instance.vertices}
        for v, x in values.items():
            p[v] = _coerce(x)
        return p
    if isinstance(values, (list, tuple)):
        if len(values) != instance.n:
            raise ValueError(f"{len(values)} incentives for {instance.n} vertices")
        return {v: _coerce(x) for v, x in zip(instance.vertices, values)}
    return {v: _coerce(values) for v in instance.vertices}


def _spread(view: CompiledInstance, seed, need) -> list[list[int]]:
    """The activation rounds on an integer view, as lists of positions.

    `need[i]` is the received weight position i lacks to activate. Round 0
    is `seed` (distinct positions) plus every position that needs nothing.
    A position whose received weight did not change cannot newly reach its
    need, so each round only examines the out-neighbours of the round
    before it.
    """
    left = list(need)
    active = [False] * len(left)
    frontier = []
    for i in seed:
        active[i] = True
        frontier.append(i)
    for i, x in enumerate(left):
        if x <= 0 and not active[i]:
            active[i] = True
            frontier.append(i)
    out = view.out
    rounds = [frontier]
    while frontier:
        reached = []
        for v in frontier:
            for u, w in out[v]:
                if not active[u]:
                    left[u] -= w
                    if left[u] <= 0:
                        active[u] = True
                        reached.append(u)
        if reached:
            rounds.append(reached)
        frontier = reached
    return rounds


def _activates_all(view: CompiledInstance, seed, need) -> bool:
    return sum(map(len, _spread(view, seed, need))) == len(need)


def _seed_positions(instance: Instance, seed) -> list[int]:
    seed, position = frozenset(seed), instance.compiled.position
    positions = list(map(position.get, seed))
    if None in positions:
        raise ValueError(f"seed contains unknown vertices: {sorted(v for v in seed if v not in position)}")
    return positions


def _incentive_need(instance: Instance, incentives: Mapping[int, Fraction]) -> list[int]:
    # Received weight is a multiple of 1/scale, so received + p >= tau holds
    # exactly when the scaled received weight reaches tau*scale - floor(p*scale).
    view = instance.compiled
    need, position, scale = list(view.tau), view.position, view.scale
    for v, x in incentives.items():
        if v not in position:
            raise ValueError(f"incentive given for unknown vertex {v}")
        if x.numerator < 0:
            raise ValueError(f"negative incentive {x} at vertex {v}")
        need[position[v]] -= x.numerator * scale // x.denominator
    return need


def _rounds(instance: Instance, seed=(), incentives=None) -> list[list[int]]:
    """`_spread`'s rounds from the ids in `seed`, or else driven by an incentive map."""
    view = instance.compiled
    need = view.tau if incentives is None else _incentive_need(instance, incentives)
    return _spread(view, _seed_positions(instance, seed), need)


def _exact_seed(seed) -> frozenset:
    """`seed` as a frozenset of ints. Any other id raises TypeError: True or 1.0 would match vertex 1."""
    seed = frozenset(seed)
    for v in seed:
        if not isinstance(v, int) or isinstance(v, bool):
            raise TypeError(f"seed id {v!r} is a {type(v).__name__}, expected an int")
    return seed


def _exact_incentives(incentives: Mapping[int, Fraction]) -> Mapping[int, Fraction]:
    """`incentives`, once every value is an int or a Fraction; anything else raises TypeError."""
    for v, x in incentives.items():
        if not isinstance(x, _EXACT) or isinstance(x, bool):
            raise TypeError(f"incentive {x!r} at vertex {v} is a {type(x).__name__}, expected an int or Fraction")
    return incentives


def _trace(instance: Instance, rounds: list[list[int]]) -> ActivationTrace:
    verts = instance.vertices
    sets = tuple([frozenset(map(verts.__getitem__, r)) for r in rounds])
    return ActivationTrace(sets, frozenset().union(*sets), len(sets) - 1)


def run_activation(instance: Instance, seed) -> ActivationTrace:
    """Run the process from a seed set.

    Round 0 activates the seed plus every vertex whose threshold is already
    met with no help (tau <= 0); later rounds follow the threshold rule.
    """
    return _trace(instance, _rounds(instance, _exact_seed(seed)))


def run_with_incentives(instance: Instance, incentives: Mapping[int, Fraction]) -> ActivationTrace:
    """Run the process driven by an incentive vector.

    Round 0 activates exactly the vertices with p(v) >= tau(v); afterwards a
    vertex activates when active-neighbor weight plus its incentive reaches
    its threshold.
    """
    return _trace(instance, _rounds(instance, incentives=_exact_incentives(incentives)))


def is_target_set(instance: Instance, seed) -> bool:
    """True iff activating `seed` ends with every vertex active."""
    return sum(map(len, _rounds(instance, _exact_seed(seed)))) == instance.n


def is_target_vector(instance: Instance, incentives: Mapping[int, Fraction]) -> bool:
    """True iff the incentive vector activates every vertex."""
    return sum(map(len, _rounds(instance, incentives=_exact_incentives(incentives)))) == instance.n


def incentive_cost(incentives: Mapping[int, Fraction]) -> Fraction:
    """Exact sum of all incentive payments."""
    return sum(incentives.values(), start=Fraction(0))
