"""Reference answers for checking benchmark ops, independent of the timed code.

Everything here works from the WTG text the benchmark wrote and from the
report text the CLI printed. Nothing calls into `targetset`: the instance is
re-read by a small parser of its own, every rational is scaled by the common
denominator to an integer, and activation is recomputed by a plain round
simulator and a queue closure.
"""

from __future__ import annotations

import math
from fractions import Fraction


class RefInstance:
    """Integer-scaled copy of a WTG document (and of extra values to compare).

    `extra` lists further rationals, such as reported incentives, that must
    scale to integers along with the instance.
    """

    def __init__(self, wtg_text: str, extra=()):
        self.directed = False
        tau: dict[int, Fraction] = {}
        edges: list[tuple[int, int, Fraction]] = []
        self.incentives: dict[int, Fraction] = {}
        for raw in wtg_text.splitlines():
            parts = raw.split("#", 1)[0].split()
            if not parts:
                continue
            if parts[0] == "mode":
                self.directed = parts[1] == "directed"
            elif parts[0] == "v":
                tau[int(parts[1])] = Fraction(parts[2])
            elif parts[0] == "e":
                edges.append((int(parts[1]), int(parts[2]), Fraction(parts[3])))
            elif parts[0] == "p":
                self.incentives[int(parts[1])] = Fraction(parts[2])
        values = [*tau.values(), *(w for _, _, w in edges), *self.incentives.values(), *extra]
        self.scale = math.lcm(1, *(x.denominator for x in values))
        self.ids = sorted(tau)
        self.pos = {v: i for i, v in enumerate(self.ids)}
        self.n = len(self.ids)
        self.tau = [self.scaled(tau[v]) for v in self.ids]
        self.edges = [(self.pos[u], self.pos[v], self.scaled(w)) for u, v, w in edges]
        self.out: list[list[tuple[int, int]]] = [[] for _ in self.ids]
        for a, b, w in self.edges:
            self.out[a].append((b, w))
            if not self.directed:
                self.out[b].append((a, w))

    def scaled(self, value: Fraction) -> int:
        x = value * self.scale
        if x.denominator != 1:
            raise ValueError(f"{value} does not scale to an integer by {self.scale}")
        return x.numerator

    def bonus(self, incentives: dict[int, Fraction]) -> list[int]:
        return [self.scaled(incentives.get(v, Fraction(0))) for v in self.ids]

    @property
    def gap(self) -> int:
        """Scaled (sum of thresholds) - (sum of edge weights)."""
        return sum(self.tau) - sum(w for _, _, w in self.edges)

    @property
    def min_weight(self) -> int:
        return min(w for _, _, w in self.edges)

    def start_from_seed(self, seed_ids) -> list[int]:
        seed = {self.pos[v] for v in seed_ids}
        return sorted(seed | {i for i in range(self.n) if self.tau[i] <= 0})

    def start_from_bonus(self, bonus: list[int]) -> list[int]:
        return [i for i in range(self.n) if bonus[i] >= self.tau[i]]


def closure_size(ref: RefInstance, start, bonus) -> int:
    """Number of vertices active once spreading from `start` stops."""
    received = list(bonus)
    active = [False] * ref.n
    for i in start:
        active[i] = True
    stack = list(start)
    count = len(stack)
    while stack:
        for j, w in ref.out[stack.pop()]:
            if not active[j]:
                received[j] += w
                if received[j] >= ref.tau[j]:
                    active[j] = True
                    stack.append(j)
                    count += 1
    return count


def round_trace(ref: RefInstance, start, bonus) -> list[list[int]]:
    """Vertex ids activated per round, round 0 first, by recounting each round."""
    active = set(start)
    rounds = [sorted(ref.ids[i] for i in active)]
    while True:
        received = list(bonus)
        for a in active:
            for j, w in ref.out[a]:
                received[j] += w
        new = [i for i in range(ref.n) if i not in active and received[i] >= ref.tau[i]]
        if not new:
            return rounds
        active.update(new)
        rounds.append([ref.ids[i] for i in new])


def report_lines(text: str) -> dict[str, list[list[str]]]:
    """Group a flat `key value...` report by key."""
    grouped: dict[str, list[list[str]]] = {}
    for line in text.splitlines():
        key, *rest = line.split(" ")
        grouped.setdefault(key, []).append(rest)
    return grouped


def report_value(lines, key: str) -> str:
    entries = lines.get(key, [])
    if len(entries) != 1 or len(entries[0]) != 1:
        raise ValueError(f"expected one {key!r} line")
    return entries[0][0]


def report_incentives(lines) -> dict[int, Fraction]:
    return {int(v): Fraction(x) for v, x in lines.get("p", [])}


def check_simulate(wtg_text: str, seed_ids, report: str) -> str | None:
    """Rounds and the final set match the reference trace."""
    lines = report_lines(report)
    ref = RefInstance(wtg_text)
    if seed_ids is None:
        bonus = ref.bonus(ref.incentives)
        start = ref.start_from_bonus(bonus)
    else:
        bonus = [0] * ref.n
        start = ref.start_from_seed(seed_ids)
    expected = round_trace(ref, start, bonus)
    got = [[int(v) for v in rest[1:]] for rest in lines.get("round", [])]
    if [int(rest[0]) for rest in lines.get("round", [])] != list(range(len(got))):
        return "round lines out of order"
    if int(report_value(lines, "rounds")) != len(expected) - 1:
        return f"rounds {report_value(lines, 'rounds')} != reference {len(expected) - 1}"
    if got != [sorted(r) for r in expected]:
        return "per-round sets differ from the reference trace"
    final = sorted(v for r in expected for v in r)
    if [int(v) for v in lines["final"][0]] != final:
        return "final set differs from the reference trace"
    if report_value(lines, "activated_all") != ("true" if len(final) == ref.n else "false"):
        return "activated_all disagrees with the reference trace"
    return None


def check_solve(wtg_text: str, report: str) -> str | None:
    """Incentives activate everything, at the cost the solver's branch guarantees."""
    lines = report_lines(report)
    p = report_incentives(lines)
    cost = Fraction(report_value(lines, "cost"))
    ref = RefInstance(wtg_text, extra=[*p.values(), cost])
    bonus = ref.bonus(p)
    if sum(p.values()) != cost:
        return f"incentives sum to {sum(p.values())}, report says {cost}"
    if closure_size(ref, ref.start_from_bonus(bonus), bonus) != ref.n:
        return "incentives do not activate every vertex"
    method = report_value(lines, "method")
    branch = dict((rest[0], rest[1:]) for rest in lines.get("certificate", [])).get("branch")
    scaled_cost = ref.scaled(cost)
    if method == "degenerate" or branch == ["degenerate"]:
        want = ref.gap
    elif branch == ["split"]:
        want = ref.gap + ref.min_weight
    else:
        if scaled_cost < max(0, ref.gap):
            return f"cost {cost} is below the lower bound"
        return None
    if scaled_cost != want:
        return f"cost {cost} != {Fraction(want, ref.scale)} expected for {method}"
    return None


def check_target_vector(wtg_text: str, degenerate: bool, report: str) -> str | None:
    """The witness vector activates everything; degenerate optima telescope."""
    lines = report_lines(report)
    p = report_incentives(lines)
    optimum = Fraction(report_value(lines, "optimum"))
    ref = RefInstance(wtg_text, extra=[*p.values(), optimum])
    bonus = ref.bonus(p)
    if sum(p.values()) != optimum:
        return f"witness costs {sum(p.values())}, optimum says {optimum}"
    if closure_size(ref, ref.start_from_bonus(bonus), bonus) != ref.n:
        return "witness vector does not activate every vertex"
    if degenerate and ref.scaled(optimum) != ref.gap:
        return f"degenerate optimum {optimum} != thresholds minus weights"
    return None


def check_target_set(wtg_text: str, report: str) -> str | None:
    """The witness seed activates everything and has the optimum's size."""
    lines = report_lines(report)
    witness = [int(v) for v in lines["witness"][0] if v]
    ref = RefInstance(wtg_text)
    if int(report_value(lines, "optimum")) != len(witness):
        return "optimum differs from the witness size"
    if closure_size(ref, ref.start_from_seed(witness), [0] * ref.n) != ref.n:
        return "witness seed does not activate every vertex"
    return None


def check_vertex_cover(wtg_text: str, report: str) -> str | None:
    """The witness covers every edge and has the optimum's size."""
    lines = report_lines(report)
    witness = {int(v) for v in lines["witness"][0] if v}
    ref = RefInstance(wtg_text)
    if int(report_value(lines, "optimum")) != len(witness):
        return "optimum differs from the witness size"
    ids = ref.ids
    if any(ids[a] not in witness and ids[b] not in witness for a, b, _ in ref.edges):
        return "witness leaves an edge uncovered"
    return None


def check_sweep(report: str) -> str | None:
    """A property sweep reports a pass."""
    if report_value(report_lines(report), "pass") != "true":
        return "sweep did not pass"
    return None
