"""The benchmark's workloads: seeded WTG inputs and the CLI ops that use them.

Each build function draws everything from one `random.Random`, writes its
WTG files into a work directory and returns the ops to run. The program
under test only sees those files (or, for `check`, a drawn sweep seed).
Instance data for the reference checks is re-read from the written text, so
the checks do not depend on the program's in-memory representation.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

from targetset.generators import GenSpec, generate
from targetset.instance import build_instance
from targetset.wtg import serialize_wtg

import reference


@dataclass(frozen=True)
class Op:
    """One CLI invocation and the check its report must pass."""

    argv: tuple[str, ...]
    check: Callable[[str], str | None]


@dataclass(frozen=True)
class Workload:
    name: str
    dominant: str  # layer predicted to take the most self time
    build: Callable[[random.Random, Path], list[Op]]


def _child_seed(rng: random.Random) -> int:
    return rng.randrange(2**32)


def _write(workdir: Path, name: str, text: str) -> str:
    path = workdir / name
    path.write_text(text)
    return str(path)


def _parsed(text: str):
    """Mode, thresholds and edges of a WTG text, by the reference parser."""
    ref = reference.RefInstance(text)
    tau = {v: Fraction(ref.tau[i], ref.scale) for i, v in enumerate(ref.ids)}
    edges = [(ref.ids[a], ref.ids[b], Fraction(w, ref.scale)) for a, b, w in ref.edges]
    return ("directed" if ref.directed else "undirected"), tau, edges


def _incident_totals(tau, edges):
    totals = {v: Fraction(0) for v in tau}
    for u, v, w in edges:
        totals[u] += w
        totals[v] += w
    return totals


# solve-mid: sparse n=500, average degree 5, halves weights; the three kinds
# rotate so every branch of the auto dispatcher runs.
SOLVE_N = 500
SOLVE_DEGREE = 5
SOLVE_PER_KIND = 5


def _solve_mid(rng: random.Random, workdir: Path) -> list[Op]:
    n = SOLVE_N
    sparse = SOLVE_DEGREE / (n - 1)
    # A spanning tree supplies n - 1 edges; the rest come at this probability.
    tree_top_up = (SOLVE_DEGREE * n / 2 - (n - 1)) / (n * (n - 1) / 2)
    ops = []
    for i in range(SOLVE_PER_KIND):
        for kind in ("degenerate", "two-level", "min-or-full"):
            seed = _child_seed(rng)
            if kind == "degenerate":
                text = serialize_wtg(generate(GenSpec(
                    family="degenerate", n=n, seed=seed, edge_prob=sparse, weights="halves")))
            elif kind == "two-level":
                base = serialize_wtg(generate(GenSpec(
                    n=n, seed=seed, edge_prob=tree_top_up, weights="halves",
                    tau_policy="two-level", connected=True)))
                # All-low rewrite, as the two-level sweep does, forces the split branch.
                mode, tau, edges = _parsed(base)
                mu = min(w for _, _, w in edges)
                totals = _incident_totals(tau, edges)
                text = serialize_wtg(build_instance(
                    mode, sorted(tau), edges, {v: totals[v] - mu for v in tau}))
            else:
                text = serialize_wtg(generate(GenSpec(
                    n=n, seed=seed, edge_prob=sparse, weights="halves",
                    tau_policy="min-or-full")))
            path = _write(workdir, f"solve-{kind}-{i}.wtg", text)
            ops.append(Op(("solve", path, "--method", "auto", "--deterministic"),
                          functools.partial(reference.check_solve, text)))
    return ops


# simulate-deep: banded graphs where vertex v waits for all its left
# neighbours, so the cascade advances one vertex per round.
SIM_N = 240
SIM_BAND = 4
SIM_PER_KIND = 6


def _banded(rng: random.Random, directed: bool):
    n = SIM_N
    edges = []
    left = {v: Fraction(0) for v in range(1, n + 1)}
    min_left: dict[int, Fraction] = {}
    for u in range(1, n + 1):
        for v in range(u + 1, min(n, u + SIM_BAND) + 1):
            w = Fraction(rng.randint(1, 20), 2)
            edges.append((u, v, w))
            left[v] += w
            min_left[v] = min(min_left.get(v, w), w)
    left[1] = Fraction(1)
    instance = build_instance("directed" if directed else "undirected", n, edges, left)
    return instance, min_left


def _simulate_deep(rng: random.Random, workdir: Path) -> list[Op]:
    ops = []
    for i in range(SIM_PER_KIND):
        for directed in (False, True):
            for by_seed in (True, False):
                instance, min_left = _banded(rng, directed)
                tag = f"{'dir' if directed else 'und'}-{'seed' if by_seed else 'p'}-{i}"
                if by_seed:
                    text = serialize_wtg(instance)
                    extra = ("--seed-set", "1")
                else:
                    # Vertex 1 is paid in full; any other incentive stays below
                    # the vertex's lightest left edge, so the cascade is unchanged.
                    p = {v: min_left[v] * Fraction(rng.randint(0, 3), 4) for v in min_left}
                    p[1] = Fraction(1)
                    text = serialize_wtg(instance, p)
                    extra = ()
                path = _write(workdir, f"sim-{tag}.wtg", text)
                ops.append(Op(("simulate", path, *extra, "--deterministic"),
                              functools.partial(reference.check_simulate, text,
                                                [1] if by_seed else None)))
    return ops


# oracle-small: each exhaustive oracle at a size where it takes tens of ms.
# Target-vector (default limit 9) and vertex-cover (default 20) run past
# their default limits; target-set at n=13 is within its default of 20.
# Every op passes its n as --limit-n. Oracle cost varies between instances,
# so a run holds many of them. The slowest tenth of the ops, which sets the
# p90, is target-vector, whose subset DP costs nearly the same on every
# instance of one size; target-set cost varies more with the graph. A
# target-set threshold is the vertex's whole incident weight: with drawn
# fractions of it, the optimum's size, and so the op's cost, varied three
# times as much between instances.
ORACLE_PER_KIND = 60
TV_N, TS_N, VC_N = 14, 13, 22


def _oracle_small(rng: random.Random, workdir: Path) -> list[Op]:
    ops = []
    for i in range(ORACLE_PER_KIND):
        degenerate = i % 2 == 0
        text = serialize_wtg(generate(GenSpec(
            family="degenerate" if degenerate else "random", n=TV_N,
            seed=_child_seed(rng), edge_prob=0.3, weights="halves")))
        path = _write(workdir, f"tv-{i}.wtg", text)
        ops.append(Op(("oracle", "target-vector", path, "--limit-n", str(TV_N), "--deterministic"),
                      functools.partial(reference.check_target_vector, text, degenerate)))

        base = serialize_wtg(generate(GenSpec(
            n=TS_N, seed=_child_seed(rng), edge_prob=0.5, weights="int", tau_policy="capped")))
        mode, tau, edges = _parsed(base)
        text = serialize_wtg(build_instance(mode, sorted(tau), edges, _incident_totals(tau, edges)))
        path = _write(workdir, f"ts-{i}.wtg", text)
        ops.append(Op(("oracle", "target-set", path, "--limit-n", str(TS_N), "--deterministic"),
                      functools.partial(reference.check_target_set, text)))

        text = serialize_wtg(generate(GenSpec(
            n=VC_N, seed=_child_seed(rng), edge_prob=0.3, weights="int")))
        path = _write(workdir, f"vc-{i}.wtg", text)
        ops.append(Op(("oracle", "vertex-cover", path, "--limit-n", str(VC_N), "--deterministic"),
                      functools.partial(reference.check_vertex_cover, text)))
    return ops


# check-sweep: many tiny instances per op, built inside the sweeps. Their
# sizes are drawn, and the oracles inside are exponential in the size, so a
# run needs thousands of them for steady figures.
SWEEPS = ("kappa", "bidirected", "prop1-preservation", "degeneracy-oracle", "two-level")
SWEEP_INSTANCES = 16
SWEEP_PER_NAME = 64


def _check_sweep(rng: random.Random, workdir: Path) -> list[Op]:
    return [
        Op(("check", name, "--instances", str(SWEEP_INSTANCES),
            "--seed", str(rng.randrange(2**31)), "--deterministic"),
           reference.check_sweep)
        for _ in range(SWEEP_PER_NAME)
        for name in SWEEPS
    ]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("solve-mid", "degeneracy", _solve_mid),
        Workload("simulate-deep", "engine", _simulate_deep),
        Workload("oracle-small", "oracles", _oracle_small),
        Workload("check-sweep", "engine", _check_sweep),
    )
}
