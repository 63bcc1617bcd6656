"""Workloads of the eprsim benchmark and the checks on their reports.

A workload turns a `random.Random`, seeded from the benchmark's `--seed`,
into one operation: a list of CLI commands run in sequence.  The program
receives only the generated argv lists.  Every command carries a check that
reads its JSON report and returns the problems it finds.  The checks are
exact identities or 6-sigma (or 1 - 1e-9 quantile) bounds, so they do not
fail by chance on a correct program.
"""

from __future__ import annotations

import functools
import math
import os
import random
from dataclasses import dataclass
from typing import Callable

from scipy import stats

EXACT_TOL = 1e-12  # the exact identities hold to rounding
Z_MAX = 6.0  # two-sided tail about 2e-9 per estimate
CHI2_TAIL = 1e-9  # the report's own 0.999 quantile would fail 1 seed in 500

SEED_RANGE = 2**31


@dataclass(frozen=True)
class Command:
    name: str
    argv: list[str]
    check: Callable[[dict], list[str]]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    commands: Callable[[random.Random, str], list[Command]]  # (rng, tmp_dir) -> one operation


def _dot(x, y) -> float:
    return sum(p * q for p, q in zip(x, y))


def _vec(text: str) -> list[float]:
    return [float(p) for p in text.split(",")]


def _check_estimate(est: dict, target: float, trials: int, label: str) -> list[str]:
    """A Monte Carlo mean against its exact target."""
    problems = []
    if not abs(est["exact_target"] - target) <= EXACT_TOL:
        problems.append(f"{label}: exact_target {est['exact_target']!r} != {target!r}")
    if est["trials"] != trials:
        problems.append(f"{label}: trials {est['trials']!r} != {trials}")
    if not abs(est["mean"] - target) <= Z_MAX * est["stderr"]:
        problems.append(
            f"{label}: mean {est['mean']!r} more than {Z_MAX} stderr "
            f"({est['stderr']!r}) from {target!r}"
        )
    return problems


def check_chsh(rep: dict, angles: list[float], trials: int) -> list[str]:
    a, a2, b, b2 = (math.radians(t) for t in angles)
    targets = [-math.cos(x - y) for x, y in ((a, b), (a, b2), (a2, b), (a2, b2))]
    comps = rep["components"]
    if len(comps) != 4:
        return [f"chsh: {len(comps)} components, expected 4"]
    problems = []
    for i, (comp, target) in enumerate(zip(comps, targets)):
        problems += _check_estimate(comp, target, trials, f"chsh component {i}")
    s_exact = abs(targets[0] - targets[1]) + abs(targets[2] + targets[3])
    if not abs(rep["s_value"] - s_exact) <= Z_MAX * rep["stderr"]:
        problems.append(
            f"chsh: S {rep['s_value']!r} more than {Z_MAX} stderr "
            f"({rep['stderr']!r}) from {s_exact!r}"
        )
    return problems


def check_layers(rep: dict, pairs: int, path: str) -> list[str]:
    problems = []
    if rep["label_count"] != 2 * pairs:
        problems.append(f"layers: label_count {rep['label_count']!r} != {2 * pairs}")
    if not (os.path.isfile(path) and os.path.getsize(path) > 0):
        problems.append(f"layers: universe file {path} missing or empty")
    return problems


def check_analyze(rep: dict, a: list[float], b: list[float]) -> list[str]:
    problems = []
    if not abs(rep["pair_expectation"] + _dot(a, b)) <= EXACT_TOL:
        problems.append(f"analyze: pair_expectation {rep['pair_expectation']!r} != {-_dot(a, b)!r}")
    for side in ("A", "B"):
        bias = rep["conditional_bias"][side]
        if not bias <= EXACT_TOL:
            problems.append(f"analyze: conditional_bias {side} {bias!r} > {EXACT_TOL}")
        witness = rep["witness_bias"][side]
        if not witness > 0.0:
            problems.append(f"analyze: witness_bias {side} {witness!r} not positive")
    if not rep["tv_cond_indep"] <= EXACT_TOL:
        problems.append(f"analyze: tv_cond_indep {rep['tv_cond_indep']!r} > {EXACT_TOL}")
    return problems


def check_simulate(rep: dict, a: list[float], b: list[float], trials: int) -> list[str]:
    return _check_estimate(rep, -_dot(a, b), trials, "simulate")


@functools.cache
def chi_square_limit(dof: int) -> float:
    return float(stats.chi2.isf(CHI2_TAIL, dof))


def check_poisson(rep: dict, labels: int, k: int, p_ready: float) -> list[str]:
    problems = []
    star, lower, upper = rep["star"], rep["extreme_lower"], rep["extreme_upper"]
    # D* <= D <= 2 D* and D <= 1 hold for the exact value and for the bracket
    if not star <= lower <= upper <= min(2.0 * star, 1.0):
        problems.append(
            f"poisson: discrepancies out of order: star {star!r}, "
            f"extreme [{lower!r}, {upper!r}]"
        )
    if rep["chi_square_dof"] != labels - 1:
        problems.append(f"poisson: chi_square_dof {rep['chi_square_dof']!r} != {labels - 1}")
    limit = chi_square_limit(labels - 1)
    for key in ("chi_square_ungated", "chi_square_gated"):
        if not 0.0 <= rep[key] < limit:
            problems.append(f"poisson: {key} {rep[key]!r} outside [0, {limit!r})")
    rate_sd = math.sqrt(p_ready * (1.0 - p_ready) / k)
    if not abs(rep["acceptance_rate"] - p_ready) <= Z_MAX * rate_sd:
        problems.append(f"poisson: acceptance_rate {rep['acceptance_rate']!r} far from {p_ready}")
    return problems


def _seed(rng: random.Random) -> str:
    return str(rng.randrange(SEED_RANGE))


CHSH_ANGLES = "0,90,45,135"
CHSH_TRIALS = 1_000_000


def mc_chsh(rng: random.Random, tmp_dir: str) -> list[Command]:
    argv = [
        "chsh", "--angles", CHSH_ANGLES, "--trials", str(CHSH_TRIALS),
        "--n", "4", "--L", "64", "--layers", "50", "--seed", _seed(rng),
    ]
    check = functools.partial(check_chsh, angles=_vec(CHSH_ANGLES), trials=CHSH_TRIALS)
    return [Command("chsh", argv, check)]


UNIVERSE_PAIRS = 10_000
SIM_TRIALS = 1_000_000
A, B, C = "1,0,0", "0.6,0.8,0", "0,0,1"


def universe(rng: random.Random, tmp_dir: str) -> list[Command]:
    path = os.path.join(tmp_dir, f"universe-{_seed(rng)}.json")
    layers = [
        "layers", "--n", "4", "--layers", str(UNIVERSE_PAIRS), "--L", "2",
        "--seed", _seed(rng), "--universe", path,
    ]
    analyze = ["analyze", "--universe", path, "--a", A, "--b", B, "--c", C, "--witness"]
    simulate = [
        "simulate", "--universe", path, "--a", A, "--b", B,
        "--trials", str(SIM_TRIALS), "--seed", _seed(rng),
    ]
    return [
        Command("layers", layers, functools.partial(check_layers, pairs=UNIVERSE_PAIRS, path=path)),
        Command("analyze", analyze, functools.partial(check_analyze, a=_vec(A), b=_vec(B))),
        Command(
            "simulate",
            simulate,
            functools.partial(check_simulate, a=_vec(A), b=_vec(B), trials=SIM_TRIALS),
        ),
    ]


POISSON_K = 1_000_000
POISSON_LABELS = 50
POISSON_P = 0.5


def emission(rng: random.Random, tmp_dir: str) -> list[Command]:
    argv = [
        "poisson", "--theta", "1", "--k", str(POISSON_K), "--labels", str(POISSON_LABELS),
        "--p1", str(POISSON_P), "--p2", str(POISSON_P), "--seed", _seed(rng),
    ]
    check = functools.partial(
        check_poisson, labels=POISSON_LABELS, k=POISSON_K, p_ready=POISSON_P * POISSON_P
    )
    return [Command("poisson", argv, check)]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "mc-chsh",
            "sampling does almost all the work; L=64 exposes the trials x L matrix of the sampler",
            mc_chsh,
        ),
        Workload(
            "universe",
            "layers build/save/load and exact analysis dominate; sampling runs at L=2 over 2e4 labels",
            universe,
        ),
        Workload(
            "emission",
            "the only workload using emission; touches no other layer, the no-change control",
            emission,
        ),
    )
}

COMMANDS = ("chsh", "layers", "analyze", "simulate", "poisson")
