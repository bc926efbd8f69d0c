# Majority-rule error amplification and the complexity accounting for the
# two evolution routes.
#
# A single search run errs with probability p (worst case 1/N). Repeating R
# times (R odd) and taking the majority gives failure probability equal to
# the binomial tail P(failures >= ceil(R/2)), which for p = 1/N is bounded
# by 2^{R-1} / N^{ceil(R/2)}. Averaging the runs instead only improves the
# error to 1/(N sqrt(R)) -- exposed here purely for the contrast.
#
# Randomness contract: Monte Carlo uses numpy's Philox counter-based
# generator keyed on (seed, shard); the same seed reproduces the same
# stream on any platform, and shard tallies merge by summation.

from __future__ import annotations

from dataclasses import dataclass
from math import ceil, comb, log, log2, sqrt

import numpy as np

__all__ = [
    "AmplificationPlan",
    "MajorityEstimate",
    "CostModel",
    "TrotterCost",
    "GroverCost",
    "majority_bound",
    "majority_error_exact",
    "simulate_majority",
    "wilson_interval",
    "averaging_error",
    "runs_required",
    "asymptotic_runs",
    "register_width",
    "per_step_cost",
    "trotter_complexity",
    "grover_complexity",
]

Z_95 = 1.959963984540054
SHARD_SIZE = 1 << 18
MAX_RUNS = 399
# Binary-query accounting: two queries per small-step term pair, one per
# reflection step.
QUERIES_PER_TROTTER_STEP = 2
QUERIES_PER_GROVER_STEP = 1


@dataclass(frozen=True)
class AmplificationPlan:
    """Per-run error, odd run count, Monte Carlo trial count, and seed."""

    per_run_error: float
    runs: int
    trials: int
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 <= self.per_run_error <= 0.5:
            raise ValueError("per-run error must lie in [0, 1/2]")
        if self.runs < 1 or self.runs % 2 == 0:
            raise ValueError("runs must be an odd integer >= 1")
        if self.trials < 1:
            raise ValueError("trials must be positive")
        if self.seed < 0:
            raise ValueError("seed must be a nonnegative integer")


@dataclass(frozen=True)
class MajorityEstimate:
    """Empirical majority-failure rate with its Wilson 95% interval."""

    rate: float
    ci_low: float
    ci_high: float
    failures: int
    trials: int

    @property
    def ci_halfwidth(self) -> float:
        return 0.5 * (self.ci_high - self.ci_low)


def majority_bound(runs: int, n: int) -> float:
    """Closed-form bound 2^{R-1} / N^{ceil(R/2)} on the majority-vote failure
    probability after ``runs`` repetitions with per-run error 1/N."""
    if runs < 1 or runs % 2 == 0:
        raise ValueError("runs must be an odd integer >= 1")
    if n < 2:
        raise ValueError("n must be >= 2")
    return float(2 ** (runs - 1)) / float(n) ** ceil(runs / 2)


def majority_error_exact(p: float, runs: int) -> float:
    """Exact binomial tail P(failures >= ceil(R/2)) for failure rate p."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    if runs < 1 or runs % 2 == 0:
        raise ValueError("runs must be an odd integer >= 1")
    k_min = ceil(runs / 2)
    return float(
        sum(comb(runs, k) * p**k * (1.0 - p) ** (runs - k) for k in range(k_min, runs + 1))
    )


def wilson_interval(failures: int, trials: int) -> tuple[float, float]:
    """Wilson score 95% interval for a binomial proportion."""
    if trials < 1:
        raise ValueError("trials must be positive")
    z = Z_95
    phat = failures / trials
    denom = 1.0 + z * z / trials
    center = (phat + z * z / (2 * trials)) / denom
    half = z * sqrt(phat * (1.0 - phat) / trials + z * z / (4.0 * trials * trials)) / denom
    return max(0.0, center - half), min(1.0, center + half)


def simulate_majority(plan: AmplificationPlan) -> MajorityEstimate:
    """Monte Carlo estimate of the majority failure rate.

    Trials are processed in shards of SHARD_SIZE; shard ``i`` draws from
    Philox(key=(seed, i)), so the result is independent of how shards are
    scheduled and reproducible from the seed alone.
    """
    if plan.trials < 10_000:
        raise ValueError("need at least 1e4 trials for a meaningful estimate")
    threshold = ceil(plan.runs / 2)
    failures = 0
    done = 0
    shard = 0
    while done < plan.trials:
        count = min(SHARD_SIZE, plan.trials - done)
        rng = np.random.Generator(
            np.random.Philox(key=np.array([plan.seed, shard], dtype=np.uint64))
        )
        wrong = rng.binomial(plan.runs, plan.per_run_error, size=count)
        failures += int(np.count_nonzero(wrong >= threshold))
        done += count
        shard += 1
    low, high = wilson_interval(failures, plan.trials)
    return MajorityEstimate(
        rate=failures / plan.trials,
        ci_low=low,
        ci_high=high,
        failures=failures,
        trials=plan.trials,
    )


def averaging_error(n: int, runs: int) -> float:
    """Error of averaging R runs: 1/(N sqrt(R)). Decays only as R^{-1/2}."""
    if n < 2 or runs < 1:
        raise ValueError("need n >= 2 and runs >= 1")
    return 1.0 / (n * sqrt(runs))


def runs_required(n: int, error_budget: float) -> int:
    """Smallest odd R with 2^{R-1}/N^{ceil(R/2)} <= error_budget."""
    if not 0.0 < error_budget < 1.0:
        raise ValueError("error budget must lie in (0, 1)")
    if n < 3:
        # 2^{R-1}/N^{ceil(R/2)} does not shrink with R for N <= 2.
        raise ValueError("majority amplification needs n >= 3")
    runs = 1
    while majority_bound(runs, n) > error_budget:
        runs += 2
        if runs > MAX_RUNS:
            raise ValueError(f"budget {error_budget:g} needs more than {MAX_RUNS} runs")
    return runs


def asymptotic_runs(n: int, error_budget: float) -> int:
    """The -2 log(eps)/log(N) estimate, rounded up to an odd integer.

    Agrees with runs_required within one odd step; reported for comparison.
    """
    if not 0.0 < error_budget < 1.0:
        raise ValueError("error budget must lie in (0, 1)")
    runs = max(1, ceil(-2.0 * log(error_budget) / log(n)))
    return runs if runs % 2 == 1 else runs + 1


def register_width(steps: int, term_count: int, error_budget: float) -> int:
    """Bits b = ceil(log2(n l / eps)) so truncation stays below the error budget.

    ``steps * term_count`` exponentials are applied; with b-bit registers each
    contributes at most 2^{-b}, so n l 2^{-b} <= eps suffices.
    """
    if steps < 1 or term_count < 1:
        raise ValueError("steps and term_count must be >= 1")
    if not 0.0 < error_budget < 1.0:
        raise ValueError("error budget must lie in (0, 1)")
    return max(1, ceil(log2(steps * term_count / error_budget)))


def per_step_cost(dimension: int, bits: int) -> float:
    """Abstract cost of one exactly-exponentiated step: m b^3 with m = log2(N)."""
    if dimension < 2 or bits < 1:
        raise ValueError("need dimension >= 2 and bits >= 1")
    return log2(dimension) * float(bits) ** 3


@dataclass(frozen=True)
class CostModel:
    """Inputs of the complexity comparison, in abstract cost units.

    ``norm_e2`` comes from the product-formula commutator estimate.
    """

    total_time: float
    error_budget: float
    database_size: int
    norm_e2: float = 0.0
    step_cost: float = 1.0
    grover_step_cost: float = 1.0

    def __post_init__(self) -> None:
        if not (self.total_time > 0 and 0 < self.error_budget < 1):
            raise ValueError("need total_time > 0 and error budget in (0, 1)")
        if self.database_size < 3:
            raise ValueError("database size must be >= 3")
        if self.norm_e2 < 0:
            raise ValueError("norm_e2 must be nonnegative")


@dataclass(frozen=True)
class TrotterCost:
    cost: float
    steps: float  # implied n = t^2 ||E2|| / eps, before integer rounding
    queries: float


@dataclass(frozen=True)
class GroverCost:
    cost: float
    q_steps: float  # t/2, the step count of the equivalent discrete route
    runs: int
    runs_formula: int
    queries: float


def trotter_complexity(cm: CostModel) -> TrotterCost:
    """Small-step route: cost = t^2 (||E2||/eps) C, power-law in 1/eps."""
    steps = cm.total_time**2 * cm.norm_e2 / cm.error_budget
    return TrotterCost(
        cost=steps * cm.step_cost,
        steps=steps,
        queries=steps * QUERIES_PER_TROTTER_STEP,
    )


def grover_complexity(cm: CostModel) -> GroverCost:
    """Reflection route: cost = (t/2) R C_G with R odd runs of majority voting.

    R is the smallest odd run count whose majority bound meets the error
    budget (logarithmic in 1/eps); the -2 log(eps)/log(N) estimate is
    reported alongside.
    """
    runs = runs_required(cm.database_size, cm.error_budget)
    q_steps = 0.5 * cm.total_time
    return GroverCost(
        cost=q_steps * runs * cm.grover_step_cost,
        q_steps=q_steps,
        runs=runs,
        runs_formula=asymptotic_runs(cm.database_size, cm.error_budget),
        queries=q_steps * runs * QUERIES_PER_GROVER_STEP,
    )
