# Majority-rule error amplification and the complexity accounting for the
# two evolution routes; cost_report alone builds the whole cost comparison,
# from the search split of size N and its commutator estimate.
#
# A single search run errs with probability p (worst case 1/N). Repeating R
# times (R odd) and taking the majority gives failure probability equal to
# the binomial tail P(failures >= ceil(R/2)), which for p = 1/N is bounded
# by 2^{R-1} / N^{ceil(R/2)}. Averaging the runs instead only improves the
# error to 1/(N sqrt(R)) -- exposed here purely for the contrast.
#
# Randomness contract: Monte Carlo uses numpy's Philox counter-based
# generator keyed on (seed, shard); the same seed reproduces the same
# stream on any platform, and shard tallies merge by summation. A shard
# reads no other shard's words, so contiguous groups of shards are tallied
# in one process per CPU, the caller and forked workers, and the integer
# sums do not depend on which process tallied what. The count is the one numpy's
# Generator.binomial(R, p) would give on that stream.
# Up to R p = 30 numpy draws a binomial by inversion, which reads one Philox
# word per trial and fails the majority iff the word is at or above a
# cutoff; the cutoff is found once per plan by replaying numpy's inversion
# loop, and each trial is then one word compared with it. A shard's words
# are drawn once, CHUNK at a time, and every R of a sweep reads them; the
# words that R draws again come from the stream after the whole shard.
# Above R p = 30 numpy switches to BTPE, and the draw still goes through
# Generator.binomial. tests/test_amplify.py pins the count to numpy's own
# sampler.

from __future__ import annotations

from math import ceil, comb, exp, isfinite, log, log1p, log2, sqrt

import numpy as np

from . import _on_forks, _Record, _shares
from .search import SearchInstance, search_split
from .trotter import commutator_error

__all__ = [
    "AmplificationPlan",
    "MajorityEstimate",
    "majority_bound",
    "majority_error_exact",
    "simulate_majority",
    "simulate_majorities",
    "wilson_interval",
    "averaging_error",
    "runs_required",
    "asymptotic_runs",
    "register_width",
    "per_step_cost",
    "cost_report",
]

Z_95 = 1.959963984540054
SHARD_SIZE = 1 << 18
# Words per Philox draw within a shard, so that a shard in flight on each
# CPU adds less to peak RSS than one whole shard's words did.
CHUNK = 1 << 16
# numpy's next_double is (word >> 11) 2^-53: a grid of 2^53 values in [0, 1).
DOUBLE_GRID = 1 << 53
# numpy draws binomial(R, p <= 1/2) by inversion up to R p = 30, by BTPE above.
INVERSION_LIMIT = 30.0
MAX_RUNS = 399
# Most Monte Carlo trials grover takes; 2^30 of R = 1, 3, .., 9 run for ~6 s on 2 vCPUs.
MAX_TRIALS = 2**30
# Binary-query accounting: two queries per small-step term pair, one per
# reflection step.
QUERIES_PER_TROTTER_STEP = 2
QUERIES_PER_GROVER_STEP = 1


class AmplificationPlan(_Record):
    """Per-run error, odd run count, Monte Carlo trial count, and seed."""

    _fields = ("per_run_error", "runs", "trials", "seed")

    def __init__(self, per_run_error: float, runs: int, trials: int, seed: int = 0) -> None:
        if not 0.0 <= per_run_error <= 0.5:
            raise ValueError("per-run error must lie in [0, 1/2]")
        _majority_threshold(runs)
        if trials < 10_000:
            raise ValueError("need at least 1e4 trials for a meaningful estimate")
        if not 0 <= seed < 2**64:
            raise ValueError(f"seed must be an integer in [0, 2^64), got {seed}")
        self._set(per_run_error, runs, trials, seed)


class MajorityEstimate(_Record):
    """Empirical majority-failure rate with its Wilson 95% interval."""

    _fields = ("rate", "ci_low", "ci_high", "failures", "trials")

    def __init__(self, rate: float, ci_low: float, ci_high: float, failures: int,
                 trials: int) -> None:
        self._set(rate, ci_low, ci_high, failures, trials)

    @property
    def ci_halfwidth(self) -> float:
        return 0.5 * (self.ci_high - self.ci_low)


def _majority_threshold(runs: int) -> int:
    """ceil(R/2), the failures among R runs that lose the majority vote."""
    if runs < 1 or runs % 2 == 0:
        raise ValueError("runs must be an odd integer >= 1")
    return (runs + 1) // 2


def majority_bound(runs: int, n: int) -> float:
    """Closed-form bound 2^{R-1} / N^{ceil(R/2)} on the majority-vote failure
    probability after ``runs`` repetitions with per-run error 1/N."""
    threshold = _majority_threshold(runs)
    if n < 2:
        raise ValueError("n must be >= 2")
    try:
        return float(2 ** (runs - 1)) / float(n) ** threshold
    except OverflowError:  # N^ceil(R/2) past the float range: the exact quotient, rounded
        return 2 ** (runs - 1) / n ** threshold


def majority_error_exact(p: float, runs: int) -> float:
    """Exact binomial tail P(failures >= ceil(R/2)) for failure rate p."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    threshold = _majority_threshold(runs)
    return float(
        sum(comb(runs, k) * p**k * (1.0 - p) ** (runs - k) for k in range(threshold, runs + 1))
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


def _inversion_cutoffs(runs: int, p: float) -> tuple[int, int]:
    """Grid cutoffs of numpy's binomial inversion for R p <= 30, p <= 1/2.

    A trial draws U = m 2^-53 and walks X up the pmf: while U > px, X += 1,
    U -= px and px steps to the next pmf term, in the float operations of
    numpy's random_binomial_inversion. Each step is monotone in m, so the
    draws that reach X = k are the grid points from some m on. Returns
    (fail, restart): the first m that reaches ceil(R/2) and the first that
    passes numpy's bound, where numpy draws again. DOUBLE_GRID means never.
    """
    q = 1.0 - p
    qn = exp(runs * log1p(-p))
    mean = runs * p
    bound = int(min(runs, mean + 10.0 * sqrt(mean * q + 1)))

    def reaches(m: int, k: int) -> bool:
        u, px = m / DOUBLE_GRID, qn
        for x in range(1, k + 1):
            if not u > px:
                return False
            u -= px
            px = ((runs - x + 1) * p * px) / (x * q)
        return True

    def first_reaching(k: int) -> int:
        lo, hi = 0, DOUBLE_GRID
        while lo < hi:
            mid = (lo + hi) // 2
            if reaches(mid, k):
                hi = mid
            else:
                lo = mid + 1
        return lo

    threshold = _majority_threshold(runs)
    # A walk past the bound is drawn again, so X never reaches a threshold above it.
    fail = first_reaching(threshold) if threshold <= bound else DOUBLE_GRID
    return fail, first_reaching(bound + 1)


def _fails_and_redraws(words: np.ndarray, fail: int, restart: int) -> tuple[int, int]:
    """Inversion trials of ``words`` at or above the fail cutoff, and those
    of them past the restart cutoff, which numpy drops and draws again."""
    fails = int(np.count_nonzero(words >= np.uint64(fail << 11)))
    if restart == DOUBLE_GRID:  # 2^53 << 11 is past the uint64 words
        return fails, 0
    return fails, int(np.count_nonzero(words >= np.uint64(restart << 11)))


def _inversion_shard(bitgen: np.random.Philox, count: int,
                     cutoffs: dict[int, tuple[int, int]]) -> dict[int, int]:
    """Each plan's failures among ``count`` inversion trials of ``bitgen``.

    The words come in draws of CHUNK; one comparison with the lowest fail
    cutoff keeps the candidates, among which each plan counts its fail and
    redraw words. Redraws read the stream after the last chunk, as numpy does.
    """
    low = np.uint64(min(fail for fail, _ in cutoffs.values()) << 11)
    failures = dict.fromkeys(cutoffs, 0)
    redraws = dict.fromkeys(cutoffs, 0)
    for done in range(0, count, CHUNK):
        raw = bitgen.random_raw(min(CHUNK, count - done))
        candidates = raw[raw >= low]
        for k, cut in cutoffs.items():
            fails, again = _fails_and_redraws(candidates, *cut)
            failures[k] += fails - again
            redraws[k] += again
    after = bitgen.state
    for k, cut in cutoffs.items():
        if redraws[k]:
            bitgen.state = after
        while redraws[k]:
            fails, redraws[k] = _fails_and_redraws(bitgen.random_raw(redraws[k]), *cut)
            failures[k] += fails - redraws[k]
    return failures


def simulate_majorities(plans: list[AmplificationPlan]) -> list[MajorityEstimate]:
    """Monte Carlo majority failure rates of plans that differ only in R.

    Shard ``i`` of SHARD_SIZE trials draws from Philox(key=(seed, i)), so the
    result is reproducible from the seed alone, and each count is the one
    Generator.binomial(R, p) gives on the shard's stream. The shards are
    tallied in min(CPU count, shard count) contiguous groups, all but the
    first in forked workers (hamsearch._on_forks), and their counts summed,
    so the result does not depend on the CPU count. Up to R p = 30 a
    shard's words are drawn once, CHUNK at a time, each R compares them with
    its cutoff from numpy's binomial inversion, and an R that draws again
    restarts from the stream's state after the whole shard; a cutoff no word
    reaches (p = 0, or R >= 7 at p = 2^-19) reads nothing. Above R p = 30
    (BTPE) Generator.binomial draws.
    """
    shared = {(plan.per_run_error, plan.trials, plan.seed) for plan in plans}
    if len(shared) != 1:
        raise ValueError("need one or more plans that share per_run_error, trials and seed")
    ((p, trials, seed),) = shared
    btpe = [k for k, plan in enumerate(plans) if plan.runs * p > INVERSION_LIMIT]
    cutoffs = {k: _inversion_cutoffs(plan.runs, p) for k, plan in enumerate(plans) if k not in btpe}
    cutoffs = {k: cut for k, cut in cutoffs.items() if cut[0] < DOUBLE_GRID}
    # numpy loads np.random on first use: here, before the fork, not in each worker.
    philox = np.random.Philox

    def tally(shard: int) -> dict[int, int]:
        count = min(SHARD_SIZE, trials - shard * SHARD_SIZE)
        key = np.array([seed, shard], dtype=np.uint64)
        failures = {}
        for k in btpe:
            wrong = np.random.Generator(philox(key=key)).binomial(
                plans[k].runs, p, size=count)
            failures[k] = int(np.count_nonzero(wrong >= _majority_threshold(plans[k].runs)))
        if cutoffs:
            failures.update(_inversion_shard(philox(key=key), count, cutoffs))
        return failures

    shards = range((trials + SHARD_SIZE - 1) // SHARD_SIZE if btpe or cutoffs else 0)
    tallies = [t for group in _on_forks(lambda group: [tally(i) for i in group],
                                        _shares(shards, len(shards))) for t in group]
    failures = [sum(t.get(k, 0) for t in tallies) for k in range(len(plans))]
    return [MajorityEstimate(f / trials, *wilson_interval(f, trials), f, trials)
            for f in failures]


def simulate_majority(plan: AmplificationPlan) -> MajorityEstimate:
    """simulate_majorities for one plan."""
    return simulate_majorities([plan])[0]


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
        raise ValueError("majority amplification needs n >= 3")
    # Two more runs scale the bound by 4/N, so for N <= 4 it never falls
    # below its one-run value 1/N.
    if n <= 4 and majority_bound(1, n) > error_budget:
        raise ValueError(f"no run count meets the budget {error_budget:g} at n={n}: "
                         f"the majority bound stays at or above 1/{n}")
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
    # The smallest b with n l <= eps 2^b, in integers: a float log2 can round
    # n l / eps just above a power of two down onto it, or overflow.
    num, den = float(error_budget).as_integer_ratio()
    return max(1, ((steps * term_count * den - 1) // num).bit_length())


def per_step_cost(dimension: int, bits: int) -> float:
    """Abstract cost of one exactly-exponentiated step: m b^3 with m = log2(N)."""
    if dimension < 2 or bits < 1:
        raise ValueError("need dimension >= 2 and bits >= 1")
    return log2(dimension) * float(bits) ** 3


def _finite(name: str, value: float) -> float:
    if not isfinite(value):
        raise ValueError(f"{name} is not finite")
    return value


def cost_report(n: int, total_time: float | None, error_budget: float,
                step_cost: float, grover_step_cost: float) -> dict:
    """The ``cost`` subcommand's report for the search split of size N.

    Small-step route: t^2 ||E2||/eps steps of cost C, power-law in 1/eps.
    Reflection route: (t/2) R steps of cost C_G with R the smallest odd run
    count whose majority bound meets eps, logarithmic in 1/eps. t None is
    (pi/2) sqrt(N); a count, cost or ratio that is not finite raises.
    """
    inst = SearchInstance(n)
    split = search_split(inst)
    norm_e2 = commutator_error(split)
    # Python floats, so that an overflow below is an inf to check, not a numpy warning.
    t, eps, step_cost, grover_step_cost = (float(x) for x in (
        inst.total_time if total_time is None else total_time,
        error_budget, step_cost, grover_step_cost))
    if not (t > 0 and 0 < eps < 1):
        raise ValueError("need total_time > 0 and error budget in (0, 1)")
    if n < 3:
        raise ValueError("database size must be >= 3")
    if not (step_cost >= 0 and grover_step_cost >= 0):
        raise ValueError("the step costs must be nonnegative")
    # t * t overflows to inf, where t**2 would raise OverflowError.
    steps = _finite(f"step count t^2 ||E2||/eps at t={t:g}", t * t * norm_e2 / eps)
    trotter_cost = _finite(f"Trotter cost (step count x step cost {step_cost:g})",
                           steps * step_cost)
    trotter_queries = _finite("Trotter query count", steps * QUERIES_PER_TROTTER_STEP)
    runs = runs_required(n, eps)
    q_steps = 0.5 * t
    grover_cost = _finite(f"Grover cost ((t/2) R x Grover step cost {grover_step_cost:g})",
                          q_steps * runs * grover_step_cost)
    runs_formula = asymptotic_runs(n, eps)
    grover_queries = _finite("Grover query count", q_steps * runs * QUERIES_PER_GROVER_STEP)
    whole_steps = max(1, ceil(steps))
    bits = register_width(whole_steps, len(split), eps)
    return {
        "inputs": {"N": n, "t": t, "eps": eps, "term_count": len(split), "norm_e2": norm_e2,
                   "step_cost": step_cost, "grover_step_cost": grover_step_cost},
        "n": whole_steps,
        "dt": t / whole_steps,
        "b": bits,
        "C": per_step_cost(n, bits),
        "cost": {
            "trotter": trotter_cost,
            "grover": grover_cost,
            "ratio_grover_over_trotter": _finite(
                f"cost ratio Grover/Trotter at step cost {step_cost:g}", grover_cost / trotter_cost)
            if trotter_cost > 0 else None,
        },
        "grover": {"q_steps": q_steps, "runs": runs, "runs_formula": runs_formula},
        "queries": {"trotter": trotter_queries, "grover": grover_queries},
        "convention": {"queries_per_trotter_step": QUERIES_PER_TROTTER_STEP,
                       "queries_per_grover_step": QUERIES_PER_GROVER_STEP},
    }
