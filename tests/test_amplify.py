# Majority-vote amplification (bound, exact tail, Monte Carlo) and the
# cost accounting for both evolution routes.

import os
import pickle
import signal
from fractions import Fraction
from math import ceil

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from hamsearch import amplify
from hamsearch.amplify import (
    CHUNK,
    DOUBLE_GRID,
    MAX_RUNS,
    SHARD_SIZE,
    AmplificationPlan,
    asymptotic_runs,
    averaging_error,
    cost_report,
    majority_bound,
    majority_error_exact,
    per_step_cost,
    register_width,
    runs_required,
    simulate_majorities,
    simulate_majority,
    wilson_interval,
)
from oracles import binomial_draw, binomial_majority_failures, search_split_of

# 61 p is exactly 30 at P_AT_30, the last p numpy draws by inversion at
# R = 61; from the next float up it draws by BTPE.
P_AT_30 = 30 / 61
P_PAST_30 = float(np.nextafter(P_AT_30, 1.0))
odd_runs = st.integers(min_value=0, max_value=99).map(lambda h: 2 * h + 1)


class TestMajorityBound:
    def test_single_run_reduces_to_one_over_n(self):
        assert majority_bound(1, n=16) == pytest.approx(1.0 / 16.0)

    def test_three_runs_at_n16(self):
        assert majority_bound(3, n=16) == pytest.approx(1.0 / 64.0)

    def test_exact_binomial_tail(self):
        # 3 p^2 (1-p) + p^3 at p = 1/16, frozen from the expansion.
        p = 1.0 / 16.0
        want = 3.0 * p * p * (1.0 - p) + p**3
        assert want == pytest.approx(0.011230468750, abs=1e-12)
        assert majority_error_exact(p, 3) == pytest.approx(want, abs=1e-15)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=3, max_value=4096), st.integers(min_value=0, max_value=49))
    def test_exact_tail_below_bound(self, n, half):
        runs = 2 * half + 1
        assert majority_error_exact(1.0 / n, runs) <= majority_bound(runs, n=n)

    def test_keeps_the_float_power_bytes(self):
        # Wherever the float power N^ceil(R/2) is finite, the bound is the
        # float quotient it always was, bit for bit.
        for n in range(3, 4097):
            for runs in range(1, 100, 2):
                try:
                    old = float(2 ** (runs - 1)) / float(n) ** ceil(runs / 2)
                except OverflowError:
                    continue
                assert majority_bound(runs, n=n).hex() == old.hex()

    @pytest.mark.parametrize("runs, n", [(221, 1024), (249, 1024), (199, 4096), (MAX_RUNS, 4096)])
    def test_past_the_float_power(self, runs, n):
        # N^ceil(R/2) overflows a float (a float power raised OverflowError);
        # the bound is the correctly rounded quotient, 0.0 below the subnormals.
        assert majority_bound(runs, n=n) == float(Fraction(2 ** (runs - 1), n ** ceil(runs / 2)))

    def test_rejects_even_runs(self):
        with pytest.raises(ValueError):
            majority_bound(2, n=16)
        with pytest.raises(ValueError):
            majority_error_exact(0.1, 4)

    def test_majority_error_strictly_decreases_in_runs(self):
        for p in (0.3, 1.0 / 16.0, 0.01):
            tails = [majority_error_exact(p, r) for r in range(1, 16, 2)]
            assert all(b < a for a, b in zip(tails, tails[1:]))


class TestSimulateMajority:
    def test_zero_error_rate(self):
        est = simulate_majority(AmplificationPlan(0.0, 3, 10_000, seed=1))
        assert est.rate == 0.0
        assert est.ci_low == 0.0

    def test_matches_exact_tail_with_million_trials(self):
        exact = majority_error_exact(1.0 / 16.0, 3)
        est = simulate_majority(AmplificationPlan(1.0 / 16.0, 3, 1_000_000, seed=0))
        assert est.ci_low <= exact <= est.ci_high

    def test_five_runs_below_closed_form_bound(self):
        est = simulate_majority(AmplificationPlan(1.0 / 16.0, 5, 1_000_000, seed=0))
        assert est.rate <= majority_bound(5, n=16)

    def test_deterministic_given_seed(self):
        plan = AmplificationPlan(0.05, 5, 50_000, seed=7)
        assert simulate_majority(plan).rate == simulate_majority(plan).rate

    def test_shards_merge_by_summation(self):
        # 600 000 trials span three 2^18-trial shards; each shard's draws
        # come from its own (seed, shard) stream, so the summed tally is
        # the same on every run.
        plan = AmplificationPlan(0.05, 3, 600_000, seed=3)
        a = simulate_majority(plan)
        b = simulate_majority(plan)
        assert a.failures == b.failures

    def test_requires_enough_trials(self):
        with pytest.raises(ValueError):
            simulate_majority(AmplificationPlan(0.1, 3, 9_999))

    def test_plan_validation(self):
        with pytest.raises(ValueError):
            AmplificationPlan(0.6, 3, 10_000)
        with pytest.raises(ValueError):
            AmplificationPlan(0.1, 2, 10_000)
        # The seed keys Philox as a uint64 word; 2^64 raised OverflowError there.
        for seed in (-1, 2**64):
            with pytest.raises(ValueError, match=r"seed must be an integer in \[0, 2\^64\)"):
                AmplificationPlan(0.1, 3, 10_000, seed=seed)
        AmplificationPlan(0.1, 3, 10_000, seed=2**64 - 1)

    def test_pinned_plans_straddle_the_btpe_switch(self):
        assert 61 * P_AT_30 == 30.0 < 61 * P_PAST_30

    @settings(max_examples=60, deadline=None)
    @given(st.floats(min_value=0.0, max_value=0.5), odd_runs,
           st.integers(min_value=10_000, max_value=600_000),
           st.integers(min_value=0, max_value=2**64 - 1))
    @example(0.0, 5, 10_000, 0)
    @example(0.5, 9, 10_000, 0)
    @example(1 / 16, 3, 600_000, 2)
    @example(P_AT_30, 61, 100_000, 3)  # inversion
    @example(P_PAST_30, 61, 100_000, 3)  # BTPE
    @example(2**-19, 21, 10_000, 4)  # ceil(R/2) above numpy's bound: never fails
    @example(2**-19, 41, 10_000, 4)
    @example(2**-19, 1, 4_000_000, 5)  # the benchmark's table
    @example(2**-19, 3, 4_000_000, 5)
    @example(2**-19, 5, 4_000_000, 5)
    @example(2**-19, 7, 4_000_000, 5)
    @example(2**-19, 9, 4_000_000, 5)
    def test_counts_what_binomial_draws(self, p, runs, trials, seed):
        # The stream contract: the failure count is the one numpy's
        # Generator.binomial gives on the same Philox streams.
        plan = AmplificationPlan(p, runs, trials, seed)
        assert simulate_majority(plan).failures == binomial_majority_failures(plan)

    @settings(max_examples=60, deadline=None)
    @given(st.floats(min_value=0.0, max_value=0.5, exclude_min=True), odd_runs)
    @example(2**-19, 1)
    @example(1 / 16, 3)
    @example(0.5, 9)
    @example(P_AT_30, 61)
    @example(0.01, 119)  # redraws from 2^53 - 928 on
    def test_cutoffs_are_the_inversion_boundaries(self, p, runs):
        # numpy's own sampler, given U = m 2^-53 at the cutoffs and one grid
        # step below them, fails the majority from `fail` on and draws
        # again from `restart` on. A random stream would miss a cutoff off
        # by a few grid steps; these draws do not.
        assume(runs * p <= amplify.INVERSION_LIMIT)
        fail, restart = amplify._inversion_cutoffs(runs, p)
        assert fail <= restart or fail == DOUBLE_GRID  # redraws come out of the failures
        for m in {0, fail - 1, fail, restart - 1, restart, DOUBLE_GRID - 1}:
            if not 0 <= m < DOUBLE_GRID:
                continue
            x, draws = binomial_draw(runs, p, m / DOUBLE_GRID)
            assert draws == (2 if m >= restart else 1), m
            if draws == 1:
                assert (x >= ceil(runs / 2)) == (m >= fail), m

    @settings(max_examples=30, deadline=None)
    @given(st.floats(min_value=0.0, max_value=0.5),
           st.integers(min_value=0, max_value=10).map(lambda h: 2 * h + 1),
           st.integers(min_value=10_000, max_value=300_000),
           st.integers(min_value=0, max_value=2**64 - 1))
    @example(2**-19, 9, 4_000_000, 5)  # the benchmark's table: R >= 7 reads nothing
    @example(1 / 16, 5, 600_001, 2)  # three shards, the last one trial long
    @example(0.01, 119, 30_000, 1)  # restart cutoff below DOUBLE_GRID
    @example(P_AT_30, 61, 100_000, 3)  # inversion up to the last R
    @example(P_PAST_30, 63, 100_000, 3)  # R = 61 and 63 by BTPE, the rest by inversion
    def test_sweep_counts_what_binomial_draws(self, p, runs, trials, seed):
        # One shard loop for R = 1, 3, ..., runs: each R's count is still the
        # one Generator.binomial gives on the same Philox streams.
        plans = [AmplificationPlan(p, r, trials, seed) for r in range(1, runs + 1, 2)]
        estimates = simulate_majorities(plans)
        assert [est.failures for est in estimates] == [
            binomial_majority_failures(plan) for plan in plans]
        assert estimates[-1] == simulate_majority(plans[-1])

    def test_restart_cutoffs_redraw_from_the_words_after_the_shard(self, monkeypatch):
        # numpy draws again only past about ten standard deviations (at
        # p = 0.01, R = 119, from 928 grid steps below 2^53 on), so random
        # streams leave the redraw path untested; here the cutoffs are moved
        # down so that a quarter and a half of the words draw again. Each
        # R's redraws read the stream after the shard's words, as a plan
        # run alone on its own Philox does.
        cutoffs = {3: (1 << 52, 3 << 51), 5: (1 << 51, 1 << 52)}
        monkeypatch.setattr(amplify, "_inversion_cutoffs", lambda runs, p: cutoffs[runs])
        plans = [AmplificationPlan(0.1, runs, 300_000, seed=9) for runs in (3, 5)]

        def alone(fail, restart):
            failures = 0
            for shard, done in enumerate(range(0, 300_000, amplify.SHARD_SIZE)):
                bitgen = np.random.Philox(key=np.array([9, shard], dtype=np.uint64))
                count = min(amplify.SHARD_SIZE, 300_000 - done)
                while count:
                    words = bitgen.random_raw(count) >> np.uint64(11)
                    count = int(np.count_nonzero(words >= restart))
                    failures += int(np.count_nonzero(words >= fail)) - count
            return failures

        got = [est.failures for est in simulate_majorities(plans)]
        assert got == [alone(*cutoffs[3]), alone(*cutoffs[5])]

    @pytest.mark.parametrize("field, value", [("per_run_error", 0.2), ("trials", 20_000),
                                              ("seed", 1)])
    def test_sweep_plans_share_all_but_the_runs(self, field, value):
        plan = AmplificationPlan(0.1, 3, 10_000, seed=0)
        other = {"per_run_error": 0.1, "runs": 5, "trials": 10_000, "seed": 0, field: value}
        with pytest.raises(ValueError, match="share per_run_error, trials and seed"):
            simulate_majorities([plan, AmplificationPlan(**other)])
        with pytest.raises(ValueError, match="one or more plans"):
            simulate_majorities([])

    def test_unreachable_cutoff_draws_nothing(self, monkeypatch):
        # At p = 2^-19 no double reaches 4 failures out of 7: no Philox is
        # made and no word drawn. At R = 5 every trial reads one word. One
        # CPU, so that every draw is made, and counted, in this process.
        _on_cpus(monkeypatch, 1)
        made, draws = [], []

        class CountingPhilox(np.random.Philox):
            def __init__(self, *args, **kwargs):
                made.append(1)
                super().__init__(*args, **kwargs)

            def random_raw(self, size=None, output=True):
                draws.append(size)
                return super().random_raw(size, output)

        monkeypatch.setattr(np.random, "Philox", CountingPhilox)
        assert simulate_majority(AmplificationPlan(2**-19, 7, 600_000, seed=1)).failures == 0
        assert made == draws == []
        simulate_majority(AmplificationPlan(2**-19, 5, 600_000, seed=1))
        assert len(made) == 3 and sum(draws) == 600_000


def _on_cpus(monkeypatch, count):
    # The tally runs in one process per CPU the process may use.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)


@pytest.fixture
def forks(monkeypatch):
    # Counts the workers forked.
    made, fork = [], os.fork
    monkeypatch.setattr(os, "fork", lambda: made.append(1) or fork())
    return made


class TestThreadedTally:
    # The shards' tally in forked workers (the class keeps the name it had
    # when they were threads, so its test ids stay). 3 shards and a fourth
    # of 2^16 + 12345 trials: neither a multiple of CHUNK nor of SHARD_SIZE.
    TRIALS = 3 * SHARD_SIZE + CHUNK + 12_345

    @pytest.mark.parametrize("p, runs", [(1 / 16, 9), (0.01, 119), (P_PAST_30, 65)])
    def test_counts_do_not_depend_on_the_worker_count(self, monkeypatch, forks, p, runs):
        plans = [AmplificationPlan(p, r, self.TRIALS, seed=11) for r in range(1, runs + 1, 2)]
        counts = {}
        for cpus in (1, 3, 4, 6):
            _on_cpus(monkeypatch, cpus)
            forks.clear()
            counts[cpus] = [est.failures for est in simulate_majorities(plans)]
            # Four shards: a group per CPU up to four, the caller's one of them.
            assert len(forks) == min(cpus, 4) - 1
        assert counts[1] == counts[3] == counts[4] == counts[6]
        assert counts[1][0] == binomial_majority_failures(plans[0])

    @pytest.mark.parametrize("cpus", [1, 4])
    def test_restart_cutoffs_across_chunks_and_shards(self, monkeypatch, cpus):
        # The moved cutoffs of the restart test above: a quarter and a half of
        # the words draw again. 300 000 trials are two shards of 4 and 1
        # chunks; the redraws read each shard's stream after its last chunk.
        cutoffs = {3: (1 << 52, 3 << 51), 5: (1 << 51, 1 << 52)}
        monkeypatch.setattr(amplify, "_inversion_cutoffs", lambda runs, p: cutoffs[runs])
        _on_cpus(monkeypatch, cpus)
        trials = 300_000
        plans = [AmplificationPlan(0.1, runs, trials, seed=9) for runs in (3, 5)]

        def whole_shards(fail, restart):
            failures = 0
            for shard, done in enumerate(range(0, trials, SHARD_SIZE)):
                bitgen = np.random.Philox(key=np.array([9, shard], dtype=np.uint64))
                words = bitgen.random_raw(min(SHARD_SIZE, trials - done)) >> np.uint64(11)
                while words.size:
                    count = int(np.count_nonzero(words >= restart))
                    failures += int(np.count_nonzero(words >= fail)) - count
                    words = bitgen.random_raw(count) >> np.uint64(11)
            return failures

        got = [est.failures for est in simulate_majorities(plans)]
        assert got == [whole_shards(*cutoffs[3]), whole_shards(*cutoffs[5])]

    @pytest.mark.parametrize("how", ["raise", "signal", "short"])
    def test_a_failed_worker_leaves_the_counts_unchanged(self, monkeypatch, forks, capfd, how):
        # Workers that raise, are killed, or whose pickle stream stops short
        # of its end: the caller tallies their shards again.
        plans = [AmplificationPlan(1 / 16, r, self.TRIALS, seed=11) for r in (1, 3, 5)]
        _on_cpus(monkeypatch, 1)
        expected = [est.failures for est in simulate_majorities(plans)]
        caller, dumps = os.getpid(), pickle.dumps

        class FailingPhilox(np.random.Philox):
            def random_raw(self, size=None, output=True):
                if os.getpid() != caller:
                    if how == "raise":
                        raise RuntimeError("worker fails")
                    os.kill(os.getpid(), signal.SIGKILL)
                return super().random_raw(size, output)

        if how == "short":  # only workers pickle
            monkeypatch.setattr(pickle, "dump", lambda obj, fh, protocol: fh.write(
                dumps(obj, protocol)[:-7]))
        else:
            monkeypatch.setattr(np.random, "Philox", FailingPhilox)
        _on_cpus(monkeypatch, 4)
        forks.clear()
        assert [est.failures for est in simulate_majorities(plans)] == expected
        assert len(forks) == 3
        with pytest.raises(ChildProcessError):  # every worker was reaped
            os.waitpid(-1, os.WNOHANG)
        assert capfd.readouterr() == ("", "")  # a failing worker prints nothing

    @pytest.mark.parametrize("bad_shard", [0, 3])  # the caller's and a worker's
    def test_a_worker_exception_reaches_the_caller(self, monkeypatch, forks, bad_shard):
        class FailingPhilox(np.random.Philox):
            def __init__(self, *args, key, **kwargs):
                self.shard = int(key[1])
                super().__init__(*args, key=key, **kwargs)

            def random_raw(self, size=None, output=True):
                if self.shard == bad_shard:
                    raise RuntimeError(f"no words for shard {self.shard}")
                return super().random_raw(size, output)

        _on_cpus(monkeypatch, 4)
        monkeypatch.setattr(np.random, "Philox", FailingPhilox)
        with pytest.raises(RuntimeError, match=f"no words for shard {bad_shard}"):
            simulate_majority(AmplificationPlan(1 / 16, 3, self.TRIALS, seed=1))
        assert len(forks) == 3
        with pytest.raises(ChildProcessError):  # every worker was reaped
            os.waitpid(-1, os.WNOHANG)


class TestWilsonInterval:
    def test_zero_failures(self):
        low, high = wilson_interval(0, 1000)
        assert low == pytest.approx(0.0, abs=1e-15)
        assert 0.0 < high < 0.005

    def test_contains_the_point_estimate(self):
        low, high = wilson_interval(37, 1000)
        assert low < 0.037 < high


class TestAveragingError:
    def test_values(self):
        assert averaging_error(16, 1) == pytest.approx(1.0 / 16.0)
        assert averaging_error(16, 100) == pytest.approx(1.0 / 160.0)

    def test_crossover_against_majority(self):
        # Smallest odd R where the majority bound strictly beats averaging.
        crossover = None
        for runs in range(1, 16, 2):
            if majority_bound(runs, n=16) < averaging_error(16, runs):
                crossover = runs
                break
        assert crossover == 3

    def test_slow_square_root_decay(self):
        values = [averaging_error(16, r) for r in (1, 4, 16, 64)]
        for a, b in zip(values, values[1:]):
            assert a / b == pytest.approx(2.0, rel=1e-12)


class TestRunsRequired:
    def test_native_error_needs_single_run(self):
        assert runs_required(16, 1.0 / 16.0) == 1

    @pytest.mark.parametrize("n", [3, 4])
    def test_small_n_meets_only_the_one_run_budget(self, n):
        # Two more runs scale the bound by 4/N, so for N <= 4 no run count
        # goes below 1/N; the search used to run up to MAX_RUNS.
        assert runs_required(n, 1.0 / n) == 1
        assert runs_required(n, 0.5) == 1
        with pytest.raises(ValueError, match=f"no run count meets the budget 0.2 at n={n}"):
            runs_required(n, 0.2)

    def test_n1024_nano_budget(self):
        # Direct search: R=5 gives 16/1024^3 = 1.49e-8 > 1e-9; R=7 passes.
        assert runs_required(1024, 1e-9) == 7

    def test_agrees_with_log_formula_within_one_odd_step(self):
        # The 2^{R-1} prefactor shifts the required R at small N; the
        # one-odd-step agreement is an asymptotic statement, checked here at
        # the sizes the formula targets.
        for n in (1024, 4096):
            for eps in (1e-2, 1e-4, 1e-6, 1e-9, 1e-12):
                direct = runs_required(n, eps)
                formula = asymptotic_runs(n, eps)
                assert abs(direct - formula) <= 2

    def test_squaring_the_budget_roughly_doubles_runs(self):
        for eps in (1e-3, 1e-5):
            r1 = runs_required(1024, eps)
            r2 = runs_required(1024, eps * eps)
            assert 2 * r1 - 3 <= r2 <= 2 * r1 + 3


class TestRegisterWidth:
    def test_single_step_single_term(self):
        assert register_width(1, 1, 0.5) == 1

    def test_arithmetic_example(self):
        assert register_width(1000, 2, 1e-6) == 31

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=1, max_value=9_999), st.integers(min_value=1, max_value=5),
           st.floats(min_value=1e-9, max_value=0.5))
    @example(2, 2, 0.49999999999999994)  # float log2(16.000000000000004) rounds to 4.0
    def test_doubling_steps_adds_one_bit(self, steps, terms, eps):
        assert register_width(2 * steps, terms, eps) == register_width(steps, terms, eps) + 1

    @pytest.mark.parametrize("steps, eps", [(10**300, 1e-300), (4 * 10**307, 1e-9)],
                             ids=["quotient-inf", "int-too-large"])
    def test_past_the_float_range(self, steps, eps):
        # n l / eps is past the float range (the float quotient was inf, or
        # its int-to-float conversion raised); b is still the smallest with
        # n l / eps <= 2^b.
        bits = register_width(steps, 2, eps)
        assert 2 ** (bits - 1) < Fraction(2 * steps) / Fraction(eps) <= 2**bits

    def test_per_step_cost_scales_with_bits_cubed(self):
        assert per_step_cost(1024, 10) == pytest.approx(10.0 * 1000.0)


class TestComplexities:
    @staticmethod
    def _report(n=1024, total_time=50.0, error_budget=1e-6, step_cost=1.0, grover_step_cost=1.0):
        return cost_report(n, total_time, error_budget, step_cost, grover_step_cost)

    def test_halving_budget_doubles_trotter_cost(self):
        base = self._report()["cost"]["trotter"]
        halved = self._report(error_budget=5e-7)["cost"]["trotter"]
        assert halved == pytest.approx(2.0 * base, rel=1e-12)

    def test_doubling_time_quadruples_trotter_cost(self):
        base = self._report()["cost"]["trotter"]
        doubled = self._report(total_time=100.0)["cost"]["trotter"]
        assert doubled == pytest.approx(4.0 * base, rel=1e-12)

    def test_implied_steps_match_budget_planner(self):
        from hamsearch.search import SearchInstance
        from hamsearch.trotter import plan_for_budget

        inst = SearchInstance(16)
        eps = 1e-3
        report = self._report(n=16, total_time=None, error_budget=eps)
        implied = report["queries"]["trotter"] / 2  # t^2 ||E2||/eps before rounding
        planned = plan_for_budget(search_split_of(16), inst.total_time, eps).steps
        assert planned == int(np.ceil(implied - 1e-12)) == report["n"]

    def test_native_budget_grover_cost(self):
        report = self._report(error_budget=1.0 / 1024.0)
        assert report["grover"]["runs"] == 1
        assert report["cost"]["grover"] == pytest.approx(25.0, abs=1e-12)  # t/2 * 1 * C_G

    def test_efficiency_separation_in_budget(self):
        ratios = []
        for eps in [10.0**-k for k in range(2, 13)]:
            cost = self._report(error_budget=eps)["cost"]
            ratios.append(cost["grover"] / cost["trotter"])
        assert all(b < a for a, b in zip(ratios, ratios[1:]))
        assert ratios[-1] < 1e-8

    def test_queries_follow_the_convention(self):
        report = self._report()
        steps = report["queries"]["trotter"] / 2
        assert report["cost"]["trotter"] == pytest.approx(steps)  # unit step cost
        grover = report["grover"]
        assert report["queries"]["grover"] == pytest.approx(grover["q_steps"] * grover["runs"])

    def test_model_validation(self):
        # In the order of the checks: when several inputs are bad, the first wins.
        for kwargs, message in [
            (dict(n=2.5), "database size must be an integer >= 2"),
            (dict(total_time=0.0), r"need total_time > 0 and error budget in \(0, 1\)"),
            (dict(error_budget=2.0), r"need total_time > 0 and error budget in \(0, 1\)"),
            (dict(n=2, error_budget=2.0), r"need total_time > 0 and error budget in \(0, 1\)"),
            (dict(n=2), "database size must be >= 3"),
            (dict(n=2, step_cost=-1.0), "database size must be >= 3"),
            (dict(grover_step_cost=-1.0), "the step costs must be nonnegative"),
            (dict(total_time=1e200), r"step count t\^2 \|\|E2\|\|/eps at t=1e\+200 is not"),
            (dict(step_cost=1e308), r"Trotter cost \(step count x step cost 1e\+308\) is not"),
            (dict(n=4, error_budget=0.1), "no run count meets the budget 0.1 at n=4"),
            (dict(grover_step_cost=1e308), r"Grover cost \(\(t/2\) R x Grover step cost 1e\+308"),
            (dict(step_cost=5e-324), "cost ratio Grover/Trotter at step cost 4.94066e-324"),
        ]:
            with pytest.raises(ValueError, match=message):
                self._report(**kwargs)


@pytest.mark.parametrize("call, message", [
    (lambda: majority_bound(1, n=1), "n must be >= 2"),
    (lambda: majority_error_exact(1.5, 1), "p must lie in [0, 1]"),
    (lambda: majority_error_exact(-0.1, 1), "p must lie in [0, 1]"),
    (lambda: wilson_interval(0, 0), "trials must be positive"),
    (lambda: averaging_error(1, 1), "need n >= 2 and runs >= 1"),
    (lambda: averaging_error(4, 0), "need n >= 2 and runs >= 1"),
    (lambda: runs_required(16, 0.0), "error budget must lie in (0, 1)"),
    (lambda: runs_required(16, 1.0), "error budget must lie in (0, 1)"),
    (lambda: runs_required(2, 0.1), "majority amplification needs n >= 3"),
    (lambda: runs_required(5, 1e-30), f"budget 1e-30 needs more than {MAX_RUNS} runs"),
    (lambda: asymptotic_runs(16, 1.0), "error budget must lie in (0, 1)"),
    (lambda: register_width(0, 1, 0.1), "steps and term_count must be >= 1"),
    (lambda: register_width(1, 0, 0.1), "steps and term_count must be >= 1"),
    (lambda: register_width(1, 1, 0.0), "error budget must lie in (0, 1)"),
    (lambda: per_step_cost(1, 1), "need dimension >= 2 and bits >= 1"),
    (lambda: per_step_cost(4, 0), "need dimension >= 2 and bits >= 1"),
])
def test_input_checks_raise_their_messages(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message
