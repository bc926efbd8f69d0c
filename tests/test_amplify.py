# Majority-vote amplification (bound, exact tail, Monte Carlo) and the
# cost accounting for both evolution routes.

import numpy as np
import pytest

from hamsearch.amplify import (
    AmplificationPlan,
    CostModel,
    asymptotic_runs,
    averaging_error,
    grover_complexity,
    majority_bound,
    majority_error_exact,
    per_step_cost,
    register_width,
    runs_required,
    simulate_majority,
    trotter_complexity,
    wilson_interval,
)


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

    def test_exact_tail_below_bound_on_power_grid(self):
        for n in (4, 16, 64, 256, 1024, 4096):
            for runs in range(1, 16, 2):
                assert majority_error_exact(1.0 / n, runs) <= majority_bound(runs, n=n)

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

    def test_doubling_steps_adds_one_bit(self):
        rng = np.random.default_rng(51)
        for _ in range(50):
            steps = int(rng.integers(1, 10_000))
            terms = int(rng.integers(1, 6))
            eps = float(rng.uniform(1e-9, 0.5))
            assert register_width(2 * steps, terms, eps) == register_width(steps, terms, eps) + 1

    def test_per_step_cost_scales_with_bits_cubed(self):
        assert per_step_cost(1024, 10) == pytest.approx(10.0 * 1000.0)


class TestComplexities:
    def _model(self, **kwargs):
        defaults = dict(
            total_time=50.0,
            error_budget=1e-6,
            database_size=1024,
            norm_e2=0.0156,
        )
        defaults.update(kwargs)
        return CostModel(**defaults)

    def test_halving_budget_doubles_trotter_cost(self):
        base = trotter_complexity(self._model()).cost
        halved = trotter_complexity(self._model(error_budget=5e-7)).cost
        assert halved == pytest.approx(2.0 * base, rel=1e-12)

    def test_doubling_time_quadruples_trotter_cost(self):
        base = trotter_complexity(self._model()).cost
        doubled = trotter_complexity(self._model(total_time=100.0)).cost
        assert doubled == pytest.approx(4.0 * base, rel=1e-12)

    def test_implied_steps_match_budget_planner(self):
        from hamsearch.search import SearchInstance
        from hamsearch.trotter import HermitianTermSet, commutator_error, plan_for_budget

        inst = SearchInstance(16)
        s, t = inst.source_state, inst.target_state
        terms = HermitianTermSet(2, (np.outer(s, s.conj()), np.outer(t, t.conj())), ("s", "t"))
        eps = 1e-3
        cm = self._model(
            total_time=inst.total_time,
            error_budget=eps,
            database_size=16,
            norm_e2=commutator_error(terms),
        )
        implied = trotter_complexity(cm).steps
        planned = plan_for_budget(terms, inst.total_time, eps).steps
        assert planned == int(np.ceil(implied - 1e-12))

    def test_native_budget_grover_cost(self):
        cm = self._model(error_budget=1.0 / 1024.0)
        result = grover_complexity(cm)
        assert result.runs == 1
        assert result.cost == pytest.approx(25.0, abs=1e-12)  # t/2 * 1 * C_G

    def test_efficiency_separation_in_budget(self):
        ratios = []
        for eps in [10.0**-k for k in range(2, 13)]:
            cm = self._model(error_budget=eps)
            ratios.append(grover_complexity(cm).cost / trotter_complexity(cm).cost)
        assert all(b < a for a, b in zip(ratios, ratios[1:]))
        assert ratios[-1] < 1e-8

    def test_queries_follow_the_convention(self):
        cm = self._model()
        assert trotter_complexity(cm).queries == pytest.approx(2.0 * trotter_complexity(cm).steps)
        gc = grover_complexity(cm)
        assert gc.queries == pytest.approx(gc.q_steps * gc.runs)

    def test_model_validation(self):
        with pytest.raises(ValueError):
            CostModel(total_time=0.0, error_budget=0.1, database_size=16)
        with pytest.raises(ValueError):
            CostModel(total_time=1.0, error_budget=2.0, database_size=16)
        with pytest.raises(ValueError):
            CostModel(total_time=1.0, error_budget=0.1, database_size=2)
