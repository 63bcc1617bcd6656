"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.  All random draws use fixed seeds, so the suite is
deterministic.
"""

import time

import numpy as np
import pytest

from eprsim import analysis, emission, layers, measure, sampling, splines

from oracles import (
    binomial_oracle,
    brute_conditional_marginal,
    brute_extreme_discrepancy,
    domain_high,
    factorial_oracle,
    layer_spin_a,
    layer_spin_b,
    loop_conditional_outcome_bias,
    random_unit_vector,
)

GENERIC_A = measure.as_setting([0.48, 0.6, 0.64], normalize=True)
GENERIC_B = measure.as_setting([0.8, 0.36, 0.48], normalize=True)
GENERIC_C = measure.as_setting([0.1, 0.7, 0.7], normalize=True)


class _Timer:
    def __init__(self, label, limit):
        self.label = label
        self.limit = limit

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        status = "PASS" if exc_type is None else "FAIL"
        print(f"ACCEPTANCE {self.label}: {status} in {elapsed:.1f}s (limit {self.limit}s)")
        if exc_type is None:
            assert elapsed < self.limit, f"{self.label} exceeded runtime limit"
        return False


def test_criterion_1_spline_bound():
    with _Timer("1 spline residual window", 10):
        grid = np.linspace(0.0, 1.0, 501)
        target = (grid[:, None] - grid[None, :]) ** 2
        for n in (4, 8, 16, 32):
            sysn = splines.SplineSystem(n)
            residual = splines.approx_squared_diff_grid(sysn, grid, grid) - target
            bound = 0.25 / n**2
            assert residual.min() >= -1e-12, (n, residual.min())
            assert residual.max() <= bound + 1e-12, (n, residual.max())


def test_criterion_2_mass_window():
    with _Timer("2 total-mass window", 5):
        rng = np.random.default_rng(0)
        for _ in range(1000):
            a, b = random_unit_vector(rng), random_unit_vector(rng)
            for n in (4, 8, 16):
                mass = measure.total_mass(measure.build_measure(a, b, n))
                assert 1.0 - 1e-12 <= mass < 1.0 + 0.25 / n**2, (a, b, n, mass)


def test_criterion_3_exact_correlation():
    with _Timer("3 exact pair correlation", 5):
        rng = np.random.default_rng(1)
        for _ in range(1000):
            a, b = random_unit_vector(rng), random_unit_vector(rng)
            mu = measure.build_measure(a, b, 4)
            assert abs(measure.pair_integral(mu) + float(np.dot(mu.a, mu.b))) <= 1e-12
        # closed-form spot checks
        e1 = [1.0, 0.0, 0.0]
        assert measure.pair_integral(measure.build_measure(e1, e1, 4)) == pytest.approx(
            -1.0, abs=1e-12
        )
        assert measure.pair_integral(
            measure.build_measure(e1, [0.0, 1.0, 0.0], 4)
        ) == pytest.approx(0.0, abs=1e-12)
        b60 = measure.as_setting([0.5, np.sqrt(3.0) / 2.0, 0.0], normalize=True)
        assert measure.pair_integral(measure.build_measure(e1, b60, 4)) == pytest.approx(
            -0.5, abs=1e-12
        )


def test_criterion_4_per_layer_and_companions():
    with _Timer("4 per-layer correlation + companion cancellation", 30):
        rng = np.random.default_rng(2)
        mu = measure.build_measure(GENERIC_A, GENERIC_B, 4)
        target = -float(np.dot(mu.a, mu.b))
        for _ in range(200):
            # one companion pair: labels 1 and 2 share the pair's integral
            pair = layers.build_universe(4, 2, 1, rng)
            assert abs(analysis.pair_expectation(pair, mu) - target) <= 1e-12
            us = rng.uniform(-6.0, domain_high(mu.n) + 3.0, 10_000)
            ws = rng.random(10_000)
            sum_a = layer_spin_a(pair, 1, mu.a, us, ws) + layer_spin_a(pair, 2, mu.a, us, ws)
            sum_b = layer_spin_b(pair, 1, mu.b, us, ws) + layer_spin_b(pair, 2, mu.b, us, ws)
            assert np.abs(sum_a).max() == 0.0
            assert np.abs(sum_b).max() == 0.0


def test_criterion_5_parameter_independence():
    with _Timer("5 parameter independence + witness", 10):
        mu = measure.build_measure(GENERIC_A, GENERIC_B, 4)
        for seed, tie in ((11, False), (12, True)):
            uni = layers.build_universe(4, 3, 60, np.random.default_rng(seed), tie_weights=tie)
            biases = analysis.outcome_biases(uni, mu)
            for side in ("A", "B"):
                assert biases[side][0] <= 1e-12
            # the bias given the source parameter alone, by the loop definition
            assert loop_conditional_outcome_bias(uni, mu, "A", False, "source") <= 1e-12
        witness_uni = layers.build_universe(4, 3, 60, np.random.default_rng(11))
        witness = analysis.outcome_biases(witness_uni, mu)["A"][1]
        assert witness > 0.1


def test_criterion_6_monte_carlo_agreement():
    with _Timer("6 Monte Carlo correlation + CHSH", 60):
        # n = 4: the products read nothing of a universe
        a0 = measure.setting_from_angle(0.0)
        b45 = measure.setting_from_angle(45.0)
        est = sampling.run_experiment(4, a0, b45, 1_000_000, seed=1606)
        assert abs(est["mean"] - (-np.sqrt(0.5))) <= 3.29 * est["stderr"]
        # CHSH-optimal spin settings: the classic polarizer angles
        # (0, 45, 22.5, 67.5) doubled, since outcomes follow -cos of the
        # angle between the setting vectors themselves
        chsh_est = sampling.chsh(
            4,
            measure.setting_from_angle(0.0),
            measure.setting_from_angle(90.0),
            measure.setting_from_angle(45.0),
            measure.setting_from_angle(135.0),
            1_000_000,
            seed=2606,
        )
        assert abs(chsh_est["s_value"] - 2.0 * np.sqrt(2.0)) <= 3.29 * chsh_est["stderr"]


def test_criterion_7_label_uniformity_and_gating():
    with _Timer("7 label uniformity, gated and ungated", 30):
        rng = np.random.default_rng(707)
        fracs = emission.generate_trace(1.0, 1_000_000, rng)
        _, _, counts = emission.prefix_discrepancies(fracs, [], 50)
        gated = emission.detector_gate(0.5, 0.5, counts, rng)
        stat_u, dof = emission.uniform_chi_square(counts)
        stat_g, _ = emission.uniform_chi_square(gated)
        quantile = emission.chi_square_quantile(0.999, dof)
        assert stat_u < quantile
        assert stat_g < quantile


def test_criterion_8_discrepancy_decay():
    with _Timer("8 discrepancy decay + bracket vs oracle", 120):
        ks = [10**3, 10**4, 10**5, 10**6]
        fracs = emission.generate_trace(1.0, ks[-1], np.random.default_rng(808))
        stars = emission.prefix_discrepancies(fracs, ks)[0]
        assert emission.fit_rate(ks, stars) <= -0.4
        assert stars[-1] <= 0.01
        for k in (1000, 10_000):
            fracs = emission.generate_trace(1.0, k, np.random.default_rng(809))
            extreme = brute_extreme_discrepancy(fracs)
            [star], got, _ = emission.prefix_discrepancies(fracs, [k])
            assert star - 1e-15 <= got <= 2.0 * star + 1e-15
            assert got == pytest.approx(extreme, abs=1e-12)


def test_criterion_9_dependence_properties():
    with _Timer("9 dependence-property suite", 30):
        mu_ab = measure.build_measure(GENERIC_A, GENERIC_B, 4)
        mu_ac = measure.build_measure(GENERIC_A, GENERIC_C, 4)
        tied = layers.build_universe(4, 3, 100, np.random.default_rng(909), tie_weights=True)
        rep = analysis.dependence_report(tied, mu_ab, mu_ac)
        assert rep["r_lambda_dependence"] <= 1e-12
        assert rep["factorization_defect"] <= 1e-12
        generic = layers.build_universe(4, 3, 100, np.random.default_rng(910))
        rep = analysis.dependence_report(generic, mu_ab, mu_ac)
        assert rep["r_lambda_dependence"] > 0.0
        assert rep["setting_shift"] > 0.0
        best = 0.0
        for col_to in generic.col_to:  # a pair's two labels share col_to
            m_ab = brute_conditional_marginal(col_to, mu_ab.cell_masses)
            m_ac = brute_conditional_marginal(col_to, mu_ac.cell_masses)
            best = max(best, 0.5 * float(np.abs(m_ab - m_ac).sum()))
        assert rep["setting_shift"] == pytest.approx(best, abs=1e-12)


def test_criterion_10_layer_count():
    with _Timer("10 exact layer count", 1):
        n = 4
        expected = (
            36
            * binomial_oracle(3 * n + 3, 3) ** 2
            * binomial_oracle(9 * n * n, 3 * n)
            * factorial_oracle(3 * n)
        )
        assert binomial_oracle(15, 3) == 455
        assert layers.layer_count(4) == expected
