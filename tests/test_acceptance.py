"""Acceptance criteria, each printing a pass/fail line with its metric and
tolerance.

Criteria 2-8 are the checks of ``verification.run_suite`` on the seeded
potential: one test per check id, judged against ``config.THRESHOLDS``, so
the acceptance tests and ``shgspec verify`` run the same checks with the
same thresholds.  The remaining tests cover what the suite has no check for.
"""

import time

import pytest
from conftest import slot

from shgspec.config import THRESHOLDS, RunConfig
from shgspec.differentials import solve_sigma
from shgspec.verification import (
    check_zero_closed_forms,
    interpolation_self_test,
    negative_control,
    run_suite,
)


def check(name, metric, threshold):
    ok = metric <= threshold
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: metric={metric:.3e} tolerance={threshold:.1e}")
    assert ok, f"{name}: {metric:.3e} > {threshold:.3e}"


@pytest.fixture(scope="session")
def suite(v_seed):
    return {c.check_id: c for c in run_suite(v_seed, RunConfig())}


@pytest.mark.parametrize("check_id", list(THRESHOLDS))
def test_suite_check(suite, check_id):
    """Every suite check runs on the real seeded potential and passes."""
    c = suite[check_id]
    print(c.line())
    assert c.threshold == THRESHOLDS[check_id]
    assert c.status == "pass" and c.metric <= c.threshold, c.line()


def test_suite_reports_in_threshold_order(suite):
    """run_suite reports its checks in the order of config.THRESHOLDS."""
    assert list(suite) == list(THRESHOLDS)


def test_criterion_1_zero_closed_forms():
    """Delta, chi_D, Delta_dot at v=0 vs closed forms; 20 samples; < 5 s."""
    t0 = time.time()
    metric = check_zero_closed_forms(RunConfig())
    runtime = time.time() - t0
    check("criterion 1 (zero closed forms)", metric, THRESHOLDS["monodromy_zero_closed_forms"])
    check("criterion 1 (runtime seconds)", runtime, 5.0)


def test_criterion_9_zero_potential_solver(tab0, iso0):
    sol = solve_sigma(tab0, iso0, 1, 8, tol=1e-9)
    err = max(
        max(abs(sol.sigma1[k + sol.K] - slot(tab0, "tau2", 1, k)) for k in range(-8, 9)),
        max(abs(sol.sigma2[k + sol.K] - slot(tab0, "tau2", 2, k)) for k in range(-8, 9)),
    )
    check("criterion 9 (sigma = tau at v=0)", err, 1e-12)
    check("criterion 9 (residual)", sol.residual_norm, THRESHOLDS["sigma_solve_residual"])
    check("criterion 9 (Newton steps)", float(sol.newton_iters), 0.0)


def test_criterion_10_interpolation(tab0):
    """The suite tests K = 16; the acceptance criterion states K = 24."""
    metric = interpolation_self_test(tab0, K=24, seed=0)
    check("criterion 10 (interpolation self-test)", metric, THRESHOLDS["interpolation"])


def test_criterion_11_negative_control(v_seed):
    dev_clean, dev_bad = negative_control(v_seed, RunConfig())
    thr = THRESHOLDS["normalization"]
    detected = dev_clean <= thr < dev_bad
    print(f"[{'PASS' if detected else 'FAIL'}] criterion 11 (negative control detected): "
          f"clean={dev_clean:.3e} corrupted={dev_bad:.3e} tolerance={thr:.1e}")
    assert detected, (dev_clean, dev_bad)
