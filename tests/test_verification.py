import dataclasses
import json

import numpy as np
import pytest

from shgspec import verification
from shgspec.config import RunConfig, THRESHOLDS, seeded_ensemble
from shgspec.potential import Potential
from shgspec.spectrum import build_isolating, build_table
from shgspec.verification import negative_control, run_suite


def _small_cfg():
    """Down-scaled config for fast suite runs; the product checks still run
    at their fixed truncations 8..32, and every gate at its THRESHOLDS value."""
    return RunConfig(n_max=6)


@pytest.fixture(scope="module")
def small_suite():
    return run_suite(Potential.cosine(0.1), _small_cfg())


def test_suite_passes_small_config(small_suite):
    failed = [c.check_id for c in small_suite if c.status == "fail"]
    assert failed == []


def test_report_invariant(small_suite):
    for c in small_suite:
        if c.status == "skipped":
            assert c.reason
        else:
            assert (c.status == "pass") == (c.metric <= c.threshold)
        assert c.threshold == THRESHOLDS[c.check_id]
        assert c.line().startswith("[")


def test_counting_annulus_reports_its_budget(small_suite):
    """counting_annulus carries count_annulus' trace: the outer and inner
    circle of A_4, each resolved on its first rung, far inside the budget."""
    ann = {c.check_id: c for c in small_suite}["counting_annulus"]
    assert [row[:3] for row in ann.trace] == [(4, 192, 1e-6), (-4, 192, 1e-6)]
    assert max(quad + prop for *_, quad, prop in ann.trace) < 1e-3


def test_suite_deterministic(small_suite):
    """A second run on a fresh potential repeats the module's run exactly."""
    b = run_suite(Potential.cosine(0.1), _small_cfg())
    assert [(c.check_id, c.status, c.metric) for c in small_suite] == [
        (c.check_id, c.status, c.metric) for c in b
    ]


def test_complex_potential_skips_real_checks():
    v = seeded_ensemble()[2]  # genuinely complex
    assert not v.real
    checks = run_suite(v, _small_cfg())
    by_id = {c.check_id: c for c in checks}
    # the real-flag checks are the only skips
    assert {c.check_id for c in checks if c.status == "skipped"} == {
        "monodromy_real_symmetry", "reality_confinement", "sign_tables"}
    # the analytic machinery still works off the real line
    for cid in ("reciprocity", "product_reps"):
        assert by_id[cid].status == "pass", (cid, by_id[cid].metric)
    # for non reflection-symmetric potentials the automatic m=n integral
    # carries the truncated constraint residual (1.0e-5 at K=6, decaying
    # with K), above the gate's 1e-6 at this truncation
    assert by_id["normalization"].metric <= 1e-4


def test_negative_control_detected():
    clean, corrupted = negative_control(Potential.cosine(0.1), _small_cfg())
    assert clean <= THRESHOLDS["normalization"]
    assert corrupted > THRESHOLDS["normalization"]


def test_zero_potential_suite_passes():
    checks = run_suite(Potential.zero(), _small_cfg())
    failed = [c.check_id for c in checks if c.status == "fail"]
    assert failed == []
    by_id = {c.check_id: c for c in checks}
    # gap-interior sign checks are vacuous for point gaps
    assert "vacuous" in by_id["sign_tables"].reason
    # the product residuals sit at the rounding floor, below ode_tol, so no
    # step of the K-trace is judged; the reason says so
    assert by_id["product_reps_monotone"].reason.startswith("0 of 3 steps")


@pytest.mark.parametrize("call, entry, check_id", [
    (1, (0, 1), "monodromy_evenness"),  # the -lambda side, off the diagonal
    (0, (1, 1), "monodromy_evenness"),
    (2, (1, 0), "monodromy_real_symmetry"),  # the conj(lambda) side
    (0, (0, 1), "monodromy_real_symmetry"),
])
def test_monodromy_symmetry_checks_see_one_perturbed_entry(monkeypatch, call, entry, check_id):
    """Evenness and reality compare whole matrices, each side propagated on
    its own: 1e-8 added to one entry of one side fails the check, and the
    unperturbed sides pass it."""
    v, cfg = seeded_ensemble()[0], _small_cfg()
    at = {"monodromy_evenness": 1, "monodromy_real_symmetry": 2}[check_id]
    assert verification.check_monodromy_invariants(v, cfg)[at] <= THRESHOLDS[check_id]
    run, calls = verification.integrate_many, []

    def perturbed(v, lams, order=1, **kw):
        res = run(v, lams, order, **kw)
        if len(calls) == call:
            res.Mgrave[(...,) + entry] += 1e-8
        calls.append(lams)
        return res

    monkeypatch.setattr(verification, "integrate_many", perturbed)
    metric = verification.check_monodromy_invariants(v, cfg)[at]
    assert len(calls) == 3 and metric > THRESHOLDS[check_id]


def test_product_monotone_counts_flat_steps_above_the_floor(monkeypatch):
    """A flat product trace above ode_tol is three steps that do not lower
    the residual: the monotonicity gate reads 3 and fails."""
    flat = {"chi_p": 1e-5, "chi_D": 1e-5, "delta_dot": 1e-5}
    monkeypatch.setattr(verification, "verify_product_reps", lambda v, table, K, **kw: [flat] * len(K))
    by_id = {c.check_id: c for c in run_suite(Potential.cosine(0.1), _small_cfg())}
    mono = by_id["product_reps_monotone"]
    assert mono.metric == 3 and mono.status == "fail"
    assert mono.reason.startswith("3 of 3 steps")
    assert [k for k, _ in mono.trace] == list(verification.PRODUCT_K_LIST)


@pytest.fixture(scope="module")
def suite_tables():
    """The three tables a small-config suite on v1 builds, by n_max: the
    v = 0 oracle (8), the main table (32) and the reflected one (6)."""
    v, tol = seeded_ensemble()[0], _small_cfg().spectral_tol
    return {8: build_table(Potential.zero(), 8, tol=tol), 32: build_table(v, 32, tol=tol),
            6: build_table(v.reflected(), 6, tol=tol)}


def _edited(n_max, name, n, f):
    """The tables with entry n of array name of the one of n_max set to f(entry)."""
    def edit(tables):
        table = tables[n_max]
        arr = np.array(getattr(table, name))
        arr[n + table.n_max] = f(arr[n + table.n_max])
        return {**tables, n_max: dataclasses.replace(table, **{name: arr})}
    return edit


def _swapped(n_max, n, k):
    """The tables with rows n and k of the one of n_max exchanged."""
    def edit(tables):
        table, rows = tables[n_max], {}
        for name in ("lam_minus", "lam_plus", "mu", "lam_dot"):
            arr = np.array(getattr(table, name))
            arr[[n + table.n_max, k + table.n_max]] = arr[[k + table.n_max, n + table.n_max]]
            rows[name] = arr
        return {**tables, n_max: dataclasses.replace(table, **rows)}
    return edit


# case: (table edit, shift of sigma_{1,1} in the n = 2 solve); on v1 at
# n_max 6 only the gaps of n = -1 (|gamma| 9.9e-4) and n = 1 (0.158) are open
GATE_CASES = {
    "zero_spectrum": (_edited(8, "mu", 2, lambda x: x * (1 + 1e-6)), 0),
    "reciprocity": (_edited(6, "lam_dot", 2, lambda x: x * (1 + 1e-6)), 0),
    "reality_confinement-imaginary": (_edited(32, "mu", 2, lambda x: x + 1e-6j), 0),
    "reality_confinement-mu_outside_gap": (_edited(32, "mu", 1, lambda x: x + 0.2), 0),
    "reality_confinement-gap_order": (_swapped(32, 3, 5), 0),
    "gap_confinement": (None, 1e-6j),
    "sigma_tau_estimate": (None, 0.2),
    "lamdot_refined": (_edited(32, "lam_dot", 1, lambda x: x + 0.3), 0),
}


@pytest.mark.parametrize("case", GATE_CASES)
def test_each_table_gate_fails_on_one_corrupted_entry(monkeypatch, small_suite, suite_tables,
                                                      case):
    """One table entry or one sigma root corrupted through the suite's
    build_table or solve_sigma fails the gate that reads it, which passes on
    the clean run.  The gradient FD report, whose gates are not judged here,
    is stubbed for time.  Rows 3 and 5 hold closed gaps of one parity, so
    their swap keeps every Delta sign and every product; the disc builder
    refuses a table with gaps out of order, so there the main table's discs
    are those of the clean table."""
    check_id = case.split("-")[0]
    edit, shift = GATE_CASES[case]
    assert {c.check_id: c for c in small_suite}[check_id].status == "pass"
    tables = edit(suite_tables) if edit else suite_tables
    solve, discs = verification.solve_sigma, verification.sp.build_isolating

    def solve_moved(table, iso, n, K, **kw):
        sol = solve(table, iso, n, K, **kw)
        if n != 2 or not shift:
            return sol
        sigma1 = sol.sigma1.copy()
        sigma1[1 + K] += shift
        return dataclasses.replace(sol, sigma1=sigma1)

    def clean_discs(v, table, nodes=64):
        if table is not tables[6]:
            table = suite_tables[32].truncated(table.n_max)
        return discs(v, table, nodes=nodes)

    monkeypatch.setattr(verification.sp, "build_table", lambda v, n_max, tol: tables[n_max])
    if case.endswith("gap_order"):
        monkeypatch.setattr(verification.sp, "build_isolating", clean_discs)
    monkeypatch.setattr(verification, "solve_sigma", solve_moved)
    monkeypatch.setattr(verification, "grad_deltas_fd_report", lambda v, table, cfg: dict.fromkeys(
        ("max_rel", "unresolved", "order_cases", "order_dev", "order_measured",
         "zero_delta_norm"), 0))
    by_id = {c.check_id: c for c in run_suite(seeded_ensemble()[0], _small_cfg())}
    assert by_id[check_id].status == "fail", by_id[check_id].metric


def test_runconfig_json_round_trip():
    cfg = RunConfig(n_max=8, seed=3)
    clone = RunConfig.from_json(cfg.to_json())
    assert clone.n_max == 8 and clone.seed == 3
    assert "thresholds" not in json.loads(cfg.to_json())
    # the truncation K is the table's range, read-only and never serialized
    assert clone.K == 8 and "K" not in json.loads(cfg.to_json())
    with pytest.raises(ValueError, match="unknown run configuration keys: K"):
        RunConfig.from_json('{"K": 10}')
    for n_max in (0, 1):  # the sigma system is solved for n = 0, 1, 2
        with pytest.raises(ValueError, match="N_max must be >= 2"):
            RunConfig(n_max=n_max)
    # the tolerances no flag sets are constants, not configuration
    assert (cfg.newton_tol, cfg.newton_max_iter, cfg.spectral_tol) == (1e-9, 12, 1e-13)


def test_runconfig_rejects_unknown_threshold_id():
    """A run configuration carries no thresholds, so a threshold id in a
    config file, spelt right or not, is an error; so is every other key
    that is not a RunConfig field."""
    for text in ('{"thresholds": {"normalisation": 1e-3}}',
                 '{"thresholds": {"normalization": 1.0}}'):
        with pytest.raises(ValueError, match="unknown run configuration keys: thresholds"):
            RunConfig.from_json(text)
    for key, val in (("product_K_list", [8, 16]), ("differentials_n_list", [0]),
                     ("newton_tol", 1e-9), ("newton_max_iter", 12), ("spectral_tol", 1e-13)):
        with pytest.raises(ValueError, match=f"unknown run configuration keys: {key}"):
            RunConfig.from_json(json.dumps({key: val}))


def test_seeded_ensemble_fixed():
    ens = seeded_ensemble()
    assert len(ens) == 3
    assert ens[0].real and ens[1].real and not ens[2].real
    again = seeded_ensemble()
    for a, b in zip(ens, again):
        assert a.to_json() == b.to_json()


def test_a_threshold_without_a_check_fails_the_run(monkeypatch):
    """run_suite returns one report per THRESHOLDS key, so a gate that no
    check reports raises instead of going missing from the report."""
    monkeypatch.setitem(THRESHOLDS, "unreported", 1.0)
    with pytest.raises(KeyError, match="unreported"):
        run_suite(Potential.zero(), RunConfig(n_max=2))
