import json

import pytest

from shgspec.config import RunConfig, THRESHOLDS, seeded_ensemble
from shgspec.potential import Potential
from shgspec.verification import negative_control, run_suite


def _small_cfg(**kw):
    """Down-scaled config for fast suite runs; the product threshold is part
    of the config and is rescaled with the reduced truncation (1e-4 is the
    acceptance value at K=32)."""
    base = dict(
        n_max=6,
        K=6,
        product_K_list=(4, 6),
        differentials_n_list=(0,),
        ode_tol=1e-11,
        spectral_tol=1e-13,
    )
    base.update(kw)
    cfg = RunConfig(**base)
    cfg.thresholds = dict(cfg.thresholds)
    cfg.thresholds["product_reps"] = 2e-3
    return cfg


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
        assert c.check_id in THRESHOLDS
        assert c.line().startswith("[")


def test_suite_deterministic(small_suite):
    """A second run on a fresh potential repeats the module's run exactly."""
    b = run_suite(Potential.cosine(0.1), _small_cfg())
    assert [(c.check_id, c.status, c.metric) for c in small_suite] == [
        (c.check_id, c.status, c.metric) for c in b
    ]


def test_complex_potential_skips_real_checks():
    v = seeded_ensemble()[2]  # genuinely complex
    assert not v.real
    cfg = _small_cfg()
    # for non reflection-symmetric potentials the automatic m=n integral
    # carries the truncated constraint residual (O(1e-5) at K=6, decaying
    # with K); see decisions ledger
    cfg.thresholds["normalization"] = 1e-4
    cfg.thresholds["normalization_negative"] = 1e-4
    checks = run_suite(v, cfg)
    by_id = {c.check_id: c for c in checks}
    # the real-flag checks are the only skips
    assert {c.check_id for c in checks if c.status == "skipped"} == {
        "monodromy_real_symmetry", "reality_confinement", "sign_tables"}
    # the analytic machinery still works off the real line
    for cid in ("reciprocity", "product_reps", "normalization"):
        assert by_id[cid].status == "pass", (cid, by_id[cid].metric)


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


def test_runconfig_json_round_trip():
    cfg = RunConfig(n_max=8, K=10, seed=3)
    clone = RunConfig.from_json(cfg.to_json())
    assert clone.n_max == 8 and clone.K == 10 and clone.seed == 3
    assert clone.thresholds == cfg.thresholds
    with pytest.raises(ValueError, match="K must be >= N_max"):
        RunConfig(n_max=10, K=4)


def test_runconfig_rejects_unknown_threshold_id():
    """A misspelt threshold id is an error, not an unused key."""
    with pytest.raises(ValueError, match="unknown threshold ids: normalisation"):
        RunConfig.from_json('{"thresholds": {"normalisation": 1e-3}}')
    cfg = RunConfig.from_json('{"thresholds": {"normalization": 1e-3}}')
    assert cfg.thresholds["normalization"] == 1e-3
    assert set(cfg.thresholds) == set(THRESHOLDS)


def test_seeded_ensemble_fixed():
    ens = seeded_ensemble()
    assert len(ens) == 3
    assert ens[0].real and ens[1].real and not ens[2].real
    again = seeded_ensemble()
    for a, b in zip(ens, again):
        assert a.to_json() == b.to_json()
