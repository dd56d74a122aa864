import csv
import dataclasses
import json
import warnings

import numpy as np
import pytest
from conftest import disc, row

from shgspec import differentials, spectrum, verification
from shgspec.cli import main
from shgspec.config import RunConfig
from shgspec.monodromy import lam_zero
from shgspec.potential import Potential


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    d = tmp_path_factory.mktemp("pot")
    zero = d / "zero.json"
    zero.write_text(Potential.zero().to_json())
    cos = d / "cos.json"
    cos.write_text(Potential.cosine(0.1).to_json())
    cfg = d / "cfg.json"
    cfg.write_text(json.dumps({"n_max": 6}))
    return d, zero, cos, cfg


def test_eval_zero_potential(files, capsys):
    d, zero, cos, cfg = files
    assert main(["eval", str(zero), "--lambda", "0.25,0"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert abs(out["Delta"][0] - 1.0) < 1e-9
    assert abs(out["Delta"][1]) < 1e-12
    assert abs(out["sqrtc_chi_p"][0]) < 1e-9


def test_eval_input_errors(files, capsys):
    d, zero, cos, cfg = files
    # potential files: a missing one, one whose "q" is not a list of pairs and
    # one whose "q" holds 2 pairs for Kf 1
    bad = json.loads(zero.read_text())
    bad["q"] = 5
    (d / "q5.json").write_text(json.dumps(bad))
    bad["q"] = [[0.0, 0.0], [0.1, 0.0]]
    (d / "q2.json").write_text(json.dumps(bad))
    for path in (d / "missing.json", d / "q5.json", d / "q2.json"):
        assert main(["eval", str(path), "--lambda", "1,0"]) == 2
    assert "expected 3 coefficients" in capsys.readouterr().err
    assert main(["eval", str(zero), "--lambda", "oops"]) == 2
    for lam in ("0,0", "nan,0", "1,nan"):  # outside the annulus, NaN included
        assert main(["eval", str(zero), "--lambda", lam]) == 3
        assert "annulus" in capsys.readouterr().err
    # overrides go through RunConfig validation: input errors, not numerical ones
    # (the truncation K is no setting: --K is refused like any unknown flag,
    # and the sigma system needs n_max >= 2)
    for flags in (["--tol", "0"], ["--tol", "-1"], ["--tol", "1"], ["--tol", "1e-14"],
                  ["--nodes", "4"], ["--K", "6"], ["--nmax", "0"], ["--nmax", "1"]):
        assert main(["eval", str(zero), "--lambda", "1,0", *flags]) == 2
    assert main(["spectrum", str(zero), "--nmax", "-2"]) == 2
    assert "invalid run configuration" in capsys.readouterr().err
    # config files: an unknown key (such as the removed "threads"), any
    # threshold (no configuration overrides a gate), a non-object, the
    # removed index lists and wrongly typed values are input errors, not
    # tracebacks
    for name, text in (
        ("bogus.json", '{"bogus": 1}'),
        ("thr.json", '{"thresholds": {"normalisation": 1e-3}}'),
        ("thr1.json", '{"thresholds": {"normalization": 1.0}}'),
        ("list.json", "[1]"),
        ("k5.json", '{"product_K_list": 5}'),
        ("kempty.json", '{"product_K_list": []}'),
        ("nbig.json", '{"differentials_n_list": [0, 17]}'),
        ("nfloat.json", '{"n_max": 6.5}'),
        ("nbool.json", '{"n_max": true}'),
        ("kkey.json", '{"K": 6}'),
        ("xml.json", '{"out_format": "xml"}'),
    ):
        (d / name).write_text(text)
        assert main(["eval", str(zero), "--lambda", "1,0", "--config", str(d / name)]) == 2
    assert "config" in capsys.readouterr().err


def test_eval_far_out(files, capsys):
    """Far out in lambda the step count grows (28,672 steps at |lambda| =
    5000 and the default tol) but has no cap, and the tail closure of
    sqrt_c(chi_p) stays finite."""
    d, zero, cos, cfg = files
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["eval", str(cos), "--lambda", "5000,0"]) == 0
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    out = json.loads(capsys.readouterr().out)
    assert abs(out["Delta"][0]) <= 1.0 and abs(out["Delta"][1]) < 1e-9
    assert np.all(np.isfinite(out["sqrtc_chi_p"]))


def test_eval_overflow_is_a_numerical_failure(files, capsys):
    """Where M overflows (|Im omega| beyond about 709) eval exits 3 and names
    the lambda, instead of printing NaN; so it does where exp(+-q) overflows."""
    d, zero, cos, cfg = files
    with np.errstate(over="ignore", invalid="ignore"):
        assert main(["eval", str(zero), "--lambda", "0.01,800"]) == 3
    assert "not finite at lambda" in capsys.readouterr().err
    big = d / "big.json"
    big.write_text(Potential.cosine(800.0).to_json())
    with np.errstate(over="ignore"):
        assert main(["eval", str(big), "--lambda", "1.7,0"]) == 3
    assert "exp(+-q) is not finite" in capsys.readouterr().err


def test_spectrum_zero(files, capsys):
    d, zero, cos, cfg = files
    assert main(["spectrum", str(zero), "--nmax", "4"]) == 0
    table = json.loads(capsys.readouterr().out)
    assert table["N_max"] == 4
    for row in table["lambda"]:
        want = lam_zero(row["n"])
        assert abs(row["minus"][0] - want) < 1e-9
        assert abs(row["plus"][0] - want) < 1e-9
    assert abs(table["lambda_dot_star"][1] - 0.25) < 1e-10


def test_spectrum_csv(files, capsys):
    """Each CSV row holds, at its n, the value of the table's arrays, of the
    isolating discs or of DiscFamily.D, in table order, and lambda_dot_star
    closes the list."""
    d, zero, cos, cfg = files
    assert main(["spectrum", str(cos), "--nmax", "3", "--format", "csv"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "n,quantity,re,im"
    assert any("lambda_dot_star" in ln for ln in lines)
    assert any("U_center" in ln for ln in lines)
    v = Potential.from_json(cos.read_text())
    table = spectrum.build_table(v, 3, tol=RunConfig.spectral_tol)
    iso = spectrum.build_isolating(v, table)
    want = {}
    for n in range(-3, 4):
        r, (c, radius), (dc, dr) = row(table, n), disc(iso, n), spectrum.DiscFamily.D(n)
        vals = {"lambda_minus": r.lam_minus, "lambda_plus": r.lam_plus, "mu": r.mu,
                "lambda_dot": r.lam_dot, "tau": r.tau, "gamma": r.gamma, "U_center": c,
                "U_radius": radius, "D_center": dc, "D_radius": dr}
        want.update({(str(n), q): complex(val) for q, val in vals.items()})
    want["*", "lambda_dot_star"] = complex(table.lam_dot_star)
    got = {(n, q): complex(float(re), float(im)) for n, q, re, im in csv.reader(lines[1:])}
    assert list(got) == list(want) and got == want


def test_spectrum_refuses_a_table_alike_in_json_and_csv(files, capsys):
    """On cos 6 pi x at n_max 3 the contour of n = -3 misses its gap, so the
    isolating discs cannot be built: both formats exit 3, where JSON, which
    printed the bare table, exited 0."""
    d = files[0]
    path = d / "cos3.json"
    path.write_text(Potential.cosine(1.0, mode=3).to_json())
    for fmt in ("json", "csv"):
        assert main(["spectrum", str(path), "--nmax", "3", "--format", fmt]) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and "misses its gap" in captured.err


def test_differentials_round_trip(files, capsys, tmp_path):
    """A spectrum JSON re-read as table injection reproduces identical sigma."""
    d, zero, cos, cfg = files
    tab_path = tmp_path / "table.json"
    assert main(["spectrum", str(cos), "--nmax", "6", "--out", str(tab_path)]) == 0
    assert main(["differentials", str(cos), "--n-list", "1", "--nmax", "6"]) == 0
    direct = capsys.readouterr().out
    assert main(["differentials", str(cos), "--n-list", "1", "--nmax", "6",
                 "--table", str(tab_path)]) == 0
    injected = capsys.readouterr().out
    assert json.loads(direct)[0]["sigma1"] == json.loads(injected)[0]["sigma1"]
    assert json.loads(direct)[0]["sigma2"] == json.loads(injected)[0]["sigma2"]
    sol = json.loads(direct)[0]
    assert sol["normalization_max_dev"] < 1e-6
    assert sol["iters"] <= 10
    assert sol["clamp_events"] == 0


def test_differentials_rejects_negative_n(files, capsys, tmp_path):
    """Negative n, an n beyond the table's range N_max and an unreadable
    --table are input errors."""
    d, zero, cos, cfg = files
    assert main(["differentials", str(cos), "--n-list", "-1"]) == 2
    assert main(["differentials", str(cos), "--nmax", "4", "--n-list", "5"]) == 2
    assert main(["differentials", str(cos), "--n-list", "0,x"]) == 2
    tab_path = tmp_path / "table.json"
    assert main(["spectrum", str(zero), "--nmax", "4", "--out", str(tab_path)]) == 0
    table = json.loads(tab_path.read_text())
    assert main(["differentials", str(zero), "--n-list", "5", "--table", str(tab_path)]) == 2
    table["mu"][0] = [1, 2, 3]
    (tmp_path / "mu3.json").write_text(json.dumps(table))
    (tmp_path / "empty.json").write_text("{}")
    for name in ("missing.json", "empty.json", "mu3.json"):
        assert main(["differentials", str(zero), "--table", str(tmp_path / name)]) == 2
    assert "spectrum table" in capsys.readouterr().err


@pytest.mark.parametrize("edit", [
    lambda t: t["lambda"].pop(2),
    lambda t: t["lambda"][0].update(n=-4),
    lambda t: t["lambda"].append(dict(t["lambda"][1])),
    lambda t: t.update(mu=t["mu"][:-2]),
    lambda t: t["mu"].__setitem__(3, [float("nan"), 0.0]),
], ids=["missing_row", "row_beyond_N", "duplicate_row", "mu_two_short", "nan_mu"])
def test_differentials_refuses_a_malformed_table(files, capsys, tmp_path, edit):
    """A --table of v1 at N_max = 3 is an input error when its rows do not
    cover n = -3..3 once each (a row missing, one at n = -4, one twice), its
    mu list is two entries short, or a mu is NaN."""
    d, zero, cos, cfg = files
    tab_path = tmp_path / "table.json"
    assert main(["spectrum", str(cos), "--nmax", "3", "--out", str(tab_path)]) == 0
    table = json.loads(tab_path.read_text())
    edit(table)
    tab_path.write_text(json.dumps(table))
    assert main(["differentials", str(cos), "--table", str(tab_path)]) == 2
    assert "spectrum table" in capsys.readouterr().err


def _row(table, n):
    return next(r for r in table["lambda"] if r["n"] == n)


@pytest.mark.parametrize("edit, why", [
    (lambda t: t.update(lambda_dot_star=[0.3, 0.0]), "U_* not constructible"),
    (lambda t: t["mu"].__setitem__(4, [3.2409, 2.0]), "(I-1) violated at n=1"),
    (lambda t: _row(t, 2).update(minus=[float(np.nextafter(t["mu"][4][0], np.inf)), 0.0]),
     "the discs of n = 1 and n = 2 overlap"),
], ids=["star_on_the_real_axis", "mu_off_the_axis", "hulls_one_ulp_apart"])
def test_differentials_refuses_a_table_without_isolating_discs(files, capsys, tmp_path, edit, why):
    """A readable --table of v1 at N_max = 3 whose discs cannot be built is a
    numerical failure, named by build_isolating: lambda_dot_star on the real
    axis leaves U_* no radius; mu_1 = 3.2409 + 2i lies outside U_1; and
    lambda_2^- one ulp above mu_1, the top of the hull of n = 1, leaves the
    hulls 4.4e-16 apart, where the rounding of the disc centres and radii
    makes U_1 and U_2 meet (their distance is a third of the hulls' gap)."""
    d, zero, cos, cfg = files
    tab_path = tmp_path / "table.json"
    assert main(["spectrum", str(cos), "--nmax", "3", "--out", str(tab_path)]) == 0
    table = json.loads(tab_path.read_text())
    edit(table)
    tab_path.write_text(json.dumps(table))
    assert main(["differentials", str(cos), "--table", str(tab_path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical failure") and why in err, err


@pytest.mark.parametrize("n_max", [0, 1])
def test_differentials_rejects_a_table_below_n_max_2(files, capsys, tmp_path, n_max):
    """An injected table of N_max < 2 is an input error, as --nmax below 2 is:
    the sigma system is solved for n = 0, 1, 2."""
    d, zero, cos, cfg = files
    tab_path = tmp_path / "table.json"
    assert main(["spectrum", str(cos), "--nmax", "2", "--out", str(tab_path)]) == 0
    small = spectrum.SpectrumTable.from_json(tab_path.read_text()).truncated(n_max)
    tab_path.write_text(small.to_json())
    assert main(["differentials", str(cos), "--n-list", "0", "--table", str(tab_path)]) == 2
    assert f"N_max = {n_max}" in capsys.readouterr().err


def test_verify_exit_codes(files, capsys):
    d, zero, cos, cfg = files
    assert (
        main(["verify", str(cos), "--config", str(cfg), "--format", "csv"]) == 0
    )
    text = capsys.readouterr().out
    assert "[PASS" in text and "FAIL" not in text


def _shrunk_U1_counts(certify):
    """certify_counts with U_1 shrunk to the disc of radius 0.4 |gamma_1|
    around lambda_1^-, which holds one chi_p root and no other."""

    def counts(v, table, iso, n_range, tol=1e-11):
        centers, radii = iso.centers.copy(), iso.radii.copy()
        centers[1 + iso.n_max] = row(table, 1).lam_minus
        radii[1 + iso.n_max] = 0.4 * abs(row(table, 1).gamma)
        return certify(v, table, dataclasses.replace(iso, centers=centers, radii=radii),
                       n_range, tol)

    return counts


def test_wrong_disc_count_is_returned(v_seed, tab16, iso16):
    """certify_counts returns the counts it measures instead of raising, and
    their miss: 1 + 1 + 1 from U_1's 1/0/0 against 2/1/1."""
    rep = _shrunk_U1_counts(spectrum.certify_counts)(v_seed, tab16, iso16, n_range=(0, 1, 2))
    assert rep == {0: {"chi_p": 2, "chi_D": 1, "ddelta": 1},
                   1: {"chi_p": 1, "chi_D": 0, "ddelta": 0},
                   2: {"chi_p": 2, "chi_D": 1, "ddelta": 1}, "star": 1}
    assert rep.miss == 3


def test_verify_judges_counts_and_solves_on_the_disc_nodes(files, capsys, monkeypatch):
    """One verify --nodes 32 run with the shrunk U_1: counting_discs reads
    fail, alone, and verify exits 1; and since the sigma contours take their
    node count from the isolating discs, verify solves for the sigma that
    differentials --nodes 32 prints."""
    d, zero, cos, cfg = files
    monkeypatch.setattr(spectrum, "certify_counts", _shrunk_U1_counts(spectrum.certify_counts))
    sols = []
    solve = verification.solve_sigma
    monkeypatch.setattr(verification, "solve_sigma",
                        lambda *a, **k: sols.append(solve(*a, **k)) or sols[-1])
    assert main(["verify", str(cos), "--config", str(cfg), "--nodes", "32"]) == 1
    failed = [(c["check_id"], c["metric"]) for c in json.loads(capsys.readouterr().out)
              if c["status"] != "pass"]
    assert failed == [("counting_discs", 3.0)]
    assert main(["differentials", str(cos), "--config", str(cfg), "--nodes", "32",
                 "--n-list", "0"]) == 0
    printed = json.loads(capsys.readouterr().out)[0]
    solved = json.loads(sols[0].to_json())  # n = 0 on v; the reflected n = 1 follows
    assert solved["n"] == printed["n"] == 0
    assert solved["sigma1"] == printed["sigma1"]
    assert solved["sigma2"] == printed["sigma2"]
    # and the node count reaches the solve: 64 nodes give other bits
    assert main(["differentials", str(cos), "--config", str(cfg), "--n-list", "0"]) == 0
    assert json.loads(capsys.readouterr().out)[0]["sigma1"] != printed["sigma1"]


@pytest.mark.parametrize("exc", [RuntimeError, ZeroDivisionError])
def test_verify_crash_is_not_a_skip(files, capsys, monkeypatch, exc):
    """A layer that raises ends ``verify`` with exit 3 (a numerical failure)
    or, for any other exception, a traceback; its checks are never reported
    as skipped."""
    d, zero, cos, cfg = files

    def fail(*args, **kwargs):
        raise exc("injected")

    monkeypatch.setattr(verification, "solve_sigma", fail)
    argv = ["verify", str(cos), "--config", str(cfg), "--format", "csv"]
    if exc is RuntimeError:
        assert main(argv) == 3
        assert "injected" in capsys.readouterr().err
    else:
        with pytest.raises(ZeroDivisionError):
            main(argv)


def test_gradients_csv(files, capsys):
    d, zero, cos, cfg = files
    assert main(["gradients", str(cos), "--config", str(cfg)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "quantity,n,direction,analytic,fd,rel_error"
    assert len(lines) > 9
    rels = [float(ln.rsplit(",", 1)[1]) for ln in lines[1:]]
    assert max(rels) < 1e-5


@pytest.mark.parametrize("command", ["eval", "differentials"])
def test_csv_holds_the_json_values(files, capsys, command):
    """On v1 at --nmax 3 each eval CSV row is the JSON payload's pair; the
    differentials CSV holds 2(2N+1) integrals per solved n, expected 1 only
    at (1, n), and their largest deviation from it is that n's JSON
    normalization_max_dev."""
    d, zero, cos, cfg = files
    args = [command, str(cos), "--nmax", "3", *(["--lambda", "0.7,0.2"] if command == "eval" else [])]
    outs = []
    for fmt in ("json", "csv"):
        assert main([*args, "--format", fmt]) == 0
        outs.append(capsys.readouterr().out)
    payload = json.loads(outs[0])
    header, *rows = csv.reader(outs[1].splitlines())
    if command == "eval":
        assert header == ["quantity", "re", "im"]
        assert [(q, [float(re), float(im)]) for q, re, im in rows] == list(payload.items())
        return
    assert header == ["n", "family", "m", "integral_re", "integral_im", "expected"]
    N, ns = 3, [sol["n"] for sol in payload]
    assert ns == [0, 1, 2] and len(rows) == len(ns) * 2 * (2 * N + 1)
    for sol in payload:
        own = [r for r in rows if int(r[0]) == sol["n"]]
        expected = {(int(j), int(m)): float(e) for _, j, m, _, _, e in own}
        assert expected == {(j, m): float((j, m) == (1, sol["n"]))
                            for j in (1, 2) for m in range(-N, N + 1)}
        dev = max(abs(complex(float(re), float(im)) - float(e)) for *_, re, im, e in own)
        assert dev == sol["normalization_max_dev"]


def test_an_ill_conditioned_jacobian_is_a_numerical_failure(files, capsys, monkeypatch,
                                                            tab16, iso16):
    """A Jacobian whose condition number exceeds COND_LIMIT stops the solve:
    with the limit at 1 every Jacobian does, so solve_sigma on v1 at n = 1
    raises and shgspec differentials exits 3, naming the conditioning."""
    d, zero, cos, cfg = files
    monkeypatch.setattr(differentials, "COND_LIMIT", 1.0)
    with pytest.raises(RuntimeError, match="Jacobian conditioning"):
        differentials.solve_sigma(tab16, iso16, 1, 16)
    assert main(["differentials", str(cos), "--nmax", "3", "--n-list", "1"]) == 3
    assert "Jacobian conditioning" in capsys.readouterr().err
