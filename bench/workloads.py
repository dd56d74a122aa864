"""The benchmark's workloads.

Each workload builds its fixtures in ``setup`` and lists its timed operations
in ``steps``: ``(name, callable)`` pairs, run in order, where each callable
returns one ``Op`` per checked outcome.  One pass runs every step once.  The
program is driven only through its public functions; every gate compares an
outcome with the outcome recorded at the seed commit in ``reference.json``
(known failures stay failures) and uses thresholds from
``shgspec.config.THRESHOLDS`` only.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from shgspec import cli, config
from shgspec import differentials as df
from shgspec import spectrum as sp
from shgspec import verification as ver
from shgspec.potential import Potential

TABLE_FIELDS = ("lam_minus", "lam_plus", "mu", "lam_dot")


@dataclass
class Op:
    """One checked outcome: a non-skipped check, a count, a normalization or
    an exit code."""

    op_id: str
    status: str  # "pass" | "fail" as the program's threshold judges it
    metric: float
    threshold: float
    expected: str  # the status recorded at the seed commit
    accuracy: bool = True  # enters accuracy_ratio_max when it passes
    error: str = ""  # exception text; an exception is a failed operation

    @property
    def ok(self) -> bool:
        return not self.error and self.status == self.expected


def judged(op_id, check_id, metric, expected, accuracy=True) -> Op:
    thr = config.THRESHOLDS[check_id]
    status = "pass" if metric <= thr else "fail"
    return Op(op_id, status, float(metric), float(thr), expected, accuracy)


def exited(op_id, code, expected) -> Op:
    return Op(op_id, "pass" if code == cli.EXIT_OK else "fail", code, math.nan, expected, False)


def crashed(op_id, exc) -> Op:
    return Op(op_id, "fail", math.nan, math.nan, "pass", False, f"{type(exc).__name__}: {exc}")


def relative_deviation(got, want) -> float:
    """max |x - x_ref| / max(1, |x_ref|)."""
    got, want = np.asarray(got, dtype=complex), np.asarray(want, dtype=complex)
    return float(np.max(np.abs(got - want) / np.maximum(np.abs(want), 1.0)))


def table_arrays(table) -> dict:
    """The labelled spectral data of a table as plain complex arrays."""
    out = {f: np.asarray(getattr(table, f), dtype=complex) for f in TABLE_FIELDS}
    out["lam_dot_star"] = np.array([table.lam_dot_star], dtype=complex)
    return out


def encode_table(table) -> dict:
    return {
        "n_max": table.n_max,
        **{k: [[z.real, z.imag] for z in v] for k, v in table_arrays(table).items()},
    }


def table_deviation(table, ref: dict) -> float:
    """Relative deviation of every entry of the table from the reference."""
    if table.n_max != ref["n_max"]:
        return math.inf
    return max(
        relative_deviation(got, [complex(re, im) for re, im in ref[key]])
        for key, got in table_arrays(table).items()
    )


class Workload:
    name = ""
    potential = 0  # index into config.seeded_ensemble(): v1, v2, v3
    setup_reps = 5  # set-up is repeated this many times; setup_s is the median

    def __init__(self, seed: int, reference: dict, out_dir: Path):
        self.seed = seed
        self.cfg = config.RunConfig(seed=seed)
        self.ref = reference.get(self.name, {})
        self.out_dir = out_dir

    def expect(self, op_id: str) -> str:
        """The recorded status of an operation; "absent" if none was recorded."""
        return self.ref.get("status", {}).get(op_id, "absent")

    def judged(self, op_id, check_id, metric, accuracy=True) -> Op:
        return judged(op_id, check_id, metric, self.expect(op_id), accuracy)

    def setup(self):
        self.v = config.seeded_ensemble()[self.potential]

    def steps(self) -> list:
        raise NotImplementedError


class Suite(Workload):
    """``shgspec verify`` in-process on v1, the user's end-to-end path.

    Not listed in BENCHMARK.json: one pass takes about 30 s, so a run cannot
    repeat it.  ``--workload suite --trace 1`` gives the ROADMAP baseline rows.
    """

    name = "suite"

    def setup(self):
        super().setup()
        self.path = self.out_dir / "suite-v1.json"
        self.path.write_text(self.v.to_json())

    def steps(self):
        return [("verify", self.verify)]

    def verify(self) -> list[Op]:
        report = self.out_dir / "suite-v1-report.json"
        report.unlink(missing_ok=True)
        argv = ["verify", str(self.path), "--format", "json", "--seed", str(self.seed),
                "--out", str(report)]
        try:
            code = cli.main(argv)
            checks = {c["check_id"]: c for c in json.loads(report.read_text())}
        except Exception as exc:
            return [crashed("verify", exc)]
        ops = [exited("exit_code", code, self.expect("exit_code"))]
        for cid in set(self.ref.get("status", {})) - set(checks) - {"exit_code"}:
            ops.append(Op(cid, "missing", math.nan, math.nan, self.expect(cid), False))
        for cid, c in checks.items():
            if c["status"] != "skipped" or self.expect(cid) != "skipped":
                ops.append(Op(cid, c["status"], c["metric"], c["threshold"], self.expect(cid)))
        return ops


class Spectrum(Workload):
    """Spectrum table, isolating discs and argument-principle counts on v1."""

    name = "spectrum"
    n_max = 8
    count_ns = (-8, -4, 0, 4, 8)

    def steps(self):
        return [("table", self.table), ("certify", self.certify), ("delta_sign", self.delta_sign)]

    def table(self) -> list[Op]:
        self.tab = self.iso = None
        try:
            tab = sp.build_table(self.v, self.n_max, tol=self.cfg.spectral_tol)
            self.iso = sp.build_isolating(self.v, tab, nodes=self.cfg.nodes)
        except Exception as exc:
            return [crashed("table", exc)]
        self.tab = tab
        # the reference gate is not one of the program's checks, and it reads
        # exactly 0 at the commit that wrote the reference, so it stays out of
        # accuracy_ratio_max
        dev = table_deviation(tab, self.ref["table"])
        return [self.judged("table_vs_reference", "zero_spectrum", dev, accuracy=False)]

    def certify(self) -> list[Op]:
        if self.tab is None:
            return []
        try:
            rep = sp.certify_counts(self.v, self.tab, self.iso, n_range=self.count_ns,
                                    tol=self.cfg.ode_tol)
        except Exception as exc:  # a wrong count raises
            return [crashed("certify_counts", exc)]
        ops = []
        for n in self.count_ns:
            miss = sum(abs(rep[n][k] - want) for k, want in (("chi_p", 2), ("chi_D", 1), ("ddelta", 1)))
            ops.append(self.judged(f"count U_{n}", "counting_discs", miss))
        ops.append(self.judged("count U_*", "counting_discs", abs(rep["star"] - 1)))
        return ops

    def delta_sign(self) -> list[Op]:
        if self.tab is None:
            return []
        try:
            d = sp.delta_sign_check(self.v, self.tab, tol=self.cfg.ode_tol)
        except Exception as exc:
            return [crashed("delta_sign", exc)]
        return [self.judged("delta_sign", "reality_confinement", d)]


class Sigma(Workload):
    """sigma-system solves and normalization checks on v3 at K = RunConfig().K."""

    name = "sigma"
    potential = 2
    n_list = (0, 1, 2)
    setup_reps = 3

    def setup(self):
        super().setup()
        cfg, v = self.cfg, self.v
        vr = v.reflected()
        self.tab = sp.build_table(v, cfg.n_max, tol=cfg.spectral_tol)
        self.iso = sp.build_isolating(v, self.tab, nodes=cfg.nodes)
        self.tabr = sp.build_table(vr, cfg.n_max, tol=cfg.spectral_tol)
        self.isor = sp.build_isolating(vr, self.tabr, nodes=cfg.nodes)

    def steps(self):
        out = [(f"n={n}", lambda n=n: self.positive(n)) for n in self.n_list]
        # psi_{-n} needs n >= 1; run_suite uses n = 1
        return out + [("reflected n=1", self.reflected)]

    def _solve(self, key, table, iso, n):
        """Solve for psi_n; returns (solution or None, ops keyed "<key>/<check id>")."""
        cfg = self.cfg
        try:
            sol = df.solve_sigma(table, iso, n, cfg.K, tol=cfg.newton_tol, max_iter=cfg.newton_max_iter)
        except Exception as exc:
            return None, [crashed(f"{key}/sigma_solve", exc)]
        return sol, [self.judged(f"{key}/{cid}", cid, metric)
                     for cid, metric in (("sigma_solve_residual", sol.residual_norm),
                                         ("sigma_newton_iters", sol.newton_iters))]

    def _check(self, key, check_id, verify) -> Op:
        try:
            _, dev = verify()
        except Exception as exc:
            return crashed(f"{key}/{check_id}", exc)
        return self.judged(f"{key}/{check_id}", check_id, dev)

    def positive(self, n) -> list[Op]:
        key = f"n={n}"
        sol, ops = self._solve(key, self.tab, self.iso, n)
        if sol is not None:
            ops.append(self._check(key, "normalization", lambda: df.verify_normalization(
                sol, self.tab, self.iso, nodes=self.cfg.nodes + 32)))  # as run_suite verifies
        return ops

    def reflected(self) -> list[Op]:
        key = "reflected n=1"
        sol, ops = self._solve(key, self.tabr, self.isor, 1)
        if sol is not None:
            ops.append(self._check(key, "normalization_negative", lambda: df.verify_negative_normalization(
                sol, self.tabr, self.isor, self.tab, self.iso, nodes=self.cfg.nodes + 32)))
        return ops


class Cli(Workload):
    """The cheaper CLI subcommands in-process and the verification layer's own
    checks on v1: the only listed workload where ``gradients``,
    ``verification`` and ``cli`` work."""

    name = "cli"
    lam = "1.7,0.1"  # the point ``shgspec eval`` evaluates at

    def setup(self):
        super().setup()
        self.path = self.out_dir / "cli-v1.json"
        self.path.write_text(self.v.to_json())

    def steps(self):
        return [("eval", self.eval), ("gradients", self.gradients),
                ("monodromy checks", self.monodromy_checks), ("interpolation", self.interpolation)]

    def run_eval(self) -> tuple[int, dict]:
        out = self.out_dir / "cli-eval.json"
        out.unlink(missing_ok=True)
        code = cli.main(["eval", str(self.path), "--lambda", self.lam, "--out", str(out)])
        return code, json.loads(out.read_text())

    def eval(self) -> list[Op]:
        try:
            code, payload = self.run_eval()
        except Exception as exc:
            return [crashed("eval", exc)]
        ref = self.ref["eval"]
        dev = max(relative_deviation(complex(*payload[k]), complex(*ref[k])) for k in ref)
        return [exited("eval exit_code", code, self.expect("eval exit_code")),
                self.judged("eval_vs_reference", "zero_spectrum", dev, accuracy=False)]

    def gradients(self) -> list[Op]:
        out = self.out_dir / "cli-gradients.csv"
        out.unlink(missing_ok=True)
        try:
            code = cli.main(["gradients", str(self.path), "--seed", str(self.seed), "--out", str(out)])
            with out.open(newline="") as fh:
                worst = max(float(row["rel_error"]) for row in csv.DictReader(fh))
        except Exception as exc:
            return [crashed("gradients", exc)]
        return [exited("gradients exit_code", code, self.expect("gradients exit_code")),
                self.judged("gradient_fd", "gradient_fd", worst)]

    def monodromy_checks(self) -> list[Op]:
        try:
            zero = ver.check_zero_closed_forms(self.cfg)
            wr, even, realsym = ver.check_monodromy_invariants(self.v, self.cfg)
        except Exception as exc:
            return [crashed("monodromy checks", exc)]
        return [self.judged(cid, cid, metric) for cid, metric in (
            ("monodromy_zero_closed_forms", zero), ("monodromy_wronskian", wr),
            ("monodromy_evenness", even), ("monodromy_real_symmetry", realsym))]

    def interpolation(self) -> list[Op]:
        try:  # the zero-potential node family, as run_suite tests it
            tab0 = sp.build_table(Potential.zero(), 8, tol=self.cfg.spectral_tol)
            err = ver.interpolation_self_test(tab0, K=16, seed=self.seed)
        except Exception as exc:
            return [crashed("interpolation", exc)]
        return [self.judged("interpolation", "interpolation", err)]


WORKLOADS = {w.name: w for w in (Spectrum, Sigma, Cli, Suite)}
