"""Command-line front end.

Subcommands: spectrum | differentials | gradients | verify | eval.
Complex numbers are serialized as [re, im] pairs in JSON and as _re/_im
column pairs in CSV.  Exit codes: 0 ok, 1 check failure, 2 input error,
3 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from dataclasses import asdict, replace

import numpy as np

from .config import THRESHOLDS, RunConfig
from .potential import Potential, to_pair

EXIT_OK = 0
EXIT_CHECK_FAILURE = 1
EXIT_INPUT_ERROR = 2
EXIT_NUMERICAL = 3


def _load(path: str, parse, what: str):
    """parse applied to the text of the file path; a file that cannot be read
    or parsed is an input error."""
    try:
        with open(path) as fh:
            return parse(fh.read())
    except (OSError, ValueError, LookupError, TypeError) as exc:
        raise SystemExit2(f"cannot read {what} file {path}: {exc}") from exc


class SystemExit2(Exception):
    """Input error, mapped to exit code 2."""


# flag dest -> RunConfig field; every field is set by one flag
_FLAG_ATTRS = {"nmax": "n_max", "tol": "ode_tol", "nodes": "nodes", "seed": "seed",
               "format": "out_format"}


def _config_from_args(args) -> RunConfig:
    cfg = _load(args.config, RunConfig.from_json, "config") if args.config else RunConfig()
    over = {attr: getattr(args, name) for name, attr in _FLAG_ATTRS.items()
            if getattr(args, name, None) is not None}
    try:
        return replace(cfg, **over)
    except ValueError as exc:
        raise SystemExit2(f"invalid run configuration: {exc}") from exc


def _emit(text: str, out_path):
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _emit_csv(header, rows, out_path):
    buf = io.StringIO()
    csv.writer(buf).writerows([header, *rows])
    _emit(buf.getvalue(), out_path)


def cmd_spectrum(args, cfg, v) -> int:
    from .spectrum import DiscFamily, build_isolating, build_table

    table = build_table(v, cfg.n_max, tol=cfg.spectral_tol)
    iso = build_isolating(v, table, nodes=cfg.nodes)  # refuses a table in either format
    if cfg.out_format == "json":
        _emit(table.to_json(), args.out)
        return EXIT_OK
    N = cfg.n_max
    cols = {
        "lambda_minus": table.lam_minus,
        "lambda_plus": table.lam_plus,
        "mu": table.mu,
        "lambda_dot": table.lam_dot,
        "tau": 0.5 * (table.lam_minus + table.lam_plus),
        "gamma": table.lam_plus - table.lam_minus,
        "U_center": iso.centers,
        "U_radius": iso.radii,
    }
    cols["D_center"], cols["D_radius"] = DiscFamily.D(np.arange(-N, N + 1))
    rows = [[n, q, complex(col[n + N]).real, complex(col[n + N]).imag]
            for n in range(-N, N + 1) for q, col in cols.items()]
    rows.append(["*", "lambda_dot_star", table.lam_dot_star.real, table.lam_dot_star.imag])
    _emit_csv(["n", "quantity", "re", "im"], rows, args.out)
    return EXIT_OK


def cmd_differentials(args, cfg, v) -> int:
    from .differentials import solve_sigma, verify_normalization
    from .spectrum import SpectrumTable, build_isolating, build_table

    if args.table:
        table = _load(args.table, SpectrumTable.from_json, "spectrum table")
    else:
        table = build_table(v, cfg.n_max, tol=cfg.spectral_tol)
    N = table.n_max
    if N < 2 or any(not 0 <= n <= N for n in args.n_list):  # RunConfig too needs n_max >= 2
        raise SystemExit2(f"differentials are solved for 0 <= n <= N_max = {N}, N_max >= 2; "
                          "use the reflected potential for negative indices")
    iso = build_isolating(v, table, nodes=cfg.nodes)
    out_json = []
    csv_rows = []
    for n in args.n_list:
        sol = solve_sigma(table, iso, n, N, tol=cfg.newton_tol, max_iter=cfg.newton_max_iter)
        mat, dev = verify_normalization(sol, table, iso)
        out_json.append(json.loads(sol.to_json(normalization_max_dev=dev)))
        for (j, m), val in sorted(mat.items()):
            csv_rows.append([n, j, m, val.real, val.imag,
                             1.0 if (j == 1 and m == n) else 0.0])
    if cfg.out_format == "json":
        _emit(json.dumps(out_json, indent=1), args.out)
    else:
        _emit_csv(["n", "family", "m", "integral_re", "integral_im", "expected"], csv_rows,
                  args.out)
    return EXIT_OK


def cmd_gradients(args, cfg, v) -> int:
    from .gradients import CLI_FD_CASES, FD_EPS, fd_evaluate, fd_rel_error, seeded_directions
    from .spectrum import build_table

    tol = cfg.spectral_tol
    table = build_table(v, min(cfg.n_max, 4), tol=tol)
    dirs = seeded_directions(cfg.seed, 3)
    cases = fd_evaluate(v, table, CLI_FD_CASES, dirs, (FD_EPS,), tol)
    _emit_csv(["quantity", "n", "direction", "analytic", "fd", "rel_error"],
              ([c.quantity, c.n, i, str(a), str(f), f"{fd_rel_error(a, f):.3e}"]
               for c in cases for i, (a, f) in enumerate(zip(c.analytic, c.fd[FD_EPS]))),
              args.out)
    worst = np.max([c.error()[0] for c in cases])
    return EXIT_OK if worst <= THRESHOLDS["gradient_fd"] else EXIT_CHECK_FAILURE


def cmd_verify(args, cfg, v) -> int:
    from .verification import run_suite

    checks = run_suite(v, cfg)
    if cfg.out_format == "json":
        _emit(json.dumps([asdict(c) for c in checks], indent=1), args.out)
    else:
        _emit("\n".join(c.line() for c in checks), args.out)
    failed = any(c.status == "fail" for c in checks)
    return EXIT_CHECK_FAILURE if failed else EXIT_OK


def cmd_eval(args, cfg, v) -> int:
    from .monodromy import integrate
    from .spectrum import build_table

    try:
        re_s, im_s = args.lam.split(",")
        lam = complex(float(re_s), float(im_s))
    except ValueError as exc:
        raise SystemExit2(f"--lambda expects 're,im': {exc}") from exc
    res = integrate(v, lam, order=1, tol=cfg.ode_tol)
    table = build_table(v, 8, tol=cfg.spectral_tol)
    sqrtc = complex(table.evaluator(table.n_max).chip(np.array([lam]))[0])
    payload = {
        "lambda": to_pair(lam),
        "Delta": to_pair(res.Delta),
        "delta": to_pair(res.delta_anti),
        "Delta_dot": to_pair(res.Delta_dot),
        "chi_p": to_pair(res.chi_p),
        "chi_D": to_pair(res.chi_D),
        "sqrtc_chi_p": to_pair(sqrtc),
    }
    if cfg.out_format == "json":
        _emit(json.dumps(payload, indent=1), args.out)
    else:
        _emit_csv(["quantity", "re", "im"], ([k, *val] for k, val in payload.items()), args.out)
    return EXIT_OK


def _build_parser():
    p = argparse.ArgumentParser(
        prog="shgspec",
        description="Spectral data, canonical roots and normalized "
        "differentials of the sinh-Gordon Lax operator",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("potential", help="potential JSON file")
        sp.add_argument("--config", help="RunConfig JSON file")
        sp.add_argument("--nmax", type=int)
        sp.add_argument("--tol", type=float)
        sp.add_argument("--nodes", type=int)
        sp.add_argument("--seed", type=int)
        sp.add_argument("--out", help="output path (default stdout)")
        sp.add_argument("--format", choices=["json", "csv"])

    sp = sub.add_parser("spectrum", help="periodic/Dirichlet spectrum table")
    common(sp)
    sp.set_defaults(fn=cmd_spectrum)

    sp = sub.add_parser("differentials", help="solve the normalization system")
    common(sp)
    sp.add_argument("--n-list", default="0,1,2", type=lambda s: [int(n) for n in s.split(",")])
    sp.add_argument("--table", help="inject a spectrum JSON instead of rebuilding")
    sp.set_defaults(fn=cmd_differentials)

    sp = sub.add_parser("gradients", help="gradient kernels vs finite differences")
    common(sp)
    sp.set_defaults(fn=cmd_gradients)

    sp = sub.add_parser("verify", help="run the verification suite")
    common(sp)
    sp.set_defaults(fn=cmd_verify)

    sp = sub.add_parser("eval", help="monodromy scalars at one lambda")
    common(sp)
    sp.add_argument("--lambda", dest="lam", required=True, help="re,im")
    sp.set_defaults(fn=cmd_eval)
    return p


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:  # a usage error exits 2, --help 0
        return exc.code
    try:
        cfg = _config_from_args(args)
        v = _load(args.potential, Potential.from_json, "potential")
        return args.fn(args, cfg, v)
    except SystemExit2 as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except (ValueError, RuntimeError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
