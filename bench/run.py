"""shgspec benchmark: one command per workload run.

    python3 bench/run.py --workload spectrum --seed 0 --seconds 20 --trace 0

Workloads (see workloads.py): ``spectrum``, ``sigma`` and ``cli``, listed in
BENCHMARK.json, and ``suite``, kept for the ROADMAP baseline table.  The run
builds the workload's fixtures ``setup_reps`` times, then repeats one pass of
timed steps until ``--seconds`` have passed (at least one pass), checks every
outcome against reference.json and prints, as its last stdout line,

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Every set-up and every step is timed with ``speed.SpeedProbe``, which probes
the machine's speed during and after it, and is reported at a fixed machine
speed (``speed.speed_corrected``).  With ``--trace 0`` the metrics are the
end-to-end ones: ``setup_s`` is the median corrected set-up and ``wall_s``
sums each step's median corrected time (``pass_s``).  With ``--trace 1`` one
more pass runs under the outside-in tracer (tracer.py) and the metrics are the
per-layer ones; the per-step table is printed above the result line.
Run metadata (machine, versions, BLAS threads, commit, RunConfig hash, seed)
is printed as a ``{"meta": ...}`` line, and everything, raw times and spans
included, is written to ``.bench_out/`` at the repository root.

BLAS is pinned to one thread before numpy is imported: OpenBLAS's default
pool makes ``run_suite`` slower and its wall time noisier, and the number of
right-hand-side evaluations repeats exactly only at a fixed thread count.
"""

import time

T_START = time.perf_counter()

import os  # noqa: E402

BLAS_THREADS = "1"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = BLAS_THREADS  # must precede the first numpy import

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

from speed import SpeedProbe, speed_corrected  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# the import is timed first, so that it includes numpy and scipy
IMPORT_PROBE = (
    "import sys, time; sys.path[:0] = sys.argv[1:3]; t = time.perf_counter(); "
    "import shgspec, shgspec.cli; t = time.perf_counter() - t; import speed; "
    "print(t, sum(speed.probe() for _ in range(speed.AFTER)) / speed.AFTER)"
)


def import_program():
    """Import shgspec from this checkout's src/ and nowhere else."""
    sys.path.insert(0, str(SRC))
    import shgspec
    import shgspec.cli  # noqa: F401

    if SRC.resolve() not in Path(shgspec.__file__).resolve().parents:
        raise ImportError(f"shgspec imported from {shgspec.__file__}, not from {SRC}")
    return shgspec


def probe_import_s() -> tuple[float, float]:
    """Import time of shgspec in a fresh interpreter (same BLAS pinning) and
    the mean time of the speed probes it runs after the import."""
    out = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(SRC), str(HERE)],
        capture_output=True, text=True, check=True, timeout=120, cwd=ROOT,
    )
    import_s, probe_s = out.stdout.split()
    return float(import_s), float(probe_s)


def source_id() -> dict:
    """The code measured: a hash of src/, and the git commit if there is one.

    The hash covers uncommitted changes, which the commit alone does not.
    """
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    out = {"src_sha256": h.hexdigest()[:16], "git_commit": "none (not a git checkout)"}
    if (ROOT / ".git").exists():
        git = ["git", "-C", str(ROOT)]
        try:
            head = subprocess.run(git + ["rev-parse", "HEAD"], capture_output=True, text=True, timeout=30)
            dirty = subprocess.run(git + ["status", "--porcelain", "--", "src"],
                                   capture_output=True, text=True, timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            return out
        if head.returncode == 0:
            out["git_commit"] = head.stdout.strip()
            out["git_src_dirty"] = bool(dirty.stdout.strip())
    return out


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run_metadata(args, cfg) -> dict:
    import numpy
    import scipy

    def blas(mod):
        try:
            b = mod.__config__.CONFIG["Build Dependencies"]["blas"]
            return f"{b.get('name')} {b.get('version')}"
        except (AttributeError, KeyError, TypeError):
            return "unknown"

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy),
        "scipy_blas": blas(scipy),
        "blas_threads": {v: os.environ[v] for v in THREAD_VARS},
        **source_id(),
        "runconfig_sha256": hashlib.sha256(cfg.to_json().encode()).hexdigest()[:16],
    }


def ratio_max(ops) -> float:
    """Largest metric/threshold over passing ops with a positive threshold."""
    vals = [o.metric / o.threshold for o in ops
            if o.accuracy and not o.error and o.status == "pass" and o.threshold > 0]
    return max(vals) if vals else 0.0


def metric(value, unit):
    return {"value": value, "unit": unit}


def per_layer_metrics(tr, wall_traced, wall_untraced, cpu_s, import_s) -> dict:
    """The per-layer metrics of one traced pass."""
    from tracer import WORK, count_under, summarize

    s = summarize(tr)
    names, layers = s["names"], s["layers"]

    def calls(name):
        return names.get(name, {}).get("calls", 0)

    def total(name):
        return names.get(name, {}).get("total_s", 0.0)

    def work(name, key):
        return names.get(name, {}).get("work", {}).get(key, 0)

    def layer(name, key):
        return layers.get(name, {}).get(key, 0.0)

    mono = "monodromy.integrate_many"
    lams = work(mono, "points")
    single = sum(1 for sp in tr.spans if sp[0] == mono and (sp[WORK] or {}).get("points") == 1)
    m = {
        "potential.field_calls": metric(tr.field_calls, "count"),
        "potential.field_s": metric(tr.field_s, "s"),
        "monodromy.calls": metric(calls(mono), "count"),
        "monodromy.lams": metric(lams, "count"),
        "monodromy.single_lam_calls": metric(single, "count"),
        "monodromy.busy_s": metric(layer("monodromy", "busy_s"), "s"),
        "monodromy.self_s": metric(layer("monodromy", "self_s"), "s"),
        "monodromy.us_per_lam": metric(1e6 * layer("monodromy", "busy_s") / lams if lams else 0.0, "us"),
        "quadrature.winding_calls": metric(calls("quadrature.winding_number"), "count"),
        "quadrature.winding_nodes": metric(work("quadrature.winding_number", "nodes"), "count"),
        "quadrature.winding_s": metric(total("quadrature.winding_number"), "s"),
        "spectrum.build_table_s": metric(total("spectrum.build_table"), "s"),
        "spectrum.build_table_monodromy_calls": metric(count_under(tr, mono, "spectrum.build_table"), "count"),
        "spectrum.certify_s": metric(total("spectrum.certify_counts"), "s"),
        "roots_products.chip_calls": metric(calls("roots_products.CanonicalRootEvaluator.chip"), "count"),
        "roots_products.chip_points": metric(work("roots_products.CanonicalRootEvaluator.chip", "points"), "count"),
        "roots_products.chip_s": metric(total("roots_products.CanonicalRootEvaluator.chip"), "s"),
        "differentials.workspace_builds": metric(calls("differentials.SigmaWorkspace.__init__"), "count"),
        "differentials.workspace_s": metric(total("differentials.SigmaWorkspace.__init__"), "s"),
        "differentials.residual_calls": metric(calls("differentials.SigmaWorkspace.residual_and_jacobian"), "count"),
        "differentials.newton_iters": metric(work("differentials.solve_sigma", "newton_iters"), "count"),
        "differentials.clamp_events": metric(work("differentials.solve_sigma", "clamp_events"), "count"),
        "differentials.solve_s": metric(total("differentials.solve_sigma"), "s"),
        "differentials.verify_s": metric(total("differentials.verify_normalization"), "s"),
        "differentials.verify_negative_s": metric(total("differentials.verify_negative_normalization"), "s"),
        "gradients.busy_s": metric(layer("gradients", "busy_s"), "s"),
        "gradients.monodromy_calls": metric(count_under(tr, mono, "gradients"), "count"),
        "verification.busy_s": metric(layer("verification", "busy_s"), "s"),
        "verification.self_s": metric(layer("verification", "self_s"), "s"),
        "cli.import_s": metric(import_s, "s"),
        "cli.overhead_s": metric(layer("cli", "self_s"), "s"),
        "process.cpu_s": metric(cpu_s, "s"),
        "trace.overhead_share": metric(wall_traced / wall_untraced - 1.0, "ratio"),
    }
    return m


def timed_pass(wl, sp):
    """Run every step once; returns (ops, {step: (wall s, CPU s, mean probe s)})."""
    ops, steps = [], {}
    for name, step in wl.steps():
        out, *steps[name] = sp.time(step)
        ops += out
    return ops, steps


def pass_s(passes) -> float:
    """Sum over the steps of each step's median speed-corrected time."""
    return sum(statistics.median(speed_corrected(*p[name][::2]) for p in passes)
               for name in passes[0])


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    try:
        import_program()
    except ImportError as exc:
        print(f"cannot import the program from {SRC}: {exc}", file=sys.stderr)
        return 2
    import_s = [time.perf_counter() - T_START]

    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    reference = json.loads((HERE / "reference.json").read_text())
    wl = WORKLOADS[args.workload](args.seed, reference, OUT)

    with SpeedProbe() as sp:
        # set-up, repeated; the first repetition runs from process start, the
        # others import shgspec in a fresh interpreter, which probes its own
        # speed
        setups = []
        for rep in range(wl.setup_reps):
            imports = probe_import_s() if rep else None
            _, wall, _, probe_s = sp.time(wl.setup)
            if imports is None:
                corrected = speed_corrected(import_s[0] + wall, probe_s)
            else:
                import_s.append(imports[0])
                corrected = speed_corrected(*imports) + speed_corrected(wall, probe_s)
            setups.append({"import_wall_probe_s": imports, "setup_wall_probe_s": (wall, probe_s),
                           "corrected_s": corrected})

        passes, all_ops = [], []
        t_begin = time.perf_counter()
        while not passes or time.perf_counter() - t_begin < args.seconds:
            ops, steps = timed_pass(wl, sp)
            passes.append(steps)
            all_ops += ops
        wall_s = pass_s(passes)
        setup_s = statistics.median(x["corrected_s"] for x in setups)

        meta = run_metadata(args, wl.cfg)
        detail = {"meta": meta, "setups": setups, "import_s": import_s,
                  "steps_wall_cpu_probe_s": passes}
        if args.trace:
            from tracer import Tracer, labelled_rows, spans_as_records

            with Tracer() as tr:
                ops, steps = timed_pass(wl, sp)
            all_ops += ops
            wall_tr = pass_s([steps])
            cpu_tr = sum(cpu for _, cpu, _ in steps.values())
        detail["probe_s"] = sp.samples

    if args.trace:
        metrics = per_layer_metrics(tr, wall_tr, wall_s, cpu_tr, statistics.median(import_s))
        rows = labelled_rows(tr)
        detail.update(traced_pass_s=wall_tr, traced_steps_wall_cpu_probe_s=steps, steps=rows,
                      spans=spans_as_records(tr))
        print(f"{'step':58s} {'calls':>6s} {'total_s':>9s}  work")
        for r in rows:
            print(f"{r['step']:58s} {r['calls']:6d} {r['total_s']:9.3f}  {r['work'] or ''}")
    else:
        metrics = {
            "setup_s": metric(setup_s, "s"),
            "wall_s": metric(wall_s, "s"),
            "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            "pass_share": metric(sum(o.status == "pass" for o in all_ops) / max(len(all_ops), 1), "ratio"),
            "accuracy_ratio_max": metric(ratio_max(all_ops), "ratio"),
        }

    bad = [o for o in all_ops if not o.ok]
    for o in bad:
        print(f"MISMATCH {o.op_id}: got {o.status} (metric {o.metric:.3e}), "
              f"recorded {o.expected} {o.error}", file=sys.stderr)
    result = {
        "correct": bool(all_ops) and not bad,
        "attempted": len(all_ops),
        "failed": len(bad),
        "metrics": metrics,
    }
    detail.update(result=result, ops=[o.__dict__ for o in all_ops])
    out = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(detail, indent=1, default=str))
    print(json.dumps({"meta": meta}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
