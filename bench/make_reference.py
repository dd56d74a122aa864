"""Regenerate reference.json from the program at this commit.

    python3 bench/make_reference.py

It records the outcome of every operation of every workload at seed 0
(known failures included, as failures), the spectrum table that the
``spectrum`` workload compares against and the ``shgspec eval`` output that
the ``cli`` workload compares against.  Run it only on the commit whose
outcomes are to be the reference: every later run is gated against the file
it writes.
"""

import json

import run  # pins BLAS threads before numpy is imported


def main():
    run.import_program()
    import workloads as W
    from shgspec import spectrum as sp

    run.OUT.mkdir(exist_ok=True)
    ref = {name: {} for name in W.WORKLOADS}

    spectrum = W.Spectrum(0, ref, run.OUT)
    spectrum.setup()
    table = sp.build_table(spectrum.v, W.Spectrum.n_max, tol=spectrum.cfg.spectral_tol)
    ref["spectrum"]["table"] = W.encode_table(table)

    cli = W.Cli(0, ref, run.OUT)
    cli.setup()
    ref["cli"]["eval"] = cli.run_eval()[1]

    errors = []
    for name, cls in W.WORKLOADS.items():
        wl = cls(0, ref, run.OUT)
        wl.setup()
        ops = [op for _, step in wl.steps() for op in step()]
        errors += [f"{name}/{o.op_id} raised: {o.error}" for o in ops if o.error]
        ref[name]["status"] = {o.op_id: o.status for o in ops}
    if errors:
        raise SystemExit("\n".join(errors))
    path = run.HERE / "reference.json"
    path.write_text(json.dumps(ref, indent=1) + "\n")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
