"""Self-tests of the benchmark's tracer and gates.

    python3 -m pytest -q bench/test_bench.py

They use small operations (a batch of monodromy integrations and a K=4
sigma solve at the zero potential) so they finish in seconds.
"""

import sys
import time

import run  # pins BLAS threads before numpy is imported

run.import_program()

import numpy as np  # noqa: E402
import pytest  # noqa: E402
import speed  # noqa: E402

import shgspec  # noqa: E402
from shgspec import differentials, monodromy, spectrum, verification  # noqa: E402
from shgspec.potential import Potential  # noqa: E402
from tracer import TARGETS, Tracer, count_under, summarize  # noqa: E402
from workloads import Op, encode_table, exited, judged, table_deviation  # noqa: E402

LAMS = np.array([0.7, 1.3 + 0.2j, 5.1])


def _snapshot():
    """Every shgspec module and class attribute a tracer may patch."""
    snap = {}
    for name, mod in list(sys.modules.items()):
        if name == "shgspec" or name.startswith("shgspec."):
            for key, val in vars(mod).items():
                snap[(name, key)] = val
                if isinstance(val, type):
                    for mkey, mval in vars(val).items():
                        snap[(name, key, mkey)] = mval
    return snap


def _small_work():
    v = Potential.cosine(0.1)
    monodromy.integrate_many(v, LAMS, order=1, tol=1e-10)
    monodromy.integrate(v, 0.9, order=0, tol=1e-10)
    table = spectrum.build_table(Potential.zero(), 2, tol=1e-12)
    iso = spectrum.build_isolating(Potential.zero(), table)
    differentials.solve_sigma(table, iso, 1, 4)


def _counts(tr):
    s = summarize(tr)["names"]
    return (
        tr.field_calls,
        {name: (row["calls"], row["work"]) for name, row in s.items()},
        count_under(tr, "monodromy.integrate_many", "spectrum.build_table"),
    )


def test_wrappers_restore_originals():
    before = _snapshot()
    with Tracer() as tr:
        assert verification.integrate_many is not before[("shgspec.verification", "integrate_many")]
        assert shgspec.integrate_many is monodromy.integrate_many
        _small_work()
    assert _snapshot() == before
    assert tr.spans


def test_every_target_exists():
    for layer, targets in TARGETS.items():
        mod = sys.modules[f"shgspec.{layer}"]
        for attr, _, _ in targets:
            obj = mod
            for part in attr.split("."):
                obj = getattr(obj, part)
            assert callable(obj), f"{layer}.{attr}"


def test_counts_repeat_between_traced_runs():
    runs = []
    for _ in range(2):
        with Tracer() as tr:
            _small_work()
        runs.append(_counts(tr))
    assert runs[0] == runs[1]
    field_calls, names, under_table = runs[0]
    assert field_calls > 0 and under_table > 0
    # integrate() reaches integrate_many through the patched module global
    assert names["monodromy.integrate_many"][0] == 2 + under_table
    assert names["differentials.solve_sigma"][0] == 1


def test_spans_nest_and_self_time_is_bounded():
    with Tracer() as tr:
        _small_work()
    s = summarize(tr)
    for layer in s["layers"].values():
        assert layer["self_s"] <= layer["busy_s"] + 1e-9
    for span in tr.spans:
        assert span[3] >= span[2]
        if span[4] >= 0:
            parent = tr.spans[span[4]]
            assert parent[2] <= span[2] and span[3] <= parent[3]


def test_exceptions_still_close_spans():
    with Tracer() as tr:
        with pytest.raises(ValueError):
            monodromy.integrate_many(Potential.zero(), [0.0], order=0)
    assert len(tr.spans) == 1 and tr.spans[0][3] >= tr.spans[0][2]
    assert not tr._stack


def test_wall_s_sums_each_steps_median_corrected_time():
    ref = speed.REF_S
    passes = [{"a": (2.0, 0, ref), "b": (1.0, 0, ref)},
              {"a": (3.0, 0, 2 * ref), "b": (4.0, 0, 2 * ref)},
              {"a": (9.0, 0, ref), "b": (0.5, 0, ref / 2)}]
    # corrected: a = 2.0, 1.5, 9.0; b = 1.0, 2.0, 1.0
    assert run.pass_s(passes) == pytest.approx(2.0 + 1.0)
    assert speed.speed_corrected(3.0, 2 * ref) == pytest.approx(1.5)


def test_speed_probe_takes_its_probes_out_of_the_timed_interval():
    def work():
        t = time.perf_counter()
        while time.perf_counter() - t < 3 * speed.INTERVAL_S:
            sum(range(1000))
        return "done"

    with speed.SpeedProbe() as sp:
        out, wall, cpu, probe_s = sp.time(work)
    assert out == "done"
    inside = sp.samples[:-speed.AFTER]
    assert len(inside) >= 2 and len(sp.samples) == len(inside) + speed.AFTER
    assert wall == pytest.approx(3 * speed.INTERVAL_S, abs=0.05)
    assert probe_s == pytest.approx(sum(sp.samples) / len(sp.samples))
    # the handler is gone: no probe runs outside the context
    n = len(sp.samples)
    time.sleep(2 * speed.INTERVAL_S)
    assert len(sp.samples) == n


def test_gates_can_fail():
    assert judged("x", "normalization", 2e-6, "pass").ok is False
    assert judged("x", "normalization", 2e-6, "fail").ok is True
    assert Op("x", "fail", 0.0, 1.0, "fail", error="RuntimeError: boom").ok is False
    assert exited("x", 1, "pass").ok is False
    table = spectrum.build_table(Potential.zero(), 2, tol=1e-12)
    ref = encode_table(table)
    assert table_deviation(table, ref) == 0.0
    ref["mu"][0][0] += 1e-6
    assert table_deviation(table, ref) > 1e-7
