"""Tests of the benchmark's own code (generator, tracer, checks).

    python3 -m pytest perfbench/selftest.py

The file is not named test_*.py, so the repository's own test run does
not collect it; the traced seed-0 sweep below takes about 20 seconds.
"""

import copy
import json
import math
import sys
import time
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402
from calibration import Calibrator, Sampler  # noqa: E402
from tracer import Tracer  # noqa: E402

from liouvdyn import cli  # noqa: E402
from liouvdyn.config import resolve_config  # noqa: E402
from liouvdyn.diagnostics import log_time_grid  # noqa: E402
from liouvdyn.models import HOProtocol, TLSProtocol  # noqa: E402

# Keys a workload sets at every seed; everything else at seed 0 is default.
FIXED = {
    "geo": {"numerics": {"method": "both"}},
    "open_static_lamb": {"numerics": {"lamb_shift": True}},
    "open_driven_lamb_0": {
        "numerics": {"lamb_shift": True},
        "protocol": workloads.OPEN_DRIVEN_SEED0,
    },
    "open_driven_plain": {"protocol": workloads.OPEN_DRIVEN_SEED0},
}

SEEDS = range(1, 51)


# ---------------------------------------------------------------- generator


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_deterministic_per_seed(workload):
    for seed in (0, 1, 7):
        assert workloads.make_pass(workload, seed) == workloads.make_pass(workload, seed)
    assert workloads.make_pass(workload, 1) != workloads.make_pass(workload, 2)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seed_zero_is_the_embedded_defaults(workload):
    for run in workloads.make_pass(workload, 0):
        kind = run.config["model"]["kind"]
        expected = resolve_config(run.experiment, model_kind=kind).to_dict()
        fixed = FIXED.get(run.name, FIXED.get(run.experiment, {}))
        for section, values in fixed.items():
            expected[section].update(copy.deepcopy(values))
        expected["output"].update(dir="out", stem=run.name)
        got = resolve_config(run.experiment, run.config_file()).to_dict()
        assert got == expected, run.name


def test_sweep_draws_stay_inside_the_protocol_domain():
    for seed in SEEDS:
        for run in workloads.make_pass("sweep", seed):
            cfg = resolve_config("sweep", run.config_file())
            p, num = cfg.protocol, cfg.numerics
            for t_f in log_time_grid(num["t_min"], num["t_max"], num["points"]):
                if cfg.model["kind"] == "ho":
                    proto = HOProtocol.solve_boundary(
                        p["omega_start"], p["omega_target"], t_f, p["acceleration"]
                    )
                else:
                    assert p["epsilon"] < min(p["omega_start"], p["omega_target"])
                    proto = TLSProtocol.solve_boundary(
                        p["omega_start"], p["omega_target"], p["epsilon"], t_f,
                        p["acceleration"],
                    )
                assert t_f < proto.t_max


def test_diagnose_and_open_draws_stay_inside_the_protocol_domain():
    for seed in SEEDS:
        for run in workloads.make_pass("diagnose", seed):
            cfg = resolve_config("diagnose", run.config_file())
            assert 0.0 < cfg.protocol["t_f"] < cli._ramp_model(cfg, cfg.protocol["t_f"]).protocol.t_max
        for run in workloads.make_pass("open", seed):
            proto, t_final = _open_protocol(run)
            assert t_final < proto.t_max
            omega = max(proto.Omega(t_final * i / 200) for i in range(201))
            assert omega <= workloads.OPEN_OMEGA_MAX + 1e-9


def _open_protocol(run):
    cfg = resolve_config("open", run.config_file())
    p = cfg.protocol
    proto = TLSProtocol(epsilon=p["epsilon"], omega0=p["omega0"], chi0=p["chi0"], abar=p["abar"])
    return proto, cfg.numerics["t_final"]


def test_open_draw_constants_are_the_embedded_defaults():
    cfg = resolve_config("open")
    assert (workloads.OPEN_EPSILON, workloads.OPEN_OMEGA0) == (
        cfg.protocol["epsilon"], cfg.protocol["omega0"],
    )
    assert workloads.OPEN_OMEGA_MAX < cfg.model["bath"]["cutoff"]
    # the top of the chi0 range still admits the lowest abar
    draws = iter([max, min])
    rng = types.SimpleNamespace(uniform=lambda lo, hi: next(draws)(lo, hi))
    assert workloads._driven(rng, workloads.OPEN_DRIVEN - 1) == {"chi0": 0.01, "abar": -0.003}


def test_known_failure_case_reaches_the_band_the_draws_stay_short_of():
    # the level-shift quadrature fails for alpha in about [-31.65, -31.61]
    # (see README); passes stay below it, the traced open run reaches it
    run = workloads.known_failure_run()
    assert run.config["protocol"] == {"chi0": 0.01, "abar": -0.003}
    proto, t_final = _open_protocol(run)
    assert t_final < proto.t_max
    assert max(proto.Omega(t_final * i / 200) for i in range(201)) > 31.7
    assert workloads.OPEN_OMEGA_MAX < 31.6


def test_geo_draws_stay_in_the_well_separated_region_with_every_mode():
    for seed in SEEDS:
        for run in workloads.make_pass("geo", seed):
            pts = run.config["protocol"]["waypoints"]
            assert all(0.15 <= x <= 0.45 for pt in pts for x in pt)
            assert resolve_config("geo", run.config_file()).numerics["modes"] == "all"


# ------------------------------------------------------------------- tracer


def test_self_time_of_a_synthetic_nested_call():
    now = [0.0]
    tracer = Tracer("unused", clock=lambda: now[0])

    def inner():
        now[0] += 2.0

    def keyed(x):
        now[0] += 3.0

    def key(x):
        now[0] += 0.25  # hashing an input takes time too
        return x

    def outer():
        now[0] += 1.0
        traced_inner()
        now[0] += 0.5
        traced_inner()
        traced_keyed(1)

    traced_inner = tracer.wrap("inner", inner)
    traced_keyed = tracer.wrap("keyed", keyed, key=key)
    traced_outer = tracer.wrap("outer", outer)
    traced_outer()
    assert tracer.stats["outer"].calls == 1
    assert tracer.stats["inner"].calls == 2
    assert tracer.stats["outer"].self_s == pytest.approx(1.5)
    assert tracer.stats["inner"].self_s == pytest.approx(4.0)
    assert tracer.stats["keyed"].self_s == pytest.approx(3.0)
    assert tracer.within["outer", "inner"] == 2
    assert now[0] == pytest.approx(1.5 + 4.0 + 3.0 + 0.25)


def test_errors_and_distinct_inputs_are_counted():
    tracer = Tracer("unused")

    def f(x):
        if x < 0:
            raise ValueError(x)
        return x

    g = tracer.wrap("f", f, key=lambda x: x)
    for x in (1, 1, 2, -1):
        try:
            g(x)
        except ValueError:
            pass
    assert tracer.stats["f"].errors == 1
    assert tracer.distinct_ratio("f") == pytest.approx(3 / 4)


def test_tracer_rebinds_every_import_of_a_function(monkeypatch):
    pkg = types.ModuleType("fakepkg")
    base = types.ModuleType("fakepkg.base")
    user = types.ModuleType("fakepkg.user")
    exec("def work():\n    return 1\n", base.__dict__)
    user.work = base.work  # what ``from .base import work`` does
    pkg.work = base.work
    for name, mod in (("fakepkg", pkg), ("fakepkg.base", base), ("fakepkg.user", user)):
        monkeypatch.setitem(sys.modules, name, mod)
    original = base.work
    tracer = Tracer("fakepkg")
    tracer.install("base", "work")
    for mod in (pkg, base, user):
        mod.work()
    assert tracer.stats["base.work"].calls == 3
    tracer.uninstall()
    assert base.work is user.work is pkg.work is original


def test_seed_zero_ho_sweep_counts_every_binding(tmp_path, monkeypatch):
    run = next(r for r in workloads.make_pass("sweep", 0) if r.name == "sweep_ho")
    monkeypatch.chdir(tmp_path)
    Path("cfg").mkdir()
    Path("cfg", "sweep_ho.json").write_text(json.dumps(run.config_file()))
    tracer = Tracer("liouvdyn")
    layers.install(tracer)
    try:
        assert cli.main(["sweep", "--config", "cfg/sweep_ho.json"]) == 0
    finally:
        tracer.uninstall()
    assert tracer.stats["linalg.bi_eigendecompose"].calls == 57_900
    assert tracer.stats["linalg.track_continuity"].calls == 57_600
    assert tracer.stats["engine.propagate_inertial"].calls == 20


def test_benchmark_json_lists_exactly_the_reported_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    tracer = Tracer("liouvdyn")
    layers.install(tracer)
    tracer.uninstall()
    reported = layers.metrics(tracer, 0, 1.0)
    assert [m["name"] for m in spec["per_layer"]] == sorted(reported)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: unit for name, (_, unit) in reported.items()
    }
    assert [m["name"] for m in spec["end_to_end"]] == ["setup_s", "wall_ref_s", "peak_rss_mb"]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


# -------------------------------------------------------------- calibration


def test_sampler_samples_on_entry_and_while_the_body_runs_and_counts_its_time():
    with Sampler(Calibrator()) as sampler:
        end = time.perf_counter() + 0.45
        while time.perf_counter() < end:
            pass
    assert len(sampler.times) >= 3
    assert sampler.spent >= sum(sampler.times) > 0.0
    assert sampler.speed() > 0.0
    n = len(sampler.times)
    time.sleep(0.25)
    assert len(sampler.times) == n  # the timer is off after the block
    with Sampler(Calibrator()) as sampler:
        pass
    assert len(sampler.times) == 1  # a pass shorter than the interval
    with Sampler(Calibrator(), enabled=False) as sampler:
        time.sleep(0.25)
    assert sampler.times == [] and sampler.spent == 0.0


# ------------------------------------------------------------------- checks


def _write_run(out, name, columns, rows, errors, status="ok"):
    out.mkdir(exist_ok=True)
    lines = [",".join(columns)] + [",".join(repr(x) for x in r) for r in rows]
    (out / f"{name}.csv").write_text("\n".join(lines) + "\n")
    manifest = {"status": status, "point_errors": errors}
    (out / f"{name}_manifest.json").write_text(json.dumps(manifest))


def test_checks_count_flagged_out_of_range_and_unflagged_nan_rows(tmp_path):
    run = workloads.Run(name="s", experiment="sweep", config={}, operations=4)
    columns = list(cli._SWEEP_COLUMNS)
    rows = [
        [0.1, 0.99, 0.9, 2.0, 0.1, 0.1],
        [0.2, 1.5, 0.9, 2.0, 0.1, 0.1],  # fidelity above 1
        [0.3, math.nan, 0.9, 2.0, 0.1, 0.1],  # NaN without a flag
        [0.4, math.nan, math.nan, math.nan, math.nan, math.nan],  # flagged
    ]
    _write_run(tmp_path, "s", columns, rows, [None, None, None, "NotConverged: x"], "partial")
    failed, wrong, reported = checks.check_run(run, 3, "", tmp_path, reference=False)
    assert failed == 3
    assert len(wrong) == 2 and len(reported) == 1
    assert checks.check_run(run, 4, "", tmp_path, reference=False)[:2] == (4, [
        "status 'partial' with exit code 4"
    ])
    assert checks.check_run(run, 0, "", tmp_path, reference=False)[0] == 4  # status mismatch


def test_checks_tell_reported_failures_from_wrong_outputs(tmp_path):
    run = workloads.Run(name="o", experiment="open", config={}, operations=1)
    message = "run failed: NotConverged: quadrature did not converge\n"
    assert checks.check_run(run, 4, message, tmp_path, reference=False) == (
        1, [], ["run failed: NotConverged: quadrature did not converge"]
    )
    failed, wrong, reported = checks.check_run(run, 4, "", tmp_path, reference=False)
    assert (failed, reported) == (1, []) and wrong
    failed, wrong, reported = checks.check_run(run, -1, "Traceback\nKeyError: 'x'\n",
                                               tmp_path, reference=False)
    assert (failed, reported) == (1, []) and wrong == ["exit code -1: KeyError: 'x'"]


def test_checks_hold_open_trajectories_to_physical_states(tmp_path):
    run = workloads.Run(name="o", experiment="open", config={}, operations=1)
    columns = ["t", "bloch_x", "bloch_y", "bloch_z", "pop_ground", "pop_excited",
               "trace_dev", "min_eig"]
    good = [0.0, 0.3, -0.2, 0.5, 0.4, 0.6, 0.0, 0.2]
    _write_run(tmp_path, "o", columns, [good, good], [None, None])
    assert checks.check_run(run, 0, "", tmp_path, reference=False) == (0, [], [])
    _write_run(tmp_path, "o", columns, [good, [1.0, 0.9, 0.5, 0.5, 0.4, 0.6, 0.0, -0.1]],
               [None, None])
    failed, wrong, reported = checks.check_run(run, 0, "", tmp_path, reference=False)
    assert failed == 1 and len(wrong) == 2 and not reported


def test_reference_files_exist_for_every_seed_zero_run():
    for workload in workloads.WORKLOADS:
        for run in workloads.make_pass(workload, 0):
            assert (checks.REFERENCE_DIR / f"{run.name}.csv").is_file(), run.name

