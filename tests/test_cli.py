"""Command-line interface: config resolution, outputs, determinism."""

import contextlib
import functools
import importlib
import inspect
import io
import json
import math
import os
import pkgutil
import re
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from oracles import per_row_diagnose

import liouvdyn
from liouvdyn import __version__, cli, diagnostics, engine, geometric, linalg, models, open_quantum
from liouvdyn.cli import main
from liouvdyn.config import EXPERIMENTS, RunConfig, load_config_file, resolve_config
from liouvdyn.errors import ConfigInvalid, LiouvdynError


def run_cli(args):
    return main([str(a) for a in args])


def write_json(path, payload):
    path.write_text(json.dumps(payload))
    return path


def read_csv(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    rows = [[float(x) for x in line.split(",")] for line in lines[1:]]
    return header, rows


class TestConfigResolution:
    def test_defaults_need_no_file(self):
        cfg = resolve_config("sweep")
        assert cfg.experiment == "sweep"
        assert cfg.model["kind"] == "ho"
        assert cfg.protocol["omega_start"] == 20.0
        assert cfg.protocol["omega_target"] == 10.0
        assert cfg.protocol["acceleration"] == -5e-3
        assert cfg.numerics["points"] == 20

    def test_model_flag_switches_defaults(self):
        cfg = resolve_config("sweep", model_kind="tls")
        assert cfg.model["kind"] == "tls"
        assert cfg.protocol["epsilon"] == 8.0

    def test_empty_file_is_rejected_with_key_list(self):
        with pytest.raises(ConfigInvalid) as err:
            resolve_config("sweep", {})
        msg = str(err.value)
        for key in ("experiment", "model", "protocol", "numerics", "output"):
            assert key in msg

    def test_file_experiment_must_match_subcommand(self):
        with pytest.raises(ConfigInvalid, match="sweep"):
            resolve_config("sweep", {"experiment": "open"})

    def test_unknown_keys_are_rejected_with_suggestions(self):
        bad = {"experiment": "sweep", "numerics": {"t_mim": 0.1}}
        with pytest.raises(ConfigInvalid, match="t_mim") as err:
            resolve_config("sweep", bad)
        assert "t_min" in str(err.value)

    def test_partial_file_merges_over_defaults(self):
        cfg = resolve_config(
            "sweep", {"experiment": "sweep", "numerics": {"points": 7}}
        )
        assert cfg.numerics["points"] == 7
        assert cfg.numerics["t_min"] == 0.05

    def test_flag_overrides_beat_file(self):
        cfg = resolve_config(
            "sweep",
            {"experiment": "sweep", "output": {"format": "csv", "dir": "a"}},
            out_format="json",
            out_dir="b",
        )
        assert cfg.output == {"format": "json", "dir": "b", "stem": "sweep"}

    @pytest.mark.parametrize("experiment", ["sweep", "single"])
    @pytest.mark.parametrize("key", ["rtol", "atol"])
    def test_exact_tolerances_only_where_the_exact_state_uses_them(self, experiment, key):
        # the oscillator's exact state is closed form, the two-level one an
        # SU(2) flow refined to rtol/atol
        file_config = {"experiment": experiment, "numerics": {key: 1e-8}}
        with pytest.raises(ConfigInvalid, match=rf"^unknown key numerics\.{key} "):
            resolve_config(experiment, file_config)
        assert resolve_config(experiment, file_config, model_kind="tls").numerics[key] == 1e-8
        assert resolve_config("open", {"experiment": "open", "numerics": {key: 1e-8}}
                              ).numerics[key] == 1e-8

    def test_no_tolerance_comes_from_the_command_line(self):
        assert "rtol" not in inspect.signature(resolve_config).parameters
        for experiment in EXPERIMENTS:
            with pytest.raises(SystemExit) as exc, contextlib.redirect_stderr(io.StringIO()):
                main([experiment, "--tol", "1e-9"])
            assert exc.value.code == 2

    def test_model_kind_conflict_is_rejected(self):
        file_config = {"experiment": "sweep", "model": {"kind": "tls"}}
        with pytest.raises(ConfigInvalid, match="kind"):
            resolve_config("sweep", file_config, model_kind="ho")

    def test_validation_catches_bad_values(self):
        bad = {"experiment": "sweep", "numerics": {"points": 0}}
        with pytest.raises(ConfigInvalid, match="points"):
            resolve_config("sweep", bad)
        bad = {"experiment": "sweep", "protocol": {"omega_target": -1.0}}
        with pytest.raises(ConfigInvalid, match="omega_target"):
            resolve_config("sweep", bad)

    def test_tls_ramp_must_clear_the_gap_floor(self):
        bad = {
            "experiment": "sweep",
            "model": {"kind": "tls"},
            "protocol": {"omega_target": 4.0},
        }
        with pytest.raises(ConfigInvalid, match="epsilon"):
            resolve_config("sweep", bad)

    def test_open_rejects_ho_model(self):
        with pytest.raises(ConfigInvalid, match="kind"):
            resolve_config("open", {"experiment": "open", "model": {"kind": "ho"}})

    def test_open_epsilon_must_keep_z0_below_one(self):
        # hypot(omega0, epsilon) rounds to omega0, so z(0) = 1 exactly and
        # the run used to exit 4 with DomainExceeded at t = 0
        bad = {"experiment": "open", "protocol": {"epsilon": 1e-200, "omega0": 1.0}}
        with pytest.raises(ConfigInvalid, match=r"^protocol\.epsilon: "):
            resolve_config("open", bad)
        ok = {"experiment": "open", "protocol": {"epsilon": 1e-7, "omega0": 1.0}}
        assert resolve_config("open", ok).protocol["epsilon"] == 1e-7

    def test_bloch_vector_must_stay_in_ball(self):
        bad = {"experiment": "open", "model": {"initial_bloch": [1.0, 1.0, 1.0]}}
        with pytest.raises(ConfigInvalid, match="initial_bloch"):
            resolve_config("open", bad)

    def test_geo_waypoint_width_must_match_family(self):
        bad = {
            "experiment": "geo",
            "model": {"kind": "tls"},
            "protocol": {"waypoints": [[0.1, 0.2], [0.3, 0.4]]},
        }
        with pytest.raises(ConfigInvalid, match="waypoints"):
            resolve_config("geo", bad)

    def test_hash_is_stable_and_sensitive(self):
        a = resolve_config("sweep")
        b = resolve_config("sweep")
        c = resolve_config("sweep", {"experiment": "sweep", "numerics": {"points": 7}})
        assert a.sha256() == b.sha256()
        assert a.sha256() != c.sha256()

    def test_to_dict_is_a_deep_copy(self):
        cfg = resolve_config("sweep")
        cfg.to_dict()["numerics"]["points"] = 999
        assert cfg.numerics["points"] == 20

    def test_config_is_frozen(self):
        cfg = resolve_config("sweep")
        with pytest.raises(AttributeError):
            cfg.experiment = "open"


KINDS = ("ho", "tls", "two-spin-local", "two-spin-nonlocal")
SECTIONS = ("model", "protocol", "numerics", "output")
# resolve_config(experiment, model_kind=kind).sha256() of every pair
DEFAULT_SHA256 = {
    ("sweep", "ho"): "7df7574dcc321f06855469bf71f0a0ac4f780e89dc0aaf47def80cc3e8263d73",
    ("sweep", "tls"): "f1bf9958a15ed3a9e85bf6224fea88e255622b05b66d36aa0a34a6c406ebe5ac",
    ("diagnose", "ho"): "d81d9dae2a59706e7cc486c734b3094fec277ddb908aa5dd78e1cbcde6a4a862",
    ("diagnose", "tls"): "504443ff354018bcfda0032a7ae48a65a23c4cc5ce90b96a87e9db487412f07c",
    ("single", "ho"): "6b937951f4d3e4a73573639ea89f3be7e184dde140a0b39278add52a1324aff0",
    ("single", "tls"): "201a7a2bb85b6d751ea6a0889f079e6fb5ce7515ae1ed1a9318e218ffd45dc5e",
    ("open", "tls"): "5d5b9bf6fdbf3e7fb22f84b69b9485ab324c0014d5e9dcff736ece902e8a8ca0",
    ("geo", "ho"): "96d88ff4add4372efea1c9faa3065950f1ff0e1a5d320d6c1a5bc95329c2e8e6",
    ("geo", "tls"): "2c5ed2bcb9f11d23f3e50ddea55e5755b89865e51534ab454915f6b2122629c5",
    ("geo", "two-spin-local"): "418ad65dcf826e33e1a4157998314feeea8598cac7cb9de0af2a80ebe0fec1d5",
    ("geo", "two-spin-nonlocal"): "0d921c062d7938c9a18df22cf9d3b752b94cd097f2f9b26dd4507104f6f02a3e",
}


def _leaf_paths(tree, path=""):
    for key, value in tree.items():
        if isinstance(value, dict):
            yield from _leaf_paths(value, f"{path}{key}.")
        else:
            yield f"{path}{key}"


LEAVES = [
    (experiment, kind, path)
    for experiment, kind in DEFAULT_SHA256
    for path in _leaf_paths(
        {s: resolve_config(experiment, model_kind=kind).to_dict()[s] for s in SECTIONS})
]


class TestConfigSchema:
    def test_defaults_keep_their_hashes(self):
        assert len(DEFAULT_SHA256) == 11 and len(LEAVES) == 135
        for (experiment, kind), want in DEFAULT_SHA256.items():
            assert resolve_config(experiment, model_kind=kind).sha256() == want

    @pytest.mark.parametrize(
        "experiment, kind, path", LEAVES, ids=["/".join(leaf) for leaf in LEAVES]
    )
    def test_every_key_is_checked_and_named(self, experiment, kind, path):
        # an empty list is the wrong type for every key
        value = []
        for part in reversed(path.split(".")):
            value = {part: value}
        with pytest.raises(ConfigInvalid) as err:
            resolve_config(experiment, {"experiment": experiment, **value}, model_kind=kind)
        assert str(err.value).startswith(f"{path}: ")


def _defaults_by_key(experiment):
    """Section -> key -> every default value of that key over the model kinds."""
    out = {section: {"threads": [], "zzz": []} for section in SECTIONS}
    for kind in KINDS:
        try:
            cfg = resolve_config(experiment, model_kind=kind).to_dict()
        except ConfigInvalid:
            continue
        for section in SECTIONS:
            for key, value in cfg[section].items():
                out[section].setdefault(key, []).append(value)
    out["model"]["kind"] = list(KINDS)
    return out


_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=3),
)
_JSON = st.recursive(
    _SCALARS,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=8,
)


@st.composite
def file_configs(draw):
    experiment = draw(st.sampled_from(EXPERIMENTS))
    config = {"experiment": experiment}
    for section, keys in _defaults_by_key(experiment).items():
        entries = st.sampled_from(sorted(keys)).flatmap(
            lambda key: st.tuples(st.just(key), st.sampled_from(keys[key] or [None]) | _JSON)
        )
        body = st.lists(entries, max_size=4).map(dict)
        if draw(st.booleans()):
            config[section] = draw(body | _JSON)
    return experiment, config


class TestConfigFuzz:
    @settings(max_examples=300)
    @given(file_configs())
    def test_resolution_returns_config_or_config_invalid(self, case):
        # unknown keys, wrong types, nested non-objects, NaN/Infinity and
        # bools where numbers go all end as ConfigInvalid, never a crash
        experiment, file_config = case
        try:
            cfg = resolve_config(experiment, file_config)
        except ConfigInvalid:
            return
        assert isinstance(cfg, RunConfig)


# finite numbers of both signs from 1e-300 to 1e300
_EXTREMES = st.builds(
    lambda s, m, e: s * m * 10.0**e,
    st.sampled_from((-1.0, 1.0)),
    st.floats(1.0, 9.99),
    st.integers(-300, 299),
)
# JSON integers of both signs that no double holds
_PAST_DOUBLE = st.builds(lambda s, n: s * n, st.sampled_from((-1, 1)), st.integers(2**1024, 10**400))


def _or_past_double(strategy):
    """``strategy``, or about one time in ten an integer past the double range."""
    return st.integers(0, 9).flatmap(lambda i: _PAST_DOUBLE if i == 0 else strategy)


@st.composite
def diagnose_configs(draw):
    # a runnable ramp with up to two of its numbers swapped for extremes
    kind = draw(st.sampled_from(("ho", "tls")))
    protocol = {
        "omega_start": draw(st.floats(5.0, 40.0)),
        "omega_target": draw(st.floats(5.0, 40.0)),
        "acceleration": draw(st.floats(-0.05, 0.05)),
        "t_f": draw(st.floats(0.01, 5.0)),
    }
    if kind == "tls":
        protocol["epsilon"] = draw(st.floats(0.5, 4.5))
    for key in draw(st.lists(st.sampled_from(sorted(protocol)), max_size=2, unique=True)):
        protocol[key] = draw(_or_past_double(_EXTREMES | st.just(0.0)))
    numerics = {"samples": draw(st.integers(2, 257))}
    return {"experiment": "diagnose", "model": {"kind": kind},
            "protocol": protocol, "numerics": numerics}


@st.composite
def sweep_configs(draw):
    # both kinds at drawn accelerations, 0 included: an unaccelerated
    # two-level ramp has a constant rate, one R_F piece of scaled time
    experiment = draw(st.sampled_from(("sweep", "single")))
    kind = draw(st.sampled_from(("ho", "tls")))
    protocol = {
        "omega_target": draw(st.floats(8.5, 40.0)),
        "acceleration": draw(st.just(0.0) | _EXTREMES | st.floats(-0.05, 0.05)),
    }
    if draw(st.booleans()):
        protocol["omega_start"] = draw(_EXTREMES)
    if experiment == "sweep":
        numerics = {"points": draw(_or_past_double(st.integers(2, 3)))}
    else:
        protocol["t_f"] = draw(st.floats(0.01, 5.0))
        numerics = {}
    return {"experiment": experiment, "model": {"kind": kind},
            "protocol": protocol, "numerics": numerics}


@st.composite
def geo_configs(draw):
    kind = draw(st.sampled_from(KINDS))
    width = 1 if kind in ("ho", "tls") else 2
    # coordinates on both sides of |chi| = 2, where the oscillator's
    # generator stops being diagonalizable, extremes whose eigenvalues
    # reach past 1e299, and magnitudes up to and past the 1e300 bound
    beyond = st.builds(lambda s, x: s * x, st.sampled_from((-1.0, 1.0)),
                       st.floats(1e299, sys.float_info.max))
    point = st.lists(st.floats(-2.5, 2.5) | _EXTREMES | beyond, min_size=width, max_size=width)
    protocol = {
        "waypoints": draw(st.lists(point, min_size=2, max_size=4)),
        "closed": draw(st.booleans()),
        "samples": draw(st.none() | st.integers(4, 8)),
    }
    numerics = {"method": draw(st.sampled_from(("line", "surface", "both")))}
    return {"experiment": "geo", "model": {"kind": kind},
            "protocol": protocol, "numerics": numerics}


@st.composite
def open_configs(draw):
    # static and driven ramps, drive rates out to the extremes; horizons
    # from 1e-3 to 1e4 and couplings up to 1 are drawn log-uniformly, and
    # some couplings are exactly 0; a horizon past t_max exits 2, as does a
    # level-shift cutoff whose cube leaves the double range or that does not
    # exceed the largest |alpha| of the run
    drive = st.just(0.0) | st.floats(-0.05, 0.05) | _EXTREMES
    protocol = {
        "epsilon": draw(st.floats(0.5, 16.0)),
        "omega0": draw(st.floats(0.0, 40.0)),
        "chi0": draw(drive),
        "abar": draw(st.just(0.0) | st.floats(-0.01, 0.01) | _EXTREMES),
    }
    lamb_shift = draw(st.booleans())
    cutoff = st.floats(1.0, 300.0)
    if lamb_shift:
        cutoff = cutoff | st.floats(2.0, 300.0).map(lambda e: 10.0**e)
    model = {
        "initial_bloch": draw(st.lists(st.floats(-0.57, 0.57), min_size=3, max_size=3)),
        "bath": {
            "temperature": draw(st.floats(0.0, 30.0)),
            "coupling": draw(st.just(0.0) | st.floats(-6.0, 0.0).map(lambda e: 10.0**e)),
            "cutoff": draw(cutoff),
        },
    }
    numerics = {
        "t_final": draw(_or_past_double(st.floats(-3.0, 4.0).map(lambda e: 10.0**e))),
        "points": draw(st.integers(2, 201)),
        "lamb_shift": lamb_shift,
        "picture": draw(st.sampled_from(("schrodinger", "interaction"))),
    }
    return {"experiment": "open", "model": model, "protocol": protocol, "numerics": numerics}


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestRunFuzz:
    """Whole ``sweep``, ``single``, ``diagnose``, ``geo`` and ``open`` runs
    on drawn file configs end with a documented exit code, no traceback, no
    RuntimeWarning (an overflow or an invalid operation), and a manifest
    status that says the same as the code.  An exit 4 is a numerical
    failure, never a value the config checks should have refused."""

    STATUS = {0: ("ok",), 3: ("partial",), 4: ("failed", None), 2: (None,)}
    CONFIG_GAPS = r"run failed: (ZeroDivisionError|OverflowError)|cutoff must exceed"

    def run(self, config):
        with tempfile.TemporaryDirectory() as tmp:
            path = write_json(Path(tmp) / "c.json", config)
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = run_cli([config["experiment"], "--config", path, "--out", tmp])
            manifest = Path(tmp) / f"{config['experiment']}_manifest.json"
            status = json.loads(manifest.read_text())["status"] if manifest.exists() else None
        assert code in self.STATUS, (code, err.getvalue())
        assert "Traceback" not in err.getvalue()
        assert not (code == 4 and re.search(self.CONFIG_GAPS, err.getvalue())), err.getvalue()
        assert status in self.STATUS[code], (code, status)

    @settings(max_examples=60)
    @given(diagnose_configs())
    @example({"experiment": "diagnose", "model": {"kind": "ho"}, "protocol": {"t_f": 1e300}})
    @example({"experiment": "diagnose", "model": {"kind": "tls"}, "protocol": {"t_f": 1e-300}})
    # omega^2 underflows to 0 along the whole ramp
    @example({"experiment": "diagnose", "model": {"kind": "ho"},
              "protocol": {"omega_start": 1e-300, "omega_target": 1e-301}})
    def test_diagnose(self, config):
        self.run(config)

    @settings(max_examples=60)
    @given(sweep_configs())
    @example({"experiment": "sweep", "model": {"kind": "tls"},
              "protocol": {"acceleration": 0.0}, "numerics": {"points": 2}})
    @example({"experiment": "sweep", "model": {"kind": "ho"},
              "protocol": {"omega_start": 1e-300, "omega_target": 1e-301}})
    @example({"experiment": "single", "model": {"kind": "ho"},
              "protocol": {"omega_start": 1e-300, "omega_target": 1e-301}})
    # a static ramp: m omega^2 underflows in the state reconstruction
    @example({"experiment": "sweep", "model": {"kind": "ho"},
              "protocol": {"omega_start": 1e-300, "omega_target": 1e-300},
              "numerics": {"points": 2}})
    def test_sweep(self, config):
        self.run(config)

    @settings(max_examples=30)
    @given(geo_configs())
    @example({"experiment": "geo", "model": {"kind": "ho"},
              "protocol": {"waypoints": [[1.5], [2.5], [1.9]]},
              "numerics": {"method": "both"}})
    @example({"experiment": "geo", "model": {"kind": "tls"},
              "protocol": {"waypoints": [[0.1], [1e300]]}, "numerics": {"method": "both"}})
    @example({"experiment": "geo", "model": {"kind": "two-spin-local"},
              "protocol": {"waypoints": [[0.0, -1e43], [-2e267, 0.0]]},
              "numerics": {"method": "surface"}})
    def test_geo(self, config):
        self.run(config)

    @settings(max_examples=40)
    @given(open_configs())
    @example({"experiment": "open", "numerics": {"t_final": 1e4, "lamb_shift": True}})
    @example({"experiment": "open", "numerics": {"t_final": 1e300, "lamb_shift": True}})
    @example({"experiment": "open", "protocol": {"chi0": 1e-10}, "numerics": {"t_final": 1e4}})
    @example({"experiment": "open", "model": {"bath": {"temperature": 0.0625}},
              "numerics": {"lamb_shift": True}})
    @example({"experiment": "open", "protocol": {"epsilon": 1e-200, "omega0": 1.0}})
    # a level-shift cutoff below the gap, 17
    @example({"experiment": "open", "model": {"bath": {"cutoff": 5.0}},
              "numerics": {"lamb_shift": True}})
    def test_open(self, config):
        self.run(config)


class TestConfigFileLoading:
    def test_round_trip(self, tmp_path):
        path = write_json(tmp_path / "c.json", {"experiment": "sweep"})
        assert load_config_file(path) == {"experiment": "sweep"}

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigInvalid, match="not found"):
            load_config_file(tmp_path / "nope.json")

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text("{not json")
        with pytest.raises(ConfigInvalid, match="JSON"):
            load_config_file(path)

    def test_non_object_top_level(self, tmp_path):
        path = write_json(tmp_path / "c.json", [1, 2, 3])
        with pytest.raises(ConfigInvalid, match="object"):
            load_config_file(path)


class TestExitCodes:
    def test_success_is_zero(self, tmp_path):
        cfg = write_json(
            tmp_path / "c.json",
            {
                "experiment": "geo",
                "model": {"kind": "tls"},
                "protocol": {"waypoints": [[0.1], [0.3]], "closed": True},
            },
        )
        assert run_cli(["geo", "--config", cfg, "--out", tmp_path / "out"]) == 0

    def test_empty_config_exits_two(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "c.json", {})
        assert run_cli(["sweep", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert "experiment" in err

    def test_malformed_config_exits_two(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text("{oops")
        assert run_cli(["sweep", "--config", cfg]) == 2

    def test_unknown_key_exits_two(self, tmp_path):
        cfg = write_json(
            tmp_path / "c.json", {"experiment": "sweep", "numerics": {"zzz": 1}}
        )
        assert run_cli(["sweep", "--config", cfg]) == 2

    def test_mismatched_experiment_exits_two(self, tmp_path):
        cfg = write_json(tmp_path / "c.json", {"experiment": "open"})
        assert run_cli(["sweep", "--config", cfg]) == 2

    @pytest.mark.parametrize("method, code", [("line", 0), ("surface", 2), ("both", 2)])
    def test_surface_on_an_open_circuit_exits_two(self, tmp_path, capsys, method, code):
        # the line form runs on an open circuit; the surface form needs a closed one
        cfg = write_json(tmp_path / "c.json", {
            "experiment": "geo",
            "model": {"kind": "tls"},
            "protocol": {"waypoints": [[0.1], [0.3]], "closed": False},
            "numerics": {"method": method},
        })
        assert run_cli(["geo", "--config", cfg, "--out", tmp_path / "out"]) == code
        if code == 2:
            err = capsys.readouterr().err
            assert "numerics.method" in err and "protocol.closed" in err
            assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("end, rejected", [
        (1e308, True), (math.nextafter(1e300, math.inf), True), (1e300, False),
    ])
    def test_geo_waypoints_past_1e300_exit_two(self, tmp_path, capsys, end, rejected):
        # at 1e308 the difference of the two endpoints used to overflow: exit
        # 4 with a RuntimeWarning.  1e300 itself is accepted, and its run fails
        cfg = write_json(tmp_path / "c.json", {
            "experiment": "geo",
            "model": {"kind": "tls"},
            "protocol": {"waypoints": [[0.1], [-end]]},
            "numerics": {"method": "both"},
        })
        code = run_cli(["geo", "--config", cfg, "--out", tmp_path / "out"])
        assert ("protocol.waypoints" in capsys.readouterr().err) == rejected
        assert code == 2 if rejected else code == 4

    def test_total_runtime_failure_exits_four(self, tmp_path, capsys):
        # no double meets these tolerances: mesolve fails before a single
        # state is produced
        cfg = write_json(
            tmp_path / "c.json",
            {"experiment": "open", "numerics": {"rtol": 1e-300, "atol": 1e-300}},
        )
        assert run_cli(["open", "--config", cfg, "--out", tmp_path / "out"]) == 4
        assert "run failed: NotConverged" in capsys.readouterr().err

    def test_open_horizon_beyond_the_protocol_exits_two(self, tmp_path, capsys):
        # |omega/Omega| reaches 1 at t ~ 0.012, long before t_final
        cfg = write_json(
            tmp_path / "c.json",
            {
                "experiment": "open",
                "protocol": {"chi0": 0.99, "abar": 40.0},
                "numerics": {"t_final": 2.0},
            },
        )
        assert run_cli(["open", "--config", cfg, "--out", tmp_path / "out"]) == 2
        assert "numerics.t_final" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_open_horizon_of_a_subnormal_acceleration_exits_two(self, tmp_path, capsys):
        # z(t) = z0 - t/8 reaches -1 at t ~ 8.008 for any abar this small
        cfg = write_json(
            tmp_path / "c.json",
            {
                "experiment": "open",
                "protocol": {"epsilon": 1.0, "omega0": 0.001, "chi0": -0.125, "abar": -2.2e-309},
                "numerics": {"t_final": 9.0},
            },
        )
        assert run_cli(["open", "--config", cfg, "--out", tmp_path / "out"]) == 2
        assert "numerics.t_final" in capsys.readouterr().err

    @pytest.mark.parametrize("chi0", [1e200, -1e300])
    def test_open_drive_past_1e154_exits_two(self, tmp_path, capsys, chi0):
        # chi0^2 overflows, and the horizon used to come out as inf: the
        # run then failed at t = 0.02 with DomainExceeded
        cfg = write_json(tmp_path / "c.json", {"experiment": "open", "protocol": {"chi0": chi0}})
        assert run_cli(["open", "--config", cfg, "--out", tmp_path / "out"]) == 2
        assert "numerics.t_final" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("lamb_shift, cutoff, code", [
        (True, 1e103, 2), (True, 5e102, 0), (False, 1e300, 0),
    ])
    def test_level_shift_cutoff_past_its_cube_root_exits_two(
        self, tmp_path, capsys, lamb_shift, cutoff, code
    ):
        # with the level shifts on, cutoff^3 used to overflow in the run: exit 4
        cfg = write_json(tmp_path / "c.json", {
            "experiment": "open",
            "model": {"bath": {"cutoff": cutoff}},
            "numerics": {"lamb_shift": lamb_shift},
        })
        assert run_cli(["open", "--config", cfg, "--out", tmp_path / "out"]) == code
        if code == 2:
            assert "model.bath.cutoff" in capsys.readouterr().err

    @pytest.mark.parametrize("protocol, cutoff, code", [
        # the static default's |alpha| is the gap hypot(8, 15) = 17
        ({}, 5.0, 2), ({}, 17.0, 2), ({}, 17.5, 0),
        # |alpha| is 8.26 at both ends and 8.92 at t = 1, where mu = 0
        ({"omega0": 2.0, "chi0": 0.05, "abar": -0.05}, 8.5, 2),
        ({"omega0": 2.0, "chi0": 0.05, "abar": -0.05}, 8.95, 0),
    ])
    def test_level_shift_cutoff_below_the_largest_alpha_exits_two(
        self, tmp_path, capsys, protocol, cutoff, code
    ):
        # the level shift is defined below the cutoff only, and the largest
        # |alpha| of the run is known before it starts
        cfg = write_json(tmp_path / "c.json", {
            "experiment": "open",
            "protocol": protocol,
            "model": {"bath": {"cutoff": cutoff}},
            "numerics": {"lamb_shift": True},
        })
        assert run_cli(["open", "--config", cfg, "--out", tmp_path / "out"]) == code
        if code == 2:
            assert capsys.readouterr().err.startswith("config error: model.bath.cutoff: ")
            assert not (tmp_path / "out").exists()

    def test_open_static_phase_beyond_double_precision_exits_two(self, tmp_path, capsys):
        # ||H|| = 8.5 at the default static drive: 1.2e11 * 8.5 > 1e12 rad
        cfg = write_json(
            tmp_path / "c.json", {"experiment": "open", "numerics": {"t_final": 1.2e11}}
        )
        assert run_cli(["open", "--config", cfg, "--out", tmp_path / "out"]) == 2
        assert "numerics.t_final" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_open_driven_free_phase_beyond_the_magnus_cap_exits_two(
        self, tmp_path, capsys, monkeypatch
    ):
        # Omega ~ 17 for 1e4 time units is ~1.7e5 rad of free rotation: no
        # two Magnus levels of the lab-frame propagator fit in
        # MAGNUS_MAX_STEPS steps, so the run stops before any integration.
        # The interaction picture needs no free propagator and runs.
        solves = []
        real = open_quantum.mesolve
        monkeypatch.setattr(
            open_quantum, "mesolve", lambda *a, **k: solves.append(a) or real(*a, **k)
        )
        config = {"experiment": "open", "protocol": {"chi0": 1e-10},
                  "numerics": {"t_final": 1e4}}
        cfg = write_json(tmp_path / "c.json", config)
        assert run_cli(["open", "--config", cfg, "--out", tmp_path / "out"]) == 2
        err = capsys.readouterr().err
        assert "numerics.t_final" in err and f"within {linalg.MAGNUS_MAX_STEPS} steps" in err
        assert not (tmp_path / "out").exists() and solves == []
        config["numerics"]["picture"] = "interaction"
        cfg = write_json(tmp_path / "c.json", config)
        assert run_cli(["open", "--config", cfg, "--out", tmp_path / "out"]) == 0
        assert len(solves) == 1

    def test_parser_is_built_once(self, capsys):
        assert cli._parser() is cli._parser()
        outputs = []
        for _ in range(2):
            with pytest.raises(SystemExit) as exit_info:
                main(["--help"])
            assert exit_info.value.code == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1] and outputs[0].startswith("usage: liouvdyn")

    @pytest.mark.parametrize("acceleration", [1e-12, 1e-300])
    def test_single_with_a_tiny_acceleration_succeeds(self, tmp_path, acceleration):
        cfg = write_json(
            tmp_path / "c.json",
            {"experiment": "single", "protocol": {"acceleration": acceleration}},
        )
        assert run_cli(["single", "--model", "ho", "--config", cfg, "--out", tmp_path]) == 0

    def test_unwritable_output_location_exits_four(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("not a directory")
        cfg = write_json(
            tmp_path / "c.json",
            {
                "experiment": "geo",
                "model": {"kind": "tls"},
                "protocol": {"waypoints": [[0.1], [0.3]], "closed": True},
            },
        )
        assert run_cli(["geo", "--config", cfg, "--out", blocker / "out"]) == 4
        err = capsys.readouterr().err
        assert err.startswith("run failed: OSError: ")
        assert "Traceback" not in err

    @pytest.mark.parametrize("stem", ["", "geo\0run", "sub/geo"], ids=["empty", "nul", "separator"])
    def test_bad_output_stem_exits_two(self, tmp_path, capsys, stem):
        cfg = write_json(
            tmp_path / "c.json",
            {"experiment": "geo", "model": {"kind": "tls"}, "output": {"stem": stem}},
        )
        assert run_cli(["geo", "--config", cfg, "--out", tmp_path / "out"]) == 2
        assert "output.stem" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize(
        "experiment, sections",
        [
            ("sweep", lambda v: {"protocol": {"acceleration": v}}),
            ("single", lambda v: {"protocol": {"t_f": v}}),
            ("diagnose", lambda v: {"model": {"q0": v}}),
            ("open", lambda v: {"protocol": {"chi0": v}}),
            (
                "geo",
                lambda v: {
                    "model": {"kind": "tls"},
                    "protocol": {"waypoints": [[0.1], [v], [0.25]]},
                },
            ),
        ],
        ids=["sweep", "single", "diagnose", "open", "geo"],
    )
    def test_non_finite_numbers_exit_two(self, tmp_path, experiment, sections, value):
        # json writes and reads these as NaN, Infinity and -Infinity
        cfg = write_json(tmp_path / "c.json", {"experiment": experiment, **sections(value)})
        start = time.monotonic()
        assert run_cli([experiment, "--config", cfg, "--out", tmp_path / "out"]) == 2
        assert time.monotonic() - start < 5.0
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("experiment, section, key", [
        ("open", "numerics", "t_final"), ("single", "model", "mass"), ("sweep", "numerics", "points"),
    ])
    def test_integers_past_the_double_range_exit_two(self, tmp_path, capsys, experiment,
                                                     section, key):
        # each used to exit 4 with an OverflowError once the run converted it
        cfg = write_json(tmp_path / "c.json", {"experiment": experiment, section: {key: 10**400}})
        assert run_cli([experiment, "--config", cfg, "--out", tmp_path / "out"]) == 2
        assert f"{section}.{key}: " in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_the_largest_double_as_an_integer_is_a_number(self):
        cfg = resolve_config("single", {"experiment": "single",
                                       "model": {"mass": int(sys.float_info.max)}})
        assert cfg.model["mass"] == int(sys.float_info.max)
        with pytest.raises(ConfigInvalid, match="model.mass"):
            resolve_config("single", {"experiment": "single", "model": {"mass": 2**1024}})

    @pytest.mark.parametrize("value", [1.4e154, 1e300])
    @pytest.mark.parametrize("key", ["omega_start", "omega_target"])
    @pytest.mark.parametrize("experiment", ["sweep", "single", "diagnose"])
    def test_two_level_ramp_frequencies_past_the_squared_range_exit_two(
        self, tmp_path, capsys, experiment, key, value
    ):
        # the two-level ramp squares both; omega_start exited 4 with an
        # OverflowError, omega_target failed its points
        cfg = write_json(tmp_path / "c.json", {
            "experiment": experiment, "model": {"kind": "tls"}, "protocol": {key: value}})
        assert run_cli([experiment, "--config", cfg, "--out", tmp_path / "out"]) == 2
        assert f"protocol.{key}: must be at most 1.34078e+154" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_the_largest_squarable_ramp_frequency_is_a_frequency(self):
        top = math.sqrt(sys.float_info.max)
        for value, kind in ((top, "tls"), (math.nextafter(top, math.inf), "ho")):
            cfg = resolve_config("single", {"experiment": "single", "model": {"kind": kind},
                                            "protocol": {"omega_start": value}})
            assert cfg.protocol["omega_start"] == value
        with pytest.raises(ConfigInvalid, match="protocol.omega_start"):
            resolve_config("single", {"experiment": "single", "model": {"kind": "tls"},
                                      "protocol": {"omega_start": math.nextafter(top, math.inf)}})

    @pytest.mark.parametrize("experiment", ["sweep", "single", "diagnose", "open", "geo"])
    def test_threads_outside_sweeps_exits_two(self, tmp_path, experiment):
        # no experiment takes a thread count: the key is unknown, the flag absent
        cfg = write_json(
            tmp_path / "c.json", {"experiment": experiment, "numerics": {"threads": 7}}
        )
        assert run_cli([experiment, "--config", cfg]) == 2
        with pytest.raises(SystemExit) as exc:
            run_cli([experiment, "--threads", 2])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "path, payload",
        [
            ("numerics", {"experiment": "sweep", "numerics": 3}),
            ("model.bath", {"experiment": "open", "model": {"bath": 5}}),
            ("model", {"experiment": "sweep", "model": 5}),
        ],
        ids=["numerics", "model.bath", "model"],
    )
    def test_non_object_section_exits_two(self, tmp_path, capsys, path, payload):
        cfg = write_json(tmp_path / "c.json", payload)
        assert run_cli([payload["experiment"], "--config", cfg]) == 2
        assert f"{path}: must be an object" in capsys.readouterr().err


class TestGeoCommand:
    def test_retraced_circuit_gives_zero_phases(self, tmp_path):
        cfg = write_json(
            tmp_path / "c.json",
            {
                "experiment": "geo",
                "model": {"kind": "tls"},
                "protocol": {"waypoints": [[0.1], [0.4], [0.1]], "closed": True},
            },
        )
        out = tmp_path / "out"
        assert run_cli(["geo", "--config", cfg, "--out", out]) == 0
        header, rows = read_csv(out / "geo.csv")
        assert header == ["mode", "phase_line"]
        assert len(rows) == 4
        for row in rows:
            assert abs(row[1]) < 1e-10

    def test_surface_method_adds_column(self, tmp_path):
        cfg = write_json(
            tmp_path / "c.json",
            {
                "experiment": "geo",
                "model": {"kind": "two-spin-local"},
                "protocol": {
                    "waypoints": [
                        [0.25, 0.25],
                        [0.35, 0.25],
                        [0.35, 0.35],
                        [0.25, 0.35],
                    ],
                    "closed": True,
                },
                "numerics": {"method": "both", "modes": [0, 3]},
            },
        )
        out = tmp_path / "out"
        assert run_cli(["geo", "--config", cfg, "--out", out]) == 0
        header, rows = read_csv(out / "geo.csv")
        assert header == ["mode", "phase_line", "phase_surface"]
        assert [row[0] for row in rows] == [0.0, 3.0]
        for row in rows:
            assert abs(row[1] - row[2]) < 1e-6

    def test_points_sampled_once_per_level_and_form(self, tmp_path, monkeypatch):
        # every mode comes from one refinement per form, so sampling the
        # circuit does not scale with the number of modes written
        calls = {}
        points, refine = geometric.ParameterCircuit.points, geometric._refine

        def counted_points(circuit, n=None, *, odd=False):
            calls["odd" if odd else "points"] += 1
            return points(circuit, n, odd=odd)

        def counted_refine(evaluate, n0):
            calls["refines"] += 1

            def level(n):
                calls["levels"] += 1
                return evaluate(n)

            return refine(level, n0)

        monkeypatch.setattr(geometric.ParameterCircuit, "points", counted_points)
        monkeypatch.setattr(geometric, "_refine", counted_refine)
        counts = []
        for modes in ("all", [0]):
            calls.update(points=0, odd=0, refines=0, levels=0)
            cfg = write_json(
                tmp_path / "c.json",
                {"experiment": "geo", "numerics": {"method": "both", "modes": modes}},
            )
            assert run_cli(["geo", "--config", cfg, "--out", tmp_path / "out"]) == 0
            counts.append(dict(calls))
        assert counts[0] == counts[1]
        assert counts[0]["refines"] == 2
        # the surface form samples each level whole; the line form samples
        # its first two levels in one call and each later one at its new
        # odd nodes alone
        assert counts[0]["points"] + counts[0]["odd"] == counts[0]["levels"] - 1

    def test_mode_subset_rows_match_all_modes_run(self, tmp_path):
        lines = {}
        for name, modes in (("all", "all"), ("subset", [0, 4])):
            cfg = write_json(
                tmp_path / f"{name}.json",
                {"experiment": "geo", "numerics": {"method": "both", "modes": modes}},
            )
            assert run_cli(["geo", "--config", cfg, "--out", tmp_path / name]) == 0
            lines[name] = (tmp_path / name / "geo.csv").read_text().splitlines()
        assert len(lines["all"]) == 10
        assert lines["subset"] == [lines["all"][0], lines["all"][1], lines["all"][5]]

    def test_failed_form_flags_every_row(self, tmp_path):
        # the loop crosses the oscillator's exceptional point mu = 2, where
        # the line walk meets a defective generator; a one-parameter
        # circuit spans no area, so the surface phases stay zero
        cfg = write_json(
            tmp_path / "c.json",
            {
                "experiment": "geo",
                "model": {"kind": "ho"},
                "protocol": {"waypoints": [[1.9], [2.1], [1.9]]},
                "numerics": {"method": "both"},
            },
        )
        out = tmp_path / "out"
        assert run_cli(["geo", "--config", cfg, "--out", out]) == 4
        header, rows = read_csv(out / "geo.csv")
        assert header == ["mode", "phase_line", "phase_surface"]
        assert [row[0] for row in rows] == list(range(6))
        for row in rows:
            assert math.isnan(row[1])
            assert row[2] == 0.0
        manifest = json.loads((out / "geo_manifest.json").read_text())
        assert manifest["status"] == "failed"
        assert len(manifest["point_errors"]) == 6
        assert all(e.startswith("NotDiagonalizable") for e in manifest["point_errors"])

    def test_mode_out_of_range_exits_two(self, tmp_path):
        cfg = write_json(
            tmp_path / "c.json",
            {
                "experiment": "geo",
                "model": {"kind": "tls"},
                "protocol": {"waypoints": [[0.1], [0.3]], "closed": True},
                "numerics": {"modes": [11]},
            },
        )
        assert run_cli(["geo", "--config", cfg, "--out", tmp_path / "out"]) == 2


@pytest.fixture(scope="module")
def sweep_dir(tmp_path_factory):
    # tiny three-point sweep shared by the content checks below
    root = tmp_path_factory.mktemp("sweep")
    cfg = write_json(
        root / "c.json",
        {
            "experiment": "sweep",
            "numerics": {"points": 3, "t_min": 0.1, "t_max": 0.4, "samples": 17},
        },
    )
    out = root / "out"
    assert run_cli(["sweep", "--config", cfg, "--out", out]) == 0
    return out


class TestSweepCommand:
    def test_csv_has_contract_columns(self, sweep_dir):
        header, rows = read_csv(sweep_dir / "sweep.csv")
        assert header == [
            "t_f",
            "F_inertial",
            "F_adiabatic",
            "neglog1mF_inertial",
            "mu_max",
            "upsilon_max",
        ]
        assert len(rows) == 3

    def test_rows_are_internally_consistent(self, sweep_dir):
        _, rows = read_csv(sweep_dir / "sweep.csv")
        for t_f, f_in, f_ad, neglog, mu, ups in rows:
            assert 0.0 < f_ad <= f_in <= 1.0
            # neglog comes from the cancellation-free 1 - F path, so
            # recomputing it from the rounded F only agrees to ~1e-8
            assert neglog == pytest.approx(-math.log10(1.0 - f_in), abs=1e-6)
            assert mu > 0.0 and ups > 0.0

    def test_manifest_records_provenance(self, sweep_dir):
        manifest = json.loads((sweep_dir / "sweep_manifest.json").read_text())
        assert manifest["tool_version"] == __version__
        assert manifest["data_file"] == "sweep.csv"
        assert manifest["status"] == "ok"
        assert manifest["point_errors"] == [None, None, None]
        assert set(manifest["columns"]) == {
            "t_f",
            "F_inertial",
            "F_adiabatic",
            "neglog1mF_inertial",
            "mu_max",
            "upsilon_max",
        }
        cfg = RunConfig(**manifest["config"])
        assert cfg.sha256() == manifest["config_sha256"]

    def test_manifest_has_no_timestamps(self, sweep_dir):
        manifest = json.loads((sweep_dir / "sweep_manifest.json").read_text())
        for key in manifest:
            assert "time" not in key and "date" not in key
        # no wall-clock leakage anywhere in the payload
        assert "2026" not in (sweep_dir / "sweep_manifest.json").read_text()


class TestSweepFlags:
    def run_partial(self, tmp_path, numerics):
        cfg = write_json(tmp_path / "c.json", {"experiment": "sweep", "numerics": numerics})
        assert run_cli(["sweep", "--config", cfg, "--out", tmp_path]) == 3
        manifest = json.loads((tmp_path / "sweep_manifest.json").read_text())
        assert manifest["status"] == "partial"
        _, rows = read_csv(tmp_path / "sweep.csv")
        return manifest["point_errors"], rows

    def test_oscillator_beyond_exceptional_point_is_flagged(self, tmp_path):
        # mu_max is 2.5 at t_f = 0.02, beyond the |mu| < 2 domain
        errors, rows = self.run_partial(
            tmp_path, {"t_min": 0.02, "t_max": 0.05, "points": 2}
        )
        assert errors[0].startswith("DomainExceeded") and errors[1] is None
        assert all(math.isnan(x) for x in rows[0][1:])

    def test_nan_column_is_flagged(self, tmp_path, monkeypatch):
        real = diagnostics.upsilon_maxima

        def nan_upsilon_below(models, t_fs, samples=65):
            return np.where(np.asarray(t_fs) < 0.1, math.nan, real(models, t_fs, samples))

        monkeypatch.setattr(diagnostics, "upsilon_maxima", nan_upsilon_below)
        errors, _ = self.run_partial(tmp_path, {"t_min": 0.05, "t_max": 0.5, "points": 2})
        assert errors[0].startswith("FloatingPointError") and "max_upsilon" in errors[0]
        assert errors[1] is None


class TestDeterminism:
    def test_reruns_are_byte_identical(self, tmp_path):
        # same config, same out dir (the dir is part of the config hash)
        cfg = write_json(
            tmp_path / "c.json",
            {
                "experiment": "sweep",
                "numerics": {"points": 3, "t_min": 0.1, "t_max": 0.4, "samples": 17},
            },
        )
        out = tmp_path / "out"
        assert run_cli(["sweep", "--config", cfg, "--out", out]) == 0
        first = {
            name: (out / name).read_bytes()
            for name in ("sweep.csv", "sweep_manifest.json")
        }
        assert run_cli(["sweep", "--config", cfg, "--out", out]) == 0
        for name, payload in first.items():
            assert (out / name).read_bytes() == payload

    def test_csv_keeps_full_precision(self, tmp_path):
        cfg = write_json(
            tmp_path / "c.json",
            {
                "experiment": "sweep",
                "output": {"format": "json"},
                "numerics": {"points": 2, "t_min": 0.1, "t_max": 0.4, "samples": 17},
            },
        )
        out_json = tmp_path / "j"
        assert run_cli(["sweep", "--config", cfg, "--out", out_json]) == 0
        cfg_csv = write_json(
            tmp_path / "c2.json",
            {
                "experiment": "sweep",
                "numerics": {"points": 2, "t_min": 0.1, "t_max": 0.4, "samples": 17},
            },
        )
        out_csv = tmp_path / "c"
        assert run_cli(["sweep", "--config", cfg_csv, "--out", out_csv]) == 0
        payload = json.loads((out_json / "sweep.json").read_text())
        _, rows = read_csv(out_csv / "sweep.csv")
        # %.17g survives a float round trip bit for bit
        assert np.array_equal(np.array(payload["rows"]), np.array(rows))

    def test_csv_cell_text(self, tmp_path):
        # ints (numpy's too) and bools print as digits, floats as %.17g
        cells = {
            "int": (7, "7"),
            "numpy_int": (np.int64(-12), "-12"),
            "true": (True, "1"),
            "false": (False, "0"),
            "negative_zero": (-0.0, "-0"),
            "huge": (1e300, "1.0000000000000001e+300"),
            "inf": (math.inf, "inf"),
            "minus_inf": (-math.inf, "-inf"),
            "nan": (math.nan, "nan"),
            "tenth": (np.float64(0.1), "0.10000000000000001"),
        }
        cfg = resolve_config("sweep", out_dir=str(tmp_path))
        row = tuple(value for value, _ in cells.values())
        data_path, _, _ = cli.write_outputs(cfg, tuple(cells), [row, row], {}, [None, None])
        text = ",".join(want for _, want in cells.values())
        assert data_path.read_text() == ",".join(cells) + "\n" + text + "\n" + text + "\n"

    def test_json_cells(self, tmp_path):
        # ints (numpy's too) stay ints, bools (numpy's too) become floats,
        # and non-finite floats null
        cells = [np.int64(3), 7, True, np.bool_(True), False, np.float64(0.5), math.nan]
        values = [cli._json_cell(x) for x in cells]
        assert values == [3, 7, 1.0, 1.0, 0.0, 0.5, None]
        assert [type(v) for v in values[:-1]] == [int, int, float, float, float, float]
        # a geo run writes its mode column as JSON integers
        out = tmp_path / "out"
        assert run_cli(["geo", "--model", "two-spin-local", "--format", "json", "--out", out]) == 0
        text = (out / "geo.json").read_text()
        modes = [row[0] for row in json.loads(text)["rows"]]
        assert modes == list(range(len(modes))) and all(type(m) is int for m in modes)


class TestSingleCommand:
    def test_one_row_with_sweep_columns(self, tmp_path):
        cfg = write_json(
            tmp_path / "c.json",
            {
                "experiment": "single",
                "protocol": {"t_f": 0.5},
                "numerics": {"samples": 17},
            },
        )
        out = tmp_path / "out"
        assert run_cli(["single", "--config", cfg, "--out", out]) == 0
        header, rows = read_csv(out / "single.csv")
        assert header[0] == "t_f"
        assert len(rows) == 1
        assert rows[0][0] == 0.5


class TestExactRoute:
    """The exact reference each model's default sweep and single use."""

    @pytest.mark.parametrize("experiment", ["sweep", "single"])
    @pytest.mark.parametrize("kind, per_point", [("ho", 0), ("tls", 0)])
    def test_ode_calls_per_point(self, tmp_path, monkeypatch, experiment, kind, per_point):
        # ho takes its closed form and tls its Magnus product: no point
        # calls the generic ODE route or any scipy ODE solve
        import scipy.integrate

        calls = []
        real_exact, real_solve = engine.propagate_exact, scipy.integrate.solve_ivp

        def counted_exact(*args, **kwargs):
            calls.append(args[2])
            return real_exact(*args, **kwargs)

        def counted_solve(*args, **kwargs):
            calls.append(args[1][1])
            return real_solve(*args, **kwargs)

        monkeypatch.setattr(engine, "propagate_exact", counted_exact)
        monkeypatch.setattr(scipy.integrate, "solve_ivp", counted_solve)
        cfg = write_json(tmp_path / "c.json", {"experiment": experiment, "model": {"kind": kind}})
        assert run_cli([experiment, "--config", cfg, "--out", tmp_path]) == 0
        _, rows = read_csv(tmp_path / f"{experiment}.csv")
        assert calls == [row[0] for row in rows] * per_point

    @pytest.mark.parametrize("lamb_shift", [False, True])
    def test_open_solves_no_ode(self, tmp_path, monkeypatch, lamb_shift):
        # the dissipator is solved in closed form, the free propagator by
        # its closed form or a Magnus product
        import scipy.integrate

        calls = []
        real_solve = scipy.integrate.solve_ivp

        def counted_solve(*args, **kwargs):
            calls.append(args[1][1])
            return real_solve(*args, **kwargs)

        monkeypatch.setattr(scipy.integrate, "solve_ivp", counted_solve)
        driven = {"protocol": {"chi0": 0.008, "abar": 0.002}, "numerics": {"t_final": 0.5}}
        for config in ({"numerics": {}}, driven):  # the static default, and a driven run
            config["numerics"]["lamb_shift"] = lamb_shift
            cfg = write_json(tmp_path / "c.json", {"experiment": "open", **config})
            assert run_cli(["open", "--config", cfg, "--out", tmp_path]) == 0
        assert calls == []


class TestHermitianRoute:
    """The two-level and two-spin generators are i [a]x bit for bit, so
    their frames come from the closed so(3) route.  A coupling that lost
    exact antisymmetry would send them back through eigh or the general
    eig, and lose its speed without failing any other test."""

    @pytest.mark.parametrize(
        "experiment, kind",
        [("single", "tls"), ("geo", "two-spin-local"), ("geo", "two-spin-nonlocal")],
    )
    def test_default_run_takes_no_general_eigensolve(self, tmp_path, monkeypatch, experiment, kind):
        # single is one point of the sweep, and geo's default method is line
        general, hermitian, axial = [], [], []
        real_eig, real_eigh, real_so3 = np.linalg.eig, np.linalg.eigh, linalg._so3_eigensystem
        monkeypatch.setattr(np.linalg, "eig", lambda M: general.append(len(M)) or real_eig(M))
        monkeypatch.setattr(
            np.linalg, "eigh", lambda M: hermitian.append(len(M)) or real_eigh(M)
        )
        monkeypatch.setattr(
            linalg, "_so3_eigensystem", lambda B: axial.append(len(B)) or real_so3(B)
        )
        cfg = write_json(tmp_path / "c.json", {"experiment": experiment, "model": {"kind": kind}})
        assert run_cli([experiment, "--config", cfg, "--out", tmp_path]) == 0
        assert general == [] and hermitian == [] and axial


class TestClosedFormRoute:
    """The oscillator's non-Hermitian blocks of 3 and 2 modes take the
    closed form, whose guards certify every node of a default run.  A
    certification that always failed would send every node back through
    eig, and lose its speed without failing any other test."""

    @pytest.mark.parametrize("experiment", ["diagnose", "single"])
    def test_default_run_takes_no_general_eigensolve(self, tmp_path, monkeypatch, experiment):
        general, closed = [], []
        real_eig, real_closed = np.linalg.eig, linalg._closed_eigensystem
        monkeypatch.setattr(np.linalg, "eig", lambda M: general.append(len(M)) or real_eig(M))
        monkeypatch.setattr(
            linalg, "_closed_eigensystem", lambda B: closed.append(B.shape) or real_closed(B)
        )
        cfg = write_json(tmp_path / "c.json", {"experiment": experiment, "model": {"kind": "ho"}})
        assert run_cli([experiment, "--config", cfg, "--out", tmp_path]) == 0
        assert general == []
        assert {shape[1:] for shape in closed} == {(3, 3), (2, 2)}


class TestDiagnoseCommand:
    def test_ho_gets_closed_form_column(self, tmp_path):
        cfg = write_json(
            tmp_path / "c.json",
            {
                "experiment": "diagnose",
                "protocol": {"t_f": 0.5},
                "numerics": {"samples": 9},
            },
        )
        out = tmp_path / "out"
        assert run_cli(["diagnose", "--config", cfg, "--out", out]) == 0
        header, rows = read_csv(out / "diagnose.csv")
        assert header == ["t", "mu", "upsilon", "upsilon_closed"]
        assert len(rows) == 9
        assert rows[0][0] == 0.0
        assert rows[-1][0] == 0.5

    def test_tls_has_no_closed_form_column(self, tmp_path):
        cfg = write_json(
            tmp_path / "c.json",
            {
                "experiment": "diagnose",
                "model": {"kind": "tls"},
                "protocol": {"t_f": 0.5},
                "numerics": {"samples": 5},
            },
        )
        out = tmp_path / "out"
        assert run_cli(["diagnose", "--config", cfg, "--out", out]) == 0
        header, _ = read_csv(out / "diagnose.csv")
        assert header == ["t", "mu", "upsilon"]


def _count_stacks(monkeypatch):
    """Record the node count of every eigenframes stack diagnostics builds."""
    sizes = []
    real = diagnostics.eigenframes

    def counted(B, **kw):
        sizes.append(len(B))
        return real(B, **kw)

    monkeypatch.setattr(diagnostics, "eigenframes", counted)
    return sizes


# guard stages on the path of each diagnose column: the protocol's domain
# check for mu; for upsilon that check, the non-finite, gap, inverse and
# defect guards of eigenframes and the pair-sum gap; for the closed form
# the domain check, |mu| >= 2 and the vanishing bracket
_COLUMN_STAGES = {"mu": 1, "upsilon": 6, "upsilon_closed": 3}


def _count_columns(monkeypatch):
    """Record the argument shape of every stacked call of each diagnose
    column, and fail any one-point evaluation of upsilon."""
    calls = {name: [] for name in _COLUMN_STAGES}

    def counted(name, real):
        def call(*args):
            calls[name].append(np.shape(args[-1]))
            return real(*args)

        return call

    monkeypatch.setattr(diagnostics, "adiabatic_parameter",
                        counted("mu", diagnostics.adiabatic_parameter))
    monkeypatch.setattr(diagnostics, "inertial_parameters",
                        counted("upsilon", diagnostics.inertial_parameters))
    monkeypatch.setattr(models.HOProtocol, "inertial_parameter_closed", counted(
        "upsilon_closed", models.HOProtocol.inertial_parameter_closed))

    def no_rows(fact, t):
        raise AssertionError("per-row evaluation of upsilon")

    monkeypatch.setattr(diagnostics, "inertial_parameter_at", no_rows)
    return calls


def _bits(rows):
    # repr tells -0.0 from 0.0 and keeps every digit, so equal lists mean
    # equal values with NaN in the same places
    return [[repr(float(x)) for x in row] for row in rows]


@st.composite
def diagnose_ramps(draw):
    """(kind, t_f, acceleration, samples) of a diagnose ramp from 20 to 10.

    Half the oscillator draws put one sample on the exceptional point
    |mu| = 2, where the generator is defective: mu(t) = -0.05 / t_f +
    a (t - t_f / 2) on this ramp, solved for a at that sample.
    """
    kind = draw(st.sampled_from(["ho", "tls"]))
    t_f = 10.0 ** draw(st.floats(-2.3, 0.6))
    samples = draw(st.integers(3, 40))
    if kind == "ho" and draw(st.booleans()):
        k = draw(st.integers(0, samples - 1).filter(lambda k: 2 * k != samples - 1))
        mu = draw(st.sampled_from([-2.0, 2.0]))
        acceleration = (mu + 0.05 / t_f) / (t_f * k / (samples - 1) - 0.5 * t_f)
    else:
        acceleration = draw(st.floats(-300.0, 300.0))
    return kind, t_f, acceleration, samples


class TestDiagnoseStack:
    """The upsilon column as one eigenframes stack per slice of samples."""

    @staticmethod
    def resolve(kind, protocol=None, numerics=None):
        file_config = {"experiment": "diagnose", "model": {"kind": kind}}
        if protocol:
            file_config["protocol"] = protocol
        if numerics:
            file_config["numerics"] = numerics
        return resolve_config("diagnose", file_config)

    @pytest.mark.parametrize("kind, mixing", [("ho", 2), ("tls", 1)])
    def test_default_run_diagonalizes_each_block_once(
        self, tmp_path, monkeypatch, kind, mixing
    ):
        # one eigenframes stack: it diagonalizes each closed block once,
        # `mixing` of them with more than one mode
        sizes = _count_stacks(monkeypatch)
        blocks = []
        real = linalg._diagonalize

        def recorded(B):
            blocks.append(B.shape)
            return real(B)

        monkeypatch.setattr(linalg, "_diagonalize", recorded)
        # and one stacked call per column, with no per-row evaluation
        calls = _count_columns(monkeypatch)
        assert run_cli(["diagnose", "--model", kind, "--out", tmp_path]) == 0
        columns = ("mu", "upsilon") + (("upsilon_closed",) if kind == "ho" else ())
        assert calls == {name: [(129,)] if name in columns else [] for name in calls}
        assert sizes == [129]
        assert all(n == 129 for n, _, _ in blocks)
        assert sum(m > 1 for _, m, _ in blocks) == mixing

    @pytest.mark.parametrize("experiment", ["diagnose", "sweep"])
    def test_closed_form_is_one_array_call(self, tmp_path, monkeypatch, experiment):
        # the diagnose column, and each sweep point's maximum, evaluate the
        # oscillator's closed form once over all their samples
        shapes = []
        real = models.HOProtocol.inertial_parameter_closed

        def recorded(protocol, t):
            shapes.append(np.shape(t))
            return real(protocol, t)

        monkeypatch.setattr(models.HOProtocol, "inertial_parameter_closed", recorded)
        assert run_cli([experiment, "--model", "ho", "--out", tmp_path]) == 0
        assert shapes == ([(129,)] if experiment == "diagnose" else [(65,)] * 20)

    def test_stack_is_bounded_and_matches_rows(self, monkeypatch):
        cfg = self.resolve("ho", numerics={"samples": 3000})
        sizes = _count_stacks(monkeypatch)
        _, rows, _, errors = cli._run_diagnose(cfg)
        assert sizes and max(sizes) <= 1024
        assert sum(sizes) == 3000
        model = cli._ramp_model(cfg, cfg.protocol["t_f"])
        expected, expected_errors = per_row_diagnose(model, np.linspace(0.0, 1.0, 3000))
        assert _bits(rows) == _bits(expected)
        assert errors == expected_errors

    @pytest.mark.parametrize(
        "protocol, defective",
        [({"acceleration": -100.0, "t_f": 0.025}, 1), ({"acceleration": -200.0, "t_f": 0.04}, 2)],
    )
    def test_ramp_through_the_exceptional_point_keeps_row_flags(
        self, tmp_path, monkeypatch, protocol, defective
    ):
        # |mu| crosses 2: the stack raises naming the defective samples,
        # which alone are flagged, and the rest of the column runs again
        calls = _count_columns(monkeypatch)
        path = write_json(tmp_path / "c.json", {"experiment": "diagnose", "protocol": protocol})
        assert run_cli(["diagnose", "--config", path, "--out", tmp_path]) == 3
        manifest = json.loads((tmp_path / "diagnose_manifest.json").read_text())
        kinds = [(e or "").split(":")[0] for e in manifest["point_errors"]]
        assert kinds.count("NotDiagonalizable") == defective
        assert kinds.count("SingularDenominator") == 64
        # at most one round per guard stage, each over a stack of samples
        for name, shapes in calls.items():
            assert 1 <= len(shapes) <= _COLUMN_STAGES[name] + 1, (name, shapes)
            assert all(len(shape) == 1 and shape[0] > 1 for shape in shapes), (name, shapes)

    @settings(max_examples=60)
    @given(diagnose_ramps())
    @example(("ho", 0.025, -100.0, 129))
    @example(("ho", 0.04, -200.0, 129))
    def test_rows_match_the_per_row_route(self, ramp):
        kind, t_f, acceleration, samples = ramp
        cfg = self.resolve(
            kind,
            protocol={"t_f": t_f, "acceleration": acceleration},
            numerics={"samples": samples},
        )
        try:
            model = cli._ramp_model(cfg, t_f)
        except (LiouvdynError, ValueError, ArithmeticError):
            assume(False)  # the run fails as a whole before any row
        _, rows, _, errors = cli._run_diagnose(cfg)
        expected, expected_errors = per_row_diagnose(model, np.linspace(0.0, t_f, samples))
        assert _bits(rows) == _bits(expected)
        assert errors == expected_errors


# a dotted name that starts with a module of the package
_PACKAGE_NAME = re.compile(
    r"\b(%s)((?:\.\w+)+)" % "|".join(m.name for m in pkgutil.iter_modules(liouvdyn.__path__))
)


@pytest.mark.parametrize("experiment", EXPERIMENTS)
def test_manifest_sources_name_code_that_exists(tmp_path, experiment):
    # each dotted name of the package in a default run's column provenance
    # resolves by import and getattr, or is a key path of the config
    assert run_cli([experiment, "--out", tmp_path]) == 0
    manifest = json.loads((tmp_path / f"{experiment}_manifest.json").read_text())
    names = [m.groups() for source in manifest["columns"].values()
             for m in _PACKAGE_NAME.finditer(source)]
    assert names
    for module, path in names:
        parts = path.split(".")[1:]
        if module == "config" and parts[0] in manifest["config"]:
            functools.reduce(dict.__getitem__, parts, manifest["config"])
        else:
            functools.reduce(getattr, parts, importlib.import_module(f"liouvdyn.{module}"))


def _last_line_of(script, *args) -> str:
    """The last line a fresh interpreter prints running ``script`` with
    ``args``, which must exit 0.  A fresh interpreter, so no earlier test
    has imported a module already."""
    src = Path(cli.__file__).resolve().parents[1]
    done = subprocess.run(
        [sys.executable, "-c", script, *args],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()[-1]


# runs the CLI argument lists in sys.argv[1], each of which must exit 0
_CLI_RUNS = (
    "import json, sys\n"
    "import liouvdyn.cli\n"
    "for argv in json.loads(sys.argv[1]):\n"
    "    assert liouvdyn.cli.main(argv) == 0, argv\n"
)


def _scipy_modules_after(*runs) -> str:
    """The scipy modules a fresh interpreter holds after the given CLI runs
    (argument lists, each of which must exit 0), as a printed sorted list."""
    return _last_line_of(
        _CLI_RUNS
        + "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n",
        json.dumps(runs),
    )


def test_geo_and_diagnose_leave_scipy_unimported(tmp_path):
    # a driven open run with the level shift needs no scipy routine either
    cfg = write_json(tmp_path / "open.json", {
        "experiment": "open",
        "protocol": {"chi0": 0.008, "abar": 0.002},
        "numerics": {"t_final": 0.5, "lamb_shift": True},
    })
    out = str(tmp_path)
    assert _scipy_modules_after(
        ["diagnose", "--out", out], ["geo", "--out", out], ["open", "--config", str(cfg), "--out", out]
    ) == "[]"


def test_sweep_and_single_leave_scipy_unimported(tmp_path):
    # the oscillator's exact state is closed form, the two-level one a
    # Magnus product, the inertial phases are Clenshaw-Curtis sums and the
    # two-level scaled time is a Carlson R_F, so neither model's sweep or
    # single run needs scipy
    out = str(tmp_path)
    assert _scipy_modules_after(*(
        [experiment, "--model", kind, "--out", out]
        for experiment in ("sweep", "single")
        for kind in ("ho", "tls")
    )) == "[]"


def test_import_leaves_fft_and_polynomial_unloaded():
    # numpy loads both lazily; only the level-phase quadrature needs them.
    # The star import loads every module the package exports from
    script = (
        "import sys\n"
        "from liouvdyn import *\n"
        "print(sorted(m for m in ('numpy.fft', 'numpy.polynomial') if m in sys.modules))\n"
    )
    assert _last_line_of(script) == "[]"


def _package_modules(script: str, *args) -> set:
    """The liouvdyn modules a fresh interpreter holds after ``script``."""
    return set(json.loads(_last_line_of(
        script + "import json, sys\n"
        "print(json.dumps([m for m in sys.modules if m.split('.')[0] == 'liouvdyn']))\n",
        *args,
    )))


def test_import_and_config_load_only_config_and_errors():
    # what a run needs before it reads its config: the package exports
    # lazily, and config depends on errors alone
    script = (
        "import liouvdyn\n"
        "from liouvdyn.config import _MODEL_KINDS, resolve_config\n"
        "for experiment, kinds in _MODEL_KINDS.items():\n"
        "    for kind in kinds:\n"
        "        resolve_config(experiment, model_kind=kind)\n"
    )
    assert _package_modules(script) == {"liouvdyn", "liouvdyn.config", "liouvdyn.errors"}
    # nor does either import numpy
    assert _last_line_of(script + "import sys\nprint('numpy' in sys.modules)\n") == "False"


# runs the CLI argument list in sys.argv[1], which must exit with sys.argv[2],
# and prints whether numpy was loaded
_CLI_EXIT = (
    "import contextlib, io, json, sys\n"
    "import liouvdyn.cli\n"
    "with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
    "    try:\n"
    "        code = liouvdyn.cli.main(json.loads(sys.argv[1]))\n"
    "    except SystemExit as exc:\n"
    "        code = exc.code\n"
    "assert code == int(sys.argv[2]), code\n"
    "print('numpy' in sys.modules)\n"
)


@pytest.mark.parametrize("argv, code", [
    (["--version"], 0),
    (["--help"], 0),
    (["sweep", "--threads", "2"], 2),
    (["open", "--model", "ho"], 2),
    (["open", "--config", "{config}"], 2),
], ids=["version", "help", "argparse-error", "flag-config-error", "file-config-error"])
def test_runs_that_exit_before_computing_leave_numpy_unloaded(tmp_path, argv, code):
    cfg = write_json(tmp_path / "c.json", {"experiment": "open", "numerics": {"t_final": 10**400}})
    argv = [a.format(config=cfg) for a in argv]
    assert _last_line_of(_CLI_EXIT, json.dumps(argv), str(code)) == "False"


# the modules each experiment imports for itself, and those it leaves alone
_OWN_MODULES = {"sweep": {"diagnostics"}, "single": {"diagnostics"},
                "diagnose": {"diagnostics"}, "open": {"open_quantum"}, "geo": {"geometric"}}


@pytest.mark.parametrize("experiment", EXPERIMENTS)
def test_each_experiment_loads_only_its_own_modules(tmp_path, experiment):
    loaded = _package_modules(_CLI_RUNS, json.dumps([[experiment, "--out", str(tmp_path)]]))
    own = {f"liouvdyn.{m}" for m in _OWN_MODULES[experiment]}
    others = {f"liouvdyn.{m}" for m in set().union(*_OWN_MODULES.values())} - own
    assert own <= loaded and not loaded & others, sorted(loaded)


# the names ``liouvdyn`` exported when every module was imported eagerly
_EXPORTED = [
    "Alignment", "AmbiguousMatching", "BathSpec", "BlochState", "ConfigInvalid",
    "DegenerateSpectrum", "DomainExceeded", "EigenFrame", "GaussianState",
    "GeneratorFactorization", "GeneratorFamily", "HOModel", "HOProtocol", "InertialSolution",
    "IntegratorFailure", "LiouvdynError", "LiouvilleVector", "MasterEquationSpec",
    "NotConverged", "NotDiagonalizable", "ParameterCircuit", "PositivityViolation",
    "RunConfig", "SingularDenominator", "SweepResult", "TLSModel", "TLSProtocol",
    "UnphysicalState", "UnsupportedDimension", "adiabatic_parameter", "bi_eigendecompose",
    "bose_occupation", "build_master_equation", "coefficients", "decay_rate", "fidelity",
    "fidelity_sweep", "geometric_phase_line", "geometric_phase_surface", "ho_family",
    "ho_generator", "ho_inertial_parameter_closed", "inertial_parameter_at",
    "inertial_parameters", "initial_vector", "inverse_scaled_time", "lamb_shift",
    "line_phases", "liouville_curvature", "load_config_file", "log_time_grid",
    "max_mu_along", "max_parameters_along", "mesolve", "one_minus_fidelity",
    "propagate_adiabatic", "propagate_adiabatic_batch", "propagate_constant_chi",
    "propagate_exact", "propagate_inertial", "propagate_inertial_batch", "reconstruct_state",
    "resolve_config", "surface_phases", "tls_family", "tls_generator",
    "tls_generator_embedded", "track_continuity", "trajectory_rows", "two_spin_generators",
    "two_spin_local_family", "two_spin_nonlocal_family", "upsilon_maxima",
]


class TestLazyExports:
    def test_every_name_is_its_defining_object(self):
        assert sorted(liouvdyn.__all__) == _EXPORTED
        for name in _EXPORTED:
            value = getattr(liouvdyn, name)
            home = importlib.import_module(f".{liouvdyn._EXPORTS[name]}", "liouvdyn")
            assert value is getattr(home, name) and value.__module__ == home.__name__, name

    def test_star_import_and_dir_list_every_name(self):
        namespace = {}
        exec("from liouvdyn import *", namespace)
        assert sorted(set(namespace) - {"__builtins__"}) == _EXPORTED
        assert set(_EXPORTED) | {"__version__", "models", "open_quantum"} <= set(dir(liouvdyn))

    def test_a_submodule_attribute_loads_that_module(self):
        # as when the package imported every module: liouvdyn.geometric works
        # after a bare ``import liouvdyn``
        loaded = _package_modules("import liouvdyn\nliouvdyn.geometric.tls_family\n")
        assert "liouvdyn.geometric" in loaded and "liouvdyn.open_quantum" not in loaded

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no attribute 'propagate'"):
            liouvdyn.propagate
        assert not hasattr(liouvdyn, "cli_main")


def test_everything_but_the_exact_reference_runs_with_scipy_refused(tmp_path):
    # scipy is the optional ``reference`` extra: an interpreter whose import
    # system refuses it runs every experiment and model kind and inverts the
    # scaled time, and propagate_exact names the extra it needs
    refuse = (
        "import importlib.abc, sys\n"
        "class Refuse(importlib.abc.MetaPathFinder):\n"
        "    def find_spec(self, name, path=None, target=None):\n"
        "        if name == 'scipy' or name.startswith('scipy.'):\n"
        "            raise ImportError(f'{name} is refused')\n"
        "sys.meta_path.insert(0, Refuse())\n"
    )
    probe = (
        "import math\n"
        "from liouvdyn import engine, models\n"
        "for p in (models.HOProtocol(20.0, -0.04, -5e-3),\n"
        "          models.TLSProtocol(8.0, math.sqrt(336.0), -0.03, 5e-3)):\n"
        "    assert abs(engine.inverse_scaled_time(p, p.theta(0.5)) - 0.5) < 1e-14\n"
        "model = models.HOModel(protocol=models.HOProtocol(20.0, -0.04, -5e-3))\n"
        "try:\n"
        "    engine.propagate_exact(model.factorization(), models.initial_vector(model), 0.5)\n"
        "except ImportError as err:\n"
        "    print(err)\n"
        "else:\n"
        "    print('propagate_exact ran')\n"
    )
    out = str(tmp_path)
    runs = [
        [experiment, "--model", kind, "--out", out]
        for experiment in ("sweep", "single", "diagnose")
        for kind in ("ho", "tls")
    ]
    runs += [["open", "--out", out]] + [["geo", "--model", kind, "--out", out] for kind in KINDS]
    assert "'reference' extra" in _last_line_of(refuse + _CLI_RUNS + probe, json.dumps(runs))


class TestOpenCommand:
    def test_trajectory_stays_physical(self, tmp_path):
        cfg = write_json(
            tmp_path / "c.json",
            {
                "experiment": "open",
                "numerics": {"t_final": 0.5, "points": 11},
            },
        )
        out = tmp_path / "out"
        assert run_cli(["open", "--config", cfg, "--out", out]) == 0
        header, rows = read_csv(out / "open.csv")
        assert header[:4] == ["t", "bloch_x", "bloch_y", "bloch_z"]
        assert len(rows) == 11
        for row in rows:
            pops = row[4] + row[5]
            assert pops == pytest.approx(1.0, abs=1e-9)
            assert abs(row[6]) < 1e-9
            assert row[7] > -1e-7

    def test_secular_warning_lands_in_manifest(self, tmp_path):
        cfg = write_json(
            tmp_path / "c.json",
            {
                "experiment": "open",
                "numerics": {"t_final": 0.05, "points": 3},
            },
        )
        out = tmp_path / "out"
        assert run_cli(["open", "--config", cfg, "--out", out]) == 0
        manifest = json.loads((out / "open_manifest.json").read_text())
        assert any("secular" in w for w in manifest["warnings"])

    @pytest.mark.parametrize("scale", [1e-155, 1e-200, 1e-310])
    def test_drive_too_weak_for_its_dipole_weights_exits_two(self, tmp_path, capsys, scale):
        # the weights |a_j|^2 grow as 1 / hypot(epsilon, omega0)^2; these
        # runs used to exit 4 with an OverflowError, a dipole operator left
        # the span, or a ZeroDivisionError
        cfg = write_json(tmp_path / "c.json", {
            "experiment": "open", "protocol": {"epsilon": scale, "omega0": scale},
        })
        assert run_cli(["open", "--config", cfg, "--out", tmp_path / "out"]) == 2
        assert "protocol.epsilon/protocol.omega0" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_weakest_accepted_drive_runs(self, tmp_path):
        cfg = write_json(tmp_path / "c.json", {
            "experiment": "open", "protocol": {"epsilon": 1e-150, "omega0": 1e-150},
        })
        out = tmp_path / "out"
        assert run_cli(["open", "--config", cfg, "--out", out]) == 0
        assert json.loads((out / "open_manifest.json").read_text())["status"] == "ok"

    def test_level_shift_runs_at_low_temperature(self, tmp_path):
        # at T = 0.0625 adaptive Cauchy-weight quadrature of the shift gave
        # up near alpha = +-17 and the run exited 4
        cfg = write_json(
            tmp_path / "c.json",
            {
                "experiment": "open",
                "model": {"bath": {"temperature": 0.0625}},
                "numerics": {"lamb_shift": True},
            },
        )
        out = tmp_path / "out"
        assert run_cli(["open", "--config", cfg, "--out", out]) == 0
        manifest = json.loads((out / "open_manifest.json").read_text())
        assert manifest["status"] == "ok"
