import contextlib
import copy
import dataclasses
import errno
import io
import json
import math
import os
import signal
import subprocess
import sys
import tempfile
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import helpers
import weakinv
from weakinv import action, cli, config, dynamics, linalg, scenarios, superop, verify
from weakinv.cli import _write_json, main
from weakinv.errors import ConfigError, IntegrationError
from weakinv.model import LindbladModel, Schedule, tabulated

SZ_LITERAL = [[1, 0], [0, 0], [0, 0], [-1, 0]]
SMINUS = np.array([[0, 1], [0, 0]], dtype=complex)
SMINUS_LITERAL = [[0, 0], [1, 0], [0, 0], [0, 0]]
ZERO2_LITERAL = [[0, 0], [0, 0], [0, 0], [0, 0]]
EXCITED_LITERAL = [[0, 0], [0, 0], [0, 0], [1, 0]]
IDENTITY3_LITERAL = [[float(j == k), 0] for j in range(3) for k in range(3)]


def write_config(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


def amp_damp_config(tmp_path, n_steps=500, t_end=1.0, **extra):
    cfg = {"scenario": "amp-damp", "grid": {"t_start": 0.0, "t_end": t_end, "n_steps": n_steps}}
    cfg.update(extra)
    return write_config(tmp_path / "cfg.json", cfg)


class TestSimulate:
    def test_writes_files_and_succeeds(self, tmp_path):
        cfg = amp_damp_config(tmp_path)
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 0
        assert (tmp_path / "state.csv").exists()
        monitors = json.loads((tmp_path / "monitors.json").read_text())
        assert monitors["violations"] == []
        assert monitors["max_trace_drift"] <= 1e-10

    def test_scenario_as_positional(self, tmp_path):
        assert main(["simulate", "amp-damp", "--steps", "200", "--out", str(tmp_path)]) == 0

    def test_zero_steps_rejected(self, tmp_path, capsys):
        cfg = amp_damp_config(tmp_path, n_steps=0)
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 1
        assert "grid.n_steps must be ≥ 1" in capsys.readouterr().err

    @pytest.mark.parametrize("command, report", [
        ("simulate", "monitors.json"),
        ("invariant", "invariant_report.json"),
        ("action-check", "action_report.json"),
    ], ids=["simulate", "invariant", "action-check"])
    def test_leakage_violation_exits_2(self, tmp_path, capsys, command, report):
        # all population parked on the top retained level of the oscillator
        dim = 6
        rho0 = [[0, 0]] * (dim * dim)
        rho0[dim * dim - 1] = [1, 0]
        lambda_final = [[0, 0]] * (dim * dim)
        lambda_final[0] = [1, 0]
        cfg = write_config(
            tmp_path / "cfg.json",
            {
                "scenario": "damped-ho",
                "scenario_args": {"n_trunc": dim},
                "grid": {"t_start": 0.0, "t_end": 0.5, "n_steps": 100},
                "rho0": rho0,
                "lambda_final": lambda_final,
            },
        )
        assert main([command, "--config", cfg, "--out", str(tmp_path)]) == 2
        payload = json.loads((tmp_path / report).read_text())
        assert "leakage" in payload["violations"]
        assert "monitor violation(s): leakage" in capsys.readouterr().err

    def test_unknown_scenario(self, tmp_path, capsys):
        assert main(["simulate", "no-such-thing", "--out", str(tmp_path)]) == 1
        assert "unknown scenario" in capsys.readouterr().err

    def test_missing_scenario(self, tmp_path, capsys):
        assert main(["simulate", "--out", str(tmp_path)]) == 1
        assert "scenario" in capsys.readouterr().err

    def test_determinism(self, tmp_path):
        cfg = amp_damp_config(tmp_path, n_steps=300)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["simulate", "--config", cfg, "--out", str(out1)]) == 0
        assert main(["simulate", "--config", cfg, "--out", str(out2)]) == 0
        for name in ("state.csv", "monitors.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


class TestInvariant:
    def test_sz_seed_conserves_minus_one(self, tmp_path):
        cfg = amp_damp_config(tmp_path, n_steps=1000, invariant_seed="sz")
        assert main(["invariant", "--config", cfg, "--out", str(tmp_path)]) == 0
        rows = (tmp_path / "expectation.csv").read_text().splitlines()[1:]
        values = [float(r.split(",")[1]) for r in rows]
        assert max(abs(v + 1.0) for v in values) <= 1e-8
        report = json.loads((tmp_path / "invariant_report.json").read_text())
        assert report["classification"] == "weak"
        spectrum = (tmp_path / "spectrum.csv").read_text().splitlines()
        assert spectrum[0] == "t,lambda_1,lambda_2"
        last = [float(x) for x in spectrum[-1].split(",")]
        assert last[1] == pytest.approx(1.0 - 2.0 * math.e, abs=1e-6)

    def test_identity_seed_strong_like(self, tmp_path):
        cfg = amp_damp_config(tmp_path, invariant_seed="identity")
        assert main(["invariant", "--config", cfg, "--out", str(tmp_path)]) == 0
        rows = (tmp_path / "expectation.csv").read_text().splitlines()[1:]
        assert all(abs(float(r.split(",")[1]) - 1.0) <= 1e-10 for r in rows)
        report = json.loads((tmp_path / "invariant_report.json").read_text())
        assert report["classification"] == "strong-like"

    def test_gamma_zero_hamiltonian_seed_strong_like(self, tmp_path):
        cfg = amp_damp_config(
            tmp_path,
            scenario_args={"gamma": 0.0},
            invariant_seed="hamiltonian",
        )
        assert main(["invariant", "--config", cfg, "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "invariant_report.json").read_text())
        assert report["classification"] == "strong-like"

    def test_blowup_exits_2_with_step(self, tmp_path, capsys):
        cfg = amp_damp_config(tmp_path, n_steps=100, scenario_args={"gamma": 40.0},
                              invariant_seed="sz")
        assert main(["invariant", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "node" in capsys.readouterr().err

    def test_seed_literal(self, tmp_path):
        cfg = amp_damp_config(tmp_path, invariant_seed=SZ_LITERAL)
        assert main(["invariant", "--config", cfg, "--out", str(tmp_path)]) == 0

    @pytest.mark.parametrize("seed, message", [
        (SMINUS_LITERAL, "invariant seed is not Hermitian"),
        (IDENTITY3_LITERAL, "invariant seed dimension 3 != model dim 2"),
        ("sx", "invariant_seed unknown name 'sx'"),
    ], ids=["non-hermitian", "wrong-size", "unknown-name"])
    def test_bad_seed_exits_1_before_any_step(self, tmp_path, monkeypatch, capsys, seed,
                                              message):
        steps = []
        monkeypatch.setattr(dynamics, "_propagate", lambda *args: steps.append(1))
        cfg = amp_damp_config(tmp_path, invariant_seed=seed)
        assert main(["invariant", "--config", cfg, "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err.startswith(f"error: {message}")
        assert steps == []

    def test_bad_seed_wins_over_a_state_blowup(self, tmp_path, capsys):
        # the seed is checked before either flow steps, so this is an input error
        cfg = amp_damp_config(tmp_path, t_end=400.0, n_steps=100, invariant_seed=SMINUS_LITERAL)
        assert main(["invariant", "--config", cfg, "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err.startswith("error: invariant seed is not Hermitian")

    @pytest.mark.parametrize("command, bad", [("invariant", "invariant_seed"),
                                              ("action-check", "lambda_final")])
    def test_rho0_errors_come_first(self, tmp_path, capsys, command, bad):
        cfg = amp_damp_config(tmp_path, rho0=SMINUS_LITERAL, **{bad: SMINUS_LITERAL})
        assert main([command, "--config", cfg, "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err.startswith("error: rho0 is not Hermitian")


class TestActionCheck:
    def test_trivial_inline_model(self, tmp_path):
        cfg = write_config(
            tmp_path / "cfg.json",
            {
                "scenario": {
                    "dim": 2,
                    "hamiltonian": {"kind": "constant", "value": ZERO2_LITERAL},
                    "channels": [],
                },
                "grid": {"t_start": 0.0, "t_end": 1.0, "n_steps": 100},
                "lambda_final": ZERO2_LITERAL,
            },
        )
        assert main(["action-check", "--config", cfg, "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "action_report.json").read_text())
        assert report["action"] == 0.0
        assert report["grad_rho_residual"] <= 1e-13
        assert report["grad_lam_residual"] <= 1e-13
        assert report["gauge_defect"] <= 1e-12

    def test_amp_damp_residuals_shrink(self, tmp_path):
        reports = {}
        for n in (500, 1000):
            cfg = amp_damp_config(tmp_path, n_steps=n, lambda_final=SZ_LITERAL)
            out = tmp_path / f"n{n}"
            assert main(["action-check", "--config", cfg, "--out", str(out)]) == 0
            reports[n] = json.loads((out / "action_report.json").read_text())
        ratio = reports[500]["grad_rho_residual"] / reports[1000]["grad_rho_residual"]
        assert 3.0 <= ratio <= 5.0
        assert reports[1000]["boundary_rho"] <= 1e-8
        assert reports[1000]["boundary_lam"] <= 1e-8

    def test_missing_lambda_final(self, tmp_path, capsys):
        cfg = amp_damp_config(tmp_path)
        assert main(["action-check", "--config", cfg, "--out", str(tmp_path)]) == 1
        assert "lambda_final" in capsys.readouterr().err

    @pytest.mark.parametrize("lambda_final, message", [
        (SMINUS_LITERAL, "lambda_final is not Hermitian"),
        (IDENTITY3_LITERAL, "lambda_final dimension 3 != model dim 2"),
    ], ids=["non-hermitian", "wrong-size"])
    def test_bad_lambda_final_is_named(self, tmp_path, capsys, lambda_final, message):
        cfg = amp_damp_config(tmp_path, lambda_final=lambda_final)
        assert main(["action-check", "--config", cfg, "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err.startswith(f"error: {message}")


class TestVerify:
    def test_passes_and_writes_report(self, tmp_path, capsys):
        assert main(["verify", "--seed", "42", "--trials", "20", "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "verify_report.json").read_text())
        assert report["all_pass"] is True
        names = {p["name"] for p in report["properties"]}
        assert {"adjoint_pairing", "shift_invariance", "expectation_conservation"} <= names
        out = capsys.readouterr().out
        assert "adjoint_pairing" in out

    def test_negative_seed_is_named(self, tmp_path, capsys):
        assert main(["verify", "--seed", "-1", "--trials", "1", "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err == "error: seed must be ≥ 0\n"
        assert os.listdir(tmp_path) == []

    def test_trials_one_still_valid(self, tmp_path):
        assert main(["verify", "--trials", "1", "--out", str(tmp_path)]) == 0

    def test_break_adjoint_negative_control(self, tmp_path):
        code = main(["verify", "--seed", "0", "--trials", "10", "--break-adjoint",
                     "--out", str(tmp_path)])
        assert code == 2
        report = json.loads((tmp_path / "verify_report.json").read_text())
        failed = {p["name"] for p in report["properties"] if not p["pass"]}
        assert "adjoint_pairing" in failed

    def test_nan_defect_fails_and_is_written_as_null(self, tmp_path, capsys, monkeypatch):
        # a NaN generator must fail every suite that applies it, never pass as 0
        monkeypatch.setattr(superop, "apply_liouvillian", lambda s, x: np.full_like(x, np.nan))
        assert main(["verify", "--trials", "10", "--out", str(tmp_path)]) == 2
        report = json.loads((tmp_path / "verify_report.json").read_text())
        assert report["all_pass"] is False
        nulls = {p["name"] for p in report["properties"] if p["worst_defect"] is None}
        assert nulls == {"adjoint_pairing", "trace_preservation", "hermiticity_propagation",
                         "unitary_limit", "liouvillian_matrix"}
        assert not any(p["pass"] for p in report["properties"] if p["name"] in nulls)
        assert "FAIL  adjoint_pairing: worst defect nan" in capsys.readouterr().out

    def test_determinism(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["verify", "--seed", "7", "--trials", "10", "--out", str(out1)])
        main(["verify", "--seed", "7", "--trials", "10", "--out", str(out2)])
        assert (out1 / "verify_report.json").read_bytes() == (out2 / "verify_report.json").read_bytes()


class TestUsage:
    def test_help_exits_zero(self):
        assert main(["--help"]) == 0

    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_bad_method(self, tmp_path, capsys):
        cfg = amp_damp_config(tmp_path)
        assert main(["simulate", "--config", cfg, "--method", "euler"]) == 1


BAD_BOUNDS = [float("nan"), float("inf"), -float("inf"), 0.0, -1e-6, "1e-6", True, None, [1e-6]]


class TestBounds:
    @pytest.mark.parametrize("bound", BAD_BOUNDS)
    def test_invariant_rejects_bad_drift_bound(self, tmp_path, capsys, bound):
        cfg = amp_damp_config(tmp_path, n_steps=50, invariant_seed="sz", drift_bound=bound)
        assert main(["invariant", "--config", cfg, "--out", str(tmp_path)]) == 1
        assert "drift_bound must be a finite positive number" in capsys.readouterr().err
        assert not (tmp_path / "invariant_report.json").exists()

    @pytest.mark.parametrize("bound", BAD_BOUNDS)
    def test_action_check_rejects_bad_residual_bound(self, tmp_path, capsys, bound):
        cfg = amp_damp_config(tmp_path, n_steps=50, lambda_final=SZ_LITERAL,
                              residual_bound=bound)
        assert main(["action-check", "--config", cfg, "--out", str(tmp_path)]) == 1
        assert "residual_bound must be a finite positive number" in capsys.readouterr().err
        assert not (tmp_path / "action_report.json").exists()

    def test_integer_bounds_accepted(self, tmp_path):
        cfg = amp_damp_config(tmp_path, n_steps=50, invariant_seed="sz", drift_bound=1,
                              lambda_final=SZ_LITERAL, residual_bound=1)
        assert main(["invariant", "--config", cfg, "--out", str(tmp_path)]) == 0
        assert main(["action-check", "--config", cfg, "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "invariant_report.json").read_text())
        assert report["drift_bound"] == 1.0

    def test_json_reports_are_strict(self, tmp_path):
        path = tmp_path / "r.json"
        with pytest.raises(ValueError):
            _write_json(path, {"x": float("nan")})
        assert not path.exists()


HUGE = 10**400  # 401 digits: an integer beyond float range

# (id, config change, the field the error must name); 1e999 in JSON parses to inf
BAD_CONFIG_VALUES = [
    ("n_steps-str", {"grid": {"t_start": 0.0, "t_end": 1.0, "n_steps": "300"}}, "grid.n_steps"),
    ("n_steps-float", {"grid": {"t_start": 0.0, "t_end": 1.0, "n_steps": 3.7}}, "grid.n_steps"),
    ("n_steps-bool", {"grid": {"t_start": 0.0, "t_end": 1.0, "n_steps": True}}, "grid.n_steps"),
    ("n_steps-missing", {"grid": {"t_start": 0.0, "t_end": 1.0}}, "grid.n_steps"),
    ("t_start-str", {"grid": {"t_start": "0", "t_end": 1.0, "n_steps": 30}}, "grid.t_start"),
    ("t_start-nan", {"grid": {"t_start": float("nan"), "t_end": 1.0, "n_steps": 30}},
     "grid.t_start"),
    ("t_end-str", {"grid": {"t_start": 0.0, "t_end": "1", "n_steps": 30}}, "grid.t_end"),
    ("t_end-inf", {"grid": {"t_start": 0.0, "t_end": float("inf"), "n_steps": 30}}, "grid.t_end"),
    ("t_end-huge-int", {"grid": {"t_start": 0.0, "t_end": 10**400, "n_steps": 30}}, "grid.t_end"),
    ("grid-unknown-key", {"grid": {"t_start": 0.0, "t_end": 1.0, "n_steps": 30, "dt": 0.1}},
     "grid.dt"),
    ("seed-float", {"seed": 1.5}, "seed"),
    ("seed-str", {"seed": "3"}, "seed"),
    ("seed-negative", {"seed": -1}, "seed"),
    ("output_dir-int", {"output_dir": 5}, "output_dir"),
    ("unknown-key", {"drift_bnd": 1e-6}, "drift_bnd"),
    ("rho0-huge-int", {"rho0": [[HUGE, 0], [0, 0], [0, 0], [0, 0]]}, "rho0[0][0]"),
    ("omega-huge-int", {"scenario_args": {"omega": HUGE}}, "scenario_args.omega"),
    ("omega-bool", {"scenario_args": {"omega": True}}, "scenario_args.omega"),
    ("omega_schedule-huge-int", {"scenario": "damped-ho",
                                 "scenario_args": {"n_trunc": 4, "omega_schedule": HUGE}},
     "scenario_args.omega_schedule"),
    ("n_trunc-float", {"scenario": "damped-ho", "scenario_args": {"n_trunc": 4.7}},
     "scenario_args.n_trunc"),
    ("lambda_final-str", {"lambda_final": "junk"}, "lambda_final"),
    ("drift_bound-str", {"drift_bound": "junk"}, "drift_bound"),
]


class TestConfigValues:
    @pytest.mark.parametrize("command", ["simulate", "invariant", "action-check"])
    @pytest.mark.parametrize("change, field", [pytest.param(c, f, id=i)
                                               for i, c, f in BAD_CONFIG_VALUES])
    def test_bad_value_exits_1(self, tmp_path, capsys, command, change, field):
        cfg = {"scenario": "amp-damp", "grid": {"t_start": 0.0, "t_end": 1.0, "n_steps": 30},
               "invariant_seed": "sz", "lambda_final": SZ_LITERAL}
        cfg.update(change)
        path = write_config(tmp_path / "cfg.json", cfg)
        assert main([command, "--config", path, "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {field} ")
        assert not list(tmp_path.glob("*.csv"))

    def test_a_huge_integer_is_echoed_by_its_size(self, tmp_path, capsys):
        cfg = amp_damp_config(tmp_path, rho0=[[HUGE, 0], [0, 0], [0, 0], [0, 0]])
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == ("error: rho0[0][0] must be a finite number, "
                                           "got an integer of 401 digits\n")

    @pytest.mark.parametrize("value, digits", [
        (HUGE, 401), (-HUGE, 401), (HUGE - 1, 400), (2**1024, 309),
        (10**5000, 5001), (10**5000 - 1, 5000),  # beyond int-to-text's 4300 digits
    ], ids=["10^400", "-10^400", "10^400-1", "2^1024", "10^5000", "10^5000-1"])
    def test_number_names_the_size_of_a_huge_integer(self, value, digits):
        with pytest.raises(ConfigError) as err:
            config.integer(value, "seed")
        assert str(err.value) == f"seed must be a finite number, got an integer of {digits} digits"

    @pytest.mark.parametrize("change, line", [
        ({"rho0": [[HUGE]]}, "error: rho0[0] must be an [re, im] pair, got a list of 1 entries"),
        ({"output_dir": [HUGE]}, "error: output_dir must be a string, got a list of 1 entries"),
        ({"method": "x" * 5000}, "error: method unknown name a string of 5000 characters; "
                                 "expected one of ['rk4', 'midpoint']"),
    ], ids=["rho0-pair", "output_dir-list", "method-string"])
    def test_a_long_value_is_echoed_by_its_kind_and_size(self, tmp_path, capsys, change, line):
        cfg = amp_damp_config(tmp_path, **change)
        out = tmp_path / "out"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == line + "\n" and len(err.encode()) < 200
        assert not out.exists()

    def test_integer_of_too_many_digits(self, tmp_path, capsys):
        # the JSON parser refuses an integer of more than 4300 digits where
        # Python limits int-to-text conversion; elsewhere the number rule does
        path = tmp_path / "cfg.json"
        path.write_text('{"scenario": "amp-damp", "seed": ' + "9" * 5000 + "}")
        assert main(["simulate", "--config", str(path), "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(("error: config invalid JSON: ", "error: seed ")), err
        assert err.count("\n") == 1


def inline_amp_damp():
    return {
        "dim": 2,
        "hamiltonian": {"kind": "scaled", "matrix": EXCITED_LITERAL,
                        "scalar": {"kind": "sinusoidal", "offset": 1.0, "amplitude": 0.0,
                                   "omega": 1.0}},
        "channels": [{"op": {"kind": "constant", "value": SMINUS_LITERAL},
                      "alpha": {"kind": "constant", "value": 0.5}}],
    }


INLINE_MODEL_TYPOS = [
    ("model", lambda m: m.update(chanels=m.pop("channels")), "scenario.chanels"),
    ("channel", lambda m: m["channels"][0].update(rate=0.5), "scenario.channels[0].rate"),
    ("constant", lambda m: m["channels"][0]["alpha"].update(valu=0.5),
     "scenario.channels[0].alpha.valu"),
    ("scaled", lambda m: m["hamiltonian"].update(value=EXCITED_LITERAL),
     "scenario.hamiltonian.value"),
    ("sinusoidal", lambda m: m["hamiltonian"]["scalar"].update(phse=0.1),
     "scenario.hamiltonian.scalar.phse"),
    ("tabulated", lambda m: m["channels"][0].update(
        alpha={"kind": "tabulated", "times": [0.0, 1.0], "values": [0.5, 0.5], "knots": 2}),
     "scenario.channels[0].alpha.knots"),
]


# (id, change to the inline model, the field the error must name): each value
# is refused as a number, whichever command runs
INLINE_MODEL_VALUES = [
    ("constant-huge-int", lambda m: m["channels"][0]["alpha"].update(value=HUGE),
     "scenario.channels[0].alpha.value"),
    ("offset-huge-int", lambda m: m["hamiltonian"]["scalar"].update(offset=HUGE),
     "scenario.hamiltonian.scalar.offset"),
    ("offset-bool", lambda m: m["hamiltonian"]["scalar"].update(offset=True),
     "scenario.hamiltonian.scalar.offset"),
    ("phase-huge-int", lambda m: m["hamiltonian"]["scalar"].update(phase=HUGE),
     "scenario.hamiltonian.scalar.phase"),
    ("phase-bool", lambda m: m["hamiltonian"]["scalar"].update(phase=True),
     "scenario.hamiltonian.scalar.phase"),
    ("phase-str", lambda m: m["hamiltonian"]["scalar"].update(phase="1.5"),
     "scenario.hamiltonian.scalar.phase"),
    ("times-huge-int", lambda m: m["channels"][0].update(
        alpha={"kind": "tabulated", "times": [0.0, HUGE], "values": [0.5, 0.5]}),
     "scenario.channels[0].alpha.times[1]"),
    ("times-bool", lambda m: m["channels"][0].update(
        alpha={"kind": "tabulated", "times": [False, True], "values": [0.5, 0.5]}),
     "scenario.channels[0].alpha.times[0]"),
    ("times-str", lambda m: m["channels"][0].update(
        alpha={"kind": "tabulated", "times": ["0", "1"], "values": [0.5, 0.5]}),
     "scenario.channels[0].alpha.times[0]"),
    ("literal-huge-int", lambda m: m["channels"][0]["op"].update(
        value=[[0, 0], [HUGE, 0], [0, 0], [0, 0]]), "scenario.channels[0].op.value[1][0]"),
    ("literal-bool", lambda m: m["channels"][0]["op"].update(
        value=[[0, 0], [True, 0], [0, 0], [0, 0]]), "scenario.channels[0].op.value[1][0]"),
]


class TestInlineModelKeys:
    def _config(self, tmp_path, mutate=None):
        scenario = inline_amp_damp()
        if mutate is not None:
            mutate(scenario)
        return write_config(tmp_path / "cfg.json", {
            "scenario": scenario, "grid": {"t_start": 0.0, "t_end": 1.0, "n_steps": 50},
            "rho0": EXCITED_LITERAL, "invariant_seed": "sz", "lambda_final": SZ_LITERAL})

    @pytest.mark.parametrize("command", ["simulate", "invariant", "action-check"])
    def test_valid_inline_model_runs(self, tmp_path, command):
        assert main([command, "--config", self._config(tmp_path), "--out", str(tmp_path)]) == 0

    @pytest.mark.parametrize("command", ["simulate", "invariant", "action-check"])
    @pytest.mark.parametrize("mutate, field", [pytest.param(m, f, id=i)
                                               for i, m, f in INLINE_MODEL_TYPOS])
    def test_unknown_key_exits_1(self, tmp_path, capsys, command, mutate, field):
        cfg = self._config(tmp_path, mutate)
        assert main([command, "--config", cfg, "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err.startswith(f"error: {field} is not a config key")
        assert not list(tmp_path.glob("*.csv"))

    @pytest.mark.parametrize("command", ["simulate", "invariant", "action-check"])
    @pytest.mark.parametrize("mutate, field", [pytest.param(m, f, id=i)
                                               for i, m, f in INLINE_MODEL_VALUES])
    def test_bad_number_exits_1(self, tmp_path, capsys, command, mutate, field):
        cfg = self._config(tmp_path, mutate)
        assert main([command, "--config", cfg, "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err.startswith(f"error: {field} must be a finite number")
        assert not list(tmp_path.glob("*.csv"))


class TestInlineModelDefaults:
    """An inline model has rho0 I/d and no default grid or invariant seed;
    ``scenario_args`` belongs to a built-in scenario alone. Each refusal
    exits 1 with one line and creates no directory."""

    def run(self, tmp_path, capsys, command, **cfg):
        cfg = write_config(tmp_path / "cfg.json", {"scenario": inline_amp_damp(), **cfg})
        out = tmp_path / "out"
        status = main([command, "--config", cfg, "--out", str(out)])
        return status, capsys.readouterr().err, out

    def test_rho0_defaults_to_identity_over_d(self, tmp_path, capsys):
        status, _, out = self.run(tmp_path, capsys, "simulate",
                                  grid={"t_start": 0.0, "t_end": 1.0, "n_steps": 20})
        assert status == 0
        row = (out / "state.csv").read_text().splitlines()[1]
        assert row == "0,0.5,0,0,0,0,0,0.5,0"

    @pytest.mark.parametrize("command", ["simulate", "invariant", "action-check"])
    def test_grid_is_required(self, tmp_path, capsys, command):
        status, err, out = self.run(tmp_path, capsys, command, invariant_seed="sz",
                                    lambda_final=SZ_LITERAL)
        assert (status, err) == (1, "error: grid is required for inline models\n")
        assert not out.exists()

    def test_invariant_seed_is_required(self, tmp_path, capsys):
        status, err, out = self.run(tmp_path, capsys, "invariant",
                                    grid={"t_start": 0.0, "t_end": 1.0, "n_steps": 20})
        assert (status, err) == (1, "error: invariant_seed is required for inline models\n")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["simulate", "invariant", "action-check"])
    def test_scenario_args_are_refused(self, tmp_path, capsys, command):
        grid = {"t_start": 0.0, "t_end": 1.0, "n_steps": 20}
        status, err, out = self.run(tmp_path, capsys, command, grid=grid, invariant_seed="sz",
                                    lambda_final=SZ_LITERAL, scenario_args={"gamma": 0.3})
        assert (status, err) == (1, "error: scenario_args applies only to a built-in scenario\n")
        assert not out.exists()
        # a scenario named on the command line takes them
        cfg = str(tmp_path / "cfg.json")
        assert main([command, "amp-damp", "--config", cfg, "--out", str(out)]) == 0


def identity_literal(d, scale=1.0):
    return [[scale * float(j == k), 0] for j in range(d) for k in range(d)]


NUMBERS = st.sampled_from([0, 0.5, 1, -0.3, 2.0])
SCALAR_SCHEDULES = st.one_of(
    st.builds(lambda v: {"kind": "constant", "value": v}, NUMBERS),
    st.builds(lambda o, a, w, ph: {"kind": "sinusoidal", "offset": o, "amplitude": a,
                                   "omega": w, "phase": ph}, NUMBERS, NUMBERS, NUMBERS, NUMBERS),
    st.builds(lambda v: {"kind": "tabulated", "times": [0.0, 1.0, 2.0], "values": v},
              st.lists(NUMBERS, min_size=3, max_size=3)),
)
LITERALS2 = st.sampled_from([SZ_LITERAL, EXCITED_LITERAL, SMINUS_LITERAL, ZERO2_LITERAL])
OPERATOR_SCHEDULES = st.one_of(
    st.builds(lambda v: {"kind": "constant", "value": v}, LITERALS2),
    st.builds(lambda s, m: {"kind": "scaled", "scalar": s, "matrix": m}, SCALAR_SCHEDULES,
              LITERALS2),
    st.builds(lambda v: {"kind": "tabulated", "times": [0.0, 2.0], "values": v},
              st.lists(LITERALS2, min_size=2, max_size=2)),
)
INLINE_MODELS = st.builds(
    lambda h, channels: {"dim": 2, "hamiltonian": h, "channels": channels},
    OPERATOR_SCHEDULES,
    st.lists(st.builds(lambda op, alpha: {"op": op, "alpha": alpha}, OPERATOR_SCHEDULES,
                       SCALAR_SCHEDULES), max_size=2))


@st.composite
def scenarios_and_dims(draw):
    """A scenario (its name and args, or an inline model) and its dimension."""
    kind = draw(st.sampled_from(["amp-damp", "dephase", "damped-ho", "inline"]))
    if kind == "inline":
        return {"scenario": draw(INLINE_MODELS)}, 2
    if kind == "damped-ho":
        d = draw(st.integers(4, 6))
        args = {"n_trunc": d, "omega_schedule": draw(NUMBERS), "gamma_schedule": 0.1}
        return {"scenario": kind, "scenario_args": args}, d
    return {"scenario": kind, "scenario_args": {"omega": draw(NUMBERS), "gamma": 0.5}}, 2


# Scalars that no number field takes, and values that most fields refuse
BAD_SCALARS = [HUGE, -HUGE, True, "1.5", float("nan"), float("inf"), None]
BAD_VALUES = BAD_SCALARS + ["junk", -1, 0, 4.7, [], {}, [[1, 0]], {"kind": "constant"}]


@st.composite
def slots(draw, node, leaf):
    """A (container, key) of the JSON value ``node``: a key drawn at each
    level, so that every top-level key is as likely as every other, going
    one level deeper while the value is a container and, unless ``leaf``
    asks for a scalar, a coin says so."""
    while True:
        key = draw(st.sampled_from(sorted(node) if isinstance(node, dict) else range(len(node))))
        value = node[key]
        if not (isinstance(value, (dict, list)) and value and (leaf or draw(st.booleans()))):
            return node, key
        node = value


@st.composite
def run_configs(draw):
    """A valid run config of dimension d ≤ 6 and at most 50 steps, with up to
    two of its slots replaced by a malformed value, dropped or renamed."""
    cfg, d = draw(scenarios_and_dims())
    cfg.update(
        grid={"t_start": 0.0, "t_end": draw(st.sampled_from([0.5, 1.0, 2.0])),
              "n_steps": draw(st.integers(1, 50))},
        method=draw(st.sampled_from(["rk4", "midpoint"])),
        rho0=identity_literal(d, 1.0 / d),
        invariant_seed=draw(st.sampled_from(["sz", "hamiltonian", "identity",
                                             identity_literal(d)])),
        lambda_final=identity_literal(d), output_dir="unused", seed=draw(st.integers(0, 3)),
        drift_bound=1e-6, residual_bound=1e-4)
    cfg = copy.deepcopy(cfg)
    for _ in range(draw(st.integers(0, 2))):
        change = draw(st.sampled_from(["scalar", "replace", "drop", "rename"]))
        node, key = draw(slots(cfg, leaf=change == "scalar"))
        if change == "scalar":
            node[key] = draw(st.sampled_from(BAD_SCALARS))
        elif change == "replace" or isinstance(node, list):
            node[key] = copy.deepcopy(draw(st.sampled_from(BAD_VALUES)))
        elif change == "drop":
            del node[key]
        else:
            node[key + "x"] = node.pop(key)
    return cfg


class TestFuzzMain:
    """Generated configs, valid and malformed at every field of the tables:
    ``main`` exits 0, 1 or 2 and never raises, and exit 1 is one error line."""

    @settings(max_examples=120, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture,
                                     HealthCheck.too_slow])
    @given(cfg=run_configs(), command=st.sampled_from(["simulate", "invariant",
                                                       "action-check"]))
    def test_exit_code_and_one_error_line(self, cfg, command):
        err = io.StringIO()
        with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stderr(err):
            path = write_config(Path(tmp) / "cfg.json", cfg)
            code = main([command, "--config", path, "--out", str(Path(tmp) / "out")])
        assert code in (0, 1, 2)
        if code == 1:
            assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1


class CountingRate(Schedule):
    """A rate of 0.5 that the model must treat as time-dependent; counts its calls."""

    def __init__(self):
        self.calls = 0

    def __call__(self, t):
        self.calls += 1
        return 0.5

    @property
    def is_operator_valued(self):
        return False


class TestComputeOnce:
    @pytest.mark.parametrize("command", ["invariant", "action-check"])
    def test_model_sampled_once_per_lattice_time(self, tmp_path, monkeypatch, command):
        rate = CountingRate()
        spec = scenarios.amplitude_damping_qubit()
        model = LindbladModel(2, spec.model.hamiltonian, [(SMINUS, rate)])
        monkeypatch.setattr(cli, "build_scenario",
                            lambda name, **kw: dataclasses.replace(spec, model=model))
        cfg = amp_damp_config(tmp_path, n_steps=200, invariant_seed="sz",
                              lambda_final=SZ_LITERAL)
        assert main([command, "--config", cfg, "--out", str(tmp_path)]) == 0
        assert rate.calls == 2 * 200 + 1

    def test_action_check_integrates_each_flow_once(self, tmp_path, monkeypatch):
        # each flow is made (its inputs checked) once and run once; the Lam flow
        # runs in a forked child, which an appending counter cannot see, but on
        # one CPU it runs in this process
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        calls = []

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)
            return wrapper

        def counted_flow(name, make):
            def wrapper(*args, **kwargs):
                calls.append(name)
                traj, run = make(*args, **kwargs)
                return traj, counted(f"{name} run", run)
            return wrapper

        monkeypatch.setattr(cli, "state_flow", counted_flow("state_flow", cli.state_flow))
        monkeypatch.setattr(cli, "invariant_flow",
                            counted_flow("invariant_flow", cli.invariant_flow))
        cfg = amp_damp_config(tmp_path, n_steps=200, lambda_final=SZ_LITERAL)
        assert main(["action-check", "--config", cfg, "--out", str(tmp_path)]) == 0
        assert sorted(calls) == ["invariant_flow", "invariant_flow run",
                                 "state_flow", "state_flow run"]

    def test_action_check_builds_the_cell_generators_twice(self, tmp_path, monkeypatch):
        # once for the stationarity report, once for the shifted action; the
        # unshifted action comes from the report. The shifted action runs in a
        # forked child, which an appending counter cannot see, but on one CPU
        # it runs in this process
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        calls = []
        grad_rho = action._grad_rho

        def counted(*args):
            calls.append(1)
            return grad_rho(*args)

        monkeypatch.setattr(action, "_grad_rho", counted)
        cfg = amp_damp_config(tmp_path, n_steps=200, lambda_final=SZ_LITERAL)
        assert main(["action-check", "--config", cfg, "--out", str(tmp_path)]) == 0
        assert len(calls) == 2

    @pytest.mark.parametrize("command", ["simulate", "invariant", "action-check"])
    def test_hot_loops_skip_the_input_checks(self, tmp_path, monkeypatch, command):
        # the driven oscillator steps and sums block by block through the
        # unchecked K-form kernels
        checks = []
        monkeypatch.setattr(superop, "_check_dim", lambda *a: checks.append(1))
        cfg = write_config(tmp_path / "cfg.json", {
            "scenario": "damped-ho", "scenario_args": {"n_trunc": 6},
            "grid": {"t_start": 0.0, "t_end": 1.0, "n_steps": 200},
            "lambda_final": [[1, 0] if j == k else [0, 0] for j in range(6) for k in range(6)]})
        assert main([command, "--config", cfg, "--out", str(tmp_path)]) == 0
        assert checks == []


def driven_ho_config(tmp_path, n_trunc=6):
    return write_config(tmp_path / "cfg.json", {
        "scenario": "damped-ho", "scenario_args": {"n_trunc": n_trunc},
        "grid": {"t_start": 0.0, "t_end": 1.0, "n_steps": 200},
        "lambda_final": [[float(j == k), 0] for j in range(n_trunc) for k in range(n_trunc)]})


class TestForkedInvariantFlow:
    """``invariant`` and ``action-check`` step the invariant flow in a forked
    child while the parent steps the state; outputs, messages and exit codes
    are those of the two flows run in turn."""

    def test_invariant_blowup_in_the_child(self, tmp_path, capsys):
        cfg = amp_damp_config(tmp_path, t_end=40.0, n_steps=4000, invariant_seed="sz")
        assert main(["invariant", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == ("error: invariant magnitude 1.002e+12 exceeded cap "
                                           "1.0e+12 at node 2694 (step 2694)\n")

    def test_state_blowup_wins_over_an_earlier_invariant_one(self, tmp_path, capsys):
        # the invariant flow blows up at node 8, the state flow only at node 18
        cfg = amp_damp_config(tmp_path, t_end=400.0, n_steps=100, invariant_seed="sz")
        assert main(["invariant", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == ("error: state magnitude 3.815e+12 exceeded cap "
                                           "1.0e+12 at node 18 (step 18)\n")

    @pytest.mark.parametrize("command", ["invariant", "action-check"])
    def test_child_killed_by_a_signal_exits_2(self, tmp_path, monkeypatch, capsys, command):
        parent, propagate = os.getpid(), dynamics._propagate

        def killed_in_the_child(*args):
            if os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            return propagate(*args)

        monkeypatch.setattr(dynamics, "_propagate", killed_in_the_child)
        cfg = amp_damp_config(tmp_path, invariant_seed="sz", lambda_final=SZ_LITERAL)
        assert main([command, "--config", cfg, "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == ("error: invariant flow ended without a result "
                                           f"(exit status {-signal.SIGKILL})\n")
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize("command", ["invariant", "action-check"])
    def test_same_bytes_without_fork(self, tmp_path, monkeypatch, command):
        cfg = driven_ho_config(tmp_path)
        assert main([command, "--config", cfg, "--out", str(tmp_path / "forked")]) == 0
        monkeypatch.delattr(os, "fork")
        assert main([command, "--config", cfg, "--out", str(tmp_path / "serial")]) == 0
        names = sorted(p.name for p in (tmp_path / "forked").iterdir())
        assert names == sorted(p.name for p in (tmp_path / "serial").iterdir())
        for name in names:
            assert ((tmp_path / "forked" / name).read_bytes()
                    == (tmp_path / "serial" / name).read_bytes())

    @pytest.mark.parametrize("command", ["invariant", "action-check"])
    def test_child_skips_the_input_checks(self, tmp_path, monkeypatch, command):
        # an appending counter cannot see calls made in the child; a raise can
        def check_dim(*args):
            raise AssertionError("superop._check_dim called")

        monkeypatch.setattr(superop, "_check_dim", check_dim)
        assert main([command, "--config", driven_ho_config(tmp_path),
                     "--out", str(tmp_path)]) == 0


class TestForkedGaugeCheck:
    """``action-check`` takes the gauge check's shifted action and quadrature
    in a forked child while it makes the stationarity report; errors are
    reported as when the two ran in turn, and every child is reaped."""

    def in_the_child(self, monkeypatch, then):
        parent, gauge_terms = os.getpid(), action._gauge_terms

        def terms(*args):
            if os.getpid() != parent:
                then()
            return gauge_terms(*args)

        monkeypatch.setattr(action, "_gauge_terms", terms)

    def run(self, tmp_path):
        cfg = amp_damp_config(tmp_path, n_steps=200, lambda_final=SZ_LITERAL)
        return main(["action-check", "--config", cfg, "--out", str(tmp_path)])

    @pytest.mark.parametrize("make_cfg", [
        lambda tmp_path: amp_damp_config(tmp_path, n_steps=200, lambda_final=SZ_LITERAL),
        driven_ho_config,
    ], ids=["amp-damp", "damped-ho"])
    def test_defect_is_gauge_shift_checks(self, tmp_path, make_cfg):
        # the parent forms the defect from the child's terms and the report's
        # action bitwise as gauge_shift_check does
        cfg = make_cfg(tmp_path)
        assert main(["action-check", "--config", cfg, "--out", str(tmp_path)]) == 0
        setup = cli.RunSetup(cli.build_parser().parse_args(["action-check", "--config", cfg]))
        lam, run_lam = dynamics.invariant_flow(setup.model, setup.lambda_final(), "end",
                                               setup.grid, what="lambda_final")
        state, run = dynamics.state_flow(setup.model, setup.rho0, setup.grid)
        dynamics.beside(run_lam, run, "invariant flow")
        path = action.DiscretizedPath(grid=setup.grid, rho=state.samples, lam=lam.samples)
        rng = np.random.default_rng(setup.seed)
        rate = tabulated(np.linspace(setup.grid.t_start, setup.grid.t_end, 9),
                         list(rng.uniform(-1.0, 1.0, size=9)), name="lambda")
        want = action.gauge_shift_check(path, setup.model, rate)
        assert json.loads((tmp_path / "action_report.json").read_text())["gauge_defect"] == want

    def test_the_childs_error_is_raised_here(self, tmp_path, monkeypatch, capsys):
        def fail():
            raise ValueError("gauge pass failed")

        self.in_the_child(monkeypatch, fail)
        assert self.run(tmp_path) == 3  # a bare ValueError is a fault of the program
        assert capsys.readouterr().err == "internal error: ValueError: gauge pass failed\n"
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_child_killed_by_a_signal_exits_2(self, tmp_path, monkeypatch, capsys):
        self.in_the_child(monkeypatch, lambda: os.kill(os.getpid(), signal.SIGKILL))
        assert self.run(tmp_path) == 2
        assert capsys.readouterr().err == ("error: gauge check ended without a result "
                                           f"(exit status {-signal.SIGKILL})\n")
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_a_report_error_kills_and_reaps_the_child(self, tmp_path, monkeypatch, capsys):
        # the child would fail too, after a minute; the report's error wins at once
        def fail(*args):
            raise ValueError("report failed")

        self.in_the_child(monkeypatch, lambda: time.sleep(60) or fail())
        monkeypatch.setattr(action, "stationarity_report", fail)
        start = time.monotonic()
        assert self.run(tmp_path) == 3  # a bare ValueError is a fault of the program
        assert time.monotonic() - start < 30
        assert capsys.readouterr().err == "internal error: ValueError: report failed\n"
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


class TestLambdaExpectationDrift:
    """The paper's claim, gated on every ``action-check``: Lam is a weak
    invariant, so <Lam>_k = tr(Lam_k rho_k) stays at its final value along
    the flow pair, within ``drift_bound``."""

    CONFIGS = [
        lambda tmp_path: amp_damp_config(tmp_path, n_steps=200, lambda_final=SZ_LITERAL),
        driven_ho_config,
    ]

    @pytest.mark.parametrize("make_cfg", CONFIGS, ids=["amp-damp", "damped-ho"])
    def test_drift_and_its_node_are_reported(self, tmp_path, make_cfg):
        cfg = make_cfg(tmp_path)
        assert main(["action-check", "--config", cfg, "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "action_report.json").read_text())
        setup = cli.RunSetup(cli.build_parser().parse_args(["action-check", "--config", cfg]))
        state, _ = helpers.integrate_state(setup.model, setup.rho0, setup.grid)
        lam = helpers.auxiliary_trajectory(setup.model, setup.lambda_final(), setup.grid)
        series = dynamics.conservation_series(lam, state)
        drifts = np.abs(series - series[-1])
        assert report["lambda_expectation_drift"] == float(drifts.max())
        assert report["lambda_expectation_drift_node"] == int(drifts.argmax())
        assert report["drift_bound"] == 1e-6

    @pytest.mark.parametrize("make_cfg", CONFIGS, ids=["amp-damp", "damped-ho"])
    def test_a_corrupted_lambda_flow_fails(self, tmp_path, monkeypatch, capsys, make_cfg):
        # one jump weight of the Lam flow's generator, and of no other, off by 2e-5: the
        # residuals (about 2e-5) and the gauge check pass, and only the drift trips its gate
        # (a weight off by 1e-3 trips the rho residual too)
        def corrupted(lattice, dual, unit=1):
            if dual:
                ch = lattice.channels[0]
                ch = dataclasses.replace(ch, alpha=ch.alpha * (1.0 + 2e-5))
                lattice = dataclasses.replace(lattice, channels=(ch,) + lattice.channels[1:])
            return superop.Generator(lattice, dual, unit)

        monkeypatch.setattr(dynamics, "Generator", corrupted)
        cfg = make_cfg(tmp_path)
        assert main(["action-check", "--config", cfg, "--out", str(tmp_path)]) == 2
        report = json.loads((tmp_path / "action_report.json").read_text())
        drift, node = report["lambda_expectation_drift"], report["lambda_expectation_drift_node"]
        assert drift > report["drift_bound"] == 1e-6
        assert max(report["grad_rho_residual"], report["grad_lam_residual"]) <= 1e-4
        assert report["gauge_defect"] <= cli.GAUGE_DEFECT_BOUND
        assert report["violations"] == []
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].endswith(f"lambda expectation drift {drift:.3e} at node {node} vs 1.000e-06")

    def sin_rate(self, tmp_path, method, n_steps):
        """``action-check`` on CI's ``sin-rate`` inline model (a sinusoidal decay
        rate): the exit code and the report."""
        cfg = write_config(tmp_path / "sin-rate.json", {
            "scenario": {"dim": 2, "hamiltonian": {"kind": "constant", "value": EXCITED_LITERAL},
                         "channels": [{"op": {"kind": "constant", "value": SMINUS_LITERAL},
                                       "alpha": {"kind": "sinusoidal", "offset": 0.4,
                                                 "amplitude": 0.2, "omega": 3.0}}]},
            "grid": {"t_start": 0.0, "t_end": 1.0, "n_steps": 500},
            "lambda_final": SZ_LITERAL})
        out = tmp_path / f"{method}-{n_steps}"
        rc = main(["action-check", "--config", cfg, "--method", method, "--steps", str(n_steps),
                   "--out", str(out)])
        return rc, json.loads((out / "action_report.json").read_text())

    def test_midpoint_drift_is_second_order_where_the_generator_varies(self, tmp_path, capsys):
        # midpoint's backward Lam step samples t_{k+1} where the forward state step samples
        # t_k, so the pair is not an exact transpose where the generator varies in time:
        # <Lam> drifts O(dt²) (6.15e-6, 1.53e-6 and 3.81e-7), and the gate reports it
        runs = [self.sin_rate(tmp_path, "midpoint", n) for n in (100, 200, 400)]
        drifts = [report["lambda_expectation_drift"] for _, report in runs]
        for coarse, fine in zip(drifts, drifts[1:]):
            assert 3.5 <= coarse / fine <= 4.5
        rc, report = runs[0]
        assert rc == 2 and report["violations"] == []
        drift, node = report["lambda_expectation_drift"], report["lambda_expectation_drift_node"]
        err = capsys.readouterr().err.splitlines()
        assert err[0].endswith(f"lambda expectation drift {drift:.3e} at node {node} vs 1.000e-06")

    def test_rk4_drift_is_roundoff_where_the_generator_varies(self, tmp_path):
        # RK4's backward Lam step is the transpose of its forward state step
        for n_steps in (100, 200, 400):
            rc, report = self.sin_rate(tmp_path, "rk4", n_steps)
            assert rc == 0 and report["lambda_expectation_drift"] <= 1e-14


class TestFlowOutputCheckedOnce:
    """The flows make every node bitwise Hermitian, so ``invariant`` and
    ``action-check`` check no flow stack again; the inputs still are."""

    @pytest.mark.parametrize("command", ["invariant", "action-check"])
    def test_no_flow_stack_is_checked(self, tmp_path, monkeypatch, command):
        # an appending counter cannot see calls made in a child; a raise can
        check_hermitian, operators = linalg.check_hermitian, []

        def one_operator(a, *args, **kwargs):
            if np.ndim(a) == 3:
                raise AssertionError("check_hermitian called on a stack")
            operators.append(1)
            return check_hermitian(a, *args, **kwargs)

        monkeypatch.setattr(linalg, "check_hermitian", one_operator)
        assert main([command, "--config", driven_ho_config(tmp_path),
                     "--out", str(tmp_path)]) == 0
        assert operators  # rho0 and the seed (or lambda_final)


class TestStreamedStateCsv:
    """``simulate`` formats ``state.csv`` in this process, a block of rows at
    a time, once the state flow has succeeded: the file is written whole or
    not at all, and nothing forks."""

    @pytest.fixture
    def small_blocks(self, monkeypatch):
        # two amp-damp rows (9 values each) per CSV block, four steps per guarded block
        # (BLOCK_ENTRIES // (4 d²))
        monkeypatch.setattr(dynamics, "CSV_BLOCK_VALUES", 18)
        monkeypatch.setattr(linalg, "BLOCK_ENTRIES", 4 * 4 * 4)

    @pytest.fixture
    def forks(self, monkeypatch):
        forks, fork = [], os.fork
        monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
        return forks

    def test_state_blowup_leaves_no_file(self, tmp_path, capsys, small_blocks):
        # the state flow blows up at node 18, in the guarded block of nodes 17..20,
        # after the blocks of nodes 0..16 passed the guard
        cfg = amp_damp_config(tmp_path, t_end=400.0, n_steps=100)
        out = tmp_path / "blowup"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 2
        assert capsys.readouterr().err == ("error: state magnitude 3.815e+12 exceeded cap "
                                           "1.0e+12 at node 18 (step 18)\n")
        assert os.listdir(out) == []

    @pytest.mark.parametrize("scenario", ["amp-damp", "damped-ho"])
    def test_same_bytes_without_fork(self, tmp_path, monkeypatch, small_blocks, scenario):
        argv = ["simulate", scenario, "--steps", "30", "--out"]
        assert main(argv + [str(tmp_path / "forked")]) == 0
        monkeypatch.delattr(os, "fork")
        assert main(argv + [str(tmp_path / "serial")]) == 0
        for name in ("state.csv", "monitors.json"):
            assert ((tmp_path / "forked" / name).read_bytes()
                    == (tmp_path / "serial" / name).read_bytes())
        assert sorted(os.listdir(tmp_path / "serial")) == ["monitors.json", "state.csv"]

    @pytest.mark.parametrize("argv", [
        ["amp-damp"],  # 5001 rows of 9 values: one block
        ["damped-ho", "--steps", "700"],  # 701 rows of 801 values: 654 per block
    ], ids=["amp-damp", "damped-ho"])
    def test_forks_nothing(self, tmp_path, forks, argv):
        assert main(["simulate", *argv, "--out", str(tmp_path)]) == 0
        assert forks == []


class TestForkFloor:
    """Where ``os.sched_getaffinity`` gives the process fewer than two CPUs,
    no command forks: the flows run in turn, with the bytes of the forked
    run."""

    @pytest.mark.parametrize("command, n_forks", [
        ("simulate", 0),  # one flow, formatted in this process
        ("invariant", 1),
        ("action-check", 2),  # the Lam flow, then the gauge check beside the report
    ])
    def test_one_cpu_forks_nothing(self, tmp_path, monkeypatch, command, n_forks):
        forks, fork = [], os.fork
        monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
        cfg = driven_ho_config(tmp_path)
        assert main([command, "--config", cfg, "--out", str(tmp_path / "forked")]) == 0
        assert len(forks) == n_forks
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert main([command, "--config", cfg, "--out", str(tmp_path / "one-cpu")]) == 0
        assert len(forks) == n_forks
        names = sorted(p.name for p in (tmp_path / "forked").iterdir())
        assert names == sorted(p.name for p in (tmp_path / "one-cpu").iterdir())
        for name in names:
            assert ((tmp_path / "forked" / name).read_bytes()
                    == (tmp_path / "one-cpu" / name).read_bytes())


class TestOutputDirectory:
    """An output directory that cannot be made is a config error, found
    before the first step."""

    @pytest.mark.parametrize("command", ["simulate", "invariant", "action-check", "verify"])
    def test_out_under_a_regular_file(self, tmp_path, monkeypatch, capsys, command):
        cfg = amp_damp_config(tmp_path, n_steps=50, invariant_seed="sz",
                              lambda_final=SZ_LITERAL)
        monkeypatch.setattr(dynamics, "_propagate", None)  # no flow may start
        monkeypatch.setattr(verify, "run_all", None)
        out = tmp_path / "cfg.json" / "sub"
        argv = ["--trials", "1"] if command == "verify" else ["--config", cfg]
        assert main([command, *argv, "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: --out cannot create {out}: Not a directory\n"

    def test_output_dir_is_named(self, tmp_path, capsys):
        cfg = amp_damp_config(tmp_path, n_steps=50, output_dir=str(tmp_path / "cfg.json"))
        assert main(["simulate", "--config", cfg]) == 1
        assert capsys.readouterr().err == (f"error: output_dir cannot create "
                                           f"{tmp_path / 'cfg.json'}: File exists\n")

    def test_verify_out_is_a_regular_file(self, tmp_path, capsys):
        out = tmp_path / "report"
        out.write_text("")
        assert main(["verify", "--trials", "1", "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: --out cannot create {out}: File exists\n"


class TestUnwritableOutput:
    """An output file that cannot be written (here a directory in its place)
    is one error line and exit 1, not a traceback."""

    @pytest.mark.parametrize("command, name", [("simulate", "state.csv"),
                                               ("invariant", "invariant_report.json"),
                                               ("action-check", "action_report.json"),
                                               ("verify", "verify_report.json")])
    def test_a_directory_in_place_of_the_file(self, tmp_path, capsys, command, name):
        cfg = amp_damp_config(tmp_path, n_steps=50, invariant_seed="sz",
                              lambda_final=SZ_LITERAL)
        out = tmp_path / "out"
        (out / name).mkdir(parents=True)
        argv = ["--trials", "1"] if command == "verify" else ["--config", cfg]
        assert main([command, *argv, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == f"error: cannot write {out / name}: Is a directory\n"
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_state_csv_of_many_blocks_leaves_no_file(self, tmp_path, monkeypatch, capsys):
        # a table of nine blocks of rows, whose file cannot be opened
        monkeypatch.setattr(dynamics, "CSV_BLOCK_VALUES", 5 * 9)
        out = tmp_path / "out"
        (out / "state.csv").mkdir(parents=True)
        assert main(["simulate", "amp-damp", "--steps", "40", "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith(f"error: cannot write {out / 'state.csv'}")
        assert os.listdir(out) == ["state.csv"]
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_a_write_that_fails_midway_leaves_no_file(self, tmp_path, monkeypatch, capsys):
        # the disk fills after the first of nine blocks of rows is written
        monkeypatch.setattr(dynamics, "CSV_BLOCK_VALUES", 5 * 9)
        csv_chunks = dynamics.csv_chunks

        def disk_full(*args):
            chunks = csv_chunks(*args)
            yield next(chunks)  # the header
            yield next(chunks)
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        monkeypatch.setattr(dynamics, "csv_chunks", disk_full)
        out = tmp_path / "out"
        assert main(["simulate", "amp-damp", "--steps", "40", "--out", str(out)]) == 1
        assert capsys.readouterr().err == (f"error: cannot write {out / 'state.csv'}: "
                                           f"{os.strerror(errno.ENOSPC)}\n")
        assert os.listdir(out) == []

    @pytest.mark.parametrize("command, name", [("verify", "verify_report.json"),
                                               ("simulate", "state.csv"),
                                               ("invariant", "expectation.csv")])
    def test_a_disk_that_fills_leaves_no_file(self, tmp_path, monkeypatch, capsys,
                                              command, name):
        # room for 100 bytes: a short write, then ENOSPC; both files fit the
        # write buffer, so the error comes from the flush on close
        class FullDisk(io.FileIO):
            def write(self, b):
                room = 100 - self.tell()
                if room <= 0:
                    raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
                return super().write(bytes(b)[:room])

        monkeypatch.setattr(dynamics, "open", lambda path, mode: io.BufferedWriter(
            FullDisk(path, "w")), raising=False)
        out = tmp_path / "out"
        argv = ["--trials", "1"] if command == "verify" else ["amp-damp", "--steps", "20"]
        assert main([command, *argv, "--out", str(out)]) == 1
        assert capsys.readouterr() == ("", f"error: cannot write {out / name}: "
                                           f"{os.strerror(errno.ENOSPC)}\n")
        assert os.listdir(out) == []


def run_python(*args):
    """``python ARGS`` in a child interpreter that imports this checkout's
    package."""
    src = str(Path(weakinv.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args],
                          env=env, capture_output=True, text=True, timeout=120)


def run_module(*args):
    """``python -m weakinv.cli ARGS``, by ``run_python``."""
    return run_python("-m", "weakinv.cli", *args)


class TestModuleEntryPoint:
    def test_python_m_runs_the_cli(self, tmp_path):
        proc = run_module("simulate", "amp-damp", "--steps", "50", "--out", str(tmp_path))
        assert proc.returncode == 0, proc.stderr
        assert len((tmp_path / "state.csv").read_text().splitlines()) == 52

    def test_python_m_bad_input_exits_1(self, tmp_path):
        proc = run_module("simulate", "no-such-thing", "--out", str(tmp_path))
        assert proc.returncode == 1
        assert "unknown scenario" in proc.stderr


def loaded_modules(code: str, *args) -> list:
    """The ``weakinv.*`` modules in ``sys.modules`` after ``run_python`` runs
    ``code`` with ``args``."""
    code += "; print(*sorted(m for m in sys.modules if m.startswith('weakinv.')))"
    proc = run_python("-c", code, *args)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


class TestImports:
    """The package namespace holds only ``__version__``; each command imports
    the modules it runs, so ``simulate`` loads neither the action, nor the
    invariant analysis, nor the property suites."""

    def test_the_package_loads_no_module(self):
        assert loaded_modules("import sys, weakinv") == []

    def test_simulate_loads_only_what_it_runs(self, tmp_path):
        loaded = loaded_modules("import sys; from weakinv.cli import main; "
                                "assert main(sys.argv[1:]) == 0",
                                "simulate", "amp-damp", "--steps", "20", "--out", str(tmp_path))
        assert "weakinv.dynamics" in loaded
        assert not {"weakinv.action", "weakinv.invariant", "weakinv.verify"} & set(loaded)


class TestBlasThreads:
    """The CLI sets one OpenBLAS thread before numpy loads, unless the user
    set a count."""

    CODE = ("import os, sys\n"
            "seen = []\n"
            "class Spy:\n"
            "    def find_spec(self, name, path=None, target=None):\n"
            "        if name == 'numpy' and not seen:\n"
            "            seen.append(os.environ.get('OPENBLAS_NUM_THREADS'))\n"
            "sys.meta_path.insert(0, Spy())\n"
            "import weakinv.cli\n"
            "print(*seen)\n")

    @pytest.mark.parametrize("user, threads", [(None, "1"), ("2", "2")], ids=["unset", "2"])
    def test_threads_when_numpy_loads(self, monkeypatch, user, threads):
        if user is None:
            monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
        else:
            monkeypatch.setenv("OPENBLAS_NUM_THREADS", user)
        proc = run_python("-c", self.CODE)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == [threads]


class TestInputsCheckedFirst:
    """Every run command checks each input once, before it creates its
    output directory: a bad input exits 1 and leaves no directory behind."""

    @pytest.mark.parametrize("command", ["simulate", "invariant", "action-check"])
    @pytest.mark.parametrize("rho0, message", [
        (SMINUS_LITERAL, "rho0 is not Hermitian"),
        (IDENTITY3_LITERAL, "rho0 dimension 3 != model dim 2"),
        (identity_literal(2), "rho0 trace (2+0j) is not 1 within 1e-10"),
        ([[1.5, 0], [0, 0], [0, 0], [-0.5, 0]], "rho0 has negative eigenvalue -0.5"),
    ], ids=["non-hermitian", "wrong-size", "trace-2", "negative"])
    def test_bad_rho0(self, tmp_path, capsys, command, rho0, message):
        cfg = amp_damp_config(tmp_path, rho0=rho0, lambda_final=SZ_LITERAL)
        out = tmp_path / "out"
        assert main([command, "--config", cfg, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("command, key", [("invariant", "invariant_seed"),
                                              ("action-check", "lambda_final")])
    @pytest.mark.parametrize("value", [SMINUS_LITERAL, IDENTITY3_LITERAL],
                             ids=["non-hermitian", "wrong-size"])
    def test_bad_seed(self, tmp_path, command, key, value):
        cfg = amp_damp_config(tmp_path, **{key: value})
        out = tmp_path / "out"
        assert main([command, "--config", cfg, "--out", str(out)]) == 1
        assert not out.exists()

    @pytest.mark.parametrize("command", ["simulate", "invariant", "action-check"])
    def test_rho0_checked_once(self, tmp_path, monkeypatch, command):
        # require_hermitian, and the one eigvalsh after it, run on rho0 once per command
        calls, require = [], linalg.require_hermitian
        monkeypatch.setattr(linalg, "require_hermitian",
                            lambda a, *args, what="operator", **kw:
                            calls.append(what) or require(a, *args, what=what, **kw))
        cfg = amp_damp_config(tmp_path, n_steps=50, invariant_seed="sz",
                              lambda_final=SZ_LITERAL)
        assert main([command, "--config", cfg, "--out", str(tmp_path)]) == 0
        assert calls.count("rho0") == 1

    def test_invariant_damped_ho_samples_the_model_once(self, tmp_path, monkeypatch):
        # the scenario samples its default grid when built, and the run reuses it
        calls, built, sample, build = [], [], LindbladModel._sample, cli.build_scenario
        monkeypatch.setattr(LindbladModel, "_sample",
                            lambda self, times: calls.append(len(times)) or sample(self, times))
        monkeypatch.setattr(cli, "build_scenario",
                            lambda *a, **kw: (build(*a, **kw), built.append(len(calls)))[0])
        cfg = write_config(tmp_path / "cfg.json",
                           {"scenario": "damped-ho", "scenario_args": {"n_trunc": 6}})
        assert main(["invariant", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        assert built == [1] and calls == [10001]


class TestMissingLambdaFinalAfterRho0:
    """A missing ``lambda_final`` is reported after rho0's errors, as a
    missing inline ``invariant_seed`` is."""

    def test_bad_rho0_is_named_first(self, tmp_path, capsys):
        cfg = amp_damp_config(tmp_path, rho0=SMINUS_LITERAL)
        out = tmp_path / "out"
        assert main(["action-check", "--config", cfg, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: rho0 is not Hermitian") and err.count("\n") == 1
        assert not out.exists()

    def test_missing_lambda_final_alone(self, tmp_path, capsys):
        cfg = amp_damp_config(tmp_path)
        out = tmp_path / "out"
        assert main(["action-check", "--config", cfg, "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: lambda_final is required for action-check\n"
        assert not out.exists()


class TestNonFiniteInputs:
    """A grid whose step is not finite and positive, or a rho0, invariant seed
    or lambda_final whose Hermitian part is not finite, exits 1 with one
    line naming it, before any arithmetic on it can warn and before the
    output directory is made."""

    OVERFLOWS = [[0.5, 0], [1e308, 0], [1e308, 0], [0.5, 0]]  # (a + a†)/2 overflows

    @pytest.mark.parametrize("command, key, value, message", [
        ("simulate", "grid", {"t_start": -1e308, "t_end": 1e308, "n_steps": 50},
         "grid step (t_end - t_start) / n_steps = inf is not finite and positive"),
        ("simulate", "rho0", OVERFLOWS, "rho0 has a Hermitian part that is not finite"),
        ("invariant", "rho0", OVERFLOWS, "rho0 has a Hermitian part that is not finite"),
        ("action-check", "rho0", OVERFLOWS, "rho0 has a Hermitian part that is not finite"),
        ("invariant", "invariant_seed", OVERFLOWS,
         "invariant seed has a Hermitian part that is not finite"),
        ("action-check", "lambda_final", OVERFLOWS,
         "lambda_final has a Hermitian part that is not finite"),
    ], ids=["grid", "simulate-rho0", "invariant-rho0", "action-check-rho0", "invariant_seed",
            "lambda_final"])
    def test_exits_1_with_one_line(self, tmp_path, capsys, command, key, value, message):
        cfg = {"scenario": "amp-damp", "grid": {"t_start": 0.0, "t_end": 1.0, "n_steps": 50},
               "lambda_final": SZ_LITERAL, key: value}
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a warning would end in an internal error
            code = main([command, "--config", write_config(tmp_path / "cfg.json", cfg),
                         "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()


class TestMemoryBound:
    """A grid whose stacks (the lattice's sample times, and (n+1)·d²·16
    bytes per flow) exceed physical memory is refused before anything is
    allocated: exit 1, one line naming grid.n_steps, no output directory.
    The bound is the machine's memory, not a fixed cap."""

    @pytest.mark.parametrize("command", ["simulate", "invariant", "action-check"])
    def test_a_grid_beyond_memory(self, tmp_path, capsys, command):
        cfg = amp_damp_config(tmp_path, n_steps=10**12, lambda_final=SZ_LITERAL)
        out = tmp_path / "out"
        assert main([command, "--config", cfg, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: grid.n_steps 1000000000000 needs ") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("command, refused", [("simulate", False), ("invariant", True)])
    def test_the_bound_is_physical_memory(self, tmp_path, monkeypatch, capsys, command,
                                          refused):
        # 1000 steps at d=2: 80040 bytes of sample times and 64064 per flow
        pages = {"SC_PAGE_SIZE": 1 << 12, "SC_PHYS_PAGES": 36}  # 147456 bytes
        monkeypatch.setattr(os, "sysconf", lambda name: pages[name])
        cfg = amp_damp_config(tmp_path, n_steps=1000, lambda_final=SZ_LITERAL)
        code = main([command, "--config", cfg, "--out", str(tmp_path / "out")])
        assert code == (1 if refused else 0)
        assert ("grid.n_steps 1000 needs" in capsys.readouterr().err) == refused

    def test_no_memory_query_no_bound(self, tmp_path, monkeypatch):
        monkeypatch.delattr(os, "sysconf")
        assert main(["simulate", "amp-damp", "--steps", "50", "--out", str(tmp_path)]) == 0


class TestScenarioBuilderFaults:
    """A builder's range check is a ``ConfigError`` naming its argument
    (exit 1); any other exception inside a builder is a fault of the
    program (exit 3), never read as an input error."""

    @pytest.mark.parametrize("scenario, args, message", [
        ("amp-damp", {"gamma": -0.5}, "scenario_args.gamma must be ≥ 0"),
        ("dephase", {"gamma": -0.5}, "scenario_args.gamma must be ≥ 0"),
        ("damped-ho", {"n_trunc": 3}, "scenario_args.n_trunc must be ≥ 4"),
    ], ids=["amp-damp-gamma", "dephase-gamma", "damped-ho-n_trunc"])
    def test_range_check_exits_1(self, tmp_path, capsys, scenario, args, message):
        cfg = write_config(tmp_path / "cfg.json", {
            "scenario": scenario, "scenario_args": args,
            "grid": {"t_start": 0.0, "t_end": 1.0, "n_steps": 20}})
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("fault", [TypeError, ValueError])
    def test_a_fault_inside_a_builder_exits_3(self, tmp_path, monkeypatch, capsys, fault):
        def builder(**kwargs):
            raise fault("builder fault")

        monkeypatch.setitem(scenarios.SCENARIOS, "amp-damp", builder)
        assert main(["simulate", "amp-damp", "--steps", "20", "--out", str(tmp_path)]) == 3
        assert capsys.readouterr().err == f"internal error: {fault.__name__}: builder fault\n"


class TestImaginaryPartIsAFailedCheck:
    """An imaginary part beyond roundoff in a value that must be real is a
    failed numerical check: an ``IntegrationError``, exit 2."""

    def test_conservation_series(self):
        grid = dynamics.TimeGrid(0.0, 1.0, 4)
        state = dynamics.Trajectory(grid, [np.diag([1.0, 0.0])] * 5, "state")
        samples = np.stack([np.diag([1.0, 2.0]).astype(complex)] * 5)
        samples[2, 0, 0] = 1.0 + 1e-3j
        with pytest.raises(IntegrationError) as err:
            dynamics.conservation_series(dynamics.Trajectory(grid, samples, "invariant"), state)
        assert err.value.step == 2

    def test_action_exits_2(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(action, "ACTION_IMAG_RTOL", -1.0)  # any residue is beyond roundoff
        cfg = amp_damp_config(tmp_path, n_steps=50, lambda_final=SZ_LITERAL)
        assert main(["action-check", "--config", cfg, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: action has imaginary part") and err.count("\n") == 1
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


class TestInternalError:
    """Any exception but a typed input error or a failed check is a fault of
    the program: one ``internal error: <Type>: <message>`` line, exit 3, no
    traceback, and no child process left behind."""

    @pytest.mark.parametrize("command", ["simulate", "invariant", "action-check"])
    def test_a_kernel_fault(self, tmp_path, monkeypatch, capsys, command):
        def fault(*args):
            raise RuntimeError("kernel fault")

        monkeypatch.setattr(dynamics, "_propagate", fault)
        cfg = amp_damp_config(tmp_path, invariant_seed="sz", lambda_final=SZ_LITERAL)
        assert main([command, "--config", cfg, "--out", str(tmp_path)]) == 3
        assert capsys.readouterr().err == "internal error: RuntimeError: kernel fault\n"
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_a_nan_in_a_report(self, tmp_path, monkeypatch, capsys):
        # strict JSON refuses the NaN with a bare ValueError: no input error
        monkeypatch.setattr(dynamics.MonitorReport, "to_dict",
                            lambda self: {"max_trace_drift": math.nan})
        assert main(["simulate", "amp-damp", "--steps", "50", "--out", str(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("internal error: ValueError: Out of range float values")
        assert err.count("\n") == 1
        assert not (tmp_path / "monitors.json").exists()

    def test_no_traceback_from_the_entry_point(self, tmp_path):
        src = str(Path(weakinv.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        code = ("import sys; from weakinv import superop; "
                "superop.hadamard = lambda *a: 1 / 0; from weakinv.cli import run; run()")
        proc = subprocess.run([sys.executable, "-c", code, "simulate", "dephase", "--steps", "20",
                               "--out", str(tmp_path)], env=env, capture_output=True, text=True,
                              timeout=120)
        assert proc.returncode == 3
        assert proc.stderr == "internal error: ZeroDivisionError: division by zero\n"
