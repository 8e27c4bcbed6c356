"""Seeded workload inputs for the weakinv benchmark and the checks on their outputs.

Each workload is a list of CLI invocations (``Step``) that a round runs in
order, plus the argv whose ``RunSetup`` the set-up measurement resolves.
Inputs depend only on the workload seed; the program sees nothing but the
config files written here and the CLI arguments.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

QUBIT = "qubit-const"
HO = "ho-driven"
VERIFY = "verify-suite"
WORKLOADS = (QUBIT, HO, VERIFY)

RUN_COMMANDS = ("simulate", "invariant", "action-check")
COMMANDS = RUN_COMMANDS + ("verify",)

OUTPUTS = {
    "simulate": ("state.csv", "monitors.json"),
    "invariant": ("expectation.csv", "spectrum.csv", "invariant_report.json"),
    "action-check": ("action_report.json",),
    "verify": ("verify_report.json",),
}

# Analytic-reference tolerances. RK4 at dt = 1e-3 reaches ~1e-15 on both.
POPULATION_TOL = 1e-9
GAUGE_DEFECT_BOUND = 1e-10

# Closed-form decay rates of the scenario defaults: amp-damp (gamma = 0.5)
# empties the excited level as exp(-2 gamma t); damped-ho (gamma = 0.1) has
# d<n>/dt = -2 gamma <n>, exact under truncation and for any omega(t).
QUBIT_DECAY = 1.0
HO_DECAY = 0.2

# The verify-suite run commands: a seeded constant model, short grid.
SHORT_DIM = 4
SHORT_STEPS = 300
VERIFY_TRIALS = 100


def random_hermitian(rng, dim: int, support: int | None = None) -> np.ndarray:
    """Hermitian matrix with entries of magnitude <= 1, nonzero only on the
    lowest ``support`` levels."""
    k = dim if support is None else support
    m = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
    h = (m + m.conj().T) / 2.0
    out = np.zeros((dim, dim), dtype=complex)
    out[:k, :k] = h / np.max(np.abs(h))
    return out


def random_density(rng, dim: int) -> np.ndarray:
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = m @ m.conj().T
    rho = rho / np.trace(rho).real
    return (rho + rho.conj().T) / 2.0


def random_jump(rng, dim: int) -> np.ndarray:
    """Random operator of unit spectral norm."""
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return m / np.linalg.norm(m, 2)


def literal(m: np.ndarray) -> list:
    """The CLI's matrix literal: row-major ``[re, im]`` pairs."""
    return [[float(v.real), float(v.imag)] for v in np.asarray(m).reshape(-1)]


Check = Callable[[Path], list]


@dataclass(frozen=True)
class Step:
    command: str
    argv: list  # arguments after the program name
    out_dir: Path
    check: Check


@dataclass(frozen=True)
class Plan:
    workload: str
    seed: int
    steps: list
    setup_argv: list  # argv whose RunSetup the set-up measurement builds
    input_digest: str  # of the config and the seed; equal inputs give equal outputs


def make_plan(workload: str, seed: int, work: Path) -> Plan:
    rng = np.random.default_rng(seed)
    if workload == QUBIT:
        cfg = {"scenario": "amp-damp", "lambda_final": literal(random_hermitian(rng, 2))}
        simulate_check = _population_check(_excited_population, QUBIT_DECAY)
    elif workload == HO:
        cfg = {
            "scenario": "damped-ho",
            "scenario_args": {"n_trunc": 20},
            "lambda_final": literal(random_hermitian(rng, 20, support=4)),
        }
        simulate_check = _population_check(_mean_number, HO_DECAY)
    elif workload == VERIFY:
        # Unit-norm operators keep the generator's time scale near 1, so the
        # 300-step grid resolves every seed's dynamics within the residual bound.
        d = SHORT_DIM
        h = random_hermitian(rng, d)
        channels = [
            {
                "op": {"kind": "constant", "value": literal(random_jump(rng, d))},
                "alpha": {"kind": "constant", "value": float(rng.uniform(0.1, 0.5))},
            }
            for _ in range(2)
        ]
        cfg = {
            "scenario": {
                "dim": d,
                "hamiltonian": {"kind": "constant", "value": literal(h / np.linalg.norm(h, 2))},
                "channels": channels,
            },
            "grid": {"t_start": 0.0, "t_end": 1.0, "n_steps": SHORT_STEPS},
            "rho0": literal(random_density(rng, d)),
            "invariant_seed": literal(random_hermitian(rng, d)),
            "lambda_final": literal(random_hermitian(rng, d)),
        }
        simulate_check = _unit_trace_check
    else:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")

    config = work / "config.json"
    config.write_text(json.dumps(cfg, indent=1, sort_keys=True) + "\n")
    checks = {
        "simulate": simulate_check,
        "invariant": _invariant_check,
        "action-check": _action_check,
    }
    steps = []
    for command in RUN_COMMANDS:
        out = work / command
        steps.append(Step(command, [command, "--config", str(config), "--out", str(out),
                                    "--seed", str(seed)], out, checks[command]))
    if workload == VERIFY:
        # The short commands last about a second each, so a round runs them
        # twice to give their medians as many samples as the run allows.
        out = work / "verify"
        steps += [Step("verify", ["verify", "--trials", str(VERIFY_TRIALS), "--seed", str(seed),
                                  "--out", str(out)], out, _verify_check)] + steps
    inputs = hashlib.sha256(config.read_bytes() + f"seed={seed}".encode()).hexdigest()[:16]
    return Plan(workload, seed, steps, steps[0].argv, inputs)


# ---------------------------------------------------------------------------
# output checks: each returns a list of problems, empty when the output is right
# ---------------------------------------------------------------------------


def digests(out_dir: Path) -> dict:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out_dir.iterdir()) if p.is_file()}


def bytes_written(out_dir: Path) -> int:
    return sum(p.stat().st_size for p in out_dir.iterdir() if p.is_file())


def _diagonal(out: Path):
    """Node times and the real diagonal of rho from state.csv."""
    path = out / "state.csv"
    with open(path) as f:
        header = f.readline().strip().split(",")
    dim = math.isqrt((len(header) - 1) // 2)
    cols = [0] + [header.index(f"re_{j}_{j}") for j in range(dim)]
    data = np.loadtxt(path, delimiter=",", skiprows=1, usecols=cols, ndmin=2)
    return data[:, 0], data[:, 1:]


def _excited_population(diag):
    return diag[:, 1]


def _mean_number(diag):
    return diag @ np.arange(diag.shape[1])


def _population_check(observable, rate) -> Check:
    def check(out: Path) -> list:
        t, diag = _diagonal(out)
        values = observable(diag)
        err = float(np.max(np.abs(values - values[0] * np.exp(-rate * (t - t[0])))))
        if not err <= POPULATION_TOL:
            return [f"simulate: population deviates from exp(-{rate} t) by {err:.3e}"]
        return []
    return check


def _unit_trace_check(out: Path) -> list:
    _, diag = _diagonal(out)
    err = float(np.max(np.abs(diag.sum(axis=1) - 1.0)))
    return [] if err <= POPULATION_TOL else [f"simulate: trace drifts by {err:.3e}"]


def _read_json(path: Path) -> dict:
    with open(path) as f:
        return json.load(f)


def _invariant_check(out: Path) -> list:
    report = _read_json(out / "invariant_report.json")
    problems = []
    if report.get("classification") != "weak":
        problems.append(f"invariant: classified {report.get('classification')!r}, expected 'weak'")
    drift, bound = report.get("max_expectation_drift"), report.get("drift_bound")
    if not (isinstance(drift, float) and isinstance(bound, float) and drift <= bound):
        problems.append(f"invariant: drift {drift} not within bound {bound}")
    return problems


def _action_check(out: Path) -> list:
    report = _read_json(out / "action_report.json")
    bound = report.get("residual_bound")
    problems = []
    for key in ("grad_rho_residual", "grad_lam_residual"):
        value = report.get(key)
        if not (isinstance(value, float) and isinstance(bound, float) and value <= bound):
            problems.append(f"action-check: {key} {value} not within {bound}")
    gauge = report.get("gauge_defect")
    if not (isinstance(gauge, float) and gauge <= GAUGE_DEFECT_BOUND):
        problems.append(f"action-check: gauge defect {gauge} not within {GAUGE_DEFECT_BOUND}")
    return problems


def _verify_check(out: Path) -> list:
    report = _read_json(out / "verify_report.json")
    if report.get("all_pass") is not True:
        failed = [p.get("name") for p in report.get("properties", []) if not p.get("pass")]
        return [f"verify: all_pass is not true (failing: {failed})"]
    return []


def check_step(step: Step) -> list:
    """Every problem with the outputs of one completed step."""
    problems = [f"{step.command}: {name} not written" for name in OUTPUTS[step.command]
                if not (step.out_dir / name).is_file()]
    if problems:
        return problems
    try:
        return step.check(step.out_dir)
    except (OSError, ValueError, KeyError) as e:
        return [f"{step.command}: unreadable output: {e}"]
