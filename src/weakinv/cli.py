"""Command-line entry point.

Commands:
  simulate      integrate a state trajectory, write state.csv + monitors.json
  invariant     co-integrate state and invariant, write expectation.csv,
                spectrum.csv, invariant_report.json
  action-check  stationarity + gauge-shift diagnostics, write action_report.json
  verify        randomized property suites, write verify_report.json

Every run command checks its inputs once, in one order, as it makes its
flows: rho0, the model lattice, then the invariant seed or lambda_final
(a missing one too); only then does it create its output directory.
`invariant` and `action-check` make both flows (`_flow_pair`), then each
runs the invariant flow `beside` the state flow: in a forked child process,
while this process steps the state flow and its monitors; outputs are
byte-identical to running the flows in turn, and a state-flow error is
reported before an invariant-flow error. In `invariant` the child then
takes the invariant's spectrum and formats spectrum.csv, and hands both
back; this process writes every file once both flows have succeeded. Then
`action-check` takes the gauge check's passes and the <Lam> series, which
its drift gate reads, `beside` the stationarity report, whose error comes
first. `simulate` and `verify` run in one process; `simulate` writes
state.csv whole, once its flow has succeeded, or not at all.

Exit codes: 0 success; 1 an input error (usage, config, a model that fails
its checks, a rho0, seed or lambda_final refused, an output path that cannot
be made or written); 2 a failed check (a state monitor, which every run
command gates on, the command's own check, a non-finite or capped iterate,
a child ended without a result, an imaginary part beyond roundoff); 3 an
internal error: any other exception, as one `internal error: <Type>:
<message>` line. Runs are deterministic: the same config and seed produce
bit-identical output files. Commands run with one OpenBLAS thread unless
OPENBLAS_NUM_THREADS is set.
"""

from __future__ import annotations

import os

# One BLAS thread unless the user set a count: the flows make many small
# products, which a thread pool slows down. Set before numpy loads.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import config, linalg  # action, invariant, verify: imported where a command runs them
from .dynamics import (
    METHODS,
    TimeGrid,
    beside,
    conservation_series,
    invariant_flow,
    state_flow,
    write_file,
    write_trajectory_csv,
)
from .errors import (
    BlowupError,
    ConfigError,
    IntegrationError,
    ModelValidationError,
    NotHermitianError,
    ScheduleDomainError,
)
from .model import tabulated
from .scenarios import LEAKAGE_THRESHOLD, SCENARIOS, ScenarioSpec, build_scenario

TRACE_DRIFT_THRESHOLD = 1e-8
MIN_EIGENVALUE_THRESHOLD = -1e-8
GAUGE_DEFECT_BOUND = 1e-10


class _Parser(argparse.ArgumentParser):
    # usage errors must exit 1, not argparse's default 2
    def error(self, message):
        raise ConfigError(None, message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="weakinv", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_run_command(name, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("scenario", nargs="?", default=None,
                       help=f"named scenario: {', '.join(sorted(SCENARIOS))}")
        p.add_argument("--config", type=Path, help="JSON run config")
        p.add_argument("--out", type=Path, help="output directory")
        p.add_argument("--steps", type=int, help="override grid.n_steps")
        p.add_argument("--method", choices=METHODS)
        p.add_argument("--seed", type=int)
        return p

    add_run_command("simulate", "integrate the state trajectory")
    add_run_command("invariant", "co-integrate state and invariant, analyze conservation")
    add_run_command("action-check", "stationarity and gauge-shift diagnostics")

    pv = sub.add_parser("verify", help="randomized property suites")
    pv.add_argument("--out", type=Path)
    pv.add_argument("--seed", type=int, default=0)
    pv.add_argument("--trials", type=int, default=100)
    pv.add_argument("--break-adjoint", action="store_true", help=argparse.SUPPRESS)
    return parser


# ---------------------------------------------------------------------------
# run-config resolution
# ---------------------------------------------------------------------------


def _load_config(args) -> dict:
    """The run config, every key read by ``config.RUN`` and the defaults
    filled in; no ``--config`` reads as an empty object."""
    cfg = {}
    if args.config is not None:
        try:
            with open(args.config) as f:
                cfg = json.load(f)
        except OSError as e:
            raise ConfigError("config", f"cannot read {args.config}: {e.strerror}") from None
        except ValueError as e:  # a JSONDecodeError, or an integer of too many digits
            raise ConfigError("config", f"invalid JSON: {e}") from None
        if not isinstance(cfg, dict):
            raise ConfigError("config", "must be a JSON object")
    return config.read(cfg, config.RUN, "")


def _make_dir(path: Path, field: str) -> None:
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as e:
        raise ConfigError(field, f"cannot create {path}: {e.strerror}") from None


def _write_json(path: Path, payload: dict) -> None:
    # strict JSON: a NaN or infinity is an error, never written
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    write_file(path, [(text + "\n").encode()])


def _check_memory(grid: TimeGrid, dim: int, flows: int) -> None:
    """Refuse, before anything is allocated, a grid whose stacks do not fit
    in physical memory: 40 bytes for each of the lattice's 2n + 1 sample
    times (the float64 times, and a driven scalar's stack with its checks'
    temporaries; sampling a scaled H and a sinusoidal rate peaks at 41
    bytes a time) and (n + 1)·d²·16 bytes per flow, a lower bound of what
    the run holds."""
    need = 40 * (2 * grid.n_steps + 1) + flows * 16 * dim * dim * (grid.n_steps + 1)
    try:
        have = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):  # no way to ask: nothing to compare with
        return
    if need > have:
        raise ConfigError("grid.n_steps", f"{grid.n_steps} needs {need / 2**30:.3g} GiB for the "
                          f"run's stacks, more than the {have / 2**30:.3g} GiB of memory here")


class RunSetup:
    """Resolved model, grid, method, defaults, and output directory."""

    def __init__(self, args):
        cfg = self.cfg = _load_config(args)
        self.seed = cfg["seed"] if args.seed is None else config.integer(args.seed, "seed")

        scenario = args.scenario if args.scenario is not None else cfg.get("scenario")
        if scenario is None:
            raise ConfigError("scenario", "is required (positional argument or config)")
        if isinstance(scenario, str):
            self.spec = build_scenario(scenario, **cfg["scenario_args"])
        elif cfg["scenario_args"]:
            raise ConfigError("scenario_args", "applies only to a built-in scenario")
        else:
            d = scenario.dim
            self.spec = ScenarioSpec("inline", scenario, linalg.identity(d) / d, None, None)
        self.model = self.spec.model

        default = self.spec.default_grid
        grid = cfg.get("grid", default and default.to_dict())
        if grid is None:
            raise ConfigError("grid", "is required for inline models")
        n_steps = args.steps if args.steps is not None else grid.get("n_steps")
        n_steps = config.integer(n_steps, "grid.n_steps", minimum=1)
        self.grid = TimeGrid(grid["t_start"], grid["t_end"], n_steps)
        _check_memory(self.grid, self.model.dim, 1 if args.command == "simulate" else 2)
        self.method = args.method or cfg["method"]

        self.rho0 = cfg.get("rho0", self.spec.default_rho0)
        self.out_dir = Path(args.out if args.out is not None else cfg["output_dir"])
        self.out_field = "--out" if args.out is not None else "output_dir"

    def invariant_seed(self) -> np.ndarray:
        seed = self.cfg.get("invariant_seed", self.spec.default_invariant_seed)
        if seed is None:
            raise ConfigError("invariant_seed", "is required for inline models")
        if not isinstance(seed, str):
            return seed
        if seed == "identity":
            return linalg.identity(self.model.dim)
        if seed == "hamiltonian":
            return self.model.snapshot(self.grid.t_start).h
        return np.diag([1.0, -1.0]).astype(complex)  # "sz": the flow checks its dimension

    def lambda_final(self) -> np.ndarray:
        if "lambda_final" not in self.cfg:
            raise ConfigError("lambda_final", "is required for action-check")
        return self.cfg["lambda_final"]


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def _finish(setup: RunSetup, name: str, payload: dict, monitors, failure: str = "") -> int:
    """Write the JSON report with the tripped state monitors; exit 2 if any
    monitor tripped or the command's own check failed (``failure`` says how)."""
    violations = [monitor for monitor, tripped in (
        ("trace", monitors.max_trace_drift > TRACE_DRIFT_THRESHOLD),
        ("positivity", monitors.min_eigenvalue < MIN_EIGENVALUE_THRESHOLD),
        ("leakage", monitors.max_leakage > LEAKAGE_THRESHOLD),
    ) if tripped]
    payload["violations"] = violations
    _write_json(setup.out_dir / name, payload)
    if violations:
        print(f"monitor violation(s): {', '.join(violations)}", file=sys.stderr)
    if failure:
        print(failure, file=sys.stderr)
    return 2 if violations or failure else 0


def _state_flow(setup: RunSetup):
    """The state flow, its inputs checked here, leakage tracked if truncated."""
    trunc = setup.spec.truncation_dim
    return state_flow(setup.model, setup.rho0, setup.grid, setup.method,
                      leakage_index=None if trunc is None else trunc - 1)


def _flow_pair(setup: RunSetup, seed, seed_time: str, what: str):
    """``(state, run, inv, run_inv)``: the state flow, then the invariant
    flow from ``seed()`` at ``seed_time`` (its errors naming ``what``), each
    trajectory with the call that fills it. Each input is checked, and each
    trajectory made, as its flow is made; only then is the output directory
    created. Nothing runs here: the command runs the two ``beside`` each other."""
    state, run = _state_flow(setup)
    inv, run_inv = invariant_flow(setup.model, seed(), seed_time, setup.grid, setup.method,
                                  what=what)
    _make_dir(setup.out_dir, setup.out_field)
    return state, run, inv, run_inv


def cmd_simulate(args) -> int:
    setup = RunSetup(args)
    traj, run = _state_flow(setup)
    _make_dir(setup.out_dir, setup.out_field)
    monitors = run()
    write_trajectory_csv(traj, setup.out_dir / "state.csv")
    payload = monitors.to_dict()
    payload["grid"] = setup.grid.to_dict()
    return _finish(setup, "monitors.json", payload, monitors)


def cmd_invariant(args) -> int:
    from . import invariant
    setup = RunSetup(args)
    drift_bound = setup.cfg["drift_bound"]

    state, run, inv, run_inv = _flow_pair(setup, setup.invariant_seed, "start", "invariant seed")

    def child():  # the invariant flow, then its spectrum, beside the state flow
        run_inv()
        series = invariant.spectrum_series(inv)
        return series, invariant.spectrum_csv(series)
    (series, text), monitors = beside(child, run, "invariant flow")
    report = invariant.analyze(inv, state, series)

    invariant.write_expectation_csv(setup.grid, report.expectation,
                                    setup.out_dir / "expectation.csv")
    write_file(setup.out_dir / "spectrum.csv", [text])
    payload = report.to_dict()
    payload["drift_bound"] = drift_bound
    payload["monitors"] = monitors.to_dict()
    payload["grid"] = setup.grid.to_dict()
    failure = ""
    if report.max_expectation_drift > drift_bound:
        failure = (f"expectation drift {report.max_expectation_drift:.3e} exceeds "
                   f"bound {drift_bound:.3e}")
    return _finish(setup, "invariant_report.json", payload, monitors, failure)


def cmd_action_check(args) -> int:
    from .action import _flow_path, _gauge_terms, stationarity_report
    setup = RunSetup(args)
    residual_bound, drift_bound = setup.cfg["residual_bound"], setup.cfg["drift_bound"]
    state, run, lam, run_lam = _flow_pair(setup, setup.lambda_final, "end", "lambda_final")
    _, monitors = beside(run_lam, run, "invariant flow")
    path = _flow_path(state, lam)

    # gauge check on the same solution path, with a seeded random rate table, and the series of
    # <Lam>_k = tr(Lam_k rho_k), which the paper's claim holds constant, beside the report
    rng = np.random.default_rng(setup.seed)
    knots = np.linspace(setup.grid.t_start, setup.grid.t_end, 9)
    rate = tabulated(knots, list(rng.uniform(-1.0, 1.0, size=9)), name="lambda")
    ((shifted, rhs), series), report = beside(
        lambda: (_gauge_terms(path, setup.model, rate), conservation_series(lam, state)),
        lambda: stationarity_report(path, setup.model), "gauge check")
    gauge_defect = abs((shifted - report.action_value) - rhs)  # as gauge_shift_check
    node = int(np.argmax(np.abs(series - series[-1])))

    payload = report.to_dict()
    payload["gauge_defect"] = gauge_defect
    payload["residual_bound"] = residual_bound
    payload["lambda_expectation_drift"] = drift = float(abs(series[node] - series[-1]))
    payload["lambda_expectation_drift_node"] = node
    payload["drift_bound"] = drift_bound
    failure = ""
    if not (
        report.grad_rho_residual <= residual_bound
        and report.grad_lam_residual <= residual_bound
        and gauge_defect <= GAUGE_DEFECT_BOUND
        and drift <= drift_bound
    ):
        failure = (f"action check failed: residuals ({report.grad_rho_residual:.3e}, "
                   f"{report.grad_lam_residual:.3e}) vs bound {residual_bound:.3e}, "
                   f"gauge defect {gauge_defect:.3e} vs {GAUGE_DEFECT_BOUND:.1e}, "
                   f"lambda expectation drift {drift:.3e} at node {node} vs {drift_bound:.3e}")
    return _finish(setup, "action_report.json", payload, monitors, failure)


def cmd_verify(args) -> int:
    from . import verify
    seed = config.integer(args.seed, "seed")
    config.integer(args.trials, "trials", minimum=1)
    out_dir = Path(args.out) if args.out is not None else Path(".")
    _make_dir(out_dir, "--out")
    results = verify.run_all(seed, args.trials, break_adjoint=args.break_adjoint)
    all_pass = all(r.passed for r in results)
    payload = {
        "seed": seed,
        "trials": args.trials,
        "all_pass": all_pass,
        "properties": [r.to_dict() for r in results],
    }
    _write_json(out_dir / "verify_report.json", payload)
    for r in results:
        status = "pass" if r.passed else "FAIL"
        print(f"{status}  {r.name}: worst defect {r.worst_defect:.3e} "
              f"(tolerance {r.tolerance:.1e}, {r.trials} trials)")
    return 0 if all_pass else 2


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if args.command == "simulate":
            return cmd_simulate(args)
        if args.command == "invariant":
            return cmd_invariant(args)
        if args.command == "action-check":
            return cmd_action_check(args)
        return cmd_verify(args)
    except SystemExit as e:  # --help
        return int(e.code or 0)
    except BlowupError as e:
        print(f"error: {e} (step {e.step})", file=sys.stderr)
        return 2
    except IntegrationError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (ConfigError, ModelValidationError, NotHermitianError, ScheduleDomainError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except Exception as e:  # a fault of the program, not of its input
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return 3


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
