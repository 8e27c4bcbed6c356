"""Built-in example systems used by the CLI and the test suite."""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from . import config, linalg, model
from .dynamics import TimeGrid
from .errors import ConfigError

# Runs whose top-level population ever exceeds this are flagged invalid:
# probability has leaked out of the retained basis and conservation numbers
# can no longer be trusted.
LEAKAGE_THRESHOLD = 1e-6

__all__ = [
    "ScenarioSpec",
    "amplitude_damping_qubit",
    "dephasing_qubit",
    "damped_oscillator",
    "lowering_operator",
    "build_scenario",
    "SCENARIOS",
    "LEAKAGE_THRESHOLD",
]

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
SIGMA_MINUS = np.array([[0, 1], [0, 0]], dtype=complex)


@dataclass(frozen=True)
class ScenarioSpec:
    """A model and its run defaults; an inline model (name "inline") has
    rho0 I/d and no default grid or invariant seed (None)."""

    name: str
    model: model.LindbladModel
    default_rho0: np.ndarray
    default_invariant_seed: np.ndarray | None
    default_grid: TimeGrid | None
    truncation_dim: int | None = None


def _qubit(name, h, jump, gamma, rho0, seed) -> ScenarioSpec:
    """A qubit with Hamiltonian ``h`` and one ``jump`` channel at the
    constant rate ``gamma`` (≥ 0), on the grid [0, 5] of 5000 steps."""
    if gamma < 0:
        raise ConfigError("scenario_args.gamma", "must be ≥ 0")
    m = model.LindbladModel(2, h, [(jump, float(gamma))])
    return ScenarioSpec(name, m, rho0, seed, TimeGrid(0.0, 5.0, 5000))


def amplitude_damping_qubit(omega: float = 1.0, gamma: float = 0.5) -> ScenarioSpec:
    """Qubit with H = omega * diag(0, 1) and one lowering channel at rate gamma.

    The excited population decays as exp(-2 gamma t).
    """
    excited = np.diag([0.0, 1.0]).astype(complex)
    return _qubit("amp-damp", omega * excited, SIGMA_MINUS, gamma, excited.copy(),
                  SIGMA_Z.copy())


def dephasing_qubit(omega: float = 1.0, gamma: float = 0.25) -> ScenarioSpec:
    """Qubit with H = (omega/2) sigma_z and a sigma_z channel at rate gamma.

    Populations are conserved exactly; coherences decay at rate 4 gamma.
    """
    plus = 0.5 * np.ones((2, 2), dtype=complex)  # |+><+|
    return _qubit("dephase", 0.5 * omega * SIGMA_Z, SIGMA_Z.copy(), gamma, plus, SIGMA_X.copy())


def lowering_operator(dim: int) -> np.ndarray:
    """Ladder operator with a|n> = sqrt(n) |n-1> on the truncated basis."""
    a = np.zeros((dim, dim), dtype=complex)
    for n in range(1, dim):
        a[n - 1, n] = math.sqrt(n)
    return a


def _coherent_like_state(dim: int) -> np.ndarray:
    """Fixed initial state: amplitudes (1, 1, 1/sqrt(2), 1/sqrt(6)) on the four
    lowest levels (a unit-displacement coherent state cut at n = 3), normalized."""
    psi = np.zeros(dim, dtype=complex)
    psi[:4] = [1.0, 1.0, 1.0 / math.sqrt(2.0), 1.0 / math.sqrt(6.0)]
    psi /= np.linalg.norm(psi)
    return np.outer(psi, psi.conj())


def damped_oscillator(
    n_trunc: int = 20,
    omega_schedule=None,
    gamma_schedule=None,
) -> ScenarioSpec:
    """Truncated harmonic oscillator with H(t) = omega(t) (a†a + 1/2) and a
    lowering channel at rate gamma(t).

    Defaults: omega(t) = 1 + 0.1 sin(t), gamma = 0.1. The truncation is hard
    (no renormalization of leaked probability); the leakage monitor watches
    the population of the top retained level. ``n_trunc`` must be at least 4,
    because the default initial state fills the four lowest levels. The model
    is sampled on its default grid here: a negative rate there fails at once.
    """
    n_trunc = int(n_trunc)
    if n_trunc < 4:
        raise ConfigError("scenario_args.n_trunc", "must be ≥ 4")
    if omega_schedule is None:
        omega_schedule = model.sinusoidal(1.0, 0.1, 1.0, name="omega")
    elif isinstance(omega_schedule, numbers.Real):
        omega_schedule = model.constant(float(omega_schedule), name="omega")
    if gamma_schedule is None:
        gamma_schedule = model.constant(0.1, name="gamma")
    elif isinstance(gamma_schedule, numbers.Real):
        gamma_schedule = model.constant(float(gamma_schedule), name="gamma")

    a = lowering_operator(n_trunc)
    number_plus_half = linalg.dagger(a) @ a + 0.5 * linalg.identity(n_trunc)
    h_sched = model.scaled(omega_schedule, number_plus_half, name="hamiltonian")
    m = model.LindbladModel(n_trunc, h_sched, [(a, gamma_schedule)])
    grid = TimeGrid(0.0, 5.0, 5000)
    m.on_grid(grid)

    seed = float(omega_schedule(grid.t_start)) * number_plus_half
    return ScenarioSpec(
        name="damped-ho",
        model=m,
        default_rho0=_coherent_like_state(n_trunc),
        default_invariant_seed=seed,
        default_grid=grid,
        truncation_dim=n_trunc,
    )


SCENARIOS = {
    "amp-damp": amplitude_damping_qubit,
    "dephase": dephasing_qubit,
    "damped-ho": damped_oscillator,
}


def build_scenario(name: str, /, **kwargs) -> ScenarioSpec:
    """The scenario ``name``, its builder's arguments ``kwargs`` read by
    ``config.SCENARIO_ARGS`` (names and types, as ``scenario_args``); the
    builder checks its own ranges. Any error of the input is a
    ``ConfigError``; any other exception is a fault of the program."""
    builder = SCENARIOS.get(name)
    if builder is None:
        raise ConfigError("scenario", f"unknown scenario {name!r}; "
                          f"expected one of {sorted(SCENARIOS)}")
    return builder(**config.read(kwargs, config.SCENARIO_ARGS[name], "scenario_args"))
