"""Numerics for Lindblad dynamics, weak invariants, and the discrete
auxiliary-operator action principle on small dense Hilbert spaces."""

from .action import (
    ActionReport,
    DiscretizedPath,
    auxiliary_trajectory,
    evaluate_action,
    gauge_shift_check,
    grad_lam,
    grad_rho,
    stationarity_check,
    stationarity_report,
)
from .dynamics import (
    MonitorReport,
    TimeGrid,
    Trajectory,
    conservation_series,
    integrate_invariant,
    integrate_state,
)
from .invariant import InvariantReport, SpectrumSeries, analyze, spectrum_series
from .model import Channel, LindbladModel, ModelSnapshot, Schedule
from .scenarios import (
    ScenarioSpec,
    amplitude_damping_qubit,
    damped_oscillator,
    dephasing_qubit,
)
from .superop import apply_adjoint, apply_liouvillian, build_liouvillian_matrix

__version__ = "0.1.0"
