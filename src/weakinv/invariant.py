"""Analysis of invariant trajectories.

A weak invariant conserves its expectation value along the state trajectory
while its spectrum may move; a strong invariant keeps its spectrum fixed
(the unitary limit). ``analyze`` quantifies both: the worst expectation
drift and the per-eigenvalue total variation, with a threshold-based
weak/strong-like classification.

Eigenvalue curves are matched by sorted index, not by continuity tracking;
sorted-index total variation lower-bounds any matched variation, which is
all the dichotomy needs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .dynamics import (
    INVARIANT,
    TimeGrid,
    Trajectory,
    conservation_series,
    csv_chunks,
    write_file,
)

# Classification threshold, relative to maxabs of the seed sample.
STRONG_THRESHOLD = 1e-6

__all__ = [
    "SpectrumSeries",
    "InvariantReport",
    "spectrum_series",
    "analyze",
    "spectrum_csv",
    "write_expectation_csv",
]


@dataclass(frozen=True)
class SpectrumSeries:
    grid: TimeGrid
    eigenvalues: np.ndarray  # (n_nodes, dim), each row ascending
    total_variation: np.ndarray  # (dim,), per sorted eigenvalue index


@dataclass(frozen=True)
class InvariantReport:
    """Drift, spectrum variation and classification, together with the
    conservation series and spectrum they were computed from."""

    max_expectation_drift: float
    classification: str  # "strong-like" | "weak"
    expectation: np.ndarray  # (n_nodes,), Re tr(I rho) per node
    spectrum: SpectrumSeries

    def to_dict(self) -> dict:
        return {
            "max_expectation_drift": self.max_expectation_drift,
            "spectrum_total_variation": [float(v) for v in self.spectrum.total_variation],
            "classification": self.classification,
        }


def spectrum_series(inv: Trajectory) -> SpectrumSeries:
    """Sorted eigenvalues per node plus per-index total variation."""
    if inv.kind != INVARIANT:
        raise ValueError("expected an invariant trajectory")
    eig = (np.linalg.eigvalsh if inv._hermitian else linalg.hermitian_eigenvalues)(inv.samples)
    tv = np.sum(np.abs(np.diff(eig, axis=0)), axis=0)
    return SpectrumSeries(grid=inv.grid, eigenvalues=eig, total_variation=tv)


def analyze(inv: Trajectory, state: Trajectory, spectrum: SpectrumSeries) -> InvariantReport:
    """Conservation drift plus the variation of ``spectrum``, which is
    ``spectrum_series(inv)``, taken by the caller, with classification.

    ``STRONG_THRESHOLD`` is relative to maxabs of the invariant's seed
    sample: trajectories whose largest per-eigenvalue total variation stays
    below it classify "strong-like", everything else "weak".
    """
    series = conservation_series(inv, state)
    drift = float(np.max(np.abs(series - series[0])))
    scale = linalg.maxabs(inv.samples[0])
    strong = float(np.max(spectrum.total_variation)) <= STRONG_THRESHOLD * scale
    return InvariantReport(
        max_expectation_drift=drift,
        classification="strong-like" if strong else "weak",
        expectation=series,
        spectrum=spectrum,
    )


def spectrum_csv(series: SpectrumSeries) -> bytes:
    """The CSV text of ``series``: t, lambda_1 .. lambda_dim (ascending per node)."""
    dim = series.eigenvalues.shape[1]
    header = ["t"] + [f"lambda_{j + 1}" for j in range(dim)]
    return b"".join(csv_chunks(header, series.grid.nodes(), series.eigenvalues))


def write_expectation_csv(grid: TimeGrid, values, path) -> None:
    """CSV export of a conservation series: t, expectation."""
    write_file(path, csv_chunks(["t", "expectation"], grid.nodes(), values))
