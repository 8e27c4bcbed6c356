"""Isolated per-call timings of single layers at fixed sizes.

Each figure is the median over several batches of the mean time per call,
with the batch size grown until a batch lasts ``BATCH_SECONDS``.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

BATCH_SECONDS = 0.02
BATCHES = 7

METRICS = {
    **{f"superop.apply_liouvillian_us.d{d}": "us" for d in (2, 8, 20)},
    **{f"superop.apply_adjoint_us.d{d}": "us" for d in (2, 8, 20)},
    "superop.build_liouvillian_matrix_ms.d20": "ms",
    "superop.apply_adjoint_gflops.d20": "GFLOP/s",
    "model.snapshot_us.const": "us",
    "model.snapshot_us.driven": "us",
    "linalg.hermitian_eigenvalues_us.d2": "us",
    "linalg.hermitian_eigenvalues_us.d20": "us",
}


def per_call_seconds(fn, *args) -> float:
    number = 1
    while True:
        start = time.perf_counter()
        for _ in range(number):
            fn(*args)
        if time.perf_counter() - start >= BATCH_SECONDS:
            break
        number *= 2
    samples = []
    for _ in range(BATCHES):
        start = time.perf_counter()
        for _ in range(number):
            fn(*args)
        samples.append((time.perf_counter() - start) / number)
    return statistics.median(samples)


def apply_adjoint_flops(dim: int, n_channels: int) -> int:
    """Real flops of the matrix products in ``apply_adjoint``: the commutator
    takes 2 complex d x d products and each channel 4, at 8 d^3 flops each."""
    return (2 + 4 * n_channels) * 8 * dim**3


def measure(seed: int) -> dict:
    """Every figure named in ``METRICS``, from inputs drawn with ``seed``."""
    from weakinv import linalg, scenarios, superop
    from weakinv.model import LindbladModel
    from workloads import random_density, random_hermitian, random_jump

    rng = np.random.default_rng(seed)
    out = {}
    for d in (2, 8, 20):
        model = LindbladModel(d, random_hermitian(rng, d), [(random_jump(rng, d), 0.5)])
        snap = model.snapshot(0.0)
        rho = random_density(rng, d)
        a = random_hermitian(rng, d)
        liouvillian = per_call_seconds(superop.apply_liouvillian, snap, rho)
        adjoint = per_call_seconds(superop.apply_adjoint, snap, a)
        out[f"superop.apply_liouvillian_us.d{d}"] = 1e6 * liouvillian
        out[f"superop.apply_adjoint_us.d{d}"] = 1e6 * adjoint
        if d == 20:
            out["superop.build_liouvillian_matrix_ms.d20"] = (
                1e3 * per_call_seconds(superop.build_liouvillian_matrix, snap))
            out["superop.apply_adjoint_gflops.d20"] = apply_adjoint_flops(d, 1) / adjoint / 1e9

    const = scenarios.amplitude_damping_qubit().model
    const.snapshot(0.0)
    out["model.snapshot_us.const"] = 1e6 * per_call_seconds(const.snapshot, 0.5)
    driven = scenarios.damped_oscillator(20).model
    out["model.snapshot_us.driven"] = 1e6 * per_call_seconds(driven.snapshot, 0.5)

    for d in (2, 20):
        a = random_hermitian(rng, d)
        out[f"linalg.hermitian_eigenvalues_us.d{d}"] = (
            1e6 * per_call_seconds(linalg.hermitian_eigenvalues, a))
    return out
