"""Trajectories as one (n+1, d, d) stack: the batched Hermiticity gate, the
batched spectra against an independent oracle, and the CSV export, whole
and a block of rows at a time, against a per-cell formatter."""

import dataclasses
import os
import tempfile
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import HealthCheck, given, settings, strategies as st
from hypothesis.extra import numpy as hnp
from numpy.testing import assert_allclose

from helpers import (PLUS_STATE, SMINUS, SX, SZ, integrate_invariant, integrate_state,
                     random_density, random_hermitian)
from weakinv import action, dynamics, invariant, linalg, scenarios
from weakinv.dynamics import TimeGrid, Trajectory, conservation_series
from weakinv.errors import NotHermitianError
from weakinv.model import LindbladModel, constant


SMINUS3 = scenarios.lowering_operator(3)


def hermitian_stack(rng, n, dim):
    return np.stack([random_hermitian(rng, dim, amp=float(rng.uniform(0.1, 50.0)))
                     for _ in range(n)])


def stack_with_bad_node(rng, n, dim, bad):
    stack = hermitian_stack(rng, n, dim)
    stack[bad, 0, dim - 1] += 0.5  # breaks a_{0,d-1} = conj(a_{d-1,0})
    return stack


class TestBatchedEigenvalues:
    @pytest.mark.parametrize("dim", [1, 2, 5, 13])
    def test_rows_match_scipy(self, rng, dim):
        stack = hermitian_stack(rng, 9, dim)
        rows = linalg.hermitian_eigenvalues(stack)
        assert rows.shape == (9, dim)
        for a, row in zip(stack, rows):
            ref = scipy.linalg.eigvalsh(a)
            assert_allclose(row, ref, rtol=0, atol=1e-11 * max(1.0, linalg.maxabs(a)))

    def test_stack_rows_equal_single_calls(self, rng):
        stack = hermitian_stack(rng, 6, 4)
        rows = linalg.hermitian_eigenvalues(stack)
        for a, row in zip(stack, rows):
            assert_allclose(row, linalg.hermitian_eigenvalues(a), rtol=0, atol=1e-13 * linalg.maxabs(a))

    def test_no_hermitized_copy(self, rng):
        stack = linalg.hermitize(rng.standard_normal((2001, 20, 20))
                                 + 1j * rng.standard_normal((2001, 20, 20)))
        tracemalloc.start()
        try:
            rows = linalg.hermitian_eigenvalues(stack)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rows.shape == (2001, 20)
        assert peak <= 0.5 * stack.nbytes


class TestBatchedHermiticityGate:
    @pytest.mark.parametrize("bad", [0, 3, 6])
    def test_require_hermitian_names_node(self, rng, bad):
        stack = stack_with_bad_node(rng, 7, 3, bad)
        with pytest.raises(NotHermitianError, match=f"node {bad} .*defect"):
            linalg.require_hermitian(stack, what="rho")

    def test_hermitian_eigenvalues_names_node(self, rng):
        stack = stack_with_bad_node(rng, 7, 3, 4)
        with pytest.raises(NotHermitianError, match="node 4"):
            linalg.hermitian_eigenvalues(stack)

    @pytest.mark.parametrize("bad", [0.5, np.nan], ids=["non-hermitian", "nan"])
    def test_gate_on_a_flow_stack(self, rng, bad):
        # the state monitor reads eigvalsh directly off the flow's bitwise
        # Hermitian stack; the gate itself must still refuse a broken one
        traj, _ = integrate_state(LindbladModel(3, random_hermitian(rng, 3), [(SMINUS3, 0.4)]),
                                  random_density(rng, 3), TimeGrid(0.0, 1.0, 30))
        stack = traj.samples.copy()
        assert np.array_equal(stack, linalg.dagger(stack))
        stack[17, 0, 2] += bad
        with pytest.raises(NotHermitianError, match="node 17"):
            linalg.hermitian_eigenvalues(stack)

    @pytest.mark.parametrize("bad", [0.5, np.nan], ids=["non-hermitian", "nan"])
    @pytest.mark.parametrize("entry", ["path-rho", "path-lam", "spectrum", "spectrum-replaced"])
    def test_entry_points_check_a_users_flow_stack(self, rng, entry, bad):
        # the flows' own trajectories skip the check; a user's array built from
        # one, or a trajectory rebuilt around it, is checked
        m = LindbladModel(3, random_hermitian(rng, 3), [(SMINUS3, 0.4)])
        grid = TimeGrid(0.0, 1.0, 30)
        state, _ = integrate_state(m, random_density(rng, 3), grid)
        inv = integrate_invariant(m, random_hermitian(rng, 3), "end", grid)
        stacks = {"rho": state.samples.copy(), "lam": inv.samples.copy()}
        broken = stacks["rho" if entry == "path-rho" else "lam"]
        broken[17, 0, 2] += bad
        with pytest.raises(NotHermitianError, match="node 17"):
            if entry.startswith("path"):
                action.DiscretizedPath(grid=grid, **stacks)
            elif entry == "spectrum":
                invariant.spectrum_series(Trajectory(grid=grid, samples=broken, kind="invariant"))
            else:
                invariant.spectrum_series(dataclasses.replace(inv, samples=broken))

    def test_first_failing_node_is_named(self, rng):
        stack = stack_with_bad_node(rng, 7, 3, 5)
        stack[2, 1, 0] += 1.0
        with pytest.raises(NotHermitianError, match="node 2"):
            linalg.require_hermitian(stack)

    def test_tolerance_is_per_node(self):
        # the same absolute defect passes on a large node, fails on a small one
        big = 1e6 * SX
        big[0, 1] += 1e-8
        small = SX.copy()
        small[0, 1] += 1e-8
        linalg.require_hermitian(np.stack([big, SZ]))
        with pytest.raises(NotHermitianError, match="node 1"):
            linalg.require_hermitian(np.stack([big, small]))

    def test_returns_hermitian_part(self, rng):
        stack = hermitian_stack(rng, 5, 3)
        stack[:, 0, 1] += 1e-15
        out = linalg.require_hermitian(stack)
        assert out.shape == stack.shape
        for a, h in zip(stack, out):
            assert np.array_equal(h, linalg.hermitize(a))

    @pytest.mark.parametrize("which", ["rho", "lam"])
    def test_discretized_path_names_node(self, rng, which):
        grid = TimeGrid(0.0, 1.0, 6)
        good = hermitian_stack(rng, 7, 2)
        bad = stack_with_bad_node(rng, 7, 2, 5)
        stacks = {"rho": good, "lam": good, which: bad}
        with pytest.raises(NotHermitianError, match=rf"{which}\[5\].*node 5"):
            action.DiscretizedPath(grid=grid, **stacks)

    def test_node_named_past_the_first_block(self, rng):
        # a 64×64 stack is checked 2 nodes at a time
        grid = TimeGrid(0.0, 1.0, 39)
        good = hermitian_stack(rng, 40, 64)
        bad = stack_with_bad_node(rng, 40, 64, 37)
        with pytest.raises(NotHermitianError, match=r"lam\[37\] at node 37"):
            action.DiscretizedPath(grid=grid, rho=good, lam=bad)
        with pytest.raises(NotHermitianError, match="node 37"):
            linalg.check_hermitian(bad)

    def test_path_checks_without_copies(self, rng):
        # the check keeps no Hermitized copy: its traced peak stays a fraction
        # of one stack, and the path holds the caller's arrays
        n, dim = 40001, 4
        rho = linalg.hermitize(rng.standard_normal((n, dim, dim)) + 0j)
        lam = rho.copy()
        tracemalloc.start()
        try:
            path = action.DiscretizedPath(grid=TimeGrid(0.0, 1.0, n - 1), rho=rho, lam=lam)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert path.rho is rho and path.lam is lam
        assert peak <= 0.5 * rho.nbytes

    def test_gauge_shift_checks_no_node_again(self, monkeypatch):
        m = LindbladModel(2, SZ.copy(), [(SMINUS, 0.3)])
        grid = TimeGrid(0.0, 1.0, 50)
        state, _ = integrate_state(m, PLUS_STATE, grid)
        lam = integrate_invariant(m, SX, "end", grid)
        path = action.DiscretizedPath(grid=grid, rho=state.samples, lam=lam.samples)
        checks = []
        monkeypatch.setattr(linalg, "check_hermitian", lambda *a, **k: checks.append(k))
        assert action.gauge_shift_check(path, m, constant(0.7)) <= 1e-12
        assert checks == []

    def test_path_shape_mismatch(self, rng):
        grid = TimeGrid(0.0, 1.0, 2)
        with pytest.raises(ValueError, match="dimension mismatch"):
            action.DiscretizedPath(grid=grid, rho=hermitian_stack(rng, 3, 2),
                                   lam=hermitian_stack(rng, 3, 3))


class TestStackedTrajectory:
    def test_list_is_stacked(self):
        grid = TimeGrid(0.0, 1.0, 2)
        traj = Trajectory(grid=grid, samples=[np.eye(2)] * 3, kind="state")
        assert isinstance(traj.samples, np.ndarray)
        assert traj.samples.shape == (3, 2, 2)
        assert traj.samples.dtype == complex

    def test_integrators_return_stacks(self):
        m = LindbladModel(2, SZ.copy(), [(SMINUS, 0.3)])
        grid = TimeGrid(0.0, 1.0, 20)
        state, _ = integrate_state(m, PLUS_STATE, grid)
        for seed_time in ("start", "end"):
            inv = integrate_invariant(m, SX, seed_time, grid)
            assert inv.samples.shape == (21, 2, 2)
        assert state.samples.shape == (21, 2, 2)

    def test_monitors_match_per_node_values(self, rng):
        m = LindbladModel(4, random_hermitian(rng, 4), [(random_hermitian(rng, 4), 0.4)])
        traj, mon = integrate_state(m, random_density(rng, 4), TimeGrid(0.0, 1.0, 100),
                                    leakage_index=3)
        per_node_min = min(float(linalg.hermitian_eigenvalues(s)[0]) for s in traj.samples)
        assert mon.min_eigenvalue == pytest.approx(per_node_min, abs=1e-15)
        assert mon.max_leakage == max(float(s[3, 3].real) for s in traj.samples)
        tr0 = np.trace(traj.samples[0]).real
        drift = max(abs(np.trace(s).real - tr0) for s in traj.samples)
        assert mon.max_trace_drift == pytest.approx(drift, abs=1e-16)

    @pytest.mark.parametrize("dim", [2, 3, 6, 20])
    def test_conservation_series_bitwise_per_node(self, rng, dim):
        grid = TimeGrid(0.0, 1.0, 30)
        state = Trajectory(grid=grid, samples=[random_density(rng, dim) for _ in range(31)],
                           kind="state")
        inv = Trajectory(grid=grid, samples=hermitian_stack(rng, 31, dim), kind="invariant")
        per_node = [complex(np.einsum("jk,kj->", a, r)).real
                    for a, r in zip(inv.samples, state.samples)]
        assert np.array_equal(conservation_series(inv, state), per_node)

    def test_conservation_series_names_node(self, rng):
        grid = TimeGrid(0.0, 1.0, 4)
        state = Trajectory(grid=grid, samples=[np.diag([1.0, 0.0])] * 5, kind="state")
        inv_samples = np.stack([np.diag([1.0, 2.0]).astype(complex)] * 5)
        inv_samples[2, 0, 0] = 1.0 + 1e-3j
        inv = Trajectory(grid=grid, samples=inv_samples, kind="invariant")
        with pytest.raises(ValueError, match="node 2"):
            conservation_series(inv, state)


def per_cell_csv(traj):
    """The per-cell f-string writer that the savetxt export replaced."""
    d = traj.dim
    header = ["t"]
    for j in range(d):
        for k in range(d):
            header += [f"re_{j}_{k}", f"im_{j}_{k}"]
    lines = [",".join(header)]
    for t, s in zip(traj.grid.nodes(), traj.samples):
        cells = [f"{t:.17g}"]
        for v in s.reshape(-1):
            cells += [f"{v.real:.17g}", f"{v.imag:.17g}"]
        lines.append(",".join(cells))
    return ("\n".join(lines) + "\n").encode()


class TestCsvGoldenBytes:
    def test_special_values(self, tmp_path):
        specials = [-0.0, 5e-324, -5e-324, 1e300, -1e300, 0.1, -1.0 / 3.0, 2.0**-1074 * 3,
                    float("inf"), float("nan"), 1.0, 0.0]
        grid = TimeGrid(-0.3, 0.9, 2)
        samples = np.empty((3, 2, 2), dtype=complex)
        samples.real.flat = specials
        samples.imag.flat = specials[::-1]
        traj = Trajectory(grid=grid, samples=samples, kind="state")
        path = tmp_path / "s.csv"
        dynamics.write_trajectory_csv(traj, path)
        assert path.read_bytes() == per_cell_csv(traj)
        assert b"-0," in path.read_bytes() and b"4.9406564584124654e-324" in path.read_bytes()

    def test_integrated_trajectory(self, tmp_path, rng):
        m = LindbladModel(3, random_hermitian(rng, 3), [(random_hermitian(rng, 3), 0.2)])
        traj, _ = integrate_state(m, random_density(rng, 3), TimeGrid(0.0, 2.0, 50))
        path = tmp_path / "s.csv"
        dynamics.write_trajectory_csv(traj, path)
        assert path.read_bytes() == per_cell_csv(traj)


def per_value_csv(header, nodes, values):
    """``csv_chunks``' bytes, formatting every value on its own."""
    lines = [",".join(header)]
    for t, row in zip(np.asarray(nodes).tolist(), np.asarray(values).tolist()):
        lines.append(",".join("%.17g" % v for v in [t, *row]))
    return ("\n".join(lines) + "\n").encode()


NAN, INF = float("nan"), float("inf")


@st.composite
def tables(draw):
    """A float64 table of t and one ``dim``×``dim`` complex operator per row,
    some columns forced constant, and a block size in rows."""
    n, dim = draw(st.integers(1, 12)), draw(st.integers(1, 2))
    table = draw(hnp.arrays(np.float64, (n, 1 + 2 * dim * dim), elements=st.floats(width=64)))
    for j in draw(st.sets(st.integers(0, 2 * dim * dim))):
        table[:, j] = draw(st.floats(width=64))
    return table, dim, draw(st.integers(1, 5))


class TestCsvConstantColumns:
    """A column that is bitwise constant over a block of rows is formatted
    once for the block; the bytes must be those of formatting every value."""

    def rows(self, tmp_path, nodes, values):
        """``csv_chunks``' data rows, checked against the per-value oracle."""
        header = ["t"] + [f"c{j}" for j in range(np.shape(values)[1])]
        path = tmp_path / "table.csv"
        dynamics.write_file(path, dynamics.csv_chunks(header, nodes, values))
        assert path.read_bytes() == per_value_csv(header, nodes, values)
        return [line.split(",") for line in path.read_text().splitlines()[1:]]

    @pytest.mark.parametrize("value, text", [
        (0.0, "0"), (-0.0, "-0"), (0.1, "0.10000000000000001"), (NAN, "nan"), (INF, "inf"),
        (-INF, "-inf")])
    def test_constant_column(self, tmp_path, value, text):
        values = np.column_stack([np.full(5, value), np.arange(5.0) / 3.0])
        rows = self.rows(tmp_path, np.linspace(0.0, 1.0, 5), values)
        assert [row[1] for row in rows] == [text] * 5

    def test_signed_zeros_are_not_one_constant(self, tmp_path):
        rows = self.rows(tmp_path, [0.0, 0.5, 1.0], np.array([[0.0], [-0.0], [0.0]]))
        assert [row[1] for row in rows] == ["0", "-0", "0"]

    def test_constant_in_the_first_block_only(self, tmp_path, monkeypatch):
        monkeypatch.setattr(dynamics, "CSV_BLOCK_VALUES", 9)  # 3 rows of t and two values
        first = [1.5, 1.5, 1.5, 1.5, 2.5, 1.5, -0.0, 0.0]
        values = np.column_stack([first, np.full(8, 7.0)])
        rows = self.rows(tmp_path, np.arange(8.0), values)
        assert [row[1] for row in rows] == ["1.5"] * 4 + ["2.5", "1.5", "-0", "0"]

    @pytest.mark.parametrize("block_values", [1, dynamics.CSV_BLOCK_VALUES])
    @pytest.mark.parametrize("n_rows", [1, 4])
    def test_one_row_tables_and_blocks(self, tmp_path, monkeypatch, rng, block_values, n_rows):
        monkeypatch.setattr(dynamics, "CSV_BLOCK_VALUES", block_values)
        values = rng.standard_normal((n_rows, 3))
        values[:, 1] = NAN
        self.rows(tmp_path, rng.standard_normal(n_rows), values)

    def test_dense_table(self, tmp_path, monkeypatch, rng):
        monkeypatch.setattr(dynamics, "CSV_BLOCK_VALUES", 7 * 31)
        self.rows(tmp_path, np.linspace(-1.0, 1.0, 50), rng.standard_normal((50, 30)) * 1e5)

    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(table=tables())
    def test_matches_the_per_value_oracle(self, table):
        table, dim, block_rows = table
        n = len(table)
        with pytest.MonkeyPatch.context() as mp, tempfile.TemporaryDirectory() as tmp:
            mp.setattr(dynamics, "CSV_BLOCK_VALUES", block_rows * table.shape[1])
            header = ["t"] + [f"c{j}" for j in range(table.shape[1] - 1)]
            path = os.path.join(tmp, "table.csv")
            dynamics.write_file(path, dynamics.csv_chunks(header, table[:, 0], table[:, 1:]))
            with open(path, "rb") as f:
                assert f.read() == per_value_csv(header, table[:, 0], table[:, 1:])
            if n < 2:  # a grid has at least two nodes
                return
            grid = TimeGrid(0.0, 1.0, n - 1)
            samples = np.ascontiguousarray(table[:, 1:]).view(complex).reshape(n, dim, dim)
            traj = Trajectory(grid=grid, samples=samples, kind="state")
            dynamics.write_trajectory_csv(traj, path)
            with open(path, "rb") as f:
                assert f.read() == per_cell_csv(traj)


BLOCK_ROWS = 5


class TestStreamedCsv:
    """A flow's ``state.csv`` is formatted and written a block of rows at a
    time, in this process; the file must be byte for byte the per-cell one."""

    @pytest.mark.parametrize("n_steps", [1, 2, BLOCK_ROWS - 2, BLOCK_ROWS - 1, BLOCK_ROWS,
                                         BLOCK_ROWS + 1, 4 * BLOCK_ROWS + 1])
    @pytest.mark.parametrize("method", ["rk4", "midpoint"])
    @pytest.mark.parametrize("case", ["step-matrix", "driven"])
    def test_bytes_equal_the_per_cell_oracle(self, tmp_path, monkeypatch, case, method, n_steps):
        # a block is BLOCK_ROWS rows: the grids cover a table of one row less than,
        # exactly and one row more than a block, and one of five blocks and a row
        if case == "step-matrix":
            m, rho0 = LindbladModel(2, SZ.copy(), [(SMINUS, 0.3)]), PLUS_STATE
        else:
            spec = scenarios.damped_oscillator(n_trunc=6)
            m, rho0 = spec.model, spec.default_rho0
        monkeypatch.setattr(dynamics, "CSV_BLOCK_VALUES", BLOCK_ROWS * (1 + 2 * m.dim**2))
        grid = TimeGrid(0.0, 1.0, n_steps)
        path = tmp_path / "state.csv"
        traj, _ = integrate_state(m, rho0, grid, method)
        dynamics.write_trajectory_csv(traj, path)
        assert path.read_bytes() == per_cell_csv(traj)
        assert os.listdir(tmp_path) == ["state.csv"]
