import json
import math
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from helpers import SMINUS, SZ
from weakinv import config, model, scenarios
from weakinv.dynamics import TimeGrid
from weakinv.errors import ConfigError, ModelValidationError, ScheduleDomainError


class TestSchedules:
    def test_constant_scalar(self):
        s = model.constant(0.5)
        assert s(0.0) == 0.5 and s(37.2) == 0.5
        assert s.is_constant and not s.is_operator_valued

    def test_constant_operator(self):
        s = model.constant(SZ)
        assert s.is_operator_valued
        assert_allclose(s(1.0), SZ)

    def test_sinusoidal(self):
        s = model.sinusoidal(0.1, 0.2, 1.0)
        assert s(4.8) == pytest.approx(0.1 + 0.2 * math.sin(4.8))
        assert not s.is_constant

    def test_sinusoidal_rejects_non_finite(self):
        with pytest.raises(ValueError, match="finite"):
            model.sinusoidal(float("inf"), 0.1, 1.0)

    def test_tabulated_interpolation(self):
        s = model.tabulated([0.0, 2.0], [0.0, 1.0])
        assert s(0.5) == pytest.approx(0.25)
        assert s(0.0) == 0.0 and s(2.0) == 1.0

    def test_tabulated_no_extrapolation(self):
        s = model.tabulated([0.0, 2.0], [0.0, 1.0], name="alpha-table")
        with pytest.raises(ScheduleDomainError, match="alpha-table"):
            s(2.5)
        # roundoff past the edge is not extrapolation
        assert s(2.0 + 1e-14) == pytest.approx(1.0)

    def test_tabulated_strictly_increasing(self):
        with pytest.raises(ValueError, match="increasing"):
            model.tabulated([0.0, 0.0, 1.0], [1.0, 2.0, 3.0])

    def test_tabulated_operator_values(self):
        s = model.tabulated([0.0, 1.0], [np.zeros((2, 2)), SZ])
        assert_allclose(s(0.5), 0.5 * SZ)

    def test_scaled_operator(self):
        omega = model.sinusoidal(1.0, 0.1, 1.0)
        s = model.scaled(omega, np.diag([0.0, 1.0]))
        assert_allclose(s(math.pi / 2), np.diag([0.0, 1.1]))

    def test_scaled_requires_scalar_factor(self):
        with pytest.raises(ValueError, match="scalar"):
            model.scaled(model.constant(SZ), SZ)


def _amp_damp_model(gamma=0.5):
    return model.LindbladModel(2, np.diag([0.0, 1.0]).astype(complex), [(SMINUS, gamma)])


class TestSnapshot:
    def test_constant_model_time_independent(self):
        m = _amp_damp_model()
        s0 = m.snapshot(0.0)
        s1 = m.snapshot(17.3)
        assert_allclose(s0.h, s1.h)
        assert_allclose(s0.channels[0].l_dag_l, s1.channels[0].l_dag_l)

    def test_pure_and_deterministic(self):
        m = model.LindbladModel(
            2,
            model.scaled(model.sinusoidal(1.0, 0.1, 1.0), np.diag([0.0, 1.0])),
            [(SMINUS, model.tabulated([0.0, 2.0], [0.0, 1.0]))],
        )
        a = m.snapshot(0.7)
        b = m.snapshot(0.7)
        assert np.array_equal(a.h, b.h)
        assert a.channels[0].alpha == b.channels[0].alpha

    def test_tabulated_alpha_interpolated(self):
        m = model.LindbladModel(2, SZ, [(SMINUS, model.tabulated([0.0, 2.0], [0.0, 1.0]))])
        assert m.snapshot(0.5).channels[0].alpha == pytest.approx(0.25)

    def test_scaled_hamiltonian_value(self):
        m = model.LindbladModel(
            2, model.scaled(model.sinusoidal(1.0, 0.1, 1.0), np.diag([0.0, 1.0]))
        )
        assert_allclose(m.snapshot(math.pi / 2).h, np.diag([0.0, 1.1]))

    def test_caches_products(self):
        s = _amp_damp_model().snapshot(0.0)
        assert_allclose(s.channels[0].l_dag, SMINUS.conj().T)
        assert_allclose(s.channels[0].l_dag_l, np.diag([0.0, 1.0]))

    def test_rejects_negative_alpha(self):
        m = model.LindbladModel(2, SZ, [(SMINUS, model.sinusoidal(0.1, 0.2, 1.0))])
        with pytest.raises(ModelValidationError, match="negative"):
            m.snapshot(4.8)

    def test_rejects_non_hermitian_hamiltonian(self):
        m = model.LindbladModel(2, SMINUS)
        with pytest.raises(ModelValidationError, match="Hermitian"):
            m.snapshot(0.0)

    def test_out_of_domain_names_schedule(self):
        m = model.LindbladModel(2, SZ, [(SMINUS, model.tabulated([0.0, 1.0], [0.1, 0.2]))])
        with pytest.raises(ScheduleDomainError, match=r"channels\[0\]\.alpha"):
            m.snapshot(3.0)


class TestValidate:
    def test_valid_model_empty_report(self):
        assert _amp_damp_model().on_grid(TimeGrid(0.0, 2.0, 2)).constant

    def test_flags_negative_rate(self):
        # alpha(4.8) = 0.1 + 0.2 sin(4.8) < 0 at the last node; 0 and 2.4 are fine
        m = model.LindbladModel(2, SZ, [(SMINUS, model.sinusoidal(0.1, 0.2, 1.0))])
        alpha = 0.1 + 0.2 * math.sin(4.8)
        assert alpha < 0
        with pytest.raises(ModelValidationError) as err:
            m.on_grid(TimeGrid(0.0, 4.8, 1))
        assert str(err.value) == f"channels[0].alpha: negative-rate {alpha} at t=4.8"

    def test_flags_non_hermitian_hamiltonian(self):
        # sigma_+ as H: defect |H - H†| = 1
        m = model.LindbladModel(2, SMINUS.conj().T)
        with pytest.raises(ModelValidationError,
                           match=r"hamiltonian not Hermitian at t=0\.5: defect 1\.000e\+00"):
            m.on_grid(TimeGrid(0.5, 1.0, 3))


def _driven_model():
    """Scaled sinusoidal H, constant jump operator, tabulated rate."""
    return model.LindbladModel(
        2,
        model.scaled(model.sinusoidal(1.0, 0.3, 2.0), np.diag([0.0, 1.0])),
        [(SMINUS, model.tabulated([0.0, 1.0, 3.0], [0.2, 0.9, 0.4]))],
    )


class _CountingRate(model.Schedule):
    """0.5 everywhere, but time-dependent as far as the model knows; counts calls."""

    def __init__(self):
        self.calls = 0

    def __call__(self, t):
        self.calls += 1
        return 0.5

    @property
    def is_operator_valued(self):
        return False


class TestOnGrid:
    def test_entries_equal_snapshots_bitwise(self):
        m = _driven_model()
        grid = TimeGrid(0.1, 2.9, 7)
        lattice = m.on_grid(grid)
        h, k, ch = lattice.h, lattice.effective_hamiltonian(), lattice.channels[0]
        assert h.shape == k.shape == (2 * grid.n_steps + 1, 2, 2)
        assert ch.alpha.shape == (2 * grid.n_steps + 1, 1, 1)
        nodes = grid.nodes()
        for n in range(grid.n_steps + 1):
            for entry, t in [(2 * n, nodes[n])] + ([(2 * n + 1, grid.midpoints()[n])]
                                                   if n < grid.n_steps else []):
                ref = m.snapshot(t)
                assert np.array_equal(h[entry], ref.h)
                assert k[entry].tobytes() == ref.effective_hamiltonian().tobytes()
                assert ch.alpha[entry, 0, 0] == ref.channels[0].alpha
                assert np.array_equal(ch.l_dag_l, ref.channels[0].l_dag_l)

    def test_time_independent_parts_shared(self):
        # one value shared by every entry; a stack over the entries where it varies
        lattice = _driven_model().on_grid(TimeGrid(0.0, 3.0, 10))
        ch = lattice.channels[0]
        assert ch.l.shape == ch.l_dag.shape == ch.l_dag_l.shape == lattice.operator.shape == (2, 2)
        assert ch.alpha.shape == lattice.scale.shape == (21, 1, 1)
        assert not lattice.constant and lattice.k0 is None
        m = model.LindbladModel(2, SZ, [(SMINUS, model.tabulated([0.0, 1.0], [0.1, 0.2]))])
        lattice = m.on_grid(TimeGrid(0.0, 1.0, 4))
        assert lattice.h is lattice.operator and lattice.h.shape == (2, 2)
        assert len(set(lattice.channels[0].alpha.ravel().tolist())) == 9

    def test_constant_model_is_one_snapshot(self):
        lattice = _amp_damp_model().on_grid(TimeGrid(0.0, 1.0, 50))
        assert lattice.constant and lattice.k0 is not None and lattice.h.shape == (2, 2)
        assert all(np.ndim(ch.alpha) == 0 and ch.l.shape == (2, 2) for ch in lattice.channels)
        part = lattice.part(3, 40, 2)
        assert part.constant and part.operator is lattice.operator and part.k0 is lattice.k0

    def test_last_grid_kept(self):
        m = _driven_model()
        snaps = m.on_grid(TimeGrid(0.0, 1.0, 4))
        assert m.on_grid(TimeGrid(0.0, 1.0, 4)) is snaps
        assert m.on_grid(TimeGrid(0.0, 1.0, 5)) is not snaps

    def test_each_schedule_evaluated_once_per_time(self):
        rate = _CountingRate()
        m = model.LindbladModel(2, SZ, [(SMINUS, rate)])
        m.on_grid(TimeGrid(0.0, 1.0, 6))
        assert rate.calls == 13
        m.on_grid(TimeGrid(0.0, 1.0, 6))
        assert rate.calls == 13

    def test_out_of_domain_names_schedule(self):
        m = model.LindbladModel(2, SZ, [(SMINUS, model.tabulated([0.0, 1.0], [0.1, 0.2]))])
        with pytest.raises(ScheduleDomainError, match=r"channels\[0\]\.alpha"):
            m.on_grid(TimeGrid(0.0, 2.0, 4))


class TestAffineLattice:
    """A ``scaled`` Hamiltonian is kept as c(t) per time and one shared M."""

    def test_h_is_scale_times_shared_operator_bitwise(self):
        omega = model.sinusoidal(1.0, 0.1, 1.0)
        m_op = np.diag([0.5, 1.5, 2.5]).astype(complex)
        m = model.LindbladModel(3, model.scaled(omega, m_op), [(np.eye(3, k=1), 0.1)])
        grid = TimeGrid(0.0, 5.0, 40)
        lattice = m.on_grid(grid)
        assert lattice.operator.shape == lattice.k0.shape == (3, 3)
        times = grid.t_start + (0.5 * grid.dt) * np.arange(2 * grid.n_steps + 1)
        h = lattice.h
        for t, h_t in zip(times.tolist(), h, strict=True):
            assert np.array_equal(h_t, float(omega(t)) * m_op)

    def test_non_hermitian_scaled_operator_named_at_first_time(self):
        m = model.LindbladModel(2, model.scaled(model.sinusoidal(1.0, 0.1, 1.0),
                                                SMINUS.conj().T))
        with pytest.raises(ModelValidationError,
                           match=r"hamiltonian not Hermitian at t=0\.5: defect 1\.000e\+00"):
            m.on_grid(TimeGrid(0.5, 1.0, 3))

    def test_damped_oscillator_lattice_holds_no_operator_stack(self):
        spec = scenarios.damped_oscillator()
        tracemalloc.start()
        try:
            spec.model.on_grid(spec.default_grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one 20×20 complex H per time would be 64 MB on the 10001-entry lattice
        assert peak < 8 * 2**20

    def test_damped_oscillator_lattice_holds_one_scale_stack(self):
        # c(t) as one (n, 1, 1) array, 80 KB on the 10001-entry lattice, and no
        # object per entry: one snapshot per entry held ~1 MB
        spec = scenarios.damped_oscillator()
        tracemalloc.start()
        try:
            lattice = spec.model.on_grid(spec.default_grid)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert lattice is spec.model.on_grid(spec.default_grid)
        assert held < 256 * 2**10

    def test_damped_oscillator_build_samples_its_default_grid(self):
        # the build samples the default grid, so the two tests above see the
        # kept lattice; the build itself holds one scale stack and no
        # operator stack, and its peak stays far below one H per time
        tracemalloc.start()
        try:
            spec = scenarios.damped_oscillator()
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        lattice = spec.model.on_grid(spec.default_grid)
        assert lattice.scale.shape == (10001, 1, 1) and lattice.operator.shape == (20, 20)
        assert held < 256 * 2**10 and peak < 8 * 2**20


class TestModelConstruction:
    def test_dim_mismatch_in_constant_operator(self):
        with pytest.raises(ValueError, match="dimension"):
            model.LindbladModel(3, SZ)

    def test_alpha_must_be_scalar(self):
        with pytest.raises(ValueError, match="scalar"):
            model.Channel(SMINUS, model.constant(SZ))

    def test_op_must_be_operator(self):
        with pytest.raises(ValueError, match="operator-valued"):
            model.Channel(model.constant(0.5), 0.5)


class TestConfigParsing:
    def test_round_trip(self):
        cfg = {
            "dim": 2,
            "hamiltonian": {"kind": "constant", "value": [[0, 0], [0, 0], [0, 0], [1, 0]]},
            "channels": [
                {
                    "op": {"kind": "constant", "value": [[0, 0], [1, 0], [0, 0], [0, 0]]},
                    "alpha": {"kind": "constant", "value": 0.5},
                }
            ],
        }
        m = config.model_from_config(cfg)
        assert m.dim == 2
        s = m.snapshot(0.0)
        assert_allclose(s.h, np.diag([0.0, 1.0]))
        assert s.channels[0].alpha == 0.5

    def test_sinusoidal_and_tabulated(self):
        cfg = {
            "dim": 2,
            "hamiltonian": {
                "kind": "scaled",
                "scalar": {"kind": "sinusoidal", "offset": 1.0, "amplitude": 0.1, "omega": 1.0},
                "matrix": [[0, 0], [0, 0], [0, 0], [1, 0]],
            },
            "channels": [
                {
                    "op": {"kind": "constant", "value": [[0, 0], [1, 0], [0, 0], [0, 0]]},
                    "alpha": {"kind": "tabulated", "times": [0.0, 2.0], "values": [0.0, 1.0]},
                }
            ],
        }
        m = config.model_from_config(cfg)
        assert m.snapshot(0.5).channels[0].alpha == pytest.approx(0.25)

    @pytest.mark.parametrize(
        "mutate, field",
        [
            (lambda c: c.pop("dim"), "model.dim"),
            (lambda c: c.update(dim=0), "model.dim"),
            (lambda c: c["hamiltonian"].update(kind="spline"), "model.hamiltonian.kind"),
            (lambda c: c["hamiltonian"].pop("value"), "model.hamiltonian.value"),
            (
                lambda c: c["channels"][0]["op"].update(value=[[1, 0], [0, 0], [0, 0]]),
                "model.channels[0].op.value",
            ),
        ],
    )
    def test_errors_name_fields(self, mutate, field):
        cfg = {
            "dim": 2,
            "hamiltonian": {"kind": "constant", "value": [[0, 0], [0, 0], [0, 0], [1, 0]]},
            "channels": [
                {
                    "op": {"kind": "constant", "value": [[0, 0], [1, 0], [0, 0], [0, 0]]},
                    "alpha": {"kind": "constant", "value": 0.5},
                }
            ],
        }
        mutate(cfg)
        with pytest.raises(ConfigError) as err:
            config.model_from_config(cfg)
        assert err.value.field == field


class TestNonFiniteOperators:
    """A sampled H or jump operator with a NaN or infinite entry is a model
    error naming the schedule and the time, not a failed integration; a
    table refuses such an operator knot, and a scaled schedule such an
    operator, when it is built."""

    def test_scaled_hamiltonian(self):
        # the scaled operator M is refused when the schedule is built, naming it
        h = np.array([[1.0, math.nan], [math.nan, 0.0]])
        with pytest.raises(ValueError, match=r"^scaled: operator has non-finite entries$"):
            model.scaled(model.constant(1.0), h)

    def test_tabulated_channel(self):
        # a table refuses a non-finite operator knot when it is built, naming
        # the knot, so no 0 * inf can reach a sample next to it
        bad = SMINUS.copy()
        bad[0, 1] = math.inf
        with pytest.raises(ValueError, match=r"^channel op: operator knot 2 at t=1\.5 "
                                             r"has non-finite entries$"):
            model.tabulated([0.0, 1.0, 1.5], [SMINUS, SMINUS, bad], name="channel op")

    def test_tabulated_hamiltonian(self):
        bad = np.diag([0.0, math.nan])
        with pytest.raises(ValueError, match=r"^tabulated: operator knot 1 at t=1\.0 "
                                             r"has non-finite entries$"):
            model.tabulated([0.0, 1.0], [SZ, bad])

    def test_cli_exits_1(self, tmp_path, monkeypatch, capsys):
        from weakinv import cli
        h = np.array([[1.0, math.nan], [math.nan, 0.0]])
        spec = scenarios.amplitude_damping_qubit()

        def bad_scenario(name, **kw):
            bad = model.LindbladModel(
                2, model.scaled(model.constant(1.0), h, name="hamiltonian"), [(SMINUS, 0.5)])
            return scenarios.ScenarioSpec(name, bad, spec.default_rho0,
                                          spec.default_invariant_seed, spec.default_grid)

        monkeypatch.setattr(cli, "build_scenario", bad_scenario)
        assert cli.main(["simulate", "amp-damp", "--steps", "20", "--out", str(tmp_path)]) == 1
        assert "hamiltonian: operator has non-finite entries" in capsys.readouterr().err


class TestNonFiniteScalars:
    """A sampled rate or ``scaled``-H scale that is not finite (an overflow,
    say) is a model error naming the schedule and the first such time, as a
    negative rate is; a sinusoid of a non-finite argument is NaN, not an
    error of ``math.sin``."""

    def test_sinusoid_of_a_non_finite_argument_is_nan(self):
        s = model.sinusoidal(1.0, 0.5, 1e308)
        assert s(1.0) == 1.0 + 0.5 * math.sin(1e308)
        assert math.isnan(s(2.0))  # omega * t overflows
        assert math.isnan(s(math.inf)) and math.isnan(s(math.nan))

    def test_overflowing_rate(self):
        # 1e308 + 1e308 sin(t) overflows where sin(t) > 0.798, from t = 0.95 on this grid
        m = model.LindbladModel(2, SZ, [(SMINUS, model.sinusoidal(1e308, 1e308, 1.0))])
        with pytest.raises(ModelValidationError,
                           match=r"^channels\[0\]\.alpha: non-finite rate inf at t=0\.95"):
            m.on_grid(TimeGrid(0.0, 2.0, 20))

    def test_overflowing_scale(self):
        h = model.scaled(model.sinusoidal(1.0, 0.5, 1e308), SZ)
        m = model.LindbladModel(2, h, [(SMINUS, 0.5)])
        with pytest.raises(ModelValidationError,
                           match=r"^hamiltonian: non-finite scale nan at t=2\.0$"):
            m.on_grid(TimeGrid(0.0, 4.0, 2))  # entries at t = 0, 1, 2, 3, 4
        with pytest.raises(ModelValidationError, match=r"^hamiltonian: non-finite scale nan"):
            m.snapshot(3.0)

    def test_overflowing_scaled_hamiltonian(self):
        # c and M are finite, but c M overflows: from the first time for a
        # constant c, and for c = 1e300 + 1e300 sin(t) against M's 1e8 where
        # sin(t) > 0.798, from t = 0.95 on this grid
        for scalar, entry, first in [(model.constant(1e300), 1e10, r"0\.0"),
                                     (model.sinusoidal(1e300, 1e300, 1.0), 1e8, r"0\.95")]:
            h = model.scaled(scalar, np.diag([entry, -entry]))
            m = model.LindbladModel(2, h, [(SMINUS, 0.5)])
            with pytest.raises(ModelValidationError,
                               match=rf"^hamiltonian: non-finite entry at t={first}"):
                m.on_grid(TimeGrid(0.0, 2.0, 20))

    def test_overflowing_scaled_hamiltonian_exits_1(self, tmp_path, capsys):
        from weakinv import cli
        h = {"kind": "scaled", "matrix": [[1e10, 0], [0, 0], [0, 0], [-1e10, 0]],
             "scalar": {"kind": "constant", "value": 1e300}}
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"scenario": {"dim": 2, "hamiltonian": h, "channels": []},
                                   "grid": {"t_start": 0.0, "t_end": 2.0, "n_steps": 20}}))
        out = tmp_path / "out"
        assert cli.main(["simulate", "--config", str(cfg), "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: hamiltonian: non-finite entry at t=0.0\n"
        assert not out.exists()

    def test_nan_rate(self):
        m = model.LindbladModel(2, SZ, [(SMINUS, _NanRate())])
        with pytest.raises(ModelValidationError,
                           match=r"^channels\[0\]\.alpha: non-finite rate nan at t=0\.5$"):
            m.snapshot(0.5)

    @pytest.mark.parametrize("scenario, message", [
        ({"dim": 2, "hamiltonian": {"kind": "constant", "value": [[0, 0], [0, 0], [0, 0], [1, 0]]},
          "channels": [{"op": {"kind": "constant", "value": [[0, 0], [1, 0], [0, 0], [0, 0]]},
                        "alpha": {"kind": "sinusoidal", "offset": 1e308, "amplitude": 1e308,
                                  "omega": 1.0}}]},
         "error: channels[0].alpha: non-finite rate inf at t="),
        ({"dim": 2, "hamiltonian": {"kind": "scaled", "matrix": [[1, 0], [0, 0], [0, 0], [-1, 0]],
                                    "scalar": {"kind": "sinusoidal", "offset": 1.0,
                                               "amplitude": 0.5, "omega": 1e308}},
          "channels": []},
         "error: hamiltonian: non-finite scale nan at t="),
    ], ids=["rate", "scale"])
    def test_cli_exits_1(self, tmp_path, capsys, scenario, message):
        from weakinv import cli
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"scenario": scenario,
                                   "grid": {"t_start": 0.0, "t_end": 2.0, "n_steps": 20}}))
        out = tmp_path / "out"
        assert cli.main(["simulate", "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(message) and err.count("\n") == 1
        assert not out.exists()


class _NanRate(model.Schedule):
    is_operator_valued = False

    def __call__(self, t):
        return math.nan


class TestScheduleValues:
    """``values`` equals one call per time, bitwise."""

    TIMES = (np.linspace(0.0, 3.0, 301) + 1e-3 * np.sin(np.arange(301))).clip(0.0, 3.0)

    @pytest.mark.parametrize("sched", [
        model.tabulated([0.0, 0.7, 1.9, 3.0], [0.2, -1.3, 0.45, 2.0]),
        model.sinusoidal(0.4, 0.2, 3.0, 0.1),
        model.constant(0.3),
        model.constant(SZ + 0.5 * SMINUS),
        model.tabulated([0.0, 0.7, 3.0], [SZ, SMINUS, 1j * SZ - SMINUS.T]),
        model.scaled(model.sinusoidal(0.4, 0.2, 3.0, 0.1), SMINUS + SMINUS.T),
    ], ids=["tabulated", "sinusoidal", "constant", "constant-operator", "operator-table",
            "scaled"])
    def test_bitwise_per_call(self, sched):
        times = self.TIMES.tolist()
        assert np.array(sched.values(times)).tobytes() == \
            np.array([sched(t) for t in times]).tobytes()

    def test_operator_table_per_call(self):
        sched = model.tabulated([0.0, 3.0], [SZ, SMINUS])
        for got, t in zip(sched.values([0.0, 1.3, 3.0]), [0.0, 1.3, 3.0]):
            assert np.array_equal(got, sched(t))

    @pytest.mark.parametrize("n_knots", [11, 51])
    def test_tabulated_blend_adds_the_second_knot_a_block_at_a_time(self, n_knots):
        # d=8 on 5000 steps: w A_k+1 is gathered a block of BLOCK_ENTRIES entries at a
        # time, so the one gathered stack sets the peak (both whole peaked at ~2.04), and
        # the checks run a block at a time (a per-time list and its np.stack copy peaked
        # at about 2.35 stacks)
        rng = np.random.default_rng(3)
        knots = np.linspace(0.0, 5.0, n_knots)
        ms = rng.standard_normal((n_knots, 8, 8)) + 1j * rng.standard_normal((n_knots, 8, 8))
        h = model.tabulated(knots, list(ms + ms.conj().swapaxes(1, 2)))
        m, grid = model.LindbladModel(8, h, [(np.eye(8, k=1), 0.3)]), TimeGrid(0.0, 5.0, 5000)
        tracemalloc.start()
        try:
            lattice = m.on_grid(grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert lattice.operator.shape == (10001, 8, 8)
        assert peak <= 1.25 * lattice.operator.nbytes
        times = grid.t_start + (0.5 * grid.dt) * np.arange(10001)
        for j in range(0, 10001, 97):  # across many blocks: bitwise one call per time
            assert lattice.operator[j].tobytes() == h(times[j]).tobytes()

    def test_domain_error_names_the_first_time_outside(self):
        sched = model.tabulated([0.0, 1.0], [0.1, 0.2], name="lambda")
        with pytest.raises(ScheduleDomainError,
                           match=r"^lambda: t=1\.5 outside tabulated range \[0\.0, 1\.0\]$"):
            sched.values([0.5, 1.5, -2.0, 3.0])
        # the table's edges, up to roundoff, are inside
        assert sched.values([-1e-13, 1.0 + 1e-13]).tolist() == [0.1, 0.2]
