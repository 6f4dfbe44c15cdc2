"""Time integration: equilibria, convergence order, monitors, determinism."""

import dataclasses
from pathlib import Path

import numpy as np
import pytest

from contourdyn import muskat, waterwaves
from contourdyn.cli import initial_state
from contourdyn.config import parse_config
from contourdyn.errors import BottomContact, StabilityFailure, ValidationError
from contourdyn.evolve import SimConfig, SimState, pv_all_nodes, run, step
from contourdyn.geometry import Grid, InterfaceCurve, Model, PhysicalParams, far_field_mask, min_depth
from contourdyn.kernels import VorticityStrength, node_operator, solve_tangential
from contourdyn.muskat import solve_vorticity_equal
from contourdyn.io import MemorySink
from contourdyn.profiles import InitialSpec, build_initial, plateau_window

from support import bump_curve, gaussian_strength

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
CONTRAST = {"mu_plus": 2.0, "mu_minus": 0.5}


def stable_params(**kw) -> PhysicalParams:
    defaults = dict(mu_plus=1.0, mu_minus=1.0, rho_plus=1.0, rho_minus=2.0, g=1.0, gamma=0.0)
    defaults.update(kw)
    return PhysicalParams(model=Model.MUSKAT, **defaults)


def flat_state(grid: Grid, params: PhysicalParams) -> SimState:
    curve = InterfaceCurve(grid, grid.alpha.copy(), np.ones(grid.node_count))
    if params.model is Model.MUSKAT:
        omega = solve_vorticity_equal(curve, params) if params.mu_plus == params.mu_minus \
            else VorticityStrength(grid, np.zeros(grid.node_count))
    else:
        omega = VorticityStrength(grid, np.zeros(grid.node_count))
    return SimState(curve, omega, 0.0)


def trough_state(grid: Grid, params: PhysicalParams, amplitude: float = -0.3) -> SimState:
    w = plateau_window(grid.alpha, 5.0, 5.0)
    curve = InterfaceCurve(grid, grid.alpha.copy(), 1.0 + amplitude * np.cos(grid.alpha) * w)
    return SimState(curve, solve_vorticity_equal(curve, params), 0.0)


class TestContourRhs:
    def test_zero_strength(self, grid256):
        curve = bump_curve(grid256, 0.2)
        omega = VorticityStrength(grid256, np.zeros(grid256.node_count))
        u, v = pv_all_nodes(curve, omega)
        assert np.all(u == 0.0) and np.all(v == 0.0)

    def test_translation_equivariance(self, grid256):
        curve = bump_curve(grid256, 0.2)
        omega = gaussian_strength(grid256, amplitude=0.6)
        shifted = InterfaceCurve(grid256, curve.z1 + 2.5, curve.z2, validate=False)
        u0, v0 = pv_all_nodes(curve, omega)
        u1, v1 = pv_all_nodes(shifted, omega)
        assert np.allclose(u0, u1, atol=1e-11)
        assert np.allclose(v0, v1, atol=1e-11)


class TestEquilibria:
    @pytest.mark.parametrize(
        "params",
        [
            stable_params(),
            stable_params(gamma=0.5),
            stable_params(mu_plus=2.0, mu_minus=0.5),
            PhysicalParams(model=Model.WATER_WAVES, rho_plus=3.0, rho_minus=1.0, g=1.0),
        ],
        ids=["muskat-equal", "muskat-tension", "muskat-contrast", "waves"],
    )
    def test_flat_state_stationary(self, params):
        g = Grid(20.0, 128)
        cfg = SimConfig(params=params, grid=g, dt=0.01, t_end=1.0, snapshot_every=0)
        state = flat_state(g, params)
        for _ in range(20):
            state = step(state, cfg)
        assert np.max(np.abs(state.curve.z2 - 1.0)) <= 1e-12
        assert np.max(np.abs(state.curve.z1 - g.alpha)) <= 1e-12
        assert np.max(np.abs(state.omega.omega)) <= 1e-12


class TestStep:
    def test_rk4_self_convergence(self, grid256):
        params = stable_params()
        s0 = trough_state(grid256, params)

        def advance(dt, n):
            cfg = SimConfig(params=params, grid=grid256, dt=dt, t_end=n * dt, snapshot_every=0)
            s = s0
            for _ in range(n):
                s = step(s, cfg, dt=dt)
            return np.stack([s.curve.z1, s.curve.z2])

        y1, y2, y3 = advance(0.08, 5), advance(0.04, 10), advance(0.02, 20)
        order = np.log2(np.max(np.abs(y1 - y2)) / np.max(np.abs(y2 - y3)))
        assert 3.8 <= order <= 4.2

    def test_stable_regime_amplitude_decay(self, grid256):
        params = stable_params()
        state = trough_state(grid256, params)
        cfg = SimConfig(params=params, grid=grid256, dt=0.01, t_end=1.0, snapshot_every=0)
        amp = [np.max(np.abs(state.curve.z2 - 1.0))]
        for _ in range(30):
            state = step(state, cfg)
            amp.append(np.max(np.abs(state.curve.z2 - 1.0)))
        diffs = np.diff(amp)
        assert np.all(diffs <= 1e-12)
        assert amp[-1] < amp[0]

    def test_bottom_contact_detected(self, grid256):
        # heavy fluid on top drives the pinch down onto the contact threshold
        params = stable_params(rho_plus=2.0 * np.pi, rho_minus=0.0)
        curve, _ = build_initial(InitialSpec(profile="pinch", delta=0.06, window_ramp=4.0), grid256)
        state = SimState(curve, solve_vorticity_equal(curve, params), 0.0)
        cfg = SimConfig(
            params=params, grid=grid256, dt=0.01, t_end=1.0, snapshot_every=0,
            contact_tol=0.055,
        )
        with pytest.raises(BottomContact):
            for _ in range(100):
                state = step(state, cfg)

    @staticmethod
    def stepped_bytes(state, cfg):
        s = step(state, cfg)
        return s.curve.z1.tobytes() + s.curve.z2.tobytes() + s.omega.omega.tobytes()

    @pytest.mark.parametrize("made_by", ["step", "initial_state"])
    def test_accepted_field_is_the_next_k1(self, grid256, made_by):
        # a contrast state keeps its velocity from its closure solve: the
        # masked velocity on the state curve's operator, bit for bit
        if made_by == "step":
            params = stable_params(mu_plus=2.0, mu_minus=0.5)
            cfg = SimConfig(params=params, grid=grid256, dt=0.01, t_end=1.0)
            state = step(trough_state(grid256, stable_params()), cfg)
        else:
            parsed = parse_config(str(CONFIGS / "stable_relaxation.cfg"))
            params = dataclasses.replace(parsed.sim.params, **CONTRAST)
            cfg = dataclasses.replace(parsed.sim, params=params)
            state = initial_state(dataclasses.replace(parsed, sim=cfg))
        assert state.field is not None and state.accepted_under == cfg
        velocity = pv_all_nodes(state.curve, state.omega, node_operator(state.curve))
        assert np.array_equal(state.field, far_field_mask(state.curve.grid) * np.stack(velocity))

    def test_field_from_another_config_is_not_reused(self, grid256):
        params = stable_params(mu_plus=2.0, mu_minus=0.5)
        accepted = SimConfig(params=params, grid=grid256, dt=0.01, t_end=1.0)
        stepped = dataclasses.replace(accepted, params=stable_params(mu_plus=5.0, mu_minus=0.5))
        state = step(trough_state(grid256, stable_params()), accepted)
        stripped = dataclasses.replace(state, field=None)
        assert self.stepped_bytes(state, stepped) == self.stepped_bytes(stripped, stepped)
        # the guard matters: the stale field as k1 would move the result
        forced = dataclasses.replace(state, accepted_under=stepped)
        assert self.stepped_bytes(forced, stepped) != self.stepped_bytes(stripped, stepped)

    @staticmethod
    def closure_run(config: str, physics: dict, steps: int, cold: bool = False):
        """The state after ``steps`` steps of a shipped config and each step's closure iterations.

        ``cold`` drops every guess, so each solve starts from weight * rhs.
        """
        parsed = parse_config(str(CONFIGS / config))
        sim = dataclasses.replace(parsed.sim, params=dataclasses.replace(parsed.sim.params, **physics))
        state = initial_state(dataclasses.replace(parsed, sim=sim))
        per_step = []

        def counted(*args, guess=None, **kw):
            x, iterations = solve_tangential(*args, guess=None if cold else guess, **kw)
            per_step[-1] += iterations
            return x, iterations

        with pytest.MonkeyPatch.context() as patch:
            for module in (muskat, waterwaves):
                patch.setattr(module, "solve_tangential", counted)
            for _ in range(steps):
                per_step.append(0)
                state = step(state, sim)
        return state, per_step

    @pytest.mark.parametrize(
        "config, physics, cold_iterations, bound",
        [
            pytest.param("stable_relaxation.cfg", CONTRAST, 92, 40, id="contrast"),
            pytest.param("internal_wave.cfg", {}, 40, 30, id="waves"),
        ],
    )
    def test_warm_closure_iterations(self, config, physics, cold_iterations, bound):
        # each stage's closure starts from the last stage's solution, so from
        # the second step on a step iterates far less than its four cold solves
        _, cold = self.closure_run(config, physics, 4, cold=True)
        _, warm = self.closure_run(config, physics, 4)
        assert cold[1:] == [cold_iterations] * 3
        assert max(warm[1:]) <= bound

    @pytest.mark.parametrize(
        "config, physics",
        [
            pytest.param("stable_relaxation.cfg", CONTRAST, id="contrast"),
            pytest.param("internal_wave.cfg", {}, id="waves"),
            pytest.param("stable_relaxation.cfg", {"mu_plus": 5.0, "mu_minus": 0.5}, id="contrast-5"),
        ],
    )
    def test_warm_run_matches_cold(self, config, physics):
        # the guesses move each solve within its stop rule only
        warm, _ = self.closure_run(config, physics, 25)
        cold, _ = self.closure_run(config, physics, 25, cold=True)
        assert max(np.max(np.abs(warm.curve.z1 - cold.curve.z1)),
                   np.max(np.abs(warm.curve.z2 - cold.curve.z2))) <= 1e-10
        assert np.max(np.abs(warm.omega.omega - cold.omega.omega)) <= 1e-9

    def test_surface_tension_cap_pairs(self):
        # the raw step blows up on the stiff curvature term; the capped run
        # of the same configuration completes
        g = Grid(20.0, 128)
        params = stable_params(gamma=1.0)
        w = plateau_window(g.alpha, 5.0, 5.0)
        curve = InterfaceCurve(g, g.alpha.copy(), 1.0 - 0.2 * np.cos(g.alpha) * w)
        omega = solve_vorticity_equal(curve, params)
        state = SimState(curve, omega, 0.0)
        dt_raw = 0.12
        cfg = SimConfig(params=params, grid=g, dt=dt_raw, t_end=0.2, snapshot_every=0)
        assert cfg.capped_dt() < dt_raw
        with pytest.raises((StabilityFailure, BottomContact)):
            s = state
            for _ in range(40):
                s = step(s, cfg, dt=dt_raw)  # deliberately uncapped
        summary = run(cfg, state, [])
        assert summary.status == "completed"


class TestRun:
    @pytest.mark.parametrize("key", ["dt", "t_end", "contact_tol"])
    def test_non_finite_config_is_a_validation_error(self, grid256, key):
        # the same error type as Grid, PhysicalParams and InitialSpec raise
        values = {"dt": 0.01, "t_end": 1.0, key: float("nan")}
        with pytest.raises(ValidationError, match=key):
            SimConfig(params=stable_params(), grid=grid256, **values)

    def test_zero_length_run(self, grid256):
        params = stable_params()
        cfg = SimConfig(params=params, grid=grid256, dt=0.01, t_end=0.0, snapshot_every=0)
        sink = MemorySink()
        summary = run(cfg, trough_state(grid256, params), [sink])
        assert summary.status == "completed"
        assert summary.steps_completed == 0
        assert len(sink.diagnostics) == 1
        assert len(sink.snapshots) == 1  # initial state is always snapshotted

    def test_deterministic_replay(self, grid256):
        params = stable_params()
        cfg = SimConfig(params=params, grid=grid256, dt=0.01, t_end=0.1, snapshot_every=5)
        results = []
        for _ in range(2):
            sink = MemorySink()
            run(cfg, trough_state(grid256, params), [sink])
            results.append(sink)
        a, b = results
        assert len(a.diagnostics) == len(b.diagnostics)
        for da, db in zip(a.diagnostics, b.diagnostics):
            assert da == db  # bitwise-identical dataclasses
        for (ta, ca, _), (tb, cb, _) in zip(a.snapshots, b.snapshots):
            assert ta == tb
            assert np.array_equal(ca.z1, cb.z1) and np.array_equal(ca.z2, cb.z2)

    def test_contact_reported_not_raised(self, grid256):
        params = stable_params(rho_plus=2.0 * np.pi, rho_minus=0.0)
        curve, _ = build_initial(InitialSpec(profile="pinch", delta=0.06, window_ramp=4.0), grid256)
        state = SimState(curve, solve_vorticity_equal(curve, params), 0.0)
        cfg = SimConfig(
            params=params, grid=grid256, dt=0.01, t_end=2.0, snapshot_every=0,
            contact_tol=0.055,
        )
        sink = MemorySink()
        summary = run(cfg, state, [sink])
        assert summary.status == "bottom_contact"
        assert "bottom" in summary.message
        # every emitted state stayed above the contact threshold
        assert all(d.m > cfg.contact_tol for d in sink.diagnostics)

    def test_wave_model_short_run(self, grid256):
        params = PhysicalParams(model=Model.WATER_WAVES, rho_plus=3.0, rho_minus=1.0, g=1.0)
        w = plateau_window(grid256.alpha, 5.0, 5.0)
        curve = InterfaceCurve(grid256, grid256.alpha.copy(), 1.0 + 0.05 * np.cos(grid256.alpha) * w)
        omega = VorticityStrength(grid256, np.zeros(grid256.node_count))
        cfg = SimConfig(params=params, grid=grid256, dt=0.01, t_end=0.1, snapshot_every=0)
        sink = MemorySink()
        summary = run(cfg, SimState(curve, omega, 0.0), [sink])
        assert summary.status == "completed"
        final = sink.diagnostics[-1]
        assert final.c2_norm < 1.0
        assert final.omega_c1_norm > 0.0  # gravity has set the sheet in motion
        # strength stays admissible (decays on the bands) at every state
        for _, _, om in sink.snapshots:
            assert np.max(np.abs(om.omega[grid256.band_mask])) <= 1e-10

    def test_equal_viscosity_strength_closed_form_along_run(self, grid256):
        # at every accepted state the stored strength satisfies the explicit
        # equal-viscosity relation to roundoff
        params = stable_params()
        cfg = SimConfig(params=params, grid=grid256, dt=0.01, t_end=0.05, snapshot_every=1)
        sink = MemorySink()
        run(cfg, trough_state(grid256, params), [sink])
        for _, curve, omega in sink.snapshots:
            d1y = curve.d1[1]
            expect = params.density_jump * params.g * d1y / params.mu_plus
            assert np.allclose(omega.omega, expect, atol=1e-14)

    def test_snapshots_carry_samples_only(self, grid256):
        # a sink that keeps snapshots pins the samples, not the derived arrays
        # the solve and the diagnostics cached on the state
        params = stable_params(mu_plus=2.0, mu_minus=0.5)
        cfg = SimConfig(params=params, grid=grid256, dt=0.01, t_end=0.03, snapshot_every=1)
        sink = MemorySink()
        summary = run(cfg, trough_state(grid256, stable_params()), [sink])
        derived = {"z", "dz", "d1", "d2", "speed_squared", "tangential_limit", "sheet_scale"}
        for _, curve, omega in sink.snapshots:
            assert not derived & set(vars(curve))
            assert "d1" not in vars(omega)
        assert min_depth(sink.snapshots[-1][1]).m == summary.final_min_depth
