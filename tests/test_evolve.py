"""Time integration: equilibria, convergence order, monitors, determinism."""

import ast
import dataclasses
import warnings
from pathlib import Path

import numpy as np
import pytest

from contourdyn import evolve, geometry, kernels, muskat, waterwaves
from contourdyn.cli import initial_state
from contourdyn.config import parse_config, with_grid
from contourdyn.errors import BottomContact, StabilityFailure, ValidationError
from contourdyn.evolve import SimConfig, SimState, pv_all_nodes, run, step
from contourdyn.geometry import Grid, InterfaceCurve, Model, PhysicalParams, far_field_mask, min_depth
from contourdyn.kernels import VorticityStrength, node_operator, solve_tangential
from contourdyn.muskat import solve_vorticity_equal
from contourdyn.profiles import InitialSpec, build_initial, plateau_window

from support import MemorySink, bump_curve, count_calls, gaussian_strength, resubstitution_gap

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
CONTRAST = {"mu_plus": 2.0, "mu_minus": 0.5}
# equal densities (A = 0) hold no operator; surface tension sets the sheet moving
WAVES_EQUAL = {"rho_plus": 2.0, "gamma": 0.01}
# each closure whose state carries its field
CLOSURES = [
    pytest.param("stable_relaxation.cfg", CONTRAST, id="contrast"),
    pytest.param("internal_wave.cfg", {}, id="waves"),
    pytest.param("internal_wave.cfg", WAVES_EQUAL, id="waves-equal"),
]


def shipped(config: str, physics: dict):
    """A shipped config with ``physics`` replacing some of its parameters."""
    parsed = parse_config(str(CONFIGS / config))
    params = dataclasses.replace(parsed.sim.params, **physics)
    return dataclasses.replace(parsed, sim=dataclasses.replace(parsed.sim, params=params))


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


def bare_pinch(delta: float) -> tuple[SimConfig, SimState]:
    """The shipped pinch config and a SimState of its curve at depth ``delta``, made directly."""
    parsed = parse_config(str(CONFIGS / "unstable_pinch.cfg"))
    curve, _ = build_initial(dataclasses.replace(parsed.initial, delta=delta), parsed.sim.grid)
    return parsed.sim, SimState(curve, solve_vorticity_equal(curve, parsed.sim.params))


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
    @pytest.mark.parametrize("config, physics", CLOSURES)
    def test_accepted_field_is_the_next_k1(self, config, physics, made_by):
        # a state keeps the evaluation its closure made: the masked velocity,
        # bit for bit, and for waves the masked rate, which resubstitutes
        parsed = shipped(config, physics)
        state = initial_state(parsed)
        if made_by == "step":
            state = step(state, parsed.sim)
        assert state.field is not None and state.accepted_under == parsed.sim
        params = parsed.sim.params
        # the velocity its closure made: one apply of the held operator, or at A = 0 one fused pass
        held = None if params.atwood == 0.0 else node_operator(state.curve)
        velocity = pv_all_nodes(state.curve, state.omega, held)
        mask = far_field_mask(state.curve.grid)
        assert np.array_equal(state.field[:2], mask * np.stack(velocity))
        if params.model is Model.MUSKAT:
            assert np.array_equal(state.x, state.omega.omega)
        else:
            assert np.array_equal(state.field[2], mask * state.x)
            gap = resubstitution_gap(state.curve, state.omega, params, state.x, velocity)
            assert gap <= 10.0 * kernels.FIXED_POINT_TOL

    def test_equal_viscosity_state_carries_no_field(self):
        # its closure holds no operator: a field would cost one more fused pass,
        # yet the state is made under its config like every other
        parsed = parse_config(str(CONFIGS / "stable_relaxation.cfg"))
        state = initial_state(parsed)
        assert state.field is None and state.accepted_under == parsed.sim

    @pytest.mark.parametrize("bare, solves", [(False, 4), (True, 5)], ids=["initial_state", "bare"])
    def test_equal_viscosity_step_solves(self, monkeypatch, bare, solves):
        # k1 is one fused pass of the state's own strength; a bare state first
        # gets that strength from closure_state, one more solve
        parsed = parse_config(str(CONFIGS / "stable_relaxation.cfg"))
        state = initial_state(parsed)
        if bare:
            curve, _ = build_initial(parsed.initial, parsed.sim.grid)
            state = SimState(curve, solve_vorticity_equal(curve, parsed.sim.params))
        calls = count_calls(monkeypatch, muskat, ["solve_vorticity_equal"])
        passes = count_calls(monkeypatch, evolve, ["pv_all_nodes"])
        step(state, parsed.sim)
        assert (calls["solve_vorticity_equal"], passes["pv_all_nodes"]) == (solves, 4)

    def test_bare_state_at_the_bottom(self):
        # a state built past closure_state's checks is checked before its first stage
        sim, state = bare_pinch(5e-5)
        with pytest.raises(BottomContact) as err:
            step(state, sim)
        assert err.value.t == 0.0 and err.value.min_depth <= sim.contact_tol

    @pytest.mark.parametrize(
        "config, physics, other",
        [
            pytest.param("stable_relaxation.cfg", CONTRAST, {"mu_plus": 5.0}, id="contrast"),
            pytest.param("internal_wave.cfg", {}, {"g": 2.0}, id="waves"),
            pytest.param("internal_wave.cfg", WAVES_EQUAL, {"gamma": 0.02}, id="waves-equal"),
        ],
    )
    def test_field_from_another_config_is_not_reused(self, config, physics, other):
        accepted = shipped(config, physics).sim
        stepped = dataclasses.replace(accepted, params=dataclasses.replace(accepted.params, **other))
        state = step(initial_state(shipped(config, physics)), accepted)
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
        parsed = shipped(config, physics)
        state = initial_state(parsed)
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
                state = step(state, parsed.sim)
        return state, per_step

    @pytest.mark.parametrize(
        "config, physics, cold_iterations, bound",
        [
            pytest.param("stable_relaxation.cfg", CONTRAST, 92, 40, id="contrast"),
            pytest.param("internal_wave.cfg", {}, 40, 20, id="waves"),
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

    def test_state_from_another_grid(self):
        # an N = 128 state under the N = 256 config: the error names both grids
        parsed = parse_config(str(CONFIGS / "stable_relaxation.cfg"))
        coarse = initial_state(with_grid(parsed, 128))
        with pytest.raises(ValidationError) as err:
            step(coarse, parsed.sim)
        assert "node_count=128" in str(err.value) and "node_count=256" in str(err.value)

    def test_continuous_in_the_viscosity_contrast(self):
        # the explicit and the Picard closure solve one masked equation, so a
        # contrast of 1e-12 moves the run by roundoff, not by the mask
        states = []
        for mu_plus in (1.0 + 1e-12, 1.0):
            parsed = shipped("stable_relaxation.cfg", {"mu_plus": mu_plus})
            assert muskat.equal_viscosity(parsed.sim.params) == (mu_plus == 1.0)
            state = initial_state(parsed)
            for _ in range(40):
                state = step(state, parsed.sim)
            states.append(state)
        contrast, equal = states
        assert max(np.max(np.abs(contrast.curve.z1 - equal.curve.z1)),
                   np.max(np.abs(contrast.curve.z2 - equal.curve.z2))) <= 1e-12

    @pytest.mark.parametrize(
        "cap, what", [("BLOWUP_CAP", "C2 norm"), ("CHORD_ARC_CAP", "chord-arc")]
    )
    def test_initial_state_beyond_a_cap(self, monkeypatch, cap, what):
        # the initial state passes the caps every accepted step passes; the
        # shipped curve's norms are 0.3 and its chord-arc constant 1
        parsed = parse_config(str(CONFIGS / "stable_relaxation.cfg"))
        monkeypatch.setattr(evolve, cap, 0.1)
        with pytest.raises(StabilityFailure, match=f"{what} .* at t=0$"):
            initial_state(parsed)

    @pytest.mark.parametrize("dt", [-0.005, 0.0, float("nan"), float("inf")])
    def test_explicit_dt_must_be_finite_and_positive(self, dt):
        parsed = parse_config(str(CONFIGS / "stable_relaxation.cfg"))
        state = initial_state(parsed)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(ValidationError, match="dt must be finite and positive"):
                step(state, parsed.sim, dt=dt)
        assert not caught

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

    def test_default_step_is_capped(self):
        # step's default dt is the one run takes: the surface-tension cap applies
        g = Grid(20.0, 128)
        params = stable_params(gamma=1.0)
        w = plateau_window(g.alpha, 5.0, 5.0)
        curve = InterfaceCurve(g, g.alpha.copy(), 1.0 - 0.2 * np.cos(g.alpha) * w)
        state = SimState(curve, solve_vorticity_equal(curve, params), 0.0)
        cfg = SimConfig(params=params, grid=g, dt=0.12, t_end=0.2, snapshot_every=0)
        assert cfg.capped_dt() < cfg.dt
        default, capped = step(state, cfg), step(state, cfg, dt=cfg.capped_dt())
        assert default.t == capped.t
        for a, b in ((default.curve.z1, capped.curve.z1), (default.curve.z2, capped.curve.z2),
                     (default.omega.omega, capped.omega.omega)):
            assert np.array_equal(a, b)


class TestRun:
    @pytest.mark.parametrize("key", ["dt", "t_end", "contact_tol"])
    def test_non_finite_config_is_a_validation_error(self, grid256, key):
        # the same error type as Grid, PhysicalParams and InitialSpec raise
        values = {"dt": 0.01, "t_end": 1.0, key: float("nan")}
        with pytest.raises(ValidationError, match=key):
            SimConfig(params=stable_params(), grid=grid256, **values)

    def test_initial_state_on_another_grid(self):
        # an N = 128 state under the N = 256 config: an error before any sink sees a row
        parsed = parse_config(str(CONFIGS / "stable_relaxation.cfg"))
        coarse = initial_state(with_grid(parsed, 128))
        sink = MemorySink()
        with pytest.raises(ValidationError) as err:
            run(parsed.sim, coarse, [sink])
        assert "node_count=128" in str(err.value) and "node_count=256" in str(err.value)
        assert sink.diagnostics == [] and sink.snapshots == []

    def test_bare_initial_state_at_the_bottom(self):
        # the initial state passes the checks every accepted state passes: no row at m < tol
        sim, state = bare_pinch(5e-5)
        sink = MemorySink()
        with pytest.raises(BottomContact) as err:
            run(sim, state, [sink])
        assert err.value.t == 0.0
        assert sink.diagnostics == [] and sink.snapshots == []

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

    def test_no_convergence_reported_not_raised(self, monkeypatch):
        # a closure solve that runs out of iterations ends the run at step 0,
        # and the initial state, solved under the full cap, is still written
        parsed = shipped("stable_relaxation.cfg", CONTRAST)
        sim, state = parsed.sim, initial_state(parsed)
        monkeypatch.setattr(kernels, "MAX_FIXED_POINT_ITER", 1)
        sink = MemorySink()
        summary = run(sim, state, [sink])
        assert summary.status == "no_convergence" and summary.steps_completed == 0
        assert "after 1 iterations" in summary.message
        assert len(sink.diagnostics) == 1 and len(sink.snapshots) == 1
        t, curve, omega = sink.snapshots[0]
        assert t == 0.0 and np.array_equal(curve.z2, state.curve.z2)
        assert np.array_equal(omega.omega, state.omega.omega)

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
        # equal-viscosity case of the masked relation to roundoff
        params = stable_params()
        cfg = SimConfig(params=params, grid=grid256, dt=0.01, t_end=0.05, snapshot_every=1)
        sink = MemorySink()
        run(cfg, trough_state(grid256, params), [sink])
        mask = far_field_mask(grid256)
        for _, curve, omega in sink.snapshots:
            d1y = curve.d1[1]
            expect = mask * params.density_jump * params.g * d1y / params.viscosity_mean
            assert np.allclose(omega.omega, expect, atol=1e-14)

    def test_norms_and_depth_once_per_state(self, grid256, monkeypatch):
        # the acceptance checks, the diagnostics row and the summary share them
        cfg = SimConfig(params=stable_params(), grid=grid256, dt=0.01, t_end=0.03)
        state = trough_state(grid256, stable_params())
        calls = count_calls(monkeypatch, geometry, ["holder_norms", "min_depth"])
        summary = run(cfg, state, [MemorySink()])
        assert summary.steps_completed == 3
        assert calls == {"holder_norms": 4, "min_depth": 4}  # the initial state and 3 steps

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


class TestSource:
    def test_model_read_where_the_rows_are_decided(self):
        # step's own flag decides the state vector's rows; no state is asked its length
        text = Path(evolve.__file__).read_text(encoding="utf-8")
        readers = {
            f.name for f in ast.walk(ast.parse(text)) if isinstance(f, ast.FunctionDef) and any(
                isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name) and n.value.id == "Model"
                for n in ast.walk(f)
            )
        }
        assert readers == {"capped_dt", "_evaluate", "step"}  # capped_dt: SimConfig's
        assert "len(y" not in text

    def test_one_door_into_a_step(self):
        # only the entry helper asks which config made a state, and step
        # evaluates no stage at the state's own samples: k1 is the state's
        tree = ast.parse(Path(evolve.__file__).read_text(encoding="utf-8"))
        functions = {f.name: f for f in ast.walk(tree) if isinstance(f, ast.FunctionDef)}
        readers = {
            name for name, f in functions.items() if any(
                isinstance(n, ast.Attribute) and n.attr == "accepted_under" for n in ast.walk(f)
            )
        }
        assert readers == {"_entered"}
        at_y0 = [
            ast.unparse(n) for n in ast.walk(functions["step"]) if isinstance(n, ast.Call)
            and any(isinstance(a, ast.Name) and a.id == "y0" for a in n.args)
        ]
        assert at_y0 == []
