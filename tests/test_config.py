"""Configuration parsing, validation, and canonical round-trips."""

import re
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np
import pytest

from contourdyn.config import _SECTIONS, _schema, parse_config, parse_config_text, with_grid
from contourdyn.errors import ParseError, ValidationError
from contourdyn.geometry import Model, PhysicalParams

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

MINIMAL = """
[model]
type = muskat
[grid]
N = 256
L = 20.0
"""

RT_STABLE = """
[model]
type = muskat
[grid]
N = 128
L = 20.0
[physics]
rho_plus = 1.0
rho_minus = 2.0
[initial]
profile = cosine
amplitude = -0.3
[output]
dt = 0.01
t_end = 0.5
"""


class TestParse:
    def test_minimal_defaults(self):
        parsed = parse_config_text(MINIMAL)
        assert parsed.sim.params.model is Model.MUSKAT
        assert parsed.sim.grid.node_count == 256
        assert parsed.sim.grid.half_width == 20.0
        assert parsed.sim.params.gamma == 0.0
        assert parsed.initial.profile == "flat"
        assert parsed.sim.dt == 0.01

    def test_rt_stable_config(self):
        parsed = parse_config_text(RT_STABLE)
        assert parsed.sim.params.rho_minus > parsed.sim.params.rho_plus
        assert parsed.initial.amplitude == -0.3

    def test_comments_and_blanks(self):
        parsed = parse_config_text("# leading comment\n\n[model]\ntype = muskat  # trailing\n")
        assert parsed.sim.params.model is Model.MUSKAT

    def test_malformed_line_reports_number(self):
        text = "[model]\ntype = muskat\n[output]\ndt ==\n"
        with pytest.raises(ParseError) as err:
            parse_config_text(text)
        assert err.value.line == 4
        assert "dt" in err.value.reason

    def test_missing_equals(self):
        with pytest.raises(ParseError) as err:
            parse_config_text("[grid]\nN 256\n")
        assert err.value.line == 2

    def test_unknown_section(self):
        with pytest.raises(ParseError) as err:
            parse_config_text("[grids]\nN = 256\n")
        assert err.value.line == 1

    def test_unknown_key(self):
        with pytest.raises(ParseError) as err:
            parse_config_text("[grid]\nM = 256\n")
        assert err.value.line == 2

    def test_duplicate_key(self):
        with pytest.raises(ParseError):
            parse_config_text("[grid]\nN = 128\nN = 256\n")

    def test_key_outside_section(self):
        with pytest.raises(ParseError) as err:
            parse_config_text("N = 256\n")
        assert err.value.line == 1

    def test_invalid_physics_rejected(self):
        with pytest.raises(ValidationError):
            parse_config_text("[physics]\ngamma = -1.0\n")

    def test_invalid_model_rejected(self):
        with pytest.raises(ValidationError):
            parse_config_text("[model]\ntype = stokes\n")

    def test_odd_node_count_rejected(self):
        with pytest.raises(ValidationError):
            parse_config_text("[grid]\nN = 255\n")

    def test_profile_below_bottom_rejected(self):
        from contourdyn.profiles import build_initial

        parsed = parse_config_text(
            "[grid]\nN = 128\nL = 20.0\n[initial]\nprofile = cosine\namplitude = -1.2\n"
        )
        with pytest.raises(ValidationError):
            build_initial(parsed.initial, parsed.sim.grid)


class TestRoundTrip:
    def test_serialize_parse_identity(self):
        parsed = parse_config_text(RT_STABLE)
        again = parse_config_text(parsed.text)
        assert again.sim == parsed.sim
        assert again.initial == parsed.initial
        assert again.text == parsed.text
        assert again.sha256 == parsed.sha256

    def test_all_defaults_explicit(self):
        parsed = parse_config_text(MINIMAL)
        for key in ("mu_plus", "rho_minus", "gamma", "dt", "t_end", "contact_tol"):
            assert key in parsed.text

    def test_readme_block_lists_every_key(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        block = re.search(r"```ini\n(.*?)```", readme, re.S).group(1)
        documented = {}
        for line in block.splitlines():
            line = line.split("#", 1)[0].strip()
            if line.startswith("["):
                section = documented.setdefault(line[1:-1], [])
            elif line:
                section.append(line.partition("=")[0].strip())
        assert documented == {name: list(keys) for name, keys in _SECTIONS.items()}

    @pytest.mark.parametrize(
        "name, digest",
        [
            ("internal_wave", "73b0bab6ad912efb6f31c68299450720dc4c922eea9c0402ba3d481d99853212"),
            ("stable_relaxation", "3ad896ded9ee2d1e5dca50f82c63848201c0333920f03fd7e8fc282c7ba29eb5"),
            ("unstable_pinch", "b7cab83afc0aed42b493898e06537cb8435a9e7157ff9abca78179da13af5c19"),
        ],
    )
    def test_shipped_config_hashes(self, name, digest):
        # the canonical key order comes from the dataclasses' field order:
        # moving a field must not move a shipped run's hash unnoticed
        assert parse_config(str(CONFIGS / f"{name}.cfg")).sha256 == digest

    def test_a_new_plain_field_is_a_new_key(self):
        @dataclass(frozen=True)
        class Extended(PhysicalParams):
            k_c: float = 0.5
            note: tuple = ()

        schema = _schema(Extended)
        assert list(schema) == [*_SECTIONS["physics"], "k_c"]
        assert schema["k_c"] == (float, 0.5)

    def test_readme_entry_points_import(self):
        # the "Library entry points" block runs as written: a name it lists
        # that the package no longer has fails here, not in a reader's shell
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        section = readme.split("## Library entry points", 1)[1]
        block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
        exec(compile(block, "README.md", "exec"), {})

    def test_hash_stability(self):
        a = parse_config_text(MINIMAL)
        b = parse_config_text(MINIMAL + "\n# a comment changes nothing\n")
        assert a.sha256 == b.sha256

    def test_hash_sensitivity(self):
        a = parse_config_text(MINIMAL)
        b = parse_config_text(MINIMAL.replace("N = 256", "N = 512"))
        assert a.sha256 != b.sha256

    def test_with_grid_changes_only_resolution(self):
        base = parse_config_text(RT_STABLE)
        refined = with_grid(base, 512)
        assert refined.sim.grid.node_count == 512
        assert refined.sim.grid.half_width == base.sim.grid.half_width
        assert refined.initial == base.initial
        assert refined.sha256 != base.sha256


class TestProfileEdges:
    def test_monotone_wiggle_too_large(self):
        from contourdyn.profiles import InitialSpec, build_initial
        from contourdyn.geometry import Grid

        spec = InitialSpec(profile="monotone", amplitude=-0.2, z1_wiggle=1.5)
        with pytest.raises(ValidationError):
            build_initial(spec, Grid(20.0, 256))

    def test_window_reaching_band_rejected(self):
        from contourdyn.profiles import InitialSpec, build_initial
        from contourdyn.geometry import DECAY_BAND, Grid

        spec = InitialSpec(profile="cosine", amplitude=0.1, window_flat=15.0, window_ramp=6.0)
        with pytest.raises(ValidationError):
            build_initial(spec, Grid(20.0, 256))
        # the usable half-width stops one cell short of the decay band
        grid = Grid(20.0, 256)
        usable = grid.half_width - grid.spacing * (DECAY_BAND + 1)
        at_edge = InitialSpec(profile="cosine", amplitude=0.1, window_flat=usable - 6.0,
                              window_ramp=6.0)
        assert at_edge.window_flat + at_edge.window_ramp == usable
        with pytest.raises(ValidationError, match="reaches the decay band"):
            build_initial(at_edge, grid)
        inside = InitialSpec(profile="cosine", amplitude=0.1,
                             window_flat=usable - grid.spacing - 6.0, window_ramp=6.0)
        build_initial(inside, grid)

    def test_pinch_window_checked_like_the_others(self):
        from contourdyn.profiles import InitialSpec, build_initial
        from contourdyn.geometry import DECAY_BAND, Grid

        # the pinch window is flat_half 0 plus the ramp: window_flat plays no part
        grid = Grid(20.0, 256)
        build_initial(InitialSpec(profile="pinch", window_ramp=15.0), grid)
        usable = grid.half_width - grid.spacing * (DECAY_BAND + 1)
        past = InitialSpec(profile="pinch", window_ramp=usable + grid.spacing)
        with pytest.raises(ValidationError, match="reaches the decay band"):
            build_initial(past, grid)

    def test_shipped_pinch_samples(self):
        from contourdyn.profiles import build_initial, plateau_window

        parsed = parse_config(str(CONFIGS / "unstable_pinch.cfg"))
        grid, spec = parsed.sim.grid, parsed.initial
        curve, _ = build_initial(spec, grid)
        expected = 1.0 - (1.0 - spec.delta) * plateau_window(grid.alpha, 0.0, spec.window_ramp)
        assert np.array_equal(curve.z2, expected)
        assert np.array_equal(curve.z1, grid.alpha)

    def test_every_initial_key_is_read_by_a_profile(self):
        from contourdyn.profiles import OMEGA_PROFILES, PROFILES, InitialSpec

        read = {key for keys in (*PROFILES.values(), *OMEGA_PROFILES.values()) for key in keys}
        assert read | {"profile", "omega_profile"} == {f.name for f in fields(InitialSpec)}

    @pytest.mark.parametrize(
        "profile, omega_profile, key",
        [("flat", "zero", "window_ramp"), ("cosine", "zero", "delta"),
         ("pinch", "zero", "amplitude"), ("cosine", "zero", "omega_sigma"),
         ("flat", "gaussian", "z1_wiggle")],
    )
    def test_unread_key_off_its_default_rejected(self, profile, omega_profile, key):
        from contourdyn.profiles import InitialSpec

        InitialSpec(profile=profile, omega_profile=omega_profile)  # every key at its default
        with pytest.raises(ValidationError, match=key):
            InitialSpec(profile=profile, omega_profile=omega_profile, **{key: 0.5})

    def test_gaussian_strength_must_decay(self):
        from contourdyn.profiles import InitialSpec, build_initial
        from contourdyn.geometry import Grid

        spec = InitialSpec(omega_profile="gaussian", omega_amplitude=1.0, omega_sigma=8.0)
        with pytest.raises(ValidationError):
            build_initial(spec, Grid(20.0, 256))
