"""Line-oriented configuration files: parsing, validation, canonical form.

The format is sectioned key = value text:

    [model]
    type = muskat
    [grid]
    N = 256
    L = 20.0
    [physics]
    rho_minus = 2.0
    [initial]
    profile = cosine
    amplitude = -0.3
    [output]
    dt = 0.01
    t_end = 1.0

Unknown sections or keys are errors; every default is made explicit by the
canonical serialization, whose SHA-256 stamps all output files.  Parsing is
hand-rolled (rather than configparser) so malformed values report their line
number.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, fields, replace

from .errors import ParseError, ValidationError
from .evolve import SimConfig
from .geometry import Grid, Model, PhysicalParams
from .profiles import InitialSpec

_MODEL_KEYS = {"type": str}
_GRID_KEYS = {"N": int, "L": float}
_PHYSICS_KEYS = {
    "mu_plus": float,
    "mu_minus": float,
    "rho_plus": float,
    "rho_minus": float,
    "g": float,
    "gamma": float,
}
_INITIAL_KEYS = {
    "profile": str,
    "amplitude": float,
    "window_flat": float,
    "window_ramp": float,
    "delta": float,
    "z1_wiggle": float,
    "omega_profile": str,
    "omega_amplitude": float,
    "omega_center": float,
    "omega_sigma": float,
}
_OUTPUT_KEYS = {
    "dt": float,
    "t_end": float,
    "snapshot_every": int,
    "contact_tol": float,
}
_SECTIONS = {
    "model": _MODEL_KEYS,
    "grid": _GRID_KEYS,
    "physics": _PHYSICS_KEYS,
    "initial": _INITIAL_KEYS,
    "output": _OUTPUT_KEYS,
}


def _field_defaults(cls, keys) -> dict:
    return {f.name: f.default for f in fields(cls) if f.name in keys}


# Every default is the dataclass's own, except the two run lengths.
_DEFAULTS = {
    "model": {"type": "muskat"},
    "grid": {"N": 256, "L": 20.0},
    "physics": _field_defaults(PhysicalParams, _PHYSICS_KEYS),
    "initial": _field_defaults(InitialSpec, _INITIAL_KEYS),
    "output": {**_field_defaults(SimConfig, _OUTPUT_KEYS), "dt": 0.01, "t_end": 1.0},
}


@dataclass(frozen=True)
class ParsedConfig:
    """Fully validated run description plus its canonical text and hash."""

    sim: SimConfig
    initial: InitialSpec
    text: str
    sha256: str


def _parse_sections(text: str) -> dict[str, dict[str, str]]:
    values: dict[str, dict[str, str]] = {name: {} for name in _SECTIONS}
    section: str | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise ParseError(lineno, f"unterminated section header {line!r}")
            name = line[1:-1].strip()
            if name not in _SECTIONS:
                raise ParseError(lineno, f"unknown section [{name}]")
            section = name
            continue
        if section is None:
            raise ParseError(lineno, f"key outside any section: {line!r}")
        if "=" not in line:
            raise ParseError(lineno, f"expected 'key = value', got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not key:
            raise ParseError(lineno, "empty key")
        if key not in _SECTIONS[section]:
            raise ParseError(lineno, f"unknown key {key!r} in section [{section}]")
        if key in values[section]:
            raise ParseError(lineno, f"duplicate key {key!r} in section [{section}]")
        converter = _SECTIONS[section][key]
        if converter is not str:
            try:
                converter(value)
            except ValueError:
                raise ParseError(
                    lineno, f"invalid {converter.__name__} for {key!r}: {value!r}"
                ) from None
        values[section][key] = value
    return values


def _converted(section: str, raw: dict[str, str]) -> dict:
    out = dict(_DEFAULTS[section])
    for key, value in raw.items():
        converter = _SECTIONS[section][key]
        out[key] = converter(value) if converter is not str else value
    return out


def parse_config_text(text: str) -> ParsedConfig:
    """Parse configuration text into a validated ParsedConfig."""
    raw = _parse_sections(text)
    model_kv, grid_kv, physics_kv, initial_kv, output_kv = (
        _converted(name, raw[name]) for name in _SECTIONS
    )

    try:
        model = Model(model_kv["type"])
    except ValueError:
        raise ValidationError(
            f"model type must be one of {[m.value for m in Model]}, got {model_kv['type']!r}"
        ) from None
    params = PhysicalParams(model=model, **physics_kv)
    grid = Grid(half_width=grid_kv["L"], node_count=grid_kv["N"])
    try:
        sim = SimConfig(params=params, grid=grid, **output_kv)
    except ValueError as exc:
        raise ValidationError(str(exc)) from None
    return _stamped(sim, InitialSpec(**initial_kv))


def _stamped(sim: SimConfig, initial: InitialSpec) -> ParsedConfig:
    canonical = serialize_config(sim, initial)
    digest = hashlib.sha256(canonical.encode()).hexdigest()
    return ParsedConfig(sim=sim, initial=initial, text=canonical, sha256=digest)


def parse_config(path: str) -> ParsedConfig:
    """Parse a configuration file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ValidationError(f"cannot read configuration {path!r}: {exc}") from None
    return parse_config_text(text)


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def serialize_config(sim: SimConfig, initial: InitialSpec) -> str:
    """Canonical text with every default explicit; parse/serialize is idempotent."""
    lines: list[str] = []
    sections = {
        "model": {"type": sim.params.model.value},
        "grid": {"N": sim.grid.node_count, "L": sim.grid.half_width},
        "physics": {key: getattr(sim.params, key) for key in _PHYSICS_KEYS},
        "initial": {key: getattr(initial, key) for key in _INITIAL_KEYS},
        "output": {key: getattr(sim, key) for key in _OUTPUT_KEYS},
    }
    for name, keys in sections.items():
        lines.append(f"[{name}]")
        for key, value in keys.items():
            lines.append(f"{key} = {_fmt(value)}")
        lines.append("")
    return "\n".join(lines)


def with_grid(parsed: ParsedConfig, node_count: int) -> ParsedConfig:
    """Same configuration on a different resolution (refinement sweeps)."""
    grid = Grid(half_width=parsed.sim.grid.half_width, node_count=node_count)
    return _stamped(replace(parsed.sim, grid=grid), parsed.initial)
