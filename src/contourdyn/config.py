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

The [physics], [initial] and [output] keys are the str, int and float fields
of PhysicalParams, InitialSpec and SimConfig, in field order, with their
defaults (but dt and t_end); only the renamed [model] and [grid] keys are
listed here.  Unknown sections or keys are errors; every default is made
explicit by the canonical serialization, whose SHA-256 stamps all output
files.  Parsing is hand-rolled so malformed values report their line number.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, fields, replace

from .errors import ParseError, ValidationError
from .evolve import SimConfig
from .geometry import Grid, Model, PhysicalParams
from .profiles import InitialSpec

_CONVERTERS = {"str": str, "int": int, "float": float}


def _schema(cls, **defaults) -> dict:
    """{key: (converter, default)} of each str/int/float field of ``cls``, in field order."""
    return {
        f.name: (_CONVERTERS[kind], defaults.get(f.name, f.default))
        for f in fields(cls)
        if (kind := getattr(f.type, "__name__", f.type)) in _CONVERTERS
    }


# Every default is the dataclass's own, except the two run lengths.
_SECTIONS = {
    "model": {"type": (str, "muskat")},
    "grid": {"N": (int, 256), "L": (float, 20.0)},
    "physics": _schema(PhysicalParams),
    "initial": _schema(InitialSpec),
    "output": _schema(SimConfig, dt=0.01, t_end=1.0),
}


@dataclass(frozen=True)
class ParsedConfig:
    """Fully validated run description plus its canonical text and hash."""

    sim: SimConfig
    initial: InitialSpec
    text: str
    sha256: str


def _parse_sections(text: str) -> dict[str, dict]:
    """Each section's values in the text, converted to their types."""
    values: dict[str, dict] = {name: {} for name in _SECTIONS}
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
        converter, _ = _SECTIONS[section][key]
        try:
            values[section][key] = converter(value)
        except ValueError:
            message = f"invalid {converter.__name__} for {key!r}: {value!r}"
            raise ParseError(lineno, message) from None
    return values


def parse_config_text(text: str) -> ParsedConfig:
    """Parse configuration text into a validated ParsedConfig."""
    raw = _parse_sections(text)
    model_kv, grid_kv, physics_kv, initial_kv, output_kv = (
        {**{key: default for key, (_, default) in keys.items()}, **raw[name]}
        for name, keys in _SECTIONS.items()
    )

    try:
        model = Model(model_kv["type"])
    except ValueError:
        raise ValidationError(
            f"model type must be one of {[m.value for m in Model]}, got {model_kv['type']!r}"
        ) from None
    params = PhysicalParams(model=model, **physics_kv)
    grid = Grid(half_width=grid_kv["L"], node_count=grid_kv["N"])
    sim = SimConfig(params=params, grid=grid, **output_kv)
    initial = InitialSpec(**initial_kv)
    if model is Model.MUSKAT and initial.omega_profile != "zero":
        raise ValidationError("muskat takes omega from its closure: omega_profile must be zero")
    return _stamped(sim, initial)


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
    owners = {"physics": sim.params, "initial": initial, "output": sim}
    sections = {
        "model": {"type": sim.params.model.value},
        "grid": {"N": sim.grid.node_count, "L": sim.grid.half_width},
        **{name: {key: getattr(owners[name], key) for key in _SECTIONS[name]} for name in owners},
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
