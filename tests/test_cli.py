"""End-to-end command-line behavior and output file contracts."""

import ast
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path
from types import ModuleType

import numpy as np
import pytest

from contourdyn import __version__, kernels
from contourdyn.cli import _build_parser, main
from contourdyn.config import parse_config
from contourdyn.io import read_diagnostics, read_snapshots

from support import count_calls

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

FLAT_CFG = """
[model]
type = muskat
[grid]
N = 128
L = 20.0
[output]
dt = 0.01
t_end = 0.05
snapshot_every = 2
"""

BUMP_CFG = """
[model]
type = muskat
[grid]
N = 1024
L = 20.0
[initial]
profile = cosine
amplitude = 0.3
[output]
dt = 0.01
t_end = 0.1
"""

STABLE_CFG = """
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
t_end = 0.3
snapshot_every = 10
"""


@pytest.fixture
def flat_cfg(tmp_path):
    path = tmp_path / "flat.cfg"
    path.write_text(FLAT_CFG)
    return str(path)


@pytest.fixture
def stable_cfg(tmp_path):
    path = tmp_path / "stable.cfg"
    path.write_text(STABLE_CFG)
    return str(path)


class TestParser:
    @pytest.mark.parametrize(
        "argv, verbose",
        [
            (["run", "--config", "x.cfg", "--verbose"], True),
            (["fit", "--in", "d.csv", "--verbose"], True),
            (["identity", "--config", "x.cfg"], False),
        ],
    )
    def test_verbose_after_subcommand(self, argv, verbose):
        assert _build_parser().parse_args(argv).verbose is verbose


class TestRun:
    def test_flat_run_constant_depth(self, flat_cfg, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["run", "--config", flat_cfg, "--out", str(out)]) == 0
        data = read_diagnostics(str(out / "diagnostics.csv"))
        assert np.all(data["m"] == 1.0)
        assert data["t"].size == 6  # initial state plus five steps
        snaps = read_snapshots(str(out / "snapshots.jsonl"))
        assert len(snaps) >= 2
        summary = json.loads((out / "summary.json").read_text())
        assert summary["status"] == "completed"
        assert "seed_free" not in summary

    def test_header_block(self, flat_cfg, tmp_path):
        out = tmp_path / "out"
        main(["run", "--config", flat_cfg, "--out", str(out)])
        head = (out / "diagnostics.csv").read_text().splitlines()[:3]
        assert head[0].startswith("# contourdyn.diagnostics")
        assert head[1].startswith("# config_sha256=")
        assert head[2].split(",")[0:4] == ["t", "m", "alpha_star", "dmdt"]

    @pytest.mark.parametrize("config", ["relaxation", "contrast", "waves"])
    def test_identical_configs_identical_files(self, tmp_path, config):
        # contrast and wave states carry their evaluation into the next step
        contrast = STABLE_CFG.replace("[physics]\n", "[physics]\nmu_plus = 2.0\nmu_minus = 0.5\n")
        text = {
            "relaxation": STABLE_CFG,
            "contrast": contrast.replace("t_end = 0.3", "t_end = 0.1"),
            "waves": (CONFIGS / "internal_wave.cfg").read_text().replace("t_end = 2.0", "t_end = 0.2"),
        }[config]
        cfg = tmp_path / "run.cfg"
        cfg.write_text(text)
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
            outs.append(out)
        for fname in ("diagnostics.csv", "snapshots.jsonl", "summary.json"):
            assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()

    def test_config_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("[output]\ndt ==\n")
        assert main(["run", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2
        record = json.loads(capsys.readouterr().err.strip())
        assert record["error"] == "ParseError"
        assert record["line"] == 2

    @pytest.mark.parametrize(
        "key, value",
        [
            ("dt", "nan"),
            ("dt", "inf"),
            ("t_end", "nan"),
            ("t_end", "inf"),
            ("contact_tol", "nan"),
            ("contact_tol", "inf"),
            ("contact_tol", "-0.001"),
        ],
    )
    def test_bad_run_length_exit_code(self, tmp_path, capsys, key, value):
        output = {"dt": "0.01", "t_end": "0.02", key: value}
        bad = tmp_path / "bad.cfg"
        lines = [f"{k} = {v}\n" for k, v in output.items()]
        bad.write_text("[grid]\nN = 128\n[output]\n" + "".join(lines))
        assert main(["run", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2
        record = json.loads(capsys.readouterr().err.strip())
        assert record["error"] == "ValidationError"
        assert key in record["detail"]

    @pytest.mark.parametrize(
        "key, value",
        [
            ("cfl_safety", "0.125"),
            ("picard_tol", "1e-10"),
            ("picard_max_iter", "200"),
            ("implicit_tol", "1e-10"),
            ("implicit_max_iter", "50"),
            ("blowup_cap", "1000.0"),
            ("chord_arc_cap", "1000.0"),
        ],
    )
    def test_removed_key_rejected(self, tmp_path, capsys, key, value):
        # the solver limits are constants, so the keys are unknown whatever their value
        bad = tmp_path / "bad.cfg"
        bad.write_text(f"[grid]\nN = 128\n[output]\nt_end = 0.02\n{key} = {value}\n")
        assert main(["run", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2
        record = json.loads(capsys.readouterr().err.strip())
        assert record["error"] == "ParseError"
        assert record["line"] == 5

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize(
        "key",
        ["amplitude", "window_flat", "window_ramp", "delta", "z1_wiggle",
         "omega_amplitude", "omega_center", "omega_sigma"],
    )
    def test_non_finite_initial_exit_code(self, tmp_path, capsys, key, value):
        bad = tmp_path / "bad.cfg"
        bad.write_text(
            "[grid]\nN = 128\n[initial]\nprofile = cosine\nomega_profile = gaussian\n"
            f"{key} = {value}\n[output]\nt_end = 0.02\n"
        )
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["run", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2
        assert not caught
        # the JSON error record is all of stderr
        record = json.loads(capsys.readouterr().err.strip())
        assert record["error"] == "ValidationError"
        assert key in record["detail"]

    def test_muskat_omega_profile_exit_code(self, tmp_path, capsys):
        # the Darcy closure sets omega: a strength profile under muskat is an error, not ignored
        bad = tmp_path / "bad.cfg"
        text = (CONFIGS / "stable_relaxation.cfg").read_text()
        extra = "omega_profile = gaussian\nomega_amplitude = 5.0\nomega_center = 19.0\n"
        bad.write_text(text.replace("[initial]\n", "[initial]\n" + extra))
        assert main(["run", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2
        record = json.loads(capsys.readouterr().err.strip())
        assert record["error"] == "ValidationError"
        assert "omega_profile" in record["detail"] and "muskat" in record["detail"]
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "config, key, value",
        [("stable_relaxation", "omega_amplitude", "5.0"), ("unstable_pinch", "window_flat", "3.0")],
    )
    def test_unread_initial_key_exit_code(self, tmp_path, capsys, config, key, value):
        # a key that neither profile reads would change the hash and nothing else
        bad = tmp_path / "bad.cfg"
        text = (CONFIGS / f"{config}.cfg").read_text()
        bad.write_text(text.replace("[initial]\n", f"[initial]\n{key} = {value}\n"))
        assert main(["run", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2
        record = json.loads(capsys.readouterr().err.strip())
        assert record["error"] == "ValidationError" and key in record["detail"]
        assert not (tmp_path / "o").exists()

    def test_missing_config_exit_code(self, tmp_path, capsys):
        assert main(["run", "--config", str(tmp_path / "nope.cfg"), "--out", str(tmp_path)]) == 2
        record = json.loads(capsys.readouterr().err.strip())
        assert record["error"] == "ValidationError"

    def test_missing_input_files_exit_code(self, flat_cfg, tmp_path, capsys):
        assert main(["fit", "--in", str(tmp_path / "nope.csv")]) == 2
        assert main(["analyze", "--config", flat_cfg, "--in", str(tmp_path / "nope.jsonl")]) == 2

    def test_unwritable_out_exit_code(self, flat_cfg, tmp_path, capsys):
        # an output directory under a regular file cannot be made: a JSON error, no traceback
        (tmp_path / "file").write_text("")
        assert main(["run", "--config", flat_cfg, "--out", str(tmp_path / "file" / "x")]) == 2
        record = json.loads(capsys.readouterr().err.strip())
        assert record["error"] == "ValidationError"
        assert "diagnostics.csv" in record["detail"]

    def test_waterwaves_run_and_analyze(self, tmp_path, capsys):
        cfg = tmp_path / "wave.cfg"
        cfg.write_text(
            "[model]\ntype = waterwaves\n[grid]\nN = 128\nL = 20.0\n"
            "[physics]\nrho_plus = 3.0\nrho_minus = 1.0\n"
            "[initial]\nprofile = cosine\namplitude = 0.05\n"
            "omega_profile = gaussian\nomega_amplitude = 0.1\nomega_sigma = 1.5\n"
            "[output]\ndt = 0.01\nt_end = 0.05\nsnapshot_every = 1\n"
        )
        out = tmp_path / "o"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["analyze", "--config", str(cfg), "--in", str(out / "snapshots.jsonl")]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["omega_source"].startswith("zero")

    def test_no_convergence_exit_code(self, tmp_path, capsys, monkeypatch):
        # a viscosity contrast whose closure cannot converge within the cap
        cfg = tmp_path / "contrast.cfg"
        cfg.write_text(STABLE_CFG.replace("[initial]", "mu_plus = 2.0\nmu_minus = 0.5\n[initial]"))
        monkeypatch.setattr(kernels, "MAX_FIXED_POINT_ITER", 1)
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 3
        record = json.loads(capsys.readouterr().err.strip())
        assert record["error"] == "NoConvergence"
        assert not (tmp_path / "o").exists()  # the initial closure failed: no output directory

    def test_initial_state_at_contact_exit_code(self, tmp_path, capsys):
        # the initial state passes the checks every accepted step passes:
        # a pinch below contact_tol = 1e-4 ends the set-up, before any file
        cfg = tmp_path / "contact.cfg"
        text = (CONFIGS / "unstable_pinch.cfg").read_text()
        cfg.write_text(text.replace("delta = 0.3", "delta = 5e-5"))
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 3
        record = json.loads(capsys.readouterr().err.strip())
        assert record["error"] == "BottomContact" and "at t=0 " in record["detail"]
        assert not (tmp_path / "o").exists()

    def test_terminal_event_exit_code(self, tmp_path, capsys):
        cfg = tmp_path / "contact.cfg"
        cfg.write_text(
            "[model]\ntype = muskat\n[grid]\nN = 128\nL = 20.0\n"
            "[physics]\nrho_plus = 6.283185307179586\nrho_minus = 0.0\n"
            "[initial]\nprofile = pinch\ndelta = 0.06\nwindow_ramp = 4.0\n"
            "[output]\ndt = 0.01\nt_end = 2.0\ncontact_tol = 0.055\n"
        )
        out = tmp_path / "o"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 3
        summary = json.loads((out / "summary.json").read_text())
        assert summary["status"] == "bottom_contact"


class TestLibraryParity:
    def test_cli_matches_library_run_bitwise(self, stable_cfg, tmp_path):
        # the CLI is a thin shell: its CSV must reproduce an in-process run
        # of the same parsed configuration bit for bit
        from contourdyn.cli import initial_state
        from contourdyn.config import parse_config
        from contourdyn.evolve import run as run_simulation
        from support import MemorySink

        out = tmp_path / "out"
        assert main(["run", "--config", stable_cfg, "--out", str(out)]) == 0
        csv = read_diagnostics(str(out / "diagnostics.csv"))

        parsed = parse_config(stable_cfg)
        sink = MemorySink()
        run_simulation(parsed.sim, initial_state(parsed), [sink])
        assert len(sink.diagnostics) == csv["t"].size
        for name in ("t", "m", "dmdt", "J", "chord_arc"):
            mem = np.array([getattr(d, name) for d in sink.diagnostics])
            assert np.array_equal(mem, csv[name])


class TestSplitPass:
    def test_split_run_files_identical_to_one_thread(self, tmp_path, monkeypatch):
        # every pair pass at N = 1024 split over two threads, then on one
        shipped = CONFIGS / "stable_relaxation.cfg"
        text = shipped.read_text()
        for old, new in (("N = 256", "N = 1024"), ("t_end = 1.0", "t_end = 0.015"),
                         ("snapshot_every = 20", "snapshot_every = 1")):
            assert old in text
            text = text.replace(old, new)
        cfg = tmp_path / "relax1024.cfg"
        cfg.write_text(text)
        outs = []
        for split_nodes in (0, 10**9):
            monkeypatch.setattr(kernels, "SPLIT_NODES", split_nodes)
            outs.append(tmp_path / f"split{split_nodes}")
            assert main(["run", "--config", str(cfg), "--out", str(outs[-1])]) == 0
        for fname in ("diagnostics.csv", "snapshots.jsonl", "summary.json"):
            assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()


class TestAnalyze:
    def test_analyze_snapshot(self, stable_cfg, tmp_path, capsys):
        out = tmp_path / "out"
        main(["run", "--config", stable_cfg, "--out", str(out)])
        capsys.readouterr()
        code = main(
            ["analyze", "--config", stable_cfg, "--in", str(out / "snapshots.jsonl")]
        )
        assert code == 0
        record = json.loads(capsys.readouterr().out)
        assert record["verdict"] == "criteria satisfied"
        assert abs(record["identity_Itilde"] - record["identity_I"] - np.pi) < 1e-3
        assert record["omega_source"] == "model closure"

    @pytest.mark.parametrize(
        "physics", ["", "mu_plus = 2.0\nmu_minus = 0.5\n"], ids=["equal", "contrast"]
    )
    def test_analyze_rebuilds_the_initial_state(self, tmp_path, capsys, physics):
        # analyze on the t = 0 snapshot reports what the run recorded in row 0
        cfg = tmp_path / "run.cfg"
        text = STABLE_CFG.replace("[physics]\n", "[physics]\n" + physics)
        cfg.write_text(text.replace("t_end = 0.3", "t_end = 0.02"))
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        capsys.readouterr()
        snapshots = str(out / "snapshots.jsonl")
        assert main(["analyze", "--config", str(cfg), "--in", snapshots, "--index", "0"]) == 0
        record = json.loads(capsys.readouterr().out)
        row = read_diagnostics(str(out / "diagnostics.csv"))
        assert record["t"] == row["t"][0] == 0.0
        for key, column in [
            ("m", "m"), ("alpha_star", "alpha_star"), ("chord_arc", "chord_arc"),
            ("omega_c1", "omega_c1_norm"),
        ]:
            assert record[key] == row[column][0], key

    def run_and_analyze(self, cfg, tmp_path, capsys, monkeypatch):
        """Pair passes by kind and velocity applies of analyze on a run's t = 0 snapshot."""
        from contourdyn import evolve

        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        capsys.readouterr()
        calls = [count_calls(monkeypatch, module, ["pv_all_nodes"]) for module in (kernels, evolve)]
        before = dict(kernels.pair_passes)
        snapshots = str(out / "snapshots.jsonl")
        assert main(["analyze", "--config", str(cfg), "--in", snapshots, "--index", "0"]) == 0
        passes = {k: kernels.pair_passes[k] - before[k] for k in before}
        applies = sum(c["pv_all_nodes"] for c in calls)
        return passes, applies, json.loads(capsys.readouterr().out)

    def test_wave_analyze_makes_no_pair_pass(self, tmp_path, capsys, monkeypatch):
        # the report's strength is the zero a snapshot implies: no wave closure runs
        cfg = tmp_path / "wave.cfg"
        text = (CONFIGS / "internal_wave.cfg").read_text()
        cfg.write_text(text.replace("t_end = 2.0", "t_end = 0.02"))
        passes, applies, record = self.run_and_analyze(cfg, tmp_path, capsys, monkeypatch)
        assert passes == {"assembly": 0, "fused": 0}
        assert applies == 0
        assert record["omega_source"].startswith("zero")

    def test_contrast_analyze_makes_one_assembly(self, tmp_path, capsys, monkeypatch):
        # the closure's Picard solve on its one operator, and no velocity from it
        cfg = tmp_path / "contrast.cfg"
        text = STABLE_CFG.replace("[physics]\n", "[physics]\nmu_plus = 2.0\nmu_minus = 0.5\n")
        cfg.write_text(text.replace("t_end = 0.3", "t_end = 0.02"))
        passes, applies, record = self.run_and_analyze(cfg, tmp_path, capsys, monkeypatch)
        assert passes == {"assembly": 1, "fused": 0}
        assert applies == 0
        assert record["omega_source"] == "model closure"

    def test_snapshot_from_another_grid_exit_code(self, tmp_path, capsys):
        # a wave run's N = 128 snapshot read under the shipped N = 256 config
        cfg = tmp_path / "coarse.cfg"
        text = (CONFIGS / "internal_wave.cfg").read_text()
        cfg.write_text(text.replace("N = 256", "N = 128").replace("t_end = 2.0", "t_end = 0.02"))
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        capsys.readouterr()
        shipped = str(CONFIGS / "internal_wave.cfg")
        assert main(["analyze", "--config", shipped, "--in", str(out / "snapshots.jsonl")]) == 2
        record = json.loads(capsys.readouterr().err.strip())
        assert record["error"] == "ValidationError"
        assert "node_count=128" in record["detail"] and "node_count=256" in record["detail"]

    def test_index_out_of_range_exit_code(self, stable_cfg, tmp_path, capsys):
        out = tmp_path / "out"
        main(["run", "--config", stable_cfg, "--out", str(out)])
        lines = (out / "snapshots.jsonl").read_text().splitlines()
        snapshots = str(tmp_path / "three.jsonl")
        Path(snapshots).write_text("\n".join(lines[:4]) + "\n")  # header and 3 records
        assert len(read_snapshots(snapshots)) == 3
        capsys.readouterr()
        code = main(["analyze", "--config", stable_cfg, "--in", snapshots, "--index", "99"])
        assert code == 2
        record = json.loads(capsys.readouterr().err.strip())
        assert record["error"] == "ValidationError"
        assert "99" in record["detail"] and "3 stored" in record["detail"]

    def test_analyze_decodes_one_record(self, stable_cfg, tmp_path, capsys, monkeypatch):
        from contourdyn import io as contourdyn_io

        out = tmp_path / "out"
        assert main(["run", "--config", stable_cfg, "--out", str(out)]) == 0
        snapshots = str(out / "snapshots.jsonl")
        assert len(read_snapshots(snapshots)) == 4
        capsys.readouterr()
        calls = count_calls(monkeypatch, contourdyn_io, ["curve_from_record"])
        assert main(["analyze", "--config", stable_cfg, "--in", snapshots, "--index", "-1"]) == 0
        assert calls["curve_from_record"] == 1

    def test_record_without_z2_exit_code(self, stable_cfg, tmp_path, capsys):
        out = tmp_path / "out"
        main(["run", "--config", stable_cfg, "--out", str(out)])
        header, first, *_ = (out / "snapshots.jsonl").read_text().splitlines()
        record = json.loads(first)
        del record["z2"]
        broken = tmp_path / "broken.jsonl"
        broken.write_text(header + "\n" + json.dumps(record) + "\n")
        capsys.readouterr()
        assert main(["analyze", "--config", stable_cfg, "--in", str(broken)]) == 2
        record = json.loads(capsys.readouterr().err.strip())
        assert record["error"] == "ValidationError"
        assert "z2" in record["detail"]

    @staticmethod
    def analyze_lines(stable_cfg, tmp_path, capsys, header=None, record=None):
        """Exit code and error record of analyze on a two-line snapshot file."""
        from contourdyn.cli import initial_state
        from contourdyn.config import parse_config
        from contourdyn.io import SNAPSHOT_FORMAT, SNAPSHOT_FORMAT_VERSION, curve_record

        good = curve_record(initial_state(parse_config(stable_cfg)).curve, 0.0)
        if header is None:
            header = {"format": SNAPSHOT_FORMAT, "format_version": SNAPSHOT_FORMAT_VERSION}
        path = tmp_path / "snapshots.jsonl"
        lines = (header, good if record is None else record)
        path.write_text("".join(json.dumps(line) + "\n" for line in lines))
        capsys.readouterr()
        code = main(["analyze", "--config", stable_cfg, "--in", str(path)])
        return code, json.loads(capsys.readouterr().err.strip())

    def test_header_not_an_object_exit_code(self, stable_cfg, tmp_path, capsys):
        code, record = self.analyze_lines(stable_cfg, tmp_path, capsys, header=[1, 2])
        assert code == 2
        assert record["error"] == "ValidationError"
        assert "line 1" in record["detail"]

    def test_record_not_an_object_exit_code(self, stable_cfg, tmp_path, capsys):
        code, record = self.analyze_lines(stable_cfg, tmp_path, capsys, record=7)
        assert code == 2
        assert record["error"] == "ValidationError"
        assert "line 2" in record["detail"]

    @staticmethod
    def flat_record(t: float) -> dict:
        """A snapshot record of the flat state on 32 nodes at time t."""
        from contourdyn.geometry import Grid, InterfaceCurve
        from contourdyn.io import curve_record

        grid = Grid(20.0, 32)
        return curve_record(InterfaceCurve(grid, grid.alpha, np.ones(32)), t)

    @pytest.mark.parametrize("key", ["half_width", "z1", "z2"])
    def test_non_numeric_samples_exit_code(self, stable_cfg, tmp_path, capsys, key):
        bad = self.flat_record(0.0)
        bad[key] = ["x"] * 32
        code, record = self.analyze_lines(stable_cfg, tmp_path, capsys, record=bad)
        assert code == 2
        assert record["error"] == "ValidationError"
        assert "not numeric" in record["detail"]

    def test_format_version_1_file_exit_code(self, stable_cfg, tmp_path, capsys):
        # the earlier file: no format_version, and {t, alpha, z1, z2} as JSON numbers
        from contourdyn.geometry import Grid
        from contourdyn.io import SNAPSHOT_FORMAT

        header = {"format": SNAPSHOT_FORMAT, "version": "0.1.0", "config_sha256": "0" * 64}
        old = {"t": 0.0, "alpha": Grid(20.0, 32).alpha.tolist(), "z1": [0.0] * 32, "z2": [1.0] * 32}
        code, record = self.analyze_lines(stable_cfg, tmp_path, capsys, header=header, record=old)
        assert code == 2
        assert record["error"] == "ValidationError"
        assert "format version 2" in record["detail"]

    @pytest.mark.parametrize("t", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_time_exit_code(self, stable_cfg, tmp_path, capsys, t):
        bad = self.flat_record(t)
        code, record = self.analyze_lines(stable_cfg, tmp_path, capsys, record=bad)
        assert code == 2
        assert record["error"] == "ValidationError"
        assert "snapshot time must be finite" in record["detail"]


class TestPackage:
    def test_star_import_binds_no_module(self):
        namespace: dict = {}
        exec("from contourdyn import *", namespace)
        assert "annotations" not in namespace
        assert not [name for name, value in namespace.items() if isinstance(value, ModuleType)]
        assert "run" in namespace and "SimConfig" in namespace

    def test_every_public_name_is_used_by_the_program(self):
        # each name in __all__ is reachable from the CLI's main through the
        # package's code, ignoring docstrings, imports and __init__: a helper
        # only tests call fails here
        import contourdyn

        edges, used = {}, {"main"}  # name -> the names its top-level definition uses
        for path in Path(contourdyn.__file__).parent.glob("*.py"):
            if path.name == "__init__.py":
                continue
            for node in ast.parse(path.read_text(encoding="utf-8")).body:
                if isinstance(node, (ast.Import, ast.ImportFrom)):
                    for alias in node.names:  # `run as run_simulation`: the alias uses run
                        if alias.asname:
                            edges.setdefault(alias.asname, set()).add(alias.name)
                    continue
                refs = {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
                        if isinstance(n, (ast.Name, ast.Attribute))}
                if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                    edges.setdefault(node.name, set()).update(refs)
                else:  # module-level code runs on import
                    used |= refs
        todo = list(used)
        while todo:
            new = edges.get(todo.pop(), set()) - used
            used |= new
            todo.extend(new)
        assert sorted(set(contourdyn.__all__) - used) == []


    def test_only_io_names_a_file_format(self):
        # each output layout has one owner: no other module names a format or
        # writes a stamped header line
        import contourdyn

        owned = ("contourdyn.diagnostics", "contourdyn.snapshots", "contourdyn.identity",
                 "# config_sha256=", '"config_sha256"')
        for path in Path(contourdyn.__file__).parent.glob("*.py"):
            if path.name != "io.py":
                text = path.read_text(encoding="utf-8")
                assert [name for name in owned if name in text] == [], path.name


class TestRuntimeImports:
    def test_fit_and_analyze_do_not_import_scipy(self, stable_cfg, tmp_path):
        import contourdyn

        out = tmp_path / "out"
        assert main(["run", "--config", stable_cfg, "--out", str(out)]) == 0
        src = str(Path(contourdyn.__file__).parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = {**os.environ, "PYTHONPATH": path}
        for argv in (
            ["fit", "--in", str(out / "diagnostics.csv")],
            ["analyze", "--config", stable_cfg, "--in", str(out / "snapshots.jsonl")],
        ):
            probe = (
                "import sys\nfrom contourdyn.cli import main\n"
                f"assert main({argv!r}) == 0\n"
                "assert 'scipy' not in sys.modules, sorted(m for m in sys.modules if 'scipy' in m)\n"
            )
            done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True)
            assert done.returncode == 0, done.stderr


class TestIdentity:
    def test_sweep_decreases(self, tmp_path, capsys):
        cfg = tmp_path / "bump.cfg"
        cfg.write_text(BUMP_CFG)
        out = tmp_path / "o"
        assert main(["identity", "--config", str(cfg), "--out", str(out)]) == 0
        lines = [l.split() for l in capsys.readouterr().out.strip().splitlines()]
        ns = [int(l[0]) for l in lines]
        defects = [float(l[1]) for l in lines]
        assert ns == sorted(ns)
        assert defects[-1] < defects[0]
        table = (out / "identity.csv").read_text()
        assert "N,defect" in table

    def test_shipped_wave_sweeps_the_grids_its_window_fits(self, tmp_path, capsys):
        # at N = 64 the wave's window support (12 + 4) reaches the decay band
        cfg = str(CONFIGS / "internal_wave.cfg")
        assert main(["identity", "--config", cfg, "--out", str(tmp_path)]) == 0
        lines = [l.split() for l in capsys.readouterr().out.strip().splitlines()]
        assert [int(l[0]) for l in lines] == [128, 256]
        assert float(lines[1][1]) < float(lines[0][1])
        table = (tmp_path / "identity.csv").read_text().splitlines()
        assert table[:3] == [
            f"# contourdyn.identity v{__version__}",
            f"# config_sha256={parse_config(cfg).sha256}",
            "N,defect",
        ]
        assert [row.split(",")[0] for row in table[3:]] == ["128", "256"]

    def test_odd_half_rounds_down_to_an_even_grid(self, tmp_path, capsys):
        cfg = tmp_path / "n130.cfg"
        shipped = (CONFIGS / "stable_relaxation.cfg").read_text()
        cfg.write_text(shipped.replace("N = 256", "N = 130"))
        assert main(["identity", "--config", str(cfg)]) == 0
        assert [int(l.split()[0]) for l in capsys.readouterr().out.splitlines()] == [64, 130]

    def test_coarse_config_sweeps_only_its_own_grid(self, tmp_path, capsys):
        # N/2, N/4 and N/8 of N = 32 are all below 64: no grid finer than the config's
        cfg = tmp_path / "flat32.cfg"
        cfg.write_text(FLAT_CFG.replace("N = 128", "N = 32"))
        assert main(["identity", "--config", str(cfg)]) == 0
        assert [int(l.split()[0]) for l in capsys.readouterr().out.splitlines()] == [32]

    def test_unwritable_out_exit_code(self, flat_cfg, tmp_path, capsys):
        (tmp_path / "file").write_text("")
        assert main(["identity", "--config", flat_cfg, "--out", str(tmp_path / "file" / "x")]) == 2
        record = json.loads(capsys.readouterr().err.strip())
        assert record["error"] == "ValidationError"
        assert "identity.csv" in record["detail"]

    def test_window_beyond_the_configs_own_grid_exit_code(self, tmp_path, capsys):
        cfg = tmp_path / "wave64.cfg"
        cfg.write_text((CONFIGS / "internal_wave.cfg").read_text().replace("N = 256", "N = 64"))
        assert main(["identity", "--config", str(cfg)]) == 2
        record = json.loads(capsys.readouterr().err.strip())
        assert record["error"] == "ValidationError"
        assert "decay band" in record["detail"]


class TestFit:
    def test_fit_from_csv(self, tmp_path, capsys):
        csv = tmp_path / "diag.csv"
        t = np.linspace(0.0, 2.0, 24)
        m = np.exp(-np.exp(t))
        lines = ["# contourdyn.diagnostics v0", "# config_sha256=deadbeef", "t,m"]
        lines += [f"{float(ti)!r},{float(mi)!r}" for ti, mi in zip(t, m)]
        csv.write_text("\n".join(lines) + "\n")
        assert main(["fit", "--in", str(csv)]) == 0
        record = json.loads(capsys.readouterr().out)
        assert abs(record["C_fit"] - 1.0) <= 1e-3
        assert record["certified"] is True

    def test_fit_failure_exit_code(self, tmp_path, capsys):
        csv = tmp_path / "diag.csv"
        csv.write_text("t,m\n0.0,0.5\n1.0,0.4\n")
        assert main(["fit", "--in", str(csv)]) == 3
        record = json.loads(capsys.readouterr().err.strip())
        assert record["error"] == "FitFailure"

    def test_non_numeric_cell_exit_code(self, tmp_path, capsys):
        csv = tmp_path / "diag.csv"
        csv.write_text("t,m\n0.0,0.5\n1.0,oops\n")
        assert main(["fit", "--in", str(csv)]) == 2
        record = json.loads(capsys.readouterr().err.strip())
        assert record["error"] == "ValidationError"

    @pytest.mark.parametrize("column", ["t", "m"])
    def test_missing_column_exit_code(self, tmp_path, capsys, column):
        csv = tmp_path / "diag.csv"
        header = "t,m".replace(column, "dmdt")
        csv.write_text(f"{header}\n0.0,0.5\n1.0,0.4\n2.0,0.3\n3.0,0.2\n")
        assert main(["fit", "--in", str(csv)]) == 2
        record = json.loads(capsys.readouterr().err.strip())
        assert record["error"] == "ValidationError"
        assert f"no column {column}" in record["detail"]
