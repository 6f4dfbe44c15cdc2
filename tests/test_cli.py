"""End-to-end command-line behavior and output file contracts."""

import json
import os
import subprocess
import sys
import warnings
from pathlib import Path
from types import ModuleType

import numpy as np
import pytest

from contourdyn import kernels
from contourdyn.cli import _build_parser, main
from contourdyn.io import read_diagnostics, read_snapshots

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

    def test_identical_configs_identical_files(self, stable_cfg, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main(["run", "--config", stable_cfg, "--out", str(out)]) == 0
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

    def test_missing_config_exit_code(self, tmp_path, capsys):
        assert main(["run", "--config", str(tmp_path / "nope.cfg"), "--out", str(tmp_path)]) == 2
        record = json.loads(capsys.readouterr().err.strip())
        assert record["error"] == "ValidationError"

    def test_missing_input_files_exit_code(self, flat_cfg, tmp_path, capsys):
        assert main(["fit", "--in", str(tmp_path / "nope.csv")]) == 2
        assert main(["analyze", "--config", flat_cfg, "--in", str(tmp_path / "nope.jsonl")]) == 2

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
        from contourdyn.io import MemorySink

        out = tmp_path / "out"
        assert main(["run", "--config", stable_cfg, "--out", str(out)]) == 0
        csv = read_diagnostics(str(out / "diagnostics.csv"))

        parsed = parse_config(stable_cfg)
        sink = MemorySink()
        run_simulation(parsed.sim, initial_state(parsed), [sink])
        assert len(sink.diagnostics) == csv["t"].size
        for name in ("t", "m", "dmdt", "J", "chord_arc", "tail_bound"):
            mem = np.array([getattr(d, name) for d in sink.diagnostics])
            assert np.array_equal(mem, csv[name])


class TestSplitPass:
    def test_split_run_files_identical_to_one_thread(self, tmp_path, monkeypatch):
        # every pair pass at N = 1024 split over two threads, then on one
        shipped = Path(__file__).resolve().parent.parent / "configs" / "stable_relaxation.cfg"
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
        assert "99" in record["detail"]

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
        from contourdyn.geometry import curve_record
        from contourdyn.io import SNAPSHOT_FORMAT

        good = curve_record(initial_state(parse_config(stable_cfg)).curve, 0.0)
        header = {"format": SNAPSHOT_FORMAT} if header is None else header
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

    @pytest.mark.parametrize("key", ["alpha", "z1", "z2"])
    def test_non_numeric_samples_exit_code(self, stable_cfg, tmp_path, capsys, key):
        from contourdyn.geometry import Grid

        bad = {"t": 0.0, "alpha": Grid(20.0, 32).alpha.tolist(), "z1": [0.0] * 32, "z2": [1.0] * 32}
        bad[key] = ["x"] * 32
        code, record = self.analyze_lines(stable_cfg, tmp_path, capsys, record=bad)
        assert code == 2
        assert record["error"] == "ValidationError"
        assert "not numeric" in record["detail"]

    @pytest.mark.parametrize("t", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_time_exit_code(self, stable_cfg, tmp_path, capsys, t):
        from contourdyn.geometry import Grid

        bad = {"t": t, "alpha": Grid(20.0, 32).alpha.tolist(), "z1": [0.0] * 32, "z2": [1.0] * 32}
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
