"""End-to-end command-line behavior: artifacts, exit codes, determinism.

Most tests drive main() in process against a coarse mesh so the suite
stays fast; subprocess tests cover what only a fresh interpreter can
show (thread-cap export before numpy loads, logging configuration).
"""

import json
import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.io

import maxwell_rb
from maxwell_rb.cli import _apply_thread_cap, _THREAD_ENV_VARS, main

_CFG_TEXT = """\
resolution = 3 3 3
N_POD = 6
N_train = 10
N_max = 12
eval_set_size = 5
initial_steps = 4
"""


@pytest.fixture
def cfg_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(_CFG_TEXT)
    return str(path)


def _subprocess_env(**extra):
    """Environment in which a child interpreter imports the same package
    copy as this test process."""
    src = os.path.dirname(os.path.dirname(maxwell_rb.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path, **extra)


def _read_json(path):
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


class TestParsing:
    def test_requires_a_command(self):
        with pytest.raises(SystemExit) as err:
            main([])
        assert err.value.code == 2

    def test_help_lists_commands(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["--help"])
        assert err.value.code == 0
        out = capsys.readouterr().out
        for name in ("solve", "build-basis", "track", "bench", "export-matrices"):
            assert name in out

    def test_bad_gauge_choice(self, cfg_file):
        with pytest.raises(SystemExit) as err:
            main(["solve", "--config", cfg_file, "--gauge", "coulomb"])
        assert err.value.code == 2

    def test_export_matrices_has_no_gauge_flag(self, cfg_file):
        with pytest.raises(SystemExit) as err:
            main(["export-matrices", "--config", cfg_file, "--gauge", "mixed"])
        assert err.value.code == 2


class TestThreadCap:
    @pytest.fixture(autouse=True)
    def clean_env(self, monkeypatch):
        for name in _THREAD_ENV_VARS:
            monkeypatch.delenv(name, raising=False)

    def test_exports_all_runtime_variables(self):
        _apply_thread_cap(["solve", "--threads", "2"])
        assert all(os.environ[name] == "2" for name in _THREAD_ENV_VARS)

    def test_equals_form(self):
        _apply_thread_cap(["solve", "--threads=3"])
        assert os.environ["OMP_NUM_THREADS"] == "3"

    def test_last_occurrence_wins(self):
        _apply_thread_cap(["solve", "--threads", "2", "--threads=4"])
        assert os.environ["OMP_NUM_THREADS"] == "4"

    def test_invalid_value_left_to_argparse(self):
        _apply_thread_cap(["solve", "--threads", "many"])
        assert "OMP_NUM_THREADS" not in os.environ


class TestConfigHandling:
    def test_missing_config_file_exit_2(self, tmp_path, capsys):
        rc = main(["solve", "--config", str(tmp_path / "absent.cfg")])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_bad_key_reports_line_exit_2(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text("volume = 3\n")
        rc = main(["solve", "--config", str(path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert ":1: unknown key 'volume'" in err

    def test_seed_override_reaches_provenance(self, cfg_file, tmp_path):
        out = str(tmp_path / "out")
        rc = main(["build-basis", "--config", cfg_file, "--output", out,
                   "--seed", "777"])
        assert rc == 0
        prov = _read_json(os.path.join(out, "provenance.json"))
        assert prov["config"]["seed"] == 777


class TestSolve:
    def test_prints_mode_table(self, cfg_file, capsys):
        rc = main(["solve", "--config", cfg_file])
        assert rc == 0
        out = capsys.readouterr().out
        assert "t = 0.0  gauge = mixed" in out
        data_rows = [ln for ln in out.splitlines() if ln[:1].isdigit()]
        assert len(data_rows) == 5

    def test_export_writes_artifacts(self, cfg_file, tmp_path):
        out = str(tmp_path / "out")
        rc = main(["solve", "--config", cfg_file, "--output", out,
                   "--t", "0.5", "--export"])
        assert rc == 0
        for name in ("A_t.mtx", "B_t.mtx", "modes.mtx", "solve.json"):
            assert os.path.exists(os.path.join(out, name))
        payload = _read_json(os.path.join(out, "solve.json"))
        assert payload["schema_version"] == 1
        assert payload["t"] == 0.5
        assert len(payload["eigenvalues"]) == 5
        assert all(r < 1e-6 for r in payload["residual_norms"])
        modes = np.asarray(scipy.io.mmread(os.path.join(out, "modes.mtx")))
        assert modes.shape == (36, 5)   # free edges x K at this resolution

    def test_classical_gauge_agrees_with_mixed(self, cfg_file, tmp_path):
        payloads = []
        for gauge in ("mixed", "classical"):
            out = str(tmp_path / gauge)
            rc = main(["solve", "--config", cfg_file, "--output", out,
                       "--t", "0.3", "--gauge", gauge, "--export"])
            assert rc == 0
            payloads.append(_read_json(os.path.join(out, "solve.json")))
        assert np.allclose(payloads[0]["eigenvalues"],
                           payloads[1]["eigenvalues"], rtol=1e-8)

    def test_classical_factors_mass_once(self, cfg_file, monkeypatch):
        from maxwell_rb.eigen import SPDFactor

        built = []
        init = SPDFactor.__init__

        def counting_init(self, B):
            built.append(B.shape)
            init(self, B)

        monkeypatch.setattr(SPDFactor, "__init__", counting_init)
        rc = main(["solve", "--config", cfg_file, "--gauge", "classical"])
        assert rc == 0
        assert len(built) == 1

    def test_t_outside_range_exit_2(self, cfg_file, capsys):
        rc = main(["solve", "--config", cfg_file, "--t", "1.5"])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_too_many_modes_exit_3(self, tmp_path, capsys):
        # the coarsest mesh has only 5 physical modes
        path = tmp_path / "t.cfg"
        path.write_text("resolution = 2 2 2\nK = 6\nN_POD = 2\n"
                        "N_train = 2\neval_set_size = 2\n")
        rc = main(["solve", "--config", str(path)])
        assert rc == 3
        assert "numerical failure:" in capsys.readouterr().err


class TestBuildBasis:
    def test_artifacts(self, cfg_file, tmp_path, capsys):
        out = str(tmp_path / "out")
        rc = main(["build-basis", "--config", cfg_file, "--output", out])
        assert rc == 0
        Z = np.asarray(scipy.io.mmread(os.path.join(out, "basis.mtx")))
        prov = _read_json(os.path.join(out, "provenance.json"))
        assert prov["schema_version"] == 1
        assert prov["gauge_mode"] == "mixed"
        assert prov["n_free_edges"] == 36 and prov["n_cotree"] == 28
        assert Z.shape == (28, prov["n_red"])
        assert len(prov["columns"]) == prov["n_red"]
        with open(os.path.join(out, "convergence_log.csv")) as handle:
            header = handle.readline().strip()
        assert header == "iteration,t,mode,max_eta,n_red"
        stdout = capsys.readouterr().out
        assert "gauge = mixed" in stdout and "N_red" in stdout

    def test_classical_gauge(self, cfg_file, tmp_path):
        out = str(tmp_path / "out")
        rc = main(["build-basis", "--config", cfg_file, "--output", out,
                   "--gauge", "classical"])
        assert rc == 0
        prov = _read_json(os.path.join(out, "provenance.json"))
        assert prov["gauge_mode"] == "classical"
        Z = np.asarray(scipy.io.mmread(os.path.join(out, "basis.mtx")))
        assert Z.shape[0] == 28   # classical basis lives in cotree DoFs too

    def test_repeated_runs_byte_identical(self, cfg_file, tmp_path):
        # identical config means identical output directory too; the
        # artifacts are snapshotted between the two runs
        out = str(tmp_path / "out")
        names = ("provenance.json", "convergence_log.csv", "basis.mtx")
        snapshots = []
        for _ in range(2):
            assert main(["build-basis", "--config", cfg_file,
                         "--output", out]) == 0
            snapshots.append({name: open(os.path.join(out, name), "rb").read()
                              for name in names})
        for name in names:
            assert snapshots[0][name] == snapshots[1][name], \
                "%s differs between identical runs" % name


class TestTrack:
    def test_reduced_artifacts(self, cfg_file, tmp_path):
        out = str(tmp_path / "out")
        rc = main(["track", "--config", cfg_file, "--output", out])
        assert rc == 0
        meta = _read_json(os.path.join(out, "track_reduced.json"))
        assert meta["path"] == "reduced"
        assert len(meta["permutations"]) == meta["grid_points"] - 1
        assert meta["timing"]["wall_seconds"] > 0.0
        with open(os.path.join(out, "trajectory_reduced.csv")) as handle:
            lines = handle.read().splitlines()
        assert lines[0] == ("t," + ",".join("lambda_%d" % i for i in range(1, 6))
                            + "," + ",".join("corr_%d" % i for i in range(1, 6)))
        assert len(lines) - 1 == meta["grid_points"]
        first = [float(x) for x in lines[1].split(",")]
        assert first[0] == 0.0 and all(c == 1.0 for c in first[6:])
        t_col = [float(ln.split(",")[0]) for ln in lines[1:]]
        assert t_col == sorted(t_col) and t_col[-1] == 1.0

    def test_full_path_artifacts(self, cfg_file, tmp_path):
        out = str(tmp_path / "out")
        rc = main(["track", "--config", cfg_file, "--output", out, "--full"])
        assert rc == 0
        assert os.path.exists(os.path.join(out, "trajectory_full.csv"))
        meta = _read_json(os.path.join(out, "track_full.json"))
        assert meta["path"] == "full"

    def test_deterministic_outside_timing(self, cfg_file, tmp_path):
        out = str(tmp_path / "out")
        metas, csvs = [], []
        for _ in range(2):
            assert main(["track", "--config", cfg_file, "--output", out]) == 0
            meta = _read_json(os.path.join(out, "track_reduced.json"))
            meta.pop("timing")
            metas.append(meta)
            csvs.append(open(os.path.join(out, "trajectory_reduced.csv"),
                             "rb").read())
        assert metas[0] == metas[1]
        assert csvs[0] == csvs[1]


class TestExportMatrices:
    def test_endpoint_exports(self, cfg_file, tmp_path):
        out = str(tmp_path / "out")
        rc = main(["export-matrices", "--config", cfg_file, "--output", out])
        assert rc == 0
        for name in ("A0.mtx", "B0.mtx", "A1.mtx", "B1.mtx"):
            assert os.path.exists(os.path.join(out, name))
        assert not os.path.exists(os.path.join(out, "A_t.mtx"))
        meta = _read_json(os.path.join(out, "matrices.json"))
        assert meta["n_free_edges"] == 36 and meta["n_cotree"] == 28
        assert meta["nnz_A0"] > 0 and meta["t"] is None

    def test_interpolated_pair(self, cfg_file, tmp_path):
        out = str(tmp_path / "out")
        rc = main(["export-matrices", "--config", cfg_file, "--output", out,
                   "--t", "0.25"])
        assert rc == 0
        A0 = scipy.io.mmread(os.path.join(out, "A0.mtx")).toarray()
        A1 = scipy.io.mmread(os.path.join(out, "A1.mtx")).toarray()
        At = scipy.io.mmread(os.path.join(out, "A_t.mtx")).toarray()
        assert np.allclose(At, 0.75 * A0 + 0.25 * A1, rtol=1e-14, atol=0)
        assert _read_json(os.path.join(out, "matrices.json"))["t"] == 0.25


class TestSubprocess:
    def test_module_entry_help(self):
        proc = subprocess.run(
            [sys.executable, "-m", "maxwell_rb.cli", "--help"],
            capture_output=True, text=True, env=_subprocess_env())
        assert proc.returncode == 0
        assert "build-basis" in proc.stdout

    def test_quiet_logging_silences_stderr(self, cfg_file, tmp_path):
        env = _subprocess_env(MAXWELL_RB_LOG="quiet")
        proc = subprocess.run(
            [sys.executable, "-m", "maxwell_rb.cli", "export-matrices",
             "--config", cfg_file, "--output", str(tmp_path / "q")],
            capture_output=True, text=True, env=env)
        assert proc.returncode == 0
        assert proc.stderr == ""

    def test_info_logging_reports_progress(self, cfg_file, tmp_path):
        env = _subprocess_env(MAXWELL_RB_LOG="info")
        proc = subprocess.run(
            [sys.executable, "-m", "maxwell_rb.cli", "export-matrices",
             "--config", cfg_file, "--output", str(tmp_path / "v")],
            capture_output=True, text=True, env=env)
        assert proc.returncode == 0
        assert "INFO" in proc.stderr

    def test_thread_cap_exported_before_numpy(self, cfg_file, tmp_path):
        # the cap must land in the environment of the same process that
        # then imports numpy; probe it after main() returns
        script = (
            "import os, sys\n"
            "from maxwell_rb.cli import main\n"
            "rc = main(['export-matrices', '--config', sys.argv[1],\n"
            "           '--output', sys.argv[2], '--threads', '2'])\n"
            "print(os.environ['OMP_NUM_THREADS'])\n"
            "sys.exit(rc)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script, cfg_file, str(tmp_path / "t")],
            capture_output=True, text=True, env=_subprocess_env())
        assert proc.returncode == 0
        assert proc.stdout.strip().splitlines()[-1] == "2"
