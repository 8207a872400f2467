"""Benchmark report: schema, phase coverage, failure capture, determinism.

A coarse mesh with two timing repetitions keeps the whole study fast;
the magnitude claims about speedups and plateaus belong to the
acceptance tests at the default problem size.
"""

import json
import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace

import jsonschema
import numpy as np
import pytest

import maxwell_rb
from maxwell_rb import bench
from maxwell_rb.bench import (
    PHASE_EVP_FULL,
    PHASE_EVP_RB,
    PHASE_LABELS,
    PHASE_TRACK_FULL,
    PHASE_TRACK_RB,
    SCHEMA_VERSION,
    leading_block_eigenvalues,
    peak_traced_bytes,
    render_report_table,
    run_bench,
    trailing_average,
)
from maxwell_rb.cli import _write_sweep_csv, main
from maxwell_rb.config import parse_config_text
from maxwell_rb.errors import ConfigError, NumericsError, TrackingError
from maxwell_rb import rb
from maxwell_rb.eigen import pcg_solve
from maxwell_rb.rb import ReducedBasis, _make_evaluator

# The report's schema.  run_bench does not check its own report, so the
# package needs no jsonschema; these tests check every report they build.
REPORT_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "required": [
        "schema_version", "config", "dof_counts", "error_table",
        "error_sweep", "tracking", "timing", "phase_errors",
    ],
    "properties": {
        "schema_version": {"const": SCHEMA_VERSION},
        "config": {"type": "object"},
        "dof_counts": {
            "type": "object",
            "required": ["N", "n_cotree"],
            "properties": {
                "N": {"type": "integer", "minimum": 0},
                "n_cotree": {"type": "integer", "minimum": 0},
                "n_red_mixed": {"type": ["integer", "null"], "minimum": 0},
                "n_red_classical": {"type": ["integer", "null"], "minimum": 0},
            },
        },
        "error_table": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["mode", "error_av"],
                "properties": {
                    "mode": {"type": "integer", "minimum": 1},
                    "error_av": {"type": "number", "minimum": 0},
                },
            },
        },
        "error_sweep": {"type": "object"},
        "tracking": {"type": "object"},
        "timing": {
            "type": "object",
            "required": ["repetitions", "phase_seconds", "peak_traced_bytes"],
            "properties": {
                "repetitions": {"type": "integer", "minimum": 1},
                "phase_seconds": {
                    "type": "object",
                    "additionalProperties": {"type": ["number", "null"], "minimum": 0},
                },
                "peak_traced_bytes": {
                    "type": "object",
                    "additionalProperties": {"type": ["integer", "null"], "minimum": 0},
                },
            },
        },
        "phase_errors": {"type": "object"},
    },
}


def validate_report(report: dict) -> None:
    jsonschema.validate(report, REPORT_SCHEMA)


_TINY = """\
resolution = 3 3 3
N_POD = 6
N_train = 10
N_max = 12
eval_set_size = 5
initial_steps = 4
"""


@pytest.fixture(scope="module")
def report():
    return run_bench(parse_config_text(_TINY), reps=2)


class TestReport:
    def test_schema_valid_and_clean(self, report):
        validate_report(report)
        assert report["phase_errors"] == {}

    def test_every_phase_timed(self, report):
        seconds = report["timing"]["phase_seconds"]
        assert set(seconds) == set(PHASE_LABELS)
        assert all(v is not None and v >= 0.0 for v in seconds.values())
        assert report["timing"]["repetitions"] == 2

    def test_traced_peaks(self, report):
        assert report["schema_version"] == 2
        peaks = report["timing"]["peak_traced_bytes"]
        assert 0 < peaks["mixed"] < peaks["classical"]

    def test_dof_counts(self, report):
        counts = report["dof_counts"]
        assert counts["N"] == 36 and counts["n_cotree"] == 28
        assert counts["n_red_mixed"] >= 5
        assert counts["n_red_classical"] >= 5

    def test_ratios_computed(self, report):
        ratios = report["timing"]["ratios"]
        assert set(ratios) == {"evp_full_over_rb", "tracking_full_over_rb",
                               "classical_over_mixed_build"}
        assert all(v is not None and v > 0.0 for v in ratios.values())

    def test_error_table_converged(self, report):
        rows = report["error_table"]
        assert [row["mode"] for row in rows] == [1, 2, 3, 4, 5]
        assert all(row["error_av"] < 1e-6 for row in rows)

    def test_error_sweep_structure(self, report):
        for mode in ("mixed", "classical"):
            sweep = report["error_sweep"][mode]
            n = len(sweep["sizes"])
            assert sweep["sizes"][0] == 5
            assert len(sweep["error_av"]) == n == len(sweep["trailing"])
            assert sweep["plateau"] == sweep["error_av"][-1]

    def test_tracking_summaries(self, report):
        for path in ("reduced", "full"):
            info = report["tracking"][path]
            assert info["grid_points"] >= 5
            assert info["min_correlation"] >= 0.9
        assert report["tracking"]["reduced"]["lift_solves"] >= 2
        assert "lift_solves" not in report["tracking"]["full"]

    def test_rendered_table(self, report):
        text = render_report_table(report)
        for label in PHASE_LABELS:
            assert label in text
        assert "EVP speedup (full/RB)" in text
        assert "mixed gauge error plateau" in text
        assert "Phase failures" not in text


class TestSchemaImport:
    def test_importing_bench_leaves_jsonschema_unloaded(self):
        # jsonschema is a test dependency only: the package never needs
        # it, and a fresh interpreter shows what importing bench loads
        src = os.path.dirname(os.path.dirname(maxwell_rb.__file__))
        path = os.pathsep.join(filter(None, [src,
                                             os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, maxwell_rb.bench\n"
             "print('jsonschema' in sys.modules)"],
            capture_output=True, text=True,
            env=dict(os.environ, PYTHONPATH=path))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

    def test_validate_report_still_rejects(self, report):
        broken = dict(report, phase_errors=None)
        with pytest.raises(jsonschema.ValidationError):
            validate_report(broken)


class TestLeadingBlocks:
    @pytest.mark.parametrize("gauge_mode", ["mixed", "classical"])
    def test_sliced_sizes_match_per_size_rebuild(self, desk_problem,
                                                 gauge_mode):
        # the sweep slices one full-size pencil per t; an evaluator rebuilt
        # on the leading columns must give the same eigenvalues
        p = desk_problem
        K = p.cfg.K
        rng = np.random.default_rng(11)
        Z = np.linalg.qr(rng.standard_normal((p.gauge.cotree.size, K + 3)))[0]
        sizes = list(range(K, Z.shape[1] + 1))
        t_values = p.training.eval_set[:3]
        basis = ReducedBasis(Z=Z, provenance=(), gauge_mode=gauge_mode)
        sliced = leading_block_eigenvalues(p, basis, t_values, sizes)
        for i, n in enumerate(sizes):
            ev = _make_evaluator(gauge_mode, p.psys, p.gauge, p.policy, K)
            ev.set_basis(np.ascontiguousarray(Z[:, :n]))
            for row, t in enumerate(t_values):
                want = ev.solve_many([float(t)])[0][1].values[:K]
                rel = np.abs(sliced[i, row] - want) / want
                assert rel.max() <= 1e-12, (n, t)

    def test_built_basis_sweep_makes_no_mass_solve(self, desk_problem,
                                                   desk_basis, monkeypatch):
        # the sweep adopts the endpoint lifts the build carried; lifting
        # the same basis again would cost two PCG solves
        p = desk_problem
        calls = []

        def counted(B, rhs):
            calls.append(rhs.shape)
            return pcg_solve(B, rhs)

        monkeypatch.setattr(rb, "pcg_solve", counted)
        t_values = p.training.eval_set
        reference = bench.reference_eigenvalues(p, t_values)
        sweep, _ = bench.error_sweep(p, desk_basis.basis, t_values, reference)
        assert calls == []
        assert sweep["sizes"] == list(range(p.cfg.K,
                                            desk_basis.basis.n_red + 1))
        # without the carried lifts the same sweep lifts at both endpoints
        again, _ = bench.error_sweep(
            p, replace(desk_basis.basis, lifted=None), t_values, reference)
        assert len(calls) == 2 and again == sweep


class TestFailureCapture:
    def test_broken_problem_still_reports(self):
        # six modes cannot exist on the coarsest mesh; every phase fails
        # but the report stays schema-valid with the failures recorded
        cfg = parse_config_text(
            "resolution = 2 2 2\nK = 6\nN_POD = 2\nN_train = 2\n"
            "eval_set_size = 2\ninitial_steps = 2\n")
        report = run_bench(cfg, reps=1)
        validate_report(report)
        assert "build-mixed" in report["phase_errors"]
        # the 2^3 cotree pencil has five modes, so the classical build
        # must fail too rather than return a five-column basis
        assert "build-classical" in report["phase_errors"]
        assert report["timing"]["ratios"]["evp_full_over_rb"] is None
        assert "Phase failures" in render_report_table(report)


class TestMixedBuildFailure:
    def test_mixed_phases_skipped_and_classical_sweep_kept(self, monkeypatch):
        # every phase that needs the mixed basis is recorded as skipped,
        # and the classical error sweep, which needs only the classical
        # build and the reference solves, still runs
        build = bench.Problem.build

        def no_mixed(problem, gauge_mode):
            if gauge_mode == "mixed":
                raise NumericsError("injected mixed failure")
            return build(problem, gauge_mode)

        monkeypatch.setattr(bench.Problem, "build", no_mixed)
        report = run_bench(parse_config_text(_TINY), reps=1)
        validate_report(report)
        skipped = "skipped: mixed build failed"
        assert report["phase_errors"] == {
            "build-mixed": "injected mixed failure",
            "tracking-reduced": skipped, "evp-rb": skipped}
        assert report["dof_counts"]["n_red_classical"] is not None
        assert list(report["error_sweep"]) == ["classical"]
        sweep = report["error_sweep"]["classical"]
        assert sweep["sizes"][-1] == report["dof_counts"]["n_red_classical"]
        assert report["error_table"] == []


class TestMidRunFailure:
    def test_path_failing_after_warm_up_is_dropped(self, monkeypatch):
        # the second call is the first timed round's warm call; the full
        # path must be dropped while the other timed phases still report
        calls = []
        track_full = bench.track_full

        def flaky(*args, **kwargs):
            calls.append(None)
            if len(calls) == 2:
                raise TrackingError("injected failure")
            return track_full(*args, **kwargs)

        monkeypatch.setattr(bench, "track_full", flaky)
        report = run_bench(parse_config_text(_TINY), reps=2)
        validate_report(report)
        assert report["phase_errors"] == {"tracking-full": "injected failure"}
        assert len(calls) == 2
        seconds = report["timing"]["phase_seconds"]
        assert seconds[PHASE_TRACK_FULL] is None
        assert report["timing"]["ratios"]["tracking_full_over_rb"] is None
        assert "full" not in report["tracking"]
        assert "reduced" in report["tracking"]
        for label in (PHASE_TRACK_RB, PHASE_EVP_FULL, PHASE_EVP_RB):
            assert seconds[label] is not None and seconds[label] >= 0.0


class TestRepetitions:
    def test_rejected_before_setup(self, monkeypatch):
        def no_setup(cfg):
            raise AssertionError("setup_problem ran")

        monkeypatch.setattr(bench, "setup_problem", no_setup)
        with pytest.raises(ConfigError, match="reps"):
            run_bench(parse_config_text(_TINY), reps=0)


class TestDeterminism:
    def test_repeat_identical_outside_timing(self, report):
        again = run_bench(parse_config_text(_TINY), reps=2)
        a, b = dict(report), dict(again)
        a.pop("timing"), b.pop("timing")
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


class TestPeakTracedBytes:
    def test_inside_and_outside_a_trace(self):
        def make():
            np.ones(100_000)    # 800 kB, freed on return

        alone = peak_traced_bytes(make)
        assert not tracemalloc.is_tracing()
        tracemalloc.start()
        try:
            held = np.ones(200_000)
            nested = peak_traced_bytes(make)
            assert tracemalloc.is_tracing()
        finally:
            tracemalloc.stop()
        del held
        for peak in (alone, nested):
            assert 800_000 <= peak < 850_000


class TestTrailingAverage:
    def test_window_of_three(self):
        out = trailing_average([4.0, 2.0, 0.0, 0.0])
        assert np.allclose(out, [4.0, 3.0, 2.0, 2.0 / 3.0])

    def test_short_input(self):
        assert np.allclose(trailing_average([5.0]), [5.0])


class TestBenchCommand:
    def test_cli_artifacts(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(_TINY)
        out = str(tmp_path / "out")
        rc = main(["bench", "--config", str(cfg), "--output", out])
        assert rc == 0
        with open(os.path.join(out, "bench_report.json")) as handle:
            report = json.load(handle)
        validate_report(report)
        stdout = capsys.readouterr().out
        assert "Phase" in stdout and "median seconds" in stdout
        with open(os.path.join(out, "error_sweep.csv")) as handle:
            lines = handle.read().splitlines()
        assert lines[0] == ("size,mixed_error_av,mixed_trailing,"
                            "classical_error_av,classical_trailing")
        assert len(lines) > 1

    def test_sweep_csv_pads_missing_sizes(self, tmp_path):
        # pipelines may stop at different basis sizes; absent cells stay empty
        sweep = {
            "mixed": {"sizes": [5, 6], "error_av": [1e-3, 1e-9],
                      "trailing": [1e-3, 5e-4], "plateau": 1e-9},
            "classical": {"sizes": [5, 6, 7], "error_av": [1e-2, 1e-4, 1e-8],
                          "trailing": [1e-2, 5e-3, 3e-3], "plateau": 1e-8},
        }
        path = tmp_path / "sweep.csv"
        _write_sweep_csv(str(path), sweep)
        lines = path.read_text().splitlines()
        assert lines[1] == "5,0.001,0.001,0.01,0.01"
        assert lines[3] == "7,,,1e-08,0.003"
