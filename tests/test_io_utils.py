"""Atomic artifact writers and deterministic text encoding."""

import json
import os

import numpy as np
import pytest
import scipy.io
import scipy.sparse as sp

from maxwell_rb.io_utils import (
    atomic_write_text,
    fmt_value,
    remove_if_exists,
    render_csv,
    write_csv,
    write_json,
    write_matrix_market,
)


def _no_temp_leftovers(directory):
    return not [n for n in os.listdir(directory) if n.startswith(".tmp-")]


class TestFormatting:
    @pytest.mark.parametrize(
        "value,expected",
        [
            (None, ""),
            (True, "true"),
            (False, "false"),
            (0.1, "0.1"),
            (1e-9, "1e-09"),
            (7, "7"),
            ("label", "label"),
        ],
    )
    def test_fmt_value(self, value, expected):
        assert fmt_value(value) == expected

    def test_float_repr_is_exact(self):
        # repr round trips every float bit for bit
        x = 0.1 + 0.2
        assert float(fmt_value(x)) == x

    def test_render_csv(self):
        text = render_csv(["t", "val"], [[0.5, None], [1.0, True]])
        assert text == "t,val\n0.5,\n1.0,true\n"


class TestAtomicWriters:
    def test_write_and_overwrite(self, tmp_path):
        path = tmp_path / "a.txt"
        atomic_write_text(path, "first\n")
        atomic_write_text(path, "second\n")
        assert path.read_text() == "second\n"
        assert _no_temp_leftovers(tmp_path)

    def test_creates_parent_directories(self, tmp_path):
        path = tmp_path / "deep" / "er" / "a.txt"
        atomic_write_text(path, "x")
        assert path.read_text() == "x"

    def test_file_is_world_readable(self, tmp_path):
        path = tmp_path / "a.txt"
        atomic_write_text(path, "x")
        assert os.stat(path).st_mode & 0o077 == 0o044

    def test_json_round_trip_sorted(self, tmp_path):
        path = tmp_path / "r.json"
        payload = {"zeta": [1, 2], "alpha": {"b": 0.25, "a": None}}
        write_json(path, payload)
        assert json.loads(path.read_text()) == payload
        text = path.read_text()
        assert text.index('"alpha"') < text.index('"zeta"')
        assert text.endswith("\n")

    def test_json_bytes_deterministic(self, tmp_path):
        payload = {"b": 1.5, "a": [True, None]}
        write_json(tmp_path / "x.json", payload)
        write_json(tmp_path / "y.json", payload)
        assert (tmp_path / "x.json").read_bytes() == (tmp_path / "y.json").read_bytes()

    def test_write_csv(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(path, ["a", "b"], [[1, 2.5]])
        assert path.read_text() == "a,b\n1,2.5\n"
        assert _no_temp_leftovers(tmp_path)


class TestMatrixMarket:
    def test_dense_round_trip(self, tmp_path):
        path = tmp_path / "m.mtx"
        M = np.arange(12.0).reshape(3, 4) / 7.0
        write_matrix_market(path, M)
        back = scipy.io.mmread(str(path))
        assert np.array_equal(np.asarray(back), M)
        assert _no_temp_leftovers(tmp_path)

    def test_sparse_symmetric_round_trip(self, tmp_path):
        path = tmp_path / "s.mtx"
        rng = np.random.default_rng(3)
        A = sp.random(8, 8, density=0.3, random_state=rng)
        A = (A + A.T).tocsr()
        write_matrix_market(path, A, symmetric=True)
        header = path.read_text().splitlines()[0]
        assert "symmetric" in header
        back = scipy.io.mmread(str(path))
        assert np.allclose(back.toarray(), A.toarray(), rtol=0, atol=0)

    def test_dense_from_symmetric_flag(self, tmp_path):
        # the flag accepts dense input too; only the lower triangle is stored
        path = tmp_path / "d.mtx"
        M = np.array([[2.0, 1.0], [1.0, 3.0]])
        write_matrix_market(path, M, symmetric=True)
        back = scipy.io.mmread(str(path))
        assert np.array_equal(back.toarray(), M)


class TestCleanup:
    def test_remove_if_exists(self, tmp_path):
        present = tmp_path / "x"
        present.write_text("x")
        remove_if_exists([present, tmp_path / "missing"])
        assert not present.exists()
