"""Artifact I/O: atomic file writes and deterministic JSON/CSV encoding.

Every writer goes through a temp-file-plus-rename so a crash never
leaves a half-written artifact, and all numeric formatting uses repr so
identical payloads serialize to identical bytes.
"""

from __future__ import annotations

import json
import os
import tempfile


def fmt_value(value) -> str:
    """Deterministic scalar formatting for CSV cells."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def atomic_write_text(path, text: str) -> None:
    """Write text to path via a sibling temp file and atomic rename."""
    path = str(path)
    directory = os.path.dirname(path) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)
        os.chmod(tmp, 0o644)   # mkstemp defaults to 0600
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_json(path, payload) -> None:
    atomic_write_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def render_csv(header, rows) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(fmt_value(cell) for cell in row))
    return "\n".join(lines) + "\n"


def write_csv(path, header, rows) -> None:
    atomic_write_text(path, render_csv(header, rows))


def write_matrix_market(path, matrix, symmetric: bool = False) -> None:
    """Atomically write a dense or sparse matrix in Matrix Market format.

    scipy is imported lazily so this module stays importable before the
    thread cap is exported to the BLAS environment.
    """
    import scipy.io
    import scipy.sparse as sp

    path = str(path)
    directory = os.path.dirname(path) or "."
    os.makedirs(directory, exist_ok=True)
    if symmetric:
        matrix = sp.coo_matrix(matrix)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "wb") as handle:
            scipy.io.mmwrite(handle, matrix,
                             symmetry="symmetric" if symmetric else None)
        os.chmod(tmp, 0o644)   # mkstemp defaults to 0600
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def remove_if_exists(paths) -> None:
    """Best-effort cleanup of partial artifacts after a failed command."""
    for path in paths:
        try:
            os.unlink(str(path))
        except OSError:
            pass
