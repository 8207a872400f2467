"""Artifact I/O: atomic file writes and deterministic JSON/CSV encoding.

Every writer goes through a temp-file-plus-rename so a crash never
leaves a half-written artifact, and all numeric formatting uses repr so
identical payloads serialize to identical bytes.
"""

from __future__ import annotations

import json
import math
import os
import tempfile


def fmt_value(value) -> str:
    """Deterministic scalar formatting for CSV cells."""
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _atomic_write(path, write, **open_args) -> None:
    """Call write(handle) on a sibling temp file, then rename it to path."""
    path = str(path)
    directory = os.path.dirname(path) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, **open_args) as handle:
            write(handle)
        os.chmod(tmp, 0o644)   # mkstemp defaults to 0600
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path, text: str) -> None:
    """Write text to path via a sibling temp file and atomic rename."""
    _atomic_write(path, lambda handle: handle.write(text),
                  mode="w", encoding="utf-8", newline="\n")


def _finite_or_null(value):
    """JSON has no infinity or NaN: a non-finite float becomes None."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {k: _finite_or_null(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite_or_null(v) for v in value]
    return value


def write_json(path, payload) -> None:
    """Strict JSON: a non-finite float is written as null."""
    text = json.dumps(_finite_or_null(payload), indent=2, sort_keys=True,
                      allow_nan=False)
    atomic_write_text(path, text + "\n")


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

    if symmetric:
        matrix = sp.coo_matrix(matrix)
    _atomic_write(path, lambda handle: scipy.io.mmwrite(
        handle, matrix, symmetry="symmetric" if symmetric else None), mode="wb")


def remove_if_exists(paths) -> None:
    """Best-effort cleanup of partial artifacts after a failed command."""
    for path in paths:
        try:
            os.unlink(str(path))
        except OSError:
            pass
