"""A whole-text dataset reader: the reference ``cgsd.data.read_dataset`` must
match, array for array and message for message.

It decodes all of the file's bytes at once, splits the text with
``str.splitlines`` and applies the reader's checks in the reader's order: a
non-UTF-8 byte anywhere, the header, the sidecar's row count, the first bad
row, a non-finite feature, then the grade count. Test modules import it by
name (``import reader_oracle``), as they do ``optim_oracle``.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from cgsd.errors import ParseError


def read_whole(path: str | Path) -> tuple[np.ndarray, np.ndarray]:
    """The features and labels of the dataset file at path, whose sidecar
    holds well-typed n, d_in and k; a fault raises read_dataset's ParseError."""
    path = Path(path)
    meta = json.loads(Path(str(path) + ".meta.json").read_text())
    n, d_in, k = meta["n"], meta["d_in"], meta["k"]
    try:
        lines = path.read_bytes().decode("utf-8").splitlines()
    except UnicodeDecodeError as e:
        raise ParseError(f"{path}: not UTF-8 text: {e}") from None
    fields = len(lines[0].split(",")) if lines else 0
    if not lines or lines[0] != "label," + ",".join(f"f{i}" for i in range(d_in)):
        raise ParseError(
            f"{path}: header mismatch at line 1: expected label,f0..f{d_in - 1} "
            f"({d_in + 1} fields), got {fields} fields"
        )
    rows = lines[1:]
    if len(rows) != n:
        raise ParseError(f"{path}: expected {n} data rows, found {len(rows)}")
    feats = np.empty((n, d_in))
    labels = np.empty(n, dtype=np.int64)
    for i, row in enumerate(rows):
        lineno = i + 2
        parts = row.split(",")
        if len(parts) != d_in + 1:
            raise ParseError(
                f"{path}: row length mismatch at line {lineno}: "
                f"expected {d_in + 1} fields, got {len(parts)}"
            )
        try:
            lab = int(parts[0])
        except ValueError:
            raise ParseError(f"{path}: non-integer label '{parts[0]}' at line {lineno}")
        if not 0 <= lab < k:
            raise ParseError(f"{path}: label {lab} out of range [0,{k}) at line {lineno}")
        # beyond int64, a label in range means a k the grade-count check refuses
        labels[i] = min(lab, 2**63 - 1)
        try:
            feats[i] = [float(v) for v in parts[1:]]
        except ValueError:
            raise ParseError(f"{path}: non-numeric feature at line {lineno}")
    bad = ~np.isfinite(feats).all(axis=1)
    if bad.any():
        raise ParseError(f"{path}: non-finite feature at line {np.argmax(bad) + 2}")
    if not 2 <= k <= n:
        raise ParseError(f"{path}: k={k} grades, expected 2 to n={n}")
    return feats, labels
