"""Read and rewrite one member of a checkpoint file, the zip of a meta.json
member and one .npy member per tensor that cgsd.data.save_checkpoint writes,
for tests that damage a checkpoint on purpose."""

from __future__ import annotations

import io
import json
import zipfile
from pathlib import Path

import numpy as np

META = "meta.json"


def members(path: Path) -> dict[str, bytes]:
    """Every member's bytes, in file order."""
    with zipfile.ZipFile(path) as zf:
        return {name: zf.read(name) for name in zf.namelist()}


def write_members(path: Path, blobs: dict[str, bytes]) -> None:
    """Write blobs as an uncompressed zip, members in the dict's order."""
    with zipfile.ZipFile(path, "w", zipfile.ZIP_STORED) as zf:
        for name, blob in blobs.items():
            zf.writestr(name, blob)


def meta(path: Path) -> dict:
    return json.loads(members(path)[META])


def set_meta(path: Path, **changes) -> None:
    """Change (or add) meta fields and write the file back."""
    blobs = members(path)
    blobs[META] = json.dumps({**json.loads(blobs[META]), **changes}).encode()
    write_members(path, blobs)


def array(path: Path, name: str) -> np.ndarray:
    return np.load(io.BytesIO(members(path)[f"{name}.npy"]), allow_pickle=False)


def set_member(path: Path, name: str, blob: bytes) -> None:
    """Replace (or add) one member and write the file back."""
    blobs = members(path)
    blobs[name] = blob
    write_members(path, blobs)


def set_array(path: Path, name: str, arr: np.ndarray) -> None:
    """Store arr as the tensor's member; an object array is pickled, as
    np.save does."""
    npy = io.BytesIO()
    np.save(npy, arr, allow_pickle=True)
    set_member(path, f"{name}.npy", npy.getvalue())
