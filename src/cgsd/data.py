"""Synthetic ordinal-feature benchmark with a controllable domain shift.

Class means sit on a line through feature space at evenly spaced positions,
so grade order is geometric. The target domain is a fresh draw from the same
class-conditional distribution pushed through a rotation plus a bias, which
breaks an encoder fitted on the source domain without destroying the
ordinal structure itself.
"""

from __future__ import annotations

import functools
import io
import json
import math
import tokenize
import zipfile
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import ClassVar

import numpy as np

from .errors import ConfigError, DataError, ParseError
from .numkit import check_finite

# integer tags for deriving independent RNG substreams from one seed
_SUB_SOURCE = 0
_SUB_TARGET = 1
_SUB_SHIFT = 2
_SUB_SPLIT = 3

TRAIN_FRACTION = 0.7  # the train split's share of a dataset's rows


@dataclass
class Dataset:
    features: np.ndarray  # n x d_in
    labels: np.ndarray  # n ints in [0, k)
    k: int
    domain_tag: str
    seed: int

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def d_in(self) -> int:
        return self.features.shape[1]

    def subset(self, idx: np.ndarray) -> "Dataset":
        return Dataset(
            features=self.features[idx].copy(),
            labels=self.labels[idx].copy(),
            k=self.k,
            domain_tag=self.domain_tag,
            seed=self.seed,
        )


@dataclass
class SyntheticConfig:
    n: int = 3662
    d_in: int = 64
    k: int = 5
    seed: int = 42
    proportions: tuple[float, ...] = (0.50, 0.10, 0.27, 0.05, 0.08)
    separation: float = 4.0
    # fixed values, which no caller sets: the noise sigma and the target's shift
    noise: ClassVar[float] = 1.0
    shift_angle: ClassVar[float] = 0.5
    shift_bias: ClassVar[float] = 0.5

    def __post_init__(self):
        if self.k < 2:
            raise ConfigError("need at least two grades")
        if len(self.proportions) != self.k:
            raise ConfigError("proportions length must equal k")
        if abs(sum(self.proportions) - 1.0) > 1e-9:
            raise ConfigError("proportions must sum to 1")
        if any(p < 0 for p in self.proportions):
            raise ConfigError("proportions must be nonnegative")
        if self.n < self.k:
            raise ConfigError("need n >= k samples")
        # no split can be stratified over a grade without rows
        counts = apportion(self.n, [self.n * p for p in self.proportions])
        if 0 in counts:
            raise ConfigError(f"proportions give grade {counts.index(0)} no rows at n={self.n}")
        if self.d_in < 2:
            raise ConfigError("need d_in >= 2")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")


def apportion(total: int, quotas) -> list[int]:
    """Round quotas to integers that sum to total: floors first, then one more
    for each of the largest remainders; ties go to the smaller index."""
    counts = [int(np.floor(q)) for q in quotas]
    leftover = total - sum(counts)
    remainders = sorted(range(len(counts)), key=lambda j: (-(quotas[j] - counts[j]), j))
    for j in remainders[:leftover]:
        counts[j] += 1
    return counts


def class_means(cfg: SyntheticConfig) -> np.ndarray:
    """k x d_in matrix of class means along the first axis."""
    means = np.zeros((cfg.k, cfg.d_in))
    for j in range(cfg.k):
        means[j, 0] = (j / (cfg.k - 1)) * cfg.separation
    return means


def _draw(cfg: SyntheticConfig, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    # numpy refuses an array of more bytes than it can index before allocating
    if cfg.n * cfg.d_in > np.iinfo(np.intp).max // 8:
        raise MemoryError(f"{cfg.n} rows of {cfg.d_in} features cannot be indexed")
    counts = apportion(cfg.n, [cfg.n * p for p in cfg.proportions])
    means = class_means(cfg)
    feats = np.empty((cfg.n, cfg.d_in))
    labels = np.empty(cfg.n, dtype=np.int64)
    pos = 0
    for j, c in enumerate(counts):
        feats[pos : pos + c] = means[j] + cfg.noise * rng.standard_normal((c, cfg.d_in))
        labels[pos : pos + c] = j
        pos += c
    return feats, labels


def apply_domain_shift(
    features: np.ndarray, shift_angle: float, shift_bias: float, seed: int
) -> np.ndarray:
    """Rotate in the plane of axes (0,1), rotate by the same angle in a seeded
    random 2-plane disjoint from those axes, then add a bias along axis 0."""
    d = features.shape[1]
    out = features.copy()

    c, s = np.cos(shift_angle), np.sin(shift_angle)
    x0, x1 = out[:, 0].copy(), out[:, 1].copy()
    out[:, 0] = c * x0 - s * x1
    out[:, 1] = s * x0 + c * x1

    if d >= 4:
        rng = np.random.default_rng(np.random.SeedSequence((seed, _SUB_SHIFT)))
        basis = rng.standard_normal((d - 2, 2))
        q, _ = np.linalg.qr(basis)
        sub = out[:, 2:]
        coords = sub @ q  # n x 2 coordinates in the random plane
        r0 = c * coords[:, 0] - s * coords[:, 1]
        r1 = s * coords[:, 0] + c * coords[:, 1]
        rotated = np.stack([r0, r1], axis=1)
        out[:, 2:] = sub + (rotated - coords) @ q.T

    out[:, 0] += shift_bias
    return out


def gen_synthetic(cfg: SyntheticConfig) -> tuple[Dataset, Dataset]:
    """Source dataset plus an independently redrawn, shifted target dataset."""
    src_rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, _SUB_SOURCE)))
    tgt_rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, _SUB_TARGET)))
    src_feats, src_labels = _draw(cfg, src_rng)
    tgt_feats, tgt_labels = _draw(cfg, tgt_rng)
    tgt_feats = apply_domain_shift(tgt_feats, cfg.shift_angle, cfg.shift_bias, cfg.seed)
    source = Dataset(src_feats, src_labels, cfg.k, "source", cfg.seed)
    target = Dataset(tgt_feats, tgt_labels, cfg.k, "target", cfg.seed)
    return source, target


def stratified_split(ds: Dataset) -> tuple[Dataset, Dataset]:
    """Per-class split of floor(n * TRAIN_FRACTION) train rows, apportioned from
    each class's count * TRAIN_FRACTION; ds.seed seeds the draw."""
    counts = np.bincount(ds.labels, minlength=ds.k)
    if np.any(counts == 0):
        empty = int(np.argmin(counts))
        raise DataError(f"class {empty} has no samples; cannot stratify")
    takes = apportion(int(np.floor(ds.n * TRAIN_FRACTION)), counts * TRAIN_FRACTION)

    rng = np.random.default_rng(np.random.SeedSequence((ds.seed, _SUB_SPLIT)))
    train_idx: list[int] = []
    test_idx: list[int] = []
    for j in range(ds.k):
        members = np.flatnonzero(ds.labels == j)
        perm = rng.permutation(members)
        train_idx.extend(perm[: takes[j]].tolist())
        test_idx.extend(perm[takes[j] :].tolist())
    train_idx.sort()
    test_idx.sort()
    return ds.subset(np.array(train_idx, dtype=np.intp)), ds.subset(
        np.array(test_idx, dtype=np.intp)
    )


# ---------------------------------------------------------------------------
# file I/O: CSV of label,f0..f{d-1} plus a JSON metadata sidecar, and the
# checkpoint format both models use: an uncompressed zip holding a meta.json
# member (the format tag and the model's meta fields), then one float64 .npy
# member per tensor


NUMBER = (int, float)
_INT64_MAX = 2**63 - 1

_ZIP_MAGIC = b"PK\x03\x04"
_META = "meta.json"
# a fixed member date, so two saves of one model give the same bytes
_ZIP_DATE = (1980, 1, 1, 0, 0, 0)
_NPY_VERSION = (1, 0)
_F8 = np.dtype("<f8")


def _parse_json_object(blob: bytes, where: str, fields: dict) -> dict:
    """Parse UTF-8 JSON text holding an object with every key in fields, each
    value an instance of the type fields gives for it; true and false count
    as bool only, never as a number. where names the text in errors."""
    try:
        doc = json.loads(blob.decode("utf-8"))
    # json.loads recurses once per nested array or object
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as e:
        raise ParseError(f"{where} is not valid JSON: {e}") from None
    if not isinstance(doc, dict):
        raise ParseError(f"{where} does not hold a JSON object")
    for key, typ in fields.items():
        if key not in doc:
            raise ParseError(f"{where} lacks key '{key}'")
        value = doc[key]
        if not isinstance(value, typ) or (isinstance(value, bool) and typ is not bool):
            raise ParseError(f"{where}: key '{key}' has the wrong type")
    return doc


def read_json_object(path: str | Path, what: str, fields: dict) -> dict:
    """_parse_json_object on the file at path; what names its kind in errors."""
    path = Path(path)
    if not path.exists():
        raise ParseError(f"{what} not found: {path}")
    return _parse_json_object(path.read_bytes(), f"{what} {path}", fields)


def save_checkpoint(
    path: str | Path, fmt: str, meta: dict, tensors: dict[str, np.ndarray]
) -> None:
    """Write a checkpoint tagged fmt to path, under exactly that name: the
    meta fields, then each tensor as a float64 .npy member; the shapes follow
    from the meta fields. A non-finite tensor or meta number, which loading
    refuses, raises NumericError first."""
    for name, value in [*meta.items(), *tensors.items()]:
        if not isinstance(value, str):
            check_finite(value, f"checkpoint {path}: {name}")
    blob = io.BytesIO()
    with zipfile.ZipFile(blob, "w", zipfile.ZIP_STORED) as zf:
        zf.writestr(zipfile.ZipInfo(_META, date_time=_ZIP_DATE),
                    json.dumps({"format": fmt, **meta}))
        for name, a in tensors.items():
            npy = io.BytesIO()
            np.lib.format.write_array(
                npy, np.ascontiguousarray(a, dtype=_F8), _NPY_VERSION, allow_pickle=False
            )
            zf.writestr(zipfile.ZipInfo(f"{name}.npy", date_time=_ZIP_DATE), npy.getvalue())
    Path(path).write_bytes(blob.getvalue())


@functools.lru_cache(maxsize=256)
def _npy_header(shape: tuple) -> bytes:
    """The .npy bytes before the data, magic included, that save_checkpoint
    writes for a C-order <f8 array of the shape."""
    out = io.BytesIO()
    np.lib.format.write_array_header_1_0(
        out, {"descr": _F8.str, "fortran_order": False, "shape": shape})
    return out.getvalue()


def _read_tensor(zf: zipfile.ZipFile, name: str, shape: tuple, where: str) -> np.ndarray:
    """A member's float64 array of the given shape; its .npy header is checked
    before any data is read, so a damaged header allocates nothing. A header
    equal, byte for byte, to the one save_checkpoint writes for the shape is
    accepted without numpy's ast-based parse, most of a small tensor's load
    time; any other is parsed and checked."""
    what = f"{where}: weight {name}"
    with zf.open(f"{name}.npy") as f:
        header = _npy_header(shape)
        if f.read(len(header)) != header:
            f.seek(0)
            if np.lib.format.read_magic(f) != _NPY_VERSION:
                raise ParseError(f"{what}: not a version 1.0 .npy member")
            got, fortran, dtype = np.lib.format.read_array_header_1_0(f)
            if dtype != _F8 or fortran:
                raise ParseError(f"{what}: dtype {dtype} is not C-order <f8")
            if got != shape:
                raise ParseError(f"{what}: shape {got} is not {shape}")
        # reading to the end runs zipfile's CRC check
        data = f.read()
    if len(data) != _F8.itemsize * math.prod(shape):
        raise ParseError(f"{what}: {len(data)} data bytes do not fill {shape}")
    arr = np.frombuffer(data, dtype=_F8).reshape(shape)
    if not np.all(np.isfinite(arr)):
        raise ParseError(f"{what}: values are not all finite")
    return arr


def load_checkpoint(
    path: str | Path, fmt: str, fields: dict, shapes
) -> tuple[dict, dict[str, np.ndarray]]:
    """Read a checkpoint written by save_checkpoint: its format tag must be
    fmt and each meta key in fields must have the type given for it.
    shapes(meta) checks the meta values, raising ParseError for one out of
    range, and gives each tensor's shape; the tensors come back at those
    shapes. Every error is a ParseError that names the file."""
    path = Path(path)
    where = f"checkpoint {path}"
    if not path.exists():
        raise ParseError(f"checkpoint not found: {path}")
    blob = path.read_bytes()
    if not blob.startswith(_ZIP_MAGIC):
        if blob.lstrip()[:1] == b"{":
            raise ParseError(f"{where} is a retired JSON checkpoint; retrain it")
        raise ParseError(f"{where} is not a checkpoint: no zip header")
    try:
        with zipfile.ZipFile(io.BytesIO(blob)) as zf:
            # a compressed member could inflate far beyond the file's size
            if any(i.compress_type != zipfile.ZIP_STORED for i in zf.infolist()):
                raise ParseError(f"{where}: a member is compressed")
            meta = _parse_json_object(zf.read(_META), where, {"format": str, **fields})
            if meta["format"] != fmt:
                raise ParseError(
                    f"{where}: format mismatch: expected {fmt}, got {meta['format']!r}"
                )
            try:
                expected = shapes(meta)
            except ParseError as e:
                raise ParseError(f"{where}: {e}") from None
            names = sorted(zf.namelist())
            if names != sorted([_META, *(f"{name}.npy" for name in expected)]):
                raise ParseError(f"{where}: members {names} are not this format's")
            tensors = {
                name: _read_tensor(zf, name, tuple(shape), where)
                for name, shape in expected.items()
            }
    except ParseError:
        raise
    # what zipfile and the .npy header reader raise on damaged bytes, an
    # encrypted member (RuntimeError) and a non-UTF-8 member name (ValueError)
    # included; some of their messages run over several lines
    except (zipfile.BadZipFile, KeyError, ValueError, EOFError, zlib.error,
            NotImplementedError, RuntimeError, tokenize.TokenError) as e:
        detail = str(e).splitlines()[0] if str(e) else type(e).__name__
        raise ParseError(f"{where}: {detail}") from None
    return meta, tensors


def write_json(path: str | Path, doc: dict) -> None:
    """Write a report as sorted, indented JSON with a trailing newline."""
    Path(path).write_text(
        json.dumps(doc, sort_keys=True, indent=2) + "\n", encoding="utf-8", newline="\n"
    )


def write_dataset(path: str | Path, ds: Dataset) -> None:
    """Write ds as CSV, a row at a time, plus its metadata sidecar. What
    read_dataset refuses raises first, and nothing is written: a non-finite
    feature (NumericError), no feature column, a grade count outside [2, n]
    or a label outside [0, k) (DataError)."""
    path = Path(path)
    check_finite(ds.features, f"the features for {path}")
    if ds.d_in < 1:
        raise DataError(f"{path}: no feature columns")
    if not 2 <= ds.k <= ds.n:
        raise DataError(f"{path}: k={ds.k} grades, expected 2 to n={ds.n}")
    bad = ds.labels[(ds.labels < 0) | (ds.labels >= ds.k)]
    if bad.size:
        raise DataError(f"{path}: label {bad[0]} out of range [0,{ds.k})")
    with path.open("w", encoding="utf-8", newline="\n") as f:
        f.write("label," + ",".join(f"f{i}" for i in range(ds.d_in)) + "\n")
        for lab, row in zip(ds.labels.tolist(), ds.features):
            f.write(f"{lab}," + ",".join(map(repr, row.tolist())) + "\n")
    meta = {
        "n": int(ds.n),
        "d_in": int(ds.d_in),
        "k": int(ds.k),
        "domain_tag": ds.domain_tag,
        "seed": int(ds.seed),
    }
    meta_beside(path).write_text(
        json.dumps(meta, indent=2) + "\n", encoding="utf-8", newline="\n"
    )


def meta_beside(path: str | Path) -> Path:
    """The .meta.json sidecar of a dataset file."""
    return Path(str(path) + ".meta.json")


def _csv_lines(path: Path):
    """The lines str.splitlines gives of the file's UTF-8 text, one at a time:
    each piece up to an LF, which no UTF-8 sequence holds, is decoded alone,
    so a decode error is the whole file's, at its position in the file."""
    offset = 0
    with open(path, "rb") as f:
        for raw in f:
            try:
                text = raw.decode("utf-8")
            except UnicodeDecodeError as e:
                start, end = offset + e.start, offset + e.end - 1
                at = (f"byte 0x{raw[e.start]:02x} in position {start}" if start == end
                      else f"bytes in position {start}-{end}")
                raise ParseError(f"{path}: not UTF-8 text: "
                                 f"'utf-8' codec can't decode {at}: {e.reason}") from None
            yield from text.splitlines()
            offset += len(raw)


def _parse_row(row: str, lineno: int, d_in: int, k: int) -> tuple[int, list[float]]:
    """A data row's label and features, or a ValueError naming its fault."""
    parts = row.split(",")
    if len(parts) != d_in + 1:
        raise ValueError(f"row length mismatch at line {lineno}: "
                         f"expected {d_in + 1} fields, got {len(parts)}")
    try:
        lab = int(parts[0])
    except ValueError:
        raise ValueError(f"non-integer label '{parts[0]}' at line {lineno}") from None
    if not 0 <= lab < k:
        raise ValueError(f"label {lab} out of range [0,{k}) at line {lineno}")
    try:
        # a label past int64 is in range only when k is, and no file holds
        # that many rows, so the grade-count check refuses it in its turn
        return min(lab, _INT64_MAX), list(map(float, parts[1:]))
    except ValueError:
        raise ValueError(f"non-numeric feature at line {lineno}") from None


def read_dataset(path: str | Path) -> Dataset:
    """A dataset file, read a line at a time in one pass that parses the rows
    that fit and counts every line. Errors wait for the end of the file: a
    non-UTF-8 byte anywhere, the header, the sidecar's n against the count,
    the first bad row, a non-finite feature, then the grade count."""
    path = Path(path)
    meta = read_json_object(
        meta_beside(path),
        "metadata",
        {"n": int, "d_in": int, "k": int, "domain_tag": str, "seed": int},
    )
    # the seed seeds the split, and SeedSequence refuses a negative one
    if meta["seed"] < 0:
        raise ParseError(f"metadata {meta_beside(path)}: key 'seed' is negative")
    if not path.exists():
        raise ParseError(f"dataset file not found: {path}")
    n, d_in, k = meta["n"], meta["d_in"], meta["k"]

    lines = _csv_lines(path)
    header = next(lines, None)
    # the field count first, so no header is built wider than the file's
    fields = 0 if header is None else len(header.split(","))
    header_ok = fields == d_in + 1 and header == "label," + ",".join(
        f"f{i}" for i in range(d_in))
    # a row of d_in + 1 fields takes at least 2 d_in + 1 bytes, so a sidecar n
    # beyond what the file can hold never sizes the arrays
    fit = min(max(n, 0), path.stat().st_size // (2 * d_in + 1)) if header_ok else 0
    # only a matched header bounds d_in by the file, and numpy refuses a
    # negative or huge width even for no rows
    feats = np.empty((fit, d_in if header_ok else 0))
    labels = np.empty(fit, dtype=np.int64)
    found, bad_row = 0, None
    for found, row in enumerate(lines, 1):
        if found <= fit and bad_row is None:
            try:
                labels[found - 1], feats[found - 1] = _parse_row(row, found + 1, d_in, k)
            except ValueError as e:
                bad_row = e
    if not header_ok:
        raise ParseError(
            f"{path}: header mismatch at line 1: expected label,f0..f{d_in - 1} "
            f"({d_in + 1} fields), got {fields} fields"
        )
    if found != n:
        raise ParseError(f"{path}: expected {n} data rows, found {found}")
    if bad_row is not None:
        raise ParseError(f"{path}: {bad_row}")
    # a good header and n good rows take more bytes than a size that gives
    # fit < n, so such a file grew after its size was read
    if fit < n:
        raise ParseError(f"{path}: the file changed while it was read")
    bad = ~np.isfinite(feats).all(axis=1)
    if bad.any():
        raise ParseError(f"{path}: non-finite feature at line {np.argmax(bad) + 2}")
    # SyntheticConfig's rules; k sizes the per-grade arrays built from it
    if not 2 <= k <= n:
        raise ParseError(f"{path}: k={k} grades, expected 2 to n={n}")
    return Dataset(feats, labels, k, meta["domain_tag"], meta["seed"])
