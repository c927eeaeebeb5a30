"""Synthetic benchmark generation, domain shift, splitting and file I/O."""

import builtins
import io
import json
import os
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reader_oracle
from cgsd import data as dmod
from cgsd import diffusion as df
from cgsd import guidance as gd
from cgsd.data import (
    Dataset,
    SyntheticConfig,
    apply_domain_shift,
    apportion,
    class_means,
    gen_synthetic,
    read_dataset,
    stratified_split,
    write_dataset,
)
from cgsd.errors import ConfigError, DataError, NumericError, ParseError


# ---------------------------------------------------------------------------
# apportionment


def test_apportion_default_proportions():
    assert apportion(100, [100 * p for p in (0.50, 0.10, 0.27, 0.05, 0.08)]) == [
        50, 10, 27, 5, 8]


def test_apportion_exact_split():
    assert apportion(10, [5.0, 5.0]) == [5, 5]


def test_apportion_tie_goes_to_smaller_index():
    # quotas (1.5, 1.5): one leftover slot, class 0 wins the tie
    assert apportion(3, [1.5, 1.5]) == [2, 1]


@settings(max_examples=100, deadline=None)
@given(
    st.integers(min_value=1, max_value=500),
    st.lists(st.floats(min_value=0.01, max_value=1.0), min_size=2, max_size=6),
)
def test_apportion_sums_to_n(n, weights):
    total = sum(weights)
    props = tuple(w / total for w in weights)
    assert sum(apportion(n, [n * p for p in props])) == n


def _split_takes_oracle(counts, fraction):
    """stratified_split's former inline rule: per-class floors of
    count * fraction, then floor(n * fraction) minus their sum by the largest
    remainders, ties to the smaller class."""
    quotas = counts * fraction
    takes = np.floor(quotas).astype(int)
    leftover = int(np.floor(counts.sum() * fraction)) - int(takes.sum())
    for j in sorted(range(len(counts)), key=lambda j: (-(quotas[j] - takes[j]), j))[:leftover]:
        takes[j] += 1
    return takes.tolist()


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.integers(min_value=1, max_value=2000), min_size=2, max_size=8),
    st.floats(min_value=1e-6, max_value=1.0, exclude_max=True),
)
def test_apportion_matches_the_split_rule(counts, fraction):
    counts = np.array(counts)
    total = int(np.floor(counts.sum() * fraction))
    assert apportion(total, counts * fraction) == _split_takes_oracle(counts, fraction)


# ---------------------------------------------------------------------------
# generation


def test_gen_synthetic_deterministic():
    cfg = SyntheticConfig(n=50, d_in=8, k=2, proportions=(0.5, 0.5), seed=3)
    s1, t1 = gen_synthetic(cfg)
    s2, t2 = gen_synthetic(cfg)
    np.testing.assert_array_equal(s1.features, s2.features)
    np.testing.assert_array_equal(t1.features, t2.features)
    np.testing.assert_array_equal(s1.labels, s2.labels)


def test_gen_synthetic_shapes_and_labels():
    cfg = SyntheticConfig(n=100, d_in=8, k=5, seed=0)
    source, target = gen_synthetic(cfg)
    for ds, tag in ((source, "source"), (target, "target")):
        assert ds.features.shape == (100, 8)
        assert ds.labels.min() >= 0 and ds.labels.max() < 5
        assert ds.domain_tag == tag
    counts = np.bincount(source.labels, minlength=5)
    assert counts.tolist() == [50, 10, 27, 5, 8]


def test_class_means_spacing():
    cfg = SyntheticConfig(n=10, d_in=4, k=3, proportions=(0.4, 0.3, 0.3), separation=4.0)
    means = class_means(cfg)
    np.testing.assert_allclose(means[:, 0], [0.0, 2.0, 4.0])
    assert np.all(means[:, 1:] == 0.0)


def test_config_validation():
    with pytest.raises(ConfigError):
        SyntheticConfig(k=1, proportions=(1.0,))
    with pytest.raises(ConfigError):
        SyntheticConfig(proportions=(0.5, 0.5, 0.0, 0.0, 0.1))
    with pytest.raises(ConfigError):
        SyntheticConfig(noise=0.0)
    with pytest.raises(ConfigError):
        SyntheticConfig(n=3)


# ---------------------------------------------------------------------------
# domain shift


def test_domain_shift_zero_is_identity():
    rng = np.random.default_rng(5)
    x = rng.standard_normal((10, 6))
    out = apply_domain_shift(x, 0.0, 0.0, seed=1)
    np.testing.assert_allclose(out, x, atol=1e-12)


def test_domain_shift_rotates_first_plane():
    # the first basis vector rotated a quarter turn lands on the second axis
    x = np.zeros((1, 8))
    x[0, 0] = 1.0
    out = apply_domain_shift(x, np.pi / 2.0, 0.0, seed=1)
    expected = np.zeros(8)
    expected[1] = 1.0
    np.testing.assert_allclose(out[0], expected, atol=1e-12)


def test_domain_shift_preserves_norms_without_bias():
    rng = np.random.default_rng(6)
    x = rng.standard_normal((30, 16))
    out = apply_domain_shift(x, 0.7, 0.0, seed=2)
    np.testing.assert_allclose(
        np.linalg.norm(out, axis=1), np.linalg.norm(x, axis=1), atol=1e-9
    )


def test_domain_shift_needs_two_axes():
    # the shift rotates axes 0 and 1, so the config refuses fewer axes
    for d_in in (1, 0):
        with pytest.raises(ConfigError, match="d_in"):
            SyntheticConfig(d_in=d_in)


def test_domain_shift_breaks_source_classifier():
    # a class-mean classifier fitted on source must lose >= 10 points on target
    cfg = SyntheticConfig(seed=42)
    source, target = gen_synthetic(cfg)
    means = np.stack(
        [source.features[source.labels == j].mean(axis=0) for j in range(cfg.k)]
    )

    def predict(feats):
        d2 = ((feats[:, None, :] - means[None, :, :]) ** 2).sum(axis=2)
        return np.argmin(d2, axis=1)

    acc_source = np.mean(predict(source.features) == source.labels)
    acc_target = np.mean(predict(target.features) == target.labels)
    assert acc_source - acc_target >= 0.10


def test_ordinal_structure_separable_two_class():
    # separation/noise = 6: nearest-class-mean classification is near-perfect
    cfg = SyntheticConfig(
        n=2000, d_in=16, k=2, proportions=(0.5, 0.5), separation=6.0, noise=1.0, seed=9
    )
    source, _ = gen_synthetic(cfg)
    means = class_means(cfg)
    d2 = ((source.features[:, None, :] - means[None, :, :]) ** 2).sum(axis=2)
    acc = np.mean(np.argmin(d2, axis=1) == source.labels)
    assert acc >= 0.98


# ---------------------------------------------------------------------------
# stratified split


def test_split_hand_case():
    feats = np.arange(20.0).reshape(10, 2)
    labels = np.array([0] * 6 + [1] * 4)
    ds = Dataset(feats, labels, k=2, domain_tag="source", seed=0)
    train, test = stratified_split(ds, 0.7, seed=1)
    train_counts = np.bincount(train.labels, minlength=2)
    # floors (4, 2); remainders (0.2, 0.8) hand the leftover slot to class 1
    assert train_counts.tolist() == [4, 3]
    assert train.n + test.n == 10


def test_split_is_partition():
    cfg = SyntheticConfig(n=200, d_in=4, k=3, proportions=(0.4, 0.3, 0.3), seed=11)
    source, _ = gen_synthetic(cfg)
    train, test = stratified_split(source, 0.7, seed=5)
    rows = np.vstack([train.features, test.features])
    # every original row appears exactly once across the two parts
    orig = {tuple(r) for r in source.features}
    combined = [tuple(r) for r in rows]
    assert len(combined) == 200
    assert set(combined) == orig


def test_split_per_class_fraction_bound():
    cfg = SyntheticConfig(n=500, d_in=4, k=5, seed=12)
    source, _ = gen_synthetic(cfg)
    train, _ = stratified_split(source, 0.7, seed=5)
    for j in range(5):
        count = int(np.sum(source.labels == j))
        got = int(np.sum(train.labels == j))
        assert abs(got / count - 0.7) < 1.0 / count


def test_split_rejects_empty_class():
    ds = Dataset(np.ones((4, 2)), np.zeros(4, dtype=np.int64), k=2,
                 domain_tag="source", seed=0)
    with pytest.raises(DataError):
        stratified_split(ds, 0.7, seed=0)


def test_split_deterministic():
    cfg = SyntheticConfig(n=100, d_in=4, k=2, proportions=(0.5, 0.5), seed=13)
    source, _ = gen_synthetic(cfg)
    a1, b1 = stratified_split(source, 0.7, seed=2)
    a2, b2 = stratified_split(source, 0.7, seed=2)
    np.testing.assert_array_equal(a1.features, a2.features)
    np.testing.assert_array_equal(b1.labels, b2.labels)


# ---------------------------------------------------------------------------
# file I/O


def test_dataset_round_trip(tmp_path):
    cfg = SyntheticConfig(n=40, d_in=6, k=2, proportions=(0.5, 0.5), seed=21)
    source, _ = gen_synthetic(cfg)
    path = tmp_path / "ds.csv"
    write_dataset(path, source)
    loaded = read_dataset(path)
    np.testing.assert_allclose(loaded.features, source.features, rtol=1e-15)
    np.testing.assert_array_equal(loaded.labels, source.labels)
    assert loaded.k == source.k
    assert loaded.domain_tag == source.domain_tag
    assert loaded.seed == source.seed


def test_read_rejects_out_of_range_label(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("label,f0,f1\n7,0.1,0.2\n")
    (tmp_path / "bad.csv.meta.json").write_text(
        json.dumps({"n": 1, "d_in": 2, "k": 5, "domain_tag": "source", "seed": 0})
    )
    with pytest.raises(ParseError, match=r"label 7 out of range \[0,5\) at line 2"):
        read_dataset(path)


def test_read_rejects_row_length_mismatch(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("label,f0,f1\n0,0.1\n")
    (tmp_path / "bad.csv.meta.json").write_text(
        json.dumps({"n": 1, "d_in": 2, "k": 5, "domain_tag": "source", "seed": 0})
    )
    with pytest.raises(ParseError, match="line 2"):
        read_dataset(path)


@pytest.mark.parametrize("value", ["nan", "inf", "-Infinity"])
def test_read_rejects_non_finite_feature(tmp_path, value):
    path = tmp_path / "bad.csv"
    path.write_text(f"label,f0,f1\n0,0.1,0.2\n1,0.3,{value}\n")
    (tmp_path / "bad.csv.meta.json").write_text(
        json.dumps({"n": 2, "d_in": 2, "k": 5, "domain_tag": "source", "seed": 0})
    )
    with pytest.raises(ParseError, match="bad.csv: non-finite feature at line 3"):
        read_dataset(path)


def test_write_refuses_non_finite_feature(tmp_path):
    ds = Dataset(np.array([[0.1, 0.2], [0.3, np.inf]]), np.array([0, 1]), 2, "source", 0)
    with pytest.raises(NumericError, match="bad.csv"):
        write_dataset(tmp_path / "bad.csv", ds)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("name", ["w", "log_scale"])
def test_save_checkpoint_refuses_non_finite_values(tmp_path, name):
    # load_checkpoint refuses such a file, so none is written
    meta = {"layout": "x", "frozen": True, "k": 2, "log_scale": 1.5}
    tensors = {"w": np.array([[1.0, 2.0]])}
    if name == "w":
        tensors["w"][0, 1] = np.nan
    else:
        meta["log_scale"] = np.inf
    with pytest.raises(NumericError, match=f"c.json: {name}$"):
        dmod.save_checkpoint(tmp_path / "c.json", "fmt", meta, tensors)
    assert not (tmp_path / "c.json").exists()


def _guidance_tensors(model):
    return [model.w1, model.b1, model.w2, model.b2, model.lora_a, model.lora_b,
            model.prompts, model.log_scale]


@pytest.mark.parametrize("name", ["ckpt.json", "ckpt"])
def test_checkpoint_round_trip_bytes_repeat_and_path_kept(tmp_path, name):
    # each model saved twice under one name: the same bytes, at exactly that
    # path (no .npz appended), loading back every tensor bit for bit
    model = gd.GuidanceModel.build(d_in=6, hidden=5, d_model=4, k=3, rank=2,
                                   alpha=4.0, seed=3, frozen_base=True)
    net = df.DenoiserNet.build(d_model=4, k=3, seed=3)
    for t in [*_guidance_tensors(model), *net.params()]:
        t.data = t.data + 0.123456789012345678
    saves = {
        "guidance": lambda path: gd.save_guidance(path, model),
        "denoiser": lambda path: df.save_denoiser(path, net, (20, 1e-3, 0.2)),
    }
    for kind, save in saves.items():
        (tmp_path / kind).mkdir()
        path = tmp_path / kind / name
        save(path)
        first = path.read_bytes()
        save(path)
        assert path.read_bytes() == first
        assert [p.name for p in (tmp_path / kind).iterdir()] == [name]
    loaded = gd.load_guidance(tmp_path / "guidance" / name)
    loaded_net, sched = df.load_denoiser(tmp_path / "denoiser" / name)
    pairs = [*zip(_guidance_tensors(model), _guidance_tensors(loaded)),
             *zip(net.params(), loaded_net.params())]
    assert len(pairs) == 8 + 6
    for a, b in pairs:
        assert np.array_equal(a.data, b.data)
    assert (loaded.frozen_base, loaded.lora_a.rows, loaded.alpha) == (True, 2, 4.0)
    assert (sched.t_total, sched.beta[0], sched.beta[-1]) == (20, 1e-3, 0.2)


def test_read_rejects_non_integer_label(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("label,f0,f1\nx,0.1,0.2\n")
    (tmp_path / "bad.csv.meta.json").write_text(
        json.dumps({"n": 1, "d_in": 2, "k": 5, "domain_tag": "source", "seed": 0})
    )
    with pytest.raises(ParseError, match="line 2"):
        read_dataset(path)


def test_read_rejects_header_mismatch(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("lbl,f0,f1\n0,0.1,0.2\n")
    (tmp_path / "bad.csv.meta.json").write_text(
        json.dumps({"n": 1, "d_in": 2, "k": 5, "domain_tag": "source", "seed": 0})
    )
    with pytest.raises(ParseError):
        read_dataset(path)


def test_read_requires_metadata_sidecar(tmp_path):
    path = tmp_path / "orphan.csv"
    path.write_text("label,f0,f1\n0,0.1,0.2\n")
    with pytest.raises(ParseError, match="metadata not found"):
        read_dataset(path)


_ROWS = ["label,f0,f1", "0,0.1,0.2", "1,0.3,0.4"]
_LF = "\n".join(_ROWS)


def _utf8_error(blob):
    try:
        blob.decode("utf-8")
    except UnicodeDecodeError as e:
        return f"not UTF-8 text: {e}"


# (file bytes, sidecar fields over n=2, d_in=2, k=2, and the message after
# the path, or None for a file read as the rows of _ROWS)
_READ_CASES = {
    "lf": (_LF.encode() + b"\n", {}, None),
    "crlf": ("\r\n".join(_ROWS).encode() + b"\r\n", {}, None),
    "lone-cr": ("\r".join(_ROWS).encode() + b"\r", {}, None),
    "no-final-newline": (_LF.encode(), {}, None),
    # float() takes any Unicode decimal digit; the file is not ASCII
    "fullwidth-digit": (_LF.replace("0.3", "\uff10.3").encode(), {}, None),
    "trailing-blank-line": (_LF.encode() + b"\n\n", {}, "expected 2 data rows, found 3"),
    # str.splitlines breaks a row at these, so the row counts twice
    **{f"row-holds-{name}": (_LF.replace("0.1,", f"0.1{ch},").encode(), {},
                             "expected 2 data rows, found 3")
       for name, ch in [("ff", "\x0c"), ("rs", "\x1e"), ("ls", "\u2028")]},
    "empty": (b"", {}, "header mismatch at line 1: expected label,f0..f1 (3 fields), "
                       "got 0 fields"),
    # the position is the byte's in the file, as a decode of the whole file gives
    **{name: (blob, {}, _utf8_error(blob)) for name, blob in [
        ("not-utf8", _LF.encode().replace(b"0.3", b"0\xff3")),
        ("not-utf8-at-the-end", _LF.encode() + b"\xe2\x82"),
        # the whole file is decoded before the header is checked
        ("bad-header-and-not-utf8", _LF.replace("f1", "g1").encode() + b"\xff")]},
    "sidecar-n-3": (_LF.encode(), {"n": 3}, "expected 3 data rows, found 2"),
    "sidecar-k-1": (_LF.replace("1,0.3", "0,0.3").encode(), {"k": 1},
                    "k=1 grades, expected 2 to n=2"),
    "sidecar-k-3": (_LF.encode(), {"k": 3}, "k=3 grades, expected 2 to n=2"),
}


def _write_case(tmp_path, blob, fields):
    """d.csv holding blob, beside a sidecar of n=2, d_in=2, k=2 over fields."""
    path = tmp_path / "d.csv"
    path.write_bytes(blob)
    meta = {"n": 2, "d_in": 2, "k": 2, "domain_tag": "target", "seed": 0, **fields}
    (tmp_path / "d.csv.meta.json").write_text(json.dumps(meta))
    return path


@pytest.mark.parametrize("case", sorted(_READ_CASES))
def test_read_dataset_edges(case, tmp_path):
    blob, fields, message = _READ_CASES[case]
    path = _write_case(tmp_path, blob, fields)
    if message is None:
        ds = read_dataset(path)
        assert np.array_equal(ds.features, [[0.1, 0.2], [0.3, 0.4]])
        assert np.array_equal(ds.labels, [0, 1])
        return
    with pytest.raises(ParseError) as err:
        read_dataset(path)
    assert str(err.value) == f"{path}: {message}"


@pytest.mark.parametrize("size", [0, 5])
def test_read_refuses_rows_beyond_the_size_at_open(size, tmp_path, monkeypatch):
    # the file looks smaller at open than its two rows need, as one that grew
    # after its size was read: the arrays have room for size // 5 rows, and
    # the rows past them are refused, never returned unwritten
    path = _write_case(tmp_path, _LF.encode(), {})
    real_stat = Path.stat

    def smaller(self, *args, **kwargs):
        st = real_stat(self, *args, **kwargs)
        return os.stat_result((*st[:6], size, *st[7:])) if self == path else st

    monkeypatch.setattr(Path, "stat", smaller)
    with pytest.raises(ParseError) as err:
        read_dataset(path)
    assert str(err.value) == f"{path}: the file changed while it was read"


@pytest.mark.parametrize("case", ["lf", "not-utf8"])
def test_read_dataset_opens_the_file_once(case, tmp_path, monkeypatch):
    # one pass decodes the file, and a non-UTF-8 byte is placed without a
    # second open
    blob, fields, message = _READ_CASES[case]
    path = _write_case(tmp_path, blob, fields)
    opened = []
    real_open = io.open

    def counted(file, *args, **kwargs):
        if isinstance(file, (str, os.PathLike)) and os.fspath(file) == str(path):
            opened.append(file)
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", counted)
    monkeypatch.setattr(io, "open", counted)
    try:
        read_dataset(path)
    except ParseError as err:
        assert str(err) == f"{path}: {message}"
    assert len(opened) == 1


def test_read_dataset_sizes_no_array_past_the_file(tmp_path):
    # a sidecar n far beyond what two rows hold: the arrays are sized by the
    # file's bytes, so the count error comes with a traced peak under 1 MB
    path = _write_case(tmp_path, _LF.encode(), {"n": 10**9})
    tracemalloc.start()
    try:
        with pytest.raises(ParseError) as err:
            read_dataset(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(err.value) == f"{path}: expected 1000000000 data rows, found 2"
    assert peak < 2**20, peak


_DAMAGE = ["cr", "ff", "ls", "xff", "cut", "drop-field", "add-field", "blank-line",
           "bad-label", "non-numeric", "nan", "n+1", "n-1"]


@st.composite
def _damaged_files(draw):
    """(file bytes, sidecar) of a dataset file whose rows are valid, k above
    n aside, then up to three damages: a line break, a 0xff byte or a cut
    UTF-8 sequence inserted, a field dropped or added, a blank line, a bad
    label or feature, or the sidecar's n off by one."""
    d_in, k = draw(st.integers(1, 3)), draw(st.integers(2, 3))
    n = draw(st.integers(1, 5))
    values = st.floats(allow_nan=False, allow_infinity=False).map(repr)
    lines = ["label," + ",".join(f"f{i}" for i in range(d_in))] + [
        ",".join([str(draw(st.integers(0, k - 1))),
                  *draw(st.lists(values, min_size=d_in, max_size=d_in))])
        for _ in range(n)]
    meta = {"n": n, "d_in": d_in, "k": k, "domain_tag": "target", "seed": 0}
    damages = draw(st.lists(st.sampled_from(_DAMAGE), max_size=3))
    for kind in damages:
        # a label or a feature is damaged in a data row, the rest anywhere
        first = 1 if kind in ("bad-label", "non-numeric", "nan") else 0
        r = draw(st.integers(first, len(lines) - 1))
        parts = lines[r].split(",")
        if kind in ("cr", "ff", "ls"):
            pos = draw(st.integers(0, len(lines[r])))
            ch = {"cr": "\r", "ff": "\x0c", "ls": "\u2028"}[kind]
            lines[r] = lines[r][:pos] + ch + lines[r][pos:]
        elif kind == "drop-field":
            del parts[draw(st.integers(0, len(parts) - 1))]
        elif kind == "add-field":
            parts.insert(draw(st.integers(0, len(parts))), "0.5")
        elif kind == "blank-line":
            lines.insert(r, "")
        elif kind == "bad-label":
            parts[0] = draw(st.sampled_from(["x", "", "1.5", "-1", str(k)]))
        elif kind in ("non-numeric", "nan") and len(parts) > 1:
            bad = ["abc", "", "1e", "0x1"] if kind == "non-numeric" else ["nan", "inf"]
            parts[draw(st.integers(1, len(parts) - 1))] = draw(st.sampled_from(bad))
        elif kind in ("n+1", "n-1"):
            meta["n"] += 1 if kind == "n+1" else -1
        if kind in ("drop-field", "add-field", "bad-label", "non-numeric", "nan"):
            lines[r] = ",".join(parts)
    ending = draw(st.sampled_from(["\n", "\r\n"]))
    blob = (ending.join(lines) + draw(st.sampled_from(["", ending]))).encode()
    for kind in damages:
        if kind in ("xff", "cut"):
            # 0xff starts no UTF-8 sequence; a euro sign's is cut short
            bad = b"\xff" if kind == "xff" else "\u20ac".encode()[:draw(st.integers(1, 2))]
            pos = draw(st.integers(0, len(blob)))
            blob = blob[:pos] + bad + blob[pos:]
    return blob, meta


@settings(max_examples=300, deadline=None)
@given(_damaged_files())
def test_read_dataset_matches_the_whole_text_reader(tmp_path_factory, case):
    blob, meta = case
    path = _write_case(tmp_path_factory.getbasetemp(), blob, meta)
    try:
        features, labels = reader_oracle.read_whole(path)
    except ParseError as expected:
        with pytest.raises(ParseError) as err:
            read_dataset(path)
        assert str(err.value) == str(expected)
    else:
        ds = read_dataset(path)
        assert np.array_equal(ds.features, features)
        assert np.array_equal(ds.labels, labels)


def test_read_dataset_peak_memory_is_its_arrays(bench_dir):
    # the file's text is never held: the peak of traced allocations stays
    # near the feature array (a whole-text reader peaked at 5.0 times it)
    tracemalloc.start()
    try:
        ds = read_dataset(bench_dir / "target.csv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ds.n == 3662
    assert peak < 1.5 * ds.features.nbytes, peak / ds.features.nbytes


@pytest.mark.parametrize("change, match", [
    (lambda ds: replace(ds, labels=np.array([0, 7, 1, 2, 3])), r"label 7 out of range \[0,5"),
    (lambda ds: replace(ds, labels=np.array([0, 1, -1, 2, 3])), r"label -1 out of range"),
    (lambda ds: replace(ds, k=1, labels=np.zeros(5, dtype=int)), "k=1 grades, expected 2 to"),
    (lambda ds: replace(ds, k=9), "k=9 grades, expected 2 to n=5"),
    (lambda ds: replace(ds, features=ds.features[:, :0]), "no feature columns"),
], ids=["label-7", "label-negative", "k-1", "k-9", "d_in-0"])
def test_write_refuses_what_read_refuses(change, match, tmp_path):
    # each of these files was written, and read_dataset refused it
    ds = change(Dataset(np.arange(10.0).reshape(5, 2), np.arange(5), 5, "source", 0))
    with pytest.raises(DataError, match=match):
        write_dataset(tmp_path / "bad.csv", ds)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("typ", [int, dmod.NUMBER], ids=["int", "number"])
def test_read_json_object_refuses_a_bool_for_a_number(tmp_path, typ):
    # JSON true is a Python int, yet a number field refuses it
    path = tmp_path / "doc.json"
    path.write_text(json.dumps({"k": True}))
    with pytest.raises(ParseError, match="doc.json"):
        dmod.read_json_object(path, "checkpoint", {"k": typ})
    path.write_text(json.dumps({"k": 1}))
    assert dmod.read_json_object(path, "checkpoint", {"k": typ})["k"] == 1
