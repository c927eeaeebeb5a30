"""Synthetic benchmark generation, domain shift, splitting and file I/O."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    assert apportion(100, (0.50, 0.10, 0.27, 0.05, 0.08)) == [50, 10, 27, 5, 8]


def test_apportion_exact_split():
    assert apportion(10, (0.5, 0.5)) == [5, 5]


def test_apportion_tie_goes_to_smaller_index():
    # quotas (1.5, 1.5): one leftover slot, class 0 wins the tie
    assert apportion(3, (0.5, 0.5)) == [2, 1]


@settings(max_examples=100, deadline=None)
@given(
    st.integers(min_value=1, max_value=500),
    st.lists(st.floats(min_value=0.01, max_value=1.0), min_size=2, max_size=6),
)
def test_apportion_sums_to_n(n, weights):
    total = sum(weights)
    props = tuple(w / total for w in weights)
    assert sum(apportion(n, props)) == n


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
    with pytest.raises(ConfigError):
        apply_domain_shift(np.ones((3, 1)), 0.5, 0.5, seed=0)


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
    return [model.w1, model.b1, model.w2, model.b2, model.adapter.a, model.adapter.b,
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
    assert (loaded.frozen_base, loaded.adapter.rank, loaded.adapter.alpha) == (True, 2, 4.0)
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


@pytest.mark.parametrize("typ", [int, dmod.NUMBER], ids=["int", "number"])
def test_read_json_object_refuses_a_bool_for_a_number(tmp_path, typ):
    # JSON true is a Python int, yet a number field refuses it
    path = tmp_path / "doc.json"
    path.write_text(json.dumps({"k": True}))
    with pytest.raises(ParseError, match="doc.json"):
        dmod.read_json_object(path, "checkpoint", {"k": typ})
    path.write_text(json.dumps({"k": 1}))
    assert dmod.read_json_object(path, "checkpoint", {"k": typ})["k"] == 1
