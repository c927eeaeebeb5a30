"""LoRA arithmetic, the guidance model, its losses and checkpointing."""

import math

import numpy as np
import pytest

from cgsd import guidance as gd
from cgsd import pipeline as pl
from cgsd import numkit as nk
from cgsd.data import Dataset
from cgsd.errors import ConfigError, ContractError, DataError, NumericError, ParseError
from cgsd.numkit import GradTape, Tensor2, backward
from cgsd.pipeline import conditioning
from gradcheck import grad_check_param, trainable_params
from guidance_oracle import (contrastive_loss, guidance_loss_per_op, scale_tensor,
                             similarity_per_op)
import ckpt_edit as ckpt


def small_model(seed=0, frozen=True, k=5):
    model = gd.GuidanceModel.build(d_in=10, hidden=12, d_model=8, k=k, rank=2, alpha=4.0,
                                   seed=seed)
    model.frozen_base = frozen
    return model


# ---------------------------------------------------------------------------
# LoRA increment


def test_lora_zero_init_is_identity_increment():
    # B starts at zero, so encode_batch does not depend on A at all
    model = small_model(seed=0)
    assert np.all(model.lora_b.data == 0.0)
    x = np.random.default_rng(0).standard_normal((6, 10))
    before = model.encode_batch(x).data
    model.lora_a.data = np.random.default_rng(1).standard_normal(model.lora_a.shape)
    np.testing.assert_array_equal(model.encode_batch(x).data, before)


def test_lora_forward_hand_case():
    # identity layers, A = [1 0], B = [2 0]^T, alpha/rank = 2: the
    # projection of h = (c, c) is h + 2 B (A h) = (5c, c), normalized
    eye, zero = Tensor2(np.eye(2)), Tensor2(np.zeros((1, 2)))
    model = gd.GuidanceModel(
        eye, zero, eye, zero, Tensor2([[1.0, 0.0]]), Tensor2([[2.0], [0.0]]), 2.0,
        Tensor2(np.eye(2)), Tensor2([[0.0]]),
    )
    out = model.encode_batch(np.array([[1.0, 1.0]]))
    np.testing.assert_allclose(out.data, [[5.0 / math.sqrt(26.0), 1.0 / math.sqrt(26.0)]],
                               atol=1e-12)


def test_lora_increment_scale():
    # rank 3, alpha 6: the projection adds (alpha / rank) * lora_b @ lora_a = 2 B A
    model = gd.GuidanceModel.build(d_in=10, hidden=12, d_model=8, k=5, rank=3,
                                   alpha=6.0, seed=1)
    assert model.lora_a.shape == (3, 12) and model.lora_b.shape == (8, 3)
    rng = np.random.default_rng(2)
    model.lora_b.data = rng.standard_normal(model.lora_b.shape)
    x = rng.standard_normal((7, 10))
    h = x @ model.w1.data.T + model.b1.data
    h = h * (1.0 / (1.0 + np.exp(-1.702 * h)))
    w = model.w2.data + 2.0 * model.lora_b.data @ model.lora_a.data
    z = h @ w.T + model.b2.data
    want = z / (np.linalg.norm(z, axis=1, keepdims=True) + 1e-12)
    np.testing.assert_allclose(model.encode_batch(x).data, want, rtol=0, atol=1e-12)


def test_lora_rank_bounds():
    # the rank is checked with the config, against the fixed widths hidden
    # 128 and d_model 64: rank 64 fits, rank 65 does not
    assert (pl.RunConfig.hidden, pl.RunConfig.d_model) == (128, 64)
    for rank in (0, -1, 65):
        with pytest.raises(ConfigError, match="rank"):
            pl.RunConfig(rank=rank)
    assert pl.RunConfig(rank=64).rank == 64


# ---------------------------------------------------------------------------
# encoding


def test_encode_feature_unit_norm_and_deterministic():
    model = small_model()
    rng = np.random.default_rng(3)
    x = rng.standard_normal(10)
    f1 = model.encode_batch(x).data[0]
    f2 = model.encode_batch(x).data[0]
    assert np.linalg.norm(f1) == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_array_equal(f1, f2)


def test_encode_matches_frozen_base_before_training():
    # the LoRA increment starts at zero, so encoding equals the plain two-layer path
    model = small_model(seed=4)
    rng = np.random.default_rng(5)
    for _ in range(100):
        x = rng.standard_normal(10)
        h = x @ model.w1.data.T + model.b1.data[0]
        h = h * (1.0 / (1.0 + np.exp(-1.702 * h)))
        z = h @ model.w2.data.T + model.b2.data[0]
        expect = z / (np.linalg.norm(z) + 1e-12)
        got = model.encode_batch(x).data[0]
        np.testing.assert_allclose(got, expect, atol=1e-9)


# ---------------------------------------------------------------------------
# semantic vector: d = f @ pt and the scale from GuidanceModel.head, the prior
# from pipeline.conditioning


def test_semantic_vector_orthonormal_prompts():
    model = small_model()
    model.prompts.data = np.eye(5, 8)
    f = np.zeros((1, 8))
    f[0, 1] = 1.0
    d = (f @ model.head()[0])[0]
    np.testing.assert_allclose(d, [0.0, 1.0, 0.0, 0.0, 0.0], atol=1e-12)
    assert np.argmax(d) == 1


def test_semantic_vector_hand_case_2d():
    model = gd.GuidanceModel.build(d_in=4, hidden=4, d_model=2, k=2, rank=1, alpha=1.0, seed=0)
    model.prompts.data = np.array([[1.0, 0.0], [0.0, 1.0]])
    d = (np.array([[0.6, 0.8]]) @ model.head()[0])[0]
    np.testing.assert_allclose(d, [0.6, 0.8], atol=1e-12)


def test_semantic_vector_uniform_prior_on_zero_similarity():
    # prompts orthogonal to the item's embedding give d = 0 and a uniform prior
    model = small_model()
    x = np.random.default_rng(6).standard_normal((1, 10))
    f = model.encode_batch(x).data[0]
    u = f / np.linalg.norm(f)
    rows = np.random.default_rng(7).standard_normal((5, 8))
    model.prompts.data = rows - np.outer(rows @ u, u)
    _, d, prior = conditioning(model, x)
    np.testing.assert_allclose(d, np.zeros((1, 5)), atol=1e-12)
    np.testing.assert_allclose(prior, np.full((1, 5), 0.2), atol=1e-12)


def test_semantic_vector_contracts():
    model = small_model()
    model.log_scale.data = np.array([[2.0]])
    x = np.random.default_rng(6).standard_normal((20, 10))
    f, d, prior = conditioning(model, x)
    np.testing.assert_allclose(np.linalg.norm(f, axis=1), 1.0, atol=1e-12)
    assert np.all(np.abs(d) <= 1.0 + 1e-9)
    np.testing.assert_allclose(prior.sum(axis=1), 1.0, atol=1e-12)
    e = np.exp(model.head()[3] * d)
    np.testing.assert_allclose(prior, e / e.sum(axis=1, keepdims=True), atol=1e-15)
    np.testing.assert_array_equal(np.argmax(prior, axis=1), np.argmax(d, axis=1))


# log scales where math.exp and numpy's exp on a 1x1 array round apart on an
# x86-64 numpy 2.4 build (2.00066, 2.00076, 2.0055), the log scales of the
# desk's two trained checkpoints and of a 3-epoch full-scale one, and a sweep
# from a scale below 1 to past the clamp at SCALE_MAX
_LOG_SCALES = [2.00066, 2.00076, 2.0055, 2.5568, 3.0993, 3.0834,
               *np.linspace(-2.0, 6.0, 81).tolist()]


def test_conditioning_prior_takes_the_loss_heads_scale():
    # the prior is softmax(scale * d), bit for bit, with the scale of the loss
    # head's per-op form (exp, then clamp_max): training and inference use
    # one scale
    model = small_model(seed=17)
    x = np.random.default_rng(18).standard_normal((40, 10))
    for log_scale in _LOG_SCALES:
        model.log_scale.data = np.array([[log_scale]])
        _, d, prior = conditioning(model, x)
        want = nk.softmax_rows(Tensor2(scale_tensor(model, None).item() * d)).data
        assert np.array_equal(prior, want), log_scale


# ---------------------------------------------------------------------------
# losses


def test_contrastive_loss_hand_case():
    loss = contrastive_loss(Tensor2([[1.0, 0.0]]), [0], scale=Tensor2([[1.0]]))
    assert loss.item() == pytest.approx(-math.log(math.e / (math.e + 1.0)), abs=1e-12)


def test_contrastive_loss_uniform_similarity():
    loss = contrastive_loss(Tensor2([[0.3] * 5]), [2], scale=Tensor2([[2.0]]))
    assert loss.item() == pytest.approx(math.log(5.0), abs=1e-12)


def test_contrastive_loss_single_class_degenerate():
    loss = contrastive_loss(Tensor2([[0.7]]), [0], scale=Tensor2([[1.0]]))
    assert loss.item() == 0.0


def test_contrastive_loss_rejects_bad_label():
    with pytest.raises(DataError):
        contrastive_loss(Tensor2([[0.0, 0.0]]), [2], scale=Tensor2([[1.0]]))


def test_ranking_loss_fully_ordered_is_zero():
    d = Tensor2([[0.9, 0.6, 0.3, 0.2, 0.1]])
    assert gd.ranking_loss(d, [0], margin=0.05).item() == 0.0


def test_ranking_loss_hand_case():
    d = Tensor2([[0.2, 0.4]])
    assert gd.ranking_loss(d, [0], margin=0.05).item() == pytest.approx(0.25, abs=1e-12)


def test_ranking_loss_zero_margin_unimodal():
    d = Tensor2([[0.4, 0.5, 0.3, 0.2, 0.05]])
    assert gd.ranking_loss(d, [1], margin=0.0).item() == 0.0


def test_ranking_loss_violation_strictly_increases():
    ordered = Tensor2([[0.9, 0.6, 0.3, 0.2, 0.1]])
    swapped = Tensor2([[0.6, 0.9, 0.3, 0.2, 0.1]])  # grades 0 and 1 swapped
    lo = gd.ranking_loss(ordered, [0], margin=0.05).item()
    hi = gd.ranking_loss(swapped, [0], margin=0.05).item()
    assert hi > lo


def _ranking_loss_per_op(d_batch, labels, margin, tape=None):
    """The per-op ranking loss, about seven tape records per grade: the
    oracle the one-record form must match bit for bit."""
    y = np.asarray(labels, dtype=np.int64)
    total = None
    for lab in np.unique(y):
        pairs, npairs = gd._pair_matrix(d_batch.cols, int(lab))
        if npairs == 0:
            continue
        rows = nk.take_rows(d_batch, np.flatnonzero(y == lab), tape)
        diffs = nk.matmul(rows, Tensor2(pairs.T), tape)
        hinge = nk.relu(nk.add_scalar(nk.scale(diffs, -1.0, tape), margin, tape), tape)
        part = nk.scale(nk.sum_all(hinge, tape), 1.0 / npairs, tape)
        total = part if total is None else nk.add(total, part, tape)
    if total is None:
        return Tensor2(np.zeros((1, 1)))
    return nk.scale(total, 1.0 / d_batch.rows, tape)


def _value_and_grad(loss_fn, d, labels, margin):
    """The loss and d(loss)/d(d), with d also feeding a contrastive term as in
    guidance_loss, so the gradient is accumulated with another consumer's."""
    tape = GradTape()
    x = Tensor2(d)
    ce = contrastive_loss(x, labels, Tensor2([[3.0]]), tape)
    rank = loss_fn(x, labels, margin, tape)
    loss = nk.add(ce, nk.scale(rank, 0.7, tape), tape)
    (grad,) = backward(loss, tape, [x])
    return rank.data, loss.data, grad


@pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
def test_ranking_loss_matches_per_op_form(k):
    rng = np.random.default_rng(40 + k)
    for labels in (
        rng.integers(0, k, 16),           # every grade, usually
        np.full(5, k - 1),                # a single grade
        np.array([0, 0, k - 1, 0]),       # grades in between missing
        np.array([1 % k]),                # one row
    ):
        d = rng.uniform(-1.0, 1.0, (len(labels), k))
        d[0, :2] = d[0, 0]                # a hinge exactly at the margin
        for margin in (0.0, 0.05, 0.5):
            want = _value_and_grad(_ranking_loss_per_op, d, labels, margin)
            got = _value_and_grad(gd.ranking_loss, d, labels, margin)
            for w, g in zip(want, got):
                assert np.array_equal(w, g), (k, labels, margin)


def test_ranking_loss_overflow_reaches_the_loss_check():
    # d_a - d_b overflows in a pair difference, and both forms pass the inf
    # on: for grade 0 it falls in a hinge that is zero, so the loss is finite
    # and right; for grade 2 the loss is inf, which the training loop refuses
    d = Tensor2([[1e308, -1e308, 0.0]])
    for label, finite in ((0, True), (2, False)):
        with np.errstate(over="ignore"):
            values = [loss_fn(d, [label], 0.05).item()
                      for loss_fn in (_ranking_loss_per_op, gd.ranking_loss)]
        assert values[0] == values[1] and math.isfinite(values[0]) == finite
    with pytest.raises(NumericError):
        nk.check_finite(values[1], "the loss of stage1 epoch 0")


def test_guidance_loss_lambda_switch():
    model = small_model(seed=7)
    rng = np.random.default_rng(8)
    feats = rng.standard_normal((4, 10))
    labels = [0, 1, 2, 3]
    total = gd.guidance_loss(feats, labels, model, lambda_rank=0.0, margin=0.05).item()

    d = Tensor2(model.encode_batch(feats).data @ model.head()[0])
    ce = contrastive_loss(d, labels, scale_tensor(model, None)).item()
    assert total == pytest.approx(ce, abs=1e-12)


def _desk_shaped_model(seed, stage):
    """A guidance model of the desk's widths as the stage trains it: lora_b
    zero in pretraining, adapted (nonzero) in stage 1."""
    model = gd.GuidanceModel.build(d_in=64, hidden=128, d_model=64, k=5, rank=8,
                                   alpha=16.0, seed=seed)
    model.frozen_base = stage == "stage 1"
    if stage == "stage 1":
        rng = np.random.default_rng(seed)
        model.lora_b.data = rng.standard_normal(model.lora_b.shape) * 0.1
        model.log_scale.data = np.array([[1.5]])
    return model


@pytest.mark.parametrize("stage", ["pretraining", "stage 1"])
@pytest.mark.parametrize("batch", ["64 rows", "one row", "grades missing"])
@pytest.mark.parametrize("lambda_rank", [1.0, 0.0])
def test_guidance_loss_matches_the_per_op_chain(stage, batch, lambda_rank):
    # the stage's trained tensors: base and prompts, or adapter and prompts
    model = _desk_shaped_model(50, stage)
    rng = np.random.default_rng(51)
    labels = {"64 rows": rng.integers(0, 5, 64), "one row": np.array([3]),
              "grades missing": np.array([0, 2, 2, 0, 2, 0, 0])}[batch]
    feats = rng.standard_normal((len(labels), 64))
    group = model.base_params() if stage == "pretraining" else model.lora_params()
    params = group + model.prompt_params()
    results = []
    for loss_fn in (gd.guidance_loss, guidance_loss_per_op):
        tape = GradTape()
        loss = loss_fn(feats, labels, model, lambda_rank, 0.05, tape)
        untaped = loss_fn(feats, labels, model, lambda_rank, 0.05)
        results.append((loss.data, untaped.data, backward(loss, tape, params), len(tape)))
    (value, untaped, grads, records), (want, _, want_grads, _) = results
    assert value.tobytes() == want.tobytes() == untaped.tobytes()
    for g, w in zip(grads, want_grads, strict=True):
        assert g.shape == w.shape and g.tobytes() == w.tobytes()
    assert all(np.any(g != 0.0) for g in grads)
    # the first layer, the adapted projection, the normalisation and the head
    assert records == 4


def test_guidance_loss_rejects_empty_batch():
    model = small_model()
    with pytest.raises(DataError):
        gd.guidance_loss(np.zeros((0, 10)), [], model, lambda_rank=1.0, margin=0.05)


def test_frozen_base_receives_no_gradient():
    # one stage-1 epoch through the guidance trainer, with stage 1's groups
    # and rates, on a frozen model: the encoder keeps its bytes, and lora B
    # (zero at init), the prompts and the log scale move
    model = small_model(seed=9, frozen=True)
    rng = np.random.default_rng(10)
    data = Dataset(rng.standard_normal((8, 10)), np.array([0, 1, 2, 3, 4, 0, 1, 2]),
                   5, "target", 0)
    cfg = pl.RunConfig()
    base = [t.data.tobytes() for t in model.base_params()]
    moving = {"lora_b": model.lora_b, "prompts": model.prompts,
              "log_scale": model.log_scale}
    before = {name: t.data.copy() for name, t in moving.items()}
    log: list[str] = []
    pl._train_guidance("stage1", model, [model.lora_params(), model.prompt_params()],
                       [cfg.lr_lora, cfg.lr_prompt], 0, data, 4, 1, cfg, 43, log)
    assert [line.split(",")[:2] for line in log] == [["stage1", "0"]]
    assert [t.data.tobytes() for t in model.base_params()] == base
    for name, t in moving.items():
        assert not np.array_equal(t.data, before[name]), name


def test_guidance_loss_gradient_check_small_model():
    model = small_model(seed=11)
    rng = np.random.default_rng(12)
    feats = rng.standard_normal((4, 10))
    labels = [0, 1, 2, 4]
    def loss_fn(tape):
        return gd.guidance_loss(
            feats, labels, model, lambda_rank=1.0, margin=0.05, tape=tape
        )

    for param in trainable_params(model):
        assert grad_check_param(loss_fn, param, h=1e-6) < 1e-4


# ---------------------------------------------------------------------------
# prediction


def test_zero_shot_tie_breaks_to_smaller_index():
    model = small_model()
    d = np.array([[0.5, 0.5, 0.0, 0.0, 0.0]])
    assert int(np.argmax(d, axis=1)[0]) == 0  # documents the numpy tie rule

    model.prompts.data = np.eye(5, 8)
    f = (np.eye(8)[0] + np.eye(8)[1]) / math.sqrt(2.0)
    d = f @ model.head()[0]
    assert d[0] == pytest.approx(d[1], abs=1e-12)
    assert int(np.argmax(d)) == 0


def test_prediction_invariant_to_log_scale():
    model = small_model(seed=13)
    rng = np.random.default_rng(14)
    feats = rng.standard_normal((10, 10))
    before = np.argmax(conditioning(model, feats)[1], axis=1)
    model.log_scale.data = np.array([[5.0]])
    after = np.argmax(conditioning(model, feats)[1], axis=1)
    np.testing.assert_array_equal(before, after)


def _one_shot_conditioning(model, x):
    """The encode of every row in one product, the similarity and scale as
    their ops: the oracle of the blocked pipeline.conditioning."""
    f = model.encode_batch(x)
    d = similarity_per_op(model, f).data
    return f.data, d, nk.softmax_rows(Tensor2(scale_tensor(model, None).item() * d)).data


@pytest.mark.parametrize("rest", [0, 1, 3, 511])
@pytest.mark.parametrize("k", [2, 3, 5])
def test_blocked_encodes_equal_the_one_shot_encode(k, rest):
    # the pipeline's widths, a trained-looking adapter, and two whole blocks
    # plus rest rows: a one-row rest joins the last block
    cfg = pl.RunConfig()
    model = gd.GuidanceModel.build(d_in=64, hidden=cfg.hidden, d_model=cfg.d_model, k=k,
                                   rank=cfg.rank, alpha=cfg.alpha, seed=k)
    rng = np.random.default_rng(rest)
    model.lora_b.data = rng.standard_normal(model.lora_b.shape) * 0.1
    model.log_scale.data = np.array([[3.0]])
    x = rng.standard_normal((2 * nk.ROW_BLOCK + rest, 64))
    want = _one_shot_conditioning(model, x)
    for got, expect in zip(conditioning(model, x), want, strict=True):
        assert np.array_equal(got, expect)


@pytest.mark.parametrize("n, sizes", [
    (0, []), (1, [1]), (512, [512]), (513, [513]), (514, [512, 2]),
    (1025, [512, 513]), (1535, [512, 512, 511])])
def test_row_blocks_fold_a_one_row_rest(n, sizes):
    blocks = nk.row_blocks(n)
    assert [b.stop - b.start for b in blocks] == sizes
    assert np.array_equal(np.concatenate([np.arange(n)[b] for b in blocks] + [[]]),
                          np.arange(n))


def test_scale_clamped_at_maximum():
    model = small_model()
    model.log_scale.data = np.array([[50.0]])
    assert model.head()[3] == gd.SCALE_MAX


# ---------------------------------------------------------------------------
# checkpointing


def test_checkpoint_round_trip_value_exact(tmp_path):
    model = small_model(seed=15)
    model.prompts.data += 0.123456789012345678
    path = tmp_path / "g.json"
    gd.save_guidance(path, model)
    loaded = gd.load_guidance(path)
    assert loaded.frozen_base is True
    for a, b in (
        (model.w1, loaded.w1),
        (model.w2, loaded.w2),
        (model.b1, loaded.b1),
        (model.b2, loaded.b2),
        (model.lora_a, loaded.lora_a),
        (model.lora_b, loaded.lora_b),
        (model.prompts, loaded.prompts),
        (model.log_scale, loaded.log_scale),
    ):
        np.testing.assert_array_equal(a.data, b.data)
    assert loaded.lora_a.rows == model.lora_a.rows
    assert loaded.alpha == model.alpha


def test_checkpoint_records_the_frozen_flag(tmp_path):
    # the flag travels with the model: an unfrozen base loads unfrozen
    path = tmp_path / "g.json"
    for frozen in (True, False):
        gd.save_guidance(path, small_model(frozen=frozen))
        loaded = gd.load_guidance(path)
        assert loaded.frozen_base is frozen


def test_checkpoint_rejects_wrong_format(tmp_path):
    model = small_model()
    path = tmp_path / "g.json"
    gd.save_guidance(path, model)
    ckpt.set_meta(path, format="something-else")
    with pytest.raises(ParseError):
        gd.load_guidance(path)


def test_checkpoint_shapes_come_from_recorded_dimensions(tmp_path):
    path = tmp_path / "g.json"
    gd.save_guidance(path, small_model())
    doc = ckpt.meta(path)
    assert doc["format"] == "cgsd-guidance-v2" and "shapes" not in doc
    # a shapes map in the meta fields is ignored, even when it is wrong
    ckpt.set_meta(path, shapes={"w1": [1, 1]})
    gd.load_guidance(path)
    # weights that do not fit the recorded dimensions are refused
    ckpt.set_meta(path, hidden=doc["hidden"] + 1)
    with pytest.raises(ParseError, match="g.json: weight w1"):
        gd.load_guidance(path)


# ---------------------------------------------------------------------------
# training effect


def test_training_reduces_loss_on_separable_data(separable_stage1):
    log = separable_stage1["log"]
    stage1_lines = [l for l in log if l.startswith("stage1,")]
    first = float(stage1_lines[0].split(",")[3])
    last = float(stage1_lines[-1].split(",")[3])
    assert last < first
