"""Metrics, the 2-D projection and the cluster-separation statistic."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cgsd.analysis import confusion_and_metrics, pca_project_2d, silhouette_score
from cgsd.errors import DataError


# ---------------------------------------------------------------------------
# confusion matrix and F1


def test_perfect_predictions():
    preds = np.array([0, 1, 2, 1])
    counts, acc, per_f1, macro = confusion_and_metrics(preds, preds, k=3)
    assert acc == 1.0
    assert macro == 1.0
    assert np.trace(counts) == 4


def test_worked_example_one():
    preds = np.array([1, 0, 1])
    labels = np.array([1, 1, 0])
    _, acc, per_f1, macro = confusion_and_metrics(preds, labels, k=2)
    assert acc == pytest.approx(1.0 / 3.0)
    np.testing.assert_allclose(per_f1, [0.0, 0.5])
    assert macro == pytest.approx(0.25)


def test_worked_example_all_zero_binary():
    labels = np.array([0, 0, 1, 1])
    preds = np.zeros(4, dtype=np.int64)
    _, acc, per_f1, macro = confusion_and_metrics(preds, labels, k=2)
    assert acc == pytest.approx(0.5)
    np.testing.assert_allclose(per_f1, [2.0 / 3.0, 0.0])
    assert macro == pytest.approx(1.0 / 3.0)


def test_empty_class_contributes_zero():
    preds = np.array([0, 0])
    labels = np.array([0, 0])
    _, acc, per_f1, macro = confusion_and_metrics(preds, labels, k=3)
    assert acc == 1.0
    np.testing.assert_allclose(per_f1, [1.0, 0.0, 0.0])
    assert macro == pytest.approx(1.0 / 3.0)


def test_metrics_brute_force_recount():
    rng = np.random.default_rng(7)
    for _ in range(100):
        k = int(rng.integers(2, 6))
        n = int(rng.integers(5, 60))
        preds = rng.integers(0, k, n)
        labels = rng.integers(0, k, n)
        counts, acc, per_f1, macro = confusion_and_metrics(preds, labels, k)

        assert acc == pytest.approx(np.mean(preds == labels), abs=1e-12)
        ref = np.zeros(k)
        for j in range(k):
            tp = np.sum((preds == j) & (labels == j))
            fp = np.sum((preds == j) & (labels != j))
            fn = np.sum((preds != j) & (labels == j))
            denom = 2 * tp + fp + fn
            ref[j] = 0.0 if denom == 0 else 2 * tp / denom
        np.testing.assert_allclose(per_f1, ref, atol=1e-12)
        assert macro == pytest.approx(ref.mean(), abs=1e-12)
        assert counts.sum() == n


def test_metrics_input_validation():
    with pytest.raises(DataError):
        confusion_and_metrics(np.array([0, 1]), np.array([0]), k=2)
    with pytest.raises(DataError):
        confusion_and_metrics(np.array([5]), np.array([0]), k=2)


# ---------------------------------------------------------------------------
# PCA projection


def test_pca_preserves_2d_distances():
    rng = np.random.default_rng(8)
    pts = rng.standard_normal((20, 2))
    pts -= pts.mean(axis=0)
    proj = pca_project_2d(pts)

    def pairwise(x):
        return np.linalg.norm(x[:, None, :] - x[None, :, :], axis=2)

    np.testing.assert_allclose(pairwise(proj), pairwise(pts), atol=1e-9)


def test_pca_rank_one_second_component_dead():
    t = np.linspace(-1, 1, 15)
    direction = np.array([1.0, 2.0, -1.0])
    pts = np.outer(t, direction)
    proj = pca_project_2d(pts)
    assert np.var(proj[:, 1]) < 1e-12


def test_pca_variance_matches_eigen_oracle():
    rng = np.random.default_rng(9)
    pts = rng.standard_normal((200, 5)) @ np.diag([3.0, 2.0, 1.0, 0.5, 0.1])
    proj = pca_project_2d(pts)
    centered = pts - pts.mean(axis=0)
    cov = centered.T @ centered / (len(pts) - 1)
    eig = np.sort(np.linalg.eigvalsh(cov))[::-1]
    got = proj.var(axis=0, ddof=1).sum()
    assert got == pytest.approx(eig[:2].sum(), abs=1e-9)


def test_pca_translation_invariant():
    rng = np.random.default_rng(10)
    pts = rng.standard_normal((30, 4))
    a = pca_project_2d(pts)
    b = pca_project_2d(pts + 57.0)
    np.testing.assert_allclose(a, b, atol=1e-9)


def test_pca_needs_three_points():
    with pytest.raises(DataError):
        pca_project_2d(np.zeros((2, 3)))


# ---------------------------------------------------------------------------
# silhouette


def _silhouette_oracle(points2d, labels):
    """The per-point, per-class loop silhouette_score replaced, as written."""
    points2d = np.asarray(points2d, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if points2d.shape[0] != labels.shape[0]:
        raise DataError("points and labels must have equal length")
    distinct = np.unique(labels)
    if distinct.size < 2:
        raise DataError("silhouette needs at least 2 distinct labels")

    diff = points2d[:, None, :] - points2d[None, :, :]
    dist = np.sqrt(np.sum(diff * diff, axis=2))
    n = points2d.shape[0]
    scores = np.zeros(n)
    for i in range(n):
        own = labels == labels[i]
        own_size = int(own.sum())
        if own_size == 1:
            scores[i] = 0.0
            continue
        a = dist[i, own].sum() / (own_size - 1)
        b = np.inf
        for c in distinct:
            if c == labels[i]:
                continue
            mask = labels == c
            b = min(b, dist[i, mask].mean())
        top = max(a, b)
        scores[i] = 0.0 if top == 0 else (b - a) / top
    return float(scores.mean())


@settings(max_examples=300, deadline=None)
@given(
    n=st.integers(2, 150),
    values=st.lists(st.integers(0, 9), min_size=2, max_size=7, unique=True),
    seed=st.integers(0, 2**32 - 1),
    decimals=st.sampled_from([None, 0, 1]),
    scale=st.sampled_from([1e-3, 1.0, 1e3]),
)
def test_silhouette_equals_the_loop_bit_for_bit(n, values, seed, decimals, scale):
    # sparse label values, singletons (a class drawn once or never) and, with
    # rounded coordinates, tied distances; the first two points carry two
    # labels so there are always at least two classes
    rng = np.random.default_rng(seed)
    labels = np.array(values)[rng.integers(0, len(values), n)]
    labels[:2] = values[:2]
    pts = rng.standard_normal((n, 2)) * scale
    if decimals is not None:
        pts = np.round(pts, decimals)
    assert silhouette_score(pts, labels) == _silhouette_oracle(pts, labels)


@pytest.mark.parametrize("n, decimals", [(300, 0), (300, 1), (419, 0), (419, None)])
def test_silhouette_equals_the_loop_across_row_blocks(n, decimals):
    # rows are scored in blocks of 8192 // n points: 27 for n = 300, whose
    # last block holds 3, and 19 for n = 419, whose last block holds 1. The
    # first half's labels come in runs that cross block edges; a singleton
    # class sits on each side of the first edge and one on the last row; with
    # rounded coordinates, distances tie and points coincide
    step = 8192 // n
    assert n % step in (1, 3)
    rng = np.random.default_rng(n)
    labels = rng.integers(0, 4, n)
    labels[: n // 2] = np.sort(labels[: n // 2])
    labels[[step - 1, step, n - 1]] = 7, 8, 9
    pts = rng.standard_normal((n, 2)) * 3.0
    if decimals is not None:
        pts = np.round(pts, decimals)
    assert silhouette_score(pts, labels) == _silhouette_oracle(pts, labels)


def test_silhouette_equals_the_loop_on_a_test_split_sized_cloud():
    # 1,099 points: the desk test split's size
    rng = np.random.default_rng(1099)
    labels = rng.choice([0, 1, 2, 3, 4], 1099, p=[0.5, 0.1, 0.25, 0.08, 0.07])
    pts = rng.standard_normal((1099, 2)) + labels[:, None] * 0.5
    assert silhouette_score(pts, labels) == _silhouette_oracle(pts, labels)


def test_silhouette_holds_no_n_by_n_array():
    # the cloud of the test above: a 1,099 x 1,099 float64 array is 9.7 MB,
    # and the full distance matrix with its dx/dy differences peaked at 38.7 MB
    rng = np.random.default_rng(1099)
    labels = rng.choice([0, 1, 2, 3, 4], 1099, p=[0.5, 0.1, 0.25, 0.08, 0.07])
    pts = rng.standard_normal((1099, 2)) + labels[:, None] * 0.5
    tracemalloc.start()
    try:
        silhouette_score(pts, labels)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000, peak


@pytest.mark.parametrize("shape", [(6,), (6, 3), (6, 1), (6, 2, 1)])
def test_silhouette_refuses_points_that_are_not_n_by_2(shape):
    with pytest.raises(DataError, match="n x 2"):
        silhouette_score(np.zeros(shape), np.array([0, 1, 0, 1, 0, 1]))


def test_silhouette_far_clusters():
    rng = np.random.default_rng(11)
    a = rng.normal(loc=(100.0, 0.0), scale=0.1, size=(20, 2))
    b = rng.normal(loc=(-100.0, 0.0), scale=0.1, size=(20, 2))
    pts = np.vstack([a, b])
    labels = np.array([0] * 20 + [1] * 20)
    assert silhouette_score(pts, labels) > 0.95


def test_silhouette_random_labels_near_zero():
    rng = np.random.default_rng(12)
    pts = rng.standard_normal((120, 2))
    labels = rng.integers(0, 2, 120)
    assert abs(silhouette_score(pts, labels)) < 0.1


def test_silhouette_overlapping_clusters_not_positive():
    rng = np.random.default_rng(13)
    pts = rng.standard_normal((60, 2))
    labels = np.array([0, 1] * 30)
    assert silhouette_score(pts, labels) <= 0.05


def test_silhouette_rigid_motion_invariant():
    rng = np.random.default_rng(14)
    pts = np.vstack(
        [rng.normal((3, 0), 0.5, (15, 2)), rng.normal((-3, 0), 0.5, (15, 2))]
    )
    labels = np.array([0] * 15 + [1] * 15)
    theta = 0.9
    rot = np.array(
        [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]]
    )
    moved = pts @ rot.T + np.array([5.0, -2.0])
    assert silhouette_score(moved, labels) == pytest.approx(
        silhouette_score(pts, labels), abs=1e-9
    )


def test_silhouette_requires_two_labels():
    with pytest.raises(DataError):
        silhouette_score(np.zeros((5, 2)), np.zeros(5, dtype=np.int64))


def test_silhouette_singleton_contributes_zero():
    pts = np.array([[0.0, 0.0], [0.1, 0.0], [10.0, 0.0]])
    labels = np.array([0, 0, 1])
    score = silhouette_score(pts, labels)
    # the singleton scores 0; the two cluster-0 points score near 1
    assert 0.6 < score < 0.7
