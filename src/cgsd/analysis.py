"""Evaluation metrics and cluster-separation diagnostics.

Confusion-matrix metrics follow the macro-F1 convention that a class with an
empty denominator contributes F1 = 0. The 2-D projection is plain PCA with a
deterministic sign convention so exported trajectories are reproducible.
"""

from __future__ import annotations

import numpy as np

from .errors import DataError


def confusion_and_metrics(preds, labels, k: int) -> tuple[np.ndarray, float, np.ndarray, float]:
    """The k x k counts (rows true grade, columns predicted), accuracy,
    per-class F1 and macro-F1."""
    preds = np.asarray(preds, dtype=np.int64)
    labels = np.asarray(labels, dtype=np.int64)
    if preds.shape != labels.shape or preds.ndim != 1 or preds.size == 0:
        raise DataError(
            f"preds/labels must be equal-length nonempty vectors, "
            f"got {preds.shape} vs {labels.shape}"
        )
    for name, arr in (("pred", preds), ("label", labels)):
        if arr.min() < 0 or arr.max() >= k:
            raise DataError(f"{name} value outside [0,{k})")

    counts = np.zeros((k, k), dtype=np.int64)
    np.add.at(counts, (labels, preds), 1)
    accuracy = float(np.trace(counts)) / preds.size

    per_class_f1 = np.zeros(k)
    for c in range(k):
        tp = counts[c, c]
        fp = counts[:, c].sum() - tp
        fn = counts[c, :].sum() - tp
        denom = 2 * tp + fp + fn
        per_class_f1[c] = 0.0 if denom == 0 else 2.0 * tp / denom
    macro_f1 = float(per_class_f1.mean())
    return counts, accuracy, per_class_f1, macro_f1


def pca_project_2d(points: np.ndarray) -> np.ndarray:
    """Project onto the top-2 principal axes of the sample covariance.

    Sign convention: each component's largest-magnitude loading is positive.
    """
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2 or points.shape[0] < 3:
        raise DataError("pca_project_2d needs at least 3 points")
    centered = points - points.mean(axis=0, keepdims=True)
    cov = centered.T @ centered / (points.shape[0] - 1)
    eigvals, eigvecs = np.linalg.eigh(cov)
    order = np.argsort(eigvals)[::-1][:2]
    basis = eigvecs[:, order]
    for j in range(basis.shape[1]):
        lead = np.argmax(np.abs(basis[:, j]))
        if basis[lead, j] < 0:
            basis[:, j] = -basis[:, j]
    return centered @ basis


def silhouette_score(points2d: np.ndarray, labels) -> float:
    """Mean silhouette with Euclidean distances; singletons contribute 0."""
    points2d = np.asarray(points2d, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if points2d.ndim != 2 or points2d.shape[1] != 2:
        raise DataError(f"silhouette needs n x 2 points, got shape {points2d.shape}")
    if points2d.shape[0] != labels.shape[0]:
        raise DataError("points and labels must have equal length")
    distinct, counts = np.unique(labels, return_counts=True)
    if distinct.size < 2:
        raise DataError("silhouette needs at least 2 distinct labels")

    # columns grouped by label, each group in index order: class c's distances
    # from point i are the slice dist[i, lo[c]:lo[c+1]], what dist[i, labels == c]
    # holds, and each gets its own 1-D reduction in the mask's order (a 2-D one
    # may add in another: np.add.reduceat does, as does a Fortran-order block)
    order = np.argsort(labels, kind="stable")
    dx, dy = (c[:, None] - c[order] for c in points2d.T)
    dist = np.sqrt(dx * dx + dy * dy)
    cls = np.searchsorted(distinct, labels).tolist()
    counts = counts.tolist()
    lo = [0, *np.cumsum(counts).tolist()]
    scores = np.zeros(labels.size)
    for i, c in enumerate(cls):
        if counts[c] == 1:
            continue
        row = dist[i]
        a = np.add.reduce(row[lo[c]:lo[c + 1]]) / (counts[c] - 1)
        b = np.inf
        for j, size in enumerate(counts):
            if j != c:
                b = min(b, np.add.reduce(row[lo[j]:lo[j + 1]]) / size)
        top = max(a, b)
        scores[i] = 0.0 if top == 0 else (b - a) / top
    return float(scores.mean())
