"""Sample-based evaluation metrics and the report assembly.

Metrics: reward statistics, mean pairwise distance (diversity), exact 1D
Wasserstein-1 via sorted samples, energy distance in 2D, and kNN-ball
coverage/recall against a reference sample set (k = 5 by default).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import sample_batch
from .errors import DomainError, EmptyInput, ShapeError, TooFewSamples


@dataclass
class EvalReport:
    reward_mean: float
    reward_std: float
    diversity_mpd: float
    distance: float  # W1 in 1D, energy distance in higher dimension
    coverage: float
    recall: float
    n_samples: int
    seed: int

    def as_row(self) -> dict:
        return {
            "reward_mean": self.reward_mean,
            "reward_std": self.reward_std,
            "diversity_mpd": self.diversity_mpd,
            "distance": self.distance,
            "coverage": self.coverage,
            "recall": self.recall,
            "n_samples": self.n_samples,
            "seed": self.seed,
        }


EVAL_COLUMNS = (
    "reward_mean", "reward_std", "diversity_mpd", "distance",
    "coverage", "recall", "n_samples", "seed",
)


def _as_points(x) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 1:
        x = x[:, None]
    if x.ndim != 2:
        raise ShapeError(f"expected (n, dim) samples, got shape {x.shape}")
    return x


def _pair_dists(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Euclidean distances between the rows of x and y, via the Gram expansion."""
    d2 = (
        np.sum(x**2, axis=1)[:, None]
        + np.sum(y**2, axis=1)[None, :]
        - 2.0 * x @ y.T
    )
    return np.sqrt(np.maximum(d2, 0.0, out=d2), out=d2)


def diversity_mpd(samples, chunk: int = 512) -> float:
    """Mean Euclidean distance over unordered pairs; chunked, O(n^2) memory-free."""
    x = _as_points(samples)
    n = x.shape[0]
    if n < 2:
        raise TooFewSamples(f"need >= 2 samples, got {n}")
    total = 0.0
    for i in range(0, n, chunk):
        xi = x[i : i + chunk]
        for j in range(i, n, chunk):
            d = _pair_dists(xi, x[j : j + chunk])
            if i == j:
                total += float(np.sum(np.triu(d, k=1)))
            else:
                total += float(np.sum(d))
    return total / (n * (n - 1) / 2.0)


def wasserstein1_1d(a, b, resample_seed: int = 0) -> float:
    """Exact empirical W1 in 1D; unequal sizes are resampled to match."""
    a = np.asarray(a, dtype=np.float64).ravel()
    b = np.asarray(b, dtype=np.float64).ravel()
    if a.size == 0 or b.size == 0:
        raise EmptyInput("empty sample set")
    if a.size != b.size:
        n = min(a.size, b.size)
        rng = np.random.default_rng(resample_seed)
        if a.size > n:
            a = rng.choice(a, size=n, replace=False)
        if b.size > n:
            b = rng.choice(b, size=n, replace=False)
    return float(np.mean(np.abs(np.sort(a) - np.sort(b))))


def energy_distance(a, b) -> float:
    """Energy distance 2 E|A-B| - E|A-A'| - E|B-B'| (nonnegative)."""
    a = _as_points(a)
    b = _as_points(b)
    if a.shape[0] < 2 or b.shape[0] < 2:
        raise TooFewSamples("need >= 2 samples per set")

    def mean_cross(x, y):
        return float(np.mean(_pair_dists(x, y)))

    return max(
        2.0 * mean_cross(a, b) - mean_cross(a, a) - mean_cross(b, b), 0.0
    )


def _knn_radii(x: np.ndarray, k: int) -> np.ndarray:
    """Distance from each point of x to its k-th nearest other point of x."""
    d = _pair_dists(x, x)
    np.fill_diagonal(d, np.inf)
    return np.sort(d, axis=1)[:, k - 1]


def knn_coverage_recall(gen, ref, k: int = 5):
    """(coverage, recall) with k-NN radius balls.

    recall: fraction of reference points inside at least one generated
    point's k-NN ball (radii measured within the generated set).
    coverage: fraction of reference points whose own k-NN ball (radii
    measured within the reference set) contains a generated point.
    """
    if k < 1:
        raise DomainError(f"k must be >= 1, got {k}")
    g = _as_points(gen)
    r = _as_points(ref)
    if g.shape[0] < k + 1 or r.shape[0] < k + 1:
        raise TooFewSamples(f"need >= {k + 1} points per set")
    cross = _pair_dists(r, g)  # (n_ref, n_gen)
    gen_radii = _knn_radii(g, k)
    recall = float(np.mean(np.any(cross <= gen_radii[None, :], axis=1)))
    ref_radii = _knn_radii(r, k)
    coverage = float(np.mean(np.min(cross, axis=1) <= ref_radii))
    return coverage, recall


def evaluate(
    ckpt,
    base_ckpt,
    reward,
    n_samples: int = 2000,
    n_steps: int = 50,
    seed: int = 12345,
    k: int = 5,
) -> EvalReport:
    """Sample both models with the deterministic flow and fill every metric."""
    vf, base = ckpt.vf, base_ckpt.vf
    if vf.state_dim != base.state_dim:
        raise ShapeError("checkpoints have different state dimensions")
    gen = np.stack(
        [t.states[-1] for t in sample_batch(vf, n_steps, n_samples, seed)]
    )
    ref = np.stack(
        [t.states[-1] for t in sample_batch(base, n_steps, n_samples, seed + 1)]
    )
    rewards = reward.value(gen)
    if gen.shape[1] == 1:
        dist = wasserstein1_1d(gen, ref)
    else:
        dist = energy_distance(gen, ref)
    coverage, recall = knn_coverage_recall(gen, ref, k)
    return EvalReport(
        reward_mean=float(np.mean(rewards)),
        reward_std=float(np.std(rewards)),
        diversity_mpd=diversity_mpd(gen),
        distance=dist,
        coverage=coverage,
        recall=recall,
        n_samples=n_samples,
        seed=seed,
    )
