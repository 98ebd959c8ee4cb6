"""Sample-based evaluation metrics and the report assembly.

Metrics: reward statistics, mean pairwise distance (diversity), exact 1D
Wasserstein-1 via sorted samples, energy distance in 2D and up, and kNN-ball
coverage/recall against a reference sample set (k = 5 by default).

``evaluate`` builds three n x n distance matrices, gen-gen, ref-ref and
ref-gen, in one kNN pass that also returns their means; every metric reads
them.  Diversity is the gen-gen mean times n / (n - 1), and the energy
distance's cross term is the ref-gen mean, D(b, a) in ``energy_distance``'s
terms, so the standalone functions have the bits of ``evaluate``.  kNN radii
read the k-th order statistic with a partition, not a sort.

Finishing a distance matrix, partitioning it and the recall test are
row-local, so each splits its rows into one span per worker of
``dynamics.run_blocks``; the Gram product and the means run whole.  The split
cannot change a bit, and
``evaluate`` samples each model with one ``sample_batch`` call, which runs
its own row blocks.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .dynamics import run_blocks, sample_batch
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
        """Field name -> value, in ``EVAL_COLUMNS`` order."""
        return {c: getattr(self, c) for c in EVAL_COLUMNS}


# eval.csv's columns: the report's fields in declaration order
EVAL_COLUMNS = tuple(f.name for f in fields(EvalReport))


def _as_points(x) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 1:
        x = x[:, None]
    if x.ndim != 2:
        raise ShapeError(f"expected (n, dim) samples, got shape {x.shape}")
    return x


PAIR_BLOCK_ROWS = 32  # rows finished per block of the distance matrix


def _pair_dists(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Euclidean distances between the rows of x and y, via the Gram expansion.

    Bitwise sqrt(max(|x_i|^2 + |y_j|^2 - (2 x) @ y^T, 0)).  Only the Gram
    product is allocated at full size; the elementwise rest is finished in
    place, a block of rows at a time, with each worker of ``run_blocks``
    taking its own span of rows, so neither the block size nor the workers
    can change a bit.
    """
    sx = np.sum(x**2, axis=1)
    sy = np.sum(y**2, axis=1)
    d = (2.0 * x) @ y.T

    def finish(lo, hi):
        buf = np.empty((min(PAIR_BLOCK_ROWS, hi - lo), d.shape[1]))
        for i in range(lo, hi, PAIR_BLOCK_ROWS):
            blk = d[i : min(i + PAIR_BLOCK_ROWS, hi)]
            tmp = np.add(sx[i : i + blk.shape[0], None], sy, out=buf[: blk.shape[0]])
            np.subtract(tmp, blk, out=blk)
            np.maximum(blk, 0.0, out=blk)
            np.sqrt(blk, out=blk)

    run_blocks(finish, d.shape[0])
    return d


def _mpd(self_mean: float, n: int) -> float:
    """Mean over unordered pairs from the mean of the n x n self matrix."""
    return self_mean * n / (n - 1)


def diversity_mpd(samples) -> float:
    """Mean Euclidean distance over unordered pairs of distinct samples."""
    x = _as_points(samples)
    n = x.shape[0]
    if n < 2:
        raise TooFewSamples(f"need >= 2 samples, got {n}")
    return _mpd(float(np.mean(_pair_dists(x, x))), n)


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


def _energy(mean_ab: float, mean_aa: float, mean_bb: float) -> float:
    return max(2.0 * mean_ab - mean_aa - mean_bb, 0.0)


def energy_distance(a, b) -> float:
    """Energy distance 2 E|A-B| - E|A-A'| - E|B-B'| (nonnegative).

    The cross term is the mean of D(b, a), the orientation of the kNN cross
    matrix.
    """
    a = _as_points(a)
    b = _as_points(b)
    if a.shape[0] < 2 or b.shape[0] < 2:
        raise TooFewSamples("need >= 2 samples per set")
    means = [float(np.mean(_pair_dists(x, y))) for x, y in ((b, a), (a, a), (b, b))]
    return _energy(*means)


def _knn_radii(d: np.ndarray, k: int) -> np.ndarray:
    """Distance from each point of x to its k-th nearest other point of x.

    ``d`` is x's self-distance matrix, which this consumes: it writes inf on
    the diagonal and partitions each row in place, each worker of
    ``run_blocks`` its own span of rows.
    """
    np.fill_diagonal(d, np.inf)

    def radii(lo, hi):
        blk = d[lo:hi]
        blk.partition(k - 1, axis=1)
        return blk[:, k - 1].copy()

    return np.concatenate(run_blocks(radii, d.shape[0]))


def _knn_terms(gen, ref, k: int):
    """(coverage, recall, mean gen-gen, mean ref-ref, mean ref-gen distance).

    The one pass over the three distance matrices: each self matrix's mean
    is read before the kNN radii consume it, and only one self matrix is
    alive at a time.
    """
    if k < 1:
        raise DomainError(f"k must be >= 1, got {k}")
    g, r = _as_points(gen), _as_points(ref)
    if g.shape[0] < k + 1 or r.shape[0] < k + 1:
        raise TooFewSamples(f"need >= {k + 1} points per set")
    means, radii = [], []
    for x in (g, r):
        d = _pair_dists(x, x)
        means.append(float(np.mean(d)))
        radii.append(_knn_radii(d, k))
        del d
    gen_radii, ref_radii = radii
    cross = _pair_dists(r, g)  # (n_ref, n_gen)

    def recalled(lo, hi):
        # a block of rows at a time, so no (n_ref, n_gen) boolean is made
        return [np.any(cross[i : min(i + PAIR_BLOCK_ROWS, hi)] <= gen_radii, axis=1)
                for i in range(lo, hi, PAIR_BLOCK_ROWS)]

    hits = [h for span in run_blocks(recalled, cross.shape[0]) for h in span]
    recall = float(np.mean(np.concatenate(hits)))
    coverage = float(np.mean(np.min(cross, axis=1) <= ref_radii))
    return coverage, recall, means[0], means[1], float(np.mean(cross))


def knn_coverage_recall(gen, ref, k: int = 5):
    """(coverage, recall) with k-NN radius balls.

    recall: fraction of reference points inside at least one generated
    point's k-NN ball (radii measured within the generated set).
    coverage: fraction of reference points whose own k-NN ball (radii
    measured within the reference set) contains a generated point.
    """
    return _knn_terms(gen, ref, k)[:2]


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
    # k + 1 >= 2 points per set also covers the diversity and energy checks
    coverage, recall, mean_gg, mean_rr, mean_rg = _knn_terms(gen, ref, k)
    if gen.shape[1] == 1:
        dist = wasserstein1_1d(gen, ref)
    else:
        dist = _energy(mean_rg, mean_gg, mean_rr)
    return EvalReport(
        reward_mean=float(np.mean(rewards)),
        reward_std=float(np.std(rewards)),
        diversity_mpd=_mpd(mean_gg, gen.shape[0]),
        distance=dist,
        coverage=coverage,
        recall=recall,
        n_samples=n_samples,
        seed=seed,
    )
