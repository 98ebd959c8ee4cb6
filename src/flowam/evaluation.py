"""Sample-based evaluation metrics and the report assembly.

Metrics: reward statistics, mean pairwise distance (diversity), exact 1D
Wasserstein-1 via sorted samples between two sets of one size, energy
distance in 2D and up, and kNN-ball coverage/recall against a reference
sample set (k = 5 by default).

No n x n distance matrix is made: ``_pair_pass`` streams the distances
between two sample sets in blocks of PAIR_BLOCK_ROWS rows, each worker of
``dynamics.run_blocks`` in its own buffer, so memory is
O(WORKERS * PAIR_BLOCK_ROWS * n).  ``evaluate`` makes three passes: gen-gen
and ref-ref give means and kNN radii (by partition), ref-gen its mean and
the recall and coverage hits.  Diversity is the gen-gen mean times
n / (n - 1), and the energy cross term is the ref-gen mean, D(b, a) in
``energy_distance``'s terms.  The standalone metrics run the same passes,
so they have ``evaluate``'s bits.  ``evaluate`` samples each model with one
``sample_batch`` call, which runs its own row blocks.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .dynamics import run_blocks, sample_batch
from .errors import DomainError, EmptyInput, NonFiniteError, ShapeError, TooFewSamples


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
    bad = ~np.isfinite(x).all(axis=1)
    if bad.any():
        raise NonFiniteError(f"non-finite sample at row {int(np.argmax(bad))}")
    return x


def _point_sets(a, b):
    """Both sample sets as points, which must share their state dimension."""
    a, b = _as_points(a), _as_points(b)
    if a.shape[1] != b.shape[1]:
        raise ShapeError(f"sample sets of shapes {a.shape} and {b.shape} differ in dimension")
    return a, b


PAIR_BLOCK_ROWS = 32  # rows of x per block of a pair pass


def _pair_pass(x: np.ndarray, y: np.ndarray, visit=None) -> float:
    """Mean Euclidean distance between the rows of x and y, in one pass.

    x's rows are cut by len(x) alone into blocks of PAIR_BLOCK_ROWS (a last
    block of one row joins the one before: numpy would take it down its
    matrix-vector path, which BLAS may round differently).  Block [lo, hi),
    bitwise sqrt(max(|x_i|^2 + |y_j|^2 - (2 x)[lo:hi] @ y^T, 0)), is summed
    into its own slot, then ``visit(lo, block)`` may read and overwrite it.
    The slots are added in block order, so workers cannot change a bit.
    """
    n, m = x.shape[0], y.shape[0]
    bounds = [*range(0, max(n - 1, 1), PAIR_BLOCK_ROWS), n]  # no one-row tail
    sx = np.sum(x**2, axis=1)
    sy = np.sum(y**2, axis=1)
    x2 = 2.0 * x
    sums = np.empty(len(bounds) - 1)

    def blocks(b0, b1):
        gram = np.empty((min(PAIR_BLOCK_ROWS + 1, n), m))
        tmp = np.empty_like(gram)
        for b in range(b0, b1):
            lo, hi = bounds[b], bounds[b + 1]
            blk = np.matmul(x2[lo:hi], y.T, out=gram[: hi - lo])
            np.subtract(np.add(sx[lo:hi, None], sy, out=tmp[: hi - lo]), blk, out=blk)
            np.maximum(blk, 0.0, out=blk)
            np.sqrt(blk, out=blk)
            sums[b] = np.sum(blk)
            if visit is not None:
                visit(lo, blk)

    # one part per block: run_blocks deals them out in spans of four
    run_blocks(blocks, sums.size, parts=sums.size)
    return float(np.sum(sums)) / (n * m)


def _self_pass(x: np.ndarray, k: int):
    """(mean self distance, each point's distance to its k-th nearest other)."""
    radii = np.empty(x.shape[0])

    def kth(lo, blk):  # after the block's sum: no point is its own neighbour
        np.fill_diagonal(blk[:, lo:], np.inf)
        blk.partition(k - 1, axis=1)
        radii[lo : lo + blk.shape[0]] = blk[:, k - 1]

    return _pair_pass(x, x, kth), radii


def _mpd(self_mean: float, n: int) -> float:
    """Mean over unordered pairs from the mean of the n x n self distances."""
    return self_mean * n / (n - 1)


def diversity_mpd(samples) -> float:
    """Mean Euclidean distance over unordered pairs of distinct samples."""
    x = _as_points(samples)
    n = x.shape[0]
    if n < 2:
        raise TooFewSamples(f"need >= 2 samples, got {n}")
    return _mpd(_pair_pass(x, x), n)


def wasserstein1_1d(a, b) -> float:
    """Exact empirical W1 in 1D between two sample sets of one size."""
    a, b = (_as_points(v) for v in (a, b))
    if a.size == 0 or b.size == 0:
        raise EmptyInput("empty sample set")
    if a.shape != b.shape or a.shape[1] != 1:
        raise ShapeError(f"W1 needs two (n, 1) sample sets, got {a.shape} and {b.shape}")
    return float(np.mean(np.abs(np.sort(a.ravel()) - np.sort(b.ravel()))))


def _energy(mean_ab: float, mean_aa: float, mean_bb: float) -> float:
    return max(2.0 * mean_ab - mean_aa - mean_bb, 0.0)


def energy_distance(a, b) -> float:
    """Energy distance 2 E|A-B| - E|A-A'| - E|B-B'| (nonnegative).

    The cross term is the mean of D(b, a), as in the kNN cross pass.
    """
    a, b = _point_sets(a, b)
    if a.shape[0] < 2 or b.shape[0] < 2:
        raise TooFewSamples("need >= 2 samples per set")
    return _energy(*(_pair_pass(x, y) for x, y in ((b, a), (a, a), (b, b))))


def _check_knn(k, n: int) -> None:
    """k must be an integer >= 1, and the smaller set hold n >= k + 1 points."""
    if not isinstance(k, (int, np.integer)) or k < 1:
        raise DomainError(f"k must be an integer >= 1, got {k!r}")
    if n < k + 1:
        raise TooFewSamples(f"need >= {k + 1} points per set")


def _knn_terms(gen, ref, k: int):
    """(coverage, recall, mean gen-gen, mean ref-ref, mean ref-gen distance).

    gen-gen and ref-ref give their means and kNN radii, then ref-gen its mean
    and each reference row's recall and coverage hits.
    """
    g, r = _point_sets(gen, ref)
    _check_knn(k, min(g.shape[0], r.shape[0]))
    mean_gg, gen_radii = _self_pass(g, k)
    mean_rr, ref_radii = _self_pass(r, k)
    recalled, covered = np.empty((2, r.shape[0]), dtype=bool)

    def hits(lo, blk):
        hi = lo + blk.shape[0]
        np.any(blk <= gen_radii, axis=1, out=recalled[lo:hi])
        np.less_equal(np.min(blk, axis=1), ref_radii[lo:hi], out=covered[lo:hi])

    mean_rg = _pair_pass(r, g, hits)
    return float(np.mean(covered)), float(np.mean(recalled)), mean_gg, mean_rr, mean_rg


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
    # k + 1 >= 2 points per set also covers the diversity and energy checks
    _check_knn(k, n_samples)
    gen, ref = (
        np.stack([t.states[-1] for t in sample_batch(f, n_steps, n_samples, s)])
        for f, s in ((vf, seed), (base, seed + 1))
    )
    rewards = reward.value(gen)
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
