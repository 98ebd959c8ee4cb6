import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowam import dynamics, evaluation
from flowam.checkpoint import Checkpoint
from flowam.dynamics import sample_batch
from flowam.errors import DomainError, EmptyInput, NonFiniteError, ShapeError, TooFewSamples
from flowam.evaluation import (
    EvalReport,
    PAIR_BLOCK_ROWS,
    _pair_pass,
    _self_pass,
    diversity_mpd,
    energy_distance,
    evaluate,
    knn_coverage_recall,
    wasserstein1_1d,
)
from flowam.nnet import NetConfig, VelocityField
from flowam.tasks import ConstantReward, QuadraticWell


# -- distance kernels ------------------------------------------------------------


def _gram_dists(x, y):
    """The one-expression Gram form whose bits each block of a pair pass keeps."""
    d2 = (
        np.sum(x**2, axis=1)[:, None]
        + np.sum(y**2, axis=1)[None, :]
        - 2.0 * x @ y.T
    )
    return np.sqrt(np.maximum(d2, 0.0, out=d2), out=d2)


def _block_bounds(n):
    """Blocks of PAIR_BLOCK_ROWS rows, cut by n alone; a one-row tail joins
    the block before it."""
    starts = list(range(0, n, PAIR_BLOCK_ROWS))
    if len(starts) > 1 and n - starts[-1] == 1:
        starts.pop()
    return list(zip(starts, starts[1:] + [n]))


def _passed_blocks(x, y):
    """(mean, [(lo, block copy), ...]) of one pair pass, in block order."""
    seen = []
    mean = _pair_pass(x, y, lambda lo, blk: seen.append((lo, blk.copy())))
    return mean, sorted(seen, key=lambda s: s[0])


def _blocked_mean(x, y):
    """The pass's mean from its definition: block sums added in block order."""
    sums = [np.sum(_gram_dists(x[lo:hi], y)) for lo, hi in _block_bounds(len(x))]
    return float(np.sum(np.array(sums))) / (len(x) * len(y))


# 256 and 512 rows end on a row block of PAIR_BLOCK_ROWS, 257 one row past
@pytest.mark.parametrize("n,m", [
    (1, 1), (5, 7), (256, 3), (257, 40), (512, 512), (300, 300), (1999, 37),
])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_pair_dists_equal_the_gram_expression_bitwise(monkeypatch, n, m, d):
    assert 256 % PAIR_BLOCK_ROWS == 0
    rng = np.random.default_rng(100 * n + d)
    x = rng.standard_normal((n, d)) * 3.0
    y = rng.standard_normal((m, d)) * 3.0
    y[: min(n, m) // 2] = x[: min(n, m) // 2]  # equal rows hit the clamp at 0
    # with 3 workers each runs its own spans of blocks, in a buffer of its own
    for workers in (1, 3):
        monkeypatch.setattr(dynamics, "WORKERS", workers)
        for a, b in ((x, y), (y, x), (x, x)):
            mean, blocks = _passed_blocks(a, b)
            bounds = _block_bounds(len(a))
            assert [lo for lo, _ in blocks] == [lo for lo, _ in bounds]
            for (lo, blk), (_, hi) in zip(blocks, bounds):
                np.testing.assert_array_equal(blk, _gram_dists(a[lo:hi], b))
            assert mean == _blocked_mean(a, b)
            # the whole-matrix mean differs only in the order of its sum
            assert mean == pytest.approx(np.mean(_gram_dists(a, b)), rel=1e-12, abs=0)


def test_pair_dists_leave_their_arguments_unchanged():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((PAIR_BLOCK_ROWS + 9, 2))
    y = rng.standard_normal((17, 2))
    before = (x.tobytes(), y.tobytes())
    _pair_pass(x, y)
    _pair_pass(x, x)
    _self_pass(x, 3)
    assert (x.tobytes(), y.tobytes()) == before


@pytest.mark.parametrize("n", [6, 40, 300])
@pytest.mark.parametrize("which_k", ["1", "5", "n-1"])
@pytest.mark.parametrize("lattice", [True, False])
def test_knn_radii_equal_the_sorted_column_bitwise(monkeypatch, n, which_k, lattice):
    k = {"1": 1, "5": 5, "n-1": n - 1}[which_k]
    rng = np.random.default_rng(n)
    if lattice:  # integer points: many tied distances
        x = rng.integers(-2, 3, size=(n, 2)).astype(np.float64)
    else:
        x = rng.standard_normal((n, 2))

    def sorted_column(d, lo):
        np.fill_diagonal(d[:, lo:], np.inf)
        return np.sort(d, axis=1)[:, k - 1]

    expected = np.concatenate(
        [sorted_column(_gram_dists(x[lo:hi], x), lo) for lo, hi in _block_bounds(n)]
    )
    whole = sorted_column(_gram_dists(x, x), 0)
    for workers in (1, 3):  # 3: each worker partitions its own blocks
        monkeypatch.setattr(dynamics, "WORKERS", workers)
        mean, radii = _self_pass(x, k)
        np.testing.assert_array_equal(radii, expected)
        assert mean == _blocked_mean(x, x)
        np.testing.assert_allclose(radii, whole, rtol=1e-12, atol=0)


# n on both sides of a block boundary, and unequal set sizes
SIZES = [(2, 5), (5, 2), (31, 33), (32, 31), (33, 32), (257, 256), (1999, 2000)]


@pytest.mark.parametrize("n,n_ref", SIZES)
@pytest.mark.parametrize("d", [1, 2, 3])
def test_standalone_metrics_equal_the_whole_matrix_formulas(n, n_ref, d):
    rng = np.random.default_rng(10 * n + d)
    gen = rng.standard_normal((n, d))
    ref = rng.standard_normal((n_ref, d)) * 1.5 + 0.5
    whole = {}
    for name, (x, y) in {"gg": (gen, gen), "rr": (ref, ref), "rg": (ref, gen)}.items():
        whole[name] = _gram_dists(x, y)
    mean = {name: float(np.mean(dist)) for name, dist in whole.items()}
    assert diversity_mpd(gen) == pytest.approx(mean["gg"] * n / (n - 1), rel=1e-12, abs=0)
    energy = max(2.0 * mean["rg"] - mean["gg"] - mean["rr"], 0.0)
    assert energy_distance(gen, ref) == pytest.approx(energy, rel=1e-12, abs=0)
    k = min(5, n - 1, n_ref - 1)
    radii = {}
    for name in ("gg", "rr"):
        np.fill_diagonal(whole[name], np.inf)
        radii[name] = np.sort(whole[name], axis=1)[:, k - 1]
    recall = float(np.mean(np.any(whole["rg"] <= radii["gg"][None, :], axis=1)))
    coverage = float(np.mean(np.min(whole["rg"], axis=1) <= radii["rr"]))
    assert knn_coverage_recall(gen, ref, k) == (coverage, recall)


@pytest.mark.parametrize("workers", [1, 3])
def test_knn_pass_peak_memory_stays_far_below_one_matrix(monkeypatch, workers):
    # one n x n float64 matrix at n = 2000 is 32 MB; each worker's two block
    # buffers take 2 * 33 * 2000 * 8 bytes
    monkeypatch.setattr(dynamics, "WORKERS", workers)
    rng = np.random.default_rng(4)
    gen = rng.standard_normal((2000, 2))
    ref = rng.standard_normal((2000, 2)) + 0.3
    tracemalloc.start()
    try:
        evaluation._knn_terms(gen, ref, 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6, peak


# -- diversity -------------------------------------------------------------------


def test_mpd_identical_points_is_zero():
    x = np.ones((10, 2))
    assert diversity_mpd(x) == 0.0


def test_mpd_two_points():
    assert diversity_mpd(np.array([[0.0], [2.0]])) == pytest.approx(2.0)


def test_mpd_standard_normal_expectation(rng):
    # E|X - Y| = 2 / sqrt(pi) for X, Y iid N(0, 1)
    x = rng.standard_normal((4000, 1))
    assert diversity_mpd(x) == pytest.approx(2.0 / np.sqrt(np.pi), rel=0.02)


def test_mpd_needs_two_samples():
    with pytest.raises(TooFewSamples):
        diversity_mpd(np.zeros((1, 3)))


# -- Wasserstein-1 ----------------------------------------------------------------


def test_w1_identical_sets_is_zero(rng):
    x = rng.standard_normal(500)
    assert wasserstein1_1d(x, x.copy()) == 0.0


def test_w1_constant_shift():
    x = np.linspace(-1, 1, 100)
    assert wasserstein1_1d(x, x + 1.0) == pytest.approx(1.0)


def test_w1_translated_gaussians(rng):
    a = rng.standard_normal(20000)
    b = rng.standard_normal(20000) + 1.0
    assert wasserstein1_1d(a, b) == pytest.approx(1.0, abs=0.02)


@pytest.mark.parametrize("n_a,n_b", [(5000, 8000), (8000, 5000), (1, 2)])
def test_w1_rejects_sets_of_unequal_sizes(rng, n_a, n_b):
    # the sets used to be resampled to the smaller size, which is not the
    # exact W1
    a = rng.standard_normal(n_a)
    b = rng.standard_normal(n_b) + 2.0
    with pytest.raises(ShapeError, match=rf"\({n_a}, 1\) and \({n_b}, 1\)"):
        wasserstein1_1d(a, b)
    with pytest.raises(ShapeError):
        wasserstein1_1d(a[:, None], b[:, None])


@pytest.mark.parametrize("shape_a,shape_b", [((6, 2), (6, 2)), ((4, 3), (6, 2)),
                                             ((6, 1), (3, 2))])
def test_w1_rejects_points_of_more_than_one_dimension(shape_a, shape_b):
    # their coordinates used to be pooled into one 1D set without an error
    rng = np.random.default_rng(6)
    with pytest.raises(ShapeError):
        wasserstein1_1d(rng.standard_normal(shape_a), rng.standard_normal(shape_b))


def test_w1_empty_rejected():
    with pytest.raises(EmptyInput):
        wasserstein1_1d(np.array([]), np.array([1.0]))


@settings(max_examples=30, deadline=None)
@given(
    st.lists(st.floats(-50, 50), min_size=2, max_size=40),
    st.lists(st.floats(-50, 50), min_size=2, max_size=40),
    st.lists(st.floats(-50, 50), min_size=2, max_size=40),
)
def test_w1_triangle_inequality(xs, ys, zs):
    n = min(len(xs), len(ys), len(zs))
    a, b, c = np.array(xs[:n]), np.array(ys[:n]), np.array(zs[:n])
    ab = wasserstein1_1d(a, b)
    bc = wasserstein1_1d(b, c)
    ac = wasserstein1_1d(a, c)
    assert ac <= ab + bc + 1e-9


# -- energy distance --------------------------------------------------------------


def test_energy_distance_self_is_zero(rng):
    x = rng.standard_normal((200, 2))
    assert energy_distance(x, x.copy()) == pytest.approx(0.0, abs=1e-10)


def test_energy_distance_separated_clusters(rng):
    a = rng.standard_normal((500, 2)) * 0.1
    b = rng.standard_normal((500, 2)) * 0.1 + np.array([10.0, 0.0])
    # far-apart clouds: 2 * separation minus twice the within-cloud spread
    within = 0.5 * (diversity_mpd(a) + diversity_mpd(b))
    assert energy_distance(a, b) == pytest.approx(20.0 - 2.0 * within, rel=0.01)


def test_energy_distance_symmetry(rng):
    a = rng.standard_normal((100, 2))
    b = rng.standard_normal((120, 2)) + 0.5
    assert energy_distance(a, b) == pytest.approx(energy_distance(b, a), rel=1e-12)


# -- kNN coverage / recall ----------------------------------------------------------


def test_knn_identical_sets_perfect(rng):
    x = rng.standard_normal((100, 2))
    cov, rec = knn_coverage_recall(x, x.copy(), k=5)
    assert cov == 1.0 and rec == 1.0


def test_knn_collapsed_generator(rng):
    # generator stuck on one mode of a two-mode reference
    ref = np.concatenate(
        [
            rng.standard_normal((200, 2)) * 0.2 + np.array([3.0, 0.0]),
            rng.standard_normal((200, 2)) * 0.2 - np.array([3.0, 0.0]),
        ]
    )
    gen = rng.standard_normal((400, 2)) * 0.2 + np.array([3.0, 0.0])
    cov, rec = knn_coverage_recall(gen, ref, k=5)
    assert cov == pytest.approx(0.5, abs=0.05)
    assert rec == pytest.approx(0.5, abs=0.05)


def test_knn_huge_k_saturates(rng):
    x = rng.standard_normal((30, 2))
    y = rng.standard_normal((30, 2))
    cov, rec = knn_coverage_recall(x, y, k=29)
    assert cov == 1.0 and rec == 1.0


def test_knn_monotone_in_k(rng):
    gen = rng.standard_normal((150, 2))
    ref = rng.standard_normal((150, 2)) + 1.0
    prev_cov, prev_rec = 0.0, 0.0
    for k in (1, 3, 5, 10, 20):
        cov, rec = knn_coverage_recall(gen, ref, k=k)
        assert cov >= prev_cov - 1e-12
        assert rec >= prev_rec - 1e-12
        prev_cov, prev_rec = cov, rec


def test_knn_permutation_invariance(rng):
    gen = rng.standard_normal((80, 2))
    ref = rng.standard_normal((80, 2))
    perm = rng.permutation(80)
    assert knn_coverage_recall(gen, ref) == knn_coverage_recall(
        gen[perm], ref[rng.permutation(80)]
    )


def test_knn_too_few_points():
    with pytest.raises(TooFewSamples):
        knn_coverage_recall(np.zeros((4, 2)), np.zeros((10, 2)), k=5)


@pytest.mark.parametrize("k", [0, -3])
def test_knn_rejects_k_below_one(k):
    x = np.zeros((10, 2))
    with pytest.raises(DomainError):
        knn_coverage_recall(x, x, k=k)


@pytest.mark.parametrize("k", [2.5, 3.0, "5", None])
def test_knn_rejects_a_k_that_is_no_integer(k):
    x = np.random.default_rng(0).standard_normal((10, 2))
    with pytest.raises(DomainError, match="integer"):
        knn_coverage_recall(x, x, k=k)


def test_knn_takes_a_numpy_integer_k():
    x = np.random.default_rng(0).standard_normal((10, 2))
    assert knn_coverage_recall(x, x, k=np.int64(3)) == knn_coverage_recall(x, x, k=3)


# -- bad input ------------------------------------------------------------------------


METRICS = {
    "diversity": lambda a, b: diversity_mpd(a),
    "energy": energy_distance,
    "knn": knn_coverage_recall,
    "w1": wasserstein1_1d,
}


# metric and the sample set that holds the bad row
@pytest.mark.parametrize("case", ["diversity-0", "energy-0", "energy-1", "knn-0", "knn-1",
                                  "w1-0", "w1-1"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_metrics_reject_non_finite_samples(case, bad):
    # one bad row used to give (0.0, 1.0), nan or inf without an error
    name, side = case.split("-")
    sets = [np.random.default_rng(s).standard_normal((12, 1)) for s in (1, 2)]
    sets[int(side)][7, 0] = bad
    with pytest.raises(NonFiniteError, match="row 7"):
        METRICS[name](*sets)


@pytest.mark.parametrize("metric", [energy_distance, knn_coverage_recall])
def test_metrics_reject_sample_sets_of_different_dimensions(metric):
    rng = np.random.default_rng(5)
    with pytest.raises(ShapeError, match=r"\(10, 2\) and \(12, 3\)"):
        metric(rng.standard_normal((10, 2)), rng.standard_normal((12, 3)))


# -- report assembly ----------------------------------------------------------------


def test_evaluate_base_against_itself(tiny1d_ckpt):
    report = evaluate(
        tiny1d_ckpt, tiny1d_ckpt, ConstantReward(1.0),
        n_samples=400, n_steps=20, seed=7,
    )
    assert report.reward_mean == 1.0
    assert report.reward_std == 0.0
    # same model, different sampling seeds: distance small, overlap near total
    assert report.distance < 0.2
    assert report.coverage > 0.95
    assert report.recall > 0.95
    assert 0.5 < report.diversity_mpd < 2.0
    row = report.as_row()
    assert row["n_samples"] == 400 and row["seed"] == 7


def test_evaluate_deterministic(tiny1d_ckpt):
    a = evaluate(tiny1d_ckpt, tiny1d_ckpt, ConstantReward(), 200, 20, seed=3)
    b = evaluate(tiny1d_ckpt, tiny1d_ckpt, ConstantReward(), 200, 20, seed=3)
    assert a == b


def _eval_setup(dim):
    cfg = NetConfig(state_dim=dim, hidden=(16, 16))
    tuned = Checkpoint(VelocityField.init(cfg, seed=dim), seed=0, iteration=0)
    base = Checkpoint(VelocityField.init(cfg, seed=10 + dim), seed=0, iteration=0)
    return tuned, base, QuadraticWell(center=np.ones(dim))


def _reference_evaluate(ckpt, base_ckpt, reward, n, n_steps, seed, k, whole=False):
    """evaluate from the metrics' definitions: each distance from its blocks'
    Gram products (whole=True: one product per pair of sets), means from
    block sums added in block order (whole: the matrix mean), kNN radii from
    a full sort, diversity from the gen-gen mean times n / (n - 1) and the
    energy cross term from D(ref, gen)."""
    gen, ref = (
        np.stack([t.states[-1] for t in sample_batch(c.vf, n_steps, n, s)])
        for c, s in ((ckpt, seed), (base_ckpt, seed + 1))
    )

    def dists(x, y):
        if whole:
            return _gram_dists(x, y)
        return np.concatenate([_gram_dists(x[lo:hi], y) for lo, hi in _block_bounds(len(x))])

    def mean_dist(x, y):
        return float(np.mean(dists(x, y))) if whole else _blocked_mean(x, y)

    def radii(x):
        d = dists(x, x)
        np.fill_diagonal(d, np.inf)
        return np.sort(d, axis=1)[:, k - 1]

    if gen.shape[1] == 1:
        dist = wasserstein1_1d(gen, ref)
    else:
        dist = max(
            2.0 * mean_dist(ref, gen) - mean_dist(gen, gen) - mean_dist(ref, ref), 0.0
        )
    cross = dists(ref, gen)
    recall = float(np.mean(np.any(cross <= radii(gen)[None, :], axis=1)))
    coverage = float(np.mean(np.min(cross, axis=1) <= radii(ref)))
    rewards = reward.value(gen)
    return EvalReport(
        float(np.mean(rewards)), float(np.std(rewards)),
        mean_dist(gen, gen) * n / (n - 1), dist, coverage, recall, n, seed,
    )


# the 2D case spans several row blocks of the distance pass
@pytest.mark.parametrize("dim,n,k", [(1, 200, 5), (2, 301, 5), (3, 260, 7)])
def test_evaluate_equals_the_reference_composition_bitwise(dim, n, k):
    tuned, base, reward = _eval_setup(dim)
    report = evaluate(tuned, base, reward, n_samples=n, n_steps=10, seed=5, k=k)
    expected = _reference_evaluate(tuned, base, reward, n, 10, 5, k)
    assert repr(report) == repr(expected)
    # the whole matrices' means differ only in the order of their sums
    whole = _reference_evaluate(tuned, base, reward, n, 10, 5, k, whole=True)
    assert (report.coverage, report.recall) == (whole.coverage, whole.recall)
    for name in ("reward_mean", "reward_std", "diversity_mpd", "distance"):
        assert getattr(report, name) == pytest.approx(getattr(whole, name), rel=1e-12, abs=0)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_evaluate_matches_the_standalone_metrics_bitwise(dim):
    # evaluate reads diversity and the energy terms from the kNN pass; the
    # standalone functions build their own matrices
    tuned, base, reward = _eval_setup(dim)
    report = evaluate(tuned, base, reward, n_samples=270, n_steps=10, seed=9, k=4)
    gen, ref = (
        np.stack([t.states[-1] for t in sample_batch(ckpt.vf, 10, 270, seed)])
        for ckpt, seed in ((tuned, 9), (base, 10))
    )
    distance = wasserstein1_1d if dim == 1 else energy_distance
    assert report.distance == distance(gen, ref)
    assert report.diversity_mpd == diversity_mpd(gen)
    assert (report.coverage, report.recall) == knn_coverage_recall(gen, ref, 4)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_evaluate_makes_three_passes_and_no_n_by_n_array(monkeypatch, dim):
    # gen-gen, ref-ref and ref-gen, each once, feed every metric, a block of
    # rows at a time
    passes, block_rows = [], []
    pair_pass = evaluation._pair_pass

    def recording(x, y, visit=None):
        passes.append((x, y))

        def watching(lo, blk):
            block_rows.append(blk.shape[0])
            visit(lo, blk)

        return pair_pass(x, y, watching)

    monkeypatch.setattr(evaluation, "_pair_pass", recording)
    tuned, base, reward = _eval_setup(dim)
    evaluate(tuned, base, reward, n_samples=120, n_steps=5, seed=2, k=3)
    (g, g2), (r, r2), cross = passes
    assert g is g2 and r is r2 and cross[0] is r and cross[1] is g
    assert g.shape == r.shape == (120, dim)
    assert sum(block_rows) == 3 * 120 and max(block_rows) <= PAIR_BLOCK_ROWS + 1


def test_evaluate_rejects_too_few_samples_for_k(monkeypatch):
    # before either model is sampled
    calls = []
    monkeypatch.setattr(evaluation, "sample_batch", lambda *a, **kw: calls.append(a))
    tuned, base, reward = _eval_setup(2)
    for n, k, error in ((5, 5, TooFewSamples), (5, 0, DomainError), (50, 2.0, DomainError)):
        with pytest.raises(error):
            evaluate(tuned, base, reward, n_samples=n, n_steps=3, k=k)
    assert calls == []


def test_evaluate_leaves_no_block_thread_alive(thread_starts):
    tuned, base, reward = _eval_setup(2)
    evaluate(tuned, base, reward, n_samples=2000, n_steps=3, seed=1)
    assert thread_starts
    assert not [t for t in threading.enumerate() if t.name.startswith("flowam-blocks")]


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_worker_counts_give_the_same_report(monkeypatch, dim):
    # at n = 2000 the sampler runs two row blocks and the distance and kNN
    # kernels one span of rows per worker; the report's bits must not move
    tuned, base, reward = _eval_setup(dim)
    reports = set()
    for workers in (1, 2, 3):
        monkeypatch.setattr(dynamics, "WORKERS", workers)
        reports.add(repr(evaluate(tuned, base, reward, n_samples=2000, n_steps=5, seed=6)))
    assert len(reports) == 1


def test_evaluate_samples_each_model_with_one_sample_batch_call(monkeypatch):
    # the row blocks go through private functions only, so a wrapper around
    # sample_batch (as the benchmark's capture installs) sees both models'
    # whole sample sets
    monkeypatch.setattr(dynamics, "WORKERS", 2)
    calls = []

    def recording(field, n_steps, m, *args, **kwargs):
        calls.append((field, m))
        return sample_batch(field, n_steps, m, *args, **kwargs)

    monkeypatch.setattr(dynamics, "sample_batch", recording)
    monkeypatch.setattr(evaluation, "sample_batch", recording)
    tuned, base, reward = _eval_setup(2)
    evaluate(tuned, base, reward, n_samples=2000, n_steps=3, seed=1)
    assert calls == [(tuned.vf, 2000), (base.vf, 2000)]
