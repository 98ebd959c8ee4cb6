import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowam import dynamics, evaluation
from flowam.checkpoint import Checkpoint
from flowam.dynamics import sample_batch
from flowam.errors import DomainError, EmptyInput, TooFewSamples
from flowam.evaluation import (
    EvalReport,
    PAIR_BLOCK_ROWS,
    _knn_radii,
    _pair_dists,
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
    """The one-expression Gram form whose bits _pair_dists keeps."""
    d2 = (
        np.sum(x**2, axis=1)[:, None]
        + np.sum(y**2, axis=1)[None, :]
        - 2.0 * x @ y.T
    )
    return np.sqrt(np.maximum(d2, 0.0, out=d2), out=d2)


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
    # with 3 workers each finishes its own span of rows, in blocks of its own
    for workers in (1, 3):
        monkeypatch.setattr(dynamics, "WORKERS", workers)
        for a, b in ((x, y), (y, x), (x, x)):
            np.testing.assert_array_equal(_pair_dists(a, b), _gram_dists(a, b))


def test_pair_dists_leave_their_arguments_unchanged():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((PAIR_BLOCK_ROWS + 9, 2))
    y = rng.standard_normal((17, 2))
    before = (x.tobytes(), y.tobytes())
    _pair_dists(x, y)
    _pair_dists(x, x)
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
    d = _pair_dists(x, x)
    np.fill_diagonal(d, np.inf)
    expected = np.sort(d, axis=1)[:, k - 1]
    for workers in (1, 3):  # 3: each worker partitions its own span of rows
        monkeypatch.setattr(dynamics, "WORKERS", workers)
        np.testing.assert_array_equal(_knn_radii(d.copy(), k), expected)


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


def test_w1_unequal_sizes_resampled(rng):
    a = rng.standard_normal(5000)
    b = rng.standard_normal(8000) + 2.0
    assert wasserstein1_1d(a, b) == pytest.approx(2.0, abs=0.05)


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


def _reference_evaluate(ckpt, base_ckpt, reward, n, n_steps, seed, k):
    """evaluate from the metrics' definitions: one full product per distance
    matrix, the kNN radii read from a full sort, diversity from the gen-gen
    mean times n / (n - 1) and the energy cross term from D(ref, gen)."""
    gen, ref = (
        np.stack([t.states[-1] for t in sample_batch(c.vf, n_steps, n, s)])
        for c, s in ((ckpt, seed), (base_ckpt, seed + 1))
    )

    def mean_dist(x, y):
        return float(np.mean(_gram_dists(x, y)))

    def radii(x):
        d = _gram_dists(x, x)
        np.fill_diagonal(d, np.inf)
        return np.sort(d, axis=1)[:, k - 1]

    if gen.shape[1] == 1:
        dist = wasserstein1_1d(gen, ref)
    else:
        dist = max(
            2.0 * mean_dist(ref, gen) - mean_dist(gen, gen) - mean_dist(ref, ref), 0.0
        )
    cross = _gram_dists(ref, gen)
    recall = float(np.mean(np.any(cross <= radii(gen)[None, :], axis=1)))
    coverage = float(np.mean(np.min(cross, axis=1) <= radii(ref)))
    rewards = reward.value(gen)
    return EvalReport(
        float(np.mean(rewards)), float(np.std(rewards)),
        mean_dist(gen, gen) * n / (n - 1), dist, coverage, recall, n, seed,
    )


# the 2D case spans several row blocks of the distance kernel
@pytest.mark.parametrize("dim,n,k", [(1, 200, 5), (2, 301, 5), (3, 260, 7)])
def test_evaluate_equals_the_reference_composition_bitwise(dim, n, k):
    tuned, base, reward = _eval_setup(dim)
    report = evaluate(tuned, base, reward, n_samples=n, n_steps=10, seed=5, k=k)
    expected = _reference_evaluate(tuned, base, reward, n, 10, 5, k)
    assert repr(report) == repr(expected)


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
def test_evaluate_builds_exactly_three_distance_matrices(monkeypatch, dim):
    # gen-gen, ref-ref and ref-gen, each once, feed every metric
    shapes = []
    pair_dists = evaluation._pair_dists

    def counting(x, y):
        d = pair_dists(x, y)
        shapes.append(d.shape)
        return d

    monkeypatch.setattr(evaluation, "_pair_dists", counting)
    tuned, base, reward = _eval_setup(dim)
    evaluate(tuned, base, reward, n_samples=120, n_steps=5, seed=2, k=3)
    assert shapes == [(120, 120)] * 3


def test_evaluate_rejects_too_few_samples_for_k():
    tuned, base, reward = _eval_setup(2)
    with pytest.raises(TooFewSamples):
        evaluate(tuned, base, reward, n_samples=5, n_steps=3, k=5)
    with pytest.raises(DomainError):
        evaluate(tuned, base, reward, n_samples=5, n_steps=3, k=0)


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
