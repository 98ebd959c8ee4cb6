import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowam.errors import DomainError, EmptyInput, TooFewSamples
from flowam.evaluation import (
    diversity_mpd,
    energy_distance,
    evaluate,
    knn_coverage_recall,
    wasserstein1_1d,
)
from flowam.tasks import ConstantReward


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


def test_mpd_chunking_invariance(rng):
    x = rng.standard_normal((300, 2))
    assert diversity_mpd(x, chunk=7) == pytest.approx(
        diversity_mpd(x, chunk=512), rel=1e-12
    )


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
