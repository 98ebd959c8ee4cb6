import sys
import threading

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flowam import dynamics
from flowam.dynamics import (
    BLOCK_ROWS,
    _integrate,
    _stream_states,
    run_blocks,
    sample_batch,
    sample_ode,
    sample_seed,
)
from flowam.errors import DomainError, NonFiniteError, ShapeError
from flowam.nnet import NetConfig, VelocityField
from flowam.oracles import LinearVelocityField
from flowam.schedules import NOISE_SCHEDULES, T_FLOOR, step_coeffs

MEMORYLESS = NOISE_SCHEDULES["memoryless"]


def zero_sigma(t, eta):
    """sigma = 0 at every step start: a table that no noise schedule gives."""
    return np.zeros_like(t)


def test_ode_linear_field_matches_exponential():
    # dx/dt = 0.7 x: Euler at N=2000 should be close to e^0.7
    lf = LinearVelocityField([[0.7]])
    traj = sample_ode(lf, 2000, np.array([1.0]))
    assert traj.states[-1][0] == pytest.approx(np.exp(0.7), rel=5e-4)


def test_trajectory_shapes_and_grid():
    lf = LinearVelocityField([[0.0, -1.0], [1.0, 0.0]])
    traj = sample_ode(lf, 10, np.array([1.0, 0.0]))
    assert traj.times.shape == (11,)
    assert traj.states.shape == (11, 2)
    assert traj.noises.shape == (0, 2)
    np.testing.assert_allclose(np.diff(traj.times), 0.1, rtol=1e-12)
    assert traj.n_steps == 10 and traj.states.shape[-1] == 2


def test_ode_rejects_bad_step_count():
    lf = LinearVelocityField([[0.0]])
    with pytest.raises(ShapeError):
        sample_ode(lf, 0, np.array([1.0]))


def test_sde_step_coeffs_clipping_and_memoryless_correction():
    # memoryless: sigma^2 = 2 eta so the correction factor is exactly 1
    table = step_coeffs(MEMORYLESS, 2000)
    corr, kappa, sig = table[1000]  # t = 0.5
    assert corr == pytest.approx(1.0)
    assert kappa == pytest.approx(2.0)
    assert sig == pytest.approx(np.sqrt(2.0))
    # t clipped away from both endpoints
    assert table[0, 1] == pytest.approx(1.0 / T_FLOOR)
    assert table[-1, 1] == pytest.approx(1.0 / (1.0 - T_FLOOR))
    assert np.all(np.isfinite(table))


def test_zero_noise_sde_equals_ode():
    lf = LinearVelocityField([[0.4]])
    sde = sample_batch(lf, 50, 3, 9, coeffs=step_coeffs(zero_sigma, 50))
    for traj in sde:
        ode = sample_ode(lf, 50, traj.states[0])
        np.testing.assert_array_equal(traj.states, ode.states)


def test_sde_seed_determinism():
    lf = LinearVelocityField([[-0.5]])
    table = step_coeffs(MEMORYLESS, 30)
    a = sample_batch(lf, 30, 4, 7, coeffs=table)
    b = sample_batch(lf, 30, 4, 7, coeffs=table)
    c = sample_batch(lf, 30, 4, 8, coeffs=table)
    for ta, tb, tc in zip(a, b, c):
        np.testing.assert_array_equal(ta.states, tb.states)
        assert not np.array_equal(ta.states, tc.states)


def test_sample_batch_rejects_bad_sizes():
    lf = LinearVelocityField([[0.0]])
    with pytest.raises(ShapeError):
        sample_batch(lf, 0, 4, 0)
    with pytest.raises(ShapeError):
        sample_batch(lf, 10, 0, 0)
    with pytest.raises(DomainError):
        sample_batch(lf, 10, 4, -1)


@pytest.mark.parametrize("shape", [(9, 3), (11, 3), (10, 2), (10,), (3, 10)])
def test_sample_batch_rejects_a_table_of_the_wrong_shape(shape):
    # the table must have one (correction, kappa, sigma) row per step
    lf = LinearVelocityField([[0.0]])
    with pytest.raises(ShapeError, match="coefficient table"):
        sample_batch(lf, 10, 4, 0, coeffs=np.ones(shape))


def test_sample_batch_matches_single_sample_streams():
    # row i of a batch must equal a hand-written Euler-Maruyama loop over
    # the stream sample_seed(seed, i)
    lf = LinearVelocityField([[0.1]])
    n = 15
    table = step_coeffs(MEMORYLESS, n)
    batch = sample_batch(lf, n, 4, 7, coeffs=table)
    h = 1.0 / n
    for i in (0, 3):
        rng = sample_seed(7, i)
        x = rng.standard_normal((1, 1))
        noises = rng.standard_normal((n, 1))
        states = [x]
        for k in range(n):
            t = k * h
            corr, kappa, sig = table[k]
            v = lf.forward(x, t)
            x = x + h * (v + corr * (v - kappa * x)) + np.sqrt(h) * sig * noises[k]
            states.append(x)
        np.testing.assert_array_equal(batch[i].states, np.concatenate(states))
        np.testing.assert_array_equal(batch[i].noises, noises)


# base seeds of 1, 2 and 3 little-endian uint32 words
SEEDS = st.one_of(st.integers(0, 2**32 - 1), st.integers(2**32, 2**64 - 1),
                  st.integers(2**64, 2**96 - 1))


@settings(max_examples=60, deadline=None)
@given(seed=SEEDS, m=st.integers(1, 300), n=st.integers(1, 6), stochastic=st.booleans())
@example(seed=0, m=1, n=1, stochastic=True)
@example(seed=2**32 - 1, m=300, n=3, stochastic=False)
@example(seed=2**32, m=300, n=2, stochastic=True)
@example(seed=2**64 + 1, m=17, n=4, stochastic=True)
def test_batched_streams_equal_single_streams(seed, m, n, stochastic):
    # one seeding pass over the batch gives every row the x0 and noise bits
    # of its own stream sample_seed(seed, i)
    lf = LinearVelocityField([[0.3, 0.0], [0.0, -0.2]])
    batch = sample_batch(lf, n, m, seed,
                         coeffs=step_coeffs(MEMORYLESS, n) if stochastic else None)
    for i, traj in enumerate(batch):
        rng = sample_seed(seed, i)
        np.testing.assert_array_equal(traj.states[0], rng.standard_normal(2))
        if stochastic:
            np.testing.assert_array_equal(traj.noises, rng.standard_normal((n, 2)))
        else:
            assert traj.noises.shape == (0, 2)


@settings(max_examples=60, deadline=None)
@given(seed=st.one_of(SEEDS, st.integers(2**96, 2**224 - 1)), m=st.integers(1, 40))
@example(seed=0, m=1)
@example(seed=2**32 - 1, m=3)
@example(seed=2**32, m=3)
@example(seed=2**64 + 1, m=3)
def test_stream_states_equal_numpy_pcg64_seeding(seed, m):
    # a change to numpy's SeedSequence or PCG64 seeding must fail here, not
    # silently move the sampler's bits; seeds of 4 to 7 words also run the
    # loop over entropy past the pool
    for i, (state, inc) in enumerate(_stream_states(seed, m)):
        ref = np.random.PCG64(np.random.SeedSequence([seed, i])).state["state"]
        assert (state, inc) == (ref["state"], ref["inc"])


@pytest.mark.parametrize("stochastic", [False, True])
def test_sample_batch_builds_no_seed_sequence_per_sample(stochastic, monkeypatch):
    made = []
    real = np.random.SeedSequence

    def counting(*args, **kwargs):
        made.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(np.random, "SeedSequence", counting)
    lf = LinearVelocityField([[0.1]])
    for m in (1, 64, 300):
        made.clear()
        sample_batch(lf, 5, m, 11, coeffs=step_coeffs(MEMORYLESS, 5) if stochastic else None)
        assert made == [], m


def test_mlp_batch_rows_match_single_runs_to_rounding():
    # BLAS may round a product over 256 rows differently from one over a
    # single row, so rows agree to rounding, not bitwise; the measured gap
    # is under 1e-15 after 20 steps, and 1e-12 bounds it with room
    vf = VelocityField.init(NetConfig(state_dim=2), seed=3)
    batch = sample_batch(vf, 20, 256, 5)
    for i, traj in enumerate(batch):
        single = sample_ode(vf, 20, sample_seed(5, i).standard_normal(2))
        np.testing.assert_allclose(traj.states, single.states, rtol=0, atol=1e-12)


def test_nonfinite_state_aborts():
    class Exploder:
        state_dim = 1

        def forward(self, x, t):
            return np.full_like(np.atleast_2d(x), np.inf)

    with pytest.raises(NonFiniteError):
        sample_ode(Exploder(), 5, np.array([1.0]))


# -- row blocks ------------------------------------------------------------------


def _states(trajs):
    return np.stack([t.states for t in trajs], axis=1)  # (N+1, m, dim)


@pytest.mark.parametrize("m", [2 * BLOCK_ROWS, 2 * BLOCK_ROWS + 1, 4 * BLOCK_ROWS + 3])
@pytest.mark.parametrize("hidden", [(32, 32), (64, 64, 64)])
@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("stochastic", [False, True])
def test_blocked_sample_batch_equals_one_integration_bitwise(stochastic, dim, hidden, m):
    # a batch of m >= 2 BLOCK_ROWS rows runs as row blocks; each block's
    # products must round as the same rows do inside one product over all
    # m, which pins BLOCK_ROWS: blocks of a few hundred rows round otherwise.
    # The memoryless table's kappa of 1 / T_FLOOR would blow an untrained
    # field's states up over a 4-step grid
    n = 4
    vf = VelocityField.init(NetConfig(state_dim=dim, hidden=hidden), seed=dim)
    table = step_coeffs(NOISE_SCHEDULES["one_minus_t"], n) if stochastic else None
    trajs = sample_batch(vf, n, m, 3, coeffs=table)
    x0 = np.stack([t.states[0] for t in trajs])
    noises = np.stack([t.noises for t in trajs], axis=1) if stochastic else None
    times, states = _integrate(vf, x0, n, table, noises)
    np.testing.assert_array_equal(_states(trajs), states)
    np.testing.assert_array_equal(trajs[0].times, times)


@pytest.mark.parametrize("m,parts,bounds", [
    (2000, 2, [0, 1000, 2000]),
    (2001, 2, [0, 1000, 2001]),
    (4003, 4, [0, 1000, 2000, 3000, 4003]),
    (10, 3, [0, 0, 4, 10]),
    (1, 2, [0, 0, 1]),
])
def test_run_blocks_cuts_near_equal_spans_at_multiples_of_four(monkeypatch, m, parts, bounds):
    # the partition depends on the row count and the part count alone;
    # empty spans are dropped
    spans = [(lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:]) if hi > lo]
    for workers in (1, 2, 3):
        monkeypatch.setattr(dynamics, "WORKERS", workers)
        assert run_blocks(lambda lo, hi: (lo, hi), m, parts) == spans


def test_run_blocks_keeps_the_callers_numpy_error_state(monkeypatch):
    # a pool thread runs its span in the caller's context, and its error
    # reaches the caller after every span is done
    monkeypatch.setattr(dynamics, "WORKERS", 3)
    finished = []

    def divide(lo, hi):
        if lo > 0:
            np.ones(1) / np.zeros(1)
        finished.append(lo)

    with np.errstate(divide="raise"), pytest.raises(FloatingPointError):
        run_blocks(divide, 12, 3)
    assert finished == [0]
    with np.errstate(divide="ignore"):
        run_blocks(divide, 12, 3)
    assert sorted(finished) == [0, 0, 4, 8]


def test_worker_counts_give_the_same_bytes(monkeypatch):
    # the workers only decide which thread runs a block; with more workers
    # than cores and a short switch interval, any state shared between
    # blocks would show here
    vf = VelocityField.init(NetConfig(state_dim=2, hidden=(32, 32)), seed=4)
    table = step_coeffs(MEMORYLESS, 6)
    runs = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for workers in (1, 2, 3):
            monkeypatch.setattr(dynamics, "WORKERS", workers)
            runs.append([_states(sample_batch(vf, 6, 3 * BLOCK_ROWS + 5, 8, coeffs=c))
                         for c in (None, table)])
    finally:
        sys.setswitchinterval(interval)
    for run in runs[1:]:
        for a, b in zip(runs[0], run):
            np.testing.assert_array_equal(a, b)


def test_sample_batch_below_two_blocks_starts_no_thread(thread_starts):
    lf = LinearVelocityField([[0.1]])
    for m in (1, 64, 2 * BLOCK_ROWS - 1):
        sample_batch(lf, 3, m, 0)
        sample_batch(lf, 3, m, 0, coeffs=step_coeffs(MEMORYLESS, 3))
    assert thread_starts == []


class _Bomb:
    """v = 0, so every state stays at its x0, except that the sample whose
    x0 is a key of ``at`` gets an infinite velocity from grid time at[x0] on."""

    state_dim = 1

    def __init__(self, at):
        self.at = at

    def forward(self, x, t):
        v = np.zeros_like(x)
        for x0, t_bad in self.at.items():
            v[(x[:, 0] == x0) & (t >= t_bad)] = np.inf
        return v


@pytest.mark.parametrize("workers", [1, 2])
def test_blow_up_names_the_earliest_step_over_all_blocks(monkeypatch, workers):
    # sample 1500 (second block) blows up at step 3, sample 7 (first block)
    # at step 5 and sample 1800 at step 3 as well: the error names step 3
    # and its first sample, as one batch over all rows does
    monkeypatch.setattr(dynamics, "WORKERS", workers)
    m, n, seed = 2 * BLOCK_ROWS, 10, 4
    x0 = {i: sample_seed(seed, i).standard_normal(1)[0] for i in (7, 1500, 1800)}
    bomb = _Bomb({x0[7]: 0.4, x0[1500]: 0.2, x0[1800]: 0.2})
    with np.errstate(invalid="ignore"):
        with pytest.raises(NonFiniteError, match=r"^non-finite state at step 3, sample 1500$"):
            sample_batch(bomb, n, m, seed)
        monkeypatch.setattr(dynamics, "BLOCK_ROWS", m)  # one block
        with pytest.raises(NonFiniteError, match=r"^non-finite state at step 3, sample 1500$"):
            sample_batch(bomb, n, m, seed)


def test_sample_ode_names_the_blow_up_step():
    # the velocity is infinite from grid time 0.2 = step 2 on, so the state
    # at step 3 is the first non-finite one
    with np.errstate(invalid="ignore"):
        with pytest.raises(NonFiniteError, match=r"^non-finite state at step 3, sample 0$"):
            sample_ode(_Bomb({0.3: 0.2}), 10, np.array([0.3]))


def _live_block_threads():
    return [t.name for t in threading.enumerate() if t.name.startswith("flowam-blocks")]


def test_no_block_thread_outlives_its_call(thread_starts):
    # each parallel call makes its own pool and shuts it down before it
    # returns or raises
    vf = VelocityField.init(NetConfig(state_dim=2, hidden=(16,)), seed=1)
    sample_batch(vf, 3, 2 * BLOCK_ROWS, 0)
    assert thread_starts and _live_block_threads() == []

    def fail_after_0(lo, hi):
        if lo > 0:
            raise ValueError(f"span {lo}")

    with pytest.raises(ValueError, match="span"):
        run_blocks(fail_after_0, 12, 3)
    assert _live_block_threads() == []
    assert all(name.startswith("flowam-blocks") for name in thread_starts)
