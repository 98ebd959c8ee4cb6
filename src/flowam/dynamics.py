"""Forward trajectory integration: Euler ODE and Euler-Maruyama SDE samplers.

Trajectories are recorded on a uniform grid t_0=0 < ... < t_N=1.  SDE steps
add the score-derived drift correction (sigma^2 / (2 eta)) (v - kappa x) and
sqrt(h) sigma noise, with (correction, kappa, sigma) read from the row of
the run's ``schedules.step_coeffs`` table that belongs to the step start;
the caller builds that table once and passes it in.

``sample_batch`` is the one sampler of the fine-tuning loop and of
evaluation: sample i draws its initial state and then its (N, dim) noise
block from its own stream ``sample_seed(seed, i)``, bitwise as if alone.
It seeds all m streams in one vectorized pass (``_stream_states`` redoes
numpy's SeedSequence and PCG64 seeding on arrays) and draws each sample's
x0 and noise in one call into one reused generator, so no per-sample
SeedSequence or generator is built; ``sample_seed`` stays the definition of
a stream, and the cheaper way to make a single one.
The batch is integrated jointly, and BLAS may round a product over m rows
differently from one over a single row, so row i matches the run of sample i
alone only to rounding; a rerun at the same batch size repeats bit for bit.

A batch of m >= 2 * BLOCK_ROWS rows is integrated as floor(m / BLOCK_ROWS)
near-equal row blocks, each its own batch, cut at multiples of 4 by m alone.
Blocks this large round as the same rows do inside one product over all m
(measured with OpenBLAS 0.3.31 on x86-64: 640 rows or more suffice, and a
1-wide output layer, which takes numpy's matrix-vector path, needs the
multiples of 4); ``tests/test_dynamics.py`` pins this.  ``run_blocks`` runs
them on the calling thread and WORKERS - 1 threads of a pool made for that
call, so numpy's kernels, which release the interpreter lock, use every
core; which thread runs a block cannot change its bytes.  WORKERS is the
number of usable cores when BLAS is limited to one thread
(OPENBLAS_NUM_THREADS, OMP_NUM_THREADS or MKL_NUM_THREADS set, and every one
set is "1"), else 1: threaded BLAS runs one product at a time and its
threads would compete with these.
``sample_ode`` integrates the flow from one (dim,) initial state.  No step
tests its state: each sampler scans the finished states once and names the
earliest non-finite step and its first sample.
"""

from __future__ import annotations

import contextvars
import os
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DomainError, NonFiniteError, ShapeError


@dataclass
class Trajectory:
    times: np.ndarray  # (N+1,)
    states: np.ndarray  # (N+1, dim)
    noises: np.ndarray  # (N, dim) for SDE runs, (0, dim) for ODE runs

    @property
    def n_steps(self) -> int:
        return self.times.shape[0] - 1


def sample_seed(base_seed: int, index: int) -> np.random.Generator:
    """Per-sample RNG stream; index 0 is the stream of a lone sample."""
    return np.random.default_rng(np.random.SeedSequence([int(base_seed), int(index)]))


# numpy's SeedSequence constants (pool of 4 uint32 words) and PCG64's multiplier
_MASK32, _MASK128 = 0xFFFFFFFF, (1 << 128) - 1
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_POOL = 4
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _hash_consts(init, mult, n):
    """(xor, mul) constants of n successive SeedSequence hashes, as columns."""
    c = [init]
    for _ in range(n):
        c.append((c[-1] * mult) & _MASK32)
    c = np.array(c, dtype=np.uint32)[:, None]
    return c[:-1], c[1:]


def _hash(v, xor, mul):
    v = (v ^ xor) * mul
    v ^= v >> 16
    return v


def _mix(x, y):
    r = _MIX_L * x - _MIX_R * y
    r ^= r >> 16
    return r


def _stream_states(base_seed: int, m: int) -> list:
    """PCG64 ``(state, inc)`` of ``sample_seed(base_seed, i)`` for i < m.

    uint32 array arithmetic over the m indices does what
    ``SeedSequence([base_seed, i]).generate_state(4, np.uint64)`` does for
    each i: the entropy is the little-endian 32-bit words of ``base_seed``
    and then ``i``; it is mixed into a pool of 4 words, from which 8 words
    are generated.  Each step of numpy's loops that reads one pool word and
    updates the others is done as one array operation over those rows.
    PCG64's seeding then runs on 128-bit Python ints.
    """
    n = int(base_seed)
    seed_words = [(n >> s) & _MASK32 for s in range(0, max(n.bit_length(), 1), 32)]
    words = np.zeros((max(len(seed_words) + 1, _POOL), m), dtype=np.uint32)
    words[: len(seed_words)] = np.array(seed_words, dtype=np.uint32)[:, None]
    words[len(seed_words)] = np.arange(m, dtype=np.uint32)
    xor, mul = _hash_consts(_INIT_A, _MULT_A, _POOL * len(words))
    pool = _hash(words[:_POOL], xor[:_POOL], mul[:_POOL])
    k = _POOL
    for src in range(_POOL):
        dst = [d for d in range(_POOL) if d != src]
        pool[dst] = _mix(pool[dst], _hash(pool[src], xor[k : k + 3], mul[k : k + 3]))
        k += 3
    for word in words[_POOL:]:
        pool = _mix(pool, _hash(word, xor[k : k + _POOL], mul[k : k + _POOL]))
        k += _POOL
    xor, mul = _hash_consts(_INIT_B, _MULT_B, 2 * _POOL)
    out = _hash(np.tile(pool, (2, 1)), xor, mul).astype(np.uint64)
    # little-endian word pairs are the uint64 words: state high, state low,
    # sequence high, sequence low
    u64 = out[0::2] | (out[1::2] << np.uint64(32))
    states = []
    for s_hi, s_lo, q_hi, q_lo in u64.T.tolist():
        inc = (((q_hi << 64) | q_lo) << 1 | 1) & _MASK128
        init = (s_hi << 64) | s_lo
        states.append((((inc + init) * _PCG_MULT + inc) & _MASK128, inc))
    return states


def _check_finite(states, start: int = 0) -> None:
    """Raise ``NonFiniteError`` naming the earliest grid index at which a row
    of ``states`` (grid indices start, start + 1, ...) is non-finite, and the
    first such row: what stopping at the first non-finite step would name."""
    if np.isfinite(states).all():
        return
    bad = ~np.isfinite(states).all(axis=-1)  # (steps, m)
    step, sample = np.unravel_index(np.argmax(bad), bad.shape)
    raise NonFiniteError(
        f"non-finite state at step {start + int(step)}, sample {int(sample)}")


def _check_grid(n_steps, states=None, window=None, coeffs=None, name="window"):
    """Raise ``ShapeError`` unless n_steps >= 1, ``states`` holds its n_steps + 1
    grid points, 1 <= ``window`` <= n_steps and ``coeffs`` is its (n_steps, 3)
    ``step_coeffs`` table; an argument left None is not checked."""
    if n_steps < 1:
        raise ShapeError("n_steps must be >= 1")
    if states is not None and np.shape(states)[0] != n_steps + 1:
        raise ShapeError(f"states hold {np.shape(states)[0]} grid points, "
                         f"not {n_steps + 1}")
    if window is not None and not 1 <= window <= n_steps:
        raise ShapeError(f"{name} {window} not in [1, {n_steps}]")
    if coeffs is not None and np.shape(coeffs) != (n_steps, 3):
        raise ShapeError(f"coefficient table must have shape ({n_steps}, 3), "
                         f"got {np.shape(coeffs)}")


def _integrate(field, x0, n_steps, coeffs=None, noises=None, start=0, out=None):
    """Shared Euler / Euler-Maruyama core over (m, dim) rows ``x0``, from
    grid index ``start`` to t=1; Euler-Maruyama reads ``coeffs``, a
    ``step_coeffs`` table.  Returns (times (N+1,), states (N+1-start, m,
    dim)); the states are written into ``out`` if it is given."""
    x = np.asarray(x0, dtype=np.float64)
    h = 1.0 / n_steps
    times = np.linspace(0.0, 1.0, n_steps + 1)
    states = np.empty((n_steps + 1 - start, *x.shape)) if out is None else out
    states[0] = x
    stochastic = noises is not None
    if stochastic:
        # (correction, kappa) per step and each step's sqrt(h) sigma noise
        drift_coeffs = coeffs[:, :2].tolist()
        kicks = (np.sqrt(h) * coeffs[:, 2])[:, None, None] * noises
    for k in range(start, n_steps):
        t = times[k]
        v = field.forward(x, t)
        if stochastic:
            corr, kappa = drift_coeffs[k]
            drift = v + corr * (v - kappa * x)
            x = x + h * drift + kicks[k]
        else:
            x = x + h * v
        states[k + 1 - start] = x
    return times, states


BLOCK_ROWS = 1000  # rows per sampler block; tests/test_dynamics.py pins its bits
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _worker_count() -> int:
    """Usable cores if BLAS is limited to one thread, else 1."""
    limits = [os.environ[v] for v in _BLAS_THREAD_VARS if v in os.environ]
    if not limits or any(v != "1" for v in limits):
        return 1
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on this platform
        return os.cpu_count() or 1


WORKERS = _worker_count()


def run_blocks(fn, n: int, parts: int) -> list:
    """``[fn(lo, hi) for (lo, hi) in spans]`` over range(n) cut into ``parts``
    near-equal spans, inner bounds multiples of 4.

    With w = min(WORKERS, spans) > 1, the calling thread runs spans 0, w,
    2w, ... and a pool of w - 1 threads, made for this call, the others, in
    the caller's context (so numpy's error state holds); fn must touch only
    its own rows and must not call ``run_blocks``.  Every span is finished
    before an error is raised.
    """
    bounds = sorted({4 * (j * n // (4 * parts)) for j in range(parts)} | {n})
    spans = list(zip(bounds[:-1], bounds[1:]))
    w = min(WORKERS, len(spans))
    if w <= 1:
        return [fn(lo, hi) for lo, hi in spans]
    # imported here: concurrent.futures pulls in logging, about 10 ms and
    # 0.6 MB that a process which never runs blocks in parallel need not pay
    from concurrent.futures import ThreadPoolExecutor

    out = [None] * len(spans)

    # the caller runs every w-th span itself; one pool future per span measured slower
    def run(first):
        for i in range(first, len(spans), w):
            out[i] = fn(*spans[i])

    with ThreadPoolExecutor(w - 1, "flowam-blocks") as pool:
        futures = [pool.submit(contextvars.copy_context().run, run, j) for j in range(1, w)]
        run(0)  # on an error, leaving the block waits for every other span
    for f in futures:
        f.result()
    return out


def sample_ode(field, n_steps: int, x0) -> Trajectory:
    """Explicit-Euler trajectory of the probability-flow ODE from one
    (dim,) initial state."""
    _check_grid(n_steps)
    times, states = _integrate(field, np.asarray(x0)[None], n_steps)
    _check_finite(states)
    return Trajectory(times, states[:, 0, :], np.empty((0, states.shape[-1])))


def sample_batch(
    field,
    n_steps: int,
    m: int,
    base_seed: int,
    coeffs: Optional[np.ndarray] = None,
) -> list[Trajectory]:
    """m independent trajectories with per-sample derived seeds.

    x0 ~ N(0, I) and the noise block are drawn from each sample's own stream,
    then the batch is integrated vectorized over samples, in row blocks from
    m >= 2 * BLOCK_ROWS on.  ``coeffs`` is the run's ``step_coeffs`` table,
    shape (n_steps, 3); with it this is the Euler-Maruyama flow of the SDE,
    without it the Euler flow of the ODE.  A non-finite state raises
    ``NonFiniteError`` naming the earliest step at which any sample went
    non-finite and the first such sample.
    """
    _check_grid(n_steps, coeffs=coeffs)
    if m < 1:
        raise ShapeError("batch size must be >= 1")
    if base_seed < 0:
        raise DomainError(f"seed must be >= 0, got {base_seed}")
    dim = field.state_dim
    stochastic = coeffs is not None
    # row i is stream i's x0 and then its (N, dim) noise block, in one draw
    draws = np.empty((m, dim * (1 + n_steps if stochastic else 1)))
    rng = np.random.Generator(np.random.PCG64(0))
    bitgen = rng.bit_generator
    for i, (state, inc) in enumerate(_stream_states(base_seed, m)):
        bitgen.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                        "has_uint32": 0, "uinteger": 0}
        rng.standard_normal(out=draws[i])
    x0 = draws[:, :dim]
    noises = None
    if stochastic:
        noises = draws[:, dim:].reshape(m, n_steps, dim).transpose(1, 0, 2)
    states = np.empty((n_steps + 1, m, dim))

    def block(lo, hi):
        return _integrate(field, x0[lo:hi], n_steps, coeffs,
                          None if noises is None else noises[:, lo:hi],
                          out=states[:, lo:hi])[0]

    times = run_blocks(block, m, m // BLOCK_ROWS if m >= 2 * BLOCK_ROWS else 1)[0]
    _check_finite(states)
    empty = np.empty((0, dim))
    return [
        Trajectory(times=times, states=states[:, i, :],
                   noises=noises[:, i, :] if stochastic else empty)
        for i in range(m)
    ]
