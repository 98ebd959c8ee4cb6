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
``sample_ode`` integrates the flow from a given initial state.
"""

from __future__ import annotations

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


def _integrate(field, x0, n_steps, coeffs=None, noises=None, start=0):
    """Shared Euler / Euler-Maruyama core over a batch, from grid index
    ``start`` to t=1; Euler-Maruyama reads ``coeffs``, a ``step_coeffs``
    table.  Returns (times (N+1,), states (N+1-start, m, dim))."""
    x = np.atleast_2d(np.asarray(x0, dtype=np.float64)).copy()
    m, dim = x.shape
    h = 1.0 / n_steps
    times = np.linspace(0.0, 1.0, n_steps + 1)
    states = np.empty((n_steps + 1 - start, m, dim))
    states[0] = x
    stochastic = noises is not None
    for k in range(start, n_steps):
        t = times[k]
        v = field.forward(x, t)
        if stochastic:
            corr, kappa, sig = coeffs[k]
            drift = v + corr * (v - kappa * x)
            x = x + h * drift + np.sqrt(h) * sig * noises[k]
        else:
            x = x + h * v
        if not np.all(np.isfinite(x)):
            raise NonFiniteError(f"non-finite state at step {k + 1}")
        states[k + 1 - start] = x
    return times, states


def sample_ode(field, n_steps: int, x0) -> Trajectory:
    """Explicit-Euler trajectory of the probability-flow ODE."""
    if n_steps < 1:
        raise ShapeError("n_steps must be >= 1")
    times, states = _integrate(field, x0, n_steps)
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
    then the batch is integrated jointly (vectorized over samples).
    ``coeffs`` is the run's ``step_coeffs`` table, shape (n_steps, 3); without
    it, or where sigma is 0 at every step, this is the Euler flow of the ODE.
    """
    if n_steps < 1:
        raise ShapeError("n_steps must be >= 1")
    if m < 1:
        raise ShapeError("batch size must be >= 1")
    if base_seed < 0:
        raise DomainError(f"seed must be >= 0, got {base_seed}")
    if coeffs is not None and np.shape(coeffs) != (n_steps, 3):
        raise ShapeError(f"coefficient table must have shape ({n_steps}, 3), "
                         f"got {np.shape(coeffs)}")
    dim = field.state_dim
    stochastic = coeffs is not None and bool(np.any(coeffs[:, 2]))
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
    try:
        times, states = _integrate(field, x0, n_steps, coeffs, noises)
    except NonFiniteError as e:
        raise NonFiniteError(f"{e} (samples 0:{m})") from e
    empty = np.empty((0, dim))
    return [
        Trajectory(times=times, states=states[:, i, :],
                   noises=noises[:, i, :] if stochastic else empty)
        for i in range(m)
    ]
