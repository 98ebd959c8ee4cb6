"""Reference computations the benchmark makes without the program's code.

Each check returns a list of (name, ok, detail).  The network forward pass,
the Euler / Euler-Maruyama loops, the SDE coefficients of the linear
schedule with memoryless noise, the rewards and the evaluation metrics are
written out here again in plain numpy, so a check compares the program
against a second implementation, not against itself.
"""

from __future__ import annotations

import numpy as np

T_FLOOR = 1e-3  # sampler coefficient clip, as documented in flowam.dynamics


def close(a, b, rtol):
    a, b = float(a), float(b)
    return abs(a - b) <= rtol * max(abs(a), abs(b), 1e-300)


# -- network -----------------------------------------------------------------


def mlp_forward(params, arch, x, t):
    """The velocity MLP: [x, sin/cos(pi 2^(j//2) t)] -> SiLU hidden -> linear."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    t = np.broadcast_to(np.asarray(t, dtype=np.float64), (x.shape[0],))
    j = np.arange(arch["time_features"])
    ang = np.pi * 2.0 ** (j // 2)[None, :] * t[:, None]
    feats = np.where(j % 2 == 0, np.sin(ang), np.cos(ang))
    h = np.concatenate([x, feats], axis=1)
    dims = [h.shape[1], *arch["hidden"], arch["state_dim"]]
    off = 0
    for layer, (din, dout) in enumerate(zip(dims[:-1], dims[1:])):
        w = params[off : off + din * dout].reshape(dout, din)
        off += din * dout
        b = params[off : off + dout]
        off += dout
        h = h @ w.T + b
        if layer < len(dims) - 2:
            h = h / (1.0 + np.exp(-h))
    return h


# -- pretraining -----------------------------------------------------------------


def pretrain_batch(seed, batch, offset, std):
    """Iteration 0's (xbar, t, target) for the two-mode mixture, linear path."""
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 0]))
    x0 = rng.standard_normal((batch, 2))
    idx = rng.choice(2, size=batch, p=np.array([0.5, 0.5]))
    x1 = np.array([[-offset, 0.0], [offset, 0.0]])[idx] + std * rng.standard_normal(
        (batch, 2)
    )
    t = rng.uniform(0.0, 1.0, size=batch)
    xbar = (1.0 - t)[:, None] * x0 + t[:, None] * x1
    return xbar, t, x1 - x0


def pretrain_grad_check(params, grads, arch, batch_in, captured_in, seed):
    """Central differences of the flow-matching loss on sampled coordinates."""
    xbar, t, target = batch_in
    same = np.allclose(captured_in[0], xbar, rtol=0, atol=1e-12) and np.allclose(
        captured_in[1], t, rtol=0, atol=0
    )
    out = [("pretrain.batch_reproduced", bool(same), "")]

    def loss(p):
        r = mlp_forward(p, arch, xbar, t) - target
        return float(np.mean(np.sum(r * r, axis=1)))

    # three random coordinates in every weight matrix and bias vector
    dims = [arch["state_dim"] + arch["time_features"], *arch["hidden"], arch["state_dim"]]
    sizes = [n for din, dout in zip(dims[:-1], dims[1:]) for n in (din * dout, dout)]
    starts = np.cumsum([0] + sizes[:-1])
    rng = np.random.default_rng(seed)
    idx = np.concatenate([s + rng.choice(n, size=min(3, n), replace=False)
                          for s, n in zip(starts, sizes)])
    eps = 1e-5
    fd = np.empty(idx.size)
    for n, i in enumerate(idx):
        p = params.copy()
        p[i] += eps
        up = loss(p)
        p[i] -= 2 * eps
        fd[n] = (up - loss(p)) / (2 * eps)
    err = float(np.max(np.abs(fd - grads[idx])) / np.max(np.abs(grads)))
    out.append(("pretrain.grad_fd", err < 1e-6, f"rel err {err:.2e}"))
    return out


# -- sampling -------------------------------------------------------------------


def sde_coeffs(t):
    """(correction, kappa, sigma) of the linear schedule, memoryless noise."""
    tc = min(max(t, T_FLOOR), 1.0 - T_FLOOR)
    eta = (1.0 - tc) / tc
    sig = np.sqrt(2.0 * eta)
    return sig * sig / (2.0 * eta), 1.0 / tc, sig


def integrate(field, x, n_steps, start=0, noises=None):
    """Euler (noises None) or Euler-Maruyama from grid index `start` to 1.

    Returns all states from `start` on; noises has shape (N, m, dim)."""
    h = 1.0 / n_steps
    states = [x]
    for k in range(start, n_steps):
        t = k / n_steps
        v = field.forward(x, t)
        if noises is None:
            x = x + h * v
        else:
            corr, kappa, sig = sde_coeffs(t)
            x = x + h * (v + corr * (v - kappa * x)) + np.sqrt(h) * sig * noises[k]
        states.append(x)
    return states


def quadwell(x, center):
    d = np.asarray(x) - np.asarray(center)
    return -0.5 * np.sum(d * d, axis=-1)


def first_reward_check(base, x0, noises, n_steps, center, reward_mean):
    x1 = integrate(base, x0, n_steps, noises=noises)[-1]
    ours = float(np.mean(quadwell(x1, center)))
    return [("tune.first_reward", close(ours, reward_mean, 1e-9),
             f"ours {ours!r} program {reward_mean!r}")]


def reward_rise_check(base, tuned, n_steps, center, stochastic, seed, m=256):
    """Mean reward of the tuned field above the base's, on common draws.

    Per-iteration reward means differ by sampling noise as much as by
    progress, so both fields are integrated from the same x0 and noises."""
    rng = np.random.default_rng(seed)
    x0 = rng.standard_normal((m, 2))
    noises = rng.standard_normal((n_steps, m, 2)) if stochastic else None
    before, after = (
        float(np.mean(quadwell(integrate(f, x0, n_steps, noises=noises)[-1], center)))
        for f in (base, tuned)
    )
    return [("tune.reward_rises", after > before, f"{before:.4f} -> {after:.4f}")]


def adjoint_fd_check(base, x0, noises, n_steps, center, adjoints, samples=3):
    """Each window adjoint vs central differences of -reward(X_1) in X_k."""
    t_count = adjoints.shape[0]
    states = integrate(base, x0, n_steps, noises=noises)
    eps = 1e-5
    worst = 0.0
    for i in range(t_count):
        k = n_steps - t_count + 1 + i
        xk = states[k][:samples]
        dim = xk.shape[1]
        # rows: (sample, coordinate, sign)
        pert = np.repeat(xk, 2 * dim, axis=0)
        for s in range(samples):
            for j in range(dim):
                pert[s * 2 * dim + 2 * j, j] += eps
                pert[s * 2 * dim + 2 * j + 1, j] -= eps
        nz = None
        if noises is not None:
            nz = np.repeat(noises[:, :samples, :], 2 * dim, axis=1)
        g = -quadwell(integrate(base, pert, n_steps, start=k, noises=nz)[-1], center)
        fd = ((g[0::2] - g[1::2]) / (2 * eps)).reshape(samples, dim)
        a = adjoints[i, :samples]
        worst = max(worst, float(np.max(np.abs(a - fd)) / max(np.max(np.abs(fd)), 1e-12)))
    return [("tune.adjoint_fd", worst < 1e-6, f"max rel err {worst:.2e}")]


# -- evaluation ---------------------------------------------------------------


def _pair_dists(a, b, lo, hi):
    return np.sqrt(np.sum((a[lo:hi, None, :] - b[None, :, :]) ** 2, axis=-1))


def _chunks(n, size=250):
    return [(lo, min(lo + size, n)) for lo in range(0, n, size)]


def _mean_dist(a, b):
    return sum(float(np.sum(_pair_dists(a, b, lo, hi))) for lo, hi in _chunks(len(a))) / (
        len(a) * len(b)
    )


def _knn_radius(x, k):
    out = np.empty(len(x))
    for lo, hi in _chunks(len(x)):
        d = _pair_dists(x, x, lo, hi)
        d[np.arange(hi - lo), np.arange(lo, hi)] = np.inf
        out[lo:hi] = np.sort(d, axis=1)[:, k - 1]
    return out


def eval_report_check(row, gen, ref, center, k, n_samples, seed):
    """Every EvalReport field against a brute-force recomputation."""
    n = len(gen)
    rewards = quadwell(gen, center)
    mpd = 0.0
    for lo, hi in _chunks(n):
        d = _pair_dists(gen, gen, lo, hi)
        mpd += float(np.sum(np.triu(d, k=lo + 1)))
    mpd /= n * (n - 1) / 2.0
    energy = max(2 * _mean_dist(gen, ref) - _mean_dist(gen, gen) - _mean_dist(ref, ref), 0.0)
    gen_r, ref_r = _knn_radius(gen, k), _knn_radius(ref, k)
    recall = coverage = 0
    for lo, hi in _chunks(len(ref)):
        cross = _pair_dists(ref, gen, lo, hi)
        recall += int(np.sum(np.any(cross <= gen_r[None, :], axis=1)))
        coverage += int(np.sum(np.min(cross, axis=1) <= ref_r[lo:hi]))
    ours = {
        "reward_mean": float(np.mean(rewards)),
        "reward_std": float(np.std(rewards)),
        "diversity_mpd": mpd,
        "distance": energy,
        "coverage": coverage / len(ref),
        "recall": recall / len(ref),
    }
    out = [(f"eval.{key}", close(val, row[key], 1e-9), f"ours {val!r} program {row[key]!r}")
           for key, val in ours.items()]
    out.append(("eval.n_and_seed", row["n_samples"] == n_samples == n and row["seed"] == seed,
                ""))
    return out
