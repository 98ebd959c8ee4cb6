import sys
import threading

import numpy as np
import pytest

from flowam import nnet
from flowam.errors import NonFiniteError, ShapeError, ValidationError
from flowam.nnet import (
    ACTIVATIONS,
    BIAS_TILE_ROWS,
    GradientTape,
    NetConfig,
    VelocityField,
    _silu,
    _silu_with_prime,
    _tanh_with_prime,
    layer_views,
    time_embedding,
)
from flowam.train import OptimizerState, optimizer_step

CFG = NetConfig(state_dim=2, hidden=(8, 8), activation="silu", time_features=4)


def small_field(seed=0):
    return VelocityField.init(CFG, seed=seed)


def test_time_embedding_values():
    emb = time_embedding(0.25, 4)
    # sin/cos pairs at frequencies pi * 2^(j//2)
    expected = [
        np.sin(np.pi * 0.25), np.cos(np.pi * 0.25),
        np.sin(2 * np.pi * 0.25), np.cos(2 * np.pi * 0.25),
    ]
    np.testing.assert_allclose(emb[0], expected, rtol=1e-12)


def _per_column_embedding(t, n_features):
    """The embedding one column at a time, as np.sin(freq * t) / np.cos(freq * t)."""
    t = np.atleast_1d(np.asarray(t, dtype=np.float64))
    feats = np.empty((t.shape[0], n_features))
    for j in range(n_features):
        freq = np.pi * (2.0 ** (j // 2))
        feats[:, j] = np.sin(freq * t) if j % 2 == 0 else np.cos(freq * t)
    return feats


# every grid time of the samplers at N = 1..400 and 1000, and random times
GRID_TIMES = np.concatenate([np.linspace(0.0, 1.0, n + 1)
                             for n in [*range(1, 401), 1000]])
RANDOM_TIMES = np.random.default_rng(0).uniform(0.0, 1.0, 200_000)


@pytest.mark.parametrize("n_features", [1, 7, 8, 16])
def test_time_embedding_equals_per_column_reference_bitwise(n_features):
    # one np.sin and one np.cos call over all phases give the bits of the
    # per-column calls
    for t in (GRID_TIMES, RANDOM_TIMES):
        np.testing.assert_array_equal(time_embedding(t, n_features),
                                      _per_column_embedding(t, n_features))


def test_one_embedded_row_equals_the_m_row_embedding_bitwise():
    # a scalar time is embedded as one row and broadcast to the batch; that
    # row has the bits of the embedding computed over m copies of t
    for t in np.unique(GRID_TIMES):
        np.testing.assert_array_equal(
            np.broadcast_to(time_embedding(t, 8), (64, 8)),
            _per_column_embedding(np.full(64, t), 8))


def test_features_broadcast_one_row_to_the_batch():
    vf = small_field()
    x = np.random.default_rng(3).standard_normal((64, 2))
    for t in (0.0, 0.37, np.float64(0.98), np.array([0.5])):
        feats, _ = vf._features(x, t)
        expected = np.concatenate([x, _per_column_embedding(np.full(64, t), 4)], axis=1)
        np.testing.assert_array_equal(feats, expected)


def _concatenated_features(x, t, n_features):
    """Reference feature matrix: the embedding broadcast and concatenated."""
    parts = [x]
    if n_features > 0:
        emb = time_embedding(t, n_features)
        parts.append(np.broadcast_to(emb, (x.shape[0], emb.shape[1])))
    return np.concatenate(parts, axis=1)


@pytest.mark.parametrize("n_features", [0, 7, 8])
def test_features_equal_the_concatenated_expression_bitwise(n_features, monkeypatch):
    monkeypatch.setattr(nnet, "_TIME_ROWS", {})
    vf = VelocityField.init(NetConfig(state_dim=3, hidden=(5,), time_features=n_features))
    x = np.random.default_rng(4).standard_normal((33, 3))
    # 0.0 before -0.0: the memo must keep their rows (sin is signed) apart
    times = [0.0, -0.0, 0.37, np.float64(0.98), 1.0, np.array(0.5),
             np.array([0.25]), np.random.default_rng(5).uniform(size=33)]
    for t in times * 2:  # the second pass reads the memo
        feats, _ = vf._features(x, t)
        expected = _concatenated_features(x, t, n_features)
        assert feats.shape == expected.shape
        assert feats.tobytes() == expected.tobytes()


def test_each_scalar_time_is_embedded_once(monkeypatch):
    calls = []
    real = nnet.time_embedding

    def counting(t, n_features):
        calls.append(np.ndim(t))
        return real(t, n_features)

    monkeypatch.setattr(nnet, "_TIME_ROWS", {})
    monkeypatch.setattr(nnet, "time_embedding", counting)
    vf = small_field()
    x = np.random.default_rng(6).standard_normal((16, 2))
    grid = np.linspace(0.0, 1.0, 11)
    for _ in range(3):
        for t in grid:
            vf.forward(x, t)
            vf.forward_tape(x, t)
            vf.input_vjp(x, t, x)
    assert calls == [0] * grid.size
    # an array of times is embedded at every call, as pretraining passes it
    vf.forward(x, grid[:1].repeat(16))
    vf.forward(x, grid[:1].repeat(16))
    assert calls[grid.size:] == [1, 1]
    for row in nnet._TIME_ROWS.values():
        assert not row.flags.writeable
        with pytest.raises(ValueError):
            row[0, 0] = 1.0


def _silu_prime(z):
    s = 1.0 / (1.0 + np.exp(-z))
    return s * (1.0 + z * (1.0 - s))


@pytest.mark.parametrize("name,reference", [
    ("silu", _silu_prime),
    ("tanh", lambda z: 1.0 - np.tanh(z) ** 2),
    ("identity", np.ones_like),
])
def test_taped_activation_derivative_equals_recomputed_formula_bitwise(name, reference):
    act, act_with_prime = ACTIVATIONS[name]
    z = np.random.default_rng(1).standard_normal((257, 64)) * 4.0
    h, prime = act_with_prime(z)
    np.testing.assert_array_equal(h, act(z))
    np.testing.assert_array_equal(prime, reference(z))


# the expressions the in-place kernels replace, kept as references
def _silu_reference(z):
    s = 1.0 / (1.0 + np.exp(-z))
    return z * s


def _silu_with_prime_reference(z):
    s = 1.0 / (1.0 + np.exp(-z))
    return z * s, s * (1.0 + z * (1.0 - s))


def _tanh_with_prime_reference(z):
    h = np.tanh(z)
    return h, 1.0 - h ** 2


def _same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("kernel,reference", [
    (_silu, _silu_reference),
    (_silu_with_prime, _silu_with_prime_reference),
    (_tanh_with_prime, _tanh_with_prime_reference),
])
def test_in_place_activation_kernels_equal_the_expressions_bitwise(kernel, reference):
    edges = np.array([1e-300, 40.0, 745.0, np.inf])
    z = np.concatenate([
        np.random.default_rng(5).standard_normal(64 * 96) * 6.0, edges, -edges,
    ]).reshape(-1, 8)
    z_bytes = z.tobytes()
    with np.errstate(all="ignore"):
        # a (value, derivative) pair stacks into one array
        got, want = np.asarray(kernel(z)), np.asarray(reference(z))
    assert _same_bits(got, want)
    assert z.tobytes() == z_bytes


def test_plain_and_taped_forward_share_their_bits():
    for activation in ACTIVATIONS:
        cfg = NetConfig(state_dim=2, hidden=(16, 16), activation=activation)
        vf = VelocityField.init(cfg, seed=4)
        x = np.random.default_rng(2).standard_normal((64, 2))
        out, _ = vf.forward_tape(x, 0.3)
        np.testing.assert_array_equal(out, vf.forward(x, 0.3))


def test_net_config_lists_every_violation():
    with pytest.raises(ValidationError) as exc:
        NetConfig(state_dim=0, hidden=(8, 0), activation="relu", time_features=-1)
    assert [v.split()[0] for v in exc.value.violations] == [
        "state_dim", "hidden", "activation", "time_features"]


def test_forward_shapes():
    vf = small_field()
    single = vf.forward(np.zeros(2), 0.5)
    assert single.shape == (2,)
    batch = vf.forward(np.zeros((7, 2)), 0.5)
    assert batch.shape == (7, 2)
    # per-sample times
    batch_t = vf.forward(np.zeros((7, 2)), np.linspace(0, 1, 7))
    assert batch_t.shape == (7, 2)


def test_forward_rejects_wrong_state_dim():
    vf = small_field()
    with pytest.raises(ShapeError):
        vf.forward(np.zeros(3), 0.5)


def test_param_roundtrip_bit_exact():
    vf = small_field(seed=4)
    flat = vf.params_flat()
    vf2 = small_field(seed=9)
    vf2.set_params_flat(flat)
    np.testing.assert_array_equal(vf2.params_flat(), flat)
    out1 = vf.forward(np.ones(2), 0.3)
    out2 = vf2.forward(np.ones(2), 0.3)
    np.testing.assert_array_equal(out1, out2)


def test_set_params_rejects_nonfinite_and_wrong_size():
    vf = small_field()
    bad = vf.params_flat()
    bad[0] = np.nan
    with pytest.raises(NonFiniteError):
        vf.set_params_flat(bad)
    with pytest.raises(ShapeError):
        vf.set_params_flat(np.zeros(3))


def test_copy_is_independent():
    vf = small_field()
    cp = vf.copy()
    np.testing.assert_array_equal(cp.params, vf.params)
    assert not np.shares_memory(cp.params, vf.params)


def test_weights_and_biases_are_read_only_views_of_params():
    vf = small_field()
    flat = vf.params_flat()
    vf.set_params_flat(flat)
    assert vf.params is flat  # no copy
    for a in (*vf.weights, *vf.biases):
        assert np.shares_memory(a, flat) and not a.flags.writeable
        with pytest.raises(ValueError):
            a[0] = 1.0


@pytest.mark.parametrize("activation", list(ACTIVATIONS))
def test_params_flat_is_the_concatenation_of_every_layer(activation):
    # the pre-flat layout, built here: per layer W_l drawn N(0, 1/in) from
    # one generator and zero b_l, concatenated as W_l.ravel() then b_l
    cfg = NetConfig(state_dim=3, hidden=(16, 8, 16), activation=activation)
    rng = np.random.default_rng(6)
    dims = [cfg.input_dim, *cfg.hidden, cfg.state_dim]
    weights = [rng.normal(0.0, np.sqrt(1.0 / din), size=(dout, din))
               for din, dout in zip(dims[:-1], dims[1:])]
    biases = [rng.standard_normal(dout) for dout in dims[1:]]
    vf = VelocityField.init(cfg, seed=6)
    np.testing.assert_array_equal(
        vf.params_flat(),
        np.concatenate([np.concatenate([w.ravel(), np.zeros(w.shape[0])])
                        for w in weights]))
    flat = np.concatenate([np.concatenate([w.ravel(), b])
                           for w, b in zip(weights, biases)])
    vf.set_params_flat(flat)
    assert vf.n_params == flat.size == cfg.n_params
    for l, (w, b) in enumerate(zip(weights, biases)):
        assert _same_bits(vf.weights[l], w) and _same_bits(vf.biases[l], b)


def _reference_param_grad(vf, tape, cotangent):
    """Concatenated per-layer g.T @ h and g.sum(0), with fresh weight arrays."""
    g, parts = np.atleast_2d(cotangent), []
    for l in range(len(vf.weights) - 1, -1, -1):
        parts[:0] = [(g.T @ tape._layer_inputs[l]).ravel(), g.sum(axis=0)]
        g = g @ vf.weights[l].copy()
        if l > 0:
            g = g * tape._derivs[l - 1]
    return np.concatenate(parts)


@pytest.mark.parametrize("activation", list(ACTIVATIONS))
@pytest.mark.parametrize("m", [1, 3, 64])
def test_flat_param_grad_equals_the_per_layer_products_bitwise(activation, m):
    cfg = NetConfig(state_dim=3, hidden=(16, 8, 16), activation=activation)
    vf = VelocityField.init(cfg, seed=m)
    vf.set_params_flat(np.random.default_rng(m).standard_normal(cfg.n_params))
    rng = np.random.default_rng(m + 1)
    x, w = rng.standard_normal((m, 3)), rng.standard_normal((m, 3))
    _, tape = vf.forward_tape(x, rng.random(m))
    expected = _reference_param_grad(vf, tape, w)
    grad, _ = tape.backward(w)
    assert _same_bits(grad, expected)


def _fd_param_grad(vf, x, t, loss_of_out, eps=1e-6):
    flat = vf.params_flat()
    g = np.zeros_like(flat)
    for i in range(flat.size):
        for s, sign in ((eps, 1.0), (-eps, -1.0)):
            p = flat.copy()
            p[i] += s
            vf.set_params_flat(p)
            g[i] += sign * loss_of_out(np.atleast_2d(vf.forward(x, t)))
    vf.set_params_flat(flat)
    return g / (2 * eps)


def test_param_grad_matches_finite_differences():
    cfg = NetConfig(state_dim=1, hidden=(5,), activation="tanh", time_features=2)
    vf = VelocityField.init(cfg, seed=2)
    x = np.array([[0.4], [-0.7], [1.1]])
    t = 0.3

    out, tape = vf.forward_tape(x, t)
    grads, _ = tape.backward(2.0 * out)  # d/dout of sum(out^2)
    fd = _fd_param_grad(vf, x, t, lambda out: float(np.sum(out**2)))
    np.testing.assert_allclose(grads, fd, rtol=1e-5, atol=1e-7)


def test_input_vjp_matches_finite_differences():
    vf = small_field(seed=7)
    x = np.array([0.2, -0.5])
    w = np.array([1.3, -0.4])
    t = 0.6
    eps = 1e-6
    fd = np.zeros(2)
    for j in range(2):
        e = np.zeros(2)
        e[j] = eps
        fd[j] = (
            w @ vf.forward(x + e, t) - w @ vf.forward(x - e, t)
        ) / (2 * eps)
    v, vjp = vf.input_vjp(x, t, w)
    np.testing.assert_allclose(vjp, fd, rtol=1e-6, atol=1e-9)
    np.testing.assert_array_equal(v, vf.forward(x, t))


@pytest.mark.parametrize("activation", list(ACTIVATIONS))
@pytest.mark.parametrize("m", [1, 3, 64])
def test_input_vjp_has_the_bits_of_the_full_backward(activation, m):
    cfg = NetConfig(state_dim=3, hidden=(16, 8, 16), activation=activation)
    vf = VelocityField.init(cfg, seed=m)
    rng = np.random.default_rng(m)
    x, w = rng.standard_normal((m, 3)), rng.standard_normal((m, 3))
    v, vjp = vf.input_vjp(x, 0.4, w)
    out, tape = vf.forward_tape(x, 0.4)
    _, input_grad = tape.backward(w)
    assert _same_bits(v, out) and _same_bits(vjp, input_grad)


@pytest.mark.parametrize("activation", list(ACTIVATIONS))
def test_network_entry_points_leave_their_arguments_unchanged(activation):
    cfg = NetConfig(state_dim=2, hidden=(8, 8), activation=activation)
    vf = VelocityField.init(cfg, seed=3)
    params = vf.params_flat()
    for b in layer_views(cfg, params)[1]:
        b += 0.1
    vf.set_params_flat(params)
    rng = np.random.default_rng(8)
    x, w = rng.standard_normal((5, 2)), rng.standard_normal((5, 2))
    t = rng.random(5)
    args = (x, t, w, *vf.weights, *vf.biases)
    before = [a.tobytes() for a in args]
    vf.forward(x, t)
    vf.forward(x[0], 0.5)
    _, tape = vf.forward_tape(x, t)
    tape.backward(w)
    vf.input_vjp(x, t, w)
    vf.input_vjp(x[0], 0.5, w[0])
    assert [a.tobytes() for a in args] == before


def test_tape_single_use():
    vf = small_field()
    _, tape = vf.forward_tape(np.zeros((3, 2)), 0.5)
    tape.backward(np.zeros((3, 2)))
    with pytest.raises(RuntimeError):
        tape.backward(np.zeros((3, 2)))
    with pytest.raises(RuntimeError):
        tape.input_grad(np.zeros((3, 2)))


def test_param_grad_batch_order_deterministic():
    # summing per-sample grads in ascending order is bit-reproducible
    vf = small_field(seed=5)
    x = np.random.default_rng(1).standard_normal((16, 2))
    flats = []
    for _ in range(2):
        out, tape = vf.forward_tape(x, 0.2)
        grads, _ = tape.backward(np.ones_like(out))  # d/dout of sum(out)
        flats.append(grads)
    np.testing.assert_array_equal(flats[0], flats[1])


def test_param_grad_rejects_nonfinite_loss():
    # a non-finite loss cotangent gives non-finite parameter gradients,
    # which the optimizer refuses before they reach the parameters
    vf = small_field()
    out, tape = vf.forward_tape(np.zeros((1, 2)), 0.5)
    grads, _ = tape.backward(np.full_like(out, np.nan))
    opt = OptimizerState.init(vf.n_params)
    with pytest.raises(NonFiniteError):
        optimizer_step(opt, vf.params_flat(), grads, clip=1.0, lr=0.1)


def test_flat_grads_accumulate_blockwise():
    # the losses sum tape gradients into np.zeros(n_params) with +=; each
    # layer's block of the sum is the sum of that layer's blocks
    vf = small_field()
    x = np.random.default_rng(2).standard_normal((4, 2))
    total = np.zeros(vf.n_params)
    blocks = []
    for t in (0.2, 0.7):
        _, tape = vf.forward_tape(x, t)
        g, _ = tape.backward(np.ones((4, 2)))
        assert g.shape == (vf.n_params,)
        total += g
        blocks.append(layer_views(vf.cfg, g))
    tw, tb = layer_views(vf.cfg, total)
    for l in range(len(vf.weights)):
        assert _same_bits(tw[l], blocks[0][0][l] + blocks[1][0][l])
        assert _same_bits(tb[l], blocks[0][1][l] + blocks[1][1][l])


# -- bias tiles ------------------------------------------------------------------


def _broadcast_bias_run(vf, x, t):
    """Taped forward that adds each bias row by broadcasting: z = h @ w.T; z += b."""
    act_with_prime = ACTIVATIONS[vf.cfg.activation][1]
    h, _ = vf._features(x, t)
    inputs, derivs = [], []
    for l, (w, b) in enumerate(zip(vf.weights, vf.biases)):
        inputs.append(h)
        z = h @ w.T
        z += b
        if l == len(vf.weights) - 1:
            h = z
        else:
            h, d = act_with_prime(z)
            derivs.append(d)
    return h, inputs, derivs


def _random_field(activation, dim, seed):
    cfg = NetConfig(state_dim=dim, hidden=(16, 8, 16), activation=activation)
    vf = VelocityField.init(cfg, seed=seed)
    vf.set_params_flat(np.random.default_rng(seed).standard_normal(cfg.n_params))
    return vf


def _outputs(vf, x, t, w):
    """Bytes of forward_tape with backward, input_vjp and forward; on a fresh
    field, the first call broadcasts the biases and the later two add tiles."""
    out, tape = vf.forward_tape(x, t)
    grad, input_grad = tape.backward(w)
    v, vjp = vf.input_vjp(x, t, w)
    return [a.tobytes() for a in (out, grad, input_grad, v, vjp, vf.forward(x, t))]


@pytest.mark.parametrize("activation", list(ACTIVATIONS))
@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("m", [1, 3, 64, BIAS_TILE_ROWS, BIAS_TILE_ROWS + 1])
def test_tiled_bias_adds_give_the_broadcast_bytes(activation, dim, m):
    vf = _random_field(activation, dim, seed=dim * 1000 + m)
    rng = np.random.default_rng(m)
    x, w = rng.standard_normal((m, dim)), rng.standard_normal((m, dim))
    for t in (0.35, rng.random(m)):
        out, inputs, derivs = _broadcast_bias_run(vf, x, t)
        grad, input_grad = GradientTape(vf, inputs, derivs).backward(w)
        vjp = GradientTape(vf, inputs, derivs).input_grad(w)
        want = [a.tobytes() for a in (out, grad, input_grad, out, vjp, out)]
        assert _outputs(vf, x, t, w) == want


def test_an_in_place_update_readopted_drops_the_tiles():
    vf = _random_field("silu", 2, seed=3)
    rng = np.random.default_rng(3)
    x, w = rng.standard_normal((64, 2)), rng.standard_normal((64, 2))
    _outputs(vf, x, 0.5, w)  # tiles the biases at 64 rows
    p = vf.params
    p += 0.25 * rng.standard_normal(p.size)
    vf.set_params_flat(p)
    assert vf.params is p
    assert _outputs(vf, x, 0.5, w) == _outputs(VelocityField(vf.cfg, p.copy()), x, 0.5, w)


def test_alternating_row_counts_give_a_fresh_fields_bytes():
    vf = _random_field("tanh", 3, seed=4)
    rng = np.random.default_rng(4)
    for m in (64, 1, 64):
        x, w = rng.standard_normal((m, 3)), rng.standard_normal((m, 3))
        fresh = VelocityField(vf.cfg, vf.params_flat())
        assert _outputs(vf, x, 0.2, w) == _outputs(fresh, x, 0.2, w)


def test_threads_sharing_a_field_give_the_serial_bytes():
    # with more threads than cores and a short switch interval, a thread
    # that read another's half-replaced tiles would show here
    vf = _random_field("silu", 2, seed=5)
    rng = np.random.default_rng(5)
    rows = (1, 64, 3, BIAS_TILE_ROWS, BIAS_TILE_ROWS + 1, 64)
    cases = [(rng.standard_normal((m, 2)), rng.standard_normal((m, 2))) for m in rows]
    serial = [_outputs(VelocityField(vf.cfg, vf.params_flat()), x, 0.7, w)
              for x, w in cases]
    got = {}

    def work(k):
        got[k] = [[_outputs(vf, x, 0.7, w) for x, w in cases[k::3]] for _ in range(20)]

    threads = [threading.Thread(target=work, args=(k,)) for k in range(3)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    for k in range(3):
        assert all(run == serial[k::3] for run in got[k])
