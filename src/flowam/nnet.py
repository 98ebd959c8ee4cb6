"""Minimal feed-forward velocity network with hand-rolled reverse-mode diff.

The network maps (state, time) to a velocity of the same dimension as the
state; every entry point takes a stacked (m, dim) batch, and a single (dim,)
state is treated as a batch of one.  Two derivative primitives are exposed:

* ``input_vjp`` -- (v, w^T (dv/dx)), the velocity and the contraction the
  lean adjoint recursion consumes at every backward step; the adjoint keeps
  the velocity for the matching loss, so the loss runs no base forward.
  It pulls the cotangent back through the layers only, forming no
  parameter gradient, with the bits of ``backward``'s input gradient;
* ``GradientTape.backward`` -- cotangent propagation to one flat parameter
  gradient, in the layout of the parameter vector, for loss minimization.

``forward_tape`` computes each hidden layer's activation derivative in the
forward pass, from the same intermediates as the activation (the sigmoid
for SiLU, tanh itself for tanh), and stores it on the tape, so ``backward``
only multiplies.  Plain ``forward`` computes no derivative.  The
activations, the bias add and the backward multiply work in place on arrays
they have just allocated, never on an argument.  A scalar t is embedded
once per process: its read-only row is kept in a module-level memo (one row
per grid time of a run) and copied into every row of the feature matrix.
An array t, as pretraining passes, is embedded at every call.

A call of m <= BIAS_TILE_ROWS rows, made with parameters that already
served a call of m rows, adds each layer's bias from a read-only copy tiled
to m rows: numpy adds two arrays of one shape about twice as fast as it
broadcasts a row, and each element gets the same single add.  The field
keeps the tiles until ``set_params_flat`` adopts parameters again or a call
comes at another row count, so a fine-tuning iteration tiles theta once and
pretraining, whose parameters serve one call each, tiles nothing.  Above
the bound, tiles measured no faster.

Everything is float64 numpy.  No general-purpose autodiff: the architecture
is a fixed MLP over [state, sinusoidal time features].
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NonFiniteError, ShapeError, ValidationError

BIAS_TILE_ROWS = 256  # calls of at most this many rows add biases from tiles


# The kernels below allocate their outputs once and finish them in place;
# each element sees the same IEEE operations as z * s with
# s = 1 / (1 + exp(-z)), s * (1 + z * (1 - s)) and 1 - h ** 2, with only
# the operands of some + and * swapped.  They never write to z.


def _sigmoid(z):
    s = np.negative(z)
    np.exp(s, out=s)
    s += 1.0
    return np.divide(1.0, s, out=s)


def _silu(z):
    s = _sigmoid(z)
    s *= z
    return s


def _silu_with_prime(z):
    s = _sigmoid(z)
    d = np.subtract(1.0, s)
    d *= z
    d += 1.0
    d *= s
    s *= z
    return s, d


def _tanh_with_prime(z):
    h = np.tanh(z)
    d = np.square(h)
    return h, np.subtract(1.0, d, out=d)


# name -> (activation, activation with its derivative)
ACTIVATIONS = {
    "silu": (_silu, _silu_with_prime),
    "tanh": (np.tanh, _tanh_with_prime),
    "identity": (lambda z: z, lambda z: (z, np.ones_like(z))),
}


@dataclass(frozen=True)
class NetConfig:
    """Network architecture; construction checks every field."""

    state_dim: int
    hidden: tuple = (64, 64, 64)
    activation: str = "silu"
    time_features: int = 8

    def __post_init__(self):
        v = []
        if self.state_dim < 1:
            v.append(f"state_dim must be >= 1, got {self.state_dim}")
        if any(h < 1 for h in self.hidden):
            v.append(f"hidden widths must be >= 1, got {self.hidden}")
        if self.activation not in ACTIVATIONS:
            v.append(f"activation must be one of {tuple(ACTIVATIONS)}, "
                     f"got {self.activation!r}")
        if self.time_features < 0:
            v.append(f"time_features must be >= 0, got {self.time_features}")
        ValidationError.check(v)

    @property
    def input_dim(self) -> int:
        return self.state_dim + self.time_features

    @property
    def widths(self) -> tuple:
        """Layer widths, from the input features to the velocity."""
        return (self.input_dim, *self.hidden, self.state_dim)

    @property
    def n_params(self) -> int:
        w = self.widths
        return sum((din + 1) * dout for din, dout in zip(w[:-1], w[1:]))

    def to_dict(self) -> dict:
        # "n_cond": 0 keeps the version-1 header layout, so files stay
        # byte-identical and readable by tools that still expect the key
        return {
            "state_dim": self.state_dim,
            "hidden": list(self.hidden),
            "activation": self.activation,
            "time_features": self.time_features,
            "n_cond": 0,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "NetConfig":
        if int(d["n_cond"]) != 0:
            raise ConfigError(f"conditional networks (n_cond = {d['n_cond']}) "
                              "are not supported")
        return cls(
            state_dim=int(d["state_dim"]),
            hidden=tuple(int(h) for h in d["hidden"]),
            activation=str(d["activation"]),
            time_features=int(d["time_features"]),
        )


def time_embedding(t: np.ndarray, n_features: int) -> np.ndarray:
    """Sinusoidal features: sin/cos pairs at frequencies pi * 2^k.

    Column 2k is sin(pi 2^k t) and column 2k + 1 is cos(pi 2^k t); one
    ``np.sin`` and one ``np.cos`` call cover all the (n, ceil(F / 2)) phases.
    """
    t = np.atleast_1d(np.asarray(t, dtype=np.float64))
    freqs = np.pi * 2.0 ** np.arange((n_features + 1) // 2)
    phases = t[:, None] * freqs
    feats = np.empty((t.shape[0], n_features), dtype=np.float64)
    feats[:, 0::2] = np.sin(phases)
    feats[:, 1::2] = np.cos(phases[:, : n_features // 2])
    return feats


# (t, sign of t, n_features) -> read-only embedded row; the sign keeps -0.0
# apart from 0.0, whose sines differ in sign
_TIME_ROWS: dict = {}
_TIME_ROWS_MAX = 4096


def _time_row(t, n_features: int) -> np.ndarray:
    """``time_embedding(t, n_features)`` of a scalar t, embedded once per process."""
    t = float(t)
    key = (t, math.copysign(1.0, t), n_features)
    row = _TIME_ROWS.get(key)
    if row is None:
        if len(_TIME_ROWS) >= _TIME_ROWS_MAX:
            _TIME_ROWS.clear()  # a caller that never repeats a time
        row = time_embedding(t, n_features)
        row.flags.writeable = False
        _TIME_ROWS[key] = row
    return row


def layer_views(cfg: NetConfig, flat: np.ndarray):
    """(weights, biases): each layer's W_l and b_l as views into ``flat``.

    The one statement of the parameter layout: W_l (out x in) row-major,
    then b_l, layer by layer, the order the checkpoint stores.  ``flat``
    holds ``cfg.n_params`` entries.
    """
    weights, biases, off = [], [], 0
    w = cfg.widths
    for din, dout in zip(w[:-1], w[1:]):
        weights.append(flat[off : off + dout * din].reshape(dout, din))
        off += dout * din
        biases.append(flat[off : off + dout])
        off += dout
    return weights, biases


class GradientTape:
    """Recorded activations for one forward pass; it may be pulled back once."""

    def __init__(self, vf: "VelocityField", layer_inputs, derivs):
        self._vf = vf
        self._layer_inputs = layer_inputs  # input to each linear layer, (n, in_l)
        self._derivs = derivs  # activation derivative of each hidden layer
        self._used = False

    def backward(self, cotangent: np.ndarray):
        """Propagate an output cotangent; returns (param_grad, input_grad).

        ``param_grad`` is one flat vector in the layout of the network's
        ``params``, each layer's (dW, db) summed over the batch in ascending
        sample order; ``input_grad`` is w^T dv/dx per sample, restricted to
        the state slice of the input.
        """
        grad = np.empty(self._vf.n_params)
        return grad, self._pull(cotangent, layer_views(self._vf.cfg, grad))

    def input_grad(self, cotangent: np.ndarray) -> np.ndarray:
        """``backward``'s input_grad alone: no parameter gradient is formed."""
        return self._pull(cotangent, None)

    def _pull(self, cotangent, grads):
        """Input gradient of the cotangent; fills the views ``grads`` unless None."""
        if self._used:
            raise RuntimeError("GradientTape pulled back twice")
        self._used = True
        vf = self._vf
        g = np.atleast_2d(np.asarray(cotangent, dtype=np.float64))
        if g.shape[1] != vf.cfg.state_dim:
            raise ShapeError(
                f"cotangent dim {g.shape[1]} != state_dim {vf.cfg.state_dim}"
            )
        for l in range(len(vf.weights) - 1, -1, -1):
            if grads is not None:
                # copied in: matmul and sum with out= into the views run slower
                grads[0][l][...] = g.T @ self._layer_inputs[l]
                grads[1][l][...] = g.sum(axis=0)
            # layer 0 multiplies by all of W_0 and slices afterwards: the
            # product with W_0's state columns alone has other bits
            g = g @ vf.weights[l]
            if l > 0:
                g *= self._derivs[l - 1]
        return g[:, : vf.cfg.state_dim]


class VelocityField:
    """MLP velocity field v(x, t) over one float64 parameter vector.

    ``params`` holds every parameter in the ``layer_views`` layout, and
    ``weights[l]`` and ``biases[l]`` are read-only views into it.
    """

    def __init__(self, cfg: NetConfig, params):
        self.cfg = cfg
        self.set_params_flat(params)

    @classmethod
    def init(cls, cfg: NetConfig, seed: int = 0) -> "VelocityField":
        rng = np.random.default_rng(seed)
        params = np.zeros(cfg.n_params)  # biases start at zero
        for w in layer_views(cfg, params)[0]:
            w[...] = rng.normal(0.0, np.sqrt(1.0 / w.shape[1]), size=w.shape)
        return cls(cfg, params)

    # -- parameter plumbing ------------------------------------------------

    def copy(self) -> "VelocityField":
        return VelocityField(self.cfg, self.params.copy())

    def params_flat(self) -> np.ndarray:
        """A copy of ``params``."""
        return self.params.copy()

    def set_params_flat(self, flat: np.ndarray) -> None:
        """Adopt ``flat`` as ``params``; a contiguous float64 array is not copied."""
        flat = np.ascontiguousarray(flat, dtype=np.float64)
        if flat.shape != (self.cfg.n_params,):
            raise ShapeError(f"expected {self.cfg.n_params} params, got {flat.shape}")
        if not np.all(np.isfinite(flat)):
            raise NonFiniteError("non-finite parameter values")
        self.params = flat
        frozen = flat.view()
        frozen.flags.writeable = False
        self.weights, self.biases = layer_views(self.cfg, frozen)
        # (row count of the last call, its bias tiles or None); reset at
        # every adoption, since a caller may have changed ``flat`` in place
        # before passing it again
        self._tiles = (None, None)

    @property
    def state_dim(self) -> int:
        return self.cfg.state_dim

    @property
    def n_params(self) -> int:
        return self.params.size

    # -- forward / derivatives ----------------------------------------------

    def _features(self, x, t):
        x = np.asarray(x, dtype=np.float64)
        squeeze = x.ndim == 1
        x2 = np.atleast_2d(x)
        if x2.shape[1] != self.cfg.state_dim:
            raise ShapeError(
                f"state dim {x2.shape[1]} != configured {self.cfg.state_dim}"
            )
        sd, nf = self.cfg.state_dim, self.cfg.time_features
        feats = np.empty((x2.shape[0], sd + nf))
        feats[:, :sd] = x2
        if nf > 0:
            # one row per scalar time, copied to every row of the batch
            feats[:, sd:] = _time_row(t, nf) if np.ndim(t) == 0 else time_embedding(t, nf)
        return feats, squeeze

    def _tile_biases(self, m):
        """Read-only copies of each layer's bias, tiled to m rows."""
        tiles = [np.ascontiguousarray(np.broadcast_to(b, (m, b.size)))
                 for b in self.biases]
        for tile in tiles:
            tile.flags.writeable = False
        return tiles

    def _bias_addends(self, m):
        """What each layer's bias add reads for an m-row call: the bias
        rows, or from the second call at m <= BIAS_TILE_ROWS their tiles."""
        if m > BIAS_TILE_ROWS:
            return self.biases
        rows, tiles = self._tiles  # read once: another thread may replace it whole
        if rows != m:
            self._tiles = (m, None)
            return self.biases
        if tiles is None:
            tiles = self._tile_biases(m)
            self._tiles = (m, tiles)
        return tiles

    def _run(self, feats, taped):
        """Output, layer inputs and, if taped, activation derivatives."""
        act, act_with_prime = ACTIVATIONS[self.cfg.activation]
        layer_inputs, derivs = [], []
        h = feats
        last = len(self.weights) - 1
        biases = self._bias_addends(feats.shape[0])
        for l, (w, b) in enumerate(zip(self.weights, biases)):
            layer_inputs.append(h)
            z = h @ w.T
            z += b
            if l == last:
                h = z
            elif taped:
                h, d = act_with_prime(z)
                derivs.append(d)
            else:
                h = act(z)
        return h, layer_inputs, derivs

    def forward(self, x, t) -> np.ndarray:
        feats, squeeze = self._features(x, t)
        out, _, _ = self._run(feats, taped=False)
        return out[0] if squeeze else out

    def forward_tape(self, x, t):
        feats, squeeze = self._features(x, t)
        out, layer_inputs, derivs = self._run(feats, taped=True)
        tape = GradientTape(self, layer_inputs, derivs)
        return (out[0] if squeeze else out), tape

    def input_vjp(self, x, t, w):
        """(v, w^T (dv/dx)) at (x, t); batched over leading axis.

        ``v`` has the bits of ``forward(x, t)``.
        """
        w = np.asarray(w, dtype=np.float64)
        squeeze = w.ndim == 1
        v, tape = self.forward_tape(x, t)
        input_grad = tape.input_grad(np.atleast_2d(w))
        return v, (input_grad[0] if squeeze else input_grad)
