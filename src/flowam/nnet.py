"""Minimal feed-forward velocity network with hand-rolled reverse-mode diff.

The network maps (state, time) to a velocity of the same dimension as the
state.  Every entry point takes one form: states of shape (m, dim) and a
time that is a scalar or an (m,) array; a tape is pulled back by an (m, dim)
cotangent.  Any other shape raises ``ShapeError``.  ``GradientTape.backward``
is the one pull back.  It returns w^T (dv/dx), the contraction the lean
adjoint recursion consumes at every step (``input_vjp`` is a taped forward
followed by it and also returns the velocity, which the adjoint keeps for
the matching loss).  Given ``into``, the ``layer_views`` of a caller's flat
sum, it also adds each layer's parameter gradient into that sum: every
loss, and pretraining, forms its gradient so, from ``np.zeros(n_params)``.
A tape pulls back with the weights of the parameter version that taped it,
even after ``set_params_flat`` adopts another array.

``forward_tape`` computes each hidden layer's activation derivative in the
forward pass, from the same intermediates as the activation (the sigmoid
for SiLU, tanh itself for tanh), and stores it on the tape, so ``backward``
only multiplies.  Plain ``forward`` computes no derivative.  The
activations, the bias add and the backward multiply work in place on arrays
they have just allocated, never on an argument.  A scalar t is embedded
once per process: its read-only row is kept in ``_time_row``'s
``functools.lru_cache`` (one row per grid time of a run, at most 4,096
rows) and copied into every row of the feature matrix.  An array t, as
pretraining passes, is embedded at every call.

A call of m <= BIAS_TILE_ROWS rows adds each layer's bias from a read-only
copy tiled to m rows: numpy adds two arrays of one shape about twice as
fast as it broadcasts a row, and each element gets the same single add.
A parameter version's first call at m rows builds the tiles, and the field
keeps them until ``set_params_flat`` adopts parameters again or a call
comes at another row count, so a fine-tuning iteration tiles theta once
and pretraining at a batch of at most the bound tiles once per iteration.
Above the bound, tiles measured no faster.

``set_params_flat`` also copies the input and hidden layers' W_l^T into
read-only C-contiguous arrays, and the forward multiplies h @ W_l^T by
them: OpenBLAS's NN product beats its NT product against the transposed
view (at 64 rows, 10-13 us against 14-21 us per 64x64 layer).  Where the
two give the same bytes depends on both widths (OpenBLAS 0.3.31, one
thread): for inputs at most 16 wide they differ only at one row; for
inputs at least 32 wide they differ at up to about 150, 75, 37, 18 and 9
rows for outputs 8, 16, 32, 64 and 128 wide.  2- and 3-wide outputs are
the exception: of 16- to 28-wide inputs they differ at most row counts up
to 1,096, of wider inputs from about 400 (3 wide) and 600 (2 wide) rows
up.  The default layers, 10 -> 64 and 64 -> 64, agree from 19 rows up.
The output layer, state_dim wide, is multiplied by the view: 2 wide, its
NN product was no faster at 64 rows and rounds differently at
evaluation's 1,000-row sampler blocks.  The pull back multiplies by W_l
itself and forms the parameter gradient as g^T h: both already are the
faster forms.

Everything is float64 numpy.  No general-purpose autodiff: the architecture
is a fixed MLP over [state, sinusoidal time features].
"""

from __future__ import annotations

import functools
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
    """Network architecture; construction checks every field, its type
    against its annotation first."""

    state_dim: int
    hidden: tuple = (64, 64, 64)
    activation: str = "silu"
    time_features: int = 8

    def __post_init__(self):
        ValidationError.check(ValidationError.wrong_types(self))
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
        """The inverse of ``to_dict``; a count that is a bool or a float is a
        ``ValidationError`` (a ``ValueError`` for ``n_cond``)."""
        if type(d["n_cond"]) is not int:
            raise ValueError(f"n_cond {d['n_cond']!r} is not an integer")
        if d["n_cond"] != 0:
            raise ConfigError(f"conditional networks (n_cond = {d['n_cond']}) "
                              "are not supported")
        return cls(
            state_dim=d["state_dim"],
            hidden=tuple(d["hidden"]),
            activation=str(d["activation"]),
            time_features=d["time_features"],
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


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@functools.lru_cache(maxsize=4096)
def _time_row(t: float, sign: float, n_features: int) -> np.ndarray:
    """Read-only ``time_embedding(t, n_features)`` of a scalar t; ``sign``,
    math.copysign(1.0, t), keeps -0.0 apart from 0.0, whose sines differ."""
    return _read_only(time_embedding(t, n_features))


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


def param_name(cfg: NetConfig, i: int) -> str:
    """Where flat entry i sits in the ``layer_views`` layout: "W_l[r, c]" or "b_l[j]"."""
    weights, biases = layer_views(cfg, np.arange(cfg.n_params))
    for l, (w, b) in enumerate(zip(weights, biases)):
        for name, a in (("W", w), ("b", b)):
            hit = np.argwhere(a == i)
            if hit.size:
                return f"{name}_{l}[{', '.join(str(k) for k in hit[0])}]"
    raise IndexError(f"no entry {i} among {cfg.n_params} params")


class GradientTape:
    """One forward pass's activations and the read-only ``vf.weights`` views
    of the version that taped it, not the field; a pull back reads only
    them, and sees an in-place edit of the adopted array."""

    def __init__(self, vf: "VelocityField", layer_inputs, derivs):
        self._weights = vf.weights
        self._layer_inputs = layer_inputs  # input to each linear layer, (n, in_l)
        self._derivs = derivs  # activation derivative of each hidden layer

    def backward(self, cotangent: np.ndarray, into=None) -> np.ndarray:
        """Pull an (m, dim) output cotangent w back; returns w^T dv/dx per
        sample, restricted to the state slice of the input.

        Given ``into``, the ``layer_views`` of a caller's flat gradient sum,
        each layer's (dW, db), summed over the batch in ascending sample
        order, is also added into that sum: a loss over many tapes sums
        their gradients in one vector.  Without it no parameter gradient
        is formed.
        """
        weights = self._weights
        g = np.asarray(cotangent, dtype=np.float64)
        shape = (self._layer_inputs[0].shape[0], weights[-1].shape[0])
        if g.shape != shape:
            raise ShapeError(f"cotangent of shape {g.shape} != forward output {shape}")
        for l in range(len(weights) - 1, -1, -1):
            if into is not None:
                into[0][l] += g.T @ self._layer_inputs[l]
                into[1][l] += g.sum(axis=0)
            # layer 0 multiplies by all of W_0 and slices afterwards: the
            # product with W_0's state columns alone has other bits
            g = g @ weights[l]
            if l > 0:
                g *= self._derivs[l - 1]
        return g[:, : shape[1]]


class VelocityField:
    """MLP velocity field v(x, t) over one float64 parameter vector.

    ``params`` holds every parameter in the ``layer_views`` layout, and
    ``weights[l]`` and ``biases[l]`` are read-only views into it.
    """

    def __init__(self, cfg: NetConfig, params):
        self.cfg = cfg
        self._act, self._act_with_prime = ACTIVATIONS[cfg.activation]
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
        self.weights, self.biases = layer_views(self.cfg, _read_only(flat.view()))
        # what the forward multiplies each layer's input by: C-contiguous copies
        # of W_l^T for the input and hidden layers, the output layer's view
        *inner, out = self.weights
        self._rhs = [*(_read_only(np.ascontiguousarray(w.T)) for w in inner), out.T]
        # (row count, bias tiles), reset at every adoption: a caller may
        # have changed ``flat`` in place before passing it again
        self._tiles = (None, None)

    @property
    def state_dim(self) -> int:
        return self.cfg.state_dim

    @property
    def n_params(self) -> int:
        return self.params.size

    # -- forward / derivatives ----------------------------------------------

    def _features(self, x, t):
        sd, nf = self.cfg.state_dim, self.cfg.time_features
        x = ShapeError.rows(x, sd)
        m = x.shape[0]
        # float covers numpy's float64 scalars, the samplers' grid times
        scalar = isinstance(t, float) or np.shape(t) == ()
        if not scalar and np.shape(t) != (m,):
            raise ShapeError(f"time of shape {np.shape(t)} is not () or ({m},)")
        feats = np.empty((m, sd + nf))
        feats[:, :sd] = x
        if nf > 0:
            # one row per scalar time, copied to every row of the batch
            feats[:, sd:] = (_time_row(float(t), math.copysign(1.0, t), nf) if scalar
                             else time_embedding(t, nf))
        return feats

    def _tile_biases(self, m):
        """Read-only copies of each layer's bias, tiled to m rows."""
        return [_read_only(np.ascontiguousarray(np.broadcast_to(b, (m, b.size))))
                for b in self.biases]

    def _bias_addends(self, m):
        """The biases an m-row call adds, tiled to m rows if m <= BIAS_TILE_ROWS."""
        if m > BIAS_TILE_ROWS:
            return self.biases
        rows, tiles = self._tiles  # read once: another thread may replace it whole
        if rows != m:
            tiles = self._tile_biases(m)
            self._tiles = (m, tiles)
        return tiles

    def forward(self, x, t) -> np.ndarray:
        h = self._features(x, t)
        last = len(self._rhs) - 1
        for l, (rhs, b) in enumerate(zip(self._rhs, self._bias_addends(h.shape[0]))):
            z = h @ rhs
            z += b
            h = z if l == last else self._act(z)
        return h

    def forward_tape(self, x, t):
        """(v, tape): the tape keeps each layer's input and each hidden
        activation's derivative."""
        h = self._features(x, t)
        layer_inputs, derivs = [], []
        last = len(self._rhs) - 1
        for l, (rhs, b) in enumerate(zip(self._rhs, self._bias_addends(h.shape[0]))):
            layer_inputs.append(h)
            z = h @ rhs
            z += b
            if l == last:
                h = z
            else:
                h, d = self._act_with_prime(z)
                derivs.append(d)
        return h, GradientTape(self, layer_inputs, derivs)

    def input_vjp(self, x, t, w):
        """(v, w^T (dv/dx)) at (x, t); ``v`` has the bits of ``forward(x, t)``."""
        v, tape = self.forward_tape(x, t)
        return v, tape.backward(w)
