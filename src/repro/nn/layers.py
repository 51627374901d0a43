"""Neural-network layers with forward *and* backward passes in pure numpy.

The verification pipeline only needs piecewise-linear layers (``Dense``,
``ReLU``, ``LeakyReLU``, ``Flatten``); the vehicle perception substrate also
uses ``Conv2D`` / ``AvgPool2D`` for its frozen feature extractor, and smooth
activations (``Sigmoid``, ``Tanh``) are provided for completeness (they are
supported by the box/zonotope domains and the Lipschitz estimator, but not by
the exact MILP encodings, which require piecewise linearity).

Conventions
-----------
* Vectors flow as rows: a batch is ``(N, d)``; a single sample ``(d,)`` is
  also accepted everywhere and returns an unbatched result.
* ``Dense`` stores ``weight`` with shape ``(out_dim, in_dim)`` and computes
  ``y = x @ weight.T + bias`` -- the textbook ``W x + b`` orientation used in
  the verification literature and in the paper's Equation 2.
* Every layer implements ``forward`` and ``backward``; ``backward`` consumes
  the cache returned by ``forward(..., return_cache=True)`` and produces the
  gradient w.r.t. the input plus parameter gradients (for trainable layers).
"""

from __future__ import annotations

import abc
from typing import Dict, Optional, Tuple

import numpy as np

from repro.errors import LayerError, ShapeError

__all__ = [
    "Layer",
    "Dense",
    "ReLU",
    "LeakyReLU",
    "Sigmoid",
    "Tanh",
    "Flatten",
    "Conv2D",
    "AvgPool2D",
    "ACTIVATION_LAYERS",
    "PIECEWISE_LINEAR_LAYERS",
]


def _as_batch(x: np.ndarray, feature_ndim: int = 1) -> Tuple[np.ndarray, bool]:
    """Promote an unbatched sample to a singleton batch.

    Returns the (possibly reshaped) array and whether the input was batched.
    ``feature_ndim`` is the number of trailing dimensions that make up one
    sample (1 for vectors, 3 for ``(C, H, W)`` images).
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == feature_ndim:
        return x[np.newaxis, ...], False
    if x.ndim == feature_ndim + 1:
        return x, True
    raise ShapeError(
        f"expected array with {feature_ndim} or {feature_ndim + 1} dims, "
        f"got shape {x.shape}"
    )


class Layer(abc.ABC):
    """Abstract base class for all layers."""

    #: Number of trailing dims of one input sample (1 = vector, 3 = image).
    input_feature_ndim: int = 1

    @abc.abstractmethod
    def forward(self, x: np.ndarray, return_cache: bool = False):
        """Apply the layer.

        With ``return_cache=True`` returns ``(y, cache)`` where ``cache`` is
        whatever :meth:`backward` needs; otherwise returns ``y`` alone.
        """

    @abc.abstractmethod
    def backward(self, grad_out: np.ndarray, cache) -> Tuple[np.ndarray, Dict[str, np.ndarray]]:
        """Back-propagate.

        Returns ``(grad_in, param_grads)`` where ``param_grads`` maps
        parameter names (e.g. ``"weight"``) to gradients; non-trainable
        layers return an empty dict.
        """

    def out_dim(self, in_dim: int) -> int:
        """Output dimensionality for a vector layer given ``in_dim``.

        Image layers override :meth:`out_shape` instead and raise here.
        """
        raise LayerError(f"{type(self).__name__} does not operate on flat vectors")

    @property
    def trainable_params(self) -> Dict[str, np.ndarray]:
        """Mutable view of this layer's trainable parameters (may be empty)."""
        return {}

    # --- serialization hooks -------------------------------------------------
    def config(self) -> Dict:
        """JSON-serializable constructor arguments (arrays excluded)."""
        return {}

    def arrays(self) -> Dict[str, np.ndarray]:
        """Named arrays to persist alongside :meth:`config`."""
        return {}

    def copy(self) -> "Layer":
        """Deep copy (parameters are copied, not shared)."""
        cfg = self.config()
        arrs = {k: v.copy() for k, v in self.arrays().items()}
        return type(self)._from_parts(cfg, arrs)

    @classmethod
    def _from_parts(cls, config: Dict, arrays: Dict[str, np.ndarray]) -> "Layer":
        """Rebuild from :meth:`config` and :meth:`arrays`.  The arrays go
        to the constructor, which checks their shapes -- a layer with
        weights never draws (and discards) random ones here."""
        return cls(**config, **arrays)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        cfg = ", ".join(f"{k}={v}" for k, v in self.config().items())
        return f"{type(self).__name__}({cfg})"


class Dense(Layer):
    """Affine layer ``y = W x + b`` with ``W`` of shape ``(out_dim, in_dim)``."""

    def __init__(self, in_dim: int, out_dim: int,
                 weight: Optional[np.ndarray] = None,
                 bias: Optional[np.ndarray] = None,
                 rng: Optional[np.random.Generator] = None):
        if in_dim <= 0 or out_dim <= 0:
            raise LayerError(f"Dense dims must be positive, got ({in_dim}, {out_dim})")
        self.in_dim = int(in_dim)
        self.out_dim_ = int(out_dim)
        if weight is None:
            rng = rng or np.random.default_rng()
            # He initialisation -- appropriate for the ReLU nets we train.
            scale = np.sqrt(2.0 / in_dim)
            weight = rng.normal(0.0, scale, size=(out_dim, in_dim))
        weight = np.asarray(weight, dtype=np.float64)
        if weight.shape != (out_dim, in_dim):
            raise ShapeError(
                f"Dense weight must have shape {(out_dim, in_dim)}, got {weight.shape}"
            )
        if bias is None:
            bias = np.zeros(out_dim)
        bias = np.asarray(bias, dtype=np.float64)
        if bias.shape != (out_dim,):
            raise ShapeError(f"Dense bias must have shape {(out_dim,)}, got {bias.shape}")
        self.weight = weight
        self.bias = bias

    def forward(self, x, return_cache=False):
        xb, batched = _as_batch(x)
        if xb.shape[1] != self.in_dim:
            raise ShapeError(
                f"Dense expects inputs of dim {self.in_dim}, got {xb.shape[1]}"
            )
        yb = xb @ self.weight.T + self.bias
        y = yb if batched else yb[0]
        if return_cache:
            return y, {"x": xb, "batched": batched}
        return y

    def backward(self, grad_out, cache):
        gb, _ = _as_batch(grad_out)
        xb = cache["x"]
        grad_w = gb.T @ xb
        grad_b = gb.sum(axis=0)
        grad_in = gb @ self.weight
        if not cache["batched"]:
            grad_in = grad_in[0]
        return grad_in, {"weight": grad_w, "bias": grad_b}

    def out_dim(self, in_dim: int) -> int:
        if in_dim != self.in_dim:
            raise ShapeError(f"Dense expects in_dim {self.in_dim}, got {in_dim}")
        return self.out_dim_

    @property
    def trainable_params(self):
        return {"weight": self.weight, "bias": self.bias}

    def config(self):
        return {"in_dim": self.in_dim, "out_dim": self.out_dim_}

    def arrays(self):
        return {"weight": self.weight, "bias": self.bias}


class ReLU(Layer):
    """Rectified linear unit ``y = max(x, 0)`` (elementwise, shape preserving)."""

    def forward(self, x, return_cache=False):
        x = np.asarray(x, dtype=np.float64)
        y = np.maximum(x, 0.0)
        if return_cache:
            return y, {"mask": x > 0.0}
        return y

    def backward(self, grad_out, cache):
        return np.asarray(grad_out) * cache["mask"], {}

    def out_dim(self, in_dim: int) -> int:
        return in_dim


class LeakyReLU(Layer):
    """Leaky ReLU ``y = x if x > 0 else alpha * x`` with ``0 <= alpha < 1``."""

    def __init__(self, alpha: float = 0.01):
        alpha = float(alpha)
        if not 0.0 <= alpha < 1.0:
            raise LayerError(f"LeakyReLU alpha must be in [0, 1), got {alpha}")
        self.alpha = alpha

    def forward(self, x, return_cache=False):
        x = np.asarray(x, dtype=np.float64)
        y = np.where(x > 0.0, x, self.alpha * x)
        if return_cache:
            return y, {"mask": x > 0.0}
        return y

    def backward(self, grad_out, cache):
        g = np.asarray(grad_out)
        return np.where(cache["mask"], g, self.alpha * g), {}

    def out_dim(self, in_dim: int) -> int:
        return in_dim

    def config(self):
        return {"alpha": self.alpha}


class Sigmoid(Layer):
    """Logistic sigmoid ``y = 1 / (1 + exp(-x))``."""

    def forward(self, x, return_cache=False):
        x = np.asarray(x, dtype=np.float64)
        y = np.where(x >= 0, 1.0 / (1.0 + np.exp(-np.abs(x))),
                     np.exp(-np.abs(x)) / (1.0 + np.exp(-np.abs(x))))
        if return_cache:
            return y, {"y": y}
        return y

    def backward(self, grad_out, cache):
        y = cache["y"]
        return np.asarray(grad_out) * y * (1.0 - y), {}

    def out_dim(self, in_dim: int) -> int:
        return in_dim


class Tanh(Layer):
    """Hyperbolic tangent activation."""

    def forward(self, x, return_cache=False):
        y = np.tanh(np.asarray(x, dtype=np.float64))
        if return_cache:
            return y, {"y": y}
        return y

    def backward(self, grad_out, cache):
        y = cache["y"]
        return np.asarray(grad_out) * (1.0 - y * y), {}

    def out_dim(self, in_dim: int) -> int:
        return in_dim


class Flatten(Layer):
    """Flatten ``(C, H, W)`` image samples into vectors of length ``C*H*W``.

    Applied to already-flat vectors it is the identity, which lets the
    *verified* sub-network of Fig. 4 (whose input is the Flatten output)
    keep the Flatten layer at its head without special-casing.
    """

    input_feature_ndim = 3

    def forward(self, x, return_cache=False):
        x = np.asarray(x, dtype=np.float64)
        if x.ndim <= 1:
            y, shape = x, x.shape
        elif x.ndim == 2:
            # Already a batch of vectors -> identity.
            y, shape = x, x.shape
        elif x.ndim == 3:
            y, shape = x.reshape(-1), x.shape
        elif x.ndim == 4:
            y, shape = x.reshape(x.shape[0], -1), x.shape
        else:
            raise ShapeError(f"Flatten cannot handle ndim {x.ndim}")
        if return_cache:
            return y, {"shape": shape}
        return y

    def backward(self, grad_out, cache):
        return np.asarray(grad_out).reshape(cache["shape"]), {}

    def out_dim(self, in_dim: int) -> int:
        return in_dim


class Conv2D(Layer):
    """2-D convolution (``valid`` padding) over ``(C, H, W)`` samples.

    ``weight`` has shape ``(out_channels, in_channels, kh, kw)``.  Used by the
    frozen vehicle feature extractor; correct but unoptimised (einsum over
    extracted patches), which is fine for the small frame sizes we render.
    """

    input_feature_ndim = 3

    def __init__(self, in_channels: int, out_channels: int, kernel_size: int,
                 stride: int = 1,
                 weight: Optional[np.ndarray] = None,
                 bias: Optional[np.ndarray] = None,
                 rng: Optional[np.random.Generator] = None):
        if min(in_channels, out_channels, kernel_size, stride) <= 0:
            raise LayerError("Conv2D dimensions and stride must be positive")
        self.in_channels = int(in_channels)
        self.out_channels = int(out_channels)
        self.kernel_size = int(kernel_size)
        self.stride = int(stride)
        shape = (out_channels, in_channels, kernel_size, kernel_size)
        if weight is None:
            rng = rng or np.random.default_rng()
            fan_in = in_channels * kernel_size * kernel_size
            weight = rng.normal(0.0, np.sqrt(2.0 / fan_in), size=shape)
        weight = np.asarray(weight, dtype=np.float64)
        if weight.shape != shape:
            raise ShapeError(f"Conv2D weight must have shape {shape}, got {weight.shape}")
        if bias is None:
            bias = np.zeros(out_channels)
        bias = np.asarray(bias, dtype=np.float64)
        if bias.shape != (out_channels,):
            raise ShapeError(f"Conv2D bias must have shape ({out_channels},)")
        self.weight = weight
        self.bias = bias

    def _patches(self, xb: np.ndarray) -> np.ndarray:
        """Extract sliding patches -> ``(N, H', W', C, kh, kw)``."""
        n, c, h, w = xb.shape
        k, s = self.kernel_size, self.stride
        if h < k or w < k:
            raise ShapeError(f"input {h}x{w} smaller than kernel {k}x{k}")
        oh = (h - k) // s + 1
        ow = (w - k) // s + 1
        sn, sc, sh, sw = xb.strides
        shape = (n, oh, ow, c, k, k)
        strides = (sn, sh * s, sw * s, sc, sh, sw)
        return np.lib.stride_tricks.as_strided(xb, shape=shape, strides=strides)

    def forward(self, x, return_cache=False):
        xb, batched = _as_batch(x, feature_ndim=3)
        if xb.shape[1] != self.in_channels:
            raise ShapeError(
                f"Conv2D expects {self.in_channels} channels, got {xb.shape[1]}"
            )
        patches = self._patches(xb)
        yb = np.einsum("nhwckl,ockl->nohw", patches, self.weight) + self.bias[:, None, None]
        y = yb if batched else yb[0]
        if return_cache:
            return y, {"x": xb, "batched": batched}
        return y

    def backward(self, grad_out, cache):
        # The extractor is frozen in every experiment; training through
        # convolutions is intentionally unsupported to keep the substrate
        # honest about what the paper fine-tunes (the dense head only).
        raise LayerError("Conv2D is a frozen feature-extractor layer; no backward pass")

    def out_shape(self, in_shape: Tuple[int, int, int]) -> Tuple[int, int, int]:
        c, h, w = in_shape
        if c != self.in_channels:
            raise ShapeError(f"Conv2D expects {self.in_channels} channels, got {c}")
        k, s = self.kernel_size, self.stride
        return (self.out_channels, (h - k) // s + 1, (w - k) // s + 1)

    def config(self):
        return {
            "in_channels": self.in_channels,
            "out_channels": self.out_channels,
            "kernel_size": self.kernel_size,
            "stride": self.stride,
        }

    def arrays(self):
        return {"weight": self.weight, "bias": self.bias}


class AvgPool2D(Layer):
    """Average pooling with square window and matching stride."""

    input_feature_ndim = 3

    def __init__(self, pool_size: int):
        if pool_size <= 0:
            raise LayerError("AvgPool2D pool_size must be positive")
        self.pool_size = int(pool_size)

    def forward(self, x, return_cache=False):
        xb, batched = _as_batch(x, feature_ndim=3)
        n, c, h, w = xb.shape
        p = self.pool_size
        oh, ow = h // p, w // p
        if oh == 0 or ow == 0:
            raise ShapeError(f"input {h}x{w} smaller than pool {p}x{p}")
        trimmed = xb[:, :, : oh * p, : ow * p]
        yb = trimmed.reshape(n, c, oh, p, ow, p).mean(axis=(3, 5))
        y = yb if batched else yb[0]
        if return_cache:
            return y, {"shape": xb.shape, "batched": batched}
        return y

    def backward(self, grad_out, cache):
        raise LayerError("AvgPool2D is a frozen feature-extractor layer; no backward pass")

    def out_shape(self, in_shape: Tuple[int, int, int]) -> Tuple[int, int, int]:
        c, h, w = in_shape
        p = self.pool_size
        return (c, h // p, w // p)

    def config(self):
        return {"pool_size": self.pool_size}


#: Activation layer classes (elementwise, shape preserving).
ACTIVATION_LAYERS = (ReLU, LeakyReLU, Sigmoid, Tanh)

#: Layers the exact MILP/BaB encodings support.
PIECEWISE_LINEAR_LAYERS = (Dense, ReLU, LeakyReLU, Flatten)
