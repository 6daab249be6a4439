"""Minimal reverse-mode automatic differentiation over numpy arrays.

A Tensor wraps an ndarray and remembers how it was produced; backward() walks
the tape in reverse topological order. Only the operations the sequence model
needs are provided, several of them fused with hand-derived gradients
(layer_norm, gelu, softmax, cross_entropy) — the finite-difference test suite
checks every one of them. A `no_grad` context suppresses tape construction
for inference paths.
"""

from __future__ import annotations

import contextlib

import numpy as np

_grad_enabled = True


@contextlib.contextmanager
def no_grad():
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False, parents=(), backward=None):
        self.data = np.asarray(data)
        self.grad = None
        self.requires_grad = requires_grad and _grad_enabled
        self._parents = parents if self.requires_grad else ()
        self._backward = backward if self.requires_grad else None

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def accumulate(self, g: np.ndarray) -> None:
        if self.grad is None:
            # copy: g may be a view (reshape/transpose backward) shared elsewhere
            self.grad = np.array(g, dtype=self.data.dtype)
        else:
            self.grad += g

    def zero_grad(self) -> None:
        self.grad = None

    def backward(self) -> None:
        """Accumulate gradients of this (scalar) tensor w.r.t. every parent."""
        if self.data.ndim != 0 and self.data.size != 1:
            raise ValueError("backward() requires a scalar tensor")
        topo: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in seen:
                    stack.append((p, False))
        self.accumulate(np.ones_like(self.data))
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a gradient down to the broadcast-source shape."""
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


def _make(data, parents, backward) -> Tensor:
    requires = _grad_enabled and any(p.requires_grad for p in parents)
    return Tensor(data, requires, tuple(p for p in parents if p.requires_grad), backward)


def add(a: Tensor, b) -> Tensor:
    if not isinstance(b, Tensor):  # constant offset (masks, shifts)
        out_data = a.data + b

        def backward(g):
            a.accumulate(_unbroadcast(g, a.data.shape))

        return _make(out_data, (a,), backward)
    out_data = a.data + b.data

    def backward(g):
        if a.requires_grad:
            a.accumulate(_unbroadcast(g, a.data.shape))
        if b.requires_grad:
            b.accumulate(_unbroadcast(g, b.data.shape))

    return _make(out_data, (a, b), backward)


def mul(a: Tensor, b) -> Tensor:
    if not isinstance(b, Tensor):  # constant scale (1/sqrt(d), dropout mask)
        out_data = a.data * b

        def backward(g):
            a.accumulate(_unbroadcast(g * b, a.data.shape))

        return _make(out_data, (a,), backward)
    out_data = a.data * b.data

    def backward(g):
        if a.requires_grad:
            a.accumulate(_unbroadcast(g * b.data, a.data.shape))
        if b.requires_grad:
            b.accumulate(_unbroadcast(g * a.data, b.data.shape))

    return _make(out_data, (a, b), backward)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    out_data = a.data @ b.data

    def backward(g):
        if a.requires_grad:
            ga = g @ np.swapaxes(b.data, -1, -2)
            a.accumulate(_unbroadcast(ga, a.data.shape))
        if b.requires_grad:
            gb = np.swapaxes(a.data, -1, -2) @ g
            b.accumulate(_unbroadcast(gb, b.data.shape))

    return _make(out_data, (a, b), backward)


def reshape(a: Tensor, shape) -> Tensor:
    out_data = a.data.reshape(shape)

    def backward(g):
        a.accumulate(g.reshape(a.data.shape))

    return _make(out_data, (a,), backward)


def transpose(a: Tensor, axes) -> Tensor:
    out_data = a.data.transpose(axes)
    inverse = np.argsort(axes)

    def backward(g):
        a.accumulate(g.transpose(inverse))

    return _make(out_data, (a,), backward)


def gather_rows(table: Tensor, ids: np.ndarray) -> Tensor:
    """out[..., :] = table[ids]; used for token and positional embeddings."""
    ids = np.asarray(ids)
    out_data = table.data[ids]

    def backward(g):
        gt = np.zeros_like(table.data)
        np.add.at(gt, ids, g)
        table.accumulate(gt)

    return _make(out_data, (table,), backward)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then affine."""
    mu = x.data.mean(axis=-1, keepdims=True)
    var = x.data.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x.data - mu) * inv
    out_data = xhat * gain.data + bias.data

    def backward(g):
        if gain.requires_grad:
            gain.accumulate(_unbroadcast(g * xhat, gain.data.shape))
        if bias.requires_grad:
            bias.accumulate(_unbroadcast(g, bias.data.shape))
        if x.requires_grad:
            gx_hat = g * gain.data
            gx = inv * (
                gx_hat
                - gx_hat.mean(axis=-1, keepdims=True)
                - xhat * (gx_hat * xhat).mean(axis=-1, keepdims=True)
            )
            x.accumulate(gx)

    return _make(out_data, (x, gain, bias), backward)


# Python float, not np.float64: a float64 scalar would promote float32 graphs.
_GELU_C = float(np.sqrt(2.0 / np.pi))


def gelu(x: Tensor) -> Tensor:
    """Tanh-approximation GELU (np.power is slow; use explicit multiplies)."""
    d = x.data
    u = _GELU_C * (d + 0.044715 * d * d * d)
    t = np.tanh(u)
    out_data = 0.5 * d * (1.0 + t)

    def backward(g):
        du = _GELU_C * (1.0 + 0.134145 * d * d)
        x.accumulate(g * (0.5 * (1.0 + t) + 0.5 * d * (1.0 - t * t) * du))

    return _make(out_data, (x,), backward)


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    z = x.data - x.data.max(axis=axis, keepdims=True)
    e = np.exp(z)
    p = e / e.sum(axis=axis, keepdims=True)

    def backward(g):
        x.accumulate(p * (g - (g * p).sum(axis=axis, keepdims=True)))

    return _make(p, (x,), backward)


def cross_entropy(logits: Tensor, targets: np.ndarray, weights: np.ndarray) -> Tensor:
    """Weighted mean negative log-likelihood over the last axis.

    logits: (..., V); targets: integer array of the leading shape; weights:
    same leading shape, 0 excludes a position (padding), total weight
    normalizes the mean.
    """
    targets = np.asarray(targets)
    weights = np.asarray(weights, dtype=logits.data.dtype)
    z = logits.data - logits.data.max(axis=-1, keepdims=True)
    logsumexp = np.log(np.exp(z).sum(axis=-1, keepdims=True))
    logp = z - logsumexp
    picked = np.take_along_axis(logp, targets[..., None], axis=-1)[..., 0]
    total = weights.sum()
    if total <= 0:
        raise ValueError("cross_entropy needs at least one weighted position")
    out_data = -(picked * weights).sum() / total

    def backward(g):
        p = np.exp(logp)
        onehot = np.zeros_like(p)
        np.put_along_axis(onehot, targets[..., None], 1.0, axis=-1)
        logits.accumulate(g * (p - onehot) * (weights[..., None] / total))

    return _make(np.asarray(out_data, dtype=logits.data.dtype), (logits,), backward)
