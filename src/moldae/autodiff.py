"""Minimal reverse-mode automatic differentiation over numpy arrays.

A Tensor wraps an ndarray and remembers how it was produced; backward() walks
the tape in reverse topological order and consumes it as it goes, as PyTorch
does by default (`retain_graph=False`): once a node's backward closure has
run, the node drops its gradient, its parents and the closure, and with it
every array the closure saved. Leaves (parameters) keep their gradients. A
second backward() through a consumed node raises RuntimeError; a new forward
pass builds the graph again. Only the operations the sequence model needs are
provided, several of them fused into one tape node with hand-derived
gradients — the finite-difference test suite checks every one:

- `linear`: (..., d) @ (d, k) + bias as one flat GEMM (one GEMM per
  sequence under `no_grad`, so inference rows are batch-invariant);
- `attention`: multi-head scaled dot-product attention over projected
  (B, L, d) queries/keys/values, from the head split to the head merge,
  additive mask and softmax included;
- `layer_norm`, `gelu` and `cross_entropy`.

An op hands `Tensor.accumulate` the gradient arrays it has just allocated, so
the first gradient of a tensor is adopted rather than copied. No op makes
float64 temporaries in a float32 graph. A `no_grad` context suppresses tape
construction for inference paths.
"""

from __future__ import annotations

import contextlib

import numpy as np

_grad_enabled = True
LAYER_NORM_EPS = 1e-5  # added to the variance in layer_norm


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

    def accumulate(self, g: np.ndarray, owned: bool = False) -> None:
        """Add `g` into this tensor's gradient.

        `owned` says the caller has just allocated `g` and keeps no other
        reference, so the first gradient may adopt it. Anything else — a view
        (transpose backward) or an array handed to two parents (add's
        `g`) — is copied, since a later `+=` would write through it.
        """
        if self.grad is None:
            self.grad = g if owned and g.dtype == self.data.dtype else np.array(g, dtype=self.data.dtype)
        else:
            self.grad += g

    def zero_grad(self) -> None:
        self.grad = None

    def backward(self) -> None:
        """Accumulate gradients of this (scalar) tensor w.r.t. every parent, consuming the graph.

        Nodes run their closures in reverse topological order. Each interior
        node is freed as soon as its closure has run: its `grad`, `_parents`
        and `_backward` are dropped, so the arrays the closure saved go with
        them, and only the leaves (parameters, with no `_backward`) keep a
        `grad`. A consumed node keeps its `data`; a second backward() through
        it raises RuntimeError before any gradient moves.
        """
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
            if node._backward is _consumed:
                _consumed()  # raises before any gradient moves
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in seen:
                    stack.append((p, False))
        self.accumulate(np.ones_like(self.data), owned=True)
        while topo:
            node = topo.pop()
            if node._backward is None:
                continue  # a leaf keeps its gradient
            if node.grad is not None:
                node._backward(node.grad)
            node.grad, node._parents, node._backward = None, (), _consumed


def _consumed(g: np.ndarray | None = None) -> None:
    """The `_backward` of a node that a backward() has freed."""
    raise RuntimeError("backward() through a graph that an earlier backward() consumed; "
                       "run the forward pass again")


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


def add(a: Tensor, b: Tensor) -> Tensor:
    out_data = a.data + b.data

    def backward(g):
        # g reaches both parents: only a reduced (fresh) gradient is owned.
        for t in (a, b):
            if t.requires_grad:
                gt = _unbroadcast(g, t.data.shape)
                t.accumulate(gt, owned=gt is not g)

    return _make(out_data, (a, b), backward)


def mul(a: Tensor, b: np.ndarray) -> Tensor:
    """a * b for a constant array b (dropout's mask) that broadcasts to a's shape."""
    b = np.asarray(b, dtype=a.data.dtype)

    def backward(g):
        a.accumulate(g * b, owned=True)

    return _make(a.data * b, (a,), backward)


def transpose(a: Tensor, axes) -> Tensor:
    out_data = a.data.transpose(axes)
    inverse = np.argsort(axes)

    def backward(g):
        a.accumulate(g.transpose(inverse))

    return _make(out_data, (a,), backward)


def linear(x: Tensor, w: Tensor, b: Tensor | None = None) -> Tensor:
    """x @ w (+ b) for x (..., d) and w (d, k); `w` may be a transposed view (the tied output).

    With the tape on, and for decode steps (B, 1, d), the product is one flat
    GEMM over the leading axes. With the tape off, a (B, L, d) input with L > 1
    is multiplied as a stack: one GEMM per sequence, M = L, the same call as
    that sequence alone, so each row's bits do not depend on the rest of the
    batch (the encoder of `model.embed`).
    """
    if not _grad_enabled and len(x.shape) == 3 and x.shape[1] > 1:
        out_data = x.data @ w.data
    else:
        out_data = (x.data.reshape(-1, x.shape[-1]) @ w.data).reshape(x.shape[:-1] + (w.shape[1],))
    if b is not None:
        out_data += b.data

    def backward(g):
        g = g.reshape(-1, g.shape[-1])
        if x.requires_grad:
            x.accumulate((g @ w.data.T).reshape(x.shape), owned=True)
        if w.requires_grad:
            w.accumulate(x.data.reshape(-1, x.shape[-1]).T @ g, owned=True)
        if b is not None and b.requires_grad:
            b.accumulate(g.sum(axis=0), owned=True)

    parents = (x, w) if b is None else (x, w, b)
    return _make(out_data, parents, backward)


def attention(q: Tensor, k: Tensor, v: Tensor, bias: np.ndarray, n_heads: int) -> Tensor:
    """Multi-head scaled dot-product attention of queries q over keys k / values v.

    q: (B, Lq, d) and k, v: (B, Lk, d), already projected. Splits d into
    `n_heads` heads of d // n_heads, takes softmax(q k^T / sqrt(dh) + bias) v
    per head and merges the heads back into (B, Lq, d). `bias` is an additive
    mask broadcast to the scores (B, n_heads, Lq, Lk). Backward keeps
    the probabilities from the forward pass.
    """
    batch, _, d = q.shape
    dh = d // n_heads

    def split(a: np.ndarray) -> np.ndarray:  # (B, L, d) -> (B, h, L, dh), a view
        return a.reshape(batch, a.shape[1], n_heads, dh).transpose(0, 2, 1, 3)

    def merged_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """a @ b over heads, written straight into the merged (B, L, d) layout."""
        out = np.empty((batch, a.shape[2], d), dtype=a.dtype)
        np.matmul(a, b, out=split(out))
        return out

    qh, kh, vh = split(q.data), split(k.data), split(v.data)
    scale = float(1.0 / np.sqrt(dh))
    p = qh @ kh.swapaxes(-1, -2)
    p *= scale
    p += bias.astype(p.dtype, copy=False)
    p -= p.max(axis=-1, keepdims=True)
    np.exp(p, out=p)
    p /= p.sum(axis=-1, keepdims=True)

    def backward(g):
        gh = split(g)
        if v.requires_grad:
            v.accumulate(merged_matmul(p.swapaxes(-1, -2), gh), owned=True)
        if q.requires_grad or k.requires_grad:
            # Through the context product, the softmax and the scale: d loss / d (q k^T).
            ds = gh @ vh.swapaxes(-1, -2)
            ds -= (ds * p).sum(axis=-1, keepdims=True)
            ds *= p
            ds *= scale
            if q.requires_grad:
                q.accumulate(merged_matmul(ds, kh), owned=True)
            if k.requires_grad:
                # As (q^T ds)^T: ds^T q has the same products, but BLAS may sum them in
                # another order at some shapes, which would move float32 training bits.
                dk = qh.swapaxes(-1, -2) @ ds
                k.accumulate(dk.transpose(0, 3, 1, 2).reshape(batch, dk.shape[3], d), owned=True)

    return _make(merged_matmul(p, vh), (q, k, v), backward)


def gather_rows(table: Tensor, ids: np.ndarray) -> Tensor:
    """out[..., :] = table[ids]; used for token and positional embeddings."""
    ids = np.asarray(ids)
    out_data = table.data[ids]

    def backward(g):
        gt = np.zeros_like(table.data)
        np.add.at(gt, ids, g)
        table.accumulate(gt, owned=True)

    return _make(out_data, (table,), backward)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then affine by (d,) gain and bias."""
    xhat = x.data - x.data.mean(axis=-1, keepdims=True)
    out_data = xhat * xhat
    inv = 1.0 / np.sqrt(out_data.mean(axis=-1, keepdims=True) + LAYER_NORM_EPS)
    xhat *= inv
    np.multiply(xhat, gain.data, out=out_data)
    out_data += bias.data

    def backward(g):
        lead = tuple(range(g.ndim - 1))
        scratch = g * xhat
        if gain.requires_grad:
            gain.accumulate(scratch.sum(axis=lead), owned=True)
        if bias.requires_grad:
            bias.accumulate(g.sum(axis=lead), owned=True)
        if x.requires_grad:
            # gx = inv * (gx_hat - mean(gx_hat) - xhat * mean(gx_hat * xhat)), gx_hat = g * gain
            gx = g * gain.data
            np.multiply(gx, xhat, out=scratch)
            mean_gx_xhat = scratch.mean(axis=-1, keepdims=True)
            gx -= gx.mean(axis=-1, keepdims=True)
            np.multiply(xhat, mean_gx_xhat, out=scratch)
            gx -= scratch
            gx *= inv
            x.accumulate(gx, owned=True)

    return _make(out_data, (x, gain, bias), backward)


# Python float, not np.float64: a float64 scalar would promote float32 graphs.
_GELU_C = float(np.sqrt(2.0 / np.pi))
# Elements per chunk of an elementwise chain: a chunk and its temporaries stay in
# the L2 cache across the chain's passes, where whole (B, L, ff) arrays do not.
_CHUNK = 1 << 16


def _chunks(*arrays: np.ndarray):
    """Matching flat chunks of equal-shape C-contiguous arrays (writes go through)."""
    flat = [a.reshape(-1) for a in arrays]
    for lo in range(0, flat[0].size, _CHUNK):
        yield tuple(f[lo:lo + _CHUNK] for f in flat)


def gelu(x: Tensor) -> Tensor:
    """Tanh-approximation GELU, 0.5 x (1 + t) with t = tanh(c (x + 0.044715 x^3)).

    In-place ufunc passes over cache-sized chunks; cubes are explicit
    multiplies (np.power is slow).
    """
    d = np.ascontiguousarray(x.data)
    t = np.empty(d.shape, dtype=d.dtype)
    out_data = np.empty(d.shape, dtype=d.dtype)
    for dc, tc, oc in _chunks(d, t, out_data):
        np.multiply(dc, 0.044715, out=tc)
        tc *= dc
        tc *= dc
        tc += dc
        tc *= _GELU_C
        np.tanh(tc, out=tc)
        np.multiply(dc, 0.5, out=oc)
        oc *= tc + 1.0

    def backward(g):
        # 0.5 (1 + t) + 0.5 x (1 - t^2) du/dx, with du/dx = c (1 + 0.134145 x^2)
        grad = np.empty(d.shape, dtype=d.dtype)
        for dc, tc, gc, oc in _chunks(d, t, np.ascontiguousarray(g), grad):
            np.multiply(tc, tc, out=oc)
            np.subtract(1.0, oc, out=oc)
            oc *= dc * 0.5
            du = dc * 0.134145
            du *= dc
            du += 1.0
            du *= _GELU_C
            oc *= du
            np.add(tc, 1.0, out=du)
            du *= 0.5
            oc += du
            oc *= gc
        x.accumulate(grad, owned=True)

    return _make(out_data, (x,), backward)


def cross_entropy(logits: Tensor, targets: np.ndarray, weights: np.ndarray) -> Tensor:
    """Weighted mean negative log-likelihood over the last axis.

    logits: (..., V); targets: integer array of the leading shape; weights:
    same leading shape, 0 excludes a position (padding), total weight
    normalizes the mean.
    """
    targets = np.asarray(targets)[..., None]
    weights = np.asarray(weights, dtype=logits.data.dtype)
    z = logits.data - logits.data.max(axis=-1, keepdims=True)
    logsumexp = np.log(np.exp(z).sum(axis=-1, keepdims=True))
    logp = z - logsumexp
    picked = np.take_along_axis(logp, targets, axis=-1)[..., 0]
    total = weights.sum()
    if total <= 0:
        raise ValueError("cross_entropy needs at least one weighted position")
    out_data = -(picked * weights).sum() / total

    def backward(g):
        # (softmax - onehot(targets)) * g * weight / total
        grad = np.exp(logp)
        np.put_along_axis(grad, targets, np.take_along_axis(grad, targets, axis=-1) - 1.0, axis=-1)
        grad *= g
        grad *= (weights / total)[..., None]
        logits.accumulate(grad, owned=True)

    return _make(np.asarray(out_data, dtype=logits.data.dtype), (logits,), backward)
