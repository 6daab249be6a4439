"""Per-op gradient checks against central finite differences (float64)."""

import weakref

import numpy as np
import pytest

from moldae import autodiff as ad
from moldae.autodiff import Tensor

EPS = 1e-6


def fd_check(build, *shapes, seed=0, rtol=1e-6):
    """Compare analytic grads of scalar build(*tensors) to finite differences."""
    rng = np.random.default_rng(seed)
    tensors = [Tensor(rng.normal(size=s), requires_grad=True) for s in shapes]
    out = build(*tensors)
    out.backward()
    for t in tensors:
        flat = t.data.reshape(-1)
        grad = t.grad.reshape(-1)
        for j in range(flat.size):
            orig = flat[j]
            flat[j] = orig + EPS
            up = float(build(*tensors).data.sum())
            flat[j] = orig - EPS
            dn = float(build(*tensors).data.sum())
            flat[j] = orig
            fd = (up - dn) / (2 * EPS)
            assert abs(grad[j] - fd) <= rtol * max(1.0, abs(fd)), (t.shape, j, grad[j], fd)


def total(x):
    """The sum of x's elements as a scalar tape node: each element's gradient is the output's."""

    def backward(g):
        x.accumulate(np.full(x.shape, g, dtype=x.dtype), owned=True)

    return Tensor(x.data.sum(), x.requires_grad, (x,), backward)


def mul(a, b):
    """a * b of two same-shape tensors; the model's `ad.mul` only scales by a constant array."""

    def backward(g):
        if a.requires_grad:
            a.accumulate(g * b.data, owned=True)
        if b.requires_grad:
            b.accumulate(g * a.data, owned=True)

    return Tensor(a.data * b.data, a.requires_grad or b.requires_grad, (a, b), backward)


def test_add_mul_broadcast():
    fd_check(lambda a, b: total(mul(ad.add(a, b), a)), (3, 4), (4,))
    fd_check(lambda a: total(ad.add(a, Tensor(np.array(2.5)))), (2, 3))  # a constant operand gets no gradient
    fd_check(lambda a: total(ad.mul(a, -1.7)), (2, 3))


def test_reshape_transpose():
    fd_check(lambda a: total(ad.transpose(a, (2, 0, 1))), (2, 3, 2))


def test_gather_rows_repeated_indices():
    ids = np.array([0, 2, 2, 1])
    fd_check(lambda t: total(ad.mul(ad.gather_rows(t, ids), 1.5)), (3, 4))


def test_layer_norm():
    fd_check(lambda x, g, b: total(ad.layer_norm(x, g, b)), (3, 5), (5,), (5,))


def test_gelu():
    fd_check(lambda x: total(ad.gelu(x)), (4, 3))


def weighted_total(x, seed=1):
    """Scalar sum of x with fixed random weights, so no output element can hide an error."""
    return total(ad.mul(x, np.random.default_rng(seed).normal(size=x.shape)))


def test_linear():
    fd_check(lambda x, w, b: weighted_total(ad.linear(x, w, b)), (5, 3), (3, 4), (4,))
    fd_check(lambda x, w: weighted_total(ad.linear(x, w)), (5, 3), (3, 4))
    fd_check(lambda x, w, b: weighted_total(ad.linear(x, w, b)), (2, 3, 4), (4, 5), (5,))
    fd_check(lambda x, w: weighted_total(ad.linear(x, w)), (2, 3, 4), (4, 5))


def test_linear_transposed_view_weight():
    """The tied output projection: the weight is a transposed view of an embedding table."""
    fd_check(lambda x, table: weighted_total(ad.linear(x, ad.transpose(table, (1, 0)))), (2, 3, 4), (6, 4))


def _projection(batch, length, seed=0):
    """float32 (B, L, 512) inputs and the feed-forward output weight (512, 128) and bias."""
    rng = np.random.default_rng(seed)
    x, w, b = (rng.normal(size=s).astype(np.float32) for s in [(batch, length, 512), (512, 128), (128,)])
    return x, w, b


def test_linear_without_tape_is_one_gemm_per_sequence():
    """Each row's bits are those of its sequence alone, whatever else is in the batch."""
    x, w, b = _projection(6, 5)
    with ad.no_grad():
        out = ad.linear(Tensor(x), Tensor(w), Tensor(b)).data
    for i in range(len(x)):
        assert np.array_equal(out[i], x[i] @ w + b)


def test_linear_with_tape_is_one_flat_gemm():
    x, w, b = _projection(6, 5)
    out = ad.linear(Tensor(x, requires_grad=True), Tensor(w, requires_grad=True), Tensor(b, requires_grad=True))
    assert np.array_equal(out.data, (x.reshape(-1, 512) @ w + b).reshape(6, 5, 128))


def test_linear_decode_step_is_one_flat_gemm_without_tape():
    """(B, 1, d) decode steps keep the flat GEMM, so sampling bits do not move."""
    x, w, b = _projection(6, 1)
    with ad.no_grad():
        out = ad.linear(Tensor(x), Tensor(w), Tensor(b)).data
    assert np.array_equal(out, (x.reshape(-1, 512) @ w + b).reshape(6, 1, 128))


def test_attention_causal_bias():
    # 3 heads of width 2; queries at positions 1..3 over keys at 0..3 (Lq != Lk).
    bias = np.triu(np.full((3, 4), -1e9), k=2)[None, None]
    fd_check(lambda q, k, v: weighted_total(ad.attention(q, k, v, bias, 3)), (2, 3, 6), (2, 4, 6), (2, 4, 6))


def test_attention_key_padding_bias():
    pad = np.array([[1, 1, 1, 1, 1], [1, 1, 1, 0, 0]], dtype=float)
    bias = (1.0 - pad[:, None, None, :]) * -1e9
    fd_check(lambda q, k, v: weighted_total(ad.attention(q, k, v, bias, 2)), (2, 3, 4), (2, 5, 4), (2, 5, 4))
    # Padded keys get no weight: their values do not reach the output.
    rng = np.random.default_rng(3)
    q, k, v = (Tensor(rng.normal(size=s)) for s in [(2, 3, 4), (2, 5, 4), (2, 5, 4)])
    out = ad.attention(q, k, v, bias, 2).data
    v.data[1, 3:] += 100.0
    assert np.array_equal(ad.attention(q, k, v, bias, 2).data, out)


def test_attention_no_bias():
    """An all-zero bias masks nothing."""
    bias = np.zeros((1, 1, 1, 1))
    fd_check(lambda q, k, v: weighted_total(ad.attention(q, k, v, bias, 1)), (1, 2, 3), (1, 3, 3), (1, 3, 3))


def test_attention_probabilities_sum_to_one():
    """Each query's weights over the keys sum to one: if every value row is c, the output is c."""
    rng = np.random.default_rng(0)
    q, k = Tensor(rng.normal(size=(2, 3, 6)) * 10), Tensor(rng.normal(size=(2, 5, 6)) * 10)
    c = rng.normal(size=6)
    out = ad.attention(q, k, Tensor(np.tile(c, (2, 5, 1))), np.zeros((1, 1, 1, 1)), 3).data
    assert np.allclose(out, np.tile(c, (2, 3, 1)), atol=1e-12)


def _diamond(x1_first):
    """A scalar of x1 and x2 (3, 4): add hands one gradient to both, and x1 also gets x1 * x1's."""
    c = np.random.default_rng(2).normal(size=(3, 4))

    def build(x1, x2):
        terms = [ad.mul(ad.add(x1, x2), c), mul(x1, x1)]
        return total(ad.add(*(terms if x1_first else terms[::-1])))

    return build


@pytest.mark.parametrize("x1_first", [True, False])
def test_shared_gradient_is_not_aliased(x1_first):
    """If x1 and x2 shared add's gradient array, x1's second term's += would leak
    into x2's gradient. Both orders of the final sum, since the order in which
    backward reaches x1's two terms decides whether a shared array shows.
    """
    fd_check(_diamond(x1_first), (3, 4), (3, 4))


def test_aliasing_check_fails_when_accumulate_adopts_every_gradient(monkeypatch):
    """The diamond keeps its power: with an accumulate that ignores `owned`, x1 and
    x2 share add's gradient array, and the gradient check fails in some order."""

    def adopt_every_gradient(self, g, owned=False):
        if self.grad is None:
            self.grad = g if g.dtype == self.data.dtype else np.array(g, dtype=self.data.dtype)
        else:
            self.grad += g

    monkeypatch.setattr(Tensor, "accumulate", adopt_every_gradient)
    failed = []
    for x1_first in (True, False):
        try:
            fd_check(_diamond(x1_first), (3, 4), (3, 4))
        except AssertionError:
            failed.append(x1_first)
    assert failed


def test_cross_entropy_gradient():
    targets = np.array([[1, 0, 2]])
    weights = np.array([[1.0, 1.0, 0.0]])  # one ignored position
    fd_check(lambda x: ad.cross_entropy(x, targets, weights), (1, 3, 4))


def test_cross_entropy_uniform_floor():
    logits = Tensor(np.zeros((1, 5, 11)), requires_grad=True)
    loss = ad.cross_entropy(logits, np.zeros((1, 5), dtype=int), np.ones((1, 5)))
    assert abs(float(loss.data) - np.log(11)) < 1e-12


def test_cross_entropy_needs_weight():
    logits = Tensor(np.zeros((1, 2, 3)))
    with pytest.raises(ValueError):
        ad.cross_entropy(logits, np.zeros((1, 2), dtype=int), np.zeros((1, 2)))


def test_backward_requires_scalar():
    t = Tensor(np.ones((2, 2)), requires_grad=True)
    with pytest.raises(ValueError):
        ad.add(t, t).backward()


def test_no_grad_suppresses_tape():
    t = Tensor(np.ones((2, 2)), requires_grad=True)
    with ad.no_grad():
        out = ad.add(t, t)
    assert not out.requires_grad
    out2 = ad.add(t, t)
    assert out2.requires_grad


def test_gradient_accumulates_across_uses():
    t = Tensor(np.array([[2.0]]), requires_grad=True)
    out = ad.add(mul(t, t), t)  # f = t^2 + t, f' = 2t + 1 = 5
    out.backward()
    assert abs(t.grad[0, 0] - 5.0) < 1e-12


def test_backward_frees_interior_nodes_and_leaves_keep_their_grads():
    """backward() consumes the graph: each interior node drops its gradient, its
    parents and its closure (with the arrays it saved); the leaves keep theirs."""
    a = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    b = Tensor(np.array([3.0, 5.0]), requires_grad=True)
    h = mul(a, b)
    out = total(h)
    closures = [weakref.ref(node._backward) for node in (h, out)]
    out.backward()
    for node in (h, out):
        assert node.grad is None and node._parents == ()
    assert all(ref() is None for ref in closures)
    assert np.array_equal(a.grad, b.data) and np.array_equal(b.grad, a.data)


def test_second_backward_through_a_consumed_graph_raises():
    t = Tensor(np.array([[2.0]]), requires_grad=True)
    h = mul(t, t)
    out = ad.add(h, t)
    out.backward()
    with pytest.raises(RuntimeError, match="consumed"):
        out.backward()
    with pytest.raises(RuntimeError, match="consumed"):
        total(h).backward()  # a new root over a consumed node
    assert t.grad[0, 0] == 5.0  # the failed calls moved no gradient
