"""Minimal reverse-mode automatic differentiation on 2-D float64 arrays.

Every differentiable value lives on a :class:`Tape` as a :class:`Node`.
Operations append nodes in creation order, so the backward pass is a single
reversed walk over the tape — no topological sort is needed.  Gradients
accumulate additively into ``node.grad``, which :func:`backward` allocates,
so a forward-only tape holds no gradient arrays.  A tape supports exactly
one backward pass and is meant to be rebuilt from scratch for every step.

A node refers to its tape only weakly, so there is no node↔tape reference
cycle: a tape and all its nodes are freed by reference counting as soon as
the last reference to the tape goes, without waiting for the garbage
collector.  Recording an op on a node whose tape is gone is an error.

Only the operations needed by the models in this package are provided.
All arrays are C-contiguous ``float64`` matrices; 1-D inputs are promoted
to single-row matrices on entry.
"""

from __future__ import annotations

import weakref

import numpy as np

from .errors import (
    DoubleBackwardError,
    NonFiniteError,
    NotScalarError,
    ShapeMismatchError,
    TapeReleasedError,
)

PROB_FLOOR = 1e-12


def as_matrix(value) -> np.ndarray:
    """Coerce ``value`` to a 2-D float64 array (rows stay rows)."""
    if (
        type(value) is np.ndarray
        and value.ndim == 2
        and value.dtype == np.float64
        and value.flags.c_contiguous
    ):
        return value
    arr = np.asarray(value, dtype=np.float64)
    if arr.ndim == 0:
        arr = arr.reshape(1, 1)
    elif arr.ndim == 1:
        arr = arr.reshape(1, -1)
    elif arr.ndim != 2:
        raise ShapeMismatchError(f"expected at most 2 dimensions, got {arr.ndim}")
    return np.ascontiguousarray(arr)


class Node:
    """One value on the tape plus the bookkeeping backward() needs."""

    __slots__ = ("_tape", "value", "grad", "op", "parents", "aux")

    def __init__(self, tape_ref, value, op, parents, aux=None, grad=None):
        self._tape = tape_ref
        self.value = value
        self.grad = grad
        self.op = op
        self.parents = parents
        self.aux = aux

    @property
    def tape(self) -> "Tape":
        tape = self._tape()
        if tape is None:
            raise TapeReleasedError(
                f"the tape of this {self.op!r} node was released; "
                "record ops only while their tape is alive"
            )
        return tape

    @property
    def shape(self):
        return self.value.shape

    def __repr__(self):
        return f"Node(op={self.op!r}, shape={self.value.shape})"


class Tape:
    """Flat, creation-ordered record of nodes for one forward pass."""

    def __init__(self):
        self.nodes: list[Node] = []
        self._backward_done = False
        self._ref = weakref.ref(self)

    def leaf(self, value, grad=None) -> Node:
        """Register an input (weights or data) as a gradient-carrying leaf.

        ``grad``, if given, is the array backward() accumulates this leaf's
        gradient into (for example a view of a flat gradient buffer); it
        must have the leaf's shape and is used as it is, not zeroed.
        """
        value = as_matrix(value)
        if grad is not None and grad.shape != value.shape:
            raise ShapeMismatchError(
                f"leaf gradient shape {grad.shape} != value shape {value.shape}"
            )
        return self._record(value, "leaf", (), grad=grad)

    def _record(self, value, op, parents, aux=None, grad=None) -> Node:
        if not np.isfinite(value).all():
            raise NonFiniteError(f"op {op!r} produced a non-finite value")
        node = Node(self._ref, value, op, parents, aux, grad)
        self.nodes.append(node)
        return node


def _check_same_tape(*nodes):
    tape = nodes[0].tape
    for node in nodes[1:]:
        if node.tape is not tape:
            raise ShapeMismatchError("operands live on different tapes")
    return tape


def _unbroadcast(grad: np.ndarray, shape) -> np.ndarray:
    """Sum ``grad`` down to ``shape`` (inverse of 2-D numpy broadcasting)."""
    out = grad
    if shape[0] == 1 and out.shape[0] != 1:
        out = out.sum(axis=0, keepdims=True)
    if shape[1] == 1 and out.shape[1] != 1:
        out = out.sum(axis=1, keepdims=True)
    return out


def _broadcastable(a_shape, b_shape) -> bool:
    (ar, ac), (br, bc) = a_shape, b_shape
    return (ar == br or ar == 1 or br == 1) and (ac == bc or ac == 1 or bc == 1)


# ---------------------------------------------------------------------------
# Forward operations
# ---------------------------------------------------------------------------


def matmul(a: Node, b: Node) -> Node:
    tape = _check_same_tape(a, b)
    if a.value.shape[1] != b.value.shape[0]:
        raise ShapeMismatchError(
            f"matmul inner dims differ: {a.value.shape} @ {b.value.shape}"
        )
    return tape._record(a.value @ b.value, "matmul", (a, b))


def add(a: Node, b: Node) -> Node:
    tape = _check_same_tape(a, b)
    if not _broadcastable(a.value.shape, b.value.shape):
        raise ShapeMismatchError(
            f"add shapes not broadcastable: {a.value.shape} vs {b.value.shape}"
        )
    return tape._record(a.value + b.value, "add", (a, b))


def mul(a: Node, b: Node) -> Node:
    tape = _check_same_tape(a, b)
    if not _broadcastable(a.value.shape, b.value.shape):
        raise ShapeMismatchError(
            f"mul shapes not broadcastable: {a.value.shape} vs {b.value.shape}"
        )
    return tape._record(a.value * b.value, "mul", (a, b))


def _constant_for(a: Node, value, op: str) -> np.ndarray:
    """``value`` as a matrix that broadcasts to ``a``'s shape without growing it."""
    c = as_matrix(value)
    (ar, ac), (cr, cc) = a.value.shape, c.shape
    if cr not in (1, ar) or cc not in (1, ac):
        raise ShapeMismatchError(
            f"{op} constant of shape {c.shape} does not fit value shape {a.value.shape}"
        )
    return c


def scale(a: Node, alpha) -> Node:
    """Multiply by a constant: a Python number, or an array that broadcasts
    to ``a``'s shape (a row, a column or a full matrix).  The constant gets
    no gradient and no node of its own."""
    if isinstance(alpha, np.ndarray):
        alpha = _constant_for(a, alpha, "scale")
    else:
        alpha = float(alpha)
    return a.tape._record(a.value * alpha, "scale", (a,), aux=alpha)


def shift(a: Node, offset) -> Node:
    """Add a constant array that broadcasts to ``a``'s shape (no gradient,
    no node of its own)."""
    return a.tape._record(a.value + _constant_for(a, offset, "shift"), "shift", (a,))


def relu(a: Node) -> Node:
    return a.tape._record(np.maximum(a.value, 0.0), "relu", (a,))


def sigmoid(a: Node) -> Node:
    x = a.value
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return a.tape._record(out, "sigmoid", (a,))


def mean(a: Node) -> Node:
    """Mean over every entry, returned as a 1x1 matrix."""
    return a.tape._record(np.array([[a.value.mean()]]), "mean", (a,))


def weighted_sum(a: Node, weights) -> Node:
    """``sum(a * weights)`` as a 1x1 matrix; ``weights`` is a constant array."""
    w = as_matrix(weights)
    if w.shape != a.value.shape:
        raise ShapeMismatchError(
            f"weighted_sum weights shape {w.shape} != value shape {a.value.shape}"
        )
    return a.tape._record(
        np.array([[float(np.sum(a.value * w))]]), "weighted_sum", (a,), aux=w
    )


def stable_softmax(logits, temperature: float = 1.0) -> np.ndarray:
    """Row-wise softmax of ``logits / temperature`` with max subtraction."""
    t = float(temperature)
    if t <= 0.0:
        raise ValueError(f"softmax temperature must be positive, got {t}")
    z = np.asarray(logits, dtype=np.float64) / t
    z = z - z.max(axis=1, keepdims=True)
    ez = np.exp(z)
    return ez / ez.sum(axis=1, keepdims=True)


def softmax_rows(a: Node, temperature: float = 1.0) -> Node:
    """Tape node for :func:`stable_softmax` of ``a``."""
    t = float(temperature)
    return a.tape._record(stable_softmax(a.value, t), "softmax_rows", (a,), aux=t)


def log_rows(a: Node, floor: float = PROB_FLOOR) -> Node:
    """Elementwise ``log(max(a, floor))``; gradient is zero where the floor bites."""
    clipped = np.maximum(a.value, floor)
    return a.tape._record(np.log(clipped), "log_rows", (a,), aux=float(floor))


def outer_rows(f: Node, p: Node) -> Node:
    """Row-wise outer product: ``out[i] = flatten(f[i] (x) p[i])``.

    For ``f`` of shape (n, d) and ``p`` of shape (n, k) the result has shape
    (n, d*k), with ``out[i, j*k + l] = f[i, j] * p[i, l]``.
    """
    tape = _check_same_tape(f, p)
    if f.value.shape[0] != p.value.shape[0]:
        raise ShapeMismatchError(
            f"outer_rows row counts differ: {f.value.shape[0]} vs {p.value.shape[0]}"
        )
    n = f.value.shape[0]
    out = np.einsum("ni,nk->nik", f.value, p.value).reshape(n, -1)
    return tape._record(np.ascontiguousarray(out), "outer_rows", (f, p))


def norm_affine(h: np.ndarray, offset, inv_std, gamma: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """``((h + offset) * inv_std) * gamma + beta`` as a new array, op for op,
    for (n, d) ``h`` and (1, d) rows: the one copy of the norm arithmetic,
    called by each :func:`domain_affine` branch and by tape-free inference."""
    for row in (offset, inv_std, gamma, beta):
        if row.shape != (1, h.shape[1]):
            raise ShapeMismatchError(f"norm row shape {row.shape} != {(1, h.shape[1])}")
    y = h + offset
    y *= inv_std
    y *= gamma
    y += beta
    return y


def domain_affine(h: Node, branches) -> Node:
    """Per-domain normalization with learnable affine, blended by row masks.

    Each branch is ``(mask, offset, inv_std, gamma, beta)``: ``offset`` and
    ``inv_std`` are constant rows (minus the running mean, one over the
    running standard deviation), ``gamma`` and ``beta`` are (1, d) nodes, and
    ``mask`` is a constant 0/1 column selecting the branch's rows, or None
    for a branch that covers every row.  The value is the sum, in branch
    order, of ``norm_affine(h, offset, inv_std, gamma, beta) * mask``: every
    branch is computed over the whole batch, with the same arithmetic as the
    ``shift``/``scale``/``mul``/``add`` composition it replaces.
    """
    parents = [h]
    kept = []
    out = None
    for mask, offset, inv_std, gamma, beta in branches:
        if mask is not None:
            mask = _constant_for(h, mask, "domain_affine")
        y = norm_affine(h.value, offset, inv_std, gamma.value, beta.value)
        if mask is not None:
            y *= mask
        if out is None:
            out = y
        else:
            out += y
        parents += (gamma, beta)
        kept.append((mask, offset, inv_std))
    if out is None:
        raise ShapeMismatchError("domain_affine needs at least one branch")
    tape = _check_same_tape(*parents)
    return tape._record(out, "domain_affine", tuple(parents), aux=kept)


def gradient_reverse(a: Node, lam: float) -> Node:
    """Identity forward; backward multiplies the incoming gradient by ``-lam``."""
    lam = float(lam)
    if lam < 0.0:
        raise ValueError(f"reversal strength must be >= 0, got {lam}")
    return a.tape._record(a.value.copy(), "gradient_reverse", (a,), aux=lam)


# ---------------------------------------------------------------------------
# Backward pass
# ---------------------------------------------------------------------------


def _back_matmul(node):
    a, b = node.parents
    a.grad += node.grad @ b.value.T
    b.grad += a.value.T @ node.grad


def _back_add(node):
    a, b = node.parents
    a.grad += _unbroadcast(node.grad, a.value.shape)
    b.grad += _unbroadcast(node.grad, b.value.shape)


def _back_mul(node):
    a, b = node.parents
    a.grad += _unbroadcast(node.grad * b.value, a.value.shape)
    b.grad += _unbroadcast(node.grad * a.value, b.value.shape)


def _back_scale(node):
    (a,) = node.parents
    a.grad += node.grad * node.aux


def _back_shift(node):
    (a,) = node.parents
    a.grad += node.grad


def _back_relu(node):
    (a,) = node.parents
    a.grad += node.grad * (a.value > 0.0)


def _back_sigmoid(node):
    (a,) = node.parents
    s = node.value
    a.grad += node.grad * s * (1.0 - s)


def _back_mean(node):
    (a,) = node.parents
    a.grad += node.grad[0, 0] / a.value.size


def _back_weighted_sum(node):
    (a,) = node.parents
    a.grad += node.grad[0, 0] * node.aux


def _back_softmax_rows(node):
    (a,) = node.parents
    s = node.value
    g = node.grad
    inner = (g * s).sum(axis=1, keepdims=True)
    a.grad += (g - inner) * s / node.aux


def _back_log_rows(node):
    (a,) = node.parents
    floor = node.aux
    a.grad += np.where(a.value > floor, node.grad / np.maximum(a.value, floor), 0.0)


def _back_outer_rows(node):
    f, p = node.parents
    n = f.value.shape[0]
    g = node.grad.reshape(n, f.value.shape[1], p.value.shape[1])
    f.grad += np.einsum("nik,nk->ni", g, p.value)
    p.grad += np.einsum("nik,ni->nk", g, f.value)


def _back_domain_affine(node):
    h = node.parents[0]
    g = node.grad
    # Last branch first, as the reversed walk over the unfused ops visited them.
    for i in range(len(node.aux) - 1, -1, -1):
        mask, offset, inv_std = node.aux[i]
        gamma, beta = node.parents[1 + 2 * i], node.parents[2 + 2 * i]
        xhat = (h.value + offset) * inv_std  # recomputed: no (n, d) array kept per branch
        gy = g if mask is None else g * mask
        beta.grad += _unbroadcast(gy, beta.value.shape)
        gamma.grad += _unbroadcast(gy * xhat, gamma.value.shape)
        h.grad += (gy * gamma.value) * inv_std


def _back_gradient_reverse(node):
    (a,) = node.parents
    a.grad += node.grad * (-node.aux)


_BACKWARD = {
    "matmul": _back_matmul,
    "add": _back_add,
    "mul": _back_mul,
    "scale": _back_scale,
    "shift": _back_shift,
    "relu": _back_relu,
    "sigmoid": _back_sigmoid,
    "mean": _back_mean,
    "weighted_sum": _back_weighted_sum,
    "softmax_rows": _back_softmax_rows,
    "log_rows": _back_log_rows,
    "outer_rows": _back_outer_rows,
    "domain_affine": _back_domain_affine,
    "gradient_reverse": _back_gradient_reverse,
}


def backward(tape: Tape, loss: Node):
    """Propagate d(loss)/d(node) into every ``node.grad`` on the tape.

    Nodes without a gradient array get zeros first; a leaf given a ``grad``
    array accumulates into it as it is.
    """
    if loss.tape is not tape:
        raise ShapeMismatchError("loss does not belong to this tape")
    if loss.value.shape != (1, 1):
        raise NotScalarError(f"loss must be 1x1, got shape {loss.value.shape}")
    if tape._backward_done:
        raise DoubleBackwardError("this tape has already been differentiated")
    tape._backward_done = True
    for node in tape.nodes:
        if node.grad is None:
            node.grad = np.zeros(node.value.shape)
    loss.grad[...] = 1.0
    for node in reversed(tape.nodes):
        if node.op == "leaf":
            continue
        if not node.grad.any():
            continue
        _BACKWARD[node.op](node)
