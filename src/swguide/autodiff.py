"""Minimal reverse-mode automatic differentiation on 2-D float64 arrays.

Every differentiable value lives on a :class:`Tape` as a :class:`Node`.
Operations append nodes in creation order, so the backward pass is a single
reversed walk over the tape — no topological sort is needed.  Gradients
accumulate additively into ``node.grad``, which :func:`backward` fills: a
node's first gradient contribution becomes its gradient array, so a
forward-only tape holds no gradient arrays and a backward pass allocates
none up front.  A tape supports exactly one backward pass and is meant to
be rebuilt from scratch for every step.

No op ever writes a node's value after recording it (the trainer updates
parameter arrays only once their step's backward is done), so an identity
op (:func:`gradient_reverse`) records its input's array as its own value.

A node refers to its tape only weakly, so there is no node↔tape reference
cycle: a tape and all its nodes are freed by reference counting as soon as
the last reference to the tape goes, without waiting for the garbage
collector.  Recording an op on a node whose tape is gone is an error.

Only the operations needed by the models in this package are provided.
All arrays are C-contiguous ``float64`` matrices; 1-D inputs are promoted
to single-row matrices on entry.
"""

from __future__ import annotations

import numbers
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

    def _record(self, value, op, parents, aux=None, grad=None, checked=False) -> Node:
        """Append a node for ``value``; ``checked`` skips the finiteness
        check for a value that was already checked."""
        if not checked:
            _check_finite(value, op)
        node = Node(self._ref, value, op, parents, aux, grad)
        self.nodes.append(node)
        return node


def _check_finite(value: np.ndarray, op: str):
    if not np.isfinite(value).all():
        raise NonFiniteError(f"op {op!r} produced a non-finite value")


def _relu_in_place(value: np.ndarray, op: str) -> np.ndarray:
    """Check ``value`` is finite, then relu it in place; returns the
    ``value > 0`` mask the backward pass multiplies by.  A relu keeps a value
    finite, so this one check stands for both the op's and the relu's."""
    _check_finite(value, op)
    keep = value > 0.0
    np.maximum(value, 0.0, out=value)
    return keep


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


def linear(h: Node, weight: Node, bias: Node, relu: bool = False) -> Node:
    """``h @ weight + bias`` as one node, with ``relu`` also the relu of it:
    the IEEE ops of ``add(matmul(h, weight), bias)`` (and ``relu`` of that),
    with no node or array for the product alone.  ``bias`` is a (1, m) row.
    With ``relu`` only a bool mask of the positive entries is kept beside
    the value."""
    tape = _check_same_tape(h, weight, bias)
    if h.value.shape[1] != weight.value.shape[0] or bias.value.shape != (1, weight.value.shape[1]):
        raise ShapeMismatchError(
            f"linear shapes do not fit: {h.value.shape} @ {weight.value.shape} "
            f"+ {bias.value.shape}"
        )
    out = h.value @ weight.value
    out += bias.value
    keep = _relu_in_place(out, "linear") if relu else None
    return tape._record(out, "linear", (h, weight, bias), aux=keep, checked=relu)


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
    """Multiply by a constant number (no gradient, no node of its own)."""
    if not isinstance(alpha, numbers.Real):
        raise ShapeMismatchError(f"scale takes a number, got {type(alpha).__name__}")
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


def softmax_numerators(logits, temperature: float = 1.0) -> np.ndarray:
    """Row-wise ``exp(z - max z)`` for ``z = logits / temperature``: the
    numerators of :func:`stable_softmax`.  Each row's largest entry is
    exactly 1.0."""
    t = float(temperature)
    if t <= 0.0:
        raise ValueError(f"softmax temperature must be positive, got {t}")
    z = np.asarray(logits, dtype=np.float64) / t
    z -= z.max(axis=1, keepdims=True)
    return np.exp(z, out=z)


def stable_softmax(logits, temperature: float = 1.0) -> np.ndarray:
    """Row-wise softmax of ``logits / temperature`` with max subtraction."""
    ez = softmax_numerators(logits, temperature)
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


def norm_affine(
    h: np.ndarray, offset, inv_std, gamma: np.ndarray, beta: np.ndarray, out=None
) -> np.ndarray:
    """``((h + offset) * inv_std) * gamma + beta``, op for op, for (n, d) ``h``
    and (1, d) rows, as a new array or into ``out`` (which may be ``h``): the
    one copy of the norm arithmetic, called by each :func:`domain_affine`
    branch and by tape-free inference."""
    for row in (offset, inv_std, gamma, beta):
        if row.shape != (1, h.shape[1]):
            raise ShapeMismatchError(f"norm row shape {row.shape} != {(1, h.shape[1])}")
    y = np.add(h, offset, out=out)
    y *= inv_std
    y *= gamma
    y += beta
    return y


def domain_affine(h: Node, branches) -> Node:
    """Per-domain normalization with learnable affine, blended by row masks,
    then relu.

    Each branch is ``(mask, offset, inv_std, gamma, beta)``: ``offset`` and
    ``inv_std`` are constant rows (minus the running mean, one over the
    running standard deviation), ``gamma`` and ``beta`` are (1, d) nodes, and
    ``mask`` is a constant 0/1 column selecting the branch's rows, or None
    for a branch that covers every row.  The value is the sum, in branch
    order, of ``norm_affine(h, offset, inv_std, gamma, beta) * mask``, every
    branch computed over the whole batch.  The relu is applied in place, as
    in :func:`linear`.
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
    keep = _relu_in_place(out, "domain_affine")
    return tape._record(out, "domain_affine", tuple(parents), aux=(keep, kept), checked=True)


def gradient_reverse(a: Node, lam: float) -> Node:
    """Identity forward; backward multiplies the incoming gradient by ``-lam``.

    The node's value is its input's array itself, not a copy."""
    lam = float(lam)
    if lam < 0.0:
        raise ValueError(f"reversal strength must be >= 0, got {lam}")
    return a.tape._record(a.value, "gradient_reverse", (a,), aux=lam, checked=True)


# ---------------------------------------------------------------------------
# Backward pass
# ---------------------------------------------------------------------------


def _accumulate(node: Node, grad: np.ndarray, through: Node | None = None):
    """Add the contribution ``grad`` into ``node.grad``.

    The first contribution becomes the node's gradient array.  ``through``
    names the node whose gradient ``grad`` may be itself (a pass-through
    contribution); that array is copied first, so no two nodes share one.
    """
    if node.grad is None:
        node.grad = grad.copy() if through is not None and grad is through.grad else grad
    else:
        node.grad += grad


def _back_matmul(node):
    a, b = node.parents
    _accumulate(a, node.grad @ b.value.T)
    _accumulate(b, a.value.T @ node.grad)


def _back_add(node):
    for parent in node.parents:
        _accumulate(parent, _unbroadcast(node.grad, parent.value.shape), node)


def _back_linear(node):
    h, weight, bias = node.parents
    g = node.grad if node.aux is None else node.grad * node.aux
    _accumulate(bias, _unbroadcast(g, bias.value.shape), node)
    _accumulate(h, g @ weight.value.T)
    _accumulate(weight, h.value.T @ g)


def _back_mul(node):
    a, b = node.parents
    _accumulate(a, _unbroadcast(node.grad * b.value, a.value.shape))
    _accumulate(b, _unbroadcast(node.grad * a.value, b.value.shape))


def _back_scale(node):
    (a,) = node.parents
    _accumulate(a, node.grad * node.aux)


def _back_shift(node):
    (a,) = node.parents
    _accumulate(a, node.grad, node)


def _back_relu(node):
    (a,) = node.parents
    _accumulate(a, node.grad * (a.value > 0.0))


def _back_sigmoid(node):
    (a,) = node.parents
    s = node.value
    _accumulate(a, node.grad * s * (1.0 - s))


def _back_weighted_sum(node):
    (a,) = node.parents
    _accumulate(a, node.grad[0, 0] * node.aux)


def _back_softmax_rows(node):
    (a,) = node.parents
    s = node.value
    g = node.grad
    inner = (g * s).sum(axis=1, keepdims=True)
    _accumulate(a, (g - inner) * s / node.aux)


def _back_log_rows(node):
    (a,) = node.parents
    floor = node.aux
    _accumulate(a, np.where(a.value > floor, node.grad / np.maximum(a.value, floor), 0.0))


def _back_outer_rows(node):
    f, p = node.parents
    n = f.value.shape[0]
    g = node.grad.reshape(n, f.value.shape[1], p.value.shape[1])
    _accumulate(f, np.einsum("nik,nk->ni", g, p.value))
    _accumulate(p, np.einsum("nik,ni->nk", g, f.value))


def _back_domain_affine(node):
    h = node.parents[0]
    keep, branches = node.aux
    g = node.grad * keep
    # Last branch first, as the reversed walk over the unfused ops visited them.
    for i in range(len(branches) - 1, -1, -1):
        mask, offset, inv_std = branches[i]
        gamma, beta = node.parents[1 + 2 * i], node.parents[2 + 2 * i]
        xhat = (h.value + offset) * inv_std  # recomputed: no (n, d) array kept per branch
        gy = g if mask is None else g * mask
        _accumulate(beta, _unbroadcast(gy, beta.value.shape), node)
        _accumulate(gamma, _unbroadcast(gy * xhat, gamma.value.shape))
        _accumulate(h, (gy * gamma.value) * inv_std)


def _back_gradient_reverse(node):
    (a,) = node.parents
    _accumulate(a, node.grad * (-node.aux))


_BACKWARD = {
    "matmul": _back_matmul,
    "add": _back_add,
    "linear": _back_linear,
    "mul": _back_mul,
    "scale": _back_scale,
    "shift": _back_shift,
    "relu": _back_relu,
    "sigmoid": _back_sigmoid,
    "weighted_sum": _back_weighted_sum,
    "softmax_rows": _back_softmax_rows,
    "log_rows": _back_log_rows,
    "outer_rows": _back_outer_rows,
    "domain_affine": _back_domain_affine,
    "gradient_reverse": _back_gradient_reverse,
}


def backward(tape: Tape, loss: Node):
    """Propagate d(loss)/d(node) into every ``node.grad`` on the tape.

    A node's first contribution becomes its gradient array, and a leaf given
    a ``grad`` array accumulates into it as it is.  Nodes that no
    contribution reaches get zeros at the end, so every node holds its own
    gradient array afterwards.
    """
    if loss.tape is not tape:
        raise ShapeMismatchError("loss does not belong to this tape")
    if loss.value.shape != (1, 1):
        raise NotScalarError(f"loss must be 1x1, got shape {loss.value.shape}")
    if tape._backward_done:
        raise DoubleBackwardError("this tape has already been differentiated")
    tape._backward_done = True
    if loss.grad is None:
        loss.grad = np.ones((1, 1))
    else:
        loss.grad[...] = 1.0
    for node in reversed(tape.nodes):
        if node.grad is None or node.op == "leaf":
            continue
        _BACKWARD[node.op](node)
    for node in tape.nodes:
        if node.grad is None:
            node.grad = np.zeros(node.value.shape)
