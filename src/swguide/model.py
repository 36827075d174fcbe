"""The trainable system: MLP extractor with per-domain norm layers,
linear classifier, and a domain discriminator on multilinear features.

Architecture (widths from config): input d_x → linear → norm → relu →
linear → norm → relu ≡ features f (d_f) → linear classifier → softmax.
The discriminator consumes the flattened outer product f ⊗ p through a
gradient-reversal layer, one hidden relu layer, and a sigmoid unit.

Normalization always runs in inference form — each sample is normalized
with the running statistics of its own domain, then scaled/shifted by
that domain's learnable γ, β.  Running statistics are set once by the
norm-adaptation pass and are never updated by gradient steps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .errors import (
    NonFiniteError,
    NonPositiveVarianceError,
    ShapeMismatchError,
    UnknownDomainTagError,
)

NORM_DOMAINS = ("source", "target")
INFER_BLOCK_ROWS = 4096  # rows per block of an in-place inference matmul


@dataclass(frozen=True)
class NormLayerState:
    """One domain's affine-normalization state for one layer; all (1, d)."""

    gamma: np.ndarray
    beta: np.ndarray
    running_mean: np.ndarray
    running_var: np.ndarray

    def __post_init__(self):
        for name in ("gamma", "beta", "running_mean", "running_var"):
            arr = np.ascontiguousarray(np.asarray(getattr(self, name), dtype=np.float64))
            if arr.ndim == 1:
                arr = arr.reshape(1, -1)
            object.__setattr__(self, name, arr)
        width = self.gamma.shape
        for name in ("beta", "running_mean", "running_var"):
            if getattr(self, name).shape != width:
                raise ShapeMismatchError(
                    f"norm state field {name} has shape {getattr(self, name).shape}, "
                    f"expected {width}"
                )
        if self.running_var.min() <= 0.0:
            raise NonPositiveVarianceError("running variance must be positive")

    @staticmethod
    def identity(width: int) -> "NormLayerState":
        return NormLayerState(
            gamma=np.ones((1, width)),
            beta=np.zeros((1, width)),
            running_mean=np.zeros((1, width)),
            running_var=np.ones((1, width)),
        )


@dataclass
class ModelParams:
    """All trainable arrays plus per-domain norm states.

    Weight matrices are (fan_in, fan_out); biases and norm vectors are
    (1, width) so every array on the tape stays 2-D.
    """

    extractor: list[tuple[np.ndarray, np.ndarray]]
    norm_states: list[dict[str, NormLayerState]]
    classifier: tuple[np.ndarray, np.ndarray]
    discriminator: list[tuple[np.ndarray, np.ndarray]]

    def named_arrays(self) -> dict[str, np.ndarray]:
        """Flat name → array view in a fixed, documented order."""
        named: dict[str, np.ndarray] = {}
        for i, (weight, bias) in enumerate(self.extractor):
            named[f"extractor.{i}.weight"] = weight
            named[f"extractor.{i}.bias"] = bias
        for i, states in enumerate(self.norm_states):
            for domain in NORM_DOMAINS:
                state = states[domain]
                named[f"norm.{i}.{domain}.gamma"] = state.gamma
                named[f"norm.{i}.{domain}.beta"] = state.beta
                named[f"norm.{i}.{domain}.mean"] = state.running_mean
                named[f"norm.{i}.{domain}.var"] = state.running_var
        named["classifier.weight"] = self.classifier[0]
        named["classifier.bias"] = self.classifier[1]
        for i, (weight, bias) in enumerate(self.discriminator):
            named[f"discriminator.{i}.weight"] = weight
            named[f"discriminator.{i}.bias"] = bias
        return named

    def trainable_arrays(self) -> dict[str, np.ndarray]:
        """``named_arrays()`` without the running statistics, same order."""
        return {
            name: array
            for name, array in self.named_arrays().items()
            if not name.endswith((".mean", ".var"))
        }

    def copy(self) -> "ModelParams":
        return params_from_named({k: v.copy() for k, v in self.named_arrays().items()})


def params_from_named(named: dict[str, np.ndarray]) -> ModelParams:
    """Rebuild ModelParams from the checkpoint dictionary layout.

    Every array must be 2-D and every width must agree with its neighbours
    (a layer's bias and norm states with its weight's columns, the next
    weight's rows with them, the discriminator input with features ×
    classes, one discriminator output), so a checkpoint NumPy would only
    broadcast is rejected with :class:`ShapeMismatchError`.  Every array
    must be finite, or :class:`NonFiniteError` names it, so a checkpoint is
    refused even for an array that inference never reads.
    """

    def get(name: str) -> np.ndarray:
        if name not in named:
            raise ShapeMismatchError(f"named arrays lack {name!r}")
        array = named[name]
        if np.ndim(array) != 2:
            raise ShapeMismatchError(f"{name} must be 2-D, got shape {np.shape(array)}")
        if not np.isfinite(array).all():
            raise NonFiniteError(f"{name} contains non-finite entries")
        return array

    def expect(name: str, array: np.ndarray, shape):
        if array.shape != shape:
            raise ShapeMismatchError(f"{name} has shape {array.shape}, expected {shape}")

    def dense(prefix: str, fan_in):
        weight, bias = get(f"{prefix}.weight"), get(f"{prefix}.bias")
        if fan_in is not None:
            expect(f"{prefix}.weight", weight, (fan_in, weight.shape[1]))
        expect(f"{prefix}.bias", bias, (1, weight.shape[1]))
        return weight, bias

    def norm_state(i: int, domain: str, width: int) -> NormLayerState:
        arrays = []
        for key in ("gamma", "beta", "mean", "var"):
            name = f"norm.{i}.{domain}.{key}"
            arrays.append(get(name))
            expect(name, arrays[-1], (1, width))
        return NormLayerState(*arrays)

    if "extractor.0.weight" not in named or "discriminator.0.weight" not in named:
        raise ShapeMismatchError("named arrays do not describe a complete model")
    extractor = []
    norm_states = []
    width = None
    while f"extractor.{len(extractor)}.weight" in named:
        i = len(extractor)
        weight, bias = dense(f"extractor.{i}", width)
        width = weight.shape[1]
        extractor.append((weight, bias))
        norm_states.append({domain: norm_state(i, domain, width) for domain in NORM_DOMAINS})
    if f"norm.{len(extractor)}.source.gamma" in named:
        raise ShapeMismatchError(f"norm layer {len(extractor)} has no extractor layer")
    classifier = dense("classifier", width)
    discriminator = []
    fan_in = width * classifier[0].shape[1]
    while f"discriminator.{len(discriminator)}.weight" in named:
        weight, bias = dense(f"discriminator.{len(discriminator)}", fan_in)
        fan_in = weight.shape[1]
        discriminator.append((weight, bias))
    if fan_in != 1:
        raise ShapeMismatchError(
            f"the last discriminator layer has {fan_in} outputs, expected 1"
        )
    return ModelParams(
        extractor=extractor,
        norm_states=norm_states,
        classifier=classifier,
        discriminator=discriminator,
    )


def pack_trainable(params: ModelParams) -> tuple[np.ndarray, ModelParams]:
    """Copy the trainable arrays into one flat float64 vector.

    Returns the vector and a ModelParams whose trainable arrays are views
    of it, laid out in ``trainable_arrays()`` order; the running statistics
    are shared with ``params``.  An optimizer can then update every
    trainable array with a handful of vector ops.
    """
    named = params.named_arrays()
    trainable = params.trainable_arrays()
    flat = np.concatenate([array.ravel() for array in trainable.values()])
    offset = 0
    for name, array in trainable.items():
        named[name] = flat[offset : offset + array.size].reshape(array.shape)
        offset += array.size
    return flat, params_from_named(named)


def glorot_uniform(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))


def init_params(
    rng: np.random.Generator,
    input_dim: int,
    n_classes: int,
    hidden_dim: int = 64,
    disc_hidden: int = 64,
) -> ModelParams:
    """Seeded Glorot-uniform weights, zero biases, identity norm states.

    Draw order is fixed (extractor layers, classifier, discriminator
    layers) so a given generator state always yields the same model.
    """
    widths = [input_dim, hidden_dim, hidden_dim]
    extractor = []
    for fan_in, fan_out in zip(widths, widths[1:]):
        extractor.append((glorot_uniform(rng, fan_in, fan_out), np.zeros((1, fan_out))))
    classifier = (glorot_uniform(rng, hidden_dim, n_classes), np.zeros((1, n_classes)))
    joint_dim = hidden_dim * n_classes
    discriminator = [
        (glorot_uniform(rng, joint_dim, disc_hidden), np.zeros((1, disc_hidden))),
        (glorot_uniform(rng, disc_hidden, 1), np.zeros((1, 1))),
    ]
    norm_states = [
        {domain: NormLayerState.identity(fan_out) for domain in NORM_DOMAINS}
        for fan_out in widths[1:]
    ]
    return ModelParams(
        extractor=extractor,
        norm_states=norm_states,
        classifier=classifier,
        discriminator=discriminator,
    )


@dataclass
class ParamNodes:
    """Tape nodes for every trainable array of one lifted model."""

    extractor: list[tuple[ad.Node, ad.Node]]
    norms: list[dict[str, tuple[ad.Node, ad.Node]]]  # domain -> (gamma, beta)
    classifier: tuple[ad.Node, ad.Node]
    discriminator: list[tuple[ad.Node, ad.Node]]

    def named_nodes(self) -> dict[str, ad.Node]:
        named: dict[str, ad.Node] = {}
        for i, (weight, bias) in enumerate(self.extractor):
            named[f"extractor.{i}.weight"] = weight
            named[f"extractor.{i}.bias"] = bias
        for i, states in enumerate(self.norms):
            for domain, (gamma, beta) in states.items():
                named[f"norm.{i}.{domain}.gamma"] = gamma
                named[f"norm.{i}.{domain}.beta"] = beta
        named["classifier.weight"] = self.classifier[0]
        named["classifier.bias"] = self.classifier[1]
        for i, (weight, bias) in enumerate(self.discriminator):
            named[f"discriminator.{i}.weight"] = weight
            named[f"discriminator.{i}.bias"] = bias
        return named


def lift(tape: ad.Tape, params: ModelParams, grad: np.ndarray) -> ParamNodes:
    """Put every trainable array on the tape as a leaf (stats stay constant).

    ``grad`` is a flat vector laid out like the buffer of
    :func:`pack_trainable`; each leaf accumulates its gradient into its view
    of it, so after backward() it holds the whole model's gradient.
    """
    offset = 0

    def leaf(array):
        nonlocal offset
        offset += array.size
        if offset > grad.size:
            raise ShapeMismatchError(f"flat gradient of {grad.size} entries is too short")
        return tape.leaf(array, grad[offset - array.size : offset].reshape(array.shape))

    nodes = ParamNodes(  # leaves in trainable_arrays() order
        extractor=[(leaf(w), leaf(b)) for w, b in params.extractor],
        norms=[
            {d: (leaf(states[d].gamma), leaf(states[d].beta)) for d in NORM_DOMAINS}
            for states in params.norm_states
        ],
        classifier=(leaf(params.classifier[0]), leaf(params.classifier[1])),
        discriminator=[(leaf(w), leaf(b)) for w, b in params.discriminator],
    )
    if offset != grad.size:
        raise ShapeMismatchError(f"flat gradient has {grad.size} entries, the model {offset}")
    return nodes


def forward_on_tape(nodes: ParamNodes, params: ModelParams, x: ad.Node, masks):
    """Differentiable forward pass: returns (f, logits, p) nodes.

    ``params`` supplies the constant running statistics; ``nodes`` the
    trainable leaves.  ``masks`` maps each domain in the batch, in
    ``NORM_DOMAINS`` order, to a 0/1 column selecting its rows (None: every
    row).  Each dense layer is one ``linear`` node, and each norm layer one
    ``domain_affine`` node, relu included, that runs each domain's rows
    through its own branch, so one tape serves mixed batches.
    """
    h = x
    for layer, (weight, bias) in enumerate(nodes.extractor):
        h = ad.linear(h, weight, bias)
        branches = []
        for domain, mask in masks.items():
            state = params.norm_states[layer][domain]
            gamma, beta = nodes.norms[layer][domain]
            branches.append(
                (mask, -state.running_mean, 1.0 / np.sqrt(state.running_var), gamma, beta)
            )
        h = ad.domain_affine(h, branches)
    logits = ad.linear(h, *nodes.classifier)
    return h, logits, ad.softmax_rows(logits, 1.0)


def discriminate_on_tape(nodes: ParamNodes, joint: ad.Node, lam: float) -> ad.Node:
    """Domain probability per row: reversal → hidden relu layers → sigmoid."""
    h = ad.gradient_reverse(joint, lam)
    for weight, bias in nodes.discriminator[:-1]:
        h = ad.linear(h, weight, bias, relu=True)
    return ad.sigmoid(ad.linear(h, *nodes.discriminator[-1]))


def _finite(array: np.ndarray, what: str) -> np.ndarray:
    if not np.isfinite(array).all():
        raise NonFiniteError(f"{what} is not finite")
    return array


def _row_blocks(n: int):
    """Slices of ``INFER_BLOCK_ROWS`` rows covering ``range(n)``; the last may
    be shorter, or one row longer: a one-row tail joins the block before it,
    because NumPy computes a one-row product with gemv, whose last bits
    differ from the gemm of a whole-array ``@``."""
    start = 0
    while start < n:
        stop = start + INFER_BLOCK_ROWS
        if stop >= n - 1:
            stop = n
        yield slice(start, stop)
        start = stop


def _dense(h: np.ndarray, weight: np.ndarray, bias: np.ndarray, what: str,
           in_place: bool = False) -> np.ndarray:
    """``h @ weight + bias``.  With ``in_place`` and a square ``weight`` the
    result overwrites ``h``, one row block at a time; each block's product is
    bit-equal to the same rows of a whole-array ``@``."""
    if h.shape[1] != weight.shape[0] or bias.shape != (1, weight.shape[1]):
        raise ShapeMismatchError(
            f"{what}: matmul inner dims differ: {h.shape} @ {weight.shape} + {bias.shape}"
        )
    if in_place and weight.shape[0] == weight.shape[1]:
        for rows in _row_blocks(h.shape[0]):
            h[rows] = h[rows] @ weight
        out = h
    else:
        out = h @ weight
    out += bias
    return _finite(out, what)


def extract(params: ModelParams, x, domain: str, observe) -> np.ndarray:
    """Features of every row of ``x`` in ``domain``'s norm layers, with no tape.

    Each layer is ``h @ W + b``, :func:`autodiff.norm_affine`, relu: the
    arithmetic of :func:`forward_on_tape` with ``{domain: None}``, op for op.
    The first layer writes a fresh (n, width) buffer, and every later step
    works in it in place (a layer whose weight is not square allocates a new
    one), so ``x`` is never written.  ``observe`` sees each norm layer's
    input before the norm overwrites it.  A non-finite input or layer output
    raises ``NonFiniteError``.
    """
    if domain not in NORM_DOMAINS:
        raise UnknownDomainTagError(f"unknown domain tag {domain!r}")
    h = _finite(ad.as_matrix(x), "input")
    for layer, (weight, bias) in enumerate(params.extractor):
        h = _dense(h, weight, bias, f"layer {layer}", in_place=layer > 0)
        observe(h)
        state = params.norm_states[layer][domain]
        ad.norm_affine(
            h, -state.running_mean, 1.0 / np.sqrt(state.running_var), state.gamma, state.beta,
            out=h,
        )
        np.maximum(_finite(h, f"norm {layer}"), 0.0, out=h)  # relu keeps h finite
    return h


def forward(params: ModelParams, x, domain: str):
    """Inference with every row in ``domain``; returns (features, probabilities).

    Bit-identical to :func:`forward_on_tape` with ``{domain: None}``, and
    records no tape.
    """
    features = extract(params, x, domain, lambda h: None)
    logits = _dense(features, *params.classifier, "logits")
    return features, ad.stable_softmax(logits, 1.0)  # finite logits give finite probabilities
