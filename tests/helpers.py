"""Shared test utilities: finite-difference oracles, brute-force selection
oracles, an independent temperature scan, and a self-contained conditional
adversarial training loop used as a reference trace.

Everything here deliberately avoids the package's autodiff and trainer
internals so it can serve as an independent cross-check; only data
plumbing (datasets, seeded streams) is reused.
"""

from __future__ import annotations

import itertools
import math
from collections import namedtuple

import numpy as np

from swguide import autodiff as ad
from swguide.data import rng_for
from swguide.losses import (
    adversarial_loss_node,
    classification_loss_node,
    kd_loss_node,
)
from swguide.model import (
    ModelParams,
    discriminate_on_tape,
    forward_on_tape,
    init_params,
    lift,
)

PROB_FLOOR = 1e-12


def rel_error(a: np.ndarray, b: np.ndarray) -> float:
    """Norm-based relative difference, safe around zero gradients."""
    a = np.asarray(a, dtype=np.float64).ravel()
    b = np.asarray(b, dtype=np.float64).ravel()
    denom = max(np.linalg.norm(a), np.linalg.norm(b), 1e-12)
    return float(np.linalg.norm(a - b) / denom)


def trainable_names(params: ModelParams) -> list[str]:
    return [
        name
        for name in params.named_arrays()
        if not name.endswith(".mean") and not name.endswith(".var")
    ]


def zero_grad(params: ModelParams) -> np.ndarray:
    """A zero flat gradient buffer for ``lift`` of ``params``."""
    return np.zeros(sum(array.size for array in params.trainable_arrays().values()))


def tiny_model(seed: int, d_x: int = 4, k: int = 3, hidden: int = 4,
               disc_hidden: int = 3) -> ModelParams:
    rng = rng_for(seed, "test", "tiny-model")
    params = init_params(rng, d_x, k, hidden_dim=hidden, disc_hidden=disc_hidden)
    # Randomize norm states so the normalization path is exercised.
    for states in params.norm_states:
        for state in states.values():
            state.gamma[...] = 1.0 + 0.3 * rng.standard_normal(state.gamma.shape)
            state.beta[...] = 0.2 * rng.standard_normal(state.beta.shape)
            state.running_mean[...] = 0.5 * rng.standard_normal(state.running_mean.shape)
            state.running_var[...] = 0.5 + rng.random(state.running_var.shape)
    # Randomize the zero-initialized biases too: with them at exactly zero,
    # a sample whose features die under relu lands the next layer precisely
    # on the relu kink, where finite differences are undefined.
    for name, array in params.named_arrays().items():
        if name.endswith(".bias"):
            array[...] = 0.1 * rng.standard_normal(array.shape)
    return params


def tiny_batch(seed: int, d_x: int = 4, k: int = 3, n_src: int = 3, n_tgt: int = 3):
    """A mixed-domain batch with labels, a random teacher, and domain bits."""
    rng = rng_for(seed, "test", "tiny-batch")
    n = n_src + n_tgt
    x = rng.standard_normal((n, d_x))
    source_rows = np.array([1.0] * n_src + [0.0] * n_tgt).reshape(-1, 1)
    masks = {"source": source_rows, "target": 1.0 - source_rows}
    labels = np.concatenate(
        [rng.integers(0, k, size=n_src), np.full(n_tgt, -1, dtype=np.int64)]
    )
    mask = np.array([True] * n_src + [False] * n_tgt)
    teacher = rng.random((n, k)) + 0.1
    teacher = teacher / teacher.sum(axis=1, keepdims=True)
    domain_labels = np.array([1.0] * n_src + [0.0] * n_tgt).reshape(-1, 1)
    return {
        "x": x,
        "masks": masks,
        "labels": labels,
        "mask": mask,
        "teacher": teacher,
        "domain_labels": domain_labels,
    }


def _loss_node(tape, nodes, params, batch, kind: str, lam: float):
    x = tape.leaf(batch["x"])
    features, _, probs = forward_on_tape(nodes, params, x, batch["masks"])
    if kind == "ce":
        return classification_loss_node(probs, batch["labels"], batch["mask"])
    if kind == "kd":
        return kd_loss_node(probs, batch["teacher"])
    if kind == "ad":
        joint = ad.outer_rows(features, probs)
        d_hat = discriminate_on_tape(nodes, joint, lam)
        return adversarial_loss_node(d_hat, batch["domain_labels"])
    raise ValueError(kind)


def model_loss_value(params, batch, kind: str, lam: float, grad: np.ndarray) -> float:
    """The loss of one forward-only pass; ``grad`` is a flat buffer for
    ``lift``, never written without a backward pass, so one can serve
    every call."""
    tape = ad.Tape()
    nodes = lift(tape, params, grad)
    return float(_loss_node(tape, nodes, params, batch, kind, lam).value[0, 0])


def model_loss_grads(params, batch, kind: str, lam: float = 1.0) -> dict[str, np.ndarray]:
    tape = ad.Tape()
    nodes = lift(tape, params, zero_grad(params))
    loss = _loss_node(tape, nodes, params, batch, kind, lam)
    ad.backward(tape, loss)
    named = nodes.named_nodes()
    return {name: named[name].grad.copy() for name in trainable_names(params)}


def finite_difference_grads(params, batch, kind: str, lam: float = 1.0,
                            h: float = 1e-5) -> dict[str, np.ndarray]:
    """Central differences through the full model, one entry at a time."""
    work = params.copy()
    named = work.named_arrays()
    unused = zero_grad(work)
    grads = {}
    for name in trainable_names(work):
        array = named[name]
        grad = np.zeros_like(array)
        it = np.nditer(array, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            original = array[idx]
            array[idx] = original + h
            plus = model_loss_value(work, batch, kind, lam, unused)
            array[idx] = original - h
            minus = model_loss_value(work, batch, kind, lam, unused)
            array[idx] = original
            grad[idx] = (plus - minus) / (2.0 * h)
        grads[name] = grad
    return grads


def fd_reference_grads(params, batch, kind: str, lam: float = 1.0,
                       h: float = 1e-5) -> dict[str, np.ndarray]:
    """Finite differences with the reversal layer's sign rule applied.

    The reversal layer is the identity in the forward pass, so central
    differences of the adversarial loss observe the true gradient; the
    engine deliberately reports -lam times that for everything upstream
    of the discriminator.  Fold the factor in so the two are comparable.
    """
    numeric = finite_difference_grads(params, batch, kind, lam=lam, h=h)
    if kind == "ad":
        for name, grad in numeric.items():
            if not name.startswith("discriminator."):
                numeric[name] = -lam * grad
    return numeric


# ---------------------------------------------------------------------------
# Independent calibration oracle
# ---------------------------------------------------------------------------


def _mean_winning(source_logits, target_logits, temperature: float) -> float:
    def domain_mean(logits):
        z = logits / temperature
        z = z - z.max(axis=1, keepdims=True)
        ez = np.exp(z)
        return float((ez / ez.sum(axis=1, keepdims=True)).max(axis=1).mean())

    return 0.5 * domain_mean(source_logits) + 0.5 * domain_mean(target_logits)


def grid_scan_temperature(source_logits, target_logits, tau: float,
                          rounds: int = 4, points: int = 400) -> float:
    """Coarse-to-fine scan for the temperature hitting ``tau``; the solver
    under test never sees this code path."""
    lo, hi = 1e-4, 1e4
    root = None
    for _ in range(rounds):
        grid = np.geomspace(lo, hi, points) if root is None else np.linspace(lo, hi, points)
        values = [_mean_winning(source_logits, target_logits, t) for t in grid]
        best = None
        for i in range(len(grid) - 1):
            if (values[i] - tau) * (values[i + 1] - tau) <= 0:
                best = i
                break
        assert best is not None, "scan failed to bracket the calibration target"
        lo, hi = grid[best], grid[best + 1]
        root = 0.5 * (lo + hi)
    return float(root)


# ---------------------------------------------------------------------------
# Brute-force selection oracles
# ---------------------------------------------------------------------------


ScoreRecord = namedtuple("ScoreRecord", "sample_id winning_class winning_score")


def score_records(sample_ids, scores) -> list[ScoreRecord]:
    """One oracle input per score row: its id, argmax class and max score."""
    return [
        ScoreRecord(sid, int(np.argmax(row)), float(np.max(row)))
        for sid, row in zip(sample_ids, np.asarray(scores, dtype=np.float64))
    ]


def _subset_key(scores_by_id, subset):
    total = sum(scores_by_id[sid] for sid in subset)
    return (-total, tuple(sorted(subset)))


def brute_force_global(scores, fraction: float) -> set[str]:
    """Best size-k subset by total winning score, smallest ids on ties."""
    ids = [s.sample_id for s in scores]
    by_id = {s.sample_id: s.winning_score for s in scores}
    k = int(math.floor(fraction * len(ids) + 0.5))
    if k == 0:
        return set()
    best = min(itertools.combinations(ids, k), key=lambda c: _subset_key(by_id, c))
    return set(best)


def brute_force_class_balanced(scores, fraction: float) -> set[str]:
    by_class: dict[int, list] = {}
    for score in scores:
        by_class.setdefault(score.winning_class, []).append(score)
    chosen: set[str] = set()
    for members in by_class.values():
        chosen |= brute_force_global(members, fraction)
    return chosen


# ---------------------------------------------------------------------------
# Self-contained conditional-adversarial reference loop
# ---------------------------------------------------------------------------


def _np_sigmoid(x):
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def _np_softmax(logits, temperature=1.0):
    z = logits / temperature
    z = z - z.max(axis=1, keepdims=True)
    ez = np.exp(z)
    return ez / ez.sum(axis=1, keepdims=True)


def _np_floored_log(v):
    return np.log(np.maximum(v, PROB_FLOOR))


def _np_log_grad(v, g):
    return np.where(v > PROB_FLOOR, g / np.maximum(v, PROB_FLOOR), 0.0)


class _Stream:
    def __init__(self, n, rng):
        self.n, self.rng = n, rng
        self.order = rng.permutation(n)
        self.pos = 0

    def take(self, k):
        out = []
        while len(out) < k:
            if self.pos == self.n:
                self.order = self.rng.permutation(self.n)
                self.pos = 0
            grab = min(k - len(out), self.n - self.pos)
            out.extend(self.order[self.pos : self.pos + grab])
            self.pos += grab
        return np.array(out, dtype=np.int64)


class _MirrorNet:
    """Plain-numpy conditional adversarial net with hand-written backprop."""

    def __init__(self, seed, d_x, k, hidden, disc_hidden, lr_slow, lr_fast):
        rng = rng_for(seed, "init", "run1")

        def glorot(fan_in, fan_out):
            limit = np.sqrt(6.0 / (fan_in + fan_out))
            return rng.uniform(-limit, limit, size=(fan_in, fan_out))

        widths = [d_x, hidden, hidden]
        self.ext = [
            [glorot(a, b), np.zeros((1, b))] for a, b in zip(widths, widths[1:])
        ]
        self.cls = [glorot(hidden, k), np.zeros((1, k))]
        joint = hidden * k
        self.disc = [
            [glorot(joint, disc_hidden), np.zeros((1, disc_hidden))],
            [glorot(disc_hidden, 1), np.zeros((1, 1))],
        ]
        # norm[layer][domain] = [gamma, beta, mean, var]
        self.norm = [
            {
                d: [np.ones((1, w)), np.zeros((1, w)), np.zeros((1, w)), np.ones((1, w))]
                for d in ("source", "target")
            }
            for w in widths[1:]
        ]
        self.k = k
        self._adam_m, self._adam_v, self._adam_t = {}, {}, 0
        self._lr = {}
        for name, arr in self._arrays().items():
            self._adam_m[name] = np.zeros_like(arr)
            self._adam_v[name] = np.zeros_like(arr)
            self._lr[name] = (
                lr_slow if name.startswith(("ext", "norm")) else lr_fast
            )

    def _arrays(self):
        out = {}
        for i, (w, b) in enumerate(self.ext):
            out[f"ext.{i}.w"], out[f"ext.{i}.b"] = w, b
        for i, states in enumerate(self.norm):
            for d, (gamma, beta, _, _) in states.items():
                out[f"norm.{i}.{d}.g"], out[f"norm.{i}.{d}.b"] = gamma, beta
        out["cls.w"], out["cls.b"] = self.cls
        for i, (w, b) in enumerate(self.disc):
            out[f"disc.{i}.w"], out[f"disc.{i}.b"] = w, b
        return out

    # -- forward passes ----------------------------------------------------
    def forward_single(self, x, domain, keep=False):
        """Single-domain forward (used for stats, eval, prediction)."""
        cache = []
        h = x
        for layer, (w, b) in enumerate(self.ext):
            pre = h @ w + b
            gamma, beta, mu, var = self.norm[layer][domain]
            xhat = (pre + (-mu)) * (1.0 / np.sqrt(var))
            y = xhat * gamma + beta
            post = np.maximum(y, 0.0)
            if keep:
                cache.append((pre, xhat, y))
            h = post
        logits = h @ self.cls[0] + self.cls[1]
        p = _np_softmax(logits, 1.0)
        return h, logits, p, cache

    def adapt(self, source_x, target_x):
        for domain, data in (("source", source_x), ("target", target_x)):
            # Stats are estimated layer by layer under the pretrained states.
            h = data
            stats = []
            for layer, (w, b) in enumerate(self.ext):
                pre = h @ w + b
                mu_c = pre.mean(axis=0, keepdims=True)
                var_c = np.maximum(pre.var(axis=0, keepdims=True), 1e-5)
                stats.append((mu_c, var_c))
                gamma, beta, mu, var = self.norm[layer][domain]
                xhat = (pre + (-mu)) * (1.0 / np.sqrt(var))
                h = np.maximum(xhat * gamma + beta, 0.0)
            for layer, (mu_c, var_c) in enumerate(stats):
                gamma, beta, mu_p, var_p = self.norm[layer][domain]
                sqrt_p = np.sqrt(var_p)
                sqrt_c = np.sqrt(var_c)
                gamma_new = gamma * sqrt_c / sqrt_p
                beta_new = beta - (mu_p - mu_c) * gamma / sqrt_p
                self.norm[layer][domain] = [gamma_new, beta_new, mu_c, var_c]
        for name, arr in self._arrays().items():
            self._adam_m[name] = np.zeros_like(arr)
            self._adam_v[name] = np.zeros_like(arr)

    def train_step(self, x, masks, labels, ce_mask, domain_labels, lam):
        """One mixed-batch step; returns (l_ce, l_ad) and applies Adam."""
        n = x.shape[0]
        mask_s, mask_t = masks
        # Forward with per-domain branches blended by masks.
        pres, xhats, ys = [], [], []
        h = x
        posts = [x]
        for layer, (w, b) in enumerate(self.ext):
            pre = h @ w + b
            branch = {}
            for domain, mask in (("source", mask_s), ("target", mask_t)):
                gamma, beta, mu, var = self.norm[layer][domain]
                xhat = (pre + (-mu)) * (1.0 / np.sqrt(var))
                y = xhat * gamma + beta
                branch[domain] = (xhat, y)
            blended = branch["source"][1] * mask_s + branch["target"][1] * mask_t
            post = np.maximum(blended, 0.0)
            pres.append(pre)
            xhats.append(branch)
            ys.append(blended)
            posts.append(post)
            h = post
        f = h
        logits = f @ self.cls[0] + self.cls[1]
        p = _np_softmax(logits, 1.0)

        m_ce = int(ce_mask.sum())
        w_ce = np.zeros((n, self.k))
        for i in np.flatnonzero(ce_mask):
            w_ce[i, labels[i]] = -1.0 / m_ce
        l_ce = float(np.sum(_np_floored_log(p) * w_ce))

        joint = np.einsum("ni,nk->nik", f, p).reshape(n, -1)
        d_pre1 = joint @ self.disc[0][0] + self.disc[0][1]
        d_h1 = np.maximum(d_pre1, 0.0)
        d_logit = d_h1 @ self.disc[1][0] + self.disc[1][1]
        d_hat = _np_sigmoid(d_logit)
        w_pos = -domain_labels / n
        w_neg = -(1.0 - domain_labels) / n
        one_minus = np.ones((n, 1)) + d_hat * -1.0
        term_pos = float(np.sum(_np_floored_log(d_hat) * w_pos))
        term_neg = float(np.sum(_np_floored_log(one_minus) * w_neg))
        l_ad = term_pos + term_neg

        # ---- backward, in the same accumulation order as the engine ----
        grads = {name: np.zeros_like(arr) for name, arr in self._arrays().items()}

        d_dhat = np.where(one_minus > PROB_FLOOR,
                          w_neg / np.maximum(one_minus, PROB_FLOOR), 0.0) * -1.0
        d_dhat = d_dhat + _np_log_grad(d_hat, w_pos)
        d_dlogit = d_dhat * d_hat * (1.0 - d_hat)
        grads["disc.1.w"] += d_h1.T @ d_dlogit
        grads["disc.1.b"] += d_dlogit.sum(axis=0, keepdims=True)
        d_h1_grad = d_dlogit @ self.disc[1][0].T
        d_pre1_grad = d_h1_grad * (d_pre1 > 0.0)
        grads["disc.0.w"] += joint.T @ d_pre1_grad
        grads["disc.0.b"] += d_pre1_grad.sum(axis=0, keepdims=True)
        d_joint = (d_pre1_grad @ self.disc[0][0].T) * (-lam)
        g3 = d_joint.reshape(n, f.shape[1], self.k)
        d_f = np.einsum("nik,nk->ni", g3, p)
        d_p = np.einsum("nik,ni->nk", g3, f)

        d_p = d_p + _np_log_grad(p, w_ce)
        d_logits = (d_p - (d_p * p).sum(axis=1, keepdims=True)) * p / 1.0
        grads["cls.w"] += f.T @ d_logits
        grads["cls.b"] += d_logits.sum(axis=0, keepdims=True)
        d_f = d_f + d_logits @ self.cls[0].T

        d_post = d_f
        for layer in range(len(self.ext) - 1, -1, -1):
            d_blend = d_post * (ys[layer] > 0.0)
            d_pre = np.zeros_like(pres[layer])
            # Target branch first: its nodes sit later on the tape.
            for domain, mask in (("target", mask_t), ("source", mask_s)):
                gamma, beta, mu, var = self.norm[layer][domain]
                xhat, _ = xhats[layer][domain]
                d_y = d_blend * mask
                grads[f"norm.{layer}.{domain}.g"] += (d_y * xhat).sum(axis=0, keepdims=True)
                grads[f"norm.{layer}.{domain}.b"] += d_y.sum(axis=0, keepdims=True)
                d_xhat = d_y * gamma
                d_pre = d_pre + d_xhat * (1.0 / np.sqrt(var))
            grads[f"ext.{layer}.w"] += posts[layer].T @ d_pre
            grads[f"ext.{layer}.b"] += d_pre.sum(axis=0, keepdims=True)
            d_post = d_pre @ self.ext[layer][0].T

        self._adam_t += 1
        t = self._adam_t
        for name, arr in self._arrays().items():
            g = grads[name]
            m = self._adam_m[name]
            v = self._adam_v[name]
            m[...] = 0.9 * m + (1.0 - 0.9) * g
            v[...] = 0.999 * v + (1.0 - 0.999) * (g * g)
            m_hat = m / (1.0 - 0.9 ** t)
            v_hat = v / (1.0 - 0.999 ** t)
            arr -= self._lr[name] * m_hat / (np.sqrt(v_hat) + 1e-8)
        return l_ce, l_ad


def mirror_cdan_run(config, source, target):
    """Reference trace for the pure conditional-adversarial baseline.

    Reimplements init → norm adaptation → mixed-batch training with
    classification + adversarial losses only, sharing nothing with the
    engine beyond the seeded stream helper.  Returns per-episode records
    (l_ce, l_ad, accuracy), the final prediction matrix, and the net.
    """
    d_x = source.features.shape[1]
    k = source.zeroshot.shape[1]
    net = _MirrorNet(
        config.seed, d_x, k, config.hidden_dim, config.disc_hidden,
        config.lr_extractor, config.lr_heads,
    )
    net.adapt(source.features, target.features)

    src_half = math.ceil(config.batch_size / 2)
    tgt_half = config.batch_size // 2
    src_stream = _Stream(len(source.sample_ids), rng_for(config.seed, "batch", "run1", "source"))
    tgt_stream = _Stream(len(target.sample_ids), rng_for(config.seed, "batch", "run1", "target"))
    aug_rng = rng_for(config.seed, "aug", "run1")
    steps = max(
        math.ceil(len(source.sample_ids) / src_half),
        math.ceil(len(target.sample_ids) / tgt_half),
    )

    mask_s = np.array(
        [[1.0]] * src_half + [[0.0]] * tgt_half + [[1.0]] * src_half + [[0.0]] * tgt_half
    )
    mask_t = 1.0 - mask_s
    ce_mask = mask_s[:, 0].astype(bool)
    domain_labels = mask_s.copy()

    records = []
    for episode in range(config.episodes):
        ce_trace, ad_trace = [], []
        for _ in range(steps):
            src_idx = src_stream.take(src_half)
            tgt_idx = tgt_stream.take(tgt_half)
            noise = aug_rng.standard_normal((src_half + tgt_half, d_x)) * config.augment_noise
            src_x = source.features[src_idx]
            tgt_x = target.features[tgt_idx]
            batch_x = np.concatenate(
                [src_x, tgt_x, src_x + noise[:src_half], tgt_x + noise[src_half:]], axis=0
            )
            labels = np.concatenate(
                [source.labels[src_idx], np.full(tgt_half, -1, dtype=np.int64)] * 2
            )
            l_ce, l_ad = net.train_step(
                batch_x, (mask_s, mask_t), labels, ce_mask, domain_labels,
                config.lambda_value,
            )
            ce_trace.append(l_ce)
            ad_trace.append(l_ad)
        _, _, p_eval, _ = net.forward_single(target.features, "target")
        accuracy = float((p_eval.argmax(axis=1) == target.labels).mean())
        records.append(
            (episode, float(np.mean(ce_trace)), float(np.mean(ad_trace)), accuracy)
        )
    _, _, predictions, _ = net.forward_single(target.features, "target")
    return records, predictions, net
