"""Losses and training for the fusion network.

The objective is voxel-wise cross-entropy plus the Lovasz-Softmax
surrogate of the Jaccard loss, evaluated on softmax probabilities of the
splatted channel grid. Gradients flow analytically from the loss through
splatting into the fusion network parameters; Gaussian attributes coming
out of the simulator are constants. The trainer is a deterministic
AdamW loop with linear warmup and cosine decay.

Concurrency. `train` and `train_calibration` hold a two-thread team for
their whole call (see the `gsfusion.core` docstring). A step with a
batch of two or more runs its examples two at a time; a batch of one
runs its example on the calling thread, whose stages then split their
own work, the loss its voxel halves and its present classes among them.
Either way the results equal a one-thread sequential run's bit for bit.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from gsfusion.core import (
    GaussianSet,
    GridGeometry,
    _each,
    _halves,
    _two_threads,
    check_int_fields,
)
from gsfusion.fusion import (
    FusionConfig,
    FusionParams,
    _pack_tensors,
    _unpack_tensors,
    fuse_scene,
    fusion_backward,
    scene_neighbors,
)
from gsfusion.splat import (
    SparseChannels,
    SplatConfig,
    splat,
    splat_backward,
    splat_sparse,
)


class DivergenceError(RuntimeError):
    """Training hit a non-finite loss."""


# ---------------------------------------------------------------------------
# losses
# ---------------------------------------------------------------------------

@dataclass
class LossReport:
    ce: float
    lovasz: float
    total: float
    per_class_lovasz: np.ndarray

    def validate(self) -> None:
        if not (np.isfinite(self.ce) and np.isfinite(self.lovasz)
                and np.isfinite(self.total)):
            raise DivergenceError("non-finite loss")


def _voxel_labels(values: np.ndarray, labels, name: str) -> np.ndarray:
    """`labels` flattened to one class index per voxel of `values`, whose
    last axis is the class axis. Labels that are not integers, a count
    other than one per voxel, no voxel at all, or a class out of range is a
    ValueError."""
    num_classes = values.shape[-1]
    voxels = math.prod(values.shape[:-1])
    flat_l = np.asarray(labels).reshape(-1)
    if not np.issubdtype(flat_l.dtype, np.integer):
        raise ValueError(f"{name}: labels must be integers, not {flat_l.dtype}")
    if flat_l.size != voxels:
        raise ValueError(f"{name}: {flat_l.size} labels for {voxels} voxels")
    if voxels == 0:
        raise ValueError(f"{name} needs at least one voxel")
    if np.any((flat_l < 0) | (flat_l >= num_classes)):
        raise ValueError("label out of range")
    return flat_l


def softmax_probs(channels: np.ndarray) -> np.ndarray:
    """Per-voxel softmax over the class axis (the last one), in two halves
    of the voxels on an idle team (`gsfusion.core._halves`). The row max
    is a fold of `np.maximum` over the class columns, and the subtract,
    exp and normalize run in place in the output."""
    ch = np.asarray(channels, dtype=np.float64)
    flat = ch.reshape(-1, ch.shape[-1])
    out = np.empty(flat.shape)
    halves = _halves(flat.shape[0])

    def half(k):
        rows, o = flat[halves[k]], out[halves[k]]
        top = rows[:, 0].copy()
        for column in rows.T[1:]:
            np.maximum(top, column, out=top)
        np.subtract(rows, top[:, None], out=o)
        np.exp(o, out=o)
        o /= np.sum(o, axis=-1, keepdims=True)

    _each(half, len(halves))
    return out.reshape(ch.shape)


def cross_entropy(probs: np.ndarray, labels: np.ndarray):
    """Mean negative log-probability of the true class.

    Returns (loss, gradient w.r.t. the channel logits), the gradient being
    (probs - onehot) / n_voxels. The per-voxel terms and gradient rows are
    formed in two halves of the voxels on an idle team, the mean once over
    all terms.
    """
    flat_l = _voxel_labels(probs, labels, "cross_entropy")
    flat_p = probs.reshape(-1, probs.shape[-1])
    n = flat_l.size
    nll = np.empty(n)
    grad = np.empty_like(flat_p)
    halves = _halves(n)

    def half(k):
        h = halves[k]
        rows = np.arange(h.stop - h.start)
        p = flat_p[h]
        np.negative(np.log(np.maximum(p[rows, flat_l[h]], 1e-300)), out=nll[h])
        g = grad[h]
        g[...] = p
        g[rows, flat_l[h]] -= 1.0
        g /= n

    _each(half, len(halves))
    return float(np.mean(nll)), grad.reshape(probs.shape)


def _lovasz_grad_sorted(fg_sorted: np.ndarray) -> np.ndarray:
    """Gradient of the Jaccard-loss Lovasz extension along sorted errors.

    `fg_sorted` is the foreground indicator (bool or 0/1) in error order.
    Every count here is a small integer, exact in float64, so `gts + i + 1
    - cumsum(fg)` equals `gts + cumsum(1 - fg)` bit for bit."""
    fg_count = np.add.accumulate(fg_sorted, dtype=np.float64)
    gts = fg_count[-1]
    union = np.arange(gts + 1.0, gts + 1.0 + fg_count.size) - fg_count
    jaccard = 1.0 - (gts - fg_count) / union
    jaccard[1:] -= jaccard[:-1]         # ufuncs buffer overlapping operands
    return jaccard


def _stable_descending_order(x: np.ndarray) -> np.ndarray:
    """`np.argsort(-x, kind="stable")`, from an unstable sort and a repair
    of its tie runs.

    The unstable sort puts equal keys next to each other, in some order.
    Numbering those runs of equal keys (NaNs, which sort last, form one
    run) and sorting the unique int64 keys `run * n + index` keeps the
    runs where they are and puts each run in ascending index order, which
    is the stable sort's order."""
    key = -x
    order = np.argsort(key)
    sorted_key = key[order]
    new_run = sorted_key[1:] != sorted_key[:-1]
    new_run[np.searchsorted(sorted_key, np.nan):] = False    # NaN != NaN
    run_base = np.add.accumulate(new_run, dtype=np.int64)    # runs of positions 1..n-1
    run_base *= order.size
    order[1:] += run_base
    order.sort()
    order[1:] -= run_base
    return order


def _lovasz_class(p: np.ndarray, fg: np.ndarray, classes: int, out: np.ndarray) -> float:
    """Lovasz loss of one present class, from its probabilities `p` and
    foreground `fg`; writes the loss gradient w.r.t. `p`, divided by the
    count of present `classes`, into `out`."""
    err = fg - p
    np.abs(err, out=err)
    order = _stable_descending_order(err)
    g = _lovasz_grad_sorted(fg[order])
    loss = float(err[order] @ g)
    err[order] = g                              # spent: now the gradient
    np.negative(err, out=err, where=fg)         # d|fg - p|/dp = -1 on fg
    np.divide(err, classes, out=out)
    return loss


def lovasz_softmax(probs: np.ndarray, labels: np.ndarray):
    """Lovasz extension of the per-class Jaccard loss, averaged over the
    classes present in `labels`.

    Returns (loss, gradient w.r.t. probs, per-class vector); the vector
    holds zeros for classes absent from the labels. The gradient is a
    C-contiguous float64 array of `probs.shape`.

    Each class sorts its errors in descending order with ties broken by
    ascending voxel index: the order of `np.argsort(-err, kind="stable")`.
    It comes from a faster unstable sort whose runs of equal errors are
    then put in index order by sorting the int64 keys `run * n + index`
    (see `_stable_descending_order`). Every such key is unique, so that
    sort has one result whichever algorithm makes it, and it is the
    stable order. The errors, the Jaccard counts and the sign flip round
    as a per-class loop over a stable sort does, so loss and gradient are
    bit-identical to it. Each present class writes its gradient column,
    already divided by the present-class count, straight into the
    voxel-major gradient, and the present classes split even and odd
    (`gsfusion.core._each`); an absent class's column stays zero.
    """
    num_classes = probs.shape[-1]
    flat_l = _voxel_labels(probs, labels, "lovasz_softmax")
    flat_p = probs.reshape(-1, num_classes)
    grad = np.zeros(flat_p.shape)
    per_class = np.zeros(num_classes)
    present = np.flatnonzero(np.bincount(flat_l, minlength=num_classes))

    def present_class(k):               # writes only its own column and entry
        c = present[k]
        per_class[c] = _lovasz_class(flat_p[:, c], flat_l == c, present.size, grad[:, c])

    _each(present_class, present.size)
    loss = float(per_class[present].mean())
    return loss, grad.reshape(probs.shape), per_class


def total_loss(channels: np.ndarray, labels: np.ndarray):
    """Cross-entropy plus Lovasz-Softmax on softmaxed channels.

    Returns (LossReport, gradient w.r.t. channels). On an idle team the
    softmax, the cross-entropy's per-voxel terms and the softmax VJP run
    over two halves of the voxels, the Lovasz classes even and odd
    (`gsfusion.core._each`). The VJP, probs * (g - sum(probs * g)) for
    the Lovasz gradient g, works in place in g's buffer and is added to
    the cross-entropy gradient.
    """
    _voxel_labels(channels, labels, "total_loss")
    probs = softmax_probs(channels)
    ce, grad = cross_entropy(probs, labels)
    lov, grad_lov_p, per_class = lovasz_softmax(probs, labels)
    rows = [a.reshape(-1, probs.shape[-1]) for a in (grad, probs, grad_lov_p)]
    halves = _halves(rows[0].shape[0])

    def half(k):
        g, p, g_lov = (a[halves[k]] for a in rows)
        g_lov -= np.sum(p * g_lov, axis=-1, keepdims=True)
        g_lov *= p
        g += g_lov

    _each(half, len(halves))
    report = LossReport(ce=ce, lovasz=lov, total=ce + lov, per_class_lovasz=per_class)
    return report, grad


# ---------------------------------------------------------------------------
# optimizer and schedule
# ---------------------------------------------------------------------------

@dataclass
class TrainConfig:
    steps: int = 300
    warmup_steps: int = 50
    peak_lr: float = 2e-4
    weight_decay: float = 0.01
    batch: int = 2
    seed: int = 0

    def __post_init__(self):
        check_int_fields(self)
        if self.peak_lr < 0:
            raise ValueError("peak_lr must be non-negative")
        if self.batch < 1:
            raise ValueError("batch must be at least 1")


def lr_at(step: int, cfg: TrainConfig) -> float:
    """Linear warmup to peak_lr, then cosine decay to zero."""
    if cfg.steps == 0:
        return 0.0
    if step < cfg.warmup_steps:
        return cfg.peak_lr * (step + 1) / max(cfg.warmup_steps, 1)
    span = max(cfg.steps - cfg.warmup_steps, 1)
    t = (step - cfg.warmup_steps) / span
    return cfg.peak_lr * 0.5 * (1.0 + np.cos(np.pi * t))


_BETA1, _BETA2, _ADAM_EPS = 0.9, 0.999, 1e-8       # AdamW's fixed betas and eps


class AdamW:
    """Decoupled weight-decay Adam over a dict of parameter arrays.

    Updates in place; `step` takes the gradient dict and the learning rate
    for this step.
    """

    def __init__(self, params: dict[str, np.ndarray], weight_decay: float = 0.01):
        self.params = params
        self.weight_decay = weight_decay
        self.t = 0
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}

    def step(self, grads: dict[str, np.ndarray], lr: float) -> None:
        self.t += 1
        b1c = 1.0 - _BETA1**self.t
        b2c = 1.0 - _BETA2**self.t
        for k, p in self.params.items():
            g = grads[k]
            self.m[k] = _BETA1 * self.m[k] + (1.0 - _BETA1) * g
            self.v[k] = _BETA2 * self.v[k] + (1.0 - _BETA2) * g * g
            mhat = self.m[k] / b1c
            vhat = self.v[k] / b2c
            p -= lr * (mhat / (np.sqrt(vhat) + _ADAM_EPS) + self.weight_decay * p)


def _minibatch_adamw(opt: AdamW, count: int, cfg: TrainConfig, stream: int, example,
                     log_every: int = 0):
    """The AdamW loop of `train` and `train_calibration`: each step draws a
    batch of the `count` examples, seeded by (cfg.seed, stream), averages
    the (LossReport, gradients keyed like opt.params) of `example(i)` over
    it in batch order and steps `opt`; `_each` runs the batch, two examples
    at a time on the caller's team. Returns the curve rows (step, ce,
    lovasz, total)."""
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, stream]))
    take = min(cfg.batch, count)
    curve = []
    for step in range(cfg.steps):
        idx = rng.choice(count, size=take, replace=False)
        mean_grads = {k: np.zeros_like(v) for k, v in opt.params.items()}
        ce = lov = tot = 0.0
        for report, grads in _each(lambda k: example(idx[k]), take):
            report.validate()
            ce += report.ce / take
            lov += report.lovasz / take
            tot += report.total / take
            for k in mean_grads:
                mean_grads[k] += grads[k] / take
        if not np.isfinite(tot):
            raise DivergenceError(f"loss diverged at step {step}")
        opt.step(mean_grads, lr_at(step, cfg))
        for k, v in opt.params.items():
            if not np.all(np.isfinite(v)):
                raise DivergenceError(f"parameter {k} became non-finite at step {step}")
        curve.append((step, ce, lov, tot))
        if log_every and step % log_every == 0:
            print(f"step {step:4d}  lr {lr_at(step, cfg):.2e}  "
                  f"ce {ce:.4f}  lovasz {lov:.4f}  total {tot:.4f}")
    return curve


# ---------------------------------------------------------------------------
# training data and loops
# ---------------------------------------------------------------------------

@dataclass
class TrainExample:
    """One scene from the ego agent's point of view.

    fusion_input: the set the fusion network refines (the stacked ego +
    received set, mirroring the learned episode path); received: the
    neighbor pool; fixed: constant Gaussians splatted alongside (the
    empty-space prior), exempt from fusion and gradients.

    `fixed` is rendered once, apart from the fused set, and its render is
    added to the fused set's channels. For the one-row prior this is bit
    for bit the splat of the fused set with `fixed` appended; a `fixed`
    of several rows agrees with that only up to summation order (see the
    `gsfusion.splat` module docstring).
    """

    fusion_input: GaussianSet
    received: list[GaussianSet]
    fixed: GaussianSet
    gt_labels: np.ndarray
    geometry: GridGeometry


def scene_loss_and_grads(example: TrainExample, fusion_cfg: FusionConfig,
                         splat_cfg: SplatConfig, params: FusionParams,
                         want_grads: bool = True, neighbors=None,
                         fixed_render: SparseChannels | None = None):
    """Forward pass of one scene and, optionally, parameter gradients.
    `neighbors` is the example's `scene_neighbors` and `fixed_render` its
    `splat_sparse` of `example.fixed`; each is computed when not given.
    Gradients flow back through the splat's tape and then the fusion's; a
    loss-only call (want_grads=False) records neither tape."""
    fused = fuse_scene(example.fusion_input, example.received,
                       fusion_cfg, params, record=want_grads, neighbors=neighbors)
    if want_grads:
        fused, tape = fused
    if fixed_render is None:
        fixed_render = splat_sparse(example.fixed, example.geometry, splat_cfg)
    grid = splat(fused, example.geometry, splat_cfg, record=want_grads)
    if want_grads:
        grid, splat_tape = grid
    channels = fixed_render.add_to(grid.channels)
    report, grad_ch = total_loss(channels, example.gt_labels)
    if not want_grads:
        return report, None
    if tape is None:
        grads = {k: np.zeros_like(v) for k, v in params.as_dict().items()}
        return report, grads
    return report, fusion_backward(tape, splat_backward(splat_tape, grad_ch))


def train(params0: FusionParams, dataset: list[TrainExample], cfg: TrainConfig,
          fusion_cfg: FusionConfig | None = None,
          splat_cfg: SplatConfig | None = None,
          log_every: int = 0):
    """AdamW training of the fusion network on fixed synthetic scenes.

    Deterministic given cfg.seed. Returns (trained params, curve) where
    curve rows are (step, ce, lovasz, total) averaged over the batch.
    Raises DivergenceError on a non-finite loss.
    """
    if not dataset:
        raise ValueError("empty training dataset")
    fusion_cfg = fusion_cfg or FusionConfig()
    splat_cfg = splat_cfg or SplatConfig()
    params = params0.copy()

    # the fusion inputs and fixed sets are constants, so each example's
    # neighbour search and fixed render are done once: items 2i and 2i + 1
    def constants(k):
        ex = dataset[k // 2]
        if k % 2 == 0:
            return scene_neighbors(ex.fusion_input, ex.received, fusion_cfg)
        return splat_sparse(ex.fixed, ex.geometry, splat_cfg)

    def example(i):
        return scene_loss_and_grads(dataset[i], fusion_cfg, splat_cfg, params,
                                    neighbors=neighbors[i], fixed_render=fixed_renders[i])

    opt = AdamW(params.as_dict(), weight_decay=cfg.weight_decay)
    with _two_threads():
        prepared = _each(constants, 2 * len(dataset))
        neighbors, fixed_renders = prepared[::2], prepared[1::2]
        return params, _minibatch_adamw(opt, len(dataset), cfg, 0x7E41, example, log_every)


# ---------------------------------------------------------------------------
# naive-mode per-class channel calibration
# ---------------------------------------------------------------------------

@dataclass
class Calibration:
    """Per-class multiplicative channel gains; exp(0) = exact identity."""

    log_gain: np.ndarray

    def __post_init__(self):
        self.log_gain = np.asarray(self.log_gain, dtype=np.float64).reshape(-1)

    @staticmethod
    def identity(num_classes: int) -> "Calibration":
        return Calibration(np.zeros(num_classes))

    def apply(self, channels: np.ndarray) -> np.ndarray:
        return channels * np.exp(self.log_gain)

    def copy(self) -> "Calibration":
        return Calibration(self.log_gain.copy())


def save_calibration(cal: Calibration, path) -> None:
    with open(path, "wb") as f:
        f.write(_pack_tensors([cal.log_gain]))


def load_calibration(path) -> Calibration:
    with open(path, "rb") as f:
        tensors = _unpack_tensors(f.read())
    if len(tensors) != 1:
        raise ValueError(f"expected 1 tensor for Calibration, found {len(tensors)}")
    return Calibration(tensors[0][:, 0])


def train_calibration(cal0: Calibration, channel_examples: list[tuple[np.ndarray, np.ndarray]],
                      cfg: TrainConfig):
    """Train the per-class gains on precomputed (channels, labels) pairs.

    The stacked channels are constant in naive mode, so each step only
    recalibrates and re-evaluates the loss.
    """
    if not channel_examples:
        raise ValueError("empty training dataset")
    cal = cal0.copy()

    def example(i):
        channels, labels = channel_examples[i]
        gain = np.exp(cal.log_gain)
        report, grad_ch = total_loss(channels * gain, labels)
        # the loop divides by the batch size after this product
        return report, {"log_gain": np.sum(grad_ch * channels,
                                           axis=tuple(range(channels.ndim - 1))) * gain}

    opt = AdamW({"log_gain": cal.log_gain}, weight_decay=cfg.weight_decay)
    with _two_threads():
        return cal, _minibatch_adamw(opt, len(channel_examples), cfg, 0x7E42, example)


def write_loss_curve(path, curve) -> None:
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["step", "ce", "lovasz", "total"])
        for row in curve:
            writer.writerow([row[0], f"{row[1]:.10g}", f"{row[2]:.10g}", f"{row[3]:.10g}"])
