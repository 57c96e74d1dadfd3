"""Losses and training for the fusion network.

The objective is voxel-wise cross-entropy plus the Lovasz-Softmax
surrogate of the Jaccard loss, evaluated on softmax probabilities of the
splatted channel grid. Gradients flow analytically from the loss through
splatting into the fusion network parameters; Gaussian attributes coming
out of the simulator are constants. The trainer is a deterministic
AdamW loop with linear warmup and cosine decay.

Concurrency. Two loops run two items at a time through `_batch_runner`:
a training step with a batch of two or more examples, and the per-ego
render of an episode with two or more agents (`gsfusion.sim.run_episode`).
The calling thread takes the even positions, one worker thread the odd
ones, and the results come back in order, so a step's reports and
gradients are summed in batch order, as a sequential loop sums them. The
worker is made for one `train`, `train_calibration` or `run_episode` call
and joined before it returns; it never submits work of its own. While
such a loop runs, both threads hold BLAS to one thread through OpenBLAS's
per-thread setter, so two items do not contend for the cores through
BLAS's own threads, and the results equal a one-thread sequential run's
bit for bit, whatever the process's BLAS thread count. So such a loop
uses two cores however many threads BLAS would otherwise use; this was
measured only on a 2-core machine, where it is faster, and may be slower
on a host whose BLAS would give each item more than two threads. A batch
of one and an episode of one agent run on the calling thread with BLAS
untouched, and so does every loop when numpy's BLAS has no per-thread
setter.
"""

from __future__ import annotations

import csv
import ctypes
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from gsfusion.core import GaussianSet, GridGeometry
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


def softmax_probs(channels: np.ndarray) -> np.ndarray:
    """Per-voxel softmax over the class axis (the last one)."""
    ch = np.asarray(channels, dtype=np.float64)
    shifted = ch - np.max(ch, axis=-1, keepdims=True)
    ex = np.exp(shifted)
    return ex / np.sum(ex, axis=-1, keepdims=True)


def softmax_vjp(probs: np.ndarray, grad_probs: np.ndarray) -> np.ndarray:
    """Chain a gradient w.r.t. probabilities back to the channel logits."""
    inner = np.sum(probs * grad_probs, axis=-1, keepdims=True)
    return probs * (grad_probs - inner)


def cross_entropy(probs: np.ndarray, labels: np.ndarray):
    """Mean negative log-probability of the true class.

    Returns (loss, gradient w.r.t. the channel logits), the gradient being
    (probs - onehot) / n_voxels.
    """
    num_classes = probs.shape[-1]
    flat_p = probs.reshape(-1, num_classes)
    flat_l = np.asarray(labels).reshape(-1)
    if np.any((flat_l < 0) | (flat_l >= num_classes)):
        raise ValueError("label out of range")
    n = flat_l.shape[0]
    p_true = flat_p[np.arange(n), flat_l]
    loss = float(np.mean(-np.log(np.maximum(p_true, 1e-300))))
    grad = flat_p.copy()
    grad[np.arange(n), flat_l] -= 1.0
    grad /= n
    return loss, grad.reshape(probs.shape)


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


def _lovasz_class(row: np.ndarray, fg: np.ndarray) -> float:
    """Lovasz loss of one present class; overwrites `row`, that class's
    probabilities, with the loss gradient w.r.t. them."""
    err = fg - row
    np.abs(err, out=err)
    order = _stable_descending_order(err)
    g = _lovasz_grad_sorted(fg[order])
    loss = float(err[order] @ g)
    row[order] = g
    np.negative(row, out=row, where=fg)         # d|fg - p|/dp = -1 on fg
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
    bit-identical to it. The work runs class-major on one copy of `probs`,
    whose rows become the gradient rows.
    """
    num_classes = probs.shape[-1]
    flat_l = np.asarray(labels).reshape(-1)
    if flat_l.size == 0:
        raise ValueError("lovasz_softmax needs at least one voxel")
    if np.any((flat_l < 0) | (flat_l >= num_classes)):
        raise ValueError("label out of range")
    rows = np.array(probs.reshape(-1, num_classes).T, dtype=np.float64, order="C")
    per_class = np.zeros(num_classes)
    present = np.unique(flat_l)
    absent = np.ones(num_classes, dtype=bool)
    absent[present] = False
    rows[absent] = 0.0
    for c in present:
        per_class[c] = _lovasz_class(rows[c], flat_l == c)
    loss = float(per_class[present].mean())
    grad = np.empty(rows.shape[::-1])
    np.divide(rows.T, present.size, out=grad)
    return loss, grad.reshape(probs.shape), per_class


def total_loss(channels: np.ndarray, labels: np.ndarray):
    """Cross-entropy plus Lovasz-Softmax on softmaxed channels.

    Returns (LossReport, gradient w.r.t. channels).
    """
    probs = softmax_probs(channels)
    ce, grad_ce = cross_entropy(probs, labels)
    lov, grad_lov_p, per_class = lovasz_softmax(probs, labels)
    grad = grad_ce + softmax_vjp(probs, grad_lov_p)
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
        if self.steps < 0:
            raise ValueError("steps must be non-negative")
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


def _blas_threads_setter():
    """OpenBLAS's `openblas_set_num_threads_local(n)`, which sets the BLAS
    thread count of the calling thread only and returns the previous one,
    or None when numpy's BLAS has no such symbol. It is looked up through
    numpy's own extension module, whose dependencies the loader searches,
    so it is the setter of the BLAS numpy calls."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:                                 # numpy 1.x
        from numpy.core import _multiarray_umath as umath
    try:
        setter = ctypes.CDLL(umath.__file__).openblas_set_num_threads_local
    except (OSError, AttributeError):
        return None
    setter.argtypes, setter.restype = [ctypes.c_int], ctypes.c_int
    return setter


_set_blas_threads = _blas_threads_setter()


@contextmanager
def _batch_runner(example, take: int):
    """A function that returns the results of `example(i)` for a batch of
    `take` positions `idx`, in batch order, two at a time when it can (see
    the module docstring). The worker lives as long as the runner, and the
    calling thread's BLAS thread count is restored when the runner ends."""
    if take < 2 or _set_blas_threads is None:
        yield lambda idx: [example(i) for i in idx]
        return
    previous = _set_blas_threads(1)
    try:
        with ThreadPoolExecutor(max_workers=1, initializer=_set_blas_threads,
                                initargs=(1,)) as worker:
            def run_batch(idx):
                theirs = worker.submit(lambda: [example(i) for i in idx[1::2]])
                results = [None] * len(idx)
                results[::2] = [example(i) for i in idx[::2]]
                results[1::2] = theirs.result()
                return results

            yield run_batch
    finally:
        _set_blas_threads(previous)


def _minibatch_adamw(opt: AdamW, count: int, cfg: TrainConfig, stream: int, example,
                     log_every: int = 0):
    """The AdamW loop of `train` and `train_calibration`: each step draws a
    batch of the `count` examples, seeded by (cfg.seed, stream), averages
    the (LossReport, gradients keyed like opt.params) of `example(i)` over
    it in batch order and steps `opt`; `_batch_runner` runs the batch.
    Returns the curve rows (step, ce, lovasz, total)."""
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, stream]))
    take = min(cfg.batch, count)
    curve = []
    with _batch_runner(example, take) as run_batch:
        for step in range(cfg.steps):
            idx = rng.choice(count, size=take, replace=False)
            mean_grads = {k: np.zeros_like(v) for k, v in opt.params.items()}
            ce = lov = tot = 0.0
            for report, grads in run_batch(idx):
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
    # neighbour search and fixed render are done once
    neighbors = [scene_neighbors(ex.fusion_input, ex.received, fusion_cfg) for ex in dataset]
    fixed_renders = [splat_sparse(ex.fixed, ex.geometry, splat_cfg) for ex in dataset]

    def example(i):
        return scene_loss_and_grads(dataset[i], fusion_cfg, splat_cfg, params,
                                    neighbors=neighbors[i], fixed_render=fixed_renders[i])

    opt = AdamW(params.as_dict(), weight_decay=cfg.weight_decay)
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
    return cal, _minibatch_adamw(opt, len(channel_examples), cfg, 0x7E42, example)


def write_loss_curve(path, curve) -> None:
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["step", "ce", "lovasz", "total"])
        for row in curve:
            writer.writerow([row[0], f"{row[1]:.10g}", f"{row[2]:.10g}", f"{row[3]:.10g}"])
