"""Cross-agent Gaussian fusion.

Every ego Gaussian gathers received Gaussians inside a radius-rho ball,
turns each (ego, neighbor) pair into a 45-dim feature, maps it through a
small MLP into a refinement proposal, pools proposals across the
neighborhood (uniform weights or a learned softmax), and applies the
pooled update; semantics are blended with a confidence weight so a
confidently labeled ego Gaussian resists being overwritten. Gaussians
with no neighbors pass through bit-for-bit unchanged.

Each stage exists once, as a batched function over all (ego, neighbor)
pairs of a scene, and `fuse_scene` is the one path that chains them.
`propose`, `pool` and `confidence` are per-item adapters over those
stages (one pair feature, one neighborhood, one class vector) with no
arithmetic of their own.

The forward pass can record a tape from which `fusion_backward` produces
analytic parameter gradients; `learn` drives that during training. The
tape keeps each block's pair features once, in the buffer padded to
whole row tiles that the MLP ran over, and not the MLP's two hidden
layers (2 KB a pair): `fusion_backward` recomputes them block by block
from that buffer through the same products, so they carry the forward's
bits and the gradients are those of a backward over kept layers
(checkpointing, Chen et al. 2016, arXiv:1604.06174).

Bounded blocks. A segment is one ego's neighbour list. `fuse_scene` runs
every stage over blocks of whole segments, writes a block's fused rows,
and without a tape drops the block's per-pair arrays before the next
block starts, so its memory no longer grows with the pair count. The
blocks are k near-equal runs of whole segments (`core._whole_runs`):
k is ceil(pairs / `_FUSE_BLOCK`), rounded up to an even number when
above one and raised by two while a block would hold more than
`_FUSE_BLOCK` pairs (a longer segment is a block of its own), and each
block lies within one segment of pairs / k. The count is even because a
team's two threads take alternate blocks: greedy packing's odd count and
short last block, [4096, 4096, 2678] pairs on the `paper_infer` training
example, left one thread idle through the last block of the forward and
of the backward.

The fused output is bit-identical to one whole-scene pass: segments are
never split, so the softmax, pooling and blend see the same numbers in
the same order, and every other stage is computed row by row. The gemms
are row by row too: every product runs over a multiple of `_ROW_TILE`
rows (`_pad_rows`), and over whole tiles a row's bits depend only on its
own inputs, whatever the block, on every OpenBLAS kernel and thread
count `tests/test_fusion.py` covers. The tape keeps one record per
block, and `fusion_backward` sums the blocks' parameter gradients in
block order; that sum is the one place where the summation order
differs from a single-block backward, so it is the only output that
moves when the cuts move (by under 2e-13 relative in any trained
parameter of the benchmark's runs). On an idle team (see the
`gsfusion.core` docstring) the forward's blocks run on either thread,
each writing only its own fused rows, and the backward forms two
blocks' gradients at a time, each in its own dict, still summed in
block order, so the bits are those of the inline run.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from gsfusion.core import (
    NUM_CLASSES,
    GaussianSet,
    _canonical_sign,
    _each,
    _each_folded,
    _whole_runs,
    check_int_fields,
)

FPRM_MAGIC = b"FPRM"
FPRM_VERSION = 1

HIDDEN_DIM = 128
PROJ_DIM = 32
SCALE_FLOOR = 1e-4
# the largest proposal scale: every pooled scale then lies within a ratio of
# 5e5 of the floor, so a fused covariance's condition number stays below the
# splat's 1e12 with room for the pooled sums' rounding
SCALE_CEIL = 50.0
_FUSE_BLOCK = 1 << 12                  # the most pairs a block of several segments holds
_ROW_TILE = 64                         # every product runs over a multiple of this many rows


@dataclass(frozen=True)
class FusionConfig:
    radius_rho: float = 0.4
    pooling: str = "attention"          # "mean" | "attention"
    epsilon: float = 1e-8
    max_neighbors: int = 64

    def __post_init__(self):
        check_int_fields(self)
        if self.radius_rho <= 0:
            raise ValueError("radius_rho must be positive")
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")
        if self.pooling not in ("mean", "attention"):
            raise ValueError("pooling must be 'mean' or 'attention'")
        if self.max_neighbors < 1:
            raise ValueError("max_neighbors must be at least 1")


def ego_feature_dim(num_classes: int = NUM_CLASSES) -> int:
    return 11 + num_classes            # mean 3 + scale 3 + quat 4 + opacity 1 + classes


def rel_feature_dim(num_classes: int = NUM_CLASSES) -> int:
    return 8 + num_classes             # dmean 3 + dscale 3 + |cos| 1 + opacity 1 + classes


def pair_feature_dim(num_classes: int = NUM_CLASSES) -> int:
    return ego_feature_dim(num_classes) + rel_feature_dim(num_classes)


@dataclass
class FusionParams:
    """Learned state: proposal MLP weights plus attention projections."""

    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray
    w3: np.ndarray
    b3: np.ndarray
    q_proj: np.ndarray
    k_proj: np.ndarray

    _ORDER = ("w1", "b1", "w2", "b2", "w3", "b3", "q_proj", "k_proj")

    def __post_init__(self):
        for name in self._ORDER:
            setattr(self, name, np.asarray(getattr(self, name), dtype=np.float64))

    def validate(self) -> None:
        for name in self._ORDER:
            if not np.all(np.isfinite(getattr(self, name))):
                raise ValueError(f"non-finite entries in FusionParams.{name}")

    def as_dict(self) -> dict[str, np.ndarray]:
        return {name: getattr(self, name) for name in self._ORDER}

    def copy(self) -> "FusionParams":
        return FusionParams(**{k: v.copy() for k, v in self.as_dict().items()})

    @property
    def num_classes(self) -> int:
        return self.w3.shape[0] - 11

    @staticmethod
    def zeros(num_classes: int = NUM_CLASSES, hidden: int = HIDDEN_DIM,
              d_proj: int = PROJ_DIM) -> "FusionParams":
        zin = pair_feature_dim(num_classes)
        out = ego_feature_dim(num_classes)
        return FusionParams(
            np.zeros((hidden, zin)), np.zeros(hidden),
            np.zeros((hidden, hidden)), np.zeros(hidden),
            np.zeros((out, hidden)), np.zeros(out),
            np.zeros((d_proj, ego_feature_dim(num_classes))),
            np.zeros((d_proj, rel_feature_dim(num_classes))),
        )

    @staticmethod
    def init(seed: int = 0, num_classes: int = NUM_CLASSES, hidden: int = HIDDEN_DIM,
             d_proj: int = PROJ_DIM) -> "FusionParams":
        """He-initialized hidden layers with per-column input scaling (raw
        positions span tens of meters while class weights are order one),
        a small output layer, and output biases that make untrained
        proposals mild: thin mid-range scales, high opacity, low semantic
        mass, near-identity rotation."""
        rng = np.random.default_rng(np.random.SeedSequence([seed, 0xF05]))
        zin = pair_feature_dim(num_classes)
        out = ego_feature_dim(num_classes)
        col_scale = 1.0 / _feature_spans(num_classes)
        p = FusionParams(
            rng.normal(0.0, np.sqrt(2.0 / zin), (hidden, zin)) * col_scale,
            np.zeros(hidden),
            rng.normal(0.0, np.sqrt(2.0 / hidden), (hidden, hidden)), np.zeros(hidden),
            rng.normal(0.0, 0.01, (out, hidden)), np.zeros(out),
            rng.normal(0.0, 1.0 / np.sqrt(ego_feature_dim(num_classes)),
                       (d_proj, ego_feature_dim(num_classes)))
            * col_scale[:ego_feature_dim(num_classes)],
            rng.normal(0.0, 1.0 / np.sqrt(rel_feature_dim(num_classes)),
                       (d_proj, rel_feature_dim(num_classes)))
            * col_scale[ego_feature_dim(num_classes):],
        )
        p.b3[3:5] = _inv_softplus(0.3)       # lateral scale, flat-surface profile
        p.b3[5] = _inv_softplus(0.12)        # vertical scale
        p.b3[10] = _logit(0.95)              # opacity proposals start confident
        p.b3[11:] = _inv_softplus(0.05)      # semantic proposals start low-mass
        return p


def _feature_spans(num_classes: int) -> np.ndarray:
    """Typical magnitude of each pair-feature column, used to balance the
    input weighting at initialization."""
    spans = np.ones(pair_feature_dim(num_classes))
    spans[0:3] = 20.0                        # ego mean, meters
    spans[3:6] = 0.5                         # ego scale
    e = ego_feature_dim(num_classes)
    spans[e:e + 3] = 0.5                     # relative mean, bounded by rho
    spans[e + 3:e + 6] = 0.5                 # relative scale
    return spans


@dataclass
class Proposal:
    """One pooled (or per-pair) refinement proposal."""

    delta_mean: np.ndarray
    scale_star: np.ndarray
    rot_star: np.ndarray
    opacity_star: float
    sem_star: np.ndarray


def _logit(p: float) -> float:
    return float(np.log(p / (1.0 - p)))


def _inv_softplus(y: float) -> float:
    return float(np.log(np.expm1(y)))


def _softplus(x):
    return np.logaddexp(0.0, x)


def _sigmoid(x):
    return 0.5 * (1.0 + np.tanh(0.5 * x))


# ---------------------------------------------------------------------------
# neighborhood search
# ---------------------------------------------------------------------------

def _dense_ranks(pool_keys: np.ndarray, query_keys: np.ndarray):
    """Ranks of `pool_keys` among their sorted distinct values, the rank of
    each query key among the same values (-1 when absent), and the number
    of distinct values."""
    values, pool_rank = np.unique(pool_keys, return_inverse=True)
    at = np.minimum(np.searchsorted(values, query_keys), values.size - 1)
    return pool_rank, np.where(values[at] == query_keys, at, -1), values.size


def _build_pairs(ego_means: np.ndarray, pool_means: np.ndarray, rho: float,
                 max_neighbors: int | None):
    """Radius-rho neighbour lists of every ego mean as one CSR
    (seg_egos, pair_j, starts, counts): the egos with a non-empty closed
    ball, then per ego its pool indices nearest first, ties by index,
    capped at `max_neighbors` (None: no cap).

    A sorted cell list with cell size rho: the pool is stably sorted by
    cell, every ego looks its 3x3 columns of cells up with searchsorted,
    each column covering the three cells around the ego's along z. Cell
    coordinates stay floats and are replaced by dense ranks before two
    axes are combined, so keys stay below len(pool)**2 however far apart
    the means lie.
    """
    empty = (np.empty(0, dtype=np.int64),) * 4
    if len(ego_means) == 0 or len(pool_means) == 0:
        return empty
    cp = np.floor(pool_means / rho)                      # (P, 3) cell coordinates
    ce = np.floor(ego_means / rho)                       # (E, 3)
    step = np.array([-1.0, 0.0, 1.0])
    rx_p, rx_e, _ = _dense_ranks(cp[:, 0], ce[:, 0, None] + step)
    ry_p, ry_e, ny = _dense_ranks(cp[:, 1], ce[:, 1, None] + step)
    col_e = np.where((rx_e[:, :, None] < 0) | (ry_e[:, None, :] < 0), -1,
                     rx_e[:, :, None] * ny + ry_e[:, None, :]).reshape(-1, 9)
    col_p, col_e, _ = _dense_ranks(rx_p * ny + ry_p, col_e)
    z_values, z_p = np.unique(cp[:, 2], return_inverse=True)
    nz = z_values.size
    key = col_p * nz + z_p
    order = np.argsort(key, kind="stable")
    key = key[order]
    z_lo = np.searchsorted(z_values, ce[:, 2] - 1.0, side="left")
    z_hi = np.searchsorted(z_values, ce[:, 2] + 1.0, side="right")
    lo = np.searchsorted(key, col_e * nz + z_lo[:, None])
    hi = np.where(col_e < 0, lo, np.searchsorted(key, col_e * nz + z_hi[:, None]))
    n = (hi - lo).reshape(-1)
    total = int(n.sum())
    if total == 0:
        return empty
    first = np.cumsum(n) - n
    cand_e = np.repeat(np.arange(len(ego_means)), n.reshape(-1, 9).sum(axis=1))
    cand_j = order[np.arange(total) - np.repeat(first - lo.reshape(-1), n)]
    d = np.linalg.norm(pool_means[cand_j] - ego_means[cand_e], axis=1)
    keep = d <= rho
    cand_e, cand_j, d = cand_e[keep], cand_j[keep], d[keep]
    if cand_e.size == 0:
        return empty
    s = np.lexsort((cand_j, d, cand_e))
    cand_e, cand_j = cand_e[s], cand_j[s]
    seg_egos, seg_first, counts = np.unique(cand_e, return_index=True, return_counts=True)
    if max_neighbors is not None:
        cand_j = cand_j[np.arange(cand_e.size) - np.repeat(seg_first, counts) < max_neighbors]
        counts = np.minimum(counts, max_neighbors)
    starts = np.concatenate([[0], np.cumsum(counts)[:-1]])
    return seg_egos, cand_j, starts, counts


# ---------------------------------------------------------------------------
# features
# ---------------------------------------------------------------------------

def ego_features(gs: GaussianSet) -> np.ndarray:
    """Per-Gaussian descriptor [mean | scale | quat | opacity | semantics]."""
    return np.concatenate(
        [gs.means, gs.scales, gs.rotations, gs.opacities[:, None], gs.semantics], axis=1
    )


def rel_features(ego: GaussianSet, ego_idx: np.ndarray, nbr: GaussianSet,
                 nbr_idx: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Per-pair relative cue [dmean | dscale | |quat cosine| | opacity | semantics],
    written into `out` (a (pairs, 8 + classes) array or view) when given."""
    if out is None:
        out = np.empty((len(nbr_idx), rel_feature_dim(nbr.num_classes)))
    np.subtract(nbr.means[nbr_idx], ego.means[ego_idx], out=out[:, 0:3])
    np.subtract(nbr.scales[nbr_idx], ego.scales[ego_idx], out=out[:, 3:6])
    np.sum(nbr.rotations[nbr_idx] * ego.rotations[ego_idx], axis=1, out=out[:, 6])
    np.abs(out[:, 6], out=out[:, 6])
    out[:, 7] = nbr.opacities[nbr_idx]
    out[:, 8:] = nbr.semantics[nbr_idx]
    return out


# ---------------------------------------------------------------------------
# proposal network
# ---------------------------------------------------------------------------

def _whole_tiles(n: int) -> int:
    """n rows rounded up to a multiple of `_ROW_TILE`."""
    return n + -n % _ROW_TILE


def _pad_rows(x: np.ndarray) -> np.ndarray:
    """x with zero rows appended up to a multiple of `_ROW_TILE` rows; x
    itself when its row count already is one.

    BLAS rounds a product of a few rows, or a partial last tile of rows,
    differently from whole tiles (OpenBLAS: gemv for one row, other
    paths by kernel and thread count). Over whole tiles an output row
    depends only on its own input row, so a pair gets the same bits in
    any block, and in `propose`."""
    n, rows = x.shape[0], _whole_tiles(x.shape[0])
    if rows == n:
        return x
    padded = np.zeros((rows, x.shape[1]))
    padded[:n] = x
    return padded


def _project(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """x @ w.T over whole row tiles (see `_pad_rows`)."""
    return (_pad_rows(x) @ w.T)[:x.shape[0]]


def _hidden(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """relu(x @ w.T + b), computed in one buffer."""
    h = x @ w.T
    h += b
    return np.maximum(h, 0.0, out=h)


def _mlp_hidden(z_tiles: np.ndarray, params: FusionParams):
    """The two hidden layers' post-ReLU activations over `z_tiles`, pair
    features padded to whole row tiles (see `_pad_rows`). `fusion_backward`
    recomputes them with this same call over the same rows, so they carry
    the forward's bits."""
    h1 = _hidden(z_tiles, params.w1, params.b1)
    return h1, _hidden(h1, params.w2, params.b2)


def _mlp_forward(z_tiles: np.ndarray, params: FusionParams) -> np.ndarray:
    """Raw MLP outputs over every row of `z_tiles`, padding rows included."""
    raw = _mlp_hidden(z_tiles, params)[1] @ params.w3.T
    raw += params.b3
    return raw


def _activate(raw: np.ndarray, num_classes: int):
    """Map raw MLP outputs onto valid proposal fields."""
    dm = raw[:, 0:3]
    s = np.minimum(_softplus(raw[:, 3:6]) + SCALE_FLOOR, SCALE_CEIL)
    rraw = raw[:, 6:10].copy()
    rraw[:, 0] += 1.0                     # offset keeps the norm away from zero
    rnorm = np.linalg.norm(rraw, axis=1)
    r = rraw / rnorm[:, None]
    a = _sigmoid(raw[:, 10])
    c = _softplus(raw[:, 11:11 + num_classes])
    return dm, s, r, a, c, rnorm


def propose(z: np.ndarray, params: FusionParams) -> Proposal:
    """Run one pair feature through the proposal network."""
    z = np.asarray(z, dtype=np.float64)
    if not np.all(np.isfinite(z)):
        raise ValueError("non-finite pair feature")
    params.validate()
    raw = _mlp_forward(_pad_rows(z[None, :]), params)[:1]
    dm, s, r, a, c, _ = _activate(raw, params.num_classes)
    return Proposal(dm[0], s[0], r[0], float(a[0]), c[0])


# ---------------------------------------------------------------------------
# pooling and confidence
# ---------------------------------------------------------------------------

def _segment_softmax(logits: np.ndarray, starts: np.ndarray, counts: np.ndarray):
    seg_max = np.maximum.reduceat(logits, starts)
    ex = np.exp(logits - np.repeat(seg_max, counts))
    seg_sum = np.add.reduceat(ex, starts)
    return ex / np.repeat(seg_sum, counts)


def _pool_segments(w, dm, s, r, a, c, starts, counts):
    """Weighted per-segment sums of proposal fields; quaternions are sign
    aligned to each segment's first proposal before summing."""
    first = np.repeat(starts, counts)
    sigma = np.where(np.sum(r * r[first], axis=1) >= 0.0, 1.0, -1.0)
    wc = w[:, None]
    pooled_dm = np.add.reduceat(wc * dm, starts)
    pooled_s = np.add.reduceat(wc * s, starts)
    pooled_a = np.add.reduceat(w * a, starts)
    pooled_c = np.add.reduceat(wc * c, starts)
    rbar_raw = np.add.reduceat((w * sigma)[:, None] * r, starts)
    rbar_norm = np.linalg.norm(rbar_raw, axis=1)
    rbar = rbar_raw / rbar_norm[:, None]
    return pooled_dm, pooled_s, pooled_a, pooled_c, rbar_norm, rbar, sigma


def _pool_weights(pooling: str, e_feats: np.ndarray, f_rel: np.ndarray,
                  starts: np.ndarray, counts: np.ndarray, params: FusionParams):
    """Per-pair pooling weights: uniform within each segment ("mean"), or
    the segment softmax of the scaled dot products of the q_proj-projected
    segment ego feature and the k_proj-projected pair relative feature
    ("attention"). `f_rel` may go on past the pairs with padding rows,
    which are projected but not read."""
    if pooling == "mean":
        return np.repeat(1.0 / counts, counts)
    if pooling != "attention":
        raise ValueError("weights_mode must be 'mean' or 'attention'")
    qe = np.repeat(_project(e_feats, params.q_proj), counts, axis=0)     # (P, d)
    kf = _project(f_rel, params.k_proj)[:qe.shape[0]]                    # (P, d)
    logits = np.sum(qe * kf, axis=1)
    logits = logits / np.sqrt(params.q_proj.shape[0])
    return _segment_softmax(logits, starts, counts)


def _confidence(v: np.ndarray, epsilon: float) -> np.ndarray:
    """Row-wise peak of the (epsilon-guarded) normalized class weights."""
    return np.max(v, axis=-1) / (np.sum(v, axis=-1) + epsilon)


def pool(proposals: list[Proposal], weights_mode: str, ego_feat: np.ndarray,
         rel_feats: list[np.ndarray], params: FusionParams) -> Proposal:
    """Pool the proposals of one neighborhood as `fuse_scene` pools each
    segment: uniform weights in mean mode, a softmax over projected
    ego/relative features in attention mode. Raises ValueError on an empty
    list (the caller keeps the ego Gaussian unchanged in that case).
    """
    if not proposals:
        raise ValueError("empty proposal list: empty neighborhood")
    dm = np.stack([p.delta_mean for p in proposals])
    s = np.stack([p.scale_star for p in proposals])
    r = np.stack([p.rot_star for p in proposals])
    a = np.array([p.opacity_star for p in proposals])
    c = np.stack([p.sem_star for p in proposals])
    starts, counts = np.array([0]), np.array([len(proposals)])
    w = _pool_weights(weights_mode, np.asarray(ego_feat, dtype=np.float64)[None, :],
                      np.asarray(rel_feats, dtype=np.float64), starts, counts, params)
    pooled_dm, pooled_s, pooled_a, pooled_c, _, rbar, _ = _pool_segments(
        w, dm, s, r, a, c, starts, counts)
    return Proposal(pooled_dm[0], pooled_s[0], rbar[0], float(pooled_a[0]), pooled_c[0])


def confidence(v: np.ndarray, epsilon: float = 1e-8) -> float:
    """Peak of the (epsilon-guarded) normalized class weights."""
    return float(_confidence(np.asarray(v, dtype=np.float64), epsilon))


# ---------------------------------------------------------------------------
# whole-scene fusion with a backward tape
# ---------------------------------------------------------------------------

@dataclass
class FusionBlock:
    """What the analytic backward needs from one block of whole segments.
    Nothing is kept that a kept field holds: the segments start at the
    block's own `cumsum(counts) - counts`, the proposals' mean offsets are
    `raw[:, 0:3]` and the ego semantics the last columns of `e_feats`. The
    hidden activations are not kept either: `fusion_backward` recomputes
    them from `z_tiles`."""

    seg_egos: np.ndarray        # ego rows of the block's segments
    counts: np.ndarray
    z_tiles: np.ndarray         # pair features, zero rows up to whole row tiles
    raw: np.ndarray
    s: np.ndarray
    r: np.ndarray
    a: np.ndarray
    c: np.ndarray
    rnorm: np.ndarray
    w: np.ndarray
    sigma: np.ndarray
    e_feats: np.ndarray         # per-segment ego features
    pooled_c: np.ndarray
    rbar_norm: np.ndarray
    rbar: np.ndarray
    canon_sign: np.ndarray
    alpha: np.ndarray
    conf_ego: np.ndarray
    conf_pool: np.ndarray

    @property
    def z(self) -> np.ndarray:
        """Per-pair features, a view of `z_tiles` without the padding."""
        return self.z_tiles[:self.raw.shape[0]]

    @property
    def rel_tiles(self) -> np.ndarray:
        """The relative-feature columns of `z_tiles`, padding rows included."""
        return self.z_tiles[:, self.e_feats.shape[1]:]


@dataclass
class FusionTape:
    """Everything the analytic backward needs from one forward pass: the
    whole-scene segments and one record per block, in order."""

    params: FusionParams
    pooling: str
    epsilon: float
    seg_egos: np.ndarray        # ego rows that had non-empty neighborhoods
    counts: np.ndarray
    blocks: list[FusionBlock]


def scene_neighbors(ego_set: GaussianSet, received_sets: list[GaussianSet],
                    cfg: FusionConfig):
    """The neighbour CSR of `_build_pairs` that `fuse_scene` uses: ego means
    against the concatenated received sets."""
    pool_means = GaussianSet.concat([s for s in received_sets if len(s)]).means
    return _build_pairs(ego_set.means, pool_means, cfg.radius_rho, cfg.max_neighbors)


def fuse_scene(ego_set: GaussianSet, received_sets: list[GaussianSet],
               cfg: FusionConfig, params: FusionParams,
               record: bool = False, neighbors=None):
    """Refine every ego Gaussian from its radius-rho neighborhood of
    received Gaussians. Cardinality is preserved; rows without neighbors
    are returned unchanged. With record=True also returns a FusionTape
    (None when nothing was fused) for the analytic backward.

    `neighbors` is `scene_neighbors` of the same inputs and config, for
    callers that fuse one scene many times; it is searched for when not
    given."""
    params.validate()
    fused = ego_set.copy()
    pool_set = GaussianSet.concat([s for s in received_sets if len(s)])
    if len(ego_set) == 0 or len(pool_set) == 0:
        return (fused, None) if record else fused

    if neighbors is None:
        neighbors = scene_neighbors(ego_set, received_sets, cfg)
    seg_egos, pair_j, starts, counts = neighbors
    if seg_egos.size == 0:
        return (fused, None) if record else fused

    e_all = ego_features(ego_set)
    runs = _whole_runs(counts, _FUSE_BLOCK, even=True)

    def block(k):
        a, b, p0, p1 = runs[k]
        blk = _fuse_block(fused, ego_set, e_all, pool_set, seg_egos[a:b], pair_j[p0:p1],
                          starts[a:b] - p0, counts[a:b], cfg, params)
        return blk if record else None      # a dropped block is freed before the next one

    # the blocks write disjoint rows of `fused`, on either thread
    blocks = _each(block, len(runs))
    if not record:
        return fused
    return fused, FusionTape(params=params, pooling=cfg.pooling, epsilon=cfg.epsilon,
                             seg_egos=seg_egos, counts=counts, blocks=blocks)


def _fuse_block(fused: GaussianSet, ego_set: GaussianSet, e_all: np.ndarray,
                pool_set: GaussianSet, seg_egos: np.ndarray, pair_j: np.ndarray,
                starts: np.ndarray, counts: np.ndarray, cfg: FusionConfig,
                params: FusionParams) -> FusionBlock:
    """Fuse one block of whole segments into the rows `seg_egos` of `fused`.
    The pair features are written straight into one buffer padded to whole
    row tiles, which the MLP, the k_proj projection and the tape share."""
    pair_e = np.repeat(seg_egos, counts)
    n, n_ego = pair_e.size, e_all.shape[1]
    z_tiles = np.zeros((_whole_tiles(n), n_ego + rel_feature_dim(ego_set.num_classes)))
    rel_tiles = z_tiles[:, n_ego:]
    z_tiles[:n, :n_ego] = e_all[pair_e]
    rel_features(ego_set, pair_e, pool_set, pair_j, out=rel_tiles[:n])

    raw = _mlp_forward(z_tiles, params)[:n]
    dm, s, r, a, c, rnorm = _activate(raw, ego_set.num_classes)

    e_feats = e_all[seg_egos]
    w = _pool_weights(cfg.pooling, e_feats, rel_tiles, starts, counts, params)

    pooled_dm, pooled_s, pooled_a, pooled_c, rbar_norm, rbar, sigma = \
        _pool_segments(w, dm, s, r, a, c, starts, counts)

    canon_sign = _canonical_sign(rbar)[:, 0]
    rhat = rbar * canon_sign[:, None]

    ego_sem = ego_set.semantics[seg_egos]
    conf_ego = _confidence(ego_sem, cfg.epsilon)
    conf_pool = _confidence(pooled_c, cfg.epsilon)
    alpha = conf_ego / (conf_ego + conf_pool)
    sem_hat = alpha[:, None] * ego_sem + (1.0 - alpha)[:, None] * pooled_c

    fused.means[seg_egos] = ego_set.means[seg_egos] + pooled_dm
    fused.scales[seg_egos] = pooled_s
    fused.rotations[seg_egos] = rhat
    fused.opacities[seg_egos] = pooled_a
    fused.semantics[seg_egos] = sem_hat

    return FusionBlock(
        seg_egos=seg_egos, counts=counts, z_tiles=z_tiles, raw=raw,
        s=s, r=r, a=a, c=c, rnorm=rnorm, w=w, sigma=sigma,
        e_feats=e_feats, pooled_c=pooled_c, rbar_norm=rbar_norm, rbar=rbar,
        canon_sign=canon_sign, alpha=alpha, conf_ego=conf_ego, conf_pool=conf_pool,
    )


def fusion_backward(tape: FusionTape, grad_fused: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """Map loss gradients w.r.t. the fused Gaussian fields back onto the
    FusionParams tensors. Input Gaussians are treated as constants. Each
    tape block's gradients go into the block's own dict, two blocks at a
    time on a team (`gsfusion.core._each_folded`), and the dicts are summed
    into the total in block order. Each block's hidden activations are
    recomputed from its padded features, as the forward computed them."""
    grads = {k: np.zeros_like(v) for k, v in tape.params.as_dict().items()}

    def fold(block_grads):
        for k, g in block_grads.items():
            grads[k] += g

    _each_folded(lambda k: _block_grads(tape, tape.blocks[k], grad_fused),
                 len(tape.blocks), fold)
    return grads


def _block_grads(tape: FusionTape, block: FusionBlock,
                 grad_fused: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """One block's own parameter gradients (the attention projections only
    under attention pooling)."""
    p = tape.params
    grads = {}
    d_raw = _raw_output_grads(tape, block, grad_fused, grads)
    n = d_raw.shape[0]
    h1, h2 = _mlp_hidden(block.z_tiles, p)
    h1, h2 = h1[:n], h2[:n]

    # MLP backward; the ReLU masks are h > 0 (h = max(pre-activation, 0)),
    # and each (pairs, hidden) temporary is freed or overwritten once spent
    grads["w3"] = d_raw.T @ h2
    grads["b3"] = d_raw.sum(axis=0)
    d_h2 = d_raw @ p.w3
    del d_raw
    d_h2 *= h2 > 0.0
    del h2
    grads["w2"] = d_h2.T @ h1
    grads["b2"] = d_h2.sum(axis=0)
    d_h1 = d_h2 @ p.w2
    del d_h2
    d_h1 *= h1 > 0.0
    del h1
    grads["w1"] = d_h1.T @ block.z
    grads["b1"] = d_h1.sum(axis=0)
    return grads


def _raw_output_grads(tape: FusionTape, blk: FusionBlock, grad_fused: dict[str, np.ndarray],
                      grads: dict[str, np.ndarray]) -> np.ndarray:
    """Gradient w.r.t. one block's raw MLP outputs, back through the update,
    the pooling and the activations; sets the block's attention projection
    gradients in its own dict `grads` on the way."""
    p = tape.params
    seg, counts = blk.seg_egos, blk.counts
    starts = np.cumsum(counts) - counts
    dm = blk.raw[:, 0:3]
    ego_sem = blk.e_feats[:, -blk.pooled_c.shape[1]:]
    rep = lambda x: np.repeat(x, counts, axis=0)

    d_pooled_dm = grad_fused["means"][seg]
    d_pooled_s = grad_fused["scales"][seg]
    d_rhat = grad_fused["rotations"][seg]
    d_pooled_a = grad_fused["opacities"][seg]
    d_sem_hat = grad_fused["semantics"][seg]

    # semantic blend: sem_hat = alpha * ego + (1 - alpha) * pooled_c
    d_alpha = np.sum(d_sem_hat * (ego_sem - blk.pooled_c), axis=1)
    d_pooled_c = (1.0 - blk.alpha)[:, None] * d_sem_hat
    denom = blk.conf_ego + blk.conf_pool
    d_conf_pool = d_alpha * (-blk.conf_ego / denom**2)
    ssum = np.sum(blk.pooled_c, axis=1) + tape.epsilon
    kstar = np.argmax(blk.pooled_c, axis=1)
    d_pooled_c += d_conf_pool[:, None] * (-np.max(blk.pooled_c, axis=1) / ssum**2)[:, None]
    d_pooled_c[np.arange(seg.size), kstar] += d_conf_pool / ssum

    # canonical sign then the pooled-quaternion normalization
    d_rbar = d_rhat * blk.canon_sign[:, None]
    dot = np.sum(blk.rbar * d_rbar, axis=1)
    d_rbar_raw = (d_rbar - blk.rbar * dot[:, None]) / blk.rbar_norm[:, None]

    # per-pair shares of the pooled sums
    p_dm, p_s, p_a, p_c, p_r = map(rep, (d_pooled_dm, d_pooled_s, d_pooled_a,
                                         d_pooled_c, d_rbar_raw))
    d_w = np.sum(p_dm * dm, axis=1)
    d_dm = p_dm * blk.w[:, None]
    d_w += np.sum(p_s * blk.s, axis=1)
    d_s = p_s * blk.w[:, None]
    d_w += p_a * blk.a
    d_a = p_a * blk.w
    d_w += np.sum(p_c * blk.c, axis=1)
    d_c = p_c * blk.w[:, None]
    d_w += blk.sigma * np.sum(p_r * blk.r, axis=1)
    d_r = (blk.w * blk.sigma)[:, None] * p_r

    # attention softmax and projection gradients
    if tape.pooling == "attention":
        wdw = blk.w * d_w
        seg_wdw = np.add.reduceat(wdw, starts)
        d_logits = wdw - blk.w * rep(seg_wdw)
        scale = 1.0 / np.sqrt(p.q_proj.shape[0])
        d_logits = d_logits * scale
        qe = _project(blk.e_feats, p.q_proj)
        rel = blk.rel_tiles[:blk.raw.shape[0]]
        kf = _project(blk.rel_tiles, p.k_proj)[:rel.shape[0]]
        d_qe = np.add.reduceat(d_logits[:, None] * kf, starts)
        d_kf = d_logits[:, None] * rep(qe)
        grads["q_proj"] = d_qe.T @ blk.e_feats
        grads["k_proj"] = d_kf.T @ rel

    # activation maps back to raw MLP outputs
    d_raw = np.zeros_like(blk.raw)
    d_raw[:, 0:3] = d_dm
    d_raw[:, 3:6] = np.where(blk.s < SCALE_CEIL, d_s * _sigmoid(blk.raw[:, 3:6]), 0.0)
    rdot = np.sum(blk.r * d_r, axis=1)
    d_raw[:, 6:10] = (d_r - blk.r * rdot[:, None]) / blk.rnorm[:, None]
    d_raw[:, 10] = d_a * blk.a * (1.0 - blk.a)
    d_raw[:, 11:] = d_c * _sigmoid(blk.raw[:, 11:])
    return d_raw


# ---------------------------------------------------------------------------
# FPRM parameter files
# ---------------------------------------------------------------------------

def _pack_tensors(tensors: list[np.ndarray]) -> bytes:
    out = [struct.pack("<4sII", FPRM_MAGIC, FPRM_VERSION, len(tensors))]
    for t in tensors:
        mat = np.atleast_2d(np.asarray(t, dtype=np.float64))
        if t.ndim == 1:
            mat = mat.T                        # vectors stored as (n, 1)
        rows, cols = mat.shape
        out.append(struct.pack("<II", rows, cols))
        out.append(np.ascontiguousarray(mat, dtype="<f4").tobytes())
    return b"".join(out)


def _unpack_tensors(data: bytes) -> list[np.ndarray]:
    if len(data) < 12:
        raise ValueError("FPRM data shorter than header")
    magic, version, count = struct.unpack_from("<4sII", data, 0)
    if magic != FPRM_MAGIC:
        raise ValueError("bad FPRM magic")
    if version != FPRM_VERSION:
        raise ValueError(f"unsupported FPRM version {version}")
    offset = 12
    tensors = []
    for _ in range(count):
        if offset + 8 > len(data):
            raise ValueError("truncated FPRM tensor header")
        rows, cols = struct.unpack_from("<II", data, offset)
        offset += 8
        nbytes = rows * cols * 4
        if offset + nbytes > len(data):
            raise ValueError("truncated FPRM tensor payload")
        mat = np.frombuffer(data, dtype="<f4", count=rows * cols, offset=offset)
        tensors.append(mat.astype(np.float64).reshape(rows, cols))
        offset += nbytes
    if offset != len(data):
        raise ValueError("trailing bytes after FPRM tensors")
    return tensors


def save_params(params: FusionParams, path) -> None:
    tensors = [getattr(params, name) for name in FusionParams._ORDER]
    with open(path, "wb") as f:
        f.write(_pack_tensors(tensors))


def load_params(path) -> FusionParams:
    with open(path, "rb") as f:
        tensors = _unpack_tensors(f.read())
    if len(tensors) != 8:
        raise ValueError(f"expected 8 tensors for FusionParams, found {len(tensors)}")
    fields = {}
    for name, t in zip(FusionParams._ORDER, tensors):
        fields[name] = t[:, 0] if name.startswith("b") else t
    params = FusionParams(**fields)
    params.validate()
    return params
