"""Gaussian-to-voxel splatting: render a set of semantic Gaussians into a
dense channel grid by additive aggregation, decode per-voxel labels, and
read/write grids in the VOXG binary format.

Each Gaussian contributes opacity * exp(-0.5 * mahalanobis^2) * semantics
at every voxel center within its truncation ellipsoid. The (gaussian,
voxel) pairs are enumerated and accumulated in canonical order, ascending
gaussian index then ascending flat voxel index, so the output is bit-exact
for fixed inputs on a fixed platform.

Bounded blocks. The forward enumerates candidate voxels over near-equal
runs of whole Gaussians whose bounding boxes hold at most `_BLOCK` cells
together (a Gaussian whose box holds more is a block on its own), so its
temporaries are bounded by the block, not by the set, apart from such a
Gaussian (the empty-space prior's box is the whole grid). The bound
changes no bit and is 2^14 for speed: a block's candidate temporaries,
a few dozen 8-byte values a candidate, then stay near a core's L2 cache.
In a sweep from 2^11 to 2^17 over single and zero_shot episodes of both
benchmark workloads (2-core x86_64, 2 MiB L2 a core), 2^14 was fastest
or tied with 2^15; 2^17 was 19-43% slower and 2^11 2.0-2.2x slower.

With record=True the splat also keeps each block's pairs on a tape, one
record per block as `fuse_scene` keeps its tape, and `splat_backward`
walks those records block by block, writing each block's rows. An
unrecorded splat keeps no tape fields: its blocks never gather the
pairs' delta and local. Every sum of the backward bins by Gaussian, and
a Gaussian's pairs all lie in one block in their canonical order, so the
blocks change no gradient bit. On a team (see the `gsfusion.core`
docstring) the forward makes two blocks' pairs and entries at a time,
one on each thread, and the calling thread adds both into the grid, in
block order, before the next two start; the backward runs its blocks on
either thread.

Nonzero accumulation. Each block's per-channel weights go straight into
the zeroed grid with `np.add.at`, keeping only the entries at or above
min_contribution (the nonzero ones, for a floor of 0). An observed
Gaussian carries one-hot semantics, so most (pair, channel) entries are
zero and never reach the grid. When no Gaussian of the set carries more
than one class, the weights are formed as one column a pair, with each
pair's channel, and the zero channels are never formed at all.

Why this is exact. `np.add.at(out, idx, w)` does `out[idx[i]] += w[i]`
in input order, so with `out` zeroed each bin is the left-to-right sum
that `np.bincount` of all entries forms. A dropped entry is +0.0:
opacity, the exponential and semantics are non-negative. A sum of
non-negative terms started at +0.0 is never -0.0, so adding +0.0 changes
no bit. Blocks keep the canonical order, and every per-candidate
operation is row-wise, so each pair's e, delta and local are the same
bits wherever a block edge falls.

Splatting is additive, and that is exact in one case. For a set X and a
single Gaussian f placed last, `splat(concat([X, f]))` equals
`splat(X) + splat(f)` bit for bit: f's contribution is the last term of
each sum either way, and its zero channels add +0.0 to sums that are
never negative. A constant f (the empty-space prior) can therefore be
rendered once, kept with `splat_sparse`, and added to each render of a
changing X. With more than one constant row the two agree only up to
summation order.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple

import numpy as np

from gsfusion.core import (
    GaussianSet,
    GridGeometry,
    VoxelGrid,
    _check_conditioning,
    _each,
    _each_folded,
    _mahalanobis_rows,
    _quat_to_rotmat_unchecked,
    _whole_runs,
    quat_to_rotmat_jacobian,
)

VOXG_MAGIC = b"VOXG"
VOXG_VERSION = 1
PAYLOAD_CHANNELS = 0
PAYLOAD_LABELS = 1

# magic, version, X, Y, Z, C, origin xyz, voxel_size, payload kind
_HEADER = struct.Struct("<4sIIIII3ffB")

# the most candidate cells one block of the splat forward enumerates,
# unless a single Gaussian's box holds more
_BLOCK = 1 << 14


@dataclass(frozen=True)
class SplatConfig:
    """truncation_sigma: Mahalanobis cutoff radius; min_contribution:
    per-channel floor below which a single contribution is dropped (also
    the all-channels threshold for the empty-label fallback)."""

    truncation_sigma: float = 3.0
    min_contribution: float = 1e-4

    def __post_init__(self):
        if self.truncation_sigma <= 0:
            raise ValueError("truncation_sigma must be positive")
        if self.min_contribution < 0:
            raise ValueError("min_contribution must be non-negative")


class Pairs(NamedTuple):
    """The (gaussian, voxel) pairs of a splat, with what its backward reuses.

    gauss, voxel: (P,) Gaussian index and flat voxel index of each pair;
    e: (P,) the Gaussian exponential at the voxel center;
    delta: (P, 3) voxel center minus mean; local: (P, 3) R^T delta, both
    None in an unrecorded splat.
    """

    gauss: np.ndarray
    voxel: np.ndarray
    e: np.ndarray
    delta: np.ndarray
    local: np.ndarray


class SplatBlock(NamedTuple):
    """The pairs of one block of whole Gaussians, the set's rows start:stop."""

    start: int
    stop: int
    pairs: Pairs


class SplatTape(NamedTuple):
    """What `splat_backward` needs from one forward pass: the splatted set,
    its floor (min_contribution), and the blocks that hold pairs, in order."""

    gaussians: GaussianSet
    min_contribution: float
    blocks: list[SplatBlock]


class SparseChannels(NamedTuple):
    """A channel grid kept as its nonzero entries: ascending flat indices
    into `channels.reshape(-1)` and their values."""

    index: np.ndarray
    value: np.ndarray

    def add_to(self, channels: np.ndarray) -> np.ndarray:
        """Add into the C-contiguous `channels` in place and return it.
        The indices are unique, so `np.add.at` gives the bits of
        `flat[index] += value` in one pass instead of three; it gets the
        canonical float64 dtype, as in `_entries`, so that an unpickled
        render stays on its fast path."""
        np.add.at(channels.reshape(-1), self.index, self.value.view(np.float64))
        return channels


def _pair_blocks(gaussians: GaussianSet, geometry: GridGeometry, cfg: SplatConfig,
                 record: bool = True) -> tuple[int, Callable[[int], SplatBlock]]:
    """All (gaussian, voxel) pairs inside the truncation ellipsoids, ordered
    by (gaussian, flat voxel index), in blocks of whole Gaussians: returns
    the block count and a function that gives block k's SplatBlock, to be
    called from any thread. Without `record` the pairs' delta and local,
    which only the backward reads, are None.

    Candidates are the voxels whose centers lie in each ellipsoid's
    axis-aligned bounding box, of half-extent t * sqrt(Sigma_ii) on axis
    i, widened by 1e-9 voxel against rounding and clipped to the grid; the
    Mahalanobis test q <= t**2 alone decides membership. The blocks are
    near-equal runs of whole Gaussians (`gsfusion.core._whole_runs`) whose
    boxes hold at most _BLOCK cells together, or one Gaussian whose box
    holds more.
    """
    dims = np.array(geometry.dims)
    h = geometry.voxel_size
    t = cfg.truncation_sigma
    rots = _quat_to_rotmat_unchecked(gaussians.rotations)
    half = t * np.sqrt(np.einsum("nij,nj->ni", rots**2, gaussians.scales**2))
    lo = np.ceil((gaussians.means - half - geometry.origin) / h - 0.5 - 1e-9)
    hi = np.floor((gaussians.means + half - geometry.origin) / h - 0.5 + 1e-9)
    lo = np.clip(lo, 0, dims).astype(np.int64)
    ext = np.maximum(np.clip(hi, -1, dims - 1).astype(np.int64) - lo + 1, 0)
    runs = _whole_runs(np.prod(ext, axis=1), _BLOCK)

    def block(k):
        start, stop, _, _ = runs[k]
        b = slice(start, stop)
        pairs = _box_pairs(gaussians.take(b), geometry, t, rots[b], lo[b], ext[b], record)
        return SplatBlock(start, stop, pairs._replace(gauss=pairs.gauss + start))

    return len(runs), block


def _box_pairs(gaussians: GaussianSet, geometry: GridGeometry, t: float,
               rots: np.ndarray, lo: np.ndarray, ext: np.ndarray, record: bool) -> Pairs:
    """The pairs among the candidates of the boxes with lowest corner `lo`
    and extent `ext`, one box per Gaussian of `gaussians` (indexed from 0);
    their delta and local are gathered only to `record` them."""
    h = geometry.voxel_size
    _, ny, nz = geometry.dims
    vol = np.prod(ext, axis=1)

    def per_candidate(a):
        return np.repeat(a, vol, axis=0)

    # ragged expansion: candidate k of a gaussian is cell k of its box, x-major
    g = per_candidate(np.arange(len(gaussians)))
    k = np.arange(g.size) - per_candidate(np.cumsum(vol) - vol)
    kxy, iz = np.divmod(k, per_candidate(ext[:, 2]))
    ix, iy = np.divmod(kxy, per_candidate(ext[:, 1]))
    vox = [i + per_candidate(lo[:, a]) for a, i in enumerate((ix, iy, iz))]
    delta = np.empty((g.size, 3))
    for a in range(3):
        delta[:, a] = (geometry.origin[a] + (vox[a] + 0.5) * h
                       - per_candidate(gaussians.means[:, a]))
    # repeated axis by axis: about 3x faster than repeating (N, 3) rows
    scales = np.repeat(gaussians.scales.T, vol, axis=1).T
    local, q = _mahalanobis_rows(delta, per_candidate(rots), scales)
    kept = np.flatnonzero(q <= t**2)
    flat = (vox[0].take(kept) * ny + vox[1].take(kept)) * nz + vox[2].take(kept)
    if record:
        delta, local = delta.take(kept, axis=0), local.take(kept, axis=0)
    else:
        delta = local = None
    return Pairs(g.take(kept), flat, np.exp(-0.5 * q.take(kept)), delta, local)


def _one_hot(semantics: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """(channel, weight) of each row's one nonzero channel (channel 0 and
    weight 0 for an all-zero row), or None when some row carries more or
    there is no channel."""
    if semantics.shape[1] == 0 or np.any(np.count_nonzero(semantics, axis=1) > 1):
        return None
    channel = np.argmax(semantics != 0.0, axis=1)
    return channel, semantics[np.arange(channel.size), channel]


def _entries(gaussians: GaussianSet, pairs: Pairs, min_contribution: float,
             one_hot: tuple[np.ndarray, np.ndarray] | None):
    """(index, value) of the pairs' per-channel weights that reach
    `min_contribution` (that are nonzero, for a floor of 0), as indices
    into the flat (V * C,) grid, in pair order, then channel order.

    With `one_hot` (see `_one_hot`) each pair has a single weight column:
    its other channels are 0 * w = +0.0, which neither floor keeps."""
    num_classes = gaussians.num_classes
    base = pairs.voxel * num_classes
    if one_hot is None:
        weights = gaussians.semantics.take(pairs.gauss, axis=0)  # (P, C)
    else:
        channel, carried = one_hot
        weights = carried.take(pairs.gauss)[:, None]              # (P, 1)
        base += channel.take(pairs.gauss)
    width = weights.shape[1]
    weights *= (gaussians.opacities.take(pairs.gauss) * pairs.e)[:, None]
    weights = weights.reshape(-1)
    entry = np.flatnonzero(weights >= min_contribution if min_contribution > 0.0
                           else weights != 0.0)
    # entry = pair * width + column lands in base[pair] + column
    shift = base - np.arange(pairs.voxel.size) * width
    index = shift.take(entry // width)
    index += entry
    # add.at leaves its fast path (about 10x slower) for a float64 dtype
    # equal to, but not the same object as, the canonical one, as an
    # unpickled set's arrays carry; the view hands it the canonical one
    return index, weights.take(entry).view(np.float64)


def splat(gaussians: GaussianSet, geometry: GridGeometry, cfg: SplatConfig | None = None,
          record: bool = False):
    """Additively render `gaussians` into a channel grid.

    Contributions are evaluated at voxel centers and restricted to centers
    with Mahalanobis distance <= truncation_sigma; per-channel values below
    min_contribution are dropped. Accumulation is vectorized over
    (gaussian, voxel) pairs, block by block, and deterministic for fixed
    inputs. With record=True also returns a SplatTape for `splat_backward`.
    """
    cfg = cfg or SplatConfig()
    num_classes = geometry.num_classes
    if len(gaussians) and gaussians.num_classes != num_classes:
        raise ValueError("gaussian semantics width does not match grid classes")
    _check_conditioning(gaussians.scales)
    # allocated before the pair temporaries: a caller that keeps the grid
    # keeps it below them in the heap, not above the hole they leave
    out = np.zeros(geometry.num_voxels * num_classes)
    count, pair_block = _pair_blocks(gaussians, geometry, cfg, record)
    one_hot = _one_hot(gaussians.semantics)
    blocks = []

    def block(k):
        blk = pair_block(k)
        kept = blk if record and blk.pairs.gauss.size else None
        return kept, _entries(gaussians, blk.pairs, cfg.min_contribution, one_hot)

    def fold(item):
        kept, (index, value) = item
        np.add.at(out, index, value)
        if kept is not None:
            blocks.append(kept)

    # pairs and entries on either thread; the grid sums on this one, in block order
    _each_folded(block, count, fold)
    grid = VoxelGrid(geometry, channels=out.reshape(geometry.dims + (num_classes,)))
    if not record:
        return grid
    return grid, SplatTape(gaussians, cfg.min_contribution, blocks)


def splat_sparse(gaussians: GaussianSet, geometry: GridGeometry,
                 cfg: SplatConfig | None = None) -> SparseChannels:
    """`splat` kept as its nonzero entries, for a constant set rendered once
    and added to many renders (see the module docstring). Only the classes
    some Gaussian carries are splatted: every other channel is zero, and
    each splatted channel is accumulated exactly as in the full grid."""
    if gaussians.num_classes != geometry.num_classes:
        raise ValueError("gaussian semantics width does not match grid classes")
    cols = np.flatnonzero(np.any(gaussians.semantics != 0.0, axis=0))
    if cols.size == 0:
        return SparseChannels(np.zeros(0, dtype=np.int64), np.zeros(0))
    carried = GaussianSet(gaussians.means, gaussians.scales, gaussians.rotations,
                          gaussians.opacities, gaussians.semantics[:, cols])
    channels = splat(carried, replace(geometry, num_classes=cols.size), cfg).channels
    channels = channels.reshape(geometry.num_voxels, cols.size)
    voxel, col = np.nonzero(channels)
    return SparseChannels(voxel * geometry.num_classes + cols[col], channels[voxel, col])


def splat_backward(tape: SplatTape, grad_channels: np.ndarray) -> dict[str, np.ndarray]:
    """Gradients of sum(grad_channels * splat(...)) w.r.t. every Gaussian field
    of the set `tape` recorded.

    Walks the forward's recorded blocks, so it differentiates exactly the
    function `splat` evaluates (same truncation and floor masks), and holds
    one block's (pairs, classes) temporaries at a time. Returns arrays keyed
    means/scales/rotations/opacities/semantics, one row per Gaussian of the
    set, zero for a row without pairs. A row's gradient sums only that
    row's pairs, so a constant set rendered apart (and added to the
    channels) needs no rows here and changes no other row's bits.

    `splat` is piecewise smooth: a contribution drops to zero where its
    (Gaussian, voxel) pair crosses the truncation_sigma surface or its
    value crosses min_contribution. This is the gradient of the smooth
    piece the inputs lie on; the jumps between pieces are not in it, so a
    finite difference whose step crosses one disagrees with it.
    """
    gaussians = tape.gaussians
    n = len(gaussians)
    num_classes = gaussians.num_classes
    grads = {field: np.zeros(getattr(gaussians, field).shape)
             for field in ("means", "scales", "rotations", "opacities", "semantics")}
    if not tape.blocks:
        return grads
    grad_flat = grad_channels.reshape(-1, num_classes)
    # per-Gaussian sums over pairs that the geometry terms are formed from
    dq_ys = np.zeros((n, 3))
    dq_l2 = np.zeros((n, 3))
    dR = np.zeros((n, 3, 3))

    def block_rows(k):
        start, stop, (pg, pv, e, delta, local) = tape.blocks[k]
        rows, g, m = slice(start, stop), pg - start, stop - start
        w = gaussians.opacities[pg] * e
        sem = gaussians.semantics[pg]
        up = grad_flat[pv]                                        # (P, C)
        if tape.min_contribution > 0.0:
            up = up * ((w[:, None] * sem) >= tape.min_contribution)

        # semantics and opacity enter linearly through the weight
        for ch in range(num_classes):
            grads["semantics"][rows, ch] = np.bincount(g, weights=w * up[:, ch], minlength=m)
        gsum = np.sum(up * sem, axis=1)                           # dL/dw per pair
        grads["opacities"][rows] = np.bincount(g, weights=gsum * e, minlength=m)

        # geometry terms, from the forward's pairwise delta and local
        ys = local / gaussians.scales[pg] ** 2
        dq = -0.5 * w * gsum
        for j in range(3):
            dq_ys[rows, j] = np.bincount(g, weights=dq * ys[:, j], minlength=m)
            dq_l2[rows, j] = np.bincount(g, weights=dq * local[:, j] ** 2, minlength=m)
            for i in range(3):
                dR[rows, i, j] = np.bincount(g, weights=dq * delta[:, i] * ys[:, j],
                                             minlength=m)

    _each(block_rows, len(tape.blocks))     # the blocks write disjoint rows
    rots_all = _quat_to_rotmat_unchecked(gaussians.rotations)     # (N, 3, 3)
    grads["means"] = -2.0 * np.einsum("gj,gkj->gk", dq_ys, rots_all)
    grads["scales"] = -2.0 * dq_l2 / gaussians.scales**3
    jac = quat_to_rotmat_jacobian(gaussians.rotations)            # (N, 4, 3, 3)
    grads["rotations"] = 2.0 * np.einsum("gpij,gij->gp", jac, dR)
    return grads


def labels_from_channels(grid: VoxelGrid, min_contribution: float = 1e-4) -> VoxelGrid:
    """Per-voxel argmax decode; ties go to the lowest class index and voxels
    where every channel is below min_contribution become the empty class."""
    if grid.channels is None:
        raise ValueError("grid has no channel payload")
    top = np.argmax(grid.channels, axis=-1)[..., None]
    # the largest channel is below the floor exactly when all are; argmax
    # picks the first NaN, and a NaN is not below the floor
    untouched = np.take_along_axis(grid.channels, top, axis=-1)[..., 0] < min_contribution
    labels = top[..., 0].astype(np.uint8)
    labels[untouched] = grid.geometry.num_classes - 1
    return VoxelGrid(grid.geometry, labels=labels)


# ---------------------------------------------------------------------------
# VOXG binary format
# ---------------------------------------------------------------------------

def write_voxg(grid: VoxelGrid) -> bytes:
    """Serialize a grid (channel or label payload) to the VOXG wire bytes."""
    geom = grid.geometry
    x, y, z = geom.dims
    if grid.channels is not None:
        kind = PAYLOAD_CHANNELS
        payload = np.ascontiguousarray(grid.channels, dtype="<f4").tobytes()
    elif grid.labels is not None:
        kind = PAYLOAD_LABELS
        payload = np.ascontiguousarray(grid.labels, dtype=np.uint8).tobytes()
    else:
        raise ValueError("grid has neither channels nor labels")
    header = _HEADER.pack(VOXG_MAGIC, VOXG_VERSION, x, y, z, geom.num_classes,
                          *np.asarray(geom.origin, dtype=np.float32),
                          np.float32(geom.voxel_size), kind)
    return header + payload


def read_voxg(data: bytes) -> VoxelGrid:
    if len(data) < _HEADER.size:
        raise ValueError("VOXG data shorter than header")
    magic, version, x, y, z, c, ox, oy, oz, h, kind = _HEADER.unpack_from(data, 0)
    if magic != VOXG_MAGIC:
        raise ValueError("bad VOXG magic")
    if version != VOXG_VERSION:
        raise ValueError(f"unsupported VOXG version {version}")
    geom = GridGeometry(np.array([ox, oy, oz], dtype=np.float64), float(h), (x, y, z),
                        num_classes=c)
    body = data[_HEADER.size:]
    if kind == PAYLOAD_CHANNELS:
        expect = x * y * z * c * 4
        if len(body) != expect:
            raise ValueError("truncated VOXG channel payload")
        ch = np.frombuffer(body, dtype="<f4").astype(np.float64).reshape(x, y, z, c)
        return VoxelGrid(geom, channels=ch)
    if kind == PAYLOAD_LABELS:
        expect = x * y * z
        if len(body) != expect:
            raise ValueError("truncated VOXG label payload")
        lbl = np.frombuffer(body, dtype=np.uint8).reshape(x, y, z)
        return VoxelGrid(geom, labels=lbl)             # checked and copied to uint8
    raise ValueError(f"unknown VOXG payload kind {kind}")


def save_voxg(grid: VoxelGrid, path) -> None:
    with open(path, "wb") as f:
        f.write(write_voxg(grid))


def load_voxg(path) -> VoxelGrid:
    with open(path, "rb") as f:
        return read_voxg(f.read())
