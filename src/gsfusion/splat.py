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
Gaussian (the empty-space prior's box is the whole grid). A block builds
its candidates from per-axis tables: for each Gaussian, axis and cell of
its box along that axis, the offset from the mean and its products with
the rotation's row. Rows (Gaussian, x) expand into (Gaussian, x, y)
columns and columns into candidates by 1-D `take`, bincount and cumsum,
which release the GIL, so two egos' blocks render at once. A candidate's local_j is
(P_x + P_y) + P_z, the sum over the axes in the order einsum forms
R^T delta, each table product having +0.0 added, as einsum sums onto
+0.0; so q, e, delta and local are the bits of that einsum. The bound
changes no bit and is 2^16 for speed. In a sweep from 2^14 to 2^17 over
single and zero_shot episodes of both benchmark workloads, alternating
bounds in one process on a team (2-core x86_64), 2^16 was fastest on
`paper_infer` (single 51-52 ms against 61 ms at 2^14 and 64 ms at 2^17),
tied with 2^15 on `acceptance_train` single and 4-9% behind it on its
zero_shot. At 2^17 most of `paper_infer`'s sets are one block, so the
last ego's render can no longer be shared between the threads.

With `record` the splat also keeps a tape of the rows it names (an
ascending array of row indices): one record per block, as `fuse_scene`
keeps its tape, holding the pairs of the named rows in the block with
their delta and local, which are gathered for those pairs only, and the
sorted set of voxels those pairs touch. `splat_backward` walks the
records block by block, writing each block's rows, and reads the loss
gradient only at the tape's voxels. A row's gradient sums only that
row's pairs, so leaving the other rows' pairs off the tape changes no
bit of a named row's gradient; the rows it leaves off get zeros. An
unrecorded splat keeps no tape fields. Every sum of the backward bins by
Gaussian, and a Gaussian's pairs all lie in one block in their canonical
order, so the blocks change no gradient bit. On a team (see the
`gsfusion.core` docstring) the forward makes a pair of blocks' pairs and
entries at a time, each on whichever thread claims it, and the calling
thread adds both into the grid, in block order, before the next pair
starts; the backward runs its blocks on whichever thread claims them.

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
    _quat_to_rotmat_unchecked,
    _whole_runs,
    index_set,
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
_BLOCK = 1 << 16


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
    None where no backward reads them.
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
    its floor (min_contribution), the blocks that hold pairs of the
    recorded rows, in order, with only those rows' pairs, and `voxels`,
    the ascending flat indices of the voxels those pairs touch, which are
    the rows of the loss gradient `splat_backward` reads."""

    gaussians: GaussianSet
    min_contribution: float
    blocks: list[SplatBlock]
    voxels: np.ndarray


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
                 differentiate: np.ndarray | None = None
                 ) -> tuple[int, Callable[[int], tuple[SplatBlock, SplatBlock | None]]]:
    """All (gaussian, voxel) pairs inside the truncation ellipsoids, ordered
    by (gaussian, flat voxel index), in blocks of whole Gaussians: returns
    the block count and a function, to be called from any thread, that
    gives block k's SplatBlock of every pair, with delta and local None,
    and the SplatBlock of the pairs on the rows that `differentiate` (a
    bool per row) marks, with their delta and local, which only the
    backward reads; None without `differentiate`.

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
        every, recorded = _box_pairs(geometry, t, gaussians.means[b], gaussians.scales[b],
                                     rots[b], lo[b], ext[b],
                                     None if differentiate is None else differentiate[b])

        def shifted(pairs):
            return SplatBlock(start, stop, pairs._replace(gauss=pairs.gauss + start))

        return shifted(every), None if recorded is None else shifted(recorded)

    return len(runs), block


def _segments(lengths: np.ndarray) -> np.ndarray:
    """The segment of each position when consecutive segments hold
    `lengths` positions, empty ones allowed: position p lies in the last
    segment that starts at or before it. One bincount and one cumsum,
    which release the GIL where `np.repeat` holds it."""
    ends = np.cumsum(lengths)
    total = int(ends[-1]) if ends.size else 0
    return np.cumsum(np.bincount(ends[:-1], minlength=total)[:total])


def _box_pairs(geometry: GridGeometry, t: float, means: np.ndarray, scales: np.ndarray,
               rots: np.ndarray, lo: np.ndarray, ext: np.ndarray,
               differentiate: np.ndarray | None) -> tuple[Pairs, Pairs | None]:
    """The pairs among the candidates of the boxes with lowest corner `lo`
    and extent `ext`, one box per Gaussian of the (n, 3) `means` and
    `scales` and (n, 3, 3) `rots` (indexed from 0), without delta and
    local; then the pairs of the rows that `differentiate` marks, the only
    pairs whose delta and local are gathered, or None without it.

    Per-axis tables hold, for each Gaussian g, axis a and cell of g's box
    along a, the offset d = origin_a + (cell + 0.5) * h - mean_a and its
    products P_a = d * R[g, a, j]. Rows (g, ix) expand into columns
    (g, ix, iy), and columns into candidates (g, ix, iy, iz), x-major, by
    1-D gathers; local_j = (P_x + P_y) + P_z is einsum's sum over a."""
    h = geometry.voxel_size
    _, ny, nz = geometry.dims
    n = len(means)
    # an entry per (axis a, Gaussian g, cell of g's box along a), axis-major:
    # (a, g)'s cells start at entry first[a * n + g]
    lengths = ext.T.reshape(-1)
    first = np.cumsum(lengths) - lengths
    seg = _segments(lengths)                                    # a * n + g
    cell = np.arange(seg.size) - first.take(seg) + lo.T.reshape(-1).take(seg)
    d = (geometry.origin.take(seg // n) + (cell + 0.5) * h
         - means.T.reshape(-1).take(seg))
    r = rots.transpose(1, 0, 2).reshape(-1, 3)
    # einsum sums onto +0.0, which turns a -0.0 product into +0.0
    prod = [d * r[:, j].take(seg) + 0.0 for j in range(3)]

    def expand(g, axis):
        """The owner of each item of the Gaussians `g`, an item per cell
        of g's box along `axis`, and the item's entry in the tables."""
        length = ext[:, axis].take(g)
        of = _segments(length)
        entry = (first[axis * n:(axis + 1) * n].take(g) - np.cumsum(length) + length).take(of)
        entry += np.arange(of.size)
        return of, entry

    g_row = seg[:int(ext[:, 0].sum())]              # rows (g, ix) are the x entries
    row, y = expand(g_row, 1)                       # columns (g, ix, iy)
    g_col = g_row.take(row)
    col, z = expand(g_col, 2)                       # candidates (g, ix, iy, iz)
    local = []
    for j in range(3):
        lj = (prod[j].take(row) + prod[j].take(y)).take(col)
        lj += prod[j].take(z)
        u = lj / scales[:, j].take(g_col).take(col)
        u *= u
        if j:
            q += u
        else:
            q = u
        if differentiate is not None:
            local.append(lj)
    kept = np.flatnonzero(q <= t**2)
    at_col = col.take(kept)
    gauss = g_col.take(at_col)
    flat = (cell.take(row.take(at_col)) * ny + cell.take(y.take(at_col))) * nz
    flat += cell.take(z.take(kept))
    every = Pairs(gauss, flat, np.exp(-0.5 * q.take(kept)), None, None)
    if differentiate is None:
        return every, None
    mine = np.flatnonzero(differentiate.take(gauss))
    at, cols = kept.take(mine), at_col.take(mine)
    delta = np.stack([d.take(row.take(cols)), d.take(y.take(cols)), d.take(z.take(at))], axis=1)
    return every, Pairs(gauss.take(mine), flat.take(mine), every.e.take(mine),
                        delta, np.stack([lj.take(at) for lj in local], axis=1))


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
          record: bool | np.ndarray = False):
    """Additively render `gaussians` into a channel grid.

    Contributions are evaluated at voxel centers and restricted to centers
    with Mahalanobis distance <= truncation_sigma; per-channel values below
    min_contribution are dropped. Accumulation is vectorized over
    (gaussian, voxel) pairs, block by block, and deterministic for fixed
    inputs. With `record`, an array of ascending row indices
    (`index_set`), also returns a SplatTape for `splat_backward` of those
    rows; False records nothing.
    """
    cfg = cfg or SplatConfig()
    num_classes = geometry.num_classes
    if len(gaussians) and gaussians.num_classes != num_classes:
        raise ValueError("gaussian semantics width does not match grid classes")
    _check_conditioning(gaussians.scales)
    differentiate = None
    if record is not False:
        differentiate = np.zeros(len(gaussians), dtype=bool)
        differentiate[index_set("splat record rows", record, len(gaussians))] = True
    # allocated before the pair temporaries: a caller that keeps the grid
    # keeps it below them in the heap, not above the hole they leave
    out = np.zeros(geometry.num_voxels * num_classes)
    count, pair_block = _pair_blocks(gaussians, geometry, cfg, differentiate)
    one_hot = _one_hot(gaussians.semantics)
    blocks = []
    touched = np.zeros(0 if differentiate is None else geometry.num_voxels, dtype=bool)

    def block(k):
        every, recorded = pair_block(k)
        kept = recorded if recorded is not None and recorded.pairs.gauss.size else None
        return kept, _entries(gaussians, every.pairs, cfg.min_contribution, one_hot)

    def fold(item):
        kept, (index, value) = item
        np.add.at(out, index, value)
        if kept is not None:
            blocks.append(kept)
            touched[kept.pairs.voxel] = True

    # pairs and entries on either thread; the grid sums on this one, in block order
    _each_folded(block, count, fold)
    grid = VoxelGrid(geometry, channels=out.reshape(geometry.dims + (num_classes,)))
    if differentiate is None:
        return grid
    return grid, SplatTape(gaussians, cfg.min_contribution, blocks, np.flatnonzero(touched))


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


def splat_backward(tape: SplatTape, grad_voxels: np.ndarray) -> dict[str, np.ndarray]:
    """Gradients of sum(grad_channels * splat(...)) w.r.t. every Gaussian field
    of the rows `tape` recorded, given `grad_voxels`, the rows of the
    (voxels, classes) gradient grad_channels at the tape's `voxels`, in
    their order: a (len(tape.voxels), classes) array, which is checked
    (ValueError).

    Walks the forward's recorded blocks, so it differentiates exactly the
    function `splat` evaluates (same truncation and floor masks), and holds
    one block's (pairs, classes) temporaries at a time. Returns arrays keyed
    means/scales/rotations/opacities/semantics, one row per Gaussian of the
    set, zero for a row without recorded pairs. A row's gradient sums only
    that row's pairs, so a constant set rendered apart (and added to the
    channels), or a row left off the tape, changes no recorded row's bits.

    `splat` is piecewise smooth: a contribution drops to zero where its
    (Gaussian, voxel) pair crosses the truncation_sigma surface or its
    value crosses min_contribution. This is the gradient of the smooth
    piece the inputs lie on; the jumps between pieces are not in it, so a
    finite difference whose step crosses one disagrees with it.
    """
    gaussians = tape.gaussians
    n = len(gaussians)
    num_classes = gaussians.num_classes
    grad_voxels = np.asarray(grad_voxels, dtype=np.float64)
    expected = (tape.voxels.size, num_classes)
    if grad_voxels.shape != expected:
        raise ValueError(f"splat_backward needs the loss gradient at the tape's voxels, "
                         f"of shape {expected}, not {grad_voxels.shape}")
    grads = {field: np.zeros(getattr(gaussians, field).shape)
             for field in ("means", "scales", "rotations", "opacities", "semantics")}
    if not tape.blocks:
        return grads
    # each flat voxel index's row in grad_voxels
    slot = np.zeros(tape.voxels[-1] + 1, dtype=np.intp)
    slot[tape.voxels] = np.arange(tape.voxels.size)
    # per-Gaussian sums over pairs that the geometry terms are formed from
    dq_ys = np.zeros((n, 3))
    dq_l2 = np.zeros((n, 3))
    dR = np.zeros((n, 3, 3))

    def block_rows(k):
        start, stop, (pg, pv, e, delta, local) = tape.blocks[k]
        rows, g, m = slice(start, stop), pg - start, stop - start
        w = gaussians.opacities[pg] * e
        sem = gaussians.semantics[pg]
        up = grad_voxels[slot.take(pv)]                           # (P, C)
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
