"""Gaussian-to-voxel splatting: render a set of semantic Gaussians into a
dense channel grid by additive aggregation, decode per-voxel labels, and
read/write grids in the VOXG binary format.

Each Gaussian contributes opacity * exp(-0.5 * mahalanobis^2) * semantics
at every voxel center within its truncation ellipsoid. The (gaussian,
voxel) pairs are enumerated and accumulated in canonical order, ascending
gaussian index then ascending flat voxel index, so the output is bit-exact
for fixed inputs on a fixed platform.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from gsfusion.core import (
    GaussianSet,
    GridGeometry,
    VoxelGrid,
    _check_conditioning,
    _quat_to_rotmat_unchecked,
)

VOXG_MAGIC = b"VOXG"
VOXG_VERSION = 1
PAYLOAD_CHANNELS = 0
PAYLOAD_LABELS = 1

# magic, version, X, Y, Z, C, origin xyz, voxel_size, payload kind
_HEADER = struct.Struct("<4sIIIII3ffB")


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


def _pair_lists(gaussians: GaussianSet, geometry: GridGeometry, cfg: SplatConfig):
    """All (gaussian, voxel) pairs inside the truncation ellipsoids.

    Returns flat arrays (pair_gauss, pair_voxel, e) where e is the
    Gaussian exponential at the voxel center, ordered by (gaussian, flat
    voxel index). Candidates are the voxels whose centers lie in each
    ellipsoid's axis-aligned bounding box, of half-extent t * sqrt(Sigma_ii)
    on axis i, widened by 1e-9 voxel against rounding and clipped to the
    grid; the Mahalanobis test q <= t**2 alone decides membership.
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
    # the arithmetic of a row-wise R^T delta and sum over axes, kept so
    # that every pair's e is bit-identical to the brute force in the tests
    local = np.einsum("pk,pkj->pj", delta, per_candidate(rots))
    q = sum((local[:, j] / per_candidate(gaussians.scales[:, j])) ** 2 for j in range(3))
    keep = q <= t**2
    _, ny, nz = geometry.dims
    flat = (vox[0][keep] * ny + vox[1][keep]) * nz + vox[2][keep]
    return g[keep], flat, np.exp(-0.5 * q[keep])


def splat(gaussians: GaussianSet, geometry: GridGeometry, cfg: SplatConfig | None = None,
          pairs=None) -> VoxelGrid:
    """Additively render `gaussians` into a channel grid.

    Contributions are evaluated at voxel centers and restricted to centers
    with Mahalanobis distance <= truncation_sigma; per-channel values below
    min_contribution are dropped. Accumulation is vectorized over
    (gaussian, voxel) pairs and deterministic for fixed inputs. `pairs`
    accepts a precomputed _pair_lists result for the same arguments.
    """
    cfg = cfg or SplatConfig()
    num_classes = geometry.num_classes
    out_flat = np.zeros((geometry.num_voxels, num_classes))
    if len(gaussians) == 0:
        return VoxelGrid(geometry, channels=out_flat.reshape(geometry.dims + (num_classes,)))
    if gaussians.num_classes != num_classes:
        raise ValueError("gaussian semantics width does not match grid classes")
    _check_conditioning(gaussians.scales)
    pg, pv, e = pairs if pairs is not None else _pair_lists(gaussians, geometry, cfg)
    w = gaussians.opacities[pg] * e
    sem = gaussians.semantics[pg]                                # (P, C)
    nvox = geometry.num_voxels
    for ch in range(num_classes):
        weights = w * sem[:, ch]
        if cfg.min_contribution > 0.0:
            weights = np.where(weights >= cfg.min_contribution, weights, 0.0)
        out_flat[:, ch] = np.bincount(pv, weights=weights, minlength=nvox)
    return VoxelGrid(geometry, channels=out_flat.reshape(geometry.dims + (num_classes,)))


def splat_backward(gaussians: GaussianSet, geometry: GridGeometry, cfg: SplatConfig,
                   grad_channels: np.ndarray, pairs=None) -> dict[str, np.ndarray]:
    """Gradients of sum(grad_channels * splat(...)) w.r.t. every Gaussian field.

    Reuses (or recomputes) the forward pair enumeration, so it
    differentiates exactly the function `splat` evaluates (same truncation
    and floor masks). Returns arrays keyed
    means/scales/rotations/opacities/semantics.

    `splat` is piecewise smooth: a contribution drops to zero where its
    (Gaussian, voxel) pair crosses the truncation_sigma surface or its
    value crosses min_contribution. This is the gradient of the smooth
    piece the inputs lie on; the jumps between pieces are not in it, so a
    finite difference whose step crosses one disagrees with it.
    """
    cfg = cfg or SplatConfig()
    n = len(gaussians)
    num_classes = gaussians.num_classes
    grads = {
        "means": np.zeros((n, 3)),
        "scales": np.zeros((n, 3)),
        "rotations": np.zeros((n, 4)),
        "opacities": np.zeros(n),
        "semantics": np.zeros((n, num_classes)),
    }
    if n == 0:
        return grads
    from gsfusion.core import quat_to_rotmat_jacobian

    pg, pv, e = pairs if pairs is not None else _pair_lists(gaussians, geometry, cfg)
    if pg.size == 0:
        return grads
    grad_flat = grad_channels.reshape(-1, num_classes)
    w = gaussians.opacities[pg] * e
    sem = gaussians.semantics[pg]
    up = grad_flat[pv]                                            # (P, C)
    if cfg.min_contribution > 0.0:
        up = up * ((w[:, None] * sem) >= cfg.min_contribution)

    # semantics and opacity enter linearly through the weight
    for ch in range(num_classes):
        grads["semantics"][:, ch] = np.bincount(pg, weights=w * up[:, ch], minlength=n)
    gsum = np.sum(up * sem, axis=1)                               # dL/dw per pair
    grads["opacities"] = np.bincount(pg, weights=gsum * e, minlength=n)

    # geometry terms, recomputed pairwise then reduced per gaussian
    h = geometry.voxel_size
    _, ny, nz = geometry.dims
    vz = pv % nz
    vy = (pv // nz) % ny
    vx = pv // (ny * nz)
    centers = geometry.origin + (np.stack([vx, vy, vz], axis=1) + 0.5) * h
    delta = centers - gaussians.means[pg]
    rots_all = _quat_to_rotmat_unchecked(gaussians.rotations)     # (N, 3, 3)
    local = np.einsum("pk,pkj->pj", delta, rots_all[pg])
    ys = local / gaussians.scales[pg] ** 2
    dq = -0.5 * w * gsum

    dq_ys = np.stack([np.bincount(pg, weights=dq * ys[:, j], minlength=n)
                      for j in range(3)], axis=1)                 # (N, 3)
    grads["means"] = -2.0 * np.einsum("gj,gkj->gk", dq_ys, rots_all)
    dq_l2 = np.stack([np.bincount(pg, weights=dq * local[:, j] ** 2, minlength=n)
                      for j in range(3)], axis=1)
    grads["scales"] = -2.0 * dq_l2 / gaussians.scales**3
    dR = np.empty((n, 3, 3))
    for i in range(3):
        for j in range(3):
            dR[:, i, j] = np.bincount(pg, weights=dq * delta[:, i] * ys[:, j],
                                      minlength=n)
    jac = quat_to_rotmat_jacobian(gaussians.rotations)            # (N, 4, 3, 3)
    grads["rotations"] = 2.0 * np.einsum("gpij,gij->gp", jac, dR)
    return grads


def labels_from_channels(grid: VoxelGrid, min_contribution: float = 1e-4) -> VoxelGrid:
    """Per-voxel argmax decode; ties go to the lowest class index and voxels
    where every channel is below min_contribution become the empty class."""
    if grid.channels is None:
        raise ValueError("grid has no channel payload")
    ch = grid.channels
    labels = np.argmax(ch, axis=-1).astype(np.uint8)
    untouched = np.all(ch < min_contribution, axis=-1)
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
        if np.any(lbl >= c):
            raise ValueError("VOXG label out of range")
        return VoxelGrid(geom, labels=lbl.copy())
    raise ValueError(f"unknown VOXG payload kind {kind}")


def save_voxg(grid: VoxelGrid, path) -> None:
    with open(path, "wb") as f:
        f.write(write_voxg(grid))


def load_voxg(path) -> VoxelGrid:
    with open(path, "rb") as f:
        return read_voxg(f.read())
