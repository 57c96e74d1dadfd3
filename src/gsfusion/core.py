"""Core domain types shared by every module: semantic Gaussian primitives,
rigid transforms, voxel grids, and the quaternion algebra they rely on.

Conventions fixed here and used everywhere else:
  - quaternions are stored (w, x, y, z), unit norm, canonical sign w >= 0
    (ties broken by making the first nonzero component positive);
  - `scale` holds per-axis standard-deviation-like extents, so the
    covariance is R * diag(scale)^2 * R^T;
  - the last semantic channel (index C-1) is the empty class.

All types are immutable values; every operation is pure.

Concurrency. Every loop that runs on two cores goes through one
primitive here: `_two_threads()` gives the calling thread a team of
itself and one worker thread, and `_each(fn, n)` returns
`[fn(0), ..., fn(n - 1)]` in order. `train`, `train_calibration` and
`run_episode` hold a team for their whole call. On a team, `_each`
publishes its items as a job; its owner (the thread that called it) and
the other thread claim them one at a time, in index order, whichever
asks first. A thread with nothing of its own to run takes the next item
of the newest job opened after its own: the worker between items, or an
owner whose last items run on the other thread. So an `_each` nested in
an item, on either thread, is shared too, and a thread done with its ego
or training example helps with the other's fusion blocks, splat blocks
and loss instead of idling; but a waiting owner never starts an item of
an older job, such as a whole ego inside another ego's wait. `_each`
returns once every item handed out has finished; if items raised, no
further item is handed out and the lowest-index exception is raised on
the owner. A training step with a batch of two or more splits its
examples, and an episode its egos; the stages of each split their own
work: `fuse_scene` its blocks of segments, `splat` and `splat_backward`
their blocks of Gaussians, `fusion_backward` its blocks, and
`total_loss` its two halves of the voxels and, in Lovasz, its present
classes.

Every split item writes only its own rows (or returns its own result),
and results are summed in index order on the owner, so a split run gives
the bits of the same loop run inline, whichever thread ran each item.
While a team exists, both threads hold BLAS to one thread through
OpenBLAS's per-thread setter, so the two do not contend for the cores
through BLAS's own threads, and the results equal a one-thread
sequential run's bit for bit, whatever the process's BLAS thread count.
So a team uses two cores however many threads BLAS would otherwise use;
this was measured only on a 2-core machine, where it is faster, and may
be slower on a host whose BLAS would give each item more than two
threads. Without a team (a library call outside those three), or when
numpy's BLAS has no per-thread setter, every `_each` runs inline with
BLAS untouched.
"""

from __future__ import annotations

import ctypes
import dataclasses
import numbers
import threading
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

NUM_CLASSES = 13          # 12 semantic classes + 1 empty class
EMPTY_CLASS = NUM_CLASSES - 1

CLASS_NAMES = (
    "building", "fence", "terrain", "pole", "road", "sidewalk",
    "vegetation", "vehicle", "wall", "guard_rail", "traffic_sign", "bridge",
    "empty",
)
CLASS_BUILDING, CLASS_FENCE, CLASS_TERRAIN, CLASS_POLE = 0, 1, 2, 3
CLASS_ROAD, CLASS_SIDEWALK, CLASS_VEGETATION, CLASS_VEHICLE = 4, 5, 6, 7
CLASS_WALL, CLASS_GUARD_RAIL, CLASS_TRAFFIC_SIGN, CLASS_BRIDGE = 8, 9, 10, 11

_QUAT_NORM_TOL = 1e-6
_DEGENERATE_CONDITION = 1e12


class DegenerateGaussianError(ValueError):
    """Covariance too ill-conditioned to evaluate (condition number > 1e12)."""


# ---------------------------------------------------------------------------
# quaternion algebra
# ---------------------------------------------------------------------------

def quat_normalize(q: np.ndarray) -> np.ndarray:
    """Scale a quaternion (or batch of them, last axis 4) to unit norm."""
    q = np.asarray(q, dtype=np.float64)
    norm = np.linalg.norm(q, axis=-1, keepdims=True)
    if np.any(norm == 0.0):
        raise ValueError("cannot normalize a zero quaternion")
    return q / norm


def canonicalize_quaternion(q: np.ndarray) -> np.ndarray:
    """Return the unit quaternion with non-negative scalar part.

    If w is exactly zero the sign is fixed by making the first nonzero of
    (x, y, z) positive, so every rotation has exactly one representative.
    """
    q = quat_normalize(q)
    if q.ndim == 1:
        return q * _canonical_sign(q[None, :])[0]
    return q * _canonical_sign(q)


def _canonical_sign(q: np.ndarray) -> np.ndarray:
    """Per-row sign (+-1, shape (N,1)) that makes each quaternion canonical:
    the sign of the row's first nonzero component (0 for an all-zero row,
    which quat_normalize rejects upstream)."""
    first = np.argmax(q != 0.0, axis=1)
    return np.sign(q[np.arange(q.shape[0]), first])[:, None]


def quat_multiply(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Hamilton product a * b; composes rotations so R(a*b) = R(a) R(b)."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    aw, ax, ay, az = np.moveaxis(a, -1, 0)
    bw, bx, by, bz = np.moveaxis(b, -1, 0)
    return np.stack(
        [
            aw * bw - ax * bx - ay * by - az * bz,
            aw * bx + ax * bw + ay * bz - az * by,
            aw * by - ax * bz + ay * bw + az * bx,
            aw * bz + ax * by - ay * bx + az * bw,
        ],
        axis=-1,
    )


def quat_conjugate(q: np.ndarray) -> np.ndarray:
    q = np.asarray(q, dtype=np.float64)
    return q * np.array([1.0, -1.0, -1.0, -1.0])


def quat_to_rotmat(q: np.ndarray) -> np.ndarray:
    """Rotation matrix of a unit quaternion.

    Accepts a single (4,) quaternion or a batch (N, 4); rejects inputs whose
    norm deviates from 1 by more than 1e-6. q and -q map to the same matrix.
    """
    q = np.asarray(q, dtype=np.float64)
    norm = np.linalg.norm(q, axis=-1)
    if np.any(np.abs(norm - 1.0) > _QUAT_NORM_TOL):
        raise ValueError("quaternion is not unit norm within 1e-6")
    return _quat_to_rotmat_unchecked(q)


def _quat_to_rotmat_unchecked(q: np.ndarray) -> np.ndarray:
    w, x, y, z = np.moveaxis(np.asarray(q, dtype=np.float64), -1, 0)
    row0 = np.stack([1 - 2 * (y * y + z * z), 2 * (x * y - z * w), 2 * (x * z + y * w)], axis=-1)
    row1 = np.stack([2 * (x * y + z * w), 1 - 2 * (x * x + z * z), 2 * (y * z - x * w)], axis=-1)
    row2 = np.stack([2 * (x * z - y * w), 2 * (y * z + x * w), 1 - 2 * (x * x + y * y)], axis=-1)
    return np.stack([row0, row1, row2], axis=-2)


def quat_to_rotmat_jacobian(q: np.ndarray) -> np.ndarray:
    """d(rotmat)/d(quaternion components) for the formula in quat_to_rotmat.

    Returns shape (..., 4, 3, 3): entry [p] is dR/dq_p treating the four
    components as free variables (the caller is responsible for chaining
    through any normalization).
    """
    q = np.asarray(q, dtype=np.float64)
    w, x, y, z = np.moveaxis(q, -1, 0)
    zero = np.zeros_like(w)

    def m(a, b, c, d, e, f, g, h, i):
        return np.stack(
            [np.stack([a, b, c], axis=-1),
             np.stack([d, e, f], axis=-1),
             np.stack([g, h, i], axis=-1)],
            axis=-2,
        )

    dw = m(zero, -2 * z, 2 * y,
           2 * z, zero, -2 * x,
           -2 * y, 2 * x, zero)
    dx = m(zero, 2 * y, 2 * z,
           2 * y, -4 * x, -2 * w,
           2 * z, 2 * w, -4 * x)
    dy = m(-4 * y, 2 * x, 2 * w,
           2 * x, zero, 2 * z,
           -2 * w, 2 * z, -4 * y)
    dz = m(-4 * z, -2 * w, 2 * x,
           2 * w, -4 * z, 2 * y,
           2 * x, 2 * y, zero)
    return np.stack([dw, dx, dy, dz], axis=-3)


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------

def _frozen(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=np.float64)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class SemanticGaussian:
    """One anisotropic semantic Gaussian primitive.

    mean      (3,) meters
    scale     (3,) meters, > 0, per-axis standard-deviation-like extents
    rotation  (4,) unit quaternion (w, x, y, z), canonical sign
    opacity   scalar in [0, 1]
    semantics (C,) non-negative class weights, last channel = empty class

    The constructor canonicalizes the quaternion sign and absorbs norm
    drift up to 1e-6; every other invariant is `GaussianSet.validate`'s,
    checked on the one-row set, so a violation raises what it raises.
    """

    mean: np.ndarray
    scale: np.ndarray
    rotation: np.ndarray
    opacity: float
    semantics: np.ndarray

    def __post_init__(self):
        mean = _frozen(self.mean)
        scale = _frozen(self.scale)
        rotation = np.asarray(self.rotation, dtype=np.float64)
        semantics = _frozen(self.semantics)
        if mean.shape != (3,) or scale.shape != (3,) or rotation.shape != (4,):
            raise ValueError("bad field shapes for SemanticGaussian")
        if semantics.ndim != 1:
            raise ValueError("semantics must be a 1-d class-weight vector")
        op = float(self.opacity)
        GaussianSet(mean, scale, rotation, op, semantics).validate()
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "scale", scale)
        object.__setattr__(self, "rotation", _frozen(canonicalize_quaternion(rotation)))
        object.__setattr__(self, "opacity", op)
        object.__setattr__(self, "semantics", semantics)

    @property
    def num_classes(self) -> int:
        return self.semantics.shape[0]


@dataclass
class GaussianSet:
    """Structure-of-arrays batch of semantic Gaussians.

    means (N,3), scales (N,3), rotations (N,4), opacities (N,),
    semantics (N,C). The batch form is what splatting, packaging and
    fusion operate on; convert with from_gaussians / to_gaussians when a
    single primitive is needed. The constructor checks the shape (every
    field has one row per Gaussian, else ValueError); `validate` checks
    the values.
    """

    means: np.ndarray
    scales: np.ndarray
    rotations: np.ndarray
    opacities: np.ndarray
    semantics: np.ndarray

    ROW_FIELDS = 11             # the scalars of a row before the class weights

    def __post_init__(self):
        self.means = np.asarray(self.means, dtype=np.float64).reshape(-1, 3)
        self.scales = np.asarray(self.scales, dtype=np.float64).reshape(-1, 3)
        self.rotations = np.asarray(self.rotations, dtype=np.float64).reshape(-1, 4)
        self.opacities = np.asarray(self.opacities, dtype=np.float64).reshape(-1)
        sem = np.asarray(self.semantics, dtype=np.float64)
        if sem.ndim != 2:
            sem = sem.reshape(len(self.means), -1)
        self.semantics = sem
        rows = [len(a) for a in (self.means, self.scales, self.rotations, self.opacities, sem)]
        if len(set(rows)) > 1:
            raise ValueError("ragged GaussianSet: means, scales, rotations, opacities and "
                             "semantics have {}, {}, {}, {} and {} rows".format(*rows))

    def __len__(self) -> int:
        return self.means.shape[0]

    @property
    def num_classes(self) -> int:
        return self.semantics.shape[1]

    def validate(self) -> None:
        """Raise ValueError unless every row satisfies the type invariants:
        finite fields, positive scales, unit quaternions (within 1e-6),
        opacities in [0, 1] and non-negative semantics; and the splat's,
        a covariance condition number above 1e12 raising
        DegenerateGaussianError. Finiteness comes first, so a NaN is
        reported as non-finite."""
        for a in (self.means, self.scales, self.rotations, self.opacities, self.semantics):
            if not np.all(np.isfinite(a)):
                raise ValueError("non-finite value in GaussianSet")
        if not np.all(self.scales > 0.0):
            raise ValueError("scale components must be strictly positive")
        norms = np.linalg.norm(self.rotations, axis=1)
        if np.any(np.abs(norms - 1.0) > _QUAT_NORM_TOL):
            raise ValueError("rotation quaternions must be unit norm within 1e-6")
        if np.any((self.opacities < 0.0) | (self.opacities > 1.0)):
            raise ValueError("opacities must lie in [0, 1]")
        if np.any(self.semantics < 0.0):
            raise ValueError("semantics must be non-negative")
        _check_conditioning(self.scales)

    def canonicalized(self) -> "GaussianSet":
        """Copy with all rotation quaternions normalized to canonical sign."""
        return GaussianSet(self.means.copy(), self.scales.copy(),
                           canonicalize_quaternion(self.rotations),
                           self.opacities.copy(), self.semantics.copy())

    def take(self, idx) -> "GaussianSet":
        return GaussianSet(self.means[idx], self.scales[idx], self.rotations[idx],
                           self.opacities[idx], self.semantics[idx])

    def copy(self) -> "GaussianSet":
        return GaussianSet(self.means.copy(), self.scales.copy(), self.rotations.copy(),
                           self.opacities.copy(), self.semantics.copy())

    @staticmethod
    def empty(num_classes: int = NUM_CLASSES) -> "GaussianSet":
        return GaussianSet(np.zeros((0, 3)), np.zeros((0, 3)), np.zeros((0, 4)),
                           np.zeros(0), np.zeros((0, num_classes)))

    @staticmethod
    def concat(sets: list["GaussianSet"]) -> "GaussianSet":
        sets = [s for s in sets]
        if not sets:
            return GaussianSet.empty()
        return GaussianSet(
            np.concatenate([s.means for s in sets]),
            np.concatenate([s.scales for s in sets]),
            np.concatenate([s.rotations for s in sets]),
            np.concatenate([s.opacities for s in sets]),
            np.concatenate([s.semantics for s in sets]),
        )

    @staticmethod
    def from_gaussians(gaussians: list[SemanticGaussian]) -> "GaussianSet":
        if not gaussians:
            return GaussianSet.empty()
        return GaussianSet(
            np.stack([g.mean for g in gaussians]),
            np.stack([g.scale for g in gaussians]),
            np.stack([g.rotation for g in gaussians]),
            np.array([g.opacity for g in gaussians]),
            np.stack([g.semantics for g in gaussians]),
        )

    def rows(self) -> np.ndarray:
        """The fields side by side, (N, ROW_FIELDS + C): mean xyz, scale xyz,
        quaternion wxyz, opacity, class weights. The GMSG wire record and
        fusion's ego feature are this row; `from_rows` reads it back."""
        return np.concatenate([self.means, self.scales, self.rotations,
                               self.opacities[:, None], self.semantics], axis=1)

    @staticmethod
    def from_rows(rows: np.ndarray) -> "GaussianSet":
        """The set whose `rows()` are `rows` (views of float64 `rows`), unchecked."""
        return GaussianSet(rows[:, 0:3], rows[:, 3:6], rows[:, 6:10], rows[:, 10],
                           rows[:, GaussianSet.ROW_FIELDS:])

    def to_gaussians(self) -> list[SemanticGaussian]:
        return [
            SemanticGaussian(self.means[i], self.scales[i], self.rotations[i],
                             float(self.opacities[i]), self.semantics[i])
            for i in range(len(self))
        ]


@dataclass(frozen=True)
class RigidTransform:
    """SE(3) pose: x -> R(rotation_q) x + translation."""

    rotation_q: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        q = np.asarray(self.rotation_q, dtype=np.float64)
        t = _frozen(self.translation)
        if q.shape != (4,) or t.shape != (3,):
            raise ValueError("bad field shapes for RigidTransform")
        if not abs(np.linalg.norm(q) - 1.0) <= _QUAT_NORM_TOL:
            raise ValueError("rotation_q is not unit norm within 1e-6")
        if not np.all(np.isfinite(t)):
            raise ValueError("translation must be finite")
        object.__setattr__(self, "rotation_q", _frozen(canonicalize_quaternion(q)))
        object.__setattr__(self, "translation", t)

    @staticmethod
    def identity() -> "RigidTransform":
        return RigidTransform(np.array([1.0, 0.0, 0.0, 0.0]), np.zeros(3))

    def rotation_matrix(self) -> np.ndarray:
        return quat_to_rotmat(self.rotation_q)

    def apply(self, points: np.ndarray) -> np.ndarray:
        """Transform one (3,) point or a batch (N,3)."""
        pts = np.asarray(points, dtype=np.float64)
        return pts @ self.rotation_matrix().T + self.translation

    def compose(self, other: "RigidTransform") -> "RigidTransform":
        """self o other: apply `other` first, then `self`."""
        q = quat_multiply(self.rotation_q, other.rotation_q)
        t = self.apply(other.translation)
        return RigidTransform(quat_normalize(q), t)

    def inverse(self) -> "RigidTransform":
        qinv = quat_conjugate(self.rotation_q)
        rinv = quat_to_rotmat(quat_normalize(qinv))
        return RigidTransform(qinv / np.linalg.norm(qinv), -(rinv @ self.translation))


@dataclass(frozen=True)
class Roi:
    """Axis-aligned box (closed bounds) in the owning agent's frame."""

    center: np.ndarray
    half_extents: np.ndarray

    def __post_init__(self):
        c = _frozen(self.center)
        h = _frozen(self.half_extents)
        if c.shape != (3,) or h.shape != (3,):
            raise ValueError("bad field shapes for Roi")
        if not np.all(np.isfinite(c)):
            raise ValueError("center must be finite")
        if not np.all((h > 0.0) & (h < np.inf)):
            raise ValueError("half_extents must be strictly positive and finite")
        object.__setattr__(self, "center", c)
        object.__setattr__(self, "half_extents", h)

    def contains(self, points: np.ndarray) -> np.ndarray:
        """Closed-box membership for one point (returns bool) or (N,3) batch."""
        pts = np.asarray(points, dtype=np.float64)
        d = np.abs(pts - self.center)
        inside = np.all(d <= self.half_extents, axis=-1)
        return inside


@dataclass(frozen=True)
class GridGeometry:
    """Placement of a dense voxel grid: corner origin, cube size, counts."""

    origin: np.ndarray
    voxel_size: float
    dims: tuple[int, int, int]
    num_classes: int = NUM_CLASSES

    def __post_init__(self):
        o = _frozen(self.origin)
        if o.shape != (3,) or not np.all(np.isfinite(o)):
            raise ValueError("origin must be a finite 3-vector")
        if not 0.0 < self.voxel_size < np.inf:
            raise ValueError("voxel_size must be positive and finite")
        dims = tuple(int(d) for d in self.dims)
        if len(dims) != 3 or any(d <= 0 for d in dims):
            raise ValueError("dims must be three positive counts")
        if self.num_classes <= 0:
            raise ValueError("num_classes must be positive")
        object.__setattr__(self, "origin", o)
        object.__setattr__(self, "voxel_size", float(self.voxel_size))
        object.__setattr__(self, "dims", dims)

    @property
    def num_voxels(self) -> int:
        x, y, z = self.dims
        return x * y * z

    def voxel_centers(self) -> np.ndarray:
        """Centers of every voxel, shape (X, Y, Z, 3)."""
        x, y, z = self.dims
        h = self.voxel_size
        ax = self.origin[0] + (np.arange(x) + 0.5) * h
        ay = self.origin[1] + (np.arange(y) + 0.5) * h
        az = self.origin[2] + (np.arange(z) + 0.5) * h
        gx, gy, gz = np.meshgrid(ax, ay, az, indexing="ij")
        return np.stack([gx, gy, gz], axis=-1)

    def point_to_index(self, points: np.ndarray) -> np.ndarray:
        """Integer voxel index of each point (may fall outside the grid)."""
        pts = np.asarray(points, dtype=np.float64)
        return np.floor((pts - self.origin) / self.voxel_size).astype(np.int64)

    def index_inside(self, idx: np.ndarray) -> np.ndarray:
        idx = np.asarray(idx)
        return np.all((idx >= 0) & (idx < np.array(self.dims)), axis=-1)


@dataclass
class VoxelGrid:
    """Dense grid holding either per-class channels or hard labels.

    channels: (X, Y, Z, C) non-negative aggregated evidence, or None.
    labels:   (X, Y, Z) integer class ids in [0, C-1], or None; stored as
              uint8, so a class id past 255 is out of range too.
    """

    geometry: GridGeometry
    channels: np.ndarray | None = None
    labels: np.ndarray | None = None

    def __post_init__(self):
        x, y, z = self.geometry.dims
        c = self.geometry.num_classes
        if self.channels is not None:
            self.channels = np.asarray(self.channels, dtype=np.float64)
            if self.channels.shape != (x, y, z, c):
                raise ValueError("channel buffer does not match geometry")
        if self.labels is not None:
            self.labels = np.asarray(self.labels)
            if self.labels.shape != (x, y, z):
                raise ValueError("label buffer does not match geometry")
            if not np.issubdtype(self.labels.dtype, np.integer):
                raise ValueError(f"labels must be integers, not {self.labels.dtype}")
            if np.any((self.labels < 0) | (self.labels >= min(c, 256))):
                raise ValueError("label out of range")
            self.labels = self.labels.astype(np.uint8)


# ---------------------------------------------------------------------------
# Gaussian evaluation
# ---------------------------------------------------------------------------

def covariance(g: SemanticGaussian) -> np.ndarray:
    """3x3 covariance R diag(scale)^2 R^T; eigenvalues are scale**2."""
    r = quat_to_rotmat(g.rotation)
    return (r * g.scale**2) @ r.T


def _ill_conditioned(scales: np.ndarray) -> np.ndarray:
    """Which rows of the (N, 3) `scales` have a non-positive axis or a
    covariance condition number (smax / smin)**2 above 1e12: the splat's
    rule, which the encoder also applies to the scales it rounds."""
    smax = np.max(scales, axis=1)
    smin = np.min(scales, axis=1)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        return (smin <= 0.0) | ((smax / smin) ** 2 > _DEGENERATE_CONDITION)


def _check_conditioning(scales: np.ndarray) -> None:
    """Reject the first of the (..., 3) `scales` that `_ill_conditioned`
    flags."""
    scales = np.reshape(scales, (-1, 3))
    bad = _ill_conditioned(scales)
    if np.any(bad):
        first = scales[np.argmax(bad)]
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            shown = (first.max() / max(first.min(), 1e-300)) ** 2
        raise DegenerateGaussianError(
            f"covariance condition number {shown:.3e} exceeds 1e12"
        )


def density(g: SemanticGaussian, x: np.ndarray) -> np.ndarray:
    """Semantic contribution of one Gaussian at a point.

    Returns opacity * exp(-0.5 * q) * semantics as a C-vector, q being the
    squared Mahalanobis distance of x from the mean: with d = x - mean,
    local_j = (P_x + P_y) + P_z for the products P_a = d_a * R[a, j] + 0.0,
    and q = sum_j (local_j / s_j)**2, left to right. That is the splat's
    own arithmetic for a candidate, from its per-axis tables, and the
    tests' brute-force pair oracle spells it out too, so at a voxel center
    this is the splat's value of the Gaussian there, bit for bit.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (3,):
        raise ValueError("x must be a 3-vector")
    prod = (x - g.mean)[:, None] * _quat_to_rotmat_unchecked(g.rotation) + 0.0
    u = ((prod[0] + prod[1]) + prod[2]) / g.scale
    u *= u
    q = (u[0] + u[1]) + u[2]
    return g.opacity * np.exp(-0.5 * q) * g.semantics


def _whole_runs(sizes: np.ndarray, bound: int, even: bool = False) -> list:
    """(first item, end item, first unit, end unit) of each of k near-equal
    runs of whole items, item i holding `sizes[i]` units. Fusion runs its
    blocks over segments of pairs, the splat over Gaussians' candidate
    cells.

    The j-th cut is the item edge nearest j * total / k (the lower one on a
    tie), and an item of more than `bound` units is cut out as a run of its
    own. k is the least count from ceil(total / bound) up for which no run
    of two or more items holds more than `bound`, so a run holds about
    total / k units, within one item of it. With `even`, k is even when
    above one and is raised by two, so two threads claiming runs in turn
    (`_each`) both have work to the last pair. Two cuts merge only where
    an item holds total / k units or more, which can leave fewer than k
    runs. The runs depend on `sizes` alone.

    Items near half the bound can need k far above its start, so the
    counts are tried in batches that double, each count first on its runs
    before its 64th cut, where most counts that fail do so, then the rest
    whole, in chunks that double (`_counts_fit`). A pass holds at most
    about 2^16 cuts."""
    edges = np.concatenate([[0], np.cumsum(sizes, dtype=np.int64)])
    n, total = sizes.size, int(edges[-1])
    if total <= bound:              # one run; a tiny scene pays for every numpy call
        return [(0, n, 0, total)] if n else []
    big = np.flatnonzero(sizes > bound)
    fixed = np.unique(np.concatenate([[0, n], big, big + 1]))
    step = 2 if even else 1
    k = -(-total // bound)          # 2 or more here
    k += -k % step
    tries = 1
    while True:
        ks = k + step * np.arange(tries)
        k = int(ks[-1]) + step
        fits, cuts = _counts_fit(edges, fixed, bound, ks, np.minimum(ks, 64))
        found = fits[0] and ks[0] <= 64     # the least count fits, checked whole
        ks, chunk = ks[fits], 1
        while not found and ks.size:
            head, ks = ks[:chunk], ks[chunk:]
            fits, cuts = _counts_fit(edges, fixed, bound, head, head)
            found = fits.any()
            chunk = min(2 * chunk, max(1, (1 << 16) // int(head[-1])))
        if found:
            return [(int(a), int(b), int(edges[a]), int(edges[b]))
                    for a, b in zip(cuts[:-1], cuts[1:])]
        tries = min(2 * tries, 1 << 10)


def _counts_fit(edges: np.ndarray, fixed: np.ndarray, bound: int, ks: np.ndarray,
                ms: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Whether each count ks[i] of `_whole_runs` has no run of two or more
    items over `bound` before its ms[i]-th cut (cut k is the item count),
    and the ascending cuts, up to that one, of the first count that has
    none. `fixed` holds 0, the item count and the edges of the items past
    the bound.

    The cuts rise with j, so the cuts up to the m-th, with the fixed ones
    up to it, hold only runs of the whole cut set."""
    n, total = edges.size - 1, int(edges[-1])
    which = np.repeat(np.arange(ks.size), ms)
    j = np.arange(which.size) - np.repeat(np.cumsum(ms) - ms - 1, ms)
    kj = ks.take(which)
    aim = j * total                                             # k times j * total / k
    right = np.searchsorted(edges, -(-aim // kj))               # first edge at or past it
    lower = aim - kj * edges.take(right - 1) <= kj * edges.take(right) - aim
    cut = np.where(j == kj, n, right - lower)
    held = fixed[None, :] <= cut.take(np.cumsum(ms) - 1)[:, None]
    keys = np.sort(np.concatenate([which * (n + 1) + cut,
                                   (np.arange(ks.size)[:, None] * (n + 1) + fixed)[held]]))
    which, cuts = np.divmod(keys, n + 1)
    over = ((which[1:] == which[:-1]) & (cuts[1:] - cuts[:-1] > 1)
            & (edges.take(cuts[1:]) - edges.take(cuts[:-1]) > bound))
    fits = np.bincount(which[1:][over], minlength=ks.size) == 0
    return fits, np.unique(cuts[which == np.argmax(fits)])


# ---------------------------------------------------------------------------
# whole-number settings and index sets
# ---------------------------------------------------------------------------

def whole_number(name: str, value) -> int:
    """`value` as an int if it is a whole number >= 0 (every int setting is
    a count or a seed): an integer, or a float without a fractional part.
    A bool, a fraction, a negative value or anything else is a ValueError
    that names the setting `name`."""
    number = int(value) if isinstance(value, float) and value.is_integer() else value
    if isinstance(number, numbers.Integral) and not isinstance(number, bool) and number >= 0:
        return int(number)
    raise ValueError(f"{name} must be an integer >= 0, not {value!r}")


def index_set(name: str, values, n: int) -> np.ndarray:
    """`values` as an ascending set of indices into n rows: a 1-D integer
    array, strictly increasing, each in range(n). Anything else is a
    ValueError that names `name`."""
    index = np.asarray(values)
    if index.ndim != 1 or not np.issubdtype(index.dtype, np.integer):
        raise ValueError(f"{name} must be a 1-D integer array, not {index.dtype} "
                         f"of shape {index.shape}")
    if np.any(index[1:] <= index[:-1]):
        raise ValueError(f"{name} must be strictly increasing")
    if index.size and (index[0] < 0 or index[-1] >= n):
        raise ValueError(f"{name} must lie in range({n})")
    return index


def check_int_fields(config) -> None:
    """Apply `whole_number` to every field of the dataclass `config` whose
    default is an int, storing the int; called by `__post_init__`, so it
    also holds for frozen dataclasses."""
    for f in dataclasses.fields(config):
        if type(f.default) is int:
            object.__setattr__(config, f.name, whole_number(f.name, getattr(config, f.name)))


# ---------------------------------------------------------------------------
# two threads (see the module docstring)
# ---------------------------------------------------------------------------

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

# `_team.team` of a thread: the `_Team` it serves, absent without one
_team = threading.local()


class _Job:
    """The items of one `_each` call, handed out one at a time in index
    order; none is handed out once one has raised."""

    def __init__(self, fn, n: int):
        self.fn, self.n = fn, n
        self.claimed = 0                # items 0 .. claimed - 1 are handed out
        self.running = 0                # handed out and not yet finished
        self.results = [None] * n
        self.errors = {}                # index -> what item `index` raised

    def open(self) -> bool:
        return self.claimed < self.n and not self.errors


class _Team:
    """The jobs that the calling thread and its worker share, oldest first,
    under one condition that every change to them notifies."""

    def __init__(self):
        self.cond = threading.Condition()
        self.jobs = []
        self.closed = False

    def serve(self, own: _Job | None = None) -> None:
        """Run items until `own` has finished, or, for None (the worker
        between items), until the team closes. `own`'s items come first;
        with none left to hand out, the next item of the newest open job
        opened after `own` (after nothing, for None), else wait. So a wait
        never starts an item of an older job, such as a whole ego inside
        another ego's wait."""
        with self.cond:
            while True:
                later = self.jobs if own is None else self.jobs[self.jobs.index(own) + 1:]
                job = own if own is not None and own.open() else \
                    next((j for j in reversed(later) if j.open()), None)
                if job is None:
                    if (self.closed if own is None else own.running == 0):
                        return
                    self.cond.wait()
                    continue
                i = job.claimed
                job.claimed += 1
                job.running += 1
                self.cond.release()
                try:
                    result, error = job.fn(i), None
                except BaseException as exc:    # re-raised on the job's owner
                    result, error = None, exc
                finally:
                    self.cond.acquire()
                job.results[i] = result
                if error is not None:
                    job.errors[i] = error
                job.running -= 1
                self.cond.notify()              # the other thread may wait on `job`

    def work(self) -> None:
        _team.team = self
        _set_blas_threads(1)
        self.serve()


@contextmanager
def _two_threads():
    """Give the calling thread a team for `_each`: one worker thread, with
    BLAS held to one thread on both, restored when the team ends; the
    worker is joined before it ends. Does nothing without the per-thread
    BLAS setter or on a thread that already serves a team."""
    if _set_blas_threads is None or hasattr(_team, "team"):
        yield
        return
    previous = _set_blas_threads(1)
    try:
        team = _Team()
        worker = threading.Thread(target=team.work, name="gsfusion-worker")
        worker.start()
        _team.team = team
        try:
            yield
        finally:
            del _team.team
            with team.cond:
                team.closed = True
                team.cond.notify()
            worker.join()
    finally:
        _set_blas_threads(previous)


def _each(fn, n: int) -> list:
    """`[fn(0), ..., fn(n - 1)]`. On a team, the items are published as a
    job that this thread and the other claim one at a time in index order
    (`_Team.serve`); it returns once every item handed out has finished,
    raising the lowest-index exception if any item raised."""
    team = getattr(_team, "team", None)
    if team is None or n < 2:
        return [fn(i) for i in range(n)]
    job = _Job(fn, n)
    with team.cond:
        team.jobs.append(job)
        team.cond.notify()
    try:
        team.serve(job)
    finally:
        with team.cond:
            team.jobs.remove(job)
    if job.errors:
        raise job.errors[min(job.errors)]
    return job.results


def _halves(n: int) -> list[slice]:
    """Rows 0..n as the parts of a row-wise `_each`: two halves (one empty
    for n = 1) when the calling thread serves a team, else one."""
    if not hasattr(_team, "team"):
        return [slice(0, n)]
    return [slice(0, n // 2), slice(n // 2, n)]


def _each_folded(fn, n: int, fold) -> None:
    """`fold(fn(i))` for i in index order on the calling thread, the
    `fn(i)` running in pairs through `_each`: each pair is folded before
    the next pair starts, so at most two results are alive."""
    for first in range(0, n, 2):
        pair = _each(lambda k: fn(first + k), min(2, n - first))
        while pair:
            fold(pair.pop(0))
