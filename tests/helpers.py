"""Independent oracles and fixture builders shared by the test modules.

Everything here is deliberately written from scratch against the math,
not by calling the library paths it checks. The exceptions are
references that keep an earlier composition of library kernels, which a
rewrite of that composition must reproduce bit for bit
(`concat_scene_loss_and_grads`, `per_channel_splat`, `repeat_pair_lists`,
`bincount_splat`, `stepwise_whole_runs`, `lovasz_softmax_oracle`,
`two_pass_total_loss`, `kept_state_fusion_backward`, `sequential_train`,
`sequential_episode`),
and `HashGrid`, a per-query adapter over the library's neighbour search
that tests check against `linear_scan_neighborhood`.
"""

import hashlib
import math
import os
import platform
from types import SimpleNamespace

import numpy as np

from gsfusion.comms import (
    HEADER_SIZE,
    PRECISION_FP16,
    CommStats,
    serialize_message,
    stack,
    transform_set,
)
from gsfusion.core import (
    EMPTY_CLASS,
    GaussianSet,
    GridGeometry,
    RigidTransform,
    SemanticGaussian,
    VoxelGrid,
    _check_conditioning,
    _quat_to_rotmat_unchecked,
    canonicalize_quaternion,
)
from gsfusion import fusion, learn, sim
from gsfusion.fusion import (
    SCALE_CEIL,
    SCALE_FLOOR,
    FusionConfig,
    FusionParams,
    _build_pairs,
    fuse_scene,
    fusion_backward,
)
from gsfusion.learn import Calibration, total_loss
from gsfusion.metrics import iou_3d
from gsfusion.sim import ObservationModel, generate_scene, prepare_episode, run_episode
from gsfusion.splat import Pairs, SplatConfig, labels_from_channels, splat, splat_backward


def inv3x3(m):
    """Explicit cofactor inverse of a 3x3 matrix."""
    a, b, c = m[0]
    d, e, f = m[1]
    g, h, i = m[2]
    det = a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
    adj = np.array([
        [e * i - f * h, c * h - b * i, b * f - c * e],
        [f * g - d * i, a * i - c * g, c * d - a * f],
        [d * h - e * g, b * g - a * h, a * e - b * d],
    ])
    return adj / det


def rotmat_from_quat(q):
    """Quaternion to rotation matrix, written out independently."""
    w, x, y, z = q
    return np.array([
        [w * w + x * x - y * y - z * z, 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), w * w - x * x + y * y - z * z, 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), w * w - x * x - y * y + z * z],
    ])


def density_oracle(g: SemanticGaussian, x):
    """Direct density evaluation through an explicit 3x3 inverse."""
    r = rotmat_from_quat(g.rotation)
    cov = r @ np.diag(g.scale**2) @ r.T
    delta = np.asarray(x, dtype=float) - g.mean
    q = delta @ inv3x3(cov) @ delta
    return g.opacity * np.exp(-0.5 * q) * g.semantics


def dense_splat_oracle(gaussians: GaussianSet, geometry):
    """Untruncated brute-force double loop over (voxel, gaussian) pairs."""
    x, y, z = geometry.dims
    out = np.zeros((x, y, z, gaussians.num_classes))
    centers = geometry.voxel_centers()
    singles = gaussians.to_gaussians()
    for ix in range(x):
        for iy in range(y):
            for iz in range(z):
                p = centers[ix, iy, iz]
                for g in singles:
                    out[ix, iy, iz] += density_oracle(g, p)
    return out


def splat_pairs_oracle(gaussians: GaussianSet, geometry, truncation_sigma, rots):
    """Brute force over every voxel of the grid: the (gaussian, flat voxel)
    pairs whose center has q <= truncation_sigma**2, in (gaussian, voxel)
    order, with e = exp(-q/2).

    q is spelled out element by element in the splat's own arithmetic
    (delta = center - mean, local = R^T delta, q = sum_j (local_j/s_j)**2)
    and the (N, 3, 3) rotation matrices `rots` are given, so e can be
    compared bit for bit.
    """
    idx = np.indices(geometry.dims).reshape(3, -1)     # columns in flat voxel order
    centers = [geometry.origin[a] + (idx[a] + 0.5) * geometry.voxel_size for a in range(3)]
    pg, pv, pq = [], [], []
    for i in range(len(gaussians)):
        d = [centers[a] - gaussians.means[i, a] for a in range(3)]
        r = rots[i]
        local = [d[0] * r[0, j] + d[1] * r[1, j] + d[2] * r[2, j] for j in range(3)]
        q = ((local[0] / gaussians.scales[i, 0]) ** 2 + (local[1] / gaussians.scales[i, 1]) ** 2
             + (local[2] / gaussians.scales[i, 2]) ** 2)
        vox = np.nonzero(q <= truncation_sigma**2)[0]
        pg.append(np.full(vox.size, i))
        pv.append(vox)
        pq.append(q[vox])
    return np.concatenate(pg), np.concatenate(pv), np.exp(-0.5 * np.concatenate(pq))


def channels_at_points_oracle(gaussians: GaussianSet, points):
    """Untruncated semantic field evaluated at arbitrary (M,3) points."""
    points = np.asarray(points, dtype=float)
    out = np.zeros((points.shape[0], gaussians.num_classes))
    for g in gaussians.to_gaussians():
        for m in range(points.shape[0]):
            out[m] += density_oracle(g, points[m])
    return out


def linear_scan_neighborhood(query_mean, means, rho, max_neighbors=None):
    """Brute-force radius search: indices with ||m_j - q|| <= rho.

    When max_neighbors is given, keeps the nearest ones, ties broken by
    lower index. Returned indices are sorted ascending.
    """
    d = np.linalg.norm(means - np.asarray(query_mean), axis=1)
    idx = np.nonzero(d <= rho)[0]
    if max_neighbors is not None and idx.size > max_neighbors:
        order = np.argsort(d[idx], kind="stable")
        idx = idx[order[:max_neighbors]]
    return np.sort(idx)


class HashGrid:
    """Radius queries over a fixed point set, answered by the neighbour
    search of `fusion._build_pairs`: one query is one ego, whose candidates
    are one range of the sorted cell list, the points of the 27 cells
    around its own (one cell per query radius)."""

    def __init__(self, points: np.ndarray, cell: float):
        self.points = np.asarray(points, dtype=np.float64)
        self.cell = float(cell)

    def query(self, x: np.ndarray, radius: float, cap: int | None = None) -> np.ndarray:
        """Indices with ||p - x|| <= radius, nearest first, ties by index,
        truncated to `cap` when given. radius must not exceed the cell size."""
        if radius > self.cell + 1e-12:
            raise ValueError("query radius exceeds hash cell size")
        return _build_pairs(np.reshape(np.asarray(x, dtype=np.float64), (1, 3)),
                            self.points, radius, cap)[1]


def neighbor_csr_oracle(ego_means, pool_means, rho, max_neighbors=None):
    """Per-ego linear scans assembled into the (seg_egos, pair_j, starts,
    counts) CSR of `fusion._build_pairs`: the egos with any neighbour, and
    each one's neighbours nearest first, ties broken by lower index."""
    seg, rows = [], []
    for k, q in enumerate(np.asarray(ego_means)):
        idx = linear_scan_neighborhood(q, pool_means, rho, max_neighbors)
        if idx.size:
            d = np.linalg.norm(pool_means[idx] - q, axis=1)
            seg.append(k)
            rows.append(idx[np.lexsort((idx, d))])
    counts = np.array([r.size for r in rows], dtype=np.int64)
    pair_j = np.concatenate(rows) if rows else np.empty(0, dtype=np.int64)
    return (np.array(seg, dtype=np.int64), pair_j.astype(np.int64),
            np.cumsum(counts) - counts, counts)


def lockstep_raycast_oracle(occ: np.ndarray, geom: GridGeometry, eye: np.ndarray,
                             targets: np.ndarray, end_points: np.ndarray | None = None) -> np.ndarray:
    """March one ray per target voxel from `eye` toward `end_points`
    (default: voxel centers) and report which targets are reached before
    any other occupied voxel.

    `occ` is the occupancy mask of the grid, `targets` an (M, 3) array of
    integer voxel indices. The eye's own voxel never blocks, and a ray
    that exhausts its segment without hitting a blocker counts as visible
    (grazing contact). All rays advance one voxel boundary per iteration
    (Amanatides-Woo stepping), vectorized across rays.
    """
    targets = np.asarray(targets, dtype=np.int64).reshape(-1, 3)
    m = targets.shape[0]
    if m == 0:
        return np.zeros(0, dtype=bool)
    h = geom.voxel_size
    eye = np.asarray(eye, dtype=np.float64)
    ends = (geom.origin + (targets + 0.5) * h if end_points is None
            else np.asarray(end_points, dtype=np.float64))
    d = ends - eye[None, :]

    cell = np.floor((eye - geom.origin) / h).astype(np.int64)
    cell = np.clip(cell, 0, np.array(geom.dims) - 1)
    cells = np.tile(cell, (m, 1))

    step = np.sign(d).astype(np.int64)
    with np.errstate(divide="ignore", invalid="ignore"):
        next_bound = geom.origin + (cells + (step > 0)) * h
        tmax = np.where(step != 0, (next_bound - eye) / d, np.inf)
        tdelta = np.where(step != 0, h / np.abs(d), np.inf)

    visible = np.zeros(m, dtype=bool)
    alive = ~np.all(cells == targets, axis=1)
    visible[~alive] = True                      # target shares the eye voxel

    dims = np.array(geom.dims)
    max_iter = int(dims.sum()) + 4
    rows = np.arange(m)
    for _ in range(max_iter):
        if not alive.any():
            break
        ax = np.argmin(tmax, axis=1)
        tcur = tmax[rows, ax]
        # segment exhausted without a blocker: grazing contact, count visible
        done = alive & (tcur > 1.0)
        visible[done] = True
        alive &= ~done
        cells[rows[alive], ax[alive]] += step[rows[alive], ax[alive]]
        tmax[rows[alive], ax[alive]] += tdelta[rows[alive], ax[alive]]
        alive &= ~np.any((cells < 0) | (cells >= dims), axis=1)
        at_target = alive & np.all(cells == targets, axis=1)
        visible[at_target] = True
        alive &= ~at_target
        blocked = alive & occ[cells[:, 0].clip(0, dims[0] - 1),
                              cells[:, 1].clip(0, dims[1] - 1),
                              cells[:, 2].clip(0, dims[2] - 1)]
        alive &= ~blocked
    return visible


def pairwise_feature_oracle(ego: SemanticGaussian, nbr: SemanticGaussian):
    """Element-by-element reassembly of the 45-dim pair feature."""
    f_ego = np.concatenate([ego.mean, ego.scale, ego.rotation,
                            [ego.opacity], ego.semantics])
    cos = abs(math.fsum(nbr.rotation * ego.rotation))
    f_rel = np.concatenate([nbr.mean - ego.mean, nbr.scale - ego.scale,
                            [cos, nbr.opacity], nbr.semantics])
    return np.concatenate([f_ego, f_rel])


def jaccard_by_counting(pred_mask, gt_mask):
    """1 - |A n B| / |A u B| via explicit set counting; None if both empty."""
    inter = int(np.sum(pred_mask & gt_mask))
    union = int(np.sum(pred_mask | gt_mask))
    if union == 0:
        return None
    return 1.0 - inter / union


def _lovasz_grad_sorted_oracle(fg_sorted):
    gts = fg_sorted.sum()
    intersection = gts - np.cumsum(fg_sorted)
    union = gts + np.cumsum(1.0 - fg_sorted)
    jaccard = 1.0 - intersection / union
    out = jaccard.copy()
    out[1:] = jaccard[1:] - jaccard[:-1]
    return out


def lovasz_softmax_oracle(probs, labels):
    """The earlier `lovasz_softmax`: a per-class loop over a voxel-major
    gradient, each class ordered by a stable argsort. The library must
    reproduce it bit for bit."""
    num_classes = probs.shape[-1]
    flat_p = probs.reshape(-1, num_classes)
    flat_l = np.asarray(labels).reshape(-1)
    if flat_l.size == 0:
        raise ValueError("lovasz_softmax needs at least one voxel")
    grad = np.zeros_like(flat_p)
    per_class = np.zeros(num_classes)
    present = np.unique(flat_l)
    for c in present:
        fg = (flat_l == c).astype(np.float64)
        err = np.abs(fg - flat_p[:, c])
        order = np.argsort(-err, kind="stable")
        g = _lovasz_grad_sorted_oracle(fg[order])
        per_class[c] = float(err[order] @ g)
        back = np.zeros_like(err)
        back[order] = g
        grad[:, c] = back * (1.0 - 2.0 * fg)
    loss = float(per_class[present].mean())
    grad /= present.size
    return loss, grad.reshape(probs.shape), per_class


def two_pass_softmax(channels):
    """The earlier `softmax_probs`: the row max by `np.max`, then exp and
    divide into fresh arrays."""
    ch = np.asarray(channels, dtype=np.float64)
    ex = np.exp(ch - np.max(ch, axis=-1, keepdims=True))
    return ex / np.sum(ex, axis=-1, keepdims=True)


def softmax_vjp(probs, grad_probs):
    """The earlier `softmax_vjp`: a gradient w.r.t. probabilities chained
    back to the channel logits, into fresh arrays."""
    inner = np.sum(probs * grad_probs, axis=-1, keepdims=True)
    return probs * (grad_probs - inner)


def class_rows_lovasz(probs, labels):
    """The earlier `lovasz_softmax`: each present class overwrites its copy
    of its probability column, in a (C, V) buffer, with its gradient, and
    the buffer is divided by the present-class count as it is transposed."""
    num_classes = probs.shape[-1]
    flat_p = probs.reshape(-1, num_classes)
    flat_l = np.asarray(labels).reshape(-1)
    rows = np.zeros((num_classes, flat_l.size))
    per_class = np.zeros(num_classes)
    present = np.flatnonzero(np.bincount(flat_l, minlength=num_classes))
    for c in present:
        row, fg = rows[c], flat_l == c
        row[:] = flat_p[:, c]
        err = np.abs(fg - row)
        order = learn._stable_descending_order(err)
        g = learn._lovasz_grad_sorted(fg[order])
        per_class[c] = float(err[order] @ g)
        row[order] = g
        np.negative(row, out=row, where=fg)
    grad = np.empty(rows.shape[::-1])
    np.divide(rows.T, present.size, out=grad)
    return float(per_class[present].mean()), grad.reshape(probs.shape), per_class


def two_pass_total_loss(channels, labels):
    """The earlier `total_loss`: `two_pass_softmax`, the library's
    cross-entropy, `class_rows_lovasz` and `softmax_vjp` added to the
    cross-entropy gradient. The library must reproduce it bit for bit."""
    probs = two_pass_softmax(channels)
    ce, grad = learn.cross_entropy(probs, labels)
    lov, grad_lov, per_class = class_rows_lovasz(probs, labels)
    grad += softmax_vjp(probs, grad_lov)
    return learn.LossReport(ce=ce, lovasz=lov, total=ce + lov, per_class_lovasz=per_class), grad


def central_difference(f, x0, eps=1e-6):
    """Dense central finite-difference gradient of a scalar function."""
    x0 = np.asarray(x0, dtype=float)
    grad = np.zeros_like(x0)
    flat = x0.ravel()
    g = grad.ravel()
    for i in range(flat.size):
        old = flat[i]
        flat[i] = old + eps
        fp = f(x0)
        flat[i] = old - eps
        fm = f(x0)
        flat[i] = old
        g[i] = (fp - fm) / (2 * eps)
    return grad


def rel_err(a, b, floor=1e-10):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    scale = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return np.max(np.abs(a - b) / scale)


def random_unit_quaternion(rng):
    v = rng.normal(size=4)
    while np.linalg.norm(v) < 1e-12:
        v = rng.normal(size=4)
    return canonicalize_quaternion(v)


def random_gaussian(rng, num_classes=13, center_span=4.0, scale_lo=0.2, scale_hi=1.5):
    return SemanticGaussian(
        mean=rng.uniform(-center_span, center_span, size=3),
        scale=rng.uniform(scale_lo, scale_hi, size=3),
        rotation=random_unit_quaternion(rng),
        opacity=float(rng.uniform(0.05, 1.0)),
        semantics=rng.uniform(0.0, 1.0, size=num_classes),
    )


def random_gaussian_set(rng, n, num_classes=13, center_span=4.0, scale_lo=0.2, scale_hi=1.5):
    rot = rng.normal(size=(n, 4))
    rot = canonicalize_quaternion(rot) if n else rot
    return GaussianSet(
        means=rng.uniform(-center_span, center_span, size=(n, 3)),
        scales=rng.uniform(scale_lo, scale_hi, size=(n, 3)),
        rotations=rot,
        opacities=rng.uniform(0.05, 1.0, size=n),
        semantics=rng.uniform(0.0, 1.0, size=(n, num_classes)),
    )


def random_rigid_transform(rng, span=5.0):
    return RigidTransform(random_unit_quaternion(rng), rng.uniform(-span, span, size=3))


def noiseless_model(**kw) -> ObservationModel:
    """An observation model with no position, scale, label or opacity noise."""
    base = dict(position_sigma=0.0, scale_jitter=0.0, label_flip_prob=0.0,
                opacity_falloff=0.0)
    base.update(kw)
    return ObservationModel(**base)


def scene_to_dict(spec) -> dict:
    """The scene dict that `sim.scene_from_dict` reads back into `spec`."""
    return {
        "seed": int(spec.seed),
        "world": {"lo": spec.world_lo.tolist(), "hi": spec.world_hi.tolist()},
        "voxel_size": spec.voxel_size,
        "grid_dims": list(spec.grid_dims),
        "objects": [
            {"kind": o.kind, "class_id": int(o.class_id),
             "center": o.center.tolist(), "size": o.size.tolist()}
            for o in spec.objects
        ],
        "agents": [
            {"rotation": p.rotation_q.tolist(), "translation": p.translation.tolist()}
            for p in spec.agents
        ],
    }


def _fsum_rows(m):
    """math.fsum of each row: the exact sum of the row's terms, rounded once,
    so the value does not depend on summation order or on BLAS."""
    return np.array([math.fsum(row) for row in m.tolist()])


def _softplus(x):
    return max(x, 0.0) + math.log1p(math.exp(-abs(x)))


def _proposal_oracle(raw, num_classes):
    """Raw MLP outputs mapped onto proposal fields: mean shift, softplus
    scale above SCALE_FLOOR and capped at SCALE_CEIL, unit quaternion with +1 on its scalar part,
    sigmoid opacity, softplus class weights."""
    q = raw[6:10].copy()
    q[0] += 1.0
    return (raw[0:3],
            np.array([min(_softplus(x) + SCALE_FLOOR, SCALE_CEIL) for x in raw[3:6]]),
            q / math.sqrt(math.fsum(q * q)),
            1.0 / (1.0 + math.exp(-raw[10])),
            np.array([_softplus(x) for x in raw[11:11 + num_classes]]))


def fusion_oracle(ego_set, received_sets, cfg, params):
    """fp64 reference for `fuse_scene`, written from the fusion docstrings.

    Each ego Gaussian takes the received Gaussians in its closed rho-ball
    (nearest `max_neighbors`, found by linear scan), runs every pair
    feature through the three-layer ReLU MLP, pools the proposals with
    uniform or softmax attention weights (quaternions sign-aligned to the
    nearest neighbor's proposal), and applies the pooled update with the
    confidence-weighted semantic blend and canonical quaternion sign.
    Every dot product and pooled sum is a math.fsum, so the result is
    independent of BLAS build, kernel and thread count.
    """
    # the fields exactly as stored: SemanticGaussian would renormalize
    # the quaternion and so perturb the inputs
    def rows(gs):
        return [SimpleNamespace(mean=gs.means[i], scale=gs.scales[i],
                                rotation=gs.rotations[i], opacity=gs.opacities[i],
                                semantics=gs.semantics[i]) for i in range(len(gs))]

    out = ego_set.copy()
    pool = [g for s in received_sets for g in rows(s)]
    if not pool:
        return out
    pool_means = np.array([g.mean for g in pool])
    num_classes = ego_set.num_classes
    e_dim = 11 + num_classes
    # bias as a trailing weight column, met by a trailing 1 in the input
    layers = [np.hstack([w, b[:, None]]) for w, b in
              ((params.w1, params.b1), (params.w2, params.b2), (params.w3, params.b3))]
    for i, ego in enumerate(rows(ego_set)):
        idx = linear_scan_neighborhood(ego.mean, pool_means, cfg.radius_rho,
                                       cfg.max_neighbors)
        if idx.size == 0:
            continue
        d = np.linalg.norm(pool_means[idx] - ego.mean, axis=1)
        idx = idx[np.argsort(d, kind="stable")]          # nearest first, ties by index
        props, rels = [], []
        for j in idx:
            z = pairwise_feature_oracle(ego, pool[j])
            h = z
            for k, wb in enumerate(layers):
                h = _fsum_rows(wb * np.append(h, 1.0))
                if k < 2:
                    h = np.maximum(h, 0.0)
            props.append(_proposal_oracle(h, num_classes))
            rels.append(z[e_dim:])
        n = len(props)
        if cfg.pooling == "mean":
            w = np.full(n, 1.0 / n)
        else:
            qe = _fsum_rows(params.q_proj * z[:e_dim])    # ego block, same in every pair
            logits = [math.fsum(qe * _fsum_rows(params.k_proj * f)) / math.sqrt(qe.size)
                      for f in rels]
            top = max(logits)
            ex = [math.exp(v - top) for v in logits]
            w = np.array(ex) / math.fsum(ex)
        dm, s, r, a, c = (np.array(field) for field in zip(*props))
        sigma = np.where(_fsum_rows(r * r[0]) >= 0.0, 1.0, -1.0)
        wsum = lambda x: _fsum_rows((w[:, None] * x.reshape(n, -1)).T)
        rbar = _fsum_rows(((w * sigma)[:, None] * r).T)
        rbar = rbar / math.sqrt(math.fsum(rbar * rbar))
        lead = rbar[np.nonzero(rbar)[0][0]]             # canonical: first nonzero positive
        pooled_c = wsum(c)
        conf_ego = max(ego.semantics) / (math.fsum(ego.semantics) + cfg.epsilon)
        conf_pool = max(pooled_c) / (math.fsum(pooled_c) + cfg.epsilon)
        alpha = conf_ego / (conf_ego + conf_pool)
        out.means[i] = ego.mean + wsum(dm)
        out.scales[i] = wsum(s)
        out.rotations[i] = rbar if lead > 0 else -rbar
        out.opacities[i] = wsum(a)[0]
        out.semantics[i] = alpha * ego.semantics + (1.0 - alpha) * pooled_c
    return out


ORACLE_TOL = 1e-12    # per-field absolute gap allowed between fuse_scene and fusion_oracle
FUSED_FIELDS = ("means", "scales", "rotations", "opacities", "semantics")


def golden_fusion_fixture():
    """The fused-output golden case: 3 agents of 200 Gaussians each, fixed
    seeds, attention pooling at rho = 1. Returns (ego, received, cfg, params)."""
    rng = np.random.default_rng(12345)
    ego = random_gaussian_set(rng, 200, center_span=3.0)
    received = [random_gaussian_set(rng, 200, center_span=3.0) for _ in range(2)]
    return ego, received, FusionConfig(radius_rho=1.0), FusionParams.init(seed=7)


def fusion_digest(fused: GaussianSet) -> str:
    """SHA-256 over the raw float64 bytes of every fused field."""
    h = hashlib.sha256()
    for name in FUSED_FIELDS:
        h.update(np.ascontiguousarray(getattr(fused, name)).tobytes())
    return h.hexdigest()


def oracle_gaps(fused: GaussianSet, oracle: GaussianSet) -> dict[str, float]:
    """Largest absolute difference per fused field."""
    return {name: float(np.max(np.abs(getattr(fused, name) - getattr(oracle, name))))
            for name in FUSED_FIELDS}


def concat_scene_loss_and_grads(example, fusion_cfg, splat_cfg, params, want_grads=True,
                                neighbors=None):
    """Reference for `scene_loss_and_grads`: splat the fused set with the
    fixed set appended, differentiate the whole concatenation, and slice
    the fixed rows' gradients off."""
    fused, tape = fuse_scene(example.fusion_input, example.received,
                             fusion_cfg, params, record=True, neighbors=neighbors)
    full = GaussianSet.concat([fused, example.fixed])
    grid, splat_tape = splat(full, example.geometry, splat_cfg, record=np.arange(len(full)))
    report, grad_ch = total_loss(grid.channels, example.gt_labels)
    if not want_grads:
        return report, None
    grad_voxels = grad_ch.reshape(-1, grad_ch.shape[-1])[splat_tape.voxels]
    field_grads = splat_backward(splat_tape, grad_voxels)
    n = len(fused)
    return report, fusion_backward(tape, {k: v[:n] for k, v in field_grads.items()})


def fuse_scene_kept_state(ego_set, received_sets, cfg, params, neighbors=None):
    """`fuse_scene(record=True)` with what each block's forward computed and
    the tape does not keep: (fused, tape, [(h1, h2, state)] one a block),
    the hidden layers of `fusion._mlp_forward` and the `fusion._block_state`
    the forward wrote its fused rows from."""
    hidden, states = [], []
    real_mlp, real_state = fusion._mlp_forward, fusion._block_state

    def keep_hidden(*args):
        h1, h2, raw = real_mlp(*args)
        hidden.append((h1, h2))
        return h1, h2, raw

    def keep_state(*args):
        states.append(real_state(*args))
        return states[-1]

    fusion._mlp_forward, fusion._block_state = keep_hidden, keep_state
    try:
        fused, tape = fuse_scene(ego_set, received_sets, cfg, params, record=True,
                                 neighbors=neighbors)
    finally:
        fusion._mlp_forward, fusion._block_state = real_mlp, real_state
    assert len(hidden) == len(states) == len(tape.blocks)
    return fused, tape, [(*h, st) for h, st in zip(hidden, states)]


def kept_state_fusion_backward(ego_set, received_sets, cfg, params, grad_fused):
    """(fused, tape, gradients) of `fuse_scene(record=True)` and a backward
    over the state each block's forward computed and kept (its hidden
    layers and its `fusion._block_state`), the earlier tape, where
    `fusion_backward` recomputes that state from the pair features."""
    fused, tape, kept = fuse_scene_kept_state(ego_set, received_sets, cfg, params)
    p = tape.params
    grads = {k: np.zeros_like(v) for k, v in p.as_dict().items()}
    for block, (h1, h2, state) in zip(tape.blocks, kept):
        attention = {}
        d_raw = fusion._raw_output_grads(tape, block, state, grad_fused, attention)
        for k, g in attention.items():
            grads[k] += g
        n = d_raw.shape[0]
        h1, h2 = h1[:n], h2[:n]
        grads["w3"] += d_raw.T @ h2
        grads["b3"] += d_raw.sum(axis=0)
        d_h2 = (d_raw @ p.w3) * (h2 > 0.0)
        grads["w2"] += d_h2.T @ h1
        grads["b2"] += d_h2.sum(axis=0)
        d_h1 = (d_h2 @ p.w2) * (h1 > 0.0)
        grads["w1"] += d_h1.T @ block.z_tiles[:n]
        grads["b1"] += d_h1.sum(axis=0)
    return fused, tape, grads


def sequential_train(params0, dataset, cfg, fusion_cfg=None, splat_cfg=None):
    """`learn.train` as one loop on the calling thread: every example of a
    step in batch order, each summed into the batch mean as it comes."""
    fusion_cfg = fusion_cfg or FusionConfig()
    splat_cfg = splat_cfg or SplatConfig()
    params = params0.copy()
    opt = learn.AdamW(params.as_dict(), weight_decay=cfg.weight_decay)
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 0x7E41]))
    take = min(cfg.batch, len(dataset))
    curve = []
    for step in range(cfg.steps):
        mean = {k: np.zeros_like(v) for k, v in opt.params.items()}
        ce = lov = tot = 0.0
        for i in rng.choice(len(dataset), size=take, replace=False):
            report, grads = learn.scene_loss_and_grads(dataset[i], fusion_cfg, splat_cfg,
                                                       params)
            ce += report.ce / take
            lov += report.lovasz / take
            tot += report.total / take
            for k in mean:
                mean[k] += grads[k] / take
        opt.step(mean, learn.lr_at(step, cfg))
        curve.append((step, ce, lov, tot))
    return params, curve


def sequential_episode(spec, model, mode, params=None, episode=None, splat_cfg=None,
                       fusion_cfg=None, precision=PRECISION_FP16, budget_bytes=None,
                       message_sink=None):
    """`sim.run_episode` as one loop on the calling thread: each ego in turn
    receives its messages and renders, with the prior rendered afresh."""
    episode = episode or prepare_episode(spec, model)
    splat_cfg = splat_cfg or SplatConfig()
    fusion_cfg = fusion_cfg or FusionConfig()
    geometry = spec.agent_geometry()
    prior = sim.splat_sparse(sim.empty_space_gaussian(model), geometry, splat_cfg)
    stats = CommStats()
    labels_out, channels_out = [], []
    for ego in range(spec.num_agents):
        own = episode.observations[ego]
        if mode == "single" or spec.num_agents == 1:
            final = own
        else:
            received = sim._receive_all(episode, ego, precision, budget_bytes, stats,
                                        message_sink)
            final = stack(own, received)
            if mode == "learned":
                final = fuse_scene(final, received, fusion_cfg, params)
        grid = splat(final, geometry, splat_cfg)
        prior.add_to(grid.channels)
        if mode == "naive" and spec.num_agents > 1 and isinstance(params, Calibration):
            grid = VoxelGrid(geometry, channels=params.apply(grid.channels))
        channels_out.append(grid)
        labels_out.append(labels_from_channels(grid, splat_cfg.min_contribution))
    return sim.EpisodeResult(mode, labels_out, channels_out, stats)


def pair_geometry_oracle(gaussians: GaussianSet, geometry, pair_gauss, pair_voxel, rots):
    """(delta, local) of each pair recomputed from its flat voxel index:
    voxel center minus mean, then R^T delta with the given (N, 3, 3)
    rotation matrices `rots`, in the splat's arithmetic."""
    _, ny, nz = geometry.dims
    ijk = np.stack([pair_voxel // (ny * nz), (pair_voxel // nz) % ny, pair_voxel % nz], axis=1)
    delta = geometry.origin + (ijk + 0.5) * geometry.voxel_size - gaussians.means[pair_gauss]
    return delta, np.einsum("pk,pkj->pj", delta, rots[pair_gauss])


def per_channel_splat(gaussians: GaussianSet, geometry, cfg, pairs):
    """Splat channels accumulated one class channel at a time from `pairs`."""
    out = np.zeros((geometry.num_voxels, geometry.num_classes))
    w = gaussians.opacities[pairs.gauss] * pairs.e
    for ch in range(geometry.num_classes):
        weights = w * gaussians.semantics[pairs.gauss, ch]
        if cfg.min_contribution > 0.0:
            weights = np.where(weights >= cfg.min_contribution, weights, 0.0)
        out[:, ch] = np.bincount(pairs.voxel, weights=weights, minlength=geometry.num_voxels)
    return out.reshape(geometry.dims + (geometry.num_classes,))


def repeat_pair_lists(gaussians: GaussianSet, geometry, cfg) -> Pairs:
    """Reference for the splat's pair tape: every candidate cell of the
    whole set expanded at once with `np.repeat`, in (gaussian, flat voxel)
    order."""
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

    g = per_candidate(np.arange(len(gaussians)))
    k = np.arange(g.size) - per_candidate(np.cumsum(vol) - vol)
    kxy, iz = np.divmod(k, per_candidate(ext[:, 2]))
    ix, iy = np.divmod(kxy, per_candidate(ext[:, 1]))
    vox = [i + per_candidate(lo[:, a]) for a, i in enumerate((ix, iy, iz))]
    delta = np.empty((g.size, 3))
    for a in range(3):
        delta[:, a] = (geometry.origin[a] + (vox[a] + 0.5) * h
                       - per_candidate(gaussians.means[:, a]))
    local = np.einsum("pk,pkj->pj", delta, per_candidate(rots))
    q = sum((local[:, j] / per_candidate(gaussians.scales[:, j])) ** 2 for j in range(3))
    kept = np.flatnonzero(q <= t**2)
    _, ny, nz = geometry.dims
    flat = (vox[0].take(kept) * ny + vox[1].take(kept)) * nz + vox[2].take(kept)
    return Pairs(g.take(kept), flat, np.exp(-0.5 * q.take(kept)),
                 delta.take(kept, axis=0), local.take(kept, axis=0))


def stepwise_whole_runs(sizes: np.ndarray, bound: int, even: bool = False) -> list:
    """Reference for `core._whole_runs`: the same cuts, with the run count
    k raised one step at a time from ceil(total / bound) until no run of
    two or more items holds more than `bound`."""
    edges = np.concatenate([[0], np.cumsum(sizes, dtype=np.int64)])
    n, total = sizes.size, int(edges[-1])
    if total <= bound:
        return [(0, n, 0, total)] if n else []
    big = np.flatnonzero(sizes > bound)
    step = 2 if even else 1
    k = -(-total // bound)
    k += -k % step
    while True:
        aim = np.arange(1, k, dtype=np.int64) * total         # k times j * total / k
        right = np.searchsorted(edges * k, aim)                 # first edge at or past it
        lower = aim - k * edges[right - 1] <= k * edges[right] - aim
        cuts = np.unique(np.concatenate([[0, n], right - lower, big, big + 1]))
        units = np.diff(edges[cuts])
        if np.all((units <= bound) | (np.diff(cuts) == 1)):
            return [(int(a), int(b), int(edges[a]), int(edges[b]))
                    for a, b in zip(cuts[:-1], cuts[1:])]
        k += step


def bincount_splat(gaussians: GaussianSet, geometry, cfg) -> VoxelGrid:
    """Reference for `splat`: the (P, C) weights of every pair, floored,
    summed by one `np.bincount` over the flat index voxel * C + c."""
    num_classes = geometry.num_classes
    _check_conditioning(gaussians.scales)
    pairs = repeat_pair_lists(gaussians, geometry, cfg)
    weights = (gaussians.opacities[pairs.gauss] * pairs.e)[:, None] \
        * gaussians.semantics[pairs.gauss]
    if cfg.min_contribution > 0.0:
        weights = np.where(weights >= cfg.min_contribution, weights, 0.0)
    flat = (pairs.voxel[:, None] * num_classes + np.arange(num_classes)).reshape(-1)
    out = np.bincount(flat, weights=weights.reshape(-1),
                      minlength=geometry.num_voxels * num_classes)
    return VoxelGrid(geometry, channels=out.reshape(geometry.dims + (num_classes,)))


def two_pass_labels(channels: np.ndarray, floor: float) -> np.ndarray:
    """`labels_from_channels` as defined: the argmax label, replaced by the
    empty class wherever every channel is below `floor`."""
    labels = np.argmax(channels, axis=-1).astype(np.uint8)
    labels[np.all(channels < floor, axis=-1)] = channels.shape[-1] - 1
    return labels


def resample_agent_grid_oracle(spec, world, mask, pose):
    """The world labels under `mask` (empty elsewhere) at the voxel centers
    of the agent grid placed by `pose`, one mask per call."""
    geom = spec.agent_geometry()
    centers = geom.voxel_centers().reshape(-1, 3)
    idx = world.geometry.point_to_index(pose.apply(centers))
    labels = np.full(centers.shape[0], EMPTY_CLASS, dtype=np.uint8)
    for v, (i, j, k) in enumerate(idx):
        if all(0 <= a < n for a, n in zip((i, j, k), world.geometry.dims)) and mask[i, j, k]:
            labels[v] = world.labels[i, j, k]
    return labels.reshape(geom.dims)


def episode42_metrics() -> dict:
    """The `episode42_*` goldens of tests/goldens/manifest.json: for the
    single and zero_shot episodes of the seed-42 scene (3 agents, 50x50x8,
    1 000 Gaussians/agent), the agent-mean mIoU and IoU against the
    collaborative ground truth, and the zero_shot bytes sent."""
    spec = generate_scene(seed=42, num_agents=3, world_half_xy=10.0, grid_dims=(50, 50, 8))
    model = ObservationModel(gaussians_per_agent=1000)
    episode = prepare_episode(spec, model)
    out = {}
    for mode in ("single", "zero_shot"):
        res = run_episode(spec, model, mode, episode=episode)
        scores = [iou_3d(res.labels[a], episode.gt.collaborative[a])
                  for a in range(spec.num_agents)]
        out[f"episode42_{mode}_miou"] = float(np.mean([s.miou for s in scores]))
        out[f"episode42_{mode}_iou"] = float(np.mean([s.iou for s in scores]))
    out["episode42_bytes_sent"] = res.comm.bytes_sent          # of the zero_shot run
    return out


def prepare_with_scales(spec, model, scales):
    """`prepare_episode`, then give agent 1 a Gaussian inside agent 0's ROI
    with the given `scales`, valid as they are. (3.01e-7, 0.3, 0.3) has
    condition number 0.99e12, and 1.01e12 once fp16 has rounded the
    scales; a scale of 1e-8 underflows to 0 in fp16. Either way the fp16
    encoder refuses agent 1's message to agent 0, so it is not sent."""
    episode = prepare_episode(spec, model)
    obs = episode.observations[1].copy()
    moved = transform_set(obs, spec.agents[0].inverse().compose(spec.agents[1]))
    obs.scales[int(np.argmax(spec.agent_roi().contains(moved.means)))] = scales
    obs.validate()
    episode.observations[1] = obs
    return episode


def undecodable_from(sender, receiver):
    """A `serialize_message` whose messages from `sender` to `receiver`
    carry a NaN over their first mean coordinate, as if corrupted on the
    way: they are sent, and their receiver fails to decode them."""
    def serialize(msg):
        data = serialize_message(msg)
        if (msg.sender_id, msg.receiver_id) != (sender, receiver) or msg.count == 0:
            return data
        nan = np.array([np.nan], dtype="<f2" if msg.precision == PRECISION_FP16 else "<f4")
        return data[:HEADER_SIZE] + nan.tobytes() + data[HEADER_SIZE + nan.itemsize:]
    return serialize


def platform_description() -> dict[str, str]:
    """What fixes the bits of a BLAS-backed float64 result: interpreter,
    numpy, BLAS build, machine, and the environment overrides that pick
    the BLAS kernel and thread count."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except TypeError:                   # numpy < 1.26 has no dict form
        blas = {}
    desc = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'not recorded')} {blas.get('version', '')}".strip(),
        "blas_config": blas.get("openblas configuration", "not recorded"),
        "machine": platform.machine(),
        "cpus": str(os.cpu_count()),
    }
    for var in ("OPENBLAS_CORETYPE", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        if var in os.environ:
            desc[var] = os.environ[var]
    return desc
