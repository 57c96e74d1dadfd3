"""Synthetic multi-agent scenes standing in for a camera-based encoder.

A scene is a list of axis-aligned boxes with semantic classes plus agent
poses. The world is rasterized into a voxel grid; per-agent visibility is
resolved by integer DDA raycasting over that grid; observations sample
visible surface voxels and instantiate noisy semantic Gaussians there.
All randomness is drawn from streams derived from the scene seed, in the
world frame, so observations are consistent across agent frames.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from gsfusion.core import (  # the class ids, which sim.CLASS_* also names
    CLASS_BRIDGE, CLASS_BUILDING, CLASS_FENCE, CLASS_GUARD_RAIL, CLASS_POLE, CLASS_ROAD,
    CLASS_SIDEWALK, CLASS_TERRAIN, CLASS_TRAFFIC_SIGN, CLASS_VEGETATION, CLASS_VEHICLE,
    CLASS_WALL,
    EMPTY_CLASS,
    NUM_CLASSES,
    GaussianSet,
    GridGeometry,
    RigidTransform,
    Roi,
    VoxelGrid,
    _each,
    _two_threads,
    check_int_fields,
)
from gsfusion.comms import (
    GaussianMessage,
    PRECISION_FP16,
    DecodeError,
    CommStats,
    EncodeRangeError,
    cull_to_roi,
    deserialize_message,
    enforce_budget,
    serialize_message,
    stack,
    transform_set,
)
from gsfusion.fusion import FusionConfig, FusionParams, fuse_scene
from gsfusion.learn import Calibration, TrainExample
from gsfusion.splat import (
    SparseChannels,
    SplatConfig,
    labels_from_channels,
    splat,
    splat_sparse,
)

# per-class Gaussian extents used by the observation model, meters
CLASS_SCALES = {
    CLASS_BUILDING: (0.35, 0.35, 0.35),
    CLASS_FENCE: (0.25, 0.10, 0.20),
    CLASS_TERRAIN: (0.35, 0.35, 0.12),
    CLASS_POLE: (0.08, 0.08, 0.35),
    CLASS_ROAD: (0.35, 0.35, 0.10),
    CLASS_SIDEWALK: (0.30, 0.30, 0.10),
    CLASS_VEGETATION: (0.30, 0.30, 0.30),
    CLASS_VEHICLE: (0.25, 0.25, 0.18),
    CLASS_WALL: (0.30, 0.12, 0.30),
    CLASS_GUARD_RAIL: (0.25, 0.08, 0.10),
    CLASS_TRAFFIC_SIGN: (0.15, 0.06, 0.15),
    CLASS_BRIDGE: (0.35, 0.35, 0.15),
}
_SCALE_TABLE = np.array([CLASS_SCALES[c] for c in range(len(CLASS_SCALES))])

MODES = ("single", "zero_shot", "naive", "learned")

_OBSERVE_STREAM = 777
_LAYOUT_STREAM = 101


class SceneSpecError(ValueError):
    pass


@dataclass
class SceneObject:
    kind: str
    class_id: int
    center: np.ndarray
    size: np.ndarray

    def __post_init__(self):
        self.center = np.asarray(self.center, dtype=np.float64).reshape(3)
        self.size = np.asarray(self.size, dtype=np.float64).reshape(3)
        if not np.all(self.size > 0):
            raise SceneSpecError(f"object {self.kind} has non-positive size")
        if not (0 <= self.class_id <= NUM_CLASSES - 2):
            raise SceneSpecError(f"object class {self.class_id} out of semantic range")


@dataclass
class SceneSpec:
    """World extents, semantic boxes, agent poses and the per-agent grid."""

    seed: int
    world_lo: np.ndarray
    world_hi: np.ndarray
    objects: list[SceneObject]
    agents: list[RigidTransform]
    voxel_size: float = 0.4
    grid_dims: tuple[int, int, int] = (100, 100, 8)

    def __post_init__(self):
        self.world_lo = np.asarray(self.world_lo, dtype=np.float64).reshape(3)
        self.world_hi = np.asarray(self.world_hi, dtype=np.float64).reshape(3)
        if not np.all(self.world_hi > self.world_lo):
            raise SceneSpecError("world_hi must exceed world_lo")
        for obj in self.objects:
            lo = obj.center - obj.size / 2
            hi = obj.center + obj.size / 2
            if np.any(lo < self.world_lo - 1e-9) or np.any(hi > self.world_hi + 1e-9):
                raise SceneSpecError(f"object {obj.kind} extends outside world extents")
        for pose in self.agents:
            p = pose.translation
            if np.any(p < self.world_lo) or np.any(p > self.world_hi):
                raise SceneSpecError("agent pose outside world extents")

    @property
    def num_agents(self) -> int:
        return len(self.agents)

    def world_geometry(self) -> GridGeometry:
        dims = np.round((self.world_hi - self.world_lo) / self.voxel_size).astype(int)
        return GridGeometry(self.world_lo, self.voxel_size, tuple(int(d) for d in dims))

    def agent_geometry(self) -> GridGeometry:
        """Ego grid in the agent frame, centered on the agent."""
        half = np.array(self.grid_dims) * self.voxel_size / 2.0
        return GridGeometry(-half, self.voxel_size, self.grid_dims)

    def agent_roi(self) -> Roi:
        half = np.array(self.grid_dims) * self.voxel_size / 2.0
        return Roi(np.zeros(3), half)


@dataclass
class ObservationModel:
    """Noise and sampling knobs for the synthetic Gaussian front end.

    semantic_weight sets the one-hot class evidence carried by each
    Gaussian (and by the empty-space prior); with unit weights the
    splatted channels stay order one and the softmax losses reward
    inflating evidence magnitude instead of fixing labels.
    """

    gaussians_per_agent: int = 25600
    position_sigma: float = 0.08
    scale_jitter: float = 0.15
    label_flip_prob: float = 0.15
    opacity_falloff: float = 30.0
    min_opacity: float = 0.02
    semantic_weight: float = 4.0
    occlusion: str = "raycast"           # "raycast" | "none"
    empty_gaussian_scale: float = 20.0

    def __post_init__(self):
        check_int_fields(self)
        if self.gaussians_per_agent <= 0:
            raise ValueError("gaussians_per_agent must be positive")
        if self.semantic_weight <= 0:
            raise ValueError("semantic_weight must be positive")
        for name in ("position_sigma", "scale_jitter", "label_flip_prob",
                     "opacity_falloff"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")
        if self.occlusion not in ("raycast", "none"):
            raise ValueError("occlusion must be 'raycast' or 'none'")


# ---------------------------------------------------------------------------
# rasterization
# ---------------------------------------------------------------------------

def _axis_range(lo: float, hi: float, origin: float, h: float, count: int):
    """Indices of voxels whose centers fall in [lo, hi); the 1e-9 slack
    absorbs float wobble for boundary-aligned boxes without changing the
    half-open convention."""
    v0 = int(np.ceil((lo - origin) / h - 0.5 - 1e-9))
    v1 = int(np.floor((hi - origin) / h - 0.5 - 1e-9))
    return max(v0, 0), min(v1, count - 1)


def rasterize_world(spec: SceneSpec) -> VoxelGrid:
    """Paint the object boxes into the world grid; later objects overwrite
    earlier ones on overlap. Voxel membership is by center containment."""
    geom = spec.world_geometry()
    labels = np.full(geom.dims, EMPTY_CLASS, dtype=np.uint8)
    h = geom.voxel_size
    for obj in spec.objects:
        lo = obj.center - obj.size / 2
        hi = obj.center + obj.size / 2
        r = [_axis_range(lo[i], hi[i], geom.origin[i], h, geom.dims[i]) for i in range(3)]
        if any(a > b for a, b in r):
            continue
        labels[r[0][0]:r[0][1] + 1, r[1][0]:r[1][1] + 1, r[2][0]:r[2][1] + 1] = obj.class_id
    return VoxelGrid(geom, labels=labels)


def surface_mask(labels: np.ndarray) -> np.ndarray:
    """Occupied voxels with at least one empty (or out-of-grid) 6-neighbor."""
    occ = labels != EMPTY_CLASS
    padded = np.pad(occ, 1, constant_values=False)
    interior = np.ones_like(occ)
    for axis in range(3):
        lo = [slice(1, -1)] * 3
        hi = [slice(1, -1)] * 3
        lo[axis] = slice(0, -2)
        hi[axis] = slice(2, None)
        interior = interior & padded[tuple(lo)] & padded[tuple(hi)]
    return occ & ~interior


# ---------------------------------------------------------------------------
# visibility by integer DDA over the undecided rays
# ---------------------------------------------------------------------------

_COMPACT_SHARE = 0.5     # compact the ray state once fewer than this share are live


def raycast_visible(occ: np.ndarray, geom: GridGeometry, eye: np.ndarray,
                    targets: np.ndarray, end_points: np.ndarray | None = None) -> np.ndarray:
    """March one ray per target voxel from `eye` toward `end_points`
    (default: voxel centers) and report which targets are reached before
    any other occupied voxel.

    `occ` is the occupancy mask of the grid, `targets` an (M, 3) array of
    integer voxel indices. Each ray advances one voxel boundary per
    iteration (Amanatides-Woo stepping), vectorized across the rays; a
    decided ray is masked off, and the state is compacted once fewer than
    half the rays are live. The contract:

    - a boundary crossing tied between axes steps along the lowest axis;
    - an eye outside the grid starts from the nearest voxel (its index
      clipped into the grid);
    - the eye's own voxel never blocks, and a target in it is visible;
    - each step applies, in order: the segment exhausted (next crossing
      past the end point) is visible (grazing contact); leaving the grid
      is hidden; reaching the target voxel is visible; entering any
      other occupied voxel is hidden;
    - a target outside the grid is never reached, so its ray ends hidden
      when it leaves the grid, or visible when its segment runs out first.
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

    dims = np.array(geom.dims)
    cell = np.clip(np.floor((eye - geom.origin) / h).astype(np.int64), 0, dims - 1)
    step = np.sign(d).astype(np.int64)
    with np.errstate(divide="ignore", invalid="ignore"):
        next_bound = geom.origin + (cell + (step > 0)) * h
        tmax = np.where(step != 0, (next_bound - eye) / d, np.inf)
        tdelta = np.where(step != 0, h / np.abs(d), np.inf)

    # flat cell indices into the occupancy grid padded by one occupied voxel
    # on every side: a ray leaving the grid enters the padding and ends
    # hidden. A target outside the grid gets -1, so no cell can match it.
    stride = np.array([(dims[1] + 2) * (dims[2] + 2), dims[2] + 2, 1])
    inside = np.all((targets >= 0) & (targets < dims), axis=1)
    tflat = np.where(inside, (targets + 1) @ stride, -1)
    occ_pad = np.pad(occ, 1, constant_values=True).ravel()
    visible = np.all(targets == cell, axis=1)  # target shares the eye voxel

    # state of the undecided rays, one 1-D array per axis. A decided ray
    # stays in the arrays, masked off by `live`, and keeps stepping
    # harmlessly (`take` clips its index) until the arrays are compacted
    rays = np.flatnonzero(~visible)
    tflat = tflat[rays]
    flat = np.full(rays.size, (cell + 1) @ stride)
    t = [tmax[rays, a] for a in range(3)]
    dt = [tdelta[rays, a] for a in range(3)]
    fstep = [step[rays, a] * stride[a] for a in range(3)]
    live = np.ones(rays.size, dtype=bool)
    for _ in range(int(dims.sum()) + 4):
        count = np.count_nonzero(live)
        if count == 0:
            break
        if count < _COMPACT_SHARE * live.size:
            keep = np.flatnonzero(live)
            rays, tflat, flat, live = rays[keep], tflat[keep], flat[keep], live[keep]
            t, dt, fstep = ([v[keep] for v in vs] for vs in (t, dt, fstep))
        # step along the axis of the nearest crossing, ties to the lowest axis
        tmin = np.minimum(np.minimum(t[0], t[1]), t[2])
        mx = t[0] == tmin
        my = ~mx & (t[1] == tmin)
        mz = ~(mx | my)
        grazing = tmin > 1.0
        for a, move in enumerate((mx, my, mz)):
            np.add(t[a], dt[a], out=t[a], where=move)
        flat += np.where(mx, fstep[0], np.where(my, fstep[1], fstep[2]))
        reached = grazing | (flat == tflat)
        visible[rays[live & reached]] = True
        live &= ~(reached | occ_pad.take(flat, mode="clip"))
    return visible


_FACE_NORMALS = np.array([[1, 0, 0], [-1, 0, 0], [0, 1, 0],
                          [0, -1, 0], [0, 0, 1], [0, 0, -1]])


def _exposed_face_targets(occ: np.ndarray, idx: np.ndarray, geom: GridGeometry,
                          eye: np.ndarray) -> np.ndarray:
    """Ray endpoint for each surface voxel: the center of its exposed face
    best aligned with the eye direction. Aiming at an exposed face instead
    of the voxel center keeps grazing rays (a flat slab seen from a shallow
    angle) out of the slab's own occupied layer."""
    padded = np.pad(occ, 1, constant_values=False)
    centers = geom.origin + (idx + 0.5) * geom.voxel_size
    to_eye = eye - centers
    best = np.full(idx.shape[0], -np.inf)
    offsets = np.zeros_like(centers)
    p = idx + 1
    for n in _FACE_NORMALS:
        nbr_occ = padded[p[:, 0] + n[0], p[:, 1] + n[1], p[:, 2] + n[2]]
        score = np.where(nbr_occ, -np.inf, to_eye @ n.astype(np.float64))
        better = score > best
        best = np.where(better, score, best)
        offsets[better] = 0.5 * geom.voxel_size * n
    return centers + offsets


def visible_surface(spec: SceneSpec, world: VoxelGrid, agent_id: int,
                    occlusion: str = "raycast") -> np.ndarray:
    """Boolean world-grid mask of the surface voxels this agent can see."""
    labels = world.labels
    surf = surface_mask(labels)
    out = np.zeros_like(surf)
    idx = np.argwhere(surf)
    if idx.size == 0:
        return out
    if occlusion == "none":
        out[surf] = True
        return out
    occ = labels != EMPTY_CLASS
    eye = spec.agents[agent_id].translation
    ends = _exposed_face_targets(occ, idx, world.geometry, eye)
    vis = raycast_visible(occ, world.geometry, eye, idx, end_points=ends)
    out[idx[vis, 0], idx[vis, 1], idx[vis, 2]] = True
    return out


# ---------------------------------------------------------------------------
# ground truth
# ---------------------------------------------------------------------------

@dataclass
class GroundTruth:
    world: VoxelGrid
    visible_masks: list[np.ndarray]      # per agent, world-grid surface visibility
    ego_visible: list[VoxelGrid]         # per agent, agent-frame ego grid
    collaborative: list[VoxelGrid]       # per agent, union of all agents' visibility


def _resample_agent_grids(world: VoxelGrid, masks: list[np.ndarray], geom: GridGeometry,
                          centers: np.ndarray, pose: RigidTransform) -> list[VoxelGrid]:
    """The world labels under each of `masks` (empty elsewhere), resampled
    into the agent grid `geom`, whose voxel `centers` are placed by `pose`;
    the centers are transformed and looked up once for all masks."""
    wgeom = world.geometry
    idx = wgeom.point_to_index(pose.apply(centers))
    inside = wgeom.index_inside(idx)
    ii = tuple(idx[inside].T)
    lab = world.labels[ii]
    grids = []
    for mask in masks:
        labels = np.full(centers.shape[0], EMPTY_CLASS, dtype=np.uint8)
        labels[inside] = np.where(mask[ii], lab, EMPTY_CLASS)
        grids.append(VoxelGrid(geom, labels=labels.reshape(geom.dims)))
    return grids


def build_ground_truth(spec: SceneSpec, model: ObservationModel | None = None) -> GroundTruth:
    """World raster plus per-agent ego-visible and collaborative grids.

    The collaborative grid of each agent carries every surface voxel seen
    by any agent, resampled into that agent's ego grid; everything else is
    the empty class.
    """
    model = model or ObservationModel()
    world = rasterize_world(spec)
    masks = [visible_surface(spec, world, a, model.occlusion)
             for a in range(spec.num_agents)]
    union = np.zeros_like(masks[0]) if masks else None
    for msk in masks:
        union |= msk
    geom = spec.agent_geometry()
    centers = geom.voxel_centers().reshape(-1, 3)
    ego_grids = []
    collab_grids = []
    for a, pose in enumerate(spec.agents):
        ego, collab = _resample_agent_grids(world, [masks[a], union], geom, centers, pose)
        ego_grids.append(ego)
        collab_grids.append(collab)
    return GroundTruth(world, masks, ego_grids, collab_grids)


# ---------------------------------------------------------------------------
# observations
# ---------------------------------------------------------------------------

def empty_space_gaussian(model: ObservationModel | None = None,
                         num_classes: int = NUM_CLASSES) -> GaussianSet:
    """The single large fixed Gaussian carrying the empty class; centered on
    the agent, never transmitted, never fused."""
    scale = model.empty_gaussian_scale if model else 20.0
    weight = model.semantic_weight if model else 4.0
    sem = np.zeros((1, num_classes))
    sem[0, num_classes - 1] = weight
    return GaussianSet(np.zeros((1, 3)), np.full((1, 3), scale),
                       np.array([[1.0, 0.0, 0.0, 0.0]]), np.ones(1), sem)


def observe_world(spec: SceneSpec, agent_id: int, model: ObservationModel,
                  world: VoxelGrid | None = None,
                  visible: np.ndarray | None = None) -> GaussianSet:
    """World-frame observation of one agent: Gaussians sampled on visible
    surface voxels inside the agent's ROI, with model noise applied.

    Deterministic per (spec.seed, agent_id); noise is drawn in the world
    frame so re-expressing the same observation in another frame is a pure
    rigid transform.
    """
    if agent_id < 0 or agent_id >= spec.num_agents:
        raise ValueError(f"agent {agent_id} does not exist")
    world = world if world is not None else rasterize_world(spec)
    if visible is None:
        visible = visible_surface(spec, world, agent_id, model.occlusion)
    pose = spec.agents[agent_id]
    geom = world.geometry
    idx = np.argwhere(visible)
    if idx.shape[0] == 0:
        return GaussianSet.empty(NUM_CLASSES)
    centers = geom.origin + (idx + 0.5) * geom.voxel_size
    local = pose.inverse().apply(centers)
    in_roi = spec.agent_roi().contains(local)
    idx = idx[in_roi]
    if idx.shape[0] == 0:
        return GaussianSet.empty(NUM_CLASSES)
    centers = centers[in_roi]
    classes = world.labels[idx[:, 0], idx[:, 1], idx[:, 2]].astype(np.int64)

    rng = np.random.default_rng(np.random.SeedSequence([int(spec.seed) & 0x7FFFFFFF,
                                                        _OBSERVE_STREAM, agent_id]))
    n = model.gaussians_per_agent
    pick = rng.integers(0, idx.shape[0], size=n)
    pts = centers[pick]
    pts = pts + rng.uniform(-0.5, 0.5, size=(n, 3)) * geom.voxel_size
    if model.position_sigma > 0:
        pts = pts + rng.normal(0.0, model.position_sigma, size=(n, 3))
    cls = classes[pick]
    if model.label_flip_prob > 0:
        flip = rng.random(n) < model.label_flip_prob
        offs = rng.integers(1, NUM_CLASSES - 1, size=n)
        cls = np.where(flip, (cls + offs) % (NUM_CLASSES - 1), cls)
    sem = np.zeros((n, NUM_CLASSES))
    sem[np.arange(n), cls] = model.semantic_weight

    base = _SCALE_TABLE[cls]
    if model.scale_jitter > 0:
        base = base * np.exp(rng.normal(0.0, model.scale_jitter, size=(n, 1)))

    yaw = rng.uniform(-np.pi, np.pi, size=n)
    rot = np.zeros((n, 4))
    rot[:, 0] = np.cos(yaw / 2)
    rot[:, 3] = np.sin(yaw / 2)

    dist = np.linalg.norm(pts - pose.translation, axis=1)
    if model.opacity_falloff > 0:
        opac = np.clip(np.exp(-dist / model.opacity_falloff), model.min_opacity, 1.0)
    else:
        opac = np.ones(n)

    gs = GaussianSet(pts, base, rot, opac, sem).canonicalized()
    gs.validate()
    return gs


def observe(spec: SceneSpec, agent_id: int, model: ObservationModel,
            world: VoxelGrid | None = None,
            visible: np.ndarray | None = None) -> GaussianSet:
    """Agent-frame observation (observe_world expressed in the agent pose)."""
    gs = observe_world(spec, agent_id, model, world, visible)
    return transform_set(gs, spec.agents[agent_id].inverse())


# ---------------------------------------------------------------------------
# episodes
# ---------------------------------------------------------------------------

@dataclass
class EpisodeData:
    spec: SceneSpec
    model: ObservationModel
    gt: GroundTruth
    observations: list[GaussianSet]      # agent frames
    # the empty-space prior rendered on an agent grid, keyed by what the
    # render reads (see _prior); filled by run_episode
    priors: dict = field(default_factory=dict, repr=False, compare=False)


@dataclass
class EpisodeResult:
    mode: str
    labels: list[VoxelGrid]
    channels: list[VoxelGrid]
    comm: CommStats


def prepare_episode(spec: SceneSpec, model: ObservationModel) -> EpisodeData:
    gt = build_ground_truth(spec, model)
    obs = [observe(spec, a, model, world=gt.world, visible=gt.visible_masks[a])
           for a in range(spec.num_agents)]
    return EpisodeData(spec, model, gt, obs)


def _prior(episode: EpisodeData, model: ObservationModel, geometry: GridGeometry,
           splat_cfg: SplatConfig) -> SparseChannels:
    """The empty-space prior of `model` rendered on `geometry`, rendered once
    per episode and key. The key holds everything the render reads, so a
    call with other arguments renders afresh."""
    key = (model.empty_gaussian_scale, model.semantic_weight, splat_cfg, geometry.dims,
           tuple(geometry.origin.tolist()), geometry.voxel_size, geometry.num_classes)
    if key not in episode.priors:
        episode.priors[key] = splat_sparse(empty_space_gaussian(model), geometry, splat_cfg)
    return episode.priors[key]


def _receive_all(episode: EpisodeData, ego: int, precision: int,
                 budget_bytes: float | None, stats: CommStats,
                 message_sink: list | None = None):
    """Package every neighbor's observation for `ego`: cull, serialize,
    enforce the budget, account, then decode (so quantization is real).
    A message that cannot be encoded (EncodeRangeError) or is over the
    budget is not sent and is counted as rejected on its link. A message
    that fails to decode is dropped and counted as rejected on its link;
    its bytes stay counted as sent. Accepted wire messages are appended
    to message_sink when given."""
    spec = episode.spec
    roi = spec.agent_roi()
    t_world_ego = spec.agents[ego].inverse()
    received = []
    for j in range(spec.num_agents):
        if j == ego:
            continue
        t_j_to_ego = t_world_ego.compose(spec.agents[j])
        culled = cull_to_roi(episode.observations[j], t_j_to_ego, roi)
        msg = GaussianMessage(j, ego, int(spec.seed) & 0xFFFFFFFF, culled, precision)
        try:
            data = serialize_message(msg)
        except EncodeRangeError:
            stats.record_rejected((j, ego))
            continue
        if budget_bytes is not None and not enforce_budget(len(data), budget_bytes):
            stats.record_rejected((j, ego))
            continue
        stats.record(msg, len(data))
        try:
            received.append(deserialize_message(data).gaussians)
        except DecodeError:
            stats.record_rejected((j, ego))
            continue
        if message_sink is not None:
            message_sink.append((j, ego, data))
    return received


def run_episode(spec: SceneSpec, model: ObservationModel, mode: str,
                params: FusionParams | Calibration | None = None,
                episode: EpisodeData | None = None,
                splat_cfg: SplatConfig | None = None,
                fusion_cfg: FusionConfig | None = None,
                precision: int = PRECISION_FP16,
                budget_bytes: float | None = None,
                message_sink: list | None = None) -> EpisodeResult:
    """Run one collaboration mode over a prepared scene.

    single:    each agent splats only its own Gaussians.
    zero_shot: neighbors' culled Gaussians are stacked in before splatting.
    naive:     the zero_shot path with a per-class channel calibration
               (identity when params is None); takes only a Calibration.
    learned:   the stacked set is refined by the fusion network against the
               received pool before splatting; requires FusionParams.

    The egos receive their messages and render (fuse, splat, prior,
    calibration, labels) on a two-thread team, each claimed by whichever
    thread asks first, and the stages of each ego split their own work on
    it, one ego's included (see the gsfusion.core docstring). Each ego
    counts its messages on its own, and the counts and message_sink are
    joined in ego order, so they equal a sequential run's.
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "learned" and not isinstance(params, FusionParams):
        raise ValueError("learned mode requires FusionParams")
    if mode == "naive" and params is not None and not isinstance(params, Calibration):
        raise ValueError(f"naive mode takes a Calibration or None, not {type(params).__name__}")
    episode = episode or prepare_episode(spec, model)
    splat_cfg = splat_cfg or SplatConfig()
    fusion_cfg = fusion_cfg or FusionConfig()
    # every agent shares one grid, so the constant prior is rendered once per
    # episode and added to each agent's splat (exact; see the gsfusion.splat
    # docstring)
    geometry = spec.agent_geometry()
    prior = _prior(episode, model, geometry, splat_cfg)
    collaborate = mode != "single" and spec.num_agents > 1

    def render(ego):
        final, links, sink = episode.observations[ego], CommStats(), []
        if collaborate:
            received = _receive_all(episode, ego, precision, budget_bytes, links, sink)
            final = stack(final, received)
            if mode == "learned":
                final = fuse_scene(final, received, fusion_cfg, params)
        grid = splat(final, geometry, splat_cfg)
        prior.add_to(grid.channels)
        if mode == "naive" and collaborate and params is not None:
            grid = VoxelGrid(geometry, channels=params.apply(grid.channels))
        return grid, labels_from_channels(grid, splat_cfg.min_contribution), links, sink

    with _two_threads():
        rendered = _each(render, spec.num_agents)
    stats = CommStats()
    for _, _, links, sink in rendered:          # in ego order
        stats.add(links)
        if message_sink is not None:
            message_sink.extend(sink)
    return EpisodeResult(mode, [labels for _, labels, _, _ in rendered],
                         [grid for grid, _, _, _ in rendered], stats)


def make_training_example(spec: SceneSpec, model: ObservationModel, ego: int = 0,
                          precision: int = PRECISION_FP16,
                          episode: EpisodeData | None = None):
    """Build one learned-mode training example from the ego agent's view.

    Uses the same packaging path as run_episode (cull, serialize, decode),
    so training sees exactly the quantized Gaussians deployment sees. The
    target is the collaborative ground truth of the ego grid.
    """
    episode = episode or prepare_episode(spec, model)
    stats = CommStats()
    received = _receive_all(episode, ego, precision, None, stats)
    stacked = stack(episode.observations[ego], received)
    return TrainExample(
        fusion_input=stacked,
        received=received,
        fixed=empty_space_gaussian(model),
        gt_labels=episode.gt.collaborative[ego].labels,
        geometry=spec.agent_geometry(),
    )


def derive_scene_seed(root_seed: int, index: int) -> int:
    """Per-scene seed derivation used by the CLI and fixtures."""
    return int(np.random.SeedSequence([int(root_seed) & 0x7FFFFFFF,
                                       index]).generate_state(1)[0])


# ---------------------------------------------------------------------------
# scene generation
# ---------------------------------------------------------------------------

def generate_scene(seed: int, num_agents: int = 3,
                   world_half_xy: float = 20.0,
                   voxel_size: float = 0.4,
                   grid_dims: tuple[int, int, int] = (100, 100, 8)) -> SceneSpec:
    """Random street scene: a road along x with sidewalks, buildings,
    walls, vegetation, poles, signs and vehicles; agents drive the road.

    Vehicles and walls sit between agents, so occlusion (the reason to
    collaborate) is present in every scene.
    """
    if not (2 <= num_agents <= 7):
        raise SceneSpecError("agent count must be between 2 and 7")
    if world_half_xy < 10.0:
        raise SceneSpecError("world_half_xy must be at least 10 m")
    rng = np.random.default_rng(np.random.SeedSequence([int(seed) & 0x7FFFFFFF,
                                                        _LAYOUT_STREAM]))
    w = world_half_xy
    zlo, zhi = -1.6, 1.6
    ground_top = zlo + 0.4
    outer_lo = 7.6                                  # outer zone beyond the sidewalks
    outer_hi = w - 0.4
    objects = [
        SceneObject("terrain", CLASS_TERRAIN, (0.0, 0.0, zlo + 0.2), (2 * w, 2 * w, 0.4)),
        SceneObject("road", CLASS_ROAD, (0.0, 0.0, zlo + 0.2), (2 * w, 9.6, 0.4)),
        SceneObject("sidewalk", CLASS_SIDEWALK, (0.0, 6.0, zlo + 0.2), (2 * w, 2.4, 0.4)),
        SceneObject("sidewalk", CLASS_SIDEWALK, (0.0, -6.0, zlo + 0.2), (2 * w, 2.4, 0.4)),
    ]

    def uni(lo, hi):
        return float(rng.uniform(lo, max(lo, hi)))

    def on_ground(height):
        return ground_top + height / 2

    for _ in range(int(rng.integers(2, 5))):       # buildings in the outer zone
        sy = uni(2.0, min(6.0, outer_hi - outer_lo))
        size = np.array([uni(4.0, min(8.0, 2 * w - 4)), sy, uni(2.2, 2.8)])
        side = rng.choice([-1.0, 1.0])
        cx = uni(-w + size[0] / 2 + 0.5, w - size[0] / 2 - 0.5)
        cy = side * uni(outer_lo + sy / 2, outer_hi - sy / 2)
        objects.append(SceneObject("building", CLASS_BUILDING,
                                   (cx, cy, on_ground(size[2])), size))

    for _ in range(int(rng.integers(1, 3))):       # walls near the sidewalks
        size = np.array([uni(3.0, 7.0), 0.4, uni(1.2, 2.0)])
        side = rng.choice([-1.0, 1.0])
        cx = uni(-w + size[0] / 2 + 0.5, w - size[0] / 2 - 0.5)
        objects.append(SceneObject("wall", CLASS_WALL,
                                   (cx, side * uni(outer_lo, min(8.6, outer_hi)),
                                    on_ground(size[2])), size))

    if rng.random() < 0.5:                          # occasional fence
        size = np.array([uni(3.0, 6.0), 0.4, uni(0.8, 1.2)])
        side = rng.choice([-1.0, 1.0])
        cx = uni(-w + size[0] / 2 + 0.5, w - size[0] / 2 - 0.5)
        objects.append(SceneObject("fence", CLASS_FENCE,
                                   (cx, side * uni(outer_lo + 0.4, outer_hi - 0.4),
                                    on_ground(size[2])), size))

    for _ in range(int(rng.integers(1, 4))):       # vegetation blobs
        size = np.full(3, uni(1.2, 2.2))
        side = rng.choice([-1.0, 1.0])
        objects.append(SceneObject("vegetation", CLASS_VEGETATION,
                                   (uni(-w + 2, w - 2),
                                    side * uni(outer_lo + size[1] / 2,
                                               outer_hi - size[1] / 2),
                                    on_ground(size[2])), size))

    if rng.random() < 0.4:                          # guard rail along the road edge
        size = np.array([uni(6.0, min(12.0, 2 * w - 4)), 0.4, 0.8])
        side = rng.choice([-1.0, 1.0])
        cx = uni(-w + size[0] / 2 + 0.5, w - size[0] / 2 - 0.5)
        objects.append(SceneObject("guard_rail", CLASS_GUARD_RAIL,
                                   (cx, side * 5.0, on_ground(size[2])), size))

    for _ in range(int(rng.integers(1, 3))):       # poles, sometimes with a sign
        px = uni(-w + 1, w - 1)
        py = rng.choice([-1.0, 1.0]) * uni(5.4, 6.6)
        pole = np.array([0.4, 0.4, uni(2.0, 2.8)])
        objects.append(SceneObject("pole", CLASS_POLE, (px, py, on_ground(pole[2])), pole))
        if rng.random() < 0.7:
            sign = np.array([0.8, 0.4, 0.8])
            zc = min(on_ground(pole[2]) + pole[2] / 2 + 0.4, zhi - sign[2] / 2)
            objects.append(SceneObject("traffic_sign", CLASS_TRAFFIC_SIGN,
                                       (px, py, zc), sign))

    if rng.random() < 0.25:                         # rare overhead bridge slab
        size = np.array([2.4, 12.0, 0.4])
        cx = uni(-w / 2, w / 2)
        objects.append(SceneObject("bridge", CLASS_BRIDGE, (cx, 0.0, 1.2), size))

    agents = []
    agent_x = np.linspace(-w + 5, w - 5, num_agents)
    for a in range(num_agents):
        lane = rng.choice([-2.4, 2.4])
        yaw = rng.uniform(-0.3, 0.3)
        q = np.array([np.cos(yaw / 2), 0.0, 0.0, np.sin(yaw / 2)])
        pos = np.array([agent_x[a] + rng.uniform(-1.0, 1.0),
                        lane + rng.uniform(-0.3, 0.3), 0.0])
        agents.append(RigidTransform(q, pos))
    agent_xy = np.array([p.translation[:2] for p in agents])

    n_vehicles = int(rng.integers(2, 6))            # vehicles are the main occluders
    for _ in range(n_vehicles):
        size = np.array([uni(3.6, 4.4), uni(1.6, 2.0), uni(1.2, 1.6)])
        # keep parked vehicles clear of the agents' own positions
        for _try in range(20):
            center = np.array([uni(-w + 4, w - 4), rng.choice([-2.4, 2.4]) + uni(-0.4, 0.4)])
            if np.min(np.linalg.norm(agent_xy - center, axis=1)) > 3.4:
                objects.append(SceneObject("vehicle", CLASS_VEHICLE,
                                           (center[0], center[1],
                                            on_ground(size[2])), size))
                break

    return SceneSpec(seed=seed, world_lo=np.array([-w, -w, zlo]),
                     world_hi=np.array([w, w, zhi]), objects=objects,
                     agents=agents, voxel_size=voxel_size, grid_dims=grid_dims)


# ---------------------------------------------------------------------------
# config serialization (used by the CLI)
# ---------------------------------------------------------------------------

def scene_from_dict(data: dict) -> SceneSpec:
    try:
        objects = [SceneObject(o.get("kind", "box"), int(o["class_id"]),
                               np.array(o["center"]), np.array(o["size"]))
                   for o in data.get("objects", [])]
        agents = [RigidTransform(np.array(a["rotation"]), np.array(a["translation"]))
                  for a in data.get("agents", [])]
        return SceneSpec(
            seed=int(data.get("seed", 0)),
            world_lo=np.array(data["world"]["lo"], dtype=np.float64),
            world_hi=np.array(data["world"]["hi"], dtype=np.float64),
            objects=objects,
            agents=agents,
            voxel_size=float(data.get("voxel_size", 0.4)),
            grid_dims=tuple(data.get("grid_dims", (100, 100, 8))),
        )
    except KeyError as exc:
        raise SceneSpecError(f"missing scene field: {exc}") from exc

