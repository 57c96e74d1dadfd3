"""Correctness checks of the benchmark, written from the method rather than
from the library code they check.

Each check takes the program's output plus the inputs it was computed
from and returns a `Check`: whether it passed, the worst gap seen, and a
line saying what was compared. None of them compares against stored
output; they recompute the quantity independently or test a property the
method must have.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from helpers import ORACLE_TOL, FUSED_FIELDS, fusion_oracle, rotmat_from_quat

HEADER_BYTES = 24          # GMSG header: magic, version, precision, ids, frame, count
FP16_RECORD_SCALARS = 11   # mean 3, scale 3, quaternion 4, opacity 1, then the classes
SPLAT_TOL = 1e-9           # relative gap allowed between splat and the brute-force sum
IOU_TOL = 1e-12
DIRECTIONAL_TOL = 2e-3     # relative gap, analytic vs central difference
DESCENT_MIN = 1e-4         # loss drop training must reach on fixed examples


@dataclass
class Check:
    name: str
    ok: bool
    worst_gap: float
    detail: str

    def as_dict(self) -> dict:
        return {"ok": self.ok, "worst_gap": self.worst_gap, "detail": self.detail}


# ---------------------------------------------------------------------------
# wire decode and rotations, from the GMSG format description
# ---------------------------------------------------------------------------

def decode_fp16_message(data: bytes, num_classes: int):
    """Fields of an fp16 GMSG payload as float64: means, scales, unit
    quaternions with their first nonzero component positive, opacities
    clipped into [0, 1], class weights."""
    width = FP16_RECORD_SCALARS + num_classes
    count = (len(data) - HEADER_BYTES) // (2 * width)
    flat = np.frombuffer(data, dtype="<f2", offset=HEADER_BYTES,
                         count=count * width).astype(np.float64).reshape(count, width)
    q = flat[:, 6:10]
    q = q / np.sqrt(np.sum(q * q, axis=1))[:, None]
    lead = q[np.arange(count), np.argmax(q != 0.0, axis=1)]
    q = q * np.where(lead < 0.0, -1.0, 1.0)[:, None]
    return flat[:, 0:3], flat[:, 3:6], q, np.clip(flat[:, 10], 0.0, 1.0), flat[:, 11:]


def rotmats(q: np.ndarray) -> np.ndarray:
    """(N, 3, 3) rotation matrices of unit quaternions (w, x, y, z)."""
    return np.moveaxis(rotmat_from_quat(np.asarray(q).T), -1, 0).reshape(-1, 3, 3)


# ---------------------------------------------------------------------------
# splat
# ---------------------------------------------------------------------------

def sample_voxels(channels: np.ndarray, rng: np.random.Generator, n: int,
                  floor: float) -> np.ndarray:
    """Flat voxel indices: half drawn among voxels carrying any non-empty
    class at or above the floor, half uniformly over the grid."""
    flat = channels.reshape(-1, channels.shape[-1])
    busy = np.nonzero(np.any(flat[:, :-1] >= floor, axis=1))[0]
    half = n // 2 if busy.size else 0
    picks = [rng.choice(busy, size=min(half, busy.size), replace=False)] if half else []
    picks.append(rng.choice(flat.shape[0], size=n - half, replace=False))
    return np.unique(np.concatenate(picks))


def brute_force_channels(fields, centers: np.ndarray, truncation: float,
                         floor: float) -> np.ndarray:
    """Sum over every Gaussian of opacity * exp(-q/2) * semantics at each
    center, keeping pairs with Mahalanobis q <= truncation^2 and dropping
    per-channel contributions below the floor."""
    means, scales, q, opac, sem = fields
    rot = rotmats(q)
    out = np.zeros((len(centers), sem.shape[1]))
    for lo in range(0, len(centers), 32):
        c = centers[lo:lo + 32]
        delta = c[:, None, :] - means[None, :, :]                       # (M, N, 3)
        local = np.einsum("mnk,nkj->mnj", delta, rot)                    # R^T delta
        maha = np.sum((local / scales[None]) ** 2, axis=-1)             # (M, N)
        w = np.where(maha <= truncation ** 2, opac[None] * np.exp(-0.5 * maha), 0.0)
        contrib = w[..., None] * sem[None]                               # (M, N, C)
        contrib = np.where(contrib >= floor, contrib, 0.0)
        out[lo:lo + 32] = contrib.sum(axis=1)
    return out


def check_splat(name: str, fields, geometry, truncation: float, floor: float,
                channels: np.ndarray, labels: np.ndarray, voxels: np.ndarray) -> Check:
    """Channels at the sampled voxels equal the brute-force sum, and the
    label grid is the per-voxel argmax (lowest class on ties) with voxels
    whose every channel is below the floor set to the empty class."""
    ny, nz = geometry.dims[1], geometry.dims[2]
    idx = np.stack([voxels // (ny * nz), (voxels // nz) % ny, voxels % nz], axis=1)
    centers = np.asarray(geometry.origin) + (idx + 0.5) * geometry.voxel_size
    want = brute_force_channels(fields, centers, truncation, floor)
    got = channels.reshape(-1, channels.shape[-1])[voxels]
    gap = float(np.max(np.abs(got - want) / (1.0 + np.abs(want)))) if len(voxels) else 0.0
    decoded = np.argmax(channels, axis=-1)
    decoded[np.all(channels < floor, axis=-1)] = channels.shape[-1] - 1
    labels_ok = np.array_equal(decoded, labels)
    return Check(name, gap <= SPLAT_TOL and labels_ok, gap,
                 f"{len(voxels)} voxels vs brute force; labels "
                 f"{'equal' if labels_ok else 'differ from'} the argmax decode")


# ---------------------------------------------------------------------------
# comms
# ---------------------------------------------------------------------------

def expected_comm_counts(agents, observations, ego: int, roi_half: np.ndarray,
                         num_classes: int, budget) -> dict:
    """What the ego should receive: each neighbour's means moved into the
    ego frame, counted inside the closed ROI box, priced at header plus
    one fp16 record per Gaussian, and accepted iff within the budget."""
    out = {"messages_sent": 0, "messages_rejected": 0, "gaussians_sent": 0, "bytes_sent": 0}
    r_ego = rotmat_from_quat(agents[ego].rotation_q)
    record = 2 * (FP16_RECORD_SCALARS + num_classes)
    for j, obs in enumerate(observations):
        if j == ego:
            continue
        r_j = rotmat_from_quat(agents[j].rotation_q)
        world = obs.means @ r_j.T + agents[j].translation
        local = (world - agents[ego].translation) @ r_ego
        n = int(np.sum(np.all(np.abs(local) <= roi_half, axis=1)))
        nbytes = HEADER_BYTES + record * n
        if budget is not None and nbytes > budget:
            out["messages_rejected"] += 1
            continue
        out["messages_sent"] += 1
        out["gaussians_sent"] += n
        out["bytes_sent"] += nbytes
    return out


def check_comms(name: str, expected: dict, stats) -> Check:
    got = {k: getattr(stats, k) for k in expected}
    gap = max(abs(got[k] - expected[k]) for k in expected)
    return Check(name, got == expected, float(gap),
                 f"CommStats {got} vs counted {expected}")


# ---------------------------------------------------------------------------
# fusion
# ---------------------------------------------------------------------------

def fusion_rows(ego_means: np.ndarray, pool_means: np.ndarray, rho: float,
                rng: np.random.Generator, fused: int, unfused: int, scan: int = 4000):
    """A seeded sample of ego rows: up to `fused` with a pool Gaussian
    within rho and up to `unfused` without one, found by linear scan over
    at most `scan` candidates.
    Returns (sorted rows, the set of rows without a neighbour)."""
    with_nbr, without = [], []
    for i in rng.permutation(len(ego_means))[:scan]:
        near = bool(np.any(np.linalg.norm(pool_means - ego_means[i], axis=1) <= rho))
        bucket, cap = (with_nbr, fused) if near else (without, unfused)
        if len(bucket) < cap:
            bucket.append(int(i))
        if len(with_nbr) == fused and len(without) == unfused:
            break
    return np.array(sorted(with_nbr + without), dtype=np.int64), set(without)


def check_fusion(name: str, stacked, received, cfg, params, fused, rows, unfused) -> Check:
    """Sampled rows of `fused` agree with `fusion_oracle` to ORACLE_TOL,
    rows without neighbours are bit-identical to the input, and the whole
    fused set satisfies the Gaussian invariants."""
    oracle = fusion_oracle(stacked.take(rows), received, cfg, params)
    gap = 0.0
    same = True
    for k, i in enumerate(rows):
        for f in FUSED_FIELDS:
            got = getattr(fused, f)[i]
            if i in unfused:
                same &= np.array_equal(got, getattr(stacked, f)[i])
            gap = max(gap, float(np.max(np.abs(got - getattr(oracle, f)[k]))))
    try:
        fused.validate()
        valid = True
    except ValueError:
        valid = False
    return Check(name, gap <= ORACLE_TOL and same and valid, gap,
                 f"{len(rows)} rows ({len(unfused)} without neighbours) vs fusion_oracle; "
                 f"unfused rows {'bit-identical' if same else 'CHANGED'}; "
                 f"validate {'passed' if valid else 'FAILED'}")


# ---------------------------------------------------------------------------
# quality
# ---------------------------------------------------------------------------

def counted_iou(pred: np.ndarray, gt: np.ndarray, num_classes: int):
    """Occupied IoU and mIoU by counting intersections and unions; the mIoU
    averages the classes present in either grid."""
    empty = num_classes - 1

    def ratio(a, b):
        union = int(np.count_nonzero(a | b))
        return None if union == 0 else int(np.count_nonzero(a & b)) / union

    occ = ratio(pred != empty, gt != empty)
    if occ is None:
        occ = 1.0 if np.array_equal(pred, gt) else 0.0
    per = [ratio(pred == k, gt == k) for k in range(empty)]
    per = [v for v in per if v is not None]
    return occ, (math.fsum(per) / len(per) if per else float("nan"))


def check_iou(name: str, reports, frames, num_classes: int) -> Check:
    gap = 0.0
    for rep, (pred, gt) in zip(reports, frames):
        occ, miou = counted_iou(pred, gt, num_classes)
        gap = max(gap, abs(rep.iou - occ), abs(rep.miou - miou))
    return Check(name, gap <= IOU_TOL, gap, f"{len(frames)} frames vs counted IoU")


def check_ordering(name: str, zero_shot_miou: float, single_miou: float) -> Check:
    return Check(name, zero_shot_miou > single_miou, zero_shot_miou - single_miou,
                 f"mean mIoU zero_shot {zero_shot_miou:.4f} vs single {single_miou:.4f}")


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------

def check_curve(name: str, curve, window: int) -> Check:
    """Every step's loss is finite and, when the curve is long enough to
    hold two windows, the last window's mean is below the first's."""
    totals = np.array([row[3] for row in curve])
    finite = bool(np.all(np.isfinite(totals)))
    if len(totals) < 2 * window:
        return Check(name, finite, 0.0, f"{len(totals)} steps, losses finite: {finite}")
    first, last = float(totals[:window].mean()), float(totals[-window:].mean())
    return Check(name, finite and last < first, last - first,
                 f"mean loss first {window} steps {first:.4f}, last {window} {last:.4f}")


def check_descent(name: str, before, after) -> Check:
    """Training lowered the loss on the same examples: the mean loss at the
    trained parameters is below the mean at the initial ones by more than
    DESCENT_MIN. Weights that did not move, or moved by weight decay
    alone, do not get that far."""
    first, last = float(np.mean(before)), float(np.mean(after))
    finite = bool(np.all(np.isfinite(before)) and np.all(np.isfinite(after)))
    return Check(name, finite and first - last > DESCENT_MIN, last - first,
                 f"mean loss on {len(before)} examples {first:.6f} at the initial "
                 f"parameters, {last:.6f} trained")


def check_directional(name: str, grads: dict, direction: dict, loss_at, steps) -> Check:
    """The analytic derivative along `direction` (sum of grads * direction)
    matches a central difference of `loss_at(t)`, the loss at params +
    t * direction, at one of the step sizes tried in order.

    The splat's truncation and floor make the loss jump where a pair
    crosses either, and a jump inside [-t, t] spoils that difference, so
    a smaller step is tried before the check fails. A wrong gradient
    disagrees at every step size."""
    analytic = math.fsum(float(np.sum(grads[k] * direction[k])) for k in direction)
    tried = []
    for eps in steps:
        numeric = (loss_at(eps) - loss_at(-eps)) / (2.0 * eps)
        tried.append((eps, numeric,
                      abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-12)))
        if tried[-1][2] <= DIRECTIONAL_TOL:
            break
    gap = min(t[2] for t in tried)
    return Check(name, gap <= DIRECTIONAL_TOL, gap,
                 f"analytic {analytic:.6e} vs central difference "
                 + ", ".join(f"{n:.6e} at eps {e:g}" for e, n, _ in tried))
