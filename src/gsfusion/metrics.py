"""Evaluation metrics: class-agnostic 3D IoU, per-class IoU / mIoU, and
column-projected 2D IoU over BEV categories."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from gsfusion.core import VoxelGrid
from gsfusion.sim import CLASS_ROAD, CLASS_VEHICLE


@dataclass
class EvalReport:
    iou: float
    miou: float
    per_class_iou: np.ndarray            # NaN where a class is absent from both
    bev_iou: dict[str, float]


DEFAULT_BEV_CATEGORIES = {
    "vehicle": (CLASS_VEHICLE,),
    "road": (CLASS_ROAD,),
    # "others" is filled in at call time with every remaining semantic class
}


def _check_geometry(pred: VoxelGrid, gt: VoxelGrid) -> None:
    pg, gg = pred.geometry, gt.geometry
    if pg.dims != gg.dims or pg.voxel_size != gg.voxel_size \
            or not np.array_equal(pg.origin, gg.origin):
        raise ValueError("prediction and ground truth grids do not match")
    if pred.labels is None or gt.labels is None:
        raise ValueError("iou needs label grids")


def _iou(a: np.ndarray, b: np.ndarray) -> float:
    union = int(np.sum(a | b))
    if union == 0:
        return float("nan")
    return float(np.sum(a & b) / union)


def iou_3d(pred: VoxelGrid, gt: VoxelGrid) -> EvalReport:
    """Class-agnostic occupied IoU plus per-class IoU and their mean.

    Occupied means label != empty. Classes absent from both grids are
    excluded from the mean (NaN in the per-class vector); a class present
    in one grid only scores 0 against it.
    """
    _check_geometry(pred, gt)
    c = pred.geometry.num_classes
    empty = c - 1
    p = pred.labels
    g = gt.labels
    occ = _iou(p != empty, g != empty)
    if np.isnan(occ):
        occ = 1.0 if np.array_equal(p, g) else 0.0
    per_class = np.full(c - 1, np.nan)
    for k in range(c - 1):
        val = _iou(p == k, g == k)
        per_class[k] = val
    present = ~np.isnan(per_class)
    miou = float(np.mean(per_class[present])) if present.any() else float("nan")
    bev = bev_iou(pred, gt)
    return EvalReport(iou=float(occ), miou=miou, per_class_iou=per_class, bev_iou=bev)


def mean_defined(values) -> float:
    """Mean of the values that are not NaN (a frame's mIoU is NaN when no
    class appears in either grid), or NaN when none is."""
    values = np.asarray(values, dtype=np.float64)
    values = values[~np.isnan(values)]
    return float(np.mean(values)) if values.size else float("nan")


def bev_iou(pred: VoxelGrid, gt: VoxelGrid) -> dict[str, float]:
    """2D IoU after projecting voxels onto the ground plane.

    A BEV cell is positive for a category when any voxel in its z-column
    carries one of the category's classes. The categories are vehicle,
    road, and others (every remaining semantic class).
    """
    _check_geometry(pred, gt)
    c = pred.geometry.num_classes
    cats = dict(DEFAULT_BEV_CATEGORIES)
    taken = {k for cls in cats.values() for k in cls}
    cats["others"] = tuple(k for k in range(c - 1) if k not in taken)
    out = {}
    for name, classes in cats.items():
        if not classes:
            out[name] = float("nan")
            continue
        pm = np.isin(pred.labels, classes).any(axis=2)
        gm = np.isin(gt.labels, classes).any(axis=2)
        out[name] = _iou(pm, gm)
    return out
