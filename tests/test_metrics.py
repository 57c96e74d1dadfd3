import pathlib
import subprocess
import sys

import numpy as np
import pytest

from gsfusion.core import EMPTY_CLASS, GridGeometry, VoxelGrid
from gsfusion.metrics import EvalReport, bev_iou, iou_3d
from gsfusion.sim import CLASS_ROAD, CLASS_VEHICLE

C = 13


def grid(labels):
    labels = np.asarray(labels, dtype=np.uint8)
    geom = GridGeometry(np.zeros(3), 0.4, labels.shape, num_classes=C)
    return VoxelGrid(geom, labels=labels)


def toy(shape=(2, 2, 2), fill=EMPTY_CLASS):
    return np.full(shape, fill, dtype=np.uint8)


class TestIou3d:
    def test_identical_grids(self):
        lab = toy()
        lab[0, 0, 0] = 3
        lab[1, 1, 1] = 7
        rep = iou_3d(grid(lab), grid(lab))
        assert rep.iou == 1.0
        assert rep.miou == 1.0

    def test_all_empty_prediction(self):
        gt = toy()
        gt[0, 0, 0] = 2
        rep = iou_3d(grid(toy()), grid(gt))
        assert rep.iou == 0.0

    def test_hand_enumerated_overlap(self):
        # 8-voxel toy: pred marks 3 voxels of class 1, gt marks 3, overlap 2
        pred = toy()
        gt = toy()
        pred[0, 0, 0] = pred[0, 1, 0] = pred[1, 0, 0] = 1
        gt[0, 0, 0] = gt[0, 1, 0] = gt[1, 1, 1] = 1
        rep = iou_3d(grid(pred), grid(gt))
        assert rep.iou == pytest.approx(2 / 4)
        assert rep.per_class_iou[1] == pytest.approx(2 / 4)
        assert rep.miou == pytest.approx(2 / 4)

    def test_symmetry_of_class_agnostic_iou(self):
        rng = np.random.default_rng(3)
        a = rng.integers(0, C, size=(4, 4, 2)).astype(np.uint8)
        b = rng.integers(0, C, size=(4, 4, 2)).astype(np.uint8)
        assert iou_3d(grid(a), grid(b)).iou == iou_3d(grid(b), grid(a)).iou

    def test_monotone_under_correct_addition(self):
        pred = toy((3, 3, 1))
        gt = toy((3, 3, 1))
        gt[0, 0, 0] = gt[1, 1, 0] = 5
        pred[0, 0, 0] = 5
        before = iou_3d(grid(pred), grid(gt)).per_class_iou[5]
        pred[1, 1, 0] = 5
        after = iou_3d(grid(pred), grid(gt)).per_class_iou[5]
        assert after >= before

    def test_absent_class_excluded_from_miou(self):
        pred = toy()
        gt = toy()
        pred[0, 0, 0] = gt[0, 0, 0] = 2
        rep = iou_3d(grid(pred), grid(gt))
        assert np.isnan(rep.per_class_iou[9])
        assert rep.miou == 1.0
        # injecting a class into one grid only drags the mean down
        pred[1, 1, 1] = 9
        rep2 = iou_3d(grid(pred), grid(gt))
        assert rep2.per_class_iou[9] == 0.0
        assert rep2.miou == pytest.approx(0.5)

    def test_geometry_mismatch_rejected(self):
        a = grid(toy())
        geom = GridGeometry(np.ones(3), 0.4, (2, 2, 2), num_classes=C)
        b = VoxelGrid(geom, labels=toy())
        with pytest.raises(ValueError, match="match"):
            iou_3d(a, b)


class TestBev:
    def test_single_column_match(self):
        pred = toy((3, 3, 4))
        gt = toy((3, 3, 4))
        pred[1, 1, 0] = CLASS_VEHICLE
        gt[1, 1, 3] = CLASS_VEHICLE        # same column, different height
        rep = bev_iou(grid(pred), grid(gt))
        assert rep["vehicle"] == 1.0

    def test_shifted_vehicle_zero(self):
        pred = toy((3, 3, 2))
        gt = toy((3, 3, 2))
        pred[0, 1, 0] = CLASS_VEHICLE
        gt[1, 1, 0] = CLASS_VEHICLE
        rep = bev_iou(grid(pred), grid(gt))
        assert rep["vehicle"] == 0.0

    def test_matches_exhaustive_projection_oracle(self):
        rng = np.random.default_rng(11)
        pred = rng.integers(0, C, size=(10, 10, 8)).astype(np.uint8)
        gt = rng.integers(0, C, size=(10, 10, 8)).astype(np.uint8)
        rep = bev_iou(grid(pred), grid(gt))
        cats = {"vehicle": (CLASS_VEHICLE,), "road": (CLASS_ROAD,),
                "others": tuple(k for k in range(C - 1)
                                if k not in (CLASS_VEHICLE, CLASS_ROAD))}
        for name, classes in cats.items():
            pm = np.zeros((10, 10), dtype=bool)
            gm = np.zeros((10, 10), dtype=bool)
            for x in range(10):
                for y in range(10):
                    pm[x, y] = any(pred[x, y, z] in classes for z in range(8))
                    gm[x, y] = any(gt[x, y, z] in classes for z in range(8))
            inter = np.sum(pm & gm)
            union = np.sum(pm | gm)
            want = inter / union if union else float("nan")
            assert rep[name] == pytest.approx(want)

    def test_report_fields(self):
        lab = toy()
        lab[0, 0, 0] = CLASS_ROAD
        rep = iou_3d(grid(lab), grid(lab))
        assert isinstance(rep, EvalReport)
        assert rep.bev_iou["road"] == 1.0
        assert set(rep.bev_iou) == {"vehicle", "road", "others"}
        assert np.nonzero(~np.isnan(rep.per_class_iou))[0].tolist() == [CLASS_ROAD]


def test_metrics_does_not_load_the_simulator():
    # a fresh process, as this one has imported gsfusion.sim already
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import gsfusion.metrics; "
            "print(*sorted(m for m in sys.modules if m.startswith('gsfusion.')))")
    proc = subprocess.run([sys.executable, "-c", code, str(src)], capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.split() == ["gsfusion.core", "gsfusion.metrics"]
