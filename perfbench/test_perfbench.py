"""Tests of the benchmark itself: every correctness check fails on a
deliberately corrupted output (or, for training, an optimizer that does
not learn), and each workload runs end to end at a tiny scale in
seconds, traced and untraced.

    PYTHONPATH=src python -m pytest -q perfbench
"""

import copy
import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
for _p in (HERE, HERE.parent / "tests"):
    if str(_p) not in sys.path:
        sys.path.insert(0, str(_p))

import bench  # noqa: E402
import checks  # noqa: E402
import tracing  # noqa: E402
from gsfusion import learn, sim  # noqa: E402
from gsfusion.core import GridGeometry  # noqa: E402
from gsfusion.fusion import fuse_scene  # noqa: E402
from gsfusion.splat import SplatConfig, labels_from_channels, splat  # noqa: E402
from helpers import golden_fusion_fixture, random_gaussian_set  # noqa: E402

SEED = 5


@pytest.fixture(scope="module")
def tiny_run():
    """Tiny acceptance_train inputs and one round of their outputs."""
    w = bench.tiny(bench.WORKLOADS["acceptance_train"])
    inp = bench.setup(w, SEED)
    return w, inp, bench.run_round(w, inp)


def test_splat_check_catches_a_changed_channel():
    rng = np.random.default_rng(1)
    gs = random_gaussian_set(rng, 30, center_span=2.0, scale_lo=0.2, scale_hi=0.8)
    geom = GridGeometry(np.full(3, -3.0), 0.4, (15, 15, 15))
    cfg = SplatConfig()
    grid = splat(gs, geom, cfg)
    labels = labels_from_channels(grid, cfg.min_contribution).labels
    channels = grid.channels.copy()
    voxels = checks.sample_voxels(channels, rng, 60, cfg.min_contribution)
    fields = (gs.means, gs.scales, gs.rotations, gs.opacities, gs.semantics)

    def run(ch):
        return checks.check_splat("splat", fields, geom, cfg.truncation_sigma,
                                  cfg.min_contribution, ch, labels, voxels)

    assert run(channels).ok
    busy = [v for v in voxels if channels.reshape(-1, 13)[v].max() > 0.01]
    channels.reshape(-1, 13)[busy[0], int(np.argmax(channels.reshape(-1, 13)[busy[0]]))] *= 1.001
    assert not run(channels).ok


def test_comms_check_catches_one_extra_byte(tiny_run):
    _, inp, _ = tiny_run
    spec, episode = inp.specs[0], inp.episodes[0]
    budget = 24 + 48 * 40                            # rejects the larger links
    res = sim.run_episode(spec, inp.model, "zero_shot", episode=episode, budget_bytes=budget)
    half = np.array(spec.grid_dims) * spec.voxel_size / 2.0
    counted = [checks.expected_comm_counts(spec.agents, episode.observations, ego, half, 13,
                                           budget) for ego in range(spec.num_agents)]
    expected = {k: sum(c[k] for c in counted) for k in counted[0]}
    assert expected["messages_rejected"] > 0 and expected["messages_sent"] > 0
    assert checks.check_comms("comms", expected, res.comm).ok
    stats = copy.deepcopy(res.comm)
    stats.bytes_sent += 1
    assert not checks.check_comms("comms", expected, stats).ok


def test_fusion_check_catches_a_moved_row():
    ego, received, cfg, params = golden_fusion_fixture()
    fused = fuse_scene(ego, received, cfg, params)
    pool = np.concatenate([r.means for r in received])
    rows, unfused = checks.fusion_rows(ego.means, pool, cfg.radius_rho,
                                       np.random.default_rng(2), 6, 2)
    assert checks.check_fusion("fusion", ego, received, cfg, params, fused, rows, unfused).ok
    moved = fused.copy()
    moved.means[next(i for i in rows if i not in unfused)] += 1e-6
    assert not checks.check_fusion("fusion", ego, received, cfg, params, moved, rows,
                                   unfused).ok


def test_directional_check_catches_a_scaled_gradient(tiny_run):
    _, inp, _ = tiny_run
    grads, direction, loss_at = bench.directional_inputs(inp, SEED)
    assert checks.check_directional("dd", grads, direction, loss_at,
                                    bench.DIRECTIONAL_STEPS).ok
    scaled = {k: 1.01 * g for k, g in grads.items()}
    assert not checks.check_directional("dd", scaled, direction, loss_at,
                                        bench.DIRECTIONAL_STEPS).ok


@pytest.mark.parametrize("fault", ["idle step", "zeroed gradients"])
def test_descent_check_catches_an_optimizer_that_does_not_learn(tiny_run, monkeypatch, fault):
    w, inp, rnd = tiny_run
    assert bench.descent_check(inp, rnd.trained).ok
    step = learn.AdamW.step
    broken = {
        "idle step": lambda self, grads, lr: None,
        "zeroed gradients": lambda self, grads, lr: step(
            self, {k: np.zeros_like(g) for k, g in grads.items()}, lr),
    }[fault]
    monkeypatch.setattr(learn.AdamW, "step", broken)
    cfg = learn.TrainConfig(steps=w.steps, batch=w.batch, **bench.TRAIN)
    trained, _ = learn.train(inp.params, inp.examples, cfg)
    assert not bench.descent_check(inp, trained).ok


def test_iou_check_catches_a_wrong_report(tiny_run):
    _, inp, rnd = tiny_run
    ep, reports = bench.frame_reports(inp, rnd)[0]
    gt = inp.episodes[ep.scene].gt.collaborative
    frames = [(lab.labels, gt[a].labels) for a, lab in enumerate(ep.result.labels)]
    assert checks.check_iou("iou", reports, frames, 13).ok
    reports = copy.deepcopy(reports)
    reports[0].miou += 1e-6
    assert not checks.check_iou("iou", reports, frames, 13).ok


def _declared(kind):
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


@pytest.mark.parametrize("name", sorted(bench.WORKLOADS))
def test_tiny_workload_runs_clean(name):
    w = bench.tiny(bench.WORKLOADS[name])
    plain = bench.run(w, SEED, seconds=0.0, trace=False)
    assert plain["correct"] and plain["failed"] == 0, plain["failures"]
    assert all(c["ok"] for c in plain["checks"].values())
    assert {k: m["unit"] for k, m in plain["metrics"].items()} == _declared("end_to_end")
    assert all(m["value"] > 0 for m in plain["metrics"].values())

    traced = bench.run(w, SEED, seconds=0.0, trace=True)
    assert traced["correct"] and traced["failed"] == 0, traced["failures"]
    assert {k: m["unit"] for k, m in traced["metrics"].items()} == _declared("per_layer")
    for span in tracing.SPANS:
        assert traced["metrics"][f"{span}.calls"]["value"] >= 1, span
