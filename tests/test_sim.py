import hashlib
import os
import pathlib
import subprocess
import sys
import threading
from dataclasses import replace

import numpy as np
import pytest

from gsfusion import core, sim
from gsfusion.core import EMPTY_CLASS, GaussianSet, GridGeometry, RigidTransform
from gsfusion.comms import PRECISION_FP32, deserialize_message, stack, transform_set
from gsfusion.fusion import FusionConfig, FusionParams, fuse_scene
from gsfusion.learn import Calibration
from gsfusion.sim import (
    CLASS_ROAD,
    CLASS_VEHICLE,
    CLASS_WALL,
    GroundTruth,
    ObservationModel,
    SceneObject,
    SceneSpec,
    SceneSpecError,
    build_ground_truth,
    derive_scene_seed,
    empty_space_gaussian,
    generate_scene,
    observe,
    observe_world,
    prepare_episode,
    rasterize_world,
    raycast_visible,
    run_episode,
    scene_from_dict,
    surface_mask,
    visible_surface,
    _exposed_face_targets,
)
from gsfusion.splat import SplatConfig, splat

from helpers import (
    lockstep_raycast_oracle,
    noiseless_model,
    prepare_with_scales,
    resample_agent_grid_oracle,
    scene_to_dict,
    sequential_episode,
    undecodable_from,
)


def flat_scene(objects, agents=None, half=6.0, grid=(30, 30, 8)):
    agents = agents or [RigidTransform.identity()]
    return SceneSpec(
        seed=1, world_lo=np.array([-half, -half, -1.6]),
        world_hi=np.array([half, half, 1.6]), objects=objects, agents=agents,
        voxel_size=0.4, grid_dims=grid,
    )


def eye_at(x, y, z=0.0):
    return RigidTransform(np.array([1.0, 0, 0, 0]), np.array([x, y, z]))


class TestRasterize:
    def test_empty_scene(self):
        spec = flat_scene([])
        world = rasterize_world(spec)
        assert np.all(world.labels == EMPTY_CLASS)

    def test_aligned_box_exact_count(self):
        # 2.0 m cube with edges on voxel boundaries: exactly (2.0 / 0.4)^3
        box = SceneObject("vehicle", CLASS_VEHICLE, (0.2, 0.2, 0.2), (2.0, 2.0, 2.0))
        world = rasterize_world(flat_scene([box]))
        assert int(np.sum(world.labels == CLASS_VEHICLE)) == 125

    def test_later_objects_overwrite(self):
        a = SceneObject("road", CLASS_ROAD, (0.0, 0.0, -1.4), (4.0, 4.0, 0.4))
        b = SceneObject("vehicle", CLASS_VEHICLE, (0.0, 0.0, -1.4), (2.0, 2.0, 0.4))
        world = rasterize_world(flat_scene([a, b]))
        assert world.labels[15, 15, 0] == CLASS_VEHICLE
        assert world.labels[16, 18, 0] == CLASS_ROAD

    def test_object_outside_world_rejected(self):
        box = SceneObject("vehicle", CLASS_VEHICLE, (5.9, 0.0, 0.0), (2.0, 2.0, 2.0))
        with pytest.raises(SceneSpecError, match="outside"):
            flat_scene([box])

    def test_bad_class_rejected(self):
        with pytest.raises(SceneSpecError):
            SceneObject("x", EMPTY_CLASS, (0, 0, 0), (1, 1, 1))

    def test_surface_mask_of_solid_cube(self):
        box = SceneObject("vehicle", CLASS_VEHICLE, (0.2, 0.2, 0.2), (2.0, 2.0, 2.0))
        world = rasterize_world(flat_scene([box]))
        surf = surface_mask(world.labels)
        assert int(surf.sum()) == 125 - 27          # 5^3 shell minus 3^3 core


def random_raycast_world(rng):
    """A random occupancy grid, an eye and (M, 3) targets with optional end
    points, drawn to reach the DDA's edge cases: exact diagonal ties (eyes
    and end points on voxel centres and faces of a dyadic grid), eyes on
    voxel corners or outside the grid, and targets in the eye's voxel or up
    to 2 voxels outside the grid."""
    dims = rng.integers(1, 12, size=3)
    h = float(rng.choice([0.25, 0.5, 1.0, 0.1, 0.4]))
    origin = rng.integers(-8, 9, size=3) * 0.25
    geom = GridGeometry(origin, h, tuple(dims))
    occ = rng.random(tuple(dims)) < rng.choice([0.0, 0.05, 0.2, 0.4])
    kind = rng.integers(4)
    if kind == 0:                               # voxel centre
        u = rng.integers(0, dims) + 0.5
    elif kind == 1:                             # voxel corner, on the border too
        u = rng.integers(0, dims + 1).astype(np.float64)
    elif kind == 2:                             # anywhere inside
        u = rng.uniform(0.0, dims)
    else:                                       # outside, on at least one axis
        u = rng.uniform(-3.0, dims + 3.0)
        a = rng.integers(3)
        u[a] = rng.uniform(-3.0, -0.01) if rng.random() < 0.5 else dims[a] + rng.uniform(0.01, 3.0)
    eye = origin + u * h
    cell = np.clip(np.floor(u).astype(np.int64), 0, dims - 1)
    near = cell + rng.integers(-1, 2, size=(6, 3))
    targets = np.vstack([rng.integers(-2, dims + 2, size=(int(rng.integers(1, 60)), 3)),
                         cell[None], near])
    centres = origin + (targets + 0.5) * h
    ends = None
    if rng.random() < 0.5:                      # a face centre or a point in the voxel
        face = np.zeros_like(centres)
        face[np.arange(len(targets)), rng.integers(3, size=len(targets))] = 0.5 * h
        face *= rng.choice([-1.0, 1.0], size=(len(targets), 1))
        ends = np.where(rng.random((len(targets), 1)) < 0.5, centres + face,
                        centres + rng.uniform(-0.5, 0.5, size=centres.shape) * h)
    return occ, geom, eye, targets, ends


class TestRaycast:
    def test_clear_line_of_sight(self):
        spec = flat_scene([SceneObject("vehicle", CLASS_VEHICLE, (3.0, 0.0, 0.0),
                                       (1.2, 1.2, 1.2))], agents=[eye_at(-3.0, 0.0)])
        world = rasterize_world(spec)
        vis = visible_surface(spec, world, 0)
        # the face toward the eye (smaller x) is seen, the far face is not
        occ_idx = np.argwhere(world.labels != EMPTY_CLASS)
        near_face = occ_idx[occ_idx[:, 0] == occ_idx[:, 0].min()]
        far_face = occ_idx[occ_idx[:, 0] == occ_idx[:, 0].max()]
        assert np.all(vis[near_face[:, 0], near_face[:, 1], near_face[:, 2]])
        assert not np.any(vis[far_face[:, 0], far_face[:, 1], far_face[:, 2]])

    def test_wall_blocks_object(self):
        wall = SceneObject("wall", CLASS_WALL, (0.0, 0.0, 0.0), (0.4, 8.0, 3.2))
        hidden = SceneObject("vehicle", CLASS_VEHICLE, (3.0, 0.0, -0.4), (1.6, 1.6, 1.6))
        spec = flat_scene([wall, hidden], agents=[eye_at(-4.0, 0.0)])
        world = rasterize_world(spec)
        vis = visible_surface(spec, world, 0)
        vehicle_voxels = world.labels == CLASS_VEHICLE
        assert not np.any(vis & vehicle_voxels)

    def test_eye_voxel_never_blocks(self):
        # a box surrounding the eye still lets rays leave their own voxel
        spec = flat_scene([SceneObject("vehicle", CLASS_VEHICLE, (2.0, 0.0, 0.0),
                                       (0.8, 0.8, 0.8))], agents=[eye_at(0.1, 0.1)])
        world = rasterize_world(spec)
        vis = visible_surface(spec, world, 0)
        assert np.any(vis)

    def test_equals_lockstep_oracle_on_random_worlds(self):
        rng = np.random.default_rng(2024)
        for world in range(240):
            occ, geom, eye, targets, ends = random_raycast_world(rng)
            got = raycast_visible(occ, geom, eye, targets, end_points=ends)
            want = lockstep_raycast_oracle(occ, geom, eye, targets, end_points=ends)
            assert np.array_equal(got, want), f"world {world}"

    def test_equals_lockstep_oracle_on_generated_scene(self):
        spec = generate_scene(42, world_half_xy=12.0, grid_dims=(60, 60, 8))
        world = rasterize_world(spec)
        occ = world.labels != EMPTY_CLASS
        idx = np.argwhere(surface_mask(world.labels))
        for agent in spec.agents:
            ends = _exposed_face_targets(occ, idx, world.geometry, agent.translation)
            got = raycast_visible(occ, world.geometry, agent.translation, idx, end_points=ends)
            want = lockstep_raycast_oracle(occ, world.geometry, agent.translation, idx,
                                           end_points=ends)
            assert np.array_equal(got, want)
            assert 0 < got.sum() < len(idx)

    def test_raycast_direct_api(self):
        spec = flat_scene([])
        world = rasterize_world(spec)
        occ = np.zeros(world.geometry.dims, dtype=bool)
        targets = np.array([[0, 0, 0], [29, 29, 7]])
        vis = raycast_visible(occ, world.geometry, np.array([0.05, 0.05, -1.55]), targets)
        assert vis.all()


class TestObserve:
    def _simple_spec(self, agents=None):
        objects = [
            SceneObject("road", CLASS_ROAD, (0.0, 0.0, -1.4), (11.2, 11.2, 0.4)),
            SceneObject("vehicle", CLASS_VEHICLE, (2.0, 2.0, -0.6), (1.6, 1.6, 1.2)),
        ]
        return flat_scene(objects, agents=agents or [eye_at(-3.0, -3.0)])

    def test_noiseless_means_on_surface(self):
        spec = self._simple_spec()
        model = noiseless_model(gaussians_per_agent=200, occlusion="none")
        world = rasterize_world(spec)
        gs = observe_world(spec, 0, model)
        surf = surface_mask(world.labels)
        idx = world.geometry.point_to_index(gs.means)
        assert np.all(world.geometry.index_inside(idx))
        assert np.all(surf[idx[:, 0], idx[:, 1], idx[:, 2]])

    def test_semantics_match_voxel_class_when_noiseless(self):
        spec = self._simple_spec()
        model = noiseless_model(gaussians_per_agent=100, occlusion="none")
        world = rasterize_world(spec)
        gs = observe_world(spec, 0, model)
        idx = world.geometry.point_to_index(gs.means)
        want = world.labels[idx[:, 0], idx[:, 1], idx[:, 2]]
        assert np.array_equal(np.argmax(gs.semantics, axis=1), want)

    def test_occluded_object_unobserved(self):
        wall = SceneObject("wall", CLASS_WALL, (0.0, 0.0, 0.0), (0.4, 10.4, 3.2))
        hidden = SceneObject("vehicle", CLASS_VEHICLE, (3.0, 0.0, -0.6), (1.6, 1.6, 1.2))
        spec = flat_scene([wall, hidden], agents=[eye_at(-4.0, 0.0)])
        model = noiseless_model(gaussians_per_agent=500)
        gs = observe_world(spec, 0, model)
        assert len(gs) > 0
        assert not np.any(np.argmax(gs.semantics, axis=1) == CLASS_VEHICLE)

    def test_two_agents_cover_both_wall_faces(self):
        # 0.8 m wall = two voxel layers; each agent sees mostly its own face
        # and only their union covers both
        wall = SceneObject("wall", CLASS_WALL, (0.0, 0.0, 0.0), (0.8, 8.0, 3.2))
        spec = flat_scene([wall], agents=[eye_at(-4.0, 0.0), eye_at(4.0, 0.0)])
        model = noiseless_model(gaussians_per_agent=400)
        world = rasterize_world(spec)
        a = observe_world(spec, 0, model)
        b = observe_world(spec, 1, model)
        ix_a = world.geometry.point_to_index(a.means)[:, 0]
        ix_b = world.geometry.point_to_index(b.means)[:, 0]
        near_a, near_b = 14, 15
        assert np.mean(ix_a == near_a) > 0.8
        assert np.mean(ix_b == near_b) > 0.8
        both = np.concatenate([ix_a, ix_b])
        assert np.any(both == near_a) and np.any(both == near_b)

    def test_deterministic(self):
        spec = self._simple_spec()
        model = ObservationModel(gaussians_per_agent=100)
        a = observe(spec, 0, model)
        b = observe(spec, 0, model)
        assert np.array_equal(a.means, b.means)
        assert np.array_equal(a.semantics, b.semantics)

    def test_frame_consistency(self):
        yaw = 0.6
        pose = RigidTransform(np.array([np.cos(yaw / 2), 0, 0, np.sin(yaw / 2)]),
                              np.array([-3.0, -2.0, 0.0]))
        other = eye_at(3.0, 1.0)
        spec = self._simple_spec(agents=[pose, other])
        model = ObservationModel(gaussians_per_agent=64)
        in_agent0 = observe(spec, 0, model)
        world_frame = observe_world(spec, 0, model)
        t_0_to_1 = other.inverse().compose(pose)
        via_agent = transform_set(in_agent0, t_0_to_1)
        direct = transform_set(world_frame, other.inverse())
        assert np.max(np.abs(via_agent.means - direct.means)) < 1e-6
        assert np.max(np.abs(via_agent.rotations - direct.rotations)) < 1e-6

    def test_invalid_agent(self):
        spec = self._simple_spec()
        with pytest.raises(ValueError):
            observe(spec, 5, ObservationModel())

    def test_opacity_falls_with_range(self):
        spec = self._simple_spec()
        model = noiseless_model(gaussians_per_agent=300, opacity_falloff=10.0,
                                occlusion="none")
        gs = observe_world(spec, 0, model)
        d = np.linalg.norm(gs.means - spec.agents[0].translation, axis=1)
        far = gs.opacities[d > np.median(d)].mean()
        near = gs.opacities[d <= np.median(d)].mean()
        assert far < near


class TestGroundTruth:
    def test_empty_scene_all_empty(self):
        spec = flat_scene([])
        gt = build_ground_truth(spec)
        assert np.all(gt.world.labels == EMPTY_CLASS)
        assert np.all(gt.ego_visible[0].labels == EMPTY_CLASS)

    def test_collaborative_is_union(self):
        wall = SceneObject("wall", CLASS_WALL, (0.0, 0.0, 0.0), (0.8, 8.0, 3.2))
        spec = flat_scene([wall], agents=[eye_at(-4.0, 0.0), eye_at(4.0, 0.0)],
                          grid=(30, 30, 8))
        gt = build_ground_truth(spec)
        nonempty = [int(np.sum(g.labels != EMPTY_CLASS)) for g in gt.ego_visible]
        collab = int(np.sum(gt.collaborative[0].labels != EMPTY_CLASS))
        assert collab > max(nonempty)
        union_mask = gt.visible_masks[0] | gt.visible_masks[1]
        both = int(union_mask.sum())
        assert both > int(gt.visible_masks[0].sum())

    def test_agent_grids_equal_per_mask_resampling(self):
        spec = generate_scene(seed=42, num_agents=3, world_half_xy=10.0, grid_dims=(30, 30, 8))
        gt = build_ground_truth(spec)
        union = np.logical_or.reduce(gt.visible_masks)
        gained = []
        for a, pose in enumerate(spec.agents):
            ego = resample_agent_grid_oracle(spec, gt.world, gt.visible_masks[a], pose)
            collab = resample_agent_grid_oracle(spec, gt.world, union, pose)
            assert np.array_equal(gt.ego_visible[a].labels, ego)
            assert np.array_equal(gt.collaborative[a].labels, collab)
            gained.append(np.sum(collab != EMPTY_CLASS) - np.sum(ego != EMPTY_CLASS))
        assert min(gained) >= 0 and max(gained) > 0

    def test_generated_scene_golden_hash(self):
        import hashlib

        spec = generate_scene(seed=42, num_agents=3, world_half_xy=12.0,
                              grid_dims=(60, 60, 8))
        world = rasterize_world(spec)
        digest = hashlib.sha256(world.labels.tobytes()).hexdigest()
        # frozen from the first run; guards rasterizer and generator drift
        import json
        import pathlib

        manifest = json.loads((pathlib.Path(__file__).parent / "goldens" /
                               "manifest.json").read_text())
        assert digest == manifest["world_hash_seed42"]

    def test_episode42_metrics_golden(self):
        import json
        import pathlib

        from helpers import episode42_metrics

        manifest = json.loads((pathlib.Path(__file__).parent / "goldens" /
                               "manifest.json").read_text())
        got = episode42_metrics()
        assert got["episode42_bytes_sent"] == manifest["episode42_bytes_sent"]
        for mode in ("single", "zero_shot"):
            for metric in ("miou", "iou"):
                key = f"episode42_{mode}_{metric}"
                assert abs(got[key] - manifest[key]) <= 1e-12, (key, got[key], manifest[key])


class TestEpisode:
    def _spec(self):
        return generate_scene(seed=5, num_agents=2, world_half_xy=10.0,
                              grid_dims=(40, 40, 8))

    def _model(self):
        return ObservationModel(gaussians_per_agent=150)

    def test_single_mode_no_comm(self):
        res = run_episode(self._spec(), self._model(), "single")
        assert res.comm.bytes_sent == 0
        assert len(res.labels) == 2

    def test_one_agent_any_mode_equals_single(self):
        spec = generate_scene(seed=6, num_agents=2, world_half_xy=10.0,
                              grid_dims=(40, 40, 8))
        spec.agents = spec.agents[:1]
        model = self._model()
        single = run_episode(spec, model, "single")
        zero = run_episode(spec, model, "zero_shot")
        assert np.array_equal(single.labels[0].labels, zero.labels[0].labels)
        assert zero.comm.bytes_sent == 0

    def test_zero_shot_adds_coverage(self):
        spec = self._spec()
        model = self._model()
        episode = prepare_episode(spec, model)
        single = run_episode(spec, model, "single", episode=episode)
        zero = run_episode(spec, model, "zero_shot", episode=episode)
        assert zero.comm.bytes_sent > 0
        for a in range(2):
            n_single = int(np.sum(single.labels[a].labels != EMPTY_CLASS))
            n_zero = int(np.sum(zero.labels[a].labels != EMPTY_CLASS))
            assert n_zero >= n_single

    def test_naive_identity_equals_zero_shot(self):
        spec = self._spec()
        model = self._model()
        episode = prepare_episode(spec, model)
        zero = run_episode(spec, model, "zero_shot", episode=episode)
        naive = run_episode(spec, model, "naive", episode=episode)
        for a in range(2):
            assert np.array_equal(zero.channels[a].channels, naive.channels[a].channels)

    def test_learned_requires_params(self):
        with pytest.raises(ValueError, match="FusionParams"):
            run_episode(self._spec(), self._model(), "learned")

    def test_budget_rejections_counted_per_link(self):
        spec = generate_scene(seed=5, num_agents=3, world_half_xy=10.0, grid_dims=(40, 40, 8))
        res = run_episode(spec, self._model(), "zero_shot", budget_bytes=0)
        links = res.comm.per_link
        assert sorted(links) == [(j, i) for j in range(3) for i in range(3) if i != j]
        assert all((link.rejected, link.messages, link.bytes) == (1, 0, 0)
                   for link in links.values())
        assert sum(link.rejected for link in links.values()) == res.comm.messages_rejected

    def test_budget_zero_degrades_to_single_bitwise(self):
        spec = self._spec()
        model = self._model()
        episode = prepare_episode(spec, model)
        single = run_episode(spec, model, "single", episode=episode)
        params = FusionParams.init(seed=3)
        for mode, p in (("zero_shot", None), ("naive", Calibration.identity(13)),
                        ("learned", params)):
            res = run_episode(spec, model, mode, params=p, episode=episode,
                              budget_bytes=0)
            assert res.comm.bytes_sent == 0
            assert res.comm.messages_rejected == 2
            for a in range(2):
                assert np.array_equal(res.channels[a].channels,
                                      single.channels[a].channels), mode
                assert np.array_equal(res.labels[a].labels, single.labels[a].labels)

    def test_undecodable_message_rejected_on_its_link(self, monkeypatch):
        # agent 1's message to agent 0 fails to decode; the episode goes on
        # without it
        spec = self._spec()
        model = self._model()
        episode = prepare_episode(spec, model)
        monkeypatch.setattr(sim, "serialize_message", undecodable_from(1, 0))
        single = run_episode(spec, model, "single", episode=episode)
        for mode, p in (("zero_shot", None), ("learned", FusionParams.init(seed=3))):
            res = run_episode(spec, model, mode, params=p, episode=episode)
            links = res.comm.per_link
            assert res.comm.messages_rejected == 1
            assert (links[(1, 0)].rejected, links[(0, 1)].rejected) == (1, 0)
            assert res.comm.messages_sent == 2
            assert res.comm.bytes_sent == links[(1, 0)].bytes + links[(0, 1)].bytes
            assert links[(1, 0)].bytes > 0
            assert np.array_equal(res.channels[0].channels, single.channels[0].channels)

    def test_unencodable_message_rejected_on_its_link(self):
        # agent 1's scale of 1e-8 rounds to 0 in fp16: its message to agent 0
        # is not sent but counted as rejected on its link; fp32 carries it
        spec = self._spec()
        model = self._model()
        episode = prepare_with_scales(spec, model, 1e-8)
        single = run_episode(spec, model, "single", episode=episode)
        for mode, p in (("zero_shot", None), ("learned", FusionParams.init(seed=3))):
            res = run_episode(spec, model, mode, params=p, episode=episode)
            links = res.comm.per_link
            assert res.comm.messages_rejected == 1
            assert (links[(1, 0)].rejected, links[(1, 0)].messages, links[(1, 0)].bytes) \
                == (1, 0, 0)
            assert (links[(0, 1)].rejected, res.comm.messages_sent) == (0, 1)
            assert res.comm.bytes_sent == links[(0, 1)].bytes > 0
            assert np.array_equal(res.channels[0].channels, single.channels[0].channels)
        wide = run_episode(spec, model, "zero_shot", episode=episode, precision=PRECISION_FP32)
        assert (wide.comm.messages_rejected, wide.comm.messages_sent) == (0, 2)

    def test_quantized_ill_conditioned_message_rejected_on_its_link(self):
        # condition 0.99e12 in agent 1's frame, 1.01e12 once fp16 has rounded
        # the scales: the encoder refuses the message, so no bytes are sent
        # and the splat never sees it; fp32 carries it
        spec = self._spec()
        model = self._model()
        episode = prepare_with_scales(spec, model, (3.01e-7, 0.3, 0.3))
        episode.observations[1].validate()
        single = run_episode(spec, model, "single", episode=episode)
        for mode, p in (("zero_shot", None), ("learned", FusionParams.init(seed=3))):
            res = run_episode(spec, model, mode, params=p, episode=episode)
            links = res.comm.per_link
            assert (links[(1, 0)].rejected, links[(1, 0)].messages, links[(1, 0)].bytes) \
                == (1, 0, 0)
            assert (links[(0, 1)].rejected, res.comm.messages_sent) == (0, 1)
            assert np.array_equal(res.channels[0].channels, single.channels[0].channels)
        wide = run_episode(spec, model, "zero_shot", episode=episode, precision=PRECISION_FP32)
        assert (wide.comm.messages_rejected, wide.comm.messages_sent) == (0, 2)

    @pytest.mark.parametrize("mode", ["single", "zero_shot", "naive", "learned"])
    def test_channels_equal_splat_of_concatenation_with_prior(self, mode):
        # the prior is rendered once per episode and added to each agent's
        # splat; that must be bit for bit the splat with the prior appended
        spec = self._spec()
        model = self._model()
        episode = prepare_episode(spec, model)
        params = {"naive": Calibration(np.random.default_rng(3).normal(0.0, 0.3, 13)),
                  "learned": FusionParams.init(seed=3)}.get(mode)
        sink = []
        res = run_episode(spec, model, mode, params=params, episode=episode, message_sink=sink)
        fixed = empty_space_gaussian(model)
        for ego in range(spec.num_agents):
            final = episode.observations[ego]
            if mode != "single":
                received = [deserialize_message(d).gaussians for _, to, d in sink if to == ego]
                assert len(received) == spec.num_agents - 1
                final = stack(final, received)
            if mode == "learned":
                final = fuse_scene(final, received, FusionConfig(), params)
            want = splat(GaussianSet.concat([final, fixed]), spec.agent_geometry(),
                         SplatConfig()).channels
            if mode == "naive":
                want = params.apply(want)
            assert np.array_equal(res.channels[ego].channels, want), ego

    def test_learned_mode_runs_and_is_deterministic(self):
        spec = self._spec()
        model = self._model()
        episode = prepare_episode(spec, model)
        params = FusionParams.init(seed=1)
        a = run_episode(spec, model, "learned", params=params, episode=episode)
        b = run_episode(spec, model, "learned", params=params, episode=episode)
        for k in range(2):
            assert np.array_equal(a.channels[k].channels, b.channels[k].channels)

    def test_episode_deterministic_end_to_end(self):
        spec = self._spec()
        model = self._model()
        a = run_episode(spec, model, "zero_shot")
        b = run_episode(spec, model, "zero_shot")
        assert a.comm.bytes_sent == b.comm.bytes_sent
        for k in range(2):
            assert np.array_equal(a.labels[k].labels, b.labels[k].labels)


def _episode_fixture(num_agents, gaussians=300):
    """A prepared episode of `num_agents` agents (the first of a 2-agent
    scene when 1)."""
    spec = generate_scene(seed=derive_scene_seed(8, num_agents), num_agents=max(num_agents, 2),
                          world_half_xy=10.0, grid_dims=(40, 40, 8))
    spec.agents = spec.agents[:num_agents]
    model = ObservationModel(gaussians_per_agent=gaussians)
    return spec, model, prepare_episode(spec, model)


EPISODE_PARAMS = {"naive": Calibration(np.random.default_rng(3).normal(0.0, 0.3, 13)),
                  "learned": FusionParams.init(seed=3)}

needs_setter = pytest.mark.skipif(core._set_blas_threads is None,
                                  reason="numpy's BLAS has no per-thread thread-count setter")


def _forbidden(*args, **kwargs):
    raise AssertionError("a one-agent episode needs no worker or pinning")


def _learned_episode_digest() -> str:
    """Digest of a 3-agent learned episode: grids, comm counts and wire bytes."""
    spec, model, episode = _episode_fixture(3, gaussians=800)
    sink = []
    res = run_episode(spec, model, "learned", params=EPISODE_PARAMS["learned"],
                      episode=episode, message_sink=sink)
    h = hashlib.sha256()
    for grid in res.labels:
        h.update(grid.labels.tobytes())
    for grid in res.channels:
        h.update(grid.channels.tobytes())
    h.update(repr((res.comm, sink)).encode())
    return h.hexdigest()


class TestTwoEgosAtATime:
    @pytest.fixture(scope="class", params=[1, 3, 4], ids=["1agent", "3agents", "4agents"])
    def scene(self, request):
        return _episode_fixture(request.param)

    @pytest.mark.parametrize("mode", ["single", "zero_shot", "naive", "learned"])
    def test_equals_sequential_episode(self, scene, mode, monkeypatch):
        spec, model, episode = scene
        params = EPISODE_PARAMS.get(mode)
        want_sink, got_sink = [], []
        want = sequential_episode(spec, model, mode, params=params, episode=episode,
                                  message_sink=want_sink)
        if spec.num_agents == 1:            # one ego: no worker, BLAS untouched
            monkeypatch.setattr(core, "_set_blas_threads", _forbidden)
            monkeypatch.setattr(core, "ThreadPoolExecutor", _forbidden)
        got = run_episode(spec, model, mode, params=params, episode=episode,
                          message_sink=got_sink)
        assert len(got.labels) == len(got.channels) == spec.num_agents
        for a in range(spec.num_agents):
            assert np.array_equal(got.labels[a].labels, want.labels[a].labels), a
            assert np.array_equal(got.channels[a].channels, want.channels[a].channels), a
        assert got.comm == want.comm
        assert list(got.comm.per_link.items()) == list(want.comm.per_link.items())
        assert got_sink == want_sink

    @needs_setter
    def test_worker_renders_odd_egos_and_leaves_nothing_behind(self, monkeypatch):
        spec, model, episode = _episode_fixture(4)
        real_stack, real_setter = sim.stack, core._set_blas_threads
        previous = real_setter(1)
        real_setter(previous)
        stacked, pinned = [], []

        def stack(own, received):
            ego = next(a for a, obs in enumerate(episode.observations) if obs is own)
            stacked.append((threading.current_thread(), ego))
            return real_stack(own, received)

        def setter(n):
            pinned.append((threading.current_thread(), n))
            return real_setter(n)

        monkeypatch.setattr(sim, "stack", stack)
        monkeypatch.setattr(core, "_set_blas_threads", setter)
        before = threading.enumerate()
        run_episode(spec, model, "zero_shot", episode=episode)
        assert threading.enumerate() == before          # no thread outlives the episode
        assert real_setter(previous) == previous        # the caller's BLAS count is back
        main = threading.main_thread()
        worker = next(t for t, _ in stacked if t is not main)
        assert sorted(ego for t, ego in stacked if t is main) == [0, 2]
        assert sorted(ego for t, ego in stacked if t is worker) == [1, 3]
        assert pinned == [(main, 1), (worker, 1), (main, previous)]

    @needs_setter
    def test_failure_in_the_worker_reaches_the_caller(self, monkeypatch):
        # in a 3-agent episode the worker renders ego 1 only
        spec, model, episode = _episode_fixture(3)
        real = sim.fuse_scene

        def fail_off_main(*args, **kwargs):
            if threading.current_thread() is not threading.main_thread():
                raise RuntimeError(f"fusion failed in {threading.current_thread().name}")
            return real(*args, **kwargs)

        monkeypatch.setattr(sim, "fuse_scene", fail_off_main)
        before = threading.enumerate()
        with pytest.raises(RuntimeError, match="fusion failed in ThreadPoolExecutor-"):
            run_episode(spec, model, "learned", params=EPISODE_PARAMS["learned"],
                        episode=episode)
        assert threading.enumerate() == before

    @needs_setter
    def test_learned_episode_does_not_depend_on_blas_thread_count(self):
        # a fresh process per count, because OpenBLAS reads it once at load
        here = pathlib.Path(__file__).parent
        digests = []
        for threads in ("1", "2"):
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
                   "PYTHONPATH": os.pathsep.join([str(here.parent / "src"), str(here)])}
            proc = subprocess.run([sys.executable, "-c",
                                   "import test_sim; print(test_sim._learned_episode_digest())"],
                                  env=env, cwd=here, capture_output=True, text=True, timeout=300)
            assert proc.returncode == 0, proc.stderr[-2000:]
            digests.append(proc.stdout.split()[-1])
        assert digests[0] == digests[1]

    def test_prior_rendered_once_per_episode(self, monkeypatch):
        spec, model, episode = _episode_fixture(3)
        narrow, wider = SplatConfig(truncation_sigma=2.5), replace(model, empty_gaussian_scale=30.0)
        want = [sequential_episode(spec, m, "zero_shot", episode=episode, splat_cfg=cfg)
                for m, cfg in ((model, None), (model, narrow), (wider, None))]
        real, rendered = sim.splat_sparse, []

        def spy(gaussians, geometry, cfg):
            rendered.append((float(gaussians.scales[0, 0]), cfg))
            return real(gaussians, geometry, cfg)

        monkeypatch.setattr(sim, "splat_sparse", spy)
        got = [run_episode(spec, model, "single", episode=episode),
               run_episode(spec, model, "zero_shot", episode=episode)]
        assert rendered == [(20.0, SplatConfig())]
        got += [run_episode(spec, model, "zero_shot", episode=episode, splat_cfg=narrow),
                run_episode(spec, wider, "zero_shot", episode=episode)]
        assert rendered == [(20.0, SplatConfig()), (20.0, narrow), (30.0, SplatConfig())]
        for res, ref in zip(got[1:], want):
            for a in range(spec.num_agents):
                assert np.array_equal(res.channels[a].channels, ref.channels[a].channels)


class TestSceneSerialization:
    def test_roundtrip(self):
        spec = generate_scene(seed=9, num_agents=3, world_half_xy=10.0)
        data = scene_to_dict(spec)
        back = scene_from_dict(data)
        assert back.num_agents == 3
        assert np.allclose(back.world_lo, spec.world_lo)
        assert len(back.objects) == len(spec.objects)
        wa = rasterize_world(spec)
        wb = rasterize_world(back)
        assert np.array_equal(wa.labels, wb.labels)

    def test_missing_field(self):
        with pytest.raises(SceneSpecError, match="missing"):
            scene_from_dict({"seed": 1})

    def test_agent_count_bounds(self):
        with pytest.raises(SceneSpecError):
            generate_scene(seed=1, num_agents=1)
        with pytest.raises(SceneSpecError):
            generate_scene(seed=1, num_agents=8)


class TestEmptyGaussian:
    def test_fields(self):
        gs = empty_space_gaussian()
        assert len(gs) == 1
        assert gs.opacities[0] == 1.0
        assert gs.scales[0, 0] == 20.0
        assert np.argmax(gs.semantics[0]) == EMPTY_CLASS
        gs.validate()
