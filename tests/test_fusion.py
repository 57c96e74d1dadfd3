import json
import os
import pathlib
import subprocess
import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from gsfusion import fusion
from gsfusion.comms import GaussianMessage, deserialize_message, serialize_message
from gsfusion.core import GaussianSet, GridGeometry, SemanticGaussian
from gsfusion.fusion import (
    SCALE_CEIL,
    _build_pairs,
    FusionConfig,
    FusionParams,
    Proposal,
    confidence,
    ego_features,
    fuse_scene,
    fusion_backward,
    load_params,
    pair_feature_dim,
    pool,
    propose,
    rel_features,
    save_params,
    scene_neighbors,
)
from gsfusion.splat import splat

from helpers import (
    ORACLE_TOL,
    HashGrid,
    fusion_digest,
    fusion_oracle,
    golden_fusion_fixture,
    kept_hidden_fusion_backward,
    linear_scan_neighborhood,
    neighbor_csr_oracle,
    oracle_gaps,
    pairwise_feature_oracle,
    platform_description,
    random_gaussian,
    random_gaussian_set,
)

RNG = np.random.default_rng(90210)
C = 13


def golden_digests() -> dict:
    return json.loads((pathlib.Path(__file__).parent / "goldens" /
                       "manifest.json").read_text())["fusion_digests"]


def one_hot(k, n=C):
    v = np.zeros(n)
    v[k] = 1.0
    return v


class TestNeighborhood:
    def test_matches_linear_scan_10k(self):
        pts = RNG.uniform(-5, 5, size=(10000, 3))
        rho = 0.4
        grid = HashGrid(pts, rho)
        for _ in range(50):
            q = RNG.uniform(-5, 5, size=3)
            got = np.sort(grid.query(q, rho))
            want = linear_scan_neighborhood(q, pts, rho)
            assert np.array_equal(got, want)


def _cloud(rng, centers, n, spread):
    """n points around each of the given centers."""
    return np.concatenate([c + rng.uniform(-spread, spread, size=(n, 3)) for c in centers])


def _lattice(rho, k):
    """Every point of a k x k x k lattice of spacing rho centred on the
    origin: all on cell faces, neighbours exactly rho apart."""
    axis = (np.arange(k) - k // 2) * rho
    return np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), axis=-1).reshape(-1, 3)


def _neighbor_cases():
    rng = np.random.default_rng(4711)
    far = [np.array(c) for c in ((-1e7, 0.0, 5e6), (1e7, -1e7, 0.0), (0.0, 1e7, -1e7))]
    duplicated = rng.uniform(-1.0, 1.0, size=(40, 3))
    lattice = _lattice(0.4, 5)
    return {
        "negative_coords": (rng.uniform(-3.0, 0.5, (150, 3)),
                            rng.uniform(-3.0, 0.5, (400, 3)), 0.4),
        "means_1e7_apart": (_cloud(rng, far, 30, 0.5), _cloud(rng, far, 60, 0.5), 0.4),
        "lattice_rho_0.5": (_lattice(0.5, 5), _lattice(0.5, 5), 0.5),
        "lattice_rho_0.4": (lattice, lattice + np.array([0.4, 0.0, -0.4]), 0.4),
        # equidistant neighbours in different cells, listed out of cell order
        "lattice_shuffled": (_lattice(0.5, 5), rng.permutation(_lattice(0.5, 5)), 0.5),
        "duplicates": (duplicated[::2], np.concatenate([duplicated] * 3), 0.4),
        "some_egos_alone": (np.concatenate([rng.uniform(-1, 1, (30, 3)),
                                            rng.uniform(50, 60, (30, 3))]),
                            rng.uniform(-1, 1, (200, 3)), 0.4),
        "no_pairs": (rng.uniform(-1, 1, (20, 3)), rng.uniform(5, 6, (30, 3)), 0.4),
    }


_NEIGHBOR_CASES = _neighbor_cases()


class TestBuildPairs:
    @pytest.mark.parametrize("cap", [1, 3, 10**6])
    @pytest.mark.parametrize("case", sorted(_NEIGHBOR_CASES))
    def test_csr_matches_linear_scan(self, case, cap):
        egos, pool_means, rho = _NEIGHBOR_CASES[case]
        got = _build_pairs(egos, pool_means, rho, cap)
        want = neighbor_csr_oracle(egos, pool_means, rho, cap)
        for g, w in zip(got, want):
            assert g.dtype == np.int64
            assert np.array_equal(g, w)

    def test_cases_exercise_edges(self):
        # the cases above really hold ties, cell-face points, exact-rho
        # distances, lone egos, empty results and keys that would overflow
        # int64 if cell coordinates were flattened without ranking
        egos, pool_means, rho = _NEIGHBOR_CASES["duplicates"]
        seg, pair_j, starts, counts = _build_pairs(egos, pool_means, rho, None)
        d = np.linalg.norm(pool_means[pair_j] - egos[np.repeat(seg, counts)], axis=1)
        assert np.any((d[1:] == d[:-1]) & (np.diff(np.repeat(seg, counts)) == 0))
        egos, pool_means, rho = _NEIGHBOR_CASES["lattice_rho_0.5"]
        seg, pair_j, _, counts = _build_pairs(egos, pool_means, rho, None)
        d = np.linalg.norm(pool_means[pair_j] - egos[np.repeat(seg, counts)], axis=1)
        assert np.sum(d == rho) > 0 and np.all(np.mod(pool_means, rho) == 0.0)
        assert 0 < _build_pairs(*_NEIGHBOR_CASES["some_egos_alone"], None)[0].size < 60
        assert _build_pairs(*_NEIGHBOR_CASES["no_pairs"], None)[1].size == 0
        egos, pool_means, rho = _NEIGHBOR_CASES["means_1e7_apart"]
        span = (np.ptp(np.floor(pool_means / rho), axis=0) + 1).prod()
        assert span > np.iinfo(np.int64).max
        assert _build_pairs(egos, pool_means, rho, None)[0].size == egos.shape[0]

    def test_cap_larger_than_every_segment_is_no_cap(self):
        egos, pool_means, rho = _NEIGHBOR_CASES["negative_coords"]
        uncapped = _build_pairs(egos, pool_means, rho, None)
        assert uncapped[3].max() < 10**6
        for a, b in zip(uncapped, _build_pairs(egos, pool_means, rho, 10**6)):
            assert np.array_equal(a, b)

    def test_empty_inputs(self):
        pts = np.zeros((4, 3))
        for egos, pool_means in ((np.empty((0, 3)), pts), (pts, np.empty((0, 3)))):
            for part in _build_pairs(egos, pool_means, 0.4, 8):
                assert part.dtype == np.int64 and part.size == 0

    def test_random_clouds_match_linear_scan(self):
        rng = np.random.default_rng(5150)
        for trial in range(40):
            span = (0.3, 2.0, 1e4)[trial % 3]
            egos = rng.uniform(-span, span, (int(rng.integers(0, 80)), 3))
            pool_means = rng.uniform(-span, span, (int(rng.integers(1, 300)), 3))
            cap = int(rng.integers(1, 70))
            got = _build_pairs(egos, pool_means, 0.4, cap)
            want = neighbor_csr_oracle(egos, pool_means, 0.4, cap)
            for g, w in zip(got, want):
                assert np.array_equal(g, w)

    def test_hash_grid_rejects_radius_above_cell(self):
        with pytest.raises(ValueError, match="exceeds hash cell"):
            HashGrid(np.zeros((3, 3)), 0.4).query(np.zeros(3), 0.5)


def _pair_feature(ego: SemanticGaussian, nbr: SemanticGaussian) -> np.ndarray:
    """The row `fuse_scene` feeds the proposal network for one pair: the
    ego's `ego_features` row followed by the pair's `rel_features` row."""
    e = GaussianSet.from_gaussians([ego])
    n = GaussianSet.from_gaussians([nbr])
    return np.concatenate([ego_features(e)[0], rel_features(e, [0], n, [0])[0]])


class TestPairwiseFeatures:
    def test_self_pair(self):
        g = random_gaussian(RNG)
        z = _pair_feature(g, g)
        assert z.shape == (pair_feature_dim(C),)
        assert np.allclose(z[24:30], 0.0)          # relative mean/scale blocks
        assert np.isclose(z[30], 1.0)              # quaternion cosine
        assert np.isclose(z[31], g.opacity)

    def test_sign_invariance(self):
        a = random_gaussian(RNG)
        b = random_gaussian(RNG)
        flipped = SemanticGaussian(b.mean, b.scale, -b.rotation, b.opacity, b.semantics)
        assert np.allclose(_pair_feature(a, b), _pair_feature(a, flipped))
        # flipping the ego quaternion is absorbed by canonicalization, so
        # the full feature vector is sign invariant
        a_flipped = SemanticGaussian(a.mean, a.scale, -a.rotation, a.opacity, a.semantics)
        assert np.allclose(_pair_feature(a, b), _pair_feature(a_flipped, b))
        cos = _pair_feature(a, b)[30]
        assert 0.0 <= cos <= 1.0

    def test_matches_independent_assembly(self):
        for _ in range(20):
            a = random_gaussian(RNG)
            b = random_gaussian(RNG)
            assert np.allclose(_pair_feature(a, b), pairwise_feature_oracle(a, b),
                               atol=1e-12)


class TestPropose:
    def test_zero_params(self):
        params = FusionParams.zeros(C)
        z = RNG.normal(size=pair_feature_dim(C))
        p = propose(z, params)
        assert np.allclose(p.delta_mean, 0.0)
        assert np.allclose(p.scale_star, np.log(2.0) + 1e-4)
        assert abs(float(np.log(2.0)) - 0.6931) < 1e-4
        assert np.allclose(p.rot_star, [1.0, 0, 0, 0])
        assert p.opacity_star == 0.5
        assert np.allclose(p.sem_star, np.log(2.0))

    def test_constant_under_input_when_weights_zero(self):
        params = FusionParams.zeros(C)
        p1 = propose(RNG.normal(size=45), params)
        p2 = propose(RNG.normal(size=45), params)
        assert np.allclose(p1.scale_star, p2.scale_star)
        assert p1.opacity_star == p2.opacity_star

    def test_invariants_for_random_params(self):
        params = FusionParams.init(seed=3)
        for _ in range(20):
            p = propose(RNG.normal(scale=3.0, size=45), params)
            assert np.all(p.scale_star > 0.0)
            assert abs(np.linalg.norm(p.rot_star) - 1.0) < 1e-12
            assert 0.0 < p.opacity_star < 1.0
            assert np.all(p.sem_star >= 0.0)

    def test_non_finite_params_rejected(self):
        params = FusionParams.zeros(C)
        params.w1[0, 0] = np.nan
        with pytest.raises(ValueError):
            propose(np.zeros(45), params)

    def test_matches_fuse_scene_rows_bit_for_bit(self):
        # propose's one pair is padded to a whole row tile like every block,
        # so it carries the bits fuse_scene computes for that pair
        ego, rec, cfg, params = golden_fusion_fixture()
        _, tape = fuse_scene(ego, rec, cfg, params, record=True)
        (block,) = tape.blocks
        for i in range(block.z.shape[0]):
            p = propose(block.z[i], params)
            assert np.array_equal(p.delta_mean, block.raw[i, 0:3]), i
            assert np.array_equal(p.scale_star, block.s[i]), i
            assert np.array_equal(p.rot_star, block.r[i]), i
            assert p.opacity_star == block.a[i], i
            assert np.array_equal(p.sem_star, block.c[i]), i

    def test_forward_matches_manual(self):
        params = FusionParams.init(seed=9)
        z = RNG.normal(size=45)
        h1 = np.maximum(params.w1 @ z + params.b1, 0.0)
        h2 = np.maximum(params.w2 @ h1 + params.b2, 0.0)
        raw = params.w3 @ h2 + params.b3
        p = propose(z, params)
        assert np.allclose(p.delta_mean, raw[0:3], atol=1e-12)
        assert np.allclose(p.opacity_star, 1.0 / (1.0 + np.exp(-raw[10])), atol=1e-12)


class TestPool:
    def _proposals(self, n):
        params = FusionParams.init(seed=1)
        return [propose(RNG.normal(size=45), params) for _ in range(n)]

    def test_singleton_identity_both_modes(self):
        params = FusionParams.init(seed=2)
        props = self._proposals(1)
        ego_feat = RNG.normal(size=24)
        rel = [RNG.normal(size=21)]
        for mode in ("mean", "attention"):
            out = pool(props, mode, ego_feat, rel, params)
            assert np.allclose(out.delta_mean, props[0].delta_mean)
            assert np.allclose(out.rot_star, props[0].rot_star)
            assert np.isclose(out.opacity_star, props[0].opacity_star)

    def test_zero_projections_equal_mean(self):
        params = FusionParams.init(seed=2)
        params.q_proj[:] = 0.0
        params.k_proj[:] = 0.0
        props = self._proposals(5)
        ego_feat = RNG.normal(size=24)
        rel = [RNG.normal(size=21) for _ in range(5)]
        att = pool(props, "attention", ego_feat, rel, params)
        mean = pool(props, "mean", ego_feat, rel, params)
        assert np.allclose(att.delta_mean, mean.delta_mean, atol=1e-15)
        assert np.allclose(att.sem_star, mean.sem_star, atol=1e-15)

    def test_mean_mode_matches_summation_oracle(self):
        props = self._proposals(5)
        params = FusionParams.init(seed=2)
        out = pool(props, "mean", np.zeros(24), [np.zeros(21)] * 5, params)
        want_dm = sum(p.delta_mean for p in props) / 5.0
        want_a = sum(p.opacity_star for p in props) / 5.0
        assert np.allclose(out.delta_mean, want_dm, atol=1e-9)
        assert np.isclose(out.opacity_star, want_a, atol=1e-9)

    def test_empty_rejected(self):
        params = FusionParams.init(seed=2)
        with pytest.raises(ValueError):
            pool([], "mean", np.zeros(24), [], params)

    def test_attention_weights_properties(self):
        # weights positive, sum to one, invariant to a constant logit shift
        params = FusionParams.init(seed=4)
        gs = random_gaussian_set(RNG, 6, center_span=0.1)
        ego = random_gaussian(RNG)
        e = ego_features(GaussianSet.from_gaussians([ego]))[0]
        f = rel_features(GaussianSet.from_gaussians([ego] * 6), np.arange(6),
                         gs, np.arange(6))
        logits = (f @ params.k_proj.T) @ (params.q_proj @ e) / np.sqrt(32.0)
        w = np.exp(logits - logits.max())
        w = w / w.sum()
        assert np.all(w > 0.0)
        assert abs(w.sum() - 1.0) < 1e-9
        w2 = np.exp(logits + 5.0 - (logits + 5.0).max())
        w2 = w2 / w2.sum()
        assert np.allclose(w, w2, atol=1e-12)

    def test_quaternion_sign_alignment(self):
        params = FusionParams.init(seed=2)
        p1 = self._proposals(1)[0]
        p2 = Proposal(p1.delta_mean, p1.scale_star, -p1.rot_star,
                      p1.opacity_star, p1.sem_star)
        out = pool([p1, p2], "mean", np.zeros(24), [np.zeros(21)] * 2, params)
        assert np.allclose(np.abs(out.rot_star), np.abs(p1.rot_star), atol=1e-12)

    def test_mean_pool_linearity(self):
        params = FusionParams.init(seed=2)
        p1 = self._proposals(3)
        p2 = self._proposals(2)
        ego = np.zeros(24)
        pooled_all = pool(p1 + p2, "mean", ego, [np.zeros(21)] * 5, params)
        a = pool(p1, "mean", ego, [np.zeros(21)] * 3, params)
        b = pool(p2, "mean", ego, [np.zeros(21)] * 2, params)
        for field in ("delta_mean", "scale_star", "sem_star"):
            combo = (3 * getattr(a, field) + 2 * getattr(b, field)) / 5
            assert np.allclose(getattr(pooled_all, field), combo, atol=1e-12)
        combo_a = (3 * a.opacity_star + 2 * b.opacity_star) / 5
        assert np.isclose(pooled_all.opacity_star, combo_a, atol=1e-12)


class TestUpdateEgo:
    """The confidence weight alpha of the semantic blend in `fuse_scene`."""

    def test_onehot_vs_uniform_alpha(self):
        conf_hot = confidence(one_hot(3))
        conf_uni = confidence(np.full(C, 1.0 / C))
        alpha = conf_hot / (conf_hot + conf_uni)
        assert abs(alpha - 13.0 / 14.0) < 1e-12

    def test_alpha_strictly_inside_unit_interval(self):
        for _ in range(50):
            a = RNG.uniform(0.01, 2.0, C)
            b = RNG.uniform(0.01, 2.0, C)
            alpha = confidence(a) / (confidence(a) + confidence(b))
            assert 0.0 < alpha < 1.0


class TestFuseScene:
    def test_no_received_identity(self):
        ego = random_gaussian_set(RNG, 10)
        params = FusionParams.init(seed=0)
        out = fuse_scene(ego, [], FusionConfig(), params)
        assert np.array_equal(out.means, ego.means)
        assert np.array_equal(out.rotations, ego.rotations)
        assert np.array_equal(out.semantics, ego.semantics)

    def test_out_of_range_received_identity(self):
        ego = random_gaussian_set(RNG, 10)
        far = random_gaussian_set(RNG, 10)
        far.means[:] += 500.0
        params = FusionParams.init(seed=0)
        out = fuse_scene(ego, [far], FusionConfig(), params)
        assert np.array_equal(out.means, ego.means)

    def test_cardinality_preserved(self):
        ego = random_gaussian_set(RNG, 30, center_span=1.0)
        rec = random_gaussian_set(RNG, 40, center_span=1.0)
        params = FusionParams.init(seed=0)
        out = fuse_scene(ego, [rec], FusionConfig(radius_rho=1.0), params)
        assert len(out) == 30
        out.validate()

    def test_received_copy_preserves_argmax(self):
        # well separated one-hot ego Gaussians, received = exact copy, and
        # params that pass the neighbor's class weights through softplus:
        # the blend keeps every argmax.
        n = 8
        means = np.stack([np.array([3.0 * i, 0.0, 0.0]) for i in range(n)])
        sems = np.stack([one_hot(int(RNG.integers(0, C))) for _ in range(n)])
        ego = GaussianSet(
            means, np.full((n, 3), 0.3), np.tile([1.0, 0, 0, 0], (n, 1)),
            np.full(n, 0.9), sems)
        params = FusionParams.zeros(C)
        # route z's trailing neighbor-class block through both hidden layers
        params.w1[0:C, 32:45] = np.eye(C)
        params.w2[0:C, 0:C] = np.eye(C)
        params.w3[11:24, 0:C] = 4.0 * np.eye(C)
        out = fuse_scene(ego, [ego.copy()], FusionConfig(radius_rho=0.4), params)
        assert np.array_equal(np.argmax(out.semantics, axis=1), np.argmax(sems, axis=1))

    def test_deterministic_golden_shape(self):
        ego = random_gaussian_set(RNG, 50, center_span=2.0)
        rec = [random_gaussian_set(RNG, 50, center_span=2.0) for _ in range(2)]
        params = FusionParams.init(seed=11)
        cfg = FusionConfig(radius_rho=1.5)
        a = fuse_scene(ego, rec, cfg, params)
        b = fuse_scene(ego, rec, cfg, params)
        assert np.array_equal(a.means, b.means)
        assert np.array_equal(a.semantics, b.semantics)

    def test_golden_fixture_matches_oracle(self):
        # the cross-platform check: BLAS-independent fp64 reference, in both
        # pooling modes and with a neighbour cap that binds on this fixture
        # (see test_precomputed_neighbors_bit_identical)
        ego, rec, cfg, params = golden_fusion_fixture()
        for run in (cfg, replace(cfg, pooling="mean"), replace(cfg, max_neighbors=5)):
            gaps = oracle_gaps(fuse_scene(ego, rec, run, params),
                               fusion_oracle(ego, rec, run, params))
            assert max(gaps.values()) <= ORACLE_TOL, f"{run}: max gap per field {gaps}"

    def test_golden_fixture_hash(self):
        # bit-exact anchor: gemm rounding varies with BLAS build, kernel and
        # thread count, so the manifest accepts one digest per platform seen
        ego, rec, cfg, params = golden_fusion_fixture()
        digest = fusion_digest(fuse_scene(ego, rec, cfg, params))
        assert digest in golden_digests(), (
            f"fused golden digest {digest} is not recorded for platform "
            f"{platform_description()}; if test_golden_fixture_matches_oracle "
            f"passes here, record it with tests/regen_goldens.py")

    @pytest.mark.parametrize("pooling", ["attention", "mean"])
    def test_precomputed_neighbors_bit_identical(self, pooling):
        ego, rec, cfg, params = golden_fusion_fixture()
        cfg = FusionConfig(radius_rho=cfg.radius_rho, pooling=pooling, max_neighbors=5)
        neighbors = scene_neighbors(ego, rec, cfg)
        assert np.sum(neighbors[3] == 5) > 0       # the cap is in force
        assert fusion_digest(fuse_scene(ego, rec, cfg, params, neighbors=neighbors)) \
            == fusion_digest(fuse_scene(ego, rec, cfg, params))
        fused_a, tape_a = fuse_scene(ego, rec, cfg, params, record=True, neighbors=neighbors)
        fused_b, tape_b = fuse_scene(ego, rec, cfg, params, record=True)
        assert fusion_digest(fused_a) == fusion_digest(fused_b)
        for name in ("seg_egos", "counts"):
            assert np.array_equal(getattr(tape_a, name), getattr(tape_b, name))
        assert len(tape_a.blocks) == len(tape_b.blocks)
        for block_a, block_b in zip(tape_a.blocks, tape_b.blocks):
            for name in ("seg_egos", "counts", "z", "raw", "w"):
                assert np.array_equal(getattr(block_a, name), getattr(block_b, name))
        # the given lists are the ones used: none given, nothing is fused
        untouched = fuse_scene(ego, rec, cfg, params, neighbors=(np.empty(0, np.int64),) * 4)
        assert fusion_digest(untouched) == fusion_digest(ego)


class TestFusionBackward:
    def _fixture(self, pooling):
        ego = random_gaussian_set(RNG, 6, center_span=0.5)
        rec = random_gaussian_set(RNG, 8, center_span=0.5)
        cfg = FusionConfig(radius_rho=1.2, pooling=pooling)
        params = FusionParams.init(seed=21)
        return ego, rec, cfg, params

    def _objective(self, ego, rec, cfg, params, coeffs):
        fused = fuse_scene(ego, [rec], cfg, params)
        total = 0.0
        for key, arr in coeffs.items():
            total += float(np.sum(arr * getattr(fused, key)))
        return total

    @pytest.mark.parametrize("pooling", ["mean", "attention"])
    def test_matches_finite_differences(self, pooling):
        ego, rec, cfg, params = self._fixture(pooling)
        coeffs = {
            "means": RNG.normal(size=(6, 3)),
            "scales": RNG.normal(size=(6, 3)),
            "rotations": RNG.normal(size=(6, 4)),
            "opacities": RNG.normal(size=6),
            "semantics": RNG.normal(size=(6, C)),
        }
        fused, tape = fuse_scene(ego, [rec], cfg, params, record=True)
        assert tape is not None
        grads = fusion_backward(tape, coeffs)
        eps = 1e-6
        for name, g in grads.items():
            arr = getattr(params, name)
            flat = arr.ravel()
            idx = RNG.choice(flat.size, size=min(60, flat.size), replace=False)
            for k in idx:
                old = flat[k]
                flat[k] = old + eps
                fp = self._objective(ego, rec, cfg, params, coeffs)
                flat[k] = old - eps
                fm = self._objective(ego, rec, cfg, params, coeffs)
                flat[k] = old
                num = (fp - fm) / (2 * eps)
                got = g.ravel()[k]
                assert abs(got - num) <= 1e-4 * max(abs(got), abs(num), 1e-4), (name, k)

    def test_zero_upstream_zero_grads(self):
        ego, rec, cfg, params = self._fixture("attention")
        _, tape = fuse_scene(ego, [rec], cfg, params, record=True)
        zeros = {
            "means": np.zeros((6, 3)), "scales": np.zeros((6, 3)),
            "rotations": np.zeros((6, 4)), "opacities": np.zeros(6),
            "semantics": np.zeros((6, C)),
        }
        grads = fusion_backward(tape, zeros)
        for v in grads.values():
            assert np.all(v == 0.0)

    def test_capped_scale_splats_and_passes_no_gradient(self):
        # a huge class weight drives one scale output far past the others; the
        # uncapped proposal's condition number (6.6e12) was more than the
        # splat takes
        sem = np.zeros((1, C))
        sem[0, 11] = 31622.77660168
        ego = GaussianSet([[-1.0, -1.0, -1.0]], [[0.01] * 3], [[0.0, 0.0, 0.0, 1.0]], [0.0], sem)
        rec = deserialize_message(serialize_message(GaussianMessage(1, 0, 0, ego))).gaussians
        fused, tape = fuse_scene(ego, [rec], FusionConfig(), FusionParams.init(seed=0),
                                 record=True)
        capped = fused.scales[0] == SCALE_CEIL
        assert capped.tolist() == [True, False, False]
        splat(fused, GridGeometry(np.array([-4.0, -4.0, -1.6]), 0.4, (20, 20, 8)))
        upstream = {"means": np.zeros((1, 3)), "scales": np.ones((1, 3)),
                    "rotations": np.zeros((1, 4)), "opacities": np.zeros(1),
                    "semantics": np.zeros((1, C))}
        # the capped output's raw value saturates softplus, so without the cap
        # its gradient would be the upstream 1
        grads = fusion_backward(tape, upstream)
        assert grads["b3"][3] == 0.0 and np.all(grads["w3"][3] == 0.0)

    def test_mean_pooling_dead_projections(self):
        ego, rec, cfg, params = self._fixture("mean")
        _, tape = fuse_scene(ego, [rec], cfg, params, record=True)
        coeffs = {
            "means": RNG.normal(size=(6, 3)), "scales": RNG.normal(size=(6, 3)),
            "rotations": RNG.normal(size=(6, 4)), "opacities": RNG.normal(size=6),
            "semantics": RNG.normal(size=(6, C)),
        }
        grads = fusion_backward(tape, coeffs)
        assert np.all(grads["q_proj"] == 0.0)
        assert np.all(grads["k_proj"] == 0.0)
        assert np.any(grads["w1"] != 0.0)


def _block_runs():
    """The golden fixture in both pooling modes and with a binding cap, and
    a scene of fewer pairs than one row tile (`fusion._ROW_TILE`)."""
    ego, rec, cfg, params = golden_fusion_fixture()
    rng = np.random.default_rng(606)
    tiny = (random_gaussian_set(rng, 6, center_span=0.5),
            [random_gaussian_set(rng, 8, center_span=0.5)], FusionConfig(radius_rho=1.2),
            FusionParams.init(seed=21))
    return {"golden": (ego, rec, cfg, params),
            "mean": (ego, rec, replace(cfg, pooling="mean"), params),
            "cap5": (ego, rec, replace(cfg, max_neighbors=5), params),
            "tiny": tiny}


def _bound(name, counts):
    """A patched block bound: a number, "below_longest" (one less than the
    longest segment, so that segment is a block of its own) or "above_all"
    (more than every pair, so the scene is one block)."""
    if name == "below_longest":
        return int(counts.max()) - 1
    if name == "above_all":
        return int(counts.sum()) + 1
    return name


def _block_digest_mismatches():
    """(run, bound) of every `_block_runs` case whose fused digest at block
    bound 1, 7 or "below_longest" differs from its one-block digest."""
    bad = []
    for run, (ego, rec, cfg, params) in _block_runs().items():
        want_fused, want_tape = fuse_scene(ego, rec, cfg, params, record=True)
        want = fusion_digest(want_fused)
        one_block = fusion._FUSE_BLOCK
        for bound in (1, 7, "below_longest"):
            fusion._FUSE_BLOCK = _bound(bound, want_tape.counts)
            try:
                if fusion_digest(fuse_scene(ego, rec, cfg, params)) != want:
                    bad.append((run, bound))
            finally:
                fusion._FUSE_BLOCK = one_block
    return bad


# OpenBLAS kernels (OPENBLAS_CORETYPE) and the CPU features each needs
_BLAS_KERNELS = {"default": (), "Haswell": ("AVX2", "FMA3"), "Zen": ("AVX2", "FMA3"),
                 "Nehalem": ("SSE42",), "Sandybridge": ("AVX",), "Prescott": ("SSE3",)}


def _cpu_has(features) -> bool:
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:                 # numpy < 2
        from numpy.core._multiarray_umath import __cpu_features__
    return all(__cpu_features__.get(f, False) for f in features)


class TestFusionBlocks:
    """fuse_scene and fusion_backward over bounded blocks of whole segments."""

    @pytest.mark.parametrize("bound", [1, 7, "below_longest"])
    @pytest.mark.parametrize("run", ["golden", "mean", "cap5", "tiny"])
    def test_blocks_change_no_forward_bit(self, run, bound, monkeypatch):
        ego, rec, cfg, params = _block_runs()[run]
        want_fused, want_tape = fuse_scene(ego, rec, cfg, params, record=True)
        assert len(want_tape.blocks) == 1
        want = fusion_digest(want_fused)
        monkeypatch.setattr(fusion, "_FUSE_BLOCK", _bound(bound, want_tape.counts))
        fused, tape = fuse_scene(ego, rec, cfg, params, record=True)
        assert len(tape.blocks) > 1
        if bound == "below_longest":
            assert max(b.counts.sum() for b in tape.blocks) > fusion._FUSE_BLOCK
        assert fusion_digest(fused) == want
        assert fusion_digest(fuse_scene(ego, rec, cfg, params)) == want
        if run == "golden":
            assert want in golden_digests()
        assert np.array_equal(tape.seg_egos, want_tape.seg_egos)
        assert np.array_equal(tape.counts, want_tape.counts)
        assert np.array_equal(np.concatenate([b.seg_egos for b in tape.blocks]), tape.seg_egos)

    @pytest.mark.parametrize("parts", [1, 2, 3, 5, 8])
    @pytest.mark.parametrize("run", ["golden", "cap5"])
    def test_block_count_even_above_the_bound(self, run, parts, monkeypatch):
        # near-equal runs: an even count when the pairs pass the bound, so
        # the two threads of a team both have a block to the last pair
        ego, rec, cfg, params = _block_runs()[run]
        counts = scene_neighbors(ego, rec, cfg)[3]
        want = fusion_digest(fuse_scene(ego, rec, cfg, params))     # one block
        monkeypatch.setattr(fusion, "_FUSE_BLOCK", -(-int(counts.sum()) // parts))
        fused, tape = fuse_scene(ego, rec, cfg, params, record=True)
        sizes = [int(b.counts.sum()) for b in tape.blocks]
        assert len(sizes) == 1 if parts == 1 else len(sizes) % 2 == 0 and len(sizes) >= parts
        assert all(abs(n - counts.sum() / len(sizes)) <= counts.max() for n in sizes)
        assert max(sizes) <= fusion._FUSE_BLOCK
        assert fusion_digest(fused) == want

    @pytest.mark.parametrize("bound", [1, 7, "below_longest", "above_all"])
    @pytest.mark.parametrize("run", ["golden", "mean", "cap5", "tiny"])
    def test_blocked_backward_matches_one_block(self, run, bound, monkeypatch):
        ego, rec, cfg, params = _block_runs()[run]
        rng = np.random.default_rng(31337)
        upstream = {name: rng.normal(size=getattr(ego, name).shape)
                    for name in ("means", "scales", "rotations", "opacities", "semantics")}
        _, one_tape = fuse_scene(ego, rec, cfg, params, record=True)
        assert len(one_tape.blocks) == 1
        want = fusion_backward(one_tape, upstream)
        monkeypatch.setattr(fusion, "_FUSE_BLOCK", _bound(bound, one_tape.counts))
        _, tape = fuse_scene(ego, rec, cfg, params, record=True)
        assert (len(tape.blocks) == 1) == (bound == "above_all")
        got = fusion_backward(tape, upstream)
        for name, g in want.items():
            scale = np.max(np.abs(g))
            if cfg.pooling == "mean" and name in ("q_proj", "k_proj"):
                assert scale == 0.0 and np.all(got[name] == 0.0)
                continue
            assert np.max(np.abs(got[name] - g)) <= 1e-12 * scale, name

    @pytest.mark.parametrize("bound", [7, "above_all"])
    @pytest.mark.parametrize("run", ["golden", "mean", "cap5", "tiny"])
    def test_recomputed_hidden_layers_equal_kept_ones(self, run, bound, monkeypatch):
        # the tape keeps no hidden layer; the backward's recompute must give
        # the gradients of a backward over the layers the forward computed
        ego, rec, cfg, params = _block_runs()[run]
        rng = np.random.default_rng(2718)
        upstream = {name: rng.normal(size=getattr(ego, name).shape)
                    for name in ("means", "scales", "rotations", "opacities", "semantics")}
        counts = scene_neighbors(ego, rec, cfg)[3]
        monkeypatch.setattr(fusion, "_FUSE_BLOCK", _bound(bound, counts))
        fused, tape, want = kept_hidden_fusion_backward(ego, rec, cfg, params, upstream)
        assert (len(tape.blocks) == 1) == (bound == "above_all")
        assert fusion_digest(fused) == fusion_digest(fuse_scene(ego, rec, cfg, params))
        got = fusion_backward(tape, upstream)
        for name, g in want.items():
            assert np.array_equal(got[name], g), name

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("kernel", sorted(_BLAS_KERNELS))
    def test_blocks_change_no_forward_bit_on_every_kernel(self, kernel, threads):
        # a fresh process per case, because OpenBLAS reads its kernel and
        # thread count once at load; manifest membership is left to
        # test_golden_fixture_hash, as other kernels give other digests
        if not _cpu_has(_BLAS_KERNELS[kernel]):
            pytest.skip(f"this CPU lacks {_BLAS_KERNELS[kernel]} for the {kernel} kernel")
        here = pathlib.Path(__file__).parent
        env = {**os.environ, "OPENBLAS_NUM_THREADS": str(threads),
               "PYTHONPATH": os.pathsep.join([str(here.parent / "src"), str(here)])}
        env.pop("OPENBLAS_CORETYPE", None)
        if kernel != "default":
            env["OPENBLAS_CORETYPE"] = kernel
        code = "import test_fusion; bad = test_fusion._block_digest_mismatches(); " \
               "assert not bad, bad"
        proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=here,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr[-2000:]

    def test_memory_bounded_by_block(self, monkeypatch):
        # 256 egos with 16 neighbours each span 16 blocks of 256 pairs, 16
        # egos fill one; the fused rows and features of the egos themselves
        # are small next to one block's per-pair arrays
        monkeypatch.setattr(fusion, "_FUSE_BLOCK", 256)
        rng = np.random.default_rng(8128)
        rec = random_gaussian_set(rng, 64, center_span=0.5)
        cfg = FusionConfig(radius_rho=2.0, max_neighbors=16)
        params = FusionParams.init(seed=5)

        def peak_and_blocks(n_ego):
            ego = random_gaussian_set(rng, n_ego, center_span=0.5)
            neighbors = scene_neighbors(ego, [rec], cfg)
            assert np.all(neighbors[3] == 16)
            tracemalloc.start()
            fuse_scene(ego, [rec], cfg, params, neighbors=neighbors)
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            _, tape = fuse_scene(ego, [rec], cfg, params, record=True, neighbors=neighbors)
            return peak, len(tape.blocks)

        one_peak, one_blocks = peak_and_blocks(16)
        many_peak, many_blocks = peak_and_blocks(256)
        assert (one_blocks, many_blocks) == (1, 16)
        assert many_peak <= 1.5 * one_peak, (many_peak, one_peak)


class TestParamsIO:
    def test_roundtrip(self, tmp_path):
        params = FusionParams.init(seed=7)
        p = tmp_path / "net.fprm"
        save_params(params, p)
        back = load_params(p)
        for name in FusionParams._ORDER:
            a = getattr(params, name).astype(np.float32)
            b = getattr(back, name).astype(np.float32)
            assert np.array_equal(a.reshape(b.shape), b), name

    def test_save_is_bit_stable(self, tmp_path):
        params = FusionParams.init(seed=7)
        p1 = tmp_path / "a.fprm"
        p2 = tmp_path / "b.fprm"
        save_params(params, p1)
        save_params(load_params(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "bad.fprm"
        p.write_bytes(b"XXXX" + b"\x00" * 16)
        with pytest.raises(ValueError):
            load_params(p)

    def test_wrong_tensor_count(self, tmp_path):
        import struct as _s

        p = tmp_path / "short.fprm"
        data = _s.pack("<4sII", b"FPRM", 1, 1) + _s.pack("<II", 2, 1) + b"\x00" * 8
        p.write_bytes(data)
        with pytest.raises(ValueError, match="8 tensors"):
            load_params(p)
