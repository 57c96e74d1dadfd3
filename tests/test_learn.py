import contextlib
import dataclasses
import hashlib
import itertools
import os
import pathlib
import subprocess
import sys
import threading
import warnings
from dataclasses import replace

import numpy as np
import pytest

from gsfusion import core, fusion, learn
from gsfusion import splat as splat_module
from gsfusion.core import EMPTY_CLASS, GaussianSet, GridGeometry
from gsfusion.fusion import FusionConfig, FusionParams
from gsfusion.learn import (
    AdamW,
    Calibration,
    DivergenceError,
    TrainConfig,
    TrainExample,
    _stable_descending_order,
    cross_entropy,
    load_calibration,
    lovasz_softmax,
    lr_at,
    save_calibration,
    scene_loss_and_grads,
    softmax_probs,
    total_loss,
    train,
    train_calibration,
)
from gsfusion.fusion import fuse_scene
from gsfusion.sim import ObservationModel, derive_scene_seed, generate_scene, make_training_example
from gsfusion.splat import SplatConfig, splat, splat_sparse

from helpers import (
    concat_scene_loss_and_grads,
    jaccard_by_counting,
    lovasz_softmax_oracle,
    random_gaussian_set,
    sequential_train,
    softmax_vjp,
    two_pass_total_loss,
)

RNG = np.random.default_rng(60601)
C = 13


class TestSoftmax:
    def test_uniform(self):
        ch = np.full((2, 2, 1, C), 3.7)
        p = softmax_probs(ch)
        assert np.allclose(p, 1.0 / C)

    def test_rows_sum_to_one(self):
        ch = RNG.normal(size=(4, 3, 2, C)) * 5
        p = softmax_probs(ch)
        assert np.allclose(p.sum(axis=-1), 1.0, atol=1e-9)

    def test_saturation(self):
        ch = np.zeros((1, 1, 1, C))
        ch[..., 4] = 60.0
        p = softmax_probs(ch)
        assert p[0, 0, 0, 4] >= 1.0 - 1e-12

    def test_matches_exp_normalize_oracle(self):
        ch = RNG.normal(size=(5, 4, 3, C))
        p = softmax_probs(ch)
        want = np.exp(ch) / np.sum(np.exp(ch), axis=-1, keepdims=True)
        assert np.max(np.abs(p - want)) < 1e-12


class TestCrossEntropy:
    def test_perfect_prediction(self):
        labels = RNG.integers(0, C, size=(3, 3, 2))
        ch = np.zeros((3, 3, 2, C))
        np.put_along_axis(ch, labels[..., None], 50.0, axis=-1)
        loss, _ = cross_entropy(softmax_probs(ch), labels)
        assert loss <= 1e-6

    def test_uniform_prediction(self):
        labels = RNG.integers(0, C, size=(4, 4, 2))
        probs = np.full((4, 4, 2, C), 1.0 / C)
        loss, _ = cross_entropy(probs, labels)
        assert abs(loss - np.log(13.0)) < 1e-12

    def test_label_out_of_range(self):
        probs = np.full((2, 2, 1, C), 1.0 / C)
        labels = np.full((2, 2, 1), C)
        with pytest.raises(ValueError, match="label"):
            cross_entropy(probs, labels)

    def test_gradient_matches_fd(self):
        labels = RNG.integers(0, C, size=(2, 2, 2))
        ch = RNG.normal(size=(2, 2, 2, C))
        _, grad = cross_entropy(softmax_probs(ch), labels)
        eps = 1e-6
        flat = ch.ravel()
        for k in RNG.choice(flat.size, size=30, replace=False):
            old = flat[k]
            flat[k] = old + eps
            fp = cross_entropy(softmax_probs(ch), labels)[0]
            flat[k] = old - eps
            fm = cross_entropy(softmax_probs(ch), labels)[0]
            flat[k] = old
            num = (fp - fm) / (2 * eps)
            got = grad.ravel()[k]
            assert abs(got - num) <= 1e-5 * max(abs(got), abs(num), 1e-3)


LOSSES = pytest.mark.parametrize("loss", [cross_entropy, lovasz_softmax, total_loss],
                                 ids=["cross_entropy", "lovasz_softmax", "total_loss"])


class TestLossInputs:
    @LOSSES
    @pytest.mark.parametrize("count", [50, 150])
    def test_label_count_must_match_voxels(self, loss, count):
        probs = softmax_probs(RNG.normal(size=(100, C)))
        with pytest.raises(ValueError, match=f"{count} labels for 100 voxels"):
            loss(probs, RNG.integers(0, C, size=count))

    @LOSSES
    @pytest.mark.parametrize("labels", [np.full(4, 2.0), np.array([True, False] * 2)],
                             ids=["float", "bool"])
    def test_non_integer_labels_rejected(self, loss, labels):
        probs = softmax_probs(RNG.normal(size=(4, C)))
        with pytest.raises(ValueError, match="labels must be integers"):
            loss(probs, labels)

    @LOSSES
    def test_zero_voxels_rejected(self, loss):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="needs at least one voxel"):
                loss(np.zeros((0, C)), np.zeros(0, dtype=np.int64))

    def test_one_voxel(self):
        # total_loss runs over two halves of the voxels; here one is empty
        ch = RNG.normal(size=(1, 1, 1, C))
        labels = np.array([[[4]]])
        report, grad = total_loss(ch, labels)
        probs = softmax_probs(ch)
        ce, grad_ce = cross_entropy(probs, labels)
        lov, grad_lov, per_class = lovasz_softmax(probs, labels)
        assert (report.ce, report.lovasz) == (ce, lov) and np.isfinite(report.total)
        assert np.array_equal(report.per_class_lovasz, per_class)
        assert grad.shape == ch.shape
        assert np.array_equal(grad, grad_ce + softmax_vjp(probs, grad_lov))


class TestLovasz:
    def test_perfect_hard_predictions(self):
        labels = RNG.integers(0, 3, size=16)
        probs = np.zeros((16, C))
        probs[np.arange(16), labels] = 1.0
        loss, _, _ = lovasz_softmax(probs, labels)
        assert loss == 0.0

    def test_binary_toy_equals_one_minus_iou(self):
        # 4-voxel toy, 2 classes: at every probability vertex the extension
        # equals 1 - IoU from explicit set counting, for all 2^4 labelings
        for labels_bits in itertools.product([0, 1], repeat=4):
            labels = np.array(labels_bits)
            for pred_bits in itertools.product([0, 1], repeat=4):
                pred = np.array(pred_bits)
                probs = np.zeros((4, 2))
                probs[np.arange(4), pred] = 1.0
                loss, _, per_class = lovasz_softmax(probs, labels)
                expected_terms = []
                for c in np.unique(labels):
                    j = jaccard_by_counting(pred == c, labels == c)
                    expected_terms.append(j)
                    assert per_class[c] == pytest.approx(j, abs=1e-12)
                assert loss == pytest.approx(np.mean(expected_terms), abs=1e-12)

    def test_value_in_unit_interval(self):
        for _ in range(20):
            labels = RNG.integers(0, C, size=40)
            probs = softmax_probs(RNG.normal(size=(40, C)))
            loss, _, per_class = lovasz_softmax(probs, labels)
            assert 0.0 <= loss <= 1.0
            assert np.all(per_class >= 0.0) and np.all(per_class <= 1.0)

    def test_absent_class_not_counted(self):
        labels = np.zeros(10, dtype=int)          # only class 0 present
        probs = softmax_probs(RNG.normal(size=(10, C)))
        loss, _, per_class = lovasz_softmax(probs, labels)
        assert loss == pytest.approx(per_class[0])
        assert np.all(per_class[1:] == 0.0)

    @pytest.mark.parametrize("bad", [-1, 3])
    def test_label_out_of_range(self, bad):
        # a label of -1 must not be read as the last class, nor C as an index
        probs = np.full((4, 3), 1.0 / 3.0)
        with pytest.raises(ValueError, match="label out of range"):
            lovasz_softmax(probs, np.array([0, bad, 2, 0]))

    def test_gradient_matches_fd_away_from_ties(self):
        labels = RNG.integers(0, 3, size=6)
        probs = RNG.uniform(0.05, 0.95, size=(6, C))
        _, grad, _ = lovasz_softmax(probs, labels)
        eps = 1e-7
        flat = probs.ravel()
        for k in range(flat.size):
            old = flat[k]
            flat[k] = old + eps
            fp = lovasz_softmax(probs, labels)[0]
            flat[k] = old - eps
            fm = lovasz_softmax(probs, labels)[0]
            flat[k] = old
            num = (fp - fm) / (2 * eps)
            got = grad.ravel()[k]
            assert abs(got - num) <= 1e-4 * max(abs(got), abs(num), 1e-2)


def _assert_lovasz_matches_oracle(probs, labels):
    loss, grad, per_class = lovasz_softmax(probs, labels)
    want_loss, want_grad, want_per_class = lovasz_softmax_oracle(probs, labels)
    assert np.float64(loss).tobytes() == np.float64(want_loss).tobytes()
    assert np.array_equal(per_class, want_per_class)
    assert np.array_equal(np.signbit(per_class), np.signbit(want_per_class))
    assert grad.shape == probs.shape and grad.dtype == np.float64
    assert grad.flags.c_contiguous
    assert np.array_equal(grad, want_grad)
    assert np.array_equal(np.signbit(grad), np.signbit(want_grad))


def _paper_training_example():
    """Ego 0's training example of the seed-42 paper layout (3 agents,
    100x100x8 at 0.4 m, 3 200 Gaussians/agent), its scene seed derived
    from seed 42."""
    spec = generate_scene(42, num_agents=3, world_half_xy=20.0, grid_dims=(100, 100, 8))
    spec = replace(spec, seed=derive_scene_seed(42, 0))
    return make_training_example(spec, ObservationModel(gaussians_per_agent=3200), ego=0)


ORDER_RNG = np.random.default_rng(8080)


class TestLovaszExactOrder:
    """`lovasz_softmax` orders each class by an unstable sort plus a repair
    of its tie runs; it must reproduce the stable-sort loop of
    `lovasz_softmax_oracle` bit for bit."""

    @pytest.mark.parametrize("x", [
        np.round(ORDER_RNG.normal(size=5000) * 3) / 4,       # long tie runs
        ORDER_RNG.integers(0, 3, size=4000) * 0.5,
        np.full(257, 0.25),
        np.array([0.7]),
        np.array([0.0, -0.0, np.nan, np.inf, -np.inf, 0.0, np.nan, -0.0, 1.0, -np.nan,
                  np.inf, -np.inf, 0.5, 0.0, np.nan]),
        ORDER_RNG.permutation(np.concatenate([np.full(40, np.nan), np.full(30, -0.0),
                                              np.zeros(30), np.full(20, np.inf),
                                              np.ones(20)])),
    ], ids=["quantized", "three-values", "all-equal", "n1", "signed-zero-nan-inf",
            "nan-run"])
    def test_order_equals_stable_argsort(self, x):
        assert np.array_equal(_stable_descending_order(x), np.argsort(-x, kind="stable"))

    @pytest.mark.parametrize("shape", [(18, 13), (4, 2), (300, 13), (6, 5, 4, 13), (1, 3)])
    @pytest.mark.parametrize("kind", ["smooth", "quantized", "saturated", "uniform"])
    def test_equals_oracle(self, shape, kind):
        rng = np.random.default_rng([len(shape), shape[-1], len(kind)])
        num_classes = shape[-1]
        ch = rng.normal(size=shape) * (60.0 if kind == "saturated" else 2.0)
        if kind == "uniform":
            ch[:] = 1.0
        probs = softmax_probs(ch)
        if kind == "quantized":
            probs = np.round(probs * 4) / 4
        # some classes absent, so their zeroed gradient columns are checked
        labels = rng.integers(0, max(num_classes - 1, 1), size=shape[:-1])
        _assert_lovasz_matches_oracle(probs, labels)
        _assert_lovasz_matches_oracle(probs, np.full(shape[:-1], num_classes - 1))

    def test_equals_oracle_on_paper_training_example(self):
        example = _paper_training_example()
        fused = fuse_scene(example.fusion_input, example.received, FusionConfig(),
                           FusionParams.init(seed=0), record=False)
        channels = splat_sparse(example.fixed, example.geometry, SplatConfig()).add_to(
            splat(fused, example.geometry, SplatConfig()).channels)
        probs = softmax_probs(channels)
        assert probs.shape == (100, 100, 8, C)
        _assert_lovasz_matches_oracle(probs, example.gt_labels)


def _assert_loss_bits(got, want):
    """Report and gradient of `total_loss` byte-equal to `want`'s."""
    (report, grad), (want_report, want_grad) = got, want
    for name in ("ce", "lovasz", "total", "per_class_lovasz"):
        assert np.asarray(getattr(report, name)).tobytes() == \
            np.asarray(getattr(want_report, name)).tobytes(), name
    assert grad.shape == want_grad.shape and grad.flags.c_contiguous
    assert grad.tobytes() == want_grad.tobytes()


def _on_team_and_inline(channels, labels):
    """`total_loss` inline, then on an idle team (where a per-thread BLAS
    setter exists), each checked against the two-pass oracle at the same
    BLAS thread count: a team holds BLAS to one thread, and a long Lovasz
    dot product's bits follow that count."""
    _assert_loss_bits(total_loss(channels, labels), two_pass_total_loss(channels, labels))
    if core._set_blas_threads is None:
        return
    previous = core._set_blas_threads(1)
    try:
        want = two_pass_total_loss(channels, labels)
    finally:
        core._set_blas_threads(previous)
    with core._two_threads():
        _assert_loss_bits(total_loss(channels, labels), want)


class TestTotalLossEqualsTwoPass:
    """`total_loss` (folded row max, in-place softmax, gradient columns
    written per class, in-place VJP) against `two_pass_total_loss`."""

    @pytest.mark.parametrize("shape", [(18, 13), (4, 2), (300, 13), (6, 5, 4, 13), (1, 3)])
    @pytest.mark.parametrize("kind", ["smooth", "quantized", "saturated", "uniform"])
    def test_equals_oracle(self, shape, kind):
        rng = np.random.default_rng([len(shape), shape[-1], len(kind), 1])
        ch = rng.normal(size=shape) * (60.0 if kind == "saturated" else 2.0)
        if kind == "uniform":
            ch[:] = 1.0
        elif kind == "quantized":
            ch = np.round(ch * 2) / 2
        labels = rng.integers(0, max(shape[-1] - 1, 1), size=shape[:-1])
        _on_team_and_inline(ch, labels)
        _on_team_and_inline(ch, np.full(shape[:-1], shape[-1] - 1))

    def test_equals_oracle_on_paper_training_example(self):
        example = _paper_training_example()
        fused = fuse_scene(example.fusion_input, example.received, FusionConfig(),
                           FusionParams.init(seed=0), record=False)
        channels = splat_sparse(example.fixed, example.geometry, SplatConfig()).add_to(
            splat(fused, example.geometry, SplatConfig()).channels)
        _on_team_and_inline(channels, example.gt_labels)

    def test_signed_zero_and_infinite_rows(self):
        rng = np.random.default_rng(4)
        ch = rng.normal(size=(64, C)) * 3
        ch[0], ch[1], ch[2, ::2] = 0.0, -0.0, -0.0
        ch[3, 5], ch[4, 2], ch[5], ch[6] = np.inf, -np.inf, np.inf, -np.inf
        ch[7, [1, 3]], ch[8, [0, 12]] = [np.inf, -np.inf], [np.inf, np.inf]
        with np.errstate(invalid="ignore"):
            _on_team_and_inline(ch, rng.integers(0, C, size=64))

    def test_nan_rows(self):
        # `np.max` returns a NaN whose sign and payload depend on the SIMD
        # lane it falls in, so only NaN's place is pinned; every other
        # entry keeps its bits
        rng = np.random.default_rng(5)
        ch = rng.normal(size=(64, C)) * 3
        ch[0, 4], ch[1], ch[2, [1, 5]], ch[3, 7] = np.nan, np.nan, [np.nan, np.inf], -np.nan
        labels = rng.integers(0, C, size=64)
        with np.errstate(invalid="ignore"):
            want = two_pass_total_loss(ch, labels)      # 64 voxels: a one-thread dot
            for team in (False, True):
                with core._two_threads() if team else contextlib.nullcontext():
                    got = total_loss(ch, labels)
                for g, w in zip(_loss_fields(got), _loss_fields(want)):
                    assert np.array_equal(np.isnan(g), np.isnan(w))
                    assert np.asarray(g)[~np.isnan(g)].tobytes() == \
                        np.asarray(w)[~np.isnan(w)].tobytes()
        assert np.isnan(want[0].total)


def _loss_fields(result):
    report, grad = result
    return [np.asarray(report.ce), np.asarray(report.lovasz), report.per_class_lovasz, grad]


class TestTotalLoss:
    def test_composition_exact(self):
        labels = RNG.integers(0, C, size=(3, 3, 1))
        ch = RNG.normal(size=(3, 3, 1, C))
        report, _ = total_loss(ch, labels)
        assert report.total == report.ce + report.lovasz

    def test_combined_gradient_matches_fd(self):
        labels = RNG.integers(0, 4, size=(2, 2, 1))
        ch = RNG.normal(size=(2, 2, 1, C))
        _, grad = total_loss(ch, labels)
        eps = 1e-6
        flat = ch.ravel()
        for k in RNG.choice(flat.size, size=26, replace=False):
            old = flat[k]
            flat[k] = old + eps
            fp = total_loss(ch, labels)[0].total
            flat[k] = old - eps
            fm = total_loss(ch, labels)[0].total
            flat[k] = old
            num = (fp - fm) / (2 * eps)
            got = grad.ravel()[k]
            assert abs(got - num) <= 1e-4 * max(abs(got), abs(num), 1e-3)

    def test_softmax_vjp_consistency(self):
        probs = softmax_probs(RNG.normal(size=(5, C)))
        g = RNG.normal(size=(5, C))
        out = softmax_vjp(probs, g)
        for i in range(5):
            p = probs[i]
            jac = np.diag(p) - np.outer(p, p)
            assert np.allclose(out[i], jac @ g[i], atol=1e-12)


def toy_example(rng, noise=0.15, n=6, grid=(8, 8, 2)):
    geom = GridGeometry(np.array([-1.6, -1.6, -0.4]), 0.4, grid, num_classes=C)
    true = random_gaussian_set(rng, n, center_span=1.2, scale_lo=0.25, scale_hi=0.5)
    true.semantics[:] = 0.0
    classes = rng.integers(0, C - 1, size=n)
    true.semantics[np.arange(n), classes] = 1.0
    true.opacities[:] = 1.0
    fixed = GaussianSet(
        np.zeros((1, 3)), np.full((1, 3), 8.0), np.array([[1.0, 0, 0, 0]]),
        np.ones(1), np.eye(C)[EMPTY_CLASS][None, :])
    clean = splat(GaussianSet.concat([true, fixed]), geom, SplatConfig())
    from gsfusion.splat import labels_from_channels

    gt = labels_from_channels(clean).labels

    def noisy_copy():
        g = true.copy()
        g.means += rng.normal(0, noise, size=g.means.shape)
        flip = rng.random(n) < 0.3
        for i in np.nonzero(flip)[0]:
            g.semantics[i] = 0.0
            g.semantics[i, rng.integers(0, C - 1)] = 1.0
        return g

    ego = noisy_copy()
    received = [noisy_copy()]
    stacked = GaussianSet.concat([ego] + received)
    return TrainExample(stacked, received, fixed, gt, geom)


class TestFixedRenderedApart:
    """`scene_loss_and_grads` renders the fixed set on its own and runs the
    splat backward over the fused rows only; it must equal the splat of
    the concatenation, differentiated whole and sliced, bit for bit."""

    def _case(self, source):
        if source == "toy":
            return (toy_example(np.random.default_rng(4242)),
                    FusionConfig(radius_rho=0.6, pooling="attention"), SplatConfig())
        spec = generate_scene(seed=11, num_agents=2, world_half_xy=10.0, grid_dims=(40, 40, 8))
        example = make_training_example(spec, ObservationModel(gaussians_per_agent=200))
        return example, FusionConfig(), SplatConfig()

    @pytest.mark.parametrize("source", ["toy", "generated"])
    def test_bit_equal_to_concat_reference(self, source):
        example, fusion_cfg, splat_cfg = self._case(source)
        assert len(example.fixed) == 1
        params = FusionParams.init(seed=77)
        want_report, want_grads = concat_scene_loss_and_grads(example, fusion_cfg, splat_cfg,
                                                              params)
        render = splat_sparse(example.fixed, example.geometry, splat_cfg)
        for fixed_render in (None, render):
            report, grads = scene_loss_and_grads(example, fusion_cfg, splat_cfg, params,
                                                 fixed_render=fixed_render)
            assert (report.ce, report.lovasz, report.total) == \
                (want_report.ce, want_report.lovasz, want_report.total)
            assert np.array_equal(report.per_class_lovasz, want_report.per_class_lovasz)
            assert grads.keys() == want_grads.keys()
            for k in want_grads:
                assert np.array_equal(grads[k], want_grads[k]), k
            assert any(np.any(g != 0.0) for g in grads.values())
        report, grads = scene_loss_and_grads(example, fusion_cfg, splat_cfg, params,
                                             want_grads=False)
        assert grads is None and report.total == want_report.total

    @pytest.mark.parametrize("source", ["toy", "generated"])
    def test_loss_only_records_no_tape(self, source, monkeypatch):
        example, fusion_cfg, splat_cfg = self._case(source)
        params = FusionParams.init(seed=77)
        records = []

        def spy(fn):
            def recording(*args, **kwargs):
                records.append((fn.__name__, kwargs["record"]))
                return fn(*args, **kwargs)
            return recording

        monkeypatch.setattr(learn, "fuse_scene", spy(fuse_scene))
        monkeypatch.setattr(learn, "splat", spy(splat))
        want, _ = scene_loss_and_grads(example, fusion_cfg, splat_cfg, params)
        got, grads = scene_loss_and_grads(example, fusion_cfg, splat_cfg, params,
                                          want_grads=False)
        assert records == [("fuse_scene", True), ("splat", True),
                           ("fuse_scene", False), ("splat", False)] and grads is None
        assert (got.ce, got.lovasz, got.total) == (want.ce, want.lovasz, want.total)
        assert np.array_equal(got.per_class_lovasz, want.per_class_lovasz)


class TestPipelineGradient:
    def test_pipeline_gradient_matches_fd(self):
        rng = np.random.default_rng(4242)
        example = toy_example(rng)
        fusion_cfg = FusionConfig(radius_rho=0.6, pooling="attention")
        splat_cfg = SplatConfig(truncation_sigma=6.0, min_contribution=0.0)
        params = FusionParams.init(seed=77)
        _, grads = scene_loss_and_grads(example, fusion_cfg, splat_cfg, params)

        def objective():
            report, _ = scene_loss_and_grads(example, fusion_cfg, splat_cfg, params,
                                             want_grads=False)
            return report.total

        eps = 1e-6
        check = np.random.default_rng(5)
        for name, g in grads.items():
            arr = getattr(params, name)
            flat = arr.ravel()
            for k in check.choice(flat.size, size=min(12, flat.size), replace=False):
                old = flat[k]
                flat[k] = old + eps
                fp = objective()
                flat[k] = old - eps
                fm = objective()
                flat[k] = old
                num = (fp - fm) / (2 * eps)
                got = g.ravel()[k]
                # the additive term covers central-difference roundoff noise
                assert abs(got - num) <= 1e-4 * max(abs(got), abs(num)) + 1e-9, (name, k)


class TestOptimizer:
    def test_zero_lr_keeps_params(self):
        p = {"a": RNG.normal(size=(3, 3))}
        before = p["a"].copy()
        opt = AdamW(p)
        opt.step({"a": RNG.normal(size=(3, 3))}, lr=0.0)
        assert np.array_equal(p["a"], before)

    def test_quadratic_descent(self):
        p = {"x": np.array([5.0])}
        opt = AdamW(p, weight_decay=0.0)
        for _ in range(800):
            opt.step({"x": 2.0 * p["x"]}, lr=0.05)
        assert abs(p["x"][0]) < 1e-2

    def test_schedule_shape(self):
        cfg = TrainConfig(steps=100, warmup_steps=10, peak_lr=1e-3)
        assert lr_at(0, cfg) == pytest.approx(1e-4)
        assert lr_at(9, cfg) == pytest.approx(1e-3)
        assert lr_at(10, cfg) == pytest.approx(1e-3)
        assert lr_at(99, cfg) < lr_at(50, cfg) < lr_at(10, cfg)


class TestTrain:
    def _dataset(self, n=4):
        rng = np.random.default_rng(999)
        return [toy_example(rng) for _ in range(n)]

    def test_zero_steps_identity(self):
        data = self._dataset(1)
        p0 = FusionParams.init(seed=1)
        p1, curve = train(p0, data, TrainConfig(steps=0, seed=3))
        assert curve == []
        for name in FusionParams._ORDER:
            assert np.array_equal(getattr(p0, name), getattr(p1, name))

    def test_loss_decreases(self):
        data = self._dataset(4)
        cfg = TrainConfig(steps=60, warmup_steps=10, peak_lr=3e-3, batch=2, seed=0)
        fusion_cfg = FusionConfig(radius_rho=0.6)
        p0 = FusionParams.init(seed=1)
        _, curve = train(p0, data, cfg, fusion_cfg=fusion_cfg)
        first = np.mean([r[3] for r in curve[:5]])
        last = np.mean([r[3] for r in curve[-5:]])
        assert last < first

    def test_deterministic(self):
        data = self._dataset(2)
        cfg = TrainConfig(steps=8, warmup_steps=2, peak_lr=1e-3, batch=1, seed=11)
        fusion_cfg = FusionConfig(radius_rho=0.6)
        pa, ca = train(FusionParams.init(seed=1), data, cfg, fusion_cfg=fusion_cfg)
        pb, cb = train(FusionParams.init(seed=1), data, cfg, fusion_cfg=fusion_cfg)
        assert ca == cb
        for name in FusionParams._ORDER:
            assert np.array_equal(getattr(pa, name), getattr(pb, name))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_aborts(self):
        data = self._dataset(1)
        p0 = FusionParams.init(seed=1)
        p0.b3[:] = 1e6                      # force absurd proposals
        with pytest.raises(DivergenceError):
            train(p0, data, TrainConfig(steps=3, peak_lr=1e30, seed=0))


def _threaded_fixture():
    """Three training examples large enough that a sequential `train` of
    `THREAD_CFG` gives other bits at one BLAS thread than at two."""
    model = ObservationModel(gaussians_per_agent=800)
    return [make_training_example(generate_scene(derive_scene_seed(5, i), num_agents=2,
                                                 world_half_xy=10.0, grid_dims=(50, 50, 8)),
                                  model, ego=0)
            for i in range(3)]


THREAD_CFG = TrainConfig(steps=3, warmup_steps=1, peak_lr=1e-3, batch=3, seed=4)

needs_setter = pytest.mark.skipif(core._set_blas_threads is None,
                                  reason="numpy's BLAS has no per-thread thread-count setter")


def _threaded_digests() -> str:
    """Digests of the curve and weights of `train` on `_threaded_fixture`,
    at `THREAD_CFG`'s batch of three and at a batch of one."""
    digests = []
    for batch in (THREAD_CFG.batch, 1):
        params, curve = train(FusionParams.init(seed=1), _threaded_fixture(),
                              replace(THREAD_CFG, batch=batch))
        h = hashlib.sha256(np.array(curve, dtype=np.float64).tobytes())
        for v in params.as_dict().values():
            h.update(v.tobytes())
        digests.append(h.hexdigest())
    return " ".join(digests)


def _forbidden(*args, **kwargs):
    raise AssertionError("a batch that runs on the calling thread needs no worker or pinning")


# a block function of each stage that splits its work on an idle team
STAGE_BLOCKS = [(fusion, "_fuse_block"), (splat_module, "_box_pairs"),
                (learn, "_lovasz_class"), (fusion, "_block_grads")]


def _count_submits(monkeypatch) -> list:
    """Patch the team's pool so that every submit is recorded in the
    returned list."""
    submits = []

    class Pool(core.ThreadPoolExecutor):
        def submit(self, *args, **kwargs):
            submits.append(threading.current_thread())
            return super().submit(*args, **kwargs)

    monkeypatch.setattr(core, "ThreadPoolExecutor", Pool)
    return submits


def _assert_same_training(got, want):
    (p_got, c_got), (p_want, c_want) = got, want
    assert c_got == c_want
    for name in FusionParams._ORDER:
        assert np.array_equal(getattr(p_got, name), getattr(p_want, name)), name


class TestTwoExamplesAtATime:
    @pytest.fixture(scope="class")
    def data(self):
        return _threaded_fixture()

    @needs_setter
    def test_equals_sequential_loop_at_one_blas_thread(self, data, monkeypatch):
        previous = core._set_blas_threads(1)
        try:
            want = sequential_train(FusionParams.init(seed=1), data, THREAD_CFG)
        finally:
            core._set_blas_threads(previous)
        ran, pinned = [], []
        real_example, real_setter = learn.scene_loss_and_grads, core._set_blas_threads

        def example(*args, **kwargs):
            ran.append(threading.current_thread())
            return real_example(*args, **kwargs)

        def setter(n):
            pinned.append((threading.current_thread(), n))
            return real_setter(n)

        monkeypatch.setattr(learn, "scene_loss_and_grads", example)
        monkeypatch.setattr(core, "_set_blas_threads", setter)
        before = threading.enumerate()
        got = train(FusionParams.init(seed=1), data, THREAD_CFG)
        assert threading.enumerate() == before          # no thread outlives train
        _assert_same_training(got, want)
        main = threading.main_thread()
        worker = next(t for t in ran if t is not main)
        # a batch of three: positions 0 and 2 on the calling thread, 1 on the worker
        assert [t is main for t in ran].count(True) == 2 * THREAD_CFG.steps
        assert ran.count(worker) == THREAD_CFG.steps
        assert pinned == [(main, 1), (worker, 1), (main, previous)]

    def test_without_setter_runs_sequentially(self, data, monkeypatch):
        want = sequential_train(FusionParams.init(seed=1), data, THREAD_CFG)
        monkeypatch.setattr(core, "_set_blas_threads", None)
        monkeypatch.setattr(core, "ThreadPoolExecutor", _forbidden)
        _assert_same_training(train(FusionParams.init(seed=1), data, THREAD_CFG), want)

    @needs_setter
    def test_batch_of_one_splits_its_stages(self, data, monkeypatch):
        cfg = replace(THREAD_CFG, batch=1)
        previous = core._set_blas_threads(1)
        try:
            want = sequential_train(FusionParams.init(seed=1), data, cfg)
        finally:
            core._set_blas_threads(previous)
        staged = []
        for module, name in STAGE_BLOCKS:
            real = getattr(module, name)

            def block(*args, real=real, **kwargs):
                staged.append(threading.current_thread())
                return real(*args, **kwargs)

            monkeypatch.setattr(module, name, block)
        before = threading.enumerate()
        got = train(FusionParams.init(seed=1), data, cfg)
        assert threading.enumerate() == before          # no thread outlives train
        assert core._set_blas_threads(previous) == previous     # the caller's count is back
        _assert_same_training(got, want)
        main = threading.main_thread()
        assert main in staged and any(t is not main for t in staged)

    @needs_setter
    def test_batch_of_two_submits_no_stage_work(self, data, monkeypatch):
        # one submit for the set-up, then one per step for the second example
        submits = _count_submits(monkeypatch)
        cfg = replace(THREAD_CFG, batch=2)
        train(FusionParams.init(seed=1), data, cfg)
        assert len(submits) == 1 + cfg.steps

    @needs_setter
    @pytest.mark.parametrize("module, name", [
        (fusion, "_fuse_block"), (splat_module, "_box_pairs"), (learn, "_lovasz_class"),
        (fusion, "_block_grads")], ids=["fuse", "splat", "lovasz", "fusion_backward"])
    def test_failure_in_a_worker_block_reaches_the_caller(self, data, monkeypatch,
                                                          module, name):
        # blocks fail on the worker once the steps start; the call runs on a
        # thread of its own so that a hang shows as a timeout, not a stuck suite
        real, real_scene = getattr(module, name), learn.scene_loss_and_grads
        caller, stepping, raised = [], [], []

        def scene(*args, **kwargs):
            stepping.append(True)
            return real_scene(*args, **kwargs)

        def block(*args, **kwargs):
            if stepping and threading.current_thread() is not caller[0]:
                raise RuntimeError(f"block failed in {threading.current_thread().name}")
            return real(*args, **kwargs)

        def run():
            caller.append(threading.current_thread())
            try:
                train(FusionParams.init(seed=1), data, replace(THREAD_CFG, batch=1))
            except RuntimeError as exc:
                raised.append(exc)

        monkeypatch.setattr(learn, "scene_loss_and_grads", scene)
        monkeypatch.setattr(module, name, block)
        monkeypatch.setattr(fusion, "_FUSE_BLOCK", 256)         # several blocks a stage
        monkeypatch.setattr(splat_module, "_BLOCK", 1 << 10)
        before = threading.enumerate()
        thread = threading.Thread(target=run)
        thread.start()
        thread.join(timeout=120)
        assert not thread.is_alive()
        assert len(raised) == 1 and "block failed in ThreadPoolExecutor-" in str(raised[0])
        assert threading.enumerate() == before

    @needs_setter
    def test_divergence_in_the_worker_reaches_the_caller(self, data, monkeypatch):
        real = learn.scene_loss_and_grads

        def diverge_off_main(*args, **kwargs):
            if threading.current_thread() is not threading.main_thread():
                raise DivergenceError(f"non-finite loss in {threading.current_thread().name}")
            return real(*args, **kwargs)

        monkeypatch.setattr(learn, "scene_loss_and_grads", diverge_off_main)
        before = threading.enumerate()
        with pytest.raises(DivergenceError, match="non-finite loss in ThreadPoolExecutor-"):
            train(FusionParams.init(seed=1), data, THREAD_CFG)
        assert threading.enumerate() == before

    @needs_setter
    def test_training_does_not_depend_on_blas_thread_count(self):
        # a fresh process per count, because OpenBLAS reads it once at load
        here = pathlib.Path(__file__).parent
        digests = []
        for threads in ("1", "2"):
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
                   "PYTHONPATH": os.pathsep.join([str(here.parent / "src"), str(here)])}
            proc = subprocess.run([sys.executable, "-c",
                                   "import test_learn; print(test_learn._threaded_digests())"],
                                  env=env, cwd=here, capture_output=True, text=True, timeout=300)
            assert proc.returncode == 0, proc.stderr[-2000:]
            digests.append(proc.stdout.split()[-2:])
        assert digests[0] == digests[1]


def _odd_bound(blocks, above: int) -> int:
    """The largest bound below `above` at which `blocks(bound)`, a block
    count, is odd and at least 5."""
    for bound in range(above, 0, -1):
        count = blocks(bound)
        if count >= 5 and count % 2:
            return bound
    raise AssertionError("no bound gives an odd count of 5 or more blocks")


GAUSSIAN_FIELDS = ("means", "scales", "rotations", "opacities", "semantics")


def _stage_outputs(ex, params, mark=lambda stage: None):
    """Every stage of one training example, as `scene_loss_and_grads` runs
    them, with the tapes; `mark(stage)` is called after each stage."""
    fusion_cfg, splat_cfg = FusionConfig(), SplatConfig()
    fused, fusion_tape = fuse_scene(ex.fusion_input, ex.received, fusion_cfg, params,
                                    record=True)
    mark("fuse")
    grid, splat_tape = splat(fused, ex.geometry, splat_cfg, record=True)
    mark("splat")
    channels = splat_sparse(ex.fixed, ex.geometry, splat_cfg).add_to(grid.channels)
    report, grad_ch = total_loss(channels, ex.gt_labels)
    mark("loss")
    field_grads = splat_module.splat_backward(splat_tape, grad_ch)
    mark("splat_backward")
    grads = fusion.fusion_backward(fusion_tape, field_grads)
    mark("fusion_backward")
    return [{k: getattr(fused, k) for k in GAUSSIAN_FIELDS},
            [dataclasses.astuple(b) for b in fusion_tape.blocks],
            channels, [(b.start, b.stop, *b.pairs) for b in splat_tape.blocks],
            (report.ce, report.lovasz, report.total, report.per_class_lovasz), grad_ch,
            field_grads, grads]


def _assert_same_bits(got, want, where="output"):
    if isinstance(want, dict):
        assert got.keys() == want.keys(), where
        for k in want:
            _assert_same_bits(got[k], want[k], f"{where}.{k}")
    elif isinstance(want, (list, tuple)):
        assert len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            _assert_same_bits(g, w, f"{where}[{i}]")
    else:
        g, w = np.asarray(got), np.asarray(want)
        assert g.dtype == w.dtype and g.shape == w.shape and g.tobytes() == w.tobytes(), where


class TestStagesOnTwoThreads:
    """Each stage of a training example split on an idle team gives the bits
    of its inline run, at one BLAS thread."""

    @needs_setter
    def test_split_stages_equal_inline_runs(self, monkeypatch):
        ex = _threaded_fixture()[0]
        params = FusionParams.init(seed=1)
        counts = fusion.scene_neighbors(ex.fusion_input, ex.received, FusionConfig())[3]
        monkeypatch.setattr(fusion, "_FUSE_BLOCK", int(counts.sum()) // 5)
        fused = fuse_scene(ex.fusion_input, ex.received, FusionConfig(), params)

        def splat_blocks(bound):
            monkeypatch.setattr(splat_module, "_BLOCK", bound)
            return splat_module._pair_blocks(fused, ex.geometry, SplatConfig())[0]

        splat_blocks(_odd_bound(splat_blocks, 1 << 13))
        previous = core._set_blas_threads(1)
        try:
            want = _stage_outputs(ex, params)
        finally:
            core._set_blas_threads(previous)
        submits = _count_submits(monkeypatch)
        marks = []

        def mark(stage):
            marks.append((stage, len(submits)))

        with core._two_threads():
            got = _stage_outputs(ex, params, mark)
        _assert_same_bits(got, want)
        assert len(want[1]) >= 4 and len(want[1]) % 2 == 0      # fusion blocks
        assert len(want[3]) >= 5                                  # splat blocks with pairs
        done = 0
        for stage, count in marks:          # every stage handed work to the worker
            assert count > done, stage
            done = count

    @needs_setter
    @pytest.mark.parametrize("voxels", [1, 2, 3, 64])
    def test_loss_on_two_threads_equals_inline(self, voxels):
        rng = np.random.default_rng(voxels)
        ch = rng.normal(size=(voxels, C)) * 3
        labels = rng.integers(0, C, size=voxels)
        want = total_loss(ch, labels)              # the loss makes no BLAS call
        with core._two_threads():
            got = total_loss(ch, labels)
        _assert_same_bits([dataclasses.astuple(got[0]), got[1]],
                          [dataclasses.astuple(want[0]), want[1]])
        assert np.isfinite(got[0].total)


class TestCalibration:
    def test_identity_is_exact(self):
        cal = Calibration.identity(C)
        ch = RNG.uniform(0, 2, size=(3, 3, 2, C))
        assert np.array_equal(cal.apply(ch), ch)

    def test_gradient_matches_fd(self):
        cal = Calibration(RNG.normal(0, 0.2, C))
        ch = RNG.uniform(0, 2, size=(4, 4, 1, C))
        labels = RNG.integers(0, C, size=(4, 4, 1))
        gain = np.exp(cal.log_gain)
        _, grad_ch = total_loss(ch * gain, labels)
        grad = np.sum(grad_ch * ch, axis=(0, 1, 2)) * gain
        eps = 1e-6
        for k in range(C):
            old = cal.log_gain[k]
            cal.log_gain[k] = old + eps
            fp = total_loss(ch * np.exp(cal.log_gain), labels)[0].total
            cal.log_gain[k] = old - eps
            fm = total_loss(ch * np.exp(cal.log_gain), labels)[0].total
            cal.log_gain[k] = old
            num = (fp - fm) / (2 * eps)
            assert abs(grad[k] - num) <= 1e-5 * max(abs(grad[k]), abs(num), 1e-3)

    def test_training_reduces_loss(self):
        rng = np.random.default_rng(321)
        examples = []
        for _ in range(3):
            ch = rng.uniform(0, 1, size=(6, 6, 2, C))
            labels = rng.integers(0, C, size=(6, 6, 2))
            examples.append((ch, labels))
        cal0 = Calibration.identity(C)
        cfg = TrainConfig(steps=80, warmup_steps=10, peak_lr=5e-2, batch=3, seed=1)
        cal, curve = train_calibration(cal0, examples, cfg)
        assert curve[-1][3] < curve[0][3]

    def test_save_load_roundtrip(self, tmp_path):
        cal = Calibration(RNG.normal(size=C).astype(np.float32).astype(np.float64))
        p = tmp_path / "cal.fprm"
        save_calibration(cal, p)
        back = load_calibration(p)
        assert np.array_equal(back.log_gain, cal.log_gain)
