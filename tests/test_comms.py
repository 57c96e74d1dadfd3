import numpy as np
import pytest

from gsfusion.core import GaussianSet, RigidTransform, Roi, SemanticGaussian, density
from gsfusion.comms import (
    BadMagicError,
    CommStats,
    CorruptFieldError,
    DecodeError,
    EncodeRangeError,
    GaussianMessage,
    PRECISION_FP16,
    PRECISION_FP32,
    TruncatedPayloadError,
    VersionMismatchError,
    cull_to_roi,
    deserialize_message,
    enforce_budget,
    record_size,
    serialize_message,
    stack,
    transform_gaussian,
    transform_set,
)

from helpers import random_gaussian, random_gaussian_set, random_rigid_transform

RNG = np.random.default_rng(31337)


class TestTransform:
    def test_identity(self):
        g = random_gaussian(RNG)
        out = transform_gaussian(g, RigidTransform.identity())
        assert np.allclose(out.mean, g.mean)
        assert np.array_equal(out.scale, g.scale)
        assert np.allclose(out.rotation, g.rotation)
        assert out.opacity == g.opacity

    def test_pure_translation(self):
        g = random_gaussian(RNG)
        t = RigidTransform(np.array([1.0, 0, 0, 0]), np.array([1.0, 2.0, 3.0]))
        out = transform_gaussian(g, t)
        assert np.allclose(out.mean, g.mean + [1.0, 2.0, 3.0])
        assert np.array_equal(out.scale, g.scale)
        assert np.allclose(out.rotation, g.rotation)
        assert np.array_equal(out.semantics, g.semantics)

    def test_density_invariance(self):
        for _ in range(50):
            g = random_gaussian(RNG)
            t = random_rigid_transform(RNG)
            x = RNG.uniform(-4, 4, 3)
            before = density(g, x)
            after = density(transform_gaussian(g, t), t.apply(x))
            assert np.allclose(after, before, rtol=1e-9)

    def test_scale_preserved_bitwise(self):
        g = random_gaussian(RNG)
        t = random_rigid_transform(RNG)
        assert np.array_equal(transform_gaussian(g, t).scale, g.scale)

    def test_covariance_conjugation(self):
        from gsfusion.core import covariance

        g = random_gaussian(RNG)
        t = random_rigid_transform(RNG)
        u = t.rotation_matrix()
        assert np.allclose(covariance(transform_gaussian(g, t)), u @ covariance(g) @ u.T,
                           atol=1e-9)

    def test_composition(self):
        g = random_gaussian(RNG)
        t1 = random_rigid_transform(RNG)
        t2 = random_rigid_transform(RNG)
        a = transform_gaussian(g, t2.compose(t1))
        b = transform_gaussian(transform_gaussian(g, t1), t2)
        assert np.allclose(a.mean, b.mean, atol=1e-9)
        assert np.allclose(a.rotation, b.rotation, atol=1e-9)

    def test_set_matches_single(self):
        gs = random_gaussian_set(RNG, 10)
        t = random_rigid_transform(RNG)
        batch = transform_set(gs, t)
        for i, g in enumerate(gs.to_gaussians()):
            single = transform_gaussian(g, t)
            assert np.allclose(batch.means[i], single.mean, atol=1e-12)
            assert np.allclose(batch.rotations[i], single.rotation, atol=1e-12)


class TestCull:
    def test_all_outside(self):
        gs = random_gaussian_set(RNG, 20)
        gs.means[:] += 100.0
        roi = Roi(np.zeros(3), np.ones(3))
        out = cull_to_roi(gs, RigidTransform.identity(), roi)
        assert len(out) == 0

    def test_face_included(self):
        g = SemanticGaussian(np.array([1.0, 0.0, 0.0]), np.ones(3),
                             np.array([1.0, 0, 0, 0]), 1.0, np.ones(13))
        roi = Roi(np.zeros(3), np.ones(3))
        out = cull_to_roi(GaussianSet.from_gaussians([g]), RigidTransform.identity(), roi)
        assert len(out) == 1

    def test_volume_ratio_monte_carlo(self):
        # Means uniform over a box with 8x the ROI volume: kept ~ 1/8.
        rng = np.random.default_rng(5)
        n = 1000
        gs = random_gaussian_set(rng, n)
        gs.means[:] = rng.uniform(-2.0, 2.0, size=(n, 3))
        roi = Roi(np.zeros(3), np.ones(3))
        out = cull_to_roi(gs, RigidTransform.identity(), roi)
        assert abs(len(out) / n - 0.125) < 0.05

    def test_idempotent(self):
        gs = random_gaussian_set(RNG, 200)
        roi = Roi(np.zeros(3), np.array([2.0, 2.0, 2.0]))
        once = cull_to_roi(gs, RigidTransform.identity(), roi)
        twice = cull_to_roi(once, RigidTransform.identity(), roi)
        assert np.array_equal(once.means, twice.means)

    def test_counts_after_transform(self):
        gs = random_gaussian_set(RNG, 50)
        t = random_rigid_transform(RNG, span=1.0)
        roi = Roi(np.zeros(3), np.full(3, 3.0))
        out = cull_to_roi(gs, t, roi)
        moved = transform_set(gs, t)
        assert len(out) == int(np.sum(roi.contains(moved.means)))
        assert len(out) <= len(gs)

    @pytest.mark.parametrize("case", ["some_culled", "all_culled", "empty"])
    def test_equals_transform_then_take(self, case):
        rng = np.random.default_rng(23)
        gs = {"some_culled": random_gaussian_set(rng, 300, center_span=6.0),
              "all_culled": random_gaussian_set(rng, 40, center_span=6.0),
              "empty": GaussianSet.empty(13)}[case]
        t = random_rigid_transform(rng, span=2.0)
        half = np.full(3, 1e-3 if case == "all_culled" else 3.0)
        roi = Roi(np.array([50.0, 0.0, 0.0]) if case == "all_culled" else np.zeros(3), half)
        moved = transform_set(gs, t)
        want = moved.take(roi.contains(moved.means))
        got = cull_to_roi(gs, t, roi)
        if case == "some_culled":
            assert 0 < len(got) < len(gs)
        for field in ("means", "scales", "rotations", "opacities", "semantics"):
            a, b = getattr(got, field), getattr(want, field)
            assert a.dtype == b.dtype and a.shape == b.shape, field
            assert a.tobytes() == b.tobytes(), field


class TestStack:
    def test_no_neighbors(self):
        ego = random_gaussian_set(RNG, 5)
        out = stack(ego, [])
        assert np.array_equal(out.means, ego.means)

    def test_cardinality_and_order(self):
        ego = random_gaussian_set(RNG, 4)
        n1 = random_gaussian_set(RNG, 3)
        n2 = random_gaussian_set(RNG, 2)
        out = stack(ego, [n1, n2])
        assert len(out) == 9
        assert np.array_equal(out.means[:4], ego.means)
        assert np.array_equal(out.means[4:7], n1.means)
        assert np.array_equal(out.means[7:], n2.means)

    def test_stack_then_splat_equals_sum(self):
        from gsfusion.core import GridGeometry
        from gsfusion.splat import SplatConfig, splat

        geom = GridGeometry(np.array([-2.0, -2.0, -2.0]), 0.5, (8, 8, 8))
        ego = random_gaussian_set(RNG, 5, center_span=1.5, scale_lo=0.2, scale_hi=0.8)
        nbr = random_gaussian_set(RNG, 6, center_span=1.5, scale_lo=0.2, scale_hi=0.8)
        cfg = SplatConfig()
        combined = splat(stack(ego, [nbr]), geom, cfg).channels
        separate = splat(ego, geom, cfg).channels + splat(nbr, geom, cfg).channels
        assert np.max(np.abs(combined - separate)) < 1e-6


class TestWireFormat:
    def test_header_only_24_bytes(self):
        msg = GaussianMessage(1, 2, 7, GaussianSet.empty(13))
        data = serialize_message(msg)
        assert len(data) == 24
        assert data[:4] == b"GMSG"
        for classes in (13, 5):                 # an empty message decodes under any count
            back = deserialize_message(data, classes).gaussians
            assert len(back) == 0 and back.semantics.shape == (0, classes)

    def test_one_gaussian_fp16(self):
        msg = GaussianMessage(0, 1, 0, random_gaussian_set(RNG, 1))
        assert len(serialize_message(msg)) == 24 + 48
        assert record_size(PRECISION_FP16) == 48

    def test_25600_gaussians_fp16(self):
        gs = random_gaussian_set(RNG, 25600)
        msg = GaussianMessage(0, 1, 0, gs)
        assert len(serialize_message(msg)) == 24 + 1228800

    def test_fp32_doubles_payload(self):
        gs = random_gaussian_set(RNG, 10)
        a = serialize_message(GaussianMessage(0, 1, 0, gs, PRECISION_FP16))
        b = serialize_message(GaussianMessage(0, 1, 0, gs, PRECISION_FP32))
        assert len(b) - 24 == 2 * (len(a) - 24)

    def test_roundtrip_fields(self):
        gs = random_gaussian_set(RNG, 17)
        msg = GaussianMessage(3, 9, 42, gs, PRECISION_FP32)
        back = deserialize_message(serialize_message(msg))
        assert (back.sender_id, back.receiver_id, back.frame_tag) == (3, 9, 42)
        assert back.count == 17
        assert np.allclose(back.gaussians.means, gs.means, atol=1e-6)

    def test_quantization_idempotent(self):
        gs = random_gaussian_set(RNG, 9)
        msg = GaussianMessage(0, 1, 5, gs, PRECISION_FP16)
        data1 = serialize_message(msg)
        back = deserialize_message(data1)
        data2 = serialize_message(GaussianMessage(0, 1, 5, back.gaussians, PRECISION_FP16))
        # payload scalars other than the renormalized quaternion are stable
        assert data2[:24] == data1[:24]
        v1 = np.frombuffer(data1, dtype="<f2", offset=24).reshape(9, 24)
        v2 = np.frombuffer(data2, dtype="<f2", offset=24).reshape(9, 24)
        keep = np.r_[0:6, 10:24]
        assert np.array_equal(v1[:, keep], v2[:, keep])

    def test_decoded_gaussians_pass_invariants(self):
        gs = random_gaussian_set(RNG, 50)
        back = deserialize_message(serialize_message(GaussianMessage(0, 1, 0, gs)))
        back.gaussians.validate()

    def test_deterministic_bytes(self):
        gs = random_gaussian_set(RNG, 5)
        msg = GaussianMessage(0, 1, 0, gs)
        assert serialize_message(msg) == serialize_message(msg)

    def test_decode_errors_distinct(self):
        gs = random_gaussian_set(RNG, 2)
        data = serialize_message(GaussianMessage(0, 1, 0, gs))
        with pytest.raises(BadMagicError):
            deserialize_message(b"NOPE" + data[4:])
        with pytest.raises(VersionMismatchError):
            deserialize_message(data[:4] + b"\x07\x00" + data[6:])
        with pytest.raises(TruncatedPayloadError):
            deserialize_message(data[:-3])
        bad = bytearray(data)
        bad[24:26] = np.array([np.nan], dtype="<f2").tobytes()
        with pytest.raises(CorruptFieldError):
            deserialize_message(bytes(bad))

    def test_quantization_past_the_condition_limit_is_corrupt(self):
        # condition 0.99e12 in fp64; fp16 rounds 3.01e-7 to 2.98e-7 and 0.3
        # to 0.29999, which gives 1.01e12, past what the splat can take. The
        # encoder refuses the set, so the bytes are written here by hand
        gs = random_gaussian_set(RNG, 3)
        gs.scales[1] = [0.3, 3.01e-7, 0.3]
        gs.validate()
        header = serialize_message(GaussianMessage(0, 1, 0, GaussianSet.empty()))
        header = header[:-4] + (3).to_bytes(4, "little")       # the Gaussian count
        rows = [gs.means, gs.scales, gs.rotations, gs.opacities[:, None], gs.semantics]
        data = header + np.concatenate(rows, axis=1).astype("<f2").tobytes()
        with pytest.raises(CorruptFieldError, match="condition number 1.01.e\\+12 exceeds"):
            deserialize_message(data)

    def test_fp16_encoder_refuses_scales_its_rounding_makes_ill_conditioned(self):
        # the same set: fp16's rounding pushes row 1 past 1e12, fp32's does not
        gs = random_gaussian_set(RNG, 3)
        gs.scales[1] = [3.01e-7, 0.3, 0.3]
        gs.validate()
        with pytest.raises(EncodeRangeError, match="1 of 3 Gaussians .* condition number "
                                                   "in float16, first at row 1"):
            serialize_message(GaussianMessage(0, 1, 0, gs))
        back = deserialize_message(serialize_message(GaussianMessage(0, 1, 0, gs,
                                                                     PRECISION_FP32)))
        back.gaussians.validate()
        assert np.array_equal(back.gaussians.scales, gs.scales.astype("<f4"))

    @pytest.mark.parametrize("field, col, fits, lost", [
        ("scales", 1, 2.0**-24, 2.0**-25),       # the least fp16 subnormal; its half rounds to 0
        ("semantics", 5, 65504.0, 65520.0),      # the fp16 maximum; 65 520 rounds to inf
    ], ids=["scale_underflow", "semantic_overflow"])
    def test_fp16_encoder_refuses_what_it_cannot_carry(self, field, col, fits, lost):
        gs = random_gaussian_set(RNG, 3)
        gs.scales[1] = 1e-5                      # round, so one tiny axis keeps the set valid
        for value in (fits, lost):
            getattr(gs, field)[1, col] = value
            gs.validate()
            fp32 = deserialize_message(serialize_message(GaussianMessage(0, 1, 0, gs,
                                                                         PRECISION_FP32)))
            assert getattr(fp32.gaussians, field)[1, col] == value
            if value == fits:
                back = deserialize_message(serialize_message(GaussianMessage(0, 1, 0, gs)))
                assert getattr(back.gaussians, field)[1, col] == value
            else:
                with pytest.raises(EncodeRangeError,
                                   match="1 of 3 Gaussians .* float16, first at row 1"):
                    serialize_message(GaussianMessage(0, 1, 0, gs))
        assert not issubclass(EncodeRangeError, DecodeError)


class TestBudgetAndStats:
    def test_budget_accepts_under(self):
        gs = random_gaussian_set(RNG, 3)
        msg = GaussianMessage(0, 1, 0, gs)
        assert enforce_budget(msg.byte_length(), 1_000_000)
        assert not enforce_budget(msg.byte_length(), msg.byte_length() - 1)
        assert enforce_budget(msg.byte_length(), msg.byte_length())

    def test_budget_zero_rejects_everything(self):
        msg = GaussianMessage(0, 1, 0, GaussianSet.empty(13))
        assert not enforce_budget(msg.byte_length(), 0)

    def test_stats_accumulate(self):
        stats = CommStats()
        for k in range(4):
            gs = random_gaussian_set(RNG, 5)
            msg = GaussianMessage(0, 1 + k % 2, 0, gs)
            stats.record(msg, msg.byte_length())
        assert stats.messages_sent == 4
        assert stats.gaussians_sent == 20
        assert stats.bytes_sent == 4 * (24 + 5 * 48)

    def test_added_stats_equal_one_record_of_every_event(self):
        # events split in two runs, the second sharing a link with the first
        events = [((0, 1), 5), ((2, 1), None), ((0, 2), 3), ((0, 1), None), ((3, 1), 7)]
        whole, parts = CommStats(), [CommStats(), CommStats()]
        for k, ((sender, receiver), count) in enumerate(events):
            for stats in (whole, parts[k >= 2]):
                if count is None:
                    stats.record_rejected((sender, receiver))
                else:
                    msg = GaussianMessage(sender, receiver, 0, random_gaussian_set(RNG, count))
                    stats.record(msg, msg.byte_length())
        joined = CommStats()
        for part in parts:
            joined.add(part)
        assert joined == whole
        assert list(joined.per_link) == list(whole.per_link)

    def test_every_rejection_lands_on_its_link(self):
        stats = CommStats()
        stats.record_rejected((2, 0))
        assert stats.messages_rejected == stats.per_link[(2, 0)].rejected == 1
        with pytest.raises(TypeError):
            stats.record_rejected()

    def test_halving_count_halves_bytes_within_header_slack(self):
        gs = random_gaussian_set(RNG, 400)
        full = GaussianMessage(0, 1, 0, gs).byte_length()
        half = GaussianMessage(0, 1, 0, gs.take(np.arange(200))).byte_length()
        ratio = half / full
        assert abs(ratio - 0.5) <= 24 / full + 1e-12

    def test_quarter_ratio_table3(self):
        # 25600 -> 6400 under identical retention reproduces the ~0.25 ratio.
        big = GaussianMessage(0, 1, 0, random_gaussian_set(RNG, 25600)).byte_length()
        small = GaussianMessage(0, 1, 0, random_gaussian_set(RNG, 6400)).byte_length()
        assert abs(small / big - 0.25) < 0.001

