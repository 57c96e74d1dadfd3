import sys
import threading

import numpy as np
import pytest

from gsfusion import core
from gsfusion.core import (
    DegenerateGaussianError,
    GaussianSet,
    GridGeometry,
    RigidTransform,
    Roi,
    SemanticGaussian,
    VoxelGrid,
    canonicalize_quaternion,
    covariance,
    density,
    quat_multiply,
    quat_to_rotmat,
    quat_to_rotmat_jacobian,
)

from gsfusion.splat import SplatConfig, splat

from helpers import density_oracle, random_gaussian, random_unit_quaternion, rotmat_from_quat

RNG = np.random.default_rng(20240511)


def make_gaussian(**kw):
    base = dict(
        mean=np.array([0.0, 0.0, 0.0]),
        scale=np.array([1.0, 1.0, 1.0]),
        rotation=np.array([1.0, 0.0, 0.0, 0.0]),
        opacity=1.0,
        semantics=np.ones(13),
    )
    base.update(kw)
    return SemanticGaussian(**base)


class TestQuaternions:
    def test_identity_rotmat(self):
        assert np.allclose(quat_to_rotmat([1.0, 0, 0, 0]), np.eye(3))

    def test_90deg_about_z(self):
        q = np.array([np.sqrt(0.5), 0.0, 0.0, np.sqrt(0.5)])
        r = quat_to_rotmat(q)
        assert np.allclose(r @ np.array([1.0, 0, 0]), [0.0, 1.0, 0.0], atol=1e-12)
        assert np.allclose(r, rotmat_from_quat(q), atol=1e-12)

    def test_double_cover(self):
        for _ in range(20):
            q = random_unit_quaternion(RNG)
            assert np.allclose(quat_to_rotmat(q), quat_to_rotmat(-q), atol=1e-15)

    def test_orthonormal_det_one(self):
        for _ in range(50):
            r = quat_to_rotmat(random_unit_quaternion(RNG))
            assert np.allclose(r @ r.T, np.eye(3), atol=1e-9)
            assert abs(np.linalg.det(r) - 1.0) < 1e-9

    def test_non_unit_rejected(self):
        with pytest.raises(ValueError):
            quat_to_rotmat([1.0, 0.1, 0.0, 0.0])

    def test_multiply_is_homomorphism(self):
        for _ in range(20):
            a = random_unit_quaternion(RNG)
            b = random_unit_quaternion(RNG)
            lhs = quat_to_rotmat(quat_multiply(a, b))
            rhs = quat_to_rotmat(a) @ quat_to_rotmat(b)
            assert np.allclose(lhs, rhs, atol=1e-12)

    def test_canonicalize_sign_flip(self):
        assert np.allclose(canonicalize_quaternion([-1.0, 0, 0, 0]), [1.0, 0, 0, 0])

    def test_canonicalize_tie_rule(self):
        assert np.allclose(canonicalize_quaternion([0.0, 0, 0, -1.0]), [0.0, 0, 0, 1.0])
        assert np.allclose(canonicalize_quaternion([0.0, -0.6, 0, 0.8]), [0.0, 0.6, 0, -0.8])

    def test_canonicalize_normalizes(self):
        assert np.allclose(canonicalize_quaternion([2.0, 0, 0, 0]), [1.0, 0, 0, 0])

    def test_canonicalize_zero_rejected(self):
        with pytest.raises(ValueError):
            canonicalize_quaternion([0.0, 0.0, 0.0, 0.0])

    def test_rotmat_jacobian_matches_fd(self):
        # FD against the same algebraic form the library evaluates; the
        # homogeneous formula differs off the unit sphere by a radial term.
        def formula(q):
            w, x, y, z = q
            return np.array([
                [1 - 2 * (y * y + z * z), 2 * (x * y - z * w), 2 * (x * z + y * w)],
                [2 * (x * y + z * w), 1 - 2 * (x * x + z * z), 2 * (y * z - x * w)],
                [2 * (x * z - y * w), 2 * (y * z + x * w), 1 - 2 * (x * x + y * y)],
            ])

        q = random_unit_quaternion(RNG)
        jac = quat_to_rotmat_jacobian(q)
        eps = 1e-7
        for p in range(4):
            dq = np.zeros(4)
            dq[p] = eps
            num = (formula(q + dq) - formula(q - dq)) / (2 * eps)
            assert np.allclose(jac[p], num, atol=1e-6)


class TestCovariance:
    def test_isotropic_any_rotation(self):
        g = make_gaussian(rotation=random_unit_quaternion(RNG))
        assert np.allclose(covariance(g), np.eye(3), atol=1e-12)

    def test_axis_aligned(self):
        g = make_gaussian(scale=np.array([2.0, 1.0, 1.0]))
        assert np.allclose(covariance(g), np.diag([4.0, 1.0, 1.0]))

    def test_rotated_by_90(self):
        q = np.array([np.sqrt(0.5), 0.0, 0.0, np.sqrt(0.5)])
        g = make_gaussian(scale=np.array([2.0, 1.0, 1.0]), rotation=q)
        r = rotmat_from_quat(q)
        expected = r @ np.diag([4.0, 1.0, 1.0]) @ r.T
        assert np.allclose(covariance(g), np.diag([1.0, 4.0, 1.0]), atol=1e-9)
        assert np.allclose(covariance(g), expected, atol=1e-12)

    def test_symmetric_and_eigenvalues(self):
        for _ in range(25):
            g = random_gaussian(RNG)
            cov = covariance(g)
            assert np.allclose(cov, cov.T, atol=1e-9)
            eig = np.sort(np.linalg.eigvalsh(cov))
            assert np.allclose(eig, np.sort(g.scale**2), atol=1e-6)


class TestDensity:
    def test_at_mean_equals_opacity_times_semantics(self):
        g = random_gaussian(RNG)
        assert np.array_equal(density(g, g.mean), g.opacity * g.semantics)

    def test_zero_opacity(self):
        g = make_gaussian(opacity=0.0)
        assert np.all(density(g, np.array([0.3, -0.2, 1.0])) == 0.0)

    def test_unit_isotropic_at_distance_one(self):
        g = make_gaussian(semantics=np.arange(13, dtype=float))
        for axis in range(3):
            x = np.zeros(3)
            x[axis] = 1.0
            expected = np.exp(-0.5) * g.semantics
            assert np.allclose(density(g, x), expected, rtol=1e-12)

    def test_bounded_by_peak(self):
        for _ in range(20):
            g = random_gaussian(RNG)
            x = RNG.uniform(-5, 5, size=3)
            val = density(g, x)
            assert np.all(val >= 0.0)
            assert np.all(val <= g.opacity * g.semantics + 1e-15)

    def test_double_cover_invariance(self):
        for _ in range(20):
            g = random_gaussian(RNG)
            flipped = SemanticGaussian(g.mean, g.scale, -g.rotation, g.opacity, g.semantics)
            x = RNG.uniform(-4, 4, size=3)
            assert np.allclose(density(g, x), density(flipped, x), rtol=1e-12)

    def test_matches_explicit_inverse_oracle(self):
        for _ in range(100):
            g = random_gaussian(RNG)
            x = RNG.uniform(-6, 6, size=3)
            got = density(g, x)
            want = density_oracle(g, x)
            assert np.allclose(got, want, rtol=1e-9, atol=1e-300)

    def test_degenerate_rejected(self):
        with pytest.raises(DegenerateGaussianError):
            g = make_gaussian(scale=np.array([1.0, 1.0, 1e-7]))
            density(g, np.zeros(3))

    def test_equals_the_splat_of_the_gaussian_bit_for_bit(self):
        # a truncation wider than the grid and floor 0, so every voxel holds
        # the Gaussian's value, summed onto +0.0
        rng = np.random.default_rng(3)
        geom = GridGeometry(np.array([-2.0, -2.0, -1.2]), 0.4, (10, 10, 6))
        centers = geom.voxel_centers().reshape(-1, 3)
        cfg = SplatConfig(truncation_sigma=50.0, min_contribution=0.0)
        for _ in range(10):
            g = random_gaussian(rng, center_span=2.0)
            grid = splat(GaussianSet.from_gaussians([g]), geom, cfg).channels.reshape(-1, 13)
            assert np.array_equal(np.stack([density(g, c) for c in centers]), grid)


class TestTypes:
    def test_gaussian_invariants_enforced(self):
        with pytest.raises(ValueError):
            make_gaussian(scale=np.array([1.0, 0.0, 1.0]))
        with pytest.raises(ValueError):
            make_gaussian(opacity=1.5)
        with pytest.raises(ValueError):
            make_gaussian(semantics=-np.ones(13))
        with pytest.raises(ValueError):
            make_gaussian(rotation=np.array([1.0, 1.0, 0.0, 0.0]))
        with pytest.raises(DegenerateGaussianError,       # the splat's conditioning
                           match=r"^covariance condition number 1\.000e\+14 exceeds 1e12$"):
            make_gaussian(scale=np.array([1e-7, 1.0, 1.0]))

    def test_gaussian_canonicalizes_rotation(self):
        g = make_gaussian(rotation=np.array([-1.0, 0.0, 0.0, 0.0]))
        assert g.rotation[0] == 1.0

    def test_rigid_transform_inverse_identity(self):
        for _ in range(20):
            t = RigidTransform(random_unit_quaternion(RNG), RNG.uniform(-3, 3, 3))
            comp = t.compose(t.inverse())
            assert np.allclose(comp.translation, 0.0, atol=1e-9)
            assert np.allclose(np.abs(comp.rotation_q[0]), 1.0, atol=1e-9)

    def test_rigid_transform_associative(self):
        a, b, c = (RigidTransform(random_unit_quaternion(RNG), RNG.uniform(-2, 2, 3))
                   for _ in range(3))
        p = RNG.uniform(-2, 2, 3)
        lhs = a.compose(b.compose(c)).apply(p)
        rhs = a.compose(b).compose(c).apply(p)
        assert np.allclose(lhs, rhs, atol=1e-9)

    def test_roi_closed_bounds(self):
        roi = Roi(np.zeros(3), np.array([1.0, 2.0, 3.0]))
        assert roi.contains(np.array([1.0, 2.0, 3.0]))
        assert roi.contains(np.array([-1.0, 0.0, 0.0]))
        assert not roi.contains(np.array([1.0 + 1e-12, 0.0, 0.0]))

    def test_grid_geometry_centers(self):
        geom = GridGeometry(np.array([0.0, 0.0, 0.0]), 0.5, (2, 3, 1))
        centers = geom.voxel_centers()
        assert centers.shape == (2, 3, 1, 3)
        assert np.allclose(centers[0, 0, 0], [0.25, 0.25, 0.25])
        assert np.allclose(centers[1, 2, 0], [0.75, 1.25, 0.25])

    def test_grid_rejects_bad_shapes(self):
        geom = GridGeometry(np.zeros(3), 0.4, (2, 2, 2), num_classes=3)
        with pytest.raises(ValueError):
            from gsfusion.core import VoxelGrid

            VoxelGrid(geom, channels=np.zeros((2, 2, 2, 4)))

    @pytest.mark.parametrize("labels", [
        np.full((2, 2, 2), 1.0),
        np.full((2, 2, 2), 3),
        np.full((2, 2, 2), 300),
        np.full((2, 2, 2), -1),
    ], ids=["float", "num_classes", "past_uint8", "negative"])
    def test_grid_rejects_bad_labels(self, labels):
        geom = GridGeometry(np.zeros(3), 0.4, (2, 2, 2), num_classes=3)
        with pytest.raises(ValueError, match="labels must be integers|label out of range"):
            VoxelGrid(geom, labels=labels)
        grid = VoxelGrid(geom, labels=np.full((2, 2, 2), 2, dtype=np.int64))
        assert grid.labels.dtype == np.uint8 and np.all(grid.labels == 2)

    @pytest.mark.parametrize("build", [
        lambda: RigidTransform(np.array([np.nan, 0.0, 0.0, 0.0]), np.zeros(3)),
        lambda: RigidTransform(np.array([1.0, 0.0, 0.0, 0.0]), np.array([0.0, np.nan, 0.0])),
        lambda: GridGeometry(np.zeros(3), np.nan, (2, 2, 2)),
        lambda: GridGeometry(np.zeros(3), np.inf, (2, 2, 2)),
        lambda: GridGeometry(np.array([0.0, -np.inf, 0.0]), 0.4, (2, 2, 2)),
        lambda: Roi(np.array([np.nan, 0.0, 0.0]), np.ones(3)),
    ], ids=["rigid_quaternion", "rigid_translation", "voxel_size_nan", "voxel_size_inf",
            "grid_origin", "roi_center"])
    def test_non_finite_rejected(self, build):
        with pytest.raises(ValueError):
            build()

    def test_gaussian_set_roundtrip(self):
        singles = [random_gaussian(RNG) for _ in range(5)]
        gs = GaussianSet.from_gaussians(singles)
        back = gs.to_gaussians()
        for a, b in zip(singles, back):
            assert np.array_equal(a.mean, b.mean)
            assert np.array_equal(a.semantics, b.semantics)

    def test_gaussian_set_validate(self):
        gs = GaussianSet.from_gaussians([random_gaussian(RNG) for _ in range(3)])
        gs.validate()
        bad = gs.copy()
        bad.opacities[1] = 2.0
        with pytest.raises(ValueError):
            bad.validate()

    @pytest.mark.parametrize("field", ["means", "scales", "rotations", "opacities",
                                       "semantics"])
    def test_ragged_set_rejected_at_construction(self, field):
        gs = GaussianSet.from_gaussians([random_gaussian(RNG) for _ in range(5)])
        fields = {f: getattr(gs, f) for f in ("means", "scales", "rotations", "opacities",
                                              "semantics")}
        fields[field] = fields[field][:4]
        with pytest.raises(ValueError, match="^ragged GaussianSet: "):
            GaussianSet(**fields)

    @pytest.mark.parametrize("field", ["means", "scales", "rotations", "opacities",
                                       "semantics"])
    def test_nan_reported_as_non_finite(self, field):
        gs = GaussianSet.from_gaussians([random_gaussian(RNG) for _ in range(3)])
        getattr(gs, field)[1] = np.nan
        with pytest.raises(ValueError, match="^non-finite value in GaussianSet$"):
            gs.validate()
        with pytest.raises(ValueError, match="^non-finite value in GaussianSet$"):
            gs.to_gaussians()

    def test_gaussian_set_validate_enforces_the_splat_conditioning(self):
        # a set that passes validate() must splat: condition number <= 1e12
        gs = GaussianSet.from_gaussians([random_gaussian(RNG) for _ in range(3)])
        gs.scales[1] = [2e-7, 1.0, 1.0]                             # condition 2.5e13
        with pytest.raises(DegenerateGaussianError,
                           match=r"^covariance condition number 2\.500e\+13 exceeds 1e12$"):
            gs.validate()
        gs.scales[1] = [1.001e-6, 1.0, 1.0]                         # condition 0.998e12
        gs.validate()


needs_setter = pytest.mark.skipif(core._set_blas_threads is None,
                                  reason="numpy's BLAS has no per-thread thread-count setter")


class TestTwoThreads:
    @needs_setter
    def test_even_indices_on_the_caller_odd_on_the_worker(self):
        caller, ran, nested = threading.current_thread(), {}, []

        def item(i):
            ran[i] = threading.current_thread()
            # the team is busy: a nested _each runs inline on this thread
            nested.append(core._each(lambda j: threading.current_thread(), 3)
                          == [ran[i]] * 3)
            return i * i

        before = threading.enumerate()
        with core._two_threads():
            assert core._each(item, 5) == [0, 1, 4, 9, 16]
            worker = ran[1]
            with core._two_threads():           # a team is not opened twice
                assert threading.active_count() == len(before) + 1
        assert threading.enumerate() == before
        assert worker is not caller and all(nested)
        assert [ran[i] is caller for i in range(5)] == [True, False, True, False, True]
        assert ran[3] is worker

    def test_without_a_team_runs_inline(self, monkeypatch):
        monkeypatch.setattr(core, "ThreadPoolExecutor", None)   # no pool may be made
        assert core._each(lambda i: (i, threading.current_thread()), 3) == \
            [(i, threading.current_thread()) for i in range(3)]
        monkeypatch.setattr(core, "_set_blas_threads", None)
        with core._two_threads():
            assert core._each(lambda i: threading.current_thread(), 2) == \
                [threading.current_thread()] * 2

    @needs_setter
    def test_each_folded_holds_at_most_two_results(self):
        alive, folded = set(), []

        def make(i):
            alive.add(i)
            assert len(alive) <= 2
            return i

        def fold(i):
            folded.append(i)
            alive.discard(i)

        with core._two_threads():
            core._each_folded(make, 7, fold)
        assert folded == list(range(7))

    @needs_setter
    @pytest.mark.parametrize("n", [1, 5])
    def test_each_folded_odd_count_runs_its_last_item_on_the_caller(self, n):
        caller, ran, folded = threading.current_thread(), {}, []

        def make(i):
            ran[i] = threading.current_thread()
            return i * i

        with core._two_threads():
            core._each_folded(make, n, folded.append)
        assert folded == [i * i for i in range(n)]
        assert [ran[i] is caller for i in range(n)] == [i % 2 == 0 for i in range(n)]

    @needs_setter
    def test_many_teams_at_once(self):
        # four callers, each with its own team (eight threads on this
        # machine's cores), switching threads as often as the interpreter
        # allows; every item writes only its own entry
        n, rounds = 9, 50
        out = np.zeros((4, rounds, n), dtype=np.int64)
        failures = []

        def caller(c):
            try:
                with core._two_threads():
                    for r in range(rounds):
                        def item(i):
                            out[c, r, i] = sum(core._each(lambda j: i * 10 + j, 2))
                        core._each(item, n)
            except Exception as exc:                # reported below, not lost
                failures.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=caller, args=(c,)) for c in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads) and not failures
        assert np.all(out == 20 * np.arange(n) + 1)


def _segment_counts(seed, n, longest=64):
    """`n` neighbour-list lengths of 1..`longest` pairs, as fusion cuts."""
    return np.random.default_rng(seed).integers(1, longest + 1, size=n)


class TestWholeRuns:
    """`core._whole_runs`: near-equal runs of whole items under a bound."""

    @staticmethod
    def _check_cover(runs, sizes):
        edges = np.concatenate([[0], np.cumsum(sizes)])
        assert runs[0][0] == 0 and runs[-1][1] == sizes.size
        for (a, b, u0, u1), nxt in zip(runs, runs[1:] + [None]):
            assert b > a and (u0, u1) == (edges[a], edges[b])
            assert nxt is None or nxt[0] == b

    @pytest.mark.parametrize("bound", [256, 1000, 4096])
    @pytest.mark.parametrize("n", [1, 2, 63, 64, 65, 300, 1000])
    def test_fusion_blocks_even_above_the_bound(self, n, bound):
        # segments of at most 64 pairs (`max_neighbors`' default), a
        # quarter of the bound or less, never make cuts merge
        counts = _segment_counts(n * bound, n)
        runs = core._whole_runs(counts, bound, even=True)
        self._check_cover(runs, counts)
        if counts.sum() > bound:
            assert len(runs) % 2 == 0
        else:
            assert len(runs) == 1

    @pytest.mark.parametrize("even", [False, True])
    @pytest.mark.parametrize("seed", range(6))
    def test_runs_within_one_segment_of_equal(self, seed, even):
        counts = _segment_counts(seed, 200 + 37 * seed)
        bound = int(counts.sum()) // (3 + seed)
        runs = core._whole_runs(counts, bound, even)
        self._check_cover(runs, counts)
        share = counts.sum() / len(runs)
        assert all(abs((u1 - u0) - share) <= counts.max() for _, _, u0, u1 in runs)
        assert all(u1 - u0 <= bound for _, _, u0, u1 in runs)
        assert len(runs) >= -(-counts.sum() // bound)

    @pytest.mark.parametrize("even", [False, True])
    def test_only_a_single_item_passes_the_bound(self, even):
        rng = np.random.default_rng(77)
        for _ in range(200):
            sizes = rng.integers(0, 300, size=rng.integers(1, 80))
            sizes[rng.integers(sizes.size, size=3)] = rng.integers(0, 3000, size=3)
            bound = int(rng.integers(1, 600))
            runs = core._whole_runs(sizes, bound, even)
            self._check_cover(runs, sizes)
            for a, b, u0, u1 in runs:
                assert u1 - u0 <= bound or b - a == 1, (sizes, bound, runs)
            for i in np.flatnonzero(sizes > bound):     # a run of its own
                assert (i, i + 1) in [(a, b) for a, b, _, _ in runs]

    def test_edge_cases(self):
        assert core._whole_runs(np.zeros(0, dtype=np.int64), 8) == []
        assert core._whole_runs(np.zeros(5, dtype=np.int64), 8) == [(0, 5, 0, 0)]
        assert core._whole_runs(np.array([3, 5]), 8, even=True) == [(0, 2, 0, 8)]
        assert core._whole_runs(np.array([3, 6]), 8, even=True) == [(0, 1, 0, 3), (1, 2, 3, 9)]
        # the splat's empty-space prior: one box of the whole grid
        assert core._whole_runs(np.array([80_000]), 1 << 14) == [(0, 1, 0, 80_000)]

    @needs_setter
    def test_runs_depend_only_on_the_sizes(self):
        counts = _segment_counts(5, 500)
        alone = core._whole_runs(counts, 1000, even=True)
        with core._two_threads():
            assert core._whole_runs(counts, 1000, even=True) == alone
            assert core._each(lambda i: core._whole_runs(counts, 1000, even=True), 2) == \
                [alone, alone]
