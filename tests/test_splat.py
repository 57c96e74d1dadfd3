import pickle
import re
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from gsfusion.core import (
    DegenerateGaussianError,
    GaussianSet,
    GridGeometry,
    SemanticGaussian,
    VoxelGrid,
    _quat_to_rotmat_unchecked,
)
from gsfusion import splat as splat_module
from gsfusion.sim import empty_space_gaussian
from gsfusion.splat import (
    _BLOCK,
    Pairs,
    SplatConfig,
    _pair_blocks,
    labels_from_channels,
    load_voxg,
    read_voxg,
    save_voxg,
    splat,
    splat_backward,
    splat_sparse,
    write_voxg,
)

from helpers import (
    bincount_splat,
    dense_splat_oracle,
    pair_geometry_oracle,
    per_channel_splat,
    random_unit_quaternion,
    repeat_pair_lists,
    splat_pairs_oracle,
    two_pass_labels,
)

RNG = np.random.default_rng(777)


def recorded_pairs(gaussians, geometry, cfg) -> Pairs:
    """The pairs of the blocks a splat recording every row keeps, concatenated."""
    _, tape = splat(gaussians, geometry, cfg, record=np.arange(len(gaussians)))
    if not tape.blocks:
        return Pairs(np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64), np.zeros(0),
                     np.zeros((0, 3)), np.zeros((0, 3)))
    return Pairs(*(np.concatenate(field) for field in zip(*(b.pairs for b in tape.blocks))))


def at_tape_voxels(tape, grad_channels):
    """The rows of a whole-grid channel gradient that `splat_backward` reads."""
    return grad_channels.reshape(-1, grad_channels.shape[-1])[tape.voxels]


def recorded_backward(gaussians, geometry, cfg, grad_channels):
    _, tape = splat(gaussians, geometry, cfg, record=np.arange(len(gaussians)))
    return splat_backward(tape, at_tape_voxels(tape, grad_channels))

C = 13


def small_geom(dims=(10, 10, 4), voxel=0.4, num_classes=C):
    return GridGeometry(np.array([-2.0, -2.0, -0.8]), voxel, dims, num_classes=num_classes)


def tight_set(rng, n, geom, scale_lo=0.15, scale_hi=0.6):
    lo = geom.origin + 0.2
    hi = geom.origin + np.array(geom.dims) * geom.voxel_size - 0.2
    gaussians = []
    for _ in range(n):
        gaussians.append(SemanticGaussian(
            mean=rng.uniform(lo, hi),
            scale=rng.uniform(scale_lo, scale_hi, 3),
            rotation=random_unit_quaternion(rng),
            opacity=float(rng.uniform(0.1, 1.0)),
            semantics=rng.uniform(0, 1, C),
        ))
    return GaussianSet.from_gaussians(gaussians)


class TestSplat:
    def test_empty_set_all_zero(self):
        geom = small_geom()
        grid = splat(GaussianSet.empty(C), geom, SplatConfig())
        assert np.all(grid.channels == 0.0)

    def test_single_gaussian_on_voxel_center(self):
        geom = small_geom()
        center = geom.voxel_centers()[4, 5, 2]
        sem = np.zeros(C)
        sem[3] = 1.0
        g = SemanticGaussian(center, np.full(3, geom.voxel_size),
                             np.array([1.0, 0, 0, 0]), 1.0, sem)
        grid = splat(GaussianSet.from_gaussians([g]), geom, SplatConfig(min_contribution=0.0))
        assert grid.channels[4, 5, 2, 3] == 1.0
        assert np.max(grid.channels) == 1.0

    def test_matches_dense_oracle(self):
        geom = small_geom()
        gs = tight_set(RNG, 50, geom)
        grid = splat(gs, geom, SplatConfig(truncation_sigma=6.0, min_contribution=0.0))
        oracle = dense_splat_oracle(gs, geom)
        assert np.max(np.abs(grid.channels - oracle)) < 1e-4

    def test_additivity(self):
        geom = small_geom(dims=(8, 8, 4))
        a = tight_set(RNG, 7, geom)
        b = tight_set(RNG, 5, geom)
        cfg = SplatConfig()
        both = splat(GaussianSet.concat([a, b]), geom, cfg)
        sep = splat(a, geom, cfg).channels + splat(b, geom, cfg).channels
        assert np.max(np.abs(both.channels - sep)) < 1e-6

    def test_truncation_monotone(self):
        geom = small_geom(dims=(8, 8, 4))
        gs = tight_set(RNG, 10, geom)
        prev = splat(gs, geom, SplatConfig(truncation_sigma=1.0, min_contribution=0.0)).channels
        for sig in (2.0, 3.0, 5.0):
            cur = splat(gs, geom, SplatConfig(truncation_sigma=sig, min_contribution=0.0)).channels
            assert np.all(cur >= prev - 1e-15)
            prev = cur

    def test_order_independent(self):
        geom = small_geom(dims=(8, 8, 4))
        gs = tight_set(RNG, 20, geom)
        perm = RNG.permutation(20)
        cfg = SplatConfig()
        a = splat(gs, geom, cfg).channels
        b = splat(gs.take(perm), geom, cfg).channels
        assert np.max(np.abs(a - b)) < 1e-6

    def test_deterministic(self):
        geom = small_geom()
        gs = tight_set(RNG, 12, geom)
        cfg = SplatConfig()
        assert np.array_equal(splat(gs, geom, cfg).channels, splat(gs, geom, cfg).channels)

    def test_rigid_equivariance_translation(self):
        from gsfusion.core import GridGeometry, RigidTransform
        from gsfusion.comms import transform_set

        geom = small_geom(dims=(8, 8, 4))
        gs = tight_set(RNG, 10, geom)
        t = RigidTransform(np.array([1.0, 0, 0, 0]), np.array([3.2, -1.6, 0.8]))
        moved_geom = GridGeometry(geom.origin + t.translation, geom.voxel_size,
                                  geom.dims, geom.num_classes)
        cfg = SplatConfig()
        a = splat(gs, geom, cfg).channels
        b = splat(transform_set(gs, t), moved_geom, cfg).channels
        assert np.max(np.abs(a - b)) < 1e-5

    def test_rigid_equivariance_full_via_point_oracle(self):
        # rotated grids are not representable, so the rotational case is
        # checked on the dense field evaluated at transformed sample points
        from gsfusion.comms import transform_set
        from helpers import channels_at_points_oracle, random_rigid_transform

        geom = small_geom(dims=(4, 4, 2))
        gs = tight_set(RNG, 5, geom)
        t = random_rigid_transform(RNG)
        pts = geom.voxel_centers().reshape(-1, 3)
        a = channels_at_points_oracle(gs, pts)
        b = channels_at_points_oracle(transform_set(gs, t), t.apply(pts))
        assert np.max(np.abs(a - b)) < 1e-9 * max(1.0, np.max(np.abs(a)))


def pair_test_set(geom):
    """Rotated anisotropic Gaussians inside, across and wholly outside the
    grid, needles and a disc just under the 1e12 condition limit through
    voxel centers, Gaussians whose truncation surface passes through voxel
    centers, and the 20 m empty-space Gaussian."""
    rng = np.random.default_rng(4242)
    h = geom.voxel_size
    lo = geom.origin
    hi = geom.origin + np.array(geom.dims) * h
    centers = geom.voxel_centers().reshape(-1, 3)
    thin = 1.0 / 0.999e6                        # condition (0.999e6)**2, just under 1e12
    means, scales, rots = [], [], []

    def add(mean, scale, rot=None):
        means.append(mean)
        scales.append(scale)
        rots.append(random_unit_quaternion(rng) if rot is None else rot)

    for _ in range(30):                         # in the grid and across its border
        add(rng.uniform(lo - 1.0, hi + 1.0), np.exp(rng.uniform(np.log(0.05), np.log(0.9), 3)))
    for far in (lo - 4.0, hi + 4.0, [hi[0] + 3.0, lo[1] + 0.5, lo[2] + 0.5]):
        add(np.asarray(far, dtype=float), np.full(3, 0.3))
    ident = np.array([1.0, 0.0, 0.0, 0.0])
    for c in centers[rng.choice(len(centers), 4, replace=False)]:
        add(c, np.array([0.9, 0.9 * thin, 0.9 * thin]))            # needle, random axis
    add(centers[17], np.array([1.2, 1.2 * thin, 1.2 * thin]), ident)  # needle along x
    add(centers[40], np.array([0.8, 0.8, 0.8 * thin]), ident)        # disc in the xy plane
    for c in centers[rng.choice(len(centers), 3, replace=False)]:
        add(c, np.full(3, h), ident)            # t-sigma surface through voxel centers
    gs = GaussianSet(np.array(means), np.array(scales), np.array(rots),
                     rng.uniform(0.1, 1.0, len(means)), rng.uniform(0, 1, (len(means), C)))
    return GaussianSet.concat([gs, empty_space_gaussian()])


class TestPairLists:
    @pytest.mark.parametrize("sigma", [1.0, 3.0])
    def test_equals_brute_force_over_every_voxel(self, sigma):
        geom = GridGeometry(np.array([-1.5, -1.2, -0.6]), 0.3, (12, 10, 6), num_classes=C)
        gs = pair_test_set(geom)
        gs.validate()
        pairs = recorded_pairs(gs, geom, SplatConfig(truncation_sigma=sigma))
        pg, pv, e = pairs.gauss, pairs.voxel, pairs.e
        og, ov, oe = splat_pairs_oracle(gs, geom, sigma,
                                        _quat_to_rotmat_unchecked(gs.rotations))
        assert np.array_equal(pg, og)
        assert np.array_equal(pv, ov)
        assert np.array_equal(e, oe)            # bit for bit
        # canonical order: ascending gaussian, then ascending flat voxel
        assert np.all((np.diff(pg) > 0) | ((np.diff(pg) == 0) & (np.diff(pv) > 0)))
        # the set reaches every case it is built for
        per_gauss = np.bincount(pg, minlength=len(gs))
        assert np.all(per_gauss[30:33] == 0)                        # wholly outside
        assert np.all(per_gauss[33:39] >= 1)                        # needles and disc
        assert per_gauss[-1] == geom.num_voxels                     # empty-space Gaussian

    def test_gaussian_wider_than_1024_voxels(self):
        geom = GridGeometry(np.zeros(3), 0.1, (2048, 1, 1), num_classes=C)
        sem = np.zeros((1, C))
        sem[0, 2] = 1.0
        gs = GaussianSet(np.array([[102.4, 0.05, 0.05]]), np.full((1, 3), 40.0),
                         np.array([[1.0, 0.0, 0.0, 0.0]]), np.ones(1), sem)
        grid = splat(gs, geom, SplatConfig(min_contribution=0.0))
        assert np.all(grid.channels[..., 2] > 0.0)
        assert np.max(np.abs(grid.channels - dense_splat_oracle(gs, geom))) < 1e-12

    def test_degenerate_gaussian_rejected_after_valid_ones(self):
        geom = small_geom()
        gs = tight_set(RNG, 6, geom)
        splat(gs, geom)
        gs.scales[2] = [1.0, 1.0, 1e-7]                             # condition 1e14
        gs.scales[4] = [1e-8, 1.0, 1.0]                             # condition 1e16
        with pytest.raises(DegenerateGaussianError,
                           match=r"^covariance condition number 1\.000e\+14 exceeds 1e12$"):
            splat(gs, geom)
        gs.scales[2] = [0.3, 0.0, 0.3]
        with pytest.raises(DegenerateGaussianError, match="condition number inf exceeds"):
            splat(gs, geom)


def zero_pair_set(geom):
    """Valid Gaussians whose truncation boxes all miss the grid."""
    far = geom.origin + np.array(geom.dims) * geom.voxel_size + 5.0
    n = 3
    return GaussianSet(np.tile(far, (n, 1)) + np.arange(n)[:, None], np.full((n, 3), 0.3),
                       np.tile([1.0, 0.0, 0.0, 0.0], (n, 1)), np.ones(n), np.ones((n, C)))


PAIR_GEOM = GridGeometry(np.array([-1.5, -1.2, -0.6]), 0.3, (12, 10, 6), num_classes=C)
ACCUMULATION_SETS = {
    "pair_test_set": lambda: pair_test_set(PAIR_GEOM),
    "tight": lambda: tight_set(np.random.default_rng(31), 12, PAIR_GEOM),
    "empty": lambda: GaussianSet.empty(C),
    "zero_pairs": lambda: zero_pair_set(PAIR_GEOM),
}


class TestPairTape:
    @pytest.mark.parametrize("case", sorted(ACCUMULATION_SETS))
    def test_delta_and_local_equal_recomputation(self, case):
        gs = ACCUMULATION_SETS[case]()
        pairs = recorded_pairs(gs, PAIR_GEOM, SplatConfig())
        delta, local = pair_geometry_oracle(gs, PAIR_GEOM, pairs.gauss, pairs.voxel,
                                            _quat_to_rotmat_unchecked(gs.rotations))
        assert pairs.delta.shape == pairs.local.shape == (pairs.gauss.size, 3)
        assert np.array_equal(pairs.delta, delta)
        assert np.array_equal(pairs.local, local)
        assert pairs.voxel.size == pairs.e.size == pairs.gauss.size
        assert (pairs.gauss.size == 0) == (case in ("empty", "zero_pairs"))

    def test_local_of_three_negative_zero_products_is_positive_zero(self):
        # a half turn about z at a voxel center: along x the offset is +0.0
        # and R = diag(-1, -1, 1), so on cells below the mean in y and z all
        # three products of local_x are -0.0; einsum, which sums onto +0.0,
        # gives +0.0 there, and so must the splat's tables
        center = PAIR_GEOM.voxel_centers()[5, 5, 3]
        sem = np.zeros((1, C))
        sem[0, 1] = 1.0
        gs = GaussianSet(center[None], np.full((1, 3), 0.5), np.array([[0.0, 0.0, 0.0, 1.0]]),
                         np.ones(1), sem)
        pairs = recorded_pairs(gs, PAIR_GEOM, SplatConfig())
        delta, local = pair_geometry_oracle(gs, PAIR_GEOM, pairs.gauss, pairs.voxel,
                                            _quat_to_rotmat_unchecked(gs.rotations))
        assert pairs.local.tobytes() == local.tobytes()
        naive = (delta[:, 0] * -1.0 + delta[:, 1] * 0.0) + delta[:, 2] * 0.0
        assert np.any(np.signbit(naive) & (naive == 0.0))
        assert not np.any(np.signbit(pairs.local[:, 0]) & (pairs.local[:, 0] == 0.0))

    @pytest.mark.parametrize("floor", [0.0, 1e-4])
    @pytest.mark.parametrize("case", sorted(ACCUMULATION_SETS))
    def test_flat_bincount_equals_per_channel_loop(self, case, floor):
        gs = ACCUMULATION_SETS[case]()
        cfg = SplatConfig(min_contribution=floor)
        pairs = recorded_pairs(gs, PAIR_GEOM, cfg)
        grid = splat(gs, PAIR_GEOM, cfg)
        assert np.array_equal(grid.channels, per_channel_splat(gs, PAIR_GEOM, cfg, pairs))


def mixed_set(rng, n, geom, scale_lo, scale_hi):
    """Random Gaussians over the grid whose semantic rows are one-hot,
    dense or all zero in turn, then two at voxel centers (e = 1) with
    opacity 1 whose weights are exactly the default floor 1e-4 and the
    largest double below it."""
    lo = geom.origin
    hi = geom.origin + np.array(geom.dims) * geom.voxel_size
    sem = np.zeros((n, C))
    one_hot = np.arange(0, n, 3)
    sem[one_hot, rng.integers(0, C, one_hot.size)] = rng.uniform(0.5, 4.0, one_hot.size)
    sem[1::3] = rng.uniform(0, 1, (len(sem[1::3]), C))
    gs = GaussianSet(rng.uniform(lo, hi, (n, 3)), rng.uniform(scale_lo, scale_hi, (n, 3)),
                     np.array([random_unit_quaternion(rng) for _ in range(n)]),
                     rng.uniform(0.1, 1.0, n), sem)
    at_floor = np.zeros((2, C))
    at_floor[0, 4] = 1e-4
    at_floor[1, 4] = np.nextafter(1e-4, 0.0)
    centers = geom.origin + (np.array([[1, 2, 1], [9, 8, 4]]) + 0.5) * geom.voxel_size
    floor = GaussianSet(centers, np.full((2, 3), geom.voxel_size),
                        np.tile([1.0, 0.0, 0.0, 0.0], (2, 1)), np.ones(2), at_floor)
    return GaussianSet.concat([gs, floor])


def one_hot_set(rng, n, geom, scale_lo, scale_hi):
    """`mixed_set` with its dense rows zeroed: no row carries more than one
    class, as in an observed set, so the splat forms one weight a pair."""
    gs = mixed_set(rng, n, geom, scale_lo, scale_hi)
    gs.semantics[1:n:3] = 0.0
    return gs


def off_one_axis_set(rng, geom):
    """`mixed_set` Gaussians in the grid with, between them, Gaussians off
    it along exactly one axis, each axis in turn: a box off along x has no
    rows, along y rows without columns, along z columns without candidates."""
    inside = mixed_set(rng, 24, geom, 0.1, 0.8)
    off = inside.take(np.arange(24))
    beyond = geom.origin + np.array(geom.dims) * geom.voxel_size + 4.0
    for i in range(24):
        axis = i % 3
        off.means[i, axis] = beyond[axis] if i % 2 else geom.origin[axis] - 4.0
    order = np.argsort(np.concatenate([np.arange(26), np.arange(24) + 0.5]), kind="stable")
    return GaussianSet.concat([inside, off]).take(order)


BIG_GEOM = GridGeometry(np.array([-8.0, -8.0, -1.6]), 0.4, (40, 40, 8), num_classes=C)
PRIOR_GEOM = GridGeometry(np.array([-20.0, -20.0, -1.6]), 0.4, (100, 100, 8), num_classes=C)
BLOCK_SETS = {
    "mixed": lambda: mixed_set(np.random.default_rng(5), 40, PAIR_GEOM, 0.1, 0.8),
    "one_hot": lambda: one_hot_set(np.random.default_rng(5), 40, PAIR_GEOM, 0.1, 0.8),
    "many_blocks": lambda: mixed_set(np.random.default_rng(6), 300, BIG_GEOM, 0.4, 1.2),
    "prior": lambda: empty_space_gaussian(),
    "empty": lambda: GaussianSet.empty(C),
    "zero_pairs": lambda: zero_pair_set(PAIR_GEOM),
    "off_one_axis": lambda: off_one_axis_set(np.random.default_rng(7), PAIR_GEOM),
}
BLOCK_GEOMS = {"many_blocks": BIG_GEOM, "prior": PRIOR_GEOM}


class TestBlocks:
    """The blocked pair enumeration and the nonzero-only accumulation equal
    the whole-set `np.repeat` enumeration and one `np.bincount` byte for
    byte (`repeat_pair_lists`, `bincount_splat`), and the blocked backward
    equals a one-block backward byte for byte."""

    @pytest.mark.parametrize("case", sorted(BLOCK_SETS))
    def test_pair_lists_equal_whole_set_expansion(self, case, monkeypatch):
        gs, geom = BLOCK_SETS[case](), BLOCK_GEOMS.get(case, PAIR_GEOM)
        want = repeat_pair_lists(gs, geom, SplatConfig())
        for bound in (1, _BLOCK):       # a block per Gaussian, then the default
            monkeypatch.setattr(splat_module, "_BLOCK", bound)
            got = recorded_pairs(gs, geom, SplatConfig())
            for field in Pairs._fields:
                a, b = getattr(got, field), getattr(want, field)
                assert a.dtype == b.dtype and a.shape == b.shape, (bound, field)
                assert a.tobytes() == b.tobytes(), (bound, field)
        if case == "off_one_axis":      # every off-grid Gaussian is left without pairs
            per_gauss = np.bincount(want.gauss, minlength=len(gs))
            assert np.all(per_gauss[1:48:2] == 0) and np.count_nonzero(per_gauss) > 20

    @pytest.mark.parametrize("record", [False, True])
    @pytest.mark.parametrize("floor", [0.0, 1e-4])
    @pytest.mark.parametrize("case", sorted(BLOCK_SETS))
    def test_splat_equals_bincount(self, case, floor, record, monkeypatch):
        gs, geom = BLOCK_SETS[case](), BLOCK_GEOMS.get(case, PAIR_GEOM)
        cfg = SplatConfig(min_contribution=floor)
        want = bincount_splat(gs, geom, cfg).channels
        for bound in (1, _BLOCK):       # a block per Gaussian, then the default
            monkeypatch.setattr(splat_module, "_BLOCK", bound)
            got = splat(gs, geom, cfg, record=np.arange(len(gs)) if record else False)
            got = (got[0] if record else got).channels
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), bound
        if case in ("mixed", "one_hot"):  # the row at the floor is kept, the one below it is not
            alone = splat(gs.take(slice(-2, None)), geom, cfg).channels
            assert alone[1, 2, 1, 4] == 1e-4
            assert alone[9, 8, 4, 4] == (np.nextafter(1e-4, 0.0) if floor == 0.0 else 0.0)

    @pytest.mark.parametrize("case", sorted(BLOCK_SETS))
    def test_blocks_hold_whole_gaussians(self, case, monkeypatch):
        gs, geom = BLOCK_SETS[case](), BLOCK_GEOMS.get(case, PAIR_GEOM)
        bound = 1 << 14                 # the bound `many_blocks` was sized for
        monkeypatch.setattr(splat_module, "_BLOCK", bound)
        count, block = _pair_blocks(gs, geom, SplatConfig())
        every = [block(k)[0] for k in range(count)]
        edges = [0] + [b.stop for b in every]           # the blocks tile the rows
        assert [b.start for b in every] == edges[:-1] and edges[-1] == len(gs)
        for b in every:                 # each block's pairs lie in its own rows
            assert np.all((b.start <= b.pairs.gauss) & (b.pairs.gauss < b.stop))
        blocks = [b.pairs.gauss for b in every if b.pairs.gauss.size]
        if case == "many_blocks":
            assert len(blocks) >= 9
            assert sum(g.size for g in blocks) > 2 * bound
        if case == "prior":             # its 80 000-cell box is one block
            assert len(blocks) == 1 and blocks[0].size == geom.num_voxels > _BLOCK > bound

    @pytest.mark.parametrize("floor", [0.0, 1e-4])
    @pytest.mark.parametrize("case", sorted(BLOCK_SETS))
    def test_backward_blocks_change_no_bit(self, case, floor, monkeypatch):
        gs, geom = BLOCK_SETS[case](), BLOCK_GEOMS.get(case, PAIR_GEOM)
        cfg = SplatConfig(min_contribution=floor)
        up = np.random.default_rng(8).normal(size=geom.dims + (C,))
        oracle = bincount_splat(gs, geom, cfg).channels.tobytes()
        runs = {}
        # one block, a block per Gaussian, then bounds about the default
        for bound in (1 << 62, 1, 1 << 10, _BLOCK // 2, _BLOCK, 2 * _BLOCK):
            monkeypatch.setattr(splat_module, "_BLOCK", bound)
            grid, tape = splat(gs, geom, cfg, record=np.arange(len(gs)))
            unrecorded = splat(gs, geom, cfg).channels.tobytes()
            assert grid.channels.tobytes() == unrecorded == oracle, bound
            runs[bound] = (tape.blocks, splat_backward(tape, at_tape_voxels(tape, up)))
        count, block = _pair_blocks(gs, geom, cfg)
        for every, recorded in (block(k) for k in range(count)):
            assert every.pairs.delta is None and every.pairs.local is None
            assert recorded is None
        (one, want), (many, _) = runs[1 << 62], runs[1]
        with_pairs = np.unique(one[0].pairs.gauss).size if one else 0
        assert len(one) <= 1 and len(many) == with_pairs
        for bound, (_, got) in runs.items():
            for field, a in want.items():
                assert got[field].shape == a.shape == (len(gs),) + a.shape[1:], field
                assert got[field].tobytes() == a.tobytes(), (bound, field)

    def test_splat_peak_memory_is_bounded(self):
        gs, geom = BLOCK_SETS["many_blocks"](), BIG_GEOM
        cfg = SplatConfig()

        def traced_peak(fn):
            tracemalloc.start()
            try:
                fn(gs, geom, cfg)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert traced_peak(splat) < 0.5 * traced_peak(bincount_splat)


def test_add_at_sums_each_bin_in_input_order():
    # bin 0 holds 2**53 among terms below 4: before it they add exactly,
    # after it each is rounded to a multiple of 2, so the sum depends on order
    rng = np.random.default_rng(9)
    vals = np.concatenate([rng.uniform(0.5, 2.0, 40), [2.0**53, 3.0, 2.0**-30, 1.0, 1.0]])
    vals = rng.permutation(vals)
    idx = rng.integers(0, 3, vals.size)
    idx[np.argmax(vals)] = 0
    want = np.zeros(3)
    for i, v in zip(idx, vals):
        want[i] += v
    got = np.zeros(3)
    np.add.at(got, idx, vals)
    assert got.tobytes() == want.tobytes()
    assert got.tobytes() == np.bincount(idx, weights=vals, minlength=3).tobytes()
    ascending = np.zeros(3)
    order = np.argsort(vals, kind="stable")
    np.add.at(ascending, idx[order], vals[order])
    assert ascending[0] != got[0]           # the order is what the test pins


def test_unpickled_set_reaches_add_at_with_canonical_dtype(monkeypatch):
    # an unpickled float64 array carries a dtype descriptor equal to
    # np.float64 but not the same object, which costs np.add.at its fast path
    gs = BLOCK_SETS["mixed"]()
    loaded = pickle.loads(pickle.dumps(gs))
    assert loaded.semantics.dtype == np.float64
    assert loaded.semantics.dtype is not np.dtype(np.float64)
    value_dtypes = []

    def add_at(a, index, values):
        value_dtypes.append(values.dtype)
        np.add.at(a, index, values)

    class RecordingNumpy:
        add = SimpleNamespace(at=add_at)

        def __getattr__(self, name):
            return getattr(np, name)

    want = splat(gs, PAIR_GEOM).channels
    monkeypatch.setattr(splat_module, "np", RecordingNumpy())
    got = splat(loaded, PAIR_GEOM).channels
    assert got.tobytes() == want.tobytes()
    assert value_dtypes and all(d is np.dtype(np.float64) for d in value_dtypes)


class TestFixedRender:
    @pytest.mark.parametrize("case", sorted(ACCUMULATION_SETS))
    def test_trailing_fixed_gaussian_adds_bit_for_bit(self, case):
        gs = ACCUMULATION_SETS[case]()
        fixed = empty_space_gaussian()
        cfg = SplatConfig()
        want = splat(GaussianSet.concat([gs, fixed]), PAIR_GEOM, cfg).channels
        render = splat_sparse(fixed, PAIR_GEOM, cfg)
        got = render.add_to(splat(gs, PAIR_GEOM, cfg).channels)
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("pickled", [False, True], ids=["fresh", "unpickled"])
    def test_add_to_equals_the_fancy_index_add(self, pickled):
        # the render's indices are unique, so add.at gives the bits of
        # flat[index] += value, on a grid that is nonzero where it adds
        geom = small_geom()
        fixed = tight_set(np.random.default_rng(13), 6, geom)
        render = splat_sparse(fixed, geom)
        if pickled:
            render = pickle.loads(pickle.dumps(render))
        grid = np.random.default_rng(14).random(geom.dims + (C,)) * 3
        want = grid.copy()
        want.reshape(-1)[render.index] += render.value
        got = grid.copy()
        assert render.add_to(got) is got
        assert render.index.size > 0 and np.all(grid.reshape(-1)[render.index] != 0.0)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("case", ["prior", "two_classes", "no_class", "empty"])
    def test_sparse_render_holds_the_nonzero_entries(self, case):
        geom = small_geom()
        fixed = empty_space_gaussian()
        fixed.means[:] = [2.5, 2.0, 0.0]            # off-centre: the far voxels are truncated
        fixed.scales[:] = 1.0
        if case == "two_classes":                   # classes 2 and 7; one Gaussian lacks 7
            fixed = tight_set(np.random.default_rng(12), 4, geom)
            keep = np.zeros(C)
            keep[[2, 7]] = 1.0
            fixed.semantics *= keep
            fixed.semantics[1, 7] = 0.0
        elif case == "no_class":
            fixed.semantics[:] = 0.0
        elif case == "empty":
            fixed = GaussianSet.empty(C)
        dense = splat(fixed, geom).channels
        render = splat_sparse(fixed, geom)
        assert np.all(np.diff(render.index) > 0)
        assert np.all(render.value != 0.0)
        assert np.array_equal(render.add_to(np.zeros_like(dense)), dense)
        assert render.index.size == np.count_nonzero(dense)
        if case == "prior":
            assert 0 < render.index.size < geom.num_voxels
            assert np.all(render.index % C == C - 1)     # only the empty channel is nonzero
        if case == "two_classes":
            assert set(np.unique(render.index % C)) == {2, 7}

    def test_sparse_render_rejects_a_class_count_mismatch(self):
        with pytest.raises(ValueError, match="width"):
            splat_sparse(empty_space_gaussian(num_classes=5), small_geom())


class TestLabels:
    def test_all_zero_channels_empty(self):
        geom = small_geom(dims=(3, 3, 2))
        grid = VoxelGrid(geom, channels=np.zeros(geom.dims + (C,)))
        labels = labels_from_channels(grid)
        assert np.all(labels.labels == C - 1)

    def test_argmax(self):
        geom = small_geom(dims=(1, 1, 1))
        ch = np.zeros((1, 1, 1, C))
        ch[0, 0, 0, 0] = 0.2
        ch[0, 0, 0, 1] = 0.9
        labels = labels_from_channels(VoxelGrid(geom, channels=ch))
        assert labels.labels[0, 0, 0] == 1

    def test_tie_lowest_index(self):
        geom = small_geom(dims=(1, 1, 1))
        ch = np.zeros((1, 1, 1, C))
        ch[0, 0, 0, 0] = 0.5
        ch[0, 0, 0, 1] = 0.5
        labels = labels_from_channels(VoxelGrid(geom, channels=ch))
        assert labels.labels[0, 0, 0] == 0

    def test_below_floor_is_empty(self):
        geom = small_geom(dims=(1, 1, 1))
        ch = np.full((1, 1, 1, C), 5e-5)
        labels = labels_from_channels(VoxelGrid(geom, channels=ch), min_contribution=1e-4)
        assert labels.labels[0, 0, 0] == C - 1

    @pytest.mark.parametrize("floor", [0.0, 1e-4])
    def test_one_pass_equals_two_pass_definition(self, floor):
        rng = np.random.default_rng(31)
        geom = small_geom(dims=(4, 3, 2))
        ch = rng.uniform(0.0, 2e-4, size=geom.dims + (C,))
        ch[0, 0, 0] = 0.0                           # all zero
        ch[0, 0, 1, [2, 7]] = 5e-4                  # a tie for the largest channel
        ch[0, 1, 0] = np.nextafter(floor, -1.0)     # every channel just below it
        ch[0, 1, 1] = np.nextafter(floor, -1.0)
        ch[0, 1, 1, 5] = floor                      # one channel exactly at it
        ch[0, 2, 0, 3] = np.nan                     # a NaN after smaller channels
        ch[0, 2, 1] = 0.0
        ch[0, 2, 1, [1, 9]] = np.nan                # NaNs in an all-below voxel
        ch[1, 0, 0, 4] = np.inf
        ch[1, 0, 1, 0] = np.nan
        ch[1, 0, 1, 6] = 1.0                        # a NaN before the largest channel
        got = labels_from_channels(VoxelGrid(geom, channels=ch), floor).labels
        want = two_pass_labels(ch, floor)
        assert got.dtype == want.dtype == np.uint8 and got.tobytes() == want.tobytes()
        assert got[0, 0, 1] == 2 and got[0, 1, 0] == C - 1 and got[0, 1, 1] == 5
        assert got[0, 2, 0] == 3 and got[0, 2, 1] == 1 and got[1, 0, 1] == 0


class TestSplatBackward:
    def test_matches_finite_differences(self):
        geom = small_geom(dims=(6, 6, 3))
        gs = tight_set(RNG, 4, geom, scale_lo=0.25, scale_hi=0.6)
        cfg = SplatConfig(truncation_sigma=8.0, min_contribution=0.0)
        up = RNG.normal(size=geom.dims + (C,))

        def objective(sets: GaussianSet):
            return float(np.sum(up * splat(sets, geom, cfg).channels))

        grads = recorded_backward(gs, geom, cfg, up)
        eps = 1e-6
        for field in ("means", "scales", "opacities", "semantics", "rotations"):
            arr = getattr(gs, field)
            num = np.zeros_like(arr)
            flat = arr.ravel()
            nm = num.ravel()
            for k in range(flat.size):
                old = flat[k]
                flat[k] = old + eps
                fp = objective(gs)
                flat[k] = old - eps
                fm = objective(gs)
                flat[k] = old
                nm[k] = (fp - fm) / (2 * eps)
            got = grads[field]
            denom = np.maximum(np.abs(num), 1e-6)
            assert np.max(np.abs(got - num) / denom) < 1e-4, field

    @pytest.mark.parametrize("floor", [0.0, 1e-4])
    def test_rows_recorded_apart_keep_their_gradient_bits(self, floor):
        geom = small_geom(dims=(8, 8, 3))
        gs = tight_set(np.random.default_rng(31), 12, geom)
        cfg = SplatConfig(min_contribution=floor)
        up = np.random.default_rng(32).normal(size=geom.dims + (C,))
        want = recorded_backward(gs, geom, cfg, up)
        unrecorded = splat(gs, geom, cfg).channels.tobytes()
        for rows in (np.zeros(0, dtype=np.intp), np.array([3]), np.array([0, 2, 5, 11]),
                     np.arange(12)):
            grid, tape = splat(gs, geom, cfg, record=rows)
            assert grid.channels.tobytes() == unrecorded
            got = splat_backward(tape, at_tape_voxels(tape, up))
            others = np.setdiff1d(np.arange(12), rows)
            for field, w in want.items():
                assert got[field][rows].tobytes() == w[rows].tobytes(), (rows, field)
                assert not np.any(got[field][others]), (rows, field)

    @pytest.mark.parametrize("shape", ["whole grid", "one voxel more", "one class fewer"])
    def test_gradient_for_another_grid_rejected(self, shape):
        geom = small_geom(dims=(4, 4, 2))
        _, tape = splat(tight_set(RNG, 3, geom), geom, SplatConfig(), record=np.arange(3))
        rows = tape.voxels.size
        bad = {"whole grid": geom.dims + (C,), "one voxel more": (rows + 1, C),
               "one class fewer": (rows, C - 1)}[shape]
        with pytest.raises(ValueError, match=re.escape(f"of shape {(rows, C)}")):
            splat_backward(tape, np.zeros(bad))

    @pytest.mark.parametrize("rows,problem", [
        (np.array([[0, 1]]), "1-D integer array"),
        (np.array([0.0, 1.0]), "1-D integer array"),
        (np.array([1, 0]), "strictly increasing"),
        (np.array([2, 2]), "strictly increasing"),
        (np.array([-1, 0]), r"range\(3\)"),
        (np.array([0, 3]), r"range\(3\)"),
        (True, "1-D integer array"),
    ], ids=["2-d", "float", "descending", "repeated", "negative", "past-the-end", "true"])
    def test_malformed_record_rows_rejected(self, rows, problem):
        geom = small_geom(dims=(4, 4, 2))
        with pytest.raises(ValueError, match=problem):
            splat(tight_set(RNG, 3, geom), geom, SplatConfig(), record=rows)

    def test_zero_upstream_zero_grads(self):
        geom = small_geom(dims=(4, 4, 2))
        gs = tight_set(RNG, 3, geom)
        grads = recorded_backward(gs, geom, SplatConfig(), np.zeros(geom.dims + (C,)))
        for v in grads.values():
            assert np.all(v == 0.0)


class TestVoxg:
    def test_header_layout(self):
        geom = GridGeometry(np.array([1.0, 2.0, 3.0]), 0.4, (2, 2, 2), num_classes=3)
        data = write_voxg(VoxelGrid(geom, channels=np.zeros((2, 2, 2, 3))))
        assert data[:4] == b"VOXG"
        assert len(data) == 41 + 2 * 2 * 2 * 3 * 4

    def test_channels_roundtrip_bit_exact(self):
        geom = small_geom(dims=(4, 3, 2))
        ch = np.round(RNG.uniform(0, 2, geom.dims + (C,)).astype(np.float32), 3).astype(np.float64)
        grid = VoxelGrid(geom, channels=ch.astype(np.float32).astype(np.float64))
        data = write_voxg(grid)
        back = read_voxg(data)
        assert np.array_equal(back.channels, grid.channels)
        assert write_voxg(back) == data

    def test_labels_roundtrip(self, tmp_path):
        geom = small_geom(dims=(5, 4, 3))
        lbl = RNG.integers(0, C, size=geom.dims).astype(np.uint8)
        grid = VoxelGrid(geom, labels=lbl)
        p = tmp_path / "g.voxg"
        save_voxg(grid, p)
        back = load_voxg(p)
        assert np.array_equal(back.labels, lbl)
        assert back.geometry.dims == geom.dims
        assert back.geometry.voxel_size == np.float32(geom.voxel_size)

    def test_payload_order_x_major(self):
        geom = GridGeometry(np.zeros(3), 1.0, (2, 2, 2), num_classes=1)
        ch = np.arange(8, dtype=np.float64).reshape(2, 2, 2, 1)
        data = write_voxg(VoxelGrid(geom, channels=ch))
        vals = np.frombuffer(data[41:], dtype="<f4")
        assert np.array_equal(vals, np.arange(8, dtype=np.float32))

    @pytest.mark.parametrize("offset, value", [
        (36, np.nan), (36, np.inf), (36, 0.0), (28, np.nan), (32, -np.inf),
    ], ids=["voxel_size_nan", "voxel_size_inf", "voxel_size_zero", "origin_nan", "origin_inf"])
    def test_header_geometry_must_be_finite(self, offset, value):
        geom = GridGeometry(np.zeros(3), 1.0, (1, 1, 1), num_classes=2)
        data = bytearray(write_voxg(VoxelGrid(geom, labels=np.zeros((1, 1, 1), np.uint8))))
        data[offset:offset + 4] = np.float32(value).tobytes()
        with pytest.raises(ValueError, match="voxel_size|origin"):
            read_voxg(bytes(data))

    def test_label_out_of_range_rejected(self):
        geom = GridGeometry(np.zeros(3), 1.0, (1, 1, 2), num_classes=2)
        data = write_voxg(VoxelGrid(geom, labels=np.array([[[0, 1]]], np.uint8)))
        assert read_voxg(data).labels.tolist() == [[[0, 1]]]
        with pytest.raises(ValueError, match="label out of range"):
            read_voxg(data[:-1] + b"\x02")

    def test_decode_errors(self):
        geom = GridGeometry(np.zeros(3), 1.0, (1, 1, 1), num_classes=2)
        data = write_voxg(VoxelGrid(geom, channels=np.zeros((1, 1, 1, 2))))
        with pytest.raises(ValueError, match="magic"):
            read_voxg(b"XXXX" + data[4:])
        with pytest.raises(ValueError, match="version"):
            read_voxg(data[:4] + b"\x63\x00\x00\x00" + data[8:])
        with pytest.raises(ValueError, match="truncated"):
            read_voxg(data[:-2])
        with pytest.raises(ValueError):
            read_voxg(data[:10])
