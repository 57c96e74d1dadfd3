"""Totality: every GaussianSet that passes `validate()` survives the wire
(encode, decode, `validate()`), `fuse_scene` and `splat` without raising.

The two documented refusals are the only exceptions allowed: the encoder's
`EncodeRangeError` for a value the precision cannot carry, and the
decoder's `CorruptFieldError` when rounding pushes a covariance's
condition number past 1e12. The draws are derandomized, so the test is
deterministic.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from gsfusion.comms import (
    HEADER_SIZE,
    PRECISION_FP16,
    PRECISION_FP32,
    CorruptFieldError,
    EncodeRangeError,
    GaussianMessage,
    deserialize_message,
    serialize_message,
)
from gsfusion.core import NUM_CLASSES, GaussianSet, GridGeometry, canonicalize_quaternion
from gsfusion.fusion import FusionConfig, FusionParams, fuse_scene
from gsfusion.splat import splat

# the decimal exponents of the largest values each precision carries
# (fp16 tops out at 65 504, fp32 at 3.4e38)
TOP_EXPONENT = {PRECISION_FP16: 4.8, PRECISION_FP32: 38.0}
GEOMETRY = GridGeometry(np.array([-4.0, -4.0, -1.6]), 0.4, (20, 20, 8))
PARAMS = FusionParams.init(seed=0)


def _magnitude(top):
    """Everyday values and ones up to 10**top, of either sign."""
    exponent = st.one_of(st.floats(-1.0, 1.0), st.floats(-3.0, top))
    return st.builds(lambda sign, e: sign * 10.0 ** e, st.sampled_from([-1.0, 1.0]), exponent)


@st.composite
def gaussian_sets(draw, precision):
    """Valid sets of 0..5 Gaussians: means that repeat or lie far apart,
    scales from tiny to huge with a condition number up to 1e12, and
    semantic weights from zero to huge."""
    top = TOP_EXPONENT[precision]
    n = draw(st.integers(0, 5))
    if n == 0:
        return GaussianSet.empty()
    pool = draw(st.lists(st.tuples(*[_magnitude(top)] * 3), min_size=1, max_size=n))
    means = [pool[draw(st.integers(0, len(pool) - 1))] for _ in range(n)]
    low = draw(st.lists(st.floats(-top - 4.0, top - 6.0), min_size=n, max_size=n))
    spread = draw(st.lists(st.tuples(*[st.floats(0.0, 6.0)] * 3), min_size=n, max_size=n))
    scales = [[10.0 ** (e + d) for d in ds] for e, ds in zip(low, spread)]
    quats = draw(st.lists(st.tuples(*[st.floats(-1.0, 1.0)] * 4), min_size=n, max_size=n))
    assume(all(np.linalg.norm(q) > 1e-3 for q in quats))
    opacities = draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n))
    weight = st.one_of(st.just(0.0), st.floats(0.0, 1.0), _magnitude(top).map(abs))
    semantics = draw(st.lists(st.lists(weight, min_size=NUM_CLASSES, max_size=NUM_CLASSES),
                              min_size=n, max_size=n))
    gs = GaussianSet(np.array(means), np.array(scales), canonicalize_quaternion(np.array(quats)),
                     np.array(opacities), np.array(semantics))
    try:
        gs.validate()
    except ValueError:
        assume(False)              # a condition number that rounds just past 1e12
    return gs


@pytest.mark.parametrize("precision", [PRECISION_FP16, PRECISION_FP32], ids=["fp16", "fp32"])
def test_valid_sets_survive_every_stage(precision):
    @settings(derandomize=True, database=None, max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
    @given(gs=gaussian_sets(precision))
    def survives(gs):
        try:
            data = serialize_message(GaussianMessage(1, 0, 0, gs, precision))
        except EncodeRangeError:
            return
        try:
            received = deserialize_message(data).gaussians
        except CorruptFieldError as exc:
            assert "condition number" in str(exc)
            return
        received.validate()
        fused = fuse_scene(gs, [received], FusionConfig(), PARAMS)
        splat(fused, GEOMETRY)
        splat(received, GEOMETRY)

    survives()


FIELDS = ("means", "scales", "rotations", "opacities", "semantics")


@st.composite
def corrupted_fields(draw):
    """A kind of corruption and the fields of a drawn valid fp32 set with
    one value (or, for "ragged", one field's row count) made invalid."""
    gs = draw(gaussian_sets(PRECISION_FP32).filter(len))
    fields = {f: getattr(gs, f).copy() for f in FIELDS}
    kind = draw(st.sampled_from(["non_finite", "scale", "quaternion", "opacity", "weight",
                                 "ragged"]))
    row = draw(st.integers(0, len(gs) - 1))
    if kind == "non_finite":
        cells = fields[draw(st.sampled_from(FIELDS))].reshape(len(gs), -1)
        col = draw(st.integers(0, cells.shape[1] - 1))
        cells[row, col] = draw(st.sampled_from([np.nan, np.inf, -np.inf]))
    elif kind == "scale":
        fields["scales"][row, draw(st.integers(0, 2))] = draw(
            st.sampled_from([0.0, -0.0]) | st.floats(-1e30, -1e-30))
    elif kind == "quaternion":
        fields["rotations"][row] *= draw(st.floats(0.5, 0.99) | st.floats(1.01, 2.0))
    elif kind == "opacity":
        fields["opacities"][row] = draw(st.floats(-10.0, -1e-6) | st.floats(1.001, 10.0))
    elif kind == "weight":
        fields["semantics"][row, draw(st.integers(0, NUM_CLASSES - 1))] = -draw(
            st.floats(1e-30, 1e30))
    else:
        field = draw(st.sampled_from(FIELDS))
        fields[field] = np.delete(fields[field], row, axis=0)
    return gs, kind, fields


def test_invalid_sets_rejected_at_the_boundary():
    """A corrupted set is a ValueError from the type (never an IndexError or
    a numpy error from a stage), and the same corruption written into an
    fp32 payload is a CorruptFieldError; the decoder clips opacities and
    renormalizes quaternions by design, so those two decode valid."""
    @settings(derandomize=True, database=None, max_examples=120, deadline=None,
              suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
    @given(drawn=corrupted_fields())
    def rejected(drawn):
        gs, kind, fields = drawn
        with pytest.raises(ValueError) as info:
            GaussianSet(**fields).validate()
        assert type(info.value) is ValueError
        if kind == "ragged":
            return
        try:
            clean = serialize_message(GaussianMessage(1, 0, 0, gs, PRECISION_FP32))
            deserialize_message(clean)
        except (EncodeRangeError, CorruptFieldError):
            return                 # fp32 cannot carry the valid set itself
        rows = [fields["means"], fields["scales"], fields["rotations"],
                fields["opacities"][:, None], fields["semantics"]]
        data = clean[:HEADER_SIZE] + np.concatenate(rows, axis=1).astype("<f4").tobytes()
        if kind in ("opacity", "quaternion"):
            deserialize_message(data).gaussians.validate()
        else:
            with pytest.raises(CorruptFieldError):
                deserialize_message(data)

    rejected()
