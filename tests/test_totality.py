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
