"""Gaussian packaging for inter-agent exchange: rigid alignment into the
receiver's frame, region-of-interest culling, stacking, the GMSG wire
format, and communication-volume accounting with budget enforcement.

Wire record layout (little-endian): one `GaussianSet.rows()` row per
Gaussian, 24 scalars at 13 classes. fp16 encoding makes that 48 bytes per
primitive; fp32 doubles it.

The 24-byte header carries no class count: the receiver supplies it, and
it must match the sender's. A wrong count is caught only by the length
check (the payload is not header Gaussian count times the record size),
which reports it as a truncated payload, and a message with no Gaussians
decodes under any count.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

from gsfusion.core import (
    NUM_CLASSES,
    GaussianSet,
    RigidTransform,
    Roi,
    SemanticGaussian,
    _ill_conditioned,
    canonicalize_quaternion,
    quat_multiply,
)

GMSG_MAGIC = b"GMSG"
GMSG_VERSION = 1
PRECISION_FP16 = 0
PRECISION_FP32 = 1

_HEADER = struct.Struct("<4sHHIIII")  # magic, version, precision, sender, receiver, frame, count
HEADER_SIZE = _HEADER.size              # 24


class EncodeRangeError(ValueError):
    """A Gaussian the wire precision cannot carry: a field that would
    overflow to inf, a scale that would round to 0 (in fp16, above 65 504
    or below about 3e-8), or scales whose rounding pushes the covariance's
    condition number past 1e12. Raised before any bytes are made."""


class DecodeError(ValueError):
    """Base class for malformed GMSG payloads."""


class BadMagicError(DecodeError):
    pass


class VersionMismatchError(DecodeError):
    pass


class TruncatedPayloadError(DecodeError):
    pass


class CorruptFieldError(DecodeError):
    pass


# ---------------------------------------------------------------------------
# rigid alignment and culling
# ---------------------------------------------------------------------------

def transform_gaussian(g: SemanticGaussian, t: RigidTransform) -> SemanticGaussian:
    """Express a Gaussian in the frame `t` maps into.

    The mean is moved, the quaternion is composed (and re-canonicalized);
    scale, opacity and semantics are carried over unchanged, so the
    ellipsoid rotates without changing its axis lengths.
    """
    return transform_set(GaussianSet.from_gaussians([g]), t).to_gaussians()[0]


def transform_set(gs: GaussianSet, t: RigidTransform) -> GaussianSet:
    """Vectorized transform_gaussian over a whole set."""
    if len(gs) == 0:
        return gs.copy()
    means = t.apply(gs.means)
    rot = canonicalize_quaternion(quat_multiply(t.rotation_q[None, :], gs.rotations))
    return GaussianSet(means, gs.scales.copy(), rot, gs.opacities.copy(), gs.semantics.copy())


def cull_to_roi(gaussians: GaussianSet, t: RigidTransform, roi: Roi) -> GaussianSet:
    """Transform into the receiver frame and keep Gaussians whose transformed
    means fall inside the ROI box (closed bounds).

    Only the kept rows are rotated: the quaternion product and its
    canonicalization are row-wise, so the result equals `transform_set`
    then `take` bit for bit."""
    means = t.apply(gaussians.means)
    kept = roi.contains(means)
    rot = canonicalize_quaternion(quat_multiply(t.rotation_q[None, :],
                                                gaussians.rotations[kept]))
    return GaussianSet(means[kept], gaussians.scales[kept], rot,
                       gaussians.opacities[kept], gaussians.semantics[kept])


def stack(ego: GaussianSet, received: list[GaussianSet]) -> GaussianSet:
    """Concatenate the ego set with received sets (already in the ego frame),
    ego first, then received in caller order (sender-id order by contract)."""
    return GaussianSet.concat([ego] + list(received))


# ---------------------------------------------------------------------------
# wire format
# ---------------------------------------------------------------------------

@dataclass
class GaussianMessage:
    """One serialized transmission: header fields plus the payload set."""

    sender_id: int
    receiver_id: int
    frame_tag: int
    gaussians: GaussianSet
    precision: int = PRECISION_FP16

    @property
    def count(self) -> int:
        return len(self.gaussians)

    def byte_length(self) -> int:
        return HEADER_SIZE + self.count * record_size(self.precision,
                                                      self.gaussians.num_classes)


def record_size(precision: int, num_classes: int = NUM_CLASSES) -> int:
    width = 2 if precision == PRECISION_FP16 else 4
    return (GaussianSet.ROW_FIELDS + num_classes) * width


def serialize_message(msg: GaussianMessage) -> bytes:
    """The GMSG bytes of a message. Raises EncodeRangeError when a Gaussian
    would not survive the precision's rounding: a field that overflows, a
    scale that rounds to 0, or rounded scales whose covariance condition
    number passes the splat's 1e12 (`gsfusion.core._ill_conditioned`, the
    rule the decoder's `validate()` applies to the same values). So the
    receiver is never sent a record it must reject."""
    header = _HEADER.pack(GMSG_MAGIC, GMSG_VERSION, msg.precision,
                          msg.sender_id, msg.receiver_id, msg.frame_tag, msg.count)
    dtype = "<f2" if msg.precision == PRECISION_FP16 else "<f4"
    with np.errstate(over="ignore"):
        payload = np.ascontiguousarray(msg.gaussians.rows(), dtype=dtype)
    bad = ~np.all(np.isfinite(payload), axis=1) | _ill_conditioned(
        GaussianSet.from_rows(payload).scales)
    if np.any(bad):
        raise EncodeRangeError(
            f"{int(bad.sum())} of {msg.count} Gaussians overflow, lose a scale or pass "
            f"the 1e12 condition number in {np.dtype(dtype).name}, first at row "
            f"{int(np.argmax(bad))}")
    return header + payload.tobytes()


def deserialize_message(data: bytes, num_classes: int = NUM_CLASSES) -> GaussianMessage:
    """Decode GMSG bytes back into a message.

    Quaternions are renormalized and re-canonicalized and finite opacities
    clipped into [0, 1], so the decoded Gaussians satisfy the core
    invariants despite quantization. Malformed inputs raise a DecodeError
    subclass. A decoded set that `GaussianSet.validate` refuses is a
    CorruptFieldError carrying its message: a non-finite field, a scale
    <= 0, a zero quaternion, a negative semantic weight, or a covariance
    whose condition number the quantized scales push above 1e12, since
    the splat cannot take it.

    The header holds no class count, so `num_classes` is trusted: a wrong
    one is caught only by the length check, as a TruncatedPayloadError,
    and an empty message decodes whatever it is.
    """
    if len(data) < HEADER_SIZE:
        raise TruncatedPayloadError("message shorter than header")
    magic, version, precision, sender, receiver, frame, count = _HEADER.unpack_from(data, 0)
    if magic != GMSG_MAGIC:
        raise BadMagicError(f"bad magic {magic!r}")
    if version != GMSG_VERSION:
        raise VersionMismatchError(f"unsupported version {version}")
    if precision not in (PRECISION_FP16, PRECISION_FP32):
        raise CorruptFieldError(f"unknown precision code {precision}")
    rec = record_size(precision, num_classes)
    expect = HEADER_SIZE + count * rec
    if len(data) != expect:
        raise TruncatedPayloadError(f"expected {expect} bytes, got {len(data)}")
    dtype = "<f2" if precision == PRECISION_FP16 else "<f4"
    flat = np.frombuffer(data, dtype=dtype, offset=HEADER_SIZE).astype(np.float64)
    gs = GaussianSet.from_rows(flat.reshape(count, GaussianSet.ROW_FIELDS + num_classes))
    gs.opacities = np.where(np.isfinite(gs.opacities), np.clip(gs.opacities, 0.0, 1.0), np.nan)
    try:
        # an inf quaternion component turns NaN here, which validate()
        # refuses, so numpy's warning about it would only be noise
        with np.errstate(invalid="ignore"):
            gs.rotations = canonicalize_quaternion(gs.rotations)
        gs.validate()
    except ValueError as exc:
        raise CorruptFieldError(f"decoded {exc}") from exc
    return GaussianMessage(sender, receiver, frame, gs, precision)


# ---------------------------------------------------------------------------
# accounting and budget
# ---------------------------------------------------------------------------

@dataclass
class LinkStats:
    messages: int = 0
    gaussians: int = 0
    bytes: int = 0
    # messages the encoder (EncodeRangeError) or the budget refused: never
    # sent, no bytes; plus sent messages the receiver could not decode
    rejected: int = 0


@dataclass
class CommStats:
    """Monotone accumulator of transmitted message volume."""

    messages_sent: int = 0
    gaussians_sent: int = 0
    bytes_sent: int = 0
    messages_rejected: int = 0
    per_link: dict = field(default_factory=dict)

    def record(self, msg: GaussianMessage, nbytes: int) -> None:
        self.messages_sent += 1
        self.gaussians_sent += msg.count
        self.bytes_sent += nbytes
        link = self.per_link.setdefault((msg.sender_id, msg.receiver_id), LinkStats())
        link.messages += 1
        link.gaussians += msg.count
        link.bytes += nbytes

    def record_rejected(self, link: tuple[int, int]) -> None:
        """Count one rejected message, in total and on its (sender,
        receiver) link."""
        self.messages_rejected += 1
        self.per_link.setdefault(link, LinkStats()).rejected += 1

    def add(self, other: "CommStats") -> None:
        """Add `other`'s counts to these; a link new here goes after ours."""
        self.messages_sent += other.messages_sent
        self.gaussians_sent += other.gaussians_sent
        self.bytes_sent += other.bytes_sent
        self.messages_rejected += other.messages_rejected
        for key, theirs in other.per_link.items():
            link = self.per_link.setdefault(key, LinkStats())
            link.messages += theirs.messages
            link.gaussians += theirs.gaussians
            link.bytes += theirs.bytes
            link.rejected += theirs.rejected


def enforce_budget(nbytes: int, budget_bytes: float) -> bool:
    """Accept iff a message of `nbytes` bytes does not exceed the budget."""
    if budget_bytes < 0:
        raise ValueError("budget must be non-negative")
    return nbytes <= budget_bytes
