"""Spans around the library's public functions, installed from outside.

Each span replaces a function where the calling module looks it up
(for example `gsfusion.sim.splat`, which `run_episode` calls), times it,
and hands its result to a counter. A layer's self time excludes the
child spans that ran inside it. Work done only to take a count (such as
a recorded fusion pass) runs in an untimed block whose time is removed
from every open span. A function that a later version of the library
no longer has is skipped and reports zero calls.
"""

from __future__ import annotations

import resource
import time
from collections import defaultdict
from contextlib import contextmanager

from gsfusion import learn, sim

SPANS = ("sim.rasterize", "sim.ground_truth", "sim.observe", "sim.episode",
         "comms.cull", "comms.encode", "comms.decode",
         "fusion.fuse", "fusion.backward",
         "splat.forward", "splat.labels", "splat.backward",
         "learn.scene", "learn.loss", "learn.optimizer", "learn.train")

# spans that mostly wrap other spans; every span's time is its self time,
# and these say so in their names
SELF_NAMED = {"sim.episode", "learn.scene", "learn.train"}

COUNTS = ("sim.rays", "comms.messages_sent", "comms.messages_rejected",
          "comms.gaussians_sent", "comms.bytes_sent", "fusion.pairs",
          "fusion.fused_egos", "splat.gaussians")

RSS_LAYERS = ("fusion", "splat")


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    """Nested span timer with counters; one per traced pass."""

    def __init__(self):
        self.open: list[list[float]] = []          # [start, child time, untimed time]
        self.seconds = defaultdict(float)          # self time per span
        self.calls = defaultdict(int)
        self.counts = defaultdict(float)
        self.rss_rise = defaultdict(float)
        self.untimed_s = 0.0
        self.originals = {}                        # (owner, attribute) -> function

    def wrap(self, name: str, fn, on_result=None):
        layer = name.split(".")[0]
        watch_rss = layer in RSS_LAYERS

        def spanned(*args, **kwargs):
            rss0 = peak_rss_mb() if watch_rss else 0.0
            frame = [time.perf_counter(), 0.0, 0.0]
            self.open.append(frame)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.open.pop()
                total = time.perf_counter() - frame[0] - frame[2]
                self.seconds[name] += total - frame[1]
                self.calls[name] += 1
                if self.open:
                    self.open[-1][1] += total
                if watch_rss:
                    self.rss_rise[layer] = max(self.rss_rise[layer], peak_rss_mb() - rss0)
            if on_result is not None:
                with self.untimed():
                    on_result(self, out, args, kwargs)
            return out

        spanned.__wrapped__ = fn
        return spanned

    @contextmanager
    def untimed(self):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            d = time.perf_counter() - t0
            self.untimed_s += d
            for frame in self.open:
                frame[2] += d

    def metrics(self) -> dict:
        c = self.counts
        out = {}
        for span in SPANS:
            out[f"{span}_self_s" if span in SELF_NAMED else f"{span}_s"] = (
                self.seconds[span], "s")
            out[f"{span}.calls"] = (self.calls[span], "count")
        for name in COUNTS:
            out[name] = (c[name], "bytes" if name.endswith("bytes_sent") else "count")
        out["comms.cull_kept_ratio"] = (
            c["comms.kept"] / c["comms.given"] if c["comms.given"] else 0.0, "ratio")
        out["fusion.pairs_per_fused_ego"] = (
            c["fusion.pairs"] / c["fusion.fused_egos"] if c["fusion.fused_egos"] else 0.0,
            "count")
        out["fusion.fused_share"] = (
            c["fusion.fused_egos"] / c["fusion.ego_rows"] if c["fusion.ego_rows"] else 0.0,
            "ratio")
        for layer in RSS_LAYERS:
            out[f"{layer}.rss_rise_mb"] = (self.rss_rise[layer], "MB")
        return out


# ---------------------------------------------------------------------------
# counters taken from each span's result, outside the timed span
# ---------------------------------------------------------------------------

def _count_rays(tr, gt, args, kwargs):
    spec = args[0]
    tr.counts["sim.rays"] += int(sim.surface_mask(gt.world.labels).sum()) * spec.num_agents


def _count_episode(tr, res, args, kwargs):
    for name in ("messages_sent", "messages_rejected", "gaussians_sent", "bytes_sent"):
        tr.counts[f"comms.{name}"] += getattr(res.comm, name)


def _count_cull(tr, kept, args, kwargs):
    tr.counts["comms.given"] += len(args[0])
    tr.counts["comms.kept"] += len(kept)


def _count_tape(tr, tape, ego_rows):
    tr.counts["fusion.ego_rows"] += ego_rows
    if tape is not None:
        tr.counts["fusion.pairs"] += int(tape.counts.sum())
        tr.counts["fusion.fused_egos"] += int(tape.seg_egos.size)


def _count_recorded_fusion(tr, fused, args, kwargs):
    """Inference calls keep no tape, so repeat the call with one."""
    _, tape = tr.originals[(sim, "fuse_scene")](*args, **{**kwargs, "record": True})
    _count_tape(tr, tape, len(args[0]))


def _count_training_fusion(tr, out, args, kwargs):
    _count_tape(tr, out[1] if isinstance(out, tuple) else None, len(args[0]))


def _count_splat(tr, grid, args, kwargs):
    tr.counts["splat.gaussians"] += len(args[0])


# (owner, attribute, span, counter)
PATCHES = (
    (sim, "rasterize_world", "sim.rasterize", None),
    (sim, "build_ground_truth", "sim.ground_truth", _count_rays),
    (sim, "observe", "sim.observe", None),
    (sim, "run_episode", "sim.episode", _count_episode),
    (sim, "cull_to_roi", "comms.cull", _count_cull),
    (sim, "serialize_message", "comms.encode", None),
    (sim, "deserialize_message", "comms.decode", None),
    (sim, "fuse_scene", "fusion.fuse", _count_recorded_fusion),
    (learn, "fuse_scene", "fusion.fuse", _count_training_fusion),
    (learn, "fusion_backward", "fusion.backward", None),
    (sim, "splat", "splat.forward", _count_splat),
    (learn, "splat", "splat.forward", _count_splat),
    (sim, "labels_from_channels", "splat.labels", None),
    (learn, "splat_backward", "splat.backward", None),
    (learn, "scene_loss_and_grads", "learn.scene", None),
    (learn, "total_loss", "learn.loss", None),
    (getattr(learn, "AdamW", None), "step", "learn.optimizer", None),
    (learn, "train", "learn.train", None),
)


@contextmanager
def installed(tracer: Tracer):
    """Put the spans in place for the duration of the block."""
    for owner, attr, span, counter in PATCHES:
        fn = getattr(owner, attr, None)
        if fn is None:
            continue
        tracer.originals[(owner, attr)] = fn
        setattr(owner, attr, tracer.wrap(span, fn, counter))
    try:
        yield tracer
    finally:
        for (owner, attr), fn in tracer.originals.items():
            setattr(owner, attr, fn)
