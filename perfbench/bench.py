"""The workloads of the gsfusion benchmark and the loop that runs them.

A round is what the library calls one end-to-end unit at a given scale:
one `run_episode` call per mode (learned, single, zero_shot, naive) on
each of the workload's scenes, then one `train` call of the workload's
step count from `FusionParams.init` weights. An untraced run sets its
inputs up SETUP_REPEATS times (setup_s is the median), runs whole rounds
until the requested seconds have passed (at least one), times every call
at a reference speed (`ReferenceTimer`), and checks the first round's
outputs; later rounds must reproduce its output digests bit for bit.
A traced run repeats set-up plus one round under the spans of
`tracing` until the seconds have passed, at least twice (the first pass
runs cold and only gives the peak-RSS rises), then runs one untraced
pass; their outputs must be bit-identical, and the gap between their
times at the reference speed is the tracing overhead.

The library's modules are looked up per call (`sim.run_episode`,
`learn.train`), so the spans installed by `tracing` see every call.
"""

from __future__ import annotations

import hashlib
import statistics
import time
import traceback
from dataclasses import dataclass, replace

import numpy as np

from gsfusion import learn, sim
from gsfusion.core import NUM_CLASSES, GaussianSet
from gsfusion.fusion import FusionConfig, FusionParams, fuse_scene
from gsfusion.metrics import iou_3d
from gsfusion.splat import SplatConfig

import checks
import tracing

PARAM_SEED = 0              # FusionParams.init seed
SETUP_REPEATS = 3
LOSS_WINDOW = 5             # steps averaged for train_loss and the curve check
DESCENT_EXAMPLES = 3        # training examples the descent check evaluates
TRAIN_EGO = 0               # ego agent of every training example
CHECK_VOXELS = 200          # voxels checked per splatted grid
FUSION_ROWS = (20, 10)      # checked ego rows with / without neighbours
DIRECTIONAL_STEPS = (1e-6, 1e-7, 1e-8)
CHECK_STREAM = 0xC4EC       # seed stream of the checks' samples and direction
PROBE_REF_S = 0.15          # speed_probe() seconds that define the reference speed
TRAIN = dict(warmup_steps=50, peak_lr=2e-4, weight_decay=0.01, seed=0)
# learned first: in a traced run's cold first pass, the process's first
# rise in peak RSS then belongs to fusion, not to an earlier splat
ROUND_MODES = ("learned", "single", "zero_shot", "naive")


@dataclass(frozen=True)
class Workload:
    """A fixed family of scene layouts; the workload seed draws the
    agents' observations of them (see `setup`)."""

    name: str
    layouts: tuple              # generate_scene seeds of the scene layouts
    agents: int
    gaussians: int              # per agent
    grid_dims: tuple
    world_half_xy: float
    scenes: int                 # layouts whose episodes run in every round
    train_scenes: int           # training examples, one per layout from the first
    batch: int
    steps: int                  # training steps per round


# the criterion-6 fixture: `gsfusion train` with seed 123 and 12 train scenes
_FIXTURE = tuple(sim.derive_scene_seed(sim.derive_scene_seed(123, 0xA11CE), i)
                 for i in range(12))

WORKLOADS = {
    "paper_infer": Workload(
        "paper_infer", layouts=(42,), agents=3, gaussians=3200, grid_dims=(100, 100, 8),
        world_half_xy=20.0, scenes=1, train_scenes=1, batch=1, steps=3),
    "acceptance_train": Workload(
        "acceptance_train", layouts=_FIXTURE, agents=3, gaussians=1500,
        grid_dims=(50, 50, 8), world_half_xy=10.0, scenes=4, train_scenes=12,
        batch=2, steps=16),
}


def tiny(w: Workload) -> Workload:
    """The same workload shrunk to run in seconds, for the smoke tests."""
    return replace(w, gaussians=120, grid_dims=(20, 20, 8), world_half_xy=10.0, scenes=1,
                   train_scenes=min(w.train_scenes, 2), steps=min(w.steps, 3))


# ---------------------------------------------------------------------------
# timing at a reference speed
# ---------------------------------------------------------------------------

_PROBE_SLOTS = np.random.default_rng(0).integers(0, 1 << 20, size=1_500_000)


def speed_probe() -> float:
    """Seconds for a fixed, memory-heavy mix of the work the library does,
    made without calling it: fresh large arrays, elementwise math, a
    scatter-add, a sort and a gather."""
    t0 = time.perf_counter()
    b = np.ones((1_500_000, 3)) * 2.0 + 1.0         # 36 MB: above malloc's mmap threshold
    c = np.sum(b * b, axis=1)
    np.bincount(_PROBE_SLOTS, weights=np.exp(-0.5 * c), minlength=1 << 20)
    order = np.argsort(c[:300_000] + _PROBE_SLOTS[:300_000], kind="stable")
    b[order]
    return time.perf_counter() - t0


def plain_timer(fn, *args, **kwargs):
    """(result, wall seconds) of one call."""
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    return out, time.perf_counter() - t0


class ReferenceTimer:
    """(result, seconds at the reference speed) of one call.

    A shared host can drift by a quarter or more in speed over minutes,
    alike for every call in a run (see the README). Each call's wall time
    is scaled by PROBE_REF_S over the mean of the speed probes taken just
    before and just after it. The probe does not call the library, so a
    faster library still reads faster. The raw times are kept in `log`.
    """

    def __init__(self):
        self.before = speed_probe()
        self.log = []               # (wall seconds, probe before, probe after)

    def __call__(self, fn, *args, **kwargs):
        out, wall = plain_timer(fn, *args, **kwargs)
        after = speed_probe()
        self.log.append((wall, self.before, after))
        scale = PROBE_REF_S / (0.5 * (self.before + after))
        self.before = after
        return out, wall * scale


# ---------------------------------------------------------------------------
# inputs and rounds
# ---------------------------------------------------------------------------

@dataclass
class Inputs:
    specs: list
    model: sim.ObservationModel
    episodes: list
    examples: list
    params: FusionParams
    calibration: learn.Calibration


def setup(w: Workload, seed: int) -> Inputs:
    """The workload's scenes, their prepared episodes, the training
    examples and the initial parameters.

    Layouts and agent poses are fixed per workload, so every seed asks for
    about the same work. The scene seed, which the library draws each
    agent's observation from (which visible voxels it samples and the
    position, scale, label and yaw noise), is derived from the workload
    seed.
    """
    model = sim.ObservationModel(gaussians_per_agent=w.gaussians)
    specs = [replace(sim.generate_scene(layout, num_agents=w.agents,
                                        world_half_xy=w.world_half_xy, grid_dims=w.grid_dims),
                     seed=sim.derive_scene_seed(seed, i))
             for i, layout in enumerate(w.layouts[:max(w.scenes, w.train_scenes)])]
    episodes = [sim.prepare_episode(s, model) for s in specs]
    examples = [sim.make_training_example(s, model, ego=TRAIN_EGO, episode=e)
                for s, e in zip(specs[:w.train_scenes], episodes)]
    return Inputs(specs, model, episodes, examples, FusionParams.init(seed=PARAM_SEED),
                  learn.Calibration.identity(NUM_CLASSES))


@dataclass
class Episode:
    scene: int
    mode: str
    result: object              # EpisodeResult; None if the call raised
    sink: list                  # accepted wire messages (sender, receiver, bytes)
    seconds: float
    digest: str


@dataclass
class Round:
    episodes: list
    curve: list
    trained: object             # FusionParams after the round's training; None if it raised
    train_seconds: float
    train_digest: str
    errors: dict                # op key -> traceback


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def _episode_digest(res) -> str:
    c = res.comm
    return _digest(*[g.labels for g in res.labels], *[g.channels for g in res.channels],
                   np.array([c.messages_sent, c.messages_rejected, c.gaussians_sent,
                             c.bytes_sent]))


def run_round(w: Workload, inp: Inputs, timer=plain_timer) -> Round:
    episodes, errors = [], {}
    for mode in ROUND_MODES:
        for i in range(w.scenes):
            prm = {"naive": inp.calibration, "learned": inp.params}.get(mode)
            sink = []
            try:
                res, dt = timer(sim.run_episode, inp.specs[i], inp.model, mode, params=prm,
                                episode=inp.episodes[i], message_sink=sink)
            except Exception:
                errors[("episode", i, mode)] = traceback.format_exc()
                episodes.append(Episode(i, mode, None, sink, 0.0, ""))
                continue
            episodes.append(Episode(i, mode, res, sink, dt, _episode_digest(res)))
    cfg = learn.TrainConfig(steps=w.steps, batch=w.batch, **TRAIN)
    try:
        (trained, curve), dt = timer(learn.train, inp.params, inp.examples, cfg)
    except Exception:
        errors[("train",)] = traceback.format_exc()
        return Round(episodes, [], None, 0.0, "", errors)
    digest = _digest(np.array(curve, dtype=np.float64), *trained.as_dict().values())
    return Round(episodes, curve, trained, dt, digest, errors)


def warm_up(inp: Inputs) -> None:
    """One untimed learned episode, the largest call, so that timed calls
    do not pay for the process's first large allocations or for starting
    the BLAS threads. A failure here shows again, and is counted, in the
    timed round."""
    try:
        sim.run_episode(inp.specs[0], inp.model, "learned", params=inp.params,
                        episode=inp.episodes[0])
    except Exception:
        pass


def _op_weight(w: Workload, key) -> int:
    return w.steps if key == ("train",) else 1


def _ops_per_round(w: Workload) -> int:
    return w.scenes * len(ROUND_MODES) + w.steps


def _mismatches(ref: Round, other: Round) -> dict:
    """Ops of `other` whose outputs differ from `ref`'s."""
    out = {}
    for a, b in zip(ref.episodes, other.episodes):
        if a.digest != b.digest:
            out[("episode", b.scene, b.mode)] = "output digest differs from the reference round"
    if ref.train_digest != other.train_digest:
        out[("train",)] = "training digest differs from the reference round"
    return out


def _slim(rnd: Round) -> Round:
    """Keep digests and timings, drop the grids and the trained weights."""
    return replace(rnd, episodes=[replace(e, result=None, sink=[]) for e in rnd.episodes],
                   trained=None)


# ---------------------------------------------------------------------------
# checks on the first round
# ---------------------------------------------------------------------------

def _fields(sets):
    s = GaussianSet.concat(sets)
    return s.means, s.scales, s.rotations, s.opacities, s.semantics


def frame_reports(inp: Inputs, rnd: Round) -> list:
    """(episode, [iou_3d report per agent]) against the collaborative truth."""
    out = []
    for e in rnd.episodes:
        if e.result is not None:
            gt = inp.episodes[e.scene].gt.collaborative
            out.append((e, [iou_3d(lab, gt[a]) for a, lab in enumerate(e.result.labels)]))
    return out


def run_checks(w: Workload, inp: Inputs, rnd: Round, seed: int) -> list:
    """[(Check, op keys it covers)] for one round's outputs."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, CHECK_STREAM]))
    splat_cfg, fusion_cfg = SplatConfig(), FusionConfig()
    floor, trunc = splat_cfg.min_contribution, splat_cfg.truncation_sigma
    fixed = sim.empty_space_gaussian(inp.model)
    done = []
    by_mode = {(e.scene, e.mode): e for e in rnd.episodes if e.result is not None}
    reports = frame_reports(inp, rnd)
    for e, reps in reports:
        spec, episode, res = inp.specs[e.scene], inp.episodes[e.scene], e.result
        key = [("episode", e.scene, e.mode)]
        tag = f"scene {e.scene} {e.mode}"
        frames = [(lab.labels, episode.gt.collaborative[a].labels)
                  for a, lab in enumerate(res.labels)]
        done.append((checks.check_iou(f"iou {tag}", reps, frames, NUM_CLASSES), key))
        if e.mode != "single":
            half = np.array(spec.grid_dims) * spec.voxel_size / 2.0
            counted = [checks.expected_comm_counts(spec.agents, episode.observations, ego, half,
                                                   NUM_CLASSES, None)
                       for ego in range(spec.num_agents)]
            expected = {k: sum(c[k] for c in counted) for k in counted[0]}
            done.append((checks.check_comms(f"comms {tag}", expected, res.comm), key))
        if e.mode == "naive":
            zs = by_mode.get((e.scene, "zero_shot"))
            same = zs is not None and all(
                np.array_equal(a.channels, b.channels) and np.array_equal(c.labels, d.labels)
                for a, b, c, d in zip(res.channels, zs.result.channels, res.labels,
                                      zs.result.labels))
            done.append((checks.Check(f"naive {tag}", same, 0.0,
                                      "identity calibration leaves zero_shot bit-identical"),
                         key))
            continue
        fusion_ego = int(rng.integers(spec.num_agents))
        for ego in range(spec.num_agents):
            if e.mode == "learned" and ego != fusion_ego:
                continue
            own = episode.observations[ego]
            received = [GaussianSet(*checks.decode_fp16_message(data, NUM_CLASSES))
                        for _, to, data in e.sink if to == ego]
            parts = [own] if e.mode == "single" else [own] + received
            if e.mode == "learned":
                stacked = GaussianSet.concat(parts)
                fused = fuse_scene(stacked, received, fusion_cfg, inp.params)
                pool = GaussianSet.concat(received).means if received else np.zeros((0, 3))
                rows, unfused = checks.fusion_rows(stacked.means, pool, fusion_cfg.radius_rho,
                                                   rng, *FUSION_ROWS)
                done.append((checks.check_fusion(f"fusion {tag} ego {ego}", stacked, received,
                                                 fusion_cfg, inp.params, fused, rows,
                                                 unfused), key))
                parts = [fused]
            channels = res.channels[ego].channels
            voxels = checks.sample_voxels(channels, rng, CHECK_VOXELS, floor)
            done.append((checks.check_splat(f"splat {tag} ego {ego}", _fields(parts + [fixed]),
                                            res.channels[ego].geometry, trunc, floor,
                                            channels, res.labels[ego].labels, voxels), key))
    miou = {m: [r.miou for e, reps in reports if e.mode == m for r in reps]
            for m in ("single", "zero_shot")}
    if miou["single"] and miou["zero_shot"]:
        keys = [("episode", e.scene, e.mode) for e, _ in reports
                if e.mode in ("single", "zero_shot")]
        done.append((checks.check_ordering("zero_shot beats single",
                                           float(np.mean(miou["zero_shot"])),
                                           float(np.mean(miou["single"]))), keys))
    if rnd.curve:
        done.append((checks.check_curve("training curve", rnd.curve, LOSS_WINDOW), [("train",)]))
        done.append((descent_check(inp, rnd.trained), [("train",)]))
        done.append((directional_check(inp, seed), [("train",)]))
    return done


def descent_check(inp: Inputs, trained: FusionParams) -> checks.Check:
    """The trained weights lower the loss on the same examples: the first
    DESCENT_EXAMPLES training examples, evaluated at the initial and at
    the trained parameters."""
    fcfg, scfg = FusionConfig(), SplatConfig()

    def loss(params):
        return [learn.scene_loss_and_grads(ex, fcfg, scfg, params, want_grads=False)[0].total
                for ex in inp.examples[:DESCENT_EXAMPLES]]

    return checks.check_descent("training descent", loss(inp.params), loss(trained))


def directional_inputs(inp: Inputs, seed: int):
    """(gradients, unit direction, loss along it) for the first example at
    the initial parameters, the direction drawn from the seed."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, CHECK_STREAM, 1]))
    ex, fcfg, scfg = inp.examples[0], FusionConfig(), SplatConfig()
    p0 = inp.params.as_dict()
    direction = {k: rng.normal(size=v.shape) for k, v in p0.items()}
    norm = np.sqrt(sum(float(np.sum(d * d)) for d in direction.values()))
    direction = {k: d / norm for k, d in direction.items()}
    _, grads = learn.scene_loss_and_grads(ex, fcfg, scfg, inp.params)

    def loss_at(t):
        p = FusionParams(**{k: v + t * direction[k] for k, v in p0.items()})
        return learn.scene_loss_and_grads(ex, fcfg, scfg, p, want_grads=False)[0].total

    return grads, direction, loss_at


def directional_check(inp: Inputs, seed: int) -> checks.Check:
    return checks.check_directional("directional derivative",
                                    *directional_inputs(inp, seed), DIRECTIONAL_STEPS)


# ---------------------------------------------------------------------------
# runs
# ---------------------------------------------------------------------------

def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def end_to_end(w: Workload, inp: Inputs, rounds: list, first: Round, setups: list,
               peak_mb: float) -> dict:
    times = {m: [e.seconds for r in rounds for e in r.episodes
                 if e.mode == m and e.digest] for m in sim.MODES}
    reports = frame_reports(inp, first)
    collab = [e for e, _ in reports if e.mode != "single"]
    frames = [r for _, reps in reports for r in reps]
    loss = [row[3] for row in first.curve[-LOSS_WINDOW:]]
    out = {"setup_s": (_median(setups), "s")}
    for m in sim.MODES:
        out[f"{m}_episode_s"] = (_median(times[m]), "s")
    out["train_steps_per_s"] = (
        _median([w.steps / r.train_seconds for r in rounds if r.train_seconds]), "1/s")
    out["train_loss"] = (float(np.mean(loss)) if loss else 0.0, "loss")
    out["miou"] = (float(np.mean([r.miou for r in frames])) if frames else 0.0, "fraction")
    out["iou"] = (float(np.mean([r.iou for r in frames])) if frames else 0.0, "fraction")
    out["bytes_per_frame"] = (
        sum(e.result.comm.bytes_sent for e in collab) / (len(collab) * w.agents)
        if collab else 0.0, "bytes")
    out["peak_rss_mb"] = (peak_mb, "MB")
    return out


def _settle(failures: dict, done: list) -> None:
    """Fold failed checks into the per-op failures of the checked round."""
    for chk, keys in done:
        if not chk.ok:
            for key in keys:
                failures.setdefault(key, f"check failed: {chk.name}: {chk.detail}")


def run(w: Workload, seed: int, seconds: float, trace: bool) -> dict:
    return (_run_traced if trace else _run_untraced)(w, seed, seconds)


def _run_untraced(w: Workload, seed: int, seconds: float) -> dict:
    timer = ReferenceTimer()
    setups, inp = [], None
    for _ in range(SETUP_REPEATS):
        inp = None                      # free the previous set-up first
        inp, dt = timer(setup, w, seed)
        setups.append(dt)
    warm_up(inp)
    rounds, start = [], time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        rnd = run_round(w, inp, timer)
        rounds.append(rnd if not rounds else _slim(rnd))
    peak = tracing.peak_rss_mb()
    first = rounds[0]
    per_round = [dict(r.errors) for r in rounds]
    for r, fails in zip(rounds[1:], per_round[1:]):
        for key, why in _mismatches(first, r).items():
            fails.setdefault(key, why)
    done = run_checks(w, inp, first, seed)
    _settle(per_round[0], done)
    metrics = end_to_end(w, inp, rounds, first, setups, peak)
    return _result(w, seed, len(rounds), per_round, done, metrics,
                   {"setup_s": setups,
                    **{m: [e.seconds for r in rounds for e in r.episodes if e.mode == m]
                       for m in sim.MODES},
                    "train_s": [r.train_seconds for r in rounds],
                    "wall_and_probes_s": timer.log})


def _setup_and_round(w: Workload, seed: int):
    inp = setup(w, seed)
    return inp, run_round(w, inp)


def _run_traced(w: Workload, seed: int, seconds: float) -> dict:
    """Traced passes (set-up plus one round) until the seconds have passed,
    at least two, then one untraced pass. The first traced pass runs cold,
    before the reference timer's first probe: it gives the peak-RSS rises
    and is left out of the times. The later ones give times and counts."""
    passes, timer, first, start = [], None, None, time.perf_counter()
    while len(passes) < 2 or time.perf_counter() - start < seconds:
        tr = tracing.Tracer()
        with tracing.installed(tr):
            (inp, rnd), dt = (timer or plain_timer)(_setup_and_round, w, seed)
        # the counting blocks are not tracing cost: scale them out with the wall time
        wall = timer.log[-1][0] if timer else dt
        passes.append((tr, dt * (wall - tr.untimed_s) / wall,
                       rnd if first is None else _slim(rnd)))
        if first is None:
            first, timer = (inp, rnd), ReferenceTimer()
        inp = rnd = None
    (_, ref), ref_s = timer(_setup_and_round, w, seed)
    ref = _slim(ref)
    per_round = [dict(r.errors) for _, _, r in passes] + [dict(ref.errors)]
    for (_, _, r), fails in zip(passes, per_round):
        for key, why in _mismatches(ref, r).items():
            fails.setdefault(key, why + " (traced vs untraced)")
    done = run_checks(w, first[0], first[1], seed)
    _settle(per_round[0], done)
    spans = [tr.metrics() for tr, _, _ in passes]
    metrics = {}
    for name, (_, unit) in spans[0].items():
        if name.endswith("rss_rise_mb"):
            metrics[name] = (max(s[name][0] for s in spans), unit)
        else:
            metrics[name] = (_median([s[name][0] for s in spans[1:]]), unit)
    traced_s = [t for _, t, _ in passes[1:]]
    metrics["trace.overhead_share"] = (_median(traced_s) / ref_s - 1.0, "fraction")
    return _result(w, seed, len(passes) + 1, per_round, done, metrics,
                   {"traced_pass_s": traced_s, "untraced_pass_s": [ref_s],
                    "untimed_s": [tr.untimed_s for tr, _, _ in passes],
                    "wall_and_probes_s": timer.log})


def _result(w, seed, rounds, per_round, done, metrics, samples) -> dict:
    failed = sum(_op_weight(w, key) for fails in per_round for key in fails)
    return {
        "correct": failed == 0,
        "attempted": rounds * _ops_per_round(w),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "workload": w.name,
        "seed": seed,
        "rounds": rounds,
        "checks": {chk.name: chk.as_dict() for chk, _ in done},
        "failures": [{"round": i, "op": list(key), "why": why}
                     for i, fails in enumerate(per_round) for key, why in fails.items()],
        "samples": samples,
    }
