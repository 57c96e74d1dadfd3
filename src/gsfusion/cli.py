"""Command-line front end: run collaboration experiments over generated or
file-backed scenes, train fusion parameters, and export grid files.

Every run is reproducible from (config, seed): scene seeds, observation
noise and training batches all derive from the root seed, and outputs are
written in a fixed order.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import sys
from pathlib import Path

import numpy as np
import yaml

from gsfusion.comms import PRECISION_FP16, PRECISION_FP32, communication_volume
from gsfusion.core import whole_number
from gsfusion.fusion import FusionConfig, FusionParams, load_params, save_params
from gsfusion.learn import (
    Calibration,
    TrainConfig,
    load_calibration,
    save_calibration,
    train,
    train_calibration,
    write_loss_curve,
)
from gsfusion.metrics import iou_3d, mean_defined
from gsfusion.sim import (
    MODES,
    ObservationModel,
    derive_scene_seed,
    generate_scene,
    make_training_example,
    prepare_episode,
    run_episode,
    scene_from_dict,
)
from gsfusion.splat import SplatConfig, load_voxg, save_voxg, splat, splat_sparse


class ConfigError(ValueError):
    pass


# every setting and its default, whose type is the rule a value must meet
# (see `_checked`); a section's default is the dataclass it builds, and it
# takes that dataclass's fields as keys
_DEFAULTS = {
    "seed": 0,
    "scenes": 4,
    "agents": 3,
    "scene_files": [],
    "world_half_xy": 20.0,
    "grid_dims": (100, 100, 8),
    "modes": ["single", "zero_shot"],
    "precision": "fp16",
    "budget_bytes": None,
    "params": None,
    "out": "out",
    "observation": ObservationModel,
    "fusion": FusionConfig,
    "splat": SplatConfig,
    "train": TrainConfig,
}
_SECTIONS = [k for k, v in _DEFAULTS.items() if dataclasses.is_dataclass(v)]

# the train section holds these besides TrainConfig's fields
_TRAIN_DEFAULTS = {
    "mode": "learned",
    "train_scenes": 20,
    "holdout_scenes": 8,
}

_PRECISIONS = {"fp16": PRECISION_FP16, "fp32": PRECISION_FP32}

# each flag of `run` and `train` and the (section, key) it sets; None is the top level
_FLAGS = {
    "seed": (None, "seed"),
    "scenes": (None, "scenes"),
    "agents": (None, "agents"),
    "modes": (None, "modes"),
    "precision": (None, "precision"),
    "budget_bytes": (None, "budget_bytes"),
    "params": (None, "params"),
    "out": (None, "out"),
    "gaussians": ("observation", "gaussians_per_agent"),
    "rho": ("fusion", "radius_rho"),
    "pooling": ("fusion", "pooling"),
    "steps": ("train", "steps"),
    "train_mode": ("train", "mode"),
}


def _section_defaults(name: str) -> dict:
    defaults = {f.name: f.default for f in dataclasses.fields(_DEFAULTS[name])}
    return {**defaults, **_TRAIN_DEFAULTS} if name == "train" else defaults


def _checked(key: str, value, default):
    """`value` for the setting `key`, by the rule its default's type sets:
    an int takes a whole number, a float any finite number, a str a string,
    a tuple as many values as it holds (each by its own rule) and a list a
    list of strings. Raises ValueError naming `key`."""
    if default is None:                             # the two null defaults
        if value is None:
            return None
        if key == "params":
            return _checked(key, value, "")         # a path
        if _checked(key, value, 0.0) < 0:           # budget_bytes
            raise ValueError(f"budget_bytes must be a number >= 0 or null, not {value!r}")
        return value
    if isinstance(default, int):
        return whole_number(key, value)
    if isinstance(default, float):
        if isinstance(value, bool) or not isinstance(value, (int, float)) \
                or not abs(value) <= sys.float_info.max:
            raise ValueError(f"{key} must be a finite number, not {value!r}")
        return float(value)
    if isinstance(default, str):
        if not isinstance(value, str):
            raise ValueError(f"{key} must be a string, not {value!r}")
        return value
    if isinstance(default, tuple):
        if not isinstance(value, list) or len(value) != len(default):
            raise ValueError(f"{key} must be a list of {len(default)} values, not {value!r}")
        return tuple(_checked(key, v, d) for v, d in zip(value, default))
    if not isinstance(value, list):
        raise ValueError(f"{key} must be a list, not {value!r}")
    return [_checked(key, v, "") for v in value]


def _put(cfg: dict, section: str | None, key: str, value, where: str) -> None:
    """Store `value` under `key` of `section` (None: the top level), checked
    by `_checked`; an unknown key or a bad value is a ConfigError that
    names `where` and the section."""
    into, defaults = ((cfg, _DEFAULTS) if section is None
                      else (cfg[section], _section_defaults(section)))
    inside = f"{where}: section {section}: " if section else f"{where}: "
    if key not in defaults:
        raise ConfigError(f"{inside}unknown key {key!r}")
    try:
        into[key] = _checked(key, value, defaults[key])
    except ValueError as exc:
        raise ConfigError(f"{inside}{exc}") from exc


def load_config(path: str | None) -> dict:
    """The settings of the YAML file at `path` (None: the defaults), every
    value checked by `_checked`; the train section is filled with its
    defaults. Raises ConfigError."""
    cfg = {k: ({} if k in _SECTIONS else v) for k, v in _DEFAULTS.items()}
    if path:
        try:
            with open(path) as f:
                data = yaml.safe_load(f) or {}
        except yaml.YAMLError as exc:
            raise ConfigError(f"cannot parse {path}: {exc}") from exc
        except OSError as exc:
            raise ConfigError(f"cannot read {path}: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError(f"{path}: top level must be a mapping")
        for key, value in data.items():
            if key not in _SECTIONS:
                _put(cfg, None, key, value, path)
                continue
            value = {} if value is None else value      # an empty section
            if not isinstance(value, dict):
                raise ConfigError(f"{path}: section {key}: must be a mapping, not {value!r}")
            for k, v in value.items():
                _put(cfg, key, k, v, path)
    cfg["train"] = {**_section_defaults("train"), **cfg["train"]}
    return cfg


def _settings(args) -> tuple:
    """The config file's settings with the flags given applied on top; the
    ObservationModel, FusionConfig, SplatConfig and TrainConfig built once
    from its sections; and the wire precision code."""
    cfg = load_config(args.config)
    for flag, (section, key) in _FLAGS.items():
        value = getattr(args, flag, None)
        if value is not None:
            _put(cfg, section, key, value, "command line")
    if cfg["precision"] not in _PRECISIONS:
        raise ConfigError("precision must be fp16 or fp32")
    built = []
    for name in _SECTIONS:
        kind = _DEFAULTS[name]
        fields = {f.name for f in dataclasses.fields(kind)}
        try:
            built.append(kind(**{k: v for k, v in cfg[name].items() if k in fields}))
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"section {name}: {exc}") from exc
    return cfg, *built, _PRECISIONS[cfg["precision"]]


def _scenes_for(cfg: dict, purpose_seed: int, count: int):
    """Scene list: explicit files win, otherwise generated from the seed."""
    if cfg["scene_files"]:
        scenes = []
        for p in cfg["scene_files"]:
            try:
                with open(p) as f:
                    scenes.append(scene_from_dict(yaml.safe_load(f)))
            except yaml.YAMLError as exc:
                raise ConfigError(f"cannot parse scene {p}: {exc}") from exc
            except (OSError, ValueError, KeyError) as exc:
                raise ConfigError(f"bad scene file {p}: {exc}") from exc
        return scenes
    if count == 0:
        raise ConfigError("no scenes: give scene_files or a scene count above 0")
    return [generate_scene(derive_scene_seed(purpose_seed, i),
                           num_agents=cfg["agents"], world_half_xy=cfg["world_half_xy"],
                           grid_dims=cfg["grid_dims"])
            for i in range(count)]


def _load_any_params(path: str):
    try:
        return load_params(path)
    except ValueError:
        return load_calibration(path)
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc.strerror}") from exc


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------

def cmd_run(args) -> int:
    cfg, model, fusion_cfg, splat_cfg, _, precision = _settings(args)
    modes = cfg["modes"]
    for m in modes:
        if m not in MODES:
            raise ConfigError(f"unknown mode {m!r}")
    params = _load_any_params(cfg["params"]) if cfg["params"] else None
    if "learned" in modes and not isinstance(params, FusionParams):
        raise ConfigError("learned mode needs --params pointing at a FusionParams file")

    out = Path(cfg["out"])
    out.mkdir(parents=True, exist_ok=True)
    scenes = _scenes_for(cfg, cfg["seed"], cfg["scenes"])

    report_rows = []
    comm_rows = []
    summary = {m: {"iou": [], "miou": [], "bytes": 0, "messages": 0, "gaussians": 0}
               for m in modes}
    for si, spec in enumerate(scenes):
        episode = prepare_episode(spec, model)
        for a in range(spec.num_agents):
            save_voxg(episode.gt.collaborative[a], out / f"scene{si}_agent{a}_gt.voxg")
        for mode in modes:
            sink = [] if args.dump_messages else None
            res = run_episode(spec, model, mode, params=params, episode=episode,
                              splat_cfg=splat_cfg, fusion_cfg=fusion_cfg,
                              precision=precision, budget_bytes=cfg["budget_bytes"],
                              message_sink=sink)
            if sink:
                for snd, rcv, data in sink:
                    (out / f"scene{si}_{mode}_s{snd}to{rcv}.gmsg").write_bytes(data)
            for a in range(spec.num_agents):
                rep = iou_3d(res.labels[a], episode.gt.collaborative[a])
                save_voxg(res.labels[a], out / f"scene{si}_{mode}_agent{a}_pred.voxg")
                if args.dump_channels:
                    save_voxg(res.channels[a], out / f"scene{si}_{mode}_agent{a}_ch.voxg")
                report_rows.append([si, mode, a, f"{rep.iou:.6f}", f"{rep.miou:.6f}",
                                    f"{rep.bev_iou['vehicle']:.6f}",
                                    f"{rep.bev_iou['road']:.6f}",
                                    f"{rep.bev_iou['others']:.6f}"])
                summary[mode]["iou"].append(rep.iou)
                summary[mode]["miou"].append(rep.miou)
            vol = communication_volume(res.comm)
            summary[mode]["bytes"] += vol["bytes_total"]
            summary[mode]["messages"] += vol["messages"]
            summary[mode]["gaussians"] += vol["gaussians"]
            for (snd, rcv), link in sorted(res.comm.per_link.items()):
                comm_rows.append([si, mode, snd, rcv, link.messages, link.gaussians,
                                  link.bytes, link.rejected])

    with open(out / "report.csv", "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["scene", "mode", "agent", "iou", "miou",
                    "bev_vehicle", "bev_road", "bev_others"])
        w.writerows(report_rows)
    with open(out / "comm.csv", "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["scene", "mode", "sender", "receiver", "messages",
                    "gaussians", "bytes", "rejected"])
        w.writerows(comm_rows)
    with open(out / "summary.csv", "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["mode", "mean_iou", "mean_miou", "bytes_sent", "messages",
                    "gaussians_sent"])
        for mode in modes:
            s = summary[mode]
            w.writerow([mode, f"{np.mean(s['iou']):.6f}", f"{mean_defined(s['miou']):.6f}",
                        s["bytes"], s["messages"], s["gaussians"]])
    for mode in modes:
        s = summary[mode]
        print(f"{mode:10s} mean IoU {np.mean(s['iou']):.4f}  "
              f"mean mIoU {mean_defined(s['miou']):.4f}  bytes {s['bytes']}")
    return 0


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------

def _mean_miou(scenes, episodes, results) -> float:
    vals = []
    for spec, episode, res in zip(scenes, episodes, results):
        for a in range(spec.num_agents):
            vals.append(iou_3d(res.labels[a], episode.gt.collaborative[a]).miou)
    return mean_defined(vals)


def cmd_train(args) -> int:
    cfg, model, fusion_cfg, splat_cfg, train_cfg, precision = _settings(args)
    tr = cfg["train"]
    out = Path(cfg["out"])
    out.mkdir(parents=True, exist_ok=True)

    train_scenes = _scenes_for(cfg, derive_scene_seed(cfg["seed"], 0xA11CE), tr["train_scenes"])
    mode = tr["mode"]
    if mode == "learned":
        examples = [make_training_example(s, model, ego=0, precision=precision)
                    for s in train_scenes]
        params0 = FusionParams.init(seed=train_cfg.seed)
        trained, curve = train(params0, examples, train_cfg, fusion_cfg=fusion_cfg,
                               splat_cfg=splat_cfg, log_every=args.log_every)
        save_params(trained, out / "params.fprm")
    elif mode == "naive":
        examples = []
        for s in train_scenes:
            ex = make_training_example(s, model, ego=0, precision=precision)
            fixed = splat_sparse(ex.fixed, ex.geometry, splat_cfg)
            channels = fixed.add_to(splat(ex.fusion_input, ex.geometry, splat_cfg).channels)
            examples.append((channels, ex.gt_labels))
        cal0 = Calibration.identity(13)
        trained, curve = train_calibration(cal0, examples, train_cfg)
        save_calibration(trained, out / "params.fprm")
    else:
        raise ConfigError("train mode must be 'learned' or 'naive'")
    write_loss_curve(out / "loss_curve.csv", curve)
    if curve:
        print(f"loss: first {curve[0][3]:.4f}  last {curve[-1][3]:.4f}")

    if tr["holdout_scenes"] > 0:
        scenes = _scenes_for(cfg, derive_scene_seed(cfg["seed"], 0xE7A1), tr["holdout_scenes"])
        episodes = [prepare_episode(s, model) for s in scenes]
        zero = [run_episode(s, model, "zero_shot", episode=e, splat_cfg=splat_cfg,
                            fusion_cfg=fusion_cfg, precision=precision)
                for s, e in zip(scenes, episodes)]
        fused = [run_episode(s, model, mode, params=trained, episode=e,
                             splat_cfg=splat_cfg, fusion_cfg=fusion_cfg,
                             precision=precision)
                 for s, e in zip(scenes, episodes)]
        m_zero = _mean_miou(scenes, episodes, zero)
        m_new = _mean_miou(scenes, episodes, fused)
        print(f"holdout mIoU: zero_shot {m_zero:.4f}  {mode} {m_new:.4f}")
    return 0


# ---------------------------------------------------------------------------
# export
# ---------------------------------------------------------------------------

def cmd_export(args) -> int:
    try:
        grid = load_voxg(args.grid)
        out = open(args.out, "w", newline="") if args.out else sys.stdout
    except OSError as exc:
        raise ConfigError(f"cannot open {exc.filename}: {exc.strerror}") from exc
    geom = grid.geometry
    try:
        w = csv.writer(out)
        w.writerow(["# dims", *geom.dims])
        w.writerow(["# origin", *(f"{v:.6f}" for v in geom.origin)])
        w.writerow(["# voxel_size", f"{geom.voxel_size:.6f}"])
        w.writerow(["# classes", geom.num_classes])
        if grid.labels is not None:
            counts = np.bincount(grid.labels.ravel(), minlength=geom.num_classes)
            w.writerow(["# payload", "labels"])
            for k in range(geom.num_classes):
                w.writerow(["count", k, int(counts[k])])
            w.writerow(["x", "y", "z", "label"])
            empty = geom.num_classes - 1
            for x, y, z in np.argwhere(grid.labels != empty):
                w.writerow([x, y, z, int(grid.labels[x, y, z])])
        else:
            w.writerow(["# payload", "channels"])
            w.writerow(["x", "y", "z", *[f"c{k}" for k in range(geom.num_classes)]])
            ch = grid.channels
            for x, y, z in np.ndindex(*geom.dims):
                w.writerow([x, y, z, *(f"{v:.8g}" for v in ch[x, y, z])])
    finally:
        if args.out:
            out.close()
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gsfusion",
        description="Collaborative semantic occupancy with Gaussian messages")
    sub = parser.add_subparsers(dest="command", required=True)

    # the flags `run` and `train` share
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="YAML experiment config")
    common.add_argument("--gaussians", type=int, help="gaussians per agent")
    common.add_argument("--precision", choices=["fp16", "fp32"])
    common.add_argument("--rho", type=float, help="fusion neighborhood radius")
    common.add_argument("--pooling", choices=["mean", "attention"])
    common.add_argument("--seed", type=int)
    common.add_argument("--scenes", type=int)
    common.add_argument("--agents", type=int)
    common.add_argument("--out")

    run = sub.add_parser("run", parents=[common], help="run collaboration modes over scenes")
    run.add_argument("--modes", help="comma-separated mode list",
                     type=lambda text: [m.strip() for m in text.split(",") if m.strip()])
    run.add_argument("--budget-bytes", dest="budget_bytes", type=int)
    run.add_argument("--params", help="FPRM parameter file")
    run.add_argument("--dump-channels", action="store_true")
    run.add_argument("--dump-messages", action="store_true",
                     help="also write accepted GMSG wire messages")
    run.set_defaults(fn=cmd_run)

    tr = sub.add_parser("train", parents=[common], help="train fusion parameters")
    tr.add_argument("--mode", dest="train_mode", choices=["learned", "naive"])
    tr.add_argument("--steps", type=int)
    tr.add_argument("--log-every", type=int, default=0)
    tr.set_defaults(fn=cmd_train)

    ex = sub.add_parser("export", help="dump a VOXG grid as CSV")
    ex.add_argument("grid")
    ex.add_argument("--out")
    ex.set_defaults(fn=cmd_export)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ValueError as exc:                 # ConfigError and SceneSpecError among them
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
