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
from gsfusion.metrics import iou_3d
from gsfusion.sim import (
    MODES,
    ObservationModel,
    SceneSpecError,
    derive_scene_seed,
    generate_scene,
    make_training_example,
    model_from_dict,
    prepare_episode,
    run_episode,
    scene_from_dict,
)
from gsfusion.splat import SplatConfig, load_voxg, save_voxg, splat, splat_sparse


class ConfigError(ValueError):
    pass


_DEFAULTS = {
    "seed": 0,
    "scenes": 4,
    "agents": 3,
    "scene_files": [],
    "world_half_xy": 20.0,
    "grid_dims": [100, 100, 8],
    "modes": ["single", "zero_shot"],
    "precision": "fp16",
    "budget_bytes": None,
    "params": None,
    "out": "out",
    "observation": {},
    "fusion": {},
    "splat": {},
    "train": {},
}

# the train section holds these and TrainConfig's fields
_TRAIN_DEFAULTS = {
    "mode": "learned",
    "train_scenes": 20,
    "holdout_scenes": 8,
}


def _field_defaults(kind) -> dict:
    return {f.name: f.default for f in dataclasses.fields(kind)}


# the keys each config section takes: the fields of the dataclass it fills
_SECTION_KEYS = {
    "observation": set(_field_defaults(ObservationModel)),
    "fusion": set(_field_defaults(FusionConfig)),
    "splat": set(_field_defaults(SplatConfig)),
    "train": set(_field_defaults(TrainConfig)) | set(_TRAIN_DEFAULTS),
}


# the keys of each section that take only whole numbers
_INTEGER_KEYS = {
    "observation": ("gaussians_per_agent",),
    "train": ("steps", "warmup_steps", "batch", "seed", "train_scenes", "holdout_scenes"),
}


def _whole_number(value):
    """`value` as an int if it is an int or a float without a fractional
    part (not a bool), else None."""
    if isinstance(value, bool):
        return None
    if isinstance(value, int):
        return value
    if isinstance(value, float) and value.is_integer():
        return int(value)
    return None


def load_config(path: str | None) -> dict:
    cfg = {k: (dict(v) if isinstance(v, dict) else v) for k, v in _DEFAULTS.items()}
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
        unknown = set(data) - set(_DEFAULTS)
        if unknown:
            raise ConfigError(f"{path}: unknown config keys {sorted(unknown)}")
        for k, v in data.items():
            cfg[k] = {} if v is None and k in _SECTION_KEYS else v     # an empty section
        for name, keys in _SECTION_KEYS.items():
            if not isinstance(cfg[name], dict):
                raise ConfigError(f"{path}: section {name}: must be a mapping, not {cfg[name]!r}")
            unknown = set(cfg[name]) - keys
            if unknown:
                raise ConfigError(f"{path}: section {name}: unknown keys {sorted(unknown)}")
            for key in set(cfg[name]) & set(_INTEGER_KEYS.get(name, ())):
                whole = _whole_number(cfg[name][key])
                if whole is None:
                    raise ConfigError(f"{path}: section {name}: {key} must be an integer, "
                                      f"not {cfg[name][key]!r}")
                cfg[name][key] = whole
    cfg["train"] = {**_field_defaults(TrainConfig), **_TRAIN_DEFAULTS, **cfg["train"]}
    return cfg


def _apply_flag_overrides(cfg: dict, args: argparse.Namespace) -> dict:
    if getattr(args, "modes", None):
        cfg["modes"] = [m.strip() for m in args.modes.split(",") if m.strip()]
    for flag, key in (("seed", "seed"), ("out", "out"), ("precision", "precision"),
                      ("budget_bytes", "budget_bytes"), ("params", "params"),
                      ("scenes", "scenes"), ("agents", "agents")):
        val = getattr(args, flag, None)
        if val is not None:
            cfg[key] = val
    if getattr(args, "gaussians", None) is not None:
        cfg["observation"]["gaussians_per_agent"] = args.gaussians
    if getattr(args, "rho", None) is not None:
        cfg["fusion"]["radius_rho"] = args.rho
    if getattr(args, "pooling", None) is not None:
        cfg["fusion"]["pooling"] = args.pooling
    if getattr(args, "steps", None) is not None:
        cfg["train"]["steps"] = args.steps
    if getattr(args, "train_mode", None) is not None:
        cfg["train"]["mode"] = args.train_mode
    return cfg


def _from_section(name: str, build, values: dict):
    """build(values) for config section `name`; a value of the wrong type
    or out of range is a ConfigError that names the section."""
    try:
        return build(values)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"section {name}: {exc}") from exc


def _build_components(cfg: dict):
    model = _from_section("observation", model_from_dict, cfg["observation"])
    fusion_cfg = _from_section("fusion", lambda v: FusionConfig(**v), cfg["fusion"])
    splat_cfg = _from_section("splat", lambda v: SplatConfig(**v), cfg["splat"])
    if cfg["precision"] not in ("fp16", "fp32"):
        raise ConfigError("precision must be fp16 or fp32")
    precision = PRECISION_FP16 if cfg["precision"] == "fp16" else PRECISION_FP32
    return model, fusion_cfg, splat_cfg, precision


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
            except (OSError, SceneSpecError, KeyError) as exc:
                raise ConfigError(f"bad scene file {p}: {exc}") from exc
        return scenes
    return [generate_scene(derive_scene_seed(purpose_seed, i),
                           num_agents=int(cfg["agents"]),
                           world_half_xy=float(cfg["world_half_xy"]),
                           grid_dims=tuple(cfg["grid_dims"]))
            for i in range(count)]


def _load_any_params(path: str):
    try:
        return load_params(path)
    except ValueError:
        return load_calibration(path)


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------

def cmd_run(args) -> int:
    cfg = _apply_flag_overrides(load_config(args.config), args)
    model, fusion_cfg, splat_cfg, precision = _build_components(cfg)
    modes = cfg["modes"]
    for m in modes:
        if m not in MODES:
            raise ConfigError(f"unknown mode {m!r}")
    params = _load_any_params(cfg["params"]) if cfg["params"] else None
    if "learned" in modes and not isinstance(params, FusionParams):
        raise ConfigError("learned mode needs --params pointing at a FusionParams file")

    out = Path(cfg["out"])
    out.mkdir(parents=True, exist_ok=True)
    scenes = _scenes_for(cfg, int(cfg["seed"]), int(cfg["scenes"]))

    report_rows = []
    comm_rows = []
    summary = {m: {"iou": [], "miou": [], "bytes": 0, "messages": 0, "gaussians": 0}
               for m in modes}
    for si, spec in enumerate(scenes):
        episode = prepare_episode(spec, model)
        for a in range(spec.num_agents):
            save_voxg(episode.gt.collaborative[a], out / f"scene{si}_agent{a}_gt.voxg")
        for mode in modes:
            mode_params = None
            if mode == "learned":
                mode_params = params
            elif mode == "naive" and isinstance(params, Calibration):
                mode_params = params
            sink = [] if args.dump_messages else None
            res = run_episode(spec, model, mode, params=mode_params, episode=episode,
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
            w.writerow([mode, f"{np.mean(s['iou']):.6f}", f"{np.mean(s['miou']):.6f}",
                        s["bytes"], s["messages"], s["gaussians"]])
    for mode in modes:
        s = summary[mode]
        print(f"{mode:10s} mean IoU {np.mean(s['iou']):.4f}  "
              f"mean mIoU {np.mean(s['miou']):.4f}  bytes {s['bytes']}")
    return 0


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------

def _mean_miou(scenes, episodes, results) -> float:
    vals = []
    for spec, episode, res in zip(scenes, episodes, results):
        for a in range(spec.num_agents):
            vals.append(iou_3d(res.labels[a], episode.gt.collaborative[a]).miou)
    return float(np.mean(vals))


def cmd_train(args) -> int:
    cfg = _apply_flag_overrides(load_config(args.config), args)
    model, fusion_cfg, splat_cfg, precision = _build_components(cfg)
    tr = cfg["train"]
    # each field is cast to its default's type (int or float)
    train_cfg = _from_section("train", lambda t: TrainConfig(
        **{k: type(v)(t[k]) for k, v in _field_defaults(TrainConfig).items()}), tr)
    out = Path(cfg["out"])
    out.mkdir(parents=True, exist_ok=True)

    train_scenes = _scenes_for(cfg, derive_scene_seed(int(cfg["seed"]), 0xA11CE),
                               int(tr["train_scenes"]))
    mode = tr["mode"]
    if mode == "learned":
        examples = [make_training_example(s, model, ego=0, precision=precision)
                    for s in train_scenes]
        params0 = FusionParams.init(seed=int(tr["seed"]))
        params, curve = train(params0, examples, train_cfg, fusion_cfg=fusion_cfg,
                              splat_cfg=splat_cfg, log_every=args.log_every)
        save_params(params, out / "params.fprm")
        trained = params
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

    holdout = int(tr["holdout_scenes"])
    if holdout > 0:
        scenes = _scenes_for(cfg, derive_scene_seed(int(cfg["seed"]), 0xE7A1),
                             holdout)
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
    grid = load_voxg(args.grid)
    geom = grid.geometry
    out = open(args.out, "w", newline="") if args.out else sys.stdout
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
            for x in range(geom.dims[0]):
                for y in range(geom.dims[1]):
                    for z in range(geom.dims[2]):
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

    run = sub.add_parser("run", help="run collaboration modes over scenes")
    run.add_argument("--config", help="YAML experiment config")
    run.add_argument("--modes", help="comma-separated mode list")
    run.add_argument("--gaussians", type=int, help="gaussians per agent")
    run.add_argument("--precision", choices=["fp16", "fp32"])
    run.add_argument("--budget-bytes", dest="budget_bytes", type=int)
    run.add_argument("--rho", type=float, help="fusion neighborhood radius")
    run.add_argument("--pooling", choices=["mean", "attention"])
    run.add_argument("--seed", type=int)
    run.add_argument("--scenes", type=int)
    run.add_argument("--agents", type=int)
    run.add_argument("--params", help="FPRM parameter file")
    run.add_argument("--out")
    run.add_argument("--dump-channels", action="store_true")
    run.add_argument("--dump-messages", action="store_true",
                     help="also write accepted GMSG wire messages")
    run.set_defaults(fn=cmd_run)

    tr = sub.add_parser("train", help="train fusion parameters")
    tr.add_argument("--config")
    tr.add_argument("--mode", dest="train_mode", choices=["learned", "naive"])
    tr.add_argument("--steps", type=int)
    tr.add_argument("--gaussians", type=int)
    tr.add_argument("--rho", type=float)
    tr.add_argument("--pooling", choices=["mean", "attention"])
    tr.add_argument("--precision", choices=["fp16", "fp32"])
    tr.add_argument("--seed", type=int)
    tr.add_argument("--scenes", type=int)
    tr.add_argument("--agents", type=int)
    tr.add_argument("--out")
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
    except (ConfigError, SceneSpecError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
