import argparse
import csv
import hashlib
import re
from pathlib import Path

import numpy as np
import pytest
import yaml

from gsfusion.cli import _settings, load_config, main
from gsfusion.fusion import FusionConfig, FusionParams, load_params, save_params
from gsfusion.learn import Calibration, TrainConfig, load_calibration, save_calibration
from gsfusion.sim import ObservationModel, generate_scene
from gsfusion.splat import SplatConfig, load_voxg

from helpers import scene_to_dict, undecodable_from


def small_config(tmp_path, **overrides):
    cfg = {
        "seed": 42,
        "scenes": 1,
        "agents": 2,
        "world_half_xy": 10.0,
        "grid_dims": [40, 40, 8],
        "observation": {"gaussians_per_agent": 60},
        "modes": ["single", "zero_shot"],
        "out": str(tmp_path / "out"),
        "train": {"steps": 2, "warmup_steps": 1, "batch": 1,
                  "train_scenes": 1, "holdout_scenes": 1},
    }
    cfg.update(overrides)
    path = tmp_path / "cfg.yaml"
    path.write_text(yaml.safe_dump(cfg))
    return path, cfg


def dir_hashes(path):
    out = {}
    for p in sorted(Path(path).rglob("*")):
        if p.is_file():
            out[p.name] = hashlib.sha256(p.read_bytes()).hexdigest()
    return out


class TestConfig:
    def test_defaults(self):
        cfg = load_config(None)
        assert cfg["modes"] == ["single", "zero_shot"]
        assert cfg["train"]["peak_lr"] == 2e-4

    def test_unknown_key_rejected(self, tmp_path):
        p = tmp_path / "bad.yaml"
        p.write_text("definitely_not_a_key: 1\n")
        assert main(["run", "--config", str(p)]) == 2

    def test_parse_error_diagnostic(self, tmp_path, capsys):
        p = tmp_path / "bad.yaml"
        p.write_text("seed: [unclosed\n")
        assert main(["run", "--config", str(p)]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("section, value", [
        ("fusion", {"radius": 1}),
        ("splat", 5),
        ("observation", 5),
        ("train", 5),
        ("train", {"stpes": 3}),
        ("observation", {"nope": 3}),
    ], ids=["fusion_unknown_key", "splat_not_mapping", "observation_not_mapping",
            "train_not_mapping", "train_unknown_key", "observation_unknown_key"])
    def test_bad_section_rejected(self, tmp_path, capsys, section, value):
        p, _ = small_config(tmp_path, **{section: value})
        assert main(["run", "--config", str(p)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and f"section {section}: " in err

    @pytest.mark.parametrize("command, section, value", [
        ("run", "fusion", {"radius_rho": "abc"}),
        ("run", "observation", {"gaussians_per_agent": "abc"}),
        ("run", "splat", {"truncation_sigma": "abc"}),
        ("train", "train", {"steps": [3], "train_scenes": 1, "holdout_scenes": 1}),
    ], ids=["fusion", "observation", "splat", "train"])
    def test_wrong_typed_value_rejected(self, tmp_path, capsys, command, section, value):
        p, _ = small_config(tmp_path, **{section: value})
        assert main([command, "--config", str(p)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and f"section {section}: " in err

    @pytest.mark.parametrize("command, section, value", [
        ("run", "observation", {"gaussians_per_agent": 150.5}),
        ("train", "train", {"steps": 2.7}),
        ("train", "train", {"warmup_steps": 0.5}),
        ("train", "train", {"batch": True}),
        ("train", "train", {"seed": 1.5}),
        ("train", "train", {"train_scenes": 1.5}),
        ("train", "train", {"holdout_scenes": True}),
        ("train", "train", {"holdout_scenes": -2}),
        ("train", "train", {"warmup_steps": -3}),
    ], ids=["gaussians_per_agent", "steps", "warmup_steps", "batch", "seed",
            "train_scenes", "holdout_scenes", "holdout_scenes_negative",
            "warmup_steps_negative"])
    def test_non_integer_count_rejected(self, tmp_path, capsys, command, section, value):
        p, cfg = small_config(tmp_path)
        p, _ = small_config(tmp_path, **{section: {**cfg[section], **value}})
        assert main([command, "--config", str(p)]) == 2
        err = capsys.readouterr().err
        key = next(iter(value))
        assert err.startswith("error:") and f"section {section}: {key} must be an integer" in err

    def test_whole_float_count_accepted(self, tmp_path):
        p, cfg = small_config(tmp_path)
        p, _ = small_config(tmp_path, train={**cfg["train"], "steps": 2.0})
        assert load_config(str(p))["train"]["steps"] == 2
        assert type(load_config(str(p))["train"]["steps"]) is int

    @pytest.mark.parametrize("command, key, value", [
        ("train", "fusion", {"max_neighbors": 2.5}),
        ("run", "budget_bytes", "abc"),
        ("run", "budget_bytes", -1),
        ("run", "grid_dims", 5),
        ("run", "grid_dims", [40, 40]),
        ("run", "scenes", 1.5),
        ("run", "agents", 2.7),
        ("run", "modes", "single"),
        ("run", "out", 5),
        ("run", "world_half_xy", float("inf")),
        ("run", "fusion", {"radius_rho": float("nan")}),
        ("run", "budget_bytes", 10 ** 400),
        ("run", "scenes", -1),
    ], ids=["max_neighbors", "budget_bytes_text", "budget_bytes_negative", "grid_dims_scalar",
            "grid_dims_short", "scenes", "agents", "modes_scalar", "out_number",
            "world_half_xy_inf", "radius_rho_nan", "budget_bytes_past_float",
            "scenes_negative"])
    def test_value_against_its_default_rejected(self, tmp_path, capsys, command, key, value):
        p, _ = small_config(tmp_path, **{key: value})
        assert main([command, "--config", str(p)]) == 2
        err = capsys.readouterr().err
        shown = next(iter(value)) if isinstance(value, dict) else key
        assert err.startswith("error:") and f"{shown} must be" in err

    def test_flag_checked_like_the_file(self, tmp_path, capsys):
        p, _ = small_config(tmp_path)
        assert main(["run", "--config", str(p), "--budget-bytes", "-1"]) == 2
        assert "command line: budget_bytes must be" in capsys.readouterr().err

    def test_whole_float_neighbor_cap_runs_as_int(self, tmp_path):
        # 3.0 is stored as 3, so training gives the bits of `max_neighbors: 3`
        digests = []
        for cap in (3, 3.0):
            p, cfg = small_config(tmp_path, fusion={"max_neighbors": cap},
                                  out=str(tmp_path / f"out{cap!r}"))
            assert main(["train", "--config", str(p), "--steps", "1"]) == 0
            digests.append(dir_hashes(cfg["out"]))
        assert digests[0] == digests[1]

    @pytest.mark.parametrize("build", [
        lambda: FusionConfig(max_neighbors=2.5),
        lambda: ObservationModel(gaussians_per_agent=10.5),
        lambda: TrainConfig(steps=2.5),
        lambda: TrainConfig(batch=True),
        lambda: TrainConfig(warmup_steps=-3),
    ], ids=["max_neighbors", "gaussians_per_agent", "steps", "batch", "warmup_steps_negative"])
    def test_dataclass_rejects_non_integer_count(self, build):
        with pytest.raises(ValueError, match="must be an integer"):
            build()

    def test_dataclass_stores_whole_float_as_int(self):
        assert type(FusionConfig(max_neighbors=3.0).max_neighbors) is int
        assert type(TrainConfig(steps=np.int64(4)).steps) is int

    def test_readme_example_builds(self, tmp_path):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        section = readme[readme.index("### Config file"):]
        example = re.search(r"```yaml\n(.*?)```", section, re.S).group(1)
        p = tmp_path / "readme.yaml"
        p.write_text(example)
        cfg, *built, _ = _settings(argparse.Namespace(config=str(p)))
        kinds = [ObservationModel, FusionConfig, SplatConfig, TrainConfig]
        assert [type(b) for b in built] == kinds
        assert set(yaml.safe_load(example)) == set(cfg)

    def test_empty_section_takes_defaults(self, tmp_path):
        p, _ = small_config(tmp_path, fusion=None, train=None)
        cfg = load_config(str(p))
        assert cfg["fusion"] == {}
        assert cfg["train"] == load_config(None)["train"]
        assert cfg["train"]["steps"] == 300 and cfg["train"]["holdout_scenes"] == 8

    @pytest.mark.parametrize("command, overrides", [
        ("run", {"scenes": 0}),
        ("train", {"train": {"steps": 2, "train_scenes": 0, "holdout_scenes": 0}}),
    ], ids=["run", "train"])
    def test_zero_generated_scenes_rejected(self, tmp_path, capsys, command, overrides):
        p, cfg = small_config(tmp_path, **overrides)
        assert main([command, "--config", str(p)]) == 2
        assert capsys.readouterr().err.startswith("error: no scenes")
        assert not (Path(cfg["out"]) / "summary.csv").exists()

    def test_scene_file_with_nan_pose_named(self, tmp_path, capsys):
        data = scene_to_dict(generate_scene(5, num_agents=2, world_half_xy=10.0,
                                            grid_dims=(40, 40, 8)))
        data["agents"][1]["rotation"] = [float("nan"), 0.0, 0.0, 0.0]
        scene = tmp_path / "scene.yaml"
        scene.write_text(yaml.safe_dump(data))
        p, _ = small_config(tmp_path, scene_files=[str(scene)])
        assert main(["run", "--config", str(p)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: bad scene file {scene}: ") and "rotation_q" in err

    def test_bad_mode(self, tmp_path):
        p, _ = small_config(tmp_path, modes=["warp"])
        assert main(["run", "--config", str(p)]) == 2

    def test_missing_params_named(self, tmp_path, capsys):
        p, _ = small_config(tmp_path)
        missing = tmp_path / "nope.fprm"
        assert main(["run", "--config", str(p), "--modes", "learned",
                     "--params", str(missing)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(missing) in err

    def test_learned_needs_params(self, tmp_path):
        p, _ = small_config(tmp_path, modes=["learned"])
        assert main(["run", "--config", str(p)]) == 2

    @pytest.mark.parametrize("gains", [1, 12])
    def test_calibration_needs_one_gain_per_class(self, tmp_path, capsys, gains):
        p, _ = small_config(tmp_path)
        cal = tmp_path / "c.fprm"
        save_calibration(Calibration(np.zeros(gains)), cal)
        assert main(["run", "--config", str(p), "--modes", "naive",
                     "--params", str(cal)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {cal}: expected 13 gains") and f"found {gains}" in err

    def test_naive_refuses_fusion_params_before_any_scene(self, tmp_path, capsys, monkeypatch):
        p, _ = small_config(tmp_path)
        params = tmp_path / "fusion.fprm"
        save_params(FusionParams.init(0), params)
        monkeypatch.setattr("gsfusion.cli.prepare_episode", None)      # never reached
        assert main(["run", "--config", str(p), "--modes", "naive,learned",
                     "--params", str(params)]) == 2
        assert capsys.readouterr().err.startswith("error: naive mode takes a Calibration")

    @pytest.mark.parametrize("spoil, named", [
        (lambda prm: setattr(prm, "w1", prm.w1[:, :44]), "FusionParams.w1 has shape (128, 44)"),
        (lambda prm: prm.b3.__setitem__(0, np.nan), "non-finite entries in FusionParams.b3")],
        ids=["w1_128x44", "nan_in_b3"])
    def test_bad_fusion_params_file_named(self, tmp_path, capsys, spoil, named):
        p, _ = small_config(tmp_path)
        params, path = FusionParams.init(0), tmp_path / "fusion.fprm"
        spoil(params)
        save_params(params, path)
        assert main(["run", "--config", str(p), "--modes", "learned",
                     "--params", str(path)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {path}: {named}")


class TestRun:
    def test_run_outputs(self, tmp_path, capsys):
        p, cfg = small_config(tmp_path)
        assert main(["run", "--config", str(p)]) == 0
        out = Path(cfg["out"])
        assert (out / "report.csv").exists()
        assert (out / "summary.csv").exists()
        with open(out / "comm.csv") as f:
            assert [r["rejected"] for r in csv.DictReader(f)] == ["0", "0"]
        assert (out / "scene0_agent0_gt.voxg").exists()
        assert (out / "scene0_zero_shot_agent1_pred.voxg").exists()
        with open(out / "summary.csv") as f:
            rows = {r["mode"]: r for r in csv.DictReader(f)}
        assert int(rows["single"]["bytes_sent"]) == 0
        assert int(rows["zero_shot"]["bytes_sent"]) > 0
        assert len(rows) == 2

    def test_frame_without_classes_left_out_of_mean_miou(self, tmp_path, capsys):
        data = scene_to_dict(generate_scene(5, num_agents=2, world_half_xy=10.0,
                                            grid_dims=(40, 40, 8)))
        files = {"generated": data, "empty": dict(data, objects=[])}
        for name, scene in files.items():
            (tmp_path / f"{name}.yaml").write_text(yaml.safe_dump(scene))

        def summary(*names):
            out = tmp_path / "_".join(names)
            p, _ = small_config(tmp_path, out=str(out),
                                scene_files=[str(tmp_path / f"{n}.yaml") for n in names])
            assert main(["run", "--config", str(p)]) == 0
            with open(out / "summary.csv") as f:
                return {r["mode"]: r["mean_miou"] for r in csv.DictReader(f)}

        alone = summary("generated")
        assert summary("empty") == {"single": "nan", "zero_shot": "nan"}
        assert summary("generated", "empty") == alone
        assert all(float(v) > 0.0 for v in alone.values())
        assert "nan" not in capsys.readouterr().out.split("mean mIoU")[-1]

    def test_comm_csv_counts_rejections_per_link(self, tmp_path, monkeypatch):
        # agent 1's message to agent 0 fails to decode
        monkeypatch.setattr("gsfusion.sim.serialize_message", undecodable_from(1, 0))
        p, cfg = small_config(tmp_path)
        assert main(["run", "--config", str(p)]) == 0
        with open(Path(cfg["out"]) / "comm.csv") as f:
            rows = {(r["mode"], r["sender"], r["receiver"]): r for r in csv.DictReader(f)}
        assert {k: r["rejected"] for k, r in rows.items()} == {
            ("zero_shot", "0", "1"): "0", ("zero_shot", "1", "0"): "1"}
        assert int(rows[("zero_shot", "1", "0")]["bytes"]) > 0

    def test_rerun_is_byte_identical(self, tmp_path):
        p, cfg = small_config(tmp_path)
        assert main(["run", "--config", str(p)]) == 0
        first = dir_hashes(cfg["out"])
        assert main(["run", "--config", str(p), "--out", str(tmp_path / "out2")]) == 0
        second = dir_hashes(tmp_path / "out2")
        assert first == second

    def test_gaussian_count_scales_bytes(self, tmp_path):
        p, cfg = small_config(tmp_path)
        assert main(["run", "--config", str(p), "--modes", "zero_shot",
                     "--gaussians", "400", "--out", str(tmp_path / "big")]) == 0
        assert main(["run", "--config", str(p), "--modes", "zero_shot",
                     "--gaussians", "200", "--out", str(tmp_path / "small")]) == 0

        def bytes_of(d):
            with open(Path(d) / "summary.csv") as f:
                return int(next(csv.DictReader(f))["bytes_sent"])

        ratio = bytes_of(tmp_path / "small") / bytes_of(tmp_path / "big")
        assert abs(ratio - 0.5) < 0.1

    def test_budget_zero_matches_single(self, tmp_path):
        p, cfg = small_config(tmp_path, modes=["single", "zero_shot"])
        assert main(["run", "--config", str(p), "--budget-bytes", "0"]) == 0
        out = Path(cfg["out"])
        a = (out / "scene0_single_agent0_pred.voxg").read_bytes()
        b = (out / "scene0_zero_shot_agent0_pred.voxg").read_bytes()
        assert a == b
        # every refused message is a row on its link, with no bytes
        with open(out / "comm.csv") as f:
            rows = {(r["mode"], r["sender"], r["receiver"]): (r["rejected"], r["bytes"])
                    for r in csv.DictReader(f)}
        assert rows == {("zero_shot", "0", "1"): ("1", "0"), ("zero_shot", "1", "0"): ("1", "0")}

    def test_dump_messages(self, tmp_path):
        from gsfusion.comms import deserialize_message

        p, cfg = small_config(tmp_path, modes=["zero_shot"])
        assert main(["run", "--config", str(p), "--dump-messages"]) == 0
        dumps = sorted(Path(cfg["out"]).glob("*.gmsg"))
        assert len(dumps) == 2
        msg = deserialize_message(dumps[0].read_bytes())
        assert msg.count > 0


class TestTrain:
    def test_zero_steps_equals_init(self, tmp_path):
        p, cfg = small_config(tmp_path)
        assert main(["train", "--config", str(p), "--steps", "0"]) == 0
        trained = load_params(Path(cfg["out"]) / "params.fprm")
        init = FusionParams.init(seed=0)
        for name in FusionParams._ORDER:
            a = getattr(init, name).astype(np.float32).astype(np.float64)
            b = getattr(trained, name)
            assert np.allclose(a.reshape(b.shape), b, atol=0), name

    def test_learned_train_smoke(self, tmp_path, capsys):
        p, cfg = small_config(tmp_path)
        assert main(["train", "--config", str(p), "--steps", "2"]) == 0
        out = Path(cfg["out"])
        assert (out / "params.fprm").exists()
        with open(out / "loss_curve.csv") as f:
            rows = list(csv.DictReader(f))
        assert len(rows) == 2
        assert "holdout mIoU" in capsys.readouterr().out

    def test_naive_train_smoke(self, tmp_path):
        p, cfg = small_config(tmp_path)
        assert main(["train", "--config", str(p), "--mode", "naive",
                     "--steps", "2"]) == 0
        cal = load_calibration(Path(cfg["out"]) / "params.fprm")
        assert cal.log_gain.shape == (13,)

    def test_trained_params_usable_by_run(self, tmp_path):
        p, cfg = small_config(tmp_path)
        assert main(["train", "--config", str(p), "--steps", "1"]) == 0
        params_path = Path(cfg["out"]) / "params.fprm"
        assert main(["run", "--config", str(p), "--modes", "learned",
                     "--params", str(params_path),
                     "--out", str(tmp_path / "lrn")]) == 0
        assert (tmp_path / "lrn" / "scene0_learned_agent0_pred.voxg").exists()


class TestExport:
    def test_label_export_counts_match(self, tmp_path):
        p, cfg = small_config(tmp_path)
        assert main(["run", "--config", str(p)]) == 0
        grid_path = Path(cfg["out"]) / "scene0_single_agent0_pred.voxg"
        out_csv = tmp_path / "dump.csv"
        assert main(["export", str(grid_path), "--out", str(out_csv)]) == 0
        grid = load_voxg(grid_path)
        counts = {}
        rows = []
        with open(out_csv) as f:
            for row in csv.reader(f):
                if row and row[0] == "count":
                    counts[int(row[1])] = int(row[2])
                elif row and row[0].isdigit():
                    rows.append(row)
        want = np.bincount(grid.labels.ravel(), minlength=13)
        for k in range(13):
            assert counts[k] == want[k]
        # per-voxel listing re-aggregates to the same counts
        listed = np.zeros(13, dtype=int)
        for row in rows:
            listed[int(row[3])] += 1
        listed[12] = grid.geometry.num_voxels - listed[:12].sum()
        assert np.array_equal(listed, want)

    def test_channel_export_roundtrip(self, tmp_path):
        p, cfg = small_config(tmp_path, grid_dims=[10, 10, 4],
                              observation={"gaussians_per_agent": 20})
        assert main(["run", "--config", str(p), "--dump-channels",
                     "--modes", "single"]) == 0
        grid_path = Path(cfg["out"]) / "scene0_single_agent0_ch.voxg"
        out_csv = tmp_path / "ch.csv"
        assert main(["export", str(grid_path), "--out", str(out_csv)]) == 0
        grid = load_voxg(grid_path)
        with open(out_csv) as f:
            rows = [r for r in csv.reader(f) if r and r[0].isdigit()]
        assert len(rows) == grid.geometry.num_voxels
        x, y, z = map(int, rows[7][:3])
        got = np.array([float(v) for v in rows[7][3:]])
        assert np.allclose(got, grid.channels[x, y, z], rtol=1e-6)

    def test_missing_grid_named(self, tmp_path, capsys):
        missing = tmp_path / "nope.voxg"
        assert main(["export", str(missing)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(missing) in err

    def test_bad_grid_path(self, tmp_path, capsys):
        bad = tmp_path / "nope.voxg"
        bad.write_bytes(b"JUNKJUNKJUNK" * 10)
        assert main(["export", str(bad)]) == 2
        assert "error" in capsys.readouterr().err
