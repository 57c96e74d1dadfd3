"""Regenerate the frozen golden values in tests/goldens/manifest.json.

Run from the repo root after an intentional behavior change, or on a new
platform:

    PYTHONPATH=src:tests python3 tests/regen_goldens.py

Goldens are platform-pinned regression anchors, not external truths; the
manifest also records the acceptance fixture settings and the metrics
observed when the goldens were frozen. The fused-output digest depends on
BLAS rounding, so the manifest keeps every accepted digest with the
platforms it was seen on; this script adds the current one, never drops
another, and refuses to write unless `fuse_scene` agrees with the fp64
oracle on the golden fixture.
"""

import hashlib
import json
import pathlib

from gsfusion.fusion import fuse_scene
from gsfusion.sim import generate_scene, rasterize_world
from helpers import (
    ORACLE_TOL,
    episode42_metrics,
    fusion_digest,
    fusion_oracle,
    golden_fusion_fixture,
    oracle_gaps,
    platform_description,
)

GOLDEN_DIR = pathlib.Path(__file__).parent / "goldens"


def world_hash():
    spec = generate_scene(seed=42, num_agents=3, world_half_xy=12.0,
                          grid_dims=(60, 60, 8))
    world = rasterize_world(spec)
    return hashlib.sha256(world.labels.tobytes()).hexdigest()


def checked_fusion_digest():
    ego, rec, cfg, params = golden_fusion_fixture()
    fused = fuse_scene(ego, rec, cfg, params)
    gaps = oracle_gaps(fused, fusion_oracle(ego, rec, cfg, params))
    if max(gaps.values()) > ORACLE_TOL:
        raise SystemExit(f"fuse_scene disagrees with the fp64 oracle on the golden "
                         f"fixture (max gap per field {gaps}); manifest not written")
    return fusion_digest(fused)


def main():
    GOLDEN_DIR.mkdir(exist_ok=True)
    path = GOLDEN_DIR / "manifest.json"
    manifest = json.loads(path.read_text()) if path.exists() else {}
    digest = checked_fusion_digest()
    seen_on = manifest.setdefault("fusion_digests", {}).setdefault(digest, [])
    here = platform_description()
    if here not in seen_on:
        seen_on.append(here)
    manifest["world_hash_seed42"] = world_hash()
    manifest.update(episode42_metrics())
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    print(json.dumps(manifest, indent=2, sort_keys=True))


if __name__ == "__main__":
    main()
