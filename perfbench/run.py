"""Run one workload of the gsfusion benchmark and print its result.

    python3 perfbench/run.py --workload paper_infer --seed 42 --seconds 30 --trace 0

Run from the root of a checkout: the library is imported from `src/`
and the oracles from `tests/helpers.py`. The last line of standard
output is one JSON object with `correct`, `attempted`, `failed` and
`metrics`: the end-to-end metrics with `--trace 0`, the per-layer ones
with `--trace 1`. The full record (commit, seed, platform, every check
and every sample) is written to `perfbench/results/`.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _import_library():
    """Put the checkout's library and test oracles first on the path and
    refuse any other copy of the library."""
    for p in (HERE, ROOT / "tests", ROOT / "src"):
        sys.path.insert(0, str(p))
    try:
        import gsfusion
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import gsfusion from {ROOT / 'src'}: {exc}")
    if Path(gsfusion.__file__).resolve().parent != ROOT / "src" / "gsfusion":
        raise SystemExit(f"perfbench: gsfusion imported from {gsfusion.__file__}, "
                         f"not from {ROOT / 'src'}")
    if not (ROOT / "tests" / "helpers.py").is_file():
        raise SystemExit(f"perfbench: the oracles in {ROOT / 'tests' / 'helpers.py'} are missing")


def commit() -> str:
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main(argv=None) -> int:
    _import_library()
    import bench
    from helpers import platform_description

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(bench.WORKLOADS))
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    result = bench.run(bench.WORKLOADS[args.workload], args.seed, args.seconds,
                       bool(args.trace))
    record = {**result, "trace": args.trace, "seconds": args.seconds,
              "commit": commit(), "platform": platform_description()}
    out_dir = HERE / "results"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")

    for name, m in result["metrics"].items():
        # untraced times are scaled to the reference speed; traced span times are wall times
        ref = " at reference speed" if not args.trace and m["unit"] in ("s", "1/s") else ""
        print(f"{name:32s} {m['value']:.6g} {m['unit']}{ref}")
    for name, chk in result["checks"].items():
        print(f"check {'ok  ' if chk['ok'] else 'FAIL'} {name}: gap {chk['worst_gap']:.3g}")
    for f in result["failures"]:
        print(f"failed round {f['round']} {f['op']}: {f['why'].splitlines()[-1]}")
    print(f"record: {path.relative_to(ROOT)}")
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
