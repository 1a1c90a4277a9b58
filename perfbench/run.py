"""Benchmark for the rollercoaster library: one workload per invocation.

Run from the repository root:

    python3 perfbench/run.py --workload catalog --seed 1 --seconds 30 --trace 0

Workloads (see README.md): ``catalog``, ``conjecture`` and ``braid``.  Each
runs closed-loop in one fresh interpreter with one thread: an item starts
only when the previous one has finished.

With ``--trace 0`` the last line of standard output is a JSON object whose
``metrics`` hold every end-to-end metric; with ``--trace 1`` it holds every
per-layer metric from a separate traced run; the names and units come
from ``BENCHMARK.json`` at the repository root.  Times are in nominal
seconds (see ``calibrate.py``).  The line before it is a JSON object with
the seed, the input summary, the item-tail percentile and sample counts,
the unscaled pass and set-up times and the fail ratio.  The exit code is 0 when the run
completed, whether or not its outputs were correct (``correct`` says
which), and non-zero when it could not run.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from metrics import spec

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("catalog", "conjecture", "braid")
SETUP_PROBES = 19
DEADLINE_S = 170


def spawn(args, deadline: float, setup_only: bool = False) -> dict:
    """Run worker.py in a fresh interpreter and return its JSON result."""
    cmd = [
        sys.executable, "-E", "-s", str(HERE / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    if setup_only:
        cmd.append("--setup-only")
    if args.tiny:
        cmd.append("--tiny")
    t0 = time.monotonic_ns()
    proc = subprocess.run(
        cmd + ["--t0-ns", str(t0)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker failed with exit code {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="self-test input sizes")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "rollercoaster" / "__init__.py").is_file():
        print(f"no rollercoaster sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S

    end_to_end, per_layer = spec()
    info = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds}
    if args.trace:
        result = spawn(args, deadline)
        metrics = {
            name: {"value": result["layers"][name], "unit": unit} for name, unit in per_layer
        }
        info["traced_passes"] = result["traced_passes"]
    else:
        runs = [spawn(args, deadline, setup_only=True) for _ in range(SETUP_PROBES)]
        result = spawn(args, deadline)
        runs.append(result)
        values = {
            "setup_s": statistics.median(run["setup_s"] for run in runs),
            "pass_s": statistics.median(result["pass_s"]),
            "item_p50_ms": result["item_p50_ms"],
            "item_tail_ms": result["item_tail_ms"],
            "peak_rss_mib": result["peak_rss_kib"] / 1024,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in end_to_end}
        info.update(
            raw_pass_s=statistics.median(result["raw_pass_s"]),
            raw_setup_s=statistics.median(run["raw_setup_s"] for run in runs),
            speed=result["speed"],
            passes=len(result["pass_s"]),
            setup_samples=len(runs),
            item_tail_pct=result["item_tail_pct"],
            item_samples=result["item_samples"],
        )
    info["inputs"] = result["inputs"]
    info["fail_ratio"] = result["failed"] / result["attempted"]
    info["problems"] = result["problems"]
    print(json.dumps(info))
    print(
        json.dumps(
            {
                "correct": result["failed"] == 0,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
