"""Benchmark of the quasispec command: one workload per invocation.

    python3 bench/run.py --workload box1d --seed 1 --seconds 20 --trace 0

Workloads: box1d, square_dos, cover, transversality (see README.md).  The
timed run happens in a worker process (worker.py) that calls
`quasispec.cli.main` once per op.  Set-up time is measured from the launch of
a worker to its first timed op, for SETUP_SAMPLES workers, and the median is
reported.  With `--trace 0` the last stdout line holds the end-to-end
metrics, with `--trace 1` the per-layer metrics of a traced run.  Run it from
the root of a source checkout: the package is imported from `src/`.
Only the standard library is used here, so the launcher adds no set-up of
its own to the measurement.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("box1d", "square_dos", "cover", "transversality")
SETUP_SAMPLES = 7
DEADLINE_S = 170  # the whole invocation ends within this, or fails


def spawn(args, out, setup_only, deadline):
    """Run one worker; return (its result object, seconds from launch to ready)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out", str(out)]
    if setup_only:
        cmd.append("--setup-only")
    # the cache must be the one each workload names, never one from outside
    env = {k: v for k, v in os.environ.items() if k != "QUASISPEC_CACHE"}
    t_launch = time.monotonic()
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=max(1.0, deadline - t_launch), cwd=ROOT, env=env)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        raise SystemExit(f"worker exited with code {proc.returncode}")
    for line in lines[:-1]:
        print(line)
    result = json.loads(lines[-1])
    return result, result.pop("ready") - t_launch


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "quasispec" / "__init__.py").is_file():
        print(f"error: no quasispec sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    run_dir = HERE / "out" / f"{args.workload}-{os.getpid()}"
    try:
        setups = []
        if not args.trace:
            for i in range(SETUP_SAMPLES - 1):
                _, s = spawn(args, run_dir / f"setup{i}", True, deadline)
                setups.append(s)
        result, s = spawn(args, run_dir / "run", False, deadline)
        setups.append(s)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    if not args.trace:
        print(f"setup_s samples: {', '.join(f'{x:.4f}' for x in setups)}")
        metrics = {"setup_s": statistics.median(setups), **result["metrics"]}
        units = {"setup_s": "s", "wall_s": "s", "op_p50_s": "s", "op_tail_s": "s",
                 "cpu_s": "s", "peak_rss_mb": "MB"}
        result["metrics"] = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
