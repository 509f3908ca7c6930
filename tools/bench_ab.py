"""Paired benchmark of two revisions: base and change, in alternating order.

    python3 tools/bench_ab.py --base HEAD~1 --change HEAD --workload cover \
        --seeds 8001-8010 --out BENCH_8.json

Each revision is extracted with `git archive <rev> | tar -x` into a
temporary directory, so the working tree is never touched and only committed
files are measured.  For every workload and seed, `python3 bench/run.py` runs
once on each side, for the `run_seconds` that the change's BENCHMARK.json
sets; the side that runs first alternates from seed to seed.
The JSON written to --out holds every run's metrics, each side's median and
quartiles (`statistics.quantiles(n=4)`) per metric, the pairs won by the
change (lower is better for every end-to-end metric; ties count for
neither), both commit ids, nproc and the Python and numpy versions.  When
--out already holds runs of the same two commits, the workloads run now
replace or join those there, so workloads can be run one invocation each.
Only the standard library is used.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def git(*args) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, text=True,
                          stdout=subprocess.PIPE).stdout.strip()


def extract(rev: str, dest: Path) -> None:
    archive = subprocess.Popen(["git", "archive", rev], cwd=ROOT, stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", str(dest)], stdin=archive.stdout, check=True)
    archive.stdout.close()
    if archive.wait() != 0:
        raise SystemExit(f"git archive {rev} failed")


def seed_list(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_bench(tree: Path, workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, text=True, stdout=subprocess.PIPE)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"seed": seed, "exit": proc.returncode, "correct": False, "metrics": {}}
    result = json.loads(lines[-1])
    # bench/run.py prints each metric as {"value": v, "unit": u}
    result["metrics"] = {k: m["value"] for k, m in result["metrics"].items()}
    return {"seed": seed, "exit": proc.returncode, **result}


def summarise(base_runs: list[dict], change_runs: list[dict]) -> dict:
    out = {}
    names = sorted(set().union(*(r["metrics"] for r in base_runs + change_runs)))
    for name in names:
        pairs = [(b["metrics"][name], c["metrics"][name])
                 for b, c in zip(base_runs, change_runs)
                 if name in b["metrics"] and name in c["metrics"]]
        row = {"pairs": len(pairs), "won_by_change": sum(c < b for b, c in pairs),
               "won_by_base": sum(b < c for b, c in pairs)}
        for side, values in (("base", [b for b, _ in pairs]), ("change", [c for _, c in pairs])):
            if values:
                q = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
                row[side] = {"median": statistics.median(values), "q1": q[0], "q3": q[2]}
        if "base" in row and row["base"]["median"]:
            row["ratio"] = row["change"]["median"] / row["base"]["median"]
        out[name] = row
    return out


def numpy_version() -> str:
    return subprocess.run([sys.executable, "-c", "import numpy; print(numpy.__version__)"],
                          text=True, stdout=subprocess.PIPE).stdout.strip()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", required=True, help="git revision measured as the base")
    ap.add_argument("--change", default="HEAD", help="git revision measured as the change")
    ap.add_argument("--workload", action="append", required=True,
                    help="bench/run.py workload; repeat for several")
    ap.add_argument("--seeds", required=True, help="e.g. 8001-8010 or 1,2,5")
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)

    commits = {"base": git("rev-parse", args.base), "change": git("rev-parse", args.change)}
    seconds = json.loads(git("show", f"{commits['change']}:BENCHMARK.json"))["run_seconds"]
    doc = {}
    if args.out.exists():
        doc = json.loads(args.out.read_text())
        if doc.get("commits") != commits:
            raise SystemExit(f"{args.out} holds runs of other commits")
    doc.update({
        "commits": commits,
        "command": "python3 bench/run.py --workload W --seed S "
                   f"--seconds {seconds} --trace 0",
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version(),
    })
    workloads = doc.setdefault("workloads", {})
    seeds = seed_list(args.seeds)
    with tempfile.TemporaryDirectory() as tmp:
        trees = {side: Path(tmp) / side for side in commits}
        for side, tree in trees.items():
            tree.mkdir()
            extract(commits[side], tree)
        for workload in args.workload:
            runs = {"base": [], "change": []}
            for k, seed in enumerate(seeds):
                order = ("base", "change") if k % 2 == 0 else ("change", "base")
                for side in order:
                    r = run_bench(trees[side], workload, seed, seconds)
                    r["first"] = side == order[0]
                    runs[side].append(r)
                    print(workload, seed, side, json.dumps(r.get("metrics")), flush=True)
            workloads[workload] = {"seeds": seeds, "runs": runs,
                                   "summary": summarise(runs["base"], runs["change"])}
            args.out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
