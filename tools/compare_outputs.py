"""Byte comparison of the command-line outputs of two revisions.

    python3 tools/compare_outputs.py --base HEAD~1 --change HEAD

Each revision is extracted with `bench_ab.extract` (`git archive`) into a
temporary directory, so only committed files are compared.  One fixed list
of commands (`COMMANDS`) runs on both trees, `python3 -m quasispec.cli` with
that tree's `src` on PYTHONPATH.  Each command runs in a directory of its
own with `--out out --cache cache`, so both sides' manifests name the same
paths.  For every command the script compares the exit code, the bytes of
every CSV, cache `.npy` file and JSON report, and the manifests with
`duration_s` and `written_at` removed.  It prints each difference and exits
1 if there is any, else 0.  Only the standard library is used.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from bench_ab import extract, git

# the README commands at small sizes
README = [
    ["spectrum1d", "--lambda", "1", "--n", "200"],
    ["ids", "--lambda", "1", "--n", "1000"],
    ["tracemap", "--lambda", "0.5", "--depth", "10", "--max-iter", "20"],
    ["lyapunov", "--lambdas", "0.2,0.5,1.0", "--m", "20", "--e-samples", "4"],
    ["dimension", "--lambda", "2", "--n", "1000"],
    ["dos2d", "--lambda", "1", "--lambda2", "2", "--n", "100"],
    ["sumset2d", "--lambda", "0.3", "--depth", "10", "--max-iter", "20"],
    ["verify-tensor", "--lambda", "1", "--lambda2", "4", "--n", "6"],
    ["regularity", "--system", "middle-thirds", "--depth", "8"],
]
COMMANDS = README + [
    ["spectrum1d", "--lambda", lam, "--n", n]
    for lam in ("0.3", "4") for n in ("1", "50", "127", "128", "1000")
] + [
    [command, "--lambda", lam, "--n", "1000"]
    for command in ("ids", "dimension") for lam in ("0.3", "4")
] + [
    ["dos2d", "--n", "200"],
    # sites near the wrap point of the circle, at a large offset
    ["ids", "--omega", "0.123456789", "--start", "100000000000", "--n", "20000"],
]
TIMING_FIELDS = ("duration_s", "written_at")


def run(tree: Path, where: Path, command: list[str]) -> int:
    where.mkdir(parents=True)
    env = {k: v for k, v in os.environ.items() if k != "QUASISPEC_CACHE"}
    env["PYTHONPATH"] = str(tree / "src")
    proc = subprocess.run([sys.executable, "-m", "quasispec.cli", *command,
                           "--out", "out", "--cache", "cache"],
                          cwd=where, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL)
    return proc.returncode


def contents(path: Path):
    """A file's bytes, or a manifest's fields other than the timing ones."""
    if path.name.endswith(".manifest.json"):
        fields = json.loads(path.read_text())
        for name in TIMING_FIELDS:
            fields.pop(name, None)
        return fields
    return path.read_bytes()


def files(where: Path) -> dict:
    return {str(f.relative_to(where)): f for f in sorted(where.rglob("*")) if f.is_file()}


def compare(base: Path, change: Path) -> list[str]:
    """The differences between the files of two run directories."""
    a, b = files(base), files(change)
    diffs = [f"{name}: only in {side}"
             for side, mine, other in (("base", a, b), ("change", b, a))
             for name in mine if name not in other]
    for name in a.keys() & b.keys():
        x, y = contents(a[name]), contents(b[name])
        if x != y and isinstance(x, dict):
            fields = sorted(k for k in x.keys() | y.keys() if x.get(k) != y.get(k))
            diffs.append(f"{name}: fields {', '.join(fields)} differ")
        elif x != y:
            diffs.append(f"{name}: bytes differ")
    return sorted(diffs)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", required=True, help="git revision compared as the base")
    ap.add_argument("--change", default="HEAD", help="git revision compared as the change")
    args = ap.parse_args(argv)

    commits = {"base": git("rev-parse", args.base), "change": git("rev-parse", args.change)}
    differences = 0
    with tempfile.TemporaryDirectory() as tmp:
        trees = {side: Path(tmp) / side for side in commits}
        for side, tree in trees.items():
            tree.mkdir()
            extract(commits[side], tree)
        for i, command in enumerate(COMMANDS):
            dirs = {side: Path(tmp) / "runs" / side / str(i) for side in commits}
            codes = {side: run(trees[side], dirs[side], command) for side in commits}
            diffs = compare(dirs["base"], dirs["change"])
            if codes["base"] != codes["change"]:
                diffs.insert(0, f"exit code {codes['base']} -> {codes['change']}")
            print(f"{'DIFF' if diffs else 'same'}  exit {codes['change']}  {' '.join(command)}")
            for d in diffs:
                print(f"      {d}")
            differences += bool(diffs)
    print(f"{differences} of {len(COMMANDS)} commands differ "
          f"({commits['base'][:12]} -> {commits['change'][:12]})")
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main())
