"""One benchmark process: set-up, timed ops, then checks of every output.

Each op is one subcommand call through `quasispec.cli.main(argv)`, the code
path of the `quasispec` command without an interpreter start per op.  A run
attempts whole rounds of its workload's ops until `--seconds` have passed.
The last line of stdout is one JSON object; `run.py` starts this script and
reads it.  With `--setup-only` the process stops when set-up is done and
reports only the moment it became ready.
"""

import argparse
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402
from quasispec import cli  # noqa: E402

import checks  # noqa: E402
import tracer  # noqa: E402

WORKLOADS = ("box1d", "square_dos", "cover", "transversality")

BOX_N = 1000
BOX_LAMBDA = (0.05, 0.5)       # couplings drawn uniformly from this range
SQUARE_N = 200
SQUARE_GRID = (0.1, 0.2, 0.3, 0.4)
# a fixed grid: with couplings drawn per run the peak RSS moved by 7% (IQR)
COVER_GRID = (0.3, 0.35, 0.4, 0.45, 0.5)
COVER_DEPTH = 15
SYSTEMS = ("middle-thirds", "fifth", "uniform")
MAX_ROUNDS = 1000
TAIL_BEYOND = 10


def _f(x) -> str:
    return repr(float(x))


def _op(kind, params, *flags):
    return (kind, params, [kind, *flags])


def _pairs(grid, rng):
    """Every pair of distinct grid points, in one fixed order, each in a seeded
    orientation.  The fixed order keeps the allocation sequence, and with it
    the peak RSS, the same in every run."""
    return [(a, b) if rng.integers(2) else (b, a)
            for i, a in enumerate(grid) for b in grid[i + 1:]]


def plan(workload, seed, run_dir):
    """(warm-up ops, rounds of timed ops), all drawn from the seed."""
    rng = np.random.default_rng(seed)
    if workload == "box1d":
        warm = [_op(k, {}, "--n", "64") for k in ("spectrum1d", "ids", "dimension")]

        def one_round():
            ops = []
            for kind in ("spectrum1d", "ids", "dimension"):
                p = dict(lam=float(rng.uniform(*BOX_LAMBDA)), omega=float(rng.uniform()),
                         n=BOX_N, seed=int(rng.integers(2**31)))
                ops.append(_op(kind, p, "--lambda", _f(p["lam"]), "--omega", _f(p["omega"]),
                               "--n", str(BOX_N), "--seed", str(p["seed"])))
            return ops
    elif workload == "square_dos":
        # one phase per coupling for the whole run, so 1D spectra repeat
        phase = {lam: float(rng.uniform()) for lam in SQUARE_GRID}
        # set-up fills the run's fresh cache, so every timed lookup is a hit;
        # misses in the first round landed in the p75 tail of a 12-op run
        warm = [_op("dos2d", {}, "--n", "16", "--lambda2", "0.5",
                    "--cache", str(run_dir / "warm-cache"))]
        warm += [_op("spectrum1d", {}, "--lambda", _f(lam), "--omega", _f(om),
                     "--n", str(SQUARE_N), "--cache", str(run_dir / "cache"))
                 for lam, om in phase.items()]

        def one_round():
            ops = []
            for l1, l2 in _pairs(SQUARE_GRID, rng):
                p = dict(lam=l1, omega=phase[l1], lam2=l2, omega2=phase[l2],
                         n=SQUARE_N, seed=int(rng.integers(2**31)))
                ops.append(_op("dos2d", p, "--lambda", _f(l1), "--omega", _f(p["omega"]),
                               "--lambda2", _f(l2), "--omega2", _f(p["omega2"]),
                               "--n", str(SQUARE_N), "--seed", str(p["seed"]),
                               "--cache", str(run_dir / "cache")))
            return ops
    elif workload == "cover":
        warm = [_op("sumset2d", {}, "--lambda", "0.3", "--lambda2", "0.5", "--depth", "8")]

        def one_round():
            return [_op("sumset2d", dict(lam=l1, lam2=l2), "--lambda", _f(l1),
                        "--lambda2", _f(l2), "--depth", str(COVER_DEPTH))
                    for l1, l2 in _pairs(COVER_GRID, rng)]
    elif workload == "transversality":
        warm = [_op("regularity", {}, "--depth", "6")]

        def one_round():
            ops = []
            for system in SYSTEMS:
                p = dict(system=system, seed=int(rng.integers(2**31)))
                ops.append(_op("regularity", p, "--system", system, "--seed", str(p["seed"])))
            return ops
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return warm, [one_round() for _ in range(MAX_ROUNDS)]


def tail(times):
    """(value, percentile, ops beyond): the highest percentile with at least
    TAIL_BEYOND ops beyond it; runs of fewer than 4 * TAIL_BEYOND ops use the
    order statistic with a quarter of the ops beyond it."""
    s = sorted(times)
    beyond = max(1, min(TAIL_BEYOND, len(s) // 4))
    k = len(s) - 1 - beyond
    return s[max(k, 0)], 100.0 * (k + 1) / len(s), beyond


def _modes(traced_run, n_done):
    if not traced_run:
        return (False,)
    return (True, False) if n_done % 4 == 0 else (False, True)


def call(argv):
    try:
        return cli.main(argv)
    except Exception:  # one failing op must not end the run
        traceback.print_exc()
        return -1


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    warm, rounds = plan(args.workload, args.seed, args.out)
    for i, (_, _, op_argv) in enumerate(warm):
        if call(op_argv + ["--out", str(args.out / f"warm{i}")]) != 0:
            raise SystemExit("warm-up op failed")
    ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0

    trace = tracer.Tracer() if args.trace else None
    done = []  # (kind, params, out dir, exit code, seconds, traced)
    t_start = time.perf_counter()
    cpu_start = time.process_time()
    n_rounds = 0
    for ops in rounds:
        for kind, params, op_argv in ops:
            # a traced run makes each op twice, traced and not, in alternating
            # order, so the tracing overhead is measured on equal inputs
            for traced in _modes(trace is not None, len(done)):
                out = args.out / "ops" / f"{len(done):05d}"
                if traced:
                    trace.install()
                t0 = time.perf_counter()
                if traced:
                    with trace.span(f"cli.{kind}"):
                        rc = call(op_argv + ["--out", str(out)])
                else:
                    rc = call(op_argv + ["--out", str(out)])
                done.append((kind, params, out, rc, time.perf_counter() - t0, traced))
                if traced:
                    trace.uninstall()
        n_rounds += 1
        if time.perf_counter() - t_start >= args.seconds:
            break
    wall = time.perf_counter() - t_start
    cpu = time.process_time() - cpu_start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    refs, memo = checks.References(), {}
    failed, wrong = 0, []
    for i, (kind, params, out, rc, _, _) in enumerate(done):
        if rc != 0:
            failed += 1
            continue
        try:
            msgs = checks.check_op(kind, params, out, refs, memo)
        except (OSError, ValueError, KeyError, IndexError) as err:  # missing or malformed output
            msgs = [f"unreadable output: {err!r}"]
        wrong += [f"op {i} {kind} {params}: {msg}" for msg in msgs]
    for msg in wrong:
        print(f"CHECK FAILED {msg}", file=sys.stderr)

    times = [d[4] for d in done]
    tail_s, tail_pct, beyond = tail(times)
    print(f"{args.workload} seed {args.seed}: {len(done)} ops in {n_rounds} rounds, "
          f"{wall:.2f} s timed, {failed} failed, {len(wrong)} check failures")
    print(f"op_tail_s is p{tail_pct:.1f} of {len(done)} ops ({beyond} ops beyond it)")
    result = {"correct": not wrong, "attempted": len(done), "failed": failed, "ready": ready}
    if trace is None:
        result["metrics"] = {
            "wall_s": wall / n_rounds,
            "op_p50_s": statistics.median(times),
            "op_tail_s": tail_s,
            "cpu_s": cpu / n_rounds,
            "peak_rss_mb": peak_rss_mb,
        }
    else:
        result["metrics"] = layer_metrics(trace, done)
    print(json.dumps(result))
    return 0


def layer_metrics(trace, done):
    """Per-op layer figures of the traced executions, their shares and the overhead."""
    on = [d[4] for d in done if d[5]]
    # done alternates (traced, untraced) and (untraced, traced) pairs of one op
    ratios = [(a[4] / b[4] if a[5] else b[4] / a[4]) for a, b in zip(done[::2], done[1::2])]
    units = tracer.metric_units()
    totals = {name: 0.0 for name in units}
    totals.update((k, v) for k, v in trace.totals().items() if k in units)
    per_op = {name: totals[name] / len(on) for name in units}
    per_op["trace.overhead_pct"] = 100.0 * (statistics.median(ratios) - 1.0)
    print(f"{len(on)} ops made twice, traced and not: tracing overhead "
          f"{per_op['trace.overhead_pct']:+.2f}% (median of the time ratios)")
    op_total = sum(on)
    for name, v in sorted(((n, totals[n]) for n in units if n.endswith(".self_s")),
                          key=lambda kv: -kv[1]):
        if v > 0:
            print(f"  share {100.0 * v / op_total:6.2f}%  {name[:-len('.self_s')]}")
    return {name: {"value": per_op[name], "unit": units[name]} for name in units}


if __name__ == "__main__":
    sys.exit(main())
