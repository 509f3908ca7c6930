"""Batch experiment drivers.

One subcommand per experiment; every run emits plot-ready CSV plus a JSON
manifest sidecar, is deterministic given (flags, seed), and short-circuits
on cache hits where caching applies.  Each cmd_* writes its data files and
returns (files, extra manifest fields); `main` times it and writes the
manifest, so a run that fails leaves none.  Exit codes: 0 success, 2 usage,
3 numeric failure.
"""

import argparse
import functools
import sys
import time
from pathlib import Path

import numpy as np

from . import dos, io, regularity, tracemap
from .calibration import KDE_BANDWIDTHS, L2_FLAG_GROWTH
from .eigensolve import box_counter, cached_spectrum
from .intervals import box_dimension, gap_report, lebesgue_length, sumset
from .model import ModelParams, ParameterError, check_coupling
from .separable2d import eigs2d_from_sums

USAGE_EXIT = 2
NUMERIC_EXIT = 3
# least value of each integer flag; subcommands without the flag skip it
_FLAG_MINIMA = {"seed": 0, "grid_points": 2, "e_samples": 2, "m": 1}


def _check_flags(args):
    """Usage checks that need no computation, made before any command runs."""
    for name, least in _FLAG_MINIMA.items():
        value = getattr(args, name, None)
        if value is not None and value < least:
            raise ParameterError(f"--{name.replace('_', '-')} must be >= {least}")
    if args.command in ("dimension", "dos2d") and args.samples < dos.MIN_SAMPLES:
        raise ParameterError(f"--samples must be >= {dos.MIN_SAMPLES}")
    if args.command == "regularity" and not 0.0 <= args.d_eta <= 1.0:
        raise ParameterError("--d-eta must be a finite value in [0, 1]")


def _lam2(args) -> float:
    """The second coupling: --lambda2 when given, else --lambda."""
    return args.lam if args.lam2 is None else args.lam2


def _model(args, which=1) -> ModelParams:
    lam = args.lam if which == 1 else _lam2(args)
    om = args.omega if which == 1 else (args.omega2 if args.omega2 is not None else args.omega)
    return ModelParams(lam=lam, omega=om, n_sites=args.n)


def _spectrum(args, which=1):
    return cached_spectrum(_model(args, which), start=args.start, cache_dir=args.cache)


def cmd_spectrum1d(args, out: Path):
    if args.n > 10**5:
        raise ParameterError("box size capped at 1e5")
    spec = _spectrum(args)
    f = io.write_csv(out / "spectrum1d.csv", ["eigenvalue"], spec.eigenvalues[:, None])
    return [f], {"start_index": args.start}


def cmd_ids(args, out: Path):
    counter = box_counter(_model(args), start=args.start)
    first, last = counter.eigenvalues(np.array([1, args.n]))
    grid = np.linspace(first - 0.1, last + 0.1, args.grid_points)
    f = io.write_csv(out / "ids.csv", ["energy", "ids"], dos.ids_from_counts(counter, grid))
    return [f], {"count_backend": counter.backend}


def cmd_tracemap(args, out: Path):
    cover = tracemap.spectrum_cover(args.lam, depth=args.depth,
                                    max_iter=args.max_iter)
    if cover.empty:
        raise SystemExit("empty cover: increase depth or reduce max_iter")
    f = io.intervals_to_csv(out / "cover.csv", cover)
    extra = {
        "total_length": io.fmt(lebesgue_length(cover)),
        "n_intervals": len(cover),
        "max_iter": args.max_iter or tracemap.default_max_iter(args.depth),
        "outer_approximation_caveat":
            "cells retained by three bounded-orbit probes; not a rigorous enclosure",
    }
    if len(cover) >= 2:
        scales = [2.0 ** -j for j in range(2, 9)]
        slope, err = box_dimension(cover, scales)
        extra["box_dimension"] = io.fmt(slope)
        extra["box_dimension_stderr"] = io.fmt(err)
    return [f], extra


def cmd_lyapunov(args, out: Path):
    try:
        lams = [float(s) for s in args.lambdas.split(",")]
    except ValueError as err:
        raise ParameterError(f"--lambdas must be comma-separated numbers: {err}") from err
    rows = tracemap.lyapunov_scan(lams, args.e_samples, args.m,
                                  depth=args.depth, seed=args.seed)
    f = io.write_csv(out / "lyapunov.csv", ["lambda", "mean_exponent", "spread"], rows)
    return [f], {}


def cmd_dimension(args, out: Path):
    counter = box_counter(_model(args), start=args.start)
    radii = [2.0 ** -j for j in range(4, 10)]
    slope, err = dos.local_dimension_from_counts(counter, radii, samples=args.samples,
                                                 seed=args.seed)
    f = io.write_csv(out / "dimension.csv",
                     ["lambda", "local_dimension", "stderr"],
                     [(args.lam, slope, err)])
    return [f], {"count_backend": counter.backend}


def cmd_dos2d(args, out: Path):
    s1 = _spectrum(args, 1)
    s2 = _spectrum(args, 2)
    m1 = dos.empirical_measure(s1)
    m2 = dos.empirical_measure(s2)
    try:
        conv = dos.convolve(m1, m2)
    except ValueError as err:
        raise SystemExit(f"{err}; reduce --n") from err
    files = [io.measure_to_csv(out / "dos2d.csv", conv)]
    bandwidths = sorted(KDE_BANDWIDTHS, reverse=True)
    trend = dos.l2_bandwidth_trend(conv, bandwidths)
    for h, _ in trend:
        d = dos.kde_density(conv, h)
        files.append(io.write_csv(out / f"dos2d_kde_h{h:g}.csv",
                                  ["energy", "density"], np.column_stack([d.grid, d.values])))
    ratio = trend[-1][1] / trend[0][1]
    radii = [2.0 ** -j for j in range(4, 10)]
    slope, err = dos.local_dimension(conv, radii, samples=args.samples, seed=args.seed)
    files.append(io.write_csv(out / "dos2d_l2_trend.csv",
                              ["bandwidth", "l2_norm"], trend))
    return files, {
        "l2_ratio": io.fmt(ratio),
        "l2_flag": "growing" if ratio >= L2_FLAG_GROWTH else "stable",
        "local_dimension": io.fmt(slope),
        "local_dimension_stderr": io.fmt(err),
    }


def cmd_sumset2d(args, out: Path):
    lam2 = _lam2(args)
    check_coupling(lam2)
    c1 = tracemap.spectrum_cover(args.lam, depth=args.depth, max_iter=args.max_iter)
    c2 = c1  # one coupling, one cover
    if lam2 != args.lam:
        c2 = tracemap.spectrum_cover(lam2, depth=args.depth, max_iter=args.max_iter)
    if c1.empty or c2.empty:
        raise SystemExit("empty cover: increase depth or reduce max_iter")
    s = sumset(c1, c2)
    f = io.intervals_to_csv(out / "sumset.csv", s)
    gaps = gap_report(s)
    fg = io.write_csv(out / "sumset_gaps.csv", ["gap_start", "gap_end", "width"], gaps)
    return [f, fg], {"total_length": io.fmt(lebesgue_length(s)), "n_gaps": len(gaps)}


def cmd_verify_tensor(args, out: Path):
    from .separable2d import BoxSpec2D, eigs2d_dense

    if args.n > 12:
        raise ParameterError("verify-tensor caps the box at N=12 (dense oracle)")
    spec2d = BoxSpec2D(_model(args, 1), _model(args, 2))
    sums = eigs2d_from_sums(_spectrum(args, 1), _spectrum(args, 2))
    dense = eigs2d_dense(spec2d, start=args.start)
    err = float(np.max(np.abs(sums - dense)))
    if err > 1e-8:
        raise SystemExit(f"tensor-sum identity violated: {err:g}")
    f = io.write_csv(out / "verify_tensor.csv",
                     ["n", "lambda1", "lambda2", "max_abs_difference"],
                     [(args.n, args.lam, _lam2(args), err)])
    return [f], {"max_abs_difference": io.fmt(err)}


def cmd_regularity(args, out: Path):
    if args.system == "middle-thirds":
        sys_ = regularity.middle_cantor_system(1.0 / 3.0)
        J = (0.3, 0.35)
    elif args.system == "fifth":
        sys_ = regularity.middle_cantor_system(1.0 / 5.0)
        J = (0.18, 0.22)
    elif args.system == "uniform":
        sys_ = regularity.SymbolicSystem(digits=(0.0, 0.5))
        J = (0.3, 0.35)
    else:
        cfg = _load_config(args.system)
        if "digits" not in cfg:
            raise ParameterError(f"system file {args.system} sets no digits")
        try:
            digits = tuple(float(x) for x in cfg["digits"].split(","))
            weights = tuple(float(x) for x in cfg["weights"].split(",")) if "weights" in cfg else None
            J = tuple(float(x) for x in cfg.get("J", "0.3,0.35").split(","))
        except ValueError as err:
            raise ParameterError(f"system file {args.system}: {err}") from err
        sys_ = regularity.SymbolicSystem(digits=digits, weights=weights)
    report = regularity.transversality_report(sys_, J, depth=args.depth,
                                              sample_pairs=args.samples,
                                              d_eta=args.d_eta, seed=args.seed)
    fr = io.write_text(out / "regularity_report.json", report.to_json() + "\n")
    eta = dos.cantor_lebesgue(1.0 / 3.0, 10)
    radii = [2.0 ** -j for j in range(4, 9)]
    corr = regularity.correlation_integral(eta, eta, radii, seed=args.seed)
    fc = io.write_csv(out / "regularity_correlation.csv", ["radius", "estimate"], corr)
    return [fr, fc], {}


# subcommand -> (function, stem of its manifest file name)
_COMMANDS = {
    "spectrum1d": (cmd_spectrum1d, "spectrum1d"),
    "ids": (cmd_ids, "ids"),
    "tracemap": (cmd_tracemap, "cover"),
    "lyapunov": (cmd_lyapunov, "lyapunov"),
    "dimension": (cmd_dimension, "dimension"),
    "dos2d": (cmd_dos2d, "dos2d"),
    "sumset2d": (cmd_sumset2d, "sumset"),
    "verify-tensor": (cmd_verify_tensor, "verify_tensor"),
    "regularity": (cmd_regularity, "regularity"),
}


def _param_map(args) -> dict:
    skip = {"config", "out"}
    return {k: v for k, v in sorted(vars(args).items())
            if k not in skip and v is not None}


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="quasispec",
                                  description=__doc__.splitlines()[0])
    sub = top.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--lambda", dest="lam", type=float, default=1.0)
        p.add_argument("--lambda2", dest="lam2", type=float, default=None)
        p.add_argument("--omega", type=float, default=0.0)
        p.add_argument("--omega2", type=float, default=None)
        p.add_argument("--n", type=int, default=500)
        p.add_argument("--depth", type=int, default=12, help="covers: 2^depth energy "
                       f"cells, depth 1..{tracemap.MAX_DEPTH}; regularity: word length")
        p.add_argument("--max-iter", dest="max_iter", type=int, default=None)
        p.add_argument("--start", type=int, default=0)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", type=Path, default=Path("quasispec-out"))
        p.add_argument("--cache", type=str, default=None)
        p.add_argument("--config", type=str, default=None)

    for name in _COMMANDS:
        p = sub.add_parser(name)
        common(p)
        if name == "ids":
            p.add_argument("--grid-points", type=int, default=512)
        if name == "lyapunov":
            p.add_argument("--lambdas", type=str, default="0.2,0.5,1.0")
            p.add_argument("--e-samples", dest="e_samples", type=int, default=16)
            p.add_argument("--m", type=int, default=30)
        if name in ("dimension", "dos2d", "regularity"):
            p.add_argument("--samples", type=int, default=400)
        if name == "regularity":
            p.add_argument("--system", type=str, default="middle-thirds")
            p.add_argument("--d-eta", dest="d_eta", type=float, default=1.0)
    return top


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """build_parser(), built once per process: parsing leaves it unchanged."""
    return build_parser()


def _load_config(path) -> dict:
    """io.load_config, with an unreadable or malformed file a usage error."""
    try:
        return io.load_config(path)
    except (OSError, ValueError) as err:
        raise ParameterError(f"config file {path}: {err}") from err


def _apply_config(argv, parser):
    """Config file values become defaults; explicit flags override them.

    The file is named by `--config FILE` or `--config=FILE`.
    """
    for i, arg in enumerate(argv):
        flag, eq, path = arg.partition("=")
        if flag == "--config":
            break
    else:
        return argv
    if not eq and i + 1 < len(argv) and not argv[i + 1].startswith("-"):
        path = argv[i + 1]
    if not path:
        raise ParameterError("--config needs a file name")
    cfg = _load_config(path)
    extra = []
    for k, v in cfg.items():
        flag = "--" + k.replace("_", "-")
        if flag not in argv:
            extra.extend([flag, v])
    return extra + argv


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _parser()
    try:
        if argv:
            argv = [argv[0]] + _apply_config(argv[1:], parser)
        args = parser.parse_args(argv)
    except SystemExit as e:
        return USAGE_EXIT if e.code not in (0, None) else 0
    except ParameterError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return USAGE_EXIT
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    try:
        _check_flags(args)
        func, stem = _COMMANDS[args.command]
        t0 = time.perf_counter()
        files, extra = func(args, out)
        io.write_manifest(out / f"{stem}.manifest.json", args.command, _param_map(args),
                          files, time.perf_counter() - t0, seed=args.seed, extra=extra)
    except ParameterError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return USAGE_EXIT
    except (SystemExit, RuntimeError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return NUMERIC_EXIT
    return 0


if __name__ == "__main__":
    sys.exit(main())
