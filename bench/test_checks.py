"""The benchmark's checks pass on real outputs and fail on perturbed ones.

Small inputs keep this fast; the checks do not depend on the sizes the
workloads use.  Also checks the tracer's metric list against BENCHMARK.json,
its span accounting, and that run.py refuses a directory without sources.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

from quasispec import cli, eigensolve  # noqa: E402

import checks  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402


def run(out, *argv):
    assert cli.main([*argv, "--out", str(out)]) == 0
    return out


def fails(msgs):
    return len(msgs) > 0


BOX = dict(lam=0.37, omega=0.61, n=120, seed=5)
SQUARE = dict(lam=0.2, omega=0.1, lam2=0.4, omega2=0.7, n=24, seed=3)


@pytest.fixture(scope="module")
def refs():
    return checks.References()


@pytest.fixture(scope="module")
def box_out(tmp_path_factory):
    flags = ["--lambda", repr(BOX["lam"]), "--omega", repr(BOX["omega"]),
             "--n", str(BOX["n"]), "--seed", str(BOX["seed"])]
    root = tmp_path_factory.mktemp("box")
    for kind in ("spectrum1d", "ids", "dimension"):
        run(root / kind, kind, *flags)
    return root


@pytest.fixture(scope="module")
def square_out(tmp_path_factory):
    p = SQUARE
    return run(tmp_path_factory.mktemp("square"), "dos2d",
               "--lambda", repr(p["lam"]), "--omega", repr(p["omega"]),
               "--lambda2", repr(p["lam2"]), "--omega2", repr(p["omega2"]),
               "--n", str(p["n"]), "--seed", str(p["seed"]))


@pytest.fixture(scope="module")
def cover_out(tmp_path_factory):
    # at lambda <= 1 the sumset is one interval; lambda = 2 has gaps, and
    # needs a budget below the default (which empties the cover there)
    return run(tmp_path_factory.mktemp("cover"), "sumset2d", "--lambda", "2.0",
               "--depth", "12", "--max-iter", "14")


@pytest.fixture(scope="module")
def reg_out(tmp_path_factory):
    return run(tmp_path_factory.mktemp("reg"), "regularity", "--system", "fifth", "--seed", "3")


def test_unperturbed_outputs_pass(box_out, square_out, cover_out, reg_out, refs):
    for kind in ("spectrum1d", "ids", "dimension"):
        assert checks.check_op(kind, BOX, box_out / kind, refs, {}) == []
    assert checks.check_op("dos2d", SQUARE, square_out, refs, {}) == []
    assert checks.check_op("sumset2d", dict(lam=2.0, lam2=2.0), cover_out, refs, {}) == []
    assert checks.check_op("regularity", dict(system="fifth"), reg_out, refs, {}) == []


def test_eigenvalue_moved_by_1e9_fails(box_out, refs):
    v, ref, tol = refs.box(BOX["lam"], BOX["omega"], BOX["n"])
    eigs = checks.read_table(box_out / "spectrum1d" / "spectrum1d.csv")[:, 0]
    eigs[40] += 1e-9
    assert fails(checks.check_eigenvalues(eigs, ref, tol))


def test_trace_identities_fail(box_out, refs):
    v, _, tol = refs.box(BOX["lam"], BOX["omega"], BOX["n"])
    eigs = checks.read_table(box_out / "spectrum1d" / "spectrum1d.csv")[:, 0]
    assert checks.check_trace_identities(eigs, v, tol) == []
    shifted = eigs.copy()
    shifted[40] += 1e-6
    assert any("trace" in m for m in checks.check_trace_identities(shifted, v, tol))
    # moving mass outwards keeps the sum and changes the sum of squares
    spread = eigs.copy()
    spread[0] -= 1e-6
    spread[-1] += 1e-6
    msgs = checks.check_trace_identities(spread, v, tol)
    assert msgs and all("Frobenius" in m for m in msgs)


def test_ids_row_off_by_one_count_fails(box_out, refs):
    _, ref, tol = refs.box(BOX["lam"], BOX["omega"], BOX["n"])
    rows = checks.read_table(box_out / "ids" / "ids.csv")
    assert checks.check_ids(rows, ref, tol) == []
    rows[200, 1] += 1.0 / BOX["n"]
    assert fails(checks.check_ids(rows, ref, tol))


def test_dimension_checks_fail(box_out, refs):
    _, ref, _ = refs.box(BOX["lam"], BOX["omega"], BOX["n"])
    row = checks.read_table(box_out / "dimension" / "dimension.csv")[0]
    ref_dim = checks.reference_dimension(ref, BOX["seed"])
    assert checks.check_dimension(row, BOX["lam"], ref_dim) == []
    moved = row.copy()
    moved[1] += 0.01
    assert fails(checks.check_dimension(moved, BOX["lam"], ref_dim))
    high = row.copy()
    high[1] = 1.2
    assert fails(checks.check_dimension(high, BOX["lam"], 1.2))


@pytest.fixture
def square_data(square_out, refs):
    atoms = checks.read_table(square_out / "dos2d.csv")
    _, e1, _ = refs.box(SQUARE["lam"], SQUARE["omega"], SQUARE["n"])
    _, e2, _ = refs.box(SQUARE["lam2"], SQUARE["omega2"], SQUARE["n"])
    return atoms[:, 0].copy(), atoms[:, 1].copy(), e1, e2


def test_atom_weight_doubled_fails(square_data):
    pos, w, e1, e2 = square_data
    assert checks.check_atoms(pos, w, e1, e2) == []
    w[17] *= 2.0
    assert any("sum to" in m for m in checks.check_atoms(pos, w, e1, e2))


def test_moments_fail(square_data):
    pos, w, e1, e2 = square_data
    assert any("mean" in m for m in checks.check_atoms(pos + 1e-6, w, e1, e2))
    mean = float(np.dot(pos, w))
    wider = mean + (pos - mean) * (1.0 + 1e-6)
    msgs = checks.check_atoms(wider, w, e1, e2)
    assert msgs and all("variance" in m for m in msgs)


def test_atom_moved_fails_cdf(square_data):
    pos, w, e1, e2 = square_data
    assert checks.check_cdf(pos, w, e1, e2) == []
    pos[100] += 0.01
    order = np.argsort(pos)
    assert fails(checks.check_cdf(pos[order], w[order], e1, e2))


def test_kde_checks_fail(square_out):
    kde = checks.read_table(sorted(square_out.glob("dos2d_kde_h*.csv"))[0])
    grid, values = kde[:, 0], kde[:, 1].copy()
    assert checks.check_kde(grid, values) == []
    assert fails(checks.check_kde(grid, values * 1.001))
    values[np.argmax(values) + 3] = -1e-3
    assert any("negative" in m for m in checks.check_kde(grid, values))


def test_l2_checks_fail(square_out, square_data):
    pos = square_data[0]
    trend = checks.read_table(square_out / "dos2d_l2_trend.csv")
    manifest = json.loads((square_out / "dos2d.manifest.json").read_text())
    assert checks.check_l2_bound(trend, pos) == []
    assert checks.check_l2_ratio(manifest, trend) == []
    low = trend.copy()
    low[0, 1] = 0.5 / np.sqrt(pos[-1] - pos[0] + 4.0 * trend[:, 0].max())
    assert fails(checks.check_l2_bound(low, pos))
    manifest["l2_ratio"] = repr(float(manifest["l2_ratio"]) * (1.0 + 1e-9))
    assert fails(checks.check_l2_ratio(manifest, trend))


@pytest.fixture
def cover_data(cover_out):
    iv = checks.read_table(cover_out / "sumset.csv")
    gaps = checks.read_table(cover_out / "sumset_gaps.csv")
    manifest = json.loads((cover_out / "sumset.manifest.json").read_text())
    assert len(iv) > 3
    return iv, gaps, manifest


def test_sumset_interval_dropped_fails(cover_data, refs):
    iv, gaps, manifest = cover_data
    edges = refs.edges(2.0)
    assert checks.check_approximant_cover(iv, edges, edges) == []
    widest = int(np.argmax(iv[:, 1] - iv[:, 0]))
    dropped = np.delete(iv, widest, axis=0)
    assert fails(checks.check_gaps(dropped, gaps, manifest))
    assert fails(checks.check_total_length(dropped, manifest))
    assert fails(checks.check_approximant_cover(dropped, edges, edges))


def test_unsorted_or_overlapping_intervals_fail(cover_data):
    iv = cover_data[0]
    assert checks.check_sorted_disjoint(iv) == []
    assert fails(checks.check_sorted_disjoint(iv[[1, 0, *range(2, len(iv))]]))
    touching = iv.copy()
    touching[0, 1] = touching[1, 0]
    assert fails(checks.check_sorted_disjoint(touching))


def test_gap_file_and_manifest_perturbed_fail(cover_data):
    iv, gaps, manifest = cover_data
    assert checks.check_gaps(iv, gaps, manifest) == []
    assert fails(checks.check_gaps(iv, gaps[1:], manifest))
    assert fails(checks.check_gaps(iv, gaps, dict(manifest, n_gaps=len(gaps) + 1)))
    longer = dict(manifest, total_length=repr(float(manifest["total_length"]) + 1e-6))
    assert fails(checks.check_total_length(iv, longer))


def test_regularity_checks_fail(reg_out):
    report = json.loads((reg_out / "regularity_report.json").read_text())
    rows = checks.read_table(reg_out / "regularity_correlation.csv")
    assert fails(checks.check_gamma(dict(report, gamma_hat=0.9), "fifth"))
    assert fails(checks.check_alpha(dict(report, alpha_hat=report["alpha_hat"] + 0.1), "fifth"))
    for bad in (0.0, np.nan, -1.0):
        r = rows.copy()
        r[2, 1] = bad
        assert fails(checks.check_correlation(r))


def test_fibonacci_word_matches_substitution():
    from quasispec.model import substitution_word
    for k in (1, 2, 5, 15):
        word = "".join(map(str, checks.fibonacci_word(k)))
        assert word == substitution_word(k)


def test_per_layer_metrics_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert listed == tracer.metric_units()


def test_traced_op_accounts_for_its_time(tmp_path):
    t = tracer.Tracer()
    t.install()
    try:
        with t.span("cli.spectrum1d"):
            run(tmp_path, "spectrum1d", "--n", "50", "--cache", str(tmp_path / "c"))
        with t.span("cli.spectrum1d"):
            run(tmp_path, "spectrum1d", "--n", "50", "--cache", str(tmp_path / "c"))
    finally:
        t.uninstall()
    assert cli.cached_spectrum is eigensolve.cached_spectrum
    assert not hasattr(eigensolve.sturm_count_batch, "__wrapped__")
    totals = t.totals()
    ops = [s for s in t.spans if s[1] == -1]
    wall = sum(s[3] - s[2] for s in ops)
    self_sum = sum(v for k, v in totals.items() if k.endswith(".self_s"))
    assert self_sum == pytest.approx(wall, rel=1e-9)
    assert totals["eigensolve.cached_spectrum.misses"] == 1
    assert totals["eigensolve.cached_spectrum.hits"] == 1
    assert totals["model.potential_vector.sites"] == 100
    assert totals["io.write_csv.rows"] == 100
    assert totals["eigensolve.sturm_count_batch.site_shifts"] == (
        50 * 50 * totals["eigensolve.sturm_count_batch.calls"])


def test_tail_order_statistic():
    times = [float(i) for i in range(100)]
    assert worker.tail(times) == (89.0, 90.0, 10)
    assert worker.tail(times[:12]) == (8.0, 75.0, 3)


def test_run_refuses_a_directory_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "box1d", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
