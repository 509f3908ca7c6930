import hashlib
import json
import math

import numpy as np
import pytest

from quasispec.cli import main
from quasispec.io import read_csv


def run(tmp_path, *args):
    out = tmp_path / "out"
    return main([*args, "--out", str(out)]), out


def test_unknown_flag_exits_with_usage_code(tmp_path, capsys):
    code = main(["spectrum1d", "--bogus", "1"])
    assert code == 2


def test_unknown_command_exits_with_usage_code():
    assert main(["noexist"]) == 2


def test_spectrum1d_free_matches_analytic(tmp_path):
    code, out = run(tmp_path, "spectrum1d", "--lambda", "0", "--n", "100")
    assert code == 0
    _, rows = read_csv(out / "spectrum1d.csv")
    ref = np.sort(2 * np.cos(np.arange(1, 101) * np.pi / 101))
    assert np.max(np.abs(rows[:, 0] - ref)) < 1e-9
    manifest = json.loads((out / "spectrum1d.manifest.json").read_text())
    assert manifest["command"] == "spectrum1d"
    assert manifest["outputs"][0]["file"] == "spectrum1d.csv"


def test_spectrum1d_deterministic_bytes(tmp_path):
    _, out1 = run(tmp_path / "a", "spectrum1d", "--lambda", "1", "--n", "50")
    _, out2 = run(tmp_path / "b", "spectrum1d", "--lambda", "1", "--n", "50")
    assert (out1 / "spectrum1d.csv").read_bytes() == (out2 / "spectrum1d.csv").read_bytes()


def test_spectrum1d_cache_hit(tmp_path):
    cache = tmp_path / "cache"
    a = main(["spectrum1d", "--lambda", "1", "--n", "40",
              "--out", str(tmp_path / "o1"), "--cache", str(cache)])
    b = main(["spectrum1d", "--lambda", "1", "--n", "40",
              "--out", str(tmp_path / "o2"), "--cache", str(cache)])
    assert a == b == 0
    assert len(list(cache.glob("*.npy"))) == 1
    f1 = (tmp_path / "o1" / "spectrum1d.csv").read_bytes()
    f2 = (tmp_path / "o2" / "spectrum1d.csv").read_bytes()
    assert f1 == f2


def test_ids_endpoints(tmp_path):
    code, out = run(tmp_path, "ids", "--lambda", "0", "--n", "100")
    assert code == 0
    _, rows = read_csv(out / "ids.csv")
    assert rows[0, 1] == 0.0
    assert rows[-1, 1] == 1.0
    assert np.all(np.diff(rows[:, 1]) >= 0)


def test_ids_box_at_offset_1e11_is_a_factor_of_the_fibonacci_word(tmp_path):
    # one of its sites rounded to the wrong letter, and the box fell back to Sturm counts
    code, out = run(tmp_path, "ids", "--omega", "0.123456789", "--start", "100000000000",
                    "--n", "20000", "--grid-points", "16")
    assert code == 0
    assert json.loads((out / "ids.manifest.json").read_text())["count_backend"] == "lifted"


def test_tracemap_free_cover(tmp_path):
    code, out = run(tmp_path, "tracemap", "--lambda", "0", "--depth", "12",
                    "--max-iter", "200")
    assert code == 0
    _, rows = read_csv(out / "cover.csv")
    total = np.sum(rows[:, 1] - rows[:, 0])
    assert abs(total - 4.0) < 0.2
    manifest = json.loads((out / "cover.manifest.json").read_text())
    assert float(manifest["total_length"]) == pytest.approx(total)


def test_tracemap_coupling_trend(tmp_path):
    lens = []
    for i, lam in enumerate(("0", "4")):
        code, out = run(tmp_path / str(i), "tracemap", "--lambda", lam,
                        "--depth", "12", "--max-iter", "16")
        assert code == 0
        _, rows = read_csv(out / "cover.csv")
        lens.append(np.sum(rows[:, 1] - rows[:, 0]))
    assert lens[1] < lens[0]


def test_dos2d_identity_against_sums(tmp_path):
    code, out = run(tmp_path, "dos2d", "--lambda", "1", "--lambda2", "2", "--n", "50")
    assert code == 0
    _, atoms = read_csv(out / "dos2d.csv")
    from quasispec.dos import AtomicMeasure, empirical_measure, sup_cdf_distance
    from quasispec.eigensolve import eigenvalues_bisect, fibonacci_tridiag
    from quasispec.model import ModelParams
    from quasispec.separable2d import eigs2d_from_sums
    conv = AtomicMeasure(atoms[:, 0], atoms[:, 1])
    s1 = eigenvalues_bisect(fibonacci_tridiag(ModelParams(1.0, n_sites=50)))
    s2 = eigenvalues_bisect(fibonacci_tridiag(ModelParams(2.0, n_sites=50)))
    direct = empirical_measure(eigs2d_from_sums(s1, s2))
    assert sup_cdf_distance(conv, direct) <= 1e-12
    manifest = json.loads((out / "dos2d.manifest.json").read_text())
    assert manifest["l2_flag"] in ("stable", "growing")


def test_sumset2d_small_coupling_no_gaps(tmp_path):
    code, out = run(tmp_path, "sumset2d", "--lambda", "0.3", "--depth", "12",
                    "--max-iter", "20")
    assert code == 0
    _, gaps = read_csv(out / "sumset_gaps.csv")
    assert gaps.size == 0


def test_verify_tensor_command(tmp_path):
    code, out = run(tmp_path, "verify-tensor", "--lambda", "1", "--lambda2", "4",
                    "--n", "6")
    assert code == 0
    manifest = json.loads((out / "verify_tensor.manifest.json").read_text())
    assert float(manifest["max_abs_difference"]) < 1e-8


def test_regularity_replay_identical(tmp_path):
    _, out1 = run(tmp_path / "a", "regularity", "--depth", "8", "--samples", "100")
    _, out2 = run(tmp_path / "b", "regularity", "--depth", "8", "--samples", "100")
    r1 = (out1 / "regularity_report.json").read_bytes()
    r2 = (out2 / "regularity_report.json").read_bytes()
    assert r1 == r2
    report = json.loads(r1)
    assert report["verdict_1"] and report["verdict_2"]
    assert report["gamma_hat"] == 1.0


def test_lyapunov_command(tmp_path):
    code, out = run(tmp_path, "lyapunov", "--lambdas", "0.5", "--e-samples", "6",
                    "--m", "24")
    assert code == 0
    _, rows = read_csv(out / "lyapunov.csv")
    assert rows[0, 1] > 0


def test_config_file_supplies_defaults(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("lambda = 0\nn = 64   # box size\n")
    code, out = run(tmp_path, "spectrum1d", "--config", str(cfg))
    assert code == 0
    _, rows = read_csv(out / "spectrum1d.csv")
    assert rows.shape[0] == 64
    # explicit flag beats the config value
    code, out2 = run(tmp_path / "o2", "spectrum1d", "--config", str(cfg), "--n", "32")
    _, rows = read_csv(out2 / "spectrum1d.csv")
    assert rows.shape[0] == 32


@pytest.mark.parametrize("n_flag", [[], ["--n", "32"], ["--n=32"]])
def test_config_equals_form_supplies_defaults(tmp_path, n_flag):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("lambda = 0\nn = 16\n")
    code, out = run(tmp_path, "spectrum1d", f"--config={cfg}", *n_flag)
    assert code == 0
    _, rows = read_csv(out / "spectrum1d.csv")
    assert rows.shape[0] == (32 if n_flag else 16)
    manifest = json.loads((out / "spectrum1d.manifest.json").read_text())
    assert manifest["params"]["n"] == str(rows.shape[0])


@pytest.mark.parametrize("case", ["missing", "junk", "last", "before-flag", "system",
                                  "system-junk", "system-no-digits", "system-text",
                                  "equals-missing", "equals-empty"])
def test_unreadable_config_is_usage_error(tmp_path, capsys, case):
    files = {"junk": "junk\n", "no-digits": "weights = 0.5,0.5\n", "text": "digits = 0,x\n"}
    for name, text in files.items():
        (tmp_path / f"{name}.cfg").write_text(text)
    missing = str(tmp_path / "missing.cfg")
    out = tmp_path / "out"
    argv = {
        "missing": ["spectrum1d", "--config", missing, "--out", str(out)],
        "junk": ["spectrum1d", "--config", str(tmp_path / "junk.cfg"), "--out", str(out)],
        "last": ["spectrum1d", "--out", str(out), "--config"],
        "before-flag": ["spectrum1d", "--config", "--out", str(out)],
        "equals-missing": ["spectrum1d", f"--config={missing}", "--out", str(out)],
        "equals-empty": ["spectrum1d", "--config=", "--out", str(out)],
        "system": ["regularity", "--system", missing, "--out", str(out)],
    }
    for name in files:
        argv[f"system-{name}"] = ["regularity", "--system", str(tmp_path / f"{name}.cfg"),
                                  "--out", str(out)]
    assert main(argv[case]) == 2
    assert "usage error:" in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())


def test_numeric_failure_exit_code(tmp_path):
    # empty covers cannot be summed
    code = main(["sumset2d", "--lambda", "4", "--depth", "6", "--max-iter", "60",
                 "--out", str(tmp_path / "x")])
    assert code == 3


def test_parameter_cap_is_usage_error(tmp_path):
    code = main(["verify-tensor", "--n", "14", "--out", str(tmp_path / "x")])
    assert code == 2
    code = main(["spectrum1d", "--n", "200000", "--out", str(tmp_path / "y")])
    assert code == 2


@pytest.mark.parametrize("flags", [["--lambda", "nan"], ["--lambda", "inf"],
                                   ["--lambda", "-1"], ["--n", "0"],
                                   ["--start", "9007199254740992", "--n", "10"],
                                   ["--start", "-9007199254740983", "--n", "10"]])
def test_invalid_model_parameter_is_usage_error(tmp_path, capsys, flags):
    code, out = run(tmp_path, "spectrum1d", "--n", "50", *flags)
    assert code == 2
    assert "usage error" in capsys.readouterr().err
    assert not (out / "spectrum1d.csv").exists()


def test_corrupt_cache_file_is_replaced(tmp_path):
    cache = tmp_path / "cache"
    args = ["spectrum1d", "--lambda", "1", "--n", "40", "--cache", str(cache)]
    assert main([*args, "--out", str(tmp_path / "o1")]) == 0
    (path,) = cache.glob("*.npy")
    path.write_bytes(b"\x80\x04garbage")
    assert main([*args, "--out", str(tmp_path / "o2")]) == 0
    assert ((tmp_path / "o1" / "spectrum1d.csv").read_bytes()
            == (tmp_path / "o2" / "spectrum1d.csv").read_bytes())
    assert np.load(path).shape == (40,)


def test_non_finite_output_is_numeric_failure(tmp_path, capsys, monkeypatch):
    from quasispec import dos

    real = dos.ids_from_counts

    def with_nan(counter, energies):
        rows = real(counter, energies)
        rows[3, 1] = np.nan
        return rows

    monkeypatch.setattr(dos, "ids_from_counts", with_nan)
    code, out = run(tmp_path, "ids", "--lambda", "1", "--n", "50", "--grid-points", "16")
    assert code == 3
    assert "non-finite" in capsys.readouterr().err
    assert list(out.iterdir()) == []


def test_non_finite_report_is_numeric_failure(tmp_path, capsys, monkeypatch):
    from quasispec import regularity

    # an infinite alpha_hat and a NaN c1, neither of which JSON can hold
    monkeypatch.setattr(regularity, "_cond1", lambda *a: (np.inf, np.nan))
    code, out = run(tmp_path, "regularity", "--depth", "6", "--samples", "40")
    assert code == 3
    assert "not JSON compliant" in capsys.readouterr().err
    assert list(out.iterdir()) == []


def test_repeated_digits_are_rejected_before_sampling(tmp_path, capsys, recwarn):
    # two symbols with one digit would give pairs with phi = 0 at every lambda
    cfg = tmp_path / "system.cfg"
    cfg.write_text("digits = 0.0,0.5,0.5\n")
    code, out = run(tmp_path, "regularity", "--system", str(cfg),
                    "--depth", "6", "--samples", "40")
    assert code == 3
    assert "error: digits must be distinct: 0.5 repeats" in capsys.readouterr().err
    assert list(out.iterdir()) == []
    assert len(recwarn) == 0


def test_tensor_sum_violation_leaves_no_file(tmp_path, capsys, monkeypatch):
    from quasispec import cli

    real = cli.eigs2d_from_sums
    monkeypatch.setattr(cli, "eigs2d_from_sums", lambda s1, s2: real(s1, s2) + 1e-6)
    code, out = run(tmp_path, "verify-tensor", "--lambda", "1", "--lambda2", "4",
                    "--n", "6")
    assert code == 3
    assert "tensor-sum identity violated: 1e-06" in capsys.readouterr().err
    assert list(out.iterdir()) == []


# subcommand -> (small flags, manifest stem, data files in the order written)
SMALL_RUNS = {
    "spectrum1d": (["--n", "20"], "spectrum1d", ["spectrum1d.csv"]),
    "ids": (["--n", "30", "--grid-points", "16"], "ids", ["ids.csv"]),
    "tracemap": (["--lambda", "0.5", "--depth", "8"], "cover", ["cover.csv"]),
    "lyapunov": (["--lambdas", "0.3", "--e-samples", "2", "--m", "5", "--depth", "6"],
                 "lyapunov", ["lyapunov.csv"]),
    "dimension": (["--n", "60", "--samples", "100"], "dimension", ["dimension.csv"]),
    "dos2d": (["--n", "12", "--lambda2", "0.5", "--samples", "100"], "dos2d",
              ["dos2d.csv", "dos2d_kde_h0.00390625.csv", "dos2d_kde_h0.000976562.csv",
               "dos2d_l2_trend.csv"]),
    "sumset2d": (["--lambda", "0.3", "--lambda2", "0.4", "--depth", "6"], "sumset",
                 ["sumset.csv", "sumset_gaps.csv"]),
    "verify-tensor": (["--n", "5"], "verify_tensor", ["verify_tensor.csv"]),
    "regularity": (["--depth", "6", "--samples", "40"], "regularity",
                   ["regularity_report.json", "regularity_correlation.csv"]),
}


@pytest.mark.parametrize("command", SMALL_RUNS)
def test_every_subcommand_writes_one_manifest_of_its_files(tmp_path, command):
    flags, stem, files = SMALL_RUNS[command]
    code, out = run(tmp_path, command, *flags)
    assert code == 0
    assert sorted(f.name for f in out.iterdir()) == sorted([*files, f"{stem}.manifest.json"])
    manifest = json.loads((out / f"{stem}.manifest.json").read_text())
    assert manifest["command"] == command
    assert manifest["outputs"] == [
        {"file": name, "sha256": hashlib.sha256((out / name).read_bytes()).hexdigest()}
        for name in files]
    assert math.isfinite(manifest["duration_s"]) and manifest["duration_s"] >= 0


def _artefacts(out):
    """Each file of an output directory, manifests without their timing fields."""
    files = {}
    for f in sorted(out.glob("*")) if out.exists() else []:
        if f.name.endswith(".manifest.json"):
            manifest = json.loads(f.read_text())
            del manifest["duration_s"], manifest["written_at"]
            files[f.name] = manifest
        else:
            files[f.name] = f.read_bytes()
    return files


def test_consecutive_main_calls_match_calls_with_fresh_parsers(tmp_path, monkeypatch):
    from quasispec import cli

    cfg = tmp_path / "run.cfg"
    cfg.write_text("lambda = 0.5\nomega = 0.25\n")
    # flags set in one call and left out of the next, a usage error and a
    # config file in between: none may carry over to a later call
    calls = [
        ["spectrum1d", "--lambda", "2", "--n", "40", "--lambda2", "0.7", "--omega2", "0.1"],
        ["spectrum1d", "--n", "40"],
        ["spectrum1d", "--bogus", "1"],
        ["ids", "--config", str(cfg), "--n", "30", "--grid-points", "16", "--start", "2"],
        ["ids", "--n", "30", "--grid-points", "16"],
        ["lyapunov", "--lambdas", "0.3", "--e-samples", "2", "--m", "5", "--depth", "6"],
        ["regularity", "--depth", "6", "--samples", "40", "--seed", "3", "--d-eta", "0.8"],
        ["regularity", "--depth", "6", "--samples", "40"],
        ["sumset2d", "--lambda", "0.3", "--lambda2", "0.4", "--depth", "6"],
        ["sumset2d", "--lambda", "0.3", "--depth", "6"],
    ]
    builds = []
    real = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: builds.append(1) or real())

    def outputs(root, fresh):
        cli._parser.cache_clear()
        results = []
        for i, argv in enumerate(calls):
            if fresh:
                cli._parser.cache_clear()
            code = main([*argv, "--out", str(root / str(i))])
            results.append((code, _artefacts(root / str(i))))
        return results

    one_parser = outputs(tmp_path / "one", fresh=False)
    assert len(builds) == 1
    assert [code for code, _ in one_parser] == [0, 0, 2, 0, 0, 0, 0, 0, 0, 0]
    assert outputs(tmp_path / "fresh", fresh=True) == one_parser
    assert len(builds) == 1 + len(calls)
    cli._parser.cache_clear()


def test_tracemap_empty_cover_is_numeric_failure(tmp_path, capsys):
    code, out = run(tmp_path, "tracemap", "--lambda", "3")
    assert code == 3
    assert "empty cover" in capsys.readouterr().err
    assert not (out / "cover.csv").exists()


def test_help_exits_cleanly(capsys):
    assert main(["--help"]) == 0
    assert "spectrum1d" in capsys.readouterr().out


def test_dos2d_free_case_is_unimodal_on_support(tmp_path):
    code, out = run(tmp_path, "dos2d", "--lambda", "0", "--lambda2", "0",
                    "--n", "200")
    assert code == 0
    files = sorted(out.glob("dos2d_kde_h*.csv"))
    _, rows = read_csv(files[-1])
    e, f = rows[:, 0], rows[:, 1]
    # 2D free spectrum is [-4, 4]; density peaks centrally and vanishes outside
    assert f[np.argmin(np.abs(e))] > f[np.argmin(np.abs(e - 3.0))]
    assert np.all(f[(e < -4.1) | (e > 4.1)] < 1e-9)


@pytest.mark.parametrize("args, artefact", [
    (["tracemap", "--lambda", "nan", "--depth", "6"], "cover.csv"),
    (["tracemap", "--lambda", "0.5", "--depth", "0"], "cover.csv"),
    (["tracemap", "--lambda", "0.5", "--depth", "21"], "cover.csv"),
    (["lyapunov", "--lambdas", "nan", "--depth", "6"], "lyapunov.csv"),
    (["lyapunov", "--lambdas", "0.3,nan", "--depth", "6"], "lyapunov.csv"),
    (["sumset2d", "--lambda", "0.3", "--lambda2", "nan", "--depth", "6"], "sumset.csv"),
    (["sumset2d", "--lambda", "inf", "--depth", "6"], "sumset.csv"),
    (["sumset2d", "--lambda", "-1", "--depth", "6"], "sumset.csv"),
    (["lyapunov", "--lambdas", "0.2,x", "--depth", "6"], "lyapunov.csv"),
    (["tracemap", "--lambda", "0.5", "--depth", "6", "--max-iter", "0"], "cover.csv"),
    (["tracemap", "--lambda", "0.5", "--depth", "6", "--max-iter", "-1"], "cover.csv"),
    (["sumset2d", "--lambda", "0.5", "--depth", "6", "--max-iter", "0"], "sumset.csv"),
    (["sumset2d", "--lambda", "0.5", "--depth", "6", "--max-iter", "-1"], "sumset.csv"),
    (["regularity", "--depth", "3"], "regularity_report.json"),
    (["regularity", "--samples", "0"], "regularity_report.json"),
    (["ids", "--grid-points", "0"], "ids.csv"),
    (["ids", "--grid-points", "1"], "ids.csv"),
    (["dimension", "--samples", "50"], "dimension.csv"),
    (["dos2d", "--samples", "99"], "dos2d.csv"),
    (["regularity", "--seed", "-1"], "regularity_report.json"),
    (["spectrum1d", "--seed", "-1"], "spectrum1d.csv"),
    (["regularity", "--d-eta", "nan"], "regularity_report.json"),
    (["regularity", "--d-eta", "1.5"], "regularity_report.json"),
    (["lyapunov", "--e-samples", "0", "--depth", "6"], "lyapunov.csv"),
    (["lyapunov", "--e-samples", "1", "--depth", "6"], "lyapunov.csv"),
    (["lyapunov", "--m", "0", "--depth", "6"], "lyapunov.csv"),
])
def test_bad_coupling_or_depth_is_usage_error(tmp_path, capsys, monkeypatch,
                                             args, artefact):
    from quasispec import regularity, tracemap

    def no_work(*_, **__):
        raise AssertionError("a cover or a word sample was computed before the check")

    # every parameter is checked before any orbit is iterated or word drawn
    monkeypatch.setattr(tracemap, "escape_steps", no_work)
    monkeypatch.setattr(regularity, "sample_pair", no_work)
    code, out = run(tmp_path, *args)
    assert code == 2
    assert "usage error" in capsys.readouterr().err
    assert not (out / artefact).exists()


def test_help_states_depth_bound(capsys):
    from quasispec.tracemap import MAX_DEPTH
    assert main(["tracemap", "--help"]) == 0
    assert f"1..{MAX_DEPTH}" in capsys.readouterr().out
