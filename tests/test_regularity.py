import numpy as np
import pytest

from quasispec import calibration
from quasispec.dos import AtomicMeasure, cantor_lebesgue
from quasispec.regularity import (
    SymbolicSystem,
    correlation_integral,
    criterion_verdict,
    estimate_cond1,
    estimate_cond2,
    measure_decay,
    middle_cantor_system,
    near_far_split,
    sample_pair,
    transversality_report,
)

from helpers import (
    common_prefix_len,
    phi,
    pi_lambda,
    uniform_measure,
    verify_cond1,
    verify_cond2,
)

THIRDS = middle_cantor_system(1.0 / 3.0)
J = calibration.REGULARITY["J"]


def test_system_validation():
    with pytest.raises(ValueError):
        SymbolicSystem(digits=(0.0,))
    with pytest.raises(ValueError):
        SymbolicSystem(digits=(0.0, 1.0), weights=(0.4, 0.4))
    with pytest.raises(ValueError):
        SymbolicSystem(digits=(0.0, 1.0), transition=[[1, 0], [0, 1]])  # reducible
    with pytest.raises(ValueError, match="digits must be distinct: 0.5 repeats"):
        SymbolicSystem(digits=(0.0, 0.5, 0.5))
    with pytest.raises(ValueError, match="distinct"):
        SymbolicSystem(digits=(0.0, 1.0, -0.0))


def test_pi_lambda_examples():
    v, _ = pi_lambda([0] * 10, 1 / 3, THIRDS)
    assert v == 0.0
    v, tail = pi_lambda([1] * 20, 1 / 3, THIRDS)
    assert v == pytest.approx(1.0, abs=1e-9)
    assert tail < 1e-9
    v, _ = pi_lambda([1, 0, 1], 1 / 3, THIRDS)
    assert v == pytest.approx(2 / 3 * (1 + 1 / 9), abs=1e-15)


def test_pi_lambda_monotone_in_digits():
    lo = SymbolicSystem(digits=(0.0, 0.5))
    hi = SymbolicSystem(digits=(0.0, 0.7))
    word = [1, 0, 1, 1, 0, 1]
    assert pi_lambda(word, 0.4, hi)[0] >= pi_lambda(word, 0.4, lo)[0]


def test_pi_lambda_validates():
    with pytest.raises(ValueError):
        pi_lambda([0, 1], 1.5, THIRDS)
    sparse = SymbolicSystem(digits=(0.0, 1.0), transition=[[0, 1], [1, 1]])
    with pytest.raises(ValueError):
        pi_lambda([0, 0], 0.3, sparse)


def test_phi_antisymmetric_and_leading_digit():
    assert phi([1, 0], [0, 0], 1 / 3, THIRDS) == pytest.approx(2 / 3)
    a, b = [1, 0, 1, 1], [0, 1, 1, 0]
    assert phi(a, b, 0.32, THIRDS) == -phi(b, a, 0.32, THIRDS)
    with pytest.raises(ValueError):
        phi([0, 1], [0, 1, 1], 0.3, THIRDS)


def test_phi_geometric_bound_with_shared_prefix():
    rng = np.random.default_rng(0)
    lam = 0.35
    for k in range(1, 9):
        for om, ta in zip(*sample_pair(rng, THIRDS, 12, k, 25)):
            assert common_prefix_len(om, ta) == k
            assert abs(phi(om, ta, lam, THIRDS)) <= (2 / 3) * lam ** k / (1 - lam) + 1e-15


def test_sample_pair_golden_mean_shift():
    golden = SymbolicSystem(digits=(0.0, 1.0), transition=[[1, 1], [1, 0]])
    rng = np.random.default_rng(5)
    for k in range(10):
        om, ta = sample_pair(rng, golden, 10, k, 300)
        assert om.shape == ta.shape == (300, 10)
        for w in (om, ta):
            assert np.all(golden.transition[w[:, :-1], w[:, 1:]] == 1)
        assert np.array_equal(om[:, :k], ta[:, :k])
        assert np.all(om[:, k] != ta[:, k])
        if k != 1:  # a prefix of length 1 must be the branching symbol 0
            assert set(om[:, 0]) == {0, 1}


def test_sample_pair_retries_then_gives_up_on_non_branching_prefixes():
    # the chain alternates 1, 0, 1, ...: a prefix of length 1 is [1] and has
    # one successor, a prefix of length 2 is [1, 0] and has two
    lazy = SymbolicSystem(digits=(0.0, 1.0), transition=[[1, 1], [1, 0]],
                          weights=(1e-13, 1.0 - 1e-13))
    rng = np.random.default_rng(0)
    with pytest.raises(RuntimeError):
        sample_pair(rng, lazy, 6, 1, 5)
    om, ta = sample_pair(rng, lazy, 6, 2, 5)
    assert np.all(om[:, :2] == [1, 0]) and np.all(om[:, 2] != ta[:, 2])


def test_sample_pair_suffix_frequencies_follow_weights():
    skew = SymbolicSystem(digits=(0.0, 0.5), weights=(0.3, 0.7))
    k = 2
    om, ta = sample_pair(np.random.default_rng(11), skew, 20, k, 2000)
    suffixes = np.concatenate([om[:, k + 1:], ta[:, k + 1:]]).ravel()
    sigma = np.sqrt(0.3 * 0.7 / suffixes.size)
    assert abs(np.mean(suffixes == 1) - 0.7) <= 4 * sigma


def test_common_prefix_len():
    assert common_prefix_len([0, 1, 1], [0, 1, 1]) == 3
    assert common_prefix_len([1, 1], [0, 1]) == 0
    assert common_prefix_len([0, 1, 1, 0], [0, 1, 0, 0]) == 2


def test_cond1_matches_worst_contraction():
    alpha_hat, c1 = estimate_cond1(THIRDS, J, depth=12, sample_pairs=600, seed=0)
    expected = np.log(1 / J[1]) / np.log(2)
    assert alpha_hat == pytest.approx(expected, rel=0.10)
    assert c1 > 0


def test_cond1_holdout_zero_violations():
    cal = calibration.REGULARITY
    alpha_hat, c1 = estimate_cond1(THIRDS, J, cal["depth"], cal["sample_pairs"],
                                   seed=cal["seed"])
    bad = verify_cond1(THIRDS, J, cal["depth"], cal["holdout_pairs"],
                       alpha_hat, c1, seed=cal["holdout_seed"])
    assert bad == 0


def test_cond2_envelope_and_holdout():
    cal = calibration.REGULARITY
    beta_hat, c2, flagged = estimate_cond2(THIRDS, J, cal["depth"],
                                           cal["sample_pairs"], seed=cal["seed"])
    assert beta_hat > 0 and c2 > 0
    assert flagged == 0.0   # derivative never degenerates in the linear model
    bad = verify_cond2(THIRDS, J, cal["depth"], cal["holdout_pairs"],
                       beta_hat, c2, seed=cal["holdout_seed"])
    assert bad == 0


def test_cond2_rejects_coarse_cd_step():
    with pytest.raises(ValueError):
        estimate_cond2(THIRDS, J, 8, 50, cd_step=1e-3)


def test_measure_decay_uniform_and_skewed():
    g, c3 = measure_decay(SymbolicSystem(digits=(0.0, 0.5)), 20)
    assert g == 1.0 and c3 == 1.0
    skew = SymbolicSystem(digits=(0.0, 0.5), weights=(0.9, 0.1))
    g, _ = measure_decay(skew, 20)
    assert g == pytest.approx(-np.log(0.9) / np.log(2), abs=1e-12)


def test_cylinder_masses_sum_to_one():
    skew = SymbolicSystem(digits=(0.0, 0.5), weights=(0.3, 0.7))
    for n in (1, 5, 10):
        total = sum(np.prod([skew.weights[s] for s in word])
                    for word in __import__("itertools").product((0, 1), repeat=n))
        assert total == pytest.approx(1.0, abs=1e-12)


def test_criterion_verdict_cases():
    assert criterion_verdict(1.0, 1.5, 1.7, 1.0) == (True, True)
    # d=0.2 with gamma/beta=0.3 fails the first inequality
    assert criterion_verdict(0.2, 1.0, 1.0, 0.3) == (False, False)
    assert criterion_verdict(0.9, 2.0, 1.0, 0.3) == (True, True)
    with pytest.raises(ValueError):
        criterion_verdict(0.5, -1.0, 1.0, 1.0)


def test_transversality_report_middle_thirds():
    cal = calibration.REGULARITY
    rep = transversality_report(THIRDS, J, cal["depth"], cal["sample_pairs"],
                                d_eta=1.0, seed=cal["seed"])
    assert rep.verdict_1 and rep.verdict_2
    assert rep.gamma_hat == 1.0
    assert rep.max_certified_depth == cal["depth"] - 1
    # serialization round-trips
    import json
    blob = json.loads(rep.to_json())
    assert blob["alpha_hat"] == rep.alpha_hat


def test_correlation_integral_uniform_flat():
    u = uniform_measure(0.0, 1.0, 1000)
    est = correlation_integral(u, u, [2.0 ** -k for k in range(3, 8)], 4000, seed=9)
    vals = [v for _, v in est]
    assert max(vals) / min(vals) < 1.15


def test_correlation_integral_atomic_divergence():
    d = AtomicMeasure([0.0], [1.0])
    est = correlation_integral(d, d, [0.5, 0.25, 0.125], 1000, seed=1)
    for r, v in est:
        assert v == pytest.approx(1.0 / (2 * r), abs=1e-12)


def test_correlation_integral_validates():
    u = uniform_measure(0.0, 1.0, 100)
    with pytest.raises(ValueError):
        correlation_integral(u, u, [0.25, 0.5], 2000)     # not decreasing
    with pytest.raises(ValueError):
        correlation_integral(u, u, [0.5, 0.25], 10)       # too few samples


def test_near_far_decomposition_identity():
    eta = cantor_lebesgue(1 / 3, 8)
    r = 2.0 ** -6
    i1, i2 = near_far_split(eta, eta, r, 2000, seed=3)
    total = correlation_integral(eta, eta, [r], 2000, seed=3)[0][1]
    assert i1 + i2 == pytest.approx(2 * r * total, abs=1e-14)
    assert i1 >= 0 and i2 >= 0


def test_near_far_everything_near_for_huge_radius():
    eta = cantor_lebesgue(1 / 3, 6)
    i1, i2 = near_far_split(eta, eta, 3.0, 1500, seed=4)
    assert i2 == 0.0
    assert i1 == pytest.approx(1.0, abs=1e-12)


def test_near_component_scales_for_flat_measure():
    # flat eta: near mass is ~4r of eta pairs times ~2r of nu mass = 8 r^2,
    # an order-r fraction of the total ball mass
    u = uniform_measure(0.0, 1.0, 2000)
    for r in (2.0 ** -5, 2.0 ** -7):
        i1, i2 = near_far_split(u, u, r, 2000, seed=6)
        assert i1 == pytest.approx(8.0 * r * r, rel=0.3)
        assert i1 / (i1 + i2) < 12.0 * r


def test_near_component_slope_matches_criterion_exponent():
    cal = calibration.CORRELATION_SLOPE
    eta = cantor_lebesgue(1.0 / 3.0, cal["cantor_depth"])
    i1s = [near_far_split(eta, eta, r, cal["sample_pairs"], seed=cal["seed"])[0]
           for r in cal["radii"]]
    slope = np.polyfit(np.log(cal["radii"]), np.log(i1s), 1)[0]
    assert slope == pytest.approx(cal["predicted"], abs=cal["tol"])
