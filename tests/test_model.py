import numpy as np
import pytest

from quasispec.model import (
    GOLDEN_CONJUGATE,
    ModelParams,
    ParameterError,
    _frac_exact,
    _indicator,
    potential_vector,
    site_letters,
    substitution_word,
)

from helpers import potential_value


def test_potential_values_at_small_sites():
    p = ModelParams(1.0)
    assert potential_value(0, p) == 0.0
    assert potential_value(1, p) == 1.0   # frac(alpha) = 0.618 in [0.382, 1)
    assert potential_value(2, p) == 0.0   # frac(2 alpha) = 0.236


def test_potential_vector_matches_scalar():
    p = ModelParams(1.0, n_sites=5)
    assert potential_vector(1, p).tolist() == [1.0, 0.0, 1.0, 1.0, 0.0]
    p0 = ModelParams(0.0, n_sites=3)
    assert potential_vector(0, p0).tolist() == [0.0, 0.0, 0.0]


def test_potential_scales_linearly_in_coupling():
    p1 = ModelParams(1.0, n_sites=50)
    p2 = ModelParams(2.0, n_sites=50)
    assert np.array_equal(2.0 * potential_vector(1, p1), potential_vector(1, p2))


def test_potential_only_takes_two_values():
    p = ModelParams(0.7, omega=0.31, n_sites=4000)
    v = potential_vector(-2000, p)
    assert set(np.unique(v)) <= {0.0, 0.7}


def test_vector_agrees_with_scalar_everywhere():
    p = ModelParams(1.3, omega=0.123, n_sites=300)
    v = potential_vector(-77, p)
    for i in range(300):
        assert v[i] == potential_value(-77 + i, p)


def test_params_validation():
    for bad in (dict(lam=-0.1), dict(lam=float("nan")), dict(lam=float("inf")),
                dict(lam=1.0, omega=1.0), dict(lam=1.0, n_sites=0),
                dict(lam=1.0, alpha=1.5)):
        with pytest.raises(ParameterError):
            ModelParams(**bad)
    assert issubclass(ParameterError, ValueError)


def test_substitution_word_base_cases():
    assert substitution_word(1) == "1"
    assert substitution_word(3) == "101"
    assert substitution_word(5) == "10110101"


def test_substitution_word_fibonacci_lengths():
    fib = [1, 1]
    while len(fib) < 16:
        fib.append(fib[-1] + fib[-2])
    for k in range(1, 15):
        assert len(substitution_word(k)) == fib[k]


def test_substitution_depth_limit():
    with pytest.raises(ValueError):
        substitution_word(0)
    with pytest.raises(ValueError):
        substitution_word(31)


def test_circle_word_matches_substitution_oracle():
    # coding 1{frac(n alpha) in [1-alpha, 1)} for n = 1, 2, ... reproduces
    # the substitution fixed point
    word = substitution_word(16)
    p = ModelParams(1.0, n_sites=len(word))
    circle = "".join("1" if v else "0" for v in potential_vector(1, p) > 0)
    assert circle == word


def test_factor_complexity_is_sturmian():
    # a Sturmian word has exactly m+1 distinct factors of each length m
    p = ModelParams(1.0, n_sites=5000)
    word = "".join("1" if v else "0" for v in potential_vector(1, p) > 0)
    for m in range(1, 13):
        factors = {word[i:i + m] for i in range(len(word) - m + 1)}
        assert len(factors) == m + 1


def test_arbitrary_rotation_number_still_sturmian():
    # the module accepts any irrational rotation number; the coding stays
    # Sturmian (silver-ratio conjugate here)
    p = ModelParams(1.0, alpha=np.sqrt(2.0) - 1.0, n_sites=3000)
    word = "".join("1" if v else "0" for v in potential_vector(1, p) > 0)
    for m in range(1, 9):
        factors = {word[i:i + m] for i in range(len(word) - m + 1)}
        assert len(factors) == m + 1


def test_large_site_classification_matches_exact_arithmetic():
    # double rounding in n*alpha stays far from the indicator edge for
    # |n| up to 1e6; classification agrees with 50-digit evaluation
    from decimal import Decimal, localcontext

    p = ModelParams(1.0, omega=0.123, n_sites=1)
    with localcontext() as ctx:
        ctx.prec = 50
        edge = Decimal(1) - Decimal(p.alpha)
        for n in (-10**6, -54321, 99991, 10**6):
            t = Decimal(n) * Decimal(p.alpha) + Decimal(p.omega)
            t -= Decimal(int(t.to_integral_value(rounding="ROUND_FLOOR")))
            want = 1.0 if t >= edge else 0.0
            assert potential_value(n, p) == want


def test_edge_window_recomputation_is_stable():
    # sites whose circle point lands near the indicator edge still classify
    # deterministically; n = F_k brings n*alpha closest to the edge
    p = ModelParams(1.0, n_sites=1)
    for n in (987, 1597, 2584, 4181, 6765, 10946):
        v1 = potential_value(n, p)
        v2 = potential_vector(n, p)[0]
        assert v1 == v2
    assert GOLDEN_CONJUGATE == pytest.approx((np.sqrt(5) - 1) / 2, abs=0)


@pytest.mark.parametrize("start", [0, -5000, 10**9, 10**11, 3 * 10**13, 10**15])
def test_letters_equal_the_exact_indicator_at_large_offsets(start):
    # the float fraction of n*alpha rounds by up to about n * 1.1e-16, so at
    # large offsets some sites lie on the wrong side of the edge or the wrap
    p = ModelParams(1.0, omega=0.123456789, n_sites=20000)
    want = [_indicator(start + i, p.alpha, p.omega) for i in range(p.n_sites)]
    assert site_letters(start, p).tolist() == want


def test_site_near_the_wrap_point_at_offset_1e11():
    # its float fraction rounds to 0.0 (letter 0); the exact one is 0.99999934
    p = ModelParams(1.0, omega=0.123456789, n_sites=20000)
    assert _frac_exact(100_000_016_507, p.alpha, p.omega) > 0.9999993
    assert site_letters(10**11, p)[16507]


def test_sites_from_2_to_53_are_a_parameter_error():
    p = ModelParams(1.0, omega=0.31, n_sites=10)
    for start in (2**53 - 10, -(2**53) + 10, 2**53):
        with pytest.raises(ParameterError):
            site_letters(start, p)
    start = 2**53 - 11  # the last box of 10 sites below the bound
    want = [_indicator(start + i, p.alpha, p.omega) for i in range(10)]
    assert site_letters(start, p).tolist() == want
