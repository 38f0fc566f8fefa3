import math
import sys
import warnings
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import special

from opcov.kernels import (
    KernelError,
    KernelModel,
    eval_kernel,
    half_width,
    matern_kernel,
    parse_kernel,
    se_kernel,
)

# Matern nu=3/2 half-width, frozen from an independent fine-grid scan of
# (1 + sqrt(3) s) exp(-sqrt(3) s) = 1/2 before the build.
MATERN32_HALF_WIDTH = 0.96899409


def bessel_matern(r, lam, nu):
    """Independent Matern oracle straight from the Bessel-K_nu formula."""
    z = np.sqrt(2.0 * nu) / lam * np.asarray(r, dtype=float)
    return (2.0 ** (1.0 - nu) / special.gamma(nu)) * z**nu * special.kv(nu, z)


def test_se_values():
    k = se_kernel(1.0)
    assert eval_kernel(k, 0.0) == 1.0
    assert eval_kernel(k, 1.0) == pytest.approx(math.exp(-0.5), rel=1e-15)
    assert eval_kernel(se_kernel(0.25), 0.0) == 1.0


def test_matern_normalization_at_zero():
    for nu in (0.5, 1.5, 2.5):
        assert eval_kernel(matern_kernel(0.3, nu), 0.0) == 1.0


def test_matern_32_spec_value():
    got = eval_kernel(matern_kernel(1.0, 1.5), 1.0)
    assert got == pytest.approx((1 + math.sqrt(3)) * math.exp(-math.sqrt(3)), rel=1e-14)


@pytest.mark.parametrize("nu", [0.5, 1.5, 2.5])
def test_half_integer_closed_forms_vs_bessel_oracle(nu):
    # 10-point verification against the independent Bessel series oracle.
    r = np.linspace(0.05, 3.0, 10)
    lam = 0.7
    got = eval_kernel(matern_kernel(lam, nu), r)
    want = bessel_matern(r, lam, nu)
    assert np.max(np.abs(got - want) / want) < 1e-12


def test_eval_vectorized_matches_scalar():
    k = matern_kernel(0.2, 1.5)
    r = np.array([0.0, 0.1, 0.5, 2.0])
    arr = eval_kernel(k, r)
    assert arr.shape == r.shape
    for i, ri in enumerate(r):
        assert arr[i] == eval_kernel(k, float(ri))


def test_eval_input_validation():
    k = se_kernel(1.0)
    with pytest.raises(KernelError):
        eval_kernel(k, -0.1)
    with pytest.raises(KernelError):
        eval_kernel(k, math.nan)
    with pytest.raises(KernelError):
        eval_kernel(k, math.inf)


def test_model_validation():
    with pytest.raises(KernelError):
        KernelModel("se", -1.0)
    with pytest.raises(KernelError):
        KernelModel("se", 0.0)
    with pytest.raises(KernelError):
        KernelModel("matern", 1.0, None)
    with pytest.raises(KernelError):
        KernelModel("matern", 1.0, -0.5)
    with pytest.raises(KernelError):
        KernelModel("exp", 1.0)
    # Matern exists at its three closed forms only
    for nu in (0.7, 3.7, 100.0, sys.float_info.min, 5e-324, math.nan):
        with pytest.raises(KernelError, match=r"0\.5, 1\.5 or 2\.5"):
            KernelModel("matern", 1.0, nu)


def exact_kernel(family, lam, r):
    """The kernel in 50-digit decimal arithmetic, from the closed forms."""
    with localcontext() as ctx:
        ctx.prec = 50
        t = Decimal(r) / Decimal(lam)
        if family == "se":
            return (-t * t / 2).exp()
        two_nu = {"matern12": 1, "matern32": 3, "matern52": 5}[family]
        z = Decimal(two_nu).sqrt() * t
        poly = {1: Decimal(1), 3: 1 + z, 5: 1 + z + z * z / 3}[two_nu]
        return poly * (-z).exp()


@settings(max_examples=60, deadline=None)
@given(
    lam=st.floats(0.01, 10.0),
    r1=st.floats(0.0, 5.0),
    r2=st.floats(0.0, 5.0),
    family=st.sampled_from(["se", "matern12", "matern32", "matern52"]),
)
@example(lam=1.0, r1=4.7e-245, r2=0.0, family="se")  # equal in float64
@example(lam=1.0, r1=1e-3, r2=0.0, family="se")  # resolvable: 1 - 5e-7
def test_strict_monotonicity(lam, r1, r2, family):
    """Non-increasing for every pair; strictly decreasing where float64 resolves it.

    Near r = 0 the SE kernel is exactly 1.0 in float64 for distinct r (the
    pinned example), so strictness is required only where the exact values
    differ by more than 1e-11 relative, far above the evaluation error, and
    both float64 values are normal numbers.
    """
    if r1 == r2:
        return
    lo, hi = min(r1, r2), max(r1, r2)
    kernel = {
        "se": se_kernel(lam),
        "matern12": matern_kernel(lam, 0.5),
        "matern32": matern_kernel(lam, 1.5),
        "matern52": matern_kernel(lam, 2.5),
    }[family]
    k_lo, k_hi = eval_kernel(kernel, lo), eval_kernel(kernel, hi)
    assert k_lo >= k_hi
    exact_lo = exact_kernel(family, lam, lo)
    resolvable = exact_lo - exact_kernel(family, lam, hi) > Decimal("1e-11") * exact_lo
    if resolvable and k_hi >= sys.float_info.min:
        assert k_lo > k_hi


@settings(max_examples=80, deadline=None)
@given(
    lam=st.floats(0.05, 5.0),
    alpha=st.floats(0.1, 10.0),
    r=st.floats(0.0, 4.0),
    family=st.sampled_from(["se", "matern32", "matern12"]),
)
def test_rescale_identity(lam, alpha, r, family):
    kernel = se_kernel(lam) if family == "se" else matern_kernel(
        lam, 1.5 if family == "matern32" else 0.5
    )
    rescaled = KernelModel(kernel.family, kernel.lam / alpha, kernel.nu)
    assert abs(eval_kernel(kernel, alpha * r) - eval_kernel(rescaled, r)) <= 1e-12


def test_rescale_identity_examples():
    # k_lam(alpha r) = k_{lam/alpha}(r)
    for kernel, alpha, r in ((se_kernel(0.5), 2.0, 0.3), (matern_kernel(1.0, 1.5), 3.0, 0.1)):
        rescaled = KernelModel(kernel.family, kernel.lam / alpha, kernel.nu)
        assert abs(eval_kernel(kernel, alpha * r) - eval_kernel(rescaled, r)) <= 1e-12
    assert eval_kernel(se_kernel(1.0), 1.0 * 0.0) == eval_kernel(se_kernel(1.0 / 1.0), 0.0)


def test_half_width_se():
    assert half_width(se_kernel(0.37)) == pytest.approx(math.sqrt(2 * math.log(2)), abs=1e-10)


def test_half_width_matern_exponential():
    assert half_width(matern_kernel(2.0, 0.5)) == pytest.approx(math.log(2), abs=1e-10)


def test_half_width_matern_32_frozen_value():
    assert half_width(matern_kernel(1.0, 1.5)) == pytest.approx(MATERN32_HALF_WIDTH, abs=1e-8)


def test_half_width_independent_of_lambda():
    a = half_width(matern_kernel(0.01, 1.5))
    b = half_width(matern_kernel(7.0, 1.5))
    assert a == pytest.approx(b, abs=1e-11)


def test_parse_kernel_round_trip():
    # a spec gives the unit-lengthscale model; commands step it to each lambda
    assert parse_kernel("se") == se_kernel(1.0)
    assert parse_kernel("matern:nu=1.5") == matern_kernel(1.0, 1.5)
    assert parse_kernel(" Matern : NU = 2.5 ") == matern_kernel(1.0, 2.5)


@pytest.mark.parametrize(
    "text, token",
    [
        ("gauss:lambda=1", "gauss"),
        ("se:lambda=abc", "lambda=abc"),
        ("se:scale=1", "scale=1"),
        ("matern:lambda=1", "nu"),
        ("se:lambda=1,nu=2", "nu"),
        # a spec carries no lengthscale: --lambdas sets every one
        ("matern:lambda=0.1,nu=1.5", "--lambdas"),
        ("se:nu=2", "nu"),
        ("matern", "missing 'nu'"),
        ("matern:nu=x", "nu=x"),
        ("matern:nu=3.7,nu=1.5", "nu=1.5"),  # a second nu does not override the first
        ("se:", "''"),
    ],
)
def test_parse_kernel_errors_name_offending_token(text, token):
    with pytest.raises(KernelError, match=token):
        parse_kernel(text)


def test_underflow_returns_zero():
    # deep tail of a tiny-lengthscale kernel underflows to exactly 0
    assert eval_kernel(se_kernel(1e-4), 1.0) == 0.0


@pytest.mark.parametrize("lam", [1e-200, sys.float_info.min])
def test_closed_forms_are_finite_at_tiny_lengthscales(lam):
    # z = sqrt(2 nu) r / lam passes 1.3e154 here, where nu = 5/2's z * z / 3
    # overflows; the true value there is 0
    r = [0.0, 1e-3, 0.5, math.sqrt(3.0)]
    for kernel in (se_kernel(lam), *(matern_kernel(lam, nu) for nu in (0.5, 1.5, 2.5))):
        assert eval_kernel(kernel, r).tolist() == [1.0, 0.0, 0.0, 0.0], kernel


@pytest.mark.parametrize("lam", [1e-200, sys.float_info.min, 5e-324])
def test_tiny_lengthscales_evaluate_without_warnings(lam):
    # t * t and z overflow only where the value is 0; at a subnormal
    # lengthscale sqrt(2 nu) / lam is inf, and k(0) stays 1 there
    r = [0.0, 1e-3, 0.5, math.sqrt(3.0), 40.0]
    kernels = (se_kernel(lam), *(matern_kernel(lam, nu) for nu in (0.5, 1.5, 2.5)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for kernel in kernels:
            assert eval_kernel(kernel, r).tolist() == [1.0, 0.0, 0.0, 0.0, 0.0], kernel
            assert eval_kernel(kernel, 0.0) == 1.0, kernel
