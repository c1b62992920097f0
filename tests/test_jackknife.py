import math

import numpy as np
import pytest

from ustatlab import (
    DegenerateNormalizerError,
    InsufficientDataError,
    constant_kernel,
    example_density,
    identity_kernel,
    jackknife_closed_form,
    leave_one_out,
    make_kernel,
    normal,
    product_kernel,
    sample,
    studentized_path,
    u_statistic,
    variance_kernel,
)
from ustatlab import _accel
from ustatlab.jackknife import _jackknife

from _oracles import (
    brute_jackknife_sum_sq,
    brute_leave_one_out,
    brute_q,
    exact_jackknife_sum_sq,
)

FNS = {
    "identity": (identity_kernel(), lambda x: x),
    "product2": (product_kernel(2), lambda x, y: x * y),
    "product3": (product_kernel(3), lambda x, y, z: x * y * z),
    "variance": (variance_kernel(), lambda x, y: 0.5 * (x - y) ** 2),
}


def test_leave_one_out_examples():
    assert leave_one_out(product_kernel(2), [1, 2, 3]) == pytest.approx([6, 3, 2])
    assert leave_one_out(identity_kernel(), [1, 2, 3]) == pytest.approx([2.5, 2, 1.5])
    assert leave_one_out(constant_kernel(4.0, m=2), [0, 1, 2]) == pytest.approx([4, 4, 4])
    with pytest.raises(InsufficientDataError):
        leave_one_out(product_kernel(2), [1, 2])


def test_worked_example_exact():
    # product kernel, data (1,2,3): q = (2.5, 4, 4.5), U = 11/3, sum_sq = 52/3
    s = jackknife_closed_form(product_kernel(2), [1.0, 2.0, 3.0])
    assert s.u_n == pytest.approx(11 / 3, abs=1e-14)
    assert s.q == pytest.approx([2.5, 4.0, 4.5], abs=1e-14)
    assert s.sum_sq == pytest.approx(52 / 3, abs=1e-12)
    assert s.leave_one_out == pytest.approx([6, 3, 2], abs=1e-12)
    naive = brute_jackknife_sum_sq(lambda x, y: x * y, [1.0, 2.0, 3.0], 2)
    assert naive == pytest.approx(52 / 3, abs=1e-12)
    assert s.variance_estimator == pytest.approx(52 / 12, abs=1e-12)


def test_constant_kernel_sum_sq_zero():
    s = jackknife_closed_form(constant_kernel(3.0, m=2), [1.0, 5.0, 9.0, 2.0])
    assert s.sum_sq == pytest.approx(0.0, abs=1e-12)
    assert s.variance_estimator == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("c", [0.1, 1 / 3, -0.7])
@pytest.mark.parametrize("n", [5, 50, 400])
def test_constant_kernel_scale_is_exactly_zero(c, n):
    # c C(n-1, m-1) / C(n-1, m-1) and the rounded U_n need not agree, so a
    # sum of squares of q_i - U_n read noise; equal q_i give exactly 0, and
    # the Studentized path refuses the degenerate scale
    x = np.random.default_rng(n).normal(0, 1, n)
    for m in (1, 2, 3):
        kernel = constant_kernel(c, m)
        s = jackknife_closed_form(kernel, x)
        assert np.all(s.q == s.q[0])
        assert s.sum_sq == 0.0
        assert _jackknife(kernel, x, keep_q=False) == (None, s.u_n, 0.0)
        with pytest.raises(DegenerateNormalizerError):
            studentized_path(kernel, x, c)


def test_identity_m1_example():
    s = jackknife_closed_form(identity_kernel(), [0.0, 2.0])
    assert s.u_n == 1.0
    assert s.leave_one_out == pytest.approx([2.0, 0.0])
    assert s.sum_sq == pytest.approx(2.0)
    # m=1 specialization: arvesen == textbook unbiased sample variance
    rng = np.random.default_rng(11)
    x = rng.normal(3, 2, 25)
    s = jackknife_closed_form(identity_kernel(), x)
    assert s.variance_estimator == pytest.approx(np.var(x, ddof=1), rel=1e-12)


@pytest.mark.parametrize("name", sorted(FNS))
def test_identity_naive_vs_closed_form(name):
    kernel, fn = FNS[name]
    rng = np.random.default_rng(17)
    for trial in range(10):
        n = int(rng.integers(kernel.order + 1, 26))
        data = rng.normal(0, 2, n) if trial % 2 else \
            sample(example_density(2.0), n, 1000 + trial)
        s = jackknife_closed_form(kernel, data)
        # the Studentized scale's jackknife centers q in place: same bits
        assert _jackknife(kernel, data, keep_q=False) == (None, s.u_n, s.sum_sq)
        naive_loo = brute_leave_one_out(fn, list(data), kernel.order)
        assert s.leave_one_out == pytest.approx(naive_loo, rel=1e-9, abs=1e-9)
        naive = brute_jackknife_sum_sq(fn, list(data), kernel.order)
        assert s.sum_sq == pytest.approx(naive, rel=1e-9, abs=1e-12)
        assert s.q == pytest.approx(
            brute_q(fn, list(data), kernel.order), rel=1e-10, abs=1e-12)


def test_counting_identity():
    # C(n-1,m-1) * sum q_i = m * C(n,m) * U_n
    rng = np.random.default_rng(23)
    for kernel, _ in FNS.values():
        n = 14
        data = rng.normal(1, 1, n)
        s = jackknife_closed_form(kernel, data)
        m = kernel.order
        lhs = math.comb(n - 1, m - 1) * float(np.sum(s.q))
        rhs = m * math.comb(n, m) * s.u_n
        assert lhs == pytest.approx(rhs, rel=1e-10)


def test_translation_invariance():
    # shifting the kernel by a constant leaves the sum of squares unchanged
    rng = np.random.default_rng(29)
    data = rng.normal(0, 1, 12)
    base = product_kernel(2)
    shifted = make_kernel("product+c", 2, lambda x, y: x * y + 17.5)
    s0 = jackknife_closed_form(base, data)
    s1 = jackknife_closed_form(shifted, data)
    assert s0.sum_sq == pytest.approx(s1.sum_sq, rel=1e-9)


@pytest.mark.parametrize("mu", [0.0, 1e2, 1e4, 1e6, 1e8])
def test_sum_sq_is_shift_stable(mu):
    # the rational oracle re-enumerates every U^i, so it shares no step
    # with the q identity, and it is exact at any location; both kernels
    # take their closed forms, and the variance kernel is shift-invariant
    for name in ("identity", "variance"):
        kernel, fn = FNS[name]
        rng = np.random.default_rng(37)
        for n in (3, 12, 40):
            data = rng.normal(mu, 1.0, n)
            assert _accel._keeps_all(kernel.accel_code, kernel.accel_thr, data, kernel.order)
            exact = exact_jackknife_sum_sq(fn, data.tolist(), kernel.order)
            s = jackknife_closed_form(kernel, data)
            assert s.sum_sq == pytest.approx(float(exact), rel=1e-12), (name, n)


def test_fast_product_path_matches_generic_q():
    rng = np.random.default_rng(31)
    for m in (1, 2, 3, 4):
        data = rng.normal(0.5, 1.5, 30)
        fast = jackknife_closed_form(product_kernel(m), data)
        fns = {1: lambda x: x, 2: lambda x, y: x * y,
               3: lambda x, y, z: x * y * z, 4: lambda a, b, c, d: a * b * c * d}
        assert fast.q == pytest.approx(brute_q(fns[m], list(data), m), rel=1e-9)


@pytest.mark.parametrize("m,n", [(2, 15_000), (4, 300)])
def test_product_closed_form_exempt_from_enumeration_cap(m, n):
    # C(n, m) exceeds MAX_ENUMERATION, but the ESP route never enumerates
    data = sample(normal(1, 1), n, 8)
    s = jackknife_closed_form(product_kernel(m), data)
    assert s.u_n == pytest.approx(u_statistic(product_kernel(m), data), rel=1e-10)


def test_u_n_finite_where_the_sum_of_q_overflows():
    # sum_i q_i counts each combination m times: here it is 2.92e308, past
    # the float range, while U_n = 4.8667e307 is not.  The sum of squares
    # stays inf, because its exact value is past the float range too.
    data = [8e153, 7e153, 6e153]
    s = jackknife_closed_form(product_kernel(2), data)
    u = u_statistic(product_kernel(2), data)
    assert math.isfinite(u)
    assert abs(s.u_n - u) <= math.ulp(u)
    assert s.sum_sq == math.inf


def test_heavy_tail_fast_path_consistency():
    data = sample(example_density(2.0), 60, 5)
    s = jackknife_closed_form(product_kernel(2), data)
    naive = brute_jackknife_sum_sq(lambda x, y: x * y, list(data), 2)
    assert s.sum_sq == pytest.approx(naive, rel=1e-9)


def test_normal_large_n_smoke():
    data = sample(normal(1, 1), 500, 3)
    s = jackknife_closed_form(product_kernel(2), data)
    assert s.variance_estimator == pytest.approx(1.0, abs=0.5)
