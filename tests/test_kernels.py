import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ustatlab import (
    DomainError,
    InvalidArgumentError,
    TruncationMode,
    TruncationRule,
    UnsupportedOperationError,
    constant_kernel,
    eval_kernel,
    example_density,
    finite,
    identity_kernel,
    kernel_from_name,
    normal,
    product_kernel,
    project_h1,
    theta_under,
    truncate_kernel,
    variance_kernel,
)
from ustatlab import _accel
from ustatlab.kernels import eval_kernel_rows

from _oracles import finite_expectation

finite_floats = st.floats(min_value=-50, max_value=50, allow_nan=False)

BUILTINS = [identity_kernel(), product_kernel(2), product_kernel(3), variance_kernel()]


def test_eval_examples():
    assert eval_kernel(product_kernel(3), [1, 2, 3]) == 6
    assert eval_kernel(variance_kernel(), [0, 2]) == 2
    assert eval_kernel(product_kernel(2), [3, 5]) == 15
    assert eval_kernel(product_kernel(2), [5, 3]) == 15


def test_eval_errors():
    with pytest.raises(InvalidArgumentError):
        eval_kernel(product_kernel(2), [1, 2, 3])
    with pytest.raises(DomainError):
        eval_kernel(product_kernel(2), [1, math.inf])
    with pytest.raises(DomainError):
        eval_kernel(identity_kernel(), [math.nan])


@pytest.mark.parametrize("kernel", BUILTINS, ids=lambda k: k.name)
def test_permutation_symmetry(kernel):
    rng = np.random.default_rng(1234)
    for _ in range(1000):
        pts = rng.normal(0, 3, kernel.order)
        base = eval_kernel(kernel, pts)
        perm = rng.permutation(pts)
        assert eval_kernel(kernel, perm) == base


def test_projection_product_example_value():
    # product kernel, a=2, m=2, x=3: h1(3) = 3*2 - 4 = 2
    k = kernel_from_name("product:m=2,a=2")
    assert project_h1(k, 3.0, example_density(2.0)) == pytest.approx(2.0, abs=1e-12)


def test_projection_m1_is_centered_kernel():
    k = identity_kernel()
    d = normal(1.5, 2.0)
    for x in (-1.0, 0.0, 3.25):
        assert project_h1(k, x, d) == pytest.approx(x - 1.5, abs=1e-12)


def test_projection_variance_normal_mc_oracle():
    # analytic h1(x) = (x^2 - 1)/2 under a standard normal; the Monte Carlo
    # estimate with 1e6 draws must agree within 3 standard errors
    k = variance_kernel()
    d = normal(0.0, 1.0)
    for x in (0.5, 2.0):
        analytic = (x ** 2 - 1) / 2
        assert project_h1(k, x, d) == pytest.approx(analytic, abs=1e-12)
        bare = replace(variance_kernel(), projection=None)  # force the MC route
        est, se = project_h1(bare, x, d, mc_budget=10 ** 6, seed=9, with_se=True)
        assert se > 0
        assert abs(est - analytic) <= 3 * se


def test_projection_finite_enumeration_matches_analytic():
    d = finite([-1.0, 0.5, 2.0], [0.2, 0.3, 0.5])
    k = product_kernel(2)
    bare = replace(product_kernel(2), projection=None)
    for x in (-1.0, 0.5, 2.0):
        exact = project_h1(bare, x, d)
        analytic = project_h1(k, x, d)
        assert exact == pytest.approx(analytic, abs=1e-12)
        oracle = finite_expectation(lambda y: x * y, d.points, d.probs, 1) \
            - finite_expectation(lambda a, b: a * b, d.points, d.probs, 2)
        assert exact == pytest.approx(oracle, abs=1e-12)


def test_projection_requires_budget():
    bare = replace(product_kernel(2), projection=None)
    with pytest.raises(UnsupportedOperationError):
        project_h1(bare, 1.0, normal(0, 1))
    with pytest.raises(InvalidArgumentError):
        project_h1(bare, 1.0, normal(0, 1), mc_budget=0)


def test_truncation_full_m_example():
    # n=16, m=2: threshold 16^(6/5) ~ 27.86 checked against the direct power
    rule = TruncationRule(TruncationMode.FULL_M, n=16)
    k = truncate_kernel(product_kernel(2), rule)
    assert rule.threshold(2) == pytest.approx(16.0 ** 1.2, rel=1e-15)
    assert eval_kernel(k, [5, 5]) == 25
    assert eval_kernel(k, [6, 5]) == 0


def test_truncation_identity_when_bounded():
    rule = TruncationRule(TruncationMode.FULL_M, n=100)
    k = truncate_kernel(constant_kernel(0.5, m=2), rule)
    assert eval_kernel(k, [7, 9]) == 0.5


def test_truncation_log_rule():
    rule = TruncationRule(TruncationMode.LOG, n=2)
    assert rule.threshold(2) == pytest.approx(math.log(2))
    k = truncate_kernel(constant_kernel(1.0, m=2), rule)
    assert eval_kernel(k, [0, 0]) == 0.0
    with pytest.raises(InvalidArgumentError):
        TruncationRule(TruncationMode.LOG, n=1).threshold(2)


def test_truncation_level_j_bounds():
    rule = TruncationRule(TruncationMode.LEVEL_J, n=10, j=1)
    assert rule.threshold(3) == pytest.approx(10 ** 0.6)
    with pytest.raises(InvalidArgumentError):
        TruncationRule(TruncationMode.LEVEL_J, n=10, j=3).threshold(3)
    with pytest.raises(InvalidArgumentError):
        TruncationRule(TruncationMode.LEVEL_J, n=10).threshold(2)


@given(st.lists(finite_floats, min_size=2, max_size=2),
       st.floats(min_value=0.5, max_value=30),
       st.floats(min_value=0.5, max_value=30))
def test_truncation_idempotent_and_monotone(pts, c1, c2):
    k = product_kernel(2)
    lo, hi = sorted((c1, c2))
    rule_lo = TruncationRule(TruncationMode.PROJECTION_ELL, n=1, ell_of_n=lo)
    rule_hi = TruncationRule(TruncationMode.PROJECTION_ELL, n=1, ell_of_n=hi)
    # arbitrary-threshold |h| <= c gating for the property check
    k_lo = _abs_truncate(k, lo)
    k_hi = _abs_truncate(k, hi)
    v = eval_kernel(k, pts)
    v_lo, v_hi = eval_kernel(k_lo, pts), eval_kernel(k_hi, pts)
    assert abs(v_lo) <= abs(v_hi) <= abs(v)
    again = eval_kernel(_abs_truncate(k_lo, lo), pts)
    assert again == v_lo
    del rule_lo, rule_hi


def _abs_truncate(kernel, c):
    inner = kernel.eval_fn

    def eval_fn(*xs):
        v = inner(*xs)
        return v if abs(v) <= c else 0.0

    from ustatlab import make_kernel

    return make_kernel(f"{kernel.name}|abs@{c}", kernel.order, eval_fn)


def test_truncation_projection_ell():
    k = product_kernel(2)
    rule = TruncationRule(TruncationMode.PROJECTION_ELL, n=4, ell_of_n=1.0)
    with pytest.raises(UnsupportedOperationError):
        truncate_kernel(k, rule)
    kt = truncate_kernel(k, rule, h1m=lambda x: x)  # gate: |x1| <= 2
    assert eval_kernel(kt, [1.5, 10.0]) == 15.0
    assert eval_kernel(kt, [2.5, 1.0]) == 0.0


def test_registry_names():
    assert kernel_from_name("identity").order == 1
    k = kernel_from_name("product:m=3,a=2")
    assert k.order == 3 and k.theta == 8.0
    assert kernel_from_name("variance").order == 2
    assert kernel_from_name("constant:c=2,m=2").eval_fn(1, 1) == 2.0
    for bad in ("nope", "product:m=x", "product:q=1", "variance:m=2,"):
        with pytest.raises(InvalidArgumentError):
            kernel_from_name(bad)


def test_theta_under_matches_finite_enumeration():
    d = finite([-1.0, 2.0], [0.25, 0.75])
    cases = [
        (identity_kernel(), None),
        (product_kernel(2), lambda a, b: a * b),
        (variance_kernel(), lambda a, b: 0.5 * (a - b) ** 2),
    ]
    for kernel, fn in cases:
        theta = theta_under(kernel, d)
        if fn is None:
            oracle = finite_expectation(lambda x: x, d.points, d.probs, 1)
        else:
            oracle = finite_expectation(fn, d.points, d.probs, 2)
        assert theta == pytest.approx(oracle, abs=1e-12)


def test_variance_kernel_rounds_alike_on_every_path():
    # (x - y)^2 by one multiplication everywhere: for d = -1.5e10 - 1e7,
    # libm pow gives 0.5 * d**2 = 1.1265005000000001e20, one ulp above
    # 0.5 * (d * d), which the batch, the bound and the sort route compute
    x = [-0.0, -1.5e10, 1e7]
    kernel = variance_kernel()
    pairs = [(x[i], x[j]) for i in range(3) for j in range(i + 1, 3)]
    scalar = [eval_kernel(kernel, p) for p in pairs]
    batch = eval_kernel_rows(kernel, np.array(pairs)).tolist()
    assert scalar == batch
    assert max(scalar) == _accel.max_abs_kernel(_accel.KERNEL_VARIANCE, np.array(x), 2)
    assert max(scalar) == 1.1265005e20
