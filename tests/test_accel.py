import math

import numpy as np
import pytest

from ustatlab._accel import (
    KERNEL_IDENTITY,
    KERNEL_PRODUCT,
    KERNEL_VARIANCE,
    esp,
    esp_prefix,
    max_abs_kernel,
    prefix_sums,
    product_q_raw,
    q_raw,
    shared_pair_total,
    ustat_sum,
)

from _oracles import brute_combination_sum, brute_q

CASES = [
    (KERNEL_IDENTITY, 1, lambda x: x),
    (KERNEL_PRODUCT, 2, lambda x, y: x * y),
    (KERNEL_PRODUCT, 3, lambda x, y, z: x * y * z),
    (KERNEL_VARIANCE, 2, lambda x, y: 0.5 * (x - y) ** 2),
]


def _trunc(fn, thr):
    def wrapped(*xs):
        v = fn(*xs)
        return v if abs(v) <= thr else 0.0

    return wrapped


@pytest.mark.parametrize("code,m,fn", CASES, ids=lambda c: str(c))
@pytest.mark.parametrize("thr", [math.inf, 1.2])
def test_numpy_backend_against_oracle(code, m, fn, thr):
    rng = np.random.default_rng(41)
    x = rng.normal(0, 1.5, 17)
    fx = _trunc(fn, thr)
    assert ustat_sum(code, thr, x, m) == pytest.approx(
        brute_combination_sum(fx, list(x), m), rel=1e-11, abs=1e-11)
    want_q = np.array(brute_q(fx, list(x), m)) * math.comb(len(x) - 1, m - 1)
    assert q_raw(code, thr, x, m) == pytest.approx(want_q, rel=1e-10, abs=1e-10)
    pre = prefix_sums(code, thr, x, m)
    for k in (m, m + 3, len(x)):
        assert pre[k] == pytest.approx(
            brute_combination_sum(fx, list(x[:k]), m), rel=1e-10, abs=1e-10)


def test_esp_matches_oracle():
    rng = np.random.default_rng(47)
    x = rng.normal(0, 1, 12)
    import itertools

    for m in range(1, 6):
        oracle = math.fsum(math.prod(c) for c in itertools.combinations(x, m))
        assert esp(x, m) == pytest.approx(oracle, rel=1e-10, abs=1e-12)
        pre = esp_prefix(x, m)
        assert pre[7] == pytest.approx(
            math.fsum(math.prod(c) for c in itertools.combinations(x[:7], m)),
            rel=1e-10, abs=1e-12)


def test_product_q_raw_downdate():
    rng = np.random.default_rng(53)
    x = rng.normal(1, 1, 15)
    for m in (1, 2, 3, 4, 6):
        want = np.array(brute_q(lambda *xs: math.prod(xs), list(x), m)) \
            * math.comb(len(x) - 1, m - 1)
        assert product_q_raw(x, m) == pytest.approx(want, rel=1e-10)


def test_shared_pair_total():
    rng = np.random.default_rng(59)
    x = rng.normal(0, 1, 9)
    from _oracles import brute_ordered_sum

    want = brute_ordered_sum(lambda a, b, c, e: (a * b * c) * (a * b * e),
                             list(x), 4)
    assert shared_pair_total(KERNEL_PRODUCT, math.inf, x) == pytest.approx(want, rel=1e-10)
    thr = 1.0
    tfn = _trunc(lambda a, b, c: a * b * c, thr)
    want_t = brute_ordered_sum(lambda a, b, c, e: tfn(a, b, c) * tfn(a, b, e),
                               list(x), 4)
    assert shared_pair_total(KERNEL_PRODUCT, thr, x) == pytest.approx(want_t, rel=1e-10)


def test_max_abs_kernel():
    x = np.array([-3.0, 0.5, 2.0, -1.0])
    assert max_abs_kernel(KERNEL_PRODUCT, x, 2) == pytest.approx(6.0)
    assert max_abs_kernel(KERNEL_VARIANCE, x, 2) == pytest.approx(12.5)
    assert max_abs_kernel(KERNEL_IDENTITY, x, 1) == pytest.approx(3.0)
