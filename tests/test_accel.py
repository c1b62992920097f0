import itertools
import math

import numpy as np
import pytest

from ustatlab._accel import (
    KERNEL_PRODUCT,
    KERNEL_VARIANCE,
    max_abs_kernel,
    prefix_sums,
    product_shared_pair_total,
    q_raw,
    ustat_sum,
)

from _oracles import brute_q


def _samples(seed, n):
    rng = np.random.default_rng(seed)
    return [rng.normal(0, 1, n), rng.normal(1e2, 1, n)]


def test_esp_matches_oracle():
    # closed-form product kernel: the ESP recurrence, every order
    for x in _samples(47, 12):
        for m in range(1, 8):
            oracle = math.fsum(math.prod(c) for c in itertools.combinations(x, m))
            assert ustat_sum(KERNEL_PRODUCT, math.inf, x, m) == pytest.approx(
                oracle, rel=1e-10, abs=1e-12)
            pre = prefix_sums(KERNEL_PRODUCT, math.inf, x, m)
            assert pre.shape == (13,)
            for k in (0, m - 1, m, 7, 12):
                want = math.fsum(math.prod(c) for c in itertools.combinations(x[:k], m))
                assert pre[k] == pytest.approx(want, rel=1e-10, abs=1e-12)


def test_product_q_raw_downdate():
    for x in [np.random.default_rng(53).normal(1, 1, 15)] + _samples(54, 15):
        for m in range(1, 8):
            want = np.array(brute_q(lambda *xs: math.prod(xs), list(x), m)) \
                * math.comb(len(x) - 1, m - 1)
            assert q_raw(KERNEL_PRODUCT, math.inf, x, m) == pytest.approx(
                want, rel=1e-10)


def test_shared_pair_total():
    rng = np.random.default_rng(59)
    x = rng.normal(0, 1, 9)
    from _oracles import brute_ordered_sum

    want = brute_ordered_sum(lambda a, b, c, e: (a * b * c) * (a * b * e),
                             list(x), 4)
    assert product_shared_pair_total(x) == pytest.approx(want, rel=1e-10)


def test_max_abs_kernel():
    x = np.array([-3.0, 0.5, 2.0, -1.0])
    assert max_abs_kernel(KERNEL_PRODUCT, x, 2) == pytest.approx(6.0)
    assert max_abs_kernel(KERNEL_VARIANCE, x, 2) == pytest.approx(12.5)
    assert max_abs_kernel(KERNEL_PRODUCT, x, 1) == pytest.approx(3.0)
