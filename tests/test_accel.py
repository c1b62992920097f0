import math

import numpy as np
import pytest

from ustatlab._accel import (
    KERNEL_PRODUCT,
    KERNEL_VARIANCE,
    esp,
    esp_prefix,
    max_abs_kernel,
    product_q_raw,
    product_shared_pair_total,
)

from _oracles import brute_q


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
    assert product_shared_pair_total(x) == pytest.approx(want, rel=1e-10)


def test_max_abs_kernel():
    x = np.array([-3.0, 0.5, 2.0, -1.0])
    assert max_abs_kernel(KERNEL_PRODUCT, x, 2) == pytest.approx(6.0)
    assert max_abs_kernel(KERNEL_VARIANCE, x, 2) == pytest.approx(12.5)
    assert max_abs_kernel(KERNEL_PRODUCT, x, 1) == pytest.approx(3.0)
