import math

import numpy as np
import pytest

from ustatlab import (
    InsufficientDataError,
    ResourceLimitError,
    TruncationMode,
    TruncationRule,
    identity_kernel,
    make_kernel,
    ordered_distinct_sum,
    product_kernel,
    truncate_kernel,
    u_prefix_process,
    u_statistic,
    variance_kernel,
)
from ustatlab.engine import (
    ROUTE_BUILTIN,
    ROUTE_ENUMERATION,
    ROUTE_ESP,
    kernel_route,
)

from _oracles import brute_ordered_sum, brute_prefix, brute_u_stat

KERNELS = {
    "identity": (identity_kernel(), lambda x: x),
    "product2": (product_kernel(2), lambda x, y: x * y),
    "product3": (product_kernel(3), lambda x, y, z: x * y * z),
    "variance": (variance_kernel(), lambda x, y: 0.5 * (x - y) ** 2),
}


def test_u_statistic_examples():
    assert u_statistic(identity_kernel(), [1, 2, 3]) == pytest.approx(2.0)
    assert u_statistic(variance_kernel(), [0, 2]) == pytest.approx(2.0)
    assert u_statistic(product_kernel(2), [1, 2, 3]) == pytest.approx(11 / 3)


def test_u_statistic_insufficient_data():
    with pytest.raises(InsufficientDataError):
        u_statistic(product_kernel(3), [1, 2])


def test_prefix_examples():
    pre = u_prefix_process(product_kernel(2), [1, 2, 3])
    assert pre.u_at(2) == pytest.approx(2.0)
    assert pre.u_at(3) == pytest.approx(11 / 3)
    single = u_prefix_process(product_kernel(3), [2, 3, 4])
    assert single.final == pytest.approx(24.0)
    means = u_prefix_process(identity_kernel(), [5, 1])
    assert means.u_at(1) == 5.0
    assert means.u_at(2) == 3.0


@pytest.mark.parametrize("name", sorted(KERNELS))
def test_prefix_matches_direct_enumeration(name):
    kernel, fn = KERNELS[name]
    rng = np.random.default_rng(7)
    for trial in range(8):
        n = int(rng.integers(kernel.order, 21))
        data = rng.normal(0, 2, n)
        pre = u_prefix_process(kernel, data)
        oracle = brute_prefix(fn, list(data), kernel.order)
        for k, want in oracle.items():
            assert pre.u_at(k) == pytest.approx(want, rel=1e-10, abs=1e-12)
        assert pre.final == pytest.approx(
            u_statistic(kernel, data), rel=1e-10, abs=1e-12)


def test_fast_product_examples():
    assert u_statistic(product_kernel(2), [1, 2, 3]) == pytest.approx(11 / 3)
    assert u_statistic(product_kernel(3), [1, 1, 1, 1]) == pytest.approx(1.0)


def test_fast_product_matches_enumeration_200_instances():
    rng = np.random.default_rng(99)
    fns = {2: lambda x, y: x * y, 3: lambda x, y, z: x * y * z,
           4: lambda a, b, c, d: a * b * c * d, 1: lambda x: x}
    for _ in range(200):
        m = int(rng.integers(1, 5))
        n = int(rng.integers(m, 16))
        data = rng.normal(0, 1.5, n)
        fast = u_statistic(product_kernel(m), data)
        oracle = brute_u_stat(fns[m], list(data), m)
        assert fast == pytest.approx(oracle, rel=1e-10, abs=1e-12)


def test_generic_kernel_path_matches_oracle():
    cube = make_kernel("cube-sum", 2, lambda x, y: (x + y) ** 3)
    rng = np.random.default_rng(5)
    data = rng.normal(0, 1, 12)
    assert u_statistic(cube, data) == pytest.approx(
        brute_u_stat(lambda x, y: (x + y) ** 3, list(data), 2), rel=1e-10)
    pre = u_prefix_process(cube, data)
    assert pre.final == pytest.approx(u_statistic(cube, data), rel=1e-10)


def test_ordered_distinct_sum_examples():
    o = ordered_distinct_sum(lambda x, y: x * y, [1.0, 2.0], 2)
    assert (o.total, o.count) == (4.0, 2)
    o = ordered_distinct_sum(lambda x, y, z: 1.0, [0.0] * 4, 3)
    assert (o.total, o.count) == (24.0, 24)
    o = ordered_distinct_sum(lambda x, y: x, [1.0, 2.0, 3.0], 2)
    assert o.total == pytest.approx(12.0)
    assert o.count == 6


def test_ordered_sum_symmetric_equals_factorial_times_unordered():
    rng = np.random.default_rng(3)
    data = list(rng.normal(0, 1, 9))
    for r, fn in ((2, lambda x, y: x * y + 1), (3, lambda x, y, z: x + y + z)):
        ordered = ordered_distinct_sum(fn, data, r)
        unordered = sum(fn(*(data[i] for i in c)) for c in
                        __import__("itertools").combinations(range(len(data)), r))
        assert ordered.total == pytest.approx(
            math.factorial(r) * unordered, rel=1e-10, abs=1e-12)
        assert ordered.total == pytest.approx(
            brute_ordered_sum(fn, data, r), rel=1e-12, abs=1e-12)


def test_ordered_sum_guards():
    with pytest.raises(InsufficientDataError):
        ordered_distinct_sum(lambda *a: 1.0, [1.0, 2.0], 3)
    with pytest.raises(ResourceLimitError):
        ordered_distinct_sum(lambda *a: 1.0, [1.0] * 10, 7)


def test_kernel_route():
    cut = TruncationRule(TruncationMode.FULL_M, 50)
    assert kernel_route(product_kernel(5)) == ROUTE_ESP
    assert kernel_route(variance_kernel()) == ROUTE_BUILTIN
    assert kernel_route(truncate_kernel(product_kernel(3), cut)) == ROUTE_BUILTIN
    assert kernel_route(truncate_kernel(product_kernel(4), cut)) == ROUTE_ENUMERATION
    assert kernel_route(make_kernel("sum", 2, lambda x, y: x + y)) == ROUTE_ENUMERATION


def test_enumeration_cap():
    # the O(n m) product path is exempt from the enumeration cap
    assert u_statistic(product_kernel(3), np.ones(10_000)) == pytest.approx(1.0)
    with pytest.raises(ResourceLimitError):
        u_statistic(variance_kernel(), np.ones(100_000))
