import itertools
import math

import numpy as np
import pytest

from ustatlab import (
    DomainError,
    InsufficientDataError,
    ResourceLimitError,
    TruncationMode,
    TruncationRule,
    identity_kernel,
    jackknife_closed_form,
    leave_one_out,
    make_kernel,
    ordered_distinct_sum,
    product_kernel,
    truncate_kernel,
    u_prefix_process,
    u_statistic,
    variance_kernel,
)
from ustatlab.engine import (
    ROUTE_CLOSED_FORM,
    ROUTE_ENUMERATION,
    _combination_blocks,
    combination_sum,
    kernel_route,
)

from _oracles import (
    brute_combination_sum,
    brute_ordered_sum,
    brute_prefix,
    brute_q,
    brute_u_stat,
)

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
    assert kernel_route(product_kernel(5)) == ROUTE_CLOSED_FORM
    assert kernel_route(identity_kernel()) == ROUTE_CLOSED_FORM
    assert kernel_route(variance_kernel()) == ROUTE_CLOSED_FORM
    assert kernel_route(truncate_kernel(product_kernel(3), cut)) == ROUTE_ENUMERATION
    assert kernel_route(truncate_kernel(variance_kernel(), cut)) == ROUTE_ENUMERATION
    assert kernel_route(make_kernel("sum", 2, lambda x, y: x + y)) == ROUTE_ENUMERATION


def test_enumeration_cap():
    # the closed forms are exempt from the enumeration cap
    assert u_statistic(product_kernel(3), np.ones(10_000)) == pytest.approx(1.0)
    n = 100_000
    x = np.arange(n) % 2.0
    assert u_statistic(variance_kernel(), x) == pytest.approx(0.25 * n / (n - 1))
    cut = TruncationRule(TruncationMode.FULL_M, n)
    with pytest.raises(ResourceLimitError):
        u_statistic(truncate_kernel(variance_kernel(), cut), x)


# A threshold of exactly 1.0 (FULL_M at n = 1) drops some evaluations of
# every kernel below on N(0, 1.5) data and keeps others.
CUT = TruncationRule(TruncationMode.FULL_M, 1)


def _truncated(fn, thr):
    def wrapped(*xs):
        v = fn(*xs)
        return v if abs(v) <= thr else 0.0

    return wrapped


@pytest.mark.parametrize("name", sorted(KERNELS))
@pytest.mark.parametrize("truncate", [False, True], ids=["closed-form", "enumeration"])
def test_routes_against_oracle(name, truncate):
    base, fn = KERNELS[name]
    kernel = truncate_kernel(base, CUT) if truncate else base
    assert kernel_route(kernel) == (ROUTE_ENUMERATION if truncate else ROUTE_CLOSED_FORM)
    fx = _truncated(fn, kernel.accel_thr)
    m = kernel.order
    x = list(np.random.default_rng(41).normal(0, 1.5, 17))
    want = brute_combination_sum(fx, x, m)
    if truncate:
        assert want != pytest.approx(brute_combination_sum(fn, x, m), rel=1e-6)
        assert want != 0.0
    assert combination_sum(kernel, x) == pytest.approx(want, rel=1e-11, abs=1e-11)
    pre = u_prefix_process(kernel, x)
    for k in (m, m + 3, len(x)):
        assert pre.u_at(k) * math.comb(k, m) == pytest.approx(
            brute_combination_sum(fx, x[:k], m), rel=1e-10, abs=1e-10)
    assert jackknife_closed_form(kernel, x).q == pytest.approx(
        brute_q(fx, x, m), rel=1e-10, abs=1e-10)


def test_enumeration_of_order_4_uses_heads_of_size_3():
    kernel = truncate_kernel(product_kernel(4), CUT)
    x = np.random.default_rng(43).normal(0, 1.5, 11)
    blocks = list(_combination_blocks(kernel, x))
    assert all(heads.shape[1] == 3 for heads, _, _ in blocks)
    fx = _truncated(lambda a, b, c, d: a * b * c * d, 1.0)
    assert combination_sum(kernel, x) == pytest.approx(
        brute_combination_sum(fx, list(x), 4), rel=1e-11, abs=1e-11)
    assert u_prefix_process(kernel, x).final == pytest.approx(
        brute_u_stat(fx, list(x), 4), rel=1e-10, abs=1e-12)
    assert jackknife_closed_form(kernel, x).q == pytest.approx(
        brute_q(fx, list(x), 4), rel=1e-10, abs=1e-10)


def _variance_data(v):
    """[0, 0, d] with h(0, d) == v exactly, or None if no float d hits v."""
    d = math.sqrt(2.0 * v)
    for cand in (math.nextafter(d, 0.0), d, math.nextafter(d, math.inf)):
        if 0.5 * (0.0 - cand) ** 2 == v:
            return [0.0, 0.0, cand]
    return None


BOUNDARY = {
    # kernel, data whose combinations all evaluate to v or to 0
    "product2": (product_kernel(2), lambda v: [v, 0.0, 1.0]),
    "product3": (product_kernel(3), lambda v: [v, 1.0, 0.0, 1.0]),
    "variance": (variance_kernel(), _variance_data),
}


@pytest.mark.parametrize("name", sorted(BOUNDARY))
def test_truncation_boundary_is_inclusive(name):
    base, data_for = BOUNDARY[name]
    for n in range(2, 200):
        kernel = truncate_kernel(base, TruncationRule(TruncationMode.FULL_M, n))
        thr = kernel.accel_thr
        kept, dropped = data_for(thr), data_for(np.nextafter(thr, np.inf))
        if kept is not None and dropped is not None:
            break
    m = base.order
    values = [base.eval_fn(*c) for c in itertools.combinations(kept, m)]
    count = values.count(thr)
    assert count >= 1 and values.count(0.0) == len(values) - count
    assert combination_sum(kernel, kept) == count * thr
    assert combination_sum(kernel, dropped) == 0.0
    assert u_prefix_process(kernel, kept).final * math.comb(len(kept), m) == \
        pytest.approx(count * thr, rel=1e-12)
    assert u_prefix_process(kernel, dropped).final == 0.0
    assert jackknife_closed_form(kernel, kept).q.sum() * math.comb(len(kept) - 1, m - 1) \
        == pytest.approx(m * count * thr, rel=1e-12)
    assert not jackknife_closed_form(kernel, dropped).q.any()


NON_FINITE_KERNELS = {
    "identity": identity_kernel(),
    "product2": product_kernel(2),
    "variance": variance_kernel(),
    "user": make_kernel("user", 2, lambda x, y: x * y + y),
}
ENTRY_POINTS = {
    "u_statistic": u_statistic,
    "combination_sum": combination_sum,
    "u_prefix_process": u_prefix_process,
    "jackknife_closed_form": jackknife_closed_form,
    "leave_one_out": leave_one_out,
}


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
@pytest.mark.parametrize("name", sorted(NON_FINITE_KERNELS))
def test_non_finite_data_raises_domain_error(bad, entry, name):
    x = [0.5, -1.0, bad, 2.0, 1.5]
    with pytest.raises(DomainError):
        ENTRY_POINTS[entry](NON_FINITE_KERNELS[name], x)


def test_ordered_distinct_sum_rejects_non_finite_data():
    with pytest.raises(DomainError):
        ordered_distinct_sum(lambda x, y: x * y, [1.0, math.nan, 2.0], 2)

