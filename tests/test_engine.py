import dataclasses
import itertools
import math
import tracemalloc

import numpy as np
import pytest

from ustatlab import (
    DomainError,
    InsufficientDataError,
    InvalidArgumentError,
    ResourceLimitError,
    TruncationMode,
    TruncationRule,
    constant_kernel,
    identity_kernel,
    jackknife_closed_form,
    ks_distance,
    leave_one_out,
    make_kernel,
    normal_cdf,
    product_kernel,
    pseudo_selfnormalized_path,
    studentized_path,
    studentized_value,
    truncate_kernel,
    u_prefix_process,
    u_statistic,
    variance_kernel,
)
from ustatlab import _accel, engine
from ustatlab._accel import _binomials, _comb_column
from ustatlab.experiments import negligibility_value
from ustatlab.engine import (
    ROUTE_CLOSED_FORM,
    ROUTE_ENUMERATION,
    ROUTE_SORT,
    _combination_blocks,
    _head_blocks,
    combination_sum,
    kernel_route,
)

from _oracles import (
    brute_combination_sum,
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


def test_kernel_route():
    cut = TruncationRule(TruncationMode.FULL_M, 50)
    assert kernel_route(product_kernel(5)) == ROUTE_CLOSED_FORM
    assert kernel_route(identity_kernel()) == ROUTE_CLOSED_FORM
    assert kernel_route(variance_kernel()) == ROUTE_CLOSED_FORM
    # every truncated built-in is described as sort, whatever its order:
    # the route a sample takes is decided per sample
    for base in (identity_kernel(), product_kernel(1), product_kernel(2),
                 product_kernel(3), product_kernel(4), product_kernel(5), variance_kernel()):
        assert kernel_route(truncate_kernel(base, cut)) == ROUTE_SORT
    user = make_kernel("sum", 2, lambda x, y: x + y)
    assert kernel_route(user) == ROUTE_ENUMERATION
    assert kernel_route(truncate_kernel(user, cut)) == ROUTE_ENUMERATION
    # the constant kernel is a built-in of any order, and a truncated one
    # keeps its code and stays on _accel at any order
    for m in (1, 2, 3, 4, 7):
        assert kernel_route(constant_kernel(2.5, m)) == ROUTE_CLOSED_FORM
        truncated = truncate_kernel(constant_kernel(2.5, m), cut)
        assert truncated.accel_code == constant_kernel(2.5, m).accel_code
        assert kernel_route(truncated) == ROUTE_SORT


@pytest.mark.parametrize("n,m", [(40, 1), (40, 3), (55_000, 4), (60_000, 4)])
def test_comb_column_exact_cached_read_only(n, m):
    # 55000^4 < 2^63 <= 60000^4: the int64 falling factorial at its widest,
    # then the math.comb branch
    col = _comb_column(n, m)
    assert col.tolist() == [float(math.comb(k, m)) for k in range(m, n + 1)]
    assert not col.flags.writeable
    with pytest.raises(ValueError):
        col[0] = 0.0
    assert np.array_equal(_comb_column(n, m), col)


def test_comb_column_one_column_per_order(monkeypatch):
    # C(k, m) does not depend on n: a column is grown to the largest n asked
    # for, and any n up to it gets a prefix view without a rebuild
    built = []  # (n, m) of every column stored

    class Columns(dict):
        def __setitem__(self, m, col):
            built.append((col.shape[0] + m - 1, m))
            super().__setitem__(m, col)

    monkeypatch.setattr(_accel, "_COLUMNS", Columns())
    small = _comb_column(30, 2)
    big = _comb_column(90, 2)
    assert built == [(30, 2), (90, 2)]
    for n in (2, 30, 57, 90):
        col = _comb_column(n, 2)
        assert col.tolist() == [float(math.comb(k, 2)) for k in range(2, n + 1)]
        assert np.shares_memory(col, big) and not col.flags.writeable
    assert _comb_column(40, 1).tolist() == [float(k) for k in range(1, 41)]
    assert built == [(30, 2), (90, 2), (40, 1)]
    assert np.array_equal(small, big[:29])


def test_k_grid_builds_in_one_vector(monkeypatch):
    # the order-1 column is the float k-grid, built without integer
    # temporaries: its first build peaks at the column itself
    monkeypatch.setattr(_accel, "_COLUMNS", {})
    n = 100_000
    tracemalloc.start()
    try:
        col = _comb_column(n, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.05 * 8 * n
    assert col.tobytes() == _binomials(n, 1)[1:].astype(np.float64).tobytes()


@pytest.mark.parametrize("r", [1, 2, 3])
def test_binomials_exact(r):
    # the block starts of the enumeration: int64 arithmetic, no math.comb
    for n in (0, 1, r, 60, 2000):
        got = _binomials(n, r)
        assert got.dtype == np.int64
        assert got.tolist() == [math.comb(t, r) for t in range(n + 1)]
    assert _binomials(30, 20).tolist() == [math.comb(t, 20) for t in range(31)]
    assert _binomials(2, 7).tolist() == [0, 0, 0]  # r past twice the grid
    for n in (r + 1, 9, 25):
        heads = np.concatenate(list(_head_blocks(n, r + 1)))
        assert heads.tolist() == [list(c) for c in sorted(
            itertools.combinations(range(n - 1), r), key=lambda c: c[::-1])]


def test_enumeration_cap():
    # the closed forms and the sort routes are exempt from the enumeration cap
    assert u_statistic(product_kernel(3), np.ones(10_000)) == pytest.approx(1.0)
    n = 100_000
    x = np.arange(n) % 2.0
    assert u_statistic(variance_kernel(), x) == pytest.approx(0.25 * n / (n - 1))
    cut = TruncationRule(TruncationMode.FULL_M, n)
    assert u_statistic(truncate_kernel(variance_kernel(), cut), x) == pytest.approx(
        0.25 * n / (n - 1))
    # a far point, whose pairs the truncation drops, keeps it on the sort route
    far = x.copy()
    far[0] = 1e4
    assert u_statistic(truncate_kernel(variance_kernel(), cut), far) == pytest.approx(
        0.5 * (n // 2) * (n // 2 - 1) / math.comb(n, 2))
    with pytest.raises(ResourceLimitError):
        u_statistic(make_kernel("user", 2, lambda a, b: a * b), x)
    # a truncated product of order 4 has no sort route: data it keeps whole
    # takes the closed form, and data it bites is enumerated, past the cap
    assert u_statistic(truncate_kernel(product_kernel(4), cut), x[:300]) == u_statistic(
        product_kernel(4), x[:300])
    bitten = x[:300].copy()
    bitten[0] = 2.0 * cut.threshold(4)
    with pytest.raises(ResourceLimitError, match="evaluation cap"):
        u_statistic(truncate_kernel(product_kernel(4), cut), bitten)
    # the order-3 sort route holds every pair, so past its pair cap a sample
    # the truncation bites is enumerated too, and refused; data it keeps
    # whole takes the closed form
    bitten = x[:2001].copy()
    bitten[0] = 2.0 * cut.threshold(3)
    with pytest.raises(ResourceLimitError, match="evaluation cap"):
        u_statistic(truncate_kernel(product_kernel(3), cut), bitten)
    assert u_statistic(truncate_kernel(product_kernel(3), cut), x) == u_statistic(
        product_kernel(3), x)


# A threshold of exactly 1.0 (FULL_M at n = 1) drops some evaluations of
# every kernel below on N(0, 1.5) data and keeps others.
CUT = TruncationRule(TruncationMode.FULL_M, 1)


def _truncated(fn, thr):
    def wrapped(*xs):
        v = fn(*xs)
        return v if abs(v) <= thr else 0.0

    return wrapped


def _on_route(base, route):
    """``base`` untruncated (closed form), truncated at 1.0 (sort route),
    or truncated at 1.0 without its built-in code (enumeration)."""
    if route == ROUTE_CLOSED_FORM:
        return base
    kernel = truncate_kernel(base, CUT)
    return kernel if route == ROUTE_SORT else dataclasses.replace(kernel, accel_code=None)


@pytest.mark.parametrize("name", sorted(KERNELS))
@pytest.mark.parametrize("route", [ROUTE_CLOSED_FORM, ROUTE_SORT, ROUTE_ENUMERATION])
def test_routes_against_oracle(name, route):
    base, fn = KERNELS[name]
    kernel = _on_route(base, route)
    assert kernel_route(kernel) == route
    truncate = route != ROUTE_CLOSED_FORM
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


@pytest.mark.parametrize("m", [4, 5, 6])
def test_closed_form_product_high_order_against_oracle(m):
    kernel = product_kernel(m)
    assert kernel_route(kernel) == ROUTE_CLOSED_FORM
    x = list(np.random.default_rng(61).normal(0.5, 1.5, 17))

    def h(*xs):
        return math.prod(xs)

    assert combination_sum(kernel, x) == pytest.approx(
        brute_combination_sum(h, x, m), rel=1e-10)
    pre = u_prefix_process(kernel, x)
    for k, want in brute_prefix(h, x, m).items():
        assert pre.u_at(k) == pytest.approx(want, rel=1e-10, abs=1e-12)
    assert jackknife_closed_form(kernel, x).q == pytest.approx(
        brute_q(h, x, m), rel=1e-10)


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


def _check_constant(kernel, c, x):
    """combination_sum, u_prefix_process at every k and the jackknife q of
    a kernel that is c on every combination, against brute force."""
    m, n = kernel.order, len(x)

    def h(*xs):
        return c

    assert combination_sum(kernel, x) == pytest.approx(
        brute_combination_sum(h, x, m), rel=1e-12, abs=1e-300)
    pre = u_prefix_process(kernel, x)
    assert np.isnan(pre.values[:m]).all()
    for k, want in brute_prefix(h, x, m).items():
        assert pre.u_at(k) == pytest.approx(want, rel=1e-12, abs=1e-300), k
    assert jackknife_closed_form(kernel, x).q == pytest.approx(
        brute_q(h, x, m), rel=1e-12, abs=1e-300)


@pytest.mark.parametrize("c,m", [(0.1, 1), (1 / 3, 2), (-0.7, 3), (2.5, 4), (-3.0, 6)])
def test_constant_kernel_closed_form_against_oracle(c, m):
    kernel = constant_kernel(c, m)
    assert kernel_route(kernel) == ROUTE_CLOSED_FORM
    _check_constant(kernel, c, list(np.random.default_rng(47).normal(0, 1.5, 10)))


@pytest.mark.parametrize("m", [1, 2, 3, 4])
@pytest.mark.parametrize("c", [0.7, -1.0, -1.5, 3.0])
def test_truncated_constant_keeps_all_or_nothing(c, m):
    # at thr = 1.0 the truncated constant is c on every combination when
    # |c| <= 1 and 0 on every one otherwise, on _accel at every order and
    # again without its code, on the enumeration
    kernel = truncate_kernel(constant_kernel(c, m), CUT)
    kept = c if abs(c) <= 1.0 else 0.0
    x = list(np.random.default_rng(53).normal(0, 1.5, 9))
    assert kernel_route(kernel) == ROUTE_SORT
    enumerated = dataclasses.replace(kernel, accel_code=None)
    assert kernel_route(enumerated) == ROUTE_ENUMERATION
    _check_constant(enumerated, kept, x)
    _check_constant(kernel, kept, x)


@pytest.mark.parametrize("m", [4, 5])
def test_truncated_constant_of_high_order_is_served_in_closed_form(m):
    # C(300, m) is past the enumeration cap, and _accel serves a truncated
    # constant of any order: c C(n, m), c C(k, m) and c C(n - 1, m - 1)
    n, c = 300, 1.0
    kernel = truncate_kernel(constant_kernel(c, m), TruncationRule(TruncationMode.FULL_M, n))
    assert math.comb(n, m) > engine.MAX_ENUMERATION
    x = np.random.default_rng(61).normal(0, 1, n)
    assert combination_sum(kernel, x) == c * math.comb(n, m)
    if m == 4:
        assert combination_sum(kernel, x) == 330791175.0
    sums = _accel.prefix_sums(kernel.accel_code, kernel.accel_thr, x, m)
    assert sums.tolist() == [c * float(math.comb(k, m)) for k in range(n + 1)]
    pre = u_prefix_process(kernel, x)
    assert np.isnan(pre.values[:m]).all()
    assert (pre.values[m:] == c).all()
    q = jackknife_closed_form(kernel, x).q
    assert (q == c * math.comb(n - 1, m - 1) / math.comb(n - 1, m - 1)).all()
    assert (_accel.q_raw(kernel.accel_code, kernel.accel_thr, x, m)
            == c * math.comb(n - 1, m - 1)).all()


def test_constant_prefix_is_correctly_rounded_past_two_to_the_53():
    # the constant's prefix sums are c times the correctly rounded column
    # float(C(k, m)), so U_k = c (C(k, m) c) / C(k, m) is within 1 ulp of c
    # where C(k, m) >= 2^53 too
    n, m, c = 10 ** 5, 5, 0.1
    kernel = constant_kernel(c, m)
    assert float(math.comb(n, m)) >= 2.0 ** 53
    values = u_prefix_process(kernel, np.zeros(n)).values[m:]
    assert np.abs(values - c).max() <= math.ulp(c)


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
        assert kernel_route(kernel) == ROUTE_SORT
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
    "studentized_path": lambda kernel, x: studentized_path(kernel, x, 0.5),
    "studentized_value": lambda kernel, x: studentized_value(kernel, x, 0.5, 3),
}


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
@pytest.mark.parametrize("name", sorted(NON_FINITE_KERNELS))
def test_non_finite_data_raises_domain_error(bad, entry, name):
    x = [0.5, -1.0, bad, 2.0, 1.5]
    with pytest.raises(DomainError):
        ENTRY_POINTS[entry](NON_FINITE_KERNELS[name], x)


SHAPED_ENTRY_POINTS = dict(
    ENTRY_POINTS,
    pseudo_selfnormalized_path=lambda kernel, x: pseudo_selfnormalized_path(
        kernel, x, 0.5, np.ones(6)),
    negligibility_value=lambda kernel, x: negligibility_value(
        "diagonal-square", kernel, None, x),
    ks_distance=lambda kernel, x: ks_distance(x, normal_cdf),
)


@pytest.mark.parametrize("data", [np.arange(1.0, 13.0).reshape(6, 2), 2.5],
                         ids=["2-d", "scalar"])
@pytest.mark.parametrize("entry", sorted(SHAPED_ENTRY_POINTS))
@pytest.mark.parametrize("name", sorted(NON_FINITE_KERNELS))
def test_data_that_is_not_one_dimensional_is_refused(data, entry, name):
    # refused before any value is computed from it: the path checks the
    # data before it reads the projections
    with pytest.raises(InvalidArgumentError, match="one-dimensional"):
        SHAPED_ENTRY_POINTS[entry](NON_FINITE_KERNELS[name], data)
