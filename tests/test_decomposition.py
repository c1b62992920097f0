import itertools
import math
import warnings

import numpy as np
import pytest

from ustatlab import (
    DomainError,
    InsufficientDataError,
    InvalidArgumentError,
    PreconditionViolationError,
    ProductStatistic,
    ResourceLimitError,
    TruncationMode,
    TruncationRule,
    build_v_expansion,
    check_degeneracy,
    constant_kernel,
    eval_product_statistic,
    finite,
    degenerate_moment_bound,
    identity_kernel,
    make_kernel,
    negligibility_trend,
    normal,
    product_kernel,
    reconstruction_max_error,
    truncate_kernel,
    variance_kernel,
)
from ustatlab import _accel, engine, kernel_from_name
from ustatlab.decomposition import expansion_report
from ustatlab.experiments import (
    TREND_STATISTICS,
    negligibility_value,
    truncation_coupling_rate,
)
from ustatlab.engine import ROUTE_CLOSED_FORM, ROUTE_SORT, kernel_route
from ustatlab import derive_seed, example_density, sample_grid, theta_under

from _oracles import brute_combination_sum, brute_ordered_sum, finite_expectation

PM1 = finite([-1.0, 1.0], [0.5, 0.5])


def test_eval_product_statistic_examples():
    ps = ProductStatistic(base=product_kernel(2), shared=1)
    assert eval_product_statistic(ps, [2, 3, 5]) == 60.0
    ps2 = ProductStatistic(base=product_kernel(3), shared=2)
    assert eval_product_statistic(ps2, [1, 2, 3, 4]) == 48.0
    with pytest.raises(InvalidArgumentError):
        eval_product_statistic(ps, [1, 2])


def test_truncated_base_zeroes_product():
    rule = TruncationRule(TruncationMode.LOG, n=2)  # threshold log 2 < 1
    kt = truncate_kernel(product_kernel(2), rule)
    ps = ProductStatistic(base=kt, shared=1)
    assert eval_product_statistic(ps, [1.0, 1.0, 1.0]) == 0.0


def test_v_expansion_product_pm1():
    ps = ProductStatistic(base=product_kernel(2), shared=1)
    exp = build_v_expansion(ps, PM1)
    # E h* = E[X1^2 X2 X3] = 0 on the symmetric support
    assert exp.constant == pytest.approx(0.0, abs=1e-14)
    assert exp.constant == pytest.approx(
        finite_expectation(lambda a, b, c: a * b * a * c, PM1.points, PM1.probs, 3),
        abs=1e-14)
    assert reconstruction_max_error(exp) <= 1e-12
    assert all(check_degeneracy(t, PM1) for t in exp.terms)
    total = exp.constant + sum(t.value(1.0, *([1.0] * (len(t.positions) - 1)))
                               for t in exp.terms)
    assert total == pytest.approx(1.0, abs=1e-12)


def test_v_expansion_constant_kernel():
    ps = ProductStatistic(base=constant_kernel(3.0, m=2), shared=1)
    exp = build_v_expansion(ps, PM1)
    assert exp.constant == pytest.approx(9.0)
    for t in exp.terms:
        assert np.max(np.abs(t.table)) <= 1e-12


def test_v_expansion_single_point_support():
    d = finite([2.5], [1.0])
    ps = ProductStatistic(base=product_kernel(2), shared=1)
    exp = build_v_expansion(ps, d)
    assert exp.constant == pytest.approx(2.5 ** 4)
    for t in exp.terms:
        assert np.max(np.abs(t.table)) <= 1e-10


def test_v_expansion_shared_count_tags():
    ps = ProductStatistic(base=product_kernel(3), shared=1)  # arity 5
    exp = build_v_expansion(ps, PM1)
    tags = {t.positions: (t.s, t.t) for t in exp.terms}
    assert tags[(1,)] == (1, 1)
    assert tags[(2, 3)] == (2, 0)
    assert tags[(4, 5)] == (0, 2)
    assert tags[(1, 2, 4)] == (2, 2)
    assert len(exp.terms) == 2 ** 5 - 1


def test_v_expansion_requires_finite():
    ps = ProductStatistic(base=product_kernel(2), shared=1)
    with pytest.raises(InvalidArgumentError):
        build_v_expansion(ps, normal(0, 1))


def test_v_expansion_support_guard():
    pts = np.linspace(-1, 1, 7)
    d = finite(pts, np.full(7, 1 / 7))
    ps = ProductStatistic(base=product_kernel(2), shared=1)
    with pytest.raises(ResourceLimitError):
        build_v_expansion(ps, d)


def test_degeneracy_rejects_noncentered():
    d = finite([0.5, 2.0], [0.5, 0.5])
    ps = ProductStatistic(base=product_kernel(2), shared=1)
    exp = build_v_expansion(ps, d)
    assert all(check_degeneracy(t, d) for t in exp.terms)
    from ustatlab.decomposition import VTerm

    bad = VTerm(positions=(1, 2), table=np.array([[1.0, 2.0], [2.0, 3.0]]),
                support=d.points, s=2, t=0, _index={})
    assert not check_degeneracy(bad, d)


def test_moment_bound_exact_values():
    r2 = degenerate_moment_bound(lambda x, y: x * y, 2, 0.0, PM1, 2)
    assert (r2.lhs, r2.rhs, r2.ratio) == pytest.approx((1.0, 0.5, 2.0), abs=1e-12)
    r3 = degenerate_moment_bound(lambda x, y: x * y, 2, 0.0, PM1, 3)
    assert (r3.lhs, r3.rhs, r3.ratio) == pytest.approx((1 / 3, 1 / 6, 2.0), abs=1e-12)
    assert r2.reference_constant == 1.0
    assert r2.permutation_constant == 2.0


def test_moment_bound_zero_function():
    r = degenerate_moment_bound(lambda x, y: 0.0, 2, 0.0, PM1, 3)
    assert r.lhs == 0.0 and r.rhs == 0.0
    assert math.isnan(r.ratio)


def test_moment_bound_lhs_via_independent_enumeration():
    # independent oracle: enumerate outcome sequences and ordered tuples directly
    d = finite([-1.0, 0.0, 1.0], [0.3, 0.4, 0.3])
    table = {(-1.0, -1.0): 0.3, (-1.0, 1.0): -0.5, (1.0, -1.0): -0.5,
             (1.0, 1.0): 0.7}

    def L(x, y):
        v = table.get((x, y), 0.0)
        # double-center under d to make it degenerate
        return v

    probs = {pt: p for pt, p in zip(d.points, d.probs)}
    row = {x: sum(L(x, y) * probs[y] for y in d.points) for x in d.points}
    col = {y: sum(L(x, y) * probs[x] for x in d.points) for y in d.points}
    grand = sum(row[x] * probs[x] for x in d.points)

    def Ldeg(x, y):
        return L(x, y) - row[x] - col[y] + grand

    n = 4
    res = degenerate_moment_bound(Ldeg, 2, 0.0, d, n)
    count = math.perm(n, 2)
    lhs_oracle = 0.0
    for seq in itertools.product(d.points, repeat=n):
        w = math.prod(probs[s] for s in seq)
        t = brute_ordered_sum(Ldeg, list(seq), 2)
        lhs_oracle += w * (t / count) ** 2
    assert res.lhs == pytest.approx(lhs_oracle, rel=1e-10)
    assert res.lhs <= 2.0 * res.rhs + 1e-12


def test_moment_bound_randomized_degenerate_bound():
    rng = np.random.default_rng(101)
    for trial in range(20):
        size = int(rng.integers(2, 4))
        pts = np.sort(rng.normal(0, 1, size))
        pr = rng.dirichlet(np.ones(size))
        d = finite(pts, pr / pr.sum())
        raw = rng.normal(0, 1, (size, size))
        row = raw @ d.probs
        col = d.probs @ raw
        grand = float(d.probs @ raw @ d.probs)
        table = raw - row[:, None] - col[None, :] + grand
        idx = {float(p): i for i, p in enumerate(d.points)}

        def L(x, y, table=table, idx=idx):
            return table[idx[float(x)], idx[float(y)]]

        n = int(rng.integers(2, 7))
        res = degenerate_moment_bound(L, 2, 0.0, d, n)
        assert res.lhs <= 2.0 * res.rhs * (1 + 1e-9) + 1e-15
        assert res.ratio <= 2.0 + 1e-9


def test_moment_bound_symmetric_equality():
    # symmetric degenerate L: lhs = r! * rhs exactly
    res = degenerate_moment_bound(lambda x, y: x * y, 2, 0.0, PM1, 5)
    assert res.lhs == pytest.approx(2.0 * res.rhs, rel=1e-10)


def test_moment_bound_precondition():
    with pytest.raises(PreconditionViolationError):
        degenerate_moment_bound(lambda x, y: x + y, 2, 0.0,
                     finite([0.5, 2.0], [0.5, 0.5]), 3)
    with pytest.raises(ResourceLimitError):
        degenerate_moment_bound(lambda x, y: x * y, 2, 0.0, PM1, 9)


def test_trend_p3_constant_closed_form():
    table = negligibility_trend("diagonal-square", constant_kernel(1.0, m=2),
                                normal(0, 1), [10, 20, 40], R=50, seed=3)
    for row in table.per_n:
        assert row.mean == pytest.approx(1.0 / (row.n - 2), rel=1e-12)
        assert row.se == pytest.approx(0.0, abs=1e-14)
    assert table.overall_pass


def _truncated_product2(thr):
    return lambda x, y: x * y if abs(x * y) <= thr else 0.0


def test_diagonal_square_matches_oracle():
    # factorial(m) * (sum of h^2 over the combinations) / [n]_(2m-1), on
    # every route's kernel; n < 2m - 1 raises rather than dividing by
    # [n]_(2m-1) = 0
    rng = np.random.default_rng(17)
    cauchy = list(rng.standard_cauchy(11))
    shifted = list(rng.normal(1e6, 1.0, 11))
    bites = truncate_kernel(product_kernel(2), TruncationRule(TruncationMode.FULL_M, 4))
    clears = truncate_kernel(product_kernel(2), TruncationRule(TruncationMode.FULL_M, 10 ** 6))
    # the sort route's O(n) bound keeps every evaluation of one, not the other
    assert _accel.max_abs_kernel(_accel.KERNEL_PRODUCT, cauchy, 2) > bites.accel_thr
    assert _accel.max_abs_kernel(_accel.KERNEL_PRODUCT, cauchy, 2) <= clears.accel_thr
    cases = [(identity_kernel(), lambda x: x, cauchy),
             (product_kernel(2), lambda x, y: x * y, cauchy),
             (product_kernel(3), lambda x, y, z: x * y * z, cauchy),
             (product_kernel(3), lambda x, y, z: x * y * z, shifted),
             (variance_kernel(), lambda x, y: 0.5 * (x - y) ** 2, cauchy),
             (variance_kernel(), lambda x, y: 0.5 * (x - y) ** 2, shifted),
             (constant_kernel(0.1, 2), lambda x, y: 0.1, cauchy),
             (constant_kernel(-3, 3), lambda x, y, z: -3.0, cauchy),
             (bites, _truncated_product2(bites.accel_thr), cauchy),
             (clears, _truncated_product2(clears.accel_thr), cauchy)]
    for kernel, h, x in cases:
        m = kernel.order
        want = math.factorial(m) * brute_combination_sum(
            lambda *xs: h(*xs) ** 2, x, m) / math.perm(len(x), 2 * m - 1)
        got = negligibility_value("diagonal-square", kernel, None, np.array(x))
        assert got == pytest.approx(want, rel=1e-12), kernel.name
        for short in range(m - 1, 2 * m - 1):
            with pytest.raises(InsufficientDataError):
                negligibility_value("diagonal-square", kernel, None, np.array(x[:short]))


class EnumerationRan(Exception):
    pass


def test_diagonal_square_closed_forms_never_enumerate(monkeypatch):
    # the built-in kernels on the closed-form route sum h^2 without
    # enumerating a combination, at the largest trend size of each order
    def enumerate_(*args, **kwargs):
        raise EnumerationRan

    monkeypatch.setattr(engine, "_combination_blocks", enumerate_)
    rng = np.random.default_rng(23)
    for kernel in (identity_kernel(), product_kernel(2), product_kernel(3),
                   variance_kernel(), constant_kernel(1.0, 2), constant_kernel(-3.0, 3)):
        assert kernel_route(kernel) == ROUTE_CLOSED_FORM
        x = rng.normal(0.5, 1.0, 400 if kernel.order <= 2 else 60)
        assert negligibility_value("diagonal-square", kernel, None, x) > 0
    # FULL_M-truncated kernels on the sort route whose O(n) bound clears the
    # threshold: h^2 sums to the untruncated square_sum
    for base, n in ((product_kernel(2), 400), (product_kernel(3), 60),
                    (variance_kernel(), 400), (constant_kernel(-3.0, 3), 60)):
        kernel = truncate_kernel(base, TruncationRule(TruncationMode.FULL_M, n))
        assert kernel_route(kernel) == ROUTE_SORT
        x = rng.normal(0.5, 1.0, n)
        assert _accel._keeps_all(kernel.accel_code, kernel.accel_thr, x, kernel.order)
        want = math.factorial(base.order) \
            * _accel.square_sum(base.accel_code, math.inf, x, base.order) \
            / math.perm(n, 2 * base.order - 1)
        assert negligibility_value("diagonal-square", kernel, None, x) == want
    with pytest.raises(EnumerationRan):
        negligibility_value("diagonal-square", make_kernel("user", 2, lambda a, b: a * b),
                            None, rng.normal(0, 1, 5))


def test_shared_pair_constant_kernel(monkeypatch):
    # the order-3 constant's shared-pair total is c^2 [n]_4 in closed form,
    # so the statistic is c^2 [n]_4 / [n]_5 = c^2 / (n - 4), exactly; a
    # truncation that drops c makes it 0
    def generic(*args, **kwargs):
        raise AssertionError("generic contraction ran")

    x = np.random.default_rng(5).normal(0, 1, 12)
    kernel = constant_kernel(2.0, 3)
    assert kernel_route(kernel) == ROUTE_CLOSED_FORM
    want = engine._shared_pair_generic(kernel, x) / math.perm(12, 5)
    assert want == pytest.approx(0.5, rel=1e-12)
    monkeypatch.setattr(engine, "_shared_pair_generic", generic)
    assert negligibility_value("shared-pair", kernel, None, x) == 0.5
    keeps = truncate_kernel(kernel, TruncationRule(TruncationMode.FULL_M, 12))
    drops = truncate_kernel(kernel, TruncationRule(TruncationMode.FULL_M, 1))
    assert kernel_route(keeps) == kernel_route(drops) == ROUTE_SORT
    assert negligibility_value("shared-pair", keeps, None, x) == 0.5
    assert negligibility_value("shared-pair", drops, None, x) == 0.0
    assert negligibility_value("shared-pair", constant_kernel(-0.5, 3), None,
                               x[:5]) == 0.25
    # below 2m - 1 = 5 points [n]_5 = 0: a typed refusal, not a division
    for kernel in (constant_kernel(2.0, 3), product_kernel(3)):
        for short in (2, 3, 4):
            with pytest.raises(InsufficientDataError):
                negligibility_value("shared-pair", kernel, None, x[:short])


def test_negligibility_shortcuts_where_the_bound_clears(monkeypatch):
    # FULL_M-truncated products whose O(n) bound on |h| clears the
    # threshold: shared-pair and diagonal-square take their closed forms,
    # as the untruncated kernels do, and give the untruncated values
    def enumerate_(*args, **kwargs):
        raise EnumerationRan

    monkeypatch.setattr(engine, "_shared_pair_generic", enumerate_)
    monkeypatch.setattr(engine, "_combination_blocks", enumerate_)
    rng = np.random.default_rng(31)
    for statistic, base, n in (("shared-pair", product_kernel(3), 60),
                               ("diagonal-square", product_kernel(3), 60),
                               ("diagonal-square", product_kernel(2), 400)):
        kernel = truncate_kernel(base, TruncationRule(TruncationMode.FULL_M, n))
        x = rng.normal(0.5, 1.0, n)
        assert _accel.max_abs_kernel(base.accel_code, x, base.order) <= kernel.accel_thr
        assert negligibility_value(statistic, kernel, None, x) \
            == negligibility_value(statistic, base, None, x)


@pytest.mark.parametrize("user", [False, True], ids=["closed-form", "user"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("statistic", TREND_STATISTICS)
def test_negligibility_value_rejects_non_finite_samples(statistic, bad, user):
    # every statistic checks the sample before it computes anything, so a
    # non-finite value raises DomainError and warns of nothing
    m = 3 if statistic == "shared-pair" else 2
    kernel = make_kernel("prod", m, lambda *xs: math.prod(xs)) if user \
        else product_kernel(m)
    x = np.array([1.0, 2.0, 3.0, 0.5, -1.0, 0.25])
    x[1] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError):
            negligibility_value(statistic, kernel, 0.0, x)


def test_trend_p1_zero_kernel():
    table = negligibility_trend("centered-usq", constant_kernel(0.0, m=2),
                                normal(0, 1), [10, 20], R=50, seed=3)
    assert all(r.mean == 0.0 for r in table.per_n)


def test_trend_shared_pair_matches_ordered_enumeration():
    # the pair-contraction path must equal the direct 4-index ordered sum,
    # on shifted and scaled data too
    rng = np.random.default_rng(7)
    from ustatlab._accel import KERNEL_PRODUCT, shared_pair_total

    for n in (4, 5, 8, 13):
        for loc, scale in ((0.0, 1.0), (5.0, 1.0), (0.0, 1e3), (3.0, 1e-3),
                           (-100.0, 10.0)):
            x = scale * rng.normal(loc, 1, n)
            got = shared_pair_total(KERNEL_PRODUCT, math.inf, x)
            want = brute_ordered_sum(
                lambda a, b, c, e: (a * b * c) * (a * b * e), list(x), 4)
            assert got == pytest.approx(want, rel=1e-10), (n, loc, scale)


def test_shared_pair_generic_path_truncated_kernel():
    # a truncated kernel has no closed form: the generic pair contraction
    # must equal the direct 4-index ordered sum of the truncated products
    from ustatlab.engine import _shared_pair_generic

    rng = np.random.default_rng(59)
    x = rng.normal(0, 1, 9)
    kernel = truncate_kernel(product_kernel(3), TruncationRule(TruncationMode.FULL_M, 1))
    assert kernel.accel_thr == 1.0

    def h(a, b, c):
        v = a * b * c
        return v if abs(v) <= 1.0 else 0.0

    want = brute_ordered_sum(lambda a, b, c, e: h(a, b, c) * h(a, b, e), list(x), 4)
    untruncated = brute_ordered_sum(
        lambda a, b, c, e: (a * b * c) * (a * b * e), list(x), 4)
    assert want != pytest.approx(untruncated, rel=1e-6)
    assert _shared_pair_generic(kernel, x) == pytest.approx(want, rel=1e-10)


def _symmetric3(a, b, c):
    return a * b * c + math.sin(a + b + c) + (a * b + b * c + a * c) ** 2


@pytest.mark.parametrize("n", [4, 5, 9])
def test_shared_pair_generic_user_kernel(n):
    # a user kernel with no _accel code: the pair sums of one enumeration
    # of the triples give the direct 4-index ordered sum
    kernel = make_kernel("sym3", 3, _symmetric3)
    x = np.random.default_rng(61).normal(0.5, 1.5, n)
    want = brute_ordered_sum(
        lambda a, b, c, e: _symmetric3(a, b, c) * _symmetric3(a, b, e), list(x), 4)
    assert engine._shared_pair_generic(kernel, x) == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("statistic,dist", [
    ("diagonal-square", normal(0, 1)),
    ("shared-pair", normal(0, 1)),
    ("centered-usq", finite([-1.0, 0.5, 2.0], [0.2, 0.3, 0.5])),
])
def test_trend_of_a_user_kernel_the_registry_cannot_name(statistic, dist):
    # the trend runs on the kernel object it is given, and equals a loop
    # of negligibility_value over the replications' grid samples
    kernel = make_kernel("sym3", 3, _symmetric3)
    with pytest.raises(InvalidArgumentError):
        kernel_from_name(kernel.name)
    n_grid, R, seed = [6, 9, 12], 20, 41
    table = negligibility_trend(statistic, kernel, dist, n_grid, R, seed)
    theta = theta_under(kernel, dist)
    vals = np.array([[negligibility_value(statistic, kernel, theta, x)
                      for x in sample_grid(dist, n_grid, derive_seed(seed, rep))]
                     for rep in range(R)]).T.copy()
    assert [(r.n, r.mean, r.se) for r in table.per_n] == [
        (n, float(v.mean()), float(v.std(ddof=1) / math.sqrt(R)))
        for n, v in zip(n_grid, vals)]
    assert table.overall_pass == (vals[-1].mean() < 0.5 * vals[0].mean())


@pytest.mark.parametrize("R", [0, -1])
def test_trend_needs_a_replication(R):
    with pytest.raises(InvalidArgumentError, match="R must be >= 1"):
        negligibility_trend("diagonal-square", product_kernel(2), normal(0, 1), [10], R, 1)


def test_trend_guards():
    with pytest.raises(InvalidArgumentError):
        negligibility_trend("bogus", product_kernel(2), normal(0, 1), [10], 50, 1)
    with pytest.raises(ResourceLimitError):
        negligibility_trend("centered-usq", product_kernel(2), normal(0, 1),
                            [500], 50, 1)
    with pytest.raises(ResourceLimitError):
        negligibility_trend("shared-pair", product_kernel(3), normal(0, 1),
                            [100], 50, 1)
    with pytest.raises(InvalidArgumentError):
        negligibility_trend("shared-pair", product_kernel(2), normal(0, 1),
                            [20], 50, 1)
    with pytest.raises(InvalidArgumentError, match="n_grid must be nonempty ascending"):
        negligibility_trend("diagonal-square", product_kernel(2), normal(0, 1),
                            [10, 10], 50, 1)


def test_truncation_coupling_rate_decreases():
    rates = truncation_coupling_rate(product_kernel(2), example_density(2.0),
                                     [100, 400, 1600], R=400, seed=11)
    assert rates[-1][1] < rates[0][1]


def test_truncation_coupling_rate_enumerated_peak_matches_closed_form():
    # a user kernel is enumerated for its peak; the built-in takes the
    # closed-form maximum; both must flag the same samples
    user = make_kernel("user-product", 2, lambda x, y: x * y,
                       batch_fn=lambda rows: rows[:, 0] * rows[:, 1])
    args = (example_density(2.0), [20, 60], 60, 13)
    rates = truncation_coupling_rate(product_kernel(2), *args)
    assert truncation_coupling_rate(user, *args) == rates
    assert any(r > 0 for _, r in rates)


def test_expansion_report_shape():
    ps = ProductStatistic(base=variance_kernel(), shared=1)
    report = expansion_report(ps, PM1)
    assert report["reconstruction_max_error"] <= 1e-10
    assert all(t["degenerate"] for t in report["terms"])
    small = [t for t in report["terms"] if len(t["conditioning_set"]) <= 3]
    assert all("ratio" in t for t in small)
    for t in small:
        if t["rhs"] > 0:
            assert t["lhs"] <= t["permutation_constant"] * t["rhs"] * (1 + 1e-9)
