import io
import math
import tracemalloc

import numpy as np
import pytest

from ustatlab import (
    DegenerateNormalizerError,
    DomainError,
    InsufficientDataError,
    InvalidArgumentError,
    TruncationMode,
    TruncationRule,
    constant_kernel,
    example_density,
    identity_kernel,
    jackknife_closed_form,
    make_kernel,
    normal,
    pareto,
    product_kernel,
    pseudo_selfnormalized_path,
    sample,
    studentized_path,
    studentized_value,
    sup_functional,
    abs_sup_functional,
    truncate_kernel,
    u_prefix_process,
    u_statistic,
    variance_kernel,
)
from ustatlab import _accel
from ustatlab.processes import StepProcess, _studentized, path_to_csv


def test_pseudo_path_m1_example():
    path = pseudo_selfnormalized_path(identity_kernel(), [1.0, -1.0], 0.0,
                                      [1.0, -1.0])
    assert path.values == pytest.approx([0.0, 1 / math.sqrt(2), 0.0])


def test_pseudo_degenerate_projections():
    with pytest.raises(DegenerateNormalizerError):
        pseudo_selfnormalized_path(identity_kernel(), [1.0, 2.0], 0.0, [0.0, 0.0])
    # a sample below m is refused as short before its normalizer is read
    with pytest.raises(InsufficientDataError):
        pseudo_selfnormalized_path(product_kernel(2), [1.0], 0.0, [0.0])


NON_FINITE = pytest.mark.parametrize(
    "bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])


@NON_FINITE
def test_pseudo_non_finite_projections_raise_domain_error(bad):
    with pytest.raises(DomainError):
        pseudo_selfnormalized_path(identity_kernel(), [1.0, 2.0, 3.0], 0.0,
                                   [1.0, bad, -1.0])


@NON_FINITE
@pytest.mark.parametrize("path", ["pseudo", "studentized"])
def test_non_finite_theta_raises_domain_error(bad, path):
    x = [1.0, 2.0, 3.0, 0.5]
    with pytest.raises(DomainError):
        if path == "pseudo":
            pseudo_selfnormalized_path(identity_kernel(), x, bad, [1.0, -1.0, 0.5, 2.0])
        else:
            studentized_path(identity_kernel(), x, bad)


@pytest.mark.parametrize("theta", [None, "0.5"], ids=["none", "str"])
@pytest.mark.parametrize("path", ["pseudo", "studentized", "value"])
def test_theta_that_is_not_a_real_number_is_a_typed_refusal(theta, path):
    # None or a string is refused as an argument, not by a raw TypeError
    x = [1.0, 2.0, 3.0, 0.5]
    with pytest.raises(InvalidArgumentError, match="theta must be a real number"):
        if path == "pseudo":
            pseudo_selfnormalized_path(identity_kernel(), x, theta, [1.0, -1.0, 0.5, 2.0])
        elif path == "studentized":
            studentized_path(identity_kernel(), x, theta)
        else:
            studentized_value(identity_kernel(), x, theta, 2)


def test_pseudo_final_value_recomputed_independently():
    # product kernel m=2, a=2, example-density data: final value must equal
    # (n/2)(U_n - a^2) / V_n recomputed from scratch
    a, n = 2.0, 50
    kernel = product_kernel(2, a=a)
    data = sample(example_density(a), n, 77)
    proj = data * a - a ** 2
    path = pseudo_selfnormalized_path(kernel, data, a ** 2, proj)
    v_n = math.sqrt(float(np.sum(proj ** 2)))
    want = (n / 2) * (u_statistic(kernel, data) - a ** 2) / v_n
    assert path.values[n] == pytest.approx(want, rel=1e-10)
    assert np.all(path.values[:2] == 0.0)


def test_studentized_m1_t_statistic():
    # final value is the classical t-statistic sqrt(n) (xbar - theta) / s
    rng = np.random.default_rng(13)
    x = rng.normal(0.3, 1.7, 40)
    theta = 0.1
    path = studentized_path(identity_kernel(), x, theta)
    s = np.std(x, ddof=1)
    want = math.sqrt(len(x)) * (np.mean(x) - theta) / s
    assert path.values[-1] == pytest.approx(want, rel=1e-10, abs=1e-10)

    path0 = studentized_path(identity_kernel(), [0.0, 2.0], 1.0)
    assert path0.values[-1] == pytest.approx(0.0, abs=1e-14)
    path1 = studentized_path(identity_kernel(), [0.0, 2.0], 0.0)
    assert path1.values[-1] == pytest.approx(1.0, abs=1e-14)


def test_studentized_degenerate_constant_kernel():
    with pytest.raises(DegenerateNormalizerError) as path_error:
        studentized_path(constant_kernel(2.0, m=2), [1.0, 2.0, 3.0], 2.0)
    with pytest.raises(DegenerateNormalizerError) as value_error:
        studentized_value(constant_kernel(2.0, m=2), [1.0, 2.0, 3.0], 2.0, 3)
    assert str(value_error.value) == str(path_error.value)


@pytest.mark.parametrize("kernel", [identity_kernel(), product_kernel(2),
                                    variance_kernel(), product_kernel(3),
                                    make_kernel("sum", 2, lambda x, y: x + y)],
                         ids=["identity", "product2", "variance", "product3", "user"])
def test_studentized_value_is_the_path_at_k(kernel):
    x = sample(normal(0.5, 2.0), 40, 8)
    theta = 0.3
    path = studentized_path(kernel, x, theta)
    for k in (kernel.order, 17, 40):
        assert studentized_value(kernel, x, theta, k) == pytest.approx(
            path.values[k], rel=1e-9, abs=1e-12)
    # at k = n, U_n is the jackknife's own
    summary = jackknife_closed_form(kernel, x)
    assert studentized_value(kernel, x, theta, 40) == \
        40 * (summary.u_n - theta) / math.sqrt(40 * summary.sum_sq)
    for k in (kernel.order - 1, 41):
        with pytest.raises(InsufficientDataError):
            studentized_value(kernel, x, theta, k)
    assert studentized_value(kernel, x, theta, np.int64(17)) == \
        studentized_value(kernel, x, theta, 17)
    for k in (5.5, 17.0, True, "17"):
        with pytest.raises(InvalidArgumentError, match="k must be an integer"):
            studentized_value(kernel, x, theta, k)
    with pytest.raises(DomainError):
        studentized_value(kernel, x, math.nan, 40)


SUP_KERNELS = {
    "identity": identity_kernel(),
    "product2": product_kernel(2, a=2.0),
    "product3": product_kernel(3),
    "variance": variance_kernel(),
}
SUP_LAWS = {"normal": normal(0.5, 2.0), "example": example_density(2.0),
            "pareto": pareto(2.5, 1.5)}


def _reference_path(kernel, x, theta):
    """k (U_k - theta) / scale from the public jackknife and prefix values,
    in the order of operations of the path's definition."""
    summary = jackknife_closed_form(kernel, x)
    scale = math.sqrt(summary.n * summary.sum_sq)
    values = u_prefix_process(kernel, x).values
    m = kernel.order
    values[:m] = 0.0
    values[m:] = (values[m:] - theta) * np.arange(m, len(x) + 1, dtype=np.float64) / scale
    return values


@pytest.mark.parametrize("truncated", [False, True], ids=["full", "full-m"])
@pytest.mark.parametrize("law", sorted(SUP_LAWS))
@pytest.mark.parametrize("name", sorted(SUP_KERNELS))
def test_fclt_sup_is_the_sup_of_the_path(name, law, truncated):
    # FCLT_SUP's replication value, sup_functional(_studentized(...)) on a
    # checked sample, and the public path both equal the path built from
    # jackknife_closed_form and u_prefix_process bit for bit, whichever
    # route runs
    n = 150
    kernel = SUP_KERNELS[name]
    x = sample(SUP_LAWS[law], n, 21).copy()
    if truncated:
        kernel = truncate_kernel(kernel, TruncationRule(TruncationMode.FULL_M, n))
        x[7] = 1e4
        assert _accel.max_abs_kernel(kernel.accel_code, x, kernel.order) > \
            kernel.accel_thr
    u_n = u_statistic(kernel, x)
    step = 0.1 * (abs(u_n) + 1.0)
    for theta in (u_n - step, u_n, u_n + step):
        want = _reference_path(kernel, x, theta)
        assert np.array_equal(studentized_path(kernel, x, theta).values, want)
        assert sup_functional(_studentized(kernel, x, theta)) == float(np.max(want))
    # theta above every U_k: the path is negative past t = 0, so the sup is
    # the 0 there
    top = float(np.nanmax(u_prefix_process(kernel, x).values)) + 1.0
    assert np.max(studentized_path(kernel, x, top).values[kernel.order:]) < 0
    assert sup_functional(_studentized(kernel, x, top)) == 0.0 == \
        float(np.max(_reference_path(kernel, x, top)))


def test_fclt_sup_of_the_constant_kernel_is_degenerate():
    x = sample(normal(0, 1), 40, 2)
    with pytest.raises(DegenerateNormalizerError) as path_error:
        sup_functional(studentized_path(constant_kernel(2.0, m=2), x, 1.0))
    with pytest.raises(DegenerateNormalizerError) as sup_error:
        sup_functional(_studentized(constant_kernel(2.0, m=2), x, 1.0))
    assert str(sup_error.value) == str(path_error.value)


N_MEMORY = 100_000
MEMORY_THETA = {"identity": 0.0, "product2": 0.0, "variance": 1.0}


def _memory_kernel(name):
    return {"identity": identity_kernel(), "product2": product_kernel(2),
            "variance": variance_kernel()}[name]


def _peak_vectors(fn, *args):
    """Peak traced allocation of fn(*args), in float64 vectors of N_MEMORY."""
    fn(*args)  # builds the cached binomial columns
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1] / (8 * N_MEMORY)
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("name", sorted(MEMORY_THETA))
def test_studentized_path_holds_two_vectors(name):
    # the path is built in the prefix buffer, the jackknife centers its q
    # vector in place and releases it before the prefix pass: one n-vector
    # above the sample for the identity, two where _accel's product and
    # variance routes take them, plus index blocks of a twentieth of one
    x = sample(normal(0, 1), N_MEMORY, 5)
    kernel = _memory_kernel(name)
    assert _accel._keeps_all(kernel.accel_code, kernel.accel_thr, x, kernel.order)
    limit = 1.05 if name == "identity" else 2.05
    assert _peak_vectors(studentized_path, kernel, x, MEMORY_THETA[name]) <= limit


def test_truncated_studentized_path_holds_nothing_past_its_sort_route():
    # a FULL_M-truncated product whose truncation bites runs the sort
    # routes, whose merge levels hold many n-vectors; the path adds none
    kernel = truncate_kernel(product_kernel(2, a=2.0),
                             TruncationRule(TruncationMode.FULL_M, N_MEMORY))
    x = sample(example_density(2.0), N_MEMORY, 5).copy()
    x[7] = 1e7
    code, thr = kernel.accel_code, kernel.accel_thr
    assert _accel.max_abs_kernel(code, x, 2) > thr
    route_peak = max(_peak_vectors(_accel.prefix_sums, code, thr, x, 2),
                     _peak_vectors(_accel.q_raw, code, thr, x, 2))
    assert _peak_vectors(studentized_path, kernel, x, 4.0) <= route_peak + 0.05


def _bites(kernel, n):
    return truncate_kernel(kernel, TruncationRule(TruncationMode.FULL_M, n))


UNTOUCHED = {
    "identity": (identity_kernel(), "closed-form"),
    "product2": (product_kernel(2), "closed-form"),
    "product3": (product_kernel(3), "closed-form"),
    "variance": (variance_kernel(), "closed-form"),
    "product1-sort": (_bites(product_kernel(1), 30), "sort"),
    "product2-sort": (_bites(product_kernel(2), 30), "sort"),
    "product3-sort": (_bites(product_kernel(3), 30), "sort"),
    "variance-sort": (_bites(variance_kernel(), 30), "sort"),
    "user1": (make_kernel("cube", 1, lambda x: x * x * x), "enumeration"),
    "user2": (make_kernel("sum", 2, lambda x, y: x + y), "enumeration"),
}


@pytest.mark.parametrize("name", sorted(UNTOUCHED))
def test_paths_leave_data_and_columns_untouched(name):
    # the prefix buffer and the jackknife's q are overwritten in place:
    # neither may be the data or a cached column
    kernel, route = UNTOUCHED[name]
    code, thr = kernel.accel_code, kernel.accel_thr
    x = sample(normal(0, 1), 30, 3)
    x[4] = 400.0
    x.flags.writeable = False
    before = x.copy()
    # the route _accel takes on this sample: its answer, or the enumeration
    # where it declines; the closed form where the threshold keeps all of h
    q_raw = _accel.q_raw(code, thr, x, kernel.order)
    assert route == ("enumeration" if q_raw is None else "closed-form"
                     if _accel._keeps_all(code, thr, x, kernel.order) else "sort")
    studentized_path(kernel, x, 0.1)
    columns = {m: col.copy() for m, col in _accel._COLUMNS.items()}
    assert {1, kernel.order} <= set(columns)
    outputs = [studentized_path(kernel, x, 0.1).values,
               u_prefix_process(kernel, x).values,
               pseudo_selfnormalized_path(kernel, x, 0.1, x - 0.1).values,
               jackknife_closed_form(kernel, x).q]
    assert np.array_equal(x, before)
    for m, col in _accel._COLUMNS.items():
        assert not col.flags.writeable
        assert np.array_equal(col, columns[m])
        assert not any(np.shares_memory(out, col) for out in outputs)
    assert not any(np.shares_memory(out, x) for out in outputs)
    # _accel's q_raw is fresh on every route, the order-1 product's too
    assert q_raw is None or not np.shares_memory(q_raw, x)


def test_scale_invariance():
    rng = np.random.default_rng(19)
    x = rng.normal(1, 2, 25)
    theta = 0.4
    for c in (2.0, 7.5):
        base = studentized_path(identity_kernel(), x, theta)
        scaled = studentized_path(identity_kernel(), c * x, c * theta)
        assert scaled.values == pytest.approx(base.values, rel=1e-9, abs=1e-12)


def test_zero_branch_exact():
    x = sample(normal(0, 1), 20, 4)
    path = studentized_path(product_kernel(3), x, 0.0)
    assert np.all(path.values[:3] == 0.0)
    assert path.values[3] != 0.0


def test_sup_examples():
    p = StepProcess(n=2, m=1, values=np.array([0.0, 1 / math.sqrt(2), 0.0]))
    assert sup_functional(p) == pytest.approx(1 / math.sqrt(2))
    z = StepProcess(n=2, m=1, values=np.zeros(3))
    assert sup_functional(z) == 0.0
    neg = StepProcess(n=2, m=1, values=np.array([0.0, -1.0, -2.0]))
    assert sup_functional(neg) == 0.0
    assert abs_sup_functional(neg) == 2.0


def test_csv_round_trip():
    x = sample(normal(0, 1), 10, 6)
    path = studentized_path(identity_kernel(), x, 0.0)
    buf = io.StringIO()
    path_to_csv(path, buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "k,t,value"
    assert len(lines) == path.n + 2
    k, t, v = lines[4].split(",")
    assert int(k) == 3
    assert float(t) == pytest.approx(3 / 10)
    assert float(v) == path.values[3]
