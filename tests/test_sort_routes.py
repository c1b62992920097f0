"""The sort routes of the truncated built-in kernels against exact oracles
and against the enumeration route.

Covered: the product kernel of order 1, 2 and 3 and the variance kernel,
and the product kernel of order 4 and 5, which has no sort route, so a
sample the truncation bites is enumerated;
LOG, LEVEL_J and FULL_M thresholds and thresholds that keep none, some or
all evaluations, the peak |h| itself among them; data with ties, zeros,
sign changes and scales from 1e-100 to 1e100; values placed next to the
threshold, where a cut found by ``searchsorted`` on thr / |x| alone is
off by one; sums that round past the float range.  Each check runs as the library runs, where a threshold that
keeps every evaluation takes the closed form, and again with that
shortcut off, so the sort route runs on every case.
"""

import dataclasses
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ustatlab import (
    ResourceLimitError,
    TruncationMode,
    TruncationRule,
    jackknife_closed_form,
    product_kernel,
    studentized_path,
    truncate_kernel,
    u_prefix_process,
    variance_kernel,
)
from ustatlab import _accel, engine
from ustatlab.engine import ROUTE_ENUMERATION, ROUTE_SORT, combination_sum, kernel_route

# every route evaluates under np.errstate, so an overflow is a value, not a warning
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

# the oracles multiply in index order, (x_i x_j) x_k, as the enumeration does
KERNELS = {
    "product1": (product_kernel(1), lambda x: x),
    "product2": (product_kernel(2), lambda x, y: x * y),
    "product3": (product_kernel(3), lambda x, y, z: x * y * z),
    "product4": (product_kernel(4), lambda w, x, y, z: w * x * y * z),
    "product5": (product_kernel(5), lambda v, w, x, y, z: v * w * x * y * z),
    "variance": (variance_kernel(), lambda x, y: 0.5 * ((x - y) * (x - y))),
}


def _kept(fn, x, m, thr):
    """Each m-combination of x's indices with its kept value h as an exact
    Fraction, 0 where the truncation drops it."""
    return [(c, Fraction(v) if abs(v := fn(*(x[i] for i in c))) <= thr else Fraction(0))
            for c in itertools.combinations(range(len(x)), m)]


def _tolerance(name, kept, x):
    """Absolute error allowed, exact: 1e-12 of the kept |h| summed (product),
    or of n times the squared spread of the data (variance, whose sums of
    powers of x cancel down to the kept differences)."""
    if name == "variance":
        return Fraction(1e-12 * len(x) * (max(x) - min(x)) ** 2 + 1e-300)
    return Fraction(1e-12) * sum(abs(v) for _, v in kept) + Fraction(1e-300)


def _agrees(got, scale, exact, tol):
    """got * scale is within tol of the exact sum, compared exactly; where
    that sum rounds past the float range, got is the infinity of its sign."""
    if math.isfinite(got):
        return abs(Fraction(got) * scale - exact) <= tol
    try:
        float(exact)
    except OverflowError:
        return got == (math.inf if exact > 0 else -math.inf)
    return False


def check_against_oracle(name, kernel, x):
    """combination_sum, u_prefix_process at every k and the jackknife q of
    ``kernel`` against exact sums over ``x``, with and without the
    closed-form shortcut."""
    _check_against_oracle(name, kernel, x)
    with pytest.MonkeyPatch.context() as mp:
        # an infinite bound never clears thr: the sort route runs
        mp.setattr(_accel, "max_abs_kernel", lambda code, data, m: math.inf)
        _check_against_oracle(name, kernel, x)


def _check_against_oracle(name, kernel, x):
    base, fn = KERNELS[name]
    m, n = kernel.order, len(x)
    kept = _kept(fn, x, m, kernel.accel_thr)
    tol = _tolerance(name, kept, x)
    by_last = [Fraction(0)] * n
    q = [Fraction(0)] * n
    for c, v in kept:
        by_last[c[-1]] += v
        for i in c:
            q[i] += v
    assert _agrees(combination_sum(kernel, x), 1, sum(by_last), tol)
    sums = u_prefix_process(kernel, x).values
    for k in range(m, n + 1):
        assert _agrees(sums[k], math.comb(k, m), sum(by_last[:k]), tol), k
    if n > m:
        got = jackknife_closed_form(kernel, x).q
        scale = math.comb(n - 1, m - 1)
        assert all(_agrees(g, scale, want, tol) for g, want in zip(got, q))


# ---------------------------------------------------------------------------
# property tests
# ---------------------------------------------------------------------------

ATOMS = st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 7.25])
VALUES = st.builds(lambda sign, mantissa, e: sign * mantissa * 10.0 ** e,
                   st.sampled_from([-1.0, 1.0]), st.one_of(ATOMS, st.floats(0.1, 10.0)),
                   st.integers(-2, 2))


@st.composite
def rules(draw, m):
    n = draw(st.integers(2, 10 ** 6))
    mode = draw(st.sampled_from(["log", "level-j", "full-m"] if m > 1 else ["log", "full-m"]))
    if mode == "log":
        return TruncationRule(TruncationMode.LOG, n)
    if mode == "level-j":
        return TruncationRule(TruncationMode.LEVEL_J, n, j=draw(st.integers(1, m - 1)))
    return TruncationRule(TruncationMode.FULL_M, n)


def _near_threshold(name, x, thr, ulps):
    """A value that puts one evaluation with x's first points next to thr."""
    if name == "variance":
        v = x[0] + math.sqrt(2.0 * thr)
    else:
        head = math.prod(x[:KERNELS[name][0].order - 1])
        v = thr / head if head != 0.0 and math.isfinite(thr / head) else 1.0
    for _ in range(abs(ulps)):
        v = math.nextafter(v, math.copysign(math.inf, ulps))
    return v


@st.composite
def cases(draw, name):
    m = KERNELS[name][0].order
    rule = draw(rules(m))
    scale = 10.0 ** draw(st.integers(-100, 100))
    x = [v * scale for v in draw(st.lists(VALUES, min_size=m + 1, max_size=9 if m >= 3 else 11))]
    kernel = truncate_kernel(KERNELS[name][0], rule)
    if draw(st.booleans()):
        x.insert(draw(st.integers(m - 1, len(x))),
                 _near_threshold(name, x, kernel.accel_thr, draw(st.integers(-2, 2))))
    peak = _accel.max_abs_kernel(kernel.accel_code, x, m)
    if math.isfinite(peak) and draw(st.booleans()):
        # the threshold at the peak |h|: everything is kept
        kernel = dataclasses.replace(kernel, accel_thr=peak)
    return kernel, x


@pytest.mark.parametrize("name", sorted(KERNELS))
@given(data=st.data())
def test_sort_route_against_oracle(name, data):
    kernel, x = data.draw(cases(name))
    assert kernel_route(kernel) == ROUTE_SORT
    check_against_oracle(name, kernel, x)


def test_sum_past_the_float_range_is_infinite():
    # every triple is kept, and their products sum to about -1.8175e308,
    # which rounds to -inf; the prefix sums and q stay finite
    x = [-1e102, -3e102, -7.250000000000001e102, -5e102]
    kernel = truncate_kernel(product_kernel(3), TruncationRule(TruncationMode.LOG, 2))
    kernel = dataclasses.replace(
        kernel, accel_thr=_accel.max_abs_kernel(kernel.accel_code, x, 3))
    assert kernel.accel_thr == 1.0875e308
    assert combination_sum(kernel, x) == -math.inf
    check_against_oracle("product3", kernel, x)


def test_closed_form_past_the_float_range_defers_to_the_enumeration():
    # the exact sums are finite, but a closed form's order of additions
    # is not: the ESP running sums add the three positive triples
    # (2.005e308) before the negative one, and the variance kernel's
    # 3 S2^2 passes the float range, though h^2 = 4 a^4 does not.  The
    # reductions decline, and the enumeration sums in range
    x = [-5e101, -7.25e102, -6e102, 4e102]
    product3 = product_kernel(3)
    assert _accel.ustat_sum(product3.accel_code, math.inf, x, 3) is None
    assert combination_sum(product3, x) == 1.7874999999999998e+308
    a = 3e307 ** 0.25
    h = 2 * a * a
    variance = variance_kernel()
    assert _accel.square_sum(variance.accel_code, math.inf, [a, -a], 2) is None
    assert engine._square_sum(variance, np.array([a, -a])) == h * h


def test_replaced_threshold_moves_every_route():
    # the threshold lives in accel_thr alone, so replacing it moves the
    # closed form and the enumeration together: the one nonzero product,
    # -0.5 * 1 * -0.5 * -5 = -1.25, is kept at the new threshold, though
    # the rule's log 2 would drop it
    x = [-0.0, -0.0, -0.5, 1.0, -0.5, -5.0]
    kernel = truncate_kernel(product_kernel(4), TruncationRule(TruncationMode.LOG, 2))
    kernel = dataclasses.replace(kernel, accel_thr=1.2500000000000018)
    assert combination_sum(kernel, x) == -1.25
    with pytest.MonkeyPatch.context() as mp:
        # an infinite bound never clears thr: the enumeration runs
        mp.setattr(_accel, "max_abs_kernel", lambda code, data, m: math.inf)
        assert combination_sum(kernel, x) == -1.25
    check_against_oracle("product4", kernel, x)


# a threshold of exactly 1.0 (FULL_M at n = 1)
CUT = TruncationRule(TruncationMode.FULL_M, 1)


@pytest.mark.parametrize("name", sorted(KERNELS))
@pytest.mark.parametrize("keep", ["none", "some", "all"])
def test_sort_route_keeps_none_some_or_all(name, keep):
    base, fn = KERNELS[name]
    kernel = truncate_kernel(base, CUT)
    m = base.order
    x = np.random.default_rng(3).normal(0.5, 1.5, 9)
    x = list(x * {"none": 1e3, "some": 1.0, "all": 1e-3}[keep])
    values = [fn(*c) for c in itertools.combinations(x, m)]
    kept = sum(abs(v) <= 1.0 for v in values)
    if keep == "none":
        assert kept == 0
    elif keep == "all":
        assert kept == len(values)
    else:
        assert 0 < kept < len(values)
    check_against_oracle(name, kernel, x)


# ---------------------------------------------------------------------------
# kept set next to the threshold
# ---------------------------------------------------------------------------

def _boundary_data(name, thr, kept):
    """Data with an evaluation next to thr that a cut found by searchsorted
    alone misplaces: kept but guessed dropped (``kept``) or the reverse.
    The first m - 1 points of the evaluation, then its last point with the
    ulp neighbours; None if no such point turns up for this thr."""
    rng = np.random.default_rng(17)
    m = KERNELS[name][0].order
    for _ in range(200):
        if name == "variance":
            head = [float(rng.uniform(-1.0, 1.0))]
            x0, cut = head[0], head[0] + math.sqrt(2.0 * thr)

            def holds(v):
                return 0.5 * ((v - x0) * (v - x0)) <= thr
        else:
            head = [float(v) for v in rng.uniform(0.3, 3.0, m - 1)]
            a = math.prod(head)
            cut = thr / a

            def holds(v):
                return a * v <= thr
        near = [cut]
        for _ in range(4):
            near = [math.nextafter(near[0], -math.inf)] + near + [
                math.nextafter(near[-1], math.inf)]
        for v in near:
            if holds(v) == kept and (v <= cut) != kept:
                return head + [math.nextafter(v, -math.inf), v, math.nextafter(v, math.inf)]
    return None


@pytest.mark.parametrize("name", ["product2", "product3", "variance"])
@pytest.mark.parametrize("kept", [True, False], ids=["guess-too-low", "guess-too-high"])
def test_sort_route_kept_set_next_to_threshold_matches_enumeration(name, kept):
    # where in its binade thr falls decides which misguess can occur
    for n in range(2, 100):
        kernel = truncate_kernel(KERNELS[name][0], TruncationRule(TruncationMode.FULL_M, n))
        x = _boundary_data(name, kernel.accel_thr, kept)
        if x is not None:
            break
    enumerated = dataclasses.replace(kernel, accel_code=None)
    assert kernel_route(enumerated) == ROUTE_ENUMERATION
    x += [0.0, 1.0, -2.0, 0.5]
    m, n = kernel.order, len(x)
    # a wrongly kept or dropped evaluation moves a sum by about thr
    tol = 1e-9 * kernel.accel_thr
    assert combination_sum(kernel, x) == pytest.approx(
        combination_sum(enumerated, x), rel=0, abs=tol)
    assert np.allclose(u_prefix_process(kernel, x).values[m:],
                       u_prefix_process(enumerated, x).values[m:], rtol=0, atol=tol)
    assert np.allclose(jackknife_closed_form(kernel, x).q * math.comb(n - 1, m - 1),
                       jackknife_closed_form(enumerated, x).q * math.comb(n - 1, m - 1),
                       rtol=0, atol=tol)
    check_against_oracle(name, kernel, x)


# ---------------------------------------------------------------------------
# the closed-form shortcut
# ---------------------------------------------------------------------------

class SortRouteRan(Exception):
    pass


@pytest.mark.parametrize("name", ["product2", "product3", "variance", "product4", "product5"])
def test_clearing_bound_skips_the_sort_route(name, monkeypatch):
    # FULL_M keeps every evaluation of these samples, so their Studentized
    # path runs neither a sort route nor the enumeration and equals the
    # untruncated kernel's; one value past the threshold sends it to the
    # sort route, or past order 3, which has none, to an enumeration of
    # C(500, m) combinations, which the engine refuses
    def ran(*args, **kwargs):
        raise SortRouteRan

    monkeypatch.setattr(_accel, "_dominance", ran)
    monkeypatch.setattr(_accel, "_settle", ran)
    monkeypatch.setattr(engine, "_combination_blocks", ran)
    n = 500
    base = KERNELS[name][0]
    kernel = truncate_kernel(base, TruncationRule(TruncationMode.FULL_M, n))
    assert kernel_route(kernel) == ROUTE_SORT
    x = np.random.default_rng(67).normal(1.0, 1.0, n)
    assert np.array_equal(studentized_path(kernel, x, 1.0).values,
                          studentized_path(base, x, 1.0).values)
    x[n // 2] = 1e3 * kernel.accel_thr
    with pytest.raises(SortRouteRan if base.order <= 3 else ResourceLimitError):
        studentized_path(kernel, x, 1.0)
