import ast
import itertools
import math
import pathlib
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ustatlab import product_kernel, variance_kernel
from ustatlab.kernels import eval_kernel_rows

from ustatlab._accel import (
    KERNEL_CONSTANT,
    KERNEL_PRODUCT,
    KERNEL_VARIANCE,
    max_abs_kernel,
    prefix_sums,
    q_raw,
    shared_pair_total,
    square_sum,
    ustat_sum,
)

from _oracles import brute_q, exact_product_q


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
    assert shared_pair_total(KERNEL_PRODUCT, math.inf, x) == pytest.approx(want, rel=1e-10)


def test_max_abs_kernel():
    x = np.array([-3.0, 0.5, 2.0, -1.0])
    assert max_abs_kernel(KERNEL_PRODUCT, x, 2) == pytest.approx(6.0)
    assert max_abs_kernel(KERNEL_VARIANCE, x, 2) == pytest.approx(12.5)
    assert max_abs_kernel(KERNEL_PRODUCT, x, 1) == pytest.approx(3.0)
    assert max_abs_kernel((KERNEL_CONSTANT, -0.7), x, 3) == 0.7
    # a * a underflows to the least subnormal, 5/3 of its exact value, so the
    # enumeration's (a * a) * c exceeds (c * a) * a by far more than a few
    # ulps: the bound takes every order of the factors
    a, c = math.sqrt(0.6) * 2.0 ** -537, 2.0 ** 1000
    assert max_abs_kernel(KERNEL_PRODUCT, [a, a, c], 3) == (a * a) * c > 1.5 * ((c * a) * a)


def test_product_q_raw_accurate_to_its_terms():
    # e_1 - x_i cancels at the largest point: q_raw[0] is exactly 1e10 * 5e-10
    x = np.array([1e10, 1e-10, 1e-10, 3e-10])
    assert q_raw(KERNEL_PRODUCT, math.inf, x, 2)[0] == pytest.approx(5.0, rel=1e-15)
    # per point, against the exact sum and relative to the sum of its |h|
    rng = np.random.default_rng(61)
    for trial in range(300):
        n = int(rng.integers(3, 9))
        m = int(rng.integers(2, min(n, 4) + 1))
        x = rng.normal(0, 1, n) * 10.0 ** rng.uniform(-8, 8, n if trial % 2 else 1)
        x[rng.random(n) < 0.2] = 0.0
        got = q_raw(KERNEL_PRODUCT, math.inf, x, m)
        want, size = exact_product_q(x.tolist(), m)
        for i in range(n):
            assert abs(Fraction(float(got[i])) - want[i]) <= 2e-15 * size[i], (x, m, i)


BOUNDED = [(KERNEL_PRODUCT, 1), (KERNEL_PRODUCT, 2), (KERNEL_PRODUCT, 3),
           (KERNEL_PRODUCT, 4), (KERNEL_PRODUCT, 5), (KERNEL_VARIANCE, 2)]
MAGNITUDES = st.builds(lambda sign, mantissa, e: sign * mantissa * 10.0 ** e,
                       st.sampled_from([-1.0, 1.0]),
                       st.one_of(st.sampled_from([0.0, 0.5, 1.0, 3.0]), st.floats(0.1, 10.0)),
                       st.integers(-3, 3))


@given(data=st.data())
def test_max_abs_kernel_bounds_every_enumerated_value(data):
    # every |h| as the enumeration rounds it, ties, zeros, underflow and
    # overflow included, with no margin
    code, m = data.draw(st.sampled_from(BOUNDED))
    scale = 10.0 ** data.draw(st.integers(-100, 100))
    x = [v * scale for v in data.draw(st.lists(MAGNITUDES, min_size=m, max_size=8))]
    if data.draw(st.booleans()):
        extreme = data.draw(st.sampled_from([1e154, -1e200, 1.7e308, -1.7e308, 2.2e-308,
                                             -5e-324]))
        x.insert(data.draw(st.integers(0, len(x))), extreme)
    kernel = product_kernel(m) if code == KERNEL_PRODUCT else variance_kernel()
    with np.errstate(all="ignore"):
        h = np.abs(eval_kernel_rows(kernel, np.array(list(itertools.combinations(x, m)))))
    bound = max_abs_kernel(code, x, m)
    if np.isfinite(h).all():
        assert bound >= h.max()
    else:  # an overflowed evaluation
        assert bound == math.inf
    if code == KERNEL_VARIANCE or m <= 2:
        assert bound == h.max()  # one rounding: the bound is attained


@pytest.mark.parametrize("m", [4, 5])
def test_high_order_closed_form_only_where_the_enumeration_keeps_all(m):
    # Cauchy data with planted extremes, and thr at every multiplication
    # order's rounded product of the m largest |x|, one ulp either side and
    # at the bound itself: _accel answers only where every |h| that the
    # enumeration forms in index order is <= thr, and then with the
    # untruncated sum; elsewhere it declines.  In the ``ordered`` rows,
    # taken in index order, a * a rounds to 0 but (2^1000 a) a does not,
    # and 1e200 * 1e200 overflows where the ascending product is 1e200.
    a = math.sqrt(0.4) * 2.0 ** -537
    rest = [3.0] * (m - 4) + [0.0] * 3
    ordered = [[2.0 ** 1000, a, a, 2.0 ** 10] + rest, [a, a, 2.0 ** 1000, 2.0 ** 10] + rest,
               [1e200, 1e200, 1e-100, 1e-100] + rest]
    planted = [[1e150, -1e150, 1e-200, 3.0], [0.0, -5e-324, 1e300, 1e8],
               [1e-100, 1e-100, 1e-100, 1e-100], [a, a, 2.0 ** 1000, 2.0 ** 10]]
    rng = np.random.default_rng(80 + m)
    answered = 0
    for trial in range(40):
        x = rng.standard_cauchy(m + 3)
        if trial < len(ordered):
            x = np.array(ordered[trial])
        elif trial < len(ordered) + len(planted):
            x[rng.permutation(x.size)[:4]] = planted[trial - len(ordered)]
        else:
            x[rng.integers(x.size)] *= 10.0 ** rng.integers(-300, 300)
        with np.errstate(all="ignore"):
            h = np.abs(eval_kernel_rows(product_kernel(m),
                                        np.array(list(itertools.combinations(x, m)))))
        top = sorted(np.abs(x).tolist())[-m:]
        thresholds = {max_abs_kernel(KERNEL_PRODUCT, x, m)}
        for order in itertools.permutations(top):
            p = math.prod(order)
            thresholds |= {math.nextafter(p, -math.inf), p, math.nextafter(p, math.inf)}
        for thr in filter(math.isfinite, thresholds):
            got = ustat_sum(KERNEL_PRODUCT, thr, x, m)
            if got is not None:
                answered += 1
                assert (h <= thr).all(), (x.tolist(), thr)
                assert got == ustat_sum(KERNEL_PRODUCT, math.inf, x, m)
    assert answered >= 30


# ---------------------------------------------------------------------------
# sum of h^2
# ---------------------------------------------------------------------------

def _exact_variance_square_sum(x):
    """sum over i < j of ((x_i - x_j)^2 / 2)^2 in exact rational arithmetic."""
    x = [Fraction(v) for v in x]
    return sum(((a - b) ** 2 / 2) ** 2 for a, b in itertools.combinations(x, 2))


@given(base=st.lists(st.one_of(st.integers(-10 ** 6, 10 ** 6).map(lambda k: k / 1e5),
                               # Cauchy tails: tan(pi (u - 1/2))
                               st.floats(1e-6, 1.0 - 1e-6).map(
                                   lambda u: math.tan(math.pi * (u - 0.5)))),
                     min_size=2, max_size=8),
       shift=st.sampled_from([0.0, 1.0, -1e2, 1e4, 1e6, -1e8, 1e8]),
       scale=st.integers(-5, 5).map(lambda e: 10.0 ** e))
def test_variance_square_sum_against_exact_oracle(base, shift, scale):
    # the power sums are taken about the mean, so a shift costs no digits
    x = [shift + scale * v for v in base]
    exact = _exact_variance_square_sum(x)
    got = square_sum(KERNEL_VARIANCE, math.inf, x, 2)
    assert abs(Fraction(got) - exact) <= Fraction(1e-12) * exact, x


def test_constant_square_sum_is_exact():
    x = np.zeros(400)
    assert square_sum((KERNEL_CONSTANT, 1.0), math.inf, x, 2) == math.comb(400, 2)
    assert square_sum((KERNEL_CONSTANT, -3.0), math.inf, x, 3) == 9 * math.comb(400, 3)


# ---------------------------------------------------------------------------
# one dispatch point
# ---------------------------------------------------------------------------

_KERNEL_DECISIONS = {"MAX_SORT_ORDER", "MAX_SORT_PAIRS", "_keeps_all", "_sorts", "_constant"}


def _names_read(tree, module):
    """Names of ``ustatlab.<module>`` that a module reads: ``<module>.NAME``
    through any name bound to the module, or ``from .<module> import NAME``."""
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            for alias in node.names:
                if alias.name == module:  # from . import <module>
                    bound.add(alias.asname or alias.name)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == f"ustatlab.{module}" and alias.asname:
                    bound.add(alias.asname)
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) \
                and (node.module or "").rpartition(".")[2] == module:
            read.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                and node.value.id in bound:
            read.add(node.attr)
    return read


def _kernel_decisions_read(tree):
    """Names of ``_accel`` that pick between the built-in kernels or their
    routes, as a module reads them."""
    return {name for name in _names_read(tree, "_accel")
            if name.startswith("KERNEL_") or name in _KERNEL_DECISIONS}


def _library_modules():
    src = pathlib.Path(__file__).resolve().parents[1] / "src" / "ustatlab"
    modules = sorted(src.glob("*.py"))
    assert {"_accel.py", "engine.py", "jackknife.py", "decomposition.py"} \
        <= {p.name for p in modules}
    return {p.stem: ast.parse(p.read_text()) for p in modules}


def test_only_accel_tells_the_builtin_kernels_apart():
    # outside _accel, and kernels, which assigns the codes, no module reads
    # a kernel code or a route decision of _accel: the engine takes a
    # reduction's answer, or enumerates where it is None
    readers = {name: _kernel_decisions_read(tree) for name, tree in _library_modules().items()
               if name not in ("_accel", "kernels")}
    assert {name: read for name, read in readers.items() if read} == {}
    assert _kernel_decisions_read(ast.parse(
        "from . import _accel as a\nfrom ._accel import _keeps_all\n"
        "a.KERNEL_PRODUCT, a._sorts, a.ustat_sum")) \
        == {"KERNEL_PRODUCT", "_sorts", "_keeps_all"}


_REDUCTIONS = {"ustat_sum", "prefix_sums", "q_raw", "square_sum", "shared_pair_total",
               "max_abs_kernel"}
_ROUTING = {
    "_accel": _REDUCTIONS,
    "engine": {"_reduce", "_combination_blocks"},
}


def _routing_read(tree):
    """The names a module reads that choose between _accel and the
    enumeration, or run either: the reductions of _accel, and the route
    check and the enumeration of the engine."""
    return {f"{module}.{name}" for module, names in _ROUTING.items()
            for name in _names_read(tree, module) if name in names}


def test_only_engine_chooses_the_route():
    # every reduction of a kernel over a sample is an engine function: no
    # other module asks _accel for a reduction or enumerates itself
    readers = {name: _routing_read(tree) for name, tree in _library_modules().items()
               if name not in ("_accel", "engine")}
    assert {name: read for name, read in readers.items() if read} == {}
    assert _routing_read(ast.parse(
        "from .engine import _combination_blocks, _as_sample\nfrom . import engine as e, _accel\n"
        "e._reduce, _accel.q_raw, _accel._comb_column, e._total")) \
        == {"engine._combination_blocks", "engine._reduce", "_accel.q_raw"}


def _outside_reduce(tree):
    """What an engine module reads or calls outside the arguments of its
    ``_reduce`` calls: the ``_accel`` reductions it reads, the functions
    that call ``_combination_blocks``, and the names it calls."""
    inside = {id(node) for call in ast.walk(tree)
              if isinstance(call, ast.Call) and getattr(call.func, "id", None) == "_reduce"
              for arg in call.args for node in ast.walk(arg)}
    reductions = {node.attr for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "_accel"
                  and node.attr in _REDUCTIONS and id(node) not in inside}
    enumerating = {fn.name for fn in tree.body if isinstance(fn, ast.FunctionDef)
                   for node in ast.walk(fn) if isinstance(node, ast.Call)
                   and getattr(node.func, "id", None) == "_combination_blocks"
                   and id(node) not in inside}
    called = {node.func.id for node in ast.walk(tree)
              if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)}
    return reductions, enumerating, called


def test_every_engine_reduction_reaches_accel_and_the_enumeration_through_reduce():
    # an _accel reduction is read only as an argument of _reduce, and a
    # function that enumerates is only passed to _reduce, never called
    reductions, enumerating, called = _outside_reduce(_library_modules()["engine"])
    assert reductions == set()
    assert enumerating and not enumerating & called
    reductions, enumerating, called = _outside_reduce(ast.parse(
        "def _total(kernel, x):\n"
        "    return _reduce(kernel, x, _accel.ustat_sum, _listed)\n"
        "def _listed(kernel, x):\n"
        "    return list(_combination_blocks(kernel, x))\n"
        "def _q_raw(kernel, x):\n"
        "    return _accel.q_raw(None, 1.0, x, 2) or _listed(kernel, x)\n"))
    assert (reductions, enumerating, "_listed" in called) == ({"q_raw"}, {"_listed"}, True)
