import ast
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ustatlab import (
    DomainError,
    InvalidArgumentError,
    TruncationMode,
    TruncationRule,
    UnsupportedOperationError,
    constant_kernel,
    estimate_ell,
    eval_kernel,
    example_density,
    finite,
    identity_kernel,
    kernel_from_name,
    make_kernel,
    normal,
    pareto,
    product_kernel,
    project_h1,
    sample,
    theta_under,
    truncate_kernel,
    variance_kernel,
)
from ustatlab import _accel
from ustatlab.kernels import (_finite_mean, _projection_values, _projection_variance,
                              eval_kernel_rows)

from _oracles import finite_expectation

finite_floats = st.floats(min_value=-50, max_value=50, allow_nan=False)

BUILTINS = [identity_kernel(), product_kernel(2), product_kernel(3), variance_kernel()]


def test_eval_examples():
    assert eval_kernel(product_kernel(3), [1, 2, 3]) == 6
    assert eval_kernel(variance_kernel(), [0, 2]) == 2
    assert eval_kernel(product_kernel(2), [3, 5]) == 15
    assert eval_kernel(product_kernel(2), [5, 3]) == 15


def test_eval_errors():
    with pytest.raises(InvalidArgumentError):
        eval_kernel(product_kernel(2), [1, 2, 3])
    with pytest.raises(DomainError):
        eval_kernel(product_kernel(2), [1, math.inf])
    with pytest.raises(DomainError):
        eval_kernel(identity_kernel(), [math.nan])


@pytest.mark.parametrize("kernel", BUILTINS, ids=lambda k: k.name)
def test_permutation_symmetry(kernel):
    rng = np.random.default_rng(1234)
    for _ in range(1000):
        pts = rng.normal(0, 3, kernel.order)
        base = eval_kernel(kernel, pts)
        perm = rng.permutation(pts)
        assert eval_kernel(kernel, perm) == base


def test_projection_product_example_value():
    # product kernel, a=2, m=2, x=3: h1(3) = 3*2 - 4 = 2
    k = kernel_from_name("product:m=2,a=2")
    assert project_h1(k, 3.0, example_density(2.0)) == pytest.approx(2.0, abs=1e-12)


def test_projection_m1_is_centered_kernel():
    k = identity_kernel()
    d = normal(1.5, 2.0)
    for x in (-1.0, 0.0, 3.25):
        assert project_h1(k, x, d) == pytest.approx(x - 1.5, abs=1e-12)


def test_projection_variance_normal():
    # analytic h1(x) = (x^2 - 1)/2 under a standard normal
    k = variance_kernel()
    d = normal(0.0, 1.0)
    for x in (0.5, 2.0):
        assert project_h1(k, x, d) == pytest.approx((x ** 2 - 1) / 2, abs=1e-12)


def test_projection_finite_enumeration_matches_analytic():
    d = finite([-1.0, 0.5, 2.0], [0.2, 0.3, 0.5])
    k = product_kernel(2)
    bare = replace(product_kernel(2), projection=None)
    for x in (-1.0, 0.5, 2.0):
        exact = project_h1(bare, x, d)
        analytic = project_h1(k, x, d)
        assert exact == pytest.approx(analytic, abs=1e-12)
        oracle = finite_expectation(lambda y: x * y, d.points, d.probs, 1) \
            - finite_expectation(lambda a, b: a * b, d.points, d.probs, 2)
        assert exact == pytest.approx(oracle, abs=1e-12)


def test_projection_needs_an_exact_route():
    bare = replace(product_kernel(2), projection=None)
    with pytest.raises(UnsupportedOperationError):
        project_h1(bare, 1.0, normal(0, 1))


def test_truncation_full_m_example():
    # n=16, m=2: threshold 16^(6/5) ~ 27.86 checked against the direct power
    rule = TruncationRule(TruncationMode.FULL_M, n=16)
    k = truncate_kernel(product_kernel(2), rule)
    assert rule.threshold(2) == pytest.approx(16.0 ** 1.2, rel=1e-15)
    assert eval_kernel(k, [5, 5]) == 25
    assert eval_kernel(k, [6, 5]) == 0
    assert TruncationRule(TruncationMode.FULL_M, np.int64(16)).threshold(2) == rule.threshold(2)
    for n in (2.5, 16.0, True, "16"):
        with pytest.raises(InvalidArgumentError, match="truncation rule n must be an integer"):
            TruncationRule(TruncationMode.FULL_M, n).threshold(2)


def test_order_and_level_j_are_integers():
    # product_kernel(2.0) built an order-2.0 kernel, product_kernel(2.5)
    # failed in itertools.islice, and LEVEL_J at j = 1.5 took 100^0.9
    for m in (2.0, 2.5, True, "2"):
        for build in (product_kernel, lambda m: constant_kernel(1.0, m),
                      lambda m: make_kernel("user", m, lambda *xs: 0.0)):
            with pytest.raises(InvalidArgumentError,
                               match=f"^kernel order must be an integer, got {m!r}$"):
                build(m)
    with pytest.raises(InvalidArgumentError, match="^kernel order must be >= 1, got 0$"):
        product_kernel(0)
    assert product_kernel(np.int64(3)).order == 3
    for j in (1.5, 1.0, True, "1"):
        with pytest.raises(InvalidArgumentError,
                           match=f"^LEVEL_J j must be an integer, got {j!r}$"):
            TruncationRule(TruncationMode.LEVEL_J, 100, j=j).threshold(3)
    assert TruncationRule(TruncationMode.LEVEL_J, 100, j=np.int64(1)).threshold(3) \
        == 100.0 ** 0.6


def test_truncation_identity_when_bounded():
    rule = TruncationRule(TruncationMode.FULL_M, n=100)
    k = truncate_kernel(constant_kernel(0.5, m=2), rule)
    assert eval_kernel(k, [7, 9]) == 0.5
    # a truncated constant keeps its code, which carries c, at any order
    for m in (1, 2, 3, 4, 7):
        truncated = truncate_kernel(constant_kernel(2.5, m), rule)
        assert truncated.accel_code == constant_kernel(2.5, m).accel_code


def test_truncation_log_rule():
    rule = TruncationRule(TruncationMode.LOG, n=2)
    assert rule.threshold(2) == pytest.approx(math.log(2))
    k = truncate_kernel(constant_kernel(1.0, m=2), rule)
    assert eval_kernel(k, [0, 0]) == 0.0
    with pytest.raises(InvalidArgumentError):
        TruncationRule(TruncationMode.LOG, n=1).threshold(2)


def test_truncation_level_j_bounds():
    rule = TruncationRule(TruncationMode.LEVEL_J, n=10, j=1)
    assert rule.threshold(3) == pytest.approx(10 ** 0.6)
    with pytest.raises(InvalidArgumentError):
        TruncationRule(TruncationMode.LEVEL_J, n=10, j=3).threshold(3)
    with pytest.raises(InvalidArgumentError):
        TruncationRule(TruncationMode.LEVEL_J, n=10).threshold(2)
    # a j given to another mode was ignored: FULL_M at j = 1.5 gave 100^1.8
    for mode in (TruncationMode.FULL_M, TruncationMode.LOG):
        for j in (1.5, 1, 0):
            with pytest.raises(InvalidArgumentError, match="^LEVEL_J needs a j, and only "
                               f"LEVEL_J takes one: got j = {j}$"):
                TruncationRule(mode, 100, j=j).threshold(3)


RULES = st.builds(TruncationRule, st.sampled_from([TruncationMode.LOG, TruncationMode.FULL_M]),
                  st.integers(2, 40))


@pytest.mark.parametrize("base", [product_kernel(2), make_kernel("sum", 2, lambda x, y: x + y)],
                         ids=["product", "user"])
@given(pts=st.lists(finite_floats, min_size=2, max_size=2), r1=RULES, r2=RULES)
def test_truncation_idempotent_and_monotone(base, pts, r1, r2):
    # truncating at one threshold and then the other is truncating once at
    # their min, on the scalar and the row evaluator alike
    k1, k2 = truncate_kernel(base, r1), truncate_kernel(base, r2)
    both = truncate_kernel(k1, r2)
    assert both.accel_thr == min(k1.accel_thr, k2.accel_thr)
    lo = k1 if k1.accel_thr <= k2.accel_thr else k2
    v = eval_kernel(base, pts)
    assert eval_kernel(both, pts) == eval_kernel(lo, pts) == (v if abs(v) <= lo.accel_thr else 0.0)
    assert abs(eval_kernel(lo, pts)) <= min(abs(eval_kernel(k1, pts)), abs(eval_kernel(k2, pts)))
    assert eval_kernel(truncate_kernel(both, r1), pts) == eval_kernel(both, pts)
    assert eval_kernel_rows(both, np.array([pts]))[0] == eval_kernel(both, pts)


def test_registry_names():
    assert kernel_from_name("identity").order == 1
    k = kernel_from_name("product:m=3,a=2")
    assert k.order == 3 and k.theta == 8.0
    assert kernel_from_name("variance").order == 2
    assert kernel_from_name("constant:c=2,m=2").eval_fn(1, 1) == 2.0
    for bad in ("nope", "product:m=x", "product:q=1", "variance:m=2,",
                # non-finite parameters
                "constant:c=nan,m=2", "constant:c=inf", "product:m=2,a=inf",
                "product:m=2,a=nan"):
        with pytest.raises(InvalidArgumentError):
            kernel_from_name(bad)
    # an unknown or repeated argument is refused, not ignored or overwritten
    for bad in ("identity:m=3", "variance:m=2", "product:m=2,m=3", "product:a=1,a=2",
                "constant:c=1,c=4", "constant:c=1,a=2"):
        with pytest.raises(InvalidArgumentError, match="registry"):
            kernel_from_name(bad)


def test_registry_names_round_trip():
    # a with :g dropped digits: product:m=2,a=0.123457 pinned another theta
    for x in (0.1234567, 1 / 3, -2 / 3, 1e-300, 2.0, 0.5):
        for k in (product_kernel(2, a=x), product_kernel(3, a=x), constant_kernel(x),
                  constant_kernel(x, 2)):
            back = kernel_from_name(k.name)
            assert (back.name, back.order, back.theta) == (k.name, k.order, k.theta)
    assert product_kernel(2, a=2).name == "product:m=2,a=2"
    assert constant_kernel(0.5, 3).name == "constant:c=0.5,m=3"


def test_theta_under_matches_finite_enumeration():
    d = finite([-1.0, 2.0], [0.25, 0.75])
    cases = [
        (identity_kernel(), None),
        (product_kernel(2), lambda a, b: a * b),
        (variance_kernel(), lambda a, b: 0.5 * (a - b) ** 2),
    ]
    for kernel, fn in cases:
        theta = theta_under(kernel, d)
        if fn is None:
            oracle = finite_expectation(lambda x: x, d.points, d.probs, 1)
        else:
            oracle = finite_expectation(fn, d.points, d.probs, 2)
        assert theta == pytest.approx(oracle, abs=1e-12)


def test_variance_kernel_rounds_alike_on_every_path():
    # (x - y)^2 by one multiplication everywhere: for d = -1.5e10 - 1e7,
    # libm pow gives 0.5 * d**2 = 1.1265005000000001e20, one ulp above
    # 0.5 * (d * d), which the batch, the bound and the sort route compute
    x = [-0.0, -1.5e10, 1e7]
    kernel = variance_kernel()
    pairs = [(x[i], x[j]) for i in range(3) for j in range(i + 1, 3)]
    scalar = [eval_kernel(kernel, p) for p in pairs]
    batch = eval_kernel_rows(kernel, np.array(pairs)).tolist()
    assert scalar == batch
    assert max(scalar) == _accel.max_abs_kernel(_accel.KERNEL_VARIANCE, np.array(x), 2)
    assert max(scalar) == 1.1265005e20


# ---------------------------------------------------------------------------
# one theta, one h1, one finite-law expectation
# ---------------------------------------------------------------------------

LAWS = [normal(1.5, 2.0), example_density(2.0), pareto(3.0),
        finite([-1.0, 0.0, 2.0], [0.2, 0.3, 0.5])]


def _product_h1(m):
    return lambda x, d: x * d.mean ** (m - 1) - d.mean ** m


# each built-in's h1 as the scalar formula it had before its projection took
# arrays: the vectorized projection must round exactly as these do
SCALAR_H1 = {
    "identity": lambda x, d: x - d.mean,
    "product:m=1": _product_h1(1),
    "product:m=2": _product_h1(2),
    "product:m=3": _product_h1(3),
    "product:m=1,a=2": _product_h1(1),
    "product:m=2,a=2": _product_h1(2),
    "product:m=3,a=2": _product_h1(3),
    "constant:c=2.5": lambda x, d: 0.0,
    "constant:c=-1,m=2": lambda x, d: 0.0,
    "variance": lambda x, d: 0.5 * ((x - d.mean) * (x - d.mean) - d.variance),
}


def _counting(kernel):
    calls = []

    def projection(x, dist):
        calls.append(len(x))
        return kernel.projection(x, dist)

    return replace(kernel, projection=projection), calls


@pytest.mark.parametrize("dist", LAWS, ids=lambda d: d.kind)
@pytest.mark.parametrize("name", SCALAR_H1)
def test_projection_values_match_project_h1_bit_for_bit(name, dist):
    kernel = kernel_from_name(name)
    x = np.concatenate([sample(dist, 200, 5), [0.0, -0.0, dist.mean]])
    counted, calls = _counting(kernel)
    if name == "variance" and dist.variance is None:
        with pytest.raises(UnsupportedOperationError):
            project_h1(kernel, 1.0, dist)
        with pytest.raises(UnsupportedOperationError):
            _projection_values(counted, dist, x)
        return
    got = _projection_values(counted, dist, x)
    assert calls == [len(x)]
    per_point = np.array([project_h1(kernel, v, dist) for v in x])
    scalar = np.array([SCALAR_H1[name](float(v), dist) for v in x])
    assert got.tobytes() == per_point.tobytes() == scalar.tobytes()


def test_identity_is_the_order_one_product():
    ident, prod = identity_kernel(), product_kernel(1)
    assert ident.name == "identity"
    rows = np.array([[-0.0], [0.0], [1.5], [-3.25], [1e300]])
    for (v,) in rows:
        assert math.copysign(1, ident.eval_fn(v)) == math.copysign(1, prod.eval_fn(v))
        assert eval_kernel(ident, [v]) == eval_kernel(prod, [v]) == v
    assert eval_kernel_rows(ident, rows).tobytes() == eval_kernel_rows(prod, rows).tobytes()
    for d in LAWS:
        assert theta_under(ident, d) == theta_under(prod, d) == d.mean
        assert ident.affine_projection(d) == prod.affine_projection(d)
        assert ident.projection(rows[:, 0], d).tobytes() \
            == prod.projection(rows[:, 0], d).tobytes()
        for n in (10, 1000):
            assert estimate_ell(d, ident, n) == estimate_ell(d, prod, n)
    assert (ident.accel_code, ident.accel_thr) == (prod.accel_code, prod.accel_thr)


def _max_plus_prod(*xs):
    return max(xs) + math.prod(xs)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_finite_mean_matches_enumeration_oracle(m):
    d = finite([-1.0, 0.5, 2.0], [0.2, 0.3, 0.5])
    fn = _max_plus_prod
    kernel = make_kernel("max+prod", m, fn)
    theta = finite_expectation(fn, d.points, d.probs, m)
    assert _finite_mean(kernel, d) == pytest.approx(theta, abs=1e-12)
    assert theta_under(kernel, d) == _finite_mean(kernel, d)
    for x in (-1.0, 0.5, 2.0, 7.0):
        given_x = finite_expectation(lambda *ys: fn(x, *ys), d.points, d.probs, m - 1)
        assert _finite_mean(kernel, d, (x,)) == pytest.approx(given_x, abs=1e-12)
        assert project_h1(kernel, x, d) == pytest.approx(given_x - theta, abs=1e-12)


def test_theta_and_projection_variance_ignore_the_name():
    d = normal(1.0, 2.0)
    # user kernels named like the built-ins get no closed form
    impostors = [make_kernel("variance", 2, lambda x, y: x + y),
                 make_kernel("identity", 1, lambda x: 2.0 * x),
                 make_kernel("product:m=2", 2, lambda x, y: x + y)]
    for kernel in impostors:
        assert theta_under(kernel, d) is None
        assert _projection_variance(kernel, d) is None
    with pytest.raises(UnsupportedOperationError):
        estimate_ell(d, impostors[0], 10)
    # and a built-in under another name keeps them
    spread = replace(variance_kernel(), name="spread")
    assert theta_under(spread, d) == 4.0
    assert _projection_variance(spread, d) == 8.0
    assert estimate_ell(d, spread, 10).ell_sq == 8.0
    assert theta_under(replace(product_kernel(2), name="p2"), d) == 1.0


def test_truncated_kernels_keep_their_theta_routes():
    d, law = normal(0.0, 1.0), finite([-1.0, 0.5, 2.0], [0.2, 0.3, 0.5])
    c = math.log(4)  # keeps 0.5 (x - y)^2 = 1.125, drops 4.5
    cut = truncate_kernel(variance_kernel(), TruncationRule(TruncationMode.LOG, n=4))
    assert theta_under(cut, d) is None
    assert _projection_variance(cut, d) is None
    oracle = finite_expectation(lambda a, b: v if abs(v := 0.5 * (a - b) ** 2) <= c else 0.0,
                                law.points, law.probs, 2)
    assert theta_under(cut, law) == pytest.approx(oracle, abs=1e-12)


_NAME_PARSES = {"split", "rsplit", "partition", "rpartition", "startswith", "endswith"}


def _names_parsed(tree) -> list:
    """Line numbers where code splits, partitions or prefix-tests a ``.name``
    attribute, or tests membership in one or of one: the ways to read what
    a kernel is off its name."""
    def is_name(node):
        return isinstance(node, ast.Attribute) and node.attr == "name"

    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
                and node.func.attr in _NAME_PARSES and is_name(node.func.value):
            lines.append(node.lineno)
        elif isinstance(node, ast.Compare) \
                and any(isinstance(op, (ast.In, ast.NotIn)) for op in node.ops) \
                and any(is_name(e) for e in [node.left, *node.comparators]):
            lines.append(node.lineno)
    return sorted(lines)


def test_no_module_reads_a_kernel_off_its_name():
    # theta, h1 and Var h1 follow a kernel's fields and _accel code; its
    # name is only a label for reports and messages
    src = Path(__file__).resolve().parents[1] / "src" / "ustatlab"
    modules = sorted(src.glob("*.py"))
    assert {"kernels.py", "distributions.py"} <= {p.name for p in modules}
    parsed = {p.stem: _names_parsed(ast.parse(p.read_text())) for p in modules}
    assert {stem: lines for stem, lines in parsed.items() if lines} == {}
    assert _names_parsed(ast.parse(
        "base = kernel.name.split(':', 1)[0]\n"
        "if '|' not in kernel.name: pass\n"
        "head, _, rest = d.name.partition(':')\n"
        "spec.split(':'), name.partition(':'), k.order in (1, 2)\n"
        "x = k.name in NAMES\n")) == [1, 2, 3, 5]


def _evaluators_read(tree) -> set:
    """The top-level functions that read a ``.eval_fn`` or ``.batch_fn``
    attribute, "<module>" for a read outside any function."""
    readers = set()
    for top in tree.body:
        reads = any(isinstance(node, ast.Attribute) and node.attr in ("eval_fn", "batch_fn")
                    for node in ast.walk(top))
        if reads:
            readers.add(top.name if isinstance(top, ast.FunctionDef) else "<module>")
    return readers


def test_only_eval_kernel_reads_the_untruncated_kernel():
    # eval_fn and batch_fn are h before its threshold: every route
    # evaluates through the two functions that apply accel_thr
    src = Path(__file__).resolve().parents[1] / "src" / "ustatlab"
    readers = {p.stem: _evaluators_read(ast.parse(p.read_text())) for p in src.glob("*.py")}
    assert {stem: r for stem, r in readers.items() if r} \
        == {"kernels": {"eval_kernel", "eval_kernel_rows"}}
    assert _evaluators_read(ast.parse(
        "def f(ps):\n    return ps.base.eval_fn(1.0)\n"
        "def g(k):\n    return replace(k, eval_fn=abs)\n"
        "h = k.batch_fn\n")) == {"f", "<module>"}


def test_projection_values_on_a_finite_law_enumerate_once_per_support_point(monkeypatch):
    # a LOG-truncated product has no analytic h1: on a 4-point law theta is
    # enumerated once and h1 once per distinct point, and the values equal
    # project_h1 point by point, byte for byte
    from ustatlab import kernels

    law = finite([-1.0, 0.5, 2.0, 3.0], [0.1, 0.2, 0.3, 0.4])
    kernel = truncate_kernel(product_kernel(3), TruncationRule(TruncationMode.LOG, 20))
    assert kernel.projection is None
    x = sample(law, 2000, 3)
    calls = []
    finite_mean = kernels._finite_mean

    def counted(*args, **kwargs):
        calls.append(args[2:])
        return finite_mean(*args, **kwargs)

    monkeypatch.setattr(kernels, "_finite_mean", counted)
    got = _projection_values(kernel, law, x)
    assert len(calls) <= len(law.points) + 1
    monkeypatch.undo()
    per_point = np.array([project_h1(kernel, v, law) for v in x])
    assert got.tobytes() == per_point.tobytes()
