import io
import math

import numpy as np
import pytest

from ustatlab import (
    DegenerateNormalizerError,
    DomainError,
    InvalidArgumentError,
    constant_kernel,
    example_density,
    identity_kernel,
    jackknife_closed_form,
    normal,
    product_kernel,
    pseudo_selfnormalized_path,
    sample,
    studentized_path,
    sup_functional,
    abs_sup_functional,
    u_statistic,
)
from ustatlab.processes import StepProcess, path_to_csv


def test_pseudo_path_m1_example():
    path = pseudo_selfnormalized_path(identity_kernel(), [1.0, -1.0], 0.0,
                                      [1.0, -1.0])
    assert path.values == pytest.approx([0.0, 1 / math.sqrt(2), 0.0])


def test_pseudo_degenerate_projections():
    with pytest.raises(DegenerateNormalizerError):
        pseudo_selfnormalized_path(identity_kernel(), [1.0, 2.0], 0.0, [0.0, 0.0])


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


def test_studentized_conventions_identical():
    x = sample(normal(0, 1), 30, 2)
    a = studentized_path(identity_kernel(), x, 0.0)
    b = studentized_path(identity_kernel(), x, 0.0, convention="scaled-multiplier")
    assert a.values == pytest.approx(b.values, rel=1e-12, abs=1e-15)
    with pytest.raises(InvalidArgumentError):
        studentized_path(identity_kernel(), x, 0.0, convention="bogus")


def test_studentized_degenerate_constant_kernel():
    with pytest.raises(DegenerateNormalizerError):
        studentized_path(constant_kernel(2.0, m=2), [1.0, 2.0, 3.0], 2.0)


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
