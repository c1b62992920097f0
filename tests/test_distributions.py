import ast
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, strategies as st
from scipy.integrate import quad

from ustatlab import (
    InvalidArgumentError,
    UnsupportedOperationError,
    constant_kernel,
    derive_seed,
    dist_from_name,
    estimate_ell,
    example_density,
    finite,
    identity_kernel,
    moment_diagnostic,
    normal,
    pareto,
    product_kernel,
    sample,
    sample_grid,
    variance_kernel,
)
from ustatlab.distributions import Distribution, _GridSampler, _truncated_second_moment

from _oracles import stream_sample, truncated_second_moment_mp


def test_example_support_and_median():
    d = example_density(2.0)
    x = sample(d, 200_000, 1)
    y = np.abs(x - 2.0)
    assert np.all(y >= 1.0)
    # median of |X - a| solves u^-2 = 1/2
    assert np.median(y) == pytest.approx(math.sqrt(2), rel=0.01)


def test_example_mean_abs_deviation():
    # E|X - a| = integral_1^inf t * 2 t^-3 dt = 2, by quadrature and MC
    oracle, _ = quad(lambda t: t * 2.0 * t ** -3, 1, np.inf)
    assert oracle == pytest.approx(2.0, abs=1e-10)
    d = example_density(2.0)
    y = np.abs(sample(d, 10 ** 6, 2) - 2.0)
    se = y.std(ddof=1) / math.sqrt(len(y))
    assert abs(y.mean() - 2.0) <= 3 * se


def test_example_tail_fractions():
    d = example_density(2.0)
    y = np.abs(sample(d, 10 ** 6, 3) - 2.0)
    for u in (1.5, 2.0, 4.0):
        p = u ** -2
        frac = float(np.mean(y > u))
        assert abs(frac - p) <= 4 * math.sqrt(p / 10 ** 6)


def test_seed_determinism():
    d = example_density(-1.5)
    a = sample(d, 1000, 42)
    b = sample(d, 1000, 42)
    assert np.array_equal(a, b)
    c = sample(d, 1000, 43)
    assert not np.array_equal(a, c)


LAWS = [example_density(2.0), example_density(-0.5), normal(1.0, 2.0),
        pareto(2.5, 1.5), finite([-1.0, 0.0, 2.0], [0.5, 0.3, 0.2])]
SIZES = st.sampled_from([1, 2, 3, 10 ** 4 + 1]) | st.integers(4, 300)
SEEDS = st.integers(2 ** 63, 2 ** 64 - 1) | st.integers(0, 2 ** 64 - 1)


def _bits(x):
    return np.asarray(x, dtype=np.float64).view(np.uint64)


@given(law=st.sampled_from(LAWS), ns=st.lists(SIZES, min_size=1, max_size=5),
       seed=SEEDS)
@example(law=LAWS[0], ns=[10 ** 4 + 1, 3, 1, 2, 3], seed=2 ** 63)
@example(law=LAWS[2], ns=[2, 10 ** 4 + 1, 1], seed=2 ** 64 - 1)
@example(law=LAWS[3], ns=[7, 1, 8], seed=2 ** 63 + 1)
@example(law=LAWS[4], ns=[3, 3, 10 ** 4 + 1], seed=0)
def test_sample_grid_matches_stream_oracle(law, ns, seed):
    # each n's sample, cut from one stream at max(ns), is bit for bit the
    # one numpy's Generator transforms give a fresh stream at that n;
    # the example law's raw-bit decode fails this if those transforms move
    grid = sample_grid(law, ns, seed)
    assert len(grid) == len(ns)
    for n, x in zip(ns, grid):
        assert np.array_equal(_bits(x), _bits(stream_sample(law, n, seed))), (n, seed)
        assert x.flags.writeable == (len(ns) == 1)
    n = ns[0]
    assert np.array_equal(_bits(sample(law, n, seed)), _bits(grid[0]))


def test_sample_stream_is_pinned():
    # the first draws at one seed, as recorded: the stored study references
    # hold only while numpy's PCG64 stream and transforms stay as they are
    pinned = {
        "example:a=2": ["0x1.82d5e745c8174p+1", "0x1.c2a33011d7818p+1",
                        "0x1.d9ca9f8e317fep-1", "0x1.cee28731b5054p-1"],
        "normal:1,2": ["0x1.f867f52e3684bp+0", "-0x1.63ad8711a32d2p+0",
                       "0x1.6387059e9c3ecp+0", "0x1.752143dc48ff6p+1"],
        "pareto:2.5,1.5": ["0x1.86ca57b305d3ep+0", "0x1.0c7b443f0324ap+1",
                           "0x1.96c24914fa425p+0", "0x1.9d325a632dc1cp+0"],
        "finite:[-1,0,2];[0.5,0.3,0.2]": ["-0x1.0000000000000p+0", "0x0.0p+0",
                                          "-0x1.0000000000000p+0",
                                          "-0x1.0000000000000p+0"],
    }
    for law in (LAWS[0], LAWS[2], LAWS[3], LAWS[4]):
        want = [float.fromhex(h) for h in pinned[law.name]]
        assert list(stream_sample(law, 4, 2 ** 63 + 7)) == want, law.name
        assert list(sample(law, 4, 2 ** 63 + 7)) == want, law.name


@pytest.mark.parametrize("mu,sigma", [(0.0, 1.0), (1.0, 3.0), (1e8, 3.0),
                                      (-2.5, 1e-3), (7.0, 0.5)])
def test_normal_law_is_generator_normal(mu, sigma):
    # drawn as standard_normal, then * sigma and + mu in place: numpy's
    # normal(mu, sigma) rounds mu + sigma * z the same way
    for seed in (0, 2 ** 63 + 5):
        want = np.random.Generator(np.random.PCG64(seed)).normal(mu, sigma, 5000)
        small, full = sample_grid(normal(mu, sigma), (17, 5000), seed)
        assert np.array_equal(_bits(full), _bits(want))
        assert np.array_equal(_bits(small), _bits(want[:17]))


@pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0, 2.5])
def test_pareto_law_is_the_inverse_cdf(alpha):
    # 1 - U and its power run in place; exponents -2, -1 and -0.5 included
    law = pareto(alpha, 1.5)
    want = stream_sample(law, 3000, 8)
    assert np.array_equal(_bits(sample(law, 3000, 8)), _bits(want))


def test_grid_sampler_reuses_one_buffer():
    # a study chunk draws every replication into one buffer: after draws
    # at other seeds, each call still gives sample_grid's samples
    ns = (40, 7, 300)
    for law in (LAWS[0], LAWS[2], LAWS[3], LAWS[4]):
        sampler = _GridSampler(law, ns)
        for seed in (5, 2 ** 64 - 3, 5, 0, 12):
            got = sampler(seed)
            want = sample_grid(law, ns, seed)
            for n, x, y in zip(ns, got, want):
                assert np.array_equal(_bits(x), _bits(y)), (law.name, seed)
                assert np.array_equal(_bits(x), _bits(stream_sample(law, n, seed)))
            if law.kind != "example":
                assert all(np.shares_memory(x, sampler.buf) for x in got)


def test_sample_grid_prefixes_are_read_only():
    # a kernel that writes into a small n's sample must not reach a larger n's
    for law in LAWS:
        small, large = sample_grid(law, (5, 50), 11)
        with pytest.raises(ValueError):
            small[0] = 0.0
        with pytest.raises(ValueError):
            large[0] = 0.0
        assert sample(law, 5, 11).flags.writeable
    with pytest.raises(InvalidArgumentError):
        sample_grid(normal(0, 1), [], 1)
    with pytest.raises(InvalidArgumentError):
        sample_grid(normal(0, 1), [3, 0], 1)
    # a size is a Python or numpy integer: none is rounded or cut
    for ns in ([2.7], [2.9, 5.5], [3, 5.0], ["3"], [True], [np.float64(4.0)]):
        with pytest.raises(InvalidArgumentError, match="sample size must be an integer"):
            sample_grid(normal(0, 1), ns, 1)
    with pytest.raises(InvalidArgumentError, match="sample size must be an integer"):
        sample(normal(0, 1), 2.7, 1)
    assert [len(x) for x in sample_grid(normal(0, 1), np.array([2, 5]), 1)] == [2, 5]
    assert len(sample(normal(0, 1), np.int64(3), 1)) == 3


def test_finite_sampling_multinomial():
    d = finite([-1.0, 0.0, 2.0], [0.5, 0.3, 0.2])
    x = sample(d, 10 ** 6, 9)
    for pt, p in zip(d.points, d.probs):
        frac = float(np.mean(x == pt))
        assert abs(frac - p) <= 4 * math.sqrt(p * (1 - p) / 10 ** 6)


def test_finite_validation():
    with pytest.raises(InvalidArgumentError):
        finite([1.0, 2.0], [0.6, 0.5])
    with pytest.raises(InvalidArgumentError):
        finite([1.0, 2.0], [1.1, -0.1])


def test_parameter_validation():
    with pytest.raises(InvalidArgumentError):
        normal(0, 0)
    with pytest.raises(InvalidArgumentError):
        pareto(-1)
    with pytest.raises(InvalidArgumentError):
        example_density(0.0)
    with pytest.raises(InvalidArgumentError):
        sample(normal(0, 1), 0, 1)


def test_pareto_moments_and_sampling():
    d = pareto(3.0, 2.0)
    assert d.mean == pytest.approx(3.0)
    x = sample(d, 10 ** 5, 4)
    assert np.all(x >= 2.0)
    assert x.mean() == pytest.approx(3.0, rel=0.05)
    assert pareto(0.5).mean is None and pareto(1.5).variance is None


def test_derive_seed_rule():
    assert derive_seed(12345, 0) == 12345
    assert derive_seed(0, 1) == 0x9E3779B97F4A7C15
    idx = np.arange(10 ** 6, dtype=np.uint64)
    seeds = np.uint64(7) ^ (idx * np.uint64(0x9E3779B97F4A7C15))
    assert len(np.unique(seeds)) == len(idx)


def test_estimate_ell_analytic():
    est = estimate_ell(normal(1, 1), product_kernel(2), 100)
    assert est.method == "analytic-finite-var"
    assert est.ell_sq == pytest.approx(1.0)
    # identity under normal(0, 2): Var = 4
    est = estimate_ell(normal(0, 2), identity_kernel(), 10)
    assert est.ell_sq == pytest.approx(4.0)
    # variance kernel under standard normal: Var h1 = 1/2
    est = estimate_ell(normal(0, 1), variance_kernel(), 10)
    assert est.ell_sq == pytest.approx(0.5)


def test_estimate_ell_example_asymptotic():
    est = estimate_ell(example_density(2.0), product_kernel(2), 3)
    assert est.method == "example-asymptotic"
    assert est.ell_sq == pytest.approx(4.0 * math.log(3), rel=1e-12)
    est = estimate_ell(example_density(2.0), product_kernel(2), 10_000)
    assert est.ell_sq == pytest.approx(4.0 * math.log(10_000), rel=1e-12)


def test_truncated_second_moment_oracle():
    # E[(X-a)^2 1(|X-a| <= u)] = 2 ln u, cross-checked by quadrature
    d = example_density(2.0)
    k = identity_kernel()  # h1 = x - 2, slope 1
    for u in (1.5, 3.0, 10.0):
        got = _truncated_second_moment(d, k, u)
        oracle = quad(lambda t: t ** 2 * abs(t) ** -3, -u, -1)[0] + \
            quad(lambda t: t ** 2 * t ** -3, 1, u)[0]
        assert got == pytest.approx(2.0 * math.log(u), rel=1e-12)
        assert got == pytest.approx(oracle, rel=1e-9)


ORACLE_BOUNDS = (1e-3, 0.3, 1.0, 10.0, 1e3, 1e6, 1e9)


@pytest.mark.parametrize("dist", [
    *(normal(mu, sigma) for mu in (-2, 0, 0.5, 1, 3) for sigma in (0.1, 1, 5)),
    *(pareto(alpha, xm) for alpha in (1.2, 1.5, 1.8, 2 - 1e-9, 2, 2 + 1e-9, 2.5, 3, 6)
      for xm in (0.5, 1, 3)),
], ids=lambda d: f"{d.kind}{d.params!r}")
def test_truncated_second_moment_matches_quadrature(dist):
    # the closed forms, and the Gauss-Legendre rule where the window hugs
    # the mean, against 40-digit quadrature: from B = 1e-3, where the
    # closed forms cancel, up to B = 1e9, far out in the Pareto tail
    for kernel in (identity_kernel(), product_kernel(2), product_kernel(3)):
        slope, icpt = kernel.affine_projection(dist)
        for bound in ORACLE_BOUNDS:
            got = _truncated_second_moment(dist, kernel, bound)
            if slope == 0:
                assert got == 0.0
                continue
            want = truncated_second_moment_mp(dist, slope, icpt, bound)
            assert got == pytest.approx(want, rel=1e-10, abs=0), (kernel.name, bound)


def test_estimate_ell_fixed_point():
    # finite-variance case: the fixed point lands on Var h1, where
    # T(B) = Var h1 to rounding once B is many sigma wide
    est = estimate_ell(normal(1, 1), product_kernel(2), 500,
                       method="truncated-fixed-point")
    assert est.method == "truncated-fixed-point"
    assert est.ell_sq == pytest.approx(1.0, rel=1e-3)
    for dist, var in ((normal(1, 1), 1.0), (normal(0.5, 5), 6.25)):
        for n in (10 ** 5, 10 ** 6, 10 ** 7):
            est = estimate_ell(dist, product_kernel(2), n, method="truncated-fixed-point")
            assert est.ell_sq == pytest.approx(var, rel=1e-9)
    # example family: h1 = 2(X-2), so E[h1^2 1(|h1| <= B)] = 8 ln(B/2) and
    # the fixed point solves B^2 = 8 n ln(B/2)
    n = 10_000
    est = estimate_ell(example_density(2.0), product_kernel(2), n,
                       method="truncated-fixed-point")
    b_sq = n * est.ell_sq
    assert b_sq == pytest.approx(n * 8.0 * math.log(math.sqrt(b_sq) / 2.0),
                                 rel=1e-4)
    # pareto:2,1 has infinite variance, so the default route is the fixed
    # point, and it solves B^2 = n T(B) with T from the quadrature oracle
    d = pareto(2, 1)
    for kernel in (identity_kernel(), product_kernel(2)):
        slope, icpt = kernel.affine_projection(d)
        for n in (10 ** 3, 10 ** 4, 10 ** 5, 10 ** 6):
            est = estimate_ell(d, kernel, n)
            assert est.method == "truncated-fixed-point"
            b_sq = n * est.ell_sq
            t = truncated_second_moment_mp(d, slope, icpt, math.sqrt(b_sq))
            assert b_sq == pytest.approx(n * t, rel=1e-6), (kernel.name, n)


def test_estimate_ell_errors():
    with pytest.raises(InvalidArgumentError):
        estimate_ell(normal(0, 1), constant_kernel(1.0), 10)
    with pytest.raises(UnsupportedOperationError):
        estimate_ell(example_density(2.0), variance_kernel(), 100)


def test_estimate_ell_needs_an_integer_n():
    # n = -1 raised a math domain error, and n = 2.5 returned an estimate
    for n in (2.5, math.e, 10.0, True, "10"):
        with pytest.raises(InvalidArgumentError, match=f"^n must be an integer, got {n!r}$"):
            estimate_ell(normal(1, 1), product_kernel(2), n)
    for n in (0, -1):
        with pytest.raises(InvalidArgumentError, match=f"^n must be >= 1, got {n}$"):
            estimate_ell(pareto(2, 1), product_kernel(2), n)
    assert estimate_ell(normal(1, 1), product_kernel(2), np.int64(10)).ell_sq == 1.0


def test_seeds_are_integers():
    # 1.5 drew seed 1's stream, and "7" was accepted
    for seed in (1.5, 7.0, True, "7"):
        with pytest.raises(InvalidArgumentError, match="^a seed must be an integer"):
            sample(normal(0, 1), 3, seed)
        with pytest.raises(InvalidArgumentError, match="^a seed must be an integer"):
            _GridSampler(normal(0, 1), [3])(seed)
        with pytest.raises(InvalidArgumentError, match="^a seed must be an integer"):
            derive_seed(seed, 0)
        with pytest.raises(InvalidArgumentError, match="^a seed index must be an integer"):
            derive_seed(0, seed)
    assert np.array_equal(sample(normal(0, 1), 3, np.int64(7)), sample(normal(0, 1), 3, 7))
    assert derive_seed(np.uint64(7), np.int64(1)) == derive_seed(7, 1)


def test_moment_order_is_finite():
    # p = inf warned and returned value inf with se nan
    for p in (math.inf, math.nan, 0.0, -1.0):
        with pytest.raises(InvalidArgumentError, match="^moment order p must be finite and > 0"):
            moment_diagnostic(normal(0, 1), product_kernel(2), p, 1000, 1)


def test_moment_budget_is_an_integer():
    # 100.5 failed later as "a sample size must be an integer, got 201.0"
    for budget in (100.5, 128.0, True, "128"):
        with pytest.raises(InvalidArgumentError,
                           match=f"^budget must be an integer, got {budget!r}$"):
            moment_diagnostic(normal(0, 1), product_kernel(2), 1.0, budget, 1)


def test_moment_diagnostic_constant():
    md = moment_diagnostic(normal(0, 1), constant_kernel(-3.0, m=2), 1.5, 1000, 1)
    assert md.value == pytest.approx(3.0 ** 1.5, rel=1e-12)
    assert md.se == 0.0
    assert not md.suspected_infinite


def test_moment_diagnostic_example_53():
    # E|xy|^(5/3) is finite under the example density; by independence it
    # equals the square of the 1-d moment E|X|^(5/3), known by quadrature
    one_dim = quad(lambda t: abs(t) ** (5 / 3) * abs(t - 2) ** -3, -np.inf, 1)[0] \
        + quad(lambda t: abs(t) ** (5 / 3) * abs(t - 2) ** -3, 3, np.inf)[0]
    oracle = one_dim ** 2
    md = moment_diagnostic(example_density(2.0), product_kernel(2), 5 / 3,
                           200_000, 12)
    assert abs(md.value - oracle) <= 4 * md.se
    assert not md.suspected_infinite


def test_moment_diagnostic_divergent_flagged():
    md = moment_diagnostic(example_density(2.0), product_kernel(2), 2.0,
                           400_000, 5)
    assert md.suspected_infinite


def test_registry():
    assert dist_from_name("example:a=2").kind == "example"
    assert dist_from_name("normal:1,1").variance == 1.0
    assert dist_from_name("pareto:2.5,1").params == (2.5, 1.0)
    d = dist_from_name("finite:[-1,1];[0.5,0.5]")
    assert list(d.points) == [-1.0, 1.0]
    for bad in ("nope:1", "normal:1", "finite:[1];[0.9]", "example:b=2",
                # non-finite parameters
                "finite:[0,1];[nan,nan]", "finite:[0,inf];[0.5,0.5]", "normal:0,inf",
                "normal:nan,1", "example:a=inf", "pareto:2,inf", "pareto:inf"):
        with pytest.raises(InvalidArgumentError):
            dist_from_name(bad)
    # an unknown or repeated argument is refused, not ignored or overwritten
    for bad in ("example:a=2,b=3", "example:a=2,a=5"):
        with pytest.raises(InvalidArgumentError, match="registry"):
            dist_from_name(bad)


def test_registry_names_round_trip():
    # a name wrote each number with :g, so normal(0.1234567, 1) was named
    # normal:0.123457,1, a law other than itself
    for d in (normal(0.1234567, 1), normal(1 / 3, 2 / 3), pareto(2 + 1e-9, 0.1234567),
              pareto(1 / 3), example_density(1 / 3), example_density(-0.1234567),
              finite([0, 1], [1 / 3, 2 / 3]), finite([0.1234567, -1 / 3, 5], [0.1, 0.2, 0.7]),
              *LAWS):
        back = dist_from_name(d.name)
        assert (back.name, back.kind, back.params, back.mean, back.variance) \
            == (d.name, d.kind, d.params, d.mean, d.variance)
        for got, want in ((back.points, d.points), (back.probs, d.probs)):
            assert (got is None and want is None) or np.array_equal(_bits(got), _bits(want))
    # a name that was exact stays byte for byte
    assert [d.name for d in LAWS] == ["example:a=2", "example:a=-0.5", "normal:1,2",
                                      "pareto:2.5,1.5", "finite:[-1,0,2];[0.5,0.3,0.2]"]
    assert finite([0, 1], [1 / 3, 2 / 3]).name \
        == "finite:[0,1];[0.3333333333333333,0.6666666666666666]"


def test_unknown_kind_is_refused():
    # a kind with no law record failed later, at sampling, with a KeyError
    with pytest.raises(InvalidArgumentError, match="^unknown distribution kind 'cauchy'$"):
        Distribution(name="cauchy", kind="cauchy", params=(), mean=None, variance=None)


def _kind_reads(tree) -> int:
    """How many times a module reads an attribute named ``kind``."""
    return sum(isinstance(node, ast.Attribute) and node.attr == "kind"
               for node in ast.walk(tree))


def test_only_distributions_reads_a_law_kind():
    # each law's facts live in its _LAWS record; elsewhere a finite law is
    # told by its points, and the normal law's moments come from its record
    src = Path(__file__).resolve().parents[1] / "src" / "ustatlab"
    modules = {p.stem: ast.parse(p.read_text()) for p in sorted(src.glob("*.py"))}
    assert {"distributions", "kernels", "decomposition"} <= set(modules)
    readers = {name: _kind_reads(tree) for name, tree in modules.items()
               if name != "distributions"}
    assert {name: n for name, n in readers.items() if n} == {}
    assert _kind_reads(ast.parse(
        "if dist.kind == 'normal':\n    kind = 1\nsorted(x, kind='stable')\nd.points")) == 1
