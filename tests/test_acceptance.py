"""Acceptance suite: one test per criterion, each printing a PASS/FAIL
line (run with ``pytest tests/test_acceptance.py -v -s``).

Criterion 9b (the heavy-tailed example family's normalized-ratio mean
against the leading-asymptotic normalizer) is expected to fail: the
collected ratio has an infinite mean there, so its sample average sits
near ln(R n)/ln(n), not 1, at any feasible scale.  The test states the
criterion as written and reports the honest outcome.
"""

import json
import math
import time

import numpy as np
import pytest

from ustatlab import (
    ExperimentConfig,
    MomentBoundResult,
    ProductStatistic,
    TruncationMode,
    TruncationRule,
    build_v_expansion,
    check_degeneracy,
    example_density,
    finite,
    identity_kernel,
    jackknife_closed_form,
    kernel_from_name,
    ks_distance,
    degenerate_moment_bound,
    negligibility_trend,
    normal,
    product_kernel,
    reconstruction_max_error,
    run_experiment,
    sample,
    truncate_kernel,
    u_statistic,
    variance_kernel,
    wiener_sup_cdf,
)
from ustatlab.experiments import replication_seed, report_to_json

from _oracles import brute_jackknife_sum_sq, brute_u_stat

SEED = 20260811


def _check(label, ok):
    print(f"[ACCEPTANCE] {label}: {'PASS' if ok else 'FAIL'}")
    assert ok, label


# -- 1 ----------------------------------------------------------------------

def test_c01_jackknife_identity_500_instances():
    started = time.monotonic()
    rng = np.random.default_rng(SEED)
    kernels = [identity_kernel(), product_kernel(2), product_kernel(3),
               variance_kernel()]
    dists = [normal(0.0, 1.0), example_density(2.0)]
    worst = 0.0
    for trial in range(500):
        kernel = kernels[int(rng.integers(len(kernels)))]
        dist = dists[trial % 2]
        n = int(rng.integers(kernel.order + 1, 41))
        data = sample(dist, n, int(rng.integers(2 ** 62)))
        summary = jackknife_closed_form(kernel, data)
        fns = {"identity": lambda x: x,
               "product:m=2": lambda x, y: x * y,
               "product:m=3": lambda x, y, z: x * y * z,
               "variance": lambda x, y: 0.5 * (x - y) ** 2}
        naive = brute_jackknife_sum_sq(fns[kernel.name], list(data), kernel.order)
        scale = max(abs(naive), abs(summary.sum_sq), 1e-300)
        worst = max(worst, abs(naive - summary.sum_sq) / scale)
    elapsed = time.monotonic() - started
    _check(f"C1 jackknife identity, 500 instances (max rel {worst:.2e}, "
           f"{elapsed:.1f}s)", worst <= 1e-9 and elapsed < 30)


# -- 2 ----------------------------------------------------------------------

def test_c02_worked_value():
    data = [1.0, 2.0, 3.0]
    summary = jackknife_closed_form(product_kernel(2), data)
    naive = brute_jackknife_sum_sq(lambda x, y: x * y, data, 2)
    u_direct = brute_u_stat(lambda x, y: x * y, data, 2)
    ok = (abs(summary.sum_sq - 52 / 3) <= 1e-12
          and abs(naive - 52 / 3) <= 1e-12
          and abs(summary.u_n - 11 / 3) <= 1e-12
          and abs(u_direct - 11 / 3) <= 1e-12
          and abs(u_statistic(product_kernel(2), data) - 11 / 3) <= 1e-12)
    _check("C2 worked value: sum_sq = 52/3, U_3 = 11/3, both paths", ok)


# -- 3 ----------------------------------------------------------------------

def test_c03_decomposition_lab():
    started = time.monotonic()
    supports = [
        finite([-1.0, 1.0], [0.5, 0.5]),
        finite([-1.0, 0.5, 2.0], [0.3, 0.45, 0.25]),
        finite([-2.0, -0.5, 1.0, 3.0], [0.1, 0.4, 0.3, 0.2]),
    ]
    bases = {2: [product_kernel(2), variance_kernel(),
                 truncate_kernel(product_kernel(2),
                                 TruncationRule(TruncationMode.FULL_M, n=4))],
             3: [product_kernel(3)]}
    ok = True
    for m, kernel_list in bases.items():
        for base in kernel_list:
            for shared in (1, 2):
                ps = ProductStatistic(base=base, shared=shared)
                for dist in supports:
                    exp = build_v_expansion(ps, dist)
                    if not all(check_degeneracy(t, dist, tol=1e-12)
                               for t in exp.terms):
                        ok = False
                    if reconstruction_max_error(exp) > 1e-10:
                        ok = False
    elapsed = time.monotonic() - started
    _check(f"C3 decomposition lab: degeneracy <= 1e-12, reconstruction "
           f"<= 1e-10 for m=2,3 ({elapsed:.1f}s)",
           ok and elapsed < 60)


# -- 4 ----------------------------------------------------------------------

def test_c04_degenerate_moment_bound():
    pm1 = finite([-1.0, 1.0], [0.5, 0.5])
    r2 = degenerate_moment_bound(lambda x, y: x * y, 2, 0.0, pm1, 2)
    r3 = degenerate_moment_bound(lambda x, y: x * y, 2, 0.0, pm1, 3)
    exact_ok = (abs(r2.lhs - 1.0) < 1e-12 and abs(r2.rhs - 0.5) < 1e-12
                and abs(r2.ratio - 2.0) < 1e-12
                and abs(r3.lhs - 1 / 3) < 1e-12 and abs(r3.rhs - 1 / 6) < 1e-12
                and abs(r3.ratio - 2.0) < 1e-12)
    rng = np.random.default_rng(SEED + 4)
    bound_ok = True
    for _ in range(20):
        size = int(rng.integers(2, 4))
        pts = np.sort(rng.normal(0, 1, size))
        pr = rng.dirichlet(np.ones(size))
        dist = finite(pts, pr / pr.sum())
        raw = rng.normal(0, 1, (size, size))
        row = raw @ dist.probs
        col = dist.probs @ raw
        grand = float(dist.probs @ raw @ dist.probs)
        table = raw - row[:, None] - col[None, :] + grand
        idx = {float(p): i for i, p in enumerate(dist.points)}
        L = lambda x, y, t=table, ix=idx: t[ix[float(x)], ix[float(y)]]
        n = int(rng.integers(2, 7))
        res = degenerate_moment_bound(L, 2, 0.0, dist, n)
        if res.lhs > 2.0 * res.rhs * (1 + 1e-9) + 1e-15:
            bound_ok = False
        if res.reference_constant != 1.0 or res.permutation_constant != 2.0:
            bound_ok = False
    _check("C4 second-moment bound: exact (1, 1/2, 2) and (1/3, 1/6, 2); "
           "20 random degenerate kernels hold lhs <= 2 rhs",
           exact_ok and bound_ok)


# -- 5 ----------------------------------------------------------------------

def test_c05_arvesen_limit():
    started = time.monotonic()
    cfg = ExperimentConfig(
        experiment="ARVESEN", kernel="product:m=2", dist="normal:1,1",
        n_grid=(250, 500, 1000, 2000), replications=200, base_seed=SEED,
        rel_mean_threshold=0.05,
    )
    report = run_experiment(cfg)
    gaps = [abs(r.mean - 1.0) for r in report.per_n]
    elapsed = time.monotonic() - started
    ok = (report.overall_pass and gaps[-1] <= 0.05 and gaps[-1] < gaps[0]
          and elapsed < 300)
    _check(f"C5 jackknife variance limit: final gap {gaps[-1]:.4f} (<= 5%), "
           f"gap {gaps[0]:.4f} -> {gaps[-1]:.4f} ({elapsed:.1f}s)", ok)


# -- 6 ----------------------------------------------------------------------

@pytest.mark.parametrize("t0", [1.0, 0.5])
def test_c06_clt_identity_normal(t0):
    cfg = ExperimentConfig(
        experiment="CLT_T0", kernel="identity", dist="normal:0,1",
        n_grid=(500,), replications=1000, base_seed=SEED + 6,
        ks_threshold=0.06, t0=t0,
    )
    report = run_experiment(cfg)
    ks = report.per_n[0].ks
    _check(f"C6 normal-limit law at t0={t0}: KS {ks:.4f} <= 0.06",
           report.overall_pass and ks <= 0.06)


# -- 7 ----------------------------------------------------------------------

def test_c07_clt_heavy_tailed_example():
    started = time.monotonic()
    cfg = ExperimentConfig(
        experiment="CLT_T0", kernel="product:m=2,a=2", dist="example:a=2",
        n_grid=(5000,), replications=500, base_seed=SEED + 7,
        ks_threshold=0.09,
    )
    report = run_experiment(cfg)
    ks_final = report.per_n[0].ks
    # trend run: the KS bias differences along the grid sit near 0.01, so
    # resolving the decrease needs far more replications than the
    # threshold check; the runtime budget easily covers R = 20000
    trend_cfg = ExperimentConfig(
        experiment="CLT_T0", kernel="product:m=2,a=2", dist="example:a=2",
        n_grid=(500, 2000, 5000), replications=20_000, base_seed=SEED + 7,
        ks_threshold=0.09,
    )
    trend = run_experiment(trend_cfg)
    ks_grid = [r.ks for r in trend.per_n]
    elapsed = time.monotonic() - started
    ok = (report.overall_pass and ks_final <= 0.09
          and ks_grid[-1] < ks_grid[0] and elapsed < 600)
    _check(f"C7 heavy-tailed studentized law: KS {ks_final:.4f} <= 0.09 at "
           f"n=5000; KS trend {['%.4f' % k for k in ks_grid]} decreasing "
           f"({elapsed:.1f}s)", ok)


# -- 8 ----------------------------------------------------------------------

def test_c08_sup_functional_and_reflection_oracle():
    cfg = ExperimentConfig(
        experiment="FCLT_SUP", kernel="identity", dist="normal:0,1",
        n_grid=(1000,), replications=1000, base_seed=SEED + 8,
        ks_threshold=0.07,
    )
    report = run_experiment(cfg)
    ks_path = report.per_n[0].ks
    # validate the reflection formula itself against a scaled random walk
    rng = np.random.default_rng(SEED + 88)
    walks, steps, batch = 100_000, 10_000, 2000
    sups = np.empty(walks)
    for lo in range(0, walks, batch):
        z = rng.standard_normal((batch, steps))
        np.cumsum(z, axis=1, out=z)
        sups[lo:lo + batch] = z.max(axis=1)
    sups = np.maximum(sups, 0.0) / math.sqrt(steps)
    ks_formula = ks_distance(sups, wiener_sup_cdf)
    ok = report.overall_pass and ks_path <= 0.07 and ks_formula <= 0.02
    _check(f"C8 signed-sup law: path KS {ks_path:.4f} <= 0.07; reflection "
           f"formula vs walk oracle KS {ks_formula:.4f} <= 0.02", ok)


# -- 9 ----------------------------------------------------------------------

def test_c09a_raikov_finite_variance():
    results = {}
    for exp in ("RAIKOV", "JACK_RAIKOV"):
        cfg = ExperimentConfig(
            experiment=exp, kernel="product:m=2", dist="normal:1,1",
            n_grid=(2000,), replications=200, base_seed=SEED + 9,
            rel_mean_threshold=0.05,
        )
        report = run_experiment(cfg)
        results[exp] = (report.overall_pass, report.per_n[-1].mean)
    ok = all(passed for passed, _ in results.values())
    means = {k: f"{v:.4f}" for k, (_, v) in results.items()}
    _check(f"C9a normalized ratios, finite variance: means {means} "
           "within 5% of 1", ok)


def test_c09b_raikov_example_family_asymptotic_ell():
    # As specified: example family at n = 10^4, R = 100, normalizer
    # a^2 ln n, mean within 15% of 1.  The ratio's mean is infinite for
    # every n, so this check cannot come out near 1 (see decisions log);
    # run it as stated and report the honest outcome.
    results = {}
    for exp in ("RAIKOV", "JACK_RAIKOV"):
        cfg = ExperimentConfig(
            experiment=exp, kernel="product:m=2,a=2", dist="example:a=2",
            n_grid=(10_000,), replications=100, base_seed=SEED + 9,
            rel_mean_threshold=0.15, ell_method="example-asymptotic",
        )
        report = run_experiment(cfg)
        results[exp] = (report.overall_pass, report.per_n[-1].mean)
    ok = all(passed for passed, _ in results.values())
    means = {k: f"{v:.3f}" for k, (_, v) in results.items()}
    _check(f"C9b normalized ratios, example family with ell^2 = a^2 ln n: "
           f"means {means} within 15% of 1", ok)


# -- 10 ---------------------------------------------------------------------

def test_c10_negligibility_trends():
    p1 = negligibility_trend("centered-usq", variance_kernel(), normal(0, 1),
                             [50, 100, 200, 400], R=200, seed=SEED + 10)
    p3 = negligibility_trend("diagonal-square", kernel_from_name("constant:c=1,m=2"),
                             normal(0, 1), [50, 100, 200, 400], R=50,
                             seed=SEED + 10)
    p3_exact = all(abs(row.mean - 1.0 / (row.n - 2)) <= 1e-12
                   for row in p3.per_n)
    p4 = negligibility_trend("shared-pair", product_kernel(3), normal(0, 1),
                             [12, 24, 48], R=150, seed=SEED + 10)
    ok = p1.overall_pass and p3.overall_pass and p3_exact and p4.overall_pass
    ratios = {t.config["statistic"]: f"{t.per_n[0].mean / t.per_n[-1].mean:.1f}x"
              for t in (p1, p3, p4)}
    _check(f"C10 negligibility trends >= 2x decrease {ratios}; constant-"
           "kernel closed form 1/(n-2) exact", ok)


# -- 11 ---------------------------------------------------------------------

def test_c11_determinism_across_workers(tmp_path):
    cfg = ExperimentConfig(
        experiment="ARVESEN", kernel="product:m=2", dist="normal:1,1",
        n_grid=(150, 300), replications=60, base_seed=SEED + 11,
        rel_mean_threshold=0.2,
    )
    blobs = []
    for workers in (1, 2, 3):
        report = run_experiment(cfg, workers=workers)
        payload = report.to_dict()
        payload.pop("runtime_seconds")
        blobs.append(json.dumps(payload, indent=2, sort_keys=True).encode())
    ok = blobs[0] == blobs[1] == blobs[2]
    _check("C11 determinism: byte-identical reports (runtime aside) at "
           "worker counts 1, 2, 3", ok)
