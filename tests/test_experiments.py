import ast
import importlib.util
import json
import math
import os
import statistics
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad

from ustatlab import (
    ConfigError,
    DomainError,
    ExperimentConfig,
    InvalidArgumentError,
    ResourceLimitError,
    ks_distance,
    negligibility_trend,
    normal,
    normal_cdf,
    product_kernel,
    pseudo_selfnormalized_path,
    replication_seed,
    run_experiment,
    sample,
    studentized_path,
    sup_functional,
    wiener_sup_cdf,
)
from ustatlab import _accel, engine, experiments
from ustatlab.experiments import TREND_STATISTICS
from ustatlab.distributions import _GridSampler
from ustatlab.experiments import _rep_value, _resolve


def test_normal_cdf_symmetry():
    assert normal_cdf(0.0) == 0.5
    for x in (0.5, 1.0, 2.0):
        assert normal_cdf(-x) == pytest.approx(1 - normal_cdf(x), abs=1e-15)


def test_normal_cdf_quadrature_oracle():
    density = lambda t: math.exp(-t * t / 2) / math.sqrt(2 * math.pi)
    for x in (-1.3, 0.4, 1.959964):
        oracle = quad(density, -np.inf, x)[0]
        assert normal_cdf(x) == pytest.approx(oracle, abs=1e-9)
    assert normal_cdf(1.959964) == pytest.approx(0.975, abs=1e-6)


def test_wiener_sup_cdf_values():
    assert wiener_sup_cdf(-0.5) == 0.0
    assert wiener_sup_cdf(0.0) == 0.0
    assert wiener_sup_cdf(1.959964) == pytest.approx(0.95, abs=2e-6)
    assert wiener_sup_cdf(40.0) == pytest.approx(1.0, abs=1e-12)


def test_ks_distance_examples():
    # exact quantiles F^-1((i - 0.5)/N) place every gap at 0.5/N
    N = 200
    nd = statistics.NormalDist()
    samples = [nd.inv_cdf((i - 0.5) / N) for i in range(1, N + 1)]
    assert ks_distance(samples, normal_cdf) == pytest.approx(0.5 / N, abs=1e-12)
    # single observation at the median
    assert ks_distance([0.0], normal_cdf) == pytest.approx(0.5)
    # seeded uniforms against the uniform CDF stay under the 95% band
    rng = np.random.default_rng(2024)
    u = rng.random(1000)
    assert ks_distance(u, lambda x: min(max(x, 0.0), 1.0)) < 1.36 / math.sqrt(1000)


def test_ks_distance_requires_samples():
    from ustatlab import InvalidArgumentError

    with pytest.raises(InvalidArgumentError):
        ks_distance([], normal_cdf)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
def test_ks_distance_refuses_non_finite_samples(bad):
    # a NaN would otherwise come back as the distance
    for samples in ([0.1, bad], [bad], [bad, -0.3, 0.2]):
        with pytest.raises(DomainError, match="finite"):
            ks_distance(samples, normal_cdf)


def test_replication_seed_rule():
    assert replication_seed(987, 0) == 987
    assert replication_seed(0, 1) == 0x9E3779B97F4A7C15
    seeds = {replication_seed(5, i) for i in range(10_000)}
    assert len(seeds) == 10_000


def _base_config(**overrides):
    raw = dict(
        version=1, experiment="ARVESEN", kernel="product:m=2",
        dist="normal:1,1", n_grid=[100, 200], replications=50, base_seed=7,
        rel_mean_threshold=0.1,
    )
    raw.update(overrides)
    return raw


def test_config_validation():
    cfg = ExperimentConfig.from_dict(_base_config())
    assert cfg.n_grid == (100, 200)
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(_base_config(replications=10))
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(_base_config(bogus_key=1))
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(_base_config(version=2))
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(_base_config(n_grid=[200, 100]))
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(_base_config(  # no ks
            experiment="CLT_T0", rel_mean_threshold=None))
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(_base_config(
            experiment="CLT_T0", rel_mean_threshold=None, ks_threshold=0.1, t0=1.5))
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(_base_config(statistic="centered-usq"))
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(_base_config(ell_method="nope"))
    raw = _base_config()
    del raw["base_seed"]
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(raw)


@pytest.mark.parametrize("overrides,message", [
    (dict(n_grid=5), "n_grid must be a list, got 5"),
    (dict(n_grid=["a"]), "n_grid must hold integers, got ['a']"),
    (dict(n_grid=[100, 200.0]), "n_grid must hold integers, got [100, 200.0]"),
    (dict(replications="50"), "replications must be an integer, got '50'"),
    (dict(replications=True), "replications must be an integer, got True"),
    (dict(replications=50.0), "replications must be an integer, got 50.0"),
    (dict(base_seed="7"), "base_seed must be an integer, got '7'"),
    (dict(experiment="CLT_T0", rel_mean_threshold=None, ks_threshold="0.5"),
     "ks_threshold must be a number, got '0.5'"),
    (dict(rel_mean_threshold=False), "rel_mean_threshold must be a number, got False"),
    (dict(t0="1"), "t0 must be a number, got '1'"),
    (dict(theta=[1.0]), "theta must be a number, got [1.0]"),
    (dict(kernel=2), "kernel must be a string, got 2"),
    (dict(version="1"), "version must be an integer, got '1'"),
])
def test_config_value_types(monkeypatch, overrides, message):
    # a value of the wrong type is a ConfigError, raised before any replication
    def no_replications(*args, **kwargs):
        raise AssertionError("replications ran")

    monkeypatch.setattr(experiments, "_collect", no_replications)
    with pytest.raises(ConfigError) as info:
        run_experiment(ExperimentConfig.from_dict(_base_config(**overrides)))
    assert str(info.value) == message


_NEEDS_STATISTIC = ("NEGLIGIBILITY needs statistic from "
                    "('centered-usq', 'diagonal-square', 'shared-pair')")
_REL_RANGE = "rel_mean_threshold must be finite and positive, got "
_KS_RANGE = "ks_threshold must be finite and positive, got "


@pytest.mark.parametrize("overrides,message", [
    (dict(experiment="CLT_T0", rel_mean_threshold=None), "CLT_T0 needs ks_threshold"),
    (dict(experiment="FCLT_SUP", rel_mean_threshold=None), "FCLT_SUP needs ks_threshold"),
    (dict(experiment="RAIKOV", rel_mean_threshold=None), "RAIKOV needs rel_mean_threshold"),
    (dict(experiment="JACK_RAIKOV", rel_mean_threshold=None),
     "JACK_RAIKOV needs rel_mean_threshold"),
    (dict(experiment="ARVESEN", rel_mean_threshold=None),
     "ARVESEN needs rel_mean_threshold"),
    (dict(experiment="NEGLIGIBILITY", rel_mean_threshold=None), _NEEDS_STATISTIC),
    (dict(experiment="NEGLIGIBILITY", rel_mean_threshold=None, statistic="nope"),
     _NEEDS_STATISTIC),
    (dict(statistic="centered-usq"), "statistic only applies to NEGLIGIBILITY"),
    # the statistic check comes before the missing threshold
    (dict(experiment="CLT_T0", rel_mean_threshold=None, statistic="shared-pair"),
     "statistic only applies to NEGLIGIBILITY"),
    (dict(experiment="CLT_T0", kernel="variance", dist="example:a=2", ks_threshold=0.1,
          rel_mean_threshold=None),
     "theta unresolved for kernel 'variance' under 'example:a=2'; pass it explicitly"),
    (dict(experiment="FCLT_SUP", kernel="variance", dist="example:a=2",
          ks_threshold=0.1, rel_mean_threshold=None),
     "theta unresolved for kernel 'variance' under 'example:a=2'; pass it explicitly"),
    (dict(kernel="product:m=2,a=2", dist="example:a=2", ell_method="example-asymptotic"),
     "ARVESEN needs an analytic finite-variance projection "
     "(got ell method 'example-asymptotic')"),
    (dict(experiment="CLT_T0", ks_threshold=0.1, rel_mean_threshold=None,
          n_grid=[50, 1000], t0=0.03),
     "t0=0.03 gives k=1 < m at n=50"),
    # a repeated n would run the same samples twice
    (dict(n_grid=[100, 100]), "n_grid must be nonempty and ascending"),
    (dict(n_grid=[50, 100, 100]), "n_grid must be nonempty and ascending"),
    (dict(n_grid=[0, 10]), "n_grid sizes must be >= 1, got [0, 10]"),
    (dict(n_grid=[-3, 10]), "n_grid sizes must be >= 1, got [-3, 10]"),
    # the jackknife experiments take leave-one-out values: n >= m + 1
    (dict(experiment="FCLT_SUP", ks_threshold=0.1, rel_mean_threshold=None,
          n_grid=[2, 10]),
     "FCLT_SUP needs n >= m + 1 = 3 for the jackknife, got n=2"),
    (dict(experiment="CLT_T0", ks_threshold=0.1, rel_mean_threshold=None,
          n_grid=[2, 10]),
     "CLT_T0 needs n >= m + 1 = 3 for the jackknife, got n=2"),
    (dict(experiment="JACK_RAIKOV", n_grid=[1, 10]),
     "JACK_RAIKOV needs n >= m + 1 = 3 for the jackknife, got n=1"),
    (dict(n_grid=[2, 10]), "ARVESEN needs n >= m + 1 = 3 for the jackknife, got n=2"),
    # NEGLIGIBILITY's statistics need n >= m, and n >= 2m - 1 where they
    # are scaled by [n]_(2m-1)
    (dict(experiment="NEGLIGIBILITY", rel_mean_threshold=None, statistic="centered-usq",
          kernel="product:m=2", n_grid=[1, 8]),
     "centered-usq needs n >= m = 2, got n=1"),
    (dict(experiment="NEGLIGIBILITY", rel_mean_threshold=None, statistic="shared-pair",
          kernel="product:m=3", n_grid=[2, 8]),
     "shared-pair needs n >= 2m - 1 = 5, got n=2"),
    (dict(experiment="NEGLIGIBILITY", rel_mean_threshold=None,
          statistic="diagonal-square", kernel="product:m=2", n_grid=[2, 8]),
     "diagonal-square needs n >= 2m - 1 = 3, got n=2"),
    # every n's ell estimate is checked, not only the largest n's
    (dict(experiment="RAIKOV", kernel="product:m=2,a=2", dist="example:a=2",
          ell_method="example-asymptotic", n_grid=[1, 3]),
     "example-asymptotic ell needs the example family, an affine projection, and n > 1"),
    # a pass-rule threshold that would fail every study (NaN, 0, negative)
    # or pass every one (infinity)
    (dict(rel_mean_threshold=math.nan), _REL_RANGE + "nan"),
    (dict(rel_mean_threshold=0), _REL_RANGE + "0"),
    (dict(rel_mean_threshold=-0.1), _REL_RANGE + "-0.1"),
    (dict(rel_mean_threshold=math.inf), _REL_RANGE + "inf"),
    (dict(experiment="RAIKOV", rel_mean_threshold=-math.inf), _REL_RANGE + "-inf"),
    (dict(experiment="CLT_T0", rel_mean_threshold=None, ks_threshold=math.nan),
     _KS_RANGE + "nan"),
    (dict(experiment="FCLT_SUP", rel_mean_threshold=None, ks_threshold=0.0),
     _KS_RANGE + "0.0"),
    (dict(experiment="FCLT_SUP", rel_mean_threshold=None, ks_threshold=-0.1),
     _KS_RANGE + "-0.1"),
    (dict(experiment="CLT_T0", rel_mean_threshold=None, ks_threshold=math.inf),
     _KS_RANGE + "inf"),
])
def test_driver_config_errors(monkeypatch, overrides, message):
    # each experiment's checks raise their full message before any replication
    def no_replications(*args, **kwargs):
        raise AssertionError("replications ran")

    monkeypatch.setattr(experiments, "_collect", no_replications)
    raw = {k: v for k, v in _base_config(**overrides).items() if v is not None}
    with pytest.raises(ConfigError) as info:
        run_experiment(ExperimentConfig.from_dict(raw))
    assert str(info.value) == message


_THETA_READERS = "theta only applies to CLT_T0, FCLT_SUP, NEGLIGIBILITY"
_ELL_READERS = "ell_method only applies to RAIKOV, JACK_RAIKOV, ARVESEN"
_KS_READERS = "ks_threshold only applies to CLT_T0, FCLT_SUP"
_REL_READERS = "rel_mean_threshold only applies to RAIKOV, JACK_RAIKOV, ARVESEN"
_SHARED_PAIR = dict(experiment="NEGLIGIBILITY", statistic="shared-pair",
                    kernel="product:m=3", n_grid=[8, 16])


@pytest.mark.parametrize("raw,message", [
    # a key the experiment does not read, set off its default
    (dict(experiment="RAIKOV", theta=1.0), _THETA_READERS),
    (dict(theta=0.0), _THETA_READERS),
    (dict(experiment="JACK_RAIKOV", t0=0.5), "t0 only applies to CLT_T0"),
    (dict(experiment="FCLT_SUP", rel_mean_threshold=None, ks_threshold=0.5, t0=0.5),
     "t0 only applies to CLT_T0"),
    (dict(experiment="FCLT_SUP", rel_mean_threshold=None, ks_threshold=0.5,
          ell_method="analytic-finite-var"), _ELL_READERS),
    (dict(experiment="NEGLIGIBILITY", rel_mean_threshold=None, statistic="shared-pair",
          kernel="product:m=3", n_grid=[8, 16], ell_method="analytic-finite-var"),
     _ELL_READERS),
    # a pass-rule threshold the experiment's rule does not read
    (dict(ks_threshold=0.5), _KS_READERS),
    (dict(experiment="JACK_RAIKOV", ks_threshold=0.5), _KS_READERS),
    (dict(_SHARED_PAIR, rel_mean_threshold=None, ks_threshold=0.5), _KS_READERS),
    (dict(experiment="CLT_T0", ks_threshold=0.5), _REL_READERS),
    (dict(experiment="FCLT_SUP", ks_threshold=0.5), _REL_READERS),
    (dict(experiment="FCLT_SUP"), _REL_READERS),
    (_SHARED_PAIR, _REL_READERS),
    # the unread key comes before the t0 range and the missing threshold
    (dict(experiment="FCLT_SUP", rel_mean_threshold=None, t0=2.0),
     "t0 only applies to CLT_T0"),
    # checks that an experiment reading the key still reaches
    (dict(experiment="CLT_T0", rel_mean_threshold=None, ks_threshold=0.5, t0=0.0),
     "t0 must lie in (0, 1], got 0.0"),
    (dict(experiment="CLT_T0", rel_mean_threshold=None, ks_threshold=0.5, t0=1.5),
     "t0 must lie in (0, 1], got 1.5"),
    (dict(experiment="RAIKOV", ell_method="nope"), "unknown ell_method 'nope'"),
    (dict(ell_method="nope"), "unknown ell_method 'nope'"),
])
def test_config_rejects_keys_the_experiment_does_not_read(raw, message):
    raw = {k: v for k, v in _base_config(**raw).items() if v is not None}
    with pytest.raises(ConfigError) as info:
        ExperimentConfig.from_dict(raw)
    assert str(info.value) == message


@pytest.mark.parametrize("raw", [
    dict(t0=1.0), dict(experiment="RAIKOV", theta=None, ell_method=None),
    dict(experiment="CLT_T0", rel_mean_threshold=None, ks_threshold=0.5, t0=0.5,
         theta=1.0),
    dict(experiment="FCLT_SUP", rel_mean_threshold=None, ks_threshold=0.5, theta=1.0),
    dict(experiment="NEGLIGIBILITY", rel_mean_threshold=None, statistic="centered-usq",
         kernel="variance", n_grid=[20, 40], theta=1.0),
    dict(experiment="JACK_RAIKOV", ell_method="analytic-finite-var"),
])
def test_config_accepts_keys_the_experiment_reads_or_left_at_default(raw):
    ExperimentConfig.from_dict({k: v for k, v in _base_config(**raw).items()
                                if v is not None or k in raw})


def test_benchmark_study_configs_validate():
    # every `ustatlab study` config the benchmark builds passes the
    # config check, at both sizes
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    checked = 0
    for workload in workloads.STUDY_WORKLOADS:
        for size in workloads.SIZES:
            for raw in workloads.study_configs(workload, 0, size).values():
                ExperimentConfig.from_dict(raw)
                checked += 1
    assert checked == 2 * (1 + 1 + 3)


@pytest.mark.parametrize("experiment,statistic", [
    ("RAIKOV", "selfnorm-ratio"),
    ("JACK_RAIKOV", "jackknife-ratio"),
    ("ARVESEN", "jackknife-variance"),
])
def test_degenerate_configuration_report(monkeypatch, experiment, statistic):
    # a vanishing projection variance drops every replication without
    # running one, and the report says so
    def no_replications(*args, **kwargs):
        raise AssertionError("replications ran")

    monkeypatch.setattr(experiments, "_collect", no_replications)
    report = run_experiment(ExperimentConfig.from_dict(_base_config(
        experiment=experiment, kernel="constant:c=2,m=2", n_grid=[50, 60])))
    assert report.notes == ["degenerate configuration: the projection variance "
                            "vanishes, every replication dropped"]
    assert report.per_n == [
        experiments.PerNRecord(n=n, statistic=statistic, mean=None, se=None, ks=None,
                               dropped=50, passed=False)
        for n in (50, 60)]
    assert not report.overall_pass
    assert report.dropped_total == 100
    assert report.values == {50: [None] * 50, 60: [None] * 50}


def _experiment_names_compared(tree) -> list:
    """Line numbers where code compares an ``experiment`` attribute with a
    string literal or a tuple of them, outside the ``_EXPERIMENTS`` table."""
    def literal(node):
        if isinstance(node, ast.Constant):
            return isinstance(node.value, str)
        return isinstance(node, (ast.Tuple, ast.List, ast.Set)) \
            and all(literal(e) for e in node.elts)

    table = set()
    for node in ast.walk(tree):
        targets = node.targets if isinstance(node, ast.Assign) else \
            [node.target] if isinstance(node, ast.AnnAssign) else []
        if any(isinstance(t, ast.Name) and t.id == "_EXPERIMENTS" for t in targets):
            table.update(id(n) for n in ast.walk(node))
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Compare) and id(node) not in table
            and any(isinstance(e, ast.Attribute) and e.attr == "experiment"
                    for e in [node.left, *node.comparators])
            and any(literal(e) for e in [node.left, *node.comparators])]


def test_only_the_table_tells_the_experiments_apart():
    # every experiment is one record of experiments._EXPERIMENTS: no other
    # code in the driver branches on an experiment's name
    src = Path(experiments.__file__).read_text()
    assert _experiment_names_compared(ast.parse(src)) == []
    assert _experiment_names_compared(ast.parse(
        "if c.experiment == 'A': pass\n"
        "x = c.experiment in ('A', 'B')\n"
        "y = c.experiment in EXPERIMENTS\n"
        "_EXPERIMENTS = {'A': c.experiment == 'A'}\n")) == [1, 2]


CONFIGS = Path(__file__).resolve().parent.parent / "configs"


@pytest.mark.parametrize("path", sorted(CONFIGS.rglob("*.json")),
                         ids=lambda p: str(p.relative_to(CONFIGS)))
def test_shipped_configs_resolve(path):
    # validates, resolves kernel, law and theta, and passes the experiment's
    # preflight; runs no replication
    cfg = ExperimentConfig.from_dict(json.loads(path.read_text()))
    assert experiments._EXPERIMENTS[cfg.experiment].preflight(cfg, *_resolve(cfg))


def test_scaled_configs_shipped():
    shipped = set(CONFIGS.rglob("*.json"))
    for name in ("fclt_sup_identity.json", "clt_example_heavy.json"):
        assert CONFIGS / "scaled" / name in shipped


def test_three_point_grid_builds_columns_in_first_replication_only(monkeypatch):
    # one binomial column per order, grown to the largest n: a study builds
    # its columns while its first replication walks up the grid, then never
    rep = [None]  # the replication running
    builds = []   # the replication of every column stored

    class Columns(dict):
        def __setitem__(self, m, col):
            builds.append(rep[0])
            super().__setitem__(m, col)

    monkeypatch.setattr(_accel, "_COLUMNS", Columns())
    rep_value = experiments._rep_value

    def counted(config, kernel, dist, theta, ells, r, sampler):
        rep[0] = r
        return rep_value(config, kernel, dist, theta, ells, r, sampler)

    monkeypatch.setattr(experiments, "_rep_value", counted)
    cfg = ExperimentConfig.from_dict(dict(
        version=1, experiment="FCLT_SUP", kernel="identity", dist="normal:0,1",
        n_grid=[100, 200, 400], replications=50, base_seed=3, ks_threshold=0.5))
    run_experiment(cfg)
    assert rep[0] == 49
    assert builds == [0, 0, 0]


def test_unknown_registry_names_are_config_errors():
    with pytest.raises(ConfigError):
        run_experiment(ExperimentConfig.from_dict(_base_config(kernel="nope")))
    with pytest.raises(ConfigError):
        run_experiment(ExperimentConfig.from_dict(_base_config(dist="nope:1")))


def test_arvesen_small_run_passes():
    report = run_experiment(ExperimentConfig.from_dict(_base_config()))
    assert report.overall_pass
    assert report.per_n[-1].mean == pytest.approx(1.0, abs=0.1)
    assert report.dropped_total == 0


def test_determinism_across_worker_counts():
    cfg = ExperimentConfig.from_dict(_base_config())
    serial = run_experiment(cfg, workers=1)
    parallel = run_experiment(cfg, workers=2)
    a, b = serial.to_dict(), parallel.to_dict()
    a.pop("runtime_seconds")
    b.pop("runtime_seconds")
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_clt_small_run():
    cfg = ExperimentConfig.from_dict(dict(
        version=1, experiment="CLT_T0", kernel="identity", dist="normal:0,1",
        n_grid=[300], replications=300, base_seed=11, ks_threshold=0.1, t0=0.5,
    ))
    report = run_experiment(cfg)
    assert report.overall_pass
    rec = report.per_n[0]
    assert rec.ks is not None and rec.ks < 0.1


def test_fclt_small_run():
    cfg = ExperimentConfig.from_dict(dict(
        version=1, experiment="FCLT_SUP", kernel="identity", dist="normal:0,1",
        n_grid=[200], replications=200, base_seed=13, ks_threshold=0.12,
    ))
    report = run_experiment(cfg)
    assert report.overall_pass


def test_raikov_and_jack_raikov_small():
    for exp in ("RAIKOV", "JACK_RAIKOV"):
        cfg = ExperimentConfig.from_dict(dict(
            version=1, experiment=exp, kernel="product:m=2", dist="normal:1,1",
            n_grid=[200, 400], replications=60, base_seed=17,
            rel_mean_threshold=0.15,
        ))
        report = run_experiment(cfg)
        assert report.overall_pass, report
        # ratio spread shrinks along the grid
        ses = [r.se for r in report.per_n]
        assert ses[-1] < ses[0]


def test_jack_raikov_constant_kernel_flags_degenerate():
    cfg = ExperimentConfig.from_dict(dict(
        version=1, experiment="JACK_RAIKOV", kernel="constant:c=2,m=2",
        dist="normal:0,1", n_grid=[50], replications=50, base_seed=3,
        rel_mean_threshold=0.1,
    ))
    report = run_experiment(cfg)
    assert not report.overall_pass
    assert any("degenerate" in note for note in report.notes)
    assert report.per_n[0].dropped == 50


def test_negligibility_experiment():
    cfg = ExperimentConfig.from_dict(dict(
        version=1, experiment="NEGLIGIBILITY", kernel="variance",
        dist="normal:0,1", n_grid=[25, 50, 100], replications=60, base_seed=5,
        statistic="centered-usq",
    ))
    report = run_experiment(cfg)
    assert report.overall_pass
    means = [r.mean for r in report.per_n]
    assert means[-1] < 0.5 * means[0]


def _negligibility_config(statistic, **overrides):
    raw = dict(
        version=1, experiment="NEGLIGIBILITY", dist="normal:0,1",
        replications=60, base_seed=19, statistic=statistic,
        **{"shared-pair": dict(kernel="product:m=3", n_grid=[8, 16, 32]),
           "diagonal-square": dict(kernel="constant:c=1,m=2", n_grid=[20, 80]),
           "centered-usq": dict(kernel="variance", n_grid=[20, 80])}[statistic],
    )
    raw.update(overrides)
    return ExperimentConfig.from_dict(raw)


@pytest.mark.parametrize("statistic", TREND_STATISTICS)
def test_negligibility_identical_across_worker_counts(statistic):
    config = _negligibility_config(statistic)
    texts = []
    for workers in (1, 2, 3):
        d = run_experiment(config, workers=workers).to_dict()
        d.pop("runtime_seconds")
        texts.append(json.dumps(d, sort_keys=True))
    assert texts[1] == texts[0]
    assert texts[2] == texts[0]


@pytest.mark.parametrize("statistic,n_grid", [
    (statistic, None) for statistic in TREND_STATISTICS
] + [("centered-usq", [20, 25])])
def test_negligibility_driver_matches_trend(statistic, n_grid):
    # the library loop is the driver's run on the resolved kernel and law,
    # so its report is the driver's, runtime aside; [20, 25] is too short
    # a grid for the trend to halve
    config = _negligibility_config(statistic, **({"n_grid": n_grid} if n_grid else {}))
    report = run_experiment(config)
    kernel, dist, _ = _resolve(config)
    trend = negligibility_trend(statistic, kernel, dist, config.n_grid,
                                config.replications, config.base_seed)
    texts = []
    for r in (trend, report):
        d = r.to_dict()
        d.pop("runtime_seconds")
        texts.append(json.dumps(d, sort_keys=True))
    assert texts[0] == texts[1]
    assert trend.values == report.values
    assert trend.overall_pass == (n_grid is None)
    assert all(r.passed == trend.overall_pass for r in trend.per_n)
    assert any("trend flag" in note for note in trend.notes) != trend.overall_pass
    assert trend.dropped_total == 0
    for r in trend.per_n:
        assert np.mean(trend.values[r.n]) == r.mean


@pytest.mark.parametrize("overrides,error,message", [
    (dict(kernel="product:m=2"), InvalidArgumentError, "order-3 kernel"),
    (dict(n_grid=[12, 61]), ResourceLimitError, "capped at 60"),
])
def test_negligibility_checks_run_before_the_pool(monkeypatch, overrides, error,
                                                  message):
    def no_fork():
        raise AssertionError("a worker was forked")

    monkeypatch.setattr(os, "fork", no_fork)
    with pytest.raises(error, match=message):
        run_experiment(_negligibility_config("shared-pair", **overrides), workers=2)


@pytest.mark.parametrize("workers", [1, 2])
def test_clt_k_is_checked_before_any_replication(monkeypatch, workers):
    # k = [n t0] < m at the grid's first n is a configuration error, raised
    # before the pool starts or any stream is drawn
    def no_replications(*args, **kwargs):
        raise AssertionError("replications ran")

    monkeypatch.setattr(experiments, "_collect", no_replications)
    cfg = ExperimentConfig.from_dict(dict(
        version=1, experiment="CLT_T0", kernel="product:m=2", dist="normal:0,1",
        n_grid=[50, 1000], t0=0.03, replications=50, base_seed=1,
        ks_threshold=0.5))
    with pytest.raises(ConfigError, match=r"^t0=0\.03 gives k=1 < m at n=50$"):
        run_experiment(cfg, workers=workers)


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("theta", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("experiment", ["CLT_T0", "FCLT_SUP"])
def test_non_finite_theta_is_rejected_before_any_replication(monkeypatch, experiment,
                                                             theta, workers):
    # the replications take theta unchecked, so the driver checks it first
    def no_replications(*args, **kwargs):
        raise AssertionError("replications ran")

    monkeypatch.setattr(experiments, "_collect", no_replications)
    cfg = ExperimentConfig.from_dict(dict(
        version=1, experiment=experiment, kernel="identity", dist="normal:0,1",
        n_grid=[50, 100], theta=theta, replications=50, base_seed=1,
        ks_threshold=0.5))
    with pytest.raises(DomainError, match="theta must be finite"):
        run_experiment(cfg, workers=workers)


def test_fclt_sup_checks_each_stream_once(monkeypatch):
    # a replication validates its stream once, at the grid's largest n,
    # and its statistics take every n's sample unchecked
    checked = []
    original = engine._as_sample

    def counted(data):
        checked.append(len(data))
        return original(data)

    for module in list(sys.modules.values()):
        if module is not None and module.__name__.startswith("ustatlab") \
                and getattr(module, "_as_sample", None) is original:
            monkeypatch.setattr(module, "_as_sample", counted)
    cfg = ExperimentConfig.from_dict(dict(
        version=1, experiment="FCLT_SUP", kernel="identity", dist="normal:0,1",
        n_grid=[100, 200, 400], replications=50, base_seed=3, ks_threshold=0.5))
    run_experiment(cfg)
    assert checked == [400] * 50


_COUNTED = dict(kernel="product:m=2", dist="normal:1,1", n_grid=[20, 40],
                replications=50, base_seed=5)


@pytest.mark.parametrize("raw", [
    dict(experiment="CLT_T0", t0=0.5, ks_threshold=0.5),
    dict(experiment="CLT_T0", ks_threshold=0.5),
    dict(experiment="FCLT_SUP", ks_threshold=0.5),
    dict(experiment="RAIKOV", rel_mean_threshold=0.5),
    dict(experiment="JACK_RAIKOV", rel_mean_threshold=0.5),
    dict(experiment="ARVESEN", rel_mean_threshold=0.5),
    *[dict(experiment="NEGLIGIBILITY", statistic=statistic,
           kernel="product:m=3" if statistic == "shared-pair" else "product:m=2",
           n_grid=[8, 12]) for statistic in TREND_STATISTICS],
], ids=lambda raw: "-".join(str(raw.get(k)) for k in ("experiment", "statistic", "t0")))
def test_every_replication_checks_its_stream_once(monkeypatch, raw):
    # the replication checks its stream, and every statistic takes its
    # samples unchecked, down to the engine's reductions
    checks = []
    original = engine._as_sample

    def counted(data):
        checks.append(len(data))
        return original(data)

    for module in list(sys.modules.values()):
        if module is not None and module.__name__.startswith("ustatlab") \
                and getattr(module, "_as_sample", None) is original:
            monkeypatch.setattr(module, "_as_sample", counted)
    config = ExperimentConfig.from_dict(dict(_COUNTED, version=1, **raw))
    run_experiment(config)
    assert len(checks) / config.replications == 1.0
    assert set(checks) == {config.n_grid[-1]}


def test_fclt_sup_replication_is_the_sup_of_each_path():
    # the replication's value at every n, from the chunk's reused buffer,
    # is sup_functional(studentized_path(...)) of a fresh sample, bit for bit
    cfg = ExperimentConfig.from_dict(dict(
        version=1, experiment="FCLT_SUP", kernel="product:m=2", dist="normal:1,2",
        n_grid=[30, 200, 500], theta=1.2, replications=50, base_seed=9,
        ks_threshold=0.5))
    kernel, dist, theta = _resolve(cfg)
    sampler = _GridSampler(dist, cfg.n_grid)
    for rep in (0, 1, 2):
        got = _rep_value(cfg, kernel, dist, theta, [None] * 3, rep, sampler)
        seed = replication_seed(cfg.base_seed, rep)
        assert got == [sup_functional(studentized_path(kernel, sample(dist, n, seed),
                                                       theta))
                       for n in cfg.n_grid]


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("raw", [
    dict(experiment="CLT_T0", kernel="product:m=2,a=2", dist="example:a=2",
         n_grid=[3, 40, 41, 200], ks_threshold=0.5),
    dict(experiment="FCLT_SUP", kernel="identity", dist="normal:0,1",
         n_grid=[2, 3, 50, 101], ks_threshold=0.5),
])
def test_grid_values_equal_single_n_runs(raw, workers):
    # a replication cuts every n's sample from one stream, and each equals
    # the sample a run at that n alone draws
    config = ExperimentConfig.from_dict(dict(raw, version=1, replications=50,
                                             base_seed=2 ** 63 + 29))
    grid = run_experiment(config, workers=workers)
    for n, record in zip(config.n_grid, grid.per_n):
        single = run_experiment(replace(config, n_grid=(n,)), workers=workers)
        assert grid.values[n] == single.values[n]
        assert single.per_n == [record]


def test_drop_policy_over_one_percent_fails():
    # a finite two-point distribution makes all-equal samples likely at
    # tiny n, so studentized replications degenerate more than 1% of the time
    cfg = ExperimentConfig.from_dict(dict(
        version=1, experiment="CLT_T0", kernel="identity",
        dist="finite:[-1,1];[0.5,0.5]", theta=0.0, n_grid=[4],
        replications=400, base_seed=23, ks_threshold=1.0,
    ))
    report = run_experiment(cfg)
    assert report.per_n[0].dropped > 4
    assert not report.overall_pass
    assert any("dropped" in n for n in report.notes)


def test_replication_makes_no_blas_call(monkeypatch):
    # a BLAS dot on an n-vector runs on BLAS's own thread pool, which
    # contends with the worker processes; a replication must not make one
    n = 20000
    cases = [
        ("FCLT_SUP", "identity", "normal:0,1", n, dict(ks_threshold=0.5)),
        ("CLT_T0", "product:m=2,a=2", "example:a=2", n, dict(ks_threshold=0.5)),
        ("RAIKOV", "product:m=2", "normal:1,1", n, dict(rel_mean_threshold=0.1)),
        ("JACK_RAIKOV", "product:m=2", "normal:1,1", n, dict(rel_mean_threshold=0.1)),
        ("ARVESEN", "product:m=2", "normal:1,1", n, dict(rel_mean_threshold=0.1)),
        # the trend statistics at their size caps
        ("NEGLIGIBILITY", "product:m=3", "normal:0,1", 60,
         dict(statistic="shared-pair")),
        ("NEGLIGIBILITY", "constant:c=1,m=2", "normal:0,1", 400,
         dict(statistic="diagonal-square")),
        ("NEGLIGIBILITY", "variance", "normal:0,1", 400,
         dict(statistic="centered-usq")),
    ]
    resolved = []
    for experiment, kernel, dist, size, extra in cases:
        config = ExperimentConfig(experiment=experiment, kernel=kernel, dist=dist,
                                  n_grid=(size,), replications=50, base_seed=5,
                                  **extra).validate()
        resolved.append((config, size) + _resolve(config))
    data = sample(normal(1, 1), n, 5)

    def no_blas(*args, **kwargs):
        raise AssertionError("numpy.dot called")

    monkeypatch.setattr(np, "dot", no_blas)
    for config, size, kernel, dist, theta in resolved:
        # the replication draws its own sample, inside the guard
        sampler = _GridSampler(dist, config.n_grid)
        (value,) = _rep_value(config, kernel, dist, theta, (1.0,), 0, sampler)
        assert value is not None and math.isfinite(value), config.experiment
    path = pseudo_selfnormalized_path(product_kernel(2), data, 1.0, data - 1.0)
    assert math.isfinite(path.values[n])
