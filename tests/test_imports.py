"""What a process loads: the package exports lazily, the library paths
leave out the decomposition lab and the study driver, no study loads a
process pool module or the decomposition lab, ``ustatlab.cli`` loads
every layer the traced benchmark wraps, and the fixed-point ell(n) route
loads no scipy.
Each check runs in a fresh interpreter, but for the import graph, which
is read from the source."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

EXPORTS = [
    "ConfigError", "ConvergenceReport", "DegenerateNormalizerError", "Distribution",
    "DomainError", "EllEstimate", "ExperimentConfig", "InsufficientDataError",
    "InvalidArgumentError", "JackknifeSummary", "Kernel", "MomentBoundResult",
    "MomentDiagnostic", "PreconditionViolationError", "ProductStatistic",
    "ResourceLimitError", "StepProcess", "TruncationMode",
    "TruncationRule", "UPrefixValues", "UStatError", "UnsupportedOperationError",
    "VExpansion", "VTerm", "abs_sup_functional", "build_v_expansion",
    "check_degeneracy", "constant_kernel", "degenerate_moment_bound", "derive_seed",
    "dist_from_name", "estimate_ell", "eval_kernel", "eval_product_statistic",
    "example_density", "finite", "identity_kernel", "jackknife_closed_form",
    "kernel_from_name", "ks_distance", "leave_one_out", "make_kernel",
    "moment_diagnostic", "negligibility_trend", "normal", "normal_cdf", "pareto",
    "product_kernel", "project_h1", "pseudo_selfnormalized_path",
    "reconstruction_max_error", "replication_seed", "run_experiment", "sample",
    "sample_grid", "studentized_path", "studentized_value", "sup_functional",
    "theta_under", "truncate_kernel", "u_prefix_process", "u_statistic",
    "variance_kernel", "wiener_sup_cdf",
]


def fresh(code: str):
    """Run ``code`` in a new interpreter on this checkout's src/ and return
    the JSON it prints last."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


POOLS = ("concurrent.futures", "multiprocessing")
LOADED = ("json.dumps(sorted(k for k in sys.modules "
          f"if k.startswith('ustatlab.') or k in {POOLS!r}))")


def test_import_loads_no_submodule():
    assert fresh(f"import json, sys, ustatlab; print({LOADED})") == []


def test_library_path_skips_decomposition_cli_and_pool():
    loaded = fresh(
        "import json, sys, ustatlab\n"
        "ustatlab.studentized_path, ustatlab.sup_functional\n"
        "ustatlab.ks_distance, ustatlab.truncate_kernel\n"
        f"print({LOADED})")
    assert "ustatlab.processes" in loaded
    assert not {"ustatlab.experiments", "ustatlab.decomposition", "ustatlab.cli",
                *POOLS} & set(loaded)


def test_truncated_monte_carlo_loop_skips_study_driver():
    # the calls of a library Monte Carlo loop over FULL_M-truncated kernels:
    # the limit laws, the KS distance and the replication seeds come from
    # the path functionals and the samplers, not from the study driver
    loaded, same_seed, same_ks = fresh(
        "import json, sys, ustatlab as us\n"
        "kernel, dist, n = us.product_kernel(2), us.normal(1, 1), 40\n"
        "rule = us.TruncationRule(us.TruncationMode.FULL_M, n)\n"
        "sups = [us.sup_functional(us.studentized_path(us.truncate_kernel(kernel, rule),\n"
        "                                              us.sample(dist, n, us.replication_seed(3, r)),\n"
        "                                              1.0))\n"
        "        for r in range(20)]\n"
        "assert 0 < us.ks_distance(sups, us.wiener_sup_cdf) <= 1\n"
        "x = us.sample(dist, 10, us.replication_seed(3, 0))\n"
        "assert us.jackknife_closed_form(us.truncate_kernel(kernel, rule), x).sum_sq > 0\n"
        "loaded = sorted(sys.modules)\n"
        "same_seed = us.replication_seed is us.derive_seed\n"
        "print(json.dumps([loaded, same_seed,\n"
        "                  us.ks_distance is us.experiments.ks_distance]))")
    assert "ustatlab.processes" in loaded
    assert not {"ustatlab.experiments", "ustatlab.decomposition", "ustatlab.cli"} & set(loaded)
    assert same_seed and same_ks


def test_forked_study_loads_no_process_pool(tmp_path):
    # the study forks its workers itself
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps(dict(
        version=1, experiment="FCLT_SUP", kernel="identity", dist="normal:0,1",
        n_grid=[20, 40], replications=50, base_seed=3, ks_threshold=1.0)))
    argv = ["study", "--config", str(config), "--out", str(tmp_path / "out"),
            "--workers", "2"]
    loaded = fresh("import json, sys\n"
                   "from ustatlab.cli import main\n"
                   f"assert main({argv!r}) == 0\n"
                   f"print({LOADED})")
    assert not set(POOLS) & set(loaded)
    assert "ustatlab.experiments" in loaded


def test_negligibility_study_skips_decomposition():
    # the study driver owns NEGLIGIBILITY: its statistics, checks and loop
    loaded = fresh(
        "import json, sys, ustatlab\n"
        "ustatlab.run_experiment(ustatlab.ExperimentConfig.from_dict(dict(\n"
        "    version=1, experiment='NEGLIGIBILITY', kernel='product:m=3',\n"
        "    dist='normal:0,1', n_grid=[8, 12], replications=50, base_seed=3,\n"
        "    statistic='shared-pair')))\n"
        f"print({LOADED})")
    assert "ustatlab.experiments" in loaded
    assert "ustatlab.decomposition" not in loaded


def test_fixed_point_ell_loads_no_scipy():
    # the fixed point's truncated moments are closed forms and a fixed
    # Gauss-Legendre rule, so numpy is the only third-party module loaded
    loaded = fresh(
        "import json, sys, ustatlab, ustatlab.cli\n"
        "est = ustatlab.estimate_ell(ustatlab.pareto(2, 1), ustatlab.product_kernel(2), 10**4)\n"
        "assert est.method == 'truncated-fixed-point'\n"
        "ustatlab.run_experiment(ustatlab.ExperimentConfig.from_dict(dict(\n"
        "    version=1, experiment='RAIKOV', kernel='product:m=2', dist='pareto:2,1',\n"
        "    n_grid=[200, 400], replications=50, base_seed=3, rel_mean_threshold=0.05)))\n"
        "print(json.dumps(sorted(sys.modules)))")
    assert "ustatlab.experiments" in loaded
    assert not [name for name in loaded if name.split(".")[0] == "scipy"]


def _imported_modules(module: str) -> set:
    """The ustatlab modules ``module`` imports anywhere in its source,
    inside functions too."""
    tree = ast.parse((SRC / "ustatlab" / f"{module}.py").read_text())
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level and node.module:
                names.add(node.module.split(".")[0])
            elif node.level:
                names.update(alias.name for alias in node.names)
            elif node.module and node.module.startswith("ustatlab."):
                names.add(node.module.split(".")[1])
        elif isinstance(node, ast.Import):
            names.update(alias.name.split(".")[1] for alias in node.names
                         if alias.name.startswith("ustatlab."))
    return names


def test_accel_imports_no_ustatlab_module():
    # _accel answers or declines; every refusal belongs to the engine
    assert _imported_modules("_accel") == set()


def test_experiments_and_decomposition_do_not_import_each_other():
    # the exact lab stands below the study driver: neither loads the other,
    # and the lab takes no Monte Carlo reduction from the engine
    assert "decomposition" not in _imported_modules("experiments")
    assert not {"experiments", "engine"} & _imported_modules("decomposition")
    assert {"kernels", "errors"} <= _imported_modules("decomposition")


def test_exports_and_version():
    names, version = fresh("import json, ustatlab\n"
                           "print(json.dumps([sorted(ustatlab.__all__), ustatlab.__version__]))")
    assert names == sorted(EXPORTS)
    assert version == "0.1.0"


def test_star_import_and_dir_list_every_export():
    bound, listed = fresh(
        "import json, ustatlab\n"
        "scope = {}\n"
        "exec('from ustatlab import *', scope)\n"
        "print(json.dumps([sorted(n for n in scope if n != '__builtins__'), dir(ustatlab)]))")
    assert bound == sorted(EXPORTS)
    assert set(EXPORTS) <= set(listed)


def test_names_resolve_to_their_modules():
    assert fresh(
        "import json, ustatlab\n"
        "decomposition = ustatlab.decomposition\n"
        "from ustatlab import kernels\n"
        "print(json.dumps([ustatlab.truncate_kernel is kernels.truncate_kernel,\n"
        "                  ustatlab.ProductStatistic is decomposition.ProductStatistic,\n"
        "                  decomposition.__name__]))") == [True, True, "ustatlab.decomposition"]


def test_unknown_name_raises_attribute_error():
    message = fresh("import json, ustatlab\n"
                    "try:\n"
                    "    ustatlab.no_such_name\n"
                    "except AttributeError as exc:\n"
                    "    print(json.dumps(str(exc)))")
    assert message == "module 'ustatlab' has no attribute 'no_such_name'"


def test_cli_loads_every_traced_layer():
    # perfbench/traced.py looks each target module up in sys.modules right
    # after `import ustatlab.cli`; a cli that imports lazily must fail here
    tree = ast.parse((ROOT / "perfbench" / "traced.py").read_text())
    targets = next(node.value for node in ast.walk(tree)
                   if isinstance(node, ast.Assign)
                   and any(getattr(t, "id", None) == "TARGETS" for t in node.targets))
    wanted = {ast.literal_eval(entry.elts[0]) for entry in targets.elts}
    wanted = {m for m in wanted if m.startswith("ustatlab.")}
    assert "ustatlab.decomposition" in wanted
    loaded = fresh("import json, sys, ustatlab.cli\n"
                   "print(json.dumps(sorted(sys.modules)))")
    assert wanted <= set(loaded)
