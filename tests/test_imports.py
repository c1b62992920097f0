"""What a process loads: the package exports lazily, the library paths
leave out the decomposition lab and the study driver, no study loads a
process pool module, and ``ustatlab.cli`` loads every layer the traced
benchmark wraps.
Each check runs in a fresh interpreter."""

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
    "ResourceLimitError", "StepProcess", "TrendTable", "TruncationMode",
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
    assert "ustatlab.processes" in loaded and "ustatlab.experiments" in loaded
    assert not {"ustatlab.decomposition", "ustatlab.cli", *POOLS} & set(loaded)


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
