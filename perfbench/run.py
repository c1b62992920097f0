#!/usr/bin/env python3
"""ustatlab benchmark: Monte Carlo study throughput on four workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Each workload invocation runs in fresh subprocesses against ``src/`` of the
checkout this file sits in: `ustatlab study` for fclt_path, clt_heavy and
negligibility_lab, the library loop in lab.py for truncated_lab.  One run

1. times SETUP_PROBES fresh interpreters that import ustatlab and load and
   validate the workload's inputs (setup_s);
2. repeats the invocation with --workers 2 for --seconds seconds
   (reps_per_s, peak_rss_mb);
3. repeats it once with --workers 1 and checks that the reports are
   byte-identical to the --workers 2 ones, runtime_seconds aside;
4. with --trace 1, runs it once more serially under traced.py and reports
   the per-layer metrics instead of the end-to-end ones.

Every invocation's outputs are checked (exit code, reference values,
values CSVs, the leave-one-out oracle); ``attempted`` and ``failed`` in
the result count invocations.  The last line of stdout is the result
JSON; the line before it records the environment.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

import oracle
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, "out")
REFERENCE = os.path.join(HERE, "reference.json")

SETUP_PROBES = 7
CALL_TIMEOUT_S = 150
REF_REL_TOL = 1e-6   # reports against reference.json
REF_ABS_TOL = 1e-9
EXACT_REL_TOL = 1e-9  # same numbers summed another way

REPLICATION = "experiments.replication"
VALUES_CSV = "cli.values_csv"
# Spans whose self time is a per-layer metric "<span>_s".
LAYER_SPANS = (
    "distributions.sample", "engine.u_statistic", "engine.u_prefix_process",
    "engine.combination_sum", "jackknife.closed_form",
    "processes.studentized_path", "processes.sup_functional",
    "accel.product_q_raw", "accel.q_raw", "accel.prefix_sums", "accel.ustat_sum",
    "accel.shared_pair_total", "decomposition.negligibility_trend",
    "experiments.run_experiment", "experiments.ks_distance", REPLICATION,
    VALUES_CSV,
)
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)


def _env() -> dict:
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=SRC + (os.pathsep + path if path else ""))


def spawn(argv: list, log: str) -> dict:
    """Run one child to exit; wall from spawn to exit, and the CPU time and
    peak RSS of its process tree (wait4 counts reaped descendants)."""
    with open(log, "w") as out, open(log + ".err", "w") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=_env(), stdout=out, stderr=err,
                                start_new_session=True)
        timer = threading.Timer(CALL_TIMEOUT_S, os.killpg, (proc.pid, signal.SIGKILL))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"wall": wall, "cpu": usage.ru_utime + usage.ru_stime,
            "rss_mb": usage.ru_maxrss / 1024.0, "code": proc.returncode, "log": log}


# ---------------------------------------------------------------------------
# inputs and invocations
# ---------------------------------------------------------------------------

def prepare(workload: str, seed: int, size: str, work: str) -> dict:
    """Write the invocation inputs; return name -> input file."""
    os.makedirs(work, exist_ok=True)
    if workload == workloads.LAB_WORKLOAD:
        items = {"lab": workloads.lab_plan(seed, size)}
    else:
        items = workloads.study_configs(workload, seed, size)
    paths = {}
    for name, content in items.items():
        paths[name] = os.path.join(work, f"{name}.json")
        with open(paths[name], "w") as fp:
            json.dump(content, fp, indent=1)
    return paths


def calls(workload: str, inputs: dict, workers: int, outdir: str) -> list:
    """[kind, argv] per subprocess of one invocation, without interpreter."""
    if workload == workloads.LAB_WORKLOAD:
        return [["lab", ["--plan", inputs["lab"], "--out", outdir]]]
    return [["study", ["study", "--config", path, "--out", os.path.join(outdir, name),
                       "--workers", str(workers)]]
            for name, path in inputs.items()]


def _command(kind: str, argv: list) -> list:
    if kind == "lab":
        return [sys.executable, os.path.join(HERE, "lab.py")] + argv
    return [sys.executable, "-m", "ustatlab"] + argv


def invoke(workload: str, inputs: dict, workers: int, outdir: str) -> dict:
    shutil.rmtree(outdir, ignore_errors=True)
    os.makedirs(outdir)
    parts = [spawn(_command(kind, argv), os.path.join(outdir, f"call{i}.log"))
             for i, (kind, argv) in enumerate(calls(workload, inputs, workers, outdir))]
    return {"wall": sum(p["wall"] for p in parts), "cpu": sum(p["cpu"] for p in parts),
            "rss_mb": max(p["rss_mb"] for p in parts),
            "codes": [p["code"] for p in parts], "outdir": outdir}


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------

def summarize(workload: str, inputs: dict, outdir: str, codes: list) -> dict:
    """name -> {exit, dropped, per_n: [[n, mean, se, ks], ...]}; the form
    reference.json stores."""
    if workload == workloads.LAB_WORKLOAD:
        with open(os.path.join(outdir, "result.json")) as fp:
            result = json.load(fp)
        with open(inputs["lab"]) as fp:
            cases = {c["name"]: c for c in json.load(fp)["cases"]}
        return {name: {"exit": codes[0], "dropped": r["dropped"],
                       "per_n": [[cases[name]["n"], r["mean"], r["se"], r["ks"]]]}
                for name, r in result.items()}
    out = {}
    for name, code in zip(inputs, codes):
        with open(os.path.join(outdir, name, "report.json")) as fp:
            report = json.load(fp)
        out[name] = {"exit": code, "dropped": report["dropped_total"],
                     "per_n": [[r["n"], r["mean"], r["se"], r["ks"]]
                               for r in report["per_n"]]}
    return out


def _close(a, b, rel: float, abs_tol: float = 0.0) -> bool:
    if a is None or b is None:
        return a is None and b is None
    return math.isclose(a, b, rel_tol=rel, abs_tol=abs_tol)


def compare(summary: dict, expected: dict) -> list:
    errors = []
    if sorted(summary) != sorted(expected):
        return [f"outputs {sorted(summary)} != reference {sorted(expected)}"]
    for name, exp in expected.items():
        got = summary[name]
        if got["exit"] != exp["exit"] or got["dropped"] != exp["dropped"]:
            errors.append(f"{name}: exit/dropped {got['exit']}/{got['dropped']}"
                          f" != reference {exp['exit']}/{exp['dropped']}")
        if len(got["per_n"]) != len(exp["per_n"]):
            errors.append(f"{name}: {len(got['per_n'])} grid points, reference "
                          f"{len(exp['per_n'])}")
            continue
        for g, e in zip(got["per_n"], exp["per_n"]):
            if g[0] != e[0] or not all(_close(a, b, REF_REL_TOL, REF_ABS_TOL)
                                       for a, b in zip(g[1:], e[1:])):
                errors.append(f"{name}: n={g[0]} mean/se/ks {g[1:]} != "
                              f"reference {e[1:]}")
    return errors


def check_values_csv(inputs: dict, outdir: str) -> list:
    """Each values_n*.csv holds R rows whose kept values average to the
    report's mean."""
    errors = []
    for name, path in inputs.items():
        with open(path) as fp:
            config = json.load(fp)
        if config["experiment"] == "NEGLIGIBILITY":
            continue
        with open(os.path.join(outdir, name, "report.json")) as fp:
            report = json.load(fp)
        for rec in report["per_n"]:
            csv_path = os.path.join(outdir, name, f"values_n{rec['n']}.csv")
            with open(csv_path) as fp:
                rows = [line.rstrip("\n").split(",") for line in fp][1:]
            kept = [float(v) for _, v in rows if v]
            if (len(rows) != config["replications"]
                    or len(kept) != len(rows) - rec["dropped"]
                    or not _close(math.fsum(kept) / len(kept), rec["mean"],
                                  EXACT_REL_TOL, 1e-12)):
                errors.append(f"{csv_path}: {len(rows)} rows, mean of kept values "
                              f"disagrees with report mean {rec['mean']}")
    return errors


def check_oracle(inputs: dict, outdir: str) -> list:
    """Truncated jackknife sum_sq against the brute-force leave-one-out oracle."""
    with open(inputs["lab"]) as fp:
        kernels = {c["name"]: c["kernel"] for c in json.load(fp)["cases"]}
    with open(os.path.join(outdir, "result.json")) as fp:
        result = json.load(fp)
    errors = []
    for name, r in result.items():
        want = oracle.truncated_jackknife_sum_sq(kernels[name], r["oracle"]["x"])
        if not _close(r["oracle"]["sum_sq"], want, EXACT_REL_TOL):
            errors.append(f"{name}: jackknife sum_sq {r['oracle']['sum_sq']!r} != "
                          f"leave-one-out oracle {want!r}")
    return errors


_RUNTIME_LINE = re.compile(r'^\s*"runtime_seconds": .*\n', re.MULTILINE)


def check_workers_identical(inputs: dict, dir_a: str, dir_b: str) -> list:
    errors = []
    for name in inputs:
        texts = []
        for d in (dir_a, dir_b):
            with open(os.path.join(d, name, "report.json")) as fp:
                texts.append(_RUNTIME_LINE.sub("", fp.read()))
        if texts[0] != texts[1]:
            errors.append(f"{name}: report.json differs between --workers 2 and 1")
    return errors


def check_invocation(workload, inputs, inv, expected) -> list:
    outdir = inv["outdir"]
    try:
        summary = summarize(workload, inputs, outdir, inv["codes"])
        errors = compare(summary, expected)
        if workload == workloads.LAB_WORKLOAD:
            errors += check_oracle(inputs, outdir)
        else:
            errors += check_values_csv(inputs, outdir)
    except (OSError, ValueError, KeyError, ZeroDivisionError) as exc:
        errors = [f"{outdir}: unreadable output: {exc!r}"]
    inv["summary"] = None if errors else summary
    return errors


# ---------------------------------------------------------------------------
# traced run
# ---------------------------------------------------------------------------

def invoke_traced(workload: str, inputs: dict, outdir: str):
    """The invocation with --workers 1, each subprocess under traced.py;
    returns it with the spans of all its subprocesses merged in order."""
    shutil.rmtree(outdir, ignore_errors=True)
    os.makedirs(outdir)
    parts, merged = [], {"phase_s": 0.0, "routes": {}, "spans": []}
    for i, (kind, argv) in enumerate(calls(workload, inputs, 1, outdir)):
        spans_path = os.path.join(outdir, f"spans{i}.json")
        parts.append(spawn([sys.executable, os.path.join(HERE, "traced.py"),
                            "--spans", spans_path, kind] + argv,
                           os.path.join(outdir, f"call{i}.log")))
        if not os.path.isfile(spans_path):
            raise RuntimeError(f"traced run wrote no spans, see {parts[-1]['log']}.err")
        with open(spans_path) as fp:
            trace = json.load(fp)
        base = len(merged["spans"])
        rep_base = 1 + max((sp[4] for sp in merged["spans"]), default=-1)
        merged["spans"] += [[name, start, end, parent + base if parent >= 0 else -1,
                             rep + rep_base if rep >= 0 else -1]
                            for name, start, end, parent, rep in trace["spans"]]
        merged["phase_s"] += trace["phase_s"]
        for route, n in trace["routes"].items():
            merged["routes"][route] = merged["routes"].get(route, 0) + n
    inv = {"wall": sum(p["wall"] for p in parts), "codes": [p["code"] for p in parts],
           "outdir": outdir}
    return inv, merged


def _nearest_rank(sorted_values: list, pct: float) -> float:
    k = max(1, math.ceil(pct / 100.0 * len(sorted_values)))
    return sorted_values[k - 1]


def span_metrics(trace: dict) -> dict:
    """Self times, call counts, replication durations and coverage of one
    traced invocation.  Self time is a span's duration minus the time its
    child spans cover; all spans are in one thread, so children never
    overlap."""
    spans = trace["spans"]
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    self_s, calls_n = {}, {}
    for i, (name, start, end, parent, _) in enumerate(spans):
        self_s[name] = self_s.get(name, 0.0) + (end - start) - child[i]
        calls_n[name] = calls_n.get(name, 0) + 1
    # A replication lasts as long as its replication span, or, where there
    # is none (NEGLIGIBILITY), from its first span's start to its last end.
    extent, marked = {}, set()
    for name, start, end, _, rep in spans:
        if rep < 0 or rep in marked:
            continue
        if name == REPLICATION:
            marked.add(rep)
            extent[rep] = (start, end)
        else:
            lo, hi = extent.get(rep, (start, end))
            extent[rep] = (min(lo, start), max(hi, end))
    rep_s = sorted(hi - lo for lo, hi in extent.values())

    def under_values_csv(i):
        while i >= 0:
            if spans[i][0] == VALUES_CSV:
                return True
            i = spans[i][3]
        return False

    csv_reps = sum(1 for i, sp in enumerate(spans)
                   if sp[0] == REPLICATION and under_values_csv(i))
    roots = sum(end - start for _, start, end, parent, _ in spans if parent < 0)
    return {"self_s": self_s, "calls": calls_n, "rep_s": rep_s,
            "values_csv_reps": csv_reps, "coverage": roots / trace["phase_s"]}


def layer_metrics(trace, traced_inv, timed, serial_inv, reps, import_s,
                  failed_frac) -> dict:
    sm = span_metrics(trace)
    rep_ms = [1000.0 * s for s in sm["rep_s"]] or [0.0]
    tail_pct = next((p for p in TAIL_PERCENTILES
                     if len(rep_ms) * (1.0 - p / 100.0) >= 10), 50.0)
    cpu = statistics.median(inv["cpu"] for inv in timed)
    w2_wall = statistics.median(inv["wall"] for inv in timed)
    # the lab loop is serial whatever --workers says
    untraced_wall = serial_inv["wall"] if serial_inv else w2_wall
    m = {f"{name}_s": (sm["self_s"].get(name, 0.0), "s") for name in LAYER_SPANS}
    m.update({
        "engine.u_prefix_process_calls": (sm["calls"].get("engine.u_prefix_process", 0), "count"),
        "distributions.sample_calls": (sm["calls"].get("distributions.sample", 0), "count"),
        "accel.enumeration_calls": (trace["routes"]["enumeration"], "count"),
        "accel.closed_form_calls": (trace["routes"]["closed_form"], "count"),
        "experiments.dropped": (sum(s["dropped"] for s in traced_inv["summary"].values()), "count"),
        "experiments.rep_ms_p50": (_nearest_rank(rep_ms, 50.0), "ms"),
        "experiments.rep_ms_tail": (_nearest_rank(rep_ms, tail_pct), "ms"),
        "experiments.rep_tail_pct": (tail_pct, "%"),
        "experiments.rep_samples": (len(sm["rep_s"]), "count"),
        "experiments.cpu_s_per_rep": (cpu / reps, "s"),
        "experiments.useful_cpu_frac": (sum(sm["rep_s"]) / cpu, "frac"),
        # 0 where --workers does not apply (the serial lab loop)
        "experiments.parallel_speedup": (untraced_wall / w2_wall if serial_inv else 0.0, "x"),
        "cli.values_csv_reps": (sm["values_csv_reps"], "count"),
        "cli.import_s": (import_s, "s"),
        "trace.coverage_frac": (sm["coverage"], "frac"),
        "trace.overhead_reps_per_s": (reps / untraced_wall - reps / traced_inv["wall"], "1/s"),
        "failed_frac": (failed_frac, "frac"),
    })
    return m


# ---------------------------------------------------------------------------
# one run
# ---------------------------------------------------------------------------

def _load_reference(size: str, workload: str, seed: int) -> dict:
    with open(REFERENCE) as fp:
        return json.load(fp)[size][workload][str(workloads.base_seed(seed))]


def run(workload: str, seed: int, seconds: float, trace: bool, size: str = "full"):
    """One benchmark run; returns (result dict, environment, errors)."""
    work = os.path.join(WORK, f"{workload}-{size}")
    shutil.rmtree(work, ignore_errors=True)
    inputs = prepare(workload, seed, size, work)
    expected = _load_reference(size, workload, seed)
    reps = workloads.replications(workload, seed, size)
    errors, counts = [], {"attempted": 0, "failed": 0}

    def checked(inv):
        counts["attempted"] += 1
        errs = check_invocation(workload, inputs, inv, expected)
        if errs:
            counts["failed"] += 1
            errors.extend(errs)
        return inv

    # 1. set-up: fresh interpreters import ustatlab and validate the inputs
    probe_args = (["--plan", inputs["lab"]] if workload == workloads.LAB_WORKLOAD
                  else ["--configs"] + list(inputs.values()))
    probes, probe_out = [], []
    for i in range(SETUP_PROBES):
        argv = [sys.executable, os.path.join(HERE, "probe.py")] + probe_args
        probes.append(spawn(argv + (["--environment"] if i == 0 else []),
                            os.path.join(work, f"probe{i}.log")))
        with open(probes[-1]["log"]) as fp:
            text = fp.read()
        if probes[-1]["code"] != 0:
            raise RuntimeError(f"set-up probe failed, see {probes[-1]['log']}.err")
        probe_out.append(json.loads(text))
    environment = probe_out[0]["environment"]

    # 2. timed invocations, --workers 2
    timed = []
    start = time.perf_counter()
    while not timed or time.perf_counter() - start < seconds:
        timed.append(checked(invoke(workload, inputs, 2, os.path.join(work, "w2"))))

    # 3. --workers 1, byte-identical reports (the study driver only)
    serial = None
    if workload != workloads.LAB_WORKLOAD:
        serial = checked(invoke(workload, inputs, 1, os.path.join(work, "w1")))
        if serial["summary"] is not None and timed[-1]["summary"] is not None:
            ident = check_workers_identical(inputs, timed[-1]["outdir"], serial["outdir"])
            if ident:
                counts["failed"] += 1
                errors.extend(ident)

    if not trace:
        metrics = {
            "reps_per_s": (statistics.median(reps / inv["wall"] for inv in timed), "1/s"),
            "setup_s": (statistics.median(p["wall"] for p in probes), "s"),
            "peak_rss_mb": (statistics.median(inv["rss_mb"] for inv in timed), "MB"),
        }
    else:
        # 4. traced invocation, serial
        traced_inv, spans = invoke_traced(workload, inputs, os.path.join(work, "traced"))
        checked(traced_inv)
        if traced_inv["summary"] is None:
            raise RuntimeError("traced run failed its checks: " + "; ".join(errors))
        failed_frac = counts["failed"] / counts["attempted"]
        metrics = layer_metrics(spans, traced_inv, timed, serial, reps,
                                statistics.median(p["import_s"] for p in probe_out),
                                failed_frac)
    result = {
        "correct": not errors,
        "attempted": counts["attempted"],
        "failed": counts["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, environment, errors


# ---------------------------------------------------------------------------
# self-test
# ---------------------------------------------------------------------------

def self_test() -> int:
    """Every workload at the tiny size, seed 0 untraced and seed 1 traced:
    every metric of BENCHMARK.json appears with its unit and every check
    passes."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fp:
        spec = json.load(fp)
    want = {False: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            True: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    for workload in workloads.WORKLOADS:
        for seed, trace in ((0, False), (1, True)):
            result, _, errors = run(workload, seed, 1, trace, size="tiny")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            label = f"{workload} seed={seed} trace={int(trace)}"
            before = len(problems)
            if got != want[trace]:
                problems.append(f"{label}: metrics/units {sorted(got.items())} != "
                                f"BENCHMARK.json {sorted(want[trace].items())}")
            if not result["correct"] or errors:
                problems.append(f"{label}: checks failed: {errors}")
            print(f"self-test {label}: {'ok' if len(problems) == before else 'FAIL'}",
                  flush=True)
    for p in problems:
        print(p, file=sys.stderr)
    print(json.dumps({"self_test": "fail" if problems else "pass"}))
    return 1 if problems else 0


def main() -> int:
    p = argparse.ArgumentParser(description="ustatlab benchmark (see README.md)")
    p.add_argument("--workload", choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--self-test", action="store_true")
    args = p.parse_args()
    if not os.path.isfile(os.path.join(SRC, "ustatlab", "__init__.py")):
        print(f"error: no ustatlab package under {SRC}", file=sys.stderr)
        return 2
    if args.self_test:
        return self_test()
    if args.workload is None:
        p.error("--workload is required")
    result, environment, errors = run(args.workload, args.seed, args.seconds,
                                      bool(args.trace))
    for e in errors:
        print(f"check failed: {e}", file=sys.stderr)
    print("# environment " + json.dumps(environment, sort_keys=True))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
