"""Command-line front end.

Subcommands: path, jackknife, study, decomp, verify-identity.
Exit codes: 0 success (study: all tolerances met), 1 study tolerances
failed, 2 configuration error, 3 degenerate normalizer.  The library
states every argument rule and refuses with a typed error, which exits
2; the CLI checks only its own flags, config reading and output paths.

``python -m ustatlab`` and the ``ustatlab`` script both end through
:func:`run`; :func:`main` returns the code instead, for callers that
stay in the process.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from contextlib import contextmanager
from dataclasses import asdict

import numpy as np

from .decomposition import ProductStatistic, expansion_report
from .distributions import dist_from_name, sample, derive_seed, DIST_REGISTRY_HELP
from .errors import (
    ConfigError,
    DegenerateNormalizerError,
    UStatError,
)
from .experiments import ExperimentConfig, _check_workers, report_to_json, run_experiment
from .jackknife import jackknife_closed_form, leave_one_out
from .kernels import (KERNEL_REGISTRY_HELP, _projection_values, kernel_from_name,
                      theta_under)
from .processes import (
    StepProcess,
    path_to_csv,
    pseudo_selfnormalized_path,
    studentized_path,
)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_CONFIG = 2
EXIT_DEGENERATE = 3


@contextmanager
def _writing(path: str, newline=None):
    """``open(path, "w")``: an output path that cannot be written is a
    usage error (exit 2), not a traceback."""
    try:
        with open(path, "w", newline=newline) as fp:
            yield fp
    except OSError as exc:
        raise ConfigError(f"cannot write {path!r}: {exc}") from exc


def cmd_path(args) -> int:
    kernel, dist = kernel_from_name(args.kernel), dist_from_name(args.dist)
    theta = args.theta if args.theta is not None else theta_under(kernel, dist)
    if theta is None:
        raise ConfigError(
            f"theta unresolved for '{args.kernel}' under '{args.dist}'; "
            "pass --theta"
        )
    data = sample(dist, args.n, args.seed)
    if args.process == "pseudo":
        proj = _projection_values(kernel, dist, data)
        path = pseudo_selfnormalized_path(kernel, data, theta, proj)
    else:
        path = studentized_path(kernel, data, theta)
    with _writing(args.out, newline="") as fp:
        path_to_csv(path, fp)
    if args.svg:
        with _writing(args.svg) as fp:
            fp.write(render_svg(path))
    print(f"wrote {args.out}" + (f" and {args.svg}" if args.svg else ""))
    return EXIT_OK


def render_svg(path: StepProcess) -> str:
    """Minimal fixed-size polyline plot of a step path."""
    width, height, pad = 800, 400, 40
    vals = path.values
    lo, hi = float(vals.min()), float(vals.max())
    if hi - lo < 1e-12:
        lo, hi = lo - 1.0, hi + 1.0
    xs = pad + (width - 2 * pad) * np.arange(len(vals)) / (len(vals) - 1)
    ys = height - pad - (height - 2 * pad) * (vals - lo) / (hi - lo)
    pts = " ".join(f"{x:.2f},{y:.2f}" for x, y in zip(xs, ys))
    y0 = height - pad - (height - 2 * pad) * (0.0 - lo) / (hi - lo)
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {width} {height}">\n'
        f'  <rect width="{width}" height="{height}" fill="white"/>\n'
        f'  <line x1="{pad}" y1="{height - pad}" x2="{width - pad}" '
        f'y2="{height - pad}" stroke="black"/>\n'
        f'  <line x1="{pad}" y1="{pad}" x2="{pad}" y2="{height - pad}" '
        f'stroke="black"/>\n'
        f'  <line x1="{pad}" y1="{y0:.2f}" x2="{width - pad}" y2="{y0:.2f}" '
        f'stroke="#999" stroke-dasharray="4"/>\n'
        f'  <polyline points="{pts}" fill="none" stroke="#1f77b4"/>\n'
        f"</svg>\n"
    )


def cmd_jackknife(args) -> int:
    kernel, dist = kernel_from_name(args.kernel), dist_from_name(args.dist)
    data = sample(dist, args.n, args.seed)
    summary = jackknife_closed_form(kernel, data)
    out = asdict(summary)
    out["leave_one_out"] = summary.leave_one_out.tolist()
    out["q"] = summary.q.tolist()
    print(json.dumps(out, indent=2, sort_keys=True))
    return EXIT_OK


def cmd_study(args) -> int:
    try:
        with open(args.config) as fp:
            raw = json.load(fp)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {args.config!r}: {exc}") from exc
    config = ExperimentConfig.from_dict(raw)
    # the output directory is made before the first replication, so an
    # unusable one costs no work
    _check_workers(args.workers)
    try:
        os.makedirs(args.out, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {args.out!r}: {exc}") from exc
    report = run_experiment(config, workers=args.workers)
    report_path = os.path.join(args.out, "report.json")
    with _writing(report_path) as fp:
        fp.write(report_to_json(report))
        fp.write("\n")
    _write_summary_csv(os.path.join(args.out, "summary.csv"), report)
    for n, values in report.values.items():
        _write_values_csv(args.out, n, values)
    status = "PASS" if report.overall_pass else "FAIL"
    print(f"{config.experiment}: {status} (report: {report_path})")
    return EXIT_OK if report.overall_pass else EXIT_FAIL


def _write_summary_csv(path: str, report) -> None:
    with _writing(path, newline="") as fp:
        w = csv.writer(fp)
        w.writerow(["n", "statistic", "mean", "se", "ks", "pass"])
        for rec in report.per_n:
            w.writerow([
                rec.n, rec.statistic,
                "" if rec.mean is None else repr(rec.mean),
                "" if rec.se is None else repr(rec.se),
                "" if rec.ks is None else repr(rec.ks),
                rec.passed,
            ])


def _write_values_csv(out_dir: str, n: int, values: list) -> None:
    with _writing(os.path.join(out_dir, f"values_n{n}.csv"), newline="") as fp:
        w = csv.writer(fp)
        w.writerow(["replication", "value"])
        for rep, v in enumerate(values):
            w.writerow([rep, "" if v is None else repr(v)])


def cmd_decomp(args) -> int:
    ps = ProductStatistic(base=kernel_from_name(args.kernel), shared=args.shared)
    report = expansion_report(ps, dist_from_name(args.dist), bound_n=args.bound_n)
    text = json.dumps(report, indent=2, sort_keys=True)
    if args.out:
        with _writing(args.out) as fp:
            fp.write(text)
            fp.write("\n")
        print(f"wrote {args.out}")
    else:
        print(text)
    bad = [t["id"] for t in report["terms"] if not t["degenerate"]]
    if bad or report["reconstruction_max_error"] > 1e-10:
        return EXIT_FAIL
    return EXIT_OK


def cmd_verify_identity(args) -> int:
    kernel, dist = kernel_from_name(args.kernel), dist_from_name(args.dist)
    if args.trials < 1:
        raise ConfigError(f"--trials must be >= 1, got {args.trials}")
    worst = 0.0
    for trial in range(args.trials):
        data = sample(dist, args.n, derive_seed(args.seed, trial))
        summary = jackknife_closed_form(kernel, data)
        loo = leave_one_out(kernel, data)
        naive = (args.n - 1) * float(np.sum((loo - summary.u_n) ** 2))
        scale = max(abs(naive), abs(summary.sum_sq), 1e-30)
        worst = max(worst, abs(naive - summary.sum_sq) / scale)
    print(f"max relative discrepancy over {args.trials} trials: {worst:.3e}")
    return EXIT_OK if worst <= 1e-9 else EXIT_FAIL


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="ustatlab",
        description="U-statistic processes, jackknife identities, and "
                    "Monte Carlo law checks",
    )
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("path", help="emit a step-process path as CSV/SVG")
    sp.add_argument("--kernel", required=True, help=KERNEL_REGISTRY_HELP)
    sp.add_argument("--dist", required=True, help=DIST_REGISTRY_HELP)
    sp.add_argument("--theta", type=float, default=None)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--process", choices=("pseudo", "studentized"),
                    default="studentized")
    sp.add_argument("--out", required=True)
    sp.add_argument("--svg", default=None)
    sp.set_defaults(fn=cmd_path)

    sj = sub.add_parser("jackknife", help="print a jackknife summary as JSON")
    sj.add_argument("--kernel", required=True)
    sj.add_argument("--dist", required=True)
    sj.add_argument("--n", type=int, required=True)
    sj.add_argument("--seed", type=int, default=0)
    sj.set_defaults(fn=cmd_jackknife)

    ss = sub.add_parser("study", help="run an experiment config")
    ss.add_argument("--config", required=True)
    ss.add_argument("--out", required=True)
    ss.add_argument("--workers", type=int, default=1, help="defaults to 1")
    ss.set_defaults(fn=cmd_study)

    sd = sub.add_parser("decomp", help="verify the degenerate expansion")
    sd.add_argument("--kernel", required=True)
    sd.add_argument("--dist", required=True, help="finite:... registry entry")
    sd.add_argument("--shared", type=int, choices=(1, 2), default=1)
    sd.add_argument("--bound-n", type=int, default=None, dest="bound_n")
    sd.add_argument("--out", default=None)
    sd.set_defaults(fn=cmd_decomp)

    sv = sub.add_parser("verify-identity",
                        help="naive vs closed-form jackknife comparison")
    sv.add_argument("--kernel", required=True)
    sv.add_argument("--dist", required=True)
    sv.add_argument("--n", type=int, required=True)
    sv.add_argument("--trials", type=int, default=100)
    sv.add_argument("--seed", type=int, default=0)
    sv.set_defaults(fn=cmd_verify_identity)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except DegenerateNormalizerError as exc:
        print(f"degenerate normalizer: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except UStatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def run(argv=None):
    """main(), then end the process at once with its exit code.  By then
    every output file is closed and every forked study worker has been
    reaped, so what a normal exit would still do is the interpreter's
    teardown: a final garbage collection over numpy's and the package's
    objects, tens of milliseconds that change nothing.  Only the stdio
    buffers are flushed first."""
    code = main(argv)
    sys.stdout.flush()
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    run()
