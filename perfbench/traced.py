"""Traced run: one benchmark invocation executed serially in this process,
with every layer's public functions wrapped where their callers look
them up.

    python3 perfbench/traced.py --spans OUT.json (study|lab) ARGS...

Runs ustatlab.cli.main(ARGS) for "study" or lab.main(ARGS) for "lab" --
the same call an untraced invocation makes in its own subprocess.  Study
calls must pass --workers 1 so every span stays in this process.  Spans
are kept in memory as [name, start, end, parent index, replication id]
and written to OUT.json at the end, together with the per-route call
counts of ``ustatlab._accel``, the exit code and the wall time of the
call.  A target that no longer exists is reported on stderr and its
metrics read 0.
"""

import argparse
import json
import math
import os
import sys
import time

import ustatlab.cli

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import lab  # noqa: E402

REPLICATION = "experiments.replication"
NEGLIGIBILITY = "decomposition.negligibility_trend"
SAMPLE = "distributions.sample"


def _by_threshold(args) -> str:
    """_accel routes take (code, thr, data, ...); a finite thr enumerates."""
    return "enumeration" if math.isfinite(args[1]) else "closed_form"


def _closed_form(args) -> str:
    return "closed_form"


# (module, attribute, span name, route classifier or None).  The
# replication spans mark one replication each: a study's _rep_value or a
# lab replicate.  NEGLIGIBILITY has no per-replication function, so there
# each sample drawn directly under negligibility_trend starts one.
TARGETS = [
    ("ustatlab.distributions", "sample", SAMPLE, None),
    ("ustatlab.engine", "u_statistic", "engine.u_statistic", None),
    ("ustatlab.engine", "u_prefix_process", "engine.u_prefix_process", None),
    ("ustatlab.engine", "combination_sum", "engine.combination_sum", None),
    ("ustatlab.jackknife", "jackknife_closed_form", "jackknife.closed_form", None),
    ("ustatlab.processes", "studentized_path", "processes.studentized_path", None),
    ("ustatlab.processes", "sup_functional", "processes.sup_functional", None),
    ("ustatlab._accel", "esp", "accel.esp", _closed_form),
    ("ustatlab._accel", "esp_prefix", "accel.esp_prefix", _closed_form),
    ("ustatlab._accel", "product_q_raw", "accel.product_q_raw", _closed_form),
    ("ustatlab._accel", "q_raw", "accel.q_raw", _by_threshold),
    ("ustatlab._accel", "prefix_sums", "accel.prefix_sums", _by_threshold),
    ("ustatlab._accel", "ustat_sum", "accel.ustat_sum", _by_threshold),
    ("ustatlab._accel", "shared_pair_total", "accel.shared_pair_total", _by_threshold),
    ("ustatlab.decomposition", "negligibility_trend", NEGLIGIBILITY, None),
    ("ustatlab.experiments", "run_experiment", "experiments.run_experiment", None),
    ("ustatlab.experiments", "ks_distance", "experiments.ks_distance", None),
    ("ustatlab.experiments", "_rep_value", REPLICATION, None),
    ("ustatlab.cli", "_write_values_csv", "cli.values_csv", None),
    ("lab", "replicate", REPLICATION, None),
]


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.routes = {"enumeration": 0, "closed_form": 0}
        self.replications = 0
        self.current = -1  # replication id of new spans, -1 outside any

    def _new_replication(self) -> int:
        self.current = self.replications
        self.replications += 1
        return self.current

    def wrap(self, name, fn, route):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def traced(*args, **kwargs):
            saved = self.current
            if name == REPLICATION:
                self._new_replication()
            elif name == SAMPLE and stack and spans[stack[-1]][0] == NEGLIGIBILITY:
                saved = self._new_replication()  # lasts until the next sample
            if route is not None:
                self.routes[route(args)] += 1
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.current]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
                self.current = saved

        return traced

    def install(self) -> list:
        """Wrap every target in every namespace that holds it; return the
        targets that do not exist."""
        modules = [m for k, m in sys.modules.items()
                   if m is not None and (k in ("ustatlab", "lab") or k.startswith("ustatlab."))]
        missing = []
        for modname, attr, name, route in TARGETS:
            orig = getattr(sys.modules[modname], attr, None)
            if orig is None:
                missing.append(f"{modname}.{attr}")
                continue
            traced = self.wrap(name, orig, route)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, key, traced)
        return missing


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--spans", required=True)
    p.add_argument("kind", choices=("study", "lab"))
    p.add_argument("argv", nargs=argparse.REMAINDER)
    args = p.parse_args()
    tracer = Tracer()
    missing = tracer.install()
    if missing:
        print(f"traced: not found, so not traced: {missing}", file=sys.stderr)
    start = time.perf_counter()
    code = (ustatlab.cli.main if args.kind == "study" else lab.main)(args.argv)
    phase_s = time.perf_counter() - start
    with open(args.spans, "w") as fp:
        json.dump({"phase_s": phase_s, "code": code, "routes": tracer.routes,
                   "spans": tracer.spans}, fp)
    return code


if __name__ == "__main__":
    sys.exit(main())
