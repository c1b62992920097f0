"""Record reference.json from the program in src/.

    python3 perfbench/record_reference.py [--sizes full tiny]

For every size, workload and pool base seed, runs one invocation and
stores its summary: exit code, dropped count and per-n mean, se and KS
distance.  Re-record only when the workloads themselves change; a change
to the program must reproduce these values, not replace them.
"""

import argparse
import json
import os
import sys

import run
import workloads


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--sizes", nargs="+", choices=workloads.SIZES, default=workloads.SIZES)
    args = p.parse_args()
    try:
        with open(run.REFERENCE) as fp:
            reference = json.load(fp)
    except FileNotFoundError:
        reference = {}
    work = os.path.join(run.WORK, "record")
    status = 0
    for size in args.sizes:
        reference[size] = {}
        for workload in workloads.WORKLOADS:
            table = reference[size][workload] = {}
            for k in range(workloads.POOL_SIZE):
                inputs = run.prepare(workload, k, size, work)
                inv = run.invoke(workload, inputs, 2, os.path.join(work, "out"))
                summary = run.summarize(workload, inputs, inv["outdir"], inv["codes"])
                if any(inv["codes"]):
                    print(f"{size} {workload} seed {k}: exit codes {inv['codes']}",
                          file=sys.stderr)
                    status = 1
                table[str(workloads.base_seed(k))] = summary
                print(f"{size} {workload} seed {k}: {inv['wall']:.2f} s", flush=True)
    with open(run.REFERENCE, "w") as fp:
        json.dump(reference, fp, indent=1, sort_keys=True)
        fp.write("\n")
    return status


if __name__ == "__main__":
    sys.exit(main())
