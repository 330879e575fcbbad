"""Write reference.json: the outputs of the first operations at the default seed.

    python3 perfbench/make_reference.py

The stored values come from the program as it stood when the benchmark was
defined, so a later change is checked against them.  Re-running this script
replaces that baseline; do so only when a change of output is intended and
recorded.
"""

from __future__ import annotations

import json
import shutil
import sys

import run  # pins BLAS threads before numpy is imported
from workloads import WORKLOADS

# operations per workload: more than one run at the benchmark's length issues
OPS = {"coupled-radius": 16, "localization": 4, "cross-threshold": 4}


def main() -> int:
    fewbody = run.import_fewbody()
    workdir = run.RESULTS / "work-reference"
    workdir.mkdir(parents=True, exist_ok=True)
    out = {"seed": run.DEFAULT_SEED, "workloads": {}}
    try:
        for name, n_ops in OPS.items():
            workload = WORKLOADS[name]
            entries = []
            for i in range(n_ops):
                op = workload.prepare(run.DEFAULT_SEED, i, workdir)
                output = workload.run(op, fewbody)
                problems = workload.check(op, output, None)
                if problems:
                    raise SystemExit(f"{name} operation {i}: {problems}")
                entries.append({"spec": json.loads(json.dumps(op.spec)),
                                "output": workload.summary(output)})
                print(name, i, entries[-1]["output"], file=sys.stderr)
            out["workloads"][name] = entries
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    (run.HERE / "reference.json").write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
