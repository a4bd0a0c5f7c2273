"""Freeze the expected output of every benchmark job from the current library.

    python3 perfbench/freeze.py [workload ...]

Writes ``perfbench/expected/<workload>.json``. Refuses to write a workload
whose outputs include an error or break a reset-word invariant. Rerun only
when a change is meant to alter outputs, and say so in the change.
"""

import json
import os
import sys

from workloads import WORKLOADS, HERE, failed_jobs, load_library, run_job


def main(names):
    root = os.path.dirname(HERE)
    for workload in names or sorted(WORKLOADS):
        lib = load_library(root)
        inputs = WORKLOADS[workload](lib, {})
        outputs = {job.id: run_job(lib, job) for job in inputs.jobs}
        bad = failed_jobs(lib, inputs, outputs)
        if bad:
            print(f"{workload}: not frozen, failing jobs {sorted(bad)}", file=sys.stderr)
            return 1
        path = os.path.join(HERE, "expected", f"{workload}.json")
        with open(path, "w") as fh:
            json.dump({"jobs": outputs}, fh, sort_keys=True, separators=(",", ":"))
            fh.write("\n")
        print(f"{workload}: {len(outputs)} job outputs frozen in {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
