"""Rewrite reference.json from the source tree in the current directory.

    python3 perfbench/record_reference.py

Runs the fixed reference inputs of ``score-d8`` and ``tune-gmm`` once and
stores their discrepancy values.  Only a change that alters these values on
purpose should rerun it.
"""

import json
import os
import sys

import checks
import inputs
from run import HERE, Bench, WORKLOADS


def main():
    reference = {}
    for name, workload in WORKLOADS.items():
        if workload.reference_check is None:
            continue
        bench = Bench(name, inputs.REFERENCE_SEED, os.path.join(HERE, "work", f"record-{name}"))
        config = inputs.write_reference_inputs(name, bench.work_dir)
        run = bench.run("reference", workload.threads, config=config,
                        check=workload.reference_check)
        if run is None:
            return 1
        reference[name] = checks.discrepancy_values(name, run.files)
    with open(os.path.join(HERE, "reference.json"), "w", encoding="utf-8") as handle:
        json.dump(reference, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
