#!/usr/bin/env python3
"""Write digests.json: the digest of each workload's CLI table per input set.

    python3 perfbench/pin.py

Re-pin only when a change is meant to alter the numeric output; a pinned
digest is how the benchmark proves that an optimisation left the CSV columns
byte-identical.  A table that fails the other output checks is not pinned.
"""

from __future__ import annotations

import json
import shutil
import sys
import time

import run


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    tmp = run.ROOT / ".perfbench-tmp" / "pin"
    tmp.mkdir(parents=True, exist_ok=True)
    out = tmp / "out.csv"
    pins: dict = {"full": {}, "smoke": {}}
    try:
        for size, sets in (("full", range(run.INPUT_SETS)), ("smoke", range(1))):
            for workload in run.WORKLOADS.values():
                for input_set in sets:
                    params = workload.params(input_set, size)
                    spec = {"src": str(run.SRC), "argv": run.cli_argv(params, str(out))}
                    got = run.run_child("cli", spec, time.monotonic() + 600)
                    header, rows, digest = run.read_table(out)
                    errors = run.check_output(params, header, rows)
                    if got["rc"] != 0 or errors:
                        print(f"{workload.name} set {input_set}: not pinned: "
                              f"rc={got['rc']} {errors}", file=sys.stderr)
                        return 1
                    pins[size].setdefault(workload.name, {})[str(input_set)] = digest
                    print(f"{size} {workload.name} {input_set} {digest[:16]} "
                          f"{got['wall_s']:.3f}s", flush=True)
    finally:
        shutil.rmtree(tmp.parent, ignore_errors=True)
    run.PINS_PATH.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
