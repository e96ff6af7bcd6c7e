"""Record the reference outputs that run.py compares bit for bit.

Usage (from the root of a checkout): python3 perfbench/record_reference.py

Runs every workload's commands once at the reference seed and writes the
checked fields of their outputs to reference.json. Run it only on a commit
whose outputs are known to be right: later runs of the benchmark treat any
changed bit as a failure.
"""

from __future__ import annotations

import json
import sys

from run import DEFAULT_SEED, REFERENCE, WORK, Session, clear
from workloads import WORKLOADS


def main() -> int:
    recorded = {}
    for name, workload in WORKLOADS.items():
        work = WORK / name
        clear(work)
        work.mkdir(parents=True)
        prepared = workload.prepare(DEFAULT_SEED, work, WORK.parent)
        with open(work / "stderr.log", "w") as log:
            session = Session(workload, prepared, None, False, work, log)
            session.untraced()
        if session.failed:
            print("\n".join(session.problems), file=sys.stderr)
            return 1
        recorded[name] = session.first
    REFERENCE.write_text(json.dumps({"seed": DEFAULT_SEED, "workloads": recorded},
                                    indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
