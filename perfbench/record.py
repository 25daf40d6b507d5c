"""Record the pinned answers of the default seed into expected.json.

    python3 perfbench/record.py

Runs every job of every workload once at the default seed and stores the
digest of each answer.  Refuses to write if any invariant check fails.  Run
it only when a change is meant to alter an answer, and say so in the change.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

import run  # imports the program from this checkout's src/
import workloads


def answers(name: str, seed: int = workloads.DEFAULT_SEED, tiny: bool = False) -> dict:
    """Job name -> answer digest of one pass of a workload, after its checks."""
    run.OUT.mkdir(parents=True, exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix=f"record-{name}-", dir=run.OUT))
    try:
        workload = workloads.build(name, seed, work_dir, tiny)
        pins = {}
        for job in workload.jobs:
            value = job.run()
            job.check(value)
            pins[job.name] = workloads.answer_digest(job.answer(value))
        return pins
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def main() -> int:
    doc = {"seed": workloads.DEFAULT_SEED,
           "jobs": {name: answers(name) for name in workloads.WORKLOADS}}
    with open(run.EXPECTED, "w", encoding="utf-8") as handle:
        json.dump(doc, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {run.EXPECTED}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
