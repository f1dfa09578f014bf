"""Write perfbench/reference.json: the sha256 of each workload's stdout at
the reference seed, produced by the ``telecost`` CLI in its own process.

    python3 perfbench/make_reference.py

A speed-up counts only if these hashes still match, so regenerate the file
only with a change that is meant to alter the CLI's output, and say so.
"""

from __future__ import annotations

import json
import subprocess
import sys

import workloads
from run import HERE, ROOT, worker_env


def main() -> int:
    hashes = {}
    for name in workloads.WORKLOADS:
        argv = workloads.reference_argv(name, workloads.SIZES[name])
        proc = subprocess.run([sys.executable, "-m", "telecost.cli", *argv], env=worker_env(),
                              cwd=ROOT, capture_output=True, text=True, check=True)
        workloads.check(name, argv, proc.stdout)
        hashes[name] = workloads.sha256(proc.stdout)
    reference = {"seed": workloads.REFERENCE_SEED, "sizes": workloads.SIZES, "sha256": hashes}
    (HERE / "reference.json").write_text(json.dumps(reference, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
