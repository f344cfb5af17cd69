"""Set-up probe: a fresh interpreter that imports rankguard, builds one
workload's inputs and prints the monotonic clock.

    python3 perfbench/probe.py <workload|import> <seed> <quick 0|1>

The parent reads the same clock (CLOCK_MONOTONIC on Linux, shared by all
processes) before starting this one, so the difference is the set-up time
from a fresh interpreter. With ``import`` the probe stops after
``import rankguard``. The probe fails if building the workload imported the
benchmark's checks, whose scipy imports would otherwise be timed as set-up.
"""

import shutil
import sys
import tempfile
import time
from pathlib import Path


def main() -> None:
    target, seed, quick = sys.argv[1], int(sys.argv[2]), sys.argv[3] == "1"
    if target == "import":
        from source import import_rankguard

        import_rankguard()
        print(time.monotonic(), flush=True)
        return
    import workloads
    from source import OUT

    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="probe-", dir=OUT))
    try:
        workloads.build(target, seed, quick, workdir)
        ready = time.monotonic()
    finally:
        shutil.rmtree(workdir)
    if "checks" in sys.modules:
        sys.exit("probe: building a workload imported checks.py")
    print(ready, flush=True)


if __name__ == "__main__":
    main()
