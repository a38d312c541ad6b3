"""lifedrop benchmark launcher.

    python3 perfbench/run.py --workload arch1-dynamic --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --seed 0            # every workload in turn

Run from anywhere; the checkout is the directory above this file. Each
workload runs in a fresh Python process (workload.py) with a fixed BLAS
thread count, so peak RSS and timings belong to that workload alone. The
launcher passes the child's output through; the last stdout line of each
workload is its JSON result. See README.md in this directory for the
workloads and metrics.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("arch1-dynamic", "arch3-classical", "cifar-full-alpha")  # the keys of workload.WORKLOADS

# One BLAS thread, so timings do not depend on how many cores happen to be
# idle and a workload never competes with itself for a core.
BLAS_THREADS = 1
CHILD_TIMEOUT_S = 175


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS, help="default: every workload, one process each")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "lifedrop" / "__init__.py").is_file():
        print(f"run.py: no lifedrop package under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    threads = str(BLAS_THREADS)
    # Bytecode is never cached, so every set-up compiles lifedrop alike and
    # the checkout gains no __pycache__ directories.
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads,
               PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(HERE)]))
    status = 0
    for name in [args.workload] if args.workload else WORKLOADS:
        cmd = [sys.executable, str(HERE / "workload.py"), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        try:
            code = subprocess.run(cmd, env=env, cwd=ROOT, timeout=CHILD_TIMEOUT_S).returncode
        except subprocess.TimeoutExpired:  # run() has killed and reaped the child
            print(f"run.py: {name} did not finish within {CHILD_TIMEOUT_S} s", file=sys.stderr)
            code = 3
        status = status or code
    return status


if __name__ == "__main__":
    sys.exit(main())
