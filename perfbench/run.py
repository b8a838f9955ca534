"""Run one gcnn benchmark workload and print its metrics.

    python3 perfbench/run.py --workload desk --seed 1 --seconds 10 --trace 0

Run from the root of a checkout.  The workload's inputs are generated
from ``--seed``; its CLI pipeline repeats for at least ``--seconds`` and
at least two passes.  With ``--trace 0`` the report lists every
end-to-end metric; with ``--trace 1`` the second pass runs under span
wrappers and the report lists the per-layer metrics.  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("desk", "paper", "wide")
# a fixed BLAS pool no larger than any machine's core count, so runs on
# different machines compare one thread against one thread
BLAS_THREADS = 1
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="minimum measuring time")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def git_revision(root: Path) -> str:
    """HEAD's commit, or "unknown" outside a git checkout of ``root``."""
    # the ceiling keeps git from finding a repository above the checkout
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(root.parent)}
    try:
        done = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                              capture_output=True, text=True, env=env, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def environment() -> str:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        build = blas.get("openblas configuration") or f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        build = "unknown"
    return (f"revision {git_revision(ROOT)}; python {platform.python_version()}; numpy {np.__version__}; "
            f"blas {' '.join(build.split())}; blas threads {BLAS_THREADS}; cores {os.cpu_count()}")


def main(argv: list[str] | None = None) -> int:
    started = time.perf_counter()
    args = parse_args(argv)
    if not (ROOT / "src" / "gcnn" / "__init__.py").is_file():
        print(f"perfbench: no gcnn sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    # the pins must precede the first numpy import, which happens below
    for var in BLAS_VARS:
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    import_s = time.perf_counter() - started
    (ROOT / ".perfbench-work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=ROOT / ".perfbench-work"))
    try:
        result = workloads.execute(args.workload, args.seed, args.seconds, bool(args.trace), work, import_s)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by a concurrent run
            work.parent.rmdir()
    print(f"perfbench {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    print(environment())
    for line in result.report:
        print(line)
    print(json.dumps(result.line()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
