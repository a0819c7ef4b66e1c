"""slimrnn benchmark: one workload per process, BLAS pinned to one thread.

    python3 perfbench/run.py --workload epoch-lstm --seed 0 --seconds 25 --trace 0

Run from the root of a checkout; the program is imported from its ``src/``.
The run writes seeded full-size MNIST-shaped IDX files into a scratch
directory of the checkout, sets up (import, then ``load_dataset`` up to
the first training batch, several times), verifies the outputs, warms up
with one op and then repeats whole rounds of ops for ``--seconds``.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced rounds with rounds traced by wrappers around the program's public
functions (tracer.py), and reports the per-layer metrics plus the tracing
overhead. Human-readable lines come first; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.

Exit codes: 0 after a result was printed, 1 when no op could be timed,
2 when the checkout has no program to run. The benchmark's own tests run
with ``python3 -m pytest perfbench/tests``.
"""

from __future__ import annotations

import argparse
import os
import shutil
import sys
import time
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy is first imported

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("epoch-lstm", "grid-slim", "gradcheck"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def import_program():
    """Import slimrnn from this checkout; returns (namespace of its modules, seconds)."""
    if not (SRC / "slimrnn" / "__init__.py").is_file():
        raise FileNotFoundError(f"no program to benchmark: {SRC / 'slimrnn'} is missing")
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import slimrnn
    from slimrnn import bptt, cells, cli, data, gradcheck, harness
    seconds = time.perf_counter() - t0
    if Path(slimrnn.__file__).resolve().parent != SRC / "slimrnn":
        raise ImportError(f"imported slimrnn from {slimrnn.__file__}, not from {SRC}")
    return argparse.Namespace(bptt=bptt, cells=cells, cli=cli, data=data,
                              gradcheck=gradcheck, harness=harness), seconds


def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git; 'unknown' outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def manifest(args, workload) -> dict:
    import numpy as np
    import scipy
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "python": sys.version.split()[0], "numpy": np.__version__, "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(),
        "sizes": {"configs": [list(c) for c in workload.configs],
                  "train_limit": workload.train_limit, "test_limit": workload.test_limit,
                  "idx_files": "60000 train / 10000 test, gzipped"},
    }


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    try:
        slim, import_s = import_program()
    except (FileNotFoundError, ImportError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    # The benchmark's own modules import numpy, so they load after the program is timed.
    import bench
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    work_dir = ROOT / ".perfbench_work" / str(os.getpid())
    try:
        return bench.run(args, slim, workload, import_s, work_dir, manifest(args, workload))
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            work_dir.parent.rmdir()
        except OSError:  # another run still uses it
            pass


if __name__ == "__main__":
    sys.exit(main())
