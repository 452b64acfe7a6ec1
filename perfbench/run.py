"""Seeded benchmark of ripplerec; run from the root of a checkout.

    python3 perfbench/run.py --workload fit_tree --seed 1 --seconds 6 --trace 0

Builds nothing: it imports the package from ``src/`` of the checkout.
With ``--trace 0`` the last stdout line is a JSON object holding the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of
an outside-in traced run.  The full record (environment, samples,
failures, spans) goes to ``.perfbench_out/``.  Exits non-zero without a
result when the package cannot be imported.
"""

import argparse
import json
import os
import shutil
import sys
import tempfile

# One BLAS/OpenMP thread is within nproc on any machine.  The model's
# matmuls are (rows, d) x (d, d) with d <= 16, too small for a thread pool
# to help, and a single thread keeps figures steady on a shared host.
BLAS_THREADS = "1"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # the pools size themselves when numpy loads, which happens below
    for var in THREAD_VARS:
        os.environ[var] = BLAS_THREADS

    if not os.path.isfile(os.path.join(SRC, "ripplerec", "__init__.py")):
        print(f"error: no ripplerec package under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, ROOT]
    import ripplerec

    if os.path.dirname(os.path.abspath(ripplerec.__file__)) != os.path.join(SRC, "ripplerec"):
        print(f"error: imported ripplerec from {ripplerec.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    from perfbench import bench

    if args.workload not in bench.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(bench.WORKLOADS)}")

    os.makedirs(OUT, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix="run-", dir=OUT)
    try:
        result = bench.run(bench.WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    result["env"] = bench.environment(ROOT)
    bench.write_result(result, os.path.join(OUT, "results"))
    for line in bench.summary_lines(result):
        print(line)
    print(json.dumps({key: result[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
