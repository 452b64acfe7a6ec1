"""sha256 digests of one seeded benchmark fit; run from the root of a checkout.

    python3 scripts/fit_digest.py --workload fit_tree --seed 1

Makes the inputs of a ``fit`` workload of ``perfbench`` as a benchmark
run does (``synthetic.generate`` from the seed, then
``perfbench.bench._fit_setup``), fits with the workload's
hyperparameters and seed, and prints one ``name sha256`` line each for
the fit history, the test AUC, every parameter and the two tables the
fit drew, then ``all`` over those lines.  Two checkouts that print the
same lines computed the same bytes; digests compare only under the same
numpy, BLAS and CPU.
"""

import argparse
import hashlib
import json
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _sha256(data):
    return hashlib.sha256(data).hexdigest()


def digests(workload, seed, work_dir):
    """Name -> sha256 of what one ``fit`` of the ``perfbench`` workload ``workload`` at ``seed`` returns."""
    from perfbench import bench
    from ripplerec import model, synthetic
    from ripplerec.cli import _table_sha256

    paths = synthetic.generate(synthetic.SyntheticSpec(**workload.spec, seed=seed), os.path.join(work_dir, "inputs"))
    graph, dataset = bench._fit_setup(workload, paths, seed, work_dir)
    result = model.fit(dataset, graph, model.Hyperparams(**workload.hp), seed=seed)
    out = {"history": _sha256(json.dumps(result.history).encode()),
           "test_auc": _sha256(repr(result.test_report.auc).encode())}
    for name, value in result.params.values.items():
        out[f"param.{name}"] = _sha256(value.tobytes())
    out["ripple_table"] = _table_sha256(result.ripple_table.bags, result.ripple_table.has)
    out["neighbor_table"] = _table_sha256(result.neighbor_table.rel, result.neighbor_table.nbr)
    out["all"] = _sha256("".join(f"{name} {value}\n" for name, value in out.items()).encode())
    return out


def main(argv=None):
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
    from perfbench.run import BLAS_THREADS, THREAD_VARS

    for var in THREAD_VARS:  # the benchmark's BLAS threads, set before numpy loads
        os.environ[var] = BLAS_THREADS
    from perfbench import bench

    fits = [name for name, workload in bench.WORKLOADS.items() if workload.kind == "fit"]
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=fits)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="fit-digest-") as work_dir:
        for name, value in digests(bench.WORKLOADS[args.workload], args.seed, work_dir).items():
            print(name, value)
    return 0


if __name__ == "__main__":
    sys.exit(main())
