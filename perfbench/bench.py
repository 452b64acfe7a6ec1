"""Workloads, timed operations and correctness checks of the benchmark.

Each run makes its inputs with ``synthetic.generate`` from the workload
seed, so the program only ever sees files.  A forked child first runs
one set-up and one operation, for the peak resident set and the
same-seed reference.  Then set-up is repeated (see ``SETUP_REPS``) and
reported as a median, and the timed operation runs at least once and
until ``seconds`` have passed, reported as a median.  Both times are
scaled to a nominal host pace (see ``pace``).  An operation fails when
it raises, diverges, exits non-zero or fails a check, the same-seed
check included; failures are counted, never fatal.

Workloads (why each one exists):

* ``fit_tree`` -- the baseline graph of the roadmap (3 000 entities, 4
  relations, two convolution layers of 8 neighbors).  Neighbor-tree
  sampling dominates ``fit``; a sampler change should show here.
* ``fit_ripple`` -- a large catalog graph (60 000 entities, 32 relations,
  three hops of 64-triple ripple bags, one 4-neighbor layer).  The
  user-side backward and every dense O(entities) step dominate; tree
  sampling is small, so a sampler change should predict no gain.
* ``score_cli`` -- ``ripplerec eval --split train`` on an untrained
  snapshot of the ``fit_tree`` data, run in-process through ``cli.main``:
  the same sampler and forward pass with no backward and no optimizer.
  Scoring cost does not depend on parameter values.

``fit_tree`` and ``score_cli`` use 1 000 users (38.4k train rows) and
``fit_ripple`` 500, so that every run of every workload fits the
benchmark's time budget on a 2-core host.  The layer mix of a fit
hardly depends on the user count: ripple building, training steps and
scoring all scale with it.
"""

from __future__ import annotations

import contextlib
import ctypes
import dataclasses
import hashlib
import io
import json
import math
import os
import pickle
import platform
import resource
import statistics
import tempfile
import traceback
from time import perf_counter

import numpy as np
import scipy

import ripplerec
from ripplerec import cli, interactions, kg as kgmod, model, synthetic

from . import pace, trace

# set-up runs at least SETUP_REPS times and until SETUP_SECONDS have passed,
# so that a sub-second set-up still reports a steady median
SETUP_REPS = 3
SETUP_SECONDS = 2.0
# mallopt parameters, and the value both thresholds get (glibc's default
# mmap threshold) when the peak resident set is measured
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3
MALLOC_THRESHOLD = 128 * 1024
RATING_THRESHOLD = 4.0
# A fit's test AUC must beat chance by this margin; one epoch on the
# planted-signal data reaches about 0.86.
AUC_FLOOR = 0.6


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "fit" (library prep + model.fit) or "score_cli" (ripplerec eval)
    spec: dict  # SyntheticSpec fields except the seed
    hp: dict  # Hyperparams fields


_COMMON_HP = dict(batch_size=1024, patience=0, precision="f32")
_TREE_SPEC = dict(num_users=1000, num_items=1000, num_entities=3000, ratings_per_user=40)
_TREE_HP = dict(embed_dim=16, hops=2, ripple_size=32, neighbor_size=8, conv_layers=2, **_COMMON_HP)

WORKLOADS = {
    w.name: w
    for w in (
        Workload("fit_tree", "fit", _TREE_SPEC, dict(_TREE_HP, epochs=1)),
        Workload(
            "fit_ripple", "fit",
            dict(num_users=500, num_items=1000, num_entities=60000, clusters=32, ratings_per_user=40),
            dict(embed_dim=16, hops=3, ripple_size=64, neighbor_size=4, conv_layers=1, epochs=1, **_COMMON_HP),
        ),
        Workload("score_cli", "score_cli", _TREE_SPEC, dict(_TREE_HP, epochs=0)),
    )
}

E2E_UNITS = {
    "setup_s": "s",
    "examples_per_s": "examples/s",
    "peak_rss_mb": "MiB",
}


class CheckFailed(Exception):
    """An operation ran but its output is wrong."""


def _check(ok, message):
    if not ok:
        raise CheckFailed(message)


def _same_as_first(reference, outcome, message):
    """Record the first outcome of a run; every later one must equal it."""
    if reference:
        _check(outcome == reference[0], message)
    else:
        reference.append(outcome)


# -- fit workloads ------------------------------------------------------------------


def _fit_setup(workload, paths, seed, work_dir):
    graph = kgmod.load_kg(paths.kg, undirected=True)
    item_map = kgmod.load_item_map(paths.item_map, graph)
    binarized = interactions.binarize(paths.ratings, RATING_THRESHOLD, item_map)
    dataset = interactions.build_dataset(binarized, seed=seed)
    return graph, dataset


def _fit_op(workload, state, seed, reference, timed):
    """One ``fit``; returns (wall s, nominal s, examples, extra) or raises CheckFailed."""
    graph, dataset = state
    hp = model.Hyperparams(**workload.hp)
    result, wall, nominal = timed(lambda: model.fit(dataset, graph, hp, seed=seed))

    _check(not result.diverged, "fit diverged")
    _check(len(result.history) == hp.epochs, f"{len(result.history)} epochs ran, expected {hp.epochs}")
    losses = [row["train_loss"] for row in result.history]
    _check(all(math.isfinite(x) for x in losses), f"non-finite train loss in {losses}")
    _check(result.test_report is not None, "no test report")
    auc = result.test_report.auc
    _check(auc > AUC_FLOOR, f"test AUC {auc:.4f} not above the chance floor {AUC_FLOOR}")
    _same_as_first(reference, (result.history, auc), "epoch history or test AUC differs between same-seed fits")
    return wall, nominal, hp.epochs * len(dataset.train), {"test_auc": auc}


# -- score_cli workload -------------------------------------------------------------


def _cli(argv):
    """``cli.main`` in-process with its stdout captured; returns the exit code."""
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def _score_setup(workload, paths, seed, work_dir):
    out = tempfile.mkdtemp(prefix="cli-", dir=work_dir)
    config = os.path.join(out, "config.txt")
    with open(config, "w", encoding="utf-8") as fh:
        for key, value in dict(kg=paths.kg, ratings=paths.ratings, item_map=paths.item_map,
                               threshold=RATING_THRESHOLD, **workload.hp).items():
            fh.write(f"{key} = {value}\n")
    args = ["--config", config, "--seed", str(seed), "--out", out]
    for command in ("prep", "train"):
        code = _cli([command] + args)
        if code != 0:
            raise RuntimeError(f"ripplerec {command} exited {code}")
    with open(os.path.join(out, "train.tsv"), encoding="utf-8") as fh:
        train_rows = sum(1 for line in fh if line.strip())
    return args, out, train_rows


def _score_op(workload, state, seed, reference, timed):
    """One ``ripplerec eval --split train``; returns (wall s, nominal s, examples, extra)."""
    args, out, train_rows = state
    csv_path = os.path.join(out, "eval_train.csv")
    if os.path.exists(csv_path):
        os.remove(csv_path)
    code, wall, nominal = timed(lambda: _cli(["eval", "--split", "train"] + args))

    _check(code == 0, f"ripplerec eval exited {code}")
    with open(csv_path, "rb") as fh:
        data = fh.read()
    header, row = data.decode().splitlines()[:2]
    fields = dict(zip(header.split(","), row.split(",")))
    _check(int(fields["n"]) == train_rows, f"eval scored n={fields['n']}, train split has {train_rows}")
    _same_as_first(reference, data, "eval_train.csv differs between same-seed invocations")
    return wall, nominal, train_rows, {"eval_auc": float(fields["auc"])}


_KINDS = {"fit": (_fit_setup, _fit_op), "score_cli": (_score_setup, _score_op)}


# -- environment ---------------------------------------------------------------------


def _git_commit(root):
    """HEAD's commit read from ``.git`` without running git; "unknown" outside a clone."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _source_digest():
    """sha256 over the package sources, to tell builds apart where git is absent."""
    pkg = os.path.dirname(ripplerec.__file__)
    digest = hashlib.sha256()
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            digest.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()[:16]


def environment(root):
    try:
        blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    except TypeError:  # numpy < 1.26 prints its config and takes no mode
        blas = {}
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '')}".strip(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "omp_threads": os.environ.get("OMP_NUM_THREADS", "unset"),
        "git_commit": _git_commit(root),
        "source_sha256": _source_digest(),
    }


# -- one run ------------------------------------------------------------------------


class _Session:
    """Set-up and operation samples of one run, and its same-seed reference."""

    def __init__(self, workload, seed, work_dir):
        self.workload, self.seed, self.work_dir = workload, seed, work_dir
        self.timed = pace.wall_timed  # a PaceClock's ``timed`` while one runs
        self._setup, self._op = _KINDS[workload.kind]
        spec = synthetic.SyntheticSpec(**workload.spec, seed=seed)
        self.paths = synthetic.generate(spec, os.path.join(work_dir, "inputs"))
        self.reference: list = []
        self.setup_s: list[float] = []  # wall time
        self.setup_nominal_s: list[float] = []  # at the nominal pace
        self.ops: list[dict] = []  # one per successful operation
        self.failures: list[str] = []
        self.attempted = 0
        self.failed = 0

    def setup(self):
        state, wall, nominal = self.timed(lambda: self._setup(self.workload, self.paths, self.seed, self.work_dir))
        self.setup_s.append(wall)
        self.setup_nominal_s.append(nominal)
        return state

    def op(self, state):
        """Run one operation; returns its wall time, or None when it failed."""
        self.attempted += 1
        try:
            wall, nominal, examples, extra = self._op(self.workload, state, self.seed, self.reference, self.timed)
        except Exception:  # a failed operation is counted, and the run goes on
            self.failed += 1
            self.failures.append(traceback.format_exc(limit=-3))
            return None
        self.ops.append({"op_s": wall, "op_nominal_s": nominal, "examples": examples, **extra})
        return wall


def _fix_malloc_thresholds():
    """Fixed glibc mmap and trim thresholds: large blocks go back to the system when freed."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):  # not glibc: the peak keeps the allocator's slack
        return
    mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
    mallopt.restype = ctypes.c_int
    mallopt(M_TRIM_THRESHOLD, MALLOC_THRESHOLD)
    mallopt(M_MMAP_THRESHOLD, MALLOC_THRESHOLD)


def _fresh_process_op(session):
    """One set-up and one operation in a forked child; returns its peak resident set in MiB.

    glibc raises its mmap threshold as large blocks are freed, after
    which freed arrays stay in a fragmented heap, so the peak of a
    process with default settings swings by up to 7% between runs of
    one seed.  The child fixes the thresholds first, so its peak is that of
    the live arrays.  The child's outcome becomes the run's same-seed
    reference: every operation of this process must reproduce it.
    Forking is safe here: BLAS is pinned to one thread and the
    benchmark starts none, so the process has a single thread.
    """
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            os.close(read_fd)
            _fix_malloc_thresholds()
            session.op(session.setup())
            peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            with os.fdopen(write_fd, "wb") as fh:
                pickle.dump((peak_mb, session.failures, session.reference), fh)
            code = 0
        except BaseException:
            traceback.print_exc()
            raise
        finally:
            os._exit(code)  # the child never returns into the parent's code
    os.close(write_fd)
    try:
        with os.fdopen(read_fd, "rb") as fh:
            payload = fh.read()
    finally:
        _, status = os.waitpid(pid, 0)
    session.attempted += 1
    if status != 0 or not payload:
        session.failed += 1
        session.failures.append(f"set-up and operation in a fresh process: wait status {status}")
        return 0.0
    peak_mb, failures, session.reference = pickle.loads(payload)
    session.failed += bool(failures)
    session.failures.extend(failures)
    return peak_mb


def run(workload, seed, seconds, traced, work_dir):
    """Run one workload; returns the result record with metrics and units."""
    absent, spans = [], []
    if traced:
        session = _Session(workload, seed, work_dir)
        # the same operation untraced, then set-up and operation traced; the
        # pair doubles as the same-seed determinism check
        untraced_s = session.op(session.setup())
        tracer = trace.Tracer()
        with tracer.installed():
            traced_s = session.op(session.setup())
        overhead = (traced_s - untraced_s) / untraced_s if untraced_s and traced_s else 0.0
        metrics = tracer.layer_metrics(overhead)
        absent, spans = tracer.absent, tracer.spans
    else:
        session = _Session(workload, seed, work_dir)
        peak_mb = _fresh_process_op(session)
        with pace.PaceClock() as clock:
            session.timed = clock.timed
            while len(session.setup_s) < SETUP_REPS or sum(session.setup_s) < SETUP_SECONDS:
                state = session.setup()
            op_s = 0.0
            while True:  # one operation at least, then until ``seconds`` have passed
                start = perf_counter()
                session.op(state)
                op_s += perf_counter() - start
                if op_s >= seconds:
                    break
        rates = [o["examples"] / o["op_nominal_s"] for o in session.ops]
        metrics = {
            "setup_s": statistics.median(session.setup_nominal_s),
            "examples_per_s": statistics.median(rates) if rates else 0.0,
            "peak_rss_mb": peak_mb,
        }
        metrics = {name: (value, E2E_UNITS[name]) for name, value in metrics.items()}
    failed = session.failed
    return {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(traced),
        "correct": failed == 0,
        "attempted": session.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
        "failures": session.failures,
        "setup_s": session.setup_s,
        "setup_nominal_s": session.setup_nominal_s,
        "ops": session.ops,
        "absent": absent,
        "spans": spans,
    }


def summary_lines(result):
    """Human-readable lines: every metric with its unit, then the guards."""
    lines = [f"workload {result['workload']} seed {result['seed']} trace {result['trace']}"]
    lines.append("env " + " ".join(f"{k}={v}" for k, v in result["env"].items()))
    for name, metric in result["metrics"].items():
        lines.append(f"{name} {metric['value']:.6g} {metric['unit']}")
    for op in result["ops"]:
        lines.append("op " + " ".join(f"{k}={v:.6g}" for k, v in op.items()))
    lines.append(
        f"failed_share {result['failed'] / result['attempted']:.6g} "
        f"({result['failed']} of {result['attempted']} operations)"
    )
    lines.extend("failure " + f.strip().replace("\n", " | ") for f in result["failures"])
    if result["absent"]:
        lines.append("absent " + " ".join(result["absent"]))
    return lines


def write_result(result, out_dir):
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"{result['workload']}-seed{result['seed']}-trace{result['trace']}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    return path
