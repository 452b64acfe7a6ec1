"""Experiment front door: dataset prep, training, evaluation, sweeps.

Subcommands::

    ripplerec prep  --config cfg.txt [--set key=value ...]
    ripplerec train --config cfg.txt [--set key=value ...]
    ripplerec eval  --config cfg.txt --split test
    ripplerec sweep --config cfg.txt --set sweep_param=ripple_size --set sweep_values=8,16,32,64

Configs are ``key = value`` text files; any key can be overridden on the
command line with ``--set``.  Keys are flat: paths, prep and sweep
settings are :class:`RunConfig` fields, and every
:class:`~ripplerec.model.Hyperparams` field is a key of the same name,
held in ``RunConfig.hp``.  All outputs are CSV/TSV plus key = value
manifests, deterministic for a fixed seed.  Configs, ``prep_meta.txt``
and manifests go through one line reader, and their values parse as
config values do, so a bad one names its file and key.  ``prep_meta.txt``
records the sha256 of both vocabulary files (``entity_vocab_sha256``,
``relation_vocab_sha256``) and of the integer files prep writes
(``train_sha256``, ``validation_sha256``, ``test_sha256``,
``item_entities_sha256``); ``train``, ``eval`` and ``sweep`` check each
file against it.  ``model.manifest.txt`` records the sha256 of
``model.npz`` (``model_sha256``), and ``eval`` checks it.  Exit codes: 2
an input file that is missing or cannot be opened (a directory, say), 3
malformed data (with ``file:line`` where a line is at fault; a
``prep_meta.txt`` or manifest that lacks a key its reader reads; a run
file or snapshot that parses but does not match its checksum; a
snapshot that opens but does not read as one), 4 training divergence.

Five-run averaging uses seeds base..base+4; sweep cells are independent
and each cell's CSV row is traceable to a manifest (config hash + seed)
written beside the results; a cell whose value Hyperparams rejects is
an NA row without one.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import logging
import os
import re
import sys
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np

from . import interactions, kg as kgmod, metrics, model
from .core import load_params, save_params

logger = logging.getLogger(__name__)

EXIT_MISSING_FILE = 2
EXIT_MALFORMED = 3
EXIT_DIVERGED = 4
# the integer files prep writes beside the vocabularies, each checksummed in prep_meta.txt as <name>_sha256
RUN_FILES = ("train", "validation", "test", "item_entities")


@dataclass
class RunConfig:
    """Every knob of a run: paths, prep and sweep settings, and ``hp``."""

    kg: str = ""
    ratings: str = ""
    item_map: str = ""
    out: str = "runs"
    seed: int = 0
    threshold: float = 4.0
    undirected: bool = True
    ratios: tuple = (0.6, 0.2, 0.2)
    hp: model.Hyperparams = field(default_factory=model.Hyperparams)
    sweep_param: str = ""
    sweep_values: tuple = ()
    sweep_seeds: int = 5

    def flat(self):
        """Key -> value under the names configs and manifests use: ``hp`` spliced in."""
        out = asdict(self)
        out.update(out.pop("hp"))
        return out

    def digest(self):
        text = "\n".join(f"{k}={v}" for k, v in sorted(self.flat().items()))
        return hashlib.sha256(text.encode()).hexdigest()[:16]


def _coerce(name, raw, current):
    """``raw`` as a value of ``current``'s type; one that does not parse raises ValueError naming ``name``."""
    if isinstance(current, bool):
        if raw.lower() in ("1", "true", "yes", "on"):
            return True
        if raw.lower() in ("0", "false", "no", "off"):
            return False
        raise ValueError(f"{name} = {raw!r} is not a boolean")
    if isinstance(current, tuple):
        parts = tuple(p.strip() for p in raw.split(",") if p.strip())
        if name == "ratios":  # checked here, so a bad one fails before prep reads or writes anything
            return interactions.check_ratios(tuple(_coerce(name, p, 0.0) for p in parts))
        return parts
    try:
        value = type(current)(raw)  # int, float or str
    except ValueError:
        kind = "an integer" if isinstance(current, int) else "a number"
        raise ValueError(f"{name} = {raw!r} is not {kind}") from None
    if name == "seed" and value < 0:  # numpy seeds are non-negative; checked before any work, naming the source
        raise ValueError(f"seed = {raw!r} must be >= 0")
    # checked here as ratios are, so a bad threshold fails before prep reads or writes anything
    return interactions.check_threshold(value) if name == "threshold" else value


def _kv_lines(path, comments=False):
    """Stripped ``(lineno, key, value)`` of every non-blank line of a ``key = value`` file.

    ``comments`` (config files only; a manifest's path may hold a ``#``)
    cuts each line at its first ``#``.  A line without ``=`` or a byte
    that does not decode raises :class:`~ripplerec.kg.ParseError`.
    """
    for lineno, line in enumerate(kgmod.read_text(path).split("\n"), start=1):
        if comments:
            line = line.split("#", 1)[0]
        if not line.strip():
            continue
        if "=" not in line:
            raise kgmod.ParseError(path, lineno, "expected 'key = value'")
        key, value = line.split("=", 1)
        yield lineno, key.strip(), value.strip()


def _config_lines(path):
    """``(where, key, text)`` of every line of the config file at ``path``."""
    return [(f"{path}:{lineno}", key, raw) for lineno, key, raw in _kv_lines(path, comments=True)]


def _configure(cfg, items):
    """Set flat keys of ``cfg`` from ``(where, key, text)`` items, in order.

    Hyperparams keys replace ``cfg.hp`` together, after the last item, so
    a rule over two keys (``lr * l2_weight < 1``) sees both final values
    whatever order they came in.  Its error names where each key it names
    was set: ``where: ...`` for one source, ``where (key), ...`` for more.
    """
    flat, hp = cfg.flat(), {}
    for where, key, raw in items:
        if key not in flat:
            raise ValueError(f"{where}: unknown config key {key!r}")
        try:
            value = _coerce(key, raw, flat[key])
        except ValueError as err:
            raise ValueError(f"{where}: {err}") from None
        if hasattr(cfg.hp, key):
            hp[key] = value, where
        else:
            setattr(cfg, key, value)
    try:
        cfg.hp = replace(cfg.hp, **{key: value for key, (value, _) in hp.items()})
    except ValueError as err:
        words = set(re.findall(r"\w+", str(err)))
        sources = {}
        for key, (_, where) in hp.items():
            if key in words:
                sources.setdefault(where, []).append(key)
        prefix = (next(iter(sources)) if len(sources) == 1 else
                  ", ".join(f"{where} ({' and '.join(keys)})" for where, keys in sources.items()))
        raise ValueError(f"{prefix}: {err}") from None
    return cfg


def build_config(args):
    """The RunConfig of the config file, each ``--set``, then ``--seed`` and ``--out``, in that order."""
    items = []
    if args.config:
        if not os.path.exists(args.config):
            raise FileNotFoundError(args.config)
        items += _config_lines(args.config)
    for item in args.set or []:
        if "=" not in item:
            raise ValueError(f"--set expects key=value, got {item!r}")
        key, raw = (part.strip() for part in item.split("=", 1))
        items.append(("--set", key, raw))
    items += [(f"--{key}", key, value) for key, value in (("seed", args.seed), ("out", args.out)) if value is not None]
    return _configure(RunConfig(), items)


def _write_kv(path, mapping):
    with open(path, "w", encoding="utf-8") as fh:
        for key, value in mapping.items():
            fh.write(f"{key} = {value}\n")


def _read_kv(path):
    return {key: value for _, key, value in _kv_lines(path)}


def _sha256(path):
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _table_sha256(*arrays):
    """sha256 of the arrays' bytes, integer arrays as int64 values, so a checksum does not depend on the index dtype."""
    digest = hashlib.sha256()
    for a in arrays:
        digest.update((a.astype(np.int64, copy=False) if a.dtype.kind == "i" else a).tobytes())
    return digest.hexdigest()


# -- prep -----------------------------------------------------------------------


def cmd_prep(cfg):
    for path in (cfg.kg, cfg.ratings, cfg.item_map):
        if not path or not os.path.exists(path):
            raise FileNotFoundError(path or "(unset input path)")
    os.makedirs(cfg.out, exist_ok=True)
    graph = kgmod.load_kg(cfg.kg, undirected=cfg.undirected)
    item_map = kgmod.load_item_map(cfg.item_map, graph)
    if not item_map:
        raise ValueError(f"{cfg.item_map}: no item maps onto a KG entity")
    binarized = interactions.binarize(cfg.ratings, cfg.threshold, item_map)
    dataset = interactions.build_dataset(binarized, ratios=cfg.ratios, seed=cfg.seed)

    out = cfg.out
    interactions.write_split(os.path.join(out, "train.tsv"), dataset.train)
    interactions.write_split(os.path.join(out, "validation.tsv"), dataset.validation)
    interactions.write_split(os.path.join(out, "test.tsv"), dataset.test)
    kgmod.write_vocab(os.path.join(out, "entity_vocab.tsv"), graph.entity_names)
    kgmod.write_vocab(os.path.join(out, "relation_vocab.tsv"), graph.relation_names)
    kgmod.write_vocab(os.path.join(out, "user_vocab.tsv"), binarized.user_names)
    kgmod.write_vocab(os.path.join(out, "item_vocab.tsv"), binarized.item_names)
    kgmod.write_int_tsv(os.path.join(out, "item_entities.tsv"),
                        np.stack((np.arange(binarized.num_items), binarized.item_entities), axis=1))

    no_positive = dataset.num_users - len(np.unique(dataset.train[dataset.train[:, 2] == 1, 0]))
    report_lines = [
        f"users\t{dataset.num_users}",
        f"items\t{dataset.num_items}",
        f"interactions\t{len(binarized.positives)}",
        f"knowledge graph triples\t{graph.num_triples}",
        "",
        f"rating rows read\t{binarized.n_rows}",
        f"rows below threshold {cfg.threshold} (dropped as unobserved)\t{binarized.n_below_threshold}",
        f"rows with unmapped items (dropped)\t{binarized.n_unmapped}",
        f"split sizes (train/validation/test)\t{len(dataset.train)}/{len(dataset.validation)}/{len(dataset.test)}",
        f"users without train positives (excluded from val/test scoring)\t{no_positive}",
        f"users who rated every item (dropped: no negative to draw)\t{dataset.no_negative_users}",
        f"users whose negatives were drawn with replacement (pool smaller than positives)\t{dataset.replacement_users}",
        f"seed\t{cfg.seed}",
    ]
    with open(os.path.join(out, "prep_report.txt"), "w", encoding="utf-8") as fh:
        fh.write("\n".join(report_lines) + "\n")
    _write_kv(os.path.join(out, "prep_meta.txt"), {
        "num_users": dataset.num_users,
        "num_items": dataset.num_items,
        "kg": cfg.kg,
        "undirected": cfg.undirected,
        "threshold": cfg.threshold,
        "seed": cfg.seed,
        "entity_vocab_sha256": _sha256(os.path.join(out, "entity_vocab.tsv")),
        "relation_vocab_sha256": _sha256(os.path.join(out, "relation_vocab.tsv")),
        **{f"{name}_sha256": _sha256(os.path.join(out, f"{name}.tsv")) for name in RUN_FILES},
    })
    print("\n".join(report_lines[:4]))
    return 0


def _require(meta, keys, path, remedy):
    """Raise ValueError naming the first of ``keys`` that the key = value file at ``path`` lacks; ``remedy`` ends it."""
    for key in keys:
        if key not in meta:
            raise ValueError(f"{path}: missing key {key!r} (truncated, or written by an older ripplerec); {remedy}")


def _meta_value(meta, key, path, current):
    """``meta[key]`` of the key = value file at ``path``, coerced to ``current``'s type like a config value."""
    try:
        return _coerce(key, meta[key], current)
    except ValueError as err:
        raise ValueError(f"{path}: {err}") from None


def load_prep(cfg):
    """Rebuild (kg, dataset, prep meta) from prep artifacts in ``cfg.out``.

    Each check raises ValueError naming the file at fault.  First
    ``prep_meta.txt`` must hold every key read here, the sha256 of each of
    :data:`RUN_FILES` included; one it lacks says to re-run prep.  Both
    vocabulary files must match ``prep_meta.txt`` and the vocabularies
    rebuilt from the KG; when the file and the rebuilt vocabulary agree
    but ``prep_meta.txt`` does not, the error names its key.  Each of
    :data:`RUN_FILES` is parsed first, so a malformed line is named by
    ``file:line``, and then must match its sha256 in ``prep_meta.txt``.
    """
    meta_path = os.path.join(cfg.out, "prep_meta.txt")
    if not os.path.exists(meta_path):
        raise FileNotFoundError(meta_path)
    meta = _read_kv(meta_path)
    _require(meta, ("num_users", "num_items", "kg", "undirected", "entity_vocab_sha256", "relation_vocab_sha256",
                    *(f"{name}_sha256" for name in RUN_FILES)), meta_path, "re-run prep")
    graph = kgmod.load_kg(meta["kg"], undirected=_meta_value(meta, "undirected", meta_path, True))
    for kind, names in (("entity", graph.entity_names), ("relation", graph.relation_names)):
        path, key = os.path.join(cfg.out, f"{kind}_vocab.tsv"), f"{kind}_vocab_sha256"
        found, rebuilt = _sha256(path), hashlib.sha256(kgmod.vocab_bytes(names)).hexdigest()
        if found == rebuilt != meta[key]:
            raise ValueError(f"{meta_path}: {key} matches neither {path} nor the {kind} vocabulary of "
                             f"{meta['kg']}, which agree with each other (prep_meta.txt changed?)")
        if found != meta[key]:
            raise ValueError(f"{path} does not match the prep-time vocabulary (KG file changed?)")
        if rebuilt != meta[key]:
            raise ValueError(f"{meta['kg']}: {kind} vocabulary differs from {path} written by prep "
                             "(KG file changed since prep?)")
    num_users, num_items = (_meta_value(meta, key, meta_path, 0) for key in ("num_users", "num_items"))
    item_path = os.path.join(cfg.out, "item_entities.tsv")
    item_entities = kgmod.read_int_tsv(item_path, (("item", num_items), ("entity", graph.num_entities)))
    if not np.array_equal(item_entities[:, 0], np.arange(num_items)):
        raise ValueError(f"{item_path}: expected one row per item, items 0..{num_items - 1} in order")
    paths = {name: os.path.join(cfg.out, f"{name}.tsv") for name in RUN_FILES}
    dataset = interactions.dataset_from_files(paths["train"], paths["validation"], paths["test"],
                                              num_users=num_users, num_items=num_items,
                                              item_entities=item_entities[:, 1])
    if len(dataset.train) == 0:  # fit and the ripple table need train rows
        raise ValueError(f"{paths['train']}: no train rows (empty train split)")
    for name, path in paths.items():
        if _sha256(path) != meta[f"{name}_sha256"]:
            raise ValueError(f"{path} does not match {name}_sha256 in {meta_path} (changed since prep?)")
    return graph, dataset, meta


# -- train / eval -----------------------------------------------------------------


def _run_checksums(prep_meta, ripple_table, neighbor_table):
    """The four sha256 values that identify a run, in manifest order; train records them, load_run checks them."""
    return {"entity_vocab_sha256": prep_meta["entity_vocab_sha256"],
            "relation_vocab_sha256": prep_meta["relation_vocab_sha256"],
            "ripple_table_sha256": _table_sha256(ripple_table.bags, ripple_table.has),
            "neighbor_table_sha256": _table_sha256(neighbor_table.rel, neighbor_table.nbr)}


def _write_epoch_log(path, history):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "train_loss", "val_auc", "val_acc"])
        for row in history:
            writer.writerow([row["epoch"], f"{row['train_loss']:.6f}",
                             f"{row['val_auc']:.6f}", f"{row['val_acc']:.6f}"])


def _write_report(path, report):
    """Write ``report`` to ``path`` as the CSV header and its one row, then print the row."""
    row = report.to_csv_row()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{metrics.MetricReport.CSV_HEADER}\n{row}\n")
    print(row)


def _save_snapshot(out_dir, params, cfg, meta):
    """Write ``model.npz`` atomically (write then rename), then ``model.manifest.txt`` in place, with its sha256."""
    snap = os.path.join(out_dir, "model.npz")
    tmp = snap + ".tmp"
    save_params(tmp, params)
    os.replace(tmp, snap)
    manifest = {"config_digest": cfg.digest(), "seed": cfg.seed}
    manifest.update({k: v for k, v in cfg.flat().items() if k not in ("sweep_param", "sweep_values", "sweep_seeds")})
    manifest.update(meta)
    manifest["model_sha256"] = _sha256(snap)
    _write_kv(os.path.join(out_dir, "model.manifest.txt"), manifest)
    return snap


def cmd_train(cfg):
    graph, dataset, prep_meta = load_prep(cfg)
    result = model.fit(dataset, graph, cfg.hp, seed=cfg.seed)
    meta = {"best_epoch": result.best_epoch, "diverged": result.diverged, "skipped_users": result.skipped_users,
            **_run_checksums(prep_meta, result.ripple_table, result.neighbor_table)}
    _save_snapshot(cfg.out, result.params, cfg, meta)
    _write_epoch_log(os.path.join(cfg.out, "epochs.csv"), result.history)
    if result.test_report is not None:
        _write_report(os.path.join(cfg.out, "test_report.csv"), result.test_report)
    if result.diverged:
        logger.error("training diverged; last good snapshot retained")
        return EXIT_DIVERGED
    return 0


def _hyperparams_from_manifest(manifest, path):
    """Rebuild the training-time Hyperparams recorded in the manifest at ``path``.

    The caller has checked that every field is recorded: a default in place
    of a missing one would score the snapshot under hyperparameters it was
    not trained with.  A key that is no field is not read.  Values parse as
    config values do, so an error names ``path`` and the key.
    """
    return _configure(RunConfig(), [(path, f.name, manifest[f.name]) for f in fields(model.Hyperparams)]).hp


def load_run(cfg):
    """``(params, hp, seed, dataset, graph, ripple_table, neighbor_table)`` of the trained run in ``cfg.out``.

    ``hp`` and the seed are the manifest's, not the current config's, and
    both tables are rebuilt from them.  After :func:`load_prep`'s checks
    and the snapshot's archive read, each check raises ValueError naming
    the file at fault, in this order: the manifest holds every key read
    here (one it lacks says to retrain), the values of its hyperparameters
    and seed, its :func:`_run_checksums` against ``prep_meta.txt`` and the
    rebuilt tables, the snapshot's tensor names, shapes and dtype, then
    the snapshot's sha256 against the manifest's ``model_sha256``: a
    snapshot replaced after the manifest was written (a train that died
    between the two files) would be scored under another run's seed and
    tables.
    """
    graph, dataset, prep_meta = load_prep(cfg)
    snap, manifest_path = (os.path.join(cfg.out, name) for name in ("model.npz", "model.manifest.txt"))
    if not os.path.exists(snap):
        raise FileNotFoundError(snap)
    manifest = _read_kv(manifest_path)
    params = load_params(snap)
    _require(manifest, [*(f.name for f in fields(model.Hyperparams)), "seed",
                        *(f"{name}_sha256" for name in ("entity_vocab", "relation_vocab", "ripple_table",
                                                        "neighbor_table", "model"))],
             manifest_path, "retrain the snapshot")
    hp = _hyperparams_from_manifest(manifest, manifest_path)
    seed = _meta_value(manifest, "seed", manifest_path, 0)
    ripple_table = model.build_ripple_sets(dataset, graph, hp, seed)
    neighbor_table = model.build_neighbor_table(graph, hp, seed)
    # what a checksum that differs from the rebuilt one means
    vocab = f"differs from {os.path.join(cfg.out, 'prep_meta.txt')} (prep re-run since train?)"
    tables = {"ripple_table_sha256": f"does not match the ripple table rebuilt from the train split in {cfg.out} "
                                     f"and the graph in {prep_meta['kg']}",
              "neighbor_table_sha256": f"does not match the neighbor table rebuilt from {prep_meta['kg']}"}
    for key, value in _run_checksums(prep_meta, ripple_table, neighbor_table).items():
        if manifest[key] != value:
            raise ValueError(f"{manifest_path}: {key} {tables.get(key, vocab)}; retrain the snapshot")
    # each tensor's (shape, dtype), compared as the text the error shows
    shapes = model.param_shapes(graph.num_entities, graph.num_relations, hp, dataset.num_users)
    expected = {name: f"shape {shape}, {np.dtype(hp.dtype)}" for name, shape in shapes.items()}
    found = {name: f"shape {value.shape}, {value.dtype}" for name, value in params.values.items()}
    for name in [*expected, *sorted(found.keys() - expected.keys())]:
        want, got = expected.get(name, "none for the manifest's hyperparameters"), found.get(name, "none (missing)")
        if want != got:
            raise ValueError(f"{snap}: tensor {name!r} expected {want}; found {got}")
    if _sha256(snap) != manifest["model_sha256"]:
        raise ValueError(f"{snap} does not match model_sha256 in {manifest_path} (changed since train?)")
    return params, hp, seed, dataset, graph, ripple_table, neighbor_table


def cmd_eval(cfg, split):
    params, hp, seed, dataset, _, ripple_table, neighbor_table = load_run(cfg)
    report = metrics.evaluate(params, dataset.split_named(split), neighbor_table, ripple_table, hp,
                              dataset.item_entities, split=split)
    report.seed = seed  # the run seed that drew both tables; scoring itself draws nothing
    _write_report(os.path.join(cfg.out, f"eval_{split}.csv"), report)
    return 0


# -- sweep ------------------------------------------------------------------------


def cmd_sweep(cfg):
    # every cell fits on the data prepped once, with the loop's seed: only a
    # Hyperparams field can change what a cell computes
    if cfg.sweep_param not in {f.name for f in fields(model.Hyperparams)}:
        raise ValueError(f"sweep requires sweep_param naming a Hyperparams field, got {cfg.sweep_param!r}")
    if not cfg.sweep_values:
        raise ValueError("sweep_values must be nonempty")
    if cfg.sweep_seeds < 1:
        raise ValueError(f"sweep_seeds must be >= 1, got {cfg.sweep_seeds}")
    graph, dataset, _ = load_prep(cfg)
    os.makedirs(os.path.join(cfg.out, "cells"), exist_ok=True)
    seeds = [cfg.seed + i for i in range(cfg.sweep_seeds)]
    rows = []
    for raw_value in cfg.sweep_values:
        for seed in seeds:
            cell_cfg = replace(cfg, seed=seed)
            cell_name = f"{cfg.sweep_param}={raw_value}_seed{seed}"
            try:
                # a value Hyperparams rejects fails this cell only (no manifest, NA row)
                _configure(cell_cfg, [("sweep cell", cfg.sweep_param, raw_value)])
                _write_kv(os.path.join(cfg.out, "cells", cell_name + ".manifest.txt"),
                          {"config_digest": cell_cfg.digest(), "seed": seed,
                           cfg.sweep_param: raw_value})
                result = model.fit(dataset, graph, cell_cfg.hp, seed=seed)
                if result.diverged or result.test_report is None:
                    raise FloatingPointError("diverged")
                rows.append((raw_value, seed, f"{result.test_report.auc:.6f}", f"{result.test_report.acc:.6f}"))
            except Exception as err:  # a failed cell must not sink the sweep
                logger.error("sweep cell %s failed: %s", cell_name, err)
                rows.append((raw_value, seed, "NA", "NA"))

    results_path = os.path.join(cfg.out, "sweep_results.csv")
    with open(results_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([cfg.sweep_param, "seed", "test_auc", "test_acc"])
        writer.writerows(rows)

    agg_path = os.path.join(cfg.out, "sweep_aggregate.csv")
    with open(agg_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["metric"] + [str(v) for v in cfg.sweep_values])
        for metric, col in (("auc", 2), ("acc", 3)):
            cells = []
            for raw_value in cfg.sweep_values:
                vals = [float(r[col]) for r in rows if r[0] == raw_value and r[col] != "NA"]
                cells.append(f"{np.mean(vals):.6f}" if vals else "NA")
            writer.writerow([metric] + cells)
    print(f"wrote {results_path} and {agg_path}")
    return 0


# -- entry point --------------------------------------------------------------------


def main(argv=None):
    parser = argparse.ArgumentParser(prog="ripplerec", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("-v", "--verbose", action="store_true", help="info-level logging")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("prep", "train", "eval", "sweep"):
        p = sub.add_parser(name)
        p.add_argument("--config", help="key = value config file")
        p.add_argument("--set", action="append", metavar="KEY=VALUE", help="override a config key")
        p.add_argument("--seed", default=None, help="run seed, an integer >= 0")
        p.add_argument("--out", default=None, help="artifact directory")
        if name == "eval":
            p.add_argument("--split", default="test", choices=["train", "validation", "test"])
    args = parser.parse_args(argv)
    logging.basicConfig(level=logging.INFO if args.verbose else logging.WARNING,
                        format="%(levelname)s %(name)s: %(message)s")
    try:
        cfg = build_config(args)
        if args.command == "prep":
            return cmd_prep(cfg)
        if args.command == "train":
            return cmd_train(cfg)
        if args.command == "eval":
            return cmd_eval(cfg, args.split)
        return cmd_sweep(cfg)
    except FileNotFoundError as err:
        print(f"error: missing file: {err}", file=sys.stderr)
        return EXIT_MISSING_FILE
    except OSError as err:  # a path that open() refuses: a directory, or no permission to read it
        print(f"error: cannot open: {err}", file=sys.stderr)
        return EXIT_MISSING_FILE
    except ValueError as err:  # kg.ParseError included
        print(f"error: {err}", file=sys.stderr)
        return EXIT_MALFORMED
    except FloatingPointError as err:
        print(f"error: training diverged: {err}", file=sys.stderr)
        return EXIT_DIVERGED


if __name__ == "__main__":
    sys.exit(main())
