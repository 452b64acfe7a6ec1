"""Experiment front door: dataset prep, training, evaluation, sweeps.

Subcommands::

    ripplerec prep  --config cfg.txt [--set key=value ...]
    ripplerec train --config cfg.txt [--set key=value ...]
    ripplerec eval  --config cfg.txt --split test
    ripplerec sweep --config cfg.txt --set sweep_param=ripple_size --set sweep_values=8,16,32,64

Configs are ``key = value`` text files; any key can be overridden on the
command line with ``--set``.  All outputs are CSV/TSV plus key = value
manifests, deterministic for a fixed seed.  Exit codes: 2 missing input
file, 3 malformed data, 4 training divergence.

Five-run averaging uses seeds base..base+4; sweep cells are independent
and each cell's CSV row is traceable to a manifest (config hash + seed)
written beside the results.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import logging
import os
import sys
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import interactions, kg as kgmod, metrics, model
from .core import load_params, save_params

logger = logging.getLogger(__name__)

EXIT_MISSING_FILE = 2
EXIT_MALFORMED = 3
EXIT_DIVERGED = 4


@dataclass
class RunConfig:
    """Flat bag of every knob a run can take; see Hyperparams for semantics."""

    kg: str = ""
    ratings: str = ""
    item_map: str = ""
    out: str = "runs"
    seed: int = 0
    threshold: float = 4.0
    undirected: bool = True
    ratios: tuple = (0.6, 0.2, 0.2)
    embed_dim: int = 8
    hops: int = 2
    ripple_size: int = 32
    neighbor_size: int = 8
    conv_layers: int = 1
    l2_weight: float = 1e-7
    lr: float = 1e-2
    batch_size: int = 1024
    epochs: int = 20
    acc_threshold: float = 0.5
    patience: int = 5
    user_table: bool = False
    fusion: str = "shared"
    loss_variant: str = "bce"
    resample_ripple: bool = False
    precision: str = "f32"
    optimizer: str = "adam"
    sweep_param: str = ""
    sweep_values: tuple = ()
    sweep_seeds: int = 5

    def hyperparams(self):
        names = {f.name for f in fields(model.Hyperparams)}
        return model.Hyperparams(**{k: v for k, v in asdict(self).items() if k in names})

    def digest(self):
        text = "\n".join(f"{k}={v}" for k, v in sorted(asdict(self).items()))
        return hashlib.sha256(text.encode()).hexdigest()[:16]


def _coerce(name, raw, current):
    if isinstance(current, bool):
        if raw.lower() in ("1", "true", "yes", "on"):
            return True
        if raw.lower() in ("0", "false", "no", "off"):
            return False
        raise ValueError(f"{name}: expected a boolean, got {raw!r}")
    if isinstance(current, int):
        return int(raw)
    if isinstance(current, float):
        return float(raw)
    if isinstance(current, tuple):
        parts = [p.strip() for p in raw.split(",") if p.strip()]
        if name == "ratios":
            return tuple(float(p) for p in parts)
        return tuple(parts)
    return raw


def parse_config_file(path, cfg):
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key, raw = (part.strip() for part in line.split("=", 1))
            _apply(cfg, key, raw, where=f"{path}:{lineno}")
    return cfg


def _apply(cfg, key, raw, where="--set"):
    if not hasattr(cfg, key):
        raise ValueError(f"{where}: unknown config key {key!r}")
    setattr(cfg, key, _coerce(key, raw, getattr(cfg, key)))


def build_config(args):
    cfg = RunConfig()
    if args.config:
        if not os.path.exists(args.config):
            raise FileNotFoundError(args.config)
        parse_config_file(args.config, cfg)
    for item in args.set or []:
        if "=" not in item:
            raise ValueError(f"--set expects key=value, got {item!r}")
        key, raw = (part.strip() for part in item.split("=", 1))
        _apply(cfg, key, raw)
    if args.seed is not None:
        cfg.seed = args.seed
    if args.out is not None:
        cfg.out = args.out
    return cfg


def _write_kv(path, mapping):
    with open(path, "w", encoding="utf-8") as fh:
        for key, value in mapping.items():
            fh.write(f"{key} = {value}\n")


def _read_kv(path):
    out = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or "=" not in line:
                continue
            key, value = (part.strip() for part in line.split("=", 1))
            out[key] = value
    return out


def _sha256(path):
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            digest.update(chunk)
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
    with open(os.path.join(out, "item_entities.tsv"), "w", encoding="utf-8") as fh:
        for item, entity in enumerate(binarized.item_entities):
            fh.write(f"{item}\t{entity}\n")

    no_history = dataset.num_users - len(dataset.user_history)
    n_pos = sum(len(v) for v in (binarized.per_user()).values())
    report_lines = [
        f"users\t{dataset.num_users}",
        f"items\t{dataset.num_items}",
        f"interactions\t{n_pos}",
        f"knowledge graph triples\t{len(graph.triples)}",
        "",
        f"rating rows read\t{binarized.n_rows}",
        f"rows below threshold {cfg.threshold} (dropped as unobserved)\t{binarized.n_below_threshold}",
        f"rows with unmapped items (dropped)\t{binarized.n_unmapped}",
        f"split sizes (train/validation/test)\t{len(dataset.train)}/{len(dataset.validation)}/{len(dataset.test)}",
        f"users without train positives (excluded from val/test scoring)\t{no_history}",
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
    })
    print("\n".join(report_lines[:4]))
    return 0


def load_prep(cfg):
    """Rebuild (kg, dataset) from prep artifacts in ``cfg.out``."""
    meta_path = os.path.join(cfg.out, "prep_meta.txt")
    if not os.path.exists(meta_path):
        raise FileNotFoundError(meta_path)
    meta = _read_kv(meta_path)
    graph = kgmod.load_kg(meta["kg"], undirected=meta["undirected"] == "True")
    for name, key in (("entity_vocab.tsv", "entity_vocab_sha256"), ("relation_vocab.tsv", "relation_vocab_sha256")):
        path = os.path.join(cfg.out, name)
        if _sha256(path) != meta[key]:
            raise ValueError(f"{path} does not match the prep-time vocabulary (KG file changed?)")
    item_entities = np.loadtxt(os.path.join(cfg.out, "item_entities.tsv"), dtype=np.int64, ndmin=2)[:, 1]
    dataset = interactions.dataset_from_files(
        os.path.join(cfg.out, "train.tsv"),
        os.path.join(cfg.out, "validation.tsv"),
        os.path.join(cfg.out, "test.tsv"),
        num_users=int(meta["num_users"]),
        num_items=int(meta["num_items"]),
        item_entities=item_entities,
    )
    return graph, dataset


# -- train / eval -----------------------------------------------------------------


def _write_epoch_log(path, history):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "train_loss", "val_auc", "val_acc"])
        for row in history:
            writer.writerow([row["epoch"], f"{row['train_loss']:.6f}",
                             f"{row['val_auc']:.6f}", f"{row['val_acc']:.6f}"])


def _save_snapshot(out_dir, params, cfg, meta):
    """Snapshot plus manifest, written atomically (write then rename)."""
    snap = os.path.join(out_dir, "model.npz")
    tmp = snap + ".tmp"
    save_params(tmp, params)
    os.replace(tmp, snap)
    manifest = {"config_digest": cfg.digest(), "seed": cfg.seed}
    manifest.update({k: v for k, v in asdict(cfg).items() if k not in ("sweep_param", "sweep_values", "sweep_seeds")})
    manifest.update(meta)
    _write_kv(os.path.join(out_dir, "model.manifest.txt"), manifest)
    return snap


def cmd_train(cfg):
    graph, dataset = load_prep(cfg)
    hp = cfg.hyperparams()
    result = model.fit(dataset, graph, hp, seed=cfg.seed)
    meta = {
        "best_epoch": result.best_epoch,
        "diverged": result.diverged,
        "skipped_users": result.skipped_users,
        "entity_vocab_sha256": _read_kv(os.path.join(cfg.out, "prep_meta.txt"))["entity_vocab_sha256"],
    }
    _save_snapshot(cfg.out, result.params, cfg, meta)
    _write_epoch_log(os.path.join(cfg.out, "epochs.csv"), result.history)
    if result.test_report is not None:
        with open(os.path.join(cfg.out, "test_report.csv"), "w", encoding="utf-8") as fh:
            fh.write(metrics.MetricReport.CSV_HEADER + "\n")
            fh.write(result.test_report.to_csv_row() + "\n")
        print(result.test_report.to_csv_row())
    if result.diverged:
        logger.error("training diverged; last good snapshot retained")
        return EXIT_DIVERGED
    return 0


def _hyperparams_from_manifest(manifest, fallback):
    """Rebuild the training-time Hyperparams recorded next to a snapshot."""
    probe = RunConfig()
    kwargs = {}
    for f in fields(model.Hyperparams):
        if f.name in manifest:
            kwargs[f.name] = _coerce(f.name, manifest[f.name], getattr(probe, f.name, f.default))
    if not kwargs:
        return fallback.hyperparams()
    return model.Hyperparams(**kwargs)


def cmd_eval(cfg, split):
    graph, dataset = load_prep(cfg)
    snap = os.path.join(cfg.out, "model.npz")
    if not os.path.exists(snap):
        raise FileNotFoundError(snap)
    manifest = _read_kv(os.path.join(cfg.out, "model.manifest.txt"))
    params = load_params(snap)
    # score with the hyperparameters the snapshot was trained with, not
    # whatever the current config happens to say
    hp = _hyperparams_from_manifest(manifest, cfg)
    train_seed = int(manifest.get("seed", cfg.seed))
    ripple_sets = {} if hp.user_table else model.build_ripple_sets(dataset, graph, hp, train_seed)
    report = metrics.evaluate(
        params, dataset.split_named(split), graph, ripple_sets, hp,
        dataset.item_entities, seed=cfg.seed, split=split,
    )
    path = os.path.join(cfg.out, f"eval_{split}.csv")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(metrics.MetricReport.CSV_HEADER + "\n")
        fh.write(report.to_csv_row() + "\n")
    print(report.to_csv_row())
    return 0


# -- sweep ------------------------------------------------------------------------


def cmd_sweep(cfg):
    if not cfg.sweep_param:
        raise ValueError("sweep requires sweep_param (and sweep_values)")
    if not cfg.sweep_values:
        raise ValueError("sweep_values must be nonempty")
    graph, dataset = load_prep(cfg)
    os.makedirs(os.path.join(cfg.out, "cells"), exist_ok=True)
    seeds = [cfg.seed + i for i in range(cfg.sweep_seeds)]
    rows = []
    for raw_value in cfg.sweep_values:
        for seed in seeds:
            cell_cfg = RunConfig(**asdict(cfg))
            _apply(cell_cfg, cfg.sweep_param, raw_value, where="sweep cell")
            cell_cfg.seed = seed
            cell_name = f"{cfg.sweep_param}={raw_value}_seed{seed}"
            _write_kv(os.path.join(cfg.out, "cells", cell_name + ".manifest.txt"),
                      {"config_digest": cell_cfg.digest(), "seed": seed,
                       cfg.sweep_param: raw_value})
            try:
                hp = cell_cfg.hyperparams()
                result = model.fit(dataset, graph, hp, seed=seed)
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
        p.add_argument("--seed", type=int, default=None)
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
    except (kgmod.ParseError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_MALFORMED
    except FloatingPointError as err:
        print(f"error: training diverged: {err}", file=sys.stderr)
        return EXIT_DIVERGED


if __name__ == "__main__":
    sys.exit(main())
