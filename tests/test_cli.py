import argparse
import csv
import io
import os
import shutil
import subprocess
import sys
from dataclasses import asdict, fields

import numpy as np
import pytest

from ripplerec.cli import (
    EXIT_DIVERGED,
    EXIT_MALFORMED,
    EXIT_MISSING_FILE,
    RunConfig,
    _config_lines,
    _configure,
    _hyperparams_from_manifest,
    _read_kv,
    _save_snapshot,
    _sha256,
    _table_sha256,
    build_config,
    load_run,
    main,
)
from ripplerec.kg import load_kg
from ripplerec.model import Hyperparams, init_params


@pytest.fixture(scope="module")
def workdir(tmp_path_factory, request):
    from ripplerec.synthetic import generate, tiny_spec

    root = tmp_path_factory.mktemp("cli")
    generate(tiny_spec(seed=1), str(root / "data"))
    cfg = root / "cfg.txt"
    cfg.write_text(
        "\n".join([
            "# tiny synthetic run",
            f"kg = {root / 'data' / 'kg.tsv'}",
            f"ratings = {root / 'data' / 'ratings.tsv'}",
            f"item_map = {root / 'data' / 'item_map.tsv'}",
            f"out = {root / 'run'}",
            "threshold = 4",
            "embed_dim = 4",
            "hops = 2",
            "ripple_size = 8",
            "neighbor_size = 4",
            "conv_layers = 1",
            "lr = 1e-2",
            "batch_size = 64",
            "epochs = 3",
            "patience = 0",
            "precision = f64",
        ]) + "\n",
        encoding="utf-8",
    )
    return root


def run_cli(*args):
    return main([str(a) for a in args])


@pytest.fixture(scope="module")
def untrained_run(workdir, tmp_path_factory):
    """Prep artifacts plus an epochs=0 (f64) snapshot and manifest."""
    out = tmp_path_factory.mktemp("snap") / "run"
    assert run_cli("prep", "--config", workdir / "cfg.txt", "--seed", 5, "--out", out) == 0
    assert run_cli("train", "--config", workdir / "cfg.txt", "--seed", 5, "--out", out,
                   "--set", "epochs=0") == 0
    return out


def _record_checksum(out, name):
    """Record the sha256 of ``out``'s ``<name>.tsv`` in its prep_meta.txt, as a prep that wrote the file would."""
    meta = out / "prep_meta.txt"
    key = f"{name}_sha256"
    lines = meta.read_text(encoding="utf-8").splitlines(keepends=True)
    assert sum(line.startswith(f"{key} = ") for line in lines) == 1
    meta.write_text("".join(f"{key} = {_sha256(out / f'{name}.tsv')}\n" if line.startswith(f"{key} = ") else line
                            for line in lines), encoding="utf-8")


def _to_f32(arrays, names):
    for name in names:
        arrays[name] = arrays[name].astype(np.float32)


def _add_one(arrays, name):
    arrays[name] = arrays[name].copy()
    arrays[name].flat[0] += 1.0


# (defect, edit of the snapshot's arrays, text stderr must contain)
SNAPSHOT_DEFECTS = [
    ("dropped_tensor", lambda a: a.pop("relation_vec"), ["'relation_vec'", "missing"]),
    ("relation_mat_shape", lambda a: a.update(relation_mat=a["relation_mat"][:, :2]),
     ["'relation_mat'", "expected shape", "found shape", ", 2, 4)"]),
    ("dtype", lambda a: _to_f32(a, [k for k in a if k != "__magic__"]),
     ["'entity_emb'", "float64", "float32"]),
    ("mixed_dtype", lambda a: _to_f32(a, ["fusion_w"]), ["'fusion_w'", "float32"]),
    # only a user_table run has a user_emb tensor
    ("extra_tensor", lambda a: a.update(user_emb=np.zeros((2, 4), a["entity_emb"].dtype)), ["'user_emb'"]),
    # the names, shapes and dtype the manifest gives, one value changed (a train that died between replacing
    # model.npz and writing the manifest): only the snapshot's sha256 tells it from the one the manifest describes
    ("value_changed", lambda a: _add_one(a, "entity_emb"), ["model.npz does not match model_sha256 in ",
                                                            "model.manifest.txt (changed since train?)"]),
]


class TestConfig:
    def test_key_value_parsing_with_comments(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("seed = 7  # comment\nundirected = false\nsweep_values = 8, 16\n", encoding="utf-8")
        cfg = _configure(RunConfig(), _config_lines(str(path)))
        assert cfg.seed == 7
        assert cfg.undirected is False
        assert cfg.sweep_values == ("8", "16")

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("not_a_key = 1\n", encoding="utf-8")
        with pytest.raises(ValueError, match="unknown config key"):
            _configure(RunConfig(), _config_lines(str(path)))

    @pytest.mark.parametrize("via", ["config", "set"])
    @pytest.mark.parametrize("key, value", [("optimizer", "adam"), ("resample_ripple", "False"),
                                            ("fusion", "recursive")])
    def test_removed_training_keys_rejected(self, tmp_path, capsys, key, value, via):
        # training is always Adam over ripple sets sampled once per run, with one user-side fusion
        path = tmp_path / "c.txt"
        path.write_text(f"{key} = {value}\n" if via == "config" else "", encoding="utf-8")
        argv = ["train", "--config", path, "--out", tmp_path / "run"]
        if via == "set":
            argv += ["--set", f"{key}={value}"]
        capsys.readouterr()
        assert run_cli(*argv) == EXIT_MALFORMED
        err = capsys.readouterr().err
        assert f"unknown config key {key!r}" in err, err

    def test_digest_changes_with_config(self):
        a, b = RunConfig(seed=1), RunConfig(seed=2)
        assert a.digest() != b.digest()

    def test_hyperparams_have_one_source(self, tmp_path):
        hp_names = [f.name for f in fields(Hyperparams)]
        assert not set(hp_names) & {f.name for f in fields(RunConfig)}
        assert Hyperparams().precision == RunConfig().hp.precision == "f32"
        # every field off its default, so a key that is dropped on the way shows
        hp = Hyperparams(embed_dim=3, hops=3, ripple_size=5, neighbor_size=3, conv_layers=2,
                         l2_weight=1e-5, lr=0.03, batch_size=17, epochs=2, patience=1, user_table=True,
                         precision="f64")
        assert [n for n in hp_names if getattr(hp, n) == getattr(Hyperparams(), n)] == []
        lines = [f"{k} = {v}" for k, v in asdict(hp).items()]

        path = tmp_path / "c.txt"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        from_file = _configure(RunConfig(), _config_lines(str(path))).hp
        args = argparse.Namespace(config=None, set=[line.replace(" = ", "=") for line in lines],
                                  seed=None, out=None)
        from_set = build_config(args).hp
        cfg = RunConfig(hp=hp)
        params = init_params(4, 2, hp, num_users=2)
        _save_snapshot(str(tmp_path), params, cfg, {})
        manifest = _read_kv(str(tmp_path / "model.manifest.txt"))
        from_manifest = _hyperparams_from_manifest(manifest, "model.manifest.txt")
        assert from_file == from_set == from_manifest == hp


    def test_cross_key_rule_sees_every_set_key(self):
        # lr * l2_weight < 1 holds for the final values (0.2), not for 200 at the default lr 0.01
        for order in (["l2_weight=200", "lr=0.001"], ["lr=0.001", "l2_weight=200"]):
            args = argparse.Namespace(config=None, set=order, seed=None, out=None)
            assert build_config(args).hp == Hyperparams(lr=0.001, l2_weight=200.0), order

    def test_cross_key_rule_sees_every_config_line(self, tmp_path):
        expected = Hyperparams(lr=0.001, l2_weight=200.0)
        path = tmp_path / "c.txt"
        for text in ("l2_weight = 200\nlr = 0.001\n", "lr = 0.001\nl2_weight = 200\n"):
            path.write_text(text, encoding="utf-8")
            assert _configure(RunConfig(), _config_lines(str(path))).hp == expected, text
        # the config file and --set are checked together too
        path.write_text("l2_weight = 200\n", encoding="utf-8")
        args = argparse.Namespace(config=str(path), set=["lr=0.001"], seed=None, out=None)
        assert build_config(args).hp == expected

    def test_cross_key_error_names_each_key_and_its_source(self, tmp_path, capsys):
        path = tmp_path / "c.txt"
        path.write_text("lr = 0.5\n", encoding="utf-8")
        capsys.readouterr()
        assert run_cli("train", "--config", path, "--set", "l2_weight=4", "--out", tmp_path / "run") == EXIT_MALFORMED
        err = capsys.readouterr().err
        assert f"{path}:1 (lr), --set (l2_weight): lr * l2_weight must be < 1" in err, err


def test_import_leaves_scipy_unloaded():
    # AUC ranks in numpy and a training step loads scipy's sparse kernel
    # alone, so the CLI and scoring start without scipy.stats or scipy.sparse
    import ripplerec

    src = os.path.dirname(os.path.dirname(os.path.abspath(ripplerec.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = ("import sys, ripplerec, ripplerec.cli; "
            "print([m for m in ('scipy.stats', 'scipy.sparse') if m in sys.modules])")
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "[]", done.stdout


class TestPrep:
    def test_prep_emits_artifacts(self, workdir):
        assert run_cli("prep", "--config", workdir / "cfg.txt", "--seed", 5) == 0
        out = workdir / "run"
        for name in ("train.tsv", "validation.tsv", "test.tsv", "entity_vocab.tsv",
                     "relation_vocab.tsv", "user_vocab.tsv", "item_vocab.tsv",
                     "item_entities.tsv", "prep_report.txt", "prep_meta.txt"):
            assert (out / name).exists(), name

    def test_report_counts_layout(self, workdir):
        report = (workdir / "run" / "prep_report.txt").read_text(encoding="utf-8")
        for key in ("users\t", "items\t", "interactions\t", "knowledge graph triples\t"):
            assert key in report

    def test_rerun_byte_identical(self, workdir, tmp_path):
        assert run_cli("prep", "--config", workdir / "cfg.txt", "--seed", 5,
                       "--out", tmp_path / "again") == 0
        for name in ("train.tsv", "validation.tsv", "test.tsv", "prep_report.txt"):
            assert (tmp_path / "again" / name).read_bytes() == (workdir / "run" / name).read_bytes()

    def test_user_who_rated_every_item_skipped_and_counted(self, workdir, tmp_path, caplog):
        # a user appended to the ratings who rated every item: prep drops and names them, counts them
        # in the report, and every other user's rows in the splits are those of a prep without them
        ratings = tmp_path / "ratings.tsv"
        item_map = (workdir / "data" / "item_map.tsv").read_text(encoding="utf-8")
        items = [line.split("\t")[0] for line in item_map.splitlines()]
        ratings.write_text((workdir / "data" / "ratings.tsv").read_text(encoding="utf-8")
                           + "".join(f"every-item user\t{item}\t5\n" for item in items), encoding="utf-8")
        assert run_cli("prep", "--config", workdir / "cfg.txt", "--seed", 5, "--out", tmp_path / "without") == 0
        with caplog.at_level("WARNING"):
            rc = run_cli("prep", "--config", workdir / "cfg.txt", "--seed", 5, "--out", tmp_path / "with",
                         "--set", f"ratings={ratings}")
        assert rc == 0
        assert "every-item user" in caplog.text
        report = (tmp_path / "with" / "prep_report.txt").read_text(encoding="utf-8").splitlines()
        assert "users who rated every item (dropped: no negative to draw)\t1" in report
        without = (tmp_path / "without" / "prep_report.txt").read_text(encoding="utf-8").splitlines()
        assert "users who rated every item (dropped: no negative to draw)\t0" in without
        assert len(report) == len(without)
        for name in ("train.tsv", "validation.tsv", "test.tsv"):
            assert (tmp_path / "with" / name).read_bytes() == (tmp_path / "without" / name).read_bytes(), name

    def test_users_drawn_with_replacement_counted(self, workdir, tmp_path):
        # a user appended who rated every item but one: a pool of one item, smaller than their positives
        ratings = tmp_path / "ratings.tsv"
        item_map = (workdir / "data" / "item_map.tsv").read_text(encoding="utf-8")
        items = [line.split("\t")[0] for line in item_map.splitlines()]
        ratings.write_text((workdir / "data" / "ratings.tsv").read_text(encoding="utf-8")
                           + "".join(f"all-but-one user\t{item}\t5\n" for item in items[1:]), encoding="utf-8")
        key = "users whose negatives were drawn with replacement (pool smaller than positives)"
        for name, extra, count in (("without", (), 0), ("with", ("--set", f"ratings={ratings}"), 1)):
            assert run_cli("prep", "--config", workdir / "cfg.txt", "--seed", 5, "--out", tmp_path / name, *extra) == 0
            report = (tmp_path / name / "prep_report.txt").read_text(encoding="utf-8").splitlines()
            assert f"{key}\t{count}" in report, name

    def test_missing_input_exit_2(self, workdir, tmp_path):
        rc = run_cli("prep", "--config", workdir / "cfg.txt", "--out", tmp_path / "x",
                     "--set", "item_map=/nonexistent/map.tsv")
        assert rc == EXIT_MISSING_FILE

    def test_malformed_data_exit_3(self, workdir, tmp_path):
        bad = tmp_path / "bad_ratings.tsv"
        bad.write_text("u1\ti0\tnot-a-number\n", encoding="utf-8")
        rc = run_cli("prep", "--config", workdir / "cfg.txt", "--out", tmp_path / "y",
                     "--set", f"ratings={bad}")
        assert rc == EXIT_MALFORMED

    @pytest.mark.parametrize("ratios", ["0.5,0.5", "1.2,-0.1,-0.1"], ids=["two_shares", "share_outside_0_1"])
    def test_bad_ratios_exit_3(self, workdir, tmp_path, capsys, ratios):
        capsys.readouterr()
        rc = run_cli("prep", "--config", workdir / "cfg.txt", "--out", tmp_path / "r", "--set", f"ratios={ratios}")
        assert rc == EXIT_MALFORMED
        assert "split ratios must be three shares in [0, 1] that sum to 1" in capsys.readouterr().err
        assert not (tmp_path / "r" / "train.tsv").exists()

    @pytest.mark.parametrize("where", ["set", "config"])
    def test_bad_ratios_rejected_before_out_is_made(self, workdir, tmp_path, capsys, where):
        config = tmp_path / "cfg.txt"
        text = (workdir / "cfg.txt").read_text(encoding="utf-8")
        config.write_text(text + ("ratios = 0.5, 0.5\n" if where == "config" else ""), encoding="utf-8")
        extra = ["--set", "ratios=0.5,0.5"] if where == "set" else []
        capsys.readouterr()
        rc = run_cli("prep", "--config", config, "--out", tmp_path / "never", *extra)
        err = capsys.readouterr().err
        assert rc == EXIT_MALFORMED
        where_text = "--set" if where == "set" else f"{config}:{len(text.splitlines()) + 1}"
        assert f"{where_text}: split ratios must be three shares in [0, 1] that sum to 1" in err
        assert not (tmp_path / "never").exists()

    @pytest.mark.parametrize("threshold", ["nan", "-inf", "inf"])
    def test_non_finite_threshold_rejected_before_out_is_made(self, workdir, tmp_path, capsys, threshold):
        # no rating is below nan or -inf, so either would make every mapped rating a positive
        capsys.readouterr()
        rc = run_cli("prep", "--config", workdir / "cfg.txt", "--out", tmp_path / "never",
                     "--set", f"threshold={threshold}")
        assert rc == EXIT_MALFORMED
        assert f"--set: threshold must be a finite number, got {float(threshold)}" in capsys.readouterr().err
        assert not (tmp_path / "never").exists()

    @pytest.mark.parametrize("command", ["prep", "train"])
    @pytest.mark.parametrize("where", ["config", "set", "seed"])
    def test_negative_seed_rejected_naming_its_source(self, workdir, tmp_path, capsys, command, where):
        # checked with the other keys, before prep makes its output or train loads the prep it reads
        config = tmp_path / "cfg.txt"
        text = (workdir / "cfg.txt").read_text(encoding="utf-8")
        config.write_text(text + ("seed = -1\n" if where == "config" else ""), encoding="utf-8")
        extra = {"config": [], "set": ["--set", "seed=-1"], "seed": ["--seed", "-1"]}[where]
        capsys.readouterr()
        rc = run_cli(command, "--config", config, "--out", tmp_path / "never", *extra)
        err = capsys.readouterr().err
        assert rc == EXIT_MALFORMED, err
        where_text = {"config": f"{config}:{len(text.splitlines()) + 1}", "set": "--set", "seed": "--seed"}[where]
        assert f"{where_text}: seed = '-1' must be >= 0" in err
        assert not (tmp_path / "never").exists()

    def test_non_integer_seed_flag_exits_3(self, workdir, tmp_path, capsys):
        # --seed is parsed as the config key is: malformed input (3), not argparse's usage error (2)
        capsys.readouterr()
        rc = run_cli("prep", "--config", workdir / "cfg.txt", "--out", tmp_path / "never", "--seed", "x")
        assert rc == EXIT_MALFORMED
        assert "--seed: seed = 'x' is not an integer" in capsys.readouterr().err
        assert not (tmp_path / "never").exists()


class TestTrainEvalSweep:
    def test_train_writes_snapshot_log_and_report(self, workdir):
        assert run_cli("train", "--config", workdir / "cfg.txt", "--seed", 5) == 0
        out = workdir / "run"
        assert (out / "model.npz").exists()
        assert (out / "model.manifest.txt").exists()
        assert not (out / "model.npz.tmp").exists()
        with open(out / "epochs.csv", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["epoch", "train_loss", "val_auc", "val_acc"]
        assert len(rows) == 4  # header + 3 epochs
        manifest = (out / "model.manifest.txt").read_text(encoding="utf-8")
        assert "config_digest" in manifest and "entity_vocab_sha256" in manifest

    def test_zero_epochs_header_only_log(self, workdir, tmp_path):
        out = tmp_path / "zero"
        assert run_cli("prep", "--config", workdir / "cfg.txt", "--seed", 5, "--out", out) == 0
        assert run_cli("train", "--config", workdir / "cfg.txt", "--seed", 5, "--out", out,
                       "--set", "epochs=0") == 0
        with open(out / "epochs.csv", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert rows == [["epoch", "train_loss", "val_auc", "val_acc"]]
        assert (out / "model.npz").exists()

    def test_empty_validation_split_rejected_before_training(self, workdir, tmp_path, capsys, monkeypatch):
        import ripplerec.model as model_mod

        def no_step(*args, **kwargs):
            raise AssertionError("forward_backward ran before the empty validation split was rejected")

        out = tmp_path / "no_val"
        assert run_cli("prep", "--config", workdir / "cfg.txt", "--seed", 5, "--out", out,
                       "--set", "ratios=1,0,0") == 0
        assert (out / "validation.tsv").read_bytes() == b""
        monkeypatch.setattr(model_mod, "forward_backward", no_step)
        capsys.readouterr()
        rc = run_cli("train", "--config", workdir / "cfg.txt", "--seed", 5, "--out", out)
        err = capsys.readouterr().err
        assert rc == EXIT_MALFORMED
        assert "empty validation split" in err and "ratios" in err
        assert "Traceback" not in err
        # with no epoch there is nothing to select, so an empty validation split is fine
        assert run_cli("train", "--config", workdir / "cfg.txt", "--seed", 5, "--out", out,
                       "--set", "epochs=0") == 0

    def test_eval_writes_metric_row(self, workdir):
        assert run_cli("eval", "--config", workdir / "cfg.txt", "--seed", 5,
                       "--split", "validation") == 0
        with open(workdir / "run" / "eval_validation.csv", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["split", "auc", "acc", "n", "skipped", "seed"]
        assert rows[1][0] == "validation"
        assert 0.0 <= float(rows[1][1]) <= 1.0

    def test_eval_uses_snapshot_hyperparams_not_config(self, workdir):
        # a config drifted to a different architecture must not break scoring
        rc = run_cli("eval", "--config", workdir / "cfg.txt", "--seed", 5,
                     "--split", "test", "--set", "conv_layers=3", "--set", "embed_dim=16")
        assert rc == 0

    @pytest.mark.parametrize("edit, expect", [d[1:] for d in SNAPSHOT_DEFECTS],
                             ids=[d[0] for d in SNAPSHOT_DEFECTS])
    def test_eval_rejects_mismatched_snapshot(self, workdir, untrained_run, tmp_path, capsys,
                                              edit, expect):
        out = tmp_path / "run"
        shutil.copytree(untrained_run, out)
        with np.load(out / "model.npz", allow_pickle=False) as data:
            arrays = {name: data[name] for name in data.files}
        edit(arrays)
        with open(out / "model.npz", "wb") as fh:
            np.savez(fh, **arrays)
        capsys.readouterr()
        rc = run_cli("eval", "--config", workdir / "cfg.txt", "--seed", 5, "--out", out)
        err = capsys.readouterr().err
        assert rc == EXIT_MALFORMED, err
        for text in expect:
            assert text in err, (text, err)
        assert not (out / "eval_test.csv").exists()

    def test_load_run_returns_the_trained_run(self, untrained_run):
        # a config drifted to another architecture: the manifest's hyperparameters win
        params, hp, seed, dataset, graph, ripple_table, neighbor_table = load_run(
            RunConfig(out=str(untrained_run), seed=6, hp=Hyperparams(embed_dim=16, conv_layers=3)))
        manifest = _read_kv(str(untrained_run / "model.manifest.txt"))
        assert hp == _hyperparams_from_manifest(manifest, "model.manifest.txt") == Hyperparams(
            embed_dim=4, hops=2, ripple_size=8, neighbor_size=4, conv_layers=1, lr=1e-2, batch_size=64,
            epochs=0, patience=0, precision="f64")
        assert seed == int(manifest["seed"]) == 5
        with np.load(untrained_run / "model.npz", allow_pickle=False) as data:
            saved = {name: data[name] for name in data.files if name != "__magic__"}
        assert list(params.values) == list(saved)
        for name, value in saved.items():
            assert (params.values[name].dtype, params.values[name].shape) == (value.dtype, value.shape), name
            assert params.values[name].tobytes() == value.tobytes(), name
        assert _table_sha256(ripple_table.bags, ripple_table.has) == manifest["ripple_table_sha256"]
        assert _table_sha256(neighbor_table.rel, neighbor_table.nbr) == manifest["neighbor_table_sha256"]
        assert params.values["entity_emb"].shape[0] == graph.num_entities
        assert dataset.num_users == int(_read_kv(str(untrained_run / "prep_meta.txt"))["num_users"])

    def test_table_checksums_match_int64_tables(self, untrained_run):
        # the values written for this run while the tables were int64: every snapshot saved then still evaluates
        manifest = _read_kv(str(untrained_run / "model.manifest.txt"))
        assert manifest["ripple_table_sha256"] == "aaea013cefac8aa5ae0e89e3397bcf498253cf9ce84bc97f686b4aecd2a25e91"
        assert manifest["neighbor_table_sha256"] == "241f73a8858113b700d34180e9c0977ec44d686fdce2ea7d7895d98b92784a63"

    def test_manifest_with_removed_training_keys_evaluates_the_same(self, workdir, untrained_run, tmp_path):
        # manifests written while these keys were Hyperparams fields hold `acc_threshold` after
        # `epochs` and `fusion` after `user_table`, at the one value the model now fixes; older
        # ones also hold `resample_ripple` after `fusion` and `optimizer` after `precision`
        retired = {"epochs": "acc_threshold = 0.5\n", "user_table": "fusion = shared\n"}
        older = dict(retired, user_table="fusion = shared\nresample_ripple = False\n",
                     precision="optimizer = adam\n")
        rows = []
        for after in ({}, retired, older):
            out = tmp_path / f"run{len(rows)}"
            shutil.copytree(untrained_run, out)
            manifest = out / "model.manifest.txt"
            lines = manifest.read_text(encoding="utf-8").splitlines(keepends=True)
            text = "".join(line + after.get(line.split(" = ")[0], "") for line in lines)
            assert all(extra in text for extra in after.values())
            manifest.write_text(text, encoding="utf-8")
            assert run_cli("eval", "--config", workdir / "cfg.txt", "--seed", 5, "--out", out) == 0
            rows.append((out / "eval_test.csv").read_bytes())
        assert rows[0] == rows[1] == rows[2]

    def test_snapshot_with_cross_key_values_evaluates(self, workdir, untrained_run, tmp_path):
        # the manifest records l2_weight before lr; read one key at a time, 200 * the default lr
        # failed the lr * l2_weight rule, so a snapshot trained with valid values could not be scored
        out = tmp_path / "run"
        shutil.copytree(untrained_run, out)
        assert run_cli("train", "--config", workdir / "cfg.txt", "--seed", 5, "--out", out,
                       "--set", "epochs=0", "--set", "lr=0.001", "--set", "l2_weight=200") == 0
        manifest = _read_kv(str(out / "model.manifest.txt"))
        assert (manifest["lr"], manifest["l2_weight"]) == ("0.001", "200.0")
        assert run_cli("eval", "--config", workdir / "cfg.txt", "--out", out) == 0
        assert (out / "eval_test.csv").exists()

    @pytest.mark.parametrize("command", ["train", "eval"])
    def test_run_without_prep_exit_2(self, tmp_path, capsys, command):
        # lr * l2_weight is checked on the final values, so either --set order gets past it to the missing prep
        for order in (["l2_weight=200", "lr=0.001"], ["lr=0.001", "l2_weight=200"]):
            capsys.readouterr()
            rc = run_cli(command, "--out", tmp_path / "no-run", *(arg for kv in order for arg in ("--set", kv)))
            err = capsys.readouterr().err
            assert rc == EXIT_MISSING_FILE, err
            assert f"missing file: {tmp_path / 'no-run' / 'prep_meta.txt'}" in err, err

    def test_eval_before_train_exit_2(self, workdir, tmp_path):
        out = tmp_path / "fresh"
        assert run_cli("prep", "--config", workdir / "cfg.txt", "--seed", 5, "--out", out) == 0
        rc = run_cli("eval", "--config", workdir / "cfg.txt", "--seed", 5, "--out", out)
        assert rc == EXIT_MISSING_FILE

    def test_vocab_checksum_mismatch_detected(self, workdir, tmp_path):
        out = tmp_path / "drift"
        assert run_cli("prep", "--config", workdir / "cfg.txt", "--seed", 5, "--out", out) == 0
        vocab = out / "entity_vocab.tsv"
        vocab.write_text(vocab.read_text(encoding="utf-8") + "ghost\t99999\n", encoding="utf-8")
        rc = run_cli("train", "--config", workdir / "cfg.txt", "--seed", 5, "--out", out)
        assert rc == EXIT_MALFORMED

    def test_reordered_kg_after_train_detected(self, workdir, tmp_path, capsys):
        # same triples in reverse order: the vocabulary files still match
        # their checksums, but the reloaded graph numbers its entities anew
        kg = tmp_path / "kg.tsv"
        shutil.copy(workdir / "data" / "kg.tsv", kg)
        out = tmp_path / "run"
        argv = ["--config", workdir / "cfg.txt", "--seed", 5, "--out", out, "--set", f"kg={kg}"]
        assert run_cli("prep", *argv) == 0
        assert run_cli("train", *argv, "--set", "epochs=1") == 0
        lines = kg.read_text(encoding="utf-8").splitlines(keepends=True)
        kg.write_text("".join(reversed(lines)), encoding="utf-8")
        capsys.readouterr()
        rc = run_cli("eval", *argv)
        err = capsys.readouterr().err
        assert rc == EXIT_MALFORMED, err
        assert f"{kg}: entity vocabulary differs from {out / 'entity_vocab.tsv'}" in err, err
        assert "Traceback" not in err

    @pytest.mark.parametrize("user_table", [False, True], ids=["ripple", "user_table"])
    def test_prep_rerun_after_train_detected(self, workdir, tmp_path, capsys, user_table):
        # a later prep into the same directory renumbers the graph consistently
        # with its own vocabulary files; only the snapshot's manifest remembers
        # the numbering it was trained on (under user_table no ripple table
        # depends on it)
        kg = tmp_path / "kg.tsv"
        shutil.copy(workdir / "data" / "kg.tsv", kg)
        out = tmp_path / "run"
        argv = ["--config", workdir / "cfg.txt", "--seed", 5, "--out", out, "--set", f"kg={kg}",
                "--set", f"user_table={user_table}"]
        assert run_cli("prep", *argv) == 0
        assert run_cli("train", *argv, "--set", "epochs=1") == 0
        lines = kg.read_text(encoding="utf-8").splitlines(keepends=True)
        kg.write_text("".join(reversed(lines)), encoding="utf-8")
        assert run_cli("prep", *argv) == 0
        capsys.readouterr()
        rc = run_cli("eval", *argv)
        err = capsys.readouterr().err
        assert rc == EXIT_MALFORMED, err
        assert f"{out / 'model.manifest.txt'}: entity_vocab_sha256 differs from {out / 'prep_meta.txt'}" in err, err
        assert "Traceback" not in err
        assert not (out / "eval_test.csv").exists()

    @pytest.mark.parametrize("edit, expect", [
        ("missing", "missing key 'ripple_table_sha256' (truncated, or written by an older ripplerec)"),
        ("altered", "ripple_table_sha256 does not match the ripple table rebuilt"),
        ("train_edited", "ripple_table_sha256 does not match the ripple table rebuilt"),
    ])
    def test_eval_checks_the_ripple_table_checksum(self, workdir, untrained_run, tmp_path, capsys, edit, expect):
        out = tmp_path / "run"
        shutil.copytree(untrained_run, out)
        manifest = out / "model.manifest.txt"
        lines = manifest.read_text(encoding="utf-8").splitlines(keepends=True)
        key = [i for i, line in enumerate(lines) if line.startswith("ripple_table_sha256 = ")]
        assert len(key) == 1
        if edit == "missing":
            del lines[key[0]]
        elif edit == "altered":
            lines[key[0]] = f"ripple_table_sha256 = {'0' * 64}\n"
        else:  # the bags the snapshot trained on are no longer what train.tsv seeds
            train = out / "train.tsv"
            rows = train.read_text(encoding="utf-8").splitlines(keepends=True)
            first = next(i for i, row in enumerate(rows) if row.endswith("\t1\n"))
            train.write_text("".join(rows[:first] + rows[first + 1:]), encoding="utf-8")
            _record_checksum(out, "train")
        manifest.write_text("".join(lines), encoding="utf-8")
        capsys.readouterr()
        rc = run_cli("eval", "--config", workdir / "cfg.txt", "--seed", 5, "--out", out)
        err = capsys.readouterr().err
        assert rc == EXIT_MALFORMED, err
        assert f"{manifest}: {expect}" in err, err
        assert "retrain the snapshot" in err
        assert not (out / "eval_test.csv").exists()

    def test_eval_blames_a_kg_edited_since_train_on_the_kg_too(self, workdir, tmp_path, capsys):
        # one triple's tail moves to an entity named earlier in the file, so the
        # vocabularies (and their checksums) stay as trained, but the graph the
        # tables are rebuilt from does not
        kg = tmp_path / "kg.tsv"
        shutil.copy(workdir / "data" / "kg.tsv", kg)
        out = tmp_path / "run"
        argv = ["--config", workdir / "cfg.txt", "--seed", 5, "--out", out, "--set", f"kg={kg}"]
        assert run_cli("prep", *argv) == 0
        assert run_cli("train", *argv, "--set", "epochs=0") == 0
        names = load_kg(str(kg)).entity_names
        rows = [line.split("\t") for line in kg.read_text(encoding="utf-8").splitlines()]
        triples = {tuple(row) for row in rows}
        head, relation, _ = rows[-1]
        rows[-1][2] = next(name for name in names if name != rows[-1][2] and (head, relation, name) not in triples)
        kg.write_text("".join("\t".join(row) + "\n" for row in rows), encoding="utf-8")
        assert load_kg(str(kg)).entity_names == names
        capsys.readouterr()
        rc = run_cli("eval", *argv)
        err = capsys.readouterr().err
        assert rc == EXIT_MALFORMED, err
        assert (f"{out / 'model.manifest.txt'}: ripple_table_sha256 does not match the ripple table rebuilt from the "
                f"train split in {out} and the graph in {kg}; retrain the snapshot") in err, err
        assert not (out / "eval_test.csv").exists()

    @pytest.mark.parametrize("edit, expect", [
        ("missing", "missing key 'neighbor_table_sha256' (truncated, or written by an older ripplerec)"),
        ("altered", "neighbor_table_sha256 does not match the neighbor table rebuilt"),
    ])
    def test_eval_checks_the_neighbor_table_checksum(self, workdir, untrained_run, tmp_path, capsys, edit, expect):
        out = tmp_path / "run"
        shutil.copytree(untrained_run, out)
        manifest = out / "model.manifest.txt"
        lines = manifest.read_text(encoding="utf-8").splitlines(keepends=True)
        key = [i for i, line in enumerate(lines) if line.startswith("neighbor_table_sha256 = ")]
        assert len(key) == 1
        if edit == "missing":
            del lines[key[0]]
        else:
            lines[key[0]] = f"neighbor_table_sha256 = {'0' * 64}\n"
        manifest.write_text("".join(lines), encoding="utf-8")
        capsys.readouterr()
        rc = run_cli("eval", "--config", workdir / "cfg.txt", "--seed", 5, "--out", out)
        err = capsys.readouterr().err
        assert rc == EXIT_MALFORMED, err
        assert f"{manifest}: {expect}" in err, err
        assert "retrain the snapshot" in err
        assert not (out / "eval_test.csv").exists()

    def test_eval_scores_do_not_depend_on_the_eval_seed(self, workdir, untrained_run, tmp_path):
        # both tables come from the manifest's run seed, and scoring draws nothing
        rows = []
        for seed in (5, 6):
            out = tmp_path / f"seed{seed}"
            shutil.copytree(untrained_run, out)
            assert run_cli("eval", "--config", workdir / "cfg.txt", "--seed", seed, "--out", out) == 0
            rows.append((out / "eval_test.csv").read_text(encoding="utf-8").splitlines()[1].split(","))
        assert rows[0] == rows[1]
        assert rows[0][5] == "5"  # the seed column holds the run seed that drew both tables

    def test_user_without_train_positive_skipped_not_fatal(self, workdir, untrained_run, tmp_path, capsys):
        out = tmp_path / "run"
        shutil.copytree(untrained_run, out)
        train = out / "train.tsv"
        lines = train.read_text(encoding="utf-8").splitlines(keepends=True)
        kept = [line for line in lines if line.split("\t")[0] != "0" or line.split("\t")[2] != "1\n"]
        assert len(kept) < len(lines) and any(line.startswith("0\t") for line in kept)
        train.write_text("".join(kept), encoding="utf-8")
        _record_checksum(out, "train")
        capsys.readouterr()
        rc = run_cli("train", "--config", workdir / "cfg.txt", "--seed", 5, "--out", out, "--set", "epochs=1")
        err = capsys.readouterr().err
        assert rc == 0, err
        assert "Traceback" not in err
        assert "skipped_users = 1\n" in (out / "model.manifest.txt").read_text(encoding="utf-8")

    def test_divergence_exit_4(self, workdir, tmp_path, monkeypatch):
        import ripplerec.model as model_mod

        def explode(*args, **kwargs):
            raise FloatingPointError("synthetic blowup")

        monkeypatch.setattr(model_mod, "forward_backward", explode)
        rc = run_cli("train", "--config", workdir / "cfg.txt", "--seed", 5)
        assert rc == EXIT_DIVERGED

    def test_sweep_rows_aggregate_and_manifests(self, workdir):
        rc = run_cli("sweep", "--config", workdir / "cfg.txt", "--seed", 5,
                     "--set", "sweep_param=neighbor_size", "--set", "sweep_values=2,4",
                     "--set", "sweep_seeds=2", "--set", "epochs=1")
        assert rc == 0
        out = workdir / "run"
        with open(out / "sweep_results.csv", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["neighbor_size", "seed", "test_auc", "test_acc"]
        assert len(rows) == 1 + 4  # 2 values x 2 seeds
        with open(out / "sweep_aggregate.csv", encoding="utf-8") as fh:
            agg = list(csv.reader(fh))
        assert agg[0] == ["metric", "2", "4"]
        assert [r[0] for r in agg[1:]] == ["auc", "acc"]
        cells = os.listdir(out / "cells")
        assert sorted(cells) == [
            "neighbor_size=2_seed5.manifest.txt",
            "neighbor_size=2_seed6.manifest.txt",
            "neighbor_size=4_seed5.manifest.txt",
            "neighbor_size=4_seed6.manifest.txt",
        ]

    def test_sweep_without_axis_rejected(self, workdir):
        rc = run_cli("sweep", "--config", workdir / "cfg.txt")
        assert rc == EXIT_MALFORMED

    @pytest.mark.parametrize("key", ["seed", "threshold"])
    def test_sweep_param_outside_hyperparams_rejected(self, workdir, untrained_run, capsys, key):
        # cells fit on the data prepped once with the loop's seed, so these keys would change nothing
        capsys.readouterr()
        rc = run_cli("sweep", "--config", workdir / "cfg.txt", "--seed", 5, "--out", untrained_run,
                     "--set", f"sweep_param={key}", "--set", "sweep_values=4,8", "--set", "sweep_seeds=1",
                     "--set", "epochs=1")
        assert rc == EXIT_MALFORMED
        assert f"sweep_param naming a Hyperparams field, got {key!r}" in capsys.readouterr().err
        assert not (untrained_run / "sweep_results.csv").exists()

    def test_sweep_seeds_below_one_rejected(self, workdir, untrained_run, capsys):
        capsys.readouterr()
        rc = run_cli("sweep", "--config", workdir / "cfg.txt", "--seed", 5, "--out", untrained_run,
                     "--set", "sweep_param=neighbor_size", "--set", "sweep_values=2,4", "--set", "sweep_seeds=0")
        assert rc == EXIT_MALFORMED
        assert "sweep_seeds must be >= 1, got 0" in capsys.readouterr().err
        assert not (untrained_run / "sweep_results.csv").exists()

    def test_sweep_negative_seed_rejected(self, workdir, untrained_run, tmp_path, capsys):
        # not a sweep of failed cells: the seed is checked before any cell runs
        out = tmp_path / "run"
        shutil.copytree(untrained_run, out)
        capsys.readouterr()
        rc = run_cli("sweep", "--config", workdir / "cfg.txt", "--seed", -2, "--out", out,
                     "--set", "sweep_param=neighbor_size", "--set", "sweep_values=2,4", "--set", "sweep_seeds=1")
        assert rc == EXIT_MALFORMED
        assert "--seed: seed = '-2' must be >= 0" in capsys.readouterr().err
        assert not (out / "sweep_results.csv").exists()

    def test_sweep_failed_cell_recorded_as_na(self, workdir):
        # embed_dim=0 fails hyperparameter validation inside its cell only
        rc = run_cli("sweep", "--config", workdir / "cfg.txt", "--seed", 5,
                     "--set", "sweep_param=embed_dim", "--set", "sweep_values=0,4",
                     "--set", "sweep_seeds=1", "--set", "epochs=1")
        assert rc == 0
        with open(workdir / "run" / "sweep_results.csv", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))[1:]
        by_value = {r[0]: (r[2], r[3]) for r in rows}
        assert by_value["0"] == ("NA", "NA")
        assert by_value["4"] != ("NA", "NA")
        with open(workdir / "run" / "sweep_aggregate.csv", encoding="utf-8") as fh:
            agg = list(csv.reader(fh))
        assert agg[1][1] == "NA" and agg[1][2] != "NA"

    def test_movielens_operating_point_passes_through_manifest(self, workdir, tmp_path):
        out = tmp_path / "mlrun"
        assert run_cli("prep", "--config", workdir / "cfg.txt", "--seed", 5, "--out", out) == 0
        assert run_cli("train", "--config", workdir / "cfg.txt", "--seed", 5, "--out", out,
                       "--set", "embed_dim=8", "--set", "ripple_size=64",
                       "--set", "neighbor_size=8", "--set", "l2_weight=1e-7",
                       "--set", "lr=1e-2", "--set", "hops=2", "--set", "epochs=1") == 0
        manifest = (out / "model.manifest.txt").read_text(encoding="utf-8")
        for line in ("embed_dim = 8", "ripple_size = 64", "neighbor_size = 8",
                     "l2_weight = 1e-07", "lr = 0.01", "hops = 2"):
            assert line in manifest, line


# -- malformed inputs ---------------------------------------------------------------
# Each defect edits one input's bytes and returns them with the number of
# the line it broke (None when no single line is at fault).


def _no_separators(data, sep):
    lines = data.decode("utf-8").splitlines(keepends=True)
    lines[1] = lines[1].replace(sep, " ")
    return "".join(lines).encode("utf-8"), 2


def _cut_mid_line(data, sep):
    lines = data.decode("utf-8").splitlines(keepends=True)
    lines[-1] = lines[-1][:lines[-1].index(sep)]
    return "".join(lines).encode("utf-8"), len(lines)


def _not_utf8(data, sep):
    first, rest = data.split(b"\n", 1)
    return first + b"\n\xff" + rest, 2


def _empty(data, sep):
    return b"", None


def _not_integer(data, sep):
    first, rest = data.split(b"\n", 1)
    return first + b"\nx\t" + rest.split(b"\t", 1)[1], 2


def _set_field(col, value):
    """Defect that sets field ``col`` of line 2 to ``value``."""
    def defect(data, sep):
        lines = data.decode("utf-8").splitlines(keepends=True)
        parts = lines[1].rstrip("\n").split(sep)
        parts[col] = value
        lines[1] = sep.join(parts) + "\n"
        return "".join(lines).encode("utf-8"), 2
    return defect


def _other_digit(col):
    """Defect that changes the last digit of field ``col`` of line 2 (0 and 1 swap, a larger digit drops by one)."""
    def defect(data, sep):
        lines = data.decode("utf-8").splitlines(keepends=True)
        parts = lines[1].rstrip("\n").split(sep)
        last = int(parts[col][-1])
        parts[col] = parts[col][:-1] + str(1 - last if last < 2 else last - 1)
        lines[1] = sep.join(parts) + "\n"
        return "".join(lines).encode("utf-8"), 2
    return defect


def _only_key(key, value):
    """Defect that replaces a key = value file by the one line ``key = value``."""
    def defect(data, sep):
        return f"{key} = {value}\n".encode("utf-8"), None
    return defect


def _drop_key(key):
    """Defect that removes the ``key = value`` line of a key = value file."""
    def defect(data, sep):
        lines = data.decode("utf-8").splitlines(keepends=True)
        return "".join(line for line in lines if line.split(sep, 1)[0].strip() != key).encode("utf-8"), None
    return defect


def _fusion_era(data, sep):
    """Defect that makes a manifest as train wrote it while ``fusion`` was a key: no ``model_sha256`` yet."""
    lines = _drop_key("model_sha256")(data, sep)[0].decode("utf-8").splitlines(keepends=True)
    return "".join(line + "fusion = recursive\n" * line.startswith("user_table = ")
                   for line in lines).encode("utf-8"), None


def _cut_in_half(data, sep):
    return data[:len(data) // 2], None


def _flip_tensor_byte(data, sep):
    """Defect that flips one byte of a snapshot's ``entity_emb`` values, so its member fails its CRC-32."""
    with np.load(io.BytesIO(data), allow_pickle=False) as arrays:
        values = arrays["entity_emb"].tobytes()
    at = data.index(values) + len(values) // 2
    return data[:at] + bytes([data[at] ^ 0xFF]) + data[at + 1:], None


def _delete_byte(at):
    """Defect that deletes byte ``at`` of a file."""
    def defect(data, sep):
        return data[:at] + data[at + 1:], None
    return defect


def _unknown_compression(data, sep):
    """Defect that flips the compression-method byte of a snapshot's first central-directory entry."""
    at = data.index(b"PK\x01\x02") + 10
    return data[:at] + bytes([data[at] ^ 0xFF]) + data[at + 1:], None


def _npy(data, sep):
    """Defect that replaces a snapshot by a lone ``.npy`` array, as ``np.save`` writes one."""
    out = io.BytesIO()
    np.save(out, np.zeros(3))
    return out.getvalue(), None


def _set_key(key, value):
    """Defect that sets the value of the ``key = value`` line of a key = value file."""
    def defect(data, sep):
        lines = data.decode("utf-8").splitlines(keepends=True)
        return "".join(f"{key} = {value}\n" if line.split(sep, 1)[0].strip() == key else line
                       for line in lines).encode("utf-8"), None
    return defect


DEFECTS = {"wrong_arity": _no_separators, "truncated": _cut_mid_line, "not_utf8": _not_utf8,
           "empty": _empty, "not_integer": _not_integer,
           "user_999": _set_field(0, "999"), "user_-1": _set_field(0, "-1"),
           "item_999": _set_field(1, "999"), "item_-1": _set_field(1, "-1"),
           "label_2": _set_field(2, "2"), "entity_999": _set_field(1, "999"),
           "num_items_1OO": _set_field(1, " 1OO"),  # line 2 of prep_meta.txt is num_items
           "user_20_digits": _set_field(0, "9" * 20), "user_+5": _set_field(0, "+5"),
           "user_1_0": _set_field(0, "1_0"), "item_space_5": _set_field(1, " 5"),
           "item_arabic_3": _set_field(1, "\u0663"),
           "no_hops": _drop_key("hops"), "seed_x": _set_field(1, " x"),  # line 2 of a manifest is seed
           "seed_-1": _set_field(1, " -1"),
           "hops_two": _set_key("hops", "two"), "hops_0": _set_key("hops", "0"),
           "undirected_maybe": _set_key("undirected", "maybe"), "batch_size_0": _set_key("batch_size", "0"),
           "lr_nan": _only_key("lr", "nan"), "threshold_nan": _only_key("threshold", "nan"),
           "threshold_-inf": _only_key("threshold", "-inf"),
           "fusion_recursive_no_model_sha256": _fusion_era,
           "item_i0_again": _set_field(0, "i0"), "cut_in_half": _cut_in_half, "crc_flip": _flip_tensor_byte,
           "text": lambda data, sep: (b"not a snapshot\n", None), "npy": _npy,
           "byte_100_deleted": _delete_byte(100), "unknown_compression": _unknown_compression,
           "label_digit_changed": _other_digit(2), "item_digit_changed": _other_digit(1),
           "no_test_sha256": _drop_key("test_sha256"), "no_model_sha256": _drop_key("model_sha256"),
           "entity_vocab_sha256_zeroed": _set_key("entity_vocab_sha256", "0" * 64),
           "directory": lambda data, sep: (None, None)}
DATA_FILES = {"kg": "kg.tsv", "ratings": "ratings.tsv", "item_map": "item_map.tsv"}
# prep and train artifacts: (file, field separator, the command that reads it)
RUN_FILES = {"train": ("train.tsv", "\t", "train"), "prep_meta": ("prep_meta.txt", "=", "train"),
             "test": ("test.tsv", "\t", "eval"), "item_entities": ("item_entities.tsv", "\t", "eval"),
             "manifest": ("model.manifest.txt", "=", "eval"), "model": ("model.npz", None, "eval")}

# (input, defect, exit code, text stderr must hold); {path} is the edited
# file and {line} the line the defect broke
INPUT_DEFECTS = [
    (name, defect, EXIT_MALFORMED, "{path}:{line}:")
    for name in ("kg", "ratings", "item_map", "config", "train", "item_entities")
    for defect in ("wrong_arity", "truncated", "not_utf8")
] + [
    ("kg", "empty", EXIT_MALFORMED, "{path}: no triples"),
    ("ratings", "empty", EXIT_MALFORMED, "{path}: no rating rows"),
    ("item_map", "empty", EXIT_MALFORMED, "{path}: no item maps"),
    # line 1 maps i0 to e0; an item's entities must agree
    ("item_map", "item_i0_again", EXIT_MALFORMED, "{path}:{line}: item 'i0' maps to entity 'e1', but an earlier"),
    ("config", "empty", 0, ""),  # every key at its default, paths from --set
    ("train", "empty", EXIT_MALFORMED, "no train rows"),
    ("train", "not_integer", EXIT_MALFORMED, "{path}:{line}: non-integer"),
    ("prep_meta", "wrong_arity", EXIT_MALFORMED, "{path}:{line}: expected 'key = value'"),
    ("prep_meta", "truncated", EXIT_MALFORMED, "{path}:{line}: expected 'key = value'"),
    ("prep_meta", "not_utf8", EXIT_MALFORMED, "{path}:{line}:"),
    ("prep_meta", "empty", EXIT_MALFORMED, "{path}: missing key 'num_users'"),
    ("prep_meta", "num_items_1OO", EXIT_MALFORMED, "{path}: num_items = '1OO' is not an integer"),
    ("prep_meta", "undirected_maybe", EXIT_MALFORMED, "{path}: undirected = 'maybe' is not a boolean"),
    ("manifest", "wrong_arity", EXIT_MALFORMED, "{path}:{line}: expected 'key = value'"),
    # every hyperparameter and the seed must be recorded; none falls back to the config
    ("manifest", "empty", EXIT_MALFORMED, "{path}: missing key 'embed_dim'"),
    ("manifest", "no_hops", EXIT_MALFORMED, "{path}: missing key 'hops'"),
    ("manifest", "seed_x", EXIT_MALFORMED, "{path}: seed = 'x' is not an integer"),
    ("manifest", "seed_-1", EXIT_MALFORMED, "{path}: seed = '-1' must be >= 0"),
    # a hyperparameter value is read as a config value is, and its error names the manifest
    ("manifest", "hops_two", EXIT_MALFORMED, "{path}: hops = 'two' is not an integer"),
    ("manifest", "hops_0", EXIT_MALFORMED, "{path}: hops must be >= 1"),
    # a one-hop recursive snapshot has the tensor shapes of a shared one, but every manifest written while
    # fusion was a key lacks model_sha256, so the key check refuses it before its fusion could matter
    ("manifest", "fusion_recursive_no_model_sha256", EXIT_MALFORMED, "{path}: missing key 'model_sha256' (truncated"),
    ("set", "batch_size_0", EXIT_MALFORMED, "--set: batch_size must be >= 1"),
    ("set", "lr_nan", EXIT_MALFORMED, "--set: lr must be finite and > 0"),  # nan <= 0 is false
    # a rating is never < nan and never < -inf: either threshold would make every mapped rating a positive
    ("set", "threshold_nan", EXIT_MALFORMED, "--set: threshold must be a finite number, got nan"),
    ("set", "threshold_-inf", EXIT_MALFORMED, "--set: threshold must be a finite number, got -inf"),
    ("test", "user_999", EXIT_MALFORMED, "{path}:{line}: user 999 outside"),
    ("test", "user_-1", EXIT_MALFORMED, "{path}:{line}: user -1 outside"),
    ("test", "item_999", EXIT_MALFORMED, "{path}:{line}: item 999 outside"),
    ("test", "item_-1", EXIT_MALFORMED, "{path}:{line}: item -1 outside"),
    ("test", "label_2", EXIT_MALFORMED, "{path}:{line}: label 2 outside"),
    ("test", "user_20_digits", EXIT_MALFORMED, "{path}:{line}: user 99999999999999999999 outside [0, "),
    # forms int() accepts that prep never writes: only ASCII digits and a leading '-' parse
    ("test", "user_+5", EXIT_MALFORMED, "{path}:{line}: non-integer field"),
    ("test", "user_1_0", EXIT_MALFORMED, "{path}:{line}: non-integer field"),
    ("test", "item_space_5", EXIT_MALFORMED, "{path}:{line}: non-integer field"),
    ("test", "item_arabic_3", EXIT_MALFORMED, "{path}:{line}: non-integer field"),
    ("item_entities", "entity_999", EXIT_MALFORMED, "{path}:{line}: entity 999 outside"),
    ("item_entities", "not_integer", EXIT_MALFORMED, "{path}:{line}: non-integer"),
    ("item_entities", "empty", EXIT_MALFORMED, "{path}: expected one row per item"),
    # a damaged snapshot names itself, whichever reader of the archive fails
    ("model", "empty", EXIT_MALFORMED, "{path} is not a readable snapshot archive (EOFError"),
    ("model", "cut_in_half", EXIT_MALFORMED, "{path} is not a readable snapshot archive (BadZipFile"),
    ("model", "crc_flip", EXIT_MALFORMED, "{path} is not a readable snapshot archive (BadZipFile: Bad CRC-32"),
    ("model", "text", EXIT_MALFORMED, "{path} is not a readable snapshot archive (ValueError"),
    ("model", "npy", EXIT_MALFORMED, "{path} is not a readable snapshot archive (ValueError: a float64 array"),
    # zipfile seeks to an offset the shifted bytes give, or meets a compression method it lacks
    ("model", "byte_100_deleted", EXIT_MALFORMED, "{path} is not a readable snapshot archive (OSError"),
    ("model", "unknown_compression", EXIT_MALFORMED,
     "{path} is not a readable snapshot archive (NotImplementedError"),
    # a run file that parses but is not the one prep wrote: prep_meta.txt holds each one's sha256
    ("test", "label_digit_changed", EXIT_MALFORMED, "error: {path} does not match test_sha256 in "),
    ("train", "item_digit_changed", EXIT_MALFORMED, "error: {path} does not match train_sha256 in "),
    ("prep_meta", "no_test_sha256", EXIT_MALFORMED,
     "{path}: missing key 'test_sha256' (truncated, or written by an older ripplerec); re-run prep"),
    ("manifest", "no_model_sha256", EXIT_MALFORMED,
     "{path}: missing key 'model_sha256' (truncated, or written by an older ripplerec); retrain the snapshot"),
    # the vocabulary file and the one rebuilt from the KG agree: the recorded value is at fault
    ("prep_meta", "entity_vocab_sha256_zeroed", EXIT_MALFORMED,
     "error: {path}: entity_vocab_sha256 matches neither "),
    # a directory where an input file should be: open() refuses it before any reader sees a byte
    ("kg", "directory", EXIT_MISSING_FILE, "error: cannot open: [Errno 21] Is a directory: '{path}'"),
    ("test", "directory", EXIT_MISSING_FILE, "error: cannot open: [Errno 21] Is a directory: '{path}'"),
    ("model", "directory", EXIT_MISSING_FILE, "error: cannot open: [Errno 21] Is a directory: '{path}'"),
]


def _reader_of(name, workdir, untrained_run, tmp_path):
    """Copy of input ``name``, its field separator, and the CLI arguments that read it."""
    data = workdir / "data"
    if name in DATA_FILES:
        path = tmp_path / DATA_FILES[name]
        shutil.copy(data / DATA_FILES[name], path)
        return path, "\t", ["prep", "--config", workdir / "cfg.txt", "--out", tmp_path / "run",
                             "--set", f"{name}={path}"]
    if name == "set":  # the file holds one --set argument, passed on by the test
        path = tmp_path / "set.txt"
        path.write_text("batch_size = 64\n", encoding="utf-8")
        return path, "=", ["train", "--config", workdir / "cfg.txt", "--out", tmp_path / "run"]
    if name == "config":
        path = tmp_path / "cfg.txt"
        path.write_text("threshold = 4\nembed_dim = 4\nprecision = f64\n", encoding="utf-8")
        paths = [arg for key, file in DATA_FILES.items() for arg in ("--set", f"{key}={data / file}")]
        return path, "=", ["prep", "--config", path, "--out", tmp_path / "run"] + paths
    out = tmp_path / "run"
    shutil.copytree(untrained_run, out)
    file, sep, command = RUN_FILES[name]
    return out / file, sep, [command, "--config", workdir / "cfg.txt", "--out", out]


@pytest.mark.parametrize("name, defect, code, expect", INPUT_DEFECTS,
                         ids=[f"{case[0]}-{case[1]}" for case in INPUT_DEFECTS])
def test_malformed_input_exit_code_and_location(workdir, untrained_run, tmp_path, capsys,
                                                name, defect, code, expect):
    path, sep, argv = _reader_of(name, workdir, untrained_run, tmp_path)
    data, line = DEFECTS[defect](path.read_bytes(), sep)
    if data is None:  # the file becomes a directory
        path.unlink()
        path.mkdir()
    else:
        path.write_bytes(data)
    if name == "set":
        argv += ["--set", data.decode("utf-8").strip()]
    capsys.readouterr()
    rc = run_cli(*argv)
    err = capsys.readouterr().err
    assert rc == code, err
    assert expect.format(path=path, line=line) in err, err
    assert "Traceback" not in err
