"""Acceptance gate: one test per release criterion, each at its stated
tolerance and runtime budget.  Run with ``pytest tests/test_acceptance.py -s``
to see one PASS/FAIL line per criterion.

The optional full-scale reproduction check needs the real MovieLens-1M
inputs (ratings + KG + item map); point RIPPLEREC_ML1M_DIR at a directory
holding ratings.tsv, kg.tsv and item_map.tsv to enable it.  It is
excluded from the default run because the data cannot be redistributed
and the run takes hours.
"""

import contextlib
import csv
import dataclasses
import math
import os
import time

import numpy as np
import pytest

import ripplerec as rr
from ripplerec.core import sigmoid, softmax
from ripplerec.kg import build_ripple_table, sample_children
from ripplerec.metrics import auc
from ripplerec.model import Hyperparams, assemble_batch, batch_loss, fit, forward_backward, init_params

from conftest import tables, train_seeds
from gradcheck import finite_diff_check


@contextlib.contextmanager
def criterion(name, budget_s=None):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {name}: FAIL ({time.perf_counter() - start:.1f}s)")
        raise
    elapsed = time.perf_counter() - start
    print(f"ACCEPTANCE {name}: PASS ({elapsed:.1f}s)")
    if budget_s is not None:
        assert elapsed < budget_s, f"{name} exceeded its {budget_s}s budget: {elapsed:.1f}s"


def test_gradient_correctness(tiny_data):
    """Analytic gradients of every parameter group vs central differences."""
    with criterion("gradient-correctness", budget_s=60):
        kg, dataset = tiny_data
        hp = Hyperparams(embed_dim=8, hops=2, ripple_size=4, neighbor_size=2,
                         conv_layers=2, l2_weight=1e-4, precision="f64")
        bags = assemble_batch(dataset.train[:8], *tables(kg, dataset, hp), hp, dataset.item_entities)
        params = init_params(kg.num_entities, kg.num_relations, hp, seed=0)
        analytic = forward_backward(params, bags, hp)[1]
        groups = ["entity_emb", "relation_mat", "relation_vec", "fusion_w", "conv_w", "conv_b"]
        assert sorted(groups) == sorted(params.names())
        for name in groups:
            # probe one group at a time: the buffer is shared, so perturbing it
            # through the probe store perturbs the real forward pass
            probe = rr.ParamStore(dtype=params.dtype)
            probe.values = {name: params.values[name]}
            err = finite_diff_check(
                lambda _: batch_loss(params, bags, hp),
                probe, analytic={name: analytic[name]},
                max_coords=16, rng=np.random.default_rng(1),
            )
            assert err < 1e-4, f"{name}: max rel err {err:.2e}"


def test_auc_oracle_equivalence():
    """Rank-based AUC equals the quadratic pair count exactly, ties included."""
    with criterion("auc-oracle-equivalence", budget_s=10):
        rng = np.random.default_rng(2024)
        for _ in range(200):
            n = int(rng.integers(5, 501))
            labels = rng.integers(0, 2, size=n)
            if labels.min() == labels.max():
                labels[0] = 1 - labels[0]
            scores = np.round(rng.uniform(0, 1, size=n), 2)  # coarse grid -> many ties
            pos = scores[labels == 1]
            neg = scores[labels == 0]
            wins = (pos[:, None] > neg[None, :]).sum()
            ties = (pos[:, None] == neg[None, :]).sum()
            oracle = (wins + 0.5 * ties) / (len(pos) * len(neg))
            assert auc(scores, labels) == oracle


def test_overfit_capacity(tiny_data):
    """The model memorizes the tiny fixture: train AUC >= 0.99 within 200 epochs.

    The train split stands in as the validation split, so each epoch's
    ``val_auc`` scores the train rows ``fit`` trains on.
    """
    with criterion("overfit-capacity", budget_s=120):
        kg, dataset = tiny_data
        hp = Hyperparams(embed_dim=8, hops=2, ripple_size=16, neighbor_size=4,
                         conv_layers=1, l2_weight=1e-7, lr=1e-2, batch_size=128,
                         epochs=80, patience=0, precision="f64")
        result = fit(dataclasses.replace(dataset, validation=dataset.train), kg, hp, seed=0)
        best_train_auc = max(row["val_auc"] for row in result.history)
        reached = [row["epoch"] for row in result.history if row["val_auc"] >= 0.99]
        assert best_train_auc >= 0.99, f"best train AUC {best_train_auc:.4f}"
        assert reached and reached[0] <= 200


def test_synthetic_generalization(mid_data):
    """Planted preferences are recovered on held-out pairs; shuffled labels are not."""
    with criterion("synthetic-generalization", budget_s=300):
        kg, dataset = mid_data
        hp = Hyperparams(embed_dim=8, hops=2, ripple_size=16, neighbor_size=8,
                         conv_layers=1, l2_weight=1e-6, lr=1e-2, batch_size=256,
                         epochs=25, patience=5, precision="f64")
        result = fit(dataset, kg, hp, seed=0)
        assert result.test_report.auc >= 0.85, f"test AUC {result.test_report.auc:.4f}"

        scores = rr.score_batch(result.params, dataset.test, result.neighbor_table, result.ripple_table, hp,
                                dataset.item_entities)
        labels = dataset.test[:, 2].copy()
        np.random.default_rng(123).shuffle(labels)
        control = auc(scores, labels)
        assert abs(control - 0.5) <= 0.05, f"shuffled-label AUC {control:.4f}"


def test_ablation_ordering(mid_data):
    """Dual enhancement is never worse than either single side by > 0.01 (5 seeds)."""
    with criterion("ablation-ordering"):
        kg, dataset = mid_data

        def mean_auc(**kw):
            aucs = []
            for seed in range(5):
                hp = Hyperparams(embed_dim=8, hops=2, ripple_size=16, neighbor_size=8,
                                 l2_weight=1e-6, lr=1e-2, batch_size=256, epochs=25,
                                 patience=5, precision="f64", **kw)
                aucs.append(fit(dataset, kg, hp, seed=seed).test_report.auc)
            return float(np.mean(aucs))

        full = mean_auc(conv_layers=1)
        ripple_only = mean_auc(conv_layers=0)
        conv_only = mean_auc(conv_layers=1, user_table=True)
        assert ripple_only > 0.5 and conv_only > 0.5
        assert full >= ripple_only - 0.01, f"full {full:.4f} vs ripple-only {ripple_only:.4f}"
        assert full >= conv_only - 0.01, f"full {full:.4f} vs conv-only {conv_only:.4f}"


def test_dual_side_helps_most_when_sparse(mid_data):
    """With 20% of the train rows, the full model beats each single side (6 seeds).

    Seed s fits every variant on its own fixed 20% subsample of the train
    rows.  The margins were fixed before this test first ran, from 24
    calibration seeds (100-123) of the same design: the mean paired gain
    was 0.046 over ripple-only and 0.134 over conv-only, with per-seed
    standard deviations of 0.041 and 0.055, and the lowest mean of four
    6-seed groups was 0.023 and 0.103.  Every variant trains and is
    scored on the same rows: at 20% some users have no train positive
    left, so no ripple set, and the full and ripple-only fits drop their
    train rows and skip their validation and test rows; conv-only is fit,
    selects its best epoch and is scored on the rows the full model's
    table knows.
    """
    with criterion("dual-side-sparse"):
        kg, dataset = mid_data
        gains = {"ripple-only": [], "conv-only": []}
        for seed in range(6):
            keep = np.sort(np.random.default_rng([seed, 20]).permutation(len(dataset.train))[:len(dataset.train) // 5])
            sparse = dataclasses.replace(dataset, train=dataset.train[keep])

            def fitted(data, **kw):
                hp = Hyperparams(embed_dim=8, hops=2, ripple_size=16, neighbor_size=8,
                                 l2_weight=1e-6, lr=1e-2, batch_size=256, epochs=25,
                                 patience=5, precision="f64", **kw)
                return hp, fit(data, kg, hp, seed=seed)

            full = fitted(sparse, conv_layers=1)[1]
            known = full.ripple_table.known

            def kept(rows):
                return rows[known(rows[:, 0])]

            test = kept(sparse.test)
            hp, conv = fitted(dataclasses.replace(sparse, train=kept(sparse.train), validation=kept(sparse.validation)),
                              conv_layers=1, user_table=True)
            conv_only = rr.evaluate(conv.params, test, conv.neighbor_table, conv.ripple_table, hp,
                                    sparse.item_entities)
            assert full.test_report.n_examples == conv_only.n_examples == len(test)
            gains["ripple-only"].append(full.test_report.auc - fitted(sparse, conv_layers=0)[1].test_report.auc)
            gains["conv-only"].append(full.test_report.auc - conv_only.auc)
        for side, margin in (("ripple-only", 0.01), ("conv-only", 0.05)):
            gain = float(np.mean(gains[side]))
            assert gain >= margin, f"full beats {side} by {gain:.4f} at 20% train, below the margin {margin}"


def test_sampling_invariants(tiny_data):
    """Fixed bag sizes, head containment, and byte-exact seed determinism."""
    with criterion("sampling-invariants", budget_s=30):
        kg, dataset = tiny_data
        rng = np.random.default_rng(0)
        seeds = train_seeds(dataset)
        users = np.concatenate([np.full(len(entities), user) for user, entities in seeds.items()])

        def table(hops, n_p, rng):
            return build_ripple_table(kg, users, np.concatenate(list(seeds.values())), dataset.num_users,
                                      hops, n_p, rng)

        for trial in range(50):
            n_p = int(rng.integers(1, 40))
            hops = int(rng.integers(1, 4))
            ripple = table(hops, n_p, rng)
            assert ripple.bags.shape == (hops, dataset.num_users, n_p, 3)  # exactly n_p rows, always
            assert ripple.has.sum() == len(seeds)
            for user, entities in seeds.items():
                frontier = set(entities.tolist())
                for bag in ripple.bags[:, user]:
                    assert set(bag[:, 0].tolist()) <= frontier
                    frontier = set(bag[:, 2].tolist())

        for trial in range(50):
            entity = int(rng.integers(0, kg.num_entities))
            n_e = int(rng.integers(1, 20))
            rels, nbrs = sample_children(kg, [entity], n_e, rng)
            assert rels.shape == nbrs.shape == (1, n_e)

        for seed in (1, 7, 42):
            a = table(3, 16, np.random.default_rng(seed))
            b = table(3, 16, np.random.default_rng(seed))
            assert a.bags.tobytes() == b.bags.tobytes()
            ra, ea = sample_children(kg, [3], 9, np.random.default_rng(seed))
            rb, eb = sample_children(kg, [3], 9, np.random.default_rng(seed))
            assert ea.tobytes() == eb.tobytes()
            assert ra.tobytes() == rb.tobytes()


def test_softmax_sigmoid_numeric_suite():
    """Normalization to 1e-12, shift invariance to 1e-9, overflow safety at 1000."""
    with criterion("softmax-sigmoid-numeric"):
        rng = np.random.default_rng(99)
        for _ in range(500):
            scores = rng.normal(scale=10.0, size=rng.integers(1, 64))
            out = softmax(scores)
            assert abs(out.sum() - 1.0) < 1e-12
            assert np.all(out > 0)
            shift = rng.uniform(-100, 100)
            np.testing.assert_allclose(softmax(scores + shift), out, atol=1e-9)
        assert np.isfinite(softmax([1000.0, -1000.0, 0.0])).all()
        assert sigmoid(1000.0) == pytest.approx(1.0, abs=1e-12)
        assert sigmoid(-1000.0) == pytest.approx(0.0, abs=1e-12)
        x = rng.uniform(-1000, 1000, size=2000)
        np.testing.assert_allclose(sigmoid(x) + sigmoid(-x), 1.0, atol=1e-12)


def test_sweep_harness_structure(tmp_path, tiny_files):
    """4-value sweep emits the rows table plus a fully populated aggregate table."""
    with criterion("sweep-structure"):
        from ripplerec.cli import main

        out = tmp_path / "sweep_run"
        base = ["--config", "/dev/null", "--out", str(out),
                "--set", f"kg={tiny_files.kg}", "--set", f"ratings={tiny_files.ratings}",
                "--set", f"item_map={tiny_files.item_map}", "--set", "threshold=4",
                "--set", "embed_dim=4", "--set", "hops=2", "--set", "neighbor_size=4",
                "--set", "conv_layers=1", "--set", "batch_size=64", "--set", "epochs=2",
                "--set", "patience=0", "--set", "precision=f64"]
        assert main(["prep", "--seed", "5"] + base) == 0
        assert main(["sweep", "--seed", "5"] + base +
                    ["--set", "sweep_param=ripple_size",
                     "--set", "sweep_values=8,16,32,64", "--set", "sweep_seeds=5"]) == 0

        with open(out / "sweep_results.csv", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["ripple_size", "seed", "test_auc", "test_acc"]
        assert len(rows) == 1 + 4 * 5
        assert all(r[2] != "NA" and r[3] != "NA" for r in rows[1:])

        with open(out / "sweep_aggregate.csv", encoding="utf-8") as fh:
            agg = list(csv.reader(fh))
        assert agg[0] == ["metric", "8", "16", "32", "64"]
        assert [r[0] for r in agg[1:]] == ["auc", "acc"]
        for row in agg[1:]:
            assert len(row) == 5 and all(c != "NA" for c in row[1:])
            assert all(0.0 <= float(c) <= 1.0 for c in row[1:])


ML1M_DIR = os.environ.get("RIPPLEREC_ML1M_DIR", "")


@pytest.mark.skipif(not ML1M_DIR, reason="full-scale check needs RIPPLEREC_ML1M_DIR "
                    "(user-supplied MovieLens-1M ratings/kg/item map); nightly only")
def test_full_scale_reproduction(tmp_path):
    """Best effort: reference operating point within +-0.03 on the real data."""
    with criterion("full-scale-reproduction"):
        kg = rr.load_kg(os.path.join(ML1M_DIR, "kg.tsv"))
        item_map = rr.load_item_map(os.path.join(ML1M_DIR, "item_map.tsv"), kg)
        binarized = rr.binarize(os.path.join(ML1M_DIR, "ratings.tsv"), 4.0, item_map)
        dataset = rr.build_dataset(binarized, seed=0)
        hp = Hyperparams(embed_dim=8, hops=2, ripple_size=64, neighbor_size=8,
                         conv_layers=1, l2_weight=1e-7, lr=1e-2, batch_size=1024,
                         epochs=20, patience=5, precision="f32")
        aucs, accs = [], []
        for seed in range(5):
            report = fit(dataset, kg, hp, seed=seed).test_report
            aucs.append(report.auc)
            accs.append(report.acc)
        assert abs(float(np.mean(aucs)) - 0.926) <= 0.03
        assert abs(float(np.mean(accs)) - 0.851) <= 0.03
