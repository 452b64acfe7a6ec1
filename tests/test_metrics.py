import math
import tracemalloc

import numpy as np
import pytest

import ripplerec as rr
import ripplerec.model
from ripplerec.kg import RippleTable
from ripplerec.metrics import MetricReport, acc, auc, evaluate
from ripplerec.model import SCORE_ROWS, Hyperparams

from conftest import tables


def pairwise_auc(scores, labels):
    """Quadratic oracle: fraction of correctly ordered (pos, neg) pairs, ties half.

    Both counts are integers, so the sum is exact, as a pair-by-pair loop's is.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    pos = scores[labels == 1][:, None]
    neg = scores[labels == 0][None, :]
    total = float((pos > neg).sum()) + 0.5 * float((pos == neg).sum())
    return total / (pos.size * neg.size)


class TestAuc:
    def test_perfect_separation(self):
        assert auc([0.9, 0.8, 0.3, 0.2], [1, 1, 0, 0]) == 1.0

    def test_all_ties(self):
        assert auc([0.4, 0.4, 0.4, 0.4], [1, 0, 1, 0]) == 0.5

    def test_mixed_with_tie(self):
        # positives {0.7, 0.2} vs negatives {0.5, 0.2}: (1 + 1 + 0 + 0.5) / 4
        assert auc([0.7, 0.2, 0.5, 0.2], [1, 1, 0, 0]) == 0.625

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            auc([0.1, 0.2], [1, 1])
        with pytest.raises(ValueError):
            auc([0.1, 0.2], [0, 0])

    def test_equals_pairwise_oracle_exactly(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            n = int(rng.integers(5, 501))
            labels = rng.integers(0, 2, size=n)
            if labels.min() == labels.max():
                labels[0] = 1 - labels[0]
            # quantized scores inject plenty of ties
            scores = np.round(rng.uniform(0, 1, size=n), 2)
            infinite = scores.copy()
            infinite[rng.uniform(size=n) < 0.1] = np.inf
            infinite[rng.uniform(size=n) < 0.1] = -np.inf
            ties_only = rng.integers(0, 3, size=n)
            f32 = rng.uniform(0, 1, size=n).astype(np.float32)
            for case in (scores, infinite, ties_only, f32, np.round(f32, 2)):
                assert auc(case, labels) == pairwise_auc(case, labels)

    def test_nan_score_gives_nan(self):
        # a NaN has no place in the order, so no pair count is defined
        assert math.isnan(auc([0.9, np.nan, 0.3, 0.2], [1, 1, 0, 0]))
        assert math.isnan(auc(np.array([0.1, 0.7, np.nan], dtype=np.float32), [0, 1, 0]))

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(3)
        scores = rng.uniform(-2, 2, size=300)
        labels = rng.integers(0, 2, size=300)
        labels[0], labels[1] = 0, 1
        base = auc(scores, labels)
        assert auc(3.0 * scores + 7.0, labels) == pytest.approx(base, abs=1e-12)
        assert auc(scores ** 3, labels) == pytest.approx(base, abs=1e-12)

    def test_random_scores_near_half(self):
        rng = np.random.default_rng(0)
        n = 10_000
        labels = np.repeat([0, 1], n // 2)
        scores = rng.uniform(size=n)
        assert abs(auc(scores, labels) - 0.5) < 0.02


class TestAcc:
    def test_direct_arithmetic(self):
        # TP=2, TN=2, FP=1, FN=0 -> 4/5
        scores = [0.9, 0.8, 0.1, 0.2, 0.7]
        labels = [1, 1, 0, 0, 0]
        assert acc(scores, labels) == pytest.approx(0.8)

    def test_all_correct(self):
        assert acc([0.9, 0.1], [1, 0]) == 1.0

    def test_all_wrong(self):
        assert acc([0.4, 0.6], [1, 0]) == 0.0

    def test_threshold_is_inclusive(self):
        assert acc([0.5], [1]) == 1.0

    def test_label_flip_with_score_mirror_invariance(self):
        # mirroring scores about 0.5 and flipping labels preserves correctness
        # exactly, as long as no score sits on the threshold itself
        rng = np.random.default_rng(8)
        scores = rng.uniform(size=500)
        labels = rng.integers(0, 2, size=500)
        assert acc(1.0 - scores, 1 - labels) == acc(scores, labels)


class TestEvaluate:
    def test_oracle_scorer_gets_perfect_metrics(self, tiny_data, monkeypatch):
        kg, dataset = tiny_data
        hp = Hyperparams(user_table=True)

        def oracle(params, records, *args, **kwargs):
            return np.asarray(records)[:, 2].astype(float)

        monkeypatch.setattr(ripplerec.model, "score_batch", oracle)
        report = evaluate(None, dataset.test, *tables(kg, dataset, hp), hp, dataset.item_entities)
        assert report.auc == 1.0
        assert report.acc == 1.0

    def test_skips_users_without_ripple_sets(self, tiny_data, monkeypatch):
        kg, dataset = tiny_data
        hp = Hyperparams()

        def oracle(params, records, *args, **kwargs):
            return np.full(len(records), 0.5)

        monkeypatch.setattr(ripplerec.model, "score_batch", oracle)
        users = np.unique(dataset.test[:, 0])
        has = np.ones(dataset.num_users, dtype=bool)
        has[users[0]] = False
        table = RippleTable(np.zeros((hp.hops, dataset.num_users, 1, 3), dtype=np.int64), has)
        report = evaluate(None, dataset.test, rr.build_neighbor_table(kg, hp, 0), table, hp, dataset.item_entities)
        dropped = int((dataset.test[:, 0] == users[0]).sum())
        assert report.skipped == dropped
        assert report.n_examples == len(dataset.test) - dropped

    def test_scores_the_records_themselves_when_no_user_is_skipped(self, tiny_data, monkeypatch):
        kg, dataset = tiny_data
        hp = Hyperparams()
        scored = []

        def oracle(params, records, *args, **kwargs):
            scored.append(records)
            return np.asarray(records)[:, 2].astype(float)

        monkeypatch.setattr(ripplerec.model, "score_batch", oracle)
        records = dataset.test.copy()
        neighbors = rr.build_neighbor_table(kg, hp, 0)

        def known_except(*users):
            has = np.ones(dataset.num_users, dtype=bool)
            has[list(users)] = False
            return RippleTable(np.zeros((hp.hops, dataset.num_users, 1, 3), dtype=np.int64), has)

        report = evaluate(None, records, neighbors, known_except(), hp, dataset.item_entities)
        assert len(scored) == 1 and scored[0] is records
        assert (report.skipped, report.n_examples, report.auc) == (0, len(records), 1.0)
        # one user skipped: its rows are dropped from a copy
        report = evaluate(None, records, neighbors, known_except(records[0, 0]), hp, dataset.item_entities)
        assert scored[1] is not records and len(scored[1]) == len(records) - report.skipped > 0

    @pytest.mark.parametrize("user_table", [False, True], ids=["ripple", "user_table"])
    def test_out_of_range_users_skipped_and_counted(self, tiny_data, user_table):
        kg, dataset = tiny_data
        hp = Hyperparams(embed_dim=4, hops=1, ripple_size=4, neighbor_size=2, user_table=user_table,
                         precision="f64")
        params = rr.init_params(kg.num_entities, kg.num_relations, hp, seed=0, num_users=dataset.num_users)
        neighbors, ripple_sets = tables(kg, dataset, hp)
        base = evaluate(params, dataset.test, neighbors, ripple_sets, hp, dataset.item_entities)
        strays = np.array([(-1, 0, 1), (dataset.num_users, 1, 0)])
        report = evaluate(params, np.concatenate([dataset.test, strays]), neighbors, ripple_sets, hp,
                          dataset.item_entities)
        assert (report.skipped, report.n_examples) == (base.skipped + 2, base.n_examples)
        assert (report.auc, report.acc) == (base.auc, base.acc)

    def test_empty_split_rejected(self, tiny_data):
        kg, dataset = tiny_data
        hp = Hyperparams()
        with pytest.raises(ValueError):
            evaluate(None, np.empty((0, 3), dtype=int), *tables(kg, dataset, hp), hp, dataset.item_entities)

    def test_csv_row_format(self):
        report = MetricReport(split="test", auc=0.91234567, acc=0.85, n_examples=100, skipped=3, seed=9)
        assert report.to_csv_row() == "test,0.912346,0.850000,100,3,9"
        assert MetricReport.CSV_HEADER.split(",") == ["split", "auc", "acc", "n", "skipped", "seed"]

    def test_deterministic_given_seed_and_multi_batch_path(self, tiny_data, monkeypatch):
        # the tables of one run seed fix every score: scoring draws nothing, and slicing changes nothing
        kg, dataset = tiny_data
        hp = Hyperparams(embed_dim=4, hops=1, ripple_size=4, neighbor_size=2, precision="f64")
        params = rr.init_params(kg.num_entities, kg.num_relations, hp, seed=0)
        a = evaluate(params, dataset.test, *tables(kg, dataset, hp, 21), hp, dataset.item_entities)
        b = evaluate(params, dataset.test, *tables(kg, dataset, hp, 21), hp, dataset.item_entities)
        assert a == b and a.seed == 0
        monkeypatch.setattr(ripplerec.model, "SCORE_ROWS", 16)
        assert len(dataset.test) > 16
        assert evaluate(params, dataset.test, *tables(kg, dataset, hp, 21), hp, dataset.item_entities) == a

    def test_peak_memory_bounded_by_one_train_step(self, tiny_data):
        # Scoring peaks at 0.82x one SCORE_ROWS-row train step here, and a
        # forward over all 4 * SCORE_ROWS rows at once would peak at 3.0x.
        # Assembling per slice leaves one slice's bags and trees alive.
        kg, dataset = tiny_data
        hp = Hyperparams(embed_dim=16, hops=2, ripple_size=32, neighbor_size=8, conv_layers=2)
        params = rr.init_params(kg.num_entities, kg.num_relations, hp, seed=0)
        neighbors, ripple_sets = tables(kg, dataset, hp)
        records = np.resize(dataset.train, (4 * SCORE_ROWS, 3))
        bags = ripplerec.model.assemble_batch(records[:SCORE_ROWS], neighbors, ripple_sets, hp, dataset.item_entities)

        def peak(run):
            tracemalloc.start()
            try:
                run()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        # untraced first: the first step loads scipy's sparse kernel, which is no part of a step's own peak
        ripplerec.model.forward_backward(params, bags, hp)
        step = peak(lambda: ripplerec.model.forward_backward(params, bags, hp))
        scoring = peak(lambda: evaluate(params, records, neighbors, ripple_sets, hp, dataset.item_entities))
        assert scoring < 2.0 * step, f"evaluate peaked at {scoring / step:.2f}x one train step"
