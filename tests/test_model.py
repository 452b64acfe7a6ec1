import math

import numpy as np
import pytest

import ripplerec as rr
import ripplerec.model
from ripplerec.core import ParamStore, finite_diff_check
from ripplerec.kg import NULL_RELATION, NeighborSample, RippleSet
from ripplerec.model import (
    BatchBags,
    Hyperparams,
    assemble_batch,
    batch_loss,
    fit,
    forward,
    forward_backward,
    hop_response,
    init_params,
    item_representation,
    neighbor_aggregate,
    predict_ctr,
    relation_score,
    user_representation,
)

from conftest import make_params, write_kg


def hp64(**kw):
    kw.setdefault("precision", "f64")
    return Hyperparams(**kw)


class TestHyperparams:
    @pytest.mark.parametrize("bad", [
        dict(embed_dim=0), dict(hops=0), dict(ripple_size=0), dict(neighbor_size=0),
        dict(conv_layers=-1), dict(l2_weight=-1.0), dict(lr=0.0),
        dict(fusion="nope"), dict(loss_variant="nope"), dict(precision="f16"),
        dict(optimizer="lbfgs"),
    ])
    def test_invalid_rejected(self, bad):
        with pytest.raises(ValueError):
            Hyperparams(**bad)

    def test_conv_layers_zero_allowed_for_ablation(self):
        assert Hyperparams(conv_layers=0).conv_layers == 0


class TestHopResponse:
    def test_singleton_identity(self):
        hp = hp64(embed_dim=2)
        params = make_params(hp, 3, 1,
                             entity_emb=[[1.0, 0.0], [4.0, -2.0], [0.0, 0.0]],
                             relation_mat=[np.eye(2)])
        attn, resp = hop_response(params, [(0, 0, 1)], [1.0, 0.0])
        np.testing.assert_allclose(attn, [1.0])
        np.testing.assert_allclose(resp, [4.0, -2.0])

    def test_two_triple_hand_oracle(self):
        # scores (1, 0) against v=(1,0): attention (e/(e+1), 1/(e+1))
        hp = hp64(embed_dim=2)
        params = make_params(hp, 4, 1,
                             entity_emb=[[1.0, 0.0], [1.0, 1.0], [0.0, 1.0], [3.0, 5.0]],
                             relation_mat=[np.eye(2)])
        attn, resp = hop_response(params, [(0, 0, 1), (2, 0, 3)], [1.0, 0.0])
        np.testing.assert_allclose(attn, [0.7310585786300049, 0.2689414213699951], rtol=1e-12)
        np.testing.assert_allclose(resp, [1.5378828427399902, 2.0757656854799804], rtol=1e-12)

    def test_attention_shift_invariance_at_identity_relation(self):
        # moving every head along v adds a constant to all scores
        rng = np.random.default_rng(0)
        hp = hp64(embed_dim=3)
        v = np.array([0.3, -1.0, 0.7])
        heads = rng.normal(size=(5, 3))
        tails = rng.normal(size=(5, 3))
        shifted = heads + 2.5 * v
        table = np.vstack([heads, tails])
        table_shifted = np.vstack([shifted, tails])
        bag = [(i, 0, 5 + i) for i in range(5)]
        p1 = make_params(hp, 10, 1, entity_emb=table, relation_mat=[np.eye(3)])
        p2 = make_params(hp, 10, 1, entity_emb=table_shifted, relation_mat=[np.eye(3)])
        a1, _ = hop_response(p1, bag, v)
        a2, _ = hop_response(p2, bag, v)
        np.testing.assert_allclose(a1, a2, atol=1e-9)
        assert a1.sum() == pytest.approx(1.0, abs=1e-12)


class TestUserRepresentation:
    def test_identity_fusion_single_triple(self):
        hp = hp64(embed_dim=2, hops=1)
        params = make_params(hp, 2, 1,
                             entity_emb=[[9.0, 9.0], [2.0, -1.0]],
                             relation_mat=[np.eye(2)],
                             fusion_w=[np.eye(2)])
        ripple = RippleSet(user=0, hops=[np.array([[0, 0, 1]])])
        v = np.array([0.5, 0.25])
        out = user_representation(params, ripple, v, hp)
        np.testing.assert_allclose(out, [2.5, -0.75])  # t + v

    def test_zero_fusion_annihilates(self):
        hp = hp64(embed_dim=2, hops=1)
        params = make_params(hp, 2, 1, fusion_w=[np.zeros((2, 2))])
        ripple = RippleSet(user=0, hops=[np.array([[0, 0, 1]])])
        out = user_representation(params, ripple, np.array([3.0, 4.0]), hp)
        np.testing.assert_allclose(out, 0.0)

    def test_two_hop_chain_closed_form(self):
        # chain bags are singletons, so attention is 1 and o = W (t1 + t2 + v)
        rng = np.random.default_rng(1)
        hp = hp64(embed_dim=3, hops=2)
        table = rng.normal(size=(3, 3))
        w = rng.normal(size=(3, 3))
        params = make_params(hp, 3, 1, entity_emb=table,
                             relation_mat=[np.eye(3)], fusion_w=[w])
        ripple = RippleSet(user=0, hops=[np.array([[0, 0, 1]]), np.array([[1, 0, 2]])])
        v = rng.normal(size=3)
        out = user_representation(params, ripple, v, hp)
        np.testing.assert_allclose(out, w @ (table[1] + table[2] + v), rtol=1e-12)


class TestRelationScore:
    def test_dot_product(self):
        hp = hp64(embed_dim=2)
        params = make_params(hp, 1, 1, relation_vec=[[3.0, 4.0]])
        assert relation_score(params, np.array([1.0, 2.0]), 0) == 11.0

    def test_zero_vector(self):
        hp = hp64(embed_dim=2)
        params = make_params(hp, 1, 1, relation_vec=[[0.0, 0.0]])
        assert relation_score(params, np.array([5.0, -2.0]), 0) == 0.0

    def test_orthogonal(self):
        hp = hp64(embed_dim=2)
        params = make_params(hp, 1, 1, relation_vec=[[0.0, 1.0]])
        assert relation_score(params, np.array([7.0, 0.0]), 0) == 0.0

    def test_null_relation_sentinel_fixed_zero(self):
        hp = hp64(embed_dim=2)
        params = make_params(hp, 1, 1, relation_vec=[[100.0, 100.0]])
        assert relation_score(params, np.array([1.0, 1.0]), NULL_RELATION) == 0.0


class TestNeighborAggregate:
    def test_padded_singleton_returns_embedding(self):
        hp = hp64(embed_dim=2)
        params = make_params(hp, 3, 1, entity_emb=[[0, 0], [6.0, -3.0], [0, 0]])
        sample = NeighborSample(center=0, relations=np.zeros(4, dtype=int), entities=np.full(4, 1))
        out = neighbor_aggregate(params, np.array([0.2, 0.9]), sample)
        np.testing.assert_allclose(out, [6.0, -3.0], rtol=1e-12)

    def test_equal_scores_average(self):
        hp = hp64(embed_dim=2)
        params = make_params(hp, 3, 1,
                             entity_emb=[[0, 0], [2.0, 0.0], [0.0, 4.0]],
                             relation_vec=[[0.0, 0.0]])
        sample = NeighborSample(center=0, relations=np.zeros(2, dtype=int), entities=np.array([1, 2]))
        out = neighbor_aggregate(params, np.array([1.0, 1.0]), sample)
        np.testing.assert_allclose(out, [1.0, 2.0])

    def test_log2_score_gap_gives_thirds(self):
        hp = hp64(embed_dim=1)
        params = make_params(hp, 3, 2,
                             entity_emb=[[0.0], [3.0], [9.0]],
                             relation_vec=[[math.log(2.0)], [0.0]])
        sample = NeighborSample(center=0, relations=np.array([0, 1]), entities=np.array([1, 2]))
        out = neighbor_aggregate(params, np.array([1.0]), sample)
        np.testing.assert_allclose(out, [(2 / 3) * 3.0 + (1 / 3) * 9.0], rtol=1e-12)


class TestItemRepresentation:
    def test_single_layer_identity_is_tanh_of_sum(self, tmp_path):
        kg = rr.load_kg(write_kg(tmp_path / "kg.tsv", [("a", "r", "b")]), undirected=False)
        hp = hp64(embed_dim=2, conv_layers=1, neighbor_size=3)
        v = np.array([0.3, -0.2])
        n = np.array([0.5, 0.9])
        params = make_params(hp, 2, 1,
                             entity_emb=np.vstack([v, n]),
                             conv_w=[np.eye(2)], conv_b=[np.zeros(2)])
        out = item_representation(params, kg.entity_vocab["a"], np.array([1.0, 1.0]),
                                  kg, hp, np.random.default_rng(0))
        np.testing.assert_allclose(out, np.tanh(v + n), rtol=1e-12)

    def test_zero_weights_zero_output(self, tmp_path):
        kg = rr.load_kg(write_kg(tmp_path / "kg.tsv", [("a", "r", "b")]), undirected=False)
        hp = hp64(embed_dim=2, conv_layers=1, neighbor_size=2)
        params = make_params(hp, 2, 1, conv_w=[np.zeros((2, 2))], conv_b=[np.zeros(2)])
        out = item_representation(params, 0, np.ones(2), kg, hp, np.random.default_rng(0))
        np.testing.assert_allclose(out, 0.0)

    def test_layers_zero_passes_raw_embedding(self, chain_kg):
        hp = hp64(embed_dim=8, conv_layers=0)
        params = init_params(chain_kg.num_entities, chain_kg.num_relations, hp, seed=0)
        out = item_representation(params, 1, np.ones(8), chain_kg, hp, np.random.default_rng(0))
        np.testing.assert_array_equal(out, params.values["entity_emb"][1])

    def test_two_layer_scalar_chain_matches_recursion_oracle(self, tmp_path):
        kg = rr.load_kg(write_kg(tmp_path / "kg.tsv", [("e0", "r0", "e1"), ("e1", "r1", "e2")]))
        hp = hp64(embed_dim=1, conv_layers=2, neighbor_size=2)
        emb = [0.1, 0.2, -0.3]
        rvec = [0.5, -0.4]
        w = [0.8, 1.2]
        b = [0.05, -0.02]
        u = 0.7
        params = make_params(hp, 3, 2,
                             entity_emb=[[x] for x in emb],
                             relation_vec=[[x] for x in rvec],
                             conv_w=[[[w[0]]], [[w[1]]]],
                             conv_b=[[b[0]], [b[1]]])
        center = kg.entity_vocab["e0"]
        ents, rels = ripplerec.model.sample_item_trees(kg, np.array([center]), 2, 2,
                                                       np.random.default_rng(5))

        # independent scalar recursion over the same sampled tree (pure python)
        def softmax_py(scores):
            m = max(scores)
            exp = [math.exp(s - m) for s in scores]
            z = sum(exp)
            return [x / z for x in exp]

        def rep(depth, pos):
            if depth == 2:
                return emb[ents[2][0][pos]]
            children = range(pos * 2, pos * 2 + 2)
            scores = []
            for c in children:
                r = rels[depth + 1][0][c]
                scores.append(0.0 if r == NULL_RELATION else u * rvec[r])
            weights = softmax_py(scores)
            agg = sum(wt * rep(depth + 1, c) for wt, c in zip(weights, children))
            pre = w[depth] * (emb[ents[depth][0][pos]] + agg) + b[depth]
            return math.tanh(pre) if depth == 0 else max(pre, 0.0)

        expected = rep(0, 0)
        bags = BatchBags(users=np.zeros(1, dtype=int), items=np.zeros(1, dtype=int),
                         labels=np.zeros(1, dtype=int), v_idx=np.array([center]),
                         hop_bags=[], tree_ents=ents, tree_rels=rels)
        trace = ripplerec.model.ForwardTrace(v=params.values["entity_emb"][[center]])
        trace.u_rep = np.array([[u]])
        out = ripplerec.model._item_forward(params, bags, hp, trace)
        assert out[0, 0] == pytest.approx(expected, rel=1e-12)


class TestPredictCtr:
    def test_orthogonal_is_half(self):
        assert predict_ctr(np.array([1.0, 0.0]), np.array([0.0, 5.0])) == 0.5

    def test_log3_is_three_quarters(self):
        assert predict_ctr(np.array([math.log(3.0)]), np.array([1.0])) == pytest.approx(0.75, abs=1e-12)

    def test_negation_flips(self):
        u = np.array([0.4, -1.2])
        i = np.array([0.9, 0.3])
        assert predict_ctr(-u, i) == pytest.approx(1.0 - predict_ctr(u, i), abs=1e-12)


def _mf_bags(labels):
    """Degenerate one-entity-per-item bags for closed-form loss checks."""
    n = len(labels)
    return BatchBags(
        users=np.zeros(n, dtype=int), items=np.arange(n), labels=np.asarray(labels),
        v_idx=np.arange(n) % 2,
        hop_bags=[], tree_ents=[(np.arange(n) % 2).reshape(-1, 1)], tree_rels=[None],
    )


class TestLoss:
    def test_single_positive_at_half_is_log2(self):
        hp = hp64(user_table=True, conv_layers=0, l2_weight=0.0)
        params = init_params(2, 1, hp, seed=0, num_users=1)
        params.values["user_emb"][...] = [[1.0, 0.0, 0, 0, 0, 0, 0, 0]]
        params.values["entity_emb"][...] = 0.0
        params.values["entity_emb"][0, 1] = 1.0  # orthogonal to the user row
        bags = _mf_bags([1])
        assert batch_loss(params, bags, hp) == pytest.approx(math.log(2.0), rel=1e-12)

    def test_perfect_predictions_leave_only_l2(self):
        hp = hp64(user_table=True, conv_layers=0, l2_weight=1.0)
        params = init_params(2, 1, hp, seed=0, num_users=1)
        params.values["user_emb"][...] = 0.0
        params.values["user_emb"][0, 0] = 30.0
        params.values["entity_emb"][...] = 0.0
        params.values["entity_emb"][0, 0] = 1.0  # logit +30 for item 0
        params.values["entity_emb"][1, 0] = -1.0  # logit -30 for item 1
        bags = _mf_bags([1, 0])
        loss = batch_loss(params, bags, hp)
        assert loss == pytest.approx(params.l2_penalty(), abs=1e-4)

    def test_l2_of_single_scalar_two_is_four(self):
        store = ParamStore()
        store.add("theta", np.array(2.0))
        assert store.l2_penalty() == 4.0

    def test_flipped_variant_subtracts_negative_terms(self):
        hp_std = hp64(user_table=True, conv_layers=0, l2_weight=0.0)
        hp_flip = hp64(user_table=True, conv_layers=0, l2_weight=0.0, loss_variant="flipped")
        params = init_params(2, 1, hp_std, seed=0, num_users=1)
        bags = _mf_bags([0])
        assert batch_loss(params, bags, hp_flip) == pytest.approx(-batch_loss(params, bags, hp_std), rel=1e-12)

    def test_empty_batch_rejected(self, tiny_data):
        kg, dataset = tiny_data
        with pytest.raises(ValueError, match="empty"):
            rr.assemble_batch(np.empty((0, 3), dtype=int), kg, {}, hp64(),
                              dataset.item_entities, np.random.default_rng(0))


def _tiny_batch(tiny_data, hp, n=12, seed=2):
    kg, dataset = tiny_data
    ripple_sets = {} if hp.user_table else rr.build_ripple_sets(dataset, kg, hp, seed=seed)
    rng = np.random.default_rng(seed)
    bags = assemble_batch(dataset.train[:n], kg, ripple_sets, hp, dataset.item_entities, rng)
    params = init_params(kg.num_entities, kg.num_relations, hp, seed=seed, num_users=dataset.num_users)
    return params, bags


class TestForwardBackward:
    def test_trace_invariants(self, tiny_data):
        hp = hp64(hops=2, ripple_size=8, neighbor_size=4, conv_layers=2)
        params, bags = _tiny_batch(tiny_data, hp)
        trace = forward(params, bags, hp)
        for attn in trace.hop_attn:
            np.testing.assert_allclose(attn.sum(-1), 1.0, atol=1e-6)
        for alpha in trace.tree_alpha:
            np.testing.assert_allclose(alpha.sum(-1), 1.0, atol=1e-6)
        assert np.all(trace.yhat > 0.0) and np.all(trace.yhat < 1.0)

    def test_duplicate_example_doubles_sum_gradient(self, tiny_data):
        # linearity of the sum-reduced gradient, with the sampled bags held fixed
        hp = hp64(hops=2, ripple_size=4, neighbor_size=2, conv_layers=1, l2_weight=0.0)
        kg, dataset = tiny_data
        ripple_sets = rr.build_ripple_sets(dataset, kg, hp, seed=0)
        params = init_params(kg.num_entities, kg.num_relations, hp, seed=0)
        rng = np.random.default_rng(3)
        single = assemble_batch(dataset.train[:1], kg, ripple_sets, hp, dataset.item_entities, rng)

        def tile(arr):
            return np.concatenate([arr, arr], axis=0)

        double = BatchBags(
            users=tile(single.users), items=tile(single.items), labels=tile(single.labels),
            v_idx=tile(single.v_idx),
            hop_bags=[tile(bag) for bag in single.hop_bags],
            tree_ents=[tile(e) for e in single.tree_ents],
            tree_rels=[None] + [tile(r) for r in single.tree_rels[1:]],
        )

        def grads_for(bags):
            params.zero_grads()
            forward_backward(params, bags, hp, mean=False)
            return {k: v.copy() for k, v in params.grads.items()}

        g1 = grads_for(single)
        g2 = grads_for(double)
        for name in g1:
            np.testing.assert_allclose(g2[name], 2.0 * g1[name], atol=1e-12)

    def test_untouched_rows_zero_gradient_without_l2(self, tiny_data):
        hp = hp64(hops=1, ripple_size=4, neighbor_size=2, conv_layers=1, l2_weight=0.0)
        params, bags = _tiny_batch(tiny_data, hp, n=4)
        params.zero_grads()
        forward_backward(params, bags, hp)
        touched = set(bags.v_idx.tolist())
        for bag in bags.hop_bags:
            touched |= set(bag[..., 0].reshape(-1).tolist())
            touched |= set(bag[..., 2].reshape(-1).tolist())
        for ents in bags.tree_ents:
            touched |= set(ents.reshape(-1).tolist())
        grad = params.grads["entity_emb"]
        untouched = sorted(set(range(grad.shape[0])) - touched)
        assert untouched, "fixture too small: every entity was touched"
        np.testing.assert_array_equal(grad[untouched], 0.0)
        assert np.any(grad[sorted(touched)] != 0.0)

    def test_bag_order_permutation_invariant(self, tiny_data):
        hp = hp64(hops=2, ripple_size=8, neighbor_size=4, conv_layers=1)
        params, bags = _tiny_batch(tiny_data, hp, n=6)
        base = forward(params, bags, hp).yhat
        rng = np.random.default_rng(0)
        for k, bag in enumerate(bags.hop_bags):
            perm = rng.permutation(bag.shape[1])
            bags.hop_bags[k] = bag[:, perm, :]
        permuted = forward(params, bags, hp).yhat
        np.testing.assert_allclose(permuted, base, atol=1e-9)

    def test_nonfinite_prediction_names_example(self, tiny_data):
        hp = hp64(hops=1, ripple_size=4, neighbor_size=2, conv_layers=1)
        params, bags = _tiny_batch(tiny_data, hp, n=4)
        params.values["entity_emb"][bags.v_idx[2]] = np.nan
        with pytest.raises(FloatingPointError, match="example"):
            forward_backward(params, bags, hp)

    @pytest.mark.parametrize("variant", [
        dict(),
        dict(fusion="recursive"),
        dict(user_table=True),
        dict(conv_layers=0),
        dict(loss_variant="flipped"),
        dict(l2_weight=1e-3),
    ])
    def test_gradients_match_finite_differences(self, tiny_data, variant):
        kw = dict(hops=2, ripple_size=4, neighbor_size=2, conv_layers=2, l2_weight=0.0)
        kw.update(variant)
        hp = hp64(**kw)
        params, bags = _tiny_batch(tiny_data, hp, n=6)
        params.zero_grads()
        forward_backward(params, bags, hp)
        err = finite_diff_check(lambda p: batch_loss(p, bags, hp), params,
                                max_coords=8, rng=np.random.default_rng(0))
        assert err < 1e-4, f"variant {variant}: max rel err {err}"

    def test_gradients_flow_with_zero_fusion_weight(self, tiny_data):
        hp = hp64(hops=1, ripple_size=4, neighbor_size=2, conv_layers=1, l2_weight=0.0)
        params, bags = _tiny_batch(tiny_data, hp, n=4)
        params.values["fusion_w"][...] = 0.0
        params.zero_grads()
        forward_backward(params, bags, hp)
        err = finite_diff_check(lambda p: batch_loss(p, bags, hp), params,
                                max_coords=8, rng=np.random.default_rng(1))
        assert err < 1e-4


class TestFit:
    def _hp(self, **kw):
        base = dict(embed_dim=4, hops=2, ripple_size=8, neighbor_size=4, conv_layers=1,
                    l2_weight=1e-6, lr=1e-2, batch_size=64, epochs=4, patience=0,
                    precision="f64")
        base.update(kw)
        return Hyperparams(**base)

    def test_same_seed_identical_epoch_logs(self, tiny_data):
        kg, dataset = tiny_data
        r1 = fit(dataset, kg, self._hp(), seed=3)
        r2 = fit(dataset, kg, self._hp(), seed=3)
        assert r1.history == r2.history
        for name in r1.params.values:
            np.testing.assert_array_equal(r1.params.values[name], r2.params.values[name])

    def test_zero_epochs_snapshot_of_initialization(self, tiny_data):
        kg, dataset = tiny_data
        result = fit(dataset, kg, self._hp(epochs=0), seed=0)
        assert result.history == []
        assert result.best_epoch == 0
        init = init_params(kg.num_entities, kg.num_relations, self._hp(epochs=0), seed=0,
                           num_users=dataset.num_users)
        np.testing.assert_array_equal(result.params.values["entity_emb"], init.values["entity_emb"])

    def test_early_stopping_respects_patience(self, tiny_data, monkeypatch):
        kg, dataset = tiny_data
        fake = iter([0.9, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5])

        def fake_eval(*args, **kwargs):
            from ripplerec.metrics import MetricReport
            return MetricReport(split="validation", auc=next(fake), acc=0.5, n_examples=1)

        monkeypatch.setattr(ripplerec.model.metrics, "evaluate", fake_eval)
        result = fit(dataset, kg, self._hp(epochs=20, patience=2), seed=0)
        assert len(result.history) == 3  # best at 1, stop after 2 stale epochs
        assert result.best_epoch == 1

    def test_divergence_aborts_with_last_good_snapshot(self, tiny_data, monkeypatch):
        kg, dataset = tiny_data
        calls = {"n": 0}
        real = ripplerec.model.forward_backward

        def explode(params, bags, hp, mean=True):
            calls["n"] += 1
            if calls["n"] > 3:
                raise FloatingPointError("synthetic blowup")
            return real(params, bags, hp, mean=mean)

        monkeypatch.setattr(ripplerec.model, "forward_backward", explode)
        result = fit(dataset, kg, self._hp(epochs=5), seed=0)
        assert result.diverged
        assert np.all(np.isfinite(result.params.values["entity_emb"]))

    def test_ablations_train_and_beat_chance(self, tiny_data):
        kg, dataset = tiny_data
        for kw in (dict(conv_layers=0), dict(user_table=True)):
            result = fit(dataset, kg, self._hp(epochs=10, **kw), seed=1)
            assert result.test_report.auc > 0.5, kw

    def test_float32_training_runs(self, tiny_data):
        kg, dataset = tiny_data
        result = fit(dataset, kg, self._hp(precision="f32", epochs=2), seed=0)
        assert result.params.values["entity_emb"].dtype == np.float32
        assert len(result.history) == 2

    def test_per_epoch_ripple_resampling_runs(self, tiny_data):
        kg, dataset = tiny_data
        result = fit(dataset, kg, self._hp(resample_ripple=True, epochs=3), seed=0)
        assert len(result.history) == 3

    def test_recursive_fusion_trains(self, tiny_data):
        kg, dataset = tiny_data
        result = fit(dataset, kg, self._hp(fusion="recursive", epochs=3), seed=0)
        assert np.isfinite(result.history[-1]["train_loss"])

    def test_sgd_optimizer_trains(self, tiny_data):
        kg, dataset = tiny_data
        result = fit(dataset, kg, self._hp(optimizer="sgd", lr=0.1, epochs=3), seed=0)
        losses = [row["train_loss"] for row in result.history]
        assert losses[-1] < losses[0]

    def test_dead_end_user_skipped_not_fatal(self, tmp_path, caplog):
        # directed graph: items 0-3 lie on m0..m3, which have outgoing triples;
        # items 4-5 lie on d0/d1, which only ever appear as tails
        rows = [(f"m{k}", "genre", f"g{k % 2}") for k in range(4)]
        rows += [("g0", "sim", "g1"), ("g1", "sim", "g0"), ("g0", "has", "d0"), ("g1", "has", "d1")]
        kg = rr.load_kg(write_kg(tmp_path / "kg.tsv", rows), undirected=False)
        item_entities = np.array([kg.entity_vocab[e] for e in ("m0", "m1", "m2", "m3", "d0", "d1")])
        # user 0 sorts first: had its ripple build drawn anything, every
        # later user's bags would shift
        train = np.array([(0, 4, 1), (0, 0, 0), (0, 5, 1), (0, 1, 0),
                          (1, 0, 1), (1, 4, 0), (1, 1, 1), (1, 5, 0),
                          (2, 2, 1), (2, 0, 0), (2, 3, 1), (2, 1, 0)])
        held_out = np.array([(0, 4, 1), (0, 2, 0), (1, 2, 1), (1, 3, 0), (2, 1, 1), (2, 5, 0)])
        dataset = rr.InteractionDataset(
            num_users=3, num_items=6, train=train, validation=held_out, test=held_out,
            user_history={0: np.array([4, 5]), 1: np.array([0, 1]), 2: np.array([2, 3])},
            item_entities=item_entities,
        )
        hp = self._hp(ripple_size=4, neighbor_size=2, batch_size=4, epochs=2)

        with caplog.at_level("WARNING"):
            ripple_sets = rr.build_ripple_sets(dataset, kg, hp, seed=0)
        assert sorted(ripple_sets) == [1, 2]
        assert "1 users skipped" in caplog.text
        rng = np.random.default_rng([0, 17])
        for user in (1, 2):
            expected = rr.build_ripple_set(kg, item_entities[dataset.user_history[user]], hp.hops,
                                           hp.ripple_size, rng, user=user)
            for got, want in zip(ripple_sets[user].hops, expected.hops):
                assert got.tobytes() == want.tobytes()

        caplog.clear()
        with caplog.at_level("WARNING"):
            result = fit(dataset, kg, hp, seed=0)
        assert result.skipped_users == 1
        assert "dropped 4 train rows of 1 users" in caplog.text
        assert len(result.history) == 2
        assert result.test_report.skipped == 2
        assert result.test_report.n_examples == 4
