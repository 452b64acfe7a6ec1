import dataclasses
import gc
import importlib.machinery
import math
import os
import subprocess
import sys
import tracemalloc
import weakref

import numpy as np
import pytest
from scipy import sparse
from scipy.sparse import _sparsetools

import ripplerec as rr
import ripplerec.model
from ripplerec.cli import _table_sha256
from ripplerec.core import ParamStore
from ripplerec.kg import NULL_RELATION
from ripplerec.metrics import evaluate
from ripplerec.synthetic import SyntheticSpec, generate
from ripplerec.model import (
    SCORE_ROWS,
    BatchBags,
    Hyperparams,
    assemble_batch,
    batch_loss,
    fit,
    forward,
    forward_backward,
    init_params,
    score_batch,
)

from conftest import adjacency, make_params, one_example, reference_ripple_bags, tables, train_seeds, write_kg
from gradcheck import finite_diff_check


def hp64(**kw):
    kw.setdefault("precision", "f64")
    return Hyperparams(**kw)


class TestHyperparams:
    @pytest.mark.parametrize("bad", [
        dict(embed_dim=0), dict(hops=0), dict(ripple_size=0), dict(neighbor_size=0),
        dict(conv_layers=-1), dict(l2_weight=-1.0), dict(lr=0.0),
        dict(batch_size=0), dict(precision="f16"), dict(batch_size=-5), dict(epochs=-1), dict(patience=-1),
        dict(lr=math.nan), dict(lr=math.inf), dict(l2_weight=math.nan), dict(l2_weight=math.inf),
        dict(lr=0.5, l2_weight=2.0), dict(lr=1e-2, l2_weight=1e3),  # the per-step decay 1 - lr * l2_weight <= 0
    ])
    def test_invalid_rejected(self, bad):
        with pytest.raises(ValueError):
            Hyperparams(**bad)

    def test_conv_layers_zero_allowed_for_ablation(self):
        assert Hyperparams(conv_layers=0).conv_layers == 0


def _hop(params, bag, v_idx):
    """Attention weights and response of one hop bag against candidate ``v_idx``."""
    hp = hp64(embed_dim=params.values["entity_emb"].shape[1], hops=1, conv_layers=0)
    trace = forward(params, one_example(v_idx, hop_bags=[bag]), hp)
    return trace.hop_attn[0][0], trace.hop_resp[0][0]


class TestHopResponse:
    def test_singleton_identity(self):
        hp = hp64(embed_dim=2)
        params = make_params(hp, 3, 1,
                             entity_emb=[[1.0, 0.0], [4.0, -2.0], [0.0, 0.0]],
                             relation_mat=[np.eye(2)])
        attn, resp = _hop(params, [(0, 0, 1)], 0)  # v = entity 0 = (1, 0)
        np.testing.assert_allclose(attn, [1.0])
        np.testing.assert_allclose(resp, [4.0, -2.0])

    def test_two_triple_hand_oracle(self):
        # scores (1, 0) against v=(1,0): attention (e/(e+1), 1/(e+1))
        hp = hp64(embed_dim=2)
        params = make_params(hp, 4, 1,
                             entity_emb=[[1.0, 0.0], [1.0, 1.0], [0.0, 1.0], [3.0, 5.0]],
                             relation_mat=[np.eye(2)])
        attn, resp = _hop(params, [(0, 0, 1), (2, 0, 3)], 0)  # v = entity 0 = (1, 0)
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
        table = np.vstack([heads, tails, v])
        table_shifted = np.vstack([shifted, tails, v])
        bag = [(i, 0, 5 + i) for i in range(5)]
        p1 = make_params(hp, 11, 1, entity_emb=table, relation_mat=[np.eye(3)])
        p2 = make_params(hp, 11, 1, entity_emb=table_shifted, relation_mat=[np.eye(3)])
        a1, _ = _hop(p1, bag, 10)
        a2, _ = _hop(p2, bag, 10)
        np.testing.assert_allclose(a1, a2, atol=1e-9)
        assert a1.sum() == pytest.approx(1.0, abs=1e-12)


class TestUserRepresentation:
    def test_identity_fusion_single_triple(self):
        hp = hp64(embed_dim=2, hops=1, conv_layers=0)
        params = make_params(hp, 3, 1,
                             entity_emb=[[9.0, 9.0], [2.0, -1.0], [0.5, 0.25]],
                             relation_mat=[np.eye(2)],
                             fusion_w=[np.eye(2)])
        out = forward(params, one_example(2, hop_bags=[[(0, 0, 1)]]), hp).u_rep[0]
        np.testing.assert_allclose(out, [2.5, -0.75])  # t + v

    def test_zero_fusion_annihilates(self):
        hp = hp64(embed_dim=2, hops=1, conv_layers=0)
        params = make_params(hp, 3, 1, fusion_w=[np.zeros((2, 2))])
        params.values["entity_emb"][2] = [3.0, 4.0]
        out = forward(params, one_example(2, hop_bags=[[(0, 0, 1)]]), hp).u_rep[0]
        np.testing.assert_allclose(out, 0.0)

    def test_two_hop_chain_closed_form(self):
        # chain bags are singletons, so attention is 1 and o = W (t1 + t2 + v)
        rng = np.random.default_rng(1)
        hp = hp64(embed_dim=3, hops=2, conv_layers=0)
        table = rng.normal(size=(3, 3))
        w = rng.normal(size=(3, 3))
        v = rng.normal(size=3)
        params = make_params(hp, 4, 1, entity_emb=np.vstack([table, v]),
                             relation_mat=[np.eye(3)], fusion_w=[w])
        out = forward(params, one_example(3, hop_bags=[[(0, 0, 1)], [(1, 0, 2)]]), hp).u_rep[0]
        np.testing.assert_allclose(out, w @ (table[1] + table[2] + v), rtol=1e-12)


def _one_level(u, relation_vec, child_rels, child_ents, entity_emb):
    """Forward trace of candidate 0 over one tree level of the given children.

    The user representation is pinned to ``u`` through ``user_table``;
    ``relation_vec=None`` keeps the random initialization.
    """
    hp = hp64(embed_dim=len(u), user_table=True, conv_layers=1, neighbor_size=len(child_rels))
    overrides = dict(entity_emb=entity_emb, user_emb=[u])
    if relation_vec is not None:
        overrides["relation_vec"] = relation_vec
    params = make_params(hp, len(entity_emb), len(relation_vec or [0]), **overrides)
    tree = ([[[0]], [child_ents]], [None, [child_rels]])
    return forward(params, one_example(0, tree=tree), hp)


def _score_gap(u, relation_vec, rel_a, rel_b):
    """Taste score of ``rel_a`` minus that of ``rel_b``, from forward's tree attention.

    The score of relation r is u . relation_vec[r] (0 for the
    NULL_RELATION pad); two children's attention weights are in the ratio
    of the exponentials of their scores.
    """
    trace = _one_level(u, relation_vec, [rel_a, rel_b], [1, 2], np.zeros((3, len(u))))
    alpha = trace.tree_alpha[0][0, 0]
    return math.log(alpha[0] / alpha[1])


class TestRelationScore:
    # against the NULL_RELATION pad, whose score is 0, the gap is the score itself
    def test_dot_product(self):
        assert _score_gap([1.0, 2.0], [[3.0, 4.0]], 0, NULL_RELATION) == pytest.approx(11.0, rel=1e-12)

    def test_zero_vector(self):
        assert _score_gap([5.0, -2.0], [[0.0, 0.0]], 0, NULL_RELATION) == 0.0

    def test_orthogonal(self):
        assert _score_gap([7.0, 0.0], [[0.0, 1.0]], 0, NULL_RELATION) == 0.0

    def test_null_relation_sentinel_fixed_zero(self):
        # against relation 0 (score 200): were the pad read as a relation, it would score 200 too
        gap = _score_gap([1.0, 1.0], [[100.0, 100.0]], NULL_RELATION, 0)
        assert gap + 200.0 == pytest.approx(0.0, abs=1e-9)


def _children_aggregate(u, relation_vec, child_rels, child_ents, entity_emb):
    """Softmax-weighted sum of the children's embeddings, read from forward's trace.

    The centre (entity 0) has a zero embedding, so the pre-affine tree
    input ``own + aggregate`` is the aggregate alone.
    """
    assert not np.any(entity_emb[0])
    return _one_level(u, relation_vec, child_rels, child_ents, entity_emb).tree_in[0][0, 0]


class TestNeighborAggregate:
    def test_padded_singleton_returns_embedding(self):
        out = _children_aggregate([0.2, 0.9], None, [0, 0, 0, 0], [1, 1, 1, 1],
                                  np.array([[0, 0], [6.0, -3.0], [0, 0]]))
        np.testing.assert_allclose(out, [6.0, -3.0], rtol=1e-12)

    def test_equal_scores_average(self):
        out = _children_aggregate([1.0, 1.0], [[0.0, 0.0]], [0, 0], [1, 2],
                                  np.array([[0, 0], [2.0, 0.0], [0.0, 4.0]]))
        np.testing.assert_allclose(out, [1.0, 2.0])

    def test_log2_score_gap_gives_thirds(self):
        out = _children_aggregate([1.0], [[math.log(2.0)], [0.0]], [0, 1], [1, 2],
                                  np.array([[0.0], [3.0], [9.0]]))
        np.testing.assert_allclose(out, [(2 / 3) * 3.0 + (1 / 3) * 9.0], rtol=1e-12)


def _item_rep(params, kg, center, hp):
    """Item representation of ``center`` over its tree in ``kg``'s neighbor table, user pinned by ``user_emb``."""
    tree = ripplerec.model.sample_item_trees(rr.build_neighbor_table(kg, hp, 0), np.array([center]), hp.conv_layers)
    return forward(params, one_example(center, tree=tree), hp).i_rep[0]


class TestItemRepresentation:
    def test_single_layer_identity_is_tanh_of_sum(self, tmp_path):
        kg = rr.load_kg(write_kg(tmp_path / "kg.tsv", [("a", "r", "b")]), undirected=False)
        hp = hp64(embed_dim=2, conv_layers=1, neighbor_size=3, user_table=True)
        v = np.array([0.3, -0.2])
        n = np.array([0.5, 0.9])
        params = make_params(hp, 2, 1,
                             entity_emb=np.vstack([v, n]), user_emb=[[1.0, 1.0]],
                             conv_w=[np.eye(2)], conv_b=[np.zeros(2)])
        out = _item_rep(params, kg, kg.entity_names.index("a"), hp)
        np.testing.assert_allclose(out, np.tanh(v + n), rtol=1e-12)

    def test_zero_weights_zero_output(self, tmp_path):
        kg = rr.load_kg(write_kg(tmp_path / "kg.tsv", [("a", "r", "b")]), undirected=False)
        hp = hp64(embed_dim=2, conv_layers=1, neighbor_size=2, user_table=True)
        params = make_params(hp, 2, 1, user_emb=[np.ones(2)],
                             conv_w=[np.zeros((2, 2))], conv_b=[np.zeros(2)])
        out = _item_rep(params, kg, 0, hp)
        np.testing.assert_allclose(out, 0.0)

    def test_layers_zero_passes_raw_embedding(self, chain_kg):
        hp = hp64(embed_dim=8, conv_layers=0, user_table=True)
        params = make_params(hp, chain_kg.num_entities, chain_kg.num_relations, user_emb=[np.ones(8)])
        out = _item_rep(params, chain_kg, 1, hp)
        np.testing.assert_array_equal(out, params.values["entity_emb"][1])

    def test_two_layer_scalar_chain_matches_recursion_oracle(self, tmp_path):
        kg = rr.load_kg(write_kg(tmp_path / "kg.tsv", [("e0", "r0", "e1"), ("e1", "r1", "e2")]))
        hp = hp64(embed_dim=1, conv_layers=2, neighbor_size=2, user_table=True)
        emb = [0.1, 0.2, -0.3]
        rvec = [0.5, -0.4]
        w = [0.8, 1.2]
        b = [0.05, -0.02]
        u = 0.7
        params = make_params(hp, 3, 2,
                             entity_emb=[[x] for x in emb],
                             relation_vec=[[x] for x in rvec],
                             conv_w=[[[w[0]]], [[w[1]]]],
                             conv_b=[[b[0]], [b[1]]],
                             user_emb=[[u]])
        center = kg.entity_names.index("e0")
        ents, rels = ripplerec.model.sample_item_trees(rr.build_neighbor_table(kg, hp, 5), np.array([center]), 2)

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
        out = forward(params, one_example(center, tree=(ents, rels)), hp).i_rep
        assert out[0, 0] == pytest.approx(expected, rel=1e-12)


def _ctr(u, i):
    """Predicted probability for user representation ``u`` and item representation ``i``."""
    hp = hp64(embed_dim=len(u), user_table=True, conv_layers=0)
    params = make_params(hp, 1, 1, entity_emb=[i], user_emb=[u])
    return forward(params, one_example(0), hp).yhat[0]


class TestPredictCtr:
    def test_orthogonal_is_half(self):
        assert _ctr(np.array([1.0, 0.0]), np.array([0.0, 5.0])) == 0.5

    def test_log3_is_three_quarters(self):
        assert _ctr(np.array([math.log(3.0)]), np.array([1.0])) == pytest.approx(0.75, abs=1e-12)

    def test_negation_flips(self):
        u = np.array([0.4, -1.2])
        i = np.array([0.9, 0.3])
        assert _ctr(-u, i) == pytest.approx(1.0 - _ctr(u, i), abs=1e-12)


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

    def test_perfect_predictions_near_zero_at_any_l2_weight(self):
        hp = hp64(user_table=True, conv_layers=0)
        params = init_params(2, 1, hp, seed=0, num_users=1)
        params.values["user_emb"][...] = 0.0
        params.values["user_emb"][0, 0] = 30.0
        params.values["entity_emb"][...] = 0.0
        params.values["entity_emb"][0, 0] = 1.0  # logit +30 for item 0
        params.values["entity_emb"][1, 0] = -1.0  # logit -30 for item 1
        bags = _mf_bags([1, 0])
        # weight decay acts in the optimizer step, so the loss is cross-entropy alone
        for l2_weight in (0.0, 1.0, 50.0):
            loss = batch_loss(params, bags, dataclasses.replace(hp, l2_weight=l2_weight))
            assert loss == pytest.approx(0.0, abs=1e-4), l2_weight

    def test_empty_batch_rejected(self, tiny_data):
        kg, dataset = tiny_data
        with pytest.raises(ValueError, match="empty"):
            rr.assemble_batch(np.empty((0, 3), dtype=int), *tables(kg, dataset, hp64()), hp64(), dataset.item_entities)

    def test_neighbor_table_of_another_width_rejected(self, tiny_data):
        kg, dataset = tiny_data
        neighbors, ripple_sets = tables(kg, dataset, hp64(neighbor_size=4))
        with pytest.raises(ValueError, match="4 edges per entity, neighbor_size is 8"):
            rr.assemble_batch(dataset.train[:4], neighbors, ripple_sets, hp64(neighbor_size=8), dataset.item_entities)


def _tiny_batch(tiny_data, hp, n=12, seed=2):
    kg, dataset = tiny_data
    bags = assemble_batch(dataset.train[:n], *tables(kg, dataset, hp, seed), hp, dataset.item_entities)
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

    def test_duplicate_example_leaves_mean_gradient_unchanged(self, tiny_data):
        # the loss is the batch mean: a batch of one example twice, with the sampled bags held fixed
        hp = hp64(hops=2, ripple_size=4, neighbor_size=2, conv_layers=1, l2_weight=0.0)
        kg, dataset = tiny_data
        params = init_params(kg.num_entities, kg.num_relations, hp, seed=0)
        single = assemble_batch(dataset.train[:1], *tables(kg, dataset, hp), hp, dataset.item_entities)

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
            return forward_backward(params, bags, hp)[1]

        g1 = grads_for(single)
        g2 = grads_for(double)
        for name in g1:
            np.testing.assert_allclose(g2[name], g1[name], atol=1e-12)

    @pytest.mark.parametrize("l2_weight", [0.0, 1e-7, 1e-3])
    def test_untouched_rows_zero_gradient(self, tiny_data, l2_weight):
        hp = hp64(hops=1, ripple_size=4, neighbor_size=2, conv_layers=1, l2_weight=l2_weight)
        params, bags = _tiny_batch(tiny_data, hp, n=4)
        grad = forward_backward(params, bags, hp)[1]["entity_emb"]
        touched = set(bags.v_idx.tolist())
        for bag in bags.hop_bags:
            touched |= set(bag[..., 0].reshape(-1).tolist())
            touched |= set(bag[..., 2].reshape(-1).tolist())
        for ents in bags.tree_ents:
            touched |= set(ents.reshape(-1).tolist())
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
        dict(hops=1),
        dict(user_table=True),
        dict(conv_layers=0),
        dict(l2_weight=1e-3),
    ])
    def test_gradients_match_finite_differences(self, tiny_data, variant):
        kw = dict(hops=2, ripple_size=4, neighbor_size=2, conv_layers=2, l2_weight=0.0)
        kw.update(variant)
        hp = hp64(**kw)
        params, bags = _tiny_batch(tiny_data, hp, n=6)
        analytic = forward_backward(params, bags, hp)[1]
        err = finite_diff_check(lambda p: batch_loss(p, bags, hp), params, analytic,
                                max_coords=8, rng=np.random.default_rng(0))
        assert err < 1e-4, f"variant {variant}: max rel err {err}"

    def test_gradients_flow_with_zero_fusion_weight(self, tiny_data):
        hp = hp64(hops=1, ripple_size=4, neighbor_size=2, conv_layers=1, l2_weight=0.0)
        params, bags = _tiny_batch(tiny_data, hp, n=4)
        params.values["fusion_w"][...] = 0.0
        analytic = forward_backward(params, bags, hp)[1]
        err = finite_diff_check(lambda p: batch_loss(p, bags, hp), params, analytic,
                                max_coords=8, rng=np.random.default_rng(1))
        assert err < 1e-4


# -- reference user side: per-row relation products grouped by relation ---------
# The hop algebra before it moved to one R_r^T v per (example, relation);
# the oracle tests swap these in for the model's user side.


def _ref_relation_groups(rel_idx):
    order = np.argsort(rel_idx, kind="stable")
    sorted_idx = rel_idx[order]
    cuts = np.flatnonzero(np.diff(sorted_idx)) + 1
    starts = np.concatenate(([0], cuts))
    ends = np.concatenate((cuts, [len(sorted_idx)]))
    return order, starts, ends, sorted_idx[starts]


def _ref_relation_matmul(rel_mat, rel_idx, vectors, transpose=False):
    flat_idx = rel_idx.reshape(-1)
    flat_vec = vectors.reshape(-1, vectors.shape[-1])
    order, starts, ends, rels = _ref_relation_groups(flat_idx)
    sorted_vec = flat_vec[order]
    out_sorted = np.empty_like(sorted_vec)
    for start, end, r in zip(starts, ends, rels):
        mat = rel_mat[r]
        out_sorted[start:end] = sorted_vec[start:end] @ (mat if transpose else mat.T)
    out = np.empty_like(flat_vec)
    out[order] = out_sorted
    return out.reshape(vectors.shape)


def _ref_scatter_rows(grad, idx, contrib):
    np.add.at(grad, idx.reshape(-1), contrib.reshape(-1, contrib.shape[-1]))


def _ref_hop_forward(params, bag, v, trace):
    ent = params.values["entity_emb"]
    heads, rels, tails = bag[..., 0], bag[..., 1], bag[..., 2]
    rh = _ref_relation_matmul(params.values["relation_mat"], rels, ent[heads])
    attn = ripplerec.model.softmax(np.einsum("bnd,bd->bn", rh, v))
    resp = np.einsum("bn,bnd->bd", attn, ent[tails])
    trace.hop_attn.append(attn)
    trace.ref_rh.append(rh)
    trace.hop_resp.append(resp)
    return resp


def _ref_hop_backward(params, bag, v, trace, k, g_resp, grads, g_v):
    ent = params.values["entity_emb"]
    rel_mat = params.values["relation_mat"]
    heads, rels, tails = bag[..., 0], bag[..., 1], bag[..., 2]
    attn = trace.hop_attn[k]
    rh = trace.ref_rh[k]
    h_vec = ent[heads]
    g_attn = np.einsum("bd,bnd->bn", g_resp, ent[tails])
    _ref_scatter_rows(grads["entity_emb"], tails, attn[..., None] * g_resp[:, None, :])
    g_scores = attn * (g_attn - np.sum(attn * g_attn, axis=-1, keepdims=True))
    g_v += np.einsum("bn,bnd->bd", g_scores, rh)
    rt_v = _ref_relation_matmul(rel_mat, rels, np.broadcast_to(v[:, None, :], h_vec.shape), transpose=True)
    _ref_scatter_rows(grads["entity_emb"], heads, g_scores[..., None] * rt_v)
    order, starts, ends, present = _ref_relation_groups(rels.reshape(-1))
    gs_sorted = g_scores.reshape(-1)[order]
    h_sorted = h_vec.reshape(-1, h_vec.shape[-1])[order]
    v_sorted = np.broadcast_to(v[:, None, :], h_vec.shape).reshape(-1, v.shape[-1])[order]
    for start, end, r in zip(starts, ends, present):
        grads["relation_mat"][r] += np.einsum(
            "m,mi,mj->ij", gs_sorted[start:end], v_sorted[start:end], h_sorted[start:end]
        )


def _ref_user_forward(params, bags, hp, trace):
    v = trace.v
    trace.ref_rh = []
    responses = [_ref_hop_forward(params, bags.hop_bags[k], v, trace) for k in range(hp.hops)]
    trace.fusion_in = np.sum(responses, axis=0) + v
    trace.u_rep = trace.fusion_in @ params.values["fusion_w"].T
    return trace.u_rep


def _ref_user_backward(params, bags, hp, trace, g_u, grads, g_v, ent_rows):
    grads["fusion_w"] += np.einsum("bi,bj->ij", g_u, trace.fusion_in)
    g_fused = g_u @ params.values["fusion_w"]
    g_v += g_fused
    for k in range(hp.hops):
        _ref_hop_backward(params, bags.hop_bags[k], trace.v, trace, k, g_fused, grads, g_v)


# -- reference backward: materialized gradient rows ----------------------------
# The backward before it moved to weighted rows of small sources: every
# term is built as a (rows, d) array of gradient rows and scattered with a
# one-hot CSC product, the entity terms concatenated into one scatter.  The
# bit-exactness tests swap it in for the model's backward.


def _rows_scatter(grad, idx, contrib):
    flat_idx = idx.reshape(-1)
    flat = contrib.reshape(-1, contrib.shape[-1])
    n = len(flat_idx)
    onehot = sparse.csc_matrix((np.ones(n, dtype=flat.dtype), flat_idx, np.arange(n + 1)),
                               shape=(grad.shape[0], n))
    grad += onehot @ flat


def _rows_hop_backward(params, bag, trace, k, g_resp, s, ent_rows):
    ent = params.values["entity_emb"]
    heads, rels, tails = bag[..., 0], bag[..., 1], bag[..., 2]
    attn = trace.hop_attn[k]
    rt_v = trace.rt_v_all[np.arange(len(bag))[:, None], rels]
    g_attn = np.einsum("bd,bnd->bn", g_resp, ent[tails])
    ent_rows.append((tails, attn[..., None] * g_resp[:, None, :]))
    g_scores = attn * (g_attn - np.sum(attn * g_attn, axis=-1, keepdims=True))
    ent_rows.append((heads, g_scores[..., None] * rt_v))
    n_rel = params.values["relation_mat"].shape[0]
    _rows_scatter(s, np.arange(len(bag))[:, None] * n_rel + rels, g_scores[..., None] * ent[heads])


def _rows_user_backward(params, bags, hp, trace, g_u, grads, g_v, ent_rows):
    if hp.user_table:
        _rows_scatter(grads["user_emb"], bags.users, g_u)
        return
    grads["fusion_w"] += np.einsum("bi,bj->ij", g_u, trace.fusion_in)
    g_fused = g_u @ params.values["fusion_w"]
    g_v += g_fused
    rel_mat = params.values["relation_mat"]
    n_rel, d, _ = rel_mat.shape
    v = trace.v
    s = np.zeros((len(v) * n_rel, d), dtype=v.dtype)
    for k in range(hp.hops):
        _rows_hop_backward(params, bags.hop_bags[k], trace, k, g_fused, s, ent_rows)
    s = s.reshape(len(v), n_rel * d)
    g_v += s @ rel_mat.transpose(0, 2, 1).reshape(n_rel * d, d)
    grads["relation_mat"] += (v.T @ s).reshape(d, n_rel, d).transpose(1, 0, 2)


def _rows_item_backward(params, bags, hp, trace, g_i, grads, g_v, g_u, ent_rows):
    if hp.conv_layers == 0:
        g_v += g_i
        return
    rel_vec = params.values["relation_vec"]
    conv_w, conv_b = params.values["conv_w"], params.values["conv_b"]
    u = trace.u_rep
    n_e = hp.neighbor_size
    g_z = g_i[:, None, :]
    for level in range(hp.conv_layers):
        z_here = trace.tree_z[level]
        pre = trace.tree_in[level] @ conv_w[level].T + conv_b[level]
        g_pre = g_z * (1.0 - z_here * z_here) if level == 0 else g_z * (pre > 0.0)
        grads["conv_w"][level] += np.einsum("bni,bnj->ij", g_pre, trace.tree_in[level])
        grads["conv_b"][level] += g_pre.sum(axis=(0, 1))
        g_mixed = g_pre @ conv_w[level]
        ent_rows.append((bags.tree_ents[level], g_mixed))
        b, n = bags.tree_ents[level].shape
        child_rel = bags.tree_rels[level + 1].reshape(b, n, n_e)
        # the trace keeps levels 0..L-1; the leaves are gathered here
        child_z = (trace.tree_z[level + 1] if level + 1 < hp.conv_layers
                   else params.values["entity_emb"][bags.tree_ents[level + 1]]).reshape(b, n, n_e, -1)
        pad = child_rel == NULL_RELATION
        safe_rel = np.where(pad, 0, child_rel)
        alpha = trace.tree_alpha[level]
        g_child_z = alpha[..., None] * g_mixed[:, :, None, :]
        g_alpha = np.einsum("bnd,bncd->bnc", g_mixed, child_z)
        g_scores = alpha * (g_alpha - np.sum(alpha * g_alpha, axis=-1, keepdims=True))
        g_scores = np.where(pad, 0.0, g_scores)
        g_u += np.einsum("bnc,bncd->bd", g_scores, rel_vec[safe_rel])
        flat_rel = safe_rel.reshape(-1)
        flat_gs = g_scores.reshape(-1)
        keep = flat_gs != 0.0
        if np.any(keep):
            contrib = flat_gs[:, None] * np.broadcast_to(
                u[:, None, None, :], (b, n, n_e, u.shape[-1])
            ).reshape(-1, u.shape[-1])
            _rows_scatter(grads["relation_vec"], flat_rel[keep], contrib[keep])
        g_z = g_child_z.reshape(b, n * n_e, -1)
    ent_rows.append((bags.tree_ents[hp.conv_layers], g_z))


def _rows_backward(params, bags, hp, trace, g_logit):
    grads = {name: np.zeros_like(value) for name, value in params.values.items()}
    g_u = g_logit[:, None] * trace.i_rep
    g_i = g_logit[:, None] * trace.u_rep
    g_v = np.zeros_like(trace.v)
    ent_rows = []
    _rows_item_backward(params, bags, hp, trace, g_i, grads, g_v, g_u, ent_rows)
    _rows_user_backward(params, bags, hp, trace, g_u, grads, g_v, ent_rows)
    ent_rows.append((bags.v_idx, g_v))
    d = g_v.shape[-1]
    _rows_scatter(grads["entity_emb"],
                  np.concatenate([idx.reshape(-1) for idx, _ in ent_rows]),
                  np.concatenate([rows.reshape(-1, d) for _, rows in ent_rows]))
    return grads


# -- reference forward: einsum over gathered rows ------------------------------
# The hop response and the item side before taste scores moved to one
# u @ relation_vec^T per (example, relation) and the aggregations to
# matmul; the forward oracle swaps these in for the model's.


def _einsum_hop_forward(params, bag, rt_v_all, trace):
    ent = params.values["entity_emb"]
    heads, rels, tails = bag[..., 0], bag[..., 1], bag[..., 2]
    rt_v = rt_v_all[np.arange(len(bag))[:, None], rels]
    attn = ripplerec.model.softmax(np.einsum("bnd,bnd->bn", ent[heads], rt_v))
    resp = np.einsum("bn,bnd->bd", attn, ent[tails])
    trace.hop_attn.append(attn)
    trace.hop_resp.append(resp)
    return resp


def _einsum_item_forward(params, bags, hp, trace):
    ent = params.values["entity_emb"]
    if hp.conv_layers == 0:
        trace.i_rep = trace.v
        return trace.i_rep
    rel_vec = params.values["relation_vec"]
    conv_w, conv_b = params.values["conv_w"], params.values["conv_b"]
    n_e = hp.neighbor_size
    z = ent[bags.tree_ents[hp.conv_layers]]
    trace.tree_alpha = [None] * hp.conv_layers
    for level in range(hp.conv_layers - 1, -1, -1):
        b, n = bags.tree_ents[level].shape
        child_rel = bags.tree_rels[level + 1].reshape(b, n, n_e)
        pad = child_rel == NULL_RELATION
        scores = np.einsum("bd,bncd->bnc", trace.u_rep, rel_vec[np.where(pad, 0, child_rel)])
        alpha = ripplerec.model.softmax(np.where(pad, 0.0, scores))
        agg = np.einsum("bnc,bncd->bnd", alpha, z.reshape(b, n, n_e, -1))
        pre = (ent[bags.tree_ents[level]] + agg) @ conv_w[level].T + conv_b[level]
        z = np.tanh(pre) if level == 0 else np.maximum(pre, 0.0)
        trace.tree_alpha[level] = alpha
    trace.i_rep = z[:, 0, :]
    return trace.i_rep


# Summation order differs from the references; the tolerance is fixed per dtype.
ORACLE_TOL = {"f32": 1e-5, "f64": 1e-12}
ORACLE_VARIANTS = [dict(), dict(user_table=True), dict(conv_layers=0), dict(conv_layers=1)]
ORACLE_IDS = ["shared", "user_table", "conv0", "conv1"]


def _assert_oracle_close(got, want, precision, name):
    tol = ORACLE_TOL[precision]
    np.testing.assert_allclose(got, want, rtol=tol, atol=tol * np.abs(want).max(), err_msg=name)


def _oracle_batch(data, variant, precision):
    kg, dataset = data
    kw = dict(hops=3, ripple_size=16, neighbor_size=4, conv_layers=2, l2_weight=0.0, precision=precision)
    hp = Hyperparams(**{**kw, **variant})
    bags = assemble_batch(dataset.train[:64], *tables(kg, dataset, hp), hp, dataset.item_entities)
    params = init_params(kg.num_entities, kg.num_relations, hp, seed=0, num_users=dataset.num_users)
    return hp, params, bags


def _grads_against_rows_backward(params, bags, hp, monkeypatch):
    """Gradients of the model's backward and of ``_rows_backward`` on the same forward."""

    def run():
        return forward_backward(params, bags, hp)[1]

    got = run()
    calls = []
    monkeypatch.setattr(ripplerec.model, "_backward",
                        lambda *args: calls.append(1) or _rows_backward(*args))
    want = run()
    assert calls, "the reference backward did not run"
    return got, want


def _dead_end_data(tmp_path):
    """The directed graph and dataset of ``TestFit::test_dead_end_user_skipped_not_fatal``.

    d0 and d1 have no outgoing triple, so every tree through them is
    padded with ``NULL_RELATION`` edges; user 0 has no ripple set.
    """
    rows = [(f"m{k}", "genre", f"g{k % 2}") for k in range(4)]
    rows += [("g0", "sim", "g1"), ("g1", "sim", "g0"), ("g0", "has", "d0"), ("g1", "has", "d1")]
    kg = rr.load_kg(write_kg(tmp_path / "kg.tsv", rows), undirected=False)
    item_entities = np.array([kg.entity_names.index(e) for e in ("m0", "m1", "m2", "m3", "d0", "d1")])
    train = np.array([(0, 4, 1), (0, 0, 0), (0, 5, 1), (0, 1, 0),
                      (1, 0, 1), (1, 4, 0), (1, 1, 1), (1, 5, 0),
                      (2, 2, 1), (2, 0, 0), (2, 3, 1), (2, 1, 0)])
    dataset = rr.InteractionDataset(
        num_users=3, num_items=6, train=train, validation=train[:0], test=train[:0],
        item_entities=item_entities,
    )
    return kg, dataset


@pytest.fixture(scope="module")
def many_relation_data(tmp_path_factory):
    spec = SyntheticSpec(num_users=60, num_items=96, num_entities=192, clusters=16, seed=5)
    paths = generate(spec, str(tmp_path_factory.mktemp("rel16")))
    kg = rr.load_kg(paths.kg)
    item_map = rr.load_item_map(paths.item_map, kg)
    return kg, rr.build_dataset(rr.binarize(paths.ratings, 4.0, item_map), seed=5)


class TestFusedBackwardOracle:
    def test_gradients_match_per_relation_reference(self, many_relation_data, monkeypatch):
        kg, dataset = many_relation_data
        hp = hp64(hops=3, ripple_size=16, neighbor_size=4, conv_layers=2, l2_weight=0.0)
        # the neighbor table of seed 3: in seed 0's, every node with a relation-1 edge has only
        # relation-1 children, so relation 1's taste gradient is exactly 0 and both sides return
        # rounding noise of 1e-20, whose relative gap means nothing (see the check below)
        bags = assemble_batch(dataset.train[:64], rr.build_neighbor_table(kg, hp, 3),
                              rr.build_ripple_sets(dataset, kg, hp, 0), hp, dataset.item_entities)
        present = np.unique(np.concatenate([bag[..., 1].reshape(-1) for bag in bags.hop_bags]))
        assert len(present) >= 8, "fixture too small: too few relations in the hop bags"
        params = init_params(kg.num_entities, kg.num_relations, hp, seed=0)

        def run():
            loss, grads, trace = forward_backward(params, bags, hp)
            return loss, trace, grads

        loss, trace, got = run()
        monkeypatch.setattr(ripplerec.model, "_user_forward", _ref_user_forward)
        # the reference user side inside the materialized-rows backward, in place of its user half
        monkeypatch.setitem(globals(), "_rows_user_backward", _ref_user_backward)
        monkeypatch.setattr(ripplerec.model, "_backward", _rows_backward)
        ref_loss, ref_trace, want = run()
        assert len(ref_trace.ref_rh) == hp.hops  # the reference path ran
        assert loss == pytest.approx(ref_loss, rel=1e-12)
        np.testing.assert_allclose(trace.yhat, ref_trace.yhat, rtol=1e-12)
        taste_rows = np.abs(want["relation_vec"]).max(axis=1)
        assert np.all(taste_rows > 1e-12 * taste_rows.max()), "a relation's taste gradient is degenerate"
        for name in want:
            assert np.any(want[name] != 0.0), name
            np.testing.assert_allclose(got[name], want[name], rtol=1e-10, err_msg=name)

    @pytest.mark.parametrize("precision", ["f32", "f64"])
    @pytest.mark.parametrize("variant", ORACLE_VARIANTS, ids=ORACLE_IDS)
    def test_gradients_match_materialized_rows(self, many_relation_data, variant, precision, monkeypatch):
        hp, params, bags = _oracle_batch(many_relation_data, variant, precision)
        got, want = _grads_against_rows_backward(params, bags, hp, monkeypatch)
        assert np.any(want["entity_emb"] != 0.0)
        for name in want:
            assert got[name].dtype == hp.dtype, name
            _assert_oracle_close(got[name], want[name], precision, name)

    @pytest.mark.parametrize("precision", ["f32", "f64"])
    def test_gradients_match_materialized_rows_with_pad_edges(self, tmp_path, precision, monkeypatch):
        kg, dataset = _dead_end_data(tmp_path)
        hp = Hyperparams(hops=2, ripple_size=4, neighbor_size=2, conv_layers=2, l2_weight=0.0,
                         precision=precision)
        neighbors, ripple_sets = tables(kg, dataset, hp)
        train = dataset.train[ripple_sets.known(dataset.train[:, 0])]
        bags = assemble_batch(train, neighbors, ripple_sets, hp, dataset.item_entities)
        assert any(np.any(rels == NULL_RELATION) for rels in bags.tree_rels[1:])
        # a sampled pad fills all children of a dead end, whose g_scores then cancel
        # to 0; one pad beside real edges shows whether pads leak into G[b, 0]
        assert np.all(bags.tree_rels[1][0] != NULL_RELATION)
        bags.tree_rels[1][0, 0] = NULL_RELATION
        params = init_params(kg.num_entities, kg.num_relations, hp, seed=0)
        got, want = _grads_against_rows_backward(params, bags, hp, monkeypatch)
        for name in want:
            assert np.any(want[name] != 0.0), name
            _assert_oracle_close(got[name], want[name], precision, name)

    @pytest.mark.parametrize("precision", ["f32", "f64"])
    @pytest.mark.parametrize("variant", ORACLE_VARIANTS, ids=ORACLE_IDS)
    def test_forward_matches_einsum_reference(self, many_relation_data, variant, precision, monkeypatch):
        hp, params, bags = _oracle_batch(many_relation_data, variant, precision)
        got = forward(params, bags, hp)
        calls = []
        monkeypatch.setattr(ripplerec.model, "_hop_forward",
                            lambda *args: calls.append(1) or _einsum_hop_forward(*args))
        monkeypatch.setattr(ripplerec.model, "_item_forward",
                            lambda *args: calls.append(1) or _einsum_item_forward(*args))
        want = forward(params, bags, hp)
        assert calls, "the reference forward did not run"
        assert len(got.hop_attn) == len(want.hop_attn) and len(got.tree_alpha) == len(want.tree_alpha)
        pairs = [("yhat", got.yhat, want.yhat), ("i_rep", got.i_rep, want.i_rep)]
        pairs += [(f"hop_attn[{k}]", a, b) for k, (a, b) in enumerate(zip(got.hop_attn, want.hop_attn))]
        pairs += [(f"tree_alpha[{k}]", a, b) for k, (a, b) in enumerate(zip(got.tree_alpha, want.tree_alpha))]
        for name, a, b in pairs:
            assert a.dtype == hp.dtype, name
            _assert_oracle_close(a, b, precision, name)

    @pytest.mark.parametrize("variant", ORACLE_VARIANTS, ids=ORACLE_IDS)
    def test_trace_holds_only_float_arrays(self, many_relation_data, variant):
        # the backward rebuilds index arrays from the bags; the trace keeps the float state alone
        hp, params, bags = _oracle_batch(many_relation_data, variant, "f32")
        trace = forward(params, bags, hp)
        held = 0
        for f in dataclasses.fields(trace):
            value = getattr(trace, f.name)
            for k, arr in enumerate(value if isinstance(value, list) else [value]):
                if arr is not None:
                    assert isinstance(arr, np.ndarray) and arr.dtype == hp.dtype, f"{f.name}[{k}]"
                    held += 1
        assert held >= 5  # v, u_rep, i_rep, logit, yhat at least

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_scatter_rows_matches_add_at(self, dtype):
        rng = np.random.default_rng(0)
        rows = rng.integers(0, 40, size=(30, 7))  # 210 entries into 40 of 50 rows: duplicates and untouched rows
        cols = rng.integers(0, 12, size=(30, 7))  # each of 12 source rows read many times
        weights = rng.normal(size=(30, 7)).astype(dtype)
        src = rng.normal(size=(12, 5)).astype(dtype)
        got = np.zeros((50, 5), dtype=dtype)
        want = np.zeros((50, 5), dtype=dtype)
        for _ in range(2):  # added to what is there, as the hop loop adds each hop's sum
            got += ripplerec.model._sum_rows(len(got), rows, cols, weights, src)
            _ref_scatter_rows(want, rows, weights[..., None] * src[cols])
        assert got.dtype == dtype
        np.testing.assert_allclose(got, want, rtol=1e-5 if dtype == np.float32 else 1e-12)
        untouched = sorted(set(range(50)) - set(rows.reshape(-1).tolist()))
        assert len(untouched) >= 10
        np.testing.assert_array_equal(got[untouched], 0.0)

    @pytest.mark.parametrize("bad", ["R", NULL_RELATION])
    def test_out_of_range_hop_relation_raises(self, tiny_data, bad):
        hp = hp64(hops=1, ripple_size=4, neighbor_size=2, conv_layers=1)
        params, bags = _tiny_batch(tiny_data, hp, n=4)
        n_rel = params.values["relation_mat"].shape[0]
        # in example 0, at flat key b * R + r, relation R would read example 1's
        # relation 0 and relation -1 would wrap to relation R - 1
        bags.hop_bags[0][0, 0, 1] = n_rel if bad == "R" else bad
        with pytest.raises(IndexError, match="outside"):
            forward(params, bags, hp)

    @pytest.mark.parametrize("bad", ["R", -2])
    def test_out_of_range_tree_relation_raises(self, tiny_data, bad):
        hp = hp64(hops=1, ripple_size=4, neighbor_size=2, conv_layers=1)
        params, bags = _tiny_batch(tiny_data, hp, n=4)
        n_rel = params.values["relation_vec"].shape[0]
        # at flat key b * (R + 1) + r + 1, relation R would read example 1's pad column
        # and relation -2 would wrap to the last example's relation R - 1
        bags.tree_rels[1][0, 0] = n_rel if bad == "R" else bad
        with pytest.raises(IndexError, match="outside"):
            forward(params, bags, hp)


# -- reference item side: pads masked with np.where -----------------------------
# Before pads read a zero taste column, a tree edge's key was b * R + r with a pad
# read as relation 0, np.where set a pad's score to 0 and its score gradient to 0
# before the bincount, and softmax was the plain numpy expression.


def _numpy_softmax(scores):
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def _where_item_forward(params, bags, hp, trace):
    ent = params.values["entity_emb"]
    rel_vec = params.values["relation_vec"]
    conv_w, conv_b = params.values["conv_w"], params.values["conv_b"]
    depth, n_e, n_rel = hp.conv_layers, hp.neighbor_size, len(rel_vec)
    taste = ripplerec.model._rows_matmul(trace.u_rep, rel_vec.T).reshape(-1)
    z = [None] * (depth + 1)
    z[depth] = ent.take(bags.tree_ents[depth], axis=0)
    trace.tree_keys, trace.tree_alpha, trace.tree_in, trace.tree_pre = ([None] * depth for _ in range(4))
    for level in range(depth - 1, -1, -1):
        b, n = bags.tree_ents[level].shape
        child_rel = bags.tree_rels[level + 1].reshape(b, n * n_e)
        pad = child_rel == NULL_RELATION
        keys = np.arange(b)[:, None] * n_rel + np.where(pad, 0, child_rel)
        alpha = _numpy_softmax(np.where(pad, 0.0, taste.take(keys)).reshape(b, n, n_e))
        mixed = ent.take(bags.tree_ents[level], axis=0) + np.matmul(
            alpha[..., None, :], z[level + 1].reshape(b, n, n_e, -1))[..., 0, :]
        pre = mixed @ conv_w[level].T + conv_b[level]
        z[level] = np.tanh(pre) if level == 0 else np.maximum(pre, 0.0)
        trace.tree_keys[level], trace.tree_alpha[level] = keys, alpha
        trace.tree_in[level], trace.tree_pre[level] = mixed, pre
    trace.tree_z = z
    trace.i_rep = z[0][:, 0, :]
    return trace.i_rep


def _where_item_backward(params, bags, hp, trace, g_i, rows):
    # the item half of the model's per-row backward stage: the model's reduce sums what it leaves in rows
    rel_vec = params.values["relation_vec"]
    conv_w = params.values["conv_w"]
    u = trace.u_rep
    depth, n_e = hp.conv_layers, hp.neighbor_size
    g_score_levels = []
    g_z = g_i[:, None, :]
    for level in range(depth):
        z_here, pre = trace.tree_z[level], trace.tree_pre[level]
        g_pre = g_z * (1.0 - z_here * z_here) if level == 0 else g_z * (pre > 0.0)
        g_mixed = g_pre @ conv_w[level]
        rows.g_pre.append(g_pre)
        rows.g_mixed.append(g_mixed)
        b, n = bags.tree_ents[level].shape
        alpha = trace.tree_alpha[level]
        g_alpha = np.einsum("bnd,bncd->bnc", g_mixed, trace.tree_z[level + 1].reshape(b, n, n_e, -1))
        g_scores = alpha * (g_alpha - np.sum(alpha * g_alpha, axis=-1, keepdims=True))
        pad = bags.tree_rels[level + 1].reshape(g_scores.shape) == NULL_RELATION
        g_score_levels.append(np.where(pad, 0.0, g_scores))
        if level + 1 < depth:
            g_z = (alpha[..., None] * g_mixed[:, :, None, :]).reshape(b, n * n_e, -1)
    n_rel = len(rel_vec)
    rows.g_taste = np.bincount(np.concatenate([keys.reshape(-1) for keys in trace.tree_keys]),
                               weights=np.concatenate([g.reshape(-1) for g in g_score_levels]),
                               minlength=len(u) * n_rel).reshape(len(u), n_rel).astype(u.dtype)
    rows.g_u += rows.g_taste @ rel_vec


def _pad_heavy_batch(tmp_path, conv_layers, precision):
    """The train rows of the dead-end directed graph, at least 20% of their tree edges pads."""
    kg, dataset = _dead_end_data(tmp_path)
    hp = Hyperparams(hops=2, ripple_size=4, neighbor_size=4, conv_layers=conv_layers, l2_weight=0.0,
                     precision=precision)
    neighbors, ripple_sets = tables(kg, dataset, hp)
    train = dataset.train[ripple_sets.known(dataset.train[:, 0])]
    bags = assemble_batch(train, neighbors, ripple_sets, hp, dataset.item_entities)
    # the table pads only the edges of a dead end, so its pads fill whole child rows;
    # a pad in every second row of real edges puts pads beside real edges too
    for rels in bags.tree_rels[1:]:
        rows = rels.reshape(-1, hp.neighbor_size)
        full = (rows == NULL_RELATION).all(axis=1)
        assert full.any() and not full.all()
        rows[np.flatnonzero(~full)[::2], 0] = NULL_RELATION
    edges = np.concatenate([rels.reshape(-1) for rels in bags.tree_rels[1:]])
    assert np.mean(edges == NULL_RELATION) >= 0.2
    return hp, init_params(kg.num_entities, kg.num_relations, hp, seed=0), bags


class TestPadColumn:
    @pytest.mark.parametrize("precision", ["f32", "f64"])
    @pytest.mark.parametrize("conv_layers", [1, 2])
    def test_same_bytes_as_where_masked_pads(self, tmp_path, conv_layers, precision, monkeypatch):
        hp, params, bags = _pad_heavy_batch(tmp_path, conv_layers, precision)

        def run():
            yhat = forward(params, bags, hp).yhat
            return yhat, forward_backward(params, bags, hp)[1]

        got_yhat, got = run()
        calls = []
        monkeypatch.setattr(ripplerec.model, "_item_forward",
                            lambda *args: calls.append(1) or _where_item_forward(*args))
        monkeypatch.setattr(ripplerec.model, "_item_row_grads",
                            lambda *args: calls.append(1) or _where_item_backward(*args))
        want_yhat, want = run()
        assert len(calls) == 3, "the reference item side did not run"
        assert got_yhat.dtype == want_yhat.dtype and got_yhat.tobytes() == want_yhat.tobytes()
        for name in want:
            assert np.any(want[name] != 0.0), name
            assert got[name].dtype == want[name].dtype and got[name].tobytes() == want[name].tobytes(), name


class TestPrecisionAgreement:
    @pytest.mark.parametrize("variant", [
        dict(),
        dict(hops=1),
        dict(user_table=True),
        dict(conv_layers=0),
    ])
    def test_f32_forward_matches_f64(self, mid_data, variant):
        kg, dataset = mid_data
        yhat = {}
        for precision in ("f32", "f64"):
            kw = dict(hops=2, ripple_size=16, neighbor_size=4, conv_layers=2, precision=precision)
            hp = Hyperparams(**{**kw, **variant})
            bags = assemble_batch(dataset.train[:256], *tables(kg, dataset, hp, 4), hp, dataset.item_entities)
            params = init_params(kg.num_entities, kg.num_relations, hp, seed=4,
                                 num_users=dataset.num_users)
            yhat[precision] = forward(params, bags, hp).yhat
        assert yhat["f32"].dtype == np.float32 and yhat["f64"].dtype == np.float64
        assert np.max(np.abs(yhat["f32"].astype(np.float64) - yhat["f64"])) <= 1e-5

    # Undirected on purpose: on a directed synthetic graph all children of a node
    # share one relation, the true relation_vec gradient is ~1e-20 and its
    # relative gap means nothing.
    @pytest.mark.parametrize("variant", ORACLE_VARIANTS, ids=ORACLE_IDS)
    def test_f32_gradients_match_f64(self, many_relation_data, variant):
        grads = {}
        for precision in ("f32", "f64"):
            hp, params, bags = _oracle_batch(many_relation_data, variant, precision)
            grads[precision] = forward_backward(params, bags, hp)[1]
        for name, g64 in grads["f64"].items():
            g32 = grads["f32"][name]
            assert g32.dtype == np.float32 and g64.dtype == np.float64, name
            # a tensor the variant does not use has exactly zero gradient in both
            assert np.max(np.abs(g32.astype(np.float64) - g64)) <= 1e-4 * np.abs(g64).max(), name


SLICE_VARIANTS = [dict(conv_layers=0), dict(conv_layers=1), dict(conv_layers=2), dict(user_table=True)]
SLICE_IDS = ["conv0", "conv1", "conv2", "user_table"]


class TestScoreBatch:
    @pytest.mark.parametrize("n", [1, SCORE_ROWS, 2 * SCORE_ROWS + 3], ids=["one", "score_rows", "two_and_3"])
    @pytest.mark.parametrize("precision", ["f32", "f64"])
    @pytest.mark.parametrize("variant", SLICE_VARIANTS, ids=SLICE_IDS)
    def test_sliced_scores_equal_one_forward(self, tiny_data, variant, precision, n):
        kg, dataset = tiny_data
        kw = dict(hops=2, ripple_size=8, neighbor_size=4, conv_layers=2, precision=precision)
        hp = Hyperparams(**{**kw, **variant})
        neighbors, ripple_sets = tables(kg, dataset, hp, 6)
        params = init_params(kg.num_entities, kg.num_relations, hp, seed=6, num_users=dataset.num_users)
        records = np.resize(dataset.train, (n, 3))
        got = score_batch(params, records, neighbors, ripple_sets, hp, dataset.item_entities)
        bags = assemble_batch(records, neighbors, ripple_sets, hp, dataset.item_entities)
        want = forward(params, bags, hp).yhat
        assert got.dtype == want.dtype == hp.dtype
        assert got.shape == want.shape == (n,)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("precision", ["f32", "f64"])
    @pytest.mark.parametrize("variant", SLICE_VARIANTS, ids=SLICE_IDS)
    def test_same_bytes_for_any_score_rows(self, tiny_data, variant, precision, monkeypatch):
        """``score_batch`` and ``evaluate`` do not depend on how the rows are cut."""
        kg, dataset = tiny_data
        kw = dict(hops=2, ripple_size=8, neighbor_size=4, conv_layers=2, precision=precision)
        hp = Hyperparams(**{**kw, **variant})
        neighbors, ripple_sets = tables(kg, dataset, hp, 6)
        params = init_params(kg.num_entities, kg.num_relations, hp, seed=6, num_users=dataset.num_users)
        records = dataset.test[ripple_sets.known(dataset.test[:, 0])]
        assert len(records) > 7
        outputs = []
        for rows in (1, 7, 1024):
            monkeypatch.setattr(ripplerec.model, "SCORE_ROWS", rows)
            scores = score_batch(params, records, neighbors, ripple_sets, hp, dataset.item_entities)
            report = evaluate(params, dataset.test, neighbors, ripple_sets, hp, dataset.item_entities)
            outputs.append((scores.dtype, scores.tobytes(), report))
        assert outputs[0] == outputs[1] == outputs[2]

    @pytest.mark.parametrize("precision", ["f32", "f64"])
    @pytest.mark.parametrize("variant", SLICE_VARIANTS, ids=SLICE_IDS)
    def test_same_bytes_for_any_gather_rows(self, tiny_data, variant, precision, monkeypatch):
        """Scores and every gradient do not depend on the row blocks the gathers run in."""
        kg, dataset = tiny_data
        kw = dict(hops=2, ripple_size=8, neighbor_size=4, conv_layers=2, precision=precision)
        hp = Hyperparams(**{**kw, **variant})
        neighbors, ripple_sets = tables(kg, dataset, hp, 6)
        params = init_params(kg.num_entities, kg.num_relations, hp, seed=6, num_users=dataset.num_users)
        records = dataset.test[ripple_sets.known(dataset.test[:, 0])]
        assert len(records) > 7
        bags = assemble_batch(records, neighbors, ripple_sets, hp, dataset.item_entities)
        outputs = []
        for rows in (1, 7, len(records)):
            monkeypatch.setattr(ripplerec.model, "GATHER_ROWS", rows)
            scores = score_batch(params, records, neighbors, ripple_sets, hp, dataset.item_entities)
            grads = _grads(params, bags, hp)
            assert np.any(grads["entity_emb"] != 0.0)
            outputs.append((scores.dtype, scores.tobytes(),
                            {name: (g.dtype, g.tobytes()) for name, g in grads.items()}))
        assert outputs[0] == outputs[1] == outputs[2]


# -- reference entity scatter: every group stacked into one COO product --------
# Before each entry group was added straight into the gradient, scatter wrote
# every entry into one index array each, with its columns counted in one stack
# of every group's table, and ran one public COO product over that stack.


def _concatenating_scatter(groups, num_rows):
    srcs = [src.reshape(-1, src.shape[-1]) for *_, src in groups]
    lo = np.cumsum([0] + [len(src) for src in srcs])
    rows = np.concatenate([np.reshape(r, -1) for r, _, _, _ in groups])
    cols = np.concatenate([(np.broadcast_to(c, w.shape) + at).reshape(-1) for (_, c, w, _), at in zip(groups, lo)])
    weights = np.concatenate([w.reshape(-1) for _, _, w, _ in groups])
    coo = sparse.coo_array((weights, (rows, cols)), shape=(num_rows, lo[-1]))
    return coo @ np.concatenate(srcs)


def _record_add_rows(monkeypatch):
    """Wrap ``model._add_rows``; returns a list of (out, (rows, cols, weights, src)) per call, arrays held."""
    real, seen = ripplerec.model._add_rows, []

    def recording(out, *group):
        seen.append((out, group))
        return real(out, *group)

    monkeypatch.setattr(ripplerec.model, "_add_rows", recording)
    return seen


def _grads(params, bags, hp):
    return forward_backward(params, bags, hp)[1]


def _record_kernel(monkeypatch):
    """Wrap the scipy kernel ``_add_rows`` runs on; returns a list of (rows dtype, cols dtype, output rows, table rows) per call.

    ``coo_matmat_dense`` takes (nnz, d, rows, cols, weights, src, out) and
    the per-column fallback's ``coo_matvec`` (nnz, rows, cols, weights,
    src column, out column), so both end in the same five arrays.
    """
    name = "coo_matmat_dense" if hasattr(_sparsetools, "coo_matmat_dense") else "coo_matvec"
    real, seen = getattr(_sparsetools, name), []

    def recording(*args):
        rows, cols, _, src, out = args[-5:]
        seen.append((rows.dtype, cols.dtype, len(out), len(src)))
        return real(*args)

    monkeypatch.setattr(_sparsetools, name, recording)
    return seen


@pytest.fixture(params=["coo_matmat_dense", "per_column"])
def add_rows_kernel(request, monkeypatch):
    """Run ``_add_rows`` on scipy's ``coo_matmat_dense`` or on its per-column fallback; returns the kernel record."""
    if request.param == "per_column":
        monkeypatch.delattr(_sparsetools, "coo_matmat_dense", raising=False)
    elif not hasattr(_sparsetools, "coo_matmat_dense"):
        pytest.skip("this scipy has no coo_matmat_dense")
    return _record_kernel(monkeypatch)


def _entries(seed, dtype, index, src_rows=12):
    """210 entries into 40 of 50 rows (duplicates and untouched rows), each of ``src_rows`` read many times."""
    rng = np.random.default_rng(seed)
    rows = rng.integers(0, 40, size=(30, 7)).astype(index)
    cols = rng.integers(0, src_rows, size=(30, 7)).astype(index)
    return rows, cols, rng.normal(size=(30, 7)).astype(dtype), rng.normal(size=(src_rows, 5)).astype(dtype)


def _coo_product(num_rows, rows, cols, weights, src):
    return sparse.coo_array((weights.reshape(-1), (rows.reshape(-1), cols.reshape(-1))),
                            shape=(num_rows, len(src))) @ src


class TestAddRows:
    @pytest.mark.parametrize("index", [np.int32, np.int64])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_same_bytes_as_one_coo_product(self, add_rows_kernel, dtype, index, monkeypatch):
        rows, cols, weights, src = _entries(0, dtype, index)
        want = _coo_product(50, rows, cols, weights, src)
        if index == np.int64:  # every count at the limit: the kernel reads int64 indices
            monkeypatch.setattr(ripplerec.kg, "INDEX_LIMIT", 1)
        got = np.zeros((50, 5), dtype=dtype)
        ripplerec.model._add_rows(got, rows, cols, weights, src)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        assert add_rows_kernel and {dt for call in add_rows_kernel for dt in call[:2]} == {np.dtype(index)}
        assert len(np.unique(rows)) < rows.size
        untouched = sorted(set(range(50)) - set(rows.reshape(-1).tolist()))
        assert len(untouched) >= 10
        assert got[untouched].tobytes() == np.zeros((len(untouched), 5), dtype).tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_two_groups_give_the_bytes_of_their_concatenation(self, add_rows_kernel, dtype):
        first = _entries(1, dtype, np.int32)
        second = _entries(2, dtype, np.int32, src_rows=9)
        # one product over both groups, the second's columns counted after the first table
        want = _coo_product(50, np.concatenate([first[0], second[0]]),
                            np.concatenate([first[1], second[1] + len(first[3])]),
                            np.concatenate([first[2], second[2]]), np.concatenate([first[3], second[3]]))
        got = np.zeros((50, 5), dtype=dtype)
        for group in (first, second):
            ripplerec.model._add_rows(got, *group)
        assert got.tobytes() == want.tobytes()
        assert not np.array_equal(want, _coo_product(50, *first))

    @pytest.mark.parametrize("where", ["row", "column"])
    @pytest.mark.parametrize("bad", [-1, "len"])
    def test_entry_outside_raises_and_adds_nothing(self, where, bad):
        rows, cols, weights, src = _entries(0, np.float64, np.int32)
        idx = rows if where == "row" else cols
        idx[3, 2] = -1 if bad == -1 else (50 if where == "row" else len(src))
        out = np.zeros((50, 5))
        with pytest.raises(ValueError, match=f"{where} lies outside"):
            ripplerec.model._add_rows(out, rows, cols, weights, src)
        assert not np.any(out)

    def test_fewer_rows_than_weights_raise_and_add_nothing(self):
        # unchecked, the kernel would read past the row indices and write at whatever rows it found there
        rows, cols, weights, src = _entries(0, np.float64, np.int32)
        out = np.zeros((50, 5))
        with pytest.raises(ValueError, match="203 rows for 210 weights"):
            ripplerec.model._add_rows(out, rows[:-1], cols, weights, src)
        assert not np.any(out)

    @pytest.mark.parametrize("width", [6, 4])
    def test_src_of_another_width_raises_and_adds_nothing(self, add_rows_kernel, width):
        # unchecked, the kernel reads src as rows of out's width: a wider one sums the wrong
        # values, a narrower one reads past its buffer
        rows, cols, weights, _ = _entries(0, np.float64, np.int32)
        src = np.random.default_rng(1).normal(size=(12, width))
        out = np.zeros((50, 5))
        with pytest.raises(ValueError, match=f"src rows of width {width} for out rows of width 5"):
            ripplerec.model._add_rows(out, rows, cols, weights, src)
        assert not np.any(out) and not add_rows_kernel


# one forward_backward and adam_step on tiny data in a fresh interpreter, with scipy.sparse imported
# before the step or only after it; then _add_rows against the public COO product
_FRESH_STEP = """
import hashlib, sys, tempfile
import numpy as np
import ripplerec as rr
from ripplerec import model
from ripplerec.synthetic import generate, tiny_spec

if sys.argv[1] == "package_first":
    import scipy.sparse
paths = generate(tiny_spec(seed=1), tempfile.mkdtemp())
kg = rr.load_kg(paths.kg)
dataset = rr.build_dataset(rr.binarize(paths.ratings, 4.0, rr.load_item_map(paths.item_map, kg)), seed=3)
hp = rr.Hyperparams(embed_dim=4, hops=2, ripple_size=4, neighbor_size=2, conv_layers=2)
params = rr.init_params(kg.num_entities, kg.num_relations, hp, seed=0)
bags = rr.assemble_batch(dataset.train[:32], rr.build_neighbor_table(kg, hp, 0), rr.build_ripple_sets(dataset, kg, hp, 0),
                         hp, dataset.item_entities)
_, grads, _ = model.forward_backward(params, bags, hp)
params.adam_step(grads, hp.lr, hp.l2_weight)
print(sorted(name for name in ("scipy.sparse", model._KERNELS) if name in sys.modules))
print(hashlib.sha256(b"".join(g.tobytes() for g in grads.values())).hexdigest())
import scipy.sparse
rng = np.random.default_rng(0)
rows, cols = rng.integers(0, 40, 300), rng.integers(0, 12, 300)
weights, src = rng.normal(size=300).astype(np.float32), rng.normal(size=(12, 5)).astype(np.float32)
got = np.zeros((50, 5), np.float32)
model._add_rows(got, rows, cols, weights, src)
want = scipy.sparse.coo_array((weights, (rows, cols)), shape=(50, 12)) @ src
print(model._sparsetools() is scipy.sparse._sparsetools, got.tobytes() == want.tobytes())
"""


@pytest.fixture
def kernel_loader():
    """``model._load_sparsetools`` with its cache cleared before and after the test."""
    ripplerec.model._load_sparsetools.cache_clear()
    yield ripplerec.model._load_sparsetools
    ripplerec.model._load_sparsetools.cache_clear()


class TestKernelLoader:
    def test_package_module_once_scipy_sparse_is_imported(self):
        assert ripplerec.model._sparsetools() is _sparsetools is sys.modules[ripplerec.model._KERNELS]

    def test_imports_through_the_package_when_the_file_is_missing(self, kernel_loader, monkeypatch):
        looked_for = []
        monkeypatch.setattr(importlib.machinery.PathFinder, "find_spec",
                            classmethod(lambda cls, name, path=None, target=None: looked_for.append(name)))
        assert kernel_loader() is _sparsetools
        assert ripplerec.model._KERNELS in looked_for
        monkeypatch.undo()
        # with sys.modules not holding it, a step runs on the module the loader fell back to
        rows, cols, weights, src = _entries(0, np.float32, np.int32)
        want = _coo_product(50, rows, cols, weights, src)
        seen = _record_kernel(monkeypatch)
        monkeypatch.delitem(sys.modules, ripplerec.model._KERNELS)
        got = np.zeros((50, 5), np.float32)
        ripplerec.model._add_rows(got, rows, cols, weights, src)
        assert seen and got.tobytes() == want.tobytes()

    def test_fresh_step_loads_no_scipy_sparse_in_either_load_order(self):
        src = os.path.dirname(os.path.dirname(os.path.abspath(ripplerec.__file__)))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        out = {}
        for order in ("step_first", "package_first"):
            done = subprocess.run([sys.executable, "-c", _FRESH_STEP, order], env=env,
                                  capture_output=True, text=True, check=True)
            out[order] = done.stdout.split("\n")
        assert out["step_first"][0] == "[]", out["step_first"]
        assert out["package_first"][0] == str(["scipy.sparse", ripplerec.model._KERNELS])
        assert out["step_first"][1] == out["package_first"][1]  # the step's gradient bytes
        for order, lines in out.items():
            assert lines[2] == "True True", (order, lines)


class TestRowTermsScatter:
    """The entity gradient: each entry group added in turn gives the bytes of one product over all of them."""

    def _assert_same_bytes_as_concatenating(self, params, bags, hp, monkeypatch):
        calls = _record_add_rows(monkeypatch)
        got = _grads(params, bags, hp)["entity_emb"]
        groups = [group for out, group in calls if out is got]
        # each tree level's own rows and the leaves, each hop's tails and heads, the candidates
        assert len(groups) == hp.conv_layers + (hp.conv_layers > 0) + (0 if hp.user_table else 2 * hp.hops) + 1
        want = _concatenating_scatter(groups, len(got))
        assert np.any(want != 0.0)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("precision", ["f32", "f64"])
    @pytest.mark.parametrize("variant", SLICE_VARIANTS, ids=SLICE_IDS)
    def test_same_bytes_as_concatenating(self, many_relation_data, variant, precision, monkeypatch):
        hp, params, bags = _oracle_batch(many_relation_data, variant, precision)
        self._assert_same_bytes_as_concatenating(params, bags, hp, monkeypatch)

    @pytest.mark.parametrize("precision", ["f32", "f64"])
    @pytest.mark.parametrize("conv_layers", [1, 2])
    def test_same_bytes_as_concatenating_with_pad_edges(self, tmp_path, conv_layers, precision, monkeypatch):
        hp, params, bags = _pad_heavy_batch(tmp_path, conv_layers, precision)
        self._assert_same_bytes_as_concatenating(params, bags, hp, monkeypatch)

    @pytest.mark.parametrize("variant", SLICE_VARIANTS, ids=SLICE_IDS)
    def test_per_column_fallback_same_bytes(self, many_relation_data, variant, monkeypatch):
        hp, params, bags = _oracle_batch(many_relation_data, variant, "f32")
        want = _grads(params, bags, hp)
        monkeypatch.delattr(_sparsetools, "coo_matmat_dense", raising=False)
        seen = _record_kernel(monkeypatch)
        got = _grads(params, bags, hp)
        assert seen, "the per-column fallback did not run"
        for name in want:
            assert got[name].tobytes() == want[name].tobytes(), name

    # 4 examples: every table the step reads is smaller than the 192 entities; 64 examples: some are larger
    @pytest.mark.parametrize("n", [4, 64])
    def test_indices_int32_below_the_limit_int64_from_it(self, many_relation_data, n, monkeypatch):
        kg, dataset = many_relation_data
        hp = hp64(hops=3, ripple_size=16, neighbor_size=4, conv_layers=2, l2_weight=0.0)
        bags = assemble_batch(dataset.train[:n], *tables(kg, dataset, hp), hp, dataset.item_entities)
        params = init_params(kg.num_entities, kg.num_relations, hp, seed=0)
        seen = _record_kernel(monkeypatch)  # every sum of the step: taste levels, hop sums, the entity scatter's groups
        want = _grads(params, bags, hp)
        assert {dt for call in seen for dt in call[:2]} == {np.dtype(np.int32)}
        counts = sorted({max(num_rows, src_rows) for _, _, num_rows, src_rows in seen})
        assert (counts[-1] > kg.num_entities) == (n == 64)
        # each group's larger count reaching the limit switches that group's index arrays to int64
        for limit in counts + [counts[-1] + 1]:
            seen.clear()
            monkeypatch.setattr(ripplerec.kg, "INDEX_LIMIT", limit)
            got = _grads(params, bags, hp)
            for rows_dtype, cols_dtype, num_rows, src_rows in seen:
                index = np.dtype(np.int64 if max(num_rows, src_rows) >= limit else np.int32)
                assert rows_dtype == cols_dtype == index, (limit, num_rows, src_rows)
            for name in want:
                assert got[name].tobytes() == want[name].tobytes(), (limit, name)

    def test_scatter_allocates_the_gradient_and_one_groups_copies(self, many_relation_data, monkeypatch):
        # at each add into the entity gradient, what is live beyond the reduce's inputs (less the
        # per-row arrays it drops first) and the step's gradients is that group's own index and
        # weight arrays; while every group was held until one scatter at the end, each add had
        # 13-25 KiB more on this batch
        slack = 8 * 1024
        hp, params, bags = _oracle_batch(many_relation_data, {}, "f32")
        real_reduce, real_add = ripplerec.model._reduce, ripplerec.model._add_rows
        index = np.dtype(np.int32).itemsize
        live, seen = [], []  # seen: (out, peak during the add, the group's own arrays) per add in the reduce

        def traced_reduce(params, bags, hp, trace, rows):
            dropped = rows.s.nbytes + rows.g_taste.nbytes + sum(g.nbytes for g in rows.g_pre)
            live.append(tracemalloc.get_traced_memory()[0] - dropped)
            return real_reduce(params, bags, hp, trace, rows)

        def traced_add(out, rows, cols, weights, src):
            if not live:
                return real_add(out, rows, cols, weights, src)
            own = weights.size * 2 * index + np.asarray(cols).nbytes + weights.nbytes
            tracemalloc.reset_peak()
            real_add(out, rows, cols, weights, src)
            seen.append((weakref.ref(out), tracemalloc.get_traced_memory()[1], own))

        _grads(params, bags, hp)  # untraced first: the first step loads scipy's sparse kernel
        monkeypatch.setattr(ripplerec.model, "_reduce", traced_reduce)
        monkeypatch.setattr(ripplerec.model, "_add_rows", traced_add)
        tracemalloc.start()
        try:
            grads = _grads(params, bags, hp)
        finally:
            tracemalloc.stop()
        gradients = sum(g.nbytes for g in grads.values())
        assert len(seen) >= 8 and all(out() is grads["entity_emb"] for out, _, _ in seen)
        for k, (_, peak, own) in enumerate(seen):
            assert peak - live[0] <= gradients + own + slack, (k, peak - live[0], gradients, own)


# -- the backward's two stages: per row, then reduce -----------------------------
# The cut and join helpers act on any of the model's dataclasses of batch arrays
# (BatchBags, ForwardTrace, the per-row stage's _RowGrads), field by field.


def _cut(obj, rows):
    """A copy of ``obj`` whose arrays, also those in lists, keep only the slice ``rows``."""
    def cut(value):
        if isinstance(value, list):
            return [cut(v) for v in value]
        return None if value is None else value[rows]
    return type(obj)(**{f.name: cut(getattr(obj, f.name)) for f in dataclasses.fields(obj)})


def _join(parts):
    """One object of the type of ``parts`` whose arrays are theirs, concatenated in order."""
    def join(values):
        if isinstance(values[0], list):
            return [join(list(v)) for v in zip(*values)]
        return None if values[0] is None else np.concatenate(values)
    return type(parts[0])(**{f.name: join([getattr(p, f.name) for p in parts]) for f in dataclasses.fields(parts[0])})


def _backward_args(params, bags, hp, monkeypatch):
    """The gradients of ``forward_backward`` and the arguments its ``_backward`` ran on."""
    real, seen = ripplerec.model._backward, []
    monkeypatch.setattr(ripplerec.model, "_backward", lambda *args: seen.append(args) or real(*args))
    grads = _grads(params, bags, hp)
    (args,) = seen
    return grads, args


def _array_bytes(obj):
    """The dtype and bytes of every array of a dataclass, also those in lists, in field order."""
    out = []
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        for arr in value if isinstance(value, list) else [value]:
            out.append(None if arr is None else (arr.dtype, arr.shape, arr.tobytes()))
    return out


# the variants of TestForwardBackward::test_gradients_match_finite_differences
FD_VARIANTS = [dict(), dict(hops=1), dict(user_table=True), dict(conv_layers=0), dict(l2_weight=1e-3)]
FD_IDS = ["fd_shared", "fd_hops1", "fd_user_table", "fd_conv0", "fd_l2"]


class TestTwoStageBackward:
    def _assert_halves_give_same_bytes(self, params, bags, hp, monkeypatch):
        want, (_, _, _, trace, g_logit) = _backward_args(params, bags, hp, monkeypatch)
        n = bags.size
        for c in sorted({1, n // 2, n - 1}):
            halves = (slice(0, c), slice(c, n))
            rows = _join([ripplerec.model._row_grads(params, _cut(bags, h), hp, _cut(trace, h), g_logit[h])
                          for h in halves])
            grads = ripplerec.model._reduce(params, bags, hp, trace, rows)
            for name in want:
                got = grads[name]
                assert got.dtype == want[name].dtype and got.tobytes() == want[name].tobytes(), (c, name)

    @pytest.mark.parametrize("precision", ["f32", "f64"])
    @pytest.mark.parametrize("variant", ORACLE_VARIANTS, ids=ORACLE_IDS)
    def test_halves_joined_give_one_pass_bytes(self, many_relation_data, variant, precision, monkeypatch):
        hp, params, bags = _oracle_batch(many_relation_data, variant, precision)
        self._assert_halves_give_same_bytes(params, bags, hp, monkeypatch)

    @pytest.mark.parametrize("variant", FD_VARIANTS, ids=FD_IDS)
    def test_halves_joined_give_one_pass_bytes_on_finite_difference_batches(self, tiny_data, variant, monkeypatch):
        kw = dict(hops=2, ripple_size=4, neighbor_size=2, conv_layers=2, l2_weight=0.0)
        kw.update(variant)
        hp = hp64(**kw)
        params, bags = _tiny_batch(tiny_data, hp, n=6)
        self._assert_halves_give_same_bytes(params, bags, hp, monkeypatch)

    @pytest.mark.parametrize("precision", ["f32", "f64"])
    @pytest.mark.parametrize("variant", ORACLE_VARIANTS, ids=ORACLE_IDS)
    def test_row_stage_writes_no_shared_state(self, many_relation_data, variant, precision):
        hp, params, bags = _oracle_batch(many_relation_data, variant, precision)
        trace = forward(params, bags, hp)
        values = {name: v.tobytes() for name, v in params.values.items()}
        held = (_array_bytes(trace), _array_bytes(bags))
        rows = ripplerec.model._row_grads(params, bags, hp, trace, trace.yhat - bags.labels.astype(hp.dtype))
        assert np.any(rows.g_u != 0.0)
        assert {name: v.tobytes() for name, v in params.values.items()} == values
        assert (_array_bytes(trace), _array_bytes(bags)) == held

    def test_relation_keys_int32_below_the_limit_int64_from_it(self, many_relation_data, monkeypatch):
        hp, params, bags = _oracle_batch(many_relation_data, {}, "f64")
        assert all(bag.dtype == np.int32 for bag in bags.hop_bags)
        real_keys = ripplerec.model._relation_keys
        seen = []  # (example count * relation columns, key dtype) of every call

        def recording_keys(rels, n_rel, lo=0):
            keys = real_keys(rels, n_rel, lo)
            seen.append((len(rels) * (n_rel - lo), keys.dtype))
            return keys

        monkeypatch.setattr(ripplerec.model, "_relation_keys", recording_keys)
        want = _grads(params, bags, hp)
        counts = sorted({count for count, _ in seen})
        assert len(counts) == 2 and {dtype for _, dtype in seen} == {np.dtype(np.int32)}  # hop and tree keys
        for limit in (counts[0], counts[0] + 1, counts[1], counts[1] + 1):
            seen.clear()
            monkeypatch.setattr(ripplerec.kg, "INDEX_LIMIT", limit)
            got = _grads(params, bags, hp)
            assert {dtype for count, dtype in seen if count >= limit} <= {np.dtype(np.int64)}, limit
            assert {dtype for count, dtype in seen if count < limit} <= {np.dtype(np.int32)}, limit
            for name in want:
                assert got[name].tobytes() == want[name].tobytes(), (limit, name)


def _bincount_taste(params, bags, hp, trace, rows):
    """G[b, r] as one f64 ``bincount`` over every tree level's edge keys and score gradients, concatenated."""
    ent = params.values["entity_emb"]
    n_rel, size = len(params.values["relation_vec"]), bags.size
    keys, weights = [], []
    for level in range(hp.conv_layers):
        b, n = bags.tree_ents[level].shape
        alpha = trace.tree_alpha[level]
        g_alpha = np.einsum("bnd,bncd->bnc", rows.g_mixed[level],
                            ripplerec.model._child_rows(ent, bags, trace.tree_z, level, slice(None)))
        weights.append((alpha * (g_alpha - ripplerec.core._last_axis_sum(alpha * g_alpha))).reshape(-1))
        rels = bags.tree_rels[level + 1].reshape(b, -1)
        keys.append((np.arange(b)[:, None] * (n_rel + 1) + rels - NULL_RELATION).reshape(-1))
    taste = np.bincount(np.concatenate(keys), weights=np.concatenate(weights), minlength=size * (n_rel + 1))
    return taste.reshape(size, n_rel + 1)[:, 1:].astype(trace.u_rep.dtype)


class TestTasteGradient:
    @pytest.mark.parametrize("precision", ["f32", "f64"])
    @pytest.mark.parametrize("conv_layers", [1, 2])
    @pytest.mark.parametrize("batch", ["many_relation", "pad_heavy"])
    def test_same_bytes_as_one_bincount(self, many_relation_data, tmp_path, batch, conv_layers, precision):
        if batch == "pad_heavy":
            hp, params, bags = _pad_heavy_batch(tmp_path, conv_layers, precision)
        else:
            hp, params, bags = _oracle_batch(many_relation_data, dict(conv_layers=conv_layers), precision)
        trace = forward(params, bags, hp)
        rows = ripplerec.model._row_grads(params, bags, hp, trace, trace.yhat - bags.labels.astype(hp.dtype))
        want = _bincount_taste(params, bags, hp, trace, rows)
        assert np.any(want != 0.0)
        assert rows.g_taste.dtype == want.dtype and rows.g_taste.tobytes() == want.tobytes()


class TestStepGradients:
    @pytest.mark.parametrize("precision", ["f32", "f64"])
    @pytest.mark.parametrize("variant", ORACLE_VARIANTS, ids=ORACLE_IDS)
    def test_one_new_array_per_tensor(self, many_relation_data, variant, precision):
        hp, params, bags = _oracle_batch(many_relation_data, variant, precision)
        grads = forward_backward(params, bags, hp)[1]
        assert list(grads) == list(params.values)
        unreached = ({"relation_mat", "fusion_w"} if hp.user_table else set()) | (
            set() if hp.conv_layers else {"relation_vec"})
        for name, value in params.values.items():
            assert grads[name].shape == value.shape and grads[name].dtype == value.dtype, name
            assert not np.shares_memory(grads[name], value), name
            assert np.any(grads[name] != 0.0) == (name not in unreached), name

    @pytest.mark.parametrize("variant", ORACLE_VARIANTS, ids=ORACLE_IDS)
    def test_two_calls_same_bytes_and_no_side_effect(self, many_relation_data, variant):
        hp, params, bags = _oracle_batch(many_relation_data, variant, "f32")
        values = {name: v.tobytes() for name, v in params.values.items()}
        first = forward_backward(params, bags, hp)[1]
        second = forward_backward(params, bags, hp)[1]
        for name in values:
            assert first[name].tobytes() == second[name].tobytes(), name
            assert not np.shares_memory(first[name], second[name]), name
        assert {name: v.tobytes() for name, v in params.values.items()} == values
        assert not hasattr(params, "grads")

    def test_entity_gradient_dies_with_the_callers_dict(self, many_relation_data):
        hp, params, bags = _oracle_batch(many_relation_data, {}, "f32")
        grads = forward_backward(params, bags, hp)[1]
        ref = weakref.ref(grads["entity_emb"])
        params.adam_step(grads, hp.lr, hp.l2_weight)
        assert ref() is not None
        del grads
        assert ref() is None, "a step's entity gradient outlived the step"


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

    def test_int64_fallback_keeps_values_tables_and_fit(self, tiny_files, tiny_data, monkeypatch):
        """A graph whose edge and entity counts reach ``INDEX_LIMIT`` keeps int64; nothing else changes."""
        kg32, dataset = tiny_data
        hp = self._hp(epochs=1)
        monkeypatch.setattr(ripplerec.kg, "INDEX_LIMIT", min(kg32.num_entities, kg32.total_degree()))
        kg64 = rr.load_kg(tiny_files.kg)
        (neighbors32, ripple32), (neighbors64, ripple64) = tables(kg32, dataset, hp, 4), tables(kg64, dataset, hp, 4)
        for got, want in ((kg64.indptr, kg32.indptr), (kg64.nbr, kg32.nbr), (neighbors64.nbr, neighbors32.nbr),
                          (ripple64.bags, ripple32.bags)):
            assert (got.dtype, want.dtype) == (np.int64, np.int32)
            assert got.tobytes() == want.astype(np.int64).tobytes()
        for got, want in ((kg64.rel, kg32.rel), (neighbors64.rel, neighbors32.rel)):  # relations follow their count
            assert (got.dtype, want.dtype) == (np.int8, np.int8) and got.tobytes() == want.tobytes()
        r32, r64 = fit(dataset, kg32, hp, seed=4), fit(dataset, kg64, hp, seed=4)
        assert r64.history == r32.history and len(r64.history) == 1
        for name in r32.params.values:
            assert r64.params.values[name].tobytes() == r32.params.values[name].tobytes(), name
        assert (_table_sha256(r64.ripple_table.bags, r64.ripple_table.has)
                == _table_sha256(r32.ripple_table.bags, r32.ripple_table.has))
        assert (_table_sha256(r64.neighbor_table.rel, r64.neighbor_table.nbr)
                == _table_sha256(r32.neighbor_table.rel, r32.neighbor_table.nbr))

    def test_holds_at_most_one_step_trace(self, tiny_data, monkeypatch):
        kg, dataset = tiny_data
        real_forward_backward = ripplerec.model.forward_backward
        real_evaluate = ripplerec.metrics.evaluate
        traces = []  # a weak reference to every trace, and entity gradient, forward_backward returned
        alive_at_step = []  # per call: traces and gradients still alive when it starts
        alive_at_evaluate = []

        def recording_forward_backward(*args, **kw):
            alive_at_step.append(sum(ref() is not None for ref in traces))
            loss, grads, trace = real_forward_backward(*args, **kw)
            traces.extend([weakref.ref(trace), weakref.ref(grads["entity_emb"])])
            return loss, grads, trace

        def recording_evaluate(*args, **kw):
            alive_at_evaluate.append(sum(ref() is not None for ref in traces))
            return real_evaluate(*args, **kw)

        monkeypatch.setattr(ripplerec.model, "forward_backward", recording_forward_backward)
        monkeypatch.setattr(ripplerec.metrics, "evaluate", recording_evaluate)
        fit(dataset, kg, self._hp(batch_size=16, epochs=2), seed=3)
        assert len(alive_at_step) > 2 * 2 and len(alive_at_evaluate) == 2 + 1  # val per epoch, test
        assert alive_at_step == [0] * len(alive_at_step), "a step started while an earlier step's arrays were alive"
        assert alive_at_evaluate == [0] * len(alive_at_evaluate), "evaluate ran while a step's arrays were alive"

    def test_zero_epochs_snapshot_of_initialization(self, tiny_data):
        kg, dataset = tiny_data
        result = fit(dataset, kg, self._hp(epochs=0), seed=0)
        assert result.history == []
        assert result.best_epoch == 0
        init = init_params(kg.num_entities, kg.num_relations, self._hp(epochs=0), seed=0,
                           num_users=dataset.num_users)
        np.testing.assert_array_equal(result.params.values["entity_emb"], init.values["entity_emb"])

    def _init(self, kg, dataset, hp, seed):
        return init_params(kg.num_entities, kg.num_relations, hp, seed=seed, num_users=dataset.num_users)

    @staticmethod
    def _assert_same_bytes(got, want):
        assert list(got.values) == list(want.values)
        for name, value in want.values.items():
            assert got.values[name].dtype == value.dtype and got.values[name].tobytes() == value.tobytes(), name

    @staticmethod
    def _diverge_at_step(monkeypatch, step):
        """Make forward_backward raise FloatingPointError from its ``step``-th call on; returns the call count."""
        real, calls = ripplerec.model.forward_backward, []

        def explode(params, bags, hp):
            calls.append(1)
            if len(calls) >= step:
                raise FloatingPointError("synthetic blowup")
            return real(params, bags, hp)

        monkeypatch.setattr(ripplerec.model, "forward_backward", explode)
        return calls

    def test_step_starts_with_one_model_and_no_train_copy(self, tiny_data, monkeypatch):
        kg, dataset = tiny_data
        real = ripplerec.model.forward_backward
        held = [o for o in gc.get_objects() if isinstance(o, ParamStore)]  # stores alive before the fit
        at_first_step = []

        def counting_forward_backward(*args, **kw):
            if not at_first_step:
                gc.collect()
                stores = [o for o in gc.get_objects()
                          if isinstance(o, ParamStore) and not any(o is h for h in held)]
                arrays = {id(a): a for o in gc.get_objects() for a in gc.get_referents(o) if isinstance(a, np.ndarray)}
                frame = sys._getframe()
                while frame is not None:  # the locals of fit and of every caller
                    arrays.update((id(a), a) for a in frame.f_locals.values() if isinstance(a, np.ndarray))
                    frame = frame.f_back
                same_shape = [a for a in arrays.values() if a.shape == dataset.train.shape and a is not dataset.train]
                at_first_step.append((len(stores), len(same_shape)))
            return real(*args, **kw)

        monkeypatch.setattr(ripplerec.model, "forward_backward", counting_forward_backward)
        # every train row is kept, so a copy of the kept rows would have the split's shape
        assert ripplerec.model.build_ripple_sets(dataset, kg, self._hp(), 3).known(dataset.train[:, 0]).all()
        fit(dataset, kg, self._hp(batch_size=16, epochs=1), seed=3)
        assert at_first_step == [(1, 0)], "(parameter stores, copies of the train split's shape) at the first step"

    def test_divergence_in_epoch_one_returns_the_initial_bytes(self, tiny_data, monkeypatch):
        kg, dataset = tiny_data
        hp = self._hp(batch_size=16, epochs=3)
        calls = self._diverge_at_step(monkeypatch, 3)  # two steps update the parameters first
        result = fit(dataset, kg, hp, seed=2)
        assert result.diverged and result.history == [] and result.best_epoch == 0 and len(calls) == 3
        self._assert_same_bytes(result.params, self._init(kg, dataset, hp, 2))

    def test_divergence_in_epoch_two_returns_the_bytes_of_one_epoch(self, tiny_data, monkeypatch):
        kg, dataset = tiny_data
        one = fit(dataset, kg, self._hp(batch_size=16, epochs=1), seed=2)
        steps = -(-len(dataset.train) // 16)  # an epoch's steps: every train row is kept
        self._diverge_at_step(monkeypatch, steps + 2)  # one step of epoch 2 updates the parameters first
        result = fit(dataset, kg, self._hp(batch_size=16, epochs=3), seed=2)
        assert result.diverged and result.best_epoch == 1 and result.history == one.history
        self._assert_same_bytes(result.params, one.params)
        assert result.test_report.auc == one.test_report.auc

    def test_validation_that_never_improves_stops_at_patience_with_the_initial_bytes(self, tiny_data, monkeypatch):
        kg, dataset = tiny_data

        def nan_eval(*args, **kwargs):
            from ripplerec.metrics import MetricReport
            return MetricReport(split="validation", auc=float("nan"), acc=0.5, n_examples=1)

        monkeypatch.setattr(ripplerec.model.metrics, "evaluate", nan_eval)
        hp = self._hp(epochs=20, patience=2)
        result = fit(dataset, kg, hp, seed=0)
        assert [row["epoch"] for row in result.history] == [1, 2] and result.best_epoch == 0
        assert not result.diverged
        self._assert_same_bytes(result.params, self._init(kg, dataset, hp, 0))

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

        def explode(params, bags, hp):
            calls["n"] += 1
            if calls["n"] > 3:
                raise FloatingPointError("synthetic blowup")
            return real(params, bags, hp)

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

    def test_user_without_train_positive_skipped_not_fatal(self, tiny_data, caplog):
        # user 0 keeps only its label-0 train rows: no ripple seeds, so no ripple set
        kg, dataset = tiny_data
        train = dataset.train[(dataset.train[:, 0] != 0) | (dataset.train[:, 2] == 0)]
        dropped = int((train[:, 0] == 0).sum())
        assert dropped > 0
        degenerate = dataclasses.replace(dataset, train=train)
        with caplog.at_level("WARNING"):
            result = fit(degenerate, kg, self._hp(epochs=1), seed=0)
        assert result.skipped_users == 1
        assert f"dropped {dropped} train rows of 1 users" in caplog.text
        assert len(result.history) == 1

    def test_unknown_validation_users_rejected_before_training(self, tiny_data, monkeypatch):
        # validation holds only user 0, and user 0 keeps no train positive: no ripple set to score it with
        kg, dataset = tiny_data
        train = dataset.train[(dataset.train[:, 0] != 0) | (dataset.train[:, 2] == 0)]
        validation = dataset.validation[dataset.validation[:, 0] == 0]
        assert len(validation) > 0
        steps = []
        monkeypatch.setattr(ripplerec.model, "forward_backward", lambda *args, **kwargs: steps.append(1))
        unscorable = dataclasses.replace(dataset, train=train, validation=validation)
        with pytest.raises(ValueError, match="validation split has no scorable examples"):
            fit(unscorable, kg, self._hp(epochs=1), seed=1)
        assert steps == []
        fit(unscorable, kg, self._hp(epochs=0), seed=1)  # no epoch, nothing to select on

    @pytest.mark.parametrize("epochs", [1, 0])
    def test_unknown_test_users_rejected_before_training(self, tiny_data, monkeypatch, epochs):
        # test holds only user 0, and user 0 keeps no train positive: the run would train, then fail to score it
        kg, dataset = tiny_data
        train = dataset.train[(dataset.train[:, 0] != 0) | (dataset.train[:, 2] == 0)]
        test = dataset.test[dataset.test[:, 0] == 0]
        assert len(test) > 0
        steps = []
        monkeypatch.setattr(ripplerec.model, "forward_backward", lambda *args, **kwargs: steps.append(1))
        unscorable = dataclasses.replace(dataset, train=train, test=test)
        with pytest.raises(ValueError, match="test split has no scorable examples: the ripple table knows none"):
            fit(unscorable, kg, self._hp(epochs=epochs), seed=1)
        assert steps == []

    def test_dead_end_user_skipped_not_fatal(self, tmp_path, caplog):
        # directed graph: items 0-3 lie on m0..m3, which have outgoing triples;
        # items 4-5 lie on d0/d1, which only ever appear as tails
        rows = [(f"m{k}", "genre", f"g{k % 2}") for k in range(4)]
        rows += [("g0", "sim", "g1"), ("g1", "sim", "g0"), ("g0", "has", "d0"), ("g1", "has", "d1")]
        kg = rr.load_kg(write_kg(tmp_path / "kg.tsv", rows), undirected=False)
        item_entities = np.array([kg.entity_names.index(e) for e in ("m0", "m1", "m2", "m3", "d0", "d1")])
        # user 0 sorts first: had its ripple build drawn anything, every
        # later user's bags would shift
        train = np.array([(0, 4, 1), (0, 0, 0), (0, 5, 1), (0, 1, 0),
                          (1, 0, 1), (1, 4, 0), (1, 1, 1), (1, 5, 0),
                          (2, 2, 1), (2, 0, 0), (2, 3, 1), (2, 1, 0)])
        held_out = np.array([(0, 4, 1), (0, 2, 0), (1, 2, 1), (1, 3, 0), (2, 1, 1), (2, 5, 0)])
        dataset = rr.InteractionDataset(
            num_users=3, num_items=6, train=train, validation=held_out, test=held_out,
            item_entities=item_entities,
        )
        hp = self._hp(ripple_size=4, neighbor_size=2, batch_size=4, epochs=2)

        with caplog.at_level("WARNING"):
            ripple_sets = rr.build_ripple_sets(dataset, kg, hp, seed=0)
        assert np.flatnonzero(ripple_sets.has).tolist() == [1, 2]
        assert "1 users skipped" in caplog.text
        expected = reference_ripple_bags(adjacency(tmp_path / "kg.tsv", undirected=False), train_seeds(dataset),
                                         hp.hops, hp.ripple_size, np.random.default_rng([0, 17]))
        assert sorted(expected) == [1, 2]
        for user in (1, 2):
            for got, want in zip(ripple_sets.bags[:, user], expected[user]):
                assert got.dtype == np.int32 and got.astype(np.int64).tobytes() == want.tobytes()

        caplog.clear()
        with caplog.at_level("WARNING"):
            result = fit(dataset, kg, hp, seed=0)
        assert result.skipped_users == 1
        assert "dropped 4 train rows of 1 users" in caplog.text
        assert len(result.history) == 2
        assert result.test_report.skipped == 2
        assert result.test_report.n_examples == 4
