import dataclasses
import math

import numpy as np
import pytest
from scipy import sparse

import ripplerec as rr
import ripplerec.model
from ripplerec.core import ParamStore, finite_diff_check
from ripplerec.kg import NULL_RELATION
from ripplerec.synthetic import SyntheticSpec, generate
from ripplerec.model import (
    BatchBags,
    Hyperparams,
    assemble_batch,
    batch_loss,
    fit,
    forward,
    forward_backward,
    init_params,
)

from conftest import adjacency, make_params, one_example, reference_ripple_bags, write_kg


def hp64(**kw):
    kw.setdefault("precision", "f64")
    return Hyperparams(**kw)


class TestHyperparams:
    @pytest.mark.parametrize("bad", [
        dict(embed_dim=0), dict(hops=0), dict(ripple_size=0), dict(neighbor_size=0),
        dict(conv_layers=-1), dict(l2_weight=-1.0), dict(lr=0.0),
        dict(fusion="nope"), dict(precision="f16"),
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


def _item_rep(params, kg, center, hp, rng):
    """Item representation of ``center`` over a tree sampled from ``kg``, user pinned by ``user_emb``."""
    tree = ripplerec.model.sample_item_trees(kg, np.array([center]), hp.conv_layers, hp.neighbor_size, rng)
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
        out = _item_rep(params, kg, kg.entity_vocab["a"], hp, np.random.default_rng(0))
        np.testing.assert_allclose(out, np.tanh(v + n), rtol=1e-12)

    def test_zero_weights_zero_output(self, tmp_path):
        kg = rr.load_kg(write_kg(tmp_path / "kg.tsv", [("a", "r", "b")]), undirected=False)
        hp = hp64(embed_dim=2, conv_layers=1, neighbor_size=2, user_table=True)
        params = make_params(hp, 2, 1, user_emb=[np.ones(2)],
                             conv_w=[np.zeros((2, 2))], conv_b=[np.zeros(2)])
        out = _item_rep(params, kg, 0, hp, np.random.default_rng(0))
        np.testing.assert_allclose(out, 0.0)

    def test_layers_zero_passes_raw_embedding(self, chain_kg):
        hp = hp64(embed_dim=8, conv_layers=0, user_table=True)
        params = make_params(hp, chain_kg.num_entities, chain_kg.num_relations, user_emb=[np.ones(8)])
        out = _item_rep(params, chain_kg, 1, hp, np.random.default_rng(0))
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

    def test_empty_batch_rejected(self, tiny_data):
        kg, dataset = tiny_data
        ripple_sets = rr.build_ripple_sets(dataset, kg, hp64(), seed=0)
        with pytest.raises(ValueError, match="empty"):
            rr.assemble_batch(np.empty((0, 3), dtype=int), kg, ripple_sets, hp64(),
                              dataset.item_entities, np.random.default_rng(0))


def _tiny_batch(tiny_data, hp, n=12, seed=2):
    kg, dataset = tiny_data
    ripple_sets = rr.build_ripple_sets(dataset, kg, hp, seed=seed)
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
    w = params.values["fusion_w"]
    if hp.fusion == "shared":
        trace.fusion_in = np.sum(responses, axis=0) + v
        trace.u_rep = trace.fusion_in @ w[0].T
    else:
        carry = np.zeros_like(v)
        for k in range(hp.hops):
            trace.rec_in.append(carry + responses[k])
            carry = trace.rec_in[k] @ w[k].T
        trace.u_rep = carry + v
    return trace.u_rep


def _ref_user_backward(params, bags, hp, trace, g_u, grads, g_v, ent_rows):
    w = params.values["fusion_w"]
    if hp.fusion == "shared":
        grads["fusion_w"][0] += np.einsum("bi,bj->ij", g_u, trace.fusion_in)
        hop_grads = [g_u @ w[0]] * hp.hops
        g_v += hop_grads[0]
    else:
        g_v += g_u
        g_carry = g_u
        hop_grads = [None] * hp.hops
        for k in range(hp.hops - 1, -1, -1):
            grads["fusion_w"][k] += np.einsum("bi,bj->ij", g_carry, trace.rec_in[k])
            g_carry = hop_grads[k] = g_carry @ w[k]
    for k in range(hp.hops):
        _ref_hop_backward(params, bags.hop_bags[k], trace.v, trace, k, hop_grads[k], grads, g_v)


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
    w = params.values["fusion_w"]
    if hp.fusion == "shared":
        grads["fusion_w"][0] += np.einsum("bi,bj->ij", g_u, trace.fusion_in)
        g_fused = g_u @ w[0]
        g_v += g_fused
        hop_grads = [g_fused] * hp.hops
    else:
        g_v += g_u
        g_carry = g_u
        hop_grads = [None] * hp.hops
        for k in range(hp.hops - 1, -1, -1):
            grads["fusion_w"][k] += np.einsum("bi,bj->ij", g_carry, trace.rec_in[k])
            g_carry = hop_grads[k] = g_carry @ w[k]
    rel_mat = params.values["relation_mat"]
    n_rel, d, _ = rel_mat.shape
    v = trace.v
    s = np.zeros((len(v) * n_rel, d), dtype=v.dtype)
    for k in range(hp.hops):
        _rows_hop_backward(params, bags.hop_bags[k], trace, k, hop_grads[k], s, ent_rows)
    s = s.reshape(len(v), n_rel * d)
    g_v += s @ rel_mat.transpose(0, 2, 1).reshape(n_rel * d, d)
    grads["relation_mat"] += (v.T @ s).reshape(d, n_rel, d).transpose(1, 0, 2)


def _rows_item_backward(params, bags, hp, trace, g_i, grads, g_v, g_u, ent_rows):
    if hp.conv_layers == 0:
        g_v += g_i
        return
    rel_vec = params.values["relation_vec"]
    conv_w = params.values["conv_w"]
    u = trace.u_rep
    n_e = hp.neighbor_size
    g_z = g_i[:, None, :]
    for level in range(hp.conv_layers):
        z_here = trace.tree_z[level]
        pre = trace.tree_pre[level]
        g_pre = g_z * (1.0 - z_here * z_here) if level == 0 else g_z * (pre > 0.0)
        grads["conv_w"][level] += np.einsum("bni,bnj->ij", g_pre, trace.tree_in[level])
        grads["conv_b"][level] += g_pre.sum(axis=(0, 1))
        g_mixed = g_pre @ conv_w[level]
        ent_rows.append((bags.tree_ents[level], g_mixed))
        b, n = bags.tree_ents[level].shape
        child_rel = bags.tree_rels[level + 1].reshape(b, n, n_e)
        child_z = trace.tree_z[level + 1].reshape(b, n, n_e, -1)
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
    grads = params.grads
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
ORACLE_VARIANTS = [dict(), dict(fusion="recursive"), dict(user_table=True), dict(conv_layers=0),
                   dict(conv_layers=1)]
ORACLE_IDS = ["shared", "recursive", "user_table", "conv0", "conv1"]


def _assert_oracle_close(got, want, precision, name):
    tol = ORACLE_TOL[precision]
    np.testing.assert_allclose(got, want, rtol=tol, atol=tol * np.abs(want).max(), err_msg=name)


def _oracle_batch(data, variant, precision):
    kg, dataset = data
    kw = dict(hops=3, ripple_size=16, neighbor_size=4, conv_layers=2, l2_weight=0.0, precision=precision)
    hp = Hyperparams(**{**kw, **variant})
    ripple_sets = rr.build_ripple_sets(dataset, kg, hp, seed=0)
    bags = assemble_batch(dataset.train[:64], kg, ripple_sets, hp, dataset.item_entities,
                          np.random.default_rng(1))
    params = init_params(kg.num_entities, kg.num_relations, hp, seed=0, num_users=dataset.num_users)
    return hp, params, bags


def _grads_against_rows_backward(params, bags, hp, monkeypatch):
    """Gradients of the model's backward and of ``_rows_backward`` on the same forward."""

    def run():
        params.zero_grads()
        forward_backward(params, bags, hp)
        return {name: g.copy() for name, g in params.grads.items()}

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
    item_entities = np.array([kg.entity_vocab[e] for e in ("m0", "m1", "m2", "m3", "d0", "d1")])
    train = np.array([(0, 4, 1), (0, 0, 0), (0, 5, 1), (0, 1, 0),
                      (1, 0, 1), (1, 4, 0), (1, 1, 1), (1, 5, 0),
                      (2, 2, 1), (2, 0, 0), (2, 3, 1), (2, 1, 0)])
    dataset = rr.InteractionDataset(
        num_users=3, num_items=6, train=train, validation=train[:0], test=train[:0],
        user_history={0: np.array([4, 5]), 1: np.array([0, 1]), 2: np.array([2, 3])},
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
    @pytest.mark.parametrize("fusion", ["shared", "recursive"])
    def test_gradients_match_per_relation_reference(self, many_relation_data, fusion, monkeypatch):
        kg, dataset = many_relation_data
        hp = hp64(hops=3, ripple_size=16, neighbor_size=4, conv_layers=2, fusion=fusion, l2_weight=0.0)
        ripple_sets = rr.build_ripple_sets(dataset, kg, hp, seed=0)
        bags = assemble_batch(dataset.train[:64], kg, ripple_sets, hp, dataset.item_entities,
                              np.random.default_rng(1))
        present = np.unique(np.concatenate([bag[..., 1].reshape(-1) for bag in bags.hop_bags]))
        assert len(present) >= 8, "fixture too small: too few relations in the hop bags"
        params = init_params(kg.num_entities, kg.num_relations, hp, seed=0)

        def run():
            params.zero_grads()
            loss, trace = forward_backward(params, bags, hp)
            return loss, trace, {name: g.copy() for name, g in params.grads.items()}

        loss, trace, got = run()
        monkeypatch.setattr(ripplerec.model, "_user_forward", _ref_user_forward)
        monkeypatch.setattr(ripplerec.model, "_user_backward", _ref_user_backward)
        ref_loss, ref_trace, want = run()
        assert len(ref_trace.ref_rh) == hp.hops  # the reference path ran
        assert loss == pytest.approx(ref_loss, rel=1e-12)
        np.testing.assert_allclose(trace.yhat, ref_trace.yhat, rtol=1e-12)
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
        ripple_sets = rr.build_ripple_sets(dataset, kg, hp, seed=0)
        train = dataset.train[ripple_sets.known(dataset.train[:, 0])]
        bags = assemble_batch(train, kg, ripple_sets, hp, dataset.item_entities, np.random.default_rng(1))
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

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_scatter_rows_matches_add_at(self, dtype):
        rng = np.random.default_rng(0)
        rows = rng.integers(0, 40, size=(30, 7))  # 210 entries into 40 of 50 rows: duplicates and untouched rows
        cols = rng.integers(0, 12, size=(30, 7))  # each of 12 source rows read many times
        weights = rng.normal(size=(30, 7)).astype(dtype)
        src = rng.normal(size=(12, 5)).astype(dtype)
        got = np.zeros((50, 5), dtype=dtype)
        want = np.zeros((50, 5), dtype=dtype)
        for _ in range(2):  # accumulates into what is there
            ripplerec.model._add_rows(got, rows, cols, weights, src)
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
        # at flat key b * R + r, relation R would read example 1's relation 0 and
        # relation -2 would wrap to relation R - 2
        bags.tree_rels[1][0, 0] = n_rel if bad == "R" else bad
        with pytest.raises(IndexError, match="outside"):
            forward(params, bags, hp)


class TestPrecisionAgreement:
    @pytest.mark.parametrize("variant", [
        dict(),
        dict(fusion="recursive"),
        dict(user_table=True),
        dict(conv_layers=0),
    ])
    def test_f32_forward_matches_f64(self, mid_data, variant):
        kg, dataset = mid_data
        yhat = {}
        for precision in ("f32", "f64"):
            kw = dict(hops=2, ripple_size=16, neighbor_size=4, conv_layers=2, precision=precision)
            hp = Hyperparams(**{**kw, **variant})
            ripple_sets = rr.build_ripple_sets(dataset, kg, hp, seed=4)
            bags = assemble_batch(dataset.train[:256], kg, ripple_sets, hp, dataset.item_entities,
                                  np.random.default_rng(4))
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
            params.zero_grads()
            forward_backward(params, bags, hp)
            grads[precision] = params.grads
        for name, g64 in grads["f64"].items():
            g32 = grads["f32"][name]
            assert g32.dtype == np.float32 and g64.dtype == np.float64, name
            # a tensor the variant does not use has exactly zero gradient in both
            assert np.max(np.abs(g32.astype(np.float64) - g64)) <= 1e-4 * np.abs(g64).max(), name


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

    def test_recursive_fusion_trains(self, tiny_data):
        kg, dataset = tiny_data
        result = fit(dataset, kg, self._hp(fusion="recursive", epochs=3), seed=0)
        assert np.isfinite(result.history[-1]["train_loss"])

    def test_user_without_train_positive_skipped_not_fatal(self, tiny_data, caplog):
        # user 0 keeps only its label-0 train rows: no ripple seeds, so no ripple set
        kg, dataset = tiny_data
        train = dataset.train[(dataset.train[:, 0] != 0) | (dataset.train[:, 2] == 0)]
        dropped = int((train[:, 0] == 0).sum())
        assert dropped > 0
        history = {user: items for user, items in dataset.user_history.items() if user != 0}
        degenerate = dataclasses.replace(dataset, train=train, user_history=history)
        with caplog.at_level("WARNING"):
            result = fit(degenerate, kg, self._hp(epochs=1), seed=0)
        assert result.skipped_users == 1
        assert f"dropped {dropped} train rows of 1 users" in caplog.text
        assert len(result.history) == 1

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
        seeds = {user: item_entities[items] for user, items in dataset.user_history.items()}
        expected = reference_ripple_bags(adjacency(kg), seeds, hp.hops, hp.ripple_size,
                                         np.random.default_rng([0, 17]))
        assert sorted(expected) == [1, 2]
        for user in (1, 2):
            for got, want in zip(ripple_sets[user].hops, expected[user]):
                assert got.tobytes() == want.tobytes()

        caplog.clear()
        with caplog.at_level("WARNING"):
            result = fit(dataset, kg, hp, seed=0)
        assert result.skipped_users == 1
        assert "dropped 4 train rows of 1 users" in caplog.text
        assert len(result.history) == 2
        assert result.test_report.skipped == 2
        assert result.test_report.n_examples == 4
