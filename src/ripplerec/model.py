"""Dual knowledge-graph enhancement scorer with hand-derived gradients.

User side: attention over per-hop ripple bags.  Each bag triple
(h, r, t) is scored by (R_r h) . v against the candidate embedding v,
softmax-normalized within its bag, and the tails are summed into a hop
response; hop responses fuse with the candidate through a learned map
into the user representation o.

Item side: relation-scored neighbor convolution.  Sampled neighbors of
the item entity are weighted by softmax over o . r_e (a per-relation
taste score), aggregated, mixed with the node's own embedding through a
per-layer affine map, and squashed (rectifier inside, tanh at the final
layer).  Depth 0 disables the item side (the candidate embedding is
used raw); ``user_table`` replaces the ripple path with a plain learned
user embedding.  Either switch yields the single-side ablations.

Prediction is the logistic of o . i.  The computation graph is small
and static, so gradients are derived per operation against a retained
:class:`ForwardTrace` instead of running autodiff.  Forward passes over
frozen parameters are pure functions of (params, sampled bags) and safe
to run concurrently; gradient accumulation and updates are single
writer.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from . import metrics
from .core import ParamStore, sigmoid, softmax, xavier_uniform
from .kg import NULL_RELATION, build_ripple_set, sample_children

logger = logging.getLogger(__name__)

PROB_CLAMP = 1e-7  # predictions are clamped to [PROB_CLAMP, 1 - PROB_CLAMP] inside the loss


@dataclass
class Hyperparams:
    """Model and training knobs.

    ``conv_layers`` is the item-side aggregation depth; 0 disables item
    enhancement (ablation).  ``fusion`` selects how hop responses merge:
    ``"shared"`` applies one map to their sum plus the candidate,
    ``"recursive"`` chains per-hop maps and adds the candidate at the
    end.  ``loss_variant="flipped"`` subtracts the negative-sample
    cross-entropy instead of adding it; it exists for inspection only
    and is not a trainable objective.
    """

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
    precision: str = "f64"
    optimizer: str = "adam"

    def __post_init__(self):
        if self.embed_dim < 1:
            raise ValueError("embed_dim must be >= 1")
        if self.hops < 1:
            raise ValueError("hops must be >= 1")
        if self.ripple_size < 1 or self.neighbor_size < 1:
            raise ValueError("ripple_size and neighbor_size must be >= 1")
        if self.conv_layers < 0:
            raise ValueError("conv_layers must be >= 0 (0 = item enhancement off)")
        if self.l2_weight < 0:
            raise ValueError("l2_weight must be >= 0")
        if self.lr <= 0:
            raise ValueError("lr must be > 0")
        if self.fusion not in ("shared", "recursive"):
            raise ValueError(f"unknown fusion variant {self.fusion!r}")
        if self.loss_variant not in ("bce", "flipped"):
            raise ValueError(f"unknown loss variant {self.loss_variant!r}")
        if self.precision not in ("f32", "f64"):
            raise ValueError(f"unknown precision {self.precision!r}")
        if self.optimizer not in ("adam", "sgd"):
            raise ValueError(f"unknown optimizer {self.optimizer!r}")

    @property
    def dtype(self):
        return np.float64 if self.precision == "f64" else np.float32


def init_params(num_entities, num_relations, hp, seed=0, num_users=0):
    """Xavier-uniform parameter store for the given graph sizes.

    Tensors: ``entity_emb`` (E, d), ``relation_mat`` (R, d, d) for hop
    attention, ``relation_vec`` (R, d) for taste scores, ``fusion_w``
    (1 or H, d, d), ``conv_w``/``conv_b`` per item layer, and
    ``user_emb`` (U, d) only under ``user_table``.  Biases start at
    zero; everything else within the Xavier bound.
    """
    rng = np.random.default_rng([seed, 11])
    d = hp.embed_dim
    params = ParamStore(dtype=hp.dtype)
    params.add("entity_emb", xavier_uniform((num_entities, d), rng, hp.dtype))
    params.add("relation_mat", xavier_uniform((num_relations, d, d), rng, hp.dtype))
    params.add("relation_vec", xavier_uniform((num_relations, d), rng, hp.dtype))
    n_fusion = hp.hops if hp.fusion == "recursive" else 1
    params.add("fusion_w", xavier_uniform((n_fusion, d, d), rng, hp.dtype))
    if hp.conv_layers >= 1:
        params.add("conv_w", xavier_uniform((hp.conv_layers, d, d), rng, hp.dtype))
        params.add("conv_b", np.zeros((hp.conv_layers, d), dtype=hp.dtype))
    if hp.user_table:
        if num_users < 1:
            raise ValueError("user_table requires num_users")
        params.add("user_emb", xavier_uniform((num_users, d), rng, hp.dtype))
    return params


# -- sampled batch structure --------------------------------------------------


@dataclass
class BatchBags:
    """All stochastic structure for one batch, frozen before the forward pass."""

    users: np.ndarray  # (B,)
    items: np.ndarray  # (B,)
    labels: np.ndarray  # (B,)
    v_idx: np.ndarray  # (B,) candidate entity per example
    hop_bags: list[np.ndarray]  # per hop: (B, n_p, 3) of (head, rel, tail)
    tree_ents: list[np.ndarray]  # per depth 0..L: (B, n_e**depth)
    tree_rels: list[np.ndarray]  # per depth 1..L: (B, n_e**depth), NULL_RELATION for pad

    @property
    def size(self):
        return len(self.users)


def sample_item_trees(kg, v_idx, conv_layers, n_e, rng):
    """Receptive-field tree around each candidate entity, depth ``conv_layers``."""
    ents = [np.asarray(v_idx, dtype=np.int64).reshape(-1, 1)]
    rels = [None]
    for _ in range(conv_layers):
        r, e = sample_children(kg, ents[-1], n_e, rng)
        rels.append(r.reshape(len(r), -1))
        ents.append(e.reshape(len(e), -1))
    return ents, rels


def assemble_batch(records, kg, ripple_sets, hp, item_entities, rng):
    """Freeze ripple bags and neighbor trees for a batch of (user, item, label)."""
    records = np.asarray(records)
    if len(records) == 0:
        raise ValueError("cannot assemble an empty batch")
    users = records[:, 0].astype(np.int64)
    items = records[:, 1].astype(np.int64)
    labels = records[:, 2].astype(np.int64)
    v_idx = np.asarray(item_entities, dtype=np.int64)[items]
    hop_bags = []
    if not hp.user_table:
        for k in range(hp.hops):
            bag = np.stack([ripple_sets[int(u)].hops[k] for u in users], axis=0)
            hop_bags.append(bag)
    tree_ents, tree_rels = sample_item_trees(kg, v_idx, hp.conv_layers, hp.neighbor_size, rng)
    return BatchBags(
        users=users, items=items, labels=labels, v_idx=v_idx,
        hop_bags=hop_bags, tree_ents=tree_ents, tree_rels=tree_rels,
    )


# -- forward -------------------------------------------------------------------


@dataclass
class ForwardTrace:
    """Intermediates retained for the hand-derived backward pass."""

    v: np.ndarray  # (B, d) candidate embeddings
    hop_attn: list[np.ndarray] = field(default_factory=list)  # per hop (B, n_p)
    hop_scores_rh: list[np.ndarray] = field(default_factory=list)  # per hop (B, n_p, d): R_r h
    hop_resp: list[np.ndarray] = field(default_factory=list)  # per hop (B, d)
    fusion_in: np.ndarray | None = None  # shared variant: sum_k O_k + v
    rec_in: list[np.ndarray] = field(default_factory=list)  # recursive variant inputs per hop
    u_rep: np.ndarray | None = None  # (B, d)
    tree_z: list[np.ndarray] = field(default_factory=list)  # per depth (B, n, d) post-activation
    tree_alpha: list[np.ndarray] = field(default_factory=list)  # per depth 0..L-1: (B, n, n_e)
    tree_in: list[np.ndarray] = field(default_factory=list)  # per depth 0..L-1: (B, n, d) pre-affine
    tree_pre: list[np.ndarray] = field(default_factory=list)  # per depth 0..L-1: (B, n, d) pre-activation
    i_rep: np.ndarray | None = None  # (B, d)
    logit: np.ndarray | None = None  # (B,)
    yhat: np.ndarray | None = None  # (B,)


def _relation_groups(rel_idx):
    """Stable sort of flat relation indices into contiguous segments.

    Returns (order, segment starts, segment ends, segment relation ids).
    One pass of sorting replaces a boolean mask per relation, which
    matters for graphs with many relation types.
    """
    order = np.argsort(rel_idx, kind="stable")
    sorted_idx = rel_idx[order]
    cuts = np.flatnonzero(np.diff(sorted_idx)) + 1
    starts = np.concatenate(([0], cuts))
    ends = np.concatenate((cuts, [len(sorted_idx)]))
    return order, starts, ends, sorted_idx[starts]


def _relation_matmul(rel_mat, rel_idx, vectors, transpose=False):
    """Apply per-row relation matrices to vectors, grouped by relation.

    ``vectors`` has shape (..., d) and ``rel_idx`` the matching (...)
    shape; returns R_r v (or R_r^T v).  Grouping avoids materializing a
    (..., d, d) gather of the matrix table.
    """
    flat_idx = rel_idx.reshape(-1)
    flat_vec = vectors.reshape(-1, vectors.shape[-1])
    order, starts, ends, rels = _relation_groups(flat_idx)
    sorted_vec = flat_vec[order]
    out_sorted = np.empty_like(sorted_vec)
    for start, end, r in zip(starts, ends, rels):
        mat = rel_mat[r]
        out_sorted[start:end] = sorted_vec[start:end] @ (mat if transpose else mat.T)
    out = np.empty_like(flat_vec)
    out[order] = out_sorted
    return out.reshape(vectors.shape)


def _hop_forward(params, bag, v, trace):
    """Attention response of one ripple hop against the candidates."""
    ent = params.values["entity_emb"]
    heads, rels, tails = bag[..., 0], bag[..., 1], bag[..., 2]
    h_vec = ent[heads]  # (B, n_p, d)
    rh = _relation_matmul(params.values["relation_mat"], rels, h_vec)
    scores = np.einsum("bnd,bd->bn", rh, v)
    attn = softmax(scores)
    resp = np.einsum("bn,bnd->bd", attn, ent[tails])
    trace.hop_attn.append(attn)
    trace.hop_scores_rh.append(rh)
    trace.hop_resp.append(resp)
    return resp


def _user_forward(params, bags, hp, trace):
    if hp.user_table:
        trace.u_rep = params.values["user_emb"][bags.users]
        return trace.u_rep
    v = trace.v
    responses = [_hop_forward(params, bags.hop_bags[k], v, trace) for k in range(hp.hops)]
    w = params.values["fusion_w"]
    if hp.fusion == "shared":
        fused_in = np.sum(responses, axis=0) + v
        trace.fusion_in = fused_in
        trace.u_rep = fused_in @ w[0].T
    else:
        carry = np.zeros_like(v)
        for k in range(hp.hops):
            rec_in = carry + responses[k]
            trace.rec_in.append(rec_in)
            carry = rec_in @ w[k].T
        trace.u_rep = carry + v
    return trace.u_rep


def _item_forward(params, bags, hp, trace):
    ent = params.values["entity_emb"]
    if hp.conv_layers == 0:
        trace.i_rep = trace.v
        return trace.i_rep
    rel_vec = params.values["relation_vec"]
    conv_w = params.values["conv_w"]
    conv_b = params.values["conv_b"]
    u = trace.u_rep
    depth = hp.conv_layers
    n_e = hp.neighbor_size

    z = [None] * (depth + 1)
    z[depth] = ent[bags.tree_ents[depth]]
    trace.tree_alpha = [None] * depth
    trace.tree_in = [None] * depth
    trace.tree_pre = [None] * depth
    for level in range(depth - 1, -1, -1):
        b, n = bags.tree_ents[level].shape
        child_rel = bags.tree_rels[level + 1].reshape(b, n, n_e)
        child_z = z[level + 1].reshape(b, n, n_e, -1)
        pad = child_rel == NULL_RELATION
        safe_rel = np.where(pad, 0, child_rel)
        scores = np.einsum("bd,bncd->bnc", u, rel_vec[safe_rel])
        scores = np.where(pad, 0.0, scores)
        alpha = softmax(scores)
        agg = np.einsum("bnc,bncd->bnd", alpha, child_z)
        own = ent[bags.tree_ents[level]]
        mixed = own + agg
        pre = mixed @ conv_w[level].T + conv_b[level]
        z[level] = np.tanh(pre) if level == 0 else np.maximum(pre, 0.0)
        trace.tree_alpha[level] = alpha
        trace.tree_in[level] = mixed
        trace.tree_pre[level] = pre
    trace.tree_z = z
    trace.i_rep = z[0][:, 0, :]
    return trace.i_rep


def forward(params, bags, hp):
    """Full forward pass over frozen bags; returns a populated trace."""
    trace = ForwardTrace(v=params.values["entity_emb"][bags.v_idx])
    _user_forward(params, bags, hp, trace)
    _item_forward(params, bags, hp, trace)
    trace.logit = np.einsum("bd,bd->b", trace.i_rep, trace.u_rep)
    trace.yhat = sigmoid(trace.logit)
    return trace


def batch_loss(params, bags, hp, trace=None, mean=True):
    """Cross-entropy of the batch plus the L2 penalty over all parameters."""
    if trace is None:
        trace = forward(params, bags, hp)
    y = bags.labels
    p = np.clip(trace.yhat, PROB_CLAMP, 1.0 - PROB_CLAMP)
    ce = -(y * np.log(p) + (1 - y) * np.log1p(-p))
    if hp.loss_variant == "flipped":
        ce = np.where(y == 1, ce, -ce)
    data = ce.mean() if mean else ce.sum()
    return float(data + hp.l2_weight * params.l2_penalty())


# -- backward ------------------------------------------------------------------


def _scatter_rows(grad, idx, contrib):
    """Accumulate contribution rows into grad rows (duplicate indices sum).

    One bincount per embedding column beats ufunc.at by a wide margin at
    training batch sizes.
    """
    flat_idx = idx.reshape(-1)
    flat = contrib.reshape(-1, contrib.shape[-1])
    for j in range(flat.shape[1]):
        grad[:, j] += np.bincount(flat_idx, weights=flat[:, j], minlength=grad.shape[0])


def _hop_backward(params, bag, v, trace, k, g_resp, grads, g_v):
    ent = params.values["entity_emb"]
    rel_mat = params.values["relation_mat"]
    heads, rels, tails = bag[..., 0], bag[..., 1], bag[..., 2]
    attn = trace.hop_attn[k]
    rh = trace.hop_scores_rh[k]
    t_vec = ent[tails]
    h_vec = ent[heads]

    # resp = sum_n attn_n * t_n
    g_attn = np.einsum("bd,bnd->bn", g_resp, t_vec)
    _scatter_rows(grads["entity_emb"], tails, attn[..., None] * g_resp[:, None, :])
    # softmax jacobian within the bag
    g_scores = attn * (g_attn - np.sum(attn * g_attn, axis=-1, keepdims=True))
    # score_n = (R_r h_n) . v
    g_v += np.einsum("bn,bnd->bd", g_scores, rh)
    rt_v = _relation_matmul(rel_mat, rels, np.broadcast_to(v[:, None, :], h_vec.shape), transpose=True)
    _scatter_rows(grads["entity_emb"], heads, g_scores[..., None] * rt_v)
    flat_rel = rels.reshape(-1)
    order, starts, ends, present = _relation_groups(flat_rel)
    gs_sorted = g_scores.reshape(-1)[order]
    h_sorted = h_vec.reshape(-1, h_vec.shape[-1])[order]
    v_sorted = np.broadcast_to(v[:, None, :], h_vec.shape).reshape(-1, v.shape[-1])[order]
    for start, end, r in zip(starts, ends, present):
        grads["relation_mat"][r] += np.einsum(
            "m,mi,mj->ij", gs_sorted[start:end], v_sorted[start:end], h_sorted[start:end]
        )


def _user_backward(params, bags, hp, trace, g_u, grads, g_v):
    if hp.user_table:
        _scatter_rows(grads["user_emb"], bags.users, g_u)
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
            g_in = g_carry @ w[k]
            hop_grads[k] = g_in
            g_carry = g_in
    for k in range(hp.hops):
        _hop_backward(params, bags.hop_bags[k], trace.v, trace, k, hop_grads[k], grads, g_v)


def _item_backward(params, bags, hp, trace, g_i, grads, g_v, g_u):
    if hp.conv_layers == 0:
        g_v += g_i
        return
    rel_vec = params.values["relation_vec"]
    conv_w = params.values["conv_w"]
    u = trace.u_rep
    depth = hp.conv_layers
    n_e = hp.neighbor_size

    g_z = g_i[:, None, :]  # gradient w.r.t. z[0] (B, 1, d)
    for level in range(depth):
        z_here = trace.tree_z[level]
        pre = trace.tree_pre[level]
        if level == 0:
            g_pre = g_z * (1.0 - z_here * z_here)
        else:
            g_pre = g_z * (pre > 0.0)
        grads["conv_w"][level] += np.einsum("bni,bnj->ij", g_pre, trace.tree_in[level])
        grads["conv_b"][level] += g_pre.sum(axis=(0, 1))
        g_mixed = g_pre @ conv_w[level]
        _scatter_rows(grads["entity_emb"], bags.tree_ents[level], g_mixed)

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
        # score = u . rel_vec[r]
        g_u += np.einsum("bnc,bncd->bd", g_scores, rel_vec[safe_rel])
        flat_rel = safe_rel.reshape(-1)
        flat_gs = g_scores.reshape(-1)
        keep = flat_gs != 0.0
        if np.any(keep):
            contrib = flat_gs[:, None] * np.broadcast_to(
                u[:, None, None, :], (b, n, n_e, u.shape[-1])
            ).reshape(-1, u.shape[-1])
            _scatter_rows(grads["relation_vec"], flat_rel[keep], contrib[keep])
        g_z = g_child_z.reshape(b, n * n_e, -1)
    _scatter_rows(grads["entity_emb"], bags.tree_ents[depth], g_z)


def forward_backward(params, bags, hp, mean=True):
    """Loss of the batch plus analytic gradients into ``params.grads``.

    Gradient buffers must be zeroed beforehand (they accumulate).  Every
    parameter reached by the batch receives its gradient; with zero L2
    weight, untouched embedding rows keep exactly zero gradient.  The
    item-side contribution of the user representation (taste scores) is
    chained back through the ripple path, so the user and item sides
    train jointly.
    """
    trace = forward(params, bags, hp)
    bad = ~np.isfinite(trace.yhat)
    if np.any(bad):
        first = int(np.argmax(bad))
        raise FloatingPointError(
            f"non-finite prediction for batch example {first} "
            f"(user {bags.users[first]}, item {bags.items[first]})"
        )
    loss = batch_loss(params, bags, hp, trace=trace, mean=mean)
    if not np.isfinite(loss):
        raise FloatingPointError("non-finite batch loss")

    y = bags.labels.astype(trace.yhat.dtype)
    scale = 1.0 / bags.size if mean else 1.0
    inside = (trace.yhat > PROB_CLAMP) & (trace.yhat < 1.0 - PROB_CLAMP)
    g_logit = (trace.yhat - y) * scale * inside
    if hp.loss_variant == "flipped":
        g_logit = np.where(y == 1, g_logit, -g_logit)

    grads = params.grads
    g_u = g_logit[:, None] * trace.i_rep
    g_i = g_logit[:, None] * trace.u_rep
    g_v = np.zeros_like(trace.v)
    # item side first: it also feeds gradient into u (taste scores)
    _item_backward(params, bags, hp, trace, g_i, grads, g_v, g_u)
    _user_backward(params, bags, hp, trace, g_u, grads, g_v)
    _scatter_rows(grads["entity_emb"], bags.v_idx, g_v)
    params.add_l2_grads(hp.l2_weight)
    return loss, trace


def score_batch(params, records, kg, ripple_sets, hp, item_entities, rng):
    """Predicted interaction probabilities for (user, item, ...) records."""
    bags = assemble_batch(records, kg, ripple_sets, hp, item_entities, rng)
    return forward(params, bags, hp).yhat


# -- single-example operations -------------------------------------------------


def hop_response(params, bag, candidate_v):
    """Attention weights and response of one hop bag against one candidate."""
    bag = np.asarray(bag, dtype=np.int64).reshape(1, -1, 3)
    trace = ForwardTrace(v=np.asarray(candidate_v, dtype=params.dtype).reshape(1, -1))
    resp = _hop_forward(params, bag, trace.v, trace)
    return trace.hop_attn[0][0], resp[0]


def user_representation(params, ripple, candidate_v, hp):
    """Ripple-derived user representation against one candidate embedding."""
    v = np.asarray(candidate_v, dtype=params.dtype).reshape(1, -1)
    trace = ForwardTrace(v=v)
    responses = [_hop_forward(params, bag.reshape(1, -1, 3), v, trace) for bag in ripple.hops]
    w = params.values["fusion_w"]
    if hp.fusion == "shared":
        return ((np.sum(responses, axis=0) + v) @ w[0].T)[0]
    carry = np.zeros_like(v)
    for k, resp in enumerate(responses):
        carry = (carry + resp) @ w[k].T
    return (carry + v)[0]


def relation_score(params, u_rep, relation):
    """Taste score of a user representation for one relation; 0 for the pad."""
    if relation == NULL_RELATION:
        return 0.0
    return float(np.dot(u_rep, params.values["relation_vec"][relation]))


def neighbor_aggregate(params, u_rep, sample):
    """Softmax-weighted neighbor embedding sum for one sampled entity."""
    u_rep = np.asarray(u_rep, dtype=params.dtype)
    scores = np.array([relation_score(params, u_rep, int(r)) for r in sample.relations])
    weights = softmax(scores)
    return weights @ params.values["entity_emb"][sample.entities]


def item_representation(params, item_entity, u_rep, kg, hp, rng):
    """Layered neighbor-convolution representation of one item entity."""
    if hp.conv_layers == 0:
        return params.values["entity_emb"][item_entity].copy()
    v_idx = np.array([item_entity], dtype=np.int64)
    ents, rels = sample_item_trees(kg, v_idx, hp.conv_layers, hp.neighbor_size, rng)
    bags = BatchBags(
        users=np.zeros(1, dtype=np.int64), items=np.zeros(1, dtype=np.int64),
        labels=np.zeros(1, dtype=np.int64), v_idx=v_idx,
        hop_bags=[], tree_ents=ents, tree_rels=rels,
    )
    trace = ForwardTrace(v=params.values["entity_emb"][v_idx])
    trace.u_rep = np.asarray(u_rep, dtype=params.dtype).reshape(1, -1)
    return _item_forward(params, bags, hp, trace)[0]


def predict_ctr(u_rep, i_rep):
    """Interaction probability: logistic of the representations' inner product."""
    return float(sigmoid(float(np.dot(u_rep, i_rep))))


# -- training loop ---------------------------------------------------------


@dataclass
class FitResult:
    params: ParamStore
    history: list[dict]
    best_epoch: int
    test_report: metrics.MetricReport | None
    diverged: bool = False
    skipped_users: int = 0  # users without a ripple set; their train rows are dropped


def build_ripple_sets(dataset, kg, hp, seed):
    """One ripple set per user with train history, seeded entities from items.

    A user whose seed entities have no outgoing triples (reachable on a
    directed graph) gets no ripple set; such users are skipped and
    counted in a warning.  The check precedes any draw, so the other
    users' bags do not depend on them.
    """
    if dataset.item_entities is None:
        raise ValueError("dataset has no item -> entity mapping; run prep first")
    rng = np.random.default_rng([seed, 17])
    degrees = np.diff(kg.indptr)
    out = {}
    dead_ends = 0
    for user in sorted(dataset.user_history):
        seeds = dataset.item_entities[dataset.user_history[user]]
        if len(seeds) and not degrees[seeds].any():
            dead_ends += 1
            continue
        out[user] = build_ripple_set(kg, seeds, hp.hops, hp.ripple_size, rng, user=user)
    if dead_ends:
        logger.warning("%d users skipped: seed entities have no outgoing triples", dead_ends)
    return out


def fit(dataset, kg, hp, seed=0, eval_train=False, log_every=None):
    """Minibatch training with per-epoch validation and best-snapshot selection.

    Ripple sets are built once per run (``resample_ripple`` rebuilds them
    each epoch); neighbor trees are drawn fresh per batch.  Train rows of
    users without a ripple set are dropped and the users counted in
    ``skipped_users``.  Divergence aborts the run and returns the last
    good snapshot with ``diverged`` set.  Single-threaded and
    deterministic for a fixed seed.
    """
    params = init_params(kg.num_entities, kg.num_relations, hp, seed=seed, num_users=dataset.num_users)
    train = dataset.train
    skipped_users = 0
    if hp.user_table:
        ripple_sets = {}
    else:
        ripple_sets = build_ripple_sets(dataset, kg, hp, seed)
        skipped_users = len(dataset.user_history) - len(ripple_sets)
        if skipped_users:
            keep = np.isin(train[:, 0], list(ripple_sets))
            logger.warning("dropped %d train rows of %d users without a ripple set",
                           int((~keep).sum()), skipped_users)
            train = train[keep]
            if len(train) == 0:
                raise ValueError("no train rows left: every user lacks a ripple set")
    history: list[dict] = []
    best = params.copy()
    best_auc = -np.inf
    best_epoch = 0
    diverged = False
    stale = 0

    for epoch in range(1, hp.epochs + 1):
        if hp.resample_ripple and not hp.user_table and epoch > 1:
            ripple_sets = build_ripple_sets(dataset, kg, hp, seed + epoch)
        order = np.random.default_rng([seed, 2, epoch]).permutation(len(train))
        shuffled = train[order]
        total = 0.0
        try:
            for start in range(0, len(shuffled), hp.batch_size):
                batch = shuffled[start:start + hp.batch_size]
                rng = np.random.default_rng([seed, 3, epoch, start])
                bags = assemble_batch(batch, kg, ripple_sets, hp, dataset.item_entities, rng)
                loss, _ = forward_backward(params, bags, hp)
                total += loss * len(batch)
                if hp.optimizer == "adam":
                    params.adam_step(hp.lr)
                else:
                    params.sgd_step(hp.lr)
        except FloatingPointError as err:
            logger.error("epoch %d diverged: %s", epoch, err)
            diverged = True
            break
        train_loss = total / len(shuffled)

        row = {"epoch": epoch, "train_loss": train_loss}
        val = metrics.evaluate(
            params, dataset.validation, kg, ripple_sets, hp, dataset.item_entities,
            seed=seed * 1000 + epoch, split="validation",
        )
        row["val_auc"] = val.auc
        row["val_acc"] = val.acc
        if eval_train:
            tr = metrics.evaluate(
                params, train, kg, ripple_sets, hp, dataset.item_entities,
                seed=seed * 1000 + epoch, split="train",
            )
            row["train_auc"] = tr.auc
        history.append(row)
        if log_every and epoch % log_every == 0:
            logger.info("epoch %d: loss %.4f, val auc %.4f", epoch, train_loss, val.auc)

        if val.auc > best_auc:
            best_auc = val.auc
            best = params.copy()
            best_epoch = epoch
            stale = 0
        else:
            stale += 1
            if hp.patience and stale >= hp.patience:
                logger.info("early stop at epoch %d (no val improvement in %d epochs)", epoch, hp.patience)
                break

    # `best` is the best-validation snapshot, falling back to the initial
    # copy when no epoch completed -- the last good state in either case.
    final = best
    test_report = None
    if len(dataset.test):
        test_report = metrics.evaluate(
            final, dataset.test, kg, ripple_sets, hp, dataset.item_entities,
            seed=seed * 1000 + 999, split="test",
        )
    return FitResult(params=final, history=history, best_epoch=best_epoch,
                     test_report=test_report, diverged=diverged, skipped_users=skipped_users)
