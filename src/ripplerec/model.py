"""Dual knowledge-graph enhancement scorer with hand-derived gradients.

User side: attention over per-hop ripple bags.  Each bag triple
(h, r, t) is scored by (R_r h) . v against the candidate embedding v,
softmax-normalized within its bag, and the tails are summed into a hop
response; hop responses fuse with the candidate through a learned map
into the user representation o.  Every user's bags sit in one ripple
table (:func:`build_ripple_sets`), and a batch reads all of its hop
bags with one take from it.

Item side: relation-scored neighbor convolution.  Sampled neighbors of
the item entity are weighted by softmax over o . r_e (a per-relation
taste score), aggregated, mixed with the node's own embedding through a
per-layer affine map, and squashed (rectifier inside, tanh at the final
layer).  Depth 0 disables the item side (the candidate embedding is
used raw); ``user_table`` replaces the ripple path with a plain learned
user embedding.  Either switch yields the single-side ablations.

Prediction is the logistic of o . i.  There is one forward path:
:func:`forward` scores a whole :class:`BatchBags` (one example is a
batch of one) and keeps every stage -- hop attention and responses, the
user representation, tree attention, the item representation and the
prediction -- in its :class:`ForwardTrace`.  The computation graph is
small and static, so gradients are derived per operation against that
trace instead of running autodiff.  Forward passes over frozen
parameters are pure functions of (params, sampled bags) and safe to run
concurrently; gradient accumulation and updates are single writer.

Both sides work per (example, relation), not per bag row or tree edge.
On the user side, since (R_r h) . v = h . (R_r^T v), one GEMM gives
R_r^T v for every example and relation, and each bag row takes its own
at flat key b * R + r.  On the item side, one GEMM gives the taste
score o . r_e of every example and relation, and each tree edge takes
its own at the same flat key (a ``NULL_RELATION`` pad reads relation 0
and is then set to 0).

Every backward term is a weight per bag row times a row of a small
source -- a per-example gradient, R_r^T v, or the embedding table
itself -- so no per-row gradient array is built: each term is an entry
of one sparse (COO) matrix times that source.  The backward reduces
S[b, r] = sum of g_score * h over the rows of example b with relation r
(one sparse product with ``entity_emb`` per hop), after which the
candidate and ``relation_mat`` gradients are one GEMM each.  Likewise
G[b, r] sums the tree edges' score gradients, pads zeroed, with one
``bincount`` over their keys, after which the user-representation and
``relation_vec`` gradients are one GEMM each.  Every ``entity_emb``
gradient term of a batch (hop heads and tails, tree levels, candidates)
is collected and summed by one sparse product over the stacked sources
at the end.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse

from . import metrics
from .core import ParamStore, sigmoid, softmax, xavier_uniform
from .kg import NULL_RELATION, RippleTable, build_ripple_table, sample_children

logger = logging.getLogger(__name__)

PROB_CLAMP = 1e-7  # predictions are clamped to [PROB_CLAMP, 1 - PROB_CLAMP] inside the loss


@dataclass
class Hyperparams:
    """Model and training knobs.

    ``conv_layers`` is the item-side aggregation depth; 0 disables item
    enhancement (ablation).  ``fusion`` selects how hop responses merge:
    ``"shared"`` applies one map to their sum plus the candidate,
    ``"recursive"`` chains per-hop maps and adds the candidate at the
    end.  ``precision`` is ``"f32"`` by default; finite-difference
    gradient checks need ``"f64"``.  Training always uses Adam at ``lr``
    and samples ripple sets once per run.
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
    precision: str = "f32"

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
        if self.precision not in ("f32", "f64"):
            raise ValueError(f"unknown precision {self.precision!r}")

    @property
    def dtype(self):
        return np.float64 if self.precision == "f64" else np.float32


def param_shapes(num_entities, num_relations, hp, num_users=0):
    """Name -> shape of every tensor of the model, in creation order.

    ``entity_emb`` (E, d), ``relation_mat`` (R, d, d) for hop attention,
    ``relation_vec`` (R, d) for taste scores, ``fusion_w`` (1 or H, d, d),
    ``conv_w``/``conv_b`` per item layer, and ``user_emb`` (U, d) only
    under ``user_table``.
    """
    d = hp.embed_dim
    shapes = {
        "entity_emb": (num_entities, d),
        "relation_mat": (num_relations, d, d),
        "relation_vec": (num_relations, d),
        "fusion_w": (hp.hops if hp.fusion == "recursive" else 1, d, d),
    }
    if hp.conv_layers >= 1:
        shapes["conv_w"] = (hp.conv_layers, d, d)
        shapes["conv_b"] = (hp.conv_layers, d)
    if hp.user_table:
        shapes["user_emb"] = (num_users, d)
    return shapes


def init_params(num_entities, num_relations, hp, seed=0, num_users=0):
    """Xavier-uniform parameter store with the tensors of :func:`param_shapes`.

    Biases (``conv_b``) start at zero; everything else within the Xavier
    bound.
    """
    if hp.user_table and num_users < 1:
        raise ValueError("user_table requires num_users")
    rng = np.random.default_rng([seed, 11])
    params = ParamStore(dtype=hp.dtype)
    for name, shape in param_shapes(num_entities, num_relations, hp, num_users).items():
        if name == "conv_b":
            params.add(name, np.zeros(shape, dtype=hp.dtype))
        else:
            params.add(name, xavier_uniform(shape, rng, hp.dtype))
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
    """Freeze ripple bags and neighbor trees for a batch of (user, item, label).

    ``ripple_sets`` is the :class:`~ripplerec.kg.RippleTable` of
    :func:`build_ripple_sets`; every hop bag of the batch (none under
    ``user_table``) is one take from it.  A user the table does not know
    raises ``KeyError`` naming the first such user.
    """
    records = np.asarray(records)
    if len(records) == 0:
        raise ValueError("cannot assemble an empty batch")
    users = records[:, 0].astype(np.int64)
    items = records[:, 1].astype(np.int64)
    labels = records[:, 2].astype(np.int64)
    v_idx = np.asarray(item_entities, dtype=np.int64)[items]
    hop_bags = list(ripple_sets.take(users))
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
    rt_v_all: np.ndarray | None = None  # (B, R, d): R_r^T v per example and relation
    hop_keys: list[np.ndarray] = field(default_factory=list)  # per hop (B, n_p): flat key b * R + r
    hop_attn: list[np.ndarray] = field(default_factory=list)  # per hop (B, n_p)
    hop_resp: list[np.ndarray] = field(default_factory=list)  # per hop (B, d)
    fusion_in: np.ndarray | None = None  # shared variant: sum_k O_k + v
    rec_in: list[np.ndarray] = field(default_factory=list)  # recursive variant inputs per hop
    u_rep: np.ndarray | None = None  # (B, d)
    tree_z: list[np.ndarray] = field(default_factory=list)  # per depth (B, n, d) post-activation
    tree_keys: list[np.ndarray] = field(default_factory=list)  # per depth 0..L-1: (B, n * n_e), pad as r = 0
    tree_alpha: list[np.ndarray] = field(default_factory=list)  # per depth 0..L-1: (B, n, n_e)
    tree_in: list[np.ndarray] = field(default_factory=list)  # per depth 0..L-1: (B, n, d) pre-affine
    tree_pre: list[np.ndarray] = field(default_factory=list)  # per depth 0..L-1: (B, n, d) pre-activation
    i_rep: np.ndarray | None = None  # (B, d)
    logit: np.ndarray | None = None  # (B,)
    yhat: np.ndarray | None = None  # (B,)


def _relation_transpose_apply(rel_mat, v):
    """R_r^T v for every row of ``v`` (B, d) and every relation: (B, R, d)."""
    n_rel, d, _ = rel_mat.shape
    return (v @ rel_mat.transpose(1, 0, 2).reshape(d, n_rel * d)).reshape(len(v), n_rel, d)


def _relation_keys(rels, n_rel):
    """Flat key b * R + r of each (example, relation) pair in ``rels`` (B, n), (B, n).

    A relation outside [0, R) raises ``IndexError``: as a flat key it
    would read another example's row (r >= R) or wrap to relation R - 1
    (r < 0, e.g. ``NULL_RELATION``).
    """
    out_of_range = (rels < 0) | (rels >= n_rel)
    if np.any(out_of_range):
        raise IndexError(f"relation {rels[out_of_range][0]} outside [0, {n_rel})")
    return np.arange(len(rels))[:, None] * n_rel + rels


def _hop_forward(params, bag, rt_v_all, trace):
    """Attention response of one ripple hop against the candidates.

    ``rt_v_all`` is :func:`_relation_transpose_apply` of the candidates;
    triple (h, r, t) of example b scores h . rt_v_all[b, r].
    """
    ent = params.values["entity_emb"]
    heads, rels, tails = bag[..., 0], bag[..., 1], bag[..., 2]
    keys = _relation_keys(rels, rt_v_all.shape[1])
    rt_v_rows = rt_v_all.reshape(-1, rt_v_all.shape[-1])
    scores = np.einsum("bnd,bnd->bn", ent.take(heads, axis=0), rt_v_rows.take(keys, axis=0))
    attn = softmax(scores)
    resp = np.matmul(attn[:, None, :], ent.take(tails, axis=0))[:, 0]
    trace.hop_keys.append(keys)
    trace.hop_attn.append(attn)
    trace.hop_resp.append(resp)
    return resp


def _user_forward(params, bags, hp, trace):
    if hp.user_table:
        trace.u_rep = params.values["user_emb"].take(bags.users, axis=0)
        return trace.u_rep
    v = trace.v
    trace.rt_v_all = _relation_transpose_apply(params.values["relation_mat"], v)
    responses = [_hop_forward(params, bags.hop_bags[k], trace.rt_v_all, trace) for k in range(hp.hops)]
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

    # taste score u . r_e of every (example, relation), read by each tree edge at flat key b * R + r
    taste = (u @ rel_vec.T).reshape(-1)
    z = [None] * (depth + 1)
    z[depth] = ent.take(bags.tree_ents[depth], axis=0)
    trace.tree_keys = [None] * depth
    trace.tree_alpha = [None] * depth
    trace.tree_in = [None] * depth
    trace.tree_pre = [None] * depth
    for level in range(depth - 1, -1, -1):
        b, n = bags.tree_ents[level].shape
        child_rel = bags.tree_rels[level + 1].reshape(b, n * n_e)
        child_z = z[level + 1].reshape(b, n, n_e, -1)
        pad = child_rel == NULL_RELATION
        keys = _relation_keys(np.where(pad, 0, child_rel), len(rel_vec))
        scores = np.where(pad, 0.0, taste.take(keys)).reshape(b, n, n_e)
        alpha = softmax(scores)
        agg = np.matmul(alpha[..., None, :], child_z)[..., 0, :]
        own = ent.take(bags.tree_ents[level], axis=0)
        mixed = own + agg
        pre = mixed @ conv_w[level].T + conv_b[level]
        z[level] = np.tanh(pre) if level == 0 else np.maximum(pre, 0.0)
        trace.tree_keys[level] = keys
        trace.tree_alpha[level] = alpha
        trace.tree_in[level] = mixed
        trace.tree_pre[level] = pre
    trace.tree_z = z
    trace.i_rep = z[0][:, 0, :]
    return trace.i_rep


def forward(params, bags, hp):
    """Full forward pass over frozen bags; returns a populated trace."""
    trace = ForwardTrace(v=params.values["entity_emb"].take(bags.v_idx, axis=0))
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
    data = ce.mean() if mean else ce.sum()
    return float(data + hp.l2_weight * params.l2_penalty())


# -- backward ------------------------------------------------------------------


def _add_rows(grad, rows, cols, weights, src):
    """grad[rows[i]] += weights[i] * src[cols[i]] for every entry i, in entry order.

    ``cols`` broadcasts against ``weights``; ``rows`` holds as many
    entries.  One sparse product: a COO matrix holding weight i at
    (rows[i], cols[i]) times the source table ``src``.  Duplicate rows
    sum; rows no entry names receive exactly zero.
    """
    cols = np.broadcast_to(cols, weights.shape)
    coo = sparse.coo_array((weights.reshape(-1), (rows.reshape(-1), cols.reshape(-1))),
                           shape=(grad.shape[0], src.shape[0]))
    grad += coo @ src


class _RowTerms:
    """The ``entity_emb`` gradient of a batch as weighted rows of small sources.

    Backward stages stack the tables their terms read with
    :meth:`source` and add (row, column, weight) entries with
    :meth:`add`; :meth:`scatter` sums every entry into the gradient with
    one :func:`_add_rows`, in the order added.  Sources are read at
    :meth:`scatter`, so they must not change after they are stacked.
    """

    def __init__(self):
        self.sources = []
        self.entries = []
        self.size = 0

    def source(self, src):
        """Stack the rows of ``src`` (..., d); returns the column of its first row."""
        flat = src.reshape(-1, src.shape[-1])
        self.sources.append(flat)
        self.size += len(flat)
        return self.size - len(flat)

    def add(self, rows, cols, weights):
        """Entries as :func:`_add_rows` takes them, ``cols`` counted in the stack."""
        self.entries.append((rows, np.broadcast_to(cols, weights.shape), weights))

    def add_unit(self, rows, src):
        """Row i of ``src`` (rows.shape + (d,)) into rows[i]; returns its columns."""
        cols = self.source(src) + np.arange(rows.size).reshape(rows.shape)
        self.add(rows, cols, np.ones(rows.shape, dtype=src.dtype))
        return cols

    def scatter(self, grad):
        rows, cols, weights = (np.concatenate([entry[i].reshape(-1) for entry in self.entries])
                               for i in range(3))
        _add_rows(grad, rows, cols, weights, np.concatenate(self.sources))


def _hop_backward(params, bag, trace, k, g_resp, s, terms, rt_col):
    """Backward of one hop.

    Adds the hop's ``entity_emb`` terms (tails, then heads against the
    R_r^T v rows stacked at column ``rt_col``) to ``terms`` and
    g_score * h of each bag row into ``s`` (B * R, d) at row b * R + r,
    leaving the candidate and relation gradients to the caller.
    """
    ent = params.values["entity_emb"]
    heads, tails = bag[..., 0], bag[..., 2]
    keys = trace.hop_keys[k]
    attn = trace.hop_attn[k]

    # resp = sum_n attn_n * t_n
    g_attn = np.matmul(ent.take(tails, axis=0), g_resp[..., None])[..., 0]
    terms.add(tails, terms.source(g_resp) + np.arange(len(bag))[:, None], attn)
    # softmax jacobian within the bag
    g_scores = attn * (g_attn - np.sum(attn * g_attn, axis=-1, keepdims=True))
    # score_n = h_n . (R_r^T v)[b, r]
    terms.add(heads, rt_col + keys, g_scores)
    _add_rows(s, keys, heads, g_scores, ent)


def _user_backward(params, bags, hp, trace, g_u, grads, g_v, terms):
    if hp.user_table:
        _add_rows(grads["user_emb"], bags.users, np.arange(len(g_u)), np.ones(len(g_u), g_u.dtype), g_u)
        return
    w = params.values["fusion_w"]
    if hp.fusion == "shared":
        grads["fusion_w"][0] += g_u.T @ trace.fusion_in
        g_fused = g_u @ w[0]
        g_v += g_fused
        hop_grads = [g_fused] * hp.hops
    else:
        g_v += g_u
        g_carry = g_u
        hop_grads = [None] * hp.hops
        for k in range(hp.hops - 1, -1, -1):
            grads["fusion_w"][k] += g_carry.T @ trace.rec_in[k]
            g_in = g_carry @ w[k]
            hop_grads[k] = g_in
            g_carry = g_in
    rel_mat = params.values["relation_mat"]
    n_rel, d, _ = rel_mat.shape
    v = trace.v
    # S[b, r]: sum of g_score * h over the bag rows of example b with relation r, all hops
    s = np.zeros((len(v) * n_rel, d), dtype=v.dtype)
    rt_col = terms.source(trace.rt_v_all)
    for k in range(hp.hops):
        _hop_backward(params, bags.hop_bags[k], trace, k, hop_grads[k], s, terms, rt_col)
    s = s.reshape(len(v), n_rel * d)
    # score = v . (R_r h): dv = sum_r R_r S[b, r], dR_r = sum_b v_b S[b, r]^T
    g_v += s @ rel_mat.transpose(0, 2, 1).reshape(n_rel * d, d)
    grads["relation_mat"] += (v.T @ s).reshape(d, n_rel, d).transpose(1, 0, 2)


def _item_backward(params, bags, hp, trace, g_i, grads, g_v, g_u, terms):
    if hp.conv_layers == 0:
        g_v += g_i
        return
    rel_vec = params.values["relation_vec"]
    conv_w = params.values["conv_w"]
    u = trace.u_rep
    depth = hp.conv_layers
    n_e = hp.neighbor_size
    d = u.shape[-1]

    g_score_levels = []
    g_z = g_i[:, None, :]  # gradient w.r.t. z[0] (B, 1, d)
    for level in range(depth):
        z_here = trace.tree_z[level]
        pre = trace.tree_pre[level]
        if level == 0:
            g_pre = g_z * (1.0 - z_here * z_here)
        else:
            g_pre = g_z * (pre > 0.0)
        grads["conv_w"][level] += g_pre.reshape(-1, d).T @ trace.tree_in[level].reshape(-1, d)
        grads["conv_b"][level] += g_pre.sum(axis=(0, 1))
        g_mixed = g_pre @ conv_w[level]
        node_cols = terms.add_unit(bags.tree_ents[level], g_mixed)

        b, n = bags.tree_ents[level].shape
        child_z = trace.tree_z[level + 1].reshape(b, n, n_e, -1)
        alpha = trace.tree_alpha[level]

        g_alpha = np.einsum("bnd,bncd->bnc", g_mixed, child_z)
        g_scores = alpha * (g_alpha - np.sum(alpha * g_alpha, axis=-1, keepdims=True))
        # a pad edge's score is the constant 0; its key reads relation 0, so it must add nothing
        pad = bags.tree_rels[level + 1].reshape(g_scores.shape) == NULL_RELATION
        g_score_levels.append(np.where(pad, 0.0, g_scores))
        # child c of node (b, n) receives alpha[b, n, c] * g_mixed[b, n]
        if level + 1 < depth:
            g_z = (alpha[..., None] * g_mixed[:, :, None, :]).reshape(b, n * n_e, -1)
        else:
            terms.add(bags.tree_ents[depth], node_cols[..., None], alpha)
    # score = u[b] . rel_vec[r]: G[b, r] sums g_score over every tree edge of example b with relation r
    n_rel = len(rel_vec)
    g_taste = np.bincount(np.concatenate([keys.reshape(-1) for keys in trace.tree_keys]),
                          weights=np.concatenate([g.reshape(-1) for g in g_score_levels]),
                          minlength=len(u) * n_rel).reshape(len(u), n_rel).astype(u.dtype)
    g_u += g_taste @ rel_vec
    grads["relation_vec"] += g_taste.T @ u


def _backward(params, bags, hp, trace, g_logit):
    """Gradients of the batch into ``params.grads`` from dloss/dlogit."""
    grads = params.grads
    g_u = g_logit[:, None] * trace.i_rep
    g_i = g_logit[:, None] * trace.u_rep
    g_v = np.zeros_like(trace.v)
    terms = _RowTerms()
    # item side first: it also feeds gradient into u (taste scores)
    _item_backward(params, bags, hp, trace, g_i, grads, g_v, g_u, terms)
    _user_backward(params, bags, hp, trace, g_u, grads, g_v, terms)
    terms.add_unit(bags.v_idx, g_v)
    terms.scatter(grads["entity_emb"])


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
    _backward(params, bags, hp, trace, (trace.yhat - y) * scale * inside)
    params.add_l2_grads(hp.l2_weight)
    return loss, trace


def score_batch(params, records, kg, ripple_sets, hp, item_entities, rng):
    """Predicted interaction probabilities for (user, item, ...) records."""
    bags = assemble_batch(records, kg, ripple_sets, hp, item_entities, rng)
    return forward(params, bags, hp).yhat


# -- training loop ---------------------------------------------------------


@dataclass
class FitResult:
    """What :func:`fit` returns: the best-validation parameters, and the ripple table they trained on."""

    params: ParamStore
    history: list[dict]
    best_epoch: int
    test_report: metrics.MetricReport | None
    ripple_table: RippleTable
    diverged: bool = False
    skipped_users: int = 0  # distinct users whose train rows were dropped (unknown to the ripple table)


def build_ripple_sets(dataset, kg, hp, seed):
    """The run's :class:`~ripplerec.kg.RippleTable`, seeded by the entities of each user's train history.

    :func:`~ripplerec.kg.build_ripple_table` draws it from a generator
    seeded by ``seed``.  Under ``user_table`` the table has zero hops,
    knows every user and draws no random number.
    """
    if dataset.item_entities is None:
        raise ValueError("dataset has no item -> entity mapping; run prep first")
    if hp.user_table:
        return RippleTable(np.zeros((0, dataset.num_users, hp.ripple_size, 3), dtype=np.int64),
                           np.ones(dataset.num_users, dtype=bool))
    history = dataset.user_history
    users = np.repeat(np.fromiter(history, np.int64, len(history)), [len(items) for items in history.values()])
    items = np.concatenate([np.zeros(0, dtype=np.int64), *history.values()])
    return build_ripple_table(kg, users, dataset.item_entities[items], dataset.num_users,
                              hp.hops, hp.ripple_size, np.random.default_rng([seed, 17]))


def fit(dataset, kg, hp, seed=0, eval_train=False):
    """Minibatch training with per-epoch validation and best-snapshot selection.

    Ripple sets are built once per run; neighbor trees are drawn fresh
    per batch, and every batch ends in one Adam step.  Train rows of
    users the table does not know (``RippleTable.known``) are dropped,
    and ``skipped_users`` counts those users.  Divergence aborts the run
    and returns the last good snapshot with ``diverged`` set.
    Single-threaded and deterministic for a fixed seed.
    """
    params = init_params(kg.num_entities, kg.num_relations, hp, seed=seed, num_users=dataset.num_users)
    ripple_sets = build_ripple_sets(dataset, kg, hp, seed)
    keep = ripple_sets.known(dataset.train[:, 0])
    train = dataset.train[keep]
    skipped_users = len(np.unique(dataset.train[~keep, 0]))
    if not keep.all():
        logger.warning("dropped %d train rows of %d users without a ripple set",
                       int((~keep).sum()), skipped_users)
    if len(train) == 0:
        raise ValueError("no train rows (empty train split, or every user lacks a ripple set)")
    history: list[dict] = []
    best = params.copy()
    best_auc = -np.inf
    best_epoch = 0
    diverged = False
    stale = 0

    for epoch in range(1, hp.epochs + 1):
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
                params.adam_step(hp.lr)
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
    return FitResult(params=final, history=history, best_epoch=best_epoch, test_report=test_report,
                     ripple_table=ripple_sets, diverged=diverged, skipped_users=skipped_users)
