"""Dual knowledge-graph enhancement scorer with hand-derived gradients.

User side: attention over per-hop ripple bags.  Each bag triple
(h, r, t) is scored by (R_r h) . v against the candidate embedding v,
softmax-normalized within its bag, and the tails are summed into a hop
response; the sum of the hop responses plus the candidate goes through
one learned map into the user representation o.  Every user's bags sit
in one ripple table (:func:`build_ripple_sets`), and a batch reads all
of its hop bags with one take from it.

Item side: relation-scored neighbor convolution.  Sampled neighbors of
the item entity (rows of the run's neighbor table,
:func:`build_neighbor_table`, so every tree is a few takes) are
weighted by softmax over o . r_e (a per-relation taste score),
aggregated, mixed with the node's own embedding through a per-layer
affine map, and squashed (rectifier inside, tanh at the final layer).
Depth 0 disables the item side (the candidate embedding is used raw);
``user_table`` replaces the ripple path with a plain learned user
embedding.  Either switch yields the single-side ablations.

Prediction is the logistic of o . i.  There is one forward path:
:func:`forward` scores a whole :class:`BatchBags` (one example is a
batch of one) and keeps every stage -- hop attention and responses, the
user representation, tree attention, the item representation and the
prediction -- in its :class:`ForwardTrace`.  The computation graph is
small and static, so gradients are derived per operation against that
trace instead of running autodiff.  Forward passes over frozen
parameters are pure functions of (params, sampled bags) and safe to run
concurrently; a train step returns its gradients as new arrays, and
only the optimizer writes the parameters.  Assembling a batch reads
the run's two tables and draws no random number.

Both sides work per (example, relation), not per bag row or tree edge.
On the user side, since (R_r h) . v = h . (R_r^T v), one GEMM gives
R_r^T v for every example and relation, and each bag row takes its own
at flat key b * R + r.  On the item side, one GEMM gives the taste
score o . r_e of every example and relation, laid out (B, R + 1) with
relation r at column r + 1 and column 0 held at 0, and each tree edge
takes its own at flat key b * (R + 1) + r + 1, so a ``NULL_RELATION``
pad reads the zero column.

The backward runs in two stages.  :func:`_row_grads` computes the
per-example arrays, row b of each from example b alone, and writes
nothing it did not allocate; :func:`_reduce` then runs every sum over
the batch and returns every tensor's gradient as a new array.  Every
backward term is a weight per bag row times a row of a small source -- a
per-example gradient, R_r^T v, or the embedding table itself -- so no
per-row gradient array is built: each term is a (row, column, weight)
entry of a sparse (COO) product with that source, added straight into
its output (:func:`_add_rows`).  Per example, S[b, r] sums g_score * h
over the hop rows of example b with relation r (one such sum with
``entity_emb`` per hop), and G[b, r] sums the tree edges' score
gradients (each level added in turn into one f64 column by key, whose
pad column is then dropped).  Every one of these sums runs one scipy
kernel, loaded from its extension file alone, so a training step runs
no ``scipy.sparse`` package init.  The reduce turns S and G into the
``relation_mat`` and ``relation_vec`` gradients with one GEMM each,
and zeroes the ``entity_emb`` gradient once and adds each entry group
of the batch (tree levels, hop tails and heads, candidates) into it
from the group's own source as it derives the group, so no entry or
source is copied into a stack and one group's indices are alive at a
time.

Every stage that reads a gather of embedding rows per example (hop
scores and responses, their attention gradient, the tree aggregation
and its gradient) runs over blocks of :data:`GATHER_ROWS` examples, so
one block's gather is alive at a time and the trace keeps none of
these gathers: the backward gathers the tree's leaf rows again, block
by block.  Each hop's S sum and the reduce's adds of each hop's tails
and heads run over the same blocks, so one block's sum and index copies
are alive at a time.
A blocked op works row by row, so the bytes do not depend on the block
size, and every sum over rows runs in the reduce, over the whole batch,
in the batch's entry order.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import logging
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from . import metrics
from .core import ParamStore, _last_axis_sum, sigmoid, softmax, xavier_uniform
from .kg import NULL_RELATION, NeighborTable, RippleTable, build_ripple_table, index_dtype, sample_children

logger = logging.getLogger(__name__)

PROB_CLAMP = 1e-7  # predictions are clamped to [PROB_CLAMP, 1 - PROB_CLAMP] inside the loss
SCORE_ROWS = 512  # examples per forward in score_batch: bounds the bags and trace one slice holds
GATHER_ROWS = 256  # examples per block of an embedding gather: 256 x 64 leaf rows of 16 f32 is 1 MiB


@dataclass
class Hyperparams:
    """Model and training knobs.

    ``conv_layers`` is the item-side aggregation depth; 0 disables item
    enhancement (ablation).  ``precision`` is ``"f32"`` by default;
    finite-difference gradient checks need ``"f64"``.  Training always
    uses Adam at ``lr`` on the batch-mean cross-entropy, with decoupled
    weight decay: each step multiplies every tensor by ``1 - lr * l2_weight``
    in the precision's dtype.  In f32 that factor is 1 whenever
    ``lr * l2_weight <= 2**-25`` (about 2.98e-8), so the defaults (1e-9)
    decay nothing there; in f64 they do.  It draws the ripple and
    neighbor tables once per run; ACC cuts at 0.5.
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
    patience: int = 5
    user_table: bool = False
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
        if not (np.isfinite(self.l2_weight) and self.l2_weight >= 0):
            raise ValueError("l2_weight must be finite and >= 0")
        if not (np.isfinite(self.lr) and self.lr > 0):
            raise ValueError("lr must be finite and > 0")
        if self.lr * self.l2_weight >= 1:
            raise ValueError("lr * l2_weight must be < 1: each step multiplies the parameters by 1 - lr * l2_weight")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.epochs < 0 or self.patience < 0:
            raise ValueError("epochs and patience must be >= 0")
        if self.precision not in ("f32", "f64"):
            raise ValueError(f"unknown precision {self.precision!r}")

    @property
    def dtype(self):
        return np.float64 if self.precision == "f64" else np.float32


def param_shapes(num_entities, num_relations, hp, num_users=0):
    """Name -> shape of every tensor of the model, in creation order.

    ``entity_emb`` (E, d), ``relation_mat`` (R, d, d) for hop attention,
    ``relation_vec`` (R, d) for taste scores, ``fusion_w`` (d, d),
    ``conv_w``/``conv_b`` per item layer, and ``user_emb`` (U, d) only
    under ``user_table``.
    """
    d = hp.embed_dim
    shapes = {
        "entity_emb": (num_entities, d),
        "relation_mat": (num_relations, d, d),
        "relation_vec": (num_relations, d),
        "fusion_w": (d, d),
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
        params.add(name, np.zeros(shape) if name == "conv_b" else xavier_uniform(shape, rng, hp.dtype))
    return params


# -- sampled batch structure --------------------------------------------------


@dataclass
class BatchBags:
    """All sampled structure for one batch, frozen before the forward pass."""

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


def sample_item_trees(table, v_idx, conv_layers):
    """Receptive-field tree around each candidate entity, depth ``conv_layers``.

    Each level is one take of the previous level's rows from the
    :class:`~ripplerec.kg.NeighborTable` ``table``, so an entity has
    the same children wherever it appears.
    """
    ents = [np.asarray(v_idx, dtype=np.int64).reshape(-1, 1)]
    rels = [None]
    for _ in range(conv_layers):
        rels.append(table.rel.take(ents[-1], axis=0).reshape(len(ents[0]), -1))
        ents.append(table.nbr.take(ents[-1], axis=0).reshape(len(ents[0]), -1))
    return ents, rels


def assemble_batch(records, table, ripple_sets, hp, item_entities):
    """Freeze ripple bags and neighbor trees for a batch of (user, item, label).

    ``table`` is the :class:`~ripplerec.kg.NeighborTable` of
    :func:`build_neighbor_table`, whose width must be
    ``hp.neighbor_size``; ``ripple_sets`` is the
    :class:`~ripplerec.kg.RippleTable` of :func:`build_ripple_sets`.
    Every tree level and every hop bag of the batch (none under
    ``user_table``) is one take, so assembly draws no random number.  A
    user the ripple table does not know raises ``KeyError`` naming the
    first such user.
    """
    records = np.asarray(records)
    if len(records) == 0:
        raise ValueError("cannot assemble an empty batch")
    if table.rel.shape[1] != hp.neighbor_size:
        raise ValueError(f"neighbor table holds {table.rel.shape[1]} edges per entity, "
                         f"neighbor_size is {hp.neighbor_size}")
    users = records[:, 0].astype(np.int64)
    items = records[:, 1].astype(np.int64)
    labels = records[:, 2].astype(np.int64)
    v_idx = np.asarray(item_entities, dtype=np.int64)[items]
    hop_bags = list(ripple_sets.take(users))
    tree_ents, tree_rels = sample_item_trees(table, v_idx, hp.conv_layers)
    return BatchBags(
        users=users, items=items, labels=labels, v_idx=v_idx,
        hop_bags=hop_bags, tree_ents=tree_ents, tree_rels=tree_rels,
    )


# -- forward -------------------------------------------------------------------


@dataclass
class ForwardTrace:
    """The float state of the forward that the hand-derived backward cannot rebuild.

    The backward recomputes the flat relation keys of hop rows and tree
    edges from the bags, and gathers the tree's leaf rows again.
    """

    v: np.ndarray  # (B, d) candidate embeddings
    rt_v_all: np.ndarray | None = None  # (B, R, d): R_r^T v per example and relation
    hop_attn: list[np.ndarray] = field(default_factory=list)  # per hop (B, n_p)
    hop_resp: list[np.ndarray] = field(default_factory=list)  # per hop (B, d)
    fusion_in: np.ndarray | None = None  # sum_k O_k + v
    u_rep: np.ndarray | None = None  # (B, d)
    tree_z: list[np.ndarray] = field(default_factory=list)  # per depth 0..L-1: (B, n, d) post-activation
    tree_alpha: list[np.ndarray] = field(default_factory=list)  # per depth 0..L-1: (B, n, n_e)
    tree_in: list[np.ndarray] = field(default_factory=list)  # per depth 0..L-1: (B, n, d) pre-affine
    i_rep: np.ndarray | None = None  # (B, d)
    logit: np.ndarray | None = None  # (B,)
    yhat: np.ndarray | None = None  # (B,)


def _rows_matmul(a, b):
    """``a @ b`` for a 2-D ``a`` of one row per example; a row's result does not depend on the row count.

    numpy hands a one-row product to BLAS gemv, which rounds differently
    from the gemm that every larger batch takes, so a lone row is doubled
    and its first copy kept.
    """
    if len(a) == 1:
        return (np.concatenate((a, a)) @ b)[:1]
    return a @ b


def _nodes_matmul(a, b):
    """``a @ b`` for ``a`` (B, n, d) of n tree nodes per example: one flat GEMM when n > 1.

    numpy runs a stacked product as one small GEMM per example; a flat
    ``(B * n, d)`` GEMM gives the same bytes, faster.  With one node per
    example numpy hands each row to gemv, which a flat GEMM would round
    differently (see :func:`_rows_matmul`), so n = 1 keeps the stacked product.
    """
    if a.shape[1] == 1:
        return a @ b
    return (a.reshape(-1, a.shape[-1]) @ b).reshape(a.shape[:-1] + b.shape[-1:])


def _relation_transpose_apply(rel_mat, v):
    """R_r^T v for every row of ``v`` (B, d) and every relation: (B, R, d)."""
    n_rel, d, _ = rel_mat.shape
    return _rows_matmul(v, rel_mat.transpose(1, 0, 2).reshape(d, n_rel * d)).reshape(len(v), n_rel, d)


def _blocks(rows):
    """Consecutive slices of at most :data:`GATHER_ROWS` of ``rows`` rows, in order."""
    return [slice(lo, lo + GATHER_ROWS) for lo in range(0, rows, GATHER_ROWS)]


def _row_blocked(rows, block):
    """The ``rows`` rows of ``block(blk)``, called on each slice ``blk`` of :func:`_blocks`.

    ``block`` computes the rows of its slice row by row, so the bytes do
    not depend on where the slices are cut, and only one slice's gather
    is alive at a time.
    """
    out = None
    for blk in _blocks(rows):
        part = block(blk)
        if out is None:
            out = np.empty((rows,) + part.shape[1:], dtype=part.dtype)
        out[blk] = part
    return out


def _relation_keys(rels, n_rel, lo=0):
    """Flat key b * (R - lo) + r - lo of each (example, relation) pair in ``rels`` (B, n), (B, n).

    ``lo`` is the lowest relation the row of an example holds a column
    for; :func:`forward` has checked that every relation lies in [lo, R).
    Keys have the wider of the dtype of ``rels`` and
    :func:`~ripplerec.kg.index_dtype` of B * (R - lo).
    """
    return (np.arange(len(rels), dtype=index_dtype(len(rels) * (n_rel - lo))) * (n_rel - lo) - lo)[:, None] + rels


def _hop_forward(params, bag, rt_v_all, trace):
    """Attention response of one ripple hop against the candidates.

    ``rt_v_all`` is :func:`_relation_transpose_apply` of the candidates;
    triple (h, r, t) of example b scores h . rt_v_all[b, r].
    """
    ent = params.values["entity_emb"]
    heads, rels, tails = bag[..., 0], bag[..., 1], bag[..., 2]
    keys = _relation_keys(rels, rt_v_all.shape[1])
    rt_v_rows = rt_v_all.reshape(-1, rt_v_all.shape[-1])
    attn = _row_blocked(len(bag), lambda blk: softmax(
        np.einsum("bnd,bnd->bn", ent.take(heads[blk], axis=0), rt_v_rows.take(keys[blk], axis=0))))
    resp = _row_blocked(len(bag), lambda blk: np.matmul(attn[blk, None, :], ent.take(tails[blk], axis=0))[:, 0])
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
    trace.fusion_in = np.sum(responses, axis=0) + v
    trace.u_rep = _rows_matmul(trace.fusion_in, params.values["fusion_w"].T)
    return trace.u_rep


def _child_rows(ent, bags, tree_z, level, blk):
    """Rows of the children of tree level ``level`` for the examples ``blk``: (b, n, n_e, d).

    Upper levels read their activations in ``tree_z``, which holds
    levels 0..L-1; the leaves (level L) are gathered from ``ent``.
    """
    if level + 1 < len(tree_z):
        child = tree_z[level + 1][blk]
    else:
        child = ent.take(bags.tree_ents[level + 1][blk], axis=0)
    return child.reshape(len(child), bags.tree_ents[level].shape[1], -1, ent.shape[-1])


def _item_forward(params, bags, hp, trace):
    ent = params.values["entity_emb"]
    if hp.conv_layers == 0:
        trace.i_rep = trace.v
        return trace.i_rep
    rel_vec = params.values["relation_vec"]
    conv_w = params.values["conv_w"]
    conv_b = params.values["conv_b"]
    u = trace.u_rep
    depth, n_e = hp.conv_layers, hp.neighbor_size

    # taste score u . r_e of every (example, relation) at column r + 1; column 0 is a pad edge's score, 0
    taste = np.zeros((len(u), len(rel_vec) + 1), dtype=u.dtype)
    taste[:, 1:] = _rows_matmul(u, rel_vec.T)
    taste = taste.reshape(-1)
    z, trace.tree_alpha, trace.tree_in = ([None] * depth for _ in range(3))
    for level in range(depth - 1, -1, -1):
        b, n = bags.tree_ents[level].shape
        keys = _relation_keys(bags.tree_rels[level + 1].reshape(b, n * n_e), len(rel_vec), NULL_RELATION)
        alpha = softmax(taste.take(keys).reshape(b, n, n_e))
        agg = _row_blocked(b, lambda blk: np.matmul(alpha[blk, ..., None, :],
                                                    _child_rows(ent, bags, z, level, blk))[..., 0, :])
        own = ent.take(bags.tree_ents[level], axis=0)
        mixed = own + agg
        pre = _nodes_matmul(mixed, conv_w[level].T) + conv_b[level]
        z[level] = np.tanh(pre) if level == 0 else np.maximum(pre, 0.0)
        trace.tree_alpha[level] = alpha
        trace.tree_in[level] = mixed
    trace.tree_z = z
    trace.i_rep = z[0][:, 0, :]
    return trace.i_rep


def forward(params, bags, hp):
    """Full forward pass over frozen bags; returns a populated trace.

    First, once per forward, a hop bag's relation outside [0, R) or a tree
    level's outside [``NULL_RELATION``, R) raises ``IndexError``: as a key of
    :func:`_relation_keys` it would read another example's row (r >= R)
    or wrap to the end of the row before (r < lo).
    """
    n_rel = len(params.values["relation_vec"])
    for rels, lo in [(bag[..., 1], 0) for bag in bags.hop_bags] + [(r, NULL_RELATION) for r in bags.tree_rels[1:]]:
        low, high = rels.min(), rels.max()
        if low < lo or high >= n_rel:
            raise IndexError(f"relation {low if low < lo else high} outside [{lo}, {n_rel})")
    trace = ForwardTrace(v=params.values["entity_emb"].take(bags.v_idx, axis=0))
    _user_forward(params, bags, hp, trace)
    _item_forward(params, bags, hp, trace)
    trace.logit = np.einsum("bd,bd->b", trace.i_rep, trace.u_rep)
    trace.yhat = sigmoid(trace.logit)
    return trace


def batch_loss(params, bags, hp, trace=None):
    """Mean clamped cross-entropy of the batch; weight decay acts in the optimizer, not here."""
    if trace is None:
        trace = forward(params, bags, hp)
    y = bags.labels
    p = np.clip(trace.yhat, PROB_CLAMP, 1.0 - PROB_CLAMP)
    ce = -(y * np.log(p) + (1 - y) * np.log1p(-p))
    return float(ce.mean())


# -- backward ------------------------------------------------------------------


_KERNELS = "scipy.sparse._sparsetools"


@functools.cache
def _load_sparsetools():
    """scipy's compiled sparse kernels from their extension file alone, or through the package if the file is missing.

    For a process that has not imported ``scipy.sparse`` (:func:`_sparsetools`).
    ``find_spec("scipy")`` locates scipy without running any of it, so no
    ``scipy.sparse`` init (some 300 modules, about 19 MiB) runs for one
    extension.  A single-phase extension enters ``sys.modules`` as it
    loads; it is taken back out, because a later ``import scipy.sparse``
    that found it there would not bind it as the package's
    ``_sparsetools`` attribute.
    """
    scipy = importlib.util.find_spec("scipy")
    dirs = [os.path.join(path, "sparse") for path in scipy.submodule_search_locations] if scipy else []
    spec = importlib.machinery.PathFinder.find_spec(_KERNELS, dirs)
    if spec is None:
        return importlib.import_module(_KERNELS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    sys.modules.pop(_KERNELS, None)
    return module


def _sparsetools():
    """The kernel module: ``scipy.sparse``'s own once that package is imported, else :func:`_load_sparsetools`'s."""
    return sys.modules.get(_KERNELS) or _load_sparsetools()


def _add_rows(out, rows, cols, weights, src):
    """Add weights[i] * src[cols[i]] into row rows[i] of ``out`` (num_rows, d), in entry order.

    ``cols`` broadcasts against ``weights``; ``rows`` holds one entry per
    weight, and ``src`` is a (..., d) table whose leading axes are read
    flat.  The kernel is the one that
    ``coo_array((weights, (rows, cols))) @ src`` runs on a zeroed result:
    scipy's ``coo_matmat_dense``, or on a scipy without it (1.10, say) one
    ``coo_matvec`` per column, read from :func:`_sparsetools`, so a step
    loads no ``scipy.sparse`` package.  So adding into zeros gives that
    product's bytes, and adding two entry groups in turn gives the bytes
    of one product over their concatenation.  The kernel reads contiguous
    copies of the indices, in the :func:`~ripplerec.kg.index_dtype` of
    ``len(out)`` and the flat row count of ``src``, and of any weights or
    ``src`` that are strided or not of ``out``'s dtype.  A ``rows`` whose
    count differs from the weights', a ``src`` whose width is not
    ``out``'s, or an entry outside ``out`` or ``src``, raises
    ``ValueError`` before anything is added.
    """
    kernels = _sparsetools()
    src = np.ascontiguousarray(src, dtype=out.dtype)
    src = src.reshape(-1, src.shape[-1])
    index = index_dtype(len(out), len(src))
    rows = np.ascontiguousarray(rows, dtype=index).reshape(-1)
    cols = np.ascontiguousarray(np.broadcast_to(cols, weights.shape), dtype=index).reshape(-1)
    weights = np.ascontiguousarray(weights, dtype=out.dtype).reshape(-1)
    nnz, d = len(weights), out.shape[1]
    # the kernel reads and writes where the indices say, unchecked; a COO array checks them on construction
    if len(rows) != nnz:
        raise ValueError(f"{len(rows)} rows for {nnz} weights")
    if src.shape[1] != d:
        raise ValueError(f"src rows of width {src.shape[1]} for out rows of width {d}")
    for name, idx, bound in (("row", rows, len(out)), ("column", cols, len(src))):
        if nnz and (idx.min() < 0 or idx.max() >= bound):
            raise ValueError(f"an entry's {name} lies outside [0, {bound})")
    if hasattr(kernels, "coo_matmat_dense"):
        kernels.coo_matmat_dense(nnz, d, rows, cols, weights, src, out)
        return
    # the COO product of a scipy without coo_matmat_dense: one coo_matvec per column, in entry order
    for k in range(d):
        column = out[:, k].copy()
        kernels.coo_matvec(nnz, rows, cols, weights, src[:, k].copy(), column)
        out[:, k] = column


def _add_unit(out, rows, src):
    """Add row i of ``src`` (rows.shape + (d,), read flat) into row rows[i] of ``out``, at weight 1."""
    _add_rows(out, rows, np.arange(rows.size), np.ones(rows.size, dtype=out.dtype), src)


def _sum_rows(num_rows, rows, cols, weights, src):
    """A new (num_rows, d) array whose row r sums weights[i] * src[cols[i]] over the entries i with rows[i] = r.

    :func:`_add_rows` into zeros: duplicate rows sum, in entry order;
    rows no entry names are exactly zero.
    """
    out = np.zeros((num_rows, src.shape[-1]), dtype=np.result_type(weights, src))
    _add_rows(out, rows, cols, weights, src)
    return out


@dataclass
class _RowGrads:
    """Per-example gradients of a batch (:func:`_row_grads`); a side the model skips leaves its fields unset."""

    g_u: np.ndarray  # (B, d) dloss/du, the taste scores' share included
    g_v: np.ndarray  # (B, d) dloss/dv, the candidate's own row gradient
    g_fused: np.ndarray | None = None  # (B, d) gradient of fusion_in and of every hop response
    g_scores: list[np.ndarray] = field(default_factory=list)  # per hop (B, n_p) attention score gradients
    s: np.ndarray | None = None  # (B, R * d): S[b, r] sums g_score * h over example b's bag rows of relation r
    g_pre: list[np.ndarray] = field(default_factory=list)  # per level (B, n, d) gradient before the activation
    g_mixed: list[np.ndarray] = field(default_factory=list)  # per level (B, n, d) gradient of tree_in
    g_taste: np.ndarray | None = None  # (B, R) taste score gradient G[b, r], pad edges dropped


def _item_row_grads(params, bags, hp, trace, g_i, rows):
    """Item half of :func:`_row_grads`: each level's ``g_pre`` and ``g_mixed``, ``g_taste`` and its share of g_u."""
    if hp.conv_layers == 0:
        rows.g_v += g_i
        return
    ent = params.values["entity_emb"]
    rel_vec = params.values["relation_vec"]
    conv_w = params.values["conv_w"]
    u = trace.u_rep
    depth, n_e = hp.conv_layers, hp.neighbor_size
    n_rel = len(rel_vec)

    # score = u[b] . rel_vec[r]: G[b, r] sums g_score over every tree edge of example b with relation r,
    # in f64 and in entry order, level by level, as one bincount over the levels' keys would;
    # pad edges land in column 0, whose score is the constant 0, and are dropped
    taste, one = np.zeros((len(u) * (n_rel + 1), 1)), np.ones((1, 1))
    g_z = g_i[:, None, :]  # gradient w.r.t. z[0] (B, 1, d)
    for level in range(depth):
        z_here = trace.tree_z[level]
        # the ReLU levels' mask: max(pre, 0) > 0 exactly where pre > 0, NaN included
        g_pre = g_z * (1.0 - z_here * z_here) if level == 0 else g_z * (z_here > 0.0)
        g_mixed = _nodes_matmul(g_pre, conv_w[level])
        rows.g_pre.append(g_pre)
        rows.g_mixed.append(g_mixed)

        b, n = bags.tree_ents[level].shape
        alpha = trace.tree_alpha[level]
        g_alpha = _row_blocked(b, lambda blk: np.einsum("bnd,bncd->bnc", g_mixed[blk],
                                                        _child_rows(ent, bags, trace.tree_z, level, blk)))
        _add_rows(taste, _relation_keys(bags.tree_rels[level + 1].reshape(b, n * n_e), n_rel, NULL_RELATION), 0,
                  alpha * (g_alpha - _last_axis_sum(alpha * g_alpha)), one)
        # child c of node (b, n) receives alpha[b, n, c] * g_mixed[b, n]
        if level + 1 < depth:
            g_z = (alpha[..., None] * g_mixed[:, :, None, :]).reshape(b, n * n_e, -1)
    rows.g_taste = taste.reshape(len(u), n_rel + 1)[:, 1:].astype(u.dtype)
    rows.g_u += _rows_matmul(rows.g_taste, rel_vec)


def _user_row_grads(params, bags, hp, trace, rows):
    """User half of :func:`_row_grads`: ``g_fused``, each hop's ``g_scores``, ``s``, and their share of g_v."""
    if hp.user_table:
        return
    ent = params.values["entity_emb"]
    rel_mat = params.values["relation_mat"]
    n_rel, d, _ = rel_mat.shape
    rows.g_fused = _rows_matmul(rows.g_u, params.values["fusion_w"])
    rows.g_v += rows.g_fused
    # S[b, r]: sum of g_score * h over the bag rows of example b with relation r, all hops
    s = np.zeros((len(rows.g_u), n_rel, d), dtype=rows.g_u.dtype)
    for bag, attn in zip(bags.hop_bags, trace.hop_attn):
        tails = bag[..., 2]
        # resp = sum_n attn_n * t_n, and every hop's response gradient is g_fused
        g_attn = _row_blocked(len(bag), lambda blk: np.matmul(ent.take(tails[blk], axis=0),
                                                              rows.g_fused[blk, :, None])[..., 0])
        # softmax jacobian within the bag; score_n = h_n . (R_r^T v)[b, r]
        g_scores = attn * (g_attn - _last_axis_sum(attn * g_attn))
        rows.g_scores.append(g_scores)
        # the hop's sum, a block of examples at a time: rows of S read their own example's bag rows alone
        for blk in _blocks(len(bag)):
            part = bag[blk]
            s[blk] += _sum_rows(len(part) * n_rel, _relation_keys(part[..., 1], n_rel), part[..., 0],
                                g_scores[blk], ent).reshape(len(part), n_rel, d)
    rows.s = s.reshape(len(rows.g_u), n_rel * d)
    # score = v . (R_r h): dv = sum_r R_r S[b, r] (and dR_r = sum_b v_b S[b, r]^T in the reduce)
    rows.g_v += _rows_matmul(rows.s, rel_mat.transpose(0, 2, 1).reshape(n_rel * d, d))


def _row_grads(params, bags, hp, trace, g_logit):
    """Per-example stage of the backward: the :class:`_RowGrads` of dloss/dlogit; writes nothing it did not allocate.

    Row b of each array depends on example b alone, so a slice of the
    rows gives the same slice of each array.
    """
    rows = _RowGrads(g_u=g_logit[:, None] * trace.i_rep, g_v=np.zeros_like(trace.v))
    # item side first: it also feeds gradient into u (taste scores)
    _item_row_grads(params, bags, hp, trace, g_logit[:, None] * trace.u_rep, rows)
    _user_row_grads(params, bags, hp, trace, rows)
    return rows


def _reduce(params, bags, hp, trace, rows):
    """Every sum over the batch of the backward, from its ``rows`` (:func:`_row_grads`): the batch's gradients.

    A new array per tensor of ``params.values``, in its order, shape and
    dtype; zeros for a tensor the mode does not reach.  The parameter
    products run first; then ``rows`` drops ``s``, ``g_pre`` and
    ``g_taste``, which the entity gradient does not read.  That gradient
    is zeroed once, and each entry group is added into it with
    :func:`_add_rows` where it is derived: each tree level's own rows,
    the leaves, each hop's tails and heads, then the candidates.
    """
    values = params.values
    u = trace.u_rep
    n_rel, d, _ = values["relation_mat"].shape
    grads = {}
    if hp.conv_layers:
        grads["conv_w"] = np.stack([g_pre.reshape(-1, d).T @ tree_in.reshape(-1, d)
                                    for g_pre, tree_in in zip(rows.g_pre, trace.tree_in)])
        grads["conv_b"] = np.stack([g_pre.sum(axis=(0, 1)) for g_pre in rows.g_pre])
        grads["relation_vec"] = rows.g_taste.T @ u
    if hp.user_table:
        grads["user_emb"] = np.zeros_like(values["user_emb"])
        _add_unit(grads["user_emb"], bags.users, rows.g_u)
    else:
        grads["fusion_w"] = rows.g_u.T @ trace.fusion_in
        grads["relation_mat"] = (trace.v.T @ rows.s).reshape(d, n_rel, d).transpose(1, 0, 2)
    rows.s = rows.g_pre = rows.g_taste = None

    # each entry group of the entity gradient is added as it is derived, so its indices die before the next
    g_ent = grads["entity_emb"] = np.zeros_like(values["entity_emb"])
    for level in range(hp.conv_layers):
        _add_unit(g_ent, bags.tree_ents[level], rows.g_mixed[level])
    if hp.conv_layers:  # leaf c of node (b, n) receives alpha[b, n, c] * g_mixed[b, n]
        alpha = trace.tree_alpha[-1].reshape(-1, hp.neighbor_size)
        _add_rows(g_ent, bags.tree_ents[-1], np.arange(len(alpha))[:, None], alpha, rows.g_mixed[-1])
    if not hp.user_table:
        for bag, attn, g_scores in zip(bags.hop_bags, trace.hop_attn, rows.g_scores):
            # all tails against the rows of g_fused, then all heads against the R_r^T v rows, each a block
            # of examples at a time: the entry order is the hop's, and one block's index copies are alive
            for blk in _blocks(len(bag)):
                _add_rows(g_ent, bag[blk, :, 2], np.arange(len(attn[blk]))[:, None], attn[blk], rows.g_fused[blk])
            for blk in _blocks(len(bag)):
                _add_rows(g_ent, bag[blk, :, 0], _relation_keys(bag[blk, :, 1], n_rel), g_scores[blk],
                          trace.rt_v_all[blk])
    _add_unit(g_ent, bags.v_idx, rows.g_v)
    return {name: grads[name] if name in grads else np.zeros_like(value) for name, value in values.items()}


def _backward(params, bags, hp, trace, g_logit):
    """The batch's gradients from dloss/dlogit: :func:`_row_grads`, then :func:`_reduce`."""
    return _reduce(params, bags, hp, trace, _row_grads(params, bags, hp, trace, g_logit))


def forward_backward(params, bags, hp):
    """``(loss, grads, trace)``: the batch's mean loss, its analytic gradients and its forward trace.

    ``grads`` maps every tensor name to a new array of the tensor's shape
    and dtype (:func:`_reduce`); ``params`` is not written.  Embedding
    rows the batch does not reach, and tensors the mode does not use,
    have exactly zero gradient.  The item-side contribution of the user
    representation (taste scores) is chained back through the ripple
    path, so the user and item sides train jointly.  The trace holds the
    batch's per-row state (hop attention, every tree level's activations
    above the leaves), so a training loop should drop it, and the
    gradients once it has stepped on them, before its next batch.
    """
    trace = forward(params, bags, hp)
    bad = ~np.isfinite(trace.yhat)
    if np.any(bad):
        first = int(np.argmax(bad))
        raise FloatingPointError(f"non-finite prediction for batch example {first} "
                                 f"(user {bags.users[first]}, item {bags.items[first]})")
    loss = batch_loss(params, bags, hp, trace=trace)
    if not np.isfinite(loss):
        raise FloatingPointError("non-finite batch loss")

    y = bags.labels.astype(trace.yhat.dtype)
    inside = (trace.yhat > PROB_CLAMP) & (trace.yhat < 1.0 - PROB_CLAMP)
    grads = _backward(params, bags, hp, trace, (trace.yhat - y) * (1.0 / bags.size) * inside)
    return loss, grads, trace


def score_batch(params, records, table, ripple_sets, hp, item_entities):
    """Predicted interaction probabilities for (user, item, ...) records.

    Assembly and the forward run over consecutive slices of at most
    :data:`SCORE_ROWS` examples, so one slice's bags and trace are alive
    at a time; its gathers run in :data:`GATHER_ROWS` blocks within.
    Bags are takes from the run's tables, so each example's score is the
    same as from one forward over all of ``records``, however they are cut.
    """
    records = np.asarray(records)
    if len(records) == 0:
        raise ValueError("cannot score an empty batch")
    yhat = np.empty(len(records), dtype=params.values["entity_emb"].dtype)
    for lo in range(0, len(records), SCORE_ROWS):
        bags = assemble_batch(records[lo:lo + SCORE_ROWS], table, ripple_sets, hp, item_entities)
        yhat[lo:lo + SCORE_ROWS] = forward(params, bags, hp).yhat
    return yhat


# -- training loop ---------------------------------------------------------


@dataclass
class FitResult:
    """What :func:`fit` returns: the best-validation parameters, and the two tables they trained on."""

    params: ParamStore
    history: list[dict]
    best_epoch: int
    test_report: metrics.MetricReport | None
    ripple_table: RippleTable
    neighbor_table: NeighborTable
    diverged: bool = False
    skipped_users: int = 0  # distinct users whose train rows were dropped (unknown to the ripple table)


def build_ripple_sets(dataset, kg, hp, seed):
    """The run's :class:`~ripplerec.kg.RippleTable`, seeded by the entities of each user's train positives.

    A user's seeds are the items of their label-1 rows in
    ``dataset.train``, whatever the row order.
    :func:`~ripplerec.kg.build_ripple_table` draws the table from a
    generator seeded by ``seed``.  Under ``user_table`` the table has
    zero hops, knows every user and draws no random number.
    """
    if hp.user_table:
        return RippleTable(np.zeros((0, dataset.num_users, hp.ripple_size, 3), dtype=kg.nbr.dtype),
                           np.ones(dataset.num_users, dtype=bool))
    pos = dataset.train[dataset.train[:, 2] == 1]
    return build_ripple_table(kg, pos[:, 0], dataset.item_entities[pos[:, 1]], dataset.num_users,
                              hp.hops, hp.ripple_size, np.random.default_rng([seed, 17]))


def build_neighbor_table(kg, hp, seed):
    """The run's :class:`~ripplerec.kg.NeighborTable`: ``hp.neighbor_size`` edges of every entity.

    One :func:`~ripplerec.kg.sample_children` over all entities, from a
    generator seeded by ``seed``.  It is built in every mode (also with
    ``conv_layers = 0``, where no tree reads it), so a run has one path.
    """
    rels, nbrs = sample_children(kg, np.arange(kg.num_entities), hp.neighbor_size,
                                 np.random.default_rng([seed, 19]))
    return NeighborTable(rels, nbrs)


def fit(dataset, kg, hp, seed=0):
    """Minibatch training with per-epoch validation and best-snapshot selection.

    The ripple table (from the train split's label-1 rows,
    :func:`build_ripple_sets`) and the neighbor table
    (:func:`build_neighbor_table`) are built once per run; every batch
    and every scoring pass takes its bags and trees from them, and every
    batch ends in one Adam step.  Train rows of users the ripple table
    does not know (``RippleTable.known``) are dropped, and
    ``skipped_users`` counts those users; each epoch steps on the
    indices of the kept rows (in :func:`~ripplerec.kg.index_dtype` of the
    split's length), shuffled.  The snapshot of the
    parameters is copied only when a validation AUC improves.  If none
    does (no epoch, divergence in the first, NaN AUCs), the result holds
    the initial parameters, drawn again at the seed.  Divergence aborts
    the run and returns the last good snapshot with ``diverged`` set.
    Single-threaded and deterministic for a fixed seed.  A split the
    run scores, none of whose users the ripple table knows, is rejected
    before any training: the validation split when ``hp.epochs >= 1``
    (each epoch ends by scoring it; an empty one is rejected too), and a
    nonempty test split (the run ends by scoring it).  The test report's
    ``seed`` is the run's.
    """
    if hp.epochs >= 1 and len(dataset.validation) == 0:
        raise ValueError("empty validation split: every epoch is selected on it "
                         "(give validation a share in ratios, or train with epochs = 0)")
    params = init_params(kg.num_entities, kg.num_relations, hp, seed=seed, num_users=dataset.num_users)
    ripple_sets = build_ripple_sets(dataset, kg, hp, seed)
    neighbors = build_neighbor_table(kg, hp, seed)
    keep = ripple_sets.known(dataset.train[:, 0])
    # the train rows the run steps on, as indices into dataset.train in the index dtype of its length
    rows = np.flatnonzero(keep).astype(index_dtype(len(dataset.train)))
    skipped_users = len(np.unique(dataset.train[~keep, 0]))
    if not keep.all():
        logger.warning("dropped %d train rows of %d users without a ripple set",
                       int((~keep).sum()), skipped_users)
    if len(rows) == 0:
        raise ValueError("no train rows (empty train split, or every user lacks a ripple set)")
    # each split the run scores: validation after every epoch, test once at the end
    scored = [("validation", dataset.validation)] if hp.epochs >= 1 else []
    for name, split in scored + [("test", dataset.test)]:
        if len(split) and not ripple_sets.known(split[:, 0]).any():
            raise ValueError(f"{name} split has no scorable examples: the ripple table knows none of its users "
                             "(each needs a train positive whose entity has an outgoing triple)")
    history: list[dict] = []
    best = None  # copied only when a validation improves
    best_auc = -np.inf
    best_epoch = 0
    diverged = False

    for epoch in range(1, hp.epochs + 1):
        order = rows[np.random.default_rng([seed, 2, epoch]).permutation(len(rows))]
        total = 0.0
        try:
            for start in range(0, len(order), hp.batch_size):
                batch = dataset.train[order[start:start + hp.batch_size]]
                bags = assemble_batch(batch, neighbors, ripple_sets, hp, dataset.item_entities)
                loss, grads = forward_backward(params, bags, hp)[:2]  # the trace dies here, before the next step
                total += loss * len(batch)
                params.adam_step(grads, hp.lr, hp.l2_weight)
                del grads  # and the gradients: one step's are alive at a time
        except FloatingPointError as err:
            logger.error("epoch %d diverged: %s", epoch, err)
            diverged = True
            break
        train_loss = total / len(order)

        val = metrics.evaluate(params, dataset.validation, neighbors, ripple_sets, hp, dataset.item_entities,
                               split="validation")
        history.append({"epoch": epoch, "train_loss": train_loss, "val_auc": val.auc, "val_acc": val.acc})

        if val.auc > best_auc:
            best_auc = val.auc
            best = params.copy()
            best_epoch = epoch
        elif hp.patience and epoch - best_epoch >= hp.patience:
            logger.info("early stop at epoch %d (no val improvement in %d epochs)", epoch, hp.patience)
            break

    del params  # the trained tensors and their Adam moments: the run ends on `best`
    if best is None:  # no validation improved: the initial parameters, drawn again, are the last good state
        best = init_params(kg.num_entities, kg.num_relations, hp, seed=seed, num_users=dataset.num_users)
    test_report = None
    if len(dataset.test):
        test_report = metrics.evaluate(best, dataset.test, neighbors, ripple_sets, hp, dataset.item_entities,
                                       split="test")
        test_report.seed = seed
    return FitResult(params=best, history=history, best_epoch=best_epoch, test_report=test_report,
                     ripple_table=ripple_sets, neighbor_table=neighbors, diverged=diverged,
                     skipped_users=skipped_users)
