"""Anatomy of one prediction, with handcrafted parameters.

Builds a one-example batch by hand on a 2-dimensional toy setup, runs
the model's forward pass once, and walks the stages it keeps in its
trace: hop attention over ripple triples, fusion into the user
representation, relation-scored neighbor aggregation on the item side,
and the final logistic score.
"""

import numpy as np

import ripplerec as rr

hp = rr.Hyperparams(embed_dim=2, hops=1, ripple_size=2, neighbor_size=2, conv_layers=1)
params = rr.init_params(num_entities=6, num_relations=2, hp=hp, seed=0)

# Overwrite the random initialization with legible numbers.
params.values["entity_emb"][...] = [
    [1.0, 0.0],   # 0: head of the first ripple triple
    [1.0, 1.0],   # 1: its tail, and a neighbor of the candidate
    [0.0, 1.0],   # 2: head of the second triple
    [3.0, 5.0],   # 3: its tail
    [0.5, 0.25],  # 4: candidate item entity
    [0.2, 0.8],   # 5: another neighbor of the candidate
]
params.values["relation_mat"][0] = np.eye(2)
params.values["relation_vec"][...] = [[2.0, 0.0], [0.0, 2.0]]
params.values["fusion_w"][...] = np.eye(2)
params.values["conv_w"][0] = np.eye(2)
params.values["conv_b"][0] = 0.0

# One example, frozen by hand: the user's ripple bag (one hop of two
# triples) and the candidate's neighbor tree (two children of entity 4).
bags = rr.BatchBags(
    users=np.array([0]), items=np.array([0]), labels=np.array([1]),
    v_idx=np.array([4]),
    hop_bags=[np.array([[(0, 0, 1), (2, 0, 3)]])],  # (head, relation, tail)
    tree_ents=[np.array([[4]]), np.array([[1, 5]])],
    tree_rels=[None, np.array([[0, 1]])],
)
trace = rr.forward(params, bags, hp)
print("candidate embedding v:", trace.v[0])

# 1) Hop attention: each triple is scored by (R_r h) . v, softmaxed per bag.
print("\nhop attention over the bag:", np.round(trace.hop_attn[0][0], 4))
print("hop response (weighted tail sum):", np.round(trace.hop_resp[0][0], 4))

# 2) Fusion: hop responses plus the candidate, through one learned map.
u = trace.u_rep[0]
print("\nuser representation o = W(sum of hop responses + v):", np.round(u, 4))

# 3) Item side: neighbors weighted by how much this user cares about each relation.
print("\ntaste scores o . r for relations 0 and 1:", np.round(params.values["relation_vec"] @ u, 4))
print("neighbor attention (softmax of the taste scores):", np.round(trace.tree_alpha[0][0, 0], 4))
print("own embedding + neighbor aggregate:", np.round(trace.tree_in[0][0, 0], 4))
print("item representation (tanh of the conv layer):", np.round(trace.i_rep[0], 4))

# 4) The prediction is the logistic of the inner product.
print("\npredicted interaction probability:", round(float(trace.yhat[0]), 4))
