"""Knowledge-graph click-through-rate recommender.

User representations ripple outward over sampled multi-hop triple bags;
item representations aggregate relation-scored sampled neighborhoods.
Both sides train end to end against implicit feedback with 1:1 negative
sampling, on a small numpy kernel with hand-derived gradients.
"""

from .core import ParamStore, finite_diff_check, sigmoid, softmax
from .interactions import (
    BinarizeResult,
    Interaction,
    InteractionDataset,
    binarize,
    build_dataset,
    negative_sample,
    split,
)
from .kg import (
    NULL_RELATION,
    KnowledgeGraph,
    NeighborSample,
    RippleSet,
    build_ripple_set,
    load_item_map,
    load_kg,
    sample_neighbors,
)
from .metrics import MetricReport, acc, auc, evaluate
from .model import (
    BatchBags,
    FitResult,
    ForwardTrace,
    Hyperparams,
    assemble_batch,
    batch_loss,
    build_ripple_sets,
    fit,
    forward,
    forward_backward,
    hop_response,
    init_params,
    item_representation,
    neighbor_aggregate,
    predict_ctr,
    relation_score,
    score_batch,
    user_representation,
)

__version__ = "0.1.0"

__all__ = [
    "BatchBags",
    "BinarizeResult",
    "FitResult",
    "ForwardTrace",
    "Hyperparams",
    "Interaction",
    "InteractionDataset",
    "KnowledgeGraph",
    "MetricReport",
    "NULL_RELATION",
    "NeighborSample",
    "ParamStore",
    "RippleSet",
    "acc",
    "assemble_batch",
    "auc",
    "batch_loss",
    "binarize",
    "build_dataset",
    "build_ripple_set",
    "build_ripple_sets",
    "evaluate",
    "finite_diff_check",
    "fit",
    "forward",
    "forward_backward",
    "hop_response",
    "init_params",
    "item_representation",
    "load_item_map",
    "load_kg",
    "neighbor_aggregate",
    "negative_sample",
    "predict_ctr",
    "relation_score",
    "sample_neighbors",
    "score_batch",
    "sigmoid",
    "softmax",
    "split",
    "user_representation",
]
