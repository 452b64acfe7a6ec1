"""Knowledge-graph click-through-rate recommender.

User representations ripple outward over sampled multi-hop triple bags;
item representations aggregate relation-scored sampled neighborhoods.
Both sides train end to end against implicit feedback with 1:1 negative
sampling, on a small numpy kernel with hand-derived gradients.
"""

from .core import ParamStore
from .interactions import InteractionDataset, binarize, build_dataset
from .kg import build_ripple_table, load_item_map, load_kg, sample_children
from .metrics import auc, evaluate
from .model import (
    BatchBags,
    Hyperparams,
    assemble_batch,
    build_neighbor_table,
    build_ripple_sets,
    fit,
    forward,
    init_params,
    score_batch,
)

__version__ = "0.1.0"

__all__ = [
    "BatchBags",
    "Hyperparams",
    "InteractionDataset",
    "ParamStore",
    "assemble_batch",
    "auc",
    "binarize",
    "build_dataset",
    "build_neighbor_table",
    "build_ripple_sets",
    "build_ripple_table",
    "evaluate",
    "fit",
    "forward",
    "init_params",
    "load_item_map",
    "load_kg",
    "sample_children",
    "score_batch",
]
