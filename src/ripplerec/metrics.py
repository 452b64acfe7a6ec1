"""Click-through-rate metrics and the split evaluation harness.

AUC is rank-based (Mann-Whitney) with ties resolved by average ranks,
which makes it equal -- exactly, not approximately -- to the quadratic
count of correctly ordered positive/negative pairs with ties worth one
half.  The ranks come from one stable numpy sort: each run of equal
scores gets the average of the ranks it spans, a half-integer that
float64 holds exactly.  ACC thresholds scores at 0.5.

Scoring a split is read-only over frozen parameters; examples whose user
the ripple table does not know (no train positive, hence no ripple set,
or out of range) are skipped and counted, not silently dropped.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class MetricReport:
    split: str
    auc: float
    acc: float
    n_examples: int
    skipped: int = 0
    seed: int = 0

    CSV_HEADER = "split,auc,acc,n,skipped,seed"

    def to_csv_row(self):
        return f"{self.split},{self.auc:.6f},{self.acc:.6f},{self.n_examples},{self.skipped},{self.seed}"


def auc(scores, labels):
    """Probability a random positive outranks a random negative; ties count half.

    Computed from average ranks, so the result coincides exactly with
    the pairwise count (#pos>neg + 0.5 * #ties) / (#pos * #neg).  A run
    of equal scores starting at sorted position ``start`` (0-based) and
    ``count`` long ranks ``start + (count + 1) / 2``.  ``±inf`` ranks as
    an ordinary value; any NaN score makes the result NaN, since a NaN
    has no place in the order.  Raises when either class is absent,
    since the quantity is undefined there.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    pos = labels == 1
    n_pos = int(pos.sum())
    n_neg = len(labels) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValueError("AUC needs at least one positive and one negative label")
    if np.isnan(scores).any():
        return float("nan")
    order = np.argsort(scores, kind="stable")
    ordered = scores[order]
    starts = np.flatnonzero(np.concatenate(([True], ordered[1:] != ordered[:-1])))
    counts = np.diff(starts, append=len(ordered))
    ranks = np.empty_like(scores)
    ranks[order] = np.repeat(starts + (counts + 1) / 2.0, counts)
    numerator = ranks[pos].sum() - n_pos * (n_pos + 1) / 2.0
    return float(numerator / (n_pos * n_neg))


def acc(scores, labels):
    """Fraction of thresholded predictions (score >= 0.5) matching labels."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if len(scores) == 0:
        raise ValueError("ACC of an empty score list is undefined")
    predictions = (scores >= 0.5).astype(labels.dtype)
    return float(np.mean(predictions == labels))


def evaluate(params, records, table, ripple_sets, hp, item_entities, split="test"):
    """Score every (user, item) of a split with the full forward pass.

    ``records`` is an (n, 3) array of (user, item, label).  ``table`` and
    ``ripple_sets`` are the run's :class:`~ripplerec.kg.NeighborTable`
    and :class:`~ripplerec.kg.RippleTable`; users the ripple table does
    not know are skipped and counted in the report.  Scoring draws no
    random number, so the report depends only on the parameters, the two
    tables and the records.  The report's ``seed`` is left at 0 for the
    caller to fill in with the run's.
    """
    from . import model  # local import; model imports this module for fit()

    records = np.asarray(records)
    if len(records) == 0:
        raise ValueError(f"cannot evaluate an empty {split} split")
    keep = ripple_sets.known(records[:, 0])
    skipped = int((~keep).sum())
    kept = records[keep] if skipped else records  # a copy only when a row is dropped
    if len(kept) == 0:
        raise ValueError(f"{split} split has no scorable examples (no user has a train positive)")

    scores = model.score_batch(params, kept, table, ripple_sets, hp, item_entities)
    return MetricReport(
        split=split,
        auc=auc(scores, kept[:, 2]),
        acc=acc(scores, kept[:, 2]),
        n_examples=int(len(kept)),
        skipped=skipped,
    )
