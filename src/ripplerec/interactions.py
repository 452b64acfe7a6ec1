"""Implicit-feedback dataset preparation.

Explicit rating logs are binarized against a threshold (rows below it
are unobserved, not negative), balanced with per-user 1:1 negative
sampling, and partitioned 6:2:2 into train/validation/test.  Prep is
single-threaded by contract: the same seed reproduces byte-identical
artifacts.  The resulting dataset is immutable and safe for concurrent
reads.

Splits are stored as ``(n, 3)`` int arrays with columns (user, item,
label).  The pipeline assigns each positive and its sampled negative to
the same split, so per-user label balance is exact everywhere, and
ripple seeds (``user_history``) come from train positives only.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .kg import ParseError, read_tsv

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class Interaction:
    user: int
    item: int
    label: int


@dataclass
class BinarizeResult:
    """Positives plus the vocabularies and drop statistics behind them."""

    positives: list[tuple[int, int]]  # (user index, item index), label-1 rows
    user_names: list[str]
    item_names: list[str]
    item_entities: np.ndarray  # item index -> KG entity index
    n_rows: int = 0
    n_below_threshold: int = 0
    n_unmapped: int = 0

    @property
    def num_users(self):
        return len(self.user_names)

    @property
    def num_items(self):
        return len(self.item_names)

    def per_user(self):
        """Positives grouped by user, in file order."""
        grouped: dict[int, list[int]] = {}
        for u, i in self.positives:
            grouped.setdefault(u, []).append(i)
        return grouped


@dataclass
class InteractionDataset:
    num_users: int
    num_items: int
    train: np.ndarray  # (n, 3) of (user, item, label)
    validation: np.ndarray
    test: np.ndarray
    user_history: dict[int, np.ndarray] = field(default_factory=dict)
    item_entities: np.ndarray | None = None  # item index -> KG entity index

    def split_named(self, name):
        return {"train": self.train, "validation": self.validation, "test": self.test}[name]


def binarize(ratings_path, threshold, item_to_entity):
    """Turn an explicit rating log into implicit positives.

    ``ratings_path`` is TSV ``user<TAB>item<TAB>rating[<TAB>timestamp]``.
    Rows rating >= threshold become positives; rows below are dropped as
    unobserved.  Items without a KG entity mapping are dropped and
    counted.  The item vocabulary covers every mappable item (rated or
    not) so unrated items can serve as negatives; user indices are
    assigned at a user's first positive row.
    """
    item_names = list(item_to_entity)
    item_index = {raw: i for i, raw in enumerate(item_names)}
    item_entities = np.array([item_to_entity[raw] for raw in item_names], dtype=np.int64)

    user_index: dict[str, int] = {}
    user_names: list[str] = []
    positives: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    n_rows = n_below = n_unmapped = 0

    for lineno, fields in read_tsv(ratings_path, 3, 4):
        raw_user, raw_item, raw_rating = fields[0], fields[1], fields[2]
        try:
            rating = float(raw_rating)
        except ValueError:
            raise ParseError(ratings_path, lineno, f"non-numeric rating {raw_rating!r}") from None
        n_rows += 1
        if raw_item not in item_index:
            n_unmapped += 1
            continue
        if rating < threshold:
            n_below += 1
            continue
        u = user_index.get(raw_user)
        if u is None:
            u = len(user_names)
            user_index[raw_user] = u
            user_names.append(raw_user)
        key = (u, item_index[raw_item])
        if key in seen:
            continue
        seen.add(key)
        positives.append(key)
    if n_rows == 0:
        raise ValueError(f"{ratings_path}: no rating rows found")

    logger.info(
        "binarized %s: %d rows -> %d positives (%d below threshold, %d unmapped items)",
        ratings_path, n_rows, len(positives), n_below, n_unmapped,
    )
    return BinarizeResult(
        positives=positives,
        user_names=user_names,
        item_names=item_names,
        item_entities=item_entities,
        n_rows=n_rows,
        n_below_threshold=n_below,
        n_unmapped=n_unmapped,
    )


def negative_sample(positives, num_items, rng):
    """Draw per-user negatives at a 1:1 ratio with the positives.

    ``positives`` maps user -> positive item indices.  For each user
    with T positives, T distinct items are drawn uniformly from the
    items that user never interacted with (label 0).  If that pool is
    smaller than T the draw falls back to with-replacement and a
    warning is logged.
    """
    out: list[Interaction] = []
    all_items = np.arange(num_items, dtype=np.int64)
    for user in sorted(positives):
        pos = np.unique(np.asarray(positives[user], dtype=np.int64))
        t = len(positives[user])
        pool = np.setdiff1d(all_items, pos, assume_unique=True)
        if len(pool) == 0:
            raise ValueError(f"user {user}: no unobserved items to sample negatives from")
        if len(pool) < t:
            logger.warning(
                "user %d: unobserved pool (%d) smaller than positive count (%d); sampling with replacement",
                user, len(pool), t,
            )
            draws = pool[rng.integers(0, len(pool), size=t)]
        else:
            draws = rng.choice(pool, size=t, replace=False)
        out.extend(Interaction(user=user, item=int(item), label=0) for item in draws)
    return out


def _partition_counts(n, ratios):
    """Floor each split's share, assign the remainder to the first (train)."""
    if abs(sum(ratios) - 1.0) > 1e-9:
        raise ValueError(f"split ratios must sum to 1, got {ratios}")
    counts = [int(np.floor(n * r)) for r in ratios]
    counts[0] += n - sum(counts)
    return counts


def _user_history(train):
    """Ripple seeds: each user's positive train items, users in first-appearance order."""
    history: dict[int, list[int]] = {}
    for u, item, label in train:
        if label == 1:
            history.setdefault(int(u), []).append(int(item))
    return {u: np.array(items, dtype=np.int64) for u, items in history.items()}


def split(interactions, ratios=(0.6, 0.2, 0.2), seed=0, num_users=None, num_items=None, group_size=1):
    """Globally shuffle records with ``seed``, then partition contiguously.

    Rounding floors every split and assigns the remainder to train.
    ``group_size=2`` moves consecutive records as one unit; the prep
    pipeline uses it to keep each positive next to its negative so that
    per-user label balance stays exact within every split.
    """
    records = np.asarray(
        [(i.user, i.item, i.label) for i in interactions] if not isinstance(interactions, np.ndarray) else interactions,
        dtype=np.int64,
    )
    if len(records) == 0:
        raise ValueError("cannot split an empty interaction list")
    if len(records) % group_size != 0:
        raise ValueError(f"record count {len(records)} is not a multiple of group_size {group_size}")
    rng = np.random.default_rng(seed)
    n_units = len(records) // group_size
    order = rng.permutation(n_units)
    units = records.reshape(n_units, group_size, 3)[order]
    counts = _partition_counts(n_units, ratios)
    bounds = np.cumsum([0] + counts)
    parts = [units[bounds[i]:bounds[i + 1]].reshape(-1, 3) for i in range(3)]
    train, validation, test = parts

    if num_users is None:
        num_users = int(records[:, 0].max()) + 1
    if num_items is None:
        num_items = int(records[:, 1].max()) + 1
    return InteractionDataset(
        num_users=num_users,
        num_items=num_items,
        train=train,
        validation=validation,
        test=test,
        user_history=_user_history(train),
    )


def build_dataset(binarized, ratios=(0.6, 0.2, 0.2), seed=0):
    """Full prep pipeline: negatives, pairing, and the 6:2:2 split.

    Negatives are drawn once (static, not per epoch).  Every positive is
    paired with one sampled negative and the pairs travel together
    through the split, which also makes the positive ratio per split
    match ``ratios`` within rounding.
    """
    rng = np.random.default_rng(seed)
    per_user = binarized.per_user()
    negatives = negative_sample(per_user, binarized.num_items, rng)

    neg_by_user: dict[int, list[Interaction]] = {}
    for rec in negatives:
        neg_by_user.setdefault(rec.user, []).append(rec)
    paired: list[Interaction] = []
    for user in sorted(per_user):
        for item, neg in zip(per_user[user], neg_by_user[user]):
            paired.append(Interaction(user=user, item=item, label=1))
            paired.append(neg)
    dataset = split(
        paired,
        ratios=ratios,
        seed=seed,
        num_users=binarized.num_users,
        num_items=binarized.num_items,
        group_size=2,
    )
    dataset.item_entities = binarized.item_entities
    return dataset


def write_split(path, records):
    """Emit one split as TSV ``user<TAB>item<TAB>label``."""
    with open(path, "w", encoding="utf-8") as fh:
        for u, item, label in records:
            fh.write(f"{u}\t{item}\t{label}\n")


def read_split(path):
    """Inverse of :func:`write_split`: an ``(n, 3)`` int array."""
    records = []
    for lineno, fields in read_tsv(path, 3):
        try:
            records.append([int(fields[0]), int(fields[1]), int(fields[2])])
        except ValueError:
            raise ParseError(path, lineno, f"non-integer field in {fields}") from None
    if not records:
        return np.empty((0, 3), dtype=np.int64)
    return np.array(records, dtype=np.int64)


def dataset_from_files(train_path, validation_path, test_path, num_users, num_items, item_entities=None):
    """Rebuild an :class:`InteractionDataset` from emitted split files."""
    train = read_split(train_path)
    return InteractionDataset(
        num_users=num_users,
        num_items=num_items,
        train=train,
        validation=read_split(validation_path),
        test=read_split(test_path),
        user_history=_user_history(train),
        item_entities=item_entities,
    )
