"""Implicit-feedback dataset preparation.

Explicit rating logs are binarized against a threshold (rows below it
are unobserved, not negative), balanced with per-user 1:1 negative
sampling, and partitioned 6:2:2 into train/validation/test.  Prep is
single-threaded by contract: the same seed reproduces byte-identical
artifacts.  The resulting dataset is immutable and safe for concurrent
reads.

Records are int arrays from end to end: :func:`binarize` yields
``(n, 2)`` (user, item) positives, :func:`negative_sample` the matching
``(n, 3)`` (user, item, 0) rows, and :func:`build_dataset` interleaves
the two into the ``(2n, 3)`` (user, item, label) array that
:func:`split` partitions into three arrays and :func:`write_split`
emits.  Each positive and its sampled negative land in the same split,
so per-user label balance is exact everywhere.  An
:class:`InteractionDataset` holds only what prep writes: the sizes, the
three splits and the item -> entity map; ripple seeds are read from the
train split's label-1 rows where the ripple table is built.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .kg import ParseError, _intern, _scan, read_int_tsv, write_int_tsv

logger = logging.getLogger(__name__)


@dataclass
class BinarizeResult:
    """Positives plus the vocabularies and drop statistics behind them."""

    positives: np.ndarray  # (n, 2) int64 of (user index, item index), label-1 rows in file order
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


@dataclass
class InteractionDataset:
    """What prep writes: the sizes, the three splits, the item -> entity map and one count of its report."""

    num_users: int
    num_items: int
    train: np.ndarray  # (n, 3) of (user, item, label)
    validation: np.ndarray
    test: np.ndarray
    item_entities: np.ndarray  # item index -> KG entity index
    no_negative_users: int = 0  # users build_dataset dropped: they rated every item, so no negative exists

    def split_named(self, name):
        return {"train": self.train, "validation": self.validation, "test": self.test}[name]


def binarize(ratings_path, threshold, item_to_entity):
    """Turn an explicit rating log into implicit positives.

    ``ratings_path`` is TSV ``user<TAB>item<TAB>rating[<TAB>timestamp]``.
    Rows rating >= threshold become positives; rows below are dropped as
    unobserved.  ``threshold`` must be finite (:func:`check_threshold`).
    Items without a KG entity mapping are dropped and counted.  The item
    vocabulary covers every mappable item (rated or not) so unrated items
    can serve as negatives; user indices are assigned at a user's first
    positive row.  Fields are interned from the file's bytes, so
    ``float`` runs once per distinct rating string; the first line
    holding one it rejects, or one that parses to NaN, raises
    :class:`ParseError`.
    """
    check_threshold(threshold)
    item_names = list(item_to_entity)
    item_index = {raw: i for i, raw in enumerate(item_names)}
    item_entities = np.array([item_to_entity[raw] for raw in item_names], dtype=np.int64)

    buf, start, end, linenos, _ = _scan(ratings_path, (3, 4))
    n_rows = len(linenos)
    if n_rows == 0:
        raise ValueError(f"{ratings_path}: no rating rows found")
    raw_ratings, rating_ids = _intern(buf, start[:, 2], end[:, 2])
    values = np.empty(len(raw_ratings))
    for k, raw_rating in enumerate(raw_ratings):
        try:
            values[k] = float(raw_rating)
        except ValueError:
            values[k] = np.nan
        if np.isnan(values[k]):  # neither >= nor < a threshold, so neither positive nor unobserved
            row = int(np.argmax(rating_ids == k))  # the first line holding it
            raise ParseError(ratings_path, int(linenos[row]), f"non-numeric rating {raw_rating!r}")
    ratings = values[rating_ids]
    raw_items, item_ids = _intern(buf, start[:, 1], end[:, 1])
    items = np.array([item_index.get(raw, -1) for raw in raw_items], dtype=np.int64)[item_ids]
    mapped = items >= 0
    below = mapped & (ratings < threshold)
    positive = mapped & ~below
    user_names, users = _intern(buf, start[positive, 0], end[positive, 0])
    pairs = np.stack((users, items[positive]), axis=1)
    _, kept = np.unique(pairs[:, 0] * len(item_names) + pairs[:, 1], return_index=True)  # pairs are int64
    positives = pairs[np.sort(kept)]  # each (user, item) pair at its first row
    n_below, n_unmapped = int(below.sum()), int((~mapped).sum())

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

    ``positives`` is an ``(n, 2)`` array of (user, item) rows sorted by
    user.  For each user with T positives, in ascending user order, T
    distinct items are drawn uniformly from the items that user never
    interacted with.  If that pool is smaller than T the draw falls back
    to with-replacement and a warning is logged.  Returns the ``(n, 3)``
    (user, item, 0) rows, row k holding the negative drawn for row k of
    ``positives``.
    """
    positives = np.asarray(positives, dtype=np.int64)
    if np.any(np.diff(positives[:, 0]) < 0):
        raise ValueError("positives must be sorted by user")
    users, starts = np.unique(positives[:, 0], return_index=True)
    ends = np.append(starts[1:], len(positives))
    negatives = np.zeros((len(positives), 3), dtype=np.int64)
    negatives[:, 0] = positives[:, 0]
    unseen = np.ones(num_items, dtype=bool)  # all True between users
    for user, lo, hi in zip(users.tolist(), starts, ends):
        t = hi - lo
        unseen[positives[lo:hi, 1]] = False
        pool = np.flatnonzero(unseen)  # ascending
        unseen[positives[lo:hi, 1]] = True
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
        negatives[lo:hi, 1] = draws
    return negatives


def check_threshold(threshold):
    """``threshold``, if it is a finite number; else ValueError naming it."""
    if not np.isfinite(threshold):
        raise ValueError(f"threshold must be a finite number, got {threshold}")
    return threshold


def check_ratios(ratios):
    """``ratios``, if it is three split shares, each in [0, 1], that sum to 1; else ValueError."""
    if len(ratios) != 3 or not all(0.0 <= r <= 1.0 for r in ratios) or abs(sum(ratios) - 1.0) > 1e-9:
        raise ValueError(f"split ratios must be three shares in [0, 1] that sum to 1, got {ratios}")
    return ratios


def _partition_counts(n, ratios):
    """Floor each split's share (checked by :func:`check_ratios`), assign the remainder to the first (train)."""
    check_ratios(ratios)
    counts = [int(np.floor(n * r)) for r in ratios]
    counts[0] += n - sum(counts)
    return counts


def split(records, ratios=(0.6, 0.2, 0.2), seed=0):
    """Globally shuffle pairs of records with ``seed``, then partition contiguously.

    Returns the ``(train, validation, test)`` arrays.  Records 2k and
    2k + 1 move as one unit, so each positive stays next to its negative
    and per-user label balance stays exact within every split.  Rounding
    floors every split's pair count and assigns the remainder to train.
    """
    records = np.asarray(records, dtype=np.int64)
    if len(records) == 0:
        raise ValueError("cannot split an empty interaction list")
    rng = np.random.default_rng(seed)
    n_units = len(records) // 2
    order = rng.permutation(n_units)
    units = records.reshape(n_units, 2, 3)[order]
    counts = _partition_counts(n_units, ratios)
    bounds = np.cumsum([0] + counts)
    return tuple(units[bounds[i]:bounds[i + 1]].reshape(-1, 3) for i in range(3))


def build_dataset(binarized, ratios=(0.6, 0.2, 0.2), seed=0):
    """Full prep pipeline: negatives, pairing, and the 6:2:2 split.

    Negatives are drawn once (static, not per epoch).  Every positive is
    paired with one sampled negative and the pairs travel together
    through the split, which also makes the positive ratio per split
    match ``ratios`` within rounding.  A user who rated every item has no
    unobserved item to draw a negative from: their positives are dropped,
    a warning names them by raw id, and ``no_negative_users`` counts them.
    Such a user draws nothing, so every other user's negatives are those
    drawn from the same ratings without that user.
    """
    rng = np.random.default_rng(seed)
    positives = binarized.positives
    # only a user with as many positive rows as items can have rated every item
    maybe = np.flatnonzero(np.bincount(positives[:, 0], minlength=binarized.num_users) >= binarized.num_items)
    full = [u for u in maybe if len(np.unique(positives[positives[:, 0] == u, 1])) == binarized.num_items]
    if full:
        positives = positives[~np.isin(positives[:, 0], full)]
        logger.warning("dropped the %d positives of %d users who rated every item (no negative to draw): %s",
                       len(binarized.positives) - len(positives), len(full),
                       ", ".join(binarized.user_names[u] for u in full))
    grouped = positives[np.argsort(positives[:, 0], kind="stable")]
    paired = np.empty((2 * len(grouped), 3), dtype=np.int64)
    paired[0::2, :2] = grouped
    paired[0::2, 2] = 1
    paired[1::2] = negative_sample(grouped, binarized.num_items, rng)
    train, validation, test = split(paired, ratios=ratios, seed=seed)
    return InteractionDataset(binarized.num_users, binarized.num_items, train, validation, test,
                              binarized.item_entities, no_negative_users=len(full))


def write_split(path, records):
    """Emit one split as TSV ``user<TAB>item<TAB>label`` through :func:`~ripplerec.kg.write_int_tsv`."""
    write_int_tsv(path, np.asarray(records).reshape(-1, 3))


def read_split(path, num_users, num_items):
    """Inverse of :func:`write_split`: an ``(n, 3)`` int array, every field in range."""
    return read_int_tsv(path, (("user", num_users), ("item", num_items), ("label", 2)))


def dataset_from_files(train_path, validation_path, test_path, num_users, num_items, item_entities):
    """Rebuild an :class:`InteractionDataset` from emitted split files and the item -> entity map."""
    splits = (read_split(path, num_users, num_items) for path in (train_path, validation_path, test_path))
    return InteractionDataset(num_users, num_items, *splits, item_entities)
