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
    """What prep writes: the sizes, the three splits, the item -> entity map and two counts of its report."""

    num_users: int
    num_items: int
    train: np.ndarray  # (n, 3) of (user, item, label)
    validation: np.ndarray
    test: np.ndarray
    item_entities: np.ndarray  # item index -> KG entity index
    no_negative_users: int = 0  # users build_dataset dropped: they rated every item, so no negative exists
    replacement_users: int = 0  # users whose pool was smaller than their positives: negatives drawn with replacement

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


# Generator.choice(pool, t, replace=False) shuffles the tail of arange(pool) in place of
# Floyd's algorithm when pool > 10000 and t > pool // 50 (numpy >= 1.17), so only when t > 200
OWN_CALL_ROWS = 200  # users with more positive rows than this draw by their own rng.choice call
NEGATIVE_BLOCK = 1 << 13  # draws per rng.integers call in negative_sample; bounds its transient arrays


def negative_sample(positives, num_items, rng):
    """Draw per-user negatives at a 1:1 ratio with the positives.

    ``positives`` is an ``(n, 2)`` array of (user, item) rows sorted by
    user, every item in ``[0, num_items)``.  For each user with T
    positive rows, in ascending user order, T distinct items are drawn
    uniformly from the pool of items that user never interacted with,
    as ``rng.choice(pool, T, replace=False)`` draws them.  If that pool
    is smaller than T the draw falls back to ``pool[rng.integers(0,
    len(pool), size=T)]`` and a warning is logged.  Returns the ``(n,
    3)`` (user, item, 0) rows, row k holding the negative drawn for row
    k of ``positives``.  An unsorted user column, an item out of range
    (naming its row) or an empty pool (naming its user) raises
    ``ValueError`` before anything is drawn.

    The draws are those of the per-user calls, and leave ``rng`` where
    they would.  A user with more than :data:`OWN_CALL_ROWS` positive
    rows, or with a pool smaller than its positives, makes that call
    itself, over a pool built from an items-long mask.  Every other
    user's draws come from one ``rng.integers(0, highs)`` call per block
    of about :data:`NEGATIVE_BLOCK` draws (:func:`_draw_block`):
    ``choice`` makes only bounded draws in ``[0, high)``, and with P >= T
    and T <= 200 they are those of Floyd's algorithm, highs P - T + 1,
    ..., P, then a Fisher-Yates shuffle of the T picks with highs T, T -
    1, ..., 2.  (``choice`` shuffles the tail of ``arange(P)`` instead of
    running Floyd only when P > 10000 and T > P // 50, which needs T >
    200.)  The shuffles then run one step for all those users at once
    (:func:`_shuffle`), so the largest positive count below the
    threshold, not the number of users, sets that loop's length: at most
    :data:`OWN_CALL_ROWS` steps.  Apart from one items-long mask per
    own-call user, the transient arrays are O(positives): no users x
    items array is made.
    """
    return _negative_sample(positives, num_items, rng)[0]


def _negative_sample(positives, num_items, rng):
    """:func:`negative_sample`'s rows, and the number of users whose negatives were drawn with replacement."""
    positives = np.asarray(positives, dtype=np.int64)
    users, items = positives[:, 0], positives[:, 1]
    if np.any(np.diff(users) < 0):
        raise ValueError("positives must be sorted by user")
    outside = (items < 0) | (items >= num_items)
    if outside.any():
        row = int(np.argmax(outside))
        raise ValueError(f"positives row {row}: item {items[row]} is not in [0, {num_items})")
    starts = np.flatnonzero(np.diff(users, prepend=users[:1] - 1))
    t = np.diff(starts, append=len(users))
    # each user's distinct items, ascending, as u * num_items + item for the users u numbered from 0
    gaps = np.sort(np.repeat(np.arange(len(starts)) * num_items, t) + items)
    gaps = gaps[np.diff(gaps, prepend=-1) != 0]
    gap_first = np.searchsorted(gaps, np.arange(len(starts)) * num_items)
    seen = np.diff(gap_first, append=len(gaps))
    pop = num_items - seen
    if np.any(pop == 0):
        raise ValueError(f"user {users[starts[np.argmax(pop == 0)]]}: no unobserved items to sample negatives from")
    replaced = pop < t
    for user, size, count in zip(users[starts[replaced]].tolist(), pop[replaced].tolist(), t[replaced].tolist()):
        logger.warning("user %d: unobserved pool (%d) smaller than positive count (%d); sampling with replacement",
                       user, size, count)
    gaps -= _within(seen)  # u * num_items + s_j - j for u's j-th item s_j
    own = replaced | (t > OWN_CALL_ROWS)

    negatives = np.zeros((len(positives), 3), dtype=np.int64)
    negatives[:, 0] = users
    picked = negatives[:, 1]
    steps = np.empty(len(users), dtype=np.int64)  # each row's shuffle draw
    cut = np.diff(2 * (np.cumsum(t) - t) // NEGATIVE_BLOCK, prepend=-1, append=-1) != 0  # 2t draws a user
    cut[:-1] |= own  # an own-call user is a block of its own
    cut[1:] |= own
    bounds = np.flatnonzero(cut).tolist()
    row_end, gap_end = np.append(starts, len(users)), np.append(gap_first, len(gaps))
    for a, b in zip(bounds[:-1], bounds[1:]):
        rows = slice(row_end[a], row_end[b])
        if own[a]:
            picked[rows] = _own_call(rng, items[rows], num_items)
        else:
            picked[rows], steps[rows] = _draw_block(rng, t[a:b], pop[a:b],
                                                    gaps[gap_end[a]:gap_end[b]] - a * num_items,
                                                    gap_first[a:b] - gap_first[a], num_items)
    _shuffle(picked, steps, np.where(own, 0, t), starts)
    return negatives, int(replaced.sum())


def _own_call(rng, items, num_items):
    """One user's negatives from its own call over the pool of items not in ``items``."""
    unseen = np.ones(num_items, dtype=bool)
    unseen[items] = False
    pool = np.flatnonzero(unseen)  # ascending
    if len(pool) < len(items):
        return pool[rng.integers(0, len(pool), size=len(items))]
    return rng.choice(pool, len(items), replace=False)


def _within(lengths):
    """Each element's place in its run, for runs of ``lengths`` laid end to end."""
    return np.arange(int(lengths.sum())) - np.repeat(np.cumsum(lengths) - lengths, lengths)


def _pool_items(gaps, gap_first, user, p, span):
    """The ``p``-th item of each ``user``'s pool: p plus the number of its ``gaps`` at most p.

    ``gaps`` holds ``user * span + s_j - j`` for each user's seen items
    s_0 < s_1 < ..., ascending, and ``gap_first`` each user's first.
    """
    return p + np.searchsorted(gaps, user * span + p, side="right") - gap_first[user]


def _draw_block(rng, t, pop, gaps, gap_first, span):
    """One block of users' Floyd draws from one ``rng.integers`` call: each row's item and shuffle draw.

    Users have ``t`` rows and pools of ``pop`` >= ``t`` items, with
    ``gaps`` and ``gap_first`` as in :func:`_pool_items`.  A row's item
    is the one its Floyd step picks; its shuffle draw is the swap target
    of its user's shuffle step.
    """
    user = np.repeat(np.arange(len(t)), t)  # per row
    k = _within(t)
    tu, pu = t[user], pop[user]
    draw = (2 * (np.cumsum(t) - t))[user] + k  # a user's t picks, then its shuffle's t steps
    highs = np.empty(2 * len(user), dtype=np.int64)
    highs[draw] = pu - tu + 1 + k
    highs[draw + tu] = tu - k
    x = rng.integers(0, highs)
    v, steps = x[draw], x[draw + tu]

    # Floyd: step k draws v in [0, j], j = pop - t + k, and picks v, or j if v was picked
    # before.  v was picked before exactly when it repeats an earlier draw of the user, or
    # equals j_i for an earlier step i that itself picked j_i in place of a repeat.
    key = user * span + v
    order = np.argsort(key, kind="stable")  # a user's equal draws in step order
    sorted_key = key[order]
    repeat = np.zeros(len(user), dtype=bool)
    repeat[order[1:]] = sorted_key[1:] == sorted_key[:-1]
    below = np.empty(len(user), dtype=np.int64)
    below[order] = np.searchsorted(gaps, sorted_key, side="right")  # as _pool_items, on sorted keys
    item = v + below - gap_first[user]
    j = pu - tu + k
    back = np.where(v >= pu - tu, v - j, 0)  # < 0: the row offset to step i with j_i == v
    taken = repeat.copy()
    rows = np.flatnonzero((back < 0) & ~repeat)
    at = rows + back[rows]
    while len(rows):
        hit = repeat[at]
        taken[rows[hit]] = True
        go = ~hit & (back[at] < 0)
        rows, at = rows[go], at[go] + back[at[go]]
    rows = np.flatnonzero(taken)
    item[rows] = _pool_items(gaps, gap_first, user[rows], j[rows], span)
    return item, steps


def _shuffle(values, steps, t, starts):
    """Run each user's Fisher-Yates steps on its slice of ``values``, step s of every user at once.

    A user's slice is ``values[start:start + t]``; its step s, for s
    below its ``t``, swaps position t - 1 - s with position ``steps[start
    + s]``.  Users are taken in descending ``t``, so those still stepping
    are a prefix, and the loop runs max(t) times.
    """
    order = np.argsort(-t, kind="stable")
    stepping = len(t) - np.cumsum(np.bincount(t))[:-1]  # the number of users with more than s steps
    top, first = (starts + t - 1)[order], starts[order]
    for s, m in enumerate(stepping.tolist()):
        i = top[:m] - s
        j = first[:m] + steps[first[:m] + s]
        moved = values[i]
        values[i] = values[j]
        values[j] = moved


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
    drawn from the same ratings without that user.  ``replacement_users``
    counts the users whose pool was smaller than their positives, read
    from :func:`negative_sample`'s pool sizes.
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
    paired[1::2], replacement_users = _negative_sample(grouped, binarized.num_items, rng)
    train, validation, test = split(paired, ratios=ratios, seed=seed)
    return InteractionDataset(binarized.num_users, binarized.num_items, train, validation, test,
                              binarized.item_entities, no_negative_users=len(full),
                              replacement_users=replacement_users)


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
