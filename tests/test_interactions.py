from dataclasses import dataclass

import numpy as np
import pytest

from ripplerec import interactions
from ripplerec.interactions import (
    InteractionDataset,
    binarize,
    build_dataset,
    dataset_from_files,
    negative_sample,
    read_split,
    split,
    write_split,
)
from ripplerec.kg import ParseError, _scan


def write_ratings(path, rows):
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write("\t".join(str(x) for x in row) + "\n")
    return str(path)


ITEM_MAP = {"i0": 10, "i1": 11, "i2": 12, "i3": 13}


class TestBinarize:
    def test_threshold_rule(self, tmp_path):
        path = write_ratings(tmp_path / "r.tsv", [("u1", "i1", 5)])
        result = binarize(path, 4.0, ITEM_MAP)
        assert result.positives.tolist() == [[0, 1]]

    def test_below_threshold_dropped_not_negative(self, tmp_path):
        path = write_ratings(tmp_path / "r.tsv", [("u1", "i2", 3), ("u1", "i1", 5)])
        result = binarize(path, 4.0, ITEM_MAP)
        assert result.positives.tolist() == [[0, 1]]
        assert result.n_below_threshold == 1

    def test_unmapped_items_dropped_and_counted(self, tmp_path):
        path = write_ratings(tmp_path / "r.tsv", [("u1", "idontexist", 5), ("u1", "i0", 5)])
        result = binarize(path, 4.0, ITEM_MAP)
        assert result.positives.tolist() == [[0, 0]]
        assert result.n_unmapped == 1

    def test_item_vocab_covers_unrated_items(self, tmp_path):
        path = write_ratings(tmp_path / "r.tsv", [("u1", "i0", 5)])
        result = binarize(path, 4.0, ITEM_MAP)
        assert result.num_items == len(ITEM_MAP)
        np.testing.assert_array_equal(result.item_entities, [10, 11, 12, 13])

    def test_timestamp_column_accepted(self, tmp_path):
        path = write_ratings(tmp_path / "r.tsv", [("u1", "i0", 5, 123456)])
        assert binarize(path, 4.0, ITEM_MAP).positives.tolist() == [[0, 0]]

    def test_non_numeric_rating_reports_lineno(self, tmp_path):
        path = write_ratings(tmp_path / "r.tsv", [("u1", "i0", 5), ("u2", "i1", "bad")])
        with pytest.raises(ParseError, match=":2:"):
            binarize(path, 4.0, ITEM_MAP)

    @pytest.mark.parametrize("nan", ["nan", "NaN", "-nan"])
    def test_nan_rating_reports_its_first_line(self, tmp_path, nan):
        # NaN >= threshold is false, so a NaN rating is no positive; it is refused, not dropped
        rows = [("u1", "i0", 5), ("u2", "i1", nan), ("u3", "i2", nan)]
        path = write_ratings(tmp_path / "r.tsv", rows)
        with pytest.raises(ParseError, match=f":2: non-numeric rating '{nan}'$"):
            binarize(path, 4.0, ITEM_MAP)

    @pytest.mark.parametrize("threshold", [float("nan"), float("-inf"), float("inf")])
    def test_non_finite_threshold_rejected(self, tmp_path, threshold):
        path = write_ratings(tmp_path / "r.tsv", [("u1", "i0", 5)])
        with pytest.raises(ValueError, match="threshold must be a finite number"):
            binarize(path, threshold, ITEM_MAP)

    def test_wrong_field_count_rejected(self, tmp_path):
        path = tmp_path / "r.tsv"
        path.write_text("u1\ti0\n", encoding="utf-8")
        with pytest.raises(ParseError, match=":1:"):
            binarize(str(path), 4.0, ITEM_MAP)

    @pytest.mark.parametrize("newline", ["\r\n", "\r"], ids=["crlf", "cr"])
    def test_crlf_and_lone_cr_match_lf(self, tmp_path, newline):
        rows = [("u1", "i1", 5), ("u2", "i0", 4, 99), ("u1", "i3", 2), ("u 3", "i2", 5), ("u1", "i1", 5)]
        lf = binarize(write_ratings(tmp_path / "lf.tsv", rows), 4.0, ITEM_MAP)
        path = tmp_path / "r.tsv"
        text = "".join("\t".join(str(x) for x in row) + "\n" for row in rows)
        path.write_bytes(("\n" + text.replace("\n", "\n\n")).replace("\n", newline).rstrip(newline).encode("utf-8"))
        got = binarize(str(path), 4.0, ITEM_MAP)
        assert got.positives.tolist() == lf.positives.tolist() == [[0, 1], [1, 0], [2, 2]]
        assert got.user_names == lf.user_names == ["u1", "u2", "u 3"]
        assert (got.n_rows, got.n_below_threshold, got.n_unmapped) == (5, 1, 0)
        path.write_bytes(path.read_bytes() + (newline + "u1\ti0\tbad").encode("utf-8"))
        with pytest.raises(ParseError, match=r"r\.tsv:11: non-numeric rating 'bad'"):
            binarize(str(path), 4.0, ITEM_MAP)


def user_rows(positives):
    """(user, item) rows from a user -> items mapping, users in the given order."""
    return np.array([(u, i) for u, items in positives.items() for i in items], dtype=np.int64).reshape(-1, 2)


class TestNegativeSample:
    def test_exact_count_and_disjoint(self):
        positives = user_rows({0: [1, 2, 3]})
        negatives = negative_sample(positives, 100, np.random.default_rng(0))
        assert len(negatives) == 3
        items = set(negatives[:, 1].tolist())
        assert len(items) == 3  # distinct
        assert items.isdisjoint({1, 2, 3})
        assert np.all(negatives[:, 2] == 0)

    def test_seed_determinism(self):
        positives = user_rows({0: [1, 2], 3: [4, 5, 6]})
        a = negative_sample(positives, 50, np.random.default_rng(9))
        b = negative_sample(positives, 50, np.random.default_rng(9))
        np.testing.assert_array_equal(a, b)

    def test_small_pool_falls_back_with_warning(self, caplog):
        # 6 items, user holds 5 positives: pool is a singleton but 5 draws are needed
        positives = user_rows({0: [0, 1, 2, 3, 4]})
        with caplog.at_level("WARNING"):
            negatives = negative_sample(positives, 6, np.random.default_rng(0))
        assert "with replacement" in caplog.text
        assert negatives[:, 1].tolist() == [5] * 5

    def test_no_pool_rejected(self):
        with pytest.raises(ValueError):
            negative_sample(user_rows({0: [0, 1]}), 2, np.random.default_rng(0))


class TestSplit:
    def _records(self, n):
        return np.array([(i % 3, i, i % 2) for i in range(n)], dtype=np.int64).reshape(-1, 3)

    def test_ten_records_6_2_2(self):
        # five pairs: 3/1/1
        assert [len(part) for part in split(self._records(10), seed=0)] == [6, 2, 2]

    def test_five_units_floor_remainder_to_train(self):
        # five pairs in ten records: 2.5, 1.25 and 1.25 pairs floor to 2/1/1, and the fifth pair goes to train
        assert [len(part) for part in split(self._records(10), seed=0, ratios=(0.5, 0.25, 0.25))] == [6, 2, 2]

    def test_pairs_move_together(self):
        for part in split(self._records(40), seed=1):
            assert len(part) % 2 == 0
            np.testing.assert_array_equal(part[1::2, 1], part[0::2, 1] + 1)  # record 2k + 1 follows 2k
            assert (part[0::2, 1] % 2 == 0).all()

    def test_partition_disjoint_and_complete(self):
        records = self._records(40)
        train, validation, test = split(records, seed=1)
        def keys(arr):
            return {tuple(row) for row in arr}
        assert keys(train).isdisjoint(keys(test))
        assert keys(train) | keys(validation) | keys(test) == {tuple(r) for r in records}

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            split(np.empty((0, 3), dtype=np.int64), seed=0)

    def test_bad_ratios_rejected(self):
        with pytest.raises(ValueError, match="sum to 1"):
            split(self._records(10), ratios=(0.5, 0.2, 0.2), seed=0)


def _reference_binarize(path, threshold, item_to_entity):
    """The per-row ``binarize`` loop that the array version replaced: (positives, user_names, counts)."""
    item_index = {raw: i for i, raw in enumerate(item_to_entity)}
    user_index, positives, seen = {}, [], set()
    n_rows = n_below = n_unmapped = 0
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            fields = line.rstrip("\n").split("\t")
            if fields == [""]:
                continue
            raw_user, raw_item, rating = fields[0], fields[1], float(fields[2])
            n_rows += 1
            if raw_item not in item_index:
                n_unmapped += 1
                continue
            if rating < threshold:
                n_below += 1
                continue
            key = (user_index.setdefault(raw_user, len(user_index)), item_index[raw_item])
            if key not in seen:
                seen.add(key)
                positives.append(key)
    return positives, list(user_index), (n_rows, n_below, n_unmapped)


@pytest.mark.parametrize("seed", range(8))
def test_binarize_matches_row_loop(tmp_path, seed):
    rng = np.random.default_rng(seed)
    ratings = ["5", "4", "4.0", "3.99", "1", "inf", "-inf", " 4 ", "4e0"]
    rows = []
    for _ in range(int(rng.integers(1, 200))):
        row = [f"u{rng.integers(12)}", f"i{rng.integers(6)}", ratings[rng.integers(len(ratings))]]
        rows.append("\t".join(row + ["17"] * int(rng.integers(2))))
    path = tmp_path / "r.tsv"
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    threshold = [4.0, 100.0][seed % 2]  # 100: no positives at all
    got = binarize(str(path), threshold, ITEM_MAP)
    positives, user_names, counts = _reference_binarize(path, threshold, ITEM_MAP)
    assert got.positives.dtype == np.int64 and got.positives.shape == (len(positives), 2)
    assert got.positives.tolist() == [list(p) for p in positives]
    assert got.user_names == user_names
    assert (got.n_rows, got.n_below_threshold, got.n_unmapped) == counts


@pytest.mark.parametrize("fields", [3, 4])
def test_binarize_one_field_count_matches_row_loop(tmp_path, fields):
    # every row with the same field count and no blank line: the scanner's reshape path
    rng = np.random.default_rng(fields)
    rows = [[f"u{rng.integers(12)}", f"i{rng.integers(6)}", str(rng.integers(1, 6))] + ["17"] * (fields - 3)
            for _ in range(150)]
    path = tmp_path / "r.tsv"
    path.write_text("".join("\t".join(row) + "\n" for row in rows), encoding="utf-8")
    assert _scan(str(path), (3, 4)).arity == fields
    got = binarize(str(path), 4.0, ITEM_MAP)
    positives, user_names, counts = _reference_binarize(path, 4.0, ITEM_MAP)
    assert got.positives.tolist() == [list(p) for p in positives]
    assert got.user_names == user_names
    assert (got.n_rows, got.n_below_threshold, got.n_unmapped) == counts


class TestBuildDataset:
    def _binarized(self, tmp_path, n_users=12, n_items=30, per_user=6):
        rng = np.random.default_rng(4)
        rows = []
        for u in range(n_users):
            for item in rng.choice(n_items, size=per_user, replace=False):
                rows.append((f"u{u}", f"i{item}", 5))
        path = write_ratings(tmp_path / "r.tsv", rows)
        item_map = {f"i{k}": 100 + k for k in range(n_items)}
        return binarize(path, 4.0, item_map)

    def test_per_user_balance_exact_in_every_split(self, tmp_path):
        ds = build_dataset(self._binarized(tmp_path), seed=5)
        for name in ("train", "validation", "test"):
            records = ds.split_named(name)
            for user in np.unique(records[:, 0]):
                rows = records[records[:, 0] == user]
                assert (rows[:, 2] == 1).sum() == (rows[:, 2] == 0).sum()

    def test_no_pair_with_both_labels_in_same_split(self, tmp_path):
        ds = build_dataset(self._binarized(tmp_path), seed=5)
        for name in ("train", "validation", "test"):
            records = ds.split_named(name)
            pos = {(int(u), int(i)) for u, i, l in records if l == 1}
            neg = {(int(u), int(i)) for u, i, l in records if l == 0}
            assert pos.isdisjoint(neg)

    def test_global_positive_ratio_6_2_2(self, tmp_path):
        ds = build_dataset(self._binarized(tmp_path), seed=5)
        n_pos = [int((ds.split_named(n)[:, 2] == 1).sum()) for n in ("train", "validation", "test")]
        total = sum(n_pos)
        assert n_pos[0] == int(np.floor(total * 0.6)) + (total - sum(int(np.floor(total * r)) for r in (0.6, 0.2, 0.2)))
        assert n_pos[1] == int(np.floor(total * 0.2))
        assert n_pos[2] == int(np.floor(total * 0.2))

    def test_negatives_never_collide_with_any_positive_of_user(self, tmp_path):
        binarized = self._binarized(tmp_path)
        all_pos = {(int(u), int(i)) for u, i in binarized.positives}
        ds = build_dataset(binarized, seed=5)
        for name in ("train", "validation", "test"):
            for u, i, l in ds.split_named(name):
                if l == 0:
                    assert (int(u), int(i)) not in all_pos

    def test_rerun_same_seed_byte_identical_files(self, tmp_path):
        binarized = self._binarized(tmp_path)
        blobs = []
        for run in range(2):
            ds = build_dataset(binarized, seed=5)
            path = tmp_path / f"train_{run}.tsv"
            write_split(path, ds.train)
            blobs.append(path.read_bytes())
        assert blobs[0] == blobs[1]

    def test_split_file_round_trip(self, tmp_path):
        ds = build_dataset(self._binarized(tmp_path), seed=5)
        path = tmp_path / "train.tsv"
        write_split(path, ds.train)
        np.testing.assert_array_equal(read_split(path, ds.num_users, ds.num_items), ds.train)
        for name in ("validation", "test"):
            write_split(tmp_path / f"{name}.tsv", ds.split_named(name))
        rebuilt = dataset_from_files(path, tmp_path / "validation.tsv", tmp_path / "test.tsv",
                                     ds.num_users, ds.num_items, ds.item_entities)
        for name in ("train", "validation", "test"):
            a, b = rebuilt.split_named(name), ds.split_named(name)
            assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes(), name
        assert rebuilt.item_entities is ds.item_entities

    def test_user_who_rated_every_item_dropped_counted_and_named(self, tmp_path, caplog):
        # "all" rated every item of ITEM_MAP, so no negative exists for them; user index 1 puts
        # them between the others, whose negatives and splits are those drawn without "all"
        others = [("a", "i0", 5), ("a", "i2", 5), ("b", "i1", 5), ("b", "i3", 5), ("c", "i2", 5), ("c", "i0", 5)]
        every = [("all", f"i{k}", 5) for k in (3, 1, 0, 2)]
        binarized = binarize(write_ratings(tmp_path / "r.tsv", others[:1] + every + others[1:]), 4.0, ITEM_MAP)
        assert binarized.user_names == ["a", "all", "b", "c"]
        with caplog.at_level("WARNING"):
            ds = build_dataset(binarized, ratios=(0.5, 0.25, 0.25), seed=3)
        assert ds.no_negative_users == 1
        assert "1 users who rated every item" in caplog.text and ": all" in caplog.text
        want_binarized = binarize(write_ratings(tmp_path / "o.tsv", others), 4.0, ITEM_MAP)
        want = build_dataset(want_binarized, ratios=(0.5, 0.25, 0.25), seed=3)
        assert want.no_negative_users == 0
        for name in ("train", "validation", "test"):
            got = [(binarized.user_names[u], i, l) for u, i, l in ds.split_named(name).tolist()]
            assert got == [(want_binarized.user_names[u], i, l) for u, i, l in want.split_named(name).tolist()], name


# -- reference: the object-based prep path that the array path replaced ---------------


@dataclass(frozen=True)
class _Interaction:
    user: int
    item: int
    label: int


def _reference_negative_sample(positives, num_items, rng):
    out = []
    all_items = np.arange(num_items, dtype=np.int64)
    for user in sorted(positives):
        pos = np.unique(np.asarray(positives[user], dtype=np.int64))
        t = len(positives[user])
        pool = np.setdiff1d(all_items, pos, assume_unique=True)
        if len(pool) == 0:
            raise ValueError(f"user {user}: no unobserved items to sample negatives from")
        if len(pool) < t:
            draws = pool[rng.integers(0, len(pool), size=t)]
        else:
            draws = rng.choice(pool, size=t, replace=False)
        out.extend(_Interaction(user=user, item=int(item), label=0) for item in draws)
    return out


def _reference_build_dataset(binarized, ratios=(0.6, 0.2, 0.2), seed=0):
    rng = np.random.default_rng(seed)
    per_user = {}
    for u, i in binarized.positives.tolist():
        per_user.setdefault(u, []).append(i)
    negatives = _reference_negative_sample(per_user, binarized.num_items, rng)
    neg_by_user = {}
    for rec in negatives:
        neg_by_user.setdefault(rec.user, []).append(rec)
    paired = []
    for user in sorted(per_user):
        for item, neg in zip(per_user[user], neg_by_user[user]):
            paired.append(_Interaction(user=user, item=item, label=1))
            paired.append(neg)
    records = np.asarray([(i.user, i.item, i.label) for i in paired], dtype=np.int64)
    splits = split(records, ratios=ratios, seed=seed)
    return InteractionDataset(binarized.num_users, binarized.num_items, *splits, binarized.item_entities), rng


class TestArrayPrepOracle:
    """The array prep path draws, pairs and splits exactly as the object path did."""

    def _binarized(self, tmp_path, seed):
        # ratings in shuffled file order, so users interleave and grouping matters;
        # user "dense" rates 7 of 8 items: its pool (1) is smaller than its positives
        rng = np.random.default_rng(seed)
        rows = [(f"u{u}", f"i{item}", 5) for u in range(9)
                for item in rng.choice(8, size=int(rng.integers(1, 5)), replace=False)]
        rows += [("dense", f"i{item}", 5) for item in range(7)]
        rows = [rows[k] for k in rng.permutation(len(rows))]
        path = write_ratings(tmp_path / f"r{seed}.tsv", rows)
        return binarize(path, 4.0, {f"i{k}": 100 + k for k in range(8)})

    @pytest.mark.parametrize("seed", [0, 1, 5, 17])
    def test_matches_object_path(self, tmp_path, caplog, seed):
        binarized = self._binarized(tmp_path, seed)
        with caplog.at_level("WARNING"):
            got = build_dataset(binarized, seed=seed)
        assert "with replacement" in caplog.text
        want, want_rng = _reference_build_dataset(binarized, seed=seed)
        for name in ("train", "validation", "test"):
            a, b = got.split_named(name), want.split_named(name)
            # the splits are int32 (users and items below 2**31); the object path's are int64
            assert (a.dtype, b.dtype) == (np.int32, np.int64), name
            assert a.shape == b.shape and a.astype(np.int64).tobytes() == b.tobytes(), name

        # the negative draws leave the generator where the object path left it;
        # positives not sorted by user are refused rather than regrouped
        order = np.argsort(binarized.positives[:, 0], kind="stable")
        rng = np.random.default_rng(seed)
        negative_sample(binarized.positives[order], binarized.num_items, rng)
        assert rng.random() == want_rng.random()
        with pytest.raises(ValueError, match="sorted by user"):
            negative_sample(binarized.positives, binarized.num_items, np.random.default_rng(seed))


# -- the whole-array sampler against the per-user oracle ------------------------------


def _heavy_tailed_rows(seed=3, users=40, num_items=300):
    rng = np.random.default_rng(seed)
    counts = np.minimum((rng.pareto(1.3, users) * 4 + 1).astype(int), num_items - 1)
    return {u: rng.choice(num_items, c, replace=False).tolist() for u, c in enumerate(counts)}, num_items


SAMPLER_CASES = {
    # every user draws by Floyd's algorithm: pools of 40-49 against at most 10 positives
    "floyd": ({u: list(range(u, u + 1 + 2 * u)) for u in range(5)}, 50),
    "t_equals_pool": ({0: [0, 2, 4], 1: [1]}, 6),
    "t_is_one": ({u: [u % 3] for u in range(7)}, 3),
    "pool_smaller_than_t": ({0: [2], 1: [0, 1, 2, 3, 4], 2: [5, 1]}, 6),
    "duplicate_rows": ({0: [1, 1, 2, 2, 2], 1: [3, 3]}, 10),
    "user_ids_with_gaps": ({3: [0, 1], 17: [4], 400: [2, 3, 5, 6]}, 8),
    # one user: pool 10250 > 10000 and 250 positives > 10250 // 50, so choice shuffles arange(pool)
    "tail_shuffle": ({0: list(range(0, 500, 2))}, 10500),
    # 201 positives, one over OWN_CALL_ROWS, between users drawn by the block call
    "own_call_between_blocks": ({0: [1, 2], 1: list(range(0, 402, 2)), 2: [5], 3: list(range(3, 40))}, 420),
    # 205 positives over 210 items: an own call drawing with replacement
    "own_call_pool_smaller_than_t": ({0: [0], 1: list(range(205)), 2: [7, 8]}, 210),
    "heavy_tailed": _heavy_tailed_rows(),
    "no_positives": ({}, 5),
    # the first and the last user draw with replacement by their own call, the Floyd users between them by blocks
    "pool_smaller_than_t_at_both_ends": ({0: list(range(9)), 1: [1, 2], 2: [3], 3: [0, 5, 9, 7],
                                          4: [0, 1, 2, 3, 4, 5, 6, 6]}, 10),
}


@pytest.mark.parametrize("block", [7, interactions.NEGATIVE_BLOCK])
@pytest.mark.parametrize("case", sorted(SAMPLER_CASES))
def test_negative_sample_matches_per_user_oracle(case, block, monkeypatch, caplog):
    # the same items, and the generator left in the same state, as one choice call per user;
    # a block of 7 draws splits users' draws over many rng.integers calls
    monkeypatch.setattr(interactions, "NEGATIVE_BLOCK", block)
    per_user, num_items = SAMPLER_CASES[case]
    rng, want_rng = np.random.default_rng(11), np.random.default_rng(11)
    with caplog.at_level("WARNING"):
        got = negative_sample(user_rows(per_user), num_items, rng)
    want = _reference_negative_sample(per_user, num_items, want_rng)
    assert got.shape == (len(want), 3) and got.dtype == np.int64
    assert got.tolist() == [[rec.user, rec.item, rec.label] for rec in want]
    assert rng.bit_generator.state == want_rng.bit_generator.state
    warned = {"pool_smaller_than_t": ["user 1: unobserved pool (1) smaller than positive count (5)"],
              "own_call_pool_smaller_than_t": ["user 1: unobserved pool (5) smaller than positive count (205)"],
              "pool_smaller_than_t_at_both_ends": ["user 0: unobserved pool (1) smaller than positive count (9)",
                                                   "user 4: unobserved pool (3) smaller than positive count (8)"]}
    assert caplog.messages == [message + "; sampling with replacement" for message in warned.get(case, [])]


@pytest.mark.parametrize("item", [-1, 6])
def test_item_out_of_range_rejected_before_any_draw(item):
    # -1 would mark the last item seen, 6 (num_items) would index past the end; the first such row is named
    positives = user_rows({0: [1, 2], 1: [3, item, item], 2: [0]})
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match=rf"positives row 3: item {item} is not in \[0, 6\)"):
        negative_sample(positives, 6, rng)
    assert rng.bit_generator.state == state


def test_empty_pool_rejected_before_any_draw():
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match="user 2: no unobserved items"):
        negative_sample(user_rows({0: [1], 2: [0, 1, 2]}), 3, rng)
    assert rng.bit_generator.state == state


@pytest.mark.parametrize("seed", [0, 1])
def test_users_drawn_with_replacement_counted(tmp_path, seed):
    # of TestArrayPrepOracle's users only "dense" (7 of 8 items rated) has a pool smaller than its positives
    binarized = TestArrayPrepOracle()._binarized(tmp_path, seed)
    assert build_dataset(binarized, seed=seed).replacement_users == 1
    undense = binarized.positives[binarized.positives[:, 0] != binarized.user_names.index("dense")]
    binarized.positives = undense
    assert build_dataset(binarized, seed=seed).replacement_users == 0
