import logging
import tracemalloc

import numpy as np
import pytest

import ripplerec.kg
from ripplerec.kg import (
    NULL_RELATION,
    ParseError,
    _intern,
    _scan,
    build_ripple_table,
    load_item_map,
    load_kg,
    read_int_tsv,
    relation_dtype,
    sample_children,
    write_int_tsv,
    write_vocab,
)
from ripplerec.cli import _table_sha256
from ripplerec.model import Hyperparams, build_neighbor_table, sample_item_trees

from conftest import adjacency, reference_load_kg, reference_ripple_bags, train_seeds, write_kg


def read_vocab(path):
    """Inverse of ``write_vocab``: the dict raw_id -> index."""
    with open(path, "rb") as fh:
        lines = fh.read().decode("utf-8").split("\n")[:-1]  # names may hold other line breaks
    return {raw: int(idx) for raw, idx in (line.split("\t") for line in lines)}


class TestLoadKg:
    def test_two_line_file(self, tmp_path):
        path = write_kg(tmp_path / "kg.tsv", [("a", "r", "b"), ("b", "r", "c")])
        kg = load_kg(path, undirected=True)
        assert kg.num_entities == 3
        assert kg.num_relations == 1
        r, a, c = kg.relation_names.index("r"), kg.entity_names.index("a"), kg.entity_names.index("c")
        b = kg.entity_names.index("b")
        assert [tuple(row) for row in kg.neighbors(b)] == [(r, a), (r, c)]

    def test_first_appearance_vocab_order(self, tmp_path):
        path = write_kg(tmp_path / "kg.tsv", [("x", "r2", "y"), ("y", "r1", "x"), ("z", "r2", "x")])
        kg = load_kg(path)
        assert kg.entity_names == ["x", "y", "z"]
        assert kg.relation_names == ["r2", "r1"]

    def test_duplicates_stored_once(self, tmp_path):
        path = write_kg(tmp_path / "kg.tsv", [("a", "r", "b"), ("a", "r", "b"), ("a", "r", "b")])
        kg = load_kg(path)
        assert kg.num_triples == 1
        assert kg.degree(kg.entity_names.index("a")) == 1

    def test_malformed_line_reports_lineno(self, tmp_path):
        path = tmp_path / "kg.tsv"
        path.write_text("a\tr\tb\noops-no-tabs\n", encoding="utf-8")
        with pytest.raises(ParseError, match=":2:"):
            load_kg(str(path))

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "kg.tsv"
        path.write_text("", encoding="utf-8")
        with pytest.raises(ValueError):
            load_kg(str(path))

    def test_undirected_doubles_degree_minus_self_loops(self, tmp_path):
        rows = [("a", "r", "b"), ("b", "s", "c"), ("c", "r", "c"), ("a", "s", "c")]
        path = write_kg(tmp_path / "kg.tsv", rows)
        directed = load_kg(path, undirected=False)
        undirected = load_kg(path, undirected=True)
        n_self = sum(1 for h, r, t in rows if h == t)
        assert undirected.total_degree() == 2 * directed.total_degree() - n_self

    # a -r-> b -r-> c: 3 entities, and 2 edges directed or 4 undirected
    @pytest.mark.parametrize("undirected, limit, index", [(False, 3, np.int64), (False, 4, np.int32),
                                                           (True, 4, np.int64), (True, 5, np.int32)],
                             ids=["entities-reach", "directed-below", "edges-reach", "undirected-below"])
    def test_index_dtype_follows_the_limit(self, chain_kg, tmp_path, monkeypatch, undirected, limit, index):
        monkeypatch.setattr(ripplerec.kg, "INDEX_LIMIT", limit)
        kg = load_kg(write_kg(tmp_path / "chain.tsv", [("a", "r", "b"), ("b", "r", "c")]), undirected)
        assert kg.indptr.dtype == kg.nbr.dtype == index and kg.rel.dtype == np.int8  # one relation
        if undirected:
            assert kg.indptr.tobytes() == chain_kg.indptr.astype(index).tobytes()
            assert kg.nbr.tobytes() == chain_kg.nbr.astype(index).tobytes()

    def test_adjacency_sorted(self, tmp_path):
        rows = [("a", "r2", "c"), ("a", "r1", "b"), ("a", "r1", "a0"), ("a", "r2", "b")]
        path = write_kg(tmp_path / "kg.tsv", rows)
        kg = load_kg(path, undirected=False)
        adj = kg.neighbors(kg.entity_names.index("a"))
        assert [tuple(p) for p in adj] == sorted(tuple(p) for p in adj)


class TestSampleNeighbors:
    """One entity's bag: ``sample_children`` on a one-entity array."""

    def test_singleton_with_replacement(self, chain_kg):
        kg = chain_kg
        a = kg.entity_names.index("a")
        (rels,), (nbrs,) = sample_children(kg, [a], 4, np.random.default_rng(0))
        assert len(rels) == len(nbrs) == 4
        assert set(nbrs.tolist()) == {kg.entity_names.index("b")}
        assert set(rels.tolist()) == {kg.relation_names.index("r")}

    def test_seed_determinism(self, chain_kg):
        b = chain_kg.entity_names.index("b")
        r1, e1 = sample_children(chain_kg, [b], 8, np.random.default_rng(11))
        r2, e2 = sample_children(chain_kg, [b], 8, np.random.default_rng(11))
        np.testing.assert_array_equal(e1, e2)
        np.testing.assert_array_equal(r1, r2)

    def test_uniformity_over_degree_8(self, tmp_path):
        rows = [("hub", "r", f"n{i}") for i in range(8)]
        kg = load_kg(write_kg(tmp_path / "kg.tsv", rows), undirected=False)
        hub = kg.entity_names.index("hub")
        rng = np.random.default_rng(100)
        n_draws = 10_000
        counts = np.zeros(8)
        for _ in range(n_draws):
            _, (nbrs,) = sample_children(kg, [hub], 8, rng)
            for e in nbrs:
                counts[e - 1] += 1
        # each slot is an independent uniform draw over 8 neighbors
        total = n_draws * 8
        p = 1 / 8
        sigma = np.sqrt(total * p * (1 - p))
        assert np.all(np.abs(counts - total * p) < 3 * sigma)

    def test_isolated_entity_padded_with_self_loops(self, tmp_path):
        kg = load_kg(write_kg(tmp_path / "kg.tsv", [("a", "r", "b")]), undirected=False)
        b = kg.entity_names.index("b")  # no outgoing edges in directed mode
        rels, nbrs = sample_children(kg, [b], 3, np.random.default_rng(0))
        assert np.all(rels == NULL_RELATION)
        assert np.all(nbrs == b)

    def test_neighbor_table_pads_edgeless_entities(self, tmp_path):
        kg = load_kg(write_kg(tmp_path / "kg.tsv", [("a", "r", "b")]), undirected=False)
        table = build_neighbor_table(kg, Hyperparams(neighbor_size=3), seed=0)
        a, b = kg.entity_names.index("a"), kg.entity_names.index("b")  # b has no outgoing edge in directed mode
        assert table.rel.shape == table.nbr.shape == (kg.num_entities, 3)
        assert table.rel[b].tolist() == [NULL_RELATION] * 3 and table.nbr[b].tolist() == [b] * 3
        assert table.rel[a].tolist() == [kg.relation_names.index("r")] * 3 and table.nbr[a].tolist() == [b] * 3
        with pytest.raises(ValueError, match="read-only"):
            table.nbr[b, 0] = a

    def test_invalid_size_rejected(self, chain_kg):
        with pytest.raises(ValueError):
            sample_children(chain_kg, [0], 0, np.random.default_rng(0))


def _one_user(kg, seeds, hops, n_p, rng):
    """``(hops, n_p, 3)`` bags of a one-user table seeded by ``seeds``."""
    table = build_ripple_table(kg, np.zeros(len(seeds), dtype=np.int64), seeds, 1, hops, n_p, rng)
    assert table.has.tolist() == [True]
    return table.bags[:, 0]


def _history_table(kg, dataset, hops, n_p, rng):
    """Table of every user with a train positive, and each user's seed entities."""
    seeds = train_seeds(dataset)
    users = np.concatenate([np.full(len(s), user) for user, s in seeds.items()])
    table = build_ripple_table(kg, users, np.concatenate(list(seeds.values())), dataset.num_users, hops, n_p, rng)
    return table, seeds


class TestBuildRippleSet:
    """Per-user ripple bag invariants, checked on tables of ``build_ripple_table``."""

    def test_chain_unique_choice(self, tmp_path):
        kg = load_kg(write_kg(tmp_path / "kg.tsv", [("e0", "r0", "e1"), ("e1", "r0", "e2")]), undirected=False)
        e0, e1, e2 = (kg.entity_names.index(e) for e in ("e0", "e1", "e2"))
        r0 = kg.relation_names.index("r0")
        bags = _one_user(kg, [e0], hops=2, n_p=1, rng=np.random.default_rng(0))
        assert [tuple(bags[0, 0])] == [(e0, r0, e1)]
        assert [tuple(bags[1, 0])] == [(e1, r0, e2)]

    def test_chain_with_replacement_singleton(self, tmp_path):
        kg = load_kg(write_kg(tmp_path / "kg.tsv", [("e0", "r0", "e1"), ("e1", "r0", "e2")]), undirected=False)
        e0 = kg.entity_names.index("e0")
        bags = _one_user(kg, [e0], hops=1, n_p=3, rng=np.random.default_rng(0))
        assert bags.shape == (1, 3, 3)
        assert {tuple(row) for row in bags[0]} == {(e0, 0, kg.entity_names.index("e1"))}

    def test_star_uniformity(self, tmp_path):
        rows = [("hub", "r", f"s{i}") for i in range(5)]
        kg = load_kg(write_kg(tmp_path / "kg.tsv", rows), undirected=False)
        hub = kg.entity_names.index("hub")
        n_rebuilds = 10_000  # one user each, all in one table
        table = build_ripple_table(kg, np.arange(n_rebuilds), np.full(n_rebuilds, hub), n_rebuilds,
                                   hops=1, n_p=5, rng=np.random.default_rng(0))
        counts = np.bincount(table.bags[0, :, :, 2].ravel() - 1, minlength=5)
        total = n_rebuilds * 5
        p = 1 / 5
        sigma = np.sqrt(total * p * (1 - p))
        assert np.all(np.abs(counts - total * p) < 3 * sigma)

    def test_head_containment_across_hops(self, tiny_data):
        kg, dataset = tiny_data
        table, seeds = _history_table(kg, dataset, 3, 8, np.random.default_rng(5))
        assert table.has.sum() == len(seeds)
        for user, user_seeds in seeds.items():
            prev_tails = set(user_seeds.tolist())
            for bag in table.bags[:, user]:
                assert set(bag[:, 0].tolist()) <= prev_tails
                prev_tails = set(bag[:, 2].tolist())

    def test_support_subset_of_bfs_frontier(self, tiny_data):
        kg, dataset = tiny_data
        table, seeds = _history_table(kg, dataset, 3, 16, np.random.default_rng(9))
        for user in list(seeds)[:10]:
            # brute-force frontier: exhaustive expansion of all triples reachable per hop
            frontier = set(seeds[user].tolist())
            for bag in table.bags[:, user]:
                reachable = set()
                tails = set()
                for e in frontier:
                    for rel, t in kg.neighbors(e):
                        reachable.add((e, int(rel), int(t)))
                        tails.add(int(t))
                assert {tuple(row) for row in bag.tolist()} <= reachable
                frontier = tails

    def test_byte_exact_reproducibility(self, tiny_data):
        kg, dataset = tiny_data
        t1, _ = _history_table(kg, dataset, 2, 16, np.random.default_rng(77))
        t2, _ = _history_table(kg, dataset, 2, 16, np.random.default_rng(77))
        assert t1.bags.tobytes() == t2.bags.tobytes()
        assert t1.has.tobytes() == t2.has.tobytes()

    def test_empty_frontier_backfills_previous_hop(self, tmp_path, caplog):
        # directed dead end: e1 has no outgoing triples; users 0 and 2 reach it, user 1 never does
        kg = load_kg(write_kg(tmp_path / "kg.tsv", [("e0", "r0", "e1"), ("e2", "r0", "e2")]), undirected=False)
        e0, e2 = kg.entity_names.index("e0"), kg.entity_names.index("e2")
        rng, ref_rng = np.random.default_rng(0), np.random.default_rng(0)
        with caplog.at_level("WARNING", logger="ripplerec.kg"):
            table = build_ripple_table(kg, [2, 0, 1], [e0, e0, e2], 3, hops=3, n_p=4, rng=rng)
        backfills = [r.getMessage() for r in caplog.records if "empty frontier" in r.getMessage()]
        assert backfills == [f"user {u}: empty frontier at hop {k}; resampling previous hop"
                             for k in (2, 3) for u in (0, 2)]
        for user in (0, 2):
            hop1 = np.unique(table.bags[0, user], axis=0)
            for k in (1, 2):
                np.testing.assert_array_equal(np.unique(table.bags[k, user], axis=0), hop1)
        adj = adjacency(tmp_path / "kg.tsv", undirected=False)
        want = reference_ripple_bags(adj, {0: [e0], 1: [e2], 2: [e0]}, 3, 4, ref_rng)
        for user, bags in want.items():
            assert _int32_values(table.bags[:, user], np.stack(bags))
        assert rng.random() == ref_rng.random()

    def test_empty_seeds_rejected(self, chain_kg):
        a = chain_kg.entity_names.index("a")
        rng, one_rng = np.random.default_rng(0), np.random.default_rng(0)
        table = build_ripple_table(chain_kg, [1], [a], 3, 2, 4, rng)
        assert table.has.tolist() == [False, True, False]
        assert not table.bags[:, [0, 2]].any()
        with pytest.raises(KeyError):
            table.take(np.array([0]))
        assert table.bags[:, 1].tobytes() == _one_user(chain_kg, [a], 2, 4, one_rng).tobytes()
        assert rng.random() == one_rng.random()
        empty = build_ripple_table(chain_kg, [], [], 2, 2, 4, rng)
        assert empty.has.tolist() == [False, False] and empty.bags.shape == (2, 2, 4, 3)

    def test_seed_without_outgoing_triples_rejected(self, tmp_path, caplog):
        kg = load_kg(write_kg(tmp_path / "kg.tsv", [("a", "r", "b")]), undirected=False)
        rng = np.random.default_rng(0)
        with caplog.at_level("WARNING", logger="ripplerec.kg"):
            table = build_ripple_table(kg, [0], [kg.entity_names.index("b")], 1, 1, 2, rng)
        assert "1 users skipped: seed entities have no outgoing triples" in caplog.text
        assert table.has.tolist() == [False] and not table.bags.any()
        with pytest.raises(KeyError):
            table.take(np.array([0]))
        assert rng.random() == np.random.default_rng(0).random()  # no draw

    def test_dead_end_user_leaves_other_bags_byte_identical(self, tmp_path):
        rows = [("a", "r", "b"), ("b", "s", "c"), ("c", "r", "a"), ("c", "s", "d"), ("x", "r", "sink")]
        kg = load_kg(write_kg(tmp_path / "kg.tsv", rows), undirected=False)
        a, c, sink = (kg.entity_names.index(e) for e in ("a", "c", "sink"))
        without = build_ripple_table(kg, [1, 3, 3], [a, a, c], 4, 3, 5, np.random.default_rng(4))
        # users 0 and 2 are dead ends, sorting before and between the live users
        with_dead = build_ripple_table(kg, [2, 1, 0, 3, 3], [sink, a, sink, a, c], 4, 3, 5,
                                       np.random.default_rng(4))
        assert with_dead.has.tolist() == without.has.tolist() == [False, True, False, True]
        assert with_dead.bags.tobytes() == without.bags.tobytes()

    @pytest.mark.parametrize("hops, n_p", [(0, 4), (2, 0)])
    def test_invalid_size_rejected(self, chain_kg, hops, n_p):
        with pytest.raises(ValueError, match="must be >= 1"):
            build_ripple_table(chain_kg, [0], [0], 1, hops, n_p, np.random.default_rng(0))


def _reference_children(adj, ents, n_e, rng):
    """Per-entity draw loop that the vectorized sampler must match draw for draw."""
    flat = np.asarray(ents).reshape(-1)
    rels = np.empty((flat.size, n_e), dtype=np.int64)
    out = np.empty((flat.size, n_e), dtype=np.int64)
    for i, e in enumerate(flat):
        pairs = np.array(adj[e], dtype=np.int64).reshape(-1, 2)
        if len(pairs) == 0:
            rels[i] = NULL_RELATION
            out[i] = e
        else:
            picks = rng.integers(0, len(pairs), size=n_e)
            rels[i] = pairs[picks, 0]
            out[i] = pairs[picks, 1]
    return rels, out


def _same_bytes(got, want):
    return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


def _int32_values(got, want):
    """``got`` is int32 and holds exactly the values of the int64 oracle ``want``."""
    return got.dtype == np.int32 and _same_bytes(got.astype(np.int64), want)


def _int8_values(got, want):
    """``got`` is int8, the relation dtype of a graph of at most 128 relations, and holds the values of ``want``."""
    return got.dtype == np.int8 and _same_bytes(got.astype(np.int64), want)


@pytest.fixture(params=[(seed, undirected) for seed in range(3) for undirected in (False, True)],
                ids=lambda p: f"seed{p[0]}-{'undirected' if p[1] else 'directed'}")
def random_graph(request, tmp_path):
    """A random graph and its :func:`adjacency` oracle, both read from one file.

    The file holds duplicate lines, a triple and its reverse, self-loops and dead ends.
    """
    seed, undirected = request.param
    rng = np.random.default_rng(seed)
    rows = [(f"e{rng.integers(12)}", f"r{rng.integers(3)}", f"e{rng.integers(20)}") for _ in range(40)]
    rows += [("e1", "r0", "e2"), ("e2", "r0", "e1"), ("e1", "r0", "e2"), ("e3", "r1", "e3"),
             ("e0", "r2", "sink0"), ("e5", "r1", "sink1")]
    path = write_kg(tmp_path / "kg.tsv", rows)
    kg = load_kg(path, undirected=undirected)
    if not undirected:
        assert kg.degree(kg.entity_names.index("sink0")) == 0
    return kg, adjacency(path, undirected)


class TestCsrOracle:
    """The CSR layout and vectorized samplers against per-entity reference loops."""

    def test_neighbors_match_brute_force(self, random_graph):
        kg, adj = random_graph
        for e in range(kg.num_entities):
            assert [tuple(p) for p in kg.neighbors(e).tolist()] == adj[e]
            assert kg.degree(e) == len(adj[e])
        assert kg.total_degree() == sum(len(a) for a in adj)

    def test_sample_children_stream(self, random_graph):
        kg, adj = random_graph
        ents = np.random.default_rng(1).integers(0, kg.num_entities, size=(7, 5))
        ents[3, 2] = kg.entity_names.index("sink0")  # no edges when directed: the pad path
        rng, ref_rng = np.random.default_rng(42), np.random.default_rng(42)
        rels, nbrs = sample_children(kg, ents, 4, rng)
        want_rels, want_nbrs = _reference_children(adj, ents, 4, ref_rng)
        assert _int8_values(rels, want_rels.reshape(7, 5, 4))
        assert _int32_values(nbrs, want_nbrs.reshape(7, 5, 4))
        assert rng.random() == ref_rng.random()

    def test_sample_neighbors_stream(self, random_graph):
        """One-entity calls of ``sample_children``, entity after entity, on one generator."""
        kg, adj = random_graph
        rng, ref_rng = np.random.default_rng(8), np.random.default_rng(8)
        for e in range(kg.num_entities):
            rels, nbrs = sample_children(kg, [e], 3, rng)
            want_rels, want_nbrs = _reference_children(adj, [e], 3, ref_rng)
            assert _int8_values(rels, want_rels)
            assert _int32_values(nbrs, want_nbrs)
        assert rng.random() == ref_rng.random()

    def test_sample_item_trees_stream(self, random_graph):
        """The run's table is the per-entity draw loop over every entity; each tree node reads its row."""
        kg, adj = random_graph
        table = build_neighbor_table(kg, Hyperparams(neighbor_size=3), seed=5)
        want_rels, want_nbrs = _reference_children(adj, np.arange(kg.num_entities), 3,
                                                   np.random.default_rng([5, 19]))
        assert _int8_values(table.rel, want_rels) and _int32_values(table.nbr, want_nbrs)
        v_idx = np.random.default_rng(1).integers(0, kg.num_entities, size=9)
        ents, rels = sample_item_trees(table, v_idx, 2)
        assert rels[0] is None and _same_bytes(ents[0], v_idx.reshape(-1, 1))
        for depth in (1, 2):
            parents = ents[depth - 1]
            want_r = [[r for e in row for r in want_rels[e]] for row in parents.tolist()]
            want_e = [[c for e in row for c in want_nbrs[e]] for row in parents.tolist()]
            assert _int8_values(rels[depth], np.array(want_r, dtype=np.int64))
            assert _int32_values(ents[depth], np.array(want_e, dtype=np.int64))

    def test_build_ripple_set_stream(self, random_graph):
        kg, adj = random_graph
        live = [e for e in range(kg.num_entities) if adj[e]]
        pick = np.random.default_rng(3)
        seeds = {user: pick.choice(kg.num_entities, size=3).tolist() + [int(pick.choice(live))]
                 for user in range(10)}
        seeds[4] = [kg.entity_names.index("sink0")]  # a dead end when directed
        seeds[7] = [kg.entity_names.index("sink1"), kg.entity_names.index("sink0")]
        del seeds[8]  # no seeds
        users = np.concatenate([np.full(len(s), user) for user, s in seeds.items()])
        rng, ref_rng = np.random.default_rng(13), np.random.default_rng(13)
        order = pick.permutation(len(users))  # pairs in any order
        table = build_ripple_table(kg, users[order], np.concatenate(list(seeds.values()))[order], 11,
                                   3, 5, rng)
        want = reference_ripple_bags(adj, seeds, 3, 5, ref_rng)
        assert table.has.tolist() == [user in want for user in range(11)]
        assert not kg.undirected or len(want) == 9
        for user in range(11):
            expected = np.stack(want[user]) if user in want else np.zeros((3, 5, 3), dtype=np.int64)
            assert _int32_values(table.bags[:, user], expected)
        assert rng.random() == ref_rng.random()


class TestVocabAndItemMap:
    def test_vocab_round_trip(self, tmp_path, chain_kg):
        path = tmp_path / "vocab.tsv"
        write_vocab(path, chain_kg.entity_names)
        assert list(read_vocab(path).items()) == [(name, i) for i, name in enumerate(chain_kg.entity_names)]

    def test_item_map_skips_unknown_entities(self, tmp_path, chain_kg):
        path = tmp_path / "map.tsv"
        path.write_text("i0\ta\ni1\tmissing\n", encoding="utf-8")
        mapping = load_item_map(str(path), chain_kg)
        assert mapping == {"i0": chain_kg.entity_names.index("a")}

    def test_item_map_repeats_stored_once_in_first_appearance_order(self, tmp_path, chain_kg):
        path = tmp_path / "map.tsv"
        path.write_text("i2\tc\ni0\ta\ni2\tc\ni1\tmissing\ni0\ta\ni1\tmissing\n", encoding="utf-8")
        mapping = load_item_map(str(path), chain_kg)
        names = chain_kg.entity_names
        assert list(mapping.items()) == [("i2", names.index("c")), ("i0", names.index("a"))]

    @pytest.mark.parametrize("later", ["b", "missing"])
    def test_item_map_conflicting_rows_rejected(self, tmp_path, chain_kg, later):
        path = tmp_path / "map.tsv"
        path.write_text(f"i0\ta\ni1\tb\ni1\tb\n\ni0\t{later}\ni1\tc\n", encoding="utf-8")
        with pytest.raises(ParseError) as err:
            load_item_map(str(path), chain_kg)
        assert str(err.value) == f"{path}:5: item 'i0' maps to entity '{later}', but an earlier line maps it to 'a'"

    def test_item_map_malformed_rejected(self, tmp_path, chain_kg):
        path = tmp_path / "map.tsv"
        path.write_text("just-one-field\n", encoding="utf-8")
        with pytest.raises(ParseError):
            load_item_map(str(path), chain_kg)

    def test_item_map_resolves_the_last_name_and_a_tail_only_entity(self, tmp_path, caplog):
        kg = load_kg(write_kg(tmp_path / "kg.tsv", [("a", "r", "b"), ("b", "s", "c"), ("d", "r", "a")]))
        names = kg.entity_names
        assert names[-1] == "d"  # the graph's last name; "c" appears only as a tail
        path = tmp_path / "map.tsv"
        path.write_text("i0\tc\ni1\tzz\ni2\td\ni1\tzz\ni3\tb\n", encoding="utf-8")
        with caplog.at_level("WARNING"):
            mapping = load_item_map(str(path), kg)
        assert list(mapping.items()) == [("i0", names.index("c")), ("i2", names.index("d")), ("i3", names.index("b"))]
        assert "2 item map rows referenced unknown entities" in caplog.text

    def test_item_map_holds_no_graph_wide_dict(self, tmp_path):
        # a 50,000-entity chain e -> e + 1 (names are the entity numbers) and 1,000 items, the last
        # on the graph's last entity: the traced peak stays under 16 bytes per graph entity, where a
        # name -> index dict of the graph needs about 90
        num_entities = 50_000
        heads = np.arange(num_entities - 1)
        kg_path, map_path = tmp_path / "kg.tsv", tmp_path / "map.tsv"
        write_int_tsv(kg_path, np.stack((heads, heads % 4, heads + 1), axis=1))
        entities = np.linspace(0, num_entities - 1, 1000).astype(np.int64)
        write_int_tsv(map_path, np.stack((np.arange(1000), entities), axis=1))
        kg = load_kg(str(kg_path), undirected=False)
        assert kg.entity_names == [str(e) for e in range(num_entities)]  # entity e is named "e"
        tracemalloc.start()
        try:
            mapping = load_item_map(str(map_path), kg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert mapping == {str(i): e for i, e in enumerate(entities.tolist())}
        assert peak < 16 * num_entities, peak


# -- the byte-level interner, pinned against dict.fromkeys ---------------------------


def _intern_lines(fields):
    """:func:`_intern` over ``fields`` written one per line, padded with 8 zero bytes as :func:`_scan` pads a file."""
    buf = np.frombuffer("".join(f + "\n" for f in fields).encode("utf-8") + bytes(8), dtype=np.uint8)
    end = np.flatnonzero(buf == ord("\n"))
    start = np.concatenate(([0], end[:-1] + 1)).astype(np.int64)
    return buf, start, end


def _fromkeys_oracle(fields):
    vocab = {name: i for i, name in enumerate(dict.fromkeys(fields))}
    return list(vocab), [vocab[f] for f in fields]


def _assert_interned(got, fields):
    names, ids = _fromkeys_oracle(fields)
    assert got[0] == names
    assert got[1].dtype == np.int64 and got[1].tolist() == ids


# every width on either side of the 8-byte word boundaries
WIDTHS = (0, 1, 7, 8, 9, 16, 17, 45)


def _name_pool(rng):
    pool = []
    for width in WIDTHS:
        base = "".join(chr(c) for c in rng.integers(ord("a"), ord("z") + 1, size=width))
        pool.append(base)
        if width:
            pool.append(base[:-1] + ("z" if base[-1] != "z" else "y"))  # differs in its last byte only
            pool.append(base[:-1] + "\x00")  # NUL as the last byte
            pool.append("\x00" * width)
            pool.append("\ufeff" + base[3:])  # BOM (3 bytes) in front: the same width in bytes
            pool.append(base[:-2] + "é")  # two-byte character at the end
        pool.append(base + " ")  # trailing space: one byte wider
        pool.append(base + "  ")
        pool.append("日本" + base)
    return pool


class TestIntern:
    def test_pool_covers_every_width(self):
        widths = {len(name.encode("utf-8")) for name in _name_pool(np.random.default_rng(0))}
        assert set(WIDTHS) <= widths

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_dict_fromkeys(self, seed):
        rng = np.random.default_rng(seed)
        pool = _name_pool(rng)
        fields = [pool[k] for k in rng.integers(len(pool), size=int(rng.integers(1, 400)))]
        buf, start, end = _intern_lines(fields)
        _assert_interned(_intern(buf, start, end), fields)
        # any subset of the fields, in any order
        pick = rng.permutation(len(fields))[:int(rng.integers(0, len(fields) + 1))]
        _assert_interned(_intern(buf, start[pick], end[pick]), [fields[k] for k in pick])

    @pytest.mark.parametrize("fields", [
        [""], ["", "", "a", ""], ["a", "a\x00", "a\x00\x00", "a"], ["abcdefgh", "abcdefg", "abcdefgh "],
        ["\ufeffa", "a", "\ufeffa"], ["x" * 45, "x" * 44 + "y", "x" * 45],
    ], ids=["one_empty", "empty_first_later", "trailing_nul", "word_boundary", "bom", "wide"])
    def test_edge_cases(self, fields):
        _assert_interned(_intern(*_intern_lines(fields)), fields)

    def test_no_fields(self):
        names, ids = _intern(np.zeros(8, dtype=np.uint8), np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64))
        assert names == [] and ids.dtype == np.int64 and ids.shape == (0,)


# -- text-mode reading rules, pinned against the line-loop reader --------------------


def _assert_kg_equals(kg, want):
    names, relations, triples, indptr, rel, nbr = want
    assert kg.entity_names == names
    assert kg.relation_names == relations
    assert kg.num_triples == len(triples)
    for got, expected in ((kg.indptr, indptr), (kg.rel, rel), (kg.nbr, nbr)):
        assert (_int8_values if got is kg.rel else _int32_values)(got, expected)
        assert got.flags.c_contiguous


def _kg_text(rows, newline="\n"):
    return "".join(f"{h}\t{r}\t{t}{newline}" for h, r, t in rows)


KG_ROWS = [("a", "r", "b"), ("b", "s", "c"), ("c", "r", "c"), ("a", "r", "b"), ("c", "s", "a")]


class TestTextModeReading:
    """Line breaks, blank lines and names as ``open(path, encoding="utf-8")`` reads them."""

    @pytest.mark.parametrize("undirected", [False, True])
    @pytest.mark.parametrize("newline", ["\r\n", "\r"], ids=["crlf", "cr"])
    def test_crlf_and_lone_cr_match_lf(self, tmp_path, newline, undirected):
        path = tmp_path / "kg.tsv"
        path.write_bytes(_kg_text(KG_ROWS, newline).encode("utf-8"))
        lf = write_kg(tmp_path / "lf.tsv", KG_ROWS)
        _assert_kg_equals(load_kg(str(path), undirected), reference_load_kg(lf, undirected))

    def test_no_final_newline(self, tmp_path):
        path = tmp_path / "kg.tsv"
        path.write_bytes(_kg_text(KG_ROWS).rstrip("\n").encode("utf-8"))
        _assert_kg_equals(load_kg(str(path)), reference_load_kg(write_kg(tmp_path / "lf.tsv", KG_ROWS), True))

    def test_blank_lines_skipped_but_counted(self, tmp_path):
        path = tmp_path / "kg.tsv"
        text = "\na\tr\tb\n\n\r\nb\ts\tc\r\rc\tr\tc"
        path.write_bytes(text.encode("utf-8"))
        _assert_kg_equals(load_kg(str(path)), reference_load_kg(write_kg(tmp_path / "lf.tsv", KG_ROWS[:3]), True))
        # lines: 1 "", 2 a-r-b, 3 "", 4 "" (CRLF), 5 b-s-c, 6 "" (CR CR), 7 c-r-c, 8 the bad one
        path.write_bytes((text + "\noops\tonly-two\n").encode("utf-8"))
        with pytest.raises(ParseError, match=r"kg\.tsv:8: expected 3 tab-separated fields, got 2$"):
            load_kg(str(path))

    def test_non_ascii_and_edge_spaces_kept(self, tmp_path):
        rows = [("Café", "rel ation", " a"), ("a ", "日本", "a"), (" a", "rel ation", "Ωmega")]
        kg = load_kg(write_kg(tmp_path / "kg.tsv", rows), undirected=False)
        assert kg.entity_names == ["Café", " a", "a ", "a", "Ωmega"]
        assert kg.relation_names == ["rel ation", "日本"]
        assert kg.num_triples == 3
        assert (kg.indptr.tolist(), kg.rel.tolist(), kg.nbr.tolist()) == ([0, 1, 2, 3, 3, 3], [0, 0, 1], [1, 4, 3])

    def test_other_unicode_breaks_are_name_characters(self, tmp_path):
        # str.splitlines would break on these; a text-mode file does not
        names = ["a\x0bb", "c\x0cd", "e\x1cf", "g\x85h", "i j"]
        rows = [(names[i], "r", names[i + 1]) for i in range(4)]
        kg = load_kg(write_kg(tmp_path / "kg.tsv", rows))
        assert kg.entity_names == names

    def test_trailing_nul_is_part_of_the_name(self, tmp_path):
        rows = [("a", "r", "a\x00"), ("a\x00", "r\x00", "b"), ("a", "r", "b"), ("a", "r\x00", "b")]
        kg = load_kg(write_kg(tmp_path / "kg.tsv", rows), undirected=False)
        assert kg.entity_names == ["a", "a\x00", "b"]
        assert kg.relation_names == ["r", "r\x00"]
        assert kg.num_triples == 4
        assert (kg.indptr.tolist(), kg.rel.tolist(), kg.nbr.tolist()) == ([0, 3, 4, 4], [0, 0, 1, 1], [1, 2, 2, 2])

    def test_undirected_self_loops_and_duplicates(self, tmp_path):
        rows = [("a", "r", "b"), ("c", "r", "c"), ("a", "r", "b"), ("b", "r", "a"), ("c", "r", "c"), ("a", "s", "a")]
        kg = load_kg(write_kg(tmp_path / "kg.tsv", rows), undirected=True)
        assert kg.num_triples == 4
        # a triple and its reverse give two equal edges; self-loops are not doubled
        assert kg.indptr.tolist() == [0, 3, 5, 6]
        assert kg.rel.tolist() == [0, 0, 1, 0, 0, 0]
        assert kg.nbr.tolist() == [1, 1, 0, 0, 0, 2]

    @pytest.mark.parametrize("undirected", [False, True])
    def test_reverse_pairs_and_self_loop_match_line_loop(self, tmp_path, undirected):
        # a triple, its reverse (twice), a self-loop and a reverse under another relation
        rows = [("a", "r", "b"), ("b", "r", "a"), ("c", "r", "c"), ("b", "r", "a"), ("b", "s", "a"), ("a", "s", "c")]
        path = write_kg(tmp_path / "kg.tsv", rows)
        kg = load_kg(path, undirected)
        _assert_kg_equals(kg, reference_load_kg(path, undirected))
        assert kg.num_triples == 5
        if undirected:  # a's two r-edges to b: one from a r b, one from the reverse of b r a
            assert kg.neighbors(0).tolist() == [[0, 1], [0, 1], [1, 1], [1, 2]]

    def test_log_counts_dropped_duplicates(self, tmp_path, caplog):
        with caplog.at_level(logging.INFO, logger="ripplerec.kg"):
            load_kg(write_kg(tmp_path / "kg.tsv", KG_ROWS + [("c", "r", "c")]))
        assert "4 triples (2 duplicates dropped, undirected)" in caplog.text

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
    def test_not_utf8_names_its_line(self, tmp_path, newline):
        path = tmp_path / "kg.tsv"
        # past the first 8 KiB, so a reader that decodes in chunks must still count from the start
        head = _kg_text([(f"e{i}", "r", f"e{i + 1}") for i in range(2000)], newline).encode("utf-8")
        path.write_bytes(head + b"x\tr\t\xff\n")
        with pytest.raises(ParseError, match=r"kg\.tsv:2001: not valid UTF-8"):
            load_kg(str(path))


_NAME_POOL = ["a", "a\x00", " a", "a ", "b", "Café", "日本", "x\x0cy", "﻿z", "7", "long-" * 9]


@pytest.mark.parametrize("seed", range(12))
def test_load_kg_matches_line_loop(tmp_path, seed):
    """Random graphs with duplicates and mixed line breaks, with and without blank lines, against the line loop.

    Without a blank line the scanner takes every field's bounds from one
    reshape; with one it gathers them line by line.  Both must agree
    with the line loop, and both, with one line cut to two fields, must
    raise its error with the same line number.
    """
    rng = np.random.default_rng(seed)
    n_names = int(rng.integers(3, len(_NAME_POOL) + 1))
    pool = _NAME_POOL[:n_names] + [f"e{i}" for i in range(int(rng.integers(0, 30)))]
    n_rel = int(rng.integers(1, 5))
    lines = []
    for _ in range(int(rng.integers(1, 120))):
        h, t = rng.choice(len(pool), size=2)
        lines.append(f"{pool[h]}\tr{rng.integers(n_rel)}\t{pool[t]}")
        if rng.random() < 0.1:
            lines.append("")
        if rng.random() < 0.2:
            lines.append(lines[int(rng.integers(len(lines)))])  # duplicate or blank line
    lines.insert(int(rng.integers(len(lines) + 1)), "")  # at least one blank line
    breaks = ["\n", "\r\n", "\r"]
    ends = [breaks[k] for k in rng.integers(3, size=len(lines))]
    trim = rng.random() < 0.5
    path = tmp_path / "kg.tsv"
    for blank in (True, False):
        text = "".join(line + end for line, end in zip(lines, ends) if blank or line)
        if trim:
            text = text.rstrip("\r\n")
        path.write_bytes(text.encode("utf-8"))
        assert _scan(str(path), (3,)).arity == (0 if blank else 3)
        for undirected in (False, True):
            _assert_kg_equals(load_kg(str(path), undirected), reference_load_kg(str(path), undirected))
        # the same file with one line cut to two fields: same line number and message
        cut = text.replace("\tr0\t", "\t", 1) if "\tr0\t" in text else text + "bad\tline\n"
        path.write_bytes(cut.encode("utf-8"))
        with pytest.raises(ParseError) as want:
            reference_load_kg(str(path), True)
        with pytest.raises(ParseError) as got:
            load_kg(str(path))
        assert str(got.value) == str(want.value)


@pytest.mark.parametrize("seed", range(12))
def test_scan_bounds_match_line_loop(tmp_path, seed):
    """``_scan`` on random files of 3, 4 or mixed field counts, with and without blank lines, against a line loop.

    Breaks are ``\\n`` or ``\\r\\n`` and the final one may be missing.
    Under each arity the file's lines pass, ``buf[start:end]`` holds
    each non-blank line's first ``min(arity)`` fields, ``linenos``
    numbers those lines, and ``arity`` is their shared field count (the
    reshape path) or 0 (the gather path); under the others the first
    line that fails is named.
    """
    rng = np.random.default_rng(seed)
    counts = [(3,), (4,), (3, 4)][seed % 3]
    pool = ["", "a", "Café", "日本", "x" * 9, "12345678"]
    lines = ["\t".join(pool[k] for k in rng.integers(len(pool), size=counts[rng.integers(len(counts))]))
             for _ in range(int(rng.integers(1, 60)))]
    for at in rng.integers(len(lines) + 1, size=int(rng.integers(1, 4))):
        lines.insert(int(at), "")
    ends = [["\n", "\r\n"][k] for k in rng.integers(2, size=len(lines))]
    trim = rng.random() < 0.5
    path = tmp_path / "fields.tsv"
    for blank in (True, False):
        text = "".join(line + end for line, end in zip(lines, ends) if blank or line)
        path.write_bytes((text.rstrip("\r\n") if trim else text).encode("utf-8"))
        with open(path, encoding="utf-8") as fh:
            rows = [(no, line.rstrip("\n").split("\t")) for no, line in enumerate(fh, start=1)]
        rows = [(no, fields) for no, fields in rows if fields != [""]]
        shared = sorted({len(fields) for _, fields in rows})
        for arity in ((3,), (4,), (3, 4)):
            bad = [no for no, fields in rows if len(fields) not in arity]
            if bad:
                with pytest.raises(ParseError, match=f":{bad[0]}: expected"):
                    _scan(str(path), arity)
                continue
            scan = _scan(str(path), arity)
            assert scan.start.shape == scan.end.shape == (len(rows), min(arity))
            got = [[scan.buf[a:b].tobytes().decode("utf-8") for a, b in zip(*bounds)]
                   for bounds in zip(scan.start.tolist(), scan.end.tolist())]
            assert got == [fields[:min(arity)] for _, fields in rows]
            assert scan.linenos.tolist() == [no for no, _ in rows]
            assert scan.arity == (0 if blank or len(shared) > 1 else shared[0])


@pytest.mark.parametrize("undirected", [False, True])
def test_one_word_names_match_line_loop(tmp_path, undirected):
    """Every entity name fits one 8-byte word, so one word-count group holds every field."""
    rng = np.random.default_rng(3)
    pool = ["", "a", "a\x00", " a", "Café", "日本", "12345678"] + [f"e{i}" for i in range(40)]
    rows = [(pool[h], f"r{r}", pool[t]) for h, r, t in zip(rng.integers(len(pool), size=300),
                                                           rng.integers(3, size=300), rng.integers(len(pool), size=300))]
    path = write_kg(tmp_path / "kg.tsv", rows)
    _assert_kg_equals(load_kg(path, undirected), reference_load_kg(path, undirected))


class TestReadIntTsv:
    COLUMNS = (("user", 10), ("item", 20))

    def _read(self, tmp_path, data):
        path = tmp_path / "ints.tsv"
        path.write_bytes(data.encode("utf-8"))
        return read_int_tsv(str(path), self.COLUMNS)

    @pytest.mark.parametrize("data", ["1\t2\n3\t4\n", "1\t2\r\n3\t4\r\n", "1\t2\r3\t4\r", "1\t2\n3\t4",
                                      "\n1\t2\n\r\n\n3\t4\n\n", "01\t002\n3\t-0\n", "0000000000000000000000001\t2\n3\t4"])
    def test_formats(self, tmp_path, data):
        got = self._read(tmp_path, data)
        want = [[1, 2], [3, 4]] if "-0" not in data else [[1, 2], [3, 0]]
        assert got.dtype == np.int32 and got.tolist() == want  # every column's high is below 2**31

    def test_empty(self, tmp_path):
        got = self._read(tmp_path, "\n\n")
        assert got.dtype == np.int32 and got.shape == (0, 2)

    @pytest.mark.parametrize("high, dtype", [(2**31 - 1, np.int32), (2**31, np.int64)])
    def test_dtype_is_the_index_dtype_of_the_highs(self, tmp_path, high, dtype):
        path = tmp_path / "ints.tsv"
        path.write_bytes(b"1\t2147483646\n3\t4\n")
        got = read_int_tsv(str(path), (("user", 10), ("entity", high)))
        assert got.dtype == dtype and got.tolist() == [[1, 2**31 - 2], [3, 4]]

    @pytest.mark.parametrize("data, message", [
        ("1\t2\n\n3\t99999999999999999999\n", ":3: item 99999999999999999999 outside [0, 20)"),
        ("1\t2\n123456789012345678901234567890\t3\n", ":2: user 123456789012345678901234567890 outside [0, 10)"),
        ("1\t2\n9223372036854775808\t3\n", ":2: user 9223372036854775808 outside [0, 10)"),
        ("100000000000000000000000000001\t3\n", ":1: user 100000000000000000000000000001 outside [0, 10)"),
        ("1\t18446744073709551617\n", ":1: item 18446744073709551617 outside [0, 20)"),
        ("1\t2\n-1\t3\n", ":2: user -1 outside [0, 10)"),
        ("1\t-99999999999999999999\n", ":1: item -99999999999999999999 outside [0, 20)"),
        ("10\t2\n", ":1: user 10 outside [0, 10)"),
        ("1\t20\n", ":1: item 20 outside [0, 20)"),
        ("1\t2\r\n1\tx\r\n", ":2: non-integer field in ['1', 'x']"),
        ("11\tx\n", ":1: non-integer field in ['11', 'x']"),
        ("1\t\n", ":1: non-integer field in ['1', '']"),
        ("-\t1\n", ":1: non-integer field in ['-', '1']"),
        ("1\t2\t3\n", ":1: expected 2 tab-separated fields, got 3"),
        # past int()'s 4300-digit limit for str
        pytest.param("1\t2\n" + "9" * 5000 + "\t3\n", f":2: user {'9' * 5000} outside [0, 10)", id="user_5000_digits"),
    ])
    def test_errors_name_line_and_field(self, tmp_path, data, message):
        with pytest.raises(ParseError) as err:
            self._read(tmp_path, data)
        assert str(err.value).endswith(message)

    @pytest.mark.parametrize("field", ["+5", " 5", "5 ", "1_0", "٣", "５"])
    def test_only_ascii_digits_are_integers(self, tmp_path, field):
        # int() accepts these; prep never writes them
        with pytest.raises(ParseError, match=":1: non-integer field"):
            self._read(tmp_path, f"{field}\t1\n")


def _reference_read_int_tsv(path, columns):
    """The line loop of :func:`read_int_tsv`: ``int()`` of every field that is ASCII digits after an optional ``-``."""
    rows = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            fields = line.rstrip("\n").split("\t")
            if fields == [""]:
                continue
            assert len(fields) == len(columns)
            if not all(field.isascii() and field.removeprefix("-").isdigit() for field in fields):
                raise ParseError(path, lineno, f"non-integer field in {fields}")
            for (name, high), field in zip(columns, fields):
                if not 0 <= int(field) < high:
                    raise ParseError(path, lineno, f"{name} {int(field)} outside [0, {high})")
            rows.append([int(field) for field in fields])
    return rows


def _int_field(rng, high, bad):
    """A field of a column with range ``[0, high)``, in one of several spellings; with ``bad``, now and then wrong."""
    if bad and rng.random() < 0.03:
        wrong = [str(high), "-1", str(2**63), "9" * 19, "1" + "0" * 19, str(2**64 + 1), "-" + "9" * 20,
                 "+5", " 5", "x", "", "-", "٣"]
        return wrong[rng.integers(len(wrong))]
    value = str(rng.integers(high))
    good = [value, value.zfill(int(rng.integers(2, 5))), "-0", "-" + "0" * 19, str(high - 1), value.zfill(19),
            value.zfill(20)]
    return good[rng.integers(len(good))]


@pytest.mark.parametrize("seed", range(12))
def test_read_int_tsv_matches_line_loop(tmp_path, seed):
    """Random integer files with mixed line breaks, with and without blank lines, against the line loop.

    Even seeds write only in-range fields (leading zeros, ``-0``, 19 and
    20 digits, ``high - 1``); odd seeds now and then write a field out
    of range or not an integer, and the error must match the line loop's.
    """
    rng = np.random.default_rng(seed)
    columns = (("user", int(rng.integers(1, 40))), ("item", int(rng.integers(1, 40))), ("label", 2))
    columns = columns[:int(rng.integers(2, 4))]
    lines = ["\t".join(_int_field(rng, high, seed % 2) for _, high in columns)
             for _ in range(int(rng.integers(1, 80)))]
    for at in sorted(rng.integers(len(lines), size=int(rng.integers(1, 4))), reverse=True):  # each before a row
        lines.insert(int(at), "")
    # a blank line ends in "\r\n", so a "\r" before it cannot join its break into one "\r\n"
    ends = [["\n", "\r\n", "\r"][k] if line else "\r\n" for line, k in zip(lines, rng.integers(3, size=len(lines)))]
    path = tmp_path / "ints.tsv"
    for blank in (True, False):
        text = "".join(line + end for line, end in zip(lines, ends) if blank or line)
        if rng.random() < 0.3:
            text = text.rstrip("\r\n")
        path.write_bytes(text.encode("utf-8"))
        assert _scan(str(path), (len(columns),)).arity == (0 if blank else len(columns))
        try:
            want = _reference_read_int_tsv(str(path), columns)
        except ParseError as err:
            with pytest.raises(ParseError) as got:
                read_int_tsv(str(path), columns)
            assert str(got.value) == str(err)
        else:
            got = read_int_tsv(str(path), columns)
            assert got.dtype == np.int32 and got.shape == (len(want), len(columns)) and got.tolist() == want


# -- the block kernels of write_int_tsv and read_int_tsv, against str.format and the line loop ---


BLOCK = ripplerec.kg.INT_BLOCK
# 0, 9, 10, 99, 100, each power of ten int64 holds and its neighbours, and int64's largest value
EDGE_VALUES = sorted({0, 9, 10, 99, 100, 2**63 - 1} | {10**j + d for j in range(1, 19) for d in (-1, 0, 1)})


def _format_rows(rows):
    """The line loop of :func:`write_int_tsv`: ``str.format`` of every row."""
    return "".join("\t".join(map("{}".format, row)) + "\n" for row in rows.tolist()).encode("ascii")


def _mixed_rows(rng, n, k):
    """``(n, k)`` int64 values of 1 to 19 decimal digits, below int64's largest value."""
    digits = rng.integers(1, 20, size=(n, k))
    return rng.integers(0, 10 ** np.minimum(digits, 18), dtype=np.int64) * np.where(digits == 19, 9, 1)


class TestWriteIntTsv:
    @pytest.mark.parametrize("shape", [(len(EDGE_VALUES), 1), (len(EDGE_VALUES), 3)], ids=["one_column", "three"])
    def test_edge_values_match_str_format(self, tmp_path, shape):
        rows = np.resize(np.array(EDGE_VALUES, dtype=np.int64), shape[::-1]).T.copy()
        rows[:, 1:] = np.roll(rows[:, 1:], 5, axis=0)
        path = tmp_path / "ints.tsv"
        write_int_tsv(path, rows)
        assert path.read_bytes() == _format_rows(rows)

    @pytest.mark.parametrize("n", [0, 1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 17])
    @pytest.mark.parametrize("k", [1, 3])
    def test_row_counts_around_the_block_match_str_format(self, tmp_path, n, k):
        rows = _mixed_rows(np.random.default_rng(n * 4 + k), n, k)
        rows[BLOCK:2 * BLOCK] %= 10**4  # a block whose fields all fit one 4-digit word, between wider ones
        path = tmp_path / "ints.tsv"
        write_int_tsv(path, rows)
        assert path.read_bytes() == _format_rows(rows)

    def test_round_trip(self, tmp_path):
        rows = _mixed_rows(np.random.default_rng(7), 2 * BLOCK + 5, 2)
        path = tmp_path / "ints.tsv"
        write_int_tsv(path, rows)
        got = read_int_tsv(str(path), [("a", 2**63 - 1), ("b", 2**63 - 1)])
        assert got.dtype == np.int64 and got.tobytes() == rows.tobytes()

    @pytest.mark.parametrize("at", [0, BLOCK + 3])
    def test_negative_value_raises_naming_its_row_before_writing(self, tmp_path, at):
        rows = np.arange(3 * (BLOCK + 10), dtype=np.int64).reshape(-1, 3)
        rows[at, 2] = -5
        path = tmp_path / "ints.tsv"
        with pytest.raises(ValueError, match=rf"ints\.tsv: row {at} holds a negative value"):
            write_int_tsv(path, rows)
        assert not path.exists()
        path.write_bytes(b"kept\n")
        with pytest.raises(ValueError):
            write_int_tsv(path, rows)
        assert path.read_bytes() == b"kept\n"


def _ints_text(rng, n, columns, newline="\n"):
    return [["\t".join(str(int(rng.integers(high))) for _, high in columns), newline] for _ in range(n)]


def _assert_reads_as_line_loop(path, columns):
    try:
        want = _reference_read_int_tsv(str(path), columns)
    except ParseError as err:
        with pytest.raises(ParseError) as got:
            read_int_tsv(str(path), columns)
        assert str(got.value) == str(err)
        return str(err)
    got = read_int_tsv(str(path), columns)
    assert got.dtype == np.int32 and got.shape == (len(want), len(columns)) and got.tolist() == want
    return None


@pytest.mark.parametrize("block", [7, BLOCK])
class TestReadIntTsvBlocks:
    """Files of several blocks against the line loop, at a small block and at :data:`~ripplerec.kg.INT_BLOCK`."""

    COLUMNS = (("user", 6040), ("item", 3706), ("label", 2))

    def _lines(self, block, seed):
        rng = np.random.default_rng(seed)
        return rng, _ints_text(rng, 3 * block + 5, self.COLUMNS)

    def _write(self, tmp_path, lines):
        path = tmp_path / "ints.tsv"
        path.write_bytes("".join(text + end for text, end in lines).encode("utf-8"))
        return path

    @pytest.mark.parametrize("seed", range(3))
    def test_first_bad_line_in_a_later_block(self, tmp_path, monkeypatch, block, seed):
        monkeypatch.setattr(ripplerec.kg, "INT_BLOCK", block)
        rng, lines = self._lines(block, seed)
        bad = ["1\t2\t2", "1\tx\t0", "-3\t1\t0", "1\t3706\t1", "+1\t2\t0", "1\t" + "9" * 30 + "\t1"][seed::3]
        rows = sorted(rng.choice(np.arange(block + 1, len(lines)), size=len(bad), replace=False))
        for row, text in zip(rows, bad):
            lines[row][0] = text
        message = _assert_reads_as_line_loop(self._write(tmp_path, lines), self.COLUMNS)
        assert message.split(":")[-2] == str(rows[0] + 1)

    def test_blank_lines_and_crlf_at_a_block_edge(self, tmp_path, monkeypatch, block):
        monkeypatch.setattr(ripplerec.kg, "INT_BLOCK", block)
        _, lines = self._lines(block, 3)
        for edge in (block, 2 * block):  # the last row of a block and the first of the next end in CRLF
            lines[edge - 1][1] = lines[edge][1] = "\r\n"
            lines[edge - 1][1] += "\n\r\n"  # and two blank lines lie between them
        path = self._write(tmp_path, lines)
        assert _scan(str(path), (3,)).arity == 0
        assert _assert_reads_as_line_loop(path, self.COLUMNS) is None

    def test_long_field_with_leading_zeros_in_the_last_block(self, tmp_path, monkeypatch, block):
        monkeypatch.setattr(ripplerec.kg, "INT_BLOCK", block)
        _, lines = self._lines(block, 4)
        lines[-2][0] = "0" * 24 + "1\t" + "0" * 22 + "123\t" + "-" + "0" * 24
        path = self._write(tmp_path, lines)
        assert _assert_reads_as_line_loop(path, self.COLUMNS) is None
        assert read_int_tsv(str(path), self.COLUMNS)[-2].tolist() == [1, 123, 0]
        lines[-1][0] = "0" * 5 + "1" + "0" * 19 + "\t1\t1"  # the same 25 digits, one of them not a leading zero
        message = _assert_reads_as_line_loop(self._write(tmp_path, lines), self.COLUMNS)
        assert message.endswith(f":{len(lines)}: user 1{'0' * 19} outside [0, 6040)")


# -- the dtypes of the scanner's bounds and of relation ids ---------------------------


def _dtype_files(tmp_path, gathered):
    """A KG, a rating log and an integer TSV: one field count per file, or blank lines, CRLF and 3 or 4 fields."""
    rng = np.random.default_rng(11)
    kg = ["e%d\tr%d\te%d" % tuple(row) for row in rng.integers(0, (40, 5, 40), size=(120, 3))]
    ratings = ["u%d\ti%d\t%d" % tuple(row) for row in rng.integers(0, (20, 30, 6), size=(90, 3))]
    ints = ["%d\t%d" % tuple(row) for row in rng.integers(0, (10, 20), size=(60, 2))]
    if gathered:  # a fourth (timestamp) field on some ratings, and blank lines in every file
        ratings = [line + ("\t%d" % (10**9 + k) if k % 3 == 0 else "") for k, line in enumerate(ratings)]
        kg, ratings, ints = ([""] + lines[:7] + ["", ""] + lines[7:] for lines in (kg, ratings, ints))
    newline = "\r\n" if gathered else "\n"
    paths = []
    for name, lines in (("kg", kg), ("ratings", ratings), ("ints", ints)):
        path = tmp_path / f"{name}.tsv"
        path.write_bytes("".join(line + newline for line in lines).encode("utf-8"))
        paths.append(str(path))
    return paths


@pytest.mark.parametrize("gathered", [False, True], ids=["uniform", "gathered"])
def test_int64_bounds_parse_as_int32_bounds(tmp_path, monkeypatch, gathered):
    """At :data:`INDEX_LIMIT` the scanner's bounds turn int64; every reader gives what int32 bounds give."""
    kg_path, ratings_path, ints_path = _dtype_files(tmp_path, gathered)
    columns = (("user", 10), ("item", 20))
    runs = []
    for limit in (ripplerec.kg.INDEX_LIMIT, 1):
        monkeypatch.setattr(ripplerec.kg, "INDEX_LIMIT", limit)
        scans = [_scan(kg_path, (3,)), _scan(ratings_path, (3, 4)), _scan(ints_path, (2,))]
        interned = [_intern(scan.buf, scan.start[:, c], scan.end[:, c])
                    for scan in scans for c in range(scan.start.shape[1])]
        runs.append((scans, interned, read_int_tsv(ints_path, columns), load_kg(kg_path)))
    (scans32, interned32, ints32, kg32), (scans64, interned64, ints64, kg64) = runs
    for scan32, scan64, arity in zip(scans32, scans64, (3, 3, 2)):
        assert scan32.arity == scan64.arity == (0 if gathered else arity)
        assert scan32.buf.tobytes() == scan64.buf.tobytes()
        for got32, got64 in zip(scan32[1:4], scan64[1:4]):  # start, end, linenos
            assert (got32.dtype, got64.dtype) == (np.int32, np.int64)
            assert got32.astype(np.int64).tobytes() == got64.tobytes()
    for (names32, ids32), (names64, ids64) in zip(interned32, interned64):
        assert names32 == names64
        assert (ids32.dtype, ids64.dtype) == (np.int32, np.int64)
        assert ids32.astype(np.int64).tobytes() == ids64.tobytes()
    assert (ints32.dtype, ints64.dtype) == (np.int32, np.int64)  # read_int_tsv's values follow INDEX_LIMIT too
    assert ints32.astype(np.int64).tobytes() == ints64.tobytes()
    assert (kg32.entity_names, kg32.relation_names, kg32.num_triples) == (
        kg64.entity_names, kg64.relation_names, kg64.num_triples)
    for got32, got64 in ((kg32.indptr, kg64.indptr), (kg32.nbr, kg64.nbr)):
        assert (got32.dtype, got64.dtype) == (np.int32, np.int64)
        assert got32.astype(np.int64).tobytes() == got64.tobytes()
    assert kg32.rel.dtype == kg64.rel.dtype == np.int8 and kg32.rel.tobytes() == kg64.rel.tobytes()


@pytest.mark.parametrize("num_relations, dtype", [(127, np.int8), (128, np.int8), (129, np.int16)])
def test_relation_dtype_follows_the_relation_count(tmp_path, num_relations, dtype):
    """Relation ids take the narrowest signed dtype; values and table checksums are those of int64 ids."""
    rng = np.random.default_rng(num_relations)
    # every relation at least once; directed, so entities without edges pad with NULL_RELATION
    rows = [(f"e{h}", f"r{k % num_relations}", f"e{t}")
            for k, (h, t) in enumerate(rng.integers(0, (30, 60), size=(3 * num_relations, 2)))]
    path = write_kg(tmp_path / "kg.tsv", rows)
    kg = load_kg(path, undirected=False)
    assert relation_dtype(num_relations) == dtype and kg.num_relations == num_relations
    names, relations, triples, indptr, rel, nbr = reference_load_kg(path, False)
    assert kg.rel.dtype == dtype and kg.rel.astype(np.int64).tobytes() == rel.tobytes()
    assert _int32_values(kg.indptr, indptr) and _int32_values(kg.nbr, nbr)
    neighbors = build_neighbor_table(kg, Hyperparams(neighbor_size=3), seed=2)
    assert neighbors.rel.dtype == dtype and (neighbors.rel == NULL_RELATION).any()
    assert (_table_sha256(neighbors.rel, neighbors.nbr)
            == _table_sha256(neighbors.rel.astype(np.int64), neighbors.nbr.astype(np.int64)))
    ripple = build_ripple_table(kg, np.arange(30), np.arange(30), 30, 2, 4, np.random.default_rng(3))
    assert (_table_sha256(ripple.bags, ripple.has)
            == _table_sha256(ripple.bags.astype(np.int64), ripple.has))


def test_triple_keys_of_int32_indices_do_not_overflow(tmp_path):
    """Interned indices are int32, but (head, relation, tail) keys past 2**31 are packed in int64."""
    n = 30000  # n * 3 * n is about 2.7e9 > 2**31
    rows = [(f"e{k}", f"r{k % 3}", f"e{k * 7919 % n}") for k in range(n)]
    path = write_kg(tmp_path / "kg.tsv", rows)
    _assert_kg_equals(load_kg(path, undirected=True), reference_load_kg(path, True))
