import numpy as np
import pytest

from ripplerec.kg import (
    NULL_RELATION,
    ParseError,
    build_ripple_set,
    load_item_map,
    load_kg,
    read_vocab,
    sample_children,
    sample_neighbors,
    write_vocab,
)
from ripplerec.model import sample_item_trees

from conftest import write_kg


class TestLoadKg:
    def test_two_line_file(self, tmp_path):
        path = write_kg(tmp_path / "kg.tsv", [("a", "r", "b"), ("b", "r", "c")])
        kg = load_kg(path, undirected=True)
        assert kg.num_entities == 3
        assert kg.num_relations == 1
        r, a, c = kg.relation_vocab["r"], kg.entity_vocab["a"], kg.entity_vocab["c"]
        b = kg.entity_vocab["b"]
        assert [tuple(row) for row in kg.neighbors(b)] == [(r, a), (r, c)]

    def test_first_appearance_vocab_order(self, tmp_path):
        path = write_kg(tmp_path / "kg.tsv", [("x", "r2", "y"), ("y", "r1", "x"), ("z", "r2", "x")])
        kg = load_kg(path)
        assert kg.entity_names == ["x", "y", "z"]
        assert kg.relation_names == ["r2", "r1"]

    def test_duplicates_stored_once(self, tmp_path):
        path = write_kg(tmp_path / "kg.tsv", [("a", "r", "b"), ("a", "r", "b"), ("a", "r", "b")])
        kg = load_kg(path)
        assert len(kg.triples) == 1
        assert kg.degree(kg.entity_vocab["a"]) == 1

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

    def test_adjacency_sorted(self, tmp_path):
        rows = [("a", "r2", "c"), ("a", "r1", "b"), ("a", "r1", "a0"), ("a", "r2", "b")]
        path = write_kg(tmp_path / "kg.tsv", rows)
        kg = load_kg(path, undirected=False)
        adj = kg.neighbors(kg.entity_vocab["a"])
        assert [tuple(p) for p in adj] == sorted(tuple(p) for p in adj)


class TestSampleNeighbors:
    def test_singleton_with_replacement(self, chain_kg):
        kg = chain_kg
        a = kg.entity_vocab["a"]
        sample = sample_neighbors(kg, a, 4, np.random.default_rng(0))
        assert len(sample) == 4
        assert set(sample.entities.tolist()) == {kg.entity_vocab["b"]}
        assert set(sample.relations.tolist()) == {kg.relation_vocab["r"]}

    def test_seed_determinism(self, chain_kg):
        b = chain_kg.entity_vocab["b"]
        s1 = sample_neighbors(chain_kg, b, 8, np.random.default_rng(11))
        s2 = sample_neighbors(chain_kg, b, 8, np.random.default_rng(11))
        np.testing.assert_array_equal(s1.entities, s2.entities)
        np.testing.assert_array_equal(s1.relations, s2.relations)

    def test_uniformity_over_degree_8(self, tmp_path):
        rows = [("hub", "r", f"n{i}") for i in range(8)]
        kg = load_kg(write_kg(tmp_path / "kg.tsv", rows), undirected=False)
        hub = kg.entity_vocab["hub"]
        rng = np.random.default_rng(100)
        n_draws = 10_000
        counts = np.zeros(8)
        for _ in range(n_draws):
            sample = sample_neighbors(kg, hub, 8, rng)
            for e in sample.entities:
                counts[e - 1] += 1
        # each slot is an independent uniform draw over 8 neighbors
        total = n_draws * 8
        p = 1 / 8
        sigma = np.sqrt(total * p * (1 - p))
        assert np.all(np.abs(counts - total * p) < 3 * sigma)

    def test_isolated_entity_padded_with_self_loops(self, tmp_path):
        kg = load_kg(write_kg(tmp_path / "kg.tsv", [("a", "r", "b")]), undirected=False)
        b = kg.entity_vocab["b"]  # no outgoing edges in directed mode
        sample = sample_neighbors(kg, b, 3, np.random.default_rng(0))
        assert np.all(sample.relations == NULL_RELATION)
        assert np.all(sample.entities == b)

    def test_invalid_size_rejected(self, chain_kg):
        with pytest.raises(ValueError):
            sample_neighbors(chain_kg, 0, 0, np.random.default_rng(0))


class TestBuildRippleSet:
    def test_chain_unique_choice(self, tmp_path):
        kg = load_kg(write_kg(tmp_path / "kg.tsv", [("e0", "r0", "e1"), ("e1", "r0", "e2")]), undirected=False)
        e0, e1, e2 = (kg.entity_vocab[e] for e in ("e0", "e1", "e2"))
        r0 = kg.relation_vocab["r0"]
        ripple = build_ripple_set(kg, [e0], hops=2, n_p=1, rng=np.random.default_rng(0))
        assert [tuple(ripple.hops[0][0])] == [(e0, r0, e1)]
        assert [tuple(ripple.hops[1][0])] == [(e1, r0, e2)]

    def test_chain_with_replacement_singleton(self, tmp_path):
        kg = load_kg(write_kg(tmp_path / "kg.tsv", [("e0", "r0", "e1"), ("e1", "r0", "e2")]), undirected=False)
        e0 = kg.entity_vocab["e0"]
        ripple = build_ripple_set(kg, [e0], hops=1, n_p=3, rng=np.random.default_rng(0))
        assert ripple.hops[0].shape == (3, 3)
        assert {tuple(row) for row in ripple.hops[0]} == {(e0, 0, kg.entity_vocab["e1"])}

    def test_star_uniformity(self, tmp_path):
        rows = [("hub", "r", f"s{i}") for i in range(5)]
        kg = load_kg(write_kg(tmp_path / "kg.tsv", rows), undirected=False)
        hub = kg.entity_vocab["hub"]
        rng = np.random.default_rng(0)
        n_rebuilds = 10_000
        counts = np.zeros(5)
        for _ in range(n_rebuilds):
            ripple = build_ripple_set(kg, [hub], hops=1, n_p=5, rng=rng)
            for tail in ripple.hops[0][:, 2]:
                counts[tail - 1] += 1
        total = n_rebuilds * 5
        p = 1 / 5
        sigma = np.sqrt(total * p * (1 - p))
        assert np.all(np.abs(counts - total * p) < 3 * sigma)

    def test_head_containment_across_hops(self, tiny_data):
        kg, dataset = tiny_data
        rng = np.random.default_rng(5)
        for user in list(dataset.user_history)[:10]:
            seeds = dataset.item_entities[dataset.user_history[user]]
            ripple = build_ripple_set(kg, seeds, hops=3, n_p=8, rng=rng, user=user)
            prev_tails = set(int(s) for s in seeds)
            for bag in ripple.hops:
                assert set(bag[:, 0].tolist()) <= prev_tails
                prev_tails = set(bag[:, 2].tolist())

    def test_support_subset_of_bfs_frontier(self, tiny_data):
        kg, dataset = tiny_data
        rng = np.random.default_rng(9)
        seeds = dataset.item_entities[dataset.user_history[0]]
        hops = 3
        ripple = build_ripple_set(kg, seeds, hops=hops, n_p=16, rng=rng)
        # brute-force frontier: exhaustive expansion of all triples reachable per hop
        frontier = set(int(s) for s in seeds)
        for bag in ripple.hops:
            reachable = set()
            tails = set()
            for e in frontier:
                for rel, t in kg.neighbors(e):
                    reachable.add((e, int(rel), int(t)))
                    tails.add(int(t))
            support = {tuple(row) for row in bag}
            assert support <= reachable
            frontier = tails

    def test_byte_exact_reproducibility(self, tiny_data):
        kg, dataset = tiny_data
        seeds = dataset.item_entities[dataset.user_history[0]]
        r1 = build_ripple_set(kg, seeds, 2, 16, np.random.default_rng(77))
        r2 = build_ripple_set(kg, seeds, 2, 16, np.random.default_rng(77))
        for b1, b2 in zip(r1.hops, r2.hops):
            assert b1.tobytes() == b2.tobytes()

    def test_empty_frontier_backfills_previous_hop(self, tmp_path, caplog):
        # directed dead end: e1 has no outgoing triples
        kg = load_kg(write_kg(tmp_path / "kg.tsv", [("e0", "r0", "e1")]), undirected=False)
        e0 = kg.entity_vocab["e0"]
        with caplog.at_level("WARNING"):
            ripple = build_ripple_set(kg, [e0], hops=2, n_p=4, rng=np.random.default_rng(0))
        assert "resampling previous hop" in caplog.text
        np.testing.assert_array_equal(np.unique(ripple.hops[1], axis=0), np.unique(ripple.hops[0], axis=0))

    def test_empty_seeds_rejected(self, chain_kg):
        with pytest.raises(ValueError, match="no seed"):
            build_ripple_set(chain_kg, [], 2, 4, np.random.default_rng(0))

    def test_seed_without_outgoing_triples_rejected(self, tmp_path):
        kg = load_kg(write_kg(tmp_path / "kg.tsv", [("a", "r", "b")]), undirected=False)
        with pytest.raises(ValueError, match="no outgoing"):
            build_ripple_set(kg, [kg.entity_vocab["b"]], 1, 2, np.random.default_rng(0))


def _brute_adjacency(kg):
    """Per-entity sorted (relation, neighbor) lists, straight from the triples."""
    adj = [[] for _ in range(kg.num_entities)]
    for h, r, t in kg.triples.tolist():
        adj[h].append((r, t))
        if kg.undirected and h != t:
            adj[t].append((r, h))
    return [sorted(pairs) for pairs in adj]


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


def _reference_ripple(adj, seeds, hops, n_p, rng):
    """Per-entity frontier loop that ``build_ripple_set`` must match draw for draw."""
    bags = []
    frontier = seeds
    for _ in range(hops):
        pool = [(e, r, t) for e in sorted(set(int(x) for x in frontier)) for r, t in adj[e]]
        pool = np.array(pool, dtype=np.int64).reshape(-1, 3)
        if len(pool) == 0:
            pool = bags[-1]
        bag = pool[rng.integers(0, len(pool), size=n_p)]
        bags.append(bag)
        frontier = bag[:, 2]
    return bags


def _same_bytes(got, want):
    return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.fixture(params=[(seed, undirected) for seed in range(3) for undirected in (False, True)],
                ids=lambda p: f"seed{p[0]}-{'undirected' if p[1] else 'directed'}")
def random_kg(request, tmp_path):
    """Random graph with duplicate lines, a triple and its reverse, self-loops and dead ends."""
    seed, undirected = request.param
    rng = np.random.default_rng(seed)
    rows = [(f"e{rng.integers(12)}", f"r{rng.integers(3)}", f"e{rng.integers(20)}") for _ in range(40)]
    rows += [("e1", "r0", "e2"), ("e2", "r0", "e1"), ("e1", "r0", "e2"), ("e3", "r1", "e3"),
             ("e0", "r2", "sink0"), ("e5", "r1", "sink1")]
    kg = load_kg(write_kg(tmp_path / "kg.tsv", rows), undirected=undirected)
    if not undirected:
        assert kg.degree(kg.entity_vocab["sink0"]) == 0
    return kg


class TestCsrOracle:
    """The CSR layout and vectorized samplers against per-entity reference loops."""

    def test_neighbors_match_brute_force(self, random_kg):
        adj = _brute_adjacency(random_kg)
        for e in range(random_kg.num_entities):
            assert [tuple(p) for p in random_kg.neighbors(e).tolist()] == adj[e]
            assert random_kg.degree(e) == len(adj[e])
        assert random_kg.total_degree() == sum(len(a) for a in adj)

    def test_sample_children_stream(self, random_kg):
        adj = _brute_adjacency(random_kg)
        ents = np.random.default_rng(1).integers(0, random_kg.num_entities, size=(7, 5))
        ents[3, 2] = random_kg.entity_vocab["sink0"]  # no edges when directed: the pad path
        rng, ref_rng = np.random.default_rng(42), np.random.default_rng(42)
        rels, nbrs = sample_children(random_kg, ents, 4, rng)
        want_rels, want_nbrs = _reference_children(adj, ents, 4, ref_rng)
        assert _same_bytes(rels, want_rels.reshape(7, 5, 4))
        assert _same_bytes(nbrs, want_nbrs.reshape(7, 5, 4))
        assert rng.random() == ref_rng.random()

    def test_sample_neighbors_stream(self, random_kg):
        adj = _brute_adjacency(random_kg)
        rng, ref_rng = np.random.default_rng(8), np.random.default_rng(8)
        for e in range(random_kg.num_entities):
            sample = sample_neighbors(random_kg, e, 3, rng)
            want_rels, want_nbrs = _reference_children(adj, [e], 3, ref_rng)
            assert _same_bytes(sample.relations, want_rels[0])
            assert _same_bytes(sample.entities, want_nbrs[0])
        assert rng.random() == ref_rng.random()

    def test_sample_item_trees_stream(self, random_kg):
        adj = _brute_adjacency(random_kg)
        v_idx = np.arange(random_kg.num_entities)
        rng, ref_rng = np.random.default_rng(5), np.random.default_rng(5)
        ents, rels = sample_item_trees(random_kg, v_idx, 2, 3, rng)
        want_ents = [v_idx.reshape(-1, 1)]
        for depth in (1, 2):
            r, e = _reference_children(adj, want_ents[-1], 3, ref_rng)
            assert _same_bytes(rels[depth], r.reshape(len(v_idx), -1))
            want_ents.append(e.reshape(len(v_idx), -1))
            assert _same_bytes(ents[depth], want_ents[-1])
        assert rng.random() == ref_rng.random()

    def test_build_ripple_set_stream(self, random_kg):
        adj = _brute_adjacency(random_kg)
        live = [e for e in range(random_kg.num_entities) if adj[e]]
        pick = np.random.default_rng(3)
        rng, ref_rng = np.random.default_rng(13), np.random.default_rng(13)
        for _ in range(10):
            seeds = pick.choice(random_kg.num_entities, size=3).tolist() + [int(pick.choice(live))]
            ripple = build_ripple_set(random_kg, seeds, 3, 5, rng)
            want = _reference_ripple(adj, seeds, 3, 5, ref_rng)
            for got_bag, want_bag in zip(ripple.hops, want):
                assert _same_bytes(got_bag, want_bag)
        assert rng.random() == ref_rng.random()


class TestVocabAndItemMap:
    def test_vocab_round_trip(self, tmp_path, chain_kg):
        path = tmp_path / "vocab.tsv"
        write_vocab(path, chain_kg.entity_names)
        assert read_vocab(path) == chain_kg.entity_vocab

    def test_item_map_skips_unknown_entities(self, tmp_path, chain_kg):
        path = tmp_path / "map.tsv"
        path.write_text("i0\ta\ni1\tmissing\n", encoding="utf-8")
        mapping = load_item_map(str(path), chain_kg)
        assert mapping == {"i0": chain_kg.entity_vocab["a"]}

    def test_item_map_malformed_rejected(self, tmp_path, chain_kg):
        path = tmp_path / "map.tsv"
        path.write_text("just-one-field\n", encoding="utf-8")
        with pytest.raises(ParseError):
            load_item_map(str(path), chain_kg)
