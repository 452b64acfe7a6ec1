import numpy as np
import pytest

import ripplerec as rr
from ripplerec.kg import ParseError
from ripplerec.synthetic import SyntheticSpec, generate, tiny_spec


@pytest.fixture(scope="session")
def tiny_files(tmp_path_factory):
    """Small synthetic dataset files: 50 users, 100 items, ~500 triples."""
    out = tmp_path_factory.mktemp("tiny")
    return generate(tiny_spec(seed=1), str(out))


@pytest.fixture(scope="session")
def tiny_data(tiny_files):
    kg = rr.load_kg(tiny_files.kg)
    item_map = rr.load_item_map(tiny_files.item_map, kg)
    dataset = rr.build_dataset(rr.binarize(tiny_files.ratings, 4.0, item_map), seed=3)
    return kg, dataset


@pytest.fixture(scope="session")
def mid_files(tmp_path_factory):
    """Mid-size fixture with a planted relation-cluster signal."""
    out = tmp_path_factory.mktemp("mid")
    return generate(SyntheticSpec(seed=7), str(out))


@pytest.fixture(scope="session")
def mid_data(mid_files):
    kg = rr.load_kg(mid_files.kg)
    item_map = rr.load_item_map(mid_files.item_map, kg)
    dataset = rr.build_dataset(rr.binarize(mid_files.ratings, 4.0, item_map), seed=11)
    return kg, dataset


def tables(kg, dataset, hp, seed=0):
    """A run's (neighbor table, ripple table) for ``seed``, built as ``fit`` builds them."""
    return rr.build_neighbor_table(kg, hp, seed), rr.build_ripple_sets(dataset, kg, hp, seed)


def write_kg(path, rows):
    with open(path, "w", encoding="utf-8") as fh:
        for h, r, t in rows:
            fh.write(f"{h}\t{r}\t{t}\n")
    return str(path)


def reference_load_kg(path, undirected):
    """The line-by-line ``load_kg`` that the byte-level scanner replaced.

    Returns (entity_names, relation_names, triples, indptr, rel, nbr),
    ``triples`` the ``(n, 3)`` distinct (head, relation, tail) rows in
    first-line order.
    """
    entity_vocab, relation_vocab = {}, {}
    triples, seen = [], set()
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            fields = line.split("\t")
            if len(fields) != 3:
                raise ParseError(path, lineno, f"expected 3 tab-separated fields, got {len(fields)}")
            h = entity_vocab.setdefault(fields[0], len(entity_vocab))
            r = relation_vocab.setdefault(fields[1], len(relation_vocab))
            t = entity_vocab.setdefault(fields[2], len(entity_vocab))
            if (h, r, t) not in seen:
                seen.add((h, r, t))
                triples.append((h, r, t))
    triple_arr = np.array(triples, dtype=np.int64)
    src, rel, dst = triple_arr.T
    if undirected:
        inv = src != dst
        src, rel, dst = (np.concatenate((src, dst[inv])), np.concatenate((rel, rel[inv])),
                         np.concatenate((dst, src[inv])))
    order = np.lexsort((dst, rel, src))
    indptr = np.zeros(len(entity_vocab) + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=len(entity_vocab)), out=indptr[1:])
    return list(entity_vocab), list(relation_vocab), triple_arr, indptr, rel[order], dst[order]


def adjacency(path, undirected):
    """Per-entity sorted (relation, neighbor) lists of the KG file at ``path``, by :func:`reference_load_kg`.

    Built from the file, never from a loaded graph's CSR arrays, so that
    it can check them.
    """
    names, _, triples, *_ = reference_load_kg(path, undirected)
    adj = [[] for _ in names]
    for h, r, t in triples.tolist():
        adj[h].append((r, t))
        if undirected and h != t:
            adj[t].append((r, h))
    return [sorted(pairs) for pairs in adj]


def train_seeds(dataset):
    """User -> seed entities by a per-row loop over the train rows with label 1.

    Users appear in first-row order, each user's seeds in row order.
    """
    items_by_user = {}
    for user, item, label in dataset.train.tolist():
        if label == 1:
            items_by_user.setdefault(user, []).append(item)
    return {user: dataset.item_entities[np.array(items, dtype=np.int64)] for user, items in items_by_user.items()}


def reference_ripple_bags(adj, seeds_by_user, hops, n_p, rng):
    """Hop by hop, then user by user: the draws ``build_ripple_table`` must match.

    ``seeds_by_user`` maps user -> seed entities.  Returns user -> list
    of ``(n_p, 3)`` hop bags over the users whose seeds have an edge;
    the others draw nothing.  A user's pool is every (head, relation,
    tail) row with its head among the previous hop's tails, heads
    ascending; an empty pool is replaced by the previous bag.
    """
    frontier = {user: seeds for user, seeds in sorted(seeds_by_user.items())
                if any(adj[int(e)] for e in seeds)}
    bags = {user: [] for user in frontier}
    for _ in range(hops):
        for user, heads in frontier.items():
            pool = [(e, r, t) for e in sorted(set(int(x) for x in heads)) for r, t in adj[e]]
            pool = np.array(pool, dtype=np.int64).reshape(-1, 3)
            if len(pool) == 0:
                pool = bags[user][-1]
            bags[user].append(pool[rng.integers(0, len(pool), size=n_p)])
        frontier = {user: bags[user][-1][:, 2] for user in frontier}
    return bags


@pytest.fixture
def chain_kg(tmp_path):
    """Two-triple chain a -r-> b -r-> c."""
    path = write_kg(tmp_path / "chain.tsv", [("a", "r", "b"), ("b", "r", "c")])
    return rr.load_kg(path)


def make_params(hp, num_entities, num_relations, **overrides):
    """Handcrafted parameter store for closed-form forward checks.

    Under ``user_table`` it holds one user row, which pins the user
    representation.
    """
    params = rr.init_params(num_entities, num_relations, hp, seed=0, num_users=1)
    for name, value in overrides.items():
        params.values[name][...] = np.asarray(value, dtype=params.dtype)
    return params


def one_example(v_idx, hop_bags=(), tree=None):
    """A one-example BatchBags (user 0) for hand oracles on ``rr.forward``.

    ``hop_bags`` holds one list of (head, relation, tail) rows per hop.
    ``tree`` is a (tree_ents, tree_rels) pair with a batch axis of one, as
    ``sample_item_trees`` returns it; without it the tree is the
    candidate alone, which ``conv_layers=0`` needs.
    """
    v = np.array([v_idx], dtype=np.int64)
    tree_ents, tree_rels = tree if tree is not None else ([v.reshape(1, 1)], [None])
    return rr.BatchBags(
        users=np.zeros(1, dtype=np.int64), items=np.zeros(1, dtype=np.int64),
        labels=np.zeros(1, dtype=np.int64), v_idx=v,
        hop_bags=[np.asarray(bag, dtype=np.int64).reshape(1, -1, 3) for bag in hop_bags],
        tree_ents=[np.asarray(e, dtype=np.int64) for e in tree_ents],
        tree_rels=[None if r is None else np.asarray(r, dtype=np.int64) for r in tree_rels],
    )
