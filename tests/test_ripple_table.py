"""The per-user ripple sets a run builds, and the hop bags a batch reads from them.

The oracles are a dict of per-user hop bags filled by the hop-by-hop,
user-by-user reference draw loop, and the per-example ``np.stack``
batch assembly that the one-table layout replaced; the table must
reproduce them bit for bit.  The table is read only through ``bags``,
``has``, ``known`` and ``take``, but for the two reads perfbench's
tracer makes (``len`` and ``values``).
"""

import dataclasses
from collections.abc import Mapping

import numpy as np
import pytest

import ripplerec as rr
import ripplerec.model
from ripplerec.kg import RippleTable
from ripplerec.metrics import evaluate
from ripplerec.model import Hyperparams, assemble_batch

from conftest import adjacency, reference_ripple_bags, tables, train_seeds, write_kg


def _dict_build_ripple_sets(dataset, adj, hp, seed):
    """Each user's list of hop bags in a dict, dead-end users left out; ``adj`` is the graph's :func:`adjacency`."""
    return reference_ripple_bags(adj, train_seeds(dataset), hp.hops, hp.ripple_size,
                                 np.random.default_rng([seed, 17]))


def _stacked_hop_bags(oracle, users, hops):
    """Per hop, the bags of ``users`` stacked one example at a time: (B, n_p, 3)."""
    return [np.stack([oracle[int(u)][k] for u in users], axis=0) for k in range(hops)]


def _random_case(tmp_path, seed, directed):
    """A random graph, dataset and hyperparameters.

    On a directed graph the upper half of the entities only ever appears
    as a tail, and user 0's train positives lie there alone, so user 0
    is a dead end and gets no ripple set; the last user's one positive
    item has outgoing triples.  Validation and test rows carry label 1
    too, but seed nothing.
    """
    rng = np.random.default_rng(seed)
    num_entities = int(rng.integers(8, 20))
    num_relations = int(rng.integers(1, 4))
    n_triples = int(rng.integers(10, 40))
    head_high = num_entities // 2 if directed else num_entities
    rows = [(f"e{rng.integers(head_high)}", f"r{rng.integers(num_relations)}", f"e{rng.integers(num_entities)}")
            for _ in range(n_triples)]
    rows += [("e0", "r0", "x0"), ("e1", "r0", "x1")]  # two tails with no outgoing triple when directed
    kg = rr.load_kg(write_kg(tmp_path / f"kg{seed}.tsv", rows), undirected=not directed)
    degrees = np.diff(kg.indptr)

    num_users = int(rng.integers(6, 12))
    num_items = int(rng.integers(6, 12))
    item_entities = rng.integers(0, kg.num_entities, size=num_items)
    if directed:
        dead = np.flatnonzero(degrees == 0)
        live = np.flatnonzero(degrees > 0)
        item_entities[:2] = dead[:2]
        item_entities[2] = live[0]
    history = {}  # filled in random order: the builder must visit users sorted
    for user in rng.permutation(num_users).tolist():
        if user != 0 and rng.random() < 0.25:
            continue  # no train positive
        history[user] = np.unique(rng.integers(0, num_items, size=int(rng.integers(1, 5))))
    if directed:
        history[0] = np.array([0, 1])
        history[num_users - 1] = np.array([2])
    users = np.array(sorted(history))
    records = np.stack([rng.choice(users, 40), rng.integers(0, num_items, 40), rng.integers(0, 2, 40)], axis=1)
    positives = np.array([(user, item, 1) for user, items in history.items() for item in items])
    train = np.concatenate([positives, records[records[:, 2] == 0]])
    dataset = rr.InteractionDataset(
        num_users=num_users, num_items=num_items, train=train, validation=records, test=records,
        item_entities=item_entities,
    )
    hp = Hyperparams(hops=int(rng.integers(1, 4)), ripple_size=int(rng.integers(1, 6)),
                     neighbor_size=2, conv_layers=1)
    return kg, dataset, hp


def _dead_end_case(tmp_path):
    """The directed graph of the dead-end fit test: user 0 has no ripple set."""
    rows = [(f"m{k}", "genre", f"g{k % 2}") for k in range(4)]
    rows += [("g0", "sim", "g1"), ("g1", "sim", "g0"), ("g0", "has", "d0"), ("g1", "has", "d1")]
    kg = rr.load_kg(write_kg(tmp_path / "kg.tsv", rows), undirected=False)
    item_entities = np.array([kg.entity_names.index(e) for e in ("m0", "m1", "m2", "m3", "d0", "d1")])
    train = np.array([(0, 4, 1), (0, 0, 0), (0, 5, 1), (0, 1, 0),
                      (1, 0, 1), (1, 4, 0), (1, 1, 1), (1, 5, 0),
                      (2, 2, 1), (2, 0, 0), (2, 3, 1), (2, 1, 0)])
    held_out = np.array([(0, 4, 1), (0, 2, 0), (1, 2, 1), (1, 3, 0), (2, 1, 1), (2, 5, 0)])
    dataset = rr.InteractionDataset(
        num_users=3, num_items=6, train=train, validation=held_out, test=held_out,
        item_entities=item_entities,
    )
    return kg, dataset, Hyperparams(hops=2, ripple_size=4, neighbor_size=2)


CASES = [(seed, directed) for seed in range(6) for directed in (False, True)]


@pytest.mark.parametrize("seed,directed", CASES, ids=[f"{s}-{'directed' if d else 'undirected'}" for s, d in CASES])
def test_hop_bags_match_dict_oracle(tmp_path, seed, directed):
    kg, dataset, hp = _random_case(tmp_path, seed, directed)
    ripple_sets = rr.build_ripple_sets(dataset, kg, hp, seed=seed)
    oracle = _dict_build_ripple_sets(dataset, adjacency(tmp_path / f"kg{seed}.tsv", not directed), hp, seed)
    assert np.flatnonzero(ripple_sets.has).tolist() == list(oracle)
    everyone = np.arange(dataset.num_users)
    assert everyone[ripple_sets.known(everyone)].tolist() == list(oracle)
    if directed:
        assert not ripple_sets.known(np.array([0]))[0]
    for user, want in oracle.items():
        got = ripple_sets.take(np.array([user]))[:, 0]
        assert len(got) == len(want) == hp.hops
        for g, w in zip(got, want):
            assert (g.dtype, g.shape, g.astype(np.int64).tobytes()) == (np.int32, w.shape, w.tobytes())

    batch = dataset.train[np.isin(dataset.train[:, 0], list(oracle))]
    assert len(batch) > 0
    bags = assemble_batch(batch, rr.build_neighbor_table(kg, hp, seed), ripple_sets, hp, dataset.item_entities)
    want = _stacked_hop_bags(oracle, batch[:, 0], hp.hops)
    assert len(bags.hop_bags) == hp.hops
    for got, w in zip(bags.hop_bags, want):
        assert (got.dtype, got.shape, got.astype(np.int64).tobytes()) == (np.int32, w.shape, w.tobytes())


@pytest.mark.parametrize("seed", range(8))
def test_build_ripple_sets_matches_row_loop(tmp_path, seed):
    """Random train splits: the table equals the reference draw from per-row train seeds."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(0, 300))
    # users 0..9 carry both labels; users 10..14 only negatives
    train = np.stack((rng.integers(0, 15, n), rng.integers(0, 50, n), rng.integers(0, 2, n)), axis=1)
    train[train[:, 0] >= 10, 2] = 0
    rows = [(f"e{rng.integers(30)}", f"r{rng.integers(3)}", f"e{rng.integers(30)}") for _ in range(60)]
    kg = rr.load_kg(write_kg(tmp_path / "kg.tsv", rows), undirected=bool(seed % 2))
    dataset = rr.InteractionDataset(num_users=15, num_items=50, train=train, validation=train[:0],
                                    test=train[:0], item_entities=rng.integers(0, kg.num_entities, 50))
    hp = Hyperparams(hops=2, ripple_size=3)
    table = rr.build_ripple_sets(dataset, kg, hp, seed=seed)
    want = reference_ripple_bags(adjacency(tmp_path / "kg.tsv", bool(seed % 2)), train_seeds(dataset), hp.hops,
                                 hp.ripple_size, np.random.default_rng([seed, 17]))
    assert np.flatnonzero(table.has).tolist() == sorted(want)
    assert not table.has[10:].any()
    assert table.bags.dtype == np.int32
    for user, bags in want.items():
        assert table.bags[:, user].astype(np.int64).tobytes() == np.stack(bags).tobytes()


def test_table_reads_train_positives_only(tmp_path):
    """Row order, held-out rows and train negatives leave the table byte-identical; a positive does not."""
    kg, dataset, hp = _random_case(tmp_path, 3, directed=False)

    def table_bytes(**changes):
        table = rr.build_ripple_sets(dataclasses.replace(dataset, **changes), kg, hp, seed=3)
        return table.bags.tobytes() + table.has.tobytes()

    base = table_bytes()
    train = dataset.train
    assert table_bytes(train=train[np.random.default_rng(0).permutation(len(train))]) == base
    assert table_bytes(validation=dataset.validation[:3], test=np.ones_like(dataset.test)) == base
    negative = np.flatnonzero(train[:, 2] == 0)[0]
    moved = train.copy()
    moved[negative, 1] = (moved[negative, 1] + 1) % dataset.num_items
    assert table_bytes(train=moved) == base
    relabelled = train.copy()
    relabelled[np.flatnonzero(train[:, 2] == 1)[0], 2] = 0
    assert table_bytes(train=relabelled) != base


@pytest.mark.parametrize("user", [0, 3, -1])
def test_batch_user_without_ripple_set_raises_key_error(tmp_path, user):
    kg, dataset, hp = _dead_end_case(tmp_path)
    batch = np.array([(1, 0, 1), (user, 4, 1), (2, 1, 0), (0, 5, 1)])
    with pytest.raises(KeyError) as err:
        assemble_batch(batch, *tables(kg, dataset, hp), hp, dataset.item_entities)
    assert err.value.args == (user,)


def test_evaluate_skip_count_same_for_table_and_dict(tmp_path, monkeypatch):
    kg, dataset, hp = _dead_end_case(tmp_path)
    params = rr.init_params(kg.num_entities, kg.num_relations, hp, seed=0)
    neighbors, ripple_sets = tables(kg, dataset, hp)
    real = evaluate(params, dataset.test, neighbors, ripple_sets, hp, dataset.item_entities)
    assert (real.skipped, real.n_examples) == (2, 4)

    monkeypatch.setattr(ripplerec.model, "score_batch", lambda params, records, *a: np.full(len(records), 0.5))
    report = evaluate(None, dataset.test, neighbors, ripple_sets, hp, dataset.item_entities)
    assert (report.skipped, report.n_examples) == (2, 4)


@pytest.mark.parametrize("user_table", [False, True], ids=["ripple", "user_table"])
@pytest.mark.parametrize("user", [-1, 0, 1, 3])
def test_known_agrees_with_take(tmp_path, monkeypatch, user_table, user):
    """``known`` is the one test of scorable users: ``take`` succeeds exactly where it holds.

    User 0 is the dead end, 3 is ``num_users``; under ``user_table`` the
    zero-hop table knows every user in range, and building it draws no
    random number.
    """
    kg, dataset, hp = _dead_end_case(tmp_path)
    hp = dataclasses.replace(hp, user_table=user_table)
    if user_table:
        monkeypatch.setattr(ripplerec.model.np.random, "default_rng", None)
    table = rr.build_ripple_sets(dataset, kg, hp, seed=0)
    assert table.bags.shape == (0 if user_table else hp.hops, dataset.num_users, hp.ripple_size, 3)
    expected = {-1: False, 0: user_table, 1: True, 3: False}[user]
    users = np.array([user])
    assert table.known(users).tolist() == [expected]
    if expected:
        assert table.take(users).shape == (table.bags.shape[0], 1, hp.ripple_size, 3)
    else:
        with pytest.raises(KeyError) as err:
            table.take(users)
        assert err.value.args == (user,)


def test_mapping_semantics(tmp_path):
    """Which users the table knows, by ``has``, ``known`` and ``take``; and the two reads left of its old mapping."""
    kg, dataset, hp = _dead_end_case(tmp_path)
    ripple_sets = rr.build_ripple_sets(dataset, kg, hp, seed=0)
    assert not isinstance(ripple_sets, Mapping)
    assert np.flatnonzero(ripple_sets.has).tolist() == [1, 2]
    assert ripple_sets.known(np.array([1, 2], dtype=np.int64)).all()
    assert not ripple_sets.known(np.array([0, 3, -1])).any()
    for absent in (0, 3, -1):
        with pytest.raises(KeyError):
            ripple_sets.take(np.array([absent]))
    # the reads a tracer makes of the built sets
    assert len(ripple_sets) == 2
    values = list(ripple_sets.values())
    assert [rs.user for rs in values] == [1, 2]
    assert sum(len(rs.hops) for rs in values) == 2 * hp.hops
    assert [rs.hops[0].shape for rs in values] == [(hp.ripple_size, 3)] * 2
    for rs in values:
        for k, hop in enumerate(rs.hops):
            assert np.shares_memory(hop, ripple_sets.bags) and np.array_equal(hop, ripple_sets.bags[k, rs.user])


def test_table_layout_and_read_only(tmp_path):
    kg, dataset, hp = _dead_end_case(tmp_path)
    ripple_sets = rr.build_ripple_sets(dataset, kg, hp, seed=0)
    assert isinstance(ripple_sets, RippleTable)
    assert ripple_sets.bags.shape == (hp.hops, dataset.num_users, hp.ripple_size, 3)
    assert ripple_sets.bags.dtype == np.int32
    assert ripple_sets.has.tolist() == [False, True, True]
    assert not ripple_sets.bags[:, 0].any()
    with pytest.raises(ValueError, match="read-only"):
        ripple_sets.bags[:, 0] = ripple_sets.bags[:, 1]
    with pytest.raises(ValueError, match="read-only"):
        next(ripple_sets.values()).hops[0][0, 0] = 5
    with pytest.raises(ValueError, match="read-only"):
        ripple_sets.has[0] = True
