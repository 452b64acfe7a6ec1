"""Knowledge-graph triple store and all fixed-size stochastic sampling.

Triples are ingested from TSV, indexed through first-appearance
vocabularies, deduplicated, and exposed through one compressed sparse
row (CSR) layout: entity ``e``'s outgoing (relation, neighbor) edges are
``rel[indptr[e]:indptr[e + 1]]`` and ``nbr[indptr[e]:indptr[e + 1]]``.
One vectorized sampler, :func:`sample_children`, draws fixed-size
with-replacement neighbor bags for a whole array of entities with a
single gather.  Per-user multi-hop ripple bags (:func:`build_ripple_set`)
draw from CSR ranges, and their hop-k heads always lie among the
hop-(k-1) tails.

A loaded :class:`KnowledgeGraph` is immutable and safe for unrestricted
concurrent reads.  Samplers take an explicit ``numpy`` generator handle;
concurrent sampling requires independent generator instances.
"""

from __future__ import annotations

import logging
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

logger = logging.getLogger(__name__)

# Reserved relation index used to pad isolated entities with self-loops.
# Downstream scoring treats it as a fixed zero-score, gradient-free edge.
NULL_RELATION = -1


class ParseError(ValueError):
    """Malformed input file; carries the 1-based line number."""

    def __init__(self, path, lineno, message):
        super().__init__(f"{path}:{lineno}: {message}")
        self.path = path
        self.lineno = lineno


@contextmanager
def open_text(path):
    """Open a UTF-8 text file for reading.

    A byte sequence that does not decode raises :class:`ParseError`
    naming the first line that holds one.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            yield fh
    except UnicodeDecodeError as err:
        # the decoder works on whole chunks, so find the line by rereading
        with open(path, "rb") as fh:
            for lineno, raw in enumerate(fh, start=1):
                try:
                    raw.decode("utf-8")
                except UnicodeDecodeError:
                    break
        raise ParseError(path, lineno, f"not valid UTF-8 ({err.reason})") from None


def read_tsv(path, *arity):
    """Yield ``(lineno, fields)`` for every non-empty line of a UTF-8 TSV file.

    A line whose field count is not one of ``arity`` raises
    :class:`ParseError`, as does a byte that does not decode.
    """
    with open_text(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            fields = line.split("\t")
            if len(fields) not in arity:
                expected = " or ".join(str(n) for n in arity)
                raise ParseError(path, lineno, f"expected {expected} tab-separated fields, got {len(fields)}")
            yield lineno, fields


def read_int_tsv(path, columns):
    """``(n, len(columns))`` int64 array of a TSV file of non-negative integers.

    ``columns`` holds one ``(name, high)`` pair per field; the field must
    lie in ``[0, high)``.  A non-integer or out-of-range field raises
    :class:`ParseError` naming its line.
    """
    rows = []
    for lineno, fields in read_tsv(path, len(columns)):
        try:
            row = [int(f) for f in fields]
        except ValueError:
            raise ParseError(path, lineno, f"non-integer field in {fields}") from None
        for value, (name, high) in zip(row, columns):
            if not 0 <= value < high:
                raise ParseError(path, lineno, f"{name} {value} outside [0, {high})")
        rows.append(row)
    return np.array(rows, dtype=np.int64).reshape(-1, len(columns))


@dataclass
class KnowledgeGraph:
    """Immutable triple store with vocabularies and a CSR edge index.

    Entity ``e`` owns edges ``indptr[e]`` to ``indptr[e + 1]`` of the
    parallel arrays ``rel`` and ``nbr``; within an entity, edges are
    sorted by (relation, neighbor) for determinism.  Entity and relation
    indices are dense and assigned in first-appearance file order.
    """

    num_entities: int
    num_relations: int
    triples: np.ndarray  # (n, 3) int array of (head, relation, tail)
    indptr: np.ndarray  # (num_entities + 1,) edge offsets
    rel: np.ndarray  # (num_edges,) relation of each edge
    nbr: np.ndarray  # (num_edges,) neighbor entity of each edge
    entity_vocab: dict[str, int]
    relation_vocab: dict[str, int]
    undirected: bool = True
    entity_names: list[str] = field(default_factory=list)
    relation_names: list[str] = field(default_factory=list)

    def degree(self, entity):
        return int(self.indptr[entity + 1] - self.indptr[entity])

    def total_degree(self):
        return int(self.indptr[-1])

    def neighbors(self, entity):
        """``(degree, 2)`` array of one entity's (relation, neighbor) edges."""
        lo, hi = self.indptr[entity], self.indptr[entity + 1]
        return np.stack((self.rel[lo:hi], self.nbr[lo:hi]), axis=1)


@dataclass
class RippleSet:
    """Per-user hop bags of triples seeded by the user's history.

    ``hops[k]`` is an ``(n_p, 3)`` int array of (head, relation, tail)
    rows; hop-0 heads are seed entities, hop-k heads are hop-(k-1) tails.
    """

    user: int
    hops: list[np.ndarray]

    @property
    def n_hops(self):
        return len(self.hops)


def load_kg(path, undirected=True):
    """Load a TSV triple file (``head<TAB>relation<TAB>tail``, UTF-8).

    Vocabularies assign indices in first-appearance order, duplicate
    triples are stored once, and the CSR edge index gains an inverse
    (tail, relation, head) edge per triple when ``undirected`` is set
    (self-loops are not doubled).
    """
    entity_vocab: dict[str, int] = {}
    relation_vocab: dict[str, int] = {}
    entity_names: list[str] = []
    relation_names: list[str] = []
    triples: list[tuple[int, int, int]] = []
    seen: set[tuple[int, int, int]] = set()

    def intern(vocab, names, raw):
        idx = vocab.get(raw)
        if idx is None:
            idx = len(names)
            vocab[raw] = idx
            names.append(raw)
        return idx

    for _, (raw_h, raw_r, raw_t) in read_tsv(path, 3):
        h = intern(entity_vocab, entity_names, raw_h)
        r = intern(relation_vocab, relation_names, raw_r)
        t = intern(entity_vocab, entity_names, raw_t)
        key = (h, r, t)
        if key in seen:
            continue
        seen.add(key)
        triples.append(key)
    if not triples:
        raise ValueError(f"{path}: no triples found")

    num_entities = len(entity_names)
    num_relations = len(relation_names)
    triple_arr = np.array(triples, dtype=np.int64)
    src, rel, dst = triple_arr.T
    if undirected:
        inv = src != dst  # self-loops are not doubled
        src, rel, dst = (
            np.concatenate((src, dst[inv])),
            np.concatenate((rel, rel[inv])),
            np.concatenate((dst, src[inv])),
        )
    order = np.lexsort((dst, rel, src))
    indptr = np.zeros(num_entities + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=num_entities), out=indptr[1:])

    kg = KnowledgeGraph(
        num_entities=num_entities,
        num_relations=num_relations,
        triples=triple_arr,
        indptr=indptr,
        rel=rel[order],
        nbr=dst[order],
        entity_vocab=entity_vocab,
        relation_vocab=relation_vocab,
        undirected=undirected,
        entity_names=entity_names,
        relation_names=relation_names,
    )
    logger.info(
        "loaded %s: %d entities, %d relations, %d triples (%s)",
        path, num_entities, num_relations, len(triples),
        "undirected" if undirected else "directed",
    )
    return kg


def sample_children(kg, ents, n_e, rng):
    """Uniform with-replacement draw of ``n_e`` edges for every entity of ``ents``.

    Returns (relations, neighbors), each of shape ``ents.shape + (n_e,)``.
    An entity without edges yields ``n_e`` sentinel self-loops
    (NULL_RELATION, entity) so downstream shapes stay fixed.  The draws,
    and the generator state they leave, are those of one
    ``rng.integers(0, degree, size=n_e)`` call per entity with edges, in
    row-major order: an array ``high`` draws row by row, and a ``high``
    of 1 (an edgeless entity's stand-in) consumes nothing.
    """
    if n_e < 1:
        raise ValueError("n_e must be >= 1")
    ents = np.asarray(ents, dtype=np.int64)
    flat = ents.reshape(-1)
    start = kg.indptr[flat]
    deg = kg.indptr[flat + 1] - start
    picks = start[:, None] + rng.integers(0, np.maximum(deg, 1)[:, None], size=(flat.size, n_e))
    dead = deg == 0
    picks[dead] = 0  # any valid edge; overwritten by the pad below
    rels = kg.rel[picks]
    nbrs = kg.nbr[picks]
    rels[dead] = NULL_RELATION
    nbrs[dead] = flat[dead, None]
    shape = ents.shape + (n_e,)
    return rels.reshape(shape), nbrs.reshape(shape)


def _frontier_pool(kg, entities):
    """All (head, relation, tail) rows whose head is in ``entities``, by head."""
    heads = np.unique(np.asarray(entities, dtype=np.int64))
    start = kg.indptr[heads]
    deg = kg.indptr[heads + 1] - start
    # edge index of every pool row: each head's CSR range, back to back
    edges = np.arange(deg.sum()) + np.repeat(start - (np.cumsum(deg) - deg), deg)
    return np.stack((np.repeat(heads, deg), kg.rel[edges], kg.nbr[edges]), axis=1)


def build_ripple_set(kg, seeds, hops, n_p, rng, user=-1):
    """Sample ``hops`` bags of exactly ``n_p`` triples rippling out of ``seeds``.

    Each hop draws uniformly with replacement from all triples whose head
    lies among the previous hop's tails (hop 1: among the seeds).  A hop
    whose frontier has no outgoing triples is backfilled by resampling
    the previous hop's bag, with a warning.
    """
    if hops < 1:
        raise ValueError("hops must be >= 1")
    if n_p < 1:
        raise ValueError("n_p must be >= 1")
    seeds = [int(s) for s in seeds]
    if not seeds:
        raise ValueError(f"user {user}: no seed entities (no mappable history)")
    bags: list[np.ndarray] = []
    frontier = seeds
    for k in range(hops):
        pool = _frontier_pool(kg, frontier)
        if len(pool) == 0:
            if not bags:
                raise ValueError(f"user {user}: seed entities have no outgoing triples")
            logger.warning("user %d: empty frontier at hop %d; resampling previous hop", user, k + 1)
            pool = bags[-1]
        picks = rng.integers(0, len(pool), size=n_p)
        bag = pool[picks].copy()
        bags.append(bag)
        frontier = bag[:, 2]
    return RippleSet(user=user, hops=bags)


def load_item_map(path, kg):
    """Map raw item ids to KG entity indices from a TSV ``item<TAB>entity`` file.

    Rows whose entity is absent from the KG vocabulary are skipped; the
    returned dict only contains resolvable items.
    """
    mapping: dict[str, int] = {}
    skipped = 0
    for _, (raw_item, raw_entity) in read_tsv(path, 2):
        idx = kg.entity_vocab.get(raw_entity)
        if idx is None:
            skipped += 1
            continue
        mapping[raw_item] = idx
    if skipped:
        logger.warning("%s: %d item map rows referenced unknown entities", path, skipped)
    return mapping


def write_vocab(path, names):
    """Emit a vocabulary audit file: ``raw_id<TAB>index``, one row per index."""
    with open(path, "w", encoding="utf-8") as fh:
        for idx, raw in enumerate(names):
            fh.write(f"{raw}\t{idx}\n")


def read_vocab(path):
    """Inverse of :func:`write_vocab`; returns the dict raw_id -> index."""
    vocab = {}
    for lineno, (raw, idx) in read_tsv(path, 2):
        try:
            vocab[raw] = int(idx)
        except ValueError:
            raise ParseError(path, lineno, f"non-integer index {idx!r}") from None
    return vocab
