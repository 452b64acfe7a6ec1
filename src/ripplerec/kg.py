"""Knowledge-graph loading, its one edge layout, and all fixed-size stochastic sampling.

Every TSV input goes through one byte-level scanner: the file's bytes
are read once and only checked as UTF-8, never kept as text (the CLI's
``key = value`` files are read the same way, by :func:`read_text`),
line breaks follow text mode (``\n``, ``\r\n`` and a lone ``\r``; a
blank line is skipped but counted), and numpy finds the tabs and line
breaks and checks every line's field count from them.  The scanner
returns the byte bounds of the fields its caller reads: views of one
reshape when every line has one field count, else gathered per line.
Every field (KG names, the item map, a rating log's users, items and
ratings, the integers of :func:`read_int_tsv`) goes through one
interner, :func:`_intern`, over the scanner's one padded buffer: it
sorts each field as padded 8-byte words and decodes only the distinct
fields, so no input makes a Python str per field.  Triples are indexed
through those first-appearance vocabularies, held as name lists,
deduplicated by one sort of packed (head, relation, tail) keys, and kept
only as one compressed sparse row (CSR) layout built from one sort of
packed (source, relation, neighbor) keys:
entity ``e``'s outgoing (relation, neighbor) edges are
``rel[indptr[e]:indptr[e + 1]]`` and ``nbr[indptr[e]:indptr[e + 1]]``.
The CSR arrays, and the two tables sampled from them, hold int32 indices,
built in int32 rather than cast from int64; a graph whose edge or
entity count reaches :data:`INDEX_LIMIT` keeps int64.  Relation ids
(the CSR's and the neighbor table's ``rel``) take :func:`relation_dtype`,
int8 up to 128 relations; the scanner's field bounds, and the
interner's arrays per field, are int32 for a file below 2 GiB.
Both samplers draw uniformly with replacement from CSR ranges:
:func:`sample_children` fixed-size neighbor bags for a whole array of
entities (every entity at once gives a run's :class:`NeighborTable`),
and :func:`build_ripple_table` every user's multi-hop ripple bags, one
draw per hop for all users, into one :class:`RippleTable` array; a
user's hop-k heads always lie among its hop-(k-1) tails.

A loaded :class:`KnowledgeGraph` is immutable and safe for unrestricted
concurrent reads.  Samplers take an explicit ``numpy`` generator handle;
concurrent sampling requires independent generator instances.
"""

from __future__ import annotations

import logging
import re
from collections.abc import Mapping
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

logger = logging.getLogger(__name__)

# Reserved relation index used to pad isolated entities with self-loops.
# Downstream scoring treats it as a fixed zero-score, gradient-free edge.
NULL_RELATION = -1
# Index arrays are int32 while the counts they index (edges, entities, sparse rows) stay below this, else int64.
INDEX_LIMIT = 2**31


def index_dtype(*counts):
    """Index dtype for arrays of ``counts`` rows: int32 while every count is below :data:`INDEX_LIMIT`, else int64."""
    return np.int64 if max(counts) >= INDEX_LIMIT else np.int32


def relation_dtype(num_relations):
    """The narrowest signed dtype that holds :data:`NULL_RELATION` and every index of ``num_relations`` relations.

    int8 up to 128 relations, then int16, int32 and int64.
    """
    return next(dtype for dtype in (np.int8, np.int16, np.int32, np.int64)
                if num_relations - 1 <= np.iinfo(dtype).max)


class ParseError(ValueError):
    """Malformed input file; carries the 1-based line number."""

    def __init__(self, path, lineno, message):
        super().__init__(f"{path}:{lineno}: {message}")
        self.path = path
        self.lineno = lineno


def _read(path):
    """A UTF-8 file's bytes with every line break turned into ``b"\n"``, as text mode reads it.

    The bytes are only checked as UTF-8 (one decode whose text is
    dropped; none when they are all ASCII), never kept as text: a byte
    sequence that does not decode raises :class:`ParseError` naming the
    line that holds it.  In UTF-8 a ``\r`` byte is always a ``"\r"``,
    so breaks translate on the bytes as on the text.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    if not data.isascii():
        try:
            data.decode("utf-8")
        except UnicodeDecodeError as err:
            head = data[:err.start]
            lineno = head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n") + 1
            raise ParseError(path, lineno, f"not valid UTF-8 ({err.reason})") from None
    if b"\r" in data:
        data = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    return data


def read_text(path):
    """A UTF-8 file's text with every line break turned into ``"\n"``, as text mode reads it.

    A byte sequence that does not decode raises :class:`ParseError`
    naming the line that holds it.
    """
    return _read(path).decode("utf-8")


class _Scan(NamedTuple):
    buf: np.ndarray  # the file's UTF-8 bytes, every line "\n"-terminated, then 8 zero bytes (see _intern)
    start: np.ndarray  # (lines, min(arity)) byte offset of each non-blank line's first fields
    end: np.ndarray  # (lines, min(arity)) byte offset of the tab or newline that ends each of those fields
    linenos: np.ndarray  # 1-based number of every non-blank line
    arity: int  # the field count of every line when all lines share one and none is blank, else 0


def _scan(path, arity):
    """Bounds of the first ``min(arity)`` fields of every line of a UTF-8 TSV file, whose field counts it checks.

    A non-blank line whose field count is not in ``arity`` raises
    :class:`ParseError`, as does a byte that does not decode.  The bytes
    are copied once, into ``buf`` padded for every :func:`_intern` call.
    When every line has one field count and none is blank, the bounds
    are views of one reshape (a field starts one byte past the previous
    field's end); otherwise they are gathered line by line.  Bounds and
    line numbers are of :func:`index_dtype` of the buffer's length, so a
    file below 2 GiB holds them in int32.
    """
    data = _read(path)
    if data and not data.endswith(b"\n"):
        data += b"\n"
    buf = np.frombuffer(data + bytes(8), dtype=np.uint8)
    del data
    bound = index_dtype(len(buf))
    is_end = buf == ord("\t")
    is_end |= buf == ord("\n")
    ends = np.flatnonzero(is_end)
    del is_end  # one bool per byte: gone before the gather below
    ends = ends.astype(bound, copy=False)
    newline = buf[ends] == ord("\n")
    num_lines, count = np.count_nonzero(newline), min(arity)
    for n in arity:
        # every n-th field ends a line and no other does: n fields on every line, none blank
        if n > 1 and num_lines * n == len(ends) and newline[n - 1::n].all():
            start = np.zeros_like(ends)
            np.add(ends[:-1], 1, out=start[1:])
            return _Scan(buf, start.reshape(-1, n)[:, :count], ends.reshape(-1, n)[:, :count],
                         np.arange(1, num_lines + 1, dtype=bound), n)
    last = np.flatnonzero(newline)  # each line's last field
    first = np.zeros_like(last)
    first[1:] = last[:-1] + 1
    counts = last - first + 1
    # a blank line's newline follows the previous one, or opens the file
    blank = buf[ends[last] - 1] == ord("\n")
    blank[:1] = ends[last[:1]] == 0
    bad = ~blank & ~np.isin(counts, arity)
    if bad.any():
        i = int(np.argmax(bad))
        expected = " or ".join(str(n) for n in arity)
        raise ParseError(path, i + 1, f"expected {expected} tab-separated fields, got {counts[i]}")
    lines = np.flatnonzero(~blank)
    index = first[lines, None] + np.arange(count)
    start = ends[index - 1] + 1
    start[index == 0] = 0
    return _Scan(buf, start, ends[index], (lines + 1).astype(bound), 0)


# _PAD[r]: the word whose first r bytes are 0 and whose others are 0xFF, in native byte order
_PAD = np.array([[0] * r + [0xFF] * (8 - r) for r in range(9)], dtype=np.uint8).view(np.uint64).ravel()


def _intern(buf, start, end):
    """First-appearance vocabulary of the fields ``buf[start[i]:end[i]]``: (names, indices).

    Field ``i`` is ``names[indices[i]]``.  The same as interning the
    decoded fields, without a str per field and without a name -> index
    dict.  Each field is padded with 0xFF, a byte UTF-8 never uses, to
    whole 8-byte words, read as native-endian ``uint64`` keys (the sort
    only groups equal keys, so byte order does not matter) and sorted
    once among the fields of its word count.  Groups of equal keys rank
    by their first field, and only the distinct fields are decoded, with
    one ``decode`` of their tab-joined bytes.  Each field ends at a tab
    or newline of ``buf``, as :func:`_scan` finds them, and ``buf`` holds
    8 bytes past the last one (:func:`_scan` pads it), so it is never copied.
    Every array per field, ``indices`` included, is of the dtype of
    ``start``: :func:`_scan`'s int32 bounds keep the sort orders in int32.
    """
    start, end = np.ascontiguousarray(start), np.ascontiguousarray(end)
    index = start.dtype
    words = np.ndarray((len(buf) - 7,), dtype=np.uint64, buffer=buf, strides=(1,))  # the word at every byte
    width = end - start
    last = width - 1  # the index of each field's last word
    np.maximum(last, 0, out=last)
    last >>= 3
    sizes = np.bincount(last)
    runs, firsts = [], []  # per word count: its fields in key order and each group's size; each group's first field
    for k in np.flatnonzero(sizes).tolist():
        rows = None if sizes[k] == len(start) else np.flatnonzero(last == k).astype(index, copy=False)
        at, w = (start, width) if rows is None else (start[rows], width[rows])
        keys = [words[at + 8 * j] if j else words[at] for j in range(k + 1)]
        keys[-1] |= _PAD[w - 8 * k]  # only the last word holds bytes past the field
        del at, w
        order = (np.argsort(keys[0]) if k == 0 else np.lexsort(keys[::-1])).astype(index, copy=False)
        new = np.zeros(len(order), dtype=bool)
        new[0] = True
        for key in keys:
            key = key[order]
            new[1:] |= key[1:] != key[:-1]
        del keys, key
        if rows is not None:
            order = rows[order]
        heads = np.flatnonzero(new)
        firsts.append(np.minimum.reduceat(order, heads))
        runs.append((order, np.diff(heads, append=len(order))))
    del last
    first = np.concatenate(firsts) if firsts else np.zeros(0, dtype=index)
    rank = np.argsort(first)
    label = np.empty(len(first), dtype=index)  # each group's index, in the groups' order
    label[rank] = np.arange(len(first))
    indices = np.empty(len(start), dtype=index)
    for order, size in runs:
        indices[order] = np.repeat(label[:len(size)], size)
        label = label[len(size):]
    # the distinct fields, each with the byte that ends it, back to back; then tab for every end
    lo, size = start[first[rank]], width[first[rank]] + 1
    stop = np.cumsum(size)
    joined = buf[np.repeat(lo - stop + size, size) + np.arange(stop[-1] if len(stop) else 0)]
    joined[stop - 1] = ord("\t")
    names = joined.tobytes().decode("utf-8").split("\t")[:-1]
    return names, indices


def read_int_tsv(path, columns):
    """``(n, len(columns))`` int64 array of a TSV file of non-negative integers.

    ``columns`` holds one ``(name, high)`` pair per field; the field must
    lie in ``[0, high)``.  A field is an integer when it is ASCII digits
    with an optional leading ``-``; the fields are interned (:func:`_intern`)
    and each distinct one is parsed once.  The first line holding a
    non-integer or out-of-range field raises :class:`ParseError`.
    """
    scan = _scan(path, (len(columns),))
    names, ids = _intern(scan.buf, scan.start.ravel(), scan.end.ravel())
    ids = ids.reshape(scan.start.shape)
    # each distinct field's sign and digits without leading zeros; None when it is no integer
    matches = list(map(re.compile(r"(-?)0*([0-9]+)").fullmatch, names))
    # not an integer or negative: below every range; int() gets 20 digits at most (more exceed int64, or its 4300 limit)
    value = np.array([-1 if m is None or m[1] and m[2] != "0" else min(int(m[2][:20]), 2**63 - 1)
                      for m in matches], dtype=np.int64)[ids]
    bad = (value < 0) | (value >= np.array([high for _, high in columns], dtype=np.int64))
    if bad.any():
        i = int(np.argmax(bad.any(axis=1)))
        lineno, row = int(scan.linenos[i]), ids[i].tolist()
        if not all(matches[k] for k in row):
            raise ParseError(path, lineno, f"non-integer field in {[names[k] for k in row]}")
        c = int(np.argmax(bad[i]))
        name, high = columns[c]
        sign, digits = matches[row[c]].groups()
        raise ParseError(path, lineno, f"{name} {sign * (digits != '0')}{digits} outside [0, {high})")
    return value


@dataclass
class KnowledgeGraph:
    """Immutable graph in one layout: a CSR edge index and the raw ids of its indices.

    Entity ``e`` owns edges ``indptr[e]`` to ``indptr[e + 1]`` of the
    parallel arrays ``rel`` and ``nbr``; within an entity, edges are
    sorted by (relation, neighbor) for determinism.  Entity and relation
    indices are dense and assigned in first-appearance file order.
    ``num_triples`` counts the file's distinct triples.  ``indptr`` and
    ``nbr`` are int32, or int64 when the edge or entity count reaches
    :data:`INDEX_LIMIT`; ``rel`` is of :func:`relation_dtype`.
    """

    num_entities: int
    num_relations: int
    num_triples: int
    indptr: np.ndarray  # (num_entities + 1,) edge offsets
    rel: np.ndarray  # (num_edges,) relation of each edge
    nbr: np.ndarray  # (num_edges,) neighbor entity of each edge
    undirected: bool
    entity_names: list[str]  # entity index -> raw id
    relation_names: list[str]  # relation index -> raw id

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
    """Per-user hop bags of triples seeded by the user's train positives.

    ``hops[k]`` is an ``(n_p, 3)`` int array of (head, relation, tail)
    rows; hop-0 heads are seed entities, hop-k heads are hop-(k-1) tails.
    """

    user: int
    hops: list[np.ndarray]


class RippleTable(Mapping):
    """Every user's hop bags in one array, as :func:`build_ripple_table` draws them.

    ``bags`` is a ``(hops, num_users, n_p, 3)`` array of the graph's index
    dtype (int32 below :data:`INDEX_LIMIT`, see :class:`KnowledgeGraph`): ``bags[k, u]``
    is user ``u``'s hop-k bag (zero hops under ``user_table``).  ``has``
    masks the users :meth:`known` accepts; the other rows are zero.  Both
    arrays are read-only; a snapshot's manifest checksums their bytes.
    The table reads as a mapping user -> :class:`RippleSet` over ``has``,
    ascending, whose hops are views of ``bags``.
    """

    def __init__(self, bags, has):
        bags.flags.writeable = False
        has.flags.writeable = False
        self.bags = bags
        self.has = has

    def __getitem__(self, user):
        if user not in self:
            raise KeyError(user)
        return RippleSet(user=int(user), hops=list(self.bags[:, user]))

    def __contains__(self, user):
        return isinstance(user, (int, np.integer)) and 0 <= user < len(self.has) and bool(self.has[user])

    def __iter__(self):
        return iter(np.flatnonzero(self.has).tolist())

    def __len__(self):
        return int(self.has.sum())

    def known(self, users):
        """Bool mask of the int array ``users`` (B,) that ``has`` marks; out-of-range users are unknown."""
        known = (users >= 0) & (users < len(self.has))
        known[known] = self.has[users[known]]
        return known

    def take(self, users):
        """Hop bags of ``users`` (B,), shape ``(hops, B, n_p, 3)``.

        Raises ``KeyError`` naming the first user :meth:`known` rejects.
        """
        known = self.known(users)
        if not known.all():
            raise KeyError(int(users[np.argmin(known)]))
        return self.bags.take(users, axis=1)


class NeighborTable:
    """``n_e`` sampled (relation, neighbor) edges of every entity, drawn once per run.

    ``rel`` and ``nbr`` are read-only ``(num_entities, n_e)`` arrays of the
    graph's ``rel`` and ``nbr`` dtypes (see :class:`KnowledgeGraph`):
    row ``e`` is :func:`sample_children` of entity ``e`` (``n_e``
    ``NULL_RELATION`` self-loops for an entity without edges).  A
    snapshot's manifest checksums their bytes.
    """

    def __init__(self, rel, nbr):
        rel.flags.writeable = False
        nbr.flags.writeable = False
        self.rel = rel
        self.nbr = nbr


def load_kg(path, undirected=True):
    """Load a TSV triple file (``head<TAB>relation<TAB>tail``, UTF-8).

    Vocabularies assign indices in first-appearance order, a duplicate
    triple counts once, and the CSR edge index gains an inverse (tail,
    relation, head) edge per triple when ``undirected`` is set
    (self-loops are not doubled).
    """
    buf, start, end = _scan(path, (3,))[:3]
    if len(start) == 0:
        raise ValueError(f"{path}: no triples found")
    relation_names, rels = _intern(buf, start[:, 1], end[:, 1])
    heads_tails = start[:, ::2].ravel(), end[:, ::2].ravel()  # the entity fields in file order
    del start, end  # these and the bytes go at their last use: about 6 MiB off the traced peak
    entity_names, ent = _intern(buf, *heads_tails)
    del buf, heads_tails
    num_entities, num_relations = len(entity_names), len(relation_names)
    if num_entities**2 * num_relations >= 2**63:
        raise ValueError(f"{path}: {num_entities} entities and {num_relations} relations overflow int64 triple keys")

    def pack(src, rel, dst):
        keys = np.multiply(src, num_relations, dtype=np.int64)  # interned indices are int32 below 2 GiB
        keys += rel
        keys *= num_entities
        keys += dst
        return keys

    num_lines = len(rels)
    edge_keys = _sorted_unique(pack(ent[0::2], rels, ent[1::2]))  # each distinct triple once
    num_triples = len(edge_keys)
    if undirected:
        h, rest = np.divmod(edge_keys, num_relations * num_entities)
        r, t = np.divmod(rest, num_entities)
        inv = h != t  # self-loops are not doubled
        edge_keys = np.concatenate((edge_keys, pack(t[inv], r[inv], h[inv])))
        edge_keys.sort()  # by (source, relation, neighbor)
    src, rest = np.divmod(edge_keys, num_relations * num_entities)
    index = index_dtype(len(src), num_entities)
    rel, nbr = np.empty(len(src), dtype=relation_dtype(num_relations)), np.empty(len(src), dtype=index)
    np.divmod(rest, num_entities, out=(rel, nbr))  # written in their own dtypes, never held as int64
    indptr = np.zeros(num_entities + 1, dtype=index)
    np.cumsum(np.bincount(src, minlength=num_entities), out=indptr[1:])

    kg = KnowledgeGraph(num_entities=num_entities, num_relations=num_relations, num_triples=num_triples,
                        indptr=indptr, rel=rel, nbr=nbr, undirected=undirected,
                        entity_names=entity_names, relation_names=relation_names)
    logger.info("loaded %s: %d entities, %d relations, %d triples (%d duplicates dropped, %s)",
                path, num_entities, num_relations, num_triples, num_lines - num_triples,
                "undirected" if undirected else "directed")
    return kg


def sample_children(kg, ents, n_e, rng):
    """Uniform with-replacement draw of ``n_e`` edges for every entity of ``ents``.

    Returns (relations, neighbors), each of shape ``ents.shape + (n_e,)``
    and of the dtype of the graph's ``rel`` and ``nbr``.
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


def _sorted_unique(keys):
    """The sorted distinct values of the int array ``keys``, flattened, as ``np.unique`` gives them.

    One sort and a neighbour mask: on tens of thousands of keys this is
    an order of magnitude faster than ``np.unique``.
    """
    keys = np.sort(keys, axis=None)
    first = np.ones(len(keys), dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    return keys[first]


def build_ripple_table(kg, users, seeds, num_users, hops, n_p, rng):
    """:class:`RippleTable` of ``hops`` bags of exactly ``n_p`` triples per user, rippling out of its seeds.

    ``users`` and ``seeds`` are parallel arrays of (user, seed entity)
    pairs, users in [0, ``num_users``).  Hop k draws uniformly with
    replacement from every triple whose head is among the user's hop-(k-1)
    tails (hop 1: its seeds), heads ascending, each head's CSR edges in
    order; an empty pool resamples the previous bag, with an "empty
    frontier" warning.  Users whose seeds have no outgoing triples get no
    bags and draw nothing.  Each hop is one ``rng.integers`` call over the
    others, ascending, each drawing as ``rng.integers(0, size, n_p)`` would.
    """
    if hops < 1 or n_p < 1:
        raise ValueError("hops and n_p must be >= 1")
    num_entities = kg.num_entities
    degrees = np.diff(kg.indptr)
    # each user's distinct frontier entities, as packed user * E + entity keys sorted by user
    frontier = _sorted_unique(np.asarray(users, dtype=np.int64) * num_entities
                              + np.asarray(seeds, dtype=np.int64))
    owner, heads = np.divmod(frontier, num_entities)
    has = np.zeros(num_users, dtype=bool)
    has[owner[degrees[heads] > 0]] = True
    dead_ends = np.count_nonzero(np.diff(owner, prepend=-1)) - int(has.sum())
    if dead_ends:
        logger.warning("%d users skipped: seed entities have no outgoing triples", dead_ends)
    live = np.flatnonzero(has)
    owner, heads = owner[has[owner]], heads[has[owner]]
    bags = np.zeros((hops, num_users, n_p, 3), dtype=kg.nbr.dtype)
    for k in range(hops):
        # the hop's pools back to back: head j's edges are rows offset[j]:offset[j + 1]
        offset = np.concatenate(([0], np.cumsum(degrees[heads])))
        start = offset[np.searchsorted(owner, live)]  # each user's heads are contiguous
        size = np.diff(start, append=offset[-1])
        empty = size == 0
        picks = rng.integers(0, np.where(empty, n_p, size)[:, None], size=(len(live), n_p))
        rows = start[~empty, None] + picks[~empty]
        j = np.searchsorted(offset, rows, side="right") - 1
        edges = kg.indptr[heads[j]] + rows - offset[j]
        bags[k, live[~empty]] = np.stack((heads[j], kg.rel[edges], kg.nbr[edges]), axis=-1)
        for user in live[empty].tolist():
            logger.warning("user %d: empty frontier at hop %d; resampling previous hop", user, k + 1)
        bags[k, live[empty]] = np.take_along_axis(bags[k - 1, live[empty]], picks[empty, :, None], axis=1)
        frontier = _sorted_unique(live[:, None] * num_entities + bags[k, live, :, 2])
        owner, heads = np.divmod(frontier, num_entities)
    return RippleTable(bags, has)


def load_item_map(path, kg):
    """Map raw item ids to KG entity indices from a TSV ``item<TAB>entity`` file.

    Rows whose entity is absent from the KG vocabulary are skipped and
    counted in a warning; the returned dict, in first-appearance order,
    only contains resolvable items.  A repeated row is stored once; an
    item listed again with another entity raises :class:`ParseError`
    naming the later line.
    """
    buf, start, end, linenos, _ = _scan(path, (2,))
    item_names, items = _intern(buf, start[:, 0], end[:, 0])
    entity_names, entities = _intern(buf, start[:, 1], end[:, 1])
    _, first_row = np.unique(items, return_index=True)
    item_entity = entities[first_row]  # each item's entity at its first row
    clash = np.flatnonzero(entities != item_entity[items])
    if len(clash):
        i = clash[0]
        item, earlier, later = item_names[items[i]], entity_names[item_entity[items[i]]], entity_names[entities[i]]
        raise ParseError(path, int(linenos[i]),
                         f"item {item!r} maps to entity {later!r}, but an earlier line maps it to {earlier!r}")
    entity_index = dict(zip(kg.entity_names, range(kg.num_entities)))
    lookup = np.array([entity_index.get(name, -1) for name in entity_names], dtype=np.int64)[item_entity]
    skipped = int(np.count_nonzero(lookup[items] < 0))
    if skipped:
        logger.warning("%s: %d item map rows referenced unknown entities", path, skipped)
    return {name: idx for name, idx in zip(item_names, lookup.tolist()) if idx >= 0}


def vocab_bytes(names):
    """The bytes of :func:`write_vocab`'s file for ``names``."""
    return "".join(f"{raw}\t{idx}\n" for idx, raw in enumerate(names)).encode("utf-8")


def write_vocab(path, names):
    """Emit a vocabulary audit file: ``raw_id<TAB>index``, one row per index."""
    with open(path, "wb") as fh:
        fh.write(vocab_bytes(names))

