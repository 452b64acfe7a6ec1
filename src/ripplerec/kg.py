"""Knowledge-graph triple store and all fixed-size stochastic sampling.

Every TSV input goes through one byte-level scanner: the file is read
and decoded once (:func:`read_text`, which also reads the CLI's
``key = value`` files), line breaks follow text mode (``\n``, ``\r\n``
and a lone ``\r``; a blank line is skipped but counted), and numpy finds
the tabs and line breaks and checks every line's field count from them.
Triples are indexed through first-appearance vocabularies, deduplicated
on packed (head, relation, tail) keys, and exposed through one
compressed sparse row (CSR) layout built from one sort of packed
(source, relation, neighbor) keys: entity ``e``'s outgoing (relation,
neighbor) edges are ``rel[indptr[e]:indptr[e + 1]]`` and
``nbr[indptr[e]:indptr[e + 1]]``.
Both samplers draw uniformly with replacement from CSR ranges:
:func:`sample_children` fixed-size neighbor bags for a whole array of
entities, and :func:`build_ripple_table` every user's multi-hop ripple
bags, one draw per hop for all users, into one :class:`RippleTable`
array; a user's hop-k heads always lie among its hop-(k-1) tails.

A loaded :class:`KnowledgeGraph` is immutable and safe for unrestricted
concurrent reads.  Samplers take an explicit ``numpy`` generator handle;
concurrent sampling requires independent generator instances.
"""

from __future__ import annotations

import logging
from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import NamedTuple

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


def _decode(path, data):
    """``data`` as text; a byte that does not decode raises :class:`ParseError` naming its line."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as err:
        head = data[:err.start]
        lineno = head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n") + 1
        raise ParseError(path, lineno, f"not valid UTF-8 ({err.reason})") from None


def read_text(path):
    """A UTF-8 file's text with every line break turned into ``"\n"``, as text mode reads it.

    A byte sequence that does not decode raises :class:`ParseError`
    naming the line that holds it.
    """
    with open(path, "rb") as fh:
        text = _decode(path, fh.read())
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text


class _Scan(NamedTuple):
    text: str  # the file's text, every line "\n"-terminated
    buf: np.ndarray  # the UTF-8 bytes of ``text``
    ends: np.ndarray  # byte offset of the tab or newline that ends each field
    linenos: np.ndarray  # 1-based number of every non-blank line
    first: np.ndarray  # index into ``ends`` of every non-blank line's first field


def _scan(path, arity):
    """Locate every field of a UTF-8 TSV file and check each line's field count.

    A non-blank line whose field count is not in ``arity`` raises
    :class:`ParseError`, as does a byte that does not decode.
    """
    text = read_text(path)
    if text and not text.endswith("\n"):
        text += "\n"
    buf = np.frombuffer(text.encode("utf-8"), dtype=np.uint8)
    ends = np.flatnonzero((buf == ord("\t")) | (buf == ord("\n")))
    last = np.flatnonzero(buf[ends] == ord("\n"))  # each line's last field
    first = np.zeros_like(last)
    first[1:] = last[:-1] + 1
    counts = last - first + 1
    # a blank line's newline follows the previous one; for line 1, buf[-1] (a newline) stands in
    blank = buf[ends[last] - 1] == ord("\n")
    bad = ~blank & ~np.isin(counts, arity)
    if bad.any():
        i = int(np.argmax(bad))
        expected = " or ".join(str(n) for n in arity)
        raise ParseError(path, i + 1, f"expected {expected} tab-separated fields, got {counts[i]}")
    lines = np.flatnonzero(~blank)
    return _Scan(text, buf, ends, lines + 1, first[lines])


def read_tsv(path, *arity):
    """Line numbers and leading fields of every non-blank line of a UTF-8 TSV file.

    Returns ``(linenos, fields)``: ``fields`` is an ``(n, min(arity))``
    object array of the first ``min(arity)`` str fields of each line.  A
    line whose field count is not one of ``arity`` raises
    :class:`ParseError`, as does a byte that does not decode.
    """
    text, _, _, linenos, first = _scan(path, arity)
    # one entry per field in file order: entry i is the field that ends at ends[i]
    flat = np.array(text.replace("\n", "\t").split("\t"), dtype=object)
    return linenos, flat[first[:, None] + np.arange(min(arity))]


def read_int_tsv(path, columns):
    """``(n, len(columns))`` int64 array of a TSV file of non-negative integers.

    ``columns`` holds one ``(name, high)`` pair per field; the field must
    lie in ``[0, high)``.  A field is an integer when it is ASCII digits
    with an optional leading ``-``.  The first line holding a non-integer
    or out-of-range field raises :class:`ParseError`.
    """
    scan = _scan(path, (len(columns),))
    buf = scan.buf
    index = scan.first[:, None] + np.arange(len(columns))
    end = scan.ends[index]
    start = scan.ends[index - 1] + 1
    start[index == 0] = 0
    neg = buf[start] == ord("-")
    lo = start + neg
    nondigit = np.flatnonzero((buf < ord("0")) | (buf > ord("9")))
    is_int = (end > lo) & (np.searchsorted(nondigit, lo) == np.searchsorted(nondigit, end))
    # a nonzero digit more than 19 places from the end makes the value >= 10**19
    nonzero = np.flatnonzero((buf > ord("0")) & (buf <= ord("9")))
    big = np.searchsorted(nonzero, lo) < np.searchsorted(nonzero, end - 19)
    width = np.where(is_int, end - lo, 0)
    value = np.zeros(end.shape, dtype=np.uint64)  # the last 19 digits, < 2**64
    for j in range(min(int(width.max(initial=0)), 19)):
        digit = buf.take(end - 1 - j, mode="clip").astype(np.uint64) - ord("0")
        value += np.where(j < width, digit * 10**j, 0)
    high = np.array([h for _, h in columns], dtype=np.uint64)
    bad = ~is_int | big | (value >= high) | (neg & (value > 0))
    if bad.any():
        i = int(np.argmax(bad.any(axis=1)))
        lineno = int(scan.linenos[i])
        fields = buf[start[i, 0]:end[i, -1]].tobytes().decode("utf-8").split("\t")
        if not is_int[i].all():
            raise ParseError(path, lineno, f"non-integer field in {fields}")
        c = int(np.argmax(bad[i]))
        name, high_c = columns[c]
        raise ParseError(path, lineno, f"{name} {int(fields[c])} outside [0, {high_c})")
    return value.astype(np.int64)


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
    """Per-user hop bags of triples seeded by the user's train positives.

    ``hops[k]`` is an ``(n_p, 3)`` int array of (head, relation, tail)
    rows; hop-0 heads are seed entities, hop-k heads are hop-(k-1) tails.
    """

    user: int
    hops: list[np.ndarray]


class RippleTable(Mapping):
    """Every user's hop bags in one array, as :func:`build_ripple_table` draws them.

    ``bags`` is a ``(hops, num_users, n_p, 3)`` int array: ``bags[k, u]``
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


def intern_names(raw):
    """First-appearance vocabulary of the str array ``raw``: (names, name -> index, indices)."""
    unique = dict.fromkeys(raw)
    # fresh copies: a kept field string would pin the memory of the dead ones around it
    names = "\t".join(unique).split("\t") if unique else []
    vocab = {name: i for i, name in enumerate(names)}
    return names, vocab, np.fromiter(map(vocab.__getitem__, raw), dtype=np.int64, count=len(raw))


def load_kg(path, undirected=True):
    """Load a TSV triple file (``head<TAB>relation<TAB>tail``, UTF-8).

    Vocabularies assign indices in first-appearance order, duplicate
    triples are stored once (at their first line), and the CSR edge
    index gains an inverse (tail, relation, head) edge per triple when
    ``undirected`` is set (self-loops are not doubled).
    """
    _, fields = read_tsv(path, 3)
    if len(fields) == 0:
        raise ValueError(f"{path}: no triples found")
    entity_names, entity_vocab, ent = intern_names(fields[:, ::2].ravel())
    relation_names, relation_vocab, rels = intern_names(fields[:, 1])
    num_entities, num_relations = len(entity_names), len(relation_names)
    if num_entities**2 * num_relations >= 2**63:
        raise ValueError(f"{path}: {num_entities} entities and {num_relations} relations overflow int64 triple keys")

    def pack(src, rel, dst):
        return (src * num_relations + rel) * num_entities + dst

    keys = pack(ent[0::2], rels, ent[1::2])
    _, kept = np.unique(keys, return_index=True)
    kept.sort()  # each distinct triple at its first line
    h, r, t = ent[0::2][kept], rels[kept], ent[1::2][kept]
    triple_arr = np.stack((h, r, t), axis=1)
    edge_keys = keys[kept]
    if undirected:
        inv = h != t  # self-loops are not doubled
        edge_keys = np.concatenate((edge_keys, pack(t[inv], r[inv], h[inv])))
    edge_keys.sort()  # by (source, relation, neighbor)
    src, rest = np.divmod(edge_keys, num_relations * num_entities)
    rel, nbr = np.divmod(rest, num_entities)
    indptr = np.zeros(num_entities + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=num_entities), out=indptr[1:])

    kg = KnowledgeGraph(
        num_entities=num_entities,
        num_relations=num_relations,
        triples=triple_arr,
        indptr=indptr,
        rel=rel,
        nbr=nbr,
        entity_vocab=entity_vocab,
        relation_vocab=relation_vocab,
        undirected=undirected,
        entity_names=entity_names,
        relation_names=relation_names,
    )
    logger.info(
        "loaded %s: %d entities, %d relations, %d triples (%d duplicates dropped, %s)",
        path, num_entities, num_relations, len(triple_arr), len(keys) - len(triple_arr),
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
    bags = np.zeros((hops, num_users, n_p, 3), dtype=np.int64)
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

    Rows whose entity is absent from the KG vocabulary are skipped; the
    returned dict only contains resolvable items.
    """
    mapping: dict[str, int] = {}
    skipped = 0
    _, fields = read_tsv(path, 2)
    for raw_item, raw_entity in fields.tolist():
        idx = kg.entity_vocab.get(raw_entity)
        if idx is None:
            skipped += 1
            continue
        mapping[raw_item] = idx
    if skipped:
        logger.warning("%s: %d item map rows referenced unknown entities", path, skipped)
    return mapping


def vocab_bytes(names):
    """The bytes of :func:`write_vocab`'s file for ``names``."""
    return "".join(f"{raw}\t{idx}\n" for idx, raw in enumerate(names)).encode("utf-8")


def write_vocab(path, names):
    """Emit a vocabulary audit file: ``raw_id<TAB>index``, one row per index."""
    with open(path, "wb") as fh:
        fh.write(vocab_bytes(names))

