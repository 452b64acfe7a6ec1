"""Knowledge-graph loading, its one edge layout, and all fixed-size stochastic sampling.

Every TSV input goes through one byte-level scanner: the file's bytes
are read once and only checked as UTF-8, never kept as text (the CLI's
``key = value`` files are read the same way, by :func:`read_text`),
line breaks follow text mode (``\n``, ``\r\n`` and a lone ``\r``; a
blank line is skipped but counted), and numpy finds the tabs and line
breaks and checks every line's field count from them.  The scanner
returns the byte bounds of the fields its caller reads: views of one
reshape when every line has one field count, else gathered per line.
Every name (KG names, the item map, a rating log's users, items and
ratings) goes through one interner, :func:`_intern`, over the scanner's
one padded buffer: it sorts each field as padded 8-byte words and
decodes only the distinct fields.  The integers of the run's files are
not interned: :func:`read_int_tsv` reads each field's digits straight
from the buffer, and :func:`write_int_tsv`, its inverse, formats them
with numpy digit arithmetic, both a block of rows at a time, so
neither makes a Python str per field; the vocabulary audit files
(:func:`vocab_bytes`) are still formatted one str per row.  Triples are
indexed through those first-appearance vocabularies, held as name lists,
deduplicated by one sort of packed (head, relation, tail) keys, and kept
only as one compressed sparse row (CSR) layout built from one sort of
packed (source, relation, neighbor) keys:
entity ``e``'s outgoing (relation, neighbor) edges are
``rel[indptr[e]:indptr[e + 1]]`` and ``nbr[indptr[e]:indptr[e + 1]]``.
The CSR arrays, and the two tables sampled from them, hold int32 indices,
built in int32 rather than cast from int64; a graph whose edge or
entity count reaches :data:`INDEX_LIMIT` keeps int64.  The integers
:func:`read_int_tsv` reads (a run's splits and item -> entity map)
take :func:`index_dtype` of their columns' bounds the same way, and
the item map is resolved without a name -> index dict of the graph.
Relation ids (the CSR's and the neighbor table's ``rel``) take
:func:`relation_dtype`, int8 up to 128 relations; the scanner's field
bounds, and the interner's arrays per field, are int32 for a file
below 2 GiB.
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
from dataclasses import dataclass
from itertools import repeat
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


# Rows per block of write_int_tsv and read_int_tsv: their temporaries grow with the block, not the file.
INT_BLOCK = 1 << 13
# _DIGITS4[v]: the four ASCII digits of 0 <= v < 10**4, zero-padded, as one native-endian word;
# _WIDTH4[v]: how many of them are left without leading zeros (none for 0).  Row v of the uint8
# grid of indices is v's digits, so neither table does any arithmetic on v.
_DIGITS4 = np.indices((10,) * 4, dtype=np.uint8).reshape(4, -1).T
_WIDTH4 = np.logical_or.accumulate(_DIGITS4 != 0, axis=1).sum(axis=1, dtype=np.uint8)
_DIGITS4 = np.ascontiguousarray(_DIGITS4 + ord("0")).view(np.uint32).ravel()
# the word that follows a field's digits: its separator, then three bytes that are never kept
_TAB, _NEWLINE = np.frombuffer(b"\t\0\0\0\n\0\0\0", dtype=np.uint32)


def _format_block(rows):
    """The bytes of ``"{}\t{}\n".format`` over every row of the non-negative int64 array ``rows`` (b, k).

    Each field is written zero-padded to whole 4-digit words from
    :data:`_DIGITS4`, then one word led by its separator, and only its
    digits without leading zeros (``0`` for 0) and its separator are kept.
    """
    words = -(-len(str(int(rows.max()))) // 4)
    parts = []  # each field's 4-digit words, most significant first
    rest = rows
    for _ in range(words - 1):
        rest, low = np.divmod(rest, 10**4)
        parts.insert(0, low)
    parts.insert(0, rest)
    text = np.empty(rows.shape + (words + 1,), dtype=np.uint32)
    text[..., -1] = _TAB
    text[:, -1, -1] = _NEWLINE
    for j, part in enumerate(parts):
        text[..., j] = _DIGITS4[part]
        # each field's digits from its leading nonzero word on
        width = np.where(width > 0, width + 4, _WIDTH4[part]) if j else _WIDTH4[part]
    column = np.arange(4 * words + 4)
    # keep[w]: the bytes kept of a field of w digits, as one item the size of its words
    keep = (column >= 4 * words - np.arange(4 * words + 1)[:, None]) & (column <= 4 * words)
    keep = keep.view(f"V{len(column)}").ravel()[np.maximum(width, 1)]
    return np.compress(keep.view(bool).ravel(), text.view(np.uint8).ravel()).tobytes()


def write_int_tsv(path, rows):
    """Write the ``(n, k)`` array of non-negative integers ``rows`` as TSV, the inverse of :func:`read_int_tsv`.

    The bytes are those of ``"{}\t{}\t{}\n".format`` over every row (k
    fields each).  Rows are formatted :data:`INT_BLOCK` at a time with
    numpy digit arithmetic.  A negative value raises ``ValueError`` naming
    its row before the file is opened.
    """
    rows = np.asarray(rows)
    if rows.ndim != 2 or rows.dtype.kind not in "iu":
        raise ValueError(f"{path}: expected a 2-D integer array, got {rows.ndim}-D {rows.dtype}")
    rows = rows.astype(np.int64, copy=False)
    if rows.size and rows.min() < 0:
        i = int(np.argmax((rows < 0).any(axis=1)))
        raise ValueError(f"{path}: row {i} holds a negative value: {rows[i].tolist()}")
    with open(path, "wb") as fh:
        for lo in range(0, len(rows), INT_BLOCK):
            fh.write(_format_block(rows[lo:lo + INT_BLOCK]))


def _parse_block(buf, start, end, high):
    """(values, non-integer, out of range) of the fields ``buf[start:end]``, each ``(k, b)`` for bounds ``(b, k)``.

    A field is an integer when it is ASCII digits after an optional
    ``-``.  Its value is read from its last 19 digits at most, one digit
    plane at a time (every field's last digit, then the one before it);
    19 digits always fit uint64.  Digits before those (leading zeros, or
    a value past int64) are only checked: any but ``0`` puts the field
    out of range.  ``-0`` is 0; any other negative is out of range, as is
    a value at or above its column's ``high`` (k, 1).
    """
    start, end = (np.array(bound.T, dtype=np.intp, order="C") for bound in (start, end))  # (k, b): a row per column
    minus = buf[start] == ord("-")
    first = start + minus
    width = end - first  # digits, or a field of no digits when 0
    window = min(int(width.max()), 19) if width.size else 0
    plane = np.arange(window)[:, None, None]
    digit = buf[end + (plane - window)]  # a position before the file wraps around: it is before the field too
    digit -= ord("0")
    keep = plane >= window - width  # the field's own digits
    nondigit = np.logical_or.reduce((digit > 9) & keep, axis=0)
    digit *= keep
    value = np.zeros(width.shape, dtype=np.uint32 if window <= 9 else np.uint64)  # 9 digits fit uint32
    for j in range(window):
        value *= 10
        value += digit[j]
    big = np.zeros(width.shape, dtype=bool)
    wide = np.flatnonzero(width > window)  # rare: each field's digits before its last 19
    if len(wide):
        lo, hi = first.ravel()[wide], end.ravel()[wide] - window
        base = int(lo.min())
        span = buf[base:int(hi.max())]
        for counted, flags in ((big, span != ord("0")), (nondigit, span - ord("0") > 9)):
            count = np.concatenate(([0], np.cumsum(flags)))
            counted.ravel()[wide] |= count[hi - base] > count[lo - base]
    nonint = nondigit | (width == 0)
    outside = big | minus & (value != 0) | (value >= high)
    return value, nonint, outside


def read_int_tsv(path, columns):
    """``(n, len(columns))`` integer array of a TSV file of non-negative integers.

    ``columns`` holds one ``(name, high)`` pair per field; the field must
    lie in ``[0, high)``.  The array's dtype is :func:`index_dtype` of the
    highs: int32 while every high is below :data:`INDEX_LIMIT`, else
    int64.  A field is an integer when it is ASCII digits
    after an optional ``-`` (leading zeros, ``-0`` and any number of
    digits included).  Each field's digits are read straight from
    :func:`_scan`'s buffer and bounds, :data:`INT_BLOCK` rows at a time,
    with no str per field.  The first line holding a non-integer or
    out-of-range field raises :class:`ParseError`, its message built from
    that line's decoded fields.
    """
    scan = _scan(path, (len(columns),))
    high = np.array([[high] for _, high in columns], dtype=np.uint64)
    values = np.empty(scan.start.shape, dtype=index_dtype(*(limit for _, limit in columns)))
    for lo in range(0, len(values), INT_BLOCK):
        rows = slice(lo, lo + INT_BLOCK)
        value, nonint, outside = _parse_block(scan.buf, scan.start[rows], scan.end[rows], high)
        values[rows].T[...] = value
        bad = np.logical_or.reduce(nonint | outside, axis=0)
        if bad.any():
            i = lo + int(np.argmax(bad))
            fields = [scan.buf[a:b].tobytes().decode("utf-8") for a, b in zip(scan.start[i].tolist(),
                                                                               scan.end[i].tolist())]
            if nonint[:, i - lo].any():
                raise ParseError(path, int(scan.linenos[i]), f"non-integer field in {fields}")
            c = int(np.argmax(outside[:, i - lo]))
            name, limit = columns[c]
            digits = fields[c].removeprefix("-").lstrip("0") or "0"
            sign = "-" if fields[c].startswith("-") and digits != "0" else ""
            raise ParseError(path, int(scan.linenos[i]), f"{name} {sign}{digits} outside [0, {limit})")
    return values


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
    """One user's hop bags as :meth:`RippleTable.values` yields them.

    ``hops[k]`` is an ``(n_p, 3)`` int array of (head, relation, tail)
    rows; hop-0 heads are seed entities, hop-k heads are hop-(k-1) tails.
    """

    user: int
    hops: list[np.ndarray]


class RippleTable:
    """Every user's hop bags in one array, as :func:`build_ripple_table` draws them.

    ``bags`` is a ``(hops, num_users, n_p, 3)`` array of the graph's index
    dtype (int32 below :data:`INDEX_LIMIT`, see :class:`KnowledgeGraph`): ``bags[k, u]``
    is user ``u``'s hop-k bag (zero hops under ``user_table``).  ``has``
    masks the users :meth:`known` accepts; the other rows are zero.  Both
    arrays are read-only; a snapshot's manifest checksums their bytes.
    :meth:`known` is the one membership test, and :meth:`take` (or
    ``bags[:, u]``) the one read of a user's bags.
    """

    def __init__(self, bags, has):
        bags.flags.writeable = False
        has.flags.writeable = False
        self.bags = bags
        self.has = has

    # __len__ and values() are the two reads perfbench's ripple counter makes (perfbench/trace.py,
    # _count_ripple_sets); they go, with RippleSet, once that counter reads bags and has.
    def __len__(self):
        """The number of users with bags: ``has.sum()``."""
        return int(self.has.sum())

    def values(self):
        """One :class:`RippleSet` per user of ``has``, users ascending, hops as views of ``bags``."""
        return (RippleSet(user=user, hops=list(self.bags[:, user])) for user in np.flatnonzero(self.has).tolist())

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
    naming the later line.  Entities are resolved in one pass over
    ``kg.entity_names`` against a dict of the map's own distinct entity
    names (at most one per item), so no name -> index dict of the whole
    graph is built.
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
    wanted = dict(zip(entity_names, range(len(entity_names))))
    found = np.fromiter(map(wanted.get, kg.entity_names, repeat(-1)), dtype=index_dtype(len(entity_names)),
                        count=kg.num_entities)
    hit = np.flatnonzero(found >= 0)
    lookup = np.full(len(entity_names), -1, dtype=np.int64)
    lookup[found[hit]] = hit
    lookup = lookup[item_entity]
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

