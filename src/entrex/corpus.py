"""PubTator corpus parsing, validated documents, and entity-pair candidates.

The on-disk format is line oriented: one block per document, blocks
separated by a blank line.  A block carries a ``PMID|t|`` title line, a
``PMID|a|`` abstract line, and then tab-separated annotation lines --
entity mentions with character offsets, and relations with novelty
labels.  Offsets are global: they index into ``title + " " + abstract``.

Parsing is strict: any malformed line or inconsistent annotation rejects
the whole file with a :class:`CorpusError`.  Syntax errors -- a bad
``t``/``a`` head line, an annotation PMID that does not match its block,
a wrong field count, a non-integer offset -- name the line number and
the PMID.  Every document invariant is checked when a :class:`Document`
is constructed, so an invalid document cannot exist; its errors name the
PMID plus the offending offsets or identifier pair.  Predicted relations,
which come from outside a document, pass the same relation rules in
:func:`validate_predictions`.  Neither kind may carry the reserved
``NO_RELATION_LABEL``, which marks a candidate pair without a relation.

The parser interns every annotation field it stores (``sys.intern``), so
a long corpus holds each repeated type, identifier and label once.

The records (:class:`Mention`, :class:`RelationAnnotation`,
:class:`PairCandidate`) are named tuples: immutable, with no ``__dict__``,
and built without a per-field ``object.__setattr__``, which a frozen
dataclass pays.  Building one takes 0.28-0.30 us against 0.61-0.74 us for
a frozen, slotted dataclass (``timeit``, Python 3.11.7), and a long
corpus builds tens of thousands per set-up.  Being tuples, records can be
indexed and unpacked, and a record equals a plain tuple of the same
fields, or a record of another type with equal fields; no code here
compares records of different types.  A named tuple's field read takes
about 18 ns against 8 ns for a slotted field, so the mention checks, which
read each field several times, unpack each mention once into locals.
Unpacking a tuple subclass does not take the interpreter's fast path for
exact tuples (about 45 ns for four fields), so the relation checks, which
read one or two fields of each relation, read attributes.
"""

from __future__ import annotations

import itertools
import sys
from dataclasses import dataclass
from operator import itemgetter
from typing import Collection, Container, Iterable, Mapping, NamedTuple

NULL_IDENTIFIER = "-"            # unnormalized mention, excluded from pairing and masking
NO_RELATION_LABEL = "None"       # reserved label for unannotated candidate pairs
NO_NOVELTY_LABEL = "NoneClass"   # novelty label reserved for unannotated pairs
NOVELTY_CLASSES = ("No", "Novel")
NOVELTY_LABELS = (NO_NOVELTY_LABEL, *NOVELTY_CLASSES)


class CorpusError(ValueError):
    """Malformed or inconsistent corpus data, with PMID/line context."""

    def __init__(self, message: str, pmid: str | None = None, line_no: int | None = None):
        self.pmid = pmid
        self.line_no = line_no
        where = []
        if line_no is not None:
            where.append(f"line {line_no}")
        if pmid:
            where.append(f"PMID {pmid}")
        prefix = ", ".join(where)
        super().__init__(f"{prefix}: {message}" if prefix else message)


def canonical_pair(id_a: str, id_b: str) -> tuple[str, str]:
    """Unordered identifier pair stored in lexicographic order."""
    return (id_a, id_b) if id_a <= id_b else (id_b, id_a)


class Mention(NamedTuple):
    """One entity mention: a character span plus its concept annotations.

    A named tuple (see the module docstring): ``start, end, surface,
    entity_type, identifiers = mention`` unpacks it.
    """

    start: int
    end: int
    surface: str
    entity_type: str
    identifiers: tuple[str, ...]


class RelationAnnotation(NamedTuple):
    """A typed, novelty-labeled relation between two concept identifiers.

    A named tuple (see the module docstring), unpacked as ``id_a, id_b,
    relation_type, novelty``.
    """

    id_a: str
    id_b: str
    relation_type: str
    novelty: str

    def pair_key(self) -> tuple[str, str]:
        return canonical_pair(self.id_a, self.id_b)


@dataclass(frozen=True)
class Document:
    """A parsed title+abstract document with mention and relation annotations."""

    pmid: str
    title: str
    abstract: str
    mentions: tuple[Mention, ...] = ()
    relations: tuple[RelationAnnotation, ...] = ()

    @property
    def full_text(self) -> str:
        """Title and abstract joined by a single space; offsets index into this."""
        return f"{self.title} {self.abstract}"

    def __post_init__(self):
        """Check every document invariant; raise CorpusError on the first violation.

        These include that every field is written as one field and read back
        unchanged, so ``parse_pubtator(write_pubtator(docs))`` round-trips,
        and that every mention surface holds a token.
        """
        pmid = self.pmid
        if not pmid or "|" in pmid or _breaks(pmid):
            raise CorpusError(f"invalid PMID {pmid!r}", pmid=pmid)
        if _breaks(self.title, tab=False) or _breaks(self.abstract, tab=False):
            raise CorpusError("title/abstract must be single lines", pmid=pmid)
        text = self.full_text
        length = len(text)
        boundary = len(self.title)  # index of the separator space
        prev = (-1, -1)
        for start, end, surface, _, identifiers in self.mentions:
            if not (0 <= start < end <= length):
                raise CorpusError(
                    f"mention offsets [{start},{end}) out of range for text of length {length}", pmid=pmid
                )
            if text[start:end] != surface:
                raise CorpusError(
                    f"mention surface {surface!r} does not match text {text[start:end]!r} at [{start},{end})",
                    pmid=pmid,
                )
            if start <= boundary < end:
                raise CorpusError(f"mention [{start},{end}) crosses the title/abstract boundary", pmid=pmid)
            if "\t" in surface:  # a span of the text, which holds no line break
                raise CorpusError(f"mention surface {surface!r} at [{start},{end}) holds a tab", pmid=pmid)
            if surface.isspace():  # the tokenizer aligns every mention to a token
                raise CorpusError(f"mention surface {surface!r} at [{start},{end}) holds only whitespace", pmid=pmid)
            if not identifiers or not all(identifiers):
                raise CorpusError(f"mention at [{start},{end}) has an empty identifier", pmid=pmid)
            # The parser sorts by (start, end); any other order would not read back.
            span = (start, end)
            if span < prev:
                raise CorpusError("mentions not sorted by (start, end) offsets", pmid=pmid)
            prev = span
        # Each distinct value once: documents repeat types and identifiers.
        for entity_type in {m.entity_type for m in self.mentions}:
            if _breaks(entity_type):
                raise CorpusError(f"entity type {entity_type!r} holds a tab or line break", pmid=pmid)
        known = self.mention_identifiers()
        for i in known:
            if _breaks(i) or "," in i or i != i.strip():
                raise CorpusError(f"identifier {i!r} holds a tab, line break or comma, or surrounding space", pmid=pmid)
        check_relations(pmid, self.relations, known, "relation")

    def mention_identifiers(self) -> set[str]:
        """Every identifier attached to any mention, including the null one."""
        return {i for m in self.mentions for i in m.identifiers}

    def groundable_identifiers(self) -> list[str]:
        """Distinct non-null identifiers in canonical (sorted) order."""
        return sorted(i for i in self.mention_identifiers() if i != NULL_IDENTIFIER)


class PairCandidate(NamedTuple):
    """One unordered identifier pair, labeled from gold relations when present.

    A named tuple (see the module docstring), so an unlabeled pair equals
    ``(src_id, tgt_id, NO_RELATION_LABEL, NO_NOVELTY_LABEL)``.
    """

    src_id: str
    tgt_id: str
    relation_label: str = NO_RELATION_LABEL
    novelty_label: str = NO_NOVELTY_LABEL


def _breaks(value: str, tab: bool = True) -> bool:
    """True if written ``value`` would split its line (at any break that
    ``str.splitlines`` splits on) or, with ``tab``, its field."""
    return (tab and "\t" in value) or "".join(value.splitlines()) != value


def check_relations(
    pmid: str, relations: Collection[RelationAnnotation], known: Container[str], what: str
) -> None:
    """The relation rules, for one document's relations (gold or predicted).

    No self-relation, a relation type that is not the reserved
    ``NO_RELATION_LABEL`` and holds no tab or line break, a novelty label
    in ``NOVELTY_CLASSES``, at most one relation per unordered pair, and
    every endpoint a non-null identifier in ``known`` (those with a mention).
    ``what`` names the relations in the error, e.g. ``"predicted relation"``.
    The label rules run first, once per distinct label, so with several
    faulty relations the error names a faulty label before a faulty pair.
    """
    types = {r.relation_type for r in relations}
    if NO_RELATION_LABEL in types:
        raise CorpusError(f"{what} type {NO_RELATION_LABEL!r} is reserved for unrelated pairs", pmid=pmid)
    for relation_type in sorted(types):  # sorted: the same label is named on every run
        if _breaks(relation_type):
            raise CorpusError(f"{what} type {relation_type!r} holds a tab or line break", pmid=pmid)
    for novelty in sorted({r.novelty for r in relations}):
        if novelty not in NOVELTY_CLASSES:
            raise CorpusError(f"unknown novelty label {novelty!r}", pmid=pmid)
    seen_pairs: set[tuple[str, str]] = set()
    for r in relations:
        key = canonical_pair(r.id_a, r.id_b)
        if key[0] == key[1]:
            raise CorpusError(f"self-relation on identifier {r.id_a!r}", pmid=pmid)
        if key in seen_pairs:
            raise CorpusError(f"duplicate {what}s on pair {key}", pmid=pmid)
        seen_pairs.add(key)
        for endpoint in key:
            if endpoint == NULL_IDENTIFIER:
                raise CorpusError(f"{what} endpoint is the null identifier {NULL_IDENTIFIER!r}", pmid=pmid)
            if endpoint not in known:
                raise CorpusError(f"{what} endpoint {endpoint!r} has no mention", pmid=pmid)


def _documents_by_pmid(docs: Iterable[Document]) -> dict[str, Document]:
    """The documents keyed by PMID; a repeated PMID raises, as the parser does."""
    by_pmid: dict[str, Document] = {}
    for doc in docs:
        if doc.pmid in by_pmid:
            raise CorpusError("duplicate document", doc.pmid)
        by_pmid[doc.pmid] = doc
    return by_pmid


def validate_predictions(
    docs: Iterable[Document], predicted: Mapping[str, Collection[RelationAnnotation]]
) -> None:
    """Check predicted relations against the documents they annotate.

    No two ``docs`` share a PMID, every PMID in ``predicted`` names one of
    them, and each document's predictions pass :func:`check_relations`,
    the rules a :class:`Document` applies to its own relations.
    """
    by_pmid = _documents_by_pmid(docs)
    for pmid, relations in predicted.items():
        doc = by_pmid.get(pmid)
        if doc is None:
            raise CorpusError("prediction for unknown document", pmid=pmid)
        check_relations(pmid, relations, doc.mention_identifiers(), "predicted relation")


def _parse_int_offset(field: str, what: str, pmid: str, line_no: int) -> int:
    if not (field.isascii() and field.isdigit()):
        raise CorpusError(f"{what} {field!r} is not a non-negative integer", pmid, line_no)
    return int(field)


def _parse_block(lines: list[str], first: int, stop: int) -> Document:
    """Build one document from ``lines[first:stop]``: syntax checks only; the
    :class:`Document` checks the invariants.  ``lines[i]`` is line ``i + 1``."""
    head = lines[first].split("|", 2)
    if len(head) != 3 or head[1] != "t":
        raise CorpusError("expected 'PMID|t|title' line", line_no=first + 1)
    pmid, _, title = head
    if stop - first < 2:
        raise CorpusError("block has no abstract line", pmid, first + 1)
    head = lines[first + 1].split("|", 2)
    if len(head) != 3 or head[1] != "a":
        raise CorpusError("expected 'PMID|a|abstract' line", pmid, first + 2)
    if head[0] != pmid:
        raise CorpusError(f"abstract PMID {head[0]!r} does not match title", pmid, first + 2)
    abstract = head[2]

    intern = sys.intern
    mentions: list[Mention] = []
    relations: list[RelationAnnotation] = []
    for i in range(first + 2, stop):
        fields = lines[i].split("\t")
        if fields[0] != pmid:
            raise CorpusError(f"annotation PMID {fields[0]!r} does not match block", pmid, i + 1)
        if len(fields) == 6:
            start = _parse_int_offset(fields[1], "start offset", pmid, i + 1)
            end = _parse_int_offset(fields[2], "end offset", pmid, i + 1)
            identifiers = tuple(map(intern, map(str.strip, fields[5].split(","))))
            mentions.append(Mention(start, end, intern(fields[3]), intern(fields[4]), identifiers))
        elif len(fields) == 5:
            _, relation_type, id_a, id_b, novelty = fields
            relations.append(RelationAnnotation(intern(id_a), intern(id_b), intern(relation_type), intern(novelty)))
        else:
            raise CorpusError(
                f"annotation line has {len(fields)} fields (expected 6 for an entity, 5 for a relation)",
                pmid, i + 1,
            )

    mentions.sort(key=itemgetter(0, 1))  # (start, end); equal spans keep their line order
    return Document(pmid, title, abstract, tuple(mentions), tuple(relations))


def parse_pubtator(text: str) -> list[Document]:
    """Parse blank-line-separated PubTator blocks into validated documents."""
    docs: list[Document] = []
    seen_pmids: set[str] = set()
    lines = text.splitlines()
    lines.append("")  # ends the last block
    first = 0  # index of the current block's first line
    for stop, line in enumerate(lines):
        if line:
            continue
        if first < stop:
            doc = _parse_block(lines, first, stop)
            if doc.pmid in seen_pmids:
                raise CorpusError("duplicate document", doc.pmid, first + 1)
            seen_pmids.add(doc.pmid)
            docs.append(doc)
        first = stop + 1
    return docs


def candidate_pairs(doc: Document) -> list[PairCandidate]:
    """Enumerate all unordered pairs of distinct groundable identifiers.

    Pairs matching a gold relation carry its relation and novelty labels;
    all others are labeled ``None``/``NoneClass``.  Order is deterministic:
    lexicographic over canonical pairs.
    """
    identifiers = doc.groundable_identifiers()
    annotated = {r.pair_key(): r for r in doc.relations}
    out: list[PairCandidate] = []
    for src_id, tgt_id in itertools.combinations(identifiers, 2):
        rel = annotated.get((src_id, tgt_id))
        if rel is None:
            out.append(PairCandidate(src_id, tgt_id))
        else:
            out.append(PairCandidate(src_id, tgt_id, rel.relation_type, rel.novelty))
    return out


def write_pubtator(
    docs: Iterable[Document],
    predicted: Mapping[str, Collection[RelationAnnotation]] | None = None,
) -> str:
    """Serialize documents back to PubTator text.

    With ``predicted=None`` the documents' own relations are written, so
    ``parse_pubtator(write_pubtator(docs))`` round-trips: every
    :class:`Document` was checked when it was constructed.  Otherwise the
    gold relation lines are replaced by ``predicted[pmid]`` (documents
    absent from the map get no relation lines), after
    :func:`validate_predictions` has checked them, so the text written
    always parses back.  In both modes a repeated PMID raises.
    """
    docs = list(docs)
    if predicted is None:
        predicted = {pmid: doc.relations for pmid, doc in _documents_by_pmid(docs).items()}
    else:
        validate_predictions(docs, predicted)
    blocks: list[str] = []
    for doc in docs:
        lines = [f"{doc.pmid}|t|{doc.title}", f"{doc.pmid}|a|{doc.abstract}"]
        for m in doc.mentions:
            lines.append(
                f"{doc.pmid}\t{m.start}\t{m.end}\t{m.surface}\t{m.entity_type}\t"
                + ",".join(m.identifiers)
            )
        for r in predicted.get(doc.pmid, ()):
            lines.append(f"{doc.pmid}\t{r.relation_type}\t{r.id_a}\t{r.id_b}\t{r.novelty}")
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + "\n"
