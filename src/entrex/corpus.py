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
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Collection, Container, Iterable, Mapping, TextIO

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


@dataclass(frozen=True)
class Mention:
    """One entity mention: a character span plus its concept annotations."""

    start: int
    end: int
    surface: str
    entity_type: str
    identifiers: tuple[str, ...]


@dataclass(frozen=True)
class RelationAnnotation:
    """A typed, novelty-labeled relation between two concept identifiers."""

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
        boundary = len(self.title)  # index of the separator space
        prev = (-1, -1)
        for m in self.mentions:
            if not (0 <= m.start < m.end <= len(text)):
                raise CorpusError(
                    f"mention offsets [{m.start},{m.end}) out of range for text of length {len(text)}",
                    pmid=pmid,
                )
            if text[m.start:m.end] != m.surface:
                raise CorpusError(
                    f"mention surface {m.surface!r} does not match text "
                    f"{text[m.start:m.end]!r} at [{m.start},{m.end})",
                    pmid=pmid,
                )
            if m.start <= boundary < m.end:
                raise CorpusError(
                    f"mention [{m.start},{m.end}) crosses the title/abstract boundary",
                    pmid=pmid,
                )
            if "\t" in m.surface:  # a span of the text, which holds no line break
                raise CorpusError(f"mention surface {m.surface!r} at [{m.start},{m.end}) holds a tab", pmid=pmid)
            if m.surface.isspace():  # the tokenizer aligns every mention to a token
                raise CorpusError(
                    f"mention surface {m.surface!r} at [{m.start},{m.end}) holds only whitespace", pmid=pmid
                )
            if not m.identifiers or any(not i for i in m.identifiers):
                raise CorpusError(f"mention at [{m.start},{m.end}) has an empty identifier", pmid=pmid)
            # The parser sorts by (start, end); any other order would not read back.
            if (m.start, m.end) < prev:
                raise CorpusError("mentions not sorted by (start, end) offsets", pmid=pmid)
            prev = (m.start, m.end)
        # Each distinct value once: documents repeat types and identifiers.
        for entity_type in {m.entity_type for m in self.mentions}:
            if _breaks(entity_type):
                raise CorpusError(f"entity type {entity_type!r} holds a tab or line break", pmid=pmid)
        identifiers = self.mention_identifiers()
        for i in identifiers:
            if _breaks(i) or "," in i or i != i.strip():
                raise CorpusError(f"identifier {i!r} holds a tab, line break or comma, or surrounding space", pmid=pmid)
        check_relations(pmid, self.relations, identifiers, "relation")

    def mention_identifiers(self) -> set[str]:
        """Every identifier attached to any mention, including the null one."""
        return {i for m in self.mentions for i in m.identifiers}

    def groundable_identifiers(self) -> list[str]:
        """Distinct non-null identifiers in canonical (sorted) order."""
        return sorted(i for i in self.mention_identifiers() if i != NULL_IDENTIFIER)


@dataclass(frozen=True)
class PairCandidate:
    """One unordered identifier pair, labeled from gold relations when present."""

    src_id: str
    tgt_id: str
    relation_label: str = NO_RELATION_LABEL
    novelty_label: str = NO_NOVELTY_LABEL


def _breaks(value: str, tab: bool = True) -> bool:
    """True if written ``value`` would split its line (at any break that
    ``str.splitlines`` splits on) or, with ``tab``, its field."""
    return (tab and "\t" in value) or "".join(value.splitlines()) != value


def check_relations(
    pmid: str, relations: Iterable[RelationAnnotation], known: Container[str], what: str
) -> None:
    """The relation rules, for one document's relations (gold or predicted).

    No self-relation, a relation type that is not the reserved
    ``NO_RELATION_LABEL`` and holds no tab or line break, a novelty label
    in ``NOVELTY_CLASSES``, at most one relation per unordered pair, and
    every endpoint in ``known`` (the identifiers that have a mention).
    ``what`` names the relations in the error, e.g. ``"predicted relation"``.
    """
    seen_pairs: set[tuple[str, str]] = set()
    for r in relations:
        if r.relation_type == NO_RELATION_LABEL:
            raise CorpusError(f"{what} type {NO_RELATION_LABEL!r} is reserved for unrelated pairs", pmid=pmid)
        if _breaks(r.relation_type):
            raise CorpusError(f"{what} type {r.relation_type!r} holds a tab or line break", pmid=pmid)
        if r.id_a == r.id_b:
            raise CorpusError(f"self-relation on identifier {r.id_a!r}", pmid=pmid)
        if r.novelty not in NOVELTY_CLASSES:
            raise CorpusError(f"unknown novelty label {r.novelty!r}", pmid=pmid)
        key = r.pair_key()
        if key in seen_pairs:
            raise CorpusError(f"duplicate {what}s on pair {key}", pmid=pmid)
        seen_pairs.add(key)
        for endpoint in key:
            if endpoint not in known:
                raise CorpusError(f"{what} endpoint {endpoint!r} has no mention", pmid=pmid)


def validate_predictions(
    docs: Iterable[Document], predicted: Mapping[str, Collection[RelationAnnotation]]
) -> None:
    """Check predicted relations against the documents they annotate.

    Every PMID in ``predicted`` must name one of ``docs``, and each
    document's predictions must pass :func:`check_relations`, the rules
    a :class:`Document` applies to its own relations.
    """
    by_pmid = {d.pmid: d for d in docs}
    for pmid, relations in predicted.items():
        doc = by_pmid.get(pmid)
        if doc is None:
            raise CorpusError("prediction for unknown document", pmid=pmid)
        check_relations(pmid, relations, doc.mention_identifiers(), "predicted relation")


def _parse_int_offset(field: str, what: str, pmid: str, line_no: int) -> int:
    if not field.isdigit():
        raise CorpusError(f"{what} {field!r} is not a non-negative integer", pmid, line_no)
    return int(field)


def _parse_block(numbered: list[tuple[int, str]]) -> Document:
    """Build one document from its numbered lines: syntax checks only; the
    :class:`Document` checks the invariants."""
    line_no, first = numbered[0]
    head = first.split("|", 2)
    if len(head) != 3 or head[1] != "t":
        raise CorpusError("expected 'PMID|t|title' line", line_no=line_no)
    pmid, _, title = head
    if len(numbered) < 2:
        raise CorpusError("block has no abstract line", pmid, line_no)
    line_no_a, second = numbered[1]
    head = second.split("|", 2)
    if len(head) != 3 or head[1] != "a":
        raise CorpusError("expected 'PMID|a|abstract' line", pmid, line_no_a)
    if head[0] != pmid:
        raise CorpusError(f"abstract PMID {head[0]!r} does not match title", pmid, line_no_a)
    abstract = head[2]

    mentions: list[Mention] = []
    relations: list[RelationAnnotation] = []
    for line_no, line in numbered[2:]:
        fields = line.split("\t")
        if fields[0] != pmid:
            raise CorpusError(f"annotation PMID {fields[0]!r} does not match block", pmid, line_no)
        if len(fields) == 6:
            start = _parse_int_offset(fields[1], "start offset", pmid, line_no)
            end = _parse_int_offset(fields[2], "end offset", pmid, line_no)
            surface, entity_type, id_field = fields[3], fields[4], fields[5]
            identifiers = tuple(i.strip() for i in id_field.split(","))
            mentions.append(Mention(start, end, surface, entity_type, identifiers))
        elif len(fields) == 5:
            _, relation_type, id_a, id_b, novelty = fields
            relations.append(RelationAnnotation(id_a, id_b, relation_type, novelty))
        else:
            raise CorpusError(
                f"annotation line has {len(fields)} fields (expected 6 for an entity, 5 for a relation)",
                pmid, line_no,
            )

    mentions.sort(key=lambda m: (m.start, m.end))
    return Document(pmid, title, abstract, tuple(mentions), tuple(relations))


def parse_pubtator(stream: str | TextIO) -> list[Document]:
    """Parse blank-line-separated PubTator blocks into validated documents."""
    text = stream if isinstance(stream, str) else stream.read()
    docs: list[Document] = []
    seen_pmids: set[str] = set()
    block: list[tuple[int, str]] = []
    lines = text.splitlines()
    for line_no, raw in enumerate(lines + [""], start=1):
        line = raw.rstrip("\r")
        if line:
            block.append((line_no, line))
            continue
        if block:
            doc = _parse_block(block)
            if doc.pmid in seen_pmids:
                raise CorpusError("duplicate document", doc.pmid, block[0][0])
            seen_pmids.add(doc.pmid)
            docs.append(doc)
            block = []
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
    always parses back.
    """
    docs = list(docs)
    if predicted is None:
        predicted = {doc.pmid: doc.relations for doc in docs}
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
