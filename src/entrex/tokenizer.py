"""Corpus vocabulary, offset-faithful word tokenization, and pair tagging.

Tokenization is word level: lower-cased runs of word characters plus
single punctuation characters, with extra token boundaries forced at
every mention start and end so mentions always align to whole tokens.

Every encoder input (a tagged pair here, a masked document in ``masking``)
is framed by :func:`frame`: CLS + the first ``max_len - 2`` body tokens +
SEP, so body token ``i`` sits at framed offset ``i + 1``.
"""

from __future__ import annotations

import hashlib
import json
import logging
import re
from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import ClassVar, Iterable, Sequence

from .corpus import NO_RELATION_LABEL, NOVELTY_LABELS, Document, Mention

SPECIAL_TOKENS = ("[CLS]", "[SEP]", "[PAD]", "[UNK]", "[MASK]")
CLS_ID, SEP_ID, PAD_ID, UNK_ID, MASK_ID = range(5)
MAX_LEN = 512  # default encoder input length, CLS and SEP included

VOCAB_FORMAT_VERSION = 1

_TOKEN_RE = re.compile(r"\w+|[^\w\s]")

log = logging.getLogger(__name__)


def _tag_token(role: str, entity_type: str, close: bool) -> str:
    return f"[{'/' if close else ''}{role}={entity_type}]"


def tag_tokens_for_types(type_labels: Iterable[str]) -> list[str]:
    """Open/close SRC and TGT tag tokens, one quadruple per entity type."""
    out = []
    for t in type_labels:
        for role in ("SRC", "TGT"):
            out.append(_tag_token(role, t, close=False))
            out.append(_tag_token(role, t, close=True))
    return out


@dataclass(frozen=True)
class Vocabulary:
    """Token ids plus the label spaces for identifiers, types, relations, novelty.

    The novelty space, ``corpus.NOVELTY_LABELS``, is the same for every
    corpus: a class attribute, written to JSON and checked on reading.
    """

    tokens: tuple[str, ...]
    identifier_labels: tuple[str, ...]
    type_labels: tuple[str, ...]
    relation_labels: tuple[str, ...]
    novelty_labels: ClassVar[tuple[str, ...]] = NOVELTY_LABELS

    def __post_init__(self):
        if tuple(self.tokens[:5]) != SPECIAL_TOKENS:
            raise ValueError("special tokens must occupy ids 0..4")
        for space, labels in {"token": self.tokens, **self._label_spaces()}.items():
            dup = next((label for label, k in Counter(labels).items() if k > 1), None)
            if dup is not None:
                raise ValueError(f"duplicate {space} {dup!r} in vocabulary")
        if not self.relation_labels or self.relation_labels[0] != NO_RELATION_LABEL:
            raise ValueError(f"relation label {NO_RELATION_LABEL!r} must sit at index 0")

    @cached_property
    def token_to_id(self) -> dict[str, int]:
        return {t: i for i, t in enumerate(self.tokens)}

    def _label_spaces(self) -> dict[str, tuple[str, ...]]:
        return {
            "identifier": self.identifier_labels,
            "entity type": self.type_labels,
            "relation label": self.relation_labels,
            "novelty label": self.novelty_labels,
        }

    @cached_property
    def _label_to_index(self) -> dict[str, dict[str, int]]:
        return {
            space: {t: i for i, t in enumerate(labels)}
            for space, labels in self._label_spaces().items()
        }

    def _index(self, space: str, label: str) -> int:
        try:
            return self._label_to_index[space][label]
        except KeyError:
            raise KeyError(f"{space} {label!r} not in vocabulary") from None

    def __len__(self) -> int:
        return len(self.tokens)

    def token_id(self, token: str) -> int:
        return self.token_to_id.get(token, UNK_ID)

    def identifier_index(self, identifier: str) -> int:
        return self._index("identifier", identifier)

    def type_index(self, entity_type: str) -> int:
        return self._index("entity type", entity_type)

    def relation_index(self, label: str) -> int:
        return self._index("relation label", label)

    def novelty_index(self, label: str) -> int:
        return self._index("novelty label", label)

    def tag_id(self, role: str, entity_type: str, close: bool = False) -> int:
        token = _tag_token(role, entity_type, close)
        tag = self.token_to_id.get(token)
        if tag is None:
            raise KeyError(f"tag token {token!r} not in vocabulary")
        return tag

    def tag_ids(self) -> set[int]:
        return {self.token_to_id[t] for t in tag_tokens_for_types(self.type_labels)}

    def to_json_dict(self) -> dict:
        return {
            "version": VOCAB_FORMAT_VERSION,
            "special_tokens": {t: i for i, t in enumerate(SPECIAL_TOKENS)},
            "tokens": list(self.tokens),
            "identifier_labels": list(self.identifier_labels),
            "type_labels": list(self.type_labels),
            "relation_labels": list(self.relation_labels),
            "novelty_labels": list(self.novelty_labels),
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "Vocabulary":
        version = data.get("version")
        if version != VOCAB_FORMAT_VERSION:
            raise ValueError(f"unsupported vocabulary format version {version!r}")
        if tuple(data["novelty_labels"]) != NOVELTY_LABELS:
            raise ValueError(f"novelty labels must be {NOVELTY_LABELS}")
        return cls(
            tokens=tuple(data["tokens"]),
            identifier_labels=tuple(data["identifier_labels"]),
            type_labels=tuple(data["type_labels"]),
            relation_labels=tuple(data["relation_labels"]),
        )

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, separators=(",", ":"))

    def digest(self) -> str:
        return hashlib.sha256(self.to_json().encode("utf-8")).hexdigest()


def save_vocab(vocab: Vocabulary, path: str | Path) -> None:
    Path(path).write_text(vocab.to_json() + "\n", encoding="utf-8")


def load_vocab(path: str | Path) -> Vocabulary:
    return Vocabulary.from_json_dict(json.loads(Path(path).read_text(encoding="utf-8")))


def split_tokens(text: str, mentions: Sequence[Mention]) -> list[tuple[int, int, str]]:
    """Lower-cased (start, end, token) triples with mention-boundary cuts.

    One scan of the whole text.  A cut can fall strictly inside a token
    only when the token is a run of word characters (any other token is one
    character long); such a run is emitted as its pieces between cuts, each
    lower-cased on its own, as a scan of each segment between cuts gives them.
    """
    # len(text) stops the walk: no token starts at it or ends after it.
    cuts = sorted({m.start for m in mentions} | {m.end for m in mentions} | {len(text)})
    out: list[tuple[int, int, str]] = []
    k = 0
    for match in _TOKEN_RE.finditer(text):
        start, end = match.span()
        while cuts[k] <= start:
            k += 1
        while cuts[k] < end:
            out.append((start, cuts[k], text[start:cuts[k]].lower()))
            start = cuts[k]
            k += 1
        out.append((start, end, text[start:end].lower()))
    return out


@dataclass(frozen=True)
class TokenizedDocument:
    """Token ids and per-mention token ranges."""

    token_ids: tuple[int, ...]
    mention_token_ranges: tuple[tuple[int, int], ...]  # aligned with the document's mentions


def tokenize_document(doc: Document, vocab: Vocabulary) -> TokenizedDocument:
    """Tokenize the document's text and align every mention to a contiguous,
    non-empty token range.  The range is never empty: every mention surface
    holds a non-whitespace character (a :class:`Document` invariant), and
    the cuts at mention boundaries keep its token inside the mention."""
    triples = split_tokens(doc.full_text, doc.mentions)
    token_ids = tuple(vocab.token_id(t) for _, _, t in triples)
    # Token spans are sorted and disjoint, so the tokens starting at or after
    # a mention's start are a suffix, those ending by its end a prefix, and
    # the tokens inside the mention are their (contiguous) overlap.
    starts = [s for s, _, _ in triples]
    ends = [e for _, e, _ in triples]
    ranges = tuple((bisect_left(starts, m.start), bisect_right(ends, m.end)) for m in doc.mentions)
    return TokenizedDocument(token_ids, ranges)


def build_vocab(corpus: Sequence[Document]) -> Vocabulary:
    """Build the vocabulary and label spaces from a parsed corpus.

    Every word of the corpus is kept, so none of them maps to UNK; ids
    follow descending frequency then lexicographic order, after the special
    and tag tokens.  Rebuilding from the same corpus is byte-identical.
    """
    if not corpus:
        raise ValueError("cannot build a vocabulary from an empty corpus")
    counts: Counter[str] = Counter()
    identifiers: set[str] = set()
    types: set[str] = set()
    relations: set[str] = set()
    for doc in corpus:
        counts.update(t for _, _, t in split_tokens(doc.full_text, doc.mentions))
        types.update(m.entity_type for m in doc.mentions)
        identifiers.update(doc.groundable_identifiers())
        relations.update(r.relation_type for r in doc.relations)
    type_labels = tuple(sorted(types))
    words = sorted(counts, key=lambda t: (-counts[t], t))
    tokens = tuple(SPECIAL_TOKENS) + tuple(tag_tokens_for_types(type_labels)) + tuple(words)
    return Vocabulary(
        tokens=tokens,
        identifier_labels=tuple(sorted(identifiers)),
        type_labels=type_labels,
        relation_labels=(NO_RELATION_LABEL,) + tuple(sorted(relations)),
    )


def frame(body: Sequence[int], max_len: int) -> tuple[int, ...]:
    """CLS + body + SEP, keeping only the first ``max_len - 2`` body tokens."""
    if max_len < 2:
        raise ValueError(f"max_len must be >= 2 to hold CLS and SEP, got {max_len}")
    return (CLS_ID, *body[: max_len - 2], SEP_ID)


def insert_pair_tags(
    tok: TokenizedDocument,
    doc: Document,
    src_id: str,
    tgt_id: str,
    vocab: Vocabulary,
    max_len: int = MAX_LEN,
) -> tuple[int, ...]:
    """The framed tokens with SRC/TGT tags around every mention of the pair.

    A mention carrying both identifiers gets nested tags, SRC outside
    TGT.  Tags that the frame cuts off are counted in a ``pair-tags
    truncate`` warning.
    """
    if src_id == tgt_id:
        raise ValueError(f"PMID {doc.pmid}: a pair needs two identifiers, got {src_id!r} twice")
    pair_roles = (("SRC", src_id), ("TGT", tgt_id))
    tagged: set[str] = set()  # roles tagged on at least one mention
    opens: dict[int, list[int]] = {}
    closes: dict[int, list[int]] = {}
    for m, (lo, hi) in zip(doc.mentions, tok.mention_token_ranges):
        roles = [role for role, ident in pair_roles if ident in m.identifiers]
        if not roles:
            continue
        tagged.update(roles)
        opens.setdefault(lo, []).extend(vocab.tag_id(r, m.entity_type, close=False) for r in roles)
        closes.setdefault(hi, []).extend(vocab.tag_id(r, m.entity_type, close=True) for r in reversed(roles))
    for role, ident in pair_roles:
        if role not in tagged:
            raise ValueError(f"identifier {ident!r} not present in document {doc.pmid}")
    body: list[int] = []
    start = 0  # tags at position j go before token j, closing tags first
    for j in sorted(opens.keys() | closes.keys()):
        body.extend(tok.token_ids[start:j])
        body.extend(closes.get(j, ()))
        body.extend(opens.get(j, ()))
        start = j
    body.extend(tok.token_ids[start:])
    out = frame(body, max_len)
    if len(out) - 2 < len(body):
        tags = vocab.tag_ids()
        lost = sum(1 for t in body[len(out) - 2 :] if t in tags)
        if lost:
            log.warning("pair-tags truncate pmid=%s src=%s tgt=%s lost=%d", doc.pmid, src_id, tgt_id, lost)
    return out
