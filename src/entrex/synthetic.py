"""Synthetic corpora: a seeded random-document generator and fixed fixtures.

The random generator produces structurally valid documents for property
tests.  The fixture corpora are small deterministic train/dev/test
partitions whose relation labels follow surface patterns (one phrasing
per relation type), so a compact model can memorize the training set and
generalize the patterns to held-out documents.  Both compose a document
in one pass: mention offsets are computed once, where each word is placed.
"""

from __future__ import annotations

import itertools

import numpy as np

from .corpus import Document, Mention, RelationAnnotation

_FILLER = (
    "the", "a", "of", "in", "with", "patients", "cells", "expression",
    "levels", "signaling", "pathway", "response", "treatment", "cohort",
    "analysis", "observed", "measured", "during", "clinical", "study",
    "results", "showed", "samples", "tissue", "after",
)
_SYLLABLES = ("ba", "co", "di", "fu", "ga", "lo", "mi", "na", "pe", "ra", "si", "tu", "ve", "zo")
_ENTITY_TYPES = ("Chemical", "Disease", "Gene", "Variant")

# One sentence pattern per relation type: the words between its two
# mentions and the words after the second.  The novelty tail disambiguates
# Novel vs No so both tasks are learnable from the surface.
_RELATION_PATTERNS = {
    "Association": ("is associated with", ""),
    "Bind": ("binds", "with high affinity"),
    "Positive_Correlation": ("increases", "levels"),
    "Negative_Correlation": ("decreases", "levels"),
}
_NOVELTY_TAILS = {"Novel": "as a new finding .", "No": "as previously reported ."}

_P_COMPOSITE = 0.15     # random_document's chance of a mention of two same-type identifiers
_P_NULL_MENTION = 0.15  # and of a mention with the null identifier
_P_RELATION = 0.4       # and of a relation on each pair of its identifiers


def _compose(parts: list, pos: int) -> tuple[str, list[Mention]]:
    """Join words and mention specs into text that starts at offset ``pos``.

    ``parts`` items are plain strings (split on whitespace) or tuples
    ``(surface, entity_type, identifiers)`` marking a mention.  Each
    mention's offsets are computed once, where its word is placed.
    """
    words: list[str] = []
    mentions: list[Mention] = []
    for part in parts:
        if isinstance(part, str):
            placed = part.split()
        else:
            mentions.append(Mention(pos, pos + len(part[0]), *part))
            placed = [part[0]]
        words += placed
        pos += sum(map(len, placed)) + len(placed)
    return " ".join(words), mentions


def _build_document(pmid, title_parts, abstract_parts, relations) -> Document:
    title, title_mentions = _compose(title_parts, 0)
    abstract, abstract_mentions = _compose(abstract_parts, len(title) + 1)
    relations = tuple(RelationAnnotation(*r) for r in relations)
    return Document(pmid, title, abstract, (*title_mentions, *abstract_mentions), relations)


def _pseudo_word(rng: np.random.Generator) -> str:
    return "".join(rng.choice(_SYLLABLES) for _ in range(3))


def random_document(
    rng: np.random.Generator,
    pmid: str,
    *,
    min_identifiers: int = 2,
    max_identifiers: int = 6,
    max_mentions_per_identifier: int = 3,
) -> Document:
    """Generate one structurally valid document with seeded randomness."""
    k = int(rng.integers(min_identifiers, max_identifiers + 1))
    identifiers = [f"{rng.choice(('C', 'D', 'G'))}{i:03d}" for i in range(k)]
    types = {i: str(rng.choice(_ENTITY_TYPES)) for i in identifiers}
    surfaces: dict[str, str] = {}
    for ident in identifiers:
        word = _pseudo_word(rng)
        while word in surfaces.values():
            word = _pseudo_word(rng)
        surfaces[ident] = word

    # Mention plan: every identifier appears at least once; a composite
    # mention (two same-type identifiers) and a null-identifier mention
    # are mixed in occasionally.
    mention_specs: list[tuple[str, str, tuple[str, ...]]] = []
    for ident in identifiers:
        n = int(rng.integers(1, max_mentions_per_identifier + 1))
        mention_specs.extend((surfaces[ident], types[ident], (ident,)) for _ in range(n))
    by_type: dict[str, list[str]] = {}
    for ident in identifiers:
        by_type.setdefault(types[ident], []).append(ident)
    same_type = [ids for ids in by_type.values() if len(ids) >= 2]
    if same_type and rng.random() < _P_COMPOSITE:
        group = same_type[int(rng.integers(len(same_type)))]
        pair = tuple(map(str, rng.choice(group, size=2, replace=False)))
        mention_specs.append((_pseudo_word(rng), types[pair[0]], pair))
    if rng.random() < _P_NULL_MENTION:
        mention_specs.append((_pseudo_word(rng), str(rng.choice(_ENTITY_TYPES)), ("-",)))
    order = rng.permutation(len(mention_specs))
    mention_specs = [mention_specs[i] for i in order]

    def filler(lo=1, hi=4):
        return " ".join(rng.choice(_FILLER) for _ in range(int(rng.integers(lo, hi))))

    title_parts: list = [filler(2, 5)]
    abstract_parts: list = []
    # At most one mention lives in the title so it never crosses the boundary.
    specs = mention_specs
    if specs and rng.random() < 0.3:
        title_parts += [specs[0], filler(1, 3)]
        specs = specs[1:]
    title_parts.append(".")
    for spec in specs:
        abstract_parts += [filler(), spec]
    abstract_parts.append(filler(1, 3) + " .")

    relations = []
    for id_a, id_b in itertools.combinations(sorted(identifiers), 2):
        if rng.random() >= _P_RELATION:
            continue
        if rng.random() < 0.5:
            id_a, id_b = id_b, id_a
        relations.append(
            (id_a, id_b, str(rng.choice(tuple(_RELATION_PATTERNS))), str(rng.choice(tuple(_NOVELTY_TAILS))))
        )
    return _build_document(pmid, title_parts, abstract_parts, relations)


def random_corpus(rng: np.random.Generator, n_docs: int, **kwargs) -> list[Document]:
    return [random_document(rng, f"{10000 + i}", **kwargs) for i in range(n_docs)]


# Fixture entities: (identifier, entity type, surface word).
_ENTITIES = {
    "C001": ("Chemical", "alphastatin"),
    "C002": ("Chemical", "betazocine"),
    "C003": ("Chemical", "gammaphene"),
    "C004": ("Chemical", "deltamab"),
    "D001": ("Disease", "neurodystonia"),
    "D002": ("Disease", "cardiomyopathy"),
    "D003": ("Disease", "osteofibrosis"),
    "G001": ("Gene", "fusilin"),
    "G002": ("Gene", "taxilin"),
    "G003": ("Gene", "zeta kinase"),
}

# Each fixture doc: (pmid, entity ids, relations (id_a, id_b, type, novelty)).
_TRAIN_DOCS = [
    ("9001", ["C001", "G001", "D001"],
     [("C001", "G001", "Bind", "Novel"), ("G001", "D001", "Association", "No")]),
    ("9002", ["C002", "G002"], [("C002", "G002", "Positive_Correlation", "Novel")]),
    ("9003", ["C003", "D002"], [("C003", "D002", "Negative_Correlation", "No")]),
    ("9004", ["C001", "D002", "G002"],
     [("C001", "D002", "Association", "Novel"), ("G002", "D002", "Negative_Correlation", "Novel")]),
    ("9005", ["C004", "D003"], [("C004", "D003", "Bind", "No")]),
    ("9006", ["G003", "D001", "C002"],
     [("G003", "D001", "Positive_Correlation", "No"), ("C002", "G003", "Bind", "Novel")]),
    ("9007", ["G001", "D003"], [("G001", "D003", "Negative_Correlation", "Novel")]),
    ("9008", ["C004", "G002", "D001"],
     [("C004", "G002", "Association", "No"), ("C004", "D001", "Positive_Correlation", "Novel")]),
]
_DEV_DOCS = [
    ("9101", ["C001", "D003"], [("C001", "D003", "Bind", "Novel")]),
    ("9102", ["C003", "G002", "D001"],
     [("C003", "G002", "Positive_Correlation", "No"), ("G002", "D001", "Association", "Novel")]),
]
_TEST_DOCS = [
    ("9201", ["C002", "D002"], [("C002", "D002", "Negative_Correlation", "No")]),
    ("9202", ["C004", "G001", "D002"],
     [("C004", "G001", "Bind", "Novel"), ("G001", "D002", "Association", "No")]),
]


def _mention_spec(ident: str) -> tuple[str, str, tuple[str, ...]]:
    etype, surface = _ENTITIES[ident]
    return (surface, etype, (ident,))


def _fixture_document(pmid, entity_ids, relations) -> Document:
    title_parts: list = ["study of", _mention_spec(entity_ids[0]), "in the clinical cohort ."]
    abstract_parts: list = []
    for id_a, id_b, rel_type, novelty in relations:
        between, after = _RELATION_PATTERNS[rel_type]
        abstract_parts += [_mention_spec(id_a), between, _mention_spec(id_b), after, _NOVELTY_TAILS[novelty]]
    mentioned = {i for r in relations for i in (r[0], r[1])}
    for ident in entity_ids:
        if ident not in mentioned:
            abstract_parts += ["the samples showed", _mention_spec(ident), "in tissue ."]
    return _build_document(pmid, title_parts, abstract_parts, relations)


def fixture_train_corpus() -> list[Document]:
    """Eight memorizable documents covering four relation types and both novelty classes."""
    return [_fixture_document(*spec) for spec in _TRAIN_DOCS]


def fixture_dev_corpus() -> list[Document]:
    return [_fixture_document(*spec) for spec in _DEV_DOCS]


def fixture_test_corpus() -> list[Document]:
    return [_fixture_document(*spec) for spec in _TEST_DOCS]
