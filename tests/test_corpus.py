"""PubTator parser, candidate generation, and round-trip tests."""

import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entrex.corpus import (
    NOVELTY_CLASSES,
    CorpusError,
    Document,
    Mention,
    RelationAnnotation,
    candidate_pairs,
    canonical_pair,
    parse_pubtator,
    write_pubtator,
)
from entrex.synthetic import random_corpus, random_document

SIMPLE_BLOCK = (
    "42|t|A B.\n"
    "42|a|C binds D.\n"
    "42\t5\t6\tC\tChemical\tC1\n"
    "42\t13\t14\tD\tGene\tG1\n"
    "42\tBind\tC1\tG1\tNovel\n"
)


def test_parse_simple_block():
    docs = parse_pubtator(SIMPLE_BLOCK)
    assert len(docs) == 1
    doc = docs[0]
    assert doc.pmid == "42"
    assert doc.full_text == "A B. C binds D."
    assert doc.mentions[0] == Mention(5, 6, "C", "Chemical", ("C1",))
    assert doc.relations == (RelationAnnotation("C1", "G1", "Bind", "Novel"),)


def test_title_abstract_offsets_are_global():
    # title "A B." has length 4, so the abstract starts at offset 5
    doc = parse_pubtator(SIMPLE_BLOCK)[0]
    assert doc.full_text[5:6] == "C"
    assert doc.mentions[0].start == 5 and doc.mentions[0].end == 6


def test_composite_identifier_field_is_split():
    text = (
        "7|t|X here.\n"
        "7|a|Nothing.\n"
        "7\t0\t1\tX\tChemical\tD001,D002\n"
    )
    doc = parse_pubtator(text)[0]
    assert doc.mentions[0].identifiers == ("D001", "D002")


def test_crlf_and_trailing_blank_lines_accepted():
    text = SIMPLE_BLOCK.replace("\n", "\r\n") + "\r\n\r\n"
    assert parse_pubtator(text)[0].pmid == "42"


def test_multiple_blocks():
    other = "43|t|Q.\n43|a|R.\n"
    docs = parse_pubtator(SIMPLE_BLOCK + "\n" + other)
    assert [d.pmid for d in docs] == ["42", "43"]


@pytest.mark.parametrize(
    "mutation, fragment",
    [
        (lambda t: t.replace("42\t5\t6\tC\tChemical\tC1", "42\t5\t6\tC"), "fields"),
        (lambda t: t.replace("42\t5\t6\tC", "42\t5\t600\tC"), "out of range"),
        (lambda t: t.replace("42\t5\t6\tC", "42\t5\t6\tQ"), "does not match"),
        (lambda t: t + "42\tBind\tC1\tG1\tNovel\n", "duplicate"),
        (lambda t: t.replace("C1\tG1\tNovel", "C1\tG1\tMaybe"), "novelty"),
        (lambda t: t.replace("Bind\tC1\tG1", "Bind\tC1\tZ9"), "no mention"),
        (lambda t: t.replace("42|a|", "42|x|"), "abstract"),
    ],
)
def test_malformed_input_rejected_with_location(mutation, fragment):
    with pytest.raises(CorpusError) as exc:
        parse_pubtator(mutation(SIMPLE_BLOCK))
    message = str(exc.value)
    assert fragment.lower() in message.lower()
    assert "42" in message  # names the PMID or its line


def test_mention_crossing_title_boundary_rejected():
    text = (
        "9|t|AB\n"
        "9|a|CD\n"
        "9\t1\t4\tB C\tChemical\tC1\n"
    )
    with pytest.raises(CorpusError) as exc:
        parse_pubtator(text)
    assert "boundary" in str(exc.value)


def test_whitespace_only_mention_rejected():
    """A mention with no token could not be aligned to a token range."""
    text = (
        "42|t|A B.\n"
        "42|a|C   D.\n"
        "42\t6\t9\t   \tGene\tG1\n"
    )
    with pytest.raises(CorpusError, match=r"\[6,9\) holds only whitespace") as exc:
        parse_pubtator(text)
    assert exc.value.pmid == "42"


def test_duplicate_pmid_rejected():
    with pytest.raises(CorpusError) as exc:
        parse_pubtator(SIMPLE_BLOCK + "\n" + SIMPLE_BLOCK)
    assert "duplicate document" in str(exc.value)


def _doc_with_identifiers(ids, relations=()):
    parts = []
    mentions = []
    pos = 0
    for i, ident in enumerate(ids):
        word = f"w{i}"
        start = pos
        mentions.append(Mention(start, start + len(word), word, "Chemical", (ident,)))
        parts.append(word)
        pos += len(word) + 1
    title = "t"
    abstract = " ".join(parts)
    shift = len(title) + 1
    mentions = [
        Mention(m.start + shift, m.end + shift, m.surface, m.entity_type, m.identifiers)
        for m in mentions
    ]
    return Document(
        pmid="1", title=title, abstract=abstract,
        mentions=tuple(mentions), relations=tuple(relations),
    )


def test_candidate_pairs_labels_from_relations():
    doc = _doc_with_identifiers(
        ["X", "Y", "Z"], [RelationAnnotation("X", "Y", "Association", "Novel")]
    )
    cands = candidate_pairs(doc)
    assert len(cands) == 3
    by_pair = {(c.src_id, c.tgt_id): c for c in cands}
    assert by_pair[("X", "Y")].relation_label == "Association"
    assert by_pair[("X", "Y")].novelty_label == "Novel"
    assert by_pair[("X", "Z")].relation_label == "None"
    assert by_pair[("X", "Z")].novelty_label == "NoneClass"
    assert by_pair[("Y", "Z")].relation_label == "None"


def test_candidate_count_is_n_choose_2():
    for n in (0, 1, 2, 5, 9):
        doc = _doc_with_identifiers([f"I{i}" for i in range(n)])
        assert len(candidate_pairs(doc)) == n * (n - 1) // 2


def test_null_identifier_excluded_from_candidates():
    doc = _doc_with_identifiers(["X", "-", "Y"])
    cands = candidate_pairs(doc)
    assert {(c.src_id, c.tgt_id) for c in cands} == {("X", "Y")}


def test_candidates_match_bruteforce_enumeration():
    """Independent oracle: nested loops over distinct groundable identifiers."""
    rng = np.random.default_rng(7)
    for trial in range(50):
        doc = random_document(rng, str(trial), min_identifiers=2, max_identifiers=10)
        got = {(c.src_id, c.tgt_id, c.relation_label, c.novelty_label)
               for c in candidate_pairs(doc)}

        ids = sorted({i for m in doc.mentions for i in m.identifiers if i != "-"})
        gold = {r.pair_key(): r for r in doc.relations}
        expected = set()
        for a in ids:
            for b in ids:
                if a >= b:
                    continue
                r = gold.get(canonical_pair(a, b))
                if r is None:
                    expected.add((a, b, "None", "NoneClass"))
                else:
                    expected.add((a, b, r.relation_type, r.novelty))
        assert got == expected
        # every groundable annotated relation appears exactly once
        for key, r in gold.items():
            if key[0] in ids and key[1] in ids:
                matches = [c for c in candidate_pairs(doc) if (c.src_id, c.tgt_id) == key]
                assert len(matches) == 1


def test_write_roundtrip_fixture():
    docs = parse_pubtator(SIMPLE_BLOCK)
    assert parse_pubtator(write_pubtator(docs)) == docs


def test_write_empty_prediction_map_drops_relations():
    docs = parse_pubtator(SIMPLE_BLOCK)
    out = write_pubtator(docs, predicted={})
    assert "Bind" not in out
    reparsed = parse_pubtator(out)
    assert reparsed[0].mentions == docs[0].mentions
    assert reparsed[0].relations == ()


def test_write_unknown_pmid_rejected():
    docs = parse_pubtator(SIMPLE_BLOCK)
    with pytest.raises(CorpusError):
        write_pubtator(docs, predicted={"999": []})


def test_write_unknown_identifier_rejected():
    docs = parse_pubtator(SIMPLE_BLOCK)
    bad = {"42": [RelationAnnotation("C1", "NOPE", "Bind", "No")]}
    with pytest.raises(CorpusError):
        write_pubtator(docs, predicted=bad)


@pytest.mark.parametrize(
    "relations, fragment",
    [
        ([("C1", "G1", "Bind", "No"), ("G1", "C1", "Bind", "Novel")], "duplicate predicted relations"),
        ([("C1", "C1", "Bind", "No")], "self-relation"),
        ([("C1", "G1", "Bind", "Maybe")], "novelty"),
        ([("C1", "G1", "Bi\tnd", "No")], "tab or line break"),
        ([("C1", "G1", "None", "Novel")], "'None' is reserved"),
    ],
)
def test_write_rejects_predictions_that_would_not_parse(relations, fragment):
    docs = parse_pubtator(SIMPLE_BLOCK)
    with pytest.raises(CorpusError, match=fragment) as exc:
        write_pubtator(docs, {"42": [RelationAnnotation(*r) for r in relations]})
    assert exc.value.pmid == "42"


def test_parse_rejects_the_reserved_relation_label():
    """``None`` labels unannotated candidate pairs, so no gold relation carries it."""
    text = SIMPLE_BLOCK.replace("\tBind\t", "\tNone\t")
    with pytest.raises(CorpusError, match="'None' is reserved") as exc:
        parse_pubtator(text)
    assert exc.value.pmid == "42"


def _with_mention(doc, title=None, **changes):
    """``doc`` with its first mention changed and no relations, which could
    otherwise fail on a changed identifier first."""
    first = dataclasses.replace(doc.mentions[0], **changes)
    return dataclasses.replace(
        doc, title=title or doc.title, mentions=(first,) + doc.mentions[1:], relations=()
    )


@pytest.mark.parametrize(
    "mutation",
    [
        pytest.param(lambda d: _with_mention(d, identifiers=("C1,C9",)), id="comma-in-identifier"),
        pytest.param(lambda d: _with_mention(d, identifiers=(" C1",)), id="space-before-identifier"),
        pytest.param(lambda d: _with_mention(d, identifiers=("C1\t",)), id="tab-in-identifier"),
        pytest.param(lambda d: _with_mention(d, entity_type="Chem\tical"), id="tab-in-type"),
        pytest.param(lambda d: _with_mention(d, entity_type="Chem\nical"), id="newline-in-type"),
        pytest.param(lambda d: _with_mention(d, start=0, end=3, surface="A\tB", title="A\tB."), id="tab-in-surface"),
        pytest.param(lambda d: dataclasses.replace(d, title="A\rB."), id="cr-in-title"),
        pytest.param(
            lambda d: dataclasses.replace(d, relations=(RelationAnnotation("C1", "G1", "Bi\tnd", "Novel"),)),
            id="tab-in-relation-type",
        ),
        pytest.param(
            lambda d: dataclasses.replace(d, relations=(RelationAnnotation("C1", "G1", "Bind\x85", "Novel"),)),
            id="line-break-in-relation-type",
        ),
    ],
)
def test_fields_that_would_not_parse_back_are_rejected(mutation):
    """A field with a tab, a line break, or an identifier with a comma or
    surrounding whitespace would be split or changed by ``write_pubtator``
    followed by ``parse_pubtator``, so no such document can be constructed."""
    doc = parse_pubtator(SIMPLE_BLOCK)[0]
    with pytest.raises(CorpusError) as exc:
        mutation(doc)
    assert exc.value.pmid == "42"


# Letters plus every character that has a meaning in the PubTator format.
_FIELD_ALPHABET = "aB \t\r\n\x85,|"


def _mostly(plain, special):
    """Three draws in four from ``plain``, so that many drawn documents are valid."""
    return st.sampled_from([plain, plain, plain, special]).flatmap(lambda s: s)


_FIELDS = _mostly(st.text("aB", min_size=1, max_size=4), st.text(_FIELD_ALPHABET, max_size=4))
_TEXTS = _mostly(st.text("aB ", min_size=1, max_size=8), st.text(_FIELD_ALPHABET, max_size=8))


@st.composite
def _document_fields(draw):
    """``Document`` keyword arguments, valid or not, with mention spans
    over the title or the abstract."""
    title, abstract = draw(_TEXTS), draw(_TEXTS)
    mentions = []
    for _ in range(draw(st.integers(0, 4))):
        lo, hi = (0, len(title)) if draw(st.booleans()) else (len(title) + 1, len(title) + 1 + len(abstract))
        start = draw(st.integers(lo, max(lo, hi - 1)))
        end = draw(st.integers(start + 1, max(start + 1, hi)))
        surface = f"{title} {abstract}"[start:end]
        identifiers = tuple(draw(st.lists(_FIELDS, min_size=1, max_size=2)))
        mentions.append(Mention(start, end, surface, draw(_FIELDS), identifiers))
    mentions.sort(key=lambda m: m.start)  # equal starts keep their drawn order, either end first
    pairs = list(itertools.combinations(sorted({i for m in mentions for i in m.identifiers}), 2))
    endpoints = st.tuples(_FIELDS, _FIELDS)
    if pairs:
        endpoints = _mostly(st.sampled_from(pairs), endpoints)
    relation = st.builds(
        lambda ends, *labels: RelationAnnotation(*ends, *labels), endpoints, _FIELDS, st.sampled_from(NOVELTY_CLASSES)
    )
    return {
        "pmid": draw(_FIELDS),
        "title": title,
        "abstract": abstract,
        "mentions": tuple(mentions),
        "relations": tuple(draw(st.lists(relation, max_size=2, unique_by=lambda r: r.pair_key()))),
    }


@settings(max_examples=300, deadline=None)
@given(fields=_document_fields())
def test_document_is_rejected_or_round_trips(fields):
    """Either the document cannot be constructed, with an error naming its
    PMID, or it is written and parsed back unchanged."""
    try:
        doc = Document(**fields)
    except CorpusError as exc:
        assert exc.pmid == fields["pmid"]
        assert not exc.pmid or f"PMID {exc.pmid}" in str(exc)
        return
    assert parse_pubtator(write_pubtator([doc])) == [doc]


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), data=st.data())
def test_written_predictions_parse_back(seed, data):
    """Any relation set over candidate pairs is written and parsed back exactly."""
    doc = random_document(np.random.default_rng(seed), "7", min_identifiers=1, max_identifiers=8)
    pairs = [(p.src_id, p.tgt_id) for p in candidate_pairs(doc)]
    chosen = data.draw(st.lists(st.sampled_from(pairs), unique=True) if pairs else st.just([]))
    predicted = []
    for src, tgt in chosen:
        ends = (tgt, src) if data.draw(st.booleans()) else (src, tgt)
        rel_type = data.draw(st.sampled_from(["Bind", "Association", "Positive_Correlation"]))
        predicted.append(RelationAnnotation(*ends, rel_type, data.draw(st.sampled_from(["No", "Novel"]))))
    text = write_pubtator([doc], {doc.pmid: predicted})
    assert parse_pubtator(text) == [dataclasses.replace(doc, relations=tuple(predicted))]


def test_write_roundtrip_randomized():
    """100 random documents survive write -> parse field-identically."""
    rng = np.random.default_rng(11)
    docs = random_corpus(rng, 100, min_identifiers=1, max_identifiers=7)
    text = write_pubtator(docs)
    assert parse_pubtator(text) == docs
    # a second serialization is byte-identical
    assert write_pubtator(parse_pubtator(text)) == text


def test_random_documents_satisfy_mention_invariant():
    rng = np.random.default_rng(23)
    for i in range(50):
        doc = random_document(rng, str(i))
        for m in doc.mentions:
            assert doc.full_text[m.start:m.end] == m.surface
