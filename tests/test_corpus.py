"""PubTator parser, candidate generation, and round-trip tests."""

import dataclasses
import hashlib
import itertools
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entrex.corpus import (
    NOVELTY_CLASSES,
    CorpusError,
    Document,
    Mention,
    PairCandidate,
    RelationAnnotation,
    candidate_pairs,
    canonical_pair,
    check_relations,
    parse_pubtator,
    validate_predictions,
    write_pubtator,
)
from entrex import synthetic
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
        # non-ASCII digits: "²" is a digit int() refuses, "٦" one it reads as 6
        (lambda t: t.replace("42\t5\t6\tC", "42\t²\t6\tC"), "start offset '²' is not a non-negative integer"),
        (lambda t: t.replace("42\t5\t6\tC", "42\t5\t٦\tC"), "end offset '٦' is not a non-negative integer"),
        (lambda t: t.replace("42\t5\t6\tC", "42\t5\t6\tQ"), "does not match"),
        (lambda t: t + "42\tBind\tC1\tG1\tNovel\n", "duplicate"),
        (lambda t: t.replace("C1\tG1\tNovel", "C1\tG1\tMaybe"), "novelty"),
        (lambda t: t.replace("Bind\tC1\tG1", "Bind\tC1\tZ9"), "no mention"),
        # "-" has a mention, but no candidate pair holds it
        (lambda t: t + "42\t0\t1\tA\tChemical\t-\n42\tBind\tC1\t-\tNovel\n", "null identifier '-'"),
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
        gold = {canonical_pair(r.id_a, r.id_b): r for r in doc.relations}
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


def test_fixture_corpora_are_pinned():
    """The PubTator text of the train, dev and test fixtures and of a seeded
    random corpus, byte for byte, and every string in them a plain ``str``."""
    pins = {
        "5ad306ac5c64448d6606649662e11f8e33d60514d3846acd1a40783993991c39": (
            synthetic.fixture_train_corpus() + synthetic.fixture_dev_corpus() + synthetic.fixture_test_corpus()
        ),
        "ddd26fd2152a98a33649b9823711b93483d5ad4e3d63309fc86164e4b97125ed": random_corpus(
            np.random.default_rng(0), 200
        ),
    }
    for pin, docs in pins.items():
        assert hashlib.sha256(write_pubtator(docs).encode("utf-8")).hexdigest() == pin
        strings = [s for d in docs for m in d.mentions for s in (m.surface, m.entity_type, *m.identifiers)]
        strings += [s for d in docs for r in d.relations for s in (r.id_a, r.id_b)]
        assert {type(s) for s in strings} == {str}


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
        ([("C1", "-", "Bind", "No")], "null identifier"),
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


# Three identifiers, so that two valid relations can come before a faulty one.
THREE_IDS_BLOCK = (
    "42|t|A B.\n"
    "42|a|C binds D and E.\n"
    "42\t5\t6\tC\tChemical\tC1\n"
    "42\t13\t14\tD\tGene\tG1\n"
    "42\t19\t20\tE\tGene\tG2\n"
)
VALID_RELATIONS = [RelationAnnotation("C1", "G1", "Bind", "Novel"), RelationAnnotation("C1", "G2", "Bind", "No")]


@pytest.mark.parametrize(
    "relation_type, novelty, fragment",
    [
        ("None", "No", "'None' is reserved"),
        ("Bi\tnd", "No", "'Bi\\tnd' holds a tab or line break"),
        ("Bind", "Maybe", "unknown novelty label 'Maybe'"),
    ],
    ids=["reserved-type", "tab-in-type", "unknown-novelty"],
)
def test_relation_rules_hold_for_every_relation(relation_type, novelty, fragment):
    """Each label is checked once per document; a fault on the last relation
    is still found, in gold relations and in predictions alike."""
    doc = parse_pubtator(THREE_IDS_BLOCK)[0]
    relations = [*VALID_RELATIONS, RelationAnnotation("G1", "G2", relation_type, novelty)]
    attempts = [
        lambda: dataclasses.replace(doc, relations=tuple(relations)),
        lambda: write_pubtator([doc], {"42": relations}),
    ]
    if "\t" not in relation_type:  # a tab would split the written line into other fields
        lines = "".join(f"42\t{r.relation_type}\t{r.id_a}\t{r.id_b}\t{r.novelty}\n" for r in relations)
        attempts.append(lambda: parse_pubtator(THREE_IDS_BLOCK + lines))
    for attempt in attempts:
        with pytest.raises(CorpusError, match=re.escape(fragment)) as exc:
            attempt()
        assert exc.value.pmid == "42"


def _three_blocks_crlf(line_no, replacement):
    """Three blocks of five lines, CRLF line endings, two blank lines between
    blocks (so blocks start at lines 1, 8 and 15); 1-based line ``line_no``
    replaced."""
    lines = []
    for pmid in ("42", "43", "44"):
        lines += [line.replace("42", pmid, 1) for line in SIMPLE_BLOCK.splitlines()] + ["", ""]
    lines[line_no - 1] = replacement
    return "\r\n".join(lines[:-2]) + "\r\n"


@pytest.mark.parametrize(
    "line_no, replacement, pmid, fragment",
    [
        (8, "43|x|A B.", None, "expected 'PMID|t|title' line"),
        (16, "44|x|C binds D.", "44", "expected 'PMID|a|abstract' line"),
        (18, "45\t13\t14\tD\tGene\tG1", "44", "annotation PMID '45' does not match block"),
        (12, "43\tBind\tC1\tG1", "43", "annotation line has 4 fields"),
        (17, "44\t5\tsix\tC\tChemical\tC1", "44", "end offset 'six' is not a non-negative integer"),
        (15, "42|t|A B.", "42", "duplicate document"),
    ],
    ids=["bad-t-line", "bad-a-line", "pmid-mismatch", "field-count", "bad-offset", "repeated-pmid"],
)
def test_syntax_errors_name_their_exact_line(line_no, replacement, pmid, fragment):
    text = _three_blocks_crlf(line_no, replacement)
    if pmid == "42":  # the repeated PMID names the whole third block
        text = text.replace("\r\n44", "\r\n42")
    with pytest.raises(CorpusError, match=re.escape(fragment)) as exc:
        parse_pubtator(text)
    assert (exc.value.line_no, exc.value.pmid) == (line_no, pmid)


@pytest.mark.parametrize("predicted", [None, {}], ids=["own-relations", "predictions"])
def test_write_rejects_a_repeated_pmid(predicted):
    """Two blocks with one PMID would not parse back."""
    doc = parse_pubtator(SIMPLE_BLOCK)[0]
    same_pmid = dataclasses.replace(doc, relations=())
    for docs in ([doc, doc], [doc, same_pmid]):
        with pytest.raises(CorpusError, match="duplicate document") as exc:
            write_pubtator(docs, predicted)
        assert exc.value.pmid == "42"


def _with_mention(doc, title=None, **changes):
    """``doc`` with its first mention changed and no relations, which could
    otherwise fail on a changed identifier first."""
    first = doc.mentions[0]._replace(**changes)
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
        "relations": tuple(draw(st.lists(relation, max_size=2, unique_by=lambda r: canonical_pair(r.id_a, r.id_b)))),
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


def test_parser_shares_its_strings_and_records_carry_no_dict():
    """Equal identifiers, types and labels of a parsed corpus are one object,
    and its records are named tuples with no ``__dict__``, so a long corpus
    holds each value once."""
    docs = parse_pubtator(write_pubtator(random_corpus(np.random.default_rng(4), 20, max_identifiers=12)))
    values = [v for d in docs for m in d.mentions for v in (m.entity_type, *m.identifiers)]
    values += [v for d in docs for r in d.relations for v in (r.id_a, r.id_b, r.relation_type, r.novelty)]
    first: dict[str, str] = {}
    assert all(first.setdefault(v, v) is v for v in values)
    assert len(values) > 2 * len(first)
    records = [m for d in docs for m in d.mentions] + [r for d in docs for r in d.relations]
    records += [p for d in docs for p in candidate_pairs(d)]
    assert {type(r) for r in records} == {Mention, RelationAnnotation, PairCandidate}
    assert not any(hasattr(r, "__dict__") for r in records)


# Two faults per document: the error names the first fault in rule order.
_TEXT = ("A B.", "C binds D.")  # full text "A B. C binds D.", length 15; the title ends at 4
_TAB_TEXT = ("A\tB.", "C binds D.")


@pytest.mark.parametrize(
    "texts, mentions, message",
    [
        pytest.param(
            _TEXT, [Mention(5, 600, "Q", "Chemical", ("C1",))],
            "mention offsets [5,600) out of range for text of length 15", id="range-before-surface",
        ),
        pytest.param(
            _TEXT, [Mention(2, 6, "X", "Chemical", ("C1",))],
            "mention surface 'X' does not match text 'B. C' at [2,6)", id="surface-before-boundary",
        ),
        pytest.param(
            _TAB_TEXT, [Mention(0, 6, "A\tB. C", "Chemical", ("C1",))],
            "mention [0,6) crosses the title/abstract boundary", id="boundary-before-tab",
        ),
        pytest.param(
            _TAB_TEXT, [Mention(1, 2, "\t", "Chemical", ("C1",))],
            "mention surface '\\t' at [1,2) holds a tab", id="tab-before-whitespace",
        ),
        pytest.param(
            _TEXT, [Mention(6, 7, " ", "Chemical", ("",))],
            "mention surface ' ' at [6,7) holds only whitespace", id="whitespace-before-empty-identifier",
        ),
        pytest.param(
            _TEXT, [Mention(13, 14, "D", "Gene", ("G1",)), Mention(5, 6, "C", "Chemical", ("",))],
            "mention at [5,6) has an empty identifier", id="empty-identifier-before-sort-order",
        ),
        pytest.param(
            _TEXT, [Mention(13, 14, "D", "Ge\tne", ("G1",)), Mention(5, 6, "C", "Chemical", ("C1",))],
            "mentions not sorted by (start, end) offsets", id="sort-order-before-entity-type",
        ),
    ],
)
def test_mention_rules_report_the_first_fault_in_rule_order(texts, mentions, message):
    """The faulty relation shows that the mention rules also run first."""
    title, abstract = texts
    with pytest.raises(CorpusError) as exc:
        Document("42", title, abstract, tuple(mentions), (RelationAnnotation("C1", "G1", "None", "Maybe"),))
    assert str(exc.value) == f"PMID 42: {message}"


_R = RelationAnnotation


@pytest.mark.parametrize(
    "relations, message",
    [
        pytest.param(
            [_R("C1", "G1", "Bi\tnd", "Novel"), _R("C1", "G2", "None", "No")],
            "{what} type 'None' is reserved for unrelated pairs", id="reserved-before-label-break",
        ),
        pytest.param(
            [_R("C1", "G1", "Bind", "Maybe"), _R("C1", "G2", "Bi\tnd", "No")],
            "{what} type 'Bi\\tnd' holds a tab or line break", id="label-break-before-novelty",
        ),
        pytest.param(
            [_R("C1", "C1", "Bind", "No"), _R("C1", "G1", "Bind", "Maybe")],
            "unknown novelty label 'Maybe'", id="novelty-before-self-relation",
        ),
        pytest.param(
            [_R("C1", "C1", "Bind", "No"), _R("C1", "C1", "Bind", "Novel")],
            "self-relation on identifier 'C1'", id="self-relation-before-duplicate",
        ),
        pytest.param(
            [_R("C1", "G1", "Bind", "No"), _R("G1", "C1", "Bind", "No"), _R("C1", "-", "Bind", "No")],
            "duplicate {what}s on pair ('C1', 'G1')", id="duplicate-before-null-endpoint",
        ),
        pytest.param(
            [_R("G1", "-", "Bind", "No")],  # no mention carries '-', so it is also unknown
            "{what} endpoint is the null identifier '-'", id="null-before-unknown-endpoint",
        ),
        pytest.param(
            [_R("C1", "Z9", "Bind", "No"), _R("G1", "G1", "Bind", "No")],
            "{what} endpoint 'Z9' has no mention", id="unknown-endpoint-before-a-later-self-relation",
        ),
    ],
)
def test_relation_rules_report_the_first_fault_in_rule_order(relations, message):
    """Gold relations and predictions pass the same rules in the same order."""
    doc = parse_pubtator(THREE_IDS_BLOCK)[0]
    attempts = {
        "relation": lambda: dataclasses.replace(doc, relations=tuple(relations)),
        "predicted relation": lambda: validate_predictions([doc], {"42": relations}),
    }
    for what, attempt in attempts.items():
        with pytest.raises(CorpusError) as exc:
            attempt()
        assert str(exc.value) == "PMID 42: " + message.format(what=what)


@pytest.mark.parametrize("seed", range(5))
def test_check_relations_keys_every_relation_by_its_canonical_pair_in_order(seed):
    for doc in random_corpus(np.random.default_rng(seed), 10, max_identifiers=8):
        relations = [r._replace(id_a=r.id_b, id_b=r.id_a) if i % 2 else r for i, r in enumerate(doc.relations)]
        keyed = check_relations(doc.pmid, relations, doc.mention_identifiers(), "relation")
        assert list(keyed.items()) == [(canonical_pair(r.id_a, r.id_b), r) for r in relations]


def test_validate_predictions_keys_a_relation_written_backwards_by_its_canonical_pair():
    doc = parse_pubtator(THREE_IDS_BLOCK)[0]
    backwards = RelationAnnotation("G1", "C1", "Bind", "No")
    assert validate_predictions([doc], {"42": [backwards]}) == {"42": {("C1", "G1"): backwards}}


def test_validate_predictions_returns_a_pmid_without_predictions_as_an_empty_dict():
    docs = parse_pubtator(THREE_IDS_BLOCK + "\n" + SIMPLE_BLOCK.replace("42", "43"))
    assert validate_predictions(docs, {"42": (), "43": []}) == {"42": {}, "43": {}}
    assert validate_predictions(docs, {}) == {}


RECORDS = [
    Mention(5, 6, "C", "Chemical", ("C1",)),
    RelationAnnotation("C1", "G1", "Bind", "Novel"),
    PairCandidate("C1", "G1"),
]


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)
def test_records_are_immutable(record):
    for name in type(record).__annotations__:
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(record, name))


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)
def test_records_compare_and_hash_by_fields(record):
    fields = [getattr(record, name) for name in type(record).__annotations__]
    same = type(record)(*fields)
    assert same == record and hash(same) == hash(record) and same is not record
    changed = type(record)(*fields[:-1], fields[-1] + ("x",) if isinstance(fields[-1], tuple) else fields[-1] + "x")
    assert changed != record


def test_records_are_named_tuples():
    """Records index, unpack and compare as tuples of their fields."""
    mention, relation, pair = RECORDS
    start, end, surface, entity_type, identifiers = mention
    assert (start, end, surface, entity_type, identifiers) == (5, 6, "C", "Chemical", ("C1",))
    assert relation == ("C1", "G1", "Bind", "Novel") and relation[2] == "Bind"
    assert pair == ("C1", "G1", "None", "NoneClass")
    assert mention._replace(end=7) == Mention(5, 7, "C", "Chemical", ("C1",))
