"""Vocabulary construction, tokenization alignment, and pair-tag tests."""

import dataclasses
import itertools

import numpy as np
import pytest

from entrex.corpus import Document, Mention, parse_pubtator
from entrex.synthetic import fixture_train_corpus, random_document
from entrex.tokenizer import (
    CLS_ID,
    MASK_ID,
    PAD_ID,
    SEP_ID,
    UNK_ID,
    Vocabulary,
    build_vocab,
    frame,
    insert_pair_tags,
    load_vocab,
    save_vocab,
    split_tokens,
    tokenize_document,
)


def test_build_vocab_includes_each_word_once():
    doc = Document("1", "C", "binds C.", ())
    vocab = build_vocab([doc], min_freq=1)
    for word in ("c", "binds", "."):
        assert word in vocab.token_to_id
    assert len([t for t in vocab.tokens if t == "c"]) == 1


def test_min_freq_drops_singletons_to_unk():
    doc = Document("1", "alpha", "alpha beta.", ())
    vocab = build_vocab([doc], min_freq=2)
    assert "alpha" in vocab.token_to_id
    assert "beta" not in vocab.token_to_id
    tok = tokenize_document(doc, vocab)
    assert UNK_ID in tok.token_ids


def test_vocab_build_is_deterministic():
    rng = np.random.default_rng(5)
    corpus = [random_document(rng, str(i)) for i in range(10)]
    a = build_vocab(corpus, min_freq=1)
    b = build_vocab(list(corpus), min_freq=1)
    assert a.to_json() == b.to_json()
    assert a.digest() == b.digest()


def test_vocab_rejects_empty_corpus():
    with pytest.raises(ValueError):
        build_vocab([])


def test_vocab_roundtrip_file(tmp_path):
    rng = np.random.default_rng(6)
    vocab = build_vocab([random_document(rng, "1")])
    path = tmp_path / "vocab.json"
    save_vocab(vocab, path)
    assert load_vocab(path) == vocab


def test_special_token_ids_fixed():
    assert (CLS_ID, SEP_ID, PAD_ID, UNK_ID, MASK_ID) == (0, 1, 2, 3, 4)
    rng = np.random.default_rng(2)
    vocab = build_vocab([random_document(rng, "1")])
    assert vocab.tokens[:5] == ("[CLS]", "[SEP]", "[PAD]", "[UNK]", "[MASK]")


def test_label_spaces():
    text = (
        "5|t|aa bb.\n"
        "5|a|cc dd.\n"
        "5\t0\t2\taa\tGene\tG1\n"
        "5\t7\t9\tcc\tChemical\tC1\n"
        "5\tBind\tG1\tC1\tNovel\n"
    )
    vocab = build_vocab(parse_pubtator(text))
    assert vocab.relation_labels == ("None", "Bind")
    assert vocab.novelty_labels == ("NoneClass", "No", "Novel")
    assert vocab.identifier_labels == ("C1", "G1")
    assert vocab.type_labels == ("Chemical", "Gene")
    assert vocab.relation_index("None") == 0
    assert vocab.novelty_index("NoneClass") == 0
    assert vocab.novelty_index("Novel") == 2


@pytest.mark.parametrize(
    "lookup, message",
    [
        ("identifier_index", "identifier 'X9' not in vocabulary"),
        ("type_index", "entity type 'X9' not in vocabulary"),
        ("relation_index", "relation label 'X9' not in vocabulary"),
        ("novelty_index", "novelty label 'X9' not in vocabulary"),
    ],
)
def test_label_lookup_names_the_missing_label(lookup, message):
    vocab = build_vocab(parse_pubtator(
        "5|t|aa bb.\n5|a|cc dd.\n5\t0\t2\taa\tGene\tG1\n5\t7\t9\tcc\tChemical\tC1\n"
    ))
    with pytest.raises(KeyError) as exc:
        getattr(vocab, lookup)("X9")
    assert exc.value.args == (message,)


def test_novelty_labels_are_fixed():
    """The novelty space is a class attribute: no constructor sets it, and
    a saved vocabulary with any other novelty space is refused."""
    vocab = build_vocab([random_document(np.random.default_rng(3), "1")])
    assert "novelty_labels" not in {f.name for f in dataclasses.fields(Vocabulary)}
    with pytest.raises(TypeError):
        Vocabulary(vocab.tokens, vocab.identifier_labels, vocab.type_labels, vocab.relation_labels,
                   novelty_labels=vocab.novelty_labels)
    data = vocab.to_json_dict()
    assert data["novelty_labels"] == ["NoneClass", "No", "Novel"]
    for other in (["NoneClass", "Novel", "No"], ["No", "Novel"]):
        with pytest.raises(ValueError, match="novelty labels"):
            Vocabulary.from_json_dict({**data, "novelty_labels": other})


def test_fixture_vocab_digest_is_pinned():
    """The fixture vocabulary and its saved form are the same as before the
    novelty space and the label lookups were restructured."""
    digest = build_vocab(fixture_train_corpus()).digest()
    assert digest == "a89c6e3ce4010fbc751ad304839be296d9a5f7eca6cde5bc8ee64f7eeee0bfbc"


def test_mention_boundary_forcing():
    # mention [0,5) covers "IL-2R" even though "2r" would otherwise merge on
    text = "IL-2R binds X"
    mention = Mention(0, 5, "IL-2R", "Gene", ("G1",))
    triples = split_tokens(text, [mention])
    covered = [t for t in triples if t[0] >= 0 and t[1] <= 5]
    assert "".join(t[2] for t in covered) == "il-2r"
    for start, end, _ in triples:
        assert not (start < 5 < end)


def test_empty_text_tokenizes_empty():
    assert split_tokens("") == []


def test_mention_reassembly_oracle():
    """Concatenated span substrings of a mention's range reproduce its surface."""
    rng = np.random.default_rng(17)
    for i in range(100):
        doc = random_document(rng, str(i))
        vocab = build_vocab([doc])
        tok = tokenize_document(doc, vocab)
        for m, (lo, hi) in zip(doc.mentions, tok.mention_token_ranges):
            assert hi > lo
            pieces = [doc.full_text[s:e] for s, e in tok.spans[lo:hi]]
            rebuilt = "".join(pieces)
            assert rebuilt.lower() == "".join(m.surface.split()).lower()


def test_spans_are_faithful_and_ordered():
    rng = np.random.default_rng(19)
    doc = random_document(rng, "1")
    vocab = build_vocab([doc])
    tok = tokenize_document(doc, vocab)
    prev_end = 0
    for (s, e), tid in zip(tok.spans, tok.token_ids):
        assert s >= prev_end
        prev_end = e
        if tid != UNK_ID:
            assert vocab.tokens[tid] == doc.full_text[s:e].lower()


def _scan_mention_ranges(spans, mentions):
    """Reference alignment: scan every span for the tokens inside each mention."""
    ranges = []
    for m in mentions:
        inside = [i for i, (s, e) in enumerate(spans) if m.start <= s and e <= m.end]
        assert inside == list(range(inside[0], inside[-1] + 1))
        ranges.append((inside[0], inside[-1] + 1))
    return ranges


@pytest.mark.parametrize(
    "kwargs",
    [{}, {"min_identifiers": 24, "max_identifiers": 40, "max_mentions_per_identifier": 4}],
    ids=["abstract", "long"],
)
def test_mention_alignment_matches_span_scan(kwargs):
    rng = np.random.default_rng(29)
    for i in range(60):
        doc = random_document(rng, str(i), **kwargs)
        tok = tokenize_document(doc, build_vocab([doc]))
        assert list(tok.mention_token_ranges) == _scan_mention_ranges(tok.spans, doc.mentions)


@pytest.fixture
def tagged_doc():
    text = (
        "8|t|aa sees bb.\n"
        "8|a|aa binds bb and aa again.\n"
        "8\t0\t2\taa\tGene\tG1\n"
        "8\t8\t10\tbb\tChemical\tC1\n"
        "8\t12\t14\taa\tGene\tG1\n"
        "8\t21\t23\tbb\tChemical\tC1\n"
        "8\t28\t30\taa\tGene\tG1\n"
    )
    doc = parse_pubtator(text)[0]
    return doc, build_vocab([doc])


def test_insert_pair_tags_counts(tagged_doc):
    doc, vocab = tagged_doc
    tok = tokenize_document(doc, vocab)
    seq = insert_pair_tags(tok, doc, "G1", "C1", vocab)
    tag_ids = vocab.tag_ids()
    n_tags = sum(1 for t in seq if t in tag_ids)
    # G1 has 3 mentions, C1 has 2: 2 tags per wrapped mention
    assert n_tags == 10
    assert seq[0] == CLS_ID and seq[-1] == SEP_ID
    assert len(seq) == len(tok.token_ids) + 2 + n_tags


def test_insert_pair_tags_single_pair():
    text = "3|t|aa x.\n3|a|bb y.\n3\t0\t2\taa\tGene\tG1\n3\t6\t8\tbb\tChemical\tC1\n"
    doc = parse_pubtator(text)[0]
    vocab = build_vocab([doc])
    tok = tokenize_document(doc, vocab)
    seq = insert_pair_tags(tok, doc, "G1", "C1", vocab)
    tag_ids = vocab.tag_ids()
    assert sum(1 for t in seq if t in tag_ids) == 4
    src_open = vocab.tag_id("SRC", "Gene")
    src_close = vocab.tag_id("SRC", "Gene", close=True)
    ga = vocab.token_id("aa")
    i = seq.index(src_open)
    assert seq[i + 1] == ga and seq[i + 2] == src_close


def test_shared_mention_gets_src_tags():
    text = "4|t|aa x.\n4|a|y z.\n4\t0\t2\taa\tGene\tG1,G2\n"
    doc = parse_pubtator(text)[0]
    vocab = build_vocab([doc])
    tok = tokenize_document(doc, vocab)
    seq = insert_pair_tags(tok, doc, "G1", "G2", vocab)
    assert vocab.tag_id("SRC", "Gene") in seq
    assert vocab.tag_id("TGT", "Gene") not in seq


def test_insert_pair_tags_unknown_identifier(tagged_doc):
    doc, vocab = tagged_doc
    tok = tokenize_document(doc, vocab)
    with pytest.raises(ValueError, match="'NOPE' not present in document 8"):
        insert_pair_tags(tok, doc, "G1", "NOPE", vocab)
    with pytest.raises(ValueError, match="'NOPE' not present in document 8"):
        insert_pair_tags(tok, doc, "NOPE", "C1", vocab)


def test_tag_insertion_preserves_token_order():
    """Original tokens form a subsequence of the tagged sequence."""
    rng = np.random.default_rng(29)
    for i in range(50):
        doc = random_document(rng, str(i), min_identifiers=2)
        vocab = build_vocab([doc])
        tok = tokenize_document(doc, vocab)
        ids = doc.groundable_identifiers()
        src, tgt = ids[0], ids[-1]
        seq = insert_pair_tags(tok, doc, src, tgt, vocab, max_len=4096)
        inner = list(seq[1:-1])
        tag_ids = vocab.tag_ids()
        stripped = [t for t in inner if t not in tag_ids]
        assert stripped == list(tok.token_ids)


def test_truncation_keeps_sep_final(tagged_doc):
    doc, vocab = tagged_doc
    tok = tokenize_document(doc, vocab)
    seq = insert_pair_tags(tok, doc, "G1", "C1", vocab, max_len=8)
    assert len(seq) == 8
    assert seq[-1] == SEP_ID
    full = insert_pair_tags(tok, doc, "G1", "C1", vocab)
    assert seq[:7] == full[:7]


def test_frame_wraps_and_cuts_the_body():
    assert frame([7, 8, 9], 5) == (CLS_ID, 7, 8, 9, SEP_ID)
    assert frame([7, 8, 9], 4) == (CLS_ID, 7, 8, SEP_ID)
    assert frame([7, 8, 9], 2) == (CLS_ID, SEP_ID)
    assert frame([], 2) == (CLS_ID, SEP_ID)


@pytest.mark.parametrize("max_len", [1, 0, -1])
def test_frame_rejects_max_len_below_two(max_len):
    with pytest.raises(ValueError, match="max_len"):
        frame([7, 8, 9], max_len)


def test_pair_tags_lost_to_truncation_are_logged(caplog):
    """One warning per pair whose frame cuts tags, with the number cut; the
    tags cut are those after the first max_len - 2 tokens of the full body."""
    doc = random_document(np.random.default_rng(5), "77", min_identifiers=30, max_identifiers=30)
    vocab = build_vocab([doc])
    tok = tokenize_document(doc, vocab)
    tag_ids = vocab.tag_ids()
    max_len = 60
    expected = []
    for src, tgt in itertools.combinations(doc.groundable_identifiers(), 2):
        body = insert_pair_tags(tok, doc, src, tgt, vocab, max_len=4096)[1:-1]
        lost = sum(1 for t in body[max_len - 2 :] if t in tag_ids)
        if lost:
            expected.append(f"pair-tags truncate pmid=77 src={src} tgt={tgt} lost={lost}")
    n_pairs = len(doc.groundable_identifiers()) * (len(doc.groundable_identifiers()) - 1) // 2
    assert 0 < len(expected) < n_pairs  # some pairs lose tags, some lose none
    caplog.clear()
    with caplog.at_level("WARNING", logger="entrex.tokenizer"):
        for src, tgt in itertools.combinations(doc.groundable_identifiers(), 2):
            insert_pair_tags(tok, doc, src, tgt, vocab, max_len=max_len)
    assert [r.getMessage() for r in caplog.records] == expected
