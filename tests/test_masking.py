"""Masked-instance validity, masking selection and instance-building tests."""

import hashlib
import json
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from entrex.corpus import Document, Mention, candidate_pairs, parse_pubtator
from entrex.masking import (
    MaskedInstance,
    MaskedTarget,
    MaskingConfig,
    _document_rng,
    _draw_selection,
    build_pretraining_instances,
)
from entrex.synthetic import random_corpus, random_document
from entrex.tokenizer import (
    CLS_ID,
    MASK_ID,
    SEP_ID,
    build_vocab,
    insert_pair_tags,
    tokenize_document,
)


def _rng(seed=0):
    return np.random.default_rng(seed)


def _doc_and_vocab(seed=0, **kwargs):
    doc = random_document(_rng(seed), "1", **kwargs)
    return doc, build_vocab([doc])


def _selection(doc, cfg, epoch_seed):
    """The identifiers the builder masks in ``doc`` at ``epoch_seed``."""
    return _draw_selection(doc.groundable_identifiers(), cfg.threshold, _document_rng(epoch_seed, doc.pmid))


def _instance(targets, length=10):
    ids = tuple([CLS_ID] + [6 + i for i in range(length - 2)] + [SEP_ID])
    return MaskedInstance("42", ids, tuple(MaskedTarget(*t) for t in targets))


@pytest.mark.parametrize(
    "span",
    [(2, 2), (4, 3), (-1, 2), (8, 11), (0, 2), (8, 10), (9, 10)],
    ids=["empty", "reversed", "negative-start", "past-end", "starts-at-cls", "covers-sep", "sep-only"],
)
def test_instance_rejects_bad_target_span(span):
    with pytest.raises(ValueError, match=r"PMID 42: target span .* not inside the body \[1,9\)"):
        _instance([(2, 4, 1, 0), (*span, 0, 1)])


def test_instance_requires_targets():
    with pytest.raises(ValueError, match="PMID 42: masked instance has no targets"):
        _instance([])


def test_instance_accepts_the_whole_body():
    assert _instance([(1, 9, 0, 0)]).masked_targets == (MaskedTarget(1, 9, 0, 0),)


def test_threshold_zero_selects_exactly_one():
    doc, _ = _doc_and_vocab(1, min_identifiers=4, max_identifiers=6)
    for s in range(20):
        selected = _draw_selection(doc.groundable_identifiers(), 0.0, _rng(s))
        assert len(selected) == 1


def test_threshold_one_selects_all_but_one():
    doc, _ = _doc_and_vocab(2, min_identifiers=5, max_identifiers=5)
    k = len(doc.groundable_identifiers())
    for s in range(20):
        selected = _draw_selection(doc.groundable_identifiers(), 1.0, _rng(s))
        assert len(selected) == k - 1


def test_selection_requires_two_identifiers(caplog):
    """The builder skips a one-identifier document, and says so."""
    doc, vocab = _doc_and_vocab(3, min_identifiers=1, max_identifiers=1)
    with caplog.at_level("INFO", logger="entrex.masking"):
        assert build_pretraining_instances([doc], vocab, MaskingConfig(), 0) == []
    assert [r.getMessage() for r in caplog.records] == ["masking skip pmid=1 reason=fewer-than-2-identifiers"]


def test_selection_rate_matches_threshold():
    """Selection rate over 10,000 identifier draws sits in [0.18, 0.22].

    With 30 identifiers a draw triggers the none-selected repair with
    probability 0.8**30 (about 0.1%) and the all-selected one with
    0.2**30, so the measured rate is, in effect, the raw Bernoulli rate.
    """
    rng = _rng(404)
    draws = 0
    hits = 0
    doc = random_document(_rng(77), "1", min_identifiers=30, max_identifiers=30)
    identifiers = doc.groundable_identifiers()
    k = len(identifiers)
    while draws < 10_000:
        selected = _draw_selection(identifiers, 0.2, rng)
        hits += len(selected)
        draws += k
    rate = hits / draws
    assert 0.18 <= rate <= 0.22


def test_config_validation():
    with pytest.raises(ValueError):
        MaskingConfig(threshold=1.5)


def test_builder_masks_every_mention_of_identifier():
    """At threshold 1 two of the three identifiers are masked, each in
    every mention: G1 has 2 one-token mentions, C1 one 3-token mention
    and D1 one one-token mention."""
    text = (
        "6|t|aa here.\n"
        "6|a|bb cc dd and aa ee.\n"
        "6\t0\t2\taa\tGene\tG1\n"
        "6\t9\t17\tbb cc dd\tChemical\tC1\n"
        "6\t22\t24\taa\tGene\tG1\n"
        "6\t25\t27\tee\tDisease\tD1\n"
    )
    doc = parse_pubtator(text)[0]
    vocab = build_vocab([doc])
    expected = {("C1", "G1"): (3, 5), ("D1", "G1"): (3, 3), ("C1", "D1"): (2, 4)}  # (targets, MASKs)
    seen = set()
    for epoch in range(20):
        (inst,) = build_pretraining_instances([doc], vocab, MaskingConfig(threshold=1.0), epoch)
        masked = tuple(sorted({vocab.identifier_labels[t.identifier_index] for t in inst.masked_targets}))
        assert (len(inst.masked_targets), inst.token_ids.count(MASK_ID)) == expected[masked]
        seen.add(masked)
    assert seen == set(expected)


def test_mask_position_set_oracle():
    """MASK positions equal a brute-force scan over selected mention ranges."""
    rng = _rng(31)
    cfg = MaskingConfig(threshold=0.4)
    for i in range(100):
        doc = random_document(rng, str(i), min_identifiers=2, max_identifiers=8)
        vocab = build_vocab([doc])
        tok = tokenize_document(doc, vocab)
        (inst,) = build_pretraining_instances([doc], vocab, cfg, epoch_seed=i)
        selected = _selection(doc, cfg, i)

        expected = set()
        for m, (lo, hi) in zip(doc.mentions, tok.mention_token_ranges):
            if any(i in selected for i in m.identifiers):
                expected.update(range(lo + 1, hi + 1))  # framed: CLS comes first
        got = {j for j, t in enumerate(inst.token_ids) if t == MASK_ID}
        assert got == expected
        # one target per masked mention, identifier taken from the selection
        n_masked_mentions = sum(
            1 for m in doc.mentions if set(m.identifiers) & selected
        )
        assert len(inst.masked_targets) == n_masked_mentions
        for t in inst.masked_targets:
            assert vocab.identifier_labels[t.identifier_index] in selected


def test_builder_frames_and_shifts_targets():
    doc, vocab = _doc_and_vocab(6)
    tok = tokenize_document(doc, vocab)
    cfg = MaskingConfig(threshold=0.5)
    (inst,) = build_pretraining_instances([doc], vocab, cfg, epoch_seed=1)
    selected = _selection(doc, cfg, 1)
    assert inst.token_ids[0] == CLS_ID and inst.token_ids[-1] == SEP_ID
    assert len(inst.token_ids) == len(tok.token_ids) + 2
    masked = [(lo, hi) for m, (lo, hi) in zip(doc.mentions, tok.mention_token_ranges) if set(m.identifiers) & selected]
    assert [(t.token_start, t.token_end) for t in inst.masked_targets] == [(lo + 1, hi + 1) for lo, hi in masked]
    for t in inst.masked_targets:
        assert all(inst.token_ids[j] == MASK_ID for j in range(t.token_start, t.token_end))


def test_build_instances_deterministic():
    rng = _rng(7)
    corpus = [random_document(rng, str(i)) for i in range(6)]
    vocab = build_vocab(corpus)
    cfg = MaskingConfig(threshold=0.2)
    a = build_pretraining_instances(corpus, vocab, cfg, epoch_seed=11)
    b = build_pretraining_instances(corpus, vocab, cfg, epoch_seed=11)
    assert a == b
    c = build_pretraining_instances(corpus, vocab, cfg, epoch_seed=12)
    assert a != c  # different epoch reshuffles the masking


def test_build_instances_skips_single_identifier_docs():
    rng = _rng(8)
    eligible = random_document(rng, "10", min_identifiers=3, max_identifiers=3)
    lonely = random_document(rng, "11", min_identifiers=1, max_identifiers=1)
    vocab = build_vocab([eligible, lonely])
    out = build_pretraining_instances([eligible, lonely], vocab, MaskingConfig(), 0)
    assert [i.pmid for i in out] == ["10"]


def test_build_instances_logs_partly_truncated_targets(caplog):
    """Both identifiers have a mention before the cut at max_len and one
    after it, so whichever is masked loses one of its two targets."""
    title, abstract = "Alpha binds beta.", " ".join(["filler"] * 12) + " alpha and beta"
    text = f"{title} {abstract}"
    spans = [
        (text.index("Alpha"), "Alpha", "Chemical", "C1"),
        (text.index("beta"), "beta", "Gene", "G1"),
        (text.rindex("alpha"), "alpha", "Chemical", "C1"),
        (text.rindex("beta"), "beta", "Gene", "G1"),
    ]
    doc = Document("5", title, abstract, tuple(Mention(i, i + len(w), w, t, (c,)) for i, w, t, c in spans))
    vocab = build_vocab([doc])
    with caplog.at_level("WARNING", logger="entrex.masking"):
        out = build_pretraining_instances([doc], vocab, MaskingConfig(), 0, max_len=8)
    assert len(out[0].token_ids) == 8 and len(out[0].masked_targets) == 1
    assert [r.getMessage() for r in caplog.records] == ["masking truncate pmid=5 dropped=1 kept=1"]


def test_every_identifier_masked_across_epochs():
    """Coverage: over 50 epochs each identifier of a 5-identifier doc is masked."""
    doc = random_document(_rng(55), "1", min_identifiers=5, max_identifiers=5)
    vocab = build_vocab([doc])
    cfg = MaskingConfig(threshold=0.2)
    masked_ever = set()
    for epoch in range(50):
        for inst in build_pretraining_instances([doc], vocab, cfg, epoch_seed=epoch):
            masked_ever.update(
                vocab.identifier_labels[t.identifier_index] for t in inst.masked_targets
            )
    assert masked_ever == set(doc.groundable_identifiers())


def test_at_least_one_identifier_unmasked():
    rng = _rng(66)
    for i in range(50):
        doc = random_document(rng, str(i), min_identifiers=2, max_identifiers=6)
        vocab = build_vocab([doc])
        for epoch in range(3):
            for inst in build_pretraining_instances(
                [doc], vocab, MaskingConfig(threshold=0.9), epoch_seed=epoch
            ):
                masked = {
                    vocab.identifier_labels[t.identifier_index] for t in inst.masked_targets
                }
                assert masked < set(doc.groundable_identifiers())


def _framed_pair_tags_formula(tok, doc, src, tgt, vocab, max_len):
    """Pair tagging as written before framing had one owner."""
    opens, closes = {}, {}
    for m, (lo, hi) in zip(doc.mentions, tok.mention_token_ranges):
        roles = [r for r, i in (("SRC", src), ("TGT", tgt)) if i in m.identifiers]  # both nest, SRC outside
        opens.setdefault(lo, []).extend(vocab.tag_id(r, m.entity_type) for r in roles)
        closes.setdefault(hi, []).extend(vocab.tag_id(r, m.entity_type, close=True) for r in reversed(roles))
    out = [CLS_ID]
    for j in range(len(tok.token_ids) + 1):
        out.extend(closes.get(j, ()))
        if j < len(tok.token_ids):
            out.extend(opens.get(j, ()))
            out.append(tok.token_ids[j])
    out.append(SEP_ID)
    if len(out) > max_len:
        out = out[: max_len - 1] + [SEP_ID]
    return tuple(out)


def _framed_instance_formula(tok, doc, selected, vocab, max_len):
    """Masking then framing as written before framing had one owner."""
    ids = list(tok.token_ids)
    targets = []
    for m, (lo, hi) in zip(doc.mentions, tok.mention_token_ranges):
        hit = sorted(set(m.identifiers) & selected)
        if hit:
            ids[lo:hi] = [MASK_ID] * (hi - lo)
            targets.append(MaskedTarget(lo, hi, vocab.identifier_index(hit[0]), vocab.type_index(m.entity_type)))
    framed = (CLS_ID,) + tuple(ids) + (SEP_ID,)
    shifted = [MaskedTarget(t.token_start + 1, t.token_end + 1, t.identifier_index, t.type_index) for t in targets]
    if len(framed) > max_len:
        framed = framed[: max_len - 1] + (SEP_ID,)
        shifted = [t for t in shifted if t.token_end <= max_len - 1]
    return MaskedInstance(doc.pmid, framed, tuple(shifted)) if shifted else None


@pytest.mark.parametrize("max_len", [8, 16, 40, 512])
def test_every_encoder_input_follows_the_framing_rule(max_len):
    """Tagged pairs and pretraining instances: CLS first, SEP last, at most
    max_len long, equal to the earlier formulas; targets inside the body,
    over MASK ids only."""
    rng = _rng(41)
    corpus = [random_document(rng, str(i), min_identifiers=2, max_identifiers=12) for i in range(12)]
    vocab = build_vocab(corpus)
    cfg = MaskingConfig(threshold=0.4)
    instances = {i.pmid: i for i in build_pretraining_instances(corpus, vocab, cfg, 3, max_len)}
    for doc in corpus:
        tok = tokenize_document(doc, vocab)
        for pair in candidate_pairs(doc):
            ids = insert_pair_tags(tok, doc, pair.src_id, pair.tgt_id, vocab, max_len)
            assert ids[0] == CLS_ID and ids[-1] == SEP_ID and len(ids) <= max_len
            assert ids == _framed_pair_tags_formula(tok, doc, pair.src_id, pair.tgt_id, vocab, max_len)
        if len(doc.groundable_identifiers()) < 2:
            assert doc.pmid not in instances
            continue
        expected = _framed_instance_formula(tok, doc, _selection(doc, cfg, 3), vocab, max_len)
        if expected is None:
            assert doc.pmid not in instances
            continue
        inst = instances[doc.pmid]
        assert inst == expected
        assert inst.token_ids[0] == CLS_ID and inst.token_ids[-1] == SEP_ID and len(inst.token_ids) <= max_len
        for t in inst.masked_targets:
            assert 1 <= t.token_start < t.token_end <= len(inst.token_ids) - 1
            assert all(inst.token_ids[j] == MASK_ID for j in range(t.token_start, t.token_end))


@settings(max_examples=50, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    seed=st.integers(0, 2**32 - 1),
    n_docs=st.integers(1, 4),
    threshold=st.floats(0.0, 1.0),
    epoch_seed=st.integers(0, 2**32 - 1),
    max_len=st.integers(8, 64),
)
def test_builder_emits_valid_instances_and_accounts_for_every_document(
    caplog, seed, n_docs, threshold, epoch_seed, max_len
):
    """Every instance is framed, its targets lie over MASK ids and leave at
    least one groundable identifier unmasked; every document either
    yields an instance or is named in a ``masking skip`` record."""
    rng = _rng(seed)
    corpus = [random_document(rng, str(i), min_identifiers=1, max_identifiers=12) for i in range(n_docs)]
    vocab = build_vocab(corpus)
    caplog.clear()
    with caplog.at_level("INFO", logger="entrex.masking"):
        instances = build_pretraining_instances(corpus, vocab, MaskingConfig(threshold=threshold), epoch_seed, max_len)
    skipped = [r.args[0] for r in caplog.records if r.getMessage().startswith("masking skip")]
    assert sorted(skipped + [i.pmid for i in instances]) == sorted(d.pmid for d in corpus)
    docs = {d.pmid: d for d in corpus}
    for inst in instances:
        ids = inst.token_ids
        assert ids[0] == CLS_ID and ids[-1] == SEP_ID and len(ids) <= max_len
        for t in inst.masked_targets:
            assert set(ids[t.token_start : t.token_end]) == {MASK_ID}
        named = {vocab.identifier_labels[t.identifier_index] for t in inst.masked_targets}
        assert named < set(docs[inst.pmid].groundable_identifiers())


def _sha256_of_ints(rows):
    return hashlib.sha256(json.dumps(rows, separators=(",", ":")).encode("ascii")).hexdigest()


@pytest.fixture(scope="module")
def pinned_corpus():
    corpus = random_corpus(_rng(0), 20)
    return corpus, build_vocab(corpus)


def test_masked_instances_pin(pinned_corpus):
    """The masking draw, framing and targets of 20 documents over epoch seeds
    0-2, hashed as integers only; a change to any of them must update this pin."""
    corpus, vocab = pinned_corpus
    rows = [
        [epoch, int(inst.pmid), list(inst.token_ids), [list(astuple(t)) for t in inst.masked_targets]]
        for epoch in range(3)
        for inst in build_pretraining_instances(corpus, vocab, MaskingConfig(), epoch)
    ]
    assert len(rows) == 60
    assert _sha256_of_ints(rows) == "6e36ffbab30eebca1f23b6abeab7c6c9cf02b32cb9fd1c95a5e8918a4214578c"


def test_pair_tags_pin(pinned_corpus):
    """The tagged sequence of every candidate pair of the same corpus, hashed
    as integers only; one pair's target occurs only in a mention that also
    carries its source, so the pin covers nested tags too."""
    corpus, vocab = pinned_corpus
    rows, shared = [], 0
    for doc in corpus:
        tok = tokenize_document(doc, vocab)
        for pair in candidate_pairs(doc):
            rows.append([int(doc.pmid), list(insert_pair_tags(tok, doc, pair.src_id, pair.tgt_id, vocab))])
            shared += any({pair.src_id, pair.tgt_id} <= set(m.identifiers) for m in doc.mentions)
    assert (len(rows), shared) == (129, 1)
    assert _sha256_of_ints(rows) == "eec41a53fd7de89cd5211be09741488397b34fd3e7974c464765968e2c313148"
