"""Four-level micro scoring: match keys, counts, conventions and input checks."""

import itertools

import numpy as np
import pytest

from entrex.corpus import CorpusError, Document, Mention, RelationAnnotation, candidate_pairs
from entrex.evaluation import MatchLevel, evaluate, match_counts, match_key, prf
from entrex.synthetic import random_corpus


def _doc(pmid, identifiers, relations=()):
    """Title "t" and one abstract word per identifier, its only mention."""
    starts = itertools.accumulate((len(i) + 1 for i in identifiers), initial=2)
    mentions = tuple(Mention(s, s + len(i), i, "Chemical", (i,)) for s, i in zip(starts, identifiers))
    return Document(pmid, "t", " ".join(identifiers), mentions, tuple(RelationAnnotation(*r) for r in relations))


def _rels(*specs):
    return [RelationAnnotation(*s) for s in specs]


GOLD = [
    _doc("1", ["C1", "G1", "D1"], [("C1", "G1", "Bind", "Novel"), ("C1", "D1", "Assoc", "No")]),
    _doc("2", ["C1", "G1", "C2", "D2", "G2"], [("C2", "D2", "Bind", "No")]),
]
PRED = {
    # pair and type right, novelty wrong; pair and novelty right, type wrong
    "1": _rels(("G1", "C1", "Bind", "No"), ("D1", "C1", "Bind", "No")),
    # a pair gold has in another document only; a pair absent from gold;
    # pair and novelty right, type wrong
    "2": _rels(("C1", "G1", "Bind", "Novel"), ("C2", "G2", "Bind", "No"), ("C2", "D2", "Assoc", "No")),
}


def test_four_levels_on_a_hand_built_set():
    report = evaluate(GOLD, PRED)
    counts = {lvl: (m.tp, m.fp, m.fn) for lvl, m in report.levels.items()}
    assert counts == {
        MatchLevel.PAIR: (3, 2, 0),
        MatchLevel.PAIR_TYPE: (1, 4, 2),
        MatchLevel.PAIR_NOVELTY: (2, 3, 1),
        MatchLevel.PAIR_TYPE_NOVELTY: (0, 5, 3),
    }
    pair = report.levels[MatchLevel.PAIR]
    assert (pair.precision, pair.recall) == (0.6, 1.0)
    assert pair.f1 == pytest.approx(0.75)
    per_type = {t: (m.tp, m.fp, m.fn) for t, m in report.per_relation_type.items()}
    assert per_type == {"Bind": (1, 3, 1), "Assoc": (0, 1, 1)}


def test_match_key_ignores_endpoint_order_and_refines_by_level():
    a = RelationAnnotation("G1", "C1", "Bind", "Novel")
    b = RelationAnnotation("C1", "G1", "Bind", "Novel")
    for level in MatchLevel:
        assert match_key("7", a, level) == match_key("7", b, level)
    assert match_key("7", a, MatchLevel.PAIR) == ("7", ("C1", "G1"))
    assert match_key("7", a, MatchLevel.PAIR_TYPE) == ("7", ("C1", "G1"), "Bind")
    assert match_key("7", a, MatchLevel.PAIR_NOVELTY) == ("7", ("C1", "G1"), "Novel")
    assert match_key("7", a, MatchLevel.PAIR_TYPE_NOVELTY) == ("7", ("C1", "G1"), "Bind", "Novel")


def test_prf_conventions():
    assert prf(0, 0, 0) == (1.0, 1.0, 1.0)
    assert prf(0, 3, 0) == (0.0, 0.0, 0.0)
    assert prf(0, 0, 2) == (0.0, 0.0, 0.0)
    assert prf(0, 1, 1) == (0.0, 0.0, 0.0)
    p, r, f = prf(2, 2, 0)
    assert (p, r) == (0.5, 1.0)
    assert f == pytest.approx(2 / 3)
    with pytest.raises(ValueError):
        prf(1, -1, 0)


def test_empty_gold_and_predictions_score_one():
    report = evaluate([_doc("1", ["C1", "G1"])], {})
    assert all(m.f1 == 1.0 for m in report.levels.values())
    assert report.per_relation_type == {}


def test_duplicate_gold_relations_rejected():
    with pytest.raises(CorpusError, match="duplicate relations") as err:
        _doc("1", ["C1", "G1"], [("C1", "G1", "Bind", "No"), ("G1", "C1", "Assoc", "Novel")])
    assert err.value.pmid == "1"


def test_duplicate_predicted_relations_rejected():
    pred = {"1": _rels(("C1", "G1", "Bind", "No"), ("G1", "C1", "Bind", "Novel"))}
    with pytest.raises(ValueError, match="duplicate predicted relations"):
        evaluate(GOLD, pred)
    with pytest.raises(ValueError, match="duplicate predicted relations"):
        match_counts([], [("1", r) for r in pred["1"]], MatchLevel.PAIR_TYPE)


def test_prediction_for_unknown_document_rejected():
    with pytest.raises(CorpusError, match="unknown document") as err:
        evaluate(GOLD, {"999": _rels(("C1", "G1", "Bind", "No"))})
    assert err.value.pmid == "999"


def test_predicted_endpoint_without_mention_rejected():
    with pytest.raises(CorpusError, match="'X9' has no mention") as err:
        evaluate(GOLD, {"1": _rels(("C1", "X9", "Bind", "No"))})
    assert err.value.pmid == "1"


@pytest.mark.parametrize(
    "relation, fragment",
    [
        (("C1", "G1", "Bind", "Maybe"), "unknown novelty label 'Maybe'"),
        (("C1", "C1", "Bind", "No"), "self-relation"),
        (("C1", "G1", "None", "Novel"), "'None' is reserved"),
    ],
)
def test_invalid_predicted_relation_rejected(relation, fragment):
    with pytest.raises(CorpusError, match=fragment) as err:
        evaluate(GOLD, {"1": _rels(relation)})
    assert err.value.pmid == "1"


def test_match_counts_rejects_the_reserved_relation_label():
    """A ``None`` relation is an unrelated pair, never a match at the pair level."""
    none = RelationAnnotation("C1", "G1", "None", "Novel")
    for gold, pred in (([], [("1", none)]), ([("1", none)], [])):
        with pytest.raises(CorpusError, match="'None' is reserved") as err:
            match_counts(gold, pred, MatchLevel.PAIR)
        assert err.value.pmid == "1"


def _reference_per_type(gold_pairs, pred_pairs):
    """Per-type counts by filtering both sides on the type and re-keying."""
    types = sorted({r.relation_type for _, r in gold_pairs} | {r.relation_type for _, r in pred_pairs})
    return {
        t: match_counts(
            [(p, r) for p, r in gold_pairs if r.relation_type == t],
            [(p, r) for p, r in pred_pairs if r.relation_type == t],
            MatchLevel.PAIR_TYPE,
        )
        for t in types
    }


@pytest.mark.parametrize("seed", range(5))
def test_counts_match_reference_on_random_predictions(seed):
    rng = np.random.default_rng(seed)
    docs = random_corpus(rng, 12, max_identifiers=7)
    gold_types = sorted({r.relation_type for d in docs for r in d.relations})
    types = gold_types + ["Unseen"]
    predictions = {}
    for doc in docs:
        gold = {r.pair_key(): r for r in doc.relations}
        rels = []
        for pair in candidate_pairs(doc):
            if rng.random() < 0.5:
                continue
            g = gold.get((pair.src_id, pair.tgt_id))
            rel_type = g.relation_type if g is not None and rng.random() < 0.6 else str(rng.choice(types))
            novelty = str(rng.choice(("No", "Novel")))
            ends = (pair.src_id, pair.tgt_id) if rng.random() < 0.5 else (pair.tgt_id, pair.src_id)
            rels.append(RelationAnnotation(*ends, rel_type, novelty))
        if rels or rng.random() < 0.5:
            predictions[doc.pmid] = rels

    report = evaluate(docs, predictions)
    gold_pairs = [(d.pmid, r) for d in docs for r in d.relations]
    pred_pairs = [(p, r) for p, rels in predictions.items() for r in rels]
    for level in MatchLevel:
        m = report.levels[level]
        assert (m.tp, m.fp, m.fn) == match_counts(gold_pairs, pred_pairs, level)
    per_type = {t: (m.tp, m.fp, m.fn) for t, m in report.per_relation_type.items()}
    assert per_type == _reference_per_type(gold_pairs, pred_pairs)
    assert list(report.per_relation_type) == sorted(per_type)
    assert report.levels[MatchLevel.PAIR].tp > 0
