"""Micro precision/recall/F1 scoring of predicted relations at four levels.

Matching keys refine from the bare unordered identifier pair up to the
pair plus relation type plus novelty.  Counts are pooled across all
documents (micro averaging) before the metrics are computed.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from typing import Collection, Mapping, Sequence

from .corpus import Document, RelationAnnotation, canonical_pair, validate_predictions


class MatchLevel(Enum):
    PAIR = "pair"
    PAIR_TYPE = "pair+type"
    PAIR_NOVELTY = "pair+novelty"
    PAIR_TYPE_NOVELTY = "pair+type+novelty"


def prf(tp: int, fp: int, fn: int) -> tuple[float, float, float]:
    """Precision, recall, F1 with the degenerate-count conventions.

    All-zero counts score 1.0 (nothing to find, nothing found); zero TP
    with any FP or FN scores 0.0.
    """
    if tp < 0 or fp < 0 or fn < 0:
        raise ValueError("counts must be non-negative")
    if tp == 0:
        return (1.0, 1.0, 1.0) if fp == 0 and fn == 0 else (0.0, 0.0, 0.0)
    p = tp / (tp + fp)
    r = tp / (tp + fn)
    return p, r, 2.0 * p * r / (p + r)


@dataclass(frozen=True)
class LevelMetrics:
    tp: int
    fp: int
    fn: int
    precision: float
    recall: float
    f1: float

    @classmethod
    def from_counts(cls, tp: int, fp: int, fn: int) -> "LevelMetrics":
        p, r, f = prf(tp, fp, fn)
        return cls(tp, fp, fn, p, r, f)

    def to_json_dict(self) -> dict:
        return {
            "tp": self.tp, "fp": self.fp, "fn": self.fn,
            "precision": round(self.precision, 6),
            "recall": round(self.recall, 6),
            "f1": round(self.f1, 6),
        }


@dataclass(frozen=True)
class MetricsReport:
    levels: dict[MatchLevel, LevelMetrics]
    per_relation_type: dict[str, LevelMetrics]

    def to_json_dict(self) -> dict:
        return {
            "levels": {lvl.value: m.to_json_dict() for lvl, m in self.levels.items()},
            "per_relation_type": {
                t: m.to_json_dict() for t, m in sorted(self.per_relation_type.items())
            },
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, indent=2) + "\n"


def evaluate(
    gold_corpus: Sequence[Document],
    predictions: Mapping[str, Collection[RelationAnnotation]],
) -> MetricsReport:
    """Score predictions against gold relations, pooled across documents.

    :func:`~entrex.corpus.validate_predictions` checks the predictions with
    the relation rules each gold :class:`~entrex.corpus.Document` passed, so
    PMIDs are unique and a document holds at most one relation per pair,
    gold or predicted, and returns them keyed by their ``canonical_pair``.
    So one dict from ``(pmid, canonical_pair)`` to the gold relation is
    exact: a prediction can match only the relation it finds there, and a
    level's TP counts the matches that agree on the fields the level names.
    FP is predictions minus TP, and FN is gold minus TP.
    """
    predicted = validate_predictions(gold_corpus, predictions)
    gold = {(doc.pmid, canonical_pair(r.id_a, r.id_b)): r for doc in gold_corpus for r in doc.relations}
    gold_by_type = Counter(rel.relation_type for rel in gold.values())
    pred_by_type, tp_by_type = Counter(), Counter()
    tp_pair = tp_type = tp_novelty = tp_both = 0
    for pmid, keyed in predicted.items():
        for pair, rel in keyed.items():
            pred_by_type[rel.relation_type] += 1
            match = gold.get((pmid, pair))
            if match is not None:
                same_type, same_novelty = match.relation_type == rel.relation_type, match.novelty == rel.novelty
                tp_pair += 1
                tp_type += same_type
                tp_novelty += same_novelty
                tp_both += same_type and same_novelty
                tp_by_type[rel.relation_type] += same_type
    n_pred = pred_by_type.total()
    tp = dict(zip(MatchLevel, (tp_pair, tp_type, tp_novelty, tp_both)))  # in MatchLevel's declared order
    levels = {
        level: LevelMetrics.from_counts(tp[level], n_pred - tp[level], len(gold) - tp[level]) for level in MatchLevel
    }
    per_type = {
        t: LevelMetrics.from_counts(tp_by_type[t], pred_by_type[t] - tp_by_type[t], gold_by_type[t] - tp_by_type[t])
        for t in sorted(gold_by_type.keys() | pred_by_type.keys())
    }
    return MetricsReport(levels=levels, per_relation_type=per_type)
