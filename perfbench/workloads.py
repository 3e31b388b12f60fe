"""The benchmark's two workloads: train and predict_long.

Each workload is one closed loop with a single caller and batch size 1:
the next operation starts only after the previous one returns.  It has
three parts:

* ``make_input(seed, tiny)`` generates documents with ``entrex.synthetic``
  and serialises them to PubTator text.  This is not timed; the program
  only ever sees the text.
* ``setup(text, seed)`` parses the text, builds the vocabulary and
  constructs the ``RelationModel``.  This is ``setup_s``.
* ``unit(state)`` does a fixed amount of work, the same on every call, and
  returns the time of each timed operation, in the same order on every
  call, plus its outputs.  The runner sets up afresh before every unit and
  repeats until the run's time is up.

Every library call goes through a module or class attribute
(``corpus.parse_pubtator``, ``optim.adam_step``, ...) so that the traced
run can wrap it.

Documents are generated one per identifier count, cycling through the
workload's range, so every seed has the same mix of document sizes; only
the text and the annotations change with the seed.
"""

from __future__ import annotations

import hashlib
import math
import sys
import traceback
from dataclasses import dataclass, field
from itertools import cycle, islice
from time import perf_counter

import numpy as np

from entrex import corpus, evaluation, masking, model, optim, synthetic, tokenizer

# Pretraining and fine-tuning use the same Adam learning rate, large
# enough for the final-epoch losses to show that training works.
LEARNING_RATE = 1e-3


@dataclass
class UnitResult:
    ops: int                # operations attempted in this unit
    failed: int             # operations that raised or gave non-finite values
    op_seconds: list[float]  # one time per timed operation that completed
    model_ops: int          # training steps or predicted pairs
    outputs: dict           # what the checks and the fingerprint look at
    info: dict = field(default_factory=dict)


def _report_failure(what: str) -> None:
    print(f"perfbench: {what} failed", file=sys.stderr)
    traceback.print_exc(file=sys.stderr)


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


def _generate(seed: int, stream: int, identifier_counts, n_docs: int, max_mentions: int):
    rng = _rng(seed, stream)
    return [
        synthetic.random_document(
            rng,
            str(10000 + i),
            min_identifiers=k,
            max_identifiers=k,
            max_mentions_per_identifier=max_mentions,
        )
        for i, k in enumerate(islice(cycle(identifier_counts), n_docs))
    ]


def _sample_pairs(pairs, n: int, rng: np.random.Generator):
    """n candidate pairs drawn without replacement, kept in candidate order."""
    if n >= len(pairs):
        return list(pairs)
    return [pairs[i] for i in sorted(rng.choice(len(pairs), size=n, replace=False))]


def _model_setup(text: str, seed: int):
    docs = corpus.parse_pubtator(text)
    vocab = tokenizer.build_vocab(docs)
    mdl = model.RelationModel(model.EncoderConfig(), vocab, _rng(seed, 1))
    return docs, vocab, mdl


def _finite(*tensors) -> bool:
    return all(np.all(np.isfinite(t.data)) for t in tensors)


class Train:
    """Pretrain, transfer, fine-tune: the only workload with backward and Adam.

    Abstract-scale documents (8-14 identifiers, about 74 tokens and 57
    candidate pairs each).  Pretraining runs ``pretrain_epochs`` over the
    first ``n_pretrain_docs`` documents; fine-tuning runs
    ``finetune_epochs`` over ``pairs_per_doc`` sampled candidate pairs of
    every document, so fine-tuning steps outnumber pretraining steps as
    they do in the full pipeline.  One pair from each of many documents,
    rather than many pairs from a few, keeps the sequence lengths, and so
    the timings, steady from seed to seed.  Every step counts in ``ops``;
    ``op_seconds`` holds the fine-tuning steps only, so the percentiles
    describe one kind of step.  Each unit restarts from the same initial
    weights, so its losses repeat bit for bit.
    """

    name = "train"
    identifier_counts = range(8, 15)

    def __init__(self, tiny: bool):
        self.n_docs = 3 if tiny else 112
        self.n_pretrain_docs = 3 if tiny else 28  # every identifier count, four times
        self.pretrain_epochs = 1
        self.finetune_epochs = 1
        self.pairs_per_doc = 1

    def make_input(self, seed: int) -> list:
        return _generate(seed, 0, self.identifier_counts, self.n_docs, max_mentions=3)

    def setup(self, text: str, seed: int):
        docs, vocab, mdl = _model_setup(text, seed)
        return {"docs": docs, "vocab": vocab, "model": mdl, "init": mdl.state_arrays(), "seed": seed}

    def unit(self, state) -> UnitResult:
        docs, vocab, mdl = state["docs"], state["vocab"], state["model"]
        max_len = mdl.cfg.max_len
        mdl.load_state(state["init"])
        dropout_rng = _rng(state["seed"], 2)
        times: list[float] = []  # fine-tuning steps only
        failed = 0

        start = perf_counter()
        adam = optim.AdamState(lr=LEARNING_RATE)
        masking_cfg = masking.MaskingConfig()
        pretrain_losses: list[float] = []
        pretrain_steps = 0
        for epoch in range(self.pretrain_epochs):
            instances = masking.build_pretraining_instances(
                docs[: self.n_pretrain_docs], vocab, masking_cfg, epoch_seed=epoch, max_len=max_len
            )
            pretrain_losses = []
            for inst in instances:
                pretrain_steps += 1
                try:
                    loss = mdl.pretrain_loss(inst, train=True, rng=dropout_rng)
                    if not _finite(loss):
                        raise FloatingPointError(f"pretrain loss {loss.item()} on {inst.pmid}")
                    loss.backward()
                    optim.adam_step(mdl.pretrain_parameters(), adam)
                except Exception:
                    _report_failure(f"pretrain step on {inst.pmid}")
                    failed += 1
                    continue
                pretrain_losses.append(loss.item())
        pretrain_seconds = perf_counter() - start

        start = perf_counter()
        pretrained = mdl.state_arrays()
        mdl.load_state(state["init"])
        mdl.load_state(pretrained, transfer_only=True)
        pair_rng = _rng(state["seed"], 3)
        examples = []
        for doc in docs:
            tok = tokenizer.tokenize_document(doc, vocab)
            for pair in _sample_pairs(corpus.candidate_pairs(doc), self.pairs_per_doc, pair_rng):
                examples.append((doc, tok, pair))
        adam = optim.AdamState(lr=LEARNING_RATE)
        weights = model.LossWeights()
        finetune_losses: list[float] = []
        for _ in range(self.finetune_epochs):
            finetune_losses = []
            for doc, tok, pair in examples:
                t0 = perf_counter()
                try:
                    ids = tokenizer.insert_pair_tags(tok, doc, pair.src_id, pair.tgt_id, vocab, max_len)
                    rel, nov = mdl.finetune_forward(ids, train=True, rng=dropout_rng)
                    loss = model.finetune_loss(
                        rel,
                        nov,
                        vocab.relation_index(pair.relation_label),
                        vocab.novelty_index(pair.novelty_label),
                        weights,
                    )
                    if not _finite(rel, nov, loss):
                        raise FloatingPointError(f"fine-tune loss {loss.item()} on {doc.pmid}")
                    loss.backward()
                    optim.adam_step(mdl.finetune_parameters(), adam)
                except Exception:
                    _report_failure(f"fine-tune step on {doc.pmid} {pair.src_id}/{pair.tgt_id}")
                    failed += 1
                    continue
                times.append(perf_counter() - t0)
                finetune_losses.append(loss.item())
        finetune_seconds = perf_counter() - start
        finetune_steps = self.finetune_epochs * len(examples)

        steps = pretrain_steps + finetune_steps
        losses = {
            "pretrain_loss_last": _mean(pretrain_losses),
            "finetune_loss_last": _mean(finetune_losses),
        }
        return UnitResult(
            ops=steps,
            failed=failed,
            op_seconds=times,
            model_ops=steps,
            outputs={"losses": losses},
            info={
                "pretrain_docs_per_s": pretrain_steps / pretrain_seconds,
                "finetune_pairs_per_s": finetune_steps / finetune_seconds,
                **losses,
            },
        )

    def fingerprint(self, result: UnitResult):
        return tuple(result.outputs["losses"].values())

    def checks(self, state, result: UnitResult) -> dict[str, bool]:
        losses = result.outputs["losses"].values()
        return {"training_losses_finite": result.failed == 0 and all(map(math.isfinite, losses))}


def _mean(values: list[float]) -> float:
    return sum(values) / len(values) if values else float("nan")


class PredictLong:
    """Forward-only prediction over candidate pairs of long documents.

    24-40 identifiers with up to 4 mentions each, about 250 tokens and 510
    candidate pairs per document.  ``pairs_per_doc`` pairs are sampled from
    every document, so the unit covers many document lengths.  Weights are
    a seeded fresh init; no backward, no Adam.
    """

    name = "predict_long"
    identifier_counts = range(24, 41)

    def __init__(self, tiny: bool):
        self.n_docs = 2 if tiny else 51
        self.pairs_per_doc = 2

    def make_input(self, seed: int) -> list:
        return _generate(seed, 10, self.identifier_counts, self.n_docs, max_mentions=4)

    def setup(self, text: str, seed: int):
        docs, vocab, mdl = _model_setup(text, seed)
        return {"docs": docs, "vocab": vocab, "model": mdl, "seed": seed}

    def unit(self, state) -> UnitResult:
        docs, vocab, mdl = state["docs"], state["vocab"], state["model"]
        pair_rng = _rng(state["seed"], 11)
        times: list[float] = []
        failed = 0
        attempted = 0
        predicted: dict[str, list] = {}
        for doc in docs:
            tok = tokenizer.tokenize_document(doc, vocab)
            pairs = _sample_pairs(corpus.candidate_pairs(doc), self.pairs_per_doc, pair_rng)
            relations = []
            for pair in pairs:
                attempted += 1
                t0 = perf_counter()
                try:
                    ids = tokenizer.insert_pair_tags(tok, doc, pair.src_id, pair.tgt_id, vocab, mdl.cfg.max_len)
                    rel, nov = mdl.finetune_forward(ids)
                    if not _finite(rel, nov):
                        raise FloatingPointError(f"non-finite logits on {doc.pmid}")
                    r = int(np.argmax(rel.data))
                    if r != 0:  # index 0 is the reserved no-relation label
                        # argmax over No/Novel; index 0 is the no-relation novelty label
                        n = 1 + int(np.argmax(nov.data[1:]))
                        relations.append(
                            corpus.RelationAnnotation(
                                pair.src_id, pair.tgt_id, vocab.relation_labels[r], vocab.novelty_labels[n]
                            )
                        )
                except Exception:
                    _report_failure(f"prediction on {doc.pmid} {pair.src_id}/{pair.tgt_id}")
                    failed += 1
                    continue
                times.append(perf_counter() - t0)
            predicted[doc.pmid] = relations
        text = corpus.write_pubtator(docs, predicted)
        report = evaluation.evaluate(docs, predicted)
        return UnitResult(
            ops=attempted,
            failed=failed,
            op_seconds=times,
            model_ops=attempted,
            outputs={"text": text, "predicted": predicted},
            info={
                "predicted_relations": sum(map(len, predicted.values())),
                "pair_f1": report.levels[evaluation.MatchLevel.PAIR].f1,
            },
        )

    def fingerprint(self, result: UnitResult):
        return hashlib.sha256(result.outputs["text"].encode("utf-8")).hexdigest()

    def checks(self, state, result: UnitResult) -> dict[str, bool]:
        docs = state["docs"]
        predicted = result.outputs["predicted"]
        try:
            parsed = corpus.parse_pubtator(result.outputs["text"])
        except corpus.CorpusError:
            _report_failure("parsing the predicted PubTator")
            parsed = None
        parses_back = parsed is not None and [d.pmid for d in parsed] == [d.pmid for d in docs] and all(
            list(d.relations) == predicted[d.pmid] for d in parsed
        )
        candidates = {
            doc.pmid: {(p.src_id, p.tgt_id) for p in corpus.candidate_pairs(doc)} for doc in docs
        }
        are_candidates = all(
            (r.id_a, r.id_b) in candidates[pmid] for pmid, rels in predicted.items() for r in rels
        )
        return {
            "predictions_parse_back": parses_back,
            "predicted_pairs_are_candidates": are_candidates,
        }


def _all_f1_one(report) -> bool:
    return len(report.levels) == 4 and all(m.f1 == 1.0 for m in report.levels.values())


def run_checks(workload, text: str, docs, state, result: UnitResult) -> dict[str, bool]:
    """The checks every workload shares, then the workload's own on one unit."""
    gold = evaluation.evaluate(docs, {doc.pmid: doc.relations for doc in docs})
    return {
        "input_parses_to_generated_docs": corpus.parse_pubtator(text) == docs,
        "evaluate_gold_against_gold_f1": _all_f1_one(gold),
        **workload.checks(state, result),
    }


def input_stats(docs) -> dict:
    """Per-document traffic, so a later run can be checked to use the same."""
    vocab = tokenizer.build_vocab(docs)
    instances = masking.build_pretraining_instances(docs, vocab, masking.MaskingConfig(), epoch_seed=0)
    n = len(docs)
    return {
        "docs": n,
        "tokens_per_doc": sum(len(tokenizer.tokenize_document(d, vocab).token_ids) for d in docs) / n,
        "pairs_per_doc": sum(len(corpus.candidate_pairs(d)) for d in docs) / n,
        "masked_targets_per_doc": sum(len(i.masked_targets) for i in instances) / n,
        "vocab_tokens": len(vocab),
    }


WORKLOADS = {w.name: w for w in (Train, PredictLong)}
