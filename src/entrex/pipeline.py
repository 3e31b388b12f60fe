"""The experiment as one code path: pretrain, fine-tune, predict.

A training step (:func:`train_step`) checks that the loss is finite, naming
the PMID and the pair if any, then runs ``backward()`` and one Adam update
over the step's parameter view; the caller owns the step order, the dropout
rng and the ``AdamState``.  The views keep each stage's heads out of the
other, so fine-tuning starts from the pretrained encoder and the initial
pair heads.  The decode rule: a pair is related when its relation argmax is
not the reserved ``None``; its novelty is then the argmax over ``No``/``Novel``.
Non-finite logits raise.  The model's vocabulary, ``mdl.vocab``, tags pairs,
indexes labels and decodes; only ``run`` takes one.  Library calls go through
module attributes (``optim.adam_step``, ...) so a tracer sees them.
"""

from __future__ import annotations

import math
from typing import Mapping, Sequence

import numpy as np

from . import corpus, masking, model, optim, tokenizer
from .autograd import Tensor
from .corpus import Document, PairCandidate, RelationAnnotation
from .tokenizer import TokenizedDocument, Vocabulary


def _where(pmid: str, pair: PairCandidate | None) -> str:
    return f"PMID {pmid}" if pair is None else f"PMID {pmid} pair {pair.src_id}/{pair.tgt_id}"


def train_step(
    loss: Tensor, params: Mapping[str, Tensor], state: optim.AdamState, pmid: str, pair: PairCandidate | None
) -> float:
    """Check that ``loss`` is finite, back-propagate it and update ``params``; returns the loss."""
    value = loss.item()
    if not math.isfinite(value):
        raise FloatingPointError(f"{_where(pmid, pair)}: non-finite loss {value}")
    loss.backward()
    optim.adam_step(params, state)
    return value


def pretrain_step(mdl: model.RelationModel, instance: masking.MaskedInstance, state, rng) -> float:
    loss = mdl.pretrain_loss(instance, train=True, rng=rng)
    return train_step(loss, mdl.pretrain_parameters(), state, instance.pmid, None)


def finetune_step(
    mdl: model.RelationModel, tok: TokenizedDocument, doc: Document, pair: PairCandidate, state, rng
) -> float:
    """One step on one candidate pair of ``doc``, whose tokenization is ``tok``."""
    ids = tokenizer.insert_pair_tags(tok, doc, pair.src_id, pair.tgt_id, mdl.vocab, mdl.cfg.max_len)
    rel, nov = mdl.finetune_forward(ids, train=True, rng=rng)
    rel_index, nov_index = mdl.vocab.relation_index(pair.relation_label), mdl.vocab.novelty_index(pair.novelty_label)
    loss = model.finetune_loss(rel, nov, rel_index, nov_index, model.LossWeights())
    return train_step(loss, mdl.finetune_parameters(), state, doc.pmid, pair)


def predict_pair(
    mdl: model.RelationModel, tok: TokenizedDocument, doc: Document, pair: PairCandidate
) -> RelationAnnotation | None:
    """The relation decoded for one candidate pair, or None when it is unrelated."""
    ids = tokenizer.insert_pair_tags(tok, doc, pair.src_id, pair.tgt_id, mdl.vocab, mdl.cfg.max_len)
    rel, nov = mdl.finetune_forward(ids)
    if not (np.isfinite(rel.data).all() and np.isfinite(nov.data).all()):
        raise FloatingPointError(f"{_where(doc.pmid, pair)}: non-finite logits")
    r, n = int(np.argmax(rel.data)), 1 + int(np.argmax(nov.data[1:]))  # novelty index 0 is NoneClass
    if r == 0:  # the reserved None
        return None
    return RelationAnnotation(pair.src_id, pair.tgt_id, mdl.vocab.relation_labels[r], mdl.vocab.novelty_labels[n])


def run(
    docs: Sequence[Document], vocab: Vocabulary, cfg: model.EncoderConfig, lr: float,
    pretrain_epochs: int, finetune_epochs: int, seed: int,
) -> tuple[model.RelationModel, list[float], list[float]]:
    """Pretrain, then fine-tune on every candidate pair of ``docs``; the model and step losses.

    The parameter views start fine-tuning from the initial relation and novelty heads and leave the identifier
    and type heads pretrained.  ``seed`` spawns the streams of the initial weights, dropout, each epoch's masking
    seed and pair order.  Both epoch counts must be non-negative ``int``s.
    """
    for name, epochs in (("pretrain_epochs", pretrain_epochs), ("finetune_epochs", finetune_epochs)):
        if type(epochs) is not int or epochs < 0:  # refuses bool and numpy integers as well
            raise ValueError(f"{name} must be a non-negative integer, got {epochs!r}")
    init_rng, dropout_rng, masking_rng, order_rng = map(np.random.default_rng, np.random.SeedSequence(seed).spawn(4))
    mdl = model.RelationModel(cfg, vocab, init_rng)
    state, pretrain_losses = optim.AdamState(lr=lr), []
    for epoch_seed in masking_rng.integers(2**63, size=pretrain_epochs).tolist():
        for inst in masking.build_pretraining_instances(docs, vocab, masking.MaskingConfig(), epoch_seed, cfg.max_len):
            pretrain_losses.append(pretrain_step(mdl, inst, state, dropout_rng))
    toks = [tokenizer.tokenize_document(doc, vocab) for doc in docs]
    examples = [(tok, doc, pair) for tok, doc in zip(toks, docs) for pair in corpus.candidate_pairs(doc)]
    state, finetune_losses = optim.AdamState(lr=lr), []
    for _ in range(finetune_epochs):
        for i in order_rng.permutation(len(examples)):
            finetune_losses.append(finetune_step(mdl, *examples[i], state, dropout_rng))
    return mdl, pretrain_losses, finetune_losses


def predict(mdl: model.RelationModel, docs: Sequence[Document]) -> dict[str, list]:
    """The relations decoded over every candidate pair of each document, by PMID.

    A pair of 128 or more tagged tokens runs every encoder block but the last as two row halves, one on the
    process's worker thread (``RelationModel.encode``); the decoded relations are as with one thread.
    """
    predicted = {}
    for doc in docs:
        tok = tokenizer.tokenize_document(doc, mdl.vocab)
        decoded = (predict_pair(mdl, tok, doc, pair) for pair in corpus.candidate_pairs(doc))
        predicted[doc.pmid] = [r for r in decoded if r is not None]
    return predicted
