"""The pipeline: one training step, the decode rule, and whole runs."""

import ast
import importlib.util
import inspect
import re
from pathlib import Path

import numpy as np
import pytest

from entrex import corpus, evaluation, masking, pipeline, synthetic, tokenizer
from entrex.evaluation import MatchLevel
from entrex.model import EncoderConfig, RelationModel
from entrex.optim import AdamState

ROOT = Path(__file__).resolve().parent.parent

TINY = EncoderConfig(d_model=16, n_layers=1, n_heads=2, ffn_dim=32)


def _one_pair(seed=0):
    """A fresh tiny model, the fixture vocabulary, and the first pair of document 9001."""
    train = synthetic.fixture_train_corpus()
    vocab, doc = tokenizer.build_vocab(train), train[0]
    mdl = RelationModel(TINY, vocab, np.random.default_rng(seed))
    return mdl, vocab, doc, tokenizer.tokenize_document(doc, vocab), corpus.candidate_pairs(doc)[0]


def _load_tracing():
    """A fresh copy of the benchmark's tracer module, loaded by path."""
    spec = importlib.util.spec_from_file_location("perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def _rig_logits(mdl, head, logits):
    """Make ``head``'s logits equal ``logits`` whatever the input."""
    mdl.params[f"head.{head}.w2"].data[:] = 0.0
    mdl.params[f"head.{head}.b2"].data[:] = logits


def test_predict_pair_decode_rule():
    """Relation argmax 0 is no relation; otherwise the novelty is the argmax over No/Novel."""
    mdl, vocab, doc, tok, pair = _one_pair()
    n_rel = len(vocab.relation_labels)
    assert vocab.relation_labels[0] == "None" and vocab.novelty_labels == ("NoneClass", "No", "Novel")

    _rig_logits(mdl, "relation", np.arange(n_rel, 0, -1))  # index 0 largest
    _rig_logits(mdl, "novelty", [0.0, 1.0, 9.0])  # Novel favoured
    assert pipeline.predict_pair(mdl, tok, doc, pair) is None

    for r in range(1, n_rel):
        _rig_logits(mdl, "relation", np.eye(n_rel)[r] * 5.0)
        for novelty_logits, n in (([9.0, 2.0, 1.0], 1), ([9.0, 1.0, 2.0], 2)):  # NoneClass is the largest
            _rig_logits(mdl, "novelty", novelty_logits)
            got = pipeline.predict_pair(mdl, tok, doc, pair)
            assert got == corpus.RelationAnnotation(
                pair.src_id, pair.tgt_id, vocab.relation_labels[r], vocab.novelty_labels[n]
            )


def test_steps_reject_a_non_finite_loss_before_backward():
    """A NaN head bias: the step raises naming the PMID (and pair) before any gradient or update."""
    mdl, vocab, doc, tok, pair = _one_pair(seed=1)
    inst = masking.build_pretraining_instances([doc], vocab, masking.MaskingConfig(), epoch_seed=0)[0]
    rng = np.random.default_rng(2)
    steps = [
        ("head.type.b", f"PMID {doc.pmid}: non-finite loss", lambda s: pipeline.pretrain_step(mdl, inst, s, rng)),
        (
            "head.relation.b2",
            f"PMID {doc.pmid} pair {pair.src_id}/{pair.tgt_id}: non-finite loss",
            lambda s: pipeline.finetune_step(mdl, tok, doc, pair, s, rng),
        ),
    ]
    for bias, message, step in steps:
        mdl.params[bias].data[0] = np.nan
        before = mdl.state_arrays()
        state = AdamState(lr=1e-3)
        with pytest.raises(FloatingPointError, match=re.escape(message)):
            step(state)
        assert state.step_count == 0
        assert all(p.grad is None for p in mdl.params.values())
        for name, value in before.items():
            np.testing.assert_array_equal(mdl.params[name].data, value, err_msg=name)
        mdl.params[bias].data[0] = 0.0


@pytest.mark.parametrize("head", ["relation", "novelty"])
def test_predict_pair_rejects_non_finite_logits(head):
    mdl, vocab, doc, tok, pair = _one_pair()
    _rig_logits(mdl, "relation", np.arange(len(vocab.relation_labels), 0, -1))  # would decode as no relation
    mdl.params[f"head.{head}.b2"].data[1] = np.nan
    with pytest.raises(FloatingPointError, match=f"PMID {doc.pmid} pair .*: non-finite logits"):
        pipeline.predict_pair(mdl, tok, doc, pair)


def test_training_run_is_bit_identical_on_rerun():
    """Pretrain and fine-tune with dropout and Adam, twice, then predict the dev split."""
    train, dev = synthetic.fixture_train_corpus(), synthetic.fixture_dev_corpus()
    vocab = tokenizer.build_vocab(train + dev)
    runs = []
    for seed in (5, 5, 6):
        mdl, pretrain_losses, finetune_losses = pipeline.run(train, vocab, TINY, 1e-3, 2, 2, seed)
        text = corpus.write_pubtator(dev, pipeline.predict(mdl, dev))
        runs.append((pretrain_losses, finetune_losses, mdl.state_arrays(), text))
    (pre_a, fine_a, state_a, text_a), (pre_b, fine_b, state_b, text_b), (pre_c, *_) = runs
    n_pairs = sum(len(corpus.candidate_pairs(doc)) for doc in train)
    assert len(pre_a) == 2 * len(train) and len(fine_a) == 2 * n_pairs
    assert pre_a == pre_b and fine_a == fine_b
    assert pre_c != pre_a  # the seed reaches the run
    assert state_a.keys() == state_b.keys()
    for name in state_a:
        np.testing.assert_array_equal(state_a[name], state_b[name], err_msg=name)
    assert text_a == text_b
    assert corpus.parse_pubtator(text_a)[0].pmid == dev[0].pmid


def test_run_arms_of_one_seed_share_their_heads():
    """Arm (a), no pretraining, and arm (b), two epochs of it, start fine-tuning from the same pair heads.

    Pretraining moves every other parameter, the identifier and type heads included.
    """
    train = synthetic.fixture_train_corpus()
    vocab = tokenizer.build_vocab(train)
    for seed in (1, 2):
        mdl_a, pretrain_a, _ = pipeline.run(train, vocab, TINY, 1e-3, 0, 0, seed)
        mdl_b, pretrain_b, _ = pipeline.run(train, vocab, TINY, 1e-3, 2, 0, seed)
        assert pretrain_a == [] and len(pretrain_b) == 2 * len(train)
        state_a, state_b = mdl_a.state_arrays(), mdl_b.state_arrays()
        for name in state_a:
            same = np.array_equal(state_a[name], state_b[name])
            assert same == name.startswith(("head.relation.", "head.novelty.")), name


def test_a_run_steps_the_models_one_buffer_where_it_lies(monkeypatch):
    """Both stages update the model's parameters in place: after the run, every ``.data`` is still a view of
    the one buffer the model was built with, and that buffer holds the model's parameters and nothing else."""
    train = synthetic.fixture_train_corpus()
    built = []

    def recording(*args):
        mdl = RelationModel(*args)
        built.append((mdl, next(iter(mdl.params.values())).data.base))
        return mdl

    monkeypatch.setattr(pipeline.model, "RelationModel", recording)
    mdl, pretrain_losses, finetune_losses = pipeline.run(train, tokenizer.build_vocab(train), TINY, 1e-3, 1, 1, 4)
    [(built_mdl, buffer)] = built
    assert built_mdl is mdl and pretrain_losses and finetune_losses
    assert all(p.data.base is buffer for p in mdl.params.values())
    assert buffer.size == sum(p.data.size for p in mdl.params.values())


def test_run_equals_a_run_with_the_benchmarks_transfer(monkeypatch):
    """Reloading the initial weights and then the pretrained encoder before fine-tuning changes nothing.

    This is the ``train`` unit's transfer: ``load_state(init)``, then
    ``load_state(pretrained, transfer_only=True)``, done here before the first
    fine-tuning step.
    """
    train, dev = synthetic.fixture_train_corpus(), synthetic.fixture_dev_corpus()
    vocab = tokenizer.build_vocab(train + dev)
    finetune_step = pipeline.finetune_step
    for seed in (1, 2):
        init = pipeline.run(train, vocab, TINY, 1e-3, 0, 0, seed)[0].state_arrays()
        mdl, pretrain_losses, finetune_losses = pipeline.run(train, vocab, TINY, 1e-3, 2, 2, seed)
        transferred = []

        def step_after_transfer(mdl, *args):
            if not transferred:
                pretrained = mdl.state_arrays()
                mdl.load_state(init)
                mdl.load_state(pretrained, transfer_only=True)
                transferred.append(True)
            return finetune_step(mdl, *args)

        with monkeypatch.context() as patch:
            patch.setattr(pipeline, "finetune_step", step_after_transfer)
            mdl_t, pretrain_t, finetune_t = pipeline.run(train, vocab, TINY, 1e-3, 2, 2, seed)
        assert transferred == [True]
        assert pretrain_t == pretrain_losses and finetune_t == finetune_losses
        assert pipeline.predict(mdl_t, dev) == pipeline.predict(mdl, dev)


@pytest.mark.parametrize(
    "name, value",
    [(name, value) for value in (-1, 1.5, True) for name in ("pretrain_epochs", "finetune_epochs")],
)
def test_run_rejects_an_impossible_epoch_count(name, value):
    train = synthetic.fixture_train_corpus()
    counts = {"pretrain_epochs": 1, "finetune_epochs": 1, name: value}
    with pytest.raises(ValueError, match=f"{name} must be a non-negative integer, got {value}"):
        pipeline.run(train, tokenizer.build_vocab(train), TINY, 1e-3, seed=1, **counts)


def test_library_calls_traced_functions_by_module_attribute():
    """A ``from .<module> import <name>`` of a function the tracer wraps would call it unseen."""
    wrapped = {(owner.__name__, attr) for owner, attr in _load_tracing().SPANS.values() if inspect.ismodule(owner)}
    found = []
    for path in sorted((ROOT / "src" / "entrex").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
                found += [
                    f"{path.name}: from .{node.module} import {alias.name}"
                    for alias in node.names
                    if (f"entrex.{node.module}", alias.name) in wrapped
                ]
    assert found == []


def test_traced_counts_of_a_run_and_a_prediction():
    """The benchmark's tracer sees every step: the pipeline calls library functions by module attribute."""
    tracing = _load_tracing()
    tracing.ALSO_WRAPPED.clear()  # so a call that bypasses a wrapped module attribute goes uncounted
    train, dev = synthetic.fixture_train_corpus(), synthetic.fixture_dev_corpus()
    vocab = tokenizer.build_vocab(train + dev)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        mdl, pretrain_losses, finetune_losses = pipeline.run(train, vocab, TINY, 1e-3, 1, 1, seed=1)
        pipeline.predict(mdl, dev)
    finally:
        tracer.uninstall()
    instances = tracer.counts["masking.build_pretraining_instances.instances"]
    steps = len(finetune_losses)
    predicted_pairs = sum(len(corpus.candidate_pairs(doc)) for doc in dev)
    assert instances == len(pretrain_losses) == len(train)
    assert tracer.calls["optim.adam_step"] == instances + steps
    assert tracer.calls["model.load_state"] == 0  # no whole-model reload between the stages
    assert tracer.calls["model.finetune_loss"] == steps
    assert tracer.calls["tokenizer.insert_pair_tags"] == steps + predicted_pairs
    # masking, fine-tuning and prediction each tokenize their documents once
    assert tracer.calls["tokenizer.tokenize_document"] == instances + len(train) + len(dev) == 18


def test_fixture_run_fits_train_and_finds_the_test_pairs():
    """d 64, 2 layers, 2 heads, ffn 128, lr 3e-4, 20 pretraining and 100 fine-tuning epochs, seed 1.

    The vocabulary covers the train, dev and test fixtures, so no test
    surface is UNK.  Test F1 beyond the pair level depends on the seed
    (3 gold relations), so only the pair level is asserted there.
    """
    train, dev, test = synthetic.fixture_train_corpus(), synthetic.fixture_dev_corpus(), synthetic.fixture_test_corpus()
    vocab = tokenizer.build_vocab(train + dev + test)
    cfg = EncoderConfig(d_model=64, n_layers=2, n_heads=2, ffn_dim=128)
    mdl, _, _ = pipeline.run(train, vocab, cfg, 3e-4, 20, 100, seed=1)

    def f1(docs):
        report = evaluation.evaluate(docs, pipeline.predict(mdl, docs))
        return {level: m.f1 for level, m in report.levels.items()}

    train_f1, test_f1 = f1(train), f1(test)
    assert train_f1[MatchLevel.PAIR] == 1.0 and test_f1[MatchLevel.PAIR] == 1.0
    assert all(score >= 0.9 for score in train_f1.values()), train_f1
