"""Encoder, head, and loss tests, including an independent numpy forward."""

import functools
import json
import math
import platform
import re
import resource
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entrex import autograd as ag
from entrex.autograd import Tensor
from entrex.masking import MaskedInstance, MaskedTarget
from entrex.model import (
    EncoderConfig,
    LossWeights,
    RelationModel,
    finetune_loss,
)
from entrex.optim import AdamState
from entrex.pipeline import train_step
from entrex.tokenizer import PAD_ID, Vocabulary, tag_tokens_for_types
from gradcheck import check_gradients, project


def _tiny_vocab(n_words=12):
    words = tuple(f"w{i}" for i in range(n_words))
    return Vocabulary(
        tokens=("[CLS]", "[SEP]", "[PAD]", "[UNK]", "[MASK]")
        + tuple(tag_tokens_for_types(["Chemical", "Gene"]))
        + words,
        identifier_labels=("C1", "C2", "G1"),
        type_labels=("Chemical", "Gene"),
        relation_labels=("None", "Assoc", "Bind"),
    )


def _tiny_model(seed=0, **overrides):
    defaults = dict(
        d_model=8, n_layers=1, n_heads=2, ffn_dim=16, max_len=16,
        dropout=0.0, precision="float64",
    )
    defaults.update(overrides)
    cfg = EncoderConfig(**defaults)
    vocab = _tiny_vocab()
    return RelationModel(cfg, vocab, np.random.default_rng(seed)), vocab


def test_config_validation():
    with pytest.raises(ValueError):
        EncoderConfig(d_model=10, n_heads=4)
    with pytest.raises(ValueError):
        EncoderConfig(max_len=4)
    for name in ("d_model", "n_layers", "n_heads", "ffn_dim"):
        for value in (0, -1):
            with pytest.raises(ValueError, match=f"{name} must be >= 1"):
                EncoderConfig(**{name: value})
    # A float, a bool or a numpy integer is refused by name before any range check.
    for bad in ({"d_model": 16.0, "n_heads": 2}, {"n_layers": 1.5}, {"max_len": 8.5}, {"ffn_dim": True},
                {"n_heads": np.int64(2)}):
        name = next(iter(bad))
        with pytest.raises(ValueError, match=re.escape(f"{name} must be an int, got {bad[name]!r}")):
            EncoderConfig(**bad)


@pytest.mark.parametrize("cfg", [EncoderConfig(), EncoderConfig(precision="float64", dropout=0.0)])
def test_config_json_record_round_trips(cfg):
    record = cfg.to_json_dict()
    assert EncoderConfig(**record) == cfg == EncoderConfig(**json.loads(json.dumps(record)))


def test_loss_weights_validation():
    for bad in ({"lambda_rel": -1.0}, {"lambda_rel": float("nan")}, {"lambda_nov": float("inf")}):
        with pytest.raises(ValueError, match="loss weights must be finite and non-negative"):
            LossWeights(**bad)
    with pytest.raises(ValueError, match="at least one loss weight must be positive"):
        LossWeights(lambda_rel=0.0, lambda_nov=0.0)


def test_model_keeps_the_vocabulary_that_sizes_it():
    model, vocab = _tiny_model()
    assert model.vocab is vocab
    shapes = {name: p.data.shape for name, p in model.params.items()}
    assert shapes["emb.token"] == (len(vocab), 8)
    for bias, labels in (
        ("head.identifier.b", vocab.identifier_labels), ("head.type.b", vocab.type_labels),
        ("head.relation.b2", vocab.relation_labels), ("head.novelty.b2", vocab.novelty_labels),
    ):
        assert shapes[bias] == (len(labels),), bias


def test_encode_output_shape():
    model, _ = _tiny_model()
    for n in (1, 5, 16):
        hidden = model.encode(np.arange(n) % 10 + 3, np.arange(n))  # ids 3..12: no PAD
        assert hidden.data.shape == (n, 8)


def test_encode_rejects_bad_input():
    model, _ = _tiny_model()
    with pytest.raises(ValueError, match="max_len"):
        model.encode(np.zeros(17, dtype=int), [0])
    with pytest.raises(ValueError, match="out of range"):
        model.encode(np.array([10_000]), [0])
    for ids in ([0, 5.7, 6.2, 1], [0.0, 6.0, 1.0]):  # not truncated to integers
        with pytest.raises(ValueError, match="integers"):
            model.encode(ids, [0])
        with pytest.raises(ValueError, match="integers"):
            model.finetune_forward(ids)


def test_encode_rejects_pad():
    model, _ = _tiny_model()
    for ids in ([0, 6, 7, 8, 1, PAD_ID, PAD_ID], [PAD_ID], [0, PAD_ID, 7, 1]):
        with pytest.raises(ValueError, match="PAD_ID"):
            model.encode(np.array(ids), [0])
        with pytest.raises(ValueError, match="PAD_ID"):
            model.finetune_forward(np.array(ids))


def _reference_encode(model, ids):
    """Straight-line numpy re-implementation of the encoder forward."""
    cfg = model.cfg
    P = {k: v.data for k, v in model.params.items()}

    def ln(x, g, b):
        mu = x.mean(-1, keepdims=True)
        var = x.var(-1, keepdims=True)
        return (x - mu) / np.sqrt(var + 1e-5) * g + b

    def gelu(x):
        c = math.sqrt(2 / math.pi)
        return 0.5 * x * (1 + np.tanh(c * (x + 0.044715 * x**3)))

    n = len(ids)
    h, dh = cfg.n_heads, cfg.d_model // cfg.n_heads
    x = P["emb.token"][ids] + P["emb.pos"][:n]
    for i in range(cfg.n_layers):
        xn = ln(x, P[f"enc{i}.ln1.g"], P[f"enc{i}.ln1.b"])
        q = (xn @ P[f"enc{i}.attn.wq"] + P[f"enc{i}.attn.bq"]).reshape(n, h, dh).transpose(1, 0, 2)
        k = (xn @ P[f"enc{i}.attn.wk"]).reshape(n, h, dh).transpose(1, 0, 2)
        v = (xn @ P[f"enc{i}.attn.wv"] + P[f"enc{i}.attn.bv"]).reshape(n, h, dh).transpose(1, 0, 2)
        scores = q @ k.transpose(0, 2, 1) / math.sqrt(dh)
        e = np.exp(scores - scores.max(-1, keepdims=True))
        w = e / e.sum(-1, keepdims=True)
        ctx = (w @ v).transpose(1, 0, 2).reshape(n, cfg.d_model)
        x = x + ctx @ P[f"enc{i}.attn.wo"] + P[f"enc{i}.attn.bo"]
        xn = ln(x, P[f"enc{i}.ln2.g"], P[f"enc{i}.ln2.b"])
        ff = gelu(xn @ P[f"enc{i}.ffn.w1"] + P[f"enc{i}.ffn.b1"]) @ P[f"enc{i}.ffn.w2"] + P[f"enc{i}.ffn.b2"]
        x = x + ff
    return ln(x, P["final.ln.g"], P["final.ln.b"])


def test_encoder_matches_reference_forward():
    model, _ = _tiny_model(seed=3)
    ids = np.array([0, 7, 9, 11, 10, 1])
    got = model.encode(ids, np.arange(len(ids))).data
    np.testing.assert_allclose(got, _reference_encode(model, ids), atol=1e-12)


def test_finetune_logits_match_reference_forward():
    model, vocab = _tiny_model(seed=4)
    ids = np.array([0, 6, 8, 1])
    rel, nov = model.finetune_forward(ids)
    assert rel.data.shape == (len(vocab.relation_labels),)
    assert nov.data.shape == (len(vocab.novelty_labels),)

    P = {k: v.data for k, v in model.params.items()}
    cls = _reference_encode(model, ids)[0:1]

    def gelu(x):
        c = math.sqrt(2 / math.pi)
        return 0.5 * x * (1 + np.tanh(c * (x + 0.044715 * x**3)))

    rel_ref = gelu(cls @ P["head.relation.w1"] + P["head.relation.b1"]) @ P["head.relation.w2"] + P["head.relation.b2"]
    nov_ref = gelu(cls @ P["head.novelty.w1"] + P["head.novelty.b1"]) @ P["head.novelty.w2"] + P["head.novelty.b2"]
    np.testing.assert_allclose(rel.data, rel_ref[0], atol=1e-12)
    np.testing.assert_allclose(nov.data, nov_ref[0], atol=1e-12)


def _reference_tape(model, ids):
    """The encoder forward with every block at every row, on the tape: the
    straight-line all-row attention, with keys and values projected."""
    cfg, P = model.cfg, model.params
    n, h, d = len(ids), cfg.n_heads, cfg.d_model
    dh = d // h

    def ln(x, prefix):
        return ag.layer_norm(x, P[f"{prefix}.g"], P[f"{prefix}.b"])

    def linear(x, w, b):
        return ag.add(ag.matmul(x, P[w]), P[b])

    def heads(x):  # [n, d] -> [h, n, dh]
        return ag.transpose(ag.reshape(x, (n, h, dh)), (1, 0, 2))

    x = ag.add(ag.embedding_lookup(P["emb.token"], ids), ag.slice_rows(P["emb.pos"], 0, n))
    for i in range(cfg.n_layers):
        a, f = f"enc{i}.attn.", f"enc{i}.ffn."
        xn = ln(x, f"enc{i}.ln1")
        q, v = (heads(linear(xn, a + "w" + c, a + "b" + c)) for c in "qv")
        k = heads(ag.matmul(xn, P[a + "wk"]))
        scores = ag.scale(ag.matmul(q, ag.transpose(k, (0, 2, 1))), 1.0 / math.sqrt(dh))
        ctx = ag.reshape(ag.transpose(ag.matmul(ag.softmax(scores, 1.0), v), (1, 0, 2)), (n, d))
        x = ag.add(x, linear(ctx, a + "wo", a + "bo"))
        ff = ag.gelu(linear(ln(x, f"enc{i}.ln2"), f + "w1", f + "b1"))
        x = ag.add(x, linear(ff, f + "w2", f + "b2"))
    return ln(x, "final.ln")


_ROW_IDS = np.array([0, 6, 9, 8, 7, 11, 10, 1])
_ROW_INSTANCE = MaskedInstance(
    "1", tuple(_ROW_IDS.tolist()), (MaskedTarget(2, 5, 1, 0), MaskedTarget(6, 7, 2, 1))
)


@pytest.mark.parametrize("n_layers", [1, 2])
@pytest.mark.parametrize(
    "rows, heads",
    [
        ([0], lambda m: m.finetune_forward(_ROW_IDS, train=True)),
        ([2, 3, 4, 6], lambda m: (m.pretrain_loss(_ROW_INSTANCE, train=True),)),
        (list(range(len(_ROW_IDS))), lambda m: (m.encode(_ROW_IDS, np.arange(len(_ROW_IDS)), train=True),)),
    ],
    ids=["cls", "masked targets", "all rows"],
)
def test_row_selection_matches_full_encoding(rows, heads, n_layers, monkeypatch):
    """encode at ``rows``, and the heads that read those rows, equal the same
    rows and heads over the full encoding: values and every parameter gradient."""
    model, _ = _tiny_model(seed=21, n_layers=n_layers)
    np.testing.assert_allclose(
        model.encode(_ROW_IDS, rows).data, _reference_encode(model, _ROW_IDS)[rows], rtol=0, atol=1e-12
    )

    def run():
        outs = heads(model)
        rng = np.random.default_rng(0)
        terms = [project(o, rng.standard_normal(o.data.shape)) for o in outs]
        functools.reduce(ag.add, terms).backward()
        grads = {name: p.grad for name, p in model.params.items() if p.grad is not None}
        for p in model.params.values():
            p.grad = None
        return [o.data for o in outs], grads

    outs, grads = run()
    read = []

    def full_encoding(token_ids, rows, train=False, rng=None):
        read.append(np.asarray(rows).tolist())
        return ag.embedding_lookup(_reference_tape(model, token_ids), rows)

    monkeypatch.setattr(model, "encode", full_encoding)
    ref_outs, ref_grads = run()
    assert read == [rows]
    for out, ref in zip(outs, ref_outs, strict=True):
        np.testing.assert_allclose(out, ref, rtol=0, atol=1e-12)
    assert grads.keys() == ref_grads.keys()
    assert {n for n in grads if n.startswith("enc")} == {n for n in model.params if n.startswith("enc")}
    for name in grads:
        np.testing.assert_allclose(grads[name], ref_grads[name], rtol=0, atol=1e-12, err_msg=name)


def _instance(targets, length=10):
    ids = tuple([0] + [6 + i for i in range(length - 2)] + [1])
    return MaskedInstance("1", ids, tuple(MaskedTarget(*t) for t in targets))


def test_pretrain_loss_rigged_heads_reach_zero():
    model, _ = _tiny_model(seed=5)
    inst = _instance([(2, 4, 1, 0)])
    model.params["head.identifier.w"].data[:] = 0.0
    model.params["head.identifier.b"].data[:] = 0.0
    model.params["head.identifier.b"].data[1] = 80.0
    model.params["head.type.w"].data[:] = 0.0
    model.params["head.type.b"].data[:] = 0.0
    model.params["head.type.b"].data[0] = 80.0
    assert model.pretrain_loss(inst).item() < 1e-12


def test_pretrain_loss_fresh_init_near_uniform():
    model, vocab = _tiny_model(seed=6)
    inst = _instance([(2, 4, 0, 0), (5, 6, 2, 1)])
    expected = math.log(len(vocab.identifier_labels)) + math.log(len(vocab.type_labels))
    loss = model.pretrain_loss(inst).item()
    assert abs(loss - expected) / expected < 0.10


def test_pretrain_loss_matches_per_mention_recomputation():
    model, vocab = _tiny_model(seed=7)
    P = {k: v.data for k, v in model.params.items()}
    # equal 2-token spans; then a 1-token and a 3-token span
    for targets in ([(2, 4, 1, 0), (6, 8, 2, 1)], [(2, 3, 1, 0), (5, 8, 2, 1)]):
        inst = _instance(targets)
        hidden = _reference_encode(model, np.asarray(inst.token_ids))
        total = 0.0
        for start, stop, id_idx, ty_idx in targets:
            r = hidden[start:stop].mean(axis=0)
            for w, b, tgt in (
                (P["head.identifier.w"], P["head.identifier.b"], id_idx),
                (P["head.type.w"], P["head.type.b"], ty_idx),
            ):
                logits = r @ w + b
                total += np.log(np.exp(logits).sum()) - logits[tgt]
        expected = total / len(targets)
        np.testing.assert_allclose(model.pretrain_loss(inst).item(), expected, atol=1e-10)


@pytest.mark.parametrize("target", [(2, 4, 3, 0), (2, 4, 0, 2), (2, 4, -1, 0)])
def test_pretrain_loss_rejects_out_of_range_label(target):
    model, _ = _tiny_model()
    with pytest.raises(ValueError, match="out of range"):
        model.pretrain_loss(_instance([(5, 6, 0, 0), target]))


def _tape_size(loss):
    seen, stack = set(), [loss]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            stack.extend(node._parents)
    return len(seen)


def test_pretrain_loss_tape_size_independent_of_target_count():
    model, _ = _tiny_model(seed=9)
    one = model.pretrain_loss(_instance([(2, 4, 1, 0)]), train=True)
    four = model.pretrain_loss(
        _instance([(1, 2, 0, 0), (2, 4, 1, 1), (4, 5, 2, 0), (6, 9, 1, 1)]), train=True
    )
    assert _tape_size(one) > len(model.params)
    assert _tape_size(one) == _tape_size(four)


def test_inference_forward_equals_training_forward_without_a_tape():
    """At dropout 0, train=False gives the train=True values bit for bit,
    but reads the weights as constants: no parents, no gradient."""
    model, _ = _tiny_model(seed=10, n_layers=2)
    ids = np.array([0, 6, 9, 8, 7, 11, 1])
    inst = _instance([(2, 4, 1, 0), (6, 8, 2, 1)])
    pairs = [
        (model.encode(ids, np.arange(len(ids))), model.encode(ids, np.arange(len(ids)), train=True)),
        (model.encode(ids, [0]), model.encode(ids, [0], train=True)),
        *zip(model.finetune_forward(ids), model.finetune_forward(ids, train=True)),
        (model.pretrain_loss(inst), model.pretrain_loss(inst, train=True)),
    ]
    for inference, training in pairs:
        assert np.array_equal(inference.data, training.data)
        assert training.requires_grad and training._parents
        assert not inference.requires_grad and inference._parents == ()
    loss = model.pretrain_loss(inst)
    with pytest.raises(ValueError, match="computed from constants"):
        loss.backward()
    rel, nov = model.finetune_forward(ids)
    with pytest.raises(ValueError, match="computed from constants"):
        finetune_loss(rel, nov, 1, 2, LossWeights()).backward()
    assert all(p.grad is None for p in model.params.values())


# Held beyond the gradients' data: each gradient's array object, about 250
# bytes in CPython 3.11 with numpy 2.  A tape kept past backward() holds
# 7-13x the gradient bytes on these steps.
GRAD_HEADER_SLACK = 512


def test_training_step_holds_only_parameter_gradients_after_backward():
    """backward() frees the tape: a step keeps its parameters' gradients and nothing more."""
    model, _ = _tiny_model(seed=24)
    inst = _instance([(2, 4, 1, 0), (6, 8, 2, 1)])
    ids = np.array([0, 6, 9, 8, 7, 11, 1])
    steps = [
        (lambda: model.pretrain_loss(inst, train=True), model.pretrain_parameters()),
        (
            lambda: finetune_loss(*model.finetune_forward(ids, train=True), 1, 2, LossWeights()),
            model.finetune_parameters(),
        ),
    ]
    for forward, params in steps:
        forward().backward()  # unmeasured: one-time caches of numpy and the interpreter
        for p in model.params.values():
            p.grad = None
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            loss = forward()
            loss.backward()
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert loss._parents == ()
        assert all(p.grad is not None for p in params.values())
        grad_bytes = sum(p.grad.nbytes for p in params.values())
        assert held <= grad_bytes + GRAD_HEADER_SLACK * len(params), (held, grad_bytes)
        for p in model.params.values():
            p.grad = None


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the allocator policy is glibc's")
def test_training_steps_reuse_the_memory_backward_frees():
    """Steps after the first fault in next to no pages: the freed tape stays in the process.

    With glibc's default trimming each step here faults in hundreds of
    pages again (about 1,000 with a consumed tape); with the policy, none."""
    model = RelationModel(EncoderConfig(dropout=0.0), _tiny_vocab(), np.random.default_rng(25))  # default size
    ids = np.array([0, *(6 + np.arange(98) % 12), 1])
    state = AdamState(lr=1e-3)

    def step():
        rel, nov = model.finetune_forward(ids, train=True)
        train_step(finetune_loss(rel, nov, 1, 2, LossWeights()), model.finetune_parameters(), state, "1", None)

    for _ in range(3):
        step()
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(5):
        step()
    assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before < 5 * 50


@settings(max_examples=60, deadline=None)
@given(
    n_heads=st.sampled_from([1, 2, 4]),
    head_dim=st.integers(1, 4),
    n_layers=st.integers(1, 3),
    ffn_dim=st.integers(1, 24),
    max_len=st.integers(8, 24),
    precision=st.sampled_from(["float32", "float64"]),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_inference_forward_equals_training_forward_over_random_configs(
    n_heads, head_dim, n_layers, ffn_dim, max_len, precision, seed, data
):
    """The bit-for-bit equality above, over small configs and lengths."""
    model, vocab = _tiny_model(
        seed, d_model=n_heads * head_dim, n_heads=n_heads, n_layers=n_layers,
        ffn_dim=ffn_dim, max_len=max_len, precision=precision,
    )
    n = data.draw(st.integers(3, max_len), label="length")
    body = data.draw(st.lists(st.integers(PAD_ID + 1, len(vocab) - 1), min_size=n - 2, max_size=n - 2))
    ids = np.array([0, *body, 1])
    spans = data.draw(st.lists(st.tuples(st.integers(1, n - 2), st.integers(1, n - 2)), min_size=1, max_size=3))
    targets = [
        MaskedTarget(min(a, b), max(a, b) + 1, data.draw(st.integers(0, 2)), data.draw(st.integers(0, 1)))
        for a, b in spans
    ]
    inst = MaskedInstance("1", tuple(ids.tolist()), tuple(targets))
    pairs = [
        (model.encode(ids, np.arange(len(ids))), model.encode(ids, np.arange(len(ids)), train=True)),
        (model.encode(ids, [0]), model.encode(ids, [0], train=True)),
        *zip(model.finetune_forward(ids), model.finetune_forward(ids, train=True)),
        (model.pretrain_loss(inst), model.pretrain_loss(inst, train=True)),
    ]
    for inference, training in pairs:
        assert inference.data.dtype == training.data.dtype == np.dtype(precision)
        assert np.array_equal(inference.data, training.data)


def test_finetune_loss_perfect_is_zero():
    rel = Tensor(np.array([0.0, 90.0, 0.0]))
    nov = Tensor(np.array([0.0, 0.0, 90.0]))
    loss = finetune_loss(rel, nov, 1, 2, LossWeights())
    assert loss.item() < 1e-12


def test_equal_head_ce_gives_three_c():
    # lambda_rel=1, lambda_nov=2 and equal per-head CE c => total 3c
    logits = np.array([0.4, -0.3, 1.1])
    rel = Tensor(logits.copy())
    nov = Tensor(logits.copy())
    c = ag.cross_entropy(Tensor(logits.copy()), 2).item()
    loss = finetune_loss(rel, nov, 2, 2, LossWeights(lambda_rel=1.0, lambda_nov=2.0))
    np.testing.assert_allclose(loss.item(), 3 * c, rtol=1e-12)


def test_loss_linear_in_lambdas():
    rng = np.random.default_rng(12)
    for _ in range(100):
        rel = rng.standard_normal(4)
        nov = rng.standard_normal(3)
        ri, ni = int(rng.integers(4)), int(rng.integers(3))
        l1, l2 = float(rng.uniform(0.1, 3)), float(rng.uniform(0.1, 3))

        def val(lr, ln_):
            return finetune_loss(
                Tensor(rel.copy()), Tensor(nov.copy()), ri, ni,
                LossWeights(lambda_rel=lr, lambda_nov=ln_),
            ).item()

        combined = val(l1, l2)
        assert abs(combined - (val(l1, 0.0) + val(0.0, l2))) < 1e-10


def test_lambda_scales_novelty_gradient_exactly():
    """Two-backward-pass subtraction: scaling lambda_nov scales its grad share."""
    model, _ = _tiny_model(seed=13)
    ids = np.array([0, 6, 7, 1])

    def grads(weights):
        rel, nov = model.finetune_forward(ids, train=True)
        loss = finetune_loss(rel, nov, 1, 2, weights)
        loss.backward()
        out = {k: p.grad.copy() for k, p in model.params.items() if p.grad is not None}
        for p in model.params.values():
            p.grad = None
        return out

    g_rel_only = grads(LossWeights(lambda_rel=1.0, lambda_nov=0.0))
    g_base = grads(LossWeights(lambda_rel=1.0, lambda_nov=1.0))
    g_scaled = grads(LossWeights(lambda_rel=1.0, lambda_nov=3.0))
    for name in g_base:
        nov_part = g_base[name] - g_rel_only[name]
        np.testing.assert_allclose(
            g_scaled[name], g_rel_only[name] + 3.0 * nov_part, atol=1e-10
        )


def test_end_to_end_finetune_gradient_check():
    """d_model=8, 1 layer: full-loss gradients match finite differences."""
    model, _ = _tiny_model(seed=15)
    ids = np.array([0, 6, 9, 8, 7, 1])

    def build():
        rel, nov = model.finetune_forward(ids, train=True)
        return finetune_loss(rel, nov, 2, 1, LossWeights())

    errors = check_gradients(build, model.finetune_parameters(), tol=1e-4)
    assert max(errors.values()) < 1e-4


def test_end_to_end_pretrain_gradient_check():
    model, _ = _tiny_model(seed=16)
    inst = _instance([(2, 4, 1, 0), (6, 7, 0, 1)], length=9)

    def build():
        return model.pretrain_loss(inst, train=True)

    errors = check_gradients(build, model.pretrain_parameters(), tol=1e-4)
    assert max(errors.values()) < 1e-4


@pytest.mark.parametrize("n_layers", [1, 2])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_every_parameter_moves_a_loss(seed, n_layers):
    """Each parameter a step updates gets a gradient far above rounding noise:
    a parameter that cannot change the step's loss has no place in the model."""
    model, _ = _tiny_model(seed=seed, n_layers=n_layers)
    ids = np.array([0, 6, 9, 8, 7, 11, 1])
    inst = _instance([(2, 4, 1, 0), (6, 8, 2, 1)])
    steps = [
        (lambda: finetune_loss(*model.finetune_forward(ids, train=True), 1, 2, LossWeights()), model.finetune_parameters()),
        (lambda: model.pretrain_loss(inst, train=True), model.pretrain_parameters()),
    ]
    for forward, params in steps:
        forward().backward()
        largest = {name: 0.0 if p.grad is None else np.abs(p.grad).max() for name, p in params.items()}
        assert {name: g for name, g in largest.items() if g <= 1e-12} == {}
        for p in model.params.values():
            p.grad = None


def test_dropout_training_is_seeded_and_differs_from_eval():
    model, _ = _tiny_model(seed=17, dropout=0.3)
    ids = np.array([0, 6, 7, 1])
    rows = np.arange(len(ids))
    a = model.encode(ids, rows, train=True, rng=np.random.default_rng(5)).data
    b = model.encode(ids, rows, train=True, rng=np.random.default_rng(5)).data
    c = model.encode(ids, rows).data
    np.testing.assert_array_equal(a, b)
    assert not np.allclose(a, c)


def test_load_state_rejects_parameters_the_model_lacks():
    """Unknown, missing and misshapen parameters are refused before any parameter is written."""
    other, _ = _tiny_model(seed=18)
    deeper, _ = _tiny_model(seed=18, n_layers=2)
    model, _ = _tiny_model(seed=19)
    deep_model, _ = _tiny_model(seed=19, n_layers=2)
    with_key_bias = {**other.state_arrays(), "enc0.attn.bk": np.zeros(8)}  # attention once had a key bias
    misshapen = {**other.state_arrays(), "final.ln.g": np.ones(9)}
    refusals = [
        (model, with_key_bias, {}, r"lacks: \['enc0\.attn\.bk'\]"),
        (model, deeper.state_arrays(), {"transfer_only": True}, "enc1.ffn.w1"),
        (deep_model, other.state_arrays(), {}, "missing parameter 'enc1.ln1.g'"),
        (model, misshapen, {}, r"'final\.ln\.g' shape \(9,\)"),
    ]
    for target, arrays, options, message in refusals:
        before = target.state_arrays()
        with pytest.raises(ValueError, match=message):
            target.load_state(arrays, **options)
        for name, value in before.items():  # nothing was loaded
            np.testing.assert_array_equal(target.params[name].data, value, strict=True)


def test_state_snapshot_unchanged_by_adam_steps():
    model, _ = _tiny_model(seed=20)
    snapshot = model.state_arrays()
    kept = {k: v.copy() for k, v in snapshot.items()}
    state = AdamState(lr=0.1)

    def step():
        rel, nov = model.finetune_forward(np.array([0, 6, 7, 1]), train=True)
        train_step(finetune_loss(rel, nov, 1, 2, LossWeights()), model.finetune_parameters(), state, "1", None)

    step()
    step()
    assert not np.array_equal(model.params["enc0.ffn.w1"].data, kept["enc0.ffn.w1"])
    arrays = {name: p.data for name, p in model.params.items()}
    model.load_state(snapshot)  # written into the arrays the AdamState placed, never aliasing the snapshot
    assert all(p.data is arrays[name] for name, p in model.params.items())
    step()
    for name, value in kept.items():
        np.testing.assert_array_equal(snapshot[name], value)
