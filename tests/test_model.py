"""Encoder, head, and loss tests, including an independent numpy forward."""

import math

import numpy as np
import pytest

from entrex import autograd as ag
from entrex.autograd import Tensor
from entrex.masking import MaskedInstance, MaskedTarget
from entrex.model import (
    EncoderConfig,
    LossWeights,
    RelationModel,
    finetune_loss,
)
from entrex.optim import AdamState, adam_step
from entrex.tokenizer import PAD_ID, Vocabulary, tag_tokens_for_types
from gradcheck import check_gradients


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


def test_loss_weights_validation():
    with pytest.raises(ValueError):
        LossWeights(lambda_rel=-1.0)
    with pytest.raises(ValueError):
        LossWeights(lambda_rel=0.0, lambda_nov=0.0)


def test_encode_output_shape():
    model, _ = _tiny_model()
    for n in (1, 5, 16):
        hidden = model.encode(np.arange(n) % 10 + 3)  # ids 3..12: no PAD
        assert hidden.data.shape == (n, 8)


def test_encode_rejects_bad_input():
    model, _ = _tiny_model()
    with pytest.raises(ValueError, match="max_len"):
        model.encode(np.zeros(17, dtype=int))
    with pytest.raises(ValueError, match="out of range"):
        model.encode(np.array([10_000]))
    for ids in ([0, 5.7, 6.2, 1], [0.0, 6.0, 1.0]):  # not truncated to integers
        with pytest.raises(ValueError, match="integers"):
            model.encode(ids)
        with pytest.raises(ValueError, match="integers"):
            model.finetune_forward(ids)


def test_encode_rejects_pad():
    model, _ = _tiny_model()
    for ids in ([0, 6, 7, 8, 1, PAD_ID, PAD_ID], [PAD_ID], [0, PAD_ID, 7, 1]):
        with pytest.raises(ValueError, match="PAD_ID"):
            model.encode(np.array(ids))
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
        k = (xn @ P[f"enc{i}.attn.wk"] + P[f"enc{i}.attn.bk"]).reshape(n, h, dh).transpose(1, 0, 2)
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
    got = model.encode(ids).data
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


@pytest.mark.parametrize("n_layers", [1, 2])
def test_cls_only_forward_matches_full_encoding(n_layers):
    """finetune_forward == heads over row 0 of the full encoding, with gradients."""
    model, _ = _tiny_model(seed=21, n_layers=n_layers)
    ids = np.array([0, 6, 9, 8, 7, 1])
    assert model.encode(ids, cls_only=True).data.shape == (1, 8)

    def full_path():
        cls = ag.slice_rows(model.encode(ids), 0, 1)
        return model._mlp_head(cls, "relation"), model._mlp_head(cls, "novelty")

    def run(forward):
        rel, nov = forward()
        finetune_loss(rel, nov, 2, 1, LossWeights()).backward()
        grads = {}
        for name, p in model.finetune_parameters().items():
            assert p.grad is not None, name
            grads[name] = p.grad
            p.grad = None
        return rel.data, nov.data, grads

    rel, nov, grads = run(lambda: model.finetune_forward(ids))
    rel_ref, nov_ref, grads_ref = run(full_path)
    np.testing.assert_allclose(rel, rel_ref, rtol=0, atol=1e-12)
    np.testing.assert_allclose(nov, nov_ref, rtol=0, atol=1e-12)
    assert grads.keys() == grads_ref.keys()
    for name in grads:
        np.testing.assert_allclose(grads[name], grads_ref[name], rtol=0, atol=1e-12, err_msg=name)


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


@pytest.mark.parametrize(
    "span", [(2, 2), (4, 3), (-1, 2), (8, 11)], ids=["empty", "reversed", "negative-start", "past-end"]
)
def test_pretrain_loss_rejects_bad_target_span(span):
    model, _ = _tiny_model()
    with pytest.raises(ValueError, match="span"):
        model.pretrain_loss(_instance([(2, 4, 1, 0), (*span, 0, 1)]))


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
    one = model.pretrain_loss(_instance([(2, 4, 1, 0)]))
    four = model.pretrain_loss(_instance([(1, 2, 0, 0), (2, 4, 1, 1), (4, 5, 2, 0), (6, 9, 1, 1)]))
    assert _tape_size(one) == _tape_size(four)


def test_pretrain_loss_requires_targets():
    model, _ = _tiny_model()
    with pytest.raises(ValueError):
        model.pretrain_loss(_instance([]))


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
        rel, nov = model.finetune_forward(ids)
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


def test_argmax_invariant_to_constant_shift():
    rng = np.random.default_rng(14)
    for _ in range(50):
        logits = rng.standard_normal(5)
        assert np.argmax(logits) == np.argmax(logits + 7.3)


def test_end_to_end_finetune_gradient_check():
    """d_model=8, 1 layer: full-loss gradients match finite differences."""
    model, _ = _tiny_model(seed=15)
    ids = np.array([0, 6, 9, 8, 7, 1])

    def build():
        rel, nov = model.finetune_forward(ids)
        return finetune_loss(rel, nov, 2, 1, LossWeights())

    errors = check_gradients(build, model.finetune_parameters(), tol=1e-4)
    assert max(errors.values()) < 1e-4


def test_end_to_end_pretrain_gradient_check():
    model, _ = _tiny_model(seed=16)
    inst = _instance([(2, 4, 1, 0), (6, 7, 0, 1)], length=9)

    def build():
        return model.pretrain_loss(inst)

    errors = check_gradients(build, model.pretrain_parameters(), tol=1e-4)
    assert max(errors.values()) < 1e-4


def test_dropout_training_is_seeded_and_differs_from_eval():
    model, _ = _tiny_model(seed=17, dropout=0.3)
    ids = np.array([0, 6, 7, 1])
    a = model.encode(ids, train=True, rng=np.random.default_rng(5)).data
    b = model.encode(ids, train=True, rng=np.random.default_rng(5)).data
    c = model.encode(ids).data
    np.testing.assert_array_equal(a, b)
    assert not np.allclose(a, c)


def test_transfer_load_keeps_fresh_heads():
    model_a, vocab = _tiny_model(seed=18)
    model_b, _ = _tiny_model(seed=19)
    before = model_b.params["head.relation.w1"].data.copy()
    model_b.load_state(model_a.state_arrays(), transfer_only=True)
    np.testing.assert_array_equal(model_b.params["emb.token"].data, model_a.params["emb.token"].data)
    np.testing.assert_array_equal(model_b.params["head.relation.w1"].data, before)


def test_load_state_rejects_parameters_the_model_lacks():
    deeper, _ = _tiny_model(seed=18, n_layers=2)
    model, _ = _tiny_model(seed=19)
    before = model.state_arrays()
    with pytest.raises(ValueError, match=r"lacks: \['enc1\.attn\.bk'"):
        model.load_state(deeper.state_arrays())
    with pytest.raises(ValueError, match="enc1.ffn.w1"):
        model.load_state(deeper.state_arrays(), transfer_only=True)
    for name, value in before.items():  # nothing was loaded
        np.testing.assert_array_equal(model.params[name].data, value)


def test_state_snapshot_unchanged_by_adam_steps():
    model, _ = _tiny_model(seed=20)
    snapshot = model.state_arrays()
    kept = {k: v.copy() for k, v in snapshot.items()}
    state = AdamState(lr=0.1)

    def train_step():
        rel, nov = model.finetune_forward(np.array([0, 6, 7, 1]))
        finetune_loss(rel, nov, 1, 2, LossWeights()).backward()
        adam_step(model.finetune_parameters(), state)

    train_step()
    train_step()
    assert not np.array_equal(model.params["enc0.ffn.w1"].data, kept["enc0.ffn.w1"])
    model.load_state(snapshot)  # the loaded parameters are copies as well
    train_step()
    for name, value in kept.items():
        np.testing.assert_array_equal(snapshot[name], value)


def test_training_run_is_bit_identical_on_rerun():
    """Pretrain, transfer and fine-tune with dropout and Adam, twice."""

    def run():
        model, _ = _tiny_model(seed=22, n_layers=2, dropout=0.1)
        rng = np.random.default_rng(23)
        init = model.state_arrays()
        losses = []
        state = AdamState(lr=0.01)
        for inst in (_instance([(2, 4, 1, 0)]), _instance([(5, 7, 2, 1), (1, 2, 0, 0)], length=9)):
            loss = model.pretrain_loss(inst, train=True, rng=rng)
            loss.backward()
            adam_step(model.pretrain_parameters(), state)
            losses.append(loss.item())
        pretrained = model.state_arrays()
        model.load_state(init)
        model.load_state(pretrained, transfer_only=True)
        state = AdamState(lr=0.01)
        for ids, rel_idx, nov_idx in (([0, 6, 7, 1], 1, 2), ([0, 8, 9, 10, 12, 1], 2, 1), ([0, 11, 1], 0, 0)):
            rel, nov = model.finetune_forward(np.array(ids), train=True, rng=rng)
            loss = finetune_loss(rel, nov, rel_idx, nov_idx, LossWeights())
            loss.backward()
            adam_step(model.finetune_parameters(), state)
            losses.append(loss.item())
        return losses, model.state_arrays()

    losses_a, state_a = run()
    losses_b, state_b = run()
    assert losses_a == losses_b
    assert state_a.keys() == state_b.keys()
    for name in state_a:
        np.testing.assert_array_equal(state_a[name], state_b[name], err_msg=name)
