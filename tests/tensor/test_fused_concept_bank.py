"""Fused concept-bank decode kernel (repro.tensor.fused.concept_bank_decode):
exact parity with the composed Eq. (11) reference, gradchecks under both
dtype policies, and the single-tape-node / inference-mode contracts.

Parity is asserted with exact equality, never a tolerance: the top-λ
selection downstream of the decoder amplifies any rounding change, so the
kernel is only a drop-in replacement if it is bit-identical."""

import numpy as np
import pytest

from repro import ISRec, ISRecConfig
from repro.core import IntentDecoder
from repro.data import next_item_batches
from repro.nn.gumbel import hard_top_k
from repro.tensor import fused
from repro.tensor.backend import available_backends, use_backend
from repro.tensor.gradcheck import gradcheck
from repro.tensor.tensor import Tensor, graph_nodes, inference_mode
from repro.utils import set_seed

LAMBDA = 3


def _straight_through(scores: np.ndarray, k: int) -> np.ndarray:
    """The forward value of ISRec's straight-through top-k mask.

    ``soft + (hard - soft)``: near 1 on the top-k concepts and exactly +0
    everywhere else, just like ``StructuredIntentTransition.next_intention``.
    """
    soft = np.exp(scores - scores.max(axis=-1, keepdims=True))
    soft /= soft.sum(axis=-1, keepdims=True)
    return soft + (hard_top_k(scores, k).astype(scores.dtype) - soft)


def _mask(rng, kind: str, shape) -> np.ndarray:
    scores = rng.standard_normal(shape).astype(np.float32)
    if kind == "top_lambda":
        return _straight_through(scores, LAMBDA)
    if kind == "general":
        # Non-binary weights with a different number of active concepts on
        # every row.
        keep = rng.random(shape) < 0.4
        return (rng.random(shape) * keep).astype(np.float32)
    if kind == "empty_row":
        mask = _straight_through(scores, LAMBDA)
        mask[0, 1] = 0.0
        mask[-1, -1] = 0.0
        return mask
    if kind == "dense":
        return (rng.random(shape) + 0.5).astype(np.float32)
    raise ValueError(kind)


MASKS = ("top_lambda", "general", "empty_row", "dense")


def _decoder(rng, num_concepts, intent_dim, dim):
    decoder = IntentDecoder(num_concepts, intent_dim, dim)
    bias = decoder.decoder_bank.first.bias
    bias.data[...] = rng.standard_normal(bias.shape).astype(bias.data.dtype)
    return decoder


def _run(decoder, z, m, grad, fused_on, m_grad=True):
    """Output and the z, m, weight, bias gradients on one path."""
    decoder.zero_grad()
    z_leaf = Tensor(z.copy(), requires_grad=True)
    m_leaf = Tensor(m.copy(), requires_grad=m_grad)
    with fused.use_fused(fused_on):
        out = decoder(z_leaf, m_leaf)
    out.backward(grad)
    bank = decoder.decoder_bank.first
    return {"out": out.data, "z": z_leaf.grad, "m": m_leaf.grad,
            "weight": bank.weight.grad, "bias": bank.bias.grad}


# ----------------------------------------------------------------------
# Exact parity with the composed reference
# ----------------------------------------------------------------------
class TestExactParity:
    @pytest.mark.parametrize("kind", MASKS)
    @pytest.mark.parametrize("shape", [(3, 5, 9, 4, 6), (4, 20, 56, 8, 32)])
    def test_output_and_gradients_bit_identical(self, rng, kind, shape):
        batch, length, concepts, intent_dim, dim = shape
        decoder = _decoder(rng, concepts, intent_dim, dim)
        z = rng.standard_normal((batch, length, concepts, intent_dim)).astype(np.float32)
        m = _mask(rng, kind, (batch, length, concepts))
        grad = rng.standard_normal((batch, length, dim)).astype(np.float32)
        composed = _run(decoder, z, m, grad, fused_on=False)
        result = _run(decoder, z, m, grad, fused_on=True)
        for name in ("out", "z", "m", "weight", "bias"):
            np.testing.assert_array_equal(result[name], composed[name], err_msg=name)

    @pytest.mark.parametrize("kind", MASKS)
    def test_mask_without_grad(self, rng, kind):
        # The inference-style path: m is a constant, only z/W/b are tracked.
        decoder = _decoder(rng, 12, 5, 7)
        z = rng.standard_normal((3, 6, 12, 5)).astype(np.float32)
        m = _mask(rng, kind, (3, 6, 12))
        grad = rng.standard_normal((3, 6, 7)).astype(np.float32)
        composed = _run(decoder, z, m, grad, fused_on=False, m_grad=False)
        result = _run(decoder, z, m, grad, fused_on=True, m_grad=False)
        assert result["m"] is None and composed["m"] is None
        for name in ("out", "z", "weight", "bias"):
            np.testing.assert_array_equal(result[name], composed[name], err_msg=name)

    def test_isrec_training_loss_bit_identical(self, tiny_dataset, tiny_split):
        # The whole train step — Gumbel extraction, GCN, straight-through
        # top-λ, decoder, loss — gives the same loss and parameter gradients
        # whichever decoder path runs.
        set_seed(3)
        model = ISRec.from_dataset(tiny_dataset, max_len=12,
                                   config=ISRecConfig(dim=16))
        model.train()
        batch = next(next_item_batches(tiny_split.train_sequences(), 12, 16,
                                       np.random.default_rng(0)))
        results = []
        for fusable in (False, True):
            model.decoder.fusable = fusable
            model.zero_grad()
            set_seed(11)
            loss = model.training_loss(batch)
            loss.backward()
            results.append((loss.data.copy(), {name: p.grad.copy() for name, p
                                               in model.named_parameters()}))
        (loss_composed, grads_composed), (loss_fused, grads_fused) = results
        np.testing.assert_array_equal(loss_fused, loss_composed)
        assert grads_fused.keys() == grads_composed.keys()
        for name, grad in grads_composed.items():
            np.testing.assert_array_equal(grads_fused[name], grad, err_msg=name)


# ----------------------------------------------------------------------
# Gradchecks (float64, finite differences)
# ----------------------------------------------------------------------
class TestGradcheck:
    @pytest.mark.parametrize("backend", sorted(available_backends()))
    @pytest.mark.parametrize("kind", ["top_lambda", "general"])
    def test_every_backend(self, rng, backend, kind):
        with use_backend(backend):
            z = Tensor(rng.standard_normal((2, 3, 5, 3)), requires_grad=True,
                       dtype=np.float64)
            m = Tensor(_mask(rng, kind, (2, 3, 5)), requires_grad=True,
                       dtype=np.float64)
            weight = Tensor(rng.standard_normal((5, 3, 4)), requires_grad=True,
                            dtype=np.float64)
            bias = Tensor(rng.standard_normal((5, 4)), requires_grad=True,
                          dtype=np.float64)
            probe = Tensor(rng.standard_normal((2, 3, 4)), dtype=np.float64)
            assert gradcheck(
                lambda a, b, c, d: (fused.concept_bank_decode(a, b, c, d) * probe).sum(),
                [z, m, weight, bias])

    def test_constant_mask(self, rng):
        z = Tensor(rng.standard_normal((2, 4, 6, 3)), requires_grad=True,
                   dtype=np.float64)
        m = Tensor(_mask(rng, "top_lambda", (2, 4, 6)), dtype=np.float64)
        weight = Tensor(rng.standard_normal((6, 3, 2)), requires_grad=True,
                        dtype=np.float64)
        bias = Tensor(rng.standard_normal((6, 2)), requires_grad=True,
                      dtype=np.float64)
        assert gradcheck(
            lambda a, c, d: (fused.concept_bank_decode(a, m, c, d) ** 2).sum(),
            [z, weight, bias])


# ----------------------------------------------------------------------
# Tape and inference contracts
# ----------------------------------------------------------------------
class TestContracts:
    def _inputs(self, rng):
        decoder = _decoder(rng, 10, 4, 6)
        z = Tensor(rng.standard_normal((3, 5, 10, 4)).astype(np.float32),
                   requires_grad=True)
        m = Tensor(_mask(rng, "top_lambda", (3, 5, 10)), requires_grad=True)
        return decoder, z, m

    def test_exactly_one_tape_node(self, rng):
        decoder, z, m = self._inputs(rng)
        before = graph_nodes()
        out = decoder(z, m)
        assert graph_nodes() - before == 1
        assert out._op == "fused_concept_bank_decode"

    def test_inference_mode_matches_training_forward(self, rng):
        decoder, z, m = self._inputs(rng)
        training = decoder(z, m)
        before = graph_nodes()
        with inference_mode():
            served = decoder(z, m)
        assert graph_nodes() == before
        assert not served.requires_grad
        np.testing.assert_array_equal(served.data, training.data)

    def test_dispatch_honours_toggle_and_bank_shape(self, rng):
        decoder, z, m = self._inputs(rng)
        assert decoder(z, m)._op == "fused_concept_bank_decode"
        with fused.use_fused(False):
            assert decoder(z, m)._op != "fused_concept_bank_decode"
        for kwargs in ({"mlp_hidden": 3}, {"shared_mlp": True}):
            decoder = IntentDecoder(10, 4, 6, **kwargs)
            assert decoder(z, m)._op != "fused_concept_bank_decode"
