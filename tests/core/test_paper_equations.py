"""ISRec against the paper's equations, through an independent oracle.

Each oracle below is a plain-numpy, one-position-at-a-time transcription
of an equation of PAPER.md §3.  It shares no code with ``repro.tensor``
or ``repro.nn``: it reads parameters and inputs as arrays and loops, so a
bug in a kernel (fused or composed) cannot also hide in its reference.
The model side runs under the ``float64`` backend so the comparison
measures the equations, not float32 rounding.

Covered so far: Eq. (5)-(10) on the live-row path (similarity and top-λ,
the masked per-concept MLPs, the normalised GCN and top-λ by norm) and
Eq. (11), the intent decoder.
"""

import numpy as np
import pytest

from repro import ISRec, ISRecConfig
from repro.core import IntentDecoder
from repro.tensor import Tensor, fused, no_grad, use_backend
from repro.utils import set_seed

ATOL = 1e-6


def eq11_decode(z, m, weight, bias):
    """``x_{t+1} = Σ_k m_{t+1,k} (z_{t+1,k} W_k + b_k)`` (Eq. 11).

    ``z`` is ``(B, T, K, d')``, ``m`` ``(B, T, K)``, ``weight`` the
    ``(K, d', d)`` per-concept reverse maps ``MLP'_k`` and ``bias`` their
    ``(K, d)`` offsets.
    """
    z, m = np.asarray(z, np.float64), np.asarray(m, np.float64)
    weight, bias = np.asarray(weight, np.float64), np.asarray(bias, np.float64)
    batch, length, concepts, _ = z.shape
    out = np.zeros((batch, length, weight.shape[-1]))
    for b in range(batch):
        for t in range(length):
            for k in range(concepts):
                out[b, t] += m[b, t, k] * (z[b, t, k] @ weight[k] + bias[k])
    return out


def _top_lambda_mask(rng, shape, lam):
    mask = np.zeros(shape)
    order = np.argsort(rng.standard_normal(shape), axis=-1)[..., :lam]
    np.put_along_axis(mask, order, 1.0 + 1e-3 * rng.standard_normal(order.shape),
                      axis=-1)
    return mask


class TestEq11Decoder:
    @pytest.mark.parametrize("fused_on", [True, False], ids=["fused", "composed"])
    @pytest.mark.parametrize("kind", ["top_lambda", "general"])
    def test_decoder_matches_oracle(self, rng, fused_on, kind):
        shape = (3, 4, 7)
        if kind == "top_lambda":
            m = _top_lambda_mask(rng, shape, lam=2)
        else:
            m = rng.random(shape) * (rng.random(shape) < 0.5)
        z = rng.standard_normal(shape + (3,))
        with use_backend("float64"):
            decoder = IntentDecoder(7, 3, 5)
            bank = decoder.decoder_bank.first
            bank.bias.data[...] = rng.standard_normal(bank.bias.shape)
            with fused.use_fused(fused_on):
                out = decoder(Tensor(z), Tensor(m))
        assert out.dtype == np.float64
        np.testing.assert_allclose(
            out.data, eq11_decode(z, m, bank.weight.data, bank.bias.data),
            rtol=0, atol=ATOL)

    @pytest.mark.parametrize("fused_on", [True, False], ids=["fused", "composed"])
    def test_model_output_matches_oracle(self, tiny_dataset, fused_on):
        # The decoder inside a real forward: x_{t+1} = Eq. 11 + x_t (the
        # residual), from the model's own Z_{t+1} and m_{t+1}.
        lam = 3
        with use_backend("float64"):
            set_seed(5)
            model = ISRec.from_dataset(
                tiny_dataset, max_len=6,
                config=ISRecConfig(dim=8, intent_dim=4, num_intents=lam))
            model.eval()
            inputs = np.array([[0, 0, 3, 9, 14, 2], [5, 7, 1, 8, 11, 6]])
            with no_grad(), fused.use_fused(fused_on):
                detail = model.forward_detailed(inputs)
        assert detail["output"].dtype == np.float64
        m = detail["next_intention"].data
        # Exactly λ concepts active, the rest exactly zero: the sparsity
        # the fused kernel relies on.
        assert ((m != 0).sum(axis=-1) == lam).all()
        bank = model.decoder.decoder_bank.first
        expected = eq11_decode(detail["next_features"].data, m,
                               bank.weight.data, bank.bias.data)
        np.testing.assert_allclose(
            detail["output"].data, expected + detail["states"].data,
            rtol=0, atol=ATOL)


# ----------------------------------------------------------------------
# Eq. (5)-(10) on the live-row path
# ----------------------------------------------------------------------
#: The ``ε`` inside every vector norm of the model (``|v| = sqrt(v·v + ε)``);
#: with the 0.02-std concept initialisation it moves a cosine by ~1e-5.
NORM_EPS = 1e-8


def eq6_similarity(x, concepts, scale, kind="cosine"):
    """``s_{t,k} = scale · cos(x_t, c_k)`` (Eq. 6; ``dot`` for the ablation)."""
    out = np.zeros(len(concepts))
    for k, c in enumerate(concepts):
        dot = float(np.dot(x, c))
        if kind == "cosine":
            dot /= np.sqrt(np.dot(x, x) + NORM_EPS) * np.sqrt(np.dot(c, c) + NORM_EPS)
        out[k] = scale * dot
    return out


def top_lambda(values, lam):
    """Multi-hot of the ``λ`` largest entries (Eq. 5 in eval mode, operator g)."""
    hot = np.zeros(len(values))
    for k in sorted(range(len(values)), key=lambda j: -values[j])[:lam]:
        hot[k] = 1.0
    return hot


def eq8_features(x, m, weight, bias):
    """``z_{t,k} = m_{t,k} · MLP_k(x_t)`` with single-layer ``MLP_k`` (Eq. 7-8)."""
    return np.stack([m[k] * (x @ weight[k] + bias[k]) for k in range(len(m))])


def eq10_normalized(adjacency):
    """``D^-1/2 (A + I) D^-1/2`` with ``D`` the degrees of ``A + I`` (Eq. 10)."""
    size = len(adjacency)
    a_hat = np.asarray(adjacency, np.float64) + np.eye(size)
    out = np.zeros((size, size))
    for i in range(size):
        for j in range(size):
            out[i, j] = a_hat[i, j] / np.sqrt(a_hat[i].sum() * a_hat[j].sum())
    return out


def eq9_gcn(z, normalized, layers):
    """``Z_{t+1} = F(Z_t, A)``: ReLU GCN layers, the last one linear (Eq. 9)."""
    for i, (weight, bias) in enumerate(layers):
        z = normalized @ (z @ weight) + bias
        if i < len(layers) - 1:
            z = np.maximum(z, 0.0)
    return z


def _isolated_concept_model(lam=2):
    """A float64 ISRec whose graph leaves concept 5 isolated."""
    rng = np.random.default_rng(21)
    num_items, concepts = 20, 6
    item_concepts = (rng.random((num_items + 1, concepts)) < 0.4).astype(np.float32)
    item_concepts[0] = 0.0
    adjacency = np.zeros((concepts, concepts), dtype=np.float32)
    for a, b in ((0, 1), (1, 2), (2, 3), (3, 4)):
        adjacency[a, b] = adjacency[b, a] = 1.0
    set_seed(8)
    model = ISRec(num_items, item_concepts, adjacency, max_len=5,
                  config=ISRecConfig(dim=6, intent_dim=3, num_intents=lam))
    for name, param in model.named_parameters():
        if name.endswith("bias"):
            param.data[...] = 0.1 * rng.standard_normal(param.shape)
    model.eval()
    return model, adjacency


def _recorded_live_rows(model, inputs, monkeypatch):
    """Run ``sequence_output`` recording each intent module's row outputs."""
    seen = {}
    for name in ("extractor", "transition"):
        module = getattr(model, name)
        original = module.forward

        def record(*args, _name=name, _original=original):
            seen[_name] = _original(*args)
            return seen[_name]

        monkeypatch.setattr(module, "forward", record)
    with no_grad():
        states = model.encoder(inputs).data
        output = model.sequence_output(inputs).data
    return states, output, seen


class TestEq5To10LiveRows:
    """Per-position oracles of Eq. 5-10 against the live-row path."""

    def test_live_rows_match_oracle(self, monkeypatch):
        lam = 2
        inputs = np.array([[0, 0, 3, 9, 14], [5, 7, 1, 8, 11], [0, 0, 0, 0, 0],
                           [0, 0, 0, 0, 17]])
        with use_backend("float64"):
            model, adjacency = _isolated_concept_model(lam)
            states, output, seen = _recorded_live_rows(model, inputs, monkeypatch)
        live = inputs != 0
        live[:, -1] = True
        positions = np.argwhere(live)
        intention, scores = (t.data for t in seen["extractor"])
        next_features, next_intention = (t.data for t in seen["transition"])
        assert intention.shape[0] == len(positions)  # only live rows ran

        concepts = model.encoder.concept_embedding.data
        bank = model.transition.feature_bank.first
        normalized = eq10_normalized(adjacency)
        assert normalized[5, 5] == 1.0  # the isolated concept keeps itself
        layers = [(layer.weight.data, layer.bias.data)
                  for layer in model.transition.gcn.layers]
        decoder = model.decoder.decoder_bank.first
        for row, (b, t) in enumerate(positions):
            x = states[b, t]
            s = eq6_similarity(x, concepts, model.extractor.similarity_scale)
            np.testing.assert_allclose(scores[row], s, rtol=0, atol=ATOL)
            m = top_lambda(s, lam)
            np.testing.assert_allclose(intention[row], m, rtol=0, atol=ATOL)
            z = eq8_features(x, m, bank.weight.data, bank.bias.data)
            z_next = eq9_gcn(z, normalized, layers)
            np.testing.assert_allclose(next_features[row], z_next, rtol=0, atol=ATOL)
            norms = np.sqrt((z_next ** 2).sum(axis=-1))
            m_next = top_lambda(norms, lam)
            np.testing.assert_allclose(next_intention[row], m_next, rtol=0, atol=ATOL)
            decoded = eq11_decode(z_next[None, None], m_next[None, None],
                                  decoder.weight.data, decoder.bias.data)[0, 0]
            np.testing.assert_allclose(output[b, t], decoded + x, rtol=0, atol=ATOL)

    def test_dot_similarity_matches_oracle(self, monkeypatch):
        inputs = np.array([[0, 2, 4, 6, 8], [1, 3, 5, 7, 9]])
        with use_backend("float64"):
            model, _adjacency = _isolated_concept_model()
            model.extractor.similarity = "dot"
            states, _output, seen = _recorded_live_rows(model, inputs, monkeypatch)
        scores = seen["extractor"][1].data
        concepts = model.encoder.concept_embedding.data
        live = np.argwhere(inputs != 0)
        for row, (b, t) in enumerate(live):
            np.testing.assert_allclose(
                scores[row],
                eq6_similarity(states[b, t], concepts,
                               model.extractor.similarity_scale, kind="dot"),
                rtol=0, atol=ATOL)

    def test_masked_features_zero_outside_intention(self):
        # Eq. 8: inactive concepts carry exactly zero features.
        rng = np.random.default_rng(2)
        with use_backend("float64"):
            model, _adjacency = _isolated_concept_model()
            x = rng.standard_normal((4, 6))
            m = np.stack([top_lambda(rng.standard_normal(6), 2) for _ in range(4)])
            z = model.transition.intent_features(Tensor(x), Tensor(m)).data
        bank = model.transition.feature_bank.first
        for row in range(4):
            expected = eq8_features(x[row], m[row], bank.weight.data, bank.bias.data)
            np.testing.assert_allclose(z[row], expected, rtol=0, atol=ATOL)
            assert (z[row][m[row] == 0] == 0).all()
