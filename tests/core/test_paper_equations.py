"""ISRec against the paper's equations, through an independent oracle.

Each oracle below is a plain-numpy, one-position-at-a-time transcription
of an equation of PAPER.md §3.  It shares no code with ``repro.tensor``
or ``repro.nn``: it reads parameters and inputs as arrays and loops, so a
bug in a kernel (fused or composed) cannot also hide in its reference.
The model side runs under the ``float64`` backend so the comparison
measures the equations, not float32 rounding.

Covered so far: Eq. (11), the intent decoder.
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
