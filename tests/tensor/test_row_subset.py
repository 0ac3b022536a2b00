"""Row subsets: gather/merge tape nodes and full-layout GEMMs under ``row_subset``."""

import numpy as np
import pytest

from repro.nn.gumbel import sample_gumbel
from repro.tensor import (
    RowSubset, Tensor, active_row_subset, gather_rows, gradcheck, merge_rows,
    row_subset,
)
from repro.utils import set_seed
from repro.utils.seeding import get_rng


def _subset(rng, shape=(3, 4), share=0.5):
    total = int(np.prod(shape))
    index = np.sort(rng.choice(total, size=max(1, int(total * share)), replace=False))
    return RowSubset(index, shape)


class TestGatherMerge:
    def test_gather_rows_values_and_gradcheck(self, rng):
        subset = _subset(rng)
        x = Tensor(rng.standard_normal((3, 4, 5)), requires_grad=True)
        rows = gather_rows(x, subset)
        np.testing.assert_array_equal(rows.data, x.data.reshape(12, 5)[subset.index])
        assert gradcheck(lambda t: (gather_rows(t, subset) ** 2).sum(), [x])

    def test_merge_rows_values_and_gradcheck(self, rng):
        subset = _subset(rng)
        base = Tensor(rng.standard_normal((3, 4, 5)), requires_grad=True)
        rows = Tensor(rng.standard_normal((subset.size, 5)), requires_grad=True)
        merged = merge_rows(base, rows, subset).data.reshape(12, 5)
        np.testing.assert_array_equal(merged[subset.index], rows.data)
        skipped = np.setdiff1d(np.arange(12), subset.index)
        np.testing.assert_array_equal(merged[skipped], base.data.reshape(12, 5)[skipped])
        weights = Tensor(rng.standard_normal((3, 4, 5)))
        assert gradcheck(lambda b, r: (merge_rows(b, r, subset) * weights).sum(),
                         [base, rows])

    def test_full_subset_is_identity(self, rng):
        subset = RowSubset(np.arange(6), (2, 3))
        assert subset.is_full
        data = rng.standard_normal((6, 2))
        assert subset.scatter(data) is data
        assert subset.gather(data) is data


class TestRowSubsetMatmul:
    # (64, 20) rows against a 300-row subset straddles the size threshold
    # where OpenBLAS switches GEMM kernels: a compacted (300, 32) @ (32, 56)
    # product need not round like the dense (1280, 32) one.
    SHAPE, K, M = (64, 20), 32, 56

    def _operands(self, rng, dtype):
        subset = _subset(rng, self.SHAPE, share=0.25)
        a = rng.standard_normal(self.SHAPE + (self.K,)).astype(dtype)
        w = rng.standard_normal((self.K, self.M)).astype(dtype)
        g = rng.standard_normal(self.SHAPE + (self.M,)).astype(dtype)
        # Gradients only reach the subset rows, as in a masked loss.
        flat_g = g.reshape(-1, self.M)
        keep = np.zeros(len(flat_g), dtype=bool)
        keep[subset.index] = True
        flat_g[~keep] = 0.0
        return subset, a, w, g

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bit_identical_to_dense_rows(self, rng, dtype):
        subset, a, w, g = self._operands(rng, dtype)
        dense_a = Tensor(a, requires_grad=True)
        dense_w = Tensor(w, requires_grad=True)
        dense = dense_a @ dense_w
        dense.backward(g)

        rows_a = Tensor(a.reshape(-1, self.K)[subset.index], requires_grad=True)
        rows_w = Tensor(w, requires_grad=True)
        with row_subset(subset):
            rows = rows_a @ rows_w
        # The subset was captured at record time: backward runs outside it.
        assert active_row_subset() is None
        rows.backward(g.reshape(-1, self.M)[subset.index])

        np.testing.assert_array_equal(rows.data,
                                      dense.data.reshape(-1, self.M)[subset.index])
        np.testing.assert_array_equal(rows_a.grad,
                                      dense_a.grad.reshape(-1, self.K)[subset.index])
        np.testing.assert_array_equal(rows_w.grad, dense_w.grad)

    def test_batched_rows_fold_like_dense(self, rng):
        # (rows, K, d') @ (d', d') -- the GCN weight product.
        subset = _subset(rng, (8, 5), share=0.4)
        a = rng.standard_normal((8, 5, 6, 3)).astype(np.float32)
        w = Tensor(rng.standard_normal((3, 3)).astype(np.float32), requires_grad=True)
        dense = Tensor(a) @ w
        rows_in = Tensor(a.reshape(40, 6, 3)[subset.index])
        with row_subset(subset):
            rows = rows_in @ w
        np.testing.assert_array_equal(rows.data, dense.data.reshape(40, 6, 3)[subset.index])

    def test_other_shapes_unaffected(self, rng):
        subset = _subset(rng)
        a = Tensor(rng.standard_normal((4, 5)))
        b = Tensor(rng.standard_normal((5, 2)))
        with row_subset(subset):  # 4 rows != subset.size: an ordinary product
            out = a @ b
        np.testing.assert_array_equal(out.data, a.data @ b.data)


class TestGumbelUnderSubset:
    def test_noise_is_the_dense_draw_gathered(self, rng):
        subset = _subset(rng, (5, 4))
        set_seed(3)
        dense = sample_gumbel((5, 4, 7))
        dense_state = get_rng().bit_generator.state
        set_seed(3)
        with row_subset(subset):
            rows = sample_gumbel((subset.size, 7))
        np.testing.assert_array_equal(rows, dense.reshape(20, 7)[subset.index])
        assert get_rng().bit_generator.state == dense_state
