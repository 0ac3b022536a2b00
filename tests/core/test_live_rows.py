"""ISRec's live-row intent path against the dense ``forward_detailed`` reference.

``ISRec.sequence_output`` runs Eq. 5-11 only on the rows that can be read
(non-padding positions plus the last column) and ``ISRec.final_state``
only on the last column.  The contract is bit-exactness, not a tolerance:
the loss, every parameter gradient and the global RNG state after a train
step, and every final state, must equal the dense reference exactly.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro import ISRec, ISRecConfig
from repro.tensor import fused, inference_mode, no_grad, use_backend
from repro.train import TrainConfig
from repro.utils import set_seed
from repro.utils.seeding import get_rng

NUM_ITEMS, NUM_CONCEPTS, MAX_LEN = 30, 6, 7

CONFIGS = {
    "default": ISRecConfig(dim=8, intent_dim=4, num_intents=2),
    "no_residual": ISRecConfig(dim=8, intent_dim=4, num_intents=2),
    "no_gnn": ISRecConfig(dim=8, intent_dim=4, num_intents=2, use_gnn=False),
    "learned_graph": ISRecConfig(dim=8, intent_dim=4, num_intents=2,
                                 graph_mode="learned"),
    "mlp_hidden": ISRecConfig(dim=8, intent_dim=4, num_intents=2, mlp_hidden=5),
    "shared_mlp": ISRecConfig(dim=8, intent_dim=4, num_intents=2, shared_mlp=True),
    "dot": ISRecConfig(dim=8, intent_dim=4, num_intents=2, similarity="dot"),
    "lambda_ge_k": ISRecConfig(dim=8, intent_dim=4, num_intents=NUM_CONCEPTS + 3),
}

# Left-padded (B, T) histories; item 29 has no concepts (see _world).
BATCHES = {
    "no_padding": np.array([[3, 9, 14, 2, 5, 7, 1],
                            [8, 11, 6, 4, 12, 19, 22]]),
    "all_padding_row": np.array([[0, 0, 0, 4, 12, 19, 22],
                                 [0, 0, 0, 0, 0, 0, 0],
                                 [0, 5, 7, 1, 8, 11, 6]]),
    "length_one": np.array([[0, 0, 0, 0, 0, 0, 13],
                            [0, 0, 0, 0, 0, 0, 2],
                            [0, 0, 0, 0, 0, 0, 27]]),
    "conceptless_item": np.array([[0, 0, 29, 3, 29, 9, 14],
                                  [0, 0, 0, 0, 29, 2, 29]]),
}


def _world():
    """Item-concept matrix with a concept-free item and a graph with an
    isolated concept (concept 5)."""
    rng = np.random.default_rng(11)
    item_concepts = (rng.random((NUM_ITEMS + 1, NUM_CONCEPTS)) < 0.4).astype(np.float32)
    item_concepts[0] = 0.0
    item_concepts[NUM_ITEMS - 1] = 0.0
    adjacency = np.zeros((NUM_CONCEPTS, NUM_CONCEPTS), dtype=np.float32)
    for a, b in ((0, 1), (1, 2), (2, 3), (3, 4), (0, 4)):
        adjacency[a, b] = adjacency[b, a] = 1.0
    return item_concepts, adjacency


def _model(name: str, seed: int = 3) -> ISRec:
    item_concepts, adjacency = _world()
    set_seed(seed)
    model = ISRec(NUM_ITEMS, item_concepts, adjacency, max_len=MAX_LEN,
                  config=dataclasses.replace(CONFIGS[name]),
                  residual=name != "no_residual")
    # Non-zero biases, so a dropped or duplicated bias term cannot hide.
    rng = np.random.default_rng(seed)
    for pname, param in model.named_parameters():
        if pname.endswith("bias"):
            param.data[...] = 0.1 * rng.standard_normal(param.shape)
    return model


def _batch(inputs: np.ndarray):
    """A next-item batch whose targets are the inputs shifted left."""
    targets = np.zeros_like(inputs)
    targets[:, :-1] = inputs[:, 1:]
    targets[:, -1] = np.where(inputs[:, -1] > 0, (inputs[:, -1] % NUM_ITEMS) + 1, 0)
    targets[inputs == 0] = 0
    mask = (targets > 0).astype(np.float32)
    if not mask.any():
        mask[0, -1] = 1.0
        targets[0, -1] = 1
    users = np.arange(len(inputs))
    return users, inputs, targets, mask


def _reference(model: ISRec):
    """Route the model's training/final-state reads through forward_detailed."""
    model.sequence_output = lambda inputs: model.forward_detailed(inputs)["output"]
    model.final_state = lambda inputs: model.forward_detailed(inputs)["output"][:, -1, :]
    return model


def _train_step(name: str, batch, reference: bool, contrastive: bool = False):
    model = _model(name)
    if reference:
        _reference(model)
    if contrastive:
        model.configure_contrastive(TrainConfig(contrastive_weight=0.5, seed=4))
    model.train()
    set_seed(99)
    with fused.use_fused(True):
        loss = model.training_loss(batch)
        loss.backward()
    grads = {pname: param.grad for pname, param in model.named_parameters()}
    return loss.data, grads, get_rng().bit_generator.state


def _assert_same_step(live, ref):
    np.testing.assert_array_equal(live[0], ref[0])
    assert live[1].keys() == ref[1].keys()
    for pname in ref[1]:
        if ref[1][pname] is None:
            assert live[1][pname] is None, pname
            continue
        np.testing.assert_array_equal(live[1][pname], ref[1][pname], err_msg=pname)
    assert live[2] == ref[2]


@pytest.mark.parametrize("backend", ["float32", "float64"])
@pytest.mark.parametrize("config", sorted(CONFIGS))
def test_train_step_matches_reference_per_config(backend, config):
    batch = _batch(BATCHES["all_padding_row"])
    with use_backend(backend):
        live = _train_step(config, batch, reference=False)
        ref = _train_step(config, batch, reference=True)
    assert live[0].dtype == (np.float64 if backend == "float64" else np.float32)
    _assert_same_step(live, ref)


@pytest.mark.parametrize("backend", ["float32", "float64"])
@pytest.mark.parametrize("batch_name", sorted(BATCHES))
def test_train_step_matches_reference_per_batch(backend, batch_name):
    batch = _batch(BATCHES[batch_name])
    with use_backend(backend):
        live = _train_step("default", batch, reference=False)
        ref = _train_step("default", batch, reference=True)
    _assert_same_step(live, ref)


def test_contrastive_step_matches_reference():
    # The contrastive loss reads final_state of two crops of each history.
    batch = _batch(BATCHES["all_padding_row"])
    live = _train_step("default", batch, reference=False, contrastive=True)
    ref = _train_step("default", batch, reference=True, contrastive=True)
    _assert_same_step(live, ref)


def test_gumbel_noise_changes_the_step():
    # Guard against a vacuous parity: the train step draws Gumbel noise.
    batch = _batch(BATCHES["no_padding"])
    model = _model("default")
    model.train()
    before = get_rng().bit_generator.state
    model.training_loss(batch)
    assert get_rng().bit_generator.state != before


@pytest.mark.parametrize("backend", ["float32", "float64"])
@pytest.mark.parametrize("config", sorted(CONFIGS))
def test_final_state_matches_reference_last_row(backend, config):
    inputs = np.concatenate([BATCHES["all_padding_row"], BATCHES["length_one"],
                             BATCHES["conceptless_item"]])
    with use_backend(backend):
        model = _model(config)
        model.eval()
        with no_grad():
            expected = model.forward_detailed(inputs)["output"].data[:, -1]
            np.testing.assert_array_equal(model.final_state(inputs).data, expected)
        with inference_mode():
            np.testing.assert_array_equal(model.final_state(inputs).data, expected)


def test_final_state_single_user_and_empty_history():
    # One row is the shape a cold serving refresh runs: the GEMMs must keep
    # the dense row count instead of dropping to a matrix-vector product.
    model = _model("default")
    model.eval()
    for history in ([0] * MAX_LEN, [0, 0, 0, 0, 0, 4, 9], list(range(1, MAX_LEN + 1))):
        inputs = np.array([history])
        with no_grad():
            expected = model.forward_detailed(inputs)["output"].data[:, -1]
            np.testing.assert_array_equal(model.final_state(inputs).data, expected)


def test_score_matches_reference():
    model = _model("default")
    model.eval()
    inputs = np.concatenate([BATCHES["all_padding_row"], BATCHES["length_one"]])
    candidates = np.arange(1, 11)[None, :].repeat(len(inputs), axis=0)
    users = np.arange(len(inputs))
    live = model.score(users, inputs, candidates)
    expected = _reference(model).score(users, inputs, candidates)
    np.testing.assert_array_equal(live, expected)


def test_sequence_output_rows():
    """Live rows equal the reference; padded rows pass the encoder state."""
    model = _model("default")
    model.eval()
    inputs = BATCHES["all_padding_row"]
    with no_grad():
        detail = model.forward_detailed(inputs)
        output = model.sequence_output(inputs).data
    live = inputs != 0
    live[:, -1] = True
    np.testing.assert_array_equal(output[live], detail["output"].data[live])
    np.testing.assert_array_equal(output[~live], detail["states"].data[~live])


def test_reference_path_under_use_fused_false():
    model = _model("default")
    model.eval()
    inputs = BATCHES["all_padding_row"]
    with no_grad(), fused.use_fused(False):
        np.testing.assert_array_equal(model.sequence_output(inputs).data,
                                      model.forward_detailed(inputs)["output"].data)


def test_benchmark_shapes_match_reference():
    """Parity at the ``pipeline-sparse`` shapes (B=64, T=20, K=56, d=32).

    Here the live rows of a batch (~28%) and a one-column final state fall
    below the size at which OpenBLAS switches GEMM kernels, while the dense
    products stay above it; the tiny shapes above never straddle it.
    """
    rng = np.random.default_rng(5)
    num_items, concepts, length, batch = 400, 56, 20, 64
    item_concepts = (rng.random((num_items + 1, concepts)) < 0.06).astype(np.float32)
    item_concepts[0] = 0.0
    adjacency = (rng.random((concepts, concepts)) < 0.1).astype(np.float32)
    adjacency = np.triu(adjacency, 1) + np.triu(adjacency, 1).T
    lengths = rng.integers(1, 11, size=batch)
    inputs = np.zeros((batch, length), dtype=np.int64)
    for row, n in enumerate(lengths):
        inputs[row, length - n:] = rng.integers(1, num_items + 1, size=n)
    train_batch = _batch(inputs)

    def build():
        set_seed(3)
        return ISRec(num_items, item_concepts, adjacency, max_len=length,
                     config=ISRecConfig(dim=32))

    def step(model):
        model.train()
        set_seed(99)
        loss = model.training_loss(train_batch)
        loss.backward()
        return (loss.data, {n: p.grad for n, p in model.named_parameters()},
                get_rng().bit_generator.state)

    _assert_same_step(step(build()), step(_reference(build())))
    model = build()
    model.eval()
    with no_grad():
        expected = model.forward_detailed(inputs)["output"].data[:, -1]
        np.testing.assert_array_equal(model.final_state(inputs).data, expected)
        np.testing.assert_array_equal(model.final_state(inputs[:1]).data, expected[:1])
