"""Freeze trained models into checksummed inference artifacts.

An inference artifact is one atomic ``.npz`` archive
(:func:`repro.utils.serialization.write_npz_atomic`) holding everything a
server needs and nothing it doesn't:

- ``weights/<name>`` — the model ``state_dict`` arrays;
- ``const/<name>`` — non-trainable constructor arrays (concept matrix,
  concept-graph adjacency) from the model's ``export_config`` hook;
- the ``__meta__`` blob — ``kind="inference_artifact"``, the model class
  name, the JSON architecture config, the vocabulary size, and the usual
  per-array CRC-32 checksums.

Unlike a :class:`~repro.train.TrainState`, an artifact carries no
optimizer moments, RNG streams, or history — it is typically a fraction
of the training checkpoint's size and loads straight into forced-eval
mode: :func:`load_artifact` always calls ``model.eval()``, so a model
exported while still in train mode (mid-run best checkpoint, a forgotten
``eval()``) serves deterministically anyway.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from repro.models.base import SequenceRecommender
from repro.train.checkpoint import load_model_state
from repro.utils.serialization import (
    CheckpointIntegrityError,
    normalize_checkpoint_path,
    read_npz_verified,
    write_npz_atomic,
)

ARTIFACT_KIND = "inference_artifact"

_WEIGHT_PREFIX = "weights/"
_CONST_PREFIX = "const/"
_QUANT_PREFIX = "quant/"

#: Model classes that can be rebuilt from an artifact, keyed by class name.
_BUILDERS: dict[str, type[SequenceRecommender]] = {}


def register_model(cls: type[SequenceRecommender]) -> type[SequenceRecommender]:
    """Make ``cls`` loadable from artifacts (usable as a decorator).

    The class must implement the ``export_config`` /
    ``from_export_config`` protocol of
    :class:`~repro.models.base.SequenceRecommender`.
    """
    _BUILDERS[cls.__name__] = cls
    return cls


def servable_models() -> tuple[str, ...]:
    """Class names currently registered for artifact loading."""
    return tuple(sorted(_BUILDERS))


def _register_builtins() -> None:
    """Register the project's stock models (idempotent)."""
    from repro.core.isrec import ISRec
    from repro.models.fm import FM
    from repro.models.gru4rec import GRU4Rec, GRU4RecPlus
    from repro.models.ktup import KTUP
    from repro.models.sasrec import SASRec, SASRecConcept

    for cls in (ISRec, SASRec, SASRecConcept, GRU4Rec, GRU4RecPlus, KTUP, FM):
        register_model(cls)


_register_builtins()


def export_artifact(model: SequenceRecommender, path: str | Path,
                    extra_meta: dict | None = None,
                    quantize: str | None = None) -> Path:
    """Freeze ``model`` into an inference artifact at ``path``.

    The model's current weights are captured as-is; its train/eval mode is
    irrelevant (and not mutated) because :func:`load_artifact` forces eval
    mode on the serving side.  Returns the resolved ``.npz`` path.

    ``quantize="int8"`` stores every weight *matrix* (``ndim >= 2``) as a
    symmetric per-channel int8 array plus a ``quant/<name>`` scale vector
    (:func:`~repro.serve.quantize.quantize_per_channel`); vectors (biases,
    layer-norm gains) stay float.  :func:`load_artifact` decodes the
    weights back to float32 transparently, so the artifact serves through
    the same :class:`~repro.serve.engine.RecommendationEngine`.
    """
    from repro.serve.quantize import (
        QUANT_SCHEMES, _MIN_QUANT_NDIM, quantize_per_channel,
    )

    if quantize is not None and quantize not in QUANT_SCHEMES:
        raise ValueError(f"unknown quantization scheme {quantize!r}; "
                         f"available: {', '.join(QUANT_SCHEMES)}")
    config, constants = model.export_config()
    class_name = type(model).__name__
    if class_name not in _BUILDERS:
        raise ValueError(
            f"{class_name} is not registered for serving; call "
            f"repro.serve.register_model({class_name}) first")
    state = model.state_dict()
    arrays: dict[str, np.ndarray] = {}
    quantized_names: list[str] = []
    for name, value in state.items():
        value = np.asarray(value)
        if (quantize == "int8" and value.dtype.kind == "f"
                and value.ndim >= _MIN_QUANT_NDIM):
            q, scales = quantize_per_channel(value, axis=0)
            arrays[f"{_WEIGHT_PREFIX}{name}"] = q
            arrays[f"{_QUANT_PREFIX}{name}"] = scales
            quantized_names.append(name)
        else:
            arrays[f"{_WEIGHT_PREFIX}{name}"] = value
    for name, value in constants.items():
        arrays[f"{_CONST_PREFIX}{name}"] = np.asarray(value)
    meta = {
        "kind": ARTIFACT_KIND,
        "model_class": class_name,
        "model_name": model.name,
        "config": config,
        "num_items": int(model.num_items),
        "max_len": int(model.max_len),
        "num_parameters": int(sum(np.asarray(v).size for v in state.values())),
    }
    if quantize is not None:
        meta["quantize"] = quantize
        meta["quantized_weights"] = quantized_names
    if extra_meta:
        meta.update(extra_meta)
    return write_npz_atomic(normalize_checkpoint_path(path), arrays, meta)


def export_checkpoint(checkpoint_path: str | Path, model: SequenceRecommender,
                      path: str | Path, quantize: str | None = None) -> Path:
    """Freeze the weights stored in ``checkpoint_path`` into an artifact.

    ``model`` supplies the architecture (an instance matching the
    checkpoint — freshly constructed is fine); ``checkpoint_path`` may be
    either kind of training archive — a full :class:`~repro.train.TrainState`
    rotation file or a plain best-model
    :func:`~repro.utils.serialization.save_checkpoint` — via
    :func:`repro.train.load_model_state`.  The weights are loaded into
    ``model`` (mutating it) and then exported.
    """
    model_state, meta = load_model_state(checkpoint_path)
    stored_class = meta.get("model_class", "")
    if stored_class and stored_class != type(model).__name__:
        raise TypeError(
            f"checkpoint {checkpoint_path} was saved from {stored_class!r} "
            f"but the architecture instance is {type(model).__name__!r}")
    model.load_state_dict(model_state)
    return export_artifact(model, path,
                           extra_meta={"source_checkpoint": str(checkpoint_path)},
                           quantize=quantize)


def load_artifact(path: str | Path) -> SequenceRecommender:
    """Rebuild the model frozen at ``path``, in eval mode.

    Verifies checksums, reconstructs the architecture through the class's
    ``from_export_config``, loads the weights, and **forces eval mode** —
    dropout and Gumbel noise are off no matter what mode the exporting
    process left the model in.
    """
    path = Path(path)
    if not path.exists() and normalize_checkpoint_path(path).exists():
        path = normalize_checkpoint_path(path)
    arrays, meta = read_npz_verified(path)
    if meta.get("kind") != ARTIFACT_KIND:
        raise CheckpointIntegrityError(
            f"{path}: not an inference artifact (kind={meta.get('kind')!r})")
    class_name = meta.get("model_class", "")
    builder = _BUILDERS.get(class_name)
    if builder is None:
        raise CheckpointIntegrityError(
            f"{path}: model class {class_name!r} is not registered for "
            f"serving (known: {', '.join(servable_models())})")
    weights = {key[len(_WEIGHT_PREFIX):]: value
               for key, value in arrays.items()
               if key.startswith(_WEIGHT_PREFIX)}
    constants = {key[len(_CONST_PREFIX):]: value
                 for key, value in arrays.items()
                 if key.startswith(_CONST_PREFIX)}
    if not weights:
        raise CheckpointIntegrityError(f"{path}: artifact holds no weights")
    for name in meta.get("quantized_weights", ()):
        # Transparent decode of int8-quantized matrices to float32.
        from repro.serve.quantize import dequantize

        scales = arrays.get(f"{_QUANT_PREFIX}{name}")
        if scales is None or name not in weights:
            raise CheckpointIntegrityError(
                f"{path}: quantized weight {name!r} is missing its data "
                f"or quant/ scales")
        weights[name] = dequantize(weights[name], scales, axis=0)
    model = builder.from_export_config(meta["config"], constants)
    model.load_state_dict(weights)
    model.eval()
    return model

