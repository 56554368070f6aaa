"""Transformer model substrate: configs, reference numerics, sampling."""

from repro.model.config import AttentionKind, FfnKind, ModelConfig
from repro.model.presets import (
    MEGATRON_530B,
    MODEL_PRESETS,
    PALM_8B,
    PALM_62B,
    PALM_540B,
    PALM_540B_8LAYER,
    PALM_540B_8LAYER_MULTIHEAD,
    PALM_540B_MULTIHEAD,
    PALM_540B_PADDED,
    get_model,
    tiny_test_config,
)
from repro.model.reference import (
    KVCache,
    LayerWeights,
    ReferenceTransformer,
    TransformerWeights,
    attention,
    init_weights,
)
from repro.model.sampling import greedy, make_sampler, sample

__all__ = [
    "AttentionKind",
    "FfnKind",
    "KVCache",
    "LayerWeights",
    "MEGATRON_530B",
    "MODEL_PRESETS",
    "ModelConfig",
    "PALM_540B",
    "PALM_540B_8LAYER",
    "PALM_540B_8LAYER_MULTIHEAD",
    "PALM_540B_MULTIHEAD",
    "PALM_540B_PADDED",
    "PALM_62B",
    "PALM_8B",
    "ReferenceTransformer",
    "TransformerWeights",
    "attention",
    "get_model",
    "greedy",
    "init_weights",
    "make_sampler",
    "sample",
    "tiny_test_config",
]
