"""Model presets used in the paper's evaluation.

PaLM family hyperparameters from Chowdhery et al. (2022); Megatron-Turing
NLG 530B from Table D.1.  Parameter counts are validated by tests against
the published totals (8.6B / 62.5B / 540.35B / ~530B).
"""

from __future__ import annotations

from repro.model.config import AttentionKind, FfnKind, ModelConfig

#: PaLM 8B: 32 layers, d_model 4096, 16 heads of 256.
PALM_8B = ModelConfig(
    name="palm-8b",
    n_layers=32,
    d_model=4096,
    d_ff=16384,
    n_heads=16,
    d_head=256,
    vocab_size=256_000,
    attention=AttentionKind.MULTIQUERY,
    ffn=FfnKind.SWIGLU,
    parallel_block=True,
)

#: PaLM 62B: 64 layers, d_model 8192, 32 heads of 256.
PALM_62B = ModelConfig(
    name="palm-62b",
    n_layers=64,
    d_model=8192,
    d_ff=32768,
    n_heads=32,
    d_head=256,
    vocab_size=256_000,
    attention=AttentionKind.MULTIQUERY,
    ffn=FfnKind.SWIGLU,
    parallel_block=True,
)

#: PaLM 540B: 118 layers, d_model 18432, 48 heads of 256 (Table D.1).
PALM_540B = ModelConfig(
    name="palm-540b",
    n_layers=118,
    d_model=18432,
    d_ff=73728,
    n_heads=48,
    d_head=256,
    vocab_size=256_000,
    attention=AttentionKind.MULTIQUERY,
    ffn=FfnKind.SWIGLU,
    parallel_block=True,
)

#: The serving variant with heads padded 48 -> 64 for 64-way partitioning
#: (Section 4 "Methodology"; adds ~18B parameters at a ~3% MFU cost).
PALM_540B_PADDED = PALM_540B.with_padded_heads(64)

#: The multihead control variant of Section 4.2 / Table 1: d_head halved
#: 256 -> 128 to keep attention parameter count roughly constant.
PALM_540B_MULTIHEAD = PALM_540B.replace(
    name="palm-540b-multihead",
    attention=AttentionKind.MULTIHEAD,
    d_head=128,
)

#: The 8-layer PaLM 540B variant used in Figure 8's attention study.
PALM_540B_8LAYER = PALM_540B_PADDED.replace(
    name="palm-540b-8layer", n_layers=8)
PALM_540B_8LAYER_MULTIHEAD = PALM_540B_MULTIHEAD.replace(
    name="palm-540b-8layer-multihead", n_layers=8)

#: Megatron-Turing NLG 530B (Table D.1): multihead, serial block, 2-matrix
#: MLP.  Vocab is GPT-2 BPE padded to 51200 (Smith et al., 2022).
MEGATRON_530B = ModelConfig(
    name="megatron-530b",
    n_layers=105,
    d_model=20480,
    d_ff=81920,
    n_heads=128,
    d_head=160,
    vocab_size=51_200,
    attention=AttentionKind.MULTIHEAD,
    ffn=FfnKind.MLP,
    parallel_block=False,
)

MODEL_PRESETS = {m.name: m for m in (
    PALM_8B, PALM_62B, PALM_540B, PALM_540B_PADDED, PALM_540B_MULTIHEAD,
    PALM_540B_8LAYER, PALM_540B_8LAYER_MULTIHEAD, MEGATRON_530B)}


def get_model(name: str) -> ModelConfig:
    """Look up a model preset by name (e.g. ``"palm-540b"``)."""
    try:
        return MODEL_PRESETS[name]
    except KeyError:
        known = ", ".join(sorted(MODEL_PRESETS))
        raise KeyError(
            f"unknown model {name!r}; known models: {known}") from None


def tiny_test_config(*, n_layers: int = 2, d_model: int = 16, d_ff: int = 32,
                     n_heads: int = 4, d_head: int = 8,
                     vocab_size: int = 64,
                     attention: AttentionKind = AttentionKind.MULTIQUERY,
                     ffn: FfnKind = FfnKind.SWIGLU,
                     parallel_block: bool = True) -> ModelConfig:
    """A small config for numerics tests on the virtual mesh."""
    return ModelConfig(
        name="tiny", n_layers=n_layers, d_model=d_model, d_ff=d_ff,
        n_heads=n_heads, d_head=d_head, vocab_size=vocab_size,
        attention=attention, ffn=ffn, parallel_block=parallel_block)
