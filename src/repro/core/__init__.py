"""CacheGen's core contribution: the KV cache codec.

This subpackage contains the KV cache data model and the encoder/decoder
pipeline of §5.2: change-based (anchor/delta) encoding, layer-wise
quantization, per-(layer, channel) probability models and arithmetic coding.
"""

from .arithmetic_coder import ArithmeticDecoder, ArithmeticEncoder
from .config import DEFAULT_LEVELS, CacheGenConfig, EncodingLevel
from .decoder import CacheGenDecoder
from .delta import (
    DeltaDecomposition,
    anchor_positions,
    compute_deltas,
    consecutive_delta_variance_ratio,
    reconstruct_from_deltas,
)
from .encoder import (
    CacheGenEncoder,
    EncodedKV,
    EncodedTensorStream,
    FittedCodec,
    LevelCodecModel,
)
from .entropy_codec import EntropyEncodedPayload
from .kv_cache import KVCache
from .probability_model import ALPHABET_SIZE, SYMBOL_OFFSET, SymbolProbabilityModel
from .quantization import (
    SYMBOL_CLIP,
    QuantizedTensor,
    bin_quantize,
    layer_bin_sizes,
    vectorwise_quantize,
)

__all__ = [
    "ALPHABET_SIZE",
    "ArithmeticDecoder",
    "ArithmeticEncoder",
    "CacheGenConfig",
    "CacheGenDecoder",
    "CacheGenEncoder",
    "DEFAULT_LEVELS",
    "DeltaDecomposition",
    "EncodedKV",
    "EncodedTensorStream",
    "EncodingLevel",
    "EntropyEncodedPayload",
    "FittedCodec",
    "KVCache",
    "LevelCodecModel",
    "QuantizedTensor",
    "SYMBOL_CLIP",
    "SYMBOL_OFFSET",
    "SymbolProbabilityModel",
    "anchor_positions",
    "bin_quantize",
    "compute_deltas",
    "layer_bin_sizes",
    "reconstruct_from_deltas",
    "vectorwise_quantize",
]
