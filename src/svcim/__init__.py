"""Link-level simulator for sparse-vector-coded OFDM with codebook index modulation."""

from .channel import ChannelRealization, apply_freq, apply_time, draw_channel
from .codebook import column_coherence, generate_set
from .detectors import (
    DetectionResult,
    MmpDfParams,
    Sensing,
    SparseEstimate,
    ml_secbim,
    mmp_df,
    secbim_decode,
)
from .harness import BerRecord, SweepPlan, TimingRecord, emit_results, run_ber_sweep, run_timing
from .index_codec import (
    ApSpace,
    SparseMessage,
    combo_to_rank,
    decode_to_bits,
    encode_bits,
    rank_to_combo,
    symbol_rows,
)
from .link import (
    FrameTrace,
    LinkContext,
    SystemConfig,
    bits_per_symbol,
    run_frame,
    spectral_efficiency,
)
from .transceiver import build_sparse_vector, ofdm_demodulate, ofdm_modulate, spread

__version__ = "0.1.0"

__all__ = [
    "ApSpace",
    "BerRecord",
    "ChannelRealization",
    "DetectionResult",
    "FrameTrace",
    "LinkContext",
    "MmpDfParams",
    "Sensing",
    "SparseEstimate",
    "SparseMessage",
    "SweepPlan",
    "SystemConfig",
    "TimingRecord",
    "apply_freq",
    "apply_time",
    "bits_per_symbol",
    "build_sparse_vector",
    "column_coherence",
    "combo_to_rank",
    "decode_to_bits",
    "draw_channel",
    "emit_results",
    "encode_bits",
    "generate_set",
    "ml_secbim",
    "mmp_df",
    "ofdm_demodulate",
    "ofdm_modulate",
    "rank_to_combo",
    "run_ber_sweep",
    "run_frame",
    "run_timing",
    "secbim_decode",
    "spectral_efficiency",
    "spread",
    "symbol_rows",
]
