"""End-to-end frame orchestration and the validated system configuration.

A frame draws ``m`` uniform bits, encodes them onto a sparse virtual-domain
vector (the leading log2(G) bits pick the spreading codebook, none when
G = 1), pushes the spread OFDM block through the configured channel path,
decodes with the configured detector and reports the full trace.

All randomness is derived from ``(config, rng stream)``: the codebooks come
from the master seed, each frame consumes bits, then channel taps, then
noise from its generator, so a frame is reproducible from (config, seed).
"""
from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass, field, fields

import numpy as np

from . import detectors
from .channel import apply_freq, apply_time, draw_channel
from .codebook import (field_types, generate_set, require_at_least, require_field_types, require_in_range,
                       require_pow2)
from .detectors import DetectionResult, MmpDfParams, build_ml_candidates, require_ml_cap
from .index_codec import ApSpace, SparseMessage, bits_to_int, encode_bits
from .transceiver import build_sparse_vector, ofdm_demodulate, ofdm_modulate, spread

SCHEMES = ("esvc", "secbim")
DETECTORS = ("mmpdf", "ml")
CHANNEL_PATHS = ("freq", "time")

# The largest n0 a config may give, 2**-20 times the largest float (1.7e302):
# MMP-DF's squared LS amplitudes first overflowed at n0 = 1.4e306 (N = 4, 32
# and 128), and at N = 4 they are heavy-tailed (above 4,750 n0 in one search
# in 10**4).
_N0_MAX = np.finfo(float).max / 2**20


@dataclass(frozen=True)
class SystemConfig:
    """Every dimensioning knob of a link in one validated, hashable record.

    N subcarriers, M virtual-domain positions, K active indices, CP length
    L in [0, N - 1], v channel taps in [1, L], G codebooks; K lies in
    [1, M - 1] (the pattern space) and in [1, N]. ``scheme`` is a label:
    "esvc" names the single-codebook case and requires G = 1, and "secbim"
    with G = 1 behaves exactly like it. The ``mmp_*`` fields are the MMP-DF
    search controls (see :class:`MmpDfParams`). Field names are also the
    keys of config files and the columns of the BER CSV. The pattern
    ``space``, the noise variance ``n0`` and the search controls ``mmp`` are
    derived once per config; they are not fields, so equality, hashing and
    the text codec see the fields alone.
    """

    scheme: str = field(default="esvc", metadata={"choices": SCHEMES})
    N: int = 64
    M: int = 64
    K: int = 2
    L: int = 16
    v: int = 10
    G: int = 1
    ebn0_db: float = 10.0
    detector: str = field(default="mmpdf", metadata={"choices": DETECTORS})
    seed: int = 0
    channel_path: str = field(default="freq", metadata={"choices": CHANNEL_PATHS})
    mmp_omega: int = MmpDfParams.omega
    mmp_lam: float = MmpDfParams.lam
    mmp_upsilon: int = MmpDfParams.upsilon
    mmp_relative_stop: bool = MmpDfParams.relative_stop

    def __post_init__(self) -> None:
        require_field_types(self)
        for f in fields(self):
            choices, value = f.metadata.get("choices"), getattr(self, f.name)
            if choices is not None and value not in choices:
                raise ValueError(f"{f.name} must be one of {choices}, got {value!r}")
        require_pow2(self.N, "N")
        space = self.space  # validates K against M
        require_in_range(self.L, 0, self.N - 1, "L")
        require_in_range(self.v, 1, self.L, "v")
        require_in_range(self.K, 1, self.N, "K")
        require_pow2(self.G, "G")
        require_at_least(self.seed, 0, "seed")
        if self.scheme == "esvc" and self.G != 1:
            raise ValueError("the single-codebook scheme requires G = 1")
        if self.detector == "ml":
            require_ml_cap(self.G, space)
        try:
            n0 = self.n0
        except OverflowError:
            n0 = math.inf
        if not n0 <= _N0_MAX:  # NaN and -inf dB give no n0 either
            raise ValueError(f"ebn0_db = {self.ebn0_db} gives noise variance n0 = {n0:.3g}, above "
                             f"the detectors' limit {_N0_MAX:.3g} (+inf is noiseless)")
        try:
            self.mmp  # validates the search controls
        except ValueError as exc:
            raise ValueError(f"mmp_{exc}") from None

    @functools.cached_property
    def mmp(self) -> MmpDfParams:
        """The MMP-DF search controls; the search depth is ``space.K``, which
        the sensing factors carry."""
        return MmpDfParams(omega=self.mmp_omega, lam=self.mmp_lam, upsilon=self.mmp_upsilon,
                           relative_stop=self.mmp_relative_stop)

    @functools.cached_property
    def space(self) -> ApSpace:
        """The K-of-M activation-pattern space."""
        return ApSpace(M=self.M, K=self.K)

    @functools.cached_property
    def n0(self) -> float:
        """Complex noise variance per sample, Eb * 10^(-Eb/N0 / 10) with
        Eb = (N + L)/m, the transmitted energy per information bit; 0.0 at
        ebn0_db = +inf (noiseless)."""
        return (self.N + self.L) / bits_per_symbol(self) * 10.0 ** (-self.ebn0_db / 10.0)


def bits_per_symbol(cfg: SystemConfig) -> int:
    """Information bits per OFDM symbol: log2(G) + floor(log2 C(M,K)) + 1."""
    return (cfg.G.bit_length() - 1) + cfg.space.m_bits


def spectral_efficiency(cfg: SystemConfig) -> float:
    """Bits per channel use, m / (N + L)."""
    return bits_per_symbol(cfg) / (cfg.N + cfg.L)


@dataclass(eq=False)
class FrameTrace:
    """One simulated frame end to end; the received bits are ``detection.bits``."""

    tx_bits: np.ndarray
    msg: SparseMessage
    detection: DetectionResult
    decode_ns: int = 0  # wall clock spent inside the detector call


@functools.lru_cache(maxsize=16)
def _shared_books(seed: int, G: int, N: int, M: int) -> np.ndarray:
    """The process's memo of read-only codebook sets, keyed by (seed, G, N, M)."""
    return generate_set(seed, G, N, M)


@functools.lru_cache(maxsize=16)
def _shared_ml_table(space: ApSpace) -> np.ndarray:
    """The process's memo of read-only ML index tables, keyed by the space's (M, K)."""
    return build_ml_candidates(space)


@dataclass(eq=False)
class LinkContext:
    """Per-configuration state shared across frames: the config, its pattern
    space, the books and the ML index table. Noise variance and search
    controls are read from ``cfg``, which derives each once.

    The books and the index table come from the process-wide memos
    :func:`_shared_books` and :func:`_shared_ml_table` (16 entries each),
    so configs that differ only in Eb/N0, L, v, channel path, search
    controls or detector share them, and the index table serves every
    seed, G and N.
    """

    cfg: SystemConfig
    space: ApSpace  # cfg.space itself
    books: np.ndarray  # read-only (G, N, M); book g is books[g - 1]
    ml: np.ndarray | None  # read-only (C(M, K), K) active columns per rank

    @classmethod
    def for_config(cls, cfg: SystemConfig) -> "LinkContext":
        books = _shared_books(cfg.seed, cfg.G, cfg.N, cfg.M)
        ml = _shared_ml_table(cfg.space) if cfg.detector == "ml" else None
        return cls(cfg=cfg, space=cfg.space, books=books, ml=ml)


def decode_frame(ctx: LinkContext, y_freq: np.ndarray, h_freq: np.ndarray) -> DetectionResult:
    """Dispatch to the configured detector with perfect channel knowledge."""
    if ctx.cfg.detector == "ml":
        return detectors.ml_secbim(y_freq, h_freq, ctx.books, ctx.space, ctx.ml)
    return detectors.secbim_decode(y_freq, h_freq, ctx.books, ctx.space, ctx.cfg.mmp)


def transmit_frame(ctx: LinkContext, rng: np.random.Generator):
    """Everything before detection for ``ctx.cfg``: bits, encode, channel, received block.

    Per frame the generator is consumed in a fixed order: message bits,
    then channel taps, then noise. Returns (tx_bits, msg, y_freq, h_freq).
    """
    cfg = ctx.cfg
    m1 = cfg.G.bit_length() - 1
    tx_bits = rng.integers(0, 2, size=m1 + ctx.space.m_bits, dtype=np.uint8)
    bits = tx_bits.tolist()  # the codec reads Python ints faster than numpy scalars
    # the leading log2(G) bits pick the codebook
    msg = encode_bits(bits[m1:], ctx.space, g=1 + bits_to_int(bits[:m1]))

    s = build_sparse_vector(msg, cfg.M)
    x_freq = spread(s, ctx.books[msg.g - 1])
    taps, h_freq = draw_channel(cfg.v, cfg.N, rng)

    if cfg.channel_path == "time":
        x_time = ofdm_modulate(x_freq, cfg.L)
        y_time = apply_time(x_time, taps, cfg.n0, rng, cfg.L)
        y_freq = ofdm_demodulate(y_time, cfg.L)
    else:
        y_freq = apply_freq(x_freq, h_freq, cfg.n0, rng)
    return tx_bits, msg, y_freq, h_freq


def run_frame(cfg: SystemConfig, rng: np.random.Generator, ctx: LinkContext) -> FrameTrace:
    """Simulate one frame of ``cfg``, in the context built for it, from
    random bits through encode, channel and decode.

    A ``ctx`` that is not a :class:`LinkContext` is a ``ValueError`` naming
    ``ctx``, and a context built for another config one naming the fields
    that differ.
    """
    if not isinstance(ctx, LinkContext):
        raise ValueError(f"ctx must be the LinkContext built for cfg, got {type(ctx).__name__}")
    if ctx.cfg is not cfg and ctx.cfg != cfg:  # the identity test spares a sweep's frames
        differ = [f.name for f in fields(cfg) if getattr(ctx.cfg, f.name) != getattr(cfg, f.name)]
        raise ValueError(f"ctx was built for another config: {', '.join(differ)} differ from cfg")
    tx_bits, msg, y_freq, h_freq = transmit_frame(ctx, rng)

    t0 = time.perf_counter_ns()
    det = decode_frame(ctx, y_freq, h_freq)
    decode_ns = time.perf_counter_ns() - t0
    return FrameTrace(tx_bits=tx_bits, msg=msg, detection=det, decode_ns=decode_ns)


# --- field-driven text codec: config files, CSV rows and CLI flags ---


_BOOLS = {"True": True, "False": False}


def parse_fields(cls, raw: dict[str, str]) -> dict:
    """Parse ``name -> str(value)`` by the field types of ``cls``; errors name the field."""
    types = field_types(cls)
    out = {}
    for name, text in raw.items():
        if name not in types:
            raise ValueError(f"unknown {cls.__name__} field {name!r}")
        tp = types[name]
        try:
            out[name] = _BOOLS[text] if tp is bool else tp(text)
        except (KeyError, ValueError):
            raise ValueError(f"{name}: cannot read {text!r} as {tp.__name__}") from None
    return out


def config_to_text(cfg: SystemConfig) -> str:
    """One ``key=value`` line per field, in field order."""
    return "".join(f"{f.name}={getattr(cfg, f.name)}\n" for f in fields(cfg))


def config_from_text(text: str) -> SystemConfig:
    """Inverse of :func:`config_to_text`; absent keys keep their defaults."""
    kv = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"malformed config line {line!r}")
        name, raw = (part.strip() for part in line.split("=", 1))
        if name in kv:
            raise ValueError(f"duplicate config key {name!r}")
        kv[name] = raw
    return SystemConfig(**parse_fields(SystemConfig, kv))
