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
import typing
from dataclasses import dataclass, field, fields

import numpy as np

from . import detectors
from .channel import ChannelRealization, NoiseSpec, apply_freq, apply_time, draw_channel
from .codebook import generate_set, require_pow2
from .detectors import DetectionResult, MlCandidates, MmpDfParams, build_ml_candidates
from .index_codec import ApSpace, SparseMessage, bits_to_int, encode_bits
from .transceiver import build_sparse_vector, ofdm_demodulate, ofdm_modulate, spread

SCHEMES = ("esvc", "secbim")
DETECTORS = ("mmpdf", "ml")
CHANNEL_PATHS = ("freq", "time")

# What each field type of SystemConfig takes. A float field keeps an int as
# it is, so the text written for it does not change; no number takes a bool.
_TAKES = {int: (int, np.integer), float: (int, float), bool: bool, str: str}


@dataclass(frozen=True)
class SystemConfig:
    """Every dimensioning knob of a link in one validated, hashable record.

    N subcarriers, M virtual-domain positions, K active indices, CP length
    L, v channel taps, G codebooks. ``scheme`` is a label: "esvc" names
    the single-codebook case and requires G = 1, and "secbim" with G = 1
    behaves exactly like it. The ``mmp_*`` fields are the MMP-DF search
    controls (see :class:`MmpDfParams`). Field names are also the keys of
    config files and the columns of the BER CSV. Derived quantities (bits
    per symbol, Eb, noise variance, spectral efficiency) are always
    recomputed from these fields.
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
        for f in fields(self):
            value, tp = getattr(self, f.name), field_types(SystemConfig)[f.name]
            if not isinstance(value, _TAKES[tp]) or (isinstance(value, bool) and tp is not bool):
                raise ValueError(f"{f.name} must be {tp.__name__}, got {value!r}")
            if isinstance(value, np.integer):
                object.__setattr__(self, f.name, int(value))
            choices = f.metadata.get("choices")
            if choices is not None and value not in choices:
                raise ValueError(f"{f.name} must be one of {choices}, got {value!r}")
        require_pow2(self.N, "N")
        self.space()  # validates K against M
        if not 0 <= self.L < self.N:
            raise ValueError(f"need 0 <= L < N, got L={self.L}, N={self.N}")
        if not 1 <= self.v <= self.L:
            raise ValueError(f"need 1 <= v <= L, got v={self.v}, L={self.L}")
        require_pow2(self.G, "G")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if self.scheme == "esvc" and self.G != 1:
            raise ValueError("the single-codebook scheme requires G = 1")
        if np.isnan(self.ebn0_db) or self.ebn0_db == -math.inf:
            raise ValueError(f"ebn0_db must be a number or +inf (noiseless), got {self.ebn0_db}")
        try:
            self.mmp  # validates the search controls
        except ValueError as exc:
            raise ValueError(f"mmp_{exc}") from None

    @property
    def mmp(self) -> MmpDfParams:
        """The MMP-DF search controls, with sparsity k = K."""
        return MmpDfParams(k=self.K, omega=self.mmp_omega, lam=self.mmp_lam,
                           upsilon=self.mmp_upsilon, relative_stop=self.mmp_relative_stop)

    def space(self) -> ApSpace:
        return ApSpace(M=self.M, K=self.K)

    def noise(self) -> NoiseSpec:
        return NoiseSpec.for_link(self.N, self.L, bits_per_symbol(self), self.ebn0_db)


def bits_per_symbol(cfg: SystemConfig) -> int:
    """Information bits per OFDM symbol: log2(G) + floor(log2 C(M,K)) + 1."""
    return (cfg.G.bit_length() - 1) + cfg.space().m_bits


def spectral_efficiency(cfg: SystemConfig) -> float:
    """Bits per channel use, m / (N + L)."""
    return bits_per_symbol(cfg) / (cfg.N + cfg.L)


@dataclass(eq=False)
class FrameTrace:
    """One simulated frame end to end; the received bits are ``detection.bits``."""

    tx_bits: np.ndarray
    msg: SparseMessage
    ch: ChannelRealization
    detection: DetectionResult
    decode_ns: int = 0  # wall clock spent inside the detector call


@functools.lru_cache(maxsize=16)
def _shared_table(seed: int, G: int, N: int, M: int, K: int | None = None):
    """The process's one bounded memo of read-only per-configuration tables.

    Called with (seed, G, N, M) it holds that codebook set; called with K
    as well, the exhaustive-ML candidate table those books spread for
    sparsity K. Sixteen entries at most, each built on first use.
    """
    if K is None:
        return generate_set(seed, G, N, M)
    return build_ml_candidates(_shared_table(seed, G, N, M), ApSpace(M=M, K=K))


@dataclass(eq=False)
class LinkContext:
    """Per-configuration state shared across frames: books, search controls
    and ML tables.

    The books and the ML table come from the process-wide memo
    :func:`_shared_table`, so configs that differ only in Eb/N0, L, v,
    channel path, search controls or detector share them.
    """

    cfg: SystemConfig
    space: ApSpace
    books: np.ndarray  # read-only (G, N, M); book g is books[g - 1]
    noise: NoiseSpec
    mmp: MmpDfParams
    ml: MlCandidates | None

    @classmethod
    def for_config(cls, cfg: SystemConfig) -> "LinkContext":
        books = _shared_table(cfg.seed, cfg.G, cfg.N, cfg.M)
        ml = _shared_table(cfg.seed, cfg.G, cfg.N, cfg.M, cfg.K) if cfg.detector == "ml" else None
        return cls(cfg=cfg, space=cfg.space(), books=books, noise=cfg.noise(), mmp=cfg.mmp, ml=ml)


def decode_frame(ctx: LinkContext, y_freq: np.ndarray, h_freq: np.ndarray) -> DetectionResult:
    """Dispatch to the configured detector with perfect channel knowledge."""
    if ctx.cfg.detector == "ml":
        return detectors.ml_secbim(y_freq, h_freq, ctx.books, ctx.space, ctx.ml)
    return detectors.secbim_decode(y_freq, h_freq, ctx.books, ctx.space, ctx.mmp)


def transmit_frame(ctx: LinkContext, rng: np.random.Generator):
    """Everything before detection for ``ctx.cfg``: bits, encode, channel, received block.

    Per frame the generator is consumed in a fixed order: message bits,
    then channel taps, then noise. Returns (tx_bits, msg, y_freq, ch).
    """
    cfg = ctx.cfg
    m1 = cfg.G.bit_length() - 1
    tx_bits = rng.integers(0, 2, size=m1 + ctx.space.m_bits, dtype=np.uint8)
    bits = tx_bits.tolist()  # the codec reads Python ints faster than numpy scalars
    # the leading log2(G) bits pick the codebook
    msg = encode_bits(bits[m1:], ctx.space, g=1 + bits_to_int(bits[:m1]))

    s = build_sparse_vector(msg, cfg.M)
    x_freq = spread(s, ctx.books[msg.g - 1])
    ch = draw_channel(cfg.v, cfg.N, rng)

    if cfg.channel_path == "time":
        x_time = ofdm_modulate(x_freq, cfg.L)
        y_time = apply_time(x_time, ch, ctx.noise, rng, cfg.L)
        y_freq = ofdm_demodulate(y_time, cfg.L)
    else:
        y_freq = apply_freq(x_freq, ch, ctx.noise, rng)
    return tx_bits, msg, y_freq, ch


def run_frame(cfg: SystemConfig, rng: np.random.Generator, ctx: LinkContext | None = None) -> FrameTrace:
    """Simulate one frame: random bits through encode, channel and decode.

    ``ctx`` defaults to a fresh context for ``cfg``; a context built for
    another config is a ``ValueError`` naming the fields that differ.
    """
    if ctx is None:
        ctx = LinkContext.for_config(cfg)
    elif ctx.cfg is not cfg and ctx.cfg != cfg:  # the identity test spares a sweep's frames
        differ = [f.name for f in fields(cfg) if getattr(ctx.cfg, f.name) != getattr(cfg, f.name)]
        raise ValueError(f"ctx was built for another config: {', '.join(differ)} differ from cfg")
    tx_bits, msg, y_freq, ch = transmit_frame(ctx, rng)

    t0 = time.perf_counter_ns()
    det = decode_frame(ctx, y_freq, ch.cfr)
    decode_ns = time.perf_counter_ns() - t0
    return FrameTrace(tx_bits=tx_bits, msg=msg, ch=ch, detection=det, decode_ns=decode_ns)


# --- field-driven text codec: config files, CSV rows and CLI flags ---


_BOOLS = {"True": True, "False": False}


@functools.cache
def field_types(cls) -> dict[str, type]:
    """Name -> type of each dataclass field of ``cls``, in field order."""
    hints = typing.get_type_hints(cls)
    return {f.name: hints[f.name] for f in fields(cls)}


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
