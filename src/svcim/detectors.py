"""Receive-side algorithms: greedy sparse recovery and ML references.

The decode pipeline co-phases the received block so the effective channel
gain is the real, nonnegative magnitude response, builds the matching
sensing matrix, and recovers the activation pattern with a depth-first
multipath matching pursuit (MMP-DF). Symbol-set and codebook decisions are
nearest-vector rules on the recovered amplitudes. Exhaustive ML detectors
over the candidate set serve as the optimality baseline; their candidate
blocks are precomputed once per configuration so timing comparisons
measure the decision metric itself. Both detectors handle any number of
codebooks G; the single-codebook scheme is the case G = 1.

Index convention: supports and sparse-estimate indices are 1-based, like
``SparseMessage.indices``; matrix columns are 0-based internally.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .codebook import Codebook, CodebookSet
from .index_codec import (
    ApSpace,
    SymbolSets,
    combo_to_rank,
    decode_to_bits,
    encode_bits,
    int_to_bits,
)
from .transceiver import build_sparse_vector

# Refuse ML enumeration beyond this many candidate blocks.
ML_CANDIDATE_CAP = 1 << 20


@dataclass(frozen=True)
class MmpDfParams:
    """Search controls for the depth-first multipath matching pursuit.

    ``omega`` children are expanded per node, ``lam`` is the stop threshold
    on the residual (relative to the input norm unless ``relative_stop`` is
    off), and ``upsilon`` caps how many full-depth candidates are examined
    before the best-so-far is returned.
    """

    k: int = 2
    omega: int = 2
    lam: float = 0.1
    upsilon: int = 2
    relative_stop: bool = True

    def __post_init__(self) -> None:
        # each message starts with the field name (SystemConfig prefixes "mmp_")
        if self.k < 1:
            raise ValueError(f"k (sparsity) must be >= 1, got {self.k}")
        if self.omega < 1:
            raise ValueError(f"omega must be >= 1, got {self.omega}")
        if not self.lam > 0:  # NaN fails too
            raise ValueError(f"lam (stop threshold) must be positive, got {self.lam}")
        if self.upsilon < 1:
            raise ValueError(f"upsilon must be >= 1, got {self.upsilon}")


@dataclass(eq=False)
class SparseEstimate:
    """Recovered support (1-based, ascending) with least-squares amplitudes."""

    support: tuple[int, ...]
    coeffs: np.ndarray
    residual_norm: float
    ls_solves: int  # full-depth least-squares solves spent by the search


@dataclass(eq=False)
class DetectionResult:
    """Decoder output: pattern rank, symbol-set flag, codebook index, bits.

    ``l_hat`` is the flag actually used for bit recovery (forced to 1 when
    the rank is outside the reused range); ``metric`` is the winning
    decision-metric value for that flag.
    """

    d_hat: int
    l_hat: int  # 1 = original symbol set, 2 = extended
    g_hat: int
    bits: np.ndarray
    metric: float
    estimate: SparseEstimate | None = field(default=None, repr=False)


def _require_finite(y_freq: np.ndarray, h_freq: np.ndarray) -> None:
    if math.isfinite(abs(np.vdot(y_freq, h_freq))):  # a NaN or inf in either propagates
        return
    for name, arr in (("y_freq", y_freq), ("h_freq", h_freq)):
        if not np.isfinite(arr).all():
            raise ValueError(f"{name} holds a NaN or inf")


def _result(books: CodebookSet, space: ApSpace, g_hat: int, d_hat: int, extended: bool,
            metric: float, estimate: SparseEstimate | None = None) -> DetectionResult:
    """A (book position, rank, symbol-set flag) decision and its bits.

    The first log2(G) bits carry ``g_hat - 1``, the rest the pattern word.
    """
    bits = int_to_bits(g_hat - 1, books.G.bit_length() - 1) + decode_to_bits(d_hat, extended, space)
    return DetectionResult(
        d_hat=d_hat,
        l_hat=2 if extended else 1,
        g_hat=g_hat,
        bits=np.array(bits, dtype=np.uint8),
        metric=metric,
        estimate=estimate,
    )


def cophase(y_freq: np.ndarray, h_freq: np.ndarray) -> np.ndarray:
    """Rotate each subcarrier by the conjugate channel phase.

    Leaves the effective gain |h(b)| real and nonnegative. A bin with an
    exactly zero channel gain (probability-zero draw) passes through
    unrotated.
    """
    y = np.asarray(y_freq)
    h = np.asarray(h_freq)
    if len(y) != len(h):
        raise ValueError(f"length mismatch: y {len(y)}, h {len(h)}")
    return np.exp(-1j * np.angle(h)) * y


def sensing_matrix(h_freq: np.ndarray, book: Codebook, k: int) -> np.ndarray:
    """diag(|h|) C / sqrt(k): the matrix the co-phased block is sparse in."""
    h = np.asarray(h_freq)
    if len(h) != book.n:
        raise ValueError(f"channel length {len(h)} != codebook rows {book.n}")
    if k < 1:
        raise ValueError(f"sparsity k must be >= 1, got {k}")
    return (np.abs(h) / math.sqrt(k))[:, None] * book.entries


def _ls_fit(
    psi: np.ndarray, cols: list[int], y: np.ndarray
) -> tuple[np.ndarray, np.ndarray] | None:
    """Least squares on the chosen real columns via normal equations.

    Returns ``(coef, residual)``, or None on a rank-deficient subproblem
    (degenerate channel or codebook draw); callers treat that candidate as
    having infinite residual.
    """
    a = psi[:, cols]
    try:
        coef = np.linalg.solve(a.T @ a, a.T @ y)
    except np.linalg.LinAlgError:
        return None
    if not np.all(np.isfinite(coef)):
        return None
    return coef, y - a @ coef


def mmp_df(y_hat: np.ndarray, psi: np.ndarray, params: MmpDfParams) -> SparseEstimate:
    """Depth-first multipath matching pursuit.

    At each tree node the columns are ranked by correlation with the
    current path's least-squares residual and the ``omega`` best unused
    columns are expanded, best child first (so backtracking revisits the
    deepest layer first). Each depth-``k`` path is scored by its LS
    residual; the search returns immediately once a candidate beats the
    stop threshold, and otherwise returns the minimum-residual candidate
    after ``upsilon`` full-depth candidates (or tree exhaustion). With
    ``omega=1`` the search reduces to orthogonal matching pursuit.

    Parameters
    ----------
    y_hat : co-phased received vector, length N
    psi : real sensing matrix, N x M with M >= params.k
    params : search controls

    Returns
    -------
    SparseEstimate with ascending 1-based support.
    """
    y = np.asarray(y_hat, dtype=np.complex128)
    psi = np.asarray(psi)
    if np.iscomplexobj(psi):
        raise ValueError("psi must be real: co-phasing makes the sensing matrix real")
    n, m = psi.shape
    k = params.k
    if m < k:
        raise ValueError(f"sensing matrix has {m} columns, need >= {k}")
    if len(y) != n:
        raise ValueError(f"input length {len(y)} != sensing rows {n}")

    psi_t = psi.T
    stop_level = params.lam * (np.linalg.norm(y) if params.relative_stop else 1.0)

    best_resid = math.inf
    best_support: tuple[int, ...] | None = None
    best_coeffs: np.ndarray | None = None
    full_solves = 0
    seen: set[tuple[int, ...]] = set()

    def dfs(path: tuple[int, ...], resid: np.ndarray) -> bool:
        nonlocal best_resid, best_support, best_coeffs, full_solves
        # two real gemvs beat numpy's promotion of the whole matrix to complex
        corr = np.hypot(psi_t @ resid.real, psi_t @ resid.imag)
        corr[list(path)] = -1.0
        # stable sort: correlation ties resolve to the lowest column index
        children = np.argsort(-corr, kind="stable")[: params.omega]
        for col in children:
            new_path = path + (int(col),)
            if len(new_path) == k:
                support = tuple(sorted(new_path))
                if support in seen:
                    continue
                seen.add(support)
                full_solves += 1
                fit = _ls_fit(psi, list(support), y)
                r_norm = math.inf if fit is None else float(np.linalg.norm(fit[1]))
                if r_norm < best_resid or best_support is None:
                    best_resid = r_norm
                    best_support = support
                    best_coeffs = None if fit is None else fit[0]
                if r_norm < stop_level:
                    return True
                if full_solves >= params.upsilon:
                    return True
            else:
                fit = _ls_fit(psi, list(new_path), y)
                if fit is None:
                    continue  # degenerate partial path: its completions are too
                if dfs(new_path, fit[1]):
                    return True
        return False

    dfs((), y)

    assert best_support is not None  # k <= m guarantees at least one candidate
    coeffs = best_coeffs if best_coeffs is not None else np.zeros(k, dtype=np.complex128)
    return SparseEstimate(
        support=tuple(c + 1 for c in best_support),
        coeffs=np.asarray(coeffs, dtype=np.complex128),
        residual_norm=best_resid,
        ls_solves=full_solves,
    )


def secbim_joint_metrics(
    y_freq: np.ndarray,
    h_freq: np.ndarray,
    books: CodebookSet,
    sets: SymbolSets,
    params: MmpDfParams,
) -> tuple[np.ndarray, list[SparseEstimate]]:
    """The 2G decision metrics behind the joint decode, one row per book.

    Each book gets its own sparse recovery; row g holds the squared
    distances from that recovery's K least-squares amplitudes to the
    original and to the extended symbol set: the distance between the
    length-M estimate and each set placed on its support, as both are zero
    off the support.
    """
    _require_finite(y_freq, h_freq)
    y_hat = cophase(y_freq, h_freq)
    symbols = np.array([sets.original, sets.extended_set])
    estimates: list[SparseEstimate] = []
    metrics = np.empty((books.G, 2))
    for gi, book in enumerate(books.books):
        psi = sensing_matrix(h_freq, book, params.k)
        est = mmp_df(y_hat, psi, params)
        estimates.append(est)
        metrics[gi] = np.sum(np.abs(est.coeffs - symbols) ** 2, axis=1)
    return metrics, estimates


def secbim_decode(
    y_freq: np.ndarray,
    h_freq: np.ndarray,
    books: CodebookSet,
    space: ApSpace,
    sets: SymbolSets,
    params: MmpDfParams,
) -> DetectionResult:
    """Joint codebook and symbol-set decode, for any G >= 1.

    Takes the minimum of the 2G joint metrics; ties resolve to the
    smallest (g, l). The first log2(G) output bits carry the codebook
    index, the rest the pattern.
    """
    metrics, estimates = secbim_joint_metrics(y_freq, h_freq, books, sets, params)
    flat = int(np.argmin(metrics))  # row-major first minimum = smallest (g, l)
    g0, l0 = divmod(flat, 2)
    est = estimates[g0]
    d_hat = combo_to_rank(est.support, space)
    # a rank that is never reused carries no flag information
    extended = l0 == 1 and d_hat < space.n_reused
    return _result(books, space, g0 + 1, d_hat, extended, float(metrics[g0, int(extended)]), est)


@dataclass(eq=False)
class MlCandidates:
    """Every legal transmit block, spread and cached for ML enumeration.

    Row ``(g - 1) * 2**m_bits + word`` holds book position g spreading
    ``word``; ``spread_abs2`` caches the entrywise squared magnitudes so
    each decode reduces to two matrix-vector products.
    """

    spread: np.ndarray  # (rows, N) complex candidate blocks, 1/sqrt(K) applied
    spread_abs2: np.ndarray


def build_ml_candidates(
    books: Sequence[Codebook],
    space: ApSpace,
    sets: SymbolSets,
) -> MlCandidates:
    """Enumerate and spread all candidate sparse vectors, once per config."""
    n_words = 1 << space.m_bits
    rows = len(books) * n_words
    if rows > ML_CANDIDATE_CAP:
        raise ValueError(
            f"ML candidate space of {rows} blocks exceeds the cap of {ML_CANDIDATE_CAP}; "
            "use the greedy detector for this configuration"
        )
    vdd = np.zeros((n_words, space.M), dtype=np.complex128)
    for word in range(n_words):
        msg = encode_bits(int_to_bits(word, space.m_bits), space)
        vdd[word] = build_sparse_vector(msg, sets, space.M).values
    inv_sqrt_k = 1.0 / math.sqrt(space.K)
    spread = np.vstack([(vdd @ b.entries.T) * inv_sqrt_k for b in books])
    return MlCandidates(spread=spread, spread_abs2=np.abs(spread) ** 2)


def _ml_metrics(y_freq: np.ndarray, h_freq: np.ndarray, cand: MlCandidates) -> np.ndarray:
    """||y - h .* v_i||^2 for every candidate row, expanded to two gemvs."""
    y = np.asarray(y_freq)
    h = np.asarray(h_freq)
    z_conj = np.conj(y) * h
    corr = cand.spread @ z_conj
    chan_energy = cand.spread_abs2 @ (np.abs(h) ** 2)
    return float(np.sum(np.abs(y) ** 2)) - 2.0 * np.real(corr) + chan_energy


def ml_secbim(
    y_freq: np.ndarray,
    h_freq: np.ndarray,
    books: CodebookSet,
    space: ApSpace,
    cand: MlCandidates,
) -> DetectionResult:
    """Exhaustive detection jointly over codebooks and candidate words, for any G >= 1."""
    n_words = 1 << space.m_bits
    if len(cand.spread) != books.G * n_words:
        raise ValueError(f"cand holds {len(cand.spread)} rows, G * 2**m_bits is {books.G * n_words}")
    _require_finite(y_freq, h_freq)
    metrics = _ml_metrics(y_freq, h_freq, cand)
    i = int(np.argmin(metrics))  # rows are (g, word)-ordered: first min is smallest pair
    g0, word = divmod(i, n_words)
    n_combos = space.n_combos
    extended = word >= n_combos
    return _result(books, space, g0 + 1, word - n_combos if extended else word, extended,
                   float(metrics[i]))


# Names under which outside tracing wraps the single-codebook decoders.
# They go once the tracer targets secbim_decode and ml_secbim only.
esvc_decode = secbim_decode
ml_esvc = ml_secbim
