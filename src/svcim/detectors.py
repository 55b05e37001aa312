"""Receive-side algorithms: greedy sparse recovery and ML references.

The decode pipeline co-phases the received block so the effective channel
gain is the real, nonnegative magnitude response, pairs that gain with the
codebook as the (factored) sensing matrix, and recovers the activation
pattern with a depth-first multipath matching pursuit (MMP-DF). Symbol-set
and codebook decisions are nearest-vector rules on the recovered
amplitudes. Exhaustive ML detectors over the candidate set serve as the
optimality baseline; their candidate blocks are precomputed once per
configuration so timing comparisons measure the decision metric itself.
Both detectors handle any number of codebooks G; the single-codebook scheme
is the case G = 1.

Index convention: supports and sparse-estimate indices are 1-based, like
``SparseMessage.indices``; matrix columns are 0-based internally. The books
are one (G, N, M) array, and the 1-based codebook index g of
``DetectionResult.g_hat`` names ``books[g - 1]``.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from .codebook import require_pow2
from .index_codec import (
    ApSpace,
    combo_to_rank,
    decode_to_bits,
    int_to_bits,
    rank_to_combo,
    symbol_rows,
)

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
    stop: str  # why the search returned: "threshold", "budget" or "exhausted"


@dataclass(frozen=True, eq=False)
class Sensing:
    """The sensing matrix psi = diag(gains) @ entries, kept factored.

    For a co-phased block ``entries`` is the +-1 codebook and ``gains`` is
    |h| / sqrt(K); a generic real N x M matrix is the case gains = ones.
    """

    entries: np.ndarray  # real, N x M
    gains: np.ndarray  # real, length N


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


def _require_inputs(y_freq: np.ndarray, h_freq: np.ndarray, books: np.ndarray,
                    n: int | None = None) -> None:
    """Reject ``books`` unless it is a (G, N, M) array with G a power of two, and a
    y_freq or h_freq that is not a length-n vector (n defaults to the books' N)
    or holds a NaN or inf."""
    if np.ndim(books) != 3:
        raise ValueError(f"books must be a (G, N, M) array, got shape {np.shape(books)}")
    require_pow2(len(books), "G")
    if n is None:
        n = books.shape[1]
    for name, arr in (("y_freq", y_freq), ("h_freq", h_freq)):
        if np.shape(arr) != (n,):
            raise ValueError(f"{name} must have shape ({n},), got {np.shape(arr)}")
    if math.isfinite(abs(np.vdot(y_freq, h_freq))):  # a NaN or inf in either propagates
        return
    for name, arr in (("y_freq", y_freq), ("h_freq", h_freq)):
        if not np.isfinite(arr).all():
            raise ValueError(f"{name} holds a NaN or inf")


def _result(books: np.ndarray, space: ApSpace, g_hat: int, d_hat: int, extended: bool,
            metric: float, estimate: SparseEstimate | None = None) -> DetectionResult:
    """A (book position, rank, symbol-set flag) decision and its bits.

    The first log2(G) bits carry ``g_hat - 1``, the rest the pattern word.
    """
    m1 = len(books).bit_length() - 1
    bits = int_to_bits(g_hat - 1, m1) + decode_to_bits(d_hat, extended, space)
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


def sensing_matrix(h_freq: np.ndarray, book: np.ndarray, k: int) -> Sensing:
    """diag(|h|) C / sqrt(k), the matrix the co-phased block is sparse in, factored."""
    h = np.asarray(h_freq)
    if len(h) != len(book):
        raise ValueError(f"channel length {len(h)} != codebook rows {len(book)}")
    if k < 1:
        raise ValueError(f"sparsity k must be >= 1, got {k}")
    return Sensing(book, np.abs(h) / math.sqrt(k))


def _solve_normal(gram: list[list[float]], b: list[complex]) -> list[complex] | None:
    """Solve ``gram @ x = b`` for a small real ``gram`` and complex ``b``.

    Gaussian elimination with partial pivoting: the first largest pivot
    wins a tie, and rows are scaled by reciprocal pivots, in the order
    LAPACK's getrf and getrs take the steps; for 1 x 1 and 2 x 2 systems
    these are the floating-point operations of ``np.linalg.solve``.
    Returns None on an exactly zero pivot or a non-finite x: the
    rank-deficient subproblems (degenerate channel or codebook draw) that
    callers score with an infinite residual.
    """
    k = len(b)
    a = [row[:] for row in gram]
    x = list(b)
    inv = [0.0] * k
    for j in range(k):
        p = j
        for i in range(j + 1, k):
            if abs(a[i][j]) > abs(a[p][j]):
                p = i
        if a[p][j] == 0.0:
            return None
        a[j], a[p] = a[p], a[j]
        x[j], x[p] = x[p], x[j]
        inv[j] = r = 1.0 / a[j][j]
        for i in range(j + 1, k):
            a[i][j] = lo = a[i][j] * r
            for c in range(j + 1, k):
                a[i][c] -= lo * a[j][c]
    for j in range(k):  # unit lower triangle
        for i in range(j + 1, k):
            x[i] -= a[i][j] * x[j]
    for j in range(k - 1, -1, -1):  # upper triangle
        x[j] *= inv[j]
        for i in range(j):
            x[i] -= a[i][j] * x[j]
    if not all(map(cmath.isfinite, x)):
        return None
    return x


def _bordered(gram: list[list[float]], row: list[float], diag: float) -> list[list[float]]:
    """``gram`` with ``row`` appended as its last row and column and ``diag`` in the corner."""
    return [r + [v] for r, v in zip(gram, row)] + [row + [diag]]


def mmp_df(y_hat: np.ndarray, psi: Sensing, params: MmpDfParams) -> SparseEstimate:
    """Depth-first multipath matching pursuit.

    At each tree node the columns are ranked by correlation with the
    current path's least-squares residual and the ``omega`` best unused
    columns are expanded, best child first (so backtracking revisits the
    deepest layer first). Each depth-``k`` path is scored by its LS
    residual; the search returns immediately once a candidate beats the
    stop threshold, and otherwise returns the minimum-residual candidate
    after ``upsilon`` full-depth candidates (or tree exhaustion). With
    ``omega=1`` the search reduces to orthogonal matching pursuit.

    Only full-depth candidates form a residual vector. With psi = diag(w) C,
    c0 = psi^T y = C^T (w y) and g_j = psi^T psi_j = C^T (w^2 c_j), a path P
    with LS amplitudes x has residual correlations |c0 - sum_i x_i g_{P_i}|,
    and the Gram matrix of its normal equations is its parent's plus one
    row read off the cached g of the parent's columns. One product gives
    c0, an inner node computes g only for the column it adds, and each
    K x K solve is a small elimination in Python (:func:`_solve_normal`).
    A full-depth candidate gathers its K columns of psi for the last
    diagonal entry and for its residual vector, whose norm is the
    candidate's score. The N x M product psi is never formed.

    Parameters
    ----------
    y_hat : co-phased received vector, length N
    psi : real sensing matrix diag(gains) @ entries, N x M with M >= params.k
    params : search controls

    Returns
    -------
    SparseEstimate with ascending 1-based support and the stop reason.

    Raises
    ------
    ValueError : on complex ``entries`` or ``gains``, mismatched shapes, or
        a NaN or inf in ``y_hat``, ``entries`` or ``gains``.
    """
    y = np.ascontiguousarray(y_hat, dtype=np.complex128)
    c = np.asarray(psi.entries)
    w = np.asarray(psi.gains)
    for name, arr in (("entries", c), ("gains", w)):
        if np.iscomplexobj(arr):
            raise ValueError(f"psi {name} must be real: co-phasing makes the sensing matrix real")
    if c.ndim != 2:
        raise ValueError(f"psi entries must be 2-D, got shape {c.shape}")
    n, m = c.shape
    if w.shape != (n,):
        raise ValueError(f"psi gains must have shape ({n},), got {w.shape}")
    k = params.k
    if m < k:
        raise ValueError(f"sensing matrix has {m} columns, need >= {k}")
    if len(y) != n:
        raise ValueError(f"input length {len(y)} != sensing rows {n}")

    c_t = c.T
    y2 = y.view(np.float64).reshape(n, 2)  # row i holds (Re y_i, Im y_i)
    c0 = c_t.dot(w[:, None] * y2).view(np.complex128)[:, 0]
    if not np.isfinite(c0).all():  # a NaN or inf in y_hat, entries or gains reaches c0
        raise ValueError("y_hat or psi (entries, gains) holds a NaN or inf")
    w2 = w * w
    stop_level = params.lam * (math.sqrt(np.vdot(y, y).real) if params.relative_stop else 1.0)
    omega = min(params.omega, m)
    gram: dict[int, np.ndarray] = {}  # column j of an inner node -> g_j

    best_resid = math.inf
    best_path: tuple[int, ...] | None = None
    best_coeffs: np.ndarray | None = None  # in best_path's order
    full_solves = 0
    stop = "exhausted"
    seen: set[tuple[int, ...]] = set()

    def dfs(path: tuple[int, ...], x: list[complex], path_gram: list[list[float]]) -> bool:
        nonlocal best_resid, best_path, best_coeffs, full_solves, stop
        corr = c0
        for col, xi in zip(path, x):
            corr = corr - xi * gram[col]
        corr = np.abs(corr)
        for col in path:
            corr[col] = -1.0
        children = []
        for _ in range(omega):  # the first maximum: ties go to the lowest column
            col = int(corr.argmax())
            children.append(col)
            corr[col] = -math.inf
        for col in children:
            new_path = path + (col,)
            row = [gram[p].item(col) for p in path]
            if len(new_path) == k:
                support = tuple(sorted(new_path))
                if support in seen:
                    continue
                seen.add(support)
                full_solves += 1
                a = c.take(new_path, axis=1) * w[:, None]
                new = a[:, -1]
                coef = _solve_normal(_bordered(path_gram, row, new.dot(new)),
                                     [c0.item(i) for i in new_path])
                if coef is None:
                    r_norm = math.inf
                else:
                    coef = np.array(coef)
                    r = (y2 - a.dot(coef.view(np.float64).reshape(k, 2))).ravel()
                    r_norm = math.sqrt(r.dot(r))
                if r_norm < best_resid or best_path is None:
                    best_resid = r_norm
                    best_path = new_path
                    best_coeffs = coef
                if r_norm < stop_level:
                    stop = "threshold"
                    return True
                if full_solves >= params.upsilon:
                    stop = "budget"
                    return True
            else:
                g = gram.get(col)
                if g is None:
                    g = gram[col] = c_t.dot(w2 * c[:, col])
                new_gram = _bordered(path_gram, row, g.item(col))
                coef = _solve_normal(new_gram, [c0.item(i) for i in new_path])
                if coef is None:
                    continue  # degenerate partial path: its completions are too
                if dfs(new_path, coef, new_gram):
                    return True
        return False

    dfs((), [], [])

    assert best_path is not None  # k <= m guarantees at least one candidate
    order = sorted(range(k), key=best_path.__getitem__)
    return SparseEstimate(
        support=tuple(best_path[i] + 1 for i in order),
        coeffs=np.zeros(k, dtype=np.complex128) if best_coeffs is None else best_coeffs[order],
        residual_norm=best_resid,
        ls_solves=full_solves,
        stop=stop,
    )


def secbim_joint_metrics(
    y_freq: np.ndarray,
    h_freq: np.ndarray,
    books: np.ndarray,
    params: MmpDfParams,
) -> tuple[np.ndarray, list[SparseEstimate]]:
    """The 2G decision metrics behind the joint decode, one row per book.

    ``books`` is the (G, N, M) set. Each book gets its own sparse recovery;
    row g - 1 holds the squared distances from book g's K least-squares
    amplitudes to the original and to the extended symbol set: the distance
    between the length-M estimate and each set placed on its support, as
    both are zero off the support.
    """
    _require_inputs(y_freq, h_freq, books)
    y_hat = cophase(y_freq, h_freq)
    estimates: list[SparseEstimate] = []
    coeffs = np.empty((len(books), params.k), dtype=np.complex128)
    for gi, book in enumerate(books):
        psi = sensing_matrix(h_freq, book, params.k)
        est = mmp_df(y_hat, psi, params)
        estimates.append(est)
        coeffs[gi] = est.coeffs
    metrics = np.sum(np.abs(coeffs[:, None, :] - symbol_rows(params.k)) ** 2, axis=2)
    return metrics, estimates


def secbim_decode(
    y_freq: np.ndarray,
    h_freq: np.ndarray,
    books: np.ndarray,
    space: ApSpace,
    params: MmpDfParams,
) -> DetectionResult:
    """Joint codebook and symbol-set decode, for any G >= 1.

    Takes the minimum of the 2G joint metrics; ties resolve to the
    smallest (g, l). The first log2(G) output bits carry the codebook
    index, the rest the pattern. ``params.k`` and ``space.K`` must agree.
    """
    if params.k != space.K:
        raise ValueError(f"params.k = {params.k} but space.K = {space.K}")
    metrics, estimates = secbim_joint_metrics(y_freq, h_freq, books, params)
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
    each decode reduces to two matrix-vector products. Both arrays are
    read-only, as every context of a configuration shares one table.
    """

    spread: np.ndarray  # (rows, N) complex candidate blocks, 1/sqrt(K) applied
    spread_abs2: np.ndarray

    def __post_init__(self) -> None:
        self.spread.setflags(write=False)
        self.spread_abs2.setflags(write=False)


def build_ml_candidates(books: np.ndarray, space: ApSpace) -> MlCandidates:
    """Spread every candidate word with every book, once per configuration.

    Word w < C(M, K) is rank w on the original symbol set and word
    C(M, K) + d is rank d on the extended set (see ``encode_bits``). A row
    is the sum of the word's K active book columns times their symbols,
    scaled by 1/sqrt(K): each product is an exact +-1 times a symbol, so the
    rows equal spreading the length-M sparse vector with a full product.
    """
    if len(books) == 0:
        raise ValueError("books must hold at least one codebook")
    n_words = 1 << space.m_bits
    rows = len(books) * n_words
    if rows > ML_CANDIDATE_CAP:
        raise ValueError(
            f"ML candidate space of {rows} blocks exceeds the cap of {ML_CANDIDATE_CAP}; "
            "use the greedy detector for this configuration"
        )
    cols = np.array([rank_to_combo(d, space) for d in range(space.n_combos)]) - 1
    cols = np.concatenate([cols, cols[:space.n_reused]])  # (n_words, K), 0-based
    symbols = np.repeat(symbol_rows(space.K), [space.n_combos, space.n_reused], axis=0)
    book_cols = books.transpose(0, 2, 1)  # [g - 1, j] is column j of book g
    # summed onto +0 like a BLAS product, so a zero part is never -0
    acc = np.zeros((len(books), n_words, book_cols.shape[2]), dtype=np.complex128)
    for k in range(space.K):
        acc += book_cols[:, cols[:, k]] * symbols[:, k, None]
    acc *= 1.0 / math.sqrt(space.K)
    spread = acc.reshape(rows, -1)
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
    books: np.ndarray,
    space: ApSpace,
    cand: MlCandidates,
) -> DetectionResult:
    """Exhaustive detection jointly over codebooks and candidate words, for any G >= 1."""
    _require_inputs(y_freq, h_freq, books, cand.spread.shape[1])
    n_words = 1 << space.m_bits
    if len(cand.spread) != len(books) * n_words:
        raise ValueError(f"cand holds {len(cand.spread)} rows, G * 2**m_bits is "
                         f"{len(books) * n_words}")
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
