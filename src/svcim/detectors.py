"""Receive-side algorithms: greedy sparse recovery and ML references.

The decode pipeline searches the received block as it arrives: each
codebook, paired with the complex channel gains h / sqrt(K) built once per
frame, is a (factored) sensing matrix, and a depth-first multipath matching
pursuit (MMP-DF) recovers the activation pattern from it. Symbol-set and
codebook decisions are nearest-vector rules on the recovered amplitudes.
Exhaustive ML detection over every (codebook, word) pair serves as the optimality baseline; it scores each
candidate block from the correlations of the received block with the book
columns, so it stores the active columns of each pattern rank, never the
blocks.
Both detectors handle any number of codebooks G; the single-codebook scheme
is the case G = 1.

Index convention: supports and sparse-estimate indices are 1-based, like
``SparseMessage.indices``; matrix columns are 0-based internally. The books
are one (G, N, M) array, and the 1-based codebook index g of
``DetectionResult.g_hat`` names ``books[g - 1]``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .codebook import require_array, require_at_least, require_field_types, require_pow2, require_type
from .index_codec import (
    ApSpace,
    combo_to_rank,
    decode_to_bits,
    int_to_bits,
    rank_to_combo,
    symbol_rows,
)

# Refuse ML enumeration beyond this many candidate blocks, G * 2**m_bits.
ML_CANDIDATE_CAP = 1 << 20

# A new LDL^T pivot at most this fraction of its column's squared norm marks
# the path degenerate: the pivot is the column's squared distance from the
# span of the path, so the ratio is the squared sine of their angle and does
# not depend on the column's scale. A column repeated up to sign leaves a
# ratio of a few eps (at most 17 eps up to N = 4096, as its entries are summed
# in different orders); a ratio this small means the column-scaled Gram
# matrix has cond >= 1 / PIVOT_RTOL, about 2e13.
PIVOT_RTOL = 256 * np.finfo(float).eps

# A leaf scored by ||y||^2 - Re(b^H x) below this fraction of ||y||^2 forms
# its residual vector instead (see mmp_df).
RESIDUAL_RTOL = 1e-6


@dataclass(frozen=True)
class MmpDfParams:
    """Search controls for the depth-first multipath matching pursuit.

    ``omega`` children are expanded per node, ``lam`` is the stop threshold
    on the residual (relative to the input norm unless ``relative_stop`` is
    off), and ``upsilon`` caps how many full-depth candidates are examined
    before the best-so-far is returned. The search depth K is the sensing
    factor's (:attr:`Sensing.k`). Each field takes the values of its type
    (:func:`~svcim.codebook.require_type`).
    """

    omega: int = 2
    lam: float = 0.1
    upsilon: int = 2
    relative_stop: bool = True

    def __post_init__(self) -> None:
        # each message starts with the field name (SystemConfig prefixes "mmp_")
        require_field_types(self)
        require_at_least(self.omega, 1, "omega")
        if not self.lam > 0:  # NaN fails too
            raise ValueError(f"lam (stop threshold) must be positive, got {self.lam}")
        require_at_least(self.upsilon, 1, "upsilon")


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
    """The sensing matrix psi = diag(gains) @ entries, kept factored, and the
    sparsity k it was scaled for.

    For a received block ``entries`` is the real +-1 codebook and ``gains``
    is the complex channel response h / sqrt(k); a generic real N x M matrix
    is the case gains = ones. :func:`mmp_df` recovers k active columns of
    it. A factor whose entries or gains are no arrays of these shapes
    (:func:`~svcim.codebook.require_array`), whose entries are complex, or
    whose k is outside [1, min(N, M)], is a ``ValueError`` when it is built.
    """

    entries: np.ndarray  # real, N x M
    gains: np.ndarray  # real or complex, length N
    k: int

    def __post_init__(self) -> None:
        k = require_type(self.k, int, "k")
        if k is not self.k:  # a numpy integer: store the int it holds
            object.__setattr__(self, "k", k)
        require_at_least(k, 1, "psi k (sparsity)")
        entries = self.entries
        n, m = require_array(entries, (None, None), "psi entries").shape
        require_array(self.gains, (n,), "psi gains")
        if entries.dtype.kind == "c":
            raise ValueError("psi entries must be real: the search's Gram matrix is real")
        if m < k or n < k:
            size, name = (m, "columns") if m < k else (n, "rows")
            raise ValueError(f"psi has {size} {name}, need >= k = {k}")


@dataclass(eq=False)
class DetectionResult:
    """Decoder output: pattern rank, symbol-set flag, codebook index, bits.

    ``l_hat`` is the flag actually used for bit recovery (forced to 1 when
    the rank is outside the reused range). The metrics and estimates behind
    a decision stay with :func:`secbim_joint_metrics` and :func:`_ml_metrics`.
    """

    d_hat: int
    l_hat: int  # 1 = original symbol set, 2 = extended
    g_hat: int
    bits: np.ndarray


def _require_inputs(y_freq: np.ndarray, h_freq: np.ndarray, books: np.ndarray, space: ApSpace) -> None:
    """The decoders' one input guard: reject a ``space`` that is no ``ApSpace``,
    ``books`` unless it is a (G, N, M) array with G a power of two and M =
    ``space.M``, and a y_freq or h_freq that is not an array of shape (N,) or
    holds a NaN or inf."""
    require_type(space, ApSpace, "space")
    require_pow2(len(require_array(books, (None, None, space.M), "books")), "G")
    require_array(y_freq, books.shape[1:2], "y_freq")  # (N,)
    require_array(h_freq, books.shape[1:2], "h_freq")
    if not math.isfinite(abs(np.vdot(y_freq, h_freq))):  # a NaN or inf in either propagates
        for name, arr in (("y_freq", y_freq), ("h_freq", h_freq)):
            if not np.isfinite(arr).all():
                raise ValueError(f"{name} holds a NaN or inf")


def _result(books: np.ndarray, space: ApSpace, g_hat: int, d_hat: int,
            extended: bool) -> DetectionResult:
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
    )


def cophase(y_freq: np.ndarray, h_freq: np.ndarray) -> np.ndarray:
    """Rotate each subcarrier by the conjugate channel phase.

    Leaves the effective gain |h(b)| real and nonnegative. A bin with an
    exactly zero channel gain (probability-zero draw) passes through
    unrotated. No decoder calls it: :func:`mmp_df` takes the complex gains
    h / sqrt(K) and the block as received, since a unit rotation changes no
    residual norm. It stays for outside tracing, which wraps it by name.
    """
    require_array(h_freq, require_array(y_freq, (None,), "y_freq").shape, "h_freq")
    return np.exp(-1j * np.angle(h_freq)) * y_freq


def sensing_matrix(h_freq: np.ndarray, books: np.ndarray, k: int) -> list[Sensing]:
    """diag(h) C_g / sqrt(k) for each book C_g of the (G, N, M) set, factored.

    The received block is k-sparse in each of them, and all G share one
    channel factor: every returned ``Sensing`` holds the same gains array,
    the complex h / sqrt(k), computed once per call, and carries ``k``.
    ``books`` that is no array of shape (*, len(h_freq), *) is a
    ``ValueError`` naming it.
    """
    require_array(books, (None, len(h_freq), None), "books")
    # k is checked here only because the division comes before any Sensing
    k = require_at_least(require_type(k, int, "k"), 1, "sparsity k")
    gains = h_freq / math.sqrt(k)
    return [Sensing(book, gains, k) for book in books]


def _extend(factor: tuple, g: list[float], diag: float, c: complex) -> tuple | None:
    """A path's LDL^T factor extended by one column, or None on a degenerate pivot.

    ``factor`` is (rows, d, z, energy) for a path P whose Gram matrix is
    G = L D L^T, L unit lower triangular: rows[i] holds the i entries of L's
    row i left of its diagonal, d the pivots, z = L^-1 c0[P] and energy
    sum |z_i|^2 / d_i, which equals Re(b^H x) at the LS amplitudes x of
    b = c0[P]. The new column brings its Gram entries ``g`` against P (in
    path order), its squared norm ``diag`` and its correlation ``c``. One
    forward substitution u = L^-1 g gives the new row l = u / d, the pivot
    diag - l.u and the z entry c - l.z; no row is exchanged. The pivot is
    the column's squared distance from the span of P, so one at most
    ``PIVOT_RTOL * diag`` (NaN and negative ones too), or a non-finite
    energy, marks the path rank-deficient to working precision (degenerate
    channel or codebook draw), which callers score with an infinite residual.
    """
    rows, d, z, energy = factor
    u: list[float] = []
    for row, gi in zip(rows, g):
        for lij, uj in zip(row, u):
            gi -= lij * uj
        u.append(gi)
    l = [ui / di for ui, di in zip(u, d)]
    pivot = diag
    zk = c
    for li, ui, zi in zip(l, u, z):
        pivot -= li * ui
        zk -= li * zi
    if not pivot > PIVOT_RTOL * diag:
        return None
    energy += (zk.real * zk.real + zk.imag * zk.imag) / pivot
    if not math.isfinite(energy):
        return None
    return rows + [l], d + [pivot], z + [zk], energy


def _amplitudes(factor: tuple) -> list[complex]:
    """The LS amplitudes x = L^-T D^-1 z of an :func:`_extend` factor, in path order."""
    rows, d, z, _ = factor
    x = [zi / di for zi, di in zip(z, d)]
    for i in range(len(x) - 1, 0, -1):
        xi = x[i]
        for j, lij in enumerate(rows[i]):
            x[j] -= lij * xi
    return x


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

    No residual vector is formed on the way. With psi = diag(w) C, C real
    and w real or complex, c0 = psi^H y = C^T (conj(w) y) and
    g_j = psi^H psi_j = C^T (|w|^2 c_j) is real, so a path P with LS
    amplitudes x has residual correlations |c0 - sum_i x_i g_{P_i}|, and
    the Gram matrix of its normal equations is its parent's plus one row
    read off the cached g of the parent's columns. One product gives c0,
    and an inner node computes g only for the column it adds. Each open
    node on the search's stack carries the LDL^T factor of its Gram matrix
    (:func:`_extend`): the rows of L, the pivots d, z = L^-1 c0[P] and the
    energy sum |z_i|^2 / d_i = Re(b^H x), b = c0[P]. A child extends its
    parent's factor by one row with one forward substitution, with no row
    exchanges, and is degenerate when its new pivot is at most
    ``PIVOT_RTOL`` times its column's squared norm. The amplitudes
    x = L^-T D^-1 z (:func:`_amplitudes`) are solved for an inner node's
    children, for a leaf scored by its residual vector and for the returned
    leaf. A full-depth candidate takes its new column of diag(|w|) C for
    its squared norm and is scored as r^2 = ||y||^2 - energy.
    The identity's absolute error is about K u cond(psi_P)^2 ||y||^2 (unit
    roundoff u; Bjorck, *Numerical Methods for Least Squares Problems*,
    1996; Higham, *Accuracy and Stability of Numerical Algorithms*, 2002),
    so it cancels near a perfect fit and can go negative. A candidate whose
    r^2 falls below ``RESIDUAL_RTOL`` ||y||^2 (1e-6) is scored by the norm
    of its residual vector y - w (C_P x) instead; above it, r has a relative
    error of at most about K cond(psi_P)^2 u / (2 RESIDUAL_RTOL) =
    6e-11 K cond(psi_P)^2. The N x M product psi is never formed.

    Parameters
    ----------
    y_hat : received vector, length N
    psi : sensing matrix diag(gains) @ entries, real entries and real or
        complex gains, N x M with N, M >= psi.k, and the search depth psi.k
    params : search controls

    Returns
    -------
    SparseEstimate with ascending 1-based support and the stop reason. When
    every path meets a degenerate pivot before depth k, so that no candidate is
    scored, it is support (1, ..., k) with zero coefficients, an infinite
    residual and stop "exhausted".

    Raises
    ------
    ValueError : on a ``psi`` that is no :class:`Sensing` (which checks its
        own factors and k), a ``params`` that is no :class:`MmpDfParams`, a
        ``y_hat`` that is no array of shape (N,), or a NaN or inf in ``y_hat``,
        ``entries`` or ``gains``.
    """
    require_type(psi, Sensing, "psi")
    require_type(params, MmpDfParams, "params")
    c, w, k = psi.entries, psi.gains, psi.k
    n, m = c.shape
    y = np.ascontiguousarray(require_array(y_hat, (n,), "y_hat"), dtype=np.complex128)

    y_sq = float(np.vdot(y, y).real)
    w_abs = np.abs(w)
    # y and w first: an inf times a zero in conj(w) * y would be a NaN and a
    # warning. A NaN or inf in the entries reaches c0, and is its first maximum
    if not (math.isfinite(y_sq) and math.isfinite(w_abs.item(w_abs.argmax()))):
        raise ValueError("y_hat or psi (entries, gains) holds a NaN or inf")
    c_t = c.T
    c0 = c_t.dot((np.conj(w) * y).view(np.float64).reshape(n, 2)).view(np.complex128)[:, 0]
    omega = params.omega
    corr = np.abs(c0)
    col = int(corr.argmax())  # the first maximum: ties go to the lowest column
    if not math.isfinite(corr.item(col)):
        raise ValueError("y_hat or psi (entries, gains) holds a NaN or inf")
    root = [col]
    for _ in range(min(omega, m) - 1):
        corr[col] = -math.inf
        col = int(corr.argmax())
        root.append(col)
    w2 = w_abs * w_abs
    stop_level = params.lam * (math.sqrt(y_sq) if params.relative_stop else 1.0)
    gram: dict[int, np.ndarray] = {}  # column j of an inner node -> g_j

    best_resid = math.inf
    best_path: tuple[int, ...] | None = None
    best_leaf: tuple | None = None  # best_path's factor, None if degenerate
    full_solves = 0
    stop = "exhausted"
    seen: set[tuple[int, ...]] = set()

    # one entry per open node, deepest last: its path, the LDL^T factor of
    # its Gram matrix (see _extend) and its children not yet expanded. No
    # function here refers to itself, so a search leaves no reference cycle
    # for the garbage collector
    stack = [((), ([], [], [], 0.0), iter(root))]
    while stack:
        path, factor, todo = stack[-1]
        col = next(todo, None)
        if col is None:
            stack.pop()
            continue
        new_path = path + (col,)
        row = [gram[p].item(col) for p in path]
        if len(new_path) == k:
            support = tuple(sorted(new_path))
            if support in seen:
                continue
            seen.add(support)
            full_solves += 1
            new = c[:, col] * w_abs
            leaf = _extend(factor, row, float(new.dot(new)), c0.item(col))
            if leaf is None:
                r_norm = math.inf
            else:
                r2 = y_sq - leaf[3]
                if not r2 > RESIDUAL_RTOL * y_sq:  # near a perfect fit: the vector's norm
                    x = np.array(_amplitudes(leaf)).view(np.float64).reshape(k, 2)
                    r = y - w * c.take(new_path, axis=1).dot(x).view(np.complex128)[:, 0]
                    r2 = np.vdot(r, r).real
                r_norm = math.sqrt(r2)
            if r_norm < best_resid or best_path is None:
                best_resid = r_norm
                best_path = new_path
                best_leaf = leaf
            if r_norm < stop_level:
                stop = "threshold"
                break
            if full_solves >= params.upsilon:
                stop = "budget"
                break
        else:
            g = gram.get(col)
            if g is None:
                g = gram[col] = c_t.dot(w2 * c[:, col])
            node = _extend(factor, row, g.item(col), c0.item(col))
            if node is None:
                continue  # degenerate partial path: its completions are too
            # the node's children: the omega best unused columns, best first
            x = _amplitudes(node)
            corr = c0 - x[0] * gram[new_path[0]]
            for i in range(1, len(new_path)):
                corr -= x[i] * gram[new_path[i]]
            corr = np.abs(corr)
            for p in new_path:
                corr[p] = -1.0
            best = []
            for _ in range(min(omega, m - len(new_path))):
                j = int(corr.argmax())
                best.append(j)
                corr[j] = -math.inf
            stack.append((new_path, node, iter(best)))

    if best_path is None:  # every path met a degenerate pivot before depth k
        best_path = tuple(range(k))
    order = sorted(range(k), key=best_path.__getitem__)
    coeffs = _amplitudes(best_leaf) if best_leaf else [0j] * k
    return SparseEstimate(
        support=tuple(best_path[i] + 1 for i in order),
        coeffs=np.array([coeffs[i] for i in order]),
        residual_norm=best_resid,
        ls_solves=full_solves,
        stop=stop,
    )


def secbim_joint_metrics(
    y_freq: np.ndarray,
    h_freq: np.ndarray,
    books: np.ndarray,
    space: ApSpace,
    params: MmpDfParams,
) -> tuple[np.ndarray, list[SparseEstimate]]:
    """The 2G decision metrics behind the joint decode, one row per book.

    ``books`` is the (G, N, M) set and K is ``space.K``. Each book gets its
    own sparse recovery of the received block, and all G searches share one
    channel factor, the complex gains h / sqrt(K) (:func:`sensing_matrix`,
    called once). Row g - 1 holds the squared distances from book g's K least-squares amplitudes to
    the original and to the extended symbol set: the distance between the
    length-M estimate and each set placed on its support, as both are zero
    off the support.
    """
    _require_inputs(y_freq, h_freq, books, space)
    estimates = [mmp_df(y_freq, psi, params) for psi in sensing_matrix(h_freq, books, space.K)]
    coeffs = np.array([est.coeffs for est in estimates])
    dist = np.abs(coeffs[:, None, :] - symbol_rows(space.K))
    dist *= dist
    return dist.sum(axis=2), estimates


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
    index, the rest the pattern.
    """
    metrics, estimates = secbim_joint_metrics(y_freq, h_freq, books, space, params)
    flat = int(metrics.argmin())  # row-major first minimum = smallest (g, l)
    g0, l0 = divmod(flat, 2)
    d_hat = combo_to_rank(estimates[g0].support, space)
    # a rank that is never reused carries no flag information
    extended = l0 == 1 and d_hat < space.n_reused
    return _result(books, space, g0 + 1, d_hat, extended)


def require_ml_cap(n_books: int, space: ApSpace) -> None:
    """Refuse an ML decode that would score more than ``ML_CANDIDATE_CAP`` blocks,
    G * 2**m_bits, with a ``ValueError`` naming G, M and K."""
    blocks = n_books << space.m_bits
    if blocks > ML_CANDIDATE_CAP:
        raise ValueError(f"ML candidate space of {blocks} blocks (G={n_books}, M={space.M}, "
                         f"K={space.K}) exceeds the cap of {ML_CANDIDATE_CAP}; use the greedy detector")


def build_ml_candidates(space: ApSpace) -> np.ndarray:
    """The index table of ML enumeration: one read-only (C(M, K), K) int array.

    Row d holds the 0-based active columns of rank d, ascending. Word
    w < C(M, K) is rank w on the original symbol set and word C(M, K) + d is
    rank d on the extended set (see ``encode_bits``), so the rows serve
    every word of every book: the table depends on (M, K) only.
    """
    require_ml_cap(1, space)
    # column-major, so that each k's column is contiguous for the decoders' gathers
    cols = np.asfortranarray(np.array([rank_to_combo(d, space) for d in range(space.n_combos)]) - 1)
    cols.setflags(write=False)
    return cols


def _ml_metrics(y: np.ndarray, h: np.ndarray, books: np.ndarray, space: ApSpace,
                cand: np.ndarray) -> np.ndarray:
    """||y - h .* v||^2 for every (book, word), as a (G, 2**m_bits) array.

    Candidate v = (1/sqrt(K)) sum_k s_k c_{j_k} of book C has correlation
    Re sum_n conj(y_n) h_n v_n = (1/sqrt(K)) Re sum_k s_k t_{j_k} with
    t = C^T (conj(y) h): the symbols alternate 1, j, so that is Re t at even
    k and -Im t at odd k. Its energy sum_n |h_n v_n|^2 is ||h||^2 plus (2/K)
    times the sum of W[j_k, j_k'] over the same-parity pairs k < k', with
    W = C^T diag(|h|^2) C; K <= 2 has no such pair. The extended set is the
    negated original, so its words negate the correlation.
    """
    h2 = np.abs(h)
    h2 *= h2
    w = y * np.conj(h)  # conj(z) for z = conj(y) h: its (Re, Im) are (Re z, -Im z)
    # [g - 1, p, j]: -2/sqrt(K) Re(j**p t_j) for book g
    parts = w.view(np.float64).reshape(-1, 2).T @ books
    parts *= -2.0 / math.sqrt(space.K)
    pairs = [(a, b) for a in range(space.K) for b in range(a + 2, space.K, 2)]
    n_combos, n_reused = space.n_combos, space.n_reused
    metrics = np.empty((len(books), 1 << space.m_bits))
    for book, part, row in zip(books, parts, metrics):
        original = row[:n_combos]
        # the table's columns are in range, so "clip" never acts: it spares take a buffer
        part[0].take(cand[:, 0], out=original, mode="clip")
        for k in range(1, space.K):
            original += part[k % 2].take(cand[:, k], mode="clip")
        np.negative(original[:n_reused], out=row[n_combos:])
        if pairs:
            gram = book.T @ (h2[:, None] * book)
            energy = sum(gram[cand[:, a], cand[:, b]] for a, b in pairs) * (2.0 / space.K)
            original += energy
            row[n_combos:] += energy[:n_reused]
    metrics += float(np.vdot(y, y).real) + float(h2.sum())
    return metrics


def ml_secbim(
    y_freq: np.ndarray,
    h_freq: np.ndarray,
    books: np.ndarray,
    space: ApSpace,
    cand: np.ndarray,
) -> DetectionResult:
    """Exhaustive detection jointly over codebooks and candidate words, for any G >= 1.

    ``cand`` is the index table ``build_ml_candidates(space)``.
    """
    _require_inputs(y_freq, h_freq, books, space)
    require_ml_cap(len(books), space)
    require_array(cand, (space.n_combos, space.K), "cand")
    metrics = _ml_metrics(y_freq, h_freq, books, space, cand)
    i = int(np.argmin(metrics))  # (g, word)-ordered: the first minimum is the smallest pair
    g0, word = divmod(i, metrics.shape[1])
    extended, d_hat = divmod(word, space.n_combos)  # 2**m_bits <= 2 C(M, K)
    return _result(books, space, g0 + 1, d_hat, bool(extended))


# Names under which outside tracing wraps the single-codebook decoders.
# They go once the tracer targets secbim_decode and ml_secbim only.
esvc_decode = secbim_decode
ml_esvc = ml_secbim
