"""Independent reference implementations the solver tests are checked against."""
import functools
import math
from math import comb

import numpy as np

from svcim.detectors import PIVOT_RTOL, MmpDfParams, Sensing, SparseEstimate
from svcim.index_codec import ApSpace, encode_bits, int_to_bits
from svcim.transceiver import build_sparse_vector


def dense(psi: Sensing) -> np.ndarray:
    """The N x M matrix diag(gains) @ entries that a ``Sensing`` stands for."""
    return np.asarray(psi.gains)[:, None] * np.asarray(psi.entries)


def column_coherence(book: np.ndarray) -> float:
    """Largest normalized inner product between distinct columns, in [0, 1].

    Low coherence is what lets greedy recovery tell activation patterns
    apart; it shrinks as N grows for fixed M.
    """
    c = np.asarray(book)
    if c.shape[1] < 2:
        return 0.0
    gram = np.abs(c.T @ c) / c.shape[0]
    np.fill_diagonal(gram, 0.0)
    return float(gram.max())


def reference_omp(y, psi, k):
    """Textbook orthogonal matching pursuit, written as the oracle.

    Greedy correlation pick, full least-squares refit each step. Returns
    the support as a sorted tuple of 0-based column indices.
    """
    residual = y.copy()
    chosen = []
    for _ in range(k):
        corr = np.abs(psi.conj().T @ residual)
        corr[chosen] = -1.0
        chosen.append(int(np.argmax(corr)))
        a = psi[:, chosen]
        coef, *_ = np.linalg.lstsq(a, y, rcond=None)
        residual = y - a @ coef
    return tuple(sorted(chosen))


def degenerate_gram(gram: np.ndarray) -> bool:
    """Whether Gaussian elimination with partial pivoting on ``gram`` meets a
    pivot of magnitude at most ``PIVOT_RTOL`` times its largest diagonal
    magnitude: the rank rule of the search's own solver, by row operations."""
    a = np.array(gram, dtype=float)
    tol = PIVOT_RTOL * np.abs(np.diag(a)).max()
    for j in range(len(a)):
        p = j + int(np.abs(a[j:, j]).argmax())
        if abs(a[p, j]) <= tol:
            return True
        a[[j, p]] = a[[p, j]]
        a[j + 1:] -= np.outer(a[j + 1:, j] / a[j, j], a[j])
    return False


# The recursive MMP-DF search with one np.linalg.solve per tree node, kept
# as the reference the Gram-form search in svcim.detectors is checked against.
def _ls_fit(
    psi: np.ndarray, cols: list[int], y: np.ndarray
) -> tuple[np.ndarray, np.ndarray] | None:
    """Least squares on the chosen real columns via normal equations.

    Returns ``(coef, residual)``, or None on a subproblem that is
    rank-deficient to working precision (:func:`degenerate_gram`: degenerate
    channel or codebook draw); callers treat that candidate as having
    infinite residual.
    """
    a = psi[:, cols]
    gram = a.T @ a
    if degenerate_gram(gram):
        return None
    coef = np.linalg.solve(gram, a.T @ y)
    if not np.all(np.isfinite(coef)):
        return None
    return coef, y - a @ coef


def _lstsq_fit(
    psi: np.ndarray, cols: list[int], y: np.ndarray
) -> tuple[np.ndarray, np.ndarray] | None:
    """Least squares on the chosen real columns via ``np.linalg.lstsq`` (SVD).

    Unlike the normal equations it does not square the condition number.
    Returns None when the columns are rank-deficient at lstsq's default
    cutoff, the degenerate case of :func:`_ls_fit`.
    """
    a = psi[:, cols]
    coef, _, rank, _ = np.linalg.lstsq(a, y, rcond=None)
    if rank < len(cols):
        return None
    return coef, y - a @ coef


def reference_mmp_df(y_hat: np.ndarray, psi: Sensing, params: MmpDfParams,
                     fit=_ls_fit) -> SparseEstimate:
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
    psi : real sensing matrix diag(gains) @ entries, N x M with M >= psi.k,
        and the search depth psi.k
    params : search controls
    fit : the least-squares fit of every tree node and leaf, ``_ls_fit``
        (normal equations) or ``_lstsq_fit``

    Returns
    -------
    SparseEstimate with ascending 1-based support.
    """
    y = np.asarray(y_hat, dtype=np.complex128)
    k = psi.k
    psi = dense(psi)
    if np.iscomplexobj(psi):
        raise ValueError("psi must be real: co-phasing makes the sensing matrix real")
    n, m = psi.shape
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
                leaf = fit(psi, list(support), y)
                r_norm = math.inf if leaf is None else float(np.linalg.norm(leaf[1]))
                if r_norm < best_resid or best_support is None:
                    best_resid = r_norm
                    best_support = support
                    best_coeffs = None if leaf is None else leaf[0]
                if r_norm < stop_level:
                    return True
                if full_solves >= params.upsilon:
                    return True
            else:
                node = fit(psi, list(new_path), y)
                if node is None:
                    continue  # degenerate partial path: its completions are too
                if dfs(new_path, node[1]):
                    return True
        return False

    dfs((), y)

    if best_support is None:  # every path met a rank-deficient fit before depth k
        best_support = tuple(range(k))
    coeffs = best_coeffs if best_coeffs is not None else np.zeros(k, dtype=np.complex128)
    return SparseEstimate(
        support=tuple(c + 1 for c in best_support),
        coeffs=np.asarray(coeffs, dtype=np.complex128),
        residual_norm=best_resid,
        ls_solves=full_solves,
        # inferred, as the search above does not record why it returned
        stop=("threshold" if best_resid < stop_level
              else "budget" if full_solves >= params.upsilon else "exhausted"),
    )


# The same search with every fit by lstsq: the decisions of a solver that
# does not square the condition number, for the deep-fade comparison.
reference_mmp_df_lstsq = functools.partial(reference_mmp_df, fit=_lstsq_fit)


def reference_rank_to_combo(d: int, space: ApSpace) -> tuple[int, ...]:
    """Unrank by walking each position c upward until C(c + 1, k) exceeds the rest.

    The linear scan that ``rank_to_combo`` replaced with bisection; up to M
    binomial evaluations per level.
    """
    if not 0 <= d < space.n_combos:
        raise ValueError(f"rank {d} outside [0, {space.n_combos - 1}]")
    out = []
    x = d
    for k in range(space.K, 0, -1):
        c = k - 1
        while comb(c + 1, k) <= x:
            c += 1
        out.append(c + 1)
        x -= comb(c, k)
    out.reverse()
    return tuple(out)


def reference_ml_candidates(books, space: ApSpace) -> np.ndarray:
    """Every ML candidate block, built word by word: encode, place the symbols,
    spread with a full product. Row ``(g - 1) * 2**m_bits + word`` is book g
    spreading ``word``."""
    n_words = 1 << space.m_bits
    vdd = np.zeros((n_words, space.M), dtype=np.complex128)
    for word in range(n_words):
        msg = encode_bits(int_to_bits(word, space.m_bits), space)
        vdd[word] = build_sparse_vector(msg, space.M)
    inv_sqrt_k = 1.0 / math.sqrt(space.K)
    return np.vstack([(vdd @ b.T) * inv_sqrt_k for b in books])


def rayleigh_responses(v: int, n: int, draws: int, rng: np.random.Generator) -> np.ndarray:
    """``draws`` length-n frequency responses of v i.i.d. CN(0, 1/v) taps, one per row.

    Drawn here rather than by ``svcim.channel``, so that a wrong channel
    power there shows against :func:`ml_union_bound`.
    """
    taps = rng.standard_normal((draws, v)) + 1j * rng.standard_normal((draws, v))
    return np.fft.fft(taps * math.sqrt(0.5 / v), n, axis=1)


def ml_union_bound(rows: np.ndarray, cp_len: int, ebn0_db: float,
                   h_draws: np.ndarray) -> tuple[float, float]:
    """Union bound on the bit error rate of ML with known h, and its 95% half-width.

    ``rows`` are candidate blocks as ``reference_ml_candidates`` returns
    them: row r carries the m-bit word r, m = log2(len(rows)). For one
    channel h, sent block v_i is taken for v_j with pairwise probability
    Q(||h (v_i - v_j)|| / sqrt(2 n0)) (Proakis & Salehi, *Digital
    Communications*, 5th ed.), which costs hamming(i, j) of its m bits. The
    bound sums these over j != i and averages over the sent block and over
    the rows of ``h_draws``; the half-width is 1.96 standard errors over the
    draws. Eb is derived from the blocks, not from svcim: the mean block
    energy, times (N + cp_len)/N for the cyclic prefix, over m; then
    n0 = Eb 10^(-Eb/N0 / 10).
    """
    n_rows, n = rows.shape
    m = n_rows.bit_length() - 1
    if n_rows != 1 << m:
        raise ValueError(f"{n_rows} rows are no full set of words")
    eb = float(np.mean(np.sum(np.abs(rows) ** 2, axis=1))) * (n + cp_len) / n / m
    n0 = eb * 10.0 ** (-ebn0_db / 10.0)
    i, j = np.triu_indices(n_rows, 1)  # each pair once, counted for both senders
    ham = sum((i ^ j) >> b & 1 for b in range(m))
    weight = 2.0 * ham / m / n_rows
    erfc = np.frompyfunc(math.erfc, 1, 1)
    per_draw = np.empty(len(h_draws))
    for d, h in enumerate(h_draws):
        faded = rows * h
        energy = np.sum(np.abs(faded) ** 2, axis=1)
        dist2 = energy[i] + energy[j] - 2.0 * (faded.conj() @ faded.T).real[i, j]
        # Q(x) = erfc(x / sqrt(2)) / 2 at x = sqrt(dist2 / (2 n0))
        q = 0.5 * erfc(np.sqrt(np.maximum(dist2, 0.0) / (4.0 * n0))).astype(float)
        per_draw[d] = weight @ q
    half = 1.96 * per_draw.std(ddof=1) / math.sqrt(len(per_draw)) if len(per_draw) > 1 else 0.0
    return float(per_draw.mean()), half
