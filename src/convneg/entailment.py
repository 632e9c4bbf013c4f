"""Graded entailment measures between density matrices.

k_hyp is the generalized max-eigenvalue form (no support check, may exceed
1), k_BA the signed eigenvalue ratio of the difference, k_E the error-norm
measure, and trace similarity the density-operator analog of cosine
similarity.  A slow binary-search oracle for the maximal Loewner grading is
included as an independent cross-check of k_hyp.

Each measure takes a `Dmat` or a sequence of `Dmat`s in either argument.
Two matrices give a float.  A matrix and a sequence pair the matrix with
every member of the sequence; two sequences pair elementwise, and raise
ValueError if their lengths differ.  The values come back as an array in
sequence order (empty for empty sequences), equal bit for bit to a loop
of scalar calls and raising what the first failing call of that loop
would raise: how a pair is solved, and how it rounds, depends on the pair
alone.  k_hyp solves one stack per problem shape, with no per-pair copy
of an operand shared by several pairs, and reads a 1 x 1 problem off
without one.  k_E and k_BA are read off the spectrum of B - A.  When one
side of a pair is a pure state a a^T (roundoff rank 1, as every lexicon
leaf is), the few terms they need come from the other side's cached
eigenbasis in O(d^2), with no d x d solve: one Newton loop per call
scores every such pair (`_rank_one_terms`), and its one-slot cache lets
k_E both ways and k_BA of one batch of pairs share one evaluation.  The
grid's batch is one negated word: its outputs under every grid row, each
paired with each of the word's alternatives.  Every other pair is solved
d x d (`_solve`), one stack per call.  Trace similarity is the sum of the
entrywise product, O(d^2) for any rank.

The k_hyp, k_E and k_BA formulas each live in one array kernel
(`_k_hyp_pairs`, `k_e_from_spectra`, `k_ba_from_spectra`) and the rank-1
route's closed forms.  Every pair kernel takes one list of matrices, one
slot per distinct operand, and the slot of each pair's A and B (`_pairs`
builds them), so what a measure needs of an operand is computed once per
matrix, however many pairs share it.  `_stacks` groups pairs into solve
stacks.  The grid and the entailment graph score through the measures
themselves, looked up by name in `MEASURES`.
"""

from __future__ import annotations

from functools import lru_cache
from types import MappingProxyType
from typing import Callable, Mapping, Sequence

import numpy as np

from .errors import ZeroMatrixError
from .spectral import EPS, RANK_TOL, Dmat, _read_only, _roundoff_cut, _roundoff_rank, check_dims, spectral_decompose

# Newton steps allowed for a rank-1 pair's root; a pair not converged by then is solved d x d
NEWTON_STEPS = 64
ORACLE_TOL = 1e-9  # the k_hyp oracle's PSD tolerance
ORACLE_STEPS = 60  # and its bisection steps


def _pairs(A: Dmat | Sequence[Dmat], B: Dmat | Sequence[Dmat], zero_a=False, zero_b=False, message=""):
    """One slot per distinct operand: the distinct members of A and B as one list, and the slot of each pair's A and B.

    Members are told apart by identity and take slots in order of first
    appearance.  Two sequences pair elementwise, (A[k], B[k]), and raise
    ValueError first if their lengths differ.  Then raises what the first
    failing call of a loop of scalar calls would raise.  The loop visits the
    pairs in sequence order; a pair fails on differing dims, else with
    ZeroMatrixError(message) on a zero (`Dmat.is_zero`, read once per slot)
    A where `zero_a` is set, or B where `zero_b` is.  The loop runs only
    where the slots hold more than one dim or the zero check finds a zero.
    """
    if isinstance(A, Dmat):
        b = [B] if isinstance(B, Dmat) else list(B)
        a = [A] * len(b)
    elif isinstance(B, Dmat):
        a, b = A, [B] * len(A)
    elif len(A) != len(B):
        raise ValueError(f"two sequences pair elementwise, but have lengths {len(A)} and {len(B)}")
    else:
        a, b = A, B
    slots: dict[Dmat, int] = {}
    ia = [slots.setdefault(m, len(slots)) for m in a]
    ib = [slots.setdefault(m, len(slots)) for m in b]
    mats = list(slots)
    zero = [m.is_zero() for m in mats] if zero_a or zero_b else []
    if any(zero) or len({m.dim for m in mats}) > 1:  # else no pair can fail
        for i, j in zip(ia, ib):
            check_dims(mats[i], mats[j])
            if zero_a and zero[i] or zero_b and zero[j]:
                raise ZeroMatrixError(message)
    return mats, ia, ib


def _result(values, A, B):
    """A float for two matrices (values holds one), else the array of values."""
    return values.item() if isinstance(A, Dmat) and isinstance(B, Dmat) else values


def _stack(arrays: list[np.ndarray]) -> np.ndarray:
    """Arrays of one shape, copied into one preallocated stack (np.stack costs more per member)."""
    out = np.empty((len(arrays), *arrays[0].shape))
    for slot, array in enumerate(arrays):
        out[slot] = array
    return out


def _stacks(shapes: Sequence):
    """(shape, pairs) per stack: each shape's pair indices, first shape seen first."""
    groups: dict = {}
    for k, shape in enumerate(shapes):
        groups.setdefault(shape, []).append(k)
    for shape, ks in groups.items():
        yield shape, np.array(ks)


def _top_eigenvalue(cores: np.ndarray) -> np.ndarray:
    """Top eigenvalue of each symmetrized square matrix in a stack; a 1 x 1 matrix is its entry."""
    sym = (cores + np.swapaxes(cores, -1, -2)) / 2.0
    return sym[:, 0, 0] if sym.shape[-1] == 1 else np.linalg.eigvalsh(sym)[:, -1]


def _k_hyp_pairs(mats: Sequence[Dmat], ia: list[int], ib: list[int]) -> np.ndarray:
    """k_hyp(mats[ia[k]], mats[ib[k]]) for every k: the one kernel behind `k_hyp`.

    gamma, the top eigenvalue of pinv(B) A, is solved in the smaller support.
    With W the whitened support of B (`whitened_support`, rank r_B),
    gamma = lambda_max(W^T A W), an r_B-square problem that needs only A's
    matrix.  When A's roundoff rank r_A is below r_B, gamma =
    lambda_max(G^T G) with G = W^T F_A and F_A A's support factor, an
    r_A-square problem.  The result is 1/gamma, or +inf where gamma is at or
    below RANK_TOL.  Pairs are grouped by their problem's shape (`_stacks`)
    and solved a stack at a time; every pair rounds the same in any stack,
    so values do not depend on the batch.  Within a stack, the operand a
    core is built around (A's matrix in B's support, else B's whitened
    support) enters once per slot (distinct matrix), as one matrix against
    the stack of its pairs' other operands, and is never copied per pair.
    """
    if not ia:
        return np.empty(0)
    whitened = {j: spectral_decompose(mats[j]).whitened_support for j in dict.fromkeys(ib)}
    a_side = list(dict.fromkeys(ia))
    ranks = dict(zip(a_side, _roundoff_rank(_stack([mats[i].eigenvalues for i in a_side]), mats[0].dim).tolist()))
    factors: dict[int, np.ndarray] = {}
    # (r_B, r_A) per pair; r_A = 0 marks a pair solved in B's support
    shapes = []
    for i, j in zip(ia, ib):
        r_b, r_a = whitened[j].shape[1], 0
        if ranks[i] < r_b:
            if i not in factors:
                factors[i] = spectral_decompose(mats[i]).support_factor
            r_a = factors[i].shape[1]
        shapes.append((r_b, r_a))
    gamma = np.empty(len(ia))
    for (r_b, r_a), part in _stacks(shapes):
        cores = np.empty((len(part), r_a or r_b, r_a or r_b))
        for shared, ks in _stacks([(ib if r_a else ia)[k] for k in part]):
            if r_a == 0:
                w = _stack([whitened[ib[k]] for k in part[ks]])
                # A's matrix in C order, the layout a `_stack` slot has, whatever order it was built in
                cores[ks] = np.swapaxes(w, -1, -2) @ np.ascontiguousarray(mats[shared].matrix) @ w
            else:
                g = whitened[shared].T @ _stack([factors[ia[k]] for k in part[ks]])
                cores[ks] = np.swapaxes(g, -1, -2) @ g
        gamma[part] = _top_eigenvalue(cores)
    return np.divide(1.0, gamma, out=np.full_like(gamma, np.inf), where=gamma > RANK_TOL)


def k_hyp(A: Dmat | Sequence[Dmat], B: Dmat | Sequence[Dmat]):
    """Reciprocal of the top eigenvalue of pinv(B) A (generalized grading).

    Solved in the smaller of the two supports (see `_k_hyp_pairs`).  When
    the support of A lies inside the support of B this equals the largest k
    with B - kA still PSD.  A top eigenvalue at or below RANK_TOL means A
    places nothing measurable inside B's support; +inf is returned to signal
    the unconstrained case.
    """
    return _result(_k_hyp_pairs(*_pairs(A, B, True, True, "k_hyp needs two nonzero matrices")), A, B)


def k_hyp_clamped(A: Dmat | Sequence[Dmat], B: Dmat | Sequence[Dmat]):
    """min(k_hyp, 1); the +inf sentinel clamps to full entailment."""
    return _result(np.minimum(k_hyp(A, B), 1.0), A, B)


def k_hyp_oracle(A: Dmat, B: Dmat) -> float:
    """Largest k with B - kA PSD, by plain bisection.  Independent of k_hyp."""
    return float(_k_hyp_oracle_pairs([(A, B)])[0])


def _k_hyp_oracle_pairs(pairs: Sequence[tuple[Dmat, Dmat]]) -> np.ndarray:
    """`k_hyp_oracle` of each (A, B) in `pairs`, all bisected at once; raises what a loop of calls would.

    A pair's bracket [0, top(B) / (A's least eigenvalue above ORACLE_TOL) + 1]
    is read off the kept eigenvalues; a B not PSD within ORACLE_TOL gives 0.
    Each step tests every pair's B - k A in one stacked `eigvalsh` per dim
    (`_stacks`), in which each matrix rounds as it would alone.
    """
    for a, b in pairs:
        check_dims(a, b)
        if not (a.eigenvalues > ORACLE_TOL).any():
            raise ZeroMatrixError("oracle needs a nonzero first argument")
    lo = np.zeros(len(pairs))
    hi = np.array([b.eigenvalues[-1] / a.eigenvalues[a.eigenvalues > ORACLE_TOL].min() for a, b in pairs]) + 1.0
    stacks = [
        (part, _stack([pairs[k][0].matrix for k in part]), _stack([pairs[k][1].matrix for k in part]))
        for _, part in _stacks([a.dim for a, _ in pairs])
    ]

    def psd_at(k: np.ndarray) -> np.ndarray:
        ok = np.empty(len(pairs), dtype=bool)
        for part, a, b in stacks:
            ok[part] = np.linalg.eigvalsh(b - k[part, None, None] * a)[:, 0] >= -ORACLE_TOL
        return ok

    feasible = psd_at(lo)
    for _ in range(ORACLE_STEPS):
        mid = (lo + hi) / 2.0
        ok = psd_at(mid)
        lo, hi = np.where(ok, mid, lo), np.where(ok, hi, mid)
    return np.where(feasible, lo, 0.0)


def _solve(pairs: Sequence[tuple[Dmat, Dmat]]) -> np.ndarray:
    """Ascending spectra of B - A for each (A, B) in `pairs`: one stacked d x d eigvalsh."""
    return np.linalg.eigvalsh(_stack([b.matrix - a.matrix for a, b in pairs]))


@lru_cache(maxsize=1)
def _rank_one_terms(pairs: tuple[tuple[Dmat, Dmat], ...]):
    """Terms of the spectrum of D = N - a a^T for each (N, a a^T) in `pairs`, each from its N's cached eigenbasis.

    With N = V Lambda V^T and w = V^T a, D is Lambda - w w^T in N's
    eigenbasis, so it has at most one negative eigenvalue, -t, the root of
    phi(t) = sum_i w_i^2 / (lambda_i + t) = 1 (Golub 1973; Bunch, Nielsen and
    Sorensen 1978).  phi falls and 1/phi is concave on t > 0, so Newton's
    method on 1/phi = 1 climbs to the root monotonically from any start
    below it.  It starts at the largest of cut, the `_roundoff_cut` of N's
    top eigenvalue, and the lower bounds sum_{j>=i} w_j^2 - lambda_i (over
    eigenvalues in descending order); phi(cut) <= 1 puts the root within
    roundoff of zero, where t is 0, as the d x d route counts such an
    eigenvalue.  Every pair's root is found in one loop, each frozen once
    its step falls below 2 eps t, so its iterates do not depend on the
    other pairs.  Returns per pair:

    - t;
    - tr D;
    - pos_sq, the squared norm of D's positive part, ||D||_F^2 - t^2, with
      ||D||_F^2 summed from non-negative terms only;
    - `sure`: pos_sq is clear of cancellation, holding at least a quarter
      of ||D||_F^2, and D is not within roundoff of zero, so its root errs
      by about as much as the d x d route's;
    - whether t was still moving after NEWTON_STEPS.

    a is the first column of the pure state's support factor, and w = V^T a
    is one (d, d) by (1, d, 1) product per pair, which rounds as that pair's
    row of a stacked product would.  The one cache slot keeps the terms of
    the last `pairs` (matrices compare by identity), so k_E both ways and
    k_BA of one batch share one evaluation; another batch replaces it.  A
    grid batch is one negated word: its outputs under every row, each
    repeated once per alternative, paired with the alternatives.  The grid
    asks for these columns first in each batch, so the slot never keeps an
    earlier word's outputs alive.  Every caller gets the same read-only
    arrays.  Threads share the slot safely: the cache locks its own
    bookkeeping, and a miss only recomputes.
    """
    decomps = [spectral_decompose(n) for n, _ in pairs]
    lam, dim = _stack([decomp.eigenvalues for decomp in decomps]), pairs[0][0].dim
    columns = _stack([spectral_decompose(p).support_factor[:, :1] for _, p in pairs])
    u = np.square(np.concatenate([decomp.eigenvectors.T @ columns[k : k + 1] for k, decomp in enumerate(decomps)])[..., 0])
    # sum_{j>=i} u_j: phi(t) >= sum_{j>=i} u_j / (lambda_i + t), so the root is at least sum_{j>=i} u_j - lambda_i
    suffix = np.cumsum(u[:, ::-1], axis=-1)[:, ::-1]
    norm_sq = suffix[:, 0]
    cut = _roundoff_cut(lam[:, 0], dim)
    t = np.maximum(cut, (suffix - lam).max(axis=-1))
    active = np.ones(len(pairs), dtype=bool)
    for _ in range(NEWTON_STEPS):
        r = 1.0 / (lam + t[:, None])
        q = u * r
        phi = q.sum(axis=-1)
        step = phi * (phi - 1.0) / (q * r).sum(axis=-1)
        active &= step > 2.0 * EPS * t
        if not active.any():
            break
        np.add(t, step, out=t, where=active)
    t = np.where(t > cut, t, 0.0)
    # ||Lambda - w w^T||_F^2: sum_i (lambda_i - u_i)^2 on the diagonal, 2 sum_i u_i sum_{j>i} u_j off it
    fro_sq = np.square(lam - u).sum(axis=-1) + 2.0 * (u[:, :-1] * suffix[:, 1:]).sum(axis=-1)
    pos_sq = fro_sq - np.square(t)
    sure = (4.0 * pos_sq >= fro_sq) & (fro_sq > np.square(_roundoff_cut(np.maximum(lam[:, 0], norm_sq), dim)))
    return tuple(map(_read_only, (t, lam.sum(axis=-1) - norm_sq, pos_sq, sure, active)))


def _by_route(mats: Sequence[Dmat], ia: list[int], ib: list[int], from_terms: Callable, from_spectra: Callable):
    """The value of each pair (mats[ia[k]], mats[ib[k]]), from the rank-1 route or a d x d solve.

    A pair takes the rank-1 route when its B, else its A, has roundoff rank
    1 (`_roundoff_rank`): that side is a a^T, the other N, and B - A is D =
    N - a a^T, or -D where a a^T is B (`flip`).  Its value is
    from_terms(pairs, flip, t, tr D, pos_sq, sure) over the terms of one
    `_rank_one_terms` call for all such pairs, and NaN leaves it, with any
    unconverged root and every other pair, to from_spectra(spectra of
    B - A, pairs) over one `_solve` stack.
    """
    if not ia:
        return np.empty(0)
    pure = (_roundoff_rank(_stack([m.eigenvalues for m in mats]), mats[0].dim) == 1).tolist()
    ks = [k for k, (i, j) in enumerate(zip(ia, ib)) if pure[i] or pure[j]]
    values = np.full(len(ia), np.nan)
    if ks:
        flip = np.array([pure[ib[k]] for k in ks])
        pairs = tuple((mats[ia[k]], mats[ib[k]]) if f else (mats[ib[k]], mats[ia[k]]) for k, f in zip(ks, flip))
        t, total, pos_sq, sure, moving = _rank_one_terms(pairs)
        values[ks] = np.where(moving, np.nan, from_terms(ks, flip, t, total, pos_sq, sure))
    rest = np.flatnonzero(np.isnan(values))
    if rest.size:
        values[rest] = from_spectra(_solve([(mats[ia[k]], mats[ib[k]]) for k in rest]), rest)
    return values


def _ratio(sums: np.ndarray, absolute_sums: np.ndarray, tops: np.ndarray, dim: int) -> np.ndarray:
    """k_BA from the sum and absolute sum of a spectrum of B - A; an absolute sum within roundoff
    of the operands' top eigenvalue `tops` (equal matrices, 0/0) gives 1: dim eigenvalues, each
    within `_roundoff_cut`, so dim times that cut."""
    return np.divide(sums, absolute_sums, out=np.ones_like(absolute_sums), where=absolute_sums > dim * _roundoff_cut(tops, dim))


def k_ba_from_spectra(spectra: np.ndarray, tops: np.ndarray) -> np.ndarray:
    """k_BA from spectra of B - A (last axis) and the top eigenvalue of each pair's operands (see `_ratio`)."""
    return _ratio(spectra.sum(axis=-1), np.abs(spectra).sum(axis=-1), tops, spectra.shape[-1])


def k_ba(A: Dmat | Sequence[Dmat], B: Dmat | Sequence[Dmat]):
    """Signed eigenvalue ratio of B - A, in [-1, 1].

    Equal matrices give 0/0; that case is defined as 1 (full self-entailment,
    matching the limit along B = A + eps*I), and so is any B - A within
    roundoff of the operands' scale.  On the rank-1 route, B - A = ±D sums
    to ±tr D, and its absolute sum is tr D + 2t.
    """
    mats, ia, ib = _pairs(A, B)
    top = np.array([m.max_eigenvalue() for m in mats])
    tops = np.maximum(top[ia], top[ib])

    def from_terms(pairs, flip, t, total, pos_sq, sure):
        return _ratio(np.where(flip, -total, total), total + 2.0 * t, tops[pairs], mats[0].dim)

    return _result(_by_route(mats, ia, ib, from_terms, lambda spectra, pairs: k_ba_from_spectra(spectra, tops[pairs])), A, B)


def spectrum_norms(spectra: np.ndarray) -> np.ndarray:
    """Euclidean norm of each spectrum along the last axis.

    It is the root of a per-row `@` dot product, which rounds exactly as
    `np.linalg.norm` does on each row; `np.einsum` does not.
    """
    return np.sqrt((spectra[..., None, :] @ spectra[..., :, None])[..., 0, 0])


def k_e_from_spectra(spectra: np.ndarray, norm_a) -> np.ndarray:
    """k_E from ascending spectra of B - A (last axis) and the norms of A's spectra.

    The formula behind `k_e`: the error norm is the norm of the negative part
    of the spectrum, and the result is 1 - error / norm_a clamped to [0, 1].
    A negative eigenvalue within roundoff of zero (`_roundoff_cut` of the
    largest magnitude, at the spectrum's length) counts as zero, so a
    crisply entailed pair scores exactly 1.
    """
    cut = _roundoff_cut(np.maximum(-spectra[..., :1], spectra[..., -1:]), spectra.shape[-1])
    error = spectrum_norms(np.where(spectra < -cut, -spectra, 0.0))
    return np.clip(1.0 - error / norm_a, 0.0, 1.0)


def k_e(A: Dmat | Sequence[Dmat], B: Dmat | Sequence[Dmat]):
    """One minus the relative size of the entailment error term.

    The error term collects the negative part of B - A with flipped signs;
    it vanishes exactly when B - A is PSD.  Its Frobenius norm over A's is
    clamped to [0, 1].  On the rank-1 route the error is t where a a^T is A,
    and otherwise the norm of D's positive part, sqrt(pos_sq), left to the
    d x d solve unless `sure`.
    """
    mats, ia, ib = _pairs(A, B, zero_a=True, message="k_e needs a nonzero first argument")
    norms = {i: spectrum_norms(mats[i].eigenvalues) for i in dict.fromkeys(ia)}
    norm_a = np.array([norms[i] for i in ia])

    def from_terms(pairs, flip, t, total, pos_sq, sure):
        values = np.clip(1.0 - np.where(flip, np.sqrt(np.maximum(pos_sq, 0.0)), t) / norm_a[pairs], 0.0, 1.0)
        return np.where(flip & ~sure, np.nan, values)

    values = _by_route(mats, ia, ib, from_terms, lambda spectra, pairs: k_e_from_spectra(spectra, norm_a[pairs]))
    return _result(values, A, B)


def trace_similarity(A: Dmat | Sequence[Dmat], B: Dmat | Sequence[Dmat]):
    """trace(A B) over the product of Frobenius norms; symmetric, in [0, 1].

    trace(A B) of symmetric matrices is the sum of their entrywise product.
    """
    mats, ia, ib = _pairs(A, B, True, True, "trace similarity needs two nonzero matrices")
    norm = [m.frobenius_norm() for m in mats]
    traces = np.array([np.vdot(mats[i].matrix, mats[j].matrix) for i, j in zip(ia, ib)])
    return _result(np.clip(traces / np.array([norm[i] * norm[j] for i, j in zip(ia, ib)]), 0.0, 1.0), A, B)


# name -> measure, as the grid's plausibility columns and the entailment graph name them
MEASURES: Mapping[str, Callable] = MappingProxyType(
    {"k_hyp": k_hyp_clamped, "k_E": k_e, "k_BA": k_ba, "trace": trace_similarity}
)
