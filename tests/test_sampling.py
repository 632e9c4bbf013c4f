"""The samplers' stack contract: a sequence of dims draws what a loop of scalar calls draws."""

import hashlib

import numpy as np
import pytest

from convneg.sampling import (
    random_commuting_pair,
    random_diagonal_ordered_pair,
    random_invertible_pair,
    random_nested_support_pair,
    random_normalized,
    random_ordered_pair,
    random_orthogonal,
    random_psd,
    random_same_support_pair,
)
from convneg.spectral import Dmat, spectral_decompose

DIMS = list(range(1, 51))


def _arrays(draw):
    """Every array a draw holds: matrices, kept eigenvalues, and the decomposition a pair's B keeps."""
    if isinstance(draw, np.ndarray):
        return [draw]
    if isinstance(draw, Dmat):
        out = [draw.matrix, draw.eigenvalues]
        if draw._spectral is not None:
            out += [draw._spectral.eigenvalues, draw._spectral.eigenvectors]
        return out
    return [array for part in draw for array in _arrays(part)]


def _assert_same(stacked, looped):
    assert len(stacked) == len(looped)
    for got, want in zip(stacked, looped):
        got, want = _arrays(got), _arrays(want)
        assert len(got) == len(want)
        assert all(np.array_equal(g, w) for g, w in zip(got, want))


def _digest(draw) -> str:
    h = hashlib.sha256()
    for array in _arrays(draw):
        h.update(array.tobytes())
    return h.hexdigest()[:16]


def _shuffled_dims(seed):
    # every dim twice, interleaved, so stacks gather members that are not adjacent
    return [int(d) for d in np.random.default_rng(seed).permutation(DIMS + DIMS)]


@pytest.mark.parametrize(
    "sampler, kwargs",
    [
        (random_orthogonal, {}),
        (random_psd, {}),
        (random_psd, {"rank": 1}),
        (random_psd, {"repeat_prob": 0.3}),
        (random_normalized, {}),
        (random_normalized, {"rank": 1}),
        (random_ordered_pair, {}),
        (random_ordered_pair, {"margin": 0.05}),
        (random_diagonal_ordered_pair, {}),
        (random_invertible_pair, {}),
        (random_nested_support_pair, {}),
    ],
)
def test_stack_equals_loop_of_scalar_calls(sampler, kwargs):
    dims = _shuffled_dims(1)
    stacked = sampler(np.random.default_rng(7), dims, **kwargs)
    rng = np.random.default_rng(7)
    _assert_same(stacked, [sampler(rng, d, **kwargs) for d in dims])


def test_per_member_rank_and_family_equal_a_loop():
    dims = _shuffled_dims(2)
    ranks = [int(r) for r in np.random.default_rng(3).integers(1, np.add(dims, 1))]
    ranks[:2] = dims[:2]  # rank = dim on some members
    rng = np.random.default_rng(11)
    _assert_same(
        random_psd(np.random.default_rng(11), dims, rank=ranks, repeat_prob=0.5),
        [random_psd(rng, d, rank=r, repeat_prob=0.5) for d, r in zip(dims, ranks)],
    )
    rng = np.random.default_rng(12)
    _assert_same(
        random_same_support_pair(np.random.default_rng(12), dims, ranks),
        [random_same_support_pair(rng, d, r) for d, r in zip(dims, ranks)],
    )
    families = ["ordered", "constant_product", "free"] * (len(dims) // 3 + 1)
    families = families[: len(dims)]
    rng = np.random.default_rng(13)
    _assert_same(
        random_commuting_pair(np.random.default_rng(13), dims, family=families),
        [random_commuting_pair(rng, d, family=f) for d, f in zip(dims, families)],
    )


def test_scalar_call_returns_one_draw_and_sequence_a_list():
    rng = np.random.default_rng(0)
    assert isinstance(random_psd(rng, 3), Dmat)
    assert isinstance(random_psd(rng, np.int64(3)), Dmat)
    assert random_psd(rng, []) == []
    (one,) = random_psd(rng, (3,))
    assert one.dim == 3
    a, b = random_ordered_pair(rng, 4)
    assert a.dim == b.dim == 4


def test_ordered_pair_keeps_the_decomposition_of_b():
    pairs = random_ordered_pair(np.random.default_rng(5), [1, 4, 4])
    for _, b in pairs:
        assert b._spectral is not None
        assert np.array_equal(b._spectral.reconstruct(), spectral_decompose(Dmat(b.matrix)).reconstruct())


# Digests of scalar draws, taken with the per-call samplers these replaced: a
# scalar call draws, bit for bit, what it drew before.  The two rescaled draws
# were re-pinned when rescaling began to keep the unscaled spectrum divided by
# the scale: their matrices and B's decomposition are the bits drawn before.
PINNED = [
    (lambda rng: random_orthogonal(rng, 5), "d99ed734125d0648"),
    (lambda rng: random_psd(rng, 6, rank=3, repeat_prob=0.5), "016246cd4c691c55"),
    (lambda rng: random_psd(rng, 4), "3c21b7f32aeda462"),
    (lambda rng: random_normalized(rng, 5, rank=1), "59447fbc9fd2a31f"),
    (lambda rng: random_ordered_pair(rng, 5, margin=0.05), "77be768a085ab627"),
    (lambda rng: random_ordered_pair(rng, 1), "961e76f1c44f5ce8"),
    (lambda rng: random_diagonal_ordered_pair(rng, 4), "44a135c94577984d"),
    (lambda rng: random_commuting_pair(rng, 4, family="constant_product"), "af96e28aaccdeeb9"),
    (lambda rng: random_same_support_pair(rng, 5, 2), "fd8ba6d56e25609e"),
    (lambda rng: random_nested_support_pair(rng, 6), "a0e894966d8b1eb9"),
    (lambda rng: random_psd(rng, 48, rank=40, repeat_prob=0.2), "f3da8ecef95840c9"),
]


@pytest.mark.parametrize("index", range(len(PINNED)))
def test_scalar_draws_are_pinned(index):
    draw, digest = PINNED[index]
    assert _digest(draw(np.random.default_rng(100 + index))) == digest
