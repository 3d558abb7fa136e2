"""Seeded random instance generators for property tests and the CLI.

All generators accept either an integer seed or a numpy Generator, which
np.random.default_rng passes through unchanged.  Streams are split by
deriving child generators from (seed, stream-id); identical seeds
reproduce identical outputs within one build.
"""

from __future__ import annotations

import numpy as np

from .errors import ParamOutOfRange
from .linalg import kron
from .schmidt import as_shape, swap_operator

# Recorded in reports so a run can be reproduced bit-for-bit.
PRNG_NAME = "numpy-PCG64"


def split_rng(seed: int, stream: int) -> np.random.Generator:
    """Independent child stream derived from (seed, stream)."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(stream,)))


def _ginibre(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    return (rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))) / np.sqrt(2)


def haar_unitary(d: int, seed=0) -> np.ndarray:
    """Haar-distributed d x d unitary via QR of a complex Gaussian matrix.

    The R diagonal's phases are folded into Q, which makes the QR factor
    unique and the distribution exactly Haar.
    """
    if d < 1:
        raise ParamOutOfRange(f"dimension must be >= 1, got {d}")
    rng = np.random.default_rng(seed)
    q, r = np.linalg.qr(_ginibre(rng, d, d))
    diag = np.diagonal(r)
    phases = diag / np.abs(diag)
    return q * phases


def random_invertible(d: int, seed=0, cond_cap: float = 1e3) -> np.ndarray:
    """Random d x d matrix with condition number at most cond_cap.

    Built as U diag(s) V with Haar U, V and singular values resampled
    uniformly in [1/cond_cap, 1].
    """
    if cond_cap < 1.0:
        raise ParamOutOfRange(f"cond_cap must be >= 1, got {cond_cap}")
    rng = np.random.default_rng(seed)
    u = haar_unitary(d, rng)
    v = haar_unitary(d, rng)
    s = rng.uniform(1.0 / cond_cap, 1.0, size=d)
    return (u * s) @ v


def random_pure_state(d: int, seed=0) -> np.ndarray:
    """Haar-uniform unit vector in C^d."""
    if d < 1:
        raise ParamOutOfRange(f"dimension must be >= 1, got {d}")
    rng = np.random.default_rng(seed)
    v = _ginibre(rng, d, 1)[:, 0]
    return v / np.linalg.norm(v)


def random_density(d: int, rank: int, seed=0) -> np.ndarray:
    """Random valid density matrix of the requested rank.

    Mixes `rank` Haar-orthonormal pure states with weights bounded away
    from zero, so the rank is exact.
    """
    if not 1 <= rank <= d:
        raise ParamOutOfRange(f"rank must be in [1, {d}], got {rank}")
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(_ginibre(rng, d, rank))
    w = rng.uniform(0.1, 1.0, size=rank)
    w /= w.sum()
    return (q * w) @ q.conj().T


def random_local_map(shape, swap: bool = False, seed=0, cond_cap: float = 1e3):
    """Random (A x B) map, optionally composed after the subsystem swap.

    Without swap: A is n x n, B is m x m.  With swap the relabeled space
    has factor dims (m, n), so A is m x m and B is n x n, and the result
    is (A x B) @ S.  Returns a BipartiteMap.
    """
    from .classifier import BipartiteMap

    shape = as_shape(shape)
    rng = np.random.default_rng(seed)
    if swap:
        a = random_invertible(shape.m, rng, cond_cap)
        b = random_invertible(shape.n, rng, cond_cap)
        matrix = kron(a, b) @ swap_operator(shape)
    else:
        a = random_invertible(shape.n, rng, cond_cap)
        b = random_invertible(shape.m, rng, cond_cap)
        matrix = kron(a, b)
    return BipartiteMap(matrix=matrix, shape=shape)


def cnot_map():
    """The two-qubit controlled NOT, |i, j> -> |i, j xor i>, as a BipartiteMap."""
    from .classifier import BipartiteMap

    m = np.zeros((4, 4), dtype=complex)
    for i in range(2):
        for j in range(2):
            m[i * 2 + (j ^ i), i * 2 + j] = 1.0
    return BipartiteMap(matrix=m, shape=(2, 2))


def random_schmidt_rank_state(shape, rank: int, seed=0) -> np.ndarray:
    """Haar-random normalized state with exact Schmidt rank.

    Coefficients are drawn in [0.5, 1] before normalization, keeping the
    smallest-to-largest ratio far above rank-detection thresholds.
    """
    shape = as_shape(shape)
    if not 1 <= rank <= min(shape.n, shape.m):
        raise ParamOutOfRange(f"rank must be in [1, {min(shape.n, shape.m)}], got {rank}")
    rng = np.random.default_rng(seed)
    qa, _ = np.linalg.qr(_ginibre(rng, shape.n, rank))
    qb, _ = np.linalg.qr(_ginibre(rng, shape.m, rank))
    lam = rng.uniform(0.5, 1.0, size=rank)
    lam /= np.linalg.norm(lam)
    v = np.zeros(shape.dim, dtype=complex)
    for k in range(rank):
        v += lam[k] * np.kron(qa[:, k], qb[:, k])
    return v


def perturb(bmap, eps: float, seed=0):
    """Add a Gaussian direction of relative size eps to a bipartite map.

    perturb(L, 0, seed) returns L unchanged.
    """
    from .classifier import BipartiteMap

    if eps < 0:
        raise ParamOutOfRange(f"eps must be >= 0, got {eps}")
    if eps == 0.0:
        return BipartiteMap(matrix=bmap.matrix.copy(), shape=bmap.shape)
    rng = np.random.default_rng(seed)
    g = _ginibre(rng, *bmap.matrix.shape)
    g /= np.linalg.norm(g)
    scale = np.linalg.norm(bmap.matrix)
    return BipartiteMap(matrix=bmap.matrix + eps * scale * g, shape=bmap.shape)
