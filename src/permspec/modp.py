"""Dense exact linear algebra over the prime field F_p.

Matrices are numpy int64 arrays with entries reduced mod p.  Elimination is
Gauss-Jordan with the first nonzero entry of each column as pivot, so the
reduced row echelon form it returns is the unique one; each pivot clears its
column in all other rows with one numpy outer-product step.  Entries stay
below p before every product, so no step leaves (-p^2, p): elimination runs
in int16 when p^2 < 2^15 (p <= 181), a quarter of the memory traffic of
int64, and in int64 for larger primes; the result is int64 either way.
Dimensions stay small (a few thousand at most), so the matrices are dense.
"""

import numpy as np


def two_prime(p):
    """2' = 2 for odd p and 1 for p = 2: the shift of the generators a, b."""
    return 2 if p != 2 else 1


def inv_mod(a, p):
    return pow(int(a) % p, p - 2, p)


def rref(A, p):
    """Row-reduce A mod p.  Returns (R, pivot_columns, rank)."""
    R = np.array(A, dtype=np.int64) % p
    if R.ndim != 2:
        raise ValueError("need a 2d array")
    if p * p < 1 << 15:
        R = R.astype(np.int16)
    nrows, ncols = R.shape
    pivots = []
    r = 0
    for c in range(ncols):
        if r >= nrows:
            break
        nz = np.nonzero(R[r:, c])[0]
        if len(nz) == 0:
            continue
        i = r + nz[0]
        if i != r:
            R[[r, i]] = R[[i, r]]
        R[r] = (R[r] * inv_mod(R[r, c], p)) % p
        # the pivot row is zero left of c, so only columns c.. change
        others = np.flatnonzero(R[:, c])
        others = others[others != r]
        if others.size:
            R[others, c:] = (
                R[others, c:] - np.outer(R[others, c], R[r, c:])
            ) % p
        pivots.append(c)
        r += 1
    return R.astype(np.int64, copy=False), pivots, r


def rank(A, p):
    if A.size == 0:
        return 0
    return rref(A, p)[2]


def nullspace(A, p):
    """Basis (rows) of the right kernel of A mod p."""
    A = np.array(A, dtype=np.int64) % p
    nrows, ncols = A.shape
    R, pivots, r = rref(A, p)
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    basis = np.zeros((len(free), ncols), dtype=np.int64)
    basis[np.arange(len(free)), free] = 1
    basis[:, pivots] = (-R[:r, free].T) % p
    return basis


def solve(A, b, p):
    """One solution x of A x = b mod p, or None if inconsistent."""
    A = np.array(A, dtype=np.int64) % p
    b = np.array(b, dtype=np.int64) % p
    nrows, ncols = A.shape
    aug = np.concatenate([A, b.reshape(nrows, 1)], axis=1)
    R, pivots, r = rref(aug, p)
    if ncols in pivots:
        return None
    x = np.zeros(ncols, dtype=np.int64)
    for i, c in enumerate(pivots):
        x[c] = R[i, ncols]
    return x


def matmul(A, B, p):
    return (np.array(A, dtype=np.int64) @ np.array(B, dtype=np.int64)) % p
