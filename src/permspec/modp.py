"""Dense exact linear algebra over the prime field F_p.

Matrices are numpy int64 arrays with entries reduced mod p.  Everything here
is plain Gaussian elimination; dimensions stay small (a few thousand at most)
so no sparsity or pivoting cleverness is attempted.
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
        for j in range(nrows):
            if j != r and R[j, c]:
                R[j] = (R[j] - R[j, c] * R[r]) % p
        pivots.append(c)
        r += 1
    return R, pivots, r


def rank(A, p):
    if A.size == 0:
        return 0
    return rref(A, p)[2]


def nullspace(A, p):
    """Basis (rows) of the right kernel of A mod p."""
    A = np.array(A, dtype=np.int64) % p
    nrows, ncols = A.shape
    R, pivots, _ = rref(A, p)
    free = [c for c in range(ncols) if c not in pivots]
    basis = np.zeros((len(free), ncols), dtype=np.int64)
    for k, f in enumerate(free):
        basis[k, f] = 1
        for i, c in enumerate(pivots):
            basis[k, c] = (-R[i, f]) % p
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
