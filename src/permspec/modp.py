"""Dense exact linear algebra over the prime field F_p.

Matrices are numpy int64 arrays with entries reduced mod p.  `rref` returns
the unique reduced row echelon form.  At odd p it runs Gauss-Jordan with the
first nonzero entry of each column as pivot; each pivot clears its column in
all other rows with one numpy outer-product step.  Entries stay below p
before every product, so no step leaves (-p^2, p): elimination runs in int16
when p^2 < 2^15 (p <= 181), a quarter of the memory traffic of int64, and in
int64 for larger primes.  At p = 2 each row is packed into a Python int
(column c at bit ncols-1-c), an XOR basis is keyed by leading bit and
back-substituted, and the rows are unpacked.  The result is int64 either way.

`solve` is memoised on the exact system (p, shape, bytes of A and b), so an
orbit system that several callers build alike is eliminated once; each call
gets its own copy of the solution.  Dimensions stay small (a few thousand at
most), so the matrices are dense.
"""

import functools

import numpy as np


def two_prime(p):
    """2' = 2 for odd p and 1 for p = 2: the shift of the generators a, b."""
    return 2 if p != 2 else 1


def inv_mod(a, p):
    return pow(int(a) % p, p - 2, p)


def _matrix(A, p):
    """A as a 2d int64 array reduced mod p."""
    A = np.array(A, dtype=np.int64) % p
    if A.ndim != 2:
        raise ValueError("need a 2d array")
    return A


def rref(A, p):
    """Row-reduce A mod p.  Returns (R, pivot_columns, rank)."""
    R = _matrix(A, p)
    if p == 2:
        return _rref_f2(R)
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


def _rref_f2(R):
    """rref over F2 with each row packed into an int, column c at bit
    ncols-1-c, so a row's leading bit is its first nonzero column."""
    nrows, ncols = R.shape
    nbytes = (ncols + 7) // 8
    pad = 8 * nbytes - ncols
    packed = np.packbits(R.astype(np.uint8), axis=1).tobytes()
    # XOR basis keyed by leading bit
    basis = {}
    for i in range(nrows):
        row = int.from_bytes(packed[i * nbytes:(i + 1) * nbytes], "big") >> pad
        while row:
            lead = row.bit_length() - 1
            if lead not in basis:
                basis[lead] = row
                break
            row ^= basis[lead]
    # back-substitute, lowest leading bit first: a reduced row has no other
    # pivot bit, so adding it clears one pivot bit and sets none
    leads = sorted(basis)
    lower = 0
    for lead in leads:
        row = basis[lead]
        hits = row & lower
        while hits:
            low = hits.bit_length() - 1
            row ^= basis[low]
            hits ^= 1 << low
        basis[lead] = row
        lower |= 1 << lead
    leads.reverse()
    R = np.zeros((nrows, ncols), dtype=np.int64)
    if leads:
        data = b"".join((basis[lead] << pad).to_bytes(nbytes, "big")
                        for lead in leads)
        bits = np.frombuffer(data, dtype=np.uint8).reshape(len(leads), nbytes)
        R[:len(leads)] = np.unpackbits(bits, axis=1, count=ncols)
    return R, [ncols - 1 - lead for lead in leads], len(leads)


def rank(A, p):
    return rref(A, p)[2]


def nullspace(A, p):
    """Basis (rows) of the right kernel of A mod p."""
    A = _matrix(A, p)
    ncols = A.shape[1]
    R, pivots, r = rref(A, p)
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    basis = np.zeros((len(free), ncols), dtype=np.int64)
    basis[np.arange(len(free)), free] = 1
    basis[:, pivots] = (-R[:r, free].T) % p
    return basis


def solve(A, b, p):
    """One solution x of A x = b mod p (free variables 0), or None if
    inconsistent.  Equal systems are solved once: see `_solve`."""
    A = _matrix(A, p)
    b = np.array(b, dtype=np.int64) % p
    if b.size != A.shape[0]:
        raise ValueError(f"b of shape {b.shape} does not fit A of shape {A.shape}")
    dtype = _key_dtype(p)
    x = _solve(p, A.shape, A.astype(dtype).tobytes(), b.astype(dtype).tobytes())
    return None if x is None else x.copy()


def _key_dtype(p):
    """A key dtype that holds every residue mod p exactly: one byte when
    residues stay below 256."""
    return np.uint8 if p <= 256 else np.int64


@functools.cache
def _solve(p, shape, A_bytes, b_bytes):
    """`solve` on the system written as bytes in `_key_dtype(p)`."""
    dtype = _key_dtype(p)
    A = np.frombuffer(A_bytes, dtype=dtype).reshape(shape)
    b = np.frombuffer(b_bytes, dtype=dtype).reshape(shape[0], 1)
    aug = np.concatenate([A, b], axis=1)
    R, pivots, r = rref(aug, p)
    ncols = shape[1]
    if ncols in pivots:
        return None
    x = np.zeros(ncols, dtype=np.int64)
    x[pivots] = R[:r, ncols]
    return x


def matmul(A, B, p):
    return (np.array(A, dtype=np.int64) @ np.array(B, dtype=np.int64)) % p
