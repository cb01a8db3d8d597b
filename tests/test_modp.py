import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from permspec import modp


matrices = st.integers(2, 7).filter(lambda p: p in (2, 3, 5, 7)).flatmap(
    lambda p: st.tuples(
        st.just(p),
        st.lists(
            st.lists(st.integers(0, p - 1), min_size=1, max_size=5),
            min_size=1,
            max_size=5,
        ).filter(lambda rows: len({len(r) for r in rows}) == 1),
    )
)


def test_inv_mod():
    for p in (2, 3, 5, 7, 11):
        for a in range(1, p):
            assert (a * modp.inv_mod(a, p)) % p == 1


@settings(max_examples=300, deadline=None)
@given(matrices)
def test_rank_plus_nullity(mp):
    p, rows = mp
    A = np.array(rows, dtype=np.int64)
    r = modp.rank(A, p)
    ns = modp.nullspace(A, p)
    assert r + len(ns) == A.shape[1]
    for v in ns:
        assert not ((A @ np.array(v)) % p).any()


@settings(max_examples=300, deadline=None)
@given(matrices)
def test_rref_idempotent(mp):
    p, rows = mp
    A = np.array(rows, dtype=np.int64)
    R, pivots, r = modp.rref(A, p)
    R2, pivots2, r2 = modp.rref(R, p)
    assert np.array_equal(R % p, R2 % p)
    assert pivots == pivots2
    assert modp.rank(A, p) == len(pivots)


@settings(max_examples=200, deadline=None)
@given(matrices)
def test_solve_consistent_systems(mp):
    p, rows = mp
    A = np.array(rows, dtype=np.int64)
    x0 = np.arange(A.shape[1]) % p
    b = (A @ x0) % p
    x = modp.solve(A, b, p)
    assert x is not None
    assert np.array_equal((A @ np.array(x)) % p, b)


def test_solve_inconsistent():
    A = np.array([[1, 0], [1, 0]], dtype=np.int64)
    b = np.array([0, 1], dtype=np.int64)
    assert modp.solve(A, b, 2) is None


def test_matmul_matches_numpy():
    rng = np.random.default_rng(0)
    for p in (2, 3, 5):
        A = rng.integers(0, p, size=(4, 3))
        B = rng.integers(0, p, size=(3, 5))
        assert np.array_equal(modp.matmul(A, B, p), (A @ B) % p)


# -- the row-loop elimination, kept as the reference for the vectorised one ----------


def _reference_rref(A, p):
    R = np.array(A, dtype=np.int64) % p
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
        R[r] = (R[r] * modp.inv_mod(R[r, c], p)) % p
        for j in range(nrows):
            if j != r and R[j, c]:
                R[j] = (R[j] - R[j, c] * R[r]) % p
        pivots.append(c)
        r += 1
    return R, pivots, r


def _reference_nullspace(A, p):
    A = np.array(A, dtype=np.int64) % p
    ncols = A.shape[1]
    R, pivots, _ = _reference_rref(A, p)
    free = [c for c in range(ncols) if c not in pivots]
    basis = np.zeros((len(free), ncols), dtype=np.int64)
    for k, f in enumerate(free):
        basis[k, f] = 1
        for i, c in enumerate(pivots):
            basis[k, c] = (-R[i, f]) % p
    return basis


@st.composite
def shaped_matrices(draw):
    """Matrices over F2, F3, F5 and the primes on either side of the int16
    elimination threshold (181^2 < 2^15 < 191^2): empty, tall and wide, with
    low rank often (rows repeated as sums of earlier rows)."""
    p = draw(st.sampled_from([2, 3, 5, 181, 191]))
    nrows = draw(st.integers(0, 9))
    ncols = draw(st.integers(0, 9))
    A = np.array(
        draw(st.lists(st.integers(0, 4 * p), min_size=nrows * ncols,
                      max_size=nrows * ncols)),
        dtype=np.int64,
    ).reshape(nrows, ncols)
    for i in range(2, nrows):
        if draw(st.booleans()):
            A[i] = A[i - 1] + draw(st.integers(1, p - 1)) * A[i - 2]
    return p, A


@settings(max_examples=400, deadline=None)
@given(shaped_matrices())
def test_rref_matches_row_loop_reference(pa):
    p, A = pa
    R, pivots, r = modp.rref(A, p)
    R0, pivots0, r0 = _reference_rref(A, p)
    assert R.dtype == np.int64 and np.array_equal(R, R0)
    assert pivots == pivots0 and r == r0
    assert np.array_equal(modp.nullspace(A, p), _reference_nullspace(A, p))


def test_rref_matches_reference_on_fixed_shapes():
    # 0 x 0, no rows, no columns, tall and wide
    for p, A in [(2, np.zeros((0, 0), dtype=np.int64)),
                 (3, np.zeros((0, 4), dtype=np.int64)),
                 (5, np.zeros((4, 0), dtype=np.int64)),
                 (3, np.arange(24).reshape(8, 3)),
                 (5, np.arange(24).reshape(3, 8))]:
        R, pivots, r = modp.rref(A, p)
        R0, pivots0, r0 = _reference_rref(A, p)
        assert R.dtype == np.int64
        assert np.array_equal(R, R0) and pivots == pivots0 and r == r0


@pytest.mark.parametrize("p", [179, 181, 191, 193])
def test_rref_extreme_entries_near_int16_threshold(p):
    # entries p - 1 and p - 2 make every elimination product (p - 1)^2 or
    # close to it: 181 is the largest prime eliminated in int16, 191 the
    # smallest eliminated in int64
    rng = np.random.default_rng(p)
    A = rng.choice([p - 1, p - 2], size=(12, 15))
    A[6:] = (A[:6] * (p - 1) + A[6:]) % p
    R, pivots, r = modp.rref(A, p)
    R0, pivots0, r0 = _reference_rref(A, p)
    assert R.dtype == np.int64
    assert np.array_equal(R, R0) and pivots == pivots0 and r == r0


# -- input checks shared by every entry point -----------------------------------------


def test_rank_accepts_array_likes():
    assert modp.rank([[1, 0], [0, 1]], 3) == 2
    assert modp.rank([[1, 1], [2, 2]], 3) == 1


def test_nullspace_rejects_a_1d_input():
    with pytest.raises(ValueError, match="need a 2d array"):
        modp.nullspace([1, 0, 1], 2)


def test_solve_rejects_a_right_hand_side_of_another_length():
    with pytest.raises(ValueError, match=r"\(3,\).*\(2, 2\)"):
        modp.solve([[1, 0], [0, 1]], [1, 0, 1], 3)


# -- the F2 path on packed row bitsets against the row-loop references ---------------


def _reference_solve(A, b, p):
    A = np.array(A, dtype=np.int64) % p
    ncols = A.shape[1]
    R, pivots, _ = _reference_rref(np.column_stack([A, b]), p)
    if ncols in pivots:
        return None
    x = np.zeros(ncols, dtype=np.int64)
    for i, c in enumerate(pivots):
        x[c] = R[i, ncols]
    return x


@st.composite
def f2_matrices(draw):
    """F2 matrices with 0-70 rows and columns, across the 8- and 64-bit
    boundaries of a packed row: random rows, zero rows, an identity block and
    rows that repeat the sum of two earlier rows."""
    nrows = draw(st.integers(0, 70))
    ncols = draw(st.integers(0, 70))
    A = np.zeros((nrows, ncols), dtype=np.int64)
    for i in range(nrows):
        kind = draw(st.sampled_from(["random", "zero", "unit", "sum"]))
        if kind == "random":
            bits = draw(st.integers(0, (1 << ncols) - 1))
            A[i] = [(bits >> c) & 1 for c in range(ncols)]
        elif kind == "unit" and ncols:
            A[i, i % ncols] = 1
        elif kind == "sum" and i >= 2:
            j, k = draw(st.integers(0, i - 1)), draw(st.integers(0, i - 1))
            A[i] = (A[j] + A[k]) % 2
    return A


@settings(max_examples=200, deadline=None)
@given(f2_matrices(), st.data())
def test_f2_rref_nullspace_and_solve_match_references(A, data):
    R, pivots, r = modp.rref(A, 2)
    R0, pivots0, r0 = _reference_rref(A, 2)
    assert R.dtype == np.int64 and np.array_equal(R, R0)
    assert pivots == pivots0 and r == r0
    assert np.array_equal(modp.nullspace(A, 2), _reference_nullspace(A, 2))
    b = np.array(data.draw(st.lists(st.integers(0, 1), min_size=A.shape[0],
                                    max_size=A.shape[0])), dtype=np.int64)
    x, x0 = modp.solve(A, b, 2), _reference_solve(A, b, 2)
    assert (x is None) == (x0 is None)
    assert x is None or np.array_equal(x, x0)
