"""Bounded complexes of permutation modules with an exact homotopy oracle.

A permutation module is recorded by its G-set basis (an action table), so
equivariant maps between permutation modules have a canonical basis indexed
by G-orbits on the product of the two bases.  Null-homotopy questions then
become exact linear algebra over F_p in orbit coordinates, which is what
makes the oracle fast and exact.

Conventions (fixed once, everything downstream is checked against them):
  * differential d_n: C_n -> C_{n-1}; matrices act on column vectors.
  * shift: (C[s])_i = C_{i-s}, d^{C[s]} = (-1)^s d.
  * tensor: blocks of degree n ordered by ascending left degree i;
    d(x (x) y) = dx (x) y + (-1)^i x (x) dy for x of degree i.
  * dual: (C~)_m = (C_{-m})^*, d~_m = (-1)^(m+1) (d_{-m+1})^T, which makes
    the coevaluation 1 -> C (x) C~ a chain map.
  * a map f of shift s has components f_n: C_n -> D_{n-s} and satisfies
    (-1)^s d f = f d; it is null-homotopic when f = d h + (-1)^s h d.
"""

import functools

import numpy as np

from . import modp
from .groups import ResourceError, quotient, subgroup_as_group
from .modp import two_prime

# Entries of the largest dense matrix a tensor product may allocate (2^22
# int64 entries, 32 MiB).  The largest that the tests, demos and benchmark
# build has 384,912 (a 4-fold tensor of u's at p = 3); a 5-fold one would
# need 15.9M and a 6-fold one 637M (5 GB).
MAX_DENSE_ENTRIES = 1 << 22


class ComplexError(ValueError):
    pass


def _check_dense(shapes):
    """Refuse, before anything is allocated, a dense matrix over the cap."""
    for rows, cols in shapes:
        if rows * cols > MAX_DENSE_ENTRIES:
            raise ResourceError(
                f"a {rows} x {cols} dense matrix exceeds the cap of "
                f"{MAX_DENSE_ENTRIES} entries"
            )


class GSet:
    """A finite left G-set given by its action table act[g, x]."""

    def __init__(self, group, action):
        self.group = group
        self.action = np.array(action, dtype=np.int64)
        if self.action.ndim != 2 or self.action.shape[0] != group.order:
            raise ComplexError("action table must be |G| x n")
        assert np.array_equal(self.action[0], np.arange(self.size)), \
            "identity must act trivially"

    @property
    def size(self):
        return self.action.shape[1]

    def tensor(self, other):
        """Product G-set with diagonal action; index (x, y) -> x*|Y| + y."""
        return GSet(self.group, _product_action(self, other))

    def disjoint_union(self, other):
        act = np.concatenate([self.action, other.action + self.size], axis=1)
        return GSet(self.group, act)

    def orbit_label(self):
        """Each point's least orbit-mate; equal labels mark one G-orbit."""
        return self._label

    @functools.cached_property
    def _label(self):
        return self.action.min(axis=0)

    def orbit_order(self):
        """(points sorted by orbit, where each orbit starts in that order).

        Orbits come in the order of their least points, and each lists its
        points in ascending order."""
        label = self.orbit_label()
        order = np.argsort(label, kind="stable")
        _, starts = np.unique(label[order], return_index=True)
        return order, starts

    def orbits(self):
        """The G-orbits as ascending point arrays, ordered by least point."""
        if not self.size:
            return []
        order, starts = self.orbit_order()
        return np.split(order, starts[1:])

    def fixed_points(self, H):
        return [
            x
            for x in range(self.size)
            if all(self.action[h, x] == x for h in H.elements)
        ]


def _product_action(X, Y):
    """Action table of X x Y, the point (x, y) at index x*|Y| + y."""
    act = X.action[:, :, None] * Y.size + Y.action[:, None, :]
    return act.reshape(X.group.order, -1)


def _is_equivariant(m, src, tgt):
    """P_tgt(g) m = m P_src(g) for every g, compared entrywise in one step:
    m[g^{-1} y, x] = m[y, g x], with g^{-1} along the first axis."""
    G = src.group
    inv = [G.inv(g) for g in range(G.order)]
    return np.array_equal(m[:, src.action].transpose(1, 0, 2), m[tgt.action[inv]])


def trivial_gset(G, size=1):
    return GSet(G, np.tile(np.arange(size), (G.order, 1)))


def empty_gset(G):
    return GSet(G, np.zeros((G.order, 0), dtype=np.int64))


class PermComplex:
    """Bounded complex of permutation modules over F_p.

    With check=False the differentials must already be int64 arrays reduced
    mod p, as `shift`, `tensor`, `dual` and `cone` build them; they are kept
    as given, without a copy."""

    def __init__(self, group, p, gsets, diffs, check=True):
        self.group = group
        self.p = p
        self.gsets = {n: gs for n, gs in gsets.items() if gs.size > 0}
        self.diffs = {}
        for n, d in diffs.items():
            if check:
                d = np.array(d, dtype=np.int64) % p
            if d.size and d.any():
                self.diffs[n] = d
        if check:
            self._validate()

    def _validate(self):
        for n, d in self.diffs.items():
            if n not in self.gsets or (n - 1) not in self.gsets:
                raise ComplexError(f"differential at degree {n} without modules")
            if d.shape != (self.dim(n - 1), self.dim(n)):
                raise ComplexError(f"differential shape mismatch at degree {n}")
            # equivariance: P_{n-1}(g) d = d P_n(g)
            if not _is_equivariant(d, self.gsets[n], self.gsets[n - 1]):
                raise ComplexError(f"differential not equivariant at {n}")
            dd = self.diffs.get(n + 1)
            if dd is not None and (modp.matmul(d, dd, self.p)).any():
                raise ComplexError(f"d^2 != 0 at degree {n + 1}")

    def degrees(self):
        return sorted(self.gsets)

    def dim(self, n):
        gs = self.gsets.get(n)
        return gs.size if gs else 0

    def diff(self, n):
        d = self.diffs.get(n)
        if d is not None:
            return d
        return np.zeros((self.dim(n - 1), self.dim(n)), dtype=np.int64)

    def action(self, n):
        gs = self.gsets.get(n)
        return gs if gs else empty_gset(self.group)

    def shift(self, s):
        gsets = {n + s: gs for n, gs in self.gsets.items()}
        sign = 1 if s % 2 == 0 else self.p - 1
        diffs = {n + s: (d * sign) % self.p for n, d in self.diffs.items()}
        return PermComplex(self.group, self.p, gsets, diffs, check=False)

    def tensor(self, other):
        assert self.group is other.group or self.group == other.group
        blocks, size = _tensor_blocks(self, other)
        gsets = {
            n: GSet(self.group, np.concatenate([
                _product_action(self.gsets[i], other.gsets[j]) + off
                for (i, j), (off, _) in bl.items()
            ], axis=1))
            for n, bl in blocks.items()
        }
        diffs = {}
        for n in blocks:
            if (n - 1) not in blocks:
                continue
            rows, cols, vals = _tensor_entries(self, other, n)
            if len(rows):
                D = np.zeros((size[n - 1], size[n]), dtype=np.int64)
                D[rows, cols] = vals
                diffs[n] = D
        return PermComplex(self.group, self.p, gsets, diffs, check=False)

    def dual(self):
        p = self.p
        gsets = {-n: gs for n, gs in self.gsets.items()}
        diffs = {}
        for m in list(gsets):
            d = self.diffs.get(-m + 1)
            if d is None:
                continue
            sign = 1 if (m + 1) % 2 == 0 else p - 1
            diffs[m] = (sign * d.T) % p
        return PermComplex(self.group, p, gsets, diffs, check=False)

    def total_dim(self):
        return sum(self.dim(n) for n in self.degrees())

    def __repr__(self):
        ds = ", ".join(f"{n}:{self.dim(n)}" for n in self.degrees())
        return f"PermComplex(|G|={self.group.order}, p={self.p}, dims {{{ds}}})"


def unit_complex(G, p):
    return PermComplex(G, p, {0: trivial_gset(G)}, {}, check=False)


class EquivariantChainMap:
    """Map of shift s: components f_n: C_n -> D_{n-s} with (-1)^s d f = f d."""

    def __init__(self, source, target, shift, components, check=True):
        self.source = source
        self.target = target
        self.shift = shift
        self.components = {}
        for n, m in components.items():
            m = np.array(m, dtype=np.int64) % source.p
            if m.size and m.any():
                self.components[n] = m
        if check:
            self._validate()

    def _validate(self):
        p = self.source.p
        s = self.shift
        for n, m in self.components.items():
            if m.shape != (self.target.dim(n - s), self.source.dim(n)):
                raise ComplexError(f"component shape mismatch at degree {n}")
            if not _is_equivariant(m, self.source.gsets[n], self.target.gsets[n - s]):
                raise ComplexError(f"component not equivariant at {n}")
        sign = 1 if s % 2 == 0 else p - 1
        for n in self.source.degrees():
            lhs = (sign * modp.matmul(
                self.target.diff(n - s), self.comp(n), p)) % p
            rhs = modp.matmul(self.comp(n - 1), self.source.diff(n), p)
            if not np.array_equal(lhs, rhs):
                raise ComplexError(f"chain condition fails at degree {n}")

    def comp(self, n):
        m = self.components.get(n)
        if m is not None:
            return m
        return np.zeros(
            (self.target.dim(n - self.shift), self.source.dim(n)), dtype=np.int64
        )

    def add(self, other):
        assert self.shift == other.shift
        assert all(
            self.target.dim(n) == other.target.dim(n)
            for n in set(self.target.degrees()) | set(other.target.degrees())
        )
        comps = {}
        for n in set(self.components) | set(other.components):
            comps[n] = (self.comp(n) + other.comp(n)) % self.source.p
        return EquivariantChainMap(
            self.source, self.target, self.shift, comps, check=False
        )

    def scale(self, c):
        comps = {n: (m * c) % self.source.p for n, m in self.components.items()}
        return EquivariantChainMap(
            self.source, self.target, self.shift, comps, check=False
        )

    def tensor(self, other):
        """Koszul-signed tensor of maps; valid when other.shift is even or p=2."""
        p = self.source.p
        if p != 2 and other.shift % 2:
            raise ComplexError("odd-shift right tensor factor in odd characteristic")
        src = self.source.tensor(other.source)
        tgt = self.target.tensor(other.target)
        s = self.shift + other.shift
        _check_dense((tgt.dim(n - s), src.dim(n)) for n in src.degrees())
        comps = {}
        for n in src.degrees():
            M = np.zeros((tgt.dim(n - s), src.dim(n)), dtype=np.int64)
            src_off = _block_offsets(self.source, other.source, n)
            tgt_off = _block_offsets(self.target, other.target, n - s)
            for (i, j), (c0, _) in src_off.items():
                key = (i - self.shift, j - other.shift)
                if key not in tgt_off:
                    continue
                r0, _ = tgt_off[key]
                fi, gj = self.comp(i), other.comp(j)
                if not fi.size or not gj.size:
                    continue
                blk = np.kron(fi, gj) % p
                M[r0:r0 + blk.shape[0], c0:c0 + blk.shape[1]] = blk
            if M.any():
                comps[n] = M
        return EquivariantChainMap(src, tgt, s, comps, check=False)


def _block_offsets(C, D, n):
    """(i, j) -> (offset, size) of blocks of (C tensor D) in degree n."""
    out = {}
    pos = 0
    for i in C.degrees():
        j = n - i
        if j in D.gsets:
            size = C.dim(i) * D.dim(j)
            out[(i, j)] = (pos, size)
            pos += size
    return out


def _tensor_blocks(C, D):
    """({n: _block_offsets(C, D, n)}, {n: dim of (C tensor D)_n}) over the
    degrees of C tensor D, refusing first any differential over the dense cap."""
    degs = sorted({i + j for i in C.degrees() for j in D.degrees()})
    blocks = {n: _block_offsets(C, D, n) for n in degs}
    size = {n: sum(sz for _, sz in bl.values()) for n, bl in blocks.items()}
    _check_dense((size[n - 1], size[n]) for n in degs if n - 1 in size)
    return blocks, size


def _tensor_entries(C, D, n):
    """(rows, cols, values) of the nonzero entries of the differential
    d (x) 1 + (-1)^i 1 (x) d of C tensor D in degree n, each position once.

    The block (i, j) spans columns col + x*dj + y for x < ci and y < dj;
    d (x) 1 and 1 (x) d land in different row blocks."""
    p = C.p
    below = _block_offsets(C, D, n - 1)
    rows, cols, vals = [], [], []
    for (i, j), (col, _) in _block_offsets(C, D, n).items():
        ci, dj = C.dim(i), D.dim(j)
        d = C.diffs.get(i)
        if d is not None and (i - 1, j) in below:
            row = below[i - 1, j][0]
            a, b = np.nonzero(d)
            y = np.arange(dj)
            rows.append((row + a[:, None] * dj + y).ravel())
            cols.append((col + b[:, None] * dj + y).ravel())
            vals.append(np.repeat(d[a, b], dj))
        d = D.diffs.get(j)
        if d is not None and (i, j - 1) in below:
            row = below[i, j - 1][0]
            sign = 1 if i % 2 == 0 else p - 1
            a, b = np.nonzero(d)
            x = np.arange(ci)[:, None]
            rows.append((row + x * D.dim(j - 1) + a).ravel())
            cols.append((col + x * dj + b).ravel())
            vals.append(np.tile((sign * d[a, b]) % p, ci))
    if not rows:
        return (np.zeros(0, dtype=np.int64),) * 3
    return tuple(np.concatenate(parts) for parts in (rows, cols, vals))


def identity_map(C):
    comps = {n: np.eye(C.dim(n), dtype=np.int64) for n in C.degrees()}
    return EquivariantChainMap(C, C, 0, comps, check=False)


def cone(f):
    """Mapping cone of a shift-0 map: cone_n = C_{n-1} + D_n, d(c,x)=(-dc, dx+fc)."""
    if f.shift != 0:
        raise ComplexError("cone needs a shift-0 map")
    C, D, p = f.source, f.target, f.source.p
    gsets, diffs = {}, {}
    degs = sorted(
        set(n + 1 for n in C.degrees()) | set(D.degrees())
    )
    for n in degs:
        top = C.action(n - 1)
        bot = D.action(n)
        gsets[n] = top.disjoint_union(bot) if top.size else bot
        if bot.size == 0:
            gsets[n] = top
    for n in degs:
        if (n - 1) not in gsets:
            continue
        rows = C.dim(n - 2) + D.dim(n - 1)
        cols = C.dim(n - 1) + D.dim(n)
        M = np.zeros((rows, cols), dtype=np.int64)
        M[: C.dim(n - 2), : C.dim(n - 1)] = (-C.diff(n - 1)) % p
        M[C.dim(n - 2):, : C.dim(n - 1)] = f.comp(n - 1)
        M[C.dim(n - 2):, C.dim(n - 1):] = D.diff(n)
        if M.any():
            diffs[n] = M
    return PermComplex(C.group, p, gsets, diffs, check=False)


def coevaluation(C):
    """The unit map 1 -> C (x) C~ picking out sum_m sum_x  x (x) x*."""
    T = C.tensor(C.dual())
    vec = np.zeros(T.dim(0), dtype=np.int64)
    off = _block_offsets(C, C.dual(), 0)
    for (i, j), (pos, size) in off.items():
        d = C.dim(i)
        assert size == d * d
        for x in range(d):
            vec[pos + x * d + x] = 1
    return EquivariantChainMap(
        unit_complex(C.group, C.p), T, 0, {0: vec.reshape(-1, 1)}
    )


# -- the invertible complexes u_pi and their canonical maps -------------------------


def build_u(G, p, pi):
    """The invertible complex u_pi for a surjection pi: G -> Z/p.

    pi is an array of length |G| with pi[gh] = pi[g] + pi[h] mod p and some
    nonzero value.  Basis of k(G/N) in each degree is indexed by the value of
    pi on the coset, so the canonical generator sigma acts as the +1 shift.
    For p = 2 the complex is k(G/N) -> k in degrees 1, 0 with the augmentation;
    for odd p it is k(G/N) -> k(G/N) -> k in degrees 2, 1, 0 with sigma - 1
    in the middle.
    """
    pi = np.asarray(pi, dtype=np.int64) % p
    if pi[0] != 0 or not pi.any():
        raise ComplexError("pi must be a nonzero homomorphism to Z/p")
    on_G = pi[:G.order, None]
    if not np.array_equal(pi[G.table], (on_G + on_G.T) % p):
        raise ComplexError("pi is not a homomorphism")
    X = GSet(G, (on_G + np.arange(p)) % p)
    aug = np.ones((1, p), dtype=np.int64)
    if p == 2:
        return PermComplex(G, p, {1: X, 0: trivial_gset(G)}, {1: aug})
    tau = np.zeros((p, p), dtype=np.int64)
    for i in range(p):
        tau[(i + 1) % p, i] = 1
        tau[i, i] = (tau[i, i] - 1) % p
    return PermComplex(
        G, p, {2: X, 1: X, 0: trivial_gset(G)}, {2: tau, 1: aug}
    )


def map_a(u):
    """a: 1 -> u, the identity in degree 0."""
    one = unit_complex(u.group, u.p)
    return EquivariantChainMap(one, u, 0, {0: np.ones((1, 1), dtype=np.int64)})


def map_b(u):
    """b: 1 -> u[-2'], the orbit sum of the top permutation module."""
    p = u.p
    d = two_prime(p)
    one = unit_complex(u.group, u.p)
    eta = np.ones((u.dim(d), 1), dtype=np.int64)
    return EquivariantChainMap(one, u.shift(-d), 0, {0: eta})


def map_c(u):
    """c: 1 -> u[-1] for odd p, the orbit sum in the middle degree."""
    p = u.p
    if p == 2:
        raise ComplexError("c exists only in odd characteristic")
    one = unit_complex(u.group, u.p)
    eta = np.ones((u.dim(1), 1), dtype=np.int64)
    return EquivariantChainMap(one, u.shift(-1), 0, {0: eta})


# -- homotopy oracle -----------------------------------------------------------------


def is_null_homotopic(f):
    """Decide f = d h + (-1)^s h d; returns (bool, witness or None).

    The witness maps degree n to the matrix of h_n: C_n -> D_{n-s+1}, with an
    equivariant orbit-coefficient ansatz solved exactly over F_p.  Both sides
    of the equation in degree n are constant on the G-orbits of (target,
    source) basis pairs, so one equation per orbit decides it; f's components
    are first checked to be constant there (ComplexError otherwise).
    """
    C, D, p, s = f.source, f.target, f.source.p, f.shift
    sign = 1 if s % 2 == 0 else p - 1
    # one unknown per orbit of pairs (x, y) in C_n x D_{n-s+1}, numbered by
    # degree and then by least point; unknown[n][x*|D_{n-s+1}| + y] is the
    # unknown whose orbit holds (x, y)
    unknown, count = {}, 0
    for n in C.degrees():
        if C.dim(n) and D.dim(n - s + 1):
            label = C.gsets[n].tensor(D.gsets[n - s + 1]).orbit_label()
            reps, index = np.unique(label, return_inverse=True)
            unknown[n] = index + count
            count += len(reps)
    rows = []
    rhs = []
    for n in C.degrees():
        if not (D.dim(n - s) and C.dim(n)):
            continue
        # index (y, x) of the pair G-set is y*|C_n| + x, the flat matrix index
        label = D.gsets[n - s].tensor(C.gsets[n]).orbit_label()
        fn = f.comp(n).reshape(-1)
        if not np.array_equal(fn, fn[label]):
            raise ComplexError(f"component not equivariant at {n}")
        reps = np.unique(label)
        y, x = np.divmod(reps, C.dim(n))
        coeff = np.zeros((len(reps), count), dtype=np.int64)
        d = D.diffs.get(n - s + 1)
        if n in unknown and d is not None:
            # (d h_n)[y, x] sums d[y, y'] over the pairs (x, y') of an orbit
            d = d[y]
            e, y1 = np.nonzero(d)
            cols = unknown[n][x[e] * D.dim(n - s + 1) + y1]
            np.add.at(coeff, (e, cols), d[e, y1])
        d = C.diffs.get(n)
        if n - 1 in unknown and d is not None:
            # (h_{n-1} d)[y, x] sums d[x', x] over the pairs (x', y)
            d = d[:, x]
            x1, e = np.nonzero(d)
            cols = unknown[n - 1][x1 * D.dim(n - s) + y[e]]
            np.add.at(coeff, (e, cols), sign * d[x1, e])
        rows.append(coeff % p)
        rhs.append(fn[reps])
    if not rows:
        return True, {}
    A = np.concatenate(rows, axis=0)
    b = np.concatenate(rhs)
    sol = modp.solve(A, b, p)
    if sol is None:
        return False, None
    witness = {}
    for n, index in unknown.items():
        h = sol[index]
        if h.any():
            witness[n] = h.reshape(C.dim(n), -1).T
    return True, witness


def verify_homotopy(f, witness):
    """Check f = d h + (-1)^s h d exactly for a proposed witness."""
    C, D, p, s = f.source, f.target, f.source.p, f.shift
    sign = 1 if s % 2 == 0 else p - 1

    def h(n):
        m = witness.get(n)
        if m is None:
            return np.zeros((D.dim(n - s + 1), C.dim(n)), dtype=np.int64)
        return np.asarray(m, dtype=np.int64) % p

    for n in C.degrees():
        got = (
            modp.matmul(D.diff(n - s + 1), h(n), p)
            + sign * modp.matmul(h(n - 1), C.diff(n), p)
        ) % p
        if not np.array_equal(got, f.comp(n) % p):
            return False
    return True


def is_contractible(C):
    ok, _ = is_null_homotopic(identity_map(C))
    return ok


def hom_dim(G, p, coords, s):
    """dim Hom_{K(G)}(1, u_{pi_1} (x) ... (x) u_{pi_k} [s]).

    coords is a list of pi arrays (repetitions allowed, empty for the unit).
    Maps from the unit are exactly invariant vectors, so this is the homology
    of the invariant subcomplex T^G of the tensor product T in degree -s.
    The orbit sums are a basis of T^G, and an invariant vector is fixed by
    its values at the orbit representatives, so d on T^G has one row per
    orbit of T_{n-1} and one column per orbit of T_n (the sum of d's columns
    over it).  The orbit count and the rank in every degree are computed
    once per group, p and multiset of twists, which the tensor product
    depends on only up to isomorphism, and serve every shift s; twists
    sharing a sorted prefix share its tensor product.  The product of the
    whole twist is never made dense, but `MAX_DENSE_ENTRIES` still refuses
    the shapes its dense differentials would have.
    """
    pis = tuple(sorted(tuple(int(v) % p for v in pi) for pi in coords))
    orbits, ranks = _invariant_profile(G, p, pis)
    n = -s
    return orbits.get(n, 0) - ranks.get(n, 0) - ranks.get(n + 1, 0)


@functools.cache
def _invariant_profile(G, p, pis):
    """({n: orbit count of T_n}, {n: rank of d_n on T^G}) for T = (x) u_pi.

    T = C (x) D, with C the memoised dense product over the proper prefix
    pis[:-1] and D the last u.  T itself is never made dense: each point's
    orbit label (its least orbit-mate) comes from the product action of its
    block, orbits are numbered in the order of their least points, and d's
    orbit matrix adds up only the entries of `_tensor_entries` whose row is
    an orbit representative.  `_check_dense` still refuses every shape that
    `C.tensor(D)` would refuse."""
    C = D = unit_complex(G, p)
    if pis:
        C, D = _tensor_prefix(G, p, pis[:-1]), _u_pi(G, p, pis[-1])
    blocks, _ = _tensor_blocks(C, D)
    label, orbit = {}, {}
    for n, bl in blocks.items():
        label[n] = np.concatenate([
            _product_action(C.gsets[i], D.gsets[j]).min(axis=0) + off
            for (i, j), (off, _) in bl.items()
        ])
        # orbit[x] numbers the orbit of a representative x (label[x] == x)
        orbit[n] = np.cumsum(label[n] == np.arange(label[n].size)) - 1
    orbits = {n: int(o[-1]) + 1 for n, o in orbit.items()}
    ranks = {}
    for n in blocks:
        if n - 1 not in blocks:
            continue
        rows, cols, vals = _tensor_entries(C, D, n)
        if not rows.size:
            continue
        keep = label[n - 1][rows] == rows
        sums = np.zeros((orbits[n - 1], orbits[n]), dtype=np.int64)
        np.add.at(sums, (orbit[n - 1][rows[keep]],
                         orbit[n][label[n][cols[keep]]]), vals[keep])
        ranks[n] = modp.rank(sums, p)
    return orbits, ranks


@functools.cache
def _tensor_prefix(G, p, pis):
    """unit (x) u_pi for pi in the sorted tuple pis, built on its own prefix."""
    if not pis:
        return unit_complex(G, p)
    return _tensor_prefix(G, p, pis[:-1]).tensor(_u_pi(G, p, pis[-1]))


@functools.cache
def _u_pi(G, p, pi):
    return build_u(G, p, pi)


# -- functors: fixed points, restriction, inflation ----------------------------------


def psi_complex(C, H):
    """Geometric H-fixed points: keep the H-fixed basis, act through G/H."""
    G = C.group
    N = G.subgroup(list(H.elements))
    Q, proj = quotient(G, N)
    gsets, diffs, keep = {}, {}, {}
    for n, gs in C.gsets.items():
        fixed = gs.fixed_points(N)
        keep[n] = fixed
        if not fixed:
            continue
        act = np.zeros((Q.order, len(fixed)), dtype=np.int64)
        reindex = {x: i for i, x in enumerate(fixed)}
        for q, g in enumerate(proj.reps):
            act[q] = [reindex[int(gs.action[g, x])] for x in fixed]
        gsets[n] = GSet(Q, act)
    for n, d in C.diffs.items():
        rows, cols = keep.get(n - 1, []), keep.get(n, [])
        if rows and cols:
            diffs[n] = d[np.ix_(rows, cols)]
    return PermComplex(Q, C.p, gsets, diffs), keep


def psi_map(f, H):
    """Fixed points of a chain map: the submatrix on fixed basis elements."""
    src, keep_s = psi_complex(f.source, H)
    tgt, keep_t = psi_complex(f.target, H)
    comps = {}
    for n, m in f.components.items():
        rows = keep_t.get(n - f.shift, [])
        cols = keep_s.get(n, [])
        if rows and cols:
            comps[n] = m[np.ix_(rows, cols)]
    return EquivariantChainMap(src, tgt, f.shift, comps)


def res_complex(C, H):
    """Restrict the action to a subgroup (returned over its abstract group)."""
    Hgrp, embed = subgroup_as_group(H)
    gsets = {
        n: GSet(Hgrp, gs.action[np.asarray(embed)]) for n, gs in C.gsets.items()
    }
    return PermComplex(Hgrp, C.p, gsets, dict(C.diffs)), Hgrp


def res_map(f, H):
    src, _ = res_complex(f.source, H)
    tgt, _ = res_complex(f.target, H)
    return EquivariantChainMap(src, tgt, f.shift, dict(f.components))


# -- the master relation and its explicit witness ------------------------------------


def master_relation_map(u1, u2, u3, lam3=1):
    """a1 b2 b3 + b1 a2 b3 + lam3 b1 b2 a3 as one map 1 -> u1 (x) u2[-2'] (x) u3[-2'].

    The shifts involved are even (or p = 2), so every term targets this one
    complex T: a term's degree-0 vector is the Kronecker product of its
    factors' vectors, placed at the block of the u-degrees they live in.  The
    vector of a (`map_a`) is all ones in u-degree 0 and that of b (`map_b`)
    all ones in u-degree 2', so each term adds its scalar on its whole block.
    """
    p, d = u1.p, two_prime(u1.p)
    s2, s3 = u2.shift(-d), u3.shift(-d)
    left = u1.tensor(s2)
    T = left.tensor(s3)
    outer = _block_offsets(left, s3, 0)
    vec = np.zeros(T.dim(0), dtype=np.int64)
    for scalar, (e1, e2, e3) in ((1, (0, d, d)), (1, (d, 0, d)), (lam3, (d, d, 0))):
        inner = _block_offsets(u1, s2, e1 + e2 - d)[e1, e2 - d][0]
        start = outer[e1 + e2 - d, e3 - d][0] + inner * u3.dim(e3)
        vec[start:start + u1.dim(e1) * u2.dim(e2) * u3.dim(e3)] += scalar
    return EquivariantChainMap(
        unit_complex(u1.group, p), T, 0, {0: (vec % p).reshape(-1, 1)}
    )


def master_relation_witness(f):
    """Explicit null-homotopy supported on the diagonal-sum blocks.

    For p = 2 the witness lives in the (1,1,1) block of degree 3; for odd p in
    the degree-5 blocks (2,2,1), (2,1,2), (1,2,2).  The coefficients are
    solved from the small invariant system restricted to those blocks.
    """
    T = f.target
    p = f.source.p
    d = two_prime(p)
    # blocks are indexed by u-degrees; tensor degrees are shifted by -2' twice
    want = {(1, 1, 1)} if p == 2 else {(2, 2, 1), (2, 1, 2), (1, 2, 2)}
    n = 2 * d + 1 - 2 * d  # degree of h in the shifted tensor complex
    gs = T.gsets[n]
    # recover block structure of degree n = 1 from the left-factor dims (p each)
    size = gs.size
    assert size % (p ** 3) == 0 and size // (p ** 3) == len(want)
    vectors = []
    blocks = sorted(want)  # (1,2,2) < (2,1,2) < (2,2,1): ascending u1-degree
    for bi, _blk in enumerate(blocks):
        base = bi * p ** 3
        sub = GSet(gs.group, gs.action[:, base:base + p ** 3] - base)
        for orb in sub.orbits():
            v = np.zeros(size, dtype=np.int64)
            v[base + orb] = 1
            vectors.append(v)
    V = np.array(vectors, dtype=np.int64).T  # columns are candidate h vectors
    A = modp.matmul(T.diff(n), V, p)
    x = modp.solve(A, f.comp(0).reshape(-1), p)
    if x is None:
        return None
    h0 = (V @ x % p).reshape(-1, 1)
    return {0: h0}
