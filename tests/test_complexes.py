import functools
import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from permspec import complexes, modp
from permspec.groups import (
    FiniteGroup,
    ResourceError,
    cyclic,
    elementary_abelian,
    quotient,
)
from permspec.complexes import (
    ComplexError,
    EquivariantChainMap,
    GSet,
    PermComplex,
    build_u,
    coevaluation,
    cone,
    hom_dim,
    identity_map,
    is_contractible,
    is_null_homotopic,
    map_a,
    map_b,
    map_c,
    master_relation_map,
    master_relation_witness,
    two_prime,
    unit_complex,
    verify_homotopy,
)
from permspec.twisted import EAStructure, coordinates, dependent_triples
from permspec.verify import verify_hilbert


def _pi(ea, coord):
    return [ea.functional_on(coord.f, x) for x in range(ea.group.order)]


def _all_units(E, p):
    ea = EAStructure(E, p)
    return [(c, build_u(E, p, _pi(ea, c))) for c in coordinates(ea)]


def test_build_u_shape():
    for p in (2, 3, 5):
        E = cyclic(p)
        (c, u) = _all_units(E, p)[0]
        d = two_prime(p)
        assert sorted(u.diffs) == list(range(1, d + 1))
        assert u.dim(0) == 1 and u.dim(d) == p
        # d^2 = 0 and equivariance are enforced on construction
        assert u.total_dim() == 1 + d * p


def test_build_u_rejects_bad_pi():
    E = cyclic(4)
    with pytest.raises(ComplexError):
        build_u(E, 2, [0, 1, 1, 0])  # not a homomorphism
    with pytest.raises(ComplexError):
        build_u(E, 2, [0, 0, 0, 0])  # zero map


def _reference_is_hom(G, p, pi):
    """The pairwise loop: pi(gh) = pi(g) + pi(h) mod p for all g, h."""
    return all(
        pi[G.mul(g, h)] % p == (pi[g] + pi[h]) % p
        for g in range(G.order) for h in range(G.order)
    )


@pytest.mark.parametrize("G, p", [(cyclic(4), 2), (elementary_abelian(2, 2), 2),
                                  (cyclic(6), 3), (cyclic(6), 2)])
def test_build_u_accepts_exactly_the_nonzero_homomorphisms(G, p):
    # every map G -> Z/p: the table comparison accepts what the pairwise
    # loop accepts, and the coset action is pi(g) + x
    for pi in itertools.product(range(p), repeat=G.order):
        if pi[0] == 0 and any(pi) and _reference_is_hom(G, p, pi):
            u = build_u(G, p, pi)
            top = u.gsets[two_prime(p)].action
            assert np.array_equal(top, (np.add.outer(pi, range(p))) % p)
        else:
            with pytest.raises(ComplexError):
                build_u(G, p, pi)
    with pytest.raises(IndexError):  # too short to be a function on G
        build_u(G, p, [0] + [1] * (G.order - 2))


def test_units_invertible():
    for p in (2, 3):
        for c, u in _all_units(elementary_abelian(p, 2), p):
            assert is_contractible(cone(coevaluation(u)))
            assert not is_contractible(u)


def test_tensor_dual_dims():
    E, p = elementary_abelian(2, 2), 2
    (_, u), (_, v) = _all_units(E, p)[:2]
    t = u.tensor(v)
    assert t.total_dim() == u.total_dim() * v.total_dim()
    assert u.dual().total_dim() == u.total_dim()
    assert u.shift(3).dim(3) == u.dim(0)


def test_cone_of_identity_contractible():
    E, p = elementary_abelian(2, 2), 2
    _, u = _all_units(E, p)[0]
    assert is_contractible(cone(identity_map(u)))
    assert is_contractible(cone(identity_map(unit_complex(E, p))))


def test_a_b_c_not_null():
    for p in (2, 3):
        E = cyclic(p)
        _, u = _all_units(E, p)[0]
        assert not is_null_homotopic(map_a(u))[0]
        assert not is_null_homotopic(map_b(u))[0]
        if p > 2:
            assert not is_null_homotopic(map_c(u))[0]
        else:
            with pytest.raises(ComplexError):
                map_c(u)


def test_cone_a_tensor_cone_b_contractible():
    for p in (2, 3):
        _, u = _all_units(cyclic(p), p)[0]
        assert is_contractible(cone(map_a(u)).tensor(cone(map_b(u))))


def _verify_units_complexes():
    """The complexes `verify units` builds, with a shift and a dual of each
    cone, and the cone of each unit's identity (whose source has a nonzero
    differential, unlike the unit complex 1)."""
    out = []
    for E, p in ((cyclic(2), 2), (cyclic(3), 3), (elementary_abelian(2, 2), 2),
                 (elementary_abelian(3, 2), 3)):
        for _, u in _all_units(E, p):
            C = cone(coevaluation(u))
            out += [C, C.shift(1), C.dual(), cone(identity_map(u))]
    for p in (2, 3):
        _, u = _all_units(cyclic(p), p)[0]
        out.append(cone(map_a(u)).tensor(cone(map_b(u))))
    return out


def test_unchecked_complexes_keep_reduced_differentials():
    """An unchecked complex keeps its differentials uncopied, so the paths
    that build one must hand over int64 arrays reduced mod p: each equals
    its own reduction and the differential of a checked (copying, reducing,
    validating) rebuild."""
    for C in _verify_units_complexes():
        assert C.diffs
        for n, d in C.diffs.items():
            assert d.dtype == np.int64
            assert np.array_equal(d, d % C.p)
        same = PermComplex(C.group, C.p, C.gsets, C.diffs, check=False)
        assert all(same.diffs[n] is d for n, d in C.diffs.items())
        rebuilt = PermComplex(C.group, C.p, C.gsets, C.diffs)
        assert rebuilt.diffs.keys() == C.diffs.keys()
        for n, d in C.diffs.items():
            assert rebuilt.diffs[n] is not d
            assert np.array_equal(rebuilt.diffs[n], d)


def test_master_relation():
    E, p = elementary_abelian(2, 2), 2
    ea = EAStructure(E, p)
    us = [build_u(E, p, _pi(ea, c)) for c in coordinates(ea)]
    f = master_relation_map(*us, lam3=1)
    null, _ = is_null_homotopic(f)
    assert null
    w = master_relation_witness(f)
    assert w is not None and verify_homotopy(f, w)


def _reference_master_relation_map(u1, u2, u3, lam3=1):
    """The three-term sum: each term builds its own tensor target."""
    def term(m1, m2, m3):
        return m1(u1).tensor(m2(u2)).tensor(m3(u3))

    t1 = term(map_a, map_b, map_b)
    t2 = term(map_b, map_a, map_b)
    t3 = term(map_b, map_b, map_a).scale(lam3)
    for other in (t2, t3):
        assert t1.target.gsets.keys() == other.target.gsets.keys()
        for n, gs in t1.target.gsets.items():
            assert np.array_equal(gs.action, other.target.gsets[n].action)
        assert t1.target.diffs.keys() == other.target.diffs.keys()
        for n, d in t1.target.diffs.items():
            assert np.array_equal(d, other.target.diffs[n])
    return t1.add(t2).add(t3)


def test_master_relation_map_matches_the_three_term_reference():
    cases = 0
    for E, p in ((elementary_abelian(2, 2), 2), (elementary_abelian(3, 2), 3)):
        ea = EAStructure(E, p)
        for c1, c2, c3, lam3 in dependent_triples(ea):
            us = [build_u(E, p, _pi(ea, c)) for c in (c1, c2, c3)]
            for lam in {lam3, (lam3 % (p - 1)) + 1}:
                got = master_relation_map(*us, lam3=lam)
                ref = _reference_master_relation_map(*us, lam3=lam)
                assert got.shift == ref.shift == 0
                assert got.source.gsets.keys() == ref.source.gsets.keys() == {0}
                T, R = got.target, ref.target
                assert T.gsets.keys() == R.gsets.keys()
                for n, gs in T.gsets.items():
                    assert np.array_equal(gs.action, R.gsets[n].action)
                assert T.diffs.keys() == R.diffs.keys()
                for n, d in T.diffs.items():
                    assert np.array_equal(d, R.diffs[n])
                assert got.components.keys() == ref.components.keys()
                for n, m in got.components.items():
                    assert np.array_equal(m, ref.components[n])
                assert is_null_homotopic(got)[0] == (lam == lam3)
                cases += 1
    # Klein: one triple at its only scalar; C3xC3: four triples, two scalars
    assert cases == 1 + 4 * 2


def test_master_relation_wrong_scalar_rejected():
    E, p = elementary_abelian(3, 2), 3
    ea = EAStructure(E, p)
    coords = coordinates(ea)
    by_label = {c.label: c for c in coords}
    # pi_01 * pi_10 * (pi_11)^2 = 1, so lam3 = 2 for the triple (01, 10, 11)
    us = [build_u(E, p, _pi(ea, by_label[l])) for l in ("01", "10", "11")]
    assert is_null_homotopic(master_relation_map(*us, lam3=2))[0]
    assert not is_null_homotopic(master_relation_map(*us, lam3=1))[0]


def test_hom_dim_unit():
    # endomorphisms of the unit: k in degree 0, nothing elsewhere
    for p in (2, 3):
        G = elementary_abelian(p, 2)
        assert hom_dim(G, p, [], 0) == 1
        for s in (-2, -1, 1, 2):
            assert hom_dim(G, p, [], s) == 0


def test_hom_dim_single_twist_c2():
    E, p = cyclic(2), 2
    ea = EAStructure(E, p)
    (c,) = coordinates(ea)
    pi = _pi(ea, c)
    # Hom(1, u[s]): spanned by a (s=0) and b (s=-1)
    assert hom_dim(E, p, [pi], 0) == 1
    assert hom_dim(E, p, [pi], -1) == 1
    assert hom_dim(E, p, [pi], 1) == 0
    assert hom_dim(E, p, [pi], -2) == 0
    # u^2: a^2, ab, b^2
    assert [hom_dim(E, p, [pi, pi], s) for s in (0, -1, -2, -3)] == [1, 1, 1, 0]


def test_hom_dim_odd_p():
    E, p = cyclic(3), 3
    ea = EAStructure(E, p)
    (c,) = coordinates(ea)
    pi = _pi(ea, c)
    # a in shift 0, c in shift -1, b in shift -2
    assert [hom_dim(E, p, [pi], s) for s in (0, -1, -2, -3)] == [1, 1, 1, 0]


def test_hom_dim_klein_mixed():
    E, p = elementary_abelian(2, 2), 2
    ea = EAStructure(E, p)
    c1, c2, c3 = coordinates(ea)
    pis = [_pi(ea, c1), _pi(ea, c2)]
    # b1*b2 spans shift -2; a1*a2 spans shift 0; a1*b2, b1*a2 span shift -1
    assert hom_dim(E, p, pis, 0) == 1
    assert hom_dim(E, p, pis, -1) == 2
    assert hom_dim(E, p, pis, -2) == 1
    assert hom_dim(E, p, pis, -3) == 0


# -- the dense oracle, kept as the reference for orbit coordinates -------------------


def _reference_orbits(gs):
    seen = np.zeros(gs.size, dtype=bool)
    out = []
    for x in range(gs.size):
        if seen[x]:
            continue
        orb = np.unique(gs.action[:, x])
        seen[orb] = True
        out.append(orb)
    return out


def _reference_invariant_vectors(C, n):
    gs = C.gsets.get(n)
    if gs is None:
        return np.zeros((0, 0), dtype=np.int64)
    rows = []
    for orb in _reference_orbits(gs):
        v = np.zeros(gs.size, dtype=np.int64)
        v[orb] = 1
        rows.append(v)
    return np.array(rows, dtype=np.int64)


def _reference_tensor(C, D):
    """C (x) D with d (x) 1 and 1 (x) d placed as np.kron blocks with identity
    matrices, and each degree's G-set chained by disjoint_union."""
    p = C.p
    blocks = {}  # degree -> list of (i, j)
    for i in C.degrees():
        for j in D.degrees():
            blocks.setdefault(i + j, []).append((i, j))
    offsets, gsets = {}, {}
    for n, bl in blocks.items():
        bl.sort()
        off, pos, gs = {}, 0, None
        for (i, j) in bl:
            prod = C.gsets[i].tensor(D.gsets[j])
            off[(i, j)] = pos
            pos += prod.size
            gs = prod if gs is None else gs.disjoint_union(prod)
        offsets[n] = off
        gsets[n] = gs
    diffs = {}
    for n in sorted(blocks):
        if (n - 1) not in blocks:
            continue
        M = np.zeros((gsets[n - 1].size, gsets[n].size), dtype=np.int64)
        for (i, j) in blocks[n]:
            ci, dj = C.dim(i), D.dim(j)
            col = offsets[n][(i, j)]
            if (i - 1, j) in offsets[n - 1]:
                row = offsets[n - 1][(i - 1, j)]
                blk = np.kron(C.diff(i), np.eye(dj, dtype=np.int64))
                M[row:row + C.dim(i - 1) * dj, col:col + ci * dj] += blk
            if (i, j - 1) in offsets[n - 1]:
                row = offsets[n - 1][(i, j - 1)]
                sign = 1 if i % 2 == 0 else p - 1
                blk = sign * np.kron(np.eye(ci, dtype=np.int64), D.diff(j))
                M[row:row + ci * D.dim(j - 1), col:col + ci * dj] += blk
        if M.any():
            diffs[n] = M % p
    return PermComplex(C.group, p, gsets, diffs, check=False)


def _reference_hom_dim(G, p, coords, s):
    """Invariant cycles modulo boundaries of invariants, from dense products
    of the full tensor complex, built in the given order."""
    T = unit_complex(G, p)
    for pi in coords:
        T = _reference_tensor(T, build_u(G, p, pi))
    n = -s
    inv_n = _reference_invariant_vectors(T, n)
    inv_up = _reference_invariant_vectors(T, n + 1)
    if inv_n.shape[0] == 0:
        return 0
    cycles = inv_n.shape[0] - modp.rank(modp.matmul(T.diff(n), inv_n.T, p), p)
    boundaries = 0
    if inv_up.shape[0]:
        boundaries = modp.rank(modp.matmul(T.diff(n + 1), inv_up.T, p), p)
    return cycles - boundaries


def _reference_map_basis(src_gset, tgt_gset):
    ny = tgt_gset.size
    out = []
    for orb in _reference_orbits(src_gset.tensor(tgt_gset)):
        M = np.zeros((ny, src_gset.size), dtype=np.int64)
        for z in orb:
            x, y = divmod(int(z), ny)
            M[y, x] = 1
        out.append(M)
    return out


def _reference_is_null_homotopic(f):
    """One equation per entry of every component, orbit-mates included."""
    C, D, p, s = f.source, f.target, f.source.p, f.shift
    sign = 1 if s % 2 == 0 else p - 1
    unknowns = []
    for n in C.degrees():
        if C.dim(n) and D.dim(n - s + 1):
            for M in _reference_map_basis(C.gsets[n], D.gsets[n - s + 1]):
                unknowns.append((n, M))
    rows, rhs = [], []
    for n in C.degrees():
        shape = (D.dim(n - s), C.dim(n))
        if shape[0] == 0 and shape[1] == 0:
            continue
        coeff = np.zeros((len(unknowns), shape[0] * shape[1]), dtype=np.int64)
        for k, (m_deg, M) in enumerate(unknowns):
            contrib = np.zeros(shape, dtype=np.int64)
            if m_deg == n:
                contrib += modp.matmul(D.diff(n - s + 1), M, p)
            if m_deg == n - 1:
                contrib += sign * modp.matmul(M, C.diff(n), p)
            coeff[k] = (contrib % p).reshape(-1)
        rows.append(coeff.T)
        rhs.append(f.comp(n).reshape(-1))
    if not rows:
        return True, {}
    x = modp.solve(np.concatenate(rows, axis=0), np.concatenate(rhs), p)
    if x is None:
        return False, None
    witness = {}
    for k, (n, M) in enumerate(unknowns):
        if x[k]:
            witness[n] = (witness.get(n, 0) + int(x[k]) * M) % p
    return True, witness


def _relabelled(G, perm):
    """The table of G with element a renamed perm[a] (perm fixes 0)."""
    inv = np.argsort(perm)
    t = np.asarray(G.table)
    return FiniteGroup([[int(perm[t[inv[a], inv[b]]]) for b in range(G.order)]
                        for a in range(G.order)])


def _twists(ncoords, max_total):
    for total in range(max_total + 1):
        for twist in itertools.product(range(total + 1), repeat=ncoords):
            if sum(twist) == total:
                yield twist


def test_orbits_match_reference():
    E, p = elementary_abelian(3, 2), 3
    (_, u), (_, v) = _all_units(E, p)[:2]
    gsets = list(u.tensor(v).gsets.values()) + list(cone(coevaluation(u)).gsets.values())
    gsets.append(complexes.empty_gset(E))
    for gs in gsets:
        got, ref = gs.orbits(), _reference_orbits(gs)
        assert len(got) == len(ref)
        assert all(np.array_equal(a, b) for a, b in zip(got, ref))


@pytest.mark.parametrize("group, p, max_total, shifts", [
    ("C2", 2, 5, range(-8, 9)),
    ("C3", 3, 3, range(-8, 3)),
    ("Klein", 2, 3, range(-5, 6)),
    ("C3xC3", 3, 2, range(-6, 3)),
])
def test_hom_dim_matches_dense_reference(group, p, max_total, shifts):
    E = {"C2": cyclic(2), "C3": cyclic(3), "Klein": elementary_abelian(2, 2),
         "C3xC3": elementary_abelian(3, 2)}[group]
    ea = EAStructure(E, p)
    pis = [_pi(ea, c) for c in coordinates(ea)]
    for twist in _twists(len(pis), max_total):
        coords = [pi for pi, m in zip(pis, twist) for _ in range(m)]
        for s in shifts:
            assert hom_dim(E, p, coords, s) == _reference_hom_dim(E, p, coords, s), \
                (group, twist, s)


def _reference_profile(G, p, pis):
    """({n: orbit count}, {n: nonzero rank of d_n on invariants}) read from
    the dense reference product of the u's in the given order."""
    T = unit_complex(G, p)
    for pi in pis:
        T = _reference_tensor(T, build_u(G, p, pi))
    orbits = {n: len(_reference_orbits(gs)) for n, gs in T.gsets.items()}
    ranks = {}
    for n in T.diffs:
        image = modp.matmul(T.diff(n), _reference_invariant_vectors(T, n).T, p)
        rank = modp.rank(image, p)
        if rank:
            ranks[n] = rank
    return orbits, ranks


@pytest.mark.parametrize("group, p, max_total", [
    ("C2", 2, 6),
    ("Klein", 2, 5),
    ("C3", 3, 4),
    ("C3xC3", 3, 3),
    ("C2^3", 2, 3),
])
def test_invariant_profile_matches_dense_reference(group, p, max_total):
    E = {"C2": cyclic(2), "C3": cyclic(3), "Klein": elementary_abelian(2, 2),
         "C3xC3": elementary_abelian(3, 2), "C2^3": elementary_abelian(2, 3)}[group]
    ea = EAStructure(E, p)
    pis = sorted(tuple(int(v) % p for v in _pi(ea, c)) for c in coordinates(ea))
    profile = complexes._invariant_profile.__wrapped__
    for total in range(max_total + 1):
        for twist in itertools.combinations_with_replacement(pis, total):
            orbits, ranks = profile(E, p, twist)
            got = orbits, {n: r for n, r in ranks.items() if r}
            assert got == _reference_profile(E, p, twist), (group, twist)


def _fresh_profile_memo(monkeypatch, build=None):
    """Give hom_dim an empty memo for this test only, so the module's warm
    memo is back for the tests after it."""
    memo = functools.cache(build or complexes._invariant_profile.__wrapped__)
    monkeypatch.setattr(complexes, "_invariant_profile", memo)
    return memo


def test_hom_dim_memo_permuted_coordinates(monkeypatch):
    E, p = elementary_abelian(2, 2), 2
    ea = EAStructure(E, p)
    a, b, c = [_pi(ea, x) for x in coordinates(ea)]
    memo = _fresh_profile_memo(monkeypatch)
    orders = [[a, b, b, c], [b, c, a, b], [c, b, b, a]]
    for s in range(-5, 2):
        values = {hom_dim(E, p, coords, s) for coords in orders}
        assert values == {_reference_hom_dim(E, p, orders[1], s)}
    info = memo.cache_info()
    assert info.misses == 1 and info.currsize == 1


def test_hom_dim_memo_keys_are_exact(monkeypatch):
    # every relabelling of the Klein four-group fixing 0 is an automorphism,
    # so it gives the same table and shares the entry; relabelling C4 by
    # swapping 1 and 2 gives another table and another entry
    K = elementary_abelian(2, 2)
    K2 = _relabelled(K, [0, 3, 1, 2])
    C4 = cyclic(4)
    C4b = _relabelled(C4, [0, 2, 1, 3])
    assert K2 == K and K2 is not K and C4b != C4
    ea = EAStructure(K, 2)
    klein_pis = [tuple(_pi(ea, c)) for c in coordinates(ea)[:2]]
    memo = _fresh_profile_memo(monkeypatch)
    sizes = []
    for G, pis in ((K, klein_pis), (K2, klein_pis),
                   (C4, [(0, 1, 0, 1)] * 2), (C4b, [(0, 0, 1, 1)] * 2)):
        want = [_reference_hom_dim(G, 2, pis, s) for s in range(-4, 2)]
        assert [hom_dim(G, 2, pis, s) for s in range(-4, 2)] == want
        sizes.append(memo.cache_info().currsize)
    assert sizes == [1, 1, 2, 3]
    C6 = cyclic(6)
    for p in (2, 3):
        pi = tuple(x % p for x in range(6))
        assert hom_dim(C6, p, [], 0) == 1
        assert hom_dim(C6, p, [pi], -1) == _reference_hom_dim(C6, p, [pi], -1)
    # the unit and one twist of C6 at each prime: four keys more
    info = memo.cache_info()
    assert info.currsize == info.misses == 7


def test_hom_dim_memo_clear(monkeypatch):
    E, p = cyclic(2), 2
    pi = [0, 1]
    built = []
    profile = complexes._invariant_profile.__wrapped__
    memo = _fresh_profile_memo(
        monkeypatch, lambda *args: built.append(args) or profile(*args))
    assert [hom_dim(E, p, [pi, pi], s) for s in (0, -1, -2, -3)] == [1, 1, 1, 0]
    assert len(built) == 1 and memo.cache_info().currsize == 1
    memo.cache_clear()
    assert memo.cache_info().currsize == 0
    assert hom_dim(E, p, [pi, pi], -1) == 1
    assert len(built) == 2


def test_invariant_profiles_share_tensor_prefixes(monkeypatch):
    """Over the Klein box of verify_hilbert (twists of total <= 4), each
    sorted proper prefix of a twist is tensored once, on its own prefix, and
    each u once; a whole twist's product is built only when it is itself a
    proper prefix of another twist, so the 4-fold products are never built."""
    asked, built, tensors = [], [], []
    profile = complexes._invariant_profile.__wrapped__
    _fresh_profile_memo(
        monkeypatch, lambda G, p, pis: asked.append((G.order, pis)) or profile(G, p, pis))
    prefix = complexes._tensor_prefix.__wrapped__
    monkeypatch.setattr(complexes, "_tensor_prefix", functools.cache(
        lambda G, p, pis: built.append((G.order, pis)) or prefix(G, p, pis)))
    units = functools.cache(complexes._u_pi.__wrapped__)
    monkeypatch.setattr(complexes, "_u_pi", units)
    tensor = PermComplex.tensor
    monkeypatch.setattr(PermComplex, "tensor",
                        lambda C, D: tensors.append(D) or tensor(C, D))
    ok, _ = verify_hilbert(max_shift_cp=0, max_q_cp=0, max_twist_klein=4,
                           max_shift_klein=5)
    assert ok
    assert max(len(pis) for _, pis in asked) == 4
    proper = {(n, pis[:k]) for n, pis in asked for k in range(len(pis))}
    assert sorted(built) == sorted(proper)  # each one built once
    assert set(built).isdisjoint(set(asked) - proper)
    assert units.cache_info().currsize == units.cache_info().misses == 3
    # one tensor product per nonempty proper prefix and none for a whole
    # twist, where building every twist from the unit took one per factor
    nonempty = [pis for _, pis in built if pis]
    assert len(tensors) == len(nonempty) < sum(len(pis) for _, pis in asked)


def test_is_null_homotopic_rejects_non_equivariant_component():
    # 1 -> k[C2] picking out one point is not equivariant.  Its one
    # representative equation (at the pair (0, 0)) reads 0 = 0, so without
    # the check the reduced system would call it null-homotopic, while the
    # full system is inconsistent.
    E, p = cyclic(2), 2
    regular = GSet(E, [[0, 1], [1, 0]])
    D = PermComplex(E, p, {0: regular}, {})
    f = EquivariantChainMap(unit_complex(E, p), D, 0,
                            {0: np.array([[0], [1]])}, check=False)
    assert _reference_is_null_homotopic(f) == (False, None)
    with pytest.raises(ComplexError):
        is_null_homotopic(f)


@pytest.mark.parametrize("g", [1, 2, 3])
def test_equivariance_is_checked_over_all_of_G(g):
    # on the regular Klein G-set, the all-ones block on the subgroup {0, g}
    # commutes with <g> but with no element outside it
    E, p = elementary_abelian(2, 2), 2
    H, proj = quotient(E.subgroup([0, g]), E.trivial_subgroup())
    inside = np.isin(np.arange(4), [0, g])
    m = np.outer(inside, inside).astype(np.int64)
    regular = GSet(E, E.table)
    on_H = GSet(H, E.table[np.asarray(proj.reps)])
    PermComplex(H, p, {1: on_H, 0: on_H}, {1: m})
    with pytest.raises(ComplexError, match=r"^differential not equivariant at 1$"):
        PermComplex(E, p, {1: regular, 0: regular}, {1: m})
    C = PermComplex(H, p, {0: on_H}, {})
    EquivariantChainMap(C, C, 0, {0: m})
    C = PermComplex(E, p, {0: regular}, {})
    with pytest.raises(ComplexError, match=r"^component not equivariant at 0$"):
        EquivariantChainMap(C, C, 0, {0: m})


def test_null_homotopy_witness_matches_full_rows():
    cases = []
    for E, p in ((cyclic(2), 2), (cyclic(3), 3), (elementary_abelian(2, 2), 2),
                 (elementary_abelian(3, 2), 3)):
        cases += [identity_map(cone(coevaluation(u))) for _, u in _all_units(E, p)]
    assert len(cases) == 9
    for p in (2, 3):
        (_, u), = _all_units(cyclic(p), p)
        cases.append(identity_map(cone(map_a(u)).tensor(cone(map_b(u)))))
        cases.append(identity_map(u))
    # the master relation: Klein, and C3xC3 with the right and a wrong scalar
    for E, p in ((elementary_abelian(2, 2), 2), (elementary_abelian(3, 2), 3)):
        ea = EAStructure(E, p)
        c1, c2, c3, lam3 = next(dependent_triples(ea))
        us = [build_u(E, p, _pi(ea, c)) for c in (c1, c2, c3)]
        cases.append(master_relation_map(*us, lam3=lam3))
        if p > 2:
            cases.append(master_relation_map(*us, lam3=(lam3 % (p - 1)) + 1))
    nulls = []
    for f in cases:
        ok, w = is_null_homotopic(f)
        ok0, w0 = _reference_is_null_homotopic(f)
        assert ok == ok0
        nulls.append(ok)
        if ok:
            assert sorted(w) == sorted(w0)
            assert all(np.array_equal(w[n], w0[n]) for n in w)
            assert verify_homotopy(f, w)
        else:
            assert w is None and w0 is None
    assert nulls[-3:] == [True, True, False]


@functools.cache
def _tensor_pool(group):
    """Units, cones of a and b, duals and the unit over the named group."""
    E, p = {"C2": (cyclic(2), 2), "C3": (cyclic(3), 3),
            "Klein": (elementary_abelian(2, 2), 2),
            "C3xC3": (elementary_abelian(3, 2), 3)}[group]
    units = [u for _, u in _all_units(E, p)]
    u = units[0]
    cones = [cone(map_a(u)), cone(map_b(u))]
    return units + cones + [x.dual() for x in [u] + cones] + [unit_complex(E, p)]


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(["C2", "C3", "Klein", "C3xC3"]), st.data())
def test_tensor_matches_kron_reference(group, data):
    pool = _tensor_pool(group)
    C = data.draw(st.sampled_from(pool))
    D = data.draw(st.sampled_from(pool))
    got, ref = C.tensor(D), _reference_tensor(C, D)
    assert got.degrees() == ref.degrees()
    assert all(np.array_equal(got.gsets[n].action, ref.gsets[n].action)
               for n in ref.degrees())
    assert sorted(got.diffs) == sorted(ref.diffs)
    assert all(np.array_equal(got.diffs[n], ref.diffs[n]) for n in ref.diffs)


def test_tensor_dense_cap(monkeypatch):
    E, p = cyclic(2), 2
    (_, u), = _all_units(E, p)
    # u (x) u has dimensions 1, 4, 4 and a 4 x 4 differential in degree 2
    monkeypatch.setattr(complexes, "MAX_DENSE_ENTRIES", 15)
    with pytest.raises(ResourceError):
        u.tensor(u)
    # a complex in one degree has no differential, but a map's component
    # on the tensor of two points of k[C2] is 4 x 4
    D = PermComplex(E, p, {0: GSet(E, [[0, 1], [1, 0]])}, {})
    with pytest.raises(ResourceError):
        identity_map(D).tensor(identity_map(D))
    monkeypatch.setattr(complexes, "MAX_DENSE_ENTRIES", 16)
    assert u.tensor(u).total_dim() == 9
    assert identity_map(D).tensor(identity_map(D)).comp(0).shape == (4, 4)


def test_hom_dim_refuses_large_tensor_powers(monkeypatch):
    # at p = 3 a 5-fold tensor of u's needs a 4050 x 3915 differential and a
    # 6-fold one 26730 x 23814 (5 GB); both exceed the cap before allocating
    E, p = elementary_abelian(3, 2), 3
    pi = _pi(EAStructure(E, p), coordinates(EAStructure(E, p))[0])
    _fresh_profile_memo(monkeypatch)
    assert hom_dim(E, p, [pi] * 4, -4) == _reference_hom_dim(E, p, [pi] * 4, -4)
    with pytest.raises(ResourceError):
        hom_dim(E, p, [pi] * 5, -5)
    with pytest.raises(ResourceError):
        hom_dim(E, p, [pi] * 6, -6)
