import itertools
import random

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from permspec.groups import (
    FiniteGroup,
    GroupError,
    ResourceError,
    center,
    cyclic,
    dihedral,
    elementary_abelian,
    from_permutations,
    group_from_spec,
    is_elementary_abelian,
    is_prime,
    normalizer,
    p_rank_of_section,
    p_subgroups,
    product,
    quaternion,
    quotient,
    subgroup_as_group,
    weyl,
)

from references import (
    is_associative_by_rows,
    permutation_table_by_loops,
    quotient_by_cosets,
    relabelled,
    subgroups_by_pairs,
)

POOL = [
    ("C6", cyclic(6)),
    ("C8", cyclic(8)),
    ("K4", elementary_abelian(2, 2)),
    ("D8", dihedral(8)),
    ("Q8", quaternion()),
    ("C3xC3", elementary_abelian(3, 2)),
]


def _element_order(G, a):
    k, x = 1, a
    while x != 0:
        x = G.mul(x, a)
        k += 1
    return k


def test_cayley_axioms():
    for name, G in POOL:
        for a in range(G.order):
            assert G.mul(a, G.inv(a)) == 0
            assert G.mul(0, a) == a == G.mul(a, 0)
        assert _element_order(G, 0) == 1


def test_subgroup_counts():
    assert len(p_subgroups(elementary_abelian(2, 2), 2)) == 5  # 1, three C2, E
    assert len(p_subgroups(dihedral(8), 2)) == 10
    assert len(p_subgroups(quaternion(), 2)) == 6
    assert len(p_subgroups(cyclic(8), 2)) == 4


def test_center_and_normalizer():
    D8 = dihedral(8)
    Z = center(D8)
    assert Z.order == 2
    Q8 = quaternion()
    assert center(Q8).order == 2
    # a reflection subgroup of D8 has normalizer of order 4
    L = next(S for S in p_subgroups(D8, 2) if S.order == 2 and not S.is_normal())
    assert normalizer(D8, L).order == 4


def test_quotient_and_weyl():
    D8 = dihedral(8)
    Z = center(D8)
    Q, proj = quotient(D8, Z)
    assert Q.order == 4 and is_elementary_abelian(Q, 2)
    assert tuple(x for x in range(D8.order) if proj.map[x] == 0) == Z.elements
    L = next(S for S in p_subgroups(D8, 2) if S.order == 2 and not S.is_normal())
    _, W, _ = weyl(D8, L)
    assert W.order == 2


QUOTIENT_GROUPS = [
    ("D8", dihedral(8)),
    ("Q8", quaternion()),
    ("C4xC4", product(cyclic(4), cyclic(4))),
    ("D8xC2", product(dihedral(8), cyclic(2))),
]


@pytest.mark.parametrize("relabel", [False, True], ids=["own", "relabelled"])
@pytest.mark.parametrize("name, G", QUOTIENT_GROUPS, ids=[n for n, _ in QUOTIENT_GROUPS])
def test_quotient_matches_the_coset_reference(name, G, relabel):
    # 11 is prime to |G| - 1 for orders 8 and 16
    G = relabelled(G, 11) if relabel else G
    normals = [N for N in p_subgroups(G, 2) if N.is_normal()]
    assert len(normals) > 2
    for N in normals:
        Q, proj = quotient(G, N)
        Q_ref, proj_ref = quotient_by_cosets(G, N)
        assert np.array_equal(Q.table, Q_ref.table)
        assert Q.names == Q_ref.names
        assert proj.map == proj_ref.map
        assert proj.reps == proj_ref.reps


def test_subgroup_as_group_embeds():
    D8 = dihedral(8)
    for S in p_subgroups(D8, 2):
        H, embed = subgroup_as_group(S)
        assert H.order == S.order
        for a in range(H.order):
            for b in range(H.order):
                assert embed[H.mul(a, b)] == D8.mul(embed[a], embed[b])


def test_conjugacy():
    D8 = dihedral(8)
    twos = [S for S in p_subgroups(D8, 2) if S.order == 2 and not S.is_normal()]
    # the four reflections fall into two conjugacy classes of subgroups
    classes = []
    for S in twos:
        if not any(S.conjugate(g) == T for T in classes for g in range(D8.order)):
            classes.append(S)
    assert len(classes) == 2


def test_from_permutations():
    S3 = from_permutations(3, [[[0, 1]], [[0, 1, 2]]])
    assert S3.order == 6
    assert not S3.is_abelian()


@pytest.mark.parametrize("degree, generators", [
    (4, [[[0, 1]], [[0, 1, 2, 3]]]),  # S4
    (5, [[[0, 1]], [[0, 1, 2, 3, 4]]]),  # S5
    (6, [[[0, 1]], [[0, 1, 2, 3, 4, 5]]]),  # S6
    (5, [[[0, 1, 2]], [[0, 1, 2, 3, 4]]]),  # A5
    (5, [[[0, 1, 2, 3, 4]], [[1, 2, 4, 3]]]),  # the Frobenius group of order 20
    (6, [[[0, 1, 2]], [[3, 4]], [[0, 3], [1, 4], [2, 5]]]),  # S3 wr C2
    (6, [[[0, 1, 2, 3, 4]], [[1, 2, 4, 3]], [[0, 5], [1, 4]]]),  # PGL(2, 5) on 6 points
    (17, [[list(range(17))]]),  # C17: a row no base-17 int64 code holds
    (300, [[[0, 1]], [[298, 299]]]),  # C2 x C2 on 300 points: two-byte entries
    (1, []),
    (0, []),
])
def test_from_permutations_matches_the_loop_table(degree, generators):
    G = from_permutations(degree, generators, cap=720)
    assert G.table.tolist() == permutation_table_by_loops(degree, generators)


def test_group_from_spec():
    G = group_from_spec('{"kind": "dihedral", "order": 8}')
    assert G.order == 8
    with pytest.raises(GroupError):
        group_from_spec('{"kind": "nope"}')
    with pytest.raises(ResourceError):
        group_from_spec('{"kind": "cyclic", "n": 4}', cap=3)


def test_p_rank_of_section():
    D8 = dihedral(8)
    Z = center(D8)
    assert p_rank_of_section(D8.full_subgroup(), Z, 2) == 2
    K4 = elementary_abelian(2, 2)
    assert p_rank_of_section(K4.full_subgroup(), K4.trivial_subgroup(), 2) == 2


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from(POOL),
    st.integers(0, 63),
    st.integers(0, 63),
    st.integers(0, 63),
)
def test_group_properties(named, a, b, g):
    name, G = named
    a, b, g = a % G.order, b % G.order, g % G.order
    # associativity spot check and conjugation homomorphism
    assert G.mul(G.mul(a, b), g) == G.mul(a, G.mul(b, g))
    assert G.conj(G.mul(a, b), g) == G.mul(G.conj(a, g), G.conj(b, g))
    assert _element_order(G, a) == _element_order(G, G.conj(a, g))


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(POOL), st.integers(0, 63))
def test_subgroup_conjugates(named, g):
    name, G = named
    g = g % G.order
    for e in subgroups_by_pairs(G):  # C6 is not a p-group
        S = G.subgroup(e)
        T = S.conjugate(g)
        assert T.order == S.order
        assert T.conjugate(G.inv(g)).elements == S.elements


def test_p_subgroups_are_p_groups():
    for name, G in POOL:
        for p in (2, 3):
            if G.order % p:
                continue
            for S in p_subgroups(G, p):
                assert S.is_p_group(p)


def _relabel(G, perm):
    """G's table with every element x renamed perm[x] (perm fixes 0)."""
    pm = np.asarray(perm)
    t = np.empty_like(G.table)
    t[np.ix_(pm, pm)] = pm[G.table]
    return FiniteGroup(t)


def test_digest_is_exact():
    klein = elementary_abelian(2, 2)
    c2c4 = product(cyclic(2), cyclic(4))
    groups = [
        dihedral(8),
        quaternion(),
        c2c4,
        klein,
        _relabel(klein, [0, 2, 3, 1]),
        _relabel(c2c4, [0, 2, 1, 3, 4, 6, 5, 7]),
    ]
    # every relabelling of the Klein four-group is an automorphism
    assert np.array_equal(groups[4].table, klein.table)
    assert not np.array_equal(groups[5].table, c2c4.table)
    for G in groups:
        assert G.digest() == (G.order, G.table.tobytes())
        for H in groups:
            same = G.order == H.order and np.array_equal(G.table, H.table)
            assert (G.digest() == H.digest()) == same
            if same:
                assert hash(G) == hash(H)


def test_equality_compares_digests(monkeypatch):
    klein = elementary_abelian(2, 2)
    c2c4 = product(cyclic(2), cyclic(4))
    same = FiniteGroup(klein.table.tolist())
    moved = _relabel(c2c4, [0, 2, 1, 3, 4, 6, 5, 7])
    c4, c8 = cyclic(4), cyclic(8)

    def refuse(*args):
        raise AssertionError("group equality compares whole tables")

    monkeypatch.setattr(np, "array_equal", refuse)
    assert klein == same and klein is not same and hash(klein) == hash(same)
    assert c2c4 != moved and moved == moved
    assert c4 != c8 and c8 != c4 and c4 != klein
    assert klein != klein.table.tolist() and klein != None and klein != "klein"


def _shuffled(G, seed):
    perm = [0] + random.Random(seed).sample(range(1, G.order), G.order - 1)
    return _relabel(G, perm)


LATTICE_GROUPS = POOL + [
    ("D16", dihedral(16)),
    ("C2^4", elementary_abelian(2, 4)),
    ("C4xC4", product(cyclic(4), cyclic(4))),
    ("D8xC2", product(dihedral(8), cyclic(2))),
    ("C3xC9", product(cyclic(3), cyclic(9))),
    ("D16 relabelled", _shuffled(dihedral(16), 1)),
    ("C2xC8 relabelled", _shuffled(product(cyclic(2), cyclic(8)), 2)),
]


S3 = from_permutations(3, [[[0, 1]], [[0, 1, 2]]])
S4 = from_permutations(4, [[[0, 1]], [[0, 1, 2, 3]]])
S5 = from_permutations(5, [[[0, 1]], [[0, 1, 2, 3, 4]]])
A5 = from_permutations(5, [[[0, 1, 2]], [[0, 1, 2, 3, 4]]])
# GL(3,2), of order 168, on the seven nonzero vectors of F_2^3
GL32 = from_permutations(7, [[[1, 5], [2, 6]], [[0, 5, 2, 6, 4, 3, 1]]], cap=168)

# groups that are not p-groups, where the Sylow bound cuts joins short
P_LATTICE_GROUPS = LATTICE_GROUPS + [
    ("C3xS3", product(cyclic(3), S3)),
    ("S4", S4),
    ("S5", S5),
    ("A5", A5),
    ("C3xS3 relabelled", _shuffled(product(cyclic(3), S3), 3)),
    ("S4 relabelled", _shuffled(S4, 4)),
    ("A5 relabelled", _shuffled(A5, 5)),
]


def _is_p_power(n, p):
    while n % p == 0:
        n //= p
    return n == 1


@pytest.mark.parametrize("name", [name for name, _ in P_LATTICE_GROUPS])
def test_lattice_matches_pairwise_reference(name):
    """For every prime dividing |G|, the p-subgroups are the p-group members
    of the full pairwise-join lattice, in its order."""
    G = dict(P_LATTICE_GROUPS)[name]
    lattice = subgroups_by_pairs(G)
    primes = [p for p in range(2, G.order + 1) if G.order % p == 0 and is_prime(p)]
    for p in primes:
        want = [e for e in lattice if _is_p_power(len(e), p)]
        assert [S.elements for S in p_subgroups(G, p)] == want


def _permutation_group(degree, even=False):
    """The symmetric group (alternating if even) on degree points as a table
    over its permutations in lexicographic order, identity first, built with
    numpy and not validated."""
    perms = np.array([
        q for q in itertools.permutations(range(degree))
        if not even or sum(a > b for a, b in itertools.combinations(q, 2)) % 2 == 0
    ])
    n = len(perms)
    weights = degree ** np.arange(degree)
    index = np.zeros(degree ** degree, dtype=np.int64)
    index[perms @ weights] = np.arange(n)
    # the product of a and b sends i to a[b[i]], as in from_permutations
    return FiniteGroup(index[perms[np.arange(n)[:, None, None], perms[None]] @ weights],
                       check=False)


def test_lattice_counts():
    assert len(p_subgroups(elementary_abelian(2, 5), 2)) == 374
    assert len(p_subgroups(dihedral(32), 2)) == 36
    assert len(p_subgroups(product(cyclic(4), cyclic(4), cyclic(2)), 2)) == 54
    # the counts the full lattice gave for groups that are not p-groups
    S6 = _permutation_group(6)
    assert (S6.order, len(p_subgroups(S6, 2, cap=720)), len(p_subgroups(S6, 3, cap=720))) \
        == (720, 631, 51)
    A6 = _permutation_group(6, even=True)
    assert (A6.order, len(p_subgroups(A6, 2, cap=360))) == (360, 166)
    assert len(p_subgroups(GL32, 2, cap=168)) == 78


def test_p_subgroups_are_memoised_per_group_and_prime(monkeypatch):
    import permspec.groups

    G, twin = FiniteGroup(S4.table), FiniteGroup(S4.table)
    assert G == twin  # equal tables, two group objects
    built = {}
    for H in (G, twin):
        for p in (2, 3):
            built[id(H), p] = p_subgroups(H, p)
            assert all(S.parent is H for S in built[id(H), p])
    # Subgroup equality compares parents by identity
    assert built[id(G), 2] != built[id(twin), 2]
    assert [S.elements for S in built[id(G), 2]] == [
        S.elements for S in built[id(twin), 2]
    ]

    def enumerate_again(*args):
        raise AssertionError("p-subgroups enumerated twice for one group and prime")

    monkeypatch.setattr(permspec.groups, "_p_lattice", enumerate_again)
    for H in (G, twin):
        for p in (2, 3):
            again = p_subgroups(H, p)
            assert again == built[id(H), p] and again is not built[id(H), p]
            assert all(x is y for x, y in zip(again, built[id(H), p]))
            again.clear()  # the memo keeps its own list
            assert len(p_subgroups(H, p)) == len(built[id(H), p])
            # the cap is checked on every call, the memoised ones too
            with pytest.raises(ResourceError):
                p_subgroups(H, p, cap=H.order - 1)
    with pytest.raises(ResourceError):  # and before any enumeration
        p_subgroups(FiniteGroup(S4.table), 2, cap=S4.order - 1)


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from(LATTICE_GROUPS),
    st.integers(0, 63),
    st.integers(0, 63),
    st.booleans(),
)
def test_scalar_arithmetic_matches_the_table(named, a, b, as_numpy):
    _, G = named
    t = G.table
    a, b = a % G.order, b % G.order
    inv_b = int(np.nonzero(t[b] == 0)[0][0])
    expect = (int(t[a, b]), inv_b, int(t[t[inv_b, a], b]))
    if as_numpy:
        a, b = np.int64(a), np.int64(b)
    got = (G.mul(a, b), G.inv(b), G.conj(a, b))
    assert got == expect
    assert all(type(x) is int for x in got)


def _c2_7_with_swapped_intercalate():
    """C2^7 (x*y = x xor y) with the 2x2 Latin subsquare on rows 1, 7 and
    columns 2, 4 swapped: still a loop with identity 0, not a group."""
    t = elementary_abelian(2, 7).table.copy()
    t[1, 2], t[1, 4], t[7, 2], t[7, 4] = t[1, 4], t[1, 2], t[7, 4], t[7, 2]
    return t


def test_associativity_is_exact_at_order_128():
    G = elementary_abelian(2, 7)
    assert FiniteGroup(G.table).order == 128
    t = _c2_7_with_swapped_intercalate()
    n = len(t)
    assert sorted(t[1]) == list(range(n)) and sorted(t[:, 2]) == list(range(n))
    bad = t[t] != t[np.arange(n)[:, None, None], t[None]]
    assert bad.sum() == 2000
    with pytest.raises(GroupError, match="associativity"):
        FiniteGroup(t)
    with pytest.raises(GroupError, match="associativity"):
        group_from_spec({"kind": "table", "table": t.tolist()})


def _reduced_latin_squares(n):
    """Every n x n Latin square whose row 0 and column 0 are 0..n-1, that is
    every loop on 0..n-1 with identity 0, filled cell by cell."""
    t = [[max(r, c) if 0 in (r, c) else 0 for c in range(n)] for r in range(n)]
    cells = [(r, c) for r in range(1, n) for c in range(1, n)]

    def fill(k):
        if k == len(cells):
            yield np.array(t)
            return
        r, c = cells[k]
        used = set(t[r][:c]) | {t[i][c] for i in range(r)}
        for v in range(n):
            if v not in used:
                t[r][c] = v
                yield from fill(k + 1)

    yield from fill(0)


def _accepts(t):
    """Whether FiniteGroup takes a Latin square with identity 0."""
    try:
        FiniteGroup(t)
    except GroupError as e:
        assert str(e) == "associativity fails"
        return False
    return True


def test_associativity_check_matches_the_all_elements_check_on_every_small_loop():
    # the groups among the loops of order <= 6 are the tables of C1..C6, C2^2
    # and S3 relabelled with 0 fixed, one per automorphism class of labels;
    # order 5 has 50 loops that are not groups, order 6 has 9,328
    counts = {}
    for n in range(1, 7):
        verdicts = [(_accepts(t), is_associative_by_rows(t))
                    for t in _reduced_latin_squares(n)]
        assert all(new == old for new, old in verdicts), n
        counts[n] = (sum(new for new, _ in verdicts), len(verdicts))
    assert counts == {1: (1, 1), 2: (1, 1), 3: (1, 1), 4: (4, 4), 5: (6, 56),
                      6: (80, 9408)}


@pytest.mark.parametrize("name", ["S3", "C2^3", "C4xC2", "D8", "Q8", "C2^4"])
def test_associativity_check_matches_the_all_elements_check_on_swapped_intercalates(name):
    # groups of odd order have no 2x2 Latin subsquare to swap
    G = {"S3": dihedral(6), "C2^3": elementary_abelian(2, 3),
         "C4xC2": product(cyclic(4), cyclic(2)), "D8": dihedral(8), "Q8": quaternion(),
         "C2^4": elementary_abelian(2, 4)}[name]
    t, n = G.table, G.order
    swapped = 0
    for a, b in itertools.combinations(range(1, n), 2):
        for c, d in itertools.combinations(range(1, n), 2):
            if t[a, c] == t[b, d] and t[a, d] == t[b, c]:
                # swapping a 2x2 Latin subsquare off row and column 0 leaves
                # a Latin square with identity 0
                s = t.copy()
                s[[a, a, b, b], [c, d, c, d]] = t[[a, a, b, b], [d, c, d, c]]
                assert _accepts(s) == is_associative_by_rows(s), (a, b, c, d)
                swapped += 1
    assert swapped


def test_table_spec_over_the_cap_is_refused_before_validation():
    # not a group table at all: the cap is checked first
    spec = {"kind": "table", "table": [[0, 1, 2, 3]] * 4}
    with pytest.raises(GroupError):
        group_from_spec(spec)
    with pytest.raises(ResourceError):
        group_from_spec(spec, cap=3)


ORDER_CAPPED_SPECS = [
    ({"kind": "cyclic", "n": 600}, 4),
    ({"kind": "dihedral", "order": 600}, 128),
    ({"kind": "elementary_abelian", "p": 3, "rank": 5}, 128),
    ({"kind": "elementary_abelian", "p": 2, "rank": 10 ** 9}, 128),
    ({"kind": "product", "factors": [{"kind": "cyclic", "n": 100}] * 2}, 128),
    # a factor of negative order must not hide a large one
    ({"kind": "product", "factors": [
        {"kind": "cyclic", "n": 10 ** 6}, {"kind": "cyclic", "n": -1},
    ]}, 128),
    ({"kind": "product", "factors": [
        {"kind": "quaternion"},
        {"kind": "product", "factors": [{"kind": "cyclic", "n": 4}] * 2},
    ]}, 64),
]


@pytest.mark.parametrize("spec, cap", ORDER_CAPPED_SPECS)
def test_spec_order_is_capped_before_any_table_is_built(monkeypatch, spec, cap):
    import permspec.groups

    def no_table(*args, **kwargs):
        raise AssertionError("a group table was built before the cap check")

    monkeypatch.setattr(permspec.groups, "FiniteGroup", no_table)
    with pytest.raises(ResourceError, match="exceeds cap"):
        group_from_spec(spec, cap=cap)


def test_product_of_perm_factors_is_capped_before_the_product_table():
    s3 = {"kind": "perm", "degree": 3, "generators": [[[0, 1]], [[0, 1, 2]]]}
    assert group_from_spec({"kind": "product", "factors": [s3, s3]}).order == 36
    with pytest.raises(ResourceError, match="group order 36 exceeds cap 30"):
        group_from_spec({"kind": "product", "factors": [s3, s3]}, cap=30)


@pytest.mark.parametrize(
    "p, rank", [(2, -1), (3, -5), (1, 3), (0, 2), (4, 2), (6, 1), (9, 0)]
)
def test_elementary_abelian_needs_a_prime_and_a_rank(p, rank):
    with pytest.raises(GroupError, match="rank >= 0"):
        group_from_spec({"kind": "elementary_abelian", "p": p, "rank": rank})
    with pytest.raises(GroupError, match="rank >= 0"):
        elementary_abelian(p, rank)


# -- perturbed Cayley tables are refused ------------------------------------------------

PERTURB_POOL = POOL + [("D12", dihedral(12)), ("C2xC4", product(cyclic(2), cyclic(4)))]


def _refuse(t, match):
    with pytest.raises(GroupError, match=match):
        FiniteGroup(t)
    with pytest.raises(GroupError, match=match):
        group_from_spec({"kind": "table", "table": t.tolist()})


def _is_associative(t):
    n = len(t)
    return all(
        t[t[a][b]][c] == t[a][t[b][c]]
        for a in range(n) for b in range(n) for c in range(n)
    )


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(PERTURB_POOL), st.data())
def test_table_with_two_entries_of_a_row_swapped_is_refused(named, data):
    _, G = named
    n = G.order
    t = G.table.copy()
    r = data.draw(st.integers(0, n - 1))
    a, b = data.draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
    t[r, a], t[r, b] = t[r, b], t[r, a]
    # the row stays a permutation, so a column repeats an entry unless the
    # swap already moved an entry of the identity's row or column
    _refuse(t, "identity" if 0 in (r, a, b) else "permutations")


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(PERTURB_POOL), st.data())
def test_table_with_the_identity_moved_is_refused(named, data):
    _, G = named
    n = G.order
    sigma = np.array(data.draw(st.permutations(range(n))))
    assume(sigma[0] != 0)
    # relabel every element x as sigma[x]: the same group, identity at sigma[0]
    t = np.empty_like(G.table)
    t[sigma[:, None], sigma[None, :]] = sigma[G.table]
    assert _is_associative(t.tolist())
    _refuse(t, "identity")


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(PERTURB_POOL), st.data())
def test_table_with_associativity_broken_is_refused(named, data):
    _, G = named
    n = G.order
    t = G.table
    # a 2x2 Latin subsquare away from the identity's row and column: swapping
    # its two symbols keeps a Latin square with identity 0
    intercalates = [
        (a, b, c, d)
        for a, b in itertools.combinations(range(1, n), 2)
        for c, d in itertools.combinations(range(1, n), 2)
        if t[a, c] == t[b, d] and t[a, d] == t[b, c]
    ]
    assume(intercalates)
    a, b, c, d = data.draw(st.sampled_from(intercalates))
    t = t.copy()
    t[a, c], t[a, d], t[b, c], t[b, d] = t[a, d], t[a, c], t[b, d], t[b, c]
    assume(not _is_associative(t.tolist()))
    _refuse(t, "associativity")
