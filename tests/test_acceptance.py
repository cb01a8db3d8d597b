"""End-to-end acceptance checks, one per headline capability.

Each test prints a single CRITERION line and enforces a wall-clock budget on
top of the exact expected values.  Budgets are generous for slow CI machines;
typical runtimes are well under a tenth of them.
"""

import itertools
import random
import time
from collections import Counter

from permspec.groups import (
    FiniteGroup,
    cyclic,
    dihedral,
    elementary_abelian,
    from_permutations,
    group_from_spec,
    p_subgroups,
    product,
    quaternion,
)
from permspec.gradedrings import GradedPresentation, GradedRingHom, HomogeneousIdeal
from permspec.sections import SectionCategory, morphism_condition
from permspec.spectra import (
    KIND_FAMILY,
    KIND_RATIONAL,
    KIND_STRATUM_GENERIC,
    KIND_VERY_CLOSED,
    components,
    dimension,
    glue,
    p_rank,
    skeleton,
)
from permspec.twisted import closure_ideal, present_Rloc
from permspec.verify import (
    verify_functors,
    verify_hilbert,
    verify_master,
    verify_units,
)


class _Budget:
    def __init__(self, n, seconds):
        self.n = n
        self.seconds = seconds

    def __enter__(self):
        self.t0 = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        dt = time.monotonic() - self.t0
        status = "PASS" if exc_type is None and dt < self.seconds else "FAIL"
        print(f"CRITERION {self.n}: {status} ({dt:.2f}s / budget {self.seconds}s)")
        if exc_type is None:
            assert dt < self.seconds, f"criterion {self.n} exceeded {self.seconds}s"


def test_criterion_1_cyclic_groups():
    with _Budget(1, 5 * 7):  # seven group runs, < 5 s each
        for p in (2, 3, 5):
            t0 = time.monotonic()
            skel = skeleton(cyclic(p), p)
            # V-shape: one generic over the two very closed points
            assert len(skel.points) == 3
            (g,) = [
                i for i, pt in enumerate(skel.points)
                if pt.kind == KIND_STRATUM_GENERIC
            ]
            assert skel.closure(g) == {0, 1, 2}
            assert all(
                skel.closure(i) == {i}
                for i in range(3) if i != g
            )
            assert time.monotonic() - t0 < 5
        for p, n in ((2, 2), (2, 3), (3, 2), (3, 3)):
            t0 = time.monotonic()
            g = glue(cyclic(p**n), p)
            # zigzag: n+1 very closed points, n generics with two
            # specializations each
            assert len(g.points) == 2 * n + 1
            vc = set(g.very_closed())
            assert len(vc) == n + 1
            degree = Counter()
            for i, pt in enumerate(g.points):
                if i in vc:
                    assert g.closure(i) == {i}
                else:
                    feet = g.closure(i) - {i}
                    assert len(feet) == 2 and feet <= vc
                    degree.update(feet)
            # the chain pattern: two end points covered once, the rest twice
            assert sorted(degree.values()) == [1, 1] + [2] * (n - 1)
            assert time.monotonic() - t0 < 5


def test_criterion_2_klein_skeleton():
    with _Budget(2, 10):
        skel = skeleton(elementary_abelian(2, 2), 2)
        assert len(skel.points) == 13
        assert Counter(pt.kind for pt in skel.points) == {
            KIND_VERY_CLOSED: 5,
            KIND_STRATUM_GENERIC: 4,
            KIND_RATIONAL: 3,
            KIND_FAMILY: 1,
        }
        by = {pt.label: i for i, pt in enumerate(skel.points)}
        lab = lambda idxs: {skel.points[i].label for i in idxs}
        # closure of rational point i is exactly {i, M(1), M(N_i)}
        own = {
            "pt[01](1)": "M({(s^1,1)})",
            "pt[10](1)": "M({(1,s^1)})",
            "pt[11](1)": "M({(s^1,s^1)})",
        }
        for pt_lbl, m_lbl in own.items():
            assert lab(skel.closure(by[pt_lbl])) == {pt_lbl, "M(1)", m_lbl}
        # the family token specializes to both M(1) and M(E)
        assert lab(skel.closure(by["token(1)"])) == {"token(1)", "M(1)", "M(full)"}
        # eta(N) -> M(N), M(E); eta(1) generic; no other specializations
        for n in ("{(1,s^1)}", "{(s^1,1)}", "{(s^1,s^1)}"):
            assert lab(skel.closure(by[f"eta({n})"])) == {
                f"eta({n})", f"M({n})", "M(full)",
            }
        assert skel.generic_points() == [by["eta(1)"]]
        assert len(skel.order) == 26 and len(skel.edges()) == 21


def test_criterion_3_ring_presentations():
    with _Budget(3, 1):
        E = elementary_abelian(2, 2)
        s1 = present_Rloc(E, E.trivial_subgroup(), 2)
        assert s1.presentation.varnames == ("zp_01", "zp_10", "zp_11")
        assert [s1.presentation.format(dict(r)) for r in s1.presentation.relations] \
            == ["zp_01 + zp_10 + zp_11"]
        sE = present_Rloc(E, E.full_subgroup(), 2)
        assert sE.presentation.varnames == ("zm_01", "zm_10", "zm_11")
        assert [sE.presentation.format(dict(r)) for r in sE.presentation.relations] \
            == ["zm_01*zm_10 + zm_01*zm_11 + zm_10*zm_11"]
        # coordinate change x = zm_01+zm_11, y = zm_10+zm_11, z = zm_11
        # carries the relation ideal onto <x*y + z^2> (checked by Groebner
        # membership in both directions)
        std = GradedPresentation(
            2, [("x", -1), ("y", -1), ("z", -1)], relations=["x*y + z^2"]
        )
        T = sE.presentation
        fwd = GradedRingHom(
            std, T,
            [T.poly("zm_01 + zm_11"), T.poly("zm_10 + zm_11"), T.poly("zm_11")],
        )
        bwd = GradedRingHom(
            T, std, [std.poly("x + z"), std.poly("y + z"), std.poly("z")]
        )
        # constructor checks already prove mutual ideal containment; the
        # round trip being the identity pins the change of coordinates
        comp = bwd.compose(fwd)
        assert [comp.images[i] == std.var(n) for i, n in enumerate(std.varnames)] \
            == [True, True, True]


def test_criterion_4_homotopy_oracle():
    with _Budget(4, 60):
        ok_u, _ = verify_units()
        ok_m, _ = verify_master()
        ok_f, _ = verify_functors()
        assert ok_u and ok_m and ok_f


def test_criterion_5_hilbert_series():
    with _Budget(5, 120):
        ok, lines = verify_hilbert(
            max_shift_cp=6, max_q_cp=4, max_twist_klein=3, max_shift_klein=4
        )
        assert ok, lines


def test_criterion_6_d8_end_to_end():
    with _Budget(6, 60):
        D8 = dihedral(8)
        cat = SectionCategory(D8, 2)
        assert len(cat.maxel()) == 3
        assert len(cat.maximal_relations()) == 5
        assert len(components(D8, 2)) == 3
        assert dimension(D8, 2) == 2
        g = glue(D8, 2)
        assert len(g.points) == 25
        assert len(g.very_closed()) == 8
        merged = {
            tuple(sorted(prov))
            for prov in g.provenance.values()
            if len(prov) > 1
        }
        # each Klein component folds two rational points and two M/eta line
        # pairs onto doubled points
        folds = {
            ((0, "pt[01](1)"), (0, "pt[11](1)")),
            ((1, "pt[01](1)"), (1, "pt[11](1)")),
            ((0, "M({r^2sN})"), (0, "M({sN})")),
            ((0, "eta({r^2sN})"), (0, "eta({sN})")),
            ((1, "M({r^1sN})"), (1, "M({r^3sN})")),
            ((1, "eta({r^1sN})"), (1, "eta({r^3sN})")),
        }
        assert folds <= merged
        # one rational-rational identification across the two Klein
        # components (the center line)
        assert ((0, "pt[10](1)"), (1, "pt[10](1)")) in merged
        # two generic-rational identifications into the top component
        assert ((0, "eta({r^2N})"), (2, "pt[01](1)")) in merged
        assert ((1, "eta({r^2N})"), (2, "pt[11](1)")) in merged


def test_criterion_7_q8():
    with _Budget(7, 30):
        Q8 = quaternion()
        d = dimension(Q8, 2)
        r = p_rank(Q8, 2)
        print(f"Q8: dimension {d}, p-rank of the trivial-kernel stratum {r}")
        assert d == 2 and r == 1


def _order16_pool():
    return [
        (cyclic(2), 2), (cyclic(3), 3), (cyclic(4), 2), (cyclic(5), 5),
        (cyclic(6), 2), (cyclic(6), 3), (cyclic(8), 2), (cyclic(9), 3),
        (cyclic(12), 2), (cyclic(12), 3), (cyclic(16), 2),
        (elementary_abelian(2, 2), 2), (elementary_abelian(2, 3), 2),
        (elementary_abelian(2, 4), 2), (elementary_abelian(3, 2), 3),
        (product(cyclic(2), cyclic(4)), 2), (product(cyclic(4), cyclic(4)), 2),
        (product(cyclic(2), cyclic(8)), 2),
        (product(cyclic(2), product(cyclic(2), cyclic(4))), 2),
        (dihedral(8), 2), (dihedral(12), 2), (dihedral(12), 3),
        (dihedral(16), 2), (quaternion(), 2),
        (from_permutations(3, [[[0, 1]], [[0, 1, 2]]]), 2),  # S3
        (from_permutations(3, [[[0, 1]], [[0, 1, 2]]]), 3),
        (from_permutations(4, [[[0, 1], [2, 3]], [[0, 1, 2]]]), 2),  # A4
        (from_permutations(4, [[[0, 1], [2, 3]], [[0, 1, 2]]]), 3),
    ]


def test_criterion_8_property_suites():
    with _Budget(8, 300):
        rng = random.Random(20260823)
        cases = 0
        for G, p in _order16_pool():
            cat = SectionCategory(G, p)
            assert cat.is_EI(), (G.order, p)
            objs = cat.objects()
            pairs = [(x, y) for x in objs for y in objs]
            rng.shuffle(pairs)
            for x, y in pairs[:90]:
                ms = cat.homs(x, y, "raw")
                if not ms:
                    continue
                for m in ms[: 4]:
                    a, b, c = cat.factorize(m)
                    assert c.compose(b).compose(a).g == m.g
                    assert a.is_iso()
                    assert x.K.contains_subgroup(c.target.K)
                    assert b.target.H.contains_subgroup(c.target.H)
                    # rank monotonicity
                    assert x.rank() <= y.rank()
                    cases += 1
        assert cases >= 1000, cases

        # unique generic point + closed-point maximality, all elementary
        # abelian skeletons of rank <= 3 for p in {2, 3}
        for p in (2, 3):
            for r in (1, 2, 3):
                level = "strata" if r == 3 else "rational"
                skel = skeleton(elementary_abelian(p, r), p, level=level)
                assert len(skel.generic_points()) == 1
                for i, pt in enumerate(skel.points):
                    assert (skel.closure(i) == {i}) == (
                        pt.kind == KIND_VERY_CLOSED
                    )

        # closed points invisible from the wrong stratum: random irreducible
        # binary forms over F_2, rational line-points over F_3
        E = elementary_abelian(2, 2)
        s1 = present_Rloc(E, E.trivial_subgroup(), 2)
        P = s1.presentation
        proper = [S for S in p_subgroups(E, 2) if 1 < S.order < E.order]
        for _ in range(20):
            coeffs = _random_irreducible(rng, 2, rng.choice([2, 2, 3, 3, 4]))
            poly = {}
            for i, a in enumerate(coeffs):
                if a:
                    m = [0] * P.nvars
                    m[0], m[1] = i, len(coeffs) - 1 - i
                    poly[tuple(m)] = a
            I = HomogeneousIdeal(P, [poly])
            for H in proper:
                assert closure_ideal(E, H, I, 2).is_unit()
        E3 = elementary_abelian(3, 2)
        s13 = present_Rloc(E3, E3.trivial_subgroup(), 3)
        P3 = s13.presentation
        for lbl, c in sorted(s13.coordinate.items()):
            I = HomogeneousIdeal(P3, [P3.var(f"zp_{lbl}")])
            for lbl2, c2 in sorted(s13.coordinate.items()):
                if lbl2 == lbl:
                    continue
                assert closure_ideal(E3, c2.kernel, I, 3).is_unit()


def test_criterion_9_c3_cubed_rational_skeleton():
    with _Budget(9, 1):
        skel = skeleton(elementary_abelian(3, 3), 3)
        assert len(skel.points) == 134
        assert len(skel.edges()) == 336
        assert skel.generic_points() == [1]


def test_criterion_10_c2_fourth_rational_skeleton():
    with _Budget(10, 10):
        skel = skeleton(elementary_abelian(2, 4), 2, cap_rank=4)
        assert len(skel.points) == 409
        assert len(skel.edges()) == 1145
        assert skel.generic_points() == [1]


def test_criterion_11_maximal_sections_at_p_2():
    # (group, maximal section classes): S5 from a perm spec, D64 and C2^4,
    # each SectionCategory(G, 2).maxel() under 1 s, sections included
    s5 = group_from_spec(
        {"kind": "perm", "degree": 5, "generators": [[[0, 1]], [[0, 1, 2, 3, 4]]]})
    cases = [(s5, 3), (dihedral(64), 9), (elementary_abelian(2, 4), 1)]
    with _Budget(11, 3 * 1):
        for G, classes in cases:
            t0 = time.monotonic()
            assert len(SectionCategory(G, 2).maxel()) == classes, G.order
            assert time.monotonic() - t0 < 1, G.order


def test_criterion_12_maximal_relations_at_p_2():
    # (group, maximal relations): the groups of criterion 11, each
    # SectionCategory(G, 2).maximal_relations() from a fresh category under 1 s
    s5 = group_from_spec(
        {"kind": "perm", "degree": 5, "generators": [[[0, 1]], [[0, 1, 2, 3, 4]]]})
    cases = [(s5, 13), (dihedral(64), 32), (elementary_abelian(2, 4), 0)]
    with _Budget(12, 3 * 1):
        for G, relations in cases:
            t0 = time.monotonic()
            assert len(SectionCategory(G, 2).maximal_relations()) == relations, G.order
            assert time.monotonic() - t0 < 1, G.order


def test_criterion_13_maximal_sections_of_c2_fifth():
    # SectionCategory(C2^5, 2).maxel() from a fresh category, sections
    # included: one class, under 0.5 s
    with _Budget(13, 0.5):
        assert len(SectionCategory(elementary_abelian(2, 5), 2).maxel()) == 1


def test_criterion_14_s6_without_the_full_lattice():
    # S6 from a perm spec, built and checked outside the budget (about a
    # second at order 720): its 51 3-subgroups and 631 2-subgroups under 1 s together,
    # and glue(S6, 3) on a fresh copy of the table under 2 s
    s6 = group_from_spec(
        {"kind": "perm", "degree": 6, "generators": [[[0, 1]], [[0, 1, 2, 3, 4, 5]]]},
        cap=720)
    fresh = FiniteGroup(s6.table, check=False)
    with _Budget(14, 3):
        t0 = time.monotonic()
        assert [len(p_subgroups(s6, p, cap=720)) for p in (3, 2)] == [51, 631]
        assert time.monotonic() - t0 < 1
        t0 = time.monotonic()
        g = glue(fresh, 3, cap_order=720)
        assert (len(g.points), len(g.edges())) == (10, 15)
        assert time.monotonic() - t0 < 2


def test_criterion_15_s6_table_check():
    # the group-table check of S6 (order 720) tests associativity on a
    # generating set only: under 0.5 s, where one n x n gather per element
    # took 1-5 s
    s6 = group_from_spec(
        {"kind": "perm", "degree": 6, "generators": [[[0, 1]], [[0, 1, 2, 3, 4, 5]]]},
        cap=720)
    with _Budget(15, 0.5):
        assert FiniteGroup(s6.table).order == 720


def _random_irreducible(rng, p, d):
    """Coefficients (low to high) of a random monic irreducible polynomial."""

    def value(poly, x):
        v = 0
        for a in reversed(poly):
            v = (v * x + a) % p
        return v

    def divides(g, f):
        f = list(f)
        while len(f) >= len(g):
            k = f[-1]
            if k:
                shift = len(f) - len(g)
                for i, a in enumerate(g):
                    f[shift + i] = (f[shift + i] - k * a) % p
            f.pop()
        return not any(f)

    while True:
        c = [rng.randrange(p) for _ in range(d)] + [1]
        if c[0] == 0 or any(value(c, x) == 0 for x in range(p)):
            continue
        reducible = False
        for dg in range(2, d // 2 + 1):
            for tail in itertools.product(range(p), repeat=dg):
                if divides(list(tail) + [1], c):
                    reducible = True
                    break
            if reducible:
                break
        if not reducible:
            return c
