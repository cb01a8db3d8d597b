import functools

import pytest

from permspec import twisted
from permspec.groups import elementary_abelian, p_subgroups
from permspec.gradedrings import (
    GradedRingHom,
    HomogeneousIdeal,
    RingError,
    padd,
    pmul,
    pscale,
)
from permspec.twisted import (
    Coordinate,
    EAStructure,
    canonical_functional,
    closure_ideal,
    coordinates,
    dependent_triples,
    leading_scalar,
    local_ring,
    present_Rloc,
    present_Rtotal,
    psi_hom,
    res_hom,
)

from references import functional_of_kernel, relabelled


def _fmt(pres, f):
    return pres.format(f if isinstance(f, dict) else dict(f))


def _gens(J):
    return sorted(_fmt(J.ambient, dict(g)) for g in J.generators)


def test_coordinates_and_functionals():
    for p, r in ((2, 2), (3, 2), (2, 3)):
        ea = EAStructure(elementary_abelian(p, r), p)
        coords = coordinates(ea)
        assert len(coords) == (p**r - 1) // (p - 1)
        for c in coords:
            assert leading_scalar(c.f, p) == 1
            assert c.kernel.order == p ** (r - 1)
            assert functional_of_kernel(ea, c.kernel) == c.f


@pytest.mark.parametrize("p, r", [(3, 2), (2, 3)])
def test_relabelled_tables_share_one_presentation_per_split(monkeypatch, p, r):
    """The ring of H reads only which kernels contain H, so both labellings
    get one presentation object per split, whatever H's element tuple."""
    for name in ("_local_ring", "_presentation"):
        fresh = functools.cache(getattr(twisted, name).__wrapped__)
        monkeypatch.setattr(twisted, name, fresh)
    E = elementary_abelian(p, r)
    by_split = {}
    for G in (E, relabelled(E)):
        for H in p_subgroups(G, p):
            spec = local_ring(G, H, p)
            by_split.setdefault(frozenset(spec.plus_of), []).append((H.elements, spec))
    # the kernels N >= H determine H, so each split is one subgroup per group
    assert len(by_split) == len(p_subgroups(E, p))
    for pairs in by_split.values():
        (tuple_e, spec_e), (tuple_r, spec_r) = pairs
        assert spec_e is not spec_r and spec_e.ea.group is not spec_r.ea.group
        assert spec_e.presentation is spec_r.presentation
    # the split of some subgroup moves to another element tuple
    assert any(tuple_e != tuple_r for (tuple_e, _), (tuple_r, _) in by_split.values())
    assert twisted._presentation.cache_info().currsize == len(by_split)


def test_klein_presentations():
    E = elementary_abelian(2, 2)
    s1 = present_Rloc(E, E.trivial_subgroup(), 2)
    assert s1.presentation.varnames == ("zp_01", "zp_10", "zp_11")
    assert s1.presentation.degrees == (1, 1, 1)
    assert [_fmt(s1.presentation, r) for r in s1.presentation.relations] == [
        "zp_01 + zp_10 + zp_11"
    ]
    sE = present_Rloc(E, E.full_subgroup(), 2)
    assert sE.presentation.varnames == ("zm_01", "zm_10", "zm_11")
    assert sE.presentation.degrees == (-1, -1, -1)
    assert [_fmt(sE.presentation, r) for r in sE.presentation.relations] == [
        "zm_01*zm_10 + zm_01*zm_11 + zm_10*zm_11"
    ]
    # mixed stratum: one inverted generator, one three-term relation
    for S in p_subgroups(E, 2):
        if S.order != 2:
            continue
        sS = present_Rloc(E, S, 2)
        assert len(sS.plus_of) == 1 and len(sS.minus_of) == 2
        assert len(sS.presentation.relations) == 1


def test_top_relation_is_the_standard_quadric():
    # the degree -2 relation at the full stratum of the Klein group becomes
    # x*y + z^2 after the change of basis x = zm_01+zm_11, y = zm_10+zm_11,
    # z = zm_11 (an isomorphism over F_2)
    E = elementary_abelian(2, 2)
    sE = present_Rloc(E, E.full_subgroup(), 2)
    from permspec.gradedrings import GradedPresentation

    std = GradedPresentation(
        2, [("x", -1), ("y", -1), ("z", -1)], relations=["x*y + z^2"]
    )
    T = sE.presentation
    # both directions are required to map relations into relations, so the
    # constructor checks the ideals agree
    fwd = GradedRingHom(
        std, T, [T.poly("zm_01 + zm_11"), T.poly("zm_10 + zm_11"), T.poly("zm_11")]
    )
    bwd = GradedRingHom(
        T, std, [std.poly("x + z"), std.poly("y + z"), std.poly("z")]
    )
    comp = bwd.compose(fwd)
    for name, im in zip(std.varnames, comp.images):
        assert im == std.var(name)


def test_p3_presentation_relations():
    E = elementary_abelian(3, 2)
    s1 = present_Rloc(E, E.trivial_subgroup(), 3)
    assert s1.presentation.varnames == ("zp_01", "zp_10", "zp_11", "zp_12")
    assert sorted(_fmt(s1.presentation, r) for r in s1.presentation.relations) == [
        "zp_01 + 2*zp_10 + zp_12",
        "zp_01 + zp_10 + 2*zp_11",
        "zp_01 + zp_11 + 2*zp_12",
        "zp_10 + zp_11 + zp_12",
    ]


def test_psi_hom_collapse():
    # quotienting by the kernel of a coordinate keeps that coordinate and
    # kills the rest
    for p in (2, 3):
        E = elementary_abelian(p, 2)
        s1 = local_ring(E, E.trivial_subgroup(), p)
        for lbl, c in sorted(s1.coordinate.items()):
            hom = psi_hom(E, c.kernel, c.kernel, p)
            images = {
                n: _fmt(hom.target, im)
                for n, im in zip(hom.source.varnames, hom.images)
            }
            assert images[f"zp_{lbl}"] == "zp_1"
            assert all(v == "0" for n, v in images.items() if n != f"zp_{lbl}")


def test_psi_hom_requires_containment():
    from permspec.groups import GroupError

    E = elementary_abelian(2, 2)
    s1 = local_ring(E, E.trivial_subgroup(), 2)
    kernels = [c.kernel for c in s1.coordinate.values()]
    with pytest.raises(GroupError):
        psi_hom(E, kernels[0], kernels[1], 2)


def test_res_hom_scalars_p3():
    # restriction to each order-3 subgroup of C3 x C3: the coordinate whose
    # kernel is the subgroup dies, the others restrict with the pullback
    # scalar (leading coefficient of the restricted functional)
    E = elementary_abelian(3, 2)
    expected = {
        (0, 1, 2): {"zp_01": "0", "zp_10": "zp_1", "zp_11": "zp_1", "zp_12": "zp_1"},
        (0, 3, 6): {"zp_01": "zp_1", "zp_10": "0", "zp_11": "zp_1", "zp_12": "2*zp_1"},
        (0, 4, 8): {"zp_01": "zp_1", "zp_10": "zp_1", "zp_11": "2*zp_1", "zp_12": "0"},
        (0, 5, 7): {"zp_01": "zp_1", "zp_10": "2*zp_1", "zp_11": "0", "zp_12": "zp_1"},
    }
    seen = {}
    for S in p_subgroups(E, 3):
        if S.order != 3:
            continue
        hom = res_hom(S, E, E.trivial_subgroup(), 3)
        seen[tuple(S.elements)] = {
            n: _fmt(hom.target, im)
            for n, im in zip(hom.source.varnames, hom.images)
        }
    assert seen == expected


# frozen closure transport values over the Klein four-group; H keys are
# subgroup element tuples
def _klein_strata():
    E = elementary_abelian(2, 2)
    order2 = {tuple(S.elements): S for S in p_subgroups(E, 2) if S.order == 2}
    return E, order2


def test_closure_of_rational_points():
    E, order2 = _klein_strata()
    s1 = present_Rloc(E, E.trivial_subgroup(), 2)
    P = s1.presentation
    own = {"zp_01": (0, 1), "zp_10": (0, 2), "zp_11": (0, 3)}
    for v, own_key in own.items():
        I = HomogeneousIdeal(P, [P.poly(v)])
        for key, H in order2.items():
            J = closure_ideal(E, H, I, 2)
            if key == own_key:
                # hits the very closed point of its own stratum
                assert _gens(J) == ["zp_1"]
            else:
                assert J.is_unit()
        assert closure_ideal(E, E.full_subgroup(), I, 2).is_unit()


def test_closure_of_irrational_conic():
    # x^2+xy+y^2 has no rational zeros: its locus misses every proper
    # stratum but survives to the top one
    E, order2 = _klein_strata()
    s1 = present_Rloc(E, E.trivial_subgroup(), 2)
    P = s1.presentation
    I = HomogeneousIdeal(P, [P.poly("zp_01^2 + zp_01*zp_10 + zp_10^2")])
    for H in order2.values():
        assert closure_ideal(E, H, I, 2).is_unit()
    assert closure_ideal(E, E.full_subgroup(), I, 2).is_zero()
    J = closure_ideal(E, E.trivial_subgroup(), I, 2)
    assert _gens(J) == ["zp_10^2 + zp_10*zp_11 + zp_11^2"]


def test_closure_of_zero_and_max():
    E, order2 = _klein_strata()
    s1 = present_Rloc(E, E.trivial_subgroup(), 2)
    P = s1.presentation
    Z = HomogeneousIdeal(P, [])
    M = HomogeneousIdeal(P, [P.poly(v) for v in P.varnames])
    for H in list(order2.values()) + [E.full_subgroup(), E.trivial_subgroup()]:
        assert closure_ideal(E, H, Z, 2).is_zero()
    for H in list(order2.values()) + [E.full_subgroup()]:
        assert closure_ideal(E, H, M, 2).is_unit()
    assert not closure_ideal(E, E.trivial_subgroup(), M, 2).is_unit()


def test_closure_off_lines_p3():
    # every rational line of C3 x C3 is invisible from the other strata
    E = elementary_abelian(3, 2)
    s1 = present_Rloc(E, E.trivial_subgroup(), 3)
    P = s1.presentation
    ea = s1.ea
    for lbl, c in sorted(s1.coordinate.items()):
        # the line is the kernel of every functional vanishing on it; its
        # ideal is generated by the zp of those kernels
        I = HomogeneousIdeal(P, [P.var(f"zp_{lbl}")])
        for lbl2, c2 in sorted(s1.coordinate.items()):
            J = closure_ideal(E, c2.kernel, I, 3)
            if lbl2 == lbl:
                assert not J.is_unit() and not J.is_zero()
            else:
                assert J.is_unit()


def _reference_Rtotal_relations(E, p):
    """The master relations of present_Rtotal as its own three-term sum."""
    pres = present_Rtotal(E, p)
    a = lambda c: pres.var(f"a_{c.label}")
    b = lambda c: pres.var(f"b_{c.label}")
    rels = []
    for c1, c2, c3, lam3 in dependent_triples(EAStructure(E, p)):
        t1 = pmul(a(c1), pmul(b(c2), b(c3), p), p)
        t2 = pmul(b(c1), pmul(a(c2), b(c3), p), p)
        t3 = pscale(pmul(b(c1), pmul(b(c2), a(c3), p), p), lam3, p)
        rels.append(padd(padd(t1, t2, p), t3, p))
    return rels


@pytest.mark.parametrize("p, r", [(2, 2), (2, 3), (3, 2), (3, 3), (5, 2)])
def test_Rtotal_relations_match_the_three_term_sum(p, r):
    E = elementary_abelian(p, r)
    got = present_Rtotal(E, p).relations
    ref = _reference_Rtotal_relations(E, p)
    assert [list(g.items()) for g in got] == [list(f.items()) for f in ref]
    # at odd p some triple has lam3 != 1, so the scalar is exercised
    assert p == 2 or any(lam3 != 1 for *_, lam3 in dependent_triples(EAStructure(E, p)))
