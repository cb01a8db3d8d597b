import itertools
import math
import random

import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from permspec.groups import (
    FiniteGroup,
    GroupError,
    cyclic,
    dihedral,
    elementary_abelian,
    frattini,
    from_permutations,
    p_subgroups,
    product,
    quaternion,
    quotient,
)
from permspec import sections
from permspec.spectra import glue
from permspec.sections import (
    SectionCategory,
    SectionMorphism,
    SectionObject,
    induced_map,
    morphism_condition,
)

from references import (
    has_hom_by_elements,
    is_section_by_loops,
    maxel_by_pairs,
    maximal_spans_all_pairs,
    quotient_by_cosets,
    relabelled,
    sections_by_pairs,
    subgroup_as_group,
    subgroups_by_pairs,
)


# (group, p, object count, maximal classes, maximal relations)
FIXTURES = [
    (cyclic(2), 2, 3, 1, 0),
    (cyclic(4), 2, 5, 2, 1),
    (cyclic(8), 2, 7, 3, 2),
    (cyclic(9), 3, 5, 2, 1),
    (cyclic(27), 3, 7, 3, 2),
    (elementary_abelian(2, 2), 2, 12, 1, 0),
    (elementary_abelian(2, 3), 2, 66, 1, 0),
    (dihedral(8), 2, 28, 3, 5),
    (quaternion(), 2, 14, 2, 1),
]


def test_fixture_counts():
    for G, p, nobj, nmax, nrel in FIXTURES:
        cat = SectionCategory(G, p)
        assert len(cat.objects()) == nobj, (G.order, p)
        assert len(cat.maxel()) == nmax, (G.order, p)
        assert len(cat.maximal_relations()) == nrel, (G.order, p)


def test_d8_maximal_sections():
    D8 = dihedral(8)
    cat = SectionCategory(D8, 2)
    shapes = sorted((x.H.order, x.K.order) for x in cat.maxel())
    # the two Klein subgroups (kernel 1) and the top section D8 / center
    assert shapes == [(4, 1), (4, 1), (8, 2)]


def test_q8_maximal_sections():
    cat = SectionCategory(quaternion(), 2)
    shapes = sorted((x.H.order, x.K.order) for x in cat.maxel())
    assert shapes == [(2, 1), (8, 2)]
    rels = cat.maximal_relations()
    assert len(rels) == 1
    (r,) = rels
    # the single relation has apex (Z, Z): rank-zero overlap of the two feet
    assert (r.apex.H.order, r.apex.K.order) == (2, 2)


def test_d8_relation_apexes():
    cat = SectionCategory(dihedral(8), 2)
    apexes = sorted(
        (r.apex.H.order, r.apex.K.order, r.f1.target.H.order, r.f2.target.H.order)
        for r in cat.maximal_relations()
    )
    # two conjugation self-relations on the Klein subgroups, two side spans
    # from rank-1 sections of the Kleins up to the top section, one bottom
    # span between the two Kleins
    assert apexes == [
        (2, 1, 4, 4),
        (4, 1, 4, 4),
        (4, 1, 4, 4),
        (4, 2, 4, 8),
        (4, 2, 4, 8),
    ]


def test_section_object_validation():
    D8 = dihedral(8)
    full = D8.full_subgroup()
    with pytest.raises(GroupError):
        SectionObject(full, D8.trivial_subgroup(), 2)  # D8/1 not elem abelian
    from permspec.groups import center

    SectionObject(full, center(D8), 2)  # fine: D8/Z is Klein


def test_rank():
    K4 = elementary_abelian(2, 2)
    cat = SectionCategory(K4, 2)
    ranks = sorted(x.rank() for x in cat.objects())
    assert ranks == [0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1, 2]
    # |H/K| = p^rank on every section of D16 (ranks 0 to 2) and C3xC3
    for G, p in ((dihedral(16), 2), (elementary_abelian(3, 2), 3)):
        objs = SectionCategory(G, p).objects()
        assert all(x.H.order == x.K.order * p ** x.rank() for x in objs)
        assert {x.rank() for x in objs} == {0, 1, 2}


POOL = [
    (cyclic(n), p)
    for n in (2, 3, 4, 5, 7, 8, 9, 12, 16)
    for p in (2, 3)
    if n % p == 0
] + [
    (elementary_abelian(2, 2), 2),
    (elementary_abelian(2, 3), 2),
    (elementary_abelian(3, 2), 3),
    (product(cyclic(2), cyclic(4)), 2),
    (product(cyclic(4), cyclic(4)), 2),
    (dihedral(8), 2),
    (dihedral(16), 2),
    (quaternion(), 2),
]


def test_everything_is_EI():
    for G, p in POOL:
        assert SectionCategory(G, p).is_EI(), (G.order, p)


def test_composition_closure_and_factorization():
    """Exhaustively: composable morphisms compose, every morphism factors as
    conjugation o inclusion o kernel-shrink, and the induced map on section
    quotients is injective (so rank never drops along a morphism)."""
    rng = random.Random(0)
    checked = 0
    for G, p in POOL:
        cat = SectionCategory(G, p)
        objs = cat.objects()
        pairs = [(x, y) for x in objs for y in objs]
        rng.shuffle(pairs)
        for x, y in pairs[:120]:
            for m in cat.homs(x, y, "raw")[:6]:
                a, b, c = cat.factorize(m)
                assert c.source == x and a.target == y
                # c shrinks the kernel within the same H
                assert c.target.H.elements == x.H.elements
                assert x.K.contains_subgroup(c.target.K)
                # b keeps the kernel and grows H
                assert b.target.K.elements == c.target.K.elements
                assert b.target.H.contains_subgroup(c.target.H)
                # a is an isomorphism and the composite is m
                assert a.is_iso()
                assert c.compose(b).compose(a).g == m.g
                assert x.rank() <= c.target.rank() <= y.rank()
                checked += 1
        # closure under composition on a random sample
        for _ in range(40):
            x, y = rng.choice(pairs)
            ms = cat.homs(x, y, "raw")
            if not ms:
                continue
            m1 = rng.choice(ms)
            zs = [z for z in objs if cat.has_hom(y, z)]
            z = rng.choice(zs)
            m2 = rng.choice(cat.homs(y, z, "raw"))
            m = m1.compose(m2)
            assert morphism_condition(x, z, m.g)
            checked += 1
    assert checked >= 1000


def test_rank_monotone():
    for G, p in POOL:
        cat = SectionCategory(G, p)
        objs = cat.objects()
        for x in objs:
            for y in objs:
                if cat.has_hom(x, y):
                    assert x.rank() <= y.rank(), (G.order, p)


def test_morphism_condition_rejects_kernel_growth():
    # the target kernel must sit inside the (conjugated) source kernel:
    # (E, E) -> (E, 1) shrinks it and is allowed, the reverse is not
    E = elementary_abelian(2, 2)
    x = SectionObject(E.full_subgroup(), E.trivial_subgroup(), 2)
    y = SectionObject(E.full_subgroup(), E.full_subgroup(), 2)
    assert morphism_condition(y, x, 0) is True
    assert morphism_condition(x, y, 0) is False
    with pytest.raises(GroupError):
        SectionMorphism(x, y, 0)


def test_hom_reductions_nest():
    cat = SectionCategory(dihedral(8), 2)
    objs = cat.objects()
    for x in objs[:8]:
        for y in objs[:8]:
            raw = cat.homs(x, y, "raw")
            full = cat.homs(x, y, "full")
            assert len(full) <= len(raw)
            assert bool(raw) == bool(full)
            # full keeps one witness per induced functor
            assert len({m.induced_map_key() for m in raw}) == len(full)


def test_maxel_mutually_incomparable():
    for G, p in POOL:
        cat = SectionCategory(G, p)
        reps = cat.maxel()
        for x, y in itertools.combinations(reps, 2):
            assert not (cat.has_hom(x, y) and not cat.has_hom(y, x))
            assert not (cat.has_hom(y, x) and not cat.has_hom(x, y))


# -- the bitmask morphism test against the set-based one it replaced -------------------


def _ref_morphism_condition(x, y, g):
    """K' <= g^{-1} K g and g^{-1} H g <= H', on Python sets of conjugates."""
    G = x.group
    Hg = {G.conj(h, g) for h in x.H.elements}
    if not Hg <= set(y.H.elements):
        return False
    Kg = {G.conj(k, g) for k in x.K.elements}
    return set(y.K.elements) <= Kg


def _ref_induced_map_key(m):
    """The map H -> H'/K' induced by conjugation, as a tuple over H, naming
    each coset x K' by the least element of a frozenset built from it."""
    G = m.source.group
    Kp = set(m.target.K.elements)
    key = []
    for h in m.source.H.elements:
        x = G.conj(h, m.g)
        cs = frozenset(G.mul(x, k) for k in Kp) if Kp else frozenset([x])
        key.append(min(cs))
    return tuple(key)


def _ref_dominates(cat, big, small):
    """small factors through big via some h: y_small -> y_big, with the
    composites built as morphisms and compared by their set-based keys."""
    (yb, f1b, f2b), (ys, f1s, f2s) = big, small
    for h in cat.homs(ys, yb, "raw"):
        if (
            _ref_induced_map_key(h.compose(f1b)) == _ref_induced_map_key(f1s)
            and _ref_induced_map_key(h.compose(f2b)) == _ref_induced_map_key(f2s)
        ):
            return True
    return False


REFERENCE_GROUPS = [
    ("D8", dihedral(8), 2),
    ("Q8", quaternion(), 2),
    ("C4xC4", product(cyclic(4), cyclic(4)), 2),
    ("C2^3", elementary_abelian(2, 3), 2),
    ("C3xS3", product(cyclic(3), dihedral(6)), 3),
    # in the groups above h^g = h^(g^-1) for every h in a p-subgroup, so
    # conjugating by g or by its inverse cannot be told apart there
    ("D16", dihedral(16), 2),
]
REFERENCE_CATEGORIES = [
    (name, SectionCategory(G, p)) for name, G, p in REFERENCE_GROUPS
]


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(REFERENCE_CATEGORIES), st.data())
def test_morphism_condition_matches_set_reference(named, data):
    _, cat = named
    objs = cat.objects()
    x = data.draw(st.sampled_from(objs))
    y = data.draw(st.sampled_from(objs))
    g = data.draw(st.integers(0, cat.G.order - 1))
    got = morphism_condition(x, y, g)
    assert got is _ref_morphism_condition(x, y, g)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(REFERENCE_CATEGORIES), st.data())
def test_conjugation_masks_are_the_conjugates(named, data):
    _, cat = named
    G = cat.G
    S = data.draw(st.sampled_from(p_subgroups(G, cat.p)))
    masks = G.conj_masks(S.elements)
    assert len(masks) == G.order
    for g in range(G.order):
        assert masks[g] == sum(1 << G.conj(a, g) for a in S.elements)
        assert masks[g] == sum(1 << a for a in S.conjugate(g).elements)


@pytest.mark.parametrize("name", [name for name, _, _ in REFERENCE_GROUPS])
def test_category_matches_set_reference(name, monkeypatch):
    """Hom-sets of every reduction, maximal sections and maximal relations
    equal those of a category whose morphism test, induced maps and
    domination test are the set-based ones."""
    G, p = next((G, p) for n, G, p in REFERENCE_GROUPS if n == name)
    cat = SectionCategory(G, p)
    objs = cat.objects()
    homs = {
        (i, j, red): [m.g for m in cat.homs(x, y, red)]
        for i, x in enumerate(objs)
        for j, y in enumerate(objs)
        for red in ("raw", "full")
    }
    maxel = [x.key() for x in cat.maxel()]
    rels = [
        (r.apex.key(), r.f1.g, r.f1.target.key(), r.f2.g, r.f2.target.key())
        for r in cat.maximal_relations()
    ]
    monkeypatch.setattr(sections, "morphism_condition", _ref_morphism_condition)
    # has_hom reads conjugate masks, not morphism_condition: the reference
    # category runs the set-based test for every element instead
    monkeypatch.setattr(SectionCategory, "has_hom", has_hom_by_elements)
    monkeypatch.setattr(SectionMorphism, "induced_map_key", _ref_induced_map_key)
    monkeypatch.setattr(SectionCategory, "_dominates", _ref_dominates)
    ref = SectionCategory(G, p)
    robjs = ref.objects()
    assert [x.key() for x in robjs] == [x.key() for x in objs]
    for (i, j, red), gs in homs.items():
        assert [m.g for m in ref.homs(robjs[i], robjs[j], red)] == gs
    assert [x.key() for x in ref.maxel()] == maxel
    assert [
        (r.apex.key(), r.f1.g, r.f1.target.key(), r.f2.g, r.f2.target.key())
        for r in ref.maximal_relations()
    ] == rels


QUOTIENT_SECTION_GROUPS = REFERENCE_GROUPS + [
    ("D8xC2-relabelled", relabelled(product(dihedral(8), cyclic(2)), 11), 2),
]


@pytest.mark.parametrize(
    "name, G, p", QUOTIENT_SECTION_GROUPS, ids=[n for n, _, _ in QUOTIENT_SECTION_GROUPS]
)
def test_section_quotient_matches_the_two_step_reference(name, G, p):
    """quotient(H, K) in one table equals H realized as its own group, K
    re-indexed inside it and the quotient of that group taken by cosets."""
    objects = SectionCategory(G, p).objects()
    assert len(objects) > 2
    for x in objects:
        Q, proj = quotient(x.H, x.K)
        Hgrp, embed = subgroup_as_group(x.H)
        index = {h: i for i, h in enumerate(embed)}
        Q_ref, proj_ref = quotient_by_cosets(
            Hgrp, Hgrp.subgroup(index[k] for k in x.K.elements)
        )
        assert np.array_equal(Q.table, Q_ref.table)
        assert Q.names == Q_ref.names
        assert proj.reps == [embed[r] for r in proj_ref.reps]
        assert [proj.map[h] for h in embed] == proj_ref.map
        assert all(proj.map[g] is None for g in range(G.order) if g not in index)


S4 = from_permutations(4, [[[0, 1]], [[0, 1, 2, 3]]])
LARGER_GROUPS = [
    ("D8xC2", product(dihedral(8), cyclic(2)), 2),
    ("S4-p2", S4, 2),
    ("S4-p3", S4, 3),
]
MAXEL_GROUPS = (
    [(f"pool-{i}-order{G.order}-p{p}", G, p) for i, (G, p) in enumerate(POOL)]
    + REFERENCE_GROUPS
    + LARGER_GROUPS
    + [("C2^4", elementary_abelian(2, 4), 2)]
)


def _relabelled(G):
    # relabelled(G, k) needs k prime to |G| - 1
    k = next(k for k in itertools.count(5) if math.gcd(k, G.order - 1) == 1)
    return relabelled(G, k)


@pytest.mark.parametrize(
    "G, p",
    [(G, p) for _, G, p in MAXEL_GROUPS]
    + [(_relabelled(G), p) for _, G, p in MAXEL_GROUPS],
    ids=[name for name, _, _ in MAXEL_GROUPS]
    + [f"{name}-relabelled" for name, _, _ in MAXEL_GROUPS],
)
def test_maxel_matches_the_pairwise_reference(G, p):
    """The shape rule keeps the representatives, in the order, of the loop
    that tests both hom directions for every pair of objects."""
    cat = SectionCategory(G, p)
    assert [x.key() for x in cat.maxel()] == [x.key() for x in maxel_by_pairs(cat)]


def _is_frattini(x):
    return set(x.K.elements) == frattini(x.H, x.p)


@pytest.mark.parametrize(
    "G, p",
    [(G, p) for _, G, p in MAXEL_GROUPS]
    + [(_relabelled(G), p) for _, G, p in MAXEL_GROUPS]
    + [(elementary_abelian(2, 5), 2)],
    ids=[name for name, _, _ in MAXEL_GROUPS]
    + [f"{name}-relabelled" for name, _, _ in MAXEL_GROUPS]
    + ["C2^5"],
)
def test_maxel_compares_frattini_sections_only(G, p, monkeypatch):
    """Every section records whether K = Phi(H), and maxel tests only pairs
    of sections (H, Phi(H)), so each section it returns is one."""
    cat = SectionCategory(G, p)
    assert all(x.is_frattini is _is_frattini(x) for x in cat.objects())
    pairs = []
    has_hom = cat.has_hom

    def recording(x, y):
        pairs.append((x, y))
        return has_hom(x, y)

    monkeypatch.setattr(cat, "has_hom", recording)
    maxel = cat.maxel()
    assert maxel and all(_is_frattini(x) for x in maxel)
    assert all(_is_frattini(x) and _is_frattini(y) for x, y in pairs)


def _heisenberg(p):
    """The upper unitriangular 3x3 matrices over F_p, (a, b, c) at index
    a p^2 + b p + c with (a, b, c)(a', b', c') = (a + a', b + b', c + c' + ab').
    For odd p it has exponent p, so its p-th powers alone generate 1 and its
    commutators generate the centre."""
    def index(a, b, c):
        return (a % p) * p * p + (b % p) * p + c % p

    elems = list(itertools.product(range(p), repeat=3))
    return FiniteGroup([
        [index(a + x, b + y, c + z + a * y) for x, y, z in elems] for a, b, c in elems
    ])


HEIS27 = _heisenberg(3)
OBJECT_GROUPS = MAXEL_GROUPS + [("Heis27-p3", HEIS27, 3)]


@pytest.mark.parametrize(
    "G, p",
    [(G, p) for _, G, p in OBJECT_GROUPS]
    + [(_relabelled(G), p) for _, G, p in OBJECT_GROUPS],
    ids=[name for name, _, _ in OBJECT_GROUPS]
    + [f"{name}-relabelled" for name, _, _ in OBJECT_GROUPS],
)
def test_objects_match_the_pairwise_reference(G, p):
    """Phi(H) <= K <= H keeps the sections, in the order, of the loop that
    tests containment, normality and every p-th power and commutator for
    every pair of p-subgroups."""
    cat = SectionCategory(G, p)
    assert [x.key() for x in cat.objects()] == sections_by_pairs(cat)


def test_section_check_rejects_what_the_reference_rejects():
    """On every pair of subgroups of D8, Q8 and S4 at p = 2, and of the
    Heisenberg group of order 27 at p = 3, SectionObject raises GroupError
    exactly when the one-test-at-a-time reference rejects the pair, and
    rejections for each of its reasons occur."""
    reasons = set()
    for G, p in ((dihedral(8), 2), (quaternion(), 2), (S4, 2), (HEIS27, 3)):
        subs = [G.subgroup(e) for e in subgroups_by_pairs(G)]  # S4 is no 2-group
        for H in subs:
            for K in subs:
                want = is_section_by_loops(H, K, p)
                try:
                    SectionObject(H, K, p)
                    got = True
                except GroupError:
                    got = False
                assert got is want, (G.order, H.elements, K.elements)
                if not want and H.contains_subgroup(K):
                    reasons.add(
                        "not p" if not H.is_p_group(p)
                        else "not normal" if not K.is_normal(H)
                        else "a p-th power outside K"
                        if any(G.power(a, p) not in K.elements for a in H.elements)
                        else "only a commutator outside K"
                    )
    assert reasons == {
        "not p", "not normal", "a p-th power outside K", "only a commutator outside K"
    }


def _conjugate_keys(cat, x):
    return {
        (x.H.conjugate(g).elements, x.K.conjugate(g).elements)
        for g in range(cat.G.order)
    }


@pytest.mark.parametrize(
    "G, p", [(G, p) for _, G, p in MAXEL_GROUPS], ids=[n for n, _, _ in MAXEL_GROUPS]
)
def test_classes_are_the_first_section_of_each_conjugacy_class(G, p):
    """Checked with conjugate subgroups built element by element: every
    section is conjugate to exactly one representative (so no two
    representatives are conjugate), and each representative comes first
    among the sections of its class."""
    cat = SectionCategory(G, p)
    index = {x.key(): i for i, x in enumerate(cat.objects())}
    classes = [_conjugate_keys(cat, r) for r in cat._classes]
    for x in cat.objects():
        assert sum(x.key() in keys for keys in classes) == 1
    for r, keys in zip(cat._classes, classes):
        assert index[r.key()] == min(index[k] for k in keys)


@pytest.mark.parametrize("name", [name for name, _, _ in LARGER_GROUPS])
def test_classes_are_fewer_than_the_sections(name):
    """Some sections of these groups are conjugate, so the apexes of
    test_maximal_relations_match_the_all_pairs_reference, whose reference
    takes every section as an apex, are a proper subset there."""
    G, p = next((G, p) for n, G, p in LARGER_GROUPS if n == name)
    cat = SectionCategory(G, p)
    assert len(cat._classes) < len(cat.objects())


HOM_CATEGORIES = REFERENCE_CATEGORIES + [
    (name, SectionCategory(G, p)) for name, G, p in LARGER_GROUPS
]


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(HOM_CATEGORIES), st.data())
def test_has_hom_matches_the_element_loop(named, data):
    """has_hom, with its shape filter and distinct conjugates, answers as
    morphism_condition tried at every g, on pairs the filter rejects too."""
    _, cat = named
    objs = cat.objects()
    x = data.draw(st.sampled_from(objs))
    y = data.draw(st.sampled_from(objs))
    want = any(morphism_condition(x, y, g) for g in range(cat.G.order))
    assert cat.has_hom(x, y) is want


def test_has_hom_sees_every_outcome():
    """On all pairs of sections of D8 and of S4 at p = 2, has_hom equals the
    element loop, and pairs rejected by shape, accepted and rejected after
    the conjugate test all occur."""
    seen = set()
    for G in (dihedral(8), S4):
        cat = SectionCategory(G, 2)
        for x in cat.objects():
            for y in cat.objects():
                got = cat.has_hom(x, y)
                assert got is has_hom_by_elements(cat, x, y)
                shaped = x.H.order <= y.H.order and y.K.order <= x.K.order
                seen.add((shaped, got))
    assert seen == {(False, False), (True, True), (True, False)}


def test_conjugates_are_distinct_and_start_at_the_section():
    cat = SectionCategory(S4, 2)
    G = cat.G
    for x in cat.objects():
        pairs = {
            (sum(1 << a for a in x.H.conjugate(g).elements),
             sum(1 << a for a in x.K.conjugate(g).elements))
            for g in range(G.order)
        }
        assert len(x.conjugates) == len(pairs) and set(x.conjugates) == pairs
        assert x.conjugates[0] == (sum(1 << a for a in x.H.elements),
                                   sum(1 << a for a in x.K.elements))
        assert x.shape == (x.H.order, x.K.order)


def _mask(S):
    return sum(1 << a for a in S.elements)


def _assert_masks_kept(x):
    G = x.group
    assert x.h_masks == G.conj_masks(x.H.elements)
    assert x.k_masks == G.conj_masks(x.K.elements)
    assert x.h_masks == [_mask(x.H.conjugate(g)) for g in range(G.order)]
    assert x.k_masks == [_mask(x.K.conjugate(g)) for g in range(G.order)]
    assert x.conjugates == tuple(dict.fromkeys(zip(x.h_masks, x.k_masks)))


@pytest.mark.parametrize("name", [name for name, _ in REFERENCE_CATEGORIES])
def test_sections_keep_the_conjugate_masks_of_H_and_K(name):
    """The mask lists morphism_condition reads are those of H^g and K^g, on
    the category's objects and on the sections factorize builds."""
    cat = dict(REFERENCE_CATEGORIES)[name]
    objs = cat.objects()
    for x in objs:
        _assert_masks_kept(x)
    for x, y in itertools.islice(itertools.product(objs, objs), 0, None, 7):
        for m in cat.homs(x, y, "raw")[:2]:
            for f in cat.factorize(m):
                _assert_masks_kept(f.source)
                _assert_masks_kept(f.target)


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(REFERENCE_CATEGORIES), st.data())
def test_induced_map_matches_set_reference(named, data):
    _, cat = named
    objs = cat.objects()
    x = data.draw(st.sampled_from(objs))
    y = data.draw(st.sampled_from(objs))
    g = data.draw(st.integers(0, cat.G.order - 1))
    m = SectionMorphism(x, y, g, check=False)
    assert induced_map(x, y, g) == _ref_induced_map_key(m)
    assert m.induced_map_key() == _ref_induced_map_key(m)


def _spans(cat, x1, x2):
    return [
        (y, f1, f2)
        for y in cat.objects()
        for f1 in cat.homs(y, x1, "raw")
        for f2 in cat.homs(y, x2, "raw")
    ]


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(REFERENCE_CATEGORIES), st.data())
def test_dominates_matches_reference(named, data):
    """The domination test on spans between two maximal sections equals the
    one that builds h.compose(f) and compares set-based keys."""
    _, cat = named
    maxel = cat.maxel()
    x1 = data.draw(st.sampled_from(maxel))
    x2 = data.draw(st.sampled_from(maxel))
    spans = _spans(cat, x1, x2)
    assume(spans)
    big = data.draw(st.sampled_from(spans))
    small = data.draw(st.sampled_from(spans))
    assert cat._dominates(big, small) is _ref_dominates(cat, big, small)


def test_dominates_reference_sees_both_answers():
    """Over all spans into the maximal sections of D8, both tests agree and
    each answer occurs, so the comparison is not vacuous."""
    cat = SectionCategory(dihedral(8), 2)
    seen = set()
    for x1, x2 in itertools.combinations_with_replacement(cat.maxel(), 2):
        spans = _spans(cat, x1, x2)
        for big in spans[::3]:
            for small in spans[::2]:
                got = cat._dominates(big, small)
                assert got is _ref_dominates(cat, big, small)
                seen.add(got)
    assert seen == {True, False}


@pytest.mark.parametrize("name", [name for name, _ in REFERENCE_CATEGORIES])
def test_dominates_rejects_on_has_hom_before_the_element_loop(name, monkeypatch):
    """When no morphism joins the apexes, _dominates is False and tests no
    element; such pairs occur in every reference category."""
    cat = dict(REFERENCE_CATEGORIES)[name]
    calls = []
    condition = sections.morphism_condition

    def counting(x, y, g):
        calls.append(g)
        return condition(x, y, g)

    monkeypatch.setattr(sections, "morphism_condition", counting)
    rejected = 0
    for x1, x2 in itertools.combinations_with_replacement(cat.maxel(), 2):
        # one span per apex: the test reads the apexes alone
        spans = []
        for y in cat.objects():
            f1s, f2s = cat.homs(y, x1, "raw"), cat.homs(y, x2, "raw")
            if f1s and f2s:
                spans.append((y, f1s[-1], f2s[0]))
        for big in spans:
            for small in spans:
                if not cat.has_hom(small[0], big[0]):
                    calls.clear()
                    assert cat._dominates(big, small) is False
                    assert calls == []
                    rejected += 1
    assert rejected


def _swap(span):
    return (span[0], span[2], span[1])


def _precomposed(cat, data, span):
    """A span that `span` dominates by construction: both legs precomposed
    with one drawn morphism h: y' -> apex."""
    y, f1, f2 = span
    sources = [x for x in cat.objects() if cat.has_hom(x, y)]
    h = data.draw(st.sampled_from(cat.homs(data.draw(st.sampled_from(sources)), y, "raw")))
    return (h.source, h.compose(f1), h.compose(f2))


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(REFERENCE_CATEGORIES), st.data())
def test_domination_is_a_preorder_the_swap_keeps(named, data):
    """The facts the sweep of _maximal_spans rests on: domination of spans
    with shared feet is reflexive and transitive, and swapping the legs of
    both spans keeps the answer."""
    _, cat = named
    maxel = cat.maxel()
    x1 = data.draw(st.sampled_from(maxel))
    x2 = data.draw(st.sampled_from(maxel))
    spans = _spans(cat, x1, x2)
    assume(spans)
    a, b, c = (data.draw(st.sampled_from(spans)) for _ in range(3))
    dominates = cat._dominates
    assert dominates(a, a)
    if dominates(a, b) and dominates(b, c):
        assert dominates(a, c)
    assert dominates(_swap(a), _swap(b)) is dominates(a, b)
    # a chain whose premises hold, so transitivity is tested every time
    b = _precomposed(cat, data, a)
    c = _precomposed(cat, data, b)
    assert dominates(a, b) and dominates(b, c) and dominates(a, c)
    assert dominates(_swap(a), _swap(c))


def _relation_keys(relations):
    return [
        (r.apex.key(), r.f1.g, r.f1.target.key(), r.f2.g, r.f2.target.key())
        for r in relations
    ]


@pytest.mark.parametrize(
    "G, p, reduction",
    [(G, p, "full") for _, G, p in REFERENCE_GROUPS + LARGER_GROUPS]
    + [(quaternion(), 2, "raw"), (cyclic(8), 2, "raw")],
    ids=[name for name, _, _ in REFERENCE_GROUPS + LARGER_GROUPS]
    + ["Q8-raw", "C8-raw"],
)
def test_maximal_relations_match_the_all_pairs_reference(G, p, reduction):
    """The sweep keeps the relations, witnesses and order of the three passes
    that test every candidate span against every other."""
    cat = SectionCategory(G, p)
    maxel = cat.maxel()
    want = [
        r
        for i, x1 in enumerate(maxel)
        for x2 in maxel[i:]
        for r in maximal_spans_all_pairs(cat, x1, x2, reduction)
    ]
    assert _relation_keys(cat.maximal_relations(reduction)) == _relation_keys(want)


# -- glue depends on the group it is given, not on earlier calls ---------------------------


def test_glue_of_a_relabelled_equal_table_matches_a_fresh_run():
    """C2 x C2 and dihedral(4) share their multiplication table but not their
    element names; glueing one after the other in one process gives the
    second the output of a fresh process, on sections of its own group."""
    klein, d4 = product(cyclic(2), cyclic(2)), dihedral(4)
    assert klein.table.tolist() == d4.table.tolist()
    glue(klein, 2)
    glued = glue(d4, 2)
    assert all(sec.H.parent is d4 for sec, _ in glued.sections)
    src = str(pathlib.Path(sections.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    fresh = subprocess.run(
        [sys.executable, "-c", "import sys; from permspec.cli import main; "
         "sys.exit(main(sys.argv[1:]))",
         "glue", "--group", "dihedral:4", "--format", "json"],
        capture_output=True, text=True, check=True, env=env,
    )
    assert glued.to_json() == json.loads(fresh.stdout)
