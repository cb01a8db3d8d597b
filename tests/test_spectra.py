import functools
import inspect
import itertools
import json
import pathlib
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from permspec import cli, gradedrings, spectra, twisted
from permspec.gradedrings import HomogeneousIdeal, pmul
from permspec.groups import (
    GroupError,
    cyclic,
    dihedral,
    elementary_abelian,
    product,
    quaternion,
    p_subgroups,
    quotient,
)
from permspec.sections import SectionCategory, SectionMorphism, SectionObject
from permspec.spectra import (
    KIND_CUSTOM,
    KIND_FAMILY,
    KIND_RATIONAL,
    KIND_STRATUM_GENERIC,
    KIND_VERY_CLOSED,
    SectionPlatform,
    SpectrumPoint,
    SpectrumSkeleton,
    components,
    dimension,
    fold,
    glue,
    p_rank,
    skeleton,
    transport_point,
)

from references import (
    check_transport_by_rings,
    checked_transports,
    classify_by_line_search,
    close_pairs,
    closure_by_pairs,
    edges_by_pairs,
    generic_by_pairs,
    height_by_pairs,
    move_ideal,
    order_by_kind,
    rational_preimage_by_search,
    relabelled,
    token_order_by_closure,
)


def _kind_counts(skel):
    return Counter(pt.kind for pt in skel.points)


def _labels(skel, idxs):
    return sorted(skel.points[i].label for i in idxs)


def test_cyclic_prime_v_shape():
    # eta(1) over the two very closed points M(1), M(C_p)
    for p in (2, 3, 5):
        skel = skeleton(cyclic(p), p)
        assert len(skel.points) == 3
        assert _kind_counts(skel) == {KIND_VERY_CLOSED: 2, KIND_STRATUM_GENERIC: 1}
        (g,) = [i for i, pt in enumerate(skel.points) if pt.kind != KIND_VERY_CLOSED]
        assert skel.closure(g) == {0, 1, 2}
        assert skel.height() == 1


def test_cyclic_prime_power_zigzag():
    # 2n+1 points: n+1 very closed alternating with n stratum generics, and
    # every generic specializes to exactly two very closed neighbours
    for p, n, G in ((2, 2, cyclic(4)), (2, 3, cyclic(8)),
                    (3, 2, cyclic(9)), (3, 3, cyclic(27))):
        g = glue(G, p)
        assert len(g.points) == 2 * n + 1
        assert _kind_counts(g) == {
            KIND_VERY_CLOSED: n + 1,
            KIND_STRATUM_GENERIC: n,
        }
        vc = set(g.very_closed())
        for i, pt in enumerate(g.points):
            if pt.kind == KIND_VERY_CLOSED:
                assert g.closure(i) == {i}
            else:
                assert len(g.closure(i)) == 3 and g.closure(i) - {i} <= vc
        assert g.height() == 1


def test_klein_skeleton_exact():
    skel = skeleton(elementary_abelian(2, 2), 2)
    assert len(skel.points) == 13
    assert len(skel.order) == 26
    assert len(skel.edges()) == 21
    assert _kind_counts(skel) == {
        KIND_VERY_CLOSED: 5,
        KIND_STRATUM_GENERIC: 4,
        KIND_RATIONAL: 3,
        KIND_FAMILY: 1,
    }
    by_label = {pt.label: i for i, pt in enumerate(skel.points)}
    # the full-stratum generic point of the skeleton is eta(1)
    assert skel.generic_points() == [by_label["eta(1)"]]
    # rational point closures: themselves, M(1) and M(line)
    lines = {"pt[01](1)": "M({(s^1,1)})", "pt[10](1)": "M({(1,s^1)})",
             "pt[11](1)": "M({(s^1,s^1)})"}
    for lbl, vc in lines.items():
        assert _labels(skel, skel.closure(by_label[lbl])) == sorted(
            [lbl, "M(1)", vc]
        )
    # the quadric family token closes up to M(1) and M(E)
    assert _labels(skel, skel.closure(by_label["token(1)"])) == sorted(
        ["token(1)", "M(1)", "M(full)"]
    )
    # stratum generics eta(N) close to M(N) and M(E)
    for nlbl in ("{(1,s^1)}", "{(s^1,1)}", "{(s^1,s^1)}"):
        assert _labels(skel, skel.closure(by_label[f"eta({nlbl})"])) == sorted(
            [f"eta({nlbl})", f"M({nlbl})", "M(full)"]
        )
    # very closed points admit no further specialization
    for i in skel.very_closed():
        assert skel.closure(i) == {i}


def test_klein_glue_equals_skeleton():
    E = elementary_abelian(2, 2)
    a = skeleton(E, 2).to_json()
    b = glue(E, 2).to_json()
    # a single maximal section, no relations: the glue is the plain skeleton
    # up to the component prefix on labels
    assert len(a["points"]) == len(b["points"])
    assert [pt["kind"] for pt in a["points"]] == [pt["kind"] for pt in b["points"]]
    assert a["edges"] == b["edges"]


def test_d8_glue():
    g = glue(dihedral(8), 2)
    assert len(g.points) == 25
    assert _kind_counts(g) == {
        KIND_STRATUM_GENERIC: 10,
        KIND_VERY_CLOSED: 8,
        KIND_RATIONAL: 4,
        KIND_FAMILY: 3,
    }
    assert [(s.H.order, s.K.order) for s, _ in g.sections] == [
        (4, 1), (4, 1), (8, 2),
    ]
    merged = {
        c: sorted(prov) for c, prov in g.provenance.items() if len(prov) > 1
    }
    # the identifications of the three platforms (two Klein subgroups K, K'
    # and the top section D8/Z):
    assert merged == {
        # shared very closed point of the trivial subgroup
        0: [(0, "M(1)"), (1, "M(1)")],
        # conjugation folds two rational points of each Klein component ...
        2: [(0, "pt[01](1)"), (0, "pt[11](1)")],
        11: [(1, "pt[01](1)"), (1, "pt[11](1)")],
        # ... and identifies the center line across the two components
        3: [(0, "pt[10](1)"), (1, "pt[10](1)")],
        # M(Z) is one point seen from all three platforms
        5: [(0, "M({r^2N})"), (1, "M({r^2N})"), (2, "M(1)")],
        # eta(Z) of each Klein component lands on a rational point upstairs
        6: [(0, "eta({r^2N})"), (2, "pt[01](1)")],
        13: [(1, "eta({r^2N})"), (2, "pt[11](1)")],
        # reflection lines fuse pairwise inside each component
        7: [(0, "M({r^2sN})"), (0, "M({sN})")],
        8: [(0, "eta({r^2sN})"), (0, "eta({sN})")],
        14: [(1, "M({r^1sN})"), (1, "M({r^3sN})")],
        15: [(1, "eta({r^1sN})"), (1, "eta({r^3sN})")],
        # the top of each Klein component is a very closed point upstairs
        9: [(0, "M(full)"), (2, "M({sN})")],
        16: [(1, "M(full)"), (2, "M({r^1sN})")],
    }
    assert len(g.very_closed()) == 8
    assert g.height() == 2


def test_d8_summary_numbers():
    D8 = dihedral(8)
    assert len(components(D8, 2)) == 3
    assert dimension(D8, 2) == 2
    assert p_rank(D8, 2) == 2


def _p_rank_by_sections(G, p):
    """The section-based definition: the largest rank of a section (E, 1)."""
    cat = SectionCategory(G, p)
    return max(x.rank() for x in cat.objects() if x.K.order == 1)


@pytest.mark.parametrize(
    "G, p",
    [
        (dihedral(8), 2),
        (dihedral(16), 2),
        (quaternion(), 2),
        (product(cyclic(4), cyclic(4)), 2),
        (cyclic(27), 3),
    ],
    ids=["D8", "D16", "Q8", "C4xC4", "C27"],
)
def test_p_rank_matches_sections(G, p):
    assert p_rank(G, p) == _p_rank_by_sections(G, p)


def _bare_points(n):
    S = cyclic(2).trivial_subgroup()
    return [SpectrumPoint(S, KIND_VERY_CLOSED, f"x{i}") for i in range(n)]


def test_skeleton_closes_the_order():
    skel = SpectrumSkeleton(_bare_points(3), {(0, 1), (1, 2)})
    assert skel.order == {(0, 1), (1, 2), (0, 2)}
    assert skel.edges() == [(0, 1), (1, 2)]


def test_skeleton_rejects_a_cycle():
    with pytest.raises(AssertionError, match="antisymmetric"):
        SpectrumSkeleton(_bare_points(2), {(0, 1), (1, 0)})


def _check_order_views(skel, pairs):
    # the views read off the successor sets against the pair scans
    n = len(skel.points)
    order = close_pairs(n, pairs)
    assert skel.order == order
    assert skel.edges() == edges_by_pairs(n, order)
    assert all(skel.closure(i) == closure_by_pairs(order, i) for i in range(n))
    assert skel.height() == height_by_pairs(n, order)
    assert skel.generic_points() == generic_by_pairs(n, order)


@st.composite
def _strict_orders(draw):
    """(n, pairs): pairs i < j drawn at random, not closed under composition,
    with the indices relabelled by a random permutation."""
    n = draw(st.integers(0, 14))
    slots = list(itertools.combinations(range(n), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(slots), max_size=len(slots)))
    sigma = draw(st.permutations(range(n)))
    return n, {(sigma[i], sigma[j]) for (i, j), k in zip(slots, keep) if k}


@settings(max_examples=200, deadline=None)
@given(_strict_orders())
def test_order_views_match_the_pair_scans(case):
    n, pairs = case
    _check_order_views(SpectrumSkeleton(_bare_points(n), pairs), pairs)


@pytest.mark.parametrize(
    "build, points, edges",
    [
        (lambda: skeleton(elementary_abelian(3, 3), 3), 134, 336),
        (lambda: skeleton(elementary_abelian(2, 4), 2, cap_rank=4), 409, 1145),
        (lambda: glue(dihedral(8), 2), 25, 45),
        (lambda: glue(dihedral(16), 2), 37, 69),
        (lambda: glue(quaternion(), 2), 15, 23),
    ],
    ids=["C3^3", "C2^4", "D8", "D16", "Q8"],
)
def test_order_views_match_the_pair_scans_on_skeletons(monkeypatch, build, points,
                                                       edges):
    # every skeleton built on the way, the platforms' of a glue included
    built = []

    class Recorded(SpectrumSkeleton):
        def __init__(self, points, order, *args, **kwargs):
            order = set(order)
            super().__init__(points, order, *args, **kwargs)
            built.append((self, order))

    monkeypatch.setattr(spectra, "SpectrumSkeleton", Recorded)
    skel = build()
    assert (len(skel.points), len(skel.edges())) == (points, edges)
    assert built[-1][0] is skel
    for case in built:
        _check_order_views(*case)


def test_components_of_p_prime_group():
    # the only maximal section is trivial: its skeleton is the single point M(1)
    comps = components(cyclic(3), 2)
    assert len(comps) == 1
    assert comps[0][0].rank() == 0


def test_q8_glue():
    Q8 = quaternion()
    g = glue(Q8, 2)
    assert len(g.points) == 15
    # only M(Z) ~ M(1)-upstairs is identified across the two platforms
    merged = [sorted(prov) for prov in g.provenance.values() if len(prov) > 1]
    assert merged == [[(0, "M(full)"), (1, "M(1)")]]
    assert len(components(Q8, 2)) == 2
    assert dimension(Q8, 2) == 2
    assert p_rank(Q8, 2) == 1


def test_raw_reduction_agrees():
    for G in (cyclic(8), quaternion(), dihedral(8), C4XC4, dihedral(16)):
        a = glue(G, 2, reduction="raw").to_json()
        b = glue(G, 2, reduction="full").to_json()
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_fold_klein_swap():
    E = elementary_abelian(2, 2)
    skel = skeleton(E, 2)
    folded = fold(skel, [[0, 1], [1, 0]])
    # swapping the basis identifies M/eta of the two swapped lines and the
    # two swapped rational points; the diagonal line, the token and the
    # trivial/full strata stay put
    assert len(folded.points) == 10
    merged = sorted(
        tuple(sorted(lbl for _, lbl in prov))
        for prov in folded.provenance.values()
        if len(prov) > 1
    )
    assert merged == [
        ("M({(1,s^1)})", "M({(s^1,1)})"),
        ("eta({(1,s^1)})", "eta({(s^1,1)})"),
        ("pt[01](1)", "pt[10](1)"),
    ]


def test_fold_identity_is_noop():
    E = elementary_abelian(2, 2)
    skel = skeleton(E, 2)
    folded = fold(skel, [[1, 0], [0, 1]])
    assert len(folded.points) == len(skel.points)


def test_fold_rejects_singular_matrix():
    E = elementary_abelian(2, 2)
    skel = skeleton(E, 2)
    with pytest.raises(GroupError):
        fold(skel, [[1, 1], [1, 1]])


def _reference_lines(ea):
    """One (label, sorted elements) per line, by search: every nonzero vector
    in lex order whose first nonzero entry is 1, with its multiples."""
    out = []
    for vec in itertools.product(range(ea.p), repeat=ea.rank):
        if any(vec) and next(c for c in vec if c) == 1:
            line = {ea.elem_of[tuple(k * c % ea.p for c in vec)] for k in range(ea.p)}
            out.append(("".join(str(c) for c in vec), tuple(sorted(line))))
    return out


def test_lines_are_the_coordinates():
    # the lines are read off the coordinates: same labels, same order
    for p, r in ((2, 1), (2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (5, 2)):
        E = elementary_abelian(p, r)
        spec = twisted.local_ring(E, E.trivial_subgroup(), p)
        lines = spectra._lines(spec)
        assert lines == _reference_lines(spec.ea)
        assert len(lines) == (p**r - 1) // (p - 1)


def test_rank3_strata_skeletons():
    # every elementary abelian skeleton has a unique generic point and its
    # maximal points are exactly the very closed ones
    for p, expected in ((2, 31), (3, 55)):
        E = elementary_abelian(p, 3)
        skel = skeleton(E, p, level="strata")
        assert len(skel.points) == expected
        assert len(skel.generic_points()) == 1
        for i in range(len(skel.points)):
            closed = skel.closure(i) == {i}
            assert closed == (skel.points[i].kind == KIND_VERY_CLOSED)


@pytest.mark.parametrize(
    "G", [dihedral(8), dihedral(16), quaternion(), product(cyclic(4), cyclic(4))],
    ids=["D8", "D16", "Q8", "C4xC4"],
)
def test_glue_builds_one_skeleton(monkeypatch, G):
    # each maximal section's order is collapsed as it is computed: only the
    # glued skeleton is built
    built = []

    class Counted(SpectrumSkeleton):
        def __init__(self, *args, **kwargs):
            built.append(len(args[0]))
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(spectra, "SpectrumSkeleton", Counted)
    glued = glue(G, 2)
    assert built == [len(glued.points)]


def test_transport_functoriality():
    # composing transports along a factorized morphism agrees with the
    # direct transport, for every point over every D8 morphism between
    # maximal sections and their apexes
    D8, p = dihedral(8), 2
    cat = SectionCategory(D8, p)
    checked = 0
    for rel in cat.maximal_relations():
        for leg in (rel.f1, rel.f2):
            a, b, c = cat.factorize(leg)
            src, after_c, after_b, tgt = (
                SectionPlatform(sec, p)
                for sec in (leg.source, c.target, b.target, leg.target)
            )
            for pt in src.points:
                direct = transport_point(leg, src, tgt, pt)
                stepped = transport_point(c, src, after_c, pt)
                stepped = transport_point(b, after_c, after_b, stepped)
                stepped = transport_point(a, after_b, tgt, stepped)
                assert direct.key() == stepped.key()
                assert direct.kind == stepped.kind
                checked += 1
    assert checked > 0


def test_transport_preserves_very_closed():
    D8, p = dihedral(8), 2
    cat = SectionCategory(D8, p)
    for rel in cat.maximal_relations():
        ap = SectionPlatform(rel.apex, p)
        for leg in (rel.f1, rel.f2):
            fp = SectionPlatform(leg.target, p)
            for pt in ap.points:
                img = transport_point(leg, ap, fp, pt)
                if pt.kind == KIND_VERY_CLOSED:
                    assert img.kind == KIND_VERY_CLOSED


def test_json_and_dot_output():
    skel = skeleton(elementary_abelian(2, 2), 2)
    data = skel.to_json()
    assert len(data["points"]) == 13
    assert all({"id", "kind", "label"} <= set(pt) for pt in data["points"])
    assert sorted(tuple(e) for e in data["edges"]) == skel.edges()
    dot = skel.to_dot()
    assert dot.startswith("digraph") and dot.count("->") == len(skel.edges())


def test_glued_json_provenance():
    g = glue(dihedral(8), 2)
    data = g.to_json()
    assert len(data["points"]) == 25
    json.dumps(data)  # serializable


# -- subspace ideals and kinds, checked against the line searches ---------------------


EA_GROUPS = [(2, 3), (3, 2), (5, 2)]


@pytest.mark.parametrize("p, r", EA_GROUPS, ids=["C2^3", "C3^2", "C5^2"])
def test_subspace_of_inverts_subspace_ideal(p, r):
    # distinct subgroups A of a stratum quotient have distinct ideals, so the
    # interval [S, pre(A)] and the ideal name the same point; _kind_of reads
    # the kind off |A| as the line search finds it from the ideal
    E = elementary_abelian(p, r)
    kinds = Counter()
    for S in p_subgroups(E, p):
        Q, _, spec = spectra.stratum_data(E, S, p)
        rank_w = spec.ea.rank
        ideals = set()
        for A in p_subgroups(Q, p):
            ideal = spectra._subspace_ideal(spec, A.elements)
            ideals.add(ideal)
            rank_a = {p ** k: k for k in range(rank_w + 1)}[A.order]
            if rank_a == 0:
                want = KIND_VERY_CLOSED
            elif rank_a == rank_w:
                want = KIND_STRATUM_GENERIC
            elif rank_a == 1:
                want = KIND_RATIONAL
            else:  # 2 <= rank A <= rank W - 1: no named point yet
                want = KIND_CUSTOM
            assert spectra._kind_of(A.order, Q.order, p) == want
            assert classify_by_line_search(spec, ideal) == want
            kinds[want] += 1
        assert len(ideals) == len(p_subgroups(Q, p))
    # one A per Quillen stratum of each stratum quotient
    assert kinds == {
        (2, 3): {KIND_VERY_CLOSED: 16, KIND_STRATUM_GENERIC: 15,
                 KIND_RATIONAL: 28, KIND_CUSTOM: 7},
        (3, 2): {KIND_VERY_CLOSED: 6, KIND_STRATUM_GENERIC: 5, KIND_RATIONAL: 4},
        (5, 2): {KIND_VERY_CLOSED: 8, KIND_STRATUM_GENERIC: 7, KIND_RATIONAL: 6},
    }[p, r]


@pytest.mark.parametrize("p, r", EA_GROUPS, ids=["C2^3", "C3^2", "C5^2"])
def test_subspace_of_reads_lines(p, r):
    # a line ideal is the ideal of a subgroup of order p and has the kind
    # _kind_of gives it; a fattened line ideal and a token ideal are the
    # ideal of no subgroup, and the line search finds them Custom
    E = elementary_abelian(p, r)
    lines = 0
    for S in p_subgroups(E, p):
        Q, _, spec = spectra.stratum_data(E, S, p)
        ea = spec.ea
        subs = {A.elements for A in p_subgroups(Q, p)}
        named = {spectra._subspace_ideal(spec, A) for A in subs}
        for _, line in spectra._lines(spec):
            assert len(line) == p and line in subs
            ideal = spectra._subspace_ideal(spec, line)
            kind = spectra._kind_of(len(line), Q.order, p)
            assert kind == (KIND_RATIONAL if ea.rank >= 2 else KIND_STRATUM_GENERIC)
            assert classify_by_line_search(spec, ideal) == kind
            lines += 1
            if ea.rank < 2:
                continue
            # the line ideal plus the square of a coordinate off the line has
            # the same variables but is no rational point
            lbl = next(l for l, c in spec.coordinate.items()
                       if ea.functional_on(c.f, line[1]))
            x = spec.presentation.var(spec.plus_of[lbl])
            fatter = HomogeneousIdeal(
                spec.presentation, [dict(g) for g in ideal.generators] + [pmul(x, x, p)]
            )
            assert fatter not in named
            assert classify_by_line_search(spec, fatter) == KIND_CUSTOM
        if ea.rank >= 2:
            token = spectra._token_ideal(spec)
            assert token not in named
            assert classify_by_line_search(spec, token) == KIND_CUSTOM
    # one line per order-p subgroup of each stratum quotient
    assert lines == {(2, 3): 7 + 7 * 3 + 7, (3, 2): 4 + 4, (5, 2): 6 + 6}[p, r]


def test_move_ideal_carries_lines_forward():
    # the ring path the interval transports stand for: moving the ideal of
    # the line L gives the ideal of iota(L), along an automorphism of C3^2
    # that permutes the four lines in a 4-cycle (so it and its inverse send
    # every line to different lines), and from the generic point of a rank-1
    # stratum into C3^2
    p = 3
    E = elementary_abelian(p, 2)
    _, _, spec = spectra.stratum_data(E, E.trivial_subgroup(), p)
    ea = spec.ea
    theta = [ea.elem_of[(v[1], (v[0] + v[1]) % p)]
             for v in (ea.vec_of[x] for x in range(E.order))]
    moved = 0
    for _, line in spectra._lines(spec):
        ideal = spectra._subspace_ideal(spec, line)
        got = move_ideal(ideal, spec, spec, theta)
        image = tuple(sorted(theta[x] for x in line))
        assert got == spectra._subspace_ideal(spec, image)
        moved += image != line
    assert moved == 4
    for S in p_subgroups(E, p):
        if S.order != p:
            continue
        Q, proj, specQ = spectra.stratum_data(E, S, p)
        # a line L' apart from S maps onto Q; iota: Q -> E inverts that
        L = next(T for T in p_subgroups(E, p) if T.order == p and T.elements != S.elements)
        iota = [next(x for x in L.elements if proj.map[x] == q) for q in range(p)]
        zero = HomogeneousIdeal(specQ.presentation, [])
        got = move_ideal(zero, specQ, spec, iota)
        assert got == spectra._subspace_ideal(spec, L.elements)


@pytest.mark.parametrize(
    "p, r, level",
    [(2, 2, "rational"), (3, 2, "rational"), (5, 2, "rational"),
     (2, 3, "rational"), (3, 3, "rational"), (2, 4, "rational"),
     (2, 3, "strata"), (3, 3, "strata"), (2, 4, "strata")],
    ids=["C2^2", "C3^2", "C5^2", "C2^3", "C3^3", "C2^4",
         "C2^3-strata", "C3^3-strata", "C2^4-strata"],
)
def test_interval_order_matches_the_rules_by_kind(p, r, level):
    E = elementary_abelian(p, r)
    points = spectra._named_points(E, p, level, r)
    # the rows of points other than family tokens, which are ordered by
    # their zero subspaces
    tokens = {j for j, pt in enumerate(points) if pt.kind == KIND_FAMILY}
    order = {
        (i, j) for (i, j) in spectra._specialization_order(E, p, points)
        if i not in tokens
    }
    assert order == order_by_kind(E, p, points)
    assert (level == "rational") == any(j in tokens for (_, j) in order)


@pytest.mark.parametrize("p, r", EA_GROUPS, ids=["C2^3", "C3^2", "C5^2"])
def test_rational_points_specialize_to_the_searched_preimage(p, r):
    E = elementary_abelian(p, r)
    named = spectra._named_points(E, p, "rational", spectra.DEFAULT_RANK_CAP)
    # tokens are not needed here
    points = [pt for pt in named if pt.kind in (KIND_VERY_CLOSED, KIND_RATIONAL)]
    order = spectra._specialization_order(E, p, points)
    rational = 0
    for i, pt in enumerate(points):
        if pt.kind != KIND_RATIONAL:
            continue
        pre = rational_preimage_by_search(E, p, pt)
        below = {points[j].stratum.elements for (a, j) in order if a == i}
        assert below == {pt.stratum.elements, pre.elements}
        rational += 1
    assert rational > 0


def _token_pairs(E, p, points):
    return {
        (i, j) for (i, j) in spectra._specialization_order(E, p, points)
        if points[i].kind == KIND_FAMILY
    }


@pytest.mark.parametrize(
    "p, r, k",
    [(2, 3, 0), (3, 2, 0), (5, 2, 0), (3, 3, 0), (2, 4, 0),
     (2, 3, 5), (3, 2, 5), (5, 2, 7), (3, 3, 5), (2, 4, 7)],
    ids=["C2^3", "C3^2", "C5^2", "C3^3", "C2^4", "C2^3-relabelled",
         "C3^2-relabelled", "C5^2-relabelled", "C3^3-relabelled", "C2^4-relabelled"],
)
def test_stratum_of_a_stratum_quotient_is_the_stratum_quotient(p, r, k):
    # quotient numbers cosets by their least elements, so for S_P <= S_Q the
    # quotient (E/S_P)/(S_Q/S_P) has the table of E/S_Q and the isomorphism
    # iota between them, through least representatives, is the identity
    E = elementary_abelian(p, r)
    E = relabelled(E, k) if k else E
    subs = p_subgroups(E, p)
    for S_P in subs:
        Qp, projp = quotient(E, S_P)
        for S_Q in subs:
            if not S_Q.contains_subgroup(S_P):
                continue
            Hbar = Qp.subgroup(sorted({int(projp.map[x]) for x in S_Q.elements}))
            Q2, proj2 = quotient(Qp, Hbar)
            Qq, projq = quotient(E, S_Q)
            assert Q2 == Qq
            iota = [int(projq.map[projp.reps[proj2.reps[q]]]) for q in range(Q2.order)]
            assert iota == list(range(Qq.order))


@pytest.mark.parametrize(
    "p, r, k",
    [(2, 2, 0), (3, 2, 0), (5, 2, 0), (7, 2, 0), (2, 3, 0)]
    + [(2, 3, k) for k in (2, 3, 5)] + [(3, 2, k) for k in (3, 5, 7)]
    + [(5, 2, k) for k in (5, 7, 11)],
)
def test_token_rule_matches_the_closure_reference(p, r, k):
    # the zero-subspace rule against closure_ideal containment: (a) a
    # stratum S_j with S_j L = E lies whole in the closure, (b) points inside
    # [S, L] and (c) the tokens with the same L do, and nothing else does
    E = elementary_abelian(p, r)
    E = relabelled(E, k) if k else E
    points = spectra._named_points(E, p, "rational", r)
    rule = _token_pairs(E, p, points)
    assert rule == token_order_by_closure(E, p, points)
    # rank 2: token(1) specializes to M(1) and M(E) only
    kinds = {points[j].kind for (_, j) in rule}
    assert kinds == ({KIND_VERY_CLOSED} if r == 2 else {
        KIND_VERY_CLOSED, KIND_STRATUM_GENERIC, KIND_RATIONAL, KIND_FAMILY})


TOKEN_PAIRS = pathlib.Path(__file__).resolve().parent / "token_pairs.json"
GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"


@pytest.mark.parametrize("name", ["C3^3", "C2^4"])
def test_token_rule_matches_the_recorded_closure_order(name):
    # the closure reference takes about 50 s on C3^3 and 310 s on C2^4 (one
    # process on a 2-vCPU x86-64 machine), so its token pairs are recorded
    # once, as point labels
    ref = json.loads(TOKEN_PAIRS.read_text())[name]
    E, p = elementary_abelian(ref["p"], ref["rank"]), ref["p"]
    points = spectra._named_points(E, p, "rational", ref["rank"])
    assert len(points) == ref["points"]
    assert sum(pt.kind == KIND_FAMILY for pt in points) == ref["tokens"]
    got = sorted([points[i].label, points[j].label] for (i, j) in _token_pairs(E, p, points))
    assert got == ref["pairs"]
    order = spectra._specialization_order(E, p, points)
    assert len(SpectrumSkeleton(points, order).edges()) == ref["edges"]


C4XC4 = product(cyclic(4), cyclic(4))
C3XS3 = product(cyclic(3), dihedral(6))


@pytest.mark.parametrize(
    "G, p, transported",
    [
        (dihedral(8), 2, {KIND_VERY_CLOSED: 32, KIND_STRATUM_GENERIC: 18,
                          KIND_RATIONAL: 16, KIND_FAMILY: 4}),
        (quaternion(), 2, {KIND_VERY_CLOSED: 2}),
        (C4XC4, 2, {KIND_VERY_CLOSED: 32, KIND_STRATUM_GENERIC: 6, KIND_RATIONAL: 6}),
        (C3XS3, 3, {KIND_VERY_CLOSED: 12, KIND_STRATUM_GENERIC: 10,
                    KIND_RATIONAL: 8, KIND_FAMILY: 2}),
    ],
    ids=["D8", "Q8", "C4xC4", "C3xS3"],
)
def test_classify_matches_the_line_search(monkeypatch, G, p, transported):
    # every transport glue makes, checked against the ring path: the moved
    # ideal is the ideal of the image interval, of the kind the line search
    # finds; isomorphic token transports are tokens
    kinds = checked_transports(monkeypatch)
    glue(G, p)
    assert Counter(kinds) == transported


def test_transport_into_a_larger_stratum():
    # the inclusion of a plane H of C2^3, checked point by point against the
    # ring path: eta(1) and token(1) of H land in the proper V_H, so eta(1)
    # goes to an unnamed Custom point and the token to a Custom point that
    # is no token
    E = elementary_abelian(2, 3)
    one = E.trivial_subgroup()
    H = next(S for S in p_subgroups(E, 2) if S.order == 4)
    x, y = SectionObject(H, one, 2), SectionObject(E.full_subgroup(), one, 2)
    m = SectionMorphism(x, y, 0)
    src, tgt = SectionPlatform(x, 2), SectionPlatform(y, 2)
    found = Counter()
    for pt in src.points:
        img = transport_point(m, src, tgt, pt)
        check_transport_by_rings(m, src, tgt, pt, img)
        named = spectra._locate(tgt.points, img, required=False) is not None
        found[pt.kind, img.kind, named] += 1
    assert found == {
        (KIND_VERY_CLOSED, KIND_VERY_CLOSED, True): 5,
        (KIND_RATIONAL, KIND_RATIONAL, True): 3,
        (KIND_STRATUM_GENERIC, KIND_RATIONAL, True): 3,
        (KIND_STRATUM_GENERIC, KIND_CUSTOM, False): 1,
        (KIND_FAMILY, KIND_CUSTOM, False): 1,
    }


def test_transport_and_fold_build_no_ring(monkeypatch, capsys):
    # named points are found by their intervals and tokens are ordered by
    # their zero subspaces: no ideal is moved, contracted or carried through
    # closure_ideal, and no Groebner basis is computed, while fold and glue
    # identify points and skeletons order them; a point carries no ideal, so
    # none is written before the JSON output asks for it
    E = elementary_abelian(2, 3)
    skel = skeleton(E, 2, level="strata")

    def refuse(*args):
        raise AssertionError("a ring map, Groebner basis or point ideal was built")

    for name in ("contract", "induced_hom", "closure_ideal"):
        assert not hasattr(spectra, name)
        monkeypatch.setattr(twisted, name, refuse)
    monkeypatch.setattr(gradedrings, "buchberger", refuse)
    # an empty Groebner memo, so no warm entry hides a run
    monkeypatch.setattr(gradedrings, "_reduced_basis",
                        functools.cache(gradedrings._reduced_basis.__wrapped__))
    for name in ("_subspace_ideal", "_token_ideal"):
        monkeypatch.setattr(spectra, name, refuse)
    assert "ideal" not in inspect.signature(SpectrumPoint).parameters
    for argv in (["skeleton", "--group", "ea:2:3"], ["glue", "--group", "dihedral:8"],
                 ["fold", "--group", "ea:2:3", "--matrix", "010,001,100"]):
        assert cli.main(argv) == 0
    assert capsys.readouterr().out.count("covering edges") == 3
    with pytest.raises(AssertionError, match="point ideal"):
        skel.to_json()
    folded = fold(skel, [[0, 1, 0], [0, 0, 1], [1, 0, 0]])
    assert (len(folded.points), len(folded.order)) == (15, 38)
    glued = glue(dihedral(8), 2, level="strata")
    assert _kind_counts(glued) == {KIND_VERY_CLOSED: 8, KIND_STRATUM_GENERIC: 10}
    assert len(glued.order) == 34
    rational = skeleton(E, 2)
    assert _kind_counts(rational)[KIND_FAMILY] == 8
    assert (len(rational.points), len(rational.order)) == (67, 247)
    glued = glue(dihedral(8), 2)
    assert _kind_counts(glued) == {KIND_VERY_CLOSED: 8, KIND_STRATUM_GENERIC: 10,
                                   KIND_RATIONAL: 4, KIND_FAMILY: 3}
    assert len(glued.order) == 58
    assert not any(hasattr(pt, "ideal") for pt in rational.points + glued.points)
    # the ideals are written on output alone, as the goldens recorded them
    monkeypatch.undo()
    for golden, built in (("skeleton_c2_3_strata_json", skel),
                          ("glue_d8_json", glued)):
        want = json.loads((GOLDEN / f"{golden}.out").read_text())["points"]
        assert [pt["ideal"] for pt in built.to_json()["points"]] == [
            pt["ideal"] for pt in want]
