"""Finite skeletons of the spectrum, stratum by stratum, and their gluing.

For an elementary abelian p-group E the spectrum is partitioned into strata
indexed by the subgroups S <= E; the S-stratum is homeomorphic to the
homogeneous spectrum of the cohomology of E/S.  A skeleton records the named
points of every stratum:

  * M(S)   -- the very closed point (irrelevant maximal ideal), one per stratum;
  * eta(S) -- the stratum-generic point (zero ideal), when E/S is nontrivial;
  * rational points of strata of rank >= 2, one per order-p subgroup of E/S
    (the ideal cut out by the linear coordinate forms vanishing on the line);
  * one GenericFamily token per stratum of rank >= 2, a stand-in for the
    infinite family of non-rational closed subvarieties, carried by the
    principal ideal of an irreducible binary quadric.

The specialization order between named points is decided by closure_ideal
containment tests, with analytic shortcuts for the kinds whose closures are
known in closed form.  For a general finite group G the skeleton is glued from
the skeletons of the maximal elementary abelian p-sections, identifying the
images of every maximal span of the section category (union-find on points).
"""

import functools
import itertools

from .groups import (
    DEFAULT_ORDER_CAP,
    GroupError,
    ResourceError,
    Subgroup,
    is_elementary_abelian,
    p_rank_of_section,
    p_subgroups,
    quotient,
    subgroup_as_group,
    subgroups,
)
from .gradedrings import HomogeneousIdeal, contract
from .twisted import (
    closure_ideal,
    induced_hom,
    local_ring,
)
from .sections import SectionCategory

DEFAULT_RANK_CAP = 3

KIND_VERY_CLOSED = "VeryClosed"
KIND_STRATUM_GENERIC = "StratumGeneric"
KIND_RATIONAL = "Rational"
KIND_FAMILY = "GenericFamily"
KIND_CUSTOM = "Custom"

_KIND_COLOR = {
    KIND_VERY_CLOSED: "black",
    KIND_STRATUM_GENERIC: "brown",
    KIND_RATIONAL: "green",
    KIND_FAMILY: "red",
    KIND_CUSTOM: "gray",
}


class GlueError(RuntimeError):
    """A transported point could not be matched with a named point."""


def _sub_label(S):
    G = S.parent
    if S.order == 1:
        return "1"
    if S.order == G.order:
        return "full"
    return "{" + ",".join(G.name_of(x) for x in S.elements if x != 0) + "}"


class SpectrumPoint:
    """A named point of a skeleton: a stratum plus a homogeneous ideal."""

    def __init__(self, stratum, ideal, kind, label):
        self.stratum = stratum  # Subgroup of the ambient platform group
        self.ideal = ideal  # HomogeneousIdeal in the stratum's cohomology ring
        self.kind = kind
        self.label = label

    def same_point(self, other):
        return (
            self.stratum.elements == other.stratum.elements
            and self.ideal == other.ideal
        )

    def __repr__(self):
        return f"SpectrumPoint({self.kind}, {self.label})"


class SpectrumSkeleton:
    """Named points with their specialization partial order.

    `order` holds the strict pairs (i, j) meaning point j lies in the closure
    of point i; covering edges and closures are derived views.
    """

    def __init__(self, points, order, provenance=None, sections=None):
        self.points = list(points)
        n = len(self.points)
        rel = set(order)
        # transitive closure (Warshall over the points), then sanity: antisymmetry
        for k in range(n):
            into = [a for a in range(n) if (a, k) in rel]
            out = [b for b in range(n) if (k, b) in rel]
            rel.update((a, b) for a in into for b in out if a != b)
        for (a, b) in rel:
            assert (b, a) not in rel, "specialization order is not antisymmetric"
        self.order = frozenset(rel)
        self.provenance = provenance or {
            i: [(0, pt.label)] for i, pt in enumerate(self.points)
        }
        self.sections = sections  # list of (SectionObject, component index) or None
        self.ambient = None  # set by skeleton() for elementary abelian skeletons
        self.p = None
        self.level = None

    def closure(self, i):
        return {j for (a, j) in self.order if a == i} | {i}

    def edges(self):
        """Covering specializations (from more generic to more special)."""
        out = []
        for (a, b) in self.order:
            if any(
                (a, c) in self.order and (c, b) in self.order
                for c in range(len(self.points))
                if c not in (a, b)
            ):
                continue
            out.append((a, b))
        return sorted(out)

    def very_closed(self):
        return [i for i, pt in enumerate(self.points) if pt.kind == KIND_VERY_CLOSED]

    def generic_points(self):
        """Points whose closure is the entire skeleton."""
        n = len(self.points)
        return [i for i in range(n) if len(self.closure(i)) == n]

    def height(self):
        """Length of the longest specialization chain (number of steps)."""
        memo = {}

        def down(i):
            if i not in memo:
                memo[i] = max(
                    (1 + down(j) for (a, j) in self.order if a == i), default=0
                )
            return memo[i]

        return max((down(i) for i in range(len(self.points))), default=0)

    def to_json(self):
        pts = []
        for i, pt in enumerate(self.points):
            if self.sections:
                comp = self.provenance[i][0][0]
                sec = self.sections[comp][0]
                section = {
                    "H": [int(x) for x in sec.H.elements],
                    "K": [int(x) for x in sec.K.elements],
                }
            else:
                section = {
                    "H": [int(x) for x in pt.stratum.elements],
                    "K": [0],
                }
            pres = pt.ideal.ambient
            pts.append(
                {
                    "id": i,
                    "section": section,
                    "ideal": sorted(pres.format(dict(g)) for g in pt.ideal.generators),
                    "kind": pt.kind,
                    "label": pt.label,
                }
            )
        return {
            "points": pts,
            "edges": [[a, b] for (a, b) in self.edges()],
            "provenance": {
                str(i): [[c, lbl] for (c, lbl) in self.provenance[i]]
                for i in sorted(self.provenance)
            },
        }

    def to_dot(self):
        lines = ["digraph skeleton {", "  rankdir=BT;"]
        for i, pt in enumerate(self.points):
            color = _KIND_COLOR[pt.kind]
            if pt.kind == KIND_STRATUM_GENERIC and pt.stratum.order == 1:
                color = "black"
            lines.append(
                f'  p{i} [label="{pt.label}", color={color}, fontcolor={color}];'
            )
        for (a, b) in self.edges():
            lines.append(f"  p{a} -> p{b};")
        lines.append("}")
        return "\n".join(lines)

    def __repr__(self):
        return (
            f"SpectrumSkeleton({len(self.points)} points, "
            f"{len(self.order)} specializations)"
        )


# -- stratum plumbing ---------------------------------------------------------------

def stratum_data(E, S, p):
    """(quotient group, projection, cohomology ring spec) of the S-stratum."""
    return _stratum_data(E, S.elements, p)


@functools.cache
def _stratum_data(E, elements, p):
    Q, proj = quotient(E, Subgroup(E, elements, check=False))
    return Q, proj, local_ring(Q, Q.trivial_subgroup(), p)


def _lines(spec):
    """(vector-label, generator element) per order-p subgroup of spec's group:
    the canonical vectors are those of the coordinates, in the same order."""
    return [(c.label, spec.ea.elem_of[c.f]) for c in spec.coordinate.values()]


def _line_ideal(spec, gen_elem):
    """Ideal of the rational point at the line through gen_elem."""
    pres = spec.presentation
    gens = []
    for lbl in sorted(spec.plus_of):
        c = spec.coordinate[lbl]
        if spec.ea.functional_on(c.f, gen_elem) == 0:
            gens.append(pres.var(spec.plus_of[lbl]))
    return HomogeneousIdeal(pres, gens)


def _line_of(spec, ideal):
    """The common kernel of the coordinates whose zp variable lies in the
    ideal, as a sorted tuple, when it is a line; else None.  On a rank-1
    stratum the zero ideal gives the whole group: rule it out first."""
    ea = spec.ea
    fs = [spec.coordinate[lbl].f for lbl, v in spec.plus_of.items()
          if ideal.member(spec.presentation.var(v))]
    line = tuple(x for x in range(ea.group.order)
                 if not any(ea.functional_on(f, x) for f in fs))
    return line if len(line) == ea.p else None


def _token_ideal(spec):
    """Principal ideal of an irreducible binary quadric in the first two
    independent coordinates: x^2+xy+y^2 for p=2, x^2 - c*y^2 (c a non-square)
    for odd p."""
    pres = spec.presentation
    p = spec.p
    i1, i2 = 0, 1  # lex-first coordinates (0..01, 0..10) are independent

    def mono(e1, e2):
        m = [0] * pres.nvars
        m[i1], m[i2] = e1, e2
        return tuple(m)

    if p == 2:
        poly = {mono(2, 0): 1, mono(1, 1): 1, mono(0, 2): 1}
    else:
        nonsq = next(c for c in range(2, p) if pow(c, (p - 1) // 2, p) == p - 1)
        poly = {mono(2, 0): 1, mono(0, 2): (p - nonsq) % p}
    return HomogeneousIdeal(pres, [poly])


def _max_ideal(spec):
    pres = spec.presentation
    return HomogeneousIdeal(pres, [pres.var(v) for v in pres.varnames])


def _move_ideal(ideal, spec_from, spec_to, iota):
    """Carry an ideal of spec_from into spec_to along an injective group map
    iota: A -> B of stratum quotients, iota[a] the image of a.

    An isomorphism moves the ideal through the ring map of its inverse; a
    proper injection contracts it along the restriction spec_to -> spec_from.
    """
    assert len(set(iota)) == len(iota), "stratum comparison is not injective"
    if len(iota) == spec_to.ea.group.order:
        inv = sorted(range(len(iota)), key=iota.__getitem__)  # inv[iota[a]] = a
        return induced_hom(spec_from, spec_to, inv).apply_ideal(ideal)
    return contract(induced_hom(spec_to, spec_from, iota), ideal)


def _stratum_shift(E, S_P, S_Q, p, ideal):
    """closure_ideal from the S_P-stratum into the S_Q-stratum (S_P <= S_Q),
    expressed in the canonical S_Q-stratum ring."""
    Qp, projp, _ = stratum_data(E, S_P, p)
    Hbar = Qp.subgroup(sorted({int(projp.map[x]) for x in S_Q.elements}))
    # the closure lives in the ring of (E/S_P)/(S_Q/S_P); move it to E/S_Q
    Q2, proj2, spec2 = stratum_data(Qp, Hbar, p)
    _, projq, specq = stratum_data(E, S_Q, p)
    iota = [int(projq.map[projp.reps[proj2.reps[r]]]) for r in range(Q2.order)]
    return _move_ideal(closure_ideal(Qp, Hbar, ideal, p), spec2, specq, iota)


# -- skeleton construction ------------------------------------------------------------


def _check_rank_cap(G, p, cap_rank):
    """Refuse an elementary abelian p-group of rank above cap_rank.

    Its only maximal section is G itself, so glue and dimension would
    enumerate every section before skeleton() refused it."""
    if is_elementary_abelian(G, p):
        rank = p_rank_of_section(G.full_subgroup(), G.trivial_subgroup(), p)
        if rank > cap_rank:
            raise ResourceError(f"rank {rank} exceeds the configured cap {cap_rank}")


def skeleton(E, p, level="rational", cap_rank=DEFAULT_RANK_CAP):
    """The named-point skeleton of the spectrum over an elementary abelian E.

    level "strata" keeps only the very closed points M(S) and the stratum
    generics eta(S); "rational" adds the prime-field rational points and one
    family token per stratum of rank >= 2.
    """
    return _skeleton_on(E, p, level, _named_points(E, p, level, cap_rank))


def _skeleton_on(E, p, level, points):
    skel = SpectrumSkeleton(points, _specialization_order(E, p, points))
    skel.ambient, skel.p, skel.level = E, p, level
    return skel


def _named_points(E, p, level, cap_rank):
    """The named points of skeleton(), stratum by stratum."""
    if level not in ("strata", "rational"):
        raise ValueError(f"unknown skeleton level {level!r}")
    if not is_elementary_abelian(E, p):
        raise GroupError("skeleton needs an elementary abelian group")
    _check_rank_cap(E, p, cap_rank)
    points = []
    for S in sorted(subgroups(E), key=lambda s: (s.order, s.elements)):
        Q, proj, spec = stratum_data(E, S, p)
        slbl = _sub_label(S)
        points.append(
            SpectrumPoint(S, _max_ideal(spec), KIND_VERY_CLOSED, f"M({slbl})")
        )
        qrank = spec.ea.rank
        if qrank >= 1:
            points.append(
                SpectrumPoint(
                    S,
                    HomogeneousIdeal(spec.presentation, []),
                    KIND_STRATUM_GENERIC,
                    f"eta({slbl})",
                )
            )
        if qrank >= 2 and level == "rational":
            for vec_lbl, gen in _lines(spec):
                points.append(
                    SpectrumPoint(
                        S,
                        _line_ideal(spec, gen),
                        KIND_RATIONAL,
                        f"pt[{vec_lbl}]({slbl})",
                    )
                )
            points.append(
                SpectrumPoint(S, _token_ideal(spec), KIND_FAMILY, f"token({slbl})")
            )
    return points


def _specialization_order(E, p, points):
    """Strict pairs (i, j): point j lies in the closure of point i.

    Very closed points are closed; stratum generics specialize to everything
    in the strata above; a rational point's closure is exactly itself, the
    very closed point of its own stratum and the very closed point of the
    preimage of its line.  Family tokens go through the general closure_ideal
    transport.
    """
    by_stratum = {}
    for j, q in enumerate(points):
        by_stratum.setdefault(tuple(q.stratum.elements), []).append(j)
    strata = {tuple(q.stratum.elements): q.stratum for q in points}
    order = set()
    for i, P in enumerate(points):
        if P.kind == KIND_VERY_CLOSED:
            continue
        if P.kind == KIND_STRATUM_GENERIC:
            for j, Q in enumerate(points):
                if j != i and Q.stratum.contains_subgroup(P.stratum):
                    order.add((i, j))
            continue
        if P.kind == KIND_RATIONAL:
            _, projP, specP = stratum_data(E, P.stratum, p)
            line = _line_of(specP, P.ideal)
            pre = tuple(x for x in range(E.order) if int(projP.map[x]) in line)
            for j, Q in enumerate(points):
                if Q.kind != KIND_VERY_CLOSED:
                    continue
                if Q.stratum.elements in (P.stratum.elements, pre):
                    order.add((i, j))
            continue
        # general path: family tokens
        for skey, S_Q in sorted(strata.items()):
            if not S_Q.contains_subgroup(P.stratum):
                continue
            if skey == tuple(P.stratum.elements):
                for j in by_stratum[skey]:
                    if j != i and points[j].ideal.contains_ideal(P.ideal):
                        order.add((i, j))
                continue
            moved = _stratum_shift(E, P.stratum, S_Q, p, P.ideal)
            if moved.is_unit():
                continue
            for j in by_stratum[skey]:
                if points[j].ideal.contains_ideal(moved):
                    order.add((i, j))
    return order


# -- transport along section morphisms -------------------------------------------------


class SectionPlatform:
    """A section (H, K) realized as an elementary abelian quotient group Q.

    q_of sends each element of H to Q, lift each element of Q to the least
    element of H over it; points and their order (.skel) are built on use.
    """

    def __init__(self, sec, p, level="rational", cap_rank=DEFAULT_RANK_CAP):
        self.sec = sec
        self.p = p
        self.level = level
        self.cap_rank = cap_rank
        Hgrp, embed = subgroup_as_group(sec.H)
        embed = [int(x) for x in embed]
        index = {x: i for i, x in enumerate(embed)}
        Kin = Hgrp.subgroup(sorted(index[int(k)] for k in sec.K.elements))
        self.Q, proj = quotient(Hgrp, Kin)
        self.q_of = {x: int(proj.map[i]) for i, x in enumerate(embed)}
        self.lift = [embed[r] for r in proj.reps]

    @functools.cached_property
    def points(self):
        return _named_points(self.Q, self.p, self.level, self.cap_rank)

    @functools.cached_property
    def skel(self):
        return _skeleton_on(self.Q, self.p, self.level, self.points)


def _classify(spec, ideal):
    pres = spec.presentation
    if all(ideal.member(pres.var(v)) for v in pres.varnames):
        return KIND_VERY_CLOSED
    if ideal.is_zero():
        return KIND_STRATUM_GENERIC
    line = _line_of(spec, ideal)
    if line is not None and _line_ideal(spec, line[1]) == ideal:
        return KIND_RATIONAL
    return KIND_CUSTOM


def transport_point(m, src_plat, tgt_plat, point):
    """Image of a skeleton point under the spectrum map of a section morphism.

    The morphism witness g conjugates the source section into the target one;
    the stratum maps to the image of its preimage, and the ideal moves along
    the injection of stratum quotients (_move_ideal).
    """
    G = m.source.group
    g = m.g
    Sbar = set(point.stratum.elements)
    Tbar = tgt_plat.Q.subgroup(sorted({
        tgt_plat.q_of[G.conj(x, g)] for x, q in src_plat.q_of.items() if q in Sbar
    }))
    Q1, proj1, spec1 = stratum_data(src_plat.Q, point.stratum, src_plat.p)
    Q2, proj2, spec2 = stratum_data(tgt_plat.Q, Tbar, tgt_plat.p)
    iota = [
        int(proj2.map[tgt_plat.q_of[G.conj(src_plat.lift[y], g)]])
        for y in proj1.reps
    ]
    ideal_t = _move_ideal(point.ideal, spec1, spec2, iota)
    kind = _classify(spec2, ideal_t)
    if point.kind == KIND_FAMILY and Q1.order == Q2.order and kind == KIND_CUSTOM:
        # an isomorphic transport carries the non-rational family to the
        # non-rational family of the image stratum
        kind = KIND_FAMILY
    return SpectrumPoint(Tbar, ideal_t, kind, f"{point.label}^[{g}]")


def skeleton_map(m, p, level="rational", cap_rank=DEFAULT_RANK_CAP):
    """The point-transport function of a section morphism, with its platforms
    attached as .source_platform / .target_platform."""
    src = SectionPlatform(m.source, p, level, cap_rank)
    tgt = SectionPlatform(m.target, p, level, cap_rank)

    def f(point):
        return transport_point(m, src, tgt, point)

    f.source_platform = src
    f.target_platform = tgt
    return f


def _locate(points, pt, required=True):
    """Index of the named point equal to pt (family tokens match as families)."""
    for j, q in enumerate(points):
        if q.same_point(pt):
            return j
    if pt.kind == KIND_FAMILY:
        for j, q in enumerate(points):
            if (
                q.kind == KIND_FAMILY
                and q.stratum.elements == pt.stratum.elements
            ):
                return j
    if not required:
        return None
    raise GlueError(f"transported point {pt.label} is not a named point")


# -- gluing over the section category ---------------------------------------------------


class _UnionFind:
    def __init__(self, n):
        self.parent = list(range(n))

    def find(self, a):
        while self.parent[a] != a:
            self.parent[a] = self.parent[self.parent[a]]
            a = self.parent[a]
        return a

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[max(ra, rb)] = min(ra, rb)

    def collapse(self, pairs):
        """(members of each class, the pairs between distinct classes).

        Classes are ordered by their least member, members ascending; pairs
        is a relation on the elements, returned on the class indices."""
        by_root = {}
        for a in range(len(self.parent)):
            by_root.setdefault(self.find(a), []).append(a)
        members = [by_root[r] for r in sorted(by_root)]
        cls_of = [0] * len(self.parent)
        for c, ms in enumerate(members):
            for a in ms:
                cls_of[a] = c
        return members, {
            (cls_of[a], cls_of[b]) for (a, b) in pairs if cls_of[a] != cls_of[b]
        }


def glue(G, p, level="rational", reduction="full", cap_rank=DEFAULT_RANK_CAP,
         cap_order=DEFAULT_ORDER_CAP):
    """Skeleton of the spectrum for a general finite group.

    Takes one skeleton per maximal elementary abelian p-section and quotients
    the disjoint union by the identifications coming from every maximal span
    of the section category; the specialization order descends to the classes.
    Every identification is made on the named points before any order is
    built, so a transport that leaves them fails early.
    """
    _check_rank_cap(G, p, cap_rank)
    cat = SectionCategory(G, p, cap_order)
    reps = cat.maxel()
    rels = cat.maximal_relations(reduction=reduction)
    plats = [SectionPlatform(x, p, level, cap_rank) for x in reps]
    flat = [(ci, pt) for ci, plat in enumerate(plats) for pt in plat.points]
    offsets = [0, *itertools.accumulate(len(plat.points) for plat in plats)]
    uf = _UnionFind(len(flat))
    apex_plats = {}
    for rel in rels:
        akey = rel.apex.key()
        if akey not in apex_plats:
            apex_plats[akey] = SectionPlatform(rel.apex, p, level, cap_rank)
        ap = apex_plats[akey]
        located = []
        for leg in (rel.f1, rel.f2):
            foot = reps.index(leg.target)
            ids = []
            for pt in ap.points:
                img = transport_point(leg, ap, plats[foot], pt)
                # at coarser levels an image can fall between the named
                # points (e.g. a generic landing on an unnamed rational
                # point); the identification is then below the resolution
                # of the skeleton and is dropped -- except for very closed
                # points, which are always named
                j = _locate(plats[foot].points, img, required=(level != "strata"))
                assert j is not None or img.kind != KIND_VERY_CLOSED
                ids.append(None if j is None else offsets[foot] + j)
            located.append(ids)
        for a, b in zip(*located):
            if a is not None and b is not None:
                uf.union(a, b)
    classes, order = uf.collapse(
        (offsets[ci] + a, offsets[ci] + b)
        for ci, plat in enumerate(plats)
        for (a, b) in plat.skel.order
    )
    points, provenance = [], {}
    for c, members in enumerate(classes):
        kinds = {flat[gid][1].kind for gid in members}
        ci, rp = flat[members[0]]
        kind = KIND_VERY_CLOSED if KIND_VERY_CLOSED in kinds else rp.kind
        points.append(
            SpectrumPoint(rp.stratum, rp.ideal, kind, f"c{ci}:{rp.label}")
        )
        provenance[c] = [(flat[gid][0], flat[gid][1].label) for gid in members]
    glued = SpectrumSkeleton(
        points, order, provenance, sections=[(x, i) for i, x in enumerate(reps)]
    )
    glued.p = p
    glued.level = level
    return glued


def components(G, p, cap_rank=DEFAULT_RANK_CAP, cap_order=DEFAULT_ORDER_CAP):
    """One (maximal section, generic-point class) per irreducible component.

    A component's generic point is eta(1) of its section's skeleton, or the
    skeleton's only point M(1) when the section has rank 0 (a p'-group).
    """
    glued = glue(G, p, level="strata", cap_rank=cap_rank, cap_order=cap_order)
    generic = {ci: "eta(1)" if x.rank() else "M(1)" for x, ci in glued.sections}
    out = []
    for c, prov in sorted(glued.provenance.items()):
        if any(lbl == generic[ci] for (ci, lbl) in prov):
            ci = prov[0][0]
            out.append((glued.sections[ci][0], c))
    assert len(out) == len(glued.sections), "components must match maximal sections"
    return out


def dimension(G, p, cap_rank=DEFAULT_RANK_CAP, cap_order=DEFAULT_ORDER_CAP):
    """Krull dimension of the spectrum: the sectional p-rank of G."""
    _check_rank_cap(G, p, cap_rank)
    glued = glue(G, p, level="strata", cap_rank=cap_rank, cap_order=cap_order)
    dim = max(x.rank() for x, _ in glued.sections)
    assert glued.height() == dim, "longest chain disagrees with sectional rank"
    return dim


def p_rank(G, p, cap_order=DEFAULT_ORDER_CAP):
    """Maximal rank of an elementary abelian p-subgroup of G."""
    one = G.trivial_subgroup()
    return max(
        p_rank_of_section(E, one, p)
        for E in p_subgroups(G, p, cap_order)
        if is_elementary_abelian(E, p)
    )


def fold(skel, matrix):
    """Quotient a skeleton of an elementary abelian group by an automorphism.

    The automorphism is a square matrix over F_p acting on the chosen basis;
    points are identified with their images (strata relabel, ideals transform
    by the induced linear substitution)."""
    E, p = skel.ambient, skel.p
    assert E is not None, "fold needs a skeleton built by skeleton()"
    ea = local_ring(E, E.trivial_subgroup(), p).ea
    r = ea.rank
    assert len(matrix) == r and all(len(row) == r for row in matrix)
    theta = {}
    for x in range(E.order):
        v = ea.vec_of[x]
        w = tuple(sum(matrix[i][k] * v[k] for k in range(r)) % p for i in range(r))
        theta[x] = ea.elem_of[w]
    assert len(set(theta.values())) == E.order, "matrix is not invertible mod p"
    uf = _UnionFind(len(skel.points))
    for i, pt in enumerate(skel.points):
        S2 = E.subgroup(sorted(theta[x] for x in pt.stratum.elements))
        _, proj1, spec1 = stratum_data(E, pt.stratum, p)
        _, proj2, spec2 = stratum_data(E, S2, p)
        # the group iso E/S -> E/S2 induced by theta
        iota = [int(proj2.map[theta[x]]) for x in proj1.reps]
        moved = SpectrumPoint(
            S2, _move_ideal(pt.ideal, spec1, spec2, iota), pt.kind, pt.label + "'"
        )
        uf.union(i, _locate(skel.points, moved))
    classes, order = uf.collapse(skel.order)
    points, provenance = [], {}
    for c, members in enumerate(classes):
        points.append(skel.points[members[0]])
        provenance[c] = [(0, skel.points[i].label) for i in members]
    out = SpectrumSkeleton(points, order, provenance)
    out.ambient, out.p, out.level = E, p, skel.level
    return out


def frattini_cover_check(E, p, family=None, max_family=4):
    """Membership in every U(b_N) of an intersection-trivial family of index-p
    subgroups forces membership in all of them, checked on every named point.

    A named point lies in U(b_N) exactly when its stratum is contained in N;
    for a family with trivial intersection this must pin the stratum to the
    trivial subgroup.  With family=None every intersection-trivial family of
    at most max_family index-p subgroups is checked.  Only the named points
    are needed, so no specialization order is built."""
    points = _named_points(E, p, "rational", DEFAULT_RANK_CAP)
    spec = local_ring(E, E.trivial_subgroup(), p)
    kernels = [spec.coordinate[lbl].kernel for lbl in sorted(spec.plus_of)]

    def trivial_meet(fam):
        return functools.reduce(Subgroup.intersection, fam).order == 1

    if family is not None:
        families = [list(family)]
        if not trivial_meet(families[0]):
            raise GroupError("family does not intersect trivially")
    else:
        families = [
            combo
            for size in range(1, max_family + 1)
            for combo in itertools.combinations(kernels, size)
            if trivial_meet(combo)
        ]
    return not any(
        pt.stratum.order != 1 and all(N.contains_subgroup(pt.stratum) for N in fam)
        for fam in families
        for pt in points
    )
