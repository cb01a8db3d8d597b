"""Finite skeletons of the spectrum, stratum by stratum, and their gluing.

For an elementary abelian p-group E the spectrum is partitioned into strata
indexed by the subgroups S <= E; the S-stratum is homeomorphic to the
homogeneous spectrum of the cohomology of W = E/S, which Quillen stratifies
by the subgroups A <= W.  A named point is the generic point of one V_A,
written as the interval [S, P] with P the preimage of A in E.  A skeleton
names:

  * M(S)   -- the very closed point, A = 1, interval [S, S];
  * eta(S) -- the stratum-generic point, A = W, interval [S, E], W nontrivial;
  * rational points of strata of rank >= 2, one per line A of W, interval
    [S, pre(A)];
  * one GenericFamily token per stratum of rank >= 2, a stand-in for the
    infinite family of non-rational closed subvarieties, cut out by an
    irreducible binary quadric; it lies in no proper V_A, so its interval
    is [S, E].

The interval, with a flag for family tokens, is the identity of a named
point (SpectrumPoint.key); a point carries no ideal, and point_ideal writes
one only for output.  Point j lies in the closure of point i exactly when
[S_j, P_j] lies inside [S_i, P_i]; a family token is ordered by the zero
subspace of its quadric, so no order is computed in a ring.  A skeleton
keeps one set of successors per point.  For a general finite group G the
skeleton is glued from the named points and orders of the maximal
elementary abelian p-sections, identifying the images of every maximal span
of the section category (union-find on points).  Restriction along an
injection iota of stratum quotients sends the generic point of V_A to that
of V_iota(A), so transport along a section morphism, like fold, moves
intervals.
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
)
from .gradedrings import HomogeneousIdeal
from .twisted import local_ring
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
    """A point of a skeleton: the interval [stratum, top] and its kind.  It
    carries no ideal; point_ideal writes that of a named point."""

    def __init__(self, stratum, kind, label, top=None):
        self.stratum = stratum  # Subgroup of the ambient platform group
        self.kind = kind
        self.label = label
        self.top = top  # sorted elements of the interval top P

    def key(self):
        """(stratum, top, is a family token): a token and eta(S) share the
        interval [S, E]."""
        return self.stratum.elements, self.top, self.kind == KIND_FAMILY

    def __repr__(self):
        return f"SpectrumPoint({self.kind}, {self.label})"


class SpectrumSkeleton:
    """Named points with their specialization partial order.

    `order` holds the strict pairs (i, j) meaning point j lies in the closure
    of point i, and below[i] the set of those j; covering edges, closures and
    heights are read off the sets.
    """

    def __init__(self, points, order, provenance=None, sections=None):
        self.points = list(points)
        n = len(self.points)
        below = [set() for _ in range(n)]
        for a, b in order:
            below[a].add(b)
        # transitive closure (Warshall over the points), then sanity: a cycle
        # puts a point below itself
        for k in range(n):
            for js in below:
                if k in js:
                    js |= below[k]
        assert not any(a in js for a, js in enumerate(below)), \
            "specialization order is not antisymmetric"
        self.below = [frozenset(js) for js in below]
        self.order = frozenset((a, b) for a in range(n) for b in below[a])
        self.provenance = provenance or {
            i: [(0, pt.label)] for i, pt in enumerate(self.points)
        }
        self.sections = sections  # list of (SectionObject, component index) or None
        self.ambient = None  # set by skeleton() for elementary abelian skeletons
        self.p = None
        self.level = None

    def closure(self, i):
        return self.below[i] | {i}

    def edges(self):
        """Covering specializations (from more generic to more special): b
        below a and below no c below a."""
        below = self.below
        return sorted(
            (a, b) for a, js in enumerate(below)
            for b in js.difference(*(below[c] for c in js))
        )

    def very_closed(self):
        return [i for i, pt in enumerate(self.points) if pt.kind == KIND_VERY_CLOSED]

    def generic_points(self):
        """Points whose closure is the entire skeleton."""
        n = len(self.points)
        return [i for i in range(n) if len(self.below[i]) == n - 1]

    def height(self):
        """Length of the longest specialization chain (number of steps)."""
        @functools.cache
        def down(i):
            return max((1 + down(j) for j in self.below[i]), default=0)

        return max(map(down, range(len(self.points))), default=0)

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
                section = {"H": [int(x) for x in pt.stratum.elements], "K": [0]}
            ideal = point_ideal(pt, self.p)
            gens = sorted(ideal.ambient.format(dict(g)) for g in ideal.generators)
            pts.append(
                {
                    "id": i,
                    "section": section,
                    "ideal": gens,
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
    Q, proj = quotient(E.full_subgroup(), Subgroup(E, elements, check=False))
    return Q, proj, local_ring(Q, Q.trivial_subgroup(), p)


def _lines(spec):
    """(vector-label, sorted elements) per order-p subgroup of spec's group:
    the canonical vectors are those of the coordinates, in the same order."""
    ea = spec.ea
    return [(c.label, tuple(sorted(ea.elem_of[tuple(k * a % ea.p for a in c.f)]
                                   for k in range(ea.p))))
            for c in spec.coordinate.values()]


def _subspace_ideal(spec, A):
    """Ideal of the generic point of V_A, A a set of elements of spec's group:
    the zp of the coordinates that vanish on A."""
    pres = spec.presentation
    return HomogeneousIdeal(pres, [
        pres.var(spec.plus_of[lbl]) for lbl in sorted(spec.plus_of)
        if not any(spec.ea.functional_on(spec.coordinate[lbl].f, a) for a in A)
    ])


def _kind_of(a, w, p):
    """Kind of the generic point of V_A, A of order a in a stratum quotient W
    of order w: very closed at A = 1 (also when W = 1), stratum generic at
    A = W, rational at a line."""
    kinds = {w: KIND_STRATUM_GENERIC, 1: KIND_VERY_CLOSED}
    return kinds.get(a, KIND_RATIONAL if a == p else KIND_CUSTOM)


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


def point_ideal(point, p):
    """Ideal of a named point in the ring of its stratum: the token's quadric
    for a family token, else that of the image A of the top in the stratum
    quotient."""
    _, proj, spec = stratum_data(point.stratum.parent, point.stratum, p)
    if point.kind == KIND_FAMILY:
        return _token_ideal(spec)
    return _subspace_ideal(spec, {proj.map[x] for x in point.top})


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
    points = _named_points(E, p, level, cap_rank)
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
    # the group was built under the caller's order cap and _check_rank_cap
    # bounds its lattice, so no second cap applies here
    for S in p_subgroups(E, p, cap=E.order):
        Q, proj, spec = stratum_data(E, S, p)
        slbl = _sub_label(S)
        rational = spec.ea.rank >= 2 and level == "rational"
        named = [("M", (0,))]
        if spec.ea.rank >= 1:
            named.append(("eta", tuple(range(Q.order))))
        if rational:
            named += [(f"pt[{vec_lbl}]", line) for vec_lbl, line in _lines(spec)]
        for name, A in named:
            points.append(SpectrumPoint(
                S, _kind_of(len(A), Q.order, p), f"{name}({slbl})",
                tuple(x for x in range(E.order) if proj.map[x] in A),
            ))
        if rational:
            points.append(SpectrumPoint(S, KIND_FAMILY, f"token({slbl})",
                                        tuple(range(E.order))))
    return points


def _token_zeros(E, p, token):
    """L for a family token: the preimage in E of the common kernel of the two
    lex-first coordinates of its stratum, those its quadric involves
    (_token_ideal), a subgroup of index p^2."""
    _, proj, spec = stratum_data(E, token.stratum, p)
    fs = [c.f for c in list(spec.coordinate.values())[:2]]
    return {
        x for x in range(E.order)
        if not any(spec.ea.functional_on(f, proj.map[x]) for f in fs)
    }


def _specialization_order(E, p, points):
    """Strict pairs (i, j): point j lies in the closure of point i.

    A point i that is no family token is the generic point of the interval
    [S_i, P_i] (stratum, top), and point j lies in its closure exactly when
    [S_j, P_j] lies inside it: S_i <= S_j and P_j <= P_i.  token(S) is a
    quadric q in two coordinates of E/S, spanning X, and L is the preimage
    of their common kernel; its row reads every token by its zero subspace
    [S_j, L_j].  On a stratum S_j >= S whose coordinates F meet X in 0, that
    is S_j L = E, no relation survives and the closure is the whole stratum;
    where they meet X in a line, q times zm^2 leaves a nonzero constant and
    the closure misses the stratum; where F holds X, q descends and cuts out
    the points [S_j, P_j] inside [S, L] and token(S_j) if it has the same L,
    since the lex-first coordinates are dual to the two least elements of E
    outside L.
    """
    low = [set(q.stratum.elements) for q in points]
    top = [set(q.top) for q in points]
    zeros = [
        _token_zeros(E, p, q) if q.kind == KIND_FAMILY else top[j]
        for j, q in enumerate(points)
    ]
    order = set()
    for i, P in enumerate(points):
        if P.kind != KIND_FAMILY:
            order.update(
                (i, j) for j, T in enumerate(top)
                if j != i and low[i] <= low[j] and T <= top[i]
            )
        else:
            # two tokens' L are equal when one holds the other: both have
            # index p^2
            L = zeros[i]
            order.update(
                (i, j) for j, Z in enumerate(zeros)
                if j != i and low[i] <= low[j] and (
                    Z <= L or len(low[j]) * len(L) == len(low[j] & L) * E.order)
            )
    return order


# -- transport along section morphisms -------------------------------------------------


class SectionPlatform:
    """A section (H, K) realized as the elementary abelian group Q =
    quotient(H, K).

    q_of sends each element of H to its coset in Q; the named points of Q are
    built on use, and glue orders them with _specialization_order.
    """

    def __init__(self, sec, p, level="rational", cap_rank=DEFAULT_RANK_CAP):
        self.sec = sec
        self.p = p
        self.level = level
        self.cap_rank = cap_rank
        self.Q, proj = quotient(sec.H, sec.K)
        self.q_of = {x: proj.map[x] for x in sec.H.elements}

    @functools.cached_property
    def points(self):
        return _named_points(self.Q, self.p, self.level, self.cap_rank)


def transport_point(m, src_plat, tgt_plat, point):
    """Image of a skeleton point under the spectrum map of a section morphism.

    The morphism witness g conjugates the source section into the target one
    and sends a subgroup X of the source platform to T(X), the image of its
    preimage.  The interval [S, P] goes to [T(S), T(P)], the generic point of
    V_iota(A) for the injection iota of stratum quotients.  A family token
    goes to the token of T(S) when the two stratum quotients have the same
    order; otherwise its image lies in a proper V_iota(W) and is Custom.
    """
    G, g, P = m.source.group, m.g, set(point.top)
    image = [
        (q, tgt_plat.q_of[G.conj(x, g)]) for x, q in src_plat.q_of.items() if q in P
    ]

    def T(X):
        X = set(X)
        return tuple(sorted({t for q, t in image if q in X}))

    Tbar, top = tgt_plat.Q.subgroup(T(point.stratum.elements)), T(point.top)
    a, w = len(top) // Tbar.order, tgt_plat.Q.order // Tbar.order
    assert a == len(point.top) // point.stratum.order, "iota is not injective"
    if point.kind == KIND_FAMILY:
        kind = KIND_FAMILY if a == w else KIND_CUSTOM
    else:
        kind = _kind_of(a, w, tgt_plat.p)
    return SpectrumPoint(Tbar, kind, f"{point.label}^[{g}]", top)


def _locate(points, pt, required=True):
    """Index of the named point with pt's key."""
    key = pt.key()
    for j, q in enumerate(points):
        if q.key() == key:
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

    Takes the named points of every maximal elementary abelian p-section and
    quotients the disjoint union by the identifications coming from every
    maximal span of the section category; each section's specialization
    order descends to the classes, and one skeleton is built on them.
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
        for (a, b) in _specialization_order(plat.Q, p, plat.points)
    )
    points, provenance = [], {}
    # transports keep |P/S|, so a class with a very closed point has only such
    for c, members in enumerate(classes):
        ci, rp = flat[members[0]]
        points.append(SpectrumPoint(rp.stratum, rp.kind, f"c{ci}:{rp.label}", rp.top))
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

    The automorphism theta is a square matrix over F_p acting on the chosen
    basis (GroupError for another shape or a singular one); points are
    identified with their images: [S, P] goes to [theta S, theta P] and
    token(S) to token(theta S)."""
    E, p = skel.ambient, skel.p
    assert E is not None, "fold needs a skeleton built by skeleton()"
    ea = local_ring(E, E.trivial_subgroup(), p).ea
    r = ea.rank
    if len(matrix) != r or any(len(row) != r for row in matrix):
        raise GroupError(f"fold needs a {r}x{r} matrix")
    theta = {}
    for x in range(E.order):
        v = ea.vec_of[x]
        w = tuple(sum(matrix[i][k] * v[k] for k in range(r)) % p for i in range(r))
        theta[x] = ea.elem_of[w]
    if len(set(theta.values())) != E.order:
        raise GroupError(f"matrix is not invertible mod {p}")
    uf = _UnionFind(len(skel.points))
    for i, pt in enumerate(skel.points):
        S2 = E.subgroup(sorted(theta[x] for x in pt.stratum.elements))
        top = tuple(sorted(theta[x] for x in pt.top))
        moved = SpectrumPoint(S2, pt.kind, pt.label + "'", top)
        uf.union(i, _locate(skel.points, moved))
    classes, order = uf.collapse(skel.order)
    points, provenance = [], {}
    for c, members in enumerate(classes):
        points.append(skel.points[members[0]])
        provenance[c] = [(0, skel.points[i].label) for i in members]
    out = SpectrumSkeleton(points, order, provenance)
    out.ambient, out.p, out.level = E, p, skel.level
    return out
