"""Reference helpers shared by the tests: earlier, independently written
versions of computations the package now does another way or no longer
needs."""

import heapq
import itertools
from operator import add, le, sub

import numpy as np

from permspec import modp, sections, spectra
from permspec.gradedrings import (
    canonical,
    contract,
    leading,
    padd,
    pmul,
    pnormal,
    pscale,
)
from permspec.groups import FiniteGroup, GroupError, Projection, p_subgroups
from permspec.spectra import (
    KIND_CUSTOM,
    KIND_FAMILY,
    KIND_RATIONAL,
    KIND_STRATUM_GENERIC,
    KIND_VERY_CLOSED,
    _lines,
    _subspace_ideal,
    point_ideal,
    stratum_data,
)
from permspec.twisted import (
    canonical_functional,
    closure_ideal,
    induced_hom,
    local_ring,
)


def functional_of_kernel(ea, N):
    """Canonical nonzero functional vanishing on the index-p subgroup N of
    the elementary abelian group of `ea`, found as a nullspace over F_p."""
    rows = np.array([ea.vec_of[e] for e in N.elements], dtype=np.int64)
    if rows.size == 0:
        rows = np.zeros((1, ea.rank), dtype=np.int64)
    ker = modp.nullspace(rows, ea.p)  # functionals vanishing on N
    assert len(ker) == 1, "kernel is not of index p"
    return canonical_functional(tuple(int(c) for c in ker[0]), ea.p)


def classify_by_line_search(spec, ideal):
    """Kind of an ideal of a stratum ring, found by comparing it with the
    ideal of every rational line of the stratum."""
    pres = spec.presentation
    if all(ideal.member(pres.var(v)) for v in pres.varnames):
        return KIND_VERY_CLOSED
    if ideal.is_zero():
        return KIND_STRATUM_GENERIC
    for _, line in _lines(spec):
        if _subspace_ideal(spec, line) == ideal:
            return KIND_RATIONAL
    return KIND_CUSTOM


def move_ideal(ideal, spec_from, spec_to, iota, hom=induced_hom):
    """Carry an ideal of spec_from into spec_to along an injective group map
    iota of stratum quotients, iota[a] the image of a, with the ring maps
    that hom(src, tgt, iota) builds.

    An isomorphism moves the ideal through the ring map of its inverse; a
    proper injection contracts it along the restriction spec_to -> spec_from.
    """
    assert len(set(iota)) == len(iota), "stratum comparison is not injective"
    if len(iota) == spec_to.ea.group.order:
        inv = sorted(range(len(iota)), key=iota.__getitem__)  # inv[iota[a]] = a
        return hom(spec_from, spec_to, inv).apply_ideal(ideal)
    return contract(hom(spec_to, spec_from, iota), ideal)


def transport_by_rings(m, src_plat, tgt_plat, point, hom=induced_hom):
    """(ring of the image stratum, image ideal) of a named point under the
    spectrum map of a section morphism, its ideal moved along the injection
    of stratum quotients that the witness g induces."""
    G, g = m.source.group, m.g
    Sbar = set(point.stratum.elements)
    Tbar = tgt_plat.Q.subgroup(sorted({
        tgt_plat.q_of[G.conj(x, g)] for x, q in src_plat.q_of.items() if q in Sbar
    }))
    _, proj1, spec1 = stratum_data(src_plat.Q, point.stratum, src_plat.p)
    _, proj2, spec2 = stratum_data(tgt_plat.Q, Tbar, tgt_plat.p)
    lift = {}  # the least element of H over each element of the platform
    for x, q in sorted(src_plat.q_of.items()):
        lift.setdefault(q, x)
    iota = [int(proj2.map[tgt_plat.q_of[G.conj(lift[y], g)]]) for y in proj1.reps]
    return spec2, move_ideal(point_ideal(point, src_plat.p), spec1, spec2, iota, hom)


def check_transport_by_rings(m, src_plat, tgt_plat, point, image, hom=induced_hom):
    """Check a transported point against transport_by_rings: the image of a
    point that is no family token has the ideal of its interval and the kind
    the line search finds for the moved ideal; a token's moved ideal is no
    subspace ideal, and its image is a token exactly when the two stratum
    quotients have the same order."""
    spec, ideal = transport_by_rings(m, src_plat, tgt_plat, point, hom)
    _, proj, spec_image = stratum_data(tgt_plat.Q, image.stratum, tgt_plat.p)
    assert spec_image is spec
    kind = classify_by_line_search(spec, ideal)
    if point.kind == KIND_FAMILY:
        assert kind == KIND_CUSTOM
        same = spec.ea.group.order * point.stratum.order == src_plat.Q.order
        assert image.kind == (KIND_FAMILY if same else KIND_CUSTOM)
    else:
        assert ideal == _subspace_ideal(spec, {int(proj.map[x]) for x in image.top})
        assert kind == image.kind


def checked_transports(monkeypatch, hom=induced_hom):
    """Check every spectra.transport_point call with check_transport_by_rings
    from here on; returns the list of image kinds, filled as they come."""
    kinds = []
    transport = spectra.transport_point

    def checked(m, src_plat, tgt_plat, point):
        image = transport(m, src_plat, tgt_plat, point)
        check_transport_by_rings(m, src_plat, tgt_plat, point, image, hom)
        kinds.append(image.kind)
        return image

    monkeypatch.setattr(spectra, "transport_point", checked)
    return kinds


def fold_by_rings(skel, matrix, hom=induced_hom):
    """For each point of an elementary abelian skeleton, the index of the
    point fold identifies it with: the named point on the image stratum with
    the moved ideal, or for a family token the token of the image stratum."""
    E, p, points = skel.ambient, skel.p, skel.points
    ea = local_ring(E, E.trivial_subgroup(), p).ea
    r = ea.rank
    theta = [
        ea.elem_of[tuple(sum(matrix[i][k] * ea.vec_of[x][k] for k in range(r)) % p
                         for i in range(r))]
        for x in range(E.order)
    ]
    out = []
    for pt in points:
        S2 = E.subgroup(sorted(theta[x] for x in pt.stratum.elements))
        _, proj1, spec1 = stratum_data(E, pt.stratum, p)
        _, proj2, spec2 = stratum_data(E, S2, p)
        iota = [int(proj2.map[theta[x]]) for x in proj1.reps]
        moved = move_ideal(point_ideal(pt, p), spec1, spec2, iota, hom)
        same = [
            j for j, q in enumerate(points)
            if q.stratum.elements == S2.elements
            and (point_ideal(q, p) == moved or KIND_FAMILY == q.kind == pt.kind)
        ]
        assert len(same) == 1
        out.append(same[0])
    return out


def rational_preimage_by_search(E, p, point):
    """The subgroup of E over the line of a rational point: the line found by
    searching every rational line for the point's ideal."""
    _, proj, spec = stratum_data(E, point.stratum, p)
    ideal = point_ideal(point, p)
    line = next(a for (_, a) in _lines(spec) if _subspace_ideal(spec, a) == ideal)
    return E.subgroup([x for x in range(E.order) if int(proj.map[x]) in line])


def order_by_kind(E, p, points):
    """Strict pairs (i, j) of the specialization order among the named points
    of an elementary abelian skeleton, for every i that is no family token,
    by one rule per kind: very closed points are closed; a stratum generic
    specializes to every point of the strata above its own; a rational
    point's closure is itself, the very closed point of its own stratum and
    the very closed point of the preimage of its line."""
    order = set()
    for i, P in enumerate(points):
        if P.kind == KIND_STRATUM_GENERIC:
            order.update(
                (i, j) for j, Q in enumerate(points)
                if j != i and Q.stratum.contains_subgroup(P.stratum)
            )
        elif P.kind == KIND_RATIONAL:
            ends = (P.stratum.elements, rational_preimage_by_search(E, p, P).elements)
            order.update(
                (i, j) for j, Q in enumerate(points)
                if Q.kind == KIND_VERY_CLOSED and Q.stratum.elements in ends
            )
    return order


def token_order_by_closure(E, p, points):
    """Strict pairs (i, j) with i a family token, by closure_ideal: the
    token's ideal is carried from its stratum S_P into every stratum S_Q
    above it, and point j of S_Q lies in the closure of the token when its
    ideal contains the carried one.  The closure lives in the ring of
    (E/S_P)/(S_Q/S_P), whose table equals that of E/S_Q because quotient
    numbers cosets by their least elements, so no ring map moves it."""
    by_stratum = {}
    for j, q in enumerate(points):
        by_stratum.setdefault(q.stratum.elements, []).append(j)
    order = set()
    for i, P in enumerate(points):
        if P.kind != KIND_FAMILY:
            continue
        Qp, projp, _ = stratum_data(E, P.stratum, p)
        for elements, js in sorted(by_stratum.items()):
            S_Q = points[js[0]].stratum
            if not S_Q.contains_subgroup(P.stratum):
                continue
            moved = point_ideal(P, p)
            if elements != P.stratum.elements:
                Hbar = Qp.subgroup(sorted({int(projp.map[x]) for x in elements}))
                assert stratum_data(Qp, Hbar, p)[0] == stratum_data(E, S_Q, p)[0]
                moved = closure_ideal(Qp, Hbar, moved, p)
                if moved.is_unit():
                    continue
            order.update(
                (i, j) for j in js
                if j != i and point_ideal(points[j], p).contains_ideal(moved)
            )
    return order


def close_pairs(n, pairs):
    """Transitive closure of a relation on range(n) as a set of pairs, by
    Warshall's loop over the pairs into and out of each point; pairs (a, a)
    are not added."""
    rel = set(pairs)
    for k in range(n):
        into = [a for a in range(n) if (a, k) in rel]
        out = [b for b in range(n) if (k, b) in rel]
        rel.update((a, b) for a in into for b in out if a != b)
    return rel


def closure_by_pairs(order, i):
    """i and every j with (i, j) in the order."""
    return {j for (a, j) in order if a == i} | {i}


def edges_by_pairs(n, order):
    """The pairs (a, b) of a strict order with no c strictly between."""
    return sorted(
        (a, b) for (a, b) in order
        if not any((a, c) in order and (c, b) in order
                   for c in range(n) if c not in (a, b))
    )


def height_by_pairs(n, order):
    """Length of the longest chain of a strict order, by a memoised walk
    down the pairs out of each point."""
    memo = {}

    def down(i):
        if i not in memo:
            memo[i] = max((1 + down(j) for (a, j) in order if a == i), default=0)
        return memo[i]

    return max((down(i) for i in range(n)), default=0)


def generic_by_pairs(n, order):
    """The points whose closure is all of range(n)."""
    return [i for i in range(n) if len(closure_by_pairs(order, i)) == n]


def has_hom_by_elements(cat, x, y):
    """Some g in G is a morphism x -> y: `morphism_condition` for every g
    in turn, read from the module at call time so a test can replace it."""
    return any(sections.morphism_condition(x, y, g) for g in range(cat.G.order))


def maxel_by_pairs(cat):
    """Maximal-section representatives by the all-pairs loop: x is maximal
    when no y has x -> y without y -> x, and x is kept unless x -> r and
    r -> x for a representative r kept before it.  Shapes are not read."""
    objs = cat.objects()

    def hom(x, y):
        return has_hom_by_elements(cat, x, y)

    maximal = [x for x in objs if not any(hom(x, y) and not hom(y, x) for y in objs)]
    reps = []
    for x in maximal:
        if not any(hom(x, r) and hom(r, x) for r in reps):
            reps.append(x)
    return reps


def is_section_by_loops(H, K, p):
    """Whether (H, K) is an elementary abelian p-section, by the tests one at
    a time: K <= H, K normal in H, both p-groups, and every p-th power and
    commutator of H in K."""
    if not H.contains_subgroup(K) or not K.is_normal(H):
        return False
    if not H.is_p_group(p) or not K.is_p_group(p):
        return False
    G, ks = H.parent, set(K.elements)
    for a in H.elements:
        if G.power(a, p) not in ks:
            return False
        for b in H.elements:
            if G.mul(G.inv(G.mul(b, a)), G.mul(a, b)) not in ks:
                return False
    return True


def sections_by_pairs(cat):
    """The (H, K) keys of the sections of a category, from every pair of
    p-subgroups in lattice order, H first."""
    subs = p_subgroups(cat.G, cat.p, cat.cap_order)
    return [
        (H.elements, K.elements)
        for H in subs
        for K in subs
        if is_section_by_loops(H, K, cat.p)
    ]


def maximal_spans_all_pairs(cat, x1, x2, reduction="full"):
    """Maximal spans x1 <- y -> x2 in three passes: every candidate is tested
    against every other for strict domination, the survivors are reduced to
    one per mutual-domination class (and per swap when x1 == x2), and the
    class of the identity span is dropped."""
    cands = []
    for y in cat.objects():
        f1s = cat.homs(y, x1, reduction)
        if not f1s:
            continue
        f2s = cat.homs(y, x2, reduction)
        for f1, f2 in itertools.product(f1s, f2s):
            cands.append((y, f1, f2))
    dominates = cat._dominates

    def equivalent(a, b):
        return dominates(a, b) and dominates(b, a)

    maximal = [
        c for c in cands
        if not any(d is not c and dominates(d, c) and not dominates(c, d) for d in cands)
    ]
    same_feet = x1 == x2
    reps = []
    for c in maximal:
        cs = (c[0], c[2], c[1])
        if not any(equivalent(r, c) or (same_feet and equivalent(r, cs)) for r in reps):
            reps.append(c)
    if same_feet:
        ident = (x1, cat.identity(x1), cat.identity(x1))
        reps = [c for c in reps if not equivalent(ident, c)]
    return [sections.SpanRelation(*c) for c in reps]


def permutation_table_by_loops(degree, generators):
    """The table from_permutations builds, one Python tuple per product: the
    elements in breadth-first order from the identity under right
    multiplication by the generators, and a*b looked up as i -> a(b(i))."""
    def perm_of(cycles):
        perm = list(range(degree))
        for cyc in cycles:
            for k, x in enumerate(cyc):
                perm[x] = cyc[(k + 1) % len(cyc)]
        return tuple(perm)

    gens = [perm_of(c) for c in generators]
    ident = tuple(range(degree))
    elems, seen, queue = [ident], {ident}, [ident]
    while queue:
        x = queue.pop(0)
        for g in gens:
            y = tuple(x[g[i]] for i in range(degree))
            if y not in seen:
                seen.add(y)
                elems.append(y)
                queue.append(y)
    index = {e: i for i, e in enumerate(elems)}
    return [
        [index[tuple(a[b[i]] for i in range(degree))] for b in elems] for a in elems
    ]


def relabelled(G, k=5):
    """G with element i > 0 renamed 1 + k(i - 1) mod (|G| - 1), for k prime to
    |G| - 1.  Its subgroups get other element tuples and its elementary
    abelian quotients other greedy bases than the constructors' own."""
    n = G.order
    sigma = [0] + [1 + (i - 1) * k % (n - 1) for i in range(1, n)]
    assert sorted(sigma) == list(range(n))
    table = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            table[sigma[a]][sigma[b]] = sigma[G.mul(a, b)]
    return FiniteGroup(table)


def is_associative_by_rows(table):
    """Whether a Latin square with identity 0 is associative, by the check
    over all elements: (a*b)*c == a*(b*c) for every a, as whole rows."""
    t = np.asarray(table)
    return all(np.array_equal(t[t[a]], t[a][t]) for a in range(len(t)))


def subgroups_by_pairs(G):
    """Every subgroup of G as an element tuple, sorted by (order, elements):
    the pairwise-join lattice, where every pass joins all pairs of subgroups
    found so far, by closure under right multiplication from the identity."""

    def generated(gens):
        elems, frontier = {0}, [0]
        while frontier:
            x = frontier.pop()
            for g in gens:
                y = G.mul(x, g)
                if y not in elems:
                    elems.add(y)
                    frontier.append(y)
        return tuple(sorted(elems))

    found = {generated([a]) for a in range(G.order)}
    while True:
        new = set()
        for ea, eb in itertools.combinations(sorted(found), 2):
            if set(ea) <= set(eb) or set(eb) <= set(ea):
                continue
            j = generated(set(ea) | set(eb))
            if j not in found:
                new.add(j)
        if not new:
            break
        found |= new
    return sorted(found, key=lambda e: (len(e), e))


def subgroup_as_group(H):
    """Realize a subgroup as a FiniteGroup.

    Returns (group, embed) where embed[i] is the parent index of element i;
    the identity stays at index 0.
    """
    G = H.parent
    embed = [0] + [x for x in H.elements if x != 0]
    index = {x: i for i, x in enumerate(embed)}
    table = [[index[G.mul(a, b)] for b in embed] for a in embed]
    names = [G.name_of(x) for x in embed] if G.names else None
    return FiniteGroup(table, names=names, check=False), embed


def quotient_by_cosets(G, N):
    """G/N and its projection from the cosets of N as sets: each coset is
    gathered by multiplying, and the cosets are numbered by least element."""
    if not N.is_normal():
        raise GroupError("quotient by a non-normal subgroup")
    coset_of, cosets = {}, []
    for g in range(G.order):
        if g not in coset_of:
            cs = frozenset(G.mul(g, n) for n in N.elements)
            coset_of.update((x, len(cosets)) for x in cs)
            cosets.append(cs)
    by_least = sorted(range(len(cosets)), key=lambda i: min(cosets[i]))
    relabel = {old: new for new, old in enumerate(by_least)}
    proj_map = [relabel[coset_of[g]] for g in range(G.order)]
    reps = [min(cosets[old]) for old in by_least]
    table = [[proj_map[G.mul(a, b)] for b in reps] for a in reps]
    names = [G.name_of(r) + "N" for r in reps] if G.names else None
    return FiniteGroup(table, names=names, check=False), Projection(proj_map, reps)


def _mono_mul(m1, m2):
    return tuple(map(add, m1, m2))


def _mono_div(m1, m2):
    return tuple(map(sub, m1, m2))


def _lcm(m1, m2):
    return tuple(map(max, m1, m2))


def _divides(m1, m2):
    return all(map(le, m1, m2))


def _support(m):
    # bit k set when variable k occurs: a divisor's support lies in its multiple's
    return sum(1 << k for k, e in enumerate(m) if e)


def _lead(g, order):
    """Leading monomial, its coefficient and its support, as
    plain_normal_form takes them."""
    m, c = leading(g, order)
    return m, c, _support(m)


def plain_normal_form(f, basis, order, p, lead=None):
    """Full normal form of f against a list of polynomials, on exponent
    tuples: the reduction the package ran before its monomials were packed
    into ints.

    `lead` may give the leading terms of `basis`, as `_lead` returns them.
    """
    if lead is None:
        lead = [_lead(g, order) for g in basis]
    key = order.key
    out = {}
    work = pnormal(f, p)
    keys = {m: key(m) for m in work}  # order keys of the monomials seen
    while work:
        m = max(work, key=keys.__getitem__)
        c = work[m]
        ms = _support(m)
        for g, (lm, lc, ls) in zip(basis, lead):
            if not ls & ~ms and _divides(lm, m):
                # work -= (c / lc) * (m / lm) * g
                q = _mono_div(m, lm)
                scale = (c * pow(lc, p - 2, p)) % p
                for mg, cg in g.items():
                    t = _mono_mul(q, mg)
                    ct = (work.get(t, 0) - scale * cg) % p
                    if ct:
                        work[t] = ct
                        if t not in keys:
                            keys[t] = key(t)
                    else:
                        del work[t]
                break
        else:
            out[m] = c
            del work[m]
    return out


def plain_s_polynomial(f, g, lead_f, lead_g, p):
    """S-polynomial of f and g on exponent tuples; `lead_f` and `lead_g`
    start with their leading monomials and coefficients."""
    (mf, cf), (mg, cg) = lead_f[:2], lead_g[:2]
    lcm = _lcm(mf, mg)
    tf = {_mono_div(lcm, mf): pow(cf, p - 2, p)}
    tg = {_mono_div(lcm, mg): pow(cg, p - 2, p)}
    return padd(pmul(tf, f, p), pscale(pmul(tg, g, p), p - 1, p), p)


def plain_buchberger(gens, order, p):
    """Reduced Groebner basis by Buchberger's algorithm with the product
    criterion alone: every pair of elements with leading terms that are not
    coprime is reduced, the smallest lcm under the order first."""
    key = order.key
    basis = [g for g in (pnormal(g, p) for g in gens) if g]
    lead = [_lead(g, order) for g in basis]
    pairs = []
    arrivals = itertools.count()

    def add_pairs(new):
        for i, j in new:
            mi, mj = lead[i][0], lead[j][0]
            lcm = _lcm(mi, mj)
            n = -next(arrivals)
            if lcm != _mono_mul(mi, mj):
                heapq.heappush(pairs, (key(lcm), n, i, j))

    add_pairs(itertools.combinations(range(len(basis)), 2))
    while pairs:
        _, _, i, j = heapq.heappop(pairs)
        (mi, ci), (mj, cj) = leading(basis[i], order), leading(basis[j], order)
        lcm = _lcm(mi, mj)
        s = padd(
            pmul({_mono_div(lcm, mi): pow(ci, p - 2, p)}, basis[i], p),
            pmul({_mono_div(lcm, mj): p - pow(cj, p - 2, p)}, basis[j], p),
            p,
        )
        r = plain_normal_form(s, basis, order, p, lead)
        if r:
            j = len(basis)
            basis.append(r)
            lead.append(_lead(r, order))
            add_pairs((k, j) for k in range(j))
    keep = []
    for i, (lm, _, _) in enumerate(lead):
        if not any(
            _divides(lead[k][0], lm)
            for k in itertools.chain(keep, range(i + 1, len(basis)))
        ):
            keep.append(i)
    reduced = []
    for i in keep:
        others = [k for k in keep if k != i]
        r = plain_normal_form(basis[i], [basis[k] for k in others], order, p)
        if r:
            lm, lc = leading(r, order)
            reduced.append((key(lm), pscale(r, pow(lc, p - 2, p), p)))
    reduced.sort(key=lambda kg: kg[0])
    return tuple(canonical(g) for _, g in reduced)
