"""Twisted cohomology rings of elementary abelian p-groups.

For an elementary abelian group E of rank r over F_p, coordinates are the
surjections pi: E -> C_p, i.e. nonzero linear functionals up to scalar; each
index-p subgroup N = ker(pi) gets one canonical coordinate (first nonzero
entry 1).  For a subgroup H <= E we present the localized ring R'_E(H) on
generators

    zp_N  (degree +2', for N >= H)      "a_N / b_N"
    zm_N  (degree -2', for N not >= H)  "b_N / a_N"

with 2' = 2 for odd p and 1 for p = 2.  Relations come from the single master
relation a1*b2*b3 + b1*a2*b3 + lam*b1*b2*a3 = 0 attached to each dependent
triple of kernels, divided by the invertible generators; the scalar lam
accounts for recanonicalizing the third coordinate.

The closure transport (closure_ideal) moves an ideal of the rank-r cohomology
into the stratum of H: push into the common localization where both the
H-localization and the 1-localization embed, contract back to R'_E(H), then
collapse along the quotient map to the cohomology of E/H.

Presentations and the localize-and-contract step read only p, the rank and
which kernels contain H (H's vectors), so every labelling of E shares them;
only the collapse to E/H reads the labelled table.
"""

import functools
import itertools

from .groups import (
    GroupError,
    Subgroup,
    is_elementary_abelian,
    quotient,
    subgroup_as_group,
)
from .gradedrings import (
    GradedPresentation,
    GradedRingHom,
    HomogeneousIdeal,
    canonical,
    contract,
    padd,
    pmul,
    pscale,
)
from .modp import two_prime


class EAStructure:
    """An elementary abelian group with a chosen F_p-basis and dlog tables."""

    def __init__(self, group, p):
        if not is_elementary_abelian(group, p):
            raise GroupError("group is not elementary abelian for this prime")
        self.group = group
        self.p = p
        # greedy basis: extend the span one independent element at a time
        basis = []
        span = {0: ()}  # element -> exponent vector over current basis
        for x in range(group.order):
            if x in span:
                continue
            basis.append(x)
            new_span = dict(span)
            for e, vec in span.items():
                y = e
                for k in range(1, p):
                    y = group.mul(y, x)
                    new_span[y] = vec + (k,)
            span = {e: vec + (0,) * (len(basis) - len(vec)) for e, vec in new_span.items()}
        self.basis = basis
        self.rank = len(basis)
        self.vec_of = {e: tuple(v) for e, v in span.items()}
        self.elem_of = {v: e for e, v in self.vec_of.items()}
        assert len(self.vec_of) == group.order

    def functional_on(self, f, element):
        v = self.vec_of[element]
        return sum(a * b for a, b in zip(f, v)) % self.p

    def kernel_of_functional(self, f):
        elems = [e for e in range(self.group.order) if self.functional_on(f, e) == 0]
        return self.group.subgroup(elems)


def canonical_functional(f, p):
    """Scale a nonzero functional so its first nonzero entry is 1."""
    lead = next(c for c in f if c % p)
    inv = pow(lead % p, p - 2, p)
    return tuple((c * inv) % p for c in f)


def leading_scalar(f, p):
    """The lam with f = lam * canonical(f)."""
    return next(c % p for c in f if c % p)


def _label(f):
    return "".join(str(c) for c in f)


class Coordinate:
    """A canonical surjection E -> C_p, stored as its functional."""

    def __init__(self, ea, f):
        self.ea = ea
        self.f = tuple(c % ea.p for c in f)
        assert self.f == canonical_functional(self.f, ea.p)
        self.label = _label(self.f)

    @property
    def kernel(self):
        return self.ea.kernel_of_functional(self.f)

    def __eq__(self, other):
        return isinstance(other, Coordinate) and self.f == other.f

    def __hash__(self):
        return hash(self.f)

    def __repr__(self):
        return f"Coordinate({self.label})"


def _functionals(p, rank):
    """The canonical functionals on F_p^rank (first nonzero entry 1), in lex
    order: one per index-p subgroup."""
    return [
        f for f in itertools.product(range(p), repeat=rank)
        if any(f) and f == canonical_functional(f, p)
    ]


def coordinates(ea):
    """One canonical coordinate per index-p subgroup, in lex order."""
    return [Coordinate(ea, f) for f in _functionals(ea.p, ea.rank)]


def _triples(p, rank):
    """(f1, f2, f3, lam3) with f3 = -(f1 + f2) / lam3 canonical, one per
    triple of distinct kernels, in lex order of (f1, f2)."""
    seen = set()
    for f1, f2 in itertools.combinations(_functionals(p, rank), 2):
        f3p = tuple((-(a + b)) % p for a, b in zip(f1, f2))
        if not any(f3p):
            continue  # f2 = -f1: same kernel, no triple
        f3 = canonical_functional(f3p, p)
        key = frozenset((f1, f2, f3))
        if len(key) < 3 or key in seen:
            continue
        seen.add(key)
        yield f1, f2, f3, leading_scalar(f3p, p)


def dependent_triples(ea):
    """(c1, c2, c3, lam3) with pi3^{lam3} = (pi1 pi2)^{-1}, one per triple of
    distinct kernels, in lex order of (c1, c2)."""
    for f1, f2, f3, lam3 in _triples(ea.p, ea.rank):
        yield Coordinate(ea, f1), Coordinate(ea, f2), Coordinate(ea, f3), lam3


class LocalRingSpec:
    """R'_E(H): presentation plus the generator <-> kernel dictionary."""

    def __init__(self, ea, H, presentation, plus_of, minus_of):
        self.ea = ea
        self.H = H
        self.presentation = presentation
        self.plus_of = plus_of  # kernel label -> varname (N >= H)
        self.minus_of = minus_of  # kernel label -> varname (N not >= H)
        self.coordinate = {c.label: c for c in coordinates(ea)}

    @property
    def p(self):
        return self.ea.p

    def varname(self, coord):
        lbl = coord.label if isinstance(coord, Coordinate) else coord
        return self.plus_of.get(lbl) or self.minus_of[lbl]

    def __repr__(self):
        return (
            f"LocalRingSpec(rank {self.ea.rank}, |H|={len(self.H.elements)}, "
            f"{self.presentation!r})"
        )


def local_ring(E, H, p):
    """The presented localized twisted cohomology ring R'_E(H)."""
    return _local_ring(E, H.elements, p)


@functools.cache
def _local_ring(E, elements, p):
    H = Subgroup(E, elements, check=False)
    return _build_local_ring(EAStructure(E, p), H)


# presentation of R'_E(H) (generators zp_N / zm_N, relations (b)-(d))
present_Rloc = local_ring


def _build_local_ring(ea, H):
    plus = _plus_labels(ea.p, ea.rank, [ea.vec_of[h] for h in H.elements])
    return LocalRingSpec(ea, H, *_presentation(ea.p, ea.rank, plus))


def _plus_labels(p, rank, vectors):
    """Labels of the coordinates whose functional vanishes on every vector:
    the kernels N >= H when the vectors are H's."""
    return frozenset(
        _label(f) for f in _functionals(p, rank)
        if not any(sum(a * b for a, b in zip(f, v)) % p for v in vectors)
    )


@functools.cache
def _presentation(p, rank, plus):
    """(presentation, plus_of, minus_of) of R'_E(H) for E of this rank, where
    plus holds the labels of the kernels N >= H.  Names and relations read
    nothing else, so every labelling of E shares one presentation and its
    Groebner memos."""
    d = two_prime(p)
    labels = [_label(f) for f in _functionals(p, rank)]
    plus_of = {lbl: f"zp_{lbl}" for lbl in labels if lbl in plus}
    minus_of = {lbl: f"zm_{lbl}" for lbl in labels if lbl not in plus}
    variables = [(plus_of[lbl], d) for lbl in sorted(plus_of)]
    variables += [(minus_of[lbl], -d) for lbl in sorted(minus_of)]
    pres = GradedPresentation(p, variables)

    def slot(f, lam):
        # N >= H: a := lam*zp_N, b := 1; otherwise a := 1, b := zm_N / lam
        lbl = _label(f)
        if lbl in plus:
            return pscale(pres.var(f"zp_{lbl}"), lam, p), pres.one()
        return pres.one(), pscale(pres.var(f"zm_{lbl}"), pow(lam, p - 2, p), p)

    rels = [_master_instance(p, slot, *t) for t in _triples(p, rank)]
    rels = [r for r in rels if r]
    # discard duplicate relations by normal form of the polynomials
    uniq, seen = [], set()
    for r in rels:
        key = tuple(sorted(r.items()))
        if key not in seen:
            seen.add(key)
            uniq.append(r)
    return GradedPresentation(p, variables, relations=uniq), plus_of, minus_of


def _master_instance(p, slot, f1, f2, f3, lam3):
    """a1*b2*b3 + b1*a2*b3 + lam3*b1*b2*a3 in the ring whose substitution
    slot(functional, lam) gives the pair (a, b) with the scalar lam folded in."""
    (a1, b1), (a2, b2), (a3, b3) = slot(f1, 1), slot(f2, 1), slot(f3, lam3)
    t1 = pmul(a1, pmul(b2, b3, p), p)
    t2 = pmul(b1, pmul(a2, b3, p), p)
    t3 = pmul(b1, pmul(b2, a3, p), p)
    return padd(padd(t1, t2, p), t3, p)


def present_Rtotal(E, p):
    """The full twist-graded ring on a_N, b_N with one master relation per triple.

    Variables carry twist tuples (one slot per kernel) so graded pieces can be
    counted against the homotopy-theoretic hom dimensions.
    """
    ea = EAStructure(E, p)
    d = two_prime(p)
    coords = coordinates(ea)
    nt = len(coords)
    slot = {c.label: i for i, c in enumerate(coords)}

    def twist(lbl):
        t = [0] * nt
        t[slot[lbl]] = 1
        return tuple(t)

    variables = [(f"a_{c.label}", 0, twist(c.label)) for c in coords]
    variables += [(f"b_{c.label}", -d, twist(c.label)) for c in coords]
    pres = GradedPresentation(p, variables, twist_len=nt)

    def slot(f, lam):
        # a := lam*a_N, b := b_N
        lbl = _label(f)
        return pscale(pres.var(f"a_{lbl}"), lam, p), pres.var(f"b_{lbl}")

    rels = [_master_instance(p, slot, *t) for t in _triples(p, ea.rank)]
    return GradedPresentation(p, variables, relations=rels, twist_len=nt)


# -- induced homomorphisms ----------------------------------------------------------


def _hom_by_pullback(src, tgt, pull):
    """The ring map src -> tgt induced by a group map, one rule for every case.

    pull(f) is the functional a source coordinate f becomes on the target
    basis, or None when its generator dies.  A pull-back lam * canonical sends
    zp to lam * zp and zm to lam^{-1} * zm.  The returned hom carries
    .source_spec / .target_spec attributes.
    """
    p = src.p
    images = []
    for name in src.presentation.varnames:
        sign, lbl = name.split("_", 1)
        f = pull(src.coordinate[lbl].f)
        if f is None:
            images.append(tgt.presentation.zero())
            continue
        lam = leading_scalar(f, p)
        tname = tgt.varname(Coordinate(tgt.ea, canonical_functional(f, p)))
        scale = lam if sign == "zp" else pow(lam, p - 2, p)
        images.append(pscale(tgt.presentation.var(tname), scale, p))
    hom = GradedRingHom(src.presentation, tgt.presentation, images)
    hom.source_spec, hom.target_spec = src, tgt
    return hom


def induced_hom(src, tgt, iota):
    """Ring map src -> tgt induced by an injective group hom iota: B -> A.

    src is a local ring of A, tgt one of B, and iota[b] is the image of every
    element b of B.  A generator dies when iota(B) lies in its kernel.
    """
    ea = src.ea

    def pull(f):
        fb = tuple(ea.functional_on(f, int(iota[b])) for b in tgt.ea.basis)
        return fb if any(fb) else None

    return _hom_by_pullback(src, tgt, pull)


def psi_hom(E, H, K, p):
    """The quotient-collapse map Psi^K: R'_E(H) -> R'_{E/K}(H/K) for K <= H.

    A functional descends to E/K only if it vanishes on K; the others die.
    """
    if not H.contains_subgroup(K):
        raise GroupError("psi_hom needs K <= H")
    src = local_ring(E, H, p)
    Q, proj = quotient(E, E.subgroup(list(K.elements)))
    Hbar = Q.subgroup(sorted({proj.map[x] for x in H.elements}))
    tgt = local_ring(Q, Hbar, p)
    ea = src.ea

    def pull(f):
        if any(ea.functional_on(f, k) for k in K.elements):
            return None
        return tuple(ea.functional_on(f, proj.reps[b]) for b in tgt.ea.basis)

    return _hom_by_pullback(src, tgt, pull)


def res_hom(Esub, E, H, p):
    """Restriction R'_E(H) -> R'_{E'}(H) along a subgroup E' <= E with H <= E'.

    Esub is a Subgroup of E; the target lives on the abstract group of Esub.
    """
    if not Esub.contains_subgroup(H):
        raise GroupError("res_hom needs H <= E'")
    Esub_grp, embed = subgroup_as_group(Esub)
    Hsub = Esub_grp.subgroup(
        [i for i, x in enumerate(embed) if int(x) in set(H.elements)]
    )
    return induced_hom(local_ring(E, H, p), local_ring(Esub_grp, Hsub, p), embed)


def _localized_presentation(pres, names):
    """Extend a presentation by inverses inv_x of the named generators x."""
    variables = list(zip(pres.varnames, pres.degrees))
    variables += [(f"inv_{name}", -pres.degrees[pres.index[name]]) for name in names]
    extra = len(names)
    rels = [{m + (0,) * extra: c for m, c in r.items()} for r in pres.relations]
    allnames = [v for v, _ in variables]
    for name in names:
        inv = f"inv_{name}"
        rels.append(
            {
                tuple((1 if v in (name, inv) else 0) for v in allnames): 1,
                (0,) * len(allnames): pres.p - 1,
            }
        )
    return GradedPresentation(pres.p, variables, relations=rels, check=False)


# -- closure transport ---------------------------------------------------------------


def closure_ideal(E, H, I, p):
    """Transport an ideal of the cohomology of E into the stratum of H.

    I lives in present_Rloc(E, 1); the result lives in present_Rloc(E/H, 1)
    and cuts out the intersection of the closure of V(I) with the H-stratum.
    """
    spec1 = local_ring(E, E.trivial_subgroup(), p)
    if not isinstance(I, HomogeneousIdeal):
        I = HomogeneousIdeal(spec1.presentation, list(I))
    assert I.ambient.digest() == spec1.presentation.digest()
    gens = tuple(sorted(canonical(g) for g in I.generators))
    return _closure_ideal(E, H.elements, p, gens)


@functools.cache
def _closure_ideal(E, elements, p, gens):
    """closure_ideal of the ideal with these canonical generators.  The
    contraction reads only H's vectors; the collapse to E/H reads labels."""
    H = Subgroup(E, elements, check=False)
    specH = local_ring(E, H, p)
    vectors = tuple(sorted(specH.ea.vec_of[h] for h in elements))
    pulled = _contracted_closure(p, specH.ea.rank, vectors, gens)
    # reinterpret the pulled generators inside R'_E(H), then collapse the zm's
    psiH = psi_hom(E, H, H, p)
    return psiH.apply_ideal(
        HomogeneousIdeal(specH.presentation,
                         [dict(g) for g in pulled.generators], check=False)
    )


@functools.cache
def _contracted_closure(p, rank, vectors, gens):
    """The ideal with these canonical generators in R'_E(1), moved into the
    common localization and contracted to R'_E(H), where H is spanned by the
    vectors.  Every labelling of E with these vectors shares the result."""
    # no vector: every kernel contains the trivial subgroup
    pres1, _, _ = _presentation(p, rank, _plus_labels(p, rank, ()))
    presH, _, minus_of = _presentation(p, rank, _plus_labels(p, rank, vectors))
    I = HomogeneousIdeal(pres1, [dict(g) for g in gens], check=False)
    # common localization T: all zp_N, plus inverses of zp_M for M not >= H
    T = _localized_presentation(pres1, [f"zp_{lbl}" for lbl in sorted(minus_of)])
    into_T = GradedRingHom(pres1, T, [T.var(v) for v in pres1.varnames], check=False)
    name_in_T = {zm: f"inv_zp_{lbl}" for lbl, zm in minus_of.items()}
    Q = GradedRingHom(presH, T, [T.var(name_in_T.get(v, v)) for v in presH.varnames])
    return contract(Q, into_T.apply_ideal(I))
