"""The category of elementary abelian p-sections of a finite group.

Objects are pairs (H, K) of p-subgroups with Phi(H) = H^p [H, H] <= K <= H,
that is K normal in H with H/K elementary abelian (Burnside's basis
theorem).  A morphism (H, K) -> (H', K') is a group element g with

    K' <= g^{-1} K g   and   g^{-1} H g <= H',

composed by multiplication (g then g' is g g').  Requiring the target kernel
to sit inside the conjugated source kernel (rather than merely intersecting
it into place) is what makes the induced assignment on module categories
compatible with composition; with only the weaker intersection condition the
diagrams induced by inclusion-after-inflation fail to commute.  Every morphism factors as a
kernel-shrink (type c), an inclusion (type b) and a conjugation
(type a); the factorization is what the spectrum engine transports points
along.  Hom-sets can be reduced: `raw` keeps every witness element, `full`
keeps one witness per induced map H -> H'/K'.

The morphism test reads bitmasks of the conjugates H^g and K^g, kept on
each section, and induced maps name each coset of K' by its least element;
the group memoises both per subgroup.  Whether any morphism x -> y exists is
read off the distinct conjugates of x alone, after a test on shapes: the
shape of (H, K) is (|H|, |K|), and x -> y needs |H| <= |H'| and |K'| <= |K|.
A morphism between sections of one shape is a conjugation, and conjugate
sections are isomorphic, so maximal sections and the apexes of maximal spans
are read from one list of conjugacy-class representatives.  Of these, only
the Frattini sections (H, Phi(H)) can be maximal, and only they need to be
tested as targets.  A domination test between spans first asks whether the
apexes have any morphism at all, and only then looks for a witness.
"""

import functools
import itertools

from .groups import (
    DEFAULT_ORDER_CAP,
    GroupError,
    frattini,
    p_rank_of_section,
    p_subgroups,
)


class SectionObject:
    """A p-section (H, K): H a p-group and Phi(H) <= K <= H."""

    def __init__(self, H, K, p, check=True):
        self.H = H
        self.K = K
        self.p = p
        self.shape = (H.order, K.order)
        if check:
            if not H.contains_subgroup(K):
                raise GroupError("K must be contained in H")
            if not H.is_p_group(p):
                raise GroupError("section subgroups must be p-groups")
            if not frattini(H, p) <= set(K.elements):
                raise GroupError("H/K must be elementary abelian")

    @property
    def group(self):
        return self.H.parent

    def key(self):
        return (tuple(self.H.elements), tuple(self.K.elements))

    def rank(self):
        return p_rank_of_section(self.H, self.K, self.p)

    @functools.cached_property
    def is_frattini(self):
        """K = Phi(H).  `SectionCategory._objects` sets it from the Phi(H)
        mask it already has; elsewhere Phi(H) is computed here."""
        return self.K.order == len(frattini(self.H, self.p))

    @functools.cached_property
    def h_masks(self):
        """The bitmask of H^g for every g in G; the first is H itself."""
        return self.H.parent.conj_masks(self.H.elements)

    @functools.cached_property
    def k_masks(self):
        """The bitmask of K^g for every g in G; the first is K itself."""
        return self.H.parent.conj_masks(self.K.elements)

    @functools.cached_property
    def conjugates(self):
        """The distinct pairs (mask of H^g, mask of K^g) over g in G, in the
        order of the first g giving each; the first is (H, K) itself."""
        return tuple(dict.fromkeys(zip(self.h_masks, self.k_masks)))

    def __eq__(self, other):
        return isinstance(other, SectionObject) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        return f"({self.H.order}|{self.K.order})@{self.H.elements}"


class SectionMorphism:
    """A morphism of sections witnessed by a group element."""

    __slots__ = ("source", "target", "g")

    def __init__(self, source, target, g, check=True):
        self.source = source
        self.target = target
        self.g = int(g)
        if check and not morphism_condition(source, target, g):
            raise GroupError("element does not define a section morphism")

    def compose(self, then):
        """self followed by `then`; witness is the product of witnesses."""
        assert self.target == then.source
        G = self.source.group
        return SectionMorphism(
            self.source, then.target, G.mul(self.g, then.g), check=False
        )

    def is_iso(self):
        Hg = self.source.H.conjugate(self.g)
        Kg = self.source.K.conjugate(self.g)
        return (
            Hg.elements == self.target.H.elements
            and Kg.elements == self.target.K.elements
        )

    def induced_map_key(self):
        """The map H -> H'/K' induced by conjugation, as a tuple over H."""
        return induced_map(self.source, self.target, self.g)

    def __repr__(self):
        return f"{self.source}--[{self.g}]-->{self.target}"


def morphism_condition(x, y, g):
    """K' <= g^{-1} K g and g^{-1} H g <= H'."""
    if x.h_masks[g] & ~y.h_masks[0]:
        return False
    return not y.k_masks[0] & ~x.k_masks[g]


def induced_map(x, y, g):
    """The map x.H -> G/y.K, h -> h^g y.K, as a tuple over x.H that names
    each coset by its least element."""
    G = x.H.parent
    least = G.coset_minima(y.K.elements)
    row = G.conj_table()[g]
    return tuple([least[row[h]] for h in x.H.elements])


class SectionCategory:
    """EA_p(G): finite category of elementary abelian p-sections."""

    def __init__(self, G, p, cap_order=DEFAULT_ORDER_CAP):
        self.G = G
        self.p = p
        self.cap_order = cap_order

    def objects(self):
        return self._objects

    @functools.cached_property
    def _objects(self):
        out = []
        subs = p_subgroups(self.G, self.p, self.cap_order)
        masks = [sum(1 << a for a in S.elements) for S in subs]
        for H, h in zip(subs, masks):
            phi = sum(1 << a for a in frattini(H, self.p))
            for K, k in zip(subs, masks):
                if not (phi & ~k or k & ~h):
                    x = SectionObject(H, K, self.p, check=False)
                    x.is_frattini = k == phi
                    out.append(x)
        return out

    @functools.cached_property
    def _classes(self):
        """The first section of each G-conjugacy class, in object order."""
        seen, reps = set(), []
        for x in self.objects():
            if x.conjugates[0] not in seen:
                seen.update(x.conjugates)
                reps.append(x)
        return reps

    def homs(self, x, y, reduction="raw"):
        """Morphisms x -> y under the requested reduction."""
        raw = [
            SectionMorphism(x, y, g, check=False)
            for g in range(self.G.order)
            if morphism_condition(x, y, g)
        ]
        if reduction == "raw":
            return raw
        if reduction == "full":
            seen, out = set(), []
            for m in raw:
                k = m.induced_map_key()
                if k not in seen:
                    seen.add(k)
                    out.append(m)
            return out
        raise ValueError(f"unknown reduction {reduction!r}")

    def factorize(self, m):
        """Write m as a (conjugation) o b (inclusion) o c (kernel-shrink).

        c: (H,K) -> (H, gK'g^{-1}) by 1 (gK'g^{-1} <= K, same H);
        b: (H, gK'g^{-1}) -> (gH'g^{-1}, gK'g^{-1}) by 1 (same kernel);
        a: conjugation by g onto (H', K').
        """
        G = self.G
        g = m.g
        gi = G.inv(g)
        gHp = m.target.H.conjugate(gi)  # g H' g^{-1}
        gKp = m.target.K.conjugate(gi)
        c_obj = SectionObject(m.source.H, gKp, self.p)
        b_obj = SectionObject(gHp, gKp, self.p)
        c = SectionMorphism(m.source, c_obj, 0)
        b = SectionMorphism(c_obj, b_obj, 0)
        a = SectionMorphism(b_obj, m.target, g)
        composite = c.compose(b).compose(a)
        assert composite.g == m.g
        return a, b, c

    # -- maximal objects and relations -------------------------------------------

    def has_hom(self, x, y):
        """Some g in G is a morphism x -> y.  Conjugation keeps orders, so
        the shapes must allow H^g <= H' and K' <= K^g; then each distinct
        conjugate pair of x is tested against y's masks."""
        if x.H.order > y.H.order or y.K.order > x.K.order:
            return False
        h, k = y.conjugates[0]
        outside = ~h
        return any(not (hg & outside or k & ~kg) for hg, kg in x.conjugates)

    def maxel(self):
        """Conjugacy-class representatives of the maximal sections.

        A morphism x -> y between sections of the same shape is a
        conjugation: H^g <= H' and K' <= K^g with equal orders force
        H^g = H' and K^g = K', so g is an isomorphism and g^-1 a morphism
        back.  Conversely x -> y and y -> x force equal shapes.  So x is not
        maximal exactly when x -> y for a y of another shape, and two maximal
        sections are isomorphic exactly when they share a shape and x -> y.
        As x -> y exactly when x -> y^g, only the first section of each
        conjugacy class is a candidate or a target.

        Of those, only the Frattini sections (H, Phi(H)) are compared:
          - a candidate (H, K) with K != Phi(H) maps to (H, Phi(H)) by 1, and
            the two shapes differ, so it is not maximal;
          - a target y = (H', K') can be replaced by y' = (H', Phi(H')).  If
            x -> y then x -> y' through y -> y' by 1.  If y' had x's shape,
            x -> y' would be an isomorphism, so y -> x as well and y would
            have x's shape too.
        """
        return self._maxel

    @functools.cached_property
    def _maxel(self):
        classes = [x for x in self._classes if x.is_frattini]
        has_hom = self.has_hom
        return [
            x for x in classes
            if not any(x.shape != y.shape and has_hom(x, y) for y in classes)
        ]

    def is_EI(self):
        """Every endomorphism is an isomorphism."""
        for x in self.objects():
            for m in self.homs(x, x):
                if not m.is_iso():
                    return False
        return True

    def maximal_relations(self, reduction="full"):
        """Maximal nondegenerate spans between maximal sections.

        Legs are identified when they induce the same map into the target
        section (morphisms with the same induced functor give the same
        relation).  A span x1 <-f1- y -f2-> x2 dominates another when some
        h: y' -> y satisfies f_i o h == f_i' up to that identification; only
        the dominant spans survive, one per mutual-domination class, minus the
        class of the identity span on each maximal section.

        Domination is a preorder, and swapping the legs keeps it:
          - reflexive, by h = 1;
          - transitive, by composing the witnesses h;
          - a dominates b exactly when (y_a, f2, f1) dominates (y_b, f2, f1),
            since h is tested against both legs alike.
        So one sweep over the candidate spans finds the first span of each
        maximal class: a candidate is dropped when a kept span dominates it,
        and otherwise it replaces the kept spans it dominates.  When the feet
        agree, a survivor is then dropped when its swap is equivalent to the
        identity span or to an earlier survivor.  The swap test runs after the
        sweep, never in it: a span dropped only for its swap must still
        dominate the candidates that follow.

        Only the first section y of each conjugacy class is an apex.  For
        y' = y^g, later in object order, and c: y -> y' the conjugation by g,
        the spans (y', f1, f2) and (y, c f1, c f2) dominate each other (by c
        and its inverse), and the second is a candidate too: its legs have
        the witnesses g f_i.g, or under `full` ones with the same induced
        maps.  So no first span of a maximal class has apex y', and the sweep
        keeps the same spans.
        """
        maxel = self.maxel()
        legs = {
            x: [self.homs(y, x, reduction) for y in self._classes] for x in maxel
        }
        spans = []
        for i, x1 in enumerate(maxel):
            for x2 in maxel[i:]:
                spans.extend(self._maximal_spans(x1, x2, legs[x1], legs[x2]))
        return spans

    def _dominates(self, big, small):
        """The span `small` factors through `big` via some h: y_small -> y_big,
        the first g in G that fits; the witness of h.compose(f) is h.g f.g.
        When has_hom finds no morphism y_small -> y_big, no g is tried."""
        (yb, f1b, f2b), (ys, f1s, f2s) = big, small
        if not self.has_hom(ys, yb):
            return False
        G = self.G
        want1 = list(f1s.induced_map_key())
        want2 = list(f2s.induced_map_key())
        least1 = G.coset_minima(f1b.target.K.elements)
        least2 = G.coset_minima(f2b.target.K.elements)
        rows, mul, hs = G.conj_table(), G.mul, ys.H.elements
        for h in range(G.order):
            if morphism_condition(ys, yb, h):
                row1, row2 = rows[mul(h, f1b.g)], rows[mul(h, f2b.g)]
                if ([least1[row1[a]] for a in hs] == want1
                        and [least2[row2[a]] for a in hs] == want2):
                    return True
        return False

    def _maximal_spans(self, x1, x2, legs1, legs2):
        """Maximal spans x1 <- y -> x2, from the legs of each apex y."""
        dominates = self._dominates
        maximal = []
        for y, f1s, f2s in zip(self._classes, legs1, legs2):
            for f1, f2 in itertools.product(f1s, f2s):
                c = (y, f1, f2)
                if not any(dominates(m, c) for m in maximal):
                    maximal = [m for m in maximal if not dominates(c, m)]
                    maximal.append(c)
        if x1 != x2:
            return [SpanRelation(*c) for c in maximal]
        # no two survivors are equivalent, and the identity span is its own
        # swap, so only the swap of each survivor is compared
        ident = self.identity(x1)
        reps = [(x1, ident, ident)]
        for c in maximal:
            cs = (c[0], c[2], c[1])
            if not any(dominates(r, cs) and dominates(cs, r) for r in reps):
                reps.append(c)
        return [SpanRelation(*c) for c in reps[1:]]

    def identity(self, x):
        return SectionMorphism(x, x, 0, check=False)


class SpanRelation:
    """A span x1 <-f1- y -f2-> x2 between maximal sections."""

    def __init__(self, apex, f1, f2):
        self.apex = apex
        self.f1 = f1
        self.f2 = f2

    def __repr__(self):
        return f"Span[{self.f1.target} <- {self.apex} -> {self.f2.target}]"
