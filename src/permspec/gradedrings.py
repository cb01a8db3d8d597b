"""Finitely presented graded-commutative algebras over F_p.

Polynomials are sparse dicts {exponent tuple: coefficient mod p}.  The engine
is Buchberger's algorithm with degree-reverse-lexicographic and
block-elimination orders: S-pairs are updated by the Gebauer–Möller criteria
and taken by total degree of their lcm, then by order key, and every reduced
basis comes from one memo keyed by canonical generators, order and p.
Everything downstream (ideal membership, equality, saturation, elimination,
contraction along ring homomorphisms) reduces to normal forms against those
bases.

Inside the reduction kernel (`buchberger`, `s_polynomial`, `normal_form`)
a monomial is one int: `MonomialOrder.codec(bits)` packs exponent tuples
into fields of w = bits + nvars.bit_length() + 1 bits, variable 0 lowest,
each exponent below 2**bits.  A product is one `+`; a divides b when
`((b | guard) - a) & guard == guard`, guard being bit `bits` of each field;
the lcm selects fields by the same subtraction; the total degree is
`x % (2**w - 1)`; and the order key is one int, `(degree << S) - x` for
grevlex and two such blocks for a block order.  An input exponent past the
bound, or a product that sets a guard bit, raises `_Overflow`, and the whole
computation restarts at twice the width (8 bits first), so results do not
depend on any exponent bound.  Callers outside the kernel see exponent
tuples only.

Variables carry an integer shift degree (and optionally a twist tuple); in
odd characteristic only even shift degrees are supported, which keeps the
ring honestly commutative.  For p = 2 signs are invisible, so odd degrees
are allowed there.
"""

import collections
import functools
import heapq
import itertools
import re
from operator import add, le, lshift, mul, neg, sub


class RingError(ValueError):
    pass


class UnsupportedRegimeError(RingError):
    """Odd-shift variables in odd characteristic: not a commutative regime."""


# -- monomial orders -----------------------------------------------------------


def _grevlex_key(e):
    # higher total degree first, then the smaller exponent in the last
    # differing position
    return (sum(e), tuple(map(neg, reversed(e))))


class MonomialOrder:
    """grevlex, or a block order eliminating the first `block` variables.

    `key(e)` is a plain tuple that sorts exponent tuples as the order does:
    for a block order, the grevlex key of the block followed by the grevlex
    key of the rest.
    """

    def __init__(self, nvars, block=0):
        self.nvars = nvars
        self.block = block

    def key(self, e):
        b = self.block
        if b:
            return _grevlex_key(e[:b]) + _grevlex_key(e[b:])
        return _grevlex_key(e)

    def cmp(self, e1, e2):
        k1, k2 = self.key(e1), self.key(e2)
        return (k1 > k2) - (k1 < k2)

    def codec(self, bits):
        """The packed monomials of this order with exponents below 2**bits."""
        return _codec(self.nvars, self.block, bits)


class _Overflow(ArithmeticError):
    """An exponent reached the codec's bound: rerun at a wider one."""


class PackedMonomials:
    """Exponent tuples of one monomial order packed into single ints.

    Variable i owns bits [w*i, w*(i+1)), w = bits + nvars.bit_length() + 1,
    and holds an exponent below 2**bits, so a sum of two packed monomials
    carries into no neighbouring field and all exponents sum to less than
    2**w - 1.  `key` sorts packed monomials as the order sorts their tuples.
    """

    def __init__(self, nvars, block, bits):
        w = bits + nvars.bit_length() + 1
        self.bits = bits
        self.shifts = tuple(range(0, w * nvars, w))
        self.guard = sum(1 << s for s in self.shifts) << bits
        self.field = (1 << bits) - 1  # the largest exponent: one field's value bits
        mod = (1 << w) - 1  # 2**w = 1 modulo it: x % mod sums the fields
        top = w * nvars
        if block:
            low, mask = w * block, (1 << w * block) - 1
            rest = top - low

            def key(x):  # the rest's grevlex key is below 2**(rest + w)
                xb, xr = x & mask, x >> low
                kb = ((xb % mod) << low) - xb
                return (kb << (rest + w)) + ((xr % mod) << rest) - xr
        else:

            def key(x):
                return ((x % mod) << top) - x

        self.key = key
        self.degree = mod.__rmod__  # x -> x % mod

    def encode(self, f):
        """A polynomial with exponent tuples as one with packed monomials."""
        out = {}
        for m, c in f.items():
            if max(m, default=0) > self.field:
                raise _Overflow
            out[sum(map(lshift, m, self.shifts))] = c
        return out

    def decode(self, f):
        field, shifts = self.field, self.shifts
        return {tuple(x >> s & field for s in shifts): c for x, c in f.items()}

    def lcm(self, a, b):
        ge = ((b | self.guard) - a) & self.guard  # guard bits of fields b >= a
        return a ^ ((a ^ b) & (ge - (ge >> self.bits)))


@functools.cache
def _codec(nvars, block, bits):
    return PackedMonomials(nvars, block, bits)


def _packed(order, run):
    """run(codec) with the narrowest codec of `order`, from 8 bits up, whose
    exponent bound the run never reaches."""
    bits = 8
    while True:
        try:
            return run(order.codec(bits))
        except _Overflow:
            bits *= 2


# -- raw polynomial arithmetic --------------------------------------------------


def pnormal(f, p):
    return {m: c % p for m, c in f.items() if c % p}


def padd(f, g, p):
    out = dict(f)
    for m, c in g.items():
        c2 = (out.get(m, 0) + c) % p
        if c2:
            out[m] = c2
        else:
            out.pop(m, None)
    return out


def pscale(f, c, p):
    c %= p
    if c == 0:
        return {}
    return {m: (cc * c) % p for m, cc in f.items()}


def pmul(f, g, p):
    out = {}
    for m1, c1 in f.items():
        for m2, c2 in g.items():
            m = tuple(map(add, m1, m2))
            c = (out.get(m, 0) + c1 * c2) % p
            if c:
                out[m] = c
            else:
                out.pop(m, None)
    return out


def pconst(c, nvars, p):
    c %= p
    return {(0,) * nvars: c} if c else {}


def pvar(i, nvars):
    e = [0] * nvars
    e[i] = 1
    return {tuple(e): 1}


def leading(f, order):
    m = max(f, key=order.key)
    return m, f[m]


def normal_form(f, basis, codec, p, lead=None):
    """Full normal form of f against a list of polynomials, all with
    monomials packed by `codec`.

    `lead` may give the leading terms of `basis`, as `leading` returns them;
    callers that reduce many polynomials against one basis pass it once.
    """
    if lead is None:
        lead = [leading(g, codec) for g in basis]
    key, guard = codec.key, codec.guard
    out = {}
    work = pnormal(f, p)
    keys = {m: key(m) for m in work}  # order keys of the monomials seen
    while work:
        m = max(work, key=keys.__getitem__)
        c = work[m]
        top = m | guard
        for g, (lm, lc) in zip(basis, lead):
            if (top - lm) & guard == guard:  # lm divides m
                # work -= (c / lc) * (m / lm) * g
                q = m - lm
                scale = (c * pow(lc, p - 2, p)) % p
                for mg, cg in g.items():
                    t = q + mg
                    if t & guard:
                        raise _Overflow
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


def s_polynomial(f, g, lead_f, lead_g, codec, p):
    """S-polynomial of f and g, with monomials packed by `codec`; `lead_f`
    and `lead_g` are their leading terms, as `leading` returns them."""
    (mf, cf), (mg, cg) = lead_f, lead_g
    lcm = codec.lcm(mf, mg)
    guard = codec.guard
    out = {}
    uf, scale = lcm - mf, pow(cf, p - 2, p)
    for m, c in f.items():
        t = uf + m
        if t & guard:
            raise _Overflow
        out[t] = (c * scale) % p
    ug, scale = lcm - mg, p - pow(cg, p - 2, p)
    for m, c in g.items():
        t = ug + m
        if t & guard:
            raise _Overflow
        ct = (out.get(t, 0) + c * scale) % p
        if ct:
            out[t] = ct
        else:
            del out[t]
    return out


def buchberger(gens, order, p):
    """Reduced Groebner basis (sorted by leading monomial, monic).

    Each new element updates the S-pairs by the Gebauer–Möller criteria
    (JSC 1988), and pairs are taken by total degree of their lcm, then by
    its order key.  The run works on packed monomials, from the narrowest
    codec of `order` whose bound it never reaches.
    """
    gens = [g for g in (pnormal(g, p) for g in gens) if g]
    return _packed(order, lambda codec: _buchberger(gens, codec, p))


def _buchberger(gens, codec, p):
    key, degree, lcm_of = codec.key, codec.degree, codec.lcm
    # a divides b when ((b | guard) - a) & guard == guard
    guard, bits = codec.guard, codec.bits
    basis, lead = [], []  # leading terms taken once per element
    alive = []  # elements whose leading terms no later element divides
    # heap of S-pairs (degree and key of the lcm, -arrival, i, j, lcm): of
    # pairs with equal lcms the newest comes first
    pairs = []
    arrivals = itertools.count()

    def add(h):
        hi = len(basis)
        basis.append(h)
        lead.append(leading(h, codec))
        mh = lead[hi][0]
        # B: a queued pair goes when lt(h) divides its lcm and h's lcm with
        # neither of its elements equals it
        kept = [
            q for q in pairs
            if not (((q[5] | guard) - mh) & guard == guard
                    and lcm_of(lead[q[3]][0], mh) != q[5]
                    and lcm_of(lead[q[4]][0], mh) != q[5])
        ]
        if len(kept) < len(pairs):
            pairs[:] = kept
            heapq.heapify(pairs)
        # lcm(g, h) = lt(h) * u, u the part of lt(g) outside lt(h).  F: one
        # pair per u, and none if a g of that u is coprime to h (the product
        # criterion); M: none when a smaller u divides u.
        first = {}
        for g in alive:
            mg = lead[g][0]
            d = (mg | guard) - mh
            ge = d & guard  # guard bits of the fields where lt(g) >= lt(h)
            u = d & (ge - (ge >> bits))
            g0, coprime = first.get(u, (g, False))
            first[u] = (g0, coprime or u == mg)
        minimal = []
        for u in sorted(first, key=degree):
            top = u | guard
            for v in minimal:
                if (top - v) & guard == guard:
                    break
            else:
                minimal.append(u)
                g, coprime = first[u]
                if not coprime:
                    lcm = mh + u
                    item = (degree(lcm), key(lcm), -next(arrivals), g, hi, lcm)
                    heapq.heappush(pairs, item)
        alive[:] = [
            g for g in alive if ((lead[g][0] | guard) - mh) & guard != guard
        ] + [hi]

    for g in gens:
        add(codec.encode(g))
    while pairs:
        *_, i, j, _ = heapq.heappop(pairs)
        s = s_polynomial(basis[i], basis[j], lead[i], lead[j], codec, p)
        r = normal_form(s, basis, codec, p, lead)
        if r:
            add(r)
    # minimalize: no two alive leading terms are equal
    keep = [
        i for i in alive
        if not any(k != i and ((lead[i][0] | guard) - lead[k][0]) & guard == guard
                   for k in alive)
    ]
    # inter-reduce, which keeps each leading term, and normalize
    reduced = []
    for i in keep:
        others = [k for k in keep if k != i]
        r = normal_form(
            basis[i], [basis[k] for k in others], codec, p, [lead[k] for k in others]
        )
        lm, lc = lead[i]
        g = codec.decode(pscale(r, pow(lc, p - 2, p), p))
        reduced.append((key(lm), canonical(g)))
    return tuple(g for _, g in sorted(reduced))


def canonical(f):
    return tuple(sorted(f.items()))


def _groebner_basis(gens, nvars, block, p):
    """Reduced Groebner basis of the ideal of gens under
    MonomialOrder(nvars, block), read from one memo: generators that differ
    only in order, repetition or scale share its entry."""
    gens = [g for g in (pnormal(g, p) for g in gens) if g]
    monic = {canonical(pscale(g, pow(g[max(g)], p - 2, p), p)) for g in gens}
    return _reduced_basis(tuple(sorted(monic)), nvars, block, p)


@functools.cache
def _reduced_basis(gens, nvars, block, p):
    return buchberger([dict(g) for g in gens], MonomialOrder(nvars, block), p)


# -- presentations ---------------------------------------------------------------


class GradedPresentation:
    """A graded-commutative F_p-algebra: named variables with degrees, relations.

    degrees: integer shift degrees; twists: optional tuples (one slot per
    twist coordinate), used only for multigraded bookkeeping.
    """

    def __init__(self, p, variables, relations=(), twist_len=0, check=True):
        self.p = p
        self.varnames = tuple(name for name, _deg in _norm_vars(variables))
        self.degrees = tuple(deg for _name, deg in _norm_vars(variables))
        self.twists = {}
        self.twist_len = twist_len
        for entry in variables:
            if len(entry) > 2 and entry[2] is not None:
                self.twists[entry[0]] = tuple(entry[2])
        if len(set(self.varnames)) != len(self.varnames):
            raise RingError("duplicate variable names")
        self.index = {n: i for i, n in enumerate(self.varnames)}
        self.order = MonomialOrder(len(self.varnames))
        self.relations = tuple(
            self.poly(r) if not isinstance(r, dict) else pnormal(r, p)
            for r in relations
        )
        self._reducer_cache = {}
        if check:
            for r in self.relations:
                if not self.is_homogeneous(r):
                    raise RingError(f"relation not homogeneous: {self.format(r)}")

    @property
    def nvars(self):
        return len(self.varnames)

    def check_regime(self):
        if self.p != 2 and any(d % 2 for d in self.degrees):
            raise UnsupportedRegimeError(
                "odd-shift variables in odd characteristic are not supported"
            )

    # polynomial construction

    def zero(self):
        return {}

    def one(self):
        return pconst(1, self.nvars, self.p)

    def var(self, name):
        return pvar(self.index[name], self.nvars)

    def poly(self, expr):
        if isinstance(expr, dict):
            return pnormal(expr, self.p)
        return parse_poly(expr, self)

    def shift_degree(self, mono):
        return sum(e * d for e, d in zip(mono, self.degrees))

    def twist_degree(self, mono):
        tw = [0] * self.twist_len
        for i, e in enumerate(mono):
            t = self.twists.get(self.varnames[i])
            if t:
                for k in range(self.twist_len):
                    tw[k] += e * t[k]
        return tuple(tw)

    def is_homogeneous(self, f):
        if not f:
            return True
        degs = {self.shift_degree(m) for m in f}
        if len(degs) > 1:
            return False
        if self.twist_len:
            tws = {self.twist_degree(m) for m in f}
            if len(tws) > 1:
                return False
        return True

    def degree_of(self, f):
        if not f:
            return None
        return self.shift_degree(next(iter(f)))

    def format(self, f):
        return format_poly(f, self)

    def digest(self):
        return self._digest

    @functools.cached_property
    def _digest(self):
        return (
            self.p,
            self.varnames,
            self.degrees,
            tuple(sorted((k, v) for k, v in self.twists.items())),
            tuple(canonical(r) for r in self.relations),
        )

    def groebner_of(self, gens, block=0):
        """Reduced GB of <gens + relations> under grevlex / block elimination."""
        self.check_regime()
        return _groebner_basis(
            list(gens) + list(self.relations), self.nvars, block, self.p
        )

    def _reducer(self, gb, codec):
        """A grevlex basis from groebner_of packed by `codec`, with its
        leading terms: the arguments of normal_form, built once per basis
        and field width."""
        hit = self._reducer_cache.get((gb, codec.bits))
        if hit is None:
            basis = [codec.encode(dict(g)) for g in gb]
            hit = (basis, [leading(g, codec) for g in basis])
            self._reducer_cache[gb, codec.bits] = hit
        return hit

    def __repr__(self):
        vs = ", ".join(
            f"{n}({d:+d})" for n, d in zip(self.varnames, self.degrees)
        )
        return f"GradedPresentation(F_{self.p}[{vs}] / {len(self.relations)} relations)"


def _norm_vars(variables):
    out = []
    for entry in variables:
        name, deg = entry[0], entry[1]
        out.append((name, int(deg)))
    return out


class HomogeneousIdeal:
    """An ideal of a GradedPresentation, given by homogeneous generators."""

    def __init__(self, ambient, generators, check=True):
        self.ambient = ambient
        gens = []
        for g in generators:
            f = ambient.poly(g)
            if f:
                gens.append(f)
        self.generators = tuple(gens)
        if check:
            for g in self.generators:
                if not ambient.is_homogeneous(g):
                    raise RingError(
                        f"ideal generator not homogeneous: {ambient.format(g)}"
                    )

    def groebner(self):
        return self._groebner

    @functools.cached_property
    def _groebner(self):
        return self.ambient.groebner_of(self.generators)

    def member(self, f):
        return not self.normal_form(f)

    def normal_form(self, f):
        amb = self.ambient
        f = amb.poly(f)
        gb = self.groebner()
        if not gb:
            return f

        def reduce(codec):
            basis, lead = amb._reducer(gb, codec)
            return codec.decode(normal_form(codec.encode(f), basis, codec, amb.p, lead))

        return _packed(amb.order, reduce)

    def is_zero(self):
        """True iff the ideal equals the ideal of ambient relations alone."""
        return self == HomogeneousIdeal(self.ambient, [])

    def is_unit(self):
        return self.member(self.ambient.one())

    def __eq__(self, other):
        if not isinstance(other, HomogeneousIdeal):
            return NotImplemented
        if self.ambient.digest() != other.ambient.digest():
            return False
        return self.groebner() == other.groebner()

    def __hash__(self):
        return hash(self.groebner())

    def contains_ideal(self, other):
        return all(self.member(dict(g)) for g in other.generators)

    def __repr__(self):
        gs = ", ".join(self.ambient.format(dict(g)) for g in self.generators)
        return f"<{gs}>"


# -- elimination / saturation / contraction --------------------------------------


def eliminate(I, varnames):
    """Generators of I ∩ (subring without the named variables)."""
    amb = I.ambient
    block_idx = sorted(amb.index[v] for v in varnames)
    rest_idx = [i for i in range(amb.nvars) if i not in block_idx]
    perm = block_idx + rest_idx  # new position -> old index
    inv = {old: new for new, old in enumerate(perm)}

    def reindex(f):
        return {
            tuple(m[perm[k]] for k in range(len(perm))): c for m, c in f.items()
        }

    gens = [reindex(g) for g in I.generators] + [reindex(r) for r in amb.relations]
    amb.check_regime()
    gb = _groebner_basis(gens, amb.nvars, len(block_idx), amb.p)
    kept = []
    for g in gb:
        gd = dict(g)
        if all(all(m[k] == 0 for k in range(len(block_idx))) for m in gd):
            kept.append({
                tuple(m[inv[i]] for i in range(amb.nvars)): c for m, c in gd.items()
            })
    return HomogeneousIdeal(amb, kept, check=False)


class GradedRingHom:
    """Ring homomorphism between presentations, one image per source variable.

    Construction verifies that relations die and that images are homogeneous
    of the degree of their source variable.
    """

    def __init__(self, source, target, images, check=True):
        self.source = source
        self.target = target
        self.images = [target.poly(im) for im in images]
        if len(self.images) != source.nvars:
            raise RingError("need one image per source variable")
        if check:
            self._validate()

    def _validate(self):
        tgt_rel = HomogeneousIdeal(self.target, [], check=False)
        for i, im in enumerate(self.images):
            if not self.target.is_homogeneous(im):
                raise RingError("image not homogeneous")
            if im:
                want = self.source.degrees[i]
                if self.target.degree_of(im) != want:
                    raise RingError(
                        f"image of {self.source.varnames[i]} has degree "
                        f"{self.target.degree_of(im)}, expected {want}"
                    )
        for r in self.source.relations:
            if not tgt_rel.member(self.apply(r)):
                raise RingError(
                    f"relation {self.source.format(r)} does not map to zero"
                )

    def apply(self, f):
        f = self.source.poly(f)
        p = self.target.p
        out = {}
        for m, c in f.items():
            term = pconst(c, self.target.nvars, p)
            for i, e in enumerate(m):
                for _ in range(e):
                    term = pmul(term, self.images[i], p)
            out = padd(out, term, p)
        return out

    def apply_ideal(self, I):
        return HomogeneousIdeal(
            self.target, [self.apply(dict(g)) for g in I.generators], check=False
        )

    def compose(self, earlier):
        images = [self.apply(im) for im in earlier.images]
        return GradedRingHom(earlier.source, self.target, images, check=False)


def contract(phi, J):
    """Preimage phi^{-1}(J + target relations) as an ideal of the source.

    Classic graph-ideal elimination: in k[target vars, source vars], take J,
    the target relations and x_i - phi(x_i), then eliminate the target block.
    """
    src, tgt = phi.source, phi.target
    if src.p != tgt.p:
        raise RingError("characteristic mismatch")
    p = src.p
    tnames = [f"y{i}@" for i in range(tgt.nvars)]
    combined = GradedPresentation(
        p,
        list(zip(tnames, tgt.degrees)) + list(zip(src.varnames, src.degrees)),
        check=False,
    )
    tn = tgt.nvars

    def up_t(f):  # target poly into combined
        return {m + (0,) * src.nvars: c for m, c in f.items()}

    def up_s(f):  # source poly into combined
        return {(0,) * tn + m: c for m, c in f.items()}

    gens = [up_t(dict(g)) for g in J.generators]
    gens += [up_t(r) for r in tgt.relations]
    for i in range(src.nvars):
        graph = padd(
            up_s(pvar(i, src.nvars)), pscale(up_t(phi.images[i]), p - 1, p), p
        )
        gens.append(graph)
    big = HomogeneousIdeal(combined, gens, check=False)
    elim = eliminate(big, tnames)
    down = [{m[tn:]: c for m, c in g.items()} for g in elim.generators]
    out = HomogeneousIdeal(src, down, check=False)
    # drop generators already implied by the source relations
    zero = HomogeneousIdeal(src, [], check=False)
    gens = [dict(g) for g in out.generators if not zero.member(dict(g))]
    return HomogeneousIdeal(src, gens, check=False)


def count_standard_monomials(pres, shift, twist):
    """Dimension of the graded piece (shift, twist) of the presented algebra.

    Counts monomials of the given multidegree avoiding all leading terms of
    the relation Groebner basis.  Every variable must carry a twist of the
    same length with nonnegative entries, not all zero, which bounds the
    exponents of each twist.  The monomials of a twist are counted once for
    all shifts, memoised on the presentation's digest.
    """
    pres.check_regime()
    for name in pres.varnames:
        t = pres.twists.get(name)
        if not t or not any(t) or min(t) < 0 or len(t) != len(twist):
            raise RingError("twist counting needs twist-positive variables")
    return _shift_histogram(pres.digest(), tuple(twist))[shift]


@functools.cache
def _shift_histogram(digest, twist):
    """Counter {shift: standard monomials of that shift} over one twist of
    the presentation with this digest."""
    p, names, degrees, twists, relations = digest
    gb = _groebner_basis([dict(r) for r in relations], len(names), 0, p)
    order = MonomialOrder(len(names))
    lead = [leading(dict(g), order)[0] for g in gb]
    twists = dict(twists)
    return collections.Counter(
        sum(map(mul, expo, degrees))
        for expo in _exponents_of_twist([twists[n] for n in names], twist)
        if not any(all(map(le, lm, expo)) for lm in lead)
    )


def _exponents_of_twist(twists, budget):
    """Exponent vectors e with sum_i e_i * twists[i] == budget, variable by
    variable with what is left of the budget."""
    if not twists:
        if not any(budget):
            yield ()
        return
    e = 0
    while min(budget) >= 0:
        for rest in _exponents_of_twist(twists[1:], budget):
            yield (e,) + rest
        budget = tuple(map(sub, budget, twists[0]))
        e += 1


# -- ASCII grammar ----------------------------------------------------------------

_TOKEN = re.compile(r"\s*([A-Za-z_][A-Za-z0-9_]*|\d+|\^|\*|\+|\-|\(|\))")


def parse_poly(text, pres):
    """Parse `c*zp_a^2*zm_b + ...` into a polynomial of the presentation."""
    pos = 0
    tokens = []
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            if text[pos:].strip():
                raise RingError(f"parse error at position {pos}: {text[pos:]!r}")
            break
        tokens.append(m.group(1))
        pos = m.end()
    if not tokens:
        return pres.zero()
    p = pres.p
    total = pres.zero()
    i = 1 if tokens[0] in "+-" else 0
    sign = -1 if tokens[0] == "-" else 1
    while True:
        term = pres.one()
        want = True  # a factor is due: at the start and after '*'
        while i < len(tokens) and tokens[i] not in "+-":
            tok = tokens[i]
            if tok == "*" and not want:
                want = True
            elif tok.isdigit():
                term, want = pscale(term, int(tok), p), False
            elif tok in pres.index:
                e = "1"
                if tokens[i + 1:i + 2] == ["^"]:
                    e = tokens[i + 2] if i + 2 < len(tokens) else ""
                    if not e.isdigit():
                        raise RingError(f"exponent of {tok} is not a whole number")
                    i += 2
                mono = [0] * pres.nvars
                mono[pres.index[tok]] = int(e)
                term, want = pmul(term, {tuple(mono): 1}, p), False
            elif tok[0].isalpha() or tok[0] == "_":
                raise RingError(f"unknown variable {tok!r}")
            else:
                raise RingError(f"unexpected {tok!r}")
            i += 1
        if want:
            raise RingError("empty term or dangling '*'")
        total = padd(total, pscale(term, sign % p, p), p)
        if i == len(tokens):
            return total
        sign = -1 if tokens[i] == "-" else 1
        i += 1


def format_poly(f, pres):
    if not f:
        return "0"
    order = pres.order
    monos = sorted(f, key=order.key, reverse=True)
    parts = []
    for m in monos:
        c = f[m]
        factors = []
        for i, e in enumerate(m):
            if e == 1:
                factors.append(pres.varnames[i])
            elif e > 1:
                factors.append(f"{pres.varnames[i]}^{e}")
        if not factors:
            parts.append(str(c))
        elif c == 1:
            parts.append("*".join(factors))
        else:
            parts.append(f"{c}*" + "*".join(factors))
    return " + ".join(parts)
