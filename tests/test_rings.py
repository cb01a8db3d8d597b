import functools
import importlib
import itertools
import pkgutil
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from references import (
    plain_buchberger,
    plain_normal_form,
    plain_s_polynomial,
    token_order_by_closure,
)

import permspec
from permspec import gradedrings, modp
from permspec.gradedrings import (
    GradedPresentation,
    GradedRingHom,
    HomogeneousIdeal,
    MonomialOrder,
    RingError,
    UnsupportedRegimeError,
    buchberger,
    canonical,
    contract,
    count_standard_monomials,
    eliminate,
    format_poly,
    leading,
    padd,
    parse_poly,
    pmul,
)
from permspec.groups import elementary_abelian
from permspec.spectra import KIND_FAMILY, _named_points, _specialization_order


def _poly_ring(p, names, degs=None):
    degs = degs or [2] * len(names)
    return GradedPresentation(p, [(n, d) for n, d in zip(names, degs)])


def _random_poly(pres, rng, nterms=3, total=2):
    """Random homogeneous polynomial of fixed total degree."""
    f = pres.zero()
    for _ in range(nterms):
        mono = [0] * pres.nvars
        for _ in range(total):
            mono[rng.randrange(pres.nvars)] += 1
        f = padd(f, {tuple(mono): rng.randrange(1, pres.p)}, pres.p)
    return f


def _grevlex_cmp(e1, e2):
    """The comparator the order keys replaced, kept as their reference."""
    d1, d2 = sum(e1), sum(e2)
    if d1 != d2:
        return 1 if d1 > d2 else -1
    for i in reversed(range(len(e1))):
        if e1[i] != e2[i]:
            # smaller exponent in the last differing position wins
            return 1 if e1[i] < e2[i] else -1
    return 0


def _block_cmp(block, e1, e2):
    if block:
        c = _grevlex_cmp(e1[:block], e2[:block])
        if c:
            return c
        return _grevlex_cmp(e1[block:], e2[block:])
    return _grevlex_cmp(e1, e2)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 6).flatmap(lambda n: st.tuples(
    st.integers(0, n - 1),
    st.lists(st.tuples(*[st.integers(0, 3)] * n), min_size=2, max_size=12),
)))
def test_order_key_matches_comparator(case):
    block, monos = case
    order = MonomialOrder(len(monos[0]), block)
    for e1, e2 in itertools.product(monos, repeat=2):
        want = _block_cmp(block, e1, e2)
        k1, k2 = order.key(e1), order.key(e2)
        assert (k1 > k2) - (k1 < k2) == want
        assert order.cmp(e1, e2) == want


def _in_ideal(f, gens, p):
    """Membership of a homogeneous f in the ideal of homogeneous gens, by
    linear algebra: f must be an F_p-combination of the monomial multiples
    of the gens in its own degree."""
    deg = sum(next(iter(f)))
    nvars = len(next(iter(f)))
    rows = []
    for g in gens:
        if not g:
            continue
        e = deg - sum(next(iter(g)))
        for u in itertools.product(range(max(e, 0) + 1), repeat=nvars):
            if sum(u) == e:
                rows.append(pmul({u: 1}, g, p))
    cols = sorted({m for r in rows + [f] for m in r})

    def rank_of(polys):
        return modp.rank(np.array([[r.get(m, 0) for m in cols] for r in polys]), p)

    return bool(rows) and rank_of(rows) == rank_of(rows + [f])


def certify_groebner(gb, gens, order, p):
    """Check that gb is the reduced Groebner basis of the ideal of gens."""
    basis = [dict(g) for g in gb]
    leads = [leading(g, order) for g in basis]
    # a generating set of the same ideal
    for f in gens:
        assert not plain_normal_form(f, basis, order, p)
    for g in basis:
        assert _in_ideal(g, gens, p)
    # Buchberger's criterion
    for (f, lf), (g, lg) in itertools.combinations(zip(basis, leads), 2):
        s = plain_s_polynomial(f, g, lf, lg, p)
        assert not plain_normal_form(s, basis, order, p)
    # reduced and monic, sorted by leading monomial
    assert all(lc == 1 for _, lc in leads)
    for i, g in enumerate(basis):
        for j, (lm, _) in enumerate(leads):
            if i != j:
                assert not any(
                    all(a <= b for a, b in zip(lm, m)) for m in g
                )
    keys = [order.key(lm) for lm, _ in leads]
    assert keys == sorted(keys)


@settings(max_examples=150, deadline=None)
@given(
    st.integers(0, 10**6),
    st.sampled_from([2, 3, 5]),
    st.integers(2, 4),
    st.integers(0, 3),
)
def test_buchberger_certified(seed, p, nvars, block):
    """The Gebauer-Moeller pair update and degree-first selection give the
    reduced basis that Buchberger with the product criterion alone gives."""
    rng = random.Random(seed)
    block = min(block, nvars - 1)
    pres = _poly_ring(p, ["x", "y", "z", "w"][:nvars])
    gens = [
        _random_poly(pres, rng, nterms=rng.randrange(1, 5), total=rng.randrange(1, 5))
        for _ in range(rng.randrange(1, 7))
    ]
    order = MonomialOrder(nvars, block)
    gb = buchberger(gens, order, p)
    assert gb == plain_buchberger(gens, order, p)
    certify_groebner(gb, gens, order, p)


def test_buchberger_matches_plain_reference_on_skeleton_inputs(monkeypatch):
    """Every Buchberger input of the cold closure transports that order the
    family tokens of the C3^2 rational skeleton in the closure reference
    (the skeleton itself runs none) gives the reference basis."""
    seen = []

    def recording(gens, order, p):
        seen.append((gens, order, p))
        return buchberger(gens, order, p)

    monkeypatch.setattr(gradedrings, "buchberger", recording)
    for info in pkgutil.iter_modules(permspec.__path__):  # cold memos
        mod = importlib.import_module(f"permspec.{info.name}")
        for name, val in list(vars(mod).items()):
            if callable(getattr(val, "cache_clear", None)):
                monkeypatch.setattr(mod, name, functools.cache(val.__wrapped__))
    E = elementary_abelian(3, 2)
    points = _named_points(E, 3, "rational", 2)
    assert token_order_by_closure(E, 3, points) == {
        (i, j) for (i, j) in _specialization_order(E, 3, points)
        if points[i].kind == KIND_FAMILY
    }
    assert len(seen) > 20
    assert any(order.block for _, order, _ in seen)
    for gens, order, p in seen:
        assert buchberger(gens, order, p) == plain_buchberger(gens, order, p)


@pytest.mark.parametrize("text", ["x^", "x^y", "x^-1", "x**2", "x +", "x*", "-"])
def test_parse_poly_rejects_malformed_input(text):
    pres = _poly_ring(3, ["x", "y"])
    with pytest.raises(RingError):
        parse_poly(text, pres)


def test_parse_poly_reads_every_factor_form():
    pres = _poly_ring(3, ["x", "y"])
    assert parse_poly("", pres) == {}
    assert parse_poly("- 2*x^2*y + x*y^10 - 4", pres) == {
        (2, 1): 1, (1, 10): 1, (0, 0): 2,
    }
    assert parse_poly("2 x y^0", pres) == {(1, 0): 2}


def test_monomial_order_grevlex():
    o = MonomialOrder(3)
    # total degree first
    assert o.cmp((2, 0, 0), (1, 0, 0)) > 0
    # ties broken by reverse lexicographic on the last variable
    assert o.cmp((1, 0, 1), (0, 2, 0)) < 0
    assert o.cmp((1, 1, 0), (1, 0, 1)) > 0


def test_buchberger_membership():
    pres = _poly_ring(5, ["x", "y", "z"])
    I = HomogeneousIdeal(pres, [pres.poly("x^2 + y*z"), pres.poly("x*y + z^2")])
    f = pmul(pres.poly("x^2 + y*z"), pres.poly("z"), 5)
    assert I.member(f)
    assert not I.member(pres.poly("z^2"))
    assert not I.is_unit() and not I.is_zero()


def test_groebner_reduces_s_polynomials():
    rng = random.Random(7)
    for p in (2, 3):
        pres = _poly_ring(p, ["x", "y", "z"])
        gens = [_random_poly(pres, rng) for _ in range(2)]
        gb = buchberger(gens, pres.order, p)
        for f, g in itertools.combinations([dict(t) for t in gb], 2):
            s = plain_s_polynomial(
                f, g, leading(f, pres.order), leading(g, pres.order), p
            )
            assert not plain_normal_form(s, [dict(t) for t in gb], pres.order, p)


def test_eliminate():
    pres = _poly_ring(3, ["x", "y", "z"])
    I = HomogeneousIdeal(pres, [pres.poly("x^2 + y^2"), pres.poly("y^2 + z^2")])
    J = eliminate(I, ["y"])
    yi = pres.index["y"]
    assert all(m[yi] == 0 for g in J.generators for m in g)
    assert J.member(pres.poly("x^2 + 2*z^2"))


def test_contains_ideal():
    pres = _poly_ring(2, ["x", "y"])
    M = HomogeneousIdeal(pres, [pres.poly("x"), pres.poly("y")])
    I = HomogeneousIdeal(pres, [pres.poly("x^2 + x*y")])
    assert M.contains_ideal(I)
    assert not I.contains_ideal(M)


def test_ring_hom_and_contract():
    src = _poly_ring(3, ["a", "b"])
    tgt = _poly_ring(3, ["x", "y"])
    phi = GradedRingHom(src, tgt, [tgt.poly("x"), tgt.poly("x + y")])
    f = src.poly("a^2 + b^2")
    assert phi.apply(f) == tgt.poly("2*x^2 + 2*x*y + y^2")
    J = HomogeneousIdeal(tgt, [tgt.poly("y")])
    back = contract(phi, J)
    # a - b maps to -y, so it lands in the contraction
    assert back.member(src.poly("a - b"))
    assert not back.member(src.poly("a"))


def test_hom_degree_check():
    src = _poly_ring(2, ["a"], degs=[2])
    tgt = _poly_ring(2, ["x"], degs=[4])
    with pytest.raises(RingError):
        GradedRingHom(src, tgt, {"a": tgt.poly("x")})


def test_unsupported_regime():
    pres = GradedPresentation(3, [("x", 1)])
    with pytest.raises(UnsupportedRegimeError):
        pres.check_regime()


def test_count_standard_monomials():
    # F_2[x]/(x^2): one monomial in each twist degree 0 and 1
    pres = GradedPresentation(
        2,
        [("x", 1, (1,)), ("u", 0, (1,))],
        relations=["x^2"],
        twist_len=1,
    )
    assert count_standard_monomials(pres, 0, (0,)) == 1
    assert count_standard_monomials(pres, 0, (1,)) == 1  # u
    assert count_standard_monomials(pres, 1, (1,)) == 1  # x
    assert count_standard_monomials(pres, 2, (2,)) == 0  # x^2 = 0
    assert count_standard_monomials(pres, 1, (2,)) == 1  # x*u
    with pytest.raises(RingError):
        count_standard_monomials(_poly_ring(2, ["x"]), 0, (0,))


def _reference_count_standard_monomials(pres, shift, twist):
    """The box filter: every exponent vector up to the bound the twist puts
    on each variable, kept when its twist and shift match and no leading
    term of the Groebner basis divides it."""
    lead = [leading(dict(g), pres.order)[0] for g in pres.groebner_of([])]
    bounds = [
        min(w // t for w, t in zip(twist, pres.twists[name]) if t)
        for name in pres.varnames
    ]
    count = 0
    for expo in itertools.product(*[range(b + 1) for b in bounds]):
        if pres.twist_degree(expo) != tuple(twist):
            continue
        if pres.shift_degree(expo) != shift:
            continue
        if any(all(a <= b for a, b in zip(lm, expo)) for lm in lead):
            continue
        count += 1
    return count


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6), st.sampled_from([2, 3]))
def test_count_standard_monomials_matches_box_filter(seed, p):
    rng = random.Random(seed)
    nvars, ntw = rng.randint(1, 4), rng.randint(1, 3)
    degs = [-2, 0, 2] if p == 3 else [-2, -1, 0, 1, 2]
    variables = []
    for i in range(nvars):
        tw = [0] * ntw
        while not any(tw):
            tw = [rng.randint(0, 2) for _ in range(ntw)]
        variables.append((f"x{i}", rng.choice(degs), tuple(tw)))
    pres = GradedPresentation(p, variables, twist_len=ntw)
    # relations: monomials and binomials of one (shift, twist) bidegree
    by_degree = {}
    for _ in range(6):
        e = tuple(rng.randint(0, 2) for _ in range(nvars))
        if any(e):
            key = (pres.shift_degree(e), pres.twist_degree(e))
            by_degree.setdefault(key, set()).add(e)
    relations = []
    for monos in by_degree.values():
        monos = sorted(monos)
        f = {monos[0]: 1}
        if len(monos) > 1 and rng.random() < 0.7:
            f[monos[1]] = rng.randint(1, p - 1)
        relations.append(f)
    pres = GradedPresentation(p, variables, relations=relations, twist_len=ntw)
    for _ in range(6):
        # the bidegree of a random monomial, and the twist at every shift in
        # -8..8, which at p = 3 (even degrees) includes shifts with none
        expo = tuple(rng.randint(0, 3) for _ in range(nvars))
        twist = pres.twist_degree(expo)
        for shift in {pres.shift_degree(expo), *range(-8, 9)}:
            assert count_standard_monomials(pres, shift, twist) == \
                _reference_count_standard_monomials(pres, shift, twist)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10**6), st.sampled_from([2, 3, 5]))
def test_parse_format_roundtrip(seed, p):
    rng = random.Random(seed)
    pres = _poly_ring(p, ["x", "y", "z"])
    f = _random_poly(pres, rng, nterms=4, total=3)
    assert parse_poly(format_poly(f, pres), pres) == f


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10**6), st.sampled_from([2, 3]))
def test_normal_form_is_ideal_representative(seed, p):
    rng = random.Random(seed)
    pres = _poly_ring(p, ["x", "y"])
    I = HomogeneousIdeal(pres, [_random_poly(pres, rng)])
    f = _random_poly(pres, rng)
    r = I.normal_form(f)
    assert I.member(padd(f, {m: -c for m, c in r.items()}, p))
    # normal form is idempotent
    assert canonical(I.normal_form(r)) == canonical(r)


def _random_monomial(nvars, degree, rng, top=None):
    """Uniform cut points: an exponent tuple of the given total degree, drawn
    again until no exponent passes top."""
    while True:
        cuts = sorted(rng.randrange(degree + 1) for _ in range(nvars - 1))
        e = tuple(b - a for a, b in zip([0] + cuts, cuts + [degree]))
        if top is None or max(e) <= top:
            return e


@pytest.mark.parametrize("p, block, gens", [
    (2, 0, ["x^70000 + y^70000", "x*y"]),
    # the S-polynomial y^256 is the first exponent past 8 bits
    (2, 0, ["x^255 + y^255", "x*y"]),
    (3, 1, ["x^5000 + 2*y^3000*z^2000", "x*z"]),
    # the S-polynomial 2*y^65536 is the first exponent past 16 bits
    (3, 1, ["x^65535 + 2*y^65535", "x*y"]),
])
def test_buchberger_past_the_first_field_width(p, block, gens):
    """Exponents past a codec's bound restart the packed run at a wider one,
    whether an input or a product reaches the bound."""
    pres = _poly_ring(p, ["x", "y", "z"])
    gens = [pres.poly(g) for g in gens]
    order = MonomialOrder(3, block)
    assert buchberger(gens, order, p) == plain_buchberger(gens, order, p)


@settings(max_examples=150, deadline=None)
@given(
    st.integers(0, 10**6), st.sampled_from([2, 3, 5]), st.integers(2, 3), st.booleans()
)
def test_normal_form_past_the_first_field_width(seed, p, nvars, narrow):
    """An ideal's normal form equals the tuple reduction's against the same
    basis.  Narrow inputs fit 8-bit fields but f has total degree past 255,
    so a reduction product can pass 2**8; wide inputs pass it themselves."""
    rng = random.Random(seed)
    pres = _poly_ring(p, ["x", "y", "z"][:nvars])
    top = 255 if narrow else None

    def poly(degree, nterms):
        return {
            _random_monomial(nvars, degree, rng, top): rng.randrange(1, p)
            for _ in range(nterms)
        }

    degree = rng.randrange(1, 256 if narrow else 600)
    gens = [poly(degree, rng.randrange(1, 4))]
    if rng.random() < 0.5:
        gens.append({(0,) * (nvars - 1) + (rng.randrange(1, degree + 1),): 1})
    I = HomogeneousIdeal(pres, gens)
    f = poly(rng.randrange(256, 400 if narrow else 700), rng.randrange(1, 5))
    basis = [dict(g) for g in I.groebner()]
    assert I.normal_form(f) == plain_normal_form(f, basis, pres.order, p)


def test_ideal_equality_independent_of_generators():
    pres = _poly_ring(2, ["x", "y"])
    I = HomogeneousIdeal(pres, [pres.poly("x + y"), pres.poly("x*y")])
    J = HomogeneousIdeal(
        pres, [pres.poly("x + y"), pres.poly("x^2"), pres.poly("y^2")]
    )
    assert I == J and hash(I) == hash(J)
