"""Reference helpers shared by the tests: earlier, independently written
versions of computations the package now does another way or no longer
needs."""

import heapq
import itertools

import numpy as np

from permspec import modp
from permspec.gradedrings import (
    _divides,
    _lcm,
    _lead,
    _mono_div,
    _mono_mul,
    canonical,
    leading,
    normal_form,
    padd,
    pmul,
    pnormal,
    pscale,
)
from permspec.groups import FiniteGroup
from permspec.spectra import (
    KIND_CUSTOM,
    KIND_RATIONAL,
    KIND_STRATUM_GENERIC,
    KIND_VERY_CLOSED,
    _lines,
    _subspace_ideal,
    stratum_data,
)
from permspec.twisted import canonical_functional


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


def rational_preimage_by_search(E, p, point):
    """The subgroup of E over the line of a rational point: the line found by
    searching every rational line for the point's ideal."""
    _, proj, spec = stratum_data(E, point.stratum, p)
    line = next(a for (_, a) in _lines(spec) if _subspace_ideal(spec, a) == point.ideal)
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
        r = normal_form(s, basis, order, p, lead)
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
        r = normal_form(basis[i], [basis[k] for k in others], order, p)
        if r:
            lm, lc = leading(r, order)
            reduced.append((key(lm), pscale(r, pow(lc, p - 2, p), p)))
    reduced.sort(key=lambda kg: kg[0])
    return tuple(canonical(g) for _, g in reduced)
