"""Reference helpers shared by the tests: earlier, independently written
versions of computations the package now does another way or no longer
needs."""

import numpy as np

from permspec import modp
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
