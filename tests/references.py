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
    _line_ideal,
    _lines,
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
    for _, gen in _lines(spec):
        if _line_ideal(spec, gen) == ideal:
            return KIND_RATIONAL
    return KIND_CUSTOM


def rational_preimage_by_search(E, p, point):
    """The subgroup of E over the line of a rational point: the line found by
    searching every rational line for the point's ideal, then its multiples."""
    _, proj, spec = stratum_data(E, point.stratum, p)
    gen = next(g for (_, g) in _lines(spec) if _line_ideal(spec, g) == point.ideal)
    ea = spec.ea
    line = {ea.elem_of[tuple((k * c) % p for c in ea.vec_of[gen])] for k in range(p)}
    return E.subgroup([x for x in range(E.order) if int(proj.map[x]) in line])


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
