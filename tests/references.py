"""Reference helpers shared by the tests: earlier, independently written
versions of computations the package now does another way or no longer
needs."""

import numpy as np

from permspec import modp
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
