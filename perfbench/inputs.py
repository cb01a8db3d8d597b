"""Seeded inputs for the four workloads, built without importing permspec.

Every group is written down here from its own multiplication rule and then
relabelled: a seeded permutation of the non-identity elements is applied to
the Cayley table (index 0 stays the identity, as permspec requires).  The
program sees only the relabelled tables, as `{"kind": "table"}` specs.

The arithmetic helpers at the bottom work on those plain tables; the checks
use them to recompute what the program reports.
"""

import itertools
import random

# -- groups written down from their multiplication rules ----------------------


def cyclic(n):
    return [[(i + j) % n for j in range(n)] for i in range(n)]


def dihedral(order):
    """r^i s^e at index i + n*e, with (r^i s^e)(r^j s^f) = r^(i +- j) s^(e+f)."""
    n = order // 2

    def mul(x, y):
        (e, i), (f, j) = divmod(x, n), divmod(y, n)
        return (i + (-j if e else j)) % n + n * ((e + f) % 2)

    return [[mul(x, y) for y in range(order)] for x in range(order)]


def quaternion():
    """Q8 as the eight unit quaternions under the Hamilton product."""
    units = [(1, 0, 0, 0), (-1, 0, 0, 0)]
    for axis in range(1, 4):
        for sign in (1, -1):
            q = [0, 0, 0, 0]
            q[axis] = sign
            units.append(tuple(q))

    def ham(a, b):
        a0, a1, a2, a3 = a
        b0, b1, b2, b3 = b
        return (
            a0 * b0 - a1 * b1 - a2 * b2 - a3 * b3,
            a0 * b1 + a1 * b0 + a2 * b3 - a3 * b2,
            a0 * b2 - a1 * b3 + a2 * b0 + a3 * b1,
            a0 * b3 + a1 * b2 - a2 * b1 + a3 * b0,
        )

    index = {q: k for k, q in enumerate(units)}
    return [[index[ham(a, b)] for b in units] for a in units]


def direct_product(*tables):
    out = tables[0]
    for t in tables[1:]:
        n, m = len(out), len(t)
        out = [
            [out[i // m][j // m] * m + t[i % m][j % m] for j in range(n * m)]
            for i in range(n * m)
        ]
    return out


def elementary_abelian(p, r):
    return direct_product(*[cyclic(p)] * r)


# Groups by name.  The sectional p-rank (largest rank of an elementary abelian
# section H/K) and the p-rank (largest elementary abelian subgroup) are known
# from the structure of each group, so they are written here rather than
# recomputed.
GROUPS = {
    "D8": (lambda: dihedral(8), 2, 2, 2),
    "D16": (lambda: dihedral(16), 2, 2, 2),
    "Q8": (quaternion, 2, 2, 1),
    "C4xC4": (lambda: direct_product(cyclic(4), cyclic(4)), 2, 2, 2),
    "C2xC8": (lambda: direct_product(cyclic(2), cyclic(8)), 2, 2, 2),
    "D8xC2": (lambda: direct_product(dihedral(8), cyclic(2)), 2, 3, 3),
    "C2^2": (lambda: elementary_abelian(2, 2), 2, 2, 2),
    "C2^3": (lambda: elementary_abelian(2, 3), 2, 3, 3),
    "C2^4": (lambda: elementary_abelian(2, 4), 2, 4, 4),
    "C3^2": (lambda: elementary_abelian(3, 2), 3, 2, 2),
    "C3^3": (lambda: elementary_abelian(3, 3), 3, 3, 3),
    "C3xC9": (lambda: direct_product(cyclic(3), cyclic(9)), 3, 2, 2),
    "C3xS3": (lambda: direct_product(cyclic(3), dihedral(6)), 3, 2, 2),
    "C27": (lambda: cyclic(27), 3, 1, 1),
}


def relabel(table, rng):
    """Apply a random permutation of the non-identity elements to a table."""
    n = len(table)
    rest = list(range(1, n))
    rng.shuffle(rest)
    pi = [0] + rest
    out = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            out[pi[a]][pi[b]] = pi[table[a][b]]
    return out


def seeded_group(name, rng):
    """(relabelled table, p, sectional p-rank, p-rank) of a named group."""
    build, p, sec_rank, p_rank = GROUPS[name]
    return relabel(build(), rng), p, sec_rank, p_rank


# -- binary forms over F_p ------------------------------------------------------


def _poly_mod(a, b, p):
    """Remainder of a by b; polynomials are coefficient lists, constant first."""
    a = list(a)
    inv = pow(b[-1], p - 2, p)
    while len(a) >= len(b) and any(a):
        if a[-1] == 0:
            a.pop()
            continue
        c = a[-1] * inv % p
        shift = len(a) - len(b)
        for k, bk in enumerate(b):
            a[shift + k] = (a[shift + k] - c * bk) % p
        a.pop()
    return a


def is_irreducible_form(coeffs, p):
    """coeffs[k] is the coefficient of x^k y^(d-k); degree d >= 2."""
    d = len(coeffs) - 1
    if coeffs[0] % p == 0 or coeffs[d] % p == 0:
        return False  # divisible by x or by y
    for deg in range(1, d // 2 + 1):
        for tail in itertools.product(range(p), repeat=deg):
            if not any(_poly_mod(coeffs, list(tail) + [1], p)):
                return False
    return True


def random_irreducible_form(d, p, rng):
    while True:
        coeffs = [rng.randrange(p) for _ in range(d + 1)]
        if is_irreducible_form(coeffs, p):
            return coeffs


def form_text(coeffs, x, y):
    terms = []
    d = len(coeffs) - 1
    for k, c in enumerate(coeffs):
        if not c:
            continue
        factors = [str(c)] if c != 1 else []
        if k:
            factors.append(x if k == 1 else f"{x}^{k}")
        if d - k:
            factors.append(y if d - k == 1 else f"{y}^{d - k}")
        terms.append("*".join(factors))
    return " + ".join(terms)


# -- arithmetic on plain tables, for the checks -------------------------------


class Table:
    """A Cayley table with the few operations the checks need."""

    def __init__(self, table):
        self.t = table
        self.n = len(table)
        self.inv = [row.index(0) for row in table]

    def power(self, a, k):
        x = 0
        for _ in range(k):
            x = self.t[x][a]
        return x

    def conj(self, a, g):
        """g^-1 a g, the convention of permspec's section morphisms."""
        return self.t[self.t[self.inv[g]][a]][g]

    def closure(self, gens):
        elems, frontier = {0}, [0]
        while frontier:
            x = frontier.pop()
            for g in gens:
                y = self.t[x][g]
                if y not in elems:
                    elems.add(y)
                    frontier.append(y)
        return frozenset(elems)

    def subgroups(self):
        """Every subgroup, by joining cyclic subgroups until nothing is new."""
        found = {self.closure([a]) for a in range(self.n)}
        todo = list(found)
        while todo:
            A = todo.pop()
            for B in list(found):
                if A <= B or B <= A:
                    continue
                J = self.closure(A | B)
                if J not in found:
                    found.add(J)
                    todo.append(J)
        return found

    def is_normal_in(self, K, H):
        return all(self.conj(k, h) in K for k in K for h in H)

    def is_elementary_abelian_quotient(self, H, K, p):
        t, inv = self.t, self.inv
        for a in H:
            if self.power(a, p) not in K:
                return False
            for b in H:
                if t[t[inv[a]][inv[b]]][t[a][b]] not in K:
                    return False
        return True

    def conjugacy_classes(self, subgroups):
        classes, seen = 0, set()
        for S in subgroups:
            if S in seen:
                continue
            classes += 1
            for g in range(self.n):
                seen.add(frozenset(self.conj(a, g) for a in S))
        return classes


def is_p_power(n, p):
    while n % p == 0:
        n //= p
    return n == 1


def log_p(n, p):
    r = 0
    while n > 1:
        n //= p
        r += 1
    return r


def gaussian_binomial(n, k, p):
    """Number of k-dimensional subspaces of F_p^n."""
    if k < 0 or k > n:
        return 0
    num = den = 1
    for i in range(k):
        num *= p ** (n - i) - 1
        den *= p ** (i + 1) - 1
    return num // den


def seeded_rng(seed, workload):
    return random.Random(f"{workload}:{seed}")


def fixed_rng(name):
    """The generator of a group's one labelling that does not depend on the
    seed.  Groups at p = 3 get it: how long their rings take to build
    depends on the labelling (glue of C3xC9 took 4.6-7.4 s and of C3xS3
    1.8-3.4 s by seed, each the same on a rerun), so a seeded labelling made
    a run's time a property of its seed.  These labellings are not the
    constructors' own, and cost 5.4-5.8 s and 3.2 s there."""
    return random.Random(f"fixed:{name}")
