"""Finite groups as Cayley tables, p-subgroup lattices and p-section machinery.

Groups are immutable: an order x order multiplication table over element
indices, with the identity at index 0.  At desk scale (|G| <= 128) the full
table is cheap and makes quotients and conjugation trivial.  The table is held
twice: as a numpy array for whole-table checks, and as Python rows for the
scalar lookups of `mul`, `inv` and `conj`.
"""

import collections
import json
import math

import numpy as np

DEFAULT_ORDER_CAP = 128

# primes are refused from here on: trial division then stops by 46,341, and
# the product of two residues stays exact in int64
PRIME_BOUND = 1 << 31


class GroupError(ValueError):
    pass


class ResourceError(RuntimeError):
    """A configured cap (group order, rank) was exceeded."""


class FiniteGroup:
    """A finite group given by its full multiplication table.

    table[a][b] is the index of the product a*b.  Index 0 is the identity.
    """

    def __init__(self, table, names=None, check=True):
        self.table = np.array(table, dtype=np.int64)
        self.order = len(self.table)
        self.names = list(names) if names is not None else None
        self._inv = None
        self._conj = None
        self._conj_masks = {}
        self._coset_minima = {}
        self._digest = None
        self._p_subgroups = {}
        if check:
            self._validate()
        self._rows = self.table.tolist()

    def _validate(self):
        """Check the table is a group: a Latin square with identity 0 that
        is associative.

        Associativity is Light's test on a generating set S (`_generators`):
        every element is a product of elements of S, bracketed somehow.
        Checking (x*s)*y == x*(s*y) for all x, y and each s in S is exact:
        the elements m with (x*m)*y == x*(m*y) for all x, y include the
        identity and are closed under products, since for two of them m, s
        (x*(m*s))*y = ((x*m)*s)*y = (x*m)*(s*y) = x*(m*(s*y)) = x*((m*s)*y),
        so they are every element.
        """
        n = self.order
        t = self.table
        if t.shape != (n, n):
            raise GroupError("table must be square")
        idx = np.arange(n)
        if not (np.all(t[0] == idx) and np.all(t[:, 0] == idx)):
            raise GroupError("index 0 must be the identity")
        if not (np.all(np.sort(t, axis=1) == idx)
                and np.all(np.sort(t, axis=0) == idx[:, None])):
            raise GroupError("table rows/columns must be permutations")
        for s in _generators(t):
            # (x*s)*y == x*(s*y) for all x, y, as one n x n gather per side
            if not np.array_equal(t[t[:, s]], t[:, t[s]]):
                raise GroupError("associativity fails")

    # -- basic arithmetic ----------------------------------------------------

    def mul(self, a, b):
        return self._rows[a][b]

    def inv(self, a):
        if self._inv is None:
            self._inv = [row.index(0) for row in self._rows]
        return self._inv[a]

    def conj(self, a, g):
        """a^g = g^-1 a g."""
        return (self._conj or self.conj_table())[g][a]

    def conj_table(self):
        """Rows conj[g][a] = a^g, built on first use."""
        if self._conj is None:
            t = self.table
            inv = np.array([self.inv(x) for x in range(self.order)])
            # conj[g][a] = (g^-1 a) g
            self._conj = t[t[inv], np.arange(self.order)[:, None]].tolist()
        return self._conj

    def conj_masks(self, elements):
        """The bitmask of S^g for every g, where S has these elements (a
        sorted tuple); masks[0] is S itself.  Memoised per subgroup."""
        masks = self._conj_masks.get(elements)
        if masks is None:
            masks = self._conj_masks[elements] = [
                sum(1 << row[a] for a in elements) for row in self.conj_table()
            ]
        return masks

    def coset_minima(self, elements):
        """least[x] = the least element of the coset xS, where S has these
        elements (a sorted tuple).  Memoised per subgroup."""
        least = self._coset_minima.get(elements)
        if least is None:
            least = self._coset_minima[elements] = [
                min([row[k] for k in elements]) for row in self._rows
            ]
        return least

    def power(self, a, k):
        r, x = 0, a
        k = int(k)
        if k < 0:
            x, k = self.inv(a), -k
        while k:
            if k & 1:
                r = self.mul(r, x)
            x = self.mul(x, x)
            k >>= 1
        return r

    def elements(self):
        return range(self.order)

    def is_abelian(self):
        return np.array_equal(self.table, self.table.T)

    def name_of(self, a):
        if self.names is not None:
            return self.names[a]
        return f"g{a}"

    # -- subgroup construction -----------------------------------------------

    def subgroup(self, elements):
        return Subgroup(self, elements)

    def trivial_subgroup(self):
        return Subgroup(self, [0])

    def full_subgroup(self):
        return Subgroup(self, range(self.order))

    def generated_subgroup(self, gens):
        return Subgroup(self, _join(self._rows, (0,), [int(g) for g in gens]))

    def digest(self):
        """The table's content: an exact cache key, equal iff the tables are."""
        if self._digest is None:
            self._digest = (self.order, self.table.tobytes())
        return self._digest

    def __eq__(self, other):
        return isinstance(other, FiniteGroup) and self.digest() == other.digest()

    def __hash__(self):
        return hash(self.digest())

    def __repr__(self):
        return f"FiniteGroup(order={self.order})"


def _join(rows, S, gens, bound=math.inf):
    """The subgroup generated by gens, as a set, given a subgroup S inside it,
    or None as soon as it has more than bound elements.

    It is grown as a union of cosets S*r from r = identity: whenever r times a
    generator falls outside the union, the coset of the product is added.
    """
    elems = set(S)
    reps = [0]
    for r in reps:
        row = rows[r]
        for h in gens:
            y = row[h]
            if y not in elems:
                elems.update([rows[s][y] for s in S])
                if len(elems) > bound:
                    return None
                reps.append(y)
    return elems


def _generators(t):
    """Elements S of the Latin square t, in index order, that generate it
    under products: each is the least element that products of 0 and the
    ones before it do not reach.  Each pass squares the reached set, so a
    closure takes about log2 of the longest word it needs."""
    reached = np.zeros(len(t), dtype=bool)
    reached[0] = True
    gens = []
    for x in np.flatnonzero(~reached):
        if reached[x]:
            continue
        gens.append(int(x))
        reached[x] = True
        while True:
            have = np.flatnonzero(reached)
            products = t[np.ix_(have, have)]
            if reached[products].all():
                break
            reached[products] = True
    return gens


class Subgroup:
    """A subgroup of a FiniteGroup, stored as a sorted tuple of indices."""

    def __init__(self, parent, elements, check=True):
        self.parent = parent
        self.elements = tuple(sorted(int(x) for x in set(elements)))
        if check:
            self._validate()

    def _validate(self):
        s = set(self.elements)
        if 0 not in s:
            raise GroupError("subgroup must contain the identity")
        for a in self.elements:
            if self.parent.inv(a) not in s:
                raise GroupError("subgroup not closed under inverses")
            for b in self.elements:
                if self.parent.mul(a, b) not in s:
                    raise GroupError("subgroup not closed under the table")

    @property
    def order(self):
        return len(self.elements)

    def contains_subgroup(self, other):
        return set(other.elements) <= set(self.elements)

    def is_normal(self, ambient=None):
        amb = ambient.elements if ambient is not None else range(self.parent.order)
        s = set(self.elements)
        return all(self.parent.conj(a, g) in s for g in amb for a in self.elements)

    def conjugate(self, g):
        return Subgroup(
            self.parent, [self.parent.conj(a, g) for a in self.elements], check=False
        )

    def join(self, other):
        return self.parent.generated_subgroup(
            set(self.elements) | set(other.elements)
        )

    def is_p_group(self, p):
        n = self.order
        while n % p == 0:
            n //= p
        return n == 1

    def key(self):
        return self.elements

    def __eq__(self, other):
        return (
            isinstance(other, Subgroup)
            and self.parent is other.parent
            and self.elements == other.elements
        )

    def __hash__(self):
        return hash(self.elements)

    def __repr__(self):
        return f"Subgroup(order={self.order}, elements={self.elements})"


# -- constructors -------------------------------------------------------------


def cyclic(n):
    if n < 1:
        raise GroupError(f"cyclic groups need n >= 1, not n={n}")
    table = [[(i + j) % n for j in range(n)] for i in range(n)]
    names = [f"s^{i}" if i else "1" for i in range(n)]
    return FiniteGroup(table, names=names)


def product(*groups):
    if len(groups) == 1:
        return groups[0]
    if len(groups) > 2:
        return product(product(groups[0], groups[1]), *groups[2:])
    A, B = groups
    n, m = A.order, B.order
    table = [
        [
            A.mul(i // m, j // m) * m + B.mul(i % m, j % m)
            for j in range(n * m)
        ]
        for i in range(n * m)
    ]
    names = [f"({A.name_of(i // m)},{B.name_of(i % m)})" for i in range(n * m)]
    return FiniteGroup(table, names=names)


def is_prime(p):
    """Whether p is prime, by trial division up to its square root; callers
    refuse p >= PRIME_BOUND first."""
    return p >= 2 and not any(p % k == 0 for k in range(2, math.isqrt(p) + 1))


def elementary_abelian(p, r):
    if r < 0 or not (p < PRIME_BOUND and is_prime(p)):
        raise GroupError(f"elementary abelian groups need a prime p below 2^31 and "
                         f"rank >= 0, not p={p}, rank={r}")
    if r == 0:
        return cyclic(1)
    G = cyclic(p)
    for _ in range(r - 1):
        G = product(G, cyclic(p))
    return G


def dihedral(order):
    """Dihedral group of the given order 2n: <r, s | r^n = s^2 = 1, sr = r^-1 s>.

    Elements are indexed as r^i (i < n) then r^i s.
    """
    if order % 2 or order < 2:
        raise GroupError("dihedral groups here have even order >= 2")
    n = order // 2

    def mul(x, y):
        i, e = x % n, x // n
        j, f = y % n, y // n
        # (r^i s^e)(r^j s^f) = r^(i + j*(-1)^e) s^(e+f)
        return ((i + (j if e == 0 else -j)) % n) + n * ((e + f) % 2)

    table = [[mul(x, y) for y in range(order)] for x in range(order)]
    names = [f"r^{i}" if i else "1" for i in range(n)] + [
        f"r^{i}s" if i else "s" for i in range(n)
    ]
    return FiniteGroup(table, names=names)


def quaternion():
    """The quaternion group Q8 with elements 1, -1, i, -i, j, -j, k, -k."""
    names = ["1", "-1", "i", "-i", "j", "-j", "k", "-k"]
    idx = {nm: x for x, nm in enumerate(names)}

    def neg(a):
        return a[1:] if a.startswith("-") else "-" + a

    base = {
        ("i", "i"): "-1", ("j", "j"): "-1", ("k", "k"): "-1",
        ("i", "j"): "k", ("j", "k"): "i", ("k", "i"): "j",
        ("j", "i"): "-k", ("k", "j"): "-i", ("i", "k"): "-j",
    }

    def mul(a, b):
        sign = (a.startswith("-")) ^ (b.startswith("-"))
        ua, ub = a.lstrip("-"), b.lstrip("-")
        if ua == "1":
            r = ub
        elif ub == "1":
            r = ua
        else:
            r = base[(ua, ub)]
        return neg(r) if sign else r

    table = [[idx[mul(a, b)] for b in names] for a in names]
    return FiniteGroup(table, names=names)


def from_permutations(degree, generators, cap=DEFAULT_ORDER_CAP):
    """Group generated by permutations of {0..degree-1} given in cycle notation.

    generators: list of permutations, each a list of cycles, e.g.
    [[0,1],[2,3]] is the product of transpositions (0 1)(2 3).
    """
    def perm_of(cycles):
        perm = list(range(degree))
        for cyc in cycles:
            for k, x in enumerate(cyc):
                perm[x] = cyc[(k + 1) % len(cyc)]
        return tuple(perm)

    gens = [perm_of(c) for c in generators]
    ident = tuple(range(degree))
    elems = [ident]
    seen = {ident}
    q = [ident]
    while q:
        x = q.pop(0)
        for g in gens:
            y = tuple(x[g[i]] for i in range(degree))
            if y not in seen:
                if len(seen) >= cap:
                    raise ResourceError(f"permutation group exceeds cap {cap}")
                seen.add(y)
                elems.append(y)
                q.append(y)
    if degree <= 0:  # no points: the trivial group
        return FiniteGroup([[0]])
    # the table in one gather: entry (a, b, i) of perms[:, perms] is a(b(i)),
    # and each product is found by its row of bytes among the sorted elements
    n = len(elems)
    perms = np.array(elems, dtype=np.min_scalar_type(degree - 1))
    row = np.dtype((np.void, perms.itemsize * degree))
    codes = perms.view(row).ravel()
    by_code = np.argsort(codes)
    products = perms[:, perms].reshape(n * n, degree).view(row).ravel()
    table = by_code[np.searchsorted(codes[by_code], products)].reshape(n, n)
    return FiniteGroup(table)


def group_from_spec(spec, cap=DEFAULT_ORDER_CAP):
    """Build a group from a JSON-style spec dict (or JSON string).

    A spec of the wrong shape (not an object, a missing or non-integer
    field, a table that is not a square list of integer rows, generators
    that are not lists of cycles of points) raises GroupError.  The order is
    checked against the cap before any table is built."""
    if isinstance(spec, str):
        try:
            spec = json.loads(spec)
        except json.JSONDecodeError as e:
            raise GroupError(f"bad group spec JSON at position {e.pos}: {e.msg}")
    _, build = _spec_plan(spec, cap)
    return build()


def _check_order(order, cap):
    if order > cap:
        raise ResourceError(f"group order {order} exceeds cap {cap}")


def _spec_plan(spec, cap):
    """(order, build): the order of the group a spec names, read off its
    parameters (a product's from its factors') and checked against the cap,
    and a function that builds the group.  A perm spec counts 1 here: its
    order needs its elements, and from_permutations caps those."""
    if not isinstance(spec, dict):
        raise GroupError(f"group spec must be an object, not {spec!r}")
    kind = spec.get("kind")
    if kind == "cyclic":
        n = _spec_int(spec, "n")
        order, build = n, lambda: cyclic(n)
    elif kind == "dihedral":
        n = _spec_int(spec, "order")
        order, build = n, lambda: dihedral(n)
    elif kind == "quaternion":
        order, build = 8, quaternion
    elif kind == "elementary_abelian":
        p, rank = _spec_int(spec, "p"), _spec_int(spec, "rank")
        if abs(p) >= 2 and rank > cap.bit_length():  # |p^rank| > cap: not formed
            raise ResourceError(f"group order {p}^{rank} exceeds cap {cap}")
        order, build = p ** max(rank, 0), lambda: elementary_abelian(p, rank)
    elif kind == "product":
        factors = _spec_field(spec, "factors")
        if not isinstance(factors, list) or not factors:
            raise GroupError("'factors' must be a nonempty list of group specs")
        plans = [_spec_plan(f, cap) for f in factors]

        def build():
            groups = [build_factor() for _, build_factor in plans]
            _check_order(math.prod(F.order for F in groups), cap)  # perm factors
            return product(*groups)

        order = math.prod(factor_order for factor_order, _ in plans)
    elif kind == "table":
        table = _spec_field(spec, "table")
        if not (_int_lists(table, 2) and all(len(row) == len(table) for row in table)):
            raise GroupError("'table' must be a square list of integer rows")
        order, build = len(table), lambda: FiniteGroup(table)
    elif kind == "perm":
        degree = _spec_int(spec, "degree")
        gens = _spec_field(spec, "generators")
        if not (
            _int_lists(gens, 3)
            and all(0 <= x < degree for g in gens for c in g for x in c)
        ):
            raise GroupError(f"'generators' must be lists of cycles in 0..{degree - 1}")
        order, build = 1, lambda: from_permutations(degree, gens, cap=cap)
    else:
        raise GroupError(f"unknown group kind {kind!r}")
    _check_order(order, cap)
    return order, build


def _int_lists(value, depth):
    """Whether value is a list nested depth deep with integer leaves."""
    if depth == 0:
        return isinstance(value, int) and not isinstance(value, bool)
    return isinstance(value, list) and all(_int_lists(v, depth - 1) for v in value)


def _spec_field(spec, name):
    if name not in spec:
        raise GroupError(f"group spec of kind {spec['kind']!r} needs {name!r}")
    return spec[name]


def _spec_int(spec, name):
    """An integer field, or the digit string a shorthand passes; bools and
    floats are refused, not truncated."""
    value = _spec_field(spec, name)
    if not isinstance(value, (bool, float)):
        try:
            return int(value)
        except (TypeError, ValueError):
            pass
    raise GroupError(f"{name!r} must be an integer, not {value!r}")


# -- lattice operations --------------------------------------------------------


def p_subgroups(G, p, cap=DEFAULT_ORDER_CAP):
    """All p-subgroups of G, sorted by (order, element tuple).

    The list is computed once per group and prime and kept on the group;
    every call checks the cap and returns a new list.
    """
    _check_order(G.order, cap)
    if p not in G._p_subgroups:
        G._p_subgroups[p] = _p_lattice(G, p)
    return list(G._p_subgroups[p])


def _p_lattice(G, p):
    """A p-subgroup P is the join of the cyclic p-subgroups it contains, and
    every join on the way lies in P, so the p-subgroups are closed by joining
    each one found in the last pass with each cyclic p-subgroup it does not
    contain, dropping a join once it outgrows the Sylow order."""
    rows = G._rows
    sylow = math.gcd(G.order, p ** G.order.bit_length())  # the p-part of |G|
    cyclic = {}  # elements -> the least element generating them
    for a in range(G.order):
        C = _join(rows, (0,), (a,), sylow)
        if C is not None and not sylow % len(C):
            cyclic.setdefault(frozenset(C), a)
    gens_of = {S: (a,) for S, a in cyclic.items()}  # subgroup -> generators
    last = gens_of
    while last:
        new = {}
        for S, gens in last.items():
            for a in cyclic.values():
                if a in S:
                    continue
                J = _join(rows, S, gens + (a,), sylow)
                if J is None or sylow % len(J):
                    continue
                J = frozenset(J)
                if J not in gens_of and J not in new:
                    new[J] = gens + (a,)
        gens_of.update(new)
        last = new
    found = sorted((tuple(sorted(S)) for S in gens_of), key=lambda e: (len(e), e))
    return [Subgroup(G, e, check=False) for e in found]


def normalizer(G, H):
    hs = set(H.elements)
    elems = [
        g
        for g in range(G.order)
        if all(G.conj(a, g) in hs for a in H.elements)
    ]
    return Subgroup(G, elems, check=False)


def centralizer(G, H):
    elems = [
        g
        for g in range(G.order)
        if all(G.mul(g, a) == G.mul(a, g) for a in H.elements)
    ]
    return Subgroup(G, elems, check=False)


def center(G):
    return centralizer(G, G.full_subgroup())


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


# proj.map[g] is the coset of g and proj.reps[q] the least element of coset q
Projection = collections.namedtuple("Projection", "map reps")


def quotient(G, N):
    """Quotient group G/N with its projection.  N must be normal.

    Cosets are numbered in the order of their least elements
    (G.coset_minima), so the identity coset is 0."""
    if not N.is_normal():
        raise GroupError("quotient by a non-normal subgroup")
    least = G.coset_minima(N.elements)
    reps = sorted(set(least))
    coset = {x: q for q, x in enumerate(reps)}
    proj_map = [coset[x] for x in least]
    table = [[proj_map[G.mul(a, b)] for b in reps] for a in reps]
    names = [G.name_of(r) + "N" for r in reps] if G.names else None
    return FiniteGroup(table, names=names, check=False), Projection(proj_map, reps)


def weyl(G, H):
    """Weyl group of H in G: (normalizer, N_G(H)/H as a group, projection).

    The projection is from the normalizer realized as a FiniteGroup.
    """
    N = normalizer(G, H)
    NG, embed = subgroup_as_group(N)
    index = {x: i for i, x in enumerate(embed)}
    Hin = Subgroup(NG, [index[x] for x in H.elements], check=False)
    W, proj = quotient(NG, Hin)
    return N, W, proj


def frattini(H, p):
    """The elements of H^p [H, H], generated by the p-th powers and the
    commutators of H: the Frattini subgroup when H is a p-group.  K <= H
    contains it exactly when K is normal in H with H/K elementary abelian."""
    G = H.parent
    rows, inv, hs = G._rows, G.inv, H.elements
    gens = {G.power(a, p) for a in hs}
    gens.update(rows[rows[inv(a)][inv(b)]][rows[a][b]] for a in hs for b in hs)
    return _join(rows, (0,), gens)


def is_elementary_abelian(X, p):
    """True iff the group (or subgroup) is abelian of exponent dividing p."""
    if isinstance(X, Subgroup):
        G = X.parent
        elems = X.elements
        return all(
            G.mul(a, b) == G.mul(b, a) for a in elems for b in elems
        ) and all(G.power(a, p) == 0 for a in elems)
    return X.is_abelian() and all(X.power(a, p) == 0 for a in X.elements())


def p_rank_of_section(H, K, p):
    """rank r with |H/K| = p^r (assumes H/K elementary abelian)."""
    n = H.order // K.order
    r = 0
    while n > 1:
        if n % p:
            raise GroupError("section size not a p-power")
        n //= p
        r += 1
    return r
