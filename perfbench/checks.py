"""Checks of every workload's results, computed apart from the program.

Each check takes the workload's inputs, the values from `workloads.expected`
and the results of one round as `{op name: plain result or None}` (None for
an operation that failed), and returns a list of error strings.  Group
arithmetic here runs on the plain relabelled tables (`inputs.Table`), not on
permspec's groups.
"""

import re

import inputs as I


def _sections_of(T, p):
    """Every (H, K): p-subgroups, K normal in H, H/K elementary abelian."""
    subs = [S for S in T.subgroups() if I.is_p_power(len(S), p)]
    out = set()
    for H in subs:
        for K in subs:
            if K <= H and T.is_normal_in(K, H) and T.is_elementary_abelian_quotient(H, K, p):
                out.add((tuple(sorted(H)), tuple(sorted(K))))
    return out


def _ea_section_count(r, p):
    return sum(
        I.gaussian_binomial(r, h, p) * sum(I.gaussian_binomial(h, k, p) for k in range(h + 1))
        for h in range(r + 1)
    )


def _divisor_count_and_sum(n):
    divs = [d for d in range(1, n + 1) if n % d == 0]
    return len(divs), sum(divs)


def _morphism(T, src, tgt, g):
    """K' <= g^-1 K g and g^-1 H g <= H'."""
    (H, K), (Hp, Kp) = src, tgt
    return {T.conj(h, g) for h in H} <= set(Hp) and set(Kp) <= {T.conj(k, g) for k in K}


def check_sections(inp, exp, res):
    errs = []
    for g in inp["groups"]:
        name, p, T = g["name"], g["p"], I.Table(g["table"])
        objs = res.get(f"objects {name}")
        keys = None
        if objs is not None:
            keys = [(tuple(H), tuple(K)) for H, K in objs]
            if len(set(keys)) != len(keys):
                errs.append(f"{name}: duplicate sections")
            for H, K in keys:
                Hs, Ks = frozenset(H), frozenset(K)
                if not (
                    T.closure(H) == Hs and T.closure(K) == Ks and Ks <= Hs
                    and I.is_p_power(len(Hs), p)
                    and T.is_normal_in(Ks, Hs)
                    and T.is_elementary_abelian_quotient(Hs, Ks, p)
                ):
                    errs.append(f"{name}: {H}/{K} is not an elementary abelian section")
                    break
            if set(keys) != _sections_of(T, p):
                errs.append(f"{name}: section set differs from the enumeration by table")
            n = len(T.t)
            if name.startswith("C") and "^" in name:
                want = _ea_section_count(I.log_p(n, p), p)
                if len(keys) != want:
                    errs.append(f"{name}: {len(keys)} sections, Gaussian binomials give {want}")
            if name.startswith("D") and "x" not in name:
                tau, sigma = _divisor_count_and_sum(n // 2)
                subs = sum(1 for H, K in keys if H == K)
                if subs != tau + sigma:
                    errs.append(f"{name}: {subs} subgroups, tau(n)+sigma(n) = {tau + sigma}")
        mx = res.get(f"maxel {name}")
        if mx is not None:
            for H, K, rank in mx:
                if keys is not None and (tuple(H), tuple(K)) not in keys:
                    errs.append(f"{name}: maxel {H}/{K} is not a section")
                if rank != I.log_p(len(H) // len(K), p):
                    errs.append(f"{name}: maxel rank {rank} != log_p |H/K|")
            top = max((r for _, _, r in mx), default=None)
            if top != g["sec_rank"]:
                errs.append(f"{name}: largest maxel rank {top}, sectional rank {g['sec_rank']}")
        rels = res.get(f"relations {name}")
        if rels is not None:
            feet = {(tuple(H), tuple(K)) for H, K, _ in mx} if mx is not None else None
            for apex, g1, foot1, g2, foot2 in rels:
                a = tuple(map(tuple, apex))
                for gg, foot in ((g1, foot1), (g2, foot2)):
                    f = tuple(map(tuple, foot))
                    if not _morphism(T, a, f, gg):
                        errs.append(f"{name}: span leg {gg} is not a section morphism")
                    if feet is not None and f not in feet:
                        errs.append(f"{name}: span foot is not a maximal section")
                if keys is not None and a not in keys:
                    errs.append(f"{name}: span apex is not a section")
    return errs


def _expected_points(r, p, level):
    total = 0
    for q in range(r + 1):
        per = 1 + (q >= 1)
        if level == "rational" and q >= 2:
            per += I.gaussian_binomial(q, 1, p) + 1
        total += I.gaussian_binomial(r, q, p) * per
    return total


def check_skeleton(inp, exp, res):
    errs = []
    for s in inp["skeletons"]:
        name, p, T = s["name"], s["p"], I.Table(s["table"])
        out = res.get(f"skeleton {name} {s['level']}")
        if out is None:
            continue
        pts, order = out["points"], {tuple(x) for x in out["order"]}
        n, r = len(pts), I.log_p(len(T.t), p)
        want = _expected_points(r, p, s["level"])
        if n != want:
            errs.append(f"{name}: {n} points, closed form gives {want}")
        down = {i: {j for (a, j) in order if a == i} for i in range(n)}
        generic = [i for i in range(n) if len(down[i]) == n - 1]
        if len(generic) != 1:
            errs.append(f"{name}: {len(generic)} generic points")
        closed = {i for i in range(n) if not down[i]}
        very = {i for i, (kind, _) in enumerate(pts) if kind == "VeryClosed"}
        if closed != very:
            errs.append(f"{name}: closed points are not the very closed points")
        n_subs = sum(I.gaussian_binomial(r, k, p) for k in range(r + 1))
        if len(very) != n_subs:
            errs.append(f"{name}: {len(very)} very closed points for {n_subs} subgroups")
        vc_of = {tuple(S): i for i, (kind, S) in enumerate(pts) if kind == "VeryClosed"}
        subs = T.subgroups()
        lines_hit = {}
        for i, (kind, S) in enumerate(pts):
            if kind != "Rational":
                continue
            Sset = frozenset(S)
            covers = {tuple(sorted(U)) for U in subs if Sset < U and len(U) == p * len(Sset)}
            rest = down[i] - {vc_of.get(tuple(S))}
            ups = [tuple(pts[j][1]) for j in rest]
            if len(down[i]) != 2 or len(ups) != 1 or ups[0] not in covers:
                errs.append(f"{name}: rational point {i} has closure {sorted(down[i])}")
                continue
            lines_hit.setdefault(tuple(S), []).append(ups[0])
        for S, ups in lines_hit.items():
            Sset = frozenset(S)
            covers = {tuple(sorted(U)) for U in subs if Sset < U and len(U) == p * len(Sset)}
            if sorted(ups) != sorted(covers):
                errs.append(f"{name}: rational points of stratum {S} miss some lines")
    for c in inp["closures"]:
        out = res.get(f"closure {c['group']} {c['form']} -> {c['H']}")
        if out is None:
            continue
        if c["group"] == "C2^2":
            if not out["unit"]:
                errs.append(f"closure of irreducible {c['form']} into {c['H']} is not a unit ideal")
        else:
            on_line = list(c["H"]) == exp["line_kernels"][c["label"]]
            if out["unit"] == on_line or out["zero"]:
                errs.append(f"closure of {c['form']} into {c['H']}: unit={out['unit']}")
    return errs


def _is_dag_height(n, edges):
    """Longest path length in edges, or None when edges have a cycle."""
    succ = {i: [] for i in range(n)}
    indeg = [0] * n
    for a, b in edges:
        succ[a].append(b)
        indeg[b] += 1
    order = [i for i in range(n) if indeg[i] == 0]
    depth = [0] * n
    for i in order:  # Kahn's algorithm; order grows while we walk it
        for j in succ[i]:
            depth[j] = max(depth[j], depth[i] + 1)
            indeg[j] -= 1
            if indeg[j] == 0:
                order.append(j)
    if len(order) != n:
        return None
    return max(depth, default=0)


def _first_int(lines, pattern):
    for line in lines:
        m = re.match(pattern, line)
        if m:
            return int(m.group(1))
    return None


def check_glue(inp, exp, res):
    errs = []
    groups = inp["groups"]
    for c in inp["calls"]:
        name = c["group"]
        out = res.get(f"{c['kind']} {name}")
        if out is None:
            continue
        if c.get("expect_fail"):
            got = _first_int(out, r"(\d+) irreducible components")
            if got != 1:
                errs.append(f"{name}: {got} components, a p'-group has one")
            continue
        g = groups[name]
        p, T = g["p"], I.Table(g["table"])
        if c["kind"] == "glue":
            kinds, edges = out["kinds"], out["edges"]
            psubs = [S for S in T.subgroups() if I.is_p_power(len(S), p)]
            classes = T.conjugacy_classes(psubs)
            very = kinds.count("VeryClosed")
            if very != classes:
                errs.append(f"{name}: {very} very closed points, {classes} classes of p-subgroups")
            height = _is_dag_height(len(kinds), edges)
            if height is None:
                errs.append(f"{name}: edges have a cycle")
            elif height != g["sec_rank"]:
                errs.append(f"{name}: height {height}, sectional rank {g['sec_rank']}")
        elif c["kind"] == "components":
            got = _first_int(out, r"(\d+) irreducible components")
            maxel = res.get(f"maxel {name}")
            if maxel is not None:
                want = _first_int(maxel, r"(\d+) maximal section classes")
                if got != want:
                    errs.append(f"{name}: {got} components, {want} maximal section classes")
        elif c["kind"] == "dim":
            d = _first_int(out, r"dimension (\d+)")
            r = _first_int(out, r"p-rank (\d+)")
            if d != g["sec_rank"] or r != g["p_rank"]:
                errs.append(f"{name}: dim {d} p-rank {r}, known {g['sec_rank']} and {g['p_rank']}")
    return errs


def check_oracle(inp, exp, res):
    errs = []
    for name in inp["suites"]:
        out = res.get(f"verify {name}")
        if out is not None and not out["ok"]:
            errs.append(f"verify {name} failed")
    dims = res.get("hom_dim Klein queries")
    if dims is not None and dims != exp["counts"]:
        errs.append(f"hom_dim {dims} != standard monomials {exp['counts']}")
    return errs


CHECKS = {
    "sections": check_sections,
    "skeleton": check_skeleton,
    "glue": check_glue,
    "oracle": check_oracle,
}
