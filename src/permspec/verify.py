"""Cross-checks between the ring presentations and the chain-level homotopy oracle.

Each suite returns (ok, lines): a verdict plus one human-readable line per
case.  The suites are deliberately independent of the ring code paths they
validate -- everything here is decided by exact linear algebra on complexes
of permutation modules.
"""

import itertools

import numpy as np

from .groups import cyclic, elementary_abelian, p_subgroups, quotient, subgroup_as_group
from .complexes import (
    build_u,
    cone,
    coevaluation,
    hom_dim,
    is_contractible,
    is_null_homotopic,
    map_a,
    map_b,
    master_relation_map,
    master_relation_witness,
    psi_complex,
    psi_map,
    res_complex,
    res_map,
    verify_homotopy,
)
from .twisted import (
    Coordinate,
    EAStructure,
    canonical_functional,
    coordinates,
    dependent_triples,
    present_Rtotal,
)
from .gradedrings import count_standard_monomials


def _pi_array(ea, coord):
    return [ea.functional_on(coord.f, x) for x in range(ea.group.order)]


def _ea_groups():
    return [
        ("C2", cyclic(2), 2),
        ("C3", cyclic(3), 3),
        ("Klein", elementary_abelian(2, 2), 2),
        ("C3xC3", elementary_abelian(3, 2), 3),
    ]


def verify_units():
    """cone(coevaluation) of every u_pi is contractible; cone(a) (x) cone(b)
    is contractible over C_p."""
    ok, lines = True, []
    for name, E, p in _ea_groups():
        ea = EAStructure(E, p)
        for c in coordinates(ea):
            u = build_u(E, p, _pi_array(ea, c))
            good = is_contractible(cone(coevaluation(u)))
            ok &= good
            lines.append(
                f"units {name} u_{c.label}: cone(coev) contractible = {good}"
            )
    for p in (2, 3):
        E = cyclic(p)
        ea = EAStructure(E, p)
        (c,) = coordinates(ea)
        u = build_u(E, p, _pi_array(ea, c))
        ca, cb = cone(map_a(u)), cone(map_b(u))
        good = is_contractible(ca.tensor(cb))
        ok &= good
        lines.append(f"units C{p}: cone(a) (x) cone(b) contractible = {good}")
    return ok, lines


def verify_master():
    """The three-term relation map is null-homotopic with the computed scalar
    (and the explicit witness checks); a wrong scalar is rejected for p odd."""
    ok, lines = True, []
    for name, E, p in (
        ("Klein", elementary_abelian(2, 2), 2),
        ("C3xC3", elementary_abelian(3, 2), 3),
    ):
        ea = EAStructure(E, p)
        for c1, c2, c3, lam3 in dependent_triples(ea):
            us = [build_u(E, p, _pi_array(ea, c)) for c in (c1, c2, c3)]
            f = master_relation_map(*us, lam3=lam3)
            good = is_null_homotopic(f)[0]
            w = master_relation_witness(f)
            good = good and w is not None and verify_homotopy(f, w)
            ok &= good
            lines.append(
                f"master {name} ({c1.label},{c2.label},{c3.label}) "
                f"lam={lam3}: null-homotopic with witness = {good}"
            )
            if p > 2:
                bad = master_relation_map(*us, lam3=(lam3 % (p - 1)) + 1)
                rejected = not is_null_homotopic(bad)[0]
                ok &= rejected
                lines.append(
                    f"master {name} ({c1.label},{c2.label},{c3.label}) "
                    f"wrong scalar rejected = {rejected}"
                )
    return ok, lines


def verify_functors():
    """Fixed points and restriction act on (u_N, a_N, b_N) by the expected
    case split, checked over the Klein four-group for every pair (H, N)."""
    E, p = elementary_abelian(2, 2), 2
    ea = EAStructure(E, p)
    ok, lines = True, []
    proper = [S for S in p_subgroups(E, p) if 1 < S.order < E.order]
    for c in coordinates(ea):
        N = c.kernel
        u = build_u(E, p, _pi_array(ea, c))
        for H in proper:
            tag = f"functors H={{{','.join(str(x) for x in H.elements)}}} N={c.label}"
            # modular fixed points
            psi_u, _ = psi_complex(u, H)
            pa, pb = psi_map(map_a(u), H), psi_map(map_b(u), H)
            if N.contains_subgroup(H):
                Q, proj = quotient(E, H)
                qea = EAStructure(Q, p)
                fbar = [ea.functional_on(c.f, proj.reps[b]) for b in qea.basis]
                cbar = Coordinate(qea, canonical_functional(tuple(fbar), p))
                u_bar = build_u(Q, p, _pi_array(qea, cbar))
                good = (
                    psi_u.total_dim() == u_bar.total_dim()
                    and all(
                        np.array_equal(psi_u.diff(n), u_bar.diff(n))
                        for n in u_bar.diffs
                    )
                    and np.array_equal(pa.comp(0), map_a(u_bar).comp(0))
                    and np.array_equal(pb.comp(0), map_b(u_bar).comp(0))
                )
                lines.append(f"{tag}: Psi = (u,a,b) of the quotient = {good}")
            else:
                good = (
                    psi_u.total_dim() == 1
                    and np.array_equal(pa.comp(0), np.ones((1, 1), dtype=np.int64))
                    and (pb.comp(0) is None or pb.comp(0).size == 0)
                )
                lines.append(f"{tag}: Psi = (unit, 1, 0) = {good}")
            ok &= good
            # restriction
            ra, rb = res_map(map_a(u), H), res_map(map_b(u), H)
            if N.contains_subgroup(H):
                good = is_null_homotopic(ra)[0] and is_contractible(cone(rb))
                lines.append(f"{tag}: Res = (unit[2'], 0, iso) = {good}")
            else:
                ru, _ = res_complex(u, H)
                Hg2, emb = subgroup_as_group(H)
                pisub = [
                    ea.functional_on(c.f, int(emb[h]))
                    for h in range(Hg2.order)
                ]
                usub = build_u(Hg2, p, pisub)
                good = (
                    ru.total_dim() == usub.total_dim()
                    and all(
                        np.array_equal(ru.diff(n), usub.diff(n))
                        for n in usub.diffs
                    )
                    and np.array_equal(ra.comp(0), map_a(usub).comp(0))
                    and np.array_equal(rb.comp(0), map_b(usub).comp(0))
                )
                lines.append(f"{tag}: Res = (u,a,b) of the intersection = {good}")
            ok &= good
    return ok, lines


def verify_hilbert(max_shift_cp=6, max_q_cp=4, max_twist_klein=3, max_shift_klein=4):
    """Graded hom dimensions computed on complexes equal the standard-monomial
    counts of the presented twisted ring.

    The comparison is made, and holds, at p = 2 only (C2 and the Klein
    four-group).  At odd p the two disagree: over C3, at six pieces with
    q <= 3 and -8 <= s <= 2, all at odd shifts, where present_Rtotal has no
    classes; over C3xC3 at even shifts as well."""
    ok, lines = True, []
    # C2: Hom(1, u^q [s]) against the two-variable presentation
    E, p = cyclic(2), 2
    ea = EAStructure(E, p)
    (c,) = coordinates(ea)
    pi = _pi_array(ea, c)
    pres = present_Rtotal(E, p)
    for q in range(max_q_cp + 1):
        for s in range(-max_shift_cp, max_shift_cp + 1):
            hd = hom_dim(E, p, [pi] * q, s)
            cnt = count_standard_monomials(pres, s, (q,))
            good = hd == cnt
            ok &= good
            if not good:
                lines.append(f"hilbert C2 q={q} s={s}: {hd} != {cnt}")
    lines.append(f"hilbert C2: all (q,s) with q<={max_q_cp}, |s|<={max_shift_cp} = {ok}")
    # Klein four: all twists of total size <= max_twist_klein
    E, p = elementary_abelian(2, 2), 2
    ea = EAStructure(E, p)
    coords = coordinates(ea)
    pres = present_Rtotal(E, p)
    all_good = True
    for total in range(max_twist_klein + 1):
        for twist in itertools.product(range(total + 1), repeat=len(coords)):
            if sum(twist) != total:
                continue
            pis = []
            for c, mult in zip(coords, twist):
                pis.extend([_pi_array(ea, c)] * mult)
            for s in range(-max_shift_klein, max_shift_klein + 1):
                hd = hom_dim(E, p, pis, s)
                cnt = count_standard_monomials(pres, s, twist)
                if hd != cnt:
                    all_good = False
                    lines.append(f"hilbert Klein twist={twist} s={s}: {hd} != {cnt}")
    ok &= all_good
    lines.append(
        f"hilbert Klein: all twists <= {max_twist_klein}, |s| <= {max_shift_klein} "
        f"= {all_good}"
    )
    return ok, lines


SUITES = {
    "units": verify_units,
    "master": verify_master,
    "functors": verify_functors,
    "hilbert": verify_hilbert,
}
