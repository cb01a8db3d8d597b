"""Ring maps induced by group maps, checked against the per-case rules they
replaced.

`twisted` builds Psi^K, restriction and the ring path that point transport
and `fold` are checked against (`references.move_ideal`) with one pull-back
constructor, and the closure transport through the shared localization
`_localized_presentation`.  The references below are the earlier, separately written versions of each; the
new code must give exactly their images, targets and ideals.
"""

import functools

import numpy as np
import pytest

from permspec import spectra, twisted
from permspec.groups import (
    GroupError,
    dihedral,
    elementary_abelian,
    p_subgroups,
    quaternion,
    quotient,
)
from permspec.gradedrings import (
    GradedPresentation,
    GradedRingHom,
    HomogeneousIdeal,
    contract,
    pscale,
)
from permspec.modp import two_prime
from permspec.twisted import (
    Coordinate,
    canonical_functional,
    closure_ideal,
    leading_scalar,
    local_ring,
    psi_hom,
    res_hom,
)

from references import (
    checked_transports,
    fold_by_rings,
    functional_of_kernel,
    relabelled,
    subgroup_as_group,
)

GROUPS = [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2)]


# -- references --------------------------------------------------------------------


def _ref_quotient_coordinate(src_ea, tgt_ea, proj, N):
    p = src_ea.p
    f = functional_of_kernel(src_ea, N)
    fbar = []
    pm = np.asarray(proj.map)
    for b in tgt_ea.basis:
        x = int(np.nonzero(pm == b)[0][0])
        fbar.append(src_ea.functional_on(f, x))
    fbar = tuple(fbar)
    lam = leading_scalar(fbar, p)
    return Coordinate(tgt_ea, canonical_functional(fbar, p)), lam


def _ref_psi_hom(E, H, K, p):
    if not H.contains_subgroup(K):
        raise GroupError("psi_hom needs K <= H")
    src = local_ring(E, H, p)
    Q, proj = quotient(E.full_subgroup(), E.subgroup(list(K.elements)))
    Hbar = Q.subgroup(sorted({int(proj.map[x]) for x in H.elements}))
    tgt = local_ring(Q, Hbar, p)
    images = []
    for name in src.presentation.varnames:
        sign, lbl = name.split("_", 1)
        N = src.coordinate[lbl].kernel
        if not N.contains_subgroup(K):
            assert sign == "zm"
            images.append(tgt.presentation.zero())
            continue
        cbar, lam = _ref_quotient_coordinate(src.ea, tgt.ea, proj, N)
        scale = lam if sign == "zp" else pow(lam, p - 2, p)
        images.append(pscale(tgt.presentation.var(tgt.varname(cbar)), scale, p))
    hom = GradedRingHom(src.presentation, tgt.presentation, images)
    hom.source_spec, hom.target_spec = src, tgt
    return hom


def _ref_res_hom(Esub, E, H, p):
    src = local_ring(E, H, p)
    Esub_grp, embed = subgroup_as_group(Esub)
    Hsub = Esub_grp.subgroup(
        [i for i, x in enumerate(embed) if int(x) in set(H.elements)]
    )
    tgt = local_ring(Esub_grp, Hsub, p)
    images = []
    esub_set = set(Esub.elements)
    for name in src.presentation.varnames:
        sign, lbl = name.split("_", 1)
        N = src.coordinate[lbl].kernel
        if esub_set <= set(N.elements):
            assert sign == "zp"
            images.append(tgt.presentation.zero())
            continue
        f = functional_of_kernel(src.ea, N)
        fsub = tuple(src.ea.functional_on(f, int(embed[b])) for b in tgt.ea.basis)
        lam = leading_scalar(fsub, p)
        csub = Coordinate(tgt.ea, canonical_functional(fsub, p))
        scale = lam if sign == "zp" else pow(lam, p - 2, p)
        images.append(pscale(tgt.presentation.var(tgt.varname(csub)), scale, p))
    hom = GradedRingHom(src.presentation, tgt.presentation, images)
    hom.source_spec, hom.target_spec = src, tgt
    return hom


def _ref_induced_hom(src_spec, tgt_spec, iota):
    p = src_spec.p
    images = []
    for name in src_spec.presentation.varnames:
        assert name.startswith("zp_")
        c = src_spec.coordinate[name[3:]]
        fpull = tuple(
            src_spec.ea.functional_on(c.f, int(iota[b])) for b in tgt_spec.ea.basis
        )
        if not any(fpull):
            images.append(tgt_spec.presentation.zero())
            continue
        lam = leading_scalar(fpull, p)
        cbar = Coordinate(tgt_spec.ea, canonical_functional(fpull, p))
        images.append(
            pscale(tgt_spec.presentation.var(tgt_spec.varname(cbar)), lam, p)
        )
    hom = GradedRingHom(src_spec.presentation, tgt_spec.presentation, images)
    hom.source_spec, hom.target_spec = src_spec, tgt_spec
    return hom


def _ref_localization(E, H, I, p):
    """The arguments closure_ideal hands to contract, with the common
    localization T built by hand: Q: R'_E(H) -> T and the image of I in T."""
    spec1 = local_ring(E, E.trivial_subgroup(), p)
    specH = local_ring(E, H, p)
    variables = list(zip(spec1.presentation.varnames, spec1.presentation.degrees))
    d = two_prime(p)
    minus_labels = sorted(specH.minus_of)
    variables += [(f"zm_{lbl}", -d) for lbl in minus_labels]
    extra = len(minus_labels)
    t_rels = [
        {m + (0,) * extra: c for m, c in r.items()}
        for r in spec1.presentation.relations
    ]
    T = GradedPresentation(p, variables, check=False)
    for lbl in minus_labels:
        t_rels.append(
            {
                tuple(
                    (1 if v in (f"zp_{lbl}", f"zm_{lbl}") else 0)
                    for v in T.varnames
                ): 1,
                (0,) * T.nvars: p - 1,
            }
        )
    T = GradedPresentation(p, variables, relations=t_rels, check=False)
    into_T = GradedRingHom(
        spec1.presentation, T, [T.var(v) for v in spec1.presentation.varnames],
        check=False,
    )
    J_T = into_T.apply_ideal(I)
    Q = GradedRingHom(
        specH.presentation, T, [T.var(v) for v in specH.presentation.varnames]
    )
    return Q, J_T


def _ref_closure_ideal(E, H, I, p):
    Q, J_T = _ref_localization(E, H, I, p)
    pulled = contract(Q, J_T)
    specH = local_ring(E, H, p)
    psiH = _ref_psi_hom(E, H, H, p)
    return psiH.apply_ideal(
        HomogeneousIdeal(specH.presentation,
                         [dict(g) for g in pulled.generators], check=False)
    )


# -- helpers -----------------------------------------------------------------------


def _same_hom(hom, ref):
    assert hom.source_spec is ref.source_spec
    assert hom.target_spec is ref.target_spec
    assert hom.images == ref.images


def _generators(J):
    return [sorted(g.items()) for g in J.generators]


def _nested_pairs(E, p):
    subs = p_subgroups(E, p)
    return [(A, B) for A in subs for B in subs if A.contains_subgroup(B)]


# -- tests -------------------------------------------------------------------------


def test_psi_and_res_match_the_references():
    cases = 0
    for p, r in GROUPS:
        E = elementary_abelian(p, r)
        for H, K in _nested_pairs(E, p):
            _same_hom(psi_hom(E, H, K, p), _ref_psi_hom(E, H, K, p))
            cases += 1
        for Esub, H in _nested_pairs(E, p):
            _same_hom(res_hom(Esub, E, H, p), _ref_res_hom(Esub, E, H, p))
            cases += 1
    assert cases == 198


def test_psi_and_res_scalars_match_the_references_at_p5():
    # lam = lam^{-1} for every scalar mod 2 and mod 3; mod 5 the zm generators
    # tell the two apart
    E = elementary_abelian(5, 2)
    for H, K in _nested_pairs(E, 5):
        _same_hom(psi_hom(E, H, K, 5), _ref_psi_hom(E, H, K, 5))
        _same_hom(res_hom(H, E, K, 5), _ref_res_hom(H, E, K, 5))


def test_psi_kills_exactly_the_functionals_not_vanishing_on_K():
    E = elementary_abelian(3, 2)
    full = E.full_subgroup()
    for K in p_subgroups(E, 3):
        hom = psi_hom(E, full, K, 3)
        for name, im in zip(hom.source.varnames, hom.images):
            c = hom.source_spec.coordinate[name.split("_", 1)[1]]
            assert (not im) == (not c.kernel.contains_subgroup(K))


def _checked_hom(seen):
    """induced_hom, each result checked against _ref_induced_hom and the
    length of its group map appended to seen."""

    def checked(src, tgt, iota):
        hom = twisted.induced_hom(src, tgt, iota)
        _same_hom(hom, _ref_induced_hom(src, tgt, iota))
        seen.append(len(iota))
        return hom

    return checked


# transport_point moves intervals and the specialization order moves no
# ideal, so every ring map comes from the ring-path reference each transport
# is checked against
@pytest.mark.parametrize("G, transports", [(dihedral(8), 70), (quaternion(), 2)],
                         ids=["D8", "Q8"])
def test_glue_transports_match_the_reference(monkeypatch, G, transports):
    seen = []
    kinds = checked_transports(monkeypatch, _checked_hom(seen))
    spectra.glue(G, 2)
    assert len(seen) == len(kinds) == transports


def test_fold_automorphisms_match_the_reference(monkeypatch):
    E = elementary_abelian(2, 3)
    skel = spectra.skeleton(E, 2, level="strata")
    matrix = [[0, 1, 0], [0, 0, 1], [1, 0, 0]]
    located = []
    locate = spectra._locate

    def recording(points, pt, required=True):
        located.append(locate(points, pt, required))
        return located[-1]

    monkeypatch.setattr(spectra, "_locate", recording)
    folded = spectra.fold(skel, matrix)
    seen = []
    assert located == fold_by_rings(skel, matrix, _checked_hom(seen))
    assert len(seen) == len(skel.points) == 31
    assert len(folded.points) < len(skel.points)


class _Captured(Exception):
    pass


def _fresh_closure_memo(monkeypatch):
    """Give closure_ideal empty memos under this monkeypatch only, so the
    module's warm memos are back for the tests after it: (the memo keyed on
    the labelled group, the contraction memo keyed on H's vectors)."""
    memo = functools.cache(twisted._closure_ideal.__wrapped__)
    shared = functools.cache(twisted._contracted_closure.__wrapped__)
    monkeypatch.setattr(twisted, "_closure_ideal", memo)
    monkeypatch.setattr(twisted, "_contracted_closure", shared)
    return memo, shared


def _contract_inputs(monkeypatch, E, H, I, p):
    """(Q, J_T) as closure_ideal hands them to contract, which is not run."""

    def capture(Q, J_T):
        raise _Captured(Q, J_T)

    with monkeypatch.context() as m:
        m.setattr(twisted, "contract", capture)
        _fresh_closure_memo(m)
        with pytest.raises(_Captured) as exc:
            closure_ideal(E, H, I, p)
    return exc.value.args


def _token_transports():
    """(p, E/S_P, S_Q/S_P, token ideal of the S_P-stratum) for every family
    token carried into every stratum S_Q above its own S_P, over C2^3 and
    C3^2, as references.token_order_by_closure hands them to closure_ideal."""
    for p, r in ((2, 3), (3, 2)):
        E = elementary_abelian(p, r)
        for SP in p_subgroups(E, p):
            Qp, projp, specp = spectra.stratum_data(E, SP, p)
            if specp.ea.rank < 2:
                continue
            token = spectra._token_ideal(specp)
            for SQ in p_subgroups(E, p):
                if SQ.order > SP.order and SQ.contains_subgroup(SP):
                    Hbar = Qp.subgroup(sorted({int(projp.map[x]) for x in SQ.elements}))
                    yield p, Qp, Hbar, token


def test_closure_transport_localizes_as_the_reference(monkeypatch):
    # contract is deterministic, so equal arguments give equal closures; this
    # covers the transports too slow to run twice (token(1) of C2^3 into the
    # order-4 and full strata, about 9 s)
    cases = 0
    for p, Qp, Hbar, token in _token_transports():
        Q, J_T = _contract_inputs(monkeypatch, Qp, Hbar, token, p)
        Q_ref, J_ref = _ref_localization(Qp, Hbar, token, p)
        assert Q.source is Q_ref.source
        assert Q.target.degrees == Q_ref.target.degrees
        assert Q.target.relations == Q_ref.target.relations
        assert Q.images == Q_ref.images
        assert J_T.ambient is Q.target
        assert _generators(J_T) == _generators(J_ref)
        cases += 1
    assert cases == 15 + 7 * 4 + 5


def test_closure_of_family_tokens_matches_the_reference(monkeypatch):
    memo, _ = _fresh_closure_memo(monkeypatch)
    cases = 0
    for p, Qp, Hbar, token in _token_transports():
        if p == 2 and Qp.order == 8 and Hbar.order > 2:
            continue  # run through test_closure_transport_localizes_as_the_reference
        got = closure_ideal(Qp, Hbar, token, p)
        ref = _ref_closure_ideal(Qp, Hbar, token, p)
        assert got.ambient is ref.ambient
        assert _generators(got) == _generators(ref)
        cases += 1
    assert cases == 7 + 7 * 4 + 5
    # stratum quotients with equal tables share an entry
    info = memo.cache_info()
    assert info.misses == info.currsize == 16


@pytest.mark.parametrize("p, r", [(3, 2), (2, 3)])
def test_relabelled_closures_match_the_reference(monkeypatch, p, r):
    """A relabelled group takes every contraction from the memo keyed on H's
    vectors.  Some element tuples name a stratum in both labellings with
    other vectors, so a key on element indices would hand over a wrong one."""
    memo, shared = _fresh_closure_memo(monkeypatch)
    E = elementary_abelian(p, r)
    R = relabelled(E)
    spec1 = local_ring(E, E.trivial_subgroup(), p)
    pres = spec1.presentation
    ideals = [[pres.var(v)] for v in pres.varnames]
    if p == 3:
        ideals.append(spectra._token_ideal(spec1).generators)

    def strata(G):
        # on C2^3 the lines are where element tuples and vectors part; its
        # planes and the whole group would add about 4 s
        return [H for H in p_subgroups(G, p)[1:] if p == 3 or H.order == 2]

    def vectors(G, H):
        ea = local_ring(G, H, p).ea
        return sorted(ea.vec_of[h] for h in H.elements)

    # some element tuple is a stratum of both labellings, with other vectors
    of_E = {H.elements: vectors(E, H) for H in strata(E)}
    assert any(of_E.get(H.elements, vectors(R, H)) != vectors(R, H) for H in strata(R))
    for H in strata(E):
        for gens in ideals:
            closure_ideal(E, H, gens, p)
    cases = 0
    for H in strata(R):
        for gens in ideals:
            got = closure_ideal(R, H, gens, p)
            ref = _ref_closure_ideal(R, H, HomogeneousIdeal(pres, list(gens)), p)
            assert got.ambient is ref.ambient
            assert _generators(got) == _generators(ref)
            cases += 1
    assert cases == {3: 5 * 5, 2: 7 * 7}[p]
    assert memo.cache_info().misses == 2 * cases
    assert shared.cache_info().misses == cases


def test_quotient_keeps_the_least_coset_representatives():
    for G, p in ((dihedral(8), 2), (quaternion(), 2), (elementary_abelian(3, 2), 3)):
        for N in p_subgroups(G, p):
            if not N.is_normal():
                continue
            Q, proj = quotient(G.full_subgroup(), N)
            assert len(proj.reps) == Q.order
            for b, x in enumerate(proj.reps):
                assert proj.map[x] == b
                assert x == min(y for y in range(G.order) if proj.map[y] == b)
