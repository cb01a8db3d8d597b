"""The memo rule: a module-level memo is `functools.cache` on a private
function of exact content keys, emptied by `cache_clear()` and counted by
`cache_info()`; no module keeps a hand-written cache dict."""

import ast
import functools
import importlib
import pathlib
import pkgutil

import numpy as np
import pytest

import permspec
from permspec import gradedrings, modp
from permspec.complexes import build_u, coevaluation, cone, hom_dim, is_contractible
from permspec.gradedrings import (
    GradedPresentation, HomogeneousIdeal, buchberger, count_standard_monomials,
)
from permspec.groups import cyclic, elementary_abelian
from permspec.spectra import _token_ideal, skeleton
from permspec.twisted import closure_ideal, local_ring, present_Rtotal
from permspec.verify import verify_units

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "permspec"


def module_cache_names(source):
    """Names ending in _CACHE bound at module level (not inside a function
    or class body)."""
    found, todo = [], list(ast.parse(source).body)
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef,
                             ast.Lambda)):
            continue
        if (isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)
                and node.id.endswith("_CACHE")):
            found.append(node.id)
        todo.extend(ast.iter_child_nodes(node))
    return sorted(found)


def test_module_cache_detection():
    src = (
        "_A_CACHE = {}\n"
        "B_CACHE: dict = {}\n"
        "if True:\n    C_CACHE = D = {}\n"
        "CACHED = 1\n"
        "def f():\n    E_CACHE = {}\n"
        "class K:\n    F_CACHE = {}\n"
    )
    assert module_cache_names(src) == ["B_CACHE", "C_CACHE", "_A_CACHE"]


def test_no_module_cache_dicts():
    found = [
        f"{path.name}: {name}"
        for path in sorted(SRC.glob("*.py"))
        for name in module_cache_names(path.read_text())
    ]
    assert found == []


def _module_memos():
    """(module, name, memo) for every functools memo a permspec module holds."""
    out = []
    for info in pkgutil.iter_modules(permspec.__path__):
        mod = importlib.import_module(f"permspec.{info.name}")
        for name, val in sorted(vars(mod).items()):
            if callable(getattr(val, "cache_clear", None)):
                out.append((mod, name, val))
    return out


def test_cache_clear_empties_every_memo(monkeypatch):
    memos = _module_memos()
    assert {f"{mod.__name__}.{name}" for mod, name, _ in memos} >= {
        "permspec.twisted._local_ring", "permspec.twisted._presentation",
        "permspec.twisted._closure_ideal", "permspec.twisted._contracted_closure",
        "permspec.spectra._stratum_data", "permspec.complexes._invariant_profile",
        "permspec.complexes._tensor_prefix", "permspec.complexes._u_pi",
        "permspec.gradedrings._reduced_basis", "permspec.gradedrings._shift_histogram",
        "permspec.modp._solve",
    }
    # fresh memos for this test only: the warm ones come back afterwards
    fresh = []
    for mod, name, memo in memos:
        copy = functools.cache(memo.__wrapped__)
        monkeypatch.setattr(mod, name, copy)
        fresh.append((name, copy))
    # the rational skeleton of C2^2 fills the stratum and ring memos, and
    # carrying its family token into a line stratum by closure_ideal the
    # closure, contraction and Groebner memos
    E = elementary_abelian(2, 2)
    skeleton(E, 2)
    token = _token_ideal(local_ring(E, E.trivial_subgroup(), 2))
    closure_ideal(E, E.subgroup([0, 1]), token, 2)
    assert hom_dim(E, 2, [(0, 1, 0, 1)], -1) == 1
    assert count_standard_monomials(present_Rtotal(E, 2), 0, (1, 0, 0)) == 1
    # the oracle's orbit system for a unit of C2 fills the solve memo
    assert is_contractible(cone(coevaluation(build_u(cyclic(2), 2, [0, 1]))))
    for name, memo in fresh:
        assert memo.cache_info().currsize > 0, name
        memo.cache_clear()
        assert memo.cache_info().currsize == 0, name


@pytest.fixture
def fresh_reduced_basis(monkeypatch):
    """An empty `_reduced_basis` memo for one test, and the list of the
    Buchberger runs behind it."""
    runs = []

    def counting(gens, order, p):
        runs.append(gens)
        return buchberger(gens, order, p)

    memo = functools.cache(gradedrings._reduced_basis.__wrapped__)
    monkeypatch.setattr(gradedrings, "_reduced_basis", memo)
    monkeypatch.setattr(gradedrings, "buchberger", counting)
    return memo, runs


def test_equal_ideals_share_one_groebner_entry(fresh_reduced_basis):
    memo, runs = fresh_reduced_basis
    f = {(2, 0): 1, (0, 2): 2}
    g = {(1, 1): 1}
    gb = gradedrings._groebner_basis([f, g], 2, 0, 3)
    # permuted, repeated and rescaled generators
    for gens in ([g, f], [f, g, f], [{m: 2 * c for m, c in f.items()}, g]):
        assert gradedrings._groebner_basis(gens, 2, 0, 3) == gb
    assert memo.cache_info().currsize == 1 and len(runs) == 1
    # another characteristic or another order is another entry
    gradedrings._groebner_basis([f, g], 2, 0, 5)
    gradedrings._groebner_basis([f, g], 2, 1, 3)
    assert memo.cache_info().currsize == 3 and len(runs) == 3


def test_equal_presentations_run_buchberger_once(fresh_reduced_basis):
    _, runs = fresh_reduced_basis

    def build():
        return GradedPresentation(3, [("x", 2), ("y", 2)], relations=["x*y"])

    first, second = build(), build()
    assert first is not second
    ideals = [HomogeneousIdeal(pres, ["x^2 + y^2"]) for pres in (first, second)]
    assert ideals[0].groebner() == ideals[1].groebner()
    assert len(runs) == 1


def test_ideal_computes_its_groebner_basis_once(monkeypatch):
    calls = []
    basis = gradedrings._groebner_basis
    monkeypatch.setattr(gradedrings, "_groebner_basis",
                        lambda *args: calls.append(args) or basis(*args))
    pres = GradedPresentation(3, [("x", 2), ("y", 2)], relations=["x*y"])
    ideal = HomogeneousIdeal(pres, ["x^2 + y^2"])
    assert ideal.groebner() == ideal.groebner()
    assert len(calls) == 1
    # membership, normal forms, hashing and equality read the same basis
    assert ideal.member("x^3") and not ideal.member("x")
    assert ideal.normal_form("x^2") == ideal.normal_form("2*y^2")
    assert ideal == ideal and hash(ideal) == hash(ideal)
    assert len(calls) == 1


def test_equal_presentations_share_one_histogram_entry(monkeypatch):
    memo = functools.cache(gradedrings._shift_histogram.__wrapped__)
    monkeypatch.setattr(gradedrings, "_shift_histogram", memo)

    def build():
        return GradedPresentation(
            2, [("x", 1, (1,)), ("u", 0, (1,))], relations=["x^2"], twist_len=1)

    first, second = build(), build()
    assert first is not second
    # twist 2: u^2 at shift 0 and x*u at shift 1; x^2 is a relation
    for pres in (first, second):
        assert [count_standard_monomials(pres, s, (2,)) for s in range(-1, 4)] == \
            [0, 1, 1, 0, 0]
    info = memo.cache_info()
    assert info.currsize == info.misses == 1
    count_standard_monomials(second, 0, (3,))
    assert memo.cache_info().currsize == 2


@pytest.fixture
def fresh_solve(monkeypatch):
    """An empty `modp._solve` memo for one test."""
    memo = functools.cache(modp._solve.__wrapped__)
    monkeypatch.setattr(modp, "_solve", memo)
    return memo


def test_equal_bytes_at_two_primes_are_two_solve_entries(fresh_solve):
    A, b = [[1, 1], [0, 1]], [1, 1]
    assert list(modp.solve(A, b, 2)) == [0, 1]
    assert list(modp.solve(A, b, 3)) == [0, 1]
    assert fresh_solve.cache_info().currsize == 2


def test_shape_is_part_of_the_solve_key(fresh_solve):
    # both matrices are the bytes 1 0 0 1
    assert list(modp.solve([[1, 0, 0, 1]], [1], 2)) == [1, 0, 0, 0]
    assert list(modp.solve([[1, 0], [0, 1]], [1, 1], 2)) == [1, 1]
    assert fresh_solve.cache_info().currsize == 2


def test_solve_key_keeps_residues_past_255(fresh_solve):
    # 256 = -1 mod 257 would read as 0 in one byte
    assert list(modp.solve([[1]], [256], 257)) == [256]
    assert list(modp.solve([[1]], [0], 257)) == [0]
    assert fresh_solve.cache_info().currsize == 2


def test_mutating_a_solution_leaves_the_memo_intact(fresh_solve):
    A, b = [[1, 2], [0, 1]], [2, 1]
    x = modp.solve(A, b, 3)
    expected = x.copy()
    x[:] = 0
    assert np.array_equal(modp.solve(A, b, 3), expected)
    assert fresh_solve.cache_info().hits == 1


def test_verify_units_solves_the_repeated_orbit_system_once(monkeypatch):
    """The unit of C3 and its four inflations to C3xC3 give one orbit system
    at p = 3 with 232 rows."""
    misses = []
    inner = modp._solve.__wrapped__
    memo = functools.cache(
        lambda p, shape, *key: misses.append((p, shape)) or inner(p, shape, *key))
    monkeypatch.setattr(modp, "_solve", memo)
    calls = []
    solve = modp.solve
    monkeypatch.setattr(modp, "solve",
                        lambda A, b, p: calls.append((p, A.shape)) or solve(A, b, p))
    assert verify_units()[0]
    big = [key for key in calls if key[0] == 3 and key[1][0] == 232]
    assert len(big) == 5 and len(set(big)) == 1
    assert misses.count(big[0]) == 1
