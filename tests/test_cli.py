import contextlib
import io
import json
import time

import pytest
from hypothesis import given, settings, strategies as st

from permspec import cli
from permspec.cli import (
    EXIT_OK,
    EXIT_PARSE,
    EXIT_RESOURCE,
    EXIT_VERIFY,
    main,
    parse_group,
    parse_subgroup,
)
from permspec.groups import GroupError, ResourceError
from permspec.spectra import GlueError


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_group_shorthands():
    assert parse_group("cyclic:6").order == 6
    assert parse_group("dihedral:8").order == 8
    assert parse_group("quaternion").order == 8
    assert parse_group("ea:3:2").order == 9
    assert parse_group("klein").order == 4
    assert parse_group('{"kind": "cyclic", "n": 4}').order == 4


def test_parse_subgroup():
    G = parse_group("dihedral:8")
    assert parse_subgroup(G, "trivial").order == 1
    assert parse_subgroup(G, None).order == 1
    assert parse_subgroup(G, "full").order == 8


def test_sections_command(capsys):
    code, out, _ = run(capsys, "sections", "--group", "cyclic:4")
    assert code == EXIT_OK
    assert out.startswith("5 sections")


def test_maxel_command(capsys):
    code, out, _ = run(capsys, "maxel", "--group", "dihedral:8")
    assert code == EXIT_OK
    assert out.startswith("3 maximal section classes")


def test_relations_command(capsys):
    code, out, _ = run(capsys, "relations", "--group", "dihedral:8")
    assert code == EXIT_OK
    assert out.startswith("5 maximal relations")


def test_ring_command(capsys):
    code, out, _ = run(capsys, "ring", "--group", "klein", "--subgroup", "full",
                       "--format", "json")
    assert code == EXIT_OK
    data = json.loads(out)
    assert [v for v, _ in data["variables"]] == ["zm_01", "zm_10", "zm_11"]
    assert data["relations"] == ["zm_01*zm_10 + zm_01*zm_11 + zm_10*zm_11"]


def test_skeleton_command_formats(capsys):
    code, out, _ = run(capsys, "skeleton", "--group", "klein", "--format", "json")
    assert code == EXIT_OK
    assert len(json.loads(out)["points"]) == 13
    code, out, _ = run(capsys, "skeleton", "--group", "klein", "--format", "dot")
    assert code == EXIT_OK
    assert out.startswith("digraph")
    code, out, _ = run(capsys, "skeleton", "--group", "klein")
    assert code == EXIT_OK
    assert out.startswith("13 points, 21 covering edges")


def test_glue_command(capsys):
    code, out, _ = run(capsys, "glue", "--group", "dihedral:8", "--format", "json")
    assert code == EXIT_OK
    assert len(json.loads(out)["points"]) == 25


def test_components_and_dim(capsys):
    code, out, _ = run(capsys, "components", "--group", "quaternion")
    assert code == EXIT_OK
    assert out.startswith("2 irreducible components")
    code, out, _ = run(capsys, "dim", "--group", "quaternion")
    assert code == EXIT_OK
    assert "dimension 2" in out and "p-rank 1" in out


def test_fold_command(capsys):
    code, out, _ = run(capsys, "fold", "--group", "klein", "--matrix", "01,10",
                       "--format", "json")
    assert code == EXIT_OK
    assert len(json.loads(out)["points"]) == 10
    code, _, err = run(capsys, "fold", "--group", "klein")
    assert code == EXIT_PARSE and "matrix" in err


@pytest.mark.parametrize("matrix", ["01,1", "01,10,00", "", "11,11"],
                         ids=["ragged", "three-rows", "empty", "singular"])
def test_fold_rejects_a_malformed_matrix(capsys, matrix):
    # a matrix of the wrong shape or one that is not invertible mod p is a
    # parse error, not a traceback
    code, out, err = run(capsys, "fold", "--group", "klein", "--matrix", matrix)
    assert code == EXIT_PARSE and out == ""
    assert err.startswith("error: ") and "matrix" in err


def test_verify_command(capsys):
    code, out, _ = run(capsys, "verify", "units")
    assert code == EXIT_OK
    assert out.strip().endswith("verify units: PASS")
    code, _, err = run(capsys, "verify", "nonsense")
    assert code == EXIT_PARSE


def test_parse_errors(capsys):
    code, _, err = run(capsys, "skeleton", "--group", "icosahedral:60")
    assert code == EXIT_PARSE and "error:" in err
    code, _, err = run(capsys, "skeleton")
    assert code == EXIT_PARSE
    code, _, err = run(capsys, "skeleton", "--group", "cyclic:4", "--prime", "6")
    assert code == EXIT_PARSE


def test_prime_check_runs_to_the_square_root(capsys):
    # the suite name is checked after the prime, so the message tells which
    # check refused the call
    start = time.perf_counter()
    code, _, err = run(capsys, "verify", "nosuch", "--prime", "1000000007")
    assert time.perf_counter() - start < 2.0
    assert code == EXIT_PARSE and "unknown verify suite" in err
    for p in (1, 4, 9, 25):
        code, _, err = run(capsys, "verify", "nosuch", "--prime", str(p))
        assert code == EXIT_PARSE and "is not prime" in err
    for p in (2, 3, 5, 7):
        code, _, err = run(capsys, "verify", "nosuch", "--prime", str(p))
        assert code == EXIT_PARSE and "unknown verify suite" in err


def test_prime_is_bounded_before_the_primality_check(capsys):
    # 2^61 - 1 is prime, but trial division to its square root would take
    # minutes; 2^31 - 1 is the largest prime accepted
    for p, message in ((2305843009213693951, "below 2^31"),
                       (2147483648, "below 2^31"),
                       (2147483647, "unknown verify suite")):
        start = time.perf_counter()
        code, _, err = run(capsys, "verify", "nosuch", "--prime", str(p))
        assert time.perf_counter() - start < 2.0
        assert code == EXIT_PARSE and message in err


def test_elementary_abelian_shorthand_needs_a_prime(capsys):
    # C4 x C4 and C6 are not elementary abelian; 2^61 - 1 is prime but above
    # the bound, and is refused before any trial division
    for spec in ("ea:4:2", "ea:6:1", "ea:2305843009213693951:0"):
        start = time.perf_counter()
        code, out, err = run(capsys, "maxel", "--group", spec)
        assert time.perf_counter() - start < 2.0
        assert (code, out) == (EXIT_PARSE, "") and err.startswith("error:"), spec
    code, out, _ = run(capsys, "maxel", "--group", "ea:3:0")
    assert code == EXIT_OK and out.startswith("1 maximal section class")


def test_cyclic_of_nonpositive_order_names_n(capsys):
    for spec in ("cyclic:0", "cyclic:-1", '{"kind":"cyclic","n":0}'):
        code, out, err = run(capsys, "maxel", "--group", spec)
        assert (code, out) == (EXIT_PARSE, ""), spec
        assert err.startswith("error:") and "n=" in err and "square" not in err, spec


def _is_prime_by_division(n):
    return n >= 2 and all(n % k for k in range(2, n))


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(["ea", "cyclic", "dihedral"]),
       st.integers(-3, 40), st.integers(-2, 6))
def test_group_shorthands_exit_cleanly(kind, a, b):
    """Small integer shorthands exit 0, 2 or 3 with no traceback; ea:p:r
    exits 0 exactly when p is prime and p^r is within the order cap."""
    spec = f"ea:{a}:{b}" if kind == "ea" else f"{kind}:{a}"
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(["maxel", "--group", spec, "--cap-order", "16"])
    assert code in (EXIT_OK, EXIT_PARSE, EXIT_RESOURCE), spec
    assert (code == EXIT_OK) is (err.getvalue() == ""), spec
    assert "Traceback" not in err.getvalue()
    if kind == "ea":
        assert (code == EXIT_OK) is (_is_prime_by_division(a) and b >= 0 and a ** b <= 16)


@pytest.mark.parametrize("spec, names", [
    ('{"kind":"table","table":5}', "table"),
    ('{"kind":"table"}', "table"),
    ('{"kind":"cyclic","n":"x"}', "'n'"),
    ('{"kind":"table","table":[[0,1],[1]]}', "table"),
    ('{"kind":"table","table":[[0,1],[1,null]]}', "table"),
    ('{"kind":"product","factors":{"kind":"klein"}}', "factors"),
    ('{"kind":"perm","degree":3,"generators":[[[0,3]]]}', "generators"),
    ('{"kind":"product","factors":[{"kind":"cyclic","n":2},5]}', "object"),
])
def test_malformed_json_group_spec_exits_2(capsys, spec, names):
    code, out, err = run(capsys, "sections", "--group", spec)
    assert code == EXIT_PARSE and out == ""
    assert err.startswith("error: ") and names in err


@pytest.mark.parametrize("value", [2.5, True, 8.0])
@pytest.mark.parametrize("spec, field", [
    ({"kind": "cyclic"}, "n"),
    ({"kind": "dihedral"}, "order"),
    ({"kind": "elementary_abelian", "rank": 2}, "p"),
    ({"kind": "elementary_abelian", "p": 2}, "rank"),
])
def test_non_integer_json_fields_exit_2(capsys, spec, field, value):
    # int() would truncate these: 2.5 to C2, true to C1
    text = json.dumps({**spec, field: value})
    code, out, err = run(capsys, "sections", "--group", text)
    assert code == EXIT_PARSE and out == ""
    assert f"'{field}' must be an integer" in err


@pytest.mark.parametrize("text", [
    "cyclic:600", "dihedral:1000", "ea:2:8", "ea:3:1000000000",
])
def test_shorthand_order_is_capped_before_any_table_is_built(monkeypatch, text):
    import permspec.groups

    def no_table(*args, **kwargs):
        raise AssertionError("a group table was built before the cap check")

    monkeypatch.setattr(permspec.groups, "FiniteGroup", no_table)
    with pytest.raises(ResourceError, match="exceeds cap"):
        parse_group(text)


def test_shorthand_errors_exit_2(capsys):
    for text in ("ea:2:-1", "cyclic:x", "ea:2", "klein:4"):
        code, out, err = run(capsys, "sections", "--group", text)
        assert code == EXIT_PARSE and out == "" and err.startswith("error: ")
    with pytest.raises(GroupError):
        parse_group("ea:2:-1")


def test_glue_error_exits_4_and_points_to_strata(monkeypatch, capsys):
    # the real case (D8 x C2 at the rational level) is a golden; this pins
    # the message without its section category
    def fail(*args, **kwargs):
        raise GlueError("transported point eta(1)^[0] is not a named point")

    monkeypatch.setattr(cli, "glue", fail)
    code, out, err = run(capsys, "glue", "--group", "klein")
    assert code == EXIT_VERIFY and out == ""
    assert err.startswith("error: transported point") and "--level strata" in err


def test_resource_limit(capsys):
    code, _, err = run(capsys, "skeleton", "--group", "cyclic:16",
                       "--cap-order", "8")
    assert code == EXIT_RESOURCE and "resource limit" in err


# GL(3,2), of order 168, on the seven nonzero vectors of F_2^3
GL32 = '{"kind":"perm","degree":7,"generators":[[[1,5],[2,6]],[[0,5,2,6,4,3,1]]]}'


def test_cap_order_reaches_the_subgroup_lattice(capsys):
    code, out, err = run(capsys, "sections", "--group", GL32, "--prime", "7",
                         "--cap-order", "200")
    assert code == EXIT_OK, err
    assert out.startswith("17 sections")
    # dim goes through glue, the section category and p_rank
    code, out, err = run(capsys, "dim", "--group", GL32, "--prime", "7",
                         "--cap-order", "200")
    assert code == EXIT_OK, err
    assert out == "dimension 1\np-rank 1\n"
    code, _, err = run(capsys, "sections", "--group", GL32, "--prime", "7",
                       "--cap-order", "100")
    assert code == EXIT_RESOURCE and "exceeds cap 100" in err


def test_cap_order_reaches_the_skeleton_lattice(capsys):
    # C13 x C13 has order 169: the named points of every stratum come from
    # the lattice of a group built under --cap-order
    argv = ["--group", "ea:13:2", "--prime", "13", "--level", "strata"]
    heads = {
        "skeleton": "31 points, 43 covering edges\n",
        "glue": "31 points, 43 covering edges\n",
        "dim": "dimension 2\np-rank 2\n",
        "components": "1 irreducible components\n",
    }
    for command, head in heads.items():
        code, out, err = run(capsys, command, *argv, "--cap-order", "200")
        assert code == EXIT_OK, err
        assert out.startswith(head)
        code, _, err = run(capsys, command, *argv)
        assert code == EXIT_RESOURCE and "exceeds cap 128" in err


def test_cap_rank_reaches_every_skeleton_command(capsys):
    # C2^4 has rank 4, one above the default cap; the rational skeleton and
    # glue of C2^4 order their 409 points with no closure transport
    argv = ["--group", "ea:2:4", "--prime", "2"]
    heads = {
        "skeleton": "409 points, 1145 covering edges\n",
        "glue": "409 points, 1145 covering edges\n",
        "dim": "dimension 4\np-rank 4\n",
        "components": "1 irreducible components\n",
    }
    for command, head in heads.items():
        code, out, err = run(capsys, command, *argv, "--cap-rank", "4")
        assert code == EXIT_OK, err
        assert out.startswith(head)
        code, _, err = run(capsys, command, *argv)
        assert code == EXIT_RESOURCE
        assert "rank 4 exceeds the configured cap 3" in err


def test_components_of_p_prime_group(capsys):
    code, out, _ = run(capsys, "components", "--group", "cyclic:3", "--prime", "2")
    assert code == EXIT_OK
    assert out.startswith("1 irreducible components")


def test_rank_cap_checked_before_sections(capsys):
    for command in ("dim", "glue", "components"):
        start = time.perf_counter()
        code, _, err = run(capsys, command, "--group", "ea:2:4")
        assert code == EXIT_RESOURCE
        assert "rank 4 exceeds the configured cap 3" in err
        # enumerating the 513 sections first took minutes
        assert time.perf_counter() - start < 10


def test_byte_identical_runs(capsys):
    outs = []
    for _ in range(2):
        code, out, _ = run(capsys, "glue", "--group", "dihedral:8",
                           "--format", "json")
        assert code == EXIT_OK
        outs.append(out)
    assert outs[0] == outs[1]


def test_subgroup_element_names(capsys):
    code, out, _ = run(capsys, "ring", "--group", "klein",
                       "--subgroup", "(s^1,1)")
    assert code == EXIT_OK and "zp_" in out
    code, _, err = run(capsys, "ring", "--group", "klein",
                       "--subgroup", "nosuch")
    assert code == EXIT_PARSE and "available names" in err
    # the ring presentation only exists for elementary abelian groups
    code, _, err = run(capsys, "ring", "--group", "dihedral:8",
                       "--subgroup", "r^2")
    assert code == EXIT_PARSE and "elementary abelian" in err
