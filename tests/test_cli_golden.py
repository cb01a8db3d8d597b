"""CLI output contract: stdout bytes and exit codes of fast commands.

The expected files under ``tests/golden/`` record what the CLI printed before
a change; a refactor must reproduce them exactly.  To record them afresh
(only when the output is meant to change), run from the repository root:

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import contextlib
import io
import json
import pathlib

import pytest

from permspec.cli import main
from permspec.groups import cyclic, dihedral, product

from references import relabelled

GOLDEN = pathlib.Path(__file__).parent / "golden"

C4XC4 = '{"kind":"product","factors":[{"kind":"cyclic","n":4},{"kind":"cyclic","n":4}]}'
# S3 is the dihedral group of order 6
C3XS3 = '{"kind":"product","factors":[{"kind":"cyclic","n":3},{"kind":"dihedral","order":6}]}'
D8XC2 = '{"kind":"product","factors":[{"kind":"dihedral","order":8},{"kind":"cyclic","n":2}]}'


def table_spec(G):
    return json.dumps({"kind": "table", "table": G.table.tolist()}, separators=(",", ":"))


# stratum quotients of these tables differ from the constructors' own, so
# ring keys that read the labelled table would miss where content keys hit
C3XC9_RELABELLED = table_spec(relabelled(product(cyclic(3), cyclic(9))))
C3XS3_RELABELLED = table_spec(relabelled(product(cyclic(3), dihedral(6))))

CASES = {
    "sections_klein": ["sections", "--group", "klein"],
    "sections_d8": ["sections", "--group", "dihedral:8"],
    "sections_d16": ["sections", "--group", "dihedral:16"],
    "sections_c2_4": ["sections", "--group", "ea:2:4"],
    "maxel_klein": ["maxel", "--group", "klein"],
    "maxel_d8": ["maxel", "--group", "dihedral:8"],
    "maxel_d16": ["maxel", "--group", "dihedral:16"],
    "relations_klein": ["relations", "--group", "klein"],
    "relations_d8": ["relations", "--group", "dihedral:8"],
    "relations_d16": ["relations", "--group", "dihedral:16"],
    "maxel_q8": ["maxel", "--group", "quaternion"],
    "relations_q8": ["relations", "--group", "quaternion"],
    "maxel_c4xc4": ["maxel", "--group", C4XC4],
    "relations_c4xc4": ["relations", "--group", C4XC4],
    "maxel_c3xs3_p3": ["maxel", "--group", C3XS3, "--prime", "3"],
    "relations_c3xs3_p3": ["relations", "--group", C3XS3, "--prime", "3"],
    "ring_klein": ["ring", "--group", "klein"],
    "ring_d8": ["ring", "--group", "dihedral:8"],
    "skeleton_klein_dot": ["skeleton", "--group", "klein", "--format", "dot"],
    "skeleton_c3_2_p3_json": [
        "skeleton", "--group", "ea:3:2", "--prime", "3", "--format", "json"],
    "skeleton_c2_3_strata_json": [
        "skeleton", "--group", "ea:2:3", "--level", "strata", "--format", "json"],
    "glue_d8_json": ["glue", "--group", "dihedral:8", "--format", "json"],
    "glue_q8_json": ["glue", "--group", "quaternion", "--format", "json"],
    "glue_c4xc4_json": ["glue", "--group", C4XC4, "--format", "json"],
    "glue_c3xs3_p3_json": [
        "glue", "--group", C3XS3, "--prime", "3", "--format", "json"],
    "glue_c3xc9_relabelled_p3_json": [
        "glue", "--group", C3XC9_RELABELLED, "--prime", "3", "--format", "json"],
    "glue_c3xs3_relabelled_p3_json": [
        "glue", "--group", C3XS3_RELABELLED, "--prime", "3", "--format", "json"],
    # the first glue golden of sectional rank 3
    "glue_d8xc2_strata_json": [
        "glue", "--group", D8XC2, "--level", "strata", "--format", "json"],
    # a rational transport leaves the named points: exit 4, nothing on stdout
    "glue_d8xc2_rational": ["glue", "--group", D8XC2],
    "components_q8": ["components", "--group", "quaternion"],
    "dim_q8": ["dim", "--group", "quaternion"],
    "fold_klein": ["fold", "--group", "klein", "--matrix", "01,10"],
    "fold_c2_3_strata": [
        "fold", "--group", "ea:2:3", "--level", "strata", "--matrix", "010,001,100"],
    "verify_units": ["verify", "units"],
}


def run_cli(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(list(argv))
    return code, buf.getvalue()


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_golden(name):
    code, out = run_cli(CASES[name])
    codes = json.loads((GOLDEN / "exit_codes.json").read_text())
    assert code == codes[name]
    assert out == (GOLDEN / f"{name}.out").read_text()


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    codes = {}
    for name, argv in sorted(CASES.items()):
        codes[name], out = run_cli(argv)
        (GOLDEN / f"{name}.out").write_text(out)
    (GOLDEN / "exit_codes.json").write_text(
        json.dumps(codes, sort_keys=True, indent=2) + "\n")
