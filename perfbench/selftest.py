#!/usr/bin/env python3
"""Self-test of the checks: each one rejects a deliberately corrupted result.

    python3 perfbench/selftest.py [--seed N]

Runs one round of every workload (about half a minute), confirms that the
checks accept the real results, then corrupts a copy of them in each way
listed below and confirms that the checks report an error every time.
Exits 1 if any check accepts a corrupted result.
"""

import argparse
import copy
import re
import sys

import checks
import run
import workloads


def _drop_first(lst):
    del lst[0]


def _swap_proper_section(objs):
    i = next(k for k, (H, K) in enumerate(objs) if H != K)
    objs[i] = [objs[i][1], objs[i][0]]


def _bad_leg(inp, res):
    """Give the first D16 span a leg witnessed by an element that is no morphism."""
    T = checks.I.Table(next(g for g in inp["groups"] if g["name"] == "D16")["table"])
    rel = res["relations D16"][0]
    apex, foot = tuple(map(tuple, rel[0])), tuple(map(tuple, rel[2]))
    rel[1] = next(e for e in range(T.n) if not checks._morphism(T, apex, foot, e))


def _second_generic(sk):
    n = len(sk["points"])
    pairs = {tuple(x) for x in sk["order"]}
    i = next(i for i in range(n) if sum(1 for a, _ in pairs if a == i) < n - 1
             and sk["points"][i][0] != "VeryClosed")
    pairs |= {(i, j) for j in range(n) if j != i}
    sk["order"] = sorted(map(list, pairs))


def _vc_not_closed(sk):
    i = next(k for k, (kind, _) in enumerate(sk["points"]) if kind == "VeryClosed")
    j = next(k for k in range(len(sk["points"])) if k != i and [i, k] not in sk["order"])
    sk["order"].append([i, j])


def _rational_loses_stratum_point(sk):
    i = next(k for k, (kind, _) in enumerate(sk["points"]) if kind == "Rational")
    S = sk["points"][i][1]
    vc = next(k for k, (kind, T) in enumerate(sk["points"]) if kind == "VeryClosed" and T == S)
    sk["order"].remove([i, vc])


def _flip_unit(inp, res, group):
    c = next(c for c in inp["closures"] if c["group"] == group)
    out = res[f"closure {c['group']} {c['form']} -> {c['H']}"]
    out["unit"] = not out["unit"]


def _bump(lines, word):
    """Add one to the number on the first line that mentions `word`."""
    k = next(k for k, line in enumerate(lines) if word in line)
    lines[k] = re.sub(r"\d+", lambda m: str(int(m.group()) + 1), lines[k], count=1)


def _cycle(g):
    a, b = g["edges"][0]
    g["edges"].append([b, a])


CORRUPTIONS = {
    "sections": {
        "a section is missing": lambda inp, res: _drop_first(res["objects D16"]),
        "a section is listed twice": lambda inp, res: res["objects C4xC4"].append(res["objects C4xC4"][0]),
        "K is not inside H": lambda inp, res: _swap_proper_section(res["objects D8xC2"]),
        "C2^3 loses a section": lambda inp, res: res["objects C2^3"].pop(),
        "D8 loses its trivial section": lambda inp, res: res["objects D8"].remove(
            next(x for x in res["objects D8"] if x[0] == x[1])),
        "maxel rank is wrong": lambda inp, res: res["maxel C2^3"][0].__setitem__(2, 2),
        "maxel loses its top rank": lambda inp, res: res["maxel D8xC2"].__setitem__(
            slice(None), [m for m in res["maxel D8xC2"] if m[2] < 3]),
        "a span leg is not a morphism": _bad_leg,
    },
    "skeleton": {
        "a point is missing": lambda inp, res: res["skeleton C3^2 rational"]["points"].pop(),
        "two generic points": lambda inp, res: _second_generic(res["skeleton C2^2 rational"]),
        "a very closed point is not closed": lambda inp, res: _vc_not_closed(res["skeleton C2^3 strata"]),
        "a rational closure misses M(S)": lambda inp, res: _rational_loses_stratum_point(
            res["skeleton C3^2 rational"]),
        "an irreducible form survives in a stratum": lambda inp, res: _flip_unit(inp, res, "C2^2"),
        "a line ideal lands on the wrong stratum": lambda inp, res: _flip_unit(inp, res, "C3^2"),
    },
    "glue": {
        "a very closed point is lost": lambda inp, res: res["glue D16"]["kinds"].__setitem__(
            res["glue D16"]["kinds"].index("VeryClosed"), "Rational"),
        "the edges have a cycle": lambda inp, res: _cycle(res["glue C4xC4"]),
        "the height drops": lambda inp, res: res["glue C3xS3"].__setitem__("edges", []),
        "components differ from maxel": lambda inp, res: _bump(res["components C4xC4"], "irreducible"),
        "dimension is wrong": lambda inp, res: _bump(res["dim D8"], "dimension"),
        "the p'-group gets two components": lambda inp, res: res.__setitem__(
            "components C3@2", ["2 irreducible components"]),
    },
    "oracle": {
        "a suite fails": lambda inp, res: res["verify master"].__setitem__("ok", False),
        "a hom_dim is off by one": lambda inp, res: res["hom_dim Klein queries"].__setitem__(
            0, res["hom_dim Klein queries"][0] + 1),
    },
}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)
    run.import_permspec()
    bad = 0
    for w in workloads.WORKLOADS:
        inp = workloads.make_inputs(w, args.seed)
        ops = workloads.make_ops(w, inp)
        exp = workloads.expected(w, inp)
        run.clear_caches()
        res = run.run_round(ops, None, 0)["results"]
        errs = checks.CHECKS[w](inp, exp, res)
        print(f"{w}: real results {'accepted' if not errs else 'REJECTED: ' + '; '.join(errs)}")
        bad += bool(errs)
        for label, corrupt in CORRUPTIONS[w].items():
            broken = copy.deepcopy(res)
            corrupt(inp, broken)
            errs = checks.CHECKS[w](inp, exp, broken)
            print(f"  {label}: {'rejected' if errs else 'ACCEPTED'}"
                  + (f" ({errs[0]})" if errs else ""))
            bad += not errs
    print("selftest:", "PASS" if not bad else f"FAIL ({bad})")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
