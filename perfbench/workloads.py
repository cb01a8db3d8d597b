"""The four workloads: seeded inputs, the operations that run on them, and the
values the checks compare against.

`make_inputs` needs only the standard library and is what set-up time covers
together with `import permspec`.  `make_ops` turns inputs into a fixed list
of operations; each operation calls into permspec through module attributes
at call time (so a traced run sees the wrapped entry points) and returns its
result as plain data.  `expected` computes, outside any timed region, the
values that need the program's coordinate conventions.
"""

import contextlib
import importlib
import io
import json

import inputs as I

WORKLOADS = ("sections", "skeleton", "glue", "oracle")

# A known fault kept in the `glue` workload: components of a group of order
# prime to p raise AssertionError, because a rank-0 section has no eta(1).
# The input does not depend on the seed, so it fails once in every round.
KNOWN_FAILURE = ["components", "--group", "cyclic:3", "--prime", "2"]


class OpFailed(RuntimeError):
    """An operation ended without a result (exception or nonzero exit)."""


class Op:
    def __init__(self, name, fn, expect_fail=False):
        self.name = name
        self.fn = fn
        self.expect_fail = expect_fail


def _pm(name):
    return importlib.import_module(f"permspec.{name}")


def _spec(table):
    return {"kind": "table", "table": table}


def _group(table):
    return _pm("groups").group_from_spec(_spec(table))


# -- inputs -----------------------------------------------------------------------------

SECTION_GROUPS = [
    ("D8", ("objects", "maxel", "relations")),
    ("D16", ("objects", "maxel", "relations")),
    ("C4xC4", ("objects", "maxel", "relations")),
    ("C2^3", ("objects", "maxel", "relations")),
    ("D8xC2", ("objects", "maxel")),
]

SKELETONS = [
    ("C2^2", "rational", 3),
    ("C3^2", "rational", 3),
    ("C2^3", "strata", 3),
    ("C3^3", "strata", 3),
    ("C2^4", "strata", 4),
]

GLUE_GROUPS = ["D8", "D16", "Q8", "C4xC4", "C2xC8", "C3xC9", "C3xS3", "C27"]
COMPONENTS_ON = ["Q8", "C4xC4", "C27"]
DIM_ON = ["D8", "C27"]

# Line ideals over F3: every coordinate of C3^2 into every order-3 stratum.
# One pair costs from 0.05 s to 1 s depending on which coordinate and stratum
# meet, so taking all sixteen keeps a round's work the same for every seed
# (the seed draws each ideal's scalar; C3^2 keeps one labelling, see
# inputs.fixed_rng).
LINE_LABELS = ("01", "10", "11", "12")

# Twist multisets of the hom_dim queries on the Klein four-group; the seed
# permutes each over the three coordinates, and every shift s from
# -total-1 to 1 is queried.  Cost grows steeply with the total (total 8
# takes up to 3.5 s per query, total 9 seconds to a minute) and with the
# shift (0.03-0.2 s across the shifts of a total-7 twist, most in the
# middle), so neither is seeded: a seeded shift made a round's hom_dim time
# range from 0.3 s to 3.2 s by seed.
HOM_DIM_TWISTS = [(3, 2, 2), (4, 2, 1), (2, 2, 2), (3, 2, 1), (2, 2, 1)]
HILBERT_BOX = dict(max_shift_cp=8, max_q_cp=5, max_twist_klein=4, max_shift_klein=5)


def make_inputs(workload, seed):
    rng = I.seeded_rng(seed, workload)
    groups = {}

    def group(name):
        if name not in groups:
            table, p, sec_rank, p_rank = I.seeded_group(
                name, I.fixed_rng(name) if I.GROUPS[name][1] == 3 else rng
            )
            groups[name] = dict(
                name=name, table=table, p=p, sec_rank=sec_rank, p_rank=p_rank
            )
        return groups[name]

    if workload == "sections":
        return {"groups": [dict(group(n), ops=ops) for n, ops in SECTION_GROUPS]}
    if workload == "skeleton":
        skels = [
            dict(group(n), level=level, cap=cap) for n, level, cap in SKELETONS
        ]
        klein = group("C2^2")
        kt = I.Table(klein["table"])
        klein_lines = sorted(
            sorted(S) for S in kt.subgroups() if len(S) == 2
        )
        names = ["zp_01", "zp_10", "zp_11"]
        forms = []
        for d in (3, 4):
            x, y = rng.sample(names, 2)
            coeffs = I.random_irreducible_form(d, 2, rng)
            forms.append(I.form_text(coeffs, x, y))
        c3 = group("C3^2")
        ct = I.Table(c3["table"])
        c3_lines = sorted(sorted(S) for S in ct.subgroups() if len(S) == 3)
        closures = [
            dict(group="C2^2", form=f, H=H) for f in forms for H in klein_lines
        ]
        for label in LINE_LABELS:
            form = f"{rng.choice([1, 2])}*zp_{label}"
            closures += [dict(group="C3^2", form=form, H=H, label=label) for H in c3_lines]
        return {"skeletons": skels, "closures": closures, "groups": groups}
    if workload == "glue":
        specs = {}
        for n in GLUE_GROUPS:
            g = group(n)
            specs[n] = json.dumps(_spec(g["table"]), separators=(",", ":"))

        def argv(cmd, n):
            return [cmd, "--group", specs[n], "--prime", str(groups[n]["p"])]

        calls = [dict(kind="glue", group=n, argv=argv("glue", n) + ["--format", "json"])
                 for n in GLUE_GROUPS]
        calls += [dict(kind="maxel", group=n, argv=argv("maxel", n)) for n in COMPONENTS_ON]
        calls += [dict(kind="components", group=n, argv=argv("components", n))
                  for n in COMPONENTS_ON]
        calls += [dict(kind="dim", group=n, argv=argv("dim", n)) for n in DIM_ON]
        calls.append(dict(kind="components", group="C3@2", argv=list(KNOWN_FAILURE),
                          expect_fail=True))
        return {"calls": calls, "groups": groups}
    if workload == "oracle":
        klein = group("C2^2")
        queries = []
        for twist in HOM_DIM_TWISTS:
            tw = list(twist)
            rng.shuffle(tw)
            queries += [dict(twist=tw, s=s) for s in range(-sum(tw) - 1, 2)]
        return {"klein": klein, "queries": queries,
                "suites": ["units", "master", "functors", "hilbert"]}
    raise ValueError(f"unknown workload {workload!r}")


# -- operations -------------------------------------------------------------------------


def _key(sec):
    return [list(sec.H.elements), list(sec.K.elements)]


def _section_ops(inp):
    ops = []
    for g in inp["groups"]:
        state = {}

        def objects(g=g, state=state):
            G = _group(g["table"])
            state["cat"] = _pm("sections").SectionCategory(G, g["p"])
            return [_key(x) for x in state["cat"].objects()]

        def maxel(state=state):
            return [_key(x) + [x.rank()] for x in state["cat"].maxel()]

        def relations(state=state):
            return [
                [_key(r.apex), r.f1.g, _key(r.f1.target), r.f2.g, _key(r.f2.target)]
                for r in state["cat"].maximal_relations()
            ]

        fns = dict(objects=objects, maxel=maxel, relations=relations)
        ops += [Op(f"{name} {g['name']}", fns[name]) for name in g["ops"]]
    return ops


def _skeleton_ops(inp):
    ops = []
    for s in inp["skeletons"]:
        def run(s=s):
            G = _group(s["table"])
            skel = _pm("spectra").skeleton(G, s["p"], level=s["level"], cap_rank=s["cap"])
            return {
                "points": [[pt.kind, list(pt.stratum.elements)] for pt in skel.points],
                "order": sorted([a, b] for a, b in skel.order),
            }

        ops.append(Op(f"skeleton {s['name']} {s['level']}", run))
    for c in inp["closures"]:
        g = inp["groups"][c["group"]]

        def run(c=c, g=g):
            G = _group(g["table"])
            ring = _pm("twisted").local_ring(G, G.trivial_subgroup(), g["p"])
            ideal = _pm("gradedrings").HomogeneousIdeal(ring.presentation, [c["form"]])
            out = _pm("twisted").closure_ideal(G, G.subgroup(c["H"]), ideal, g["p"])
            return {"unit": out.is_unit(), "zero": out.is_zero()}

        ops.append(Op(f"closure {c['group']} {c['form']} -> {c['H']}", run))
    return ops


def _run_cli(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = _pm("cli").main(list(argv))
    if rc != 0:
        raise OpFailed(f"exit {rc}")
    return buf.getvalue()


def _glue_ops(inp):
    ops = []
    for c in inp["calls"]:
        def run(c=c):
            out = _run_cli(c["argv"])
            if c["kind"] == "glue":
                doc = json.loads(out)
                return {
                    "kinds": [pt["kind"] for pt in doc["points"]],
                    "edges": doc["edges"],
                }
            return out.splitlines()

        ops.append(Op(f"{c['kind']} {c['group']}", run, c.get("expect_fail", False)))
    return ops


def _klein_coordinates(table):
    tw = _pm("twisted")
    G = _group(table)
    ea = tw.EAStructure(G, 2)
    pis = [[ea.functional_on(c.f, x) for x in range(G.order)] for c in tw.coordinates(ea)]
    return G, pis


def _oracle_ops(inp):
    ops = []
    for name in inp["suites"]:
        def run(name=name):
            v = _pm("verify")
            if name == "hilbert":
                ok, lines = v.verify_hilbert(**HILBERT_BOX)
            else:
                ok, lines = getattr(v, f"verify_{name}")()
            return {"ok": bool(ok), "lines": lines}

        ops.append(Op(f"verify {name}", run))

    def hom_dims():
        G, pis = _klein_coordinates(inp["klein"]["table"])
        out = []
        for q in inp["queries"]:
            coords = [pis[i] for i, m in enumerate(q["twist"]) for _ in range(m)]
            out.append(int(_pm("complexes").hom_dim(G, 2, coords, q["s"])))
        return out

    ops.append(Op("hom_dim Klein queries", hom_dims))
    return ops


def make_ops(workload, inp):
    return {
        "sections": _section_ops,
        "skeleton": _skeleton_ops,
        "glue": _glue_ops,
        "oracle": _oracle_ops,
    }[workload](inp)


# -- expected values that need the program's coordinate conventions ------------------


def expected(workload, inp):
    """Values computed once per run, before any timed round."""
    if workload == "skeleton":
        # a line ideal's label names a functional in the basis permspec
        # chooses for the group; its kernel is computed here over F_p
        g = inp["groups"]["C3^2"]
        ea = _pm("twisted").EAStructure(_group(g["table"]), 3)
        kernels = {}
        for label in LINE_LABELS:
            f = [int(ch) for ch in label]
            kernels[label] = sorted(
                x for x, v in ea.vec_of.items() if sum(a * b for a, b in zip(f, v)) % 3 == 0
            )
        return {"line_kernels": kernels}
    if workload == "oracle":
        tw = _pm("twisted")
        G, _ = _klein_coordinates(inp["klein"]["table"])
        pres = tw.present_Rtotal(G, 2)
        gr = _pm("gradedrings")
        return {
            "counts": [
                gr.count_standard_monomials(pres, q["s"], tuple(q["twist"]))
                for q in inp["queries"]
            ]
        }
    return {}
