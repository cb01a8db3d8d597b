"""Command-line front end: group ingestion, reports, and verification suites.

Groups are addressed by short specs (cyclic:8, dihedral:8, quaternion,
ea:p:r, klein, or a JSON group spec); subgroups by the keywords trivial/full
or a comma-separated list of element names.  Output ordering is deterministic
so repeated runs are byte-identical.

Exit codes: 0 ok, 2 parse error, 3 resource limit, 4 verification failure
(a failed verify suite, or a rational-level glue that transports a point
outside the named points; --level strata glues such groups).
"""

import argparse
import json
import sys

from .groups import (
    GroupError,
    ResourceError,
    group_from_spec,
    is_prime,
    DEFAULT_ORDER_CAP,
    PRIME_BOUND,
)
from .sections import SectionCategory
from .spectra import (
    DEFAULT_RANK_CAP,
    GlueError,
    components,
    dimension,
    fold,
    glue,
    p_rank,
    skeleton,
)
from .twisted import present_Rloc
from .verify import SUITES

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_RESOURCE = 3
EXIT_VERIFY = 4


class CliParseError(ValueError):
    pass


# shorthand -> (its JSON spec, the fields its colon-separated parameters fill)
_SHORTHANDS = {
    "cyclic": ({"kind": "cyclic"}, ["n"]),
    "dihedral": ({"kind": "dihedral"}, ["order"]),
    "quaternion": ({"kind": "quaternion"}, []),
    "ea": ({"kind": "elementary_abelian"}, ["p", "rank"]),
    "elementary_abelian": ({"kind": "elementary_abelian"}, ["p", "rank"]),
    "klein": ({"kind": "elementary_abelian", "p": 2, "rank": 2}, []),
}


def parse_group(text, cap=DEFAULT_ORDER_CAP):
    if text is None:
        raise CliParseError("missing --group")
    text = text.strip()
    if text.startswith("{"):
        return group_from_spec(text, cap=cap)
    kind, *params = text.split(":")
    spec, fields = _SHORTHANDS.get(kind.lower(), (None, ()))
    if spec is None or len(params) != len(fields):
        raise CliParseError(
            f"cannot parse group spec {text!r} "
            "(try cyclic:n, dihedral:order, quaternion, ea:p:r, klein, or JSON)"
        )
    return group_from_spec({**spec, **dict(zip(fields, params))}, cap=cap)


def parse_subgroup(G, text):
    if text is None or text.strip().lower() == "trivial":
        return G.trivial_subgroup()
    text = text.strip()
    if text.lower() == "full":
        return G.full_subgroup()
    # element names may contain commas (product groups), so ';' is the list
    # separator; a lone name may be given as-is
    if ";" in text:
        names = [t.strip() for t in text.split(";") if t.strip()]
    else:
        all_names = {G.name_of(x) for x in range(G.order)}
        names = [text] if text in all_names else [
            t.strip() for t in text.split(",") if t.strip()
        ]
    elems = []
    for nm in names:
        hits = [x for x in range(G.order) if G.name_of(x) == nm]
        if len(hits) != 1:
            listing = ", ".join(G.name_of(x) for x in range(G.order))
            raise CliParseError(
                f"subgroup element {nm!r} is {'ambiguous' if hits else 'unknown'}; "
                f"available names: {listing}"
            )
        elems.append(hits[0])
    return G.generated_subgroup(elems)


def _emit_section(G, x):
    def names(S):
        return ",".join(G.name_of(e) for e in S.elements)

    print(f"  (|H|={x.H.order}, |K|={x.K.order}, rank {x.rank()}) "
          f"H={{{names(x.H)}}} K={{{names(x.K)}}}")


def _emit_skeleton(skel, fmt):
    if fmt == "json":
        print(json.dumps(skel.to_json(), sort_keys=True, indent=2))
    elif fmt == "dot":
        print(skel.to_dot())
    else:
        print(f"{len(skel.points)} points, {len(skel.edges())} covering edges")
        for i, pt in enumerate(skel.points):
            print(f"  [{i}] {pt.kind:15s} {pt.label}")
        for a, b in skel.edges():
            print(f"  {skel.points[a].label} -> {skel.points[b].label}")


def run(argv=None):
    ap = argparse.ArgumentParser(
        prog="permspec",
        description="Finite skeletons of spectra of permutation-module complexes.",
    )
    ap.add_argument("command", choices=[
        "sections", "maxel", "relations", "ring", "skeleton", "glue",
        "components", "dim", "fold", "verify",
    ])
    ap.add_argument("suite", nargs="?", default=None,
                    help="verify suite: units, master, functors or hilbert")
    ap.add_argument("--group", default=None)
    ap.add_argument("--prime", type=int, default=2)
    ap.add_argument("--subgroup", default=None)
    ap.add_argument("--level", choices=["strata", "rational"], default="rational")
    ap.add_argument("--format", choices=["text", "json", "dot"], default="text")
    ap.add_argument("--cap-order", type=int, default=DEFAULT_ORDER_CAP)
    ap.add_argument("--cap-rank", type=int, default=DEFAULT_RANK_CAP)
    ap.add_argument("--matrix", default=None,
                    help="fold automorphism, rows comma-separated (e.g. 01,10)")
    args = ap.parse_args(argv)

    p = args.prime
    if p >= PRIME_BOUND:
        raise CliParseError(f"--prime {p} is too large: primes must be below 2^31")
    if not is_prime(p):
        raise CliParseError(f"--prime {p} is not prime")
    if args.cap_order <= 0 or args.cap_rank <= 0:
        raise CliParseError("caps must be positive")

    if args.command == "verify":
        if args.suite not in SUITES:
            raise CliParseError(
                f"unknown verify suite {args.suite!r}; pick one of "
                + ", ".join(sorted(SUITES))
            )
        ok, lines = SUITES[args.suite]()
        for line in lines:
            print(line)
        print(f"verify {args.suite}: {'PASS' if ok else 'FAIL'}")
        return EXIT_OK if ok else EXIT_VERIFY

    G = parse_group(args.group, cap=args.cap_order)

    if args.command == "sections":
        cat = SectionCategory(G, p, args.cap_order)
        objs = cat.objects()
        print(f"{len(objs)} sections")
        for x in objs:
            _emit_section(G, x)
        return EXIT_OK

    if args.command == "maxel":
        cat = SectionCategory(G, p, args.cap_order)
        reps = cat.maxel()
        print(f"{len(reps)} maximal section classes")
        for x in reps:
            _emit_section(G, x)
        return EXIT_OK

    if args.command == "relations":
        cat = SectionCategory(G, p, args.cap_order)
        rels = cat.maximal_relations()
        print(f"{len(rels)} maximal relations")
        for r in rels:
            print(f"  apex (|H|={r.apex.H.order},|K|={r.apex.K.order}) "
                  f"-[{r.f1.g}]-> (|H|={r.f1.target.H.order},|K|={r.f1.target.K.order}) ; "
                  f"-[{r.f2.g}]-> (|H|={r.f2.target.H.order},|K|={r.f2.target.K.order})")
        return EXIT_OK

    if args.command == "ring":
        H = parse_subgroup(G, args.subgroup)
        spec = present_Rloc(G, H, p)
        pres = spec.presentation
        if args.format == "json":
            print(json.dumps({
                "variables": [[v, d] for v, d in zip(pres.varnames, pres.degrees)],
                "relations": sorted(pres.format(dict(r)) for r in pres.relations),
            }, sort_keys=True, indent=2))
        else:
            print("generators:")
            for v, d in zip(pres.varnames, pres.degrees):
                print(f"  {v} (degree {d:+d})")
            print("relations:")
            for r in sorted(pres.format(dict(r)) for r in pres.relations):
                print(f"  {r} = 0")
        return EXIT_OK

    if args.command == "skeleton":
        skel = skeleton(G, p, level=args.level, cap_rank=args.cap_rank)
        _emit_skeleton(skel, args.format)
        return EXIT_OK

    if args.command == "glue":
        skel = glue(G, p, level=args.level, cap_rank=args.cap_rank,
                    cap_order=args.cap_order)
        _emit_skeleton(skel, args.format)
        return EXIT_OK

    if args.command == "components":
        comps = components(G, p, cap_rank=args.cap_rank, cap_order=args.cap_order)
        print(f"{len(comps)} irreducible components")
        for sec, cls in comps:
            print(f"  section (|H|={sec.H.order},|K|={sec.K.order}) "
                  f"generic point class {cls}")
        return EXIT_OK

    if args.command == "dim":
        d = dimension(G, p, cap_rank=args.cap_rank, cap_order=args.cap_order)
        print(f"dimension {d}")
        print(f"p-rank {p_rank(G, p, args.cap_order)}")
        return EXIT_OK

    if args.command == "fold":
        if args.matrix is None:
            raise CliParseError("fold needs --matrix (rows comma-separated)")
        try:
            mat = [[int(c) for c in row] for row in args.matrix.split(",")]
        except ValueError:
            raise CliParseError(f"bad --matrix {args.matrix!r}")
        skel = skeleton(G, p, level=args.level, cap_rank=args.cap_rank)
        folded = fold(skel, mat)
        _emit_skeleton(folded, args.format)
        return EXIT_OK

    raise AssertionError(f"unhandled command {args.command}")


def main(argv=None):
    try:
        return run(argv)
    except (CliParseError, GroupError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_PARSE
    except ResourceError as e:
        print(f"resource limit: {e}", file=sys.stderr)
        return EXIT_RESOURCE
    except GlueError as e:
        print(f"error: {e}; the rational skeleton does not name every "
              "transported point here, try --level strata", file=sys.stderr)
        return EXIT_VERIFY


if __name__ == "__main__":
    sys.exit(main())
