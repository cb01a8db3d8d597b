"""Per-layer tracing from outside the program.

`install()` wraps permspec's layer entry points from here: every function or
method listed in ENTRY_POINTS records a span (name, start, end, parent,
operation id), and the hottest leaves in COUNTED are only counted, so their
time falls to the self time of whichever layer calls them.  Wrapping a
module attribute alone would miss callers that hold their own binding from
`from .x import y` (for example `permspec.spectra.subgroups` or
`permspec.cli.glue`), so every binding of the original function in every
permspec module, including values of module-level dicts, is replaced too.

Spans are kept in memory in flat arrays and written out when the run ends.
Entry points a later version of permspec no longer has are skipped; their
metrics then read 0.
"""

import array
import functools
import gzip
import importlib
import statistics
import sys
import time

# layer -> entry points ("func" or "Class.method"; "Class.__init__" spans are
# named after the class).  Private helpers are left out: their time counts
# toward the entry point that calls them.
ENTRY_POINTS = {
    "groups": [
        "group_from_spec", "FiniteGroup.__init__", "FiniteGroup.generated_subgroup",
        "subgroups", "p_subgroups", "index_p_normals", "normalizer", "centralizer",
        "center", "subgroup_as_group", "quotient", "weyl", "frattini",
        "is_elementary_abelian", "conjugating_elements", "is_isomorphic",
        "Subgroup.is_normal", "Subgroup.conjugate", "Subgroup.intersection",
        "Subgroup.join", "cyclic", "dihedral", "quaternion", "product",
        "elementary_abelian", "from_permutations",
    ],
    "sections": [
        "SectionCategory.objects", "SectionCategory.homs", "SectionCategory.has_hom",
        "SectionCategory.maxel", "SectionCategory.maximal_relations",
        "SectionCategory.factorize", "SectionObject.__init__",
    ],
    "gradedrings": [
        "buchberger", "s_polynomial", "normal_form", "GradedPresentation.groebner_of",
        "GradedPresentation.__init__", "contract", "eliminate", "intersect",
        "quotient_by", "saturate", "count_standard_monomials", "parse_poly",
        "GradedRingHom.apply_ideal",
    ],
    "twisted": [
        "local_ring", "EAStructure.__init__", "coordinates", "present_Rtotal",
        "psi_hom", "res_hom", "glue_iso", "closure_ideal",
    ],
    "spectra": [
        "skeleton", "glue", "components", "dimension", "p_rank", "fold",
        "stratum_data", "transport_point", "skeleton_map", "SectionPlatform.__init__",
        "SpectrumSkeleton.__init__", "SpectrumSkeleton.edges",
        "SpectrumSkeleton.height", "SpectrumSkeleton.to_json",
        "frattini_cover_check",
    ],
    "complexes": [
        "is_null_homotopic", "verify_homotopy", "is_contractible", "hom_dim",
        "build_u", "PermComplex.__init__", "PermComplex.tensor", "cone",
        "coevaluation", "master_relation_map", "master_relation_witness",
        "psi_complex", "psi_map", "res_complex", "res_map", "equivariant_map_basis",
    ],
    "modp": ["rref", "rank", "nullspace", "solve", "matmul"],
    "verify": ["verify_units", "verify_master", "verify_functors", "verify_hilbert"],
    "cli": ["main", "parse_group", "parse_subgroup"],
}

COUNTED = {
    "groups": ["FiniteGroup.mul", "FiniteGroup.conj"],
    "gradedrings": ["leading"],
    "sections": ["morphism_condition"],
}

# (parent span, child span) -> metric counting parents with such a child
MISSES = {
    ("gradedrings.groebner_of", "gradedrings.buchberger"): "gradedrings.groebner_of.miss",
    ("twisted.closure_ideal", "gradedrings.contract"): "twisted.closure_ideal.miss",
    ("twisted.local_ring", "twisted.EAStructure"): "twisted.local_ring.miss",
}

PER_LAYER = [
    ("groups.subgroups.calls", "count"), ("groups.subgroups.s", "s"),
    ("groups.generated_subgroup.calls", "count"), ("groups.mul.calls", "count"),
    ("groups.conj.calls", "count"), ("groups.self_s", "s"),
    ("sections.objects.s", "s"), ("sections.maxel.calls", "count"),
    ("sections.maxel.s", "s"), ("sections.maximal_relations.s", "s"),
    ("sections.homs.calls", "count"), ("sections.morphism_condition.calls", "count"),
    ("sections.self_s", "s"),
    ("gradedrings.buchberger.calls", "count"), ("gradedrings.buchberger.s", "s"),
    ("gradedrings.s_polynomial.calls", "count"), ("gradedrings.normal_form.calls", "count"),
    ("gradedrings.normal_form.zero", "count"), ("gradedrings.leading.calls", "count"),
    ("gradedrings.groebner_of.calls", "count"), ("gradedrings.groebner_of.miss", "count"),
    ("gradedrings.contract.s", "s"), ("gradedrings.self_s", "s"),
    ("twisted.local_ring.calls", "count"), ("twisted.local_ring.miss", "count"),
    ("twisted.closure_ideal.calls", "count"), ("twisted.closure_ideal.miss", "count"),
    ("twisted.closure_ideal.s", "s"), ("twisted.self_s", "s"),
    ("spectra.skeleton.s", "s"), ("spectra.glue.s", "s"),
    ("spectra.transport_point.calls", "count"), ("spectra.SpectrumSkeleton.s", "s"),
    ("spectra.edges.s", "s"), ("spectra.self_s", "s"),
    ("complexes.is_null_homotopic.calls", "count"), ("complexes.is_null_homotopic.s", "s"),
    ("complexes.hom_dim.calls", "count"), ("complexes.hom_dim.s", "s"),
    ("complexes.self_s", "s"), ("modp.rref.calls", "count"), ("modp.self_s", "s"),
    ("verify.self_s", "s"), ("cli.self_s", "s"),
]


def _span_name(layer, path):
    cls, _, meth = path.rpartition(".")
    if meth == "__init__":
        return f"{layer}.{cls}"
    return f"{layer}.{meth}"


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.op = -1
        # one entry per span, in order of opening
        self.name_of = array.array("i")
        self.parent = array.array("i")
        self.op_of = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self.child = array.array("d")  # time covered by direct children
        self.nested = array.array("b")  # same name already open above it
        self.stack = []
        self.open_by_name = []
        self.counts = []
        self.zero = []

    def intern(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.open_by_name.append(0)
            self.counts.append(0)
            self.zero.append(0)
        return self._ids[name]

    def spanned(self, nid, fn, zero_when_empty=False):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.start)
            self.name_of.append(nid)
            self.parent.append(self.stack[-1] if self.stack else -1)
            self.op_of.append(self.op)
            self.nested.append(self.open_by_name[nid] > 0)
            self.child.append(0.0)
            self.end.append(0.0)
            self.counts[nid] += 1
            self.open_by_name[nid] += 1
            self.stack.append(idx)
            self.start.append(time.perf_counter())
            try:
                out = fn(*args, **kwargs)
            finally:
                t = time.perf_counter()
                self.end[idx] = t
                self.stack.pop()
                self.open_by_name[nid] -= 1
                if self.stack:
                    self.child[self.stack[-1]] += t - self.start[idx]
            if zero_when_empty and not out:
                self.zero[nid] += 1
            return out

        return wrapper

    def counted(self, nid, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[nid] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- per-round aggregation --------------------------------------------------------

    def round_metrics(self, first_span):
        """Metrics over spans opened since `first_span`, plus the counters,
        which are then reset for the next round."""
        ids = self._ids
        incl = [0.0] * len(self.names)
        layer_self = {}
        miss_parents = {m: set() for m in MISSES.values()}
        miss_pairs = {
            (ids.get(a, -1), ids.get(b, -1)): m for (a, b), m in MISSES.items()
        }
        layer_of = [n.split(".", 1)[0] for n in self.names]
        for i in range(first_span, len(self.start)):
            nid = self.name_of[i]
            dur = self.end[i] - self.start[i]
            if not self.nested[i]:
                incl[nid] += dur
            lay = layer_of[nid]
            layer_self[lay] = layer_self.get(lay, 0.0) + dur - self.child[i]
            par = self.parent[i]
            if par >= first_span:
                m = miss_pairs.get((self.name_of[par], nid))
                if m:
                    miss_parents[m].add(par)
        out = {}
        for metric, _unit in PER_LAYER:
            base, _, kind = metric.rpartition(".")
            if kind == "self_s":
                out[metric] = layer_self.get(base, 0.0)
                continue
            nid = ids.get(base)
            if kind == "calls":
                out[metric] = self.counts[nid] if nid is not None else 0
            elif kind == "s":
                out[metric] = incl[nid] if nid is not None else 0.0
            elif kind == "zero":
                out[metric] = self.zero[nid] if nid is not None else 0
            elif kind == "miss":
                out[metric] = len(miss_parents[metric])
        for k in range(len(self.counts)):
            self.counts[k] = 0
            self.zero[k] = 0
        return out

    def write(self, path):
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("name\tstart\tend\tparent\top\n")
            for i in range(len(self.start)):
                fh.write(
                    f"{self.names[self.name_of[i]]}\t{self.start[i]:.9f}\t"
                    f"{self.end[i]:.9f}\t{self.parent[i]}\t{self.op_of[i]}\n"
                )


def _resolve(module, path):
    owner = module
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            return None, None
    return owner, parts[-1]


def _rebind(original, wrapper):
    """Point every permspec binding of `original` at `wrapper`."""
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == "permspec" or modname.startswith("permspec.")):
            continue
        for attr, val in list(vars(mod).items()):
            if val is original:
                setattr(mod, attr, wrapper)
            elif isinstance(val, dict):
                for k, v in list(val.items()):
                    if v is original:
                        val[k] = wrapper


def install():
    """Wrap every entry point; returns the Tracer that records them."""
    tracer = Tracer()
    for table, spanned in ((ENTRY_POINTS, True), (COUNTED, False)):
        for layer, paths in table.items():
            module = importlib.import_module(f"permspec.{layer}")
            for path in paths:
                owner, attr = _resolve(module, path)
                fn = getattr(owner, attr, None) if owner is not None else None
                if not callable(fn):
                    continue
                nid = tracer.intern(_span_name(layer, path))
                if spanned:
                    wrapped = tracer.spanned(nid, fn, zero_when_empty=(path == "normal_form"))
                else:
                    wrapped = tracer.counted(nid, fn)
                setattr(owner, attr, wrapped)
                if owner is module:
                    _rebind(fn, wrapped)
    return tracer


def median_metrics(rounds):
    """Median over rounds of each metric; counts stay whole numbers."""
    out = {}
    for metric, unit in PER_LAYER:
        vals = [r[metric] for r in rounds]
        out[metric] = statistics.median_low(vals) if unit == "count" else statistics.median(vals)
    return out
