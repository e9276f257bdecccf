"""Per-layer spans and counters, recorded from outside the library.

The layers are the modules of `cobalt`.  The tracer wraps public
functions of each layer module (and the few methods a metric names),
then rebinds every reference to the original in every `cobalt.*`
namespace, class and module-level list.  That matters because `cli`,
`verify` and `oriented` bind names such as `grassmannian`,
`lr_multiply` and `check_regular` with `from .x import y`; wrapping only
the defining module would leave those calls unseen.  Nothing inside
`cobalt` changes.

A span is one call of a wrapped function.  Spans are aggregated in
memory per (function, parent function) and dumped when the job ends.
A span's self time is its duration minus the time its wrapped children
took; code the tracer does not wrap counts toward the caller's self
time.  The tracer's own counter work is excluded from every span.
"""

import functools
import importlib
import statistics
import sys
import time

LAYERS = ("rings", "snf", "series", "fgl", "grassmann", "lr", "oriented",
          "landweber", "hopf", "tables", "verify", "cli")

# Metric groups.  A function named here is wrapped even if it is a
# method or private; every other public module-level function of a layer
# is wrapped too and counts toward that layer's self time and errors.
GROUPS = {
    "rings.mul": ["rings:Polynomial.__mul__"],
    "rings.map_to": ["rings:Polynomial.map_to"],
    "rings.monomials": ["rings:Ring.monomials_of_degree"],
    "rings.component": ["rings:graded_component"],
    "snf.smith": ["snf:smith_normal_form"],
    "snf.lattice": ["snf:kernel_basis", "snf:solve_int",
                    "snf:has_solution_p_local", "snf:lattice_contains",
                    "snf:lattices_equal", "snf:quotient_invariants",
                    "snf:quotient_is_zero", "snf:p_saturation",
                    "snf:preimage_lattice"],
    "snf.rational": ["snf:rational_rank", "snf:rational_in_span",
                     "snf:rational_spans_equal"],
    "series.compose": ["series:TruncSeries.compose"],
    "series.revert": ["series:TruncSeries.revert"],
    "series.invert": ["series:TruncSeries.invert"],
    "fgl.axioms": ["fgl:fgl_check_axioms"],
    "fgl.pseries": ["fgl:p_series", "fgl:landweber_generators"],
    "fgl.law": ["fgl:fgl_additive", "fgl:fgl_multiplicative",
                "fgl:fgl_universal_rational", "fgl:fgl_from_log",
                "fgl:universal_log"],
    "grassmann.ring": ["grassmann:GrassRing.__init__"],
    "grassmann.reduce": ["grassmann:GrassRing.reduce"],
    "grassmann.schur": ["grassmann:schur_polynomial"],
    "lr.coefficient": ["lr:lr_coefficient"],
    "landweber.check": ["landweber:check_regular"],
    "hopf.build": ["hopf:mumu_rational_truncated", "hopf:induced_hopf"],
    "hopf.axioms": ["hopf:verify_hopf_axioms"],
    "hopf.collapse": ["hopf:InducedHopf.collapse_identifies_units"],
    "hopf.poincare": ["hopf:cooperations_poincare"],
    "cli.main": ["cli:main"],
}

# Functions each workload must reach.  A wrapped function that records
# no call where it is expected fails the run, so a rename or a missed
# rebinding shows up as an error and never as a zero.
EXPECTED = {
    "schur": ["cli:main", "grassmann:GrassRing.__init__",
              "grassmann:GrassRing.reduce", "grassmann:schur_polynomial",
              "grassmann:grassmannian", "grassmann:complex_report",
              "grassmann:gram_report", "lr:lr_coefficient", "lr:lr_multiply",
              "oriented:thom_class", "oriented:zero_section_report",
              "rings:Polynomial.__mul__", "rings:Ring.monomials_of_degree",
              "snf:smith_normal_form", "snf:solve_int",
              "snf:lattices_equal", "series:TruncSeries.invert"],
    "formal": ["cli:main", "fgl:fgl_universal_rational",
               "fgl:fgl_check_axioms", "fgl:p_series",
               "fgl:landweber_generators",
               "series:TruncSeries.compose", "series:TruncSeries.revert",
               "hopf:mumu_rational_truncated", "hopf:verify_hopf_axioms",
               "rings:Polynomial.__mul__", "rings:Polynomial.map_to"],
    "verdicts": ["cli:main", "rings:graded_component",
                 "rings:Ring.monomials_of_degree", "snf:smith_normal_form",
                 "snf:rational_rank", "snf:rational_in_span",
                 "snf:lattice_contains", "landweber:check_regular",
                 "landweber:sequence_for_prime", "hopf:induced_hopf",
                 "hopf:InducedHopf.collapse_identifies_units",
                 "hopf:cooperations_poincare", "hopf:verify_hopf_axioms",
                 "tables:partition_count", "fgl:fgl_check_axioms",
                 "lr:lr_multiply", "oriented:zero_section_report",
                 "verify:check_grassmann_ranks",
                 "verify:check_restriction_complex",
                 "verify:check_determinant_identities",
                 "verify:check_structure_constants",
                 "verify:check_gram_matrices", "verify:check_fgl_axioms",
                 "verify:check_landweber_suite", "verify:check_zero_section",
                 "verify:check_hopf_algebroid",
                 "verify:check_cobordism_tables"],
}


def _bits(matrix):
    return max((abs(x).bit_length() for row in matrix for x in row),
               default=0)


def _mul_pairs(tracer, args, result):
    a, b = args[0], args[1]
    tracer.counters["rings.mul.term_pairs"] += \
        len(a.terms) * len(getattr(b, "terms", (b,)))


def _monomials_seen(tracer, args, result):
    ring, degree, bound = args[0], args[1], args[2]
    tracer.keep[id(ring)] = ring       # ids stay unique while rings live
    tracer.distinct["rings.monomials"].add((id(ring), degree, bound))


def _smith_seen(tracer, args, result):
    matrix = args[0]
    tracer.counters["snf.smith.cells"] += \
        len(matrix) * (len(matrix[0]) if matrix else 0)
    tracer.distinct["snf.smith"].add(tuple(map(tuple, matrix)))
    bits = max(_bits(result.u), _bits(result.v))
    counters = tracer.counters
    counters["snf.smith.max_transform_bits"] = \
        max(counters["snf.smith.max_transform_bits"], bits)


def _rational_cells(tracer, args, result):
    matrix = args[0]
    tracer.counters["snf.rational.cells"] += \
        len(matrix) * (len(matrix[0]) if matrix else 0)


def _stages_seen(tracer, args, result):
    tracer.counters["landweber.stages"] += len(result.stages)
    tracer.counters["landweber.inconclusive"] += sum(
        stage.status == "window_inconclusive" for stage in result.stages)


PROBES = {
    "rings:Polynomial.__mul__": _mul_pairs,
    "rings:Ring.monomials_of_degree": _monomials_seen,
    "snf:smith_normal_form": _smith_seen,
    "snf:rational_rank": _rational_cells,
    "landweber:check_regular": _stages_seen,
}
COUNTERS = ("rings.mul.term_pairs", "snf.smith.cells",
            "snf.smith.max_transform_bits", "snf.rational.cells",
            "landweber.stages", "landweber.inconclusive")
MAX_COUNTERS = ("snf.smith.max_transform_bits",)


class Tracer:
    """Wraps the layer functions of an imported `cobalt` package."""

    def __init__(self):
        self.stack = []
        self.spans = {}          # (key, parent key) -> [calls, total, child]
        self.counters = {}
        self.distinct = {"rings.monomials": set(), "snf.smith": set()}
        self.keep = {}
        self.errors = {}
        self.excluded = [0.0]    # tracer time inside spans, subtracted
        self.missing = []        # names that could not be resolved
        self.group_of = {}       # key -> group
        self.layer_of = {}       # key -> layer
        self.reset()

    def reset(self):
        """Forget everything recorded; called at the start of each job."""
        self.stack.clear()
        self.spans.clear()
        self.counters.update(dict.fromkeys(COUNTERS, 0))
        for seen in self.distinct.values():
            seen.clear()
        self.keep.clear()
        self.errors.update(dict.fromkeys(LAYERS, 0))
        self.excluded[0] = 0.0

    def dump(self):
        return {"spans": [[key, parent, *rec]
                          for (key, parent), rec in self.spans.items()],
                "counters": dict(self.counters),
                "distinct": {name: len(seen)
                             for name, seen in self.distinct.items()},
                "errors": dict(self.errors)}

    # -- installing ------------------------------------------------------

    def install(self):
        """Wrap every traced function and rebind all references to it."""
        from cobalt.errors import CobaltError
        modules = {layer: importlib.import_module(f"cobalt.{layer}")
                   for layer in LAYERS}
        targets = {}                        # key -> (owner, attribute)
        for group, keys in GROUPS.items():
            for key in keys:
                self.group_of[key] = group
        for key in self.group_of:
            layer, _, path = key.partition(":")
            owner = modules[layer]
            *outer, name = path.split(".")
            for part in outer:
                owner = vars(owner).get(part)
            if owner is None or name not in vars(owner):
                self.missing.append(key)
                continue
            targets[key] = (owner, name)
        for layer, module in modules.items():
            for name, value in vars(module).items():
                if name.startswith("_") or isinstance(value, type) \
                        or not callable(value) \
                        or getattr(value, "__module__", None) != module.__name__:
                    continue
                key = f"{layer}:{name}"
                targets.setdefault(key, (module, name))
                self.group_of.setdefault(key, layer)
        for check in modules["verify"].ALL_CHECKS:
            key = f"verify:{check.__name__}"
            name = check.__name__.removeprefix("check_")
            self.group_of[key] = f"verify.{name}"

        swap = {}                           # id(original) -> (original, wrapper)
        for key, (owner, name) in targets.items():
            original = vars(owner)[name]
            self.layer_of[key] = key.partition(":")[0]
            wrapper = self._wrap(key, original, PROBES.get(key), CobaltError)
            swap[id(original)] = (original, wrapper)
        for module in [m for n, m in sys.modules.items()
                       if n == "cobalt" or n.startswith("cobalt.")]:
            _rebind(module, swap)
            for value in list(vars(module).values()):
                if isinstance(value, type) \
                        and value.__module__.startswith("cobalt"):
                    _rebind(value, swap)

    def _wrap(self, key, fn, probe, error_type):
        stack, spans, excluded = self.stack, self.spans, self.excluded
        layer_of, errors = self.layer_of, self.errors
        layer = layer_of[key]
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [key, 0.0]
            stack.append(frame)
            skip = excluded[0]
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if probe is not None:
                    t = clock()
                    probe(tracer, args, result)
                    excluded[0] += clock() - t
                return result
            except error_type:
                if parent is None or layer_of[parent[0]] != layer:
                    errors[layer] += 1
                raise
            finally:
                end = clock()
                elapsed = end - start - (excluded[0] - skip)
                stack.pop()
                pkey = None
                if parent is not None:
                    parent[1] += elapsed
                    pkey = parent[0]
                rec = spans.get((key, pkey))
                if rec is None:
                    rec = spans[(key, pkey)] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += elapsed
                rec[2] += frame[1]
                excluded[0] += clock() - end

        return traced


def _rebind(namespace, swap):
    for name, value in list(vars(namespace).items()):
        hit = swap.get(id(value))
        if hit is not None and hit[0] is value:
            setattr(namespace, name, hit[1])
        elif isinstance(value, list):
            for i, item in enumerate(value):
                hit = swap.get(id(item))
                if hit is not None and hit[0] is item:
                    value[i] = hit[1]


# -- aggregation -----------------------------------------------------------


class PassTrace:
    """The sum of the dumps of every job in one traced pass."""

    def __init__(self):
        self.spans = {}
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.distinct = {}
        self.errors = dict.fromkeys(LAYERS, 0)

    def add(self, dump):
        for key, parent, calls, total, child in dump["spans"]:
            rec = self.spans.setdefault((key, parent), [0, 0.0, 0.0])
            rec[0] += calls
            rec[1] += total
            rec[2] += child
        for name, value in dump["counters"].items():
            if name in MAX_COUNTERS:
                self.counters[name] = max(self.counters[name], value)
            else:
                self.counters[name] += value
        for name, value in dump["distinct"].items():
            self.distinct[name] = self.distinct.get(name, 0) + value
        for layer, value in dump["errors"].items():
            self.errors[layer] += value

    def calls(self, key):
        return sum(rec[0] for (k, _), rec in self.spans.items() if k == key)

    def span_rows(self):
        return [{"function": key, "parent": parent, "calls": rec[0],
                 "total_s": rec[1], "self_s": rec[1] - rec[2]}
                for (key, parent), rec in sorted(
                    self.spans.items(), key=lambda item: (item[0][0],
                                                          str(item[0][1])))]


def _calls(name):
    return (name, "count")


def _secs(name):
    return (name, "s")


# The per-layer metrics, in BENCHMARK.json order, with their units.
PER_LAYER = [
    _calls("rings.mul.calls"), _calls("rings.mul.term_pairs"),
    _secs("rings.mul.self_s"), _calls("rings.map_to.calls"),
    _secs("rings.map_to.self_s"), _calls("rings.monomials.calls"),
    ("rings.monomials.distinct_ratio", "ratio"),
    _secs("rings.monomials.self_s"), _calls("rings.component.calls"),
    _secs("rings.component.self_s"), _secs("rings.self_s"),
    _calls("snf.smith.calls"), ("snf.smith.distinct_ratio", "ratio"),
    _calls("snf.smith.cells"), ("snf.smith.max_transform_bits", "bits"),
    _secs("snf.smith.self_s"), _calls("snf.lattice.calls"),
    _secs("snf.lattice.self_s"), _calls("snf.rational.calls"),
    _calls("snf.rational.cells"), _secs("snf.rational.self_s"),
    _secs("snf.self_s"),
    _calls("series.compose.calls"), _calls("series.revert.calls"),
    _calls("series.invert.calls"), _secs("series.self_s"),
    _calls("fgl.axioms.calls"), _secs("fgl.axioms.self_s"),
    _secs("fgl.pseries.self_s"), _secs("fgl.law.self_s"),
    _secs("fgl.self_s"),
    _calls("grassmann.ring.calls"), _secs("grassmann.ring.self_s"),
    _calls("grassmann.reduce.calls"), _secs("grassmann.reduce.self_s"),
    _calls("grassmann.schur.calls"), _secs("grassmann.schur.self_s"),
    _secs("grassmann.self_s"),
    _calls("lr.coefficient.calls"), _secs("lr.self_s"),
    _secs("oriented.self_s"),
    _calls("landweber.check.calls"), _calls("landweber.stages"),
    _calls("landweber.inconclusive"), _secs("landweber.self_s"),
    _secs("hopf.build.self_s"), _secs("hopf.axioms.self_s"),
    _secs("hopf.collapse.self_s"), _secs("hopf.poincare.self_s"),
    _secs("hopf.self_s"),
    _secs("tables.self_s"),
    *[_secs(f"verify.{name}.s") for name in (
        "grassmann_ranks", "restriction_complex", "determinant_identities",
        "structure_constants", "gram_matrices", "fgl_axioms",
        "landweber_suite", "zero_section", "hopf_algebroid",
        "cobordism_tables")],
    _secs("cli.self_s"),
    *[_calls(f"{layer}.errors") for layer in LAYERS],
    ("trace.overhead", "ratio"),
]


def layer_metrics(passes, group_of):
    """Every metric the traced passes of one job list can give.

    Counts come from the first pass; times are medians over passes.
    """
    first = passes[0]

    def median_over_passes(fn):
        return statistics.median(fn(p) for p in passes)

    def in_group(group):
        return lambda key: group_of.get(key) == group

    def in_layer(layer):
        return lambda key: key.partition(":")[0] == layer

    def self_s(pred):
        return median_over_passes(lambda p: sum(
            rec[1] - rec[2] for (key, _), rec in p.spans.items() if pred(key)))

    out = {}
    for group in set(group_of.values()):
        out[f"{group}.calls"] = sum(rec[0] for (key, _), rec
                                    in first.spans.items() if group_of[key] == group)
        out[f"{group}.self_s"] = self_s(in_group(group))
        out[f"{group}.s"] = median_over_passes(lambda p, g=group: sum(
            rec[1] for (key, _), rec in p.spans.items()
            if group_of[key] == g))
    for layer in LAYERS:
        out[f"{layer}.self_s"] = self_s(in_layer(layer))
        out[f"{layer}.errors"] = first.errors[layer]
    out.update(first.counters)
    for name in ("rings.monomials", "snf.smith"):
        calls = out[f"{name}.calls"]
        out[f"{name}.distinct_ratio"] = \
            first.distinct.get(name, 0) / calls if calls else 0.0
    return out
