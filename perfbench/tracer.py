"""Per-layer tracing of hallforge from outside the library.

The tracer replaces the public functions and methods of each layer module
with wrappers that record a span (name, start, end, parent) while tracing is
active.  A span's self time (its duration minus the time covered by its child
spans) is charged to its layer, so helpers that are not wrapped count toward
the layer that called them.  Every `from .x import y` alias in the package is
rebound to the wrapper as well, so a call through `cohm.shuffle_mul` or
`finite_type.schur` is seen like a call through the defining module.

Hot helpers that run millions of times per pass (packed-monomial arithmetic,
Poly addition and scaling, sign helpers) are not wrapped: a wrapper there
would cost more than the work it measures.
"""

from __future__ import annotations

import importlib
import inspect
import json
from time import perf_counter

LAYERS = ("poly", "symfun", "coha", "cohm", "linalg", "series", "finite_type", "quiver", "cli")

# Module-level functions left unwrapped: per-term or per-coefficient helpers.
HOT_HELPERS = {
    "poly": {"pack_exponents", "unpack_exponents", "key_degree", "qdiv", "normalize_factor"},
    "series": {"sign_pow", "laurent_shift", "laurent_mul"},
    "symfun": {"block_offsets", "sign_vectors", "count_sigma_shuffles", "partitions"},
}

# Methods wrapped, per (module, class).  Everything else on these classes is
# either a hot helper (Poly.__add__, Poly.scale, Poly.mul_linear at about
# 100 000 calls a pass, QSeries.__add__) or cheap.
METHODS = {
    ("poly", "Poly"): ("__mul__", "divexact_linear", "divexact_mono", "homogeneous_components", "map_variables"),
    ("linalg", "Echelon"): ("add", "reduce"),
    ("series", "QSeries"): ("_convolve", "inverse", "log", "power", "agrees_with"),
    ("quiver", "QuiverWithDuality"): ("__init__",),
    ("coha", "CohaElement"): ("from_json_dict", "to_json_dict"),
    ("cohm", "CohmElement"): ("from_json_dict", "to_json_dict"),
}

# The JSON boundary belongs to the cli layer wherever it is defined.
CLI_METHODS = {"from_json_dict", "to_json_dict"}


# Spans kept for the trace file; later spans are counted but not kept.
MAX_SPANS = 100_000


class Tracer:
    """Spans and counters for one traced run."""

    def __init__(self):
        self.active = False
        self.spans = []
        self.dropped = 0
        self.stack = []
        self.self_time = dict.fromkeys(LAYERS, 0.0)
        self.time = {}
        self.count = {}
        self.installed = []
        self.pre_probes, self.probes = self._probes()

    # -- accounting -------------------------------------------------------------

    def add(self, key, value):
        self.count[key] = self.count.get(key, 0) + value

    def _sample_cache(self, quiver):
        size = len(getattr(quiver, "_cache", ()))
        if size > self.count.get("quiver.cache_entries_max", 0):
            self.count["quiver.cache_entries_max"] = size

    def _probes(self):
        """(pre_probes, probes).  A pre-probe(args) runs before the call and
        its value is passed to the probe; probe(args, result, pre) bumps
        counters and returns the key its inclusive time is added to (None
        for no key)."""
        add = self.add

        def fixed(key, *counters):
            def probe(args, result, pre):
                for c in counters:
                    add(c, 1)
                return key

            return probe

        def term_pairs(calls, pairs, key):
            def probe(args, result, pre):
                add(calls, 1)
                other = getattr(args[1], "terms", (None,))  # a scalar factor scales
                add(pairs, len(args[0].terms) * len(other))
                return key

            return probe

        def divexact(args, result, pre):
            add("poly.divexact_calls", 1)
            add("poly.divexact_terms", len(args[0].terms))
            return "poly.divexact"

        def product(layer, kernel, degree_of, calls, cold, warm):
            """A shuffle product is cold when the call adds its kernel to the
            quiver's cache, where hallforge keys it (kernel, f.d, degree of g)."""

            def cached(args):
                f, g = args[0], args[1]
                return (kernel, f.d, degree_of(g)) in f.quiver._cache

            def probe(args, result, was_cached):
                add(calls, 1)
                self._sample_cache(args[0].quiver)
                if not was_cached and cached(args):
                    add(layer + ".kernel_builds", 1)
                    return cold
                return warm

            return cached, probe

        def weight_basis(args, result, pre):
            add("symfun.weight_basis_calls", 1)
            add("symfun.basis_elems", len(result[0]) if result else 0)
            return "symfun.weight_basis"

        def echelon_add(args, result, pre):
            add("linalg.rows_added", 1)
            if result:
                add("linalg.rank_gained", 1)
            return "linalg.add"

        def cache_of(get_quiver):
            def probe(args, result, pre):
                self._sample_cache(get_quiver(args[0]))
                return None

            return probe

        pochhammer = fixed("series.pochhammer")
        by_quiver = cache_of(lambda q: q)
        by_root_system = cache_of(lambda rs: rs.quiver)
        mul_cached, mul = product("coha", "coha_kernel", lambda g: g.d, "coha.mul_calls", "coha.mul_cold", "coha.mul_warm")
        act_cached, act = product("cohm", "cohm_kernel", lambda g: g.e, "cohm.act_calls", "cohm.act_cold", "cohm.act_warm")
        pre_probes = {"shuffle_mul": mul_cached, "cohm_action": act_cached}
        return pre_probes, {
            "Poly.__mul__": term_pairs("poly.mul_calls", "poly.mul_term_pairs", "poly.mul"),
            "Poly.divexact_linear": divexact,
            "Poly.divexact_mono": divexact,
            "Poly.homogeneous_components": fixed("poly.homogeneous"),
            "Poly.map_variables": fixed("poly.map_variables"),
            "schur": fixed("symfun.schur", "symfun.schur_calls"),
            "weight_basis": weight_basis,
            "shuffle_mul": mul,
            "cohm_action": act,
            "generator_complement": fixed("coha.complement"),
            "coha_slice_basis": fixed("coha.slice_basis"),
            "cohm_slice_basis": fixed("cohm.slice_basis"),
            "Echelon.add": echelon_add,
            "QSeries._convolve": term_pairs("series.cmul_calls", "series.cmul_term_pairs", "series.cmul"),
            "QSeries.log": fixed("series.log"),
            "QSeries.inverse": fixed("series.inverse"),
            "qpochhammer_inf": pochhammer,
            "pochhammer_q2_product": pochhammer,
            "invert_pochhammer_factorization": pochhammer,
            "build_typeA": fixed("finite_type.root_system"),
            "QuiverWithDuality.__init__": fixed(None, "quiver.instances"),
            "ori_dt_invariants": by_quiver,
            "dt_invariants": by_quiver,
            "equivariant_dt": by_quiver,
            "loop_factorization": by_quiver,
            "pbw_check_coha": by_root_system,
            "pbw_check_cohm": by_root_system,
            "dilog_identity_check": by_root_system,
            "cli_parse": fixed("cli.parse"),
            "cli_emit": fixed("cli.emit"),
        }

    # -- wrapping -----------------------------------------------------------------

    def wrap(self, layer, qualname, fn):
        tracer = self
        stack = self.stack
        self_time = self.self_time
        times = self.time
        pre_probe = self.pre_probes.get(qualname)
        probe = self.probes.get(qualname)

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            spans = tracer.spans
            index = len(spans)
            if index < MAX_SPANS:
                spans.append(None)  # filled in at exit, so parents precede children
            else:
                index = -1
                tracer.dropped += 1
            frame = [index, 0.0]
            parent = stack[-1][0] if stack else -1
            stack.append(frame)
            pre = pre_probe(args) if pre_probe is not None else None
            start = perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf_counter()
                stack.pop()
                dur = end - start
                self_time[layer] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                if probe is not None:
                    key = probe(args, result, pre)
                    if key is not None:
                        times[key] = times.get(key, 0.0) + dur
                tracer.add("trace.spans", 1)
                if index >= 0:
                    spans[index] = (qualname, start, end, parent)

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Wraps the layer modules of hallforge, and the benchmark's own
        cli_parse/cli_emit, which stand for the cli layer's JSON boundary."""
        import workloads

        package = importlib.import_module("hallforge")
        modules = {m: importlib.import_module("hallforge." + m) for m in LAYERS if m != "cli"}
        replaced = {}
        for layer, mod in modules.items():
            for name, fn in list(vars(mod).items()):
                if (
                    inspect.isfunction(fn)
                    and fn.__module__ == mod.__name__
                    and not name.startswith("_")
                    and not inspect.isgeneratorfunction(fn)
                    and name not in HOT_HELPERS.get(layer, ())
                ):
                    replaced[fn] = self.wrap(layer, name, fn)
        for (layer, cls_name), names in METHODS.items():
            cls = getattr(modules[layer], cls_name)
            for name in names:
                raw = cls.__dict__[name]
                owner = "cli" if name in CLI_METHODS else layer
                qual = "%s.%s" % (cls_name, name)
                if isinstance(raw, classmethod):
                    new = classmethod(self.wrap(owner, qual, raw.__func__))
                else:
                    new = self.wrap(owner, qual, raw)
                self.installed.append((cls, name, raw))
                setattr(cls, name, new)
        for name in ("cli_parse", "cli_emit"):
            fn = getattr(workloads, name)
            replaced[fn] = self.wrap("cli", name, fn)
        # rebind every alias of a wrapped function, in the package and beyond
        targets = [package] + list(modules.values()) + [importlib.import_module("hallforge.proputils"), workloads]
        for mod in targets:
            for name, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in replaced:
                    self.installed.append((mod, name, value))
                    setattr(mod, name, replaced[value])

    def uninstall(self):
        for owner, name, raw in reversed(self.installed):
            setattr(owner, name, raw)
        self.installed.clear()

    # -- results ------------------------------------------------------------------

    def metrics(self, wall, passes, overhead_pct):
        """Per-layer metrics of the traced passes: counts per pass, times as a
        percentage of the traced wall time."""
        def pct(seconds):
            return 100.0 * seconds / wall

        def per_pass(key):
            return self.count.get(key, 0) / passes

        def ratio(num, den):
            den = self.count.get(den, 0)
            return self.count.get(num, 0) / den if den else 0.0

        t = self.time.get
        out = {}
        for key in ("poly.mul_calls", "poly.mul_term_pairs", "poly.divexact_calls", "poly.divexact_terms",
                    "symfun.schur_calls", "symfun.weight_basis_calls", "symfun.basis_elems",
                    "coha.mul_calls", "coha.kernel_builds", "cohm.act_calls", "cohm.kernel_builds",
                    "linalg.rows_added", "linalg.rank_gained", "series.cmul_calls", "series.cmul_term_pairs",
                    "quiver.instances", "trace.spans"):
            out[key] = per_pass(key)
        out["quiver.cache_entries_max"] = self.count.get("quiver.cache_entries_max", 0)
        out["coha.kernel_hit_ratio"] = 1.0 - ratio("coha.kernel_builds", "coha.mul_calls") if self.count.get("coha.mul_calls") else 0.0
        out["cohm.kernel_hit_ratio"] = 1.0 - ratio("cohm.kernel_builds", "cohm.act_calls") if self.count.get("cohm.act_calls") else 0.0
        out["linalg.useful_ratio"] = ratio("linalg.rank_gained", "linalg.rows_added")
        for key in ("poly.mul", "poly.divexact", "poly.homogeneous", "poly.map_variables", "symfun.schur",
                    "symfun.weight_basis", "coha.mul_cold", "coha.mul_warm", "coha.complement", "coha.slice_basis",
                    "cohm.act_cold", "cohm.act_warm", "cohm.slice_basis", "linalg.add", "series.cmul",
                    "series.log", "series.inverse", "series.pochhammer", "finite_type.root_system",
                    "cli.parse", "cli.emit"):
            out[key + "_pct"] = pct(t(key, 0.0))
        for layer in LAYERS:
            out[layer + ".self_pct"] = pct(self.self_time[layer])
        out["trace.unattributed_pct"] = 100.0 - sum(out[layer + ".self_pct"] for layer in LAYERS)
        out["trace.overhead_pct"] = overhead_pct
        out["trace.wall_s"] = wall / passes
        return out

    def write(self, path, env):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "env": env,
                    "fields": ["name", "start", "end", "parent"],
                    "dropped": self.dropped,
                    "spans": self.spans,
                },
                fh,
                separators=(",", ":"),
            )
