"""The atomiso layers the traced run wraps, and the per-layer metrics made
from the spans and counters.

Metric names are ``<module>.<function>.<quantity>``.  ``calls`` counts every
call, including direct recursion; ``self_s`` and ``incl_s`` come from the
spans (see tracing.py).
"""

from atomiso import algebra, cli, engine, parser, structures
from atomiso.compile import Compiler
from atomiso.theories.base import Backend
from atomiso.theories.cyclic import CyclicBackend
from atomiso.theories.dlo import DloBackend
from atomiso.theories.equality import EqualityBackend

from tracing import Tracer, rebind_function

# (span name, module, function) for module-level functions
FUNCTIONS = (
    ("parser.parse", parser, "parse"),
    ("algebra.orbit_decomposition", algebra, "orbit_decomposition"),
    ("algebra.least_support", algebra, "least_support"),
    ("algebra.fn_apply", algebra, "fn_apply"),
    ("algebra.fn_check", algebra, "fn_check"),
    ("algebra.is_member", algebra, "is_member"),
    ("algebra.orbit_expression", algebra, "orbit_expression"),
    ("structures.check_isomorphism", structures, "check_isomorphism"),
    ("structures.load_structure", structures, "load_structure"),
    ("structures.load_function", structures, "load_function"),
    ("engine.enumerate_pieces", engine, "enumerate_pieces"),
    ("engine.decide_definable_iso", engine, "decide_definable_iso"),
    ("engine.eliminate_parameters", engine, "eliminate_parameters"),
    ("cli.main", cli, "main"),
)

# (span name, class, method); a method a backend class overrides is wrapped
# on that class
METHODS = (
    ("compile.equal", Compiler, "equal"),
    ("compile.member", Compiler, "member"),
    ("compile.subset", Compiler, "subset"),
    ("theories.qe", Backend, "qe"),
    ("theories.conjuncts", Backend, "conjuncts"),
    ("theories.sat", Backend, "sat"),
    ("theories.find_witness", Backend, "find_witness"),
    *(
        (f"theories.{m}", cls, m)
        for m in ("types_with_reps", "eliminate_from_conjunct")
        for cls in (EqualityBackend, DloBackend, CyclicBackend)
        if m in vars(cls)
    ),
    ("engine.compatible_with", engine._MorphismChecker, "compatible_with"),
)


def _cache_size(comp: Compiler) -> int:
    return len(comp._eq_cache) + len(comp._mem_cache) + len(comp._sub_cache)


def _hooks(tracer: Tracer) -> dict:
    def compile_hook(args, kwargs):
        # a cache hit returns before writing anything; a miss writes at
        # least its own entry
        comp = args[0]
        before = _cache_size(comp)

        def after(out, opened):
            if _cache_size(comp) == before:
                tracer.counters["compile.hits"] += 1

        return after

    def qe_hook(args, kwargs):
        backend = args[0]
        before = len(backend._qe_cache)

        def after(out, opened):
            tracer.counters["theories.qe.misses"] += len(backend._qe_cache) - before

        return after

    def conjuncts_hook(args, kwargs):
        def after(out, opened):
            if opened:
                tracer.counters["theories.conjuncts.out"] += len(out)

        return after

    def orbits_hook(args, kwargs):
        def after(out, opened):
            if opened:
                tracer.counters["algebra.orbit_decomposition.orbits_out"] += len(out)

        return after

    def orbit_expression_hook(args, kwargs):
        if tracer.active["engine.enumerate_pieces"]:
            tracer.counters["engine.pieces_attempted"] += 1
        return None

    def pieces_hook(args, kwargs):
        def after(out, opened):
            tracer.counters["engine.pieces_kept"] += len(out[0])

        return after

    def decide_hook(args, kwargs):
        def after(out, opened):
            tracer.counters["engine.candidates"] += out.stats["candidates"]

        return after

    return {
        "compile.equal": compile_hook,
        "compile.member": compile_hook,
        "compile.subset": compile_hook,
        "theories.qe": qe_hook,
        "theories.conjuncts": conjuncts_hook,
        "algebra.orbit_decomposition": orbits_hook,
        "algebra.orbit_expression": orbit_expression_hook,
        "engine.enumerate_pieces": pieces_hook,
        "engine.decide_definable_iso": decide_hook,
    }


def install(tracer: Tracer) -> list[str]:
    """Wrap every layer function; returns the span names."""
    hooks = _hooks(tracer)
    for name, module, attr in FUNCTIONS:
        rebind_function(module, attr, tracer.wrap(name, getattr(module, attr), hooks.get(name)))
    for name, cls, attr in METHODS:
        setattr(cls, attr, tracer.wrap(name, vars(cls)[attr], hooks.get(name)))
    return sorted({n for n, *_ in FUNCTIONS} | {n for n, *_ in METHODS})


# functions reported with calls and self time, and with calls and inclusive
# time
_CALLS_SELF = (
    "parser.parse",
    "compile.equal",
    "compile.member",
    "compile.subset",
    "theories.qe",
    "theories.conjuncts",
    "theories.sat",
    "theories.find_witness",
    "theories.types_with_reps",
    "theories.eliminate_from_conjunct",
)
_CALLS_INCL = (
    "algebra.least_support",
    "algebra.fn_apply",
    "algebra.fn_check",
    "algebra.is_member",
    "algebra.orbit_expression",
    "structures.check_isomorphism",
    "engine.compatible_with",
    "engine.decide_definable_iso",
    "engine.eliminate_parameters",
)


def metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    calls, self_s, incl_s, c = tracer.calls, tracer.self_s, tracer.incl_s, tracer.counters
    out: dict[str, tuple[float, str]] = {}
    for n in _CALLS_SELF:
        out[f"{n}.calls"] = (calls[n], "count")
        out[f"{n}.self_s"] = (self_s[n], "s")
    for n in _CALLS_INCL:
        out[f"{n}.calls"] = (calls[n], "count")
        out[f"{n}.incl_s"] = (incl_s[n], "s")
    compile_calls = sum(calls[f"compile.{m}"] for m in ("equal", "member", "subset"))
    hits = c["compile.hits"]
    out["compile.cache_hit_frac"] = (hits / compile_calls if compile_calls else 0.0, "ratio")
    out["compile.cache_entries"] = (compile_calls - hits, "count")
    out["theories.qe.misses"] = (c["theories.qe.misses"], "count")
    out["theories.conjuncts.out"] = (c["theories.conjuncts.out"], "count")
    n = "algebra.orbit_decomposition"
    out[f"{n}.calls"] = (calls[n], "count")
    out[f"{n}.self_s"] = (self_s[n], "s")
    out[f"{n}.incl_s"] = (incl_s[n], "s")
    out[f"{n}.orbits_out"] = (c[f"{n}.orbits_out"], "count")
    out["engine.enumerate_pieces.incl_s"] = (incl_s["engine.enumerate_pieces"], "s")
    out["engine.candidates"] = (c["engine.candidates"], "count")
    tried = c["engine.pieces_attempted"]
    out["engine.piece_yield"] = (c["engine.pieces_kept"] / tried if tried else 0.0, "ratio")
    out["cli.main.self_s"] = (self_s["cli.main"], "s")
    return out
