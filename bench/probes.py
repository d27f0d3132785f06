"""Per-layer probes for a traced run, installed over occlp from outside.

Each probe names a function by the module that defines it.  Installing it
replaces that function in every loaded ``occlp`` module whose namespace holds
it, which is where its callers look it up (``occlp.cli.solve``,
``occlp.programs.linprog``, ``occlp.simulate.nearest_atom_index``...), so no
file under ``src/`` changes.  Functions called once per integration step
(``ControlRegion.contains``, ``Policy.control``) are counted, not timed.

The layers are the ``occlp`` modules; :data:`PER_LAYER` lists what each
reports and :func:`layer_metrics` computes it from the spans of one traced
repetition of a workload.
"""

from __future__ import annotations

import functools
import importlib
import sys

from spans import Recorder, load_spans, outermost, self_times, union_length

COMMANDS = ("solve", "simulate", "sweep", "convergence", "certify", "oracle")

# metric name -> unit, in report order
PER_LAYER = {
    **{f"cli.{cmd}_s": "s" for cmd in COMMANDS},
    "cli.emit_s": "s",
    "cli.report_bytes": "bytes",
    "cli.self_s": "s",
    "config.parse_s": "s",
    "system.build_s": "s",
    "system.control_contains_calls": "count",
    "grid.build_s": "s",
    "grid.assemble_s": "s",
    "grid.assemble_calls": "count",
    "grid.bin_s": "s",
    "grid.bin_samples": "count",
    "grid.bin_ns_per_sample": "ns",
    "basis.eval_s": "s",
    "basis.eval_points": "count",
    "programs.build_s": "s",
    "programs.build_calls": "count",
    "programs.solve_s": "s",
    "programs.solve_calls": "count",
    "programs.solve_failed": "count",
    "programs.lp_rows": "count",
    "programs.lp_columns": "count",
    "programs.lp_iterations": "count",
    "programs.solve_overlap": "ratio",
    "programs.cert_s": "s",
    "programs.cert_points": "count",
    "programs.membership_s": "s",
    "programs.membership_failed": "count",
    "highs.main_s": "s",
    "highs.refine_s": "s",
    "highs.membership_s": "s",
    "highs.calls": "count",
    "simulate.integrate_s": "s",
    "simulate.rk4_steps": "count",
    "simulate.ns_per_step": "ns",
    "simulate.policy_calls": "count",
    "simulate.empirical_s": "s",
    "simulate.abel_s": "s",
    "simulate.periodic_s": "s",
    "metrics.rho_s": "s",
    "oracle.scan_s": "s",
    "trace.overhead_s": "s",
}


def _points(args, kwargs, result):
    """phi_matrix(basis, ys) / nearest_atom_index(grid, ys, us): rows of ys."""
    return {"n": len(args[1])}


def _lp(args, kwargs, result):
    instance = args[0]
    return {"variant": instance.provenance.get("variant"),
            "rows": len(instance.row_meta),
            "columns": instance.n_gamma + instance.n_xi,
            "status": result.status,
            "iterations": result.iterations}


def _highs(args, kwargs, result):
    return {"iterations": int(getattr(result, "nit", 0) or 0), "status": int(result.status)}


def _cert_points(args, kwargs, result):
    ys = args[4] if len(args) > 4 else kwargs.get("ys")
    return {"n": args[1].atom_count if ys is None else len(ys)}


def _steps(args, kwargs, result):
    return {"steps": len(result.controls)}


# (defining module, attribute, span name, annotate(args, kwargs, result) -> attrs)
SPAN_PROBES = (
    ("occlp.config", "build_system", "system.build", None),
    ("occlp.grid", "build_grid", "grid.build", None),
    ("occlp.grid", "assemble_flow_matrix", "grid.assemble", None),
    ("occlp.grid", "assemble_initial_matrix", "grid.assemble", None),
    ("occlp.grid", "assemble_cost_vector", "grid.assemble", None),
    ("occlp.grid", "nearest_atom_index", "grid.bin", _points),
    ("occlp.basis", "phi_matrix", "basis.eval", _points),
    ("occlp.basis", "grad_matrix", "basis.eval", _points),
    ("occlp.programs", "build_ergodic_lp", "programs.build", None),
    ("occlp.programs", "build_nonergodic_lp", "programs.build", None),
    ("occlp.programs", "build_discounted_lp", "programs.build", None),
    ("occlp.programs", "build_perturbed_lp", "programs.build", None),
    ("occlp.programs", "solve", "programs.solve", _lp),
    ("occlp.programs", "_minimal_mass_refinement", "programs.refine", None),
    ("occlp.programs", "certificate_slacks", "programs.cert", _cert_points),
    ("occlp.programs", "certificate_offgrid_report", "programs.cert", None),
    ("occlp.programs", "membership_residual", "programs.membership", None),
    ("scipy.optimize", "linprog", "highs", _highs),
    ("occlp.simulate", "integrate", "simulate.integrate", _steps),
    ("occlp.simulate", "empirical_occupational_measure", "simulate.empirical", None),
    ("occlp.simulate", "abel_value", "simulate.abel", None),
    ("occlp.simulate", "periodic_value_search", "simulate.periodic", None),
    ("occlp.simulate", "rotation_delta_family", "simulate.periodic", None),
    ("occlp.metrics", "make_test_function_set", "metrics.rho", None),
    ("occlp.metrics", "rho_hat", "metrics.rho", None),
    ("occlp.oracle", "rotation_level_value", "oracle.scan", None),
    ("occlp.oracle", "level_set_ordering", "oracle.scan", None),
    ("occlp.oracle", "frozen_value", "oracle.scan", None),
    *(("occlp.cli", f"_{cmd}_section", f"cli.section.{cmd}", None) for cmd in COMMANDS),
)

# (defining module, class, method, counter name); subclasses that override the
# method are counted under the same name
COUNT_PROBES = (
    ("occlp.system", "ControlRegion", "contains", "system.control_contains_calls"),
    ("occlp.simulate", "Policy", "control", "simulate.policy_calls"),
)


def _span_wrapper(fn, rec: Recorder, name: str, annotate):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with rec.span(name) as span:
            result = fn(*args, **kwargs)
            if annotate is not None:
                try:
                    span.attrs.update(annotate(args, kwargs, result))
                except (AttributeError, IndexError, TypeError) as err:
                    span.attrs["annotate_error"] = repr(err)
            return result
    return wrapper


def _count_wrapper(fn, rec: Recorder, name: str):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        rec.count(name)
        return fn(*args, **kwargs)
    return wrapper


def _replace_everywhere(original, replacement, attr: str) -> int:
    """Rebind ``attr`` in every occlp module namespace that holds ``original``."""
    replaced = 0
    for mod_name, module in list(sys.modules.items()):
        if (mod_name == "occlp" or mod_name.startswith("occlp.")) \
                and module is not None and module.__dict__.get(attr) is original:
            setattr(module, attr, replacement)
            replaced += 1
    return replaced


def _subclasses(cls):
    yield cls
    for sub in cls.__subclasses__():
        yield from _subclasses(sub)


def install(rec: Recorder) -> list[str]:
    """Install every probe; returns the probes whose target no longer exists."""
    importlib.import_module("occlp.cli")  # loads every occlp module
    missing = []
    for mod_name, attr, name, annotate in SPAN_PROBES:
        original = getattr(importlib.import_module(mod_name), attr, None)
        if original is None or not _replace_everywhere(
                original, _span_wrapper(original, rec, name, annotate), attr):
            missing.append(f"{mod_name}.{attr}")

    cli = sys.modules["occlp.cli"]
    pool_map = getattr(cli, "_pool_map", None)
    if pool_map is None:
        missing.append("occlp.cli._pool_map")
    else:
        # worker threads inherit the span that handed them the work
        @functools.wraps(pool_map)
        def adopting_pool_map(fn, items, jobs):
            parent = rec.current()

            def run(item):
                with rec.adopt(parent):
                    return fn(item)
            return pool_map(run, items, jobs)
        cli._pool_map = adopting_pool_map

    for mod_name, cls_name, method, name in COUNT_PROBES:
        base = getattr(importlib.import_module(mod_name), cls_name, None)
        if base is None:
            missing.append(f"{mod_name}.{cls_name}.{method}")
            continue
        for cls in _subclasses(base):
            if method in cls.__dict__:
                setattr(cls, method, _count_wrapper(cls.__dict__[method], rec, name))
    return missing


_HIGHS_CALLERS = {"programs.solve": "highs.main_s", "programs.refine": "highs.refine_s",
                  "programs.membership": "highs.membership_s"}


def layer_metrics(ops) -> dict:
    """Per-layer metrics of one traced repetition (its command processes' results).

    ``trace.overhead_s`` needs an untraced repetition too and is left at 0.
    """
    m = dict.fromkeys(PER_LAYER, 0)
    solve_busy = solve_union = 0.0
    for op in ops:
        spans = load_spans(op["trace"])
        counters = op["trace"]["counters"]
        by_id = {s.span_id: s for s in spans}

        def time_of(name):
            return sum(s.duration for s in outermost(spans, name))

        def named(name):
            return [s for s in spans if s.name == name]

        m[f"cli.{op['command']}_s"] += time_of("cli.run_study")
        m["cli.emit_s"] += time_of("cli.emit")
        m["cli.report_bytes"] += op["report_bytes"]
        own = self_times(spans)
        m["cli.self_s"] += sum(own[s.span_id] for s in spans if s.name.startswith("cli."))
        for counter in ("system.control_contains_calls", "simulate.policy_calls"):
            m[counter] += counters.get(counter, 0)
        for metric, name in (("config.parse_s", "config.parse"),
                             ("system.build_s", "system.build"),
                             ("grid.build_s", "grid.build"),
                             ("grid.assemble_s", "grid.assemble"),
                             ("grid.bin_s", "grid.bin"),
                             ("basis.eval_s", "basis.eval"),
                             ("programs.build_s", "programs.build"),
                             ("programs.solve_s", "programs.solve"),
                             ("programs.cert_s", "programs.cert"),
                             ("programs.membership_s", "programs.membership"),
                             ("simulate.integrate_s", "simulate.integrate"),
                             ("simulate.empirical_s", "simulate.empirical"),
                             ("simulate.abel_s", "simulate.abel"),
                             ("simulate.periodic_s", "simulate.periodic"),
                             ("metrics.rho_s", "metrics.rho"),
                             ("oracle.scan_s", "oracle.scan")):
            m[metric] += time_of(name)
        m["grid.assemble_calls"] += len(named("grid.assemble"))
        m["grid.bin_samples"] += sum(s.attrs.get("n", 0) for s in outermost(spans, "grid.bin"))
        m["basis.eval_points"] += sum(s.attrs.get("n", 0)
                                      for s in outermost(spans, "basis.eval"))
        m["programs.build_calls"] += len(named("programs.build"))
        solves = named("programs.solve")
        m["programs.solve_calls"] += len(solves)
        m["programs.solve_failed"] += sum(1 for s in solves if "error" in s.attrs
                                          or s.attrs.get("status") != "optimal")
        m["programs.lp_rows"] = max([m["programs.lp_rows"]]
                                    + [s.attrs.get("rows", 0) for s in solves])
        m["programs.lp_columns"] = max([m["programs.lp_columns"]]
                                       + [s.attrs.get("columns", 0) for s in solves])
        solve_busy += sum(s.duration for s in solves)
        solve_union += union_length((s.start, s.end) for s in solves)
        m["programs.cert_points"] += sum(s.attrs.get("n", 0) for s in named("programs.cert"))
        m["programs.membership_failed"] += sum(1 for s in named("programs.membership")
                                               if "error" in s.attrs)
        for s in named("highs"):
            m["highs.calls"] += 1
            m["programs.lp_iterations"] += s.attrs.get("iterations", 0)
            caller = by_id.get(s.parent)
            metric = _HIGHS_CALLERS.get(caller.name if caller else None)
            if metric is not None:
                m[metric] += s.duration
        m["simulate.rk4_steps"] += sum(s.attrs.get("steps", 0)
                                       for s in named("simulate.integrate"))
    if solve_union > 0:
        m["programs.solve_overlap"] = solve_busy / solve_union
    if m["grid.bin_samples"]:
        m["grid.bin_ns_per_sample"] = m["grid.bin_s"] / m["grid.bin_samples"] * 1e9
    if m["simulate.rk4_steps"]:
        m["simulate.ns_per_step"] = m["simulate.integrate_s"] / m["simulate.rk4_steps"] * 1e9
    return m


def lp_stamps(ops) -> list[dict]:
    """One entry per LP solved in a traced repetition: its size and HiGHS iterations."""
    out = []
    for op in ops:
        for s in load_spans(op["trace"]):
            if s.name == "programs.solve" and "rows" in s.attrs:
                out.append({"command": op["command"], **{k: s.attrs[k] for k in
                            ("variant", "rows", "columns", "status", "iterations")}})
    return out
