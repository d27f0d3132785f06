"""Command-line front end: study orchestration and report emission.

``occlp solve|simulate|sweep|convergence|certify|oracle --config FILE``

Every command reads one configuration file, runs the relevant part of the
study, writes a report bundle (JSON and/or a CSV directory) and exits 0 iff
every invariant asserted during the study passed; failures are enumerated on
standard error.  Reports embed the fully resolved configuration and are
byte-identical across reruns of the same configuration, seed and build.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import json
import logging
import os
import queue
import sys
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import __version__
from .basis import basis_for_region
from .config import ConfigError, StudyConfig, default_config_text, parse_config
from .grid import DiscreteMeasure, GridError, LpBlocks, build_grid
from .metrics import MetricError, make_test_function_set, rho_hat
from .oracle import (OracleError, frozen_value, is_frozen, level_set_ordering, rotates,
                     rotation_level_value)
from .programs import (CERTIFICATE_TOL, DUALITY_GAP_TOL, SCIPY_VERSION, ProgramError,
                       build_discounted_lp, build_ergodic_lp, build_nonergodic_lp,
                       build_perturbed_lp, certificate_offgrid_report, certificate_slacks,
                       extract_dual_certificate, log_solution, lp_name, membership_residual,
                       needs_refinement, solve, solve_chain, verify_weak_duality)
from .simulate import (SimulationError, abel_value, cesaro_value,
                       horizon_study, periodic_value_search, rotation_delta_family)

log = logging.getLogger("occlp")

_ALL_SECTIONS = ("solve", "simulate", "sweep", "convergence", "certify", "oracle")


@dataclass
class ReportBundle:
    """Everything one study produced, as JSON-serialisable plain data."""

    config: dict
    values: dict = field(default_factory=dict)  # name -> float
    tables: dict = field(default_factory=dict)  # name -> {"columns": [...], "rows": [[...]]}
    duals: list = field(default_factory=list)  # rows (program, kind, basis index, marginal)
    certificates: dict = field(default_factory=dict)  # name -> {mu, psi/eta coefficients, ...}
    measures: dict = field(default_factory=dict)  # name -> {"atom_index": [...], "weight": [...]}
    invariants: list = field(default_factory=list)  # {"name", "passed", "detail"}
    warnings: list = field(default_factory=list)
    environment: dict = field(default_factory=dict)

    def record(self, name: str, passed: bool, detail: str = ""):
        self.invariants.append({"name": name, "passed": bool(passed), "detail": detail})
        if not passed:
            log.error("invariant failed: %s (%s)", name, detail)

    def all_passed(self) -> bool:
        return all(entry["passed"] for entry in self.invariants)

    def to_dict(self) -> dict:
        # the fields hold plain dicts and lists only, so no deep copy is needed
        return {"schema_version": 1, **{f.name: getattr(self, f.name) for f in fields(self)}}


def _environment_stamp() -> dict:
    return {
        "occlp": __version__,
        "python": ".".join(str(v) for v in sys.version_info[:3]),
        "numpy": np.__version__,
        "scipy": SCIPY_VERSION,
    }


def _measure_payload(measure: DiscreteMeasure) -> dict:
    """Sparse representation of a measure: every atom carrying weight.  A
    reported measure is a simplex basic point, so it has at most as many
    atoms as its LP has rows."""
    idx = np.flatnonzero(measure.weights > 0)
    return {"atom_index": [int(i) for i in idx],
            "weight": [float(measure.weights[i]) for i in idx],
            "total_mass": measure.total_mass}


# the bounds of the study's invariants; programs.CERTIFICATE_TOL bounds the
# certificate's slacks here too, and programs.DUALITY_GAP_TOL a solved LP's
# relative duality gap
MU_VALUE_TOL = 1e-6  # |value - mu|
ORDERING_TOL = 1e-7  # ergodic <= nonergodic; perturbed values monotone in epsilon
MEMBERSHIP_TOL = 1e-7  # w and omega residuals of the optimal gamma
SMALL_EPS_TOL = 1e-2  # |value(eps=0.001) - value(0)|
REFINEMENT_TOL = 0.02  # value change under angular doubling and a degree bump
SIMULATION_TOL = 0.05  # LP value below Abel value; Cesaro value above mu
ABEL_TAIL_TOL = 1e-2  # the Abel value's discounted tail beyond its horizon


def _bound_text(bound: float) -> str:
    """A bound as invariant details write it: ``1e-7``, ``0.05``."""
    return f"{bound:g}".replace("e-0", "e-")


def _pool_map(fn, items, jobs: int):
    """``[fn(item) for item in items]``, on a pool of up to ``jobs`` threads.

    With ``jobs`` 1 or a single item no thread starts.  Otherwise each worker
    starts on a CPU of its own: worker k takes CPU k (mod their count) of the
    process's affinity set, then gives the whole set back, so the kernel may
    still move it.  HiGHS releases the interpreter lock while it runs, but
    without this step a young process's new threads start beside their parent
    on one CPU and take turns (CPU time = wall time on the ``solve`` of a
    [5, 128] annulus at jobs=2, on a 2-vCPU VM).  Where the platform has no CPU affinity the
    workers start where the kernel puts them.  Results come back in item
    order."""
    if jobs <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    placement = {}
    if hasattr(os, "sched_setaffinity"):
        cpus = sorted(os.sched_getaffinity(0))
        slots = queue.SimpleQueue()
        for k in range(min(jobs, len(items))):
            slots.put(cpus[k % len(cpus)])
        placement = {"initializer": _start_on_own_cpu, "initargs": (slots, set(cpus))}
    with concurrent.futures.ThreadPoolExecutor(max_workers=jobs, **placement) as pool:
        return list(pool.map(fn, items))


def _start_on_own_cpu(slots: queue.SimpleQueue, cpus: set) -> None:
    """Move the calling worker thread to the next CPU in ``slots``, then let
    it run on any of ``cpus`` again.  Placement is a hint: a CPU that cannot
    be taken leaves the worker where it started."""
    try:
        os.sched_setaffinity(0, {slots.get_nowait()})
        os.sched_setaffinity(0, cpus)
    except OSError:
        pass


# ---------------------------------------------------------------------------
# study sections


def _solve_all(instances, jobs: int):
    """Solutions of the study's LPs, in their order.

    The perturbed LPs whose xi block is priced differ only in their costs, so
    they are one chain, in decreasing epsilon, and one task of the pool; every
    other LP is a task of its own.  perturbed[eps=0] is the nonergodic LP
    exactly, so when both are configured it takes the nonergodic solution.
    The longest tasks go to the pool first: the chain, then the LPs that run
    the minimal-mass refinement, then the rest, each group in LP order.  On
    :func:`_pool_map` with ``jobs`` of 2 or more, the tasks run on worker
    threads that each start on a CPU of their own.  A task only solves: the
    caller extracts certificates and slacks afterwards, in LP order (doing
    that inside the tasks did not make ``solve`` faster)."""
    names = [lp_name(instance) for instance in instances]
    shared = {k: names.index("nonergodic") for k, name in enumerate(names)
              if name == "perturbed[eps=0]" and "nonergodic" in names}
    chain = sorted((k for k, instance in enumerate(instances)
                    if instance.provenance["variant"] == "perturbed" and k not in shared
                    and not needs_refinement(instance)),
                   key=lambda k: -instances[k].provenance["epsilon"])
    singles = [[k] for k in range(len(instances)) if k not in shared and k not in chain]
    tasks = [chain] if chain else []
    tasks += sorted(singles, key=lambda task: not needs_refinement(instances[task[0]]))
    solved = _pool_map(lambda task: solve_chain([instances[k] for k in task]), tasks, jobs)
    solutions = [None] * len(instances)
    for task, task_solutions in zip(tasks, solved):
        for k, solution in zip(task, task_solutions):
            solutions[k] = solution
    for k, j in shared.items():
        solutions[k] = replace(solutions[j], start=f"same LP as {names[j]}")
    return solutions


def _solve(instance, refine: bool = True):
    """Solve one LP cold and log its line; ``refine=False`` for a caller that
    reads only the value (see :func:`programs.solve`)."""
    solution = solve(instance, refine=refine)
    log_solution(instance, solution)
    return solution


# the program variants whose LPs each section reads; the solve section of a
# study builds and solves only the configured variants its sections read
_SECTION_READS = {
    "solve": ("ergodic", "nonergodic", "discounted", "perturbed"),
    "simulate": ("nonergodic", "discounted"),
    "sweep": ("discounted", "perturbed"),
    "certify": ("nonergodic",),
}


def _build_lps(blocks, cfg: StudyConfig, variants):
    """The configured LPs of ``variants``, in report order, built on ``blocks``."""
    prog = cfg.program
    instances = []
    if "ergodic" in variants:
        instances.append(build_ergodic_lp(blocks))
    if "nonergodic" in variants:
        instances.append(build_nonergodic_lp(blocks, prog.xi_mass_cap))
    if "discounted" in variants:
        for rate in prog.discount_rates:
            instances.append(build_discounted_lp(blocks, rate))
    if "perturbed" in variants:
        for eps in prog.epsilons:
            instances.append(build_perturbed_lp(blocks, eps, prog.xi_mass_cap))
    return instances


def _solve_section(bundle, blocks, cfg: StudyConfig, variants, jobs: int):
    prog = cfg.program
    instances = _build_lps(blocks, cfg, variants)
    solutions = _solve_all(instances, jobs)

    results = {}
    for instance, solution in zip(instances, solutions):
        name = lp_name(instance)
        results[name] = (instance, solution)
        log_solution(instance, solution)
        bundle.values[f"{name}.status"] = solution.status
        if solution.status != "optimal":
            bundle.record(f"{name}.solved", False, solution.message)
            continue
        bundle.record(f"{name}.solved", True)
        bundle.values[f"{name}.value"] = solution.value
        gap = abs(solution.value - solution.dual_objective)
        bundle.record(f"{name}.duality_gap",
                      gap <= DUALITY_GAP_TOL * max(1.0, abs(solution.value)), f"gap {gap:.3e}")
        for i, meta in enumerate(instance.row_meta):
            bundle.duals.append([name, meta.kind,
                                 -1 if meta.basis_index is None else meta.basis_index,
                                 float(solution.row_duals[i])])
        variant = instance.provenance["variant"]
        if variant in ("nonergodic", "perturbed", "ergodic"):
            cert = extract_dual_certificate(solution, instance)
            bundle.certificates[name] = {
                "mu": cert.mu,
                "psi_coeffs": [float(v) for v in cert.psi_coeffs],
                "eta_coeffs": [float(v) for v in cert.eta_coeffs],
                "y0": None if cert.y0 is None else [float(v) for v in cert.y0],
                "epsilon": cert.epsilon,
                "f_bound": cert.f_bound,
            }
            bundle.values[f"{name}.mu"] = cert.mu
            bundle.record(f"{name}.weak_duality",
                          verify_weak_duality(solution.value, cert.mu),
                          f"value {solution.value:.9f} vs mu {cert.mu:.9f}")
            bundle.record(f"{name}.mu_matches_value",
                          abs(solution.value - cert.mu) <= MU_VALUE_TOL,
                          f"|value - mu| = {abs(solution.value - cert.mu):.3e}")
            f1, f2 = certificate_slacks(cert, blocks.grid, blocks.basis, blocks.grid.spec)
            bundle.values[f"{name}.certificate_min_slack_lower_bound"] = float(np.min(f1))
            bundle.values[f"{name}.certificate_min_slack_monotonicity"] = float(np.min(f2))
            bundle.record(f"{name}.certificate_feasible",
                          min(np.min(f1), np.min(f2)) >= -CERTIFICATE_TOL,
                          f"min slacks {np.min(f1):.3e}, {np.min(f2):.3e}")
        if solution.gamma is not None:
            bundle.measures[f"{name}.gamma"] = _measure_payload(solution.gamma)
        if solution.xi is not None:
            bundle.measures[f"{name}.xi"] = _measure_payload(solution.xi)
            bundle.values[f"{name}.xi_mass"] = solution.xi.total_mass
            if solution.cap_binding:
                bundle.warnings.append(
                    f"{name}: xi mass cap binding (coupled feasible set may be "
                    f"far from closed at this discretisation)")
            if not solution.xi_canonical:
                bundle.warnings.append(
                    f"{name}: minimal-mass refinement rejected; xi is an arbitrary "
                    f"optimal transport")

    if "ergodic" in variants and "nonergodic" in variants:
        erg = results["ergodic"][1]
        non = results["nonergodic"][1]
        if erg.status == "optimal" and non.status == "optimal":
            bundle.record("ergodic_below_nonergodic",
                          erg.value <= non.value + ORDERING_TOL,
                          f"{erg.value:.9f} <= {non.value:.9f} + {_bound_text(ORDERING_TOL)}")

    if "perturbed" in variants and len(prog.epsilons) >= 2:
        # one row per optimal value, in increasing epsilon, each flagged
        # against the row before it
        rows = []
        for eps in sorted(prog.epsilons):
            sol = results[f"perturbed[eps={eps:g}]"][1]
            if sol.status == "optimal":
                rows.append([eps, sol.value,
                             not rows or sol.value >= rows[-1][1] - ORDERING_TOL])
        bundle.tables["epsilon_sweep"] = {
            "columns": ["epsilon", "value", "monotone_nondecreasing_in_epsilon"],
            "rows": rows}
        bundle.record("perturbed_monotone_in_epsilon", all(row[2] for row in rows))
        values_by_eps = {eps: value for eps, value, _ in rows}
        if 0.0 in values_by_eps:
            base = values_by_eps[0.0]
            bundle.record("perturbed_dominates_unperturbed",
                          all(v >= base - ORDERING_TOL for v in values_by_eps.values()))
            if 0.001 in values_by_eps:
                bundle.record("perturbed_small_eps_convergence",
                              abs(values_by_eps[0.001] - base) <= SMALL_EPS_TOL,
                              f"|value(0.001) - value(0)| = "
                              f"{abs(values_by_eps[0.001] - base):.3e}")
    return results


def _simulate_section(bundle, blocks, cfg: StudyConfig, solve_results):
    sim = cfg.simulate
    if not sim.policy:
        return
    spec, y0 = blocks.grid.spec, blocks.y0_requested
    policy = cfg.simulate_policy()

    # windows of one run, reused for average values, empirical measures,
    # residual decay and the weak-* distance trend
    study = horizon_study(blocks, policy, sim.horizons, sim.dt)
    horizon_rows = []
    for row in study:
        value = cesaro_value(row.trajectory)
        horizon_rows.append([row.horizon, value])
        bundle.values[f"cesaro[T={row.horizon:g}]"] = value
    bundle.tables["cesaro_by_horizon"] = {"columns": ["horizon", "cesaro_value"],
                                          "rows": horizon_rows}

    for rate in sim.abel_rates:
        result = abel_value(spec, y0, policy, rate, horizon=sim.abel_horizon,
                            dt=sim.abel_dt, tail_tolerance=ABEL_TAIL_TOL)
        bundle.values[f"abel[rate={rate:g}]"] = result.value
        bundle.values[f"abel_tail_bound[rate={rate:g}]"] = result.tail_bound
        name = f"discounted[rate={rate:g}]"
        if name in solve_results and solve_results[name][1].status == "optimal":
            lp_value = solve_results[name][1].value
            bundle.record(f"discounted_lp_below_abel[rate={rate:g}]",
                          lp_value <= result.value + SIMULATION_TOL,
                          f"LP {lp_value:.4f} <= abel {result.value:.4f} + "
                          f"{_bound_text(SIMULATION_TOL)}")

    decay_rows = [[row.horizon, row.residual.w_residual, row.residual.omega_residual]
                  for row in study]
    bundle.tables["residual_decay"] = {
        "columns": ["horizon", "w_residual", "omega_residual"], "rows": decay_rows}
    floor = min(row[1] for row in decay_rows)
    ok = all(b[1] <= a[1] + 2.0 * floor + 1e-12
             for a, b in zip(decay_rows, decay_rows[1:]))
    bundle.record("w_residual_nonincreasing", ok,
                  "across horizon doublings, within twice the floor")

    # weak-* distance of empirical measures to the coupled optimum, per horizon
    non = solve_results.get("nonergodic")
    if non is not None and non[1].status == "optimal":
        tf = make_test_function_set(blocks.basis, spec.region)
        rows = [[row.horizon, rho_hat(row.measure, non[1].gamma, tf)] for row in study]
        bundle.tables["empirical_to_optimal_distance"] = {
            "columns": ["horizon", "rho_hat"], "rows": rows}

    if sim.periodic_deltas:
        candidates = rotation_delta_family(spec, y0, sim.periodic_deltas)
        search = periodic_value_search(spec, y0, candidates, dt=sim.periodic_dt)
        bundle.tables["periodic_family"] = {
            "columns": ["label", "period", "closure_error", "value"],
            "rows": [[r.label, r.period, r.closure_error, r.value] for r in search.rows]}
        bundle.values["periodic.best_value"] = search.best_value
        bundle.record("periodic_loops_close",
                      all(r.closed for r in search.rows),
                      "every candidate returns to y0 within tolerance")

    # mu is a lower bound on the grid LP's value, not on the true or a simulated one
    mu = bundle.values.get("nonergodic.mu")
    if mu is not None and horizon_rows:
        final = horizon_rows[-1][1]
        bundle.record("cesaro_above_dual_bound", final >= mu - SIMULATION_TOL,
                      f"cesaro {final:.4f} >= mu {mu:.4f} - {_bound_text(SIMULATION_TOL)}")


def _sweep_section(bundle, blocks, cfg: StudyConfig, solve_results):
    prog = cfg.program
    if prog.discount_rates:
        rows = []
        for rate in sorted(prog.discount_rates):
            name = f"discounted[rate={rate:g}]"
            pair = solve_results.get(name)
            solution = pair[1] if pair else _solve(build_discounted_lp(blocks, rate))
            if solution.status == "optimal":
                rows.append([rate, solution.value])
        if rows:
            bundle.tables["discount_sweep"] = {"columns": ["rate", "lp_value"], "rows": rows}


def _convergence_section(bundle, blocks, cfg: StudyConfig):
    """Refinement study: value stability under angular doubling and degree bump.
    It reads only LP values, so no LP here runs the minimal-mass refinement.
    Only the base LP is built on the study's blocks; each other grid or basis
    gets blocks of its own at the study's start point."""
    grid, spec, y0 = blocks.grid, blocks.grid.spec, blocks.y0_requested
    cap = cfg.program.xi_mass_cap
    base = _solve(build_nonergodic_lp(blocks, cap), refine=False)
    if base.status != "optimal":
        bundle.record("convergence.base_solved", False, base.message)
        return
    rows = [["base", cfg.basis.degree, str(tuple(cfg.grid.state_resolution)), base.value]]
    state_res = list(cfg.grid.state_resolution)
    refined_res = state_res[:-1] + [state_res[-1] * 2]
    fine_grid = build_grid(spec, tuple(refined_res), cfg.grid.control_resolution)
    fine_basis = basis_for_region(spec.region, cfg.basis.degree + 2)
    fine = _solve(build_nonergodic_lp(LpBlocks(fine_grid, fine_basis, y0), cap), refine=False)
    if fine.status != "optimal":
        bundle.record("convergence.refined_solved", False, fine.message)
        return
    rows.append(["refined", cfg.basis.degree + 2, str(tuple(refined_res)), fine.value])
    bundle.tables["refinement"] = {
        "columns": ["level", "degree", "state_resolution", "value"], "rows": rows}
    delta = abs(fine.value - base.value)
    bundle.values["refinement.delta"] = delta
    bundle.record("refinement_stable", delta <= REFINEMENT_TOL, f"|delta| = {delta:.4f}")

    degree_rows = []
    for degree in range(2, cfg.basis.degree + 1):
        sol = base if degree == cfg.basis.degree else _solve(build_nonergodic_lp(
            LpBlocks(grid, basis_for_region(spec.region, degree), y0), cap), refine=False)
        if sol.status == "optimal":
            degree_rows.append([degree, sol.value])
    bundle.tables["degree_sweep"] = {"columns": ["degree", "value"], "rows": degree_rows}


def _certify_section(bundle, blocks, cfg: StudyConfig, solve_results):
    pair = solve_results.get("nonergodic")
    if pair is None:
        instance = build_nonergodic_lp(blocks, cfg.program.xi_mass_cap)
        solution = _solve(instance)
    else:
        instance, solution = pair
    if solution.status != "optimal":
        bundle.record("certify.solved", False, solution.message)
        return
    cert = extract_dual_certificate(solution, instance)
    report = certificate_offgrid_report(cert, blocks.grid, blocks.basis, blocks.grid.spec)
    bundle.values["certify.offgrid_min_slack_lower_bound"] = report["min_lower_bound_slack"]
    bundle.values["certify.offgrid_min_slack_monotonicity"] = report["min_monotonicity_slack"]
    bundle.values["certify.offgrid_sample_count"] = report["sample_count"]
    [res] = membership_residual([solution.gamma], blocks)
    bundle.values["certify.gamma_w_residual"] = res.w_residual
    bundle.values["certify.gamma_omega_residual"] = res.omega_residual
    bundle.record("certify.optimal_gamma_feasible",
                  max(res.w_residual, res.omega_residual) <= MEMBERSHIP_TOL,
                  f"residuals {res.w_residual:.2e}, {res.omega_residual:.2e}")


def _oracle_section(bundle, blocks, cfg: StudyConfig):
    spec, y0 = blocks.grid.spec, blocks.y0_requested
    if rotates(spec):
        z0 = float(y0[0] ** 2 + y0[1] ** 2)  # the annulus is about the origin
        level = rotation_level_value(spec, z0)
        bundle.values["oracle.level_value"] = level.value
        bundle.values["oracle.level"] = z0
        levels = np.linspace(spec.region.inner ** 2, spec.region.outer ** 2, 21)
        table = level_set_ordering(spec, levels)
        bundle.tables["oracle_levels"] = {"columns": ["level", "value"],
                                          "rows": [[z, v] for z, v in table.rows]}
        bundle.values["oracle.min_over_levels"] = table.min_value
    elif is_frozen(spec):
        result = frozen_value(spec, y0)
        bundle.values["oracle.frozen_value"] = result.value
        bundle.values["oracle.frozen_attained_by"] = result.attained_by


def run_study(config: StudyConfig, sections=_ALL_SECTIONS, jobs: int = 1) -> ReportBundle:
    """Run the configured study and return a report bundle.

    Deterministic given configuration + seed + build: no wall-clock data is
    recorded and all numeric paths are seed-free or seeded.  Every section
    takes the study's one :class:`~occlp.grid.LpBlocks`, which holds the
    grid, the basis, the configured y0 and the LP blocks (B, C at that y0,
    and c); the blocks are assembled once, when a section first reads them.
    """
    spec = config.system_spec()
    grid = build_grid(spec, tuple(config.grid.state_resolution),
                      config.grid.control_resolution)
    basis = basis_for_region(spec.region, config.basis.degree)
    bundle = ReportBundle(config=config.resolved_dict(),
                          environment=_environment_stamp())
    bundle.values["grid.atom_count"] = grid.atom_count
    bundle.values["basis.count"] = basis.count

    study = (LpBlocks(grid, basis, config.program.y0), config)
    reads = {variant for section in sections for variant in _SECTION_READS.get(section, ())}
    variants = tuple(v for v in config.program.variants if v in reads)
    solve_results = {}
    if variants:
        solve_results = _run_section(bundle, "solve", _solve_section, *study,
                                     variants, jobs) or {}
    if "simulate" in sections:
        _run_section(bundle, "simulate", _simulate_section, *study, solve_results)
    if "sweep" in sections:
        _run_section(bundle, "sweep", _sweep_section, *study, solve_results)
    if "convergence" in sections:
        _run_section(bundle, "convergence", _convergence_section, *study)
    if "certify" in sections:
        _run_section(bundle, "certify", _certify_section, *study, solve_results)
    if "oracle" in sections:
        _run_section(bundle, "oracle", _oracle_section, *study)
    return bundle


# the library's own errors; anything else is a bug and keeps its traceback
_LIBRARY_ERRORS = (GridError, MetricError, OracleError, ProgramError, SimulationError)


def _run_section(bundle: ReportBundle, name: str, section, *args):
    """Run one study section; a library error fails ``<name>.completed``."""
    try:
        return section(bundle, *args)
    except _LIBRARY_ERRORS as err:
        bundle.record(f"{name}.completed", False, f"{type(err).__name__}: {err}")
        return None


# ---------------------------------------------------------------------------
# emission


def _write_csv(path, columns, rows):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(_csv_cell(v) for v in row) + "\n")


def _csv_cell(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def emit_report(bundle: ReportBundle, out_dir: str, formats=("json",)) -> list[str]:
    """Write the bundle; returns the list of files written.

    ``json`` produces ``report.json``.  ``csv-dir`` produces ``values.csv``,
    ``duals.csv``, ``measures/*.csv`` and ``sweeps/*.csv`` (sweeps directory
    only when the study produced sweep tables).
    """
    os.makedirs(out_dir, exist_ok=True)
    written = []
    if "json" in formats:
        path = os.path.join(out_dir, "report.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(bundle.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")
        written.append(path)
    if "csv-dir" in formats:
        path = os.path.join(out_dir, "values.csv")
        _write_csv(path, ["name", "value"],
                   [[k, v] for k, v in bundle.values.items()])
        written.append(path)
        path = os.path.join(out_dir, "duals.csv")
        _write_csv(path, ["program", "row_kind", "basis_index", "marginal"], bundle.duals)
        written.append(path)
        if bundle.measures:
            measures_dir = os.path.join(out_dir, "measures")
            os.makedirs(measures_dir, exist_ok=True)
            for name, payload in bundle.measures.items():
                path = os.path.join(measures_dir, f"{name}.csv")
                _write_csv(path, ["atom_index", "weight"],
                           list(zip(payload["atom_index"], payload["weight"])))
                written.append(path)
        if bundle.tables:
            sweeps_dir = os.path.join(out_dir, "sweeps")
            os.makedirs(sweeps_dir, exist_ok=True)
            for name, table in bundle.tables.items():
                path = os.path.join(sweeps_dir, f"{name}.csv")
                _write_csv(path, table["columns"], table["rows"])
                written.append(path)
    return written


# ---------------------------------------------------------------------------
# entry point


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity set where the platform
    has one (a cpuset or ``taskset`` narrows it), else ``os.cpu_count()``."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="occlp",
        description="Long-run average optimal control via occupation-measure LPs")
    parser.add_argument("command", nargs="?", choices=_ALL_SECTIONS,
                        help="which part of the study to run")
    parser.add_argument("--config", required=False, help="study configuration file")
    parser.add_argument("--out", default=None, help="output directory (default from config)")
    parser.add_argument("--jobs", type=int, default=_usable_cpus(),
                        help="worker pool size for independent solves "
                             "(default: the CPUs this process may run on)")
    parser.add_argument("--print-defaults", action="store_true",
                        help="print the default configuration and exit")
    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=os.environ.get("OCCLP_LOG", "WARNING").upper(),
                        format="%(levelname)s %(name)s: %(message)s")
    parser = _build_arg_parser()
    args = parser.parse_args(argv)
    if args.print_defaults:
        sys.stdout.write(default_config_text())
        return 0
    if not args.config:
        parser.error("--config is required (or use --print-defaults)")
    if args.command is None:
        parser.error(f"a command is required: one of {', '.join(_ALL_SECTIONS)}")
    if args.jobs < 1:
        parser.error(f"--jobs must be at least 1, got {args.jobs}")
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            config = parse_config(fh.read())
    except FileNotFoundError:
        print(f"error: config file not found: {args.config}", file=sys.stderr)
        return 2
    except (OSError, UnicodeDecodeError) as err:
        print(f"error: cannot read config {args.config}: {err}", file=sys.stderr)
        return 2
    except ConfigError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2

    bundle = run_study(config, sections=(args.command,), jobs=args.jobs)
    out_dir = args.out or config.output.dir
    try:
        written = emit_report(bundle, out_dir, config.output.formats)
    except OSError as err:
        print(f"error: cannot write report to {out_dir}: {err}", file=sys.stderr)
        return 2
    for path in written:
        log.info("wrote %s", path)
    for warning in bundle.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    if not bundle.all_passed():
        for entry in bundle.invariants:
            if not entry["passed"]:
                print(f"FAILED: {entry['name']}: {entry['detail']}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
