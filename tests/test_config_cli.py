import dataclasses
import json
import logging
import math
import os
import re
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from occlp import cli, config, exprs, oracle, programs, simulate, system, tolerances
from occlp import grid as grid_mod
from occlp.basis import basis_for_region
from occlp.cli import ReportBundle, emit_report, main, run_study
from occlp.config import (ConfigError, StudyConfig, build_policy, build_system,
                          default_config_text, parse_config)
from occlp.grid import build_grid
from occlp.oracle import frozen_value
from occlp.simulate import integrate
from occlp.system import SystemSpec

from systems import built

MINIMAL_ROTATION = """
[system]
name = rotation
"""

FROZEN_STUDY = """
seed = 0

[system]
name = frozen
cost = y1 + u1^2
lower = [0.0, 0.0]
upper = [1.0, 1.0]

[grid]
state_resolution = [2, 2]
control_resolution = 9

[basis]
degree = 4

[program]
variants = [ergodic, nonergodic, discounted, perturbed]
y0 = [0.25, 0.25]
discount_rates = [1.0]
epsilons = [0.0]

[simulate]
policy = constant:0.0
horizons = [2.0]
dt = 0.001
abel_rates = [1.0]
abel_horizon = 25.0
abel_dt = 0.001

[output]
formats = [json, csv-dir]
"""


def test_minimal_config_fills_defaults():
    cfg = parse_config(MINIMAL_ROTATION)
    assert cfg.system.name == "rotation"
    assert cfg.basis.degree == 4
    assert cfg.grid.state_resolution == (5, 64)
    assert cfg.program.y0 == (1.0, 0.0)
    assert cfg.output.formats == ("json",)


def test_default_config_text_parses():
    # the dataclass defaults and the documented defaults must not drift
    assert parse_config(default_config_text()) == StudyConfig()


@pytest.mark.parametrize("snippet,needle", [
    ("[system]\nname = rotation\n[program]\ny0 = [9.0, 0.0]\n", "y0"),
    ("[basis]\ndegree = 0\n", "line 2: degree must be >= 1"),
    ("[grid]\nwhatever = 1\n", "unknown key"),
    ("[nosuch]\nx = 1\n", "unknown section"),
    ("[basis]\ndegree = fast\n", "degree must be an integer"),
    ("[system]\nname = rotation\nname = frozen\n", "duplicate key"),
    ("[grid]\nstate_resolution = [5, 64\n", "unterminated array"),
    ("just some words\n", "expected 'key = value'"),
    ("[program]\nvariants = [ergodic, bogus]\n", "unknown program variant"),
    ("[output]\nformats = [yaml]\n", "unknown output format"),
    ("[system]\ncost = fast\n", "cost_text 'fast'"),
    ("[system]\nname = custom\nregion = box\nlower = [-1.0]\nupper = [1.0]\n"
     "dynamics = [y1 +* u1]\n", "dynamics: dynamics_text [y1 +* u1]: "),
    ("[simulate]\npolicy = constant:1.0\nhorizons = []\n", "at least one horizon"),
    ("[simulate]\npolicy = constant:1.0\nhorizons = 0\n", "horizons must be positive"),
    ("[simulate]\nabel_rates = -1.0\n", "abel_rates must be positive"),
    ("[simulate]\nperiodic_deltas = 0\n", "periodic_deltas must lie in (0, 1]"),
    ("[simulate]\npolicy = schedule:1:0.5\n", "malformed policy"),
    ("[simulate]\npolicy = steer_hold:1.0:0.0:0.0\n", "strictly increasing"),
    ("[simulate]\npolicy = schedule:0:1,2:-1@0\n", "period 0.0 must be finite and greater"),
    ("[simulate]\npolicy = schedule:0:1,2:-1@-4\n", "period -4.0 must be finite and greater"),
    ("[simulate]\npolicy = schedule:0:1,2:-1@nan\n", "period nan must be finite and greater"),
    ("[simulate]\npolicy = schedule:0:1,5:-1@4\n", "than the last switch time 5.0"),
    ("[simulate]\npolicy = schedule:0:1,nan:-1\n", "schedule times must be finite"),
    ("[grid]\nstate_resolution = [1, 64]\n", "line 2: annulus resolutions must be >= 2"),
    ("[grid]\ncontrol_resolution = 1\n", "line 2: control resolution must be >= 2"),
])
def test_config_errors_name_the_problem(snippet, needle):
    with pytest.raises(ConfigError) as err:
        parse_config(snippet)
    assert needle in str(err.value)


def test_config_errors_carry_line_numbers():
    text = "[system]\nname = rotation\n\n[basis]\ndegree = 0\n"
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert "line 5" in str(err.value)


@pytest.mark.parametrize("section,key,values", [
    ("program", "epsilons", "[0.1, 0.1000001, 0.0]"),
    ("program", "discount_rates", "[0.005, 0.005]"),
    ("simulate", "abel_rates", "[0.01, 0.0100000001]"),
    ("simulate", "horizons", "[25.0, 50.0, 25.0]"),
])
def test_entries_sharing_a_report_name_are_rejected(section, key, values):
    # the entries name report entries by their :g form, e.g. perturbed[eps=0.1],
    # so two that format alike would overwrite each other's results
    text = f"seed = 0\n\n[{section}]\n{key} = {values}\n"
    with pytest.raises(ConfigError, match=rf"^line 4: {key} entries .* share the report name"):
        parse_config(text)


def test_build_policy_kinds():
    spec = built("rotation")
    p = build_policy("constant:0.5", spec, (1.0, 0.0))
    assert p.control(0.0, (1.0, 0.0)) == (0.5,)
    p = build_policy("steer_hold:1.0:3.0:0.0", spec, (1.0, 0.0))
    assert p.control(0.0, (1.0, 0.0)) == (1.0,)
    assert p.control(3.5, (1.0, 0.0)) == (0.0,)
    p = build_policy("schedule:0.0:0.1,2.0:0.4@4.0", spec, (1.0, 0.0))
    assert p.control(2.5, None) == (0.4,)
    assert p.control(4.5, None) == (0.1,)
    p = build_policy("rotation_delta:0.5", spec, (1.0, 0.0))
    assert p.control(0.0, (1.0, 0.0))[0] == pytest.approx(1.0)  # full speed at angle 0
    with pytest.raises(ConfigError):
        build_policy("warp:9", spec, (1.0, 0.0))
    with pytest.raises(ConfigError):
        build_policy("steer_hold:1.0", spec, (1.0, 0.0))
    with pytest.raises(ConfigError):
        build_policy("", spec, (1.0, 0.0))


def test_custom_system_from_config():
    cfg = parse_config("""
[system]
name = custom
region = box
lower = [-1.0]
upper = [1.0]
dynamics = [-y1 + u1]
cost = y1^2
[grid]
state_resolution = [5]
control_resolution = 5
[program]
y0 = [0.5]
""")
    spec = build_system(cfg.system)
    assert spec.dim_state == 1
    assert spec.dynamics_at(np.array([0.5]), np.array([0.25]))[0] == \
        pytest.approx(-0.25)
    assert spec.bound_f >= 2.0  # sampled bound with headroom

    # a bare number is an expression too, kept as written
    cfg = parse_config("""
[system]
name = custom
region = box
dynamics = [0, -y1]
first_integrals = [2]
cost = 1
""")
    assert cfg.system.dynamics == ("0", "-y1")
    assert cfg.system.first_integrals == ("2",)
    assert cfg.system.cost == "1"
    spec = build_system(cfg.system)
    assert spec.dynamics_at(np.array([0.5, 0.0]), np.array([0.0])).tolist() == \
        [0.0, -0.5]


# a box system with two controls, for the value and policy errors below
TWO_CONTROLS = """\
[system]
name = custom
region = box
dynamics = [-y1 + u1, -y2 + u2]
control_lower = [-1.0, -1.0]
control_upper = [1.0, 1.0]
cost = y1^2 + y2^2

[grid]
state_resolution = [3, 3]
control_resolution = 3

[program]
y0 = [0.0, 0.0]

[simulate]
policy = constant:0.5:-0.5
horizons = [1.0]
"""


def _edited(text: str, key: str, value: str) -> tuple[str, int]:
    """``text`` with the line of ``key`` set to ``value`` (a key it lacks goes
    before ``cost``), and that line's number."""
    lines = text.splitlines()
    at = next((i for i, line in enumerate(lines) if line.startswith(f"{key} =")), None)
    if at is None:
        at = next(i for i, line in enumerate(lines) if line.startswith("cost ="))
        lines.insert(at, "")
    lines[at] = f"{key} = {value}"
    return "\n".join(lines) + "\n", at + 1


def _config_error_of(tmp_path, capsys, text: str, command: str = "simulate") -> str:
    """The one stderr line of ``command`` on ``text``, which must exit 2."""
    config_path = tmp_path / "study.conf"
    config_path.write_text(text)
    assert main([command, "--config", str(config_path), "--out", str(tmp_path / "o")]) == 2
    [line] = capsys.readouterr().err.strip().splitlines()
    return line


@pytest.mark.parametrize("key,value,message", [
    ("cost", "007", "cost: cost_text '007': integer '007' has a leading zero (at position 0)"),
    ("cost", "1_000", "cost: cost_text '1_000': '1_000' is not a decimal number (at position 0)"),
    ("dynamics", "[007, -y2 + u2]", "dynamics: dynamics_text [007, -y2 + u2]: integer '007' "
                                    "has a leading zero (at position 0)"),
    ("first_integrals", "[1_000]", "first_integrals: first integral '1_000': '1_000' is not "
                                   "a decimal number (at position 0)"),
], ids=["cost-leading-zero", "cost-underscore", "dynamics-item", "first-integral-item"])
def test_a_bare_number_expression_is_read_as_written(tmp_path, capsys, key, value, message):
    # float() would read each of these as a number; the expression grammar does not
    text, line = _edited(TWO_CONTROLS, key, value)
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert str(err.value) == f"line {line}: {message}"
    assert _config_error_of(tmp_path, capsys, text) == f"error: line {line}: {message}"


@pytest.mark.parametrize("policy,message", [
    ("bogus:1", "unknown policy kind 'bogus'"),
    ("schedule:1:0.5", "malformed policy 'schedule:1:0.5': schedule needs matching "
                       "times/values starting at t=0"),
    *((policy, f"policy {policy!r} gives a control of length 1, the system has 2 controls")
      for policy in ("constant:0.5", "steer_hold:1:1:0", "schedule:0:1,2:-1",
                     "rotation_delta:0.5")),
])
def test_a_policy_error_names_the_policy_line(tmp_path, capsys, policy, message):
    assert parse_config(TWO_CONTROLS).simulate.policy == "constant:0.5:-0.5"
    text, line = _edited(TWO_CONTROLS, "policy", policy)
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert str(err.value) == f"line {line}: {message}"
    assert _config_error_of(tmp_path, capsys, text) == f"error: line {line}: {message}"


SCALAR_DRIFT = """\
[system]
name = scalar-drift

[grid]
state_resolution = [4]

[program]
y0 = [0.0]

[simulate]
policy = constant:0.5
horizons = [1.0]
"""


@pytest.mark.parametrize("text,cause", [
    (SCALAR_DRIFT, "malformed policy 'rotation_delta:0.5': variable 'y2' out of range "
                   "(dimension 1) (at position 38)"),
    (TWO_CONTROLS, "policy 'rotation_delta:0.5' gives a control of length 1, the system has "
                   "2 controls"),
], ids=["one-state", "two-controls"])
def test_periodic_deltas_the_system_cannot_run_are_a_config_error(tmp_path, capsys, text,
                                                                   cause):
    # the rotation's angle law reads y1 and y2 and gives one control: on these
    # systems simulate crashed with a traceback, or failed simulate.completed
    text += "periodic_deltas = [0.5]\n"
    message = f"line {text.count(chr(10))}: periodic_deltas: {cause}"
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert str(err.value) == message
    assert _config_error_of(tmp_path, capsys, text) == f"error: {message}"


def _array(values) -> str:
    return "[" + ", ".join(repr(v) for v in values) + "]"


_COORDINATE = st.floats(-0.5, 2.0).map(lambda v: round(v, 3))


@st.composite
def _grid_configs(draw) -> str:
    if draw(st.booleans()):
        inner = draw(_COORDINATE)
        outer = inner if draw(st.booleans()) else draw(_COORDINATE)
        region = f"name = rotation\ninner_radius = {inner!r}\nouter_radius = {outer!r}"
        y0 = ((inner + outer) / 2.0, 0.0)
    else:
        dim = draw(st.integers(1, 3))
        lower = [draw(_COORDINATE) for _ in range(dim)]
        upper = [draw(_COORDINATE) for _ in range(dim)]
        region = f"name = frozen\nlower = {_array(lower)}\nupper = {_array(upper)}"
        y0 = [(lo + hi) / 2.0 for lo, hi in zip(lower, upper)]
    resolution = draw(st.lists(st.integers(-1, 8), max_size=3))
    return (f"[system]\n{region}\n[grid]\nstate_resolution = {_array(resolution)}\n"
            f"control_resolution = {draw(st.integers(-1, 4))}\n[basis]\ndegree = 2\n"
            f"[program]\ny0 = {_array(y0)}\n")


@settings(max_examples=60, deadline=None)
@given(_grid_configs())
def test_grid_configs_are_rejected_or_run(text):
    try:
        cfg = parse_config(text)
    except ConfigError:
        return
    assert isinstance(run_study(cfg, sections=("oracle",)), ReportBundle)


def test_frozen_study_all_variants_match_oracle(tmp_path):
    cfg = parse_config(FROZEN_STUDY)
    bundle = run_study(cfg, sections=("solve", "simulate"), jobs=1)
    assert bundle.all_passed()
    spec = build_system(cfg.system)
    reference = frozen_value(spec, (0.25, 0.25)).value
    for name in ("ergodic.value", "nonergodic.value",
                 "discounted[rate=1].value", "perturbed[eps=0].value"):
        assert bundle.values[name] == pytest.approx(reference, abs=1e-6)
    assert bundle.values["cesaro[T=2]"] == pytest.approx(reference, abs=1e-6)
    assert bundle.values["abel[rate=1]"] == pytest.approx(reference, abs=1e-6)
    checked = {entry["name"] for entry in bundle.invariants}
    assert "discounted_lp_below_abel[rate=1]" in checked
    assert "cesaro_above_dual_bound" in checked
    assert "w_residual_nonincreasing" in checked


def test_constant_cost_study_everything_equals_constant():
    cfg = parse_config("""
[system]
name = frozen
cost = 3
lower = [0.0, 0.0]
upper = [1.0, 1.0]
[grid]
state_resolution = [2, 2]
control_resolution = 3
[program]
variants = [ergodic, nonergodic, discounted, perturbed]
y0 = [0.25, 0.25]
discount_rates = [0.5]
epsilons = [0.0]
""")
    bundle = run_study(cfg, sections=("solve",))
    assert bundle.all_passed()
    for name in ("ergodic.value", "nonergodic.value",
                 "discounted[rate=0.5].value", "perturbed[eps=0].value"):
        assert bundle.values[name] == pytest.approx(3.0, abs=1e-7)


def test_report_round_trip_and_csv_layout(tmp_path):
    cfg = parse_config(FROZEN_STUDY)
    bundle = run_study(cfg, sections=("solve",))
    out = tmp_path / "report"
    written = emit_report(bundle, str(out), formats=("json", "csv-dir"))
    with open(out / "report.json") as fh:
        parsed = json.load(fh)
    assert parsed == json.loads(json.dumps(bundle.to_dict()))
    assert (out / "values.csv").exists()
    assert (out / "duals.csv").exists()
    assert (out / "measures").is_dir()
    # single-epsilon study produces no sweep tables, hence no sweeps directory
    assert not (out / "sweeps").exists()
    assert all(os.path.exists(p) for p in written)


def test_epsilon_sweep_csv(tmp_path):
    cfg = parse_config("""
[system]
name = rotation
[grid]
state_resolution = [3, 16]
control_resolution = 3
[program]
variants = [perturbed]
y0 = [1.0, 0.0]
epsilons = [0.1, 0.01, 0.001]
[output]
formats = [csv-dir]
""")
    bundle = run_study(cfg, sections=("solve",))
    out = tmp_path / "sweepy"
    emit_report(bundle, str(out), formats=("csv-dir",))
    path = out / "sweeps" / "epsilon_sweep.csv"
    assert path.exists()
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "epsilon,value,monotone_nondecreasing_in_epsilon"
    assert len(lines) == 4  # header + one row per epsilon
    assert all(line.endswith("True") for line in lines[1:])


def test_reports_are_byte_identical(tmp_path):
    cfg = parse_config(FROZEN_STUDY)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    emit_report(run_study(cfg, sections=("solve",)), str(out1), ("json",))
    emit_report(run_study(cfg, sections=("solve",)), str(out2), ("json",))
    assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()


ACCEPTANCE_CONFIG = Path(__file__).parent.parent / "configs" / "rotation_acceptance.conf"
FROZEN_CONFIG = ACCEPTANCE_CONFIG.with_name("frozen.conf")


@pytest.mark.parametrize("cost,message", [
    (" + ".join(["y1"] * 201), f"expression nests deeper than {exprs.MAX_DEPTH} levels"),
    ("1e999*y1 + u1^2", "number '1e999' is not finite (at position 0)"),
    ("+".join(["y1"] * 1000), f"expression nests deeper than {exprs.MAX_DEPTH} levels"),
], ids=["201-term-sum", "infinite-literal", "1000-term-sum"])
def test_a_cost_that_would_not_compile_is_a_config_error(tmp_path, capsys, cost, message):
    lines = FROZEN_CONFIG.read_text().splitlines()
    [line] = [i for i, text in enumerate(lines, start=1) if text.startswith("cost =")]
    lines[line - 1] = f"cost = {cost}"
    config_path = tmp_path / "study.conf"
    config_path.write_text("\n".join(lines))
    assert main(["solve", "--config", str(config_path), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: line {line}: cost: cost_text {cost!r}: {message}")
    assert err.count(cost) == 1


@pytest.mark.parametrize("cost,message", [
    ("y1 + 007", "integer '007' has a leading zero (at position 5)"),
    ("1or y1", "'1or' is not a decimal number (at position 0)"),
], ids=["leading-zero", "number-run-into-a-name"])
def test_a_bad_number_prints_only_the_config_error(tmp_path, capfd, cost, message):
    # in a fresh interpreter, whose stderr is this process's, so that a warning
    # of Python's own parser would be printed there, not caught by pytest
    lines = FROZEN_CONFIG.read_text().splitlines()
    [line] = [i for i, text in enumerate(lines, start=1) if text.startswith("cost =")]
    lines[line - 1] = f"cost = {cost}"
    config_path = tmp_path / "study.conf"
    config_path.write_text("\n".join(lines))
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-m", "occlp.cli", "solve", "--config",
                           str(config_path), "--out", str(tmp_path / "o")],
                          env={**os.environ, "PYTHONPATH": path}, timeout=120)
    assert done.returncode == 2
    assert capfd.readouterr().err == f"error: line {line}: cost: cost_text {cost!r}: {message}\n"


def test_worker_pool_does_not_change_results(tmp_path):
    cfg = parse_config(FROZEN_STUDY)
    serial = run_study(cfg, sections=("solve",), jobs=1)
    pooled = run_study(cfg, sections=("solve",), jobs=4)
    assert serial.values == pooled.values
    assert serial.invariants == pooled.invariants
    # the acceptance study's reports, byte for byte, serial and pooled
    cfg = parse_config(ACCEPTANCE_CONFIG.read_text())
    for cmd in ("solve", "certify"):
        reports = []
        for jobs in (1, 2):
            out = tmp_path / f"{cmd}-{jobs}"
            emit_report(run_study(cfg, sections=(cmd,), jobs=jobs), str(out), ("json",))
            reports.append((out / "report.json").read_bytes())
        assert reports[0] == reports[1], cmd


@pytest.mark.parametrize("jobs", [1, 2, 8])
def test_pool_map_returns_results_in_item_order(jobs):
    # later items finish first, so completion order is not item order; 8 jobs
    # start more workers than most machines have CPUs
    def slow_square(k):
        time.sleep(0.002 * (6 - k))
        return k * k
    assert cli._pool_map(slow_square, list(range(6)), jobs) == [k * k for k in range(6)]


def test_pool_map_with_one_job_starts_no_thread(monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("a pool was started")
    monkeypatch.setattr(cli.concurrent.futures, "ThreadPoolExecutor", no_pool)
    main_thread = threading.get_ident()
    assert cli._pool_map(lambda k: threading.get_ident(), [0, 1, 2], 1) == [main_thread] * 3
    assert cli._pool_map(lambda k: threading.get_ident(), [0], 4) == [main_thread]


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity here")
def test_pool_workers_start_on_their_own_cpus_then_release_them(monkeypatch):
    cpus = sorted(os.sched_getaffinity(0))
    calls, real = [], os.sched_setaffinity

    def recording(pid, mask):
        calls.append((threading.get_ident(), set(mask)))
        real(pid, mask)
    monkeypatch.setattr(os, "sched_setaffinity", recording)
    both_started = threading.Barrier(2, timeout=30)

    def task(k):
        both_started.wait()
        return threading.get_ident(), os.sched_getaffinity(0)
    results = cli._pool_map(task, [0, 1], 2)
    # every task runs with the process's whole CPU set
    assert [mask for _, mask in results] == [set(cpus)] * 2
    workers = {ident for ident, _ in results}
    assert len(workers) == 2
    # each worker first took one CPU, worker k CPU k (mod their count), then
    # gave the whole set back
    firsts = []
    for worker in workers:
        own = [mask for ident, mask in calls if ident == worker]
        assert len(own) == 2 and len(own[0]) == 1 and own[1] == set(cpus)
        firsts.append(own[0])
    assert sorted(min(mask) for mask in firsts) == sorted(cpus[k % len(cpus)] for k in (0, 1))
    assert os.sched_getaffinity(0) == set(cpus)


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity"), reason="no CPU affinity here")
def test_jobs_default_to_the_cpus_the_process_may_use(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert cli._build_arg_parser().parse_args(["solve"]).jobs == 1
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {1, 3, 5})
    assert cli._build_arg_parser().parse_args(["solve"]).jobs == 3


def test_frozen_config_passes_every_command_and_matches_the_control_scan():
    cfg = parse_config(FROZEN_CONFIG.read_text())
    bundles = {cmd: run_study(cfg, sections=(cmd,)) for cmd in cli._ALL_SECTIONS}
    for cmd, bundle in bundles.items():
        assert bundle.all_passed(), (cmd, [e for e in bundle.invariants if not e["passed"]])
    scan = bundles["oracle"].values["oracle.frozen_value"]
    assert scan == 0.25
    values = {k: v for k, v in bundles["solve"].values.items() if k.endswith(".value")}
    assert sorted(values) == ["discounted[rate=1].value", "ergodic.value",
                              "nonergodic.value", "perturbed[eps=0].value"]
    assert values == pytest.approx(dict.fromkeys(values, scan), abs=1e-9)


def test_info_log_says_where_the_acceptance_runs_park(caplog):
    cfg = parse_config(ACCEPTANCE_CONFIG.read_text())
    with caplog.at_level(logging.INFO, logger="occlp"):
        run_study(cfg, sections=("simulate",))
    lines = [r.getMessage() for r in caplog.records if r.name == "occlp.simulate"]
    # steered for pi, then held at u = 0: both held-control runs park on the
    # first held step; the periodic-family laws keep moving
    assert lines[0].startswith("integrate: 200000 steps, 2 held-control runs, "
                               "parked at step 3142, ")
    assert lines[1].startswith("integrate: 120000 steps, 2 held-control runs, "
                               "parked at step 315, ")
    assert len(lines) == 5
    assert all(", closed-loop law, not parked, " in line for line in lines[2:])


@pytest.mark.parametrize("key,value", [
    ("discount_rates", "[nan]"), ("abel_rates", "[nan]"), ("dt", "nan"), ("dt", "inf"),
    ("horizons", "[inf]"), ("abel_horizon", "inf"), ("periodic_dt", "nan"),
    ("epsilons", "[inf]"), ("abel_dt", "1e999"), ("inner_radius", "-inf"),
])
def test_non_finite_numbers_are_config_errors(tmp_path, capsys, key, value):
    # float() reads all of these, and nan and inf pass every "> 0" check
    lines = ACCEPTANCE_CONFIG.read_text().splitlines()
    [line] = [i for i, text in enumerate(lines, start=1) if text.startswith(f"{key} =")]
    lines[line - 1] = f"{key} = {value}"
    config_path = tmp_path / "study.conf"
    config_path.write_text("\n".join(lines))
    assert main(["simulate", "--config", str(config_path), "--out", str(tmp_path / "o")]) == 2
    shown = repr(float(value.strip("[]")))
    assert capsys.readouterr().err.strip() == (f"error: line {line}: {key} must be finite, "
                                              f"got {shown}")


# the acceptance config's annulus keys, dropped where a box system is edited in
_NO_RADII = {"inner_radius": None, "outer_radius": None}


@pytest.mark.parametrize("edits,at,message", [
    ({"cost": "1e999"}, "cost", "cost: cost_text '1e999': number '1e999' is not finite"),
    ({"cost": "fast"}, "cost", "cost: cost_text 'fast': unknown name 'fast'"),
    ({"cost": "y3"}, "cost", "cost: cost_text 'y3'"),
    ({"inner_radius": "2.0"}, "inner_radius", "inner_radius: annulus needs 0 < inner <= outer"),
    ({"name": "spinning"}, "name", "name: unknown system name 'spinning'"),
    ({"name": "frozen", "cost": "u2", **_NO_RADII}, "cost", "cost: cost_text 'u2'"),
    # a custom system without a dynamics key: the error takes the line of `name`
    ({"name": "custom"}, "name", "dynamics: custom systems need a dynamics array"),
    ({"name": "custom\nregion = annulus\ndynamics = [-y2 * u1]"}, "dynamics",
     r"dynamics: dynamics_text \[-y2 \* u1\] has 1 components, state dim 2"),
    ({"name": "custom\nregion = annulus\ndynamics = [-y2 * u1, y1 * u1]\n"
              "first_integrals = [y1^2 + y2^2, u1]"}, "first_integrals",
     "first_integrals: first integral 'u1'"),
    ({"name": "custom\nregion = box\ndynamics = [-y1 + u1, -y2]\ncontrol_lower = [2.0]",
      **_NO_RADII}, "control_lower", "control_lower: control box needs lower <= upper"),
])
def test_system_build_errors_name_the_line_and_the_key(tmp_path, capsys, edits, at, message):
    lines = ACCEPTANCE_CONFIG.read_text().splitlines()
    for key, value in edits.items():
        [i] = [i for i, text in enumerate(lines) if text.startswith(f"{key} =")]
        lines[i] = "" if value is None else f"{key} = {value}"
    text = "\n".join(lines)
    [line] = [i for i, t in enumerate(text.splitlines(), start=1) if t.startswith(f"{at} =")]
    with pytest.raises(ConfigError, match=f"^line {line}: {message}"):
        parse_config(text)
    config_path = tmp_path / "study.conf"
    config_path.write_text(text)
    assert main(["solve", "--config", str(config_path), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith(f"error: line {line}: ")


def test_rotation_acceptance_config_study_passes():
    cfg = parse_config(ACCEPTANCE_CONFIG.read_text())
    bundle = run_study(cfg, sections=("solve", "sweep"), jobs=2)
    assert bundle.all_passed()
    assert bundle.values["nonergodic.value"] == pytest.approx(-1.0, abs=0.05)
    assert bundle.values["ergodic.value"] == pytest.approx(-1.5, abs=0.05)
    assert bundle.values["nonergodic.mu"] == pytest.approx(
        bundle.values["nonergodic.value"], abs=1e-6)
    eps_rows = bundle.tables["epsilon_sweep"]["rows"]
    assert [row[0] for row in eps_rows] == sorted(cfg.program.epsilons)
    assert all(row[2] for row in eps_rows)


# the program variants each command reads, and checks of its own that read them
READS = {"simulate": {"nonergodic", "discounted"},
         "sweep": {"discounted", "perturbed"},
         "certify": {"nonergodic"}}
CHECKS = {"simulate": ("discounted_lp_below_abel[rate=0.005]", "cesaro_above_dual_bound"),
          "sweep": ("perturbed_monotone_in_epsilon", "perturbed_small_eps_convergence"),
          "certify": ("certify.optimal_gamma_feasible",)}


@pytest.fixture(scope="module")
def acceptance_bundles():
    cfg = parse_config(ACCEPTANCE_CONFIG.read_text())
    return cfg, {cmd: run_study(cfg, sections=(cmd,), jobs=2) for cmd in ("solve", *READS)}


def _solved(bundle) -> list[str]:
    """The variant of every LP the bundle reports a status for."""
    return [key.partition("[")[0].removesuffix(".status")
            for key in bundle.values if key.endswith(".status")]


@pytest.mark.parametrize("command", sorted(READS))
def test_each_command_solves_only_the_lps_it_reads(acceptance_bundles, command):
    cfg, bundles = acceptance_bundles
    bundle, full = bundles[command], bundles["solve"]
    assert bundle.all_passed()
    assert set(_solved(bundle)) == READS[command] & set(cfg.program.variants)
    checked = {entry["name"] for entry in bundle.invariants}
    assert set(CHECKS[command]) <= checked
    # whatever it shares with the solve report is the same
    for section in ("values", "certificates", "measures", "tables"):
        ours, theirs = getattr(bundle, section), getattr(full, section)
        assert all(ours[key] == theirs[key] for key in ours.keys() & theirs.keys())
    assert all(row in full.duals for row in bundle.duals)
    full_invariants = {entry["name"]: entry for entry in full.invariants}
    assert all(entry == full_invariants[entry["name"]] for entry in bundle.invariants
               if entry["name"] in full_invariants)


def test_solve_solves_every_configured_lp(acceptance_bundles):
    cfg, bundles = acceptance_bundles
    no_policy = dataclasses.replace(cfg, simulate=dataclasses.replace(cfg.simulate, policy=""))
    for bundle in (bundles["solve"], run_study(no_policy, sections=("solve", "simulate"))):
        assert len(_solved(bundle)) == 7
        assert set(_solved(bundle)) == set(cfg.program.variants)


@pytest.mark.parametrize("command,variant,tables", [
    ("certify", "nonergodic", ()),
    ("sweep", "discounted", ("discount_sweep",)),
], ids=["certify-nonergodic", "sweep-discounted"])
def test_a_section_solves_its_own_lp_when_its_variant_is_not_configured(
        acceptance_bundles, command, variant, tables):
    cfg, bundles = acceptance_bundles
    full = bundles[command]
    assert variant in _solved(full)
    ergodic_only = dataclasses.replace(
        cfg, program=dataclasses.replace(cfg.program, variants=("ergodic",)))
    bundle = run_study(ergodic_only, sections=(command,))
    assert bundle.all_passed()
    assert _solved(bundle) == []

    def section_values(b):
        return {k: v for k, v in b.values.items() if k.startswith(f"{command}.")}
    assert section_values(bundle) == section_values(full)
    assert bundle.tables == {name: full.tables[name] for name in tables}


def test_one_cli_run_builds_its_system_once(tmp_path, monkeypatch):
    # parse_config builds the spec to validate the config, and the study
    # reads that spec rather than building it again
    builds, build = [], config.build_system
    monkeypatch.setattr(config, "build_system", lambda cfg: builds.append(cfg) or build(cfg))
    path = tmp_path / "study.conf"
    path.write_text(FROZEN_STUDY, encoding="utf-8")
    assert main(["solve", "--config", str(path), "--out", str(tmp_path / "out"),
                 "--jobs", "1"]) == 0
    assert len(builds) == 1


def test_one_study_builds_its_simulate_policy_once(monkeypatch):
    # parse_config builds the policy to validate it, and the simulate section
    # runs that policy rather than parsing its law again; a changed policy
    # text is built anew
    laws, family = [], config.rotation_delta_family
    monkeypatch.setattr(config, "rotation_delta_family",
                        lambda *args: laws.append(args[2]) or family(*args))
    text = ACCEPTANCE_CONFIG.read_text()
    for key, value in (("variants", "[ergodic]"), ("policy", "rotation_delta:0.5"),
                       ("horizons", "[2.0]"), ("abel_rates", "[]"),
                       ("periodic_deltas", "[]")):
        text = re.sub(rf"(?m)^{key} = .*$", f"{key} = {value}", text)
    cfg = parse_config(text)
    bundle = run_study(cfg, sections=("simulate",))
    assert laws == [[0.5]] and "cesaro[T=2]" in bundle.values
    run_study(cfg, sections=("simulate",))
    assert laws == [[0.5]]
    policy = dataclasses.replace(cfg.simulate, policy="rotation_delta:0.25")
    run_study(dataclasses.replace(cfg, simulate=policy), sections=("simulate",))
    assert laws == [[0.5], [0.25]]


def test_a_changed_system_section_is_built_anew():
    # a parsed config is frozen: a changed section is a new object, whose
    # spec is built anew, and an unchanged one keeps its spec
    cfg = parse_config(FROZEN_STUDY)
    spec = cfg.system_spec()
    assert cfg.system_spec() is spec and spec == build_system(cfg.system)
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.system.cost = "y2"
    changed = dataclasses.replace(cfg, system=dataclasses.replace(cfg.system, cost="y2"))
    assert changed.system_spec().cost_text == "y2" and cfg.system_spec() is spec
    assert dataclasses.replace(cfg).system_spec() is spec


def test_info_log_has_one_line_per_lp(caplog):
    cfg = parse_config(FROZEN_STUDY)
    with caplog.at_level(logging.INFO, logger="occlp"):
        bundle = run_study(cfg, sections=("solve",))
    lines = [r.getMessage() for r in caplog.records if r.name == "occlp.programs"]
    names = [key.removesuffix(".status") for key in bundle.values if key.endswith(".status")]
    assert [line.partition(": ")[0] for line in lines] == names
    pattern = (r"\S+: \d+ rows, master (\d+) of (\d+) columns, (no xi|xi at 2 of 9 controls), "
               r"\d+ pricing rounds, fallback (ran|not run), "
               r"start (cold|warm from \S+|same LP as \S+), \d+ iterations, status optimal, "
               r"raw minimum \S+, xi_canonical (True|False), cap_dual \S+, "
               r"refinement (not run|\d+ iterations, master (\d+) of (\d+) face columns, "
               r"(\d+) rounds)")
    matches = [re.fullmatch(pattern, line) for line in lines]
    assert all(matches)
    # these LPs are below the master's crossover: each holds every gamma
    # column, once, and with the frozen dynamics (0, multilinear in u1) the xi
    # columns at the controls -1 and 1 of the 4 states; the model of each
    # refinement holds the face columns among them, in 1 round
    n_atoms = bundle.values["grid.atom_count"]
    assert all(int(m[1]) == (n_atoms if m[3] == "no xi" else n_atoms + 4 * 2) for m in matches)
    assert all(int(m[2]) == (n_atoms if m[3] == "no xi" else 2 * n_atoms) for m in matches)
    assert all(int(m[8]) <= int(m[9]) and m[10] == "1" for m in matches if m[8])
    assert all(", 1 pricing rounds, fallback not run, " in line for line in lines)
    # perturbed[eps=0] is the nonergodic LP: it logs its line without a solve
    [shared] = [line for line in lines if line.startswith("perturbed[eps=0]:")]
    assert ", start same LP as nonergodic, " in shared
    [nonergodic] = [line for line in lines if line.startswith("nonergodic:")]
    assert f"{2 * bundle.values['grid.atom_count']} columns" in nonergodic
    assert "xi_canonical True" in nonergodic
    # only a coupled program whose xi block is weightless gets refined
    assert re.search(r"refinement \d+ iterations, master \d+ of \d+ face columns, 1 rounds$",
                     nonergodic)
    assert all(line.endswith("refinement not run") for line in lines
               if line.startswith(("ergodic:", "discounted")))


# assemblies of B, C and c in a study of the acceptance config's sections:
# every LP and membership check of a study reads its one assembly, whichever
# sections it runs; convergence also assembles the blocks of the refined grid
# and of degrees 2 and 3 of its degree sweep, and oracle reads none
STUDY_ASSEMBLIES = {"solve": 1, "simulate": 1, "sweep": 1, "certify": 1,
                    "solve+simulate+sweep+certify": 1, "convergence": 4, "oracle": 0}


@pytest.mark.parametrize("command", STUDY_ASSEMBLIES)
def test_each_command_assembles_its_lp_blocks_once(monkeypatch, command):
    # the blocks' assembly: the cost vector, then B and C
    calls = []
    for name in ("assemble_cost_vector", "assemble_flow_matrix", "assemble_initial_matrix"):
        monkeypatch.setattr(grid_mod, name, lambda *args, name=name, fn=getattr(grid_mod, name):
                            calls.append(name) or fn(*args))
    bundle = run_study(parse_config(ACCEPTANCE_CONFIG.read_text()),
                       sections=tuple(command.split("+")))
    assert bundle.all_passed()
    assert sorted(calls) == sorted(["assemble_cost_vector", "assemble_flow_matrix",
                                    "assemble_initial_matrix"] * STUDY_ASSEMBLIES[command])


def test_convergence_reads_values_only_and_skips_the_refinement(monkeypatch):
    cfg = parse_config(ACCEPTANCE_CONFIG.read_text())
    refined = []
    refinement = programs._minimal_mass_refinement
    monkeypatch.setattr(programs, "_minimal_mass_refinement",
                        lambda *args: refined.append(1) or refinement(*args))
    skipped = run_study(cfg, sections=("convergence",)).to_dict()
    assert refined == []
    # the same study with every LP refined writes the same report
    monkeypatch.setattr(cli, "solve", lambda instance, refine: programs.solve(instance))
    assert run_study(cfg, sections=("convergence",)).to_dict() == skipped
    assert len(refined) == 4  # base, refined, degrees 2 and 3


def test_info_log_has_one_line_per_integration(caplog, monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[2])
        return integrate(*args, **kwargs)
    monkeypatch.setattr(simulate, "integrate", counted)
    cfg = parse_config("""
[system]
name = rotation
[grid]
state_resolution = [3, 8]
control_resolution = 3
[basis]
degree = 2
[program]
variants = [nonergodic]
[simulate]
policy = schedule:0:1,0.5:0@2
horizons = [3.0]
dt = 0.001
abel_rates = [1.0]
abel_horizon = 25.0
abel_dt = 0.01
periodic_deltas = [0.5]
periodic_dt = 0.01
""")
    with caplog.at_level(logging.INFO, logger="occlp"):
        run_study(cfg, sections=("simulate",))
    lines = [r.getMessage() for r in caplog.records if r.name == "occlp.simulate"]
    # the horizon run, the Abel run and the periodic candidate, in that order
    assert len(lines) == len(calls) == 3
    pattern = (r"integrate: (\d+) steps, (\d+ held-control runs|closed-loop law|feedback), "
               r"not parked, \d+\.\d{3} s")
    found = [re.fullmatch(pattern, line).groups() for line in lines]
    # two pieces per period of 2, over T = 3 and T = 25
    assert found[:2] == [("3000", "4 held-control runs"), ("2500", "26 held-control runs")]
    assert found[2][1] == "closed-loop law"
    # a policy with no law of expressions is asked step by step
    with caplog.at_level(logging.INFO, logger="occlp"):
        integrate(built("rotation"), (1.0, 0.0),
                  simulate.FeedbackPolicy(lambda y: (0.5,)), 0.05, 0.01)
    assert caplog.records[-1].getMessage().startswith("integrate: 5 steps, feedback, not parked, ")
    # a periodic schedule whose first period already maps the state to itself
    with caplog.at_level(logging.INFO, logger="occlp"):
        integrate(built("frozen", cost="y1 + u1^2"), (0.5, 0.5),
                  simulate.SchedulePolicy([0.0, 1.0], [1.0, -1.0], period=2.0), 5.0, 0.01)
    assert caplog.records[-1].getMessage().startswith(
        "integrate: 500 steps, 5 held-control runs, repeats a 200-step cycle from step 0, ")


def test_info_log_has_one_line_per_membership_run(caplog):
    # the horizon study's windows share one membership model: the shortest is
    # solved cold and each longer one warm from the window before it
    cfg = parse_config("""
[system]
name = rotation
[grid]
state_resolution = [3, 8]
control_resolution = 3
[basis]
degree = 2
[program]
variants = [nonergodic]
[simulate]
policy = constant:1
horizons = [1.0, 2.0, 4.0]
dt = 0.01
""")
    with caplog.at_level(logging.INFO, logger="occlp"):
        run_study(cfg, sections=("simulate",))
    lines = [r.getMessage() for r in caplog.records if r.name == "occlp.programs"
             and r.getMessage().startswith("membership")]
    # 73 columns over 5 basis rows are below the master's crossover, and with
    # the rotation's dynamics multilinear in u1 the model starts from the xi
    # columns at the controls -1 and 1 of the 24 states, and t
    pattern = (r"membership of measure (\d+): 10 rows, master 49 of 73 columns, "
               r"xi at 2 of 3 controls, 1 rounds, "
               r"start (cold|warm from measure \d+), \d+ iterations, status optimal, "
               r"omega_residual \S+")
    found = [re.fullmatch(pattern, line).groups() for line in lines]
    assert found == [("0", "cold"), ("1", "warm from measure 0"), ("2", "warm from measure 1")]

def test_m_size_certify_prices_its_refinement_and_membership(caplog, monkeypatch):
    # at [5, 128], degree 6, the refinement and the membership LP each run on
    # a restricted master smaller than the columns it prices, and the
    # certificate still holds on every atom of the grid
    text = re.sub(r"state_resolution = .*", "state_resolution = [5, 128]",
                  ACCEPTANCE_CONFIG.read_text())
    cfg = parse_config(re.sub(r"degree = .*", "degree = 6", text))
    certificates = []
    extract = cli.extract_dual_certificate
    monkeypatch.setattr(cli, "extract_dual_certificate",
                        lambda *args: certificates.append(extract(*args)) or certificates[-1])
    with caplog.at_level(logging.INFO, logger="occlp"):
        bundle = run_study(cfg, sections=("certify",))
    assert bundle.all_passed(), [e for e in bundle.invariants if not e["passed"]]
    lines = [r.getMessage() for r in caplog.records if r.name == "occlp.programs"]
    [refinement] = [re.search(r"refinement \d+ iterations, master (\d+) of (\d+) face columns, "
                              r"\d+ rounds$", line)
                    for line in lines if line.startswith("nonergodic:")]
    [membership] = [re.search(r": 54 rows, master (\d+) of (5761) columns, ", line)
                    for line in lines if line.startswith("membership")]
    for master, columns in (refinement.groups(), membership.groups()):
        assert int(master) < int(columns)
    spec = build_system(cfg.system)
    grid = build_grid(spec, (5, 128), cfg.grid.control_resolution)
    basis = basis_for_region(spec.region, 6)
    assert certificates
    for certificate in certificates:
        slacks = programs.certificate_slacks(certificate, grid, basis, spec)
        assert min(map(np.min, slacks)) >= -tolerances.CERTIFICATE_TOL


def test_info_log_names_how_each_lp_started(caplog):
    # report order differs from the chain's order of decreasing epsilon
    cfg = parse_config("[program]\nvariants = [ergodic, nonergodic, perturbed]\n"
                       "epsilons = [0.001, 0.0, 0.1, 0.01]\n")
    with caplog.at_level(logging.INFO, logger="occlp"):
        run_study(cfg, sections=("solve",), jobs=2)
    starts = [re.search(r"^(\S+): .*, start (.+?), \d+ iterations", r.getMessage()).groups()
              for r in caplog.records if r.name == "occlp.programs"]
    assert starts == [("ergodic", "cold"), ("nonergodic", "cold"),
                      ("perturbed[eps=0.001]", "warm from perturbed[eps=0.01]"),
                      ("perturbed[eps=0]", "same LP as nonergodic"),
                      ("perturbed[eps=0.1]", "cold"),
                      ("perturbed[eps=0.01]", "warm from perturbed[eps=0.1]")]


def test_shared_zero_epsilon_entries_match_its_own_solve():
    # with nonergodic configured, perturbed[eps=0] takes its solution; every
    # report entry must be what solving perturbed[eps=0] itself gives
    def entries(variants):
        cfg = parse_config(SMALL_ROTATION_PERTURBED.format(variants=variants))
        data = run_study(cfg, sections=("solve",)).to_dict()
        name = "perturbed[eps=0]"
        return ({k: v for k, v in data["values"].items() if k.startswith(name + ".")},
                {k: v for k, v in data["measures"].items() if k.startswith(name + ".")},
                data["certificates"][name], [row for row in data["duals"] if row[0] == name])

    assert entries("[nonergodic, perturbed]") == entries("[perturbed]")


SMALL_ROTATION_PERTURBED = """
[grid]
state_resolution = [3, 16]
control_resolution = 5
[basis]
degree = 3
[program]
variants = {variants}
epsilons = [0.1, 0.0]
"""


def test_cli_main_paths(tmp_path, capsys, monkeypatch):
    config_path = tmp_path / "study.conf"
    config_path.write_text(FROZEN_STUDY)
    out_dir = tmp_path / "out"
    assert main(["solve", "--config", str(config_path),
                 "--out", str(out_dir), "--jobs", "1"]) == 0
    assert (out_dir / "report.json").exists()

    assert main(["solve", "--config", str(tmp_path / "missing.conf")]) == 2

    bad = tmp_path / "bad.conf"
    bad.write_text("[basis]\ndegree = 0\n")
    assert main(["solve", "--config", str(bad)]) == 2
    assert "error: line 2: degree must be >= 1" in capsys.readouterr().err

    bad.write_text("[grid]\nstate_resolution = [1, 64]\n")
    assert main(["solve", "--config", str(bad)]) == 2
    assert "line 2: annulus resolutions" in capsys.readouterr().err

    assert main(["--print-defaults", "solve"]) == 0
    assert "[system]" in capsys.readouterr().out


def test_print_defaults_needs_no_command(tmp_path, capsys):
    assert main(["--print-defaults"]) == 0
    assert parse_config(capsys.readouterr().out) == StudyConfig()
    config_path = tmp_path / "study.conf"
    config_path.write_text(FROZEN_STUDY)
    with pytest.raises(SystemExit) as exit_info:
        main(["--config", str(config_path)])
    assert exit_info.value.code == 2
    assert "a command is required" in capsys.readouterr().err


def test_unreadable_config_is_an_error_not_a_traceback(tmp_path, capsys):
    assert main(["oracle", "--config", str(tmp_path)]) == 2  # a directory
    assert f"error: cannot read config {tmp_path}" in capsys.readouterr().err

    latin1 = tmp_path / "latin1.conf"
    latin1.write_bytes("# café\n[system]\nname = rotation\n".encode("latin-1"))
    assert main(["oracle", "--config", str(latin1)]) == 2
    assert f"error: cannot read config {latin1}" in capsys.readouterr().err


@pytest.mark.parametrize("out", ["file", "file/report"])
def test_unwritable_report_path_is_an_error_not_a_traceback(tmp_path, capsys, out):
    config_path = tmp_path / "study.conf"
    config_path.write_text(FROZEN_STUDY)
    (tmp_path / "file").write_text("a regular file\n")
    out_dir = str(tmp_path / out)
    assert main(["solve", "--config", str(config_path), "--out", out_dir, "--jobs", "1"]) == 2
    assert f"error: cannot write report to {out_dir}" in capsys.readouterr().err


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_jobs_below_one_is_rejected(tmp_path, capsys, jobs):
    with pytest.raises(SystemExit) as exit_info:
        main(["solve", "--config", str(tmp_path / "unused.conf"), "--jobs", jobs])
    assert exit_info.value.code == 2
    assert f"--jobs must be at least 1, got {jobs}" in capsys.readouterr().err


def test_library_error_in_a_section_is_a_failed_invariant(tmp_path, capsys):
    # y1 drifts right from the boundary point y0 = (1, 0), so the run leaves the box
    config_path = tmp_path / "leave.conf"
    config_path.write_text("""
[system]
name = custom
region = box
dynamics = [1 + 0*y1, 0*y2]
[grid]
state_resolution = [4, 4]
control_resolution = 3
[basis]
degree = 2
[program]
variants = [ergodic]
[simulate]
policy = constant:0
horizons = [1.0, 5.0]
""")
    out_dir = tmp_path / "o"
    assert main(["simulate", "--config", str(config_path), "--out", str(out_dir)]) == 1
    err = capsys.readouterr().err
    assert "FAILED: simulate.completed: StateConstraintError: trajectory leaves" in err
    assert "Traceback" not in err
    invariants = json.loads((out_dir / "report.json").read_text())["invariants"]
    detail = "StateConstraintError: trajectory leaves the region at t=0.001"
    assert {"name": "simulate.completed", "passed": False, "detail": detail} in invariants


@pytest.mark.parametrize("blowup", ["y1^2 + u1", "y1*y1 + u1", "exp(3*y1) + u1"])
def test_overflowing_trajectory_is_a_failed_invariant(blowup):
    # y1' > y1^2 blows up in finite time; Python's ** and exp raise OverflowError
    # where y1*y1 gives inf, and all three are one non-finite state
    cfg = parse_config(f"""
[system]
name = custom
region = box
lower = [-1.0, -1.0]
upper = [1.0, 1.0]
dynamics = [{blowup}, -y2 + y1]
cost = y2^2 + 0.5*u1^2
[grid]
state_resolution = [4, 4]
control_resolution = 3
[basis]
degree = 2
[program]
variants = [nonergodic]
y0 = [0.5, -0.5]
[simulate]
policy = constant:1
horizons = [5.0]
""")
    bundle = run_study(cfg, sections=("simulate",))
    [failed] = [entry for entry in bundle.invariants if not entry["passed"]]
    assert failed["name"] == "simulate.completed"
    assert re.fullmatch(r"SimulationError: non-finite state at t=[\d.]+: .+", failed["detail"])


# y1 falls from y0 = 0.5 out of the box and below 0, where sqrt and ^0.5 leave
# their domain; the sampled region y1 >= 0 keeps the system well defined
DOMAIN_LAYOUT = """
[system]
name = custom
region = box
lower = [0.0, -1.0]
upper = [1.0, 1.0]
dynamics = [{dynamics}, -y2]
cost = y2^2 + 0.5*u1^2
[grid]
state_resolution = [4, 4]
control_resolution = 3
[basis]
degree = 2
[program]
variants = [ergodic]
y0 = [0.5, -0.5]
[simulate]
policy = constant:0
horizons = [5.0]
"""


@pytest.mark.parametrize("dynamics", ["sqrt(y1) - 1 + u1", "y1^0.5 - 1 + u1"])
def test_domain_error_in_a_trajectory_is_a_failed_invariant(tmp_path, capsys, dynamics):
    text = DOMAIN_LAYOUT.format(dynamics=dynamics)
    bundle = run_study(parse_config(text), sections=("simulate",))
    [failed] = [entry for entry in bundle.invariants if not entry["passed"]]
    assert failed["name"] == "simulate.completed"
    assert re.fullmatch(r"SimulationError: non-finite state at t=[\d.]+: "
                        r"ValueError\('math domain error'\)", failed["detail"])

    config_path = tmp_path / "domain.conf"
    config_path.write_text(text)
    out_dir = tmp_path / "o"
    assert main(["simulate", "--config", str(config_path), "--out", str(out_dir)]) == 1
    err = capsys.readouterr().err
    assert f"FAILED: simulate.completed: {failed['detail']}" in err
    assert "Traceback" not in err
    invariants = json.loads((out_dir / "report.json").read_text())["invariants"]
    assert failed in invariants


@pytest.mark.parametrize("key,dynamics,cost", [
    ("dynamics", "sqrt(y1) - 1 + u1", "y2^2"),
    ("dynamics", "y1^0.5 - 1 + u1", "y2^2"),
    ("dynamics", "exp(1000 * y1) + u1", "y2^2"),
    ("cost", "-y1 + u1", "sqrt(y2)"),
])
def test_custom_system_that_is_not_finite_on_its_region_is_rejected(key, dynamics, cost):
    # on the box [-1, 1]^2 these leave their domain or overflow at sampled points
    text = (f"[system]\nname = custom\nregion = box\nlower = [-1.0, -1.0]\n"
            f"upper = [1.0, 1.0]\ndynamics = [{dynamics}, -y2]\ncost = {cost}\n"
            f"[program]\ny0 = [0.5, -0.5]\n")
    # declaring both bounds does not skip the sample
    for declared in ("", "bound_f = 10.0\nbound_k = 10.0\n"):
        line = 6 if key == "dynamics" else 7
        with pytest.raises(ConfigError,
                           match=f"^line {line}: {key} is not finite on the sampled state region"):
            parse_config(text.replace("[program]", declared + "[program]"))


def test_declared_bounds_are_kept_and_do_not_skip_the_finiteness_check(tmp_path, capsys):
    text = ("[system]\nname = custom\nregion = box\nlower = [-1.0, -1.0]\nupper = [1.0, 1.0]\n"
            "dynamics = [-y1 + u1, -y2]\ncost = y2^2\nbound_f = 3.0\nbound_k = 2.0\n"
            "[program]\ny0 = [0.5, -0.5]\n")
    spec = build_system(parse_config(text).system)
    assert (spec.bound_f, spec.bound_k) == (3.0, 2.0)

    config_path = tmp_path / "nan.conf"
    config_path.write_text(text.replace("-y1 + u1", "sqrt(y1) - 1 + u1"))
    assert main(["solve", "--config", str(config_path), "--out", str(tmp_path / "o")]) == 2
    assert ("error: line 6: dynamics is not finite on the sampled state region"
            in capsys.readouterr().err)


BOX_CUSTOM_SYSTEM = ("[system]\nname = custom\nregion = box\nlower = [-1.0, -1.0]\n"
                     "upper = [1.0, 1.0]\ndynamics = [-y1 + u1, -y2 + y1]\n"
                     "cost = y2^2 + 0.5*u1^2\n{bounds}[program]\ny0 = [0.5, -0.5]\n")


@pytest.mark.parametrize("bounds,line,message", [
    ("bound_f = 0.0\n", 8, "bound_f 0 is below its sampled maximum 2.74372 "),
    ("bound_f = 2.7\n", 8, "bound_f 2.7 is below its sampled maximum 2.74372 "),
    ("bound_f = 3.0\nbound_k = 1.25\n", 9, "bound_k 1.25 is below its sampled maximum 1.4216 "),
])
def test_a_declared_bound_below_the_sampled_maximum_is_a_config_error(tmp_path, capsys,
                                                                      bounds, line, message):
    # the sampled maximum is a lower bound on the sup; box-custom's ||f|| reaches
    # 2.74 and its |k| 1.42 on the 25 x 25 sample
    text = BOX_CUSTOM_SYSTEM.format(bounds=bounds)
    with pytest.raises(ConfigError, match=f"^line {line}: {re.escape(message)}on the state"):
        parse_config(text)
    config_path = tmp_path / "low.conf"
    config_path.write_text(text)
    assert main(["solve", "--config", str(config_path), "--out", str(tmp_path / "o")]) == 2
    assert f"error: line {line}: {message}" in capsys.readouterr().err
    # a bound at or above the sampled maximum is kept
    report = system.validate_bounds(build_system(parse_config(
        BOX_CUSTOM_SYSTEM.format(bounds="")).system))
    exact = f"bound_f = {report.max_dynamics_norm!r}\nbound_k = {report.max_cost_abs!r}\n"
    spec = build_system(parse_config(BOX_CUSTOM_SYSTEM.format(bounds=exact)).system)
    assert (spec.bound_f, spec.bound_k) == (report.max_dynamics_norm, report.max_cost_abs)


@pytest.mark.parametrize("outer", [1.5e6, 3.3e7, 7.77e9])
def test_an_exact_declared_bound_is_kept_at_any_scale(outer):
    # the rotation's sup ||f|| is its outer radius, which the sample reaches up
    # to rounding: the slack over the sampled maximum grows with the bound
    spec = build_system(parse_config(
        f"[system]\nname = rotation\ninner_radius = {outer / 3!r}\nouter_radius = {outer!r}\n"
        f"bound_f = {outer!r}\n[program]\ny0 = [{outer!r}, 0.0]\n").system)
    assert spec.bound_f == outer
    report = system.validate_bounds(spec)
    assert report.bound_f_ok and report.max_dynamics_norm == pytest.approx(outer, rel=1e-12)


# box-custom with a first integral, and a rotation on a box of half-width 1e6
# whose controls, multiples of 0.7 / 4, make y1 u1 and y2 u1 round apart
_INTEGRAL_SYSTEMS = {
    "box-custom": BOX_CUSTOM_SYSTEM.format(bounds="first_integrals = [{integral}]\n"),
    "wide-rotation": ("[system]\nname = custom\nregion = box\nlower = [-1e6, -1e6]\n"
                      "upper = [1e6, 1e6]\ndynamics = [u1*y2, -u1*y1]\ncost = y1\n"
                      "first_integrals = [{integral}]\ncontrol_lower = [-0.7]\n"
                      "control_upper = [0.7]\n[program]\ny0 = [0.5, -0.5]\n"),
}


@pytest.mark.parametrize("name,integral,message", [
    # y1' = -y1 + u1 reaches 1.96 at the cell centre y1 = -0.96 with u1 = 1
    ("box-custom", "y1", "first integral 'y1' is not conserved: its drift |grad F . f| "
                         "reaches 1.96 on the sampled state region"),
    # the gradient of sqrt(y1) is NaN at y1 < 0
    ("box-custom", "sqrt(y1)", "first integral 'sqrt(y1)': its drift grad F . f is not "
                               "finite on the sampled state region (sampled maximum nan)"),
    # the squared radius is conserved: its sampled drift, 1.2e-4, is rounding
    # in products of 1e12, which an absolute tolerance would reject
    ("wide-rotation", "y1^2 + y2^2", None),
], ids=["not-conserved", "not-finite", "relative-tolerance"])
def test_a_declared_first_integral_is_checked_on_the_bound_sample(tmp_path, capsys, name,
                                                                  integral, message):
    text = _INTEGRAL_SYSTEMS[name].format(integral=integral)
    if message is None:
        report = system.validate_bounds(build_system(parse_config(text).system))
        assert report.conserved == (True,) and report.max_drifts[0] > 1e-6
        return
    line = text.splitlines().index(f"first_integrals = [{integral}]") + 1
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert str(err.value) == f"line {line}: first_integrals: {message}"
    assert (_config_error_of(tmp_path, capsys, text, "solve")
            == f"error: line {line}: first_integrals: {message}")


# per built-in: text that makes its config valid, and a bound_f below its
# sampled maximum ||f|| (1.5, 0 and 1.96)
_BUILT_INS = {
    "rotation": ("", "0.1"),
    "frozen": ("[grid]\nstate_resolution = [4, 4]\n", "-1"),
    "scalar-drift": ("[grid]\nstate_resolution = [8]\n[program]\ny0 = [0.0]\n", "0.5"),
}


@pytest.mark.parametrize("name", list(_BUILT_INS))
def test_a_built_in_system_gets_the_custom_bound_check(name):
    tail, low_f = _BUILT_INS[name]

    def text(bound):
        return f"[system]\nname = {name}\n{bound}\n{tail}"
    spec = build_system(parse_config(text("")).system)
    report = system.validate_bounds(spec)
    # undeclared: the built-in's own bound_f and the sampled max |k|
    assert (spec.bound_f, spec.bound_k) == ({"rotation": 1.5, "frozen": 0.0,
                                             "scalar-drift": 2.0}[name], report.max_cost_abs)
    for key, low, sampled in (("bound_k", "0.1", report.max_cost_abs),
                              ("bound_f", low_f, report.max_dynamics_norm)):
        message = f"line 3: {key} {low} is below its sampled maximum {sampled:.6g} on the state"
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}"):
            parse_config(text(f"{key} = {low}"))
    # a declared bound at or above the sampled maximum is used
    assert build_system(parse_config(text("bound_f = 99")).system).bound_f == 99.0


# per built-in: the [system] keys of the custom system its preset declares
_PRESET_KEYS = {
    "rotation": "region = annulus\ndynamics = [u1*y2, -u1*y1]\nfirst_integrals = [y1^2 + y2^2]",
    "frozen": "region = box\ndynamics = [0, 0]",
    "scalar-drift": "region = box\nlower = [-1.0]\nupper = [1.0]\ndynamics = [-y1 + u1]",
}


@pytest.mark.parametrize("name", list(_BUILT_INS))
def test_a_built_in_system_is_the_custom_system_its_preset_declares(name):
    tail = _BUILT_INS[name][0]
    spec = build_system(parse_config(f"[system]\nname = {name}\ncost = y1 + u1^2\n"
                                     f"{tail}").system)
    custom = parse_config(f"[system]\nname = custom\ncost = y1 + u1^2\n{_PRESET_KEYS[name]}\n"
                          f"control_lower = [-1.0]\ncontrol_upper = [1.0]\n"
                          f"bound_f = {spec.bound_f!r}\nbound_k = {spec.bound_k!r}\n{tail}")
    # a bare number reads as a float: the frozen preset's 0 is the config's 0.0
    declared = build_system(custom.system)
    assert declared.dynamics == spec.dynamics
    assert dataclasses.replace(declared, dynamics_text=spec.dynamics_text) == spec
    assert oracle.rotates(spec) == (name == "rotation")
    assert oracle.is_frozen(spec) == (name == "frozen")


@pytest.mark.parametrize("section", [
    "name = rotation\ncontrol_lower = [-5.0]",
    "name = rotation\nlower = [-1.0, -1.0]",
    "name = rotation\nregion = annulus",
    "name = rotation\nfirst_integrals = [y1^2 + y2^2]",
    "name = frozen\ndynamics = [y1, y2]",
    "name = frozen\ninner_radius = 0.5",
    "name = scalar-drift\nlower = [-2.0]",
    "name = scalar-drift\ncontrol_upper = [2.0]",
    "name = custom\nregion = box\ndynamics = [-y1, -y2]\nouter_radius = 2.0",
    "name = custom\nregion = annulus\ndynamics = [u1*y2, -u1*y1]\nupper = [1.0, 1.0]",
])
def test_a_system_key_the_system_does_not_read_is_an_error_on_its_line(section):
    # a built-in reads neither the keys its preset fixes nor the other region's
    lines = section.splitlines()
    key, name = lines[-1].split(" =")[0], lines[0].split("= ")[1]
    with pytest.raises(ConfigError, match=f"^line {len(lines) + 1}: key '{key}' is not read "
                                          f"by system '{name}'$"):
        parse_config(f"[system]\n{section}\n")


def test_array_items_split_only_at_commas_outside_parentheses():
    # a rotation whose speed varies with the angle conserves every function of
    # the radius, so each key holds two items, one with a comma in parentheses
    cfg = parse_config("[system]\nname = custom\nregion = annulus\n"
                       "dynamics = [u1*y2*cos(atan2(y2, y1)), -u1*y1*cos(atan2(y2, y1))]\n"
                       "first_integrals = [atan2(y1^2 + y2^2, 1), y1^2 + y2^2]\n")
    assert cfg.system.dynamics == ("u1*y2*cos(atan2(y2, y1))", "-u1*y1*cos(atan2(y2, y1))")
    assert cfg.system.first_integrals == ("atan2(y1^2 + y2^2, 1)", "y1^2 + y2^2")
    assert cfg.system_spec().dynamics_text == cfg.system.dynamics


@pytest.mark.parametrize("text,parses,compiles", [
    (ACCEPTANCE_CONFIG.read_text(), 4 + 3, 3), (FROZEN_CONFIG.read_text(), 3, 2),
    (BOX_CUSTOM_SYSTEM.format(bounds=""), 3, 2)])
def test_one_parse_builds_one_system_spec_and_compiles_each_evaluator_once(
        monkeypatch, text, parses, compiles):
    # one spec, built with its undeclared bounds unchecked, then given its
    # checked bounds without parsing or compiling anything again: each
    # expression is parsed once, and the dynamics, the cost and each first
    # integral's gradient are compiled once.  The acceptance config's three
    # periodic_deltas laws are parsed too, to check them against the system
    specs, expressions, compiled = [], [], []
    post_init, parse, compile_numpy = (SystemSpec.__post_init__, exprs.parse_expr,
                                       exprs.compile_numpy)
    monkeypatch.setattr(SystemSpec, "__post_init__",
                        lambda spec: (specs.append(spec), post_init(spec))[1])
    monkeypatch.setattr(exprs, "parse_expr", lambda text, m, p: (
        expressions.append(text), parse(text, m, p))[1])
    monkeypatch.setattr(exprs, "compile_numpy", lambda nodes: (
        compiled.append(nodes), compile_numpy(nodes))[1])
    spec = parse_config(text).system_spec()
    ys, us = spec.region.sample(3), spec.control.grid(3)
    spec.dynamics_at(ys[:, None], us[None]), spec.cost_at(ys[:, None], us[None])
    assert len(specs) == 1 and len(expressions) == parses and len(compiled) == compiles
    assert math.isfinite(spec.bound_f) and math.isfinite(spec.bound_k)


def test_the_duality_gap_invariant_is_checked_at_the_solver_tolerance(monkeypatch):
    # solve demotes a point whose relative gap exceeds DUALITY_GAP_TOL, so the
    # report's invariant checks that bound, not a looser one
    chain = cli.solve_chain

    def widened(instances):
        return [dataclasses.replace(s, dual_objective=s.dual_objective
                                    - 1e-7 * max(1.0, abs(s.value))) for s in chain(instances)]
    monkeypatch.setattr(cli, "solve_chain", widened)
    bundle = run_study(parse_config(FROZEN_CONFIG.read_text()), sections=("solve",))
    gaps = [entry for entry in bundle.invariants if entry["name"].endswith(".duality_gap")]
    assert gaps and not any(entry["passed"] for entry in gaps)
    assert tolerances.DUALITY_GAP_TOL == 1e-8
    assert not hasattr(cli, "REPORT_GAP_TOL") and not hasattr(cli, "DUALITY_GAP_TOL")


def test_every_reported_measure_is_a_basic_point(tmp_path):
    # a reported gamma and xi come from a simplex vertex (the main solve's or
    # the refinement's), so together they hold at most as many atoms as the LP
    # has rows: its equality rows, one dual each, and its cap row if it has xi
    box = parse_config(BOX_CUSTOM_SYSTEM.format(bounds="").replace(
        "[program]\n", "[grid]\nstate_resolution = [16, 16]\ncontrol_resolution = 9\n"
        "[basis]\ndegree = 6\n[program]\nvariants = [ergodic, nonergodic, discounted, "
        "perturbed]\ndiscount_rates = [0.05]\nepsilons = [0.1, 0.0]\n"))
    for cfg in (parse_config(ACCEPTANCE_CONFIG.read_text()), box):
        bundle = run_study(cfg, sections=("solve",))
        assert bundle.all_passed()
        names = {name for name, *_ in bundle.duals}
        assert {f"{name}.gamma" for name in names} <= set(bundle.measures)
        for name in names:
            rows = sum(1 for entry in bundle.duals if entry[0] == name)
            xi = bundle.measures.get(f"{name}.xi", {"atom_index": []})
            rows += f"{name}.xi" in bundle.measures
            support = len(bundle.measures[f"{name}.gamma"]["atom_index"]) + len(xi["atom_index"])
            assert 0 < support <= rows <= 56
    # the payload holds every atom with weight, however many
    dense = grid_mod.DiscreteMeasure(build_grid(built("frozen", cost="y1 + u1^2"), (100, 100), 3),
                                     np.linspace(1.0, 2.0, 30000))
    payload = cli._measure_payload(dense)
    assert payload["atom_index"] == list(range(30000))
    assert payload["weight"] == dense.weights.tolist()


@pytest.mark.parametrize("entry", [
    "y1 + * 2", "y3", "y1 + u1", "abs(y1)",
    # each quotient nests its derivative three levels deeper
    pytest.param("1/(" * 70 + "y1" + ")" * 70, id="gradient-past-the-depth-limit"),
])
def test_malformed_first_integral_is_a_config_error(tmp_path, capsys, entry):
    config_path = tmp_path / "fi.conf"
    config_path.write_text("[system]\nname = custom\nregion = box\ndynamics = [0, -y1]\n"
                           f"first_integrals = [{entry}]\ncost = 1\n"
                           "[program]\ny0 = [0.5, -0.5]\n")
    assert main(["solve", "--config", str(config_path), "--out", str(tmp_path / "o")]) == 2
    assert (f"error: line 5: first_integrals: first integral {entry!r}: "
            in capsys.readouterr().err)


def test_cli_failure_exit_enumerates(tmp_path, capsys, monkeypatch):
    config_path = tmp_path / "study.conf"
    config_path.write_text(MINIMAL_ROTATION)

    def fake_run_study(config, sections, jobs):
        bundle = ReportBundle(config={}, environment={})
        bundle.record("demo_invariant", False, "synthetic failure")
        return bundle

    monkeypatch.setattr(cli, "run_study", fake_run_study)
    code = main(["solve", "--config", str(config_path), "--out", str(tmp_path / "o")])
    assert code == 1
    err = capsys.readouterr().err
    assert "FAILED: demo_invariant" in err
