"""occlp benchmark: run one workload and print its metrics as the last line.

    python3 bench/run.py --workload acceptance-study --seed 0 --seconds 27 --trace 0

One client runs the workload's commands in order, each in a fresh process
(see worker.py), and repeats the sequence while less than ``--seconds`` have
passed.  With ``--trace 0`` it prints the end-to-end metrics; with
``--trace 1`` it alternates untraced and traced repetitions and prints the
per-layer metrics, including the tracing overhead.  Every command's output is
checked; a command that raises, records a failed invariant or produces a
wrong report counts as a failed operation and is listed by name.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from probes import PER_LAYER, layer_metrics, lp_stamps
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

END_TO_END = {"setup_s": "s", "study_s": "s", "cpu_s": "s", "peak_rss_mb": "MB",
              "ok_op_frac": "ratio"}

MIN_SETUP_SAMPLES = 5
ORACLE_TOLERANCE = 0.05  # the acceptance suite's LP-versus-oracle tolerance
RUN_DEADLINE_S = 170.0  # a worker still running then is killed and counted failed


class Runner:
    """Spawns the command processes of one run inside the checkout."""

    def __init__(self, workload, seed: int, work_dir: Path, started: float):
        self.workload = workload
        self.seed = seed
        self.work_dir = work_dir
        self.started = started
        self.config = work_dir / "study.conf"
        self.config.write_text(workload.config_text(ROOT, seed), encoding="utf-8")
        self.spawned = 0

    def spawn(self, command: str, traced: bool, rep: int) -> dict:
        self.spawned += 1
        tag = f"{self.spawned:03d}-{command}"
        out_dir, result = self.work_dir / tag, self.work_dir / f"{tag}.json"
        run_id = f"{self.workload.name}-s{self.seed}-r{rep}-{command}"
        with open(self.work_dir / f"{tag}.log", "wb") as log:
            spawned_at = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, str(BENCH / "worker.py"), str(ROOT), str(self.config),
                 command, str(self.workload.jobs), str(out_dir), str(result),
                 repr(spawned_at), "1" if traced else "0", run_id],
                stdout=log, stderr=subprocess.STDOUT, cwd=ROOT)
        try:
            while True:
                pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
                if pid:
                    break
                if time.perf_counter() - self.started > RUN_DEADLINE_S:
                    proc.kill()
                    pid, status, usage = os.wait4(proc.pid, 0)
                    break
                time.sleep(0.005)
        except BaseException:  # interrupted or terminated: leave no worker behind
            proc.kill()
            os.wait4(proc.pid, 0)
            raise
        proc.returncode = os.waitstatus_to_exitcode(status)
        try:
            op = json.loads(result.read_text(encoding="utf-8"))
        except FileNotFoundError:
            log_tail = (self.work_dir / f"{tag}.log").read_text(errors="replace")[-400:]
            op = {"command": command, "setup_s": None, "study_s": 0.0, "emit_s": 0.0,
                  "error": {"type": "WorkerDied", "where": "",
                            "message": f"exit {proc.returncode}: {log_tail.strip()}"},
                  "failed_invariants": [], "report_sha256": None, "report_bytes": 0,
                  "values": {}, "trace": None, "probes_missing": None}
        op.update(rep=rep, traced=traced, exit_code=proc.returncode,
                  cpu_s=usage.ru_utime + usage.ru_stime, rss_mb=usage.ru_maxrss / 1024.0)
        return op


def _failure(op) -> str | None:
    if op["error"]:
        e = op["error"]
        return f"{e['type']}: {e['message']} ({e['where']})"
    if op["failed_invariants"]:
        return "failed invariants: " + ", ".join(op["failed_invariants"])
    if op["exit_code"] != 0:
        return f"exit code {op['exit_code']}"
    return None


def check_outputs(ops, reference: float | None) -> None:
    """Mark wrong outputs on the ops (``op['wrong']``).

    A command's report must be byte-identical in every repetition of a run,
    traced or not, and an LP value of the rotation system must lie within the
    acceptance tolerance of the oracle.
    """
    first = {}
    for op in ops:
        op["wrong"] = None
        digest = op["report_sha256"]
        if digest is None:
            continue
        expected = first.setdefault(op["command"], digest)
        if digest != expected:
            op["wrong"] = f"report.json {digest[:16]} differs from {expected[:16]} " \
                          f"of the first repetition"
            continue
        value = op["values"].get("nonergodic.value")
        if reference is not None and value is not None \
                and not abs(value - reference) <= ORACLE_TOLERANCE:
            op["wrong"] = f"nonergodic value {value!r} is not within " \
                          f"{ORACLE_TOLERANCE} of the oracle's {reference!r}"


def _median_over_reps(ops, reps, fn) -> float:
    return statistics.median(fn([op for op in ops if op["rep"] == r]) for r in reps)


def end_to_end(ops, setups) -> dict:
    reps = sorted({op["rep"] for op in ops if not op["traced"]})
    failed = sum(1 for op in ops if op["failure"])
    return {
        "setup_s": statistics.median(setups),
        "study_s": _median_over_reps(ops, reps, lambda r: sum(o["study_s"] + o["emit_s"]
                                                              for o in r)),
        "cpu_s": _median_over_reps(ops, reps, lambda r: sum(o["cpu_s"] for o in r)),
        "peak_rss_mb": _median_over_reps(ops, reps, lambda r: max(o["rss_mb"] for o in r)),
        "ok_op_frac": (len(ops) - failed) / len(ops),
    }


def per_layer(ops, untraced_study_s: float) -> dict:
    reps = sorted({op["rep"] for op in ops if op["traced"]})
    by_rep = [layer_metrics([op for op in ops if op["rep"] == r]) for r in reps]
    out = {name: statistics.median(m[name] for m in by_rep) for name in PER_LAYER}
    traced_study_s = _median_over_reps(
        ops, reps, lambda r: sum(o["study_s"] + o["emit_s"] for o in r))
    out["trace.overhead_s"] = traced_study_s - untraced_study_s
    print(f"study_s untraced {untraced_study_s:.4f} s, traced {traced_study_s:.4f} s")
    return out


def src_line_count() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted((ROOT / "src").rglob("*.py")))


def run(workload, seed: int, seconds: float, trace: bool, work_dir: Path) -> dict:
    started = time.perf_counter()
    runner = Runner(workload, seed, work_dir, started)
    # warms the file cache and computes the oracle reference; not a sample
    warm = runner.spawn("setup", False, -1)
    if warm["error"] or warm["setup_s"] is None:
        raise SystemExit(f"set-up failed: {_failure(warm)}")
    reference = warm["values"].get("oracle.level_value")  # rotation systems only

    ops, rep = [], 0
    while True:
        traced = trace and rep % 2 == 1
        for command in workload.commands:
            ops.append(runner.spawn(command, traced, rep))
        rep += 1
        elapsed = time.perf_counter() - started
        if elapsed >= seconds and (rep >= 2 or not trace) or elapsed > RUN_DEADLINE_S:
            break

    setups = [op["setup_s"] for op in ops if not op["traced"] and op["setup_s"] is not None]
    while len(setups) < MIN_SETUP_SAMPLES:
        probe = runner.spawn("setup", False, -1)
        if probe["setup_s"] is None:
            raise SystemExit(f"set-up failed: {_failure(probe)}")
        setups.append(probe["setup_s"])

    check_outputs(ops, reference)
    for op in ops:
        op["failure"] = op["wrong"] or _failure(op)
    failed = [op for op in ops if op["failure"]]

    for op in ops:
        digest = (op["report_sha256"] or "-")[:16]
        print(f"rep {op['rep']} {'traced' if op['traced'] else 'untraced'} {op['command']}: "
              f"setup {op['setup_s'] or 0:.3f} s, study {op['study_s'] + op['emit_s']:.3f} s, "
              f"cpu {op['cpu_s']:.2f} s, rss {op['rss_mb']:.0f} MB, report {digest}")
    for op in failed:
        print(f"failed op: rep {op['rep']} {op['command']}: {op['failure']}")
    print(f"failed_op_frac = {len(failed)}/{len(ops)}")
    if reference is not None:
        print(f"oracle.level_value = {reference!r}")
    missing = sorted({p for op in ops for p in (op["probes_missing"] or [])})
    if missing:
        print("probes with no target: " + ", ".join(missing))

    values = next((op["values"] for op in ops if "grid.atom_count" in op["values"]), {})
    sizes = {"atoms": values.get("grid.atom_count"), "basis_count": values.get("basis.count"),
             "src_lines": src_line_count()}
    e2e = end_to_end(ops, setups)
    if trace:
        traced_ops = [op for op in ops if op["traced"]]
        sizes["lps"] = lp_stamps([op for op in traced_ops if op["rep"] == traced_ops[0]["rep"]])
        metrics = per_layer(ops, e2e["study_s"])
        units = PER_LAYER
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        trace_path = out_dir / f"trace-{workload.name}-s{seed}.json"
        trace_path.write_text(json.dumps([op["trace"] for op in traced_ops]), encoding="utf-8")
        print(f"spans written to {trace_path.relative_to(ROOT)}")
    else:
        metrics, units = e2e, END_TO_END
    print("sizes: " + json.dumps(sizes))
    return {"correct": not any(op["wrong"] for op in ops),
            "attempted": len(ops), "failed": len(failed),
            "metrics": {name: {"value": metrics[name], "unit": unit}
                        for name, unit in units.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=27.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "occlp" / "__init__.py").is_file():
        print(f"error: no occlp sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    work_dir = ROOT / ".bench_tmp" / f"{workload.name}-s{args.seed}-{os.getpid()}"
    work_dir.mkdir(parents=True)
    try:
        result = run(workload, args.seed, args.seconds, bool(args.trace), work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by a concurrent run
            work_dir.parent.rmdir()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
