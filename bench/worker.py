"""Run one occlp study command in a fresh process, as the CLI does, and record it.

    python3 bench/worker.py ROOT CONFIG COMMAND JOBS OUT_DIR RESULT SPAWNED_AT TRACE RUN_ID

Imports ``occlp`` from ``ROOT/src``, parses CONFIG, runs
``run_study(sections=(COMMAND,), jobs=JOBS)`` and ``emit_report`` into OUT_DIR,
and writes a JSON record of the command to RESULT.  COMMAND ``setup`` stops
after ``parse_config`` and, for the rotation system, adds the oracle value the
benchmark checks LP values against.  SPAWNED_AT is the parent's
``time.perf_counter()`` just before it started this process (the clock is
system-wide on Linux), so the set-up time includes interpreter start-up.
With TRACE 1 the per-layer probes are installed before the config is parsed
and the spans are written to RESULT when the command ends.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import sys
import time
import traceback


def _fail(message: str) -> int:
    print(f"worker: {message}", file=sys.stderr)
    return 3


def main(argv) -> int:
    root, config_path, command, jobs, out_dir, result_path, spawned_at, trace, run_id = argv
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "occlp", "__init__.py")):
        return _fail(f"no occlp package under {src}")
    sys.path.insert(0, src)
    import occlp
    if not os.path.abspath(occlp.__file__).startswith(os.path.abspath(src) + os.sep):
        return _fail(f"imported occlp from {occlp.__file__}, not from {src}")
    from occlp.cli import emit_report, run_study
    from occlp.config import build_system, parse_config

    rec = missing = None
    if trace == "1":
        import probes
        from spans import Recorder
        rec = Recorder(run_id)
        missing = probes.install(rec)

    def span(name, **attrs):
        return rec.span(name, **attrs) if rec is not None else contextlib.nullcontext()

    with open(config_path, "r", encoding="utf-8") as fh:
        text = fh.read()
    with span("config.parse"):
        config = parse_config(text)
    record = {"command": command, "setup_s": time.perf_counter() - float(spawned_at),
              "study_s": 0.0, "emit_s": 0.0, "error": None, "failed_invariants": [],
              "report_sha256": None, "report_bytes": 0, "values": {},
              "trace": None, "probes_missing": missing}

    if command == "setup":
        if config.system.name == "rotation":
            from occlp.oracle import rotation_level_value
            spec = build_system(config.system)
            z0 = sum((y - c) ** 2 for y, c in zip(config.program.y0, spec.region.center))
            record["values"]["oracle.level_value"] = rotation_level_value(spec, z0).value
    else:
        start = time.perf_counter()
        try:
            with span("cli.run_study", command=command):
                bundle = run_study(config, sections=(command,), jobs=int(jobs))
            mid = time.perf_counter()
            with span("cli.emit"):
                written = emit_report(bundle, out_dir, config.output.formats)
            record["emit_s"] = time.perf_counter() - mid
            record["study_s"] = mid - start
            record["failed_invariants"] = [e["name"] for e in bundle.invariants
                                           if not e["passed"]]
            record["values"] = {k: bundle.values[k] for k in
                                ("nonergodic.value", "grid.atom_count", "basis.count")
                                if k in bundle.values}
            record["report_bytes"] = sum(os.path.getsize(p) for p in written)
            with open(os.path.join(out_dir, "report.json"), "rb") as fh:
                record["report_sha256"] = hashlib.sha256(fh.read()).hexdigest()
        except Exception as err:  # the command's failure is the measurement: record it
            record["study_s"] = time.perf_counter() - start
            frame = traceback.extract_tb(err.__traceback__)[-1]
            record["error"] = {"type": type(err).__name__, "message": str(err),
                               "where": f"{os.path.basename(frame.filename)}:"
                                        f"{frame.lineno} in {frame.name}"}

    if rec is not None:
        record["trace"] = rec.dump()
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return 1 if record["error"] or record["failed_invariants"] else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
