"""List the statements of ``src/occlp`` that no shipped input runs.

    python3 tools/traffic.py

Runs every study command (``cli._ALL_SECTIONS``) through ``cli.main`` on every
``configs/*.conf``, then every benchmark workload of ``bench/workloads.py``
with its commands, its ``jobs`` and each of its start points, all in this one
process under ``sys.settrace`` and ``threading.settrace``.  Prints the exit
code of each run, then each ``src/occlp`` statement that never ran, grouped
by module, and a summary line.

A statement is a line on which an ``ast`` statement starts and which holds
bytecode (so docstrings and ``pass`` are not counted); it ran when the
tracer saw a line event on it.  A ``def`` or ``class`` line runs when its
module is imported, so occlp is imported only once tracing has started.
Reports are written to a temporary directory that is removed afterwards.
Uses the standard library only; occlp itself needs its own dependencies.
"""

from __future__ import annotations

import ast
import contextlib
import io
import sys
import tempfile
import threading
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "occlp"


def statement_lines(path: Path) -> set[int]:
    """The lines of ``path`` on which a statement with bytecode starts."""
    source = path.read_text(encoding="utf-8")
    starts = {node.lineno for node in ast.walk(ast.parse(source))
              if isinstance(node, ast.stmt)}
    with_code, todo = set(), [compile(source, str(path), "exec")]
    while todo:
        code = todo.pop()
        with_code.update(line for _, _, line in code.co_lines() if line is not None)
        todo.extend(const for const in code.co_consts if hasattr(const, "co_lines"))
    return starts & with_code


class LineRecorder:
    """Records the (file, line) pairs run in frames of files under ``prefix``."""

    def __init__(self, prefix: str):
        self.prefix = prefix
        self.seen: dict[str, set[int]] = defaultdict(set)

    def global_trace(self, frame, event, arg):
        if not frame.f_code.co_filename.startswith(self.prefix):
            return None
        lines = self.seen[frame.f_code.co_filename]

        def local_trace(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local_trace
        return local_trace

    def __enter__(self):
        sys.settrace(self.global_trace)
        threading.settrace(self.global_trace)
        return self

    def __exit__(self, *exc):
        sys.settrace(None)
        threading.settrace(None)


def runs(sections):
    """(label, config text, command, jobs) for every run, configs first."""
    for path in sorted((ROOT / "configs").glob("*.conf")):
        text = path.read_text(encoding="utf-8")
        for command in sections:
            yield f"{path.name} {command}", text, command, 1
    sys.path.insert(0, str(ROOT / "bench"))
    from workloads import WORKLOADS
    for workload in WORKLOADS.values():
        for seed in range(max(1, len(workload.start_points))):
            text = workload.config_text(ROOT, seed)
            for command in workload.commands:
                yield f"{workload.name} seed={seed} {command}", text, command, workload.jobs


def main() -> int:
    recorder = LineRecorder(str(PACKAGE) + "/")
    sys.path.insert(0, str(ROOT / "src"))
    with recorder, tempfile.TemporaryDirectory() as scratch:
        from occlp import cli
        config_path = Path(scratch) / "study.conf"
        for label, text, command, jobs in runs(cli._ALL_SECTIONS):
            config_path.write_text(text, encoding="utf-8")
            with contextlib.redirect_stderr(io.StringIO()):  # warnings, FAILED lines
                code = cli.main([command, "--config", str(config_path), "--out",
                                 str(Path(scratch) / "out"), "--jobs", str(jobs)])
            print(f"exit {code}  {label}")

    total = unrun_total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        statements = statement_lines(path)
        unrun = sorted(statements - recorder.seen.get(str(path), set()))
        total += len(statements)
        unrun_total += len(unrun)
        if not unrun:
            continue
        print(f"\n{path.relative_to(ROOT)}: {len(unrun)} of {len(statements)} never ran")
        source = path.read_text(encoding="utf-8").splitlines()
        for line in unrun:
            print(f"  {line:5d}  {source[line - 1].strip()}")
    print(f"\n{unrun_total} of {total} statements in {PACKAGE.relative_to(ROOT)} never ran")
    return 0


if __name__ == "__main__":
    sys.exit(main())
