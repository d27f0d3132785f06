"""Print the sha256 of ``report.json`` for every shipped input and command.

    python3 tools/digests.py [SUBSTRING ...]

Runs the cases of ``tools/traffic.py``: every study command on every
``configs/*.conf``, then every benchmark workload of ``bench/workloads.py``
with its commands, its ``jobs`` and each of its start points.  Each run goes
through ``cli.main`` in this one process, into a fresh output directory, and
prints one line: the digest of its ``report.json`` (or ``no-report``), its exit
code and its label.  With arguments, only the cases whose label contains one
of them run.

Reports are byte-identical across reruns of a configuration, so running this
on two checkouts and diffing the outputs shows every report that a change
moved.  Uses the standard library only; occlp itself needs its own
dependencies.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from traffic import ROOT, runs  # noqa: E402


def digest(text: str, command: str, jobs: int) -> tuple[str, int]:
    """(sha256 of report.json or ``no-report``, exit code) of one CLI run of
    ``command`` on the configuration ``text``."""
    from occlp import cli
    with tempfile.TemporaryDirectory() as scratch:
        config_path, out = Path(scratch) / "study.conf", Path(scratch) / "out"
        config_path.write_text(text, encoding="utf-8")
        with contextlib.redirect_stderr(io.StringIO()):  # warnings, FAILED lines
            code = cli.main([command, "--config", str(config_path), "--out", str(out),
                             "--jobs", str(jobs)])
        report = out / "report.json"
        if not report.is_file():
            return "no-report", code
        return hashlib.sha256(report.read_bytes()).hexdigest(), code


def main(argv=None) -> int:
    wanted = sys.argv[1:] if argv is None else argv
    sys.path.insert(0, str(ROOT / "src"))
    from occlp import cli
    for label, text, command, jobs in runs(cli._ALL_SECTIONS):
        if wanted and not any(part in label for part in wanted):
            continue
        sha, code = digest(text, command, jobs)
        print(f"{sha}  exit {code}  {label}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
