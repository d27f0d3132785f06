"""Print the sha256 of ``report.json`` and of the INFO log for every shipped
input and command.

    python3 tools/digests.py [SUBSTRING ...]

Runs the cases of ``tools/traffic.py``: every study command on every
``configs/*.conf``, then every benchmark workload of ``bench/workloads.py``
with its commands, its ``jobs`` and each of its start points.  Each run goes
through ``cli.main`` in this one process, into a fresh output directory, and
prints one line: the digest of its ``report.json`` (or ``no-report``), the
digest of its ``occlp`` INFO log, its exit code and its label.  With
arguments, only the cases whose label contains one of them run.

Reports are byte-identical across reruns of a configuration, and so is the
INFO log once its ``wrote <path>`` lines and its wall times (``0.012 s``) are
dropped: it holds each LP's master, pricing rounds, iterations, fallback and
refinement.  So running this on two checkouts and diffing the outputs shows
every report that a change moved and every run whose solver path it moved.
Uses the standard library only; occlp itself needs its own dependencies.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import logging
import re
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from traffic import ROOT, runs  # noqa: E402

WALL_TIME = re.compile(r"\d+\.\d+ s\b")


def stable_log(text: str) -> str:
    """An INFO log without its ``wrote`` lines and with its wall times dropped."""
    return "".join(WALL_TIME.sub("", line) for line in text.splitlines(keepends=True)
                   if " wrote " not in line)


def digest(text: str, command: str, jobs: int) -> tuple[str, int, str]:
    """(sha256 of report.json or ``no-report``, exit code, sha256 of the
    :func:`stable_log` of the ``occlp`` INFO log) of one CLI run of
    ``command`` on the configuration ``text``."""
    from occlp import cli
    logger, captured = logging.getLogger("occlp"), io.StringIO()
    handler = logging.StreamHandler(captured)
    handler.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
    level, propagate = logger.level, logger.propagate
    logger.addHandler(handler)
    logger.setLevel(logging.INFO)
    logger.propagate = False
    try:
        with tempfile.TemporaryDirectory() as scratch:
            config_path, out = Path(scratch) / "study.conf", Path(scratch) / "out"
            config_path.write_text(text, encoding="utf-8")
            with contextlib.redirect_stderr(io.StringIO()):  # warnings, FAILED lines
                code = cli.main([command, "--config", str(config_path), "--out", str(out),
                                 "--jobs", str(jobs)])
            report = out / "report.json"
            sha = (hashlib.sha256(report.read_bytes()).hexdigest() if report.is_file()
                   else "no-report")
    finally:
        logger.removeHandler(handler)
        logger.setLevel(level)
        logger.propagate = propagate
    log_sha = hashlib.sha256(stable_log(captured.getvalue()).encode("utf-8")).hexdigest()
    return sha, code, log_sha


def main(argv=None) -> int:
    wanted = sys.argv[1:] if argv is None else argv
    sys.path.insert(0, str(ROOT / "src"))
    from occlp import cli
    for label, text, command, jobs in runs(cli._ALL_SECTIONS):
        if wanted and not any(part in label for part in wanted):
            continue
        sha, code, log_sha = digest(text, command, jobs)
        print(f"{sha}  log {log_sha}  exit {code}  {label}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
