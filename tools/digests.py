"""Print the sha256 of ``report.json`` and of the INFO log for every shipped
input and command, keep the reports, and list how two sets of them differ.

    python3 tools/digests.py [--dump DIR] [SUBSTRING ...]
    python3 tools/digests.py --compare OLD_DIR NEW_DIR

Runs the cases of ``tools/traffic.py``: every study command on every
``configs/*.conf``, then every benchmark workload of ``bench/workloads.py``
with its commands, its ``jobs`` and each of its start points.  Each run goes
through ``cli.main`` in this one process, into a fresh output directory, and
prints one line: the digest of its ``report.json`` (or ``no-report``), the
digest of its ``occlp`` INFO log, its exit code and its label.  With
arguments, only the cases whose label contains one of them run.  It exits 1,
after listing them, when a case exits non-zero: a failed invariant (1) or a
configuration error (2) of a shipped input.

Reports are byte-identical across reruns of a configuration, and so is the
INFO log once its ``wrote <path>`` lines and its wall times (``0.012 s``) are
dropped: it holds each LP's master, pricing rounds, iterations, fallback and
refinement.  So running this on two checkouts and diffing the outputs shows
every report that a change moved and every run whose solver path it moved.

``--dump DIR`` also writes each case's ``report.json`` to its own directory
under DIR and the exit codes to ``DIR/cases.json``.  ``--compare`` reads two
such dumps and prints, per case, each change of exit code or invariant
outcome, each measure whose support changed and every other value that
changed, a number with its absolute difference, and ends with one summary
line: how many values moved, the largest absolute change among them and how
many invariant outcomes changed.  It prints nothing, and exits 0, when the
dumps hold the same cases with the same values.
Uses the standard library only; occlp itself needs its own dependencies.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import logging
import re
import shutil
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from traffic import ROOT, runs  # noqa: E402

WALL_TIME = re.compile(r"\d+\.\d+ s\b")
CASES = "cases.json"


def stable_log(text: str) -> str:
    """An INFO log without its ``wrote`` lines and with its wall times dropped."""
    return "".join(WALL_TIME.sub("", line) for line in text.splitlines(keepends=True)
                   if " wrote " not in line)


def digest(text: str, command: str, jobs: int,
           keep: Path | None = None) -> tuple[str, int, str]:
    """(sha256 of report.json or ``no-report``, exit code, sha256 of the
    :func:`stable_log` of the ``occlp`` INFO log) of one CLI run of
    ``command`` on the configuration ``text``; the report, if there is one,
    is also copied to ``keep/report.json``."""
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
            sha = "no-report"
            if report.is_file():
                sha = hashlib.sha256(report.read_bytes()).hexdigest()
                if keep is not None:
                    keep.mkdir(parents=True, exist_ok=True)
                    shutil.copyfile(report, keep / "report.json")
    finally:
        logger.removeHandler(handler)
        logger.setLevel(level)
        logger.propagate = propagate
    log_sha = hashlib.sha256(stable_log(captured.getvalue()).encode("utf-8")).hexdigest()
    return sha, code, log_sha


def case_dir(label: str) -> str:
    """The directory name of a case in a dump: its label, with every run of
    characters other than letters, digits, ``.`` and ``-`` made one ``_``."""
    return re.sub(r"[^A-Za-z0-9.-]+", "_", label)


# ---------------------------------------------------------------------------
# comparing two dumps


def _leaves(value, path: str):
    """(path, leaf) of every number, string, bool or null in a report's JSON."""
    if isinstance(value, dict):
        for key in sorted(value):
            yield from _leaves(value[key], f"{path}.{key}" if path else key)
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from _leaves(item, f"{path}[{i}]")
    else:
        yield path, value


def _keyed(report: dict) -> dict:
    """The report with its invariants keyed by name and its duals by
    (program, row kind, basis index), so a list that grows or shrinks does not
    shift every entry after the change."""
    keyed = dict(report)
    keyed["invariants"] = {entry["name"]: {"passed": entry["passed"], "detail": entry["detail"]}
                           for entry in report.get("invariants", [])}
    keyed["duals"] = {f"{program}/{kind}/{index}": marginal
                      for program, kind, index, marginal in report.get("duals", [])}
    return keyed


def _number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


class Tally:
    """What a comparison moved: changed values (every changed leaf but an
    invariant's outcome), the largest absolute change of a number among them,
    and changed invariant outcomes."""

    def __init__(self):
        self.values, self.largest, self.invariants = 0, 0.0, 0

    def line(self) -> str:
        return (f"{self.values} values moved, largest abs change {self.largest:.3g}, "
                f"{self.invariants} invariant outcomes changed")


def compare_reports(old: dict, new: dict, tally: Tally) -> list[str]:
    """The differences of two reports of one case, one line each: invariant
    outcomes first, then measures whose support changed, then every other
    changed value (a measure's weights only where its support is the same).
    Each changed outcome and value is also counted in ``tally``."""
    old, new = _keyed(old), _keyed(new)
    lines = []
    for name in sorted(set(old["invariants"]) | set(new["invariants"])):
        before = old["invariants"].get(name, {}).get("passed")
        after = new["invariants"].get(name, {}).get("passed")
        if before != after:
            word = {True: "passed", False: "failed", None: "absent"}
            lines.append(f"invariant {name}: {word[before]} -> {word[after]}")
            tally.invariants += 1
    skip = set()
    old_measures, new_measures = old.get("measures", {}), new.get("measures", {})
    for name in sorted(set(old_measures) | set(new_measures)):
        before = old_measures.get(name, {}).get("atom_index")
        after = new_measures.get(name, {}).get("atom_index")
        if before != after:
            before, after = set(before or ()), set(after or ())
            lines.append(f"measure {name}: support changed, {len(before)} -> {len(after)} "
                         f"atoms, {len(after - before)} added, {len(before - after)} dropped")
            skip.update((f"measures.{name}.atom_index", f"measures.{name}.weight"))
    old_leaves = {path: value for path, value in _leaves(old, "")
                  if not path.startswith(tuple(skip))}
    new_leaves = {path: value for path, value in _leaves(new, "")
                  if not path.startswith(tuple(skip))}
    missing = object()
    for path in sorted(set(old_leaves) | set(new_leaves)):
        before, after = old_leaves.get(path, missing), new_leaves.get(path, missing)
        if path.startswith("invariants.") and path.endswith(".passed"):
            continue  # listed above
        if before is missing or after is missing:
            lines.append(f"{path}: {'absent' if before is missing else repr(before)} -> "
                         f"{'absent' if after is missing else repr(after)}")
            tally.values += 1
        elif repr(before) != repr(after):  # -0.0 and 0.0 print differently too
            diff = ""
            if _number(before) and _number(after):
                tally.largest = max(tally.largest, abs(after - before))
                diff = f" (abs diff {abs(after - before):.3g})"
            lines.append(f"{path}: {before!r} -> {after!r}{diff}")
            tally.values += 1
    return lines


def compare_dumps(old_dir: Path, new_dir: Path) -> list[str]:
    """Every difference between two dumps, each line led by its case's label,
    then one line of the :class:`Tally` of every case; no line when the dumps
    do not differ."""
    tally = Tally()
    old_cases = json.loads((old_dir / CASES).read_text(encoding="utf-8"))
    new_cases = json.loads((new_dir / CASES).read_text(encoding="utf-8"))
    lines = []
    for label in [*old_cases, *(label for label in new_cases if label not in old_cases)]:
        if label not in old_cases or label not in new_cases:
            lines.append(f"{label}: only in {old_dir if label in old_cases else new_dir}")
            continue
        if old_cases[label] != new_cases[label]:
            lines.append(f"{label}: exit {old_cases[label]} -> {new_cases[label]}")
        reports = [root / case_dir(label) / "report.json" for root in (old_dir, new_dir)]
        present = [report.is_file() for report in reports]
        if present != [True, True]:
            if present[0] != present[1]:
                lines.append(f"{label}: report.json only in {reports[present.index(True)]}")
            continue
        old, new = (json.loads(report.read_text(encoding="utf-8")) for report in reports)
        lines += [f"{label}: {line}" for line in compare_reports(old, new, tally)]
    return lines + [tally.line()] if lines else []


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="digests.py", description=__doc__.split("\n")[0])
    parser.add_argument("--dump", metavar="DIR", type=Path,
                        help="also write each case's report.json under DIR")
    parser.add_argument("--compare", nargs=2, metavar=("OLD_DIR", "NEW_DIR"), type=Path,
                        help="list how two dumps differ, and run nothing")
    parser.add_argument("wanted", nargs="*", metavar="SUBSTRING",
                        help="run only the cases whose label contains one of these")
    args = parser.parse_args(sys.argv[1:] if argv is None else argv)
    if args.compare:
        lines = compare_dumps(*args.compare)
        for line in lines:
            print(line)
        return 1 if lines else 0
    sys.path.insert(0, str(ROOT / "src"))
    from occlp import cli
    cases = {}
    for label, text, command, jobs in runs(cli._ALL_SECTIONS):
        if args.wanted and not any(part in label for part in args.wanted):
            continue
        keep = None if args.dump is None else args.dump / case_dir(label)
        sha, code, log_sha = digest(text, command, jobs, keep)
        cases[label] = code
        print(f"{sha}  log {log_sha}  exit {code}  {label}", flush=True)
    if args.dump is not None:
        args.dump.mkdir(parents=True, exist_ok=True)
        (args.dump / CASES).write_text(json.dumps(cases, indent=2) + "\n", encoding="utf-8")
    failed = [f"{label} (exit {code})" for label, code in cases.items() if code]
    if failed:
        print(f"{len(failed)} case(s) exited non-zero: {', '.join(failed)}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
