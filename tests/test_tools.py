import hashlib
import importlib.util
import json
import re
import textwrap
from pathlib import Path

TOOLS = Path(__file__).resolve().parents[1] / "tools"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_a_report_digest_is_the_same_on_a_rerun():
    digests = _load("digests")
    text = (digests.ROOT / "configs" / "frozen.conf").read_text(encoding="utf-8")
    first = digests.digest(text, "oracle", 1)
    sha, code, _log_sha = first
    assert code == 0 and len(sha) == 64 and int(sha, 16) >= 0
    assert digests.digest(text, "oracle", 1) == first


def test_an_info_log_digest_is_the_same_on_a_rerun():
    # the solve command logs the assembly, with its wall time, each LP's line
    # and the paths it wrote; only the wall time and the paths move
    digests = _load("digests")
    text = (digests.ROOT / "configs" / "frozen.conf").read_text(encoding="utf-8")
    first = digests.digest(text, "solve", 1)
    sha, code, log_sha = first
    assert code == 0 and len(log_sha) == 64
    assert log_sha != hashlib.sha256(b"").hexdigest()
    assert digests.digest(text, "solve", 1) == first
    log = ("INFO occlp.grid: assembly: 4 states, 1.00 MB held, 0.012 s\n"
           "INFO occlp: wrote /tmp/a/report.json\n"
           "INFO occlp.programs: ergodic: 3 rows, status optimal\n")
    assert digests.stable_log(log) == ("INFO occlp.grid: assembly: 4 states, 1.00 MB held, \n"
                                       "INFO occlp.programs: ergodic: 3 rows, status optimal\n")


def test_two_dumps_of_one_tree_compare_equal_and_an_edit_is_listed(tmp_path, capsys):
    digests = _load("digests")
    first, second = tmp_path / "first", tmp_path / "second"
    for dump in (first, second):
        assert digests.main(["--dump", str(dump), "frozen.conf solve"]) == 0
    capsys.readouterr()
    assert digests.main(["--compare", str(first), str(second)]) == 0
    assert capsys.readouterr().out == ""

    label = "frozen.conf solve"
    path = second / digests.case_dir(label) / "report.json"
    report = json.loads(path.read_text(encoding="utf-8"))
    value = report["values"]["nonergodic.value"]
    report["values"]["nonergodic.value"] = value + 0.125
    support = report["measures"]["ergodic.gamma"]["atom_index"]
    support[0] = max(support) + 1
    [solved] = [e for e in report["invariants"] if e["name"] == "ergodic.solved"]
    solved["passed"] = False
    path.write_text(json.dumps(report), encoding="utf-8")
    (second / "cases.json").write_text(json.dumps({label: 1}), encoding="utf-8")
    assert digests.main(["--compare", str(first), str(second)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        f"{label}: exit 0 -> 1",
        f"{label}: invariant ergodic.solved: passed -> failed",
        f"{label}: measure ergodic.gamma: support changed, {len(support)} -> {len(support)} "
        "atoms, 1 added, 1 dropped",
        f"{label}: values.nonergodic.value: {value!r} -> {value + 0.125!r} (abs diff 0.125)",
        "1 values moved, largest abs change 0.125, 1 invariant outcomes changed"]


def test_a_comparison_ends_with_one_summary_line(tmp_path, capsys):
    # two cases: numbers moved in both, a detail string in one and an
    # invariant outcome in the other; the summary counts them over every case
    digests = _load("digests")
    before = {"a": {"values": {"x": 1.0, "y": -2.0}, "invariants": [
                  {"name": "ok", "passed": True, "detail": "min slacks 1e-3"}]},
              "b": {"values": {"x": 4.0}, "invariants": [
                  {"name": "ok", "passed": True, "detail": "d"}]}}
    after = {"a": {"values": {"x": 1.0 + 2.0 ** -52, "y": -2.0}, "invariants": [
                 {"name": "ok", "passed": True, "detail": "min slacks 2e-3"}]},
             "b": {"values": {"x": 3.5}, "invariants": [
                 {"name": "ok", "passed": False, "detail": "d"}]}}
    for root, reports in (("old", before), ("new", after)):
        for label, report in reports.items():
            (tmp_path / root / label).mkdir(parents=True)
            (tmp_path / root / label / "report.json").write_text(json.dumps(report))
        (tmp_path / root / "cases.json").write_text(json.dumps({"a": 0, "b": 0}))
    assert digests.main(["--compare", str(tmp_path / "old"), str(tmp_path / "new")]) == 1
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 5 and out[:-1] == [
        "a: invariants.ok.detail: 'min slacks 1e-3' -> 'min slacks 2e-3'",
        f"a: values.x: 1.0 -> {1.0 + 2.0 ** -52!r} (abs diff 2.22e-16)",
        "b: invariant ok: passed -> failed",
        "b: values.x: 4.0 -> 3.5 (abs diff 0.5)"]
    assert out[-1] == "3 values moved, largest abs change 0.5, 1 invariant outcomes changed"


def test_a_case_that_exits_non_zero_fails_the_run(capsys, monkeypatch):
    digests = _load("digests")
    text = (digests.ROOT / "configs" / "frozen.conf").read_text(encoding="utf-8")
    cases = [("frozen.conf oracle", text, "oracle", 1),
             ("bad cost", text.replace("cost = y1 + u1^2", "cost = y1 +"), "oracle", 1)]
    monkeypatch.setattr(digests, "runs", lambda sections: cases)
    assert digests.main([]) == 1
    out, err = capsys.readouterr()
    assert [line.split("  ")[-2:] for line in out.splitlines()] == [
        ["exit 0", "frozen.conf oracle"], ["exit 2", "bad cost"]]
    assert err == "1 case(s) exited non-zero: bad cost (exit 2)\n"
    monkeypatch.setattr(digests, "runs", lambda sections: cases[:1])
    assert digests.main([]) == 0


def test_statement_lines_skip_docstrings_and_pass_and_count_nested_bodies(tmp_path):
    traffic = _load("traffic")
    path = tmp_path / "module.py"
    path.write_text(textwrap.dedent('''\
        """Module docstring."""
        import os


        def outer():
            """Docstring."""
            def inner(x):
                """Inner docstring."""
                if x:
                    return os.sep
                pass
            return inner


        class Empty:
            """Class docstring."""
            pass
        '''), encoding="utf-8")
    # the import, both defs, the class and inner's body; no docstring, no pass
    assert traffic.statement_lines(path) == {2, 5, 7, 9, 10, 12, 15}


def test_the_summary_line_gives_the_packages_physical_line_count(tmp_path, monkeypatch, capsys):
    traffic = _load("traffic")
    (tmp_path / "a.py").write_text("x = 1\n\n# two more\n", encoding="utf-8")
    (tmp_path / "b.py").write_text("y = 2", encoding="utf-8")  # no newline: 0, as wc -l
    (tmp_path / "notes.txt").write_text("not a module\n", encoding="utf-8")
    assert traffic.physical_lines(tmp_path) == 3
    # with no runs, the summary line ends the output
    monkeypatch.setattr(traffic, "runs", lambda sections: ())
    assert traffic.main() == 0
    summary = capsys.readouterr().out.splitlines()[-1]
    lines = sum(len(path.read_text(encoding="utf-8").splitlines())
                for path in traffic.PACKAGE.glob("*.py"))
    assert re.fullmatch(rf"\d+ of \d+ statements in src/occlp never ran; "
                        rf"src/occlp has {lines} lines", summary)
