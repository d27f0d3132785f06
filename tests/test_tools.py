import hashlib
import importlib.util
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
