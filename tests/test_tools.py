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
    sha, code = first
    assert code == 0 and len(sha) == 64 and int(sha, 16) >= 0
    assert digests.digest(text, "oracle", 1) == first
