"""The benchmark's per-layer probes name functions of occlp by module and
attribute; a rename under ``src/`` must not leave a metric reading 0 in silence.

Reads ``bench/probes.py`` with ``bench/`` on ``sys.path``, as
``bench/test_bench.py`` does, and installs no probe.
"""

import importlib
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"
if str(BENCH) not in sys.path:
    sys.path.insert(0, str(BENCH))

import probes  # noqa: E402

# probe targets that occlp no longer has; the probes stay until the benchmark
# itself changes, and their metrics read 0 meanwhile
KNOWN_STALE = {
    "scipy.optimize.linprog": "the LPs run on programs._Model, HiGHS's own bindings; "
                              "no occlp module calls linprog, so highs.* read 0",
    "occlp.system.ControlRegion.contains": "integrate admits a control run once, through "
                                           "ControlRegion.admission; "
                                           "system.control_contains_calls reads 0",
}


def _held_by_occlp(original, attr: str) -> bool:
    """Whether an occlp module's namespace holds ``original`` as ``attr``:
    where ``probes.install`` replaces it."""
    return any(name.split(".")[0] == "occlp" and vars(module).get(attr) is original
               for name, module in list(sys.modules.items()) if module is not None)


def test_every_probe_has_its_target_but_the_known_stale_ones():
    cli = importlib.import_module("occlp.cli")  # loads every occlp module, as install does
    stale = []
    for mod_name, attr, _name, _annotate in probes.SPAN_PROBES:
        original = getattr(importlib.import_module(mod_name), attr, None)
        if original is None or not _held_by_occlp(original, attr):
            stale.append(f"{mod_name}.{attr}")
    for mod_name, cls_name, method, _name in probes.COUNT_PROBES:
        base = getattr(importlib.import_module(mod_name), cls_name, None)
        if base is None or not any(method in vars(cls) for cls in probes._subclasses(base)):
            stale.append(f"{mod_name}.{cls_name}.{method}")
    assert callable(getattr(cli, "_pool_map", None))
    assert sorted(stale) == sorted(KNOWN_STALE)
