"""The benchmark's workloads: which configuration, which commands, how many jobs.

Each workload is a closed loop from one client: its commands run one after
another, each in a fresh process, exactly as a CLI user would run them.  The
seed is written into the configuration's ``seed`` key; where a workload lists
start points, the seed also picks ``y0`` from them (seed 0 picks the first).
"""

from __future__ import annotations

import re
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path

ACCEPTANCE_CONFIG = Path("configs") / "rotation_acceptance.conf"

BOX_CUSTOM_CONFIG = """\
seed = 0

[system]
name = custom
region = box
lower = [-1.0, -1.0]
upper = [1.0, 1.0]
dynamics = [-y1 + u1, -y2 + y1]
cost = y2^2 + 0.5*u1^2

[grid]
state_resolution = [16, 16]
control_resolution = 9

[basis]
degree = 6

[program]
variants = [ergodic, nonergodic, discounted, perturbed]
y0 = [0.5, -0.5]
discount_rates = [0.05]
epsilons = [0.1, 0.0]

[simulate]
policy = schedule:0:1,2:-1@4
horizons = [25.0, 50.0, 100.0, 200.0]
dt = 0.001
abel_rates = [0.05]
abel_horizon = 200.0
abel_dt = 0.01

[output]
dir = out
formats = [json, csv-dir]
"""


def set_key(text: str, key: str, value: str) -> str:
    """Replace the value of the one ``key = ...`` line of a configuration."""
    pattern = re.compile(rf"^(\s*{re.escape(key)}\s*=).*$", re.MULTILINE)
    new, count = pattern.subn(lambda m: f"{m.group(1)} {value}", text)
    if count != 1:
        raise ValueError(f"expected one {key!r} line in the configuration, found {count}")
    return new


def _acceptance(root: Path) -> str:
    return (root / ACCEPTANCE_CONFIG).read_text(encoding="utf-8")


def _lp_annulus_m(root: Path) -> str:
    text = set_key(_acceptance(root), "state_resolution", "[5, 128]")
    return set_key(text, "degree", "6")


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    commands: tuple[str, ...]
    jobs: int
    base_config: Callable[[Path], str]  # checkout root -> configuration text
    start_points: tuple[tuple[float, ...], ...] = ()

    def config_text(self, root: Path, seed: int) -> str:
        text = set_key(self.base_config(root), "seed", str(seed))
        if self.start_points:
            y0 = self.start_points[seed % len(self.start_points)]
            text = set_key(text, "y0", "[" + ", ".join(repr(v) for v in y0) + "]")
        return text


WORKLOADS = {w.name: w for w in (
    Workload(
        name="acceptance-study",
        why="the paper's reference study, all six commands in CLI order: "
            "simulation ~75% of the time, LPs ~20%, every layer at small size",
        commands=("solve", "simulate", "sweep", "convergence", "certify", "oracle"),
        jobs=1, base_config=_acceptance),
    # y0 stays at [1, 0]: at this size HiGHS' path, and with it the time and
    # which command fails, changes with the start point (other grid points
    # fail in solve, not in certify), so runs with other seeds would not be
    # comparable.
    Workload(
        name="lp-annulus-m",
        why="LP-bound: 11,520-column coupled LPs at jobs=2, nothing simulated; "
            "certify's known ProgramError at this size is kept and counted",
        commands=("solve", "certify"),
        jobs=2, base_config=_lp_annulus_m),
    Workload(
        name="box-custom",
        why="simulate on a box: expression-compiled dynamics, box binning and an "
            "open-loop schedule; an annulus-only gain must leave it unchanged",
        commands=("simulate",),
        jobs=1, base_config=lambda root: BOX_CUSTOM_CONFIG,
        start_points=((0.5, -0.5), (-0.5, 0.5), (0.25, 0.75), (-0.75, -0.25), (0.0, 0.0))),
)}
