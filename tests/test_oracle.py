import dataclasses
from pathlib import Path

import numpy as np
import pytest

from occlp import cli
from occlp.basis import basis_for_region
from occlp.config import build_system, parse_config
from occlp.grid import LpBlocks, build_grid
from occlp.oracle import (OracleError, frozen_value, is_frozen, level_set_ordering, rotates,
                          rotation_level_value)
from occlp.system import ControlRegion, SystemSpec

from systems import built


@pytest.fixture(scope="module")
def rotation():
    return built("rotation")


def test_level_value_first_coordinate(rotation):
    result = rotation_level_value(rotation, 1.0)
    assert result.value == pytest.approx(-1.0, abs=1e-12)  # min of the cosine
    assert result.attained_by.startswith("stationary")
    # the circulating family averages the cosine out
    assert result.circulating_value == pytest.approx(0.0, abs=1e-12)


def test_level_value_constant_cost():
    spec = built("rotation", cost="3")
    result = rotation_level_value(spec, 0.81)
    assert result.value == 3.0


def test_level_value_favouring_motion():
    # cost 1 - u^2 rewards full-speed circulation; parking pays 1
    spec = built("rotation", cost="1 - u1^2")
    result = rotation_level_value(spec, 1.0)
    assert result.value == pytest.approx(0.0, abs=1e-12)
    assert result.attained_by.startswith("circulating")
    assert result.stationary_value == pytest.approx(1.0)


def test_level_outside_range_rejected(rotation):
    with pytest.raises(OracleError):
        rotation_level_value(rotation, 4.0)
    box = built("frozen", cost="y1 + u1^2")
    with pytest.raises(OracleError):
        rotation_level_value(box, 1.0)


def test_frozen_value_scans():
    quad = built("frozen", cost="u1^2")
    assert frozen_value(quad, (0.0, 0.0)).value == 0.0

    slope = built("frozen", cost="y1 + u1")
    result = frozen_value(slope, (0.5, 0.0))
    assert result.value == pytest.approx(-0.5, abs=1e-12)
    assert "u=[-1.0]" in result.attained_by

    const = built("frozen", cost="3")
    assert frozen_value(const, (0.3, 0.3)).value == 3.0


def test_frozen_error_bound_is_the_cost_modulus_over_one_control_cell():
    config = parse_config((Path(__file__).parents[1] / "configs" / "frozen.conf").read_text())
    spec = build_system(config.system)
    result = frozen_value(spec, config.program.y0)
    # k = y1 + u1^2 moves most between the last two of 201 controls on [-1, 1]
    us = np.linspace(-1.0, 1.0, 201)
    assert result.error_bound == float(np.max(np.abs(np.diff(us ** 2))))
    assert result.error_bound == pytest.approx(1.0 - 0.99 ** 2, rel=1e-12)
    assert result.value == config.program.y0[0]
    # over a control box, only lattice neighbours are compared: steps of 0.5
    # in u1 move k by 0.5 and in u2 by 1, while consecutive lattice rows jump
    tilted = SystemSpec(dynamics_text=("0", "0"), cost_text="u1 + 2*u2",
                        region=spec.region,
                        control=ControlRegion(lower=(-1.0, -1.0), upper=(1.0, 1.0)),
                        bound_f=0.0, bound_k=3.0)
    assert frozen_value(tilted, (0.5, 0.5), control_resolution=5).error_bound == 1.0


def test_level_table_square_root_law(rotation):
    levels = np.linspace(0.25, 2.25, 9)
    table = level_set_ordering(rotation, levels)
    for z, value in table.rows:
        assert value == pytest.approx(-np.sqrt(z), abs=1e-9)
    assert table.min_value == pytest.approx(-1.5, abs=1e-9)
    assert table.argmin_level == pytest.approx(2.25)


@pytest.mark.parametrize("cost", ["y1", "1 - u1^2 + 0.2*y2",
                                  "exp(y1) * cos(3*u1) + sqrt(2 + y2) - atan2(y2, y1 + 2)"])
def test_level_table_rows_are_bitwise_the_materialised_scan(cost):
    spec = built("rotation", cost=cost)
    levels = [0.25, 0.7, 1.0, 2.25]
    table = level_set_ordering(spec, levels)
    # every (angle, control) pair of each circle as a row of its own
    angles = 2.0 * np.pi * np.arange(4096) / 4096
    controls = spec.control.grid(41)
    zero = int(np.argmin(np.abs(controls[:, 0])))
    (cx, cy), rows = spec.region.center, []
    for z in levels:
        radius = np.sqrt(z)
        ys = np.stack([cx + radius * np.cos(angles), cy + radius * np.sin(angles)], axis=1)
        ys_full, us_full = np.repeat(ys, 41, axis=0), np.tile(controls, (4096, 1))
        costs = spec.cost_at(ys_full, us_full).reshape(4096, 41)
        stationary, circulating = np.min(costs[:, zero]), np.min(costs.mean(axis=0))
        rows.append((z, stationary if stationary <= circulating else circulating))
    assert np.array(table.rows).tobytes() == np.array(rows).tobytes()
    assert table.rows == tuple((z, rotation_level_value(spec, z).value) for z in levels)


def test_level_table_constant_cost_flat():
    spec = built("rotation", cost="3")
    table = level_set_ordering(spec, [0.25, 1.0, 2.25])
    assert all(v == 3.0 for _z, v in table.rows)


def test_level_table_radial_well():
    spec = built("rotation", cost="(y1^2 + y2^2 - 1)^2")
    table = level_set_ordering(spec, np.linspace(0.25, 2.25, 9))
    assert table.argmin_level == pytest.approx(1.0, abs=1e-12)
    assert table.min_value == pytest.approx(0.0, abs=1e-9)


def test_cost_shift_invariance(rotation):
    shifted = built("rotation", cost="y1 + 2")
    base = rotation_level_value(rotation, 1.0)
    moved = rotation_level_value(shifted, 1.0)
    assert moved.value == base.value + 2.0


def test_angle_refinement_stability(rotation):
    coarse = rotation_level_value(rotation, 1.0, angle_resolution=7)
    fine = rotation_level_value(rotation, 1.0, angle_resolution=14)
    # Lipschitz constant of the first-coordinate cost is 1 on the unit circle
    assert abs(fine.value - coarse.value) <= np.pi * 1.0 / 7


SPIRAL_ANNULUS = """
[system]
name = custom
region = annulus
inner_radius = 0.5
outer_radius = 1.5
dynamics = [{dynamics}]
cost = y1
[grid]
state_resolution = [3, 16]
control_resolution = 5
[basis]
degree = 2
[program]
y0 = [1.0, 0.0]
"""


def _oracle_values(spec, cfg) -> dict:
    bundle = cli.ReportBundle(config={})
    grid = build_grid(spec, tuple(cfg.grid.state_resolution), cfg.grid.control_resolution)
    blocks = LpBlocks(grid, basis_for_region(spec.region, cfg.basis.degree), cfg.program.y0)
    cli._oracle_section(bundle, blocks, cfg)
    return bundle.values


def test_the_level_set_oracle_needs_the_rotation_dynamics():
    # the rotation written as custom expressions gets the built-in's values
    written = parse_config(SPIRAL_ANNULUS.format(dynamics="u1 * y2, -u1*y1"))
    spec = build_system(written.system)
    assert rotates(spec) and not is_frozen(spec)
    builtin = built("rotation")
    assert rotation_level_value(spec, 1.0).value == rotation_level_value(builtin, 1.0).value
    assert _oracle_values(spec, written)["oracle.level_value"] == -1.0
    # a spiral has no invariant circle, so no level value describes it
    cfg = parse_config(SPIRAL_ANNULUS.format(dynamics="u1*y2 - 0.1*y1, -u1*y1 + 0.1*y2"))
    spiral = build_system(cfg.system)
    assert not rotates(spiral) and not is_frozen(spiral)
    for scan in (lambda: rotation_level_value(spiral, 1.0),
                 lambda: level_set_ordering(spiral, [0.25, 1.0])):
        with pytest.raises(OracleError, match="the rotation's"):
            scan()
    assert not [key for key in _oracle_values(spiral, cfg) if key.startswith("oracle.")]


def test_the_level_set_oracle_needs_an_annulus_about_the_origin():
    # the oracle scans the circles of an annulus, which is about the origin as
    # the rotation is; the rotation's dynamics on a box are refused
    rotation = built("rotation")
    boxed = built("custom", region="box", dynamics=("u1*y2", "-u1*y1"))
    assert rotates(rotation) and not rotates(boxed)
    for scan in (lambda: rotation_level_value(boxed, 1.0),
                 lambda: level_set_ordering(boxed, [0.25, 1.0])):
        with pytest.raises(OracleError, match="about the origin"):
            scan()


def test_the_level_set_oracle_needs_a_control_box_that_parks():
    # family (i) parks at u = 0, which the control box [0.5, 1] does not
    # admit: the rotation's circles are invariant, but no parked measure is
    cfg = parse_config(SPIRAL_ANNULUS.format(dynamics="u1*y2, -u1*y1").replace(
        "cost = y1", "cost = y1\ncontrol_lower = [0.5]"))
    spec = build_system(cfg.system)
    assert spec.control.lower == (0.5,) and not rotates(spec) and not is_frozen(spec)
    for scan in (lambda: rotation_level_value(spec, 1.0),
                 lambda: level_set_ordering(spec, [0.25, 1.0])):
        with pytest.raises(OracleError, match="u = 0 in the control box"):
            scan()
    assert not [key for key in _oracle_values(spec, cfg) if key.startswith("oracle.")]
    # with 0 in the box, a parked measure costs k at exactly u = 0, whether
    # or not the control scan holds it
    uneven = built("custom", region="annulus", dynamics=("u1*y2", "-u1*y1"),
                   cost="y1 + u1^2", control_lower=(-0.3,))
    assert rotates(uneven) and 0.0 not in uneven.control.grid(41)
    parked = rotation_level_value(uneven, 1.0, angle_resolution=4)
    assert parked.value == parked.stationary_value == -1.0
    assert parked.attained_by == "stationary (angle=3.141593, u=0)"


def test_the_frozen_oracle_needs_zero_dynamics():
    frozen = built("frozen", cost="y1 + u1^2")
    assert is_frozen(frozen) and not rotates(frozen)
    assert is_frozen(build_system(parse_config(
        "[system]\nname = custom\nregion = box\ndynamics = [0, 0.0]\ncost = u1^2\n"
        "[program]\ny0 = [0.5, -0.5]\n").system))
    # box-custom's dynamics with bound_f = 0 (which a config may not declare)
    cfg = parse_config("[system]\nname = custom\nregion = box\nlower = [-1.0, -1.0]\n"
                       "upper = [1.0, 1.0]\ndynamics = [-y1 + u1, -y2 + y1]\n"
                       "cost = y2^2 + 0.5*u1^2\n[grid]\nstate_resolution = [4, 4]\n"
                       "control_resolution = 3\n[basis]\ndegree = 2\n"
                       "[program]\ny0 = [0.5, -0.5]\n")
    spec = dataclasses.replace(build_system(cfg.system), bound_f=0.0)
    assert not is_frozen(spec)
    with pytest.raises(OracleError, match="zero dynamics"):
        frozen_value(spec, (0.5, -0.5))
    assert not [key for key in _oracle_values(spec, cfg) if key.startswith("oracle.")]
