"""The systems the tests run on, each built as a study's ``[system]`` section
builds it."""

from occlp.config import ProgramConfig, SystemConfig, build_system
from occlp.system import SystemSpec

CAP = ProgramConfig.xi_mass_cap  # a study's default xi mass cap, for the LP builders


def built(name: str, **keys) -> SystemSpec:
    """The spec of the ``[system]`` section ``name = <name>`` with ``keys``
    (``config.build_system``)."""
    return build_system(SystemConfig(name=name, **keys))
