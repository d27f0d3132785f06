"""The systems the tests run on, each built as a study's ``[system]`` section
builds it."""

from occlp.config import SystemConfig, build_system
from occlp.system import SystemSpec


def built(name: str, **keys) -> SystemSpec:
    """The spec of the ``[system]`` section ``name = <name>`` with ``keys``
    (``config.build_system``)."""
    return build_system(SystemConfig(name=name, **keys))
