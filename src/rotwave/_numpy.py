"""numpy, imported on first use.

Every subcommand runs on Python floats; numpy serves only the library calls
that take or return ndarrays. So a module that also builds ndarrays binds
``np = lazy_numpy(globals())``. The first attribute
read on that stand-in imports numpy and rebinds ``np`` to it in every
namespace that asked, so later reads cost what any global lookup costs.
"""
from __future__ import annotations

_NAMESPACES: list[dict] = []


class _StandIn:
    def __getattr__(self, name: str):
        import numpy

        for namespace in _NAMESPACES:
            namespace["np"] = numpy
        return getattr(numpy, name)


def lazy_numpy(namespace: dict) -> _StandIn:
    """A stand-in for numpy that rebinds ``namespace["np"]`` on first use."""
    _NAMESPACES.append(namespace)
    return _StandIn()
