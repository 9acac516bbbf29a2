"""Reduced rotation-group dynamics for rotating and meandering waves on a sphere.

The package integrates ``Adot = A hat(X^G(t, lambda))`` on SO(3) through the
algebra-valued Z-equation with closed-form BCH chaining, extracts primary and
lifted frequency vectors after a Hopf bifurcation, classifies the resulting
motion (rigid rotation, meander, resonant drift), locates orthogonal-drift
parameter branches, and generates tip trajectories with circle verification.

``import rotwave`` runs none of its submodules. Each one whose ``__all__`` the
package re-exports sits in ``sys.modules`` as a lazy module
(:class:`importlib.util.LazyLoader`, as in Scientific Python SPEC 1): a real
module object whose body runs at its first attribute read. A public name
resolves at its first read through :func:`__getattr__` (PEP 562), which runs
the submodules in :data:`_MODULES` order until one lists the name; reading
``__all__`` runs them all, and so does :func:`dir`, which lists every public
name. The package attribute ``bch`` is the function; every other re-exporting
submodule is the package attribute of its name.

On Python before 3.12.3, the lazy loader runs a module's body without a lock,
so the first use of a submodule from several threads at once is not safe: a
thread may find the module half run. Use it once from one thread first.
"""
import importlib.util as _util
import sys as _sys

__version__ = "0.1.0"

#: the submodules whose ``__all__`` the package re-exports, each after those it imports, so that
#: resolving a name runs few modules that the name's own does not import
_MODULES = ("errors", "so3", "bch", "tip", "flow", "scenarios", "hopf")

for _name in _MODULES:
    _spec = _util.find_spec(f"{__name__}.{_name}")
    _spec.loader = _util.LazyLoader(_spec.loader)
    _module = _sys.modules[_spec.name] = _util.module_from_spec(_spec)
    _spec.loader.exec_module(_module)
    if _name != "bch":
        globals()[_name] = _module
del _name, _spec, _module


def __getattr__(name: str):
    if name == "__all__":
        value = sorted(n for m in _MODULES for n in _sys.modules[f"{__name__}.{m}"].__all__)
    else:
        for m in _MODULES:
            module = _sys.modules[f"{__name__}.{m}"]
            if name in module.__all__:
                value = getattr(module, name)
                break
        else:
            raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*__getattr__("__all__"), *globals()})
