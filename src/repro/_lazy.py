"""Lazy package re-exports (PEP 562).

A package ``__init__`` names the submodule each re-exported name lives in;
that submodule is imported the first time the name is looked up.  Importing
a package therefore costs only what its user touches: ``repro-dfs
--version`` does not load NumPy, while ``from repro import Verifier`` still
works.  Usage::

    __getattr__, __dir__, __all__ = lazy_exports(__name__, {
        ".model": ["DataflowStructure"],
        ".client": ["ServiceBusy as ClientBusy"],
    })
"""

import importlib
import sys


def lazy_exports(package, exports):
    """Return ``(__getattr__, __dir__, __all__)`` for the module *package*.

    *exports* maps a submodule (relative to *package*) to the names it
    provides; ``"name as alias"`` re-exports *name* under *alias*.  A
    resolved name is cached in the package's namespace, so the hook runs
    once per name.
    """
    origins = {}
    for module, names in exports.items():
        for entry in names:
            name, _, alias = entry.partition(" as ")
            origins[alias or name] = (module, name)

    def __getattr__(name):
        try:
            module, attribute = origins[name]
        except KeyError:
            raise AttributeError(
                "module {!r} has no attribute {!r}".format(package, name)) from None
        value = getattr(importlib.import_module(module, package), attribute)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__():
        return sorted(set(vars(sys.modules[package])) | set(origins))

    return __getattr__, __dir__, sorted(origins)
