"""Shared utilities: naming, graph algorithms and serialization helpers."""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".naming": ["NameRegistry", "is_valid_name", "make_unique"],
    ".graphs": [
        "enumerate_simple_cycles",
        "reachable_from",
        "strongly_connected_components",
        "topological_order",
    ],
    ".serialization": ["dump_json", "load_json"],
})
