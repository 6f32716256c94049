"""choicetrust: rationality patterns and trust degrees for staged choice histories.

The library turns a reviewer's recorded four-stage choice episodes into
per-period preference digraphs, extracts per-object run patterns, places
them in the rationality outcome set, and attaches a degree of
trustworthiness to each review; a separate information index ranks graded
lists, and a brute-force checker verifies small choice functions for
contraction consistency and rationalizability.

Names load on first use: importing the package runs none of its modules.
`choicetrust.<module>` imports that module, and the first exported name
looked up (or `__all__`, a star import, `dir()`) imports them all.
"""

import importlib

__version__ = "0.1.0"

# The modules whose `__all__` the package re-exports.
_MODULES = (
    "choice_model",
    "consistency",
    "errors",
    "info_index",
    "pattern_runs",
    "preference_graph",
    "rationality_outcomes",
    "trust_scoring",
)


def __getattr__(name: str):
    """A module of `_MODULES`, or an exported name (PEP 562).

    Runs only for a name not yet bound here. Any other name imports every
    module and binds all they export, and `__all__`, so it runs once for them.
    """
    if name in _MODULES:
        return importlib.import_module(f"{__name__}.{name}")
    namespace = globals()
    if "__all__" not in namespace:
        exported = ["__version__"]
        for submodule in _MODULES:
            module = importlib.import_module(f"{__name__}.{submodule}")
            namespace.update((key, getattr(module, key)) for key in module.__all__)
            exported += module.__all__
        namespace["__all__"] = exported
    try:
        return namespace[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None


def __dir__() -> list[str]:
    return sorted({*globals(), *_MODULES, *__getattr__("__all__")})
