"""The public API is declared once, in each module's ``__all__``.

``choicetrust`` re-exports exactly what its modules list. These checks hold
the modules and the package to that one declaration without pinning the
names themselves.
"""

import importlib

import pytest

import choicetrust

MODULES = tuple(
    importlib.import_module(f"choicetrust.{name}")
    for name in (
        "choice_model",
        "consistency",
        "errors",
        "info_index",
        "pattern_runs",
        "preference_graph",
        "rationality_outcomes",
        "trust_scoring",
    )
)


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_the_package_exports_each_name_its_module_declares(module):
    assert "__all__" in vars(module)
    for name in module.__all__:
        assert getattr(choicetrust, name) is getattr(module, name)


def test_no_name_is_declared_twice():
    declared = [name for module in MODULES for name in module.__all__]
    assert len(declared) == len(set(declared))
    assert len(choicetrust.__all__) == len(set(choicetrust.__all__))
    assert set(choicetrust.__all__) == {"__version__", *declared}


def test_a_star_import_binds_exactly_the_declared_names():
    namespace = {}
    exec("from choicetrust import *", namespace)
    del namespace["__builtins__"]
    assert set(namespace) == set(choicetrust.__all__)
