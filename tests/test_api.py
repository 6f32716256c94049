"""The public API is declared once, in each module's ``__all__``.

``choicetrust`` re-exports exactly what its modules list. These checks hold
the modules and the package to that one declaration without pinning the
names themselves. The package imports its modules on first use, so the
surface is also read from fresh interpreters, one for each kind of first use.
"""

import importlib
import json
import subprocess
import sys

import pytest

import choicetrust
from helpers import child_env

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


# Imports the package in a fresh interpreter, makes the first use of it that
# argv[1] names, then reads the whole public surface.
_FIRST_USE = """
import json
import sys

import choicetrust

before = sorted(name for name in sys.modules if name.startswith("choicetrust."))
modules = sys.argv[2:]
first = sys.argv[1]
namespace = {}
listing = None
if first == "star":
    exec("from choicetrust import *", namespace)
elif first == "dir":
    listing = dir(choicetrust)
elif first == "unknown":
    hasattr(choicetrust, "no_such_name")
else:
    value = getattr(choicetrust, first)
    if first in modules:
        assert value is sys.modules["choicetrust." + first]
exec("from choicetrust import *", namespace)
del namespace["__builtins__"]
owners = {name: sys.modules["choicetrust." + m] for m in modules for name in sys.modules["choicetrust." + m].__all__}
try:
    choicetrust.no_such_name
except AttributeError as exc:
    missing = str(exc)
print(json.dumps({
    "before": before,
    "all": choicetrust.__all__,
    "star": sorted(name for name, value in namespace.items()
                   if value is (choicetrust.__version__ if name == "__version__" else getattr(owners[name], name))),
    "dir": listing or dir(choicetrust),
    "missing": missing,
}))
"""

MODULE_NAMES = [module.__name__.rpartition(".")[2] for module in MODULES]


@pytest.mark.parametrize("first", [*MODULE_NAMES, "ChoiceEpisode", "__all__", "star", "dir", "unknown"])
def test_the_package_loads_its_modules_on_first_use(first):
    child = subprocess.run(
        [sys.executable, "-c", _FIRST_USE, first, *MODULE_NAMES],
        capture_output=True,
        text=True,
        env=child_env(),
        timeout=60,
    )
    assert (child.returncode, child.stderr) == (0, "")
    surface = json.loads(child.stdout)
    # Importing the package runs none of its modules.
    assert surface["before"] == []
    declared = [name for module in MODULES for name in module.__all__]
    assert surface["all"] == ["__version__", *declared]
    assert surface["star"] == sorted(surface["all"])
    assert {*surface["all"], *MODULE_NAMES} <= set(surface["dir"])
    assert surface["dir"] == sorted(surface["dir"])
    assert surface["missing"] == "module 'choicetrust' has no attribute 'no_such_name'"
