"""The public surface: every exported name resolves, and the per-level
functional accessors stay gone (one route: functional_row on a level set,
build_series over a grid)."""

import importlib
import pkgutil

import pytest

import curvlab

MODULES = ["curvlab", *(f"curvlab.{m.name}" for m in pkgutil.iter_modules(curvlab.__path__) if m.name != "__main__")]

DELETED = (
    "fhat",
    "g_func",
    "g_prime",
    "f_func",
    "f_prime_analytic",
    "a1",
    "a1_prime",
    "a1_tilde",
    "a_growth",
    "b1",
    "boundary_deficit",
    "volume_sublevel",
    "coarea_volume",
)


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", ())  # curvlab.errors exports by class name alone
    assert len(set(exported)) == len(exported)
    for attr in exported:
        assert hasattr(module, attr), f"{name}.{attr}"


@pytest.mark.parametrize("name", ["curvlab", "curvlab.functionals"])
def test_per_level_accessors_are_gone(name):
    module = importlib.import_module(name)
    assert not [attr for attr in DELETED if hasattr(module, attr)]
