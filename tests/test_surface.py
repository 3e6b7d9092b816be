"""The package surface: every module's ``__all__`` resolves, the package
root binds only the version and the one name the benchmark's tracer test
reads (perfbench/test_perfbench.py), and the manifold, field, patch, fiber
rule and profile types carry only what the computing paths read; the closed
forms the tests compare against live in ``oracles``."""

import dataclasses
import importlib
import pkgutil

import pytest

import divflow
from divflow.geometry import ChartedManifold, VectorFieldDef
from divflow.integrals import FiberRule, ShellPatch
from divflow.potential import PhiProfile

MODULES = sorted(info.name for info in pkgutil.iter_modules(divflow.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"divflow.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


def test_the_package_root_binds_only_the_version_and_the_tracer_pin():
    public = {n for n in vars(divflow) if not n.startswith("_")}
    assert public - set(MODULES) == {"metric_at"}
    assert isinstance(divflow.__version__, str)
    assert divflow.metric_at is importlib.import_module("divflow.geometry").metric_at


@pytest.mark.parametrize("cls,fields", [
    (VectorFieldDef, ["components", "jacobian"]),
    (ChartedManifold, ["name", "dim", "inner", "connection", "domain", "periods",
                       "radius", "shell", "sample_box", "radius_cap",
                       "radius_escape_certificate", "description"]),
    (ShellPatch, ["bounds", "to_chart", "density", "breakpoints"]),
    (FiberRule, ["nodes", "weights", "second_moments"]),
    (PhiProfile, ["name", "phi", "singular_near_zero"]),
], ids=["field", "manifold", "patch", "fiber-rule", "profile"])
def test_the_zoo_types_hold_only_what_the_package_reads(cls, fields):
    names = [f.name for f in dataclasses.fields(cls)]
    assert names == fields
