"""The package's public names: what a user of run and compare needs, each resolving and star-importing.

Also the module attributes perfbench's tracer wraps, which must all exist, and the one module that derives seeds.
"""

import importlib
import pkgutil
import sys
from pathlib import Path

import pytest

import lifedrop

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

PUBLIC = {
    "BlobSpec", "Dataset", "EpochMetrics", "RegularizerConfig", "RunConfig", "compare", "load_cifar10", "run",
}


def test_all_is_the_public_surface():
    # the lower layers (nn, lattice, regularizers) are imported from their own modules
    assert sorted(lifedrop.__all__) == sorted(PUBLIC)


def test_every_exported_name_resolves():
    assert len(set(lifedrop.__all__)) == len(lifedrop.__all__)
    missing = [name for name in lifedrop.__all__ if not hasattr(lifedrop, name)]
    assert missing == []


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from lifedrop import *", namespace)  # a stale __all__ entry raises AttributeError here
    assert set(lifedrop.__all__) <= set(namespace)


def test_only_harness_derives_seeds():
    # every random stream is keyed in one module; the others draw from the seeds they are given
    modules = [info.name for info in pkgutil.iter_modules(lifedrop.__path__)]
    holders = [name for name in modules if hasattr(importlib.import_module(f"lifedrop.{name}"), "derive_seed")]
    assert holders == ["harness"]
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("lifedrop.seeding")


def test_harness_holds_every_setting():
    # one module defines every config, so one type rule checks them all
    settings = (lifedrop.RegularizerConfig, lifedrop.BlobSpec, lifedrop.RunConfig)
    assert {cls.__module__ for cls in settings} == {"lifedrop.harness"}


def test_every_perfbench_trace_hook_exists(monkeypatch):
    # Tracer.install skips a missing attribute, so a renamed import would make its figures read 0
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # importing leaves no __pycache__ in perfbench/
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans
    import workload

    install, missing = spans.Tracer.install, []

    def recording_install(tracer, module, attr, wrapper):
        if not hasattr(module, attr):
            missing.append(f"{module.__name__}.{attr}")
        install(tracer, module, attr, wrapper)

    class NoRun:
        def train(self, run=None) -> bool:
            return False  # traced_run installs every hook, then restores them without training

    monkeypatch.setattr(spans.Tracer, "install", recording_install)
    workload.traced_run(NoRun())
    assert missing == []
