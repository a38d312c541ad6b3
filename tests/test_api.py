"""The package's public names: what a user of run and compare needs, each resolving and star-importing.

Also the module attributes perfbench's tracer wraps, which must all exist.
"""

import sys
from pathlib import Path

import lifedrop

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

PUBLIC = {
    "ARCH_PRESETS", "BlobSpec", "Dataset", "EpochMetrics", "RegularizerConfig", "RunConfig", "compare",
    "load_cifar10", "make_blobs", "run",
}


def test_all_is_the_public_surface():
    # the lower layers (nn, lattice, regularizers, seeding) are imported from their own modules
    assert sorted(lifedrop.__all__) == sorted(PUBLIC)


def test_every_exported_name_resolves():
    assert len(set(lifedrop.__all__)) == len(lifedrop.__all__)
    missing = [name for name in lifedrop.__all__ if not hasattr(lifedrop, name)]
    assert missing == []


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from lifedrop import *", namespace)  # a stale __all__ entry raises AttributeError here
    assert set(lifedrop.__all__) <= set(namespace)


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
