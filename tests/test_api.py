"""The package's public names: what a user of run and compare needs, each resolving and star-importing."""

import lifedrop

PUBLIC = {
    "ARCH_PRESETS", "BlobSpec", "ConfigError", "Dataset", "EpochMetrics", "OverfitMonitor", "RegularizerConfig",
    "RunConfig", "compare", "evaluate", "load_cifar10", "make_blobs", "run",
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
