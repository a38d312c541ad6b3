"""The package's public names: every entry of __all__ exists and star-imports."""

import lifedrop


def test_every_exported_name_resolves():
    assert len(set(lifedrop.__all__)) == len(lifedrop.__all__)
    missing = [name for name in lifedrop.__all__ if not hasattr(lifedrop, name)]
    assert missing == []


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from lifedrop import *", namespace)  # a stale __all__ entry raises AttributeError here
    assert set(lifedrop.__all__) <= set(namespace)
