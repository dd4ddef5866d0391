"""The package's export list: what ``from ncelm import *`` provides."""

import ncelm


def test_star_import_resolves_every_exported_name():
    names = ncelm.__all__
    assert len(names) == len(set(names))
    namespace = {}
    exec("from ncelm import *", namespace)
    for name in names:
        assert name in namespace
        assert namespace[name] is getattr(ncelm, name)
    # The per-record batch types are gone; CellCounts is the batch type.
    assert "CellCounts" in names
    for gone in ("ProxyBatch", "ProxyExample"):
        assert not hasattr(ncelm, gone)
