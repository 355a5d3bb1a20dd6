"""The package's public names."""

import fiberdd


def test_every_public_name_resolves():
    assert len(set(fiberdd.__all__)) == len(fiberdd.__all__)
    for name in fiberdd.__all__:
        assert getattr(fiberdd, name) is not None, name
    namespace = {}
    exec("from fiberdd import *", namespace)
    assert set(fiberdd.__all__) <= set(namespace)
