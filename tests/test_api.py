"""The package's public names."""

import gcdft


def test_every_exported_name_resolves_once():
    assert len(gcdft.__all__) == len(set(gcdft.__all__))
    for name in gcdft.__all__:
        assert getattr(gcdft, name) is not None, name


def test_order_decomposition_is_gone():
    for name in ("decompose_order", "OrderDecomposition"):
        assert name not in gcdft.__all__
        assert not hasattr(gcdft, name)
        assert not hasattr(gcdft.transform, name)
