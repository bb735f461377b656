"""The package's public names. Their integer arguments are swept in
``test_typed_boundary.py``."""

import pathlib
import re

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


def test_only_numtheory_builds_unchecked_factorizations():
    package = pathlib.Path(gcdft.__file__).parent
    callers = [
        p.name for p in sorted(package.glob("*.py")) if re.search(r"\b_proven\b", p.read_text())
    ]
    assert callers == ["numtheory.py"]
    for name in ("_divisors_of", "_factored_divisors"):
        assert not hasattr(gcdft.numtheory, name)
        assert not hasattr(gcdft.functions, name)
