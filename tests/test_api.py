"""The package's public names."""

import pathlib
import re

import pytest

import gcdft
from gcdft.errors import DomainError
from gcdft.functions import id_power, jordan_function
from gcdft.numtheory import gcd, jordan
from gcdft.ramanujan import ramanujan_definition, ramanujan_kluyver, ramanujan_von_sterneck
from gcdft.transform import reduce_order


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


@pytest.mark.parametrize(
    "call, args",
    [
        (jordan, (2.0, 12)),
        (jordan, (True, 12)),
        (ramanujan_von_sterneck, (12.0, 1)),
        (ramanujan_von_sterneck, (12, 1.0)),
        (ramanujan_von_sterneck, (12, True)),
        (ramanujan_kluyver, (12.0, 1)),
        (ramanujan_kluyver, (12, True)),
        (ramanujan_definition, (12.0, 1)),
        (ramanujan_definition, (12, True)),
        (reduce_order, (5.0, 12)),
        (reduce_order, (5, 12.0)),
        (reduce_order, (5, 0)),
        (gcd, (12.0, 8)),
        (gcd, (12, "8")),
        (id_power, (2.0,)),
        (jordan_function, (2.0,)),
    ],
)
def test_integer_arguments_are_checked_at_the_boundary(call, args):
    with pytest.raises(DomainError):
        call(*args)
