"""The package namespace: every public name, bound at import or on its first access."""

import sys

import pytest

import gaussian_ramsey


def test_every_public_name_is_its_defining_modules_object(monkeypatch):
    # geometry's and estimators' names are dropped from the namespace first, so each access runs __getattr__
    for name in gaussian_ramsey._DEFERRED:
        monkeypatch.delitem(vars(gaussian_ramsey), name, raising=False)
    listed, owners = dir(gaussian_ramsey), {}
    for name in gaussian_ramsey.__all__:
        obj = getattr(gaussian_ramsey, name)
        owners[name] = obj.__module__
        assert obj is getattr(sys.modules[obj.__module__], name), name
        assert name in vars(gaussian_ramsey) and name in listed, name  # kept once resolved
    # the deferred names are exactly those of the two modules that import numpy at module level
    numpy_owned = {name: owner for name, owner in owners.items() if owner.endswith((".geometry", ".estimators"))}
    assert numpy_owned == {name: f"gaussian_ramsey.{module}" for name, module in gaussian_ramsey._DEFERRED.items()}


def test_star_import_binds_every_name_and_an_unknown_name_is_an_attribute_error():
    namespace = {}
    exec("from gaussian_ramsey import *", namespace)
    assert all(namespace[name] is getattr(gaussian_ramsey, name) for name in gaussian_ramsey.__all__)
    with pytest.raises(AttributeError, match="^module 'gaussian_ramsey' has no attribute 'no_such_name'$"):
        gaussian_ramsey.no_such_name
