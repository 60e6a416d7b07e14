"""The package namespace: every exported name, read lazily from its home module."""
from __future__ import annotations

import importlib

import pytest

import treeperc
from treeperc import resolutions


def test_every_exported_name_is_its_home_modules_object():
    for name in treeperc.__all__:
        home = importlib.import_module(f"treeperc.{treeperc._HOME_OF[name]}")
        assert getattr(treeperc, name) is getattr(home, name), name
    assert set(treeperc.__all__) <= set(dir(treeperc))


def test_star_import_binds_every_exported_name():
    namespace: dict = {}
    exec("from treeperc import *", namespace)
    for name in treeperc.__all__:
        assert namespace[name] is getattr(treeperc, name), name


def test_names_are_read_through_not_cached(monkeypatch):
    # A rebinding in the home module (a monkeypatch, a tracer's wrapper) is
    # what the package name reads, and its undo is seen too.
    original = treeperc.cut_gf
    assert "cut_gf" not in vars(treeperc)
    monkeypatch.setattr(resolutions, "cut_gf", len)
    assert treeperc.cut_gf is len
    monkeypatch.undo()
    assert treeperc.cut_gf is original


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="nope"):
        treeperc.nope


def test_submodules_still_import_from_the_package():
    from treeperc import limits, verify

    assert limits.__name__ == "treeperc.limits"
    assert verify.SCOPES == limits.SCOPES == ("quick", "full")
