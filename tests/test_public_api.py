"""`ccwkit.__all__` is the package's public API: a name deleted from the
code but left in the list, or an export left out of it, fails here rather
than in a user's `from ccwkit import *`."""

import inspect

import ccwkit


def test_every_name_resolves_once():
    assert len(set(ccwkit.__all__)) == len(ccwkit.__all__)
    for name in ccwkit.__all__:
        assert hasattr(ccwkit, name), name


def test_all_lists_every_public_attribute():
    public = {
        name
        for name, value in vars(ccwkit).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }
    assert set(ccwkit.__all__) == public
