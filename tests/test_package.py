import adiasearch


def test_public_names_resolve():
    # a stale entry would break `from adiasearch import *`
    names = adiasearch.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert hasattr(adiasearch, name), name
