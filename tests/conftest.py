import pytest

from wandset import universe, wandspec


_FRAGMENTS = {}


def built(name: str, depth: int, **kw):
    """Shared fragment builds; most tests read fragments without mutating."""
    key = (name, depth, tuple(sorted(kw.items())))
    if key not in _FRAGMENTS:
        _FRAGMENTS[key] = universe.build(wandspec.get_spec(name), depth, **kw)
    return _FRAGMENTS[key]


def ref_sort_key(frag, oid):
    """Canonical order, computed from scratch and never from ids: rank, bland
    before tapped, then the sorted keys of the members or class pairs."""
    o = frag.obj(oid)
    if o.is_bland:
        return (o.ordrank, 0, tuple(sorted(ref_sort_key(frag, m) for m in o.members)))
    return (o.ordrank, 1, tuple(sorted((w, ref_sort_key(frag, b)) for w, b in o.tclass)))


@pytest.fixture(scope="session")
def church3():
    return built("church:2", 3)


@pytest.fixture(scope="session")
def pure4():
    return built("pure", 4)


@pytest.fixture(scope="session")
def conway4():
    return built("conway", 4)
