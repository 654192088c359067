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


def ref_render(frag, oid):
    """Brace notation from the sorting reference: a bland set's members in
    canonical order, a tapped object's least (wand, argument) pair."""
    o = frag.obj(oid)
    if o.is_bland:
        inner = sorted((ref_sort_key(frag, m), m) for m in o.members)
        return "{" + ",".join(ref_render(frag, m) for _, m in inner) + "}"
    w, _, b = min((w, ref_sort_key(frag, b), b) for w, b in o.tclass)
    return f"*{w}{ref_render(frag, b)}"


def ref_hb_part(frag, a):
    """The hereditarily bland part of a bland object: the id of the bland set
    of its hereditarily bland members, or None when that is not registered."""
    return frag.bland_id(x for x in frag.obj(a).members if universe.hereditarily_bland(frag, x))


@pytest.fixture(scope="session")
def church3():
    return built("church:2", 3)


@pytest.fixture(scope="session")
def pure4():
    return built("pure", 4)


@pytest.fixture(scope="session")
def conway4():
    return built("conway", 4)
