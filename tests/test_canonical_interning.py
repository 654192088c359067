"""Pure sets interned in canonical order from birth.

``conch.conch_code`` and ``lt_levels`` hand their element tuples to the
trusted ``pureset._intern`` without sorting them, as ``deep_carrier`` and
``deep_uncarrier`` do (checked in ``test_pureset``).  Each is compared by
identity with the ``mk_set`` path it replaced, and every tuple it interned
is checked to be in canonical order: a tuple out of order would intern a
second value for one set and poison the intern table for the rest of the
process.
"""

import dataclasses
import random

import pytest

from conftest import built
from test_pureset import assert_canonical
from wandset import conch, pureset as ps, universe, wandspec

SPECS = ("pure", "conway", "partial-fun", "multiset", "church:1", "church:2")
BUILDS = [(name, 3, {}) for name in SPECS]
BUILDS += [(name, 4, {}) for name in ("pure", "conway", "church:1", "church:2")]
BUILDS += [("church:2", 4, {"mode": "sampled", "subset_bound": 2})]


def reference_conch_code(frag, a, memo):
    """The mk_set recursion that conch_code ran for every object; ``memo``
    may hold planted codes."""
    got = memo.get(a)
    if got is None:
        o = frag.obj(a)
        if o.is_bland:
            got = ps.carrier(ps.mk_set(reference_conch_code(frag, m, memo)
                                       for m in o.members))
        else:
            got = ps.mk_set(ps.kpair(frag.spec.wands[w].code,
                                     reference_conch_code(frag, b, memo))
                            for w, b in o.tclass)
        memo[a] = got
    return got


def reference_lt_levels(n):
    levels, level = [], ps.EMPTY
    for i in range(n):
        levels.append(level)
        if i + 1 < n:
            level = ps.mk_set(ps._intern(t) for t in ps.subsets(level.elements))
    return levels


# -- conch codes ---------------------------------------------------------------------

@pytest.mark.parametrize("name,depth,kw", BUILDS,
                         ids=[f"{n}-{d}" + ("-sampled" if kw else "") for n, d, kw in BUILDS])
def test_conch_code_matches_mk_set_reference(name, depth, kw):
    frag = built(name, depth, **kw)
    memo = {}
    for a in frag.ids():
        got = conch.conch_code(frag, a)
        assert got is reference_conch_code(frag, a, memo), frag.render(a)
        if frag.obj(a).is_bland:
            assert_canonical(ps.uncarrier(got))
        assert_canonical(got)


def test_colliding_codes_below_a_rank_raise():
    # distinct wand codes keep codes distinct; only a planted memo entry
    # collides, and it must not reach the trusted intern table
    frag = universe.build(wandspec.get_spec("pure"), 4)
    names = {frag.render(i): i for i in frag.ids()}
    one, two = names["{{}}"], names["{{{}}}"]  # ranks 1 and 2
    frag.conch_codes[two] = conch.conch_code(frag, one)
    rank3 = [a for a in frag.ids() if frag.obj(a).ordrank == 3]
    holder = next(a for a in rank3 if {one, two} <= set(frag.obj(a).members))
    with pytest.raises(ValueError, match="below rank 3 share a conch code"):
        conch.conch_code(frag, holder)
    assert holder not in frag.conch_codes
    assert (3, len(frag)) not in frag.conch_positions


# -- plain levels --------------------------------------------------------------------

def test_lt_levels_match_mk_set_reference():
    for n in range(7):
        got, want = ps.lt_levels(n), reference_lt_levels(n)
        assert len(got) == len(want) == n
        for level, ref in zip(got, want):
            assert level is ref
            assert_canonical(level)


def test_ordered_subsets_are_canonical_on_random_spreads():
    rank4 = ps.lt_levels(6)[-1].elements
    pool = [p for p in rank4 if p.rank <= 3] + list(rank4[16::4095])  # ranks 0 to 4
    rng = random.Random(16)
    for trial in range(200):
        spread = sorted(rng.sample(pool, rng.randint(1, 9) if trial else 0),
                        key=ps.PureSet.sort_key)
        got = list(ps.ordered_subsets(spread))
        want = sorted(ps.subsets(spread), key=lambda t: ps.mk_set(t).sort_key())
        assert got == want, spread


# -- no sort-key comparisons on the hot paths -----------------------------------------

def count_sort_keys(monkeypatch):
    calls = []
    real = ps.PureSet.sort_key
    monkeypatch.setattr(ps.PureSet, "sort_key", lambda self: calls.append(self) or real(self))
    return calls


@pytest.mark.parametrize("name,bound", [("conway", 40), ("church:2", 400)])
def test_conch_codes_sort_only_the_codes_below_each_rank(monkeypatch, name, bound):
    # a fresh memo on a shared depth-4 build; sorting the codes below each
    # rank once takes 29 key calls on conway and 190 on church:2 in a fresh
    # process, where coding each bland object through mk_set took 54 and 11,439
    frag = dataclasses.replace(built(name, 4), conch_codes={}, conch_positions={})
    calls = count_sort_keys(monkeypatch)
    [conch.conch_code(frag, a) for a in frag.ids()]
    assert len(calls) < bound


def test_lt_levels_sort_nothing(monkeypatch):
    calls = count_sort_keys(monkeypatch)
    assert len(ps.lt_levels(5)[-1]) == 16
    assert calls == []
