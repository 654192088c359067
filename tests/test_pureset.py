import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wandset import pureset as ps
from wandset.errors import CapExceeded, NotACarrier, NotAPair, NotInCodeImage

E = ps.EMPTY
S1 = ps.mk_set([E])          # {0}
S2 = ps.mk_set([S1])         # {{0}}
PAIR01 = ps.mk_set([E, S1])  # {0,{0}}


def pure_sets(max_leaves=12):
    return st.recursive(
        st.just(E),
        lambda kids: st.lists(kids, max_size=4).map(ps.mk_set),
        max_leaves=max_leaves)


# -- construction and interning -------------------------------------------------

def test_mk_set_empty_and_dedup():
    assert ps.mk_set([]) is E
    assert ps.mk_set([E, E]) is S1
    assert ps.mk_set([S1, E]) is ps.mk_set([E, S1])


def test_canonical_order_sorts_by_rank_then_size():
    s = ps.mk_set([S2, E, S1])
    assert s.elements == (E, S1, S2)


def _nested():
    z = E
    while True:
        z = ps.mk_set([z])
        if z.rank > 40:  # deeper than any other test reaches, with short reprs
            yield z


_FRESH = _nested()


@given(st.lists(pure_sets(), max_size=5), st.booleans())
def test_interning_and_idempotence(elems, structural_first):
    a = ps.mk_set(elems)
    b = ps.mk_set(list(reversed(elems)))
    assert a is b
    assert ps.mk_set(a.elements) is a
    # {<empty, x>} built by mk_set and by carrier is one object, whichever
    # comes first; x is a payload no carrier has been made of yet
    x = ps.mk_set(elems + [next(_FRESH)])
    assert x.elements not in ps._CARRIERS
    if structural_first:
        s = ps.mk_set([ps.kpair(E, x)])
        c = ps.carrier(x)
    else:
        c = ps.carrier(x)
        s = ps.mk_set([ps.kpair(E, x)])
    assert s is c and ps.uncarrier(s) is x
    assert ps.mk_set(c.elements) is c and ps.mk_set(list(c)) is c


def test_rank():
    assert ps.rank(E) == 0
    assert ps.rank(S1) == 1
    assert ps.rank(ps.mk_set([S1, E])) == 2


# -- pairs and carriers -----------------------------------------------------------

def test_kpair_of_empties_collapses():
    assert ps.kpair(E, E) is S2
    assert ps.kunpair(S2) == (E, E)


def test_kunpair_rejects_non_pairs():
    with pytest.raises(NotAPair):
        ps.kunpair(S1)
    with pytest.raises(NotAPair):
        ps.kunpair(E)
    with pytest.raises(NotAPair):
        ps.kunpair(ps.mk_set([S1, ps.mk_set([S2])]))


@given(pure_sets(), pure_sets())
def test_pair_roundtrip_and_rank(a, b):
    p = ps.kpair(a, b)
    assert ps.kunpair(p) == (a, b)
    assert ps.rank(p) == max(ps.rank(a), ps.rank(b)) + 2


def test_carrier_of_empty():
    assert ps.carrier(E) is ps.mk_set([S2])
    assert repr(ps.carrier(E)) == "{{{{}}}}"
    assert ps.uncarrier(ps.carrier(E)) is E


def test_uncarrier_rejects_non_carriers():
    with pytest.raises(NotACarrier):
        ps.uncarrier(E)
    with pytest.raises(NotACarrier):
        ps.uncarrier(S1)


@given(pure_sets())
def test_carrier_roundtrip_and_rank(a):
    c = ps.carrier(a)
    assert ps.uncarrier(c) is a
    expected = 3 if a is E else ps.rank(a) + 3
    assert ps.rank(c) == expected


# -- the recursive code ------------------------------------------------------------

def test_deep_carrier_base_cases():
    assert ps.deep_carrier(E) is ps.carrier(E)
    assert ps.deep_carrier(S1) is ps.carrier(ps.mk_set([ps.carrier(E)]))


def test_deep_uncarrier_rejects_off_image():
    with pytest.raises(NotInCodeImage):
        ps.deep_uncarrier(S1)


@given(pure_sets())
def test_deep_carrier_roundtrip(a):
    assert ps.deep_uncarrier(ps.deep_carrier(a)) is a


def test_deep_carrier_injective_small_ranks():
    # exhaustive over everything of rank <= 3, spot injectivity
    universe_ = ps.lt_levels(5)[-1].elements
    codes = {ps.deep_carrier(p) for p in universe_}
    assert len(codes) == len(universe_)


@given(st.lists(pure_sets(max_leaves=40), min_size=2, max_size=8))
@settings(max_examples=60, deadline=None)
def test_deep_carrier_injective_sampled_deeper(sets):
    # randomized above the exhaustive range (ranks reach 6 and beyond)
    codes = [ps.deep_carrier(p) for p in sets]
    for i, p in enumerate(sets):
        for j, q in enumerate(sets):
            assert (codes[i] is codes[j]) == (p is q)


def reference_deep_carrier(a):
    """The unmemoised recursion the memoised map replaced."""
    return ps.carrier(ps.mk_set(reference_deep_carrier(x) for x in a))


def reference_deep_uncarrier(c):
    return ps.mk_set(reference_deep_uncarrier(x) for x in ps.uncarrier(c))


def assert_canonical(s):
    # a tuple out of canonical order would intern a second value for one set
    assert list(s.elements) == sorted(s.elements, key=ps.PureSet.sort_key)


def test_deep_carrier_matches_reference():
    # both directions intern their element tuples unsorted; the references
    # are unmemoised, so every 16th rank-4 set is coded, not all 65,536
    rank4 = ps.lt_levels(6)[-1].elements  # every pure set of rank <= 4
    low = [p for p in rank4 if p.rank <= 3]
    assert len(low) == 16
    for p in low + list(rank4[16::16]) + [rank4[-1]]:
        code = ps.deep_carrier(p)
        assert code is reference_deep_carrier(p), p
        assert_canonical(ps.uncarrier(code))
        back = ps.deep_uncarrier(code)
        assert back is reference_deep_uncarrier(code) and back is p
        assert_canonical(back)


def reference_subsets(spread):
    """The per-mask index scan that every powerset step used to run."""
    return [tuple(spread[i] for i in range(len(spread)) if mask >> i & 1)
            for mask in range(1 << len(spread))]


def reference_rank(s):
    return 0 if not s.elements else 1 + max(e.rank for e in s.elements)


@pytest.mark.parametrize("width", range(11))
def test_subsets_match_mask_loop(width):
    spread = list(range(100, 100 + width))
    assert ps.subsets(spread) == reference_subsets(spread)


def test_trusted_interning_on_lt_level_subsets():
    levels = ps.lt_levels(5)
    for level in levels:
        for t in ps.subsets(level.elements):
            s = ps._intern(t)
            assert s is ps.mk_set(t) and s.rank == reference_rank(s)
    assert all(s.rank == reference_rank(s) for s in levels[-1])


@given(pure_sets())
def test_carrier_matches_pair_construction(a):
    assert ps.carrier(a) is ps.mk_set((ps.kpair(E, a),))


def test_carrier_of_empty_matches_pair_construction():
    assert ps.carrier(E) is ps.mk_set((ps.kpair(E, E),))


def test_interning_is_thread_safe():
    import threading

    results = []

    def worker(seed):
        cur = ps.EMPTY
        out = []
        for _ in range(6):
            cur = ps.mk_set([cur, ps.vn(seed % 3)])
            out.append(cur)
        results.append(out)

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    # same construction from any thread lands on the same interned object
    by_seed = {}
    for out in results:
        key = repr(out[-1])
        by_seed.setdefault(key, set()).add(id(out[-1]))
    assert all(len(ids) == 1 for ids in by_seed.values())


# -- carrier hierarchy over a base ---------------------------------------------------

def test_carrier_levels_over_empty_base():
    assert ps.carrier_level(0, frozenset()) == frozenset()
    assert ps.carrier_level(1, frozenset()) == frozenset([ps.carrier(E)])


@pytest.mark.parametrize("n", range(5))
def test_carrier_level_rank_law(n):
    level = ps.carrier_level(n, frozenset())
    assert ps.rank(ps.mk_set(level)) == 4 * n


def reference_carrier_level(alpha, base):
    """Levels as built before: subsets in the level's frozenset iteration
    order, each sorted by mk_set, carriers through the Kuratowski pair."""
    level = frozenset(base)
    for _ in range(alpha):
        spread = list(level)
        nxt = set(base)
        for mask in range(1 << len(spread)):
            subset = [spread[i] for i in range(len(spread)) if mask >> i & 1]
            nxt.add(ps.mk_set((ps.kpair(E, ps.mk_set(subset)),)))
        level = frozenset(nxt)
    return level


@pytest.mark.parametrize("base", [
    frozenset([S2, E, PAIR01]),
    frozenset([ps.vn(3), S1, ps.mk_set([S2])]),
])
def test_carrier_level_matches_reference_over_unsorted_base(base):
    levels = [ps.carrier_level(alpha, base) for alpha in range(3)]
    for alpha, level in enumerate(levels):
        assert level == reference_carrier_level(alpha, base)
    # level 1 has 11 members; a frozenset of them iterates out of canonical
    # order, which is what the sort before the trusted entry is for
    assert any(list(l) != sorted(l, key=ps.PureSet.sort_key) for l in levels)


def test_carrier_level_width_cap():
    base = frozenset(ps.vn(i) for i in range(ps.MAX_WIDTH + 1))
    assert len(ps.carrier_level(0, base)) == ps.MAX_WIDTH + 1
    with pytest.raises(CapExceeded):
        ps.carrier_level(1, base)


def test_in_carrier_levels_matches_materialized_levels():
    base = frozenset([S1])
    seen = set()
    for alpha in range(4):
        seen |= ps.carrier_level(alpha, base)
    for x in seen:
        assert ps.in_carrier_levels(base, x)
    assert not ps.in_carrier_levels(base, S2)
    assert not ps.in_carrier_levels(frozenset(), S1)


def test_deep_carrier_lands_in_empty_base_hierarchy():
    for p in ps.lt_levels(4)[-1].elements:
        assert ps.in_carrier_levels(frozenset(), ps.deep_carrier(p))


@pytest.mark.parametrize("base", [frozenset(), frozenset([S1, S2])])
def test_generated_carrier_levels_pass_the_recognizer(base):
    top = 4 if not base else 3  # level widths over a nonempty base explode
    for alpha in range(top):
        code = ps.carrier(ps.mk_set(ps.carrier_level(alpha, base)))
        assert ps.is_carrier_level_code(base, code)


def test_carrier_level_recognizer_is_exact():
    # among the carriers of all subsets of level 2, exactly the level codes
    # themselves are recognized
    base = frozenset()
    levels = [frozenset(ps.carrier_level(a, base)) for a in range(4)]
    spread = sorted(levels[2], key=ps.PureSet.sort_key)
    for mask in range(1 << len(spread)):
        subset = frozenset(spread[i] for i in range(len(spread)) if mask >> i & 1)
        code = ps.carrier(ps.mk_set(subset))
        assert ps.is_carrier_level_code(base, code) == (subset in levels)
    assert not ps.is_carrier_level_code(base, ps.EMPTY)


# -- plain hierarchy levels -----------------------------------------------------------

def test_lt_level_cardinalities():
    assert [len(l) for l in ps.lt_levels(5)] == [0, 1, 2, 4, 16]


def test_lt_level_2_contents():
    assert ps.lt_levels(3)[2] is PAIR01


def ref_lt_history_witness(s):
    """Search for a history witnessing that ``s`` is a level.

    A history is a set h with r = pot(r & h) for every r in h; s is a level
    iff s = pot(h) for some history h.  The search ranges over subsets of s's
    members, which is exhaustive (any history for s is included in s).
    """
    for h in ps.subsets(s.elements):
        hset = set(h)
        if ps._pot(h) is not s:
            continue
        if all(ps._pot([q for q in r if q in hset]) is r for r in h):
            return frozenset(h)
    return None


def test_lt_levels_pass_recognizer_and_history_search():
    for level in ps.lt_levels(5):
        assert ps.is_lt_level(level)
        assert ref_lt_history_witness(level) is not None
    assert not ps.is_lt_level(S2)
    assert ref_lt_history_witness(S2) is None


def test_pot_raises_on_a_member_too_wide_to_expand():
    s = ps.mk_set(ps.vn(i) for i in range(ps.MAX_WIDTH + 1))
    with pytest.raises(CapExceeded):
        ps._pot([s])


def test_recognizer_exact_on_small_universe():
    levels = set(ps.lt_levels(4))
    for p in ps.lt_levels(5)[-1].elements:
        assert ps.is_lt_level(p) == (p in levels)


# -- von Neumann naturals ----------------------------------------------------------------

def test_vn_roundtrip():
    for n in range(5):
        assert ps.vn_value(ps.vn(n)) == n
    assert ps.vn_value(S2) is None
    assert ps.vn(2) is PAIR01


# -- pausing the cyclic collector --------------------------------------------------

@pytest.fixture
def collector():
    """Restore the collector's state, whatever a test leaves it in."""
    import gc

    was = gc.isenabled()
    yield gc
    (gc.enable if was else gc.disable)()


def test_acyclic_pauses_an_enabled_collector_and_restores_it(collector):
    collector.enable()
    with ps.acyclic():
        assert not collector.isenabled()
    assert collector.isenabled()
    with pytest.raises(KeyError):
        with ps.acyclic():
            raise KeyError("boom")
    assert collector.isenabled()


def test_acyclic_leaves_a_paused_collector_paused(collector):
    collector.disable()
    with ps.acyclic():
        assert not collector.isenabled()
    assert not collector.isenabled()
    with pytest.raises(KeyError):
        with ps.acyclic():
            raise KeyError("boom")
    assert not collector.isenabled()


def test_nested_acyclic_restores_the_outer_state(collector):
    collector.enable()
    with ps.acyclic():
        with ps.acyclic():
            assert not collector.isenabled()
        assert not collector.isenabled()
    assert collector.isenabled()


def test_the_builders_pause_the_collector_and_keep_their_names(collector):
    from wandset import cli, conch, universe, wandspec

    seen = []
    real = wandspec.tap_class

    def spy(*args):
        seen.append(collector.isenabled())
        return real(*args)

    collector.enable()
    wandspec.tap_class = spy
    try:
        universe.build(wandspec.get_spec("conway"), 2)
        conch.gen_stages(wandspec.get_spec("conway"), 2)
    finally:
        wandspec.tap_class = real
    assert seen and not any(seen) and collector.isenabled()
    # the tracer of perfbench wraps them by these names
    assert [f.__name__ for f in (universe.build, cli.import_fragment, conch.gen_stages,
                                 ps.lt_levels)] == ["build", "import_fragment",
                                                    "gen_stages", "lt_levels"]
