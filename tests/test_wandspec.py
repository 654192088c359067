import pytest

from wandset import instances, universe, wandspec
from wandset.errors import SpecError, StabilityViolation
from wandset.wandspec import WandSpec

from conftest import built


# -- adversarial fixtures (never shipped as public instances) ----------------------

def lopsided_spec() -> WandSpec:
    """Raw E holds one way only (lower rank relates to higher, not back), so
    the official equivalence must collapse to identity everywhere."""

    def d(w, a, q):
        return q.is_bland(a)

    def e(w, a, u, b, q):
        return q.ordrank(a) < q.ordrank(b)

    return WandSpec(name="lopsided", wands=instances._wand_ids(1),
                    raw_dom=d, raw_equiv=e)


def peeking_spec() -> WandSpec:
    """Raw D counts the whole fragment, violating the rule that answers may
    depend only on what lies at or below the argument."""

    def d(w, a, q):
        return len(q.objects_below(10**9)) >= 7

    def e(w, a, u, b, q):
        return w == u and a == b

    return WandSpec(name="peeking", wands=instances._wand_ids(1),
                    raw_dom=d, raw_equiv=e,
                    equiv_candidates=lambda w, a, q: ((w, a),))


def late_breaking_spec() -> WandSpec:
    """Raw E is an honest equivalence (same member count on bland sets) on
    the region below rank 3 but turns asymmetric once rank-3 objects are in
    play, so identification must survive at low stages and collapse above."""

    def d(w, a, q):
        return q.is_bland(a)

    def e(w, a, u, b, q):
        if w == u and a == b:
            return True
        if not (q.is_bland(a) and q.is_bland(b)):
            return False
        la, lb = len(q.members(a)), len(q.members(b))
        if max(q.ordrank(a), q.ordrank(b)) < 3:
            return la == lb
        return la <= lb

    return WandSpec(name="late-breaking", wands=instances._wand_ids(1),
                    raw_dom=d, raw_equiv=e)


SHIPPED = ("pure", "conway", "partial-fun", "multiset", "church:2")


# -- the official wrapper ------------------------------------------------------------

def test_dom_requires_a_wand(church3):
    view = church3.view()
    empty = church3.bland_id(frozenset())
    assert wandspec.dom(church3.spec, 0, empty, view)
    assert not wandspec.dom(church3.spec, 7, empty, view)


def test_dom_examples_church(church3):
    view = church3.view()
    empty = church3.bland_id(frozenset())
    single = church3.bland_id(frozenset([empty]))
    comp = view.resolve_tap(0, empty)
    assert wandspec.dom(church3.spec, 0, empty, view)
    assert not wandspec.dom(church3.spec, 0, comp, view)
    assert wandspec.dom(church3.spec, 1, single, view)
    assert not wandspec.dom(church3.spec, 1, empty, view)


def test_dom_examples_conway(conway4):
    view = conway4.view()
    empty = conway4.bland_id(frozenset())
    single = conway4.bland_id(frozenset([empty]))
    pair_self = conway4.bland_id(frozenset([conway4.bland_id(frozenset([single]))]))
    # pair_self codes <{0},{0}>: a doubleton pair of bland sets
    assert wandspec.dom(conway4.spec, 0, pair_self, view)
    # <{0}, 0> has an empty right side: the courtesy case is out of the domain
    double = conway4.bland_id(frozenset([empty, single]))
    pair_right_empty = conway4.bland_id(
        frozenset([conway4.bland_id(frozenset([single])), double]))
    assert instances.pair_decode(view, pair_right_empty) is not None
    assert not wandspec.dom(conway4.spec, 0, pair_right_empty, view)


def test_equiv_identity_clause_everywhere(church3):
    view = church3.view()
    for a in church3.ids():
        for w in church3.spec.wand_indices():
            assert wandspec.equiv(church3.spec, w, a, w, a, view)


def test_equiv_links_equinumerous_singletons(church3):
    view = church3.view()
    empty = church3.bland_id(frozenset())
    single = church3.bland_id(frozenset([empty]))
    double_single = church3.bland_id(frozenset([single]))
    assert wandspec.equiv(church3.spec, 1, single, 1, double_single, view)
    assert not wandspec.equiv(church3.spec, 1, single, 2, double_single, view)


def test_lopsided_equiv_collapses_to_identity():
    spec = lopsided_spec()
    frag = universe.build(spec, 3)
    view = frag.view()
    empty = frag.bland_id(frozenset())
    single = frag.bland_id(frozenset([empty]))
    # raw E holds upward but the wrapper refuses everything but identity
    assert spec.raw_equiv(0, empty, 0, single, view)
    assert not wandspec.equiv(spec, 0, empty, 0, single, view)
    assert wandspec.equiv(spec, 0, single, 0, single, view)


def test_collapse_is_per_level():
    spec = late_breaking_spec()
    frag = universe.build(spec, 4)
    view = frag.view()
    names = {frag.render(i): i for i in frag.ids()}
    single, double_single = names["{{}}"], names["{{{}}}"]
    # below the breakage the official equivalence follows raw E
    assert wandspec.equiv(spec, 0, single, 0, double_single, view)
    assert universe.tap(frag, 0, single) == universe.tap(frag, 0, double_single)
    # at the breakage rank it collapses to identity despite raw E holding
    rank3_single = next(i for i in frag.ids()
                        if frag.obj(i).ordrank == 3 and frag.obj(i).is_bland
                        and len(frag.obj(i).members) == 1)
    assert spec.raw_equiv(0, rank3_single, 0, single, view)
    assert not wandspec.equiv(spec, 0, rank3_single, 0, single, view)
    assert wandspec.equiv(spec, 0, rank3_single, 0, rank3_single, view)
    # the resulting universe still satisfies every law
    from wandset import suites
    assert all(ok for _, ok, _ in suites.core_laws(frag))


def test_core_laws_hold_at_trivial_depths():
    from wandset import suites
    for name in SHIPPED:
        for depth in (1, 2):
            frag = universe.build(wandspec.get_spec(name), depth)
            rows = suites.core_laws(frag)
            assert all(ok for _, ok, _ in rows), (name, depth,
                                                  [r for r in rows if not r[1]])


def test_minirank(church3):
    view = church3.view()
    empty = church3.bland_id(frozenset())
    single = church3.bland_id(frozenset([empty]))
    double_single = church3.bland_id(frozenset([single]))
    assert wandspec.minirank(church3.spec, 1, single, view)
    assert not wandspec.minirank(church3.spec, 1, double_single, view)
    assert wandspec.minirank(church3.spec, 0, empty, view)


# -- behavior reports ------------------------------------------------------------------

@pytest.mark.parametrize("name", SHIPPED)
def test_wrapped_predicates_wellbehaved(name):
    frag = built(name, 3)
    report = wandspec.check_wellbehaved(frag.spec, frag.view(), frag.depth - 1)
    assert report.ok, report.violations[:3]


def test_raw_lopsided_spec_reported():
    spec = lopsided_spec()
    frag = universe.build(spec, 3)
    wrapped = wandspec.check_wellbehaved(spec, frag.view(), frag.depth - 1)
    assert wrapped.ok
    raw = wandspec.check_wellbehaved(spec, frag.view(), frag.depth - 1, wrapped=False)
    assert not raw.ok
    assert any("reflexive" in v for v in raw.violations)


# -- stage stability -----------------------------------------------------------------------

@pytest.mark.parametrize("name", SHIPPED)
def test_shipped_specs_stage_stable(name):
    spec = wandspec.get_spec(name)
    small = built(name, 2)
    big = built(name, 4)
    stats = universe.check_stage_stability(spec, small, big)
    assert stats["checked"] >= 0


def test_church_stable_between_depths_2_and_3():
    spec = wandspec.get_spec("church:2")
    universe.check_stage_stability(spec, built("church:2", 2), built("church:2", 3))


def test_peeking_spec_flagged():
    spec = peeking_spec()
    small = universe.build(spec, 2)
    big = universe.build(spec, 4)
    with pytest.raises(StabilityViolation):
        universe.check_stage_stability(spec, small, big)


def test_registry_names():
    for name in SHIPPED:
        assert wandspec.get_spec(name).name == name
    with pytest.raises(KeyError):
        wandspec.get_spec("nope")
    for name in ["church:x", "church:-1", "church:"]:
        with pytest.raises(SpecError):
            wandspec.get_spec(name)
