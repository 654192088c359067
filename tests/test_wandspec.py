import dataclasses
import gc
import random
import weakref

import pytest

from wandset import conch, instances, universe, wandspec
from wandset.errors import SpecError, StabilityViolation
from wandset.wandspec import WandSpec

from conftest import built, ref_sort_key


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
                    equiv_candidates=lambda w, a, q, top: ((w, a),))


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


def dom_splitting_spec() -> WandSpec:
    """Raw E is an honest equivalence (same member count on bland sets) but
    raw D holds only below rank 2, so it is not preserved from rank 2 up."""

    def d(w, a, q):
        return q.is_bland(a) and q.ordrank(a) < 2

    def e(w, a, u, b, q):
        return (w == u and a == b) or (q.is_bland(a) and q.is_bland(b)
                                       and len(q.members(a)) == len(q.members(b)))

    return WandSpec(name="dom-splitting", wands=instances._wand_ids(1),
                    raw_dom=d, raw_equiv=e)


SHIPPED = ("pure", "conway", "partial-fun", "multiset", "church:2")


# -- the official wrapper ------------------------------------------------------------

def test_dom_requires_a_wand(church3):
    empty = church3.bland_id(frozenset())
    assert wandspec.dom(church3.spec, 0, empty, church3)
    assert not wandspec.dom(church3.spec, 7, empty, church3)


def test_dom_examples_church(church3):
    empty = church3.bland_id(frozenset())
    single = church3.bland_id(frozenset([empty]))
    comp = church3.resolve_tap(0, empty)
    assert wandspec.dom(church3.spec, 0, empty, church3)
    assert not wandspec.dom(church3.spec, 0, comp, church3)
    assert wandspec.dom(church3.spec, 1, single, church3)
    assert not wandspec.dom(church3.spec, 1, empty, church3)


def test_dom_examples_conway(conway4):
    empty = conway4.bland_id(frozenset())
    single = conway4.bland_id(frozenset([empty]))
    pair_self = conway4.bland_id(frozenset([conway4.bland_id(frozenset([single]))]))
    # pair_self codes <{0},{0}>: a doubleton pair of bland sets
    assert wandspec.dom(conway4.spec, 0, pair_self, conway4)
    # <{0}, 0> has an empty right side: the courtesy case is out of the domain
    double = conway4.bland_id(frozenset([empty, single]))
    pair_right_empty = conway4.bland_id(
        frozenset([conway4.bland_id(frozenset([single])), double]))
    assert instances.pair_decode(conway4, pair_right_empty) is not None
    assert not wandspec.dom(conway4.spec, 0, pair_right_empty, conway4)


def test_equiv_identity_clause_everywhere(church3):
    for a in church3.ids():
        for w in church3.spec.wand_indices():
            assert wandspec.equiv(church3.spec, w, a, w, a, church3)


def test_equiv_links_equinumerous_singletons(church3):
    empty = church3.bland_id(frozenset())
    single = church3.bland_id(frozenset([empty]))
    double_single = church3.bland_id(frozenset([single]))
    assert wandspec.equiv(church3.spec, 1, single, 1, double_single, church3)
    assert not wandspec.equiv(church3.spec, 1, single, 2, double_single, church3)


def test_lopsided_equiv_collapses_to_identity():
    spec = lopsided_spec()
    frag = universe.build(spec, 3)
    empty = frag.bland_id(frozenset())
    single = frag.bland_id(frozenset([empty]))
    # raw E holds upward but the wrapper refuses everything but identity
    assert spec.raw_equiv(0, empty, 0, single, frag)
    assert not wandspec.equiv(spec, 0, empty, 0, single, frag)
    assert wandspec.equiv(spec, 0, single, 0, single, frag)


def test_collapse_is_per_level():
    spec = late_breaking_spec()
    frag = universe.build(spec, 4)
    names = {frag.render(i): i for i in frag.ids()}
    single, double_single = names["{{}}"], names["{{{}}}"]
    # below the breakage the official equivalence follows raw E
    assert wandspec.equiv(spec, 0, single, 0, double_single, frag)
    assert universe.tap(frag, 0, single) == universe.tap(frag, 0, double_single)
    # at the breakage rank it collapses to identity despite raw E holding
    rank3_single = next(i for i in frag.ids()
                        if frag.obj(i).ordrank == 3 and frag.obj(i).is_bland
                        and len(frag.obj(i).members) == 1)
    assert spec.raw_equiv(0, rank3_single, 0, single, frag)
    assert not wandspec.equiv(spec, 0, rank3_single, 0, single, frag)
    assert wandspec.equiv(spec, 0, rank3_single, 0, rank3_single, frag)
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
    empty = church3.bland_id(frozenset())
    single = church3.bland_id(frozenset([empty]))
    double_single = church3.bland_id(frozenset([single]))
    assert wandspec.minirank(church3.spec, 1, single, church3)
    assert not wandspec.minirank(church3.spec, 1, double_single, church3)
    assert wandspec.minirank(church3.spec, 0, empty, church3)


# -- behavior reports ------------------------------------------------------------------

@pytest.mark.parametrize("name", SHIPPED)
def test_wrapped_predicates_wellbehaved(name):
    frag = built(name, 3)
    violations = wandspec.check_wellbehaved(frag.spec, frag, frag.depth - 1)
    assert not violations, violations[:3]


def test_raw_lopsided_spec_reported():
    spec = lopsided_spec()
    frag = universe.build(spec, 3)
    assert wandspec.check_wellbehaved(spec, frag, frag.depth - 1) == []
    raw = wandspec.classes(spec, frag, frag.depth - 1).violations
    assert any("reflexive" in v for v in raw)


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


# -- the quadruple scans the class sweep replaced, kept as references ---------------

def reference_related_pairs(spec, q, m):
    """All (w, a, u, b), both ranks <= m, (w,a) != (u,b), where raw E holds."""
    objs = q.objects_below(m + 1)
    out = set()
    for w in spec.wand_indices():
        for a in objs:
            if spec.equiv_candidates is not None:
                cands = spec.equiv_candidates(w, a, q, m)
            else:
                cands = ((u, b) for u in spec.wand_indices() for b in objs)
            for u, b in cands:
                if (w, a) == (u, b) or q.ordrank(b) > m:
                    continue
                if spec.raw_equiv(w, a, u, b, q):
                    out.add((w, a, u, b))
    return out


def reference_violations(spec, q, m, first_only=False):
    """The raw good-behaviour sweep below rank m, from scratch: reflexivity,
    then full cliques over the components of the raw-E graph, then raw D
    constant on each component."""
    out = []
    objs = q.objects_below(m + 1)

    def bad(msg):
        out.append(msg)
        return first_only

    for w in spec.wand_indices():
        for a in objs:
            if not spec.raw_equiv(w, a, w, a, q):
                if bad(f"raw E not reflexive at wand {w}, rank {q.ordrank(a)}"):
                    return out
    related = reference_related_pairs(spec, q, m)
    parent = {}

    def find(x):
        while parent.get(x, x) != x:
            parent[x] = parent.get(parent[x], parent[x])
            x = parent[x]
        return x

    for w, a, u, b in related:
        parent.setdefault((w, a), (w, a))
        parent.setdefault((u, b), (u, b))
        parent[find((w, a))] = find((u, b))
    components = {}
    for node in parent:
        components.setdefault(find(node), []).append(node)
    for members in components.values():
        for w, a in members:
            for u, b in members:
                if (w, a) != (u, b) and (w, a, u, b) not in related:
                    if bad("raw E not an equivalence"):
                        return out
        if len({bool(spec.raw_dom(w, a, q)) for w, a in members}) > 1:
            if bad("raw D not preserved under raw E"):
                return out
    return out


# the reference's own answers, per query by (rank, population below rank + 1)
_REFERENCE_WB = weakref.WeakKeyDictionary()


def reference_wellbehaved_at(spec, q, m):
    memo = _REFERENCE_WB.setdefault(q, {})
    key = (m, len(q.objects_below(m + 1)))
    if key not in memo:
        memo[key] = not reference_violations(spec, q, m, first_only=True)
    return memo[key]


def reference_equiv(spec, w, a, u, b, q):
    nwands = len(spec.wands)
    if not (0 <= w < nwands and 0 <= u < nwands):
        return False
    if w == u and a == b:
        return True
    if not spec.raw_equiv(w, a, u, b, q):
        return False
    return reference_wellbehaved_at(spec, q, max(q.ordrank(a), q.ordrank(b)))


def reference_minirank(spec, w, a, q):
    for b in q.objects_below(q.ordrank(a)):
        for u in spec.wand_indices():
            if reference_equiv(spec, w, a, u, b, q):
                return False
    return True


def reference_tap_class(spec, w, a, q):
    if not wandspec.dom(spec, w, a, q):
        return None
    eqs = [(u, b) for b in q.objects_below(q.ordrank(a) + 1)
           for u in spec.wand_indices() if reference_equiv(spec, w, a, u, b, q)]
    low = min(q.ordrank(b) for _, b in eqs)
    kept = [(u, b) for u, b in eqs if q.ordrank(b) == low]
    kept.sort(key=lambda p: (p[0], ref_sort_key(q, p[1])))
    return tuple(kept)


def reference_check_wellbehaved(spec, q, top_rank, wrapped=True):
    """The four-loop sweep: reflexive, dom preserved, euclidean."""
    violations = []
    objs = list(q.objects_below(top_rank + 1))
    wids = list(spec.wand_indices())
    if wrapped:
        dm = lambda w, a: wandspec.dom(spec, w, a, q)
        eq = lambda w, a, u, b: reference_equiv(spec, w, a, u, b, q)
    else:
        dm = lambda w, a: spec.raw_dom(w, a, q)
        eq = lambda w, a, u, b: spec.raw_equiv(w, a, u, b, q)
    for w in wids:
        for a in objs:
            if not eq(w, a, w, a):
                violations.append("equiv not reflexive")
    by_lhs = {}
    for w in wids:
        for a in objs:
            for u in wids:
                for b in objs:
                    if eq(w, a, u, b):
                        by_lhs.setdefault((w, a), []).append((u, b))
                        if dm(w, a) and not dm(u, b):
                            violations.append("dom not preserved")
    for partners in by_lhs.values():
        for u, b in partners:
            for v, c in partners:
                if not eq(u, b, v, c):
                    violations.append("equiv not euclidean")
    return violations


def reference_equiv_quads(stages, sigma):
    """All <w, a, u, b> with both conches of stage rank <= sigma that the
    official equivalence relates (the old ``ConchStage.equiv_quads``)."""
    spec, codes = stages.spec, stages.wandcodes
    objs = stages.ranked(sigma)
    return {(codes[w], a, codes[u], b) for a in objs for b in objs
            for w in spec.wand_indices() for u in spec.wand_indices()
            if reference_equiv(spec, w, a, u, b, stages)}


# -- differential tests against the references -----------------------------------------

# the late-breaking fixture is sampled at depth 4: its rank-3 break needs
# that depth, and the quadruple scans are quadratic in its 1,028 objects
FIXTURES = {"lopsided": (lopsided_spec, 3, "exhaustive"),
            "late-breaking": (late_breaking_spec, 4, "sampled"),
            "peeking": (peeking_spec, 4, "exhaustive"),
            "dom-splitting": (dom_splitting_spec, 3, "exhaustive")}
CASES = ([(name, 3) for name in SHIPPED]
         + [(name, 4) for name in ("pure", "conway", "partial-fun", "multiset")]
         + [(name, depth) for name, (_, depth, _) in FIXTURES.items()])


def case_spec(name):
    return FIXTURES[name][0]() if name in FIXTURES else wandspec.get_spec(name)


def case_fragment(name, depth):
    """A fresh build, so its class tables start empty."""
    return universe.build(case_spec(name), depth,
                          mode=FIXTURES[name][2] if name in FIXTURES else "exhaustive")


def pairs_up_to(spec, q, m):
    return [(w, a) for a in q.objects_below(m + 1) for w in spec.wand_indices()]


def assert_pairs_match_reference(spec, q, m):
    for w, a in pairs_up_to(spec, q, m):
        assert wandspec.tap_class(spec, w, a, q) == reference_tap_class(spec, w, a, q), (w, a)
        assert wandspec.minirank(spec, w, a, q) == reference_minirank(spec, w, a, q), (w, a)


@pytest.mark.parametrize("name,depth", CASES)
def test_class_sweep_matches_quadruple_scans(name, depth):
    frag = case_fragment(name, depth)
    spec, top = frag.spec, depth - 1
    for m in range(depth):
        assert wandspec.wellbehaved_at(spec, frag, m) == reference_wellbehaved_at(spec, frag, m), m
    violations = wandspec.check_wellbehaved(spec, frag, top)
    assert (not violations) == (not reference_check_wellbehaved(spec, frag, top))
    raw = wandspec.classes(spec, frag, top).violations
    assert (not raw) == (not reference_check_wellbehaved(spec, frag, top, wrapped=False))
    assert_pairs_match_reference(spec, frag, top)
    pairs = pairs_up_to(spec, frag, top)
    rng = random.Random(f"{name}:{depth}")
    quads = [rng.choice(pairs) + rng.choice(pairs) for _ in range(300)] if pairs else []
    quads += [x + y for cls in wandspec.partition(spec, frag, top) for x in cls for y in cls]
    for quad in quads:
        assert wandspec.equiv(spec, *quad, frag) == reference_equiv(spec, *quad, frag), quad


@pytest.mark.parametrize("name,depth", CASES)
def test_stage_classes_match_reference_quads(name, depth):
    stages = conch.gen_stages(case_spec(name), depth)
    codes = stages.wandcodes
    for sigma in range(depth):
        pairs = {(codes[w], a, codes[u], b) for cls in wandspec.partition(stages.spec, stages, sigma)
                 for w, a in cls for u, b in cls}
        assert pairs == reference_equiv_quads(stages, sigma), sigma


# rank m's sweep starts from rank m - 1's union-find, and a rank-m pair that
# would merge two lower classes fails the clique count, so that rank keeps
# rank m - 1's labels: each partition restricts to the one below.  This is
# why the stages need no relation-stability law of their own.
@pytest.mark.parametrize("side", ["fragment", "stages"])
@pytest.mark.parametrize("name,depth", CASES)
def test_partition_restricts_to_the_rank_below(name, depth, side):
    q = (case_fragment(name, depth) if side == "fragment"
         else conch.gen_stages(case_spec(name), depth))
    spec = q.spec
    for m in range(1, depth):
        kept = {frozenset(p for p in cls if q.ordrank(p[1]) < m)
                for cls in wandspec.partition(spec, q, m)} - {frozenset()}
        assert kept == set(map(frozenset, wandspec.partition(spec, q, m - 1))), m


def test_rank_two_classes_survive_a_broken_rank_three():
    frag = universe.build(late_breaking_spec(), 4)
    spec = frag.spec
    assert not wandspec.wellbehaved_at(spec, frag, 3)
    assert wandspec.wellbehaved_at(spec, frag, 2)
    # the broken rank keeps rank two's labels, so equiv finds no pair of
    # rank three in a class there
    assert all(frag.ordrank(a) <= 2 for _, a in wandspec.classes(spec, frag, 3).label)
    assert_pairs_match_reference(spec, frag, 2)
    assert any(len(cls) > 1 for cls in wandspec.partition(spec, frag, 2))


def test_classes_rebuilt_when_population_grows_below():
    # a sampled build leaves out bland sets of three or more members; adding
    # one of rank 3 after rank 3's classes were built must rebuild them
    frag = universe.build(wandspec.get_spec("church:2"), 4, mode="sampled")
    spec = frag.spec
    before = wandspec.classes(spec, frag, 3)
    assert_pairs_match_reference(spec, frag, 3)
    low = [a for a in frag.ids() if frag.obj(a).ordrank == 2 and frag.obj(a).is_bland]
    members = frozenset(low[:3])
    assert len(members) == 3 and frag.bland_id(members) is None
    frag.register_bland(members, 3)
    assert wandspec.classes(spec, frag, 3) is not before
    for m in range(4):
        assert wandspec.wellbehaved_at(spec, frag, m) == reference_wellbehaved_at(spec, frag, m)
    assert_pairs_match_reference(spec, frag, 3)


def test_church1_classes_up_to_rank_two():
    frag = universe.build(wandspec.get_spec("church:1"), 4)
    spec = frag.spec
    for m in range(3):
        assert wandspec.wellbehaved_at(spec, frag, m) == reference_wellbehaved_at(spec, frag, m)
    assert_pairs_match_reference(spec, frag, 2)
    pairs = pairs_up_to(spec, frag, 2)
    for x in pairs:
        for y in pairs:
            assert wandspec.equiv(spec, *x, *y, frag) == reference_equiv(spec, *x, *y, frag)


def _fragment_query():
    frag = universe.build(wandspec.get_spec("church:2"), 3)
    return frag, frag.wevel_id(2)


def _stages_query():
    stages = conch.gen_stages(wandspec.get_spec("church:2"), 3)
    return stages, stages.ranked(2)[-1]


@pytest.mark.parametrize("make", [_fragment_query, _stages_query], ids=["fragment", "stages"])
def test_query_tables_go_with_their_query(make):
    q, a = make()
    wandspec.classes(q.spec, q, 2)
    instances.n_equiv_over(q, a, a, 2)
    tables = [(table, table[q]) for table in (wandspec._CLASSES, instances._NEQ_GROUPS)]
    assert all(got for _, got in tables)
    dead = weakref.ref(q)
    del q
    gc.collect()
    assert dead() is None
    for table, got in tables:
        assert all(other is not got for other in table.values())


def test_registry_names():
    for name in SHIPPED:
        assert wandspec.get_spec(name).name == name
    with pytest.raises(KeyError):
        wandspec.get_spec("nope")
    for name in ["church:x", "church:-1", "church:"]:
        with pytest.raises(SpecError):
            wandspec.get_spec(name)


def test_wands_sharing_a_code_raise():
    church = wandspec.get_spec("church:2")
    one = church.wands[1]
    clash = (church.wands[0], one, wandspec.WandId(2, one.code))
    with pytest.raises(SpecError, match="two wands share a code"):
        WandSpec(name="clash", wands=clash, raw_dom=church.raw_dom,
                 raw_equiv=church.raw_equiv)
    with pytest.raises(SpecError):
        dataclasses.replace(church, wands=clash)
    assert WandSpec(name="distinct", wands=church.wands, raw_dom=church.raw_dom,
                    raw_equiv=church.raw_equiv).wands == church.wands
