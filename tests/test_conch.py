import dataclasses

import pytest

from wandset import conch, instances, pureset as ps, universe, wandspec
from wandset.errors import CapExceeded, NotACarrier, NotAConch, NotAPair

from conftest import built


@pytest.fixture(scope="module")
def church_stages():
    return conch.gen_stages(wandspec.get_spec("church:2"), 3)


@pytest.fixture(scope="module")
def pure_stages():
    return conch.gen_stages(wandspec.get_spec("pure"), 3)


def ids_by_render(frag):
    return {frag.render(i): i for i in frag.ids()}


# -- stage generation ---------------------------------------------------------------

def test_wandless_stages_are_the_carrier_hierarchy(pure_stages):
    assert len(pure_stages.stages[0].conches) == 1
    assert pure_stages.stages[0].conches == frozenset([ps.carrier(ps.EMPTY)])
    # every conch in a wandless run is a carrier of earlier conches
    for st in pure_stages.stages:
        for c in st.conches:
            assert ps.is_carrier(c)


def test_stage_sizes_mirror_fragment_census(church_stages, church3):
    for sigma, st in enumerate(church_stages.stages):
        want = sum(1 for o in church3.objects if o.ordrank <= sigma)
        assert len(st.conches) == want


def test_cardinal_tap_class_is_singleton(church_stages):
    empty = ps.carrier(ps.EMPTY)
    one_code = church_stages.wandcodes[1]
    single = ps.carrier(ps.mk_set([empty]))
    expected = ps.mk_set([ps.kpair(one_code, single)])
    assert church_stages.conchrank.get(expected) == 2
    assert church_stages.resolve_tap(1, single) == expected


def test_stage_rank_bound_holds(church_stages):
    for sigma, measured, bound in church_stages.rank_bound_slack():
        assert measured <= bound


@pytest.mark.parametrize("name,depth", [(name, 3) for name in (
    "pure", "conway", "partial-fun", "multiset", "church:1", "church:2")] + [("conway", 4)])
def test_rank_bound_slack_reads_the_rank_of_the_interned_stage(name, depth):
    stages = conch.gen_stages(wandspec.get_spec(name), depth)
    want = [(st.sigma, ps.rank(ps.mk_set(st.conches)), stages.omega() + 4 * st.sigma + 4)
            for st in stages.stages]
    assert stages.rank_bound_slack() == want


def test_trusted_interning_on_conway_stage_subsets():
    # every subset gen_stages cuts from a stage's sorted spread is canonical:
    # the trusted entry lands on the value mk_set builds, with the rank the
    # max-based rule gives
    stages = conch.gen_stages(wandspec.get_spec("conway"), 5)
    for st in stages.stages:
        spread = sorted(st.below, key=ps.PureSet.sort_key)
        for t in ps.subsets(spread):
            s = ps._intern(t)
            assert s is ps.mk_set(t)
            assert s.rank == (1 + max(e.rank for e in t) if t else 0)
            assert ps.carrier(s) in st.conches


def test_gen_stages_cap():
    with pytest.raises(CapExceeded):
        conch.gen_stages(wandspec.get_spec("pure"), 7, max_width=8)


def test_stage_laws_clean():
    for name in ("pure", "conway", "church:2"):
        stages = conch.gen_stages(wandspec.get_spec(name), 3)
        assert conch.check_stage_laws(stages) == []


def sized_spec():
    """One wand on bland sets; raw E links bland sets of rank <= 2 with the
    same number of members, so classes of two or more sit below the top."""

    def d(w, a, q):
        return q.is_bland(a)

    def low_bland(a, q):
        return q.is_bland(a) and q.ordrank(a) <= 2

    def e(w, a, u, b, q):
        return a == b or (low_bland(a, q) and low_bland(b, q)
                          and len(q.members(a)) == len(q.members(b)))

    def candidates(w, a, q, top):
        yield (w, a)
        if low_bland(a, q):
            yield from ((w, b) for b in q.objects_below(min(top, 2) + 1) if q.is_bland(b))

    return wandspec.WandSpec(name="sized", wands=instances._wand_ids(1),
                             raw_dom=d, raw_equiv=e, equiv_candidates=candidates)


@pytest.fixture(scope="module")
def sized_stages():
    return conch.gen_stages(sized_spec(), 4)


def test_sized_stages_stable_with_classes_below_the_top(sized_stages):
    assert conch.check_stage_laws(sized_stages) == []
    assert any(len(c) > 1 for c in wandspec.partition(sized_stages.spec, sized_stages, 2))


def assert_found_in_order(stages):
    """Each ranked(sigma) extends ranked(sigma - 1) by exactly the conches of
    stage rank sigma, carriers first, with no repeats; each stage holds its
    prefix and reads its predecessor's conches; conchrank keeps that order."""
    prev = ()
    for sigma in range(stages.depth):
        got = stages.ranked(sigma)
        assert got[:len(prev)] == prev
        assert len(set(got)) == len(got)
        assert set(got) == {c for c, r in stages.conchrank.items() if r <= sigma}
        carriers = [ps.is_carrier(c) for c in got[len(prev):]]
        assert carriers == sorted(carriers, reverse=True)
        prev = got
    assert stages.ranked(-1) == ()
    assert stages.ranked(stages.depth + 3) == prev
    assert list(stages.conchrank) == list(prev)
    below = frozenset()
    for st in stages.stages:
        assert st.ranked is stages.ranked(st.sigma) and frozenset(st.ranked) == st.conches
        assert st.below == below
        below = st.conches


@pytest.mark.parametrize("name,depth", [("pure", 4), ("conway", 4), ("church:2", 3),
                                        ("church:1", 4)])
def test_stages_keep_conches_in_the_order_found(name, depth):
    assert_found_in_order(conch.gen_stages(wandspec.get_spec(name), depth))


def test_sized_stages_keep_conches_in_the_order_found(sized_stages):
    assert_found_in_order(sized_stages)


def test_ranked_sorts_nothing_after_generation(monkeypatch):
    stages = conch.gen_stages(wandspec.get_spec("conway"), 4)
    calls = []
    real = ps.PureSet.sort_key
    monkeypatch.setattr(ps.PureSet, "sort_key", lambda self: calls.append(self) or real(self))
    assert len(stages.ranked(stages.depth - 1)) == 16
    assert calls == []


# -- stage ranks -----------------------------------------------------------------------

def test_conchrank_of_empty_carrier(pure_stages):
    assert pure_stages.ordrank(ps.carrier(ps.EMPTY)) == 0
    with pytest.raises(NotAConch):
        pure_stages.ordrank(ps.EMPTY)


def test_deep_carrier_ranks_as_pure_rank(pure_stages):
    for p in ps.lt_levels(3)[-1].elements:
        assert pure_stages.ordrank(ps.deep_carrier(p)) == ps.rank(p)


def test_deep_carrier_ranks_up_to_rank_four():
    stages = conch.gen_stages(wandspec.get_spec("pure"), 5)
    for p in ps.lt_levels(6)[-1].elements:
        assert stages.ordrank(ps.deep_carrier(p)) == ps.rank(p)


def test_tap_codes_rank_one_above_argument(church_stages):
    for c, r in church_stages.conchrank.items():
        if not ps.is_carrier(c):
            args = [b for p in c for _, b in [ps.kunpair(p)]]
            assert {church_stages.conchrank[b] + 1 for b in args} == {r}


# -- the structural recoding -------------------------------------------------------------

def test_code_of_empty_object(church3):
    empty = church3.bland_id(frozenset())
    assert conch.conch_code(church3, empty) is ps.carrier(ps.EMPTY)


def test_code_of_hereditarily_bland_is_deep_carrier(church3):
    for a in church3.ids():
        if universe.hereditarily_bland(church3, a):
            assert conch.conch_code(church3, a) is ps.deep_carrier(
                universe.decode_pure(church3, a))


def test_code_of_cardinal_tap(church3):
    names = ids_by_render(church3)
    got = conch.conch_code(church3, names["*1{{}}"])
    one_code = church3.spec.wands[1].code
    single = ps.carrier(ps.mk_set([ps.carrier(ps.EMPTY)]))
    assert got is ps.mk_set([ps.kpair(one_code, single)])


def test_codes_injective(church3):
    codes = {conch.conch_code(church3, a) for a in church3.ids()}
    assert len(codes) == len(church3.objects)


# -- the full round-trip verification ------------------------------------------------------

@pytest.mark.parametrize("name,depth", [
    ("pure", 3), ("pure", 4), ("conway", 3), ("church:2", 3),
    ("church:1", 1), ("church:2", 2),  # too shallow to hold the top wand's designation
])
def test_roundtrip_all_pass(name, depth):
    frag = built(name, depth)
    stages = conch.gen_stages(frag.spec, depth)
    report = conch.verify_roundtrip(frag, stages)
    assert not any(report.values()), report


def test_roundtrip_reports_an_unregistered_designation_the_depth_holds(church3, monkeypatch):
    stages = conch.gen_stages(church3.spec, 3)
    wands = {w: oid for w, oid in church3.wand_obj_ids().items() if w != 2}
    monkeypatch.setattr(church3, "wand_obj_ids", lambda: wands)
    report = conch.verify_roundtrip(church3, stages)
    assert report["hb_iso"] == ["wand 2 designation unregistered"]


def test_roundtrip_requires_exhaustive():
    frag = universe.build(wandspec.get_spec("church:2"), 3, mode="sampled")
    stages = conch.gen_stages(frag.spec, 3)
    report = conch.verify_roundtrip(frag, stages)
    assert report == {"preconditions": ["fragment not exhaustive"]}


def test_roundtrip_reports_a_dom_disagreement(church3, monkeypatch):
    stages = conch.gen_stages(church3.spec, 3)
    flipped = next(c for c in stages.ranked(1) if stages.ordrank(c) == 1)
    real = wandspec.dom

    def dom(spec, w, a, q):
        return real(spec, w, a, q) != (q is stages and (w, a) == (0, flipped))

    monkeypatch.setattr(wandspec, "dom", dom)
    report = conch.verify_roundtrip(church3, stages)
    # then {{}} has no complement, so raw D lets wand 0 act on *0{{}} too
    assert report["relation_stability"][0] == "dom disagrees at stage 1 (wand 0)"


def test_roundtrip_reports_split_classes(church3, monkeypatch):
    stages = conch.gen_stages(church3.spec, 3)
    real = wandspec.partition

    def partition(spec, q, m):
        got = real(spec, q, m)
        if q is stages and m == 2:
            cls = next(c for c in got if len(c) > 1)
            got = [c for c in got if c is not cls] + [cls[:1], cls[1:]]
        return got

    monkeypatch.setattr(wandspec, "partition", partition)
    report = conch.verify_roundtrip(church3, stages)
    assert report["relation_stability"] == ["equiv classes disagree at stage 2"]


def test_a_stage_is_a_frozen_record(church_stages):
    st = church_stages.stages[-1]
    assert [f.name for f in dataclasses.fields(st)] == ["sigma", "conches", "below", "ranked"]
    with pytest.raises(dataclasses.FrozenInstanceError):
        st.sigma = 0


def test_cross_construction_bit_exact(church3, church_stages):
    for sigma, st in enumerate(church_stages.stages):
        recoded = frozenset(conch.conch_code(church3, a) for a in church3.ids()
                            if church3.obj(a).ordrank <= sigma)
        assert recoded == st.conches


def test_rank_correspondence(church3, church_stages):
    for a in church3.ids():
        assert church3.obj(a).ordrank == \
            church_stages.ordrank(conch.conch_code(church3, a))


def test_omega_is_top_wand_code_rank(church_stages):
    assert church_stages.omega() == ps.rank(ps.deep_carrier(ps.vn(2))) == 11


# -- the structural carrier test against the decoding one it replaced -----------------------

def ref_uncarrier(c):
    if len(c) != 1:
        raise NotACarrier(repr(c))
    try:
        tag, a = ps.kunpair(c.elements[0])
    except NotAPair:
        raise NotACarrier(repr(c)) from None
    if tag is not ps.EMPTY:
        raise NotACarrier(repr(c))
    return a


def ref_is_carrier(c):
    try:
        ref_uncarrier(c)
        return True
    except NotACarrier:
        return False


@pytest.mark.parametrize("name,depth", [("church:2", 3), ("conway", 4)])
def test_is_carrier_matches_the_decoding_reference(name, depth):
    stages = conch.gen_stages(wandspec.get_spec(name), depth)
    conches = list(stages.conchrank)
    # the conches, their elements (the pairs of tap-class codes among them) and
    # the elements of those, pairs of conches, and the empty set
    probes = set(conches)
    for c in conches:
        probes.update(c.elements)
        for e in c.elements:
            probes.update(e.elements)
    probes.update(ps.kpair(a, b) for a in conches[:40] for b in conches[:40])
    probes.update(ps.kpair(ps.EMPTY, a) for a in conches)
    probes.add(ps.EMPTY)
    # near misses: {{{empty}, X}}, {{{x}}} and {<a, b>} of every small shape
    one = ps.mk_set([ps.EMPTY])
    for a in conches[:20] + [ps.EMPTY]:
        probes.add(ps.mk_set([ps.mk_set([ps.mk_set([a])])]))
        for b in conches[:20] + [ps.EMPTY]:
            probes.add(ps.mk_set([ps.kpair(a, b)]))
            for x in (ps.mk_set([a, b]), ps.mk_set([ps.EMPTY, a, b])):
                probes.add(ps.mk_set([ps.mk_set([one, x])]))
    seen = {True: 0, False: 0}
    for c in probes:
        want = ref_is_carrier(c)
        assert ps.is_carrier(c) == want, c
        seen[want] += 1
        if want:
            assert ps.uncarrier(c) is ref_uncarrier(c)
        else:
            with pytest.raises(NotACarrier):
                ps.uncarrier(c)
    assert seen[True] and seen[False]


# -- planted faults: every report group and stage law fails on one ---------------------------
#
# Each fault is planted in a fresh church:2 depth-3 build (11 objects: id 0
# is {}, id 1 {{}} and id 2 *0{}, both of rank 1) or its stages, through
# monkeypatch, the fragment's code memo or a dataclasses.replace copy.

ONE = ps.mk_set([ps.EMPTY])
TWO = ps.mk_set([ONE])


def fresh_church3():
    spec = wandspec.get_spec("church:2")
    return universe.build(spec, 3), conch.gen_stages(spec, 3)


def coded(frag):
    """The fragment's code memo, filled for every id."""
    for a in frag.ids():
        conch.conch_code(frag, a)
    return frag.conch_codes


def unencoded_rank2(frag, stages, mp):
    real = universe.encode_pure
    mp.setattr(universe, "encode_pure", lambda f, p: None if p == ps.vn(2) else real(f, p))


def encoding_swaps_one_and_two(frag, stages, mp):
    real = universe.encode_pure
    one, two = real(frag, ONE), real(frag, TWO)
    swap = {one: two, two: one}
    mp.setattr(universe, "encode_pure", lambda f, p: swap.get(real(f, p), real(f, p)))


def deep_carrier_codes_one_as_two(frag, stages, mp):
    real = ps.deep_carrier
    mp.setattr(conch, "deep_carrier", lambda p: real(TWO if p == ONE else p))


def empty_carrier_escapes(frag, stages, mp):
    real = ps.in_carrier_levels
    mp.setattr(conch, "in_carrier_levels",
               lambda base, x: x != ps.carrier(ps.EMPTY) and real(base, x))


def wand1_designates_wand2(frag, stages, mp):
    wands = frag.wand_obj_ids()
    mp.setattr(frag, "wand_obj_ids", lambda: {**wands, 1: wands[2]})


def two_objects_share_a_code(frag, stages, mp):
    codes = coded(frag)
    codes[2] = codes[1]


def tapped_object_coded_as_a_carrier(frag, stages, mp):
    codes = coded(frag)
    codes[2] = ps.carrier(codes[2])


def member_bit_dropped(frag, stages, mp):
    real = universe.member_mask
    mp.setattr(universe, "member_mask",
               lambda f, b: real(f, b) & ~1 if (f, b) == (frag, 1) else real(f, b))


def wrong_stage_tap_on_rank1(frag, stages, mp):
    codes = coded(frag)
    wrong = codes[frag.resolve_tap(0, 0)]  # *0{} where *0{{}} belongs
    real = conch.Stages.resolve_tap
    mp.setattr(conch.Stages, "resolve_tap", lambda st, w, h: wrong if (
        st is stages and (w, h) == (0, codes[1])) else real(st, w, h))


def stage2_loses_a_conch(frag, stages, mp):
    last = stages.stages[-1]
    lost = dataclasses.replace(last, conches=last.conches - {last.ranked[-1]})
    return dataclasses.replace(stages, stages=stages.stages[:-1] + [lost], _taps={})


def stages_one_stage_short(frag, stages, mp):
    return conch.gen_stages(stages.spec, 2)


@pytest.mark.parametrize("fault,want", [
    (stages_one_stage_short, {"preconditions": ["fragment and stages disagree on spec/depth"]}),
    (unencoded_rank2, {"hb_iso": ["pure set of rank 2 has no object",
                                  "pure sets do not biject onto the hereditarily bland objects"]}),
    (encoding_swaps_one_and_two, {"hb_iso": ["membership not preserved ({} in {{}})"]}),
    (deep_carrier_codes_one_as_two, {"hb_iso": [
        "code of rank-1 pure set ranks wrong",
        "hereditarily bland codes differ from pure-set codes"]}),
    (empty_carrier_escapes, {"hb_iso": ["code escapes the empty-base carrier hierarchy"],
                             "level_correspondence": ["object 0 at stage 0: True vs False"]}),
    (wand1_designates_wand2, {"hb_iso": ["wand 1 code mismatch"]}),
    (two_objects_share_a_code, {"code_injective": ["two objects share a code"]}),
    (tapped_object_coded_as_a_carrier, {
        "code_clauses": ["blandness flips for object 2"],
        "rank_correspondence": ["object 2: rank 1 vs stage None"],
        "cross_construction": ["stage 1: 3 recoded vs 3 generated"]}),
    (member_bit_dropped, {"code_clauses": ["membership flips for (0,1)"]}),
    (stage2_loses_a_conch, {"cross_construction": ["stage 2: 11 recoded vs 10 generated"]}),
])
def test_roundtrip_reports_a_planted_fault(monkeypatch, fault, want):
    frag, stages = fresh_church3()
    stages = fault(frag, stages, monkeypatch) or stages
    report = conch.verify_roundtrip(frag, stages)
    for group, messages in want.items():
        for message in messages:
            assert message in report[group], (group, report[group])


def test_roundtrip_reports_a_wrong_stage_tap_on_a_rank1_conch_as_a_tap_flip(monkeypatch):
    frag, stages = fresh_church3()
    wrong_stage_tap_on_rank1(frag, stages, monkeypatch)
    report = conch.verify_roundtrip(frag, stages)
    assert report["code_clauses"] == ["tap flips for wand 0 on object 1"]


def test_the_tap_clause_compares_every_safe_pair(monkeypatch):
    # with every stage tap wrong (undefined where defined, the empty set's
    # code where undefined), each (wand, safe object) pair flips once: 3
    # wands on the 3 objects below rank 2 ({}, {{}} and *0{})
    frag, stages = fresh_church3()
    assert not any(conch.verify_roundtrip(frag, stages).values())  # memoises every stage tap
    real = conch.Stages.resolve_tap

    def resolve_tap(st, w, h):
        got = real(st, w, h)
        return got if st is not stages else ps.carrier(ps.EMPTY) if got is None else None

    monkeypatch.setattr(conch.Stages, "resolve_tap", resolve_tap)
    flips = conch.verify_roundtrip(frag, stages)["code_clauses"]
    assert flips == [f"tap flips for wand {w} on object {a}" for a in (0, 1, 2) for w in (0, 1, 2)]


def with_conch(stages, extra, rank):
    """A copy of ``stages`` whose last stage also holds ``extra`` at ``rank``."""
    last = stages.stages[-1]
    grown = dataclasses.replace(last, conches=last.conches | {extra},
                                ranked=last.ranked + (extra,))
    return dataclasses.replace(stages, stages=stages.stages[:-1] + [grown],
                               conchrank={**stages.conchrank, extra: rank}, _taps={})


def tap_code_of_rank(stages, r):
    return next(c for c in stages.ranked(r) if not ps.is_carrier(c) and stages.ordrank(c) == r)


@pytest.mark.parametrize("fault,want", [
    (lambda st, mp: dataclasses.replace(st, stages=[
        st.stages[0], dataclasses.replace(st.stages[1], below=st.stages[2].conches),
        st.stages[2]], _taps={}),
     ["stage 1 earlier-contents mismatch", "stage 1 not monotone"]),
    (lambda st, mp: with_conch(st, ps.carrier(ONE), 1),
     ["carrier at rank 1 holds a non-conch"]),
    (lambda st, mp: with_conch(st, ps.carrier(ps.mk_set([tap_code_of_rank(st, 2)])), 2),
     ["carrier rank 2 != member sup 3"]),
    (lambda st, mp: with_conch(st, ps.EMPTY, 1), ["empty non-carrier conch"]),
    (lambda st, mp: with_conch(st, ONE, 1),
     ["non-carrier conch at rank 1 is not a set of pairs"]),
    (lambda st, mp: with_conch(st, ps.mk_set([ps.kpair(ONE, ONE)]), 1),
     ["tap class member at rank 1 malformed", "tap class rank law broken at rank 1"]),
    (lambda st, mp: with_conch(st, ps.mk_set([ps.kpair(st.wandcodes[1], st.ranked(0)[0])]), 2),
     ["tap class rank law broken at rank 2"]),
    (lambda st, mp: mp.setattr(wandspec, "dom", lambda spec, w, a, q: False),
     ["tap class member outside domain at rank 1"]),
    (lambda st, mp: mp.setattr(st, "class_code", lambda cls: ps.EMPTY),
     ["tap class does not regenerate from a member at rank 1"]),
    (lambda st, mp: mp.setattr(conch.Stages, "resolve_tap", lambda self, w, h: None),
     ["found-at mismatch at stage 1"]),
], ids=["below-mismatch", "non-conch-member", "rank-above-sup", "empty", "not-pairs",
        "malformed", "tap-rank", "outside-domain", "no-regeneration", "found-at"])
def test_stage_laws_report_a_planted_fault(monkeypatch, fault, want):
    stages = conch.gen_stages(wandspec.get_spec("church:2"), 3)
    bad = conch.check_stage_laws(fault(stages, monkeypatch) or stages)
    for message in want:
        assert message in bad, bad
