import pytest

from wandset import conch, instances, suites, universe, wandspec
from wandset.errors import BeyondFragment, CapExceeded, NotBland
from wandset.pureset import lt_levels, mk_set, vn

from conftest import built, ref_hb_part, ref_sort_key


def ids_by_render(frag):
    return {frag.render(i): i for i in frag.ids()}


# -- construction -----------------------------------------------------------------

def test_pure_growth_counts():
    frag = built("pure", 5)
    assert [len(c) for c in frag.wevel_contents] == [0, 1, 2, 4, 16, 65536]
    assert frag.exhaustive


def test_church_depth3_census(church3):
    assert len(church3.objects) == 11
    by_rank = {}
    for o in church3.objects:
        by_rank.setdefault(o.ordrank, []).append(o)
    assert {r: len(v) for r, v in by_rank.items()} == {0: 1, 1: 2, 2: 8}
    names = set(ids_by_render(church3))
    assert names == {
        "{}", "{{}}", "*0{}",
        "{{{}}}", "{*0{}}", "{{},{{}}}", "{{},*0{}}", "{{{}},*0{}}",
        "{{},{{}},*0{}}", "*0{{}}", "*1{{}}",
    }


def _naive_conway(depth):
    """Independent enumerator: replay the founding story over descriptions.

    A description is ("bland", frozenset of descriptions) or
    ("game", a, b); games are identified by their pairs outright.
    """

    def as_pair(desc):
        if desc[0] != "bland":
            return None
        ms = [d for d in desc[1] if d[0] == "bland"]
        if len(ms) != len(desc[1]):
            return None
        if len(ms) == 1 and len(ms[0][1]) == 1:
            (a,) = ms[0][1]
            return a, a
        if len(ms) != 2:
            return None
        small, big = sorted(ms, key=lambda d: len(d[1]))
        if len(small[1]) != 1 or len(big[1]) != 2:
            return None
        (a,) = small[1]
        if a not in big[1]:
            return None
        (b,) = big[1] - {a}
        return a, b

    known = {}
    counts = []
    for stage in range(depth):
        prev = [d for d, r in known.items() if r < stage]
        counts.append(len(prev))
        for mask in range(1 << len(prev)):
            members = frozenset(prev[i] for i in range(len(prev)) if mask >> i & 1)
            known.setdefault(("bland", members), stage)
        for d in prev:
            p = as_pair(d)
            if p is not None and p[0][0] == "bland" and p[1][0] == "bland" \
                    and p[1][1]:
                known.setdefault(("game", p[0], p[1]), stage)
    counts.append(len(known))
    return counts


def test_conway_counts_match_naive_enumerator(conway4):
    assert _naive_conway(4) == [len(c) for c in conway4.wevel_contents]


def test_conway_depth5_counts_match_naive_enumerator():
    frag = built("conway", 5)
    assert _naive_conway(5) == [len(c) for c in frag.wevel_contents]
    assert sum(1 for o in frag.objects if not o.is_bland) == 2


def test_cap_exceeded_is_loud():
    with pytest.raises(CapExceeded):
        universe.build(wandspec.get_spec("pure"), 5, max_objects=1000)


def test_sampled_mode_registers_wevels_and_taps():
    frag = universe.build(wandspec.get_spec("church:2"), 3, mode="sampled",
                          subset_bound=1)
    assert not frag.exhaustive
    for alpha in range(frag.depth):
        frag.wevel_id(alpha)  # does not raise
    names = ids_by_render(frag)
    assert "*0{}" in names


# -- found-at, pot, stage proxies ------------------------------------------------------

def test_found_at_empty_at_empty(church3):
    empty = church3.bland_id(frozenset())
    assert universe.found_at(church3, empty, empty)


def test_found_at_tap_at_stage_one(church3):
    names = ids_by_render(church3)
    assert universe.found_at(church3, names["*0{}"], church3.wevel_id(1))
    assert not universe.found_at(church3, names["*0{}"], church3.wevel_id(0))


def test_pot_of_empty(church3):
    empty = church3.bland_id(frozenset())
    assert universe.pot(church3, empty) == empty
    with pytest.raises(NotBland):
        universe.pot(church3, ids_by_render(church3)["*0{}"])


def test_is_wevel_recognizer(church3):
    wevels = {church3.wevel_id(a) for a in range(church3.depth)}
    for a in church3.ids():
        assert universe.is_wevel(church3, a) == (a in wevels)


def test_wistory_search_agrees_with_recognizer(pure4):
    for a in pure4.ids():
        if pure4.obj(a).is_bland and len(pure4.obj(a).members) <= 6:
            assert (universe.wistory_witness(pure4, a) is not None) == \
                universe.is_wevel(pure4, a)


def test_double_singleton_is_not_a_wevel(pure4):
    names = ids_by_render(pure4)
    assert not universe.is_wevel(pure4, names["{{{}}}"])
    assert universe.is_wevel(pure4, names["{}"])


def test_ordrank_examples(church3):
    names = ids_by_render(church3)
    assert church3.obj(names["{}"]).ordrank == 0
    assert church3.obj(names["*0{}"]).ordrank == 1
    assert church3.obj(church3.wevel_id(2)).ordrank == 2
    assert universe.wevel_of(church3, names["*0{}"]) == church3.wevel_id(1)


# -- taps ---------------------------------------------------------------------------------

def test_tap_quotients_equinumerous_singletons(church3):
    names = ids_by_render(church3)
    t1 = universe.tap(church3, 1, names["{{}}"])
    t2 = universe.tap(church3, 1, names["{{{}}}"])
    assert t1 == t2 == names["*1{{}}"]


def test_tap_respects_courtesy_exclusions(church3):
    names = ids_by_render(church3)
    assert universe.tap(church3, 0, names["*0{}"]) is None


def test_tap_beyond_fragment(church3):
    names = ids_by_render(church3)
    with pytest.raises(BeyondFragment):
        universe.tap(church3, 0, names["{{{}}}"])  # rank-2 arg, rank-3 result


@pytest.mark.parametrize("name,depth", [("church:2", 3), ("church:2", 4), ("conway", 4)])
def test_safe_ids_are_the_ids_ranked_below_the_last_stage(name, depth):
    frag = built(name, depth)
    safe = frag.safe_ids()
    assert safe == tuple(a for a in frag.ids() if frag.obj(a).ordrank + 1 < depth)
    for a in safe:  # their taps resolve; a rank depth - 2 tap ranks depth - 1
        for w in frag.spec.wand_indices():
            frag.resolve_tap(w, a)
    assert {frag.obj(a).ordrank for a in safe} == set(range(depth - 1))


def test_conway_game_of_pair_with_empty_right_is_none(conway4):
    names = ids_by_render(conway4)
    assert universe.tap(conway4, 0, names["{{{}}}"]) is None  # <0,0>


# -- hereditary blandness and levels -----------------------------------------------------

def test_hereditarily_bland_examples(church3):
    names = ids_by_render(church3)
    assert universe.hereditarily_bland(church3, names["{{{}}}"])
    assert not universe.hereditarily_bland(church3, names["{*0{}}"])
    part = ref_hb_part(church3, names["{{},*0{}}"])
    assert part == names["{{}}"]


def test_hb_three_way_agreement(church3):
    for a in church3.ids():
        hb = universe.hereditarily_bland(church3, a)
        assert hb == universe.in_ur_levels(church3, frozenset(), a)
        assert hb == (universe.hb_witness(church3, a) is not None)


def test_ur_level_base_cases(church3):
    base = frozenset(church3.wevel_contents[2])
    assert universe.ur_level(church3, 0, base) == base


def test_ur_level_two_over_empty_in_pure(pure4):
    names = ids_by_render(pure4)
    got = universe.ur_level(pure4, 2, frozenset())
    assert got == frozenset([names["{}"], names["{{}}"]])


def test_ur_level_recognizer_agreement(church3):
    base = frozenset(church3.wevel_contents[2])
    prev = None
    alpha = 0
    generated = set()
    while True:
        level = universe.ur_level(church3, alpha, base)
        if level == prev:
            break
        prev = level
        oid = church3.bland_id(level)
        if oid is not None:
            generated.add(oid)
            assert universe.is_ur_level(church3, base, oid)
        alpha += 1
    for t in church3.ids():
        if church3.obj(t).is_bland and universe.is_ur_level(church3, base, t):
            assert t in generated


# -- decomposition ---------------------------------------------------------------------------

def test_decompose_bland_is_trivial(church3):
    empty = church3.bland_id(frozenset())
    assert universe.decompose(church3, empty) == (empty, [])


def test_decompose_single_tap(church3):
    names = ids_by_render(church3)
    assert universe.decompose(church3, names["*0{{}}"]) == (names["{{}}"], [0])


def test_decompose_roundtrip_everywhere(church3):
    for a in church3.ids():
        base, path = universe.decompose(church3, a)
        assert church3.obj(base).is_bland
        assert universe.bigtap(church3, base, path) == a


def test_bigtap_reports_undefined_step(church3):
    names = ids_by_render(church3)
    with pytest.raises(universe.TapUndefinedAt) as err:
        universe.bigtap(church3, names["{}"], [2, 0])
    assert err.value.index == 0


# -- the deeper shipped examples -------------------------------------------------------------

def test_conway_star_game_has_expected_options():
    frag = built("conway", 5)
    names = ids_by_render(frag)
    star = names.get("*0{{{{}}}}")  # game of <{0},{0}>, the pair {{{0}}}
    assert star is not None
    zero = names["{}"]
    ((_, pair),) = frag.obj(star).tclass
    left, right = instances.pair_decode(frag, pair)
    assert frag.members(left) == frag.members(right) == (zero,)


def test_partial_fun_first_nontrivial_function():
    frag = built("partial-fun", 6, mode="sampled", subset_bound=2)
    # the graph {<{0}, 0>} is found at stage 4 and tapped at stage 5
    g = next(a for a in frag.ids()
             if instances.graph_decode(frag, a)
             and len(frag.obj(a).members) == 1
             and any(x != y for x, y in instances.graph_decode(frag, a))
             and frag.obj(a).ordrank == 4)
    f = universe.tap(frag, 0, g)
    assert f is not None and not frag.obj(f).is_bland
    assert frag.obj(f).ordrank == 5


def test_partial_fun_identity_graph_excluded():
    frag = built("partial-fun", 4)
    names = ids_by_render(frag)
    ident = names["{{{{}}}}"]  # {<0,0>}
    assert instances.graph_decode(frag, ident) is not None
    assert universe.tap(frag, 0, ident) is None


def test_multiset_two_copies_exists():
    frag = built("multiset", 7, mode="sampled", subset_bound=2, max_objects=4000)
    hits = [a for a in frag.ids()
            if (pairs := instances.graph_decode(frag, a))
            and len(pairs) == 1
            and instances.vn_decode(frag, pairs[0][1]) == 2
            and not frag.members(pairs[0][0])]
    assert hits, "graph {<0, 2>} not found in the sampled build"
    assert any(universe.tap(frag, 0, g) is not None for g in hits)


# -- bitmask queries against the brute-force definitions they replaced ------------------------

def ref_found_at(frag, x, r):
    ox, orr = frag.obj(x), frag.obj(r)
    r_members = frozenset(orr.members or ())
    if ox.is_bland and frozenset(ox.members) <= r_members:
        return True
    if ox.is_bland:
        return False
    for b in r_members:
        for w in frag.spec.wand_indices():
            if frag.resolve_tap(w, b) == x:
                return True
    return False


def ref_pot_ids(frag, member_ids):
    mem = list(member_ids)
    return frozenset(x for x in frag.ids()
                     if any(ref_found_at(frag, x, r) for r in mem))


def ref_ur_pot_ids(frag, base, member_ids):
    mem = set(member_ids)
    out = set(base)

    def below(x, c):
        return frozenset(x.members) <= frozenset(c.members) if c.is_bland else not x.members

    for o in frag.objects:
        if o.is_bland and any(below(o, frag.obj(c)) for c in mem):
            out.add(o.id)
    return frozenset(out)


def ref_hb_witness(frag, a):
    o = frag.obj(a)
    if not o.is_bland:
        return None
    for c in frag.ids():
        oc = frag.obj(c)
        if not oc.is_bland or not frozenset(o.members) <= frozenset(oc.members):
            continue
        if all(frag.obj(x).is_bland and frozenset(frag.obj(x).members) <= frozenset(oc.members)
               for x in oc.members):
            return c
    return None


class RefRecognizers:
    """The wevel and level recognizers over the reference pots.

    Pots are memoised on their argument set: a recognizer asks for the pot
    of the same few wevel or level members again and again.
    """

    def __init__(self, frag, base=frozenset()):
        self.frag, self.base = frag, base
        self.wevel, self.level, self.pots, self.ur_pots = {}, {}, {}, {}

    def pot(self, sub):
        key = frozenset(sub)
        if key not in self.pots:
            self.pots[key] = ref_pot_ids(self.frag, key)
        return self.pots[key]

    def is_wevel(self, x):
        if x not in self.wevel:
            o = self.frag.obj(x)
            self.wevel[x] = o.is_bland and self.pot(
                r for r in o.members if self.is_wevel(r)) == frozenset(o.members)
        return self.wevel[x]

    def is_ur_level(self, t):
        if t not in self.level:
            o = self.frag.obj(t)
            if not o.is_bland:
                self.level[t] = False
                return False
            self.level[t] = False  # recursion guard, as in the recognizer
            key = frozenset(r for r in o.members if self.is_ur_level(r))
            if key not in self.ur_pots:
                self.ur_pots[key] = ref_ur_pot_ids(self.frag, self.base, key)
            self.level[t] = self.ur_pots[key] == frozenset(o.members)
        return self.level[t]


DIFFERENTIAL_BUILDS = [
    ("church:2", 3, {}),
    ("church:1", 4, {}),
    ("pure", 4, {}),
    ("conway", 4, {}),
    ("church:2", 4, {"mode": "sampled", "subset_bound": 2}),
]


def _diff_ids(build):
    name, depth, kw = build
    return f"{name}-{depth}" + ("-sampled" if kw else "")


@pytest.fixture(scope="module", params=DIFFERENTIAL_BUILDS, ids=_diff_ids)
def diff_frag(request):
    name, depth, kw = request.param
    return built(name, depth, **kw)


def test_found_mask_matches_found_at_reference(diff_frag):
    ids = list(diff_frag.ids())
    for r in ids:
        want = [x for x in ids if ref_found_at(diff_frag, x, r)]
        assert universe.mask_ids(universe.found_mask(diff_frag, r)) == want, r
    for x in ids[:40]:
        for r in ids[:40]:
            assert universe.found_at(diff_frag, x, r) == ref_found_at(diff_frag, x, r)


def test_pot_ids_of_wevel_members_match_reference(diff_frag):
    ref = RefRecognizers(diff_frag)
    for alpha in range(diff_frag.depth):
        s = diff_frag.obj(diff_frag.wevel_id(alpha))
        sub = [r for r in s.members if ref.is_wevel(r)]
        assert universe.pot_ids(diff_frag, sub) == ref_pot_ids(diff_frag, sub)
        assert universe.pot_ids(diff_frag, s.members) == ref_pot_ids(diff_frag, s.members)


def test_recognizers_match_reference(diff_frag):
    # both recognizers share one recursion, so each is compared before either fails
    ref = RefRecognizers(diff_frag)
    bad = {"is_wevel": [a for a in diff_frag.ids()
                        if universe.is_wevel(diff_frag, a) != ref.is_wevel(a)]}
    bases = [frozenset(), frozenset(diff_frag.wevel_contents[min(2, diff_frag.depth - 1)])]
    for i, base in enumerate(bases):
        ref = RefRecognizers(diff_frag, base)
        bad[f"is_ur_level base {i}"] = [t for t in diff_frag.ids()
                                        if universe.is_ur_level(diff_frag, base, t)
                                        != ref.is_ur_level(t)]
    assert all(not ids for ids in bad.values()), bad


def test_hb_witness_matches_reference(diff_frag):
    for a in diff_frag.ids():
        assert universe.hb_witness(diff_frag, a) == ref_hb_witness(diff_frag, a), a


def ref_ur_level(frag, alpha, base):
    """Level ``alpha`` over ``base``, rebuilt from the base on every call."""
    level = frozenset(base)
    for _ in range(alpha):
        nxt = set(base)
        for o in frag.objects:
            if o.is_bland and level.issuperset(o.members):
                nxt.add(o.id)
        level = frozenset(nxt)
    return level


def ref_in_ur_levels(frag, base, x, memo):
    """Membership in some level over ``base``, read by recursion on members."""
    hit = memo.get(x)
    if hit is None:
        memo[x] = False  # guard against self-membership in odd bases
        o = frag.obj(x)
        hit = memo[x] = x in base or (o.is_bland and all(
            ref_in_ur_levels(frag, base, m, memo) for m in o.members))
    return hit


def _level_bases(frag):
    # the core suite's two bases and the conch round trip's stage contents
    return {frozenset(), *map(frozenset, frag.wevel_contents)}


def test_ur_level_matches_reference(diff_frag):
    for base in _level_bases(diff_frag):
        alpha, prev = 0, None
        while True:
            want = ref_ur_level(diff_frag, alpha, base)
            assert universe.ur_level(diff_frag, alpha, base) == want, (sorted(base), alpha)
            if want == prev:  # the fixpoint, asked once more
                break
            alpha, prev = alpha + 1, want


def test_in_ur_levels_matches_reference(diff_frag):
    for base in _level_bases(diff_frag):
        memo = {}
        for x in diff_frag.ids():
            assert universe.in_ur_levels(diff_frag, base, x) == \
                ref_in_ur_levels(diff_frag, base, x, memo), (sorted(base), x)


def test_masks_follow_a_growing_fragment():
    frag = universe.build(wandspec.get_spec("pure"), 2)
    empty = frag.bland_id(frozenset())
    top = frag.wevel_id(1)
    assert universe.mask_ids(universe.found_mask(frag, top)) == sorted(frag.ids())
    grown = frag.register_bland(frozenset([top]), 2)
    assert universe.member_mask(frag, grown) == 1 << top
    assert universe.found_at(frag, top, grown) is False
    assert universe.mask_ids(universe.subset_mask(frag, grown)) == [empty, grown]


@pytest.mark.parametrize("members, stage, message", [
    *[pytest.param([0, bad], 1, f"object id {bad} is outside 0 .. 1", id=str(bad))
      for bad in (-1, 2, 5)],
    # an exhaustive fragment also rejects a new set whose rank is not the stage
    pytest.param([1], 5, "stage 5 is not the rank 2 of the set", id="stage-above-rank"),
    pytest.param([1], 1, "stage 1 is not the rank 2 of the set", id="stage-below-rank"),
])
def test_register_bland_rejects_an_id_outside_the_fragment(members, stage, message):
    frag = universe.build(wandspec.get_spec("pure"), 2)  # {} and {{}}
    with pytest.raises(ValueError, match=message):
        frag.register_bland(members, stage)
    assert len(frag) == 2 and frag.bland_id(members) is None


def test_register_bland_takes_any_stage_on_a_sampled_fragment():
    frag = universe.build(wandspec.get_spec("pure"), 2, mode="sampled")
    assert frag.obj(frag.register_bland([1], 5)).ordrank == 2


@pytest.mark.parametrize("tclass, message", [
    ([(0, -1)], "object id -1 is outside"),
    ([(0, 0), (1, 99)], "object id 99 is outside"),
    ([(3, 0)], "wand 3 is outside 0 .. 2"),  # church:2 has wands 0, 1 and 2
    ([(-1, 0)], "wand -1 is outside"),
    ([], r"one rank, not \[\]"),
    ([(0, 0), (1, 1)], r"one rank, not \[0, 1\]"),  # {} has rank 0, {{}} rank 1
])
def test_register_tap_rejects_an_id_or_wand_outside_the_fragment(tclass, message):
    frag = universe.build(wandspec.get_spec("church:2"), 2)
    n = len(frag)
    with pytest.raises(ValueError, match=message):
        frag.register_tap(tclass)
    assert len(frag) == n


# -- memo lifetimes: answers asked before a registration match a fresh build ------

def _memoised_answers(frag):
    """Every memoised query, asked of every object (and of the 16 pure sets
    of rank below 3)."""
    ids = list(frag.ids())
    out = {
        "encode_pure": [universe.encode_pure(frag, p) for p in lt_levels(4)[-1]],
        "wand_obj_ids": dict(frag.wand_obj_ids()),
        "is_wevel": [universe.is_wevel(frag, a) for a in ids],
        "hereditarily_bland": [universe.hereditarily_bland(frag, a) for a in ids],
        "conch_code": [conch.conch_code(frag, a) for a in ids],
    }
    for base in (frozenset(), frozenset(frag.wevel_contents[1])):
        out["is_ur_level", base] = [universe.is_ur_level(frag, base, a) for a in ids]
        out["in_ur_levels", base] = [universe.in_ur_levels(frag, base, a) for a in ids]
        out["ur_level", base] = [universe.ur_level(frag, alpha, base)
                                 for alpha in range(frag.depth + 3)]
    if frag.spec.name.startswith("church:"):
        # a registered set may rank at the depth, so the top takes in every id
        out["neq_group"] = [[list(instances._neq_group(frag, a, n, len(frag) - 1))
                             for n in (1, 2, 3)] for a in ids]
        assert all(len(set(g)) == len(g) for groups in out["neq_group"] for g in groups)
        out["classify_kind"] = [instances.classify_kind(frag, a) for a in ids]
        out["varin"] = [[instances.varin(frag, x, a) for x in ids] for a in ids]
    return out


@pytest.mark.parametrize("name, depth, members, grown", [
    # encode_pure's miss on {{{}}} is filled by the registration
    ("pure", 2, ["{{}}"], lambda frag, new: universe.encode_pure(frag, mk_set([vn(1)])) == new),
    # wand 2's designation vn(2) is registered late
    ("church:2", 2, ["{}", "{{}}"],
     lambda frag, new: frag.wand_obj_ids().get(2) == new),
    # the complement of {} holds the new set
    ("church:1", 3, ["{{{}}}"],
     lambda frag, new: instances.varin(frag, new, ids_by_render(frag)["*0{}"])),
], ids=["pure-encode", "church2-wand", "church1-varin"])
def test_memos_follow_a_registration(name, depth, members, grown):
    def register(frag):
        names = ids_by_render(frag)
        return frag.register_bland([names[m] for m in members], depth)

    asked = universe.build(wandspec.get_spec(name), depth)
    _memoised_answers(asked)
    new = register(asked)
    assert grown(asked, new)
    fresh = universe.build(wandspec.get_spec(name), depth)
    register(fresh)
    assert _memoised_answers(asked) == _memoised_answers(fresh)


def test_wevel_id_lookups_mid_build_still_raise():
    frag = universe.build(wandspec.get_spec("pure"), 2)
    frag.wevel_contents.append(tuple(frag.ids()))
    with pytest.raises(BeyondFragment):
        frag.wevel_id(3)
    with pytest.raises(BeyondFragment):
        frag.wevel_id(2)  # recorded but not registered yet
    oid = frag.register_bland(frozenset(frag.ids()), 2)
    assert frag.wevel_id(2) == oid


# -- memoised renders against the unmemoised render they replaced ---------------------------

def reference_render(frag, oid):
    """Brace notation, recomputed from scratch on every call."""
    o = frag.obj(oid)
    if o.is_bland:
        inner = sorted((ref_sort_key(frag, m), m) for m in o.members)
        return "{" + ",".join(reference_render(frag, m) for _, m in inner) + "}"
    pairs = sorted((w, ref_sort_key(frag, b), b) for w, b in o.tclass)
    w, _, b = pairs[0]
    return f"*{w}{reference_render(frag, b)}"


def replay(src):
    """A fresh fragment grown by registering ``src``'s objects in id order;
    yields it after each registration."""
    frag = universe.Fragment(spec=src.spec, depth=src.depth, exhaustive=src.exhaustive)
    for o in src.objects:
        if o.is_bland:
            frag.register_bland(o.members, o.ordrank)
        else:
            frag.register_tap(o.tclass)
        yield frag


# church:1 depth 4 has a tap class of two pairs, so the least pair matters
@pytest.mark.parametrize("name,depth", [("church:2", 3), ("pure", 4), ("conway", 4),
                                        ("church:1", 4)])
def test_render_matches_reference(name, depth):
    src = built(name, depth)
    for a in src.ids():
        assert src.render(a) == reference_render(src, a), a
    # each object is first rendered when registered, then again after the
    # fragment has grown past it
    for frag in replay(src):
        new = len(frag) - 1
        assert frag.render(new) == reference_render(frag, new), new
    for a in frag.ids():
        assert frag.render(a) == reference_render(frag, a) == src.render(a), a


# -- the core suite rows -------------------------------------------------------------------

CORE_ROWS_CHURCH3 = [
    "least-stage-is-least", "wevels-well-ordered", "wevel-recognizer-exact",
    "wistory-search-agrees", "nothing-in-its-own-stage", "pot-within-least-stage",
    "no-self-membership", "stage-inclusion-vs-membership", "stage-proxy-ranks-itself",
    "stage-monotone-under-inclusion", "stage-of-member-strictly-below",
    "stages-potent-and-transitive", "tap-rank-law", "tap-class-members-regenerate",
    "tap-defined-iff-in-domain", "taps-equal-iff-equivalent", "decompose-roundtrip",
    "official-predicates-wellbehaved", "equiv-identity-clause",
    "hereditarily-bland-three-ways", "ur-levels-recursion-vs-recognizer",
]


def test_core_rows_on_church3(church3):
    assert suites.core_laws(church3) == [(name, True, "") for name in CORE_ROWS_CHURCH3]


def ref_stage_monotone(frag):
    """The pairwise sweep the per-rank check replaced."""
    bad = []
    for a in frag.ids():
        oa = frag.obj(a)
        if not oa.is_bland:
            continue
        for b in frag.ids():
            ob = frag.obj(b)
            if ob.is_bland and frozenset(ob.members) <= frozenset(oa.members):
                if not (frozenset(frag.obj(universe.wevel_of(frag, b)).members)
                        <= frozenset(frag.obj(universe.wevel_of(frag, a)).members)):
                    bad.append((b, a))
    return bad


@pytest.mark.parametrize("swap", [(0, 1), (1, 2), (0, 2)])
def test_stage_monotone_witnesses_match_pairwise_sweep(swap):
    # swapping two stage proxies breaks monotonicity for some rank pairs
    frag = universe.build(wandspec.get_spec("church:2"), 3)
    true_id = frag.wevel_id
    i, j = swap
    frag.wevel_id = lambda alpha: true_id({i: j, j: i}.get(alpha, alpha))
    want = ref_stage_monotone(frag)
    assert want
    rows = dict((name, (ok, witness)) for name, ok, witness in suites.core_laws(frag))
    assert rows["stage-monotone-under-inclusion"] == (False, f"{want[:3]}")
