import dataclasses
import itertools
import random
from dataclasses import dataclass
from typing import Tuple

import pytest

from wandset import conch, instances, universe, wandspec
from wandset.errors import TaxonomyViolation

from conftest import built


def ids_by_render(frag):
    return {frag.render(i): i for i in frag.ids()}


# -- n-equivalence -------------------------------------------------------------------

@dataclass(frozen=True)
class NEquivWitness:
    """Witnessing bijections for an n-equivalence, outermost first.

    ``chain[0]`` bijects the (n-1)-fold unions; each later entry is induced
    pointwise from the previous one, down to ``chain[-1]`` on the sets
    themselves.
    """

    n: int
    chain: Tuple[Tuple[Tuple[object, object], ...], ...]


def ref_n_equiv_witness(q, a, b, n):
    """The witness search that ``n_equiv_over`` replaced: every complete
    bottom bijection in turn, lifted level by level, with no memo; the first
    lift that succeeds is packed as a witness, else None."""
    ua = instances._union_chain(q, a, n)
    ub = instances._union_chain(q, b, n)
    if ua is None or ub is None:
        return None
    if any(len(x) != len(y) for x, y in zip(ua, ub)):
        return None

    def pack(maps):
        return NEquivWitness(n, tuple(tuple(sorted(m.items())) for m in maps))

    if a == b:
        # the identity chain always witnesses self-equivalence
        return pack([{x: x for x in lvl} for lvl in reversed(ua)])
    deep_a, deep_b = ua[n - 1], ub[n - 1]
    if n == 1:
        # no induced maps to satisfy: any pairing works
        return pack([dict(zip(deep_a, deep_b))])

    def profile(x, level):
        return sum(1 for c in level if x in q.members(c))

    cands = {x: [y for y in deep_b if profile(y, ub[n - 2]) == profile(x, ua[n - 2])]
             for x in deep_a}
    slots = sorted(deep_a, key=lambda x: len(cands[x]))

    def all_maps(i, fmap, used):
        if i == len(slots):
            yield dict(fmap)
            return
        x = slots[i]
        for y in cands[x]:
            if y in used:
                continue
            fmap[x] = y
            used.add(y)
            yield from all_maps(i + 1, fmap, used)
            del fmap[x]
            used.remove(y)

    for base in all_maps(0, {}, set()):
        maps = [base]
        for i in range(n - 2, -1, -1):
            lifted = instances._induce(q, maps[-1], ua[i], ub[i])
            if lifted is None:
                break
            maps.append(lifted)
        else:
            return pack(maps)
    return None


def test_one_equivalence_is_equinumerosity(church3):
    names = ids_by_render(church3)
    assert instances.n_equiv_over(church3, names["{{}}"], names["{{{}}}"], 1) is True
    w = ref_n_equiv_witness(church3, names["{{}}"], names["{{{}}}"], 1)
    assert w is not None and w.n == 1
    ((x, y),) = w.chain[-1]
    assert (x, y) == (names["{}"], names["{{}}"])


def test_empty_sets_are_not_one_equivalent(church3):
    empty = church3.bland_id(frozenset())
    assert instances.n_equiv_over(church3, empty, empty, 1) is False


def test_two_equivalence_needs_matching_cardinalities():
    frag = built("pure", 4)
    names = ids_by_render(frag)
    a = names["{{{},{{}}}}"]          # {{0,{0}}},   one member
    b = names["{{{}},{{{}}}}"]        # {{0},{{0}}}, two members
    assert instances.n_equiv_over(frag, a, b, 2) is False


def test_two_equivalence_positive_case():
    frag = built("pure", 4)
    names = ids_by_render(frag)
    a = names["{{{}}}"]               # {{0}}
    b = names["{{{{}}}}"]             # {{{0}}}
    assert instances.n_equiv_over(frag, a, b, 2) is True
    w = ref_n_equiv_witness(frag, a, b, 2)
    assert w is not None
    # the witness chain lifts: the bottom bijection induces the top one
    bottom, top = dict(w.chain[0]), dict(w.chain[1])
    for x, y in top.items():
        assert frozenset(bottom[m] for m in frag.obj(x).members) == \
            frozenset(frag.obj(y).members)


def test_two_equivalence_negative_when_no_lift_exists():
    frag = built("pure", 4)
    names = ids_by_render(frag)
    a = names["{{{}},{{{}}}}"]        # {{0},{{0}}}: member sizes 1 and 1
    b = names["{{{}},{{},{{}}}}"]     # {{0},{0,{0}}}: member sizes 1 and 2
    # unions agree but no bijection of them induces a member bijection
    assert set(instances._union_chain(frag, a, 2)[1]) == set(instances._union_chain(frag, b, 2)[1])
    assert instances.n_equiv_over(frag, a, b, 2) is False


def test_one_equivalence_allows_non_bland_members(church3):
    names = ids_by_render(church3)
    assert instances.n_equiv_over(church3, names["{*0{}}"], names["{{}}"], 1) is True


def test_n_equiv_rejects_n_below_one(church3):
    for n in (0, -1):
        with pytest.raises(ValueError, match="n must be positive"):
            instances.n_equiv_over(church3, 0, 0, n)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_n_equiv_is_equivalence_on_its_domain(n):
    frag = built("church:2", 3)
    sets = [a for a in frag.ids() if instances.n_equiv_over(frag, a, a, n)]
    for a, b in itertools.product(sets, repeat=2):
        assert instances.n_equiv_over(frag, a, b, n) == instances.n_equiv_over(frag, b, a, n)
    for a, b, c in itertools.product(sets, repeat=3):
        if instances.n_equiv_over(frag, a, b, n) and instances.n_equiv_over(frag, b, c, n):
            assert instances.n_equiv_over(frag, a, c, n)


def test_one_equivalence_matches_cardinality_oracle(church3):
    for a in church3.ids():
        for b in church3.ids():
            oa, ob = church3.obj(a), church3.obj(b)
            oracle = (oa.is_bland and ob.is_bland and len(oa.members) > 0
                      and len(oa.members) == len(ob.members))
            assert instances.n_equiv_over(church3, a, b, 1) == oracle


def test_three_equivalence_with_nontrivial_chain():
    frag = built("pure", 5)
    names = {}
    for i in frag.ids():
        if frag.obj(i).ordrank <= 4 and len(frag.obj(i).members or ()) <= 1:
            names[frag.render(i)] = i
    a = names["{{{{}}}}"]     # {{{0}}}
    b = names["{{{{{}}}}}"]   # {{{{0}}}}
    assert instances.n_equiv_over(frag, a, b, 3) is True
    w = ref_n_equiv_witness(frag, a, b, 3)
    assert w is not None and len(w.chain) == 3
    # the deepest map sends 0 to {0}; the induced ones follow pointwise
    assert dict(w.chain[0]) == {names["{}"]: names["{{}}"]}
    assert dict(w.chain[1]) == {names["{{}}"]: names["{{{}}}"]}
    assert dict(w.chain[2]) == {names["{{{}}}"]: names["{{{{}}}}"]}
    # no equivalence once the union sizes diverge
    double = next(i for i in frag.ids() if frag.render(i) == "{{{},{{}}}}")
    assert instances.n_equiv_over(frag, a, double, 3) is False


@pytest.mark.parametrize("n", [1, 2, 3])
def test_n_equiv_matches_the_witness_search_on_every_pair(n):
    frag = universe.build(universe.wandspec.get_spec("church:2"), 3)
    answers = set()
    for a, b in itertools.product(frag.ids(), repeat=2):
        got = instances.n_equiv_over(frag, a, b, n)
        assert type(got) is bool
        assert got == (ref_n_equiv_witness(frag, a, b, n) is not None), (a, b)
        answers.add(got)
    assert answers == ({False} if n == 3 else {False, True})


@pytest.mark.parametrize("name", ["church:1", "church:2"])
@pytest.mark.parametrize("n", [2, 3])
def test_n_equiv_matches_the_witness_search_within_key_groups(name, n):
    # only pairs sharing an n-key can hold, so the pairs are drawn from the
    # key groups, with the memo both cold and warm
    frag = universe.build(universe.wandspec.get_spec(name), 4)
    groups = {}
    for a in frag.ids():
        if (key := instances._neq_key(frag, a, n)) is not None:
            groups.setdefault(key, []).append(a)
    rng = random.Random(f"{name}:{n}")
    pairs = [(a, b) for group in groups.values() for a in group
             for b in rng.sample(group, min(len(group), 12))]
    answers = set()
    for a, b in pairs + pairs:
        got = instances.n_equiv_over(frag, a, b, n)
        assert got == (ref_n_equiv_witness(frag, a, b, n) is not None), (a, b)
        answers.add(got)
    assert answers == {False, True}


# -- church spec behavior ----------------------------------------------------------------

def test_complement_of_empty_exists(church3):
    names = ids_by_render(church3)
    assert universe.tap(church3, 0, names["{}"]) == names["*0{}"]


def test_cardinal_tap_identifies_equinumerous(church3):
    names = ids_by_render(church3)
    assert universe.tap(church3, 1, names["{*0{}}"]) == names["*1{{}}"]


def test_tap_class_is_minimal_rank_singleton(church3):
    names = ids_by_render(church3)
    card1 = church3.obj(names["*1{{}}"])
    (pair,) = card1.tclass
    assert pair == (1, names["{{}}"])


# -- kinds, expansive membership, widened taps ----------------------------------------------

@pytest.fixture(scope="module")
def church4():
    return built("church:1", 4)


def test_classify_examples(church3):
    names = ids_by_render(church3)
    assert instances.classify_kind(church3, names["{{}}"]).tag == "bland"
    k = instances.classify_kind(church3, names["*0{}"])
    assert (k.tag, k.n, k.base) == ("tap_of_bland", 0, names["{}"])
    k = instances.classify_kind(church3, names["*1{{}}"])
    assert (k.tag, k.n, k.base) == ("tap_of_bland", 1, names["{{}}"])


def test_classify_complement_of_cardinal(church4):
    names = ids_by_render(church4)
    comp = universe.tap(church4, 0, names["*1{{}}"])
    k = instances.classify_kind(church4, comp)
    assert (k.tag, k.n, k.base) == ("comp_of_card", 1, names["{{}}"])


def test_classification_total_and_unique(church4):
    for a in church4.ids():
        instances.classify_kind(church4, a)  # must never raise


def test_varin_universal_set(church3):
    names = ids_by_render(church3)
    universal = names["*0{}"]
    for x in church3.ids():
        assert instances.varin(church3, x, universal)


def test_varin_on_bland_is_membership(church3):
    for a in church3.ids():
        if not church3.obj(a).is_bland:
            continue
        for x in church3.ids():
            assert instances.varin(church3, x, a) == (x in church3.obj(a).members)


def test_varin_on_cardinal_is_equivalence(church3):
    names = ids_by_render(church3)
    card1 = names["*1{{}}"]
    for x in church3.ids():
        expected = instances.n_equiv_over(church3, x, names["{{}}"], 1)
        assert instances.varin(church3, x, card1) == expected


def test_widetap_extends_complement(church3):
    names = ids_by_render(church3)
    assert instances.widetap(church3, 0, names["*0{}"]) == names["{}"]
    assert instances.widetap(church3, 0, names["*0{{}}"]) == names["{{}}"]
    assert instances.widetap(church3, 0, names["{}"]) == names["*0{}"]
    assert instances.widetap(church3, 1, names["*0{}"]) is None


def test_widetap_agrees_with_tap_where_defined(church3):
    for a in church3.ids():
        if church3.obj(a).ordrank + 1 >= church3.depth:
            continue
        for n in range(3):
            t = universe.tap(church3, n, a)
            if t is not None:
                assert instances.widetap(church3, n, a) == t


def test_double_complement_of_cardinal_is_the_cardinal(church4):
    names = ids_by_render(church4)
    card = names["*1{{}}"]
    comp = universe.tap(church4, 0, card)
    assert universe.tap(church4, 0, comp) == card


def test_complement_links_cardinal_through_raw_equiv(church4):
    # E(0, *0*1{0}, 1, b) holds for any b equinumerous with {0}: the witness
    # is a lower-stage d with *0(*1 d) equal to the complement
    names = ids_by_render(church4)
    comp = universe.tap(church4, 0, names["*1{{}}"])
    spec = church4.spec
    assert spec.raw_equiv(0, comp, 1, names["{{}}"], church4)
    assert spec.raw_equiv(0, comp, 1, names["{{{}}}"], church4)
    assert not spec.raw_equiv(0, comp, 1, names["{{},{{}}}"], church4)
    # and through the official wrapper the tap collapses accordingly
    assert universe.tap(church4, 0, comp) == universe.tap(church4, 1, names["{{{}}}"])


def test_witness_chains_are_induced_bijections(church3):
    # every returned witness: each level is a bijection, and each upper map
    # is induced pointwise from the one below it
    for n in (2, 3):
        for a in church3.ids():
            for b in church3.ids():
                w = ref_n_equiv_witness(church3, a, b, n)
                if w is None:
                    continue
                assert len(w.chain) == n
                for level in w.chain:
                    lhs = [x for x, _ in level]
                    rhs = [y for _, y in level]
                    assert len(set(lhs)) == len(lhs) == len(set(rhs))
                for lower, upper in zip(w.chain, w.chain[1:]):
                    fmap = dict(lower)
                    for x, y in upper:
                        assert frozenset(fmap[m] for m in church3.members(x)) == \
                            frozenset(church3.members(y))


# -- the axiom cross-check suite ---------------------------------------------------------------

def test_cus_axioms_pass_on_church2(church3):
    rows = instances.check_cus_axioms(church3)
    assert all(ok for _, ok, _ in rows), [r for r in rows if not r[1]]


def test_cus_axioms_pass_on_church1_shallow():
    rows = instances.check_cus_axioms(built("church:1", 3))
    assert all(ok for _, ok, _ in rows), [r for r in rows if not r[1]]


def test_complement_law_by_hand(church3):
    # arguments are kept a stage below the top so their complements exist
    names = ids_by_render(church3)
    for a_name in ("{}", "{{}}", "*0{}"):
        a = names[a_name]
        comp = instances.widetap(church3, 0, a)
        for x in church3.ids():
            assert instances.varin(church3, x, a) != instances.varin(church3, x, comp)


def test_generalized_extensionality_by_hand(church3):
    ids = list(church3.ids())
    for a in ids:
        for b in ids:
            if a != b:
                assert any(instances.varin(church3, x, a)
                           != instances.varin(church3, x, b) for x in ids)


def test_rank_of_complement_strictly_larger(church3):
    for a in church3.ids():
        if church3.obj(a).is_bland and church3.obj(a).ordrank + 1 < church3.depth:
            t = universe.tap(church3, 0, a)
            assert t is not None
            assert church3.obj(a).ordrank < church3.obj(t).ordrank


def test_non_church_fragment_rejected(conway4):
    with pytest.raises(ValueError):
        instances.classify_kind(conway4, 0)


# -- expansive extensions against per-pair membership ------------------------------------------

def ref_varin(frag, x, a):
    """Expansive membership read pair by pair, with no memo."""
    kind = instances.classify_kind(frag, a)
    if kind.tag == "bland":
        return x in frag.obj(a).members
    if kind.tag == "tap_of_bland":
        if kind.n == 0:
            return not ref_varin(frag, x, kind.base)
        return instances.n_equiv_over(frag, x, kind.base, kind.n)
    return not instances.n_equiv_over(frag, x, kind.base, kind.n)


@pytest.mark.parametrize("name, depth", [("church:2", 3), ("church:1", 4)])
def test_varin_mask_matches_per_pair_reference(name, depth):
    frag = built(name, depth)
    ids = list(frag.ids())
    for a in ids:
        want = [x for x in ids if ref_varin(frag, x, a)]
        assert universe.mask_ids(instances.varin_mask(frag, a)) == want, a


def ref_varin_mask(frag, a):
    """The extension swept over every id, as before the key groups."""
    kind = instances.classify_kind(frag, a)
    if kind.tag == "bland":
        return universe.member_mask(frag, a)
    everything = (1 << len(frag)) - 1
    if kind.n == 0:
        return everything & ~universe.member_mask(frag, kind.base)
    hit = universe.ids_mask(x for x in frag.ids()
                            if instances.n_equiv_over(frag, x, kind.base, kind.n))
    return everything & ~hit if kind.tag == "comp_of_card" else hit


@pytest.mark.parametrize("name, depth", [("church:1", 3), ("church:1", 4),
                                         ("church:2", 3), ("church:2", 4)])
def test_varin_mask_matches_the_all_ids_sweep(name, depth):
    frag = built(name, depth)
    cardinals = 0
    for a in frag.ids():
        assert instances.varin_mask(frag, a) == ref_varin_mask(frag, a), a
        cardinals += bool(instances.classify_kind(frag, a).n)
    assert cardinals


def test_neq_key_is_kept_by_every_n_equivalence(church3):
    ids = list(church3.ids())
    held = {}
    for n in (1, 2, 3):
        keys = {a: instances._neq_key(church3, a, n) for a in ids}
        for a in ids:
            for b in ids:
                if instances.n_equiv_over(church3, a, b, n):
                    held[n] = held.get(n, 0) + 1
                    assert keys[a] is not None and keys[a] == keys[b], (n, a, b)
    assert held.keys() == {1, 2}  # no union chain of this depth is three levels long


@pytest.mark.parametrize("name, depth", [("church:2", 3), ("church:1", 4), ("church:2", 4)])
def test_neq_groups_are_the_ids_with_the_same_key(name, depth):
    # for n >= 2 a group is cut from the (n-1)-group of the first id asked
    frag = universe.build(universe.wandspec.get_spec(name), depth)
    ids = list(frag.ids())
    for n in (1, 2, 3):
        keys = [instances._neq_key(frag, x, n) for x in ids]
        for a in reversed(ids):
            want = [] if keys[a] is None else [x for x in ids if keys[x] == keys[a]]
            got = instances._neq_group(frag, a, n, frag.depth - 1)
            assert list(got) == want, (n, a)
            assert len(set(got)) == len(got), (n, a)


# -- Church's candidates against the scanning reference ------------------------------

def ref_church_spec(k):
    """``church_spec(k)`` with the raw E and the candidates from before the
    n-key groups: a complement's partners found by scanning every lower-stage
    object, and every bland set of the same size offered as a wand-m partner."""

    def comp_links_cardinal(q, a, n, b):
        # some d of lower stage than a, n-equivalent to b, has a = *0(*n d)
        ra = q.ordrank(a)
        for dd in q.objects_below(ra):
            if not instances.n_equiv_over(q, dd, b, n):
                continue
            t = q.resolve_tap(n, dd)
            if t is not None and q.ordrank(t) < ra and q.resolve_tap(0, t) == a:
                return True
        return False

    def comp_card_shape(q, a):
        # the first n for which a = *0(*n d), if a has that shape
        if q.is_bland(a):
            return None
        ra = q.ordrank(a)
        for dd in q.objects_below(ra):
            for n in range(1, k + 1):
                t = q.resolve_tap(n, dd)
                if t is not None and q.ordrank(t) < ra and q.resolve_tap(0, t) == a:
                    return n
        return None

    def e(m, a, n, b, q):
        if m == n and a == b:
            return True
        if 0 < m == n:
            return instances.n_equiv_over(q, a, b, m)
        if m == 0 and n > 0:
            return comp_links_cardinal(q, a, n, b)
        if n == 0 and m > 0:
            return comp_links_cardinal(q, b, m, a)
        return False

    def candidates(m, a, q, top):
        yield (m, a)
        others = q.objects_below(top + 1)
        if m == 0:
            n = comp_card_shape(q, a)
            if n is not None:
                for b in others:
                    yield (n, b)
            return
        size = len(q.members(a)) if q.is_bland(a) else 0
        if size:
            for b in others:
                if q.is_bland(b) and len(q.members(b)) == size:
                    yield (m, b)
        for b in others:
            if not q.is_bland(b):
                yield (0, b)

    return dataclasses.replace(instances.church_spec(k), raw_equiv=e,
                               equiv_candidates=candidates)


def assert_sweep_matches(spec, q, ref, q_ref, m):
    got, want = wandspec.classes(spec, q, m), wandspec.classes(ref, q_ref, m)
    assert list(got.label.items()) == list(want.label.items()), m
    assert list(got.degree.items()) == list(want.degree.items()), m
    assert (got.broken, got.violations) == (want.broken, want.violations), m
    assert wandspec.partition(spec, q, m) == wandspec.partition(ref, q_ref, m), m


def assert_sweeps_match_reference(k, depth, make):
    # each spec sweeps a query of its own, so no table is shared
    spec, ref = instances.church_spec(k), ref_church_spec(k)
    q, q_ref = make(spec, depth), make(ref, depth)
    for m in range(depth):
        assert_sweep_matches(spec, q, ref, q_ref, m)


MAKERS = {"fragment": universe.build, "stages": conch.gen_stages}


@pytest.mark.parametrize("k, depth, kind", [
    (1, 3, "fragment"), (1, 3, "stages"), (2, 3, "fragment"), (2, 3, "stages"),
    (1, 4, "fragment"), (1, 4, "stages")])
def test_church_sweeps_match_the_scanning_reference(k, depth, kind):
    assert_sweeps_match_reference(k, depth, MAKERS[kind])


def test_church2_depth4_sweeps_match_the_scanning_reference_in_fewer_probes(monkeypatch):
    # the reference rank-3 sweep takes seconds here, so only the fragment runs
    probes, searches = [0], [0]
    church = instances.church_spec(2)
    search = instances._n_equiv_search

    def counted_e(*args):
        probes[0] += 1
        return church.raw_equiv(*args)

    def counted_search(*args):
        searches[0] += 1
        return search(*args)

    spec = dataclasses.replace(church, raw_equiv=counted_e)
    ref = ref_church_spec(2)
    frag, frag_ref = universe.build(spec, 4), universe.build(ref, 4)
    for m in range(3):
        assert_sweep_matches(spec, frag, ref, frag_ref, m)
    probes[0] = 0
    monkeypatch.setattr(instances, "_n_equiv_search", counted_search)
    wandspec.classes(spec, frag, 3)
    # the scanning candidates made 1,472,629 probes and needed 725,948
    # n-equivalence answers
    assert probes[0] <= 720_000
    assert searches[0] <= 2_000
    monkeypatch.undo()
    assert_sweep_matches(spec, frag, ref, frag_ref, 3)


def test_a_lost_group_partner_fails_the_reference_comparison(monkeypatch):
    group = instances._neq_group

    def lossy(q, a, n, top):
        got = group(q, a, n, top)
        return got[:-1] if len(got) >= 2 else got

    monkeypatch.setattr(instances, "_neq_group", lossy)
    with pytest.raises(AssertionError):
        assert_sweeps_match_reference(2, 3, universe.build)


def test_varin_mask_rejects_non_church(conway4):
    with pytest.raises(ValueError):
        instances.varin_mask(conway4, 0)


CUS_ROWS = ["complement-injective", "double-complement-identity", "cardinal-identity-law",
            "cardinals-not-complements", "making-biconditional", "kind-taxonomy-total",
            "complement-law", "generalized-extensionality", "complement-raises-rank"]


def test_cus_rows_on_church3(church3):
    assert instances.check_cus_axioms(church3) == [(name, True, "[]") for name in CUS_ROWS]


# Planted faults, one or more per row, each in a fresh church:2 depth-3 build
# (safe ids 0, 1, 2; *0{} is 2, *1{{}} is 10), by monkeypatching a query the
# checks ask.

def answers(name, fn, module=instances):
    return lambda frag, mp: mp.setattr(module, name, fn)


def kind_of_the_empty_set_undecided(frag, mp):
    masks = {a: instances.varin_mask(frag, a) for a in frag.ids()}  # read before the fault
    real = instances.classify_kind

    def classify(f, a):
        if a == 0:
            raise TaxonomyViolation("planted")
        return real(f, a)

    mp.setattr(instances, "varin_mask", lambda f, a: masks[a])
    mp.setattr(instances, "classify_kind", classify)


CUS_FAULTS = [
    ("complement-injective", answers("tap", lambda f, w, a: 2, universe), "[(0, 1)]"),
    ("double-complement-identity", answers("tap", lambda f, w, a: 0, universe), "[1]"),
    ("cardinal-identity-law", answers("n_equiv_over", lambda f, a, b, n: False),
     "[(1, 1, 1, 1)]"),
    ("cardinals-not-complements",
     answers("classify_kind", lambda f, a: instances.CusKind("bland")), "[(1, 1)]"),
    ("making-biconditional", answers("n_equiv_over", lambda f, a, b, n: False), "[(1, 1)]"),
    ("kind-taxonomy-total", kind_of_the_empty_set_undecided, "[(0, 'planted')]"),
    ("complement-law", answers("varin_mask", lambda f, a: 0), "[(0, 0)]"),
    ("generalized-extensionality", answers("varin_mask", lambda f, a: 0), "[(0, 1)]"),
    ("complement-raises-rank", answers("tap", lambda f, w, a: a, universe), "[0]"),
]


def test_every_cus_row_has_a_planted_fault():
    assert [row for row, _, _ in CUS_FAULTS] == CUS_ROWS


@pytest.mark.parametrize("row, fault, witness", CUS_FAULTS, ids=CUS_ROWS)
def test_cus_rows_report_a_planted_fault(monkeypatch, row, fault, witness):
    frag = universe.build(wandspec.get_spec("church:2"), 3)
    fault(frag, monkeypatch)
    rows = {name: (ok, got) for name, ok, got in instances.check_cus_axioms(frag)}
    assert rows[row] == (False, witness)


def ref_extension_rows(frag):
    """The per-pair sweeps that the extension masks replaced."""
    varin, widetap = instances.varin, instances.widetap
    ids = list(frag.ids())
    safe = [a for a in ids if frag.obj(a).ordrank + 1 < frag.depth]
    comp = [(x, a) for a in safe for x in ids
            if widetap(frag, 0, a) is not None
            and varin(frag, x, a) == varin(frag, x, widetap(frag, 0, a))]
    ext = []
    for a in ids:
        for b in ids:
            if a < b and all(varin(frag, x, a) == varin(frag, x, b) for x in ids):
                ext.append((a, b))
    return {"complement-law": (not comp, f"{comp[:1]}"),
            "generalized-extensionality": (not ext, f"{ext[:1]}")}


def _no_complements(frag, x, a):
    # expansive membership with every tapped object read as empty
    return x in (frag.obj(a).members or ())


def _complements_only(frag, x, a):
    # every tapped object read as the complement of its base's members
    kind = instances.classify_kind(frag, a)
    if kind.tag == "bland":
        return x in frag.obj(a).members
    return x not in frag.obj(kind.base).members


def _flipped(frag, x, a):
    # scattered errors, so the first witness depends on the sweep order
    return ref_varin(frag, x, a) != ((x + a) % 3 == 1)


def _merged(frag, x, a):
    # 5 reads as 0 and 2 as 1, so the witness pairs (0, 5) and (1, 2) sort
    # differently by first and by second element
    return ref_varin(frag, x, {5: 0, 2: 1}.get(a, a))


@pytest.mark.parametrize("fault", [None, _no_complements, _complements_only, _flipped,
                                   _merged])
def test_extension_rows_match_per_pair_sweeps(monkeypatch, fault):
    frag = universe.build(universe.wandspec.get_spec("church:2"), 3)
    if fault is not None:
        # varin reads its answers off the extension masks
        monkeypatch.setattr(instances, "varin_mask", lambda frag, a: universe.ids_mask(
            x for x in frag.ids() if fault(frag, x, a)))
    want = ref_extension_rows(frag)
    assert fault is None or not all(ok for ok, _ in want.values())
    got = {name: (ok, witness)
           for name, ok, witness in instances.check_cus_axioms(frag)}
    for name, row in want.items():
        assert got[name] == row, name
