"""The shipped wand/set theory instances and the Church-universe apparatus.

Instances: the pure theory (no wands), Conway games, hereditary partial
functions, multisets, and the Church universal-set family ``church:<k>``
whose wands are complement (0) and one cardinality wand per positive n <= k.
The Church half also carries n-equivalence, the expansive membership
relation, the kind taxonomy, widened tapping, and the axiom cross-check
suite.
"""

from __future__ import annotations

import weakref
from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from . import universe, wandspec
from .errors import SpecError, TaxonomyViolation
from .pureset import deep_carrier, vn
from .universe import Fragment
from .wandspec import SetQuery, WandId, WandSpec


def _wand_ids(count: int) -> Tuple[WandId, ...]:
    # wand i is designated by the i-th von Neumann natural
    return tuple(WandId(i, deep_carrier(vn(i))) for i in range(count))


def _identity_equiv(w: int, a, u: int, b, q: SetQuery) -> bool:
    return w == u and a == b


def _self_candidates(w: int, a, q: SetQuery, top: int):
    return ((w, a),)


# -- decoding helpers over the query interface ---------------------------------

def pair_decode(q: SetQuery, h) -> Optional[Tuple[object, object]]:
    """Read ``h`` as a Kuratowski pair of universe objects, if it is one."""
    if not q.is_bland(h):
        return None
    ms = q.members(h)
    if len(ms) == 1:
        inner = q.members(ms[0])
        if q.is_bland(ms[0]) and len(inner) == 1:
            return inner[0], inner[0]
        return None
    if len(ms) != 2:
        return None
    fst, snd = ms
    if not (q.is_bland(fst) and q.is_bland(snd)):
        return None
    small, big = sorted((q.members(fst), q.members(snd)), key=len)
    if len(small) != 1 or len(big) != 2:
        return None
    (a,) = small
    if a not in big:
        return None
    b = big[0] if big[1] == a else big[1]
    return a, b


def graph_decode(q: SetQuery, h) -> Optional[List[Tuple[object, object]]]:
    """Read ``h`` as a single-valued set of pairs (a function graph)."""
    if not q.is_bland(h):
        return None
    seen: Dict[object, object] = {}  # distinct members decode to distinct pairs
    for m in q.members(h):
        p = pair_decode(q, m)
        if p is None or seen.setdefault(*p) != p[1]:
            return None
    return list(seen.items())


def vn_decode(q: SetQuery, h) -> Optional[int]:
    """Read ``h`` as a von Neumann natural."""
    if not q.is_bland(h):
        return None
    ms = q.members(h)
    vals = set()
    for m in ms:
        v = vn_decode(q, m)
        if v is None:
            return None
        vals.add(v)
    return len(ms) if vals == set(range(len(ms))) else None


# -- simple specs ---------------------------------------------------------------

def pure_spec() -> WandSpec:
    """The wandless theory: the plain cumulative hierarchy."""
    return WandSpec(
        name="pure",
        wands=(),
        raw_dom=lambda w, a, q: False,
        raw_equiv=lambda w, a, u, b, q: False,
    )


def conway_spec() -> WandSpec:
    """One wand acting on coded pairs <a, b> of bland sets with b nonempty.

    A game is identified by its pair: raw E is identity.  The courtesy case
    <a, empty> is excluded from the domain (such a pair already *is* the
    game a, read as the bland set of its left options).
    """

    def d(w: int, x, q: SetQuery) -> bool:
        p = pair_decode(q, x)
        if p is None:
            return False
        a, b = p
        return q.is_bland(a) and q.is_bland(b) and bool(q.members(b))

    return WandSpec(name="conway", wands=_wand_ids(1),
                    raw_dom=d, raw_equiv=_identity_equiv,
                    equiv_candidates=_self_candidates)


def partial_fun_spec() -> WandSpec:
    """One wand acting on function graphs that are not identity graphs.

    By courtesy a bland set a is the identity function on a's members, so
    tapping an identity graph would duplicate an existing object.
    """

    def d(w: int, g, q: SetQuery) -> bool:
        pairs = graph_decode(q, g)
        if pairs is None:
            return False
        return any(x != y for x, y in pairs)

    return WandSpec(name="partial-fun", wands=_wand_ids(1),
                    raw_dom=d, raw_equiv=_identity_equiv,
                    equiv_candidates=_self_candidates)


def multiset_spec() -> WandSpec:
    """Like partial functions, but values are nonzero counts and graphs whose
    counts are all 1 are excluded (a bland set already is the multiset with
    one copy of each member)."""

    def d(w: int, g, q: SetQuery) -> bool:
        pairs = graph_decode(q, g)
        if pairs is None:
            return False
        counts = []
        for _, y in pairs:
            v = vn_decode(q, y)
            if v is None or v == 0:
                return False
            counts.append(v)
        return any(v != 1 for v in counts)

    return WandSpec(name="multiset", wands=_wand_ids(1),
                    raw_dom=d, raw_equiv=_identity_equiv,
                    equiv_candidates=_self_candidates)


# -- n-equivalence --------------------------------------------------------------

def _union_chain(q: SetQuery, a, n: int) -> Optional[List[Tuple]]:
    """[a, union a, ..., union^(n-1) a] with the non-emptiness and, below the
    top, all-members-bland requirements; None when they fail."""
    levels = [tuple(q.members(a))] if q.is_bland(a) else [()]
    if not levels[0]:
        return None
    for i in range(n - 1):
        cur = levels[i]
        if any(not q.is_bland(x) for x in cur):
            return None
        if not (nxt := tuple(dict.fromkeys(y for x in cur for y in q.members(x)))):
            return None
        levels.append(nxt)
    return levels


def n_equiv_over(q: SetQuery, a, b, n: int) -> bool:
    """Whether ``a`` and ``b`` are n-equivalent over the query ``q``.

    For n = 1 any pairing of two equinumerous nonempty bland sets works, so
    the sizes answer and nothing is cached.  For n >= 2 the search runs over
    bijections of the deepest unions, induced upward and pruned by container
    degree.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if n == 1:
        ma = q.members(a) if q.is_bland(a) else ()
        mb = q.members(b) if q.is_bland(b) else ()
        return len(ma) > 0 and len(ma) == len(mb)
    return _n_equiv_search(q, a, b, n)


def _neq_key(q: SetQuery, a, n: int) -> Optional[tuple]:
    # what every n-equivalence witness keeps: the union chain's level sizes and
    # the member counts at each level above the bottom; None when the chain fails
    chain = _union_chain(q, a, n)
    return chain and (tuple(map(len, chain)),
                      *[tuple(sorted(map(len, map(q.members, lvl)))) for lvl in chain[:-1]])


# The n-key groups of each query by (n, top, population below top + 1), each
# group in objects_below order: a query's table goes with it, and growth below
# top + 1 makes a new key.
_NEQ_GROUPS: weakref.WeakKeyDictionary[SetQuery, Dict[tuple, Dict[tuple, list]]]
_NEQ_GROUPS = weakref.WeakKeyDictionary()


def _neq_group(q: SetQuery, a, n: int, top: int) -> list:
    """The handles of rank <= ``top`` sharing ``a``'s n-key, a superset of
    those n-equivalent to it, in ``objects_below`` order; ``a`` itself must
    rank at most ``top``.  For n >= 2 the group is cut from ``a``'s
    (n-1)-group, as the n-key fixes the (n-1)-key."""
    key = _neq_key(q, a, n)
    below = q.objects_below(top + 1)
    groups = _NEQ_GROUPS.setdefault(q, {}).setdefault((n, top, len(below)), {})
    if key is not None and key not in groups:
        for x in below if n == 1 else _neq_group(q, a, n - 1, top):
            if (kx := _neq_key(q, x, n)) is not None:
                groups.setdefault(kx, []).append(x)
    return groups.get(key, [])


def _induce(q: SetQuery, fmap: Dict, level: Sequence, target: Sequence) -> Optional[Dict]:
    """Lift a bijection one level up: x maps to {fmap[y] : y in x}."""
    target_index: Dict[frozenset, object] = {}
    for t in target:
        target_index.setdefault(frozenset(q.members(t)), t)
    out: Dict = {}
    used = set()
    for x in level:
        image = frozenset(fmap[y] for y in q.members(x))
        t = target_index.get(image)
        if t is None or t in used:
            return None
        out[x] = t
        used.add(t)
    return out if len(used) == len(target) else None


def _n_equiv_search(q: SetQuery, a, b, n: int) -> bool:
    ua = _union_chain(q, a, n)
    ub = _union_chain(q, b, n)
    if ua is None or ub is None or any(len(x) != len(y) for x, y in zip(ua, ub)):
        return False
    if a == b:  # the identity chain; an empty or non-bland a failed above
        return True

    # Sound pruning for the bottom bijection: container degree is preserved
    # (an induced container bijection forces it); the members of bottom-level
    # elements are not part of the witness, so their sizes must NOT be used.
    deg_a = Counter(x for c in ua[-2] for x in q.members(c))
    deg_b = Counter(y for c in ub[-2] for y in q.members(c))
    cands = {x: [y for y in ub[-1] if deg_b[y] == deg_a[x]] for x in ua[-1]}
    slots = sorted(ua[-1], key=lambda x: len(cands[x]))
    bottom: Dict = {}
    used = set()

    def extend(i: int) -> bool:
        # fill slots i.. of the bottom bijection; at a full one, lift it
        if i == len(slots):
            fmap = bottom
            for lvl in range(n - 2, -1, -1):
                if (fmap := _induce(q, fmap, ua[lvl], ub[lvl])) is None:
                    return False
            return True
        x = slots[i]
        for y in cands[x]:
            if y not in used:
                bottom[x] = y
                used.add(y)
                if extend(i + 1):
                    return True
                used.remove(y)
        return False

    return extend(0)


# -- the Church family ------------------------------------------------------------

def church_spec(k: int) -> WandSpec:
    """Wands 0..k: 0 is complement, each n>0 is the n-cardinality wand.

    D: complement acts on anything that is not already the complement of a
    bland set found earlier; cardinality n acts on anything n-equivalent to
    itself.  E identifies same-n cardinals of n-equivalent sets and links a
    complement with a cardinal when the complemented object is itself that
    cardinal (with stage guards on the existential witnesses).
    """
    if k < 0:
        raise SpecError(f"k must be >= 0, not {k}")

    def d(n: int, a, q: SetQuery) -> bool:
        if n == 0:
            return not any(q.is_bland(x) and q.resolve_tap(0, x) == a
                           for x in q.objects_below(q.ordrank(a)))
        return n_equiv_over(q, a, a, n)

    def e(m: int, a, n: int, b, q: SetQuery) -> bool:
        if m == n and a == b:
            return True
        if 0 < m == n:
            return n_equiv_over(q, a, b, m)
        if m == 0 and n > 0:
            return any(c == n and n_equiv_over(q, d, b, n) for c, d in _comp_cards(q, a))
        if n == 0 and m > 0:
            return any(c == m and n_equiv_over(q, d, a, m) for c, d in _comp_cards(q, b))
        return False

    def _comp_cards(q: SetQuery, a):
        # every (n, d) with a = *0(*n d) and d of lower stage than a; the rank
        # guard mirrors the stage guard in the raw clauses, so every tap
        # resolved here was already formed
        ra = q.ordrank(a)
        for d in q.objects_below(ra):
            for n in range(1, k + 1):
                t = q.resolve_tap(n, d)
                if t is not None and q.ordrank(t) < ra and q.resolve_tap(0, t) == a:
                    yield n, d

    def candidates(m: int, a, q: SetQuery, top: int):
        # sound superset of raw-E partners of (m, a) up to rank `top`: the
        # cardinals n-equivalent to a complement's base, or a's m-group and
        # the complements *0(*m b) of its members, each tap ranked below `top`
        yield (m, a)
        if m == 0:
            for n, d in _comp_cards(q, a):
                for b in _neq_group(q, d, n, top):
                    yield (n, b)
            return
        group = _neq_group(q, a, m, top)
        for b in group:
            yield (m, b)
        for b in group:
            t = q.resolve_tap(m, b) if q.ordrank(b) < top else None
            if t is not None and q.ordrank(t) < top and (c := q.resolve_tap(0, t)) is not None:
                yield (0, c)

    return WandSpec(name=f"church:{k}", wands=_wand_ids(k + 1),
                    raw_dom=d, raw_equiv=e, equiv_candidates=candidates)


# -- kinds, expansive membership, widened taps ------------------------------------

@dataclass(frozen=True)
class CusKind:
    """Which of the three universe kinds an object falls under."""

    tag: str  # "bland" | "tap_of_bland" | "comp_of_card"
    n: Optional[int] = None
    base: Optional[int] = None


def is_church(spec: WandSpec) -> bool:
    """Whether ``spec`` is one of the Church family ``church:<k>``."""
    return spec.name.startswith("church:")


def _require_church(frag: Fragment) -> int:
    if not is_church(frag.spec):
        raise ValueError(f"operation requires a church fragment, got {frag.spec.name}")
    return int(frag.spec.name.split(":")[1])


def classify_kind(frag: Fragment, a: int) -> CusKind:
    """Each object is bland, the n-tap of a bland set, or the complement of a
    cardinal; the classifying n is unique."""
    hit = frag.kinds.get(a)
    if hit is None:
        _require_church(frag)
        hit = frag.kinds[a] = _classify_kind(frag, a)
    return hit


def _classify_kind(frag: Fragment, a: int) -> CusKind:
    o = frag.obj(a)
    if o.is_bland:
        return CusKind("bland")
    bland_pairs = [(w, b) for w, b in o.tclass if frag.is_bland(b)]
    if bland_pairs:
        w, b = bland_pairs[0]
        others = {w2 for w2, b2 in bland_pairs}
        if len(others) > 1:
            raise TaxonomyViolation(f"object {a} taps blands with wands {others}")
        return CusKind("tap_of_bland", w, b)
    # all class members are complements (wand 0) of non-bland arguments
    for w, x in o.tclass:
        if w != 0:
            raise TaxonomyViolation(f"object {a}: non-complement tap of non-bland")
        inner = classify_kind(frag, x)
        if inner.tag == "tap_of_bland" and inner.n and inner.n > 0:
            return CusKind("comp_of_card", inner.n, inner.base)
    raise TaxonomyViolation(f"object {a} fits no kind")


def varin(frag: Fragment, x: int, a: int) -> bool:
    """Expansive membership: ordinary membership for bland sets, complement
    membership for complements, n-equivalence for cardinals."""
    return bool(varin_mask(frag, a) >> x & 1)


def varin_mask(frag: Fragment, a: int) -> int:
    """The expansive extension of ``a`` as a bitmask over ids: its member
    mask when it is bland, else one sweep over the fragment (over the base's
    n-equivalence key group for a cardinal), memoised with the masks."""
    kind = classify_kind(frag, a)
    if kind.tag == "bland":
        return universe.member_mask(frag, a)
    memo = universe._masks(frag).varin
    hit = memo.get(a)
    if hit is None:
        everything = (1 << len(frag)) - 1
        if kind.n == 0:
            hit = everything & ~universe.member_mask(frag, kind.base)
        else:
            # no rank reaches the object count, so this top takes in every id
            group = _neq_group(frag, kind.base, kind.n, len(frag) - 1)
            hit = universe.ids_mask(x for x in group
                                    if n_equiv_over(frag, x, kind.base, kind.n))
            if kind.tag == "comp_of_card":
                hit = everything & ~hit
        memo[a] = hit
    return hit


def widetap(frag: Fragment, n: int, a: int) -> Optional[int]:
    """Tap, extended so that complementing the complement of a bland set
    yields the set back."""
    got = universe.tap(frag, n, a)
    if got is not None:
        return got
    if n != 0:
        return None
    kind = classify_kind(frag, a)
    if kind.tag == "tap_of_bland" and kind.n == 0:
        return kind.base
    return None


# -- the axiom cross-check suite ---------------------------------------------------

def check_cus_axioms(frag: Fragment) -> List[Tuple[str, bool, str]]:
    """Verify the bespoke universal-set axioms on a church fragment; returns
    (law name, passed, witness) rows.

    Covers: complement injectivity, double-complement identity, the
    cardinality identity law, separation of cardinal wands, cardinals never
    being complements, the domain-of-action biconditional, the kind
    taxonomy, the complement law for expansive membership, and generalized
    extensionality.
    """
    k = _require_church(frag)
    checks: List[Tuple[str, bool, str]] = []
    ids = list(frag.ids())
    safe = frag.safe_ids()
    taps = {}
    for a in safe:
        for n in range(k + 1):
            taps[(n, a)] = universe.tap(frag, n, a)

    def add(name: str, ok: bool, witness: str = "") -> None:
        checks.append((name, ok, witness))

    # complement is injective
    bad = [(a, b) for a in safe for b in safe
           if a != b and taps[(0, a)] is not None and taps[(0, a)] == taps[(0, b)]]
    add("complement-injective", not bad, f"{bad[:1]}")

    # double complement returns the object (where the inner tap exists)
    bad = []
    for a in safe:
        t = taps[(0, a)]
        if t is None or t not in safe:
            continue
        tt = universe.tap(frag, 0, t)
        if tt is not None and tt != a:
            bad.append(a)
    add("double-complement-identity", not bad, f"{bad[:1]}")

    # same cardinal iff same n and n-equivalent
    bad = []
    for n in range(1, k + 1):
        for m in range(1, k + 1):
            for a in safe:
                for b in safe:
                    ta, tb = taps[(n, a)], taps[(m, b)]
                    if ta is None or tb is None:
                        continue
                    same = ta == tb
                    law = (n == m) and n_equiv_over(frag, a, b, n)
                    if same != law:
                        bad.append((n, a, m, b))
    add("cardinal-identity-law", not bad, f"{bad[:1]}")

    # no cardinal is a complement of a bland set or of a cardinal
    bad = []
    for n in range(1, k + 1):
        for a in safe:
            t = taps[(n, a)]
            if t is None:
                continue
            kind = classify_kind(frag, t)
            if not (kind.tag == "tap_of_bland" and kind.n == n):
                bad.append((n, a))
    add("cardinals-not-complements", not bad, f"{bad[:1]}")

    # domain-of-action biconditional
    bad = []
    for a in safe:
        for n in range(k + 1):
            if n == 0:
                expected = not any(
                    frag.is_bland(x) and frag.resolve_tap(0, x) == a
                    for x in frag.objects_below(frag.ordrank(a)))
            else:
                expected = n_equiv_over(frag, a, a, n)
            if (taps[(n, a)] is not None) != expected:
                bad.append((n, a))
    add("making-biconditional", not bad, f"{bad[:1]}")

    # kinds are total with unique n (classify raises on violation)
    bad = []
    for a in ids:
        try:
            classify_kind(frag, a)
        except TaxonomyViolation as exc:
            bad.append((a, str(exc)))
    add("kind-taxonomy-total", not bad, f"{bad[:1]}")

    # complement law for expansive membership: no x is in both or neither
    ext = [varin_mask(frag, a) for a in ids]
    everything = (1 << len(frag)) - 1
    bad = []
    for a in safe:
        t = widetap(frag, 0, a)
        if t is not None:
            bad += [(x, a) for x in universe.mask_ids(everything & ~(ext[a] ^ ext[t]))]
    add("complement-law", not bad, f"{bad[:1]}")

    # generalized extensionality over the fragment: no two share an extension
    sharing: Dict[int, List[int]] = {}
    for a in ids:
        sharing.setdefault(ext[a], []).append(a)
    bad = [(a, b) for a in ids for b in sharing[ext[a]] if a < b]
    add("generalized-extensionality", not bad, f"{bad[:1]}")

    # bland sets sit strictly below their complements
    bad = []
    for a in safe:
        if frag.obj(a).is_bland and taps[(0, a)] is not None:
            if not frag.obj(a).ordrank < frag.obj(taps[(0, a)]).ordrank:
                bad.append(a)
    add("complement-raises-rank", not bad, f"{bad[:1]}")

    return checks


# -- registry wiring -----------------------------------------------------------

wandspec.register("pure", pure_spec)
wandspec.register("conway", conway_spec)
wandspec.register("partial-fun", partial_fun_spec)
wandspec.register("multiset", multiset_spec)
wandspec.register("church", church_spec)
