"""Pure-set stage encodings and the two synonymy witness maps.

A stage-sigma universe code ("conch") is either the carrier of a set of
earlier conches (a bland code) or a tap class: the set of pairs
<wand code, argument conch> for all minimal-rank equivalent taps.  Stages are
generated with the same raw D/E predicates as fragment builds, which the
stages answer the set queries of themselves, so a fragment and its stage
encoding can be compared bit for bit: the structural recoding of the
fragment's rank-<=sigma objects must equal stage sigma exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from . import universe, wandspec
from .errors import BeyondFragment, CapExceeded, NotAConch, NotAPair
from .pureset import (PureSet, _intern, acyclic, carrier, deep_carrier, in_carrier_levels,
                      is_carrier, kpair, kunpair, lt_levels, mk_set, rank, subsets, uncarrier)
from .universe import Fragment
from .wandspec import WandSpec

_BEYOND = object()  # a memoised tap above the last stage


@dataclass(frozen=True)
class ConchStage:
    """One stage: its conches, the earlier ones, and the order found.  Its
    relations are the stages' own query answers (``wandspec.dom`` and
    ``wandspec.partition`` over :class:`Stages`)."""

    sigma: int
    conches: FrozenSet[PureSet]          # everything of stage rank <= sigma
    below: FrozenSet[PureSet]            # the previous stage's conches
    ranked: Tuple[PureSet, ...]          # the conches in the order found


@dataclass(eq=False)
class Stages:
    """A run of stage generation: conches by rank, in the order found.  It
    answers the set queries of :class:`wandspec.SetQuery` with conches as
    handles, and compares by identity, so the query tables weakly keyed by
    it go with it.  ``wand_of`` maps each wand code to its wand index."""

    spec: WandSpec
    depth: int
    wandcodes: Tuple[PureSet, ...]
    wand_of: Dict[PureSet, int] = field(repr=False)
    stages: List[ConchStage] = field(default_factory=list)
    conchrank: Dict[PureSet, int] = field(default_factory=dict)
    _taps: Dict[Tuple[int, PureSet], Optional[PureSet]] = field(default_factory=dict)

    def ranked(self, top: int) -> Tuple[PureSet, ...]:
        """All conches of stage rank <= top, in the order the stages found
        them; a ``top`` past the last stage reads the last stage."""
        if top < 0:
            return ()
        return self.stages[min(top, len(self.stages) - 1)].ranked

    def class_code(self, cls: Sequence[Tuple[int, PureSet]]) -> PureSet:
        """The pure set coding a tap class: {<wand code, argument>...}."""
        return mk_set(kpair(self.wandcodes[w], b) for w, b in cls)

    def is_bland(self, h: PureSet) -> bool:
        return is_carrier(h)

    def members(self, h: PureSet) -> Tuple[PureSet, ...]:
        return uncarrier(h).elements if is_carrier(h) else ()

    def ordrank(self, h: PureSet) -> int:
        """Least stage at which the conch ``h`` occurs."""
        got = self.conchrank.get(h)
        if got is None:
            raise NotAConch(repr(h))
        return got

    def resolve_tap(self, w: int, h: PureSet) -> Optional[PureSet]:
        """The code of the tap of ``h`` by wand ``w``, or None outside the
        domain.  A class whose arguments rank depth - 1 would code a conch
        above the last stage: that raises BeyondFragment, as a fragment's
        unregistered tap does, before the class is coded."""
        key = (w, h)
        if key not in self._taps:
            cls = wandspec.tap_class(self.spec, w, h, self)
            if cls is not None and self.ordrank(cls[0][1]) + 1 >= self.depth:
                self._taps[key] = _BEYOND
            else:
                self._taps[key] = None if cls is None else self.class_code(cls)
        got = self._taps[key]
        if got is _BEYOND:
            raise BeyondFragment(f"tap of wand {w} on rank-{self.ordrank(h)} conch")
        return got

    def objects_below(self, r: int) -> Tuple[PureSet, ...]:
        return self.ranked(r - 1)

    def omega(self) -> int:
        """Largest wand code rank (0 when there are no wands)."""
        return max((rank(c) for c in self.wandcodes), default=0)

    def rank_bound_slack(self) -> List[Tuple[int, int, int]]:
        """Per stage: (sigma, measured rank of the stage set, bound)."""
        out = []
        for st in self.stages:
            measured = 1 + max(map(rank, st.conches))  # stage 0 holds carrier(EMPTY)
            out.append((st.sigma, measured, self.omega() + 4 * st.sigma + 4))
        return out


@acyclic()
def gen_stages(spec: WandSpec, depth: int, max_width: int = 20) -> Stages:
    """Generate stages 0..depth-1 of the conch universe for ``spec``.

    Stage sigma appends to the earlier conches the new carriers of their
    subsets, in mask order over their canonical sort, then the tap classes
    formed at sigma - 1 in the order the tap sweep found them; tap classes
    are read off the stage's relations exactly as in a fragment build.
    """
    codes = tuple(w.code for w in spec.wands)
    st = Stages(spec=spec, depth=depth, wandcodes=codes,
                wand_of={c: i for i, c in enumerate(codes)})

    found: Tuple[PureSet, ...] = ()
    below: FrozenSet[PureSet] = frozenset()
    pending_taps: List[PureSet] = []   # classes formed at the previous stage
    for sigma in range(depth):
        if len(found) > max_width:
            raise CapExceeded(
                f"stage {sigma}: 2**{len(found)} carriers exceed width {max_width}")
        spread = sorted(found, key=PureSet.sort_key)  # canonical, as _intern needs
        new = [c for c in map(carrier, map(_intern, subsets(spread))) if c not in below]
        new += pending_taps
        st.conchrank.update(dict.fromkeys(new, sigma))
        found += tuple(new)
        st.stages.append(ConchStage(sigma=sigma, conches=frozenset(found), below=below,
                                    ranked=found))
        below = st.stages[-1].conches

        # tap classes whose minimal argument rank is sigma become the
        # non-bland conches of the next stage
        pending_taps = []
        if sigma + 1 < depth:
            seen = set()
            for a in new:
                for w in spec.wand_indices():
                    cls = wandspec.tap_class(spec, w, a, st)
                    if cls is None:
                        continue
                    if any(st.ordrank(b) != sigma for _, b in cls):
                        continue  # equivalent to an earlier tap; not new here
                    code = st.class_code(cls)
                    if code not in seen:
                        seen.add(code)
                        pending_taps.append(code)
    return st


def check_stage_laws(stages: Stages) -> List[str]:
    """Structural laws of the generated stages; returns violations.

    Every conch is a carrier of conches or a nonempty minimal-rank tap class
    (never both); tap classes sit one rank above their arguments and
    regenerate themselves from any member; bland codes rank as the strict
    sup of their members' ranks; stages are cumulative; and a conch ranks
    at or below alpha exactly when it is found from stage alpha's earlier
    conches.  The relations need no law across stages: every stage reads
    the one query, whose class partitions restrict from rank to rank.
    """
    bad: List[str] = []
    spec = stages.spec

    # stages are cumulative: each stage's "below" is exactly the union of
    # the earlier stages, and stage contents grow monotonically
    running: set = set()
    for st in stages.stages:
        if st.below != frozenset(running):
            bad.append(f"stage {st.sigma} earlier-contents mismatch")
        if not st.below <= st.conches:
            bad.append(f"stage {st.sigma} not monotone")
        running |= st.conches

    for c in stages.ranked(stages.depth - 1):
        r = stages.conchrank[c]
        if is_carrier(c):
            inner = uncarrier(c)
            if any(x not in stages.conchrank for x in inner):
                bad.append(f"carrier at rank {r} holds a non-conch")
                continue
            sup = max((stages.ordrank(x) + 1 for x in inner), default=0)
            if sup != r:
                bad.append(f"carrier rank {r} != member sup {sup}")
            continue
        # a tap class
        if not len(c):
            bad.append("empty non-carrier conch")
            continue
        try:
            pairs = [kunpair(p) for p in c]
        except NotAPair:
            bad.append(f"non-carrier conch at rank {r} is not a set of pairs")
            continue
        args = []
        for wcode, b in pairs:
            if wcode not in stages.wand_of or b not in stages.conchrank:
                bad.append(f"tap class member at rank {r} malformed")
                continue
            args.append((stages.wand_of[wcode], b))
        ranks = {stages.ordrank(b) for _, b in args}
        if len(ranks) != 1 or ranks.pop() + 1 != r:
            bad.append(f"tap class rank law broken at rank {r}")
        for w, b in args:
            if not wandspec.dom(spec, w, b, stages):
                bad.append(f"tap class member outside domain at rank {r}")
            cls = wandspec.tap_class(spec, w, b, stages)
            if cls is None or stages.class_code(cls) != c:
                bad.append(f"tap class does not regenerate from a member at rank {r}")

    # found-at reading: rank <= alpha iff found from the alpha-stage's
    # earlier conches
    for alpha in range(stages.depth):
        for c in stages.ranked(stages.depth - 1):
            lhs = stages.ordrank(c) <= alpha
            rhs = _found_at_code(stages, c, alpha)
            if lhs != rhs:
                bad.append(f"found-at mismatch at stage {alpha}")
                break
    return bad


def _found_at_code(stages: Stages, c: PureSet, alpha: int) -> bool:
    """Whether ``c`` is a carrier of, or a tap of, conches below stage alpha."""
    if is_carrier(c):
        return all(x in stages.stages[alpha].below for x in uncarrier(c))
    return any(stages.resolve_tap(w, b) == c for b in stages.ranked(alpha - 1)
               for w in stages.spec.wand_indices())


# -- the structural recoding of a fragment -------------------------------------

def conch_code(frag: Fragment, a: int) -> PureSet:
    """The canonical pure-set code of a fragment object.

    Bland objects become carriers of their members' codes; tapped objects
    become the set of <wand code, argument code> pairs of their class.
    Codes are memoised per id in ``Fragment.conch_codes``: a registered
    object never changes.
    """
    return _conch_code(frag, a)


def _conch_code(frag: Fragment, a: int) -> PureSet:
    memo = frag.conch_codes
    got = memo.get(a)
    if got is None:
        o = frag.obj(a)
        if o.is_bland:  # members sorted by their codes' order: canonical as is
            pos = _code_positions(frag, o.ordrank)
            got = carrier(_intern(tuple(map(
                memo.__getitem__, sorted(o.members, key=pos.__getitem__)))))
        else:
            codes = frag.spec.wands
            got = mk_set(kpair(codes[w].code, _conch_code(frag, b)) for w, b in o.tclass)
        memo[a] = got
    return got


def _code_positions(frag: Fragment, r: int) -> Dict[int, int]:
    """Each id below rank ``r`` mapped to its code's position in canonical
    order, kept per population in ``Fragment.conch_positions``.  Distinct
    objects have distinct codes, by induction on rank, because a spec's wand
    codes are distinct; two that coincide would intern a carrier with a
    repeated member, so they raise."""
    key = (r, len(frag.objects))
    positions = frag.conch_positions
    got = positions.get(key)
    if got is None:
        below = frag.objects_below(r)
        codes = {b: _conch_code(frag, b) for b in below}
        if len(set(codes.values())) < len(codes):
            raise ValueError(f"two objects below rank {r} share a conch code")
        order = sorted(below, key=lambda b: codes[b].sort_key())
        got = positions[key] = {b: i for i, b in enumerate(order)}
    return got


# -- the round-trip verification -----------------------------------------------

def verify_roundtrip(frag: Fragment, stages: Stages) -> Dict[str, List[str]]:
    """Verify the two witness maps between a fragment and its stages.

    Checks, over everything in the exhaustive fragment: the pure-set code map
    restricts to a membership- and wandhood-preserving bijection between pure
    sets and the hereditarily bland objects; the fragment recoding is
    injective, preserves blandness and membership everywhere and taps on
    ``Fragment.safe_ids``; ranks correspond; and the recoded fragment equals
    the independently generated stages bit for bit.

    Returns the failure witnesses of each check group, by group name; every
    list is empty when the witnesses hold.
    """
    if not frag.exhaustive:
        return {"preconditions": ["fragment not exhaustive"]}
    if frag.depth != stages.depth or frag.spec.name != stages.spec.name:
        return {"preconditions": ["fragment and stages disagree on spec/depth"]}
    report: Dict[str, List[str]] = {name: [] for name in (
        "hb_iso", "code_injective", "code_clauses", "rank_correspondence",
        "cross_construction", "level_correspondence", "relation_stability")}

    ids = list(frag.ids())

    # -- pure sets vs hereditarily bland objects vs carrier-hierarchy codes
    pures = lt_levels(frag.depth + 1)[-1].elements  # in canonical order
    hb_ids = [a for a in ids if universe.hereditarily_bland(frag, a)]
    encoded = {}
    for p in pures:
        oid = universe.encode_pure(frag, p)
        if oid is None:
            report["hb_iso"].append(f"pure set of rank {rank(p)} has no object")
            continue
        encoded[p] = oid
    if sorted(encoded.values()) != sorted(hb_ids):
        report["hb_iso"].append(
            "pure sets do not biject onto the hereditarily bland objects")
    for p, po in encoded.items():
        for q, qo in encoded.items():
            if (p in q) != (po in frag.obj(qo).members):
                report["hb_iso"].append(f"membership not preserved ({p} in {q})")
    for p in pures:
        code = deep_carrier(p)
        if stages.conchrank.get(code) != rank(p):
            report["hb_iso"].append(f"code of rank-{rank(p)} pure set ranks wrong")
        if not in_carrier_levels(frozenset(), code):
            report["hb_iso"].append("code escapes the empty-base carrier hierarchy")
    hb_codes = {conch_code(frag, a) for a in hb_ids}
    pure_codes = {deep_carrier(p) for p in pures}
    if hb_codes != pure_codes:
        report["hb_iso"].append("hereditarily bland codes differ from pure-set codes")
    wand_objs = frag.wand_obj_ids()
    for wid in frag.spec.wands:
        if wid.index >= frag.depth:  # the numeral k ranks k, so no depth-k fragment holds it
            continue
        oid = wand_objs.get(wid.index)
        if oid is None:
            report["hb_iso"].append(f"wand {wid.index} designation unregistered")
        elif conch_code(frag, oid) != wid.code:
            report["hb_iso"].append(f"wand {wid.index} code mismatch")

    # -- the recoding map
    codes = {a: conch_code(frag, a) for a in ids}
    if len(set(codes.values())) != len(ids):
        report["code_injective"].append("two objects share a code")

    for a in ids:
        o = frag.obj(a)
        if o.is_bland != is_carrier(codes[a]):
            report["code_clauses"].append(f"blandness flips for object {a}")
        if o.ordrank != stages.conchrank.get(codes[a]):
            report["rank_correspondence"].append(
                f"object {a}: rank {o.ordrank} vs stage {stages.conchrank.get(codes[a])}")
    for a in ids:
        for b in ids:
            lhs = bool(universe.member_mask(frag, b) >> a & 1)
            rhs = is_carrier(codes[b]) and codes[a] in uncarrier(codes[b])
            if lhs != rhs:
                report["code_clauses"].append(f"membership flips for ({a},{b})")

    # tap preservation on the safe ids (the guard in the structure-
    # preservation induction: tapping at the top leaves the fragment)
    for a in frag.safe_ids():
        if codes[a] not in stages.conchrank:
            continue  # no stage tap to compare; rank_correspondence reports it
        for w in frag.spec.wand_indices():
            got = frag.resolve_tap(w, a)
            stage_tap = stages.resolve_tap(w, codes[a])
            lhs = None if got is None else codes[got]
            if lhs != stage_tap:
                report["code_clauses"].append(f"tap flips for wand {w} on object {a}")

    # -- cross construction: recoded rank-<=sigma fragment == stage sigma
    for sigma in range(frag.depth):
        want = frozenset(codes[a] for a in ids if frag.obj(a).ordrank <= sigma)
        got = stages.stages[sigma].conches
        if want != got:
            report["cross_construction"].append(
                f"stage {sigma}: {len(want)} recoded vs {len(got)} generated")

    # -- the bland hierarchies over matching stages correspond: an object
    # sits in some level over the stage-alpha contents exactly when its code
    # sits in some carrier level over the earlier conches
    for alpha in range(frag.depth):
        base_ids = frozenset(frag.wevel_contents[alpha])
        base_codes = stages.stages[alpha].below
        for a in ids:
            lhs = universe.in_ur_levels(frag, base_ids, a)
            rhs = in_carrier_levels(base_codes, codes[a])
            if lhs != rhs:
                report["level_correspondence"].append(
                    f"object {a} at stage {alpha}: {lhs} vs {rhs}")

    # -- relation answers agree between the fragment and the stages
    for a in ids:
        for w in frag.spec.wand_indices():
            lhs = wandspec.dom(frag.spec, w, a, frag)
            rhs = codes[a] in stages.conchrank and wandspec.dom(stages.spec, w, codes[a], stages)
            if lhs != rhs:
                report["relation_stability"].append(
                    f"dom disagrees at stage {frag.obj(a).ordrank} (wand {w})")
    for sigma in range(frag.depth):
        if _coded_classes(frag, sigma, codes.__getitem__) != _coded_classes(stages, sigma):
            report["relation_stability"].append(f"equiv classes disagree at stage {sigma}")
    return report


def _coded_classes(q, m: int, code=lambda h: h) -> FrozenSet[FrozenSet[Tuple[PureSet, PureSet]]]:
    """The official classes up to rank m over the query ``q``, singletons
    included, each pair read as <wand code, code of the handle>."""
    wands = q.spec.wands
    return frozenset(frozenset((wands[w].code, code(a)) for w, a in cls)
                     for cls in wandspec.partition(q.spec, q, m))
