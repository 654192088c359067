"""Stage-generated finite universe fragments.

A fragment is built in stages: at every stage you find each bland set of
previously found objects and, for every wand and every previously found
object inside that wand's domain of action, the quotiented tap of that
object.  Tapped objects are stored as their canonical class: the set of all
minimal-rank (wand, argument) pairs identified by the official equivalence,
so two taps are the same object exactly when their arguments are equivalent.
An object's id is its position in canonical order (rank, bland before
tapped, then members or class read lexicographically), and members and
classes are ascending id tuples, from birth; set algebra on members goes
through the member bitmasks.  A look-ahead spec may register a tap a stage
late, out of that order.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from . import wandspec
from .errors import BeyondFragment, CapExceeded, NotBland, StabilityViolation, TapUndefinedAt
from .pureset import PureSet, acyclic, subsets, vn
from .wandspec import WandSpec

DEFAULT_MAX_OBJECTS = 200_000

Members = Tuple[int, ...]
TapClass = Tuple[Tuple[int, int], ...]


def _canonical(items: Iterable) -> tuple:  # members or class pairs, any order
    return tuple(sorted(set(items)))


def _check_range(items: Iterable[int], n: int, what: str) -> None:
    for i in items:
        if not 0 <= i < n:
            raise ValueError(f"{what} {i} is outside 0 .. {n - 1}")


class Obj:
    """A universe object: bland (with members) or tapped (with its class),
    each a tuple in canonical order."""

    __slots__ = ("id", "ordrank", "members", "tclass")

    def __init__(self, oid: int, ordrank: int,
                 members: Optional[Members], tclass: Optional[TapClass]):
        self.id = oid
        self.ordrank = ordrank
        self.members = members
        self.tclass = tclass

    @property
    def is_bland(self) -> bool:
        return self.members is not None

    def __repr__(self) -> str:
        return f"<obj {self.id} {'bland' if self.is_bland else 'tapped'} rank {self.ordrank}>"


def label(o: Obj, of: Callable[[int], str], opening: str, closing: str) -> str:
    """An object's brace notation, given ``of``, the label of a lower id: a
    bland set is ``opening``, its members' labels joined by commas, then
    ``closing``; a tapped object is ``*w`` and the label of its least
    (wand, argument) pair.  ``Fragment.render`` and the DOT export, which
    escapes the braces, share this rule."""
    if o.members is not None:
        return opening + ",".join(map(of, o.members)) + closing
    w, b = o.tclass[0]
    return f"*{w}{of(b)}"


@dataclass(eq=False)
class Fragment:
    """A finite prefix of a wand/set universe.  It answers the set queries
    of :class:`wandspec.SetQuery` with object ids as handles, and compares
    by identity, so the query tables weakly keyed by it go with it."""

    spec: WandSpec
    depth: int
    exhaustive: bool
    objects: List[Obj] = field(default_factory=list)
    wevel_contents: List[Tuple[int, ...]] = field(default_factory=list)
    _bland_index: Dict[Members, int] = field(default_factory=dict)
    _tap_index: Dict[TapClass, int] = field(default_factory=dict)
    _tap_of: Dict[Tuple[int, int], Optional[int]] = field(default_factory=dict)
    # rank -> (population scanned, the ids below the rank among it)
    _below: Dict[int, Tuple[int, Tuple[int, ...]]] = field(default_factory=dict)
    # (wand, handle, population) -> why the tap is beyond; a later registration may resolve it
    _beyond: Dict[Tuple[int, int, int], str] = field(default_factory=dict)
    # (rank, population) -> each id below the rank mapped to its code's
    # position in canonical order, filled by conch
    conch_positions: Dict[Tuple[int, int], Dict[int, int]] = field(default_factory=dict)
    _wevel_ids: Dict[int, int] = field(default_factory=dict)
    _masks: Optional["_Masks"] = None
    # facts fixed when an object is registered, kept for the fragment's life:
    # conch codes (by id, None where not yet coded; conch grows the list to
    # the population), kinds (filled by conch and instances), hereditary
    # blandness and encode_pure's hits
    conch_codes: List[Optional[PureSet]] = field(default_factory=list)
    kinds: Dict[int, "instances.CusKind"] = field(default_factory=dict)
    _hb: Dict[int, bool] = field(default_factory=dict)
    _encoded: Dict[PureSet, int] = field(default_factory=dict)

    # -- plumbing -------------------------------------------------------------

    def obj(self, oid: int) -> Obj:
        return self.objects[oid]

    def __len__(self) -> int:
        return len(self.objects)

    def ids(self) -> range:
        return range(len(self.objects))

    def register_bland(self, members: Iterable[int], stage: int) -> int:
        """Register the bland set of ``members`` (any order); ValueError on a
        bad id, or on an exhaustive fragment when a new set's rank is not
        ``stage``, the stage that finds it (a known set is returned as is)."""
        members = _canonical(members)
        _check_range(members, len(self.objects), "object id")
        if (self.exhaustive and members not in self._bland_index
                and stage != (rank := self._bland_rank(members))):
            raise ValueError(f"stage {stage} is not the rank {rank} of the set")
        return self._add_bland(members)

    def register_tap(self, tclass: Iterable[Tuple[int, int]]) -> int:
        """Register the tap class ``tclass`` (any order); ValueError on a bad id
        or wand, or when the class is empty or its arguments differ in rank."""
        tclass = _canonical(tclass)
        _check_range([w for w, _ in tclass], len(self.spec.wands), "wand")
        _check_range([b for _, b in tclass], len(self.objects), "object id")
        if len(ranks := {self.objects[b].ordrank for _, b in tclass}) != 1:
            raise ValueError(f"a tap class needs arguments of one rank, not {sorted(ranks)}")
        return self._add_tap(tclass)

    def _bland_rank(self, members: Members) -> int:
        return 0 if not members else 1 + max([self.objects[m].ordrank for m in members])

    def _add_bland(self, members: Members) -> int:
        # trusted: the caller guarantees canonical order, as for pureset._intern
        oid = self._bland_index.get(members)
        if oid is not None:
            return oid
        o = Obj(len(self.objects), self._bland_rank(members), members, None)
        self.objects.append(o)
        self._bland_index[members] = o.id
        return o.id

    def _add_tap(self, tclass: TapClass) -> int:
        # trusted: a canonical class whose arguments share one rank
        oid = self._tap_index.get(tclass)
        if oid is not None:
            return oid
        o = Obj(len(self.objects), self.objects[tclass[0][1]].ordrank + 1, None, tclass)
        self.objects.append(o)
        self._tap_index[tclass] = o.id
        return o.id

    def bland_id(self, members: Iterable[int]) -> Optional[int]:
        """Id of the bland set of ``members``, given in any order."""
        return self._bland_index.get(_canonical(members))

    def tap_id(self, tclass: Iterable[Tuple[int, int]]) -> Optional[int]:
        """Id of the tapped object of ``tclass``, given in any order."""
        return self._tap_index.get(_canonical(tclass))

    def sort_key(self, oid: int) -> int:
        """Ids are canonical: an object sorts by its id.  Nothing in the
        package calls this; ``perfbench/tracer.py`` wraps it by name."""
        return oid

    def render(self, oid: int) -> str:
        """Brace notation (:func:`label` with ``{`` and ``}``)."""
        return label(self.objects[oid], self.render, "{", "}")

    # -- wevels ---------------------------------------------------------------

    def wevel_id(self, alpha: int) -> int:
        """Id of the alpha-th wevel object (the bland set of everything
        found strictly before stage alpha)."""
        oid = self._wevel_ids.get(alpha)
        if oid is None:
            if not 0 <= alpha < len(self.wevel_contents):
                raise BeyondFragment(f"wevel {alpha} beyond depth {self.depth}")
            oid = self.bland_id(self.wevel_contents[alpha])
            if oid is None:  # not memoised: a build may register it later
                raise BeyondFragment(f"wevel {alpha} not registered")
            self._wevel_ids[alpha] = oid
        return oid

    def wand_obj_ids(self) -> Dict[int, int]:
        """Map wand index -> id of its designated hereditarily bland object,
        for wands whose designation is registered in this fragment."""
        return {w.index: oid for w in self.spec.wands
                if (oid := encode_pure(self, vn(w.index))) is not None}

    # -- set queries ------------------------------------------------------------

    def is_bland(self, h: int) -> bool:
        return self.objects[h].members is not None

    def members(self, h: int) -> Members:
        return self.objects[h].members or ()

    def ordrank(self, h: int) -> int:
        return self.objects[h].ordrank

    def resolve_tap(self, w: int, h: int) -> Optional[int]:
        key = (w, h)
        if key in self._tap_of:
            return self._tap_of[key]
        beyond = (w, h, len(self.objects))
        if beyond not in self._beyond:
            cls = wandspec.tap_class(self.spec, w, h, self)
            cid = None if cls is None else self._tap_index.get(cls)
            if cls is None or cid is not None:
                self._tap_of[key] = cid
                return cid
            self._beyond[beyond] = f"tap of wand {w} on rank-{self.ordrank(h)} object"
        raise BeyondFragment(self._beyond[beyond])

    def objects_below(self, r: int) -> Tuple[int, ...]:
        # growth since the last answer scans only the new objects
        seen, got = self._below.get(r, (0, ()))
        if seen != len(self.objects):
            got += tuple(o.id for o in self.objects[seen:] if o.ordrank < r)
            self._below[r] = (len(self.objects), got)
        return got

    def safe_ids(self) -> Tuple[int, ...]:
        """The ids whose every tap a build registers, in id order: a tap
        ranks one above its argument, and the last stage is depth - 1."""
        return self.objects_below(self.depth - 1)


# -- construction -------------------------------------------------------------

@acyclic()
def build(spec: WandSpec, depth: int, max_objects: int = DEFAULT_MAX_OBJECTS,
          mode: str = "exhaustive", subset_bound: int = 2) -> Fragment:
    """Grow a fragment for ``depth`` stages.

    Exhaustive mode materializes every bland subset of the earlier-found
    objects at each stage and aborts with CapExceeded rather than truncating.
    Sampled mode registers the full stage set (so wevels exist), every
    admissible tap, and bland subsets only up to ``subset_bound`` members,
    stopping quietly at the object budget; the fragment is then flagged
    non-exhaustive and completeness-dependent suites must skip it.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    if mode not in ("exhaustive", "sampled"):
        raise ValueError(f"unknown mode {mode!r}")
    frag = Fragment(spec=spec, depth=depth, exhaustive=(mode == "exhaustive"))

    # each stage registers its new bland sets, then its new tap classes, each
    # group sorted, so ids follow canonical order
    for stage in range(depth):
        # everything so far ranks below the stage; the objects' own id ints,
        # which every wevel shares
        prev = tuple(o.id for o in frag.objects)
        frag.wevel_contents.append(prev)
        if mode == "exhaustive":
            if len(frag.objects) + (1 << len(prev)) > max_objects:
                raise CapExceeded(
                    f"stage {stage}: {len(prev)} objects found earlier; "
                    f"2**{len(prev)} subsets exceed budget {max_objects}")
            for members in sorted(subsets(prev)):
                frag._add_bland(members)

        taps = {(w, a): wandspec.tap_class(spec, w, a, frag)
                for a in prev for w in spec.wand_indices()}
        new_classes = sorted({c for c in taps.values() if c is not None}
                             - frag._tap_index.keys())

        if mode == "sampled":
            # a loosely bound spec's taps cannot see this stage's blands; the
            # budget counts the wevel and the new classes first
            known = frag._bland_index
            room = max_objects - len(frag.objects) - (prev not in known) - len(new_classes)
            combos = (c for size in range(min(subset_bound, len(prev)) + 1)
                      for c in itertools.combinations(prev, size)
                      if c not in known and c != prev)
            for members in sorted([prev, *itertools.islice(combos, max(room, 0))]):
                frag._add_bland(members)

        for cls in new_classes:
            frag._add_tap(cls)
        frag._tap_of.update((key, None if cls is None else frag._tap_index[cls])
                            for key, cls in taps.items())

    frag.wevel_contents.append(tuple(o.id for o in frag.objects))
    return frag


# -- bitmasks over ids ----------------------------------------------------------

class _Masks:
    """Query-side tables of one fragment, as int bitmasks over object ids.

    Bit ``i`` stands for object ``i``.  They are built on the first query,
    never during construction, and rebuilt when the fragment has grown since.
    Its memos hold answers that depend on what is registered, so they are
    dropped with it when the fragment grows.
    """

    __slots__ = ("size", "members", "bland", "subsets", "found", "transitive",
                 "wevel", "levels", "ur_level", "varin")

    def __init__(self, frag: Fragment):
        self.size = len(frag.objects)
        self.members = [0 if o.members is None else ids_mask(o.members)
                        for o in frag.objects]
        self.bland = [(o.id, self.members[o.id]) for o in frag.objects if o.is_bland]
        self.subsets: Dict[int, int] = {}
        self.found: Dict[int, int] = {}
        self.transitive: Optional[List[Tuple[int, int]]] = None
        self.wevel: Dict[int, bool] = {}
        self.levels: Dict[FrozenSet[int], List[int]] = {}  # per base, see _levels
        self.ur_level: Dict[FrozenSet[int], Dict[int, bool]] = {}
        self.varin: Dict[int, int] = {}  # filled by instances.varin_mask


def _masks(frag: Fragment) -> _Masks:
    got = frag._masks
    if got is None or got.size != len(frag.objects):
        got = frag._masks = _Masks(frag)
    return got


def ids_mask(ids: Iterable[int]) -> int:
    """The mask with the bits of ``ids`` set."""
    mask = 0
    for i in ids:
        mask |= 1 << i
    return mask


def mask_ids(mask: int) -> List[int]:
    """The ids whose bits are set in ``mask``, ascending."""
    return [i for i, bit in enumerate(reversed(bin(mask))) if bit == "1"]


def member_mask(frag: Fragment, a: int) -> int:
    """The primitive members of ``a``; 0 for a tapped object."""
    return _masks(frag).members[a]


def subset_mask(frag: Fragment, c: int) -> int:
    """The registered bland sets whose members all belong to ``c`` (only the
    empty set when ``c`` is tapped)."""
    m = _masks(frag)
    got = m.subsets.get(c)
    if got is None:
        got = m.subsets[c] = _blands_inside(m, m.members[c])
    return got


def _blands_inside(m: _Masks, mask: int) -> int:
    # the registered bland sets whose members are all bits of ``mask``
    outside, got = ~mask, 0
    for x, xm in m.bland:
        if not xm & outside:
            got |= 1 << x
    return got


def found_mask(frag: Fragment, r: int) -> int:
    """Everything found at ``r``: its bland subsets and the taps of its
    members."""
    m = _masks(frag)
    got = m.found.get(r)
    if got is None:
        got = subset_mask(frag, r)
        wands = frag.spec.wand_indices()
        for b in frag.obj(r).members or ():
            for w in wands:
                t = frag.resolve_tap(w, b)
                if t is not None:
                    got |= 1 << t
        m.found[r] = got
    return got


def _pot_mask(frag: Fragment, member_ids: Iterable[int]) -> int:
    mask = 0
    for r in member_ids:
        mask |= found_mask(frag, r)
    return mask


# -- found-at and wevel recognition -------------------------------------------

def found_at(frag: Fragment, x: int, r: int) -> bool:
    """x is found at r: a bland subset of r, or the tap of a member of r."""
    return bool(found_mask(frag, r) >> x & 1)


def in_pot(frag: Fragment, x: int, a: int) -> bool:
    o = frag.obj(a)
    if not o.is_bland:
        return False
    return bool(_pot_mask(frag, o.members) >> x & 1)


def pot_ids(frag: Fragment, member_ids: Iterable[int]) -> FrozenSet[int]:
    """Ids of everything found at some object in ``member_ids``."""
    return frozenset(mask_ids(_pot_mask(frag, member_ids)))


def pot(frag: Fragment, a: int) -> int:
    """The bland set of everything found at a member of ``a``."""
    o = frag.obj(a)
    if not o.is_bland:
        raise NotBland(repr(o))
    oid = frag.bland_id(pot_ids(frag, o.members))
    if oid is None:
        raise BeyondFragment("pot not registered")
    return oid


def is_wevel(frag: Fragment, x: int) -> bool:
    """Recognize wevels: s is a wevel iff s equals the pot of its wevel
    members (recursing along that characterization)."""
    return _self_pot(frag, _masks(frag).wevel, functools.partial(_pot_mask, frag), x)


def _self_pot(frag: Fragment, memo: Dict[int, bool], pot: Callable, t: int) -> bool:
    """Whether ``t`` is a bland set whose member mask is ``pot`` of those of
    its members that pass too; members have lower ids, so this terminates."""
    hit = memo.get(t)
    if hit is None:
        o = frag.objects[t]
        sub = [r for r in o.members or ()
               if (memo[r] if r in memo else _self_pot(frag, memo, pot, r))]
        hit = memo[t] = o.members is not None and pot(sub) == member_mask(frag, t)
    return hit


def wistory_witness(frag: Fragment, x: int) -> Optional[FrozenSet[int]]:
    """Independent oracle: search for a wistory h with x = pot(h).

    Any wistory for x is a set of its own members, so subsets of x's bland
    members are an exhaustive search space.
    """
    o = frag.obj(x)
    if not o.is_bland:
        return None
    for combo in subsets([m for m in o.members if frag.obj(m).is_bland]):
        h = frozenset(combo)
        if _pot_mask(frag, h) != member_mask(frag, x):
            continue
        if all(_pot_mask(frag, [r for r in frag.obj(a).members if r in h])
               == member_mask(frag, a) for a in h):
            return h
    return None


def wevel_of(frag: Fragment, a: int) -> int:
    """The least wevel at which ``a`` is found."""
    return frag.wevel_id(frag.obj(a).ordrank)


def tap(frag: Fragment, w: int, a: int) -> Optional[int]:
    """The tap of ``a`` with wand ``w``: None outside the domain of action,
    BeyondFragment when the result was never registered."""
    return frag.resolve_tap(w, a)


# -- hereditary blandness -----------------------------------------------------

def hereditarily_bland(frag: Fragment, a: int) -> bool:
    memo = frag._hb
    hit = memo.get(a)
    if hit is None:
        o = frag.obj(a)
        hit = o.is_bland and all(hereditarily_bland(frag, m) for m in o.members)
        memo[a] = hit
    return hit


def hb_witness(frag: Fragment, a: int) -> Optional[int]:
    """Witness-set form: a registered bland c with a included in c whose
    members are all bland subsets of c.  None when there is no witness."""
    if not frag.obj(a).is_bland:
        return None
    m = _masks(frag)
    if m.transitive is None:
        # the candidates: bland sets whose members are bland subsets of them
        m.transitive = [(c, cm) for c, cm in m.bland
                        if all(frag.obj(x).is_bland and not m.members[x] & ~cm
                               for x in frag.obj(c).members)]
    am = m.members[a]
    for c, cm in m.transitive:
        if not am & ~cm:
            return c
    return None


def encode_pure(frag: Fragment, p) -> Optional[int]:
    """Id of the hereditarily bland object with the same shape as the pure
    set ``p``, or None when the fragment is too shallow.  Only hits are
    memoised: a later registration can fill a miss."""
    oid = frag._encoded.get(p)
    if oid is None:
        ids = []
        for x in p:
            if (sub := encode_pure(frag, x)) is None:
                return None
            ids.append(sub)
        oid = frag.bland_id(ids)
        if oid is not None:
            frag._encoded[p] = oid
    return oid


# -- levels over urelements ---------------------------------------------------

def _levels(frag: Fragment, base: FrozenSet[int]) -> List[int]:
    """The level masks over ``base``, each the base plus every bland set whose
    members all sit at the one before, until one repeats: the fixpoint."""
    m = _masks(frag)
    got = m.levels.get(base)
    if got is None:
        got = m.levels[base] = [ids_mask(base)]
        while len(got) < 2 or got[-1] != got[-2]:
            got.append(got[0] | _blands_inside(m, got[-1]))
    return got


def ur_level(frag: Fragment, alpha: int, base: FrozenSet[int]) -> FrozenSet[int]:
    """Level ``alpha`` of the bland hierarchy over ``base``, within the
    fragment: base members plus every registered bland set whose members all
    sit at an earlier level."""
    levels = _levels(frag, base)
    return frozenset(mask_ids(levels[min(alpha, len(levels) - 1)]))


def in_ur_levels(frag: Fragment, base: FrozenSet[int], x: int) -> bool:
    """Whether ``x`` appears at some level over ``base``: a bit of the fixpoint."""
    return bool(_levels(frag, base)[-1] >> x & 1)


def _ur_pot_mask(frag: Fragment, bottom: int, member_ids: Iterable[int]) -> int:
    # the base's mask plus the bland subsets of each member, read with
    # primitive membership (a tapped member has none)
    for c in member_ids:
        bottom |= subset_mask(frag, c)
    return bottom


def is_ur_level(frag: Fragment, base: FrozenSet[int], t: int) -> bool:
    """Recognizer for levels over ``base``, via the characterization that a
    level is the ur-pot of its level members."""
    return _self_pot(frag, _masks(frag).ur_level.setdefault(base, {}),
                     functools.partial(_ur_pot_mask, frag, ids_mask(base)), t)


# -- tap-path decomposition ---------------------------------------------------

def decompose(frag: Fragment, a: int) -> Tuple[int, List[int]]:
    """Split an object into a bland base and a minimal tap path.

    The path lists wand indices in application order; among the equally short
    descents the least wand index (then least argument) is chosen.
    """
    o = frag.obj(a)
    if o.is_bland:
        return a, []
    w, b = o.tclass[0]
    base, path = decompose(frag, b)
    return base, path + [w]


def bigtap(frag: Fragment, base: int, path: Sequence[int]) -> int:
    """Fold taps left-to-right along ``path`` starting from ``base``."""
    cur = base
    for i, w in enumerate(path):
        nxt = tap(frag, w, cur)
        if nxt is None:
            raise TapUndefinedAt(i)
        cur = nxt
    return cur


# -- stage stability ----------------------------------------------------------

def correspond(small: Fragment, big: Fragment) -> Dict[int, int]:
    """Structural correspondence small-id -> big-id (same spec, deeper run)."""
    out: Dict[int, int] = {}
    for oid in small.ids():  # members and class arguments are registered first
        o = small.obj(oid)
        if o.is_bland:
            target = big.bland_id(out[m] for m in o.members)
        else:
            target = big.tap_id((w, out[b]) for w, b in o.tclass)
        if target is None:
            raise StabilityViolation(f"object {oid} of {small.spec.name} "
                                     "has no counterpart in the deeper build")
        out[oid] = target
    return out


def check_stage_stability(spec: WandSpec, small: Fragment, big: Fragment) -> dict:
    """Require dom/equiv answers to agree between a shallow and a deep build.

    Sweeps every (wand, argument) with the argument at least one stage below
    the shallow fragment's top; disagreement raises StabilityViolation, which
    is how look-ahead (not loosely bound) predicates are exposed.
    """
    if small.depth > big.depth:
        raise ValueError("small fragment must be the shallower one")
    mapping = correspond(small, big)
    checked = 0
    safe = small.safe_ids()
    for a in safe:
        for w in spec.wand_indices():
            checked += 1
            if wandspec.dom(spec, w, a, small) != wandspec.dom(spec, w, mapping[a], big):
                raise StabilityViolation(
                    f"dom({w}, rank-{small.obj(a).ordrank} object) flipped "
                    f"between depth {small.depth} and depth {big.depth}")
        for b in safe:
            for w in spec.wand_indices():
                for u in spec.wand_indices():
                    checked += 1
                    if (wandspec.equiv(spec, w, a, u, b, small)
                            != wandspec.equiv(spec, w, mapping[a], u, mapping[b], big)):
                        raise StabilityViolation(
                            f"equiv(({w},{u}), ranks "
                            f"({small.obj(a).ordrank},{small.obj(b).ordrank})) flipped")
    return {"checked": checked, "small_depth": small.depth, "big_depth": big.depth}
