"""Pluggable wand behavior: raw predicates and the defaulting wrapper.

A spec supplies raw predicates D (domain of action) and E (identity of taps)
written against the :class:`SetQuery` interface, so the same code runs both
over built universe fragments and over pure-set stage encodings: a
``universe.Fragment`` and a ``conch.Stages`` each answer the queries
themselves.  The official
``dom``/``equiv`` predicates wrap the raw ones: ``equiv`` holds outright on
identical arguments, and otherwise only where, restricted to everything found
at or below the arguments' stages, E is an equivalence relation and D is
preserved under E.  If the raw predicates misbehave anywhere in that region,
identity of taps collapses to strict identity there.

The official equivalence is built as a partition.  One sweep per rank m
(:func:`classes`) unions the raw-E edges among the (wand, handle) pairs of
rank <= m and checks the good-behaviour conditions on the classes it forms;
``equiv``, ``wellbehaved_at``, ``tap_class``, ``minirank`` and
``check_wellbehaved`` read those classes, and the conch stages read them too.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, replace
from typing import Callable, Dict, Iterable, List, Optional, Protocol, Sequence, Tuple

from .errors import SpecError
from .pureset import PureSet


class SetQuery(Protocol):
    """What raw D/E predicates may ask about the surrounding universe.

    Handles are object ids on a fragment and conches on stages.  Answers
    must depend only on the part of the universe at or below the queried
    handle's rank; this loose-bound contract is enforced by the
    stage-stability suite, not by construction.  Query tables such as the
    class partitions are weakly keyed by the query, so an implementation
    must hash by identity.
    """

    def is_bland(self, h) -> bool: ...

    def members(self, h) -> Sequence: ...

    def ordrank(self, h) -> int: ...

    def resolve_tap(self, w: int, h): ...

    def objects_below(self, r: int) -> Sequence: ...


@dataclass(frozen=True)
class WandId:
    """A wand: its index plus its pure-set designation code."""

    index: int
    code: PureSet


RawDom = Callable[[int, object, SetQuery], bool]
RawEquiv = Callable[[int, object, int, object, SetQuery], bool]


@dataclass(frozen=True)
class WandSpec:
    """A wand/set theory instance: wands plus raw D and E predicates.

    ``equiv_candidates(w, a, q, top)``, when given, must yield a superset of
    the pairs (u, b) with rank at most ``top`` for which raw E can hold
    against (w, a).  It feeds the class sweep: only the pairs it yields are
    probed for raw-E edges, so it prunes that sweep and never changes
    answers.  Wand codes must be distinct, so that codes tell objects apart.
    """

    name: str
    wands: Tuple[WandId, ...]
    raw_dom: RawDom
    raw_equiv: RawEquiv
    equiv_candidates: Optional[Callable[[int, object, SetQuery, int], Iterable]] = None

    def __post_init__(self):
        if len({w.code for w in self.wands}) < len(self.wands):
            raise SpecError(f"spec {self.name}: two wands share a code")

    def wand_indices(self) -> range:
        return range(len(self.wands))


# -- the defaulting wrapper ---------------------------------------------------

def dom(spec: WandSpec, w: int, a, q: SetQuery) -> bool:
    """Official domain-of-action: w is a wand and raw D holds."""
    return 0 <= w < len(spec.wands) and bool(spec.raw_dom(w, a, q))


def equiv(spec: WandSpec, w: int, a, u: int, b, q: SetQuery) -> bool:
    """Official identity-of-taps predicate (the defaulting wrapper): the
    identity clause, or else both pairs share a class of the larger rank's
    partition, which must not be broken.  Raw E holds exactly within those
    classes, since each is a raw-E clique holding every raw-E partner of its
    pairs."""
    nwands = len(spec.wands)
    if not (0 <= w < nwands and 0 <= u < nwands):
        return False
    if w == u and a == b:
        return True
    found = classes(spec, q, max(q.ordrank(a), q.ordrank(b)))
    cls = found.label.get((w, a))
    return found.broken is None and cls is not None and found.label.get((u, b)) is cls


def wellbehaved_at(spec: WandSpec, q: SetQuery, m: int) -> bool:
    """Whether raw E restricted to rank <= m is an equivalence relation and
    raw D restricted there is preserved under it."""
    return classes(spec, q, m).broken is None


# -- the official classes -----------------------------------------------------

@dataclass(frozen=True)
class Classes:
    """The official classes of the (wand, handle) pairs of rank <= some m.

    ``label`` maps each pair in a class of two or more to that class, one
    tuple of pairs shared by all of them; every other pair is a class of its
    own.  ``broken`` is the least rank at which raw E/D misbehave, when that
    is at or below m, and ``violations`` says how: from that rank up the
    official equivalence is strict identity, so ``label`` is the last
    well-behaved rank's.  ``degree`` counts each labelled pair's raw-E
    partners, for the clique check of the next rank.
    """

    label: dict
    degree: dict
    broken: Optional[int] = None
    violations: Tuple[str, ...] = ()

    def of(self, w: int, a) -> Tuple:
        """The class of (w, a)."""
        return self.label.get((w, a)) or ((w, a),)

    def groups(self) -> list:
        """The classes of two or more pairs, each once."""
        return list({id(cls): cls for cls in self.label.values()}.values())


# The classes of each query by (rank, population below rank + 1): a query's
# table is dropped with the query, and growth below a rank makes a new key.
_CLASSES: weakref.WeakKeyDictionary[SetQuery, Dict[Tuple[int, int], Classes]]
_CLASSES = weakref.WeakKeyDictionary()


def classes(spec: WandSpec, q: SetQuery, m: int) -> Classes:
    """The official classes up to rank m, one sweep per rank.

    Rank m starts from rank m - 1's classes and probes raw E only on pairs
    whose larger rank is m (through ``equiv_candidates`` when the spec has
    one).  Each rank is kept in ``_CLASSES`` under its population, so growth
    below m rebuilds it.  A violation persists as ranks are added, so every
    rank above a broken one is broken too.  A rank-m pair that would merge
    two lower classes fails the clique count, and a broken rank keeps rank
    m - 1's labels, so ``partition(m)`` restricted to ranks <= m - 1 is
    ``partition(m - 1)``.
    """
    objs = q.objects_below(m + 1)
    table = _CLASSES.setdefault(q, {})
    key = (m, len(objs))
    got = table.get(key)
    if got is None:
        base = classes(spec, q, m - 1) if m > 0 else Classes({}, {})
        got = base if base.broken is not None else _sweep(spec, q, m, objs, base)
        table[key] = got
    return got


def _sweep(spec: WandSpec, q: SetQuery, m: int, objs: Sequence, base: Classes) -> Classes:
    """Extend ``base`` by the pairs of rank m (union-find over raw-E edges).

    Every new pair must be raw-E reflexive, every class a raw-E clique and
    raw D constant on every class.  The clique check counts edges: a class
    of n pairs is a clique when its pairs have n(n - 1) partners in all.
    """
    parent = {x: cls[0] for x, cls in base.label.items()}
    degree = dict(base.degree)
    fresh = [a for a in objs if q.ordrank(a) == m]
    wands = spec.wand_indices()
    bad = []

    def find(x):
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]
        return x

    for w in wands:
        for a in objs:
            x, ra = (w, a), q.ordrank(a)
            if ra == m and not spec.raw_equiv(w, a, w, a, q):
                bad.append(f"raw E not reflexive at wand {w}, rank {m}")
            if spec.equiv_candidates is None:
                cands = ((u, b) for u in wands for b in (objs if ra == m else fresh))
            else:
                cands = spec.equiv_candidates(w, a, q, m)
            for y in dict.fromkeys(cands):
                if (max(ra, q.ordrank(y[1])) != m or y == x
                        or not spec.raw_equiv(w, a, *y, q)):
                    continue
                degree[x] = degree.get(x, 0) + 1
                parent.setdefault(x, x)
                parent.setdefault(y, y)
                rx, ry = find(x), find(y)
                if rx != ry:
                    if bool(spec.raw_dom(*rx, q)) != bool(spec.raw_dom(*ry, q)):
                        bad.append("raw D not preserved under raw E")
                    parent[rx] = ry

    groups: dict = {}
    for x in parent:
        groups.setdefault(find(x), []).append(x)
    for cls in groups.values():
        if sum(degree.get(y, 0) for y in cls) != len(cls) * (len(cls) - 1):
            bad.append(f"raw E not an equivalence on a class of {len(cls)} "
                       f"pairs at rank {m}")
    if bad:
        return replace(base, broken=m, violations=tuple(bad))
    return Classes({x: cls for cls in map(tuple, groups.values()) for x in cls}, degree)


def partition(spec: WandSpec, q: SetQuery, m: int) -> list:
    """Every official class up to rank m, singletons included."""
    found = classes(spec, q, m)
    out = found.groups()
    out.extend(((w, a),) for a in q.objects_below(m + 1) for w in spec.wand_indices()
               if (w, a) not in found.label)
    return out


def minirank(spec: WandSpec, w: int, a, q: SetQuery) -> bool:
    """No official equivalent of (w, a) has strictly lower rank."""
    r = q.ordrank(a)
    return all(q.ordrank(b) >= r for _, b in classes(spec, q, r).of(w, a))


def tap_class(spec: WandSpec, w: int, a, q: SetQuery) -> Optional[Tuple]:
    """Canonical class of a tap: the minimal-rank official equivalents.

    Returns a sorted tuple of (wand index, argument handle), or None when
    (w, a) is outside the domain of action.
    """
    if not dom(spec, w, a, q):
        return None
    cls = classes(spec, q, q.ordrank(a)).of(w, a)
    low = min(q.ordrank(b) for _, b in cls)
    kept = [(u, b) for u, b in cls if q.ordrank(b) == low]
    kept.sort()
    return tuple(kept)


# -- the good-behaviour report ------------------------------------------------

def check_wellbehaved(spec: WandSpec, q: SetQuery, top_rank: int) -> List[str]:
    """Assert the domain/equivalence laws over everything below top_rank:
    official ``dom`` is constant on each official class and official
    ``equiv`` links each member to the first; returns the violations, which
    must come back empty.  The raw violations the class sweep met are
    ``classes(spec, q, top_rank).violations``."""
    violations: List[str] = []
    for cls in classes(spec, q, top_rank).groups():
        (w, a), rest = cls[0], cls[1:]
        for u, b in rest:
            if not equiv(spec, w, a, u, b, q):
                violations.append(f"equiv splits a class: wands ({w},{u})")
            if dom(spec, w, a, q) != dom(spec, u, b, q):
                violations.append(f"dom not preserved: wands ({w},{u})")
    return violations


# -- the spec registry --------------------------------------------------------

REGISTRY: dict = {}


def register(name: str, factory: Callable[..., WandSpec]) -> None:
    REGISTRY[name] = factory


def get_spec(name: str) -> WandSpec:
    """Look up a spec by its registered name ("pure", "conway",
    "partial-fun", "multiset", "church:<k>")."""
    from . import instances  # noqa: F401  (registration side effect)

    if name.startswith("church:"):
        text = name.split(":", 1)[1]
        try:
            k = int(text)
        except ValueError:
            raise SpecError(f"k must be an integer, not {text!r}") from None
        return REGISTRY["church"](k)
    if name in REGISTRY:
        return REGISTRY[name]()
    raise KeyError(name)
