"""Canonical, interned hereditarily finite sets.

Every value built through :func:`mk_set` is deduplicated, sorted into a fixed
total order (rank, then cardinality, then lexicographic on elements) and
interned, so structural equality coincides with object identity for the life
of the process.  The trusted entry ``_intern`` skips dedup and sort; its
caller guarantees a canonical, duplicate-free tuple; so does ``_carrier_of``,
the carrier of such a tuple's set, which leaves that set uninterned.  Their
callers: any subset that :func:`subsets` or :func:`ordered_subsets` cuts from
a canonically sorted spread (:func:`carrier_level` and ``conch.gen_stages``
among them), :func:`lt_levels` (each level built in canonical order by
:func:`ordered_subsets`), a carrier's pair and payload, :func:`deep_carrier`
and :func:`deep_uncarrier` (order preserving, see there), and the bland codes
of ``conch.conch_code`` (members sorted by their codes' canonical positions).
All operations are pure.  The only mutation points, all as long-lived as the
process: the interning table, keyed by the sorted element tuple (the interned
set's own ``elements``); the carrier table, keyed by the payload's element
tuple, which holds every {<empty, a>} (``_intern`` routes that shape there),
both filled with ``dict.setdefault``, so racing threads agree on one value;
a carrier's one element and its payload, each interned on its first read;
and the :func:`deep_carrier` memo.
"""

from __future__ import annotations

import contextlib
import gc
from itertools import combinations
from typing import (Callable, Collection, Dict, Iterable, Iterator, List, Optional, Sequence,
                    Tuple)

from .errors import CapExceeded, NotACarrier, NotAPair, NotInCodeImage

__all__ = [
    "acyclic",
    "PureSet",
    "EMPTY",
    "mk_set",
    "MAX_WIDTH",
    "subsets",
    "ordered_subsets",
    "rank",
    "kpair",
    "kunpair",
    "carrier",
    "uncarrier",
    "deep_carrier",
    "deep_uncarrier",
    "carrier_level",
    "in_carrier_levels",
    "is_carrier_level_code",
    "lt_levels",
    "is_lt_level",
    "vn",
    "vn_value",
]


@contextlib.contextmanager
def acyclic():
    """Pause the cyclic garbage collector for a block or, as a decorator, a
    call that allocates only acyclic values, which reference counting frees.
    It is re-enabled on exit only if it was enabled on entry, so uses nest."""
    was = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was:
            gc.enable()


class PureSet:
    """An immutable hereditarily finite set.

    Do not instantiate directly; use :func:`mk_set`.  Instances are interned,
    so ``==`` is identity and values are safe to share across threads.
    """

    __slots__ = ("elements", "rank", "_key")

    elements: Tuple["PureSet", ...]
    rank: int

    def __init__(self, elements: Tuple["PureSet", ...]):
        self.elements = elements
        # canonical order sorts by rank first, so the last element ranks highest
        self.rank = 1 + elements[-1].rank if elements else 0
        self._key = None

    def sort_key(self):
        # (rank, cardinality, lexicographic on element keys); element key
        # tuples are shared between interned values, so this stays cheap.
        key = self._key
        if key is None:
            key = (self.rank, len(self.elements),
                   tuple(e.sort_key() for e in self.elements))
            self._key = key
        return key

    def __lt__(self, other: "PureSet") -> bool:
        return self.sort_key() < other.sort_key()

    def __contains__(self, item: "PureSet") -> bool:
        return item in self.elements

    def __iter__(self):
        return iter(self.elements)

    def __len__(self) -> int:
        return len(self.elements)

    def __repr__(self) -> str:
        return "{" + ",".join(repr(e) for e in self.elements) + "}"


class _Carrier(PureSet):
    """{<empty, a>}, one per payload ``a``, which it keeps as a's canonical
    element tuple ``inner``; its element, the pair <empty, a>, is interned on
    the first read of the unset ``elements`` slot, and ``a`` with it."""

    __slots__ = ("inner",)

    def __init__(self, inner: Tuple[PureSet, ...]):
        # a ranks 0 when empty, else one above its last element
        self.inner, self.rank, self._key = inner, (inner[-1].rank + 4 if inner else 3), None

    def __getattr__(self, name):  # reached only while the elements slot is unset
        if name != "elements":
            raise AttributeError(name)
        a = _intern(self.inner)  # <empty, a> = {{empty}, {empty, a}}, canonical as written
        pair = (_SINGLETON_EMPTY,) if a is EMPTY else (_SINGLETON_EMPTY, _intern((EMPTY, a)))
        self.elements = (_intern(pair),)
        return self.elements


EMPTY = PureSet(())
_SINGLETON_EMPTY = PureSet((EMPTY,))
# Elements hash and compare by identity, which interning makes structural
# equality, so equal element tuples name the same set; carriers: _CARRIERS.
_TABLE: Dict[Tuple[PureSet, ...], PureSet] = {(): EMPTY, (EMPTY,): _SINGLETON_EMPTY}
_CARRIERS: Dict[Tuple[PureSet, ...], _Carrier] = {}


def mk_set(elems: Iterable[PureSet]) -> PureSet:
    """Return the canonical set with the given elements.

    Duplicates are dropped, elements are sorted into the canonical order and
    the result is interned.  Idempotent under re-wrapping.
    """
    return _intern(tuple(sorted(set(elems), key=PureSet.sort_key)))


def _intern(ordered: Tuple[PureSet, ...]) -> PureSet:
    """Intern ``ordered`` as is; the caller guarantees it is in canonical order
    and duplicate-free, else the table would hold two values for one set."""
    hit = _TABLE.get(ordered)
    if hit is None:
        if len(ordered) == 1 and (a := _pair_payload(ordered[0])) is not None:
            return _carrier_of(a.elements)
        hit = _TABLE.setdefault(ordered, PureSet(ordered))
    return hit


def _pair_payload(p: PureSet) -> Optional[PureSet]:
    # a when p is the pair <empty, a> = {{empty}, {empty, a}} ({{empty}} for a =
    # empty), else None; types are tested first, so no carrier's pair is built
    e = p.elements if type(p) is PureSet else ()
    if e == (_SINGLETON_EMPTY,):
        return EMPTY
    x = e[1].elements if len(e) == 2 and type(e[1]) is PureSet else ()
    return x[1] if len(x) == 2 and x[0] is EMPTY and e[0] is _SINGLETON_EMPTY else None


# The widest spread any powerset expansion takes: both subset enumerators
# raise CapExceeded past it rather than materialize 2**width subsets.
MAX_WIDTH = 20


def subsets(spread: Collection, key: Optional[Callable] = None) -> List[tuple]:
    """Every subset of ``spread`` as a tuple in spread order, indexed by mask:
    entry ``m`` holds ``spread[i]`` exactly when bit ``i`` of ``m`` is set.
    Each entry extends the entry of its mask without the top bit.  A spread
    wider than :data:`MAX_WIDTH` raises CapExceeded before any sort by ``key``."""
    if len(spread) > MAX_WIDTH:
        raise CapExceeded(f"2**{len(spread)} subsets exceed width {MAX_WIDTH}")
    if key is not None:
        spread = sorted(spread, key=key)
    out = [()]
    for x in spread:
        out += [t + (x,) for t in out]
    return out


def ordered_subsets(spread: Sequence[PureSet]) -> Iterator[tuple]:
    """Every subset of the canonically sorted ``spread``, as a tuple in spread
    order, in canonical order: the empty tuple, then by the rank of the top
    element, then by size, then by index tuple read lexicographically (the
    elements' order).  The subsets whose top lies in a run of equal-rank
    elements ending at ``hi`` are the combinations of ``spread[:hi]`` that end
    in that run, and combinations come in that order for each size.  Its
    first step raises CapExceeded on a spread wider than :data:`MAX_WIDTH`."""
    if len(spread) > MAX_WIDTH:
        raise CapExceeded(f"2**{len(spread)} subsets exceed width {MAX_WIDTH}")
    yield ()
    hi, n = 0, len(spread)
    while hi < n:
        top = spread[hi].rank
        while hi < n and spread[hi].rank == top:
            hi += 1
        head = spread[:hi]
        for k in range(1, hi + 1):
            for t in combinations(head, k):
                if t[-1].rank == top:
                    yield t


def rank(s: PureSet) -> int:
    """Cumulative rank: 0 for the empty set, else 1 + max element rank."""
    return s.rank


def kpair(a: PureSet, b: PureSet) -> PureSet:
    """Kuratowski pair {{a},{a,b}}."""
    return mk_set((mk_set((a,)), mk_set((a, b))))


def kunpair(p: PureSet) -> Tuple[PureSet, PureSet]:
    """Invert :func:`kpair`; raises NotAPair on anything else."""
    if len(p) == 1:
        (inner,) = p.elements
        if len(inner) != 1:
            raise NotAPair(repr(p))
        (a,) = inner.elements
        return a, a
    if len(p) == 2:
        small, big = p.elements  # canonical order puts the singleton first
        if len(small) != 1 or len(big) != 2:
            raise NotAPair(repr(p))
        (a,) = small.elements
        if a not in big:
            raise NotAPair(repr(p))
        x, y = big.elements
        return (a, y) if x is a else (a, x)
    raise NotAPair(repr(p))


def carrier(a: PureSet) -> PureSet:
    """The code {<empty, a>} marking a as a bland value."""
    return _carrier_of(a.elements)


def _carrier_of(inner: Tuple[PureSet, ...]) -> PureSet:
    """The carrier of the set whose elements are ``inner``, without interning
    that set; trusted as ``_intern`` is: ``inner`` is canonical."""
    hit = _CARRIERS.get(inner)
    if hit is None:
        hit = _CARRIERS.setdefault(inner, _Carrier(inner))
    return hit


def uncarrier(c: PureSet) -> PureSet:
    """Invert :func:`carrier`, interning the payload on its first read;
    raises NotACarrier on anything else.  A reader of the payload's members
    alone reads ``c.inner``."""
    if type(c) is not _Carrier:
        raise NotACarrier(repr(c))
    return _intern(c.inner)


def is_carrier(c: PureSet) -> bool:
    """Whether ``c`` is {<empty, a>}: interning makes every such set a carrier."""
    return type(c) is _Carrier


# deep_carrier codes, keyed by the interned set; as long-lived as _TABLE.
# Two threads may code the same set at once; both store the same interned code.
_DEEP: Dict[PureSet, PureSet] = {}


def deep_carrier(a: PureSet) -> PureSet:
    """Recursively code a pure set: carrier of the codes of its elements.

    The map is injective, and the code of a rank-n set first appears at
    level n of the carrier hierarchy over the empty base.  Codes are
    memoised per interned set, so a shared subtree is coded once.
    """
    # The codes of a's elements come out in canonical order, so they are
    # interned as they are: deep_carrier is strictly monotone in canonical
    # order.  By induction on rank: a rank-n set codes to rank 4n + 3 (the
    # payload ranks 1 + max(4(n-1) + 3) = 4n, a carrier 3 above it), so rank
    # order is kept; every code is a one-element carrier, and carriers of
    # payloads of equal rank compare as their payloads; a payload has as many
    # members as the set (the map is injective), and lists the codes of its
    # elements, which by induction compare as the elements do.
    got = _DEEP.get(a)
    if got is None:
        got = _DEEP[a] = _carrier_of(tuple(map(deep_carrier, a.elements)))
    return got


def deep_uncarrier(c: PureSet) -> PureSet:
    """Invert :func:`deep_carrier`; raises NotInCodeImage off the image."""
    if not is_carrier(c):
        raise NotInCodeImage(repr(c))
    # the inverse of a strictly monotone map keeps order on its image
    return _intern(tuple(map(deep_uncarrier, c.inner)))


# -- carrier hierarchy over a base ------------------------------------------

def carrier_level(alpha: int, base: frozenset) -> frozenset:
    """Level ``alpha`` of the carrier hierarchy over ``base``.

    Level 0 is the base itself; each later level adds the carriers of all
    subsets of the previous level.  Raises CapExceeded rather than expand a
    level wider than :data:`MAX_WIDTH`.
    """
    level = frozenset(base)
    for _ in range(alpha):
        level = frozenset(base).union(  # in canonical order, as _carrier_of needs
            _carrier_of(t) for t in subsets(level, key=PureSet.sort_key))
    return level


def in_carrier_levels(base: frozenset, x: PureSet) -> bool:
    """Whether ``x`` appears at some level of the carrier hierarchy over base.

    Decided recursively (a carrier is in the hierarchy iff every element of
    its payload is), which avoids materializing any level.
    """
    if x in base:
        return True
    return is_carrier(x) and all(in_carrier_levels(base, y) for y in x.inner)


def is_carrier_level_code(base: frozenset, c: PureSet) -> bool:
    """Recognize carriers of levels of the hierarchy over ``base``.

    Non-recursive characterization: the payload must equal everything
    available from its own recognized level-code members.  This is the
    independent oracle against which :func:`carrier_level` is checked.
    """
    if not is_carrier(c):
        return False
    inner = c.inner
    payloads = [uncarrier(r) for r in inner if is_carrier_level_code(base, r)]
    # everything available from them: the base, plus carriers of their subsets
    return frozenset(base).union(map(carrier, _pot(payloads))) == frozenset(inner)


# -- the plain cumulative hierarchy ------------------------------------------

@acyclic()
def lt_levels(n: int) -> list:
    """The first ``n`` levels of the plain cumulative hierarchy, as PureSets.

    Level 0 is empty and each next level collects all subsets of the previous
    one, so cardinalities run 0, 1, 2, 4, 16, 65536, ...
    """
    levels = []
    level = EMPTY
    for i in range(n):
        levels.append(level)
        if i + 1 == n:
            break
        level = _intern(tuple(map(_intern, ordered_subsets(level.elements))))
    return levels


def _pot(members: Iterable[PureSet]) -> PureSet:
    # {x : x is a subset of some member}
    return mk_set(_intern(t) for r in members for t in subsets(r.elements))


def is_lt_level(s: PureSet) -> bool:
    """Recognize levels of the plain hierarchy.

    A level is exactly the set of all subsets of its earlier levels; the
    recognizer recurses along that characterization.
    """
    if s is EMPTY:
        return True
    sublevels = [r for r in s if is_lt_level(r)]
    return _pot(sublevels) is s


# -- von Neumann naturals -----------------------------------------------------

def vn(n: int) -> PureSet:
    """The n-th von Neumann natural."""
    cur = EMPTY
    chain = [cur]
    for _ in range(n):
        cur = mk_set(chain)
        chain.append(cur)
    return cur


def vn_value(s: PureSet) -> Optional[int]:
    """Decode a von Neumann natural, or None if ``s`` is not one."""
    n = len(s)
    expected = vn(n)
    return n if expected is s else None
