"""Pluggable wand behavior: raw predicates and the defaulting wrapper.

A spec supplies raw predicates D (domain of action) and E (identity of taps)
written against the :class:`SetQuery` interface, so the same code runs both
over built universe fragments and over pure-set stage encodings.  The official
``dom``/``equiv`` predicates wrap the raw ones: ``equiv`` holds outright on
identical arguments, and otherwise only where, restricted to everything found
at or below the arguments' stages, E is an equivalence relation and D is
preserved under E.  If the raw predicates misbehave anywhere in that region,
identity of taps collapses to strict identity there.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional, Protocol, Sequence, Tuple

from .errors import SpecError
from .pureset import PureSet


class SetQuery(Protocol):
    """What raw D/E predicates may ask about the surrounding universe.

    Answers must depend only on the part of the universe at or below the
    queried handle's rank; this loose-bound contract is enforced by the
    stage-stability suite, not by construction.
    """

    def is_bland(self, h) -> bool: ...

    def members(self, h) -> Sequence: ...

    def is_wand(self, h) -> bool: ...

    def ordrank(self, h) -> int: ...

    def resolve_tap(self, w: int, h): ...

    def objects_below(self, r: int) -> Sequence: ...

    def sort_key(self, h): ...


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
    against (w, a); it only prunes the well-behavedness sweep and never
    changes answers.
    """

    name: str
    wands: Tuple[WandId, ...]
    raw_dom: RawDom
    raw_equiv: RawEquiv
    equiv_candidates: Optional[Callable[[int, object, SetQuery, int], Iterable]] = None

    def wand_indices(self) -> range:
        return range(len(self.wands))


# -- the defaulting wrapper ---------------------------------------------------

def _raw_equiv_memo(spec: WandSpec, q: SetQuery, w: int, a, u: int, b) -> bool:
    cache = _query_cache(q)
    key = ("rawE", w, a, u, b)
    hit = cache.get(key)
    if hit is None:
        hit = bool(spec.raw_equiv(w, a, u, b, q))
        cache[key] = hit
    return hit


def _query_cache(q: SetQuery) -> dict:
    cache = getattr(q, "cache", None)
    if cache is None:
        cache = {}
        q.cache = cache
    return cache


def dom(spec: WandSpec, w: int, a, q: SetQuery) -> bool:
    """Official domain-of-action: w is a wand and raw D holds."""
    return 0 <= w < len(spec.wands) and bool(spec.raw_dom(w, a, q))


def equiv(spec: WandSpec, w: int, a, u: int, b, q: SetQuery) -> bool:
    """Official identity-of-taps predicate (the defaulting wrapper)."""
    nwands = len(spec.wands)
    if not (0 <= w < nwands and 0 <= u < nwands):
        return False
    if w == u and a == b:
        return True
    if not _raw_equiv_memo(spec, q, w, a, u, b):
        return False
    m = max(q.ordrank(a), q.ordrank(b))
    return wellbehaved_at(spec, q, m)


def wellbehaved_at(spec: WandSpec, q: SetQuery, m: int) -> bool:
    """Whether raw E restricted to rank <= m is an equivalence relation and
    raw D restricted there is preserved under it."""
    cache = _query_cache(q)
    key = ("wb", m, len(q.objects_below(m + 1)))
    hit = cache.get(key)
    if hit is None:
        hit = not _wellbehaved_violations(spec, q, m, first_only=True)
        cache[key] = hit
    return hit


def _related_pairs(spec: WandSpec, q: SetQuery, m: int) -> set:
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


def _wellbehaved_violations(spec: WandSpec, q: SetQuery, m: int,
                            first_only: bool = False) -> list:
    """Violations of the good-behavior conditions for raw D/E below rank m.

    Reflexive plus Euclidean is the same as being an equivalence relation,
    so the sweep checks that the raw-E graph decomposes into full cliques:
    any missing edge inside a connected component is a violation.
    """
    out = []
    objs = q.objects_below(m + 1)

    def bad(msg: str) -> bool:
        out.append(msg)
        return first_only

    for w in spec.wand_indices():
        for a in objs:
            if not spec.raw_equiv(w, a, w, a, q):
                if bad(f"raw E not reflexive at wand {w}, rank {q.ordrank(a)}"):
                    return out

    related = _related_pairs(spec, q, m)

    parent: dict = {}

    def find(x):
        while parent.get(x, x) != x:
            parent[x] = parent.get(parent[x], parent[x])
            x = parent[x]
        return x

    for w, a, u, b in related:
        parent.setdefault((w, a), (w, a))
        parent.setdefault((u, b), (u, b))
        parent[find((w, a))] = find((u, b))

    components: dict = {}
    for node in parent:
        components.setdefault(find(node), []).append(node)

    for members in components.values():
        for w, a in members:
            for u, b in members:
                if (w, a) != (u, b) and (w, a, u, b) not in related:
                    if bad(f"raw E not an equivalence: wands ({w},{u}) at "
                           f"ranks ({q.ordrank(a)},{q.ordrank(b)})"):
                        return out
        doms = {bool(spec.raw_dom(w, a, q)) for w, a in members}
        if len(doms) > 1:
            if bad("raw D not preserved under raw E"):
                return out
    return out


def minirank(spec: WandSpec, w: int, a, q: SetQuery) -> bool:
    """No official equivalent of (w, a) has strictly lower rank."""
    for b in q.objects_below(q.ordrank(a)):
        for u in spec.wand_indices():
            if equiv(spec, w, a, u, b, q):
                return False
    return True


def tap_class(spec: WandSpec, w: int, a, q: SetQuery) -> Optional[Tuple]:
    """Canonical class of a tap: the minimal-rank official equivalents.

    Returns a sorted tuple of (wand index, argument handle), or None when
    (w, a) is outside the domain of action.
    """
    if not dom(spec, w, a, q):
        return None
    eqs = []
    for b in q.objects_below(q.ordrank(a) + 1):
        for u in spec.wand_indices():
            if equiv(spec, w, a, u, b, q):
                eqs.append((u, b))
    low = min(q.ordrank(b) for _, b in eqs)  # (w, a) itself is always in eqs
    kept = [(u, b) for u, b in eqs if q.ordrank(b) == low]
    kept.sort(key=lambda p: (p[0], q.sort_key(p[1])))
    return tuple(kept)


# -- behavior reports ---------------------------------------------------------

@dataclass
class BehaviorReport:
    """Outcome of sweeping the good-behavior laws over a whole fragment."""

    spec_name: str
    checked: int = 0
    violations: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


def check_wellbehaved(spec: WandSpec, q: SetQuery, top_rank: int,
                      wrapped: bool = True) -> BehaviorReport:
    """Assert the domain/equivalence laws over everything below top_rank.

    With ``wrapped`` the official predicates are swept (the report must come
    back empty); without it the raw predicates are swept directly, which is
    how adversarial fixtures are exposed.
    """
    report = BehaviorReport(spec.name)
    objs = list(q.objects_below(top_rank + 1))
    wids = list(spec.wand_indices())

    if wrapped:
        dm = lambda w, a: dom(spec, w, a, q)
        eq = lambda w, a, u, b: equiv(spec, w, a, u, b, q)
    else:
        dm = lambda w, a: spec.raw_dom(w, a, q)
        eq = lambda w, a, u, b: _raw_equiv_memo(spec, q, w, a, u, b)

    for w in wids:
        for a in objs:
            report.checked += 1
            if not eq(w, a, w, a):
                report.violations.append(
                    f"equiv not reflexive: wand {w}, rank {q.ordrank(a)}")

    related = []
    for w in wids:
        for a in objs:
            for u in wids:
                for b in objs:
                    if eq(w, a, u, b):
                        related.append((w, a, u, b))
                        if dm(w, a) and not dm(u, b):
                            report.violations.append(
                                f"dom not preserved: wands ({w},{u})")

    by_lhs: dict = {}
    for w, a, u, b in related:
        by_lhs.setdefault((w, a), []).append((u, b))
    for partners in by_lhs.values():
        for u, b in partners:
            for v, c in partners:
                if not eq(u, b, v, c):
                    report.violations.append(
                        f"equiv not euclidean: wands ({u},{v})")
    return report


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
