"""Executable law suites swept over built fragments.

Each suite returns (law name, passed, witness) rows; the CLI prints them and
the acceptance tests assert on them.  Law names describe the behavior being
checked, and every law is quantified over the whole fragment (relativized to
it, for the laws that speak about stages).
"""

from __future__ import annotations

from typing import List, Tuple

from . import conch, instances, universe, wandspec
from .universe import Fragment

Row = Tuple[str, bool, str]
ORACLE_CAP = 200  # the most objects core_laws reruns its brute-force oracles on
RANDOM_SENTENCES = 100  # random sentences per language in formula_laws


def _row(name: str, bad: list) -> Row:
    return (name, not bad, "" if not bad else f"{bad[:3]}")


def core_laws(frag: Fragment) -> List[Row]:
    """The structural law sweep.

    Laws that rerun a brute-force oracle over the whole fragment (wistory
    search, the quadratic good-behavior report, pot inclusion) only run when
    the fragment has at most ``ORACLE_CAP`` objects; everything the exit
    criteria pin runs at depths far below that.
    """
    rows: List[Row] = []
    ids = list(frag.ids())
    spec = frag.spec
    depth = frag.depth
    small = len(ids) <= ORACLE_CAP

    # stage bookkeeping: recorded rank is the first stage that finds the object
    bad = [a for a in ids
           if not universe.found_at(frag, a, frag.wevel_id(frag.obj(a).ordrank))]
    bad += [a for a in ids if frag.obj(a).ordrank > 0
            and universe.found_at(frag, a, frag.wevel_id(frag.obj(a).ordrank - 1))]
    rows.append(_row("least-stage-is-least", bad))

    # stage proxies are linearly ordered by membership and each collects
    # exactly what was found earlier
    wevels = [frag.wevel_id(alpha) for alpha in range(depth)]
    bad = []
    for i, r in enumerate(wevels):
        for j, s in enumerate(wevels):
            if (r in frag.obj(s).members) != (i < j):
                bad.append((i, j))
    for alpha, s in enumerate(wevels):
        if universe.member_mask(frag, s) != universe.ids_mask(frag.wevel_contents[alpha]):
            bad.append(alpha)
        if small:
            sub = [r for r in frag.obj(s).members if universe.is_wevel(frag, r)]
            if universe.pot_ids(frag, sub) != frozenset(frag.obj(s).members):
                bad.append(("pot", alpha))
    rows.append(_row("wevels-well-ordered", bad))

    if frag.exhaustive:
        # the recognizer accepts exactly the generated stage proxies
        bad = [a for a in ids
               if universe.is_wevel(frag, a) != (a in wevels)]
        rows.append(_row("wevel-recognizer-exact", bad))
        # and the wistory search agrees where it is affordable
        if small:
            bad = [a for a in ids if (universe.wistory_witness(frag, a) is not None)
                   != universe.is_wevel(frag, a)]
            rows.append(_row("wistory-search-agrees", bad))

    # laws of the least-stage map
    bad = [a for a in ids if a in frag.obj(universe.wevel_of(frag, a)).members]
    rows.append(_row("nothing-in-its-own-stage", bad))
    if small:
        bad = []
        for a in ids:
            o = frag.obj(a)
            inner = universe.pot_ids(frag, o.members) if o.is_bland else frozenset()
            if not inner.issubset(frag.obj(universe.wevel_of(frag, a)).members):
                bad.append(a)
        rows.append(_row("pot-within-least-stage", bad))
    bad = [a for a in ids
           if frag.obj(a).is_bland and a in frag.obj(a).members]
    rows.append(_row("no-self-membership", bad))
    bad = []
    for i, r in enumerate(wevels):
        for j, s in enumerate(wevels):
            subset = not universe.member_mask(frag, r) & ~universe.member_mask(frag, s)
            if subset != (s not in frag.obj(r).members):
                bad.append((i, j))
    rows.append(_row("stage-inclusion-vs-membership", bad))
    bad = [alpha for alpha, s in enumerate(wevels)
           if universe.wevel_of(frag, s) != s or frag.obj(s).ordrank != alpha]
    rows.append(_row("stage-proxy-ranks-itself", bad))
    # b included in a has rank(b) <= rank(a) and the least stage depends only
    # on rank, so the law is decided per pair of ranks; the witnesses are
    # listed only when a pair fails
    blands = [a for a in ids if frag.obj(a).is_bland]
    stage = {r: universe.member_mask(frag, frag.wevel_id(r))
             for r in {frag.obj(a).ordrank for a in blands}}
    broken = {(rb, ra) for rb in stage for ra in stage
              if rb <= ra and stage[rb] & ~stage[ra]}
    bad = []
    if broken:
        for a in blands:
            for b in universe.mask_ids(universe.subset_mask(frag, a)):
                if (frag.obj(b).ordrank, frag.obj(a).ordrank) in broken:
                    bad.append((b, a))
    rows.append(_row("stage-monotone-under-inclusion", bad))
    bad = []
    for a in ids:
        for b in frag.obj(a).members or ():
            if frag.obj(b).ordrank >= frag.obj(a).ordrank:
                bad.append((b, a))
    rows.append(_row("stage-of-member-strictly-below", bad))

    # stage proxies absorb everything found at their members and everything
    # in them is found at them
    if small:
        bad = []
        for s in wevels:
            for x in ids:
                if universe.in_pot(frag, x, s) and x not in frag.obj(s).members:
                    bad.append(("potent", s, x))
            for x in frag.obj(s).members:
                if not universe.found_at(frag, x, s):
                    bad.append(("transitive", s, x))
        rows.append(_row("stages-potent-and-transitive", bad))

    # taps: rank law, quotient soundness, domain soundness, class minimality
    tapped = [a for a in ids if not frag.obj(a).is_bland]
    bad = []
    for c in tapped:
        ranks = {frag.obj(b).ordrank for _, b in frag.obj(c).tclass}
        if len(ranks) != 1 or ranks.pop() + 1 != frag.obj(c).ordrank:
            bad.append(c)
    rows.append(_row("tap-rank-law", bad))
    bad = []
    for c in tapped:
        for w, b in frag.obj(c).tclass:
            if universe.tap(frag, w, b) != c:
                bad.append((c, w, b))
            if not wandspec.minirank(spec, w, b, frag):
                bad.append(("minrank", c, w, b))
    rows.append(_row("tap-class-members-regenerate", bad))
    safe = frag.safe_ids()
    bad = []
    for a in safe:
        for w in spec.wand_indices():
            if (universe.tap(frag, w, a) is not None) != wandspec.dom(spec, w, a, frag):
                bad.append((w, a))
    rows.append(_row("tap-defined-iff-in-domain", bad))
    bad = []
    for a in safe:
        for b in safe:
            for w in spec.wand_indices():
                for u in spec.wand_indices():
                    ta, tb = universe.tap(frag, w, a), universe.tap(frag, u, b)
                    if ta is None or tb is None:
                        continue
                    if (ta == tb) != wandspec.equiv(spec, w, a, u, b, frag):
                        bad.append((w, a, u, b))
    rows.append(_row("taps-equal-iff-equivalent", bad))

    # every object decomposes onto a bland base through its tap path
    bad = []
    for a in ids:
        base, path = universe.decompose(frag, a)
        if not frag.obj(base).is_bland or universe.bigtap(frag, base, path) != a:
            bad.append(a)
    rows.append(_row("decompose-roundtrip", bad))

    # official predicates behave well over the whole fragment
    if small:
        rows.append(_row("official-predicates-wellbehaved",
                         wandspec.check_wellbehaved(spec, frag, depth - 1)))
    bad = []
    for a in ids:
        for w in spec.wand_indices():
            if not wandspec.equiv(spec, w, a, w, a, frag):
                bad.append((w, a))
    rows.append(_row("equiv-identity-clause", bad))

    # hereditary blandness agrees with its hierarchy and witness readings
    bad = []
    for a in ids:
        hb = universe.hereditarily_bland(frag, a)
        if hb != universe.in_ur_levels(frag, frozenset(), a):
            bad.append(("levels", a))
        if frag.exhaustive and hb != (universe.hb_witness(frag, a) is not None):
            bad.append(("witness", a))
    rows.append(_row("hereditarily-bland-three-ways", bad))

    # levels over urelements: the recursion matches the recognizer
    if frag.exhaustive:
        bad = []
        bases = [frozenset()]
        if depth >= 2:
            bases.append(frozenset(frag.wevel_contents[min(2, depth - 1)]))
        for base in bases:
            seen = set()
            alpha = 0
            prev = None
            while True:
                level = universe.ur_level(frag, alpha, base)
                if level == prev:
                    break
                prev = level
                oid = frag.bland_id(level)
                if oid is not None:
                    seen.add(oid)
                    if not universe.is_ur_level(frag, base, oid):
                        bad.append(("generated-not-recognized", alpha))
                alpha += 1
            for t in ids:
                if frag.obj(t).is_bland and universe.is_ur_level(frag, base, t):
                    if t not in seen:
                        bad.append(("recognized-not-generated", t))
        rows.append(_row("ur-levels-recursion-vs-recognizer", bad))

    return rows


def conch_laws(frag: Fragment) -> List[Row]:
    rows: List[Row] = []
    stages = conch.gen_stages(frag.spec, frag.depth)
    law_violations = conch.check_stage_laws(stages)
    rows.append(_row("stage-encoding-laws", law_violations))
    report = conch.verify_roundtrip(frag, stages)
    for section, problems in sorted(report.items()):
        rows.append(_row(f"roundtrip-{section.replace('_', '-')}", problems))
    for sigma, measured, bound in stages.rank_bound_slack():
        rows.append((f"stage-{sigma}-rank-bound", measured <= bound,
                     f"measured {measured} bound {bound} slack {bound - measured}"))
    return rows


def formula_laws(frag: Fragment) -> List[Row]:
    from . import formula  # imported here: only this suite needs it, and it costs set-up time

    def _interp_row(name: str, src, dst, translation: str, sentences) -> Row:
        rows = formula.check_interpretation(src, dst, translation, sentences)
        return _row(name, [r.name for r in rows if not r.ok])

    rows: List[Row] = []

    corpus = formula.ws_axioms() + formula.lt_axioms()
    bad = [name for name, f in corpus
           if formula.parse(formula.render(f)) != f
           or formula.render(formula.parse(formula.render(f))) != formula.render(f)]
    rows.append(_row("parser-roundtrip", bad))

    bad = []
    for tname, (fn, src_sig, _) in sorted(formula.TRANSLATIONS.items()):
        probe = {formula.SIG_WS: formula.ws_axioms(),
                 formula.SIG_LT: formula.lt_axioms(),
                 formula.SIG_E: [("ext", formula.parse(
                     "forall a. forall b. (forall x. In(x,a) <-> In(x,b)) -> a = b"))],
                 }[src_sig]
        for name, f in probe:
            if not formula.identity_preserving(f, fn(f)):
                bad.append((tname, name))
    rows.append(_row("translations-identity-preserving", bad))

    wsm = formula.fragment_model(frag)
    ltm = formula.lt_model(frag)
    stages = conch.gen_stages(frag.spec, frag.depth)
    cm = formula.conch_model(stages)

    rows.append(_interp_row("tau-preserves-axioms", ltm, wsm, "tau",
                            formula.lt_axioms() + formula.lt_relativized_axioms()))
    rows.append(_interp_row(
        "tau-preserves-random-sentences", ltm, wsm, "tau",
        formula.random_sentences(formula.SIG_LT, RANDOM_SENTENCES, seed=1202)))
    rows.append(_interp_row("tolt-preserves-axioms", wsm, cm, "tolt",
                            formula.ws_axioms() + formula.ws_relativized_axioms()))
    rows.append(_interp_row(
        "tolt-preserves-random-sentences", wsm, cm, "tolt",
        formula.random_sentences(formula.SIG_WS, RANDOM_SENTENCES, seed=1203)))

    if instances.is_church(frag.spec):
        em = formula.varin_model(frag)
        if frag.depth >= 2:  # bland_bullet asks for the set {{}}, which depth 1 lacks
            plain = [(n, f) for n, f in formula.ws_axioms()
                     if n != "stages-cover-everything"]
            rows.append(_interp_row("bullet-preserves-axioms", wsm, em, "bullet", plain))
            bad = [name for name, f in formula.bullet_circle_identities()
                   if not formula.eval_formula(wsm, f)]
            rows.append(_row("bullet-circle-identity", bad))
        bad = [name for name, f in formula.circle_bullet_identities()
               if not formula.eval_formula(em, f)]
        rows.append(_row("circle-bullet-identity", bad))
    return rows
