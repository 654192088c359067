"""The acceptance gate: one test per criterion, exact tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion; each prints its measured values and elapsed time.
"""

import time

from wandset import conch, formula as F, instances, pureset as ps
from wandset import suites, universe, wandspec

from conftest import built

ALL_SPECS = ("pure", "conway", "partial-fun", "multiset", "church:2")


def report(num: int, ok: bool, detail: str, t0: float, budget: float) -> None:
    took = time.time() - t0
    line = f"ACCEPTANCE {num} {'PASS' if ok else 'FAIL'} {detail} ({took:.1f}s)"
    print(line)
    assert ok, line
    assert took < budget, f"criterion {num} exceeded its {budget}s budget: {took:.1f}s"


def test_criterion_1_carrier_level_rank_law():
    t0 = time.time()
    got = [ps.rank(ps.mk_set(ps.carrier_level(n, frozenset()))) for n in range(5)]
    report(1, got == [0, 4, 8, 12, 16], f"level ranks {got}", t0, budget=1)


def test_criterion_2_stage_rank_bound():
    t0 = time.time()
    lines = []
    ok = True
    for name in ("church:2", "conway"):
        stages = conch.gen_stages(wandspec.get_spec(name), 4)
        for sigma, measured, bound in stages.rank_bound_slack():
            ok = ok and measured <= bound
            lines.append(f"{name} n={sigma}: {measured}<={bound} "
                         f"slack {bound - measured}")
    report(2, ok, "; ".join(lines), t0, budget=30)


def test_criterion_3_pure_hierarchy_sizes():
    t0 = time.time()
    frag = built("pure", 5)
    sizes = [len(c) for c in frag.wevel_contents]
    report(3, sizes == [0, 1, 2, 4, 16, 65536], f"sizes {sizes}", t0, budget=60)


def test_criterion_4_church_census():
    t0 = time.time()
    frag = built("church:2", 3)
    low = [a for a in frag.ids() if frag.obj(a).ordrank <= 2]
    names = {frag.render(a) for a in low}
    expected = {
        "{}", "{{}}", "*0{}",
        "{{{}}}", "{*0{}}", "{{},{{}}}", "{{},*0{}}", "{{{}},*0{}}",
        "{{},{{}},*0{}}", "*0{{}}", "*1{{}}",
    }
    report(4, len(low) == 11 and names == expected,
           f"{len(low)} objects of rank <= 2", t0, budget=5)


def test_criterion_5_core_law_suites():
    t0 = time.time()
    required = {
        "wevels-well-ordered", "wevel-recognizer-exact", "wistory-search-agrees",
        "least-stage-is-least", "nothing-in-its-own-stage", "no-self-membership",
        "stage-inclusion-vs-membership", "stage-proxy-ranks-itself",
        "stage-monotone-under-inclusion", "stage-of-member-strictly-below",
        "stages-potent-and-transitive", "pot-within-least-stage",
        "tap-rank-law", "tap-class-members-regenerate",
        "tap-defined-iff-in-domain", "taps-equal-iff-equivalent",
        "decompose-roundtrip", "official-predicates-wellbehaved",
        "equiv-identity-clause", "hereditarily-bland-three-ways",
        "ur-levels-recursion-vs-recognizer",
    }
    failures = []
    total = 0
    for name in ALL_SPECS:
        rows = suites.core_laws(built(name, 3))
        total += len(rows)
        missing = required - {r[0] for r in rows}
        assert not missing, f"{name}: laws not swept: {missing}"
        failures += [(name, r[0], r[2]) for r in rows if not r[1]]
    report(5, not failures, f"{total} laws over {len(ALL_SPECS)} specs, "
           f"violations {failures[:3]}", t0, budget=120)


def test_criterion_6_synonymy_witnesses():
    t0 = time.time()
    failures = []
    for name in ("pure", "conway", "church:2"):
        frag = built(name, 3)
        stages = conch.gen_stages(frag.spec, 3)
        failed = {k: v for k, v in conch.verify_roundtrip(frag, stages).items() if v}
        if failed:
            failures.append((name, failed))
    report(6, not failures, f"roundtrip on 3 specs, failures {failures[:1]}",
           t0, budget=300)


def test_criterion_7_cus_suite():
    t0 = time.time()
    rows = instances.check_cus_axioms(built("church:2", 3))
    failures = [name for name, ok, _ in rows if not ok]
    report(7, not failures, f"{len(rows)} checks, failures {failures}", t0, budget=120)


def test_criterion_8_interpretation_checks():
    t0 = time.time()
    bad = []
    for name in ("pure", "conway", "church:2"):
        frag = built(name, 3)
        wsm = F.fragment_model(frag)
        ltm = F.lt_model(frag)
        cm = F.conch_model(conch.gen_stages(frag.spec, 3))
        for row in F.check_interpretation(
                ltm, wsm, "tau",
                F.lt_axioms() + F.random_sentences(F.SIG_LT, 100, seed=801)):
            if not row.ok:
                bad.append((name, "tau", row.name))
        for row in F.check_interpretation(
                wsm, cm, "tolt",
                F.ws_axioms() + F.random_sentences(F.SIG_WS, 100, seed=802)):
            if not row.ok:
                bad.append((name, "tolt", row.name))
    frag = built("church:2", 3)
    wsm = F.fragment_model(frag)
    em = F.varin_model(frag)
    plain = [(n, f) for n, f in F.ws_axioms() if n != "stages-cover-everything"]
    for row in F.check_interpretation(wsm, em, "bullet", plain):
        if not row.ok:
            bad.append(("church:2", "bullet", row.name))
    for name, f in F.bullet_circle_identities():
        if not F.eval_formula(wsm, f):
            bad.append(("church:2", "bullet-circle", name))
    for name, f in F.circle_bullet_identities():
        if not F.eval_formula(em, f):
            bad.append(("church:2", "circle-bullet", name))
    report(8, not bad, f"discrepancies {bad[:3]}", t0, budget=300)


def test_criterion_9_stage_stability():
    t0 = time.time()
    checked = 0
    for name in ALL_SPECS:
        spec = wandspec.get_spec(name)
        stats = universe.check_stage_stability(spec, built(name, 2), built(name, 4))
        checked += stats["checked"]

    from test_wandspec import peeking_spec
    from wandset.errors import StabilityViolation

    spec = peeking_spec()
    flagged = False
    try:
        universe.check_stage_stability(spec, universe.build(spec, 2),
                                       universe.build(spec, 4))
    except StabilityViolation:
        flagged = True
    report(9, flagged, f"{checked} answers stable; look-ahead fixture flagged",
           t0, budget=60)
