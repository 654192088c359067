import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wandset import conch, formula as F, instances, pureset as ps, wandspec
from wandset.errors import NotInCodeImage, ParseError, SignatureError

from conftest import built


# -- parsing and rendering -------------------------------------------------------

def test_parse_simple():
    f = F.parse("forall x. ~In(x, x)")
    assert f == F.Forall(F.Var("x"), F.Not(F.In(F.Var("x"), F.Var("x"))))


def test_parse_mixed_connectives():
    f = F.parse("exists s. (Bland(s) & forall x. ~In(x,s))")
    assert isinstance(f, F.Exists)
    assert isinstance(f.body, F.And)


def test_parse_error_positions():
    with pytest.raises(ParseError):
        F.parse("forall x In(x")
    with pytest.raises(ParseError):
        F.parse("In(x,y) &")
    with pytest.raises(ParseError):
        F.parse("Tap(x,y)")


def test_implication_is_right_associative():
    f = F.parse("In(x,y) -> In(y,z) -> In(x,z)")
    assert isinstance(f, F.Implies)
    assert isinstance(f.rhs, F.Implies)


def var_names():
    return st.sampled_from(["x", "y", "z", "u"])


def formulas(sig=F.SIG_WS):
    atoms = [st.builds(F.In, st.builds(F.Var, var_names()), st.builds(F.Var, var_names())),
             st.builds(F.Eq, st.builds(F.Var, var_names()), st.builds(F.Var, var_names()))]
    if sig == F.SIG_WS:
        atoms += [st.builds(F.Bland, st.builds(F.Var, var_names())),
                  st.builds(F.Tap, *(st.builds(F.Var, var_names()),) * 3)]
    if sig in (F.SIG_WS, F.SIG_LT):
        atoms.append(st.builds(F.Wand, st.builds(F.Var, var_names())))
    base = st.one_of(atoms)
    return st.recursive(
        base,
        lambda kids: st.one_of(
            st.builds(F.Not, kids),
            st.builds(F.And, kids, kids),
            st.builds(F.Or, kids, kids),
            st.builds(F.Implies, kids, kids),
            st.builds(F.Iff, kids, kids),
            st.builds(F.Forall, st.builds(F.Var, var_names()), kids),
            st.builds(F.Exists, st.builds(F.Var, var_names()), kids)),
        max_leaves=12)


@given(formulas())
@settings(max_examples=120, deadline=None)
def test_render_parse_roundtrip(f):
    assert F.parse(F.render(f)) == f
    assert F.render(F.parse(F.render(f))) == F.render(f)


def test_corpus_roundtrip():
    for name, f in F.ws_axioms() + F.lt_axioms():
        assert F.parse(F.render(f)) == f, name


def test_sentence_file_parsing():
    text = "# a comment\next: forall a. ~In(a,a)\n\nIn(x,y) -> In(x,y)\n"
    got = F.parse_sentences(text)
    assert [name for name, _ in got] == ["ext", "line-4"]
    assert F.free_vars(got[0][1]) == frozenset()


_PUNCT = ("<->", "->", "|", "&", "~", "(", ")", ",", "=", ".")


def reference_tokenize(text):
    """The character loop that the regular-expression tokenizer replaced."""
    out = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch == "#":
            break
        for p in _PUNCT:
            if text.startswith(p, i):
                out.append(("punct", p, i))
                i += len(p)
                break
        else:
            if ch.isalpha() or ch == "_":
                j = i
                while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                    j += 1
                out.append(("ident", text[i:j], i))
                i = j
            else:
                raise ParseError(f"unexpected character {ch!r}", i)
    out.append(("end", "", len(text)))
    return out


def _tokens_or_error(tokenize, text):
    try:
        return tokenize(text)
    except ParseError as exc:
        return ("error", str(exc))


@given(st.text(alphabet="xyz_AB019 \t\n\u00a0\u2003<->|&~(),=.#!\u00e9\u03bb\u00b2\u0663\u00bd",
               max_size=40))
@settings(max_examples=400, deadline=None)
def test_tokenize_matches_reference(text):
    assert _tokens_or_error(F._tokenize, text) == _tokens_or_error(reference_tokenize, text)


def test_tokenize_matches_reference_on_the_corpora():
    for _, f in (F.ws_axioms() + F.lt_axioms() + F.random_sentences(F.SIG_WS, 50, seed=5)
                 + F.bullet_circle_identities()):
        text = F.render(f)
        assert _tokens_or_error(F._tokenize, text) == _tokens_or_error(reference_tokenize, text)


# -- evaluation ---------------------------------------------------------------------

def test_eval_empty_set_exists(church3):
    m = F.fragment_model(church3)
    assert F.eval_formula(m, F.parse("exists s. (Bland(s) & forall x. ~In(x,s))"))


def test_eval_extensionality(church3):
    m = F.fragment_model(church3)
    assert F.eval_formula(m, F.parse(
        "forall a. forall b. (Bland(a) & Bland(b)) -> "
        "((forall x. In(x,a) <-> In(x,b)) -> a = b)"))


def test_eval_not_everything_tappable(conway4):
    m = F.fragment_model(conway4)
    w0 = F.Var("w")
    f = F.parse("forall x. exists c. Tap(w, x, c)")
    wand_obj = conway4.wand_obj_ids()[0]
    assert not F.eval_formula(m, f, {w0: wand_obj})


def test_eval_rejects_unbound_and_bad_signature(church3):
    m = F.fragment_model(church3)
    with pytest.raises(SignatureError):
        F.eval_formula(m, F.parse("In(x,y)"))
    lt = F.lt_model(church3)
    with pytest.raises(SignatureError):
        F.eval_formula(lt, F.parse("forall x. ~Bland(x)"))


def test_ws_axioms_hold_on_all_shipped_specs():
    for name in ("pure", "conway", "partial-fun", "multiset", "church:2"):
        frag = built(name, 3)
        m = F.fragment_model(frag)
        for ax_name, ax in F.ws_axioms():
            assert F.eval_formula(m, ax), (name, ax_name)


def test_lt_axioms_hold_on_lt_side(church3):
    m = F.lt_model(church3)
    for ax_name, ax in F.lt_axioms():
        assert F.eval_formula(m, ax), ax_name


# -- translations -----------------------------------------------------------------------

def test_translations_reject_wrong_signature():
    with pytest.raises(SignatureError):
        F.translate_tau(F.parse("forall x. Bland(x)"))
    with pytest.raises(SignatureError):
        F.translate_circle(F.parse("forall x. Wand(x)"))


def test_translations_are_identity_preserving():
    eq = F.parse("forall x. forall y. x = y -> y = x")
    for tname, (fn, src, _) in F.TRANSLATIONS.items():
        if src == F.SIG_WS:
            probe = F.parse("forall x. forall y. (x = y & Bland(x)) -> y = x")
        elif src == F.SIG_LT:
            probe = F.parse("forall x. forall y. (x = y & Wand(x)) -> y = x")
        else:
            probe = eq
        assert F.identity_preserving(probe, fn(probe)), tname


def test_identity_preserving_rejects_a_dropped_equality():
    src = F.parse("forall x. forall y. (x = y & Bland(x)) -> y = x")
    dropped = F.parse("forall x. forall y. (x = y & Bland(x)) -> Bland(y)")
    flipped = F.parse("forall x. forall y. (x = y & Bland(x)) -> x = y")
    doubled = F.parse("forall x. forall y. (x = y & x = y & Bland(x)) -> y = x")
    assert not F.identity_preserving(src, dropped)
    assert not F.identity_preserving(src, flipped)
    assert not F.identity_preserving(src, doubled)
    assert F.identity_preserving(src, F.Not(F.Not(src)))


def test_tau_relativizes_to_hereditarily_bland(church3):
    # unguarded extensionality fails in the wand universe (distinct taps are
    # both memberless) but its relativization holds
    wsm = F.fragment_model(church3)
    ltm = F.lt_model(church3)
    f = F.parse("forall a. forall b. (forall x. In(x,a) <-> In(x,b)) -> a = b")
    assert F.eval_formula(ltm, f)
    assert not F.eval_formula(wsm, f)
    assert F.eval_formula(wsm, F.translate_tau(f))


def test_tau_levels_are_hb_parts_of_stage_proxies(church3):
    # within the translation's domain (a free variable must be assigned a
    # hereditarily bland object), the relativized level recognizer picks out
    # exactly the hereditarily bland parts of the stage proxies
    from wandset import universe

    wsm = F.fragment_model(church3)
    s = F.Var("s")
    level_tau = F.translate_tau(F.lt_level_formula(s, F._Fresh("_q")))
    got = {e for e in wsm.carrier
           if universe.hereditarily_bland(church3, e)
           and F.eval_formula(wsm, level_tau, {s: e})}
    want = {universe.hb_part(church3, church3.wevel_id(a))
            for a in range(church3.depth)}
    assert got == want


def test_relativized_height_sentences_flip_with_depth():
    # the set of wands is found one stage after the last wand, so the
    # relativized existence sentence is false at depth 3 and true at depth 4
    (name, f), = F.ws_relativized_axioms()
    m3 = F.fragment_model(built("church:2", 3))
    m4 = F.fragment_model(built("church:2", 4))
    assert not F.eval_formula(m3, f)
    assert F.eval_formula(m4, f)


@pytest.mark.parametrize("name", ["pure", "conway", "church:2"])
def test_tau_interpretation(name):
    frag = built(name, 3)
    rows = F.check_interpretation(
        F.lt_model(frag), F.fragment_model(frag), "tau",
        F.lt_axioms() + F.lt_relativized_axioms()
        + F.random_sentences(F.SIG_LT, 60, seed=11))
    assert all(r.ok for r in rows), [r.name for r in rows if not r.ok]


@pytest.mark.parametrize("name", ["pure", "conway", "church:2"])
def test_tolt_interpretation(name):
    frag = built(name, 3)
    stages = conch.gen_stages(frag.spec, 3)
    rows = F.check_interpretation(
        F.fragment_model(frag), F.conch_model(stages), "tolt",
        F.ws_axioms() + F.ws_relativized_axioms()
        + F.random_sentences(F.SIG_WS, 60, seed=12))
    assert all(r.ok for r in rows), [r.name for r in rows if not r.ok]


def test_bullet_interpretation(church3):
    wsm = F.fragment_model(church3)
    em = F.varin_model(church3)
    plain = [(n, f) for n, f in F.ws_axioms() if n != "stages-cover-everything"]
    rows = F.check_interpretation(wsm, em, "bullet", plain)
    assert all(r.ok for r in rows), [r.name for r in rows if not r.ok]


def test_bullet_circle_roundtrip(church3):
    wsm = F.fragment_model(church3)
    for name, f in F.bullet_circle_identities():
        assert F.eval_formula(wsm, f), name


def test_circle_bullet_roundtrip(church3):
    em = F.varin_model(church3)
    for name, f in F.circle_bullet_identities():
        assert F.eval_formula(em, f), name


def test_circle_reads_membership_expansively(church3):
    # on the expansive side the universal set has everything in it
    em = F.varin_model(church3)
    wsm = F.fragment_model(church3)
    f = F.parse("exists v. forall x. In(x, v)")
    assert F.eval_formula(em, f)
    assert F.eval_formula(wsm, F.translate_circle(f))
    assert not F.eval_formula(wsm, f)  # primitively there is no such set


def test_random_sentence_corpus_is_deterministic():
    a = F.random_sentences(F.SIG_WS, 10, seed=3)
    b = F.random_sentences(F.SIG_WS, 10, seed=3)
    assert [F.render(f) for _, f in a] == [F.render(f) for _, f in b]


# -- differential test against the top-down evaluator ------------------------------------

def reference_eval(model, f, env=None):
    """The top-down evaluator that ``eval_formula`` replaced, kept as the
    reference: it walks the tree per binding and memoizes every node on its
    sorted free-variable bindings."""
    env = env or {}
    missing = F.free_vars(f) - set(env)
    if missing:
        raise SignatureError(f"unbound variables: {sorted(v.name for v in missing)}")
    F.check_signature(f, model.signature)
    memo = {}
    fv_cache = {}

    def fv(g):
        got = fv_cache.get(id(g))
        if got is None:
            got = fv_cache[id(g)] = F.free_vars(g)
        return got

    def ev(g, env):
        key = (id(g), tuple(sorted((v.name, env[v]) for v in fv(g))))
        hit = memo.get(key)
        if hit is None:
            hit = memo[key] = _ev(g, env)
        return hit

    def _ev(g, env):
        if isinstance(g, F.Bland):
            return bool(model.bland(env[g.t]))
        if isinstance(g, F.Wand):
            return bool(model.wand(env[g.t]))
        if isinstance(g, F.In):
            return bool(model.member(env[g.x], env[g.y]))
        if isinstance(g, F.Tap):
            return bool(model.tap(env[g.w], env[g.a], env[g.c]))
        if isinstance(g, F.Eq):
            return env[g.x] == env[g.y]
        if isinstance(g, F.Defined):
            oracle = model.defined.get(g.name)
            if oracle is None:
                raise SignatureError(f"model {model.name} has no oracle {g.name!r}")
            return bool(oracle(*(env[a] for a in g.args)))
        if isinstance(g, F.Not):
            return not ev(g.f, env)
        if isinstance(g, F.And):
            return ev(g.lhs, env) and ev(g.rhs, env)
        if isinstance(g, F.Or):
            return ev(g.lhs, env) or ev(g.rhs, env)
        if isinstance(g, F.Implies):
            return not ev(g.lhs, env) or ev(g.rhs, env)
        if isinstance(g, F.Iff):
            return ev(g.lhs, env) == ev(g.rhs, env)
        if isinstance(g, (F.Forall, F.Exists)):
            want_all = isinstance(g, F.Forall)
            for e in model.carrier:
                sub = dict(env)
                sub[g.v] = e
                if ev(g.body, sub) != want_all:
                    return not want_all
            return want_all
        raise TypeError(f"not a formula: {g!r}")

    return ev(f, env)


def _recording(model):
    """A copy of ``model`` whose relations and oracles append every call, in
    order, to the returned list."""
    calls = []

    def rec(name, fn):
        def logged(*args):
            calls.append((name, args))
            return fn(*args)
        return logged if fn is not None else None

    copy = dataclasses.replace(
        model, bland=rec("bland", model.bland), wand=rec("wand", model.wand),
        member=rec("member", model.member), tap=rec("tap", model.tap),
        defined={k: rec(k, v) for k, v in model.defined.items()})
    return copy, calls


def _assert_same(model, sentences, env=None):
    """Both evaluators give the same value, and reach the same oracle calls."""
    for name, f in sentences:
        new, new_calls = _recording(model)
        old, old_calls = _recording(model)
        assert F.eval_formula(new, f, env) == reference_eval(old, f, env), (model.name, name)
        assert set(new_calls) == set(old_calls), (model.name, name)


def _church3_models():
    frag = built("church:2", 3)
    return (F.fragment_model(frag), F.lt_model(frag),
            F.conch_model(conch.gen_stages(frag.spec, 3)), F.varin_model(frag))


def test_eval_matches_reference_on_random_sentences():
    wsm, ltm, cm, em = _church3_models()
    ws = F.random_sentences(F.SIG_WS, 200, seed=31)
    _assert_same(wsm, ws + F.ws_axioms())
    _assert_same(ltm, F.random_sentences(F.SIG_LT, 200, seed=32) + F.lt_axioms())
    _assert_same(em, F.random_sentences(F.SIG_E, 200, seed=33))
    _assert_same(cm, [(n, F.translate_tolt(f)) for n, f in ws])
    _assert_same(em, [(n, F.translate_bullet(f)) for n, f in ws])
    conway3 = built("conway", 3)
    _assert_same(F.fragment_model(conway3), F.random_sentences(F.SIG_WS, 200, seed=34))
    _assert_same(F.lt_model(conway3), F.random_sentences(F.SIG_LT, 200, seed=35))


def test_eval_matches_reference_on_roundtrip_identities():
    wsm, _, _, em = _church3_models()
    _assert_same(wsm, F.bullet_circle_identities())
    _assert_same(em, F.circle_bullet_identities())


def test_eval_matches_reference_with_free_variables(conway4):
    m = F.fragment_model(conway4)
    w, x = F.Var("w"), F.Var("x")
    f = F.parse("forall x. exists c. Tap(w, x, c)")
    g = F.parse("exists c. Tap(w, x, c) & ~Bland(c)")
    for e in m.carrier:
        _assert_same(m, [("tappable", f)], {w: e})
        _assert_same(m, [("tap-of", g)], {w: conway4.wand_obj_ids()[0], x: e})


@given(formulas())
@settings(max_examples=150, deadline=None)
def test_eval_matches_reference_on_shadowed_variables(f):
    # random_sentences never rebinds a bound name; these formulas do, so a
    # quantifier must hand its variable's outer value back when it is done
    _assert_same(F.fragment_model(built("church:2", 3)), [("closed", F.closed(f))])


def test_eval_restores_a_shadowed_binding(church3):
    m = F.fragment_model(church3)
    f = F.parse("exists x. (exists x. ~Bland(x)) & (forall y. ~In(y, x)) & Bland(x)")
    assert F.eval_formula(m, f)
    _assert_same(m, [("shadowed", f)])


def test_eval_reports_a_missing_oracle_only_when_reached(church3):
    m = F.fragment_model(church3)
    f = F.Or(F.parse("exists s. Bland(s)"), F.Defined("nowhere", (F.Var("s"),)))
    g = F.Exists(F.Var("s"), F.Defined("nowhere", (F.Var("s"),)))
    assert F.eval_formula(m, F.Exists(F.Var("s"), f))
    with pytest.raises(SignatureError, match="nowhere"):
        F.eval_formula(m, g)


# -- differential test against the per-node-memo compiler ---------------------------------

def slot_eval(model, f, env=None):
    """The compiler that ``compile_formula`` replaced, kept as the reference:
    slot-indexed closures compiled in one pass, each quantifier and atom node
    with its own memo keyed by its sorted free slots, quantifiers evaluated
    where they stand."""
    env = env or {}
    params = tuple(env)
    slots = {}
    for v in params:
        slots.setdefault(v, len(slots))
    allowed = F._ALLOWED[model.signature]
    compiled = {}
    bad = []

    def slot(v):
        got = slots.get(v)
        if got is None:
            got = slots[v] = len(slots)
        return got

    def node(g):
        got = compiled.get(id(g))
        if got is None:
            got = compiled[id(g)] = build(g)
        return got

    def memoized(run, free):
        key = F._getter(sorted(free))
        memo = {}

        def cached(env):
            k = key(env)
            hit = memo.get(k)
            if hit is None:
                hit = memo[k] = run(env)
            return hit

        return cached

    def build(g):
        if isinstance(g, F.Eq):
            i, j = slot(g.x), slot(g.y)
            return (lambda env: env[i] == env[j]), frozenset((i, j))
        if isinstance(g, F.ATOMS):
            if not isinstance(g, allowed) and not bad:
                bad.append(g)
            rel, args = F._relation(model, g)
            idx = tuple(slot(a) for a in args)
            free = frozenset(idx)
            if len(idx) == 1:
                i, = idx
                return memoized(lambda env: bool(rel(env[i])), free), free
            get = F._getter(idx)
            return memoized(lambda env: bool(rel(*get(env))), free), free
        if isinstance(g, F.Not):
            body, free = node(g.f)
            return (lambda env: not body(env)), free
        if isinstance(g, (F.And, F.Or, F.Implies, F.Iff)):
            (lhs, lf), (rhs, rf) = node(g.lhs), node(g.rhs)
            if isinstance(g, F.And):
                run = lambda env: lhs(env) and rhs(env)
            elif isinstance(g, F.Or):
                run = lambda env: lhs(env) or rhs(env)
            elif isinstance(g, F.Implies):
                run = lambda env: not lhs(env) or rhs(env)
            else:
                run = lambda env: lhs(env) == rhs(env)
            return run, lf | rf
        if isinstance(g, (F.Forall, F.Exists)):
            body, bf = node(g.body)
            s = slot(g.v)
            want_all = isinstance(g, F.Forall)

            def run(env):
                saved = env[s]
                out = want_all
                for e in model.carrier:
                    env[s] = e
                    if body(env) != want_all:
                        out = not want_all
                        break
                env[s] = saved
                return out

            return memoized(run, bf - {s}), bf - {s}
        raise TypeError(f"not a formula: {g!r}")

    run, free = node(f)
    missing = sorted(v.name for v, i in slots.items() if i in free and v not in params)
    if missing:
        raise SignatureError(f"unbound variables: {missing}")
    if bad:
        raise SignatureError(f"{type(bad[0]).__name__} atom not in signature {model.signature}")
    values = [None] * len(slots)
    values[:len(params)] = env.values()
    return run(values)


def _assert_same_order(model, sentences, env=None):
    """Same value as ``slot_eval``, and the same oracle calls first made in the
    same order; ``eval_formula`` makes each call once."""
    for name, f in sentences:
        new, new_calls = _recording(model)
        old, old_calls = _recording(model)
        assert F.eval_formula(new, f, env) == slot_eval(old, f, env), (model.name, name)
        assert new_calls == list(dict.fromkeys(old_calls)), (model.name, name)


def test_eval_matches_slot_eval_on_roundtrip_identities():
    wsm, _, _, em = _church3_models()
    _assert_same_order(wsm, F.bullet_circle_identities())
    _assert_same_order(em, F.circle_bullet_identities())


def test_eval_matches_slot_eval_on_random_sentences_and_bullet_images():
    wsm, _, _, em = _church3_models()
    ws = F.random_sentences(F.SIG_WS, 200, seed=36) + F.ws_axioms()
    _assert_same_order(wsm, ws)
    _assert_same_order(em, [(n, F.translate_bullet(f)) for n, f in ws])


def test_eval_calls_each_oracle_once_per_arguments():
    # the copies of varin_formula that circle emits share their memos, and so
    # do In(x,x) and In(x,y) when x and y have one value
    wsm, _, _, _ = _church3_models()
    for name, f in F.bullet_circle_identities() + [("diagonal", F.parse(
            "forall x. forall y. In(x,x) -> (In(x,y) | In(y,x))"))]:
        model, calls = _recording(wsm)
        F.eval_formula(model, f)
        assert calls and len(calls) == len(set(calls)), name


def test_eval_keeps_quantifiers_in_place_on_an_empty_carrier():
    # on no objects "forall v. L & R" is true whatever L is, so neither moving
    # the quantifier inward nor dropping a vacuous one is sound there
    empty = F.FiniteModel(name="empty", signature=F.SIG_WS, carrier=(),
                          bland=lambda x: x == 0, wand=lambda x: False,
                          member=lambda x, y: False, tap=lambda w, a, c: False)
    x = F.Var("x")
    cases = [("vacuous", F.parse("forall v. exists u. u = u"), None),
             ("guard", F.parse("forall v. (exists u. u = u) & v = v"), None),
             ("free-guard", F.parse("forall v. Bland(x) & In(v, x)"), {x: 1}),
             ("free-vacuous", F.parse("forall v. Bland(x)"), {x: 1}),
             ("exists", F.parse("exists v. Bland(x) | In(v, x)"), {x: 0})]
    for name, f, env in cases:
        want = name != "exists"
        assert F.eval_formula(empty, f, env) is want, name
        assert reference_eval(empty, f, env) is want, name
        _assert_same_order(empty, [(name, f)], env)


@pytest.mark.parametrize("text", [
    "forall x. forall y. (exists z. In(z,x) & In(y,z)) <-> (exists z. In(z,x) & In(z,y))",
    "forall x. (exists z. Tap(z,x,x)) <-> (exists z. Tap(z,z,x))",
    "forall x. forall y. (exists z. Tap(z,x,y)) <-> (exists z. Tap(z,y,x))",
    "forall x. forall y. (exists z. In(z,x) & ~In(z,y)) <-> (exists z. In(z,y) & ~In(z,x))",
    "forall a. (exists z. In(z,a)) <-> (exists x. In(a,x))",
    "forall x. (exists y. (x = x <-> In(x,y))) <-> (exists y. (x = y <-> In(x,y)))",
])
def test_eval_keeps_apart_subformulas_that_differ_in_wiring(church3, text):
    # each side has the shape of the other with its variables wired
    # differently, so a memo shared between the two sides would make it true
    m = F.fragment_model(church3)
    f = F.parse(text)
    assert not F.eval_formula(m, f)
    _assert_same_order(m, [(text, f)])


def reference_decode_conch_num(h):
    """The numeral decoder of the stage reading before it used ``vn_decode``."""
    try:
        return ps.vn_value(ps.deep_uncarrier(h))
    except NotInCodeImage:
        return None


@pytest.mark.parametrize("name,depth", [("church:2", 3), ("conway", 4)])
def test_vn_decode_matches_the_conch_numeral_decoder(name, depth):
    stages = conch.gen_stages(wandspec.get_spec(name), depth)
    got = {}
    for c in stages.ranked(depth - 1):
        got[c] = instances.vn_decode(stages.view, c)
        assert got[c] == reference_decode_conch_num(c), c
    assert set(got.values()) >= {None, 0, 1, 2}
