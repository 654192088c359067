"""First-order syntax, finite-model evaluation, and the translations.

The signatures: ``ws`` has Bland, Wand, In, Tap and equality (tap is a
ternary relation, not a function symbol); ``lt`` has In, Wand and equality;
``e`` has In and equality only.  Translations are syntax transformers:

* ``tau``    : lt -> ws, relativizing to hereditarily bland objects;
* ``tolt``   : ws -> lt extended with stage-interpreted predicates;
* ``bullet`` : ws -> e, rewriting everything in terms of one membership;
* ``circle`` : e -> ws, reading membership expansively.

Predicates that the sources define by recursion (n-equivalence, finite
ordinals, the stage relations) are emitted as named atoms whose oracles the
target model supplies; everything else is expanded syntactically.
"""

from __future__ import annotations

import functools
import random
import re
from collections import Counter
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from . import instances, universe
from .errors import BeyondFragment, ParseError, SignatureError
from .pureset import lt_levels, vn

SIG_WS = "ws"
SIG_LT = "lt"
SIG_E = "e"


# -- syntax --------------------------------------------------------------------

@dataclass(frozen=True)
class Var:
    name: str

    def __repr__(self):
        return self.name


@dataclass(frozen=True)
class Bland:
    t: Var


@dataclass(frozen=True)
class Wand:
    t: Var


@dataclass(frozen=True)
class In:
    x: Var
    y: Var


@dataclass(frozen=True)
class Tap:
    w: Var
    a: Var
    c: Var


@dataclass(frozen=True)
class Eq:
    x: Var
    y: Var


@dataclass(frozen=True)
class Defined:
    """A named predicate interpreted by the evaluating model's oracle."""

    name: str
    args: Tuple[Var, ...]


@dataclass(frozen=True)
class Not:
    f: object


@dataclass(frozen=True)
class And:
    lhs: object
    rhs: object


@dataclass(frozen=True)
class Or:
    lhs: object
    rhs: object


@dataclass(frozen=True)
class Implies:
    lhs: object
    rhs: object


@dataclass(frozen=True)
class Iff:
    lhs: object
    rhs: object


@dataclass(frozen=True)
class Forall:
    v: Var
    body: object


@dataclass(frozen=True)
class Exists:
    v: Var
    body: object


# The node-shape tables.  Every reader of an atom's arguments or of a
# connective's symbol goes through these; Defined reads its ``.args``.
_ARGS = {Bland: ("t",), Wand: ("t",), In: ("x", "y"), Tap: ("w", "a", "c"), Eq: ("x", "y")}
_CONNECTIVES = {And: "&", Or: "|", Implies: "->", Iff: "<->"}
_BINDING = (Iff, Implies, Or, And)  # loosest first; an Implies chain nests to the right

ATOMS = (*_ARGS, Defined)
_HEADS = {k.__name__: k for k in _ARGS if k is not Eq}  # the atoms written ``Head(args)``
_ORACLES = {Bland: "bland", Wand: "wand", In: "member", Tap: "tap"}  # FiniteModel fields
_RELATIONS = frozenset((*_ORACLES, Defined))
_MOVABLE = frozenset((And, Or, Implies))  # a quantifier moves inward past their left operand
_ALLOWED = {
    SIG_WS: (Bland, Wand, In, Tap, Eq, Defined),
    SIG_LT: (Wand, In, Eq, Defined),
    SIG_E: (In, Eq, Defined),
}


def _atom_args(g) -> Tuple[Var, ...]:
    """The variables an atom is applied to, in argument order."""
    kind = type(g)
    return g.args if kind is Defined else tuple(getattr(g, n) for n in _ARGS[kind])


def free_vars(f) -> frozenset:
    kind = type(f)
    if kind in ATOMS:
        return frozenset(_atom_args(f))
    if kind is Not:
        return free_vars(f.f)
    if kind in _CONNECTIVES:
        return free_vars(f.lhs) | free_vars(f.rhs)
    if kind is Forall or kind is Exists:
        return free_vars(f.body) - {f.v}
    raise TypeError(f"not a formula: {f!r}")


def check_signature(f, sig: str) -> None:
    """Raise SignatureError if ``f`` uses atoms outside ``sig``."""
    allowed = _ALLOWED[sig]
    for g in _atoms(f):
        if not isinstance(g, allowed):
            raise SignatureError(f"{type(g).__name__} atom not in signature {sig}")


def _atoms(f) -> Iterable[object]:
    """The atom occurrences of ``f``, left to right."""
    stack = [f]
    while stack:
        g = stack.pop()
        kind = type(g)
        if kind in ATOMS:
            yield g
        elif kind is Not:
            stack.append(g.f)
        elif kind in _CONNECTIVES:
            stack.extend((g.rhs, g.lhs))
        elif kind is Forall or kind is Exists:
            stack.append(g.body)
        else:
            raise TypeError(f"not a formula: {g!r}")


# -- parsing and rendering -------------------------------------------------------

# a punctuation mark, a run of word characters (str.isalnum or "_"; it must
# start with a letter or "_") or any other non-blank; blanks match nothing
_TOKEN = re.compile(r"(<->|->|[|&~(),=.])|(\w+)|(\S)")


def _tokenize(text: str) -> List[Tuple[str, str, int]]:
    out = []
    for m in _TOKEN.finditer(text):
        punct, word, other = m.groups()
        at = m.start()
        if punct:
            out.append(("punct", punct, at))
        elif word and (word[0].isalpha() or word[0] == "_"):
            out.append(("ident", word, at))
        elif other == "#":
            break
        else:
            raise ParseError(f"unexpected character {text[at]!r}", at)
    out.append(("end", "", len(text)))
    return out


# The deepest a sentence may nest: a negation, a quantifier, a binary
# connective and a parenthesis pair each sit one level above their operands.
# At this bound every pass over a sentence or a translation of it (parsing,
# rendering, translating, evaluating) stays within Python's default
# recursion limit.
MAX_NESTING = 250
_BINDS = {_CONNECTIVES[kind]: (level, kind) for level, kind in enumerate(_BINDING)}


class _Parser:
    """Precedence climbing; each method returns what it read and its nesting,
    and ``self.open`` counts the levels open around the token being read."""

    def __init__(self, text: str):
        self.toks = _tokenize(text)
        self.pos = self.open = 0

    def peek(self) -> Tuple[str, str, int]:
        return self.toks[self.pos]

    def take(self, kind: str, value: Optional[str] = None) -> Tuple[str, str, int]:
        k, v, at = self.toks[self.pos]
        if k != kind or (value is not None and v != value):
            raise ParseError(f"expected {value or kind}, found {v or 'end of input'}", at)
        self.pos += 1
        return k, v, at

    def nested(self, at: int, lhs: int, read: Callable, *args):
        """Read an operand one level below the token at offset ``at``, beside
        a left operand ``lhs`` levels deep; nesting is counted from the token."""
        self.open += 1
        if self.open + lhs > MAX_NESTING:
            raise ParseError(f"formula nested deeper than {MAX_NESTING} levels", at)
        f, depth = read(*args)
        self.open -= 1
        return f, depth + 1

    def formula(self, level: int = 0):
        """Operands joined by the connectives binding at ``_BINDING[level]``
        or tighter; an Implies chain nests to the right, the others left."""
        lhs, depth = self.unary()
        while True:
            k, v, at = self.peek()
            tighter, kind = _BINDS.get(v, (-1, None))
            if tighter < level:
                return lhs, depth
            self.take("punct", v)
            rhs, rdepth = self.nested(at, depth, self.formula,
                                      tighter if kind is Implies else tighter + 1)
            lhs, depth = kind(lhs, rhs), max(depth + 1, rdepth)

    def unary(self):
        k, v, at = self.peek()
        if (k, v) == ("punct", "~"):
            self.take("punct", "~")
            f, depth = self.nested(at, 0, self.unary)
            return Not(f), depth
        if (k, v) == ("punct", "("):
            self.take("punct", "(")
            f = self.nested(at, 0, self.formula)
            self.take("punct", ")")
            return f
        if k == "ident" and v in ("forall", "exists"):  # a quantifier binds the rest
            self.take("ident")
            _, name, _ = self.take("ident")
            self.take("punct", ".")
            body, depth = self.nested(at, 0, self.formula)
            return (Forall if v == "forall" else Exists)(Var(name), body), depth
        if k == "ident":
            return self.atom(), 0
        raise ParseError(f"expected a formula, found {v or 'end of input'}", at)

    def atom(self):
        _, head, at = self.take("ident")
        kind = _HEADS.get(head)
        if kind is None:
            self.take("punct", "=")
            return Eq(Var(head), Var(self.take("ident")[1]))
        self.take("punct", "(")
        args = [Var(self.take("ident")[1])]
        while self.peek()[:2] == ("punct", ","):
            self.take("punct", ",")
            args.append(Var(self.take("ident")[1]))
        self.take("punct", ")")
        arity = len(_ARGS[kind])
        if len(args) != arity:
            raise ParseError(f"{head} takes {arity} arguments", at)
        return kind(*args)


def parse(text: str):
    """Parse one formula; raises ParseError with an offset on bad input,
    including a formula nested deeper than :data:`MAX_NESTING`."""
    p = _Parser(text)
    f = p.formula()[0]
    p.take("end")
    return f


def render(f) -> str:
    """Canonical text form; ``parse(render(f))`` returns an equal formula."""
    kind = type(f)
    if kind is Eq:
        return f"{f.x.name} = {f.y.name}"
    if kind in ATOMS:
        names = ",".join(a.name for a in _atom_args(f))
        return f"{f.name}<{names}>" if kind is Defined else f"{kind.__name__}({names})"
    if kind is Not:
        return f"~{_wrap(f.f)}"
    if kind in _CONNECTIVES:
        return f"{_wrap(f.lhs)} {_CONNECTIVES[kind]} {_wrap(f.rhs)}"
    if kind is Forall or kind is Exists:
        return f"{kind.__name__.lower()} {f.v.name}. {render(f.body)}"
    raise TypeError(f"not a formula: {f!r}")


def _wrap(f) -> str:
    if isinstance(f, ATOMS) or isinstance(f, Not):
        return render(f)
    return f"({render(f)})"


def parse_sentences(text: str) -> List[Tuple[str, object]]:
    """Parse a sentence file: one sentence per line, '#' starts a comment.

    Lines may carry an optional leading ``name:`` label (an identifier that
    is not an atom head followed by a colon).
    """
    out = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        name = f"line-{lineno}"
        head, _, rest = line.partition(":")
        label = head.strip()
        if rest and " " not in label and label not in (*_HEADS, "forall", "exists"):
            name, line = label, rest
        out.append((name, parse(line)))
    return out


# -- finite models ----------------------------------------------------------------

@dataclass
class FiniteModel:
    """A finite structure: a carrier plus total relation oracles.

    Three tables live as long as the model and serve every formula compiled
    over it: ``answers`` holds the oracles' answers, one table per relation;
    ``classes`` interns alpha classes of subformulas; ``memos`` holds one
    truth table per quantifier alpha class.  None is an init field, so a copy
    made with ``dataclasses.replace`` starts with all three empty.
    """

    name: str
    signature: str
    carrier: Tuple
    bland: Callable = None
    wand: Callable = None
    member: Callable = None
    tap: Callable = None
    defined: Dict[str, Callable] = field(default_factory=dict)
    answers: Dict[object, dict] = field(default_factory=dict, init=False, repr=False)
    classes: Dict[object, int] = field(default_factory=dict, init=False, repr=False)
    memos: Dict[int, dict] = field(default_factory=dict, init=False, repr=False)


# The closure of a negation or a connective, built from its operands' closures.
_JOIN = {
    Not: lambda body: lambda env: not body(env),
    And: lambda lhs, rhs: lambda env: lhs(env) and rhs(env),
    Or: lambda lhs, rhs: lambda env: lhs(env) or rhs(env),
    Implies: lambda lhs, rhs: lambda env: not lhs(env) or rhs(env),
    Iff: lambda lhs, rhs: lambda env: lhs(env) == rhs(env),
}


def compile_formula(model: FiniteModel, f, params: Sequence[Var]) -> Callable[..., bool]:
    """Compile ``f`` once over ``model`` into a function of the values of ``params``.

    An eager bottom-up walk gives every variable an integer slot and returns,
    for each node, the node's free slots in first-use order, its alpha-class
    id, and a builder of its closure over a list environment indexed by slot
    (a quantifier sets and restores its own slot in place).  The id is
    interned in the model's ``classes`` from a flat tuple of the node's tag,
    its children's class ids and the positions that wire them together: where
    each argument of an atom, or each free slot of a right operand, sits among
    the node's free slots, and where a quantifier's variable sits among its
    body's (-1 if absent).  A one-argument atom's class is its tag alone.  The
    walk raises the signature and unbound-variable errors before anything is
    built or evaluated.

    Memos live as long as the model, so they serve every formula compiled
    over it.  All quantifiers of one alpha class share one memo in the
    model's ``memos``, keyed by the values of their free slots in that order,
    so the alpha-equivalent copies of a subformula that a translation emits,
    in one sentence or across a batch, are evaluated once per binding.  A
    quantifier builds its body's closures on its first memo miss, so a copy
    that only ever hits builds none.  All atoms of one relation share one
    memo keyed by their argument values, kept in the model's ``answers``, so
    no oracle of a model is called twice with the same arguments.
    Connectives, ``Not`` and ``Eq`` keep none.

    Quantifiers move inward: ``(P op Q) op R`` chains of ``&`` or ``|`` are
    reassociated to ``P op (Q op R)``; then, on a non-empty carrier, ``Qv.
    L op R`` (``op`` one of ``&``, ``|``, ``->``) compiles as ``L op Qv. R``
    when ``L`` does not mention ``v``, and a quantifier whose variable does
    not occur in its body is dropped.  On an empty carrier both would change
    the truth value, so quantifiers stay where they are.

    Invariant: on a fresh model, oracles are first called on the same tuples,
    in the same order, as a top-down reading of ``f``.  Connectives
    short-circuit left to right, and a guard left inside a quantifier only
    repeats calls it made for the first binding.  A model without an oracle
    for a defined atom raises SignatureError when that atom is first
    evaluated.
    """
    slots: Dict[Var, int] = {}
    for v in params:
        slots.setdefault(v, len(slots))
    allowed = _ALLOWED[model.signature]
    carrier, classes = model.carrier, model.classes
    bad: List[object] = []

    def slot(v: Var) -> int:
        got = slots.get(v)
        if got is None:
            got = slots[v] = len(slots)
        return got

    def walk(g) -> Tuple[Callable, Tuple[int, ...], int]:
        kind = type(g)
        if kind is Eq:
            i, j = idx = slot(g.x), slot(g.y)
            free = (i,) if i == j else idx
            cls = classes.setdefault((Eq, len(free)), len(classes))
            return (lambda: lambda env: env[i] == env[j]), free, cls
        if kind in _RELATIONS:
            if kind not in allowed and not bad:
                bad.append(g)
            idx = tuple(map(slot, _atom_args(g)))
            free = idx if len(idx) == 1 else tuple(dict.fromkeys(idx))
            tag = g.name if kind is Defined else kind
            cls = classes.setdefault(tag if len(idx) == 1 else (tag, *map(free.index, idx)),
                                     len(classes))
            return (lambda: _atom(model, g, tag, idx)), free, cls
        if kind is Not:
            body, free, bc = walk(g.f)
            cls = classes.setdefault((Not, bc), len(classes))
            return (lambda: _JOIN[Not](body())), free, cls
        if kind in _CONNECTIVES:
            return join(kind, walk(g.lhs), walk(g.rhs))
        if kind is Forall or kind is Exists:
            return quantify(kind, g.v, g.body)
        raise TypeError(f"not a formula: {g!r}")

    def join(kind, left, right) -> Tuple[Callable, Tuple[int, ...], int]:
        (lhs, lf, lc), (rhs, rf, rc) = left, right
        free = tuple(dict.fromkeys(lf + rf))
        cls = classes.setdefault((kind, lc, rc, *map(free.index, rf)), len(classes))
        return (lambda: _JOIN[kind](lhs(), rhs())), free, cls

    def quantify(kind, v: Var, body) -> Tuple[Callable, Tuple[int, ...], int]:
        s, inner = slot(v), _rotate(body)
        if carrier and type(inner) in _MOVABLE:
            left = walk(inner.lhs)
            if s not in left[1]:
                return join(type(inner), left, quantify(kind, v, inner.rhs))
            build_body, bf, bc = join(type(inner), left, walk(inner.rhs))
        else:
            build_body, bf, bc = walk(inner)
        at = bf.index(s) if s in bf else -1
        if carrier and at < 0:
            return build_body, bf, bc
        want_all = kind is Forall
        free = bf[:at] + bf[at + 1:] if at >= 0 else bf
        cls = classes.setdefault((kind, bc, at), len(classes))

        def build() -> Callable:
            body, key, memo = None, _getter(free), model.memos.setdefault(cls, {})

            def run(env) -> bool:  # memoized in place: one stack frame a level
                nonlocal body
                k = key(env)
                out = memo.get(k)
                if out is None:
                    if body is None:
                        body = build_body()
                    saved, out = env[s], want_all
                    for e in carrier:
                        env[s] = e
                        if body(env) != want_all:
                            out = not want_all
                            break
                    env[s] = saved
                    memo[k] = out
                return out

            return run

        return build, free, cls

    top, free, _ = walk(f)
    missing = sorted(v.name for v, i in slots.items() if i in free and v not in params)
    if missing:
        raise SignatureError(f"unbound variables: {missing}")
    if bad:
        raise SignatureError(
            f"{type(bad[0]).__name__} atom not in signature {model.signature}")
    run, width = top(), len(slots)

    def holds(*values) -> bool:
        env = [None] * width
        env[:len(values)] = values
        return run(env)

    return holds


def _rotate(g):
    """Reassociate a left-nested ``&`` or ``|`` chain to the right: ``(P op Q) op R``
    becomes ``P op (Q op R)``, which short-circuits in the same order."""
    while isinstance(g, (And, Or)) and type(g.lhs) is type(g):
        g = type(g)(g.lhs.lhs, type(g)(g.lhs.rhs, g.rhs))
    return g


def _atom(model: FiniteModel, g, tag, idx: Tuple[int, ...]) -> Callable:
    """The closure of the relational atom ``g`` read at slots ``idx``: its
    oracle's answer, kept in the model's ``answers`` table for ``tag``."""
    rel, get, one = _relation(model, g), _getter(idx), len(idx) == 1
    memo = model.answers.setdefault((tag, len(idx)), {})

    def run(env) -> bool:
        k = get(env)
        hit = memo.get(k)
        if hit is None:
            hit = memo[k] = bool(rel(k) if one else rel(*k))
        return hit

    return run


def _relation(model: FiniteModel, g) -> Callable:
    """The oracle a relational atom reads."""
    if type(g) is not Defined:
        return getattr(model, _ORACLES[type(g)])
    oracle = model.defined.get(g.name)
    if oracle is None:
        def oracle(*_):
            raise SignatureError(f"model {model.name} has no oracle {g.name!r}")
    return oracle


def _getter(idx: Sequence[int]) -> Callable:
    """Read slots ``idx`` of an environment: a bare value for one slot, a
    tuple for several, ``()`` for none."""
    return itemgetter(*idx) if idx else (lambda env: ())


def eval_formula(model: FiniteModel, f, env: Optional[Dict[Var, object]] = None) -> bool:
    """Tarskian truth over ``model``; quantifiers range over the carrier.

    ``env`` binds the free variables of ``f``.  The formula is compiled by
    :func:`compile_formula` into slot-indexed closures whose memos live with
    the model and are keyed by free-variable values, so large relativized
    guards stay cheap across a batch; an unbound variable or an atom outside
    the model's signature raises SignatureError before anything is evaluated.
    """
    env = env or {}
    return compile_formula(model, f, tuple(env))(*env.values())


# -- helpers for building formulas -------------------------------------------------

class _Fresh:
    def __init__(self, prefix: str = "_v"):
        self.prefix = prefix
        self.n = 0

    def __call__(self) -> Var:
        self.n += 1
        return Var(f"{self.prefix}{self.n}")


def subset(x: Var, y: Var, fresh: _Fresh):
    z = fresh()
    return Forall(z, Implies(In(z, x), In(z, y)))


def hb_formula(v: Var, fresh: _Fresh):
    """Hereditary blandness, in the witness-set form: v is bland and some
    superset of v has only bland subsets of itself as members."""
    c, x = fresh(), fresh()
    return And(Bland(v),
               Exists(c, And(subset(v, c, fresh),
                             Forall(x, Implies(In(x, c),
                                               And(subset(x, c, fresh), Bland(x)))))))


def found_at_formula(x: Var, r: Var, fresh: _Fresh):
    """x is found at r: a bland subset of r, or a tap of one of r's members."""
    w, b = fresh(), fresh()
    return Or(And(Bland(x), subset(x, r, fresh)),
              Exists(w, Exists(b, And(In(b, r), Tap(w, b, x)))))


def _history_pot(s: Var, fresh: _Fresh, found_at: Callable, wistory: bool):
    """s is the pot of some history h: every member a of h is the pot of
    its members in h, and a pot collects everything ``found_at`` one of the
    source's members.  A wistory must also be bland."""
    h = fresh()

    def pot_eq(target: Var, source: Var, extra: Optional[Var]):
        # target = { x : exists r in source (and r in extra) with x found at r }
        x, r = fresh(), fresh()
        guard = In(r, source) if extra is None else And(In(r, source), In(r, extra))
        return Forall(x, Iff(In(x, target),
                             Exists(r, And(guard, found_at(x, r, fresh)))))

    a = fresh()
    history = Forall(a, Implies(In(a, h), pot_eq(a, a, h)))
    if wistory:
        history = And(Bland(h), history)
    return Exists(h, And(history, pot_eq(s, h, None)))


def wevel_formula(s: Var, fresh: _Fresh):
    """s is a stage proxy: a bland set that is the pot of some wistory."""
    return And(Bland(s), _history_pot(s, fresh, found_at_formula, wistory=True))


def lt_level_formula(s: Var, fresh: _Fresh):
    """s is a level of the plain hierarchy: the pot of some history, where
    pot collects all subsets of members."""
    return _history_pot(s, fresh, subset, wistory=False)


def closed(f):
    """Universally close a formula."""
    for v in sorted(free_vars(f), key=lambda v: v.name, reverse=True):
        f = Forall(v, f)
    return f


# -- translations -----------------------------------------------------------------

def _translate(f, atom: Callable, guard: Optional[Callable] = None):
    """Rebuild ``f`` with every atom ``g`` replaced by ``atom(g)``, keeping the
    connectives.  With ``guard``, each quantifier is relativized to it:
    ``forall v. guard(v) -> B`` and ``exists v. guard(v) & B``.  A guard is
    built before its body and a left operand before its right, so fresh
    names are numbered in reading order."""
    kind = type(f)
    if kind in ATOMS:
        return atom(f)
    if kind is Not:
        return Not(_translate(f.f, atom, guard))
    if kind in _CONNECTIVES:
        lhs = _translate(f.lhs, atom, guard)
        return kind(lhs, _translate(f.rhs, atom, guard))
    if kind is Forall or kind is Exists:
        if guard is None:
            return kind(f.v, _translate(f.body, atom, guard))
        g = guard(f.v)
        body = _translate(f.body, atom, guard)
        return kind(f.v, Implies(g, body) if kind is Forall else And(g, body))
    raise TypeError(f"not a formula: {f!r}")


def translate_tau(f):
    """lt -> ws: relativize quantifiers to hereditary blandness and guard
    membership the same way; the wand predicate carries over."""
    check_signature(f, SIG_LT)
    fresh = _Fresh("_h")

    def atom(g):
        if type(g) is In:
            return And(g, hb_formula(g.y, fresh))
        if type(g) is Defined:
            raise SignatureError(f"cannot translate defined atom {g.name!r}")
        return g

    return _translate(f, atom, lambda v: hb_formula(v, fresh))


def translate_tolt(f):
    """ws -> lt extended with stage-interpreted predicates.

    The stage side defines blandness, membership, wandhood and tapping from
    its own encodings; those four come out as named atoms whose oracles a
    stage model supplies (``bland*``, ``wand*``, ``in*``, ``tap*``; a defined
    atom gains a ``*`` too), and quantifiers are guarded by the universe-code
    predicate."""
    check_signature(f, SIG_WS)

    def atom(g):
        if type(g) is Eq:
            return g
        name = g.name if type(g) is Defined else type(g).__name__.lower()
        return Defined(name + "*", _atom_args(g))

    return _translate(f, atom, lambda v: Defined("conch", (v,)))


def bland_bullet(a: Var, fresh: _Fresh):
    """Blandness in membership-only terms: not self-membered, and the set
    plus the empty set exists."""
    b, x, z = fresh(), fresh(), fresh()
    empty_x = Forall(z, Not(In(z, x)))
    return And(Not(In(a, a)),
               Exists(b, Forall(x, Iff(In(x, b), Or(In(x, a), empty_x)))))


def _is_zero(n: Var, fresh: _Fresh):
    z = fresh()
    return Forall(z, Not(In(z, n)))


def translate_bullet(f):
    """ws -> e: a single membership relation carries the whole theory.

    Wandhood becomes finite-ordinalhood; tapping becomes its graph
    description (complements by exact complementation against everything,
    cardinality wands by the n-equivalence predicate)."""
    check_signature(f, SIG_WS)
    fresh = _Fresh("_b")

    def atom(g):
        kind = type(g)
        if kind is Bland:
            return bland_bullet(g.t, fresh)
        if kind is Wand:
            return Defined("finord", (g.t,))
        if kind is In:
            return And(g, bland_bullet(g.y, fresh))
        if kind is Tap:
            n, a, c = g.w, g.a, g.c
            d, x, y = fresh(), fresh(), fresh()
            comp_case = And(
                _is_zero(n, fresh),
                And(Forall(d, Implies(bland_bullet(d, fresh),
                                      Exists(x, Iff(In(x, d), In(x, a))))),
                    Forall(y, Iff(In(y, c), Not(In(y, a))))))
            z = fresh()
            card_case = And(
                And(Defined("finord", (n,)), Exists(z, In(z, n))),
                And(Defined("nequiv@", (n, a, a)),
                    Forall(y, Iff(In(y, c), Defined("nequiv@", (n, y, a))))))
            return Or(comp_case, card_case)
        if kind is Defined:
            if g.name == "nequiv":
                return Defined("nequiv@", g.args)
            raise SignatureError(f"cannot translate defined atom {g.name!r}")
        return g

    return _translate(f, atom)


def varin_formula(x: Var, a: Var, fresh: _Fresh):
    """Expansive membership as a ws formula with an n-equivalence atom.

    Four cases: a bland; a the complement of a bland set; a the n-cardinal
    of a bland set; a the complement of such a cardinal."""
    c, n, t, z = fresh(), fresh(), fresh(), fresh()
    nonzero = Exists(z, In(z, n))
    case_bland = And(Bland(a), In(x, a))
    case_comp = Exists(c, And(Bland(c), And(Tap_zero(c, a, fresh), Not(In(x, c)))))
    case_card = Exists(c, Exists(n, And(
        And(Bland(c), And(Wand(n), nonzero)),
        And(Tap(n, c, a), Defined("nequiv", (n, x, c))))))
    case_comp_card = Exists(c, Exists(n, Exists(t, And(
        And(Bland(c), And(Wand(n), nonzero)),
        And(And(Tap(n, c, t), Tap_zero(t, a, fresh)),
            Not(Defined("nequiv", (n, x, c))))))))
    return Or(Or(case_bland, case_comp), Or(case_card, case_comp_card))


def Tap_zero(arg: Var, out: Var, fresh: _Fresh):
    w = fresh()
    return Exists(w, And(_is_zero(w, fresh), Tap(w, arg, out)))


def translate_circle(f):
    """e -> ws: read the membership of the source expansively."""
    check_signature(f, SIG_E)
    fresh = _Fresh("_c")
    return _translate(f, lambda g: varin_formula(g.x, g.y, fresh) if type(g) is In else g)


TRANSLATIONS = {
    "tau": (translate_tau, SIG_LT, SIG_WS),
    "tolt": (translate_tolt, SIG_WS, SIG_LT),
    "bullet": (translate_bullet, SIG_WS, SIG_E),
    "circle": (translate_circle, SIG_E, SIG_WS),
}


def identity_preserving(source, output) -> bool:
    """Translations must map equality atoms to equality atoms: check that
    ``output`` carries exactly the Eq atoms of ``source``, counted with
    multiplicity (syntactic)."""
    return Counter(_eq_atoms(source)) == Counter(_eq_atoms(output))


def _eq_atoms(f) -> Iterable[Eq]:
    return (g for g in _atoms(f) if isinstance(g, Eq))


# -- models over fragments and stages ------------------------------------------------

def fragment_model(frag) -> FiniteModel:
    """The ws reading of a fragment: primitive blandness, membership, taps."""
    wand_index = {oid: idx for idx, oid in frag.wand_obj_ids().items()}
    carrier = tuple(frag.ids())

    def member(x, y):
        return bool(universe.member_mask(frag, y) >> x & 1)

    model = FiniteModel(
        name=f"{frag.spec.name}-d{frag.depth}", signature=SIG_WS, carrier=carrier,
        bland=frag.is_bland,
        wand=lambda x: x in wand_index,
        member=member, tap=_tap_oracle(frag, wand_index))
    model.defined["nequiv"] = _nequiv_oracle(frag)
    model.defined["finord"] = _finord_oracle(frag)
    # oracles for circle-composites: e-side defined atoms read back over ws
    model.defined["nequiv@"] = _nequiv_over_semantics(
        model, bland_sem=_predicate(model, _CIRCLE_BLAND, _CB_VAR),
        member_sem=lambda x, y: instances.varin(frag, x, y)
        if instances.is_church(frag.spec) else member(x, y))
    return model


_CB_VAR = Var("_cbv")


def _predicate(model: FiniteModel, f, v: Var) -> Callable[[object], bool]:
    """``x -> f holds over model with v bound to x``.

    ``f`` is compiled on the first call, once the model's oracles are all in
    place, and every later call reuses the compiled closures and their memos.
    """
    holds = None

    def pred(x) -> bool:
        nonlocal holds
        if holds is None:
            holds = compile_formula(model, f, (v,))
        return holds(x)

    return pred


def _tap_oracle(q, wand_of: Dict[object, int]) -> Callable[[object, object, object], bool]:
    """``(w, a, c) -> c is the tap of a by the wand that w designates``, read
    from the set query q; False when w designates no wand or q never
    registered that tap (a tap out of the top rank of a fragment)."""
    def tap(w, a, c) -> bool:
        try:
            return w in wand_of and q.resolve_tap(wand_of[w], a) == c
        except BeyondFragment:
            return False

    return tap


def _nequiv_oracle(q) -> Callable[[object, object, object], bool]:
    """``(n, x, y) -> x and y are n-equivalent over the set query q``, where
    ``n`` must decode to a numeral of at least 1."""
    def nequiv(n, x, y) -> bool:
        k = instances.vn_decode(q, n)
        return k is not None and k >= 1 and instances.n_equiv_over(q, x, y, k)

    return nequiv


def _finord_oracle(q) -> Callable[[object], bool]:
    """``x -> x decodes over the set query q to a numeral n that names a
    wand of q's spec``, which is what ``Wand`` reads: a church:k spec has
    wands 0..k only, though its fragments hold larger numerals."""
    nwands = len(q.spec.wands)
    return lambda x: (n := instances.vn_decode(q, x)) is not None and n < nwands


def _nequiv_over_semantics(model: FiniteModel, bland_sem, member_sem):
    """Generic n-equivalence computed against supplied semantic predicates,
    each answer read once."""
    once = functools.lru_cache(maxsize=None)

    class _Q:  # a class instance: the n-key group tables are weakly keyed by it
        is_bland = staticmethod(once(lambda h: bool(bland_sem(h))))
        members = staticmethod(once(lambda h: tuple(
            x for x in model.carrier if member_sem(x, h)) if _Q.is_bland(h) else ()))

    return _nequiv_oracle(_Q())


def lt_model(frag) -> FiniteModel:
    """The lt side at matching depth: pure sets of rank below the fragment's
    top stage, with the spec's wand designations marked."""
    top_level = lt_levels(frag.depth + 1)[-1]
    carrier = top_level.elements  # already in canonical order
    wand_codes = {vn(w.index) for w in frag.spec.wands}

    return FiniteModel(
        name=f"lt-d{frag.depth}", signature=SIG_LT, carrier=carrier,
        wand=lambda x: x in wand_codes,
        member=lambda x, y: x in y.elements)


def conch_model(stages) -> FiniteModel:
    """The stage side: carrier is every generated code, with the defined
    predicates of the stage reading."""
    carrier = stages.ranked(stages.depth - 1)
    wand_of, conches = stages.wand_of, stages.conchrank

    model = FiniteModel(
        name=f"stages-{stages.spec.name}-d{stages.depth}",
        signature=SIG_LT, carrier=carrier,
        wand=lambda x: x in wand_of,
        member=lambda x, y: x in y.elements)
    model.defined["conch"] = lambda x: x in conches
    model.defined["bland*"] = lambda x: x in conches and stages.is_bland(x)
    model.defined["in*"] = lambda x, y: y in conches and x in stages.members(y)
    model.defined["wand*"] = lambda x: x in wand_of
    model.defined["tap*"] = _tap_oracle(stages, wand_of)
    model.defined["finord*"] = _finord_oracle(stages)
    model.defined["nequiv*"] = _nequiv_oracle(stages)
    return model


def varin_model(frag) -> FiniteModel:
    """The e reading of a church fragment: one, expansive, membership."""
    if not instances.is_church(frag.spec):
        raise SignatureError("expansive reading requires a church fragment")
    carrier = tuple(frag.ids())
    model = FiniteModel(
        name=f"{frag.spec.name}-d{frag.depth}-expansive", signature=SIG_E,
        carrier=carrier,
        member=lambda x, y: instances.varin(frag, x, y))
    model.defined["finord"] = _finord_oracle(frag)
    model.defined["nequiv@"] = _nequiv_over_semantics(
        model,
        bland_sem=_predicate(model, _BULLET_BLAND, _CB_VAR),
        member_sem=lambda x, y: instances.varin(frag, x, y))
    return model


_BULLET_BLAND = bland_bullet(_CB_VAR, _Fresh("_bb"))
_CIRCLE_BLAND = translate_circle(_BULLET_BLAND)


# -- axiom corpora -------------------------------------------------------------------

def ws_axioms() -> List[Tuple[str, object]]:
    """The bookkeeping and stage axioms of the object theory, with
    separation shipped as finite instances (quantifiers relativize to the
    fragment when evaluated, so the stage axiom reads as stated)."""
    fresh = _Fresh("_a")
    x, a, b, c, d, w, s = (Var(n) for n in "xabcdws")
    axioms = [
        ("in-only-bland", closed(Implies(In(x, a), Bland(a)))),
        ("tap-wand-nonbland", closed(Implies(Tap(w, a, c),
                                             And(Wand(w), Not(Bland(c)))))),
        ("tap-functional", closed(Implies(And(Tap(w, a, c), Tap(w, a, d)),
                                          Eq(c, d)))),
        ("extensionality", parse(
            "forall a. forall b. (Bland(a) & Bland(b)) -> "
            "((forall x. In(x,a) <-> In(x,b)) -> a = b)")),
        ("separation-nonself", parse(
            "forall a. Bland(a) -> (exists b. (Bland(b) & "
            "(forall x. In(x,b) <-> (In(x,a) & ~In(x,x)))))")),
        ("separation-bland", parse(
            "forall a. Bland(a) -> (exists b. (Bland(b) & "
            "(forall x. In(x,b) <-> (In(x,a) & Bland(x)))))")),
        ("no-self-membership", closed(Not(In(a, a)))),
        ("empty-set", parse("exists a. (Bland(a) & (forall x. ~In(x,a)))")),
    ]
    strat = Forall(a, Exists(s, And(wevel_formula(s, fresh),
                                    found_at_formula(a, s, fresh))))
    axioms.append(("stages-cover-everything", strat))
    return axioms


def ws_relativized_axioms() -> List[Tuple[str, object]]:
    """Height-flavored sentences, read over the fragment carrier.

    Shallow fragments may falsify them (the set of wands first appears at
    the stage after the last wand), so they ship separately: preservation
    checks compare truth values across a translation without asserting them.
    """
    x, b = Var("x"), Var("b")
    wand_set = Exists(b, And(Bland(b), Forall(x, Iff(In(x, b), Wand(x)))))
    return [("wand-set-exists-relativized", wand_set)]


def lt_relativized_axioms() -> List[Tuple[str, object]]:
    x, b = Var("x"), Var("b")
    wand_set = Exists(b, Forall(x, Iff(In(x, b), Wand(x))))
    return [("wand-set-exists-relativized", wand_set)]


def lt_axioms() -> List[Tuple[str, object]]:
    fresh = _Fresh("_a")
    a, s = Var("a"), Var("s")
    axioms = [
        ("extensionality", parse(
            "forall a. forall b. (forall x. In(x,a) <-> In(x,b)) -> a = b")),
        ("separation-nonself", parse(
            "forall a. exists b. forall x. In(x,b) <-> (In(x,a) & ~In(x,x))")),
        ("separation-wand", parse(
            "forall a. exists b. forall x. In(x,b) <-> (In(x,a) & Wand(x))")),
        ("no-self-membership", parse("forall a. ~In(a,a)")),
        ("empty-set", parse("exists a. forall x. ~In(x,a)")),
    ]
    strat = Forall(a, Exists(s, And(lt_level_formula(s, fresh),
                                    subset(a, s, fresh))))
    axioms.append(("levels-cover-everything", strat))
    return axioms


# -- random sentences ------------------------------------------------------------------

RANDOM_DEPTH = 3  # the connective and quantifier depth of random sentences


def random_sentences(sig: str, count: int, seed: int) -> List[Tuple[str, object]]:
    """Deterministic corpus of closed sentences of modest quantifier depth."""
    rng = random.Random(seed)
    pool = [Var(n) for n in ("x", "y", "z")]
    kinds = [k for k in _ALLOWED[sig] if k in _ARGS]

    def atom(bound: List[Var]):
        kind = rng.choice(kinds)
        return kind(*(rng.choice(bound) for _ in _ARGS[kind]))

    def gen(depth: int, bound: List[Var]):
        if bound and (depth <= 0 or rng.random() < 0.3):
            return atom(bound)
        if not bound or rng.random() < 0.5:
            v = pool[len(bound) % len(pool)]
            if v in bound:
                v = Var(v.name + str(len(bound)))
            q = Forall if rng.random() < 0.5 else Exists
            return q(v, gen(depth - 1, bound + [v]))
        if rng.random() < 0.35:
            return Not(gen(depth - 1, bound))
        conn = rng.choice(list(_CONNECTIVES))
        return conn(gen(depth - 1, bound), gen(depth - 1, bound))

    out = []
    for i in range(count):
        f = gen(RANDOM_DEPTH, [])
        out.append((f"random-{sig}-{i}", closed(f)))
    return out


# -- interpretation checking -------------------------------------------------------------

def bullet_circle_identities() -> List[Tuple[str, object]]:
    """Closed ws sentences asserting each primitive coincides with its image
    under the bullet-then-circle composite."""
    x, a, w, c = Var("x"), Var("a"), Var("w"), Var("c")

    def comp(f):
        return translate_circle(translate_bullet(f))

    return [
        ("bland-roundtrip", closed(Iff(Bland(a), comp(Bland(a))))),
        ("membership-roundtrip", closed(Iff(In(x, a), comp(In(x, a))))),
        ("wand-roundtrip", closed(Iff(Wand(w), comp(Wand(w))))),
        ("tap-roundtrip", closed(Iff(Tap(w, a, c), comp(Tap(w, a, c))))),
    ]


def circle_bullet_identities() -> List[Tuple[str, object]]:
    """Closed e sentences asserting membership survives circle-then-bullet."""
    x, a = Var("x"), Var("a")
    comp = translate_bullet(translate_circle(In(x, a)))
    return [("membership-roundtrip", closed(Iff(In(x, a), comp)))]


@dataclass
class InterpretationRow:
    name: str
    src_value: bool
    dst_value: bool

    @property
    def ok(self) -> bool:
        return self.src_value == self.dst_value


def check_interpretation(src: FiniteModel, dst: FiniteModel, translation: str,
                         sentences: Iterable[Tuple[str, object]]) -> List[InterpretationRow]:
    """Evaluate each sentence on the source and its translation on the
    target; a preserved sentence yields equal truth values."""
    fn, src_sig, dst_sig = TRANSLATIONS[translation]
    if src.signature != src_sig or dst.signature != dst_sig:
        raise SignatureError(
            f"{translation} maps {src_sig}->{dst_sig}, got {src.signature}->{dst.signature}")
    rows = []
    for name, f in sentences:
        rows.append(InterpretationRow(
            name=name,
            src_value=eval_formula(src, f),
            dst_value=eval_formula(dst, fn(f))))
    return rows
