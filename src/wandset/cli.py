"""Command-line front end: build, query, verify, translate, export.

Exit codes: 0 success, 2 object budget exceeded, 3 answer beyond the built
fragment, 64 usage (a missing or malformed argument, unknown spec, incompatible
suite), 65 bad data (malformed universe file or formula, or a file that cannot
be read or written).
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import json
import operator
import os
import sys
from collections import Counter
from typing import Dict, List, Optional, Tuple

from . import conch, instances, universe, wandspec
from .errors import (BeyondFragment, CapExceeded, ParseError, SignatureError,
                     SpecError, WandsetError)
from .pureset import acyclic, mk_set
from .universe import Fragment, Obj

FORMAT_VERSION = 1

EXIT_OK = 0
EXIT_CAP = 2
EXIT_BEYOND = 3
EXIT_USAGE = 64
EXIT_DATA = 65


class DataError(WandsetError):
    pass


class UsageError(WandsetError):
    pass


class _Parser(argparse.ArgumentParser):
    """Reports an argument error as a UsageError (exit 64), not exit 2."""

    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


def _positive_int(text: str) -> int:
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, not {n}")
    return n


# -- universe files ------------------------------------------------------------

def _check_canonical(objects: List[Obj]) -> None:
    """Raise DataError unless ids follow canonical order: each object's
    members or class pairs increase, and so does its (ordrank, kind, members
    or class) from one object to the next."""
    last: tuple = ()
    for o in objects:
        body = o.members if o.is_bland else o.tclass
        key = (o.ordrank, 0 if o.is_bland else 1, body)
        if not all(map(operator.lt, body, body[1:])) or key <= last:
            raise DataError(f"object {o.id}: out of canonical order")
        last = key


def export_fragment(frag: Fragment) -> str:
    """Serialize with the fragment's ids, which a build makes canonical;
    byte-stable across runs.  Ids out of canonical order are bad data.  The
    text is ``json.dumps(doc, sort_keys=True, separators=(",", ":"))``, with
    each int list written as its ``str`` values joined by commas."""
    _check_canonical(frag.objects)
    header = json.dumps({"format_version": FORMAT_VERSION, "spec_name": frag.spec.name,
                         "depth": frag.depth, "exhaustive": frag.exhaustive},
                        sort_keys=True, separators=(",", ":"))
    id_of = list(map(str, range(len(frag.objects)))).__getitem__  # made once per write
    objects = ",".join(
        f'{{"kind":"bland","members":[{",".join(map(id_of, o.members))}],'
        f'"ordrank":{o.ordrank}}}' if o.members is not None else
        f'{{"class":[{",".join(f"[{w},{id_of(b)}]" for w, b in o.tclass)}],'
        f'"kind":"tapped","ordrank":{o.ordrank}}}' for o in frag.objects)
    wevels = ",".join(f"[{','.join(map(id_of, c))}]" for c in frag.wevel_contents)
    return f'{{"header":{header},"objects":[{objects}],"wevels":[{wevels}]}}\n'


_INT = frozenset({int})


def _typed(value, kind: type, what: str):
    """``value`` when its JSON type is exactly ``kind`` (a bool is no int)."""
    if type(value) is not kind:
        raise DataError(f"{what}: expected {kind.__name__}, not {type(value).__name__}")
    return value


def _ids(value, what: str) -> Tuple[int, ...]:
    """``value``, a list of exact ints, as a tuple."""
    if type(value) is not list or not _INT.issuperset(map(type, value)):
        for i in _typed(value, list, what):
            _typed(i, int, what)
    return tuple(value)


def _tap_class(spec: wandspec.WandSpec, w: int, b: int, frag: Fragment, oid: int):
    """``wandspec.tap_class``; a tap it finds beyond the file names ``oid``."""
    try:
        return wandspec.tap_class(spec, w, b, frag)
    except BeyondFragment as exc:
        raise DataError(f"object {oid}: {exc}") from exc


@acyclic()
def import_fragment(text: str) -> Fragment:
    """Read a universe file with canonical ids, as export writes them; a
    value of any other JSON type than export writes is bad data.  Each object
    is checked as it is read, its canonical order and a tapped object's class
    included, so the first faulty object is named before any fault after it.
    Then the file as a whole must be one a build of its depth makes: its
    wevels, no object ranked at or above the depth, the bland census of an
    exhaustive file, and every tap a build registers."""
    try:
        doc = json.loads(text)
        header = doc["header"]
        if _typed(header["format_version"], int, "format_version") != FORMAT_VERSION:
            raise DataError(f"unsupported format {header['format_version']}")
        spec = wandspec.get_spec(_typed(header["spec_name"], str, "spec_name"))
        frag = Fragment(spec=spec, depth=_typed(header["depth"], int, "depth"),
                        exhaustive=_typed(header["exhaustive"], bool, "exhaustive"))
        if frag.depth < 1:  # as build requires
            raise DataError(f"depth must be >= 1, not {frag.depth}")
        wands = spec.wand_indices()
        objects, bland_index, tap_index = frag.objects, frag._bland_index, frag._tap_index
        ranks: List[int] = []
        last: tuple = ()
        # a bland object's name, "object N", is made only for a message, and
        # its _ids and _typed calls are reached only to raise theirs
        for oid, rec in enumerate(_typed(doc["objects"], list, "objects")):
            kind = rec["kind"]
            if kind == "bland":
                members = rec["members"]
                if type(members) is not list or not _INT.issuperset(map(type, members)):
                    _ids(members, f"object {oid}")
                rank = rec["ordrank"]
                if type(rank) is not int:
                    _typed(rank, int, f"object {oid}")
                members = tuple(members)
                if not all(map(operator.lt, members, members[1:])):
                    raise DataError(f"object {oid}: out of canonical order")
                if members and (members[0] < 0 or members[-1] >= oid):
                    raise DataError(f"object {oid}: members must be earlier objects")
                # the key check below keeps ranks ascending with ids
                want = 1 + ranks[members[-1]] if members else 0
                if rank != want:
                    raise DataError(f"object {oid}: rank {rank}, expected {want}")
                o, key = Obj(oid, rank, members, None), (rank, kind, members)
                bland_index[members] = oid
            elif kind == "tapped":
                what = f"object {oid}"
                cls = tuple(_ids(p, what) for p in _typed(rec["class"], list, what))
                rank = _typed(rec["ordrank"], int, what)
                if not all(map(operator.lt, cls, cls[1:])):
                    raise DataError(f"{what}: out of canonical order")
                if any(not 0 <= b < oid or w not in wands for w, b in cls):
                    raise DataError(f"{what}: class pairs must name a wand "
                                    "and an earlier object")
                arg_ranks = {ranks[b] for _, b in cls}
                if len(arg_ranks) != 1 or arg_ranks.pop() + 1 != rank:
                    raise DataError(f"{what}: tap rank law broken")
                if _tap_class(spec, *cls[0], frag, oid) != cls:
                    raise DataError(f"{what}: not the tap class of its first pair")
                o, key = Obj(oid, rank, None, cls), (rank, kind, cls)
                tap_index[cls] = oid
            else:
                raise DataError(f"unknown kind {kind!r}")
            if key <= last:  # "bland" sorts before "tapped"
                raise DataError(f"object {oid}: out of canonical order")
            last = key
            ranks.append(rank)
            objects.append(o)
        frag.wevel_contents = [_ids(c, "wevel") for c in _typed(doc["wevels"], list, "wevels")]
        if len(frag.wevel_contents) != frag.depth + 1:
            raise DataError("wevel list does not match depth")
        # canonical order sorts by rank, so wevel i < depth lists the ids 0, 1,
        # ... of rank below i, and the last one every id
        for i, c in enumerate(frag.wevel_contents):
            if i == frag.depth:
                if c != tuple(range(len(ranks))):
                    raise DataError(f"wevel {i} must list every id")
            elif c != tuple(range(bisect.bisect_left(ranks, i))):
                raise DataError(f"wevel {i} must list the ids of rank below {i}")
        # a build's last stage, depth - 1, makes objects of rank depth - 1 at most
        if ranks and ranks[-1] >= frag.depth:
            oid = bisect.bisect_left(ranks, frag.depth)
            raise DataError(f"object {oid}: rank {ranks[oid]} at or above "
                            f"depth {frag.depth}")
        if frag.exhaustive:
            # an exhaustive build registers every subset of wevel i at stage
            # i; checking the bit length first keeps the shift small
            per_rank = Counter(map(ranks.__getitem__, bland_index.values()))
            blands = 0
            for i, c in enumerate(frag.wevel_contents[:-1]):
                blands += per_rank[i]
                if len(c) >= blands.bit_length() or blands != 1 << len(c):
                    raise DataError(f"exhaustive fragment has {blands} bland sets "
                                    f"of rank <= {i}, not 2**{len(c)}")
        # every stage registers the taps of the objects found before it, so
        # the last one those of every object ranked below depth - 1
        for a in frag.wevel_contents[-2]:
            for w in wands:
                cls = _tap_class(spec, w, a, frag, a)
                if cls is not None and cls not in tap_index:
                    raise DataError(f"object {a}: its tap by wand {w} is missing")
        return frag
    except (KeyError, TypeError, ValueError, json.JSONDecodeError) as exc:
        raise DataError(str(exc)) from exc


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise DataError(str(exc)) from exc


def _load(path: str) -> Fragment:
    return import_fragment(_read(path))


@contextlib.contextmanager
def _output(path: str):
    """Open ``path`` for writing; failing to open or write it is bad data."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            yield fh
    except OSError as exc:
        raise DataError(str(exc)) from exc


def _parse_object(frag: Fragment, text: str) -> int:
    """An object argument: a decimal id, or brace notation for a
    hereditarily bland object ('{}', '{{}}', ...)."""
    text = text.strip()
    if text.isdecimal():
        oid = int(text)
        if not 0 <= oid < len(frag.objects):
            raise BeyondFragment(f"no object {oid}")
        return oid
    pure = _parse_braces(text)
    oid = universe.encode_pure(frag, pure)
    if oid is None:
        raise BeyondFragment(f"{text} not registered in this fragment")
    return oid


def _parse_braces(text: str):
    pos = 0

    def node():
        nonlocal pos
        if pos >= len(text) or text[pos] != "{":
            raise DataError(f"expected '{{' at {pos}")
        pos += 1
        elems = []
        while pos < len(text) and text[pos] != "}":
            if text[pos] in ", ":
                pos += 1
                continue
            elems.append(node())
        if pos >= len(text):
            raise DataError("unbalanced braces")
        pos += 1
        return mk_set(elems)

    out = node()
    if text[pos:].strip():
        raise DataError(f"trailing input at {pos}")
    return out


# -- verification suites ---------------------------------------------------------

def _print_suite(rows: List[Tuple[str, bool, str]]) -> bool:
    ok = True
    for name, passed, witness in rows:
        if passed:
            note = f" :: {witness}" if witness else ""
            print(f"PASS {name}{note}")
        else:
            ok = False
            print(f"FAIL {name} :: {witness}")
    return ok


# -- commands ---------------------------------------------------------------------

def cmd_build(args) -> int:
    max_objects = args.max_objects
    if max_objects is None:
        try:
            max_objects = _positive_int(os.environ.get(
                "WANDSET_MAX_OBJECTS", str(universe.DEFAULT_MAX_OBJECTS)))
        except argparse.ArgumentTypeError as exc:
            raise UsageError(f"WANDSET_MAX_OBJECTS: {exc}") from None
    try:
        spec = wandspec.get_spec(args.spec)
    except KeyError:
        raise UsageError(f"unknown spec {args.spec!r}") from None
    except SpecError as exc:
        raise UsageError(f"bad spec {args.spec!r}: {exc}") from None
    frag = universe.build(spec, args.depth, max_objects=max_objects, mode=args.mode)
    for alpha, contents in enumerate(frag.wevel_contents):
        print(f"stage {alpha}: {len(contents)} objects found earlier")
    by_rank: Dict[int, int] = {}
    for o in frag.objects:
        by_rank[o.ordrank] = by_rank.get(o.ordrank, 0) + 1
    print(f"total {len(frag.objects)} objects; by rank "
          + " ".join(f"{r}:{n}" for r, n in sorted(by_rank.items())))
    text = export_fragment(frag)
    with _output(args.out) as fh:
        fh.write(text)
    return EXIT_OK


# the object and wand arguments each query needs
_QUERY_ARGS = {"rank": ("obj",), "member": ("x", "of"), "tap": ("wand", "arg"),
               "decompose": ("obj",), "kind": ("obj",)}


def cmd_query(args) -> int:
    missing = [name for name in _QUERY_ARGS[args.what] if getattr(args, name) is None]
    if missing:
        raise UsageError(f"query {args.what} needs "
                         + " and ".join(f"--{name}" for name in missing))
    frag = _load(args.infile)
    if args.what == "rank":
        oid = _parse_object(frag, args.obj)
        print(frag.obj(oid).ordrank)
    elif args.what == "member":
        x = _parse_object(frag, args.x)
        of = _parse_object(frag, args.of)
        if args.expansive:
            if not instances.is_church(frag.spec):
                raise UsageError("--expansive requires a church spec")
            print("true" if instances.varin(frag, x, of) else "false")
        else:
            o = frag.obj(of)
            print("true" if o.is_bland and x in o.members else "false")
    elif args.what == "tap":
        if args.wand not in frag.spec.wand_indices():
            raise UsageError(f"--wand: spec {frag.spec.name} has no wand {args.wand}")
        arg = _parse_object(frag, args.arg)
        got = universe.tap(frag, args.wand, arg)
        print("none" if got is None else got)
    elif args.what == "decompose":
        oid = _parse_object(frag, args.obj)
        base, path = universe.decompose(frag, oid)
        print(f"base={base} path={path}")
    elif args.what == "kind":
        if not instances.is_church(frag.spec):
            raise UsageError("kind classification requires a church spec")
        oid = _parse_object(frag, args.obj)
        kind = instances.classify_kind(frag, oid)
        if kind.tag == "bland":
            print("bland")
        else:
            print(f"{kind.tag} n={kind.n} base={kind.base}")
    return EXIT_OK


def cmd_verify(args) -> int:
    from . import suites  # imported here: only verify needs it, and it costs set-up time

    frag = _load(args.infile)
    names: List[str]
    if args.suite == "all":
        names = ["core", "conch", "formula"]
        if instances.is_church(frag.spec):
            names.append("church")
    else:
        names = [args.suite]
    if "church" in names and not instances.is_church(frag.spec):
        raise UsageError(f"suite church incompatible with spec {frag.spec.name}")
    if ("conch" in names or "church" in names) and not frag.exhaustive:
        raise UsageError("conch/church suites require an exhaustive fragment")
    # read off the modules per call, so a wrapper installed on them after import runs
    table = {"core": suites.core_laws, "conch": suites.conch_laws,
             "formula": suites.formula_laws,
             "church": instances.check_cus_axioms}
    ok = True
    for name in names:
        rows = table[name](frag)
        print(f"# suite {name}")
        ok = _print_suite(rows) and ok
    return EXIT_OK if ok else 1


def cmd_eval(args) -> int:
    from . import formula  # imported here: only eval and translate need it

    frag = _load(args.src)
    sentences = formula.parse_sentences(_read(args.formula))
    model = formula.fragment_model(frag)
    for name, f in sentences:
        print(f"{name}: {'true' if formula.eval_formula(model, f) else 'false'}")
    return EXIT_OK


def cmd_translate(args) -> int:
    from . import formula

    if args.translation not in formula.TRANSLATIONS:
        raise UsageError(f"--translation: unknown {args.translation!r}; choose from "
                         + ", ".join(sorted(formula.TRANSLATIONS)))
    frag = _load(args.src)
    sentences = formula.parse_sentences(_read(args.formula))
    fn, src_sig, dst_sig = formula.TRANSLATIONS[args.translation]
    if not args.dst:
        for name, f in sentences:
            print(f"{name}: {formula.render(fn(f))}")
        return EXIT_OK
    dst = _load(args.dst)
    # the expansive reading, on the e side, needs a church fragment
    e_side = {"bullet": ("--dst", dst), "circle": ("--src", frag)}
    if args.translation in e_side:
        flag, side = e_side[args.translation]
        if not instances.is_church(side.spec):
            raise UsageError(f"--translation {args.translation} needs a church "
                             f"fragment as {flag}, not {side.spec.name}")
    src_model, dst_model = {
        "tau": lambda: (formula.lt_model(frag), formula.fragment_model(dst)),
        "tolt": lambda: (formula.fragment_model(frag), formula.conch_model(
            conch.gen_stages(dst.spec, dst.depth))),
        "bullet": lambda: (formula.fragment_model(frag), formula.varin_model(dst)),
        "circle": lambda: (formula.varin_model(frag), formula.fragment_model(dst)),
    }[args.translation]()
    rows = formula.check_interpretation(src_model, dst_model, args.translation,
                                        sentences)
    ok = True
    for row in rows:
        status = "preserved" if row.ok else "DISCREPANCY"
        ok = ok and row.ok
        print(f"{row.name}: src={row.src_value} dst={row.dst_value} {status}")
    return EXIT_OK if ok else 1


def cmd_export(args) -> int:
    frag = _load(args.infile)
    objects = frag.objects
    ids = list(map(str, range(len(objects))))  # made once per write
    # labels are built escaped, and only those ranked below the last object
    # are kept: a label reads only the labels of lower ranks
    top = objects[-1].ordrank if objects else 0
    low: List[str] = []
    of, id_of = low.__getitem__, ids.__getitem__
    with _output(args.dot) as fh:
        fh.write("digraph universe {\n")
        for o, i in zip(objects, ids):
            label = i
            if args.labels:
                label = universe.label(o, of, "\\{", "\\}")
                if o.ordrank < top:
                    low.append(label)
            shape = "box" if o.members is not None else "ellipse"
            fh.write(f'  n{i} [shape={shape} label="{label}"];\n')
        for o, i in zip(objects, ids):
            head = f"  n{i} -> n"
            if o.members is not None:
                if o.members:
                    fh.write(head + (";\n" + head).join(map(id_of, o.members)) + ";\n")
            else:
                fh.write("".join(f'{head}{ids[b]} [label="w{w}"];\n' for w, b in o.tclass))
        fh.write("}\n")
    return EXIT_OK


def make_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="wandset")
    sub = parser.add_subparsers(dest="command", required=True)

    b = sub.add_parser("build", help="grow a fragment and save it")
    b.add_argument("--spec", required=True)
    b.add_argument("--depth", type=_positive_int, required=True)
    # absent, cmd_build reads WANDSET_MAX_OBJECTS, so only build checks it
    b.add_argument("--max-objects", type=_positive_int)
    b.add_argument("--mode", choices=["exhaustive", "sampled"], default="exhaustive")
    b.add_argument("--out", required=True)
    b.set_defaults(fn=cmd_build)

    q = sub.add_parser("query", help="ask about one object")
    q.add_argument("what", choices=list(_QUERY_ARGS))
    q.add_argument("--in", dest="infile", required=True)
    q.add_argument("--obj")
    q.add_argument("--x")
    q.add_argument("--of")
    q.add_argument("--wand", type=int)
    q.add_argument("--arg")
    q.add_argument("--expansive", action="store_true")
    q.set_defaults(fn=cmd_query)

    v = sub.add_parser("verify", help="run law suites against a fragment")
    v.add_argument("--suite", choices=["core", "conch", "church", "formula", "all"],
                   required=True)
    v.add_argument("--in", dest="infile", required=True)
    v.set_defaults(fn=cmd_verify)

    e = sub.add_parser("eval", help="evaluate sentences on a fragment")
    e.add_argument("--formula", required=True)
    e.add_argument("--src", required=True)
    e.set_defaults(fn=cmd_eval)

    t = sub.add_parser("translate", help="translate sentences, optionally checking")
    t.add_argument("--formula", required=True)
    t.add_argument("--translation", required=True)
    t.add_argument("--src", required=True)
    t.add_argument("--dst")
    t.set_defaults(fn=cmd_translate)

    x = sub.add_parser("export", help="emit the membership digraph as DOT")
    x.add_argument("--in", dest="infile", required=True)
    x.add_argument("--dot", required=True)
    x.add_argument("--labels", action="store_true")
    x.set_defaults(fn=cmd_export)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    try:
        args = make_parser().parse_args(argv)
        return args.fn(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except CapExceeded as exc:
        print(f"object budget exceeded: {exc}", file=sys.stderr)
        return EXIT_CAP
    except BeyondFragment as exc:
        print(f"beyond fragment: {exc}", file=sys.stderr)
        return EXIT_BEYOND
    except (DataError, ParseError, SignatureError) as exc:
        print(f"bad data: {exc}", file=sys.stderr)
        return EXIT_DATA
    except KeyError as exc:
        print(f"usage error: unknown name {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
