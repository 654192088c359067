"""The universe-file reader and writer as they were before they worked in one
pass: a dict per object through ``json.dumps``, and a reader that typed each
id through a generator, looked each member up through ``Fragment.obj`` and
checked canonical order in a closing pass.  Kept as references for the
differential tests in ``test_universe_io.py``; not collected by pytest."""

import bisect
import json
from collections import Counter
from typing import List, Tuple

from wandset import wandspec
from wandset.cli import FORMAT_VERSION, DataError
from wandset.universe import Fragment, Obj



def _check_canonical(objects: List[Obj]) -> None:
    """Raise DataError unless ids follow canonical order: each object's
    members or class pairs increase, and so does its (ordrank, kind, members
    or class) from one object to the next."""
    last: tuple = ()
    for o in objects:
        body = o.members if o.is_bland else o.tclass
        key = (o.ordrank, 0 if o.is_bland else 1, body)
        if any(a >= b for a, b in zip(body, body[1:])) or key <= last:
            raise DataError(f"object {o.id}: out of canonical order")
        last = key


def export_fragment(frag: Fragment) -> str:
    """Serialize with the fragment's ids, which a build makes canonical;
    byte-stable across runs.  Ids out of canonical order are bad data."""
    _check_canonical(frag.objects)
    objects = []
    for o in frag.objects:
        if o.is_bland:
            rec = {"kind": "bland", "members": list(o.members), "ordrank": o.ordrank}
        else:
            rec = {"kind": "tapped", "class": [list(p) for p in o.tclass],
                   "ordrank": o.ordrank}
        objects.append(rec)
    doc = {
        "header": {"format_version": FORMAT_VERSION, "spec_name": frag.spec.name,
                   "depth": frag.depth, "exhaustive": frag.exhaustive},
        "objects": objects,
        "wevels": [list(c) for c in frag.wevel_contents],
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def _typed(value, kind: type, what: str):
    """``value`` when its JSON type is exactly ``kind`` (a bool is no int)."""
    if type(value) is not kind:
        raise DataError(f"{what}: expected {kind.__name__}, not {type(value).__name__}")
    return value


def _ids(value, what: str) -> Tuple[int, ...]:
    return tuple(_typed(i, int, what) for i in _typed(value, list, what))


def import_fragment(text: str) -> Fragment:
    """Read a universe file with canonical ids, as export writes them; a
    value of any other JSON type than export writes is bad data."""
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
        for oid, rec in enumerate(_typed(doc["objects"], list, "objects")):
            what = f"object {oid}"
            if rec["kind"] == "bland":
                members = _ids(rec["members"], what)
                if any(not 0 <= m < oid for m in members):
                    raise DataError(f"object {oid}: members must be earlier objects")
                rank = _typed(rec["ordrank"], int, what)
                want = 0 if not members else 1 + max(
                    frag.obj(m).ordrank for m in members)
                if rank != want:
                    raise DataError(f"object {oid}: rank {rank}, expected {want}")
                o = Obj(oid, rank, members, None)
                frag._bland_index[members] = oid
            elif rec["kind"] == "tapped":
                cls = tuple(_ids(p, what) for p in _typed(rec["class"], list, what))
                if any(not 0 <= b < oid or w not in wands for w, b in cls):
                    raise DataError(f"object {oid}: class pairs must name a wand "
                                    "and an earlier object")
                rank = _typed(rec["ordrank"], int, what)
                arg_ranks = {frag.obj(b).ordrank for _, b in cls}
                if len(arg_ranks) != 1 or arg_ranks.pop() + 1 != rank:
                    raise DataError(f"object {oid}: tap rank law broken")
                o = Obj(oid, rank, None, cls)
                frag._tap_index[cls] = oid
            else:
                raise DataError(f"unknown kind {rec['kind']!r}")
            frag.objects.append(o)
        _check_canonical(frag.objects)
        frag.wevel_contents = [_ids(c, "wevel") for c in _typed(doc["wevels"], list, "wevels")]
        if len(frag.wevel_contents) != frag.depth + 1:
            raise DataError("wevel list does not match depth")
        # canonical order sorts by rank, so wevel i < depth lists the ids 0, 1,
        # ... of rank below i, and the last one every id
        ranks = [o.ordrank for o in frag.objects]
        for i, c in enumerate(frag.wevel_contents):
            if i == frag.depth:
                if c != tuple(range(len(ranks))):
                    raise DataError(f"wevel {i} must list every id")
            elif c != tuple(range(bisect.bisect_left(ranks, i))):
                raise DataError(f"wevel {i} must list the ids of rank below {i}")
        if frag.exhaustive:
            # an exhaustive build registers every subset of wevel i at stage
            # i; checking the bit length first keeps the shift small
            per_rank = Counter(o.ordrank for o in frag.objects if o.is_bland)
            blands = 0
            for i, c in enumerate(frag.wevel_contents[:-1]):
                blands += per_rank[i]
                if len(c) >= blands.bit_length() or blands != 1 << len(c):
                    raise DataError(f"exhaustive fragment has {blands} bland sets "
                                    f"of rank <= {i}, not 2**{len(c)}")
        return frag
    except (KeyError, TypeError, ValueError, json.JSONDecodeError) as exc:
        raise DataError(str(exc)) from exc
