"""The one-pass universe-file reader and the direct writer against the
reference implementations they replaced (``reference_universe_io.py``): the
same bytes out, the same fragment in, and the same verdict on bad data."""

import json

import pytest

import reference_universe_io as ref
import test_cli as cases
from conftest import built
from wandset import cli
from wandset.cli import DataError

GOOD = ([(name, 3, {}) for name in ("pure", "conway", "partial-fun", "multiset",
                                    "church:1", "church:2")]
        + [("pure", 4, {}), ("conway", 4, {}), ("church:2", 4, {"mode": "sampled"})])


def state(frag):
    """Everything the reader fills in, as plain values."""
    return ((frag.spec.name, frag.depth, frag.exhaustive),
            [(o.id, o.ordrank, o.members, o.tclass) for o in frag.objects],
            frag._bland_index, frag._tap_index, frag.wevel_contents)


@pytest.mark.parametrize("name, depth, kw", GOOD,
                         ids=[f"{n}-d{d}{'-sampled' if kw else ''}" for n, d, kw in GOOD])
def test_reader_and_writer_match_the_references(name, depth, kw):
    frag = built(name, depth, **kw)
    text = ref.export_fragment(frag)
    assert cli.export_fragment(frag) == text
    got = cli.import_fragment(text)
    assert state(got) == state(ref.import_fragment(text)) == state(frag)
    assert cli.export_fragment(got) == text


def corrupt_texts(tmp_path):
    """(name, text) of every corrupt file ``test_cli.py`` feeds the reader;
    each has a single fault."""
    out = [("malformed", '{"header": {"format_version": 1}}')]
    out += [(n, json.dumps(cases._corrupt(objs, wevels)))
            for n, (objs, wevels) in zip(cases.BAD_ID_NAMES, cases.BAD_IDS)]
    out += [(n, json.dumps(cases._retyped(path, value)))
            for n, (path, value) in zip(cases.INEXACT_TYPE_NAMES, cases.INEXACT_TYPES)]
    for depth in (0, -1):
        doc = {"header": {"depth": depth, "exhaustive": True, "format_version": 1,
                          "spec_name": "pure"}, "objects": [], "wevels": [[]][:depth + 1]}
        out.append((f"depth-{depth}", json.dumps(doc)))
    for make in (cases._sampled_marked_exhaustive, cases._golden_without_a_singleton):
        out.append((make.__name__, json.dumps(make(tmp_path)[0])))
    church3 = json.loads(cli.export_fragment(built("church:2", 3)))
    for stage2 in ([0, 1], [0, 2, 1], [0, 0, 2], [0, 1, 3]):
        church3["wevels"][2] = stage2
        out.append((f"wevel-2-{stage2}", json.dumps(church3)))
    return out


def message(read, text):
    with pytest.raises(DataError) as info:
        read(text)
    return str(info.value)


def test_both_readers_name_the_same_fault_in_each_corrupt_file(tmp_path, capsys):
    texts = corrupt_texts(tmp_path)
    capsys.readouterr()
    assert len(texts) == 1 + 17 + 18 + 2 + 2 + 4
    got = {name: message(cli.import_fragment, text) for name, text in texts}
    want = {name: message(ref.import_fragment, text) for name, text in texts}
    assert got == want


def test_an_object_out_of_order_is_named_before_a_later_fault():
    # object 4 sorts before object 3, and object 5 names an object not yet read
    text = json.dumps(cases._corrupt(
        [dict(cases._SINGLETON, members=[1], ordrank=2),
         dict(cases._SINGLETON, members=[0, 1], ordrank=2),
         dict(cases._SINGLETON, members=[9], ordrank=2)], {2: [0, 1, 2, 3, 4, 5]}))
    assert message(cli.import_fragment, text) == "object 4: out of canonical order"
    assert message(ref.import_fragment, text) == "object 5: members must be earlier objects"

