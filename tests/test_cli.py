import json
import os
import pathlib
import shlex
import subprocess
import sys

import pytest

from wandset import cli, universe, wandspec

from conftest import ref_render, ref_sort_key


@pytest.fixture(scope="module")
def church_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("u") / "church3.json"
    assert cli.main(["build", "--spec", "church:2", "--depth", "3",
                     "--out", str(path)]) == 0
    return str(path)


@pytest.fixture(scope="module")
def pure_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("u") / "pure4.json"
    assert cli.main(["build", "--spec", "pure", "--depth", "4",
                     "--out", str(path)]) == 0
    return str(path)


def test_build_prints_stage_counts(capsys, tmp_path):
    out = tmp_path / "p.json"
    assert cli.main(["build", "--spec", "pure", "--depth", "4",
                     "--out", str(out)]) == 0
    lines = capsys.readouterr().out.splitlines()
    counts = [int(l.split(":")[1].split()[0]) for l in lines if l.startswith("stage")]
    assert counts == [0, 1, 2, 4, 16]


def test_build_reports_church_census(capsys, tmp_path):
    out = tmp_path / "c.json"
    assert cli.main(["build", "--spec", "church:2", "--depth", "3",
                     "--out", str(out)]) == 0
    assert "total 11 objects" in capsys.readouterr().out


def test_build_unknown_spec(tmp_path):
    assert cli.main(["build", "--spec", "nope", "--depth", "2",
                     "--out", str(tmp_path / "x.json")]) == 64


def test_build_cap_exceeded(tmp_path):
    assert cli.main(["build", "--spec", "pure", "--depth", "5",
                     "--max-objects", "100",
                     "--out", str(tmp_path / "x.json")]) == 2


def test_env_var_sets_default_cap(tmp_path, monkeypatch):
    monkeypatch.setenv("WANDSET_MAX_OBJECTS", "100")
    assert cli.main(["build", "--spec", "pure", "--depth", "5",
                     "--out", str(tmp_path / "x.json")]) == 2


@pytest.mark.parametrize("env, flag, says", [
    ("abc", [], "usage error: WANDSET_MAX_OBJECTS: not an integer: 'abc'"),
    ("0", [], "usage error: WANDSET_MAX_OBJECTS: must be >= 1, not 0"),
    (None, ["--max-objects", "-3"],
     "usage error: wandset build: argument --max-objects: must be >= 1, not -3"),
    ("100", ["--max-objects", "abc"],
     "usage error: wandset build: argument --max-objects: not an integer: 'abc'"),
], ids=["env-not-a-number", "env-zero", "flag-negative", "flag-not-a-number"])
def test_bad_object_budget_is_a_usage_error(capsys, tmp_path, monkeypatch, env, flag, says):
    if env is not None:
        monkeypatch.setenv("WANDSET_MAX_OBJECTS", env)
    out = tmp_path / "x.json"
    assert cli.main(["build", "--spec", "pure", "--depth", "2", "--out", str(out)] + flag) == 64
    assert capsys.readouterr().err == says + "\n"
    assert not out.exists()


def test_bad_object_budget_variable_leaves_other_commands_alone(capsys, monkeypatch, pure_file):
    monkeypatch.setenv("WANDSET_MAX_OBJECTS", "abc")
    assert cli.main(["query", "rank", "--obj", "{}", "--in", pure_file]) == 0
    assert capsys.readouterr().out == "0\n"


def test_export_import_roundtrip_bytes(church_file, pure_file):
    for path in (church_file, pure_file):
        text = open(path).read()
        assert cli.export_fragment(cli.import_fragment(text)) == text


def test_independent_builds_export_identically():
    spec = wandspec.get_spec("church:2")
    a = cli.export_fragment(universe.build(spec, 3))
    b = cli.export_fragment(universe.build(wandspec.get_spec("church:2"), 3))
    assert a == b


def test_universe_file_matches_golden(tmp_path):
    import pathlib

    golden = pathlib.Path(__file__).parent / "data" / "church2_d2.json"
    out = tmp_path / "u.json"
    assert cli.main(["build", "--spec", "church:2", "--depth", "2",
                     "--out", str(out)]) == 0
    assert out.read_bytes() == golden.read_bytes()


def test_dot_export_matches_golden(tmp_path):
    import pathlib

    data = pathlib.Path(__file__).parent / "data"
    dot = tmp_path / "u.dot"
    assert cli.main(["export", "--in", str(data / "church2_d2.json"),
                     "--dot", str(dot), "--labels"]) == 0
    assert dot.read_bytes() == (data / "church2_d2.dot").read_bytes()


def test_import_rejects_malformed(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"header": {"format_version": 1}}')
    assert cli.main(["query", "rank", "--obj", "0", "--in", str(bad)]) == 65


_GOLDEN_D2 = pathlib.Path(__file__).parent / "data" / "church2_d2.json"


def _corrupt(objs, wevels):
    doc = json.loads(_GOLDEN_D2.read_text())
    doc["objects"] += objs
    for i, w in wevels.items():
        doc["wevels"][i] = w
    return doc


# Objects appended after the golden file's three.  A negative id used to alias
# the last object, of rank 1, so those cases claim rank 2 to pass the rank check.
_SINGLETON = {"kind": "bland", "ordrank": 1}
_COMPLEMENT = {"kind": "tapped", "ordrank": 1}


# (objs, wevels) arguments of _corrupt, each with one fault
BAD_IDS = [
    ([dict(_SINGLETON, members=[-1], ordrank=2)], {}),
    ([dict(_SINGLETON, members=[7])], {}),
    ([dict(_COMPLEMENT, ordrank=2, **{"class": [[0, -1]]})], {}),
    ([dict(_COMPLEMENT, **{"class": [[0, 7]]})], {}),
    ([dict(_COMPLEMENT, **{"class": [[9, 0]]})], {}),
    ([], {1: [-1]}),
    ([], {2: [0, 1, 3]}),
    ([dict(_SINGLETON, members=[0])], {}),
    ([dict(_COMPLEMENT, **{"class": [[0, 0]]})], {}),
    ([], {2: [0, 1]}),
    ([], {1: []}),
    ([], {2: [0, 2, 1]}),
    # canonical order: within an object and from one object to the next
    ([dict(_SINGLETON, members=[1, 0], ordrank=2)], {2: [0, 1, 2, 3]}),
    ([dict(_SINGLETON, members=[1, 1], ordrank=2)], {2: [0, 1, 2, 3]}),
    ([dict(_COMPLEMENT, **{"class": [[1, 0], [0, 0]]})], {2: [0, 1, 2, 3]}),
    ([dict(_SINGLETON, members=[1], ordrank=2),
      dict(_SINGLETON, members=[0, 1], ordrank=2)], {2: [0, 1, 2, 3, 4]}),
    ([dict(_COMPLEMENT, ordrank=2, **{"class": [[0, 1]]}),
      dict(_SINGLETON, members=[1], ordrank=2)], {2: [0, 1, 2, 3, 4]}),
]
BAD_ID_NAMES = ["negative-member", "member-out-of-range", "negative-tap-argument",
                "tap-argument-out-of-range", "wand-out-of-range", "negative-wevel-id",
                "wevel-id-out-of-range", "duplicate-bland-set", "duplicate-tap-class",
                "last-wevel-cut-short", "wevel-without-a-low-rank-id", "wevel-out-of-order",
                "members-out-of-order", "repeated-member", "class-pairs-out-of-order",
                "same-rank-blands-swapped", "tapped-before-bland-of-its-rank"]


@pytest.mark.parametrize("objs, wevels", BAD_IDS, ids=BAD_ID_NAMES)
def test_import_rejects_bad_ids(capsys, tmp_path, objs, wevels):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(_corrupt(objs, wevels)))
    assert cli.main(["query", "rank", "--obj", "0", "--in", str(bad)]) == 65
    err = capsys.readouterr().err
    assert err.startswith("bad data:") and err.count("\n") == 1 and "Traceback" not in err


def _retyped(path, value):
    doc = json.loads(_GOLDEN_D2.read_text())
    *owners, last = path
    target = doc
    for key in owners:
        target = target[key]
    target[last] = value
    return doc


# (path, value) arguments of _retyped
INEXACT_TYPES = [
    (("header", "exhaustive"), "false"),
    (("header", "exhaustive"), 0),
    (("header", "depth"), "2"),
    (("header", "depth"), 2.7),
    (("header", "depth"), True),
    (("header", "format_version"), True),
    (("header", "spec_name"), 2),
    (("objects",), {"0": {}}),
    (("objects", 1, "ordrank"), True),
    (("objects", 1, "members"), "0"),
    (("objects", 1, "members"), [0.0]),
    (("objects", 1, "members"), {"0": 1}),
    (("objects", 2, "class"), ["00"]),
    (("objects", 2, "class"), [[False, 0]]),
    (("objects", 2, "class"), [[0, "0"]]),
    (("wevels",), "012"),
    (("wevels", 1), [False]),
    (("wevels", 1), "0"),
]
INEXACT_TYPE_NAMES = ["exhaustive-string", "exhaustive-int", "depth-string", "depth-float",
                      "depth-bool", "format-bool", "spec-name-int", "objects-dict",
                      "ordrank-bool", "members-string", "member-float", "members-dict",
                      "class-pair-string", "wand-bool", "tap-argument-string",
                      "wevels-string", "wevel-id-bool", "wevel-string"]


@pytest.mark.parametrize("path, value", INEXACT_TYPES, ids=INEXACT_TYPE_NAMES)
def test_import_rejects_inexact_json_types(capsys, tmp_path, path, value):
    # export writes ints, bools and lists; a file that would re-export to
    # other bytes is bad data
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(_retyped(path, value)))
    assert cli.main(["query", "rank", "--obj", "0", "--in", str(bad)]) == 65
    err = capsys.readouterr().err
    assert err.startswith("bad data:") and err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("depth", [0, -1])
def test_import_rejects_a_depth_no_build_makes(capsys, tmp_path, depth):
    # an empty fragment with the one wevel list such a depth asks for
    doc = {"header": {"depth": depth, "exhaustive": True, "format_version": 1,
                      "spec_name": "pure"}, "objects": [], "wevels": [[]][:depth + 1]}
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    for suite in ("core", "conch", "formula"):
        assert cli.main(["verify", "--suite", suite, "--in", str(bad)]) == 65
        assert capsys.readouterr().err == f"bad data: depth must be >= 1, not {depth}\n"


def _sampled_marked_exhaustive(tmp_path):
    # 9 objects: the budget leaves out {{},*0{}} and {{{}},*0{}} at stage 2
    path = tmp_path / "sampled.json"
    assert cli.main(["build", "--spec", "church:2", "--depth", "3", "--mode", "sampled",
                     "--max-objects", "9", "--out", str(path)]) == 0
    doc = json.loads(path.read_text())
    doc["header"]["exhaustive"] = True
    return doc, "bad data: exhaustive fragment has 6 bland sets of rank <= 2, not 2**3\n"


def _golden_without_a_singleton(tmp_path):
    # {{}} dropped from church:2 depth 2, and *0{} renumbered
    doc = json.loads(_GOLDEN_D2.read_text())
    assert doc["objects"][1] == {"kind": "bland", "members": [0], "ordrank": 1}
    del doc["objects"][1]
    doc["wevels"][2] = [0, 1]
    return doc, "bad data: exhaustive fragment has 1 bland sets of rank <= 1, not 2**1\n"


@pytest.mark.parametrize("make", [_sampled_marked_exhaustive, _golden_without_a_singleton],
                         ids=["sampled-marked-exhaustive", "golden-without-a-singleton"])
def test_import_rejects_an_exhaustive_file_without_the_bland_census(capsys, tmp_path, make):
    doc, says = make(tmp_path)
    capsys.readouterr()
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    doc["header"]["exhaustive"] = False
    good = tmp_path / "good.json"
    good.write_text(json.dumps(doc))
    assert cli.main(["query", "rank", "--obj", "0", "--in", str(good)]) == 0
    capsys.readouterr()
    for suite in ("core", "church"):
        assert cli.main(["verify", "--suite", suite, "--in", str(bad)]) == 65
        assert capsys.readouterr().err == says


def test_import_accepts_the_canonical_orders_of_the_rejected_cases(capsys, tmp_path):
    # the same objects as the out-of-order cases above, in canonical order;
    # they rank 2, so they are added to a depth-3 file: the sampled church:2
    # build without subsets, which has each stage's wevel set and every tap;
    # the class [[0, 0], [1, 0]] is not here, as no build makes it
    # (test_import_rejects_a_tap_class_no_build_makes)
    base = json.loads(cli.export_fragment(universe.build(
        wandspec.get_spec("church:2"), 3, mode="sampled", subset_bound=0)))
    assert len(base["objects"]) == 6 and {"class": [[0, 1]], "kind": "tapped",
                                           "ordrank": 2} in base["objects"]
    for objs in ([dict(_SINGLETON, members=[0, 1], ordrank=2)],
                 [dict(_SINGLETON, members=[0, 1], ordrank=2),
                  dict(_SINGLETON, members=[1], ordrank=2)],
                 [dict(_SINGLETON, members=[1], ordrank=2),
                  dict(_COMPLEMENT, ordrank=2, **{"class": [[0, 1]]})]):
        doc = json.loads(json.dumps(base))
        objects = doc["objects"]
        objects += [o for o in objs if o not in objects]
        # no object refers to one of rank 2, so sorting them renumbers nothing
        objects.sort(key=lambda o: (o["ordrank"], o["kind"], o.get("members", o.get("class"))))
        doc["wevels"][3] = list(range(len(objects)))
        good = tmp_path / "good.json"
        good.write_text(json.dumps(doc))
        ids = [objects.index(o) for o in objs]
        assert ids == sorted(ids)
        for oid in ids:
            assert cli.main(["query", "rank", "--obj", str(oid), "--in", str(good)]) == 0
            assert capsys.readouterr().out == "2\n"


@pytest.mark.parametrize("cls", [[[0, 0], [1, 0]], [[1, 0]], [[2, 0]]],
                         ids=["two-pairs", "1-cardinal-of-the-empty-set",
                              "2-cardinal-of-the-empty-set"])
def test_import_rejects_a_tap_class_no_build_makes(capsys, tmp_path, cls):
    # each class passes the shape, range, rank and order checks, but the
    # empty set has no cardinal, so its complement's class is [[0, 0]] alone
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(_corrupt([dict(_COMPLEMENT, **{"class": cls})],
                                       {2: [0, 1, 2, 3]})))
    assert cli.main(["query", "rank", "--obj", "0", "--in", str(bad)]) == 65
    assert capsys.readouterr().err == ("bad data: object 3: not the tap class "
                                       "of its first pair\n")


def test_import_rejects_a_sampled_file_without_a_tap_a_later_class_reads(capsys, tmp_path):
    # the complement of {{}} (object 4) dropped and the ids renumbered: the
    # complement of {{},{{}},*0{}} is in its wand's domain only if no earlier
    # bland set's complement is that object, which asks for the dropped tap
    doc = json.loads(cli.export_fragment(universe.build(
        wandspec.get_spec("church:2"), 4, mode="sampled", subset_bound=0)))
    assert doc["objects"].pop(4) == {"class": [[0, 1]], "kind": "tapped", "ordrank": 2}
    for o in doc["objects"]:
        if "members" in o:
            o["members"] = [i - (i > 4) for i in o["members"] if i != 4]
        else:
            o["class"] = [[w, b - (b > 4)] for w, b in o["class"]]
    doc["wevels"] = [[i - (i > 4) for i in c if i != 4] for c in doc["wevels"]]
    path = tmp_path / "sampled.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["query", "rank", "--obj", "0", "--in", str(path)]) == 65
    assert capsys.readouterr().err == "bad data: object 6: tap of wand 0 on rank-1 object\n"


@pytest.mark.parametrize("stage2", [[0, 1], [0, 2, 1], [0, 0, 2], [0, 1, 3]],
                         ids=["cut-short", "out-of-order", "repeated-id", "id-of-rank-2"])
def test_import_rejects_a_wrong_inner_wevel(capsys, church_file, tmp_path, stage2):
    # stage 2 of church:2 depth 3 holds the three objects of rank below 2; the
    # depth-2 golden file has no inner wevel long enough to reorder
    doc = json.loads(open(church_file).read())
    assert doc["wevels"][2] == [0, 1, 2]
    doc["wevels"][2] = stage2
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    for argv in (["query", "kind", "--obj", "0"], ["export", "--dot", str(tmp_path / "x.dot")],
                 ["verify", "--suite", "core"]):
        assert cli.main(argv + ["--in", str(bad)]) == 65
        assert capsys.readouterr().err == "bad data: wevel 2 must list the ids of rank below 2\n"


def test_query_tap(capsys, church_file):
    assert cli.main(["query", "tap", "--wand", "0", "--arg", "{}",
                     "--in", church_file]) == 0
    tap_id = int(capsys.readouterr().out.strip())
    frag = cli.import_fragment(open(church_file).read())
    assert frag.render(tap_id) == "*0{}"


def test_query_object_with_a_superscript_digit_is_bad_data(capsys, church_file):
    # "²".isdigit() holds but int() refuses it: it is read as brace notation
    assert cli.main(["query", "rank", "--obj", "²", "--in", church_file]) == 65
    assert capsys.readouterr().err == "bad data: expected '{' at 0\n"


def test_query_member_expansive(capsys, church_file):
    frag = cli.import_fragment(open(church_file).read())
    universal = next(i for i in frag.ids() if frag.render(i) == "*0{}")
    assert cli.main(["query", "member", "--expansive", "--x", "{}",
                     "--of", str(universal), "--in", church_file]) == 0
    assert capsys.readouterr().out.strip() == "true"
    # primitively, nothing is in a tap
    assert cli.main(["query", "member", "--x", "{}",
                     "--of", str(universal), "--in", church_file]) == 0
    assert capsys.readouterr().out.strip() == "false"


def assert_one_usage_error_line(capsys):
    err = capsys.readouterr().err
    assert err.startswith("usage error:") and err.count("\n") == 1


def test_query_expansive_requires_church(capsys, pure_file):
    assert cli.main(["query", "member", "--expansive", "--x", "{}",
                     "--of", "0", "--in", pure_file]) == 64
    assert_one_usage_error_line(capsys)


def test_query_kind_requires_church(capsys, pure_file):
    assert cli.main(["query", "kind", "--obj", "0", "--in", pure_file]) == 64
    assert_one_usage_error_line(capsys)


def test_query_decompose(capsys, church_file):
    frag = cli.import_fragment(open(church_file).read())
    comp = next(i for i in frag.ids() if frag.render(i) == "*0{{}}")
    single = next(i for i in frag.ids() if frag.render(i) == "{{}}")
    assert cli.main(["query", "decompose", "--obj", str(comp),
                     "--in", church_file]) == 0
    assert capsys.readouterr().out.strip() == f"base={single} path=[0]"


def test_query_kind(capsys, church_file):
    frag = cli.import_fragment(open(church_file).read())
    card = next(i for i in frag.ids() if frag.render(i) == "*1{{}}")
    assert cli.main(["query", "kind", "--obj", str(card),
                     "--in", church_file]) == 0
    out = capsys.readouterr().out.strip()
    assert out.startswith("tap_of_bland n=1")


def test_verify_all_on_conway(tmp_path, capsys):
    path = tmp_path / "conway3.json"
    assert cli.main(["build", "--spec", "conway", "--depth", "3",
                     "--out", str(path)]) == 0
    capsys.readouterr()
    assert cli.main(["verify", "--suite", "all", "--in", str(path)]) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out
    assert "# suite core" in out and "# suite conch" in out


def test_verify_church_suite(capsys, church_file):
    assert cli.main(["verify", "--suite", "church", "--in", church_file]) == 0
    assert "FAIL" not in capsys.readouterr().out


def test_verify_suite_spec_mismatch(capsys, pure_file):
    assert cli.main(["verify", "--suite", "church", "--in", pure_file]) == 64
    assert_one_usage_error_line(capsys)


def test_verify_conch_requires_exhaustive(capsys, tmp_path):
    path = tmp_path / "sampled.json"
    assert cli.main(["build", "--spec", "church:2", "--depth", "3",
                     "--mode", "sampled", "--out", str(path)]) == 0
    capsys.readouterr()
    assert cli.main(["verify", "--suite", "conch", "--in", str(path)]) == 64
    assert_one_usage_error_line(capsys)


def test_verify_conch_reports_slack(capsys, church_file):
    assert cli.main(["verify", "--suite", "conch", "--in", church_file]) == 0
    out = capsys.readouterr().out
    assert "slack" in out


def test_eval_and_translate(capsys, tmp_path, church_file):
    sent = tmp_path / "ax.sent"
    sent.write_text("ext: forall a. forall b. (Bland(a) & Bland(b)) -> "
                    "((forall x. In(x,a) <-> In(x,b)) -> a = b)\n")
    assert cli.main(["eval", "--formula", str(sent), "--src", church_file]) == 0
    assert capsys.readouterr().out.strip() == "ext: true"
    assert cli.main(["translate", "--formula", str(sent), "--translation", "tolt",
                     "--src", church_file, "--dst", church_file]) == 0
    assert "preserved" in capsys.readouterr().out


def test_translate_without_dst_prints(capsys, tmp_path, church_file):
    sent = tmp_path / "one.sent"
    sent.write_text("forall x. ~In(x,x)\n")
    assert cli.main(["translate", "--formula", str(sent), "--translation", "bullet",
                     "--src", church_file]) == 0
    assert "line-1:" in capsys.readouterr().out


# Golden translations on church:2 depth 3.  Each sentence file uses every atom
# of its signature, both quantifiers, ~ and the four binary connectives; the
# fresh names in the output pin the order in which a translation builds a
# quantifier's guard and body and a connective's operands.
@pytest.mark.parametrize("translation,source", [
    ("tau", "lt"), ("tolt", "ws"), ("bullet", "ws"), ("circle", "e")])
def test_translate_without_dst_matches_golden(capsys, church_file, translation, source):
    data = pathlib.Path(__file__).parent / "data" / "translate"
    assert cli.main(["translate", "--formula", str(data / f"{source}.sent"),
                     "--translation", translation, "--src", church_file]) == 0
    assert capsys.readouterr().out == (data / f"{translation}.out").read_text()


def test_eval_parse_error(tmp_path, church_file):
    sent = tmp_path / "bad.sent"
    sent.write_text("forall x In(x\n")
    assert cli.main(["eval", "--formula", str(sent), "--src", church_file]) == 65


def test_export_dot_deterministic(capsys, tmp_path, church_file):
    d1, d2 = tmp_path / "a.dot", tmp_path / "b.dot"
    assert cli.main(["export", "--in", church_file, "--dot", str(d1)]) == 0
    assert cli.main(["export", "--in", church_file, "--dot", str(d2)]) == 0
    assert d1.read_bytes() == d2.read_bytes()
    text = d1.read_text()
    assert "digraph" in text and '[label="w0"]' in text


def test_export_dot_pure_is_layered(tmp_path, capsys):
    path = tmp_path / "pure3.json"
    assert cli.main(["build", "--spec", "pure", "--depth", "3",
                     "--out", str(path)]) == 0
    dot = tmp_path / "p.dot"
    assert cli.main(["export", "--in", str(path), "--dot", str(dot)]) == 0
    text = dot.read_text()
    assert text.count("shape=box") == 4
    assert "->" in text


def reference_export(frag, labels):
    """The DOT text as the list-and-join export built it."""
    lines = ["digraph universe {"]
    order = sorted(frag.ids(), key=lambda i: ref_sort_key(frag, i))
    remap = {old: new for new, old in enumerate(order)}
    for old in order:
        o = frag.obj(old)
        shape = "box" if o.is_bland else "ellipse"
        label = ref_render(frag, old).replace("{", "\\{").replace("}", "\\}") \
            if labels else str(remap[old])
        lines.append(f'  n{remap[old]} [shape={shape} label="{label}"];')
    for old in order:
        o = frag.obj(old)
        if o.is_bland:
            for m in sorted(o.members, key=lambda i: remap[i]):
                lines.append(f"  n{remap[old]} -> n{remap[m]};")
        else:
            for w, b in sorted(o.tclass, key=lambda p: (p[0], remap[p[1]])):
                lines.append(f'  n{remap[old]} -> n{remap[b]} [label="w{w}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


# (spec, depth, build flags): the church builds carry tapped labels, and the
# sampled one tapped objects of its top rank
EXPORTED = [("conway", 4, []), ("church:2", 3, []), ("church:2", 4, []),
            ("church:2", 4, ["--mode", "sampled"])]


@pytest.mark.parametrize("labels", [False, True])
@pytest.mark.parametrize("spec, depth, flags", EXPORTED,
                         ids=[f"{s}-{d}" + ("-sampled" if f else "") for s, d, f in EXPORTED])
def test_streamed_export_matches_reference(tmp_path, capsys, monkeypatch,
                                           spec, depth, flags, labels):
    path = tmp_path / "u.json"
    assert cli.main(["build", "--spec", spec, "--depth", str(depth), "--out", str(path)]
                    + flags) == 0
    # the export builds its escaped labels itself, without the render memo
    monkeypatch.setattr(universe.Fragment, "render", None)
    dot = tmp_path / "u.dot"
    assert cli.main(["export", "--in", str(path), "--dot", str(dot)]
                    + (["--labels"] if labels else [])) == 0
    want = reference_export(cli.import_fragment(path.read_text()), labels)
    assert dot.read_bytes() == want.encode("utf-8")


def test_build_to_unwritable_path(capsys, tmp_path):
    out = tmp_path / "missing" / "x.json"
    assert cli.main(["build", "--spec", "pure", "--depth", "2",
                     "--out", str(out)]) == 65
    assert capsys.readouterr().err.startswith("bad data:")


@pytest.mark.parametrize("argv, says", [
    (["query", "kind"], "needs --obj"),
    (["query", "tap", "--arg", "{}"], "needs --wand"),
    (["query", "member", "--x", "{}"], "needs --of"),
    (["query", "rank"], "needs --obj"),
    (["build", "--spec", "church:x", "--depth", "2"], "bad spec 'church:x'"),
    (["build", "--spec", "church:-1", "--depth", "2"], "bad spec 'church:-1'"),
    (["build", "--spec", "pure", "--depth", "0"], "--depth: must be >= 1"),
    (["build", "--spec", "pure", "--depth", "two"], "--depth: not an integer"),
    (["build", "--spec", "pure"], "--depth"),
    (["frobnicate"], "frobnicate"),
    (["query", "tap", "--wand", "99", "--arg", "{}"], "has no wand 99"),
    (["query", "tap", "--wand", "-1", "--arg", "{}"], "has no wand -1"),
], ids=["kind-without-obj", "tap-without-wand", "member-without-of",
        "rank-without-obj", "spec-church-x", "spec-church-negative", "depth-0",
        "depth-not-a-number", "depth-missing", "unknown-command", "wand-99",
        "wand-negative"])
def test_argument_errors_exit_64(capsys, church_file, tmp_path, argv, says):
    where = ["--in", church_file] if argv[0] == "query" else \
        ["--out", str(tmp_path / "x.json")] if argv[0] == "build" else []
    assert cli.main(argv + where) == 64
    err = capsys.readouterr().err
    assert err.startswith("usage error:") and err.count("\n") == 1 and says in err
    assert not (tmp_path / "x.json").exists()


def test_spec_factory_failure_is_not_a_usage_error(monkeypatch, tmp_path):
    def broken(k):
        raise ValueError("factory bug")

    monkeypatch.setitem(wandspec.REGISTRY, "church", broken)
    with pytest.raises(ValueError, match="factory bug"):
        cli.main(["build", "--spec", "church:1", "--depth", "2",
                  "--out", str(tmp_path / "x.json")])


@pytest.mark.parametrize("depth", ["+2", " 2", "2 "])
def test_depth_accepts_what_int_accepts(tmp_path, depth):
    assert cli.main(["build", "--spec", "pure", "--depth", depth,
                     "--out", str(tmp_path / "x.json")]) == 0


@pytest.mark.parametrize("command", ["eval", "translate"])
def test_missing_formula_file_is_bad_data(capsys, church_file, tmp_path, command):
    argv = [command, "--formula", str(tmp_path / "none.sent"), "--src", church_file]
    if command == "translate":
        argv += ["--translation", "tau"]
    assert cli.main(argv) == 65
    assert capsys.readouterr().err.startswith("bad data:")


def test_export_to_unwritable_path(capsys, church_file, tmp_path):
    dot = tmp_path / "missing" / "x.dot"
    assert cli.main(["export", "--in", church_file, "--dot", str(dot)]) == 65
    assert capsys.readouterr().err.startswith("bad data:")


CORE_ROWS_CHURCH4 = [
    "least-stage-is-least", "wevels-well-ordered", "wevel-recognizer-exact",
    "nothing-in-its-own-stage", "no-self-membership", "stage-inclusion-vs-membership",
    "stage-proxy-ranks-itself", "stage-monotone-under-inclusion",
    "stage-of-member-strictly-below", "tap-rank-law", "tap-class-members-regenerate",
    "tap-defined-iff-in-domain", "taps-equal-iff-equivalent", "decompose-roundtrip",
    "equiv-identity-clause", "hereditarily-bland-three-ways",
    "ur-levels-recursion-vs-recognizer",
]
CHURCH_ROWS_CHURCH4 = [
    "complement-injective", "double-complement-identity", "cardinal-identity-law",
    "cardinals-not-complements", "making-biconditional", "kind-taxonomy-total",
    "complement-law", "generalized-extensionality", "complement-raises-rank",
]


def test_verify_core_and_church_on_church_depth4(capsys, tmp_path):
    # 2,062 objects; the oracle-backed core laws are skipped at this size
    path = tmp_path / "church4.json"
    assert cli.main(["build", "--spec", "church:2", "--depth", "4",
                     "--out", str(path)]) == 0
    assert "total 2062 objects" in capsys.readouterr().out
    assert cli.main(["verify", "--suite", "core", "--in", str(path)]) == 0
    assert capsys.readouterr().out.splitlines() == \
        ["# suite core"] + [f"PASS {name}" for name in CORE_ROWS_CHURCH4]
    assert cli.main(["verify", "--suite", "church", "--in", str(path)]) == 0
    assert capsys.readouterr().out.splitlines() == \
        ["# suite church"] + [f"PASS {name} :: []" for name in CHURCH_ROWS_CHURCH4]


CONCH_OUT_CHURCH3 = """\
# suite conch
PASS stage-encoding-laws
PASS roundtrip-code-clauses
PASS roundtrip-code-injective
PASS roundtrip-cross-construction
PASS roundtrip-hb-iso
PASS roundtrip-level-correspondence
PASS roundtrip-rank-correspondence
PASS roundtrip-relation-stability
PASS stage-0-rank-bound :: measured 4 bound 15 slack 11
PASS stage-1-rank-bound :: measured 8 bound 19 slack 11
PASS stage-2-rank-bound :: measured 12 bound 23 slack 11
"""


def test_verify_conch_on_church_depth3(capsys, church_file):
    assert cli.main(["verify", "--suite", "conch", "--in", church_file]) == 0
    assert capsys.readouterr().out == CONCH_OUT_CHURCH3


@pytest.mark.parametrize("spec, depth", [("church:1", "1"), ("church:2", "2")])
def test_verify_conch_below_the_top_wand_designation(capsys, tmp_path, spec, depth):
    # the numeral k ranks k, so these builds cannot hold the top wand's designation
    path = tmp_path / "shallow.json"
    assert cli.main(["build", "--spec", spec, "--depth", depth, "--out", str(path)]) == 0
    capsys.readouterr()
    assert cli.main(["verify", "--suite", "conch", "--in", str(path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "PASS roundtrip-hb-iso" in lines
    assert all(line.startswith("PASS ") for line in lines[1:])


def test_verify_formula_on_church1_depth3(capsys, tmp_path):
    # church:1 has wands 0 and 1 only, though its depth-3 fragment holds
    # the numeral 2: bullet must not read that numeral as a wand
    path = tmp_path / "church1.json"
    assert cli.main(["build", "--spec", "church:1", "--depth", "3",
                     "--out", str(path)]) == 0
    capsys.readouterr()
    assert cli.main(["verify", "--suite", "formula", "--in", str(path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "# suite formula" and "PASS bullet-circle-identity" in lines
    assert all(line.startswith("PASS ") for line in lines[1:])


def test_verify_all_on_church1_depth1(capsys, tmp_path):
    # bland_bullet asks for the set {{}}, which depth 1 lacks, so the two
    # rows that read it need depth 2; circle-bullet-identity still runs
    path = tmp_path / "church1.json"
    assert cli.main(["build", "--spec", "church:1", "--depth", "1",
                     "--out", str(path)]) == 0
    capsys.readouterr()
    assert cli.main(["verify", "--suite", "all", "--in", str(path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "PASS circle-bullet-identity" in lines
    assert not [line for line in lines
                if "bullet-preserves-axioms" in line or "bullet-circle-identity" in line]


@pytest.mark.parametrize("translation, flag", [("bullet", "--dst"), ("circle", "--src")])
def test_expansive_translation_on_a_non_church_side_is_a_usage_error(
        capsys, church_file, pure_file, tmp_path, translation, flag):
    sent = tmp_path / "one.sent"
    sent.write_text("forall x. ~In(x,x)\n")
    src, dst = (church_file, pure_file) if flag == "--dst" else (pure_file, church_file)
    assert cli.main(["translate", "--formula", str(sent), "--translation", translation,
                     "--src", src, "--dst", dst]) == 64
    assert capsys.readouterr().err == (f"usage error: --translation {translation} needs a "
                                       f"church fragment as {flag}, not pure\n")


def test_unknown_translation_is_a_usage_error(capsys, church_file, tmp_path):
    sent = tmp_path / "one.sent"
    sent.write_text("forall x. ~In(x,x)\n")
    assert cli.main(["translate", "--formula", str(sent), "--translation", "nope",
                     "--src", church_file]) == 64
    err = capsys.readouterr().err
    assert err.startswith("usage error: --translation: unknown 'nope'")
    assert err.count("\n") == 1 and "bullet, circle, tau, tolt" in err


def test_cli_and_suites_load_without_formula():
    import wandset

    src = str(pathlib.Path(wandset.__file__).parent.parent)
    code = "import sys, wandset.cli, wandset.suites; print('wandset.formula' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True, check=True).stdout
    assert out == "False\n"


@pytest.mark.parametrize("argv,code,stream,says", [
    (["query", "tap", "--wand", "0", "--arg", "10"], 3, "err",
     "beyond fragment: tap of wand 0 on rank-2 object\n"),
    (["query", "rank", "--obj", "99"], 3, "err", "beyond fragment: no object 99\n"),
    (["query", "rank", "--obj", "{{},{{}}}"], 0, "out", "2\n"),
    (["query", "rank", "--obj", "{{}"], 65, "err", "bad data: unbalanced braces\n"),
    (["query", "rank", "--obj", "{}}"], 65, "err", "bad data: trailing input at 2\n"),
])
def test_object_arguments_beyond_the_fragment_and_in_brace_notation(
        capsys, church_file, argv, code, stream, says):
    assert cli.main(argv + ["--in", church_file]) == code
    assert getattr(capsys.readouterr(), stream) == says


def readme_walkthrough():
    """The ``wandset`` command lines of the README's CLI walkthrough, split
    into arguments, with comments and line continuations removed."""
    text = (pathlib.Path(__file__).parent.parent / "README.md").read_text()
    block = text.split("## CLI walkthrough", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line, comments=True)[1:] for line in lines
            if line.startswith("wandset ")]


def test_readme_walkthrough(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "axioms.sent").write_text(
        "ext: forall a. forall b. (Bland(a) & Bland(b)) -> "
        "((forall x. In(x,a) <-> In(x,b)) -> a = b)\n")
    out = {}
    for argv in readme_walkthrough():
        assert cli.main(argv) == 0, argv
        out[" ".join(argv)] = capsys.readouterr().out
    build = out["build --spec church:2 --depth 3 --out church3.json"].splitlines()
    assert [int(l.split(":")[1].split()[0]) for l in build if l.startswith("stage")] \
        == [0, 1, 3, 11]
    assert out["query tap --wand 0 --arg {} --in church3.json"] == "2\n"
    assert out["query member --x {} --of 2 --in church3.json"] == "false\n"
    assert out["query member --expansive --x {} --of 2 --in church3.json"] == "true\n"
    assert "verify --suite all --in church3.json" in out
    assert (tmp_path / "church3.dot").read_text().startswith("digraph universe {")
