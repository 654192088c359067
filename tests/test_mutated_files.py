"""One-site mutations of a valid church:2 universe file: every command that
reads it exits with a documented code and never raises."""

import contextlib
import copy
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wandset import cli

from conftest import built

DOCUMENTED = {cli.EXIT_OK, 1, cli.EXIT_BEYOND, cli.EXIT_USAGE, cli.EXIT_DATA}

VALUES = [-1, 0, 1, 2, 3, 11, 2**70, True, False, None, 0.5, "", "bland", "tapped",
          "church:2", "church:5", "pure", [], [0], [[0, 0]], {}]
CHARS = '0129[]{},:" -aekt'
OBJECTS = ["0", "1", "5", "10", "11", "{}", "{{}}", "{{},{{}}}"]


@pytest.fixture(scope="module")
def valid():
    return cli.export_fragment(built("church:2", 3))


@pytest.fixture(scope="module")
def path(tmp_path_factory):
    return str(tmp_path_factory.mktemp("mutated") / "u.json")


def value_sites(doc):
    """The key path of each value a mutation may change: every header
    field, object field, member id, class pair entry, wevel and wevel id."""
    sites = [("header", k) for k in doc["header"]]
    for i, o in enumerate(doc["objects"]):
        sites += [("objects", i, k) for k in o]
        sites += [("objects", i, "members", j) for j in range(len(o.get("members", ())))]
        sites += [("objects", i, "class", j, k)
                  for j in range(len(o.get("class", ()))) for k in (0, 1)]
    for i, c in enumerate(doc["wevels"]):
        sites += [("wevels", i)] + [("wevels", i, j) for j in range(len(c))]
    return sites


@st.composite
def mutations(draw, text):
    """``text`` with one value changed, one object deleted or duplicated, or
    one character overwritten."""
    how = draw(st.sampled_from(["value", "object", "char"]))
    if how == "char":
        i = draw(st.integers(0, len(text) - 1))
        return text[:i] + draw(st.sampled_from(CHARS)) + text[i + 1:]
    doc = json.loads(text)
    if how == "object":
        objects = doc["objects"]
        i = draw(st.integers(0, len(objects) - 1))
        if draw(st.booleans()):
            del objects[i]
        else:
            objects.insert(i, copy.deepcopy(objects[i]))
    else:
        *keys, last = draw(st.sampled_from(value_sites(doc)))
        at = doc
        for k in keys:
            at = at[k]
        at[last] = draw(st.sampled_from(VALUES))
    return json.dumps(doc)


def run(argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return cli.main(argv)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_every_command_on_a_mutated_file_exits_with_a_documented_code(valid, path, data):
    text = data.draw(mutations(valid))
    obj, other = data.draw(st.sampled_from(OBJECTS)), data.draw(st.sampled_from(OBJECTS))
    wand = data.draw(st.integers(0, 3))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    for argv in (["query", "rank", "--obj", obj],
                 ["query", "tap", "--wand", str(wand), "--arg", obj],
                 ["query", "kind", "--obj", obj],
                 ["query", "member", "--x", other, "--of", obj, "--expansive"],
                 ["verify", "--suite", "all"]):
        assert run(argv + ["--in", path]) in DOCUMENTED, argv


# One class pair of the church:2 depth-3 file changed, by object id: the file
# keeps its shape, ranks and canonical order, but no build makes the class.
CLASS_MUTATIONS = [(2, [1, 0]), (2, [2, 0]), (9, [0, 2]), (10, [2, 1])]


@pytest.mark.parametrize("oid, pair", CLASS_MUTATIONS,
                         ids=[f"object-{oid}-{w}-{b}" for oid, (w, b) in CLASS_MUTATIONS])
def test_a_tap_class_no_build_makes_is_bad_data(valid, path, capsys, oid, pair):
    doc = json.loads(valid)
    assert doc["objects"][oid]["kind"] == "tapped" and len(doc["objects"][oid]["class"]) == 1
    doc["objects"][oid]["class"] = [pair]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(doc))
    for argv in (["query", "rank", "--obj", "0"], ["verify", "--suite", "all"]):
        assert cli.main(argv + ["--in", path]) == cli.EXIT_DATA, argv
        assert capsys.readouterr().err == \
            f"bad data: object {oid}: not the tap class of its first pair\n"


def test_every_change_of_one_class_pair_is_bad_data(valid):
    # each pair of each tapped object moved to every other wand of the spec
    # and earlier object: whatever check names it, the file is bad data
    doc = json.loads(valid)
    by_class = 0
    for oid, o in enumerate(doc["objects"]):
        for j, old in enumerate(o.get("class", ())):
            for new in ([w, b] for w in range(3) for b in range(oid)):
                if new == old:
                    continue
                mutated = copy.deepcopy(doc)
                mutated["objects"][oid]["class"][j] = new
                with pytest.raises(cli.DataError) as err:
                    cli.import_fragment(json.dumps(mutated))
                by_class += "not the tap class" in str(err.value)
    assert by_class >= len(CLASS_MUTATIONS)


def _depth_lowered(doc):
    # header depth 2 over the depth-3 objects, with the wevels of depth 2
    doc["header"]["depth"] = 2
    doc["wevels"] = [[], [0], list(range(len(doc["objects"])))]
    return "object 3: rank 2 at or above depth 2"


def _top_tap_dropped(doc):
    # *0{{}} (object 9) dropped: no object refers to it, and *1{{}} becomes 9
    assert doc["objects"].pop(9) == {"class": [[0, 1]], "kind": "tapped", "ordrank": 2}
    doc["wevels"][3] = list(range(len(doc["objects"])))
    return "object 1: its tap by wand 0 is missing"


@pytest.mark.parametrize("mutate", [_depth_lowered, _top_tap_dropped],
                         ids=["depth-lowered", "top-tap-dropped"])
def test_a_file_no_build_of_its_depth_makes_is_bad_data(valid, path, capsys, mutate):
    # every object is well formed and in canonical order, but a build of the
    # file's depth makes no object of its rank, or makes the missing tap
    doc = json.loads(valid)
    says = mutate(doc)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(doc))
    for argv in (["query", "rank", "--obj", "0"], ["verify", "--suite", "all"]):
        assert cli.main(argv + ["--in", path]) == cli.EXIT_DATA, argv
        assert capsys.readouterr().err == f"bad data: {says}\n"
