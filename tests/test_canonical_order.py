"""Objects get canonical ids, and store members and tap classes in canonical
order, from birth.

Each reference below sorts by :func:`ref_sort_key`, a nested key computed
from scratch, never by ids: it is the code that sorted ``.members`` or
``.tclass`` again on every use, when they were frozensets, and remapped ids
on export.  On every build the ids must make those sorts no-ops, so the
readers that dropped them give the same answers and write the same bytes.
"""

import itertools
import json

import pytest

from conftest import built, ref_render, ref_sort_key
from test_wandspec import (dom_splitting_spec, late_breaking_spec, lopsided_spec,
                           peeking_spec)
from wandset import cli, instances, universe, wandspec
from wandset.errors import TaxonomyViolation
from wandset.pureset import subsets

BUILDS = [(name, 3, {}) for name in ("pure", "conway", "partial-fun", "multiset",
                                     "church:1", "church:2")]
BUILDS += [("pure", 4, {}), ("conway", 4, {}), ("church:2", 4, {}),
           ("church:2", 4, {"mode": "sampled", "subset_bound": 2})]


def _build_id(build):
    return f"{build[0]}-{build[1]}" + ("-sampled" if build[2] else "")


@pytest.fixture(scope="module", params=BUILDS, ids=_build_id)
def frag(request):
    name, depth, kw = request.param
    return built(name, depth, **kw)


def ref_view_members(frag, h):
    o = frag.obj(h)
    return [] if o.members is None else sorted(o.members, key=lambda m: ref_sort_key(frag, m))


def ref_decompose(frag, a):
    o = frag.obj(a)
    if o.is_bland:
        return a, []
    w, b = min(o.tclass, key=lambda p: (p[0], ref_sort_key(frag, p[1])))
    base, path = ref_decompose(frag, b)
    return base, path + [w]


def ref_classify_kind(frag, a):
    o = frag.obj(a)
    if o.is_bland:
        return instances.CusKind("bland")
    bland_pairs = sorted(((w, b) for w, b in o.tclass if frag.is_bland(b)),
                         key=lambda p: (p[0], ref_sort_key(frag, p[1])))
    if bland_pairs:
        w, b = bland_pairs[0]
        if len({w2 for w2, _ in bland_pairs}) > 1:
            raise TaxonomyViolation(a)
        return instances.CusKind("tap_of_bland", w, b)
    for w, x in sorted(o.tclass, key=lambda p: (p[0], ref_sort_key(frag, p[1]))):
        if w != 0:
            raise TaxonomyViolation(a)
        inner = ref_classify_kind(frag, x)
        if inner.tag == "tap_of_bland" and inner.n and inner.n > 0:
            return instances.CusKind("comp_of_card", inner.n, inner.base)
    raise TaxonomyViolation(a)


def ref_order(frag):
    return sorted(frag.ids(), key=lambda i: ref_sort_key(frag, i))


def ref_export_fragment(frag):
    order = ref_order(frag)
    remap = {old: new for new, old in enumerate(order)}
    objects = []
    for old in order:
        o = frag.obj(old)
        if o.is_bland:
            rec = {"kind": "bland", "members": sorted(remap[m] for m in o.members),
                   "ordrank": o.ordrank}
        else:
            rec = {"kind": "tapped", "class": sorted([w, remap[b]] for w, b in o.tclass),
                   "ordrank": o.ordrank}
        objects.append(rec)
    doc = {
        "header": {"format_version": cli.FORMAT_VERSION, "spec_name": frag.spec.name,
                   "depth": frag.depth, "exhaustive": frag.exhaustive},
        "objects": objects,
        "wevels": [sorted(remap[i] for i in c) for c in frag.wevel_contents],
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def ref_export_dot(frag):
    order = ref_order(frag)
    remap = {old: new for new, old in enumerate(order)}
    lines = ["digraph universe {"]
    for old in order:
        shape = "box" if frag.obj(old).is_bland else "ellipse"
        label = ref_render(frag, old).replace("{", "\\{").replace("}", "\\}")
        lines.append(f'  n{remap[old]} [shape={shape} label="{label}"];')
    for old in order:
        o = frag.obj(old)
        if o.is_bland:
            for m in sorted(o.members, key=lambda i: remap[i]):
                lines.append(f"  n{remap[old]} -> n{remap[m]};")
        else:
            for w, b in sorted(o.tclass, key=lambda p: (p[0], remap[p[1]])):
                lines.append(f'  n{remap[old]} -> n{remap[b]} [label="w{w}"];')
    return "\n".join(lines + ["}"]) + "\n"


def test_stored_order_is_canonical(frag):
    for a in frag.ids():
        o = frag.obj(a)
        if o.is_bland:
            keys = [ref_sort_key(frag, m) for m in o.members]
        else:
            keys = [(w, ref_sort_key(frag, b)) for w, b in o.tclass]
        assert all(x < y for x, y in zip(keys, keys[1:])), a


def test_sort_key_and_render_match_the_sorting_references(frag):
    # ids ascend in canonical order, so the id is the sort key
    keys = [ref_sort_key(frag, a) for a in frag.ids()]
    assert all(x < y for x, y in zip(keys, keys[1:]))
    for a in frag.ids():
        assert frag.render(a) == ref_render(frag, a), a


def test_view_members_and_decompose_match_the_sorting_references(frag):
    for a in frag.ids():
        assert list(frag.members(a)) == ref_view_members(frag, a), a
        assert universe.decompose(frag, a) == ref_decompose(frag, a), a


@pytest.mark.parametrize("build", [b for b in BUILDS if b[0].startswith("church:")],
                         ids=_build_id)
def test_classify_kind_matches_the_sorting_reference(build):
    name, depth, kw = build
    frag = built(name, depth, **kw)
    for a in frag.ids():
        assert instances._classify_kind(frag, a) == ref_classify_kind(frag, a), a


def test_export_matches_the_sorting_reference_and_reimports(frag, tmp_path):
    text = cli.export_fragment(frag)
    assert text == ref_export_fragment(frag)
    assert cli.export_fragment(cli.import_fragment(text)) == text
    path, dot = tmp_path / "u.json", tmp_path / "u.dot"
    path.write_text(text)
    assert cli.main(["export", "--labels", "--in", str(path), "--dot", str(dot)]) == 0
    assert dot.read_text() == ref_export_dot(cli.import_fragment(text))


def test_hand_made_sets_are_put_in_canonical_order():
    frag = built("church:2", 3)
    for a in frag.ids():
        o = frag.obj(a)
        if o.is_bland:
            assert frag.bland_id(reversed(o.members)) == a
            assert frag.bland_id(list(o.members) * 2) == a
            assert frag.register_bland(frozenset(o.members), o.ordrank) == a
        else:
            assert frag.tap_id(reversed(o.tclass)) == a
            assert frag.register_tap(frozenset(o.tclass)) == a
    assert len(frag) == 11


# -- the build that registered objects as it met them ------------------------------

def reference_build(spec, depth, max_objects=universe.DEFAULT_MAX_OBJECTS,
                    mode="exhaustive", subset_bound=2):
    """Each stage sorts the objects found earlier by ``ref_sort_key`` and
    registers every bland subset (or the wevel), then each tap as it meets
    it, then (sampled) the small combinations up to the budget.  Ids follow
    registration order, which need not be canonical."""
    frag = universe.Fragment(spec=spec, depth=depth, exhaustive=(mode == "exhaustive"))
    for stage in range(depth):
        prev = tuple(o.id for o in frag.objects if o.ordrank < stage)
        frag.wevel_contents.append(prev)
        prev_sorted = sorted(prev, key=lambda i: ref_sort_key(frag, i))
        if mode == "exhaustive":
            for members in subsets(prev_sorted):
                frag.register_bland(members, stage)
        else:
            frag.register_bland(prev_sorted, stage)
        for a in prev_sorted:
            for w in spec.wand_indices():
                cls = wandspec.tap_class(spec, w, a, frag)
                frag._tap_of[(w, a)] = None if cls is None else frag.register_tap(cls)
        if mode == "sampled":
            for size in range(min(subset_bound, len(prev_sorted)) + 1):
                for combo in itertools.combinations(prev_sorted, size):
                    if len(frag.objects) >= max_objects:
                        break
                    frag.register_bland(combo, stage)
    frag.wevel_contents.append(tuple(frag.ids()))
    return frag


FIXTURE_SPECS = {"lopsided": lopsided_spec, "late-breaking": late_breaking_spec,
                 "dom-splitting": dom_splitting_spec, "peeking": peeking_spec}
SAMPLED = {"mode": "sampled"}
REFERENCE_BUILDS = (
    [(name, 4, {}) for name in ("pure", "conway", "partial-fun", "multiset",
                                "church:1", "church:2")]
    + [("church:2", 4, SAMPLED), ("partial-fun", 6, SAMPLED),
       ("multiset", 7, dict(SAMPLED, max_objects=4000)),
       ("multiset", 6, dict(SAMPLED, subset_bound=3, max_objects=700)),
       ("church:2", 5, dict(SAMPLED, max_objects=3000)),
       ("lopsided", 3, {}), ("late-breaking", 4, SAMPLED), ("dom-splitting", 3, {})])


def _spec(name):
    return FIXTURE_SPECS[name]() if name in FIXTURE_SPECS else wandspec.get_spec(name)


def _reference_build_id(build):
    return _build_id(build) + "".join(f"-{k}={v}" for k, v in build[2].items()
                                      if k != "mode")


@pytest.mark.parametrize("build", REFERENCE_BUILDS, ids=_reference_build_id)
def test_build_exports_what_the_registration_order_build_exported(build):
    name, depth, kw = build
    frag = universe.build(_spec(name), depth, **kw)
    keys = [ref_sort_key(frag, a) for a in frag.ids()]
    assert all(x < y for x, y in zip(keys, keys[1:]))
    assert cli.export_fragment(frag) == ref_export_fragment(
        reference_build(_spec(name), depth, **kw))


def test_look_ahead_build_finds_the_same_objects_out_of_canonical_order():
    # peeking's raw D counts the whole fragment, so at depth 4 it first acts
    # at stage 3, on rank-1 objects too: a rank-1 tap comes after rank-3 sets
    frag = universe.build(peeking_spec(), 4)
    ref = reference_build(peeking_spec(), 4)
    assert ({ref_sort_key(frag, a) for a in frag.ids()}
            == {ref_sort_key(ref, a) for a in ref.ids()})
    assert [frag.obj(a).ordrank for a in frag.ids()] != sorted(
        frag.obj(a).ordrank for a in frag.ids())
    with pytest.raises(cli.DataError, match="out of canonical order"):
        cli.export_fragment(frag)


def test_export_refuses_a_hand_made_registration_out_of_order():
    frag = universe.build(wandspec.get_spec("pure"), 2)
    empty, single = frag.bland_id(()), frag.bland_id((frag.bland_id(()),))
    frag.register_bland([single], 2)
    cli.export_fragment(frag)  # still canonical
    frag.register_bland([empty, single], 2)  # {0, 1} sorts before {1}
    with pytest.raises(cli.DataError, match="object 3: out of canonical order"):
        cli.export_fragment(frag)
