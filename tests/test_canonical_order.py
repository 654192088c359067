"""Members and tap classes are stored in canonical order from birth.

Each reference below is the code that sorted ``.members`` or ``.tclass``
again on every use, when they were frozensets.  On every build the stored
order must make those sorts no-ops, so the readers that dropped them give
the same answers and write the same bytes.
"""

import json

import pytest

from conftest import built
from wandset import cli, instances, universe
from wandset.errors import TaxonomyViolation

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


def ref_sort_key(frag, oid):
    o = frag.obj(oid)
    if o.is_bland:
        return (o.ordrank, 0, tuple(sorted(ref_sort_key(frag, m) for m in o.members)))
    return (o.ordrank, 1, tuple(sorted((w, ref_sort_key(frag, b)) for w, b in o.tclass)))


def ref_render(frag, oid):
    o = frag.obj(oid)
    if o.is_bland:
        inner = sorted((frag.sort_key(m), m) for m in o.members)
        return "{" + ",".join(ref_render(frag, m) for _, m in inner) + "}"
    w, _, b = min((w, frag.sort_key(b), b) for w, b in o.tclass)
    return f"*{w}{ref_render(frag, b)}"


def ref_view_members(frag, h):
    o = frag.obj(h)
    return [] if o.members is None else sorted(o.members, key=frag.sort_key)


def ref_decompose(frag, a):
    o = frag.obj(a)
    if o.is_bland:
        return a, []
    w, b = min(o.tclass, key=lambda p: (p[0], frag.sort_key(p[1])))
    base, path = ref_decompose(frag, b)
    return base, path + [w]


def ref_classify_kind(frag, a):
    o = frag.obj(a)
    if o.is_bland:
        return instances.CusKind("bland")
    q = frag.view()
    bland_pairs = sorted(((w, b) for w, b in o.tclass if q.is_bland(b)),
                         key=lambda p: (p[0], q.sort_key(p[1])))
    if bland_pairs:
        w, b = bland_pairs[0]
        if len({w2 for w2, _ in bland_pairs}) > 1:
            raise TaxonomyViolation(a)
        return instances.CusKind("tap_of_bland", w, b)
    for w, x in sorted(o.tclass, key=lambda p: (p[0], q.sort_key(p[1]))):
        if w != 0:
            raise TaxonomyViolation(a)
        inner = ref_classify_kind(frag, x)
        if inner.tag == "tap_of_bland" and inner.n and inner.n > 0:
            return instances.CusKind("comp_of_card", inner.n, inner.base)
    raise TaxonomyViolation(a)


def ref_export_fragment(frag):
    order = sorted(frag.ids(), key=lambda i: ref_sort_key(frag, i))
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
    order = frag.canonical_order()
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
            keys = [frag.sort_key(m) for m in o.members]
        else:
            keys = [(w, frag.sort_key(b)) for w, b in o.tclass]
        assert all(x < y for x, y in zip(keys, keys[1:])), a


def test_sort_key_and_render_match_the_sorting_references(frag):
    for a in frag.ids():
        assert frag.sort_key(a) == ref_sort_key(frag, a), a
        assert frag.render(a) == ref_render(frag, a), a


def test_view_members_and_decompose_match_the_sorting_references(frag):
    view = frag.view()
    for a in frag.ids():
        assert list(view.members(a)) == ref_view_members(frag, a), a
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
