"""Carrier codes {<empty, a>} as one object per payload.

``pureset.carrier`` keeps one object per payload and builds its one element,
the pair <empty, a>, only when something reads it; ``pureset._intern`` sends
every set of that shape to the same object.  The shape reader below is the
reference for ``is_carrier`` and ``uncarrier``.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest
from hypothesis import given

from wandset import pureset as ps
from wandset.errors import NotACarrier

from test_pureset import pure_sets

E = ps.EMPTY
S1 = ps.mk_set([E])  # {empty}


def shape_is_carrier(c):
    """Whether ``c`` is {<empty, a>}, read off its shape: {{{empty}}}, or
    {{{empty}, {empty, a}}} in canonical order (empty sorts first)."""
    if len(c.elements) != 1:
        return False
    pair = c.elements[0].elements
    if len(pair) == 1:
        return pair[0] is S1
    return (len(pair) == 2 and pair[0] is S1
            and len(pair[1].elements) == 2 and pair[1].elements[0] is E)


def shape_uncarrier(c):
    pair = c.elements[0].elements
    return E if len(pair) == 1 else pair[1].elements[1]


def test_carrier_reading_matches_the_shape_reader_on_every_set_of_rank_four():
    rank4 = ps.lt_levels(6)[-1].elements  # every pure set of rank <= 4
    assert len(rank4) == 1 << 16
    shaped = []
    for s in rank4:
        assert ps.is_carrier(s) == shape_is_carrier(s), s
        if shape_is_carrier(s):
            shaped.append(s)
            assert ps.uncarrier(s) is shape_uncarrier(s)
            assert ps.carrier(ps.uncarrier(s)) is s
        else:
            with pytest.raises(NotACarrier):
                ps.uncarrier(s)
    # {{{}}} and {{{}},{{},{{}}}}: the carriers of the sets of rank <= 1
    assert shaped == [ps.carrier(E), ps.carrier(S1)]


def test_carriers_of_sampled_payloads_have_the_carrier_shape():
    for a in ps.lt_levels(6)[-1].elements[::64]:
        c = ps.carrier(a)
        assert shape_is_carrier(c) and shape_uncarrier(c) is a


@given(pure_sets())
def test_a_carrier_reads_as_its_structural_set(a):
    pair = ps.kpair(E, a)  # <empty, a> = {{empty}, {empty, a}}
    c = ps.carrier(a)
    assert c.rank == ps.rank(c) == pair.rank + 1 == a.rank + 3
    assert len(c) == 1
    assert list(c) == [pair] and c.elements == (pair,)
    assert pair in c
    assert repr(c) == "{" + repr(pair) + "}"
    assert c.sort_key() == (pair.rank + 1, 1, (pair.sort_key(),))
    assert ps._intern((pair,)) is c


def test_a_set_holding_a_carrier_stays_a_plain_set():
    c = ps.carrier(S1)
    for s in (ps.mk_set([c]), ps.mk_set([S1, c]), ps.mk_set([E, c])):
        assert not ps.is_carrier(s) and not shape_is_carrier(s)


_UNREAD_PAIRS = textwrap.dedent("""
    from wandset import conch, pureset as ps, wandspec

    def pair_built(c):
        try:
            object.__getattribute__(c, "elements")
        except AttributeError:
            return False
        return True

    stages = conch.gen_stages(wandspec.get_spec("pure"), 4)
    carriers = list(ps._CARRIERS.values())
    unread = {c for c in carriers if not pair_built(c)}
    held = [s for s in ps._TABLE.values()
            if (a := ps._pair_payload(s)) is not None and ps._CARRIERS.get(a) in unread]
    print(len(stages.ranked(3)), len(carriers), len(unread), len(held), len(ps._TABLE))
""")


def test_stage_generation_builds_no_pair_of_an_unread_carrier():
    # a fresh process, so no other test has read a carrier
    src = Path(__file__).resolve().parents[1] / "src"
    out = subprocess.run([sys.executable, "-c", _UNREAD_PAIRS], capture_output=True,
                         text=True, check=True,
                         env={**os.environ, "PYTHONPATH": str(src)}).stdout
    conches, carriers, unread, held, table = map(int, out.split())
    assert conches == carriers == 16  # pure depth 4: every conch is a carrier
    assert held == 0
    # the stage sort read the four carriers of stage 2 (and the pairs and
    # the codes they hold); the other twelve stay one object each
    assert unread == 12
    # the four-set form interned three sets per carrier besides its payload
    assert table < 2 * carriers


def test_carrier_codes_are_one_object_across_threads():
    import threading

    payloads, z = [], S1
    while len(payloads) < 300:
        z = ps.mk_set([E, z])  # {0, {0, ...}}: sets no other test reaches
        if z.rank > 40:
            payloads.append(z)
    assert not any(a in ps._CARRIERS for a in payloads)
    results = {}

    def worker(i):
        got = []
        for k, a in enumerate(payloads if i % 2 else payloads[::-1]):
            if (i + k) % 2:  # the carrier first, then its pair read
                c = ps.carrier(a)
                got.append((a, c, c.elements[0]))
            else:  # the structural set first
                pair = ps.kpair(E, a)
                got.append((a, ps.mk_set([pair]), pair))
        results[i] = {a: (c, pair) for a, c, pair in got}

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads) and len(results) == 8
    for a in payloads:
        c = ps.carrier(a)
        assert all(r[a] == (c, c.elements[0]) for r in results.values())
        assert c.elements[0] is ps.kpair(E, a)
