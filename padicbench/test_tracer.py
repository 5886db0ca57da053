"""The tracer's spans, groups and self times."""

from __future__ import annotations

import importlib
import itertools

import pytest

import tracer as tracing


def fake_clock(step: float = 1.0):
    ticks = itertools.count()
    return lambda: next(ticks) * step


def test_self_time_is_duration_minus_children():
    tr = tracing.Tracer(clock=fake_clock())
    with tr.span("outer"):
        with tr.span("inner"):
            pass
        with tr.span("inner"):
            with tr.span("leaf"):
                pass
    outer, first, second, leaf = tr.spans
    assert (outer.parent, first.parent, second.parent, leaf.parent) == (-1, 0, 0, 2)
    assert first.self_s == first.duration == 1
    assert leaf.self_s == 1
    assert second.child_s == leaf.duration
    assert outer.self_s == outer.duration - first.duration - second.duration


def test_folded_calls_group_below_their_parent_span():
    tr = tracing.Tracer(clock=fake_clock())
    target = tracing.Target("m", "f", "m.f", folded=True)
    calls = []
    f = tr.wrap(target, lambda x: calls.append(x) or x)
    with tr.span("parent"):
        assert [f(i) for i in range(3)] == [0, 1, 2]
    group = tr.groups[0, "m.f"]
    assert (group.calls, group.total_s, group.child_s) == (3, 3.0, 0.0)
    assert tr.spans[0].child_s == 3.0
    assert tr.spans[0].self_s == tr.spans[0].duration - 3.0


def test_recursion_records_only_the_outermost_call():
    tr = tracing.Tracer(clock=fake_clock())
    target = tracing.Target("m", "fact", "m.fact")
    namespace = {}

    def fact(n):
        return 1 if n <= 1 else n * namespace["fact"](n - 1)

    namespace["fact"] = tr.wrap(target, fact)
    assert namespace["fact"](5) == 120
    assert [s.name for s in tr.spans] == ["m.fact"]


@pytest.fixture
def traced_padiclab():
    padiclab = importlib.import_module("padiclab")
    importlib.import_module("padiclab.cli")
    tr = tracing.Tracer()
    originals = {name: getattr(padiclab.lattice, name) for name in ("chain", "make_pair")}
    tr.install(padiclab, tracing.padiclab_targets())
    yield tr, padiclab
    tr.uninstall()
    for name, original in originals.items():
        assert getattr(padiclab.lattice, name) is original
    assert padiclab.chain is originals["chain"]


def test_real_spans_have_nonnegative_self_time_within_duration(traced_padiclab, tmp_path):
    tr, padiclab = traced_padiclab
    xi = padiclab.build_digit_rule(3, "random", 80, seed=5)
    with tr.span("job", label="t", ladder="t"):
        sup = padiclab.chain(xi, "sup")
        padiclab.lattice.save_chain_csv(sup, str(tmp_path / "sup.csv"))
        padiclab.oracle_chain(xi, "mult", 10**4)
        padiclab.verify.check_korollar(sup)
    names = {s.name for s in tr.spans}
    assert {"job", "lattice.chain.sup", "lattice.save_chain_csv",
            "lattice.oracle_chain.mult", "verify.check_korollar"} <= names
    assert tr.spans
    for span in tr.spans:
        assert 0 <= span.self_s <= span.duration
    for group in tr.groups.values():
        assert group.calls > 0
        assert 0 <= group.self_s <= group.total_s
    chain_span = next(s for s in tr.spans if s.name == "lattice.chain.sup")
    assert chain_span.attrs == {"digits": 80, "entries": len(sup.entries)}
    levels = sum(g.calls for (parent, name), g in tr.groups.items()
                 if name == "core.residue" and tr.spans[parent] is chain_span)
    assert len(sup.entries) <= levels <= 80


def test_install_twice_is_refused(traced_padiclab):
    tr, padiclab = traced_padiclab
    with pytest.raises(RuntimeError):
        tr.install(padiclab, [])
