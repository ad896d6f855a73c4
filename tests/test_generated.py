"""Whole-stack invariants over generated valid scenarios.

The strategy draws small scenarios across the settings the stack reads:
2-8 nodes, 1-4 channels, links with and without a pinned channel, 1-3
flows mixing unicast and multicast, coding on and off across block sizes,
fields, decoders, redundancy and timeouts, and frame loss.  Every example
runs short phases that fit several data phases in its 60 simulated seconds,
so nearly every one forwards DATA frames; with the default phases most of
a 60 s run is discovery and the first negotiation.  The links span a
random tree, or join a source to its destinations through a triangle of
relays that hear each other, so a relay hears one generation from two
nodes.  Each example is checked against what must hold of any run, the
state's invariants after every event.
"""

import tempfile
from collections import Counter
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from bpnc import channel as ch
from bpnc import engine, protocol, wire
from test_engine import _assert_rows_held_until_full_rank
from test_protocol import _assert_credit_index


@st.composite
def flow_configs(draw, num_nodes: int):
    src = draw(st.integers(1, num_nodes))
    others = [n for n in range(1, num_nodes + 1) if n != src]
    dsts = draw(st.lists(st.sampled_from(others), min_size=1, max_size=min(3, len(others)),
                         unique=True))
    return ch.FlowConfig(src, tuple(dsts), draw(st.sampled_from([0.2, 0.5, 1.0, 2.0])))


@st.composite
def tree_shapes(draw, chans: int):
    """(nodes, links, flows): links that span a random tree, so most flows
    have a route, and a few more pairs, and flows drawn over the nodes."""
    n = draw(st.integers(2, 8))
    nodes = draw(st.permutations(range(1, n + 1)))
    tree = [(nodes[k], nodes[draw(st.integers(0, k - 1))]) for k in range(1, n)]
    pairs = [(a, b) for a in range(1, n + 1) for b in range(a + 1, n + 1)]
    extra = draw(st.lists(st.sampled_from(pairs), max_size=n, unique=True))
    links = [ch.LinkConfig(a, b, draw(st.sampled_from([ch.STRONG_GAIN_DB, ch.WEAK_GAIN_DB])),
                           draw(st.none() | st.integers(0, chans - 1)))
             for a, b in tree + extra]
    flows = draw(st.lists(flow_configs(n), min_size=1, max_size=3,
                          unique_by=lambda f: (f.src, frozenset(f.dsts))))
    return n, links, flows


@st.composite
def relay_triangle_shapes(draw, chans: int):
    """(nodes, links, flows): a source that hears relays a and b, the three
    relays a, b and c all hearing each other, and one or two destinations
    that hear b and c; strong links, and one flow from the source.  A
    relay can then hear a generation from the source or a relay, and again
    from another relay."""
    n = draw(st.integers(5, 6))
    src, a, b, c, *dsts = draw(st.permutations(range(1, n + 1)))
    pairs = [(src, a), (src, b), (a, b), (b, c), (a, c)]
    pairs += [(d, r) for d in dsts for r in (b, c)]
    links = [ch.LinkConfig(x, y, ch.STRONG_GAIN_DB, draw(st.none() | st.integers(0, chans - 1)))
             for x, y in pairs]
    return n, links, [ch.FlowConfig(src, tuple(dsts), draw(st.sampled_from([0.5, 1.0, 2.0])))]


# short phases: a 60 s run holds several negotiation and data phases
SHORT_PHASES = ch.TimingConfig(flow_update_s=4.0, negotiation_s=6.0, data_s=4.0)


@st.composite
def scenarios(draw, duration_s: float = 60.0):
    """A valid scenario, its links and flows drawn over its nodes in one
    of the two shapes; a link may name one channel or all of them."""
    chans = draw(st.integers(1, 4))
    triangle = draw(st.booleans())
    n, links, flows = draw(relay_triangle_shapes(chans) if triangle else tree_shapes(chans))
    coding = ch.CodingConfig(
        enabled=draw(st.booleans()),
        block_size=draw(st.integers(1, 6)),
        field_bits=draw(st.sampled_from([1, 2, 4, 8])),
        decoder=draw(st.sampled_from(ch.DECODERS)),
        redundancy=draw(st.sampled_from([0.0, 0.25, 0.5])),
        gen_timeout_s=draw(st.sampled_from([0.0, 5.0, 10.0])),
    )
    return ch.Scenario(name="generated", num_nodes=n, num_channels=chans, links=links,
                       flows=flows, coding=coding,
                       frame_loss=draw(st.sampled_from([0.0, 0.1])),
                       timing=SHORT_PHASES, duration_s=duration_s).validate()


def _reloaded(scn: ch.Scenario) -> ch.Scenario:
    """scn saved to a YAML file and loaded back."""
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "scenario.yaml"
        ch.save_scenario(scn, path)
        return ch.load_scenario(path)


def _assert_run_state(eng: engine.Engine, sourced: dict[int, set[int]]) -> None:
    """What holds of every node between two events: no decoder above full
    rank, no relay entry that sent more than it received, a credit index
    equal to a full scan of the store, and no negative backlog.  sourced
    maps each node to the flows it is the source of."""
    for node in eng.nodes.values():
        for dec in node.decoders.values():
            assert dec.rank <= dec.block_size
        for rg in node.relay_gens.values():
            assert 0 <= rg.sent <= rg.rcvd
        _assert_credit_index(node.relay_gens, sourced[node.id])
        for fi in range(len(eng.scn.flows)):
            assert min(node.queues.flow_backlogs(fi).values(), default=0) >= 0


def _run_checking_every_event(scn: ch.Scenario, seed: int) -> engine.Engine:
    """engine.run(scn, seed), with the clock and ``_assert_run_state``
    checked after every event.  The test wraps each callback handed to
    ``Engine.schedule_at``; the engine runs as it always does."""
    eng = engine.Engine(scn, seed)
    sourced = {nid: {fi for fi, f in enumerate(scn.flows) if f.src == nid} for nid in eng.nodes}
    schedule_at = eng.schedule_at
    clock = events = 0

    def checked(fn):
        def event():
            nonlocal clock, events
            assert eng.now_us >= clock  # the clock never runs back
            clock = eng.now_us
            fn()
            events += 1
            _assert_run_state(eng, sourced)
        return event

    eng.schedule_at = lambda t_us, fn: schedule_at(t_us, checked(fn))
    eng.run()
    assert events == eng._seq - len(eng._heap) > 0  # every event was checked
    _assert_run_state(eng, sourced)
    return eng


def test_generated_scenarios_keep_the_run_invariants(monkeypatch):
    # Split horizon: a relay that hears a generation from a second origin
    # takes it off that origin's list.  Count the frames that reach that
    # branch while the generation is on the list, so the examples are known
    # to test the unlisting, which the credit-index check then reads.
    unlisting = []
    hold = protocol.RelayStore.hold

    def counting(store, frame, origin=None):
        rg = store.get(frame.key)
        if rg is not None and origin is not None and not (rg.origins >> origin) & 1:
            unlisting.append(frame.key in store.index[frame.key[0]].get(origin, ()))
        hold(store, frame, origin)

    monkeypatch.setattr(protocol.RelayStore, "hold", counting)
    # DATA frames each example sent: the records the invariants read are
    # built from them, so most examples must forward some
    data_sent = []
    _check_generated_runs(data_sent)
    assert any(unlisting)
    assert sum(n > 0 for n in data_sent) >= len(data_sent) / 2 > 0


@settings(max_examples=50, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(scn=scenarios(), seed=st.integers(0, 2**32 - 1))
def _check_generated_runs(data_sent, scn, seed):
    eng = _run_checking_every_event(scn, seed)
    data_sent.append(sum(sent["DATA"] for sent in eng.frames_sent.values()))
    log = eng.packet_log
    assert (engine.packet_log_digest(log)
            == engine.packet_log_digest(engine.run(_reloaded(scn), seed).packet_log))
    assert all(eng.delivered[fi] <= eng.injected[fi] for fi in eng.injected)
    assert all(a <= b for a, b in zip(log.times, log.times[1:]))
    counts = {n: Counter() for n in eng.nodes}
    for src, raw in zip(log.srcs, log.raws):
        counts[src][wire.TYPE_NAMES[raw[0]]] += 1
    assert eng.frames_sent == counts
    flows = eng.scn.flows
    for node in eng.nodes.values():
        for dec in node.decoders.values():
            _assert_rows_held_until_full_rank(dec)
            h = dec.block_size
            # decoded: the pivot columns whose RREF row is a unit tag, until
            # the decode is judged and the rows are taken
            if not dec.full_rank:
                assert dec.decoded == {
                    c for r, c in enumerate(dec.pivot_cols)
                    if dec.rref[r, :h].tolist() == [int(k == c) for k in range(h)]}
    # truth is dropped once every destination has decoded
    for fi, gid in eng.truth:
        assert not all((d := eng.nodes[dst].decoders.get((fi, gid))) is not None and d.full_rank
                       for dst in flows[fi].dsts)
