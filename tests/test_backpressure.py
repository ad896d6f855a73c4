import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bpnc.backpressure import (
    PenaltyTracker,
    VirtualQueueSet,
    flow_score,
    positive_differentials,
    select_flow,
    select_next_hop,
    spectrum_utility,
)


# flow indices, as nodes key their tables; FA is listed before FB
FA = 0
FB = 1


def test_unicast_selection_example():
    # A: (5,2), B: (4,0), alpha=1 -> B wins with score 4 over 3
    got = select_flow([
        (FA, {7: 5}, {7: 2}, 1.0),
        (FB, {7: 4}, {7: 0}, 1.0),
    ])
    assert got == (FB, 4)


def test_flow_tie_goes_to_first_candidate():
    # the caller lists candidates in its tie-break order
    assert select_flow([(FB, {7: 4}, {}, 1.0), (FA, {7: 4}, {}, 1.0)]) == (FB, 4)
    assert select_flow([(FA, {7: 4}, {}, 1.0), (FB, {7: 4}, {}, 1.0)]) == (FA, 4)


def test_no_positive_differential_returns_none():
    assert select_flow([(FA, {7: 2}, {7: 5}, 1.0), (FB, {7: 0}, {7: 0}, 1.0)]) is None


def test_penalty_changes_selection():
    # A: diff 3 with alpha 0.5 -> 1.5; B: diff 2 with alpha 1 -> 2
    got = select_flow([
        (FA, {7: 5}, {7: 2}, 0.5),
        (FB, {7: 4}, {7: 2}, 1.0),
    ])
    assert got == (FB, 2)


def test_multicast_score_sums_destinations():
    assert flow_score({6: 3, 7: 1}, {6: 1, 7: 2}, 1.0) == 2


def test_positive_differentials_worked_example():
    # destination 7 is at or below the neighbour's backlog and 5 is unknown
    # there (0); the result keeps local's order, which covered_dests uses
    local, remote = {6: 3, 7: 1, 5: 4}, {6: 1, 7: 2, 9: 8}
    assert list(positive_differentials(local, remote).items()) == [(6, 2), (5, 4)]
    assert flow_score(local, remote, 0.5) == (2 + 4) * 0.5


def test_singleton_multicast_equals_unicast():
    assert flow_score({7: 5}, {7: 2}, 1.0) == flow_score({7: 5}, {7: 2}, 1.0)
    got = select_flow([(FA, {7: 5}, {7: 2}, 1.0)])
    assert got == (FA, 3)


@given(
    st.dictionaries(st.integers(2, 9), st.integers(0, 50), min_size=1, max_size=4),
    st.dictionaries(st.integers(2, 9), st.integers(0, 50), max_size=4),
)
@settings(max_examples=200)
def test_score_matches_bruteforce(local, remote):
    expected = sum(max(local[d] - remote.get(d, 0), 0) for d in local)
    assert flow_score(local, remote, 1.0) == expected


def test_spectrum_utility_examples():
    assert spectrum_utility(2, (5 - 3) * 1.0) == 4
    assert spectrum_utility(2, 2 * 0.5) == 2
    assert spectrum_utility(0, 99) == 0


def test_next_hop_argmax_and_ties():
    assert select_next_hop([(2, 0, 1.0, FA, 6), (3, 0, 1.0, FA, 4)])[0] == 2
    # tie 6 vs 6 between neighbors 4 and 2 -> neighbor 2
    assert select_next_hop([(4, 0, 1.0, FA, 6), (2, 0, 1.0, FA, 6)])[0] == 2
    # channel tie-break, lower channel index wins
    got = select_next_hop([(2, 1, 1.0, FA, 6), (2, 0, 1.0, FA, 6)])
    assert got[1] == 0
    assert select_next_hop([(2, 0, 1.0, FA, 0), (3, 0, 0.0, FA, 9)]) is None


def test_work_conservation():
    got = select_next_hop([(5, 2, 0.5, FA, 1)])
    assert got is not None


@given(st.integers(1, 10))
@settings(max_examples=50)
def test_scale_invariance_of_argmax(k):
    cands = [
        (FA, {7: 5}, {7: 2}, 1.0),
        (FB, {7: 9}, {7: 1}, 1.0),
    ]
    scaled = [(f, {d: q * k for d, q in l.items()}, {d: q * k for d, q in r.items()}, a)
              for f, l, r, a in cands]
    assert select_flow(cands)[0] == select_flow(scaled)[0]


def test_penalty_tracker_sequence():
    t = PenaltyTracker()
    assert t.alpha(FA, 3) == 1.0
    t.record_visit(FA, 3)
    assert t.count(FA, 3) == 1
    assert t.alpha(FA, 3) == 1.0
    t.record_visit(FA, 3)
    assert t.alpha(FA, 3) == 0.5
    for _ in range(8):
        t.record_visit(FA, 3)
    assert t.alpha(FA, 3) == pytest.approx(0.1)


def test_alpha_non_increasing():
    t = PenaltyTracker()
    prev = t.alpha(FA, 2)
    for _ in range(20):
        t.record_visit(FA, 2)
        cur = t.alpha(FA, 2)
        assert cur <= prev
        prev = cur


def test_virtual_queue_accounting():
    q = VirtualQueueSet(node_id=4, flows=[(1, (6, 7))])
    f = 0
    q.add(f)
    assert q.total() == 2
    q.pay(f, (6,))
    assert q.flow_backlogs(f) == {6: 0, 7: 1}
    q.pay(f, (6,))  # clamped at zero
    assert q.flow_backlogs(f) == {6: 0, 7: 1}


def test_own_destination_queue_absent():
    q = VirtualQueueSet(node_id=6, flows=[(1, (6, 7))])
    f = 0
    q.add(f)
    assert q.flow_backlogs(f) == {7: 1}
    assert q.dests_here[f] == (7,)


def test_entries_deterministic_order():
    # entries follow (source, destinations, destination), not flow index
    flows = [(2, (7,)), (1, (6, 7))]
    q = VirtualQueueSet(node_id=4, flows=flows)
    q.add(0)
    q.add(1)
    assert q.entries() == ((1, (6, 7), 1), (1, (7, 6), 1), (2, (7,), 1))


# five flows seen from node 4: it relays the first three, is a destination
# of the fourth and the only destination of the fifth; destinations are not
# listed in ascending order
QUEUE_FLOWS = [(1, (7, 6)), (2, (7,)), (1, (5, 6, 7)), (1, (4, 7)), (3, (4,))]
QUEUE_STEP = st.one_of(
    st.tuples(st.just("add"), st.integers(0, 4)),
    st.tuples(st.just("pay"), st.integers(0, 4), st.lists(st.sampled_from([5, 6, 7]),
                                                          max_size=3, unique=True)),
)


@given(st.lists(QUEUE_STEP, max_size=60))
@settings(max_examples=200, deadline=None)
def test_queue_set_matches_brute_force_counts(steps):
    # a bare queue set, driven by add and pay alone, against a count per
    # (flow, destination) kept for every queue the flow's first add opens
    q = VirtualQueueSet(node_id=4, flows=QUEUE_FLOWS)
    model: dict[tuple[int, int], int] = {}
    seen = set()
    for step in steps:
        fi = step[1]
        here = [d for d in QUEUE_FLOWS[fi][1] if d != 4]
        if step[0] == "add":
            seen.add(fi)
            for d in here:
                model[fi, d] = model.get((fi, d), 0) + 1
            q.add(fi)
        elif fi in seen:
            # a node pays only destinations of a flow it has seen
            dests = [d for d in step[2] if d in here]
            for d in dests:
                model[fi, d] = max(0, model[fi, d] - 1)
            q.pay(fi, dests)
        assert q.entries() == tuple(
            (QUEUE_FLOWS[f][0], (d, *(x for x in QUEUE_FLOWS[f][1] if x != d)), n)
            for (f, d), n in sorted(model.items(), key=lambda k: (QUEUE_FLOWS[k[0][0]], k[0][1])))
        for f, (_, dsts) in enumerate(QUEUE_FLOWS):
            backlogs = q.flow_backlogs(f)
            assert 4 not in backlogs and list(backlogs) == [d for d in dsts if d != 4]
            assert backlogs == {d: model.get((f, d), 0) for d in backlogs}
            assert min(backlogs.values(), default=0) >= 0
        assert q.total() == sum(model.values())
