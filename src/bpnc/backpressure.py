"""Queue bookkeeping and the scheduling math: penalized differential-backlog
flow selection, spectrum utility, and next-hop choice.

A flow is its index in the scenario's flow list, the number RTS and DATA
frames carry.  A node's queue set is its one record of its flows, given
each index's (source, destinations) once, at construction; it keeps a
backlog per destination of each flow it has seen, which only ``add`` and
``pay`` change, and lists its queues as the SYN entries that name them.
Pure functions over plain dict state; owned by a single node's state
machine.
"""

from __future__ import annotations


class PenaltyTracker:
    """Per (flow, node) visit counts f and the loop penalty alpha = 1/f.

    alpha is 1 until the second visit, then a pure function of the count, so
    replaying the same visit sequence always reproduces the same penalties.
    """

    def __init__(self):
        self.visits: dict[tuple[int, int], int] = {}

    def record_visit(self, flow: int, node: int) -> None:
        key = (flow, node)
        self.visits[key] = self.visits.get(key, 0) + 1

    def count(self, flow: int, node: int) -> int:
        return self.visits.get((flow, node), 0)

    def alpha(self, flow: int, node: int) -> float:
        f = self.count(flow, node)
        return 1.0 if f <= 1 else 1.0 / f


class VirtualQueueSet:
    """Per (flow, destination) backlogs at one node, and its flows.

    ``flows[i]`` is flow i's (source, destinations), ``index`` maps its SYN
    name (source, frozenset of destinations) to i, ``order`` lists the flows
    in (source, destinations) order, the SYN's and ``select_flow``'s tie
    order, and ``dests_here[i]`` is flow i's destinations but this node.
    ``backlogs[flow]``, made at the flow's first ``add``, maps each of those,
    in the flow's order, to its backlog: a virtual queue disappears once its
    destination is reached.
    """

    def __init__(self, node_id: int, flows: list[tuple[int, tuple[int, ...]]]):
        self.flows = flows
        self.order = sorted(range(len(flows)), key=flows.__getitem__)
        self.index = {(src, frozenset(dsts)): i for i, (src, dsts) in enumerate(flows)}
        self.dests_here = [tuple(d for d in dsts if d != node_id) for _, dsts in flows]
        self.backlogs: dict[int, dict[int, int]] = {}

    def add(self, flow: int) -> None:
        """One packet of flow, arrived or received, for every destination."""
        q = self.backlogs.get(flow)
        if q is None:
            q = self.backlogs[flow] = dict.fromkeys(self.dests_here[flow], 0)
        for d in q:
            q[d] += 1

    def pay(self, flow: int, dests) -> None:
        """One packet of flow sent toward each of dests, never below 0."""
        q = self.backlogs[flow]
        for d in dests:
            q[d] = max(0, q[d] - 1)

    def flow_backlogs(self, flow: int) -> dict[int, int]:
        """flow's backlogs, the live dict once the flow is seen: read only."""
        return self.backlogs.get(flow) or dict.fromkeys(self.dests_here[flow], 0)

    def total(self) -> int:
        return sum(sum(q.values()) for q in self.backlogs.values())

    def entries(self) -> tuple[tuple[int, tuple[int, ...], int], ...]:
        """The SYN entries, one per virtual queue: (source, destinations
        with the queue's destination first, backlog), in (source,
        destinations, destination) order."""
        out = []
        for f in self.order:
            src, dsts = self.flows[f]
            out += ((src, (d, *(x for x in dsts if x != d)), n)
                    for d, n in sorted(self.backlogs.get(f, {}).items()))
        return tuple(out)


def positive_differentials(local: dict[int, int], remote: dict[int, int]) -> dict[int, int]:
    """Q_local - Q_remote for each destination where it is positive, in
    local's order.  Remote backlogs come from the neighbor's last SYN and
    may be stale; they are used as-is."""
    return {d: diff for d, qi in local.items() if (diff := qi - remote.get(d, 0)) > 0}


def flow_score(
    local: dict[int, int], remote: dict[int, int], alpha: float
) -> float:
    """Sum over destinations of [Q_local - Q_remote]^+ times the penalty.

    Unicast is the single-destination special case.
    """
    return sum(positive_differentials(local, remote).values()) * alpha


def select_flow(
    candidates: list[tuple[int, dict[int, int], dict[int, int], float]],
) -> tuple[int, float] | None:
    """Argmax of flow_score over (flow, local, remote, alpha) candidates.

    Returns None when every score is zero.  Ties go to the earliest
    candidate; nodes list them in (source, destinations) order, so the lower
    flow identity wins for reproducibility.
    """
    best: tuple[int, float] | None = None
    for flow, local, remote, alpha in candidates:
        score = flow_score(local, remote, alpha)
        if score > 0 and (best is None or score > best[1]):
            best = (flow, score)
    return best


def spectrum_utility(c_ij: float, score: float) -> float:
    """Link rate times the penalized positive backlog differential."""
    if c_ij < 0:
        raise ValueError("link rate must be non-negative")
    return c_ij * score


def select_next_hop(
    candidates: list[tuple[int, int, float, int, float]],
) -> tuple[int, int, int, float] | None:
    """Argmax of utility over (neighbor, channel, c_ij, flow, score) entries.

    Returns (neighbor, channel, flow, utility) or None if the best utility is
    zero.  Ties break on (lower neighbor id, lower channel index).
    """
    best = None
    for nbr, chan, c_ij, flow, score in candidates:
        u = spectrum_utility(c_ij, score)
        if u <= 0:
            continue
        key = (-u, nbr, chan)
        if best is None or key < best[0]:
            best = (key, (nbr, chan, flow, u))
    return best[1] if best else None
