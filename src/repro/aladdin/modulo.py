"""Initiation-interval analysis for modulo-scheduled loop pipelining.

Classic modulo scheduling (Rau's iterative modulo scheduling, and
polyphony's ``PipelineScheduler`` with its per-class reservation tables)
bounds the initiation interval from below by two static quantities:

* **RecMII** — the recurrence constraint.  Any dependence cycle that
  crosses iterations forces ``II >= ceil(sum(latency) / sum(distance))``
  over the cycle.  We fold the dynamic trace onto one *round* body
  (a round = ``lanes`` consecutive iterations, the unit our schedulers
  gate on) and find the smallest II admitting no positive cycle under
  edge weights ``latency - II * distance`` (Bellman-Ford feasibility
  per strongly connected component, binary-searched).
* **ResMII** — the resource constraint.  A round body with ``n_c`` ops of
  FU class ``c`` on one lane, against a per-lane per-cycle reservation
  width ``cap_c`` (:data:`repro.aladdin.ir.FU_CAPACITY`), needs
  ``II >= ceil(n_c / cap_c)``; memory ops are additionally bounded by the
  aggregate memory slots per cycle (scratchpad ``partitions x ports`` or
  cache ports).

``II = max(RecMII, ResMII)`` is a lower bound, not necessarily
achievable: :func:`plan_ii` searches upward from it, checking each
candidate with a light placement pass (ASAP times folded modulo II into
per-``(lane, fu)`` reservation tables) until the body fits, capped at the
round schedule length — at that II rounds no longer overlap, so the
schedule degenerates to barrier cadence and is trivially feasible.

The numbers here are *planning* quantities: enforcement stays dynamic in
:class:`repro.aladdin.scheduler.DatapathScheduler` (round ``r + 1`` may
not issue before round ``r``'s first issue plus II, and the per-cycle
FU/port budgets bound overlap), so variable-latency memory never
invalidates the schedule — it just stretches it.
"""

from collections import Counter

from repro.aladdin.ir import MEMORY_OPS, OP_INFO, fu_capacities, is_memory

#: Cap on remembered (source-position, source-round) entries per serial
#: node during recurrence folding.  Serial chains between rounds are
#: normally short (reduction tails); dropping the excess only weakens the
#: RecMII lower bound, never the dynamic schedule.
_SERIAL_FANIN_CAP = 32


class IIPlan:
    """Resolved initiation interval (in cycles) plus its lower bounds."""

    __slots__ = ("ii", "rec_mii", "res_mii", "round_length", "num_rounds",
                 "uniform")

    def __init__(self, ii, rec_mii, res_mii, round_length, num_rounds,
                 uniform):
        self.ii = ii                    # enforced II, cycles (0 = no gating)
        self.rec_mii = rec_mii
        self.res_mii = res_mii
        self.round_length = round_length  # one round's schedule length
        self.num_rounds = num_rounds
        self.uniform = uniform          # round bodies identical?

    def __repr__(self):
        return (f"IIPlan(ii={self.ii} rec={self.rec_mii} "
                f"res={self.res_mii} round_len={self.round_length})")


def _fold_round_body(trace, assignment):
    """Positions, uniformity, and folded dependence edges of the round body.

    Returns ``(positions, num_positions, uniform, edges, round_length)``:
    ``positions[node]`` is the node's index within its round (in trace
    order; -1 for serial nodes), ``edges`` maps ``(pu, pv, d)`` to the
    maximum latency of any trace edge folding onto it (``d`` = round
    distance), and ``round_length`` is the latency-weighted critical path
    of the round-0 body over its intra-round edges.
    """
    rounds = assignment.round
    lanes_of = assignment.lane
    node_ops = trace.node_op
    n = trace.num_nodes
    positions = [-1] * n
    counters = [0] * assignment.num_rounds
    # Round-0 signature for the uniformity check: (op, lane) per position.
    signature = []
    uniform = True
    for node in range(n):
        r = rounds[node]
        if r < 0:
            continue
        pos = counters[r]
        counters[r] = pos + 1
        positions[node] = pos
        if r == 0:
            signature.append((node_ops[node], lanes_of[node]))
        elif uniform:
            if pos >= len(signature) and counters[0] == len(signature):
                uniform = False
            elif pos < len(signature) and \
                    signature[pos] != (node_ops[node], lanes_of[node]):
                uniform = False
    body = len(signature)
    if uniform and any(c != body for c in counters):
        # A short trailing round still folds consistently as long as its
        # prefix matches; only flag bodies whose op pattern diverges.
        uniform = all(c <= body for c in counters)
    # Folded edges, plus single-chain contraction through serial nodes:
    # a recurrence that routes through a reduction tail (round -> serial
    # ... serial -> round) still constrains the cadence.
    edges = {}
    edges_get = edges.get
    serial_in = {}  # serial node -> {(src_pos, src_round): max latency sum}
    op_lat = {op: OP_INFO[op].latency for op in set(node_ops)}
    node_lat = [op_lat[op] for op in node_ops]
    deps = trace.deps
    for node in range(n):
        r = rounds[node]
        if r < 0:
            lat_s = node_lat[node]
            fanin = {}
            for pred in deps[node]:
                rp = rounds[pred]
                if rp >= 0:
                    key = (positions[pred], rp)
                    w = node_lat[pred] + lat_s
                    if fanin.get(key, -1) < w:
                        fanin[key] = w
                else:
                    for key, w0 in serial_in.get(pred, {}).items():
                        w = w0 + lat_s
                        if fanin.get(key, -1) < w:
                            fanin[key] = w
            if len(fanin) > _SERIAL_FANIN_CAP:
                fanin = dict(sorted(fanin.items(), key=lambda kv: -kv[1])
                             [:_SERIAL_FANIN_CAP])
            if fanin:
                serial_in[node] = fanin
            continue
        pv = positions[node]
        for pred in deps[node]:
            rp = rounds[pred]
            if rp >= 0:
                # Clamp backward (later-round) dependences to distance 0:
                # they only make the fold *more* conservative, and a
                # negative distance would break the II monotonicity the
                # binary search relies on.
                d = r - rp
                key = (positions[pred], pv, d if d > 0 else 0)
                w = node_lat[pred]
                if edges_get(key, -1) < w:
                    edges[key] = w
            else:
                for (pu, ru), w in serial_in.get(pred, {}).items():
                    d = r - ru
                    key = (pu, pv, d if d > 0 else 0)
                    if edges_get(key, -1) < w:
                        edges[key] = w
    # Critical path of one round body over intra-round (d == 0) edges.
    finish = [0] * body
    round_length = 0
    for (pu, pv, d), lat in sorted(edges.items(), key=lambda kv: kv[0][1]):
        if d or pu >= body or pv >= body:
            continue
        t = finish[pu] + lat
        if t > finish[pv]:
            finish[pv] = t
    for node in range(n):
        if rounds[node] == 0:
            pos = positions[node]
            t = finish[pos] + node_lat[node]
            if t > round_length:
                round_length = t
    num_positions = max(body, max(counters) if counters else 0)
    return positions, num_positions, uniform, edges, round_length


def _recurrence_components(num_positions, edges):
    """The folded graph cut into the pieces that can hold a cycle.

    A cycle never leaves its strongly connected component, so only edges
    inside one can constrain the II.  Returns one ``(size, edge_list)``
    per component that has an edge (a trivial component needs a
    self-loop), in local indices ``0 .. size-1``; each ``edge_list`` holds
    ``(u, v, latency, distance)`` sorted by ``u``'s rank in a topological
    order of the component's distance-0 edges, so one Bellman-Ford pass
    carries a value along every distance-0 chain.
    """
    folded = [(pu, pv, lat, d) for (pu, pv, d), lat in edges.items()
              if pu < num_positions and pv < num_positions]
    succ = [[] for _ in range(num_positions)]
    for pu, pv, _lat, _d in folded:
        succ[pu].append(pv)
    # Iterative Tarjan: comp[p] numbers p's strongly connected component.
    index = [-1] * num_positions
    low = [0] * num_positions
    on_stack = [False] * num_positions
    comp = [-1] * num_positions
    stack = []
    counter = num_comps = 0
    for root in range(num_positions):
        if index[root] >= 0:
            continue
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack[root] = True
        work = [(root, 0)]
        while work:
            v, i = work[-1]
            if i < len(succ[v]):
                work[-1] = (v, i + 1)
                w = succ[v][i]
                if index[w] < 0:
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    on_stack[w] = True
                    work.append((w, 0))
                elif on_stack[w] and index[w] < low[v]:
                    low[v] = index[w]
                continue
            work.pop()
            if work and low[v] < low[work[-1][0]]:
                low[work[-1][0]] = low[v]
            if low[v] == index[v]:
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp[w] = num_comps
                    if w == v:
                        break
                num_comps += 1
    grouped = {}
    for edge in folded:
        if comp[edge[0]] == comp[edge[1]]:
            grouped.setdefault(comp[edge[0]], []).append(edge)
    components = []
    for comp_edges in grouped.values():
        members = sorted({pu for pu, _pv, _lat, _d in comp_edges})
        local = {p: i for i, p in enumerate(members)}
        comp_edges = [(local[pu], local[pv], lat, d)
                      for pu, pv, lat, d in comp_edges]
        # Kahn's order over distance-0 edges; positions on or behind a
        # distance-0 cycle never reach in-degree 0 and go last.
        indegree = [0] * len(members)
        succ0 = [[] for _ in members]
        for u, v, _lat, d in comp_edges:
            if not d:
                succ0[u].append(v)
                indegree[v] += 1
        order = [u for u in range(len(members)) if not indegree[u]]
        for u in order:
            for v in succ0[u]:
                indegree[v] -= 1
                if not indegree[v]:
                    order.append(v)
        rank = [len(members)] * len(members)
        for i, u in enumerate(order):
            rank[u] = i
        comp_edges.sort(key=lambda edge: rank[edge[0]])
        components.append((len(members), comp_edges))
    return components


def _has_parent_cycle(parent):
    """True if the Bellman-Ford parent pointers close a cycle."""
    seen = [0] * len(parent)
    for start in range(len(parent)):
        v = start
        while v >= 0 and not seen[v]:
            seen[v] = start + 1
            v = parent[v]
        if v >= 0 and seen[v] == start + 1:
            return True
    return False


def _has_positive_cycle(components, ii):
    """Bellman-Ford feasibility: True if some cycle has positive weight
    under ``weight = latency - ii * distance`` (i.e. II is infeasible).

    Runs per component of :func:`_recurrence_components`.  A pass that
    changes nothing proves the component free of positive cycles, and one
    still changing after ``size`` passes proves it holds one.  A cycle
    among the parent pointers is a positive cycle too (every edge on it
    was the last to raise its head, strictly, so the weights around it
    sum above zero), which stops an infeasible II after a few passes.
    """
    for size, comp_edges in components:
        weighted = [(u, v, lat - ii * d) for u, v, lat, d in comp_edges]
        dist = [0] * size
        parent = [-1] * size
        for _ in range(size):
            changed = False
            for u, v, w in weighted:
                t = dist[u] + w
                if t > dist[v]:
                    dist[v] = t
                    parent[v] = u
                    changed = True
            if not changed:
                break
            if _has_parent_cycle(parent):
                return True
        else:
            return True
    return False


def _rec_mii(num_positions, edges):
    """Smallest II admitting no positive-weight folded cycle."""
    if not any(d for (_pu, _pv, d) in edges):
        return 1
    # Any simple cycle's mean is bounded by the total folded latency
    # (every cycle crosses >= 1 round), so binary search below that.
    hi = max(1, sum(edges.values()))
    components = _recurrence_components(num_positions, edges)
    if not _has_positive_cycle(components, 1):
        return 1
    lo = 1  # infeasible
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _has_positive_cycle(components, mid):
            lo = mid
        else:
            hi = mid
    return hi


def _res_mii(trace, assignment, caps, mem_slots_per_cycle):
    """Resource lower bound on the round cadence, in cycles."""
    rounds = assignment.round
    node_ops = trace.node_op
    fu_of = {op: OP_INFO[op].fu for op in set(node_ops)}
    per_round_lane_fu = Counter(
        (r, lane, fu_of[op])
        for r, lane, op in zip(rounds, assignment.lane, node_ops) if r >= 0)
    per_round_mem = Counter(r for r, op in zip(rounds, node_ops)
                            if r >= 0 and op in MEMORY_OPS)
    res = 1
    for (_r, _lane, fu), count in per_round_lane_fu.items():
        need = -(-count // max(caps[fu], 1))
        if need > res:
            res = need
    if mem_slots_per_cycle:
        for count in per_round_mem.values():
            need = -(-count // mem_slots_per_cycle)
            if need > res:
                res = need
    return res


def _placement_feasible(trace, assignment, positions, edges, caps,
                        mem_slots_per_cycle, ii, round_length):
    """Light modulo-reservation check: can the round body be placed?

    ASAP times under the folded constraints (cross-round edges relaxed by
    ``ii * distance``), then greedy placement of each op into the first of
    ``ii`` candidate slots whose ``(lane, fu)`` reservation row — and the
    aggregate memory row — still has width.  A failed placement means
    this II cannot sustain the cadence statically.
    """
    rounds = assignment.round
    lanes_of = assignment.lane
    node_ops = trace.node_op
    body = [node for node in range(trace.num_nodes) if rounds[node] == 0]
    if not body:
        return True
    asap = {positions[node]: 0 for node in body}
    # Fixpoint over folded edges restricted to body positions; bounded
    # passes — a positive cycle was already excluded by RecMII <= ii.
    for _ in range(len(body)):
        changed = False
        for (pu, pv, d), lat in edges.items():
            if pu not in asap or pv not in asap:
                continue
            t = asap[pu] + lat - ii * d
            if t > asap[pv]:
                asap[pv] = t
                changed = True
        if not changed:
            break
    table = {}   # (lane, fu, slot) -> uses
    mem_table = [0] * ii
    order = sorted(body, key=lambda node: (asap[positions[node]],
                                           positions[node]))
    for node in order:
        op = node_ops[node]
        fu = OP_INFO[op].fu
        lane = lanes_of[node]
        cap = max(caps[fu], 1)
        mem = is_memory(op)
        t0 = max(asap[positions[node]], 0)
        for offset in range(ii):
            slot = (t0 + offset) % ii
            key = (lane, fu, slot)
            if table.get(key, 0) >= cap:
                continue
            if mem and mem_slots_per_cycle and \
                    mem_table[slot] >= mem_slots_per_cycle:
                continue
            table[key] = table.get(key, 0) + 1
            if mem:
                mem_table[slot] += 1
            break
        else:
            return False
    return True


def plan_ii(ddg, assignment, fu_per_lane=None, mem_slots_per_cycle=None,
            ii="auto"):
    """Resolve the initiation interval for one (graph, datapath) pair.

    Returns an :class:`IIPlan` whose ``ii`` is the enforced round cadence
    in accelerator cycles.  Degenerate graphs — a single round, or no
    parallel iterations at all — get ``ii = 0`` (nothing to gate; the
    schedule is serial / single-round and modulo mode reduces to barrier
    behavior).  ``ii="auto"`` searches upward from
    ``max(RecMII, ResMII)`` for the smallest statically placeable II,
    capped at the round length; an explicit integer is enforced verbatim
    (the bounds are still computed and reported).
    """
    trace = ddg.trace
    caps = fu_capacities(fu_per_lane)
    key = ("ii", assignment.lanes, tuple(sorted(caps.items())),
           mem_slots_per_cycle, ii, trace.num_nodes)
    memo = getattr(ddg, "_ii_memo", None)
    if memo is None:
        memo = ddg._ii_memo = {}
    cached = memo.get(key)
    if cached is not None:
        return cached
    num_rounds = assignment.num_rounds
    if num_rounds <= 1:
        plan = IIPlan(0, 0, 0, 0, num_rounds, True)
        memo[key] = plan
        return plan
    positions, num_positions, uniform, edges, round_length = \
        _fold_round_body(trace, assignment)
    rec = _rec_mii(num_positions, edges)
    res = _res_mii(trace, assignment, caps, mem_slots_per_cycle)
    cap_ii = max(round_length, rec, res, 1)
    if ii == "auto":
        candidate = max(rec, res, 1)
        if uniform:
            while candidate < cap_ii and not _placement_feasible(
                    trace, assignment, positions, edges, caps,
                    mem_slots_per_cycle, candidate, round_length):
                candidate += 1
        resolved = candidate
    else:
        resolved = int(ii)
        if resolved < 1:
            raise ValueError(f"ii must be >= 1, got {ii!r}")
    plan = IIPlan(resolved, rec, res, round_length, num_rounds, uniform)
    memo[key] = plan
    return plan
