"""Property-based tests for modulo-scheduled loop pipelining.

The load-bearing equivalence: with deterministic scratchpad timing and
uniform rounds, forcing the initiation interval to one round's length
must reproduce barrier mode *bit-identically* — the II gate then opens
each round exactly when the barrier would have.  Random uniform kernels
(random op chains, optional loop-carried accumulator, random lane
counts) probe that equivalence, plus the basic sandwich
``off <= modulo(auto) <= barriers`` and the RecMII dependence bound.

RecMII itself is checked against an oracle: the plain binary-searched
Bellman-Ford, one ``num_positions``-pass sweep over every folded edge per
probe, on random folded graphs built to stress the component-restricted
search (disjoint cycles, self-loops, zero latencies, distance-0 cycles).
"""

from hypothesis import assume, given, settings, strategies as st

from repro.aladdin.accelerator import Accelerator
from repro.aladdin.modulo import _rec_mii
from repro.aladdin.trace import TraceBuilder
from repro.aladdin.transforms import assign_lanes

# Op-chain steps: (method name, latency is irrelevant here — variety is
# the point).  All take (value, constant).
OPS = ("fadd", "fmul", "add", "mul")

ops_chains = st.lists(st.sampled_from(OPS), min_size=1, max_size=4)
lanes_st = st.sampled_from((1, 2, 4))
iters_st = st.integers(min_value=2, max_value=12)


def build_kernel(num_iters, chain, carried):
    """A uniform per-iteration kernel: load -> op chain -> store, with an
    optional loop-carried accumulator threaded through the first op."""
    tb = TraceBuilder("prop")
    tb.array("a", num_iters, 4, kind="input",
             init=[float(i) for i in range(num_iters)])
    tb.array("out", num_iters, 4, kind="output")
    acc = None
    for i in range(num_iters):
        with tb.iteration(i):
            x = tb.load("a", i)
            if carried and acc is not None:
                x = tb.fadd(acc, x)
            for op in chain:
                x = getattr(tb, op)(x, 2.0)
            if carried:
                acc = x
            tb.store("out", i, x)
    return tb


@given(iters_st, lanes_st, ops_chains)
@settings(max_examples=40, deadline=None)
def test_ii_at_round_duration_is_bit_identical_to_barriers(
        num_iters, lanes, chain):
    # Restricted to carried=False: a loop-carried accumulator makes round
    # durations non-uniform (iteration 0 lacks the carried fadd), and the
    # II gate then legitimately opens some rounds *earlier* than their
    # barrier would — modulo gets faster, not identical.
    tb = build_kernel(num_iters, chain, carried=False)
    barrier = Accelerator(tb, lanes, 4).run_isolated()
    num_rounds = assign_lanes(tb, lanes).num_rounds
    assume(num_rounds > 1)
    assume(barrier.cycles % num_rounds == 0)  # uniform round duration
    round_cycles = barrier.cycles // num_rounds
    forced = Accelerator(tb, lanes, 4, pipelining="modulo",
                         ii=round_cycles).run_isolated()
    assert forced.ticks == barrier.ticks
    assert forced.scheduler.reservation_conflicts == \
        barrier.scheduler.reservation_conflicts == 0


@given(iters_st, lanes_st, ops_chains, st.booleans())
@settings(max_examples=25, deadline=None)
def test_auto_ii_sandwiched_between_off_and_barriers(
        num_iters, lanes, chain, carried):
    """Modulo gating can never beat free overlap nor lose to barriers:
    the gate only delays issue relative to "off", and a fully completed
    round always releases its successor (the barrier fallback), so an
    overestimated II cannot throttle below barrier behavior."""
    tb = build_kernel(num_iters, chain, carried)
    barrier = Accelerator(tb, lanes, 4).run_isolated()
    off = Accelerator(tb, lanes, 4, pipelining="off").run_isolated()
    modulo = Accelerator(tb, lanes, 4, pipelining="modulo").run_isolated()
    assert off.cycles <= modulo.cycles <= barrier.cycles


@given(iters_st, lanes_st, ops_chains)
@settings(max_examples=25, deadline=None)
def test_carried_chain_bounds_runtime_at_any_ii(num_iters, lanes, chain):
    """Even at II=1 the loop-carried accumulator serializes: runtime is
    at least the chain's dependence height, gates notwithstanding."""
    tb = build_kernel(num_iters, chain, carried=True)
    res = Accelerator(tb, lanes, 4, pipelining="modulo",
                      ii=1).run_isolated()
    # Each iteration after the first adds one fadd (latency 3) to the
    # carried chain.
    assert res.cycles >= (num_iters - 1) * 3


def oracle_rec_mii(num_positions, edges):
    """Smallest II with no positive cycle under ``lat - II * distance``,
    by a |V|-pass Bellman-Ford over all folded edges per probe."""
    def infeasible(ii):
        dist = [0] * num_positions
        weighted = [(pu, pv, lat - ii * d)
                    for (pu, pv, d), lat in edges.items()
                    if pu < num_positions and pv < num_positions]
        for _ in range(num_positions):
            changed = False
            for pu, pv, w in weighted:
                if dist[pu] + w > dist[pv]:
                    dist[pv] = dist[pu] + w
                    changed = True
            if not changed:
                return False
        return True

    if not any(d for (_pu, _pv, d) in edges):
        return 1
    hi = max(1, sum(edges.values()))
    if not infeasible(1):
        return 1
    lo = 1
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if infeasible(mid):
            lo = mid
        else:
            hi = mid
    return hi


latencies = st.integers(min_value=0, max_value=9)
distances = st.integers(min_value=0, max_value=3)


@st.composite
def folded_graphs(draw):
    """``(num_positions, edges)``: a few strongly connected blocks on
    shuffled positions, each closed by a ring (optionally all distance 0,
    a recurrence no II satisfies when its latency is positive), with
    random chords and self-loops inside and forward-only edges between
    blocks so the blocks stay separate components."""
    sizes = draw(st.lists(st.integers(min_value=1, max_value=5),
                          min_size=1, max_size=4))
    spare = draw(st.integers(min_value=0, max_value=2))
    num_positions = sum(sizes) + spare
    perm = draw(st.permutations(range(num_positions)))
    blocks, start = [], 0
    for size in sizes:
        blocks.append([perm[i] for i in range(start, start + size)])
        start += size
    edges = {}

    def add(pu, pv, d):
        lat = draw(latencies)
        edges[(pu, pv, d)] = max(edges.get((pu, pv, d), 0), lat)

    for block in blocks:
        zero_ring = draw(st.booleans()) and draw(st.booleans())
        if len(block) > 1:
            for i, pu in enumerate(block):
                add(pu, block[(i + 1) % len(block)],
                    0 if zero_ring else draw(distances))
        for _ in range(draw(st.integers(min_value=0, max_value=4))):
            add(draw(st.sampled_from(block)), draw(st.sampled_from(block)),
                draw(distances))
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        i = draw(st.integers(min_value=0, max_value=len(blocks) - 1))
        j = draw(st.integers(min_value=i, max_value=len(blocks) - 1))
        if i != j:
            add(draw(st.sampled_from(blocks[i])),
                draw(st.sampled_from(blocks[j])), draw(distances))
    return num_positions, edges


@given(folded_graphs())
@settings(max_examples=300, deadline=None)
def test_rec_mii_matches_full_bellman_ford_oracle(graph):
    num_positions, edges = graph
    assert _rec_mii(num_positions, edges) == \
        oracle_rec_mii(num_positions, edges)


@given(st.integers(min_value=1, max_value=6),
       st.dictionaries(
           st.tuples(st.integers(min_value=0, max_value=5),
                     st.integers(min_value=0, max_value=5), distances),
           latencies, max_size=12))
@settings(max_examples=300, deadline=None)
def test_rec_mii_matches_oracle_on_arbitrary_edges(num_positions, edges):
    # Unstructured graphs, including edges past ``num_positions`` (which
    # both sides ignore when looking for cycles).
    assert _rec_mii(num_positions, edges) == \
        oracle_rec_mii(num_positions, edges)
