"""Accelerator TLB: translation, LRU, walk coalescing."""

import pytest

from repro.memory.tlb import AcceleratorTLB
from repro.sim.kernel import Simulator
from repro.units import ns_to_ticks

OFFSET = 0x1000_0000


def make_tlb(entries=8, miss_ns=200.0):
    sim = Simulator()
    return sim, AcceleratorTLB(sim, entries=entries, miss_latency_ns=miss_ns)


class TestTranslation:
    def test_miss_then_hit(self):
        sim, tlb = make_tlb()
        results = []
        hit = tlb.translate(0x2000, OFFSET, results.append)
        assert not hit
        sim.run()
        assert results == [0x2000 + OFFSET]
        hit = tlb.translate(0x2004, OFFSET, results.append)
        assert hit
        assert results[-1] == 0x2004 + OFFSET

    def test_offset_preserved_within_page(self):
        sim, tlb = make_tlb()
        results = []
        tlb.translate(0x2ABC, OFFSET, results.append)
        sim.run()
        assert results[0] % 4096 == 0xABC

    def test_miss_pays_walk_latency(self):
        sim, tlb = make_tlb(miss_ns=200.0)
        times = []
        tlb.translate(0x0, OFFSET, lambda p: times.append(sim.now))
        sim.run()
        assert times[0] == ns_to_ticks(200.0)

    def test_hit_is_synchronous(self):
        sim, tlb = make_tlb()
        tlb.translate(0x0, OFFSET, lambda p: None)
        sim.run()
        called = []
        assert tlb.translate(0x4, OFFSET, called.append)
        assert called  # callback fired inside translate()


class TestHitFastPath:
    def test_hit_returns_paddr_and_counts(self):
        sim, tlb = make_tlb()
        tlb.translate(0x2000, OFFSET, lambda p: None)
        sim.run()
        hits = tlb.hits
        assert tlb.hit(0x2ABC) == 0x2ABC + OFFSET
        assert tlb.hits == hits + 1

    def test_hit_refreshes_lru(self):
        sim, tlb = make_tlb(entries=2)
        tlb.translate(0 * 4096, OFFSET, lambda p: None)
        sim.run()
        tlb.translate(1 * 4096, OFFSET, lambda p: None)
        sim.run()
        assert tlb.hit(0) == OFFSET          # refresh page 0
        tlb.translate(2 * 4096, OFFSET, lambda p: None)  # evicts page 1
        sim.run()
        assert tlb.evictions == 1
        assert tlb.hit(0) == OFFSET          # page 0 survived
        assert tlb.hit(1 * 4096) is None     # page 1 was the victim

    def test_miss_returns_none_and_counts_nothing(self):
        sim, tlb = make_tlb()
        # One walk in flight, so the miss would have coalesced into it.
        tlb.translate(0x0, OFFSET, lambda p: None)
        before = (tlb.hits, tlb.misses, tlb.walks,
                  {vpn: list(w) for vpn, w in tlb._pending.items()})
        assert tlb.hit(0x8) is None
        assert tlb.hit(0x5000) is None
        after = (tlb.hits, tlb.misses, tlb.walks,
                 {vpn: list(w) for vpn, w in tlb._pending.items()})
        assert after == before
        sim.run()
        assert tlb.walks == 1


class TestWalkCoalescing:
    def test_concurrent_misses_same_page_one_walk(self):
        sim, tlb = make_tlb()
        done = []
        tlb.translate(0x0, OFFSET, lambda p: done.append(sim.now))
        tlb.translate(0x8, OFFSET, lambda p: done.append(sim.now))
        tlb.translate(0x10, OFFSET, lambda p: done.append(sim.now))
        sim.run()
        assert tlb.walks == 1
        assert done == [ns_to_ticks(200.0)] * 3

    def test_distinct_pages_serialize_on_walker(self):
        sim, tlb = make_tlb()
        done = []
        tlb.translate(0x0000, OFFSET, lambda p: done.append(sim.now))
        tlb.translate(0x1000, OFFSET, lambda p: done.append(sim.now))
        sim.run()
        assert tlb.walks == 2
        assert done == [ns_to_ticks(200.0), ns_to_ticks(400.0)]


class TestLRU:
    def test_capacity_eviction(self):
        sim, tlb = make_tlb(entries=2)
        for page in range(3):
            tlb.translate(page * 4096, OFFSET, lambda p: None)
            sim.run()
        # Page 0 was evicted; page 2 and 1 remain.
        assert not tlb.translate(0x0, OFFSET, lambda p: None)
        sim.run()

    def test_touch_refreshes_lru(self):
        sim, tlb = make_tlb(entries=2)
        tlb.translate(0 * 4096, OFFSET, lambda p: None)
        sim.run()
        tlb.translate(1 * 4096, OFFSET, lambda p: None)
        sim.run()
        tlb.translate(0, OFFSET, lambda p: None)  # hit: refresh page 0
        tlb.translate(2 * 4096, OFFSET, lambda p: None)  # evicts page 1
        sim.run()
        assert tlb.translate(0, OFFSET, lambda p: None)  # still resident

    def test_refill_of_resident_page_refreshes_lru(self):
        """Regression: a walk completing for an already-resident vpn must
        move it to the MRU position, not leave it at its stale LRU slot
        (and must not evict anything)."""
        sim, tlb = make_tlb(entries=2)
        tlb.translate(0 * 4096, OFFSET, lambda p: None)
        sim.run()
        tlb.translate(1 * 4096, OFFSET, lambda p: None)
        sim.run()
        # Page 0 is now LRU.  Deliver a refill for it directly, as a walk
        # racing with residency would.
        tlb._pending[0] = []
        tlb._finish_walk(0, OFFSET // 4096)
        tlb.evictions = 0
        # Insert page 2: the victim must be page 1, not the refreshed page 0.
        tlb.translate(2 * 4096, OFFSET, lambda p: None)
        sim.run()
        assert tlb.evictions == 1
        assert tlb.translate(0, OFFSET, lambda p: None)      # hit
        assert not tlb.translate(1 * 4096, OFFSET, lambda p: None)  # evicted
        sim.run()

    def test_refill_of_resident_page_never_evicts(self):
        sim, tlb = make_tlb(entries=2)
        tlb.translate(0 * 4096, OFFSET, lambda p: None)
        sim.run()
        tlb.translate(1 * 4096, OFFSET, lambda p: None)
        sim.run()
        assert len(tlb._tlb) == tlb.entries
        tlb._pending[0] = []
        tlb._finish_walk(0, OFFSET // 4096)  # TLB is full and 0 is resident
        assert tlb.evictions == 0
        assert len(tlb._tlb) == tlb.entries
        assert tlb.translate(1 * 4096, OFFSET, lambda p: None)  # untouched


class TestStats:
    def test_miss_rate(self):
        sim, tlb = make_tlb()
        tlb.translate(0, OFFSET, lambda p: None)
        sim.run()
        for _ in range(3):
            tlb.translate(4, OFFSET, lambda p: None)
        assert tlb.miss_rate() == pytest.approx(0.25)
