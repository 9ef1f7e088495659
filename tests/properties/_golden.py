"""Golden-run snapshot machinery for the determinism property suite.

A *snapshot* is every number a simulation produces — total ticks, cycle
breakdown, energy, power, EDP, area, and the full ``RunResult.stats``
dict — serialized to canonical JSON.  The committed ``golden_runs.json``
was captured from the unoptimized (pre hot-path overhaul) simulator;
``test_property_golden.py`` asserts the optimized kernel / scheduler /
cache paths reproduce it byte-for-byte.

The wider net is ``golden_digests.json``: one SHA-256 of the canonical
snapshot per (workload, design shape) over all 19 workloads and the
shapes in :data:`DIGEST_SHAPES` — modulo and off pipelining, cache with
modulo, a port-starved cache (8 lanes on one port), and perfect memory —
asserted by ``test_property_digests.py``.

Regenerate (only when a *modeling* change legitimately moves the numbers):

    PYTHONPATH=src python -m tests.properties._golden           # snapshots
    PYTHONPATH=src python -m tests.properties._golden digests   # digests

The digest command prints every key whose digest moved, appeared or
disappeared.
"""

import hashlib
import json
import os
import sys

from repro.core.config import DesignPoint
from repro.core.soc import run_design
from repro.workloads import ALL_WORKLOADS

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden_runs.json")
DIGEST_PATH = os.path.join(os.path.dirname(__file__), "golden_digests.json")

WORKLOADS = ("gemm-ncubed", "stencil-stencil2d", "fft-transpose")

DESIGNS = {
    "dma-default": DesignPoint(lanes=4, partitions=4, mem_interface="dma"),
    "dma-bulk-8x2": DesignPoint(lanes=8, partitions=2, mem_interface="dma",
                                pipelined_dma=False,
                                dma_triggered_compute=False),
    "cache-4k-2p": DesignPoint(lanes=4, partitions=4, mem_interface="cache",
                               cache_size_kb=4, cache_ports=2,
                               cache_assoc=4, prefetcher="stride"),
}

_CACHE_4K = dict(lanes=4, partitions=4, mem_interface="cache",
                 cache_size_kb=4, cache_ports=2, cache_assoc=4,
                 prefetcher="stride")

#: Design shapes of the digest net: the scheduler paths the snapshot
#: designs above never reach (II gating, free overlap, perfect memory,
#: and lanes starved for cache ports, where the issue pass skips lanes
#: whose only issuable class is blocked on the spent port budget).
DIGEST_SHAPES = {
    "dma-modulo": DesignPoint(lanes=4, partitions=4, mem_interface="dma",
                              pipelining="modulo"),
    "dma-off": DesignPoint(lanes=4, partitions=4, mem_interface="dma",
                           pipelining="off"),
    "cache-modulo": DesignPoint(pipelining="modulo", **_CACHE_4K),
    "cache-perfect": DesignPoint(perfect_memory=True, **_CACHE_4K),
    "cache-8l-1p-modulo": DesignPoint(lanes=8, partitions=4,
                                      mem_interface="cache",
                                      cache_size_kb=16, cache_assoc=4,
                                      cache_ports=1, prefetcher="stride",
                                      pipelining="modulo"),
}

DIGEST_KEYS = tuple(f"{workload}/{shape}" for workload in ALL_WORKLOADS
                    for shape in DIGEST_SHAPES)


def snapshot(result):
    """Every externally visible number of one run, JSON-serializable."""
    return {
        "total_ticks": result.total_ticks,
        "accel_cycles": result.accel_cycles,
        "breakdown": dict(result.breakdown),
        "energy_pj": result.energy_pj,
        "power_mw": result.power_mw,
        "edp": result.edp,
        "area_mm2": result.area_mm2,
        "stats": {k: v for k, v in sorted(result.stats.items())},
    }


def canonical(obj):
    """Canonical JSON bytes — byte-identical iff the numbers are."""
    return json.dumps(obj, sort_keys=True, indent=1).encode()


def capture_all():
    """Run every (workload, design) pair and snapshot it."""
    runs = {}
    for workload in WORKLOADS:
        for key, design in DESIGNS.items():
            result = run_design(workload, design)
            runs[f"{workload}/{key}"] = snapshot(result)
    return runs


def digest(key):
    """SHA-256 of the canonical snapshot of one ``workload/shape`` key."""
    workload, shape = key.split("/")
    result = run_design(workload, DIGEST_SHAPES[shape])
    return hashlib.sha256(canonical(snapshot(result))).hexdigest()


def load_golden():
    with open(GOLDEN_PATH, "rb") as fh:
        return json.load(fh)


def load_digests():
    with open(DIGEST_PATH, "rb") as fh:
        return json.load(fh)


def _write(path, obj):
    with open(path, "wb") as fh:
        fh.write(canonical(obj))
        fh.write(b"\n")


def regenerate_digests():
    """Recompute every digest, rewrite the file, and name what moved."""
    old = load_digests() if os.path.exists(DIGEST_PATH) else {}
    new = {key: digest(key) for key in DIGEST_KEYS}
    _write(DIGEST_PATH, new)
    moved = sorted(k for k in new.keys() & old.keys() if new[k] != old[k])
    for label, keys in (("moved", moved),
                        ("added", sorted(new.keys() - old.keys())),
                        ("removed", sorted(old.keys() - new.keys()))):
        for key in keys:
            print(f"{label:8s}{key}")
    print(f"wrote {len(new)} digests to {DIGEST_PATH} ({len(moved)} moved)")


def main(argv):
    if argv == ["digests"]:
        regenerate_digests()
        return
    if argv:
        sys.exit("usage: python -m tests.properties._golden [digests]")
    runs = capture_all()
    _write(GOLDEN_PATH, runs)
    print(f"wrote {len(runs)} golden runs to {GOLDEN_PATH}")


if __name__ == "__main__":
    main(sys.argv[1:])
