"""Correctness reference: a digest of every simulated point's results.

Each entry maps ``<workload>|<fidelity>|<design key>`` to a short hash of
the point's simulated timing and energy: accelerator cycles, total ticks,
the cycle breakdown, the energy breakdown and the area breakdown.  The
scan-order-dependent ``spad_conflicts`` and ``reservation_conflicts``
stay out of the digest; traced runs report them as counters instead.

Every benchmark run checks each point it simulates against
``reference.json``.  After a change that is meant to alter simulated
results, regenerate the file and read which entries moved::

    python3 perfbench/reference.py
"""

import hashlib
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(HERE, "reference.json")


def entry_key(result):
    fidelity = getattr(result, "fidelity", "exact")
    return f"{result.workload}|{fidelity}|{result.design.key()}"


def digest(result):
    """Short hash of one point's simulated timing, energy and area."""
    record = {
        "accel_cycles": result.accel_cycles,
        "total_ticks": result.total_ticks,
        "breakdown": result.breakdown,
        "energy": result.energy.as_dict(),
        "area": result.area.as_dict() if result.area is not None else None,
    }
    text = json.dumps(record, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


class Reference:
    """Checks results against the recorded digests, or records them."""

    def __init__(self, entries=None, record=False):
        self.entries = {} if entries is None else entries
        self.record = record

    @classmethod
    def load(cls, path=REFERENCE_PATH):
        with open(path) as fh:
            return cls(json.load(fh))

    def matches(self, result):
        """True when ``result`` reproduces its recorded digest.  A failed
        point or a point with no recorded digest does not match."""
        if getattr(result, "is_failure", False):
            return False
        return self.matches_entry(entry_key(result), digest(result))

    def matches_entry(self, key, value):
        """True when digest ``value`` is the one recorded under ``key``."""
        if self.record:
            self.entries[key] = value
            return True
        return self.entries.get(key) == value


def moved(old, new):
    """Sorted ``(change, key)`` pairs between two digest tables."""
    out = [("added", k) for k in new if k not in old]
    out += [("removed", k) for k in old if k not in new]
    out += [("changed", k) for k in new if k in old and old[k] != new[k]]
    return sorted(out, key=lambda pair: (pair[1], pair[0]))


def regenerate(path=REFERENCE_PATH):
    """Re-simulate every point the workloads check and rewrite ``path``.

    Prints one line per entry that was added, removed or changed."""
    from perfbench.workloads import WORKLOADS

    old = {}
    if os.path.exists(path):
        with open(path) as fh:
            old = json.load(fh)
    ref = Reference(record=True)
    for name, workload in WORKLOADS.items():
        print(f"simulating {name} ...", file=sys.stderr, flush=True)
        run = workload(seed=0, seconds=0.0, reference=ref)
        if run.failed:
            raise SystemExit(f"{name}: {run.failed} operation(s) failed "
                             f"while recording: {run.problems[:3]}")
    changes = moved(old, ref.entries)
    for change, key in changes:
        print(f"{change:8s} {key}")
    print(f"{len(ref.entries)} entries, {len(changes)} moved",
          file=sys.stderr)
    with open(path, "w") as fh:
        json.dump(ref.entries, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return changes


if __name__ == "__main__":
    sys.path[:0] = [os.path.dirname(HERE), os.path.join(os.path.dirname(HERE),
                                                        "src")]
    regenerate()
