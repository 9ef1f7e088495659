"""Miss Status Holding Registers.

MSHRs give the accelerator cache hit-under-miss and multiple outstanding
misses (Section IV-D): a lane blocked on a miss does not prevent other lanes
from hitting, and secondary misses to an in-flight line merge instead of
issuing duplicate fills.  The paper's configuration uses 16 MSHRs (Figure 3).
"""


class MSHRFile:
    """Tracks in-flight line fills and the requests waiting on each."""

    def __init__(self, num_entries):
        self.num_entries = num_entries
        self._entries = {}
        self.max_in_use = 0
        self.merged_misses = 0

    def lookup(self, line_addr):
        """True when a fill for ``line_addr`` is already outstanding."""
        return line_addr in self._entries

    def full(self):
        """True when no MSHR entry is free."""
        return len(self._entries) >= self.num_entries

    def allocate(self, line_addr):
        """Reserve an entry for a new primary miss.

        Returns False when no entry is free (the access must retry later).
        """
        entries = self._entries
        if line_addr in entries:
            raise ValueError(f"MSHR already allocated for line 0x{line_addr:x}")
        in_use = len(entries)
        if in_use >= self.num_entries:
            return False
        entries[line_addr] = []
        if in_use >= self.max_in_use:
            self.max_in_use = in_use + 1
        return True

    def merge(self, line_addr, waiter):
        """Attach a secondary miss to an outstanding fill."""
        self._entries[line_addr].append(waiter)
        self.merged_misses += 1

    def release(self, line_addr):
        """Complete a fill; returns the waiters that merged into it."""
        return self._entries.pop(line_addr)

    def pending_lines(self):
        """Line addresses with fills still outstanding (audit/diagnosis)."""
        return list(self._entries)

    @property
    def in_use(self):
        return len(self._entries)
