"""The full-scan re-replication cycle: the reference side of the repair oracle.

:func:`repair_cycle` is the daemon's cycle as it was before the catalog
kept an under-replicated index: every cycle re-ranks every catalogued
GFN in sorted order and only then asks whether it needs a copy.  The
body is kept verbatim (``self`` is the grid) so the differential test in
``tests/properties/test_repair_oracle.py`` compares the indexed cycle
against the exact behaviour it replaced.  Install it on one grid with
:func:`use_reference_repair` before the engine runs.
"""

import types

from repro.grid.middleware import TransferContext


def repair_cycle(self):
    engine = self.engine
    for gfn in list(self.catalog.gfns()):
        healthy = self.catalog.healthy_replicas(gfn)
        live = sorted(
            (se for se in healthy if not self.storage_down(se)),
            key=lambda se: se.name,
        )
        if not live or len(healthy) >= self.repair_target:
            continue
        holders = {se.name for se in healthy}
        targets = sorted(
            (
                se
                for se in self._storage_by_site.values()
                if se.name not in holders and not self.storage_down(se)
            ),
            key=lambda se: se.name,
        )
        src = live[0]
        file = self.catalog.lookup(gfn)
        for dst in targets[: self.repair_target - len(healthy)]:
            self.transfer_context = TransferContext(purpose="repair", gfn=gfn)
            try:
                seconds = self.network.transfer_time(
                    src.site, dst.site, file.size, now=engine.now
                )
            finally:
                self.transfer_context = None
            yield engine.timeout(seconds)
            self.catalog.register(file, dst)
            self._counter("grid.repair.transfers")


def use_reference_repair(grid):
    """Make *grid*'s repair daemon run :func:`repair_cycle` instead."""
    grid._repair_cycle = types.MethodType(repair_cycle, grid)
    return grid
