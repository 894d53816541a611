"""How a stacked grid's parameter rows reach its shards.

Shards that stay in this process (no pool, ``pool=serial``,
``pool=thread``) slice one grid materialised per sweep (``"view"``).
Shards that cross a process boundary rebuild their rows from the covered
points' scalars (``"pickle"``), so only a handful of scalars is pickled
per shard.  Both feed the kernels value-identical rows, so results are
byte-identical whichever pool runs the grid.
"""

from __future__ import annotations

__all__ = ["resolve_stacked_transport"]


# Kept importable for the benchmark harness under ``perfbench/``:
# ``run.py`` calls ``resolve_stacked_transport("auto", pooled=True)`` in
# ``provenance()`` and ``_dispose_live_planes()`` in ``stop_children()``,
# and ``tracing.py`` patches ``SharedGridPlanes.from_points``.  The
# positional argument, the no-op and the stub go with the next change to
# that harness.
def resolve_stacked_transport(*_, pooled: bool) -> str:
    """Return ``"pickle"`` when shards leave this process, else ``"view"``."""
    return "pickle" if pooled else "view"


def _dispose_live_planes() -> None:
    """No-op: no shared parameter planes exist to dispose of."""


class SharedGridPlanes:
    """Uncalled stub: stacked grids are never placed in shared memory."""

    @classmethod
    def from_points(cls, points, counts, schemes=None):
        raise NotImplementedError("stacked grids are never placed in shared memory")
