"""Backend selectors shared by the cross-backend parity tests."""

from __future__ import annotations

from repro.database.sqlite_backend import SQLiteBackend

#: The dict-indexed memory backend, single-connection sqlite, and sqlite
#: with a snapshot read pool.
BACKENDS = ("memory", "sqlite", "sqlite-pool")


def make_backend(name: str):
    """A ``with_backend``/``DatabaseInstance`` selector for ``name``:
    ``sqlite-pool`` is a fresh sqlite backend with a read pool of 2."""
    return SQLiteBackend(pool_size=2) if name == "sqlite-pool" else name
