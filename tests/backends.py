"""Backend selectors shared by the cross-backend parity tests."""

from __future__ import annotations

#: The dict-indexed memory backend and single-connection sqlite.
BACKENDS = ("memory", "sqlite")
