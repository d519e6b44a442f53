"""``python -m pred``: the same process entry as the ``pred`` script (``pred.cli.run``)."""

from __future__ import annotations

from .cli import run

run()
