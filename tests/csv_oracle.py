"""Per-cell ``repr`` CSV writer: the reference for the CLI's vectorised cell formatter.

This is the straightforward loop: one ``repr`` per float, cells joined
by commas and rows by newlines, after a header line.  The CLI formats
its cells with ``spherefall._shortest.cells_text`` instead, which must
give the same text byte for byte.
"""

from __future__ import annotations

import numpy as np


def csv_text_loop(header: list[str], columns: list[np.ndarray]) -> str:
    """CSV of equal-length float columns, each value as ``repr`` prints it."""
    cells = [map(repr, np.asarray(c, dtype=float).tolist()) for c in columns]
    lines = [",".join(header), *map(",".join, zip(*cells))]
    return "\n".join(lines) + "\n"
