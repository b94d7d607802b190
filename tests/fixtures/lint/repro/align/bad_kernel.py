"""RL006 fixture: a kernel= fork point that open-codes its own distance."""

from __future__ import annotations

import numpy as np


def match_window(view, cuts, kernel="batched"):
    if kernel == "fused":  # retired: only 'batched' and 'reference' exist
        cuts = cuts[::-1]
    return np.sqrt(((view - cuts) ** 2).sum(axis=-1))
