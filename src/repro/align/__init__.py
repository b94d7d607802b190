"""Alignment kernel: the Fourier distance, orientation grids and matching.

This package implements steps (f)–(h) of the paper's algorithm — the inner
loop in which each experimental view's 2D DFT is compared with a window of
calculated cuts through the map's 3D DFT — plus the two baselines used for
comparison: common-lines initial orientation assignment and classic
real-space projection matching restricted to an icosahedral asymmetric unit
(the "old method").
"""

from repro.align.distance import (
    DistanceComputer,
    fourier_distance,
    fourier_distance_batch,
    radius_weights,
)
from repro.align.fused import MatchPlan, get_match_plan
from repro.align.grid import OrientationGrid, orientation_window, step_offsets
from repro.align.matcher import MatchResult, match_view, match_view_window
from repro.align.memo import MemoStore, OrientationMemo, memo_key
from repro.align.common_lines import (
    common_line_angles,
    sinogram,
    initial_orientations_common_lines,
)
from repro.align.projection_matching import (
    ProjectionLibrary,
    build_projection_library,
    match_against_library,
    refine_icosahedral,
)
from repro.align.classify import (
    align_to_reference,
    iterative_class_average,
    polar_resample,
    polar_rotation_align,
)
from repro.align.multireference import (
    ClassificationResult,
    classify_views,
    iterative_classification,
)

__all__ = [
    "fourier_distance",
    "fourier_distance_batch",
    "radius_weights",
    "DistanceComputer",
    "MatchPlan",
    "get_match_plan",
    "OrientationGrid",
    "orientation_window",
    "step_offsets",
    "MatchResult",
    "match_view",
    "match_view_window",
    "MemoStore",
    "OrientationMemo",
    "memo_key",
    "sinogram",
    "common_line_angles",
    "initial_orientations_common_lines",
    "ProjectionLibrary",
    "build_projection_library",
    "match_against_library",
    "refine_icosahedral",
    "polar_resample",
    "polar_rotation_align",
    "align_to_reference",
    "iterative_class_average",
    "ClassificationResult",
    "classify_views",
    "iterative_classification",
]
