"""Central numerical tolerance configuration.

All validation and comparison thresholds live in one frozen record so that
tests, bounds and the verification harness agree on what "equal" means.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    #: Hermiticity defect, relative to the largest absolute entry.
    herm: float = 1e-12
    #: allowed deviation of a trace (or probability sum) from 1.
    trace: float = 1e-10
    #: eigenvalues in [-psd, 0) are clipped to 0; anything lower is rejected.
    psd: float = 1e-10
    #: column orthonormality / completeness defect for isometries,
    #: resolutions and generalized measurements.
    orthonormal: float = 1e-10
    #: round-trip error allowed when an ensemble reconstructs its state.
    reconstruction: float = 1e-10
    #: eigenvalues above this count toward the rank.
    rank: float = 1e-12
    #: ensemble members with weight below this are discarded.
    ensemble_weight: float = 1e-14
    #: |q - 1| below this dispatches to the Shannon / von Neumann limit.
    q_limit: float = 1e-7
    #: |s| below this dispatches to the Renyi limit.
    s_limit: float = 1e-9
    #: slack for theorem checks, scaled by (1 + magnitude of the sides).
    check_rel: float = 1e-8


TOL = Tolerances()
