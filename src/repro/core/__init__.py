"""CSnake's primary contribution: causal stitching of fault propagations.

The algorithms live here; :class:`repro.pipeline.Pipeline` is the entry
point that runs them as a campaign.
"""

from .allocation import AllocationOutcome, ThreePhaseAllocator
from .beam import BeamSearch, BeamSearchResult
from .compat import CompatChecker
from .cycles import Cycle, CycleCluster, cluster_cycles
from .driver import ExperimentDriver, run_workload
from .edges import EdgeDB
from .fca import FaultCausalityAnalysis, FcaResult
from .idf import IdfVectorizer, cosine_distance
from .report import BugMatch, DetectionReport, build_report

__all__ = [
    "ExperimentDriver",
    "run_workload",
    "FaultCausalityAnalysis",
    "FcaResult",
    "EdgeDB",
    "ThreePhaseAllocator",
    "AllocationOutcome",
    "BeamSearch",
    "BeamSearchResult",
    "CompatChecker",
    "Cycle",
    "CycleCluster",
    "cluster_cycles",
    "IdfVectorizer",
    "cosine_distance",
    "BugMatch",
    "DetectionReport",
    "build_report",
]
