"""Ball–Larus path profiling: recording edges, path numbering, profiles,
and hot-path selection (§2.3 and §3 of the paper)."""

from .ball_larus import BallLarusNumbering
from .hot_paths import coverage_of, select_hot_paths
from .path_profile import BLPath, PathProfile, profile_from_traces, split_trace
from .recording import path_start_vertices, recording_edges
from .serialize import (
    ProfileFormatError,
    dump_profiles,
    dumps_profiles,
    fingerprint_profile,
    load_profiles,
    loads_profiles,
)

__all__ = [
    "BallLarusNumbering",
    "BLPath",
    "coverage_of",
    "dump_profiles",
    "dumps_profiles",
    "fingerprint_profile",
    "load_profiles",
    "loads_profiles",
    "ProfileFormatError",
    "PathProfile",
    "path_start_vertices",
    "profile_from_traces",
    "recording_edges",
    "select_hot_paths",
    "split_trace",
]
