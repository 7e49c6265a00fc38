"""trackfuse: tracking-by-detection with per-track class-probability fusion.

Link per-frame detections into trajectories with pluggable multi-object
trackers, then fuse each trajectory's softmax class distributions in log
space into one stable consensus label.  Per sequence, ``parse_detections``
gives (frame_id, Detection list) pairs, ``run_sequence`` a ``ColumnResult``
with raw labels, ``relabel(res.cols, res.track, mode)`` the fused
``ColumnResult``, and ``write_tracks`` the track CSV of all sequences.
"""

from .errors import TrackfuseError
from .fusion import FusionMode, relabel
from .io import parse_detections, read_labels, write_tracks
from .trackers import TrackerConfig, TrackerKind, run_sequence

__version__ = "0.1.0"

__all__ = [
    "FusionMode", "TrackerConfig", "TrackerKind", "TrackfuseError", "parse_detections",
    "read_labels", "relabel", "run_sequence", "write_tracks",
]
