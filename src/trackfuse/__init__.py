"""trackfuse: tracking-by-detection with per-track class-probability fusion.

Link per-frame detections into trajectories with pluggable multi-object
trackers, then fuse each trajectory's softmax class distributions in log
space into one stable consensus label.  The library works on columns:
``read_columns`` gives one ``Columns`` record for a whole file, its sequences in
name order; ``track_columns`` gives a track id per row of it, numbered from 1 in
each sequence; ``relabel(cols, track, mode)`` fuses every track into one
``ColumnResult``; and ``write_tracks`` writes its track CSV.  The benchmark's
own code reads a few more names: it writes its inputs with
``synth.Scenario.detection_frames`` and ``io.write_detections``, and its trace
wraps an alias of ``read_columns`` in ``io`` and one of ``track_columns`` in
``cli``, which nothing calls.
"""

from .errors import TrackfuseError
from .fusion import FusionMode, relabel
from .io import read_columns, read_labels, write_tracks
from .trackers import TrackerConfig, TrackerKind, track_columns

__version__ = "0.1.0"

__all__ = [
    "FusionMode", "TrackerConfig", "TrackerKind", "TrackfuseError", "read_columns",
    "read_labels", "relabel", "track_columns", "write_tracks",
]
