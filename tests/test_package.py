"""Package surface: the top level exports only what running the pipeline needs."""

import trackfuse

PIPELINE = {"read_labels", "parse_detections", "TrackerConfig", "TrackerKind", "run_sequence",
            "FusionMode", "relabel", "write_tracks", "TrackfuseError"}


def test_all_is_exactly_the_pipeline():
    assert sorted(trackfuse.__all__) == sorted(PIPELINE)
    namespace = {}
    exec("from trackfuse import *", namespace)
    assert PIPELINE <= set(namespace)
    for name in PIPELINE:
        assert namespace[name] is getattr(trackfuse, name)
