"""Each oracle comparison catches a planted fault in the library function it checks.

A comparison whose oracle calls the function under test agrees with any
version of it.  Each case here swaps one library function for a version with
one plausible fault and runs the comparison that should catch it, which must
then fail; the last case checks that ``tests/oracles.py`` names none of the
swapped functions.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

import test_fusion
import test_trackers
from trackfuse import fusion, trackers
from trackfuse.fusion import FusionMode
from trackfuse.trackers import TrackerKind

MUTATED = ("_reference_boxes", "_greedy_iou", "_update_rows", "_running")


def _last_boxes(state, spec):
    """``_reference_boxes`` that ignores the motion model: tracks cost at their last boxes."""
    return state.table["box"]


def _greedy_iou_high_ties(boxes, det_boxes, config, _real=trackers._greedy_iou):
    """``_greedy_iou`` over reversed tracks and detections: equal IoUs go to the higher index."""
    n_t, n_d = boxes.shape[1], det_boxes.shape[1]
    matches, um_t, um_d = _real(boxes[:, ::-1], det_boxes[:, ::-1], config)
    return (tuple((n_t - 1 - i, n_d - 1 - j) for i, j in matches),
            tuple(sorted(n_t - 1 - i for i in um_t)), tuple(sorted(n_d - 1 - j for j in um_d)))


def _update_rows_without_ema(state, rows, at, boxes, obs, embs, spec, kind,
                             _real=trackers._update_rows):
    """``_update_rows`` that replaces a matched track's embedding instead of averaging it in."""
    _real(state, rows, at, boxes, obs, embs, spec, kind)
    if kind is TrackerKind.APPEARANCE:
        state.table["emb"][rows] = trackers._unit_rows(embs[at])


def _running_without_pairs(rows, starts, _real=fusion._running):
    """``_running`` that leaves the rows of two-row runs unsummed."""
    pairs = starts[np.diff(starts, append=len(rows)) == 2]
    at = np.concatenate([pairs, pairs + 1])
    kept = rows[at]
    rows = _real(rows, starts)
    rows[at] = kept
    return rows


@pytest.mark.parametrize("kind", [TrackerKind.SORT, TrackerKind.BYTETRACK,
                                  TrackerKind.CENTROID_KF, TrackerKind.APPEARANCE])
def test_crossing_scene_catches_costing_at_the_last_boxes(monkeypatch, kind):
    monkeypatch.setattr(trackers, "_reference_boxes", _last_boxes)
    with pytest.raises(AssertionError, match=r"^\(?12\b"):  # the first frame after the gap
        test_trackers.TestCrossingScenario().test_steps_match_the_reference_step(kind)


def test_greedy_reference_catches_ties_to_the_higher_index(monkeypatch):
    for module in (trackers, test_trackers):  # the test module calls the name it imported
        monkeypatch.setattr(module, "_greedy_iou", _greedy_iou_high_ties)
    with pytest.raises(AssertionError):
        test_trackers.TestGreedyIou().test_matches_scalar_reference(0.3)


def test_reference_step_catches_a_skipped_embedding_average(monkeypatch):
    monkeypatch.setattr(trackers, "_update_rows", _update_rows_without_ema)
    with pytest.raises(AssertionError, match=r"^\(<TrackerKind\.APPEARANCE: 'appearance'>, \d+, "
                                             r"'emb'\)"):
        test_trackers.TestTrackTable().test_update_paths_match_the_reference_step(monkeypatch)


@pytest.mark.parametrize("mode", [FusionMode.PROBABILITY, FusionMode.MAJORITY])
def test_reference_labels_catch_unsummed_pairs(monkeypatch, mode):
    monkeypatch.setattr(fusion, "_running", _running_without_pairs)
    with pytest.raises(AssertionError):
        test_fusion.TestRelabel().test_matches_reference_running_sums(mode, online=False)


def test_oracles_name_no_mutated_function():
    tree = ast.parse((Path(__file__).parent / "oracles.py").read_text())
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    names |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    names |= {alias.asname or alias.name for node in ast.walk(tree)
              if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names}
    names |= {node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
    assert not names & set(MUTATED)
