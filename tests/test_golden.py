"""Golden transcripts: ``verify`` output of the example family, byte for byte.

The committed files under ``tests/golden/`` were written by
``tests/golden/regen.py``; this suite recomputes every transcript and
compares text and canonical JSON exactly.  Verdicts, details strings,
witness markings, traces and DFS-level states are all covered, so an
engine refactor that claims to be behaviour-preserving is checked, not
trusted.
"""

import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden"))

import regen  # noqa: E402


@pytest.mark.parametrize("model,checker", regen.runs(),
                         ids=["{}.{}".format(*run) for run in regen.runs()])
def test_transcript_is_unchanged(model, checker):
    report_path, json_path = regen.paths(model, checker)
    report, record = regen.transcript(model, checker)
    with open(report_path, encoding="utf-8") as handle:
        assert report == handle.read()
    with open(json_path, encoding="utf-8") as handle:
        assert record == handle.read()
