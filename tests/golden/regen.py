#!/usr/bin/env python
"""Regenerate the golden ``verify`` transcripts of the example family.

For every model of ``tests/test_checkers.py::MODEL_FAMILY`` and every
checker of :data:`CHECKERS`, the five standard properties run through
:meth:`~repro.verification.verifier.Verifier.verify_properties`.  Each run
writes two files next to this script:

* ``<model>.<checker>.txt`` -- ``summary.report()``;
* ``<model>.<checker>.json`` -- a canonical JSON of every result: property,
  holds, method, details and the full witnesses (marking, trace,
  ``dfs_state`` and whatever else the checker attached).

``tests/test_golden.py`` recomputes the same transcripts in-process and
compares them byte for byte, so a refactor that changes a verdict, a
witness trace or a details string fails tier-1.  Regenerate only when a
change of output is intended, and say why in the commit::

    PYTHONPATH=src python tests/golden/regen.py
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))

from test_checkers import MODEL_FAMILY  # noqa: E402

from repro.petri.marking import Marking  # noqa: E402
from repro.verification.verifier import Verifier  # noqa: E402

CHECKERS = ("exhaustive", "inductive", "walk", "portfolio")
PROPERTIES = ("safeness", "deadlock", "mismatch", "exclusion", "persistence")


def canonical(value):
    """*value* as plain JSON data: markings become sorted place maps."""
    if isinstance(value, Marking):
        return {place: count for place, count in sorted(value.items())}
    if isinstance(value, dict):
        return {str(key): canonical(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [canonical(item) for item in value]
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    raise TypeError("no canonical form for {!r}".format(type(value)))


def transcript(model, checker):
    """``(report_text, json_text)`` of one model/checker run."""
    summary = Verifier(MODEL_FAMILY[model](), checker=checker).verify_properties(
        PROPERTIES)
    results = [{"property": result.property_name, "holds": result.holds,
                "method": result.method, "details": result.details,
                "witnesses": canonical(result.witnesses)}
               for result in summary.results]
    record = {"model": summary.model_name, "state_count": summary.state_count,
              "truncated": summary.truncated, "results": results}
    return (summary.report() + "\n",
            json.dumps(record, indent=1, sort_keys=True) + "\n")


def runs():
    """Every ``(model, checker)`` pair of the corpus, in a fixed order."""
    return [(model, checker) for model in sorted(MODEL_FAMILY)
            for checker in CHECKERS]


def paths(model, checker):
    stem = os.path.join(HERE, "{}.{}".format(model, checker))
    return stem + ".txt", stem + ".json"


def main():
    for model, checker in runs():
        for path, text in zip(paths(model, checker), transcript(model, checker)):
            with open(path, "w", encoding="utf-8", newline="\n") as handle:
                handle.write(text)
    print("wrote {} transcripts to {}".format(len(runs()), HERE))


if __name__ == "__main__":
    main()
