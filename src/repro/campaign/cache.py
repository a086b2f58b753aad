"""Disk cache of verification verdicts keyed by canonical net fingerprints.

Verifying a model is expensive; deciding whether a model *changed* is cheap.
The cache therefore keys every verdict by a **net fingerprint** (see
:mod:`repro.petri.fingerprint`) -- a stable hash of the places, transitions
and arcs of the Petri-net translation -- combined with a digest of the job
options that can influence the verdict (property set, state bound,
checker choice, simulation stimulus).  Re-running a campaign only verifies
models whose translation or options actually changed; everything else is
answered from disk, bit-identically to the cold run.

The storage layer (atomic JSON files, corrupt entries count as misses) is
:class:`repro.utils.diskcache.JsonDiskCache`; ``net_fingerprint`` and
``options_digest`` are re-exported here for compatibility.
"""

from repro.petri.fingerprint import net_fingerprint, options_digest
from repro.utils.diskcache import JsonDiskCache

__all__ = ["ResultCache", "net_fingerprint", "options_digest"]


class ResultCache(JsonDiskCache):
    """A directory of cached verdicts, one JSON file per cache key."""
