"""Verification-as-a-service: the long-running front of the library.

The ROADMAP's north star is serving verification at production scale, and
this package is that serving stack -- built entirely on the standard
library so the daemon deploys anywhere the library does:

* :mod:`~repro.service.core` -- :class:`VerificationService`, the
  transport-agnostic policy layer: admission control (queue-depth
  backpressure, per-tenant token-bucket rate limits) over a single-flight
  :class:`~repro.campaign.scheduler.CampaignScheduler`, so N concurrent
  submissions of one net + property grid execute once and warm keys are
  answered synchronously from the per-tenant verdict cache.
* :mod:`~repro.service.http` -- :class:`ServiceDaemon`, the asyncio
  HTTP/JSON API (``POST /jobs``, ``GET /jobs/<id>``, NDJSON
  ``GET /jobs/<id>/events``, ``GET /reports/<id>``, ``/healthz``,
  ``/stats``) and :func:`run_daemon`, the blocking entry behind
  ``repro-dfs serve``.
* :mod:`~repro.service.client` -- :class:`ServiceClient`, the urllib
  client that makes ``repro-dfs campaign --server URL`` one submitter
  among many.
* :mod:`~repro.service.ratelimit` -- the :class:`TokenBucket` primitive.

Typical use::

    # terminal 1
    $ repro-dfs serve --port 8765 --jobs 4

    # terminal 2 (or any HTTP client)
    $ repro-dfs campaign --server http://127.0.0.1:8765 --grid depth=2..4
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".client": [
        "ServiceBusy as ClientBusy",
        "ServiceClient",
        "ServiceClientError",
        "result_from_record",
    ],
    ".core": ["DEFAULT_MAX_DEPTH", "RateLimited", "ServiceBusy", "VerificationService"],
    ".http": ["ServiceDaemon", "run_daemon"],
    ".ratelimit": ["TokenBucket"],
})
