"""A directory of JSON cache entries, written atomically, keyed by hash.

This is the storage layer of the campaign verdict cache
(:mod:`repro.campaign.cache`) and of the service's per-tenant caches: one
JSON file per key, written atomically
(temp file + ``os.replace``) so that parallel workers can share a cache
directory without locking, and unreadable or corrupt entries counting as
misses so a damaged cache degrades to recomputation instead of failure.

Two serving-stack primitives live here as well:

* :meth:`JsonDiskCache.namespace` derives an isolated sub-cache (one
  subdirectory per namespace) -- the per-tenant verdict caches of the
  verification service are namespaces of one cache root, so tenants can
  never observe each other's entries while sharing one storage tree.
* :class:`SingleFlight` coalesces concurrent computations of one cache
  key: the first caller becomes the *leader* and actually computes, every
  concurrent caller of the same key attaches to the leader's flight and is
  answered by the leader's result -- the classic anti-stampede pattern in
  front of a content-addressed cache.
"""

import hashlib
import json
import os
import tempfile
import threading


def canonical_json(payload):
    """Serialise *payload* deterministically (sorted keys, no whitespace)."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def digest(payload):
    """Stable hex digest of a JSON-able *payload*."""
    return hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()


def safe_segment(name):
    """A filesystem-safe directory segment for a caller-supplied *name*.

    Alphanumerics, dash, underscore and dot pass through; anything else
    (path separators, a leading dot, an empty name, exotic unicode) is
    replaced by a stable hash-suffixed form so distinct names can never
    collide into one directory or escape the cache root.
    """
    name = str(name)
    cleaned = "".join(ch if ch.isalnum() or ch in "-_." else "-" for ch in name)
    if cleaned == name and name and not name.startswith("."):
        return name
    suffix = hashlib.sha256(name.encode("utf-8")).hexdigest()[:12]
    return "{}-{}".format(cleaned.lstrip(".") or "ns", suffix)


class JsonDiskCache:
    """A directory of cached JSON payloads, one file per cache key."""

    def __init__(self, directory):
        self.directory = str(directory)
        os.makedirs(self.directory, exist_ok=True)

    @staticmethod
    def key(fingerprint, options_digest):
        """Combine a model fingerprint and an options digest into one key."""
        return hashlib.sha256(
            "{}:{}".format(fingerprint, options_digest).encode("utf-8")
        ).hexdigest()

    def path(self, key):
        return os.path.join(self.directory, key + ".json")

    def get(self, key):
        """Return the cached payload for *key*, or ``None`` on a miss.

        Unreadable or corrupt entries count as misses: the caller then
        recomputes and overwrites them.
        """
        try:
            with open(self.path(key), "r", encoding="utf-8") as handle:
                return json.load(handle)
        except (OSError, ValueError):
            return None

    def put(self, key, payload):
        """Store *payload* (a JSON-able value) under *key* atomically."""
        descriptor, temp_path = tempfile.mkstemp(
            prefix=".cache-", suffix=".tmp", dir=self.directory
        )
        try:
            with os.fdopen(descriptor, "w", encoding="utf-8") as handle:
                json.dump(payload, handle, sort_keys=True)
            os.replace(temp_path, self.path(key))
        except BaseException:
            try:
                os.unlink(temp_path)
            except OSError:
                pass
            raise
        return key

    def __len__(self):
        return sum(1 for name in os.listdir(self.directory) if name.endswith(".json"))

    def clear(self):
        """Delete every cached entry."""
        for name in os.listdir(self.directory):
            if name.endswith(".json"):
                try:
                    os.unlink(os.path.join(self.directory, name))
                except OSError:
                    pass

    def namespace(self, *parts):
        """An isolated sub-cache rooted at ``<directory>/<part>/...``.

        Each *part* is sanitised with :func:`safe_segment`, so namespaces
        derived from caller-supplied names (service tenants) can neither
        collide nor escape the cache root.  The sub-cache is the same class
        as *self* (a namespaced :class:`ResultCache` is a ResultCache).
        """
        return type(self)(os.path.join(
            self.directory, *[safe_segment(part) for part in parts]))

    def __repr__(self):
        return "{}({!r}, entries={})".format(
            type(self).__name__, self.directory, len(self))


class Flight:
    """One in-progress computation of a single-flight key.

    The leader eventually calls :meth:`resolve` (or :meth:`fail`); every
    subscriber registered before or after that point is called exactly once
    with the flight.  ``result``/``error`` stay stable after resolution.
    """

    __slots__ = ("key", "result", "error", "_event", "_lock", "_callbacks")

    def __init__(self, key):
        self.key = key
        self.result = None
        self.error = None
        self._event = threading.Event()
        self._lock = threading.Lock()
        self._callbacks = []

    @property
    def done(self):
        return self._event.is_set()

    def subscribe(self, callback):
        """Call *callback(flight)* on resolution (immediately if resolved)."""
        with self._lock:
            if not self._event.is_set():
                self._callbacks.append(callback)
                return
        callback(self)

    def _finish(self, result, error):
        with self._lock:
            if self._event.is_set():
                raise RuntimeError(
                    "flight {!r} resolved twice".format(self.key))
            self.result = result
            self.error = error
            callbacks, self._callbacks = self._callbacks, []
            self._event.set()
        for callback in callbacks:
            callback(self)

    def resolve(self, result):
        """Deliver the leader's *result* to every subscriber."""
        self._finish(result, None)

    def fail(self, error):
        """Deliver the leader's failure to every subscriber."""
        self._finish(None, error)

    def wait(self, timeout=None):
        """Block until resolution; return ``result`` (raises on ``fail``)."""
        if not self._event.wait(timeout):
            raise TimeoutError("flight {!r} still in progress".format(self.key))
        if self.error is not None:
            raise self.error
        return self.result

    def __repr__(self):
        return "Flight({!r}, done={})".format(self.key, self.done)


class SingleFlight:
    """An in-process registry coalescing concurrent work on one key.

    ``acquire(key)`` returns ``(flight, leader)``: the first caller of a
    key gets a fresh flight and ``leader=True`` -- it must eventually call
    ``flight.resolve(...)`` or ``flight.fail(...)``.  Concurrent callers of
    the same key get the *same* flight with ``leader=False`` and simply
    subscribe or wait.  A flight is forgotten the moment it resolves, so
    later acquisitions start a new computation (which is what lets callers
    re-probe a disk cache that the previous leader has since populated).
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._flights = {}

    def acquire(self, key):
        with self._lock:
            flight = self._flights.get(key)
            if flight is not None:
                return flight, False
            flight = Flight(key)
            self._flights[key] = flight
            return flight, True

    def release(self, key):
        """Forget the flight for *key* (before resolving it to subscribers).

        The leader calls this first, then resolves: new acquisitions after
        release start fresh instead of attaching to a finished flight.
        """
        with self._lock:
            return self._flights.pop(key, None)

    def __len__(self):
        with self._lock:
            return len(self._flights)
