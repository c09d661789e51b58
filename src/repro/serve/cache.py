"""The two-tier content-addressed plan cache.

Layout::

    PlanCache
      ├── LRUCache    in-memory, bounded, key -> content string
      └── DiskCache   content-addressed, survives restarts
            index/<sha256(key)>.json   {"key": ..., "content": <hash>}
            blobs/<content-hash>.json  canonical plan JSON

The memory tier answers the hot path with one dict lookup.  The disk
tier maps request keys to content hashes through a small index and
stores each distinct plan *once*: requests whose plans are byte-identical
(alias pairs, or columnar/implicit twins at small ``P``) share a blob.

Durability rules:

* writes are atomic — content goes to a same-directory temp file and is
  ``os.replace``\\ d into place, so a crashed writer never leaves a
  half-written entry under the final name;
* reads are corruption-tolerant — a missing file, malformed JSON, an
  index whose recorded key does not match the request, or a blob whose
  bytes are not UTF-8 or do not hash to their filename all count as a
  miss (tallied in ``corrupt_reads`` when the entry existed but was
  bad), and the caller replans and rewrites.  A corrupt cache can cost
  time, never correctness.
"""

from __future__ import annotations

import json
import os
import tempfile
import threading
from collections import OrderedDict
from pathlib import Path

from repro.schedule.serialize import CANONICAL_DUMPS
from repro.serve.keys import content_hash

__all__ = ["LRUCache", "DiskCache", "PlanCache"]


class LRUCache:
    """A bounded, thread-safe LRU over ``key -> content`` strings."""

    def __init__(self, capacity: int = 1024) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._data: OrderedDict[str, str] = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._data)

    def get(self, key: str) -> str | None:
        with self._lock:
            value = self._data.get(key)
            if value is None:
                self.misses += 1
                return None
            self._data.move_to_end(key)
            self.hits += 1
            return value

    def put(self, key: str, value: str) -> None:
        with self._lock:
            self._data[key] = value
            self._data.move_to_end(key)
            if len(self._data) > self.capacity:
                self._data.popitem(last=False)
                self.evictions += 1

    def stats(self) -> dict[str, int]:
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "size": len(self._data),
                "capacity": self.capacity,
            }


def _atomic_write(path: Path, text: str) -> None:
    """Write ``text`` to ``path`` via a same-directory temp + rename."""
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


class DiskCache:
    """The content-addressed on-disk tier."""

    def __init__(self, directory: str | Path) -> None:
        self.root = Path(directory)
        self.index_dir = self.root / "index"
        self.blob_dir = self.root / "blobs"
        self.index_dir.mkdir(parents=True, exist_ok=True)
        self.blob_dir.mkdir(parents=True, exist_ok=True)
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.corrupt_reads = 0
        self.writes = 0

    def _index_path(self, key_hash: str) -> Path:
        return self.index_dir / f"{key_hash}.json"

    def _blob_path(self, blob_hash: str) -> Path:
        return self.blob_dir / f"{blob_hash}.json"

    def read_blob(self, blob_hash: str) -> str | None:
        """The verified content stored at ``blob_hash``, or ``None``.

        Verification re-hashes the bytes: a truncated or garbled blob
        cannot masquerade as the plan it was filed under.
        """
        try:
            text = self._blob_path(blob_hash).read_text()
        except FileNotFoundError:
            return None
        except (OSError, UnicodeDecodeError):
            with self._lock:
                self.corrupt_reads += 1
            return None
        if content_hash(text) != blob_hash:
            with self._lock:
                self.corrupt_reads += 1
            return None
        return text

    def get(self, key: str, key_hash: str) -> str | None:
        index_path = self._index_path(key_hash)
        try:
            entry = json.loads(index_path.read_text())
            stored_key = entry["key"]
            blob_hash = entry["content"]
        except FileNotFoundError:
            with self._lock:
                self.misses += 1
            return None
        except (OSError, ValueError, KeyError, TypeError):
            with self._lock:
                self.corrupt_reads += 1
                self.misses += 1
            return None
        if stored_key != key or not isinstance(blob_hash, str):
            with self._lock:
                self.corrupt_reads += 1
                self.misses += 1
            return None
        content = self.read_blob(blob_hash)
        with self._lock:
            if content is None:
                self.misses += 1
            else:
                self.hits += 1
        return content

    def put(self, key: str, key_hash: str, content: str) -> str:
        """Store ``content`` under ``key``; returns its content hash.

        The blob write is skipped when an intact copy already exists
        (content addressing: many keys, one blob); a corrupt existing
        copy is overwritten in place.
        """
        blob_hash = content_hash(content)
        if self.read_blob(blob_hash) is None:
            _atomic_write(self._blob_path(blob_hash), content)
        _atomic_write(
            self._index_path(key_hash),
            json.dumps({"key": key, "content": blob_hash}, **CANONICAL_DUMPS),
        )
        with self._lock:
            self.writes += 1
        return blob_hash

    def stats(self) -> dict[str, int]:
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "corrupt_reads": self.corrupt_reads,
                "writes": self.writes,
                "index_entries": sum(
                    1 for _ in self.index_dir.glob("*.json")
                ),
                "blobs": sum(1 for _ in self.blob_dir.glob("*.json")),
            }


class PlanCache:
    """Memory LRU stacked over an optional disk tier.

    ``lookup`` / ``store`` operate on canonical key strings and content
    strings; the planner-facing wrapper lives in
    :class:`repro.serve.service.PlanService`.
    """

    def __init__(
        self,
        capacity: int = 1024,
        directory: str | Path | None = None,
    ) -> None:
        self.memory = LRUCache(capacity)
        self.disk = DiskCache(directory) if directory is not None else None

    def lookup(self, key: str, key_hash: str) -> str | None:
        content = self.memory.get(key)
        if content is not None:
            return content
        if self.disk is None:
            return None
        content = self.disk.get(key, key_hash)
        if content is not None:
            self.memory.put(key, content)
        return content

    def store(self, key: str, key_hash: str, content: str) -> None:
        self.memory.put(key, content)
        if self.disk is not None:
            self.disk.put(key, key_hash, content)

    def stats(self) -> dict[str, object]:
        return {
            "memory": self.memory.stats(),
            "disk": self.disk.stats() if self.disk is not None else None,
        }
