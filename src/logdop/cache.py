"""Optional on-disk cache of computed invariant-factor lists, keyed (p, d, m)."""

from __future__ import annotations

import json
import os
from pathlib import Path

from .errors import SectionFormatError


class DiskCache:
    """One JSON file per (p, d, m) holding the invariant exponents.

    Files use the h1-group/1 format, so cache entries are plain interface
    documents; corrupt entries are reported, never silently recomputed.
    Entries are written atomically, so an interrupted write leaves no
    truncated entry behind.
    """

    def __init__(self, directory):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)

    def _path(self, p: int, d: int, m: int) -> Path:
        return self.directory / f"h1-p{p}-d{d}-m{m}.json"

    def get(self, p: int, d: int, m: int):
        path = self._path(p, d, m)
        if not path.exists():
            return None
        try:
            doc = json.loads(path.read_text())
        except ValueError as exc:  # truncated, not JSON, or not UTF-8
            raise SectionFormatError(f"corrupt cache entry {path}: {exc}") from exc
        if not (isinstance(doc, dict) and doc.get("format") == "h1-group/1"
                and (doc.get("p"), doc.get("d"), doc.get("m")) == (p, d, m)
                and isinstance(doc.get("exponents"), list)
                and all(type(n) is int and n >= 1 for n in doc["exponents"])):
            raise SectionFormatError(f"corrupt cache entry {path}")
        return tuple(doc["exponents"])

    def put(self, p: int, d: int, m: int, exponents) -> None:
        doc = {"format": "h1-group/1", "p": p, "d": d, "m": m,
               "exponents": list(exponents)}
        path = self._path(p, d, m)
        tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
        try:
            tmp.write_text(json.dumps(doc, indent=1) + "\n")
            os.replace(tmp, path)
        finally:
            tmp.unlink(missing_ok=True)
