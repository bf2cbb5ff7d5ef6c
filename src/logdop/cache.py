"""Optional on-disk cache of computed invariant-factor lists, keyed (p, d)."""

from __future__ import annotations

import json
import os
from pathlib import Path

from .errors import CacheWriteError, SectionFormatError


class DiskCache:
    """One JSON file per (p, d) holding the degree-d invariant exponents.

    The degree-d group does not depend on the level m, so entries carry
    none.  Files use the h1-group/2 format (FORMAT, the one spelling of its
    tag in the package), so cache entries are plain interface documents;
    corrupt entries are reported, never silently recomputed.  An entry that
    cannot be a degree-d group is corrupt too: the group is a quotient of
    the (p+1)d coordinates Z/p^{d-i}, so it has at most (p+1)d invariant
    factors, none above p^d, and its order divides p^{(p+1)d(d+1)/2}.
    Entries are written atomically, so an interrupted write leaves no
    truncated entry behind; a write the directory refuses raises
    CacheWriteError.  An instance keeps no memo: engine.h1_filtered, its one
    caller, asks for each (p, d) once per command, so each file is read at
    most once.
    """

    FORMAT = "h1-group/2"

    def __init__(self, directory):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)

    def _path(self, p: int, d: int) -> Path:
        return self.directory / f"h1-p{p}-d{d}.json"

    def get(self, p: int, d: int):
        path = self._path(p, d)
        if not path.exists():
            return None
        try:
            doc = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:  # unreadable, truncated, not JSON or UTF-8
            raise SectionFormatError(f"corrupt cache entry {path}: {exc}") from exc
        if not (isinstance(doc, dict) and doc.get("format") == self.FORMAT
                and (doc.get("p"), doc.get("d")) == (p, d)
                and isinstance(doc.get("exponents"), list)
                and all(type(n) is int and n >= 1 for n in doc["exponents"])):
            raise SectionFormatError(f"corrupt cache entry {path}")
        exponents = doc["exponents"]
        rows = (p + 1) * d
        if max(exponents, default=0) > d:
            why = f"exponent {max(exponents)} exceeds d = {d}"
        elif len(exponents) > rows:
            why = f"{len(exponents)} exponents for {rows} rows"
        elif sum(exponents) > rows * (d + 1) // 2:
            why = (f"the exponents sum to {sum(exponents)}, "
                   f"above (p+1)d(d+1)/2 = {rows * (d + 1) // 2}")
        else:
            return tuple(exponents)
        raise SectionFormatError(f"corrupt cache entry {path}: {why}")

    def put(self, p: int, d: int, exponents) -> None:
        doc = {"format": self.FORMAT, "p": p, "d": d, "exponents": list(exponents)}
        path = self._path(p, d)
        tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
        try:
            tmp.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
            os.replace(tmp, path)
        except OSError as exc:
            raise CacheWriteError(f"cannot write the cache entry {path}: "
                                  f"{exc.strerror or exc}") from exc
        finally:
            tmp.unlink(missing_ok=True)
