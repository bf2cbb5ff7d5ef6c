"""Optional on-disk cache of computed invariant-factor lists, keyed (p, d),
read and written through serialize's JSON codec."""

from __future__ import annotations

import os
from pathlib import Path

from .engine import exponent_lower_bound, h1_order_vp, summand_count
from .errors import CacheWriteError, SectionFormatError
from .serialize import dump_json, parse_json_document


class DiskCache:
    """One JSON file per (p, d) holding the degree-d invariant exponents.

    The degree-d group does not depend on the level m, so entries carry
    none.  Files use the h1-group/2 format (FORMAT, the one spelling of its
    tag in the package), so cache entries are plain interface documents;
    corrupt entries, a p or d that is not a JSON integer among them, are
    reported, never silently recomputed.  Entries are read and written by
    serialize's one JSON codec (parse_json_document, dump_json), so a file
    that is not a JSON object is refused with the decoder's message.  An
    entry that cannot be a degree-d group is corrupt too: the group is a
    quotient of the (p+1)d coordinates Z/p^{d-i}, so no invariant factor is
    above p^d; it has engine.summand_count factors, its exponent is at least
    the paper's exponent_lower_bound, and its order is p^engine.h1_order_vp.
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
            doc = parse_json_document(path.read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:  # unreadable, not UTF-8, not a JSON object
            raise SectionFormatError(f"corrupt cache entry {path}: {exc}") from exc
        if not (doc.get("format") == self.FORMAT
                and all(type(doc.get(k)) is int for k in ("p", "d"))
                and (doc["p"], doc["d"]) == (p, d)
                and isinstance(doc.get("exponents"), list)
                and all(type(n) is int and n >= 1 for n in doc["exponents"])):
            raise SectionFormatError(f"corrupt cache entry {path}")
        exponents = doc["exponents"]
        if max(exponents, default=0) > d:
            why = f"exponent {max(exponents)} exceeds d = {d}"
        elif len(exponents) != summand_count(p, d):
            why = f"factor count {len(exponents)}, not (p-1)d - 1 = {summand_count(p, d)}"
        elif max(exponents, default=0) < exponent_lower_bound(p, d):
            why = (f"exponent {max(exponents, default=0)} is below "
                   f"floor((p-1)(d+1)/(p+1)) = {exponent_lower_bound(p, d)}")
        elif sum(exponents) != h1_order_vp(p, d):
            why = (f"the exponents sum to {sum(exponents)}, but the degree-{d} "
                   f"group has order p^{h1_order_vp(p, d)}")
        else:
            return tuple(exponents)
        raise SectionFormatError(f"corrupt cache entry {path}: {why}")

    def put(self, p: int, d: int, exponents) -> None:
        doc = {"format": self.FORMAT, "p": p, "d": d, "exponents": list(exponents)}
        path = self._path(p, d)
        tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
        try:
            tmp.write_text(dump_json(doc), encoding="utf-8")
            os.replace(tmp, path)
        except OSError as exc:
            raise CacheWriteError(f"cannot write the cache entry {path}: "
                                  f"{exc.strerror or exc}") from exc
        finally:
            tmp.unlink(missing_ok=True)
