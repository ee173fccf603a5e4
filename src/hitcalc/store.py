"""The one memo of the expensive bases: a memory tier and an HPB1 disk tier.

Every memoised value is keyed by (kind, n, d).  The memory tier is always
on and serves library calls; ``configure`` empties it.  The disk tier holds
the echelon kinds (hit, primitive, lambda-bidegree) and is on only while
``configure`` names a directory, which the command line does once per
command from ``--cache-dir``, ``--no-cache`` and ``$HITCALC_CACHE``; outside
a command nothing touches disk.  A command writes the bases it asks for and
never their intermediates: a primitive space is the kernel of a hit space
that it neither memoises nor writes, since at (4, 35) writing it would cost
an extra 8.8 MB file and raise peak RSS from 25 MiB to 42 MiB.  It does
reuse (``peek``) a hit space the memory tier already holds.

HPB1 layout, all little-endian:

    magic   4s   b"HPB1"
    version u16  1
    kind    u8   1 = hit, 2 = primitive, 3 = lambda-bidegree
    n_or_s  u32  variable count (or word length)
    d_or_w  u32  degree (or weight)
    m       u64  ambient coordinate count
    r       u64  rank
    rows    r * ceil(m / 64) u64 words

Rows are the canonical echelon rows in pivot order, so a load/store round
trip is byte-identical.  Stores are atomic (temp file + rename); loads
validate the header, the shape and the canonical form of the rows, and
report a miss on any defect, so a corrupt cache can cost time but never
correctness.  A flipped bit that leaves the rows canonical is not caught.
"""

from __future__ import annotations

import os
import struct
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, TypeVar

from .gf2 import EchelonBasis
from .steenrod import monomial_count

__all__ = [
    "CacheEntry",
    "configure",
    "fetch",
    "peek",
    "cache_dir",
    "cache_load",
    "cache_store",
    "cached_hit_basis",
    "cached_primitive_basis",
    "cached_boundary_echelon",
]

MAGIC = b"HPB1"
VERSION = 1
_HEADER = struct.Struct("<4sHBIIQQ")
_KINDS = {"hit": 1, "primitive": 2, "lambda-bidegree": 3}
_KIND_NAMES = {v: k for k, v in _KINDS.items()}

ENV_VAR = "HITCALC_CACHE"
DEFAULT_DIR = ".hitcalc-cache"

T = TypeVar("T")

_memory: dict[tuple[str, int, int], object] = {}
_directory: Path | None = None  # the disk tier, or None when it is off


def configure(directory: Path | None) -> None:
    """Turn the disk tier on at directory, or off with None; empties the memory tier."""
    global _directory
    _directory = directory
    _memory.clear()


def peek(kind: str, n: int, d: int) -> object | None:
    """The memory tier's value of kind at (n, d), or None; never computes or loads."""
    return _memory.get((kind, n, d))


def fetch(kind: str, n: int, d: int, compute: Callable[[], T]) -> T:
    """The memoised value of kind at (n, d); compute() runs on the first request."""
    key = (kind, n, d)
    if key not in _memory:
        _memory[key] = compute()
    return _memory[key]  # type: ignore[return-value]


@dataclass(frozen=True)
class CacheEntry:
    kind: str
    n: int
    d: int
    m: int
    rows: tuple[int, ...]

    @property
    def rank(self) -> int:
        return len(self.rows)


def cache_dir(override: str | None = None) -> Path:
    return Path(override or os.environ.get(ENV_VAR, DEFAULT_DIR))


def _filename(kind: str, n: int, d: int) -> str:
    if kind == "lambda-bidegree":
        return f"lambda_s{n}_w{d}.hpb1"
    return f"{kind}_n{n}_d{d}.hpb1"


def encode(entry: CacheEntry) -> bytes:
    words = max(1, (entry.m + 63) // 64)
    head = _HEADER.pack(
        MAGIC, VERSION, _KINDS[entry.kind], entry.n, entry.d, entry.m, entry.rank
    )
    body = b"".join(row.to_bytes(words * 8, "little") for row in entry.rows)
    return head + body


def decode(blob: bytes) -> CacheEntry | None:
    if len(blob) < _HEADER.size:
        return None
    magic, version, kind, n, d, m, r = _HEADER.unpack_from(blob)
    if magic != MAGIC or version != VERSION or kind not in _KIND_NAMES:
        return None
    words = max(1, (m + 63) // 64)
    if len(blob) != _HEADER.size + r * words * 8:
        return None
    rows = []
    off = _HEADER.size
    for _ in range(r):
        rows.append(int.from_bytes(blob[off : off + words * 8], "little"))
        off += words * 8
    return CacheEntry(_KIND_NAMES[kind], n, d, m, tuple(rows))


def cache_load(kind: str, n: int, d: int, directory: Path) -> CacheEntry | None:
    path = directory / _filename(kind, n, d)
    try:
        blob = path.read_bytes()
    except OSError:
        return None
    entry = decode(blob)
    if entry is None or (entry.kind, entry.n, entry.d) != (kind, n, d):
        print(f"warning: ignoring corrupt cache entry {path}", file=sys.stderr)
        return None
    return entry


def cache_store(entry: CacheEntry, directory: Path) -> Path:
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / _filename(entry.kind, entry.n, entry.d)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(encode(entry))
        os.replace(tmp, path)  # atomic: exactly one complete file survives
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return path


def _load_basis(
    kind: str, n: int, d: int, m: int, directory: Path
) -> EchelonBasis | None:
    """The cached basis, or None on a miss or an entry that is not canonical."""
    entry = cache_load(kind, n, d, directory)
    if entry is None or entry.m != m:
        return None
    if not any(row >> m for row in entry.rows):  # no set bit past the last coordinate
        basis = EchelonBasis(m)
        for row in entry.rows:
            basis.insert_int(row)
        if basis.row_ints() == list(entry.rows):
            return basis
    path = directory / _filename(kind, n, d)
    print(f"warning: ignoring corrupt cache entry {path}", file=sys.stderr)
    return None


def _fetch_echelon(
    kind: str, n: int, d: int, m: int, compute: Callable[[], EchelonBasis]
) -> EchelonBasis:
    """``fetch`` for an echelon kind of m coordinates, through the disk tier when on."""

    def load_or_compute() -> EchelonBasis:
        directory = _directory
        if directory is None:
            return compute()
        basis = _load_basis(kind, n, d, m, directory)
        if basis is None:
            basis = compute()
            cache_store(
                CacheEntry(kind, n, d, basis.ambient_length, tuple(basis.row_ints())),
                directory,
            )
        return basis

    return fetch(kind, n, d, load_or_compute)


# -- the echelon kinds -----------------------------------------------------------


def cached_hit_basis(
    n: int, d: int, compute: Callable[[], EchelonBasis]
) -> EchelonBasis:
    """The hit echelon of degree d in n variables; compute() on a miss."""
    return _fetch_echelon("hit", n, d, monomial_count(n, d), compute)


def cached_primitive_basis(
    n: int, d: int, compute: Callable[[], EchelonBasis]
) -> EchelonBasis:
    """The primitive echelon of degree d in n variables; compute() on a miss."""
    return _fetch_echelon("primitive", n, d, monomial_count(n, d), compute)


def cached_boundary_echelon(
    s: int, w: int, compute: Callable[[], EchelonBasis]
) -> EchelonBasis:
    """The lambda boundary echelon at bidegree (s, w); compute() on a miss."""
    from .lambda_algebra import bidegree_count

    return _fetch_echelon("lambda-bidegree", s, w, bidegree_count(s, w), compute)
