"""The one memo of the expensive bases: a memory tier and an HPB2 disk tier.

Every memoised value is keyed by (kind, n, d).  The memory tier is always
on and serves library calls; ``configure`` empties it.  The disk tier holds
the echelon kinds (hit-plus, the hit space of the full-support block
P^+_k(d), which serves every n >= k; primitive; lambda-bidegree; the
coinvariant relations over the primitive basis; lambda-differential, the
transposed differential out of a lambda bidegree; and lambda-tops, unit
rows at the top coordinates of the lambda boundaries) and is on only while
``configure`` names a directory, which the command line does once per
command from ``--cache-dir``, ``--no-cache`` and ``$HITCALC_CACHE``;
outside a command nothing touches disk.  A command writes the bases it asks
for and never their intermediates: a primitive space is the kernel of hit
blocks that it holds in the memory tier alone (``held``), so a primitive
command writes one entry, and the coinvariant relations reuse those blocks.
An entry that the directory cannot take is skipped with a warning.  A
lambda-differential entry holds the transpose over the sources less the
boundaries' top coordinates, and only its rank is read, so an entry of the
whole transpose, which has the same rank, serves as well.  A lambda-tops
entry has its own kind and file name, so a lambda-bidegree entry, which
has the same rank but other pivots, is never read as one.

HPB2 layout, all little-endian:

    magic   4s   b"HPB2"
    version u16  1
    kind    u8   2 = primitive, 3 = lambda-bidegree, 4 = coinvariant,
                 5 = lambda-differential, 6 = hit-plus, 7 = lambda-tops
                 (1, whole hit spaces, is retired)
    n_or_s  u32  variable count (or word length; for hit-plus: k)
    d_or_w  u32  degree (or weight)
    m       u64  ambient coordinate count (for coinvariant: the primitive
                 dimension p, the relations being over the primitive basis)
    r       u64  rank
    rows    r records in strictly increasing pivot order, each
              pivot  u32  p
              size   u32  the byte length of row >> p
              bytes        row >> p
    crc     u32  zlib.crc32 of everything before it

The rows are the canonical echelon rows exactly as ``EchelonBasis`` holds
them (``shifted_rows``), so a store or a load moves no row between formats
and a load/store round trip is byte-identical.  A record takes 8 bytes and
the row's bytes, less than the ``getsizeof`` of the row int that the budget
charged, so a file never exceeds the basis's charged bytes by more than the
35 bytes of header and checksum.  Stores are atomic (temp file + rename).
Loads check the header and the checksum, read the records in one bounded
pass, and hand them to ``EchelonBasis.from_canonical_rows``, which checks
that they are the canonical form without re-eliminating them.  They report
a miss, with a warning, on any defect or an m other than the one asked
for, so a corrupt cache can cost time but never correctness.  Files of the
retired HPB1 format (``*.hpb1``) are never read and may be deleted.
"""

from __future__ import annotations

import os
import struct
import sys
import zlib
from pathlib import Path
from typing import Callable, NamedTuple

from .gf2 import EchelonBasis
from .steenrod import full_support_count, monomial_count

__all__ = [
    "CacheEntry",
    "configure",
    "held",
    "cache_dir",
    "cache_load",
    "cache_store",
    "cached_hit_basis",
    "cached_primitive_basis",
    "cached_boundary_echelon",
    "cached_differential_echelon",
    "cached_boundary_tops",
    "cached_coinvariant_relations",
]

MAGIC = b"HPB2"
VERSION = 1
_HEADER = struct.Struct("<4sHBIIQQ")
_RECORD = struct.Struct("<II")  # a row's pivot and byte length
_KINDS = {  # kind 1 held whole hit spaces; it is retired, not reused
    "primitive": 2,
    "lambda-bidegree": 3,
    "coinvariant": 4,
    "lambda-differential": 5,
    "hit-plus": 6,
    "lambda-tops": 7,
}
_KIND_NAMES = {v: k for k, v in _KINDS.items()}

ENV_VAR = "HITCALC_CACHE"
DEFAULT_DIR = ".hitcalc-cache"

_memory: dict[tuple[str, int, int], EchelonBasis] = {}
_directory: Path | None = None  # the disk tier, or None when it is off


def configure(directory: Path | None) -> None:
    """Turn the disk tier on at directory, or off with None; empties the memory tier."""
    global _directory
    _directory = directory
    _memory.clear()


def held(
    kind: str, n: int, d: int, compute: Callable[[], EchelonBasis]
) -> EchelonBasis:
    """The memory tier's basis of kind at (n, d), put there by compute() on a
    miss; it never loads or writes a file, and a later fetch of the key finds
    it in memory and writes none either."""
    key = (kind, n, d)
    basis = _memory.get(key)
    if basis is None:
        basis = _memory[key] = compute()
    return basis


class CacheEntry(NamedTuple):
    """One basis file: its key, its coordinate count m and its canonical
    rows as ``EchelonBasis`` holds them, pivot p -> row >> p."""

    kind: str
    n: int
    d: int
    m: int
    rows: dict[int, int]


def cache_dir(override: str | None = None) -> Path:
    return Path(override or os.environ.get(ENV_VAR, DEFAULT_DIR))


def _filename(kind: str, n: int, d: int) -> str:
    if kind == "hit-plus":
        return f"hit_plus_k{n}_d{d}.hpb2"
    if kind == "lambda-bidegree":
        return f"lambda_s{n}_w{d}.hpb2"
    if kind == "lambda-differential":
        return f"lambda_d_s{n}_w{d}.hpb2"
    if kind == "lambda-tops":
        return f"lambda_t_s{n}_w{d}.hpb2"
    return f"{kind}_n{n}_d{d}.hpb2"


def encode(entry: CacheEntry) -> bytearray:
    rows = entry.rows
    head = (MAGIC, VERSION, _KINDS[entry.kind], entry.n, entry.d, entry.m, len(rows))
    blob = bytearray(_HEADER.pack(*head))
    for p in sorted(rows):
        row = rows[p]
        size = (row.bit_length() + 7) // 8
        blob += _RECORD.pack(p, size)
        blob += row.to_bytes(size, "little")
    blob += zlib.crc32(blob).to_bytes(4, "little")
    return blob


def decode(blob: bytes | bytearray) -> CacheEntry | None:
    end = len(blob) - 4  # where the checksum starts
    if end < _HEADER.size:
        return None
    magic, version, kind, n, d, m, r = _HEADER.unpack_from(blob)
    if magic != MAGIC or version != VERSION or kind not in _KIND_NAMES:
        return None
    view = memoryview(blob)
    if zlib.crc32(view[:end]) != int.from_bytes(view[end:], "little"):
        return None
    rows: dict[int, int] = {}
    off, last = _HEADER.size, -1
    for _ in range(r):  # each record takes 8 bytes or more, so this is bounded
        if off + _RECORD.size > end:
            return None
        p, size = _RECORD.unpack_from(blob, off)
        off += _RECORD.size
        if p <= last or off + size > end:
            return None
        rows[p] = int.from_bytes(view[off : off + size], "little")
        off += size
        last = p
    if off != end:
        return None
    return CacheEntry(_KIND_NAMES[kind], n, d, m, rows)


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
    import tempfile  # only a cache write needs it

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


def _fetch_echelon(
    kind: str, n: int, d: int, m: int, compute: Callable[[], EchelonBasis]
) -> EchelonBasis:
    """The memoised basis of kind at (n, d) over m coordinates.

    The first request loads it from the disk tier when that is on, putting
    the rows into the basis as they are, checked but never re-eliminated; an
    entry of another m or not in canonical form is a miss.  On a miss, or
    with the tier off, compute() runs, and a disk tier that is on gets the
    result if its file can be written.
    """
    key = (kind, n, d)
    basis = _memory.get(key)
    if basis is not None:
        return basis
    directory = _directory
    if directory is not None:
        path = directory / _filename(kind, n, d)
        entry = cache_load(kind, n, d, directory)
        if entry is not None and entry.m == m:
            basis = EchelonBasis.from_canonical_rows(m, entry.rows)
        if entry is not None and basis is None:
            print(f"warning: ignoring corrupt cache entry {path}", file=sys.stderr)
    if basis is None:
        basis = compute()
        if directory is not None:
            entry = CacheEntry(kind, n, d, m, basis.shifted_rows())
            try:
                cache_store(entry, directory)
            except OSError as exc:  # a directory that cannot be made or written
                print(f"warning: not caching {path}: {exc}", file=sys.stderr)
    _memory[key] = basis
    return basis


# -- the echelon kinds -----------------------------------------------------------


def cached_hit_basis(
    k: int, d: int, compute: Callable[[], EchelonBasis]
) -> EchelonBasis:
    """The hit echelon of the full-support block P^+_k(d); compute() on a miss."""
    return _fetch_echelon("hit-plus", k, d, full_support_count(k, d), compute)


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


def cached_differential_echelon(
    s: int, w: int, compute: Callable[[], EchelonBasis]
) -> EchelonBasis:
    """The transposed lambda differential out of (s, w); compute() on a miss."""
    from .lambda_algebra import bidegree_count

    return _fetch_echelon("lambda-differential", s, w, bidegree_count(s, w), compute)


def cached_boundary_tops(
    s: int, w: int, compute: Callable[[], EchelonBasis]
) -> EchelonBasis:
    """The unit rows at the top coordinates of the lambda boundaries into
    (s, w); compute() on a miss."""
    from .lambda_algebra import bidegree_count

    return _fetch_echelon("lambda-tops", s, w, bidegree_count(s, w), compute)


def cached_coinvariant_relations(
    n: int, d: int, p: int, compute: Callable[[], EchelonBasis]
) -> EchelonBasis:
    """The (g - 1) relation echelon over the p primitives of degree d in n
    variables; compute() on a miss."""
    return _fetch_echelon("coinvariant", n, d, p, compute)
