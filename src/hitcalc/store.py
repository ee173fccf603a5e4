"""The one memo of the expensive bases: a memory tier and an HPB1 disk tier.

Every memoised value is keyed by (kind, n, d).  The memory tier is always
on and serves library calls; ``configure`` empties it.  The disk tier holds
the echelon kinds (hit-plus, the hit space of the full-support block
P^+_k(d), which serves every n >= k; primitive; lambda-bidegree; the
coinvariant relations over the primitive basis; and lambda-differential,
the transposed differential out of a lambda bidegree) and is on only while
``configure`` names a directory, which the command line does once per
command from ``--cache-dir``, ``--no-cache`` and ``$HITCALC_CACHE``;
outside a command nothing touches disk.  A command writes the bases it asks
for and never their intermediates: a primitive space is the kernel of hit
blocks that it holds in the memory tier alone (``held``), so a primitive
command writes one entry, and the coinvariant relations reuse those blocks.
An entry is encoded in memory, so one whose file would exceed the budget
is skipped with a warning, and so is one that the directory cannot take.

HPB1 layout, all little-endian:

    magic   4s   b"HPB1"
    version u16  2
    kind    u8   2 = primitive, 3 = lambda-bidegree, 4 = coinvariant,
                 5 = lambda-differential, 6 = hit-plus (1, whole hit
                 spaces, is retired)
    n_or_s  u32  variable count (or word length; for hit-plus: k)
    d_or_w  u32  degree (or weight)
    m       u64  ambient coordinate count (for coinvariant: the primitive
                 dimension p, the relations being over the primitive basis)
    r       u64  rank
    rows    r * ceil(m / 64) u64 words
    crc     u32  zlib.crc32 of everything before it

Rows are the canonical echelon rows in pivot order, so a load/store round
trip is byte-identical.  Stores are atomic (temp file + rename); loads
validate the header, the shape and the checksum, and check that the rows
are the canonical form (``EchelonBasis.from_canonical_rows``) without
re-eliminating them, decoding one row at a time from the file's bytes.
They report a miss, with a warning, on any defect or an m other than the
one asked for, so a corrupt cache can cost time but never correctness.
"""

from __future__ import annotations

import os
import struct
import sys
import zlib
from collections.abc import Sequence
from pathlib import Path
from typing import Callable, Iterable, NamedTuple

from .budget import fits
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
    "cached_coinvariant_relations",
]

MAGIC = b"HPB1"
VERSION = 2
_HEADER = struct.Struct("<4sHBIIQQ")
_KINDS = {  # kind 1 held whole hit spaces; it is retired, not reused
    "primitive": 2,
    "lambda-bidegree": 3,
    "coinvariant": 4,
    "lambda-differential": 5,
    "hit-plus": 6,
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
    """One basis file: its key, its coordinate count m and its canonical rows.

    ``decode`` gives the rows as a sequence that decodes each row when it is
    read.  An entry to be stored may carry any iterable of them, such as
    ``EchelonBasis.iter_row_ints()``, so that no dense copy of every row is
    built; ``encode`` reads it once.
    """

    kind: str
    n: int
    d: int
    m: int
    rows: Iterable[int]


class _Rows(Sequence[int]):
    """The r rows of a checked HPB1 blob, each decoded as it is read.

    Only the blob is held, so a load holds no tuple of every absolute row
    beside the file's bytes while ``EchelonBasis.from_canonical_rows`` shifts
    them, last row first.
    """

    def __init__(self, blob: bytes | bytearray, width: int, r: int):
        self._view = memoryview(blob)[_HEADER.size : _HEADER.size + r * width]
        self._width = width
        self._r = r

    def __len__(self) -> int:
        return self._r

    def __getitem__(self, i: int) -> int:  # type: ignore[override]
        if not 0 <= i < self._r:
            raise IndexError("row index out of range")
        off = i * self._width
        return int.from_bytes(self._view[off : off + self._width], "little")

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Sequence) and tuple(self) == tuple(other)


def cache_dir(override: str | None = None) -> Path:
    return Path(override or os.environ.get(ENV_VAR, DEFAULT_DIR))


def _filename(kind: str, n: int, d: int) -> str:
    if kind == "hit-plus":
        return f"hit_plus_k{n}_d{d}.hpb1"
    if kind == "lambda-bidegree":
        return f"lambda_s{n}_w{d}.hpb1"
    if kind == "lambda-differential":
        return f"lambda_d_s{n}_w{d}.hpb1"
    return f"{kind}_n{n}_d{d}.hpb1"


def _encoded_size(m: int, r: int) -> int:
    return _HEADER.size + r * max(1, (m + 63) // 64) * 8 + 4


def encode(entry: CacheEntry) -> bytearray:
    width = max(1, (entry.m + 63) // 64) * 8
    blob = bytearray(_HEADER.size)  # packed once the rows are counted
    rank = 0
    for row in entry.rows:
        blob += row.to_bytes(width, "little")
        rank += 1
    _HEADER.pack_into(
        blob, 0, MAGIC, VERSION, _KINDS[entry.kind], entry.n, entry.d, entry.m, rank
    )
    blob += zlib.crc32(blob).to_bytes(4, "little")
    return blob


def decode(blob: bytes | bytearray) -> CacheEntry | None:
    if len(blob) < _HEADER.size:
        return None
    magic, version, kind, n, d, m, r = _HEADER.unpack_from(blob)
    if magic != MAGIC or version != VERSION or kind not in _KIND_NAMES:
        return None
    if len(blob) != _encoded_size(m, r):
        return None
    if zlib.crc32(memoryview(blob)[:-4]) != int.from_bytes(blob[-4:], "little"):
        return None
    rows = _Rows(blob, max(1, (m + 63) // 64) * 8, r)
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
    result if its file fits the budget and can be written.
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
            size = _encoded_size(m, basis.rank)
            if fits(size):
                entry = CacheEntry(kind, n, d, m, basis.iter_row_ints())
                try:
                    cache_store(entry, directory)
                except OSError as exc:  # a directory that cannot be made or written
                    print(f"warning: not caching {path}: {exc}", file=sys.stderr)
            else:
                print(
                    f"warning: not caching {path}: its {size:,} bytes exceed the budget",
                    file=sys.stderr,
                )
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


def cached_coinvariant_relations(
    n: int, d: int, p: int, compute: Callable[[], EchelonBasis]
) -> EchelonBasis:
    """The (g - 1) relation echelon over the p primitives of degree d in n
    variables; compute() on a miss."""
    return _fetch_echelon("coinvariant", n, d, p, compute)
