"""Binary caching of expensive echelon bases (HPB1 format).

Layout, all little-endian:

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

from .budget import Budget
from .gf2 import EchelonBasis

__all__ = [
    "CacheEntry",
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


def cache_load(
    kind: str, n: int, d: int, directory: Path | None = None
) -> CacheEntry | None:
    path = (directory or cache_dir()) / _filename(kind, n, d)
    try:
        blob = path.read_bytes()
    except OSError:
        return None
    entry = decode(blob)
    if entry is None or (entry.kind, entry.n, entry.d) != (kind, n, d):
        print(f"warning: ignoring corrupt cache entry {path}", file=sys.stderr)
        return None
    return entry


def cache_store(entry: CacheEntry, directory: Path | None = None) -> Path:
    base = directory or cache_dir()
    base.mkdir(parents=True, exist_ok=True)
    path = base / _filename(entry.kind, entry.n, entry.d)
    fd, tmp = tempfile.mkstemp(dir=base, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(encode(entry))
        os.replace(tmp, path)  # atomic: exactly one complete file survives
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return path


def _load_basis(
    kind: str, n: int, d: int, m: int, budget: Budget | None, directory: Path | None
) -> EchelonBasis | None:
    """The cached basis, or None on a miss or an entry that is not canonical."""
    entry = cache_load(kind, n, d, directory)
    if entry is None or entry.m != m:
        return None
    if not any(row >> m for row in entry.rows):  # no set bit past the last coordinate
        basis = EchelonBasis(m, budget=budget)
        for row in entry.rows:
            basis.insert_int(row)
        if basis.row_ints() == list(entry.rows):
            return basis
    path = (directory or cache_dir()) / _filename(kind, n, d)
    print(f"warning: ignoring corrupt cache entry {path}", file=sys.stderr)
    return None


# -- cache-through wrappers around the expensive bases ---------------------------


def cached_hit_basis(n, d, budget=None, directory: Path | None = None):
    from . import hit
    from .steenrod import monomial_count

    basis = _load_basis("hit", n, d, monomial_count(n, d), budget, directory)
    if basis is not None:
        space = hit.HitSpace(n, d, basis)
        hit._hit_cache[(n, d)] = space
        return space
    space = hit.hit_basis(n, d, budget=budget)
    cache_store(
        CacheEntry("hit", n, d, space.basis.ambient_length, tuple(space.basis.row_ints())),
        directory,
    )
    return space


def cached_primitive_basis(n, d, budget=None, directory: Path | None = None):
    from . import homology
    from .steenrod import monomial_count

    echelon = _load_basis("primitive", n, d, monomial_count(n, d), budget, directory)
    if echelon is not None:
        basis = homology.PrimitiveBasis(n, d, echelon)
        homology._primitive_cache[(n, d)] = basis
        return basis
    basis = homology.primitive_basis(n, d, budget=budget)
    cache_store(
        CacheEntry(
            "primitive", n, d, basis.echelon.ambient_length, tuple(basis.echelon.row_ints())
        ),
        directory,
    )
    return basis


def cached_boundary_echelon(s, w, budget=None, directory: Path | None = None):
    from . import lambda_algebra as lam

    basis = _load_basis("lambda-bidegree", s, w, lam.bidegree_count(s, w), budget, directory)
    if basis is not None:
        lam._boundary_cache[(s, w)] = basis
        return basis
    basis = lam.boundary_echelon(s, w, budget=budget)
    cache_store(
        CacheEntry("lambda-bidegree", s, w, basis.ambient_length, tuple(basis.row_ints())),
        directory,
    )
    return basis
