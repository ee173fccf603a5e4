import re
import struct
import sys
import threading
import tracemalloc
import zlib

import pytest

from hitcalc import budget, glrep, hit, store
from hitcalc.cli import main
from hitcalc.gf2 import EchelonBasis
from hitcalc.hit import cohit_dim, hit_basis, hold_blocks
from hitcalc.homology import primitive_basis
from hitcalc.lambda_algebra import boundary_echelon, boundary_tops, differential_echelon
from hitcalc.store import (
    CacheEntry,
    cache_load,
    cache_store,
    cached_boundary_echelon,
    cached_boundary_tops,
    cached_hit_basis,
    cached_primitive_basis,
    decode,
    encode,
)
from lambda_oracle import one_shot_differential_echelon


def sample_entry():
    # the hit space of P^+_2(3): Sq^1(u1 u2) = u1^2 u2 + u1 u2^2
    return CacheEntry("hit-plus", 2, 3, 2, {0: 0b11})


class TestRoundTrip:
    def test_store_then_load_identical_bytes(self, tmp_path):
        entry = sample_entry()
        path = cache_store(entry, tmp_path)
        first = path.read_bytes()
        assert cache_load("hit-plus", 2, 3, tmp_path) == entry
        cache_store(entry, tmp_path)
        assert path.read_bytes() == first

    def test_encode_decode(self):
        entry = CacheEntry("lambda-bidegree", 4, 23, 100, {99: 0b1, 0: 0b101})
        assert decode(encode(entry)) == entry

    def test_encode_writes_the_rows_as_held_by_pivot(self):
        entry = CacheEntry("lambda-bidegree", 4, 23, 300, {256: 0b1, 0: 0x1_0001})
        body = (
            struct.pack("<4sHBIIQQ", b"HPB2", 1, 3, 4, 23, 300, 2)
            + struct.pack("<II", 0, 3) + b"\x01\x00\x01"  # row >> 0, 3 bytes
            + struct.pack("<II", 256, 1) + b"\x01"  # row >> 256, 1 byte
        )
        assert encode(entry) == body + zlib.crc32(body).to_bytes(4, "little")

    def test_missing_is_miss(self, tmp_path):
        assert cache_load("hit-plus", 9, 9, tmp_path) is None


def recrc(blob):
    """Set the last four bytes of blob to the CRC-32 of the bytes before them."""
    blob[-4:] = zlib.crc32(blob[:-4]).to_bytes(4, "little")


def records(blob):
    """The offsets of the records of an HPB2 entry, and of its checksum: a
    record is a u32 pivot and a u32 byte length, then that many bytes of row."""
    out = [31]
    while out[-1] < len(blob) - 4:
        out.append(out[-1] + 8 + struct.unpack_from("<I", blob, out[-1] + 4)[0])
    return out


def set_u32(blob, off, value):
    struct.pack_into("<I", blob, off, value)


def bad_magic(blob):
    blob[:4] = b"HPB1"
    recrc(blob)


def bad_version(blob):
    blob[4] = 2
    recrc(blob)


def bad_kind(blob):
    blob[6] = 1  # the retired kind of whole hit spaces
    recrc(blob)


def bad_m(blob):
    struct.pack_into("<Q", blob, 15, struct.unpack_from("<Q", blob, 15)[0] + 1)
    recrc(blob)


def bad_pivot(blob):
    set_u32(blob, 31, struct.unpack_from("<Q", blob, 15)[0])  # the first at m
    recrc(blob)


def bad_length(blob):
    set_u32(blob, 35, len(blob))  # the first record overruns the body
    recrc(blob)


def bad_row_bytes(blob):
    blob[39] ^= 0b10  # the checksum no longer matches


def bad_row_bytes_recrc(blob):
    blob[39] ^= 0b1  # the first row is even: its pivot is not its lowest bit
    recrc(blob)


def bad_trailing(blob):
    blob[-4:-4] = b"\x00"
    recrc(blob)


def bad_crc(blob):
    blob[-1] ^= 0x80


def bad_out_of_order(blob):
    first, second, third = records(blob)[:3]
    blob[first:third] = blob[second:third] + blob[first:second]
    recrc(blob)


def bad_repeated(blob):
    # the last two rows of P^+_3(9) are single ones, so the last one under
    # the pivot before it would leave canonical rows of rank one less
    before, last = records(blob)[-3:-1]
    set_u32(blob, last, struct.unpack_from("<I", blob, before)[0])
    recrc(blob)


class TestValidation:
    def test_wrong_magic(self, tmp_path):
        entry = sample_entry()
        path = cache_store(entry, tmp_path)
        blob = bytearray(path.read_bytes())
        blob[:4] = b"nope"
        path.write_bytes(bytes(blob))
        assert cache_load("hit-plus", 2, 3, tmp_path) is None

    def test_truncated(self, tmp_path):
        path = cache_store(sample_entry(), tmp_path)
        path.write_bytes(path.read_bytes()[:-3])
        assert cache_load("hit-plus", 2, 3, tmp_path) is None

    def test_wrong_version(self, tmp_path):
        path = cache_store(sample_entry(), tmp_path)
        blob = bytearray(path.read_bytes())
        blob[4] = 9
        path.write_bytes(bytes(blob))
        assert cache_load("hit-plus", 2, 3, tmp_path) is None


    @pytest.mark.parametrize(
        "argv, name, byte, bit, head",
        [
            # the first record's pivot, right after the header
            pytest.param(["cohit"], "hit_plus_k3", 31, 0, "dimension 7\n", id="31-0"),
            # the top bit of the first record's byte length
            pytest.param(["cohit"], "hit_plus_k3", 38, 7, "dimension 7\n", id="38-7"),
            # bit 12 of the first record's pivot
            pytest.param(
                ["primitives", "--basis"],
                "primitive_n3",
                32,
                4,
                "dimension 7\n",
                id="primitive-32-4",
            ),
            # bit 6 of the first relation's pivot
            pytest.param(
                ["coinvariants"],
                "coinvariant_n3",
                31,
                6,
                "dimension 1 (relations rank 6)\n",
                id="coinvariant-31-6",
            ),
        ],
    )
    def test_corrupt_body_recomputes(
        self, tmp_path, capsys, argv, name, byte, bit, head
    ):
        args = ["--cache-dir", str(tmp_path), *argv, "-n", "3", "-d", "9"]
        assert main(args) == 0
        clean = capsys.readouterr().out
        assert clean.startswith(head)
        path = tmp_path / f"{name}_d9.hpb2"
        blob = bytearray(path.read_bytes())
        blob[byte] ^= 1 << bit
        path.write_bytes(bytes(blob))

        assert main(args) == 0
        out, err = capsys.readouterr()
        assert out == clean
        assert "ignoring corrupt cache entry" in err
        assert main(args) == 0  # the recomputed entry was stored again
        out, err = capsys.readouterr()
        assert out == clean and err == ""

    @pytest.mark.parametrize(
        "damage",
        [
            bad_magic,
            bad_version,
            bad_kind,
            bad_m,
            bad_pivot,
            bad_length,
            bad_row_bytes,
            bad_row_bytes_recrc,
            bad_trailing,
            bad_crc,
            bad_out_of_order,
            bad_repeated,
        ],
        ids=lambda f: f.__name__.removeprefix("bad_"),
    )
    def test_each_damaged_region_recomputes(self, tmp_path, capsys, damage):
        # every damage but bad_row_bytes and bad_crc leaves a matching
        # checksum, so the check that region has catches it
        args = ["--cache-dir", str(tmp_path), "cohit", "-n", "3", "-d", "9"]
        assert main(["--no-cache", *args[2:]]) == 0
        clean = capsys.readouterr().out
        assert clean.startswith("dimension 7\n")
        assert main(args) == 0
        assert capsys.readouterr() == (clean, "")
        path = tmp_path / "hit_plus_k3_d9.hpb2"
        blob = bytearray(path.read_bytes())
        damage(blob)
        path.write_bytes(bytes(blob))

        assert main(args) == 0
        out, err = capsys.readouterr()
        assert out == clean
        assert err == f"warning: ignoring corrupt cache entry {path}\n"
        assert main(args) == 0  # the recomputed entry was stored again
        assert capsys.readouterr() == (clean, "")

    def test_entry_of_another_m_recomputes(self, tmp_path, capsys):
        args = ["--cache-dir", str(tmp_path), "coinvariants", "-n", "3", "-d", "9"]
        assert main(args) == 0
        clean = capsys.readouterr().out
        stale = cache_load("coinvariant", 3, 9, tmp_path)
        assert stale is not None and stale.m == 7  # the seven primitives
        # canonical rows and an intact checksum, but over eight coordinates
        cache_store(CacheEntry("coinvariant", 3, 9, 8, stale.rows), tmp_path)

        assert main(args) == 0
        out, err = capsys.readouterr()
        assert out == clean
        assert err == (
            "warning: ignoring corrupt cache entry "
            f"{tmp_path / 'coinvariant_n3_d9.hpb2'}\n"
        )
        assert cache_load("coinvariant", 3, 9, tmp_path) == stale


class TestAtomicity:
    def test_concurrent_stores_leave_one_valid_file(self, tmp_path):
        entry = sample_entry()
        errors = []

        def work():
            try:
                for _ in range(20):
                    cache_store(entry, tmp_path)
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=work) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        files = list(tmp_path.iterdir())
        assert len(files) == 1
        assert cache_load("hit-plus", 2, 3, tmp_path) == entry


def unreachable(*args, **kwargs):
    raise AssertionError("recomputed a basis that the disk tier holds")


class TestCachedWrappers:
    @pytest.fixture(autouse=True)
    def disk(self, tmp_path):
        store.configure(tmp_path)
        yield
        store.configure(None)

    def test_hit_roundtrip(self, tmp_path, monkeypatch):
        rows = hit_basis(2, 6).row_ints()
        block = cached_hit_basis(2, 6, unreachable).row_ints()
        store.configure(tmp_path)  # empties the memory tier
        assert cached_hit_basis(2, 6, unreachable).row_ints() == block
        monkeypatch.setattr(hit, "_generator_rows", unreachable)
        assert hit_basis(2, 6).row_ints() == rows

    def test_primitive_roundtrip(self, tmp_path):
        rows = primitive_basis(2, 6).echelon.row_ints()
        store.configure(tmp_path)
        assert cached_primitive_basis(2, 6, unreachable).row_ints() == rows

    def test_boundary_roundtrip(self, tmp_path):
        rows = boundary_echelon(2, 4).row_ints()
        store.configure(tmp_path)
        assert cached_boundary_echelon(2, 4, unreachable).row_ints() == rows

    def test_tops_roundtrip(self, tmp_path):
        rows = boundary_tops(4, 23).row_ints()
        store.configure(tmp_path)
        assert cached_boundary_tops(4, 23, unreachable).row_ints() == rows

    def test_a_load_holds_no_decoded_copy_of_the_file(self, tmp_path):
        # the records are decoded straight into the rows the basis keeps, so
        # the load's traced peak is what it returns, the file's 840 KB and
        # the dict of rows as it grows, when it holds its old table beside
        # the new; a copy of the rows as absolute ints would add 1.7 MB
        cohit_dim(4, 33)
        store.configure(tmp_path)  # empties the memory tier
        tracemalloc.start()
        try:
            basis = cached_hit_basis(4, 33, unreachable)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        size = (tmp_path / "hit_plus_k4_d33.hpb2").stat().st_size
        assert peak < held + size + sys.getsizeof(basis.shifted_rows())

    def test_cache_matches_direct_computation(self, tmp_path):
        store.configure(None)
        direct = hit_basis(3, 7).row_ints()
        store.configure(tmp_path)
        hit_basis(3, 7)
        store.configure(tmp_path)
        assert hit_basis(3, 7).row_ints() == direct

    @pytest.mark.parametrize(
        "rows",
        [
            {0: 0b11, 1: 0b1},  # independent, but the first row has a one at a pivot
            {0: 0b10},  # a row held under a pivot below its lowest bit
            {0: 0b10, 1: 0b1},  # one row twice, under pivots 0 and 1
            {0: 0b100},  # a bit past the two coordinates
        ],
    )
    def test_rows_that_are_not_canonical_recompute(self, tmp_path, capsys, rows):
        # P^+_2(3) has two coordinates
        cache_store(CacheEntry("hit-plus", 2, 3, 2, rows), tmp_path)  # checksum intact
        fresh = EchelonBasis(2)
        assert cached_hit_basis(2, 3, lambda: fresh) is fresh
        assert "ignoring corrupt cache entry" in capsys.readouterr().err

    def test_memory_tier_serves_repeats(self):
        store.configure(None)
        assert cached_hit_basis(2, 6, lambda: EchelonBasis(7)) is cached_hit_basis(
            2, 6, unreachable
        )


class TestPrimitiveFromMemoisedHit:
    """A primitive space holds its hit blocks in memory and never writes one,
    and the coinvariant relations reuse them."""

    def test_reuses_the_hit_space_in_memory(self, monkeypatch):
        store.configure(None)
        fresh = primitive_basis(4, 23).echelon.row_ints()
        store.configure(None)
        cohit_dim(4, 23)
        monkeypatch.setattr(hit, "_generator_rows", unreachable)
        assert primitive_basis(4, 23).echelon.row_ints() == fresh
        store.configure(None)

    def test_holds_its_blocks_in_memory_and_writes_none(self, tmp_path):
        store.configure(tmp_path)
        try:
            primitive_basis(3, 9)
            for k in (1, 2, 3):
                store.held("hit-plus", k, 9, unreachable)
        finally:
            store.configure(None)
        assert [p.name for p in tmp_path.iterdir()] == ["primitive_n3_d9.hpb2"]

    def test_a_coinvariant_command_eliminates_each_block_once(
        self, tmp_path, capsys, monkeypatch
    ):
        # cold, and again with the primitive entry but not the relations
        args = ["--cache-dir", str(tmp_path), "coinvariants", "-n", "4", "-d", "23"]
        for rerun in (False, True):
            if rerun:
                (tmp_path / "coinvariant_n4_d23.hpb2").unlink()
            calls = spy(monkeypatch, hit, "_generator_rows")
            stored = spy(monkeypatch, store, "cache_store")
            assert main(args) == 0
            assert capsys.readouterr().out.startswith("dimension 1 (relations rank 154)\n")
            # mu(23) = 3, so Wood's theorem kills P^+_1(23) and P^+_2(23)
            assert calls == [(k, 23) for k in (3, 4)]
            kinds = ["coinvariant"] if rerun else ["primitive", "coinvariant"]
            assert [entry.kind for entry, _ in stored] == kinds
            monkeypatch.undo()


def spy(monkeypatch, module, name):
    """Wrap module.name so that each call's arguments are recorded in the
    returned list."""
    real, calls = getattr(module, name), []

    def call(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(module, name, call)
    return calls


def strip_timing(text):
    return re.sub(r"\(\d+ ms\)", "(ms)", text)


class TestDiskTraffic:
    """The files a command writes on a cold cache, and its warm rerun from them."""

    @pytest.mark.parametrize(
        "argv, written",
        [
            (
                ["cohit", "-n", "3", "-d", "9"],
                {"hit_plus_k1_d9", "hit_plus_k2_d9", "hit_plus_k3_d9"},
            ),
            (
                ["verify", "thm21", "-t", "1", "-s", "1", "-u", "3"],
                {"primitive_n4_d35", "coinvariant_n4_d35"},
            ),
            (
                ["verify", "cor22", "-t", "1", "-s", "2", "-u", "1"],
                {
                    "primitive_n4_d23",
                    "coinvariant_n4_d23",
                    "lambda_s4_w23",
                    "lambda_d_s4_w23",
                    "lambda_t_s4_w23",
                },
            ),
            (
                ["transfer", "-n", "4", "-d", "23"],
                {"primitive_n4_d23", "coinvariant_n4_d23", "lambda_s4_w23"},
            ),
            (["ext", "-s", "4", "-w", "41"], {"lambda_t_s4_w41", "lambda_d_s4_w41"}),
            (
                ["coinvariants", "-n", "4", "-d", "23"],
                {"primitive_n4_d23", "coinvariant_n4_d23"},
            ),
        ],
    )
    def test_cold_writes_the_asked_bases_and_warm_reads_them(
        self, tmp_path, capsys, monkeypatch, argv, written
    ):
        args = ["--cache-dir", str(tmp_path), *argv]
        assert main(args) == 0
        cold = capsys.readouterr().out
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
            f"{name}.hpb2" for name in written
        )

        # every elimination a basis needs starts in one of these: Sq rows for
        # hit spaces, and batch inserts for kernels and lambda boundaries;
        # a load inserts no row and the relations need no GL action
        monkeypatch.setattr(hit, "_generator_rows", unreachable)
        monkeypatch.setattr(EchelonBasis, "extend", unreachable)
        monkeypatch.setattr(EchelonBasis, "_insert", unreachable)
        monkeypatch.setattr(glrep, "_act_exponents", unreachable)
        assert main(args) == 0
        out, err = capsys.readouterr()
        assert strip_timing(out) == strip_timing(cold) and err == ""


def charged(basis):
    """The bytes the budget charges for the canonical rows of basis."""
    return sum(map(sys.getsizeof, basis.shifted_rows().values()))


@pytest.mark.parametrize(
    "kind, n, d, make",
    [
        ("hit-plus", 4, 28, lambda: hold_blocks(4, 28)[4]),
        ("primitive", 4, 23, lambda: primitive_basis(4, 23).echelon),
        ("lambda-bidegree", 4, 23, lambda: boundary_echelon(4, 23)),
        ("lambda-differential", 3, 23, lambda: differential_echelon(3, 23)),
        ("lambda-tops", 4, 23, lambda: boundary_tops(4, 23)),
        ("hit-plus", 5, 5, lambda: EchelonBasis(1)),  # the empty basis
    ],
    ids=[
        "hit-plus",
        "primitive",
        "lambda-bidegree",
        "lambda-differential",
        "lambda-tops",
        "empty",
    ],
)
def test_an_entry_takes_at_most_its_charged_bytes_and_35(kind, n, d, make):
    # a record is 8 bytes and the row's bytes, below the row int's getsizeof,
    # so a file that the budget let the basis hold needs no guard of its own
    store.configure(None)
    basis = make()
    entry = CacheEntry(kind, n, d, basis.ambient_length, basis.shifted_rows())
    assert len(encode(entry)) <= charged(basis) + 35
    assert decode(encode(entry)) == entry


def test_a_budget_the_basis_fits_writes_its_entry(tmp_path, capsys):
    # the hit rows of P^+_4(28) take 82 KB shifted to their pivots and their
    # entry 26 KB, so --budget-mb 1 writes it with every smaller block
    argv = ["cohit", "-n", "4", "-d", "28"]
    assert main(["--budget-mb", "1", "--cache-dir", str(tmp_path), *argv]) == 0
    out, err = capsys.readouterr()
    assert main(["--no-cache", *argv]) == 0
    assert (out, err) == (capsys.readouterr().out, "")
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        f"hit_plus_k{k}_d28.hpb2" for k in (1, 2, 3, 4)
    ]
    store.configure(None)
    size = (tmp_path / "hit_plus_k4_d28.hpb2").stat().st_size
    assert size <= charged(hold_blocks(4, 28)[4]) + 35


def test_a_differential_entry_of_the_whole_transpose_gives_the_same_ext(
    tmp_path, capsys
):
    # an entry written before the boundaries' top coordinates were dropped
    # holds the canonical rows of the whole transposed differential; only
    # its rank is read, and the rank is the same
    store.configure(None)
    whole = one_shot_differential_echelon(4, 23)
    assert whole.row_ints() != differential_echelon(4, 23).row_ints()
    entry = CacheEntry(
        "lambda-differential", 4, 23, whole.ambient_length, whole.shifted_rows()
    )
    path = cache_store(entry, tmp_path)
    written = path.read_bytes()
    assert main(["--cache-dir", str(tmp_path), "ext", "-s", "4", "-w", "23"]) == 0
    assert capsys.readouterr() == ("1\n", "")
    assert path.read_bytes() == written  # loaded, neither rejected nor rewritten


class TestTopsEntry:
    """The boundaries' top coordinates have their own kind and file name."""

    args = ["ext", "-s", "4", "-w", "23"]

    def test_a_damaged_tops_entry_recomputes(self, tmp_path, capsys):
        args = ["--cache-dir", str(tmp_path), *self.args]
        assert main(args) == 0
        assert capsys.readouterr() == ("1\n", "")
        path = tmp_path / "lambda_t_s4_w23.hpb2"
        blob = bytearray(path.read_bytes())
        blob[31] ^= 1  # the first top; the checksum no longer matches
        path.write_bytes(bytes(blob))

        assert main(args) == 0
        assert capsys.readouterr() == (
            "1\n",
            f"warning: ignoring corrupt cache entry {path}\n",
        )
        assert main(args) == 0  # the recomputed entry was stored again
        assert capsys.readouterr() == ("1\n", "")

    def test_a_boundary_entry_is_never_read_as_tops(
        self, tmp_path, capsys, monkeypatch
    ):
        # a cache that holds the boundary echelon, as ext wrote it before the
        # tops had a kind: its rank is the boundary rank, but its pivots are
        # the boundaries' lowest coordinates, not their tops
        store.configure(None)
        boundaries = boundary_echelon(4, 23)
        assert set(boundaries.pivots) != set(boundary_tops(4, 23).pivots)
        entry = CacheEntry(
            "lambda-bidegree", 4, 23, boundaries.ambient_length, boundaries.shifted_rows()
        )
        written = cache_store(entry, tmp_path).read_bytes()
        loaded = []
        load = store.cache_load

        def spy(kind, n, d, directory):
            loaded.append(kind)
            return load(kind, n, d, directory)

        monkeypatch.setattr(store, "cache_load", spy)
        args = ["--cache-dir", str(tmp_path), *self.args]
        assert main(args) == 0
        assert capsys.readouterr() == ("1\n", "")
        assert "lambda-bidegree" not in loaded
        assert (tmp_path / "lambda_s4_w23.hpb2").read_bytes() == written

        # under the tops' file name its kind byte rejects it
        path = tmp_path / "lambda_t_s4_w23.hpb2"
        path.write_bytes(written)
        assert main(args) == 0
        assert capsys.readouterr() == (
            "1\n",
            f"warning: ignoring corrupt cache entry {path}\n",
        )
        assert cache_load("lambda-tops", 4, 23, tmp_path).rows == dict.fromkeys(
            boundary_tops(4, 23).pivots, 1
        )


def test_an_empty_basis_writes_its_entry_under_any_budget(tmp_path):
    # its 35 bytes of header and checksum are all the file holds
    budget.configure(1)
    store.configure(tmp_path)
    try:
        assert cached_hit_basis(5, 5, lambda: EchelonBasis(1)).rank == 0
    finally:
        budget.configure(None)
        store.configure(None)
    assert (tmp_path / "hit_plus_k5_d5.hpb2").stat().st_size == 35


def test_no_cache_and_library_calls_stay_off_disk(tmp_path, capsys, monkeypatch):
    assert main(["--cache-dir", str(tmp_path), "cohit", "-n", "3", "-d", "9"]) == 0
    written = sorted(p.name for p in tmp_path.iterdir())
    assert written == [f"hit_plus_k{k}_d9.hpb2" for k in (1, 2, 3)]
    monkeypatch.setenv(store.ENV_VAR, str(tmp_path))
    loads, stores = (spy(monkeypatch, store, f) for f in ("cache_load", "cache_store"))
    assert main(["--no-cache", "cohit", "-n", "3", "-d", "9"]) == 0
    assert capsys.readouterr().out.startswith("dimension 7\n")
    assert hit_basis(3, 9).rank == 55 - 7  # a library call outside main()
    assert loads == stores == []
    assert sorted(p.name for p in tmp_path.iterdir()) == written
