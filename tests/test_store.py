import re
import threading
import tracemalloc

import pytest

from hitcalc import glrep, hit, store
from hitcalc.cli import main
from hitcalc.gf2 import EchelonBasis
from hitcalc.hit import cohit_dim, hit_basis
from hitcalc.homology import primitive_basis
from hitcalc.lambda_algebra import boundary_echelon
from hitcalc.store import (
    CacheEntry,
    cache_load,
    cache_store,
    cached_boundary_echelon,
    cached_hit_basis,
    cached_primitive_basis,
    decode,
    encode,
)


def sample_entry():
    # the hit space of P^+_2(3): Sq^1(u1 u2) = u1^2 u2 + u1 u2^2
    return CacheEntry("hit-plus", 2, 3, 2, (0b11,))


class TestRoundTrip:
    def test_store_then_load_identical_bytes(self, tmp_path):
        entry = sample_entry()
        path = cache_store(entry, tmp_path)
        first = path.read_bytes()
        assert cache_load("hit-plus", 2, 3, tmp_path) == entry
        cache_store(entry, tmp_path)
        assert path.read_bytes() == first

    def test_encode_decode(self):
        entry = CacheEntry("lambda-bidegree", 4, 23, 100, (1 << 99, 0b101))
        assert decode(encode(entry)) == entry

    def test_encode_reads_rows_from_an_iterator(self):
        entry = CacheEntry("lambda-bidegree", 4, 23, 100, (0b101, 1 << 99))
        streamed = CacheEntry("lambda-bidegree", 4, 23, 100, iter(entry.rows))
        assert decode(encode(streamed)) == entry

    def test_missing_is_miss(self, tmp_path):
        assert cache_load("hit-plus", 9, 9, tmp_path) is None


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
            # the first row's lowest bit, right after the header
            pytest.param(["cohit"], "hit_plus_k3", 31, 0, "dimension 7\n", id="31-0"),
            # a padding bit above the 28 coordinates of P^+_3(9)
            pytest.param(["cohit"], "hit_plus_k3", 38, 7, "dimension 7\n", id="38-7"),
            # coordinate 12 of the first row, not a pivot: the rows stay
            # canonical, and only the checksum tells that the basis changed
            pytest.param(
                ["primitives", "--basis"],
                "primitive_n3",
                32,
                4,
                "dimension 7\n",
                id="primitive-32-4",
            ),
            # coordinate 6 of the first relation, the one non-pivot of the
            # seven primitives: again only the checksum tells
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
        path = tmp_path / f"{name}_d9.hpb1"
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
            f"{tmp_path / 'coinvariant_n3_d9.hpb1'}\n"
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

    def test_a_load_holds_no_decoded_copy_of_the_file(self, tmp_path):
        # the rows are decoded one at a time, last first, and held shifted to
        # their pivots (73 KB here); a tuple of every decoded row beside the
        # file's 853 KB took the load's traced peak to 1.8 times the file
        cohit_dim(4, 27)
        store.configure(tmp_path)  # empties the memory tier
        tracemalloc.start()
        try:
            cached_hit_basis(4, 27, unreachable)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * (tmp_path / "hit_plus_k4_d27.hpb1").stat().st_size

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
            (0b11, 0b10),  # independent, but the first row has a one at a pivot
            (0b10, 0b01),  # canonical rows out of pivot order
            (0b01, 0b01),  # one row twice: rank 1, not 2
            (0b100,),  # a bit past the two coordinates
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
        assert [p.name for p in tmp_path.iterdir()] == ["primitive_n3_d9.hpb1"]

    def test_a_coinvariant_command_eliminates_each_block_once(
        self, tmp_path, capsys, monkeypatch
    ):
        # cold, and again with the primitive entry but not the relations
        args = ["--cache-dir", str(tmp_path), "coinvariants", "-n", "4", "-d", "23"]
        for rerun in (False, True):
            if rerun:
                (tmp_path / "coinvariant_n4_d23.hpb1").unlink()
            calls = spy(monkeypatch, hit, "_generator_rows")
            stored = spy(monkeypatch, store, "cache_store")
            assert main(args) == 0
            assert capsys.readouterr().out.startswith("dimension 1 (relations rank 154)\n")
            assert calls == [(k, 23) for k in (1, 2, 3, 4)]
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
                },
            ),
            (
                ["transfer", "-n", "4", "-d", "23"],
                {"primitive_n4_d23", "coinvariant_n4_d23", "lambda_s4_w23"},
            ),
            (["ext", "-s", "4", "-w", "41"], {"lambda_s4_w41", "lambda_d_s4_w41"}),
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
            f"{name}.hpb1" for name in written
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


@pytest.mark.parametrize(
    "d, size", [(27, 852_835), (28, 1_068_707)], ids=["fits", "over-budget"]
)
def test_an_entry_over_the_budget_is_not_written(tmp_path, capsys, d, size):
    # the hit rows of P^+_4(28) take 95 KiB shifted to their pivots, but
    # their HPB1 entry takes just over 1 MiB; those of P^+_4(27) fit both
    # ways, and so do the blocks in fewer variables
    path = tmp_path / f"hit_plus_k4_d{d}.hpb1"
    argv = ["cohit", "-n", "4", "-d", str(d)]
    assert main(["--budget-mb", "1", "--cache-dir", str(tmp_path), *argv]) == 0
    out, err = capsys.readouterr()
    assert main(["--no-cache", *argv]) == 0
    assert out == capsys.readouterr().out
    if size <= 2**20:
        assert err == "" and path.stat().st_size == size
    else:
        assert err == f"warning: not caching {path}: its {size:,} bytes exceed the budget\n"
        assert not path.exists()
    assert {p.name for p in tmp_path.iterdir()} >= {
        f"hit_plus_k{k}_d{d}.hpb1" for k in (1, 2, 3)
    }


def test_no_cache_and_library_calls_stay_off_disk(tmp_path, capsys, monkeypatch):
    assert main(["--cache-dir", str(tmp_path), "cohit", "-n", "3", "-d", "9"]) == 0
    written = sorted(p.name for p in tmp_path.iterdir())
    assert written == [f"hit_plus_k{k}_d9.hpb1" for k in (1, 2, 3)]
    monkeypatch.setenv(store.ENV_VAR, str(tmp_path))
    loads, stores = (spy(monkeypatch, store, f) for f in ("cache_load", "cache_store"))
    assert main(["--no-cache", "cohit", "-n", "3", "-d", "9"]) == 0
    assert capsys.readouterr().out.startswith("dimension 7\n")
    assert hit_basis(3, 9).rank == 55 - 7  # a library call outside main()
    assert loads == stores == []
    assert sorted(p.name for p in tmp_path.iterdir()) == written
