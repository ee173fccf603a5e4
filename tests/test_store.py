import threading

import pytest

from hitcalc.cli import main
from hitcalc.hit import hit_basis
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
    return CacheEntry("hit", 2, 3, 4, (0b0110,))


class TestRoundTrip:
    def test_store_then_load_identical_bytes(self, tmp_path):
        entry = sample_entry()
        path = cache_store(entry, tmp_path)
        first = path.read_bytes()
        assert cache_load("hit", 2, 3, tmp_path) == entry
        cache_store(entry, tmp_path)
        assert path.read_bytes() == first

    def test_encode_decode(self):
        entry = CacheEntry("lambda-bidegree", 4, 23, 100, (1 << 99, 0b101))
        assert decode(encode(entry)) == entry

    def test_missing_is_miss(self, tmp_path):
        assert cache_load("hit", 9, 9, tmp_path) is None


class TestValidation:
    def test_wrong_magic(self, tmp_path):
        entry = sample_entry()
        path = cache_store(entry, tmp_path)
        blob = bytearray(path.read_bytes())
        blob[:4] = b"nope"
        path.write_bytes(bytes(blob))
        assert cache_load("hit", 2, 3, tmp_path) is None

    def test_truncated(self, tmp_path):
        path = cache_store(sample_entry(), tmp_path)
        path.write_bytes(path.read_bytes()[:-3])
        assert cache_load("hit", 2, 3, tmp_path) is None

    def test_wrong_version(self, tmp_path):
        path = cache_store(sample_entry(), tmp_path)
        blob = bytearray(path.read_bytes())
        blob[4] = 9
        path.write_bytes(bytes(blob))
        assert cache_load("hit", 2, 3, tmp_path) is None


    @pytest.mark.parametrize(
        "byte, bit",
        [
            (31, 0),  # the first row's lowest bit, right after the header
            (38, 7),  # a padding bit above the 55 coordinates of (3, 9)
        ],
    )
    def test_corrupt_body_recomputes(self, tmp_path, capsys, byte, bit):
        args = ["--cache-dir", str(tmp_path), "cohit", "-n", "3", "-d", "9"]
        assert main(args) == 0
        assert capsys.readouterr().out.startswith("dimension 7\n")
        path = tmp_path / "hit_n3_d9.hpb1"
        blob = bytearray(path.read_bytes())
        blob[byte] ^= 1 << bit
        path.write_bytes(bytes(blob))

        assert main(args) == 0
        out, err = capsys.readouterr()
        assert out.startswith("dimension 7\n")
        assert "ignoring corrupt cache entry" in err
        assert main(args) == 0  # the recomputed entry was stored again
        out, err = capsys.readouterr()
        assert out.startswith("dimension 7\n") and err == ""


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
        assert cache_load("hit", 2, 3, tmp_path) == entry


class TestCachedWrappers:
    def test_hit_roundtrip(self, tmp_path):
        import hitcalc.hit as hit_mod

        fresh = cached_hit_basis(2, 6, directory=tmp_path)
        rows = fresh.basis.row_ints()
        hit_mod._hit_cache.clear()
        warmed = cached_hit_basis(2, 6, directory=tmp_path)
        assert warmed.basis.row_ints() == rows

    def test_primitive_roundtrip(self, tmp_path):
        import hitcalc.homology as hom_mod

        fresh = cached_primitive_basis(2, 6, directory=tmp_path)
        rows = fresh.echelon.row_ints()
        hom_mod._primitive_cache.clear()
        warmed = cached_primitive_basis(2, 6, directory=tmp_path)
        assert warmed.echelon.row_ints() == rows

    def test_boundary_roundtrip(self, tmp_path):
        import hitcalc.lambda_algebra as lam

        fresh = cached_boundary_echelon(2, 4, directory=tmp_path)
        rows = fresh.row_ints()
        lam._boundary_cache.clear()
        warmed = cached_boundary_echelon(2, 4, directory=tmp_path)
        assert warmed.row_ints() == rows

    def test_cache_matches_direct_computation(self, tmp_path):
        import hitcalc.hit as hit_mod

        direct = hit_basis(3, 7).basis.row_ints()
        hit_mod._hit_cache.clear()
        cached_hit_basis(3, 7, directory=tmp_path)
        hit_mod._hit_cache.clear()
        assert cached_hit_basis(3, 7, directory=tmp_path).basis.row_ints() == direct
