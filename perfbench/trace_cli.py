"""Run one hitcalc CLI command with a span wrapped around each layer's calls.

Usage: python trace_cli.py OUT.json [hitcalc arguments...]

The public functions of each module are replaced, in every hitcalc module
namespace that holds them, by wrappers that time the call; methods are
replaced on their class.  Nothing under src/ is edited, so callers look the
wrapper up exactly where they looked the original up.  Spans stay in memory
and are written to OUT.json when the command ends, together with per-name
totals (calls, inclusive seconds, self seconds) and counters.  A name's
self time is its duration minus the time of the wrapped calls it contains;
inclusive time counts only the outermost active call of a name, so
recursion (psi calls psi) is not counted twice.

Calls made per row or per word ("hot" names below) are totalled but not
kept as individual spans, which would cost hundreds of thousands of records
per command.
"""

from __future__ import annotations

import functools
import json
import sys
import time

_clock = time.perf_counter


class Tracer:
    """Spans, per-name totals and counters of one process."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int]] = []  # name, start, end, parent index
        self.totals: dict[str, list[float]] = {}  # name -> [calls, incl, self]
        self.counters: dict[str, float] = {}
        self._stack: list[list] = []  # [child seconds, span id]
        self._active: dict[str, int] = {}

    def bump(self, key: str, n: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + n

    def peak(self, key: str, value: float) -> None:
        if value > self.counters.get(key, 0):
            self.counters[key] = value

    def wrap(self, name: str, fn, hot: bool = False, observe=None):
        """A wrapper that times fn under `name`; observe(result, args) sees each result."""
        totals = self.totals.setdefault(name, [0, 0.0, 0.0])
        stack, active, spans = self._stack, self._active, self.spans

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1][1] if stack else -1
            span_id = parent if hot else len(spans)
            if not hot:
                spans.append((name, 0.0, 0.0, parent))
            frame = [0.0, span_id]  # child seconds, span id its children point to
            stack.append(frame)
            active[name] = active.get(name, 0) + 1
            t0 = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = _clock()
                stack.pop()
                active[name] -= 1
                totals[0] += 1
                if active[name] == 0:
                    totals[1] += t1 - t0
                totals[2] += t1 - t0 - frame[0]
                if stack:
                    stack[-1][0] += t1 - t0
                if not hot:
                    spans[span_id] = (name, t0, t1, parent)
            if observe is not None:
                observe(result, args)
            return result

        return traced


def _replace_everywhere(original, wrapped) -> None:
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "hitcalc" or mod_name.startswith("hitcalc.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, wrapped)


def install(tracer: Tracer) -> None:
    """Wrap the public calls of every layer the benchmark reports on."""
    import hitcalc.cli  # noqa: F401  (loads every module the CLI uses)
    from hitcalc import glrep, hit, homology, lambda_algebra, store, transfer
    from hitcalc.gf2 import EchelonBasis

    def function(module, attr: str, name: str, **kw) -> None:
        original = getattr(module, attr)
        _replace_everywhere(original, tracer.wrap(name, original, **kw))

    def method(cls, attr: str, name: str, **kw) -> None:
        setattr(cls, attr, tracer.wrap(name, getattr(cls, attr), **kw))

    # gf2: elimination, reduction and kernel extraction
    def inserted(grew, args) -> None:
        if grew:
            basis = args[0]
            tracer.bump("gf2.insert.useful")
            tracer.peak(
                "gf2.matrix_bytes", basis.rank * ((basis.ambient_length + 63) // 64) * 8
            )

    method(EchelonBasis, "insert_indices", "gf2.insert", hot=True, observe=inserted)
    method(EchelonBasis, "insert", "gf2.insert", hot=True, observe=inserted)
    method(EchelonBasis, "reduce", "gf2.reduce", hot=True)
    method(EchelonBasis, "reduce_int", "gf2.reduce", hot=True)
    method(EchelonBasis, "kernel", "gf2.kernel")

    # hit: Sq row generation (steenrod) and the hit/cohit bases
    function(hit, "hit_basis", "hit.basis")
    function(hit, "cohit_basis", "hit.cohit")
    function(hit, "cohit_dim", "hit.cohit")

    # homology: dual-square row assembly and the primitive kernel
    function(homology, "primitive_basis", "homology.primitive")

    # glrep: the GL action on primitives
    function(glrep, "coinvariant_classes", "glrep.coinvariant")
    function(glrep, "coinvariant_class_nonzero", "glrep.coinvariant")
    function(glrep, "invariant_basis", "glrep.invariant")

    # lambda: word enumeration, differential, normal form, boundary rank
    asked: set[tuple[int, int]] = set()

    def boundary_words(basis, args) -> None:
        if tuple(args[:2]) not in asked:
            asked.add(tuple(args[:2]))
            tracer.bump("lambda.words", basis.ambient_length)

    function(lambda_algebra, "boundary_echelon", "lambda.boundary", observe=boundary_words)
    function(lambda_algebra, "homology_dim", "lambda.homology")
    function(lambda_algebra, "is_boundary", "lambda.is_boundary")
    function(lambda_algebra, "differential", "lambda.differential", hot=True)
    function(lambda_algebra, "normal_form", "lambda.normal_form", hot=True)

    # transfer: psi and the label search
    function(transfer, "psi", "transfer.psi")
    function(transfer, "label_dictionary", "transfer.labels")
    function(transfer, "class_equal", "transfer.labels")
    function(transfer, "transfer_report", "transfer.report")

    # store: HPB1 load, store and the cache-through rebuild
    read = [False]  # whether the current cache_load got as far as decoding a file

    def decoded(entry, args) -> None:
        read[0] = True
        tracer.bump("store.load_bytes", len(args[0]))

    def loaded(entry, args) -> None:
        if entry is not None:
            tracer.bump("store.hits")
        else:
            tracer.bump("store.rejects" if read[0] else "store.misses")
        read[0] = False

    def encoded(blob, args) -> None:
        tracer.bump("store.store_bytes", len(blob))

    function(store, "decode", "store.decode", hot=True, observe=decoded)
    function(store, "encode", "store.encode", hot=True, observe=encoded)
    function(store, "cache_load", "store.load", observe=loaded)
    function(store, "cache_store", "store.store")
    for attr in ("cached_hit_basis", "cached_primitive_basis", "cached_boundary_echelon"):
        function(store, attr, "store.fetch")


def main(argv: list[str]) -> int:
    out_path, cli_args = argv[0], argv[1:]
    import hitcalc.cli

    imported = time.monotonic()
    tracer = Tracer()
    install(tracer)
    try:
        return hitcalc.cli.main(cli_args)
    finally:
        record = {
            "imported_monotonic": imported,
            "totals": tracer.totals,
            "counters": tracer.counters,
            "spans": tracer.spans,
        }
        with open(out_path, "w") as fh:
            json.dump(record, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
