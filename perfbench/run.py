"""End-to-end and per-layer benchmark of the hitcalc command line.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload rank4-cold --seed 1 --seconds 20 --trace 0

Each command of the workload runs as its own child process
(`python -m hitcalc.cli ...`, source taken from this checkout's src/), one
child at a time.  A run first sets up the workload's start state several
times (setup_s is the median), then repeats passes over the workload's
commands, in an order shuffled by --seed, until --seconds have gone by.
Every child's stdout is checked against perfbench/expected.json with timing
fields stripped, and its exit code must be 0.

With --trace 0 the last stdout line reports the end-to-end metrics.  With
--trace 1 untraced passes alternate with traced ones (each command run
through perfbench/trace_cli.py), and the last line reports the per-layer
metrics.  perfbench/README.md defines every metric.

Scratch files (cache dirs, traces) go under .perfbench/ in the checkout;
each run appends its metrics, machine probes and versions to
.perfbench/runs.jsonl and writes its traced spans to
.perfbench/trace-<workload>.json.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"
EXPECTED = BENCH / "expected.json"

SETUP_REPEATS = 3
RUN_LIMIT_S = 170.0  # children are killed after this, so a run ends within 180 s

# The paper's rank-4 claims, scaled so that a cold pass takes seconds, not
# the 48 s of d = 23/41/47: cor22 at d = 23 (a nonzero class, so psi and
# the label search run), cor22 at d = 25 and thm21 at d = 35.
RANK4 = (
    ("verify", "cor22", "-t", "1", "-s", "2", "-u", "1"),
    ("verify", "cor22", "-t", "2", "-s", "1", "-u", "1"),
    ("verify", "thm21", "-t", "1", "-s", "1", "-u", "3"),
)
# Rank 5 without a cache: Sq row generation for cohit, and a lambda
# boundary of 45,539 words at (6, 37) for ext.
RANK5 = (
    ("cohit", "-n", "5", "-d", "21"),
    ("ext", "-s", "5", "-w", "38"),
)


@dataclass(frozen=True)
class Workload:
    commands: tuple[tuple[str, ...], ...]
    cache: str  # "fresh": a new empty cache dir per command; "warm": set-up fills one; "none"


WORKLOADS = {
    "rank4-cold": Workload(RANK4, "fresh"),
    "rank4-warm": Workload(RANK4, "warm"),
    "rank5-cold": Workload(RANK5, "none"),
}

_TIMING = re.compile(r"\(\d+ ms\)|\"timing_ms\": [0-9.eE+-]+,?")


def strip_timing(text: str) -> str:
    """Output with the timing fields (`(NNN ms)`, `timing_ms`) blanked."""
    return _TIMING.sub("(timing)", text)


def command_key(command: tuple[str, ...]) -> str:
    return " ".join(command)


@dataclass
class Outcome:
    key: str
    wall: float
    cpu: float
    rss_kib: int
    trace: dict | None
    cache: Path
    cache_bytes: int


@dataclass
class Runner:
    """Runs hitcalc children under one run's deadline and records failures."""

    work: Path
    expected: dict[str, str]
    deadline: float
    attempted: int = 0
    failures: list[str] = field(default_factory=list)

    def env(self, cache: Path) -> dict[str, str]:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        env["HITCALC_CACHE"] = str(cache)
        env["TMPDIR"] = str(self.work)
        env["PYTHONHASHSEED"] = "0"
        return env

    def spawn(self, argv: list[str], cache: Path) -> tuple[int, str, float, float, int]:
        """Run one child to completion: (exit code, stdout, wall s, cpu s, max RSS KiB)."""
        timeout = max(1.0, self.deadline - time.monotonic())
        with open(self.work / "stderr.txt", "ab") as err:
            start = time.monotonic()
            proc = subprocess.Popen(
                argv, stdout=subprocess.PIPE, stderr=err, cwd=self.work, env=self.env(cache)
            )
        done = threading.Event()
        killer = threading.Timer(timeout, lambda: done.is_set() or proc.kill())
        killer.start()
        try:
            out = proc.stdout.read()
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.monotonic() - start
        finally:
            done.set()
            killer.cancel()
            killer.join()
        proc.returncode = os.waitstatus_to_exitcode(status)
        return (
            proc.returncode,
            out.decode(errors="replace"),
            wall,
            usage.ru_utime + usage.ru_stime,
            usage.ru_maxrss,
        )

    def command(
        self, command: tuple[str, ...], cache: Path, use_cache: bool, traced: bool
    ) -> Outcome:
        key = command_key(command)
        flags = ["--cache-dir", str(cache)] if use_cache else ["--no-cache"]
        trace_file = self.work / "trace.json"
        if traced:
            argv = [sys.executable, str(BENCH / "trace_cli.py"), str(trace_file)]
        else:
            argv = [sys.executable, "-m", "hitcalc.cli"]
        spawned = time.monotonic()
        code, out, wall, cpu, rss = self.spawn(argv + flags + list(command), cache)
        self.attempted += 1
        if code != 0:
            self.failures.append(f"{key}: exit {code}")
        elif strip_timing(out) != self.expected.get(key):
            self.failures.append(f"{key}: output differs from expected.json")
        trace = None
        if traced and trace_file.exists():
            trace = json.loads(trace_file.read_text())
            trace_file.unlink()
            trace["startup_s"] = trace.pop("imported_monotonic") - spawned
        return Outcome(key, wall, cpu, rss, trace, cache, _tree_bytes(cache))


def _tree_bytes(path: Path) -> int:
    if not path.is_dir():
        return 0
    return sum(f.stat().st_size for f in path.rglob("*") if f.is_file())


def check_source(runner: Runner) -> float:
    """Time one interpreter start that imports hitcalc.cli from this checkout."""
    probe = "import hitcalc.cli; print(hitcalc.cli.__file__)"
    code, out, wall, _, _ = runner.spawn([sys.executable, "-c", probe], runner.work)
    where = Path(out.strip() or ".").resolve()
    if code != 0 or SRC.resolve() not in where.parents:
        raise SystemExit(f"hitcalc does not import from {SRC} (got {out.strip()!r}, exit {code})")
    return wall


def set_up(runner: Runner, workload: Workload, name: str) -> tuple[float, Path | None]:
    """One set-up: the import check, plus the cache fill for a warm workload."""
    start = time.monotonic()
    check_source(runner)
    if workload.cache != "warm":
        return time.monotonic() - start, None
    cache = runner.work / f"{name}-{time.monotonic_ns()}"
    cache.mkdir()
    for command in workload.commands:
        runner.command(command, cache, use_cache=True, traced=False)
    return time.monotonic() - start, cache


def run_pass(
    runner: Runner,
    workload: Workload,
    order: list[int],
    warm: Path | None,
    traced: bool,
    stop_at: float,
) -> list[Outcome]:
    """Run the commands in `order`; start none once `stop_at` has passed."""
    outcomes = []
    for i in order:
        if time.monotonic() >= min(stop_at, runner.deadline):
            break
        if workload.cache == "warm":
            cache = warm
        else:
            cache = runner.work / f"cache-{time.monotonic_ns()}"
            cache.mkdir()
        outcomes.append(
            runner.command(workload.commands[i], cache, workload.cache != "none", traced)
        )
        if workload.cache != "warm":
            shutil.rmtree(cache)
    return outcomes


def timed_passes(
    runner: Runner, workload: Workload, rng: random.Random, warm: Path | None, trace: bool, until: float
) -> tuple[list[list[Outcome]], list[list[Outcome]]]:
    """Untraced passes, and with `trace` traced ones alternating with them, until `until`.

    The first untraced pass and every traced pass run whole, so that each
    command has a timing and per-layer sums cover every command.  Later
    untraced passes stop at `until`, so a run overshoots it by at most one
    command.
    """
    plain: list[list[Outcome]] = []
    traced: list[list[Outcome]] = []
    while True:
        for passes, traced_pass in ((plain, False), (traced, True))[: 1 + trace]:
            order = list(range(len(workload.commands)))
            rng.shuffle(order)
            stop_at = until if plain and not traced_pass else runner.deadline
            passes.append(run_pass(runner, workload, order, warm, traced_pass, stop_at))
        if time.monotonic() >= min(until, runner.deadline):
            return plain, traced


def per_command(passes: list[list[Outcome]], attr: str) -> dict[str, list[float]]:
    """Each command's `attr` across passes, in the order the passes ran."""
    by_key: dict[str, list[float]] = {}
    for outcomes in passes:
        for o in outcomes:
            by_key.setdefault(o.key, []).append(getattr(o, attr))
    return by_key


def per_command_median(passes: list[list[Outcome]], attr: str) -> float:
    """Sum over commands of each command's median `attr` across passes."""
    return sum(statistics.median(v) for v in per_command(passes, attr).values())


# -- per-layer metrics from traced passes ------------------------------------------

def layer_metrics(outcomes: list[Outcome]) -> dict[str, float]:
    """Per-layer numbers of one traced pass (sums over its commands)."""
    calls: dict[str, float] = {}
    incl: dict[str, float] = {}
    self_s: dict[str, float] = {}
    counters: dict[str, float] = {}
    matrix = 0.0
    startup = 0.0
    cache_dirs: dict[Path, int] = {}
    for o in outcomes:
        cache_dirs[o.cache] = o.cache_bytes
        if o.trace is None:
            continue
        startup += o.trace["startup_s"]
        for name, (n, inclusive, own) in o.trace["totals"].items():
            calls[name] = calls.get(name, 0) + n
            incl[name] = incl.get(name, 0.0) + inclusive
            layer = name.split(".")[0]
            self_s[layer] = self_s.get(layer, 0.0) + own
        for key, value in o.trace["counters"].items():
            if key == "gf2.matrix_bytes":
                matrix = max(matrix, value)
            else:
                counters[key] = counters.get(key, 0) + value
    inserts = calls.get("gf2.insert", 0)
    mib = 1024.0 * 1024.0
    return {
        "gf2.insert.calls": inserts,
        "gf2.insert.useful_frac": counters.get("gf2.insert.useful", 0) / inserts if inserts else 0.0,
        "gf2.insert.s": incl.get("gf2.insert", 0.0),
        "gf2.kernel.s": incl.get("gf2.kernel", 0.0),
        "gf2.reduce.calls": calls.get("gf2.reduce", 0),
        "gf2.reduce.s": incl.get("gf2.reduce", 0.0),
        "gf2.matrix_mb": matrix / mib,
        "hit.basis.s": incl.get("hit.basis", 0.0),
        "hit.self_s": self_s.get("hit", 0.0),
        "homology.primitive.s": incl.get("homology.primitive", 0.0),
        "homology.self_s": self_s.get("homology", 0.0),
        "glrep.coinvariant.s": incl.get("glrep.coinvariant", 0.0),
        "glrep.self_s": self_s.get("glrep", 0.0),
        "lambda.boundary.s": incl.get("lambda.boundary", 0.0),
        "lambda.self_s": self_s.get("lambda", 0.0),
        "lambda.differential.calls": calls.get("lambda.differential", 0),
        "lambda.words": counters.get("lambda.words", 0),
        "transfer.psi.s": incl.get("transfer.psi", 0.0),
        "transfer.labels.s": incl.get("transfer.labels", 0.0),
        "store.load.s": incl.get("store.load", 0.0),
        "store.load_mb": counters.get("store.load_bytes", 0) / mib,
        "store.store.s": incl.get("store.store", 0.0),
        "store.store_mb": counters.get("store.store_bytes", 0) / mib,
        "store.self_s": self_s.get("store", 0.0),
        "store.hits": counters.get("store.hits", 0),
        "store.misses": counters.get("store.misses", 0),
        "store.rejects": counters.get("store.rejects", 0),
        "cache_mb": sum(cache_dirs.values()) / mib,
        "cli.startup_s": startup,
    }


# -- machine probes and provenance ------------------------------------------------


def probe(runner: Runner) -> dict:
    code, out, *_ = runner.spawn([sys.executable, str(BENCH / "probe.py")], runner.work)
    if code != 0:
        raise SystemExit(f"machine probe failed with exit {code}")
    return json.loads(out)


def provenance() -> dict:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    commit = None
    if (ROOT / ".git").exists() and shutil.which("git"):
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True
        )
        commit = done.stdout.strip() or None
    return {
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "commit": commit,
        "src_sha256": digest.hexdigest(),
    }


# -- the run ------------------------------------------------------------------------


def run(name: str, seed: int, seconds: int, trace: bool) -> dict:
    workload = WORKLOADS[name]
    started = time.monotonic()
    work = STATE / "work"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    runner = Runner(work, json.loads(EXPECTED.read_text()), started + RUN_LIMIT_S)
    rng = random.Random(seed)
    try:
        machine = probe(runner)
        setups = []
        warm = None
        for _ in range(SETUP_REPEATS):
            if warm is not None:
                shutil.rmtree(warm)
            seconds_taken, warm = set_up(runner, workload, name)
            setups.append(seconds_taken)
        plain, traced = timed_passes(
            runner, workload, rng, warm, trace, time.monotonic() + seconds
        )
    finally:
        log = work / "stderr.txt"
        stderr = log.read_text(errors="replace") if log.exists() else ""
        shutil.rmtree(work, ignore_errors=True)

    wall = per_command_median(plain, "wall")
    if trace:
        per_pass = [layer_metrics(p) for p in traced]
        metrics = {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}
        metrics["machine.membw_gbs"] = machine["membw_gbs"]
        metrics["machine.pyloop_s"] = machine["pyloop_s"]
        metrics["trace.overhead_frac"] = per_command_median(traced, "wall") / wall - 1.0
        spans = [
            {"command": o.key, "spans": o.trace["spans"]}
            for p in traced for o in p if o.trace is not None
        ]
        (STATE / f"trace-{name}.json").write_text(json.dumps({"seed": seed, "commands": spans}))
    else:
        metrics = {
            "wall_s": wall,
            "cpu_s": per_command_median(plain, "cpu"),
            "peak_rss_mb": max(o.rss_kib for p in plain for o in p) / 1024.0,
            "setup_s": statistics.median(setups),
        }
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "passes": [len(plain), len(traced)],
        "setup_s": setups,
        "wall_by_command": per_command(plain, "wall"),
        "cpu_by_command": per_command(plain, "cpu"),
        "machine": machine,
        **provenance(),
        "metrics": metrics,
        "failures": runner.failures,
    }
    with open(STATE / "runs.jsonl", "a") as fh:
        fh.write(json.dumps(record) + "\n")
    if runner.failures:
        print("\n".join(runner.failures) + "\n" + stderr[-4000:], file=sys.stderr)
    print(
        f"{name} seed={seed} passes={len(plain)}+{len(traced)} "
        f"membw={machine['membw_gbs']:.2f}GB/s pyloop={machine['pyloop_s']:.3f}s",
        file=sys.stderr,
    )
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in declared["per_layer" if trace else "end_to_end"]}
    return {
        "correct": not runner.failures,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "hitcalc" / "cli.py").is_file() or not (ROOT / "BENCHMARK.json").is_file():
        print(f"no hitcalc source under {SRC}, or no BENCHMARK.json", file=sys.stderr)
        return 2
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
