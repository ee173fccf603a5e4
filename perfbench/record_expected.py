"""Record the reference output of every benchmark command into expected.json.

Usage: python3 perfbench/record_expected.py

Each command runs once against a fresh empty cache dir (or with --no-cache
for a workload that uses none) and once more against the cache it filled;
both runs must exit 0 and print the same output once timing fields are
stripped.  Run it only on a commit whose outputs are known to be right.
"""

from __future__ import annotations

import json
import shutil
import sys
import time

from run import EXPECTED, STATE, WORKLOADS, Runner, command_key, strip_timing


def main() -> int:
    work = STATE / "record"
    work.mkdir(parents=True, exist_ok=True)
    runner = Runner(work, {}, time.monotonic() + 3600)
    expected: dict[str, str] = {}
    for workload in WORKLOADS.values():
        for command in workload.commands:
            key = command_key(command)
            if key in expected:
                continue
            cache = work / f"cache-{len(expected)}-{workload.cache}"
            cache.mkdir()
            flags = ["--no-cache"] if workload.cache == "none" else ["--cache-dir", str(cache)]
            argv = [sys.executable, "-m", "hitcalc.cli", *flags, *command]
            outputs = []
            for _ in range(2):
                code, out, *_ = runner.spawn(argv, cache)
                if code != 0:
                    raise SystemExit(f"{key}: exit {code}")
                outputs.append(strip_timing(out))
            if outputs[0] != outputs[1]:
                raise SystemExit(f"{key}: cold and warm outputs differ")
            expected[key] = outputs[0]
            print(key, outputs[0], sep="\n", end="")
    shutil.rmtree(work)
    EXPECTED.write_text(json.dumps(expected, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
