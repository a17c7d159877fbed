"""Compare the CLI outputs of two source trees of divisorlab.

    python3 tools/cli_diff.py OLD_SRC NEW_SRC

Runs each command of COMMANDS once with OLD_SRC and once with NEW_SRC on
PYTHONPATH, each into its own temporary directory, and compares every CSV and
JSON output with its timings dropped: a column or key named in TIMINGS.
Manifests are left out: they hold the code hash, the output path and times.
Exit status 0 when every output matches byte for byte, 1 otherwise.
"""

from __future__ import annotations

import csv
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

COMMANDS = [
    "delta --x 1000000",
    "delta --x 1000000000000.25",
    "voronoi --x 12345.5 --Y 1000",
    "voronoi --x 1000000000.5 --Y 2000",
    "window --k 2 --X 1e10 --H 65536",
    "window --k 4 --X 1e11 --H 65536",
    "window --k 4 --X 1e6 --H 5000 --constants-Y 512",
    "window --k 2 --X 100000000000 --H 1",
    "moment --k 3 --X 1e5",
    "moment --k 4 --X 1e5",
    "moment --k 8 --X 1e5",
    "moment --k 8 --X 1e5 --constants-Y 256 --threads 2",
    "moment --k 8 --X 3e6 --threads 2",
    "sieve --lo 999990000 --hi 1000000000",
    "sieve --lo 1 --hi 600000",
    "sieve --lo 1000000000000 --hi 1000000065535",
    "sieve --lo 20000000000 --hi 20000004095",
    "sieve --lo 4503599627366401 --hi 4503599627370496",
    "count --plus 2 --minus 2 --ranges 1:40,1:40,1:40,1:40 --delta 1e-6",
    "count --plus 3 --minus 2 --ranges 1:9,2:11,1:9,3:12,3:12 --delta 0.05",
    "mingap --plus 2 --minus 2 --Y 50",
    "mingap --plus 4 --minus 4 --Y 12",
    "mingap --plus 4 --minus 4 --Y 24",
    "constants",
    "constants --Y 256",
    "expsum --N 128 --U 16384",
    "expsum --N 64 --rootk 3 --U 4096 --samples 256",
    "verify --quick",
]

# the columns or keys that hold wall seconds
TIMINGS = {"runtime_s", "seconds"}


def _without_timings(path: Path) -> str:
    if path.suffix == ".csv":
        rows = list(csv.reader(io.StringIO(path.read_text())))
        keep = [i for i, name in enumerate(rows[0]) if name not in TIMINGS]
        return "\n".join(",".join(row[i] for i in keep) for row in rows)

    def drop(value):
        if isinstance(value, dict):
            return {k: drop(v) for k, v in value.items() if k not in TIMINGS}
        if isinstance(value, list):
            return [drop(v) for v in value]
        return value

    return json.dumps(drop(json.loads(path.read_text())), sort_keys=True)


def _run(src: str, command: str, out: Path) -> None:
    env = dict(os.environ, PYTHONPATH=src)
    argv = [sys.executable, "-c", "import sys; from divisorlab.cli import main; sys.exit(main())",
            *command.split(), "--out", str(out)]
    # verify exits 1 while criteria fail; its acceptance.csv is still compared
    subprocess.run(argv, env=env, check=command.split()[0] != "verify",
                   stdout=subprocess.DEVNULL)


def main(old_src: str, new_src: str) -> int:
    status = 0
    with tempfile.TemporaryDirectory() as tmp:
        for n, command in enumerate(COMMANDS):
            outs = [Path(tmp, side, str(n)) for side in ("old", "new")]
            for src, out in zip((old_src, new_src), outs):
                _run(src, command, out)
            files = sorted(p.name for p in outs[0].iterdir()
                           if p.suffix in (".csv", ".json") and "manifest" not in p.name)
            same = [_without_timings(outs[0] / f) == _without_timings(outs[1] / f) for f in files]
            status |= not all(same)
            print(f"{'same' if all(same) else 'DIFFERENT'}: {command} ({', '.join(files)})")
    return status


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:3]))
