"""Compare the CLI outputs of two source trees of divisorlab.

    python3 tools/cli_diff.py OLD_SRC NEW_SRC

Runs each command of COMMANDS once with OLD_SRC and once with NEW_SRC on
PYTHONPATH, each into its own temporary directory, and compares every CSV and
JSON output with the runtime_s column (or key) dropped.  Manifests are left
out: they hold the code hash, the output path and times.  Exit status 0 when
every output matches byte for byte, 1 otherwise.
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
    "window --k 2 --X 1e10 --H 65536",
    "window --k 4 --X 1e11 --H 65536",
    "window --k 4 --X 1e6 --H 5000 --constants-Y 512",
    "moment --k 3 --X 1e5",
    "moment --k 4 --X 1e5",
    "moment --k 8 --X 1e5",
    "moment --k 8 --X 1e5 --constants-Y 256 --threads 2",
    "sieve --lo 999990000 --hi 1000000000",
    "count --plus 2 --minus 2 --ranges 1:40,1:40,1:40,1:40 --delta 1e-6",
    "constants",
    "constants --Y 256",
]


def _without_runtime(path: Path) -> str:
    if path.suffix == ".csv":
        rows = list(csv.reader(io.StringIO(path.read_text())))
        keep = [i for i, name in enumerate(rows[0]) if name != "runtime_s"]
        return "\n".join(",".join(row[i] for i in keep) for row in rows)

    def drop(value):
        if isinstance(value, dict):
            return {k: drop(v) for k, v in value.items() if k != "runtime_s"}
        if isinstance(value, list):
            return [drop(v) for v in value]
        return value

    return json.dumps(drop(json.loads(path.read_text())), sort_keys=True)


def _run(src: str, command: str, out: Path) -> None:
    env = dict(os.environ, PYTHONPATH=src)
    argv = [sys.executable, "-c", "import sys; from divisorlab.cli import main; sys.exit(main())",
            *command.split(), "--out", str(out)]
    subprocess.run(argv, env=env, check=True, stdout=subprocess.DEVNULL)


def main(old_src: str, new_src: str) -> int:
    status = 0
    with tempfile.TemporaryDirectory() as tmp:
        for n, command in enumerate(COMMANDS):
            outs = [Path(tmp, side, str(n)) for side in ("old", "new")]
            for src, out in zip((old_src, new_src), outs):
                _run(src, command, out)
            files = sorted(p.name for p in outs[0].iterdir()
                           if p.suffix in (".csv", ".json") and "manifest" not in p.name)
            same = [_without_runtime(outs[0] / f) == _without_runtime(outs[1] / f) for f in files]
            status |= not all(same)
            print(f"{'same' if all(same) else 'DIFFERENT'}: {command} ({', '.join(files)})")
    return status


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:3]))
