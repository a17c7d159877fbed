"""Command-line front end: parameter parsing, CSV/JSON output, run manifests.

Exit codes, set by one rule in main: 0 success, 1 when verify has a failing
criterion, 2 for every invalid argument (a ValueError from whichever layer
refuses it, integers beyond MAX_SIEVE_ARGUMENT included), 3 for every budget
refusal (BudgetExceededError).
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import json
import os
import platform
import sys
import tempfile
import time
from pathlib import Path
from typing import Iterable, Iterator, Sequence, TextIO

import mpmath
import numpy as np

from . import __version__
from .divisor import RangeOverflowError, build_divisor_table, delta_at, hyperbola_D
from .expsum import abs_S_grid, moment8_S
from .moments import WindowSpec, moment, window_moment
from .relations import (
    BudgetExceededError,
    RelationQuery,
    RelationSignature,
    min_gap,
    near_solution_count,
)
from .series import DEFAULT_CUTOFF, SIGNATURES, estimate_constant
from .voronoi import residual_at

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3


def _fmt(v) -> str:
    """Lossless text form: 17 significant digits for floats, '.' decimal."""
    if isinstance(v, float):
        return format(v, ".17g")
    return str(v)


def write_csv(path: Path, header: list[str], rows: Iterable[Sequence]) -> None:
    """Write a CSV with minimal quoting: a field is quoted only when it holds
    a comma, a quote or a line break, so numeric files are plain.  Each row
    is written as it comes, so rows may be an iterator that is never held."""
    with _atomic_open(path) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([_fmt(v) for v in row] for row in rows)


@contextlib.contextmanager
def _atomic_open(path: Path) -> Iterator[TextIO]:
    """A text file that replaces path once the block ends, or is removed if
    the block raises: a temporary file beside path."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name)
    try:
        with os.fdopen(fd, "w") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def code_version_hash() -> str:
    """Hash of the package source files, so manifests pin the exact code."""
    digest = hashlib.sha256()
    pkg = Path(__file__).parent
    for src in sorted(pkg.glob("*.py")):
        digest.update(src.name.encode())
        digest.update(src.read_bytes())
    return digest.hexdigest()[:16]


def _environment() -> dict:
    """Interpreter, library versions, the BLAS build and the C library, CPU
    count, thread and heap settings of this process: what a manifest needs to
    explain a timing without a rerun.  The glibc heap settings decide how
    often the moment kernel's fresh chunk arrays fault in new pages."""
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "blas": {key: blas.get(key) for key in ("name", "version", "openblas configuration")},
        "libc": (os.confstr("CS_GNU_LIBC_VERSION")
                 if "CS_GNU_LIBC_VERSION" in getattr(os, "confstr_names", {}) else None),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "mpmath": mpmath.__version__,
        "cpu_count": os.cpu_count(),
        "thread_env": {name: os.environ.get(name) for name in
                       ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")},
        "heap_env": {name: os.environ.get(name) for name in
                     ("MALLOC_ARENA_MAX", "MALLOC_MMAP_THRESHOLD_", "MALLOC_TRIM_THRESHOLD_")},
    }


def _sha256(path: Path) -> str:
    """The sha256 of a file, read a MiB at a time, so a long CSV is never held."""
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def write_manifest(path: Path, config: dict, outputs: list[Path], elapsed: float) -> None:
    """Write a run manifest; each of the outputs must exist, to be checksummed."""
    checksums = {out.name: _sha256(out) for out in outputs}
    manifest = {
        "tool": "divisorlab",
        "version": __version__,
        "code_hash": code_version_hash(),
        "config": config,
        "env": _environment(),
        "wall_time_s": round(elapsed, 3),
        "output_checksums": checksums,
    }
    with _atomic_open(path) as fh:
        fh.write(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def _parse_ranges(text: str) -> tuple[tuple[int, int], ...]:
    """'1:4,1:4,2:8' -> ((1,4),(1,4),(2,8)); an argparse type."""
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition(":")
        try:
            out.append((int(lo), int(hi)))
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected lo:hi, got {part!r}") from None
    return tuple(out)


def _thread_count(text: str) -> int:
    """'4' -> 4, refusing counts below 1; an argparse type."""
    threads = int(text)
    if threads < 1:
        raise argparse.ArgumentTypeError(f"need at least 1 thread, got {threads}")
    return threads


def _parse_names(text: str) -> list[str]:
    """'C2,C7' -> ['C2', 'C7'], each a key of series.SIGNATURES; an argparse type."""
    names = [name.strip() for name in text.split(",")]
    for name in names:
        if name not in SIGNATURES:
            raise argparse.ArgumentTypeError(
                f"unknown constant {name!r}; choose from {', '.join(SIGNATURES)}")
    return names


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="divisorlab",
        description="Numerical laboratory for the divisor summatory error term",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    parser.commands = sub.choices  # command -> its parser, whose defaults --config sets

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", type=Path, default=Path("divisorlab-out"),
                        help="output directory for CSV/JSON results")
    common.add_argument("--config", type=Path, default=None,
                        help="key=value file; explicit flags win")
    threaded = argparse.ArgumentParser(add_help=False, parents=[common])
    threaded.add_argument("--threads", type=_thread_count, default=1)

    p = sub.add_parser("sieve", parents=[common], help="exact divisor counts over a range")
    p.add_argument("--lo", type=int, required=True)
    p.add_argument("--hi", type=int, required=True)

    p = sub.add_parser("delta", parents=[common], help="D(x) and Delta(x) at a point")
    p.add_argument("--x", type=float, required=True)

    p = sub.add_parser("voronoi", parents=[common],
                       help="truncated expansion and residual at a point")
    p.add_argument("--x", type=float, required=True)
    p.add_argument("--Y", type=int, default=1000)

    p = sub.add_parser("count", parents=[common],
                       help="near-solution count of a square-root form")
    p.add_argument("--plus", type=int, required=True)
    p.add_argument("--minus", type=int, required=True)
    p.add_argument("--ranges", type=_parse_ranges, required=True,
                   help="lo:hi per variable, comma separated")
    p.add_argument("--delta", type=float, required=True)

    p = sub.add_parser("mingap", parents=[common], help="minimal nonzero form value over a box")
    p.add_argument("--plus", type=int, required=True)
    p.add_argument("--minus", type=int, required=True)
    p.add_argument("--Y", type=int, required=True)

    p = sub.add_parser("constants", parents=[common], help="partial sums of C1/C2/C4/C7")
    p.add_argument("--names", type=_parse_names, default=list(SIGNATURES),
                   help="comma separated, from C1,C2,C4,C7")
    p.add_argument("--Y", type=int, default=DEFAULT_CUTOFF)

    p = sub.add_parser("moment", parents=[threaded], help="integral of Delta**k over [2, X]")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--X", type=float, required=True)
    p.add_argument("--constants-Y", type=int, default=DEFAULT_CUTOFF,
                   help="cutoff for the constant estimates feeding the main term")

    p = sub.add_parser("window", parents=[threaded], help="short-interval moment over [X, X+H]")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--X", type=float, required=True)
    p.add_argument("--H", type=float, required=True)
    p.add_argument("--constants-Y", type=int, default=DEFAULT_CUTOFF)

    p = sub.add_parser("expsum", parents=[common], help="exponential sum and its eighth moment")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--rootk", type=int, default=2)
    p.add_argument("--U", type=float, required=True)
    p.add_argument("--samples", type=int, default=64)

    p = sub.add_parser("verify", parents=[threaded], help="run the full acceptance suite")
    p.add_argument("--quick", action="store_true",
                   help="reduced scales; smoke test rather than the full gate")

    return parser


def _sieve(args):
    if not 1 <= args.lo <= args.hi:
        raise ValueError(f"need 1 <= lo <= hi, got lo={args.lo}, hi={args.hi}")
    # one sieve gives both columns: d, and D seeded with D(lo - 1) (D(0) = 0)
    d = build_divisor_table(args.lo, args.hi)
    D = np.cumsum(d, dtype=np.int64)
    D += hyperbola_D(args.lo - 1) if args.lo > 1 else 0
    # an iterator over the arrays, so no row is held past its write
    rows = zip(range(args.lo, args.hi + 1), d, D)
    return ({"sieve.csv": (["n", "d", "D"], rows)},
            f"wrote {args.out / 'sieve.csv'} ({args.hi - args.lo + 1} rows)", EXIT_OK)


def _delta(args):
    s = delta_at(args.x)
    return ({"delta.csv": (["x", "D", "delta"], [[s.x, s.D, s.delta]])},
            f"x={_fmt(s.x)} D={s.D} Delta={_fmt(s.delta)}", EXIT_OK)


def _voronoi(args):
    r = residual_at(args.x, args.Y)
    return ({"voronoi.csv": (["x", "Y", "truncated_sum", "residual"],
                             [[args.x, args.Y, r.truncated_sum, r.value]])},
            f"x={_fmt(args.x)} Y={args.Y} sum={_fmt(r.truncated_sum)} residual={_fmt(r.value)}",
            EXIT_OK)


def _count(args):
    sig = RelationSignature(args.plus, args.minus)
    query = RelationQuery(signature=sig, ranges=args.ranges, delta=args.delta)
    rc = near_solution_count(query)
    Y = max(hi for _, hi in query.ranges)
    const = rc.min_nonzero_gap * Y ** sig.gap_exponent
    header = ["plus", "minus"]
    row: list = [args.plus, args.minus]
    for i, (lo, hi) in enumerate(query.ranges):
        header += [f"lo{i}", f"hi{i}"]
        row += [lo, hi]
    header += ["delta", "count", "min_nonzero_gap", "empirical_constant"]
    row += [args.delta, rc.count, rc.min_nonzero_gap, const]
    return ({"count.csv": (header, [row])},
            f"count={rc.count} min_gap={_fmt(rc.min_nonzero_gap)}", EXIT_OK)


def _mingap(args):
    gap, witness, const = min_gap(RelationSignature(args.plus, args.minus), args.Y)
    row = [args.plus, args.minus, args.Y, gap, const, " ".join(map(str, witness[0] + witness[1]))]
    return ({"mingap.csv": (["plus", "minus", "Y", "gap", "empirical_constant", "witness"],
                            [row])},
            f"gap={_fmt(gap)} constant={_fmt(const)} witness={witness}", EXIT_OK)


def _constants(args):
    ests = [estimate_constant(name, args.Y) for name in args.names]
    results = [{"name": name, "Y": est.Y, "partial_sum": est.partial_sum,
                "tail_indicator": est.tail_indicator, "estimate": est.estimate,
                "estimate_tail": est.estimate_tail}
               for name, est in zip(args.names, ests)]
    return ({"constants.json": json.dumps(results, indent=2) + "\n"},
            "\n".join(f"{name}: partial={_fmt(est.partial_sum)} estimate={_fmt(est.estimate)}"
                      for name, est in zip(args.names, ests)),
            EXIT_OK)


def _moment(args):
    """The moment and window commands: one moment with its main term."""
    t0 = time.perf_counter()
    if args.command == "window":
        r = window_moment(WindowSpec(X=args.X, H=args.H), args.k, args.constants_Y,
                          threads=args.threads)
    else:
        r = moment(args.k, args.X, args.constants_Y, threads=args.threads)
    row = [r.exponent, r.lo, r.hi, r.integral, r.main_term, r.relative_deviation,
           args.constants_Y, time.perf_counter() - t0]
    return ({f"{args.command}.csv": (["exponent", "lo", "hi", "integral", "main_term",
                                      "relative_deviation", "constants_cutoff_Y", "runtime_s"],
                                     [row])},
            f"integral={_fmt(r.integral)} main={_fmt(r.main_term)} "
            f"rel_dev={_fmt(r.relative_deviation)}",
            EXIT_OK)


def _expsum(args):
    integral, ratio = moment8_S(args.U, args.N, args.rootk, args.samples)
    xs = np.linspace(args.U, 2 * args.U, min(args.samples, 256))
    grid = list(zip(xs.tolist(), abs_S_grid(xs, args.N, args.rootk).tolist()))
    return ({"expsum_grid.csv": (["x", "abs_S"], grid),
             "expsum_moment.csv": (["U", "N", "rootk", "integral", "bound_ratio"],
                                   [[args.U, args.N, args.rootk, integral, ratio]])},
            f"integral={_fmt(integral)} bound_ratio={_fmt(ratio)}", EXIT_OK)


def _verify(args):
    from .acceptance import run_acceptance  # the battery's imports stay off other commands

    results = run_acceptance(quick=args.quick, threads=args.threads)
    passed = sum(r.passed for r, _ in results)
    return ({"acceptance.csv": (["criterion", "name", "passed", "detail", "seconds"],
                                [[r.index, r.name, int(r.passed), r.detail, f"{seconds:.3f}"]
                                 for r, seconds in results])},
            f"acceptance: {passed}/{len(results)} criteria passed",
            EXIT_OK if passed == len(results) else EXIT_FAILED)


_COMMANDS = {"sieve": _sieve, "delta": _delta, "voronoi": _voronoi, "count": _count,
             "mingap": _mingap, "constants": _constants, "moment": _moment, "window": _moment,
             "expsum": _expsum, "verify": _verify}


def _run(args) -> int:
    """Run args.command and write, checksum and report what it returns.

    Each command takes the parsed arguments and returns its outputs (file name
    -> (header, rows) for a CSV, or the text of a JSON file), its summary for
    stdout and its exit status.  The manifest's wall time covers the command
    and the writes of its outputs."""
    t0 = time.perf_counter()
    outputs, summary, status = _COMMANDS[args.command](args)
    paths = []
    for name, content in outputs.items():
        path = args.out / name
        if isinstance(content, str):
            with _atomic_open(path) as fh:
                fh.write(content)
        else:
            write_csv(path, *content)
        paths.append(path)
    config = {key: str(val) if isinstance(val, Path) else val
              for key, val in vars(args).items() if key != "command"}
    write_manifest(args.out / f"{args.command}.manifest.json", config, paths,
                   time.perf_counter() - t0)
    print(summary)
    return status


def _read_config(path: Path, args: argparse.Namespace, parser: argparse.ArgumentParser) -> dict:
    """key=value pairs of a --config file, each a flag of args.command."""
    values = {}
    for line in path.read_text().splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key == "command" or not hasattr(args, key):
            parser.error(f"unknown config key: {key!r}")
        if isinstance(getattr(args, key), bool):  # store_true flags
            value = value.lower() in ("1", "true", "yes")
        values[key] = value
    return values


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.config:
        # config values become the command's defaults: argparse converts each
        # by its flag's type, and any flag given explicitly still wins
        parser.commands[args.command].set_defaults(**_read_config(args.config, args, parser))
        args = parser.parse_args(argv)
    try:
        return _run(args)
    except BudgetExceededError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except RangeOverflowError as exc:
        print(f"out of range: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:  # every invalid argument, whichever layer refuses it
        print(f"bad arguments: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
