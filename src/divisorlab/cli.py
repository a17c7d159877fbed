"""Command-line front end: parameter parsing, CSV/JSON output, run manifests.

Exit codes, set by one rule in main: 0 success, 2 for every invalid argument
(a ValueError from whichever layer refuses it, integers beyond
MAX_SIEVE_ARGUMENT included), 3 for every budget refusal (BudgetExceededError).
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import os
import platform
import sys
import tempfile
import time
from pathlib import Path

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
from .series import DEFAULT_CUTOFFS, estimate_constant
from .voronoi import residual_at, residual_mean_square, truncated_sum

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_BUDGET = 3


def _fmt(v) -> str:
    """Lossless text form: 17 significant digits for floats, '.' decimal."""
    if isinstance(v, float):
        return format(v, ".17g")
    return str(v)


def write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    """Write a CSV with minimal quoting: a field is quoted only when it holds
    a comma, a quote or a line break, so numeric files are plain."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([_fmt(v) for v in row] for row in rows)
    _atomic_write(path, buf.getvalue())


def _atomic_write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name)
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
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
    """Interpreter, library versions, CPU count and thread settings of this
    process: what a manifest needs to explain a timing without a rerun."""
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "mpmath": mpmath.__version__,
        "cpu_count": os.cpu_count(),
        "thread_env": {name: os.environ.get(name) for name in
                       ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "DIVISORLAB_THREADS")},
    }


def write_manifest(path: Path, config: dict, outputs: list[Path], elapsed: float) -> None:
    checksums = {}
    for out in outputs:
        if out.exists():
            checksums[out.name] = hashlib.sha256(out.read_bytes()).hexdigest()
    manifest = {
        "tool": "divisorlab",
        "version": __version__,
        "code_hash": code_version_hash(),
        "config": config,
        "env": _environment(),
        "wall_time_s": round(elapsed, 3),
        "output_checksums": checksums,
    }
    _atomic_write(path, json.dumps(manifest, indent=2, sort_keys=True) + "\n")


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


def _parse_names(text: str) -> list[str]:
    """'C2,C7' -> ['C2', 'C7'], each a key of DEFAULT_CUTOFFS; an argparse type."""
    names = [name.strip() for name in text.split(",")]
    for name in names:
        if name not in DEFAULT_CUTOFFS:
            raise argparse.ArgumentTypeError(
                f"unknown constant {name!r}; choose from {', '.join(DEFAULT_CUTOFFS)}")
    return names


def _apply_config_file(args: argparse.Namespace, parser: argparse.ArgumentParser) -> None:
    """Overlay key=value pairs from --config; explicit flags win.  Each value
    is converted by its flag's own argparse type."""
    if not getattr(args, "config", None):
        return
    actions = {a.dest: a for a in parser._actions}
    for action in parser._actions:
        if isinstance(getattr(action, "choices", None), dict):
            subparser = action.choices.get(args.command)
            if subparser is not None:
                actions.update({a.dest: a for a in subparser._actions})
    for line in Path(args.config).read_text().splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not hasattr(args, key):
            parser.error(f"unknown config key: {key!r}")
        action = actions[key]
        if getattr(args, key) != action.default:  # flag given explicitly
            continue
        if isinstance(action.default, bool):  # store_true flags
            setattr(args, key, value.lower() in ("1", "true", "yes"))
            continue
        try:
            setattr(args, key, action.type(value) if action.type else value)
        except (ValueError, argparse.ArgumentTypeError) as exc:
            parser.error(f"config key {key!r}: {exc}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="divisorlab",
        description="Numerical laboratory for the divisor summatory error term",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out", type=Path, default=Path("divisorlab-out"),
                       help="output directory for CSV/JSON results")
        p.add_argument("--threads", type=int, default=int(os.environ.get("DIVISORLAB_THREADS", "1")))
        p.add_argument("--config", type=Path, default=None,
                       help="key=value file; explicit flags win")

    p = sub.add_parser("sieve", help="exact divisor counts over a range")
    p.add_argument("--lo", type=int, required=True)
    p.add_argument("--hi", type=int, required=True)
    common(p)

    p = sub.add_parser("delta", help="D(x) and Delta(x) at a point")
    p.add_argument("--x", type=float, required=True)
    common(p)

    p = sub.add_parser("voronoi", help="truncated expansion and residual at a point")
    p.add_argument("--x", type=float, required=True)
    p.add_argument("--Y", type=int, default=1000)
    common(p)

    p = sub.add_parser("count", help="near-solution count of a square-root form")
    p.add_argument("--plus", type=int, required=True)
    p.add_argument("--minus", type=int, required=True)
    p.add_argument("--ranges", type=_parse_ranges, required=True,
                   help="lo:hi per variable, comma separated")
    p.add_argument("--delta", type=float, required=True)
    common(p)

    p = sub.add_parser("mingap", help="minimal nonzero form value over a box")
    p.add_argument("--plus", type=int, required=True)
    p.add_argument("--minus", type=int, required=True)
    p.add_argument("--Y", type=int, required=True)
    common(p)

    p = sub.add_parser("constants", help="partial sums of C1/C2/C4/C7")
    p.add_argument("--names", type=_parse_names, default=list(DEFAULT_CUTOFFS),
                   help="comma separated, from C1,C2,C4,C7")
    p.add_argument("--Y", type=int, default=256)
    common(p)

    p = sub.add_parser("moment", help="integral of Delta**k over [2, X]")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--X", type=float, required=True)
    p.add_argument("--constants-Y", type=int, default=256,
                   help="cutoff for the constant estimates feeding the main term")
    common(p)

    p = sub.add_parser("window", help="short-interval moment over [X, X+H]")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--X", type=float, required=True)
    p.add_argument("--H", type=float, required=True)
    p.add_argument("--constants-Y", type=int, default=256)
    common(p)

    p = sub.add_parser("expsum", help="exponential sum and its eighth moment")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--rootk", type=int, default=2)
    p.add_argument("--U", type=float, required=True)
    p.add_argument("--samples", type=int, default=64)
    common(p)

    p = sub.add_parser("verify", help="run the full acceptance suite")
    p.add_argument("--quick", action="store_true",
                   help="reduced scales; smoke test rather than the full gate")
    common(p)

    return parser


def _cmd_sieve(args) -> int:
    t0 = time.perf_counter()
    table = build_divisor_table(args.lo, args.hi)
    D = np.cumsum(table.values, dtype=np.int64)
    D += hyperbola_D(args.lo - 1) if args.lo > 1 else 0
    rows = list(zip(range(args.lo, args.hi + 1), table.values.tolist(), D.tolist()))
    out = args.out / "sieve.csv"
    write_csv(out, ["n", "d", "D"], rows)
    write_manifest(args.out / "sieve.manifest.json", vars_config(args), [out],
                   time.perf_counter() - t0)
    print(f"wrote {out} ({len(rows)} rows)")
    return EXIT_OK


def vars_config(args) -> dict:
    cfg = {}
    for key, val in vars(args).items():
        if key in ("command",):
            continue
        cfg[key] = str(val) if isinstance(val, Path) else val
    return cfg


def _cmd_delta(args) -> int:
    t0 = time.perf_counter()
    s = delta_at(args.x)
    print(f"x={_fmt(s.x)} D={s.D} Delta={_fmt(s.delta)}")
    out = args.out / "delta.csv"
    write_csv(out, ["x", "D", "delta"], [[s.x, s.D, s.delta]])
    write_manifest(args.out / "delta.manifest.json", vars_config(args), [out],
                   time.perf_counter() - t0)
    return EXIT_OK


def _cmd_voronoi(args) -> int:
    t0 = time.perf_counter()
    ts = truncated_sum(args.x, args.Y)
    res = residual_at(args.x, args.Y)
    print(f"x={_fmt(args.x)} Y={args.Y} sum={_fmt(ts.value)} residual={_fmt(res.value)}")
    out = args.out / "voronoi.csv"
    write_csv(out, ["x", "Y", "truncated_sum", "residual"],
              [[args.x, args.Y, ts.value, res.value]])
    write_manifest(args.out / "voronoi.manifest.json", vars_config(args), [out],
                   time.perf_counter() - t0)
    return EXIT_OK


def _cmd_count(args) -> int:
    t0 = time.perf_counter()
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
    out = args.out / "count.csv"
    write_csv(out, header, [row])
    write_manifest(args.out / "count.manifest.json", vars_config(args), [out],
                   time.perf_counter() - t0)
    print(f"count={rc.count} min_gap={_fmt(rc.min_nonzero_gap)}")
    return EXIT_OK


def _cmd_mingap(args) -> int:
    t0 = time.perf_counter()
    gap, witness, const = min_gap(RelationSignature(args.plus, args.minus), args.Y)
    out = args.out / "mingap.csv"
    write_csv(out, ["plus", "minus", "Y", "gap", "empirical_constant", "witness"],
              [[args.plus, args.minus, args.Y, gap, const, " ".join(map(str, witness[0] + witness[1]))]])
    write_manifest(args.out / "mingap.manifest.json", vars_config(args), [out],
                   time.perf_counter() - t0)
    print(f"gap={_fmt(gap)} constant={_fmt(const)} witness={witness}")
    return EXIT_OK


def _cmd_constants(args) -> int:
    t0 = time.perf_counter()
    results = []
    for name in args.names:
        est = estimate_constant(name, args.Y)
        results.append({
            "name": name,
            "Y": est.Y,
            "partial_sum": est.partial_sum,
            "extrapolated": est.estimate,
            "tail_indicator": est.tail_indicator,
        })
        print(f"{name}: partial={_fmt(est.partial_sum)} extrapolated={_fmt(est.estimate)}")
    out = args.out / "constants.json"
    _atomic_write(out, json.dumps(results, indent=2) + "\n")
    write_manifest(args.out / "constants.manifest.json", vars_config(args), [out],
                   time.perf_counter() - t0)
    return EXIT_OK


def _cmd_moment(args) -> int:
    """The moment and window subcommands: one moment with its main term,
    written to <command>.csv."""
    t0 = time.perf_counter()
    if args.command == "window":
        r = window_moment(WindowSpec(X=args.X, H=args.H), args.k, args.constants_Y,
                          threads=args.threads)
    else:
        r = moment(args.k, args.X, args.constants_Y, threads=args.threads)
    elapsed = time.perf_counter() - t0
    out = args.out / f"{args.command}.csv"
    write_csv(out,
              ["exponent", "lo", "hi", "integral", "main_term", "relative_deviation",
               "constants_cutoff_Y", "runtime_s"],
              [[r.exponent, r.lo, r.hi, r.integral, r.main_term, r.relative_deviation,
                args.constants_Y, elapsed]])
    write_manifest(args.out / f"{args.command}.manifest.json", vars_config(args), [out], elapsed)
    print(f"integral={_fmt(r.integral)} main={_fmt(r.main_term)} rel_dev={_fmt(r.relative_deviation)}")
    return EXIT_OK


def _cmd_expsum(args) -> int:
    t0 = time.perf_counter()
    integral, ratio = moment8_S(args.U, args.N, args.rootk, args.samples)
    xs = np.linspace(args.U, 2 * args.U, min(args.samples, 256))
    rows = list(zip(xs.tolist(), abs_S_grid(xs, args.N, args.rootk).tolist()))
    out_grid = args.out / "expsum_grid.csv"
    write_csv(out_grid, ["x", "abs_S"], rows)
    out_sum = args.out / "expsum_moment.csv"
    write_csv(out_sum, ["U", "N", "rootk", "integral", "bound_ratio"],
              [[args.U, args.N, args.rootk, integral, ratio]])
    write_manifest(args.out / "expsum.manifest.json", vars_config(args),
                   [out_grid, out_sum], time.perf_counter() - t0)
    print(f"integral={_fmt(integral)} bound_ratio={_fmt(ratio)}")
    return EXIT_OK


def _cmd_verify(args) -> int:
    from .acceptance import run_acceptance

    ok = run_acceptance(quick=args.quick, threads=args.threads, out_dir=args.out)
    return EXIT_OK if ok else 1


_COMMANDS = {
    "sieve": _cmd_sieve,
    "delta": _cmd_delta,
    "voronoi": _cmd_voronoi,
    "count": _cmd_count,
    "mingap": _cmd_mingap,
    "constants": _cmd_constants,
    "moment": _cmd_moment,
    "window": _cmd_moment,
    "expsum": _cmd_expsum,
    "verify": _cmd_verify,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    _apply_config_file(args, parser)
    try:
        return _COMMANDS[args.command](args)
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
