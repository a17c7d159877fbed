import csv
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest

from divisorlab import moment, series, voronoi
from divisorlab.cli import _fmt, _read_config, build_parser, main
from divisorlab.divisor import hyperbola_D
from oracles import d_trial_division


def test_fmt_17_significant_digits():
    assert _fmt(math.pi) == "3.1415926535897931"
    assert _fmt(0.1) == "0.10000000000000001"
    assert _fmt(42) == "42"


def test_parser_rejects_unknown_command(capsys):
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(["frobnicate"])
    assert exc.value.code == 2


def test_delta_subcommand(tmp_path, capsys):
    rc = main(["delta", "--x", "100", "--out", str(tmp_path)])
    assert rc == 0
    lines = (tmp_path / "delta.csv").read_text().splitlines()
    assert lines[0] == "x,D,delta"
    x, D, delta = lines[1].split(",")
    assert D == "482"
    assert abs(float(delta) - 6.0399) < 1e-3
    manifest = json.loads((tmp_path / "delta.manifest.json").read_text())
    assert manifest["tool"] == "divisorlab"
    assert "delta.csv" in manifest["output_checksums"]
    assert manifest["config"]["x"] == 100.0
    env = manifest["env"]
    assert set(env) == {"python", "numpy", "mpmath", "blas", "libc", "cpu_count", "thread_env",
                        "heap_env"}
    assert env["numpy"] == np.__version__ and env["mpmath"] == mpmath.__version__
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    assert env["blas"] == {key: blas.get(key) for key in ("name", "version", "openblas configuration")}
    if "CS_GNU_LIBC_VERSION" in getattr(os, "confstr_names", {}):
        assert env["libc"] == os.confstr("CS_GNU_LIBC_VERSION")
    else:
        assert env["libc"] is None
    assert env["cpu_count"] == os.cpu_count()
    assert set(env["thread_env"]) == {"OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS"}
    assert set(env["heap_env"]) == {"MALLOC_ARENA_MAX", "MALLOC_MMAP_THRESHOLD_",
                                    "MALLOC_TRIM_THRESHOLD_"}


def test_sieve_subcommand(tmp_path):
    rc = main(["sieve", "--lo", "10", "--hi", "20", "--out", str(tmp_path)])
    assert rc == 0
    rows = (tmp_path / "sieve.csv").read_text().splitlines()
    assert rows[0] == "n,d,D"
    last = rows[-1].split(",")
    assert last == ["20", "6", str(hyperbola_D(20))]
    assert rows[1:] == [f"{n},{d_trial_division(n)},{hyperbola_D(n)}" for n in range(10, 21)]


def test_out_of_range_exit_code(tmp_path, capsys):
    # 1e30 has no int64 form, so it must be refused before any conversion
    for x in ("1e17", "1e30"):
        assert main(["delta", "--x", x, "--out", str(tmp_path)]) == 2
        assert "out of range" in capsys.readouterr().err


def test_count_subcommand(tmp_path):
    rc = main(["count", "--plus", "2", "--minus", "2",
               "--ranges", "1:9,1:9,1:9,1:9", "--delta", "0.05",
               "--out", str(tmp_path)])
    assert rc == 0
    header, row = (tmp_path / "count.csv").read_text().splitlines()
    assert "min_nonzero_gap" in header
    assert int(dict(zip(header.split(","), row.split(",")))["count"]) > 0


def test_count_budget_exit_code(tmp_path):
    rc = main(["count", "--plus", "2", "--minus", "2",
               "--ranges", "1:100000,1:100000,1:100000,1:100000",
               "--delta", "0.05", "--out", str(tmp_path)])
    assert rc == 3


def test_mingap_subcommand(tmp_path):
    rc = main(["mingap", "--plus", "2", "--minus", "2", "--Y", "10",
               "--out", str(tmp_path)])
    assert rc == 0
    header, row = (tmp_path / "mingap.csv").read_text().splitlines()
    vals = dict(zip(header.split(","), row.split(",")))
    assert float(vals["gap"]) > 0
    assert len(vals["witness"].split()) == 4


def test_constants_subcommand(tmp_path, capsys):
    rc = main(["constants", "--names", "C2,C7", "--Y", "64", "--out", str(tmp_path)])
    assert rc == 0
    data = json.loads((tmp_path / "constants.json").read_text())
    assert [d["name"] for d in data] == ["C2", "C7"]
    assert all(set(d) == {"name", "Y", "partial_sum", "tail_indicator", "estimate",
                          "estimate_tail"} for d in data)
    assert all(d["estimate"] >= d["partial_sum"] > 0 for d in data)
    assert all(d["Y"] == 64 for d in data)
    summary = capsys.readouterr().out
    assert "C7: partial=" in summary and " estimate=" in summary
    assert "extrapolated" not in summary


def test_constants_unknown_name_exit_code(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["constants", "--names", "C2,C3", "--Y", "8", "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert "unknown constant 'C3'" in capsys.readouterr().err
    assert not (tmp_path / "constants.json").exists()


def test_window_k2_estimates_no_constant(tmp_path, monkeypatch):
    asked = []
    monkeypatch.setattr(series, "_sums", lambda *a: asked.append(a))
    rc = main(["window", "--k", "2", "--X", "1e6", "--H", "5000", "--out", str(tmp_path)])
    assert rc == 0
    assert asked == []
    header, row = (tmp_path / "window.csv").read_text().splitlines()
    vals = dict(zip(header.split(","), row.split(",")))
    assert (vals["lo"], vals["hi"], vals["constants_cutoff_Y"]) == ("1000000", "1005000", "1024")


def test_moment_subcommand_main_term_is_the_library_default(tmp_path):
    rc = main(["moment", "--k", "4", "--X", "20000", "--out", str(tmp_path)])
    assert rc == 0
    header, row = (tmp_path / "moment.csv").read_text().splitlines()
    vals = dict(zip(header.split(","), row.split(",")))
    assert vals["main_term"] == _fmt(moment(4, 20000.0).main_term)
    assert vals["constants_cutoff_Y"] == str(series.DEFAULT_CUTOFF)


def test_moment_subcommand(tmp_path):
    rc = main(["moment", "--k", "2", "--X", "20000", "--constants-Y", "64",
               "--out", str(tmp_path)])
    assert rc == 0
    header, row = (tmp_path / "moment.csv").read_text().splitlines()
    vals = dict(zip(header.split(","), row.split(",")))
    assert vals["constants_cutoff_Y"] == "64"
    assert abs(float(vals["relative_deviation"])) < 0.2


def test_expsum_subcommand(tmp_path):
    rc = main(["expsum", "--N", "16", "--U", "16", "--out", str(tmp_path)])
    assert rc == 0
    moment_rows = (tmp_path / "expsum_moment.csv").read_text().splitlines()
    assert moment_rows[0] == "U,N,rootk,integral,bound_ratio"
    grid = (tmp_path / "expsum_grid.csv").read_text().splitlines()
    assert grid[0] == "x,abs_S"
    assert all(0 <= float(r.split(",")[1]) <= 16.0 + 1e-9 for r in grid[1:])


@pytest.mark.parametrize("argv", [
    ["--N", "16", "--U", "nan"],
    ["--N", "16", "--U", "inf"],
    ["--N", "0", "--U", "16"],
    ["--N", "1", "--U", "16"],
    ["--N", "16", "--U", "16", "--rootk", "1"],
    ["--N", "16", "--U", "16", "--samples", "8"],
    ["--N", "16", "--U", "16", "--rootk", "0"],
])
def test_bad_expsum_arguments_exit_code(tmp_path, capsys, argv):
    assert main(["expsum", *argv, "--out", str(tmp_path)]) == 2
    assert "bad arguments" in capsys.readouterr().err
    assert not (tmp_path / "expsum_moment.csv").exists()


def test_expsum_budget_exit_code(tmp_path, capsys):
    assert main(["expsum", "--N", "16", "--U", "1e20", "--out", str(tmp_path)]) == 3
    assert "budget exceeded" in capsys.readouterr().err
    assert not (tmp_path / "expsum_moment.csv").exists()


@pytest.mark.parametrize("argv, csv", [
    (["sieve", "--lo", "1", "--hi", str(1 << 52)], "sieve.csv"),
    (["voronoi", "--x", "1000.5", "--Y", str(1 << 40)], "voronoi.csv"),
])
def test_sieve_window_budget_exit_code(tmp_path, capsys, argv, csv):
    # both ask the sieve for a window past MAX_SIEVE_WINDOW, and are refused
    # before it, or the Voronoi weights, allocate anything
    assert main([*argv, "--out", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert "budget exceeded" in err and "sieve budget" in err and "Traceback" not in err
    assert not (tmp_path / csv).exists()


def test_expsum_term_budget_exit_code(tmp_path, capsys):
    # 1e10 roots, 80 GB, are refused before they are allocated
    assert main(["expsum", "--N", "10000000000", "--U", "1", "--out", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert "budget exceeded" in err and "term array" in err and "Traceback" not in err
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("X, code, message", [
    ("1e17", 2, "out of range"),  # a last checkpoint past MAX_SIEVE_ARGUMENT
    ("2e10", 3, "plan budget"),  # 1.2e6 anchors, past divisor.MAX_ANCHORS
])
def test_moment_plan_refused_before_planning(tmp_path, capsys, X, code, message):
    assert main(["moment", "--k", "2", "--X", X, "--out", str(tmp_path)]) == code
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert not (tmp_path / "moment.csv").exists()


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads VmHWM")
def test_sieve_rows_streamed_peak_rss(tmp_path):
    # 2**20 rows peaked at 220 MiB of RSS while held as Python rows and as
    # one string; written as they are made and hashed a MiB at a time, 59 MiB.
    # VmHWM is the child's own peak: ru_maxrss would keep the pytest
    # process's RSS from before the exec
    src = Path(__file__).resolve().parents[1] / "src"
    path = os.pathsep.join(p for p in (str(src), os.environ.get("PYTHONPATH")) if p)
    program = ("import sys; from divisorlab.cli import main; code = main(sys.argv[1:]); "
               "status = open('/proc/self/status').read(); "
               "print(code, status.split('VmHWM:')[1].split()[0])")
    done = subprocess.run([sys.executable, "-c", program, "sieve", "--lo", "1", "--hi",
                           str(1 << 20), "--out", str(tmp_path)],
                          env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True,
                          timeout=120, check=True)
    code, peak_kib = done.stdout.split()[-2:]
    assert code == "0"
    assert int(peak_kib) < 100 * 2 ** 10, peak_kib
    with open(tmp_path / "sieve.csv") as fh:
        lines = fh.readlines()
    assert len(lines) == (1 << 20) + 1
    assert lines[-1] == f"{1 << 20},{d_trial_division(1 << 20)},{hyperbola_D(1 << 20)}\n"


def test_config_file_overlay(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# comment\nx = 100\n")
    rc = main(["delta", "--x", "1", "--config", str(cfg), "--out", str(tmp_path)])
    # explicit flag wins over the config value
    assert rc == 0
    assert (tmp_path / "delta.csv").read_text().splitlines()[1].split(",")[1] == "1"

    rc = main(["delta", "--x", "100", "--out", str(tmp_path)])
    assert (tmp_path / "delta.csv").read_text().splitlines()[1].split(",")[1] == "482"


def test_config_file_fills_defaults(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("Y = 5\n")
    rc = main(["voronoi", "--x", "50.5", "--config", str(cfg), "--out", str(tmp_path)])
    assert rc == 0
    header, row = (tmp_path / "voronoi.csv").read_text().splitlines()
    assert row.split(",")[1] == "5"


def test_voronoi_sums_sigma_once(tmp_path, monkeypatch):
    # the residual is voronoi.residual_at's, taken from the command's one sum
    calls = []
    many = voronoi.truncated_sum_many
    monkeypatch.setattr(voronoi, "truncated_sum_many", lambda xs, Y: calls.append(Y) or many(xs, Y))
    assert main(["voronoi", "--x", "1000.5", "--Y", "50", "--out", str(tmp_path)]) == 0
    assert calls == [50]
    row = (tmp_path / "voronoi.csv").read_text().splitlines()[1].split(",")
    sample = voronoi.residual_at(1000.5, 50)
    assert [float(row[2]), float(row[3])] == [sample.truncated_sum, sample.value]


def test_explicit_flag_equal_to_its_default_beats_config(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("Y = 5\n")
    rc = main(["voronoi", "--x", "50.5", "--Y", "1000", "--config", str(cfg), "--out", str(tmp_path)])
    assert rc == 0
    header, row = (tmp_path / "voronoi.csv").read_text().splitlines()
    assert row.split(",")[1] == "1000"


def test_explicit_threads_beat_config(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("threads = 2\n")
    rc = main(["moment", "--k", "2", "--X", "3000", "--threads", "1", "--config", str(cfg),
               "--out", str(tmp_path)])
    assert rc == 0
    assert json.loads((tmp_path / "moment.manifest.json").read_text())["config"]["threads"] == 1


@pytest.mark.parametrize("text, value", [("1", True), ("true", True), ("Yes", True),
                                         ("0", False), ("no", False)])
def test_config_store_true_values(tmp_path, text, value):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"quick = {text}\n")
    parser = build_parser()
    assert _read_config(cfg, parser.parse_args(["verify"]), parser) == {"quick": value}


def test_config_file_out_is_a_path(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"out = {tmp_path / 'results'}\n")
    assert main(["delta", "--x", "100", "--config", str(cfg)]) == 0
    assert (tmp_path / "results" / "delta.csv").read_text().splitlines()[1].split(",")[1] == "482"


def test_config_file_converts_by_flag_type(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("names = C2\nY = 8\n")
    assert main(["constants", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    data = json.loads((tmp_path / "constants.json").read_text())
    assert [(d["name"], d["Y"]) for d in data] == [("C2", 8)]


def test_config_file_bad_value_exit_code(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("Y = many\n")
    with pytest.raises(SystemExit) as exc:
        main(["voronoi", "--x", "50.5", "--config", str(cfg), "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert not (tmp_path / "voronoi.csv").exists()


def test_config_file_unknown_key(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("no_such_flag = 1\n")
    with pytest.raises(SystemExit):
        main(["delta", "--x", "2", "--config", str(cfg), "--out", str(tmp_path)])


@pytest.mark.parametrize("key", ["command", "threads"])
def test_config_key_must_be_a_flag_of_the_command(tmp_path, capsys, key):
    # delta takes no --threads
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{key} = 1\n")
    with pytest.raises(SystemExit) as exc:
        main(["delta", "--x", "2", "--config", str(cfg), "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert f"unknown config key: {key!r}" in capsys.readouterr().err


@pytest.mark.parametrize("command", [["moment", "--k", "2", "--X", "3000"],
                                     ["window", "--k", "2", "--X", "3000", "--H", "1000"],
                                     ["verify", "--quick"]])
@pytest.mark.parametrize("config, flag", [("abc", []), ("0", []), ("1", ["--threads", "0"]),
                                          ("1", ["--threads", "-4"]), ("1", ["--threads", "2.5"]),
                                          ("1", ["--threads", "abc"])])
def test_bad_thread_count_exit_code(tmp_path, capsys, command, config, flag):
    # a bad count exits 2 from either source of --threads: the config file, or
    # the flag, which wins over a good config value
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"threads = {config}\n")
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main([*command, *flag, "--config", str(cfg), "--out", str(out)])
    assert exc.value.code == 2
    assert "argument --threads" in capsys.readouterr().err
    assert not out.exists()


def _check_manifest(out, command):
    """<command>.manifest.json checksums exactly the other files in out."""
    manifest = json.loads((out / f"{command}.manifest.json").read_text())
    written = {p.name for p in out.iterdir()} - {f"{command}.manifest.json"}
    assert written and set(manifest["output_checksums"]) == written
    for name, digest in manifest["output_checksums"].items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("argv", [
    ["sieve", "--lo", "10", "--hi", "20"],
    ["delta", "--x", "100"],
    ["voronoi", "--x", "50.5", "--Y", "10"],
    ["count", "--plus", "2", "--minus", "2", "--ranges", "1:6,1:6,1:6,1:6", "--delta", "0.1"],
    ["mingap", "--plus", "2", "--minus", "2", "--Y", "6"],
    ["constants", "--names", "C2", "--Y", "8"],
    ["moment", "--k", "2", "--X", "3000"],
    ["window", "--k", "2", "--X", "3000", "--H", "1000"],
    ["expsum", "--N", "16", "--U", "16"],
])
def test_every_command_writes_a_manifest(tmp_path, argv):
    assert main(argv + ["--out", str(tmp_path)]) == 0
    _check_manifest(tmp_path, argv[0])


def test_manifest_checksums_change_with_output(tmp_path):
    main(["delta", "--x", "100", "--out", str(tmp_path)])
    first = json.loads((tmp_path / "delta.manifest.json").read_text())
    main(["delta", "--x", "200", "--out", str(tmp_path)])
    second = json.loads((tmp_path / "delta.manifest.json").read_text())
    assert first["output_checksums"]["delta.csv"] != second["output_checksums"]["delta.csv"]
    assert first["code_hash"] == second["code_hash"]


def test_verify_quick_csv_rows_have_header_width(tmp_path):
    # detail lines hold ", " and must be quoted, not spill into extra columns
    rc = main(["verify", "--quick", "--out", str(tmp_path)])
    with open(tmp_path / "acceptance.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["criterion", "name", "passed", "detail", "seconds"]
    assert len(rows) == 14
    assert all(len(row) == 5 for row in rows)
    assert all(float(row[4]) >= 0 for row in rows[1:])
    assert any(", " in row[3] for row in rows[1:])
    assert rc == (0 if all(row[2] == "1" for row in rows[1:]) else 1)
    _check_manifest(tmp_path, "verify")


@pytest.mark.parametrize("argv", [
    ["count", "--plus", "2", "--minus", "2", "--ranges", "1:4,1:4", "--delta", "0.1"],
    ["count", "--plus", "1", "--minus", "1", "--ranges", "1:4,1:4", "--delta", "nan"],
    ["count", "--plus", "1", "--minus", "1", "--ranges", "4:1,1:4", "--delta", "0.1"],
    ["mingap", "--plus", "0", "--minus", "2", "--Y", "5"],
    ["mingap", "--plus", "1", "--minus", "1", "--Y", "0"],
    ["mingap", "--plus", "1", "--minus", "1", "--Y", "1"],
    # the other commands follow the same rule
    ["moment", "--k", "9", "--X", "1000"],
    ["window", "--k", "2", "--X", "1000", "--H", "-5"],
    ["window", "--k", "2", "--X", "nan", "--H", "10"],
    ["voronoi", "--x", "nan"],
    ["delta", "--x", "nan"],
    ["sieve", "--lo", "0", "--hi", "5"],
    ["constants", "--Y", "0"],
])
def test_bad_relation_arguments_exit_code(tmp_path, capsys, argv):
    assert main(argv + ["--out", str(tmp_path)]) == 2
    assert "bad arguments" in capsys.readouterr().err
    assert not (tmp_path / f"{argv[0]}.csv").exists()


@pytest.mark.parametrize("argv, names", [
    # a window or moment with no whole unit interval
    (["window", "--k", "2", "--X", "1000", "--H", "0.5"], ["int(X+H) > int(X)", "H=0.5"]),
    (["moment", "--k", "2", "--X", "2.5"], ["X must be finite and >= 3", "2.5"]),
])
def test_no_whole_unit_interval_names_the_argument(tmp_path, capsys, argv, names):
    assert main(argv + ["--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "bad arguments" in err and all(name in err for name in names), err


def test_malformed_ranges_exit_code(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["count", "--plus", "1", "--minus", "1", "--ranges", "1-4,1:4",
              "--delta", "0.1", "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert "expected lo:hi" in capsys.readouterr().err


def test_count_accepts_infinite_delta(tmp_path):
    rc = main(["count", "--plus", "1", "--minus", "1", "--ranges", "1:4,1:4",
               "--delta", "inf", "--out", str(tmp_path)])
    assert rc == 0
    header, row = (tmp_path / "count.csv").read_text().splitlines()
    assert dict(zip(header.split(","), row.split(",")))["count"] == "12"


def test_package_import_loads_no_scipy():
    # scipy is a test oracle only; at import it would double every run's set-up
    src = Path(__file__).resolve().parents[1] / "src"
    path = os.pathsep.join(p for p in (str(src), os.environ.get("PYTHONPATH")) if p)
    program = ("import sys, divisorlab, divisorlab.cli, divisorlab.acceptance; "
               "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    done = subprocess.run([sys.executable, "-c", program], env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=120, check=True)
    assert done.stdout.strip() == "[]"
