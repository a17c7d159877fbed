import csv
import json
import math

import pytest

from divisorlab import series
from divisorlab.cli import _fmt, build_parser, main
from divisorlab.divisor import d_trial_division, hyperbola_D


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


def test_sieve_subcommand(tmp_path):
    rc = main(["sieve", "--lo", "10", "--hi", "20", "--out", str(tmp_path)])
    assert rc == 0
    rows = (tmp_path / "sieve.csv").read_text().splitlines()
    assert rows[0] == "n,d,D"
    last = rows[-1].split(",")
    assert last == ["20", "6", str(hyperbola_D(20))]
    assert rows[1:] == [f"{n},{d_trial_division(n)},{hyperbola_D(n)}" for n in range(10, 21)]


def test_out_of_range_exit_code(tmp_path, capsys):
    assert main(["delta", "--x", "1e17", "--out", str(tmp_path)]) == 2
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


def test_constants_subcommand(tmp_path):
    rc = main(["constants", "--names", "C2,C7", "--Y", "64", "--out", str(tmp_path)])
    assert rc == 0
    data = json.loads((tmp_path / "constants.json").read_text())
    assert [d["name"] for d in data] == ["C2", "C7"]
    assert all(d["partial_sum"] > 0 for d in data)
    assert all(d["Y"] == 64 for d in data)


def test_constants_unknown_name_exit_code(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["constants", "--names", "C2,C3", "--Y", "8", "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert "unknown constant 'C3'" in capsys.readouterr().err
    assert not (tmp_path / "constants.json").exists()


def test_window_k2_estimates_no_constant(tmp_path, monkeypatch):
    asked = []
    monkeypatch.setattr(series, "estimate_constant", lambda *a: asked.append(a))
    rc = main(["window", "--k", "2", "--X", "1e6", "--H", "5000", "--out", str(tmp_path)])
    assert rc == 0
    assert asked == []
    header, row = (tmp_path / "window.csv").read_text().splitlines()
    vals = dict(zip(header.split(","), row.split(",")))
    assert (vals["lo"], vals["hi"], vals["constants_cutoff_Y"]) == ("1000000", "1005000", "256")


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


def test_manifest_checksums_change_with_output(tmp_path):
    main(["delta", "--x", "100", "--out", str(tmp_path)])
    first = json.loads((tmp_path / "delta.manifest.json").read_text())
    main(["delta", "--x", "200", "--out", str(tmp_path)])
    second = json.loads((tmp_path / "delta.manifest.json").read_text())
    assert first["output_checksums"]["delta.csv"] != second["output_checksums"]["delta.csv"]
    assert first["code_hash"] == second["code_hash"]


def test_verify_quick_csv_rows_have_header_width(tmp_path):
    # detail lines hold ", " and must be quoted, not spill into extra columns
    main(["verify", "--quick", "--out", str(tmp_path)])
    with open(tmp_path / "acceptance.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["criterion", "name", "passed", "detail"]
    assert len(rows) == 14
    assert all(len(row) == 4 for row in rows)
    assert any(", " in row[3] for row in rows[1:])


@pytest.mark.parametrize("argv", [
    ["count", "--plus", "2", "--minus", "2", "--ranges", "1:4,1:4", "--delta", "0.1"],
    ["count", "--plus", "1", "--minus", "1", "--ranges", "1:4,1:4", "--delta", "nan"],
    ["count", "--plus", "1", "--minus", "1", "--ranges", "4:1,1:4", "--delta", "0.1"],
    ["mingap", "--plus", "0", "--minus", "2", "--Y", "5"],
    ["mingap", "--plus", "1", "--minus", "1", "--Y", "0"],
    ["mingap", "--plus", "1", "--minus", "1", "--Y", "1"],
])
def test_bad_relation_arguments_exit_code(tmp_path, capsys, argv):
    assert main(argv + ["--out", str(tmp_path)]) == 2
    assert "bad arguments" in capsys.readouterr().err
    assert not (tmp_path / f"{argv[0]}.csv").exists()


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
