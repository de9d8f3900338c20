import csv
import io
import json

import pytest

from isecode import CorrelationCheck, SpaceParams, load_family, max_family, random_complete_family
from isecode.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv, "--format", "json")
    return code, (json.loads(out) if out.strip() else None), err


def test_bound_product_only(capsys):
    code, report, _ = run_json(capsys, "bound", "-n", "5", "-s", "3", "-t", "3,0,0")
    assert code == 0
    assert report["power_bound"]["applicable"] is False
    assert report["product_bound"] == {
        "applicable": True,
        "count": 11,
        "density": "11/243",
        "windows": [5, 0, 0],
    }


def test_bound_both(capsys):
    code, report, _ = run_json(capsys, "bound", "-n", "3", "-s", "3", "-t", "1,1,0")
    assert code == 0
    assert report["power_bound"]["count"] == 3
    assert report["product_bound"]["count"] == 3


def test_bound_refusal(capsys):
    code, report, err = run_json(capsys, "bound", "-n", "2", "-s", "3", "-t", "3,0,0")
    assert code == 2
    assert report["product_bound"] == {
        "applicable": False,
        "reason": "demand sum 3 exceeds word length 2",
    }
    # the sum rule now comes before the power bound's own, so every entry gives it
    assert report["power_bound"]["reason"] == report["product_bound"]["reason"]
    assert err == "refusal: demand sum 3 exceeds word length 2\n"


def test_bound_beyond_the_paper_windows(capsys):
    # two windows of all 8 positions: U = floor(93**2 / 256) is a bound, A builds 25 words
    code, report, _ = run_json(capsys, "bound", "-n", "8", "-s", "2", "-t", "2,2")
    assert code == 0
    assert report["power_bound"]["applicable"] is False
    assert (report["product_bound"]["count"], report["product_bound"]["windows"]) == (33, [8, 8])
    assert report["product_allocation"]["count"] == 25


def test_bound_bad_params_exit_2(capsys):
    code, _, err = run_cli(capsys, "bound", "-n", "3", "-s", "1", "-t", "1")
    assert code == 2
    assert err == "refusal: alphabet size must be an integer >= 2, got 1\n"


def test_construct_verify_round_trip(capsys, tmp_path):
    fam_path = str(tmp_path / "f.fam")
    code, built, _ = run_json(
        capsys, "construct", "product", "-n", "5", "-s", "3", "-t", "3,0,0", "-o", fam_path
    )
    assert code == 0
    assert built["size"] == 11
    assert built["density"] == "11/243"
    assert built["blocks"][0]["radius"] == 1

    code, report, _ = run_json(capsys, "verify", fam_path, "-t", "3,0,0")
    assert code == 0
    # the verify report reproduces the construct-time metadata
    assert report["size"] == built["size"]
    assert report["density"] == built["density"]
    assert report["s"] == 3 and report["n"] == 5
    assert report["intersecting"] is True
    assert report["complete_for"] == {"1": True, "2": False, "3": False}
    assert report["product_bound"]["size_within"] is True

    assert load_family(fam_path) == max_family(5, 3, (3, 0, 0)).witness | load_family(fam_path)


def test_construct_density_only(capsys):
    code, out, _ = run_cli(
        capsys, "construct", "product", "-n", "5", "-s", "3", "-t", "3,0,0", "--density-only"
    )
    assert code == 0
    assert out.strip() == "11/243"


@pytest.mark.parametrize(
    "argv",
    [
        ("product", "-n", "5", "-s", "3", "-t", "3,0,0"),
        ("window", "-n", "3", "-t", "1", "-r", "1"),
    ],
    ids=lambda argv: argv[0],
)
def test_construct_density_only_refuses_output(capsys, tmp_path, argv):
    path = tmp_path / "x.fam"
    code, out, err = run_cli(capsys, "construct", *argv, "--density-only", "-o", str(path))
    assert code == 2
    assert out == ""
    assert "refusal: --density-only builds no family to write" in err
    assert not path.exists()


def test_construct_product_beyond_capacity(capsys):
    argv = ("construct", "product", "-n", "6", "-s", "3", "-t", "4,0,0")
    code, report, _ = run_json(capsys, *argv)
    assert code == 0
    assert (report["size"], report["density"]) == (13, "13/729")
    assert report["blocks"][0]["radius"] == 1
    code, out, _ = run_cli(capsys, *argv, "--density-only")
    assert code == 0
    assert out.strip() == "13/729"
    # the paper's windows need 8 positions, but the product bound takes each window
    # alone: the one window of 6 positions, so U = A
    code, report, _ = run_json(capsys, "bound", "-n", "6", "-s", "3", "-t", "4,0,0")
    assert code == 0
    assert report["product_bound"]["count"] == report["product_allocation"]["count"] == 13
    assert report["product_bound"]["windows"] == [6, 0, 0]


def test_construct_binary_majority(capsys, tmp_path):
    fam_path = str(tmp_path / "k.fam")
    code, report, _ = run_json(
        capsys,
        "construct",
        "binary-majority",
        "-n",
        "4",
        "-t",
        "1,1",
        "--x1",
        "1,2,3",
        "--x2",
        "4",
        "-o",
        fam_path,
    )
    assert code == 0
    assert report["size"] == 4
    assert report["density"] == "1/4"
    assert len(load_family(fam_path)) == 4


def test_construct_symbol_majority(capsys):
    code, report, _ = run_json(
        capsys, "construct", "symbol-majority", "-n", "3", "-s", "3", "-t", "1", "--x", "1,2,3"
    )
    assert code == 0
    assert report["size"] == 7


def test_construct_window(capsys):
    code, report, _ = run_json(
        capsys, "construct", "window", "-n", "3", "-t", "1", "-r", "1"
    )
    assert code == 0
    assert report["size"] == 4
    assert report["density"] == "1/2"
    assert report["s"] == 2
    code, report, _ = run_json(
        capsys, "construct", "window", "-n", "3", "-s", "3", "-t", "1", "-r", "1"
    )
    assert code == 0
    assert (report["s"], report["size"], report["density"]) == (3, 7, "7/27")


_IGNORED_FLAG_COMMANDS = [
    (("product", "-n", "4", "-s", "3", "-t", "1,0,0", "--x1", "1,2"), "--x1"),
    (("binary-majority", "-n", "4", "-t", "1,1", "--x1", "1,2", "--x2", "3", "-r", "1"), "-r"),
    (("symbol-majority", "--x", "1", "--x1", "2,3", "-r", "5", "-n", "3", "-t", "1"), "--x1, -r"),
    (("window", "-n", "3", "-t", "1", "-r", "1", "--x2", "2"), "--x2"),
]


@pytest.mark.parametrize(
    "argv, flags", _IGNORED_FLAG_COMMANDS, ids=[c[0][0] for c in _IGNORED_FLAG_COMMANDS]
)
def test_construct_refuses_flags_its_kind_ignores(capsys, argv, flags):
    code, out, err = run_cli(capsys, "construct", *argv)
    assert code == 2
    assert out == ""
    assert f"{argv[0]} does not use {flags}" in err


def test_construct_radius_long_spelling(capsys):
    window = ("construct", "window", "-n", "3", "-t", "1")
    assert run_json(capsys, *window, "--radius", "1") == run_json(capsys, *window, "-r", "1")
    code, out, err = run_cli(
        capsys, "construct", "product", "-n", "3", "-s", "3", "-t", "1,0,0", "--radius", "1"
    )
    assert (code, out, err) == (2, "", "refusal: product does not use -r\n")


def test_construct_window_radius_defaults_to_zero(capsys):
    code, report, _ = run_json(capsys, "construct", "window", "-n", "3", "-t", "2")
    assert code == 0
    assert (report["radius"], report["size"], report["density"]) == (0, 2, "1/4")


_MAJORITY_COMMANDS = [
    # overlapping blocks, a position outside 1..n, a window longer than n
    ("binary-majority", "-n", "3", "-t", "1,1", "--x1", "1,2,3", "--x2", "1,2,3"),
    ("binary-majority", "-n", "4", "-t", "1,1", "--x1", "1,2", "--x2", "2,3"),
    ("binary-majority", "-n", "4", "-t", "1,1", "--x1", "1,9", "--x2", "3"),
    ("symbol-majority", "-n", "3", "-s", "3", "-t", "1", "--x", "1,7"),
    ("window", "-n", "3", "-t", "2", "-r", "1"),
    # a threshold outside 1..|block|
    ("binary-majority", "-n", "3", "-t", "2,1", "--x1", "1", "--x2", "2,3"),
    ("symbol-majority", "-n", "3", "-s", "3", "-t", "2", "--x", "1"),
    ("window", "-n", "3", "-t", "0", "-r", "1"),
    # valid inputs
    ("binary-majority", "-n", "4", "-t", "1,1", "--x1", "1,2,3", "--x2", "4"),
    ("binary-majority", "-n", "5", "-s", "3", "-t", "1,2", "--x1", "1", "--x2", "2,3,4"),
    ("symbol-majority", "-n", "3", "-s", "3", "-t", "1", "--x", "1,2,3"),
    ("symbol-majority", "-n", "5", "-t", "2", "--x", "2,4,5"),
    ("window", "-n", "3", "-t", "1", "-r", "1"),
    ("window", "-n", "5", "-s", "3", "-t", "2", "-r", "1"),
]


@pytest.mark.parametrize("argv", _MAJORITY_COMMANDS, ids=" ".join)
def test_construct_density_only_agrees_with_family(capsys, argv):
    code, report, _ = run_json(capsys, "construct", *argv)
    code_only, out, _ = run_cli(capsys, "construct", *argv, "--density-only")
    assert code in (0, 2)
    assert code_only == code
    if code == 0:
        assert out.strip() == report["density"]


def test_search_json_contract(capsys, tmp_path):
    witness = str(tmp_path / "w.fam")
    code, report, _ = run_json(
        capsys, "search", "-n", "4", "-s", "2", "-t", "1,1", "-o", witness
    )
    assert code == 0
    keys = ("n", "s", "t", "max", "witness_file", "vertices", "nodes", "orbits", "rule", "ms")
    keys += ("incumbent",)
    for key in keys:
        assert key in report
    assert set(report["phase_ms"]) == {"build", "orbits", "greedy", "branch"}
    assert sum(report["phase_ms"].values()) <= report["ms"] + 1  # ms is truncated, phases rounded
    assert report["incumbent"] <= report["max"]
    assert report["max"] == 4
    assert report["orbits"] == 2  # histograms {1, 3} and {2, 2} of the two symbols
    assert report["rule"] == "shift"  # s = 2
    assert report["vertices"] == 14  # the words with a 1 and a 2
    assert report["witness_file"] == witness
    fam = load_family(witness)
    assert len(fam) == 4 and fam.is_t_intersecting((1, 1))
    _, report, _ = run_json(capsys, "search", "-n", "3", "-s", "3", "-t", "1,0,0")
    assert report["rule"] == "quotient"  # s >= 3, one nonzero demand
    assert report["vertices"] == 7  # the 1-sets, not the 19 words with a 1
    _, report, _ = run_json(capsys, "search", "-n", "3", "-s", "3", "-t", "1,1,0")
    assert report["rule"] == "orbit"
    assert report["vertices"] == 12  # the words with a 1 and a 2
    _, report, _ = run_json(capsys, "search", "-n", "3", "-s", "4", "-t", "0,1,0,1")
    assert report["rule"] == "orbit"
    assert (report["max"], report["vertices"]) == (4, 12)  # patterns over {2, 4, *}, not 18 words


def test_verify_empty_family(capsys, tmp_path):
    path = tmp_path / "empty.fam"
    path.write_text("3 2\n")
    code, report, _ = run_json(capsys, "verify", str(path), "-t", "1,0,0")
    assert code == 0
    assert report["size"] == 0
    assert report["intersecting"] is True


def test_verify_parse_error_exit_4(capsys, tmp_path):
    path = tmp_path / "bad.fam"
    path.write_text("3 2\n12\n12\n")
    code, _, err = run_cli(capsys, "verify", str(path))
    assert code == 4
    assert "line 3" in err


def test_verify_missing_file_exit_4(capsys, tmp_path):
    code, _, err = run_cli(capsys, "verify", str(tmp_path / "nope.fam"))
    assert code == 4


def test_correlate_random(capsys):
    code, report, _ = run_json(
        capsys,
        "correlate",
        "-s",
        "3",
        "-n",
        "2",
        "--pins-a",
        "1",
        "--pins-b",
        "2,3",
        "--trials",
        "30",
    )
    assert code == 0
    assert report["violations"] == 0
    assert report["min_slack"] >= 0
    assert len(report["trials"]) == 30
    assert [row["seed"] for row in report["trials"]] == sorted(
        row["seed"] for row in report["trials"]
    )


def test_correlate_violation_replay_files(capsys, monkeypatch, tmp_path):
    # Report seed 3 as a violation: its pair must be dumped from sub-seeds 6 and 7.
    monkeypatch.setattr(CorrelationCheck, "holds", property(lambda c: c.seed != 3))
    monkeypatch.chdir(tmp_path)
    code, report, _ = run_json(
        capsys, "correlate", "-s", "3", "-n", "3", "--pins-a", "1", "--pins-b", "2,3",
        "--trials", "3", "--seed", "2",
    )
    assert code == 0
    assert report["violations"] == 1
    assert report["replay_files"] == ["violation_seed3_a.fam", "violation_seed3_b.fam"]
    params = SpaceParams(3, 3)
    fam_a = load_family(tmp_path / "violation_seed3_a.fam")
    fam_b = load_family(tmp_path / "violation_seed3_b.fam")
    assert fam_a == random_complete_family(params, {1}, 6)
    assert fam_b == random_complete_family(params, {2, 3}, 7)
    # the draws differ between the two sub-seeds, so a swapped rule would fail
    swapped = (
        random_complete_family(params, {1}, 7),
        random_complete_family(params, {2, 3}, 6),
    )
    assert (fam_a, fam_b) != swapped


def test_correlate_exhaustive(capsys):
    code, report, _ = run_json(
        capsys, "correlate", "-s", "3", "--pins-a", "1", "--pins-b", "2", "--exhaustive"
    )
    assert code == 0
    assert report["checks"] == 9
    assert report["violations"] == 0
    assert report["min_slack"] == 0


@pytest.mark.parametrize(
    "extra,flags",
    [
        (("-n", "5"), "-n"),
        (("--trials", "3"), "--trials"),
        (("--seed", "0"), "--seed"),
        (("-n", "5", "--trials", "3", "--seed", "0"), "-n, --trials, --seed"),
        (("-n", "5", "--trials", "3"), "-n, --trials"),
    ],
)
def test_correlate_exhaustive_refuses_random_options(capsys, extra, flags):
    # passing a random-mode option, even at its default value, is refused
    code, out, err = run_cli(
        capsys, "correlate", "-s", "3", "--pins-a", "1", "--pins-b", "2", "--exhaustive", *extra
    )
    assert (code, out) == (2, "")
    assert err == f"refusal: --exhaustive does not use {flags}\n"


def test_correlate_random_defaults(capsys):
    code, report, _ = run_json(capsys, "correlate", "-s", "3", "--pins-a", "1", "--pins-b", "2")
    assert code == 0
    assert report["mode"] == "random" and report["n"] == 2
    assert [row["seed"] for row in report["trials"]] == list(range(200))
    assert report["informative"] == sum(row["slack"] > 0 for row in report["trials"]) > 0


def test_table_refuses_text_format(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["table", "--what", "bounds", "--format", "text"])
    assert exc.value.code == 2
    assert "invalid choice: 'text'" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["bound", "search"])
def test_demand_is_required(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command, "-n", "4", "-s", "2"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "the following arguments are required: -t" in err and "Traceback" not in err


def test_table_bounds_csv(capsys):
    code, out, _ = run_cli(capsys, "table", "--what", "bounds", "-s", "3", "--n-max", "2")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    # demand sweeps with sum <= n: 4 rows for n=1 plus 10 for n=2
    assert len(rows) == 14
    row = next(r for r in rows if r["n"] == "2" and r["t"] == "1,1,0")
    assert row["power_bound"] == "1"
    assert row["product_count"] == "1"
    assert row["allocated_count"] == "1"


def test_table_oracle(capsys):
    code, out, _ = run_cli(capsys, "table", "--what", "oracle", "-s", "2", "--n-max", "2")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    for row in rows:
        n, t = int(row["n"]), tuple(int(x) for x in row["t"].split(","))
        assert int(row["oracle_max"]) == max_family(n, 2, t).max_size
        assert row["allocated_count"] == row["oracle_max"]


def test_table_measures(capsys):
    code, out, _ = run_cli(
        capsys, "table", "--what", "measures", "-n", "9", "-s", "3", "--t-max", "4"
    )
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [r["t"] for r in rows] == ["0", "1", "2", "3", "4"]
    assert rows[3]["value"] == "11/243"
    assert rows[3]["radius"] == "1"


@pytest.mark.parametrize(
    "what,extra,flags",
    [
        ("bounds", ("-n", "5"), "-n"),
        ("bounds", ("-p", "1/2"), "-p"),
        ("bounds", ("-n", "8", "--timeout-ms", "60000"), "-n, --timeout-ms"),
        ("oracle", ("-p", "1/2", "-n", "5"), "-n, -p"),
        ("measures", ("--n-max", "4"), "--n-max"),
        ("measures", ("--timeout-ms", "100", "--n-max", "2"), "--n-max, --timeout-ms"),
    ],
)
def test_table_refuses_options_its_what_ignores(capsys, what, extra, flags):
    # passing an option the chosen --what does not read, even at its default value, is refused
    code, out, err = run_cli(capsys, "table", "--what", what, "-s", "2", *extra)
    assert (code, out) == (2, "")
    assert err == f"refusal: --what {what} does not use {flags}\n"


def test_table_oracle_reads_its_timeout(capsys):
    args = ("table", "--what", "oracle", "-s", "2", "--n-max", "1", "--timeout-ms", "5000")
    code, rows, _ = run_json(capsys, *args)
    assert code == 0 and all(row["oracle_complete"] for row in rows) and len(rows) == 3


@pytest.mark.parametrize(
    "argv",
    [
        ("search", "-n", "4", "-s", "2", "-t", "1,1", "--timeout-ms", "-5"),
        ("table", "--what", "oracle", "-s", "2", "--n-max", "2", "--timeout-ms", "-5"),
    ],
)
def test_negative_timeout_exits_2(capsys, argv):
    # refused before any output, not a timeout (search, exit 3) or unproved rows (table, exit 0)
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == "refusal: timeout must be non-negative, got -5 ms\n"


def test_table_output_file(capsys, tmp_path):
    out_path = tmp_path / "t.csv"
    code, out, _ = run_cli(
        capsys, "table", "--what", "bounds", "-s", "3", "--n-max", "1", "-o", str(out_path)
    )
    assert code == 0 and out == ""
    assert out_path.read_text().startswith("n,s,t,")


def test_text_format_appends_decimal(capsys):
    code, out, _ = run_cli(capsys, "bound", "-n", "3", "-s", "3", "-t", "1,1,0")
    assert code == 0
    assert "product_bound.density: 1/9 (~0.111111)" in out
