import json
import math

import pytest

from tasep2c import __version__, cli, formulas, identities
from tasep2c.cli import EXIT_ACCURACY, EXIT_OK, EXIT_USAGE, EXIT_VERIFY, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_exact_leftmost_determinant(capsys):
    code, out, _ = run_cli(
        capsys,
        *"exact leftmost --n 2 --step-l 0 --position 1 --time 1 --method determinant".split(),
    )
    assert code == EXIT_OK
    record = json.loads(out)
    assert record["command"] == "exact leftmost"
    assert record["value"] == pytest.approx(math.exp(-1), abs=1e-12)
    assert record["method"] == "determinant"
    assert record["version"] == __version__
    assert "runtime" not in record


def test_exact_leftmost_refuses_an_underflowed_scale(capsys):
    code, out, err = run_cli(
        capsys, *"exact leftmost --n 40 --position 2 --time 0.1 --method determinant".split()
    )
    assert code == EXIT_ACCURACY == 2
    assert out == ""
    assert "underflows the 2^-256 fixed-point scale" in err


def test_exact_transition_refuses_an_underflowed_scale(capsys):
    # J(38, 0) at t = 0.1 reads 0 at 256 bits; the value is 4.92e-173
    code, out, err = run_cli(
        capsys, *"exact transition --n 2 --initial 1,2 --final 40,41 --time 0.1".split()
    )
    assert code == EXIT_ACCURACY == 2
    assert out == ""
    assert "underflows the 2^-256 fixed-point scale" in err


def test_exact_transition_refuses_a_negative_total(capsys):
    # the total is a negative integer at scale 2^-768; the value is 4.70e-217
    argv = (
        "exact transition --n 3 --initial 1,2,3 --species 211 --final 34,35,36 "
        "--final-species 121 --time 0.1"
    )
    code, out, err = run_cli(capsys, *argv.split())
    assert code == EXIT_ACCURACY == 2
    assert out == ""
    assert "negative total" in err


def test_exact_leftmost_single_particle(capsys):
    code, out, _ = run_cli(
        capsys, *"exact leftmost --n 1 --initial 0 --position 3 --time 2".split()
    )
    assert code == EXIT_OK
    assert json.loads(out)["value"] == pytest.approx(0.180447, abs=1e-6)


def test_exact_transition_record(capsys):
    argv = (
        "exact transition --n 2 --initial 1,2 --final 1,3 "
        "--species 21 --final-species 21 --time 1"
    )
    code, out, _ = run_cli(capsys, *argv.split())
    assert code == EXIT_OK
    record = json.loads(out)
    assert 0 < record["value"] < 1
    assert record["parameters"]["final"] == "1,3"


def test_sweep_emits_csv_schema(capsys):
    code, out, _ = run_cli(
        capsys, *"exact leftmost --n 2 --step-l 0 --sweep 1..3 --time 1".split()
    )
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0] == "x,value,method,t,n"
    assert len(lines) == 4
    x, value, method, t, n = lines[1].split(",")
    assert (x, method, t, n) == ("1", "residue", "1.0", "2")
    assert float(value) == pytest.approx(math.exp(-1), abs=1e-12)


def test_sweep_csv_file(tmp_path, capsys):
    path = tmp_path / "sweep.csv"
    code, out, _ = run_cli(
        capsys,
        *f"exact leftmost --n 2 --step-l 0 --sweep 1..3 --time 1 --csv {path}".split(),
    )
    assert code == EXIT_OK
    record = json.loads(out)
    assert record["rows"] == 3 and record["csv"] == str(path)
    content = path.read_text().strip().splitlines()
    assert content[0] == "x,value,method,t,n" and len(content) == 4


def test_csv_without_sweep_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "x.csv"
    argv = f"exact leftmost --n 3 --position 2 --time 1 --method determinant --csv {path}"
    code, out, err = run_cli(capsys, *argv.split())
    assert code == EXIT_USAGE == 1
    assert out == ""
    assert "--sweep" in err
    assert not path.exists()


def test_step_det_sweep_rows_match_single_points(capsys):
    # the sweep shares one table of condensation minors; each point is cold
    base = "exact leftmost --n 20 --step-l 0 --time 1 --method determinant"
    code, out, _ = run_cli(capsys, *f"{base} --sweep 1..6".split())
    assert code == EXIT_OK
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    assert [int(row[0]) for row in rows] == list(range(1, 7))
    for x, value, *_ in rows:
        formulas._minor_table.cache_clear()
        code, out, _ = run_cli(capsys, *f"{base} --position {x}".split())
        assert code == EXIT_OK
        assert value == repr(json.loads(out)["value"])
    assert float(rows[0][1]) == pytest.approx(math.exp(-1), rel=1e-15, abs=0)


def test_leftmost_sweep_from_a_nonstep_initial_matches_single_points(capsys):
    # a non-Hankel row shape: the sweep shares its table of minors; each point is cold
    base = "exact leftmost --n 4 --initial 1,3,4,7 --time 1"
    code, out, _ = run_cli(capsys, *f"{base} --sweep 1..8".split())
    assert code == EXIT_OK
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    assert [int(row[0]) for row in rows] == list(range(1, 9))
    for x, value, *_ in rows:
        formulas._minor_table.cache_clear()
        code, out, _ = run_cli(capsys, *f"{base} --position {x}".split())
        assert code == EXIT_OK
        assert value == repr(json.loads(out)["value"])
    assert float(rows[0][1]) == pytest.approx(math.exp(-1), rel=1e-15, abs=0)


def test_simulate_byte_determinism(capsys):
    argv = "simulate --n 2 --step-l 0 --event leftmost --position 1 --time 1 --runs 2000 --seed 9"
    _, out1, _ = run_cli(capsys, *argv.split())
    _, out2, _ = run_cli(capsys, *argv.split())
    assert out1 == out2
    record = json.loads(out1)
    assert record["seed"] == 9 and record["runs"] == 2000


def test_simulate_runs_validation(capsys):
    code, _, err = run_cli(
        capsys,
        *"simulate --n 2 --step-l 0 --event leftmost --position 1 --time 1 --runs 0".split(),
    )
    assert code == EXIT_USAGE
    assert "runs" in err


@pytest.mark.parametrize("time", ["nan", "inf", "-1"])
def test_simulate_rejects_bad_time(capsys, time):
    code, out, err = run_cli(
        capsys,
        *"simulate --n 2 --step-l 0 --event leftmost --position 1 --runs 10 --time".split(),
        time,
    )
    assert code == EXIT_USAGE
    assert out == ""
    assert "time" in err


@pytest.mark.parametrize("time", ["nan", "inf", "-1"])
@pytest.mark.parametrize(
    "argv",
    [
        "exact leftmost --n 2 --step-l 0 --position 1",
        "exact leftmost --n 2 --step-l 0 --position 1 --method quadrature",
        "compare --n 2 --step-l 0 --event leftmost --position 1 --runs 100",
    ],
    ids=["leftmost", "leftmost-quadrature", "compare"],
)
def test_exact_commands_reject_bad_time(capsys, argv, time):
    code, out, err = run_cli(capsys, *argv.split(), f"--time={time}")
    assert code == EXIT_USAGE
    assert out == ""
    assert err.startswith("usage error:") and "time" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("tol", ["nan", "inf"])
def test_quadrature_rejects_non_finite_tolerance(capsys, tol):
    argv = "exact leftmost --n 2 --step-l 0 --position 2 --time 1 --method quadrature"
    code, out, err = run_cli(capsys, *argv.split(), f"--tol={tol}")
    assert code == EXIT_USAGE
    assert out == ""
    assert err.startswith("usage error:") and "tolerance" in err


@pytest.mark.parametrize("n", ["0", "-2"])
@pytest.mark.parametrize(
    "argv",
    [
        "exact leftmost --position 1 --time 1",
        "exact transition --final 1 --time 1",
        "simulate --event leftmost --position 1 --runs 10 --time 1",
        "compare --event leftmost --position 1 --runs 10 --time 1",
    ],
    ids=["leftmost", "transition", "simulate", "compare"],
)
def test_commands_reject_no_particles(capsys, argv, n):
    code, out, err = run_cli(capsys, *argv.split(), f"--n={n}")
    assert code == EXIT_USAGE
    assert out == ""
    assert "at least one particle" in err


def test_usage_error_on_bad_initial(capsys):
    code, _, err = run_cli(
        capsys, *"exact leftmost --n 2 --initial 5,3 --position 1 --time 1".split()
    )
    assert code == EXIT_USAGE
    assert "increasing" in err


def test_usage_error_on_missing_position(capsys):
    code, _, _ = run_cli(capsys, *"exact leftmost --n 2 --step-l 0 --time 1".split())
    assert code == EXIT_USAGE


def test_usage_error_on_unknown_flag(capsys):
    code, _, _ = run_cli(capsys, *"exact leftmost --bogus 3".split())
    assert code == EXIT_USAGE


def test_usage_error_on_negative_time(capsys):
    code, _, err = run_cli(
        capsys, *"exact leftmost --n 2 --step-l 0 --position 1 --time -1".split()
    )
    assert code == EXIT_USAGE
    assert "nonnegative" in err


def test_determinant_requires_step(capsys):
    code, _, err = run_cli(
        capsys,
        *"exact leftmost --n 2 --initial 1,3 --position 1 --time 1 --method determinant".split(),
    )
    assert code == EXIT_USAGE
    assert "step" in err


def test_compare_agreement(capsys):
    argv = (
        "compare --n 2 --step-l 0 --event leftmost --position 1 "
        "--time 1 --runs 20000 --seed 3"
    )
    code, out, _ = run_cli(capsys, *argv.split())
    assert code == EXIT_OK
    record = json.loads(out)
    assert record["agree"] and abs(record["z"]) < 4
    assert record["exact"] == pytest.approx(math.exp(-1), abs=1e-12)


def test_compare_time_zero_exact_indicator(capsys):
    argv = "compare --n 2 --step-l 0 --event transition --final 1,2 --time 0 --runs 50 --seed 1"
    code, out, _ = run_cli(capsys, *argv.split())
    assert code == EXIT_OK
    record = json.loads(out)
    assert record["exact"] == record["estimate"] == 1.0 and record["z"] == 0.0


def test_compare_flags_disagreement(capsys):
    # a band of 1e-9 standard errors turns any sampling noise into a flagged
    # disagreement (a band of 0 is a usage error)
    argv = (
        "compare --n 2 --step-l 0 --event leftmost --position 1 "
        "--time 1 --runs 500 --seed 3 --sigma 1e-9"
    )
    code, out, _ = run_cli(capsys, *argv.split())
    assert code == EXIT_ACCURACY
    assert json.loads(out)["agree"] is False


TRANSITION_3 = (
    "--n 3 --initial 1,2,3 --species 211 --final 2,3,4 --final-species 121 --time 0.5"
)


def test_compare_transition_honours_the_quadrature_flags(capsys):
    # from 8 points at tolerance 1e-4 the rule stops 7.9e-11 off the residue value
    quad = "--method quadrature --quad-points 8 --tol 1e-4"
    code, out, _ = run_cli(capsys, *f"exact transition {TRANSITION_3} {quad}".split())
    assert code == EXIT_OK
    value = json.loads(out)["value"]
    code, out, _ = run_cli(
        capsys, *f"compare --event transition {TRANSITION_3} {quad} --runs 500 --seed 2".split()
    )
    assert code == EXIT_OK
    record = json.loads(out)
    assert record["method"] == "quadrature" and record["exact"] == value
    residue = formulas.transition_probability(
        formulas.Configuration((1, 2, 3), "211"), formulas.Configuration((2, 3, 4), "121"), 0.5
    )
    assert 0 < abs(value - residue) < 1e-9


def test_compare_transition_quadrature_past_the_grid_budget_is_a_usage_error(capsys):
    argv = (
        "compare --n 5 --step-l 0 --event transition --final 1,2,3,4,6 --species 21111 "
        "--final-species 12111 --time 1 --runs 2000 --seed 1 --method quadrature"
    )
    code, out, err = run_cli(capsys, *argv.split())
    assert code == EXIT_USAGE
    assert out == ""
    assert "grid budget" in err


def test_compare_transition_refuses_the_determinant_route(capsys):
    argv = f"compare --event transition {TRANSITION_3} --runs 50 --method determinant"
    code, out, err = run_cli(capsys, *argv.split())
    assert code == EXIT_USAGE
    assert out == ""
    assert "leftmost event" in err


@pytest.mark.parametrize("sigma", ["0", "-1", "nan"])
def test_compare_rejects_bad_sigma(capsys, sigma):
    argv = "compare --n 2 --step-l 0 --event leftmost --position 1 --time 1 --runs 50"
    code, out, err = run_cli(capsys, *argv.split(), f"--sigma={sigma}")
    assert code == EXIT_USAGE
    assert out == ""
    assert "sigma" in err


@pytest.mark.parametrize("points", ["0", "-3"])
def test_verify_rejects_checking_no_points(capsys, points):
    code, out, err = run_cli(
        capsys, *"verify --identity main --n-range 2..3".split(), f"--points={points}"
    )
    assert code == EXIT_USAGE
    assert out == ""
    assert "points" in err


def test_verify_pass_and_output(capsys):
    code, out, _ = run_cli(capsys, *"verify --identity main --n-range 2..3 --points 3".split())
    assert code == EXIT_OK
    records = [json.loads(line) for line in out.strip().splitlines()]
    assert [r["n"] for r in records] == [2, 3]
    assert all(r["passed"] and r["points"] == 3 for r in records)


def test_verify_checks_every_size_asked(capsys):
    code, out, _ = run_cli(capsys, *"verify --identity amplitude --n-range 6..6 --points 3".split())
    assert code == EXIT_OK
    records = [json.loads(line) for line in out.strip().splitlines()]
    assert [(r["identity"], r["n"], r["passed"]) for r in records] == [("closed_form", 6, True)]


def test_verify_all_small(capsys):
    code, out, _ = run_cli(capsys, *"verify --identity all --n-range 2..2 --points 2".split())
    assert code == EXIT_OK
    identities = {json.loads(line)["identity"] for line in out.strip().splitlines()}
    assert {"main", "equiv_a", "equiv_b", "tasep_a", "braid"} <= identities


def test_verify_failure_exit_code(capsys, monkeypatch):
    def failing_suite(**kwargs):
        return [{"identity": "main", "n": 2, "points": 1, "passed": False, "degree_bound": 16}]

    monkeypatch.setattr(identities, "run_identity_suite", failing_suite)
    code, out, _ = run_cli(capsys, *"verify --identity main --n-range 2..2 --points 1".split())
    assert code == EXIT_VERIFY
    assert json.loads(out)["passed"] is False


def test_verify_bad_range(capsys):
    code, _, _ = run_cli(capsys, *"verify --identity main --n-range 1..2".split())
    assert code == EXIT_USAGE
    code, _, _ = run_cli(capsys, *"verify --identity main --n-range nope".split())
    assert code == EXIT_USAGE


def test_records_are_json_roundtrip_stable(capsys):
    argv = "exact leftmost --n 2 --step-l 0 --position 2 --time 0.5".split()
    _, out1, _ = run_cli(capsys, *argv)
    _, out2, _ = run_cli(capsys, *argv)
    assert out1 == out2
    record = json.loads(out1)
    assert json.loads(json.dumps(record)) == record


def test_cached_parser_gives_the_records_of_a_fresh_one(capsys):
    commands = [
        "exact leftmost --n 2 --step-l 0 --position 1 --time 1 --method determinant",
        "verify --identity vandermonde --n-range 2..3 --points 2",
        "compare --n 2 --step-l 0 --event leftmost --position 2 --time 1 --runs 500 --seed 3",
        "exact leftmost --n 2 --step-l 0 --time 1",  # neither --position nor --sweep
        "simulate --n 2 --time 1 --event leftmost --position 1 --runs 0",
        "exact transition --n 2 --time 1",  # argparse: --final is required
        "exact leftmost --n 3 --step-l 0 --sweep 1..3 --time 0.5",
    ]
    cached = [run_cli(capsys, *command.split()) for command in commands]
    assert cli._parser() is cli._parser()
    fresh = []
    for command in commands:
        cli._parser.cache_clear()
        fresh.append(run_cli(capsys, *command.split()))
    assert cached == fresh
    assert [code for code, _, _ in cached] == [EXIT_OK] * 3 + [EXIT_USAGE] * 3 + [EXIT_OK]
