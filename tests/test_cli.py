"""End-to-end checks of the command-line front end and artifact serializer.

Commands run in-process through main(argv) so exit codes and artifacts can be
asserted without subprocess overhead.  A shared session directory carries one
certified construction through construct -> verify -> semigroup.
"""

import ast
import builtins
import csv
import hashlib
import importlib
import importlib.util
import inspect
import io
import json
import math
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import jamison
import jamison.cli as cli
import jamison.errors as errors
import jamison.funm as funm
from jamison import IndexSequence, ShiftConstruction, build_construction
from jamison.cli import main
from jamison.construction import FIBER_DECAY
from jamison.errors import ArtifactCorrupt, ConfigInvalid, JamisonError
from jamison.serialize import (
    MAX_FIBERS,
    construction_from_json_dict,
    decimal_string,
    fraction_from_string,
    load_construction,
    load_sequence,
    save_construction,
    write_json,
)

from blocks import fiber_rescaled


def read_report(out_dir):
    return json.loads((Path(out_dir) / "report.json").read_text())


def strip_timestamp(payload: dict) -> str:
    clean = dict(payload)
    clean.pop("timestamp")
    return json.dumps(clean, sort_keys=True)


@pytest.fixture(scope="session")
def workdir(tmp_path_factory):
    """Sequence files plus one certified construction built through the CLI."""
    d = tmp_path_factory.mktemp("cli")
    write_json(d / "fact6.json", IndexSequence.factorials(6).to_json_dict())
    write_json(d / "ints100.json", IndexSequence.integers_up_to(100).to_json_dict())
    terms = IndexSequence.factorials(6).terms
    half = IndexSequence((1.0,) + tuple(n + 0.5 for n in terms[1:]), "real")
    write_json(d / "half.json", half.to_json_dict())
    rc = main([
        "construct", "--sequence", str(d / "fact6.json"),
        "--levels", "5", "--fibers", "2", "--weights", "linear",
        "--horizon", "6", "--out", str(d / "C.json"),
        "--out-dir", str(d / "construct"),
    ])
    assert rc == 0
    return d


# --- serializer ------------------------------------------------------------------


def test_sequence_save_load_round_trip(tmp_path):
    seq = IndexSequence((1, 3, 7, 20), "integer")
    write_json(tmp_path / "s.json", seq.to_json_dict())
    back = load_sequence(tmp_path / "s.json")
    assert back.terms == seq.terms and back.kind == "integer"


def test_load_sequence_rejects_junk(tmp_path):
    (tmp_path / "bad.json").write_text("{not json")
    with pytest.raises(ConfigInvalid):
        load_sequence(tmp_path / "bad.json")
    (tmp_path / "list.json").write_text("[1, 2]")
    with pytest.raises(ConfigInvalid):
        load_sequence(tmp_path / "list.json")


def test_construction_round_trip_tables_identical(workdir):
    cons, fibers = load_construction(workdir / "C.json")
    seq = load_sequence(workdir / "fact6.json")
    rebuilt = build_construction(seq, L=5, K=6, w=tuple(float(l) for l in range(1, 6)))
    assert fibers == 2
    assert cons.gaps == rebuilt.gaps
    assert cons.alphas1 == rebuilt.alphas1
    assert cons.lambdas == rebuilt.lambdas
    assert cons.certified


def test_stored_thetas_have_exact_and_decimal_forms(workdir):
    obj = json.loads((workdir / "C.json").read_text())
    assert len(obj["thetas_decimal"]) == 5
    for exact, dec in zip(obj["thetas"], obj["thetas_decimal"]):
        frac = fraction_from_string(exact)
        # the 30-digit rendering re-parses to the angle within its own rounding
        assert abs(Fraction(dec) - frac) <= Fraction(1, 10**28)


def test_decimal_string_has_thirty_significant_digits():
    text = decimal_string(Fraction(1, 3))
    digits = text.replace("0.", "")
    assert len(digits) == 30
    assert set(digits) == {"3"}


def test_fraction_from_string_rejects_junk():
    with pytest.raises(ConfigInvalid):
        fraction_from_string("1/0")
    with pytest.raises(ConfigInvalid):
        fraction_from_string("elephant")


def test_tampered_gap_table_is_caught(workdir, tmp_path):
    obj = json.loads((workdir / "C.json").read_text())
    obj["gaps"][0] *= 1.0000001
    (tmp_path / "tam.json").write_text(json.dumps(obj))
    with pytest.raises(ArtifactCorrupt):
        load_construction(tmp_path / "tam.json")


def test_retired_schedule_keys_are_ignored(workdir, tmp_path):
    obj = json.loads((workdir / "C.json").read_text())
    assert not {"model_C", "model_M", "i_decay"} & obj.keys()
    obj.update(model_C=1.0, model_M=[1.0] * 6, i_decay=0.5)
    (tmp_path / "old.json").write_text(json.dumps(obj))
    cons, _ = load_construction(tmp_path / "old.json")
    assert list(cons.alphas1) == obj["alphas_fiber1"]
    # alphas written under another fiber decay no longer match the recomputation
    obj.update(i_decay=0.25, alphas_fiber1=[a / 2 for a in obj["alphas_fiber1"]])
    (tmp_path / "old.json").write_text(json.dumps(obj))
    with pytest.raises(ArtifactCorrupt, match="alphas_fiber1"):
        load_construction(tmp_path / "old.json")


@pytest.mark.parametrize("kept", [0, 2, 3])
def test_stored_weights_fewer_than_levels_exit_one(workdir, tmp_path, capsys, kept):
    obj = json.loads((workdir / "C.json").read_text())
    assert len(obj["thetas"]) == 5
    obj["weights"] = obj["weights"][:kept]
    (tmp_path / "short.json").write_text(json.dumps(obj))
    rc = main([
        "verify", "--construction", str(tmp_path / "short.json"),
        "--powers", "3", "--out-dir", str(tmp_path / "out"),
    ])
    assert rc == 1
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def _verify_exit(path, capsys) -> tuple:
    rc = main(["verify", "--construction", str(path), "--powers", "3", "--out-dir", str(path.parent / "out")])
    return rc, capsys.readouterr().err


def test_appended_weight_exits_two(workdir, tmp_path, capsys):
    obj = json.loads((workdir / "C.json").read_text())
    assert len(obj["weights"]) == len(obj["thetas"]) - 1
    obj["weights"].append(777.0)
    (tmp_path / "long.json").write_text(json.dumps(obj))
    rc, err = _verify_exit(tmp_path / "long.json", capsys)
    assert rc == 2
    assert "artifact integrity failure: stored 'weights'" in err


def test_every_stored_weight_enters_a_table(workdir, tmp_path, capsys):
    obj = json.loads((workdir / "C.json").read_text())
    for index in range(len(obj["weights"])):
        edited = json.loads(json.dumps(obj))
        edited["weights"][index] *= 2.0
        (tmp_path / "w.json").write_text(json.dumps(edited))
        rc, err = _verify_exit(tmp_path / "w.json", capsys)
        assert rc == 2, index
        assert "artifact integrity failure: stored 'alphas_fiber1'" in err


def test_one_gap_table_per_load(workdir, monkeypatch):
    from jamison import construction

    calls = []
    real = construction.gaps_table

    def counting(thetas, upto):
        calls.append(upto)
        return real(thetas, upto)

    monkeypatch.setattr(construction, "gaps_table", counting)
    cons, _ = load_construction(workdir / "C.json")
    assert cons.certified
    assert calls == [5]


@pytest.mark.parametrize("horizon", [0, 7])
def test_stored_horizon_outside_the_sequence_exits_one(workdir, tmp_path, capsys, horizon):
    obj = json.loads((workdir / "C.json").read_text())
    obj["horizon"] = horizon
    (tmp_path / "h.json").write_text(json.dumps(obj))
    rc = main([
        "verify", "--construction", str(tmp_path / "h.json"),
        "--powers", "7", "--out-dir", str(tmp_path / "out"),
    ])
    assert rc == 1
    assert f"config error: horizon {horizon} outside 1..6" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_tampered_certified_flag_is_caught(workdir, tmp_path):
    obj = json.loads((workdir / "C.json").read_text())
    obj["certified"] = False
    (tmp_path / "tam.json").write_text(json.dumps(obj))
    with pytest.raises(ArtifactCorrupt):
        load_construction(tmp_path / "tam.json")


# An uncertified spectrum on factorials 1..6!: the budgets record honest failures.
UNCERTIFIED_THETAS = (Fraction(1, 23), Fraction(1, 31), Fraction(1, 41))


def _save_uncertified(workdir, path):
    from jamison.construction import ShiftConstruction

    seq = load_sequence(workdir / "fact6.json")
    save_construction(ShiftConstruction(seq, UNCERTIFIED_THETAS, (1.0, 2.0, 3.0), horizon=6), path)


def test_forged_certificate_exits_two_before_the_power_table(workdir, tmp_path, capsys, monkeypatch):
    _save_uncertified(workdir, tmp_path / "U.json")
    obj = json.loads((tmp_path / "U.json").read_text())
    for budget in obj["budgets"]:
        budget.update(gap_ratio_ok=True, eigvec_budget_ok=True, tail_sum_ok=True)
    obj["certified"] = True
    (tmp_path / "forged.json").write_text(json.dumps(obj))

    def no_table(*args, **kwargs):
        raise AssertionError("the power table ran on a forged certificate")

    monkeypatch.setattr(jamison.construction, "verify_partial_power_bound", no_table)
    rc = main([
        "verify", "--construction", str(tmp_path / "forged.json"),
        "--powers", "3", "--out-dir", str(tmp_path / "out"),
    ])
    assert rc == 2
    assert "artifact integrity failure" in capsys.readouterr().err


@pytest.mark.parametrize("kept", [3, 5])
def test_budget_list_not_one_per_level_exits_two(workdir, tmp_path, capsys, kept):
    obj = json.loads((workdir / "C.json").read_text())
    obj["budgets"] = (obj["budgets"] * 2)[:kept]
    (tmp_path / "short.json").write_text(json.dumps(obj))
    rc = main([
        "verify", "--construction", str(tmp_path / "short.json"),
        "--powers", "3", "--out-dir", str(tmp_path / "out"),
    ])
    assert rc == 2
    assert "artifact integrity failure: stored 'budgets' differs from" in capsys.readouterr().err


# eta_used is a key that files written before every budget was re-measured still carry
@pytest.mark.parametrize("field", ["eigvec_a", "eigvec_b", "tail_max", "eta_used"])
@pytest.mark.parametrize("bad", ["x", None])
def test_non_numeric_measurement_exits_one(workdir, tmp_path, capsys, field, bad):
    # the loader reads no stored measurement, so a non-numeric one is a corrupt file: exit 2
    obj = json.loads((workdir / "C.json").read_text())
    obj["budgets"][1][field] = bad
    (tmp_path / "bad.json").write_text(json.dumps(obj))
    rc = main([
        "verify", "--construction", str(tmp_path / "bad.json"),
        "--powers", "3", "--out-dir", str(tmp_path / "out"),
    ])
    assert rc == 2
    assert f"artifact integrity failure: stored 'budgets' differs at level 3 {field!r}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


FLAG_OF = {"eigvec_a": "eigvec_budget_ok", "eigvec_b": "eigvec_budget_ok", "tail_max": "tail_sum_ok"}


@pytest.mark.parametrize("field", sorted(FLAG_OF))
@pytest.mark.parametrize("source", ["L5", "L8"])
def test_forged_measurement_with_its_flag_exits_two_naming_level_and_field(workdir, tmp_path, capsys, field, source):
    # a measured value pushed past its budget, with its flag and certified set to agree,
    # is caught because the loader measures every level again
    path = workdir / "C.json" if source == "L5" else GOLDEN / "ladder/L8/L8.json"
    obj = json.loads(path.read_text())
    level = 4
    record = obj["budgets"][level - 2]
    budget = record["eigvec_budget" if field.startswith("eigvec") else "tail_budget"]
    record[field] = 2.0 * budget
    record[FLAG_OF[field]] = False
    obj["certified"] = False
    (tmp_path / "forged.json").write_text(json.dumps(obj))
    rc, err = _verify_exit(tmp_path / "forged.json", capsys)
    assert rc == 2
    assert f"artifact integrity failure: stored 'budgets' differs at level {level} {field!r}" in err


def test_stored_angle_a_whole_turn_off_exits_two(tmp_path, capsys):
    # the record reduces its angles mod 1 on entry, so one stored a turn away
    # rebuilds to a record whose angle list differs from the file's
    obj = json.loads((GOLDEN / "ladder/L8/L8.json").read_text())
    obj["thetas"][2] = str(Fraction(obj["thetas"][2]) + 1)
    (tmp_path / "turned.json").write_text(json.dumps(obj))
    rc, err = _verify_exit(tmp_path / "turned.json", capsys)
    assert rc == 2
    assert "stored 'thetas' differs from the record rebuilt from the chosen values" in err


@pytest.mark.parametrize("record", ["built", "from_parameters", "weight_file"])
def test_construction_save_load_save_is_byte_identical(workdir, tmp_path, record):
    first = tmp_path / "first.json"
    if record == "built":
        first = workdir / "C.json"
    elif record == "from_parameters":
        _save_uncertified(workdir, first)
    else:
        (tmp_path / "w.json").write_text(json.dumps([1.5, 0.7, 2.25, 1.0, 3.0]))
        assert main([
            "construct", "--sequence", str(workdir / "fact6.json"), "--levels", "5", "--horizon", "6",
            "--weights", str(tmp_path / "w.json"), "--out", str(first), "--out-dir", str(tmp_path / "out"),
        ]) == 0
    cons, fibers = load_construction(first)
    save_construction(cons, tmp_path / "again.json", fibers=fibers)
    assert (tmp_path / "again.json").read_bytes() == first.read_bytes()


# --- analyze ---------------------------------------------------------------------


def test_analyze_factorials_reports_vanishing(workdir, tmp_path, capsys):
    rc = main([
        "analyze", "--sequence", str(workdir / "fact6.json"),
        "--horizons", "4,5,6", "--resolution", "1e-5",
        "--out-dir", str(tmp_path),
    ])
    assert rc == 0
    report = read_report(tmp_path)
    assert report["command"] == "analyze"
    assert report["classification"]["verdict"] == "VANISHING"
    lines = (tmp_path / "decay.csv").read_text().splitlines()
    assert lines[0] == "K,epsilon_hat_torus,epsilon_hat_chord,witness_theta"
    assert len(lines) == 4
    assert "VANISHING" in capsys.readouterr().out


def test_analyze_integers_reports_separated(workdir, tmp_path):
    rc = main([
        "analyze", "--sequence", str(workdir / "ints100.json"),
        "--horizons", "10,50,100", "--resolution", "1e-5",
        "--out-dir", str(tmp_path),
    ])
    assert rc == 0
    report = read_report(tmp_path)
    assert report["classification"]["verdict"] == "SEPARATED"
    floors = [r["epsilon_hat_torus"] for r in report["classification"]["reports"]]
    assert all(f >= 0.30 for f in floors)


GOLDEN = Path(__file__).resolve().parent / "data"


def _analyze_case(name: str, seq: IndexSequence, horizons: str) -> tuple:
    return {f"{name}.json": seq}, [
        (0, ["analyze", "--sequence", f"{name}.json", "--horizons", horizons,
             "--resolution", "1e-6", "--out-dir", f"analyze/{name}"]),
    ]


def _ladder_case(L: int, p: str, lift: bool) -> tuple:
    case, fact = f"ladder/L{L}", IndexSequence.factorials(12)
    inputs = {"factorials.json": fact}
    commands = [
        (0, ["construct", "--sequence", "factorials.json", "--levels", str(L), "--horizon", str(L),
             "--fibers", "2", "--out", f"{case}/L{L}.json", "--out-dir", f"{case}/construct"]),
        (0, ["verify", "--construction", f"{case}/L{L}.json", "--p", p, "--powers", str(L),
             "--out-dir", f"{case}/verify"]),
    ]
    if lift:
        inputs["real.json"] = IndexSequence((1.0,) + tuple(n + 0.5 for n in fact.terms[1:]), "real")
        commands.append(
            (0, ["semigroup", "--construction", f"{case}/L{L}.json", "--powers", str(L),
                 "--real-sequence", "real.json", "--out-dir", f"{case}/semigroup"])
        )
    return inputs, commands


def _starnorm_case(mode: str, J: int, count: int) -> tuple:
    return {"factorials.json": IndexSequence.factorials(12)}, [
        (0, ["starnorm", "--sequence", "factorials.json", "--mode", mode, "--J", str(J), "--K", "6",
             "--count", str(count), "--seed", "7", "--out-dir", f"starnorm/{mode}"]),
    ]


# case -> (input sequences, [(exit code, argv)]).  Every command writes below
# the case directory, and every file there is compared with tests/data/<case>.
# To record a case, call run_golden_case in an empty directory with the code
# before a change and copy the case directory into tests/data.
GOLDEN_CASES = {
    "analyze/integers": _analyze_case("integers", IndexSequence.integers_up_to(1000), "10,100,1000"),
    "analyze/factorials": _analyze_case("factorials", IndexSequence.factorials(12), "6,8,10"),
    "analyze/powers2": _analyze_case("powers2", IndexSequence.powers_of_two(12), "4,8,12"),
    "ladder/L8": _ladder_case(8, "inf", lift=True),
    "ladder/L9": _ladder_case(9, "2", lift=False),
    "construct/powers2": ({"powers2.json": IndexSequence.powers_of_two(12)}, [
        (3, ["construct", "--sequence", "powers2.json", "--levels", "8", "--horizon", "12",
             "--out", "construct/powers2/C.json", "--out-dir", "construct/powers2"]),
    ]),
    "starnorm/bound": _starnorm_case("bound", 1, 2),
    "starnorm/pairs": _starnorm_case("pairs", 2, 5),
    "starnorm/field": _starnorm_case("field", 1, 3),
}


def _without_timestamp(text: str) -> list:
    return [line for line in text.splitlines() if not line.lstrip().startswith('"timestamp"')]


def run_golden_case(case: str) -> None:
    """Write the case's inputs to the working directory and run its commands there."""
    inputs, commands = GOLDEN_CASES[case]
    Path(case).mkdir(parents=True)
    for name, seq in inputs.items():
        write_json(name, seq.to_json_dict())
    for rc, argv in commands:
        assert main(argv) == rc, argv


def _artifacts(root: Path) -> dict:
    """Every file below root by relative path: JSON as lines without the timestamp, the rest as bytes."""
    return {
        path.relative_to(root).as_posix(): (
            _without_timestamp(path.read_text(encoding="utf-8")) if path.suffix == ".json" else path.read_bytes()
        )
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


@pytest.mark.parametrize("case", sorted(GOLDEN_CASES), ids=lambda case: case.replace("/", "-"))
def test_reports_match_golden_bytes(tmp_path, monkeypatch, case):
    # recorded before each refactor of the scans and records; reports must keep their bytes
    monkeypatch.chdir(tmp_path)
    run_golden_case(case)
    got, want = _artifacts(tmp_path / case), _artifacts(GOLDEN / case)
    assert sorted(got) == sorted(want)
    for name in want:
        assert got[name] == want[name], name


@pytest.mark.parametrize("resolution", ["1e-300"])
def test_analyze_unscannable_resolution_exits_one_quickly(tmp_path, resolution):
    # 1e-300 is below the double spacing at 1/2
    write_json(tmp_path / "powers2.json", IndexSequence.powers_of_two(12).to_json_dict())
    src = str(Path(jamison.__file__).resolve().parent.parent)
    argv = [
        "analyze", "--sequence", str(tmp_path / "powers2.json"), "--horizons", "4",
        "--resolution", resolution, "--out-dir", str(tmp_path),
    ]
    code = f"import sys; sys.path.insert(0, {src!r}); from jamison.cli import main; sys.exit(main({argv!r}))"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
    assert out.returncode == 1
    assert "config error" in out.stderr and "resolution" in out.stderr


def test_analyze_fine_resolution_certifies(tmp_path):
    # the interval's width, not a grid's size, is what --resolution sets
    write_json(tmp_path / "powers2.json", IndexSequence.powers_of_two(12).to_json_dict())
    rc = main([
        "analyze", "--sequence", str(tmp_path / "powers2.json"), "--horizons", "4",
        "--resolution", "1e-10", "--out-dir", str(tmp_path),
    ])
    assert rc == 0
    (rep,) = read_report(tmp_path)["classification"]["reports"]
    assert rep["lower_bound_torus"] <= 1.0 / 3.0 <= rep["epsilon_hat_torus"] <= rep["lower_bound_torus"] + 1e-10
    assert "refine_steps" not in read_report(tmp_path)["config"]


def test_analyze_refine_steps_is_gone(workdir, tmp_path, capsys):
    rc = main([
        "analyze", "--sequence", str(workdir / "fact6.json"), "--refine-steps", "10",
        "--out-dir", str(tmp_path),
    ])
    assert rc == 1
    assert "--refine-steps" in capsys.readouterr().err


def test_analyze_bad_horizon_list_is_config_error(workdir, tmp_path, capsys):
    rc = main([
        "analyze", "--sequence", str(workdir / "fact6.json"),
        "--horizons", "4,five,6", "--out-dir", str(tmp_path),
    ])
    assert rc == 1
    assert "config error" in capsys.readouterr().err


# --- construct -------------------------------------------------------------------


def test_construct_writes_certified_artifact(workdir):
    report = read_report(workdir / "construct")
    assert report["status"] == "certified"
    assert report["construction"]["certified"] is True
    assert (workdir / "C.json").exists()


def test_construct_makes_missing_out_directory(workdir, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    rc = main([
        "construct", "--sequence", str(workdir / "fact6.json"), "--levels", "5",
        "--horizon", "6", "--out", "missing/C.json", "--out-dir", "od",
    ])
    assert rc == 0
    assert (tmp_path / "missing" / "C.json").read_bytes() == (workdir / "C.json").read_bytes()
    assert read_report(tmp_path / "od")["status"] == "certified"


def test_construct_on_integers_exits_infeasible(workdir, tmp_path, capsys):
    rc = main([
        "construct", "--sequence", str(workdir / "ints100.json"),
        "--levels", "5", "--weights", "linear",
        "--out", str(tmp_path / "X.json"), "--out-dir", str(tmp_path),
    ])
    assert rc == 3
    report = read_report(tmp_path)
    assert report["status"] == "infeasible"
    assert report["level"] <= 3
    assert "infeasible" in capsys.readouterr().err
    assert not (tmp_path / "X.json").exists()


def test_construct_names_the_eigvec_precheck_that_tiny_weights_fail(tmp_path, capsys):
    # weights of 1e-3 put level 3's offset-independent chain coefficient past its budget
    write_json(tmp_path / "seq.json", IndexSequence.factorials(6).to_json_dict())
    (tmp_path / "w.json").write_text(json.dumps([1e-3] * 5))
    rc = main([
        "construct", "--sequence", str(tmp_path / "seq.json"), "--levels", "6", "--horizon", "6",
        "--weights", str(tmp_path / "w.json"), "--out", str(tmp_path / "X.json"), "--out-dir", str(tmp_path),
    ])
    assert rc == 3
    report = read_report(tmp_path)
    assert (report["status"], report["level"], report["predicate"]) == ("infeasible", 3, "eigvec_budget")
    assert "offset-independent chain coefficient" in capsys.readouterr().err
    assert not (tmp_path / "X.json").exists()


def test_construct_names_the_predicate_its_candidates_fail(tmp_path, monkeypatch, capsys):
    # a fixed search target admits candidates far past the deeper levels' budgets: each trial
    # record fails, and the level ends after SEARCH_ROUNDS naming the predicate the last one failed
    failed = []
    judge = jamison.construction.LevelBudget.judge

    def recorded(*args):
        record = judge(*args)
        failed.append((record.level, record.failing_predicate()))
        return record

    monkeypatch.setattr(jamison.construction, "_level_search_target", lambda *args: 0.05)
    monkeypatch.setattr(jamison.construction.LevelBudget, "judge", recorded)
    write_json(tmp_path / "seq.json", IndexSequence.factorials(6).to_json_dict())
    rc = main([
        "construct", "--sequence", str(tmp_path / "seq.json"), "--levels", "6", "--horizon", "6",
        "--out", str(tmp_path / "X.json"), "--out-dir", str(tmp_path),
    ])
    assert rc == 3
    report = read_report(tmp_path)
    assert (report["status"], report["level"], report["predicate"]) == ("infeasible", 4, "gap_ratio")
    assert "no candidate passed within 6 search rounds" in capsys.readouterr().err
    assert failed[-1] == (4, "gap_ratio")


def test_construct_never_writes_an_uncertified_record(tmp_path, capsys, monkeypatch):
    # a measurement under which the full record reads level 2's tail far above what its
    # 2-level trial read: the build stops instead of returning that record
    honest = jamison.construction._tail_table

    def deeper_reads_worse(powers, w, gaps):
        table = honest(powers, w, gaps)
        if table.shape[1] > 1:  # a record deeper than 2 levels
            table[:, 0] += 1e6
        return table

    monkeypatch.setattr(jamison.construction, "_tail_table", deeper_reads_worse)
    write_json(tmp_path / "seq.json", IndexSequence.factorials(5).to_json_dict())
    rc = main([
        "construct", "--sequence", str(tmp_path / "seq.json"), "--levels", "5", "--horizon", "5",
        "--out", str(tmp_path / "X.json"), "--out-dir", str(tmp_path),
    ])
    assert rc == 2
    err = capsys.readouterr().err
    assert "invariant failure: the built record fails level 2 'tail_sum_ok'" in err
    assert json.loads(err[err.index("{"):])["tail_sum_ok"] is False
    assert not (tmp_path / "X.json").exists()


# SHA-256 of the 2^(k(k-1)/2) construction files, recorded before the budgets read one tail table
TRIANGULAR_SHA256 = {
    9: "f0992c153b66252f0011dab93d59b62905ffb9d6c9a6e8a9f6b00b37d62971ec",
    10: "2ab9691f9ef0727b69f2ebd935db1dec0d4cd4ed7f2ce4a1654fe2a2e6433570",
}


def test_triangular_exponents_construct_verify_and_lift(tmp_path):
    # n_k = 2^(k(k-1)/2): interleaved clusters from n = 2^28 on; L = 11 needs a gap below
    # the normal double range
    seq = IndexSequence(tuple(2 ** (k * (k - 1) // 2) for k in range(1, 12)))
    write_json(tmp_path / "seq.json", seq.to_json_dict())
    for L in (9, 10, 11):
        cons, out = str(tmp_path / f"C{L}.json"), tmp_path / f"L{L}"
        rc = main([
            "construct", "--sequence", str(tmp_path / "seq.json"), "--levels", str(L), "--horizon", str(L),
            "--fibers", "2", "--out", cons, "--out-dir", str(out / "construct"),
        ])
        if L == 11:
            assert rc == 3
            assert read_report(out / "construct")["predicate"] == "float_range"
            assert not Path(cons).exists()
            continue
        assert rc == 0
        assert hashlib.sha256(Path(cons).read_bytes()).hexdigest() == TRIANGULAR_SHA256[L]
        assert main(["verify", "--construction", cons, "--p", "2", "--powers", str(L),
                     "--out-dir", str(out / "verify")]) == 0
        assert main(["semigroup", "--construction", cons, "--powers", str(L),
                     "--out-dir", str(out / "semigroup")]) == 0


@pytest.mark.parametrize("seq, target", [
    (IndexSequence.factorials(6), 0.0),
    (IndexSequence.powers_of_two(6), 1e-306),
])
def test_construct_refuses_search_targets_below_the_double_range(tmp_path, monkeypatch, capsys, seq, target):
    # 0.0 is what factorials reach at level 14; on 2^k, 1e-306 finds nothing and
    # shrinks sixteen-fold into the subnormals by the third round
    write_json(tmp_path / "seq.json", seq.to_json_dict())
    monkeypatch.setattr(jamison.construction, "_level_search_target", lambda *args: target)
    rc = main([
        "construct", "--sequence", str(tmp_path / "seq.json"), "--levels", "3", "--horizon", "6",
        "--out", str(tmp_path / "X.json"), "--out-dir", str(tmp_path),
    ])
    assert rc == 3
    report = read_report(tmp_path)
    assert (report["status"], report["level"], report["predicate"]) == ("infeasible", 2, "float_range")
    assert "float_range" in capsys.readouterr().err


@pytest.mark.parametrize("k", [150, 155, 160, 300])
def test_construct_terms_past_the_double_range_end_in_float_range(tmp_path, capsys, k):
    # level 3 needs a gap near 10^-2k: at 10^150 the witnesses' chords read 0.0, and from
    # 10^155 on the binomial C(10^k, 2) in its search target is past the double range
    write_json(tmp_path / "seq.json", IndexSequence((1, 2, 10 ** k)).to_json_dict())
    rc = main([
        "construct", "--sequence", str(tmp_path / "seq.json"), "--levels", "3",
        "--out", str(tmp_path / "X.json"), "--out-dir", str(tmp_path),
    ])
    assert rc == 3
    report = read_report(tmp_path)
    assert (report["status"], report["level"], report["predicate"]) == ("infeasible", 3, "float_range")
    assert "float_range" in capsys.readouterr().err
    assert not (tmp_path / "X.json").exists()


def test_construct_ends_a_level_whose_candidate_gaps_all_underflow(tmp_path, monkeypatch, capsys):
    # at 10^150 each level-3 candidate's chord to its parent reads 0.0 in the first round;
    # smaller targets cannot offer larger gaps, so the level ends there and names the gap
    targets = []
    search = jamison.construction.near_return_search

    def counted(seq, K, eta, **kwargs):
        targets.append(eta)
        return search(seq, K, eta, **kwargs)

    monkeypatch.setattr(jamison.construction, "near_return_search", counted)
    write_json(tmp_path / "seq.json", IndexSequence((1, 2, 10 ** 150)).to_json_dict())
    rc = main([
        "construct", "--sequence", str(tmp_path / "seq.json"), "--levels", "3",
        "--out", str(tmp_path / "X.json"), "--out-dir", str(tmp_path),
    ])
    assert rc == 3
    report = read_report(tmp_path)
    assert (report["status"], report["level"], report["predicate"]) == ("infeasible", 3, "float_range")
    assert "largest candidate gap to the parent 0.0 is below the normal double range" in capsys.readouterr().err
    assert len(targets) == 2  # level 2's one round and level 3's first


def test_a_term_near_the_top_of_the_double_range_builds_verifies_and_lifts(tmp_path):
    # every node its own cluster at n = 10^300, whose binomial C(n, 2) is no double
    write_json(tmp_path / "seq.json", IndexSequence((1, 2, 10 ** 300)).to_json_dict())
    write_json(tmp_path / "real.json", IndexSequence((1.0, 2.5, 1e300), "real").to_json_dict())
    cons = str(tmp_path / "C.json")
    assert main([
        "construct", "--sequence", str(tmp_path / "seq.json"), "--levels", "2",
        "--out", cons, "--out-dir", str(tmp_path / "construct"),
    ]) == 0
    assert main(["verify", "--construction", cons, "--powers", "3", "--out-dir", str(tmp_path / "verify")]) == 0
    assert main([
        "semigroup", "--construction", cons, "--real-sequence", str(tmp_path / "real.json"),
        "--powers", "3", "--out-dir", str(tmp_path / "semigroup"),
    ]) == 0


def test_construct_weight_file(workdir, tmp_path):
    (tmp_path / "w.json").write_text("[1.0, 2.0, 3.0, 4.0, 5.0]")
    rc = main([
        "construct", "--sequence", str(workdir / "fact6.json"),
        "--levels", "5", "--weights", str(tmp_path / "w.json"),
        "--horizon", "6", "--out", str(tmp_path / "C.json"),
        "--out-dir", str(tmp_path),
    ])
    assert rc == 0
    obj = json.loads((tmp_path / "C.json").read_text())
    assert obj["weights"] == [1.0, 2.0, 3.0, 4.0]


def test_construct_weight_file_of_one_weight_per_band(workdir, tmp_path):
    # five levels have four bands, so w_1..w_4 suffice and a fifth weight changes nothing
    for name, weights in (("four", [1.5, 0.7, 2.25, 1.0]), ("five", [1.5, 0.7, 2.25, 1.0, 3.0])):
        (tmp_path / f"{name}.json").write_text(json.dumps(weights))
        assert main([
            "construct", "--sequence", str(workdir / "fact6.json"), "--levels", "5", "--horizon", "6",
            "--weights", str(tmp_path / f"{name}.json"), "--out", str(tmp_path / f"C_{name}.json"),
            "--out-dir", str(tmp_path / name),
        ]) == 0
    stored = json.loads((tmp_path / "C_four.json").read_text())
    assert stored["weights"] == [1.5, 0.7, 2.25, 1.0]
    assert stored["certified"]
    assert (tmp_path / "C_four.json").read_bytes() == (tmp_path / "C_five.json").read_bytes()


def test_construct_boolean_weights_are_config_error(workdir, tmp_path, capsys):
    (tmp_path / "w.json").write_text("[true, true, true, true]")
    rc = main([
        "construct", "--sequence", str(workdir / "fact6.json"),
        "--levels", "5", "--weights", str(tmp_path / "w.json"), "--horizon", "6",
        "--out", str(tmp_path / "C.json"), "--out-dir", str(tmp_path / "out"),
    ])
    assert rc == 1
    assert "config error: weight file" in capsys.readouterr().err
    assert not (tmp_path / "C.json").exists()


@pytest.mark.parametrize("huge", ["1e400", "1" + "0" * 400], ids=["float", "int"])
def test_construct_weight_past_the_double_range_is_config_error(workdir, tmp_path, capsys, huge):
    # JSON reads 1e400 as inf and the 401-digit literal as an int that no double holds
    (tmp_path / "w.json").write_text(f"[{huge}, 2, 3, 4, 5]")
    rc = main([
        "construct", "--sequence", str(workdir / "fact6.json"),
        "--levels", "5", "--weights", str(tmp_path / "w.json"), "--horizon", "6",
        "--out", str(tmp_path / "C.json"), "--out-dir", str(tmp_path / "out"),
    ])
    assert rc == 1
    assert "config error: all level weights must be positive and finite" in capsys.readouterr().err
    assert not (tmp_path / "C.json").exists()


_SUBNORMAL = "config error: level weight {} is below the normal double range"
# (command, weight index, weight) -> (exit code, start of stderr): a weight whose fiber-1 shift
# weight underflows.  A subnormal is refused up front, and a normal weight whose band still
# underflows through its gap ratio fails the load as a payload error; a band that stays a double
# rebuilds to other alphas_fiber1 than the file stores
UNDERFLOWING_WEIGHTS = {
    ("verify", 0, 1e-320): (1, _SUBNORMAL.format(1e-320)),
    ("semigroup", 0, 1e-320): (1, _SUBNORMAL.format(1e-320)),
    ("verify", 2, 5e-324): (1, _SUBNORMAL.format(5e-324)),
    ("semigroup", 6, 5e-324): (1, _SUBNORMAL.format(5e-324)),
    ("verify", 6, 1e-300): (1, "config error: bad construction payload: ZeroDivisionError("),
    ("semigroup", 6, 1e-300): (1, "config error: bad construction payload: ZeroDivisionError("),
    ("construct", 0, 1e-320): (1, _SUBNORMAL.format(1e-320)),
    ("construct", 2, 5e-324): (1, _SUBNORMAL.format(5e-324)),
    ("construct", 6, 5e-324): (1, _SUBNORMAL.format(5e-324)),
    ("verify", 2, 1e-200): (2, "artifact integrity failure: stored 'alphas_fiber1' differs"),
}


@pytest.mark.parametrize("command, index, weight", sorted(UNDERFLOWING_WEIGHTS))
def test_a_weight_whose_band_underflows_exits_with_its_code(tmp_path, capsys, command, index, weight):
    if command == "construct":
        weights = [float(l) for l in range(1, 8)]
        weights[index] = weight
        (tmp_path / "w.json").write_text(json.dumps(weights))
        write_json(tmp_path / "fact.json", IndexSequence.factorials(12).to_json_dict())
        argv = ["construct", "--sequence", str(tmp_path / "fact.json"), "--levels", "8", "--horizon", "8",
                "--weights", str(tmp_path / "w.json"), "--out", str(tmp_path / "C.json")]
    else:
        obj = json.loads((GOLDEN / "ladder/L8/L8.json").read_text())
        obj["weights"][index] = weight
        (tmp_path / "C.json").write_text(json.dumps(obj))
        argv = [command, "--construction", str(tmp_path / "C.json"), "--powers", "8"]
    code, label = UNDERFLOWING_WEIGHTS[command, index, weight]
    assert main(argv + ["--out-dir", str(tmp_path / "out")]) == code
    assert capsys.readouterr().err.startswith(label)


def test_construct_bad_weight_file_is_config_error(workdir, tmp_path):
    (tmp_path / "w.json").write_text("{\"w\": 1}")
    rc = main([
        "construct", "--sequence", str(workdir / "fact6.json"),
        "--levels", "5", "--weights", str(tmp_path / "w.json"),
        "--out", str(tmp_path / "C.json"), "--out-dir", str(tmp_path),
    ])
    assert rc == 1


# --- verify ----------------------------------------------------------------------


def test_verify_certified_construction(workdir, tmp_path):
    rc = main([
        "verify", "--construction", str(workdir / "C.json"),
        "--p", "2", "--powers", "6", "--out-dir", str(tmp_path),
    ])
    assert rc == 0
    report = read_report(tmp_path)
    assert report["report"]["all_ok"] is True
    lines = (tmp_path / "powers.csv").read_text().splitlines()
    assert lines[0] == "k,n_k,norm_diff,norm_T,analytic_bound"
    assert len(lines) == 7


def test_verify_powers_beyond_horizon_is_config_error(workdir, tmp_path):
    rc = main([
        "verify", "--construction", str(workdir / "C.json"),
        "--powers", "99", "--out-dir", str(tmp_path),
    ])
    assert rc == 1


def test_verify_tampered_artifact_exits_two(workdir, tmp_path, capsys):
    obj = json.loads((workdir / "C.json").read_text())
    obj["alphas_fiber1"][0] *= 1.0000001
    (tmp_path / "tam.json").write_text(json.dumps(obj))
    rc = main([
        "verify", "--construction", str(tmp_path / "tam.json"),
        "--powers", "6", "--out-dir", str(tmp_path),
    ])
    assert rc == 2
    assert "integrity" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["verify", "semigroup"])
@pytest.mark.parametrize("bad", [2.5, "2", 0, -3, True, 10**7, pytest.param(10**400, id="10**400")])
def test_bad_stored_fibers_exit_one(workdir, tmp_path, capsys, command, bad):
    obj = json.loads((workdir / "C.json").read_text())
    obj["fibers"] = bad
    (tmp_path / "bad.json").write_text(json.dumps(obj))
    rc = main([
        command, "--construction", str(tmp_path / "bad.json"),
        "--powers", "3", "--out-dir", str(tmp_path / "out"),
    ])
    assert rc == 1
    assert "fibers must be a positive integer" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_stored_fibers_bound_is_inclusive(workdir):
    obj = json.loads((workdir / "C.json").read_text())
    obj["fibers"] = MAX_FIBERS
    assert construction_from_json_dict(obj)[1] == MAX_FIBERS
    obj["fibers"] = MAX_FIBERS + 1
    with pytest.raises(ConfigInvalid):
        construction_from_json_dict(obj)


def test_stored_file_without_fibers_loads_with_two(workdir):
    obj = json.loads((workdir / "C.json").read_text())
    del obj["fibers"]
    assert construction_from_json_dict(obj)[1] == 2


def test_construct_too_many_fibers_exit_one(workdir, tmp_path, capsys):
    rc = main([
        "construct", "--sequence", str(workdir / "fact6.json"),
        "--levels", "5", "--fibers", str(MAX_FIBERS + 1), "--horizon", "6",
        "--out", str(tmp_path / "C.json"), "--out-dir", str(tmp_path / "out"),
    ])
    assert rc == 1
    assert f"must be between 1 and {MAX_FIBERS}" in capsys.readouterr().err
    assert not (tmp_path / "C.json").exists()


def test_construct_checks_fibers_before_the_build(workdir, tmp_path, capsys, monkeypatch):
    def no_build(*args, **kwargs):
        raise AssertionError("the build ran before --fibers was checked")

    monkeypatch.setattr(jamison.construction, "build_construction", no_build)
    rc = main([
        "construct", "--sequence", str(workdir / "fact6.json"), "--levels", "12", "--horizon", "6",
        "--fibers", "0", "--out", str(tmp_path / "C.json"), "--out-dir", str(tmp_path / "out"),
    ])
    assert rc == 1
    assert f"fiber count 0 must be between 1 and {MAX_FIBERS}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_verify_uncertified_construction_is_config_error(workdir, tmp_path):
    from jamison.construction import ShiftConstruction

    seq = load_sequence(workdir / "fact6.json")
    cons = ShiftConstruction(
        seq,
        [Fraction(1, 23), Fraction(1, 31), Fraction(1, 41)],
        (1.0, 2.0, 3.0),
        horizon=6,
    )
    assert not cons.certified
    save_construction(cons, tmp_path / "U.json")
    rc = main([
        "verify", "--construction", str(tmp_path / "U.json"),
        "--powers", "3", "--out-dir", str(tmp_path),
    ])
    assert rc == 1


# --- semigroup -------------------------------------------------------------------


def test_semigroup_lift_and_bounded(workdir, tmp_path):
    rc = main([
        "semigroup", "--construction", str(workdir / "C.json"),
        "--real-sequence", str(workdir / "half.json"),
        "--powers", "6", "--out-dir", str(tmp_path),
    ])
    assert rc == 0
    report = read_report(tmp_path)
    assert all(report["checks"].values())
    assert report["lift"]["lattice"]["all_ok"] is True
    assert report["lift"]["spectrum"]["all_ok"] is True
    assert report["bounded"]["all_ok"] is True
    lines = (tmp_path / "generator.csv").read_text().splitlines()
    assert lines[0] == "row,col,re,im"
    levels = report["lift"]["semigroup"]["levels"]
    assert len(lines) == 1 + levels * levels


# SHA-256 of each rung's construction file, recorded before the refactors
# that must leave it byte-identical
DEEP_LADDER_SHA256 = {
    10: "f60ec2aca5394dc162545c5db43490f8909e7ae624eeb97399422bec39b512a3",
    11: "7f70bf456ca3cd534d839f26da041291c1520a41bd243743e2b7d92102a6e75d",
    12: "f828a25c4f16c6060f05b348022dc5a7c9337bffaf697e227dc3bdce845cd795",
    13: "706dce751d56dbdd38ee49510ba05565533468ab758c7566d61c1e85dd5a1eef",
}
# SHA-256 of each rung's verify --p 2 powers.csv, recorded before the budgets and verify read one
# tail table
DEEP_LADDER_POWERS_SHA256 = {
    10: "26b31506fce451629ce68786cf6dd5d05182ed0a1d565193688d7f82f87d1413",
    11: "4e9cd5e26eaea837d02347dcfd7b4cfb4c78f3333813f7e243b016577ecc2ae9",
    12: "31aac30fcf079848c0c427249d4e7a09e62e06686178169281d898e4945b4922",
    13: "3357b56ba4d0bddd3ab1fb06db2e2d1adfe78b896216f19573a99f6bb01ab4c4",
}


@pytest.mark.parametrize("L", sorted(DEEP_LADDER_SHA256))
def test_deep_ladder_constructs_verifies_and_lifts(tmp_path, L):
    write_json(tmp_path / "fact13.json", IndexSequence.factorials(13).to_json_dict())
    cons = str(tmp_path / "C.json")
    assert main([
        "construct", "--sequence", str(tmp_path / "fact13.json"), "--levels", str(L),
        "--horizon", str(L), "--out", cons, "--out-dir", str(tmp_path / "construct"),
    ]) == 0
    assert hashlib.sha256(Path(cons).read_bytes()).hexdigest() == DEEP_LADDER_SHA256[L]
    assert main([
        "verify", "--construction", cons, "--p", "2", "--powers", str(L),
        "--out-dir", str(tmp_path / "verify"),
    ]) == 0
    powers = (tmp_path / "verify" / "powers.csv").read_bytes()
    assert hashlib.sha256(powers).hexdigest() == DEEP_LADDER_POWERS_SHA256[L]
    assert main([
        "semigroup", "--construction", cons, "--powers", str(L),
        "--out-dir", str(tmp_path / "semigroup"),
    ]) == 0
    rows = read_report(tmp_path / "semigroup")["lift"]["lattice"]["rows"]
    assert len(rows) == L
    assert max(row["rel_err"] for row in rows) <= 1e-13


def _counted(monkeypatch, fn) -> list:
    """Route every binding of fn in the package's modules through a counter: the list of their calls."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name == "jamison" or name.startswith("jamison."):
            for attr, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, attr, counting)
    return calls


def _ladder_inputs(d: Path) -> tuple:
    """The L8 golden ladder's inputs: factorials and their half offsets, as files under d."""
    fact = IndexSequence.factorials(12)
    write_json(d / "fact.json", fact.to_json_dict())
    write_json(d / "half.json", IndexSequence((1.0,) + tuple(n + 0.5 for n in fact.terms[1:]), "real").to_json_dict())
    return str(d / "fact.json"), str(d / "half.json")


def test_each_command_calls_the_kernel_once_per_set_of_times(tmp_path, monkeypatch):
    # construct: one funm.apply per trial record (its powers); verify: the load's
    # powers; semigroup: the load, the log, the lattice, the grid and the bounded times.
    # Each record forms one tail table, which its budgets and verify's bounds read.
    fact, half = _ladder_inputs(tmp_path)
    cons = str(tmp_path / "C.json")
    calls = _counted(monkeypatch, funm.apply)
    tables = _counted(monkeypatch, jamison.construction._tail_table)
    records = []
    honest = ShiftConstruction.__post_init__

    def recording(self):
        records.append(self)
        honest(self)

    monkeypatch.setattr(ShiftConstruction, "__post_init__", recording)
    assert main(["construct", "--sequence", fact, "--levels", "8", "--horizon", "8", "--fibers", "2",
                 "--out", cons, "--out-dir", str(tmp_path / "construct")]) == 0
    assert 0 < len(calls) <= len(records)
    assert len(tables) == len(records)
    golden = str(GOLDEN / "ladder/L8/L8.json")
    calls.clear()
    tables.clear()
    assert main(["verify", "--construction", golden, "--p", "inf", "--powers", "8",
                 "--out-dir", str(tmp_path / "verify")]) == 0
    assert len(calls) == len(tables) == 1
    calls.clear()
    assert main(["semigroup", "--construction", golden, "--powers", "8", "--real-sequence", half,
                 "--out-dir", str(tmp_path / "semigroup")]) == 0
    assert len(calls) <= 5


def test_a_semigroup_command_builds_one_node_set(tmp_path, monkeypatch):
    # the record's node set serves its powers, and assemble_operator hands it to the operator
    _, half = _ladder_inputs(tmp_path)
    built = []
    honest = funm.NodeSet.__init__

    def counting(self, row):
        built.append(row)
        honest(self, row)

    monkeypatch.setattr(funm.NodeSet, "__init__", counting)
    assert main(["semigroup", "--construction", str(GOLDEN / "ladder/L8/L8.json"), "--powers", "8",
                 "--real-sequence", half, "--out-dir", str(tmp_path / "semigroup")]) == 0
    assert len(built) == 1


def test_semigroup_lifts_alike_at_every_fiber_count(tmp_path):
    # fiber 11's band products at L = 13 are subnormal; every fiber block is fiber 1's rescaled,
    # so the lift, its checks and generator.csv are fiber 1's whatever the count
    seq = IndexSequence.factorials(13)
    cons = build_construction(seq, L=13, K=13, w=tuple(float(l) for l in range(1, 13)))
    half = IndexSequence((1.0,) + tuple(n + 0.5 for n in seq.terms[1:]), "real")
    write_json(tmp_path / "half.json", half.to_json_dict())
    lifts = {}
    for I in (2, 11, 12):
        save_construction(cons, tmp_path / f"C{I}.json", fibers=I)
        assert main([
            "semigroup", "--construction", str(tmp_path / f"C{I}.json"), "--real-sequence",
            str(tmp_path / "half.json"), "--powers", "13", "--out-dir", str(tmp_path / f"I{I}"),
        ]) == 0
        report = read_report(tmp_path / f"I{I}")
        spectrum = report["lift"]["spectrum"]
        assert len(spectrum["rows"]) == 13
        lifts[I] = (report["lift"]["lattice"], report["lift"]["semigroup"]["roundtrip_error"], report["bounded"], spectrum)
    assert lifts[11] == lifts[2] and lifts[12] == lifts[2]
    generator = (tmp_path / "I2" / "generator.csv").read_bytes()
    assert (tmp_path / "I11" / "generator.csv").read_bytes() == generator
    assert (tmp_path / "I12" / "generator.csv").read_bytes() == generator


# SHA-256 of the level-major LI x LI generator.csv that semigroup wrote for the L8 golden ladder at
# I = 2 and 7, before the file listed fiber 1 alone: slot (i, l) at row (l-1)*I + (i-1), fiber i's
# block fiber 1's rescaled, zeros between fibers
LEVEL_MAJOR_GENERATOR_SHA256 = {
    2: "e4b9e12d92d40ae9608c591657ec5091a847fea6f48a53433b5a0736e58163d2",
    7: "69d79e0cd847df9ce444917b53f0b9629125357760c29404f8a787097f8854c4",
}


def _level_major_generator(path, I: int) -> str:
    """The level-major LI x LI generator.csv text, rebuilt from fiber 1's L x L file and the fiber count I."""
    rows = list(csv.reader(Path(path).read_text().splitlines()))[1:]
    L = math.isqrt(len(rows))
    G = np.array([complex(float(re), float(im)) for _, _, re, im in rows]).reshape(L, L)
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(("row", "col", "re", "im"))
    for r in range(L * I):
        row = fiber_rescaled(G, r % I + 1)[r // I].tolist()
        for c in range(L * I):
            z = row[c // I] if c % I == r % I else 0j
            writer.writerow((r, c, z.real, z.imag))
    return out.getvalue()


@pytest.mark.parametrize("I", sorted(LEVEL_MAJOR_GENERATOR_SHA256))
def test_fiber_one_generator_rebuilds_the_level_major_file(tmp_path, I):
    # the L x L file, the fiber count and the fiber decay give back every fiber's block, bit for bit
    _, half = _ladder_inputs(tmp_path)
    obj = json.loads((GOLDEN / "ladder/L8/L8.json").read_text())
    obj["fibers"] = I
    write_json(tmp_path / "C.json", obj)
    assert main(["semigroup", "--construction", str(tmp_path / "C.json"), "--powers", "8",
                 "--real-sequence", half, "--out-dir", str(tmp_path / "semigroup")]) == 0
    lift = read_report(tmp_path / "semigroup")["lift"]["semigroup"]
    assert (lift["fibers"], lift["fiber_decay"], lift["dim"]) == (I, FIBER_DECAY, 8 * I)
    text = _level_major_generator(tmp_path / "semigroup" / "generator.csv", lift["fibers"])
    assert hashlib.sha256(text.encode()).hexdigest() == LEVEL_MAJOR_GENERATOR_SHA256[I]


def test_semigroup_at_the_largest_fiber_count_writes_fiber_one(workdir, tmp_path):
    obj = json.loads((workdir / "C.json").read_text())
    obj["fibers"] = MAX_FIBERS
    write_json(tmp_path / "C.json", obj)
    assert main(["semigroup", "--construction", str(tmp_path / "C.json"), "--powers", "6",
                 "--out-dir", str(tmp_path / "out")]) == 0
    assert len((tmp_path / "out" / "generator.csv").read_text().splitlines()) == 1 + 5 * 5
    assert len(read_report(tmp_path / "out")["lift"]["spectrum"]["rows"]) == 5


def test_semigroup_without_real_sequence(workdir, tmp_path):
    rc = main([
        "semigroup", "--construction", str(workdir / "C.json"),
        "--powers", "6", "--out-dir", str(tmp_path),
    ])
    assert rc == 0
    report = read_report(tmp_path)
    assert "bounded" not in report
    assert "bounded" not in report["checks"]


# --- starnorm --------------------------------------------------------------------


def test_starnorm_bound_mode(workdir, tmp_path):
    rc = main([
        "starnorm", "--sequence", str(workdir / "fact6.json"),
        "--mode", "bound", "--J", "1", "--K", "6", "--seed", "0",
        "--count", "2", "--out-dir", str(tmp_path),
    ])
    assert rc == 0
    report = read_report(tmp_path)
    assert report["result"]["all_ok"] is True
    assert report["result"]["max_ratio"] <= 5.0 * (1.0 + 1e-6)
    lines = (tmp_path / "translation.csv").read_text().splitlines()
    assert lines[0] == "sample,k,n_k,shifted_norm,reference_norm,ratio,asserted,ok"
    assert len(lines) == 1 + 4 * 6


def test_starnorm_pairs_mode(workdir, tmp_path):
    rc = main([
        "starnorm", "--sequence", str(workdir / "fact6.json"),
        "--mode", "pairs", "--J", "2", "--K", "5", "--seed", "1",
        "--count", "2", "--out-dir", str(tmp_path),
    ])
    assert rc == 0
    report = read_report(tmp_path)
    assert all(p["all_ok"] for p in report["result"]["pairs"])
    lines = (tmp_path / "pairs.csv").read_text().splitlines()
    assert lines[0] == "eta,xi,j,value,bound,method,ok"
    assert len(lines) == 1 + 2 * 3


def test_starnorm_field_mode(workdir, tmp_path):
    rc = main([
        "starnorm", "--sequence", str(workdir / "fact6.json"),
        "--mode", "field", "--J", "1", "--K", "5", "--seed", "2",
        "--count", "4", "--out-dir", str(tmp_path),
    ])
    assert rc == 0
    report = read_report(tmp_path)
    assert report["result"]["all_ok"] is True
    lines = (tmp_path / "field.csv").read_text().splitlines()
    assert lines[0] == "eta,xi,base,d_metric,star_searched,star_upper,ratio"
    assert len(lines) == 1 + 6  # 4 choose 2 pairs


def test_starnorm_pairs_rejects_overflowing_order(workdir, tmp_path, capsys):
    rc = main([
        "starnorm", "--sequence", str(workdir / "fact6.json"),
        "--mode", "pairs", "--J", "1030", "--K", "1", "--count", "1",
        "--out-dir", str(tmp_path),
    ])
    assert rc == 1
    assert "overflows a double" in capsys.readouterr().err


def test_starnorm_field_finite_at_large_order(workdir, tmp_path):
    rc = main([
        "starnorm", "--sequence", str(workdir / "fact6.json"),
        "--mode", "field", "--J", "600", "--K", "2", "--count", "3", "--seed", "1",
        "--out-dir", str(tmp_path),
    ])
    assert rc == 0
    for row in read_report(tmp_path)["result"]["rows"]:
        star_searched, star_upper = row[4], row[5]
        assert math.isfinite(star_searched) and star_searched <= star_upper


@pytest.mark.parametrize("mode, table", [("bound", "translation.csv"), ("field", "field.csv")], ids=["bound", "field"])
def test_starnorm_order_past_the_underflow_costs_nothing(workdir, tmp_path, mode, table):
    # order-j products of unit coefficients underflow to 0 by j ~ 1075, so J = 10^15
    # must walk no further than J = 3000 and write the same values
    results = []
    for J in (3000, 10**15):
        out = tmp_path / str(J)
        assert main([
            "starnorm", "--sequence", str(workdir / "fact6.json"), "--mode", mode, "--J", str(J),
            "--K", "4", "--count", "2", "--seed", "3", "--out-dir", str(out),
        ]) == 0
        result = read_report(out)["result"]
        result.pop("J", None)
        results.append((result, (out / table).read_bytes()))
    assert results[0] == results[1]


def test_starnorm_rejects_bad_count(workdir, tmp_path):
    rc = main([
        "starnorm", "--sequence", str(workdir / "fact6.json"),
        "--mode", "field", "--count", "1", "--out-dir", str(tmp_path),
    ])
    assert rc == 1


@pytest.mark.parametrize("mode", ["bound", "pairs", "field"])
@pytest.mark.parametrize("seed", ["-1", "seven"])
def test_starnorm_refuses_a_seed_that_is_not_a_natural_number(workdir, tmp_path, capsys, mode, seed):
    rc = main([
        "starnorm", "--sequence", str(workdir / "fact6.json"), "--mode", mode,
        "--K", "4", "--count", "3", "--seed", seed, "--out-dir", str(tmp_path),
    ])
    assert rc == 1
    assert "seed must be an integer >= 0" in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


# --- report ----------------------------------------------------------------------


def test_report_indexes_artifacts(workdir, tmp_path):
    rc = main([
        "verify", "--construction", str(workdir / "C.json"),
        "--p", "1", "--powers", "4", "--out-dir", str(tmp_path),
    ])
    assert rc == 0
    (tmp_path / "C.json").write_text((workdir / "C.json").read_text())
    (tmp_path / "broken.json").write_text("{oops")
    rc = main(["report", "--out-dir", str(tmp_path)])
    assert rc == 0
    report = read_report(tmp_path)
    files = {a["file"]: a for a in report["artifacts"]}
    assert files["C.json"]["summary"]["certified"] is True
    assert files["broken.json"]["readable"] is False
    assert "powers.csv" in report["csv_tables"]


def test_report_on_missing_dir_is_config_error(tmp_path):
    rc = main(["report", "--out-dir", str(tmp_path / "nowhere")])
    assert rc == 1


# --- exit codes and determinism ----------------------------------------------------


# The exit-code contract: every error type the package raises, and OSError,
# with the code main returns and the prefix of its first stderr line.
_INVALID = (1, "config error")
_INVARIANT = (2, "invariant failure")
EXIT_TABLE = {
    "OSError": _INVALID,
    "ConfigInvalid": _INVALID,
    "InvalidResolution": _INVALID,
    "InvalidEta": _INVALID,
    "EmptyHorizons": _INVALID,
    "WeightListTooShort": _INVALID,
    "HorizonExceedsSequence": _INVALID,
    "PreconditionViolated": _INVALID,
    "BudgetsNotCertified": _INVALID,
    "SpectrumOutsideDomain": _INVALID,
    "IndexOutOfRange": _INVALID,
    "BudgetInfeasible": (3, "infeasible"),
    "ArtifactCorrupt": (2, "artifact integrity failure"),
    "InvariantFailure": _INVARIANT,
    "JamisonError": _INVARIANT,
    "OutOfDomain": _INVARIANT,
    "DegenerateInput": _INVARIANT,
    "InvalidIndex": _INVARIANT,
    "SizeMismatch": _INVARIANT,
    "NonSquare": _INVARIANT,
}


def _error_type(name):
    for module in (errors, cli, builtins):
        if hasattr(module, name):
            return getattr(module, name)
    raise LookupError(name)


def _raised_names() -> set:
    """Every Name of a `raise Name(...)` in the package's source."""
    names = set()
    for path in Path(jamison.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call) and isinstance(node.exc.func, ast.Name):
                names.add(node.exc.func.id)
    return names


def test_exit_table_names_every_error_type():
    public, stack = {"JamisonError"}, [JamisonError]
    while stack:
        for sub in stack.pop().__subclasses__():
            stack.append(sub)
            if sub.__module__.startswith("jamison") and not sub.__name__.startswith("_"):
                public.add(sub.__name__)
    assert public | {"OSError"} == set(EXIT_TABLE)
    # and no type is dead: each concrete one is raised somewhere in the package
    concrete = {name for name, kind in vars(errors).items() if isinstance(kind, type) and issubclass(kind, JamisonError)}
    dead = concrete - {"JamisonError", "_BadInput"} - _raised_names()
    assert not dead, dead


# calls that recover an angle from a float; only sequences, the turns/radians boundary, may make one
_ANGLE_FROM_FLOAT = {("cmath", "phase"), ("numpy", "angle"), ("math", "atan2"), ("math", "asin"), ("math", "acos")}


def _angle_from_float_calls(path) -> list:
    """(line, (module, function)) of each such call in one source file, through import aliases."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    alias = {}  # local name -> module name, or (module, function) for a from-import
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            alias.update((a.asname or a.name, a.name) for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            alias.update((a.asname or a.name, (node.module, a.name)) for a in node.names)
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and isinstance(node.func.value, ast.Name):
            target = (alias.get(node.func.value.id, node.func.value.id), node.func.attr)
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            target = alias.get(node.func.id)
        else:
            continue
        if target in _ANGLE_FROM_FLOAT:
            found.append((node.lineno, target))
    return found


def test_only_sequences_recovers_an_angle_from_a_float():
    calls = {path.stem: _angle_from_float_calls(path) for path in Path(jamison.__file__).parent.glob("*.py")}
    assert calls.pop("sequences"), "the scan finds torus_from_chord's asin"
    assert not {name: found for name, found in calls.items() if found}


def _evaluate_callers(path) -> set:
    """Qualified names of the functions and methods in one source file that call an ``.evaluate(`` method."""
    found = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + (child.name,))
                continue
            if isinstance(child, ast.Call) and isinstance(child.func, ast.Attribute) and child.func.attr == "evaluate":
                found.add(".".join(scope))
            visit(child, scope)

    visit(ast.parse(path.read_text(encoding="utf-8")), (path.stem,))
    return found


def test_only_the_box_search_driver_evaluates_boxes():
    # the separation floor and the near-return search walk their boxes through one driver
    callers = set().union(*(_evaluate_callers(path) for path in Path(jamison.__file__).parent.glob("*.py")))
    assert callers == {"sequences._BoxSearch.descend"}


@pytest.mark.parametrize("name", sorted(EXIT_TABLE))
def test_each_error_type_exits_with_its_code_and_label(name, monkeypatch, capsys):
    kind = _error_type(name)
    dump = {"rows": [{"k": 1, "ok": False}]}
    exc = {
        "BudgetInfeasible": lambda: kind(4, "tail_sum", "no candidate"),
        "InvariantFailure": lambda: kind("checks failed", dump),
    }.get(name, lambda: kind("something is wrong"))()

    def stub(args):
        raise exc

    monkeypatch.setitem(cli._DISPATCH, "report", stub)
    code, label = EXIT_TABLE[name]
    assert main(["report"]) == code
    first, *rest = capsys.readouterr().err.splitlines()
    assert first == f"{label}: {exc}"
    # only a failed invariant check carries rows, and they follow as JSON
    assert (json.loads("\n".join(rest)) if rest else None) == (dump if name == "InvariantFailure" else None)


def test_unknown_flag_exits_one(capsys):
    assert main(["analyze", "--nope"]) == 1
    assert "config error" in capsys.readouterr().err


def test_unknown_command_exits_one():
    assert main(["frobnicate"]) == 1


def test_missing_input_file_exits_one(tmp_path):
    assert main(["analyze", "--sequence", str(tmp_path / "none.json")]) == 1


@pytest.mark.parametrize("kind", ["integer", "real"])
@pytest.mark.parametrize("bad", [float("inf"), float("nan")])
def test_non_finite_terms_exit_one(tmp_path, capsys, kind, bad):
    path = tmp_path / "seq.json"
    path.write_text(json.dumps({"kind": kind, "terms": [1.0, 2.5 if kind == "real" else 2, bad]}))
    rc = main(["analyze", "--sequence", str(path), "--horizons", "2,3", "--out-dir", str(tmp_path)])
    assert rc == 1
    assert "must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("kind, bad, message", [
    pytest.param("integer", 1e30, "exceeds 2^53", id="integer-float-1e30"),
    pytest.param("integer", 10 ** 400, "double range", id="integer-int-10^400"),
    pytest.param("real", 10 ** 400, "double range", id="real-int-10^400"),
])
def test_out_of_range_terms_exit_one(tmp_path, capsys, kind, bad, message):
    path = tmp_path / "seq.json"
    path.write_text(json.dumps({"kind": kind, "terms": [1, 2, bad]}))
    rc = main(["analyze", "--sequence", str(path), "--horizons", "2,3", "--out-dir", str(tmp_path)])
    assert rc == 1
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("kind", ["integer", "real"])
@pytest.mark.parametrize("command", ["analyze", "construct", "verify"])
def test_boolean_terms_exit_one(workdir, tmp_path, capsys, kind, command):
    # JSON true would otherwise read as the term 1
    terms = [True, 2, 6, 24, 120, 720]
    seq_path = tmp_path / "seq.json"
    seq_path.write_text(json.dumps({"kind": kind, "terms": terms}))
    cons_path = tmp_path / "C.json"
    record = json.loads((workdir / "C.json").read_text())
    record["sequence"] = {"kind": kind, "terms": terms}
    cons_path.write_text(json.dumps(record))
    argv = {
        "analyze": ["analyze", "--sequence", str(seq_path), "--horizons", "2,3"],
        "construct": ["construct", "--sequence", str(seq_path), "--levels", "3", "--out", str(tmp_path / "out.json")],
        "verify": ["verify", "--construction", str(cons_path), "--powers", "2"],
    }[command]
    assert main(argv + ["--out-dir", str(tmp_path)]) == 1
    assert "config error: sequence terms must be numbers, not booleans" in capsys.readouterr().err


def test_reports_deterministic_modulo_timestamp(workdir, tmp_path):
    args = [
        "starnorm", "--sequence", str(workdir / "fact6.json"),
        "--mode", "pairs", "--J", "1", "--K", "5", "--seed", "7", "--count", "2",
    ]
    assert main(args + ["--out-dir", str(tmp_path / "a")]) == 0
    assert main(args + ["--out-dir", str(tmp_path / "b")]) == 0
    assert main(args + ["--out-dir", str(tmp_path / "c")]) == 0
    a = strip_timestamp(read_report(tmp_path / "a"))
    b = strip_timestamp(read_report(tmp_path / "b"))
    c = strip_timestamp(read_report(tmp_path / "c"))
    # out-dir is not part of the payload, so all three agree exactly
    assert a == b == c
    csv_a = (tmp_path / "a" / "pairs.csv").read_text()
    assert csv_a == (tmp_path / "b" / "pairs.csv").read_text()
    assert csv_a == (tmp_path / "c" / "pairs.csv").read_text()


@pytest.mark.parametrize("mode, table", [("bound", "translation.csv"), ("pairs", "pairs.csv"), ("field", "field.csv")])
def test_same_seed_gives_the_same_bytes(workdir, tmp_path, mode, table):
    argv = [
        "starnorm", "--sequence", str(workdir / "fact6.json"), "--mode", mode,
        "--J", "1", "--K", "4", "--count", "3", "--seed", "11",
    ]
    assert main(argv + ["--out-dir", str(tmp_path / "a")]) == 0
    assert main(argv + ["--out-dir", str(tmp_path / "b")]) == 0
    a, b = _artifacts(tmp_path / "a"), _artifacts(tmp_path / "b")
    assert sorted(a) == sorted(["report.json", table])
    assert a == b


def test_different_seed_changes_samples(workdir, tmp_path):
    base = [
        "starnorm", "--sequence", str(workdir / "fact6.json"),
        "--mode", "pairs", "--J", "1", "--K", "5", "--count", "2",
    ]
    assert main(base + ["--seed", "1", "--out-dir", str(tmp_path / "a")]) == 0
    assert main(base + ["--seed", "2", "--out-dir", str(tmp_path / "b")]) == 0
    a = read_report(tmp_path / "a")["result"]["pairs"]
    b = read_report(tmp_path / "b")["result"]["pairs"]
    assert [p["eta"] for p in a] != [p["eta"] for p in b]


def _modules_after(code: str, prefix: str) -> list:
    """The modules of package `prefix` that a fresh interpreter holds after running `code`."""
    src = str(Path(jamison.__file__).resolve().parent.parent)
    probe = f"import json; print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == {prefix!r})))"
    out = subprocess.run(
        [sys.executable, "-c", f"import sys; sys.path.insert(0, {src!r}); {code}; {probe}"],
        capture_output=True, text=True, check=True,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


def _main_code(argv) -> str:
    return f"from jamison.cli import main; assert main({argv!r}) == 0"


def test_cli_import_loads_no_scipy():
    assert _modules_after("import jamison.cli", "scipy") == []


@pytest.mark.parametrize("mode", ["bound", "field"])
def test_starnorm_loads_no_scipy(workdir, tmp_path, mode):
    argv = [
        "starnorm", "--sequence", str(workdir / "fact6.json"), "--mode", mode,
        "--J", "1", "--K", "4", "--count", "3", "--out-dir", str(tmp_path),
    ]
    assert _modules_after(_main_code(argv), "scipy") == []


@pytest.mark.parametrize("mode", ["bound", "pairs", "field"])
def test_starnorm_loads_no_numpy_random(workdir, tmp_path, mode):
    # numpy.random alone adds about 6 MB of RSS to a command that draws a few hundred uniforms
    argv = [
        "starnorm", "--sequence", str(workdir / "fact6.json"), "--mode", mode,
        "--J", "1", "--K", "4", "--count", "3", "--out-dir", str(tmp_path),
    ]
    assert "numpy.random" not in _modules_after(_main_code(argv), "numpy")


def test_semigroup_loads_no_scipy(workdir, tmp_path):
    argv = [
        "semigroup", "--construction", str(workdir / "C.json"),
        "--real-sequence", str(workdir / "half.json"), "--powers", "6", "--out-dir", str(tmp_path),
    ]
    assert _modules_after(_main_code(argv), "scipy") == []


# what `import jamison.cli` loads; every command adds only its own modules
_CLI_MODULES = ["jamison", "jamison.cli", "jamison.errors", "jamison.sequences", "jamison.serialize"]


@pytest.mark.parametrize("command, extra", [
    (None, []),
    ("analyze", []),
    ("construct", ["construction", "funm"]),
    ("verify", ["construction", "funm"]),
    ("semigroup", ["construction", "funm", "semigroup"]),
    ("starnorm", ["starnorm"]),
])
def test_each_command_loads_only_its_modules(workdir, tmp_path, command, extra):
    fact6, out_dir = str(workdir / "fact6.json"), str(tmp_path)
    argv = {
        "analyze": ["analyze", "--sequence", fact6, "--horizons", "4,6", "--resolution", "1e-3"],
        "construct": ["construct", "--sequence", fact6, "--levels", "5", "--horizon", "6",
                      "--out", str(tmp_path / "C.json")],
        "verify": ["verify", "--construction", str(workdir / "C.json"), "--powers", "4"],
        "semigroup": ["semigroup", "--construction", str(workdir / "C.json"), "--powers", "4"],
        "starnorm": ["starnorm", "--sequence", fact6, "--mode", "pairs", "--J", "1", "--K", "4", "--count", "2"],
    }.get(command)
    code = "import jamison.cli" if argv is None else _main_code(argv + ["--out-dir", out_dir])
    assert _modules_after(code, "jamison") == sorted(_CLI_MODULES + [f"jamison.{m}" for m in extra])


def test_package_import_loads_no_module():
    assert _modules_after("import jamison", "jamison") == ["jamison"]


def test_package_names_resolve_to_their_modules():
    assert len(set(jamison.__all__)) == len(jamison.__all__)
    for name in jamison.__all__:
        module = importlib.import_module(f"jamison.{jamison._MODULE_OF[name]}")
        value = getattr(jamison, name)
        assert value is getattr(module, name)
        assert getattr(value, "__module__", module.__name__) == module.__name__
    with pytest.raises(AttributeError):
        jamison.no_such_name


def _arguments_read(describe) -> set:
    """The argument names a tracing describe function reads: a["x"] and a.get("x")."""
    names = set()
    for node in ast.walk(ast.parse(inspect.getsource(describe))):
        if isinstance(node, ast.Subscript) and isinstance(node.slice, ast.Constant):
            names.add(node.slice.value)
        elif isinstance(node, ast.Call) and getattr(node.func, "attr", "") == "get" and node.args:
            names.add(node.args[0].value)
    return names


def test_benchmark_tracing_targets_resolve_with_the_arguments_they_read(monkeypatch):
    # the benchmark patches these functions by name and reads their arguments by name,
    # so a rename in the package must show here and not only in the benchmark's own tests
    spec = importlib.util.spec_from_file_location(
        "bench_tracing", Path(__file__).resolve().parent.parent / "benchmarks" / "tracing.py"
    )
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)  # its dataclasses look their module up
    spec.loader.exec_module(tracing)
    read = set()
    for module, name, describe in tracing.TARGETS:
        fn = getattr(importlib.import_module(f"jamison.{module}"), name)
        if describe is not None:
            wanted = _arguments_read(describe)
            assert wanted <= inspect.signature(fn).parameters.keys(), (module, name, wanted)
            read |= wanted
    assert read == {"L", "p", "K", "seq", "resolution", "theta_min"}


def test_package_source_never_names_scipy():
    package = Path(jamison.__file__).resolve().parent
    assert [p.name for p in sorted(package.glob("*.py")) if "scipy" in p.read_text()] == []
