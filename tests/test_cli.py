"""End-to-end checks of the command-line front end and artifact serializer.

Commands run in-process through main(argv) so exit codes and artifacts can be
asserted without subprocess overhead.  A shared session directory carries one
certified construction through construct -> verify -> semigroup.
"""

import builtins
import importlib
import json
import math
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import jamison
import jamison.cli as cli
import jamison.errors as errors
from jamison import IndexSequence, build_construction
from jamison.cli import main
from jamison.errors import ArtifactCorrupt, ConfigInvalid, JamisonError
from jamison.serialize import (
    MAX_FIBERS,
    construction_from_json_dict,
    decimal_string,
    fraction_from_string,
    load_construction,
    load_sequence,
    save_construction,
    save_sequence,
)


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
    save_sequence(IndexSequence.factorials(6), d / "fact6.json")
    save_sequence(IndexSequence.integers_up_to(100), d / "ints100.json")
    terms = IndexSequence.factorials(6).terms
    save_sequence(
        IndexSequence((1.0,) + tuple(n + 0.5 for n in terms[1:]), "real"),
        d / "half.json",
    )
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
    save_sequence(seq, tmp_path / "s.json")
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
    assert [p.theta for p in cons.lambdas] == [p.theta for p in rebuilt.lambdas]
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
        save_sequence(seq, name)
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


@pytest.mark.parametrize("resolution", ["1e-300", "1e-10"])
def test_analyze_unscannable_resolution_exits_one_quickly(tmp_path, resolution):
    # 1e-300 steps below the double spacing at 1/2; 1e-10 needs more than 2^31 points
    save_sequence(IndexSequence.powers_of_two(12), tmp_path / "powers2.json")
    src = str(Path(jamison.__file__).resolve().parent.parent)
    argv = [
        "analyze", "--sequence", str(tmp_path / "powers2.json"), "--horizons", "4",
        "--resolution", resolution, "--out-dir", str(tmp_path),
    ]
    code = f"import sys; sys.path.insert(0, {src!r}); from jamison.cli import main; sys.exit(main({argv!r}))"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
    assert out.returncode == 1
    assert "config error" in out.stderr and "resolution" in out.stderr


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


@pytest.mark.parametrize("seq, target", [
    (IndexSequence.factorials(6), 0.0),
    (IndexSequence.powers_of_two(6), 1e-306),
])
def test_construct_refuses_search_targets_below_the_double_range(tmp_path, monkeypatch, capsys, seq, target):
    # 0.0 is what factorials reach at level 14; on 2^k, 1e-306 finds nothing and
    # shrinks sixteen-fold into the subnormals by the third round
    save_sequence(seq, tmp_path / "seq.json")
    monkeypatch.setattr(jamison.construction, "_level_search_target", lambda *args: target)
    rc = main([
        "construct", "--sequence", str(tmp_path / "seq.json"), "--levels", "3", "--horizon", "6",
        "--out", str(tmp_path / "X.json"), "--out-dir", str(tmp_path),
    ])
    assert rc == 3
    report = read_report(tmp_path)
    assert (report["status"], report["level"], report["predicate"]) == ("infeasible", 2, "float_range")
    assert "float_range" in capsys.readouterr().err


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
@pytest.mark.parametrize("bad", [2.5, "2", 0, -3, True, 10**7])
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
    dim = report["lift"]["semigroup"]["dim"]
    assert len(lines) == 1 + dim * dim


@pytest.mark.parametrize("L", [12, 13])
def test_deep_ladder_constructs_verifies_and_lifts(tmp_path, L):
    save_sequence(IndexSequence.factorials(13), tmp_path / "fact13.json")
    cons = str(tmp_path / "C.json")
    assert main([
        "construct", "--sequence", str(tmp_path / "fact13.json"), "--levels", str(L),
        "--horizon", str(L), "--out", cons, "--out-dir", str(tmp_path / "construct"),
    ]) == 0
    assert main([
        "verify", "--construction", cons, "--p", "2", "--powers", str(L),
        "--out-dir", str(tmp_path / "verify"),
    ]) == 0
    assert main([
        "semigroup", "--construction", cons, "--powers", str(L),
        "--out-dir", str(tmp_path / "semigroup"),
    ]) == 0
    rows = read_report(tmp_path / "semigroup")["lift"]["lattice"]["rows"]
    assert len(rows) == L
    assert max(row["rel_err"] for row in rows) <= 1e-13


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
    "NegativeDegree": _INVARIANT,
    "SizeMismatch": _INVARIANT,
    "NonSquare": _INVARIANT,
}


def _error_type(name):
    for module in (errors, cli, builtins):
        if hasattr(module, name):
            return getattr(module, name)
    raise LookupError(name)


def test_exit_table_names_every_error_type():
    public, stack = {"JamisonError"}, [JamisonError]
    while stack:
        for sub in stack.pop().__subclasses__():
            stack.append(sub)
            if sub.__module__.startswith("jamison") and not sub.__name__.startswith("_"):
                public.add(sub.__name__)
    assert public | {"OSError"} == set(EXIT_TABLE)


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


def test_package_source_never_names_scipy():
    package = Path(jamison.__file__).resolve().parent
    assert [p.name for p in sorted(package.glob("*.py")) if "scipy" in p.read_text()] == []
