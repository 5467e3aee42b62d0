import json
import os
import subprocess
import sys

import pytest

from artifact.cli import main


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


def test_local_27a1_nonempty(capsys):
    code, out = run_cli(["local", "--curve", "27a1", "--p", "7",
                         "--ell", "3"], capsys)
    assert code == 0
    obj = json.loads(out)
    assert obj["status"] == "NonEmpty" and obj["rule"] == "Thm-e12"
    assert isinstance(obj["trace"], list) and obj["trace"]


def test_local_27a1_empty(capsys):
    code, out = run_cli(["local", "--curve", "27a1", "--p", "13",
                         "--ell", "3"], capsys)
    assert code == 1
    assert json.loads(out)["status"] == "Empty"


def test_local_ainvs_spec(capsys):
    code, out = run_cli(["local", "--curve", "[0,-1,1,-10,-20]",
                         "--p", "7", "--ell", "11"], capsys)
    assert code == 0
    assert json.loads(out)["rule"] == "Thm-multiplicative"


def test_local_real_place(capsys):
    code, out = run_cli(["local", "--curve", "11a1", "--p", "7",
                         "--ell", "real"], capsys)
    assert code == 0
    assert json.loads(out)["rule"] == "Thm-real"


def test_local_undetermined_exit_code(capsys):
    # additive at p -> OutOfScope -> exit 2
    code, out = run_cli(["local", "--curve", "121b1", "--p", "11",
                         "--ell", "11"], capsys)
    assert code == 2


def test_unknown_label_usage_error(capsys):
    code = main(["local", "--curve", "nope1", "--p", "7", "--ell", "3"])
    assert code == 3


def test_malformed_ainvs_usage_error():
    assert main(["local", "--curve", "[1,2,3]", "--p", "7", "--ell", "3"]) == 3


def test_output_byte_deterministic(capsys):
    _, out1 = run_cli(["analyze", "--curve", "121b1", "--p", "37"], capsys)
    _, out2 = run_cli(["analyze", "--curve", "121b1", "--p", "37"], capsys)
    assert out1 == out2


def test_analyze_golden(capsys):
    code, out = run_cli(["analyze", "--curve", "121b1", "--p", "37"], capsys)
    assert code == 0
    obj = json.loads(out)
    assert obj["overall"]["kind"] == "HasseCounterexample"
    assert obj["overall"]["detail"]["assumption"] == "None"
    assert obj["curve"] == [0, -1, 1, -7, 10]
    places = {e["place"] for e in obj["places_checked"]}
    assert "R" in places and "11" in places and "37" in places


def test_analyze_assume_fm(capsys):
    code, out = run_cli(["analyze", "--curve", "37a1", "--p", "29",
                         "--assume", "fm"], capsys)
    obj = json.loads(out)
    assert obj["overall"]["detail"]["assumption"] == "FreyMazur"


def test_analyze_isogeny_shortcut(capsys):
    code, out = run_cli(["analyze", "--curve", "11a1", "--p", "13"], capsys)
    obj = json.loads(out)
    assert obj["overall"]["kind"] == "HasRationalPoint"
    assert obj["overall"]["detail"]["q"] == 5


def test_genus(capsys):
    code, out = run_cli(["genus", "--p", "7"], capsys)
    assert json.loads(out) == {"g": 3, "hensel_bound": 36, "p": 7}


def test_compare(capsys):
    code, out = run_cli(["compare", "--a", "25920z1", "--b", "25920v1",
                         "--ell", "3", "--p", "7"], capsys)
    obj = json.loads(out)
    assert obj["symplectic_type"] == "AntiSymplectic"


def test_defect(capsys):
    code, out = run_cli(["defect", "--curve", "96a1", "--ell", "2"], capsys)
    assert json.loads(out)["e"] == 8


def test_hasse(capsys):
    code, out = run_cli(["hasse", "--curve", "121b1", "--p", "37"], capsys)
    assert json.loads(out)["verdict"] == "Unconditional"


def test_survey(capsys):
    code, out = run_cli(["survey", "--height", "1"], capsys)
    obj = json.loads(out)
    assert obj["total"] == 99 and obj["semistable"] == 67


def test_batch_mode(tmp_path, capsys):
    batch = tmp_path / "batch.csv"
    batch.write_text("11a1,13\nnosuchlabel,13\n121b1,37\n")
    code, out = run_cli(["analyze", "--batch", str(batch)], capsys)
    assert code == 3  # some row failed; the others are still reported
    lines = out.strip().splitlines()
    assert len(lines) == 3
    assert json.loads(lines[0])["overall"]["kind"] == "HasRationalPoint"
    err = json.loads(lines[1])
    assert err["row"] == 1 and err["curve"] == "nosuchlabel" and err["p"] == 13
    assert err["error"].startswith("KeyError: ")
    assert json.loads(lines[2])["overall"]["kind"] == "HasseCounterexample"


def test_console_script_entry():
    # the child imports artifact from the same path as this process
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run(
        [sys.executable, "-m", "artifact.cli", "genus", "--p", "11"],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["g"] == 26
