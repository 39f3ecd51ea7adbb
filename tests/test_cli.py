"""Command-line behavior: outputs, exit codes, determinism."""

import json

import pytest

from crsadder import cli
from crsadder.ecm import EcmParams, params_text
from crsadder.executor import params_fingerprint, write_json
from crsadder.microcode import gen_tc_adder, program_to_json


def run_cli(*argv):
    return cli.main(list(argv))


# ----------------------------------------------------------------------
# emit / compare
# ----------------------------------------------------------------------

def test_emit_writes_program_and_table(tmp_path, capsys):
    rc = run_cli("--out", str(tmp_path), "emit", "--scheme", "tc",
                 "--n", "2")
    assert rc == 0
    out = capsys.readouterr().out
    assert out.startswith("scheme=tc n=2")
    json_text = (tmp_path / "program_tc_n2.json").read_text()
    assert json_text == program_to_json(gen_tc_adder(2))
    table = (tmp_path / "program_tc_n2.txt").read_text()
    assert len(table.rstrip("\n").split("\n")) == 15


def test_emit_json_format(tmp_path, capsys):
    rc = run_cli("--out", str(tmp_path), "--format", "json", "emit",
                 "--scheme", "pc", "--n", "1")
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["scheme"] == "pc" and len(doc["steps"]) == 6


def test_compare_outputs(tmp_path, capsys):
    rc = run_cli("--out", str(tmp_path), "compare", "--n-min", "1",
                 "--n-max", "2")
    assert rc == 0
    md = (tmp_path / "comparison.md").read_text()
    assert "| TC adder | **4*** | 13 | yes |" in md
    csv = (tmp_path / "comparison.csv").read_text()
    assert csv.splitlines()[0].startswith("n,scheme,devices,cycles")


def test_compare_csv_stdout(tmp_path, capsys):
    rc = run_cli("--out", str(tmp_path), "--format", "csv", "compare",
                 "--n-max", "1")
    assert rc == 0
    assert capsys.readouterr().out.startswith("n,scheme,")


def test_compare_rejects_bad_range(tmp_path):
    assert run_cli("--out", str(tmp_path), "compare", "--n-min", "5",
                   "--n-max", "2") == 2


# ----------------------------------------------------------------------
# adder (behavioral)
# ----------------------------------------------------------------------

def test_adder_behavioral_prints_result(tmp_path, capsys):
    rc = run_cli("--out", str(tmp_path), "adder", "--scheme", "pc",
                 "--a", "01", "--b", "01")
    assert rc == 0
    assert capsys.readouterr().out.strip() == "s=010"
    assert (tmp_path / "adder_pc_states.csv").exists()
    verdicts = json.loads((tmp_path / "adder_pc_verdicts.json").read_text())
    assert len(verdicts) == 6   # three latched reads + three result reads


def test_adder_behavioral_tc_case(tmp_path, capsys):
    rc = run_cli("--out", str(tmp_path), "adder", "--scheme", "tc",
                 "--a", "11", "--b", "10")
    assert rc == 0
    assert capsys.readouterr().out.strip() == "s=101"


def test_adder_subtract(tmp_path, capsys):
    rc = run_cli("--out", str(tmp_path), "adder", "--scheme", "tc",
                 "--a", "11", "--b", "10", "--subtract")
    assert rc == 0
    assert capsys.readouterr().out.strip() == "s=001"


def test_adder_usage_errors(tmp_path):
    assert run_cli("--out", str(tmp_path), "adder", "--scheme", "pc",
                   "--a", "01x", "--b", "01") == 2
    assert run_cli("--out", str(tmp_path), "adder", "--scheme", "pc",
                   "--a", "011", "--b", "01") == 2


def test_adder_mismatch_exit_code(tmp_path, capsys, monkeypatch):
    # force the verifier to disagree so the mismatch path is exercised
    monkeypatch.setattr(cli, "add_words_reference",
                        lambda a, b, c0: [1, 1, 1])
    rc = run_cli("--out", str(tmp_path), "adder", "--scheme", "pc",
                 "--a", "01", "--b", "01")
    assert rc == 1
    captured = capsys.readouterr()
    assert "s=010" in captured.out
    assert "MISMATCH" in captured.err


def test_missing_params_file_is_usage_error(tmp_path, capsys):
    # the file is read before any command runs, so commands that never
    # use the cell parameters report it too
    for command in (
            ("adder", "--scheme", "pc", "--a", "01", "--b", "01",
             "--level", "device"),
            ("adder", "--scheme", "pc", "--a", "01", "--b", "01"),
            ("emit", "--scheme", "pc", "--n", "1"),
            ("compare", "--n-max", "1")):
        rc = run_cli("--params", str(tmp_path / "absent.params"), "--out",
                     str(tmp_path), *command)
        assert rc == 2, command
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "absent.params" in err
        assert len(err.splitlines()) == 1


def test_uncreatable_out_dir_is_usage_error(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    rc = run_cli("--out", str(blocker / "sub"), "compare")
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.splitlines()) == 1


def test_unknown_command_is_usage_error(capsys):
    assert run_cli("bogus") == 2


def test_help_exits_clean(capsys):
    assert run_cli("--help") == 0


# ----------------------------------------------------------------------
# sweep
# ----------------------------------------------------------------------

def test_sweep_unit_outputs(tmp_path, capsys):
    rc = run_cli("--out", str(tmp_path), "sweep", "--device", "unit",
                 "--samples", "600")
    assert rc == 0
    csv = (tmp_path / "unit_iv.csv").read_text()
    assert csv.splitlines()[0] == "v_volts,i_amps,x_meters"
    lm = json.loads((tmp_path / "landmarks.json").read_text())
    assert 1.1 <= lm["v_set"] <= 1.5
    assert -0.7 <= lm["v_reset"] <= -0.3
    assert lm["v_th1"] is None


def test_sweep_unit_subthreshold_landmarks_absent(tmp_path):
    rc = run_cli("--out", str(tmp_path), "sweep", "--device", "unit",
                 "--amplitude", "0.3", "--samples", "400")
    assert rc == 0
    lm = json.loads((tmp_path / "landmarks.json").read_text())
    assert lm["v_set"] is None and lm["v_reset"] is None


def test_sweep_crs_outputs(tmp_path):
    rc = run_cli("--out", str(tmp_path), "sweep", "--device", "crs",
                 "--samples", "900")
    assert rc == 0
    csv = (tmp_path / "crs_iv.csv").read_text()
    assert csv.splitlines()[0] \
        == "v_volts,i_amps,x_top_meters,x_bottom_meters,logic_state"
    lm = json.loads((tmp_path / "landmarks.json").read_text())
    assert 0 < lm["v_th1"] < lm["v_th2"]
    assert lm["v_th4"] < lm["v_th3"] < 0
    assert lm["v_set"] is None


def test_sweep_crs_subthreshold_is_solver_failure(tmp_path, capsys):
    rc = run_cli("--out", str(tmp_path), "sweep", "--device", "crs",
                 "--amplitude", "0.8", "--samples", "300")
    assert rc == 3
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("device,option,value", [
    ("unit", "--samples", "0"),
    ("unit", "--samples", "-3"),
    ("crs", "--samples", "0"),
    ("unit", "--amplitude", "0"),
    ("crs", "--amplitude", "0"),
    ("crs", "--frac", "0"),
    ("crs", "--frac", "2"),
    ("crs", "--frac", "-1"),
    ("crs", "--frac", "nan"),
    ("unit", "--rate", "nan"),
    ("unit", "--rate", "inf"),
    ("crs", "--rate", "inf"),
    ("unit", "--amplitude", "inf"),
    ("crs", "--amplitude", "nan"),
])
def test_sweep_bad_arguments_are_usage_errors(tmp_path, capsys, device,
                                              option, value):
    rc = run_cli("--out", str(tmp_path), "sweep", "--device", device,
                 option, value)
    assert rc == 2
    err = capsys.readouterr().err
    assert "error" in err and option[2:] in err
    assert list(tmp_path.iterdir()) == []


def test_sweep_determinism(tmp_path):
    d1, d2 = tmp_path / "one", tmp_path / "two"
    for d in (d1, d2):
        assert run_cli("--out", str(d), "sweep", "--device", "unit",
                       "--samples", "500") == 0
    assert (d1 / "unit_iv.csv").read_bytes() \
        == (d2 / "unit_iv.csv").read_bytes()
    assert (d1 / "landmarks.json").read_bytes() \
        == (d2 / "landmarks.json").read_bytes()


def test_sweep_reads_params_file(tmp_path):
    pfile = tmp_path / "cell.params"
    pfile.write_text(params_text(EcmParams()))
    rc = run_cli("--params", str(pfile), "--out", str(tmp_path), "sweep",
                 "--device", "unit", "--amplitude", "0.3",
                 "--samples", "300")
    assert rc == 0


# ----------------------------------------------------------------------
# calibration file and device-level adder
# ----------------------------------------------------------------------

DEVICE_ADDER = ("adder", "--scheme", "pc", "--a", "1", "--b", "1",
                "--level", "device")


def _calibration_doc(params, pp):
    return {
        "params_fingerprint": params_fingerprint(params),
        "target_margin": 100.0,
        "v_w": pp.v_w,
        "t_pulse_s": pp.t_pulse,
        "i_spike_a": pp.i_spike,
    }


BROKEN_SIDECARS = {
    "not json": lambda doc: "v_w = 2.6\n",
    "missing key": lambda doc: json.dumps(
        {k: v for k, v in doc.items() if k != "v_w"}),
    "negative v_w": lambda doc: json.dumps({**doc, "v_w": -1.0}),
    "nan v_w": lambda doc: json.dumps({**doc, "v_w": float("nan")}),
    "string t_pulse": lambda doc: json.dumps(
        {**doc, "t_pulse_s": str(doc["t_pulse_s"])}),
    "list document": lambda doc: json.dumps([doc]),
}


@pytest.mark.parametrize("damage", sorted(BROKEN_SIDECARS))
def test_calibrate_recalibrates_over_broken_sidecar(tmp_path, capsys, params,
                                                    pulse, damage):
    doc = _calibration_doc(params, pulse)
    sidecar = tmp_path / f"calibration-{doc['params_fingerprint']}.json"
    sidecar.write_text(BROKEN_SIDECARS[damage](doc))
    rc = run_cli("--out", str(tmp_path), "calibrate")
    assert rc == 0
    assert "wrote" in capsys.readouterr().out
    assert json.loads(sidecar.read_text()) == doc


# what may already sit in --out; none of it is read
EXISTING_CALIBRATION_FILES = {
    "valid": json.dumps,    # compact, so a rewrite changes its bytes
    "hand-edited v_w": lambda doc: json.dumps({**doc, "v_w": 2 * doc["v_w"]}),
    "broken json": BROKEN_SIDECARS["not json"],
}


@pytest.mark.parametrize("existing", sorted(EXISTING_CALIBRATION_FILES))
@pytest.mark.parametrize("command", [("calibrate",), DEVICE_ADDER],
                         ids=["calibrate", "adder"])
def test_calibration_file_is_overwritten(tmp_path, params, pulse, command,
                                         existing):
    doc = _calibration_doc(params, pulse)
    path = tmp_path / f"calibration-{doc['params_fingerprint']}.json"
    path.write_text(EXISTING_CALIBRATION_FILES[existing](doc))
    assert run_cli("--out", str(tmp_path), *command) == 0
    fresh = tmp_path / "fresh.json"
    write_json(fresh, doc)
    assert path.read_bytes() == fresh.read_bytes()


def test_calibrate_records_margin(tmp_path, params):
    assert run_cli("--out", str(tmp_path), "calibrate", "--margin", "50") == 0
    path = tmp_path / f"calibration-{params_fingerprint(params)}.json"
    assert json.loads(path.read_text())["target_margin"] == 50.0


def test_calibrate_force_is_gone(tmp_path):
    assert run_cli("--out", str(tmp_path), "calibrate", "--force") == 2
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("margin", ["nan", "inf"])
def test_calibrate_rejects_non_finite_margin(tmp_path, capsys, margin):
    rc = run_cli("--out", str(tmp_path), "calibrate", "--margin", margin)
    assert rc == 2
    assert "target_margin" in capsys.readouterr().err
    assert list(tmp_path.glob("calibration-*.json")) == []


@pytest.mark.parametrize("command", [("calibrate",), DEVICE_ADDER])
@pytest.mark.parametrize("seed", ["nan", "inf", "0", "-1"])
def test_bad_v_seed_is_usage_error(tmp_path, capsys, command, seed):
    rc = run_cli("--out", str(tmp_path), *command, "--v-seed", seed)
    assert rc == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("error:") and "v_seed" in err[0]
    assert list(tmp_path.glob("calibration-*.json")) == []


def test_high_v_seed_failure_names_amplitudes_around_it(tmp_path, capsys):
    rc = run_cli("--out", str(tmp_path), "calibrate", "--v-seed", "50")
    assert rc == 3
    err = capsys.readouterr().err
    assert err.startswith("error: no amplitude in [49, 51] V")
    assert list(tmp_path.glob("calibration-*.json")) == []


@pytest.mark.parametrize("command", [
    ("calibrate", "--v-seed", "1e6"),
    ("sweep", "--device", "unit", "--amplitude", "1e6", "--samples", "10"),
    ("sweep", "--device", "crs", "--amplitude", "1e6", "--samples", "10"),
], ids=["calibrate", "unit sweep", "crs sweep"])
def test_overflowing_voltage_is_solver_failure(tmp_path, capsys, command):
    rc = run_cli("--out", str(tmp_path), *command)
    assert rc == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("error: DC solve overflowed")


def test_adder_device_writes_trace(tmp_path, capsys):
    rc = run_cli("--out", str(tmp_path), *DEVICE_ADDER)
    assert rc == 0
    assert capsys.readouterr().out.strip() == "s=10"
    trace = (tmp_path / "adder_pc_trace.csv").read_text()
    assert trace.splitlines()[0].startswith("time_s,step_index,annotation")
    verdicts = json.loads((tmp_path / "adder_pc_verdicts.json").read_text())
    assert all(v["peak_current_a"] >= 0 for v in verdicts)
