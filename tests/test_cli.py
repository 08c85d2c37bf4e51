import csv
import io
import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import gradion as g
from gradion import verify
from gradion.cli import CONFIG_KEYS, load_config, main


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestConfig:
    def test_empty_file_gives_no_overrides(self, tmp_path):
        path = tmp_path / "empty.cfg"
        path.write_text("# nothing here\n\n")
        assert load_config(str(path)) == {}

    def test_values_parsed(self, tmp_path):
        path = tmp_path / "x.cfg"
        path.write_text("preset = table3-h4\ngradient_T_per_m = 250  # override\n")
        settings = load_config(str(path))
        assert settings == {"preset": "table3-h4", "gradient_t_per_m": 250.0}

    def test_unknown_key_reports_line(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("mode = linear\nfrobnicate = 3\n")
        with pytest.raises(ValueError, match=r"bad.cfg:2.*frobnicate"):
            load_config(str(path))

    def test_malformed_value_reports_line(self, tmp_path):
        path = tmp_path / "bad2.cfg"
        path.write_text("d_um = four\n")
        with pytest.raises(ValueError, match=r"bad2.cfg:1.*malformed"):
            load_config(str(path))

    def test_missing_equals_reports_line(self, tmp_path):
        path = tmp_path / "bad3.cfg"
        path.write_text("gradient 500\n")
        with pytest.raises(ValueError, match="bad3.cfg:1"):
            load_config(str(path))


    def test_invalid_utf8_reports_line(self, tmp_path, capsys):
        path = tmp_path / "bytes.cfg"
        path.write_bytes(b"mode = linear\n\xff\xfe = 2\n")
        with pytest.raises(ValueError, match=r"bytes.cfg:2: not valid UTF-8 text"):
            load_config(str(path))
        code, _, err = run_cli(capsys, ["couplings", "--config", str(path)])
        assert code == 1
        assert f"error: {path}:2: not valid UTF-8 text" in err

    @settings(max_examples=300, deadline=None)
    @given(lines=st.lists(st.one_of(
               st.binary(max_size=24),
               st.tuples(st.sampled_from(sorted(CONFIG_KEYS) + ["Mode", "bogus", ""]),
                         st.sampled_from([b" = ", b"=", b" ", b" == "]),
                         st.binary(max_size=12)).map(
                   lambda t: t[0].encode() + t[1] + t[2])),
               max_size=8),
           newline=st.sampled_from([b"\n", b"\r\n", b"\r"]))
    def test_fuzzed_file_fails_only_with_its_line(self, tmp_path_factory, lines, newline):
        data = newline.join(lines)
        path = tmp_path_factory.mktemp("fuzz") / "fuzz.cfg"
        path.write_bytes(data)
        try:
            parsed = load_config(str(path))
        except ValueError as exc:
            match = re.match(re.escape(str(path)) + r":(\d+): ", str(exc))
            assert match, str(exc)
            assert 1 <= int(match.group(1)) <= data.count(b"\n") + data.count(b"\r") + 1
        else:
            assert set(parsed) <= set(CONFIG_KEYS)


class TestCouplingsCommand:
    def test_preset_table1_d4_json(self, capsys):
        code, out, _ = run_cli(capsys, ["couplings", "--preset", "table1-d4",
                                        "--format", "json"])
        assert code == 0
        payload = json.loads(out)
        assert payload["j_2pi_khz"] == pytest.approx(0.459, rel=0.03)
        assert payload["j13_2pi_khz"] == pytest.approx(0.135, rel=0.04)
        assert payload["delta_um"] == pytest.approx(0.628, rel=0.01)
        assert payload["raw_rad_s"]["j"] == pytest.approx(
            payload["j_2pi_khz"] * g.TWO_PI * 1e3, rel=1e-12)

    def test_preset_table3_h4_loads_row(self, capsys):
        code, out, _ = run_cli(capsys, ["couplings", "--preset", "table3-h4",
                                        "--format", "json"])
        payload = json.loads(out)
        assert code == 0
        assert payload["w_2pi_mhz"] == pytest.approx(0.628, rel=1e-12)
        assert payload["gradient_t_per_m"] == 150.0
        assert payload["j_2pi_khz"] == pytest.approx(0.359, rel=0.03)

    def test_gradient_override_reflected(self, capsys, tmp_path):
        path = tmp_path / "o.cfg"
        path.write_text("gradient_T_per_m = 250\n")
        code, out, _ = run_cli(capsys, ["couplings", "--preset", "table1-d4",
                                        "--config", str(path), "--format", "json"])
        payload = json.loads(out)
        assert payload["gradient_t_per_m"] == 250.0
        # J scales as the gradient squared
        assert payload["j_2pi_khz"] == pytest.approx(0.459 * 0.25, rel=0.05)

    def test_csv_columns_mirror_reference_table(self, capsys):
        code, out, _ = run_cli(capsys, ["couplings", "--preset", "table1-d4",
                                        "--format", "csv"])
        header = out.splitlines()[0]
        assert header == ("d_um,w1_2pi_mhz,w2_2pi_mhz,gradient_t_per_m,"
                          "delta_um,eps_max,h_um,j_2pi_khz,j13_2pi_khz")

    def test_byte_identical_reports(self, capsys):
        _, out1, _ = run_cli(capsys, ["couplings", "--preset", "table1-d4",
                                      "--format", "json"])
        _, out2, _ = run_cli(capsys, ["couplings", "--preset", "table1-d4",
                                      "--format", "json"])
        assert out1 == out2

    def test_g_factor_from_config(self, capsys, tmp_path):
        path = tmp_path / "g.cfg"
        path.write_text("g_factor = 1.0\n")
        argv = ["couplings", "--preset", "table1-d4", "--format", "json"]
        _, out, _ = run_cli(capsys, argv)
        _, half, _ = run_cli(capsys, argv + ["--config", str(path)])
        full, half = json.loads(out), json.loads(half)
        assert half["j_2pi_khz"] == full["j_2pi_khz"] / 4
        assert half["j13_2pi_khz"] == full["j13_2pi_khz"] / 4
        assert half["eps_max"] == full["eps_max"] / 2

    def test_missing_layout_fails_cleanly(self, capsys):
        code, _, err = run_cli(capsys, ["couplings"])
        assert code == 1
        assert "no layout" in err


class TestModesAndSpectrum:
    def test_modes_values(self, capsys):
        code, out, _ = run_cli(capsys, ["modes", "--preset", "table1-d4",
                                        "--format", "json"])
        payload = json.loads(out)
        assert payload["nu_2pi_mhz"] == pytest.approx([1.32, 1.54, 1.70], rel=0.02)

    def test_spectrum_payload(self, capsys):
        code, out, _ = run_cli(capsys, ["spectrum", "--preset", "table1-d4",
                                        "--format", "json"])
        payload = json.loads(out)
        assert payload["neighbor_shift_2pi_mhz"] == pytest.approx(64.8, rel=0.01)
        assert len(payload["transitions"]) == 12
        spreads = payload["spreads_2pi_khz"]
        assert spreads[1] == pytest.approx(4 * 0.459, rel=0.05)


class TestSearchCommands:
    def test_table3_search(self, capsys):
        code, out, _ = run_cli(capsys, ["table3", "--h", "4", "--format", "json"])
        assert code == 0
        payload = json.loads(out)
        assert payload["j_2pi_khz"] >= 0.359 * 0.97
        assert payload["eps_max"] < 0.05
        assert payload["w_2pi_mhz"] == pytest.approx(0.628, rel=0.02)

    def test_table1_search(self, capsys):
        code, out, _ = run_cli(capsys, ["table1", "--d", "4", "--format", "csv"])
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("d_um,w1_2pi_mhz")
        row = dict(zip(lines[0].split(","), lines[1].split(",")))
        assert float(row["j_2pi_khz"]) >= 0.459 * 0.97
        assert float(row["eps_max"]) < 0.05


class TestSearchSpacing:
    """The search spacing comes from the preset, then the config, then the
    flag, each overriding the one before; 4 um only when none gives one."""

    @pytest.mark.parametrize("fmt", ["text", "json", "csv"])
    def test_preset_spacing(self, capsys, fmt):
        for command, flag, preset in (("table1", "--d", "table1-d2"),
                                      ("table3", "--h", "table3-h3")):
            given = run_cli(capsys, [command, "--preset", preset, "--format", fmt])
            assert given == run_cli(capsys, [command, flag, preset[-1], "--format", fmt])
            assert given != run_cli(capsys, [command, flag, "4", "--format", fmt])

    def test_config_spacing(self, capsys, tmp_path):
        config = tmp_path / "spacing.cfg"
        config.write_text("preset = table1-d2\nh_um = 3\n")
        for command, flag, spacing in (("table1", "--d", "2"), ("table3", "--h", "3")):
            assert run_cli(capsys, [command, "--config", str(config)]) == \
                run_cli(capsys, [command, flag, spacing])

    def test_flag_beats_config(self, capsys, tmp_path):
        config = tmp_path / "spacing.cfg"
        config.write_text("d_um = 5\nh_um = 5\n")
        for command, flag in (("table1", "--d"), ("table3", "--h")):
            assert run_cli(capsys, [command, "--config", str(config), flag, "2.5"]) == \
                run_cli(capsys, [command, flag, "2.5"])

    def test_default_spacing_is_4_um(self, capsys, tmp_path):
        config = tmp_path / "ceiling.cfg"
        config.write_text("preset = table3-h6\neps_ceiling = 0.05\n")
        assert run_cli(capsys, ["table1", "--config", str(config), "--format", "json"]) \
            == (0, search_report("table1", 4.0)["json"], "")


def search_report(command, spacing):
    """The text, json and csv reports of a search command, built here from
    the library's `SearchResult`, with the columns and unit conversions of
    the `couplings` design row."""
    if command == "table1":
        r = g.maximize_J_multitrap(spacing * 1e-6)
        head = {"d_um": spacing, "w1_2pi_mhz": r.params.w1 / (g.TWO_PI * 1e6),
                "w2_2pi_mhz": r.params.w2 / (g.TWO_PI * 1e6),
                "gradient_t_per_m": r.params.gradient, "delta_um": r.delta * 1e6,
                "eps_max": r.eps_max, "h_um": r.h * 1e6}
    else:
        r = g.maximize_J_linear(spacing * 1e-6)
        head = {"h_um": spacing, "w_2pi_mhz": r.params.w1 / (g.TWO_PI * 1e6),
                "gradient_t_per_m": r.params.gradient, "eps_max": r.eps_max}
    row = {k: float(v) for k, v in head.items()}
    row["j_2pi_khz"] = float(r.J / (g.TWO_PI * 1e3))
    row["j13_2pi_khz"] = float(r.J13 / (g.TWO_PI * 1e3))
    payload = {**row, "evaluations": r.evaluations}
    return {
        "text": "".join(f"{k} = {v!r}\n" for k, v in payload.items()),
        "json": json.dumps(payload, sort_keys=True, indent=2) + "\n",
        "csv": [list(row), [repr(v) for v in row.values()]],
    }


class TestSearchReports:
    """Each search command's report, exactly: the row's values, key order
    and the given spacing, which the report echoes."""

    @pytest.mark.parametrize("command, flag, spacing", [("table1", "--d", 1.7),
                                                        ("table3", "--h", 3.7),
                                                        ("table3", "--h", 4.6)])
    @pytest.mark.parametrize("fmt", ["text", "json", "csv"])
    def test_report_is_the_library_result(self, capsys, command, flag, spacing, fmt):
        code, out, err = run_cli(capsys, [command, flag, str(spacing), "--format", fmt])
        assert (code, err) == (0, "")
        if fmt == "csv":
            out = list(csv.reader(io.StringIO(out)))
        assert out == search_report(command, spacing)[fmt]

    def test_solved_spacing_differs_from_the_given_one(self):
        # so the reports above tell the echoed spacing from the solved one
        assert g.maximize_J_multitrap(1.7 * 1e-6).params.d * 1e6 != 1.7
        assert g.maximize_J_linear(4.6 * 1e-6).h * 1e6 != 4.6

    @pytest.mark.parametrize("command", ["table1", "table3"])
    @pytest.mark.parametrize("fmt", ["text", "json", "csv"])
    def test_no_feasible_point_is_1(self, capsys, tmp_path, command, fmt):
        config = tmp_path / "tight.cfg"
        config.write_text("eps_ceiling = 1e-9\n")
        code, out, err = run_cli(capsys, [command, "--config", str(config),
                                          "--format", fmt])
        assert (code, out, err) == (1, "", "no feasible point found\n")


GOLDEN = os.path.join(os.path.dirname(__file__), "golden")


class TestGoldenSearchReports:
    """Each search report, byte for byte, against the file written by an
    earlier version of the search. `search_report` above builds its expected
    values from the same helpers the search uses, so it cannot see a change
    to one of them; these files can."""

    @pytest.mark.parametrize("command, flag, spacing",
                             [("table1", "d", d) for d in range(1, 8)]
                             + [("table3", "h", h) for h in range(2, 7)])
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_report_equals_golden_file(self, capsys, command, flag, spacing, fmt):
        with open(os.path.join(GOLDEN, f"{command}_{flag}{spacing}.{fmt}"), "rb") as f:
            golden = f.read().decode()
        code, out, err = run_cli(capsys, [command, f"--{flag}", str(spacing),
                                          "--format", fmt])
        assert (code, out, err) == (0, golden, "")


class TestGoldenModesReports:
    """Each preset's `modes` report, byte for byte, against the file written by
    an earlier version of the trap: it pins every bit of nu and of the mode
    matrix D, which the search reports above print only through eps_max."""

    @pytest.mark.parametrize("name", sorted(g.PRESETS))
    def test_report_equals_golden_file(self, capsys, name):
        with open(os.path.join(GOLDEN, f"modes_{name}.json"), "rb") as f:
            golden = f.read().decode()
        code, out, err = run_cli(capsys, ["modes", "--preset", name, "--format", "json"])
        assert (code, out, err) == (0, golden, "")


class TestPresetReproduction:
    @pytest.mark.parametrize("name", sorted(g.PRESETS))
    def test_preset_rederives_reference_row(self, capsys, name):
        code, out, _ = run_cli(capsys, ["couplings", "--preset", name,
                                        "--format", "json"])
        assert code == 0
        payload = json.loads(out)
        ref = g.REFERENCE[name]
        assert payload["j_2pi_khz"] == pytest.approx(ref["j_2pi_khz"], rel=0.03)
        assert payload["j13_2pi_khz"] == pytest.approx(ref["j13_2pi_khz"], rel=0.04)
        assert payload["eps_max"] == pytest.approx(ref["eps_max"], rel=0.03)
        if "delta_um" in ref:
            assert payload["delta_um"] == pytest.approx(ref["delta_um"], rel=0.01)
            assert payload["h_um"] == pytest.approx(ref["h_um"], rel=0.01)


class TestCnotCommand:
    def test_schedule_emission(self, capsys, tmp_path):
        out_path = tmp_path / "cnot.sched"
        code, out, _ = run_cli(capsys, [
            "cnot", "--pair", "2,3", "--preset", "table1-d4",
            "--emit-schedule", str(out_path), "--format", "json"])
        assert code == 0
        payload = json.loads(out)
        assert payload["total_duration_ms"] == pytest.approx(3.84, rel=0.02)
        assert payload["zz_time_ms"] == pytest.approx(3.82, rel=0.02)
        assert payload["gate_deviation_from_cnot"] < 1e-9
        text = out_path.read_text()
        total = 0.0
        for line in text.splitlines():
            fields = line.split()
            if fields and fields[0] in ("PULSE", "FREE"):
                total += float(fields[-1])
        assert total * 1e3 == pytest.approx(3.84, rel=0.02)
        parsed = g.parse_schedule(text)
        assert sum(1 for _ in parsed.pulses()) == 14

    def test_lab_frame_reports_residual(self, capsys):
        code, out, _ = run_cli(capsys, ["cnot", "--frame", "lab",
                                        "--preset", "table1-d4",
                                        "--format", "json"])
        payload = json.loads(out)
        assert code == 0
        assert payload["max_commensuration_residual_rad"] < 1e-3

    def test_lab_frame_output_equals_whole_window_scan(self, capsys, tmp_path,
                                                       monkeypatch):
        # commensurate_pulse evaluates only candidate wrap counts; with no
        # steering ion it scans the whole window, as it did before. Reports,
        # schedule files and refusals must not tell the two apart.
        config, schedule = tmp_path / "rabi.cfg", tmp_path / "cnot.sched"

        def outputs():
            runs = []
            for preset in sorted(g.PRESETS):
                for pair in ("1,2", "2,3"):
                    for rabi_mhz in ("0.5", "1", "2"):
                        config.write_text(f"rabi_2pi_mhz = {rabi_mhz}\n")
                        schedule.unlink(missing_ok=True)
                        run = run_cli(capsys, [
                            "cnot", "--frame", "lab", "--preset", preset, "--pair", pair,
                            "--config", str(config), "--format", "json",
                            "--emit-schedule", str(schedule)])
                        runs.append((*run, schedule.read_bytes() if schedule.exists()
                                     else None))
            return runs

        searched = outputs()
        monkeypatch.setattr("gradion.pulses._steering", lambda *args: None)
        assert outputs() == searched
        codes = [run[0] for run in searched]
        assert 0 < codes.count(1) and codes.count(0) + codes.count(1) == len(codes)

    def test_bad_pair_fails(self, capsys):
        # a wrong count or a non-integer used to fail with Python's own
        # unpacking text; every case runs here, so the test keeps its one id
        malformed = "--pair takes control,target"
        for pair, message in (("1,3", "adjacent"), ("2", malformed), ("a,b", malformed),
                              ("2,3,1", malformed), ("2.5,3", malformed), ("", malformed)):
            code, out, err = run_cli(capsys, ["cnot", "--pair", pair,
                                              "--preset", "table1-d4"])
            assert (code, out) == (1, ""), pair
            assert err.startswith("error:") and message in err, (pair, err)


class TestTeleportCommand:
    def test_ideal_run(self, capsys):
        code, out, _ = run_cli(capsys, ["teleport", "--alpha", "1", "--beta", "0",
                                        "--mode", "ideal", "--seed", "7"])
        assert code == 0
        payload = json.loads(out)
        assert payload["fidelity"] == pytest.approx(1.0, abs=1e-9)
        assert payload["seed"] == 7

    def test_seeded_determinism(self, capsys):
        argv = ["teleport", "--alpha", "0.6", "--beta", "0.8j",
                "--mode", "scheduled", "--seed", "3", "--preset", "table1-d4"]
        _, out1, _ = run_cli(capsys, argv)
        _, out2, _ = run_cli(capsys, argv)
        assert out1 == out2
        payload = json.loads(out1)
        assert payload["fidelity"] == pytest.approx(1.0, abs=1e-9)
        assert payload["total_duration_s"] == pytest.approx(7.7e-3, rel=0.03)


    @pytest.mark.parametrize("mode", ["ideal", "scheduled", "integrated"])
    def test_report_is_the_library_record(self, capsys, d4_chain, mode):
        # no pulse setting given: the CLI must leave the library defaults alone
        rate = 0.0 if mode == "ideal" else 30.0
        code, out, _ = run_cli(capsys, ["teleport", "--mode", mode, "--seed", "1",
                                        "--alpha", "0.6", "--beta", "0.8j",
                                        "--dephasing-rate-hz", str(rate)])
        config = g.ProtocolConfig(
            alpha=complex("0.6"), beta=complex("0.8j"), gate_mode=mode, seed=1,
            couplings=None if mode == "ideal" else d4_chain.couplings,
            dephasing=(rate,) * 3)
        assert code == 0
        assert out == g.run_teleport(config).to_json() + "\n"


    @pytest.mark.parametrize("fmt", ["csv", "json", "text"])
    def test_format_flag_is_a_usage_error(self, capsys, fmt):
        # the record is always JSON; --format used to be accepted and ignored
        with pytest.raises(SystemExit) as exc:
            main(["teleport", "--format", fmt])
        assert exc.value.code == 2
        assert "unrecognized arguments: --format" in capsys.readouterr().err


class TestVerifyCommand:
    def test_every_check_passes(self, capsys):
        code, out, _ = run_cli(capsys, ["verify"])
        assert code == 0
        checks = verify.run_all()
        assert all(ok for _, ok, _ in checks), [c for c in checks if not c[1]]
        assert out.splitlines()[-1] == f"{len(checks)}/{len(checks)} checks passed"


class TestExitCodes:
    def test_usage_error_is_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["no-such-command"])
        assert exc.value.code == 2

    def test_unknown_preset_is_1(self, capsys):
        code, _, err = run_cli(capsys, ["couplings", "--preset", "table9-z1"])
        assert code == 1
        assert "unknown preset" in err

    def test_unnormalized_amplitudes_is_1(self, capsys):
        code, _, err = run_cli(capsys, ["teleport", "--alpha", "1", "--beta", "1"])
        assert code == 1
        assert err.startswith("error:") and "amplitudes" in err

    @pytest.mark.parametrize("rate", ["nan", "inf", "-1"])
    def test_bad_dephasing_rate_is_1(self, capsys, rate):
        code, out, err = run_cli(capsys, ["teleport", "--mode", "scheduled", "--seed", "1",
                                          "--dephasing-rate-hz", rate])
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and "finite, non-negative rates" in err

    @pytest.mark.parametrize("argv", [["cnot"], ["teleport", "--mode", "scheduled"]])
    def test_zero_rabi_is_1_without_traceback(self, tmp_path, argv):
        config = tmp_path / "rabi.cfg"
        config.write_text("rabi_2pi_mhz = 0\n")
        src = os.path.dirname(os.path.dirname(os.path.abspath(g.__file__)))
        env = {**os.environ, "PYTHONPATH": src}
        proc = subprocess.run(
            [sys.executable, "-m", "gradion.cli", *argv, "--config", str(config)],
            capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 1
        assert proc.stderr.startswith("error:") and "Rabi frequency" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("argv", [["table1", "--d", "nan"], ["table1", "--d", "inf"],
                                      ["table3", "--h", "nan"], ["table3", "--h", "inf"],
                                      ["table3", "--h", "-4"]])
    def test_non_finite_search_spacing_is_1(self, capsys, argv):
        # used to print "no feasible point found", or RuntimeWarnings for inf
        code, out, err = run_cli(capsys, argv)
        assert (code, out) == (1, "")
        assert err.startswith("error:") and "spacing" in err

    @pytest.mark.parametrize("argv", [["couplings"], ["teleport", "--mode", "scheduled"]])
    @pytest.mark.parametrize("w1", ["1e-206", "1e200"])
    def test_extreme_trap_frequency_is_1(self, capsys, tmp_path, argv, w1):
        # used to end in an IndexError from NaN mode vectors
        config = tmp_path / "extreme.cfg"
        config.write_text(f"mode = multi\nd_um = 4\nw1_2pi_mhz = {w1}\n"
                          "w2_2pi_mhz = 1.2\ngradient_t_per_m = 500\n")
        code, out, err = run_cli(capsys, [*argv, "--config", str(config)])
        assert (code, out) == (1, "")
        assert err.startswith("error:") and "stiffness" in err

    @pytest.mark.parametrize("argv", [["couplings"], ["couplings", "--format", "json"],
                                      ["cnot"], ["teleport", "--mode", "scheduled"]])
    @pytest.mark.parametrize("line", ["gradient_t_per_m = 1e150", "b0_t = 1e300",
                                      "b0_t = -1e300", "eta = 1e200"])
    def test_field_beyond_range_is_1(self, capsys, tmp_path, argv, line):
        # 1e150 T/m printed j_2pi_khz = inf and b0 = 1e300 inf qubit
        # frequencies in text mode, both with exit code 0
        config = tmp_path / "field.cfg"
        config.write_text(f"preset = table1-d4\n{line}\n")
        code, out, err = run_cli(capsys, [*argv, "--config", str(config)])
        assert (code, out) == (1, "")
        assert err.startswith("error: field ") and "at most" in err

    def test_nan_amplitude_is_1(self, capsys):
        code, out, err = run_cli(capsys, ["teleport", "--alpha", "nan", "--beta", "1"])
        assert (code, out) == (1, "")
        assert err.startswith("error:") and "amplitudes" in err

    @pytest.mark.parametrize("argv", [["couplings", "--format", "json"],
                                      ["spectrum", "--format", "json"]])
    @pytest.mark.parametrize("key", ["hyperfine_2pi_ghz", "g_factor"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_constant_is_1(self, capsys, tmp_path, argv, key, value):
        config = tmp_path / "constants.cfg"
        config.write_text(f"preset = table1-d4\n{key} = {value}\n")
        code, out, err = run_cli(capsys, [*argv, "--config", str(config)])
        assert (code, out) == (1, "")
        assert err.startswith("error:") and "finite" in err

    def test_nan_in_json_report_is_1(self, capsys, monkeypatch):
        import gradion.cli as cli
        monkeypatch.setattr(cli, "neighbor_resonance_shift", lambda *a: np.nan)
        code, out, err = run_cli(capsys, ["spectrum", "--preset", "table1-d4",
                                          "--format", "json"])
        assert (code, out) == (1, "")
        assert err.startswith("error:")

    def test_output_file(self, capsys, tmp_path):
        out_path = tmp_path / "report.json"
        code, out, _ = run_cli(capsys, ["couplings", "--preset", "table1-d4",
                                        "--format", "json",
                                        "--output", str(out_path)])
        assert code == 0
        assert out == ""
        assert json.loads(out_path.read_text())["j_2pi_khz"] > 0

    def test_repeated_main_calls_match_fresh_processes(self, capsys, monkeypatch):
        # main builds its parser once per process; every call after the first
        # must still behave exactly as a fresh interpreter does
        monkeypatch.setenv("COLUMNS", "80")  # --help wraps to the terminal width
        src = os.path.dirname(os.path.dirname(os.path.abspath(g.__file__)))
        env = {**os.environ, "PYTHONPATH": src}
        for argv in (["couplings", "--no-such-flag"],
                     ["--help"],
                     ["couplings", "--preset", "table1-d4", "--format", "json"],
                     ["teleport", "--mode", "scheduled", "--seed", "5"],
                     ["teleport", "--alpha", "1", "--beta", "1"]):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            captured = capsys.readouterr()
            proc = subprocess.run([sys.executable, "-m", "gradion.cli", *argv],
                                  capture_output=True, text=True, env=env, timeout=60)
            assert (code, captured.out, captured.err) == \
                (proc.returncode, proc.stdout, proc.stderr), argv
