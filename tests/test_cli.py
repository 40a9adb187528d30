"""Command-line front end: documents, CSVs, exit codes, determinism."""

import hashlib
import json
import math
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from cctsens import CctOptions, NoEquilibriumFound, SmibParams, compute_cct, smib_system
from cctsens.cli import build_system, load_config, main
from cctsens.validate import fd_cct_slope

_D = 0.5

_SMIB = {
    "kind": "smib", "p_mech": 0.65, "inertia": 0.1,
    "delta_max": 2.0, "omega_max": 0.7,
}
_BASE = {
    "system": _SMIB,
    "sens_params": ["Pm", "M", "omega_max"],
    "tolerances": {"bisection_tol": 0.01},
}


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


def read_csv(path):
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# config_sha256=")
    return lines[0].split("=", 1)[1], lines[1].split(","), lines[2:]


class TestConfig:
    def test_missing_file(self, tmp_path, capsys):
        assert main(["cct", "--config", str(tmp_path / "nope.json")]) == 2
        assert "config error" in capsys.readouterr().err

    def test_invalid_json(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{oops")
        assert main(["cct", "--config", str(bad)]) == 2

    def test_unknown_top_level_key(self, tmp_path):
        path = write_config(tmp_path, {**_BASE, "wat": 1})
        assert main(["cct", "--config", str(path)]) == 2

    def test_unknown_parameter_name(self, tmp_path):
        path = write_config(tmp_path, {**_BASE, "sens_params": ["torque"]})
        assert main(["sens", "--config", str(path)]) == 2

    def test_bad_tolerance_key_and_format(self, tmp_path):
        path = write_config(tmp_path, _BASE)
        for key in ("nope=1", "first_step=0.1", "event_refine_tol=1e-9",
                    "horizon_doublings=2.5", "rel_tol=true"):
            assert main(["cct", "--config", str(path), "--tol", key]) == 2
        assert main(["cct", "--config", str(path), "--tol", "oops"]) == 2

    def test_iteration_cap_key_is_a_config_error(self, tmp_path, capsys):
        # The bisection stops on its own once no float lies between the
        # bracket ends, so there is no cap to set.
        path = write_config(tmp_path, {**_BASE, "tolerances": {"max_iterations": 3}})
        assert main(["cct", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        assert "max_iterations" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        [command, "--verify"] for command in ("sweep", "sr-grid", "validate")
    ] + [[command, "--jobs", "2"] for command in ("cct", "sens", "validate")])
    def test_flag_a_command_does_not_read_exits_2(self, tmp_path, argv):
        path = write_config(tmp_path, _BASE)
        with pytest.raises(SystemExit) as exit_:
            main([argv[0], "--config", str(path), "--out", str(tmp_path / "o"), *argv[1:]])
        assert exit_.value.code == 2
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("key", [
        f"{name}={value}"
        for name in ("sep_radius", "field_norm_threshold", "clearing_feasibility_tol")
        for value in ("nan", "inf")
    ])
    def test_non_finite_tolerance_is_a_config_error(self, tmp_path, capsys, key):
        path = write_config(tmp_path, _BASE)
        out = tmp_path / "out"
        assert main(["cct", "--config", str(path), "--out", str(out), "--tol", key]) == 2
        assert "config error:" in capsys.readouterr().err
        assert not (out / "error.json").exists()

    @pytest.mark.parametrize("command, doc", [
        ("sr-grid", {"system": _SMIB, "grid": {
            "x1_min": -math.inf, "x1_max": 2.5, "x2_min": -1.0, "x2_max": 1.0, "n1": 3, "n2": 3}}),
        ("sr-grid", {"system": _SMIB, "grid": {
            "x1_min": -0.5, "x1_max": 2.5, "x2_min": -1.0, "x2_max": math.inf, "n1": 3, "n2": 3}}),
        ("sweep", {**_BASE, "sweep": {"parameter": "Pm", "start": math.nan, "stop": 0.7, "count": 2}}),
        ("sweep", {**_BASE, "sweep": {"parameter": "Pm", "start": 0.6, "stop": math.inf, "count": 2}}),
        ("cct", {**_BASE, "system": {**_SMIB, "inertia": math.inf}}),
        ("cct", {**_BASE, "system": {**_SMIB, "damping": math.nan}}),
        ("cct", {**_BASE, "system": {**_SMIB, "coupling": math.inf}}),
    ], ids=["grid-x1_min", "grid-x2_max", "sweep-start", "sweep-stop", "inertia", "damping",
            "coupling"])
    def test_non_finite_config_value_is_a_config_error(self, tmp_path, capsys, command, doc):
        # JSON as Python reads it takes Infinity and NaN.
        path = write_config(tmp_path, doc)
        out = tmp_path / "out"
        assert main([command, "--config", str(path), "--out", str(out)]) == 2
        assert "config error:" in capsys.readouterr().err
        assert not (out / "error.json").exists()

    @pytest.mark.parametrize("command, doc", [
        ("sweep", {**_BASE, "sweep": {
            "parameter": "Pm", "start": 0.6, "stop": 0.7, "count": 2, "tangents": "false"}}),
        ("sweep", {**_BASE, "sweep": {
            "parameter": "Pm", "start": 0.6, "stop": 0.7, "count": 2, "tangents": 1}}),
        ("cct", {**_BASE, "reverify": "no"}),
        ("cct", {**_BASE, "reverify": 0}),
        ("sweep", {**_BASE, "sweep": {"parameter": "Pm", "start": 0.6, "stop": 0.7, "count": True}}),
        ("cct", {**_BASE, "tolerances": {"horizon_doublings": 2.5}}),
        ("cct", {**_BASE, "tolerances": {"horizon_doublings": 2.0}}),
        ("cct", {**_BASE, "tolerances": {"horizon_doublings": True}}),
        ("cct", {**_BASE, "tolerances": {"rel_tol": True}}),
        ("cct", {**_BASE, "tolerances": {"bisection_tol": False}}),
        ("cct", {**_BASE, "tolerances": {"bisection_tol": "0.01"}}),
        ("cct", {**_BASE, "tolerances": {"t_max": None}}),
    ], ids=[
        "tangents-string", "tangents-int", "reverify-string", "reverify-int", "count-bool",
        "horizon_doublings-fraction", "horizon_doublings-float", "horizon_doublings-bool",
        "rel_tol-bool", "bisection_tol-bool", "bisection_tol-string", "t_max-null",
    ])
    def test_config_value_of_the_wrong_type_is_a_config_error(self, tmp_path, capsys, command,
                                                              doc):
        # Flags must be JSON booleans, counts integers and tolerances
        # numbers, none of them a boolean standing in for a number.
        path = write_config(tmp_path, doc)
        out = tmp_path / "out"
        assert main([command, "--config", str(path), "--out", str(out)]) == 2
        assert "config error:" in capsys.readouterr().err
        assert not (out / "error.json").exists()

    def test_output_directory_that_cannot_be_made_is_a_config_error(self, tmp_path, capsys):
        # A regular file where the directory should go: mkdir raised
        # NotADirectoryError outside main's error handling.
        blocker = tmp_path / "file"
        blocker.write_text("")
        out = blocker / "sub"
        path = write_config(tmp_path, _BASE)
        assert main(["cct", "--config", str(path), "--out", str(out)]) == 2
        assert f"config error: cannot create the output directory {out}" in capsys.readouterr().err

    def test_tolerance_override_changes_hash(self, tmp_path):
        path = write_config(tmp_path, _BASE)
        plain = load_config(path)
        tight = load_config(path, tol_overrides=["bisection_tol=1e-3"])
        assert plain.sha256 != tight.sha256
        assert tight.opts.bisection_tol == pytest.approx(1e-3)

    def test_out_dir_does_not_affect_hash(self, tmp_path):
        a = load_config(write_config(tmp_path, _BASE, "a.json"), out_override="x")
        b = load_config(write_config(tmp_path, _BASE, "b.json"), out_override="y")
        assert a.sha256 == b.sha256

    def test_parameter_names_resolve(self, tmp_path):
        cfg = load_config(write_config(tmp_path, _BASE))
        assert cfg.sens_params == (0, 1, 3)
        assert cfg.param_names == ("Pm", "M", "delta_max", "omega_max")

    @pytest.mark.parametrize("command, doc", [
        ("sweep", {**_BASE, "sweep": {"parameter": "Pm", "start": "low", "stop": 0.7, "count": 2}}),
        ("sweep", {**_BASE, "sweep": {"parameter": "Pm", "start": 0.6, "stop": None, "count": 2}}),
        ("cct", {"system": {
            "kind": "expressions", "state": ["x1"], "params": ["a"],
            "phases": {}, "p0": ["one"],
        }}),
        ("cct", {**_BASE, "tolerances": "tight"}),
        ("cct", {**_BASE, "tolerances": [["bisection_tol", 0.01]]}),
        ("sens", {**_BASE, "sens_params": 0}),
        ("validate", {**_BASE, "quantities": "cct_scan"}),
        ("sr-grid", {"system": _SMIB, "grid": {
            "x1_min": -1.0, "x1_max": 3.0, "x2_min": -2.0, "x2_max": 2.0, "n1": 2.5, "n2": 3,
        }}),
        ("sr-grid", {"system": _SMIB, "grid": {
            "x1_min": -1.0, "x1_max": 3.0, "x2_min": -2.0, "x2_max": 2.0, "n1": 3, "n2": 3.0,
        }}),
        ("sweep", {**_BASE, "sweep": ["parameter", "start", "stop", "count"]}),
        ("sr-grid", {**_BASE, "grid": 5}),
        ("cct", {"system": {"kind": "expressions", "state": 2, "params": [], "phases": {}, "p0": []}}),
        ("cct", {"system": {"kind": "expressions", "state": [], "params": 1, "phases": {}, "p0": []}}),
        ("cct", {"system": {"kind": "expressions", "state": ["x1"], "params": ["a"], "phases": [1], "p0": [1.0]}}),
        ("cct", {"system": {
            "kind": "expressions", "state": [1, 2], "params": ["a"],
            "phases": {ph: {"f": ["1", "1"]} for ph in ("pre", "fault", "post")}, "p0": [1.0],
        }}),
        ("cct", {"system": {
            "kind": "expressions", "state": ["x1"], "params": [None],
            "phases": {ph: {"f": ["-x1"]} for ph in ("pre", "fault", "post")}, "p0": [1.0],
        }}),
        ("cct", {"system": {
            "kind": "expressions", "state": ["x1"], "params": ["a"],
            "phases": {ph: {"f": ["-a*x1"], "h": "x1"} for ph in ("pre", "fault", "post")},
            "p0": [1.0],
        }}),
        ("cct", {"system": {
            "kind": "expressions", "state": ["x1"], "params": ["a"],
            "phases": {ph: "-a*x1" for ph in ("pre", "fault", "post")}, "p0": [1.0],
        }}),
        ("cct", {**_BASE, "out_dir": 5}),
        ("cct", {**_BASE, "sep_guess": [0.1, 0.0, 0.0]}),
        ("cct", {**_BASE, "sep_guess": [0.1]}),
        ("cct", {**_BASE, "sep_guess": 0.1}),
        ("cct", {**_BASE, "sep_guess": [0.1, "0"]}),
        ("cct", {**_BASE, "sep_guess": [[0.1, 0.0]]}),
        ("cct", {"system": {
            "kind": "expressions", "state": ["x1"], "params": ["a"],
            "phases": {ph: {"f": ["-a*x1"]} for ph in ("pre", "fault", "post")},
            "p0": [1.0],
        }, "sep_guess": [0.0, 0.0]}),
        # The machine has one coupling: the fault disconnects it and
        # clearing restores it.
        *(("cct", {**_BASE, "system": {**_SMIB, key: 1.0}})
          for key in ("coupling_pre", "coupling_fault", "coupling_post")),
    ], ids=[
        "sweep-start", "sweep-stop", "p0", "tolerances-string", "tolerances-list",
        "sens_params", "quantities", "grid-n1", "grid-n2",
        "sweep-list", "grid-int", "state", "params", "phases", "state-names", "param-names",
        "h-string", "phase-string", "out_dir",
        "sep_guess-long", "sep_guess-short", "sep_guess-scalar", "sep_guess-string",
        "sep_guess-nested", "sep_guess-expressions",
        "coupling_pre", "coupling_fault", "coupling_post",
    ])
    def test_malformed_value_is_a_config_error(self, tmp_path, capsys, command, doc):
        out = tmp_path / "out"
        assert main([command, "--config", str(write_config(tmp_path, doc)), "--out", str(out)]) == 2
        assert "config error:" in capsys.readouterr().err
        assert not (out / "error.json").exists()


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("cct")
    path = write_config(tmp, _BASE)
    out = tmp / "out"
    code = main(["cct", "--config", str(path), "--out", str(out), "--verify"])
    return code, out, json.loads((out / "cct_result.json").read_text())


class TestCct:
    def test_exit_code_and_mode(self, outputs):
        code, _, doc = outputs
        assert code == 0
        assert doc["mode"] == 1
        assert doc["crossing_label"] == "speed_limit"
        exact = -(0.1 / _D) * math.log(1.0 - _D * 0.7 / 0.65)
        assert doc["t_cl"] == pytest.approx(exact, rel=1e-6)

    def test_document_fields(self, outputs):
        _, _, doc = outputs
        assert doc["bracket"][0] <= doc["t_cl"] <= doc["bracket"][1]
        assert doc["T"] is None and doc["x_T"] is None
        # clearing at the feasibility exit is instantly infeasible
        assert doc["t1"] == 0 and doc["t2"] == "inf"
        assert len(doc["x_cr"]) == 2
        assert doc["verify"]["passed"] is True
        assert doc["verify"]["gap"] <= doc["verify"]["tol"]

    def test_trajectory_files(self, outputs):
        _, out, doc = outputs
        sha, header, rows = read_csv(out / "fault_trajectory.csv")
        assert sha == doc["config_sha256"]
        assert header == ["t", "x1", "x2", "H"]
        first = [float(v) for v in rows[0].split(",")]
        last = [float(v) for v in rows[-1].split(",")]
        assert first[0] == 0.0
        assert last[0] == pytest.approx(doc["t_cl"])
        # the run ends on the boundary, so the feasibility product
        # falls to zero
        assert first[3] > 0.0
        assert abs(last[3]) < 1e-6
        _, header, rows = read_csv(out / "post_trajectory.csv")
        assert header == ["t", "x1", "x2", "H"] and rows

    def test_infeasible_config_writes_error_document(self, tmp_path):
        path = write_config(tmp_path, {
            "system": {**_SMIB, "delta_max": 0.3},
        })
        out = tmp_path / "out"
        assert main(["cct", "--config", str(path), "--out", str(out)]) == 1
        err = json.loads((out / "error.json").read_text())
        assert err["error"]["type"] == "NoFiniteCct"


class TestSens:
    def test_rows_and_verification(self, tmp_path):
        path = write_config(tmp_path, _BASE)
        out = tmp_path / "out"
        code = main(["sens", "--config", str(path), "--out", str(out), "--verify"])
        assert code == 0
        _, header, rows = read_csv(out / "sensitivity.csv")
        assert header == [
            "parameter", "mode", "t_cl", "dtcl_dp", "dT_dp",
            "fd_slope", "rel_err", "passed",
        ]
        by_name = {r.split(",")[0]: r.split(",") for r in rows}
        assert set(by_name) == {"Pm", "M", "omega_max"}
        slope = float(by_name["Pm"][3])
        assert slope == pytest.approx(-0.1 * 0.7 / (0.65 * (0.65 - _D * 0.7)), rel=1e-5)
        assert all(r.split(",")[-1] == "pass" for r in rows)
        # dT only exists for the grazing mode
        assert all(r.split(",")[4] == "" for r in rows)


class TestSweep:
    def test_monotone_sweep_with_tangents(self, tmp_path):
        path = write_config(tmp_path, {**_BASE, "sweep": {
            "parameter": "Pm", "start": 0.55, "stop": 0.75,
            "count": 3, "tangents": True,
        }})
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(path), "--out", str(out)]) == 0
        _, header, rows = read_csv(out / "sweep.csv")
        assert header == ["parameter", "value", "t_cl", "mode", "tangent_slope"]
        t_cl = [float(r.split(",")[2]) for r in rows]
        assert t_cl == sorted(t_cl, reverse=True)
        for row in rows:
            cells = row.split(",")
            pm = float(cells[1])
            exact = -0.1 * 0.7 / (pm * (pm - _D * 0.7))
            assert float(cells[4]) == pytest.approx(exact, rel=1e-5)
            assert cells[3] == "1"

    def test_empty_range_writes_header_only(self, tmp_path):
        path = write_config(tmp_path, {"system": _SMIB, "sweep": {
            "parameter": "Pm", "start": 0.5, "stop": 0.6, "count": 0,
        }})
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(path), "--out", str(out)]) == 0
        _, header, rows = read_csv(out / "sweep.csv")
        assert header == ["parameter", "value", "t_cl", "mode"]
        assert rows == []

    def test_missing_sweep_block(self, tmp_path):
        path = write_config(tmp_path, {"system": _SMIB})
        assert main(["sweep", "--config", str(path), "--out", str(tmp_path / "o")]) == 2

    def test_deterministic_and_pool_invariant(self, tmp_path):
        path = write_config(tmp_path, {"system": _SMIB, "sweep": {
            "parameter": "Pm", "start": 0.55, "stop": 0.75,
            "count": 4, "tangents": True,
        }})
        # Wide limits: every point is a no-return (mode 3) critical time,
        # decided by captures that end in a competing equilibrium.
        wide = write_config(tmp_path, {
            "system": {"kind": "smib", "p_mech": 0.5, "inertia": 0.3,
                       "delta_max": 50.0, "omega_max": 50.0},
            "tolerances": {"t_max": 40.0},
            "sweep": {"parameter": "Pm", "start": 0.45, "stop": 0.55,
                      "count": 3, "tangents": True},
        }, name="wide.json")

        def run(out, jobs, config=path):
            assert main([
                "sweep", "--config", str(config), "--out", str(tmp_path / out),
                "--jobs", str(jobs),
            ]) == 0
            return hashlib.sha256(
                (tmp_path / out / "sweep.csv").read_bytes()
            ).hexdigest()

        assert run("a", 1) == run("b", 1) == run("c", 3)
        assert run("d", 1, wide) == run("e", 2, wide)
        _, _, rows = read_csv(tmp_path / "d" / "sweep.csv")
        assert [r.split(",")[3] for r in rows] == ["3", "3", "3"]
        # More workers than points: one point per worker.
        assert run("f", 4, wide) == run("d", 1, wide)

    def _sweep_files(self, tmp_path, doc, jobs, name):
        path = write_config(tmp_path, doc, name=f"{name}.json")
        out = tmp_path / f"{name}-{jobs}"
        code = main(["sweep", "--config", str(path), "--out", str(out), "--jobs", str(jobs)])
        return code, out

    def test_mixed_mode_sweep_is_pool_invariant(self, tmp_path):
        # Graze machines: light ones hit the speed limit (mode 1), heavy
        # ones graze the angle limit after clearing (mode 2).
        doc = {
            "system": {"kind": "smib", "p_mech": 0.5, "inertia": 0.5,
                       "delta_max": 1.6, "omega_max": 0.9},
            "sweep": {"parameter": "M", "start": 0.1, "stop": 0.5, "count": 5},
        }
        csvs = []
        for jobs in (1, 2, 3):
            code, out = self._sweep_files(tmp_path, doc, jobs, "graze")
            assert code == 0
            csvs.append((out / "sweep.csv").read_bytes())
        assert csvs[0] == csvs[1] == csvs[2]
        _, _, rows = read_csv(tmp_path / "graze-1" / "sweep.csv")
        assert [r.split(",")[3] for r in rows] == ["1", "1", "1", "2", "2"]

    def test_sweep_from_zero_inertia_writes_the_error(self, tmp_path):
        # M = 0 divides by zero in the machine's field on floats; the
        # sweep fails as on the machine's expression twin, with
        # error.json and exit code 1, not with a traceback.
        doc = {"system": _SMIB, "sweep": {
            "parameter": "M", "start": 0.0, "stop": 0.2, "count": 3,
        }}
        # The numpy fallback runs with its division warnings off: inf and
        # nan are what it is there to give.
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            code, out = self._sweep_files(tmp_path, doc, 1, "massless")
        assert not [w for w in seen if issubclass(w.category, RuntimeWarning)]
        assert code == 1 and not (out / "sweep.csv").exists()
        error = json.loads((out / "error.json").read_text())["error"]
        assert error["type"] == "NoEquilibriumFound"

    def test_lowest_failing_point_decides_the_error(self, tmp_path):
        # Pm = 1.05 and 1.5 leave no pre-fault equilibrium and fail with
        # different messages.  With two workers, 1.05 runs in the second
        # chunk and 1.5 in the first; the report names 1.05 either way.
        doc = {"system": _SMIB, "sweep": {
            "parameter": "Pm", "start": 0.6, "stop": 1.5, "count": 3,
        }}
        docs = []
        for jobs in (1, 2):
            code, out = self._sweep_files(tmp_path, doc, jobs, "fails")
            assert code == 1 and not (out / "sweep.csv").exists()
            docs.append((out / "error.json").read_bytes())
        assert docs[0] == docs[1]
        error = json.loads(docs[0])["error"]
        assert error["type"] == "NoEquilibriumFound"

        def message(pm):
            params = SmibParams(p_mech=pm, inertia=0.1, delta_max=2.0, omega_max=0.7)
            with pytest.raises(NoEquilibriumFound) as exc:
                compute_cct(smib_system(params), params.p0)
            return str(exc.value)

        _, pm_mid, pm_hi = np.linspace(0.6, 1.5, 3)
        assert error["message"] == message(pm_mid) != message(pm_hi)


class TestSrGrid:
    def test_grid_csv_pair(self, tmp_path):
        path = write_config(tmp_path, {"system": _SMIB, "grid": {
            "x1_min": -1.0, "x1_max": 3.0, "x2_min": -2.0, "x2_max": 2.0,
            "n1": 12, "n2": 10,
        }})
        out = tmp_path / "out"
        assert main(["sr-grid", "--config", str(path), "--out", str(out)]) == 0
        _, header, rows = read_csv(out / "grid_classes.csv")
        assert header == ["x1", "x2", "class"]
        assert len(rows) == 12 * 10
        classes = {r.split(",")[2] for r in rows}
        assert "stable" in classes and "hits_boundary" in classes
        _, header, rows = read_csv(out / "grid_boundary.csv")
        assert header == ["x1", "x2", "constraint", "kind", "h_dot"]
        kinds = {r.split(",")[3] for r in rows}
        assert "semi_saddle" in kinds
        assert any(k.startswith("separatrix_") for k in kinds)

    def test_grid_files_do_not_depend_on_jobs(self, tmp_path):
        # Rows are dealt to workers row i to worker i % jobs; 3 divides
        # neither 11 rows nor 11 - 1.
        path = write_config(tmp_path, {"system": _SMIB, "grid": {
            "x1_min": -1.0, "x1_max": 3.0, "x2_min": -2.0, "x2_max": 2.0,
            "n1": 11, "n2": 9,
        }})
        files = []
        for jobs in (1, 2, 3):
            out = tmp_path / f"out-{jobs}"
            args = ["sr-grid", "--config", str(path), "--out", str(out), "--jobs", str(jobs)]
            assert main(args) == 0
            files.append([(out / name).read_bytes()
                          for name in ("grid_classes.csv", "grid_boundary.csv")])
        assert files[0] == files[1] == files[2]

    def test_saddle_sep_guess_exits_one(self, tmp_path):
        doc = {
            "system": {"kind": "smib", "p_mech": 0.5, "inertia": 0.2,
                       "delta_max": 2.9, "omega_max": 1.5},
            "sep_guess": [math.pi - math.asin(0.5), 0.0],
            "grid": {"x1_min": -0.5, "x1_max": 2.5, "x2_min": -1.0, "x2_max": 1.0,
                     "n1": 3, "n2": 3},
        }
        out = tmp_path / "out"
        assert main(["sr-grid", "--config", str(write_config(tmp_path, doc)), "--out", str(out)]) == 1
        err = json.loads((out / "error.json").read_text())
        assert err["error"]["type"] == "NoEquilibriumFound"
        assert not (out / "grid_classes.csv").exists()

    def test_naming_a_grid_default_changes_nothing(self, tmp_path):
        # t_max 20 is the grid's own default; naming it must not swap the
        # other grid defaults for the critical-time search's.
        grid = {"x1_min": -1.5, "x1_max": 3.5, "x2_min": -2.5, "x2_max": 2.5, "n1": 20, "n2": 20}
        bodies = []
        for name, tol in (("plain", {}), ("named", {"t_max": 20.0})):
            path = write_config(tmp_path, {"system": _SMIB, "grid": grid, "tolerances": tol}, f"{name}.json")
            out = tmp_path / name
            assert main(["sr-grid", "--config", str(path), "--out", str(out)]) == 0
            bodies.append([read_csv(out / f)[1:] for f in ("grid_classes.csv", "grid_boundary.csv")])
        assert bodies[0] == bodies[1]

    def test_missing_grid_block(self, tmp_path):
        path = write_config(tmp_path, {"system": _SMIB})
        assert main(["sr-grid", "--config", str(path), "--out", str(tmp_path / "o")]) == 2


class TestValidate:
    def test_suite_passes(self, tmp_path):
        path = write_config(tmp_path, {**_BASE, "quantities": ["cct_scan", "slope_Pm"]})
        out = tmp_path / "out"
        assert main(["validate", "--config", str(path), "--out", str(out)]) == 0
        _, header, rows = read_csv(out / "validate.csv")
        assert header == "name,analytic,oracle,rel_err,steps,tol,passed".split(",")
        assert [r.split(",")[0] for r in rows] == ["cct_scan", "slope_Pm"]
        assert all(r.endswith("pass") for r in rows)

    def test_failing_row_exits_three(self, tmp_path, monkeypatch):
        from cctsens.validate import compare

        monkeypatch.setattr(
            "cctsens.cli.oracle_suite",
            lambda *a, **k: [compare("fake", 1.0, 2.0, (1e-4,), 0.05)],
        )
        path = write_config(tmp_path, _BASE)
        out = tmp_path / "out"
        assert main(["validate", "--config", str(path), "--out", str(out)]) == 3
        _, _, rows = read_csv(out / "validate.csv")
        assert rows[0].endswith("fail")


class TestExpressionSystems:
    def test_cct_on_expression_config(self, tmp_path):
        # Same machine written out as expressions; the speed limit must
        # reproduce the closed-form critical time.
        phases = {
            "pre": {"f": ["x2", "(p1 - sin(x1) - 0.5*x2)/p2"],
                    "h": {"angle_limit": "p3 - x1", "speed_limit": "p4 - x2"}},
            "fault": {"f": ["x2", "(p1 - 0.5*x2)/p2"],
                      "h": {"speed_limit": "p4 - x2"}},
            "post": {"f": ["x2", "(p1 - sin(x1) - 0.5*x2)/p2"],
                     "h": {"angle_limit": "p3 - x1", "speed_limit": "p4 - x2"}},
        }
        path = write_config(tmp_path, {"system": {
            "kind": "expressions",
            "state": ["x1", "x2"],
            "params": ["p1", "p2", "p3", "p4"],
            "phases": phases,
            "p0": [0.65, 0.1, 2.0, 0.7],
        }})
        out = tmp_path / "out"
        assert main(["cct", "--config", str(path), "--out", str(out)]) == 0
        doc = json.loads((out / "cct_result.json").read_text())
        exact = -(0.1 / _D) * math.log(1.0 - _D * 0.7 / 0.65)
        assert doc["mode"] == 1
        assert doc["t_cl"] == pytest.approx(exact, rel=1e-6)

    def test_sens_with_an_abs_margin(self, tmp_path):
        # The bench's swing twin with its speed limit on |omega|: the
        # margin's Hessian holds DiracDelta(omega), which numpy cannot
        # evaluate, yet a speed-limit graze reads that Hessian.
        limits = {"angle_limit": "delta_max - delta", "speed_limit": "omega_max - Abs(omega)"}
        swing = ["omega", "(Pm - sin(delta) - 0.5*omega)/M"]
        system = {
            "kind": "expressions",
            "state": ["delta", "omega"],
            "params": ["Pm", "M", "delta_max", "omega_max"],
            "phases": {
                "pre": {"f": swing, "h": limits},
                "fault": {"f": ["omega", "(Pm - 0.5*omega)/M"], "h": limits},
                "post": {"f": swing, "h": limits},
            },
            "p0": [0.5, 0.3, 50.0, 1.2],
        }
        path = write_config(tmp_path, {
            "system": system, "sens_params": system["params"],
            "tolerances": {"bisection_tol": 1e-4},
        })
        out = tmp_path / "out"
        assert main(["sens", "--config", str(path), "--out", str(out)]) == 0
        _, header, rows = read_csv(out / "sensitivity.csv")
        table = {row.split(",")[0]: dict(zip(header, row.split(","))) for row in rows}
        assert {r["mode"] for r in table.values()} == {"2"}
        cfg = load_config(path)
        built, fd_opts = build_system(cfg), CctOptions(bisection_tol=1e-6)
        for k, name in enumerate(system["params"]):
            slope = float(table[name]["dtcl_dp"])
            fd = fd_cct_slope(built, cfg.p0, k, eps=1e-3, opts=fd_opts)
            if fd == 0.0:
                # An inactive limit: compare absolutely, as A5 does.
                assert abs(slope) <= 5e-3, name
            else:
                assert abs(slope - fd) <= 0.05 * abs(fd), name

    @pytest.mark.parametrize("edit, name", [
        # An undefined function, whose derivative has no numpy code.
        ({"f": ["omega", "(Pm - sin(delta) - 0.5*omega)/M + g(delta)"]}, "g"),
        # A parameter named as a function the code calls: x**3 is power(x, 3).
        ({"params": ["Pm", "M", "delta_max", "power"], "h": {"speed_limit": "power - omega**3"}},
         "power"),
    ], ids=["undefined", "shadowed"])
    def test_a_function_the_code_cannot_call_is_a_config_error(self, tmp_path, capsys, edit, name):
        doc = json.loads((Path(__file__).parents[1] / "configs" / "swing_expressions.json").read_text())
        # sens_params names omega_max, which one edit renames.
        del doc["sens_params"]
        system = doc["system"]
        system["params"] = edit.get("params", system["params"])
        for block in system["phases"].values():
            block.update((key, edit[key]) for key in ("f", "h") if key in edit)
        out = tmp_path / "out"
        assert main(["cct", "--config", str(write_config(tmp_path, doc)), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "config error:" in err and repr(name) in err
        assert not (out / "error.json").exists()

    def test_p0_length_checked(self, tmp_path):
        path = write_config(tmp_path, {"system": {
            "kind": "expressions", "state": ["x1"], "params": ["a"],
            "phases": {}, "p0": [1.0, 2.0],
        }})
        assert main(["cct", "--config", str(path)]) == 2


class TestEntryPoint:
    def test_installed_script(self, tmp_path):
        path = write_config(tmp_path, {"system": _SMIB, "sweep": {
            "parameter": "Pm", "start": 0.6, "stop": 0.7, "count": 2,
        }})
        out = tmp_path / "out"
        proc = subprocess.run(
            [sys.executable, "-m", "cctsens.cli", "sweep",
             "--config", str(path), "--out", str(out)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert (out / "sweep.csv").exists()
