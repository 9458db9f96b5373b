"""Command-line interface: config validation, outputs, determinism."""

import json
import os
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
import yaml

import chiralplate.cli as cli
from chiralplate import assembly, experiments
from chiralplate.cli import EXIT_CONFIG, EXIT_NUMERICAL, EXIT_OK, main
from chiralplate.errors import SolveError
from chiralplate.experiments import FORMLABS_CLEAR
from chiralplate.materials import IsotropicMaterial
from chiralplate.plates import PlateSpec

SOLID_CONFIG = {
    "scenario": "solid",
    "bc": "clamped",
    "algorithm": "conforming",
    "material": {"E_mpa": 2800.0, "mu": 0.35, "sigma_el_mpa": 35.0},
    "load": {"F_y_n": 30.0},
    "solid": {"layers": 2},
}


def write_config(tmp_path, data, name="scenario.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(data))
    return path


def run(args):
    return main([str(a) for a in args])


def _singular_solve(*args, **kwargs):
    raise SolveError("reduced stiffness not positive definite", rigid_modes=1)


class TestSolve:
    def test_solid_anchor_summary(self, tmp_path, capsys):
        cfg = write_config(tmp_path, SOLID_CONFIG)
        out = tmp_path / "out"
        assert run(["solve", "--config", cfg, "--out", out]) == EXIT_OK
        stdout = capsys.readouterr().out
        assert "F_crit" in stdout
        summary = (out / "summary.csv").read_text().splitlines()
        f_crit = float(dict(line.split(",") for line in summary[1:])["F_crit_n"])
        assert f_crit == pytest.approx(92.0, rel=0.03)
        assert (out / "field.csv").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["scenario"] == "solid"

    def test_dry_run_writes_nothing(self, tmp_path, capsys):
        cfg = write_config(tmp_path, SOLID_CONFIG)
        out = tmp_path / "out"
        assert run(["solve", "--config", cfg, "--out", out, "--dry-run"]) == EXIT_OK
        assert "54 x 2 elements" in capsys.readouterr().out
        assert not out.exists()

    def test_composite_single_case(self, tmp_path):
        data = {
            "scenario": "setup1",
            "honeycomb": {"d_a_mm": 1.0, "rho_rel": 0.353},
        }
        cfg = write_config(tmp_path, data)
        out = tmp_path / "out"
        assert run(["solve", "--config", cfg, "--out", out]) == EXIT_OK
        summary = (out / "summary.csv").read_text()
        assert "sigma_max_core_mpa" in summary
        assert "sigma_max_face_top_mpa" in summary

    def test_setup2_single_case(self, tmp_path):
        data = {
            "scenario": "setup2",
            "honeycomb": {"d_a_mm": 1.6, "rho_rel": 0.14},
            "load": {"F_y_n": 60.0},
        }
        cfg = write_config(tmp_path, data)
        out = tmp_path / "out"
        assert run(["solve", "--config", cfg, "--out", out]) == EXIT_OK
        # constant-volume rule: thick core at low density -> 4 layer bands
        field = (out / "field.csv").read_text()
        assert field.count("core") > field.count("face_top")

    def test_algorithm_flag(self, tmp_path):
        cfg = write_config(tmp_path, SOLID_CONFIG)
        outs = {}
        for name, algo in (("c", "conforming"), ("i", "incompatible")):
            out = tmp_path / name
            assert run(
                ["solve", "--config", cfg, "--out", out, "--algorithm", algo]
            ) == EXIT_OK
            summary = (out / "summary.csv").read_text().splitlines()
            outs[algo] = float(dict(l.split(",") for l in summary[1:])["F_crit_n"])
        assert outs["conforming"] != outs["incompatible"]

    @pytest.mark.parametrize("scenario", ["solid", "setup2"])
    def test_solve_analyzes_once(self, tmp_path, monkeypatch, scenario):
        from chiralplate.experiments import run_case, run_solid_case
        from chiralplate.plates import BoundaryCondition
        from chiralplate.reporting import fmt

        calls = []
        real_analyze = experiments.analyze

        def counting_analyze(*args):
            calls.append(args)
            return real_analyze(*args)

        monkeypatch.setattr(experiments, "analyze", counting_analyze)
        data = {"scenario": scenario, "load": {"F_y_n": 50.0}}
        if scenario == "setup2":
            data["honeycomb"] = {"d_a_mm": 1.3, "rho_rel": 0.3}
        cfg = write_config(tmp_path, data)
        out = tmp_path / "out"
        assert run(["solve", "--config", cfg, "--out", out, "--dry-run"]) == EXIT_OK
        assert calls == []
        assert run(["solve", "--config", cfg, "--out", out]) == EXIT_OK
        assert len(calls) == 1
        summary = (out / "summary.csv").read_text().splitlines()
        f_crit = dict(line.split(",") for line in summary[1:])["F_crit_n"]
        if scenario == "solid":
            ledger = run_solid_case(BoundaryCondition.CLAMPED, F_probe=50.0)
        else:
            ledger = run_case(2, 1.3, 0.3, BoundaryCondition.CLAMPED,
                              F_probe=50.0, allow_off_grid=True)
        assert f_crit == fmt(ledger.F_crit)

    def test_max_rows_caps_field_dump(self, tmp_path):
        cfg = write_config(tmp_path, SOLID_CONFIG)
        out = tmp_path / "out"
        assert run(
            ["solve", "--config", cfg, "--out", out, "--max-rows", 10]
        ) == EXIT_OK
        assert len((out / "field.csv").read_text().splitlines()) == 11

    def test_bc_flag_overrides_config(self, tmp_path):
        cfg = write_config(tmp_path, SOLID_CONFIG)
        out = tmp_path / "out"
        assert run(
            ["solve", "--config", cfg, "--out", out, "--bc", "supported"]
        ) == EXIT_OK
        summary = (out / "summary.csv").read_text().splitlines()
        f_crit = float(dict(line.split(",") for line in summary[1:])["F_crit_n"])
        assert f_crit == pytest.approx(60.1, rel=0.03)


class TestLibraryDefaults:
    """Config keys left out take the library's FORMLABS_CLEAR and PlateSpec()."""

    @staticmethod
    def spelled_out(material, spec):
        return {
            "material": {"E_mpa": material.E, "mu": material.mu,
                         "rho_kg_m3": material.rho,
                         "sigma_el_mpa": material.sigma_el},
            "plate": {"a_mm": spec.a, "h_mm": spec.h, "t_p_mm": spec.t_p,
                      "t_fl_mm": spec.t_fl, "t_cl_mm": spec.t_cl,
                      "l1_mm": spec.l_1, "x1_mm": spec.x1, "x2_mm": spec.x2},
        }

    # "patched" swaps other defaults into the names the CLI reads them from,
    # so a default restated in the CLI shows up as a difference.
    @pytest.mark.parametrize("patched", [False, True], ids=["shipped", "patched"])
    @pytest.mark.parametrize("scenario", ["solid", "setup1"])
    def test_omitted_equals_spelled_out(self, tmp_path, monkeypatch, scenario,
                                        patched):
        material, spec = FORMLABS_CLEAR, PlateSpec()
        if patched:
            material = replace(material, E=3100.0, mu=0.3, sigma_el=41.0)
            spec = PlateSpec(h=11.0, t_p=2.4, t_fl=0.6, t_cl=1.2)
            monkeypatch.setattr(cli, "FORMLABS_CLEAR", material)
            monkeypatch.setattr(cli, "PlateSpec", lambda: spec)
        section = {"solid": {"solid": {"layers": 3}},
                   "setup1": {"honeycomb": {"d_a_mm": 1.0, "rho_rel": 0.353}}}
        base = {"scenario": scenario, **section[scenario]}
        files = []
        for name, data in (("omitted", base),
                           ("spelled", dict(base, **self.spelled_out(material, spec)))):
            cfg = write_config(tmp_path, data, name=f"{name}.yaml")
            out = tmp_path / name
            assert run(["solve", "--config", cfg, "--out", out]) == EXIT_OK
            files.append([(out / f).read_bytes() for f in ("field.csv", "summary.csv")])
        assert files[0] == files[1]

    def test_key_table_names_are_library_fields(self):
        for section, cls in (("material", IsotropicMaterial), ("plate", PlateSpec)):
            assert set(cli._KEYS[section].values()) == {f.name for f in fields(cls)}


class TestConfigValidation:
    def test_missing_file(self, tmp_path):
        assert run(["solve", "--config", tmp_path / "nope.yaml"]) == EXIT_CONFIG

    def test_malformed_yaml(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("scenario: [unclosed")
        out = tmp_path / "out"
        assert run(["solve", "--config", path, "--out", out]) == EXIT_CONFIG
        assert not out.exists()

    def test_unknown_key_rejected(self, tmp_path):
        data = dict(SOLID_CONFIG, typo_key=1)
        cfg = write_config(tmp_path, data)
        assert run(["solve", "--config", cfg, "--out", tmp_path / "o"]) == EXIT_CONFIG

    def test_unknown_nested_key_rejected(self, tmp_path):
        data = dict(SOLID_CONFIG, material={"E_mpa": 2800.0, "E_gpa": 2.8})
        cfg = write_config(tmp_path, data)
        assert run(["solve", "--config", cfg, "--out", tmp_path / "o"]) == EXIT_CONFIG

    def test_bad_scenario_rejected(self, tmp_path):
        cfg = write_config(tmp_path, {"scenario": "warp-drive"})
        assert run(["solve", "--config", cfg, "--out", tmp_path / "o"]) == EXIT_CONFIG

    @pytest.mark.parametrize("scenario", ["[a]", "{a: 1}"], ids=["list", "mapping"])
    def test_non_string_scenario_rejected(self, tmp_path, capsys, scenario):
        path = tmp_path / "scenario.yaml"
        path.write_text(f"scenario: {scenario}\n")
        out = tmp_path / "o"
        assert run(["solve", "--config", path, "--out", out]) == EXIT_CONFIG
        assert "'solve' handles solid/setup1/setup2, got " in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "make",
        [lambda path: path.mkdir(),
         lambda path: path.write_bytes(b"scenario: solid\n# caf\xe9\n")],
        ids=["directory", "not-utf8"],
    )
    def test_unreadable_config_rejected(self, tmp_path, capsys, make):
        path = tmp_path / "scenario.yaml"
        make(path)
        out = tmp_path / "o"
        assert run(["solve", "--config", path, "--out", out]) == EXIT_CONFIG
        assert f"cannot read config {path}: " in capsys.readouterr().err
        assert not out.exists()

    def test_wrong_command_for_scenario(self, tmp_path):
        cfg = write_config(tmp_path, SOLID_CONFIG)
        assert run(["sweep", "--config", cfg, "--out", tmp_path / "o"]) == EXIT_CONFIG

    def test_bad_material_rejected(self, tmp_path):
        data = dict(SOLID_CONFIG, material={"E_mpa": 2800.0, "mu": 0.6})
        cfg = write_config(tmp_path, data)
        assert run(["solve", "--config", cfg, "--out", tmp_path / "o"]) == EXIT_CONFIG

    @pytest.mark.parametrize(
        "section, key", [("plate", "h_mm"), ("material", "E_mpa")]
    )
    @pytest.mark.parametrize(
        "text",
        [".nan", ".inf", "-.inf", pytest.param("1" + "0" * 400, id="int-past-float")],
    )
    def test_non_finite_number_rejected(self, tmp_path, section, key, text):
        path = tmp_path / "scenario.yaml"
        path.write_text(f"scenario: solid\n{section}: {{{key}: {text}}}\n")
        out = tmp_path / "o"
        assert run(["solve", "--config", path, "--out", out]) == EXIT_CONFIG
        assert not out.exists()

    @pytest.mark.parametrize("text", ["1e9", "1.0e9", "-2.5E3", ".5e1", "7e+2"])
    def test_exponent_read_as_string_explained(self, tmp_path, capsys, text):
        # YAML 1.1 reads these as strings; the message names a form it reads
        path = tmp_path / "scenario.yaml"
        path.write_text(f"scenario: solid\nmaterial: {{E_mpa: {text}}}\n")
        assert run(["solve", "--config", path, "--dry-run"]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"material.E_mpa was read as the string {text!r}" in err
        number = err.split("; ")[1].removesuffix(" is a number\n")
        assert yaml.safe_load(number) == float(text)

    @pytest.mark.parametrize(
        "out", ["afile", "afile/sub"], ids=["existing-file", "under-a-file"]
    )
    def test_output_directory_not_creatable(self, tmp_path, capsys, out):
        (tmp_path / "afile").write_text("")
        cfg = write_config(tmp_path, SOLID_CONFIG)
        assert run(["solve", "--config", cfg, "--out", tmp_path / out]) == EXIT_CONFIG
        assert "cannot create output directory " in capsys.readouterr().err

    @pytest.mark.parametrize("load", ["1.0e+307", "1.0e-310"])
    def test_probe_load_past_the_float_range_rejected(self, tmp_path, capsys, load):
        path = tmp_path / "scenario.yaml"
        path.write_text(f"scenario: solid\nload: {{F_y_n: {load}}}\n")
        out = tmp_path / "o"
        with np.errstate(over="ignore", invalid="ignore"):
            assert run(["solve", "--config", path, "--out", out]) == EXIT_CONFIG
        assert "probe load " in capsys.readouterr().err
        assert not (out / "summary.csv").exists()

    @pytest.mark.parametrize("load", ["1.0e+300", "1.0e-300"])
    def test_probe_load_far_from_one_solved(self, tmp_path, load):
        # the von Mises stress is scaled before it is squared, so F_crit
        # comes out as at the default load of 30 N
        path = tmp_path / "far.yaml"
        path.write_text(f"scenario: solid\nload: {{F_y_n: {load}}}\n")
        default = write_config(tmp_path, SOLID_CONFIG, "default.yaml")
        crit = {}
        for name, cfg in (("far", path), ("default", default)):
            out = tmp_path / name
            assert run(["solve", "--config", cfg, "--out", out]) == EXIT_OK
            summary = (out / "summary.csv").read_text().splitlines()
            crit[name] = float(dict(line.split(",") for line in summary[1:])["F_crit_n"])
        assert crit["far"] == pytest.approx(crit["default"], rel=1e-12)

    def test_load_on_fixed_dofs_only_rejected(self, tmp_path, capsys):
        # 3 square elements: l_1 = 1.5 mm splits the load between the top
        # nodes at x = 1 and x = 2 mm, both on the clamp lines
        plate = {"a_mm": 3.0, "t_p_mm": 1.0, "x1_mm": 1.0, "x2_mm": 2.0, "l1_mm": 1.5}
        data = {"scenario": "convergence", "plate": plate,
                "convergence": {"max_layers": 1}}
        cfg = write_config(tmp_path, data)
        out = tmp_path / "o"
        assert run(["convergence", "--config", cfg, "--out", out]) == EXIT_CONFIG
        assert (
            "probe load at l_1 = 1.5 mm acts on no free DOF: clamped fixes DOFs "
            "[4, 5, 6, 7, 8, 9, 10, 11]"
        ) in capsys.readouterr().err
        assert not (out / "convergence.csv").exists()

    @pytest.mark.parametrize("flag", ["--max-rows"])
    @pytest.mark.parametrize("value", ["-5", "0", "two"])
    def test_non_positive_count_rejected(self, tmp_path, capsys, flag, value):
        cfg = write_config(tmp_path, SOLID_CONFIG)
        out = tmp_path / "o"
        with pytest.raises(SystemExit) as exc:
            run(["solve", "--config", cfg, "--out", out, flag, value])
        assert exc.value.code == EXIT_CONFIG
        assert "positive integer" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, data",
        [
            ("solve", dict(SOLID_CONFIG, load={"F_y_n": 0})),
            ("sweep", {"scenario": "setup1", "load": {"F_y_n": -5}}),
            ("convergence", {"scenario": "convergence",
                             "convergence": {"max_layers": 0}}),
            ("solve", dict(SOLID_CONFIG, solid={"layers": 0})),
        ],
        ids=["zero-load", "negative-load", "no-convergence-layers",
             "no-solid-layers"],
    )
    def test_non_positive_config_number_rejected(
        self, tmp_path, capsys, command, data
    ):
        cfg = write_config(tmp_path, data)
        out = tmp_path / "o"
        assert run([command, "--config", cfg, "--out", out]) == EXIT_CONFIG
        assert "must be positive" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("dry_run", [[], ["--dry-run"]], ids=["run", "dry-run"])
    @pytest.mark.parametrize(
        "command, data",
        [
            ("convergence", {"scenario": "convergence",
                             "convergence": {"max_layers": 33}}),
            ("solve", dict(SOLID_CONFIG, solid={"layers": 33})),
        ],
        ids=["convergence-layers", "solid-layers"],
    )
    def test_layer_count_above_32_rejected(
        self, tmp_path, capsys, command, data, dry_run
    ):
        cfg = write_config(tmp_path, data)
        out = tmp_path / "o"
        assert run([command, "--config", cfg, "--out", out, *dry_run]) == EXIT_CONFIG
        assert "must be at most 32" in capsys.readouterr().err
        assert not out.exists()

    def test_layer_count_of_32_accepted(self, tmp_path):
        cfg = write_config(tmp_path, dict(SOLID_CONFIG, solid={"layers": 32}))
        out = tmp_path / "o"
        assert run(["solve", "--config", cfg, "--out", out, "--dry-run"]) == EXIT_OK

    @pytest.mark.parametrize("dry_run", [[], ["--dry-run"]], ids=["run", "dry-run"])
    @pytest.mark.parametrize("scenario", ["setup1", "setup2"])
    @pytest.mark.parametrize(
        "cell",
        [{"rho_rel": 0}, {"rho_rel": -0.1}, {"rho_rel": 1.2},
         {"rho_rel": 0.99}, {"d_a_mm": -1}],
        ids=["rho-0", "rho-negative", "rho-above-1", "rho-unreachable",
             "d_a-negative"],
    )
    def test_bad_honeycomb_cell_rejected(
        self, tmp_path, capsys, cell, scenario, dry_run
    ):
        honeycomb = dict({"d_a_mm": 1.0, "rho_rel": 0.353}, **cell)
        cfg = write_config(tmp_path, {"scenario": scenario, "honeycomb": honeycomb})
        out = tmp_path / "o"
        assert run(["solve", "--config", cfg, "--out", out, *dry_run]) == EXIT_CONFIG
        assert "bad honeycomb cell" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("dry_run", [[], ["--dry-run"]], ids=["run", "dry-run"])
    def test_core_outside_layering_bands_rejected(self, tmp_path, capsys, dry_run):
        # setup 2 at rho_rel 0.32 derives a core between the two bands
        honeycomb = {"d_a_mm": 1.0, "rho_rel": 0.32}
        cfg = write_config(tmp_path, {"scenario": "setup2", "honeycomb": honeycomb})
        out = tmp_path / "o"
        assert run(["solve", "--config", cfg, "--out", out, *dry_run]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert (
            "bad plate spec: core thickness 1.5625 mm outside the layering bands "
            "(0.7, 1.4) and (1.7, 3.6), for which no core layer count is defined"
        ) in err
        assert "core_layers" not in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, flag",
        [("convergence", ["--bc", "supported"]),
         ("honeycomb", ["--algorithm", "incompatible"]),
         ("sweep", ["--max-rows", "3"])],
    )
    def test_flag_of_another_command_rejected(self, tmp_path, command, flag):
        cfg = write_config(tmp_path, {"scenario": "poisson"})
        with pytest.raises(SystemExit) as exc:
            run([command, "--config", cfg, "--out", tmp_path / "o", *flag])
        assert exc.value.code == EXIT_CONFIG

    CELL = {"d_a_mm": 1.0, "rho_rel": 0.353}

    @pytest.mark.parametrize(
        "data, message",
        [({"scenario": "warp-drive"}, "configuration error"),
         ({"scenario": "setup1", "honeycomb": CELL}, "numerical failure")],
        ids=["config", "numerical"],
    )
    def test_error_printed_once(self, tmp_path, capsys, monkeypatch, data, message):
        monkeypatch.setattr(experiments, "analyze", _singular_solve)
        cfg = write_config(tmp_path, data)
        assert run(["solve", "--config", cfg, "--out", tmp_path / "o"]) != EXIT_OK
        captured = capsys.readouterr()
        assert captured.err.count(message) == 1
        assert captured.out == ""

    def test_numerical_failure_exit_code(self, tmp_path, monkeypatch):
        monkeypatch.setattr(experiments, "analyze", _singular_solve)
        cfg = write_config(tmp_path, {"scenario": "setup1", "honeycomb": self.CELL})
        assert run(
            ["solve", "--config", cfg, "--out", tmp_path / "o"]
        ) == EXIT_NUMERICAL

    # x1 = 12.1 mm falls on no node line of the composite or the
    # equal-aspect solid mesh; no element count up to 1e5 puts a node of
    # the snapped solid mesh at x1 = 12.3456789 mm
    @pytest.mark.parametrize(
        "command, scenario, x1, dry_run",
        [("solve", "setup1", 12.1, []), ("solve", "setup1", 12.1, ["--dry-run"]),
         ("solve", "setup2", 12.1, []), ("solve", "solid", 12.3456789, []),
         ("sweep", "setup1", 12.1, []), ("sweep", "setup1", 12.1, ["--dry-run"]),
         ("convergence", "convergence", 12.1, []),
         ("convergence", "convergence", 12.1, ["--dry-run"])],
        ids=["solve-setup1", "solve-setup1-dry-run", "solve-setup2", "solve-solid",
             "sweep", "sweep-dry-run", "convergence", "convergence-dry-run"],
    )
    def test_off_grid_support_is_a_config_error(
        self, tmp_path, capsys, command, scenario, x1, dry_run
    ):
        data = {"scenario": scenario, "plate": {"x1_mm": x1}}
        if scenario in ("setup1", "setup2") and command == "solve":
            data["honeycomb"] = self.CELL
        cfg = write_config(tmp_path, data)
        args = [command, "--config", cfg, "--out", tmp_path / "o"]
        assert run(args + dry_run) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "bad plate spec: " in err
        if dry_run:  # the dry run reports what the run would
            assert run(args) == EXIT_CONFIG
            assert capsys.readouterr().err == err

    NEVER_READ = [
        ("honeycomb", {"scenario": "poisson"}, {"bc": "supported"}),
        ("honeycomb", {"scenario": "poisson"}, {"algorithm": "incompatible"}),
        ("honeycomb", {"scenario": "poisson"}, {"load": {"F_y_n": 10}}),
        ("honeycomb", {"scenario": "poisson"}, {"solid": {"layers": 4}}),
        ("honeycomb", {"scenario": "poisson"}, {"plate": {"h_mm": 9}}),
        ("convergence", {"scenario": "convergence"}, {"bc": "supported"}),
        ("convergence", {"scenario": "convergence"}, {"algorithm": "incompatible"}),
        ("solve", {"scenario": "setup1", "honeycomb": CELL}, {"solid": {"layers": 4}}),
        ("solve", {"scenario": "setup2", "honeycomb": CELL}, {"solid": {"layers": 4}}),
        ("solve", {"scenario": "solid"}, {"honeycomb": CELL}),
        ("sweep", {"scenario": "setup1"}, {"honeycomb": CELL}),
    ]

    @pytest.mark.parametrize(
        "command, base, unread", NEVER_READ,
        ids=[f"{c}-{b['scenario']}-{next(iter(u))}" for c, b, u in NEVER_READ],
    )
    def test_section_never_read_rejected(self, tmp_path, capsys, command, base,
                                         unread):
        for data, code in ((base, EXIT_OK), (dict(base, **unread), EXIT_CONFIG)):
            cfg = write_config(tmp_path, data)
            assert run([command, "--config", cfg, "--dry-run"]) == code
        (key,) = unread
        assert f"never reads {key}" in capsys.readouterr().err


class TestDryRunEverywhere:
    def test_all_commands_dry_run(self, tmp_path, capsys):
        cases = [
            ("sweep", {"scenario": "setup1"}),
            ("convergence", {"scenario": "convergence"}),
            ("honeycomb", {"scenario": "poisson"}),
        ]
        for command, data in cases:
            cfg = write_config(tmp_path, data, name=f"{command}.yaml")
            out = tmp_path / f"out_{command}"
            assert run([command, "--config", cfg, "--out", out, "--dry-run"]) == EXIT_OK
            assert not out.exists()
            assert capsys.readouterr().out.strip()

    def test_sweep_dry_run_prints_the_users_words(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"scenario": "setup2"})
        assert run(["sweep", "--config", cfg, "--dry-run", "--bc", "supported",
                    "--algorithm", "incompatible"]) == EXIT_OK
        assert capsys.readouterr().out == (
            "sweep setup 2: 4 x 9 grid cases, supported, incompatible\n"
        )

    def test_log_env_var(self, tmp_path, monkeypatch):
        import logging

        monkeypatch.setenv("CHIRALPLATE_LOG", "debug")
        cfg = write_config(tmp_path, {"scenario": "poisson"})
        assert run(["honeycomb", "--config", cfg, "--out", tmp_path / "o",
                    "--dry-run"]) == EXIT_OK
        assert logging.getLogger().level == logging.DEBUG
        monkeypatch.setenv("CHIRALPLATE_LOG", "warning")
        assert run(["honeycomb", "--config", cfg, "--out", tmp_path / "o",
                    "--dry-run"]) == EXIT_OK
        assert logging.getLogger().level == logging.WARNING


@pytest.mark.parametrize(
    "command, data",
    [("solve", SOLID_CONFIG),
     ("solve", {"scenario": "setup2", "honeycomb": {"d_a_mm": 1.6, "rho_rel": 0.353}}),
     ("sweep", {"scenario": "setup1"}),
     ("convergence", {"scenario": "convergence", "convergence": {"max_layers": 2}}),
     ("honeycomb", {"scenario": "poisson"})],
    ids=["solve-solid", "solve-setup2", "sweep", "convergence", "honeycomb"],
)
def test_debug_log_leaves_outputs_unchanged(tmp_path, command, data):
    cfg = write_config(tmp_path, data)
    src = Path(__file__).resolve().parent.parent / "src"
    outputs, stderr = {}, {}
    for level in ("warning", "debug"):
        env = dict(os.environ, CHIRALPLATE_LOG=level)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(src), env.get("PYTHONPATH")) if p
        )
        out = tmp_path / level
        proc = subprocess.run(
            [sys.executable, "-m", "chiralplate.cli", command, "--config", str(cfg),
             "--out", str(out)],
            env=env, capture_output=True, text=True, check=True,
        )
        outputs[level] = {p.name: p.read_bytes() for p in out.iterdir()}
        stderr[level] = proc.stderr
    assert outputs["debug"] == outputs["warning"]
    assert stderr["warning"] == ""
    solves = stderr["debug"].count("DEBUG:chiralplate.assembly:analyze: ")
    assert solves == {"solve": 1, "sweep": 36, "convergence": 4, "honeycomb": 0}[command]


def _python(code: str) -> str:
    """stdout of ``code`` run in a fresh interpreter on this checkout."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(src), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        check=True,
    )
    return proc.stdout.strip()


needs_numpy_openblas = pytest.mark.skipif(
    assembly._numpy_openblas() is None,
    reason="numpy's wheel has no ILP64 scipy-openblas, so solve takes its "
    "LAPACK from scipy",
)


class TestImport:
    def test_cli_import_leaves_scipy_linalg_unloaded(self):
        code = "import sys, chiralplate.cli; print('scipy.linalg' in sys.modules)"
        assert _python(code) == "False"

    @needs_numpy_openblas
    def test_run_case_leaves_scipy_unloaded(self):
        # numpy.ma, which np.unique imports, costs ~14 ms a process as well
        code = (
            "import sys\n"
            "from chiralplate import BoundaryCondition, run_case\n"
            "run_case(1, 1.3, 0.353, BoundaryCondition.CLAMPED)\n"
            "print('scipy' in sys.modules, 'numpy.ma' in sys.modules)"
        )
        assert _python(code) == "False False"

    @needs_numpy_openblas
    @pytest.mark.parametrize(
        "command, config",
        [("solve", {"scenario": "setup2", "honeycomb": TestConfigValidation.CELL}),
         ("sweep", {"scenario": "setup1"}),
         ("convergence", {"scenario": "convergence"})],
        ids=["solve-setup2", "sweep", "convergence"],
    )
    def test_cli_solves_leave_scipy_unloaded(self, tmp_path, command, config):
        argv = [command, "--config", str(write_config(tmp_path, config)),
                "--out", str(tmp_path / "out")]
        code = (
            "import sys\n"
            "from chiralplate.cli import main\n"
            f"assert main({argv!r}) == 0\n"
            "print('scipy' in sys.modules, 'numpy.ma' in sys.modules)"
        )
        assert _python(code).splitlines()[-1] == "False False"


class TestOverwriteProtection:
    def test_refuses_then_forces(self, tmp_path):
        cfg = write_config(tmp_path, {"scenario": "poisson"})
        out = tmp_path / "out"
        assert run(["honeycomb", "--config", cfg, "--out", out]) == EXIT_OK
        assert run(["honeycomb", "--config", cfg, "--out", out]) == EXIT_CONFIG
        assert run(["honeycomb", "--config", cfg, "--out", out, "--force"]) == EXIT_OK


class TestDeterminism:
    def test_honeycomb_csv_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path, {"scenario": "poisson"})
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert run(["honeycomb", "--config", cfg, "--out", out]) == EXIT_OK
            outs.append((out / "honeycomb.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_sweep_csv_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path, {"scenario": "setup1"})
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert run(["sweep", "--config", cfg, "--out", out]) == EXIT_OK
            outs.append((out / "sweep.csv").read_bytes())
        assert outs[0] == outs[1]
        assert len(outs[0].splitlines()) == 37  # header + 4x9 grid


class TestManifestRoundTrip:
    def test_rerun_from_manifest_config_is_identical(self, tmp_path):
        cfg = write_config(tmp_path, {"scenario": "poisson"})
        out1 = tmp_path / "one"
        assert run(["honeycomb", "--config", cfg, "--out", out1]) == EXIT_OK
        manifest = json.loads((out1 / "manifest.json").read_text())
        cfg2 = write_config(tmp_path, manifest["config"], name="echoed.yaml")
        out2 = tmp_path / "two"
        assert run(["honeycomb", "--config", cfg2, "--out", out2]) == EXIT_OK
        assert (out1 / "honeycomb.csv").read_bytes() == (
            out2 / "honeycomb.csv"
        ).read_bytes()


class TestOtherCommands:
    def test_convergence_command(self, tmp_path):
        cfg = write_config(
            tmp_path, {"scenario": "convergence", "convergence": {"max_layers": 2}}
        )
        out = tmp_path / "out"
        assert run(["convergence", "--config", cfg, "--out", out]) == EXIT_OK
        lines = (out / "convergence.csv").read_text().splitlines()
        assert lines[0] == "element_kind,bc,layers,dofs,sigma_max_mpa"
        assert len(lines) == 1 + 2 * 2 * 2

    def test_honeycomb_csv_columns(self, tmp_path):
        cfg = write_config(tmp_path, {"scenario": "poisson"})
        out = tmp_path / "out"
        assert run(["honeycomb", "--config", cfg, "--out", out]) == EXIT_OK
        lines = (out / "honeycomb.csv").read_text().splitlines()
        assert lines[0] == (
            "d_a_mm,t_sw_mm,rho_rel,E1_mpa,E2_mpa,G2_mpa,mu_qi,mu_lu"
        )
        assert len(lines) == 1 + 36
