"""Command-line front end: scenario configs in, CSV/field dumps out.

Subcommands
-----------
solve        one scenario (solid plate or a single composite case)
sweep        the 4 x 9 grid of one setup
convergence  solid-plate refinement study
honeycomb    cell properties + Poisson estimates along the density grid

Every command reads one YAML scenario document (``--config``), validates it
strictly (unknown keys are rejected), and writes deterministic CSV files
plus a ``manifest.json`` echoing the normalized configuration. Exit codes:
0 success, 2 configuration error, 3 numerical failure. Verbosity comes
from the ``CHIRALPLATE_LOG`` environment variable (debug/info/warning).
"""

from __future__ import annotations

import argparse
import logging
import math
import os
import sys
from pathlib import Path

import yaml

from . import __version__
from .assembly import Layer, analyze
from .errors import ChiralplateError, ConfigError
from .experiments import (
    DA_GRID,
    RHO_GRID,
    composite_model,
    honeycomb_grid,
    mesh_convergence_study,
    run_sweep,
)
from .materials import IsotropicMaterial
from .plates import (
    BoundaryCondition,
    LoadCase,
    PlateSpec,
    apply_boundary,
    apply_load,
    build_solid_mesh,
)
from .reporting import (
    fmt,
    write_convergence_csv,
    write_field_csv,
    write_honeycomb_csv,
    write_manifest,
    write_sweep_csv,
)

log = logging.getLogger("chiralplate")

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3

SCENARIOS = ("solid", "setup1", "setup2", "convergence", "poisson")

# Schema: section -> key -> (type, required)
_SCHEMA = {
    None: {
        "scenario": (str, True),
        "bc": (str, False),
        "algorithm": (str, False),
        "material": (dict, False),
        "plate": (dict, False),
        "load": (dict, False),
        "solid": (dict, False),
        "honeycomb": (dict, False),
        "convergence": (dict, False),
    },
    "material": {
        "E_mpa": ((int, float), False),
        "mu": ((int, float), False),
        "rho_kg_m3": ((int, float), False),
        "sigma_el_mpa": ((int, float), False),
    },
    "plate": {
        "a_mm": ((int, float), False),
        "h_mm": ((int, float), False),
        "t_p_mm": ((int, float), False),
        "t_fl_mm": ((int, float), False),
        "t_cl_mm": ((int, float), False),
        "l1_mm": ((int, float), False),
        "x1_mm": ((int, float), False),
        "x2_mm": ((int, float), False),
    },
    "load": {"F_y_n": ((int, float), False)},
    "solid": {"layers": (int, False)},
    "honeycomb": {"d_a_mm": ((int, float), False), "rho_rel": ((int, float), False)},
    "convergence": {"max_layers": (int, False)},
}

# Numbers that must be strictly positive: a zero or negative load has no
# critical-load scaling, and a zero layer count leaves nothing to solve.
_POSITIVE = {("load", "F_y_n"), ("solid", "layers"), ("convergence", "max_layers")}

# Layer counts are capped so that a config cannot ask for more memory than
# a small machine has: 32 solid layers is 57k DOFs and a 30 MiB band K.
_MAX_LAYERS = 32
_LAYER_COUNTS = {("solid", "layers"), ("convergence", "max_layers")}


def _check_section(name: str | None, data: dict) -> None:
    schema = _SCHEMA[name]
    where = name or "top level"
    for key, value in data.items():
        if key not in schema:
            raise ConfigError(f"unknown key {key!r} in {where}")
        expected, _ = schema[key]
        if expected is dict:
            if not isinstance(value, dict):
                raise ConfigError(f"{where}.{key} must be a mapping")
            _check_section(key, value)
        elif not isinstance(value, expected) or isinstance(value, bool):
            raise ConfigError(f"{where}.{key} has wrong type {type(value).__name__}")
        elif isinstance(value, float) and not math.isfinite(value):
            raise ConfigError(f"{where}.{key} must be finite, got {value}")
        elif (name, key) in _POSITIVE and value <= 0:
            raise ConfigError(f"{where}.{key} must be positive, got {value}")
        elif (name, key) in _LAYER_COUNTS and value > _MAX_LAYERS:
            raise ConfigError(
                f"{where}.{key} must be at most {_MAX_LAYERS}, got {value}"
            )
    for key, (_, required) in schema.items():
        if required and key not in data:
            raise ConfigError(f"missing required key {key!r} in {where}")


def load_config(path: Path) -> dict:
    """Parse and validate one YAML scenario document."""
    try:
        raw = yaml.safe_load(path.read_text())
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except yaml.YAMLError as exc:
        raise ConfigError(f"config is not valid YAML: {exc}")
    if not isinstance(raw, dict):
        raise ConfigError("config must be a mapping at the top level")
    _check_section(None, raw)
    if raw["scenario"] not in SCENARIOS:
        raise ConfigError(
            f"scenario must be one of {SCENARIOS}, got {raw['scenario']!r}"
        )
    for key, value in (("bc", ("clamped", "supported")),
                       ("algorithm", ("conforming", "incompatible"))):
        if key in raw and raw[key] not in value:
            raise ConfigError(f"{key} must be one of {value}, got {raw[key]!r}")
    return raw


def _material(cfg: dict) -> IsotropicMaterial:
    section = cfg.get("material", {})
    try:
        return IsotropicMaterial(
            E=section.get("E_mpa", 2800.0),
            mu=section.get("mu", 0.35),
            rho=section.get("rho_kg_m3", 1200.0),
            sigma_el=section.get("sigma_el_mpa", 35.0),
        )
    except ChiralplateError as exc:
        raise ConfigError(f"bad material card: {exc}")


def _plate(cfg: dict, solid: bool) -> PlateSpec:
    p = cfg.get("plate", {})
    try:
        spec = PlateSpec(
            a=p.get("a_mm", 54.0),
            h=p.get("h_mm", 13.0),
            t_p=p.get("t_p_mm", 2.0),
            t_fl=p.get("t_fl_mm", 0.5) if not solid else None,
            t_cl=p.get("t_cl_mm", 1.0) if not solid else None,
            l_1=p.get("l1_mm", 27.0),
            x1=p.get("x1_mm", 12.0),
            x2=p.get("x2_mm", 42.0),
        )
    except ChiralplateError as exc:
        raise ConfigError(f"bad plate spec: {exc}")
    return spec


def _bc(cfg: dict, args) -> BoundaryCondition:
    name = args.bc or cfg.get("bc", "clamped")
    return BoundaryCondition(name)


def _algorithm(cfg: dict, args) -> str:
    name = args.algorithm or cfg.get("algorithm", "conforming")
    return "incompatible_faces" if name == "incompatible" else "conforming"


def _prepare_out(args, names: list[str]) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    clashes = [n for n in names if (out / n).exists()]
    if clashes and not args.force:
        raise ConfigError(
            f"refusing to overwrite {', '.join(clashes)} in {out} (use --force)"
        )
    return out


def cmd_solve(args) -> int:
    cfg = load_config(Path(args.config))
    scenario = cfg["scenario"]
    if scenario not in ("solid", "setup1", "setup2"):
        raise ConfigError(f"'solve' handles solid/setup1/setup2, got {scenario!r}")
    material = _material(cfg)
    bc = _bc(cfg, args)
    algorithm = _algorithm(cfg, args)
    load_n = cfg.get("load", {}).get("F_y_n", 30.0)

    if scenario == "solid":
        spec = _plate(cfg, solid=True)
        layers_n = cfg.get("solid", {}).get("layers", 2)
        mesh, tags = build_solid_mesh(spec, layers_n)
        kind = "incompatible" if algorithm == "incompatible_faces" else "conforming"
        layer_cards = [Layer(material, kind, t) for t in tags]
    else:
        spec = _plate(cfg, solid=False)
        hc_cfg = cfg.get("honeycomb", {})
        if "d_a_mm" not in hc_cfg or "rho_rel" not in hc_cfg:
            raise ConfigError(
                "setup1/setup2 solve needs honeycomb.d_a_mm and honeycomb.rho_rel"
            )
        setup = 1 if scenario == "setup1" else 2
        spec, _, mesh, layer_cards = composite_model(
            setup, hc_cfg["d_a_mm"], hc_cfg["rho_rel"], algorithm, material, spec
        )

    if args.dry_run:
        print(
            f"mesh: {mesh.nx} x {mesh.n_layers} elements, "
            f"a_fe = {fmt(mesh.a_fe)} mm, {mesh.n_dofs} DOFs"
        )
        return EXIT_OK

    out = _prepare_out(args, ["field.csv", "summary.csv", "manifest.json"])
    analysis = analyze(
        mesh, layer_cards, apply_boundary(mesh, bc, spec),
        apply_load(mesh, LoadCase(load_n), spec),
    )
    field = analysis.field
    by_tag = field.max_se_by_tag()
    f_crit = load_n * material.sigma_el / field.max_se()

    write_field_csv(field, analysis.u, out / "field.csv", max_rows=args.max_rows)
    with open(out / "summary.csv", "w", newline="") as fh:
        fh.write("quantity,value\n")
        for tag, val in sorted(by_tag.items()):
            fh.write(f"sigma_max_{tag}_mpa,{fmt(val)}\n")
        fh.write(f"sigma_max_mpa,{fmt(field.max_se())}\n")
        fh.write(f"F_crit_n,{fmt(f_crit)}\n")
    write_manifest(out / "manifest.json", cfg, ["field.csv", "summary.csv"])
    print(
        "sigma_max per layer: "
        + ", ".join(f"{t} = {fmt(v)} MPa" for t, v in sorted(by_tag.items()))
        + f"; F_crit = {fmt(f_crit)} N"
    )
    return EXIT_OK


def cmd_sweep(args) -> int:
    cfg = load_config(Path(args.config))
    scenario = cfg["scenario"]
    if scenario not in ("setup1", "setup2"):
        raise ConfigError(f"'sweep' handles setup1/setup2, got {scenario!r}")
    setup = 1 if scenario == "setup1" else 2
    material = _material(cfg)
    spec = _plate(cfg, solid=False)
    load_cfg = cfg.get("load", {}).get("F_y_n")
    if args.dry_run:
        print(
            f"sweep setup {setup}: {len(DA_GRID)} x {len(RHO_GRID)} grid cases, "
            f"{_bc(cfg, args).value}, {_algorithm(cfg, args)}"
        )
        return EXIT_OK
    out = _prepare_out(args, ["sweep.csv", "manifest.json"])
    rows = run_sweep(
        setup, _bc(cfg, args), _algorithm(cfg, args), F_probe=load_cfg,
        material=material, spec=spec,
    )
    write_sweep_csv(rows, out / "sweep.csv")
    write_manifest(out / "manifest.json", cfg, ["sweep.csv"])
    print(f"wrote {len(rows)} cases to {out / 'sweep.csv'}")
    return EXIT_OK


def cmd_convergence(args) -> int:
    cfg = load_config(Path(args.config))
    if cfg["scenario"] != "convergence":
        raise ConfigError("'convergence' needs scenario: convergence")
    material = _material(cfg)
    spec = _plate(cfg, solid=True)
    max_layers = cfg.get("convergence", {}).get("max_layers", 5)
    load_n = cfg.get("load", {}).get("F_y_n", 60.0)
    if args.dry_run:
        print(
            f"convergence study: 1..{max_layers} layers, both element kinds, "
            f"both boundary conditions, F = {fmt(load_n)} N"
        )
        return EXIT_OK
    out = _prepare_out(args, ["convergence.csv", "manifest.json"])
    rows = mesh_convergence_study(max_layers, load_n, material, spec)
    write_convergence_csv(rows, out / "convergence.csv")
    write_manifest(out / "manifest.json", cfg, ["convergence.csv"])
    print(f"wrote {len(rows)} rows to {out / 'convergence.csv'}")
    return EXIT_OK


def cmd_honeycomb(args) -> int:
    cfg = load_config(Path(args.config))
    if cfg["scenario"] != "poisson":
        raise ConfigError("'honeycomb' needs scenario: poisson")
    material = _material(cfg)
    if args.dry_run:
        print(
            f"honeycomb grid: {len(DA_GRID)} diameters x {len(RHO_GRID)} densities"
        )
        return EXIT_OK
    out = _prepare_out(args, ["honeycomb.csv", "manifest.json"])
    rows = honeycomb_grid(DA_GRID, RHO_GRID, material)
    write_honeycomb_csv(rows, out / "honeycomb.csv")
    write_manifest(out / "manifest.json", cfg, ["honeycomb.csv"])
    print(f"wrote {len(rows)} rows to {out / 'honeycomb.csv'}")
    return EXIT_OK


def _positive_int(text: str) -> int:
    if not text.strip().isdigit() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chiralplate",
        description="Plane-strain bending analysis of solid and "
        "honeycomb-core sandwich plates.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, func in (
        ("solve", cmd_solve),
        ("sweep", cmd_sweep),
        ("convergence", cmd_convergence),
        ("honeycomb", cmd_honeycomb),
    ):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="YAML scenario file")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--algorithm", choices=("conforming", "incompatible"))
        p.add_argument("--bc", choices=("clamped", "supported"))
        p.add_argument("--force", action="store_true",
                       help="overwrite existing outputs")
        p.add_argument("--dry-run", action="store_true",
                       help="validate and print derived mesh dimensions only")
        p.add_argument("--max-rows", type=_positive_int, default=None,
                       help="cap field-dump rows")
        p.set_defaults(func=func)
    return parser


def main(argv: list[str] | None = None) -> int:
    level = os.environ.get("CHIRALPLATE_LOG", "warning").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING), force=True)
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        log.error("configuration error: %s", exc)
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ChiralplateError as exc:
        log.error("numerical failure: %s", exc)
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
