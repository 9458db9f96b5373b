"""Command-line front end: scenario configs in, CSV/field dumps out.

Subcommands, the scenarios each runs and the flags each takes besides
``--config``, ``--out``, ``--force`` and ``--dry-run``
-------------------------------------------------------------------------
solve        solid | setup1 | setup2: one solid plate or one composite
             case; ``--bc``, ``--algorithm``, ``--max-rows``
sweep        setup1 | setup2: the 4 x 9 grid of one setup; ``--bc``,
             ``--algorithm``
convergence  convergence: solid-plate refinement study
honeycomb    poisson: cell properties + Poisson estimates along the
             density grid

Every command reads one YAML scenario document (``--config``), validates it
strictly (unknown keys, and sections the scenario never reads, are
rejected), and writes deterministic CSV files plus a ``manifest.json``
echoing the configuration. ``_KEYS`` maps each config key to the library's
name for its value; keys left out take the library's defaults,
``FORMLABS_CLEAR`` for the material and ``PlateSpec()`` for the plate.
Exit codes: 0 success, 2 configuration error, 3 numerical failure.
Verbosity comes from the ``CHIRALPLATE_LOG`` environment variable
(debug/info/warning).
"""

from __future__ import annotations

import argparse
import logging
import os
import re
import sys
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

import yaml

from . import __version__
from .errors import ChiralplateError, ConfigError, GeometryError, MeshError
from .experiments import (
    DA_GRID,
    FORMLABS_CLEAR,
    RHO_GRID,
    composite_model,
    evaluate,
    honeycomb_grid,
    mesh_convergence_study,
    run_sweep,
    solid_model,
)
from .materials import IsotropicMaterial
from .plates import BoundaryCondition, PlateSpec, build_solid_mesh
from .reporting import (
    fmt,
    write_convergence_csv,
    write_field_csv,
    write_honeycomb_csv,
    write_manifest,
    write_summary_csv,
    write_sweep_csv,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3

# Command -> the scenarios it runs -> the top-level keys besides "scenario"
# that each reads; a config giving any other key is rejected.
_PLATE_CASE = ("bc", "algorithm", "material", "plate", "load")
SCENARIOS = {
    "solve": {
        "solid": (*_PLATE_CASE, "solid"),
        "setup1": (*_PLATE_CASE, "honeycomb"),
        "setup2": (*_PLATE_CASE, "honeycomb"),
    },
    "sweep": {"setup1": _PLATE_CASE, "setup2": _PLATE_CASE},
    "convergence": {"convergence": ("material", "plate", "load", "convergence")},
    "honeycomb": {"poisson": ("material",)},
}

# Config section -> key -> the library's name for its value. Every value is
# a number; a key missing here is rejected.
_KEYS = {
    "material": {"E_mpa": "E", "mu": "mu", "rho_kg_m3": "rho",
                 "sigma_el_mpa": "sigma_el"},
    "plate": {"a_mm": "a", "h_mm": "h", "t_p_mm": "t_p", "t_fl_mm": "t_fl",
              "t_cl_mm": "t_cl", "l1_mm": "l_1", "x1_mm": "x1", "x2_mm": "x2"},
    "load": {"F_y_n": "F_probe"},
    "solid": {"layers": "layers"},
    "honeycomb": {"d_a_mm": "d_a", "rho_rel": "rho_rel"},
    "convergence": {"max_layers": "max_layers"},
}

# Layer counts are integers, capped so that a config cannot ask for more
# memory than a small machine has: 32 solid layers is 57k DOFs and a 30 MiB
# band K.
_LAYER_COUNTS = {"layers", "max_layers"}
_MAX_LAYERS = 32

# Numbers that must be strictly positive: a zero or negative load has no
# critical-load scaling, and a zero layer count leaves nothing to solve.
_POSITIVE = {"F_probe", *_LAYER_COUNTS}

# YAML 1.1 reads exponent notation as a number only as in 1.0e+9, not 1e9.
_EXPONENT = re.compile(r"([-+]?(?:\d+\.?\d*|\.\d+))[eE]([-+]?)(\d+)")

# The element algorithm: the user's word -> the composite model's name. The
# user's word is also the element kind of a solid plate.
_ALGORITHMS = {"conforming": "conforming", "incompatible": "incompatible_faces"}

# Top-level choices, also flags of solve and sweep: key -> the user's words,
# the default first.
_CHOICES = {
    "bc": tuple(bc.value for bc in BoundaryCondition),
    "algorithm": tuple(_ALGORITHMS),
}


def _check_number(where: str, name: str, value) -> None:
    kind = int if name in _LAYER_COUNTS else (int, float)
    if not isinstance(value, kind) or isinstance(value, bool):
        exponent = isinstance(value, str) and _EXPONENT.fullmatch(value)
        if exponent and name not in _LAYER_COUNTS:
            m, sign, digits = exponent.groups()
            number = f"{m if '.' in m else m + '.0'}e{sign or '+'}{digits}"
            raise ConfigError(
                f"{where} was read as the string {value!r}; {number} is a number"
            )
        raise ConfigError(f"{where} has wrong type {type(value).__name__}")
    if not abs(value) <= sys.float_info.max:  # NaN, inf, or an int no float holds
        raise ConfigError(f"{where} must be finite, got {value}")
    if name in _POSITIVE and value <= 0:
        raise ConfigError(f"{where} must be positive, got {value}")
    if name in _LAYER_COUNTS and value > _MAX_LAYERS:
        raise ConfigError(f"{where} must be at most {_MAX_LAYERS}, got {value}")


def load_config(path: Path, command: str) -> dict:
    """Parse and validate one YAML scenario document for ``command``."""
    try:
        raw = yaml.safe_load(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}")
    except yaml.YAMLError as exc:
        raise ConfigError(f"config is not valid YAML: {exc}")
    if not isinstance(raw, dict):
        raise ConfigError("config must be a mapping at the top level")
    for key, value in raw.items():
        if key in _KEYS:
            if not isinstance(value, dict):
                raise ConfigError(f"top level.{key} must be a mapping")
            for name, number in value.items():
                if name not in _KEYS[key]:
                    raise ConfigError(f"unknown key {name!r} in {key}")
                _check_number(f"{key}.{name}", _KEYS[key][name], number)
        elif key in _CHOICES:
            if not isinstance(value, str) or value not in _CHOICES[key]:
                raise ConfigError(
                    f"{key} must be one of {_CHOICES[key]}, got {value!r}"
                )
        elif key != "scenario":
            raise ConfigError(f"unknown key {key!r} in top level")
    if "scenario" not in raw:
        raise ConfigError("missing required key 'scenario' in top level")
    scenario = raw["scenario"]
    if not isinstance(scenario, str) or scenario not in SCENARIOS[command]:
        raise ConfigError(
            f"{command!r} handles {'/'.join(SCENARIOS[command])}, "
            f"got {scenario!r}"
        )
    unread = set(raw) - {"scenario", *SCENARIOS[command][scenario]}
    if unread:
        raise ConfigError(
            f"{command!r} on {scenario!r} never reads "
            f"{', '.join(sorted(unread))}"
        )
    return raw


def _given(cfg: dict, section: str) -> dict:
    """The numbers a config gives in ``section``, under the library's names."""
    names = _KEYS[section]
    return {names[key]: value for key, value in cfg.get(section, {}).items()}


def _material(cfg: dict) -> IsotropicMaterial:
    try:
        return replace(FORMLABS_CLEAR, **_given(cfg, "material"))
    except ChiralplateError as exc:
        raise ConfigError(f"bad material card: {exc}")


def _plate(cfg: dict, solid: bool) -> PlateSpec:
    given = _given(cfg, "plate")
    base = PlateSpec()
    if solid:  # a solid plate has no layers: t_fl_mm and t_cl_mm are ignored
        base = base.solid()
        given = {k: v for k, v in given.items() if k not in ("t_fl", "t_cl")}
    try:
        return replace(base, **given)
    except ChiralplateError as exc:
        raise ConfigError(f"bad plate spec: {exc}")


@contextmanager
def _plate_checked():
    """Report a plate the mesh cannot fit (a MeshError) as a config error."""
    try:
        yield
    except MeshError as exc:
        raise ConfigError(f"bad plate spec: {exc}")


def _choice(cfg: dict, args, key: str) -> str:
    """The user's word for a top-level choice: flag, else config, else default."""
    return getattr(args, key) or cfg.get(key, _CHOICES[key][0])


def _prepare_out(args, names: list[str]) -> Path:
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {out}: {exc}")
    clashes = [n for n in names if (out / n).exists()]
    if clashes and not args.force:
        raise ConfigError(
            f"refusing to overwrite {', '.join(clashes)} in {out} (use --force)"
        )
    return out


def cmd_solve(args) -> int:
    cfg = load_config(Path(args.config), "solve")
    material = _material(cfg)
    bc = BoundaryCondition(_choice(cfg, args, "bc"))
    algorithm = _ALGORITHMS[_choice(cfg, args, "algorithm")]
    load_n = _given(cfg, "load").get("F_probe", 30.0)

    if cfg["scenario"] == "solid":
        spec = _plate(cfg, solid=True)
        layers = _given(cfg, "solid").get("layers", 2)
        with _plate_checked():
            mesh, layer_cards = solid_model(spec, layers, algorithm, material)
    else:
        spec = _plate(cfg, solid=False)
        cell = _given(cfg, "honeycomb")
        if cell.keys() != {"d_a", "rho_rel"}:
            raise ConfigError(
                "setup1/setup2 solve needs honeycomb.d_a_mm and honeycomb.rho_rel"
            )
        setup = 1 if cfg["scenario"] == "setup1" else 2
        try:
            with _plate_checked():
                spec, _, mesh, layer_cards = composite_model(
                    setup, cell["d_a"], cell["rho_rel"], algorithm, material, spec
                )
        except GeometryError as exc:  # only a bad d_a or rho_rel raises it
            raise ConfigError(f"bad honeycomb cell: {exc}")

    if args.dry_run:
        print(
            f"mesh: {mesh.nx} x {mesh.n_layers} elements, "
            f"a_fe = {fmt(mesh.a_fe)} mm, {mesh.n_dofs} DOFs"
        )
        return EXIT_OK

    out = _prepare_out(args, ["field.csv", "summary.csv", "manifest.json"])
    [(analysis, by_tag, f_crit)] = evaluate(
        mesh, layer_cards, spec, (bc,), load_n, material
    )
    write_field_csv(
        analysis.field, analysis.u, out / "field.csv", max_rows=args.max_rows
    )
    write_summary_csv(by_tag, f_crit, out / "summary.csv")
    write_manifest(out / "manifest.json", cfg, ["field.csv", "summary.csv"])
    print(
        "sigma_max per layer: "
        + ", ".join(f"{t} = {fmt(v)} MPa" for t, v in sorted(by_tag.items()))
        + f"; F_crit = {fmt(f_crit)} N"
    )
    return EXIT_OK


def cmd_sweep(args) -> int:
    cfg = load_config(Path(args.config), "sweep")
    setup = 1 if cfg["scenario"] == "setup1" else 2
    material = _material(cfg)
    spec = _plate(cfg, solid=False)
    bc, algorithm = _choice(cfg, args, "bc"), _choice(cfg, args, "algorithm")
    if args.dry_run:
        with _plate_checked():  # build every case's model as the run would
            for d_a in DA_GRID:
                for rho in RHO_GRID:
                    composite_model(
                        setup, d_a, rho, _ALGORITHMS[algorithm], material, spec
                    )
        print(
            f"sweep setup {setup}: {len(DA_GRID)} x {len(RHO_GRID)} grid cases, "
            f"{bc}, {algorithm}"
        )
        return EXIT_OK
    out = _prepare_out(args, ["sweep.csv", "manifest.json"])
    with _plate_checked():
        rows = run_sweep(
            setup, BoundaryCondition(bc), _ALGORITHMS[algorithm], material=material,
            spec=spec, **_given(cfg, "load"),
        )
    write_sweep_csv(rows, out / "sweep.csv")
    write_manifest(out / "manifest.json", cfg, ["sweep.csv"])
    print(f"wrote {len(rows)} cases to {out / 'sweep.csv'}")
    return EXIT_OK


def cmd_convergence(args) -> int:
    cfg = load_config(Path(args.config), "convergence")
    material = _material(cfg)
    spec = _plate(cfg, solid=True)
    max_layers = _given(cfg, "convergence").get("max_layers", 5)
    load_n = _given(cfg, "load").get("F_probe", 60.0)
    if args.dry_run:
        with _plate_checked():  # the study's meshes, as the run builds them
            for layers in range(1, max_layers + 1):
                build_solid_mesh(spec, layers, "equal_aspect")
        print(
            f"convergence study: 1..{max_layers} layers, both element kinds, "
            f"both boundary conditions, F = {fmt(load_n)} N"
        )
        return EXIT_OK
    out = _prepare_out(args, ["convergence.csv", "manifest.json"])
    with _plate_checked():
        rows = mesh_convergence_study(max_layers, load_n, material, spec)
    write_convergence_csv(rows, out / "convergence.csv")
    write_manifest(out / "manifest.json", cfg, ["convergence.csv"])
    print(f"wrote {len(rows)} rows to {out / 'convergence.csv'}")
    return EXIT_OK


def cmd_honeycomb(args) -> int:
    cfg = load_config(Path(args.config), "honeycomb")
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
        p.add_argument("--force", action="store_true",
                       help="overwrite existing outputs")
        p.add_argument("--dry-run", action="store_true",
                       help="validate and print derived mesh dimensions only")
        if name in ("solve", "sweep"):
            for key, words in _CHOICES.items():
                p.add_argument(f"--{key}", choices=words,
                               help=f"override the config's {key}")
        if name == "solve":
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
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ChiralplateError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
