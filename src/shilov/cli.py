"""Configuration-driven command line front end.

One JSON config declares named algebras, spaces, function systems and
quadruples plus a ``run`` list of commands; every command writes a
deterministic ``<name>.report.json`` (and ``.csv`` / ``.pgm`` where
geometry is involved) under the output directory.  Identical config and
seed produce byte-identical outputs.  Every command reads an algebra's
characters from its one cached search (AlgebraSpec.characters), so the seed
is recorded in each report but moves nothing else in it.

    shilov --config experiment.json [--output-dir out] [--seed N] [--quiet]
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path

import jsonschema
import numpy as np

from . import __version__
from .algebra import MAX_ENTRIES, MAX_PRESET_DIM, AlgebraSpec, parse_preset, preset_algebra
from .blas import single_threaded
from .boundary import (
    certify_peak,
    partition_to_csv,
    partition_to_pgm,
    shilov_estimate,
    synthesize_product_peaker,
    verify_peak_product,
    verify_product_theorem,
    witnesses_from_system,
)
from .characters import character_matrix, radical
from .function_algebras import (
    FunctionSystem,
    Quadruple,
    check_admissible,
    close_under_products,
    make_CXE,
    make_lip,
    make_poly,
    make_rational,
    span_membership,
    validate_system,
)
from .reports import canonical_json, pair_to_complex
from .spaces import (
    Annulus,
    BoundaryUniform,
    CircleSample,
    Disk,
    FiniteSpace,
    InteriorGrid,
    RasterRegion,
    combine_spaces,
    pgm_and_sidecar,
    polynomial_hull_raster,
    raster_from_shape,
    sample_raster,
    topological_boundary_raster,
    validate_metric,
)

# Size caps from one memory budget: no array that the config sizes holds more
# than about _MAX_ENTRIES complex entries (256 MiB).  The schema bounds single
# values.  Centres and radii within _MAX_COORD keep a raster within
# 4 _MAX_COORD units, 2**12 pixels a side at _MAX_RESOLUTION.  A strategy
# samples at most about _MAX_POINTS points (an interior grid 2**7 a side at
# _MIN_STEP), a space at most _MAX_STRATEGIES strategies, and a sampled space
# is refused once it passes _MAX_POINTS points.  An explicit space lists at
# most _MAX_POINTS points, and a metric at most _MAX_METRIC rows of
# _MAX_METRIC entries (validate_metric's triangle check is cubic in them:
# 3.4 s at 2**10 points on 2 vCPUs).  A system offers at most _MAX_FUNCTIONS
# scalar functions: 1, z, ..., z^degree and, if rational, (z - c)^-k,
# k <= degree, per pole c (_check_rational).  dim E is at most MAX_PRESET_DIM,
# so E's own n^3 structure tensor meets the budget; a preset name is checked
# before its algebra is built (parse_preset).
# Sizes that several values set meet one gate, run_config's _check_sizes, for
# each system a run entry builds, before anything is built or written.  Its
# constructor forms f |X| dim E entries before Span drops a row, f being
# |X| dim E for cxe and lip and the scalar functions times dim E for poly and
# rational.  A sweep writes m = min(|X| dim E, f) coefficients, about 700 B
# each at peak (229 MB for C(X) on 512 points on 2 vCPUs), for each of
# |X| dim E candidates, capped at _MAX_SWEEP (_check_sweep).  A system whose
# closure is read (validate, exact verify-product and verify-peaks), or that
# is "close" (m = |X| dim E), counts m^2 |X| dim E entries (_check_products):
# the products basis_products keeps, and as_algebra's dense m^3 tensor, which
# _naturality forms for validate of a quadruple and for exact verify-product
# and verify-peaks, not for validate of a system, "close", shilov or peaker.
_MAX_ENTRIES, _MAX_POINTS, _MAX_COORD = MAX_ENTRIES, 2**14, 4
_MAX_METRIC = 2**10
_MAX_RESOLUTION = (2**12 - 3) // (4 * _MAX_COORD)
_MIN_STEP = 4 * _MAX_COORD / 2**7
_MAX_SWEEP = _MAX_ENTRIES // 64
_MAX_FUNCTIONS = _MAX_ENTRIES // _MAX_POINTS
_MAX_DEGREE = _MAX_FUNCTIONS - 1
_MAX_POLES = _MAX_FUNCTIONS - 2  # 1, z and one function per pole at degree 1
_MAX_STRATEGIES = _MAX_ENTRIES // _MAX_POINTS

_PAIR = {"type": "array", "items": {"type": "number"}, "minItems": 2, "maxItems": 2}
_COORD = {"type": "number", "minimum": -_MAX_COORD, "maximum": _MAX_COORD}
_CENTRE = {**_PAIR, "items": _COORD}
_RADIUS = {"type": "number", "exclusiveMinimum": 0, "maximum": _MAX_COORD}
_COUNT = {"type": "integer", "minimum": 1, "maximum": _MAX_POINTS}

_STRING = {"type": "string"}


def _object(required: list[str], **properties) -> dict:
    """A config object of these properties and no other key: a misspelt key
    is a schema violation, not a silent default."""
    return {"type": "object", "required": required, "additionalProperties": False,
            "properties": properties}


def _named(spec: dict) -> dict:
    """A table of config objects by name."""
    return {"type": "object", "additionalProperties": spec}


CONFIG_SCHEMA = _object(
    ["run"],
    seed={"type": "integer", "minimum": 0, "maximum": 2**64 - 1},
    output_dir=_STRING,
    algebras=_named({"oneOf": [_STRING, _object(
        ["dim", "structure", "unit", "weights"],
        dim={"type": "integer", "minimum": 1, "maximum": MAX_PRESET_DIM},
        structure={"type": "array"}, unit={"type": "array"}, weights={"type": "array"},
        label=_STRING,
    )]}),
    spaces=_named({
        "type": "object",
        "oneOf": [
            {"required": ["points"]},
            {"required": ["shape", "resolution"]},
            {"required": ["sample_of", "strategies"]},
        ],
        "additionalProperties": False,
        "properties": {
            "points": {"type": "array", "items": _STRING, "maxItems": _MAX_POINTS},
            "coords": {"type": "array", "items": _PAIR, "maxItems": _MAX_POINTS},
            "metric": {
                "type": "array",
                "items": {"type": "array", "maxItems": _MAX_METRIC},
                "maxItems": _MAX_METRIC,
            },
            "shape": {"type": "array", "items": _object(
                ["kind"],
                kind={"enum": ["disk", "annulus"]},
                center=_CENTRE, radius=_RADIUS, inner=_COORD, outer=_COORD,
            )},
            "resolution": {"type": "integer", "minimum": 8, "maximum": _MAX_RESOLUTION},
            "sample_of": _STRING,
            "strategies": {"type": "array", "maxItems": _MAX_STRATEGIES, "items": _object(
                ["kind"],
                kind={"enum": ["circle", "interior_grid", "boundary_uniform"]},
                center=_CENTRE, radius=_RADIUS, count=_COUNT,
                step={"type": "number", "minimum": _MIN_STEP},
            )},
        },
    }),
    systems=_named(_object(
        ["kind", "space", "algebra"],
        kind={"enum": ["cxe", "lip", "poly", "rational"]},
        space=_STRING,
        algebra=_STRING,
        alpha={"type": "number", "exclusiveMinimum": 0, "maximum": 1},
        degree={"type": "integer", "minimum": 0, "maximum": _MAX_DEGREE},
        poles={"type": "array", "items": _PAIR, "maxItems": _MAX_POLES},
        close={"type": "boolean"},
    )),
    quadruples=_named(_object(
        ["space", "algebra", "scalar_system", "vector_system"],
        space=_STRING, algebra=_STRING, scalar_system=_STRING, vector_system=_STRING,
    )),
    run={"type": "array", "items": _object(
        ["command", "target"],
        command={"enum": ["characters", "validate", "hull", "shilov", "verify-product",
                          "verify-peaks", "peaker"]},
        target=_STRING,
        name=_STRING,
        regime={"enum": ["exact", "estimation"]},
        raster=_STRING,
        point=_STRING,
        character={"type": "integer", "minimum": 0},
    )},
)

# built once, without re-checking CONFIG_SCHEMA against its metaschema on
# every call (a test checks the schema itself)
_CONFIG_VALIDATOR = jsonschema.validators.validator_for(CONFIG_SCHEMA)(CONFIG_SCHEMA)


class ConfigError(ValueError):
    pass


class _Workspace:
    """Named objects resolved lazily from the config."""

    def __init__(self, config: dict):
        self.config = config
        self._algebras: dict[str, AlgebraSpec] = {}
        self._spaces: dict[str, FiniteSpace | RasterRegion] = {}
        self._systems: dict[str, FunctionSystem] = {}
        self._quadruples: dict[str, Quadruple] = {}

    def algebra(self, name: str) -> AlgebraSpec:
        """The named algebra, one instance per name (presets included)."""
        if name not in self._algebras:
            table = self.config.get("algebras", {})
            if name not in table:  # a preset name (_check_references)
                self._algebras[name] = preset_algebra(name)
            elif isinstance(table[name], str):
                self._algebras[name] = preset_algebra(table[name])
            else:
                self._algebras[name] = AlgebraSpec.from_dict({"label": name, **table[name]})
        return self._algebras[name]

    def space(self, name: str):
        if name not in self._spaces:
            self._spaces[name] = self._build_space(name, self.config["spaces"][name])
        return self._spaces[name]

    def _build_space(self, name: str, spec: dict):
        if "points" in spec:
            coords = None
            if spec.get("coords") is not None:
                coords = np.array([pair_to_complex(p) for p in spec["coords"]])
            metric = np.asarray(spec["metric"], float) if spec.get("metric") else None
            return FiniteSpace(tuple(spec["points"]), coords, metric)
        if "shape" in spec:
            shapes = []
            for sh in spec["shape"]:
                center = pair_to_complex(sh.get("center", [0.0, 0.0]))
                if sh["kind"] == "disk":
                    shapes.append(Disk(center, float(sh["radius"])))
                else:
                    shapes.append(Annulus(center, float(sh["inner"]), float(sh["outer"])))
            return raster_from_shape(shapes, int(spec["resolution"]))
        if "sample_of" in spec:
            base = self.space(spec["sample_of"])  # a shape space (_check_references)
            parts, points = [], 0
            for st in spec["strategies"]:
                if st["kind"] == "circle":
                    centre = pair_to_complex(st.get("center", [0.0, 0.0]))
                    strategy = CircleSample(centre, float(st["radius"]), int(st["count"]))
                elif st["kind"] == "interior_grid":
                    strategy = InteriorGrid(float(st["step"]))
                else:
                    strategy = BoundaryUniform(int(st["count"]))
                parts.append(sample_raster(base, strategy))
                points += parts[-1].size
                if points > _MAX_POINTS:
                    raise ConfigError(
                        f"space {name!r}: its strategies sample over {_MAX_POINTS} points"
                    )
            return parts[0] if len(parts) == 1 else combine_spaces(*parts)
        raise ConfigError("space spec must give points, shape, or sample_of")

    def system(self, name: str) -> FunctionSystem:
        if name not in self._systems:
            spec = self.config["systems"][name]
            space = self.space(spec["space"])  # not a shape space (_check_references)
            E = self.algebra(spec["algebra"])
            kind = spec["kind"]
            if kind == "cxe":
                system = make_CXE(space, E, label=name)
            elif kind == "lip":
                system = make_lip(space, E, float(spec.get("alpha", 1.0)), label=name)
            elif kind == "poly":
                system = make_poly(space, E, int(spec.get("degree", 1)), label=name)
            else:
                poles = [pair_to_complex(p) for p in spec.get("poles", [])]
                system = make_rational(
                    space, E, int(spec.get("degree", 1)), poles, label=name
                )
            if spec.get("close"):
                system = system if system.closed else close_under_products(system)
            self._systems[name] = system
        return self._systems[name]

    def quadruple(self, name: str) -> Quadruple:
        if name not in self._quadruples:
            spec = self.config["quadruples"][name]
            self._quadruples[name] = Quadruple(
                self.space(spec["space"]),
                self.algebra(spec["algebra"]),
                self.system(spec["scalar_system"]),
                self.system(spec["vector_system"]),
                label=name,
            )
        return self._quadruples[name]

    def resolve_any(self, name: str):
        """Target of `validate`: algebra, system, quadruple or space, in that order."""
        for table, getter in (
            ("algebras", self.algebra),
            ("systems", self.system),
            ("quadruples", self.quadruple),
            ("spaces", self.space),
        ):
            if name in self.config.get(table, {}):
                return getter(name)
        return preset_algebra(name)  # a preset name (_check_references)


def validate_config(path) -> dict:
    """Parse and schema-check a config file; raises ConfigError with position."""
    text = Path(path).read_text()
    try:
        config = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"config parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from None
    error = jsonschema.exceptions.best_match(_CONFIG_VALIDATOR.iter_errors(config))
    if error is not None:
        path_str = "/".join(str(p) for p in error.absolute_path) or "<root>"
        raise ConfigError(f"config schema violation at {path_str}: {error.message}")
    _check_references(config)
    _check_rational(config)
    return config


def _space_kind(spec: dict) -> str:
    """The form of a space spec, the first key present in _Workspace._build_space's
    order: "points", "shape" (a raster region) or "sample_of"."""
    return next(kind for kind in ("points", "shape", "sample_of") if kind in spec)


def _entry_stem(k: int, entry: dict) -> str:
    """File name stem of run entry k: its name, or NN-command-target."""
    return entry.get("name", f"{k:02d}-{entry['command']}-{entry['target']}")


def _check_references(config: dict) -> None:
    """All cross-references must resolve (presets count as algebras, and a
    preset name resolves without building its algebra), before anything is
    built or written.  A raster reference (a space's sample_of, a hull target,
    a shilov entry's raster) names a shape space; a system's or quadruple's
    space and a validate target do not.  A run target has its command's
    kind: an algebra for characters, a system for shilov, a quadruple for
    verify-product, verify-peaks and peaker; a peaker's point is one of its
    quadruple's points when that space lists them.  A peaker's point on a
    sampled space and its character index are checked when it runs, since
    they need the sampled points and E's characters.  Each run entry's file
    stem is a plain file name that no earlier entry uses.  Sizes are
    checked once these resolve, by run_config's _check_sizes."""
    algebras = set(config.get("algebras", {}))
    space_specs = config.get("spaces", {})
    spaces = set(space_specs)
    systems = set(config.get("systems", {}))
    quadruple_specs = config.get("quadruples", {})
    quadruples = set(quadruple_specs)
    rasters = {name for name, spec in space_specs.items() if _space_kind(spec) == "shape"}

    def need_preset(name, where, what):
        try:
            parse_preset(name)
        except Exception as exc:
            raise ConfigError(f"{where}: unresolved {what} {name!r} ({exc})") from None

    def need_algebra(name, where):
        if name not in algebras:
            need_preset(name, where, "algebra")

    def need_kind(name, where, names, what):
        if name not in names:
            raise ConfigError(f"{where}: {name!r} is not a {what}")

    def need_space(name, where, raster=False):
        what = "shape space (a raster region)" if raster else "points or sampled space"
        need_kind(name, where, rasters if raster else spaces - rasters, what)

    for name, spec in config.get("algebras", {}).items():
        if isinstance(spec, str):
            need_preset(spec, f"algebra {name!r}", "preset")
    for name, spec in space_specs.items():
        if _space_kind(spec) == "sample_of":
            need_space(spec["sample_of"], f"space {name!r}", raster=True)
        if "shape" in spec:
            for sh in spec["shape"]:
                if sh["kind"] == "annulus":
                    try:
                        Annulus(0j, float(sh["inner"]), float(sh["outer"]))
                    except ValueError as exc:
                        raise ConfigError(f"space {name!r}: {exc}") from None
    for name, spec in config.get("systems", {}).items():
        need_space(spec["space"], f"system {name!r}")
        need_algebra(spec["algebra"], f"system {name!r}")
    for name, spec in config.get("quadruples", {}).items():
        need_space(spec["space"], f"quadruple {name!r}")
        need_algebra(spec["algebra"], f"quadruple {name!r}")
        for key in ("scalar_system", "vector_system"):
            if spec[key] not in systems:
                raise ConfigError(f"quadruple {name!r}: unresolved system {spec[key]!r}")
    stems = set()
    for k, entry in enumerate(config.get("run", [])):
        where, command, target = f"run[{k}]", entry["command"], entry["target"]
        if command == "characters":
            need_algebra(target, where)
        elif command == "hull":
            need_space(target, where, raster=True)
        elif command == "shilov":
            need_kind(target, where, systems, "system")
            if entry.get("raster"):
                need_space(entry["raster"], where, raster=True)
        elif command == "validate":
            if target not in algebras | spaces | systems | quadruples:
                need_preset(target, where, "target")
            # resolve_any reads a space only when no other table has the name
            if target in rasters - algebras - systems - quadruples:
                raise ConfigError(f"{where}: cannot validate raster region {target!r}")
        else:  # verify-product, verify-peaks, peaker
            need_kind(target, where, quadruples, "quadruple")
            space = space_specs[quadruple_specs[target]["space"]]
            if "point" in entry and _space_kind(space) == "points":
                need_kind(entry["point"], where, space["points"], f"point of {target!r}")
        stem = _entry_stem(k, entry)
        if stem in ("", ".", "..") or Path(stem).name != stem:
            raise ConfigError(f"{where}: file stem {stem!r} is not a plain file name")
        if stem in stems:
            raise ConfigError(f"{where}: file stem {stem!r} repeats an earlier entry's")
        stems.add(stem)


def _algebra_dim(config: dict, name: str) -> int:
    """dim E of a resolved algebra name: a config algebra's "dim" or a
    preset's size; only the unsized presets, of dim 1 or 2, are built."""
    spec = config.get("algebras", {}).get(name, name)
    if isinstance(spec, dict):
        return int(spec["dim"])
    builder, sizes = parse_preset(spec)
    return sizes[0] if sizes else builder().dim


def _scalar_functions(spec: dict) -> tuple[int, int, int]:
    """A poly or rational system's degree, pole count and scalar basis
    functions: degree + 1 powers of z and, for a rational one, degree powers
    of 1 / (z - c) per pole c."""
    degree = int(spec.get("degree", 1))
    poles = len(spec.get("poles", [])) if spec["kind"] == "rational" else 0
    return degree, poles, degree + 1 + poles * degree


def _check_rational(config: dict) -> None:
    """Reject a rational system with more scalar basis functions than the
    degree cap allows a polynomial one."""
    for name, spec in config.get("systems", {}).items():
        if spec["kind"] != "rational":
            continue
        degree, poles, functions = _scalar_functions(spec)
        if functions > _MAX_FUNCTIONS:
            raise ConfigError(
                f"system {name!r}: degree {degree} with {poles} poles gives "
                f"{functions} basis functions, over the cap of {_MAX_FUNCTIONS}"
            )


def _atomic_write(path: Path, text: str) -> None:
    """Write text to path through a temporary file and a rename, with the
    mode Path.write_text would give: 0o666 less the umask (mkstemp's own
    file is 0o600)."""
    path.parent.mkdir(parents=True, exist_ok=True)
    umask = os.umask(0)
    os.umask(umask)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
    try:
        os.fchmod(fd, 0o666 & ~umask)
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _run_entry(ws: _Workspace, entry: dict, seed: int, stem: str, config_hash: str):
    """Execute one run-list command; returns the payload plus extra files."""
    command = entry["command"]
    target = entry["target"]
    payload: dict
    extras: dict[str, str] = {}

    if command == "characters":
        E = ws.algebra(target)
        rad = radical(E)
        payload = {
            "algebra": E.label,
            "characters": [c.to_dict() for c in E.characters],
            "radical_dim": len(rad),
            "radical_basis": [
                [[z.real, z.imag] for z in r.coords] for r in rad
            ],
            "quotient_dim": len(E.characters),  # E / rad E is pointwise on them
        }

    elif command == "validate":
        obj = ws.resolve_any(target)
        if isinstance(obj, AlgebraSpec):
            payload = obj.validation.to_dict()
        elif isinstance(obj, FunctionSystem):
            payload = validate_system(obj).to_dict()
        elif isinstance(obj, Quadruple):
            payload = check_admissible(obj).to_dict()
        else:  # a finite space: _check_references keeps raster regions out
            payload = validate_metric(obj).to_dict()

    elif command == "hull":
        filled = polynomial_hull_raster(ws.space(target))
        extras[f"{stem}.pgm"], extras[f"{stem}.pgm.json"] = pgm_and_sidecar(filled)
        boundary = topological_boundary_raster(filled)
        csv = "x,y\n" + "\n".join(
            f"{float(z.real)!r},{float(z.imag)!r}" for z in boundary
        ) + "\n"
        extras[f"{stem}.csv"] = csv
        payload = {
            "raster": target,
            "set_pixels": int(filled.grid.sum()),
            "boundary_pixels": int(boundary.size),
            "pgm": f"{stem}.pgm",
            "csv": f"{stem}.csv",
        }

    elif command == "shilov":
        system = ws.system(target)
        family = witnesses_from_system(system)
        partition = shilov_estimate(family)
        payload = partition.to_dict()
        if family.coords is not None:
            extras[f"{stem}.csv"] = partition_to_csv(partition)
            payload["csv"] = f"{stem}.csv"
            if entry.get("raster"):
                extras[f"{stem}.pgm"] = partition_to_pgm(partition, ws.space(entry["raster"]))
                payload["pgm"] = f"{stem}.pgm"

    elif command in ("verify-product", "verify-peaks"):
        quadruple = ws.quadruple(target)
        regime = entry.get("regime", "exact")
        if command == "verify-product":
            payload = verify_product_theorem(quadruple, regime=regime).to_dict()
        else:
            payload = verify_peak_product(quadruple, regime=regime).to_dict()

    elif command == "peaker":
        quadruple = ws.quadruple(target)
        point = entry.get("point", quadruple.space.points[0])
        char_index = int(entry.get("character", 0))
        E, B = quadruple.scalars, quadruple.scalar_system
        # checked here, not in _check_references: a point of a sampled space,
        # and the character index, which needs E's characters
        if point not in quadruple.space.points:
            raise ConfigError(f"peaker: unknown point {point!r}")
        if char_index >= len(E.characters):
            raise ConfigError(
                f"peaker: character index {char_index} out of range "
                f"({len(E.characters)} characters)"
            )
        x_index = quadruple.space.index(point)
        # v has transform = indicator of the chosen character; f is the
        # certified scalar peaker at the chosen point
        v = E.element(_algebra_peaker(E, char_index))
        fam_B = witnesses_from_system(B)
        cert_f = certify_peak(fam_B, x_index)
        if cert_f.status != "certified_peak":
            raise RuntimeError(
                f"peaker: point {point!r} is not a certified peak point "
                f"of the scalar system (status {cert_f.status})"
            )
        # the certificate combines fam_B's rescaled, possibly reduced columns:
        # f is the member of B whose Gelfand values are fam_B.values @ c
        f_hat = fam_B.values @ cert_f.coefficients
        f_coeffs = span_membership(B, f_hat[:, None] * B.scalars.unit)
        peaker = synthesize_product_peaker(v, f_coeffs, quadruple)
        payload = {
            "quadruple": quadruple.label,
            "point": point,
            "character": E.characters[char_index].label,
            "scalar_certificate": cert_f.to_dict(),
            "peaker": peaker.to_dict(),
        }
    else:
        raise ConfigError(f"unknown command {command!r}")

    report = {
        "tool": f"shilov {__version__}",
        "command": command,
        "target": target,
        "seed": seed,
        "config_sha256": config_hash,
        "payload": payload,
    }
    return report, extras


def _entry_systems(config: dict, entry: dict) -> list[tuple[str, bool, bool]]:
    """(system, swept, closure read) for each system a run entry builds: a
    shilov target, swept; a validated system, or a validated quadruple's two,
    read; and a quadruple's two for verify-product and verify-peaks, swept
    in the estimation regime and read in the exact one, and for peaker."""
    command, target = entry["command"], entry["target"]
    if command == "validate" and target in config.get("algebras", {}):
        return []  # resolve_any's order: algebras, systems, quadruples
    if command == "shilov" or command == "validate" and target in config.get("systems", {}):
        return [(target, command == "shilov", command == "validate")]
    spec = config.get("quadruples", {}).get(target)
    if spec is None or command in ("characters", "hull"):
        return []  # or a validated space or preset
    verify = command in ("verify-product", "verify-peaks")
    swept = verify and entry.get("regime") == "estimation"
    read = command == "validate" or verify and not swept
    return [(spec[key], swept, read) for key in ("scalar_system", "vector_system")]


def _offered(spec: dict, points: int, dim: int) -> int:
    """The functions a system's constructor offers Span: |X| dim E for cxe
    and lip, the scalar functions times dim E for poly and rational."""
    return points * dim if spec["kind"] in ("cxe", "lip") else _scalar_functions(spec)[2] * dim


def _check_sizes(ws: _Workspace) -> None:
    """The one size gate (see the caps comment): |X| from a points space's
    list or a sampled space, sampled once for the run, and dim E from
    _algebra_dim.  A closure within _check_products meets _check_sweep."""
    config = ws.config
    for entry in config["run"]:
        for name, swept, read in _entry_systems(config, entry):
            spec = config["systems"][name]
            listed = config["spaces"][spec["space"]].get("points")
            points = ws.space(spec["space"]).size if listed is None else len(listed)
            dim = _algebra_dim(config, spec["algebra"])
            rows, offered = points * dim, _offered(spec, points, dim)
            if offered * rows > _MAX_ENTRIES:
                raise ConfigError(
                    f"system {name!r}: its constructor forms {offered} functions x {points}"
                    f" x {dim} = {offered * rows} entries, over the cap of {_MAX_ENTRIES}"
                )
            if read or spec.get("close"):
                _check_products(name, rows if spec.get("close") else min(rows, offered),
                                points, dim)
            if swept:
                _check_sweep(name, spec, points, dim)


def _check_sweep(name: str, spec: dict, points: int, dim: int) -> None:
    """Reject a swept system whose |X| dim E candidates, each certified by
    at most min(|X| dim E, f) coefficients, exceed _MAX_SWEEP entries, f
    being the functions its constructor offers (_offered)."""
    rows = points * dim
    m = min(rows, _offered(spec, points, dim))
    if rows * m > _MAX_SWEEP:
        raise ConfigError(
            f"system {name!r}: a sweep of {rows} candidates x {m} "
            f"coefficients = {rows * m} entries exceeds the cap of {_MAX_SWEEP}"
        )


def _check_products(name: str, m: int, points: int, dim: int) -> None:
    """Reject a system of m <= |X| dim E basis functions, |X| = points and
    dim E = dim, whose m^2 |X| dim E entries, bounding its m^3 structure
    tensor and its m^2 basis products, exceed _MAX_ENTRIES."""
    entries = m * m * points * dim
    if entries > _MAX_ENTRIES:
        raise ConfigError(
            f"system {name!r}: product table of {m}^2 x {points} x {dim} = "
            f"{entries} entries exceeds the cap of {_MAX_ENTRIES}"
        )


def _algebra_peaker(E: AlgebraSpec, char_index: int) -> np.ndarray:
    """Element of E whose transform is the indicator of E.characters[char_index].

    Distinct characters are linearly independent, so K has full row rank
    and lstsq solves K a = target exactly (no rank decision is made here).
    """
    K = character_matrix(E)  # (n_chars, dim)
    target = np.zeros(len(K), dtype=complex)
    target[char_index] = 1.0
    coords, _, _, _ = np.linalg.lstsq(K, target, rcond=None)
    return coords


@single_threaded()
def run_config(config: dict, output_dir: Path, seed: int, quiet: bool = False) -> int:
    """Execute every command in the run list once _check_sizes passes (it
    refuses before any file is written); returns a process exit code."""
    ws = _Workspace(config)
    _check_sizes(ws)
    config_hash = hashlib.sha256(
        json.dumps(config, sort_keys=True).encode()
    ).hexdigest()
    output_dir.mkdir(parents=True, exist_ok=True)
    for k, entry in enumerate(config["run"]):
        stem = _entry_stem(k, entry)
        report, extras = _run_entry(ws, entry, seed, stem, config_hash)
        _atomic_write(output_dir / f"{stem}.report.json", canonical_json(report))
        for fname, text in extras.items():
            _atomic_write(output_dir / fname, text)
        if not quiet:
            print(f"[{k}] {entry['command']} {entry['target']} -> {stem}.report.json")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="shilov",
        description="Gelfand theory and certified boundaries from a JSON config.",
    )
    parser.add_argument("--config", required=True, help="path to the experiment config")
    parser.add_argument("--output-dir", default=None, help="override config output_dir")
    parser.add_argument("--seed", type=int, default=None, help="override config seed")
    parser.add_argument("--quiet", action="store_true", help="suppress progress lines")
    args = parser.parse_args(argv)

    try:
        config = validate_config(args.config)
        seed = int(config.get("seed", 0)) if args.seed is None else args.seed
        bound = CONFIG_SCHEMA["properties"]["seed"]  # the override meets the config's bound
        if not bound["minimum"] <= seed <= bound["maximum"]:
            raise ConfigError(f"--seed {seed} is outside [{bound['minimum']}, {bound['maximum']}]")
        out_dir = Path(args.output_dir or config.get("output_dir", "shilov-out"))
        return run_config(config, out_dir, seed, quiet=args.quiet)
    except ConfigError as exc:
        print(json.dumps({"error": "config", "message": str(exc)}), file=sys.stderr)
        return 2
    except Exception as exc:  # operational failure: emit machine-readable JSON
        print(
            json.dumps({"error": type(exc).__name__, "message": str(exc)}),
            file=sys.stderr,
        )
        return 1


if __name__ == "__main__":
    sys.exit(main())
