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
from .algebra import MAX_PRESET_DIM, AlgebraSpec, parse_preset, preset_algebra
from .blas import single_threaded
from .boundary import (
    DEFAULT_SIDES,
    DEFAULT_TOL,
    certify_peak,
    partition_to_csv,
    partition_to_pgm,
    shilov_estimate,
    synthesize_product_peaker,
    verify_peak_product,
    verify_product_theorem,
    witnesses_from_system,
)
from .characters import character_matrix, radical, semisimple_quotient
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
    polynomial_hull_raster,
    raster_from_shape,
    sample_raster,
    topological_boundary_raster,
    validate_metric,
    write_pgm,
)

# Size caps from one memory budget: no array that one config value sizes
# holds more than about _MAX_ENTRIES complex entries (256 MiB).  Centres and
# radii within _MAX_COORD keep a raster within 4 _MAX_COORD units, 2**12
# pixels a side at _MAX_RESOLUTION.  A sampling strategy yields at most about
# _MAX_POINTS points (an interior grid 2**7 a side at _MIN_STEP), and a
# sampled space at most _MAX_POINTS in all: it is sampled strategy by
# strategy, at most _MAX_STRATEGIES of them, and rejected once it passes the
# cap.  An explicit space lists at most _MAX_POINTS points and coordinates,
# and a metric at most _MAX_METRIC rows of at most _MAX_METRIC entries:
# validate_metric's triangle check stays cubic in them (3.4 s at 2**10
# points on 2 vCPUs).  On such a space the LP's points x sides and a system's
# points x functions tables cap m and a system's scalar basis functions
# (_MAX_FUNCTIONS): 1, z, ..., z^degree, and for a rational system also
# (z - c)^-k, k <= degree, per pole c (_check_rational).  Products of values
# meet the same budget before they are formed: a system of m basis functions
# whose closure is read, and the closure "close" asks for, may count at most
# m^2 |X| dim E entries (_check_products).  That count bounds the products
# FunctionSystem.basis_products forms and keeps, and as_algebra's dense m^3
# structure tensor, as an independent basis has m <= |X| dim E.  dim E itself,
# of a preset name or of a config algebra, is at most MAX_PRESET_DIM, so E's
# own n^3 structure tensor meets the budget too; a name is checked before
# its algebra is built (parse_preset).
_MAX_ENTRIES, _MAX_POINTS, _MAX_COORD = 2**24, 2**14, 4
_MAX_METRIC = 2**10
_MAX_RESOLUTION = (2**12 - 3) // (4 * _MAX_COORD)
_MIN_STEP = 4 * _MAX_COORD / 2**7
_MAX_SIDES = _MAX_ENTRIES // _MAX_POINTS
_MAX_FUNCTIONS = _MAX_ENTRIES // _MAX_POINTS
_MAX_DEGREE = _MAX_FUNCTIONS - 1
_MAX_POLES = _MAX_FUNCTIONS - 2  # 1, z and one function per pole at degree 1
_MAX_STRATEGIES = _MAX_ENTRIES // _MAX_POINTS

_PAIR = {"type": "array", "items": {"type": "number"}, "minItems": 2, "maxItems": 2}
_COORD = {"type": "number", "minimum": -_MAX_COORD, "maximum": _MAX_COORD}
_CENTRE = {**_PAIR, "items": _COORD}
_RADIUS = {"type": "number", "exclusiveMinimum": 0, "maximum": _MAX_COORD}
_COUNT = {"type": "integer", "minimum": 1, "maximum": _MAX_POINTS}

CONFIG_SCHEMA = {
    "type": "object",
    "required": ["run"],
    "additionalProperties": False,
    "properties": {
        "seed": {"type": "integer", "minimum": 0, "maximum": 2**64 - 1},
        "output_dir": {"type": "string"},
        "algebras": {
            "type": "object",
            "additionalProperties": {
                "oneOf": [
                    {"type": "string"},
                    {
                        "type": "object",
                        "required": ["dim", "structure", "unit", "weights"],
                        "properties": {
                            "dim": {"type": "integer", "minimum": 1, "maximum": MAX_PRESET_DIM},
                            "structure": {"type": "array"},
                            "unit": {"type": "array"},
                            "weights": {"type": "array"},
                            "label": {"type": "string"},
                        },
                    },
                ]
            },
        },
        "spaces": {
            "type": "object",
            "additionalProperties": {
                "type": "object",
                "oneOf": [
                    {"required": ["points"]},
                    {"required": ["shape", "resolution"]},
                    {"required": ["sample_of", "strategies"]},
                ],
                "properties": {
                    "points": {
                        "type": "array", "items": {"type": "string"}, "maxItems": _MAX_POINTS
                    },
                    "coords": {"type": "array", "items": _PAIR, "maxItems": _MAX_POINTS},
                    "metric": {
                        "type": "array",
                        "items": {"type": "array", "maxItems": _MAX_METRIC},
                        "maxItems": _MAX_METRIC,
                    },
                    "shape": {
                        "type": "array",
                        "items": {
                            "type": "object",
                            "required": ["kind"],
                            "properties": {
                                "kind": {"enum": ["disk", "annulus"]},
                                "center": _CENTRE,
                                "radius": _RADIUS,
                                "inner": _COORD,
                                "outer": _COORD,
                            },
                        },
                    },
                    "resolution": {"type": "integer", "minimum": 8, "maximum": _MAX_RESOLUTION},
                    "sample_of": {"type": "string"},
                    "strategies": {
                        "type": "array",
                        "maxItems": _MAX_STRATEGIES,
                        "items": {
                            "type": "object",
                            "required": ["kind"],
                            "properties": {
                                "kind": {
                                    "enum": ["circle", "interior_grid", "boundary_uniform"]
                                },
                                "center": _CENTRE,
                                "radius": _RADIUS,
                                "count": _COUNT,
                                "step": {"type": "number", "minimum": _MIN_STEP},
                            },
                        },
                    },
                },
            },
        },
        "systems": {
            "type": "object",
            "additionalProperties": {
                "type": "object",
                "required": ["kind", "space", "algebra"],
                "properties": {
                    "kind": {"enum": ["cxe", "lip", "poly", "rational"]},
                    "space": {"type": "string"},
                    "algebra": {"type": "string"},
                    "alpha": {"type": "number", "exclusiveMinimum": 0, "maximum": 1},
                    "degree": {"type": "integer", "minimum": 0, "maximum": _MAX_DEGREE},
                    "poles": {"type": "array", "items": _PAIR, "maxItems": _MAX_POLES},
                    "close": {"type": "boolean"},
                },
            },
        },
        "quadruples": {
            "type": "object",
            "additionalProperties": {
                "type": "object",
                "required": ["space", "algebra", "scalar_system", "vector_system"],
                "properties": {
                    "space": {"type": "string"},
                    "algebra": {"type": "string"},
                    "scalar_system": {"type": "string"},
                    "vector_system": {"type": "string"},
                },
            },
        },
        "run": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["command", "target"],
                "properties": {
                    "command": {
                        "enum": [
                            "characters",
                            "validate",
                            "hull",
                            "shilov",
                            "verify-product",
                            "verify-peaks",
                            "peaker",
                        ]
                    },
                    "target": {"type": "string"},
                    "name": {"type": "string"},
                    "tol": {"type": "number", "exclusiveMinimum": 0, "exclusiveMaximum": 1},
                    "m": {"type": "integer", "minimum": 8, "maximum": _MAX_SIDES},
                    "regime": {"enum": ["exact", "estimation"]},
                    "raster": {"type": "string"},
                    "point": {"type": "string"},
                    "character": {"type": "integer", "minimum": 0},
                },
            },
        },
    },
}

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
            if name not in table:
                try:
                    self._algebras[name] = preset_algebra(name)
                except Exception:
                    raise ConfigError(f"unknown algebra reference {name!r}") from None
            elif isinstance(table[name], str):
                self._algebras[name] = preset_algebra(table[name])
            else:
                self._algebras[name] = AlgebraSpec.from_dict({"label": name, **table[name]})
        return self._algebras[name]

    def space(self, name: str):
        if name not in self._spaces:
            table = self.config.get("spaces", {})
            if name not in table:
                raise ConfigError(f"unknown space reference {name!r}")
            self._spaces[name] = self._build_space(name, table[name])
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
            base = self.space(spec["sample_of"])
            if not isinstance(base, RasterRegion):
                raise ConfigError(f"{spec['sample_of']!r} is not a raster region")
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
            table = self.config.get("systems", {})
            if name not in table:
                raise ConfigError(f"unknown system reference {name!r}")
            spec = table[name]
            space = self.space(spec["space"])
            if not isinstance(space, FiniteSpace):
                raise ConfigError(f"system {name!r} needs a finite space")
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
            if spec.get("close"):  # the closure has at most |X| dim E basis functions
                _check_products(name, space.size * E.dim, space, E)
                system = system if system.closed else close_under_products(system)
            self._systems[name] = system
        return self._systems[name]

    def quadruple(self, name: str) -> Quadruple:
        if name not in self._quadruples:
            table = self.config.get("quadruples", {})
            if name not in table:
                raise ConfigError(f"unknown quadruple reference {name!r}")
            spec = table[name]
            self._quadruples[name] = Quadruple(
                self.space(spec["space"]),
                self.algebra(spec["algebra"]),
                self.system(spec["scalar_system"]),
                self.system(spec["vector_system"]),
                label=name,
            )
        return self._quadruples[name]

    def resolve_any(self, name: str):
        """Target of `validate`: algebra, system, or quadruple, in that order."""
        for table, getter in (
            ("algebras", self.algebra),
            ("systems", self.system),
            ("quadruples", self.quadruple),
        ):
            if name in self.config.get(table, {}):
                return getter(name)
        if name in self.config.get("spaces", {}):
            return self.space(name)
        try:
            return preset_algebra(name)
        except Exception:
            raise ConfigError(f"unresolved reference {name!r}") from None


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


def _check_references(config: dict) -> None:
    """All cross-references must resolve (presets count as algebras, and a
    preset name resolves without building its algebra)."""
    algebras = set(config.get("algebras", {}))
    spaces = set(config.get("spaces", {}))
    systems = set(config.get("systems", {}))
    quadruples = set(config.get("quadruples", {}))

    def need_preset(name, where, what):
        try:
            parse_preset(name)
        except Exception as exc:
            raise ConfigError(f"{where}: unresolved {what} {name!r} ({exc})") from None

    def need_algebra(name, where):
        if name not in algebras:
            need_preset(name, where, "algebra")

    for name, spec in config.get("algebras", {}).items():
        if isinstance(spec, str):
            need_preset(spec, f"algebra {name!r}", "preset")
    for name, spec in config.get("spaces", {}).items():
        if "sample_of" in spec and spec["sample_of"] not in spaces:
            raise ConfigError(f"space {name!r}: unresolved raster {spec['sample_of']!r}")
        if "shape" in spec:
            for sh in spec["shape"]:
                if sh["kind"] == "annulus":
                    try:
                        Annulus(0j, float(sh["inner"]), float(sh["outer"]))
                    except ValueError as exc:
                        raise ConfigError(f"space {name!r}: {exc}") from None
    for name, spec in config.get("systems", {}).items():
        if spec["space"] not in spaces:
            raise ConfigError(f"system {name!r}: unresolved space {spec['space']!r}")
        need_algebra(spec["algebra"], f"system {name!r}")
    for name, spec in config.get("quadruples", {}).items():
        if spec["space"] not in spaces:
            raise ConfigError(f"quadruple {name!r}: unresolved space {spec['space']!r}")
        need_algebra(spec["algebra"], f"quadruple {name!r}")
        for key in ("scalar_system", "vector_system"):
            if spec[key] not in systems:
                raise ConfigError(f"quadruple {name!r}: unresolved system {spec[key]!r}")
    for k, entry in enumerate(config.get("run", [])):
        target = entry["target"]
        if target not in algebras | spaces | systems | quadruples:
            need_preset(target, f"run[{k}]", "target")


def _check_rational(config: dict) -> None:
    """Reject a rational system with more scalar basis functions than the
    degree cap allows a polynomial one: degree + 1 powers of z and degree
    powers of 1 / (z - c) per pole c."""
    for name, spec in config.get("systems", {}).items():
        if spec["kind"] != "rational":
            continue
        degree, poles = int(spec.get("degree", 1)), len(spec.get("poles", []))
        functions = degree + 1 + poles * degree
        if functions > _MAX_FUNCTIONS:
            raise ConfigError(
                f"system {name!r}: degree {degree} with {poles} poles gives "
                f"{functions} basis functions, over the cap of {_MAX_FUNCTIONS}"
            )


def _atomic_write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _run_entry(ws: _Workspace, entry: dict, seed: int, out_dir: Path, stem: str, config_hash: str):
    """Execute one run-list command; returns the payload plus extra files."""
    command = entry["command"]
    target = entry["target"]
    tol = float(entry.get("tol", DEFAULT_TOL))
    m = int(entry.get("m", DEFAULT_SIDES))
    payload: dict
    extras: dict[str, str] = {}

    if command == "characters":
        E = ws.algebra(target)
        rad = radical(E)
        quotient, _ = semisimple_quotient(E)
        payload = {
            "algebra": E.label,
            "characters": [c.to_dict() for c in E.characters],
            "radical_dim": len(rad),
            "radical_basis": [
                [[z.real, z.imag] for z in r.coords] for r in rad
            ],
            "quotient_dim": quotient.dim,
        }

    elif command == "validate":
        obj = ws.resolve_any(target)
        if isinstance(obj, AlgebraSpec):
            payload = obj.validation.to_dict()
        elif isinstance(obj, FunctionSystem):
            _check_closed(obj)
            payload = validate_system(obj).to_dict()
        elif isinstance(obj, Quadruple):
            # condition (3) reads B's algebra, and condition (4) B~'s closure
            _check_closed(obj.scalar_system, obj.vector_system)
            payload = check_admissible(obj).to_dict()
        elif isinstance(obj, FiniteSpace):
            payload = validate_metric(obj).to_dict()
        else:
            raise ConfigError(f"validate: cannot validate {target!r}")

    elif command == "hull":
        region = ws.space(target)
        if not isinstance(region, RasterRegion):
            raise ConfigError(f"hull target {target!r} is not a raster region")
        filled = polynomial_hull_raster(region)
        write_pgm(out_dir / f"{stem}.pgm", filled)
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
        partition = shilov_estimate(family, tol=tol, m=m)
        payload = partition.to_dict()
        if family.coords is not None:
            extras[f"{stem}.csv"] = partition_to_csv(partition)
            payload["csv"] = f"{stem}.csv"
            if entry.get("raster"):
                raster = ws.space(entry["raster"])
                if not isinstance(raster, RasterRegion):
                    raise ConfigError(f"raster {entry['raster']!r} is not a raster region")
                extras[f"{stem}.pgm"] = partition_to_pgm(partition, raster)
                payload["pgm"] = f"{stem}.pgm"

    elif command in ("verify-product", "verify-peaks"):
        quadruple = ws.quadruple(target)
        regime = entry.get("regime", "exact")
        if regime == "exact":  # admissibility and naturality
            _check_closed(quadruple.scalar_system, quadruple.vector_system)
        if command == "verify-product":
            payload = verify_product_theorem(quadruple, regime=regime, tol=tol, m=m).to_dict()
        else:
            payload = verify_peak_product(quadruple, regime=regime, tol=tol, m=m).to_dict()

    elif command == "peaker":
        quadruple = ws.quadruple(target)
        point = entry.get("point", quadruple.space.points[0])
        char_index = int(entry.get("character", 0))
        E, B = quadruple.scalars, quadruple.scalar_system
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
        cert_f = certify_peak(fam_B, x_index, tol=tol, m=m)
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


def _check_products(name: str, m: int, X: FiniteSpace, E: AlgebraSpec) -> None:
    """Reject a system of m basis functions on X with values in E whose
    m^2 |X| dim E entries exceed the _MAX_ENTRIES budget: they bound its
    m^3 structure tensor (m <= |X| dim E for an independent basis) and its
    at most m^2 basis products of |X| dim E entries each."""
    entries = m * m * X.size * E.dim
    if entries > _MAX_ENTRIES:
        raise ConfigError(
            f"system {name!r}: product table of {m}^2 x {X.size} x {E.dim} = "
            f"{entries} entries exceeds the cap of {_MAX_ENTRIES}"
        )


def _check_closed(*systems: FunctionSystem) -> None:
    """_check_products for each system whose closure is read: the verdict
    (FunctionSystem.closed) forms the products of the basis pairs whose
    supports meet and keeps them on the system (basis_products), and
    as_algebra reads those and writes its dense m^3 structure tensor."""
    for S in systems:
        _check_products(S.label, S.dim, S.space, S.scalars)


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
    """Execute every command in the run list; returns a process exit code."""
    ws = _Workspace(config)
    config_hash = hashlib.sha256(
        json.dumps(config, sort_keys=True).encode()
    ).hexdigest()
    output_dir.mkdir(parents=True, exist_ok=True)
    for k, entry in enumerate(config["run"]):
        stem = entry.get("name", f"{k:02d}-{entry['command']}-{entry['target']}")
        report, extras = _run_entry(ws, entry, seed, output_dir, stem, config_hash)
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
        seed = args.seed if args.seed is not None else int(config.get("seed", 0))
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
