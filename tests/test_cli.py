"""Config validation, command execution, determinism, error handling."""

import importlib
import json
import math
import os
import stat
import subprocess
import sys
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import shilov as sh
from shilov import cli
from shilov.cli import ConfigError, main, validate_config
from shilov.reports import canonical_json

DEMO_DIR = Path(__file__).resolve().parent.parent / "demos" / "configs"


def write_config(tmp_path, data) -> Path:
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data))
    return path


def minimal_config(**overrides):
    config = {
        "seed": 7,
        "algebras": {"D": "dual_numbers"},
        "run": [{"command": "characters", "target": "D", "name": "chars"}],
    }
    config.update(overrides)
    return config


def test_shipped_demo_configs_validate():
    for name in ("exact_demo.json", "annulus_demo.json"):
        config = validate_config(DEMO_DIR / name)
        assert config["run"]


def _rest(n, *taken):
    """The indices below n outside the given lists."""
    return sorted(set(range(n)).difference(*taken))


_POLY_PEAK = [*range(24), 48, 54, 64, 87]
_RATIONAL_PEAK = [*range(49), 54, 62, 64, 77, 87]
_RATIONAL_NOT_PEAK = [50, 55, 63, 65, 66, 78, 81, 82]

# (config, report, boundary field or None for the payload itself) ->
# (certified_peak, certified_not_peak, undecided) of the shipped demos
DEMO_VERDICTS = {
    ("annulus_demo", "shilov-poly", None): (_POLY_PEAK, _rest(91, _POLY_PEAK), []),
    ("annulus_demo", "shilov-rational", None): (
        _RATIONAL_PEAK,
        _RATIONAL_NOT_PEAK,
        _rest(91, _RATIONAL_PEAK, _RATIONAL_NOT_PEAK),
    ),
    ("exact_demo", "product-cxe", "algebra_boundary"): ([0, 1], [], []),
    ("exact_demo", "product-cxe", "scalar_boundary"): ([0, 1, 2], [], []),
    ("exact_demo", "product-cxe", "vector_boundary"): ([*range(6)], [], []),
    ("exact_demo", "peaks-lip", "algebra_boundary"): ([0], [], []),
    ("exact_demo", "peaks-lip", "scalar_boundary"): ([0, 1, 2], [], []),
    ("exact_demo", "peaks-lip", "vector_boundary"): ([0, 1, 2], [], []),
}


def _sanitize(obj):
    """Oracle for canonical_json's values: every leaf walked in Python, NumPy
    scalars and arrays as Python values, a non-finite float as its repr."""
    if isinstance(obj, (np.generic, np.ndarray)):
        obj = obj.tolist()
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else repr(obj)
    if isinstance(obj, dict):
        return {k: _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    return obj


def _indent_2_json(data) -> str:
    """Oracle for canonical_json: json's own indent=2 (pure-Python) encoder
    on the walked values."""
    return json.dumps(_sanitize(data), sort_keys=True, indent=2) + "\n"


def test_shipped_demo_verdicts_are_pinned(tmp_path, monkeypatch):
    def checked_json(data):
        text = canonical_json(data)
        assert text == _indent_2_json(data)
        written.append(text)
        return text

    written = []
    monkeypatch.setattr(cli, "canonical_json", checked_json)
    for config in ("annulus_demo", "exact_demo"):
        out = tmp_path / config
        argv = ["--config", str(DEMO_DIR / f"{config}.json"), "--output-dir", str(out)]
        assert main([*argv, "--quiet"]) == 0
        for (name, report, field), verdicts in DEMO_VERDICTS.items():
            if name != config:
                continue
            payload = json.loads((out / f"{report}.report.json").read_text())["payload"]
            partition = payload if field is None else payload[field]
            assert (
                partition["certified_peak"],
                partition["certified_not_peak"],
                partition["undecided"],
            ) == verdicts, (report, field)
    assert len(written) == len(list(tmp_path.glob("*/*.report.json")))  # every report checked


def test_config_schema_passes_its_metaschema():
    # validate_config builds its validator once and skips this check
    jsonschema.validators.validator_for(cli.CONFIG_SCHEMA).check_schema(cli.CONFIG_SCHEMA)


def test_schema_messages_match_jsonschema_validate(tmp_path):
    bad = [
        minimal_config(seed="seven"),
        minimal_config(run="all"),
        minimal_config(run=[{"command": "nope", "target": "D", "name": "x"}]),
        minimal_config(algebras={"D": 3}, extra=1),
    ]
    for config in bad:
        with pytest.raises(jsonschema.ValidationError) as expected:
            jsonschema.validate(config, cli.CONFIG_SCHEMA)
        error = expected.value
        where = "/".join(str(p) for p in error.absolute_path) or "<root>"
        with pytest.raises(ConfigError) as raised:
            validate_config(write_config(tmp_path, config))
        assert str(raised.value) == f"config schema violation at {where}: {error.message}"


def test_dangling_reference_caught(tmp_path):
    config = minimal_config(
        systems={"B": {"kind": "cxe", "space": "missing", "algebra": "complex"}}
    )
    with pytest.raises(ConfigError, match="missing"):
        validate_config(write_config(tmp_path, config))


def test_bad_annulus_caught(tmp_path):
    config = minimal_config(
        spaces={
            "ann": {
                "shape": [
                    {"kind": "annulus", "center": [0, 0], "inner": 1.0, "outer": 0.5}
                ],
                "resolution": 16,
            }
        }
    )
    with pytest.raises(ConfigError, match="annulus"):
        validate_config(write_config(tmp_path, config))


def test_parse_error_reports_position(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"run": [,]}')
    with pytest.raises(ConfigError, match="line 1"):
        validate_config(path)


def test_characters_command(tmp_path):
    out = tmp_path / "out"
    config = write_config(tmp_path, minimal_config())
    assert main(["--config", str(config), "--output-dir", str(out), "--quiet"]) == 0
    report = json.loads((out / "chars.report.json").read_text())
    payload = report["payload"]
    assert payload["quotient_dim"] == 1
    assert payload["radical_dim"] == 1
    assert len(payload["characters"]) == 1
    assert report["seed"] == 7
    assert len(report["config_sha256"]) == 64


def test_hull_command_matches_disk(tmp_path):
    config = {
        "seed": 0,
        "spaces": {
            "ann": {
                "shape": [
                    {"kind": "annulus", "center": [0, 0], "inner": 0.5, "outer": 1.0}
                ],
                "resolution": 16,
            }
        },
        "run": [{"command": "hull", "target": "ann", "name": "hull"}],
    }
    out = tmp_path / "out"
    assert main(["--config", str(write_config(tmp_path, config)), "--output-dir", str(out), "--quiet"]) == 0
    filled = sh.read_pgm(out / "hull.pgm")
    disk = sh.raster_from_shape(sh.Disk(0, 1), 16)
    assert np.array_equal(filled.grid, disk.grid)
    assert (out / "hull.csv").read_text().startswith("x,y\n")


def test_verify_product_command(tmp_path):
    config = {
        "seed": 0,
        "algebras": {"E2": "pointwise_2"},
        "spaces": {
            "X": {"points": ["a", "b", "c"], "coords": [[0, 0], [1, 0], [0, 1]]}
        },
        "systems": {
            "B": {"kind": "cxe", "space": "X", "algebra": "complex"},
            "Bt": {"kind": "cxe", "space": "X", "algebra": "E2"},
        },
        "quadruples": {
            "Q": {"space": "X", "algebra": "E2", "scalar_system": "B", "vector_system": "Bt"}
        },
        "run": [{"command": "verify-product", "target": "Q", "name": "vp"}],
    }
    out = tmp_path / "out"
    assert main(["--config", str(write_config(tmp_path, config)), "--output-dir", str(out), "--quiet"]) == 0
    payload = json.loads((out / "vp.report.json").read_text())["payload"]
    assert payload["passed"] is True
    assert payload["missing"] == [] and payload["extra"] == []


def test_quadruple_may_name_a_preset_directly(tmp_path):
    # no algebras table: the quadruple and its vector system both name the preset
    config = {
        "spaces": {"X": {"points": ["a", "b"], "coords": [[0, 0], [1, 0]]}},
        "systems": {
            "B": {"kind": "cxe", "space": "X", "algebra": "complex"},
            "Bt": {"kind": "cxe", "space": "X", "algebra": "pointwise_2"},
        },
        "quadruples": {
            "Q": {"space": "X", "algebra": "pointwise_2", "scalar_system": "B",
                  "vector_system": "Bt"}
        },
        "run": [{"command": "verify-product", "target": "Q", "name": "vp"}],
    }
    out = tmp_path / "out"
    assert main(["--config", str(write_config(tmp_path, config)), "--output-dir", str(out), "--quiet"]) == 0
    assert json.loads((out / "vp.report.json").read_text())["payload"]["passed"] is True


def test_shilov_command_writes_csv_and_pgm(tmp_path):
    config = {
        "seed": 0,
        "spaces": {
            "disk": {"shape": [{"kind": "disk", "center": [0, 0], "radius": 1.0}], "resolution": 16},
            "samples": {
                "sample_of": "disk",
                "strategies": [
                    {"kind": "circle", "center": [0, 0], "radius": 1.0, "count": 12},
                    {"kind": "interior_grid", "step": 0.5},
                ],
            },
        },
        "systems": {
            "poly": {"kind": "poly", "space": "samples", "algebra": "complex", "degree": 4}
        },
        "run": [{"command": "shilov", "target": "poly", "raster": "disk", "name": "sh"}],
    }
    out = tmp_path / "out"
    assert main(["--config", str(write_config(tmp_path, config)), "--output-dir", str(out), "--quiet"]) == 0
    payload = json.loads((out / "sh.report.json").read_text())["payload"]
    assert (out / "sh.csv").exists()
    assert (out / "sh.pgm").read_text().startswith("P2\n")
    csv_lines = (out / "sh.csv").read_text().strip().split("\n")
    assert csv_lines[0] == "x,y,status"
    statuses = {line.split(",")[2] for line in csv_lines[1:]}
    assert "certified_peak" in statuses


def test_peaker_command(tmp_path):
    config = json.loads((DEMO_DIR / "exact_demo.json").read_text())
    config["run"] = [
        {"command": "peaker", "target": "cxe_demo", "point": "b", "character": 1, "name": "pk"}
    ]
    out = tmp_path / "out"
    assert main(["--config", str(write_config(tmp_path, config)), "--output-dir", str(out), "--quiet"]) == 0
    payload = json.loads((out / "pk.report.json").read_text())["payload"]
    assert payload["peaker"]["in_span"] is True
    assert payload["peaker"]["max_modulus"] == pytest.approx(1.0, abs=1e-9)


def test_peaker_command_converts_certificate_to_basis(tmp_path):
    # monomial basis of degree 2 on four points: the certificate's
    # coefficients combine rescaled witness columns, not B's basis
    config = {
        "algebras": {"E2": "pointwise_2"},
        "spaces": {
            "X": {"points": ["p0", "p1", "p2", "p3"],
                  "coords": [[0, 0], [1, 0], [0, 2], [-2, 0]]}
        },
        "systems": {
            "B": {"kind": "poly", "space": "X", "algebra": "complex", "degree": 2},
            "Bt": {"kind": "poly", "space": "X", "algebra": "E2", "degree": 2},
        },
        "quadruples": {
            "Q": {"space": "X", "algebra": "E2", "scalar_system": "B", "vector_system": "Bt"}
        },
        "run": [{"command": "peaker", "target": "Q", "point": "p3", "name": "pk"}],
    }
    out = tmp_path / "out"
    assert main(["--config", str(write_config(tmp_path, config)), "--output-dir", str(out), "--quiet"]) == 0
    peaker = json.loads((out / "pk.report.json").read_text())["payload"]["peaker"]
    assert peaker["max_modulus"] == pytest.approx(1.0, abs=1e-9)
    assert peaker["in_span"] is True


def test_seed_does_not_reach_the_character_search(tmp_path):
    # cyclic_group_3 has a radical-free, non-diagonal basis: a seed that
    # reached the character search would move its characters at roundoff
    config = {
        "algebras": {"Z3": "cyclic_group_3"},
        "spaces": {
            "X": {"points": ["a", "b", "c"], "coords": [[0.2, 0.1], [0.9, -0.3], [-0.5, 0.7]]}
        },
        "systems": {
            "B": {"kind": "cxe", "space": "X", "algebra": "complex"},
            "Bt": {"kind": "cxe", "space": "X", "algebra": "Z3"},
        },
        "quadruples": {
            "Q": {"space": "X", "algebra": "Z3", "scalar_system": "B", "vector_system": "Bt"}
        },
        "run": [
            {"command": "characters", "target": "Z3", "name": "chars"},
            {"command": "shilov", "target": "Bt", "name": "shilov"},
            {"command": "peaker", "target": "Q", "point": "b", "character": 1, "name": "peaker"},
            {"command": "verify-peaks", "target": "Q", "name": "peaks"},
        ],
    }
    path = write_config(tmp_path, config)
    outputs = []
    for seed in ("0", "3"):
        out = tmp_path / f"s{seed}"
        assert main(["--config", str(path), "--output-dir", str(out), "--seed", seed, "--quiet"]) == 0
        outputs.append(out)
    names = sorted(p.name for p in outputs[0].iterdir())
    assert names == sorted(p.name for p in outputs[1].iterdir()) and len(names) == 5
    for name in names:
        first, second = ((out / name).read_text() for out in outputs)
        assert first.replace('\n  "seed": 0,\n', '\n  "seed": 3,\n') == second, name


def test_exit_codes(tmp_path):
    assert main(["--config", str(tmp_path / "nope.json")]) != 0

    bad_schema = write_config(tmp_path, {"run": [{"command": "fly", "target": "x"}]})
    assert main(["--config", str(bad_schema)]) == 2

    dangling = write_config(
        tmp_path, {"run": [{"command": "characters", "target": "nothing"}]}
    )
    assert main(["--config", str(dangling)]) == 2


def test_determinism_byte_identical(tmp_path):
    config = write_config(tmp_path, minimal_config())
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert main(["--config", str(config), "--output-dir", str(out1), "--quiet"]) == 0
    assert main(["--config", str(config), "--output-dir", str(out2), "--quiet"]) == 0
    for path1 in sorted(out1.iterdir()):
        path2 = out2 / path1.name
        assert path1.read_bytes() == path2.read_bytes()


def test_seed_override_changes_report(tmp_path):
    config = write_config(tmp_path, minimal_config())
    out1, out2 = tmp_path / "s1", tmp_path / "s2"
    assert main(["--config", str(config), "--output-dir", str(out1), "--quiet"]) == 0
    assert main(["--config", str(config), "--output-dir", str(out2), "--seed", "99", "--quiet"]) == 0
    r1 = json.loads((out1 / "chars.report.json").read_text())
    r2 = json.loads((out2 / "chars.report.json").read_text())
    assert r1["seed"] == 7 and r2["seed"] == 99


def bounded_config():
    return {
        "spaces": {
            "disk": {"shape": [{"kind": "disk", "center": [0, 0], "radius": 1.0}], "resolution": 16},
            "samples": {
                "sample_of": "disk",
                "strategies": [
                    {"kind": "circle", "center": [0, 0], "radius": 1.0, "count": 4},
                    {"kind": "interior_grid", "step": 0.5},
                ],
            },
        },
        "systems": {
            "lip": {"kind": "lip", "space": "samples", "algebra": "complex", "alpha": 1.0}
        },
        "run": [{"command": "shilov", "target": "lip"}],
    }


@pytest.mark.parametrize(
    "path, value",
    [
        # the peak margin and the polygon are constants: naming either is an error
        (("run", 0, "tol"), 1e-4),
        (("run", 0, "m"), 32),
        (("spaces", "disk", "resolution"), 7),
        (("spaces", "samples", "strategies", 1, "step"), 0),
        (("spaces", "samples", "strategies", 1, "step"), -0.5),
        (("systems", "lip", "alpha"), 0),
        (("systems", "lip", "alpha"), 2),
        (("spaces", "disk", "shape", 0, "radius"), 0),
        (("spaces", "samples", "strategies", 0, "radius"), -1.0),
    ],
)
def test_schema_bounds_config_values(tmp_path, capsys, path, value):
    config = bounded_config()
    validate_config(write_config(tmp_path, config))
    *parents, key = path
    node = config
    for step in parents:
        node = node[step]
    node[key] = value
    config_path = write_config(tmp_path, config)
    with pytest.raises(ConfigError, match="schema violation"):
        validate_config(config_path)
    assert main(["--config", str(config_path), "--output-dir", str(tmp_path / "out")]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "config"


def strict_config():
    """bounded_config plus a config algebra, a points space and a quadruple:
    one object of each kind whose keys the schema fixes."""
    config = bounded_config()
    config["algebras"] = {"E": sh.pointwise_algebra(2).to_dict()}
    config["spaces"]["explicit"] = {"points": ["a", "b"], "coords": [[0, 0], [1, 0]]}
    config["quadruples"] = {
        "Q": {"space": "samples", "algebra": "complex", "scalar_system": "lip",
              "vector_system": "lip"}
    }
    return config


@pytest.mark.parametrize(
    "path, key",
    [
        (("algebras", "E"), "dimm"),
        (("spaces", "explicit"), "coord"),
        (("spaces", "disk", "shape", 0), "centre"),
        (("spaces", "samples", "strategies", 0), "steps"),
        (("systems", "lip"), "degre"),  # read as the default degree 1 if let through
        (("quadruples", "Q"), "scalar"),
        (("run", 0), "regmie"),  # read as the exact regime if let through
    ],
)
def test_schema_refuses_unknown_keys(tmp_path, capsys, path, key):
    config = strict_config()
    validate_config(write_config(tmp_path, config))
    node = config
    for step in path:
        node = node[step]
    node[key] = 2
    _assert_refused(tmp_path, capsys, config, "schema violation")


def sized_config():
    """bounded_config plus an annulus, an explicit space with a metric, a
    poly system and a rational system."""
    config = bounded_config()
    config["spaces"]["explicit"] = {
        "points": ["a", "b", "c"],
        "coords": [[0, 0], [1, 0], [0, 1]],
        "metric": [[0, 1, 1], [1, 0, 1], [1, 1, 0]],
    }
    config["spaces"]["ring"] = {
        "shape": [{"kind": "annulus", "center": [0, 0], "inner": 0.5, "outer": 1.0}],
        "resolution": 16,
    }
    config["systems"]["poly"] = {
        "kind": "poly", "space": "samples", "algebra": "complex", "degree": 4
    }
    config["systems"]["rational"] = {
        "kind": "rational", "space": "samples", "algebra": "complex", "degree": 1,
        "poles": [[2, 0]],
    }
    return config


_POLE = [2, 0]
_CIRCLE = {"kind": "circle", "center": [0, 0], "radius": 1.0, "count": 4}


@pytest.mark.parametrize(
    "path, cap, over",
    [
        (("spaces", "disk", "resolution"), cli._MAX_RESOLUTION, cli._MAX_RESOLUTION + 1),
        (("spaces", "samples", "strategies", 0, "count"), cli._MAX_POINTS, cli._MAX_POINTS + 1),
        (("spaces", "samples", "strategies", 1, "step"), cli._MIN_STEP, cli._MIN_STEP / 2),
        (("systems", "poly", "degree"), cli._MAX_DEGREE, cli._MAX_DEGREE + 1),
        (("seed",), 2**64 - 1, 2**64),
        (("spaces", "disk", "shape", 0, "radius"), cli._MAX_COORD, 2 * cli._MAX_COORD),
        (("spaces", "samples", "strategies", 0, "radius"), cli._MAX_COORD, 2 * cli._MAX_COORD),
        (("spaces", "ring", "shape", 0, "outer"), cli._MAX_COORD, 2 * cli._MAX_COORD),
        (("spaces", "disk", "shape", 0, "center", 0), cli._MAX_COORD, cli._MAX_COORD + 1),
        (("spaces", "samples", "strategies", 0, "center", 1), -cli._MAX_COORD, -cli._MAX_COORD - 1),
        (("systems", "rational", "poles"), [_POLE] * cli._MAX_POLES, [_POLE] * (cli._MAX_POLES + 1)),
        (
            ("spaces", "samples", "strategies"),
            [_CIRCLE] * cli._MAX_STRATEGIES,
            [_CIRCLE] * (cli._MAX_STRATEGIES + 1),
        ),
        (
            ("spaces", "explicit", "points"),
            [f"p{i}" for i in range(cli._MAX_POINTS)],
            [f"p{i}" for i in range(cli._MAX_POINTS + 1)],
        ),
        (("spaces", "explicit", "coords"), [[0, 0]] * cli._MAX_POINTS, [[0, 0]] * (cli._MAX_POINTS + 1)),
        # the triangle check of a metric is cubic in its rows: 2^10 of them
        (("spaces", "explicit", "metric"), [[0]] * 2**10, [[0]] * (2**10 + 1)),
        (("spaces", "explicit", "metric", 0), [0] * 2**10, [0] * (2**10 + 1)),
    ],
)
def test_schema_caps_config_sizes(tmp_path, capsys, path, cap, over):
    # the caps are checked by validation alone: no config here is ever run
    *parents, key = path
    config = sized_config()
    node = config
    for step in parents:
        node = node[step]
    node[key] = cap
    validate_config(write_config(tmp_path, config))
    node[key] = over
    config_path = write_config(tmp_path, config)
    with pytest.raises(ConfigError, match="schema violation"):
        validate_config(config_path)
    assert main(["--config", str(config_path), "--output-dir", str(tmp_path / "out")]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "config"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "degree, poles",
    [(3, 340), (31, 32), (cli._MAX_DEGREE, 0)],
)
def test_rational_basis_is_capped(tmp_path, capsys, degree, poles):
    # degree + 1 powers of z and degree powers of 1 / (z - c) per pole c
    assert degree + 1 + poles * degree == cli._MAX_FUNCTIONS
    config = sized_config()
    rational = config["systems"]["rational"]
    rational.update(degree=degree, poles=[[2.0 + k, 0.0] for k in range(poles)])
    validate_config(write_config(tmp_path, config))
    rational["poles"].append([1.5, 1.5])
    config_path = write_config(tmp_path, config)
    with pytest.raises(ConfigError, match="basis functions, over the cap"):
        validate_config(config_path)
    assert main(["--config", str(config_path), "--output-dir", str(tmp_path / "out")]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "config"
    assert not (tmp_path / "out").exists()


def test_sampled_space_points_are_capped(tmp_path, capsys, monkeypatch):
    # a space is sampled strategy by strategy and stops at the point cap
    # (lowered here: circles of 2^14 points take a second to sample)
    monkeypatch.setattr(cli, "_MAX_POINTS", 12)
    sampled = []
    sample_raster = cli.sample_raster

    def counting(region, strategy):
        sampled.append(strategy.count)
        return sample_raster(region, strategy)

    monkeypatch.setattr(cli, "sample_raster", counting)
    config = bounded_config()
    strategies = [{**_CIRCLE, "count": 8}, {**_CIRCLE, "radius": 0.5}]
    config["spaces"]["samples"]["strategies"] = strategies
    assert cli._Workspace(config).space("samples").size == 12
    strategies[1]["count"] = 5
    strategies.append(_CIRCLE)
    out = tmp_path / "out"
    assert main(["--config", str(write_config(tmp_path, config)), "--output-dir", str(out)]) == 2
    error = json.loads(capsys.readouterr().err)
    assert error["error"] == "config" and "over 12 points" in error["message"]
    assert sampled == [8, 4, 8, 5]  # the third strategy is never sampled
    assert not list(out.glob("*.report.json"))


def product_config(entry):
    """C(X) on a 300-point explicit space: m = |X| = 300 basis functions,
    so the product table holds 300^2 x 300 entries, over the 2^24 cap."""
    angles = np.linspace(0.0, 2.0 * np.pi, 300, endpoint=False)
    return {
        "spaces": {
            "X": {
                "points": [f"p{i}" for i in range(300)],
                "coords": [[math.cos(t), math.sin(t)] for t in angles],
            }
        },
        "systems": {
            "B": {"kind": "cxe", "space": "X", "algebra": "complex"},
            # over the cap, and checked only where an entry builds it
            "P": {"kind": "poly", "space": "X", "algebra": "complex", "degree": 2, "close": True},
        },
        "quadruples": {
            "Q": {"space": "X", "algebra": "complex", "scalar_system": "B", "vector_system": "B"}
        },
        "run": [entry],
    }


@pytest.mark.parametrize(
    "entry, name",
    [
        ({"command": "validate", "target": "B"}, "B"),
        ({"command": "validate", "target": "Q"}, "B"),
        ({"command": "verify-product", "target": "Q"}, "B"),
        ({"command": "verify-peaks", "target": "Q", "regime": "exact"}, "B"),
        ({"command": "shilov", "target": "P"}, "P"),  # the closure of P
    ],
)
def test_product_tables_are_capped(tmp_path, capsys, monkeypatch, entry, name):
    def refuse(*args, **kwargs):
        raise AssertionError("a product was formed before the size check")

    monkeypatch.setattr(sh.function_algebras, "_basis_products", refuse)
    monkeypatch.setattr(cli, "close_under_products", refuse)
    path = write_config(tmp_path, product_config(entry))
    out = tmp_path / "out"
    assert main(["--config", str(path), "--output-dir", str(out), "--quiet"]) == 2
    error = json.loads(capsys.readouterr().err)
    assert error["error"] == "config"
    assert f"system {name!r}" in error["message"]
    assert "300^2 x 300 x 1 = 27000000 entries" in error["message"]
    assert not list(out.glob("*"))


@pytest.mark.parametrize(
    "entry, name, spec, count",
    [
        # P_240 on 300 points is not closed: deciding so forms its products
        ({"command": "validate", "target": "P"}, "P",
         {"kind": "poly", "space": "X", "algebra": "complex", "degree": 240},
         "241^2 x 300 x 1 = 17424300"),
        # C(X) is closed: "close" is refused before its closure is read
        ({"command": "shilov", "target": "P"}, "P",
         {"kind": "cxe", "space": "X", "algebra": "complex", "close": True},
         "300^2 x 300 x 1 = 27000000"),
    ],
)
def test_product_tables_are_capped_closed_or_not(tmp_path, capsys, monkeypatch, entry, name,
                                                 spec, count):
    def refuse(*args, **kwargs):
        raise AssertionError("a product was formed before the size check")

    monkeypatch.setattr(sh.function_algebras, "_basis_products", refuse)
    monkeypatch.setattr(cli, "close_under_products", refuse)
    config = product_config(entry)
    config["systems"]["P"] = spec
    out = tmp_path / "out"
    assert main(["--config", str(write_config(tmp_path, config)), "--output-dir", str(out),
                 "--quiet"]) == 2
    error = json.loads(capsys.readouterr().err)
    assert error["error"] == "config"
    assert f"system {name!r}" in error["message"] and count in error["message"]
    assert not list(out.glob("*"))


def test_product_table_cap_is_the_entry_budget():
    cli._check_products("B", 256, 256, 1)  # 256^3 = 2^24 entries, at the cap
    with pytest.raises(ConfigError, match="257\\^2 x 256 x 1"):
        cli._check_products("B", 257, 256, 1)


def test_estimation_product_check_is_not_capped(tmp_path, monkeypatch):
    # the estimation regime reads witness values only and forms no product
    # table, so its closed 300-point systems pass (the check itself is
    # stubbed: its 600 certificates of 300 coefficients take seconds)
    regimes = []

    class Report:
        def to_dict(self):
            return {}

    def stub(quadruple, regime):
        regimes.append(regime)
        return Report()

    monkeypatch.setattr(cli, "verify_product_theorem", stub)
    entry = {"command": "verify-product", "target": "Q", "regime": "estimation"}
    path = write_config(tmp_path, product_config(entry))
    assert main(["--config", str(path), "--output-dir", str(tmp_path / "out"), "--quiet"]) == 0
    assert regimes == ["estimation"]


def test_sweep_cap_is_the_entry_budget_over_64():
    # C(X) on 512 points: 512 candidates of 512 coefficients, at the cap
    assert cli._MAX_SWEEP == 2**18
    cli._check_sweep("B", {"kind": "cxe"}, 512, 1)
    with pytest.raises(ConfigError, match="513 candidates x 513 coefficients"):
        cli._check_sweep("B", {"kind": "lip"}, 513, 1)
    # P_2 (x) C^2 on 2^14 points: certificates of at most 3 x 2 coefficients;
    # R_1 with three poles has 1 + 1 + 3 scalar functions
    cli._check_sweep("P", {"kind": "poly", "degree": 2}, 2**14, 2)
    with pytest.raises(ConfigError, match="32768 candidates x 10 coefficients"):
        cli._check_sweep("P", {"kind": "rational", "degree": 1, "poles": [[2, 0]] * 3}, 2**14, 2)


def sweep_config(points, entry):
    """C(X) and P_2 on an explicit space of the given points, with a sample
    of the unit disk beside it, the quadruple (X, C, C(X), C(X)), and the
    run list [_FIRST, entry]."""
    angles = np.linspace(0.0, 2.0 * np.pi, points, endpoint=False)
    return minimal_config(
        spaces={
            "X": {"points": [f"p{i}" for i in range(points)],
                  "coords": [[math.cos(t), math.sin(t)] for t in angles]},
            "disk": _DISK,
            "s": {"sample_of": "disk", "strategies": [{**_CIRCLE, "count": points}]},
        },
        systems={
            "B": {"kind": "cxe", "space": "X", "algebra": "complex"},
            "P": {"kind": "poly", "space": "X", "algebra": "complex", "degree": 2},
            "S": {"kind": "poly", "space": "s", "algebra": "complex", "degree": 2},
        },
        quadruples={
            "Q": {"space": "X", "algebra": "complex", "scalar_system": "B", "vector_system": "B"}
        },
        run=[_FIRST, entry],
    )


@pytest.mark.parametrize(
    "entry, cap, message",
    [
        ({"command": "shilov", "target": "B"}, 36, "6 candidates x 6 coefficients = 36"),
        ({"command": "verify-product", "target": "Q", "regime": "estimation"}, 36,
         "6 candidates x 6 coefficients = 36"),
        ({"command": "verify-peaks", "target": "Q", "regime": "estimation"}, 36,
         "6 candidates x 6 coefficients = 36"),
        ({"command": "shilov", "target": "P"}, 18, "6 candidates x 3 coefficients = 18"),
    ],
)
def test_sweeps_on_a_points_space_are_capped_before_any_output(tmp_path, capsys, monkeypatch,
                                                               entry, cap, message):
    # one entry over the cap, here lowered (C(X) reaches 2^18 at 512 points)
    monkeypatch.setattr(cli, "_MAX_SWEEP", cap - 1)
    _assert_refused(tmp_path, capsys, sweep_config(6, entry), f"{message} entries exceeds")
    monkeypatch.setattr(cli, "_MAX_SWEEP", cap)  # at the cap, it runs
    out = tmp_path / "out"
    assert main(["--config", str(write_config(tmp_path, sweep_config(6, entry))),
                 "--output-dir", str(out), "--quiet"]) == 0
    assert len(list(out.glob("*.report.json"))) == 2


def test_exact_and_peaker_entries_are_not_sweep_capped(tmp_path, monkeypatch):
    # the exact regime meets the product cap instead, and peaker certifies one point
    monkeypatch.setattr(cli, "_MAX_SWEEP", 1)
    for entry in ({"command": "verify-product", "target": "Q"},
                  {"command": "peaker", "target": "Q", "point": "p1"}):
        config_path = write_config(tmp_path, sweep_config(6, entry))
        assert main(["--config", str(config_path), "--output-dir", str(tmp_path / "out"),
                     "--quiet"]) == 0


def test_sweep_on_a_sampled_space_is_capped_before_any_output(tmp_path, capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the system was built before the sweep check")

    monkeypatch.setattr(cli, "make_poly", refuse)
    monkeypatch.setattr(cli, "_MAX_SWEEP", 6 * 3 - 1)
    # the space is sampled for its |X| before the first entry runs
    config = sweep_config(6, {"command": "shilov", "target": "S"})
    _assert_refused(tmp_path, capsys, config, "system 'S': a sweep of 6 candidates x 3 coefficients")


def gate_config(points, space, entry):
    """C(X) on X, listed or a circle sample of the unit disk, with the
    quadruple (X, C, C(X), C(X)), and the run list [_FIRST, entry]."""
    spaces = {"disk": _DISK, "X": {"points": [f"p{i}" for i in range(points)]}}
    if space == "sampled":
        spaces["X"] = {"sample_of": "disk", "strategies": [{**_CIRCLE, "count": points}]}
    return minimal_config(
        spaces=spaces,
        systems={"B": {"kind": "cxe", "space": "X", "algebra": "complex"}},
        quadruples={
            "Q": {"space": "X", "algebra": "complex", "scalar_system": "B", "vector_system": "B"}
        },
        run=[_FIRST, entry],
    )


@pytest.mark.parametrize("space", ["points", "sampled"])
@pytest.mark.parametrize(
    "entry",
    [
        {"command": "validate", "target": "B"},
        {"command": "validate", "target": "Q"},
        {"command": "verify-product", "target": "Q"},
        {"command": "verify-product", "target": "Q", "regime": "estimation"},
        {"command": "verify-peaks", "target": "Q", "regime": "exact"},
        {"command": "verify-peaks", "target": "Q", "regime": "estimation"},
        {"command": "shilov", "target": "B"},
        {"command": "peaker", "target": "Q"},
    ],
)
def test_every_entry_is_refused_before_any_system_is_built(tmp_path, capsys, monkeypatch, entry,
                                                           space):
    def refuse(*args, **kwargs):
        raise AssertionError("a system or an algebra was built before the size gate")

    for name in ("make_CXE", "make_lip", "make_poly", "make_rational", "close_under_products",
                 "preset_algebra"):
        monkeypatch.setattr(cli, name, refuse)
    # C(X) on 4097 points: its constructor's (4097, 4097, 1) basis is over the cap
    _assert_refused(tmp_path, capsys, gate_config(4097, space, entry),
                    "system 'B': its constructor forms 4097 functions x 4097 x 1 = 16785409")


def test_peaker_meets_the_constructor_cap():
    # the gate alone: C(X) on 4096 points has 2^24 basis entries, at the cap
    entry = {"command": "peaker", "target": "Q"}
    cli._check_sizes(cli._Workspace(gate_config(4096, "points", entry)))
    with pytest.raises(ConfigError, match="4097 functions x 4097 x 1"):
        cli._check_sizes(cli._Workspace(gate_config(4097, "points", entry)))


def poly_config(points, algebra, degree):
    """A shilov entry of P_degree (x) E on listed points in [0, 1)."""
    return minimal_config(
        spaces={"X": {"points": [f"p{i}" for i in range(points)],
                      "coords": [[i / points, 0] for i in range(points)]}},
        systems={"P": {"kind": "poly", "space": "X", "algebra": algebra, "degree": degree}},
        run=[{"command": "shilov", "target": "P"}],
    )


def test_constructor_tables_are_counted_before_span_drops_a_row(tmp_path, capsys, monkeypatch):
    # P_1023 (x) C^256 on one point sweeps 256 x 256 entries, but make_poly
    # forms (1024 x 256) x 256 = 2^26 before Span keeps 256 rows; P_255 is at 2^24
    cli._check_sizes(cli._Workspace(poly_config(1, "pointwise_256", 255)))
    with pytest.raises(ConfigError, match="262144 functions x 1 x 256 = 67108864 entries"):
        cli._check_sizes(cli._Workspace(poly_config(1, "pointwise_256", 1023)))
    # the same edge through main, at a smaller E: 1024 x 64 functions x 4 x 64 = 2^24.
    # At the cap the spy stops the run, as the table itself is 256 MiB.
    tables = []

    def spy(fs, E):
        tables.append((len(fs) * E.dim, len(fs[0]) * E.dim))
        raise RuntimeError("spy")

    monkeypatch.setattr(sh.function_algebras, "_times_units", spy)
    _assert_refused(tmp_path, capsys, poly_config(5, "pointwise_64", 1023),
                    "65536 functions x 5 x 64 = 20971520 entries")
    assert tables == []
    path = write_config(tmp_path, poly_config(4, "pointwise_64", 1023))
    assert main(["--config", str(path), "--output-dir", str(tmp_path / "out"), "--quiet"]) == 1
    assert json.loads(capsys.readouterr().err)["message"] == "spy"
    assert tables == [(65536, 256)]


@pytest.mark.parametrize("seed", [-5, -1, 2**64, 10**37])
def test_seed_override_meets_the_config_seed_bound(tmp_path, capsys, seed):
    out = tmp_path / "out"
    path = write_config(tmp_path, minimal_config())
    assert main(["--config", str(path), "--output-dir", str(out), "--seed", str(seed)]) == 2
    error = json.loads(capsys.readouterr().err)
    assert error["error"] == "config" and f"--seed {seed} is outside" in error["message"]
    assert not out.exists()
    for seed in (0, 2**64 - 1):  # both ends of the bound run
        argv = ["--config", str(path), "--output-dir", str(out), "--seed", str(seed), "--quiet"]
        assert main(argv) == 0
        assert json.loads((out / "chars.report.json").read_text())["seed"] == seed


def test_peaker_unknown_point_is_a_config_error(tmp_path, capsys):
    config = json.loads((DEMO_DIR / "exact_demo.json").read_text())
    config["run"] = [{"command": "peaker", "target": "cxe_demo", "point": "nowhere"}]
    path = write_config(tmp_path, config)
    assert main(["--config", str(path), "--output-dir", str(tmp_path / "out")]) == 2
    error = json.loads(capsys.readouterr().err)
    assert error["error"] == "config" and "nowhere" in error["message"]


_JSON_LEAVES = (
    st.none() | st.booleans() | st.integers() | st.text()
    | st.floats() | st.sampled_from([math.inf, -math.inf, math.nan, -0.0, 1e300, 5e-324])
)
_JSON_DATA = st.recursive(
    _JSON_LEAVES,
    lambda inner: st.lists(inner, max_size=4) | st.tuples(inner, inner)
    | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=30,
)


@given(_JSON_DATA)
@settings(max_examples=300, deadline=None)
def test_canonical_json_matches_the_indent_2_encoder(data):
    assert canonical_json(data) == _indent_2_json(data)


@pytest.mark.parametrize("data", [
    {"label": 'a "quoted" [label], {x: 1}', "nested": [[], {}, [[]], {"e": {}}]},
    ["\\", "\\\"", "\\\\\"]", '"', "\\[", "\u00e9t\u00e9 \u2202X \U0001d4d1", "\x01\n\t"],
    {"\u00e9": {"[": ",", "]": "{"}, "": [1, -2, 0.5, True, None]},
    np.array([[0.5, np.nan], [-np.inf, 1e-300]]),
    "top", 3, 2.5, None, [], {},
])
def test_canonical_json_keeps_strings_and_empty_containers(data):
    assert canonical_json(data) == _indent_2_json(data)


@pytest.mark.parametrize("data", [
    [math.nan, math.inf, -math.inf, -0.0, 1.5],
    {"NaN": math.nan, "Infinity": [math.inf, "-Infinity"], "x": (-math.inf, "NaN")},
    [np.float64("nan"), np.float32("-inf"), np.float16(0.5), np.int8(-3), np.uint64(7),
     np.bool_(True), np.float64(-0.0)],
    [np.array(np.nan), np.array(-np.inf), np.array(2), np.array(True), np.array(0.25)],
    (1, (math.nan, "x"), ()),
    {"a": 'say ": Infinity, or NaN" here', "b": "-Infinity", 'key ": NaN,': math.inf},
    ['\\": Infinity,', '\\\": NaN]', "NaN", "Infinity,NaN", "[-Infinity]"],
    {"nested": {"q": ['"', math.nan, '\\'], "r": np.array([[math.inf, 1.0], [math.nan, 2.0]])}},
])
def test_canonical_json_quotes_only_the_bare_non_finite_tokens(data):
    assert canonical_json(data) == _indent_2_json(data)


def test_canonical_json_writes_non_finite_values_as_strings():
    def refuse(token):
        raise ValueError(f"bare {token} is not JSON")

    data = {
        "f32": np.float32("inf"),
        "f64": np.float64("nan"),
        "neg": -math.inf,
        "array": np.array([0.5, -np.inf]),
        "count": np.int64(3),
        "finite": np.float64(0.1),
    }
    assert json.loads(canonical_json(data), parse_constant=refuse) == {
        "f32": "inf",
        "f64": "nan",
        "neg": "-inf",
        "array": [0.5, "-inf"],
        "count": 3,
        "finite": 0.1,
    }


def test_every_number_of_every_demo_csv_parses(tmp_path):
    written = 0
    for config in ("annulus_demo", "exact_demo"):
        out = tmp_path / config
        argv = ["--config", str(DEMO_DIR / f"{config}.json"), "--output-dir", str(out), "--quiet"]
        assert main(argv) == 0
        for path in sorted(out.glob("*.csv")):
            header, *rows = [line.split(",") for line in path.read_text().splitlines()]
            assert header in (["x", "y"], ["x", "y", "status"]), path.name
            assert rows, path.name
            for row in rows:
                assert len(row) == len(header)
                x, y = float(row[0]), float(row[1])  # plain numbers, no type names
                assert row[:2] == [repr(x), repr(y)] and math.isfinite(x) and math.isfinite(y)
            written += 1
    assert written == 3  # the hull boundary and both shilov partitions


@pytest.mark.parametrize(
    "name", ["pointwise_257", "truncated_poly_257", "cyclic_group_257", "cyclic_group_100000"]
)
def test_preset_dimension_is_capped_before_building(tmp_path, capsys, monkeypatch, name):
    def refuse(*args):
        raise AssertionError("a preset algebra was built")

    for builder in ("pointwise_algebra", "truncated_polynomials", "cyclic_group_algebra"):
        monkeypatch.setattr(sh.algebra, builder, refuse)
    with pytest.raises(sh.AlgebraError, match="dimension cap of 256"):
        sh.preset_algebra(name)
    at_cap = name.rsplit("_", 1)[0] + "_256"
    assert sh.algebra.parse_preset(at_cap)[1] == [256]  # parsed, not built
    chars = [{"command": "characters", "target": "E"}]
    configs = [
        minimal_config(algebras={"E": name}, run=chars),  # an algebras-table preset
        minimal_config(run=[{"command": "characters", "target": name}]),  # a run target
        minimal_config(  # a system's algebra
            spaces={"X": {"points": ["a"]}},
            systems={"B": {"kind": "cxe", "space": "X", "algebra": name}},
        ),
    ]
    for config in configs:
        out = tmp_path / "out"
        assert main(["--config", str(write_config(tmp_path, config)), "--output-dir", str(out)]) == 2
        error = json.loads(capsys.readouterr().err)
        assert error["error"] == "config" and "dimension cap of 256" in error["message"]
        assert not out.exists()


def test_config_algebra_dimension_is_capped(tmp_path, capsys):
    assert sh.algebra.MAX_PRESET_DIM**3 == cli._MAX_ENTRIES
    spec = {"dim": cli.MAX_PRESET_DIM, "structure": [], "unit": [], "weights": []}
    config = minimal_config(algebras={"E": spec}, run=[{"command": "characters", "target": "E"}])
    validate_config(write_config(tmp_path, config))  # validation alone builds nothing
    spec["dim"] += 1
    path = write_config(tmp_path, config)
    with pytest.raises(ConfigError, match="schema violation at algebras/E/dim"):
        validate_config(path)
    assert main(["--config", str(path), "--output-dir", str(tmp_path / "out")]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "config"


_DISK = {"shape": [{"kind": "disk", "center": [0, 0], "radius": 1.0}], "resolution": 16}
_SAMPLES = {"sample_of": "disk", "strategies": [{"kind": "interior_grid", "step": 0.5}]}
_POINTS = {"points": ["a", "b"], "coords": [[0, 0], [1, 0]]}
_FIRST = {"command": "characters", "target": "D", "name": "first"}


def _assert_refused(tmp_path, capsys, config, message):
    """main exits 2 with message in its config error, and writes no file,
    neither in the output directory nor beside it."""
    work = tmp_path / "work"
    path = write_config(tmp_path, config)
    assert main(["--config", str(path), "--output-dir", str(work / "out"), "--quiet"]) == 2
    error = json.loads(capsys.readouterr().err)
    assert error["error"] == "config" and message in error["message"], error
    assert not work.exists()


@pytest.mark.parametrize(
    "names, message",
    [
        (["../escaped"], "'../escaped' is not a plain file name"),
        (["sub/name"], "'sub/name' is not a plain file name"),
        ([".."], "'..' is not a plain file name"),
        (["."], "'.' is not a plain file name"),
        ([""], "'' is not a plain file name"),
        (["dup", "dup"], "'dup' repeats an earlier entry's"),
        (["first"], "'first' repeats an earlier entry's"),
    ],
)
def test_run_entry_names_are_plain_and_distinct(tmp_path, capsys, names, message):
    run = [_FIRST] + [{"command": "characters", "target": "D", "name": n} for n in names]
    _assert_refused(tmp_path, capsys, minimal_config(run=run), message)


def test_default_stem_carries_no_slash_into_the_path(tmp_path, capsys):
    config = minimal_config(
        algebras={"D": "dual_numbers", "a/b": "pointwise_2"},
        run=[_FIRST, {"command": "characters", "target": "a/b"}],
    )
    _assert_refused(tmp_path, capsys, config, "'01-characters-a/b' is not a plain file name")
    config["run"][1]["name"] = "ab"
    out = tmp_path / "out"
    assert main(["--config", str(write_config(tmp_path, config)), "--output-dir", str(out)]) == 0
    assert sorted(p.name for p in out.iterdir()) == ["ab.report.json", "first.report.json"]


@pytest.mark.parametrize(
    "spaces, systems, quadruples, entry, message",
    [
        # a sampled space that samples itself (was a RecursionError, exit 1)
        ({"s": {**_SAMPLES, "sample_of": "s"}}, {}, {}, None, "'s' is not a shape space"),
        # a sampled space that samples another sampled space
        ({"disk": _DISK, "s": _SAMPLES, "t": {**_SAMPLES, "sample_of": "s"}}, {}, {}, None,
         "'s' is not a shape space"),
        # a hull of a points space (was exit 2 after the earlier entries wrote)
        ({"X": _POINTS}, {}, {}, {"command": "hull", "target": "X"},
         "'X' is not a shape space"),
        # a shilov raster that names a sampled space
        ({"disk": _DISK, "s": _SAMPLES},
         {"poly": {"kind": "poly", "space": "s", "algebra": "complex"}}, {},
         {"command": "shilov", "target": "poly", "raster": "s"}, "'s' is not a shape space"),
        # a system and a quadruple on a raster region, and a raster region validated
        ({"disk": _DISK}, {"B": {"kind": "cxe", "space": "disk", "algebra": "complex"}}, {}, None,
         "'disk' is not a points or sampled space"),
        ({"disk": _DISK, "X": _POINTS},
         {"B": {"kind": "cxe", "space": "X", "algebra": "complex"}},
         {"Q": {"space": "disk", "algebra": "complex", "scalar_system": "B", "vector_system": "B"}},
         None, "'disk' is not a points or sampled space"),
        ({"disk": _DISK}, {}, {}, {"command": "validate", "target": "disk"},
         "cannot validate raster region 'disk'"),
    ],
)
def test_raster_references_are_checked_before_any_output(
    tmp_path, capsys, spaces, systems, quadruples, entry, message
):
    config = minimal_config(
        spaces=spaces, systems=systems, quadruples=quadruples,
        run=[_FIRST] + ([entry] if entry else []),
    )
    _assert_refused(tmp_path, capsys, config, message)


@pytest.mark.parametrize(
    "algebra, points, dim",
    [("pointwise_8", 33, 8), ("E8", 33, 8), ("D8", 33, 8), ("dual_numbers", 129, 2)],
)
def test_close_cap_is_checked_before_any_output(tmp_path, capsys, monkeypatch, algebra, points,
                                                dim):
    # one point over the cap: (|X| dim E)^3 > 2^24 once |X| dim E > 256 (was
    # exit 2 after the first entry wrote)
    def refuse(*args, **kwargs):
        raise AssertionError("an algebra was built before the size check")

    monkeypatch.setattr(cli, "preset_algebra", refuse)
    config = minimal_config(
        algebras={"D": "dual_numbers", "E8": "pointwise_8",
                  "D8": sh.pointwise_algebra(8).to_dict()},
        spaces={"X": {"points": [f"p{i}" for i in range(points)]}},
        systems={"P": {"kind": "cxe", "space": "X", "algebra": algebra, "close": True}},
        run=[_FIRST, {"command": "shilov", "target": "P"}],
    )
    message = f"system 'P': product table of {points * dim}^2 x {points} x {dim}"
    _assert_refused(tmp_path, capsys, config, message)
    config["spaces"]["X"]["points"].pop()  # at the cap, |X| dim E = 256
    assert validate_config(write_config(tmp_path, config)) == config


def test_close_cap_on_a_sampled_space_is_checked_before_any_output(tmp_path, capsys):
    # the space is sampled for its |X| before the first entry runs
    config = minimal_config(
        spaces={"disk": _DISK, "s": _SAMPLES},
        systems={"P": {"kind": "cxe", "space": "s", "algebra": "pointwise_64", "close": True}},
        run=[_FIRST, {"command": "shilov", "target": "P"}],
    )
    _assert_refused(tmp_path, capsys, config, "system 'P': product table of")


_CXE = {"kind": "cxe", "space": "X", "algebra": "complex"}
_QUADRUPLE = {"space": "X", "algebra": "D", "scalar_system": "B", "vector_system": "B"}


@pytest.mark.parametrize(
    "entry, message",
    [
        # an algebra's shilov (was exit 2 after the first entry wrote)
        ({"command": "shilov", "target": "D"}, "'D' is not a system"),
        ({"command": "shilov", "target": "Q"}, "'Q' is not a system"),
        ({"command": "characters", "target": "B"}, "unresolved algebra 'B'"),
        ({"command": "verify-product", "target": "B"}, "'B' is not a quadruple"),
        ({"command": "verify-peaks", "target": "D"}, "'D' is not a quadruple"),
        ({"command": "peaker", "target": "X"}, "'X' is not a quadruple"),
        ({"command": "peaker", "target": "Q", "point": "z"}, "'z' is not a point of 'Q'"),
    ],
)
def test_run_targets_are_checked_for_their_kind_before_any_output(
    tmp_path, capsys, entry, message
):
    config = minimal_config(
        spaces={"X": _POINTS}, systems={"B": _CXE}, quadruples={"Q": _QUADRUPLE},
        run=[_FIRST, entry],
    )
    _assert_refused(tmp_path, capsys, config, message)


_UMASK_SCRIPT = """
import os, sys
os.umask(int(sys.argv[1], 8))
from shilov.cli import main
assert main(["--config", sys.argv[2], "--output-dir", sys.argv[3], "--quiet"]) == 0
"""


@pytest.mark.parametrize("umask, mode", [("022", 0o644), ("077", 0o600)])
def test_outputs_get_the_mode_the_umask_gives(tmp_path, umask, mode):
    # in a child process: the umask is process-wide
    config = write_config(tmp_path, {"spaces": {"disk": _DISK}, "run": [
        {"command": "hull", "target": "disk", "name": "hull"}
    ]})
    out = tmp_path / "out"
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src if not path else f"{src}{os.pathsep}{path}"}
    result = subprocess.run(
        [sys.executable, "-c", _UMASK_SCRIPT, umask, str(config), str(out)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    modes = {p.name: stat.S_IMODE(p.stat().st_mode) for p in out.iterdir()}
    assert sorted(modes) == ["hull.csv", "hull.pgm", "hull.pgm.json", "hull.report.json"]
    assert set(modes.values()) == {mode}, modes


def test_hull_pgm_and_sidecar_go_through_atomic_writes(tmp_path, monkeypatch):
    path = write_config(tmp_path, {"spaces": {"disk": _DISK}, "run": [
        {"command": "hull", "target": "disk", "name": "hull"}
    ]})

    def refuse(*args, **kwargs):
        raise AssertionError("the command line writes every file through _atomic_write")

    monkeypatch.setattr(Path, "write_text", refuse)
    out = tmp_path / "out"
    assert main(["--config", str(path), "--output-dir", str(out), "--quiet"]) == 0
    monkeypatch.undo()
    disk = sh.raster_from_shape(sh.Disk(0, 1), 16)
    sh.write_pgm(tmp_path / "ref.pgm", sh.polynomial_hull_raster(disk))
    for suffix in (".pgm", ".pgm.json"):
        assert (out / f"hull{suffix}").read_bytes() == (tmp_path / f"ref{suffix}").read_bytes()


@pytest.mark.parametrize(
    "name", ["dual_numbers", "pointwise_3", "truncated_poly_3", "cyclic_group_3"]
)
def test_quotient_dim_builds_no_quotient_algebra(tmp_path, monkeypatch, name):
    def refuse(*args, **kwargs):
        raise AssertionError("quotient_dim needs no n^3 structure tensor")

    # the module: shilov.characters is the function of that name
    monkeypatch.setattr(importlib.import_module("shilov.characters"), "pointwise_algebra", refuse)
    out = tmp_path / "out"
    path = write_config(tmp_path, minimal_config(algebras={"D": name}))
    assert main(["--config", str(path), "--output-dir", str(out), "--quiet"]) == 0
    monkeypatch.undo()
    quotient, _ = sh.semisimple_quotient(sh.preset_algebra(name))
    payload = json.loads((out / "chars.report.json").read_text())["payload"]
    assert payload["quotient_dim"] == quotient.dim
