"""Config validation, command execution, determinism, error handling."""

import json
import math
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import shilov as sh
from shilov import cli
from shilov.cli import ConfigError, main, validate_config
from shilov.reports import _sanitize, canonical_json

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


def _indent_2_json(data) -> str:
    """Oracle for canonical_json: json's own indent=2 (pure-Python) encoder."""
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
    # cyclic_group_3 has a radical-free, non-diagonal basis: a reseeded
    # triangularization moves its characters at roundoff
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
        "run": [{"command": "shilov", "target": "lip", "tol": 1e-4}],
    }


@pytest.mark.parametrize(
    "path, value",
    [
        (("run", 0, "tol"), 0),
        (("run", 0, "tol"), 1),
        (("run", 0, "tol"), 2.0),
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


def sized_config():
    """bounded_config plus an annulus, an explicit space with a metric, a
    poly system and polygon sides."""
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
    config["run"][0]["m"] = 32
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
        (("run", 0, "m"), cli._MAX_SIDES, cli._MAX_SIDES + 1),
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
    C = sh.complex_field()
    X = sh.FiniteSpace(tuple(f"p{i}" for i in range(256)))
    cli._check_products("B", 256, X, C)  # 256^3 = 2^24 entries, at the cap
    with pytest.raises(ConfigError, match="257\\^2 x 256 x 1"):
        cli._check_products("B", 257, X, C)


def test_estimation_product_check_is_not_capped(tmp_path, monkeypatch):
    # the estimation regime reads witness values only and forms no product
    # table, so its closed 300-point systems pass (the check itself is
    # stubbed: its 600 certificates of 300 coefficients take seconds)
    regimes = []

    class Report:
        def to_dict(self):
            return {}

    def stub(quadruple, regime, tol, m):
        regimes.append(regime)
        return Report()

    monkeypatch.setattr(cli, "verify_product_theorem", stub)
    entry = {"command": "verify-product", "target": "Q", "regime": "estimation"}
    path = write_config(tmp_path, product_config(entry))
    assert main(["--config", str(path), "--output-dir", str(tmp_path / "out"), "--quiet"]) == 0
    assert regimes == ["estimation"]


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
