"""Config validation, command execution, determinism, error handling."""

import json
from pathlib import Path

import numpy as np
import pytest

import shilov as sh
from shilov.cli import ConfigError, main, validate_config

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
