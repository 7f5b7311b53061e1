"""Benchmark workloads: seeded input generation, the timed run, output checks.

Each workload is three functions over plain data:

* ``build(seed, size)`` makes the inputs from the seed (spaces, systems,
  quadruples, config paths).  Its cost counts toward ``setup_s``.
* ``run(inputs)`` makes the library calls being timed and returns their
  reports.  Its cost is ``wall_s``.
* ``check(inputs, reports)`` re-checks the outputs by direct evaluation and
  returns a ``Tally`` of operations and candidate verdicts.  It runs after
  the timed region.

An operation is a candidate certification, a theorem check or a CLI
command.  A failed output check marks the operation it belongs to as failed.
"""

from __future__ import annotations

import hashlib
import json
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import shilov
from shilov import cli
from shilov.spaces import Annulus, CircleSample, InteriorGrid

ROOT = Path(__file__).resolve().parent.parent
DEMO_CONFIGS = ROOT / "demos" / "configs"

# Annulus sample sizes.  The shipped demo samples 24 + 24 circle points and
# the step-0.2 interior grid (91 points).  At default OpenBLAS threading its
# product check takes minutes on 2 vCPUs (126 s already at 52 points, where the
# per-iteration L-BFGS zgemv passes OpenBLAS's 4,096-entry threading cut),
# which no run budget fits.  So the circles are cut to 15 points each and the
# grid to step 0.3 (20 points): 50 points and a 100 x 42 product witness
# matrix.  Its off-target and full products (99 x 42, 100 x 42) are threaded,
# the L-BFGS products (99 x 41) stay just below the cut.
SIZES = {
    "annulus_product": {
        "full": {"circle_count": 15, "grid_step": 0.3},
        "tiny": {"circle_count": 6, "grid_step": 0.5, "degree": 2},
    },
    "exact_growth": {
        "full": {
            "cases": [(8, "pointwise_3"), (16, "pointwise_3"), (24, "pointwise_3"),
                      (16, "truncated_poly_3")],
        },
        "tiny": {"cases": [(3, "pointwise_3")]},
    },
    "cli_demos": {
        "full": {"configs": ["exact_demo", "annulus_demo"]},
        "tiny": {"configs": ["exact_demo"]},
    },
}

# Files each demo run entry writes, by entry name.
CLI_ENTRY_FILES = {
    "exact_demo": {
        name: [f"{name}.report.json"]
        for name in ("characters-dual", "characters-e2", "validate-cxe",
                     "product-cxe", "peaks-lip", "peaker-b")
    },
    "annulus_demo": {
        "hull-annulus": ["hull-annulus.report.json", "hull-annulus.pgm",
                         "hull-annulus.pgm.json", "hull-annulus.csv"],
        "shilov-poly": ["shilov-poly.report.json", "shilov-poly.csv", "shilov-poly.pgm"],
        "shilov-rational": ["shilov-rational.report.json", "shilov-rational.csv",
                            "shilov-rational.pgm"],
    },
}
CLI_MUST_PASS = {"product-cxe", "peaks-lip"}


@dataclass
class Tally:
    """Operations attempted and failed, with a line per failure, and the
    undecided share of all candidate certifications."""

    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    certified: int = 0
    undecided: int = 0
    digests: dict[str, str] = field(default_factory=dict)

    def op(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)


def _partitions(report: shilov.PeakProductReport):
    base = report.base
    return [p for p in (base.e_partition, base.b_partition, base.bt_partition) if p is not None]


def _check_product(report, tally: Tally, label: str, theorem_ok: bool = True) -> None:
    """One operation per candidate certification plus one for the theorem.

    A certification fails when its certificate does not re-verify by direct
    evaluation; the theorem fails when the report does not pass, when it
    certifies pairs outside the product, or when ``theorem_ok`` is false.
    """
    for part in _partitions(report):
        tally.certified += len(part.certificates)
        tally.undecided += len(part.undecided)
        for cert in part.certificates:
            ok = shilov.reverify_certificate(part.family, cert)
            tally.op(ok, f"{label}: {part.family.label} candidate {cert.target} "
                         f"({cert.status}) fails its check")
    base = report.base
    tally.op(theorem_ok and report.passed and not base.extra,
             f"{label}: product check failed (passed={report.passed}, "
             f"extra={base.extra}, missing={base.missing})")


# ---------------------------------------------------------------------------
# annulus_product


def build_annulus(seed: int, size: dict) -> dict:
    """The inputs do not depend on the seed.

    Reordering the points leaves the minimax problems unchanged but moves
    the scalar sweep's time by up to 1.6x through the warm starts that
    shilov_estimate passes between consecutive candidates, and some orders
    and rotations make HiGHS fail on the polygon LP.  A seed-derived order
    would therefore measure the seed, not the code.
    """
    R = shilov.raster_from_shape([Annulus(0j, 0.5, 1.0)], 16)
    count = size["circle_count"]
    parts = [
        shilov.sample_raster(R, CircleSample(0j, 1.0, count)),
        shilov.sample_raster(R, CircleSample(0j, 0.5, count)),
        shilov.sample_raster(R, InteriorGrid(size["grid_step"])),
    ]
    X = shilov.combine_spaces(*parts)
    E = shilov.pointwise_algebra(2)
    B = shilov.make_rational(X, shilov.complex_field(), size.get("degree", 10), [0j])
    Bt = shilov.span_BE(B, E)
    return {"Q": shilov.Quadruple(X, E, B, Bt, label="annulus_product")}


def run_annulus(inputs: dict) -> list:
    return [shilov.verify_peak_product(inputs["Q"], regime="estimation")]


def check_annulus(inputs: dict, reports: list) -> Tally:
    tally = Tally()
    _check_product(reports[0], tally, "annulus_product")
    return tally


# ---------------------------------------------------------------------------
# exact_growth


def _unit_square_space(rng: np.random.Generator, n: int) -> shilov.FiniteSpace:
    while True:
        coords = rng.uniform(0.0, 1.0, n) + 1j * rng.uniform(0.0, 1.0, n)
        gaps = np.abs(coords[:, None] - coords[None, :]) + np.eye(n)
        if gaps.min() > 1e-3:
            return shilov.FiniteSpace(tuple(f"p{k}" for k in range(n)), coords)


def build_exact(seed: int, size: dict) -> dict:
    rng = np.random.default_rng(seed)
    scalars = shilov.complex_field()
    quadruples = []
    for n, algebra in size["cases"]:
        X = _unit_square_space(rng, n)
        E = shilov.preset_algebra(algebra)
        quadruples.append(shilov.Quadruple(
            X, E, shilov.make_CXE(X, scalars), shilov.make_CXE(X, E),
            label=f"|X|={n},{algebra}",
        ))
    return {"quadruples": quadruples}


def run_exact(inputs: dict) -> list:
    return [shilov.verify_peak_product(Q, regime="exact") for Q in inputs["quadruples"]]


def check_exact(inputs: dict, reports: list) -> Tally:
    tally = Tally()
    for Q, report in zip(inputs["quadruples"], reports):
        base = report.base
        natural = bool(base.preconditions.get("natural"))
        _check_product(report, tally, Q.label, natural and not base.missing)
    return tally


# ---------------------------------------------------------------------------
# cli_demos


def build_cli(seed: int, size: dict) -> dict:
    return {
        "seed": seed,
        "configs": {name: DEMO_CONFIGS / f"{name}.json" for name in size["configs"]},
        "workdir": tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT),
    }


def run_cli(inputs: dict) -> list:
    reports = []
    for name, path in inputs["configs"].items():
        out_dir = Path(inputs["workdir"].name) / name
        code = cli.main(["--config", str(path), "--output-dir", str(out_dir),
                         "--seed", str(inputs["seed"]), "--quiet"])
        reports.append((name, code, out_dir))
    return reports


def _count_report_sweeps(tally: Tally, payload: dict) -> None:
    parts = [payload] if "certificates" in payload else [
        payload.get(key) for key in ("algebra_boundary", "scalar_boundary", "vector_boundary")
    ]
    for part in parts:
        if part:
            tally.certified += len(part["certificates"])
            tally.undecided += len(part["undecided"])
    if "scalar_certificate" in payload:
        tally.certified += 1
        tally.undecided += payload["scalar_certificate"]["status"] == "undecided"


def check_cli(inputs: dict, reports: list) -> Tally:
    """One operation per run-list entry; digests feed the cross-run check."""
    tally = Tally()
    try:
        for name, code, out_dir in reports:
            for path in sorted(out_dir.glob("*.report.json")):
                _count_report_sweeps(tally, json.loads(path.read_text())["payload"])
            for entry, files in CLI_ENTRY_FILES[name].items():
                paths = [out_dir / f for f in files]
                present = code == 0 and all(p.is_file() for p in paths)
                ok = present
                if present and entry in CLI_MUST_PASS:
                    ok = json.loads(paths[0].read_text())["payload"].get("passed") is True
                if ok:
                    digest = hashlib.sha256()
                    for p in paths:
                        digest.update(p.name.encode() + b"\0" + p.read_bytes())
                    tally.digests[f"{name}/{entry}"] = digest.hexdigest()
                tally.op(ok, f"{name}/{entry}: exit {code}, files present={present}")
    finally:
        inputs["workdir"].cleanup()
    return tally


@dataclass(frozen=True)
class Workload:
    build: Callable[[int, dict], dict]
    run: Callable[[dict], list]
    check: Callable[[dict, list], Tally]


WORKLOADS = {
    "annulus_product": Workload(build_annulus, run_annulus, check_annulus),
    "exact_growth": Workload(build_exact, run_exact, check_exact),
    "cli_demos": Workload(build_cli, run_cli, check_cli),
}
