"""Certified boundaries on rasterized plane regions.

The polynomially convex hull of an annulus fills its hole, and polynomial
witnesses can only certify peak points on the outer circle.  Rational
witnesses with a pole in the hole see the inner circle too.  This script
rasterizes both regions, certifies every sample, prints the counts and
writes the CSV / PGM overlays next to the script.

Smaller budgets than the acceptance suite (degree 10, 24 samples per circle)
keep the run short; the picture is the same.
"""

from collections import Counter
from pathlib import Path

import shilov as sh

OUT = Path(__file__).resolve().parent / "out"
DEGREE = 10
PER_CIRCLE = 24


def describe(partition, labels_slices):
    for name, indices in labels_slices.items():
        counts = Counter(partition.status_of(i) for i in indices)
        print(f"    {name:>12}: {dict(counts)}")


def main():
    OUT.mkdir(exist_ok=True)

    print("=== disk(0, 1), polynomial witnesses ===")
    disk = sh.raster_from_shape(sh.Disk(0, 1), 16)
    circle = sh.sample_raster(disk, sh.CircleSample(0, 1.0, PER_CIRCLE))
    grid = sh.sample_raster(disk, sh.InteriorGrid(0.2))
    X = sh.combine_spaces(circle, grid)
    poly = sh.make_poly(X, sh.complex_field(), DEGREE)
    part = sh.shilov_estimate(sh.witnesses_from_system(poly))
    describe(part, {
        "circle": range(PER_CIRCLE),
        "interior": range(PER_CIRCLE, X.size),
    })
    (OUT / "disk_poly.csv").write_text(sh.partition_to_csv(part))
    (OUT / "disk_poly.pgm").write_text(sh.partition_to_pgm(part, disk))

    print("=== annulus(0, 0.5, 1) ===")
    ann = sh.raster_from_shape(sh.Annulus(0, 0.5, 1), 16)
    filled = sh.polynomial_hull_raster(ann)
    disk_again = sh.raster_from_shape(sh.Disk(0, 1), 16)
    print(f"  hull fills the hole: pixelwise equal to the disk raster: "
          f"{(filled.grid == disk_again.grid).all()}")
    sh.write_pgm(OUT / "annulus_hull.pgm", filled)

    outer = sh.sample_raster(ann, sh.CircleSample(0, 1.0, PER_CIRCLE))
    inner = sh.sample_raster(ann, sh.CircleSample(0, 0.5, PER_CIRCLE))
    gridA = sh.sample_raster(ann, sh.InteriorGrid(0.2))
    XA = sh.combine_spaces(outer, inner, gridA)
    slices = {
        "outer circle": range(PER_CIRCLE),
        "inner circle": range(PER_CIRCLE, 2 * PER_CIRCLE),
        "interior": range(2 * PER_CIRCLE, XA.size),
    }

    print("  polynomial witnesses (hole filled, inner circle invisible):")
    poly = sh.make_poly(XA, sh.complex_field(), DEGREE)
    part_poly = sh.shilov_estimate(sh.witnesses_from_system(poly))
    describe(part_poly, slices)

    print("  rational witnesses, pole at 0 (inner circle certified):")
    rational = sh.make_rational(XA, sh.complex_field(), DEGREE, [0])
    part_rat = sh.shilov_estimate(sh.witnesses_from_system(rational))
    describe(part_rat, slices)
    (OUT / "annulus_rational.csv").write_text(sh.partition_to_csv(part_rat))
    (OUT / "annulus_rational.pgm").write_text(sh.partition_to_pgm(part_rat, ann))

    certified = part_rat.peak
    ok, _ = sh.is_boundary(certified, sh.witnesses_from_system(rational))
    meaning = {
        True: "every other sample is certified not to peak off it",
        False: "a certified peak lies off it",
        None: "undecided: some other sample is neither certified to peak nor not to",
    }[ok]
    print(f"  certified set is a boundary for the rational family: {ok} ({meaning})")
    print(f"  outputs written under {OUT}")


if __name__ == "__main__":
    main()
