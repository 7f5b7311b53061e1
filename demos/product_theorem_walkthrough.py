"""The boundary product law, exactly on finite spaces and on an annulus.

For a natural admissible quadruple the Shilov boundary of the vector system
is the product of the boundaries of E and of the scalar system, and the same
factorization holds for peak points.  On finite candidate sets both are
checked exhaustively; on the sampled annulus with a capped rational witness
family the certified sets still factor block by block.  The peaker g = v f
built from two normalized one-sided peakers realizes the product law
constructively: its transform peaks exactly at the product of the argmax
sets.
"""

import numpy as np

import shilov as sh


def exact_part():
    print("=== exact regime ===")
    rng = np.random.default_rng(11)
    coords = rng.uniform(-1, 1, 3) + 1j * rng.uniform(-1, 1, 3)
    X = sh.FiniteSpace(("a", "b", "c"), coords)
    E = sh.preset_algebra("pointwise_2")
    Q = sh.Quadruple(X, E, sh.make_CXE(X, sh.complex_field()), sh.make_CXE(X, E),
                     label="(X, C^2, C(X), C(X,C^2))")

    report = sh.verify_peak_product(Q)
    base = report.base
    print(f"  {Q.label}")
    print(f"  natural: {base.preconditions['natural']}")
    print(f"  certified pairs: {base.certified_pairs}")
    print(f"  product pairs:   {base.product_pairs}")
    print(f"  symmetric difference: missing {base.missing}, extra {base.extra}")
    print(f"  all certificates re-verify:    {report.certificates_reverified}")

    # build the constructive product peaker at (chi1, b); the certificate
    # combines fam_B's rescaled columns, so read f-hat off them first
    v = E.basis_element(0)  # transform is the indicator of one character
    fam_B = sh.witnesses_from_system(Q.scalar_system)
    cert = sh.certify_peak(fam_B, 1)
    f_hat = fam_B.values @ cert.coefficients
    f = sh.span_membership(Q.scalar_system, f_hat[:, None] * Q.scalar_system.scalars.unit)
    peaker = sh.synthesize_product_peaker(v, f, Q)
    print(f"  peaker g = v f: max |g-hat| = {peaker.max_modulus:.9f}, "
          f"argmax pairs {peaker.argmax_pairs}")
    print()


def estimation_part():
    print("=== estimation regime: annulus, rational witnesses, E = C^2 ===")
    ann = sh.raster_from_shape(sh.Annulus(0, 0.5, 1), 16)
    outer = sh.sample_raster(ann, sh.CircleSample(0, 1.0, 24))
    inner = sh.sample_raster(ann, sh.CircleSample(0, 0.5, 24))
    grid = sh.sample_raster(ann, sh.InteriorGrid(0.25))
    X = sh.combine_spaces(outer, inner, grid)
    E = sh.preset_algebra("pointwise_2")
    B = sh.make_rational(X, sh.complex_field(), 10, [0])
    Bt = sh.span_BE(B, E)
    Q = sh.Quadruple(X, E, B, Bt, label="annulus rational quadruple")

    report = sh.verify_product_theorem(Q, regime="estimation")
    print(f"  candidates: {X.size} points x {len(E.characters)} characters")
    print(f"  certified scalar boundary: {len(report.b_partition.peak)} points")
    print(f"  certified vector boundary: {len(report.certified_pairs)} pairs")
    print(f"  coverage of certified product: {report.coverage:.2%}")
    print(f"  spurious certified pairs (soundness): {len(report.extra)}")
    print(f"  containment holds: {report.passed}")


if __name__ == "__main__":
    exact_part()
    estimation_part()
