"""Admissible quadruples (X, E, B, B~) and the associated map pi.

Builds full and Lipschitz-normed vector-valued function systems on a small
planar point set, checks the six admissibility conditions, enumerates the
characters of the vector system as an abstract algebra, and confirms that
pi(psi, x) = psi o e_x hits every one of them (naturality), matching the
product count |M(E)| * |X|.
"""

import numpy as np

import shilov as sh


def main():
    rng = np.random.default_rng(7)
    coords = rng.uniform(-1, 1, 4) + 1j * rng.uniform(-1, 1, 4)
    X = sh.FiniteSpace(("p0", "p1", "p2", "p3"), coords)
    scalars = sh.complex_field()

    for E_name, constructor in [
        ("pointwise_2", "full"),
        ("dual_numbers", "full"),
        ("cyclic_group_3", "lipschitz"),
    ]:
        E = sh.preset_algebra(E_name)
        if constructor == "full":
            B, Bt = sh.make_CXE(X, scalars), sh.make_CXE(X, E)
        else:
            B, Bt = sh.make_lip(X, scalars, 0.5), sh.make_lip(X, E, 0.5)
        Q = sh.Quadruple(X, E, B, Bt, label=f"({E_name}, {constructor})")
        print(f"=== {Q.label} ===")

        report = sh.check_admissible(Q)
        for check in report.checks:
            print(f"  {'ok  ' if check.passed else 'FAIL'} {check.name}")

        pi = sh.build_pi(Q)
        algebra = pi[0].algebra  # B~ as an abstract algebra (as_algebra)
        print(f"  |M(E)| * |X| = {len(E.characters)} * {X.size} = {len(pi)}; "
              f"|M(B~)| = {len(algebra.characters)}")
        print(f"  pi injective: {sh.check_pi_injective(Q)}; "
              f"natural: {sh.check_natural(Q)}")

        if Bt.norm_tag == "lipschitz":
            M = sh.embedding_constant(Bt)
            print(f"  embedding constant (sup norm <= M * Lipschitz norm): M = {M:.4f}")
        print()

    # a failing quadruple: constants never separate points
    constants = sh.FunctionSystem(
        X, scalars, np.ones((1, X.size, 1), dtype=complex), label="constants"
    )
    Q_bad = sh.Quadruple(X, sh.preset_algebra("pointwise_2"), constants,
                         sh.make_CXE(X, sh.preset_algebra("pointwise_2")))
    report = sh.check_admissible(Q_bad)
    print("constants as the scalar system:")
    print(f"  natural condition passes: {report.check('scalar_system_natural').passed}"
          " (expected False)")


if __name__ == "__main__":
    main()
