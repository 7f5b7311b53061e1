"""Characters, radicals and semisimple quotients of structure-constant algebras.

Walks the preset algebras through validation, character search, Gelfand
transforms and the radical/quotient decomposition, printing what the theory
predicts next to what the solver finds.
"""

import numpy as np

import shilov as sh

PRESETS = ["pointwise_2", "pointwise_3", "dual_numbers", "truncated_poly_3", "cyclic_group_3"]


def main():
    for name in PRESETS:
        E = sh.preset_algebra(name)
        print(f"=== {name} (dim {E.dim}) ===")
        report = sh.validate_algebra(E)
        print(f"  axioms: {'all pass' if report.passed else report}")

        chars = E.characters
        print(f"  characters ({len(chars)}):")
        for chi in chars:
            values = ", ".join(f"{z:.3f}" for z in chi.values)
            print(f"    {chi.label}: [{values}]")

        rad = sh.radical(E)
        print(f"  radical dimension: {len(rad)}  (dim = |M(E)| + dim radical: "
              f"{E.dim} = {len(chars)} + {len(rad)})")
        quotient, proj = sh.semisimple_quotient(E)
        print(f"  semisimple quotient: {quotient.label} of dim {quotient.dim}")

        # a couple of transforms
        a = E.element(np.arange(1, E.dim + 1, dtype=float))
        print(f"  sample element a = {np.arange(1, E.dim + 1)}:")
        print(f"    a-hat = {np.round(sh.gelfand_transform(E, a), 4)}")
        print(f"    sup |a-hat| = {sh.gelfand_norm(E, a):.4f} "
              f"<= ||a|| = {sh.norm(E, a):.4f}")
        print()

    # inversion in the dual numbers: (1 + eps)^-1 = 1 - eps
    D = sh.preset_algebra("dual_numbers")
    a = D.element([1, 1])
    print("dual numbers: (1 + eps)^-1 =", np.round(sh.invert(D, a).coords, 10))
    try:
        sh.invert(D, D.basis_element(1))
    except sh.NotInvertibleError as exc:
        print("dual numbers: eps is not invertible ->", exc)


if __name__ == "__main__":
    main()
