"""Run the cutoff energy experiment on the three-dimensional ball.

The pipeline: invariant density for the Gaussian drift, drift decomposition,
sectorial form, a smooth cutoff chi between radii 0.5 and 0.9, the constants
ledger, and finally the sweep over alpha. The localized energies
E(chi alpha G_alpha h) must stay below C1^2 + 2 C2 while alpha G_alpha h
converges back to h.
"""

from fplab import (
    assemble_form,
    build_ball_mesh,
    build_cutoff,
    compute_constants,
    convergence_diagnostics,
    decompose_drift,
    preset,
    run_experiment,
    solve_invariant_density,
)


def main():
    mesh = build_ball_mesh((0.0, 0.0, 0.0), 1.0, levels=2)
    cs = preset("gaussian_gradient", 3)
    dens = solve_invariant_density(mesh, cs)
    dec = decompose_drift(mesh, cs, dens)
    form = assemble_form(mesh, cs, dens, dec)
    cutoff = build_cutoff((0.0, 0.0, 0.0), 0.5, 0.9)

    # h_tilde = rho makes h = h_tilde / rho identically one
    h_tilde = dens.rho
    constants = compute_constants(cs, dens, cutoff, h_tilde)

    print("constants ledger:")
    print(f"  gamma = {constants.gamma:.4f}, K(d, rho) = {constants.k_d_rho:.4f}")
    for name in ("c1", "c2", "c3", "c4", "c5", "c6", "c7", "c8", "c9", "c10"):
        print(f"  {name} = {getattr(constants, name):.6f}")
    print(f"  C1 = {constants.big_c1:.6f}, C2 = {constants.big_c2:.6f}")
    print(f"  bound C1^2 + 2 C2 = {constants.bound:.4f}")
    c = constants
    exact = (
        c.big_c1 == c.c1 + 2.0 * c.c2 + c.c4 + c.c5 + c.c6 + c.c7 + 2.0 * c.c9
        and c.big_c2 == c.c3 + c.c8 + 2.0 * c.c10
        and c.bound == c.big_c1 ** 2 + 2.0 * c.big_c2
    )
    print(f"  recomposition from the small constants is exact: {exact}")
    if c.recovered:
        print(f"  finite-element recovered ingredients: {', '.join(c.recovered)}")
    print()

    alphas = [2.0 ** k for k in range(18)]
    report = run_experiment(form, cutoff, h_tilde, constants, alphas=alphas)

    print(" alpha        E(chi u)     ||alpha G_a h - h||")
    for alpha, energy, gap, _ in report.rows():
        print(f"{alpha:9.0f}  {energy:12.6f}  {gap:16.8f}")
    print()
    print(f"sup of the localized energies: {report.sup_energy:.4f}")
    print(f"margin under the bound: {report.margin:.4f}")

    diag = convergence_diagnostics(report)
    print(f"gap sequence monotone: {diag.l2_monotone}, "
          f"final/initial reduction {diag.l2_reduction:.2e}, "
          f"all diagnostics passed: {diag.passed}")


if __name__ == "__main__":
    main()
