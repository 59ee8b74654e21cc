"""Construct the invariant density for the Gaussian drift and check it.

The drift b = -x has the explicit stationary density exp(-|x|^2 / 2) up to
normalization. The script solves the discrete stationarity system, compares
against the closed form, and then splits the drift into its density part and
a divergence-free remainder.
"""

from fplab import (
    FeFunction,
    build_ball_mesh,
    decompose_drift,
    divergence_free_residual,
    interpolate,
    preset,
    quadrature_norm,
    solve_invariant_density,
)


def main():
    mesh = build_ball_mesh((0.0, 0.0), 1.0, levels=3)
    cs = preset("gaussian_gradient", 2)
    dens = solve_invariant_density(mesh, cs)

    print(f"mesh: {mesh.num_vertices} vertices, {mesh.num_elements} elements")
    print(f"density range: [{dens.rho_min:.6f}, {dens.rho_max:.6f}]")
    print(f"stationarity residual: {dens.residual:.3e} "
          f"(scale {dens.residual_scale:.3e})")

    # scale the closed form to the same unit-mean normalization
    vol = mesh.total_volume()
    mass = quadrature_norm(mesh, cs.reference_density, p=1.0)
    ref = interpolate(mesh, lambda x: (vol / mass) * cs.reference_density(x))
    gap = FeFunction(mesh=mesh, values=dens.rho.values - ref.values)
    rel = quadrature_norm(mesh, gap) / quadrature_norm(mesh, ref)
    print(f"relative L2 gap to exp(-|x|^2/2): {rel:.3e}")

    dec = decompose_drift(mesh, cs, dens)
    res = divergence_free_residual(mesh, dec)
    print(f"divergence-free remainder: max interior residual "
          f"{res['max_residual']:.3e} over {len(res['interior'])} test functions")
    print(f"quadratic defect of the decomposition: {res['quadratic_defect']:.4f}")

    # the rotator preset is already divergence-free against rho = 1,
    # so its decomposition returns the drift unchanged
    cs_rot = preset("rotator", 2)
    dens_rot = solve_invariant_density(mesh, cs_rot)
    dec_rot = decompose_drift(mesh, cs_rot, dens_rot)
    res_rot = divergence_free_residual(mesh, dec_rot)
    print(f"rotator preset: density range [{dens_rot.rho_min:.6f}, "
          f"{dens_rot.rho_max:.6f}], max residual {res_rot['max_residual']:.3e}")


if __name__ == "__main__":
    main()
