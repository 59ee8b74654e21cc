"""Assemble the sectorial form and exercise the resolvent family.

Covers the contraction property alpha ||G_alpha f|| <= ||f||, the resolvent
identity, one Resolvent factor reused for several data vectors, the
sub-Markov range of alpha G_alpha 1, strong continuity as alpha grows, and
the principal Dirichlet eigenvalue of the disk against the Bessel root j_01.
"""

import numpy as np

from fplab import (
    Resolvent,
    assemble_form,
    build_ball_mesh,
    check_contraction,
    check_resolvent_identity,
    check_submarkov,
    decompose_drift,
    first_dirichlet_eigenpair,
    interpolate,
    preset,
    sector_constant,
    solve_invariant_density,
    solve_resolvent,
    strong_continuity_gaps,
    theoretical_sector_bound,
)

mesh = build_ball_mesh((0.0, 0.0), 1.0, levels=2)
cs = preset("gaussian_gradient", 2)
dens = solve_invariant_density(mesh, cs)
dec = decompose_drift(mesh, cs, dens)
form = assemble_form(mesh, cs, dens, dec, d_mode="skew")

print("contraction across alpha in {1, 10, 100, 1000}:")
rep = check_contraction(form, trials=5, seed=0)
worst = {}
for alpha, _, ratio in rep.rows:
    worst[alpha] = max(worst.get(alpha, 0.0), ratio)
for alpha, ratio in sorted(worst.items()):
    print(f"  alpha {alpha:7.1f}: worst alpha||G_a f|| / ||f|| = {ratio:.12f}")
print(f"  max ratio {rep.max_ratio:.12f} (must not exceed 1)")

data = interpolate(mesh, lambda x: np.cos(x[..., 0]))
ident = check_resolvent_identity(form, 1.0, 10.0, data)
print(f"resolvent identity defect at (1, 10): {ident.relative_defect:.3e}")

print("one factorization of 10 M + S + D, reused for several data:")
res = Resolvent(form)
for label, fn in (
    ("cos x0", lambda x: np.cos(x[..., 0])),
    ("x0 x1", lambda x: x[..., 0] * x[..., 1]),
    ("1 - |x|^2", lambda x: 1.0 - (x * x).sum(axis=-1)),
):
    g = interpolate(mesh, fn)
    u = solve_resolvent(res, 10.0, g)
    ratio = 10.0 * form.l2_norm(u.values) / form.l2_norm(g.values)
    print(f"  {label:>9}: ||10 G_10 g|| / ||g|| = {ratio:.6f}, "
          f"residual {res.residual:.1e}")

sub = check_submarkov(form, alpha=10.0)
print(f"sub-Markov range of alpha G_alpha 1: "
      f"[{sub.min_value:.2e}, {sub.max_value:.10f}]")

f = interpolate(mesh, lambda x: 1.0 - x[..., 0] ** 2 - x[..., 1] ** 2)
cont = strong_continuity_gaps(form, f)
print("strong continuity, ||alpha G_alpha f - f|| by alpha:")
for alpha, gap in zip(cont.alphas[::4], cont.gaps[::4]):
    print(f"  alpha {alpha:7.1f}: {gap:.6f}")
print(f"  monotone decreasing: {cont.monotone}")

sec = sector_constant(form, cs, dens, dec, trials=64, seed=0)
bound = theoretical_sector_bound(cs, dens, dec, mesh) if mesh.dim == 3 else None
print(f"sector constant: empirical {sec.empirical:.4f} over {sec.trials} pairs")
if bound is not None:
    print(f"  closed-form bound {bound:.4f}")

# eigenvalue oracle needs the unweighted Laplacian, so rebuild with a = I
cs_id = preset("identity", 2)
dens_id = solve_invariant_density(mesh, cs_id)
dec_id = decompose_drift(mesh, cs_id, dens_id)
form_id = assemble_form(mesh, cs_id, dens_id, dec_id)
lam, psi = first_dirichlet_eigenpair(form_id)
j01 = 2.404825557695773
print(f"principal eigenvalue {lam:.6f} vs j_01^2 = {j01 ** 2:.6f} "
      f"(conforming elements approximate from above)")
