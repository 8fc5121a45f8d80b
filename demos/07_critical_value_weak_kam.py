"""Critical value and weak KAM solutions for mechanical models.

On the grid the Lax-Oleinik operator is min-plus linear, so iterating it
from zero makes the increment T^t v - v constant after a few steps: that
constant is -alpha t, and for mechanical Hamiltonians alpha equals max V.
The same iteration of T^t u + t alpha from a sub-solution seed stops at a
min-plus eigenvector, the weak KAM solution, which for the pendulum matches
the quadrature of u' = sqrt(2 (alpha - V)) glued at its single downward kink.
"""

import numpy as np

from hjkam import critical_value, mechanical_model, pendulum_model, weak_kam_solve
from hjkam.weakkam import fixed_point_residual

SIGMA = 0.2

print("== critical values ==")
for coeffs, exact, label in (([0.0, 1.0], 1.0, "pendulum (max V = 1)"),
                             ([0.2, 0.3], 0.5, "0.3 cos + 0.2 (max V = 0.5)")):
    model = mechanical_model(coeffs, m=1.0)
    res = critical_value(model, grid_n=128, t_step=0.2, t_max=8.0, sigma_eff=SIGMA)
    print(f"{label}: alpha = {res.alpha:.10f} (error {abs(res.alpha - exact):.1e})")

print("\n== weak KAM solution of the pendulum ==")
model = pendulum_model()
res = weak_kam_solve(model, grid_n=128, alpha=1.0, t_step=0.1, sigma_eff=SIGMA)
q = res.u.nodes
closed = np.where(q <= 0.5, (2 / np.pi) * (1 - np.cos(np.pi * q)),
                  (2 / np.pi) * (1 + np.cos(np.pi * q)))
closed -= closed.min()
print(f"fixed-point residual at t=0.1: {res.residual:.2e}")
print(f"residual at the doubled probe: "
      f"{fixed_point_residual(model, res.u, 1.0, 0.2, sigma_eff=SIGMA):.2e}")
print(f"sup distance to the closed form (2/pi)(1 -+ cos(pi q)): "
      f"{np.max(np.abs(res.u.values - closed)):.2e}")
print(f"the solution climbs from the Aubry point u(0) = {res.u.values[0]:.2e} "
      f"to its kink at q = 1/2: u(1/2) = {res.u.values[64]:.6f} "
      f"(2/pi = {2 / np.pi:.6f})")
