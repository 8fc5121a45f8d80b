"""The short-time generating function and its derivative identities.

For kinetic Hamiltonians the two-point action has the Hopf-Lax closed
form; in general its endpoint gradients are the boundary momenta of the
connecting orbit, which is what makes S a generating function of the flow.
"""

import numpy as np

from hjkam import (free_model, generating_S, integrate_flow, pendulum_model,
                   quadratic_model, second_diff_probe)

SIGMA = 0.2  # certified pendulum window (see demo 01)

print("== Hopf-Lax closed form ==")
for a in (0.5, 1.0, 2.0):
    model = quadratic_model(a)
    s = generating_S(model, 0.0, 0.1, [0.0], [0.5], sigma_eff=1.0 / (4 * a))
    print(f"a={a}: S^0.1(0, 0.5) = {s.S:.12f}  vs  |dq|^2/(2 t a) = "
          f"{0.25 / (0.2 * a):.12f}")

print("\n== derivative identities on the pendulum ==")
model = pendulum_model()
t, q0, q1 = 0.15, np.array([0.2]), np.array([0.55])
s = generating_S(model, 0.0, t, q0, q1, sigma_eff=SIGMA)
h = 1e-6
fd1 = (generating_S(model, 0, t, q0, q1 + h, sigma_eff=SIGMA).S
       - generating_S(model, 0, t, q0, q1 - h, sigma_eff=SIGMA).S) / (2 * h)
fd0 = (generating_S(model, 0, t, q0 + h, q1, sigma_eff=SIGMA).S
       - generating_S(model, 0, t, q0 - h, q1, sigma_eff=SIGMA).S) / (2 * h)
print(f"fd dS/dq1 = {fd1:.9f}   rho1 = {s.rho1[0]:.9f}")
print(f"fd dS/dq0 = {fd0:.9f}  -rho0 = {-s.rho0[0]:.9f}")

print("\n== S generates the flow ==")
orbit = integrate_flow(model, (q0, s.rho0), 0.0, t, step=1e-3)
print(f"flowing (q0, -d0 S) lands at q={orbit.terminal.q[0]:.9f} "
      f"(target {q1[0]}), p={orbit.terminal.p[0]:.9f} (rho1 {s.rho1[0]:.9f})")

print("\n== curvature of S ==")
d00, d11, d01 = second_diff_probe(free_model(), 0.0, 0.25, [0.1], [0.6])
print(f"free model at t=0.25: d00={d00:.6f}, d11={d11:.6f}, d01={d01:.6f} "
      "(exactly 1/t, 1/t, -1/t)")
