"""Classical Cauchy solutions, the existence horizon, and front folding.

With u0 = -q^2 and H = p^2/2 every characteristic meets at t = 1/2, so no
classical solution extends past it; the guaranteed horizon
1 / (4 M (1 + Lip(du0))) = 1/12 is much earlier, and between the two the
transported front is still a graph and inverts to the exact solution.
"""

import numpy as np

from hjkam import classical_cauchy, free_model, propagate_front
from hjkam.errors import ExistenceHorizonExceeded

model = free_model()
qs = np.linspace(-1, 1, 401)
cauchy_data = (qs, -qs ** 2, -2 * qs)   # (q, u0, du0)
front_data = (qs, -2 * qs, -qs ** 2)    # (q, du0, u0)

print("== guaranteed horizon ==")
print("Lip(du0) = 2, M = 1  =>  T = 1/12 =", 1 / 12)
u, du = classical_cauchy(model, cauchy_data, 0.08, np.array([0.0, 0.3]))
print(f"t=0.08: u(0) = {u[0]:.9f}, u(0.3) = {u[1]:.9f} "
      f"(exact {-0.09 / (1 - 0.16):.9f})")
try:
    classical_cauchy(model, cauchy_data, 0.09, np.array([0.0]))
except ExistenceHorizonExceeded as exc:
    print(f"t=0.09 refused: {exc}")

print("\n== past the horizon, before the fold ==")
u, du = classical_cauchy(model, cauchy_data, 0.25, np.array([0.5]),
                         allow_past_horizon=True)
print(f"override at t=0.25: u(0.5) = {u[0]:.9f} (exact -q^2/(1-2t) = -0.5)")

print("\n== the fold at t = 1/2 ==")
for t in (0.45, 0.49, 0.5, 0.51):
    front = propagate_front(model, front_data, t)
    width = front.q.max() - front.q.min()
    print(f"t={t}: front width {width:.4f}, fold_flag={front.fold_flag}")
