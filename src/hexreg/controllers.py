"""Names of the control laws.

The laws themselves are defined once, in kernels.closed_loop_rk4, for one
trajectory and for a batch alike; the integer codes below are what the
kernel dispatches on.  Every law issues u = u_ss + phi and the plant
applies sat(u).

Laws
----
forwarding        phi = -(B (x - x_ss) + g_ss)^T [k_p P (x - x_ss)
                        - k_i (z - M (x - x_ss)) M^T], with g_ss = B x_ss + b
output_feedback   same formula evaluated on the observer estimate, which obeys
                  dxhat/dt = A xhat + (B xhat + b) sat(u) + L (y - D xhat) + E
integral_only     phi = sign_dc * k_i * z  (sign_dc = sgn(C F^-1 g); this
                  direction makes the slow output loop contract, since the
                  steady output slope is -C F^-1 g)
pi                phi = -(kp_pi e + ki_pi z); gains are signed, so plants
                  with a negative input-to-output DC gain take negative
                  gains for a stabilizing loop

Every law integrates dz/dt = e.
"""

from __future__ import annotations

__all__ = [
    "FORWARDING",
    "OUTPUT_FEEDBACK",
    "INTEGRAL_ONLY",
    "PI",
    "LAW_CODES",
]

FORWARDING = "forwarding"
OUTPUT_FEEDBACK = "output_feedback"
INTEGRAL_ONLY = "integral_only"
PI = "pi"
LAW_CODES = {FORWARDING: 0, OUTPUT_FEEDBACK: 1, INTEGRAL_ONLY: 2, PI: 3}
