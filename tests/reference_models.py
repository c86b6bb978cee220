"""Reference models the tests compare the package against.

Not a test module (pytest does not collect it); tests import it by name. The
package itself never calls these: it builds every plant matrix in closed form
and runs no fixed-point solve.
"""

import numpy as np

from spikecontrol import LinearSystem, SmdParams


def linearize(f, x_eq, u_eq, h: float = 1e-6):
    """Jacobians (A, B) of f(x, u) at an equilibrium, by central differences.

    Args:
        f: callable (x, u) -> state rate.
        x_eq, u_eq: the equilibrium to linearize around; f(x_eq, u_eq) must
            vanish (norm below 1e-6).
        h: finite-difference step.

    Raises:
        ValueError: if (x_eq, u_eq) is not an equilibrium.
    """
    x_eq = np.asarray(x_eq, dtype=float)
    u_eq = np.atleast_1d(np.asarray(u_eq, dtype=float))
    residual = np.linalg.norm(f(x_eq, u_eq))
    if residual > 1e-6:
        raise ValueError(f"not an equilibrium: f(x_eq, u_eq) has norm {residual:.3e}")
    n, p = x_eq.size, u_eq.size
    A = np.empty((n, n))
    for j in range(n):
        dx = np.zeros(n)
        dx[j] = h
        A[:, j] = (f(x_eq + dx, u_eq) - f(x_eq - dx, u_eq)) / (2 * h)
    B = np.empty((n, p))
    for j in range(p):
        du = np.zeros(p)
        du[j] = h
        B[:, j] = (f(x_eq, u_eq + du) - f(x_eq, u_eq - du)) / (2 * h)
    return A, B


def smd_dynamics(p: SmdParams, x, u):
    """State rate for state x = (position, velocity) and scalar force u."""
    u = float(np.asarray(u).reshape(-1)[0]) if np.ndim(u) else float(u)
    return np.array([x[1], (-p.k * x[0] - p.c * x[1] + u) / p.m])


def closed_loop_steady_state(model: LinearSystem, lqr_gain, z) -> np.ndarray:
    """Fixed point of x' = Ax + Bu with u = -K_c(x - z) (state feedback).

    The regulator does not track position references exactly: the fixed point
    solves (A - B K_c) x_ss = -B K_c z, which generally leaves an offset.
    """
    Kc = np.atleast_2d(lqr_gain)
    z = np.atleast_1d(np.asarray(z, dtype=float))
    BKc = model.B @ Kc
    return np.linalg.solve(model.A - BKc, -BKc @ z)
