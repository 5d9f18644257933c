"""Solving the CMC lapse equation and checking the maximum-principle bounds."""

import numpy as np

from cmclab import GENERIC, GridSpec, lapse_bound_margins, perturb, solve_lapse
from cmclab.evolution import kasner_initial_data


def main():
    # Homogeneous data: the zero-order coefficient |K|^2 is constant, so
    # the solution is the constant 1/|K|^2 and the solver returns it
    # without iterating.
    grid = GridSpec.cubic(16)
    s = kasner_initial_data(GENERIC, -0.8, grid)
    n, report = solve_lapse(s.g, s.K)
    print("constant-coefficient solve:")
    print(f"  iterations = {report.iterations}, "
          f"residual = {report.residual_history[-1]:.2e}")
    print(f"  sup |N - 1/|K|^2| = "
          f"{float(np.max(np.abs(n.values - n.values.flat[0]))):.2e}")

    # Perturbed data has genuinely varying coefficients, so conjugate
    # gradients actually iterates.  Its preconditioner inverts the
    # operator with the coefficients' grid means exactly (by FFT), so only
    # the small variation about those means is left to iterate on: a
    # handful of iterations, whatever the grid size.
    base = kasner_initial_data(GENERIC, -0.8, grid)
    s, _ = perturb(base, 1e-2, seed=3)
    n, report = solve_lapse(s.g, s.K, tol=1e-11)
    print("\nperturbed-data solve:")
    print(f"  converged = {report.converged} after {report.iterations} "
          f"iterations (final residual {report.final_residual:.1e})")
    tail = ", ".join(f"{r:.1e}" for r in report.residual_history[-4:])
    print(f"  last residuals: {tail}")

    # The maximum principle pins N between 1/sup|K|^2 and 3/(tr K)^2.
    low, high = lapse_bound_margins(n, s.K, s.g)
    print(f"  lapse range: [{float(np.min(n.values)):.6f}, "
          f"{float(np.max(n.values)):.6f}]")
    print(f"  bound margins: lower {low:+.3e}, upper {high:+.3e} "
          f"(negative would violate)")


if __name__ == "__main__":
    main()
