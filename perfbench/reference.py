"""A fixed numpy yardstick timed beside the program's operations.

The benchmark shares a small host whose speed swings by up to ~1.7x
over seconds to minutes, as neighbours load the memory system; a wall
time taken over 30 s lands on whichever speed held during the run.  So
right before and right after each timed operation the benchmark times
this kernel, which is the benchmark's own code and never changes with
the program, and reports the operation's time as a multiple of the
kernel's.  Both slow down together, so the ratio keeps what the program
does and drops most of what the host does.

The kernel does two kinds of work the program's operations do on an
n^3 grid, written here from the formulas: a connection computation
(4th-order periodic differences of a symmetric 3x3 field along the three
axes, the Christoffel combination of them, a batched 3x3 inverse and a
contraction), and sweeps of the elliptic operator -d_a(c^ab d_b u) + u/2
on a scalar field, which is what each CG iteration of a lapse solve
applies.  The first is memory-bound on arrays of 9 and 27 components,
the second works on scalar arrays and many small numpy calls; each part
alone followed some operations well and others less (the connection
part the RK4 steps of a lapse-heavy evolution least), and their sum
followed all three workloads' operations best.  Like the program, the
kernel allocates its arrays afresh on every run.  A variant writing
into preallocated arrays ran 3x faster, so most of its time goes to
fresh memory, and its ratio to the same RK4 steps varied about twice as
much within a run.
"""

from __future__ import annotations

import time

import numpy as np

SEED = 20030717  # fixed: the yardstick is the same for every workload seed
# Operator sweeps per kernel run: the two parts take about 0.11 s and
# 0.03 s on 32^3, 14 ms and 6 ms on 16^3.
SWEEPS = 8


def _inputs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """A metric-like symmetric 3x3 field near the identity, and a scalar field."""
    rng = np.random.default_rng(SEED)
    noise = 0.01 * rng.standard_normal((n, n, n, 3, 3))
    return np.eye(3) + 0.5 * (noise + np.swapaxes(noise, -1, -2)), rng.standard_normal((n, n, n))


def _diff(values: np.ndarray, axis: int) -> np.ndarray:
    """4th-order periodic centred difference at unit spacing."""
    return (8.0 * (np.roll(values, -1, axis) - np.roll(values, 1, axis))
            - (np.roll(values, -2, axis) - np.roll(values, 2, axis))) / 12.0


def kernel(g: np.ndarray, u: np.ndarray) -> float:
    dg = np.stack([_diff(g, axis) for axis in range(3)], axis=-3)
    lower = np.transpose(dg, (0, 1, 2, 4, 3, 5)) + np.transpose(dg, (0, 1, 2, 5, 4, 3)) - dg
    inverse = np.linalg.inv(g)
    total = float(np.einsum("...ad,...dbc->...abc", inverse, lower).sum())
    for _ in range(SWEEPS):
        du = [_diff(u, b) for b in range(3)]
        out = 0.5 * u
        for a in range(3):
            out = out - _diff(sum(g[..., a, b] * du[b] for b in range(3)), a)
        total += float(np.sum(u * out))
    return total


class Reference:
    """Times runs of the kernel on an n^3 grid, `repeats` at a time."""

    def __init__(self, n: int, repeats: int):
        self.g, self.u = _inputs(n)
        self.repeats = repeats
        self.value = kernel(self.g, self.u)  # warm-up, and the value every run must give

    def times(self) -> list[float]:
        """Seconds of each of `repeats` kernel runs."""
        out = []
        for _ in range(self.repeats):
            start = time.perf_counter()
            value = kernel(self.g, self.u)
            out.append(time.perf_counter() - start)
            if value != self.value:
                raise AssertionError(f"reference kernel gave {value!r}, not {self.value!r}")
        return out
