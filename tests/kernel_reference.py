"""Test helper: the reproducing property, the reference for reproducing_kernel.

The kernel command writes reproducing_kernel's coefficients and values; these
functions check what they are for.  kernel_to_analytic realizes a kernel as
the conjugate pair it is, and reproducing_residual pairs a conjugate pair
against the kernel of I through haar_coefficient, one Haar coefficient
<f, h_J> of a tree, so a residual near zero means the kernel recovers the
pair's average on I.
"""
import math

from dyuch.dyadic import UNIT, DyadicInterval, window_root
from dyuch.kernel import reproducing_kernel
from dyuch.martingale import DyadicAnalytic


def haar_coefficient(pc, J):
    """Single Haar coefficient <f, h_J> as a double."""
    minus, plus = J.halves()
    half_diff = (float(pc.average(plus)) - float(pc.average(minus))) / 2.0
    return half_diff * math.sqrt(2.0 ** (-J.level))


def kernel_to_analytic(k):
    """Realize a kernel as the conjugate pair it is."""
    I = k.interval
    root = DyadicInterval(0, 0) if I.base == UNIT else window_root(I.ancestor_levels)
    depth = I.level - root.level
    u_leaves, v_leaves = [], []
    for j in range(1 << depth):
        z = k.evaluate(root.descendant(depth, j))
        u_leaves.append(z.real)
        v_leaves.append(z.imag)
    return DyadicAnalytic.from_leaves(u_leaves, v_leaves, root)


def reproducing_residual(f, I, height):
    """Distance between the kernel pairing and the averaged value at I.

    Zero (to rounding) whenever f is a conjugate pair on the base tree whose
    jump coefficients above I all sit within `height` odd ancestors.
    """
    if not f.root.is_root:
        raise ValueError("the pairing needs a function on the full base tree")
    k = reproducing_kernel(I, height)
    re = k.constant * float(f.u.root_average)
    im = k.constant * float(f.v.root_average)
    for J, c in k.real_coeffs.items():
        re += c * haar_coefficient(f.u, J)
        im += c * haar_coefficient(f.v, J)
    for J, c in k.imag_coeffs.items():
        re += c * haar_coefficient(f.v, J)
        im -= c * haar_coefficient(f.u, J)
    return abs(complex(re, im) - f.average(I))
