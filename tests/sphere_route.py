"""The projector's radial profile as an average over a product sphere rule:
the route s_plus_green took before the profile became a sum over l = 0
oscillator shells, kept here as an independent reference.

weighted_profile returns, at the projector's own radial nodes, the weights
f_i with sum_i f_i K(r_i) the integral of the pair polynomial times
e^{-k.k} K(|k|) over momentum, as dirac._shell_profile does.  Here the
spherical average is taken by a product rule exact for the pair's degree
(sphere_rule), walked in blocks of about BLOCK points, so memory does not
grow with the order.  Its cost grows like D^3 times the order: about
D^2/16 directions, D radial nodes and the basis recurrence to the order
at every point.
"""

import math

import numpy as np

from hermgrid import dirac
from hermgrid.hermite import phi_at
from hermgrid.quadrature import gauss_legendre

BLOCK = 2 ** 18


def sphere_rule(degree: int, equator: int) -> tuple[np.ndarray, ...]:
    """Product rule over the unit sphere for polynomials even in each axis,
    of degree <= degree in all and <= equator in the two equatorial axes.

    Returns the polar nodes u = cos(theta) >= 0, sin(theta), the weights and
    the azimuth cosines c_j.  The integral of f over the whole sphere is
    sum_t w_t sum_j f(s_t c_j, s_t c_{M-1-j}, u_t), exact for such f:
    Gauss-Legendre in u with degree//2 + 1 nodes, folded onto u >= 0 by
    parity (a node at 0 counted once), and the midpoint rule in the azimuth
    on [0, pi/2] with M = equator//4 + 1 points.  The latter is the
    4M-point rule over the circle folded by parity, and an integrand even in
    both equatorial axes carries only the harmonics cos(2 l phi) with
    2 l <= equator < 4M, which it integrates exactly.
    """
    u, wu = gauss_legendre(degree // 2 + 1)
    half = u >= 0
    u, wu = u[half], np.where(u[half] > 0, 2.0 * wu[half], wu[half])
    m = equator // 4 + 1
    c = np.cos((np.arange(m) + 0.5) * (math.pi / (2 * m)))
    return u, np.sqrt((1.0 - u) * (1.0 + u)), wu * (2.0 * math.pi / m), c


def radial_profile(n, nhat, odd, r: np.ndarray, block: int = BLOCK) -> np.ndarray:
    """At each radius r_i, the integral over the unit sphere of the
    basis-pair polynomial prod_a phi_{n_a} phi_{nhat_a}(k_a), times k_a for
    the axis a in odd (at most one), at k = r_i times the direction.

    The axis of the highest degree is the polar one, so that a pair that
    excites one axis alone needs a single azimuth."""
    deg = [n[a] + nhat[a] + (a in odd) for a in range(3)]
    pole = deg.index(max(deg))
    eq = [a for a in range(3) if a != pole]
    u, s, w, c = sphere_rule(sum(deg), sum(deg) - deg[pole])
    cs = np.stack([c, c[::-1]])
    mb = min(c.size, max(1, block // (2 * r.size)))
    tb = max(1, block // (2 * r.size * mb))
    profile = np.zeros(r.size)
    for t in (slice(i, i + tb) for i in range(0, u.size, tb)):
        z = r[:, None] * u[t]
        rows = phi_at((n[pole], nhat[pole]), z)
        polar = rows[n[pole]] * rows[nhat[pole]]
        if pole in odd:
            polar *= z
        rs = (r[:, None] * s[t])[:, :, None, None]
        ring = 0.0
        for j in range(0, c.size, mb):
            # equatorial coordinates, indexed (radius, polar node, axis, azimuth)
            k = rs * cs[:, j:j + mb]
            rows = phi_at([n[a] for a in eq] + [nhat[a] for a in eq], k)
            q = (rows[n[eq[0]]][:, :, 0] * rows[nhat[eq[0]]][:, :, 0]
                 * (rows[n[eq[1]]][:, :, 1] * rows[nhat[eq[1]]][:, :, 1]))
            if odd and odd[0] != pole:
                q *= k[:, :, eq.index(odd[0])]
            ring = ring + q.sum(axis=-1)
        profile += (ring * polar) @ w[t]
    return profile


def weighted_profile(n, nhat, odd, n_nodes: int, block: int = BLOCK) -> tuple[np.ndarray, np.ndarray]:
    """(r, f) on the projector's n_nodes-point radial rule: the sphere
    average times the radial weights and e^{-r^2}."""
    r, w, gauss, exponent = dirac._radial_rule(n_nodes, sum(n) + sum(nhat))
    return r, w * np.ldexp(gauss, -exponent) * radial_profile(n, nhat, odd, r, block)
