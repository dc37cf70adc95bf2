"""Built-in scenarios: concrete actions, bundles, families, kernels, and
theta data ready for the property suite and the CLI.

Finite scenarios
----------------
  cyclic(n)         rotation group acting on itself; free and transitive.
  dihedral(n)       dihedral group on the n vertices of a polygon;
                    2-element stabilizers; optional sign bundle.
  torus(N)          Z_N x Z_N acting on Z_N by (g1, g2).b = g1 + g2 + b;
                    N-element stabilizers {(k, -k)}.
  torus-bands(N)    the torus action with the second coordinate scaled by
                    a band spacing s, (g1, g2).b = g1 + s*g2 + b, carrying
                    a three-band kernel and two competing theta maps.
  circle-grid(n)    the circle discretized to n points with quadrature
                    weight 2*pi/n; equivariance is exact for grid-aligned
                    rotations, and off-grid rotations are reported only.

Grid quadrature
---------------
  line-grid(units, dx) discretizes the line with a window of `units`
  length units and grid step dx.  The window is emulated on a wrap large
  enough that the compactly supported data never reaches the seam, so the
  wrapped computation coincides with the truncated one exactly while
  group axioms stay exactly true.  Its kernel has sharp band edges
  deliberately misaligned with every grid level, so the residual against
  the continuous transform is genuinely first order in dx.

Assembly
--------
  Every builder checks its parameters, builds its action and passes it to
  `_assemble`, which adds the bundle (the trivial line bundle unless the
  builder passes another), the counting or psi-normalized family triple
  and the Dirac delta of the stabilizer family.  cyclic, dihedral and
  torus then draw a seeded random filter and kernel
  (`_attach_default_data`).  torus-bands and line-grid tabulate a kernel
  of the signed displacement c - b (`_displacement_kernel`, which the
  degeneracy demo shares); circle-grid tabulates its filter.  Every
  theta but torus-bands' special one is the action's coset-representative
  table on the kernel's support (`_coset_theta`).

Elements of product groups are packed with the first coordinate cycling
fastest: (a, b) has index b*|A| + a.  Scenario randomness (the filter and
kernel of cyclic, dihedral and torus) comes from the seeded generator with
fixed salts, so two builds of the same scenario are identical.
"""

from __future__ import annotations

import inspect
import math
import re
import sys

import numpy as np

from .bundles import EquivariantBundle, sign_bundle, trivial_bundle
from .errors import DomainError
from .groups import INDEX_DTYPE, GroupAction, _check_budget, _check_order, cyclic_group, dihedral_group, direct_product
from .measures import (
    construct_normalized_families,
    counting_family,
    counting_stabilizer_family,
    dirac_delta,
    psi_indicator_identity,
    solve_orbit_family,
)
from .reporting import _count, _local
from .rng import SplitMix64
from .sampling import random_valid_filter, random_valid_kernel
from .serialize import Scenario
from .transforms import Kernel, ThetaMap, lift_kernel_to_filter
from .xcorr import Filter, correlate_sections

_FILTER_SALT = 0x46494C54
_KERNEL_SALT = 0x4B45524E


def _assemble(
    name: str,
    params: dict,
    action: GroupAction,
    families: str,
    bundle: EquivariantBundle | None = None,
    scale: float = 1.0,
) -> Scenario:
    """The scenario every builder starts from: `bundle` (the trivial line
    bundle by default) as both input and output, the family triple of kind
    `families`, and the Dirac delta of its stabilizer family.  A counting
    group family weighs each element by `scale`, a quadrature step; the
    psi-normalized families carry their own weights, and psi travels along."""
    bundle = trivial_bundle(action, 1) if bundle is None else bundle
    psi = None
    if families == "counting":
        mu = counting_family(action, scale)
        nu = counting_stabilizer_family(action, 1.0)
        mubar = solve_orbit_family(mu, nu)
    elif families == "normalized-psi":
        psi = psi_indicator_identity(action)
        mu, nu, mubar = construct_normalized_families(psi)
    else:
        raise DomainError(f"unknown family kind {families!r}; use 'counting' or 'normalized-psi'")
    return Scenario(name, params, action, bundle, bundle, mu, nu, mubar, psi, delta=dirac_delta(nu))


def _signed_mod(x: np.ndarray | int, n: int):
    """Wrap to the signed window [-n/2, n/2)."""
    return (np.asarray(x) + n // 2) % n - n // 2


def _displacement_kernel(scn: Scenario, profile) -> Kernel:
    """The kernel kappa(c, b) = profile(d) on the scenario's line bundles,
    d the signed displacement c - b on Z_n, n the base size."""
    n = scn.action.base_size
    d = _signed_mod(np.arange(n)[:, None] - np.arange(n)[None, :], n)  # [c, b]
    return Kernel(scn.input_bundle, scn.output_bundle, profile(d)[:, :, None, None])


def _coset_theta(action: GroupAction, support: np.ndarray | None = None) -> ThetaMap:
    """The built-ins' theta: theta(c, b) = k_c, the smallest k with k.b = c
    (`action.coset_reps`), on the support (default: every same-orbit pair).

    It meets the section law k_c.b = c by definition, and on every built-in
    the translation law g theta(c, b) = theta(g.c, g.b) g as well:

      * abelian groups (cyclic, torus, torus-bands, circle-grid, line-grid):
        k.(g.b) = g.c exactly when k.b = c, so the smallest mover from g.b
        to g.c is the same k, and g k g^-1 = k;
      * the dihedral vertex action: rotations have the smaller indices, so
        the smallest mover is the rotation r_{c-b}.  A rotation g leaves it
        unchanged and moves g.c - g.b = c - b; a reflection g inverts it
        to r_{b-c} and negates g.c - g.b = b - c.

    A scenario file's theta stays data: the theta rows of every report
    check it.
    """
    reps = action.coset_reps.T
    return ThetaMap(action, reps if support is None else np.where(support, reps, -1))


# ---------------------------------------------------------------------------
# finite scenario builders


def _attach_default_data(scn: Scenario, seed: int) -> Scenario:
    """Deterministic random filter and kernel, and the coset theta as `derived`."""
    scn.filt = random_valid_filter(scn.input_bundle, scn.output_bundle, SplitMix64(seed ^ _FILTER_SALT))
    scn.kernel = random_valid_kernel(scn.input_bundle, scn.output_bundle, SplitMix64(seed ^ _KERNEL_SALT))
    scn.thetas["derived"] = _coset_theta(scn.action)
    return scn


def _circle_budget(order: int, n: int) -> None:
    """Raise DomainError before a group of `order` elements acting on Z_n,
    or anything of its action, is built: the group's order, then the
    action's (n, n) coset-representative and (order, n) action tables."""
    _check_order(order)
    _check_budget(f"a ({n}, {n}) coset-representative table", n * n)
    _check_budget(f"a ({order}, {n}) action table", order * n)


def _circle_table(op: np.ufunc, shift: np.ndarray, n: int) -> np.ndarray:
    """[g, b] -> op(shift[g], b) mod n over b in Z_n, formed in INDEX_DTYPE
    in place: both terms lie in [0, n), and the budget of the action's
    (n, n) coset-representative table (_circle_budget) keeps n <= 2^13, so
    the sum or difference stays inside it."""
    table = op.outer(shift % n, np.arange(n), dtype=INDEX_DTYPE)
    table %= n
    return table


def cyclic_action(n: int) -> GroupAction:
    """Z_n acting on itself by translation, g.b = g + b."""
    _circle_budget(n, n)
    return GroupAction(cyclic_group(n), tuple(str(b) for b in range(n)), _circle_table(np.add, np.arange(n), n))


def build_cyclic(n: int, families: str = "counting", seed: int = 0) -> Scenario:
    """Z_n acting on itself by translation."""
    if n < 1:
        raise DomainError("cyclic scenario needs n >= 1")
    scn = _assemble(f"cyclic({n})", {"n": n, "families": families}, cyclic_action(n), families)
    return _attach_default_data(scn, seed)


def dihedral_vertex_action(n: int) -> GroupAction:
    """Dihedral group on polygon vertices: rotations add, reflections negate."""
    _circle_budget(2 * n, n)
    grp = dihedral_group(n)
    table = np.concatenate([_circle_table(op, np.arange(n), n) for op in (np.add, np.subtract)])
    return GroupAction(grp, tuple(f"v{v}" for v in range(n)), table)


def build_dihedral(n: int, bundle: str = "trivial", families: str = "counting", seed: int = 0) -> Scenario:
    """Dihedral group on n vertices; each vertex has a 2-element stabilizer."""
    if n < 1:
        raise DomainError("dihedral scenario needs n >= 1")
    action = dihedral_vertex_action(n)
    if bundle not in ("trivial", "sign"):
        raise DomainError(f"unknown dihedral bundle {bundle!r}; use 'trivial' or 'sign'")
    e_bundle = sign_bundle(action, np.concatenate([np.ones(n), -np.ones(n)])) if bundle == "sign" else None
    params = {"n": n, "bundle": bundle, "families": families}
    return _attach_default_data(_assemble(f"dihedral({n})", params, action, families, e_bundle), seed)


def torus_action(n: int, spacing: int, offsets: int) -> GroupAction:
    """Z_N x Z_K acting on Z_N by (g1, g2).b = g1 + spacing*g2 + b, with K =
    `offsets`."""
    _circle_budget(n * offsets, n)
    grp = direct_product(cyclic_group(n), cyclic_group(offsets))
    shift = np.tile(np.arange(n), offsets) + spacing * np.repeat(np.arange(offsets), n)  # g1 + spacing*g2
    return GroupAction(grp, tuple(str(b) for b in range(n)), _circle_table(np.add, shift, n))


def build_torus(n: int, families: str = "counting", seed: int = 0) -> Scenario:
    """The plain finite torus: stabilizer of every b is {(k, -k)}."""
    if n < 1:
        raise DomainError("torus scenario needs n >= 1")
    scn = _assemble(f"torus({n})", {"n": n, "families": families}, torus_action(n, 1, n), families)
    return _attach_default_data(scn, seed)


def build_torus_bands(
    n: int, spacing: int | None = None, eps_steps: int = 1, families: str = "normalized-psi"
) -> Scenario:
    """Finite analogue of the banded line kernel on a scaled torus action.

    The kernel is supported, per base point, on three bands of half-width
    eps_steps around displacements -spacing, 0, +spacing; two theta maps
    cover it:

      * theta_global(c, b) = (c - b, 0), support three segments;
      * theta_special(c, b) = (c - b - i*spacing, i) on band i, support a
        full rectangle {-eps..eps} x {-1, 0, 1}.

    Both are valid; they lift the same kernel to visibly different filters
    inducing one and the same transform.  The half-width must stay below a
    quarter of the outer band separation (eps_steps < spacing / 2), and
    the three bands must fit on the circle without touching.  On band i
    at offset r the kernel is 2 + 0.7 i + 0.3 r / (eps_steps + 1), inside
    [1, 3], so its support is exactly the union of the three bands.
    """
    if n < 4:
        raise DomainError("torus-bands scenario needs n >= 4")
    if spacing is None:
        spacing = n // 4
    if spacing < 1:
        raise DomainError("band spacing must be >= 1")
    if eps_steps < 0:
        raise DomainError("band half-width must be >= 0")
    if not eps_steps < spacing / 2:
        raise DomainError(f"band half-width {eps_steps} must stay below spacing/2 = {spacing / 2}")
    if not (n - 2 * spacing) > 2 * eps_steps:
        raise DomainError("bands overlap around the wrap; increase n or shrink the bands")

    params = {"n": n, "spacing": spacing, "eps_steps": eps_steps, "families": families}
    scn = _assemble(f"torus-bands({n})", params, torus_action(n, spacing, n), families)

    def bands(d: np.ndarray) -> np.ndarray:
        out = np.zeros(d.shape)
        for i in (-1, 0, 1):
            r = d - i * spacing
            out = np.where(np.abs(r) <= eps_steps, 2.0 + 0.7 * i + 0.3 * (r / (eps_steps + 1.0)), out)
        return out

    scn.kernel = kern = _displacement_kernel(scn, bands)
    theta_global = _coset_theta(scn.action, kern.support)
    theta_special = _torus_theta_special(scn.action, n, spacing, eps_steps, kern.support)
    scn.thetas = {"global": theta_global, "special": theta_special}
    # the scenario's filter is the kernel's own lift along the global theta
    scn.filt = lift_kernel_to_filter(kern, theta_global, scn.delta)
    scn.extras.update(band_spacing=spacing, eps_steps=eps_steps)
    return scn


def _torus_theta_special(action: GroupAction, n: int, spacing: int, eps: int, support: np.ndarray) -> ThetaMap:
    reps = np.full((n, n), -1, dtype=INDEX_DTYPE)
    cs, bs = np.nonzero(support)
    d = _signed_mod(cs - bs, n)
    band = np.zeros_like(d)
    for i in (-1, 1):
        band = np.where(np.abs(d - i * spacing) <= eps, i, band)
    a = (d - band * spacing) % n
    reps[cs, bs] = (band % n) * n + a
    return ThetaMap(action, reps)


def banded_support_mismatch(scn: Scenario, lifts: dict[str, Filter]) -> tuple[float, tuple[int, int] | None]:
    """Number of (h, b) at which the supports of the global and the special
    lift differ from the predicted shapes: three spatial segments and a
    rectangle, in (spatial, offset) group coordinates relative to b, and
    the first such (h, b) in row-major order, the global lift's before the
    special lift's.  Zero means the supports are exactly the segments and
    the rectangle.

    The coordinates h -> (signed h mod n, signed h div n) do not depend on b
    and are a bijection onto the signed window, which holds both shapes
    (n - 2s > 2 eps gives s + eps < n/2), so the count is the symmetric
    difference of the observed and predicted support sets, summed over b.
    n is |B|, which it is on every torus-bands scenario."""
    n, s, eps = scn.action.base_size, scn.extras["band_spacing"], scn.extras["eps_steps"]
    h = np.arange(scn.group.order)
    x, y = _signed_mod(h % n, n), _signed_mod(h // n, n)
    segments = (y == 0) & (np.abs(x[:, None] - s * np.arange(-1, 2)) <= eps).any(axis=1)
    rectangle = (np.abs(x) <= eps) & (np.abs(y) <= 1)
    shapes = (("global", segments), ("special", rectangle))
    return _count((_local, lifts[name].support != shape[:, None]) for name, shape in shapes)


# ---------------------------------------------------------------------------
# degeneracy demonstration


DEGENERACY_PROFILE = {-1: 0.25, 0: 1.0, 1: 0.5}
DEGENERACY_TEST_FUNCTION = {-1: 0.25, 0: 1.0, 1: 0.5}


def biequivariant_filter(scn: Scenario) -> Filter:
    """A filter on the plain torus that is constant along stabilizer cosets:
    omega(g1, g2) = p((g1 + g2) mod N), p = DEGENERACY_PROFILE.

    Such a filter satisfies the faint constraint (the group is abelian and
    the table is base-independent) and additionally the translation
    invariance along stabilizers that forces the degeneracy.
    """
    n = scn.action.base_size
    ia = np.tile(np.arange(n), n)
    ib = np.repeat(np.arange(n), n)
    coset = (ia + ib) % n
    vals = np.zeros(n)
    for d, v in DEGENERACY_PROFILE.items():
        vals[d % n] += v
    mats = np.zeros((n * n, n, 1, 1))
    mats[:, :, 0, 0] = vals[coset][:, None]
    return Filter(scn.input_bundle, scn.output_bundle, mats)


def degeneracy_demo(sizes: list[int]) -> dict:
    """Contrast the bi-equivariant filter with its faintly constrained
    counterpart across torus sizes.

    The bi-equivariant cross-correlation at a fixed point scales linearly
    with the stabilizer size N (the finite signature of the continuous
    divergence), while lifting the same displacement kernel with a Dirac
    density produces an N-independent output.  Returns per-size rows plus
    the two spreads: relative spread of output/N and absolute spread of
    the lifted output.
    """
    if not sizes:
        raise DomainError("degeneracy demo needs at least one torus size")
    if any(s < 4 for s in sizes):
        raise DomainError("degeneracy demo needs torus sizes >= 4")
    rows = []
    for n in sizes:
        scn = _assemble(f"torus({n})", {"n": n, "families": "counting"}, torus_action(n, 1, n), "counting")
        filt = biequivariant_filter(scn)
        fvals = np.zeros((n, 1))
        for d, v in DEGENERACY_TEST_FUNCTION.items():
            fvals[d % n, 0] += v
        bi = float(correlate_sections(filt, scn.mu, fvals)[0, 0])

        kern = _displacement_kernel(
            scn, lambda d: sum(np.where(d == off, v, 0.0) for off, v in DEGENERACY_PROFILE.items())
        )
        theta = _coset_theta(scn.action, kern.support)
        lifted = lift_kernel_to_filter(kern, theta, scn.delta)
        faint = float(correlate_sections(lifted, scn.mu, fvals)[0, 0])
        rows.append({"N": n, "biequivariant": bi, "ratio": bi / n, "faint": faint})

    ratios = np.array([r["ratio"] for r in rows])
    faints = np.array([r["faint"] for r in rows])
    ratio_spread = float((ratios.max() - ratios.min()) / max(abs(ratios).max(), 1e-300))
    faint_spread = float(faints.max() - faints.min())
    return {"rows": rows, "ratio_relative_spread": ratio_spread, "faint_absolute_spread": faint_spread}


# ---------------------------------------------------------------------------
# circle grid


def circle_profile(j: np.ndarray, width: int) -> np.ndarray:
    """Smooth taper on signed step distance, nonzero exactly for |j| <= width."""
    inside = np.abs(j) <= width
    return np.where(inside, np.cos(np.pi * j / (2.0 * (width + 1.0))) ** 2, 0.0)


def circle_test_function(x: np.ndarray) -> np.ndarray:
    return np.sin(x) + 0.5 * np.cos(2.0 * x)


def circle_grid_step(n: int) -> float:
    """The angle between neighbouring points of the n-point circle grid."""
    return 2.0 * math.pi / n


def build_circle_grid(n: int, filter_width: int = 2, families: str = "counting") -> Scenario:
    """The circle discretized to n grid points, quadrature weight 2*pi/n.

    The filter support spans filter_width grid steps each way and must not
    wrap onto itself (2*filter_width + 1 <= n): the finite picture is
    faithful only while the filter sees less than the full circle.
    """
    if n < 1:
        raise DomainError("circle-grid scenario needs n >= 1")
    if filter_width < 0 or 2 * filter_width + 1 > n:
        raise DomainError("filter width must satisfy 2*width + 1 <= n")
    step = circle_grid_step(n)
    params = {"n": n, "filter_width": filter_width, "families": families}
    scn = _assemble(f"circle-grid({n})", params, cyclic_action(n), families, scale=step)
    mats = np.zeros((n, n, 1, 1))
    mats[:, :, 0, 0] = circle_profile(_signed_mod(np.arange(n), n), filter_width)[:, None]
    scn.filt = Filter(scn.input_bundle, scn.output_bundle, mats)
    scn.thetas["derived"] = _coset_theta(scn.action)
    return scn


def circle_offgrid_residual(scn: Scenario, angle: float) -> float:
    """Reported-only residual for an off-grid rotation emulated by
    nearest-grid rounding.

    The exactly rotated samples are cross-correlated and compared with the
    nearest-grid translate of the unrotated output; the gap decays like
    1/n for the fixed smooth test function, n = |B| grid points.  Nothing
    asserts on this.
    """
    n = scn.action.base_size
    step = circle_grid_step(n)
    nearest = int(round(angle / step)) % n
    x = np.arange(n) * step
    samples = circle_test_function(np.stack([x, x - angle]))[:, :, None]  # unrotated, and rotated by angle
    out0, outa = correlate_sections(scn.filt, scn.mu, samples)[:, :, 0]
    shifted = np.roll(out0, nearest)  # translate by the nearest grid rotation
    return float(np.abs(outa - shifted).max())


# ---------------------------------------------------------------------------
# line grid


LINE_BAND_EPS = 1.0 / 3.0
LINE_BAND_WEIGHTS = {-1: 0.8, 0: 1.0, 1: 0.6}
LINE_SUPPORT_HALF_WIDTH = 2.0  # of the smooth test function


def line_test_function(x: np.ndarray) -> np.ndarray:
    """Smooth compactly supported bump: cos^2 taper on [-W, W]."""
    w = LINE_SUPPORT_HALF_WIDTH
    inside = np.abs(x) <= w
    return np.where(inside, np.cos(np.pi * x / (2.0 * w)) ** 2, 0.0)


def line_test_antiderivative(x: float) -> float:
    w = LINE_SUPPORT_HALF_WIDTH
    x = min(max(x, -w), w)
    return x / 2.0 + (w / (2.0 * math.pi)) * math.sin(math.pi * x / w)


def line_band_kernel_value(d: np.ndarray) -> np.ndarray:
    """Sharp-edged three-band profile at physical displacement d."""
    out = np.zeros_like(np.asarray(d, dtype=float))
    for i, w in LINE_BAND_WEIGHTS.items():
        out = np.where(np.abs(d - i) <= LINE_BAND_EPS, w, out)
    return out


def continuous_line_transform() -> float:
    """Closed form of the transform at the origin: sum_i w_i * int_{i-eps}^{i+eps} f."""
    total = 0.0
    for i, w in LINE_BAND_WEIGHTS.items():
        total += w * (line_test_antiderivative(i + LINE_BAND_EPS) - line_test_antiderivative(i - LINE_BAND_EPS))
    return total


def build_line_grid(units: int = 6, dx: float = 0.1, families: str = "counting") -> Scenario:
    """Grid discretization of the banded line transform.

    The base is a window of `units` length units at step dx; the group is
    (window grid) x Z_units, acting by g1 + u*g2 + b with u = 1/dx steps
    per unit, so the second factor walks the integer offsets and the
    stabilizer has `units` elements, the finite stand-in for the integer
    stabilizer of the continuous picture.  All compactly supported data
    lives well inside the window, so the wrapped tables agree exactly
    with the truncated computation they emulate.

    The measure weights are the quadrature ones: dx per group element, a
    counting stabilizer family, and dx per base point for the orbit
    family (solved, not assumed).
    """
    if units < 5:
        raise DomainError("line-grid window must span at least 5 units")
    if not sys.float_info.min <= dx <= sys.float_info.max:  # round(1 / dx) raises on 0, nan and 1e-320
        raise DomainError(f"grid step {dx!r} is not a finite normal step > 0")
    u = round(1.0 / dx)
    if u < 2 or abs(u * dx - 1.0) > 1e-9:
        raise DomainError(f"grid step {dx} must divide the unit length exactly")
    if families != "counting":
        raise DomainError("line-grid carries quadrature weights; only counting families apply")
    m = units * u  # base points
    params = {"units": units, "dx": dx, "families": families}
    scn = _assemble(f"line-grid({units},{dx})", params, torus_action(m, u, units), families, scale=dx)
    scn.kernel = _displacement_kernel(scn, lambda d_steps: line_band_kernel_value(d_steps * dx))
    scn.thetas["global"] = _coset_theta(scn.action, scn.kernel.support)
    scn.extras["dx"] = dx
    return scn


def line_grid_oracle_residual(scn: Scenario, lifted: Filter) -> float:
    """Gap between the grid computation and the continuous transform at the
    origin, base point 0.

    The grid side goes through the full machinery: `lifted`, the sampled
    kernel's lift along the global theta, cross-correlates the induced
    Mackey section, read off at the identity.  The continuous side is the
    closed-form integral.  The gap is pure quadrature error, first order in
    dx because the band edges never align with the grid.
    """
    m = scn.action.base_size
    samples = line_test_function(_signed_mod(np.arange(m), m) * scn.extras["dx"])[:, None]
    out = correlate_sections(lifted, scn.mu, samples)
    return abs(float(out[0, 0]) - continuous_line_transform())


def line_grid_ladder(levels: int = 4) -> list[float]:
    """Oracle residuals of the line grids at dx = 0.1 / 2**j, j < levels, coarse to fine."""
    if levels < 2:
        raise DomainError(f"quadrature ladder needs levels >= 2 to compare refinements, got {levels}")
    ladder = []
    for j in range(levels):
        scn = build_line_grid(dx=0.1 / 2**j)
        lifted = lift_kernel_to_filter(scn.kernel, scn.thetas["global"], scn.delta)
        ladder.append(line_grid_oracle_residual(scn, lifted))
    return ladder


# ---------------------------------------------------------------------------
# scenario spec parsing


_BUILDERS = {
    "cyclic": build_cyclic,
    "dihedral": build_dihedral,
    "torus": build_torus,
    "torus-bands": build_torus_bands,
    "circle-grid": build_circle_grid,
    "line-grid": build_line_grid,
}

_SPEC_RE = re.compile(r"^\s*([a-z][a-z0-9-]*)\s*\(\s*(.*?)\s*\)\s*$")


def is_scenario_spec(text: str) -> bool:
    return _SPEC_RE.match(text) is not None


def build_scenario(spec: str) -> Scenario:
    """Build a built-in scenario from a spec string like 'torus-bands(16)'
    or 'dihedral(4, bundle=sign)'.

    The arguments are bound to the builder's signature and checked against
    its annotations before the call (an int passes for a float), so a spec
    with an unknown or missing parameter, too many arguments or a value of
    the wrong type raises DomainError before anything is built."""
    m = _SPEC_RE.match(spec)
    if not m:
        raise DomainError(f"not a scenario spec: {spec!r}")
    name, argtext = m.group(1), m.group(2)
    if name not in _BUILDERS:
        raise DomainError(f"unknown scenario {name!r}; known: {sorted(_BUILDERS)}")
    args: list = []
    kwargs: dict = {}
    for part in argtext.split(","):
        part = part.strip()
        if not part:
            continue
        if "=" in part:
            key, val = (t.strip() for t in part.split("=", 1))
            if key in kwargs:
                raise DomainError(f"malformed scenario spec {spec!r}: keyword {key!r} repeated")
            kwargs[key] = _parse_value(val)
        else:
            args.append(_parse_value(part))
    sig = inspect.signature(_BUILDERS[name], eval_str=True)
    try:
        bound = sig.bind(*args, **kwargs)
    except TypeError as exc:
        raise DomainError(f"malformed scenario spec {spec!r}: {exc}") from None
    for key, val in bound.arguments.items():
        want = sig.parameters[key].annotation
        if not isinstance(val, float | int if want is float else want):
            problem = f"{key}={val!r} is not {inspect.formatannotation(want)}"
            raise DomainError(f"malformed scenario spec {spec!r}: {problem}")
    return _BUILDERS[name](*bound.args, **bound.kwargs)


def _parse_value(text: str):
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        pass
    return text.strip("'\"")
