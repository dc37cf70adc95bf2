from __future__ import annotations

import inspect
import json
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equicorr.errors import DomainError, EquicorrError
from equicorr.groups import FiniteGroup, GroupAction, cyclic_group, dihedral_group
from equicorr.scenarios import (
    DEGENERACY_PROFILE,
    DEGENERACY_TEST_FUNCTION,
    LINE_BAND_EPS,
    LINE_BAND_WEIGHTS,
    _BUILDERS,
    _coset_theta,
    banded_support_mismatch,
    build_circle_grid,
    build_dihedral,
    build_line_grid,
    build_scenario,
    build_torus_bands,
    circle_grid_step,
    circle_offgrid_residual,
    continuous_line_transform,
    cyclic_action,
    degeneracy_demo,
    dihedral_vertex_action,
    is_scenario_spec,
    line_grid_ladder,
    line_grid_oracle_residual,
    line_test_function,
    torus_action,
)
from equicorr.transforms import lift_kernel_to_filter, validate_theta
from equicorr.xcorr import Filter

from helpers import banded_support_set_mismatch, banded_support_shapes, cayley_table, reference_derive_theta, scenario_lifts


# ---------------------------------------------------------------------------
# spec strings and builder preconditions


def test_spec_parsing_round_trips_names():
    assert is_scenario_spec("torus-bands(16)")
    assert is_scenario_spec("dihedral(4, bundle=sign)")
    assert not is_scenario_spec("just words")
    scn = build_scenario("dihedral(4, bundle=sign, families=normalized-psi)")
    assert scn.params["bundle"] == "sign"
    assert scn.psi is not None
    assert build_scenario("cyclic(6)").name == "cyclic(6)"


def test_spec_overrides_win():
    a = build_scenario("cyclic(6)")
    b = build_scenario("cyclic(6, seed=3)")
    assert not np.array_equal(a.filt.matrices, b.filt.matrices)


@pytest.mark.parametrize(
    "spec",
    [
        "cyclic(0)",
        "dihedral(4, bundle=weird)",
        "torus-bands(4)",  # default half-width no longer fits under spacing/2
        "torus-bands(16, eps_steps=2)",
        "line-grid(4)",
        "line-grid(6, dx=0.3)",  # 0.3 does not divide the unit length
        "line-grid(6, families=normalized-psi)",
        "circle-grid(4, filter_width=2)",
        "nonesuch(3)",
        "not a spec",
    ],
)
def test_builder_rejections(spec):
    with pytest.raises(DomainError):
        build_scenario(spec)


@pytest.mark.parametrize(
    "build, table",
    [
        (lambda: cyclic_action(20000), "(20000, 20000) coset-representative table needs 400,000,000 entries"),
        (lambda: dihedral_vertex_action(6000), "(12000, 6000) action table needs 72,000,000 entries"),
        (lambda: torus_action(8000, 1, 4), "(32000, 8000) action table needs 256,000,000 entries"),
    ],
)
def test_a_circle_action_over_the_budget_is_refused_before_its_group_is_built(build, table, monkeypatch):
    # the group is inside the index range, so only the action's tables can refuse it
    def unbuilt(*args):
        raise AssertionError("the group was built")

    monkeypatch.setattr(FiniteGroup, "__init__", unbuilt)
    with pytest.raises(DomainError, match=re.escape(table)):
        build()


# every keyword of every builder at and past its edges, each spec otherwise
# the builder's small first size, so that nothing larger than 64 is built
EDGE_SIZES = {"cyclic": 4, "dihedral": 4, "torus": 4, "torus-bands": 16, "circle-grid": 16, "line-grid": 6}
EDGE_VALUES = ["0", "-1", "1", "2.5", "nan", "inf", "-inf", "1e400", "1e-320", "x", "True"]
EDGE_SPECS = [
    f"{name}({key}={value})" if i == 0 else f"{name}({EDGE_SIZES[name]}, {key}={value})"
    for name, builder in sorted(_BUILDERS.items())
    for i, key in enumerate(inspect.signature(builder).parameters)
    for value in EDGE_VALUES
]


@pytest.mark.parametrize("spec", EDGE_SPECS)
def test_every_builder_keyword_at_its_edges_builds_or_is_refused(spec):
    try:
        build_scenario(spec)
    except EquicorrError:
        pass


# ---------------------------------------------------------------------------
# theta derivation


@settings(max_examples=12, deadline=None)
@given(st.integers(min_value=1, max_value=12))
def test_derived_theta_validates_on_cyclic(n):
    scn = build_scenario(f"cyclic({n})")
    assert validate_theta(scn.thetas["derived"], scn.kernel).passed


def test_derived_theta_validates_on_odd_dihedral():
    scn = build_dihedral(5)
    assert validate_theta(scn.thetas["derived"], scn.kernel).passed


def test_the_global_theta_on_bands_is_the_displacement_at_offset_zero():
    # theta_global(c, b) = (c - b, 0): the smallest mover keeps the offset
    # coordinate at zero, and (a, 0) has index a
    scn = build_torus_bands(16)
    support, reps = scn.kernel.support, scn.thetas["global"].reps
    c, b = np.nonzero(support)
    assert (reps[c, b] == (c - b) % 16).all() and (reps[~support] == -1).all()


BUILTIN_ACTIONS = {  # each built-in's action as its builder makes it: bands at spacing n // 4, line-grid at dx = 0.1
    "cyclic": lambda: (cyclic_action(n) for n in range(1, 65)),
    "dihedral": lambda: (dihedral_vertex_action(n) for n in range(1, 65)),
    "torus": lambda: (torus_action(n, 1, n) for n in range(1, 13)),
    "torus-bands": lambda: (torus_action(n, n // 4, n) for n in range(4, 25)),
    "line-grid": lambda: (torus_action(10 * units, 10, units) for units in range(5, 9)),
}


@pytest.mark.parametrize("kind", sorted(BUILTIN_ACTIONS))
def test_the_coset_theta_meets_both_laws_at_every_element(kind):
    # the proof in _coset_theta, by brute force: the section law at every
    # pair (each action is transitive) and the translation law
    # g theta(c, b) = theta(g.c, g.b) g for every g, not only at generators
    for action in BUILTIN_ACTIONS[kind]():
        cay, table, m = cayley_table(action.group), action.table, action.base_size
        reps = _coset_theta(action).reps  # [c, b]
        g = np.arange(action.group.order)[:, None, None]
        assert (table[reps, np.arange(m)] == np.arange(m)[:, None]).all()
        assert (cay[g, reps] == cay[reps[table[:, :, None], table[:, None, :]], g]).all()


@pytest.mark.parametrize("spec", sorted(json.loads((Path(__file__).parent / "golden" / "scenario-sha256.json").read_text())))
def test_each_builtin_theta_is_the_reference_search(spec):
    # the coset table is what the search for a compatible theta finds: on
    # the kernel's support for a global theta, on every pair for a derived one
    scn = build_scenario(spec)
    name = "global" if "global" in scn.thetas else "derived"
    support = scn.kernel.support if name == "global" else (scn.action.coset_reps >= 0).T
    assert np.array_equal(scn.thetas[name].reps, reference_derive_theta(scn.action, support))


def test_an_off_orbit_support_pair_is_an_obstruction():
    # Z_4 on itself and a fixed point: every candidate would commute, but
    # no element carries 0 to the fixed point
    grp = cyclic_group(4)
    action = GroupAction(grp, ("0", "1", "2", "3", "inf"), np.concatenate([cayley_table(grp), np.full((4, 1), 4)], axis=1))
    support = (action.coset_reps >= 0).T
    support[4, 0] = True
    with pytest.raises(DomainError, match=r"pair stabilizer at \(c=4, b=0\)"):
        reference_derive_theta(action, support)


def test_derivation_obstruction_reported():
    # dihedral(4) on the two diagonals: every mover between the diagonals
    # fails to commute with the shared order-4 pair stabilizer
    grp = dihedral_group(4)
    table = np.zeros((8, 2), dtype=np.int64)
    for g in range(8):
        i = g % 4
        table[g] = (i + np.arange(2)) % 2
    action = GroupAction(grp, ("d0", "d1"), table)
    with pytest.raises(DomainError, match="no orbit-map section is compatible"):
        reference_derive_theta(action, (action.coset_reps >= 0).T)


# ---------------------------------------------------------------------------
# banded torus supports


def test_band_supports_match_predictions_exactly(bands16):
    shapes = banded_support_shapes(bands16)
    assert shapes["global-observed"] == shapes["segments-predicted"]
    assert shapes["special-observed"] == shapes["rectangle-predicted"]
    assert len(shapes["segments-predicted"]) == 9
    assert len(shapes["rectangle-predicted"]) == 9
    assert shapes["segments-predicted"] != shapes["rectangle-predicted"]
    assert banded_support_mismatch(bands16, scenario_lifts(bands16)) == (0.0, None)


def test_band_supports_other_sizes():
    for scn in (build_torus_bands(12, spacing=3, eps_steps=1), build_torus_bands(20)):
        assert banded_support_mismatch(scn, scenario_lifts(scn)) == (0.0, None)


@pytest.mark.parametrize("n, spacing", [(12, 3), (16, None), (20, None)])
def test_band_support_mask_counts_the_set_difference(n, spacing):
    # the one-mask count equals the set form's symmetric difference, on the
    # lifts and on lifts whose supports are swapped or moved
    scn = build_torus_bands(n, spacing=spacing)
    lifts = scenario_lifts(scn)
    swapped = {"global": lifts["special"], "special": lifts["global"]}
    g = lifts["global"]
    rolled = Filter(g.input_bundle, g.output_bundle, np.roll(g.matrices, 1, axis=0))
    moved = {"global": rolled, "special": lifts["special"]}
    for case in (lifts, swapped, moved):
        assert banded_support_mismatch(scn, case)[0] == banded_support_set_mismatch(scn, case)
    assert banded_support_mismatch(scn, swapped)[0] > 0 and banded_support_mismatch(scn, moved)[0] > 0


@pytest.mark.parametrize("name", ["global", "special"])
@pytest.mark.parametrize("h, b", [(0, 0), (5, 3), (1, 7)])
def test_one_flipped_support_entry_counts_once(bands16, name, h, b):
    lifts = scenario_lifts(bands16)
    filt = lifts[name]
    mats = filt.matrices.copy()
    mats[h, b] = 0.0 if filt.support[h, b] else 1.0
    flipped = dict(lifts, **{name: Filter(filt.input_bundle, filt.output_bundle, mats)})
    assert banded_support_mismatch(bands16, flipped) == (1.0, (h, b))
    assert banded_support_set_mismatch(bands16, flipped) == 1


def test_flipped_support_entries_name_the_global_lift_first(bands16):
    # the witness is the first mismatch of the global lift in row-major
    # order over (h, b), and the special lift's only when the global has none
    lifts = scenario_lifts(bands16)

    def flip(name, *pairs):
        mats = lifts[name].matrices.copy()
        for h, b in pairs:
            mats[h, b] = 0.0 if lifts[name].support[h, b] else 1.0
        return Filter(lifts[name].input_bundle, lifts[name].output_bundle, mats)

    both = {"global": flip("global", (5, 3), (1, 7)), "special": flip("special", (0, 0))}
    assert banded_support_mismatch(bands16, both) == (3.0, (1, 7))


# ---------------------------------------------------------------------------
# degeneracy contrast


def test_degeneracy_rows_match_hand_arithmetic():
    expected = sum(DEGENERACY_PROFILE[d] * DEGENERACY_TEST_FUNCTION[d] for d in DEGENERACY_PROFILE)
    assert expected == 1.3125
    demo = degeneracy_demo([4, 8, 16])
    for row in demo["rows"]:
        assert row["biequivariant"] == pytest.approx(row["N"] * expected, abs=1e-12)
        assert row["ratio"] == pytest.approx(expected, abs=1e-12)
        assert row["faint"] == pytest.approx(expected, abs=1e-12)
    assert demo["ratio_relative_spread"] < 1e-12
    assert demo["faint_absolute_spread"] < 1e-12


def test_degeneracy_rejects_tiny_sizes():
    with pytest.raises(DomainError):
        degeneracy_demo([2, 8])


# ---------------------------------------------------------------------------
# line grid quadrature


def simpson(f, a: float, b: float, panels: int = 400) -> float:
    x = np.linspace(a, b, 2 * panels + 1)
    w = np.ones_like(x)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return float((b - a) / (6.0 * panels) * (w * f(x)).sum())


def test_continuous_transform_against_simpson():
    total = 0.0
    for i, wt in LINE_BAND_WEIGHTS.items():
        lo, hi = max(i - LINE_BAND_EPS, -2.0), min(i + LINE_BAND_EPS, 2.0)
        if hi > lo:
            total += wt * simpson(line_test_function, lo, hi)
    assert continuous_line_transform() == pytest.approx(total, abs=1e-10)
    assert continuous_line_transform() == pytest.approx(1.1183098861837906, abs=1e-12)


def test_line_grid_machinery_matches_direct_sum():
    # independent of the lift/xcorr path: plain weighted sample sum
    scn = build_line_grid(6, 0.05)
    dx = scn.extras["dx"]
    m = scn.action.base_size
    d = np.arange(m)
    d = np.where(d > m // 2, d - m, d).astype(float)
    q = np.zeros(m)
    for i, wt in LINE_BAND_WEIGHTS.items():
        q += wt * (np.abs(d * dx - i) <= LINE_BAND_EPS + 1e-12)
    direct = float((q * line_test_function(d * dx)).sum() * dx)
    gap = abs(direct - continuous_line_transform())
    lifted = lift_kernel_to_filter(scn.kernel, scn.thetas["global"], scn.delta)
    assert abs(line_grid_oracle_residual(scn, lifted) - gap) < 1e-12


def test_line_grid_ladder_halves_the_residual():
    ladder = line_grid_ladder(4)
    assert ladder[0] == pytest.approx(0.054665251924075564, rel=1e-9)
    for coarse, fine in zip(ladder, ladder[1:]):
        assert 1.4 <= coarse / fine <= 2.6


# ---------------------------------------------------------------------------
# circle grid


def test_grid_aligned_rotation_is_exact():
    scn = build_circle_grid(16)
    step = circle_grid_step(16)
    for k in (1, 3, 7):
        assert circle_offgrid_residual(scn, k * step) < 1e-12


def test_offgrid_residual_decays_with_refinement():
    coarse = circle_offgrid_residual(build_circle_grid(16), 0.7)
    fine = circle_offgrid_residual(build_circle_grid(128), 0.7)
    assert coarse > 1e-3  # genuinely off the grid
    assert fine < coarse / 4.0
