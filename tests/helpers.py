"""Scalar reference helpers and test-only oracles shared by the tests; the
package itself calls none of them."""

from __future__ import annotations

import bisect
import tracemalloc

import numpy as np

from equicorr.bundles import MackeySection, Section, _periodicity
from equicorr.errors import PreconditionError, StructuralError
from equicorr.groups import FiniteGroup, GroupAction, stabilizer
from equicorr.measures import GroupMeasureFamily, OrbitMeasureFamily, PsiFunction, StabilizerMeasureFamily
from equicorr.reporting import ValidationReport, _count, _local, _worst, check_from_residual
from equicorr.rng import SplitMix64
from equicorr.scenarios import Scenario, _signed_mod
from equicorr.serialize import FILTER_SCHEMA, _fill_to_dict, scenario_to_dict
from equicorr.transforms import lift_kernel_to_filter
from equicorr.xcorr import Filter


def traced_peak(fn):
    """(fn(), the peak of the memory tracemalloc traced during the call,
    in bytes above what it traced when the call began)."""
    tracemalloc.start()
    try:
        base, _ = tracemalloc.get_traced_memory()
        result = fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak - base


def scenario_to_v2_dict(scn: Scenario) -> dict:
    """The scenario as an equicorr-scenario/2 document, a form the loader
    refuses by its tag: the current document with its measure tables as
    dense nested lists and each theta as a {c, b, element} entry per
    defined (c, b), in row-major order, all plain JSON values."""
    doc = scenario_to_dict(scn)
    doc["schema"] = "equicorr-scenario/2"
    for key in ("mu", "mubar"):
        doc["families"][key]["weights"] = getattr(scn, key).weights.tolist()
    doc["families"]["nu"]["weights"] = dense_nu(scn.nu).tolist()
    if scn.psi is not None:
        doc["psi"] = {"values": scn.psi.values.tolist()}
    for name, theta in scn.thetas.items():
        entries = [{"c": int(c), "b": int(b), "element": int(theta.reps[c, b])} for c, b in zip(*np.nonzero(theta.reps >= 0))]
        doc["thetas"][name] = {"entries": entries}
    return doc


def dense_nu(nu: StabilizerMeasureFamily) -> np.ndarray:
    """The (|B|, |G|) table nu_b(h): the weight nu_b where h.b = b, read
    from the action table, and 0 elsewhere."""
    action = nu.action
    fixes = action.table.T == np.arange(action.base_size)[:, None]
    return np.where(fixes, nu.weights[:, None], 0.0)


def set_fill_entry(stored: dict, shape: tuple[int, ...], index: tuple[int, ...], value: float) -> None:
    """Set the entry at index of a stored fill form of a table of that
    shape: the flat index is inserted into `at` in order, or its value
    replaced."""
    k = int(np.ravel_multi_index(index, shape))
    at, values = [int(x) for x in stored["at"]], [float(v) for v in stored["values"]]
    pos = bisect.bisect_left(at, k)
    if pos < len(at) and at[pos] == k:
        values[pos] = value
    else:
        at.insert(pos, k)
        values.insert(pos, value)
    stored.update(at=at, values=values)


def act_on_section(g: int, f: Section) -> Section:
    """(g.f)(b) = act_matrix(g, g^-1.b) @ f(g^-1.b)."""
    action = f.bundle.action
    src = action.table[action.group.inv[g]]
    return Section(f.bundle, np.einsum("bij,bj->bi", f.bundle.act_matrix[g, src], f.values[src]))


def mackey_to_section(m: MackeySection) -> Section:
    """f(b) = m(e, b)."""
    return Section(m.bundle, m.values[m.bundle.action.group.identity].copy())


def act_on_mackey(g: int, m: MackeySection) -> MackeySection:
    """(g.m)(h, b) = m(g^-1 h, b): pure index shuffle in the first slot."""
    grp = m.bundle.action.group
    return MackeySection(m.bundle, m.values[grp.cayley[grp.inv[g]]].copy())


def validate_mackey(m: MackeySection, tolerance: float = 1e-9) -> ValidationReport:
    """Residual of the periodicity law m(h, g.b) = act_matrix(g, b) @ m(h g, b),
    measured as the distance from m to the section induced from its
    identity slice:

        R = max over (h, b) of |m(h, b) - act_matrix(h^-1, h.b) @ m(e, h.b)|,

    with witness (h, b), the first pair attaining it.  Given the cocycle
    law, which validate_bundle checks, R = 0 exactly when the law holds for
    all g: h = e in the law gives the induced form, and every induced
    section obeys the law.  With P the all-g residual of the law and a the
    largest row sum of |act_matrix(g, b)|, R <= a P and P <= (1 + a) R.
    Scanned one row block of h at a time, as the battery's Mackey check is.
    """
    worst, witness = _worst(_periodicity(m, _local))
    report = ValidationReport()
    report.add(check_from_residual("mackey-periodicity", worst, tolerance, witness))
    return report


def psi_from_class_function(action: GroupAction, values: np.ndarray) -> PsiFunction:
    """psi(h, b) = psi0(h) for a nonnegative class function psi0 (constant on
    conjugacy classes); conjugation compatibility is then automatic."""
    grp = action.group
    values = np.asarray(values, dtype=float)
    if values.shape != (grp.order,):
        raise StructuralError(f"class function shape {values.shape}, expected {(grp.order,)}")
    # [h] -> psi0(g h g^-1) != psi0(h); the g that fix psi0 under conjugation
    # are closed under products, so a generating set decides it exactly
    _, witness = _count((lambda h: (g, h), values[grp.cayley[grp.cayley[g], grp.inv[g]]] != values) for g in grp.generators)
    if witness is not None:
        raise PreconditionError(f"psi0 is not a class function: varies under conjugation by g={witness[0]}")
    vals = np.repeat(values[:, None], action.base_size, axis=1)
    return PsiFunction(action, vals)


def compressed_filter_to_dict(filt: Filter) -> dict:
    """The fundamental-domain form: the (|G|, k, dF, dE) columns at the k
    orbit representatives in the fill form; the loader carries them to the
    rest of each orbit."""
    columns = filt.matrices[:, list(filt.action.domain)]
    return {"schema": FILTER_SCHEMA, "compressed": True, "matrices": _fill_to_dict(columns)}


def mul(grp: FiniteGroup, g: int, h: int) -> int:
    """g h, read from the table."""
    return int(grp.cayley[g, h])


def conjugate(grp: FiniteGroup, g: int, h: int) -> int:
    """g h g^-1, read one entry at a time from the table."""
    return int(grp.cayley[grp.cayley[g, h], grp.inv[g]])


def random_group_function(group: FiniteGroup, rng: SplitMix64) -> np.ndarray:
    """A real function on the group with uniform [-1, 1) values."""
    return rng.uniforms(group.order, -1.0, 1.0)


def counting_orbit_family(action: GroupAction, scale: float = 1.0) -> OrbitMeasureFamily:
    """Constant weight `scale` on each orbit."""
    return OrbitMeasureFamily(action, float(scale) * (action.coset_reps >= 0))


def normalization_residual(psi: PsiFunction, mu: GroupMeasureFamily, nu: StabilizerMeasureFamily) -> float:
    """Max deviation of the two normalizations sum psi*mu = sum psi*nu = 1,
    the second summed over the stabilizer of each b, each element of mass nu_b."""
    action = psi.action
    against_mu = np.einsum("hb,bh->b", psi.values, mu.weights) - 1.0
    on_stabilizers = np.array([psi.values[stabilizer(action, b), b].sum() for b in range(action.base_size)])
    against_nu = on_stabilizers * nu.weights - 1.0
    return float(max(np.abs(against_mu).max(), np.abs(against_nu).max()))


def check_fubini(
    mu: GroupMeasureFamily,
    nu: StabilizerMeasureFamily,
    mubar: OrbitMeasureFamily,
    f: np.ndarray,
    b: int,
    reps: np.ndarray | None = None,
) -> float:
    """Residual of the disintegration identity at base point b for a real
    function f on the group.  reps[c] is the coset representative k_c used
    for each c in the orbit of b, -1 elsewhere; by default the smallest,
    action.coset_reps[b]."""
    action = mu.action
    grp = action.group
    f = np.asarray(f, dtype=float)
    if f.shape != (grp.order,):
        raise StructuralError(f"group function shape {f.shape}, expected {(grp.order,)}")
    if reps is None:
        reps = action.coset_reps[b]
    stab = stabilizer(action, b)
    members = np.flatnonzero(reps >= 0)

    lhs = float(mu.weights[b] @ f)
    inner = f[grp.cayley[np.ix_(reps[members], stab)]] @ np.full(stab.size, nu.weights[b])  # one value per orbit member
    rhs = float(mubar.weights[b, members] @ inner)
    return abs(lhs - rhs)


def loop_correlate_sections(filt: Filter, mu: GroupMeasureFamily, values: np.ndarray) -> np.ndarray:
    """The induced map on a stack of plain section values, (..., |B|, dE) ->
    (..., |B|, dF), summed one support position at a time, ascending k in
    the support of omega(., b):

        T(f)(b) = sum_k mu_b(k) omega(k, b) @ actE(k^-1, k.b) @ f(k.b).

    Only the support rows of the induced Mackey section are pulled back;
    no operator matrix is built."""
    action = filt.action
    idx = filt.support_index
    cols = np.arange(action.base_size)
    weights = mu.weights[cols[:, None], idx][:, :, None, None] * filt.matrices[idx, cols[:, None]]
    out = np.zeros(values.shape[:-2] + (action.base_size, filt.output_bundle.dmax))
    for s, k in enumerate(idx.T):
        kb = action.table[k, cols]
        pull = filt.input_bundle.act_matrix[action.group.inv[k], kb]
        pulled = np.einsum("bij,...bj->...bi", pull, values[..., kb, :])
        out += np.einsum("bij,...bj->...bi", weights[:, s], pulled)
    return out


def coset_project_filter_to_kernel(filt: Filter, nu: StabilizerMeasureFamily) -> np.ndarray:
    """The projection's (|B|, |B|, dF, dE) matrices summed coset by coset:

        kappa(k.b, b) = sum_{h in G_b} nu_b(h) omega(k h, b) @ actE((k h)^-1, k.b)

    one gather per base point b, every element of each
    coset k_c G_b visited, on the support of omega(., b) or not."""
    action = filt.action
    grp = action.group
    m = action.base_size
    ae = filt.input_bundle.act_matrix
    out = np.zeros((m, m, filt.output_bundle.dmax, filt.input_bundle.dmax))
    for b in range(m):
        stab, members = stabilizer(action, b), np.flatnonzero(action.coset_reps[b] >= 0)
        kh = grp.cayley[np.ix_(action.coset_reps[b, members], stab)]  # row c of kh: the coset k_c G_b
        w = np.full(stab.size, nu.weights[b])  # the mass of each element of the stabilizer
        mats = filt.matrices[kh, b]  # (|orbit|, |S|, dF, dE)
        back = ae[grp.inv[kh], members[:, None]]  # (|orbit|, |S|, dE, dE): actE((k h)^-1, c)
        out[members, b] = np.einsum("s,csij,csjk->cik", w, mats, back)
    return out


def basis_filter_operator(filt: Filter, mu: GroupMeasureFamily) -> np.ndarray:
    """The matrix of a filter's induced map laid out as kernel_operator,
    read column by column: one `loop_correlate_sections` pass over the
    |B| dE basis sections, [c, b, i, j] coordinate i of T(e_{c,j})(b)."""
    m, de = filt.action.base_size, filt.input_bundle.dmax
    basis = np.eye(m * de).reshape(m * de, m, de)
    return loop_correlate_sections(filt, mu, basis).reshape(m, de, m, -1).transpose(0, 2, 3, 1)


def scenario_lifts(scn: Scenario) -> dict[str, Filter]:
    """The scenario kernel's lift along each theta, by theta name."""
    return {name: lift_kernel_to_filter(scn.kernel, theta, scn.delta) for name, theta in sorted(scn.thetas.items())}


def _support_coords(filt: Filter, n: int, b: int) -> set[tuple[int, int]]:
    """The support of omega(., b) in signed (spatial, offset) coordinates."""
    hs = np.flatnonzero(filt.support[:, b])
    return {(int(_signed_mod(h % n, n)), int(_signed_mod(h // n, n))) for h in hs}


def banded_support_shapes(scn: Scenario, lifts: dict[str, Filter] | None = None) -> dict[str, set[tuple[int, int]]]:
    """Predicted and actual filter supports of the two lifts at base point 0,
    as sets in (spatial, offset) group coordinates relative to b.

    The global theta keeps the offset coordinate at zero, so its lift
    lives on three spatial segments; the special theta spends one offset
    step per band, folding the same kernel into a compact rectangle.
    """
    lifts = scenario_lifts(scn) if lifts is None else lifts
    s, eps, n = scn.extras["band_spacing"], scn.extras["eps_steps"], scn.params["n"]
    return {
        "segments-predicted": {(i * s + r, 0) for i in (-1, 0, 1) for r in range(-eps, eps + 1)},
        "rectangle-predicted": {(r, i) for r in range(-eps, eps + 1) for i in (-1, 0, 1)},
        "global-observed": _support_coords(lifts["global"], n, 0),
        "special-observed": _support_coords(lifts["special"], n, 0),
    }


def banded_support_set_mismatch(scn: Scenario, lifts: dict[str, Filter]) -> int:
    """The set form of scenarios.banded_support_mismatch: the symmetric
    difference of each lift's observed support set and its predicted shape,
    summed over every base point."""
    shapes = banded_support_shapes(scn, lifts)
    n = scn.params["n"]
    return sum(
        len(_support_coords(lifts[name], n, b) ^ shapes[shape])
        for name, shape in (("global", "segments-predicted"), ("special", "rectangle-predicted"))
        for b in range(scn.action.base_size)
    )
