"""Scalar reference helpers and test-only oracles shared by the tests; the
package itself calls none of them."""

from __future__ import annotations

import bisect
import itertools
import tracemalloc
import weakref

import numpy as np

from equicorr.battery import _LAWS, _STRUCTURAL, BUNDLE_TOLERANCE, _Inputs, _report, _view
from equicorr.bundles import MackeySection, Section, _induced_rows, section_to_mackey
from equicorr.errors import DegenerateMeasureError, DomainError, StructuralError
from equicorr.groups import INDEX_DTYPE, FiniteGroup, GroupAction, _rows, stabilizer
from equicorr.measures import GroupMeasureFamily, OrbitMeasureFamily, PsiFunction, StabilizerMeasureFamily
from equicorr.reporting import DEFAULT_TOLERANCE, ValidationReport, _count, _local, _worst, check_from_residual
from equicorr.rng import SplitMix64
from equicorr.scenarios import Scenario, _signed_mod
from equicorr.serialize import scenario_to_dict
from equicorr.transforms import lift_kernel_to_filter
from equicorr.xcorr import Filter, cross_correlate


_CAYLEY_TABLES: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def cayley_table(grp: FiniteGroup) -> np.ndarray:
    """The group's dense (|G|, |G|) Cayley table, [g, h] = g h: the
    reference every product the package forms is checked against.  Filled
    along the walk, row e the identity and row y = λ_i after row p for each
    edge y = λ_i(p), as the walk defines the group, valid or not.  Built
    once per group object, kept while the group lives, read-only."""
    if grp not in _CAYLEY_TABLES:
        n = grp.order
        table = np.empty((n, n), dtype=INDEX_DTYPE)
        table[grp.identity] = np.arange(n)
        for y, p, i in grp.walk.tolist():
            grp.left[i].take(table[p], out=table[y])
        table.flags.writeable = False
        _CAYLEY_TABLES[grp] = table
    return _CAYLEY_TABLES[grp]


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


def battery_checks(scn: Scenario, prefix: str, tolerance: float = 1e-12, **derived) -> dict:
    """The checks of the battery's laws whose names start with prefix, run
    on the scenario alone, by name; derived gives inputs the battery would
    derive, such as lifts or kernel_op, ready-made."""
    return {c.name: c for c in _view(prefix, tolerance, short=False, **vars(scn), **derived).checks}


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
    return MackeySection(m.bundle, m.values[cayley_table(grp)[grp.inv[g]]].copy())


def periodicity(m: MackeySection, place):
    """[h, b] -> the largest entry of the defect of m(h, b) from the section
    induced from its identity slice, one row block of h at a time.  Given
    the cocycle law, the periodicity law for all g is equivalent to this
    h = e slice; with P the all-g residual and a the largest row sum of
    |act_matrix(g, b)|, R <= a P and P <= (1 + a) R."""
    identity = m.values[m.bundle.action.group.identity]

    def defect(rows):  # [h, b] for the h in rows
        return np.abs(m.values[rows] - _induced_rows(m.bundle, identity, rows)).max(axis=2, initial=0.0)

    return _rows(len(m.values), m.values[0].size * m.bundle.dmax, defect, place)


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
    Scanned one row block of h at a time (periodicity).
    """
    worst, witness = _worst(periodicity(m, _local))
    return ValidationReport([check_from_residual("mackey-periodicity", worst, tolerance, witness)])


def psi_from_class_function(action: GroupAction, values: np.ndarray) -> PsiFunction:
    """psi(h, b) = psi0(h) for a nonnegative class function psi0 (constant on
    conjugacy classes); conjugation compatibility is then automatic."""
    grp = action.group
    values = np.asarray(values, dtype=float)
    if values.shape != (grp.order,):
        raise StructuralError(f"class function shape {values.shape}, expected {(grp.order,)}")
    # [h] -> psi0(g h g^-1) != psi0(h); the g that fix psi0 under conjugation
    # are closed under products, so a generating set decides it exactly
    _, witness = _count((lambda h: (g, h), values[cayley_table(grp)[cayley_table(grp)[g], grp.inv[g]]] != values) for g in grp.generators)
    if witness is not None:
        raise DomainError(f"psi0 is not a class function: varies under conjugation by g={witness[0]}")
    vals = np.repeat(values[:, None], action.base_size, axis=1)
    return PsiFunction(action, vals)


def mul(grp: FiniteGroup, g: int, h: int) -> int:
    """g h, read from the table."""
    return int(cayley_table(grp)[g, h])


def conjugate(grp: FiniteGroup, g: int, h: int) -> int:
    """g h g^-1, read one entry at a time from the table."""
    return int(cayley_table(grp)[cayley_table(grp)[g, h], grp.inv[g]])


def pair_stabilizer(action: GroupAction, c: int, b: int) -> np.ndarray:
    """Elements fixing both c and b under the diagonal action, ascending."""
    stab = action.stabilizers[b]
    return stab[action.table[stab, c] == c]


def reference_derive_theta(action: GroupAction, support: np.ndarray) -> np.ndarray:
    """The scalar search for a theta that meets both theta laws on a support:
    scan the support pairs b-major, seed each unseen pair orbit with the
    smallest mover that commutes with the pair stabilizer, and spread it by
    conjugation with every g in turn, the first g to reach a pair winning.
    DomainError reports a pair orbit where no mover commutes: no compatible
    theta exists there."""
    grp = action.group
    m = action.base_size
    reps = np.full((m, m), -1, dtype=np.int64)
    seen = np.zeros((m, m), dtype=bool)
    for b in range(m):
        for c in range(m):
            if not support[c, b] or seen[c, b]:
                continue
            ps = pair_stabilizer(action, c, b)
            movers = np.flatnonzero(action.table[:, b] == c)
            k0 = -1
            for k in movers:
                if all(conjugate(grp, int(g), int(k)) == int(k) for g in ps):
                    k0 = int(k)
                    break
            if k0 < 0:
                raise DomainError(f"no orbit-map section is compatible with the pair stabilizer at (c={c}, b={b})")
            for g in range(grp.order):
                gc, gb = action.table[g, c], action.table[g, b]
                if not seen[gc, gb]:
                    reps[gc, gb] = conjugate(grp, g, k0)
                    seen[gc, gb] = True
    return reps


def reference_solve_orbit_measure(mu: GroupMeasureFamily, nu: StabilizerMeasureFamily, b: int) -> np.ndarray:
    """The coset-sum solve of the disintegration identity at one b: tested
    against the indicator of each coset k_c G_b, it gives

        mubar_b(c) = mu_b(k_c G_b) / (nu_b |G_b|),

    the mean of mu_b over the coset over nu_b, and 0 off the orbit.  It
    agrees with the representative's weight mu_b(k_c) / nu_b when mu_b is
    constant on each coset.  A stabilizer of no nu-mass is refused."""
    action = mu.action
    stab = action.stabilizers[b]
    members = np.flatnonzero(action.coset_reps[b] >= 0)
    kh = cayley_table(action.group)[np.ix_(action.coset_reps[b, members], stab)]  # row c: the coset k_c G_b
    nu_mass = float(nu.weights[b] * stab.size)
    if not nu_mass > 0:
        raise DegenerateMeasureError(f"stabilizer weights at b={b} must be strictly positive")
    row = np.zeros(action.base_size)
    row[members] = mu.weights[b][kh].sum(axis=1) / nu_mass
    return row


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
    inner = f[cayley_table(grp)[np.ix_(reps[members], stab)]] @ np.full(stab.size, nu.weights[b])  # one value per orbit member
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
        kh = cayley_table(grp)[np.ix_(action.coset_reps[b, members], stab)]  # row c of kh: the coset k_c G_b
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


def mackey_preserved(filt: Filter, mu: GroupMeasureFamily) -> tuple[float, tuple | None]:
    """The Mackey periodicity of the filter's output on the induced basis
    sections e~_{b0,i}, one per fundamental-domain point b0 and fiber
    coordinate i < dE(b0), with witness (b0, i, h, b): the residual of the
    report row xcorr.mackey-preserved, retired because xcorr.equivariance
    decides the same property on the operator matrix.

    Exact given the group axioms and the cocycle law: on an associative
    table omega*(L_g m) = L_g(omega*m) bit for bit, the cocycle law gives
    L_g f~ = (g.f)~, and the translates of the e~_{b0,i} span every induced
    section.  Against P, the residual over sections with entries in
    [-1, 1], R <= P and P <= |B| dE a' (1 + a) R, with a the largest row
    sum of |A_F| and a' the largest column sum of |A_E|."""

    def parts():  # the periodicity defect of each output, placed at (b0, i, h, b)
        bundle = filt.input_bundle
        for b0 in filt.action.domain:
            for i in range(bundle.fiber_dim[b0]):
                f = np.zeros((bundle.action.base_size, bundle.dmax))
                f[b0, i] = 1.0
                out = cross_correlate(filt, section_to_mackey(Section(bundle, f)), mu)
                yield from periodicity(out, lambda h, b: (b0, i, h, b))

    return _worst(parts())


# the report rows retired because another row or the group constructor
# decides what each decides, as rows of battery._LAWS: the structural ones,
# which validate ran, then the battery's own
RETIRED_STRUCTURAL = (
    ("group.group-identity-left", ("group",), "exact",  # e x = x: row e is the identity by construction
     lambda g: _count([(lambda x: (g.identity, x), cayley_table(g)[g.identity] != np.arange(g.order))])),
    ("group.group-identity-right", ("group",), "exact",  # x e = x: column e by the walk
     lambda g: _count([(lambda x: (x, g.identity), cayley_table(g)[:, g.identity] != np.arange(g.order))])),
    ("group.group-inverse-right", ("group",), "exact",  # x x^-1 = e: inv is each first right inverse
     lambda g: _count([(lambda x: (x, int(g.inv[x])), cayley_table(g)[np.arange(g.order), g.inv] != g.identity)])),
    # x^-1 x = e: an associative table with a two-sided identity and right
    # inverses is a group, so group-associativity decides it
    ("group.group-inverse-left", ("group",), "exact",
     lambda g: _count([(lambda x: (int(g.inv[x]), x), cayley_table(g)[g.inv, np.arange(g.order)] != g.identity)])),
    # ~(mass > 0), so a NaN mass counts as no mass; psi-stabilizer-nonvanishing
    # and psi-conjugation decide it
    ("psi.psi-nonvanishing", ("psi",), "exact", lambda psi: _count([(_local, ~(psi.values.sum(axis=0) > 0))])),
)
RETIRED_LAWS = RETIRED_STRUCTURAL + (("xcorr.mackey-preserved", ("filt", "mu"), "tolerance", mackey_preserved),)


def scenario_fields(scn: Scenario) -> dict:
    """What the battery's laws read of a scenario, by name."""
    return dict(vars(scn), scenario=scn, group=scn.group)


def retired_alone(fields: dict, tolerance: float = DEFAULT_TOLERANCE) -> list[str]:
    """The retired rows that fail on the fields where every row of a command
    that ran them passes, so that the command's exit status would move:
    validate ran the structural ones, battery all of them."""

    def failed(laws) -> set[str]:
        return {c.name for c in _report(laws, _Inputs(fields), tolerance, BUNDLE_TOLERANCE).checks if not c.passed}

    alone = set()
    for retired, kept in ((RETIRED_STRUCTURAL, _STRUCTURAL), (RETIRED_LAWS, _LAWS)):
        names = failed(retired)
        if names and not failed(kept):
            alone |= names
    return sorted(alone)


def s4_on_four_and_two() -> GroupAction:
    """S4 acting on 4 ⊔ 2 points: on {0, 1, 2, 3} by permutation and on
    {4, 5} by its sign, so the stabilizers have 6 and 12 elements.  An
    element is a permutation p of range(4), indexed in lexicographic
    order, and p q = p ∘ q; stored by the rows of the 4-cycle (0 1 2 3) and
    the transposition (0 1)."""
    perms = list(itertools.permutations(range(4)))
    index = {p: i for i, p in enumerate(perms)}
    rows = [[index[tuple(s[x] for x in p)] for p in perms] for s in ((1, 2, 3, 0), (1, 0, 2, 3))]
    grp = FiniteGroup(tuple("".join(map(str, p)) for p in perms), index[(0, 1, 2, 3)], rows)
    odd = [sum(p[i] > p[j] for i in range(4) for j in range(i + 1, 4)) % 2 for p in perms]
    table = [list(p) + [4 + s, 5 - s] for p, s in zip(perms, odd)]
    return GroupAction(grp, ("0", "1", "2", "3", "+", "-"), np.array(table))


def permutation_representation(action: GroupAction) -> np.ndarray:
    """(|G|, 4, 4): the permutation matrix of each g on the first four base
    points, P_g e_i = e_{g.i}."""
    rep = np.zeros((action.group.order, 4, 4))
    rep[np.arange(action.group.order)[:, None], action.table[:, :4], np.arange(4)] = 1.0
    return rep
