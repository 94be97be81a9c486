"""Sign solver for FS-indicators of dihedral 2-blocks.

The six generalized decomposition matrix shapes are encoded symbolically;
for a chosen extension type the local column sums pin linear constraints
on the indicator vector (eps_1..eps_4, eps^(0)..eps^(d-3)).  Height-0
indicators live in {0, +1} (real height-0 characters have indicator +1)
with the zeros forming a conjugate pair compatible with a duality
symmetry of the decomposition matrix.

The family signs are solved in closed form: for each duality, one column
sum fixes a signed power sum of eps^(0)..eps^(d-3), and the signed-sum
lemma (`signed_sum_decompose`) leaves at most one family vector per
column scale.  Each such candidate is then checked against the full
`local_constraints` list, which stays the one statement of the rules, so
the cost is linear in d.  The exhaustive enumeration over {+-1}^(d-2)
survives only as a test oracle.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources
from itertools import permutations

from .errors import InvariantViolation, NegativeMultiplicity, NoSolution
from .pgroup import EXT_TYPES

MORITA_TYPES = ("i", "ii", "iii", "iv", "v", "vi")
MAX_D = 64

# the six possible generalized decomposition matrix shapes: ordinary rows for
# chi_1..chi_4 and the common family row; sign patterns of the s_1 / s_j
# columns (times the unknown eps / eps_j); the t column where the block
# has an unfused t-subsection; the s column height-0 pattern (display only:
# its family entries are unspecified).
_SHAPES = {
    "i": {
        "dec": [[1], [1], [1], [1]], "fam": [2],
        "s1": [1, 1, 1, 1], "t": [1, -1, 1, -1], "st_free": True,
        "s": [1, 1, -1, -1], "family": "nilpotent",
    },
    "ii": {
        "dec": [[1, 0], [1, 1], [1, 0], [1, 1]], "fam": [2, 1],
        "s1": [1, 1, 1, 1], "t": [1, -1, -1, 1], "st_free": False,
        "s": [1, 1, -1, -1], "family": "PGL(2,q) q=1 mod 4",
    },
    "iii": {
        "dec": [[1, 0], [1, 1], [1, 0], [1, 1]], "fam": [0, 1],
        "s1": [-1, 1, -1, 1], "t": [1, -1, -1, 1], "st_free": False,
        "s": [-1, 1, 1, -1], "family": "PGL(2,q) q=3 mod 4",
    },
    "iv": {
        "dec": [[1, 0, 0], [1, 1, 0], [1, 1, 1], [1, 0, 1]], "fam": [0, 1, 0],
        "s1": [-1, 1, 1, -1], "t": None, "st_free": False,
        "s": [-1, 1, -1, 1], "family": "A7",
    },
    "v": {
        "dec": [[1, 0, 0], [1, 1, 1], [1, 1, 0], [1, 0, 1]], "fam": [2, 1, 1],
        "s1": [1, 1, 1, 1], "t": None, "st_free": False,
        "s": [1, 1, -1, -1], "family": "PSL(2,q) q=1 mod 4",
    },
    "vi": {
        "dec": [[1, 0, 0], [1, 1, 1], [0, 1, 0], [0, 0, 1]], "fam": [0, 1, 1],
        "s1": [-1, 1, 1, 1], "t": None, "st_free": False,
        "s": [-1, 1, -1, -1], "family": "PSL(2,q) q=3 mod 4",
    },
}


@dataclass(frozen=True)
class MoritaProfile:
    type_id: str
    d: int

    @property
    def l(self) -> int:
        return len(_SHAPES[self.type_id]["dec"][0])

    @property
    def shape(self) -> dict:
        return _SHAPES[self.type_id]

    def column_names(self) -> list:
        names = [f"M_{m+1}" for m in range(self.l)] + ["s_1"]
        if self.shape["t"] is not None:
            names.append("t")
        if self.shape["st_free"]:
            names.append("st")
        names += [f"s_{j}" for j in range(2, self.d - 1)] + ["s"]
        return names

    def symbolic_rows(self) -> list:
        """The matrix rows with unknown-sign slots, for display and tests."""
        sh = self.shape
        out = []
        sj_cols = list(range(2, self.d - 1))

        def sgn(coef, sym):
            if coef == 1:
                return sym
            if coef == -1:
                return f"-{sym}"
            return str(coef)

        for i in range(4):
            row = list(sh["dec"][i]) + [sgn(sh["s1"][i], "e")]
            if sh["t"] is not None:
                row.append(sh["t"][i])
            if sh["st_free"]:
                st_pattern = [1, -1, -1, 1]
                row.append(sgn(st_pattern[i], "e'"))
            row += [sgn(sh["s1"][i], f"e_{j}") for j in sj_cols]
            row.append(sh["s"][i])
            out.append((f"chi_{i+1}", row))
        fam_rows = [(f"chi^({self.d-3})", "-2e")]
        if self.d >= 4:
            fam_rows.insert(0, ("chi^(i)", "2e"))
        for fam_label, s1sym in fam_rows:
            row = list(sh["fam"]) + [s1sym]
            if sh["t"] is not None:
                row.append(0)
            if sh["st_free"]:
                row.append(0)
            row += ["*"] * len(sj_cols) + ["*"]
            out.append((fam_label, row))
        return out


def build_profile(type_id: str, d: int) -> MoritaProfile:
    if type_id not in MORITA_TYPES:
        raise ValueError(f"unknown Morita type {type_id!r}")
    if d < 3:
        raise ValueError("d >= 3 required")
    return MoritaProfile(type_id=type_id, d=d)


# ---------------------------------------------------------------------------
# signed power sums
# ---------------------------------------------------------------------------

def signed_sum_decompose(m: int, d: int) -> tuple:
    """The unique sign tuple (e_0..e_{d-1}) with sum e_j 2^j = m (m odd)."""
    if d < 1 or m % 2 == 0 or abs(m) >= (1 << d):
        raise NoSolution(f"no signed decomposition of {m} with {d} terms")
    signs = []
    for j in range(d - 1, 0, -1):
        s = 1 if m > 0 else -1
        signs.append(s)
        m -= s * (1 << j)
    if m not in (1, -1):
        raise InvariantViolation(f"signed decomposition left remainder {m}")
    signs.append(m)
    return tuple(reversed(signs))


# ---------------------------------------------------------------------------
# dualities (conjugate-pair structures on the decomposition matrix)
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _admissible_dualities(type_id: str) -> tuple:
    """Pairs (tau, sigma) of involutive row/column permutations fixing the
    decomposition matrix; tau moves the nonreal height-0 pair, sigma the
    nonreal Brauer-character pair.  They depend on the shape only, so each
    shape enumerates them once."""
    sh = _SHAPES[type_id]
    dec, fam = sh["dec"], sh["fam"]
    l = len(fam)
    out = []
    for sigma in permutations(range(l)):
        if any(sigma[sigma[m]] != m for m in range(l)):
            continue
        if any(fam[sigma[m]] != fam[m] for m in range(l)):
            continue
        for tau in permutations(range(4)):
            if any(tau[tau[i]] != i for i in range(4)):
                continue
            if all(dec[tau[i]][sigma[m]] == dec[i][m]
                   for i in range(4) for m in range(l)):
                out.append((tau, sigma))
    return tuple(out)


def _moved(perm) -> int:
    return sum(1 for i, x in enumerate(perm) if x != i)


# ---------------------------------------------------------------------------
# solving
# ---------------------------------------------------------------------------

def sign_string(eps) -> str:
    """Indicators +1, 0, -1 written as "+", "0", "-"."""
    return "".join("+" if e == 1 else ("0" if e == 0 else "-") for e in eps)


@dataclass(frozen=True)
class SignAssignment:
    eps_height0: tuple        # canonical, zeros last (e.g. (1, 1, 0, 0))
    eps_family: tuple         # eps^(0) .. eps^(d-3), values in {-1, 0, +1}
    multiplicities: tuple     # predicted [k-Omega B : M_m]
    eps_rows: tuple           # row-aligned eps_1..eps_4 (for the matrices)

    def to_json(self):
        return {"eps_height0": sign_string(self.eps_height0),
                "eps_family": sign_string(self.eps_family),
                "multiplicities": list(self.multiplicities)}


class Constraint:
    """One tagged constraint; check(ctx) with ctx the candidate assignment."""

    def __init__(self, tag: str, fn):
        self.tag = tag
        self.fn = fn

    def __repr__(self):
        return f"<constraint {self.tag}>"


def _s1_target(etype: str, d: int):
    """The s_1 column sum that E-types (a), (b), (c), (e) prescribe; None
    for (d), whose s_1 sum need only be nonzero."""
    return {"a": 2, "b": (1 << (d - 1)) + 2, "c": 0,
            "e": (1 << (d - 2)) + 2}.get(etype)


def local_constraints(etype: str, profile: MoritaProfile, tiebreak: bool = True) -> list:
    """The constraint set for one (Morita type, E-type, d) cell.

    ctx fields: eps (4 ints in {0,1}), fam (d-2 ints in {-1,0,1}),
    epsilon (+-1 scale of the s_1 column), eps_top (+-1 scale of the s^2
    column).  Every constraint carries its source tag.
    """
    sh = profile.shape
    d = profile.d
    if etype == "principal":
        etype = "a"
    cons = []

    def s1_sum(ctx):
        a = sum(sh["s1"][i] * ctx["eps"][i] for i in range(4))
        fampart = 0
        for j, e in enumerate(ctx["fam"]):
            coef = 2 * (1 << j)
            fampart += (coef if j < d - 3 else -coef) * e
        return ctx["epsilon"] * (a + fampart)

    target = _s1_target(etype, d)
    if etype == "a":
        cons.append(Constraint("s1 column sum = 2 (split central coset)",
                               lambda ctx: s1_sum(ctx) == target))
        if d >= 4:
            def s2_sum(ctx):
                a = sum(sh["s1"][i] * ctx["eps"][i] for i in range(4))
                # family-0 entry of the s^2 column is -2*eps_top by column
                # orthogonality against s_1 (the other families cancel)
                return ctx["eps_top"] * (a - 2 * ctx["fam"][0])
            cons.append(Constraint("s^2 column sum = 2 (s^2 = (se)^2)",
                                   lambda ctx: s2_sum(ctx) == 2))
    elif etype == "b":
        cons.append(Constraint("s1 column sum = 2^(d-1)+2 (e^2 = s_1)",
                               lambda ctx: s1_sum(ctx) == target))
    elif etype == "c":
        cons.append(Constraint("s1 column sum = 0 (s_1 not a square in E-D)",
                               lambda ctx: s1_sum(ctx) == target))
    elif etype == "d":
        cons.append(Constraint("s1 column sum nonzero (e^2 = s_1)",
                               lambda ctx: s1_sum(ctx) != 0))
    elif etype == "e":
        cons.append(Constraint("s1 column sum = 2^(d-2)+2 (type e)",
                               lambda ctx: s1_sum(ctx) == target))

    def mults(ctx):
        return predicted_multiplicities_raw(profile, ctx["eps"], ctx["fam"])

    if etype == "d":
        cons.append(Constraint("all decomposition column sums vanish (kOmega B = 0)",
                               lambda ctx: all(x == 0 for x in mults(ctx))))
    else:
        cons.append(Constraint("decomposition column sums are multiplicities >= 0",
                               lambda ctx: all(x >= 0 for x in mults(ctx))))

    if sh["t"] is not None:
        cons.append(Constraint("t column sum >= 0 (local block has one simple)",
                               lambda ctx: sum(sh["t"][i] * ctx["eps"][i]
                                               for i in range(4)) >= 0))

    if d >= 4:
        cons.append(Constraint(
            "some real height-1 indicator is +1 when all are real (|D| >= 16)",
            lambda ctx: (0 in ctx["fam"]) or (1 in ctx["fam"])))

    if tiebreak and d == 3 and etype == "a" and profile.type_id in ("iii", "iv", "vi"):
        cons.append(Constraint(
            "|D| = 8 type (a) module-theoretic tiebreak: eps^(0) = +1",
            lambda ctx: ctx["fam"][0] == 1))
    return cons


def solve(type_id: str, etype: str, d: int, tiebreak: bool = True) -> list:
    """All admissible sign assignments for the cell; [] when infeasible."""
    if not 3 <= d <= MAX_D:
        raise ValueError(f"d in 3..{MAX_D} required")
    profile = build_profile(type_id, d)
    if etype == "principal":
        etype = "a"
    if etype not in EXT_TYPES:
        raise ValueError(f"unknown extension type {etype!r}")
    if etype == "e" and d < 4:
        return []
    # dihedral/semidihedral E force l(B) != 2
    if etype in ("c", "d") and profile.l == 2:
        return []

    fam_zero = (1 << (d - 3)) if etype == "e" else 0
    cons = local_constraints(etype, profile, tiebreak=tiebreak)

    solutions = {}
    for tau, sigma in _admissible_dualities(type_id):
        # character reality count must match column reality count
        if _moved(tau) + fam_zero != \
                _nonreal_subsection(etype, profile.l, d) + _moved(sigma):
            continue
        eps = tuple(0 if tau[i] != i else 1 for i in range(4))
        for fam in _family_candidates(profile, etype, eps):
            # the auxiliary column scales are existential
            if any(all(c.fn({"eps": eps, "fam": fam,
                             "epsilon": e1, "eps_top": e2}) for c in cons)
                   for e1 in (1, -1) for e2 in (1, -1)):
                _record(solutions, profile, eps, fam)
    return [solutions[k] for k in sorted(solutions)]


def _family_candidates(profile: MoritaProfile, etype: str, eps) -> list:
    """The family vectors (eps^(0)..eps^(d-3)) that can meet the cell's
    pinning column sum with height-0 signs `eps`.

    Types (a), (b), (c), (e): the s_1 column sum epsilon * (a + 2F) equals
    its target, with a = sum s1_i eps_i and
    F = sum_{j<d-3} 2^j eps^(j) - 2^(d-3) eps^(d-3) (eps^(d-3) = 0 for (e)).
    Type (d): decomposition column m sums to (dec . eps)_m + fam_m * T with
    T = sum_j 2^j eps^(j), and it must vanish.  Either way the signed-sum
    lemma leaves one family vector per column scale; the caller checks
    each against the full constraint list."""
    sh, d = profile.shape, profile.d
    if etype == "d":
        m = next(m for m in range(profile.l) if sh["fam"][m])
        col = sum(sh["dec"][i][m] * eps[i] for i in range(4))
        total, rem = divmod(-col, sh["fam"][m])
        return [] if rem else _signed_sums([total], d - 2)
    target = _s1_target(etype, d)
    a = sum(sh["s1"][i] * eps[i] for i in range(4))
    if (target - a) % 2:
        return []
    halves = {(target * e - a) // 2 for e in (1, -1)}
    if etype == "e":
        return [fam + (0,) for fam in _signed_sums(halves, d - 3)]
    return [fam[:-1] + (-fam[-1],) for fam in _signed_sums(halves, d - 2)]


def _signed_sums(values, terms: int) -> list:
    """`signed_sum_decompose(v, terms)` for each v that has one."""
    out = []
    for v in values:
        try:
            out.append(signed_sum_decompose(v, terms))
        except NoSolution:
            pass
    return out


def _nonreal_subsection(etype: str, l: int, d: int) -> int:
    """Nonreal columns outside the Brauer characters that the E-type
    forces: 2^(d-3) for type (e), 2 for types (c)/(d) with l(B) = 1."""
    if etype == "e":
        return 1 << (d - 3)
    return 2 if etype in ("c", "d") and l == 1 else 0


def _record(solutions, profile: MoritaProfile, eps, fam):
    mults = predicted_multiplicities_raw(profile, eps, fam)
    canonical = tuple(sorted(eps, reverse=True))
    key = (canonical, fam)
    sol = SignAssignment(eps_height0=canonical, eps_family=tuple(fam),
                         multiplicities=tuple(mults), eps_rows=tuple(eps))
    if key not in solutions:
        solutions[key] = sol
    elif solutions[key].multiplicities != sol.multiplicities:
        raise InvariantViolation(
            f"conflicting multiplicities for one canonical assignment {key}")


def predicted_multiplicities_raw(profile: MoritaProfile, eps, fam) -> list:
    """[k-Omega B : M_m] = sum eps(chi) d_(chi,M_m) for each simple M_m, with
    eps the indicators of chi_1..chi_4 and fam[j] the common indicator of
    the 2^j characters of family j; not checked for sign."""
    sh = profile.shape
    famtotal = sum((1 << j) * e for j, e in enumerate(fam))
    out = []
    for m in range(profile.l):
        v = sum(sh["dec"][i][m] * eps[i] for i in range(4)) + sh["fam"][m] * famtotal
        out.append(v)
    return out


def predicted_multiplicities(assignment: SignAssignment, profile: MoritaProfile) -> tuple:
    """[k-Omega B : M_m] = sum eps(chi) d_(chi,M); nonnegative integers."""
    mults = predicted_multiplicities_raw(profile, assignment.eps_rows,
                                         assignment.eps_family)
    if any(v < 0 for v in mults):
        raise NegativeMultiplicity(str(mults))
    return tuple(mults)


def count_real_characters(type_id: str, etype: str, d: int, tiebreak: bool = True) -> int:
    """Number of real irreducible characters in the solved cell."""
    sols = solve(type_id, etype, d, tiebreak=tiebreak)
    if len(sols) != 1:
        raise NoSolution(f"cell ({type_id},{etype},{d}) is not unique: {len(sols)}")
    sol = sols[0]
    real_h0 = sum(1 for e in sol.eps_height0 if e == 1)
    real_h1 = sum((1 << j) for j, e in enumerate(sol.eps_family) if e != 0)
    return real_h0 + real_h1


def golden_table2() -> dict:
    with resources.files("workbench.data").joinpath("table2.json").open() as fh:
        return json.load(fh)


def _matches_golden(sol: SignAssignment, row: dict, d: int) -> bool:
    if sign_string(sol.eps_height0) != row["eps_height0"]:
        return False
    fam = sol.eps_family
    if any(fam[j] != row["eps_family_low"] for j in range(d - 3)):
        return False
    return fam[d - 3] == row["eps_family_top"]


def verify_table2(d_values=(3, 4, 5, 6), tiebreak: bool = True) -> dict:
    """Solve every (Morita type, E-type, d) cell and diff against the golden
    table: populated rows must be unique and equal, excluded cells
    infeasible.  With the |D| = 8 tiebreak off, the three type-(a) corner
    cells report ambiguous instead."""
    golden = golden_table2()
    rows = {(r["morita"], r["etype"]): r for r in golden["rows"]}
    excluded = {(r["morita"], r["etype"]) for r in golden["excluded"]}
    report = []
    ok = True
    for type_id in MORITA_TYPES:
        for etype in EXT_TYPES:
            for d in d_values:
                if etype == "e" and d < 4:
                    continue
                sols = solve(type_id, etype, d, tiebreak=tiebreak)
                cell = {"morita": type_id, "etype": etype, "d": d,
                        "solutions": [s.to_json() for s in sols]}
                if len(sols) == 0:
                    cell["status"] = "infeasible"
                    cell["expected"] = "infeasible" if (type_id, etype) in excluded \
                        else "populated"
                elif len(sols) == 1:
                    cell["status"] = "unique"
                    row = rows.get((type_id, etype))
                    cell["expected"] = "populated" if row else "infeasible"
                    cell["golden_match"] = bool(row) and _matches_golden(sols[0], row, d)
                else:
                    cell["status"] = "ambiguous"
                    cell["expected"] = "populated" if (type_id, etype) in rows \
                        else "infeasible"
                corner = (d == 3 and etype == "a" and type_id in ("iii", "iv", "vi"))
                if tiebreak or not corner:
                    cell_ok = (cell["status"] == "infeasible") == (
                        (type_id, etype) in excluded)
                    if cell["status"] == "unique" and (type_id, etype) in rows:
                        cell_ok = cell_ok and cell["golden_match"]
                    elif cell["status"] != "infeasible":
                        cell_ok = False
                else:
                    # corner cells are 2-fold ambiguous without the tiebreak
                    cell_ok = cell["status"] == "ambiguous" and len(sols) == 2
                cell["ok"] = cell_ok
                ok = ok and cell_ok
                report.append(cell)
    return {"ok": ok, "tiebreak": tiebreak, "cells": report,
            "populated": len(rows), "excluded": len(excluded)}


def nonreal_brauer_count(type_id: str, etype: str, d: int, tiebreak: bool = True) -> int:
    """Number of nonreal irreducible Brauer characters implied by the cell's
    duality structure (0 or 2)."""
    sols = solve(type_id, etype, d, tiebreak=tiebreak)
    if len(sols) != 1:
        raise NoSolution("cell not unique")
    zeros = sum(1 for e in sols[0].eps_height0 if e == 0)
    fam_zero = sum((1 << j) for j, e in enumerate(sols[0].eps_family) if e == 0)
    return zeros + fam_zero - _nonreal_subsection(etype, build_profile(type_id, d).l, d)
