import hashlib
import json
from itertools import permutations, product
from pathlib import Path

import pytest

from workbench.pipeline import _shape_dims, analyze_group, fit_morita_rows, scan_groups
from workbench import blocks, chartab, pipeline, solver
from workbench.errors import FieldTooSmall, InvariantViolation
from workbench.chartab import dixon_table
from workbench.groups import builtin_group
from workbench.perm import generate, read_generator_file
from workbench.solver import MORITA_TYPES

GROUP_FILES = Path(__file__).resolve().parents[1] / "perfbench" / "groups"

EXPECT = {
    # group: (morita, etype, simple dims, meataxe [(dim, mult)])
    "psl27": ("vi", "principal", [1, 3, 3], [(1, 2), (3, 2), (3, 2)]),
    "s5": ("ii", "principal", [1, 4], [(1, 6), (4, 3)]),
    "a7": ("iv", "principal", [1, 14, 20], [(1, 4), (14, 3), (20, 2)]),
    "pgl27": ("iii", "principal", [1, 6], [(1, 4), (6, 5)]),
}


def test_full_pipeline_on_reference_groups():
    # the factor multiplicities must equal sum eps(chi) d_(chi, I) computed
    # from the hypothesized decomposition matrix, on all four groups
    for name, (morita, etype, dims, factors) in EXPECT.items():
        rep = analyze_group(name)
        assert rep["mismatches"] == [], name
        principal = next(b for b in rep["blocks"] if b["is_principal"])
        assert principal["morita"] == morita, name
        assert principal["etype"] == etype, name
        assert principal["simple_dims"] == dims, name
        assert principal["meataxe"] == factors, name
        assert principal["meataxe"] == principal["predicted"], name
        assert rep["cut_dims_sum_ok"], name
        assert rep["fs_count_identity_ok"], name


def test_summand_shapes_type_a():
    # type (a): k-Omega B = M_D + M_D + M_X2 + M_Y2 with M_D the repeated one
    for name in ("psl27", "s5", "a7", "pgl27"):
        rep = analyze_group(name)
        principal = next(b for b in rep["blocks"] if b["is_principal"])
        assert len(principal["summand_dims"]) == 4, name
        assert sorted(principal["summand_multiplicities"]) == [1, 1, 2], name
        assert principal["valuation_ok"], name


def _fits(type_id, degrees, fam_degree) -> bool:
    """Whether some order of the height-0 degrees fits the shape."""
    return any(_shape_dims(type_id, [*degs, fam_degree]) is not None
               for degs in permutations(degrees))


def test_fit_rejects_wrong_shape():
    T = dixon_table(builtin_group("psl27"))
    principal = next(b for b in blocks.block_partition(T) if b.is_principal)
    ty, perm, dims, fams = fit_morita_rows(T, principal)
    assert ty == "vi" and dims == (1, 3, 3)
    # PSL(2,7)'s degree profile fits no PGL-type shape, nor any other
    degrees = [T.degrees[i] for i in perm]
    [[fam_row]] = fams
    assert not _fits("ii", degrees, T.degrees[fam_row])
    assert not _fits("iii", degrees, T.degrees[fam_row])
    assert [t for t in MORITA_TYPES if _fits(t, degrees, T.degrees[fam_row])] == ["vi"]


@pytest.mark.parametrize("type_id", MORITA_TYPES)
def test_shapes_share_no_degree_profile(type_id):
    # every profile of the shape with simple dims in 1..8 (1,672 over the
    # six shapes): dec * dims in any row order, and fam * dims, fits this
    # shape with these dims and no other shape
    sh = solver._SHAPES[type_id]
    for dims in product(range(1, 9), repeat=len(sh["fam"])):
        degrees = [sum(a * x for a, x in zip(row, dims)) for row in sh["dec"]]
        fam_degree = sum(a * x for a, x in zip(sh["fam"], dims))
        assert _shape_dims(type_id, [*degrees, fam_degree]) == dims
        assert [t for t in MORITA_TYPES if _fits(t, degrees, fam_degree)] == [type_id]


def test_hint_free_inference():
    rep = analyze_group(builtin_group("psl27"), name=None)
    principal = next(b for b in rep["blocks"] if b["is_principal"])
    assert principal["morita"] == "vi"
    assert rep["mismatches"] == []


C3_PGL2_7 = ["(1 2 3 4 5 6 7)", "(1 8)(2 7)(3 4)(5 6)", "(2 4 3 7 5 6)(10 11)", "(9 10 11)"]


@pytest.mark.parametrize("name", ["psl27", "s5", "a7", "pgl2_11", "pgl2_13", "M11", "S7",
                                  "c3_pgl2_7"])
def test_report_does_not_depend_on_the_name(name, tmp_path):
    # a report reads the group, never the name it was given: only the
    # "group" label differs
    if name in ("pgl2_13", "M11", "S7"):
        G = generate(read_generator_file(GROUP_FILES / f"{name}.txt"))
    elif name == "c3_pgl2_7":
        f = tmp_path / "c3_pgl2_7.txt"
        f.write_text("\n".join(C3_PGL2_7) + "\n")
        G = generate(read_generator_file(f))
    else:
        G = builtin_group(name)
    named, unnamed = analyze_group(G, name=name), analyze_group(G, name=None)
    assert named.pop("group") == name and unnamed.pop("group") == "custom"
    assert named == unnamed


# sha256 of the canonical JSON report (sorted keys, no spaces) at seed 0;
# the same digests pin these groups in the benchmark's reference data
GOLDEN_SHA256 = {
    "psl27": "e6e1224e53bccf22b85961f9514b6753407b1244acb64cf80424d19323bf20dc",
    "s5": "171dda5ae3c1b2896ecba1a42e8e8896b5979caf9ca8b039680875cbdc094e5d",
    "a7": "f4f328b3eb653336accdf6d2943637881cccdada85a322d873218e3cf1eedb2f",
    "pgl2_11": "4730772ff018dbfceef49067dad2b3e890ab9898c133c93479dd7f3084e339a5",
}


@pytest.mark.parametrize("name", sorted(GOLDEN_SHA256))
def test_golden_report_digest(name):
    rep = analyze_group(builtin_group(name), name=name, seed=0)
    canonical = json.dumps(rep, sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(canonical.encode()).hexdigest() == GOLDEN_SHA256[name]


def _raising(exc):
    def dixon_table(_G):
        raise exc("raised by the test")
    return dixon_table


def test_scan_propagates_invariant_violations(monkeypatch, tmp_path):
    # an InvariantViolation is a bug, not a bad file: the scan must not hide it
    f = tmp_path / "d8.txt"
    f.write_text("(1 2 3 4)\n(1 3)\n")
    monkeypatch.setattr(pipeline, "dixon_table", _raising(InvariantViolation))
    with pytest.raises(InvariantViolation):
        scan_groups([f])
    # any other error still becomes the file's own entry
    monkeypatch.setattr(pipeline, "dixon_table", _raising(FieldTooSmall))
    [entry] = scan_groups([f])
    assert entry["error"] == "FieldTooSmall: raised by the test"


def test_refused_scan_files_keep_their_field_verdict():
    # these blocks need a GF(2^f) with no pinned primitive polynomial
    files = Path(__file__).resolve().parents[1] / "perfbench" / "groups"
    want = {"pgl2_17.txt": 24, "psl2_17.txt": 24, "psl2_19.txt": 36, "psl2_23.txt": 110}
    entries = scan_groups([files / name for name in want])
    assert [e["error"] for e in entries] == \
        [f"FieldTooSmall: no primitive polynomial pinned for f={f}" for f in want.values()]


def test_refused_scan_files_build_no_table(monkeypatch):
    # route guard: F reads only the class orders, so a file is refused
    # right after its classes, before any character table is built
    built = []
    monkeypatch.setattr(pipeline, "dixon_table", lambda G: built.append(G.order))
    want = {"pgl2_17.txt": 24, "psl2_17.txt": 24, "psl2_19.txt": 36, "psl2_23.txt": 110}
    entries = scan_groups([GROUP_FILES / name for name in want])
    assert built == []
    assert [e["error"] for e in entries] == \
        [f"FieldTooSmall: no primitive polynomial pinned for f={f}" for f in want.values()]


def test_class_cap_is_refused_before_the_field(monkeypatch):
    # psl2_17 has 11 classes and F = 24: the class cap speaks first
    monkeypatch.setattr(chartab, "CLASS_CAP", 5)
    [entry] = scan_groups([GROUP_FILES / "psl2_17.txt"])
    assert entry["error"] == "CapExceeded: 11 classes exceeds cap 5"


@pytest.mark.parametrize("gens,order,meataxe,predicted", [
    (C3_PGL2_7, 1008, [(2, 2), (12, 3)], [(2, 2), (6, 3), (6, 3)]),
    (["(1 2 3)(4 5 6)(7 8 9)", "(1 10)(2 3)(5 8)(6 9)", "(2 5 7 8 3 9 4 6)(12 13)",
      "(11 12 13)"],
     2160, [(2, 4), (16, 2)], [(2, 4), (8, 2), (8, 2)]),
], ids=["c3_pgl2_7", "c3_pgl2_9"])
def test_meataxe_factors_are_compared_over_the_closure(tmp_path, gens, order, meataxe,
                                                       predicted):
    # C3 x| PGL(2,q): PSL(2,q), the even permutations, centralizes the C3 on
    # the last three points and the odd ones invert it.  The type-(c) block
    # of defect 3 has a GF(2) factor with End = GF(4), which over the
    # closure is two conjugate modules of half its dimension, as the
    # classification counts them
    f = tmp_path / "c3_pgl.txt"
    f.write_text("\n".join(gens) + "\n")
    rep = analyze_group(generate(read_generator_file(f)), name="c3_pgl")
    assert rep["order"] == order and rep["mismatches"] == []
    [block] = [b for b in rep["blocks"] if b["etype"] == "c"]
    assert block["defect"] == 3
    assert block["meataxe"] == meataxe and block["predicted"] == predicted


S7_X_C2 = ["(1 2 3 4 5 6 7)", "(1 2)", "(8 9)"]


def test_s7xc2_splits_its_344_dimensional_cut(tmp_path):
    # S7 x C2 has the default order cap, 10080, and 216 orbitals on its 464
    # involutions.  Its principal cut, above 256 dimensions, is split like
    # every other cut: summands of dims 1 (x8), 14 (x4) and 70 (x4), all
    # within the valuation bounds
    f = tmp_path / "s7xc2.txt"
    f.write_text("\n".join(S7_X_C2) + "\n")
    rep = analyze_group(generate(read_generator_file(f)), name="s7xc2")
    assert rep["order"] == 10080 and rep["mismatches"] == []
    [block] = [b for b in rep["blocks"] if b["is_principal"]]
    assert block["komega_dim"] == 344
    assert block["summand_multiplicities"] == [4, 4, 8]
    assert block["valuation_ok"] is True
    assert block["meataxe"] == [(1, 16), (14, 12), (20, 8)]
