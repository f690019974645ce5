import json
import random
from collections import Counter
from fractions import Fraction
from functools import cache
from itertools import combinations

import pytest

import expbij.analyzer
import expbij.cli
import expbij.linalg
import expbij.matroid
import expbij.report
from expbij.analyzer import Caps, ExponentialMapSpec, _classify, analyze
from expbij.cli import ROBUST_KEYS, main
from expbij.linalg import InternalInconsistency, RationalMatrix, maximal_minor_signs, rank
from expbij.matroid import circuits, cocircuits, covectors, face_lattice, vectors
from expbij.report import build_report, canonical_json, digest_of, verify_certificate
from test_analyzer import (
    CC_EXAMPLE,
    CORPUS_SEED,
    EX1,
    EX2,
    FACE_GAP,
    SV_ALPHAS,
    direct_sum,
    random_spec,
    run_python,
    sv_example,
)


def write_json(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def matrix_json(entries):
    rows = len(entries)
    cols = len(entries[0])
    return {"rows": rows, "cols": cols, "entries": entries}


BIRCH = matrix_json([[1, 0], [0, 1]])
EX1_W = matrix_json([[1, 0, -1], [0, 1, 0]])
EX1_WT = matrix_json([[1, 0, -1], [0, 1, -1]])

SV_W = matrix_json([[0, 0, 1, 1, -1, 0], [1, -1, 0, 0, 0, -1], [0, 0, 1, -1, 0, 0]])


def sv_wt(alpha):
    return matrix_json([[1, 1, 0, 0, -1, alpha], [1, -1, 0, 0, 0, 0], [0, 0, 1, -1, 0, 0]])


def solve_args(tmp_path, c=(2,), y=(6,)):
    """`expbij solve` for F_c(x) = c exp(x) = y."""
    one = write_json(tmp_path, "M.json", matrix_json([[1]]))
    return ["solve", "--coeff", one, "--exp", one, "--c", write_json(tmp_path, "c.json", c),
            "--y", write_json(tmp_path, "y.json", y)]


def run_analyze(tmp_path, W, Wt, caps=None, out="report.json"):
    args = ["analyze",
            "--coeff", write_json(tmp_path, "W.json", W),
            "--exp", write_json(tmp_path, "Wt.json", Wt),
            "--out", str(tmp_path / out)]
    if caps:
        args += ["--caps", write_json(tmp_path, "caps.json", caps)]
    code = main(args)
    report = json.loads((tmp_path / out).read_text())
    return code, report


def test_analyze_birch_exit_zero(tmp_path):
    code, report = run_analyze(tmp_path, BIRCH, BIRCH)
    assert code == 0
    assert report["classification"] == "bijective-for-all-c"
    assert verify_certificate(report)


def test_analyze_caps_force_inconclusive(tmp_path):
    code, report = run_analyze(tmp_path, SV_W, sv_wt("3/2"),
                               caps={"max_partition_pairs": 0})
    assert code == 2
    assert report["conditions"]["iii"]["verdict"] == "inconclusive"
    assert "max_partition_pairs" in report["conditions"]["iii"]["detail"]
    assert report["classification"] == "inconclusive"


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    # the package's records are written-out classes (linalg.Record), so a
    # fresh import of the CLI builds no generated methods; dataclasses would
    # also load inspect
    proc = run_python("-c", "import sys, expbij.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_missing_file_exit_one(capsys):
    assert main(["analyze", "--coeff", "nope.json", "--exp", "nope.json"]) == 1
    assert "error:" in capsys.readouterr().err


def _one_error_line(capsys):
    err = capsys.readouterr().err
    return err.startswith("error: ") and err.count("\n") == 1


def test_directory_input_exit_one(tmp_path, capsys):
    assert main(["analyze", "--coeff", str(tmp_path), "--exp", str(tmp_path)]) == 1
    assert _one_error_line(capsys)


def test_non_utf8_input_exit_one(tmp_path, capsys):
    bad = tmp_path / "latin1.json"
    bad.write_bytes('{"rows": 1, "cols": 1, "entries": [["\u00e9"]]}'.encode("latin-1"))
    assert main(["analyze", "--coeff", str(bad), "--exp", str(bad)]) == 1
    assert _one_error_line(capsys)


def test_unwritable_output_exit_one(tmp_path, capsys):
    assert main(["analyze",
                 "--coeff", write_json(tmp_path, "W.json", EX1_W),
                 "--exp", write_json(tmp_path, "Wt.json", EX1_WT),
                 "--out", str(tmp_path / "missing_dir" / "x.json")]) == 1
    assert _one_error_line(capsys)


def test_unknown_flag_exit_one(capsys):
    assert main(["analyze", "--coeff", "a", "--exp", "b", "--bogus"]) == 1


def test_malformed_json_exit_one(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{не json")
    assert main(["analyze", "--coeff", str(bad), "--exp", str(bad)]) == 1


@pytest.mark.parametrize("text", ["[" + "9" * 5000 + "]", "[" * 100_000 + "]" * 100_000],
                         ids=["5000-digit-int", "100000-deep"])
def test_unreadable_json_values_exit_one(tmp_path, capsys, text):
    # an integer past the int-string limit, and nesting past the recursion limit
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    assert main(["analyze", "--coeff", str(bad), "--exp", str(bad)]) == 1
    assert _one_error_line(capsys)


# the last is well shaped, but "1_000" is not an entry (only a sign and ASCII digits)
@pytest.mark.parametrize("entries", [5, [5, 6], None, [["1_000", 2], [3, 4]]])
def test_malformed_matrix_shape_exit_one(tmp_path, capsys, entries):
    assert main(["analyze",
                 "--coeff", write_json(tmp_path, "W.json", {"entries": entries}),
                 "--exp", write_json(tmp_path, "Wt.json", BIRCH)]) == 1
    assert _one_error_line(capsys)


A_TO_B = {"from": {"stoich": {"A": 1}}, "to": {"stoich": {"B": 1}}}


@pytest.mark.parametrize("doc", [
    {"species": ["A", "B"], "reactions": [dict(A_TO_B, to="stoich")]},
    {"species": ["A", "B"], "reactions": [dict(A_TO_B, to=["stoich"])]},
    {"species": ["A", "B"], "reactions": [dict(A_TO_B, to=None)]},
    {"species": [["A"]], "reactions": [A_TO_B]},
    {"species": ["A", "B"], "reactions": [dict(A_TO_B, to={"stoich": None})]},
])
def test_malformed_network_shape_exit_one(tmp_path, capsys, doc):
    assert main(["crn", "analyze", write_json(tmp_path, "net.json", doc)]) == 1
    assert _one_error_line(capsys)


@pytest.mark.parametrize("flag", ["no", "false", [0], 1, None])
def test_reversible_must_be_a_bool(tmp_path, capsys, flag):
    # a truthy non-bool such as "no" must not add the reverse edge B -> A
    doc = {"species": ["A", "B"], "reactions": [dict(A_TO_B, reversible=flag)]}
    assert main(["crn", "analyze", write_json(tmp_path, "net.json", doc)]) == 1
    assert _one_error_line(capsys)


def test_dimension_mismatch_exit_one(tmp_path, capsys):
    code = main(["analyze",
                 "--coeff", write_json(tmp_path, "W.json", matrix_json([[1, 0, -1]])),
                 "--exp", write_json(tmp_path, "Wt.json", EX1_WT)])
    assert code == 1
    assert "d = d~" in capsys.readouterr().err


def test_matroid_subcommand(tmp_path, capsys):
    mat = write_json(tmp_path, "M.json", matrix_json([[1, 0, -1], [0, 1, -1]]))
    assert main(["matroid", "cocircuits", mat]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert sorted(out) == out
    assert set(out) == {"0+-", "0-+", "-0+", "+0-", "+-0", "-+0"}

    assert main(["matroid", "chirotope", mat]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out == ["1,2 +", "1,3 -", "2,3 +"]

    assert main(["matroid", "faces", write_json(tmp_path, "I.json", BIRCH)]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert set(out) == {"00", "+0", "0+", "++"}


@pytest.mark.parametrize("entries, problem", [
    ([[0, 0, 0]], "a full-rank configuration"),
    ([[0, 0, 0], [0, 0, 0]], "a full-rank configuration"),
    ([[1, 2, 3], [2, 4, 6]], "a full-rank configuration"),
    ([[1, 0, 1, 2], [0, 1, 1, 0], [1, 1, 2, 2]], "a full-rank configuration"),
    ([[1, 2], [2, 4], [0, 1]], "d <= n"),
])
def test_matroid_chirotope_rejects_rank_deficient_input(tmp_path, capsys, entries, problem):
    assert main(["matroid", "chirotope", write_json(tmp_path, "M.json", matrix_json(entries))]) == 1
    assert capsys.readouterr().err == f"error: chirotope needs {problem}\n"


@pytest.mark.parametrize("entries", [[[1, 0, -1], [0, 1, -1]], [[1, "1/2", 0, -2]],
                                     [[1, 1, 0, 2], [2, 2, 1, 0], [3, 3, 1, 2]]])
def test_matroid_vectors_subcommand(tmp_path, capsys, entries):
    W = RationalMatrix(entries)
    assert main(["matroid", "vectors", write_json(tmp_path, "M.json", matrix_json(entries))]) == 0
    assert capsys.readouterr().out.splitlines() == sorted(str(t) for t in vectors(W))


def test_matroid_subcommand_past_the_n_cap_exits_2(tmp_path, capsys):
    # the enumerated sets stop at n = 12 with the cap's message; the minimal
    # ones and the chirotope are read off the minor table at any n
    path = write_json(tmp_path, "M.json", matrix_json([[1] * 13]))
    for what, kind in (("covectors", "covector"), ("vectors", "vector"), ("faces", "covector")):
        assert main(["matroid", what, path]) == 2
        assert capsys.readouterr().err == f"inconclusive: {kind} enumeration capped at n <= 12, got n = 13\n"
    for what in ("circuits", "cocircuits", "chirotope"):
        assert main(["matroid", what, path]) == 0
        assert capsys.readouterr().out


def test_matroid_sign_set_output_is_the_sorted_strings(tmp_path, capsys):
    # n = 9 and 10 take two bytes of str_order tables; rank-deficient matrices
    # and zero columns are drawn too
    rng = random.Random(4242)
    kinds = Counter()
    for k in range(8):
        n, d = 9 + k % 2, rng.randint(1, 4)
        rows = [[rng.choice((-2, -1, 0, 0, 1, 2)) for _ in range(n)] for _ in range(d)]
        if k % 4 == 1:
            rows.append([a - b for a, b in zip(rows[0], rows[-1])])
        if k % 4 == 2:
            for row in rows:
                row[rng.randrange(n)] = 0
        W = RationalMatrix(rows)
        kinds["deficient" if rank(W) < W.rows else "full rank"] += 1
        kinds["zero column"] += any(all(x == 0 for x in W.column(j)) for j in range(n))
        path = write_json(tmp_path, "M.json", matrix_json(rows))
        for what, sign_set in (("circuits", circuits), ("cocircuits", cocircuits),
                               ("covectors", covectors), ("vectors", vectors),
                               ("faces", lambda m: face_lattice(m).faces)):
            assert main(["matroid", what, path]) == 0
            want = "".join(line + "\n" for line in sorted(str(t) for t in sign_set(W)))
            assert capsys.readouterr().out == want, (what, rows)
    assert kinds["deficient"] and kinds["full rank"] and kinds["zero column"], kinds


def test_crn_subcommand(tmp_path):
    net = {
        "species": ["A", "B"],
        "reactions": [{"from": {"stoich": {"A": 1}}, "to": {"stoich": {"B": 1}},
                       "reversible": True, "k": 1}],
    }
    out = tmp_path / "crn.json"
    code = main(["crn", "analyze", write_json(tmp_path, "net.json", net), "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["unique_equilibrium"]["verdict"] == "holds"
    assert report["robust_unique_equilibrium"]["verdict"] == "holds"
    assert report["network"]["deficiency"] == 0
    assert verify_certificate(report["unique_equilibrium"]["analysis"])


def test_solve_subcommand(tmp_path, capsys):
    assert main(solve_args(tmp_path)) == 0
    result = json.loads(capsys.readouterr().out)
    assert result["status"] == "converged"
    assert abs(result["x"][0] - 1.0986122886681098) < 1e-9


@pytest.mark.parametrize("seed", [["--seed", "-1"], ["--seed=-1"], ["--seed", "x"]])
def test_solve_rejects_negative_seed(tmp_path, capsys, seed):
    assert main(solve_args(tmp_path) + ["--starts", "3", *seed]) == 1
    assert _one_error_line(capsys)


@pytest.mark.parametrize("starts", ["0", "-5"])
def test_solve_rejects_nonpositive_starts(tmp_path, capsys, starts):
    assert main(solve_args(tmp_path) + ["--starts", starts]) == 1
    assert _one_error_line(capsys)


def test_exact_subcommands_run_without_numpy(tmp_path):
    # only `solve` needs numpy; the exact subcommands must not import it
    mat = write_json(tmp_path, "M.json", EX1_WT)
    net = write_json(tmp_path, "net.json", {"species": ["A", "B"],
                                            "reactions": [dict(A_TO_B, reversible=True)]})
    code = "import sys; sys.modules['numpy'] = None; from expbij.cli import main; sys.exit(main())"
    for args in (["analyze", "--coeff", mat, "--exp", mat], ["matroid", "circuits", mat],
                 ["crn", "analyze", net]):
        proc = run_python("-c", code, *args)
        assert proc.returncode == 0, (args, proc.stderr)


@pytest.mark.parametrize("caps", [
    {"max_n_enumeration": "x"},
    {"max_n_enumeration": True},
    {"max_n_enumeration": -1},
    {"max_partition_pairs": 2.5},
    {"max_blocks": None},
    [],
])
def test_bad_caps_exit_one(tmp_path, capsys, caps):
    code = main(["analyze",
                 "--coeff", write_json(tmp_path, "W.json", BIRCH),
                 "--exp", write_json(tmp_path, "Wt.json", BIRCH),
                 "--caps", write_json(tmp_path, "caps.json", caps)])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: caps")


def test_zero_caps_are_accepted(tmp_path):
    code, report = run_analyze(tmp_path, BIRCH, BIRCH, caps={"max_blocks": 0})
    assert code == 0 and report["caps"]["max_blocks"] == 0


@pytest.mark.parametrize("c, y", [
    ([2, 3], [6]),        # c longer than n
    ([], [6]),            # c shorter than n
    (["2"], [6]),         # a string is not a number
    ([True], [6]),        # nor is a boolean
    ([0], [6]),           # c must be positive
    ([-1.5], [6]),
    ([10 ** 400], [6]),   # does not fit a double
    ([float("inf")], [6]),
    ({"c": 2}, [6]),
    ([2], ["6"]),
    ([2], [False]),
    ([2], [6, 7]),
    ([2], [float("nan")]),
])
def test_solve_rejects_bad_vectors(tmp_path, capsys, c, y):
    assert main(solve_args(tmp_path, c, y)) == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_report_verifies_and_tamper_detected(tmp_path):
    code, report = run_analyze(tmp_path, SV_W, sv_wt(2))
    assert code == 0
    assert report["classification"] == "injective-not-bijective"
    assert verify_certificate(report)

    tampered = json.loads(json.dumps(report))
    cert = tampered["conditions"]["iii"]["certificate"]
    cert["direction"][0] = "9999"
    assert not verify_certificate(tampered)

    tampered2 = json.loads(json.dumps(report))
    tampered2["classification"] = "bijective-for-all-c"
    assert not verify_certificate(tampered2)


def test_reports_deterministic(tmp_path):
    _, r1 = run_analyze(tmp_path, SV_W, sv_wt(2), out="r1.json")
    _, r2 = run_analyze(tmp_path, SV_W, sv_wt(2), out="r2.json")
    assert canonical_json(r1) == canonical_json(r2)
    assert (tmp_path / "r1.json").read_text() == (tmp_path / "r2.json").read_text()
    # runtimes live on the in-memory report and are stripped from canonical output
    spec = ExponentialMapSpec(RationalMatrix(SV_W["entries"]), RationalMatrix(sv_wt(2)["entries"]))
    rep = build_report(analyze(spec), {})
    assert rep["runtimes_ms"] and "runtimes_ms" not in canonical_json(rep)
    # one entry per condition; the sign-set comparison reads the chirotopes
    assert set(rep["runtimes_ms"]) == set(rep["conditions"])


def test_robust_flag_filters_conditions(tmp_path):
    args = ["analyze",
            "--coeff", write_json(tmp_path, "W.json", BIRCH),
            "--exp", write_json(tmp_path, "Wt.json", BIRCH),
            "--robust", "exponents",
            "--out", str(tmp_path / "r.json")]
    assert main(args) == 0
    report = json.loads((tmp_path / "r.json").read_text())
    assert "robust_exponents" in report["conditions"]
    assert "robust_coefficients" not in report["conditions"]
    assert "robust_both" not in report["conditions"]


def test_build_report_round_trip():
    spec = ExponentialMapSpec(RationalMatrix([[1, 0], [0, 1]]), RationalMatrix([[1, 0], [0, 1]]))
    rep = analyze(spec)
    report = build_report(rep, {"coeff_sha256": digest_of(BIRCH), "exp_sha256": digest_of(BIRCH)})
    text = canonical_json(report)
    assert json.loads(text) == json.loads(canonical_json(json.loads(text)))
    assert verify_certificate(report)


def test_verify_certificate_rejects_malformed_reports():
    spec = ExponentialMapSpec(RationalMatrix(SV_W["entries"]), RationalMatrix(sv_wt(2)["entries"]))
    report = json.loads(canonical_json(build_report(analyze(spec), {})))
    assert report["conditions"]["iii"]["verdict"] == "fails"
    assert verify_certificate(report)

    as_list = json.loads(json.dumps(report))
    as_list["conditions"] = list(as_list["conditions"].values())
    string_entry = json.loads(json.dumps(report))
    string_entry["conditions"]["ii"] = "holds"
    block_out_of_range = json.loads(json.dumps(report))
    block_out_of_range["conditions"]["iii"]["certificate"]["blocks"][0]["indices"] = [99]
    for bad in (as_list, string_entry, block_out_of_range):
        assert verify_certificate(bad) is False


VERIFY_EXAMPLES = {
    "NONINJ": ([[1, 1]], [[1, -1]]),
    "CC_EXAMPLE": ([[1, 1, -1]], [[1, 0, -1]]),
    "EX1": (EX1_W["entries"], EX1_WT["entries"]),
    "FACE_GAP": ([[1, 1, 0], [0, 1, 1]], [[1, 0, -1], [0, 1, 0]]),
    # robust_coefficients fails with face-sets-differ, then cone-not-robustly-generated
    "FACES_DIFFER": ([[-1, -1, 0, 2], [-2, -1, -1, -2]], [[2, 1, 2, 1], [-2, 1, -2, -1]]),
    "NOT_ROBUSTLY_GENERATED": ([[1, 1, 1], [-2, -2, 1]], [[-2, -2, 2], [-2, -2, -1]]),
    # cc and cc_prime fail, and both robust forms embed their closure certificates
    "FOUR_CLOSURES": ([[1, 1, 1]], [[1, 1, -1]]),
}


# where: None drops the certificate of a "fails"; a tuple is the path to the
# certificate's "reason", which is replaced by one the analyzer never emits
@pytest.mark.parametrize("example, key, where", [
    ("NONINJ", "injectivity_minors", None),
    ("NONINJ", "robust_exponents", None),
    ("CC_EXAMPLE", "robust_exponents", None),
    ("NONINJ", "robust_both", None),
    ("EX1", "robust_both", None),
    ("NONINJ", "robust_coefficients", ()),
    ("EX1", "robust_coefficients", ()),
    ("FACE_GAP", "robust_coefficients", ()),
    ("NONINJ", "robust_both", ()),
    ("NONINJ", "robust_exponents", ("minor_form",)),
    ("FACES_DIFFER", "robust_coefficients", ()),
    ("NOT_ROBUSTLY_GENERATED", "robust_coefficients", ()),
])
def test_verify_certificate_rejects_unchecked_fails(example, key, where):
    W, Wt = VERIFY_EXAMPLES[example]
    spec = ExponentialMapSpec(RationalMatrix(W), RationalMatrix(Wt))
    report = json.loads(canonical_json(build_report(analyze(spec), {})))
    assert verify_certificate(report)
    entry = report["conditions"][key]
    assert entry["verdict"] == "fails"
    if where is None:
        entry["certificate"] = None
    else:
        cert = entry["certificate"]
        for field in where:
            cert = cert[field]
        cert["reason"] = "unknown-reason"
    assert verify_certificate(report) is False


@pytest.mark.parametrize("n", [64, 65, 70])
def test_verify_certificate_accepts_sign_vectors_longer_than_64(n):
    # W = (1 ... 1), Wt the same with its last entry -1: not injective, with
    # i, cc, cc_prime and the robust forms failing on sign vectors of length n
    spec = ExponentialMapSpec(RationalMatrix([[1] * n]), RationalMatrix([[1] * (n - 1) + [-1]]))
    report = json.loads(canonical_json(build_report(analyze(spec), {})))
    assert report["classification"] == "not-injective"
    assert all(report["conditions"][k]["verdict"] == "fails" for k in ("i", "cc", "cc_prime"))
    assert verify_certificate(report)


@cache
def _corpus_reports() -> tuple[str, ...]:
    """Canonical reports of the first 150 pairs of the random corpus (seed 90125)."""
    rng = random.Random(CORPUS_SEED)
    return tuple(canonical_json(build_report(analyze(random_spec(rng)), {})) for _ in range(150))


# a failing minor form flipped to holds, alone or together with the
# conditions the theorems equate it with; the last kind filters the robust
# keys as `analyze --robust both` does, which leaves cc without a partner
MINOR_FORGERIES = {
    "i": ("i",),
    "i and injectivity_minors": ("i", "injectivity_minors"),
    "cc": ("cc",),
    "cc and robust_exponents": ("cc", "robust_exponents"),
    "cc_prime": ("cc_prime",),
    "robust_both": ("robust_both",),
    "cc under --robust both": ("cc",),
}


def test_verify_certificate_rejects_forged_minor_form_holds():
    # with every flipped certificate dropped and the class re-derived, the
    # forgery agrees with the rest of the report; only the minor signs show it
    flips = Counter()
    for text in _corpus_reports():
        assert verify_certificate(json.loads(text))
        for kind, keys in MINOR_FORGERIES.items():
            forged = json.loads(text)
            conditions = forged["conditions"]
            if kind == "cc under --robust both":
                conditions = forged["conditions"] = {
                    k: v for k, v in conditions.items()
                    if not k.startswith("robust_") or k in ROBUST_KEYS["both"]}
                assert verify_certificate(forged)
            if conditions[keys[0]]["verdict"] != "fails":
                continue
            for key in keys:
                conditions[key].update(verdict="holds", certificate=None)
            forged["classification"] = _classify(*(conditions[k]["verdict"] for k in ("i", "ii", "iii")))
            assert verify_certificate(forged) is False, (kind, forged["map"])
            flips[kind] += 1
    assert set(flips) == set(MINOR_FORGERIES) and min(flips.values()) >= 100, flips


def test_verify_certificate_checks_sign_sets_equal():
    # sign_sets_equal must say whether the two minor-sign tables agree up to
    # one global sign; flipping it is rejected either way
    seen = Counter()
    for text in _corpus_reports()[:60]:
        report = json.loads(text)
        seen[report["sign_sets_equal"]] += 1
        report["sign_sets_equal"] = not report["sign_sets_equal"]
        assert verify_certificate(report) is False, report["map"]
    assert seen[True] >= 5 and seen[False] >= 5, seen


def _tamper_map(report, how):
    """The report with its map block changed so that it disagrees with its own
    matrices: d raised by one, a copy of row 0 appended to the canonical
    coefficient matrix (with its row count), or that row doubled."""
    m = report["map"]
    coeff = m["canonical_coeff"]
    if how == "d + 1":
        m["d"] += 1
    elif how == "row 0 appended":
        coeff["entries"].append(list(coeff["entries"][0]))
        coeff["rows"] += 1
    else:
        coeff["entries"][0] = [str(2 * Fraction(x)) for x in coeff["entries"][0]]
    return report


def test_verify_certificate_rejects_a_map_that_disagrees_with_its_matrices():
    # n, d and d_tilde must be the matrices' shapes with d = d_tilde, and each
    # canonical matrix a full-rank reduced row echelon form; the minor tables
    # alone do not show these tamperings
    texts = [canonical_json(build_report(analyze(spec), {})) for spec in (EX1, EX2, CC_EXAMPLE, FACE_GAP)]
    for text in texts + list(_corpus_reports()):
        assert verify_certificate(json.loads(text))
        for how in ("d + 1", "row 0 appended", "row 0 doubled"):
            assert verify_certificate(_tamper_map(json.loads(text), how)) is False, (how, text)


@pytest.mark.parametrize("key, verdict", [
    ("ii", "maybe"), ("iii", "maybe"), ("iv", "maybe"), ("newton", "maybe"),
    ("robust_coefficients", "maybe"), ("ii", "inconclusive"),
])
def test_verify_certificate_rejects_unknown_verdicts(key, verdict):
    # a verdict is holds, fails or inconclusive, and condition ii takes no cap
    W, Wt = VERIFY_EXAMPLES["EX1"]
    spec = ExponentialMapSpec(RationalMatrix(W), RationalMatrix(Wt))
    report = json.loads(canonical_json(build_report(analyze(spec), {})))
    assert verify_certificate(report)
    conditions = report["conditions"]
    conditions[key]["verdict"] = verdict
    report["classification"] = _classify(*(conditions[k]["verdict"] for k in ("i", "ii", "iii")))
    assert verify_certificate(report) is False


def _forge(text, key, **entry):
    """The report with one condition entry changed and the class re-derived."""
    report = json.loads(text)
    conditions = report["conditions"]
    conditions[key].update(entry)
    report["classification"] = _classify(*(conditions[k]["verdict"] for k in ("i", "ii", "iii")))
    return report


def test_verify_certificate_requires_one_covering_per_facet():
    # a holds for ii names one covering per facet of cone(Wt): dropping the
    # certificate of a failing ii, or one covering of a true one, is rejected
    flipped = dropped = 0
    for text in _corpus_reports():
        entry = json.loads(text)["conditions"]["ii"]
        if entry["verdict"] == "fails":
            forged = _forge(text, "ii", verdict="holds", certificate=None)
            assert verify_certificate(forged) is False, forged["map"]
            flipped += 1
        elif entry["certificate"] is not None:
            coverings = entry["certificate"]["coverings"]
            for k in range(len(coverings)):
                cert = {"coverings": coverings[:k] + coverings[k + 1:]}
                forged = _forge(text, "ii", certificate=cert if cert["coverings"] else None)
                assert verify_certificate(forged) is False, (forged["map"], k)
                dropped += 1
    assert flipped >= 50 and dropped >= 10, (flipped, dropped)


def test_verify_certificate_rejects_zero_faces_in_ii():
    # the zero face is realized by the zero functional and covered by nothing,
    # but it is not a facet, nor does it cover one
    W, Wt = VERIFY_EXAMPLES["EX1"]
    spec = ExponentialMapSpec(RationalMatrix(W), RationalMatrix(Wt))
    text = canonical_json(build_report(analyze(spec), {}))
    zeros = ["0"] * 3
    forged = _forge(text, "ii", verdict="fails", certificate={
        "uncovered_face": "000", "exponent_functional": zeros[:2], "kernel_interior_evidence": zeros})
    assert forged["classification"] == "injective-not-bijective"
    assert verify_certificate(forged) is False

    W, Wt = VERIFY_EXAMPLES["FACE_GAP"]
    spec = ExponentialMapSpec(RationalMatrix(W), RationalMatrix(Wt))
    text = canonical_json(build_report(analyze(spec), {}))
    cover = {"exponent_face": "0+0", "exponent_functional": ["0", "1"],
             "coeff_face": "000", "coeff_functional": ["0", "0"]}
    forged = _forge(text, "ii", verdict="holds", certificate={"coverings": [cover]})
    assert verify_certificate(forged) is False


CONE_REASONS = ("reversed-closure-fails", "all-plus-covector-missing", "face-sets-differ",
                "cone-not-robustly-generated")


def test_verify_certificate_rejects_forged_robust_coefficients():
    # cc_prime's minor form and the facets of both cones decide the verdict
    # and the reason: every failing robust_coefficients flipped to holds, and
    # every fails that names another valid reason, is rejected
    texts = _corpus_reports() + tuple(
        canonical_json(build_report(analyze(ExponentialMapSpec(RationalMatrix(W), RationalMatrix(Wt))), {}))
        for W, Wt in (VERIFY_EXAMPLES["FACES_DIFFER"], VERIFY_EXAMPLES["NOT_ROBUSTLY_GENERATED"]))
    flipped, swapped = Counter(), 0
    for text in texts:
        cert = json.loads(text)["conditions"]["robust_coefficients"]["certificate"]
        if cert is None:
            continue
        forged = _forge(text, "robust_coefficients", verdict="holds", certificate=None)
        assert verify_certificate(forged) is False, forged["map"]
        flipped[cert["reason"]] += 1
        for reason in CONE_REASONS:
            if reason != cert["reason"]:
                forged = _forge(text, "robust_coefficients", certificate={**cert, "reason": reason})
                assert verify_certificate(forged) is False, (forged["map"], reason)
                swapped += 1
    # 113 flips from the corpus, one from each of the two examples
    assert flipped == {"reversed-closure-fails": 111, "all-plus-covector-missing": 2,
                       "face-sets-differ": 1, "cone-not-robustly-generated": 1}, flipped
    assert swapped == 3 * sum(flipped.values())


def _moment_curve(n):
    """W = Wt with columns (t, t^2, 1), t = 0..n-1: a pointed cone with every
    column alone on an extreme ray, so robust_coefficients holds."""
    W = RationalMatrix([list(range(n)), [t * t for t in range(n)], [1] * n])
    return ExponentialMapSpec(W, W)


def _sum_of(example, k):
    W, Wt = VERIFY_EXAMPLES[example]
    return direct_sum([ExponentialMapSpec(RationalMatrix(W), RationalMatrix(Wt))] * k)


# pairs past the default n cap: the facets decide robust_coefficients, and
# only the separating face of differing face sets takes the cap
ABOVE_CAP_CONES = {
    "moment curve, n = 13": (lambda: _moment_curve(13), "holds", None, None),
    "moment curve, n = 16": (lambda: _moment_curve(16), "holds", None, None),
    "moment curve, n = 20": (lambda: _moment_curve(20), "holds", None, None),
    "FACE_GAP x 5, n = 15": (lambda: _sum_of("FACE_GAP", 5), "fails",
                             {"reason": "all-plus-covector-missing"}, None),
    "NOT_ROBUSTLY_GENERATED x 5, n = 15": (lambda: _sum_of("NOT_ROBUSTLY_GENERATED", 5), "fails",
                                           {"reason": "cone-not-robustly-generated"}, None),
    "FACES_DIFFER x 4, n = 16": (lambda: _sum_of("FACES_DIFFER", 4), "inconclusive", None,
                                 "covector enumeration capped at n <= 12, got n = 16"),
}


@pytest.mark.parametrize("label", list(ABOVE_CAP_CONES))
def test_robust_coefficients_past_the_n_cap(label):
    make, verdict, cert, detail = ABOVE_CAP_CONES[label]
    rep = analyze(make())
    assert rep.n > Caps().max_n_enumeration and rep.cones == {"coeff": None, "exp": None}
    rc = rep.conditions["robust_coefficients"]
    assert (rc.verdict, rc.certificate, rc.detail) == (verdict, cert, detail)
    assert verify_certificate(build_report(rep, {}))


def test_verify_certificate_requires_the_tables_first_subsets():
    # a minor certificate names the first subsets of the one scan; another
    # subset whose product also opposes the reference is rejected
    replaced = 0
    for text in _corpus_reports():
        report = json.loads(text)
        cert = report["conditions"]["injectivity_minors"]["certificate"]
        if "violating_subset" not in cert:
            continue
        W, Wt = (RationalMatrix.from_json_dict(report["map"][k])
                 for k in ("canonical_coeff", "canonical_exponents"))
        sw, swt = maximal_minor_signs(W), maximal_minor_signs(Wt)

        def product(I):
            mask = sum(1 << i for i in I)
            return sw.get(mask, 0) * swt.get(mask, 0)

        ref = product(i - 1 for i in cert["reference_subset"])
        later = [[i + 1 for i in I] for I in combinations(range(W.cols), W.rows) if product(I) == -ref]
        assert later[0] == cert["violating_subset"]
        if len(later) > 1:
            cert["violating_subset"] = later[1]
            assert verify_certificate(report) is False, report["map"]
            replaced += 1
    assert replaced >= 30, replaced


FUZZ_VALUES = (None, "1/0", [], {}, 1.5, True, "+-0", "7" * 5000, list(range(100)))


def _leaf_paths(obj, path=()):
    """Paths to the values in obj that are not a nonempty dict or list."""
    if isinstance(obj, (dict, list)) and obj:
        for k, v in obj.items() if isinstance(obj, dict) else enumerate(obj):
            yield from _leaf_paths(v, path + (k,))
    else:
        yield path


def test_verify_certificate_returns_a_bool_on_mutated_reports():
    # 1-3 leaves of a genuine report replaced by values of the wrong type,
    # size or form; the verifier must answer True or False and never raise
    specs = [sv_example(Fraction(a)) for a in SV_ALPHAS] + [EX1, EX2, FACE_GAP]
    texts = _corpus_reports()[:28] + tuple(
        canonical_json(build_report(analyze(spec), {})) for spec in specs)
    rng = random.Random(4242)
    answers = Counter()
    for text in texts:
        paths = list(_leaf_paths(json.loads(text)))
        for _ in range(75):
            report = json.loads(text)
            for path in rng.sample(paths, rng.randint(1, 3)):
                parent = report
                for k in path[:-1]:
                    parent = parent[k]
                parent[path[-1]] = rng.choice(FUZZ_VALUES)
            answer = verify_certificate(report)
            assert type(answer) is bool
            answers[answer] += 1
    assert answers[False] > answers[True] > 0, answers


def test_verify_certificate_checks_the_separating_face():
    # the separating face must lie in exactly one of the two face sets
    W, Wt = VERIFY_EXAMPLES["FACES_DIFFER"]
    spec = ExponentialMapSpec(RationalMatrix(W), RationalMatrix(Wt))
    report = json.loads(canonical_json(build_report(analyze(spec), {})))
    cert = report["conditions"]["robust_coefficients"]["certificate"]
    assert cert == {"reason": "face-sets-differ", "separating_face": "+++0"}
    assert verify_certificate(report)
    shared = set(report["cones"]["coeff"]["faces"]) & set(report["cones"]["exp"]["faces"])
    for face in sorted(shared):
        cert["separating_face"] = face
        assert verify_certificate(report) is False, face


def test_verify_certificate_checks_the_cones():
    # the cones block is the two face lattices up to the report's n cap and
    # null past it: a flipped all-plus flag, a dropped face or a lattice past
    # the cap is rejected
    rejected = Counter()
    for text in _corpus_reports():
        report = json.loads(text)
        cone = report["cones"]["coeff"]
        cone["all_plus_covector"] = not cone["all_plus_covector"]
        rejected["all_plus_covector"] += verify_certificate(report) is False
        report = json.loads(text)
        del report["cones"]["exp"]["faces"][0]
        rejected["faces"] += verify_certificate(report) is False
    assert rejected == {"all_plus_covector": 150, "faces": 150}, rejected
    spec = ABOVE_CAP_CONES["moment curve, n = 13"][0]()
    report = build_report(analyze(spec), {})
    assert verify_certificate(report)
    report["cones"] = build_report(analyze(spec, Caps(max_n_enumeration=13)), {})["cones"]
    assert verify_certificate(report) is False


@pytest.mark.parametrize("example, verdict", [("NONINJ", "fails"), ("EX1", "holds")])
def test_verify_certificate_checks_i_past_the_cap(example, verdict):
    # past the n cap i still takes the minor form's verdict: a failing i
    # carries its common sign vector, whose witnesses must match it, and a
    # holding i carries no certificate
    W, Wt = VERIFY_EXAMPLES[example]
    spec = ExponentialMapSpec(RationalMatrix(W), RationalMatrix(Wt))
    report = json.loads(canonical_json(build_report(analyze(spec, Caps(max_n_enumeration=1)), {})))
    entry = report["conditions"]["i"]
    assert entry["verdict"] == verdict and entry["detail"] is None
    assert verify_certificate(report)
    tampered = json.loads(json.dumps(report))
    if verdict == "fails":
        sigma = entry["certificate"]["common_sign_vector"]
        assert sigma == "+-"
        tampered["conditions"]["i"]["certificate"]["common_sign_vector"] = sigma[::-1]
    else:
        assert entry["certificate"] is None
        tampered["conditions"]["i"]["certificate"] = report["conditions"]["injectivity_minors"]["certificate"]
    assert verify_certificate(tampered) is False


def test_verify_certificate_computes_each_minor_table_once(monkeypatch):
    spec = ExponentialMapSpec(RationalMatrix(SV_W["entries"]), RationalMatrix(sv_wt(2)["entries"]))
    report = json.loads(canonical_json(build_report(analyze(spec), {})))
    for key in ("injectivity_minors", "robust_exponents", "robust_both"):
        assert report["conditions"][key]["certificate"] is not None
    calls = []
    monkeypatch.setattr(expbij.matroid, "maximal_minor_signs",
                        lambda M: calls.append(M) or maximal_minor_signs(M))
    assert verify_certificate(report)
    assert len(calls) == 2


def test_verify_certificate_builds_no_kernel_basis(monkeypatch):
    # four closure certificates (cc, cc_prime and the closure forms of both
    # robustness conditions) over the report's two matrices: each orthogonal
    # witness is checked against the rows of the other matrix, not its kernel.
    # The analyzer reads each witness's LP rows off an integer echelon, so it
    # builds integer kernel rows but no Fraction kernel basis
    W, Wt = VERIFY_EXAMPLES["FOUR_CLOSURES"]
    spec = ExponentialMapSpec(RationalMatrix(W), RationalMatrix(Wt))
    report = json.loads(canonical_json(build_report(analyze(spec), {})))
    conditions = report["conditions"]
    assert conditions["cc"]["verdict"] == conditions["cc_prime"]["verdict"] == "fails"
    assert "closure_form" in conditions["robust_exponents"]["certificate"]
    assert "closure_form" in conditions["robust_coefficients"]["certificate"]
    calls = []
    for module in (expbij.linalg, expbij.matroid, expbij.analyzer):
        for name in ("kernel_basis", "_kernel_ints"):
            if hasattr(module, name):
                built = getattr(module, name)
                monkeypatch.setattr(module, name,
                                    lambda *a, name=name, built=built: calls.append(name) or built(*a))
    assert verify_certificate(report)
    assert calls == []
    analyze(ExponentialMapSpec(RationalMatrix(W), RationalMatrix(Wt)))
    assert "_kernel_ints" in calls and "kernel_basis" not in calls


@pytest.mark.parametrize("key, own", [("robust_exponents", "cc"), ("robust_coefficients", "cc_prime")])
def test_verify_certificate_checks_each_distinct_closure_certificate(monkeypatch, key, own):
    # the embedded closure_form must equal its condition's certificate, which
    # is checked once per report: a copy made invalid is rejected, and so is
    # a copy that is a different valid certificate (a scaled witness or
    # kernel vector), while scaling both copies alike keeps a valid report
    W, Wt = VERIFY_EXAMPLES["FOUR_CLOSURES"]
    text = canonical_json(build_report(analyze(ExponentialMapSpec(RationalMatrix(W), RationalMatrix(Wt))), {}))
    report = json.loads(text)
    assert report["conditions"][key]["certificate"]["closure_form"] == report["conditions"][own]["certificate"]
    calls = []
    checked = expbij.report._verify_closure_cert
    monkeypatch.setattr(expbij.report, "_verify_closure_cert", lambda *a: calls.append(a[2]) or checked(*a))
    assert verify_certificate(report)
    assert sorted(calls) == ["cc", "cc_prime"]
    for keys, field, scale in (((key,), "orthogonal_witness", -1), ((own,), "orthogonal_witness", -1),
                               ((key,), "orthogonal_witness", 2), ((own,), "orthogonal_witness", 2),
                               ((key,), "kernel_vector", 2), ((key, own), "kernel_vector", 2)):
        forged = json.loads(text)
        for k in keys:
            cert = forged["conditions"][k]["certificate"]
            cert = cert.get("closure_form", cert)
            cert[field] = [str(scale * Fraction(x)) for x in cert[field]]
        assert verify_certificate(forged) is (len(keys) == 2), (keys, field, scale)


@pytest.mark.parametrize("key", ["cc", "robust_exponents", "robust_coefficients"])
def test_verify_certificate_rejects_a_closure_certificate_nested_too_deep(key):
    # a kernel vector nested 5,000 lists deep is malformed: the verifier
    # answers False rather than raising RecursionError
    W, Wt = VERIFY_EXAMPLES["FOUR_CLOSURES"]
    spec = ExponentialMapSpec(RationalMatrix(W), RationalMatrix(Wt))
    report = json.loads(canonical_json(build_report(analyze(spec), {})))
    cert = report["conditions"][key]["certificate"]
    deep = []
    for _ in range(5000):
        deep = [deep]
    cert.get("closure_form", cert)["kernel_vector"] = deep
    assert verify_certificate(report) is False


def test_internal_inconsistency_exit_three(tmp_path, monkeypatch, capsys):
    def broken(*args, **kwargs):
        raise InternalInconsistency("simplex returned a point violating the system")

    monkeypatch.setattr(expbij.cli, "analyze", broken)
    args = ["analyze",
            "--coeff", write_json(tmp_path, "W.json", BIRCH),
            "--exp", write_json(tmp_path, "Wt.json", BIRCH)]
    assert main(args) == 3
    assert "internal error" in capsys.readouterr().err


def test_missing_covering_functional_exit_three(tmp_path, monkeypatch, capsys):
    # condition ii's coverings name both faces' functionals; a face covector
    # without one is a bug, reported as such rather than as a TypeError
    # traceback
    monkeypatch.setattr(expbij.matroid.OrientedMatroid, "covector_point", lambda om, x: None)
    args = ["analyze",
            "--coeff", write_json(tmp_path, "W.json", BIRCH),
            "--exp", write_json(tmp_path, "Wt.json", BIRCH)]
    assert main(args) == 3
    assert capsys.readouterr().err.startswith("internal error: ")
