import json

import pytest

import expbij.cli
import expbij.matroid
import expbij.report
from expbij.analyzer import Caps, ExponentialMapSpec, analyze
from expbij.cli import main
from expbij.linalg import InternalInconsistency, RationalMatrix, kernel_basis, maximal_minors
from expbij.matroid import vectors
from expbij.report import build_report, canonical_json, digest_of, verify_certificate
from test_analyzer import run_python


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


@pytest.mark.parametrize("entries", [[[1, 0, -1], [0, 1, -1]], [[1, "1/2", 0, -2]],
                                     [[1, 1, 0, 2], [2, 2, 1, 0], [3, 3, 1, 2]]])
def test_matroid_vectors_subcommand(tmp_path, capsys, entries):
    W = RationalMatrix(entries)
    assert main(["matroid", "vectors", write_json(tmp_path, "M.json", matrix_json(entries))]) == 0
    assert capsys.readouterr().out.splitlines() == sorted(str(t) for t in vectors(W))


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


@pytest.mark.parametrize("example, verdict", [("NONINJ", "fails"), ("EX1", "holds")])
def test_verify_certificate_reads_minor_form_of_capped_i(example, verdict):
    # with the sign form of i capped, i carries the minor-form certificate
    W, Wt = VERIFY_EXAMPLES[example]
    spec = ExponentialMapSpec(RationalMatrix(W), RationalMatrix(Wt))
    report = json.loads(canonical_json(build_report(analyze(spec, Caps(max_n_enumeration=1)), {})))
    entry = report["conditions"]["i"]
    assert entry["verdict"] == verdict and "reference_subset" in entry["certificate"]
    assert verify_certificate(report)
    tampers = [("reference_sign", "-" if entry["certificate"]["reference_sign"] == "+" else "+")]
    if verdict == "fails":
        tampers.append(("violating_subset", entry["certificate"]["reference_subset"]))
    for field, value in tampers:
        tampered = json.loads(json.dumps(report))
        tampered["conditions"]["i"]["certificate"][field] = value
        assert verify_certificate(tampered) is False, field


def test_verify_certificate_computes_each_minor_table_once(monkeypatch):
    spec = ExponentialMapSpec(RationalMatrix(SV_W["entries"]), RationalMatrix(sv_wt(2)["entries"]))
    report = json.loads(canonical_json(build_report(analyze(spec), {})))
    for key in ("injectivity_minors", "robust_exponents", "robust_both"):
        assert report["conditions"][key]["certificate"] is not None
    calls = []
    monkeypatch.setattr(expbij.report, "maximal_minors",
                        lambda M: calls.append(M) or maximal_minors(M))
    assert verify_certificate(report)
    assert len(calls) == 2


def test_verify_certificate_computes_each_kernel_basis_once(monkeypatch):
    # four closure certificates (cc, cc_prime and the closure forms of both
    # robustness conditions) over the report's two matrices
    spec = ExponentialMapSpec(RationalMatrix([[1, 1, 1]]), RationalMatrix([[1, 1, -1]]))
    report = json.loads(canonical_json(build_report(analyze(spec), {})))
    conditions = report["conditions"]
    assert conditions["cc"]["verdict"] == conditions["cc_prime"]["verdict"] == "fails"
    assert "closure_form" in conditions["robust_exponents"]["certificate"]
    assert "closure_form" in conditions["robust_coefficients"]["certificate"]
    calls = []
    monkeypatch.setattr(expbij.report, "kernel_basis",
                        lambda M: calls.append(M) or kernel_basis(M))
    assert verify_certificate(report)
    assert len(calls) == 2 and calls[0] != calls[1]


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
    # condition ii's coverings name both faces' functionals; an LP that finds
    # none is a bug, reported as such rather than as a TypeError traceback
    monkeypatch.setattr(expbij.matroid, "realize_sign_vector", lambda M, x, A: None)
    args = ["analyze",
            "--coeff", write_json(tmp_path, "W.json", BIRCH),
            "--exp", write_json(tmp_path, "Wt.json", BIRCH)]
    assert main(args) == 3
    assert capsys.readouterr().err.startswith("internal error: ")
