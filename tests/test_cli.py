import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from sl3f7 import cli, scan
from sl3f7.classify import KNOWN_REPRESENTATIVES, ClassLabel
from sl3f7.matrix3 import IDENTITY, format_matrix, mat_inv, mat_mul, mat_pow, mat_scale
from sl3f7.schema import validate_document

M0_TEXT = "0 1 3; 0 0 1; 1 0 0"
M2_TEXT = "0 2 -1; 0 0 2; 2 0 0"
DET2_TEXT = "2 0 0; 0 1 0; 0 0 1"
M0 = KNOWN_REPRESENTATIVES[ClassLabel(0, 4)]


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    doc = json.loads(out)
    validate_document(doc)
    return doc


class TestClassify:
    def test_m0_table(self, capsys):
        code, out, _ = run(capsys, "classify", M0_TEXT)
        assert code == 0
        assert "label:      [0,4]" in out
        assert "order:      57" in out
        assert "psl label:  [0,1]" in out

    def test_m2_json(self, capsys):
        doc = run_json(capsys, "classify", M2_TEXT, "--format", "json")
        assert doc["label"] == [0, 2]
        assert doc["order"] == 19
        assert doc["eigenfree"] is True

    def test_identity_not_eigenfree(self, capsys):
        doc = run_json(capsys, "classify", "1 0 0; 0 1 0; 0 0 1", "--format", "json")
        assert doc["eigenfree"] is False
        assert doc["order"] == 1
        assert doc["label"] is None

    def test_parse_error_exit_2(self, capsys):
        code, _, err = run(capsys, "classify", "1 2 3; 4 5 6")
        assert code == 2
        assert "error" in err

    def test_not_sl3_exit_3(self, capsys):
        code, _, err = run(capsys, "classify", "2 0 0; 0 1 0; 0 0 1")
        assert code == 3

    def test_no_matrix_exit_2(self, capsys):
        code, out, err = run(capsys, "classify")
        assert code == 2
        assert out == ""
        assert err == "error: no matrix given (inline argument or --file)\n"

    def test_file_input(self, capsys, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text(M0_TEXT + "\n")
        code, out, _ = run(capsys, "classify", "--file", str(path))
        assert code == 0
        assert "[0,4]" in out


class TestPowerTable:
    def test_reproduces_trace_column(self, capsys):
        code, out, _ = run(capsys, "power-table", M2_TEXT, "--limit", "20")
        assert code == 0
        lines = [l for l in out.splitlines() if l and l.lstrip()[0].isdigit()]
        traces = [int(l.split()[-2] if "(" not in l else l.split()[-3]) for l in lines]
        assert traces == [0, 3, 3, 1, 4, 1, 0, 2, 1, 3, 0, 2, 3, 3, 3, 4, 4, 2, 3, 0]

    def test_csv_header(self, capsys):
        code, out, _ = run(capsys, "power-table", M2_TEXT, "--limit", "3", "--format", "csv")
        assert code == 0
        assert out.startswith("k,matrix,trace,label\n")

    def test_signed_display_matches_input(self, capsys):
        code, out, _ = run(capsys, "power-table", M2_TEXT, "--limit", "1",
                           "--format", "csv", "--signed")
        assert code == 0
        assert "0 2 -1; 0 0 2; 2 0 0" in out

    def test_limit_zero_usage_error(self, capsys):
        code, _, err = run(capsys, "power-table", M2_TEXT, "--limit", "0")
        assert code == 2

    def test_json(self, capsys):
        doc = run_json(capsys, "power-table", M2_TEXT, "--limit", "19", "--format", "json")
        assert doc["rows"][18]["note"] == "identity"
        assert doc["rows"][18]["class"] == "[3,3]"


class TestScanningCommands:
    def test_census_json(self, capsys):
        doc = run_json(capsys, "census", "--format", "json")
        assert doc["group_order"] == 5_630_688
        assert doc["eigenfree_total"] == 1_778_112

    def test_census_csv_by_trace(self, capsys):
        code, out, _ = run(capsys, "census", "--format", "csv", "--by", "trace")
        assert code == 0
        assert out.startswith("trace,count\n")
        assert "0,296352" in out

    def test_centralizer_json(self, capsys):
        doc = run_json(capsys, "centralizer", M0_TEXT, "--format", "json")
        assert doc["size"] == 57
        assert doc["is_cyclic"] is True

    def test_class_size_json(self, capsys):
        doc = run_json(capsys, "class-size", M0_TEXT, "--format", "json")
        assert doc["class_size"] == 98_784
        assert doc["centralizer_size"] == 57

    def test_sylow_json(self, capsys):
        doc = run_json(capsys, "sylow", "--format", "json")
        assert doc["count"] == 32_928
        assert doc["order19_elements"] == 592_704

    def test_normalizer_json(self, capsys):
        doc = run_json(capsys, "normalizer", M2_TEXT, "--format", "json")
        assert doc["size"] == 171
        assert doc["index_over_subgroup"] == 9

    @pytest.mark.parametrize("argv", [("census", "--threads", "0"),
                                      ("verify", "--threads", "-1")], ids=["census", "verify"])
    def test_threads_below_one_is_a_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as exit_info:
            cli.main(list(argv))
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "argument --threads: not a positive integer" in captured.err

    def test_threads_not_a_number_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            cli.main(["census", "--threads", "abc"])
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "argument --threads: not a positive integer: 'abc'" in captured.err

    def test_thread_count_gives_byte_identical_output(self, capsys):
        _, out1, _ = run(capsys, "census", "--format", "json", "--threads", "1")
        _, out4, _ = run(capsys, "census", "--format", "json", "--threads", "4")
        assert out1 == out4


class TestSubgroupCommands:
    def test_parabolic(self, capsys):
        doc = run_json(capsys, "parabolic", "--format", "json")
        assert doc["size"] == 98_784
        assert doc["index"] == 57

    def test_closure_of_small_generator(self, capsys):
        doc = run_json(capsys, "closure", M2_TEXT, "--format", "json")
        assert doc["size"] == 19

    def test_reduce_json(self, capsys):
        doc = run_json(capsys, "reduce", M0_TEXT, "--target", "Y", "--format", "json")
        assert doc["verified"] is True
        assert doc["target"] == "0 1 0; 0 0 1; 1 0 0"

    def test_reduce_inside_h_exit_3(self, capsys):
        code, _, err = run(capsys, "reduce", "1 0 1; 0 -1 -1; 0 1 0", "--target", "Y")
        assert code == 3

    @pytest.mark.parametrize("argv", [("reduce", DET2_TEXT, "--target", "Y"),
                                      ("closure", DET2_TEXT)], ids=["reduce", "closure"])
    def test_det_not_one_exit_3(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 3
        assert out == ""
        assert err.startswith("error: ")
        assert "det 2, expected 1" in err

    def test_reduce_table_has_product_formula(self, capsys):
        code, out, _ = run(capsys, "reduce", M0_TEXT, "--target", "Z")
        assert code == 0
        assert "product: Z =" in out
        assert "verified: True" in out


class TestLabelCommands:
    def test_labels_table(self, capsys):
        code, out, _ = run(capsys, "labels")
        assert code == 0
        assert out.count("order 19") == 6
        assert out.count("order 57") == 12

    def test_labels_csv(self, capsys):
        code, out, _ = run(capsys, "labels", "--format", "csv")
        assert code == 0
        assert out.startswith("i,j,order,psl_i,psl_j,representative\n")
        assert len(out.strip().splitlines()) == 19

    def test_labels_json(self, capsys):
        doc = run_json(capsys, "labels", "--format", "json")
        assert len(doc["labels"]) == 18

    def test_commuting_reps_json(self, capsys):
        doc = run_json(capsys, "commuting-reps", "--format", "json")
        assert len(doc["reps"]) == 18
        assert doc["reps"][2] == {"label": [0, 4], "matrix": "0 1 3; 0 0 1; 1 0 0"}


class TestSimconj:
    @staticmethod
    def write_tuple(path, matrices):
        path.write_text("\n".join(format_matrix(m) for m in matrices) + "\n")

    def test_conjugated_fixture_equivalent(self, capsys, tmp_path):
        g = KNOWN_REPRESENTATIVES[ClassLabel(1, 0)]
        t1 = (M0, mat_pow(M0, 5))
        t2 = tuple(mat_mul(mat_mul(g, m), mat_inv(g)) for m in t1)
        f1, f2 = tmp_path / "a.txt", tmp_path / "b.txt"
        self.write_tuple(f1, t1)
        self.write_tuple(f2, t2)
        code, out, _ = run(capsys, "simconj", str(f1), str(f2))
        assert code == 0
        doc = json.loads(out)
        validate_document(doc)
        assert doc["equivalent"] is True
        assert doc["witness"] is not None

    def test_exponent_mismatch_not_equivalent(self, capsys, tmp_path):
        f1, f2 = tmp_path / "a.txt", tmp_path / "b.txt"
        self.write_tuple(f1, (M0, mat_pow(M0, 5)))
        self.write_tuple(f2, (M0, mat_pow(M0, 10)))
        code, out, _ = run(capsys, "simconj", str(f1), str(f2))
        assert code == 0
        doc = json.loads(out)
        assert doc["equivalent"] is False
        assert doc["certificate"]

    def test_non_commuting_exit_4(self, capsys, tmp_path):
        f1, f2 = tmp_path / "a.txt", tmp_path / "b.txt"
        self.write_tuple(f1, (M0, KNOWN_REPRESENTATIVES[ClassLabel(1, 3)]))
        self.write_tuple(f2, (M0, mat_pow(M0, 2)))
        code, _, err = run(capsys, "simconj", str(f1), str(f2))
        assert code == 4

    def test_length_mismatch_exit_2(self, capsys, tmp_path):
        f1, f2 = tmp_path / "a.txt", tmp_path / "b.txt"
        self.write_tuple(f1, (M0,))
        self.write_tuple(f2, (M0, mat_pow(M0, 2)))
        code, _, err = run(capsys, "simconj", str(f1), str(f2))
        assert code == 2

    def test_equal_lengths_with_different_scalars_exit_0(self, capsys, tmp_path):
        f1, f2 = tmp_path / "a.txt", tmp_path / "b.txt"
        self.write_tuple(f1, (M0, IDENTITY))
        self.write_tuple(f2, (M0, mat_scale(2, M0)))
        code, out, _ = run(capsys, "simconj", str(f1), str(f2))
        assert code == 0
        doc = json.loads(out)
        validate_document(doc)
        assert doc["equivalent"] is False
        assert doc["certificate"] == "stripped scalar members differ (conjugation fixes scalars)"

    def test_all_eigen_exit_3(self, capsys, tmp_path):
        f1, f2 = tmp_path / "a.txt", tmp_path / "b.txt"
        f1.write_text("1 1 0; 0 1 0; 0 0 1\n1 2 0; 0 1 0; 0 0 1\n")
        f2.write_text("1 1 0; 0 1 0; 0 0 1\n1 2 0; 0 1 0; 0 0 1\n")
        code, _, err = run(capsys, "simconj", str(f1), str(f2))
        assert code == 3


class TestVerify:
    def test_only_filter_runs_fast_checks(self, capsys):
        code, out, _ = run(capsys, "verify", "--only", "psl")
        assert code == 0
        assert "psl-collapse" in out
        assert "PASS" in out

    def test_report_byte_identical_across_threads(self, capsys):
        code1, out1, _ = run(capsys, "verify", "--only", "group-order", "--threads", "1")
        code4, out4, _ = run(capsys, "verify", "--only", "group-order", "--threads", "4")
        assert code1 == code4 == 0
        assert out1 == out4

    def test_only_without_a_match_is_a_usage_error(self, capsys):
        code, out, err = run(capsys, "verify", "--only", "nosuchcheck")
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")

    def test_unknown_suite_is_a_value_error(self):
        from sl3f7 import verify as verify_mod

        with pytest.raises(ValueError, match="suite must be quick or full, got 'medium'"):
            verify_mod.run_suite("medium")

    def test_failing_suite_would_exit_1(self, capsys, monkeypatch):
        from sl3f7 import verify as verify_mod

        broken = verify_mod.Check(99, "always-fails", lambda full: (False, "boom"))
        monkeypatch.setattr(verify_mod, "CHECKS", (broken,))
        code, out, _ = run(capsys, "verify", "--only", "always")
        assert code == 1
        assert out == (GOLDEN_TEXT / "verify-failing.txt").read_text(encoding="utf-8")


# The stdout of every JSON-emitting subcommand on fast inputs, byte for byte:
# the field tests above parse the output and would not see a reordered
# envelope.  The files were written by the code as it was before
# schema.document() built every envelope.  Each output must also pass
# validate_document, so every kind the CLI emits meets schema.REQUIRED_FIELDS.
# The simconj cases read tuple files written from _SIMCONJ_TUPLES.
GOLDEN_JSON = Path(__file__).parent / "golden" / "json"
_G = KNOWN_REPRESENTATIVES[ClassLabel(1, 0)]
_SIMCONJ_TUPLES = {
    "t1": (M0, mat_pow(M0, 5)),
    "t2": tuple(mat_mul(mat_mul(_G, m), mat_inv(_G)) for m in (M0, mat_pow(M0, 5))),
    "t3": (M0, mat_pow(M0, 10)),
}
JSON_GOLDENS = {
    "classify": ("classify", M0_TEXT, "--format", "json"),
    "classify-identity": ("classify", "1 0 0; 0 1 0; 0 0 1", "--format", "json"),
    "power-table": ("power-table", M2_TEXT, "--format", "json"),
    "power-table-signed": ("power-table", M0_TEXT, "--limit", "5", "--signed", "--format", "json"),
    "census": ("census", "--format", "json"),
    "centralizer": ("centralizer", M0_TEXT, "--format", "json"),
    "centralizer-identity": ("centralizer", "1 0 0; 0 1 0; 0 0 1", "--format", "json"),
    "class-size": ("class-size", M0_TEXT, "--format", "json"),
    "sylow": ("sylow", "--format", "json"),
    "normalizer": ("normalizer", M2_TEXT, "--format", "json"),
    "parabolic": ("parabolic", "--format", "json"),
    "closure": ("closure", M2_TEXT, "--format", "json"),
    "reduce": ("reduce", M0_TEXT, "--target", "Y", "--format", "json"),
    "commuting-reps": ("commuting-reps", "--format", "json"),
    "labels": ("labels", "--format", "json"),
    "simconj-equivalent": ("simconj", "{tmp}/t1.txt", "{tmp}/t2.txt"),
    "simconj-not-equivalent": ("simconj", "{tmp}/t1.txt", "{tmp}/t3.txt"),
}


@pytest.mark.parametrize("name", JSON_GOLDENS)
def test_json_stdout_unchanged(capsys, tmp_path, name):
    for stem, matrices in _SIMCONJ_TUPLES.items():
        TestSimconj.write_tuple(tmp_path / f"{stem}.txt", matrices)
    code, out, _ = run(capsys, *(a.format(tmp=tmp_path) for a in JSON_GOLDENS[name]))
    assert code == 0
    assert out == (GOLDEN_JSON / f"{name}.json").read_text(encoding="utf-8")
    validate_document(json.loads(out))


# The table and csv stdout of every subcommand but simconj (JSON only), byte
# for byte, and the quick verify report.  The cases cover each branch of the
# text output: no label and no psl label, each note of a power table, signed
# entries, each census csv, a centralizer with no generator and no element
# list, the whole-group closure line, and a reduce target given in lower case.
# verify-full.txt, the full report at SL3F7_THREADS=1, is compared in CI, where
# the full suite already runs; verify-failing.txt is TestVerify's failing suite.
GOLDEN_TEXT = Path(__file__).parent / "golden" / "text"
TRANSVECTION_TEXT = "1 1 0; 0 1 0; 0 0 1"
TEXT_GOLDENS = {
    "classify": ("classify", M0_TEXT),
    "classify-identity": ("classify", "1 0 0; 0 1 0; 0 0 1"),
    "power-table": ("power-table", M2_TEXT),
    "power-table-csv": ("power-table", M2_TEXT, "--format", "csv"),
    "power-table-signed": ("power-table", M0_TEXT, "--limit", "5", "--signed"),
    "power-table-signed-csv": ("power-table", M0_TEXT, "--limit", "5", "--signed",
                               "--format", "csv"),
    "power-table-scalar": ("power-table", M0_TEXT, "--limit", "19"),
    "power-table-transvection": ("power-table", TRANSVECTION_TEXT, "--limit", "7"),
    "census": ("census",),
    "census-csv": ("census", "--format", "csv"),
    "census-csv-trace": ("census", "--format", "csv", "--by", "trace"),
    "centralizer": ("centralizer", M0_TEXT),
    "centralizer-identity": ("centralizer", "1 0 0; 0 1 0; 0 0 1"),
    "centralizer-transvection": ("centralizer", TRANSVECTION_TEXT),
    "class-size": ("class-size", M0_TEXT),
    "sylow": ("sylow",),
    "normalizer": ("normalizer", M2_TEXT),
    "parabolic": ("parabolic",),
    "closure": ("closure", M2_TEXT),
    "closure-default": ("closure",),
    "reduce-y": ("reduce", M0_TEXT, "--target", "Y"),
    "reduce-z": ("reduce", M0_TEXT, "--target", "z"),
    "commuting-reps": ("commuting-reps",),
    "labels": ("labels",),
    "labels-csv": ("labels", "--format", "csv"),
    "verify-quick": ("verify", "--suite", "quick"),
}


@pytest.mark.parametrize("name", TEXT_GOLDENS)
def test_text_stdout_unchanged(capsys, name):
    code, out, _ = run(capsys, *TEXT_GOLDENS[name])
    assert code == 0
    assert out == (GOLDEN_TEXT / f"{name}.txt").read_text(encoding="utf-8")


@pytest.mark.parametrize("argv, golden", [
    (TEXT_GOLDENS["sylow"], GOLDEN_TEXT / "sylow.txt"),
    (JSON_GOLDENS["sylow"], GOLDEN_JSON / "sylow.json"),
], ids=["text", "json"])
def test_sylow_answers_without_a_group_scan(capsys, monkeypatch, argv, golden):
    # n19 comes from |G| / |N(P)|; the power pass stays in verify's check 10
    def boom(*args, **kwargs):
        raise AssertionError("group scan")

    monkeypatch.setattr(scan, "_map_chunks", boom)
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out == golden.read_text(encoding="utf-8")


def test_closure_text_unchanged_at_two_threads(capsys, monkeypatch):
    # SL3F7_THREADS is read by nothing, so it leaves the closure's text as it is
    monkeypatch.setenv("SL3F7_THREADS", "2")
    code, out, _ = run(capsys, *TEXT_GOLDENS["closure-default"])
    assert code == 0
    assert out == (GOLDEN_TEXT / "closure-default.txt").read_text(encoding="utf-8")


# Generated with COLUMNS=80 on Python 3.11, the version CI runs; argparse
# formats help differently on other versions.
GOLDEN_HELP = Path(__file__).parent / "golden" / "help"
SUBCOMMANDS = ("classify", "power-table", "census", "centralizer", "class-size", "sylow",
               "normalizer", "parabolic", "closure", "reduce", "commuting-reps", "labels",
               "simconj", "verify")


@pytest.mark.parametrize("command", ("sl3f7",) + SUBCOMMANDS)
def test_help_text_unchanged(capsys, monkeypatch, command):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exit_info:
        cli.main(([] if command == "sl3f7" else [command]) + ["--help"])
    assert exit_info.value.code == 0
    golden = (GOLDEN_HELP / f"{command}.txt").read_text(encoding="utf-8")
    assert capsys.readouterr().out == golden


_NEAR_VALID_TOKENS = ["0", "1", "3", "-1", "-6", "6", "7", "-7", "+2", "01", "1.5", "x",
                      "\u0663", ";", ";;", " ", "  ", "\t", "\n", "\r\n", "\x00", "-", ""]
_entry_line = st.lists(st.integers(-6, 7), min_size=9, max_size=9).map(
    lambda v: "; ".join(" ".join(map(str, v[r:r + 3])) for r in (0, 3, 6)))
_known_line = st.sampled_from([
    M0_TEXT, format_matrix(mat_pow(M0, 5)), M2_TEXT,
    format_matrix(KNOWN_REPRESENTATIVES[ClassLabel(1, 3)]), DET2_TEXT,
    "1 0 0; 0 1 0; 0 0 1", "1 1 0; 0 1 0; 0 0 1", "1 2 3; 4 5", "",
])
_ragged_line = st.lists(st.lists(st.integers(-6, 6), min_size=2, max_size=4),
                        min_size=2, max_size=4).map(
    lambda rows: "; ".join(" ".join(map(str, r)) for r in rows))
_garbage = st.one_of(
    st.binary(max_size=120),
    st.lists(st.sampled_from(_NEAR_VALID_TOKENS), max_size=40).map(lambda t: " ".join(t).encode()),
    _ragged_line.map(str.encode),
)
_matrix_bytes = st.one_of(_garbage, st.one_of(_entry_line, _known_line).map(str.encode))
_tuple_bytes = st.one_of(_garbage, st.lists(st.one_of(_entry_line, _known_line), min_size=1,
                                            max_size=3).map(lambda rows: "\n".join(rows).encode()))
_NON_COMMUTING = f"{M0_TEXT}\n{format_matrix(KNOWN_REPRESENTATIVES[ClassLabel(1, 3)])}"


class TestMalformedInput:
    # capsys and tmp_path are function-scoped, which hypothesis rejects across
    # examples: output is captured by redirection, files go to a temp directory
    @seed(0xBAD)
    @settings(max_examples=200, deadline=None)
    @example(matrix=M0_TEXT.encode(), tuple1=M0_TEXT.encode(), tuple2=M0_TEXT.encode())  # exit 0
    @example(matrix=b"", tuple1=_NON_COMMUTING.encode(), tuple2=M0_TEXT.encode())  # exit 4
    @given(matrix=_matrix_bytes, tuple1=_tuple_bytes, tuple2=_tuple_bytes)
    def test_exit_2_3_or_4_never_a_traceback(self, matrix, tuple1, tuple2):
        with tempfile.TemporaryDirectory() as tmp:
            paths = [Path(tmp) / name for name in ("m.txt", "a.txt", "b.txt")]
            for path, data in zip(paths, (matrix, tuple1, tuple2)):
                path.write_bytes(data)
            m, a, b = map(str, paths)
            for argv in (["classify", "--file", m], ["power-table", "--file", m],
                         ["centralizer", "--file", m], ["class-size", "--file", m],
                         ["normalizer", "--file", m], ["reduce", "--file", m, "--target", "Y"],
                         ["simconj", a, b]):
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = cli.main(argv)
                assert code in (0, 2, 3, 4), argv
                if code:
                    assert out.getvalue() == "", argv
                    assert err.getvalue().startswith("error: "), argv
