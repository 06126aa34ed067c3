import csv
import hashlib
import io
import json
import subprocess
import sys
import time

import pytest

from permavoid import (
    BinaryMatrix,
    KUniformHypergraph,
    __version__,
    kernels,
    permutation_matrix,
    rngutil,
)
from permavoid.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


def test_count_golden(capsys):
    data = run_json(capsys, "count", "--sigma", "2,4,1,3", "--pi", "1,2")
    assert data == {"count": 3, "pi": "1,2", "sigma": "2,4,1,3"}


def test_occurrences_golden(capsys):
    data = run_json(capsys, "occurrences", "--sigma", "2,4,1,3", "--pi", "1,2")
    assert data["occurrences"] == [[1, 2], [1, 4], [3, 4]]
    assert data["count"] == 3


def test_stdout_is_byte_stable(capsys):
    code1, out1, _ = run_cli(capsys, "expect-mc", "--estimator", "sigma",
                             "--n", "4", "--pi", "2,1", "--alpha", "1/2",
                             "--samples", "50", "--seed", "5")
    code2, out2, _ = run_cli(capsys, "expect-mc", "--estimator", "sigma",
                             "--n", "4", "--pi", "2,1", "--alpha", "1/2",
                             "--samples", "50", "--seed", "5")
    assert code1 == code2 == 0
    assert out1 == out2
    assert out1.endswith("\n")


def test_distribution_histogram_is_string_valued(capsys):
    data = run_json(capsys, "distribution", "--n", "3", "--pi", "1,2")
    assert data["histogram"] == {"0": "1", "1": "2", "2": "2", "3": "1"}


def test_exit_code_2_on_malformed_permutation(capsys):
    code, out, err = run_cli(capsys, "count", "--sigma", "2,x,1", "--pi", "1,2")
    assert code == 2
    assert out == ""
    assert "token 2" in err


def test_exit_code_2_on_decimal_alpha(capsys):
    code, _, err = run_cli(capsys, "expect", "--n", "3", "--pi", "1,2",
                           "--alpha", "0.5")
    assert code == 2
    assert "rational" in err


def test_exit_code_2_on_bad_matrix_file(capsys, tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("2 2\n10\n12\n")
    code, _, err = run_cli(capsys, "preimage", "--from-file", str(bad))
    assert code == 2
    assert "line 3 column 2" in err


def test_exit_code_2_on_missing_file(capsys, tmp_path):
    code, _, err = run_cli(capsys, "preimage", "--from-file",
                           str(tmp_path / "nope.txt"))
    assert code == 2
    assert "nope.txt" in err


def test_exit_code_3_on_enumeration_cap(capsys):
    code, out, err = run_cli(capsys, "distribution", "--n", "30", "--pi", "1,2")
    assert code == 3
    assert out == ""
    assert "enum_cap" in err
    # An alpha grid checks its first alpha, then the cap, then makes its
    # one pass; later alphas are checked in turn.  An empty grid makes
    # no pass, so the cap is never consulted.
    code, out, _ = run_cli(capsys, "expect", "--n", "13", "--pi", "2,1",
                           "--alpha-grid", ",", "--format", "csv")
    assert code == 0
    assert out == "n,k,pi,alpha,exact,exact_decimal,bound,empirical_constant\n"
    code, out, _ = run_cli(capsys, "expect", "--n", "13", "--pi", "2,1",
                           "--alpha-grid", "1/2,2")
    assert code == 3 and out == ""
    code, out, _ = run_cli(capsys, "expect", "--n", "4", "--pi", "2,1",
                           "--alpha-grid", "2,1/2")
    assert code == 2 and out == ""


def test_cap_override_flags(capsys):
    code, _, err = run_cli(capsys, "avoiders", "--n", "5", "--pi", "1,2",
                           "--enum-cap", "4")
    assert code == 3
    data = run_json(capsys, "avoiders", "--n", "5", "--pi", "1,2",
                    "--enum-cap", "5")
    assert data["count"] == 1


def test_avoiders_with_lambda_file(capsys, tmp_path):
    lam = tmp_path / "lam.json"
    code, out, _ = run_cli(capsys, "lambda-star", "--n", "4", "--k", "2")
    assert code == 0
    lam.write_text(out)
    data = run_json(capsys, "avoiders", "--n", "4", "--pi", "1,2",
                    "--lambda-file", str(lam), "--list")
    assert data["count"] == 4
    assert data["avoiders"] == ["3,4,1,2", "3,4,2,1", "4,3,1,2", "4,3,2,1"]
    assert data["lambda_edges"] == 4


def test_lambda_file_text_format(capsys, tmp_path):
    lam = tmp_path / "lam.txt"
    lam.write_text("3 2\n1 2\n2 3\n")
    data = run_json(capsys, "avoiders", "--n", "3", "--pi", "2,1",
                    "--lambda-file", str(lam))
    # Descents are forbidden at both adjacent index pairs, so only the
    # fully increasing permutation survives.
    assert data["count"] == 1


def test_hypergraph_output_feeds_back_in(capsys, tmp_path):
    data1 = run_json(capsys, "hypergraph", "--n", "5", "--k", "2",
                     "--alpha", "1/2", "--seed", "4")
    assert set(data1) == {"n", "k", "edges"}
    lam = tmp_path / "h.json"
    lam.write_text(json.dumps(data1))
    data2 = run_json(capsys, "avoiders", "--n", "5", "--pi", "1,2",
                     "--lambda-file", str(lam))
    assert data2["lambda_edges"] == len(data1["edges"])


def test_expect_single_and_grid(capsys):
    single = run_json(capsys, "expect", "--n", "2", "--pi", "1,2",
                      "--alpha", "1/2")
    assert single["exact"] == "3/2"
    assert single["exact_decimal"] == 1.5
    grid = run_json(capsys, "expect", "--n", "3", "--pi", "1,2",
                    "--alpha-grid", "1/4,1/2")
    assert [cell["alpha"] for cell in grid["grid"]] == ["1/4", "1/2"]
    assert grid["grid"][0]["exact"] == "259/64"


def test_alpha_grid_makes_one_histogram_pass(capsys, monkeypatch):
    calls = []
    histogram = kernels.copy_count_histogram

    def counted(n, pi):
        calls.append((n, pi))
        return histogram(n, pi)

    monkeypatch.setattr(kernels, "copy_count_histogram", counted)
    grid = run_json(capsys, "expect", "--n", "6", "--pi", "2,1",
                    "--alpha-grid", "1/8,1/4,1/2")
    assert [cell["alpha"] for cell in grid["grid"]] == ["1/8", "1/4", "1/2"]
    assert calls == [(6, (1, 0))]


def test_expect_grid_csv(capsys):
    code, out, _ = run_cli(capsys, "expect", "--n", "3", "--pi", "1,2",
                           "--alpha-grid", "1/4,1/2", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n,k,pi,alpha,exact,exact_decimal,bound,empirical_constant"
    assert len(lines) == 3
    assert lines[1].startswith('3,2,"1,2",1/4,259/64,')


def test_expect_empty_grid_gives_header_only_csv(capsys):
    code, out, _ = run_cli(capsys, "expect", "--n", "3", "--pi", "1,2",
                           "--alpha-grid", "", "--format", "csv")
    assert code == 0
    assert out == "n,k,pi,alpha,exact,exact_decimal,bound,empirical_constant\n"


def test_expect_alpha_zero_serializes_infinite_bound(capsys):
    data = run_json(capsys, "expect", "--n", "3", "--pi", "1,2",
                    "--alpha", "0")
    assert data["exact"] == "6"
    assert data["bound"] == "inf"


def test_expect_mc_lambda_estimator(capsys):
    data = run_json(capsys, "expect-mc", "--estimator", "lambda", "--n", "3",
                    "--pi", "1,2", "--alpha", "1/2", "--samples", "64",
                    "--seed", "0")
    assert data["estimator"] == "lambda"
    assert data["samples"] == 64
    num, _, den = data["estimate"].partition("/")
    assert int(num) >= 0 and (den == "" or int(den) > 0)


def test_clique_cover_cli(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "hypergraph", "--n", "4", "--k", "2",
                           "--alpha", "1", "--seed", "0")
    assert code == 0
    lam = tmp_path / "complete.json"
    lam.write_text(out)
    cliques = tmp_path / "cliques.json"
    cliques.write_text("[[1,2,3],[1,2,4],[1,3,4],[2,3,4]]")
    data = run_json(capsys, "clique-cover", "--lambda-file", str(lam),
                    "--cliques-file", str(cliques))
    assert data["valid"] is True
    assert data["clique_size"] == 3
    cliques.write_text("[[1,2],[3,4]]")
    lam2 = tmp_path / "star.json"
    code, out, _ = run_cli(capsys, "lambda-star", "--n", "4", "--k", "2")
    lam2.write_text(out)
    code, _, err = run_cli(capsys, "clique-cover", "--lambda-file", str(lam2),
                           "--cliques-file", str(cliques))
    assert code == 2
    assert "(1, 2)" in err


def test_contract_cli_with_output_file(capsys, tmp_path):
    src = tmp_path / "m.txt"
    src.write_text(permutation_matrix((1, 2, 3, 4)).to_text() + "\n")
    out_path = tmp_path / "contracted.txt"
    data = run_json(capsys, "contract", "--from-file", str(src),
                    "--out", str(out_path))
    assert data["mode"] == "2"
    assert data["lines"] == ["10", "01"]
    assert BinaryMatrix.from_text(out_path.read_text()) == \
        permutation_matrix((1, 2))
    data = run_json(capsys, "contract", "--from-file", str(src), "--b", "4/3")
    assert data["b"] == "4/3"
    assert data["rows"] == 3


def test_preimage_cli(capsys, tmp_path):
    src = tmp_path / "m.txt"
    src.write_text("2 2\n10\n01\n")
    data = run_json(capsys, "preimage", "--from-file", str(src))
    assert data == {"ones": 2, "preimages": 225}


def test_extremal_cli(capsys):
    data = run_json(capsys, "extremal", "--n", "4", "--a", "8", "--pi", "2,1")
    assert data["lines"] == ["1100", "1100", "0011", "0011"]
    assert data["copies"] == 2
    assert data["reference_bound"] == "32"
    code, _, err = run_cli(capsys, "extremal", "--n", "4", "--a", "6")
    assert code == 2


def test_min_copies_cli_grid(capsys):
    code, out, _ = run_cli(capsys, "min-copies", "--n", "2", "--pi", "1,2",
                           "--a-grid", "3,4", "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert len(rows) == 3
    header = rows[0]
    assert header[:4] == ["n", "a", "pi", "min_copies"]
    assert rows[1][1:4] == ["3", "1,2", "0"]
    assert rows[2][1:4] == ["4", "1,2", "1"]


def test_max_ones_cli(capsys):
    data = run_json(capsys, "max-ones", "--n", "3", "--pi", "1,2",
                    "--mode", "search")
    assert data["max_ones"] == 5
    assert data["method"] == "branch-and-bound"


def test_max_ones_search_cost_is_gated(capsys):
    # Each row-transfer state is charged 2^n = 512 against the ceiling.
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "max-ones", "--n", "9", "--pi", "1,2,3",
                             "--mode", "search", "--cost-ceiling", "100000")
    assert time.perf_counter() - start < 2
    assert code == 3 and out == ""
    assert "cost_ceiling" in err
    # The enumeration cap is checked first.
    code, out, err = run_cli(capsys, "max-ones", "--n", "13", "--pi", "1,2",
                             "--mode", "search", "--cost-ceiling", "1")
    assert code == 3 and out == ""
    assert "enum_cap" in err


def test_sna_cli(capsys):
    data = run_json(capsys, "sna", "--n", "4", "--a", "2", "--list")
    assert data["members"] == ["1,2,3,4", "1,2,4,3", "2,1,3,4", "2,1,4,3"]
    data = run_json(capsys, "sna", "--n", "6", "--a", "3", "--pi", "3,2,1")
    assert data["within_budget"] is True
    assert data["budget"] == 2
    code, _, err = run_cli(capsys, "sna", "--n", "6", "--a", "3",
                           "--pi", "1,2,3")
    assert code == 2


def test_snm_cli(capsys):
    data = run_json(capsys, "snm", "--n", "5", "--m", "0", "--pi", "3,2,1")
    assert data["count"] == 42


def test_grid_hypergraph_cli(capsys):
    data = run_json(capsys, "build-h", "--n", "2", "--pi", "1,2")
    assert data["edges"] == [[0, 3]]
    assert data["vertex_count"] == 4
    data = run_json(capsys, "delta", "--n", "3", "--pi", "1,2", "--ell", "1")
    assert data["delta"] == 4
    data = run_json(capsys, "independents", "--n", "2", "--pi", "1,2",
                    "--size", "2")
    assert data["count"] == 5


def test_sample_density_cli(capsys, tmp_path):
    src = tmp_path / "m.txt"
    src.write_text(permutation_matrix((2, 4, 1, 3)).to_text() + "\n")
    data = run_json(capsys, "sample-density", "--from-file", str(src),
                    "--pi", "1,2", "--r", "4", "--trials", "3", "--seed", "1")
    assert data["one_mean"] == "1/4"
    assert data["pi_mean"] == "1/12"
    assert data["exact_one"] == "1/4"
    assert data["one_se"] == 0.0


def test_manifest_records_and_replays(capsys, tmp_path):
    manifest_path = tmp_path / "run.json"
    code, out, _ = run_cli(capsys, "expect", "--n", "4", "--pi", "2,1",
                           "--alpha", "1/3", "--manifest", str(manifest_path))
    assert code == 0
    manifest = json.loads(manifest_path.read_text())
    assert manifest["subcommand"] == "expect"
    assert manifest["version"] == __version__
    assert "--manifest" not in manifest["argv"]
    assert manifest["output_sha256"] == \
        hashlib.sha256(out.encode()).hexdigest()
    assert manifest["parameters"]["alpha"] == "1/3"
    # Replaying the recorded argv reproduces the exact bytes.
    code2, out2, _ = run_cli(capsys, *manifest["argv"])
    assert code2 == 0
    assert out2 == out


# SHA-256 of stdout for seeded Monte-Carlo and random-hypergraph runs.
# They pin the RNG draw order, the exact mean and the float standard
# error byte for byte, so a refactor of that arithmetic cannot drift.
GOLDEN_MATRIX = """8 8
10110010
01101001
11000110
00111010
10010101
01011100
11100011
00101110
"""

GOLDEN_DIGESTS = [
    (["expect-mc", "--estimator", "sigma", "--n", "7", "--pi", "1,3,2",
      "--alpha", "1/3", "--samples", "300", "--seed", "7"],
     "cbbde533f23fcad2569ff883340a37dc2efd75a80f719b7c83a8012c23886073"),
    (["expect-mc", "--estimator", "lambda", "--n", "5", "--k", "2",
      "--pi", "2,1", "--alpha", "2/5", "--samples", "20", "--seed", "3"],
     "febf81b134a5329f7cd1cf95be0f76717d687ce155142fcbbaa467b82622f6cd"),
    (["hypergraph", "--n", "9", "--k", "3", "--alpha", "1/3", "--seed", "11"],
     "da0f9b100f8e9c669a2af957a8d91a428ee2febcb7846deb3d3d6392f631c429"),
    (["sample-density", "--from-file", "MATRIX", "--pi", "1,3,2", "--r", "5",
      "--trials", "60", "--seed", "5"],
     "a1bb7e419022ccdb7a2effa675ca1fc9067fac6e27a48b3a4f710fbbe9023ea5"),
    (["expect", "--n", "6", "--pi", "1,3,2", "--alpha-grid", "0,1/3,1/2,1"],
     "72479fbdd2763902ca9369dcf22fe791066c29f203709dd5b95e47324db727ff"),
    (["expect", "--n", "6", "--pi", "1,3,2", "--alpha-grid", "0,1/3,1/2,1",
      "--format", "csv"],
     "adbeccb9deddd49e8b983c8f7560e7f1d818c26b63d3d1bc41aedc7d777bde77"),
    # alpha = 0 and alpha = 1 send distinct copy counts to one value,
    # and a single sample has standard error 0.0.
    (["expect-mc", "--estimator", "sigma", "--n", "6", "--pi", "1,3,2",
      "--alpha", "0", "--samples", "200", "--seed", "4"],
     "bde3a4aee160233ef4a3fe28737d2bf5ae9378ed36af1d08fb251b17e57db6e5"),
    (["expect-mc", "--estimator", "sigma", "--n", "6", "--pi", "1,3,2",
      "--alpha", "1", "--samples", "200", "--seed", "4"],
     "e5c057f55fe129c77c9908bca27a31cdd9aac3f5913cad6e5ef0487b4174820e"),
    (["expect-mc", "--estimator", "sigma", "--n", "6", "--pi", "1,3,2",
      "--alpha", "1/3", "--samples", "1", "--seed", "4"],
     "b2792b205e5fce00c1cfac96eaefee107e47b68fc3aac0704896f9dec4efaf25"),
    # The extremal search's optimum and witness, byte for byte.
    (["max-ones", "--n", "5", "--pi", "1,2,3", "--mode", "search"],
     "0944a2fbd46dd4f2b73b3ee454af7de0ec36b0528776f7552358e1e02cfb8bee"),
    (["max-ones", "--n", "5", "--pi", "3,2,1", "--mode", "search"],
     "5092318ced59c5a47235fe27bb4f13db3a1e09a11a931b2ac2cd72186f589331"),
    (["max-ones", "--n", "6", "--pi", "1,2", "--mode", "search"],
     "0d18078880c543b39a4207111083d807383d7e2228e4d719988b03e1703aacfa"),
    (["max-ones", "--n", "4", "--pi", "1,2", "--mode", "search"],
     "9a4aea40f8719e8133dc106c3107d43153edbff2a9d6851453a5578247b6c36d"),
    (["max-ones", "--n", "5", "--pi", "1,3,2", "--mode", "search"],
     "df812ef6f195e08a5fe7daf91cc375b5ccb9b20fffb57c0e0fbb6d5315204f3a"),
    (["max-ones", "--n", "1", "--pi", "1", "--mode", "search"],
     "fa53c2d0bf723c6d191f98a472e9286b18b682d639f847fa03909c2808c21df7"),
    # k > n: the full matrix holds no copy.
    (["max-ones", "--n", "2", "--pi", "1,2,3", "--mode", "search"],
     "a960ce6ad94a3077b74c5279d352c180634c1de1d90ae10cf79508b77220f850"),
]


@pytest.mark.parametrize("argv,digest", GOLDEN_DIGESTS, ids=[
    "expect-mc-sigma", "expect-mc-lambda", "hypergraph", "sample-density",
    "expect-grid-json", "expect-grid-csv", "expect-mc-sigma-alpha-0",
    "expect-mc-sigma-alpha-1", "expect-mc-sigma-one-sample",
    "max-ones-123-n5", "max-ones-321-n5", "max-ones-12-n6", "max-ones-12-n4",
    "max-ones-132-n5", "max-ones-1-n1", "max-ones-123-n2"])
def test_golden_stdout_digests(capsys, tmp_path, argv, digest):
    matrix = tmp_path / "m.txt"
    matrix.write_text(GOLDEN_MATRIX)
    argv = [str(matrix) if a == "MATRIX" else a for a in argv]
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    assert hashlib.sha256(out.encode()).hexdigest() == digest


COMPLETE_K4 = "4 2\n1 2\n1 3\n1 4\n2 3\n2 4\n3 4\n"

# Each file is malformed; the CLI must refuse it with exit 2 rather than
# crash or truncate a non-integer to an integer.
MALFORMED_INPUTS = [
    ("lambda", ["--pi", "2,1"], '{"n": 4, "k": 2, "edges": [1, 2]}'),
    ("lambda", ["--pi", "2,1"], '{"n": 4, "k": 2, "edges": null}'),
    ("lambda", ["--pi", "2,1"], '{"n": 4.7, "k": 2, "edges": [[1, 2], [2, 3]]}'),
    ("lambda", ["--pi", "2,1"], '{"n": 4, "k": 2, "edges": [[1, 2.5], [2, 3]]}'),
    ("lambda", ["--pi", "2,1"], '{"n": 4, "k": 2, "edges": [[true, 2]]}'),
    ("lambda", ["--pi", "1"], '{"n": 4, "k": true, "edges": [[1], [2]]}'),
    ("lambda", ["--pi", "2,1"], '{"n": "4", "k": 2, "edges": [[1, 2]]}'),
    ("cliques", [], "[1, 2, 3]"),
    ("cliques", [], "[[1, 2.5], [3, 4]]"),
    ("cliques", [], "[[1, 2], [true, 4], [3, 4]]"),
]


@pytest.mark.parametrize("kind,extra,text", MALFORMED_INPUTS, ids=[
    "edge-not-a-list", "null-edges", "float-n", "float-vertex",
    "bool-vertex", "bool-k", "string-n", "clique-not-a-list",
    "float-clique-vertex", "bool-clique-vertex"])
def test_malformed_hypergraph_input_exits_2(capsys, tmp_path, kind, extra, text):
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    if kind == "lambda":
        argv = ["avoiders", "--n", "4", "--lambda-file", str(bad), *extra]
    else:
        lam = tmp_path / "k4.txt"
        lam.write_text(COMPLETE_K4)
        argv = ["clique-cover", "--lambda-file", str(lam), "--cliques-file", str(bad)]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "Traceback" not in err


def test_caps_refuse_before_the_complete_hypergraph_is_built(capsys, monkeypatch):
    def refuse(cls, n, k):
        raise AssertionError("the complete hypergraph was built")

    monkeypatch.setattr(KUniformHypergraph, "complete", classmethod(refuse))
    for argv in (["avoiders", "--n", "150", "--pi", "1,2,3"],
                 ["build-h", "--n", "150", "--pi", "1,2,3"],
                 ["delta", "--n", "150", "--pi", "1,2,3", "--ell", "1"]):
        code, out, err = run_cli(capsys, *argv)
        assert code == 3, err
        assert out == ""
    # Below the caps the complete hypergraph is still only counted.
    assert run_json(capsys, "avoiders", "--n", "5", "--pi", "1,3,2")["lambda_edges"] == 10
    assert run_json(capsys, "build-h", "--n", "4", "--pi", "2,1")["lambda_edges"] == 6


def test_csv_of_single_report(capsys):
    code, out, _ = run_cli(capsys, "count", "--sigma", "2,4,1,3",
                           "--pi", "1,2", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "count,pi,sigma"
    assert lines[1] == '3,"1,2","2,4,1,3"'


def test_missing_subcommand_exits_2(capsys):
    assert run_cli(capsys)[0] == 2


def test_removed_threads_flag_exits_2(capsys):
    code, out, _ = run_cli(capsys, "count", "--sigma", "2,1", "--pi", "1,2",
                           "--threads", "4")
    assert code == 2
    assert out == ""


SIGMA = ["expect-mc", "--estimator", "sigma", "--alpha", "1/2"]


def _no_sampling(monkeypatch):
    def refuse(seed):
        raise AssertionError("a refused run drew a sample")
    monkeypatch.setattr(rngutil, "generator", refuse)


def test_sigma_estimator_refuses_n_past_float_range(capsys, monkeypatch):
    # n! is the estimator's scale factor; 171! no longer converts to a float.
    code, out, _ = run_cli(capsys, *SIGMA, "--n", "170", "--pi", "2,1",
                           "--samples", "3", "--seed", "9")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "f473e50893bb9042102373fd556e834386ef73a843003e60a5a8b3cd540accd0"
    _no_sampling(monkeypatch)
    for n in ("171", "200"):
        code, out, err = run_cli(capsys, *SIGMA, "--n", n, "--pi", "2,1",
                                 "--samples", "2")
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and "n <= 170" in err


def test_sigma_estimator_cost_is_gated(capsys, monkeypatch):
    _no_sampling(monkeypatch)
    # samples * C(2000,3) * 3 is about 8e9, past the default 5e9.
    code, out, err = run_cli(capsys, *SIGMA, "--n", "2000", "--pi", "1,2,3",
                             "--samples", "2")
    assert code == 3 and out == ""
    assert "cost_ceiling" in err
    code, _, err = run_cli(capsys, *SIGMA, "--n", "7", "--pi", "1,3,2",
                           "--samples", "300", "--cost-ceiling", "1000")
    assert code == 3 and "requested 31500" in err
    # alpha and samples are checked before the cost.
    code, _, err = run_cli(capsys, "expect-mc", "--estimator", "sigma", "--alpha", "2",
                           "--n", "2000", "--pi", "1,2,3", "--samples", "2")
    assert code == 2 and "alpha" in err
    code, _, _ = run_cli(capsys, *SIGMA, "--n", "2000", "--pi", "1,2,3",
                         "--samples", "0")
    assert code == 2


def test_sample_density_cost_is_gated(capsys, monkeypatch, tmp_path):
    _no_sampling(monkeypatch)
    src = tmp_path / "m.txt"
    src.write_text(permutation_matrix((2, 4, 1, 3)).to_text() + "\n")
    density = ["sample-density", "--from-file", str(src), "--pi", "1,2"]
    # trials * C(3,2) * 2 * 3 = 1.8e13, past the default 5e9.
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *density, "--r", "3", "--trials", str(10**12))
    assert time.perf_counter() - start < 2
    assert code == 3 and out == ""
    assert "cost_ceiling" in err
    code, _, err = run_cli(capsys, *density, "--r", "3", "--trials", "100",
                           "--cost-ceiling", "1000")
    assert code == 3 and "requested 1800" in err
    # trials and r are checked before the cost.
    code, _, _ = run_cli(capsys, *density, "--r", "5", "--trials", str(10**12))
    assert code == 2
    code, _, _ = run_cli(capsys, *density, "--r", "3", "--trials", "0")
    assert code == 2


def test_version_flag(capsys):
    code, out, _ = run_cli(capsys, "--version")
    assert code == 0
    assert __version__ in out


def test_console_entry_point_matches_in_process(capsys):
    argv = ["count", "--sigma", "2,4,1,3", "--pi", "1,2"]
    _, inproc, _ = run_cli(capsys, *argv)
    proc = subprocess.run([sys.executable, "-m", "permavoid.cli", *argv],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout == inproc
