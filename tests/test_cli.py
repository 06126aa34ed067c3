import csv
import hashlib
import io
import json
import os
import subprocess
import sys
import time

import pytest
from hypothesis import example, given, settings, strategies as st

from permavoid import (
    BinaryMatrix,
    KUniformHypergraph,
    __version__,
    kernels,
    permutation_matrix,
    rngutil,
)
from permavoid.cli import _render_json, main

import oracles


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


def test_count_and_occurrences_refuse_past_the_cost_ceiling(capsys):
    # C(1000, 4) * 4 and C(1000, 3) * 3 are far past 1000, and the
    # walks they project would run for minutes: both refuse first.
    sigma = ",".join(map(str, range(1, 1001)))
    for sub, pi in [("count", "1,2,3,4"), ("occurrences", "1,2,3")]:
        code, out, err = run_cli(capsys, sub, "--sigma", sigma, "--pi", pi,
                                 "--cost-ceiling", "1000")
        assert code == 3 and out == ""
        assert "cost_ceiling" in err
    # C(4, 2) * 2 = 12: the ceiling is inclusive.
    for ceiling, want in [("11", 3), ("12", 0)]:
        code, out, _ = run_cli(capsys, "count", "--sigma", "2,4,1,3", "--pi", "1,2",
                               "--cost-ceiling", ceiling)
        assert code == want


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


def test_lambda_star_round_trip_forces_the_halves(capsys, tmp_path):
    # Lambda* at k = 2 forbids 21 on every crossing pair: the first half
    # takes the low values, so ((n/2)!)^2 permutations avoid it.
    lam = tmp_path / "star.json"
    lam.write_text(json.dumps(run_json(capsys, "lambda-star", "--n", "10", "--k", "2")))
    data = run_json(capsys, "avoiders", "--n", "10", "--pi", "2,1",
                    "--lambda-file", str(lam))
    assert data["count"] == 120 ** 2
    assert data["lambda_edges"] == 5 * 5


def test_avoiders_over_disjoint_cliques(capsys, tmp_path):
    blocks = [range(1, 5), range(5, 10)]
    lam = tmp_path / "cliques.json"
    lam.write_text(json.dumps({"n": 9, "k": 3, "edges": oracles.clique_edges(blocks, 3)}))
    data = run_json(capsys, "avoiders", "--n", "9", "--pi", "1,3,2",
                    "--lambda-file", str(lam))
    want = oracles.disjoint_cliques_avoiders(9, blocks, oracles.catalan)
    assert data["count"] == want == 74_088
    assert data["lambda_edges"] == 4 + 10


def test_avoiders_over_consecutive_windows(capsys, tmp_path):
    lam = tmp_path / "windows.json"
    lam.write_text(json.dumps({"n": 9, "k": 3, "edges": oracles.windows(range(1, 10), 3)}))
    for pi, want in [((1, 2, 3), 99_377), ((1, 3, 2), 71_793)]:
        data = run_json(capsys, "avoiders", "--n", "9", "--pi", ",".join(map(str, pi)),
                        "--lambda-file", str(lam))
        assert data["count"] == oracles.consecutive_avoiders(9, pi) == want
        assert data["lambda_edges"] == 7


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


def test_expect_mc_sigma_refuses_a_mismatched_k(capsys):
    # The sigma estimator draws no hypergraph, but a --k other than the
    # pattern length is refused as the lambda estimator and expect do.
    alpha = ["--pi", "2,1", "--alpha", "1/2"]
    sigma = ["expect-mc", "--estimator", "sigma", "--samples", "10", *alpha]
    lam = ["expect-mc", "--estimator", "lambda", "--samples", "10", *alpha]
    for argv in (sigma, lam, ["expect", *alpha]):
        code, out, err = run_cli(capsys, *argv, "--n", "5", "--k", "7")
        assert code == 2 and out == ""
        assert "uniformity k=7 but pattern has length 2" in err
    assert run_json(capsys, *sigma, "--n", "5", "--k", "2")["k"] == 2


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


def test_extremal_copy_count_is_gated(capsys):
    # C(200,5) * 5 * 200 is about 2.5e12, past the default 5e9: the
    # count would run for minutes, so it is refused first.
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "extremal", "--n", "200", "--a", "400",
                             "--pi", "1,2,3,4,5")
    assert time.perf_counter() - start < 2
    assert code == 3 and out == ""
    assert "cost_ceiling" in err
    # C(4,2) * 2 * 4 = 48: the ceiling is inclusive.
    for ceiling, want in [("47", 3), ("48", 0)]:
        code, _, _ = run_cli(capsys, "extremal", "--n", "4", "--a", "8", "--pi", "2,1",
                             "--cost-ceiling", ceiling)
        assert code == want
    # Without --pi nothing is counted, so nothing is charged.
    code, _, _ = run_cli(capsys, "extremal", "--n", "4", "--a", "8", "--cost-ceiling", "0")
    assert code == 0


def test_extremal_report_is_gated(capsys):
    # The report prints all n^2 cells: 9M at n = 3000, past the default
    # subset ceiling of 5M, so it is refused before the matrix is built.
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "extremal", "--n", "3000", "--a", "3000")
    assert time.perf_counter() - start < 2
    assert code == 3 and out == ""
    assert "subset_ceiling" in err
    # 100^2 cells: the ceiling is inclusive.
    for ceiling, want in [("9999", 3), ("10000", 0)]:
        code, _, _ = run_cli(capsys, "extremal", "--n", "100", "--a", "100",
                             "--subset-ceiling", ceiling)
        assert code == want
    # Invalid input is still refused first, with exit 2.
    code, _, _ = run_cli(capsys, "extremal", "--n", "3000", "--a", "3001")
    assert code == 2


def test_hypergraph_and_lambda_star_charge_their_candidates(capsys, monkeypatch):
    # Both list all C(n,k) candidate edges, charged against the edge
    # ceiling: C(1001,2) = 500,500 is one past the default 500,000.
    hypergraph = ["hypergraph", "--n", "1001", "--k", "2", "--alpha", "0"]
    code, out, err = run_cli(capsys, *hypergraph)
    assert code == 3 and out == "" and "edge_ceiling" in err
    assert run_json(capsys, *hypergraph, "--edge-ceiling", "500500")["edges"] == []
    # C(10,3) = 120: the ceiling is inclusive.
    for ceiling, want in [("119", 3), ("120", 0)]:
        code, _, _ = run_cli(capsys, "lambda-star", "--n", "10", "--k", "3",
                             "--edge-ceiling", ceiling)
        assert code == want
    # C(3000,3) is about 4.5e9: refused before one candidate is listed
    # or one sample drawn.
    _no_sampling(monkeypatch)
    for argv in (["hypergraph", "--n", "3000", "--k", "3", "--alpha", "1/2", "--seed", "1"],
                 ["lambda-star", "--n", "3000", "--k", "3"]):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, *argv)
        assert time.perf_counter() - start < 2
        assert code == 3 and out == ""
        assert "edge_ceiling" in err
    # Invalid input is still refused first, with exit 2.
    code, _, _ = run_cli(capsys, "hypergraph", "--n", "3000", "--k", "3", "--alpha", "2")
    assert code == 2
    code, _, _ = run_cli(capsys, "lambda-star", "--n", "3001", "--k", "3")
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


def test_min_copies_charges_its_supports_to_the_subset_ceiling(capsys):
    # C(16, 8) = 12870 supports, refused before the first block.
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "min-copies", "--n", "4", "--pi", "1,2", "--a", "8",
                             "--subset-ceiling", "12869")
    assert time.perf_counter() - start < 2
    assert code == 3 and out == ""
    assert "subset_ceiling" in err and "requested 12870" in err
    # The matrix cap is checked first, and invalid input before either.
    code, _, err = run_cli(capsys, "min-copies", "--n", "5", "--pi", "1,2", "--a", "8",
                           "--subset-ceiling", "0")
    assert code == 3 and "matrix_cap" in err
    code, _, _ = run_cli(capsys, "min-copies", "--n", "4", "--pi", "1,2", "--a", "17",
                         "--subset-ceiling", "0")
    assert code == 2


def test_max_ones_cli(capsys):
    data = run_json(capsys, "max-ones", "--n", "3", "--pi", "1,2",
                    "--mode", "search")
    assert data["max_ones"] == 5
    assert data["method"] == "branch-and-bound"


def test_max_ones_search_cost_is_gated(capsys):
    # Each row-transfer state is charged 2^n = 512 plus its bitset's
    # bytes.  The whole run charges about 545,600, so a ceiling of 10,000
    # refuses it after about 20 states, with room for further pruning.
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "max-ones", "--n", "9", "--pi", "1,2,3",
                             "--mode", "search", "--cost-ceiling", "10000")
    assert time.perf_counter() - start < 2
    assert code == 3 and out == ""
    assert "cost_ceiling" in err
    # The enumeration cap is checked first.
    code, out, err = run_cli(capsys, "max-ones", "--n", "13", "--pi", "1,2",
                             "--mode", "search", "--cost-ceiling", "1")
    assert code == 3 and out == ""
    assert "enum_cap" in err


def test_max_ones_charges_each_state_its_masks_and_bytes(capsys):
    # n = 1, pattern 1: one state, {the empty embedding}, charged
    # 2^1 masks plus its 1-byte bitset.  Both modes are gated, and the
    # ceiling is inclusive.
    for mode in ("search", "exhaustive"):
        for ceiling, want in [("2", 3), ("3", 0)]:
            code, out, err = run_cli(capsys, "max-ones", "--n", "1", "--pi", "1",
                                     "--mode", mode, "--cost-ceiling", ceiling)
            assert code == want
            assert ("cost_ceiling" in err) == (want == 3)


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
    assert manifest_path.read_text() == json.dumps(manifest, sort_keys=True, indent=2) + "\n"
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

# A seeded 3-graph on 9 vertices: 28 of the C(9,3) = 84 triples,
# random.Random(13).sample of the lexicographic triples, sorted.
GOLDEN_LAMBDA = """9 3
1 2 4
1 2 6
1 3 5
1 3 6
1 3 7
1 4 8
1 5 6
1 6 8
1 8 9
2 3 4
2 3 5
2 3 9
2 4 6
2 4 8
2 7 9
3 4 6
3 5 7
3 5 8
3 5 9
3 6 9
4 6 7
4 6 8
4 8 9
5 6 9
5 8 9
6 7 9
6 8 9
7 8 9
"""

# A sparse matrix whose 2-contraction keeps zeros, and a 4-cycle on the
# rows of the 4 x 4 grid.
GOLDEN_SPARSE = """8 8
10000000
00000000
00100000
00000000
00000100
00000000
00000000
00000011
"""
GOLDEN_GRID_LAMBDA = "4 2\n1 2\n1 4\n2 3\n3 4\n"

# A 12 x 12 matrix with three zero rows: past a side of 8, contraction
# merges rows one at a time instead of as bytes of one int.
GOLDEN_WIDE = """12 12
100100000010
000000000000
001010010000
010000001001
000000000000
100001100000
000100000100
000000000000
011000000010
000000010001
000010000000
100000100001
"""

PLACEHOLDERS = {"MATRIX": GOLDEN_MATRIX, "LAMBDA": GOLDEN_LAMBDA, "EMPTY": "8 3\n",
                "SPARSE": GOLDEN_SPARSE, "GRID": GOLDEN_GRID_LAMBDA, "WIDE": GOLDEN_WIDE}

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
    # Past brute force: 132 at n = 6 and 7, and a pattern of length 4.
    (["max-ones", "--n", "6", "--pi", "1,3,2", "--mode", "search"],
     "007fde54efcb5c4bf93f237b7cd5d32c3c63e51f4d4b4d75153daa70abb6b445"),
    (["max-ones", "--n", "7", "--pi", "1,3,2", "--mode", "search"],
     "c1948318ee54dedb1aeed50139bfe0406ff103df87a8c94e51bf8654261c4d95"),
    (["max-ones", "--n", "5", "--pi", "2,4,1,3", "--mode", "search"],
     "1bc97f7abe83d2c3de5200b4da7d8e272d84c11d67fadfdc107c4e9a0a888f96"),
    # k > n: the full matrix holds no copy.
    (["max-ones", "--n", "2", "--pi", "1,2,3", "--mode", "search"],
     "a960ce6ad94a3077b74c5279d352c180634c1de1d90ae10cf79508b77220f850"),
    # The diagonal-blocks construction, with and without its copy count.
    (["extremal", "--n", "4", "--a", "8", "--pi", "2,1"],
     "b67f60ab18cc19df32e55c7f399bd13c9ac9f0b92f1195e7136b9acea5c22a13"),
    (["extremal", "--n", "6", "--a", "12"],
     "fcd4acc24e979b77fd758f7fcd07a3028591edda3f4e7e8d532c22210695f434"),
    # The supersaturation floor and its first minimising witness.
    (["min-copies", "--n", "4", "--pi", "1,2", "--a-grid", "5,6,7,8,9,10"],
     "59ad7e4206e0982fdec0a85f438ddbbb110b86a55038245910bbe313d1ab85d1"),
    (["min-copies", "--n", "3", "--pi", "1,3,2", "--a-grid", "0,1,2,3,4,5,6,7,8,9"],
     "45bee4270b5a0aedcfd50e7d82a09f9b7332322fa8d981a09aab5864840a1c46"),
    (["min-copies", "--n", "3", "--pi", "1,3,2", "--a-grid", "0,1,2,3,4,5,6,7,8,9",
      "--format", "csv"],
     "15c2f5c3fe673eaa7d70cf1ce4bdb67cec36b793a7d3d043c934d715a7a95cd8"),
    # The exhaustive optimum and its least-mask-value witness.
    (["max-ones", "--n", "3", "--pi", "1,2", "--mode", "exhaustive"],
     "8b3e247af9abd3adb77713924e2c270e9c8ba422db84693307899f728094ef7b"),
    (["max-ones", "--n", "4", "--pi", "1,2", "--mode", "exhaustive"],
     "559be7158c080537c22ca6af6f3422fff198d91b6c7af3d5934f43ed7a939617"),
    (["max-ones", "--n", "3", "--pi", "2,1", "--mode", "exhaustive"],
     "21ce174853ef04c1d03ebf34a56c5c0ad78e4c9ab0d241f2d569e564bdd16d49"),
    (["max-ones", "--n", "4", "--pi", "2,1", "--mode", "exhaustive"],
     "97b9c31bd6796329f8140a13ae4403f4dc02b793e02460de2b6b717aa175a409"),
    (["max-ones", "--n", "3", "--pi", "1,3,2", "--mode", "exhaustive"],
     "eb3483b086178618acb296ceda042bf9551cd83481ef8e41aa9ab504d6953b9a"),
    (["max-ones", "--n", "4", "--pi", "1,3,2", "--mode", "exhaustive"],
     "00c718c325c36b9d4b4b274efdd1fb36e91d4e7c4b682a51e7fdd845bb4dd9ab"),
    (["max-ones", "--n", "3", "--pi", "1,2,3", "--mode", "exhaustive"],
     "2e7264a207628350b864614ee105003be6295f4aa1a09a56486e695fc230d5ae"),
    (["max-ones", "--n", "4", "--pi", "1,2,3", "--mode", "exhaustive"],
     "514b33c626264c50cef11e59bfb8cbdd0a294ba74d7e081dcbf04ca8a13d1790"),
    (["max-ones", "--n", "3", "--pi", "2,4,1,3", "--mode", "exhaustive"],
     "4d7614467651823e2b516391f2a80636bf742594c7ece9a95e19f5d2f5d152f4"),
    (["max-ones", "--n", "4", "--pi", "2,4,1,3", "--mode", "exhaustive"],
     "6a8879e518103de2708e45dbf159fc5a67bf03a79b32f46f321d33f7669d264e"),
    (["max-ones", "--n", "4", "--pi", "1,3,2", "--mode", "exhaustive", "--format", "csv"],
     "90a3f4fd1fe52eb85dae2232b586808790baff45c26990aa7c1c56b88a1c40ca"),
    # The lambda estimator's draws: alpha = 0 and 1 draw nothing, one
    # sample, 4097 samples over three blocks of draws, C(9,3) = 84 index
    # sets (two 64-bit words), and k = 1.
    (["expect-mc", "--estimator", "lambda", "--n", "5", "--k", "2",
      "--pi", "2,1", "--alpha", "0", "--samples", "20", "--seed", "3"],
     "5723ed914fd8986aeab98fd6aa6edc16128ccfebe6ab2b9392d45e4ca6e14045"),
    (["expect-mc", "--estimator", "lambda", "--n", "5", "--k", "2",
      "--pi", "2,1", "--alpha", "1", "--samples", "20", "--seed", "3"],
     "1765591e00ec4a53df85a18f244f3fca719850e19c5175d105d99dccd110ec75"),
    (["expect-mc", "--estimator", "lambda", "--n", "5", "--k", "2",
      "--pi", "2,1", "--alpha", "2/5", "--samples", "1", "--seed", "3"],
     "9e88484f90bed8da7713b8d7dd29d150df375f55fea3e5af73fd8137d96f98ad"),
    (["expect-mc", "--estimator", "lambda", "--n", "4", "--k", "2",
      "--pi", "1,2", "--alpha", "1/2", "--samples", "4097", "--seed", "5"],
     "35a7c11f6e6911b3105f0ea772d8b87a6193e868519c5224c39ebb611cc943f6"),
    (["expect-mc", "--estimator", "lambda", "--n", "9", "--k", "3",
      "--pi", "1,3,2", "--alpha", "1/3", "--samples", "3", "--seed", "2"],
     "8013ea49f21dc2e0f2c58065cd8196680b074743a04507be37b51beb22e38ec2"),
    (["expect-mc", "--estimator", "lambda", "--n", "4", "--k", "1",
      "--pi", "1", "--alpha", "1/2", "--samples", "50", "--seed", "1"],
     "c73a0c9be079953e212bf13b2cd9193c625db73a4aea8fe4718424313cb1709f"),
    # Avoider censuses: the complete hypergraph (C_9 = 4862 for 132, and
    # one 21-avoider), a seeded 3-graph, the lists of one lex block of
    # S_7 and of blocks under a 1-value prefix in S_8, k = 1, and no edges.
    (["avoiders", "--n", "9", "--pi", "1,3,2"],
     "301126fd9f2f80a090e96744f5026410d81e60df96ce8028e7d91da91eebbba3"),
    (["avoiders", "--n", "8", "--pi", "2,1"],
     "a91d7e4b8c03a300ed58d9558297fea6b61220a92f3b6ded65133093bb5ad666"),
    (["avoiders", "--n", "9", "--pi", "1,3,2", "--lambda-file", "LAMBDA"],
     "1fae746f92e8b6e107e4b2f9a5d73adb6d6c7b0eeada01045975ebfe5888f058"),
    (["avoiders", "--n", "7", "--pi", "1,3,2", "--list"],
     "900b9315bb19cde9758be5a4dd54316034789bb803952c8ae597e74a9438e18a"),
    (["avoiders", "--n", "8", "--pi", "2,3,1", "--list"],
     "22d0ba0401595db0f82eae30e84026347338595e0b569c0de3f9e140f601d995"),
    (["avoiders", "--n", "5", "--pi", "1", "--list"],
     "846618c2841565b674e490713edf2bd5d5986ec0e496e63e5dbac2d6d0d9dc4d"),
    (["avoiders", "--n", "8", "--pi", "1,3,2", "--lambda-file", "EMPTY"],
     "621f793f8b4f630c358166e63f1b69326d174ebe76274959b198595eb9ea10d1"),
    # Histograms over several lex blocks of S_8 and S_9: two pattern
    # lengths, a grid expectation and the m-copy count.
    (["distribution", "--n", "9", "--pi", "1,3,2"],
     "a306341be1fa8f5958cfa4606fd9b0c771c75cc0650bd6516ffaf8bcbce041c1"),
    (["distribution", "--n", "8", "--pi", "2,4,1,3"],
     "43a27df9616af878d965ca05d301c49d304748fad45016f399275934086cc01e"),
    (["expect", "--n", "8", "--pi", "2,1", "--alpha-grid", "1/8,1/4,1/2"],
     "5919d3ee21487589a3c02ff49308f13d40f8bf4523208432a09116844c481b94"),
    (["snm", "--n", "9", "--m", "2", "--pi", "1,3,2"],
     "4385d7fe1bf77894276f91754367d3c85306ab56fb123376cdcb7027eb131391"),
    # The JSON writer's equal-width int rows: 2,470 drawn edges and the
    # 216 crossing triples of a two-part 12-vertex hypergraph.
    (["hypergraph", "--n", "40", "--k", "3", "--alpha", "1/4", "--seed", "5"],
     "82f97a1415034fdb12bf0a7c576cf0e2b2f86bac180fdbac1aa4c9438af7f576"),
    (["lambda-star", "--n", "12", "--k", "3"],
     "f46298ca2799371d1daa81908895f4d21bad348f2dc063589e839b9eed657765"),
    # C(20,3) = 1140 index sets, past the cached subset table, so the
    # sigma estimator's block kernel streams them.
    (["expect-mc", "--estimator", "sigma", "--n", "20", "--pi", "1,3,2",
      "--alpha", "1/3", "--samples", "3000", "--seed", "9"],
     "d42bf1eed041c1c612b7b72f712503fe0ec430de191d55d626d28859e639b76e"),
    # Blocks numpy draws itself, not rngutil._bounded: the last block of
    # 3 samples of S_8 makes 21 draws, an odd count.  With r the matrix's
    # side the last step of each subset draws from a span of 1, and every
    # sample is the whole matrix.
    (["expect-mc", "--estimator", "sigma", "--n", "8", "--pi", "1,3,2",
      "--alpha", "1/3", "--samples", "2051", "--seed", "3"],
     "d1b1229c016c96368377b0a6ef02b7a78f3ffa0ddcc7fe35666c94b616e52ac3"),
    (["sample-density", "--from-file", "MATRIX", "--pi", "1,3,2", "--r", "8",
      "--trials", "60", "--seed", "5"],
     "6c155e79c3f4491858913035f08207028547ec99bf99a75588bdc80abbbb4482"),
    # Copy counts looked up by shuffle code: 45,000 samples of S_8 in 22
    # blocks, the last of 1,992 samples.
    (["expect-mc", "--estimator", "sigma", "--n", "8", "--pi", "2,1",
      "--alpha", "1/4", "--samples", "45000", "--seed", "5"],
     "3cdb4cf49ccf47922baa82a2ba125ff9ce296a5d8a238a212aa28cde6ec82288"),
    # Contraction in both forms, the 2-contraction's preimage count, and
    # the grid hypergraph of 21 over a fixed index graph.
    (["contract", "--from-file", "SPARSE"],
     "a6943ec3fd2b34bcaa1108bd5feca610e4198c3fab41223c3fdee42132b654e7"),
    (["contract", "--from-file", "MATRIX"],
     "0e92f8d199e5b733df871a402dfd0ca21ba35957075f17703c8fc6d5c638fc79"),
    (["contract", "--from-file", "MATRIX", "--b", "3/2"],
     "c1e4f42f3ce6373b0deb2bf8782b42fa8d7c6288174839f69decef928eaff9a7"),
    (["contract", "--from-file", "WIDE"],
     "0d9dfac76ca2837463f35807bea7df5bb457b7c224aeaa7fa6e8cc20eaca8c8d"),
    (["contract", "--from-file", "WIDE", "--b", "3/2"],
     "b6cd5e58738ca2ffa3413886c62096bc88ecc84d0bdecf39bffc7c01b4dcab1d"),
    (["preimage", "--from-file", "MATRIX"],
     "34d306f1a4fe1f3d96ddbb7fcee3bab69e024306b30148c49c7e411872d802b8"),
    (["build-h", "--n", "4", "--pi", "2,1", "--lambda-file", "GRID"],
     "06b1b057e576b99e2eab5d5853c7f111056a61bae45b647fa2607bda0a4814e4"),
    (["delta", "--n", "4", "--pi", "2,1", "--lambda-file", "GRID", "--ell", "2"],
     "73ea7759f266f707b92f0d1751b39b5440970ed86051dfa703520fef45780747"),
    (["independents", "--n", "4", "--pi", "2,1", "--lambda-file", "GRID", "--size", "6"],
     "869d9c19f87efdc695d74740c2ce4dd8c285649eebb3cba59a2884c22a926960"),
]


@pytest.mark.parametrize("argv,digest", GOLDEN_DIGESTS, ids=[
    "expect-mc-sigma", "expect-mc-lambda", "hypergraph", "sample-density",
    "expect-grid-json", "expect-grid-csv", "expect-mc-sigma-alpha-0",
    "expect-mc-sigma-alpha-1", "expect-mc-sigma-one-sample",
    "max-ones-123-n5", "max-ones-321-n5", "max-ones-12-n6", "max-ones-12-n4",
    "max-ones-132-n5", "max-ones-132-n6", "max-ones-132-n7", "max-ones-2413-n5",
    "max-ones-1-n1", "max-ones-123-n2", "extremal-21-n4", "extremal-n6",
    "min-copies-12-n4",
    "min-copies-132-n3-json", "min-copies-132-n3-csv",
    "max-ones-exhaustive-12-n3", "max-ones-exhaustive-12-n4", "max-ones-exhaustive-21-n3",
    "max-ones-exhaustive-21-n4", "max-ones-exhaustive-132-n3", "max-ones-exhaustive-132-n4",
    "max-ones-exhaustive-123-n3", "max-ones-exhaustive-123-n4", "max-ones-exhaustive-2413-n3",
    "max-ones-exhaustive-2413-n4", "max-ones-exhaustive-132-n4-csv",
    "expect-mc-lambda-alpha-0", "expect-mc-lambda-alpha-1", "expect-mc-lambda-one-sample",
    "expect-mc-lambda-4097-samples", "expect-mc-lambda-two-words", "expect-mc-lambda-k1",
    "avoiders-132-n9", "avoiders-21-n8", "avoiders-seeded-n9", "avoiders-list-n7",
    "avoiders-list-n8", "avoiders-k1-list", "avoiders-no-edges", "distribution-132-n9",
    "distribution-2413-n8", "expect-grid-21-n8", "snm-132-n9", "hypergraph-n40",
    "lambda-star-n12", "expect-mc-sigma-streamed-sets", "expect-mc-sigma-odd-draws",
    "sample-density-span-1", "expect-mc-sigma-coded-n8", "contract-2-sparse", "contract-2", "contract-b-3/2",
    "contract-2-side-12", "contract-b-3/2-side-12",
    "preimage", "build-h-21-n4", "delta-21-n4", "independents-21-n4"])
def test_golden_stdout_digests(capsys, tmp_path, argv, digest):
    for name, text in PLACEHOLDERS.items():
        (tmp_path / name).write_text(text)
    argv = [str(tmp_path / a) if a in PLACEHOLDERS else a for a in argv]
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    assert hashlib.sha256(out.encode()).hexdigest() == digest


class _Str(str):
    pass


class _Int(int):
    pass


BIG = st.integers(-2**70, 2**70)  # past 2^64 both ways
LEAVES = st.one_of(
    st.none(), st.booleans(), BIG, st.floats(),  # NaN, +-inf and -0.0 among them
    st.text(max_size=6),  # non-ASCII and control characters among them
    st.builds(_Str, st.text(max_size=3)), st.builds(_Int, BIG),
)
INT_ROWS = st.integers(1, 4).flatmap(
    lambda width: st.lists(st.lists(BIG, min_size=width, max_size=width), min_size=1,
                           max_size=5))
SPOILED_ROWS = st.tuples(INT_ROWS, st.sampled_from([True, _Int(1), 1.0, None])).map(
    lambda drawn: drawn[0][:-1] + [drawn[0][-1][:-1] + [drawn[1]]])  # one cell not an int
RAGGED_ROWS = st.lists(st.lists(BIG, max_size=3), max_size=4)
JSON_VALUES = st.recursive(
    st.one_of(LEAVES, st.lists(BIG, max_size=5), INT_ROWS, SPOILED_ROWS, RAGGED_ROWS),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=3).map(tuple),
        st.dictionaries(st.text(max_size=4), inner, max_size=4),
        st.dictionaries(st.one_of(st.text(max_size=2), st.builds(_Str, st.text(max_size=2))),
                        inner, max_size=3),
        st.dictionaries(st.one_of(st.integers(), st.booleans()), inner, max_size=3),
    ),
    max_leaves=24,
)


@settings(derandomize=True, deadline=None, max_examples=150, database=None)
@given(value=JSON_VALUES)
@example(value={"x": [float("nan"), float("inf"), -float("inf"), -0.0, 1e300, 2**70, -2**70],
                "y": ["\u00e9\x00\n\"\\", _Str("s"), _Int(3), True, False, None, [], {}, ()],
                "z": [[1, 2], [3, 4], {_Str("w"): [[1, True], [2, 3]]}]})
def test_json_writer_matches_json_dumps(value):
    assert _render_json(value) == json.dumps(value, sort_keys=True, indent=2) + "\n"


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


def test_sample_density_exact_pass_is_gated(capsys, monkeypatch, tmp_path):
    # The exact density sweeps C(60,5) * 5 * 60 = 1.6e9 row-subset
    # columns; a ceiling of 10 refuses it before any count, and before
    # any draw, though the sampling cost 1 * 1 * 5 * 2 = 10 is admitted.
    rng = rngutil.generator(60)
    src = tmp_path / "m.txt"
    src.write_text(BinaryMatrix.from_rows(rng.integers(0, 2, (60, 60)).tolist()).to_text())
    _no_sampling(monkeypatch)
    density = ["sample-density", "--from-file", str(src), "--pi", "1,3,2,4,5"]
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *density, "--r", "2", "--trials", "1",
                             "--cost-ceiling", "10")
    assert time.perf_counter() - start < 2
    assert code == 3 and out == ""
    assert "requested 1638453600" in err
    # r is checked before the exact cost.
    code, _, _ = run_cli(capsys, *density, "--r", "61", "--trials", "1",
                         "--cost-ceiling", "10")
    assert code == 2


HUGE_DENOMINATOR = "1/100000000000000000000"  # past 2^64


@pytest.mark.parametrize("argv", [
    ["hypergraph", "--n", "4", "--k", "2", "--seed", "1"],
    ["expect-mc", "--estimator", "lambda", "--n", "4", "--k", "2", "--pi", "2,1",
     "--samples", "3", "--seed", "1"],
])
def test_bernoulli_draws_refuse_denominators_past_2_64(capsys, argv):
    code, out, err = run_cli(capsys, *argv, "--alpha", HUGE_DENOMINATOR)
    assert (code, out) == (2, "")
    assert "denominator <= 2^64" in err
    # 2^64 itself is the largest bound a uint64 draw takes.
    code, out, err = run_cli(capsys, *argv, "--alpha", f"1/{2**64}")
    assert code == 0, err


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


def test_malformed_limit_env_exits_2():
    # The environment is read when a run first needs a limit, not at
    # import, so a bad value is an input error of the run.
    env = dict(os.environ, PERMAVOID_ENUM_CAP="abc")
    proc = subprocess.run([sys.executable, "-m", "permavoid.cli", "distribution",
                           "--n", "4", "--pi", "1,2"],
                          capture_output=True, text=True, env=env)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith("error: environment variable PERMAVOID_ENUM_CAP='abc'")
    assert "Traceback" not in proc.stderr
    proc = subprocess.run([sys.executable, "-c", "import permavoid"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
