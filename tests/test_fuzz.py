"""Fuzz the command line: argv over every subcommand, with valid and
broken matrix, hypergraph and clique files.

Every run must exit 0, 2 or 3, raise nothing, print no traceback, and
leave stdout empty unless it exits 0.  Every argv carries small caps, so
each run stays fast; the draws are derandomized, so a failure reproduces.
"""

import io
import itertools
import json
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from permavoid.cli import main

CAPS = ["--enum-cap", "5", "--matrix-cap", "3", "--edge-ceiling", "2000",
        "--subset-ceiling", "20000", "--cost-ceiling", "200000"]

# Hypothesis leans towards the first choice of each strategy, so valid
# values come first and the broken ones after.
INT = st.integers(1, 6).map(str)
EDGE = st.sampled_from(["0", "-1", "7", "9", "x", "", "1.5", "1/0", "1e3", "nan"])
SMALL = st.one_of(INT, INT, INT, EDGE)  # mostly in range
RATIONAL = st.sampled_from(["1/2", "1/3", "2/5", "0", "1", "3/2", "2", "-1/2",
                            "0.5", "1/0", "x", ""])
GRID = st.sampled_from(["1/2,1/3", "0,1", "", ",", "0,2", "1/2,x"])


@st.composite
def permutation_text(draw):
    n = draw(st.integers(1, 6))
    values = draw(st.permutations(range(1, n + 1)))
    if draw(st.integers(0, 5)) == 5:  # a broken one
        return draw(st.sampled_from(["", "1,1", "0", "2,3", "a", "1,,2", "1 2 x"]))
    return ",".join(map(str, values))


@st.composite
def matrix_text(draw):
    rows = draw(st.integers(1, 4))
    cols = draw(st.sampled_from([rows, 2 * rows, 1, 2, 3, 4]))
    lines = ["".join(draw(st.sampled_from("01")) for _ in range(cols)) for _ in range(rows)]
    text = f"{rows} {cols}\n" + "\n".join(lines)
    broken = draw(st.integers(0, 6))
    if broken == 1:
        text = text.replace("1", "2", 1)
    elif broken == 2:
        text = f"{rows + 1} {cols}\n" + "\n".join(lines)
    elif broken == 3:
        text = draw(st.sampled_from(["0 0\n", "3 0\n\n\n\n", "", "x y\n", "2\n01\n10",
                                     "-1 2\n", "1 2\n0 1"]))
    return text


@st.composite
def hypergraph_text(draw):
    n, k = draw(st.integers(2, 6)), draw(st.integers(1, 3))
    edges = [list(e) for e in itertools.combinations(range(1, n + 1), k)]
    if edges and draw(st.booleans()):
        edges = draw(st.lists(st.sampled_from(edges), unique_by=tuple))
    doc = {"n": n, "k": k, "edges": edges}
    broken = draw(st.integers(0, 8))
    if broken == 1:
        doc["edges"] = edges + edges[:1] or [[0] * k]
    elif broken == 2:
        doc[draw(st.sampled_from(["n", "k"]))] = draw(st.sampled_from([2.5, True, "3", None, -1]))
    elif broken == 3:
        doc["edges"] = draw(st.sampled_from(["x", [1, 2], [[n + 1] * k], None, [["a"]]]))
    elif broken == 4:
        del doc[draw(st.sampled_from(["n", "k", "edges"]))]
    elif broken == 5:
        return draw(st.sampled_from(["{", "[]", "{}", "3", '{"n": 1}', "x y\n", "",
                                     "2 1\n1\n3\n", "2 2\n2 1\n"]))
    if draw(st.booleans()):
        return json.dumps(doc)
    # The text form: an "n k" header, then one edge per line.
    edges = doc.get("edges") if isinstance(doc.get("edges"), list) else []
    lines = [" ".join(map(str, e)) if isinstance(e, list) else str(e) for e in edges]
    return "\n".join([f"{doc.get('n')} {doc.get('k')}", *lines]) + "\n"


CLIQUES = st.sampled_from(["[[1,2],[3,4]]", "[[1,2,3],[1,2,4],[1,3,4],[2,3,4]]", "[]",
                           "{}", "[[1]]", "[[0,1]]", "x", '[["a"]]', "[[1,1]]", "[1,2]"])


def req(name, value):
    """``--name value``, or the bare ``--name`` when value is None."""
    name = "--" + name.replace("_", "-")
    return value.map(lambda v: [name] if v is None else [name, v])


def opt(name, value):
    return st.just([]) | req(name, value)


def command(name, *parts):
    """(name, a strategy of argv for the subcommand)."""
    return name, st.tuples(*parts).map(lambda ps: [name] + [a for part in ps for a in part])


PERM = permutation_text()
HG = req("lambda_file", st.just("HG"))
COMMANDS = dict([
    command("count", req("sigma", PERM), req("pi", PERM)),
    command("occurrences", req("sigma", PERM), req("pi", PERM)),
    command("distribution", req("n", SMALL), req("pi", PERM)),
    command("avoiders", req("n", SMALL), req("pi", PERM), st.just([]) | HG,
            opt("list", st.none())),
    command("expect", req("n", SMALL), opt("k", SMALL), req("pi", PERM),
            req("alpha", RATIONAL) | req("alpha_grid", GRID)),
    command("expect-mc", req("estimator", st.sampled_from(["sigma", "lambda", "x"])),
            req("n", SMALL | st.just("171")), opt("k", SMALL), req("pi", PERM),
            req("alpha", RATIONAL), req("samples", SMALL), opt("seed", SMALL)),
    command("hypergraph", req("n", SMALL), req("k", SMALL), req("alpha", RATIONAL),
            opt("seed", SMALL)),
    command("lambda-star", req("n", SMALL), req("k", SMALL)),
    command("clique-cover", HG, req("cliques_file", st.just("CLIQUES"))),
    command("contract", req("from_file", st.just("MATRIX")), opt("b", RATIONAL),
            opt("out", st.just("OUT"))),
    command("preimage", req("from_file", st.just("MATRIX"))),
    command("extremal", req("n", SMALL), req("a", SMALL), opt("pi", PERM),
            opt("out", st.just("OUT"))),
    command("min-copies", req("n", SMALL), req("pi", PERM),
            req("a", SMALL) | req("a_grid", st.sampled_from(["1,2", "0,9", "", "x"]))),
    command("max-ones", req("n", SMALL), req("pi", PERM),
            opt("mode", st.sampled_from(["exhaustive", "search", "x"]))),
    command("sna", req("n", SMALL), req("a", SMALL), opt("pi", PERM), opt("list", st.none())),
    command("snm", req("n", SMALL), req("m", SMALL), req("pi", PERM)),
    command("build-h", req("n", SMALL), req("pi", PERM), st.just([]) | HG),
    command("delta", req("n", SMALL), req("pi", PERM), st.just([]) | HG, req("ell", SMALL)),
    command("independents", req("n", SMALL), req("pi", PERM), st.just([]) | HG,
            req("size", SMALL)),
    command("sample-density", req("from_file", st.just("MATRIX")), req("pi", PERM),
            req("r", SMALL), req("trials", SMALL), opt("seed", SMALL)),
])


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(derandomize=True, deadline=None, max_examples=600, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(argv=st.sampled_from(sorted(COMMANDS)).flatmap(COMMANDS.get),
       fmt=st.sampled_from([[], ["--format", "csv"], ["--manifest", "MANIFEST"]]),
       matrix=matrix_text(), hypergraph=hypergraph_text(), cliques=CLIQUES)
# k = 0 once reached an IndexError inside lambda-star.
@example(argv=["lambda-star", "--n", "0", "--k", "0"], fmt=[], matrix="1 1\n0",
         hypergraph="2 1\n", cliques="[]")
def test_cli_exits_cleanly_on_any_argv(workdir, argv, fmt, matrix, hypergraph, cliques):
    files = {"MATRIX": matrix, "HG": hypergraph, "CLIQUES": cliques}
    for name, text in files.items():
        (workdir / name).write_text(text)
    paths = {name: str(workdir / name) for name in [*files, "OUT", "MANIFEST"]}
    argv = [paths.get(a, a) for a in argv + fmt + CAPS]
    code, out, err = run(argv)
    assert code in (0, 2, 3), (argv, err)
    assert "Traceback" not in err
    if code:
        assert out == "", argv
