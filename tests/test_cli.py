import contextlib
import copy
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from digraph_homology.cli import build_parser, main
from digraph_homology.digraphs import (
    box_product,
    build_digraph,
    cone,
    cycle_digraph,
    digraph_from_json,
    digraph_to_json,
    relabel_to_strings,
    suspension,
)
from digraph_homology.grids import (
    GridMap,
    certificate_to_json,
    grid_map_to_json,
    shrink_by_pair_insertions,
    subdivide,
    CertificateStep,
)
from digraph_homology.digraphs import standard_line


@pytest.fixture
def c4_file(tmp_path):
    path = tmp_path / "c4.json"
    path.write_text(json.dumps(digraph_to_json(relabel_to_strings(cycle_digraph(4)))))
    return path


def run_cli(capsys, *argv):
    code = main([str(a) for a in argv])
    out = capsys.readouterr()
    return code, out.out, out.err


def test_homology_path(c4_file, capsys):
    code, out, _ = run_cli(capsys, "homology", c4_file, "--theory", "path", "--dim", "1")
    assert code == 0
    assert out.strip() == "H_1 = Z"


def test_homology_json_output(c4_file, capsys):
    code, out, _ = run_cli(capsys, "homology", c4_file, "--dim", "1", "--json")
    assert code == 0
    assert json.loads(out) == {"rank": 1, "torsion": []}


def test_homology_point_dim1(tmp_path, capsys):
    path = tmp_path / "point.json"
    path.write_text(json.dumps({"vertices": ["p"], "arrows": []}))
    code, out, _ = run_cli(capsys, "homology", path, "--dim", "1")
    assert code == 0
    assert out.strip() == "H_1 = 0"


def test_homology_cubical(c4_file, capsys):
    code, out, _ = run_cli(capsys, "homology", c4_file, "--theory", "cubical", "--dim", "0")
    assert code == 0
    assert out.strip() == "H_0 = Z"


@pytest.mark.parametrize("theory", ["path", "cubical"])
def test_homology_reduced_in_both_theories(tmp_path, capsys, theory):
    path = tmp_path / "arrow.json"
    path.write_text(json.dumps({"vertices": ["a", "b"], "arrows": [["a", "b"]]}))
    argv = ("homology", path, "--theory", theory, "--dim", "0")
    assert run_cli(capsys, *argv, "--reduced")[:2] == (0, "H_0 = 0\n")
    assert run_cli(capsys, *argv)[:2] == (0, "H_0 = Z\n")


def test_homology_reduced_suspension(tmp_path, capsys, c4_file):
    code, out, _ = run_cli(capsys, "build", "suspend", c4_file, "-o", tmp_path / "s.json")
    assert code == 0
    code, out, _ = run_cli(capsys, "homology", tmp_path / "s.json", "--dim", "2", "--reduced")
    assert code == 0
    assert out.strip() == "H_2 = Z"


def test_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run_cli(capsys, "homology", bad, "--dim", "1")
    assert code == 2
    assert "error" in err


def test_bound_exceeded_exit_code(tmp_path, c4_file, capsys):
    code, out, _ = run_cli(capsys, "homology", c4_file, "--dim", "3")
    assert code == 0
    assert out.strip() == "H_3 = 0"
    # the complete digraph on 100 vertices has 9,900 * 99 allowed 2-paths
    k100 = build_digraph(range(100), [(u, v) for u in range(100) for v in range(100) if u != v])
    path = tmp_path / "k100.json"
    path.write_text(json.dumps(digraph_to_json(relabel_to_strings(k100))))
    code, out, err = run_cli(capsys, "homology", path, "--dim", "1")
    assert (code, out) == (3, "")
    assert err == "error: degree 2 has more than 500000 allowed paths\n"


def test_invalid_subdigraph_exit_code(tmp_path, capsys, c4_file):
    sub = tmp_path / "sub.json"
    sub.write_text(json.dumps({"vertices": ["0", "9"], "arrows": []}))
    code, _, err = run_cli(capsys, "homology", c4_file, "--dim", "1", "--relative", sub)
    assert code == 4


def test_relative_homology(tmp_path, capsys, c4_file):
    cone_file = tmp_path / "cone.json"
    code, _, _ = run_cli(capsys, "build", "cone", c4_file, "-o", cone_file)
    assert code == 0
    sub = tmp_path / "sub.json"
    sub.write_text(json.dumps(digraph_to_json(relabel_to_strings(cycle_digraph(4)))))
    for theory in ("path", "cubical"):
        code, out, _ = run_cli(
            capsys, "homology", cone_file, "--theory", theory, "--dim", "2", "--relative", sub
        )
        assert code == 0
        assert out.strip() == "H_2 = Z"


def test_relative_path_output_does_not_depend_on_sub_vertex_order(tmp_path, capsys):
    # C4□C4 and its induced subdigraph off the last coordinate 3: listed in
    # reverse order, the sub's degree-2 basis is not a set of ambient basis
    # vectors, listed in ambient order it is
    g = box_product(cycle_digraph(4), cycle_digraph(4))
    vertices = [v for v in g.vertices if v[1] != 3]
    arrows = [(u, v) for u, v in g.arrows if u[1] != 3 and v[1] != 3]
    g_file = tmp_path / "g.json"
    g_file.write_text(json.dumps(digraph_to_json(g)))
    outputs = []
    for name, sub in (
        ("ordered", build_digraph(vertices, arrows)),
        ("reversed", build_digraph(vertices[::-1], arrows[::-1])),
    ):
        pair = {"ambient": digraph_to_json(g), "sub": digraph_to_json(sub)}
        sub_file = tmp_path / f"{name}-sub.json"
        sub_file.write_text(json.dumps(pair["sub"]))
        pair_file = tmp_path / f"{name}-pair.json"
        pair_file.write_text(json.dumps(pair))
        runs = [
            run_cli(capsys, "homology", g_file, "--dim", n, "--relative", sub_file)
            for n in range(4)
        ]
        runs.append(
            run_cli(capsys, "verify", "exactness", pair_file, "--theory", "path", "--maxdim", "3")
        )
        outputs.append([(code, out) for code, out, _ in runs])
    assert outputs[0] == outputs[1]
    assert [out.strip() for _, out in outputs[0]] == [
        "H_0 = 0",
        "H_1 = Z",
        "H_2 = Z",
        "H_3 = 0",
        "PASS",
    ]


@pytest.mark.parametrize(
    "argv",
    [
        "homology IN --theory cubical --dim 1 --relative SUB --reduced --json",
        "build boxprod IN IN --times 2 -o OUT",
        "hurewicz MAP --relative --show-chain --json",
        "compare IN --dim 1 --json",
        "verify certificate F G CERT",
        "verify exactness PAIR --theory cubical --maxdim 2",
        "verify paper-suite --seed 3",
    ],
)
def test_documented_flags_parse(argv):
    build_parser().parse_args(argv.split())


@pytest.mark.parametrize(
    "argv",
    [
        "build cone IN --json",
        "build cone IN --maxdim 3",
        "build cone IN --seed 0",
        "homology IN --dim 1 --seed 0",
        "homology IN --dim 1 --maxdim 4",
        "hurewicz MAP --seed 0",
        "hurewicz MAP --maxdim 4",
        "compare IN --dim 1 --seed 0",
        "compare IN --dim 1 --maxdim 4",
        "verify certificate F G CERT --json",
    ],
)
def test_flags_a_subcommand_does_not_read_are_refused(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv.split())
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_negative_degree_exit_code(c4_file, capsys):
    for argv in (("homology", c4_file, "--dim", "-1"), ("compare", c4_file, "--dim", "-2")):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1


def test_build_commands(tmp_path, capsys, c4_file):
    out_file = tmp_path / "s2.json"
    code, _, _ = run_cli(capsys, "build", "suspend", c4_file, "--times", "2", "-o", out_file)
    assert code == 0
    data = json.loads(out_file.read_text())
    assert len(data["vertices"]) == 8

    code, out, _ = run_cli(capsys, "build", "boxprod", c4_file, c4_file)
    assert code == 0
    data = json.loads(out)
    assert len(data["vertices"]) == 16 and len(data["arrows"]) == 32
    # the written digraph re-parses to an equal value
    g = digraph_from_json(data)
    assert digraph_to_json(g) == data

    point = tmp_path / "point.json"
    point.write_text(json.dumps({"vertices": ["p"], "arrows": []}))
    code, out, _ = run_cli(capsys, "build", "cone", point)
    assert code == 0
    data = json.loads(out)
    assert len(data["vertices"]) == 2 and len(data["arrows"]) == 1


def test_build_matches_the_step_by_step_build(tmp_path, capsys):
    # labels that the fresh apex labels must step over, and a basepoint
    x = build_digraph(["+a", "+a2", "x", "+b1"], [("+a", "x"), ("x", "+b1")], "x")
    path = tmp_path / "x.json"
    path.write_text(json.dumps(digraph_to_json(x)))

    def fresh(g, stem):
        label, k = stem, 0
        while g.has_vertex(label):
            k += 1
            label = f"{stem}{k}"
        return label

    steps = {
        "cone": lambda g: cone(g, fresh(g, "+a")),
        "suspend": lambda g: suspension(g, fresh(g, "+a"), fresh(g, "+b")),
    }
    checked = (0, 1, 2, 3, 17, 200)
    for op, step in steps.items():
        g = x
        for t in range(max(checked) + 1):
            if t in checked:
                expected = json.dumps(digraph_to_json(relabel_to_strings(g)), indent=2) + "\n"
                assert run_cli(capsys, "build", op, path, "--times", t)[:2] == (0, expected), (op, t)
            g = step(g)


def winding_json():
    c4 = relabel_to_strings(cycle_digraph(4))
    g = GridMap(
        (standard_line(8),),
        tuple("011223300"[i] for i in range(9)),
        c4,
        "pair",
        "0",
    )
    return g


def test_hurewicz_command(tmp_path, capsys):
    g = winding_json()
    path = tmp_path / "winding.json"
    path.write_text(json.dumps(grid_map_to_json(g)))
    code, out, _ = run_cli(capsys, "hurewicz", path, "--json")
    assert code == 0
    data = json.loads(out)
    assert data["path"]["group"] == {"rank": 1, "torsion": []}
    assert data["path"]["coords"] in ([1], [-1])

    const = GridMap((standard_line(2),), ("0", "1", "0"), g.target, "pair", "0")
    path2 = tmp_path / "j2.json"
    path2.write_text(json.dumps(grid_map_to_json(const)))
    code, out, _ = run_cli(capsys, "hurewicz", path2, "--json", "--show-chain")
    assert code == 0
    data = json.loads(out)
    assert data["path"]["coords"] == [0]
    assert "chain" in data


def test_hurewicz_relative_flag(tmp_path, capsys):
    g = winding_json()
    path = tmp_path / "winding.json"
    path.write_text(json.dumps(grid_map_to_json(g)))
    # pair-mode input is rejected under --relative
    code, _, _ = run_cli(capsys, "hurewicz", path, "--relative")
    assert code == 5

    cp = cone(g.target, "+a")
    vals = []
    for i in range(3):
        for j in range(9):
            if i == 0:
                vals.append(g.values[j])
            elif i == 1:
                vals.append("+a" if 1 <= j <= 7 else "0")
            else:
                vals.append("0")
    triple = GridMap(
        (standard_line(2), standard_line(8)), tuple(vals), cp, "triple", "0", g.target
    )
    tri_path = tmp_path / "triple.json"
    tri_path.write_text(json.dumps(grid_map_to_json(triple)))
    code, out, _ = run_cli(capsys, "hurewicz", tri_path, "--relative", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["path"]["group"] == {"rank": 1, "torsion": []}
    assert data["path"]["coords"] in ([1], [-1])


def test_hurewicz_invalid_gridmap_exit_code(tmp_path, capsys):
    g = winding_json()
    blob = grid_map_to_json(g)
    blob["base"] = "1"
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(blob))
    code, _, err = run_cli(capsys, "hurewicz", path)
    assert code == 5


LINE = {"vertices": ["0", "1"], "arrows": [["0", "1"]]}


@pytest.mark.parametrize(
    "document",
    [
        {"axes": [], "values": ["0"], "mode": "pair", "base": "0", "target": LINE},
        {
            "axes": [],
            "values": ["1"],
            "mode": "triple",
            "base": "0",
            "A": {"vertices": ["0"], "arrows": []},
            "target": LINE,
        },
        {"axes": [{"len": 2}], "values": ["0", "1", "1"], "mode": "absolute", "target": LINE},
    ],
    ids=["zero-dimensional", "zero-dimensional-triple", "not-a-cycle"],
)
def test_hurewicz_without_a_class_exit_code(tmp_path, capsys, document):
    path = tmp_path / "map.json"
    path.write_text(json.dumps(document))
    code, out, err = run_cli(capsys, "hurewicz", path, "--show-chain")
    assert code == 5
    assert out == ""
    assert err.startswith("error: no Hurewicz class:") and err.count("\n") == 1


def test_compare_command(c4_file, capsys):
    code, out, _ = run_cli(capsys, "compare", c4_file, "--dim", "1", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["target"] == {"rank": 1, "torsion": []}
    assert any(abs(x) == 1 for x in data["matrix"][0])


def test_verify_certificate(tmp_path, capsys):
    g = winding_json()
    h = shrink_by_pair_insertions([8], [[4]])
    sub = subdivide(g, h)
    f_path = tmp_path / "f.json"
    g_path = tmp_path / "g.json"
    cert_path = tmp_path / "cert.json"
    f_path.write_text(json.dumps(grid_map_to_json(g)))
    g_path.write_text(json.dumps(grid_map_to_json(sub)))
    cert_path.write_text(json.dumps(certificate_to_json([CertificateStep(h, None, "fwd")])))
    code, out, _ = run_cli(capsys, "verify", "certificate", f_path, g_path, cert_path)
    assert code == 0 and out.strip() == "PASS"

    from digraph_homology.grids import constant_grid_map

    const = constant_grid_map(g.target, "0", (8,))
    g_path.write_text(json.dumps(grid_map_to_json(const)))
    cert_path.write_text(
        json.dumps(certificate_to_json([CertificateStep(None, None, "fwd")]))
    )
    code, out, _ = run_cli(capsys, "verify", "certificate", f_path, g_path, cert_path)
    assert code == 1 and out.strip() == "FAIL"


@pytest.mark.parametrize(
    "document",
    [
        [5],
        ["s"],
        {"x": 1},
        [{"direction": "sideways"}],
        [{"left": [["x"]]}],
        [{"left": [[]]}],
        [{"left": [[]], "right": [[1]]}],
        [{"left": [[0, -1]]}],
        [{"left": [[-1]]}],
        [{"left": [[0, 1, 2, 3, 4, 5, 6, 7, 8]], "right": [[0, -1]]}],
    ],
    ids=[
        "number-step",
        "string-step",
        "object",
        "sideways",
        "text-table",
        "empty-table",
        "empty-and-full-table",
        "table-ending-below-0",
        "negative-table",
        "full-and-negative-table",
    ],
)
def test_malformed_certificate_exit_code(tmp_path, capsys, document):
    good = tmp_path / "good.json"
    good.write_text(json.dumps(grid_map_to_json(winding_json())))
    cert = tmp_path / "cert.json"
    cert.write_text(json.dumps(document))
    code, out, err = run_cli(capsys, "verify", "certificate", good, good, cert)
    assert code == 5
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert "negative length" not in err


@pytest.fixture
def cone_pair_file(tmp_path, capsys, c4_file):
    cone_file = tmp_path / "cone.json"
    run_cli(capsys, "build", "cone", c4_file, "-o", cone_file)
    pair_file = tmp_path / "pair.json"
    pair_file.write_text(
        json.dumps(
            {
                "ambient": "cone.json",
                "sub": json.loads(c4_file.read_text()),
            }
        )
    )
    return pair_file


def test_verify_exactness(capsys, cone_pair_file):
    code, out, _ = run_cli(
        capsys, "verify", "exactness", cone_pair_file, "--theory", "path", "--maxdim", "3"
    )
    assert code == 0 and out.strip() == "PASS"
    code, out, _ = run_cli(
        capsys, "verify", "exactness", cone_pair_file, "--theory", "cubical", "--maxdim", "2"
    )
    assert code == 0 and out.strip() == "PASS"


def test_verify_exactness_checks_the_same_degrees_in_both_theories(
    capsys, cone_pair_file, monkeypatch
):
    from digraph_homology.chains import ChainComplexPair

    les_maps = ChainComplexPair.les_maps
    degrees = []

    def recording(self, maxdeg):
        degrees.append(maxdeg)
        return les_maps(self, maxdeg)

    monkeypatch.setattr(ChainComplexPair, "les_maps", recording)
    for theory in ("path", "cubical"):
        code, out, _ = run_cli(
            capsys, "verify", "exactness", cone_pair_file, "--theory", theory, "--maxdim", "2"
        )
        assert code == 0 and out.strip() == "PASS"
    assert degrees == [2, 2]


def test_verify_exactness_negative_maxdim_exit_code(capsys, cone_pair_file):
    for theory in ("path", "cubical"):
        for maxdim in ("-1", "-5"):
            code, out, err = run_cli(
                capsys, "verify", "exactness", cone_pair_file, "--theory", theory, "--maxdim", maxdim
            )
            assert code == 2
            assert out == ""
            assert err.startswith("error:") and err.count("\n") == 1


def test_every_subcommand_checks_maxdim_alike(capsys, c4_file, cone_pair_file):
    commands = [
        ("verify", "exactness", cone_pair_file),
    ]
    for argv in commands:
        code, out, err = run_cli(capsys, *argv, "--maxdim", "-3")
        assert (code, out) == (2, ""), argv
        assert err == "error: --maxdim must be non-negative, got -3\n"


def test_verify_exactness_bound_exceeded(tmp_path, capsys):
    # degree 4 of the double suspension of C4 has 7,121,940 singular cubes
    sc4 = suspension(relabel_to_strings(cycle_digraph(4)))
    s2c4 = suspension(sc4, "c", "d")
    pair_file = tmp_path / "pair.json"
    pair_file.write_text(json.dumps({"ambient": digraph_to_json(s2c4), "sub": digraph_to_json(sc4)}))
    code, out, err = run_cli(capsys, "verify", "exactness", pair_file, "--theory", "cubical")
    assert code == 3
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize(
    "document",
    [
        [],
        "map",
        {"axes": [{"len": "x"}], "values": ["0"]},
        {"axes": [{"len": 1.5}], "values": ["0", "0"]},
        {"axes": [{"len": -3}], "values": ["0"]},
        {
            "axes": [{"len": 2, "pattern": ["F", "B"]}],
            "values": ["0", "1", "0"],
            "target": {"vertices": ["0", "1"], "arrows": [["0", "1"]]},
        },
        {
            "axes": [{"len": 2}],
            "values": "000",
            "target": {"vertices": ["0", "1"], "arrows": [["0", "1"]]},
        },
    ],
    ids=["list", "string", "text-len", "fractional-len", "negative-len", "list-pattern", "string-values"],
)
@pytest.mark.parametrize("command", ["hurewicz", "verify-certificate"])
def test_malformed_grid_map_exit_code(tmp_path, capsys, document, command):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(document))
    if command == "hurewicz":
        argv = ("hurewicz", bad)
    else:
        good = tmp_path / "good.json"
        good.write_text(json.dumps(grid_map_to_json(winding_json())))
        cert = tmp_path / "cert.json"
        cert.write_text("[]")
        argv = ("verify", "certificate", bad, good, cert)
    code, out, err = run_cli(capsys, *argv)
    assert code == 5
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1


def test_build_negative_times_exit_code(capsys, c4_file):
    for op in ("cone", "suspend"):
        code, out, err = run_cli(capsys, "build", op, c4_file, "--times", "-3")
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1


def test_build_refuses_a_result_past_the_path_bound(tmp_path, capsys, c4_file):
    # the result's arrows are its allowed 1-paths; they are counted before
    # anything is built: 503,504 for 1000 cones of C4, 503,004 for 500
    # suspensions, and 1,998,000 for the square of a 1000-vertex path
    line = tmp_path / "line.json"
    names = [str(i) for i in range(1000)]
    line.write_text(json.dumps({"vertices": names, "arrows": [list(a) for a in zip(names, names[1:])]}))
    for argv in (
        ("cone", c4_file, "--times", "1000"),
        ("suspend", c4_file, "--times", "500"),
        ("boxprod", line, line),
    ):
        code, out, err = run_cli(capsys, "build", *argv)
        assert (code, out) == (3, ""), argv
        assert err.startswith("error: the result has ") and err.count("\n") == 1


def test_cli_output_deterministic(tmp_path, capsys, c4_file):
    code, out1, _ = run_cli(capsys, "build", "suspend", c4_file)
    code, out2, _ = run_cli(capsys, "build", "suspend", c4_file)
    assert out1 == out2


BAD_ARROW = {"vertices": ["0", "1"], "arrows": [["0"]]}
WINDING = grid_map_to_json(winding_json())


@pytest.mark.parametrize(
    "command, document, code",
    [
        ("homology", BAD_ARROW, 2),
        ("homology", {"vertices": ["0"], "arrows": [5]}, 2),
        ("homology", {"vertices": ["0"], "arrows": 5}, 2),
        ("homology", {"vertices": 5, "arrows": []}, 2),
        ("homology", {"vertices": ["0", "1"], "arrows": [["0", "1", "1"]]}, 2),
        ("homology", [5], 2),
        ("homology-relative", BAD_ARROW, 2),
        ("exactness", {"ambient": LINE, "sub": BAD_ARROW}, 2),
        ("exactness", {"ambient": BAD_ARROW, "sub": LINE}, 2),
        ("exactness", [LINE, LINE], 2),
        ("hurewicz", {**WINDING, "mode": "triple", "A": BAD_ARROW}, 5),
        ("hurewicz", {**WINDING, "target": BAD_ARROW}, 5),
    ],
    ids=[
        "short-arrow",
        "scalar-arrow",
        "scalar-arrows",
        "scalar-vertices",
        "long-arrow",
        "list",
        "relative-short-arrow",
        "exactness-sub-short-arrow",
        "exactness-ambient-short-arrow",
        "exactness-list",
        "hurewicz-sub-short-arrow",
        "hurewicz-target-short-arrow",
    ],
)
def test_malformed_digraph_json_exit_code(tmp_path, capsys, command, document, code):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(document))
    good = tmp_path / "line.json"
    good.write_text(json.dumps(LINE))
    argv = {
        "homology": ("homology", bad, "--dim", "0"),
        "homology-relative": ("homology", good, "--dim", "0", "--relative", bad),
        "exactness": ("verify", "exactness", bad),
        "hurewicz": ("hurewicz", bad),
    }[command]
    got, out, err = run_cli(capsys, *argv)
    assert got == code
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1


# CLI fuzz: well-formed argv over random JSON documents.  Each document is a
# valid digraph, grid map, pair file or certificate with up to two random
# edits: a value anywhere in it replaced by junk, or a key or item dropped.
DROP = object()
JUNK = st.sampled_from(
    [DROP, None, True, -1, 0, 2, 1.5, "", "0", "+a", [], {}, ["0"], ["0", "1"], [["0", "1"]], {"len": 2}]
)
FUZZ_CERTIFICATES = [
    [],
    [{"direction": "bwd"}],
    certificate_to_json([CertificateStep(shrink_by_pair_insertions([8], [[4]]), None, "fwd")]),
]


def _locations(doc, path=()):
    yield path
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from _locations(value, path + (key,))


@st.composite
def fuzzed(draw, base):
    doc = copy.deepcopy(base)
    for _ in range(draw(st.integers(0, 2))):
        path, junk = draw(st.sampled_from(list(_locations(doc)))), draw(JUNK)
        junk = junk if junk is DROP else copy.deepcopy(junk)  # later edits may reach inside
        if not path:
            doc = None if junk is DROP else junk
            continue
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if junk is DROP:
            del parent[path[-1]]
        else:
            parent[path[-1]] = junk
    return doc


@st.composite
def digraph_documents(draw):
    n = draw(st.integers(1, 4))
    pairs = [(str(u), str(v)) for u in range(n) for v in range(n) if u != v]
    arrows = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return {"vertices": [str(v) for v in range(n)], "arrows": [list(a) for a in arrows]}


def fuzz_grid_maps():
    loop = winding_json()
    square = GridMap((standard_line(2),) * 2, ("0",) * 9, loop.target, "pair", "0")
    line = GridMap((standard_line(2),), ("0", "1", "2"), loop.target, "absolute")
    return [grid_map_to_json(f) for f in (loop, square, line)]


@st.composite
def cli_runs(draw):
    """(argv with FILE placeholders, {placeholder: document})."""
    g = draw(digraph_documents())
    kept = g["vertices"][: draw(st.integers(1, len(g["vertices"])))]
    s = {"vertices": kept, "arrows": [a for a in g["arrows"] if set(a) <= set(kept)]}
    maps = fuzz_grid_maps()
    docs = {
        "G": draw(fuzzed(g)),
        "S": draw(fuzzed(s)),
        "M": draw(fuzzed(draw(st.sampled_from(maps)))),
        "N": draw(fuzzed(draw(st.sampled_from(maps)))),
        "C": draw(fuzzed(draw(st.sampled_from(FUZZ_CERTIFICATES)))),
        "P": draw(fuzzed({"ambient": draw(st.sampled_from(["G.json", g])), "sub": "S.json"})),
    }
    dim = str(draw(st.integers(0, 2)))
    theory = draw(st.sampled_from(["path", "cubical"]))
    flags = draw(st.sets(st.sampled_from(["--reduced", "--json", "--show-chain", "--relative"])))
    argv = draw(
        st.sampled_from(
            [
                ["homology", "G", "--dim", dim, "--theory", theory]
                + ["--relative", "S"] * ("--relative" in flags)
                + sorted(flags & {"--reduced", "--json"}),
                ["compare", "G", "--dim", dim] + sorted(flags & {"--json"}),
                ["hurewicz", "M"] + sorted(flags - {"--reduced"}),
                ["verify", "certificate", "M", "N", "C"],
                ["verify", "exactness", "P", "--theory", theory, "--maxdim", dim],
                ["build", draw(st.sampled_from(["cone", "suspend"])), "G", "--times", dim],
                ["build", "boxprod", "G", "S"],
            ]
        )
    )
    return argv, docs


@settings(max_examples=150, deadline=None, derandomize=True)
@given(cli_runs())
def test_cli_fuzz_gives_an_exit_code_and_one_error_line(run):
    argv, docs = run
    with tempfile.TemporaryDirectory() as tmp:
        for name, doc in docs.items():
            (Path(tmp) / f"{name}.json").write_text(json.dumps(doc))
        argv = [str(Path(tmp) / f"{a}.json") if a in docs else a for a in argv]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    assert code in range(6), argv
    if code:
        assert err.getvalue().count("\n") <= 1, (argv, err.getvalue())
