"""Command line behavior: outputs, JSON mode, exit codes, file handling."""

import json
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from atomiso import algebra, cli
from atomiso.cli import main
from atomiso.exprs import expr_params
from atomiso.structures import function_from_dict, load_structure, save_structure
from fixtures_helpers import NESTED_CYCLIC, NESTED_CYCLIC_ORBITS
from generators import dlo_chains


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_check_eq(capsys):
    code, out, _ = run(capsys, "check-eq", "{a | a in atoms, a != #1} + {#1}", "atoms")
    assert code == 0 and out.strip() == "equal"
    code, out, _ = run(capsys, "check-eq", "{#1}", "{#2}")
    assert code == 3 and out.strip() == "not equal"


def test_check_eq_json(capsys):
    code, out, _ = run(capsys, "--json", "check-eq", "{#1}", "{#1}")
    assert code == 0
    assert json.loads(out) == {"equal": True}


def test_parse_error_exit(capsys):
    code, _, err = run(capsys, "check-eq", "{a | a in", "atoms")
    assert code == 2
    assert "line 1" in err


def test_deep_nesting_exit(capsys):
    guard = "(" * 2000 + "a = a" + ")" * 2000
    code, _, err = run(capsys, "check-eq", "{a | a in atoms, %s}" % guard, "atoms")
    assert code == 2
    assert "nested deeper" in err


def test_orbits_and_fix(capsys):
    code, out, _ = run(capsys, "orbits", "atoms", "--fix", "#1")
    assert code == 0
    assert len(out.strip().splitlines()) == 2
    code, out, _ = run(capsys, "--json", "orbits", "{ {a,b} | a,b in atoms, a != b }")
    doc = json.loads(out)
    assert doc["count"] == 1


def test_support_output(capsys):
    code, out, _ = run(capsys, "support", "{(#2, a) | a in atoms, a != #1}")
    assert code == 0
    assert out.strip() == "#1 #2"


def test_support_of_a_nested_cyclic_set(capsys):
    code, out, _ = run(capsys, "--backend", "cyclic", "support", NESTED_CYCLIC)
    assert code == 0
    assert out.strip() == "-9 0"


def test_orbits_of_a_nested_cyclic_set(capsys):
    code, out, _ = run(capsys, "--backend", "cyclic", "--json", "orbits", NESTED_CYCLIC_ORBITS)
    assert code == 0
    assert json.loads(out)["count"] == 12


@pytest.mark.parametrize(
    "argv, message",
    [
        (["orbits", "(1, 2)"], "equality atoms look like #7, got '1'"),
        (["--backend", "dlo", "orbits", "(#1, 2)"], "rational atoms look like 2, -1, or 5/3, got '#1'"),
        (["orbits", "#1"], "not a set expression: #1"),
        (["subsets", "#1"], "not a set expression: #1"),
        (["subsets", "(#1, #2)"], "not a set expression: (#1, #2)"),
    ],
)
def test_bad_operand_messages_name_the_input(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.strip() == f"atomiso: {message}"


_DLO_LINE = json.dumps({"backend": "dlo", "universe": "atoms"})
_DLO_IDENTITY = json.dumps(
    {"backend": "dlo", "dom": "atoms", "cod": "atoms", "graph": "{(a, a) | a in atoms}"}
)


@pytest.mark.parametrize(
    "argv",
    [
        ["--backend", "dlo", "orbits", "atoms", "--fix", "1/0"],
        ["--backend", "cyclic", "subsets", "atoms", "--params", "1/00"],
        ["iso", "{dir}/circle.a.json", "{dir}/circle.b.json", "--params", "1/0"],
        ["eliminate", "--map", "{dir}/map.json", "{dir}/line.json", "{dir}/line.json", "--params", "1/0"],
        ["orbits", "{#\u00b2}"],
        ["--backend", "dlo", "orbits", "{\u00b2}"],
        ["iso", "{dir}/squared.json", "{dir}/squared.json"],
    ],
    ids=[
        "dlo-fix-zero-denominator",
        "cyclic-params-zero-denominator",
        "iso-params-zero-denominator",
        "eliminate-params-zero-denominator",
        "equality-superscript-digit",
        "dlo-superscript-digit",
        "structure-superscript-digit",
    ],
)
def test_bad_atom_literals_exit_2(tmp_path, capsys, argv):
    run(capsys, "fixture", "circle", "--emit", str(tmp_path))
    (tmp_path / "line.json").write_text(_DLO_LINE)
    (tmp_path / "map.json").write_text(_DLO_IDENTITY)
    (tmp_path / "squared.json").write_text(
        json.dumps({"backend": "dlo", "universe": "{\u00b2}"})
    )
    code, out, err = run(capsys, *(a.replace("{dir}", str(tmp_path)) for a in argv))
    assert code == 2 and out == ""
    assert err.startswith("atomiso: ") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("digit", ["\u00b2", "\u0663"])
def test_a_bad_hash_literal_is_named(capsys, digit):
    code, out, err = run(capsys, "orbits", "{#%s}" % digit)
    assert code == 2 and out == ""
    assert err == f"atomiso: atom literals take ASCII digits only, got '#{digit}' (line 1, column 2)\n"


def test_subsets_and_budget(capsys):
    code, out, _ = run(capsys, "subsets", "atoms", "--params", "#1,#2")
    assert code == 0
    assert len(out.strip().splitlines()) == 8
    code, _, err = run(capsys, "subsets", "atoms", "--params", "#1 #2", "--budget", "3")
    assert code == 5
    assert "budget" in err


def test_rn_counts(capsys):
    code, out, _ = run(capsys, "rn", "3")
    assert code == 0 and out.strip() == "5"
    code, out, _ = run(capsys, "--backend", "dlo", "rn", "4")
    assert code == 0 and out.strip() == "75"
    code, _, err = run(capsys, "rn", "-1")
    assert code == 2


def test_rn_rejects_a_length_past_the_cap(capsys):
    # at 1700 the dlo count ran for a minute and then had too many digits
    # to print; the cap is checked before anything is computed
    for backend in ("equality", "dlo", "cyclic"):
        code, out, err = run(capsys, "--backend", backend, "rn", "1700")
        assert code == 2 and out == "", backend
        assert "at most 500, got 1700" in err, backend
        code, out, _ = run(capsys, "--backend", backend, "rn", "500")
        assert code == 0 and out.strip().isdigit(), backend


def test_fixture_pipeline(tmp_path, capsys):
    code, out, _ = run(capsys, "fixture", "nondefiso", "--emit", str(tmp_path))
    assert code == 0
    a = tmp_path / "nondefiso.a.json"
    b = tmp_path / "nondefiso.b.json"
    assert a.exists() and b.exists()

    code, out, _ = run(capsys, "iso", str(a), str(b))
    assert code == 3
    assert "NOT_FOUND" in out

    code, out, _ = run(capsys, "--json", "iso", str(a), str(b))
    doc = json.loads(out)
    assert doc["verdict"] == "NOT_FOUND"


def test_fixture_unknown(capsys):
    with pytest.raises(SystemExit):
        main(["fixture", "nosuch"])


def test_iso_kneser_identity(tmp_path, capsys):
    run(capsys, "fixture", "kneser", "--emit", str(tmp_path))
    a = str(tmp_path / "kneser.a.json")
    b = str(tmp_path / "kneser.b.json")
    code, out, _ = run(capsys, "iso", a, b)
    assert code == 0
    assert "FOUND" in out and "witness:" in out


def test_eliminate_cli(tmp_path, capsys):
    run(capsys, "fixture", "smoothing", "--emit", str(tmp_path))
    code, out, _ = run(
        capsys,
        "--json",
        "eliminate",
        "--map",
        str(tmp_path / "smoothing.map.json"),
        str(tmp_path / "smoothing.a.json"),
        str(tmp_path / "smoothing.b.json"),
    )
    assert code == 0
    doc = json.loads(out)
    assert "#1" not in doc["graph"]
    assert doc["rounds"] == 3


def test_missing_file(capsys):
    code, _, err = run(capsys, "iso", "/nonexistent/a.json", "/nonexistent/b.json")
    assert code == 2


def test_threads_flag_accepted(capsys):
    code, out, _ = run(capsys, "rn", "2", "--threads", "4")
    assert code == 0 and out.strip() == "2"
    for bad in ("-3", "0"):
        with pytest.raises(SystemExit) as ex:
            main(["--threads", bad, "rn", "2"])
        assert ex.value.code == 2
        assert "must be positive" in capsys.readouterr().err


def test_backend_mismatch_between_files(tmp_path, capsys):
    run(capsys, "fixture", "nondefiso", "--emit", str(tmp_path))
    run(capsys, "fixture", "circle", "--emit", str(tmp_path))
    code, _, err = run(
        capsys,
        "iso",
        str(tmp_path / "nondefiso.a.json"),
        str(tmp_path / "circle.b.json"),
    )
    assert code == 2
    assert "backend" in err


def test_cyclic_eliminate_refused(tmp_path, capsys):
    run(capsys, "fixture", "circle", "--emit", str(tmp_path))
    run(capsys, "fixture", "smoothing", "--emit", str(tmp_path))
    code, _, err = run(
        capsys,
        "eliminate",
        "--map",
        str(tmp_path / "smoothing.map.json"),
        str(tmp_path / "circle.a.json"),
        str(tmp_path / "circle.b.json"),
    )
    assert code == 2


# Each malformed structure document, written as raw file text.
_BAD_STRUCTURES = {
    "not-json": "{ this is not json",
    "top-level-array": json.dumps([{"backend": "equality"}]),
    "relations-not-array": json.dumps(
        {"backend": "equality", "universe": "atoms", "relations": "oops"}
    ),
    "universe-not-string": json.dumps({"backend": "equality", "universe": 42}),
    **{
        f"arity-{label}": json.dumps(
            {
                "backend": "equality",
                "universe": "atoms",
                "relations": [{"name": "E", "arity": arity, "interp": "empty"}],
            }
        )
        for label, arity in [
            ("not-integer", "abc"),
            ("fraction", 2.5),
            ("digit-string", "1"),
            ("boolean", True),
        ]
    },
}


def _emit_smoothing(tmp_path, capsys):
    run(capsys, "fixture", "smoothing", "--emit", str(tmp_path))
    return {
        part: str(tmp_path / f"smoothing.{part}.json") for part in ("a", "b", "map")
    }


@pytest.mark.parametrize("command", ["iso", "eliminate"])
@pytest.mark.parametrize("case", sorted(_BAD_STRUCTURES))
def test_bad_structure_document_exit(tmp_path, capsys, command, case):
    files = _emit_smoothing(tmp_path, capsys)
    bad = tmp_path / "bad.json"
    bad.write_text(_BAD_STRUCTURES[case])
    argv = [command, str(bad), files["b"]]
    if command == "eliminate":
        argv[1:1] = ["--map", files["map"]]
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("atomiso: ") and "Traceback" not in err


# arity 2, but the interpretation holds triples
_UNCONTAINED = json.dumps(
    {
        "backend": "equality",
        "universe": "atoms",
        "relations": [
            {"name": "E", "arity": 2, "interp": "{(a, b, c) | a, b, c in atoms}"}
        ],
    }
)


@pytest.mark.parametrize("command", ["iso", "eliminate"])
@pytest.mark.parametrize("side", [0, 1])
def test_uncontained_interpretation_exit(tmp_path, capsys, command, side):
    files = _emit_smoothing(tmp_path, capsys)
    bad = tmp_path / "uncontained.json"
    bad.write_text(_UNCONTAINED)
    pair = [files["a"], files["b"]]
    pair[side] = str(bad)
    argv = [command, *pair]
    if command == "eliminate":
        argv[1:1] = ["--map", files["map"]]
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "not contained" in err


@pytest.mark.parametrize("pair", ["circle", "dlo_chains(3)"])
def test_loading_searching_and_checking_decompose_each_interpretation_once(
    tmp_path, capsys, monkeypatch, pair
):
    # validation decomposes every interpretation over the search's atoms,
    # so the search reuses those orbits and validation adds no
    # decomposition: each (interpretation, atoms) pair is decomposed once,
    # over the search's atoms or the final check's
    if pair == "circle":
        run(capsys, "fixture", "circle", "--emit", str(tmp_path))
        files, params = [str(tmp_path / f"circle.{s}.json") for s in "ab"], ["--params", "0"]
    else:
        save_structure(dlo_chains(3), str(tmp_path / "chains.json"))
        files, params = [str(tmp_path / "chains.json")] * 2, []
    A, B = map(load_structure, files)
    calls, during = Counter(), {}
    decompose, validate = algebra._decompose, cli.validate_structure
    phase = ["search"]

    def counted(comp, X, S):
        calls[X.key, S] += 1
        during[X.key, S] = phase[0]
        return decompose(comp, X, S)

    def validating(*args):
        phase[0] = "validation"
        validate(*args)
        phase[0] = "search"

    monkeypatch.setattr(algebra, "_decompose", counted)
    monkeypatch.setattr(cli, "validate_structure", validating)
    code, out, _ = run(capsys, "--json", "iso", *files, *params)
    assert code == 0
    graph = function_from_dict(json.loads(out)["witness"])[1].graph
    T = frozenset(Fraction(p) for p in params[1:])
    interps = {r.interp.key for r in (*A.relations, *B.relations)}
    done = {(key, S) for key, S in calls if key in interps}
    check = A.params() | B.params() | expr_params(graph)
    assert done == {(key, S) for key in interps for S in (T, check)}
    assert {during[key, T] for key in interps} == {"validation"}
    assert set(calls.values()) == {1}


_BAD_MAPS = {
    "not-json": "[1, 2",
    "top-level-array": json.dumps(["equality", "atoms", "atoms", "empty"]),
    "dom-not-string": json.dumps(
        {"backend": "equality", "dom": 42, "cod": "atoms", "graph": "empty"}
    ),
    "backend-not-string": json.dumps(
        {"backend": ["equality"], "dom": "atoms", "cod": "atoms", "graph": "empty"}
    ),
}


@pytest.mark.parametrize("case", sorted(_BAD_MAPS))
def test_bad_map_document_exit(tmp_path, capsys, case):
    files = _emit_smoothing(tmp_path, capsys)
    bad = tmp_path / "bad.map.json"
    bad.write_text(_BAD_MAPS[case])
    code, out, err = run(capsys, "eliminate", "--map", str(bad), files["a"], files["b"])
    assert code == 2
    assert out == ""
    assert err.startswith("atomiso: ") and "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [["--budget", "-1", "subsets", "atoms"], ["subsets", "atoms", "--budget", "-1"]],
)
def test_negative_budget_rejected(capsys, argv):
    with pytest.raises(SystemExit) as ex:
        main(argv)
    assert ex.value.code == 2
    assert "nonnegative" in capsys.readouterr().err


def test_unknown_mode_rejected(capsys):
    with pytest.raises(SystemExit) as ex:
        main(["iso", "a.json", "b.json", "--mode", "bad"])
    assert ex.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


# stdout and exit code of the iso/eliminate commands on the equality
# fixtures, byte for byte, in text and --json form, and of --json iso on the
# circle fixture, bare and anchored at 0
_GOLDEN_FILE = json.loads((Path(__file__).parent / "cli_golden.json").read_text())
_GOLDEN = _GOLDEN_FILE["equality"]


def test_equality_fixture_outputs_are_pinned(tmp_path, capsys):
    for name in ("kneser", "neighborhoods", "nondefiso", "smoothing"):
        run(capsys, "fixture", name, "--emit", str(tmp_path))
    for case in _GOLDEN:
        argv = [a.replace("{dir}", str(tmp_path)) for a in case["argv"]]
        code, out, _ = run(capsys, *argv)
        assert (code, out) == (case["exit"], case["stdout"]), case["argv"]


def test_one_parser_serves_every_call_of_a_process(tmp_path, capsys):
    # main builds its parser once per process: no call may see the flags,
    # errors or help of the calls before it
    assert cli.build_parser() is cli.build_parser()
    for name in ("kneser", "neighborhoods", "nondefiso", "smoothing"):
        run(capsys, "fixture", name, "--emit", str(tmp_path))
    cases = [
        ([a.replace("{dir}", str(tmp_path)) for a in c["argv"]], c["exit"], c["stdout"])
        for c in _GOLDEN
    ]

    def exits(*argv):
        with pytest.raises(SystemExit) as ex:
            main(list(argv))
        out = capsys.readouterr()
        return ex.value.code, out.out, out.err

    usage, helped = [], []
    for order in (cases, cases[::-1]):
        for argv, code, stdout in order:
            assert run(capsys, *argv)[:2] == (code, stdout), argv
        usage.append(exits("iso", "--budget", "-1", "a.json", "b.json"))
        helped.append(exits("iso", "--help"))
    assert usage[0] == usage[1] and usage[0][0] == 2 and "nonnegative" in usage[0][2]
    assert helped[0] == helped[1] and helped[0][0] == 0
    assert helped[0][1].startswith("usage: atomiso iso")

    argv, code, stdout = cases[0]
    flagged = run(capsys, "--json", *argv, "--params", "#1", "--budget", "7")
    assert flagged[0] == 0 and json.loads(flagged[1])["params"] == ["#1"]
    assert run(capsys, *argv, "--budget", "0")[0] == 5
    assert run(capsys, *argv)[:2] == (code, stdout)


def test_circle_fixture_outputs_are_pinned(tmp_path, capsys):
    run(capsys, "fixture", "circle", "--emit", str(tmp_path))
    for case in _GOLDEN_FILE["circle"]:
        argv = [a.replace("{dir}", str(tmp_path)) for a in case["argv"]]
        code, out, _ = run(capsys, *argv)
        assert (code, out) == (case["exit"], case["stdout"]), case["argv"]
