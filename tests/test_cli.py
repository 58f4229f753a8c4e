import contextlib
import copy
import io
import json
import os
import subprocess
import sys
from fractions import Fraction as F

import pytest
from hypothesis import HealthCheck, given, seed, settings
from hypothesis import strategies as st

from persalg.cli import main
from util import count_reduce_floer, precision_trap


def run_cli(args, capsys):
    code = main(args)
    out, err = capsys.readouterr()
    return code, out, err


def test_certify_sphere_example(capsys, tmp_path):
    out_file = tmp_path / "cert.json"
    code, out, err = run_cli(
        ["certify", "--model", "sphere", "--N", "3", "--h", "1/100",
         "--output", str(out_file)], capsys)
    assert code == 0
    cert = json.loads(out_file.read_text())
    assert F(cert["accuracy"]) == F(1, 12) + F(1, 50)


def test_certify_deterministic(capsys, tmp_path):
    f1, f2 = tmp_path / "a.json", tmp_path / "b.json"
    for f in (f1, f2):
        code, _, _ = run_cli(
            ["certify", "--model", "single", "--output", str(f)], capsys)
        assert code == 0
    assert f1.read_bytes() == f2.read_bytes()


def test_distance_subcommand(capsys, tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    a.write_text(json.dumps({"modulus": 0, "bars": [
        {"birth": "0", "death": "2", "degree": 0}]}))
    b.write_text(json.dumps({"modulus": 0, "bars": []}))
    code, out, _ = run_cli(["distance", "--metric", "dint", str(a), str(b)], capsys)
    assert code == 0 and out.strip() == "1"
    code, out, _ = run_cli(["distance", "--metric", "Dint", str(a), str(b)], capsys)
    assert code == 0 and out.strip() == "2"
    code, out, _ = run_cli(["distance", "--metric", "drint", str(a), str(b)], capsys)
    assert code == 0 and out.strip() == "1"
    c = tmp_path / "c.json"
    c.write_text(json.dumps({"modulus": 0, "bars": [
        {"birth": "7", "death": "9", "degree": 0}]}))
    code, out, _ = run_cli(["distance", "--metric", "dint", "--shift-invariant",
                            str(a), str(c)], capsys)
    assert code == 0 and out.strip() == "0"


def test_conelength_example(capsys, tmp_path):
    cpx = tmp_path / "e2.json"
    cpx.write_text(json.dumps({
        "modulus": 0,
        "generators": [{"name": "a", "degree": 0, "level": "0"},
                       {"name": "b", "degree": 1, "level": "1"}],
        "differential": [{"from": "b", "to": "a"}],
    }))
    code, out, _ = run_cli(["conelength", "--eps", "3/10", str(cpx)], capsys)
    assert code == 0 and out.strip() == "2"


def test_barcode_round_trip(capsys, tmp_path):
    cpx = tmp_path / "c.json"
    cpx.write_text(json.dumps({
        "modulus": 2,
        "generators": [{"name": "a", "degree": 0, "level": "1/3"},
                       {"name": "b", "degree": 1, "level": "2"}],
        "differential": [{"from": "b", "to": "a"}],
    }))
    out_file = tmp_path / "bars.json"
    code, _, _ = run_cli(["barcode", str(cpx), "--output", str(out_file)], capsys)
    assert code == 0
    data = json.loads(out_file.read_text())
    assert data["bars"] == [{"birth": "1/3", "death": "2", "degree": 0}]
    from persalg.persistence import Barcode

    assert Barcode.from_json(data).to_json() == data


def test_concise_barcode_documents(capsys, tmp_path):
    """barcode --novikov and hochschild print the concise barcode in one
    layout, pinned byte for byte."""
    cpx = tmp_path / "nov.json"
    cpx.write_text(json.dumps({
        "modulus": 0,
        "generators": [{"name": "a", "degree": 0, "level": "0"},
                       {"name": "b", "degree": 1, "level": "1"},
                       {"name": "c", "degree": 1, "level": "1/2"},
                       {"name": "e", "degree": 2, "level": "3"},
                       {"name": "z", "degree": 0, "level": "2"}],
        "differential": [{"from": "b", "to": "a", "coefficient": "T + T^{3/2}"},
                         {"from": "e", "to": "c", "coefficient": "T^{1/2}"}],
    }))
    assert run_cli(["barcode", "--novikov", str(cpx)], capsys) == (0, """{
  "finite": [
    {
      "degree": 0,
      "length": "2"
    },
    {
      "degree": 1,
      "length": "3"
    }
  ],
  "infinite": [
    {
      "count": 1,
      "degree": 0
    }
  ]
}
""", "")
    assert run_cli(["hochschild", "--model", "single", "--n-max", "3"], capsys) == (0, """{
  "finite": [
    {
      "degree": 1,
      "length": "1/2"
    }
  ],
  "infinite": [
    {
      "count": 2,
      "degree": 0
    },
    {
      "count": 2,
      "degree": 1
    }
  ],
  "witness_is_cycle": true
}
""", "")


def test_precision_has_one_default(capsys, monkeypatch):
    """--precision defaults to 24 whatever the environment holds: a value
    that --precision would reject changes nothing."""
    want = run_cli(["model", "--model", "torus"], capsys)
    monkeypatch.setenv("PERSALG_PRECISION", "not-a-number")
    assert want[0] == 0 and run_cli(["model", "--model", "torus"], capsys) == want


def test_model_precision_truncates_only_the_longitude_series(capsys):
    """--precision reaches the output of `model` only where the μ table holds
    q-series: the longitude family's entries are truncated at it, and the
    torus b_xy model prints the same at 4 and at 24."""
    docs = {}
    for p in ("4", "24"):
        code, out, _ = run_cli(["model", "--model", "torus-longitudes", "--precision", p], capsys)
        assert code == 0
        docs[p] = json.loads(out)
    assert docs["4"] != docs["24"]
    assert {k: v for k, v in docs["4"].items() if k != "mu"} == \
        {k: v for k, v in docs["24"].items() if k != "mu"}
    series = 0
    for low, high in zip(docs["4"]["mu"], docs["24"]["mu"]):
        assert low["inputs"] == high["inputs"]
        for a, b in zip(low["output_terms"], high["output_terms"], strict=True):
            assert (a["gen"], a["precision"], b["precision"]) == (b["gen"], "4", "24")
            low_terms, high_terms = a["novikov"].split(" + "), b["novikov"].split(" + ")
            assert high_terms[:len(low_terms)] == low_terms
            series += len(low_terms) < len(high_terms)
    assert series > 0
    torus = [run_cli(["model", "--model", "torus", "--precision", p], capsys) for p in ("4", "24")]
    assert torus[0][0] == 0 and torus[0] == torus[1]


def test_parse_error_exit_code(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, out, err = run_cli(["barcode", str(bad)], capsys)
    assert code == 4


def test_coverage_gap_exit_code(capsys):
    code, out, err = run_cli(
        ["hochschild", "--model", "torus-grid", "--N", "2",
         "--precision", "6", "--n-max", "2"], capsys)
    assert code == 3
    assert "coverage gap" in err


def test_verification_failure_exit_code(capsys):
    code, out, err = run_cli(
        ["morse", "--K", "0.1", "--delta", "0.99", "--eta", "0.0000001",
         "--resolution", "200"], capsys)
    # coarse grid + extreme delta: the verifier reports honest violations
    assert code in (0, 2)


def test_oracle_subcommand(capsys):
    code, out, _ = run_cli(
        ["oracle", "--kind", "divisor_sum", "--N", "3", "--precision", "2"], capsys)
    assert code == 0 and out.strip() == "T^{1/3} + T"
    code, out, _ = run_cli(
        ["oracle", "--kind", "odd_squares", "--precision", "26"], capsys)
    assert code == 0 and out.strip() == "T + T^{9} + T^{25}"


def test_model_subcommand(capsys, tmp_path):
    out_file = tmp_path / "model.json"
    code, _, _ = run_cli(
        ["model", "--model", "single", "--output", str(out_file)], capsys)
    assert code == 0
    data = json.loads(out_file.read_text())
    assert data["objects"] == ["L"]
    assert data["uncheckable_instances"] == 0


def test_entropy_subcommand(capsys, tmp_path):
    out_file = tmp_path / "growth.csv"
    code, _, err = run_cli(
        ["entropy", "--k-max", "12", "--output", str(out_file)], capsys)
    assert code == 0
    lines = out_file.read_text().strip().splitlines()
    assert lines[0] == "k,N_k,bound"
    assert lines[1] == "1,3,3"


def test_entropy_reduces_each_model_once(capsys, monkeypatch):
    calls = count_reduce_floer(monkeypatch)
    code, out, _ = run_cli(["entropy", "--k-max", "9"], capsys)
    assert code == 0
    assert out.splitlines()[1:] == [f"{k},{k + 2},{k + 2}" for k in range(1, 10)]
    assert len(calls) == 9


def test_console_script_installed():
    # the child imports persalg from where this process does, which may be
    # pytest's pythonpath rather than an install
    proc = subprocess.run([sys.executable, "-m", "persalg.cli", "oracle",
                           "--kind", "odd_squares", "--precision", "2"],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    assert proc.returncode == 0 and proc.stdout.strip() == "T"


ENGINE_WITHOUT_NUMPY = r"""
import contextlib, importlib, io, pkgutil, sys
import persalg
for info in pkgutil.iter_modules(persalg.__path__):
    importlib.import_module("persalg." + info.name)
from persalg.cli import main

cpx, bars, empty = sys.argv[1:]
runs = [
    ["barcode", cpx],
    ["distance", bars, empty],
    ["conelength", "--eps", "3/10", cpx],
    ["model", "--model", "single"],
    ["certify", "--model", "single"],
    ["hochschild", "--model", "single"],
    ["oracle", "--kind", "grid-theta", "--N", "2", "--precision", "4"],
]
for argv in runs:
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0, argv
assert "numpy" not in sys.modules, "the exact engine loaded numpy"

from persalg import entropy, morse
assert entropy.entropy_estimate([3, 4, 5, 6, 7, 8], "slow") == (0.5476313658694485, (1, 6))
assert entropy.entropy_estimate([2, 4, 8, 16, 32]) == (0.6931471805599454, (1, 5))
rep = morse.verify(morse.build_1d(0.6, 0.5, 1e-2, 1.0, 4000))
assert (rep.ok, rep.critical_count, rep.variation, rep.min_value) == (True, 2, 0.48, 0.0)
assert "numpy" in sys.modules
print("ok")
"""


def test_engine_starts_without_numpy(tmp_path):
    """Floats live only in the Morse verifier and the entropy regression:
    importing every module and running the exact subcommands loads no
    numpy, and the float parts still answer as pinned."""
    cpx, bars, empty = tmp_path / "e2.json", tmp_path / "a.json", tmp_path / "b.json"
    cpx.write_text(json.dumps(E2))
    bars.write_text(json.dumps({"modulus": 0, "bars": [
        {"birth": "0", "death": "2", "degree": 0}]}))
    empty.write_text(json.dumps({"modulus": 0, "bars": []}))
    proc = subprocess.run([sys.executable, "-c", ENGINE_WITHOUT_NUMPY,
                           str(cpx), str(bars), str(empty)],
                          capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    assert proc.returncode == 0 and proc.stdout.strip() == "ok", proc.stderr


def test_grid_theta_rejects_n_below_1(capsys):
    code, out, err = run_cli(["oracle", "--kind", "grid-theta", "--N", "0"], capsys)
    assert code == 2 and out == ""
    assert err.strip().splitlines() == ["error: grid-theta parameter N must be >= 1, got 0"]
    # N = -1 used to sum without end; a child process keeps a regression
    # from hanging the suite
    proc = subprocess.run([sys.executable, "-m", "persalg.cli", "oracle",
                           "--kind", "grid-theta", "--N", "-1"],
                          capture_output=True, text=True, timeout=30,
                          env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.strip().splitlines() == [
        "error: grid-theta parameter N must be >= 1, got -1"]


@pytest.mark.parametrize("extra,name", [
    (["--resolution", "0"], "resolution"),
    (["--resolution", "1"], "resolution"),
    (["--resolution", "2"], "resolution"),
    (["--circumference", "inf"], "circumference"),
    (["--circumference", "nan"], "circumference"),
    (["--circumference", "0"], "circumference"),
    (["--circumference", "-1"], "circumference"),
    (["--K", "nan"], "K"),
    (["--eta", "inf"], "eta"),
])
def test_morse_bad_arguments_exit_2(capsys, extra, name):
    code, out, err = run_cli(
        ["morse", "--K", "1", "--delta", "0.5", "--eta", "0.01"] + extra, capsys)
    assert code == 2 and out == ""
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: {name} must be")
    assert "Traceback" not in err


E2 = {"modulus": 0,
      "generators": [{"name": "a", "degree": 0, "level": "0"},
                     {"name": "b", "degree": 1, "level": "1"}],
      "differential": [{"from": "b", "to": "a"}]}
NOV2 = {"modulus": 2,
        "generators": [{"name": "a", "degree": 0, "level": "0"},
                       {"name": "b", "degree": 1, "level": "1"}],
        "differential": [{"from": "b", "to": "a", "coefficient": "T"}]}


@pytest.mark.parametrize("argv,content", [
    (["distance", "{file}", "{good}"],
     {"modulus": 0, "bars": [{"birth": "1", "death": "0", "degree": 0}]}),
    (["distance", "{file}", "{good}"],
     {"modulus": 0, "bars": [{"birth": "1", "degree": 0}]}),
    (["barcode", "{file}"], {**E2, "differential": {"from": "b", "to": "a"}}),
    (["conelength", "--eps", "1/4", "{file}"],
     {**E2, "differential": {"from": "b", "to": "a"}}),
    (["conelength", "--eps", "1/4", "{file}"],
     {**E2, "differential": [{"from": "b", "to": "zz"}]}),
    (["barcode", "{file}"], {**E2, "differential": [{"from": "b", "to": "zz"}]}),
    (["distance", "{file}", "{good}"],
     {"modulus": 0, "bars": {"birth": "0", "death": "1", "degree": 0}}),
    (["barcode", "{file}"], {**E2, "generators": {"name": "a", "degree": 0, "level": "0"}}),
    (["barcode", "--novikov", "{file}"],
     {**NOV2, "generators": {"name": "a", "degree": 0, "level": "0"}}),
    (["barcode", "--novikov", "{file}"],
     {**NOV2, "differential": {"from": "b", "to": "a", "coefficient": "T"}}),
    (["barcode", "--novikov", "{file}"],
     {**NOV2, "differential": [{"from": "b", "to": "a", "coefficient": "T",
                                "precision": "1/0"}]}),
    (["barcode", "--novikov", "{file}"],
     {**NOV2, "differential": [{"from": "b", "to": "a", "coefficient": "T",
                                "precision": "x"}]}),
    (["conelength", "--eps", "1/4", "{file}"],
     {**E2, "generators": [{"name": "a", "degree": 0, "level": "1/0"}]}),
    (["distance", "{file}", "{good}"], [{"birth": "0", "death": "1", "degree": 0}]),
    (["distance", "{file}", "{good}"], {"modulus": 0, "bars": [3]}),
    (["distance", "{file}", "{good}"],
     {"modulus": 0, "bars": [{"birth": [0], "death": "1", "degree": 0}]}),
    (["distance", "{file}", "{good}"],
     {"modulus": 0, "bars": [{"birth": "0", "death": "1", "degree": 1.5}]}),
    (["distance", "{file}", "{good}"],
     {"modulus": 2.5, "bars": [{"birth": "0", "death": "1", "degree": 0}]}),
    # json.dumps writes float("inf") as the JSON extension Infinity
    (["barcode", "{file}"],
     {**E2, "generators": [{"name": "a", "degree": 0, "level": float("inf")}],
      "differential": []}),
    (["barcode", "--novikov", "{file}"],
     {**NOV2, "generators": [{"name": "a", "degree": 0, "level": float("inf")}],
      "differential": []}),
    (["barcode", "--novikov", "{file}"],
     {**NOV2, "differential": [{"from": "b", "to": "a", "coefficient": "T",
                                "precision": float("inf")}]}),
    (["barcode", "{file}"], {**E2, "generators": [1, 2]}),
    (["barcode", "{file}"], {**E2, "differential": [5]}),
    (["barcode", "{file}"], [E2]),
    (["barcode", "{file}"],
     {**E2, "generators": [{"name": ["a"], "degree": 0, "level": "0"}], "differential": []}),
    (["barcode", "--novikov", "{file}"], {**NOV2, "generators": [1]}),
    (["barcode", "--novikov", "{file}"],
     {**NOV2, "differential": [{"from": "b", "to": "a", "coefficient": 5}]}),
    (["barcode", "{file}"],
     {**E2, "generators": [E2["generators"][0], {"name": "b", "degree": 1.5, "level": "1"}]}),
    (["barcode", "{file}"], {**E2, "modulus": 2.5}),
    (["barcode", "--novikov", "{file}"], {**NOV2, "modulus": 1.5}),
    (["barcode", "{file}"], {**E2, "differential": [], "cohomological": "no"}),
    (["barcode", "--novikov", "{file}"],
     {**NOV2, "differential": [{"from": "b", "to": "a", "coefficient": "T^{1/0}"}]}),
], ids=["distance-empty-bar", "distance-no-death", "barcode-object-differential",
        "conelength-object-differential", "conelength-unknown-generator",
        "barcode-unknown-generator", "distance-object-bars", "barcode-object-generators",
        "novikov-object-generators", "novikov-object-differential",
        "novikov-zero-denominator-precision", "novikov-bad-precision",
        "conelength-zero-denominator-level", "distance-top-level-list",
        "distance-number-bar", "distance-list-birth", "distance-fractional-degree",
        "distance-fractional-modulus", "barcode-infinite-level", "novikov-infinite-level",
        "novikov-infinite-precision", "barcode-number-generators", "barcode-number-edge",
        "barcode-top-level-list", "barcode-list-name", "novikov-number-generators",
        "novikov-number-coefficient", "barcode-fractional-degree",
        "barcode-fractional-modulus", "novikov-fractional-modulus",
        "barcode-string-cohomological", "novikov-zero-denominator-coefficient"])
def test_malformed_input_exits_4(capsys, tmp_path, argv, content):
    """Malformed input is a parse error: exit 4 with a one-line message."""
    good = tmp_path / "good.json"
    good.write_text(json.dumps({"modulus": 0, "bars": [
        {"birth": "0", "death": "2", "degree": 0}]}))
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(content))
    args = [a.format(file=bad, good=good) for a in argv]
    code, out, err = run_cli(args, capsys)
    assert code == 4
    assert out == "" and len(err.strip().splitlines()) == 1


def test_precision_gap_exits_3(capsys, tmp_path):
    """A reduction that stops with a PrecisionError is a precision gap: exit
    3 with a one-line message, like a coverage gap."""
    cpx = tmp_path / "trap.json"
    cpx.write_text(json.dumps(precision_trap().to_json()))
    code, out, err = run_cli(["barcode", "--novikov", str(cpx)], capsys)
    assert code == 3
    assert out == "" and err.startswith("precision gap:") and len(err.splitlines()) == 1


# One valid document per document-reading subcommand, with every optional
# field present so that mutations reach it.
VALID = {
    "barcode": (["barcode", "{file}"], {**E2, "cohomological": False}),
    "novikov": (["barcode", "--novikov", "{file}"],
                {**NOV2, "differential": [{"from": "b", "to": "a", "coefficient": "T + T^{3/2}",
                                           "precision": "5"}]}),
    "distance": (["distance", "{file}", "{good}"],
                 {"modulus": 2, "bars": [{"birth": "0", "death": "2", "degree": 0},
                                         {"birth": "1/2", "death": "inf", "degree": 1}]}),
    "conelength": (["conelength", "--eps", "1/4", "{file}"], E2),
}
# a value of each JSON type: null, boolean, number, string, list, object
OTHER_VALUES = [None, True, 7, 2.5, "x", [], [1], {}, {"x": 1}]


def _json_type(value) -> str:
    return type(value).__name__ if not isinstance(value, (int, float)) or \
        isinstance(value, bool) else "number"


def _node_paths(doc, path=()):
    """The path of every node of a JSON document, the document itself first."""
    yield path
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if \
        isinstance(doc, list) else ()
    for key, value in items:
        yield from _node_paths(value, path + (key,))


@seed(20261019)
@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.sampled_from(sorted(VALID)), st.data())
def test_mutated_documents_never_escape_main(tmp_path, name, data):
    """One node of a valid document is swapped for a value of another JSON
    type, dropped or wrapped in a list: main answers with a documented exit
    code and never lets an exception escape."""
    argv, doc = VALID[name]
    doc = copy.deepcopy(doc)
    path = data.draw(st.sampled_from(list(_node_paths(doc))), label="path")
    parent, node = None, doc
    for key in path:
        parent, node = node, node[key]
    how = data.draw(st.sampled_from(["swap", "drop", "wrap"] if path else ["swap", "wrap"]),
                    label="how")
    if how == "swap":
        new = data.draw(st.sampled_from([v for v in OTHER_VALUES
                                         if _json_type(v) != _json_type(node)]), label="value")
    else:
        new = [node]
    if not path:
        doc = new
    elif how == "drop":
        del parent[path[-1]]
    else:
        parent[path[-1]] = new
    good = tmp_path / "good.json"
    good.write_text(json.dumps({"modulus": 2, "bars": [
        {"birth": "0", "death": "2", "degree": 0}]}))
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([a.format(file=bad, good=good) for a in argv])
    assert code in (0, 2, 3, 4)
    assert code == 0 or len(err.getvalue().splitlines()) == 1


def test_valid_documents_exit_0(capsys, tmp_path):
    """The documents the mutation test starts from are valid."""
    good = tmp_path / "good.json"
    good.write_text(json.dumps({"modulus": 2, "bars": []}))
    for argv, doc in VALID.values():
        f = tmp_path / "doc.json"
        f.write_text(json.dumps(doc))
        code, out, err = run_cli([a.format(file=f, good=good) for a in argv], capsys)
        assert code == 0 and err == "", (argv, err)


@pytest.mark.parametrize("argv", [
    ["morse", "--K", "abc", "--delta", "1", "--eta", "1"],
    ["entropy", "--k-max", "abc"],
    ["certify", "--model", "sphere", "--N", "x"],
    ["certify", "--model", "single", "--h", "abc"],
    ["model", "--model", "torus", "--precision", "x"],
    ["hochschild", "--model", "single", "--h", "1/0"],
    ["entropy", "--eps", "zz"],
    ["oracle", "--kind", "theta", "--beta", "q"],
    ["certify", "--model", "single", "--precision", "x"],
    ["model", "--model", "sphere", "--N", "2", "--precision", "x"],
], ids=["morse-float", "entropy-int", "certify-int", "certify-h", "model-precision",
        "hochschild-h", "entropy-eps", "oracle-beta", "certify-single-precision",
        "model-sphere-precision"])
def test_malformed_arguments_exit_4(capsys, argv):
    """Malformed arguments, argparse's or ours, exit 4 with a one-line message."""
    code, out, err = run_cli(argv, capsys)
    assert code == 4
    assert out == "" and len(err.strip().splitlines()) == 1


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["morse", "--help"])
    assert exc.value.code == 0
    assert "--delta" in capsys.readouterr().out
