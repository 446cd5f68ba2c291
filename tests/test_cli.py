"""Command-line interface: subcommands, file formats, exit codes."""

import json

import numpy as np
import pytest

from mvloewner import eval_model, load_model, load_source, make_model, model_to_dict, source_to_dict
from mvloewner.cli import format_complex, main
from conftest import C1_EXPECTED, SYNTH_2D_TEXT


def _write_json(path, document):
    path.write_text(json.dumps(document))
    return str(path)


@pytest.fixture()
def synth2d_file(tmp_path, source_synth2d):
    return _write_json(tmp_path / "synth2d.json", source_to_dict(source_synth2d))


@pytest.fixture()
def oracle_3d_file(tmp_path, source_3d):
    return _write_json(tmp_path / "oracle3d.json", source_to_dict(source_3d))


@pytest.fixture()
def oracle_2d_file(tmp_path, source_2d):
    return _write_json(tmp_path / "oracle2d.json", source_to_dict(source_2d))


@pytest.fixture()
def data_1d_file(tmp_path, source_1d):
    return _write_json(tmp_path / "data1d.json", source_to_dict(source_1d.densify()))


def test_order_detect_synthetic(synth2d_file, capsys):
    assert main(["order-detect", "--data", synth2d_file]) == 0
    assert json.loads(capsys.readouterr().out) == {"degrees": [4, 3]}


def test_order_detect_constant(tmp_path, capsys):
    doc = {
        "variables": [
            {"name": "s", "lambda": [[0, 0], [1, 0]], "mu": [[2, 0], [3, 0]]},
            {"name": "t", "lambda": [[5, 0], [6, 0]], "mu": [[7, 0], [8, 0]]},
        ],
        "expression": "42",
    }
    path = _write_json(tmp_path / "const.json", doc)
    assert main(["order-detect", "--data", path]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["degrees"] == [0, 0]


def test_order_detect_2d_example(tmp_path, source_2d, capsys):
    path = _write_json(tmp_path / "ex2.json", source_to_dict(source_2d.densify()))
    assert main(["order-detect", "--data", path]) == 0
    assert json.loads(capsys.readouterr().out)["degrees"] == [2, 1]


def test_order_detect_missing_file_exit_code(capsys):
    assert main(["order-detect", "--data", "/nonexistent/nope.json"]) == 2


def test_fit_1d_golden_weights(data_1d_file, tmp_path, capsys):
    out = tmp_path / "model.json"
    assert main(["fit", "--data", data_1d_file, "--out", str(out)]) == 0
    model = load_model(out)
    rescaled = model.weights_c / model.weights_c[-1]
    np.testing.assert_allclose(rescaled.real, C1_EXPECTED, atol=1e-11)


def test_fit_cascade_order_flops(oracle_3d_file, tmp_path, capsys):
    out = tmp_path / "model3.json"
    code = main(
        [
            "fit",
            "--oracle",
            oracle_3d_file,
            "--method",
            "cascade",
            "--order",
            "p,t,s",
            "--degrees",
            "1,1,2",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["flops"] == 99
    assert report["degrees"] == [1, 1, 2]


@pytest.mark.parametrize(
    "argv, named",
    [
        (["fit", "--method", "full", "--order", "1,1"], "permutation"),
        (["fit", "--order", "0,1"], "permutation"),
        (["fit", "--order", "1"], "permutation"),
        (["flops", "--degrees", "1,2", "--order", "5,1"], "permutation"),
        (["flops", "--degrees", "1,2", "--order", "1"], "permutation"),
        (["fit", "--degrees", "2,1,5"], "3 degrees given for 2 variables"),
        (["fit", "--degrees", "1"], "1 degrees given for 2 variables"),
        (["fit", "--method", "full", "--degrees", "1"], "1 degrees given for 2 variables"),
    ],
)
def test_bad_order_or_degree_count_is_an_input_error(oracle_2d_file, tmp_path, capsys, argv, named):
    if argv[0] == "fit":
        argv = [*argv, "--oracle", oracle_2d_file, "--out", str(tmp_path / "m.json")]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and named in captured.err
    assert not (tmp_path / "m.json").exists()


def test_fit_clamps_oversized_degrees(data_1d_file, tmp_path, capsys):
    out = tmp_path / "clamped.json"
    with pytest.warns(UserWarning, match="clamping"):
        code = main(["fit", "--data", data_1d_file, "--degrees", "99", "--out", str(out)])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["degrees"] == [2]


def test_fit_adaptive_writes_log(synth2d_file, tmp_path, capsys):
    out = tmp_path / "model.json"
    log_path = tmp_path / "log.json"
    code = main(
        [
            "fit-adaptive",
            "--data",
            synth2d_file,
            "--tol",
            "1e-6",
            "--out",
            str(out),
            "--log",
            str(log_path),
        ]
    )
    assert code == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["k"] == [5, 4]
    assert summary["flops"] == [2, 10, 51, 172, 445]
    log = json.loads(log_path.read_text())
    assert log["converged"] is True and len(log["iterations"]) == 5
    assert "sampled" not in log  # 441 tuples are swept whole


def test_fit_adaptive_generous_tolerance(synth2d_file, tmp_path, capsys):
    out = tmp_path / "model.json"
    code = main(["fit-adaptive", "--data", synth2d_file, "--tol", "10", "--out", str(out)])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["iterations"] == 1


def test_fit_adaptive_noisy_exit_code(tmp_path, source_synth2d, capsys):
    rng = np.random.default_rng(1)
    doc = source_to_dict(source_synth2d)
    noisy = [
        [re + 1e-2 * rng.normal(), im] for re, im in doc["values"]
    ]
    doc["values"] = noisy
    path = _write_json(tmp_path / "noisy.json", doc)
    out = tmp_path / "best.json"
    code = main(["fit-adaptive", "--data", path, "--tol", "1e-10", "--out", str(out)])
    assert code == 3
    assert out.exists()  # best model still saved


def test_eval_round_trips_model_file(data_1d_file, tmp_path, capsys):
    out = tmp_path / "model.json"
    main(["fit", "--data", data_1d_file, "--out", str(out)])
    capsys.readouterr()
    assert main(["eval", "--model", str(out), "--point", "0"]) == 0
    printed = capsys.readouterr().out.strip()
    value = eval_model(load_model(out), (0,))
    assert printed == format_complex(value)
    assert printed == "4+0i"


def test_realize_splits_and_dimensions(oracle_3d_file, tmp_path, capsys):
    model_path = tmp_path / "model.json"
    main(["fit", "--oracle", oracle_3d_file, "--degrees", "1,1,2", "--out", str(model_path)])
    capsys.readouterr()

    real_path = tmp_path / "real.json"
    assert main(["realize", "--model", str(model_path), "--split", "s,t|p", "--out", str(real_path)]) == 0
    assert json.loads(capsys.readouterr().out)["m"] == 9

    assert main(["realize", "--model", str(model_path), "--split", "s|t,p", "--out", str(real_path)]) == 0
    assert json.loads(capsys.readouterr().out)["m"] == 13

    assert main(["realize", "--model", str(model_path), "--split", "auto", "--out", str(real_path)]) == 0
    assert json.loads(capsys.readouterr().out)["m"] == 9
    # written like every other output file: atomically, newline-terminated
    assert real_path.read_text().endswith("}\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["model.json", "oracle3d.json", "real.json"]


def test_verify_passes_on_consistent_artifacts(tmp_path, source_2d, capsys):
    data_path = _write_json(tmp_path / "d.json", source_to_dict(source_2d.densify()))
    model_path = tmp_path / "m.json"
    real_path = tmp_path / "r.json"
    main(["fit", "--data", data_path, "--degrees", "2,1", "--out", str(model_path)])
    main(["realize", "--model", str(model_path), "--split", "s|t", "--out", str(real_path)])
    capsys.readouterr()
    code = main(
        ["verify", "--model", str(model_path), "--data", data_path, "--realization", str(real_path)]
    )
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert report["ok"] is True
    assert report["checks"]["sweep"]["max_error"] <= 1e-10
    assert report["checks"]["loewner_rows"]["ok"] is True
    assert report["checks"]["loewner_rows"]["max_error"] <= 1e-10


def test_verify_detects_corrupted_weight(tmp_path, source_2d, capsys):
    data_path = _write_json(tmp_path / "d.json", source_to_dict(source_2d.densify()))
    model_path = tmp_path / "m.json"
    main(["fit", "--data", data_path, "--degrees", "2,1", "--out", str(model_path)])
    capsys.readouterr()
    doc = json.loads(model_path.read_text())
    doc["c"][0][0] *= 1.25
    model_path.write_text(json.dumps(doc))
    code = main(["verify", "--model", str(model_path), "--data", data_path])
    report = json.loads(capsys.readouterr().out)
    assert code == 4
    assert report["ok"] is False


def test_verify_synthetic_artifacts(synth2d_file, tmp_path, capsys):
    model_path = tmp_path / "m.json"
    main(["fit-adaptive", "--data", synth2d_file, "--tol", "1e-6", "--out", str(model_path)])
    capsys.readouterr()
    code = main(["verify", "--model", str(model_path), "--data", synth2d_file])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert report["checks"]["sweep"]["max_error"] <= 1e-9


def test_flops_subcommand(capsys):
    assert main(["flops", "--degrees", "1,1,2"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["cascaded_flops"] == 132
    assert report["full_flops"] == 1728

    assert main(["flops", "--degrees", "19,5,3,5,7,1"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["cascaded_bytes_max"] == 6400
    assert abs(report["full_bytes"] / 2**30 - 31.64) < 0.01 * 31.64

    assert main(["flops", "--degrees", "0"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["cascaded_flops"] == 1 and report["full_flops"] == 1


def test_plot_data_sweep(tmp_path, synth2d_file, capsys):
    model_path = tmp_path / "m.json"
    main(["fit-adaptive", "--data", synth2d_file, "--tol", "1e-6", "--out", str(model_path)])
    capsys.readouterr()
    csv_path = tmp_path / "sweep.csv"
    code = main(
        [
            "plot-data",
            "--model",
            str(model_path),
            "--sweep",
            "s=-1:1:200",
            "--frozen",
            "p=0.5",
            "--out",
            str(csv_path),
        ]
    )
    assert code == 0
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "point,re,im,abs"
    assert len(lines) == 201
    assert all("inf" not in line for line in lines[1:])


def test_plot_data_flags_pole(tmp_path, capsys):
    model = make_model([[0, 2]], [1.0, 1.0], [1.0, -1.0], names=["s"])
    model_path = _write_json(tmp_path / "pole.json", model_to_dict(model))
    code = main(["plot-data", "--model", model_path, "--sweep", "s=0:2:3"])
    out = capsys.readouterr().out.strip().splitlines()
    assert code == 0
    assert len(out) == 4
    assert out[2] == "1,inf,inf,inf"


def test_format_complex_has_twelve_digits():
    assert format_complex(4.0) == "4+0i"
    assert format_complex(complex(1 / 3, -2 / 7)) == "0.333333333333-0.285714285714i"


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as info:
        main(["--version"])
    assert info.value.code == 0


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "argv",
    [
        ["eval", "--point", "nan,0.3"],
        ["eval", "--point", "0.2,1e400"],
        ["eval", "--point", "0.2,nanj"],
        ["plot-data", "--sweep", "s=0:2:3", "--frozen", "t=nan"],
        ["plot-data", "--sweep", "s=0:2:3", "--frozen", "t=1+1e999i"],
        ["plot-data", "--sweep", "s=nan:2:3", "--frozen", "t=1"],
        ["plot-data", "--sweep", "s=0:inf:3", "--frozen", "t=1"],
    ],
)
def test_non_finite_coordinates_are_input_errors(tmp_path, capsys, argv):
    model = make_model([[0, 2], [1, 3]], np.ones(4), np.arange(4.0), names=["s", "t"])
    path = _write_json(tmp_path / "m.json", model_to_dict(model))
    assert main([argv[0], "--model", path, *argv[1:]]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "not finite" in captured.err


def test_verify_refuses_hand_edited_realizations(tmp_path, source_2d, capsys):
    data_path = _write_json(tmp_path / "d.json", source_to_dict(source_2d.densify()))
    model_path = tmp_path / "m.json"
    real_path = tmp_path / "r.json"
    main(["fit", "--data", data_path, "--degrees", "2,1", "--out", str(model_path)])
    main(["realize", "--model", str(model_path), "--split", "s|t", "--out", str(real_path)])
    capsys.readouterr()
    edits = (
        lambda doc: doc["A_lag"].pop(),  # A_lag 1 x 3, not ell x kappa = 2 x 3
        lambda doc: doc["C"].pop(),  # C of length 5, not m = 6
        lambda doc: doc["B"][2].__setitem__(0, 1.0),  # B off [0; q_Delta; 0]
    )
    for number, edit in enumerate(edits):
        doc = json.loads(real_path.read_text())
        edit(doc)
        edited = _write_json(tmp_path / f"edited{number}.json", doc)
        code = main(
            ["verify", "--model", str(model_path), "--data", data_path, "--realization", edited]
        )
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: ")


def _swap_s_and_t(text):
    return text.replace('"s"', '"_"').replace('"t"', '"s"').replace('"_"', '"t"')


def _declared_in_reverse(text):
    doc = json.loads(text)
    return json.dumps(dict(doc, variables=doc["variables"][::-1]))


RELABELLINGS = {
    # the same model or realization with its variables called (t, s)
    "model": _swap_s_and_t,
    "realization": _swap_s_and_t,
    # the same function, its variables declared in the order (t, s)
    "data": _declared_in_reverse,
}


@pytest.mark.parametrize("relabelled", sorted(RELABELLINGS))
def test_verify_refuses_variables_that_differ_in_name_or_order(oracle_2d_file, tmp_path, capsys, relabelled):
    paths = {"data": oracle_2d_file, "model": str(tmp_path / "m.json"), "realization": str(tmp_path / "r.json")}
    main(["fit", "--data", paths["data"], "--out", paths["model"]])
    main(["realize", "--model", paths["model"], "--out", paths["realization"]])
    capsys.readouterr()
    edited = tmp_path / f"relabelled_{relabelled}.json"
    with open(paths[relabelled], encoding="utf-8") as fh:
        edited.write_text(RELABELLINGS[relabelled](fh.read()))
    paths[relabelled] = str(edited)
    argv = ["verify", "--model", paths["model"], "--data", paths["data"], "--realization", paths["realization"]]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "['s', 't']" in captured.err and "['t', 's']" in captured.err


@pytest.mark.parametrize(
    "entry, named",
    [
        ([1, 2], "lambda of variable 's' entry 0"),  # numbers, not pairs
        ([["1", 0], [2, 0]], "lambda of variable 's' entry 0"),  # a string real part
        ([[1, 0], [2, 0, 0]], "lambda of variable 's' entry 1"),  # a triple
        (7, "lambda of variable 's' must be a list"),
    ],
)
def test_malformed_pairs_in_a_data_file_are_input_errors(tmp_path, capsys, entry, named):
    doc = {"variables": [{"name": "s", "lambda": entry, "mu": [[3, 0]]}], "expression": "s+1"}
    path = _write_json(tmp_path / "bad.json", doc)
    assert main(["order-detect", "--data", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and named in captured.err


def test_malformed_pairs_in_model_and_realization_files_are_input_errors(tmp_path, source_2d, capsys):
    data_path = _write_json(tmp_path / "d.json", source_to_dict(source_2d.densify()))
    model_path = tmp_path / "m.json"
    real_path = tmp_path / "r.json"
    main(["fit", "--data", data_path, "--degrees", "2,1", "--out", str(model_path)])
    main(["realize", "--model", str(model_path), "--split", "s|t", "--out", str(real_path)])
    capsys.readouterr()

    model = json.loads(model_path.read_text())
    model["c"][1] = ["1", 0]
    bad_model = _write_json(tmp_path / "bad_model.json", model)
    assert main(["eval", "--model", bad_model, "--point", "1,-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "c entry 1" in captured.err

    edits = (
        (lambda doc: doc["A_lag"][0].__setitem__(2, 5), "A_lag row 0 entry 2"),
        (lambda doc: doc["companions"][1].__setitem__("q", [1, 2]), "q of companion 't' entry 0"),
        (lambda doc: doc["C"].__setitem__(0, [None, 0]), "C entry 0"),
    )
    for number, (edit, named) in enumerate(edits):
        doc = json.loads(real_path.read_text())
        edit(doc)
        edited = _write_json(tmp_path / f"edited{number}.json", doc)
        code = main(
            ["verify", "--model", str(model_path), "--data", data_path, "--realization", edited]
        )
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: ") and named in captured.err


@pytest.mark.parametrize(
    "kind, edit, named",
    [
        ("model", lambda doc: [doc], "model document must be a JSON object"),
        ("model", lambda doc: {**doc, "support": 5}, "support must be a JSON list"),
        ("model", lambda doc: {**doc, "variables": 5}, "variables must be a JSON list"),
        (
            "model",
            lambda doc: {**doc, "support": [doc["support"][0], []], "c": [], "w": []},
            "support points of variable 1 are empty",
        ),
        ("realization", lambda doc: {**doc, "companions": 5}, "companions must be a JSON list"),
        (
            "realization",
            lambda doc: {**doc, "companions": [5, *doc["companions"][1:]]},
            "companions entry 0 must be a JSON object",
        ),
        ("realization", lambda doc: {**doc, "A_lag": 5}, "A_lag must be a JSON list"),
        ("realization", lambda doc: {**doc, "B_lag": 5}, "B_lag must be a JSON list"),
        ("realization", lambda doc: {**doc, "split": 5}, "split must be a JSON object"),
        (
            "realization",
            lambda doc: {**doc, "companions": [doc["companions"][0], {"name": "t", "points": [], "q": []}]},
            "companion 't' needs distinct points, at least one",
        ),
        ("data", lambda doc: {**doc, "variables": 5}, "variables must be a JSON list"),
        ("data", lambda doc: {**doc, "expression": 5}, "expression must be a JSON string"),
        (
            "data",
            lambda doc: {**doc, "variables": [5, *doc["variables"][1:]]},
            "variables entry 0 must be a JSON object",
        ),
    ],
)
def test_json_containers_of_the_wrong_type_are_input_errors(tmp_path, source_2d, capsys, kind, edit, named):
    paths = {kind: tmp_path / f"{kind}.json" for kind in ("data", "model", "realization")}
    paths["data"].write_text(json.dumps(source_to_dict(source_2d.densify())))
    main(["fit", "--data", str(paths["data"]), "--degrees", "2,1", "--out", str(paths["model"])])
    main(["realize", "--model", str(paths["model"]), "--split", "s|t", "--out", str(paths["realization"])])
    capsys.readouterr()

    paths[kind].write_text(json.dumps(edit(json.loads(paths[kind].read_text()))))
    argv = {
        "data": ["order-detect", "--data", str(paths["data"])],
        "model": ["eval", "--model", str(paths["model"]), "--point", "1,-1"],
        "realization": [
            "verify", "--model", str(paths["model"]), "--data", str(paths["data"]),
            "--realization", str(paths["realization"]),
        ],
    }[kind]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ") and named in captured.err


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_array_overflow_in_the_oracle_is_an_input_error(tmp_path, capsys):
    doc = {
        "variables": [
            {"name": "s", "lambda": [[1, 0], [2, 0], [3, 0]], "mu": [[4, 0], [5, 0], [1e200, 0]]},
            {"name": "t", "lambda": [[1, 0], [2, 0]], "mu": [[3, 0], [4, 0]]},
        ],
        "expression": "s^3*t",
    }
    path = _write_json(tmp_path / "overflow.json", doc)
    assert main(["order-detect", "--data", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "non-finite" in captured.err


# c = 1e308 twice: the sums overflow to inf - inf = NaN off the support
NAN_MODEL = {"variables": ["s"], "support": [[[0, 0], [1, 0]]], "c": [[1e308, 0], [1e308, 0]], "w": [[1, 0], [1, 0]]}
FLAT_ORACLE = {
    "variables": [{"name": "s", "lambda": [[0, 0], [1, 0]], "mu": [[0.5, 0], [2, 0]]}],
    "expression": "1+0*s",
}


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_verify_reports_a_sweep_value_lost_to_overflow(tmp_path, capsys):
    model = _write_json(tmp_path / "model.json", NAN_MODEL)
    oracle = _write_json(tmp_path / "oracle.json", FLAT_ORACLE)
    assert main(["verify", "--model", model, "--oracle", oracle]) == 4
    sweep = json.loads(capsys.readouterr().out)["checks"]["sweep"]
    assert sweep["max_error"] == np.inf and sweep["argmax"] == [[0.5, 0.0]] and not sweep["ok"]


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_eval_of_a_value_lost_to_overflow_is_degenerate(tmp_path, capsys):
    model = _write_json(tmp_path / "model.json", NAN_MODEL)
    assert main(["eval", "--model", model, "--point", "0.25"]) == 4
    captured = capsys.readouterr()
    assert captured.out == "" and "not finite" in captured.err


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_eval_at_a_pole_is_degenerate(tmp_path, capsys):
    # D(0.5) = 1/0.5 + 1/(0.5 - 1) = 0
    pole = {"variables": ["s"], "support": [[[0, 0], [1, 0]]], "c": [[1, 0], [1, 0]], "w": [[1, 0], [2, 0]]}
    model = _write_json(tmp_path / "model.json", pole)
    assert main(["eval", "--model", model, "--point", "0.5"]) == 4
    captured = capsys.readouterr()
    assert captured.out == "" and "denominator vanishes" in captured.err


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_plot_data_of_a_value_lost_to_overflow_is_degenerate(tmp_path, capsys):
    model = _write_json(tmp_path / "model.json", NAN_MODEL)
    csv_path = tmp_path / "sweep.csv"
    for out in ([], ["--out", str(csv_path)]):
        assert main(["plot-data", "--model", model, "--sweep", "s=0.2:0.4:3", *out]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "nan+nani at s=0.2 is not a number" in captured.err
    assert not csv_path.exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_verify_realization_fails_on_a_value_lost_to_overflow(tmp_path, capsys):
    model = _write_json(tmp_path / "model.json", NAN_MODEL)
    oracle = _write_json(tmp_path / "oracle.json", FLAT_ORACLE)
    realization = str(tmp_path / "real.json")
    assert main(["realize", "--model", model, "--out", realization]) == 0
    capsys.readouterr()
    argv = ["verify", "--model", model, "--oracle", oracle, "--realization", realization]
    assert main(argv) == 4
    out = capsys.readouterr().out
    assert '"max_relative_mismatch": Infinity' in out
    assert json.loads(out)["checks"]["realization"]["ok"] is False


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_overflowing_numerator_weights_are_an_input_error(tmp_path, capsys):
    doc = dict(NAN_MODEL, c=[[1e308, 0], [1, 0]], w=[[10, 0], [1, 0]])
    model = _write_json(tmp_path / "model.json", doc)
    assert main(["eval", "--model", model, "--point", "0.25"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "c * w are not finite" in captured.err


def _four_variable_oracle(tmp_path):
    """18 points per variable: 18**4 = 104,976 union tuples, past the full-sweep cap."""
    doc = {
        "variables": [
            {
                "name": v,
                "lambda": [[x, 0] for x in np.linspace(0.1, 1.0, 9)],
                "mu": [[x, 0] for x in np.linspace(0.15, 1.05, 9)],
            }
            for v in "abcd"
        ],
        "expression": "(1+a*b*c*d)/(3+a+b-c*d)",
    }
    return _write_json(tmp_path / "oracle.json", doc)


def test_fit_adaptive_samples_a_grid_above_the_full_sweep_threshold(tmp_path, capsys):
    """18**4 = 104,976 union tuples: every sweep samples, and the model still verifies."""
    oracle = _four_variable_oracle(tmp_path)
    model, log_path = str(tmp_path / "model.json"), tmp_path / "log.json"
    argv = ["fit-adaptive", "--oracle", oracle, "--tol", "1e-8", "--out", model]
    assert main([*argv, "--log", str(log_path)]) == 0
    log = json.loads(log_path.read_text())
    assert log["converged"] is True and log["sampled"] is True
    capsys.readouterr()
    assert main(["verify", "--model", model, "--oracle", oracle]) == 0
    assert json.loads(capsys.readouterr().out)["checks"]["sweep"]["sampled"] is True


# 4**32 union tuples: the count wraps to 0 in 64-bit integers
WIDE_GRIDS = [
    {"name": f"x{l + 1}", "lambda": [[1, 0], [2, 0]], "mu": [[1.5, 0], [2.5, 0]]} for l in range(32)
]


def test_verify_samples_a_grid_whose_tuple_count_wraps(tmp_path, capsys, monkeypatch):
    def full_sweep(*args):
        raise AssertionError("a grid of 4**32 tuples must not be swept whole")

    monkeypatch.setattr("mvloewner.model._eval_on_grid", full_sweep)
    oracle = _write_json(tmp_path / "oracle.json", {"variables": WIDE_GRIDS, "expression": "1+0*x1"})
    one_support = {
        "variables": [g["name"] for g in WIDE_GRIDS],
        "support": [[[1, 0]] for _ in WIDE_GRIDS],
        "c": [[1, 0]],
        "w": [[1, 0]],
    }
    model = _write_json(tmp_path / "model.json", one_support)
    assert main(["verify", "--model", model, "--oracle", oracle]) == 0
    report = json.loads(capsys.readouterr().out)
    sweep = report["checks"]["sweep"]
    assert sweep["sampled"] is True and sweep["ok"] is True
    # 3**32 Loewner rows: sampled like the sweep, never swept whole
    rows = report["checks"]["loewner_rows"]
    assert rows["sampled"] is True and rows["ok"] is True
    assert report["ok"] is True


def test_loewner_rows_catch_a_perturbed_weight_where_the_sweep_samples(tmp_path, capsys):
    """Two supports per variable leave 16**4 = 65,536 Loewner rows, all of them checked."""
    oracle = _four_variable_oracle(tmp_path)
    model_path = tmp_path / "model.json"
    assert main(["fit", "--oracle", oracle, "--degrees", "1,1,1,1", "--out", str(model_path)]) == 0
    capsys.readouterr()
    assert main(["verify", "--model", str(model_path), "--oracle", oracle]) == 0
    checks = json.loads(capsys.readouterr().out)["checks"]
    assert checks["sweep"]["sampled"] is True
    assert checks["loewner_rows"]["sampled"] is False and checks["loewner_rows"]["ok"] is True

    doc = json.loads(model_path.read_text())
    doc["c"][0] = [1.001 * part for part in doc["c"][0]]
    perturbed = _write_json(tmp_path / "perturbed.json", doc)
    assert main(["verify", "--model", perturbed, "--oracle", oracle]) == 4
    report = json.loads(capsys.readouterr().out)
    rows = report["checks"]["loewner_rows"]
    assert report["ok"] is False
    assert rows["sampled"] is False and rows["ok"] is False and rows["max_error"] > 1e-8


def test_a_model_on_every_union_point_has_no_loewner_rows(tmp_path, capsys):
    grids = [
        {"name": "s", "lambda": [[1, 0], [3, 0]], "mu": [[2, 0]]},
        {"name": "t", "lambda": [[-1, 0]], "mu": [[-2, 0], [-3, 0]]},
    ]
    oracle = _write_json(tmp_path / "oracle.json", {"variables": grids, "expression": "(s+t)/(s*t-3)"})
    source = load_source(oracle)
    union = [g.union_points for g in source.grids]
    values = source.values_on_product(union).reshape(-1)
    doc = {
        "variables": ["s", "t"],
        "support": [[[p.real, p.imag] for p in points] for points in union],
        "c": [[1.0 + 0.1 * j, 0.0] for j in range(values.size)],
        "w": [[v.real, v.imag] for v in values],
    }
    model = _write_json(tmp_path / "model.json", doc)
    assert main(["verify", "--model", model, "--oracle", oracle]) == 0
    report = json.loads(capsys.readouterr().out)
    rows = report["checks"]["loewner_rows"]
    assert rows == {"max_error": 0.0, "argmax": [], "sampled": False, "ok": True}
    assert report["ok"] is True


def test_verify_refuses_supports_off_the_data_grid(tmp_path, capsys):
    oracle = _write_json(tmp_path / "oracle.json", FLAT_ORACLE)
    off_grid = {"variables": ["s"], "support": [[[0, 0], [0.75, 0]]], "c": [[1, 0], [1, 0]], "w": [[1, 0], [1, 0]]}
    model = _write_json(tmp_path / "model.json", off_grid)
    assert main(["verify", "--model", model, "--oracle", oracle]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "0.75" in captured.err and "'s'" in captured.err


def test_a_dense_value_count_is_checked_without_wrapping(tmp_path, capsys):
    data = _write_json(tmp_path / "dense.json", {"variables": WIDE_GRIDS, "values": []})
    assert main(["order-detect", "--data", data]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "value list has 0 entries, expected 18446744073709551616" in captured.err


def test_data_and_oracle_are_one_input_option(oracle_2d_file, tmp_path, capsys):
    written = []
    for flag in ("--data", "--oracle"):
        out = tmp_path / f"model{flag}.json"
        assert main(["fit", flag, oracle_2d_file, "--out", str(out)]) == 0
        written.append(out.read_bytes())
    assert written[0] == written[1]
    capsys.readouterr()
    model = str(tmp_path / "model--data.json")
    for argv in (
        ["fit", "--out", str(tmp_path / "m.json")],
        ["fit-adaptive", "--tol", "1e-6", "--out", str(tmp_path / "m.json")],
        ["verify", "--model", model],
    ):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2
        assert "--data/--oracle" in capsys.readouterr().err
    assert not (tmp_path / "m.json").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["plot-data", "--sweep", "s=0:1:100000000000", "--frozen", "t=0.5"],
        ["order-detect", "--budget", "100000000000"],
        ["fit", "--budget", "100000000000"],
    ],
)
def test_huge_sizes_are_refused_before_allocating(oracle_2d_file, tmp_path, capsys, argv):
    if argv[0] == "plot-data":
        model = make_model([[0, 2], [1, 3]], np.ones(4), np.arange(4.0), names=["s", "t"])
        argv = [*argv, "--model", _write_json(tmp_path / "m.json", model_to_dict(model))]
    else:
        argv = [*argv, "--data", oracle_2d_file]
        if argv[0] == "fit":
            argv += ["--out", str(tmp_path / "m.json")]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "refusing" in captured.err and len(captured.err.splitlines()) == 1


@pytest.mark.parametrize(
    "command, tol",
    [
        ("order-detect", "nan"),
        ("order-detect", "-1"),
        ("order-detect", "0"),
        ("fit-adaptive", "nan"),
        ("fit-adaptive", "-1"),
        ("verify", "nan"),
        ("verify", "-1"),
    ],
)
def test_a_tolerance_that_is_not_a_positive_number_is_an_input_error(
    oracle_2d_file, tmp_path, capsys, command, tol
):
    model_path = str(tmp_path / "m.json")
    assert main(["fit", "--data", oracle_2d_file, "--out", model_path]) == 0
    capsys.readouterr()
    argv = [command, "--data", oracle_2d_file, "--tol", tol]
    if command == "fit-adaptive":
        argv += ["--out", str(tmp_path / "adaptive.json")]
    elif command == "verify":
        argv += ["--model", model_path]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "tolerance" in captured.err and len(captured.err.splitlines()) == 1
    assert not (tmp_path / "adaptive.json").exists()


def test_plot_data_refuses_an_unknown_frozen_variable(tmp_path, capsys):
    model = make_model([[0, 2], [1, 3]], np.ones(4), np.arange(4.0), names=["s", "t"])
    path = _write_json(tmp_path / "m.json", model_to_dict(model))
    assert main(["plot-data", "--model", path, "--sweep", "s=0:1:3", "--frozen", "t=0.5,T=2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unknown frozen variable 'T'" in captured.err


@pytest.mark.parametrize("command", ["order-detect", "fit", "fit-adaptive", "verify"])
def test_a_repeated_grid_point_is_an_input_error(tmp_path, capsys, command):
    # with the repeated column 0.1, order-detect used to print degree 2, not saturated
    doc = {
        "variables": [
            {
                "name": "s",
                "lambda": [[0.1, 0], [0.1, 0], [0.9, 0]],
                "mu": [[0.2, 0], [0.4, 0], [0.6, 0], [0.8, 0]],
            }
        ],
        "expression": "(s^3+2)/(s^2+s+3)",
    }
    data = _write_json(tmp_path / "repeated.json", doc)
    argv = [command, "--data", data]
    if command == "fit":
        argv += ["--out", str(tmp_path / "m.json")]
    elif command == "fit-adaptive":
        argv += ["--out", str(tmp_path / "m.json"), "--tol", "1e-6"]
    elif command == "verify":
        model = make_model([[0.1, 0.9]], np.ones(2), np.ones(2), names=["s"])
        argv += ["--model", _write_json(tmp_path / "model.json", model_to_dict(model))]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "variable 's' repeats the grid point (0.1+0j)" in captured.err
    assert not (tmp_path / "m.json").exists()
    if command == "order-detect":
        # the same points once each: degree 3, and the probe is saturated
        doc["variables"][0]["lambda"][1] = [0.5, 0]
        assert main(["order-detect", "--data", _write_json(tmp_path / "distinct.json", doc)]) == 0
        assert json.loads(capsys.readouterr().out) == {"degrees": [3], "saturated": ["s"]}


@pytest.mark.parametrize("command", ["order-detect", "fit"])
def test_a_negative_budget_is_an_input_error(oracle_2d_file, tmp_path, capsys, command):
    argv = [command, "--data", oracle_2d_file, "--budget", "-3"]
    if command == "fit":
        argv += ["--out", str(tmp_path / "m.json")]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "sample budget must be a non-negative integer, got -3" in captured.err
    assert not (tmp_path / "m.json").exists()


def test_verify_reads_one_data_scale_for_an_expression_and_its_values(tmp_path, capsys):
    """The verdict is the same whether the data arrive as an expression or as its values."""
    s = np.linspace(0.1, 2, 10)
    grid = {"name": "s", "lambda": [[x, 0] for x in s[0::2]], "mu": [[x, 0] for x in s[1::2]]}
    fitted = _write_json(tmp_path / "fit.json", {"variables": [grid], "expression": "1/(s-2.05)"})
    model = str(tmp_path / "model.json")
    assert main(["fit", "--data", fitted, "--degrees", "1", "--out", model]) == 0
    # a bump of 1e-3 at s = 0.1, where |data| is about 0.51; the largest |sample| is about 20
    bumped = {"variables": [grid], "expression": "1/(s-2.05) + 1e-3/(1+100*(s-0.1)^2)"}
    oracle = _write_json(tmp_path / "oracle.json", bumped)
    dense = _write_json(tmp_path / "dense.json", source_to_dict(load_source(oracle).densify()))
    capsys.readouterr()
    reports = []
    for data in (oracle, dense):
        main(["verify", "--model", model, "--data", data, "--tol", "1e-4"])
        reports.append(json.loads(capsys.readouterr().out))
    for report in reports:
        assert report["checks"]["sweep"]["max_error"] == pytest.approx(1e-3, rel=1e-3)
        assert report["checks"]["sweep"]["argmax"] == [[0.1, 0.0]]
    assert {name: check["ok"] for name, check in reports[0]["checks"].items()} == {
        name: check["ok"] for name, check in reports[1]["checks"].items()
    }
    assert reports[0]["checks"]["sweep"]["ok"] is True


NO_VARIABLES_DATA = {"variables": [], "expression": "1"}
NO_VARIABLES_MODEL = {"variables": [], "support": [], "c": [[1, 0]], "w": [[1, 0]]}


@pytest.mark.parametrize(
    "argv, refused",
    [
        (["order-detect", "--data", "{data}"], "the data file"),
        (["fit", "--data", "{data}", "--out", "{out}"], "the data file"),
        (["fit-adaptive", "--data", "{data}", "--tol", "1e-6", "--out", "{out}"], "the data file"),
        (["verify", "--model", "{model}", "--data", "{data}"], "the data file"),
        (["verify", "--model", "{model}", "--data", "{oracle}"], "the model"),
        (["realize", "--model", "{model}", "--out", "{out}"], "the model"),
        (["eval", "--model", "{model}", "--point", "1"], "the model"),
        (["plot-data", "--model", "{model}", "--sweep", "s=0:1:3"], "the model"),
    ],
)
def test_a_file_with_no_variables_is_an_input_error(oracle_2d_file, tmp_path, capsys, argv, refused):
    paths = {
        "data": _write_json(tmp_path / "none.json", NO_VARIABLES_DATA),
        "model": _write_json(tmp_path / "none_model.json", NO_VARIABLES_MODEL),
        "oracle": oracle_2d_file,
        "out": str(tmp_path / "out.json"),
    }
    assert main([arg.format(**paths) for arg in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {refused} declares no variables\n"
    assert not (tmp_path / "out.json").exists()
