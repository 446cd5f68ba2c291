"""Mutated input files and option strings exit with a documented code.

A valid data file, oracle file, model and realization are mutated (a
container swapped for another type, a list grown or cut, a number turned
into a string, a non-finite pair, a key dropped) and every subcommand
that reads the mutated file runs in-process.  Option strings for
``--order``, ``--degrees``, ``--point``, ``--sweep`` and ``--frozen`` are
fuzzed against valid files the same way.  ``main`` must return 0, 2, 3
or 4 and raise nothing, with numpy's runtime warnings as errors.
"""

import copy
import json
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mvloewner import (
    FitOptions,
    build_realization,
    fit_direct,
    model_to_dict,
    realization_to_dict,
    source_to_dict,
)
from mvloewner.cli import main

EXIT_CODES = {0, 2, 3, 4}
CLAMPED = "ignore:variable .* clamping to:UserWarning"  # fit's documented degree clamp
SETTINGS = settings(max_examples=50, deadline=None)


@pytest.fixture(scope="module")
def documents(source_2d):
    result = fit_direct(source_2d, FitOptions(degrees=(2, 1)))
    return {
        "data": source_to_dict(source_2d.densify()),
        "oracle": source_to_dict(source_2d),
        "model": model_to_dict(result.model),
        "realization": realization_to_dict(build_realization(result.model, (0,))),
    }


@pytest.fixture(scope="module")
def folder(tmp_path_factory, documents):
    """The valid documents on disk, and a path for each command's output."""
    root = tmp_path_factory.mktemp("fuzz")
    for kind, document in documents.items():
        (root / f"{kind}.json").write_text(json.dumps(document))
    return root


def _paths(node, prefix=()):
    """Every path of keys and list indices into a JSON document."""
    yield prefix
    if isinstance(node, dict):
        children = node.items()
    else:
        children = enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield from _paths(child, (*prefix, key))


def _replacement(kind, node, choice):
    if kind == "swap":
        return [5, "x", None, True, {}, [], {"a": [1, 0]}, [[1, 0]], 2.5][choice % 9]
    if kind == "string":
        return json.dumps(node)
    if kind == "nonfinite":
        return [[math.nan, 0.0], [math.inf, 0.0], [0.0, -math.inf], math.nan][choice % 4]
    if isinstance(node, list):  # "length"
        return [*node, *node[-1:]] if choice % 3 == 0 else node[: choice % 3 - 1]
    return node


@st.composite
def mutated(draw, documents):
    """A document kind and a copy of it with one to three mutations."""
    kind = draw(st.sampled_from(sorted(documents)))
    document = copy.deepcopy(documents[kind])
    for _ in range(draw(st.integers(1, 3))):
        paths = [p for p in _paths(document) if p]
        if not paths:
            break
        *parent_path, key = draw(st.sampled_from(paths))
        parent = document
        for step in parent_path:
            parent = parent[step]
        change = draw(st.sampled_from(["drop", "swap", "string", "nonfinite", "length"]))
        if change == "drop":
            del parent[key]
        else:
            parent[key] = _replacement(change, parent[key], draw(st.integers(0, 35)))
    return kind, document


def _run(argv):
    code = main(argv)
    assert code in EXIT_CODES, (argv, code)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.filterwarnings(CLAMPED)
@SETTINGS
@given(data=st.data())
def test_mutated_documents_exit_with_a_documented_code(documents, folder, data):
    kind, document = data.draw(mutated(documents))
    path = folder / f"mutated-{kind}.json"
    path.write_text(json.dumps(document))
    out = str(folder / "out.json")
    valid = {name: str(folder / f"{name}.json") for name in documents}
    path = str(path)
    if kind in ("data", "oracle"):
        flag = f"--{kind}"
        runs = [
            ["order-detect", "--data", path],
            ["fit", flag, path, "--out", out],
            ["fit", flag, path, "--degrees", "2,1", "--method", "full", "--out", out],
            ["fit-adaptive", flag, path, "--tol", "1e-6", "--out", out],
            ["verify", "--model", valid["model"], flag, path],
        ]
    elif kind == "model":
        runs = [
            ["eval", "--model", path, "--point", "1.5,-2.5"],
            ["eval", "--model", path, "--point", "1,-1"],
            ["realize", "--model", path, "--split", "auto", "--out", out],
            ["verify", "--model", path, "--data", valid["data"], "--realization", valid["realization"]],
            ["plot-data", "--model", path, "--sweep", "s=0:2:5", "--frozen", "t=0.5"],
        ]
    else:
        runs = [
            ["verify", "--model", valid["model"], "--data", valid["data"], "--realization", path]
        ]
    for argv in runs:
        _run(argv)


OPTION_TEXT = st.one_of(
    st.text(alphabet="0123456789,.-+eEijnaftsp:= ", max_size=12),
    st.lists(st.integers(-3, 6), max_size=4).map(lambda xs: ",".join(map(str, xs))),
    st.sampled_from(["s,t", "t,s", "s", "s,s", "nan,1", "1,inf", "1e400,0", "2+1j,-1"]),
)
SWEEP_TEXT = st.builds(
    "{}={}:{}:{}".format,
    st.sampled_from(["s", "t", "u", ""]),
    st.sampled_from(["0", "-1", "nan", "inf", "x", "1e400"]),
    st.sampled_from(["2", "0", "-inf", ""]),
    st.one_of(st.integers(-2, 40).map(str), st.text(alphabet="0123456789.e-", max_size=3)),
)
COMMANDS = {
    "fit --order": lambda f, text: ["fit", "--oracle", f["oracle"], f"--order={text}"],
    "fit --method full --order": lambda f, text: [
        "fit", "--oracle", f["oracle"], "--method", "full", f"--order={text}",
    ],
    "fit --degrees": lambda f, text: ["fit", "--oracle", f["oracle"], f"--degrees={text}"],
    "flops --order": lambda f, text: ["flops", "--degrees", "1,2", f"--order={text}"],
    "flops --degrees": lambda f, text: ["flops", f"--degrees={text}"],
    "eval --point": lambda f, text: ["eval", "--model", f["model"], f"--point={text}"],
    "plot-data --frozen": lambda f, text: [
        "plot-data", "--model", f["model"], "--sweep", "s=0:2:5", f"--frozen={text}",
    ],
}


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.filterwarnings(CLAMPED)
@SETTINGS
@given(command=st.sampled_from(sorted(COMMANDS)), text=OPTION_TEXT, sweep=SWEEP_TEXT)
@example(command="fit --method full --order", text="1,1", sweep="s=0:2:5")
@example(command="fit --order", text="0,1", sweep="s=0:2:5")
@example(command="fit --order", text="1", sweep="s=0:2:5")
@example(command="flops --order", text="5,1", sweep="s=0:2:5")
@example(command="fit --degrees", text="2,1,5", sweep="s=0:2:5")
@example(command="fit --degrees", text="1", sweep="s=0:2:5")
def test_option_strings_exit_with_a_documented_code(documents, folder, command, text, sweep):
    files = {name: str(folder / f"{name}.json") for name in documents}
    argv = COMMANDS[command](files, text)
    if argv[0] == "fit":
        argv += ["--out", str(folder / "out.json")]
    _run(argv)
    _run(["plot-data", "--model", files["model"], f"--sweep={sweep}", "--frozen", "t=0.5"])
