"""The CLI contract, tested generatively: ``main`` runs in process on small
generated CSVs and flags, many of them malformed.

Whatever the input, a run exits 0, 2, 3 or 4. A failing run prints exactly
one line, ``error: <code>: <message>``, and raises no Python warning (which
a real process would print as more stderr lines). After a successful
``fit``, ``predict`` on the same input reproduces ``predictions.csv``; on
a fitted ``tree.json`` with wrongly typed, missing, repeated or
out-of-domain fields, or another family, it exits 0 with finite
predictions or 2.
"""

import contextlib
import copy
import csv
import io
import json
import math
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from copulatree.cli import EXIT_CONFIG, EXIT_FIT, EXIT_OK, EXIT_SCHEMA, main

ERROR_CODES = {EXIT_SCHEMA: ("schema",), EXIT_FIT: ("fit", "internal"), EXIT_CONFIG: ("config",)}

HEADER = ["y_a", "y_b", "x_g:cat", "x_z:num"]
CELLS = ["", "nan", "inf", "-inf", "abc", "1e400", "-0", " 1", "1_0", "0x10", "é", '"', "1,2", "a\nb"]
HEADERS = ["y_a", "y_c", "x_g:cat", "x_g:num", "x_z:num", "x_z", "x_w:bad", "x_:cat", "x_y:cat", "", "z"]

# negative, zero, small, huge and non-numeric flag values; --repeats takes no
# huge value, because its work grows linearly with it
SMALL = ["-3", "-1", "0", "1", "2", "5", "nan", "inf", "-inf", "abc", "", "1.5"]
HUGE = ["1e308", "99999999999999999999"]
FLAGS = {
    "--min-leaf": SMALL + HUGE,
    "--folds": SMALL + HUGE,
    "--repeats": SMALL,
    "--max-candidates": SMALL + HUGE,
    "--min-gain": SMALL + HUGE,
    "--seed": SMALL + HUGE,
    "--bandwidth": SMALL + HUGE + ["1e-300"],
    "--margin-min-leaf": SMALL + HUGE,
    "--family": ["clayton", "frank", "gumbel", "normal", ""],
    "--pseudo": ["empirical", "kernel", "normal", "discrete", "margin-tree", "ranks"],
    "--rule": ["OneSE", "MaxMean", "onese"],
    "--design": ["z", "g", "z,z", "w", ""],
}


def clean_rows(seed: int, n: int) -> list[list[str]]:
    """``n`` rows of the fit schema whose dependence moves with the covariates."""
    rng = np.random.default_rng(seed)
    g = rng.integers(0, 3, n)
    z = rng.random(n)
    common = rng.normal(size=n)
    y = np.column_stack([common, common * (g + z)]) + rng.normal(size=(n, 2))
    return [[repr(float(a)), repr(float(b)), "abc"[k], repr(float(x))] for (a, b), k, x in zip(y, g, z)]


@st.composite
def csv_bytes(draw) -> bytes:
    """A fit CSV with up to three mutations of cells, headers, row lengths or bytes."""
    n = draw(st.integers(40, 80) | st.integers(0, 39))
    rows = [list(HEADER)] + clean_rows(draw(st.integers(0, 2**16)), n)
    byte_edits = []
    for kind in draw(st.lists(st.sampled_from(["cell", "header", "length", "bytes"]), max_size=3)):
        if kind == "header":
            rows[0][draw(st.integers(0, len(HEADER) - 1))] = draw(st.sampled_from(HEADERS))
        elif kind == "bytes":
            byte_edits.append((draw(st.floats(0.0, 1.0)), draw(st.binary(min_size=1, max_size=3))))
        elif len(rows) > 1:
            row = rows[draw(st.integers(1, len(rows) - 1))]
            if kind == "cell":
                row[draw(st.integers(0, len(row) - 1))] = draw(st.sampled_from(CELLS))
            elif draw(st.booleans()):
                row.pop()
            else:
                row.append("1")
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    data = buf.getvalue().encode()
    for where, insert in byte_edits:
        at = int(where * len(data))
        data = data[:at] + insert + data[at:]
    return data


flag_values = st.lists(st.sampled_from(sorted(FLAGS)), max_size=3, unique=True).flatmap(
    lambda names: st.tuples(*[st.tuples(st.just(name), st.sampled_from(FLAGS[name])) for name in names]))


def run(argv) -> tuple[int, list[str]]:
    """Exit code and stderr lines of one in-process CLI call."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err), warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main([str(a) for a in argv])
    return rc, err.getvalue().splitlines()


@given(data=csv_bytes(), flags=flag_values)
@settings(max_examples=150)
def test_fit_and_predict_keep_the_contract(data, flags):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "in.csv").write_bytes(data)
        argv = ["fit", "--input", tmp / "in.csv", "--out", tmp / "o", "--family", "clayton", "--seed", "1",
                "--repeats", "1", "--folds", "2", "--min-leaf", "10"]
        rc, err = run(argv + [f"{name}={value}" for name, value in flags])
        assert rc in (EXIT_OK, EXIT_SCHEMA, EXIT_FIT, EXIT_CONFIG)
        if rc != EXIT_OK:
            assert len(err) == 1 and err[0].startswith("error: "), err
            assert err[0].split(": ")[1] in ERROR_CODES[rc], err
            return
        assert all(line.startswith("warning: pseudo: ") for line in err), err
        rc, err = run(["predict", "--tree", tmp / "o" / "tree.json", "--input", tmp / "in.csv",
                       "--out", tmp / "p.csv"])
        assert (rc, err) == (EXIT_OK, [])
        assert (tmp / "p.csv").read_bytes() == (tmp / "o" / "predictions.csv").read_bytes()


# the fields of a tree document's nodes, rules and covariates, and every JSON
# type: list, object, bool, float (NaN, infinities and a theta outside
# Clayton's domain too), string, null, and integers that no float or no
# int64 holds
FIELDS = ["id", "left", "right", "feature", "n", "theta", "tau", "loglik", "rule", "kind", "threshold",
          "left_levels", "name", "levels"]
JSON_VALUES = st.one_of(st.lists(st.integers(0, 3), max_size=2), st.dictionaries(st.sampled_from(["a", "id"]),
                        st.integers(0, 3), max_size=1), st.booleans(), st.floats(), st.text(max_size=2), st.none(),
                        st.sampled_from([10**400, 2**63, math.nan, math.inf, -math.inf, -7.0]))


@pytest.fixture(scope="module")
def fitted(tmp_path_factory):
    """A fit CSV and the tree document that ``fit`` wrote for it, which has
    numeric and categorical rules."""
    tmp = tmp_path_factory.mktemp("fitted")
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows([HEADER] + clean_rows(3, 200))
    (tmp / "in.csv").write_text(buf.getvalue())
    argv = ["fit", "--input", tmp / "in.csv", "--out", tmp / "o", "--family", "clayton", "--seed", "1",
            "--repeats", "1", "--folds", "2", "--min-leaf", "10", "--rule", "MaxMean"]
    assert run(argv)[0] == EXIT_OK
    doc = json.loads((tmp / "o" / "tree.json").read_text())
    assert {e["rule"]["kind"] for e in doc["nodes"] if "rule" in e} == {"cat", "num"}
    return tmp, doc


@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_predict_keeps_the_contract_on_edited_tree_documents(fitted, data):
    """Up to three edits of a node's, rule's or covariate's fields: one takes
    another JSON type, is dropped, or a node takes another node's id; a
    leaf's number takes a value no fit writes; or the document names another
    family."""
    tmp, doc = fitted
    doc = copy.deepcopy(doc)
    kinds = ["number", "replace", "drop", "repeat", "family"]
    for kind in data.draw(st.lists(st.sampled_from(kinds), min_size=1, max_size=3)):
        if kind == "repeat":
            source, target = data.draw(st.lists(st.sampled_from(doc["nodes"]), min_size=2, max_size=2))
            target["id"] = source.get("id")
            continue
        if kind == "number":  # on a leaf, whose theta and tau predict writes
            node = data.draw(st.sampled_from([e for e in doc["nodes"] if "rule" not in e]))
            node[data.draw(st.sampled_from(["n", "theta", "tau", "loglik"]))] = data.draw(
                st.sampled_from([math.nan, math.inf, -math.inf, -7.0, 0]))
            continue
        if kind == "family":
            doc["family"] = data.draw(st.sampled_from(["clayton", "frank", "gumbel"]))
            continue
        key = data.draw(st.sampled_from(FIELDS))
        objs = doc["nodes"] + doc["covariates"] + [e["rule"] for e in doc["nodes"] if isinstance(e.get("rule"), dict)]
        owners = [o for o in objs if key in o]
        if not owners:
            continue
        obj = data.draw(st.sampled_from(owners))
        if kind == "drop":
            del obj[key]
        else:
            obj[key] = data.draw(JSON_VALUES)
    (tmp / "edited.json").write_text(json.dumps(doc))
    rc, err = run(["predict", "--tree", tmp / "edited.json", "--input", tmp / "in.csv", "--out", tmp / "p.csv"])
    assert rc in (EXIT_OK, EXIT_SCHEMA)
    if rc == EXIT_SCHEMA:
        assert len(err) == 1 and err[0].startswith("error: schema: "), err
    else:
        assert err == []
        with open(tmp / "p.csv") as fh:
            assert all(math.isfinite(float(v)) for row in list(csv.reader(fh))[1:] for v in row[2:])
