import importlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

from knotalg import PlaneGraph, mod2_laplacian, parse, to_text
from knotalg.bracket import state_sum_bracket
from knotalg.cli import EXIT_CAPACITY, EXIT_CONSISTENCY, EXIT_PARSE, run
from corpus import state_sweep_corpus
from references import dense_rank


def ok(argv):
    result = run(argv)
    assert result.code == 0, result.payload
    return result.payload


def err(argv, code):
    result = run(argv)
    assert result.code == code, (result.code, result.payload)
    return json.loads(result.payload)["error"]


def test_components():
    assert ok(["components", "<<2> <-2>> <2> <-2>"]) == "3"


def test_components_verify():
    payload = ok(["components", "2 <2> <-2>", "--verify", "--format", "json"])
    assert json.loads(payload) == {"expr": "2 <2> <-2>", "components": 2, "verified": True}


def test_eval_payload():
    payload = json.loads(ok(["eval", "<<<<O>O>O>O>O", "--format", "json"]))
    assert payload["class"] == "E"
    assert payload["marks"] == ["o", "m", "u", "o"]
    assert payload["final"] == "u"
    assert payload["components"] == 2


def test_eval_text_contains_trace():
    text = ok(["eval", "<O>O"])
    assert "class: E" in text
    assert "<O>_o O |_u" in text


def test_fraction():
    assert ok(["fraction", "355/113"]) == "knot (O)"
    assert ok(["fraction", "355/22"]) == "knot (V)"
    assert ok(["fraction", "2/1"]) == "link (E)"


def test_cf_and_cfval():
    assert ok(["cf", "355/113"]) == "3,7,16"
    assert ok(["cfval", "16,7,3"]) == "355/22"
    assert json.loads(ok(["cf", "355/113", "--format", "json"])) == [3, 7, 16]


def test_enumerate_json():
    data = json.loads(ok(["enumerate", "7", "--format", "json"]))
    knots = [tuple(entry["parts"]) for entry in data if entry["class"] != "E"]
    links = [tuple(entry["parts"]) for entry in data if entry["class"] == "E"]
    assert len(knots) == 7 and len(links) == 3
    assert (2, 3, 2) in links


def test_bracket():
    assert ok(["bracket", "O O"]) == "-A^4 - A^-4"
    assert json.loads(ok(["bracket", "O O", "--format", "json"])) == [[4, -1], [-4, -1]]


def test_bracket_verify():
    for e in state_sweep_corpus(6)[::9]:
        text = to_text(e)
        assert ok(["bracket", text, "--verify"]) == ok(["bracket", text]) + "  (verified)"
        as_json = ["bracket", text, "--format", "json"]
        assert ok(as_json + ["--verify"]) == ok(as_json)


def test_bracket_verify_disagreement(monkeypatch):
    wrong = state_sum_bracket(parse("O"))
    bracket_module = importlib.import_module("knotalg.bracket")
    monkeypatch.setattr(bracket_module, "state_sum_bracket", lambda e: wrong)
    assert err(["bracket", "O O", "--verify"], EXIT_CONSISTENCY)["kind"] == "consistency"


def test_opacity():
    text = ok(["opacity", "<<<<O>O>O>O>O"])
    assert "components: 2" in text
    assert text.count("opaque") - text.count("transparent") == 1 - 4
    data = json.loads(ok(["opacity", "O", "--format", "json"]))
    assert data["leaves"] == [{"index": 1, "leaf": "O", "status": "transparent"}]


def test_cube():
    data = json.loads(ok(["cube", "O O"]))
    assert data["n"] == 2
    assert len(data["vertices"]) == 4
    assert len(data["edges"]) == 4


def test_cube_deep_nesting():
    data = json.loads(ok(["cube", "<0 " * 450 + "O" + ">" * 450]))
    assert data["n"] == 1
    assert len(data["vertices"]) == 2
    assert len(data["edges"]) == 1


def test_nullity_expression():
    assert ok(["nullity", "<<2> <-2>> <2> <-2>"]) == "3"


def test_nullity_graph_file(tmp_path):
    path = tmp_path / "graph.json"
    path.write_text(json.dumps({"nodes": 3, "edges": [[0, 1], [1, 2], [2, 0]]}))
    assert ok(["nullity", "--graph", str(path)]) == "1"


def test_parse_error_exit_code():
    error = err(["components", "<O"], EXIT_PARSE)
    assert error["kind"] == "parse"
    assert "offset" in error


def test_input_error_exit_code():
    assert err(["cfval", "1,spam"], EXIT_PARSE)["kind"] == "input"
    assert err(["fraction", "0/1"], EXIT_PARSE)["kind"] == "input"
    assert err(["nullity"], EXIT_PARSE)["kind"] == "input"


def test_capacity_exit_code(monkeypatch):
    monkeypatch.setenv("KNOTALG_MAX_CROSSINGS", "4")
    assert err(["bracket", "6"], EXIT_CAPACITY)["kind"] == "capacity"
    assert err(["cube", "6"], EXIT_CAPACITY)["kind"] == "capacity"
    assert err(["enumerate", "6"], EXIT_CAPACITY)["kind"] == "capacity"


def test_deep_nesting_is_over_capacity(python_child):
    for argv in (
        ["components", "[" + ",".join(["1"] * 600) + "]"],
        ["eval", "<0 " * 600 + "O" + ">" * 600],
    ):
        child = python_child("-m", "knotalg", *argv)
        assert child.returncode == EXIT_CAPACITY, child.stderr
        assert "Traceback" not in child.stderr
        assert json.loads(child.stderr)["error"]["kind"] == "capacity"


def test_memory_error_is_over_capacity(monkeypatch):
    def exhausted(f):
        raise MemoryError

    monkeypatch.setattr(importlib.import_module("knotalg.rational"), "classify_fraction", exhausted)
    assert err(["fraction", "3/5"], EXIT_CAPACITY)["kind"] == "capacity"


def test_closed_pipe_prints_no_traceback():
    # The JSON table for 14 crossings is larger than a pipe buffer, so the
    # writer is still printing when the reader goes away.
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    child = subprocess.Popen(
        [sys.executable, "-m", "knotalg", "enumerate", "14", "--format", "json"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    assert child.stdout.readline() == b"[\n"
    child.stdout.close()
    stderr = child.stderr.read()
    assert child.wait() == 0, stderr
    assert b"Traceback" not in stderr and b"BrokenPipeError" not in stderr


def test_missing_graph_file():
    assert err(["nullity", "--graph", "/nonexistent.json"], EXIT_PARSE)["kind"] == "input"


def test_verify_never_disagrees_on_corpus():
    from knotalg import to_text
    from corpus import component_corpus

    for e in component_corpus()[::5]:
        result = run(["components", to_text(e), "--verify"])
        assert result.code == 0, result.payload


def test_nullity_graph_file_at_scale(tmp_path):
    rng = random.Random(3000)
    n = 3000
    edges = [[rng.randrange(n), rng.randrange(n)] for _ in range(3 * n // 2)]
    path = tmp_path / "graph.json"
    path.write_text(json.dumps({"nodes": n, "edges": edges}))
    m = mod2_laplacian(PlaneGraph(n, tuple(map(tuple, edges))))
    assert ok(["nullity", "--graph", str(path)]) == str(n - dense_rank(m.rows, n))
