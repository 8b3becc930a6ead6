"""End-to-end CLI behaviour: output shapes, exit codes, determinism."""

from __future__ import annotations

import hashlib
import io
import json
import random
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coxcert import CoxeterDiagram, cycle_complement, enumerate_by_length, faithfulness_probe, serialize_diagram, words
from coxcert.cli import main
from coxcert.errors import VerificationFailed
from coxcert.exactcore import Poly
from coxcert.gram import minor_polynomials

from _suite import random_connected_diagram

K3_TEXT = "n 3\nedge 1 2\nedge 1 3\nedge 2 3\n"
P3_TEXT = "n 3\nedge 1 2\nedge 2 3\n"


@pytest.fixture
def k3_file(tmp_path):
    path = tmp_path / "k3.diagram"
    path.write_text(K3_TEXT)
    return str(path)


@pytest.fixture
def p3_file(tmp_path):
    path = tmp_path / "p3.diagram"
    path.write_text(P3_TEXT)
    return str(path)


def test_analyze_output(k3_file, capsys):
    assert main(["analyze", k3_file]) == 0
    out = capsys.readouterr().out.splitlines()
    assert "vertices: 3" in out
    assert "edges: 3" in out
    assert any(line.startswith("epsilon: 4095/8192") for line in out)
    assert "D: 1" in out
    assert any(line.startswith("signature at D:") for line in out)


def test_analyze_reads_stdin(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO(P3_TEXT))
    assert main(["analyze", "-"]) == 0
    assert "vertices: 3" in capsys.readouterr().out


def test_missing_file_is_usage_error(capsys):
    assert main(["analyze", "/nonexistent/nowhere.diagram"]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["analyze", "verify"])
def test_undecodable_file_is_usage_error(command, k3_file, tmp_path, capsys):
    path = tmp_path / "binary"
    path.write_bytes(b"n 3\n\xff\n")
    argv = ["analyze", str(path)] if command == "analyze" else ["verify", str(path), k3_file]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "not UTF-8 text" in err


def test_malformed_diagram_is_usage_error(tmp_path, capsys):
    path = tmp_path / "bad.diagram"
    path.write_text("n 3\nedge 1 99\n")
    assert main(["analyze", str(path)]) == 2
    err = capsys.readouterr().err
    assert "line 2" in err


DISCONNECTED_TEXT = "n 4\nedge 1 2\nedge 3 4\n"

# One command line per kind of failure the program can stop with, with its
# exit code and whole stderr: bad input exits 2, a failed check 1.  A case
# whose argv names no file reads the diagram from stdin; `verify` gets K3's
# certificate with thresholds.epsilon replaced by "0/1".
_FAILURE_KINDS = [
    (["analyze", "-"], "n 3\nedge 1 2\nedge 2 x\n", 2, "error: line 3: bad edge endpoints in 'edge 2 x'\n"),
    (["analyze", "-"], "n 3\nedge 1 4\n", 2, "error: line 2: edge (1, 4) outside 1..3\n"),
    (["analyze", "-"], "n 3\nedge 1 2\nedge 1 2\n", 2, "error: line 3: edge (1, 2) listed twice\n"),
    (["analyze", "-"], "n 2\n", 2, "error: line 1: need at least 3 vertices, got 2\n"),
    (["analyze", "-"], "n 33\n", 2, "error: line 1: at most 32 vertices, got 33\n"),
    (["cycle", "--n", "4"], "", 2, "error: cycle complement needs n >= 5, got 4\n"),
    (["embed", "-"], DISCONNECTED_TEXT, 2, "error: the embedding pipeline needs a connected diagram\n"),
    (["density", "-"], DISCONNECTED_TEXT, 2, "error: density certification needs a connected diagram\n"),
    (["embed", "-", "--m", "4"], K3_TEXT, 2, "error: need squarefree 2 <= m <= 1000000, got 4\n"),
    (
        ["words", "-", "--max-len", "999999999"],
        K3_TEXT,
        2,
        "error: radius 999999999 is above the cap of 1000000 ball elements\n",
    ),
    (["density", "-", "--d", "1/2"], K3_TEXT, 1, "failed: the form is singular at t = 1/2\n"),
    (["verify"], K3_TEXT, 1, "failed: |tau(alpha)| exceeds epsilon = 0: alpha lies below 1/epsilon\n"),
]
_FAILURE_IDS = [
    "syntax",
    "edge-outside",
    "duplicate-edge",
    "n-2",
    "n-33",
    "cycle-n-4",
    "embed-disconnected",
    "density-disconnected",
    "embed-m-4",
    "words-huge-radius",
    "density-singular",
    "verify-epsilon-zero",
]


@pytest.mark.parametrize("argv, stdin, code, stderr", _FAILURE_KINDS, ids=_FAILURE_IDS)
def test_each_failure_kind_keeps_its_exit_code_and_message(
    argv, stdin, code, stderr, k3_file, tmp_path, monkeypatch, capsys
):
    if argv == ["verify"]:
        cert = tmp_path / "k3.json"
        main(["embed", k3_file, "--out", str(cert)])
        payload = json.loads(cert.read_text())
        payload["thresholds"]["epsilon"] = "0/1"
        cert.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")
        argv = ["verify", str(cert), k3_file]
    monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    capsys.readouterr()
    assert main(argv) == code
    assert capsys.readouterr().err == stderr


def test_embed_deterministic(k3_file, capsys):
    assert main(["embed", k3_file]) == 0
    first = capsys.readouterr().out
    assert main(["embed", k3_file]) == 0
    second = capsys.readouterr().out
    assert first == second
    payload = json.loads(first)
    assert payload["format"] == "coxcert-embedding/1"
    assert payload["passed"] is True
    assert payload["m"] == 2
    assert payload["thresholds"]["d_value"] == 1
    assert payload["unit"]["pell"] == {"m": 2, "x": "1", "y": "1", "norm": -1}


# sha256 of `embed` stdout with the default --probe-len 4, pinned so that a
# refactor of the pipeline or the rendering cannot change the bytes unseen.
_PINNED_CERTIFICATES = {
    "K3": (K3_TEXT, [], "8f900606b5a3d0a283f5e56bf2ef8b24e8165404978b0f49eeee84ed7c50ab91"),
    "K3-m3": (K3_TEXT, ["--m", "3"], "36d7ff03dc7f323ca70e9def126f2304eeee4fbf2889e3e6fb562a0f86cc3cea"),
    "P3": (P3_TEXT, [], "97c418cc51394882f99d2b4e57d4328a50f27d682fdf42355bb59d2034a6f039"),
    "cc5-m5": (
        cycle_complement(5), ["--m", "5"], "a59e48a59a13a5029ae2b5336d96a3de98bdb83f5efb8fef9a46e708e30e2358"
    ),
    "cc7": (cycle_complement(7), [], "6896102450d55e8b66c198a447dec27d2ceddb5e3216531548165495f80b7afd"),
    "cc12": (cycle_complement(12), [], "63f65921e6d3b74a2956622d861b79ab33bb66178c0c8b6420249fd8e5a0d42d"),
}


def _thresholds_diagram(rng: random.Random, n: int) -> CoxeterDiagram:
    """A random spanning tree plus a third of the other pairs, as the
    benchmark's `thresholds` workload builds its inputs."""
    edges = {(rng.randrange(1, v), v) for v in range(2, n + 1)}
    rest = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1) if (i, j) not in edges]
    edges.update(rng.sample(rest, round(len(rest) / 3)))
    return CoxeterDiagram(n, frozenset(edges))


_RNG = random.Random(1)
_RAND14, _RAND16 = _thresholds_diagram(_RNG, 14), _thresholds_diagram(_RNG, 16)

# sha256 of `analyze` stdout: every interval it prints comes out of the root
# isolation and refinement.  K3 through cc20 were computed at commit 61bb572,
# the rest at 13d636e, before root counting moved off the Sturm chains.
_PINNED_ANALYSES = {
    "K3": (K3_TEXT, "92fe8b2b0f76e2b81ec5f5259ff24defb3e1d19a67e677cfab683a3873ce246b"),
    "P3": (P3_TEXT, "c3906dcd50a381c9339a193b32fae5466c1db3b51123a14a5ccc93a2c1b90ec6"),
    "K1,3": (
        "n 4\nedge 1 2\nedge 1 3\nedge 1 4\n", "32c0e8e3e5b05913521dcb1e075aa003ebe2a3f2ea32311639d01e79aafc068e"
    ),
    "cc5": (cycle_complement(5), "008791d17b8fe2edbb311b32110ea349edc04244d1719b1ba7a960219806386f"),
    "cc12": (cycle_complement(12), "69f86ed01f301d5ba0efd73fb7bc651e39dca323673a8497433aa2b506be68db"),
    "cc20": (cycle_complement(20), "26fadd05a1ec5171ac381085a2bf4fb652ed48838de1e1f99b75e57c9eb81c22"),
    "cc24": (cycle_complement(24), "53171db2b7c4beaac0eed6e04510f9a52cdf1964a4b8c44ef77b68c63af0bce8"),
    "rand14": (_RAND14, "6df97a99107012db25e14e3e567e10705a6fbbe2421aeb6af32f58f2c69c1272"),
    "rand16": (_RAND16, "5b07d0016df0989ffad2fe01099180f9c029a983a27af932ff294bddb82190c1"),
    "two P3": (
        "n 6\nedge 1 2\nedge 2 3\nedge 4 5\nedge 5 6\n",
        "161cbcc9c6b2696693cdb25206852470e381472f98b2b9f2d6c2ac063b1dd8b9",
    ),
    # The n = 32 ladder, computed at 87a3fef, before the epsilon walk moved
    # to integer points on the positive half: a spanning tree plus each other
    # pair at rate 0.05 (random.Random(3)) and 0.7 (random.Random(2)).
    "cc32": (cycle_complement(32), "895fe4dd5262dd8b2d60154a628eb5063dece084eebf9738c98b030e7934bd96"),
    "P32": (
        CoxeterDiagram(32, frozenset((i, i + 1) for i in range(1, 32))),
        "ea889448319b8be061cec2d5fc3f38c572bdfc72455f7012c522c063aeb60120",
    ),
    "rand32/0.05": (
        random_connected_diagram(random.Random(3), 32, 0.05),
        "71fb4432a791bce58c3187ebc09851fba0a71912c171378cc0f06d172d2ae1ea",
    ),
    "rand32/0.7": (
        random_connected_diagram(random.Random(2), 32, 0.7),
        "eed87ed85bad0fd0f27efda58c5510a2e02614fc9a8c134b8dd783952e808a68",
    ),
}


def _path(n):
    return CoxeterDiagram(n, frozenset((i, i + 1) for i in range(1, n)))


# sha256 of `density`, `words` and `cycle` stdout, computed at commit d35fb66,
# before the pencil's minors and identities moved to integer evaluation.
_PINNED_OUTPUTS = {
    "density cc7": (
        "density", cycle_complement(7), [], "13d6d88da0b9d913817f69c87650632fda864da0cfa2e5637a41f46baae48b6f"
    ),
    "density cc7 7/3": (
        "density", cycle_complement(7), ["--d", "7/3"],
        "523b4238423142b00d602c2c31ca9e13a81e9f400843207a49b4e2154457abcf",
    ),
    "density P3 3/2": (
        "density", P3_TEXT, ["--d", "3/2"], "4330d0aa8f7adfe56c6ba39648654bb3e8b053c059e945cfaddbea6383d3455a"
    ),
    # Multi-round traces, computed at commit b3fcf15, while the trace came
    # from bracket rounds over an integer echelon.
    "density P9": (
        "density", _path(9), [], "6e80ed8e5722ebd3bed5084e93e6e797f3378f38c52f650f7816258e1579b1e6"
    ),
    "density P9 0": (
        "density", _path(9), ["--d", "0"], "42a59af89c2c782f02d2630cbe59d94551afec1838767f1bf95791987b286492"
    ),
    "density P20": (
        "density", _path(20), [], "9891feef0d6ff3f4ee318925e4609db8a97be0a51c5bffe11be41aef77aa3c09"
    ),
    "words cc7 5": (
        "words", cycle_complement(7), ["--max-len", "5"],
        "dceff05fcf9fc867d3139d5efb1e36d57576ab1b09476149dcbe0619ddfe5114",
    ),
    # The `probe` benchmark's two commands, computed at commit 6d67502, while
    # `enumerate_by_length` still built the normal forms of the last sphere.
    "words cc7 8": (
        "words", cycle_complement(7), ["--max-len", "8"],
        "5f35843185bf7409a73ebe1c3a7a0205a72dcb3dcfc9683953b50ea34d095770",
    ),
    "words cc6 7 3/2": (
        "words", cycle_complement(6), ["--max-len", "7", "--at-d", "3/2"],
        "64e8e0fc9e238af02259e2c7b73e6664c81971574437e2e69cc61a9a7cfbccb2",
    ),
}
_PINNED_CYCLES = {
    5: "7eaa5fc246ac3e3c023fdf4f28568f61acd14f657ccffd2310d5a54c6fbdf96f",
    6: "998e466dc66403bdf3acf21003c221405eb92c1eea5772beb4da06ae0c51cc91",
    7: "c276c01eadf326c6cbf7d7292c35a095d927d2b0a69c210546bbec4299a8f0ae",
    8: "f7c803ef946f26056ae408eeb0ccaa19f6758e251c8307efb296bdf5715ece2a",
    9: "f8c7f1a055b0b52e9a679b7736e69332d212a8cadd0217f0ad1ad2383c09f76c",
    10: "79177e3bb9ff58aa0b352106f0c32eadfc822a3807f920aa8f1bef0a03186f12",
    11: "0cb22c494f828854343ea189a5613ab80833396feaa4f0c03e078b6538cf2c9a",
    12: "68d519d02224b00d35dde895c3a727979767121fa46e29359d91e7f8c5ed62d1",
}


def _stdout_digest(command, diagram, options, tmp_path, capsys) -> str:
    path = tmp_path / "g.diagram"
    path.write_text(diagram if isinstance(diagram, str) else serialize_diagram(diagram))
    assert main([command, str(path), *options]) == 0
    return hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("name", _PINNED_CERTIFICATES)
def test_embed_bytes_are_pinned(name, tmp_path, capsys):
    diagram, options, digest = _PINNED_CERTIFICATES[name]
    assert _stdout_digest("embed", diagram, options, tmp_path, capsys) == digest


@pytest.mark.parametrize("name", _PINNED_ANALYSES)
def test_analyze_bytes_are_pinned(name, tmp_path, capsys):
    diagram, digest = _PINNED_ANALYSES[name]
    assert _stdout_digest("analyze", diagram, [], tmp_path, capsys) == digest


@pytest.mark.parametrize("name", _PINNED_OUTPUTS)
def test_density_and_words_bytes_are_pinned(name, tmp_path, capsys):
    command, diagram, options, digest = _PINNED_OUTPUTS[name]
    assert _stdout_digest(command, diagram, options, tmp_path, capsys) == digest


@pytest.mark.parametrize("n", _PINNED_CYCLES)
def test_cycle_bytes_are_pinned(n, capsys):
    assert main(["cycle", "--n", str(n)]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest() == _PINNED_CYCLES[n]


def test_the_commands_build_no_sturm_chain(tmp_path, monkeypatch, capsys):
    # Sturm chains are only the tests' oracle: every root the commands count
    # comes from Budan-Fourier on a real-rooted squarefree polynomial
    def no_chain(*args, **kwargs):
        raise AssertionError("a command built a Sturm chain")

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "coxcert" and hasattr(module, "sturm_sequence"):
            monkeypatch.setattr(module, "sturm_sequence", no_chain)
    assert _stdout_digest("analyze", cycle_complement(12), [], tmp_path, capsys) == _PINNED_ANALYSES["cc12"][1]
    assert _stdout_digest("embed", cycle_complement(7), [], tmp_path, capsys) == _PINNED_CERTIFICATES["cc7"][2]
    assert main(["cycle", "--n", "7"]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest() == _PINNED_CYCLES[7]


def test_embed_decides_no_minor_at_tau(tmp_path, monkeypatch, capsys):
    # M_tau's definiteness is read off epsilon's check and the Galois bound, so
    # embed never calls the oracle; the digest is cc8's certificate at commit
    # 2c5b953, which still called it
    def no_oracle(*args, **kwargs):
        raise AssertionError("embed evaluated the minors at tau")

    monkeypatch.setattr("coxcert.vinberg.compact_conjugate_check", no_oracle)
    digest = "1d2ad45c019e1dd973026b1233e5f80e51ab66dfcc64be1c89be788fffdcf4cf"
    assert _stdout_digest("embed", cycle_complement(8), [], tmp_path, capsys) == digest


def test_the_commands_build_only_integer_polynomials(tmp_path, monkeypatch, capsys):
    # every polynomial a command computes with lies in Z[x]: gcds and
    # squarefree parts come back primitive, and D is passed as an int
    built = []
    init = Poly.__init__

    def recording_init(self, coeffs=()):
        init(self, coeffs)
        built.extend(c for c in self.coeffs if c.__class__ is not int)

    monkeypatch.setattr(Poly, "__init__", recording_init)
    minor_polynomials.cache_clear()
    runs = [
        ("analyze", cycle_complement(12), []),
        ("analyze", _thresholds_diagram(random.Random(12), 12), []),
        ("embed", K3_TEXT, []),
        ("embed", cycle_complement(7), []),
        ("embed", _thresholds_diagram(random.Random(8), 8), []),
        ("density", cycle_complement(7), []),
        ("density", cycle_complement(7), ["--d", "3/2"]),
        ("words", cycle_complement(7), ["--max-len", "4"]),
        ("words", cycle_complement(7), ["--max-len", "4", "--at-d", "3/2"]),
    ]
    for command, diagram, options in runs:
        _stdout_digest(command, diagram, options, tmp_path, capsys)
        assert not built, (command, options, built)
    assert main(["cycle", "--n", "9"]) == 0
    assert not built, ("cycle", built)


def test_embed_to_an_unwritable_path_is_usage_error(k3_file, tmp_path, monkeypatch, capsys):
    def no_pipeline(*args, **kwargs):
        raise AssertionError("the pipeline ran before --out was checked")

    monkeypatch.setattr("coxcert.vinberg.build_embedding_certificate", no_pipeline)
    for out in (tmp_path / "missing" / "k3.json", tmp_path):
        assert main(["embed", k3_file, "--out", str(out)]) == 2
        assert "error: cannot write" in capsys.readouterr().err
        assert not (tmp_path / "missing").exists()


def test_embed_timings_on_stderr_only(k3_file, capsys):
    main(["embed", k3_file])
    captured = capsys.readouterr()
    assert "#" not in captured.out
    assert any(line.startswith("# ") for line in captured.err.splitlines())
    json.loads(captured.out)  # stdout is pure JSON


def test_embed_negative_probe_len_is_usage_error(k3_file, capsys):
    assert main(["embed", k3_file, "--probe-len", "-1"]) == 2
    assert "--probe-len" in capsys.readouterr().err


def test_embed_verify_round_trip(k3_file, tmp_path, capsys):
    cert = tmp_path / "k3.json"
    assert main(["embed", k3_file, "--out", str(cert)]) == 0
    capsys.readouterr()
    assert main(["verify", str(cert), k3_file]) == 0
    out = capsys.readouterr().out
    assert "certificate verified" in out


def test_verify_rejects_tampered_certificate(k3_file, tmp_path, capsys):
    cert = tmp_path / "k3.json"
    main(["embed", k3_file, "--out", str(cert)])
    payload = json.loads(cert.read_text())
    payload["unit"]["alpha"]["a"] = "17/1"
    cert.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")
    capsys.readouterr()
    assert main(["verify", str(cert), k3_file]) == 1
    assert "failed:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "path, value, message",
    [
        (("thresholds", "epsilon"), "1/1000", "alpha lies below 1/epsilon"),
        (("unit", "tau_alpha", "b"), "1/1", "not the conjugate of alpha"),
        (("unit", "product"), "1/1", "alpha * tau(alpha) does not match"),
    ],
)
def test_verify_rechecks_the_galois_pair(path, value, message, k3_file, tmp_path, capsys):
    cert = tmp_path / "k3.json"
    main(["embed", k3_file, "--out", str(cert)])
    payload = json.loads(cert.read_text())
    node = payload
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    cert.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")
    capsys.readouterr()
    assert main(["verify", str(cert), k3_file]) == 1
    err = capsys.readouterr().err
    assert message in err and "choose_unit" not in err


def test_verify_names_a_stored_pell_solution_that_is_not_fundamental(k3_file, tmp_path, capsys):
    # (3, 2) solves x^2 - 2y^2 = 1 but is (1 + sqrt 2)^2, not the fundamental unit.
    cert = tmp_path / "k3.json"
    main(["embed", k3_file, "--out", str(cert)])
    payload = json.loads(cert.read_text())
    payload["unit"]["pell"].update(x="3", y="2", norm=1)
    cert.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")
    capsys.readouterr()
    assert main(["verify", str(cert), k3_file]) == 1
    err = capsys.readouterr().err
    assert "stored Pell solution PellSolution(m=2, x=3, y=2, norm=1) is not fundamental for m=2" in err


def test_verify_rejects_wrong_diagram(k3_file, p3_file, tmp_path, capsys):
    cert = tmp_path / "k3.json"
    main(["embed", k3_file, "--out", str(cert)])
    capsys.readouterr()
    assert main(["verify", str(cert), p3_file]) == 1
    assert "different diagram" in capsys.readouterr().err


def _drop_probe(payload):
    del payload["faithfulness_probe"]


def _negative_probe(payload):
    payload["faithfulness_probe"]["max_len"] = -1


def _string_radicand(payload):
    payload["m"] = "2"


def _string_power(payload):
    payload["unit"]["power"] = "x"


def _float_power(payload):
    payload["unit"]["power"] = 1.5


def _bool_radicand(payload):
    payload["unit"]["pell"]["m"] = True


def _string_norm(payload):
    payload["unit"]["pell"]["norm"] = "x"


def _float_pell_x(payload):
    payload["unit"]["pell"]["x"] = float(payload["unit"]["pell"]["x"])


def _huge_pell_x(payload):
    payload["unit"]["pell"]["x"] = "9" * 5000  # past int()'s default digit limit


def _signed_pell_y(payload):
    payload["unit"]["pell"]["y"] = "+" + payload["unit"]["pell"]["y"]


def _diagram_not_an_object(payload):
    payload["diagram"] = []


def _zero_denominator(payload):
    payload["unit"]["product"] = "1/0"


# Each mutation, with the field the error message must name.
_MALFORMED = [
    (_drop_probe, "faithfulness_probe"),
    (_negative_probe, "faithfulness_probe.max_len"),
    (_string_radicand, "m"),
    (_string_power, "unit.power"),
    (_float_power, "unit.power"),
    (_bool_radicand, "unit.pell.m"),
    (_string_norm, "unit.pell.norm"),
    (_float_pell_x, "unit.pell.x"),
    (_huge_pell_x, "unit.pell.x"),
    (_signed_pell_y, "unit.pell.y"),
    (_diagram_not_an_object, "diagram"),
    (_zero_denominator, "unit.product"),
]


@pytest.mark.parametrize("mutate, field", _MALFORMED, ids=[mutate.__name__ for mutate, _ in _MALFORMED])
def test_verify_rejects_malformed_certificate(mutate, field, k3_file, tmp_path, capsys):
    cert = tmp_path / "k3.json"
    main(["embed", k3_file, "--out", str(cert)])
    payload = json.loads(cert.read_text())
    mutate(payload)
    cert.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")
    capsys.readouterr()
    assert main(["verify", str(cert), k3_file]) == 2
    assert f"certificate is malformed: {field} " in capsys.readouterr().err


def test_verify_rejects_huge_unit_power_without_exponentiating(k3_file, tmp_path, capsys):
    import subprocess
    import sys

    # A huge power at m = 2, and at m = 992566, whose fundamental x has 1,296
    # digits, a power of 14,000 with alpha's rational part 4,290 nines: that
    # is below alpha's bit length (14,251) but its power is about 18 million bits.
    cases = ((2, 10_000_000, None), (992566, 14_000, "9" * 4290 + "/1"))
    for m, power, alpha_a in cases:
        cert = tmp_path / f"k3_m{m}.json"
        main(["embed", k3_file, "--m", str(m), "--out", str(cert)])
        payload = json.loads(cert.read_text())
        payload["unit"]["power"] = power
        if alpha_a is not None:
            payload["unit"]["alpha"]["a"] = alpha_a
        cert.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")
        proc = subprocess.run(
            [sys.executable, "-m", "coxcert", "verify", str(cert), k3_file],
            capture_output=True,
            text=True,
            timeout=10,
        )
        assert proc.returncode == 1, m
        assert "not the stated power" in proc.stderr, m


@pytest.mark.parametrize("path", [("thresholds", "epsilon"), ("unit", "alpha", "a")])
def test_verify_rejects_a_decimal_exponent_without_expanding_it(path, k3_file, tmp_path):
    import subprocess
    import sys

    cert = tmp_path / "k3.json"
    main(["embed", k3_file, "--out", str(cert)])
    payload = json.loads(cert.read_text())
    node = payload
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = "1e20000000"
    cert.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")
    proc = subprocess.run(
        [sys.executable, "-m", "coxcert", "verify", str(cert), k3_file],
        capture_output=True,
        text=True,
        timeout=10,
    )
    assert proc.returncode == 2
    assert "certificate is malformed" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_verify_rejects_non_certificate(k3_file, tmp_path, capsys):
    cert = tmp_path / "junk.json"
    cert.write_text('{"format": "something-else"}\n')
    assert main(["verify", str(cert), k3_file]) == 2
    cert.write_text("not json at all")
    assert main(["verify", str(cert), k3_file]) == 2


@pytest.mark.parametrize("opener", ["[", '{"a":'])
def test_verify_on_deeply_nested_json_is_usage_error(opener, k3_file, tmp_path, capsys):
    cert = tmp_path / "nested.json"
    cert.write_text(opener * 200_000)
    assert main(["verify", str(cert), k3_file]) == 2
    err = capsys.readouterr().err
    assert "not valid JSON" in err
    assert "Traceback" not in err


def test_density_command(p3_file, capsys):
    assert main(["density", p3_file, "--d", "2"]) == 0
    out = capsys.readouterr().out
    assert "dimension trace: 2 -> 3" in out
    assert "final dimension: 3 of 3" in out
    assert out.rstrip().endswith("PASS")


def test_density_degenerate_point_fails(k3_file, capsys):
    assert main(["density", k3_file, "--d", "1/2"]) == 1
    assert "failed:" in capsys.readouterr().err


def test_density_disconnected_diagram_is_usage_error(tmp_path, capsys):
    path = tmp_path / "two_edges.diagram"
    path.write_text("n 4\nedge 1 2\nedge 3 4\n")
    assert main(["density", str(path)]) == 2
    assert "connected" in capsys.readouterr().err


def test_density_bad_parameter_is_usage_error(k3_file, capsys):
    assert main(["density", k3_file, "--d", "banana"]) == 2
    assert "not a rational number" in capsys.readouterr().err


@pytest.mark.parametrize("text", ["1_000", " 3/2 ", "1e3", "0.5", "1/0", "3/-2", "+-2"])
def test_parameter_outside_integer_or_p_over_q_is_usage_error(text, k3_file, capsys):
    assert main(["density", k3_file, "--d", text]) == 2
    assert "not a rational number" in capsys.readouterr().err


@pytest.mark.parametrize("text", ["2", "+2", "4/2", "+3/2"])
def test_parameter_as_integer_or_p_over_q_is_accepted(text, p3_file):
    assert main(["density", p3_file, "--d", text]) == 0
    assert main(["words", p3_file, "--max-len", "2", "--at-d", text]) == 0


@pytest.mark.parametrize(
    "options",
    [["density", "--d", "1e999999999"], ["words", "--max-len", "2", "--at-d", "1e999999999"]],
    ids=["density", "words"],
)
def test_parameter_with_a_huge_exponent_is_refused_unexpanded(options, tmp_path):
    import subprocess
    import sys

    diagram = tmp_path / "cc5.diagram"
    diagram.write_text(serialize_diagram(cycle_complement(5)))
    command, *rest = options
    proc = subprocess.run(
        [sys.executable, "-m", "coxcert", command, str(diagram), *rest],
        capture_output=True,
        text=True,
        timeout=10,
    )
    assert proc.returncode == 2
    assert "not a rational number" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_words_command(p3_file, capsys):
    assert main(["words", p3_file, "--max-len", "3"]) == 0
    out = capsys.readouterr().out
    assert "word counts: 1 3 5 8" in out
    assert "faithfulness probe: PASS" in out
    p3 = CoxeterDiagram(3, frozenset({(1, 2), (2, 3)}))
    counts = enumerate_by_length(p3, 3)
    assert f"word counts: {' '.join(map(str, counts))}\n" in out
    # The probe counts the same words, so the CLI could print its counts.
    assert list(faithfulness_probe(p3, 2, 3).word_counts) == list(counts)


def test_normal_forms_that_merge_fail_the_word_count(k3_file, monkeypatch, capsys):
    # Were the walk to give two elements of length 2 one normal form, it would
    # hold fewer forms than the descent masks count: a bug, so the count
    # raises VerificationFailed and `words` exits 1.
    real = words.append_letter

    def merging(nf, letter, g):
        return real(nf, 2 if (nf, letter) == ((1,), 3) else letter, g)

    monkeypatch.setattr(words, "append_letter", merging)
    with pytest.raises(VerificationFailed, match="5 normal forms of length 2, counted 6"):
        enumerate_by_length(CoxeterDiagram(3, frozenset({(1, 2), (1, 3), (2, 3)})), 4)
    assert main(["words", k3_file, "--max-len", "4"]) == 1
    err = capsys.readouterr().err
    assert "failed: 5 normal forms of length 2" in err
    assert "Traceback" not in err


def test_words_at_d_below_one_is_usage_error(p3_file, capsys):
    assert main(["words", p3_file, "--at-d", "1/2"]) == 2
    assert "--at-d" in capsys.readouterr().err


def test_words_negative_length_is_usage_error(p3_file, capsys):
    assert main(["words", p3_file, "--max-len", "-1"]) == 2


def test_words_on_a_long_thin_ball_is_quick(tmp_path, capsys):
    # One edge and an isolated vertex: spheres of 4 elements out to radius
    # 249,990, a ball inside the cap.  Cross-checking every layer would build
    # about 10^11 letters; only the layers within MAX_BALL_ELEMENTS letters
    # are built.
    path = tmp_path / "edge.diagram"
    path.write_text("n 3\nedge 1 2\n")
    start = time.perf_counter()
    assert main(["words", str(path), "--max-len", "249990", "--at-d", "1"]) == 0
    assert time.perf_counter() - start < 2
    assert capsys.readouterr().out.startswith("word counts: 1 3 4 4 4 ")


@pytest.mark.parametrize("command", ["verify", "embed", "words"])
def test_ball_past_the_cap_is_usage_error(command, k3_file, tmp_path, monkeypatch, capsys):
    cert = tmp_path / "k3.json"
    if command == "verify":
        main(["embed", k3_file, "--out", str(cert)])
        payload = json.loads(cert.read_text())
        payload["faithfulness_probe"]["max_len"] = 40
        cert.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")
    argv = {
        "verify": ["verify", str(cert), k3_file],
        "embed": ["embed", k3_file, "--probe-len", "40"],
        "words": ["words", k3_file, "--max-len", "40"],
    }[command]
    monkeypatch.setattr("coxcert.words.MAX_BALL_ELEMENTS", 1000)
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "more than 1000 elements" in err
    assert "Traceback" not in err


def test_words_on_a_finite_group_pads_counts_and_caps_the_radius(tmp_path, monkeypatch, capsys):
    # The edgeless diagram on 3 vertices has (Z/2)^3 as its group: every layer
    # past length 3 is empty and printed as 0, and a radius above the cap is
    # refused although the ball itself stays within it.
    path = tmp_path / "n3.txt"
    path.write_text("n 3\n")
    monkeypatch.setattr("coxcert.words.MAX_BALL_ELEMENTS", 10)
    assert main(["words", str(path), "--max-len", "10"]) == 0
    out = capsys.readouterr().out
    zeros = " 0" * 7
    assert f"word counts: 1 3 3 1{zeros}\n" in out
    assert f"image counts: 1 3 3 1{zeros}\n" in out
    assert "faithfulness probe: PASS" in out
    assert main(["words", str(path), "--max-len", "11"]) == 2
    err = capsys.readouterr().err
    assert "radius 11" in err
    assert "Traceback" not in err


def test_cycle_command(capsys):
    assert main(["cycle", "--n", "5"]) == 0
    out = capsys.readouterr().out
    assert "n 5" in out
    assert "D: 2" in out
    assert "circulant identity: pass" in out
    assert out.rstrip().endswith("PASS")


def test_cycle_too_small_is_usage_error(capsys):
    assert main(["cycle", "--n", "4"]) == 2


@pytest.mark.parametrize(
    "args, stdin",
    [(["analyze", "-"], "n 100000\n"), (["cycle", "--n", "100000"], "")],
    ids=["analyze", "cycle"],
)
def test_huge_vertex_count_is_usage_error_without_work(args, stdin):
    import subprocess
    import sys

    proc = subprocess.run(
        [sys.executable, "-m", "coxcert", *args],
        input=stdin,
        capture_output=True,
        text=True,
        timeout=10,
    )
    assert proc.returncode == 2
    assert "at most 32" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_console_script_entry_point():
    import subprocess
    import sys

    proc = subprocess.run(
        [sys.executable, "-m", "coxcert", "analyze", "-"],
        input=K3_TEXT,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "vertices: 3" in proc.stdout


# Written into a certificate as a bare integer literal, past the 4300 digits
# Python parses by default; as an option it is just those digits.
_LONG_LITERAL = "9" * 5000
# Values of every JSON kind, and some past the usual ranges.
_FUZZ_VALUES = [None, True, 1.5, 10**500, "1/0", "7" * 4000 + "/3", [1, 2], {"a": 1}, _LONG_LITERAL]


def _node_paths(node, path=()):
    """Paths to every node below the root, leaves and containers alike."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield path + (key,)
        yield from _node_paths(child, path + (key,))


def _run_bounded(argv) -> int:
    """main's exit code, usage errors included, within 1 s."""
    start = time.perf_counter()
    code = main(argv)
    assert time.perf_counter() - start < 1, argv
    return code


@pytest.mark.parametrize("value", _FUZZ_VALUES, ids=lambda v: type(v).__name__)
def test_verify_survives_any_node_replaced(value, k3_file, tmp_path, capsys):
    cert = tmp_path / "k3.json"
    main(["embed", k3_file, "--out", str(cert)])
    text = cert.read_text()
    mutant = tmp_path / "mutant.json"
    for path in _node_paths(json.loads(text)):
        payload = json.loads(text)
        node = payload
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        mutated = json.dumps(payload, sort_keys=True, indent=2)
        mutant.write_text(mutated.replace(json.dumps(_LONG_LITERAL), _LONG_LITERAL) + "\n")
        assert _run_bounded(["verify", str(mutant), k3_file]) in (0, 1, 2), path
    capsys.readouterr()


@pytest.mark.parametrize(
    "options",
    [
        ["density", "{diagram}", "--d"],
        ["words", "{diagram}", "--max-len", "2", "--at-d"],
        ["embed", "{diagram}", "--out", "{out}", "--m"],
        ["embed", "{diagram}", "--out", "{out}", "--probe-len"],
        ["words", "{diagram}", "--max-len"],
        ["cycle", "--n"],
    ],
    ids=["density-d", "words-at-d", "embed-m", "embed-probe-len", "words-max-len", "cycle-n"],
)
def test_options_survive_any_value(options, k3_file, tmp_path, capsys):
    out = str(tmp_path / "k3.json")
    argv = [arg.format(diagram=k3_file, out=out) for arg in options]
    for value in _FUZZ_VALUES:
        text = json.dumps(value) if isinstance(value, (list, dict)) else str(value)
        assert _run_bounded(argv + [text]) in (0, 1, 2), (argv, text[:20])
    capsys.readouterr()


_VERTEX = st.integers(min_value=0, max_value=9).map(str)
# Zero-padded, and runs past the 4300 digits Python parses by default.
_NUMBERS = st.one_of(_VERTEX, _VERTEX.map("000".__add__), st.text("0123456789", min_size=20, max_size=5000))
_HEADER = st.one_of(st.integers(min_value=3, max_value=9), st.integers(min_value=0, max_value=40)).map("n {}".format)
_LINES = st.one_of(
    _HEADER,
    st.builds("n {}".format, _NUMBERS),
    st.builds("edge {} {}".format, _VERTEX, _VERTEX),
    st.builds("edge {} {}".format, _VERTEX, _VERTEX),
    st.builds("edge {} {}".format, _NUMBERS, _NUMBERS),
    st.builds("edge {} {} # {}".format, _VERTEX, _VERTEX, st.text(max_size=8)),
    st.just("# comment"),
    st.text(max_size=12),
).map(str.encode)
_NOT_UTF8 = st.sampled_from([b"\xff\xfe", b"\x80", b"\xc3", b"n \xff3"])
# Mostly led by a small `n` line, so that some mixes are diagrams.
_LINE_MIXES = st.builds(
    lambda head, lines: b"\n".join([head, *lines]),
    st.one_of(_HEADER.map(str.encode), st.just(b"")),
    st.lists(st.one_of(_LINES, _NOT_UTF8), max_size=16),
)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.one_of(st.binary(max_size=64), _LINE_MIXES))
def test_any_diagram_file_exits_cleanly(tmp_path_factory, data):
    # Arbitrary bytes and near-valid line mixes, read from a file by the
    # commands: each exits 0, 1 or 2 within a second and raises nothing.
    path = tmp_path_factory.mktemp("fuzz") / "g.diagram"
    path.write_bytes(data)
    assert _run_bounded(["analyze", str(path)]) in (0, 1, 2)
    assert _run_bounded(["words", str(path), "--max-len", "2", "--at-d", "1"]) in (0, 1, 2)
