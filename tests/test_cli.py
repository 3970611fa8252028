import hashlib
import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from test_demazure import hirzebruch, hirzebruch_times_p1

from toricsym import report as rp
from toricsym.cli import main
from toricsym.datasets import BUNDLED, bundled_path, load_bundled, nill_paffenholz
from toricsym.errors import ParseError, ValidationError
from toricsym.families import generate_futaki
from toricsym.fan import validate_fan
from toricsym.fileio import parse_fan_file, parse_polytope_file, write_fan_file


def path_of(name):
    return str(bundled_path(name))


def test_file_sha256_matches_hashlib(tmp_path):
    # The built-in SHA-256 that report.py loads instead of hashlib's OpenSSL.
    empty = tmp_path / "empty"
    empty.write_bytes(b"")
    long = tmp_path / "long"
    long.write_bytes(random.Random(3).randbytes(3 * 65536 + 17))
    for path in [bundled_path(name) for name in BUNDLED] + [empty, long]:
        assert rp.file_sha256(path) == hashlib.sha256(Path(path).read_bytes()).hexdigest()


def test_parse_bundled_p2():
    fan = parse_fan_file(path_of("p2"))
    assert fan.dim == 2 and len(fan.rays) == 3


def test_parse_bundled_fano52():
    fan = parse_fan_file(path_of("fano3fold_5_2"))
    assert fan.dim == 3 and len(fan.rays) == 8
    from toricsym.fan import is_complete, is_smooth

    assert is_complete(fan) and is_smooth(fan)


def test_all_bundled_parse():
    for name in BUNDLED:
        assert load_bundled(name).dim >= 2


def test_parse_rejects_nonprimitive_ray(tmp_path):
    bad = tmp_path / "bad.fan"
    bad.write_text("dim 2\nrays 3\n2 0\n0 1\n-1 -1\n")
    with pytest.raises(ValidationError):
        parse_fan_file(str(bad))


def test_bundled_face_fans_pass_the_pairwise_check():
    # Parsing skips the cone-pair check for face fans; it stays the oracle.
    for name in BUNDLED:
        assert validate_fan(load_bundled(name)).ok, name


def test_parse_rejects_explicit_cones_without_common_face(tmp_path):
    bad = tmp_path / "bad.fan"
    bad.write_text("dim 2\nrays 4\n1 0\n0 1\n1 2\n2 1\ncones 2\n0 1\n2 3\n")
    with pytest.raises(ValidationError, match="common face"):
        parse_fan_file(str(bad))


def test_cli_rejects_repeated_or_nested_cones(tmp_path, capsys):
    # Listed twice, the cone 0 2 would count each of its facets three times
    # in the completeness test; a face listed as a maximal cone likewise.
    header = "dim 2\nrays 3\n1 0\n0 1\n-1 -1\n"
    for cones in ("cones 4\n0 1\n1 2\n0 2\n0 2\n", "cones 4\n0 1\n1 2\n0 2\n2\n"):
        bad = tmp_path / "bad.fan"
        bad.write_text(header + cones)
        assert main(["verify-chain", str(bad)]) == 3
        err = capsys.readouterr().err
        assert "cones 2 and 3 repeat or contain one another" in err


def test_parse_reports_line_numbers(tmp_path):
    bad = tmp_path / "bad.fan"
    bad.write_text("dim 2\nrays 2\n1 0\nx 1\n")
    with pytest.raises(ParseError) as err:
        parse_fan_file(str(bad))
    assert err.value.line == 4


def test_parse_polytope_file(tmp_path):
    poly = tmp_path / "p.poly"
    poly.write_text("dim 2\nvertices 4\n# a comment\n1 1\n1 -1\n-1 1\n-1 -1\n")
    p = parse_polytope_file(str(poly))
    assert len(p.vertices) == 4


def test_parse_polytope_file_fractions(tmp_path):
    poly = tmp_path / "p.poly"
    poly.write_text("dim 2\nvertices 4\n0 1\n0 -1\n1/2 0\n-1/2 0\n")
    p = parse_polytope_file(str(poly))
    assert (Fraction(1, 2), Fraction(0)) in p.vertices


def test_cli_analyze_json_roundtrip(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(["analyze", path_of("p2"), "--k-max", "2", "--json", str(out)])
    assert code == 0
    stdout = capsys.readouterr().out
    report = json.loads(stdout)
    assert json.loads(out.read_text()) == report
    assert rp.from_json(rp.to_json(report)) == report
    assert report["stability"]["delta"] == "1"
    assert report["symmetry"]["aut_p_order"] == 6
    assert report["demazure"]["dim_aut0"] == 8
    assert report["chain"]["consistent"] is True


def test_analyze_matches_ladder_references():
    # The dimension-5 fans of the benchmark ladder, which the bundled
    # self-tests do not reach; only the "input" block depends on the file.
    ladder = Path(__file__).resolve().parents[1] / "bench" / "references" / "ladder"
    for a, b in ((2, 2), (1, 3)):
        got = json.loads(rp.to_json(rp.analyze(generate_futaki(a, b))))
        ref = json.loads((ladder / f"futaki_{a}_{b}.json").read_text())
        del got["input"], ref["input"]
        assert got == ref, (a, b)


def test_cli_analyze_deterministic(capsys):
    main(["analyze", path_of("dp1"), "--k-max", "2"])
    first = capsys.readouterr().out
    main(["analyze", path_of("dp1"), "--k-max", "2"])
    second = capsys.readouterr().out
    assert first == second


def test_cli_analyze_skip_flags(capsys):
    code = main(
        ["analyze", path_of("dp2"), "--skip-demazure", "--skip-ehrhart"]
    )
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["demazure"] == {"skipped": True}
    assert report["ehrhart"] == {"skipped": True}


def test_cli_bc(capsys):
    assert main(["bc", path_of("dp1"), "--k", "1"]) == 0
    assert capsys.readouterr().out.strip() == "1/9 1/9"


def test_cli_ehrhart(capsys):
    assert main(["ehrhart", path_of("p2")]) == 0
    assert capsys.readouterr().out.strip() == "1 9/2 9/2"


def test_cli_roots(capsys):
    assert main(["roots", path_of("dp2")]) == 0
    out = capsys.readouterr().out
    assert "unipotent" in out and "semisimple" not in out


def test_cli_aut(capsys):
    assert main(["aut", path_of("p1xp1")]) == 0
    out = capsys.readouterr().out
    assert "aut_p_order 8" in out and "aut0_p_order 4" in out


def test_cli_alpha_delta(capsys):
    assert main(["alpha", path_of("fano3fold_5_2")]) == 0
    assert capsys.readouterr().out.strip() == "1/2"
    assert main(["delta", path_of("fano3fold_5_2")]) == 0
    assert capsys.readouterr().out.strip() == "36/41"
    assert main(["delta", path_of("dp1"), "--k", "1"]) == 0
    assert capsys.readouterr().out.strip() == "9/11"


def test_cli_demazure(capsys):
    assert main(["demazure", path_of("dp2")]) == 0
    out = capsys.readouterr().out
    assert "unipotent_dim 2" in out
    assert "gs_factor_sizes 1 1 1 1 1" in out


def test_cli_verify_chain(capsys):
    files = [path_of(n) for n in ("p2", "dp1", "dp2", "dp3", "p1xp1")]
    assert main(["verify-chain", *files, "--k-budget", "3"]) == 0
    out = capsys.readouterr().out
    assert out.count("consistent") == 5


def test_cli_futaki_roundtrip(tmp_path, capsys):
    out = tmp_path / "futaki_2_1.fan"
    assert main(["futaki", "--n1", "2", "--n2", "1", "--out", str(out)]) == 0
    capsys.readouterr()
    fan = parse_fan_file(str(out))
    assert fan.dim == 4 and len(fan.rays) == 7
    assert main(["verify-chain", str(out)]) == 0


def test_write_fan_file_keeps_explicit_cones(tmp_path):
    for fan in (hirzebruch(2), hirzebruch_times_p1(3)):
        path = tmp_path / "cones.fan"
        write_fan_file(str(path), fan)
        assert parse_fan_file(str(path)) == fan


def test_written_face_fan_has_rays_only(tmp_path):
    out = tmp_path / "futaki_1_2.fan"
    assert main(["futaki", "--n1", "1", "--n2", "2", "--out", str(out)]) == 0
    assert out.read_text() == (
        "# blow-up family member n1=1 n2=2\ndim 4\nrays 7\n1 0 0 0\n0 1 0 0\n"
        "0 0 1 0\n0 0 0 1\n-1 -1 -1 -1\n0 -1 -1 -1\n0 1 1 1\n"
    )


def test_cli_futaki_permutation_symmetry(tmp_path, capsys):
    # (2,1) and (1,2) differ by relabeling coordinates: same invariants.
    a = tmp_path / "a.fan"
    b = tmp_path / "b.fan"
    main(["futaki", "--n1", "2", "--n2", "1", "--out", str(a)])
    main(["futaki", "--n1", "1", "--n2", "2", "--out", str(b)])
    capsys.readouterr()
    main(["delta", str(a)])
    da = capsys.readouterr().out
    main(["delta", str(b)])
    db = capsys.readouterr().out
    assert da == db
    main(["aut", str(a)])
    aa = capsys.readouterr().out
    main(["aut", str(b)])
    ab = capsys.readouterr().out
    assert aa == ab


def test_cli_exit_codes(tmp_path, capsys):
    missing = tmp_path / "missing.fan"
    assert main(["analyze", str(missing)]) == 2
    bad = tmp_path / "bad.fan"
    bad.write_text("dim 2\nrays 1\n1 0 0\n")
    assert main(["analyze", str(bad)]) == 2
    nonprim = tmp_path / "nonprim.fan"
    nonprim.write_text("dim 2\nrays 3\n2 0\n0 1\n-1 -1\n")
    assert main(["analyze", str(nonprim)]) == 3
    capsys.readouterr()


def test_unwritable_output_is_a_write_error(tmp_path, capsys):
    out = tmp_path / "missing" / "out"
    assert main(["futaki", "--n1", "1", "--n2", "1", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("write error: ") and str(out) in err
    assert main(["analyze", path_of("p2"), "--json", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("write error: ") and str(out) in captured.err
    assert captured.out == ""
    # A missing input stays a parse error.
    assert main(["analyze", str(out)]) == 2
    assert capsys.readouterr().err.startswith("parse error: ")


def test_cli_exit_code_4_on_chain_violation(monkeypatch, capsys):
    # An inconsistent chain report can only come from a bug, so fake one
    # to pin the exit-code contract.
    import toricsym.cli as cli
    from toricsym.chain import ChainReport

    fake = ChainReport(
        nodes=(("bs_symmetric", True), ("bc_zero", False)),
        violations=(("bs_symmetric", "bc_zero"),),
        quantized=(),
        barycenter=(),
    )
    monkeypatch.setattr(cli, "verify_implication_chain", lambda f, k_budget: fake)
    assert main(["verify-chain", path_of("p2")]) == 4
    capsys.readouterr()


def test_cli_analyze_non_fano_embeds_stage_errors(tmp_path, capsys):
    # A valid complete fan that is not reflexive: the pipeline records the
    # failing stages in the report but the run itself succeeds.
    f = tmp_path / "p113.fan"
    f.write_text("dim 2\nrays 3\n1 0\n0 1\n-1 -3\n")
    assert main(["analyze", str(f)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["fan"]["fano"] is False
    assert "error" in report["chain"]
    assert "error" in report["stability"]
    assert "error" in report["ehrhart"]
    # Each stage error names its exception type beside the message.
    assert report["chain"]["type"] == "NonFanoError"
    assert report["stability"]["type"] == "NonFanoError"
    assert report["ehrhart"] == {
        "error": "Ehrhart polynomial requires a lattice polytope",
        "type": "NonLatticePolytopeError",
    }


def test_np_loader_absent_is_empty():
    assert nill_paffenholz() == {}


# The commands that read a fan file, with the integer option each takes.
FILE_COMMANDS = {
    "analyze": ["--k-max"],
    "bc": ["--k"],
    "ehrhart": [],
    "roots": [],
    "aut": [],
    "alpha": [],
    "delta": ["--k"],
    "demazure": [],
    "verify-chain": ["--k-budget"],
}


def command_argv(command, path, k):
    return [command, path] + [x for flag in FILE_COMMANDS[command] for x in (flag, str(k))]


@pytest.mark.parametrize("command", sorted(FILE_COMMANDS))
def test_non_utf8_input_is_a_parse_error(tmp_path, capsys, command):
    bad = tmp_path / "bad.fan"
    bad.write_bytes(b"\xff\xfe dim 2\n")
    assert main(command_argv(command, str(bad), 1)) == 2
    assert "line 1: not UTF-8 text (byte 0xff)" in capsys.readouterr().err


def test_non_utf8_byte_is_located(tmp_path):
    bad = tmp_path / "bad.fan"
    bad.write_bytes(b"dim 2\nrays 3\n1 0\n0 1\n-1 \xc3\n")
    with pytest.raises(ParseError) as err:
        parse_fan_file(str(bad))
    assert err.value.line == 5


@pytest.mark.parametrize(
    "argv",
    [["analyze", "--k-max", "-2"], ["verify-chain", "--k-budget", "-1"]],
)
def test_negative_dilation_counts_are_rejected(capsys, argv):
    assert main([argv[0], path_of("dp3"), *argv[1:]]) == 3
    assert "must be a nonnegative integer" in capsys.readouterr().err


def test_k_max_zero_stays_valid(capsys):
    assert main(["analyze", path_of("p2"), "--k-max", "0"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["quantized_barycenters"] == {}
    assert report["chain"]["consistent"] is True


FUZZ_TOKENS = st.one_of(
    st.integers(-3, 3).map(str),
    st.sampled_from(["x", "1/2", "1.5", "-", "#", "dim", "rays", "cones", "0x1", "\uff11", "10" * 12]),
)


SMALL_BUNDLED = [name for name in BUNDLED if load_bundled(name).dim <= 3]


@st.composite
def fan_texts(draw):
    """A fan file near the grammar, then a few random edits.

    The file is a bundled fan of dimension <= 3 or a drawn one: a header,
    rays with entries mostly in -1..1 and maybe cones.  An edit inserts,
    deletes or replaces a line, or replaces one token by a small integer,
    which keeps most files parseable and reaches the commands themselves.
    """
    if draw(st.booleans()):
        lines = bundled_path(draw(st.sampled_from(SMALL_BUNDLED))).read_text().splitlines()
    else:
        n = draw(st.integers(1, 3))
        d = draw(st.integers(0, 7))
        coordinate = st.sampled_from([-1, -1, 0, 1, 1, 2]).map(str)
        lines = [f"dim {n}", f"rays {d}"]
        lines += [" ".join(draw(st.lists(coordinate, min_size=n, max_size=n))) for _ in range(d)]
        if draw(st.integers(0, 3)) == 0:
            c = draw(st.integers(0, 4))
            lines.append(f"cones {c}")
            index = st.integers(-1, d).map(str)
            lines += [" ".join(draw(st.lists(index, max_size=n + 1))) for _ in range(c)]
    for _ in range(draw(st.sampled_from([0, 1, 1, 2, 3]))):
        i = draw(st.integers(0, len(lines)))
        edit = draw(st.sampled_from(["insert", "delete", "replace", "token", "token"]))
        if edit == "insert":
            lines.insert(i, " ".join(draw(st.lists(FUZZ_TOKENS, max_size=4))))
        elif i == len(lines):
            continue
        elif edit == "delete":
            del lines[i]
        elif edit == "replace":
            lines[i] = " ".join(draw(st.lists(FUZZ_TOKENS, max_size=4)))
        elif lines[i].split():
            tokens = lines[i].split()
            tokens[draw(st.integers(0, len(tokens) - 1))] = str(draw(st.integers(-3, 3)))
            lines[i] = " ".join(tokens)
    return ("\n".join(lines) + "\n").encode()


@settings(max_examples=150, deadline=None)
@given(
    st.one_of(fan_texts(), st.binary(max_size=48)),
    st.sampled_from(sorted(FILE_COMMANDS)),
    st.integers(-2, 3),
)
@example(b"\xff\xfe dim 2\n", "analyze", 3)
@example(bundled_path("dp3").read_bytes(), "analyze", -2)
def test_fuzzed_fan_files_end_in_an_exit_code(tmp_path_factory, data, command, k):
    # Any bytes, any command: a result or a message with exit code 2 or 3,
    # never a traceback and never exit code 4, which means a library bug.
    path = tmp_path_factory.getbasetemp() / "fuzz.fan"
    path.write_bytes(data)
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        code = main(command_argv(command, str(path), k))
    assert code in (0, 2, 3)


@st.composite
def polytope_texts(draw):
    """A polytope file near the grammar, with a line maybe replaced by junk."""
    n = draw(st.integers(0, 3))
    m = draw(st.integers(0, 6))
    entry = st.sampled_from(["0", "1", "-1", "1/2", "-3/2", "2", "1/0", "x"])
    lines = [f"dim {n}", f"vertices {m}"]
    lines += [" ".join(draw(st.lists(entry, min_size=n, max_size=n))) for _ in range(m)]
    if draw(st.booleans()):
        i = draw(st.integers(0, len(lines) - 1))
        lines[i] = " ".join(draw(st.lists(FUZZ_TOKENS, max_size=4)))
    return ("\n".join(lines) + "\n").encode()


@settings(max_examples=100, deadline=None)
@given(st.one_of(polytope_texts(), st.binary(max_size=48)))
@example(b"\xff\xfe dim 2\n")
def test_fuzzed_polytope_files_parse_or_raise_input_errors(tmp_path_factory, data):
    path = tmp_path_factory.getbasetemp() / "fuzz.poly"
    path.write_bytes(data)
    try:
        p = parse_polytope_file(str(path))
    except (ParseError, ValidationError):
        return
    assert len(p.vertices) >= p.dim + 1
